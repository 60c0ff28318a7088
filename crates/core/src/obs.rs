//! What identifies a plan and a host across runs: the structural plan
//! fingerprint and the `"host"` stamp of the bench artifacts.

use crate::dag::Node;
use crate::exec::Target;
use crate::json;
use crate::session::FlashCtx;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Structural fingerprint of a target set: a recursive, node-id-free
/// hash over shapes, dtypes and operator labels, so the same program
/// shape yields the same fingerprint in every process (leaves hash by
/// shape and storage class, not identity). Built on the unkeyed
/// `DefaultHasher`, which is deterministic across runs of one build.
pub fn plan_fingerprint(targets: &[Target]) -> u64 {
    let mut memo: HashMap<u64, u64> = HashMap::new();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    targets.len().hash(&mut h);
    for t in targets {
        let (tag, node) = match t {
            Target::Sink(n) => (0u8, n),
            Target::Tall { node, .. } => (1u8, node),
        };
        tag.hash(&mut h);
        node_fingerprint(node, &mut memo).hash(&mut h);
    }
    h.finish()
}

fn node_fingerprint(node: &Arc<Node>, memo: &mut HashMap<u64, u64>) -> u64 {
    if let Some(&f) = memo.get(&node.id) {
        return f;
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    node.label().hash(&mut h);
    node.nrows.hash(&mut h);
    node.ncols.hash(&mut h);
    node.dtype.hash(&mut h);
    if !node.is_effective_leaf() {
        let children = node.children();
        children.len().hash(&mut h);
        for c in children {
            node_fingerprint(c, memo).hash(&mut h);
        }
    }
    let f = h.finish();
    memo.insert(node.id, f);
    f
}

/// The `"host"` stamp every `BENCH_*.json` embeds (through
/// `flashr_bench::host_section_json`): what matches artifacts across runs.
pub fn host_json(ctx: &FlashCtx) -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let (backend, shards, cache) = match ctx.safs() {
        Some(s) => (s.backend_kind().as_str(), s.nshards(), s.page_cache_capacity()),
        None => ("none", 0, 0),
    };
    json::object(|w| {
        w.key("cpus").u64(cpus as u64);
        w.key("workers").u64(ctx.cfg().nthreads as u64);
        w.key("numa_nodes").u64(ctx.cfg().numa_nodes as u64);
        w.key("page_cache_capacity_bytes").u64(cache);
        w.key("build_profile").str(if cfg!(debug_assertions) { "debug" } else { "release" });
        w.key("simd").str(flashr_linalg::SimdLevel::active().name());
        w.key("backend").str(backend);
        w.key("shards").u64(shards as u64);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::FM;

    #[test]
    fn fingerprint_is_structural_not_identity() {
        let ctx = FlashCtx::in_memory();
        let mk = |rows| {
            FM::runif(&ctx, rows, 4, 0.0, 1.0, 7).sqrt().sum().pending_target().unwrap()
        };
        // Distinct node ids, same structure.
        let fa = plan_fingerprint(std::slice::from_ref(&mk(1024)));
        let fb = plan_fingerprint(std::slice::from_ref(&mk(1024)));
        assert_eq!(fa, fb);
        // Different shape, different fingerprint.
        assert_ne!(fa, plan_fingerprint(std::slice::from_ref(&mk(2048))));
    }

    #[test]
    fn host_json_has_backend_and_shards() {
        let ctx = FlashCtx::in_memory();
        let h = host_json(&ctx);
        assert!(h.contains("\"backend\":\"none\""), "{h}");
        assert!(h.contains("\"shards\":0"), "{h}");
        assert!(h.contains("\"simd\":"), "{h}");
    }
}
