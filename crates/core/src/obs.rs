//! What identifies a host across runs: the `"host"` stamp of the bench
//! artifacts.

use crate::json;
use crate::session::FlashCtx;

/// The `"host"` stamp every `BENCH_*.json` embeds (through
/// `flashr_bench::host_section_json`): what matches artifacts across runs.
pub fn host_json(ctx: &FlashCtx) -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let (device, shards, cache) = match ctx.safs() {
        Some(s) => {
            let device = if s.throttle().is_some() { "throttled" } else { "unthrottled" };
            (device, s.nshards(), s.page_cache_capacity())
        }
        None => ("none", 0, 0),
    };
    json::object(|w| {
        w.key("cpus").u64(cpus as u64);
        w.key("workers").u64(ctx.cfg().nthreads as u64);
        w.key("page_cache_capacity_bytes").u64(cache);
        w.key("build_profile").str(if cfg!(debug_assertions) { "debug" } else { "release" });
        w.key("simd").str(flashr_linalg::SimdLevel::active().name());
        w.key("backend").str(device);
        w.key("shards").u64(shards as u64);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_json_has_backend_and_shards() {
        let ctx = FlashCtx::in_memory();
        let h = host_json(&ctx);
        assert!(h.contains("\"backend\":\"none\""), "{h}");
        assert!(h.contains("\"shards\":0"), "{h}");
        assert!(h.contains("\"simd\":"), "{h}");
    }
}
