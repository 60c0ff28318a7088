//! Static analysis over the pending DAG, run before materialization.
//!
//! FlashR evaluates lazily precisely so the whole operation DAG is
//! visible before any data moves (paper §3.4–3.5). This module exploits
//! that window with a three-layer analyzer:
//!
//! 1. **verification** ([`infer`]) — full shape/dtype inference over
//!    every [`crate::dag::NodeKind`]; an inconsistent plan yields a
//!    typed [`PlanError`] naming the offending node *before any
//!    partition is read*, instead of a mid-pass panic;
//! 2. **optimization** ([`cse`]) — hash-consing common-subexpression
//!    elimination (structurally identical subtrees share one node, so
//!    `colMeans(X)` used twice reads `X` once), dead-node pruning,
//!    redundant-cast / `cbind`-of-one collapsing, and two exact product
//!    rewrites (a negated operand's sign moved onto the small matrix,
//!    sibling products of one operand merged into one), as a rewrite
//!    producing an equivalent DAG;
//! 3. **lints** ([`lint`]) — diagnostics for fusion-unfriendly patterns
//!    (reused-but-uncached subtrees, oversized broadcast row vectors,
//!    chained dtype conversions) plus a per-plan memory/I-O footprint
//!    estimate.
//!
//! Beside them, [`range`] derives static integer ranges of label
//! vectors for the R front-end's `groupby.row`.
//!
//! A fourth layer, **chain compilation** ([`chains`]), runs at
//! plan-build time rather than here: it needs the plan's consumer
//! counts and leaf-resolution map, so `exec::plan` invokes it after the
//! CSE rewrite, on every plan.
//!
//! [`analyze`] runs all three; [`crate::exec::materialize`] runs the
//! first two on every plan (the lints too when `FLASHR_DENY_LINTS` names
//! a code) and then the rewritten targets, and [`crate::fm::FM::check`]
//! exposes all three without executing anything.

pub mod chains;
pub mod cse;
pub mod infer;
pub mod lint;
pub mod range;

use crate::dag::Node;
use crate::exec::Target;
use crate::json;
use crate::session::FlashCtx;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A rotate, xor and multiply per word instead of SipHash: the analyzer
/// hashes every node of every plan it rewrites, on every
/// materialization, and a collision only costs a structural comparison
/// (see [`cse`]). A single `u64` key — a node id or a structural hash —
/// costs one multiply.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().unwrap_or_default()));
        }
        for &b in words.remainder() {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A map keyed by node id or structural hash.
pub(crate) type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;
/// A set of node ids.
pub(crate) type IdSet = HashSet<u64, BuildHasherDefault<IdHasher>>;

/// What went wrong with a plan, structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanErrorKind {
    /// A node's recorded shape disagrees with the shape inferred from
    /// its inputs (mismatched `mapply` dims, bad `inner.prod` inner
    /// dimension, ...).
    ShapeMismatch,
    /// A node's recorded dtype disagrees with the op's output-dtype rule
    /// applied to its inputs.
    DTypeMismatch,
    /// Tall matrices in one DAG do not share the partition dimension.
    PartitionMismatch,
    /// An operand violates an op-specific constraint (column index out
    /// of range, non-associative `inner.prod` combiner, ...).
    BadOperand,
    /// An operation was applied to a sink that must be materialized
    /// first (the `FM::Sink` misuse family).
    NotMaterialized,
    /// A lint named in `FLASHR_DENY_LINTS` fired — the warning is
    /// promoted to a hard error.
    LintDenied,
}

impl std::fmt::Display for PlanErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlanErrorKind::ShapeMismatch => "shape-mismatch",
            PlanErrorKind::DTypeMismatch => "dtype-mismatch",
            PlanErrorKind::PartitionMismatch => "partition-mismatch",
            PlanErrorKind::BadOperand => "bad-operand",
            PlanErrorKind::NotMaterialized => "not-materialized",
            PlanErrorKind::LintDenied => "lint-denied",
        };
        f.write_str(s)
    }
}

/// A typed pre-flight diagnostic: the offending node, its operator
/// label, and what the inference pass expected.
#[derive(Debug, Clone)]
pub struct PlanError {
    /// Id of the offending [`Node`].
    pub node: u64,
    /// The node's operator label (`Node::label` vocabulary).
    pub op: String,
    pub kind: PlanErrorKind,
    /// Human-readable detail including the inferred dims/dtypes.
    pub detail: String,
}

impl PlanError {
    pub fn new(node: &Node, kind: PlanErrorKind, detail: String) -> PlanError {
        PlanError { node: node.id, op: node.label(), kind, detail }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan error [{}] at n{} ({}): {}", self.kind, self.node, self.op, self.detail)
    }
}

impl std::error::Error for PlanError {}

impl PlanError {
    /// JSON object form (for `FM::check_json`).
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("node").u64(self.node);
            w.key("op").str(&self.op);
            w.key("kind").str(&self.kind.to_string());
            w.key("detail").str(&self.detail);
        })
    }
}

/// Promote the lints `FLASHR_DENY_LINTS` names to hard [`PlanError`]s:
/// the gate [`crate::fm::FM::check`] and [`crate::fm::FM::check_json`]
/// pass through ([`crate::exec::materialize`] reads the variable once and
/// calls [`promote_denied`] itself).
pub fn deny_gate(lints: &[Lint]) -> Result<(), PlanError> {
    promote_denied(lints, &crate::env::deny_lints())
}

/// The first lint whose code is in `denied` (upper-case codes; `ALL`
/// names every code), as a [`PlanErrorKind::LintDenied`] error on the
/// lint's node. An empty list promotes nothing.
pub fn promote_denied(lints: &[Lint], denied: &[String]) -> Result<(), PlanError> {
    let deny_all = denied.iter().any(|c| c == "ALL");
    match lints.iter().find(|l| deny_all || denied.iter().any(|c| c == l.code)) {
        None => Ok(()),
        Some(l) => Err(PlanError {
            node: l.node,
            op: l.code.to_string(),
            kind: PlanErrorKind::LintDenied,
            detail: format!("FLASHR_DENY_LINTS promotes {}: {}", l.code, l.message),
        }),
    }
}

/// One diagnostic from the lint pass. Codes are stable and documented in
/// DESIGN.md's lint catalogue (`W001` reused-uncached, `W002`
/// broadcast-rowvec, `W003` cast-chain, `W004` em-rescan-uncached).
#[derive(Debug, Clone)]
pub struct Lint {
    pub code: &'static str,
    /// Id of the node the lint anchors to.
    pub node: u64,
    pub message: String,
}

/// Estimated data movement for one materialization of the plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FootprintEstimate {
    /// Bytes read from materialized leaves (memory or SSDs) per pass.
    pub read_bytes: u64,
    /// Bytes produced by lazy generators per pass.
    pub gen_bytes: u64,
    /// Bytes written for tall outputs (targets and `set.cache`
    /// byproducts) per pass.
    pub write_bytes: u64,
}

/// Everything the analyzer learned about one plan.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Distinct reachable DAG nodes before the rewrite (incl. leaves).
    pub nodes_before: usize,
    /// Distinct reachable nodes after CSE/collapsing.
    pub nodes_after: usize,
    /// Duplicate subtrees merged by hash-consing.
    pub merged: usize,
    /// Redundant casts and single-input `cbind`s collapsed.
    pub collapsed: usize,
    pub lints: Vec<Lint>,
    pub footprint: FootprintEstimate,
}

impl AnalysisReport {
    /// Multi-line human-readable summary (appended to `FM::explain`).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "analysis: {} node(s) -> {} after rewrite ({} merged, {} collapsed)\n",
            self.nodes_before, self.nodes_after, self.merged, self.collapsed
        );
        let f = &self.footprint;
        out.push_str(&format!(
            "footprint: read {} B, gen {} B, write {} B\n",
            f.read_bytes, f.gen_bytes, f.write_bytes
        ));
        for l in &self.lints {
            out.push_str(&format!("{} n{}: {}\n", l.code, l.node, l.message));
        }
        out
    }

    /// JSON form, embedded in bench artifacts and trace exports.
    pub fn to_json(&self) -> String {
        json::object(|w| {
            w.key("nodes_before").u64(self.nodes_before as u64);
            w.key("nodes_after").u64(self.nodes_after as u64);
            w.key("merged").u64(self.merged as u64);
            w.key("collapsed").u64(self.collapsed as u64);
            w.key("lints").arr(|w| {
                for l in &self.lints {
                    w.obj(|w| {
                        w.key("code").str(l.code);
                        w.key("node").u64(l.node);
                        w.key("message").str(&l.message);
                    });
                }
            });
            w.key("footprint").obj(|w| {
                let f = &self.footprint;
                w.key("read_bytes").u64(f.read_bytes);
                w.key("gen_bytes").u64(f.gen_bytes);
                w.key("write_bytes").u64(f.write_bytes);
            });
        })
    }
}

/// The analyzer's full output: the report plus the rewritten targets the
/// engine should run and the cache bookkeeping the rewrite requires.
pub struct Analysis {
    pub report: AnalysisReport,
    /// Targets re-rooted on the canonical (rewritten) DAG, slot for slot.
    pub targets: Vec<Target>,
    /// `(original, canonical)` pairs for nodes with `set.cache` whose
    /// canonical representative differs: after materialization the
    /// canonical node's installed cache must be copied back so the
    /// user's handle (the original node) becomes an effective leaf.
    pub cache_pairs: Vec<(Arc<Node>, Arc<Node>)>,
}

/// Distinct reachable nodes (incl. effective leaves, not descending
/// past them) from a set of targets.
pub(crate) fn count_nodes(targets: &[Target]) -> usize {
    let mut seen = IdSet::default();
    let mut stack: Vec<Arc<Node>> = targets
        .iter()
        .map(|t| match t {
            Target::Sink(n) | Target::Tall { node: n, .. } => n.clone(),
        })
        .collect();
    while let Some(node) = stack.pop() {
        if !seen.insert(node.id) {
            continue;
        }
        if !node.is_effective_leaf() {
            node.for_each_child(|c| stack.push(c.clone()));
        }
    }
    seen.len()
}

/// Run the full pipeline: verify → rewrite → lint.
///
/// Verification failures return the [`PlanError`]; the rewrite and lint
/// layers always run on a verified DAG, and the rewritten targets are
/// what [`crate::exec::materialize`] executes.
pub fn analyze(ctx: &FlashCtx, targets: &[Target]) -> Result<Analysis, PlanError> {
    analyze_with(ctx, targets, true)
}

/// [`analyze`], with the lint layer only when `lint` is set; without it
/// the report has no lints and a zero footprint. Materialization lints
/// only when `FLASHR_DENY_LINTS` names a code, since nothing else there
/// reads the lints.
pub(crate) fn analyze_with(
    ctx: &FlashCtx,
    targets: &[Target],
    lint: bool,
) -> Result<Analysis, PlanError> {
    infer::verify(targets)?;
    let rw = cse::rewrite(targets);
    let (lints, footprint) =
        if lint { lint::run(ctx, &rw.targets) } else { (Vec::new(), FootprintEstimate::default()) };
    Ok(Analysis {
        report: AnalysisReport {
            nodes_before: rw.nodes_before,
            nodes_after: rw.nodes_after,
            merged: rw.merged,
            collapsed: rw.collapsed,
            lints,
            footprint,
        },
        targets: rw.targets,
        cache_pairs: rw.cache_pairs,
    })
}
