//! Sink accumulators (paper §3.3, operations g/h/i).
//!
//! Cross-partition aggregations (full/column aggregation, groupby,
//! Gramian) accumulate each partition into its worker's own partials —
//! no synchronization on the hot path — which the pass then folds in
//! partition order as partitions finish (`exec::inorder::InOrder`).
//!
//! Within a partition a sink's bits do not depend on the Pcache step,
//! so not on the pass it shares or the engine mode either. A float
//! `sum`/`mean` column and every Gramian output carry eight lane
//! partials across the partition's chunks (each a whole number of
//! 8-row blocks but the last) and fold them once, in the partition's
//! last chunk: the bits of one fold over the whole partition. Every
//! other fold is a running one in row order, or exact. The lanes live
//! only while the partition is processed.

use crate::chunk::Chunk;
use crate::dag::{Node, NodeKind};
use crate::element::Element;
use crate::ops::simd::{fold_col, has_lane_fold, sum_lanes_run, SimdLevel};
use crate::ops::AggOp;
use flashr_linalg::simd::gramian_f64;
use flashr_linalg::Dense;
use std::sync::Arc;

/// Rows × columns of one transposed block of the `groupby.row` fold.
const GB_ROWS: usize = 32;
const GB_COLS: usize = 8;

/// `groupby.row`'s fold of one chunk: `vals[g·p + c] = fold(vals[g·p + c],
/// data[r, c])` for every row `r` with label `g = lab[r]`. A block of up
/// to 32 rows × 8 columns is transposed into a stack tile, then each
/// row's strip folds into its group's contiguous slots. Every slot still
/// folds its rows in ascending order, so the result is the per-element
/// loop's, bit for bit.
#[inline(always)]
fn groupby_fold<T: Element>(
    data: &Chunk,
    lab: &[i64],
    vals: &mut [f64],
    fold: impl Fn(f64, f64) -> f64,
) {
    let (rows, p) = (data.rows(), data.cols());
    let mut tile = [[0.0f64; GB_COLS]; GB_ROWS];
    for c0 in (0..p).step_by(GB_COLS) {
        let cb = GB_COLS.min(p - c0);
        for r0 in (0..rows).step_by(GB_ROWS) {
            let rb = GB_ROWS.min(rows - r0);
            for c in 0..cb {
                for (t, v) in tile.iter_mut().zip(&data.col::<T>(c0 + c)[r0..r0 + rb]) {
                    t[c] = v.to_f64();
                }
            }
            for (t, &g) in tile[..rb].iter().zip(&lab[r0..r0 + rb]) {
                let slots = &mut vals[g as usize * p + c0..][..cb];
                for (s, &v) in slots.iter_mut().zip(&t[..cb]) {
                    *s = fold(*s, v);
                }
            }
        }
    }
}

/// One thread's partial state for one sink node.
#[derive(Debug)]
pub enum SinkAcc {
    /// `agg` (1 slot) or `agg.col` (p slots). Within a partition, a
    /// float `Sum`/`Mean` column carries its eight `lanes`, and a
    /// many-column `agg` folds each column into its own `run` before
    /// combining them in column order.
    Col { op: AggOp, vals: Vec<f64>, count: u64, elems: u64, lanes: Vec<[f64; 8]>, run: Vec<f64> },
    /// `t(A) %*% B`: p×k partial product. `sym` when `A` and `B` are one
    /// node (`crossprod`), so only the upper triangle is computed. Each
    /// output carries its eight `lanes` within a partition.
    Gramian { p: usize, k: usize, sym: bool, acc: Vec<f64>, lanes: Vec<[f64; 8]> },
    /// `groupby.row`: ngroups×p partials plus group counts.
    GroupBy { op: AggOp, ngroups: usize, p: usize, vals: Vec<f64>, counts: Vec<u64> },
}

impl SinkAcc {
    /// Fresh accumulator for a sink node.
    ///
    /// # Panics
    /// Never for a node of `Plan::sinks`, the only nodes it is given.
    pub fn new_for(node: &Node) -> SinkAcc {
        match &node.kind {
            NodeKind::SinkFull { op, .. } => SinkAcc::col(*op, 1),
            NodeKind::SinkCol { op, input } => SinkAcc::col(*op, input.ncols),
            // One node on both sides: the memo hands both operands the
            // same chunk.
            NodeKind::SinkGramian { a, b } => SinkAcc::Gramian {
                p: a.ncols,
                k: b.ncols,
                sym: Arc::ptr_eq(a, b),
                acc: vec![0.0; a.ncols * b.ncols],
                lanes: Vec::new(),
            },
            NodeKind::SinkGroupBy { data, op, ngroups, .. } => SinkAcc::GroupBy {
                op: *op,
                ngroups: *ngroups,
                p: data.ncols,
                vals: vec![op.identity(); *ngroups * data.ncols],
                counts: vec![0; *ngroups],
            },
            other => unreachable!("not a sink node: {other:?}"),
        }
    }

    fn col(op: AggOp, slots: usize) -> SinkAcc {
        let vals = vec![op.identity(); slots];
        SinkAcc::Col { op, vals, count: 0, elems: 0, lanes: Vec::new(), run: Vec::new() }
    }

    /// Fold one Pcache chunk of the sink's input(s). The chunks of one
    /// partition come in row order, and `last` marks the partition's
    /// last one; every chunk before it is a whole number of 8-row blocks.
    ///
    /// * `Col`/`Gramian` pass the data chunk(s);
    /// * `GroupBy` additionally passes the labels chunk (i64, one column).
    pub fn update(&mut self, chunks: &[&Chunk], last: bool) {
        let level = SimdLevel::active();
        match self {
            SinkAcc::Col { op, vals, count, elems, lanes, run } => {
                let input = chunks[0];
                let (rows, cols) = (input.rows(), input.cols());
                *count += rows as u64;
                *elems += (rows * cols) as u64;
                let full = vals.len() == 1;
                if matches!(op, AggOp::Sum | AggOp::Mean) && has_lane_fold(*op, input.dtype()) {
                    lanes.resize(cols, [0.0; 8]);
                } else if full && cols > 1 {
                    run.resize(cols, op.identity());
                }
                crate::dispatch!(input.dtype(), T, {
                    for c in 0..cols {
                        let col = input.col::<T>(c);
                        let slot = if full { 0 } else { c };
                        if let Some(l) = lanes.get_mut(c) {
                            if let Some(s) = sum_lanes_run::<T>(level, l, col, last) {
                                vals[slot] += s;
                            }
                        } else if let Some(r) = run.get_mut(c) {
                            *r = fold_col::<T>(level, *op, *r, col);
                            if last {
                                vals[0] = op.combine(vals[0], *r);
                            }
                        } else {
                            vals[slot] = fold_col::<T>(level, *op, vals[slot], col);
                        }
                    }
                });
                if last {
                    (*lanes, *run) = (Vec::new(), Vec::new());
                }
            }
            SinkAcc::Gramian { p, k, sym, acc, lanes } => {
                let (a, b) = (chunks[0], chunks[1]);
                assert_eq!(a.rows(), b.rows(), "gramian chunk row mismatch");
                // acc (row-major p×k) += Aᵀ B. Both chunks are
                // column-major, so every (i, j) entry is a dot product of
                // two contiguous columns, computed a 2 × 2 tile at a time.
                lanes.resize(*p * *k, [0.0; 8]);
                let b = (!*sym).then(|| b.slice::<f64>());
                gramian_f64(
                    level,
                    a.rows(),
                    a.slice::<f64>(),
                    b,
                    lanes,
                    last.then_some(&mut acc[..]),
                );
                if last {
                    *lanes = Vec::new();
                }
            }
            SinkAcc::GroupBy { op, ngroups, p, vals, counts } => {
                let data = chunks[0];
                assert_eq!(data.cols(), *p, "groupby data width");
                let labels = chunks[1];
                assert_eq!(labels.cols(), 1, "labels must be one column");
                assert_eq!(labels.rows(), data.rows(), "labels/data row mismatch");
                let rows = data.rows();
                let lab = labels.col::<i64>(0);
                for &g in lab.iter().take(rows) {
                    assert!(
                        (0..*ngroups as i64).contains(&g),
                        "group label {g} outside [0, {ngroups})"
                    );
                    counts[g as usize] += 1;
                }
                macro_rules! per_op {
                    ($($v:ident),*) => {
                        match *op {
                            $(AggOp::$v => crate::dispatch!(data.dtype(), T, {
                                groupby_fold::<T>(data, lab, vals, |a, x| AggOp::$v.fold(a, x))
                            }),)*
                            AggOp::WhichMin | AggOp::WhichMax => {
                                unreachable!("analysis::infer rejects a positional groupby.row")
                            }
                        }
                    };
                }
                per_op!(Sum, Mean, Prod, Min, Max, Count, Any, All);
            }
        }
    }

    /// Merge a later partition's partial into this one.
    ///
    /// # Panics
    /// Never for two accumulators of one sink node, the only pairs it is
    /// given.
    pub fn merge(&mut self, other: SinkAcc) {
        match (self, other) {
            (
                SinkAcc::Col { op, vals, count, elems, .. },
                SinkAcc::Col { vals: ov, count: oc, elems: oe, .. },
            ) => {
                for (a, b) in vals.iter_mut().zip(ov) {
                    *a = op.combine(*a, b);
                }
                *count += oc;
                *elems += oe;
            }
            (SinkAcc::Gramian { acc, .. }, SinkAcc::Gramian { acc: oacc, .. }) => {
                for (a, b) in acc.iter_mut().zip(oacc) {
                    *a += b;
                }
            }
            (
                SinkAcc::GroupBy { op, vals, counts, .. },
                SinkAcc::GroupBy { vals: ov, counts: ocnt, .. },
            ) => {
                for (a, b) in vals.iter_mut().zip(ov) {
                    *a = op.combine(*a, b);
                }
                for (a, b) in counts.iter_mut().zip(ocnt) {
                    *a += b;
                }
            }
            _ => unreachable!("merging mismatched sink accumulators"),
        }
    }

    /// [`SinkAcc::merge`] each of a later partition's partials into the
    /// matching running one.
    pub(crate) fn merge_all(acc: &mut [SinkAcc], later: Vec<SinkAcc>) {
        acc.iter_mut().zip(later).for_each(|(a, b)| a.merge(b));
    }

    /// Turn the merged accumulator into the sink's dense result.
    pub fn finalize(self) -> Dense {
        match self {
            SinkAcc::Col { op, mut vals, count, elems, .. } => {
                if op == AggOp::Mean {
                    // Full agg (one slot) folded every element into slot
                    // 0 → divide by the element count; agg.col divides
                    // each column slot by the row count.
                    if vals.len() == 1 {
                        vals[0] /= (elems.max(1)) as f64;
                    } else {
                        let n = count.max(1) as f64;
                        for v in &mut vals {
                            *v /= n;
                        }
                    }
                }
                if op == AggOp::Count {
                    let e = elems as f64;
                    let c = count as f64;
                    let full = vals.len() == 1;
                    vals.fill(if full { e } else { c });
                }
                Dense::from_vec(1, vals.len(), vals)
            }
            SinkAcc::Gramian { p, k, acc, .. } => Dense::from_vec(p, k, acc),
            SinkAcc::GroupBy { op, ngroups, p, mut vals, counts } => {
                for (group, &n) in vals.chunks_mut(p.max(1)).zip(&counts) {
                    match op {
                        AggOp::Mean => group.iter_mut().for_each(|v| *v /= n.max(1) as f64),
                        AggOp::Count => group.fill(n as f64),
                        _ => {}
                    }
                }
                Dense::from_vec(ngroups, p, vals)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Node;
    use crate::mat::TasMat;
    use crate::part::Partitioner;

    fn leaf(n: u64, p: usize) -> Arc<Node> {
        Node::leaf(TasMat::from_fn::<f64>(n, p, Partitioner::new(64), |r, c| {
            (r * 10 + c as u64) as f64
        }))
    }

    #[test]
    fn col_sum_accumulates_and_merges() {
        let node = Node::sink_col(AggOp::Sum, leaf(10, 2));
        let mut a = SinkAcc::new_for(&node);
        let mut b = SinkAcc::new_for(&node);
        let c1 = Chunk::from_slice::<f64>(2, 2, &[1.0, 2.0, 10.0, 20.0]);
        let c2 = Chunk::from_slice::<f64>(1, 2, &[5.0, 50.0]);
        a.update(&[&c1], true);
        b.update(&[&c2], true);
        a.merge(b);
        let d = a.finalize();
        assert_eq!(d.at(0, 0), 8.0);
        assert_eq!(d.at(0, 1), 80.0);
    }

    #[test]
    fn full_min_over_chunks() {
        let node = Node::sink_full(AggOp::Min, leaf(10, 2));
        let mut a = SinkAcc::new_for(&node);
        let c = Chunk::from_slice::<f64>(2, 2, &[3.0, -1.0, 7.0, 2.0]);
        a.update(&[&c], true);
        assert_eq!(a.finalize().at(0, 0), -1.0);
    }

    #[test]
    fn gramian_matches_reference() {
        let a_data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3 rows, 2 cols col-major
        let node = Node::sink_gramian(leaf(3, 2), leaf(3, 2));
        let mut acc = SinkAcc::new_for(&node);
        let ca = Chunk::from_slice::<f64>(3, 2, &a_data);
        acc.update(&[&ca, &ca], true);
        let g = acc.finalize();
        // cols: x=[1,2,3], y=[4,5,6]; xᵀx=14, xᵀy=32, yᵀy=77
        assert_eq!(g.at(0, 0), 14.0);
        assert_eq!(g.at(0, 1), 32.0);
        assert_eq!(g.at(1, 0), 32.0);
        assert_eq!(g.at(1, 1), 77.0);

        // A 3 × 5 `crossprod_with` and a 5-column `crossprod`: both run
        // the ragged last row or column of 2 × 2 tiles, over two chunks
        // of 13 rows (a full 8-row lane block and a 5-row tail). Every
        // output is the sum of its two chunks' `dot_f64`, bit for bit.
        let mut rng = flashr_testkit::Rng::new(7);
        let mut chunks = |cols: usize| {
            [0, 1].map(|_| Chunk::from_slice::<f64>(13, cols, &rng.vec_f64(13 * cols, -2.0..2.0)))
        };
        let x = leaf(26, 5);
        let (a3, b5, x5) = (chunks(3), chunks(5), chunks(5));
        for (node, a, b) in [
            (Node::sink_gramian(leaf(26, 3), x.clone()), &a3, &b5),
            (Node::sink_gramian(x.clone(), x), &x5, &x5),
        ] {
            let mut acc = SinkAcc::new_for(&node);
            for (ca, cb) in a.iter().zip(b) {
                acc.update(&[ca, cb], true);
            }
            let g = acc.finalize();
            let dot = |i, j, h: usize| {
                flashr_linalg::simd::dot_f64(SimdLevel::active(), a[h].col(i), b[h].col(j))
            };
            for i in 0..a[0].cols() {
                for j in 0..b[0].cols() {
                    let want = 0.0 + dot(i, j, 0) + dot(i, j, 1);
                    assert_eq!(
                        g.at(i, j).to_bits(),
                        want.to_bits(),
                        "({i}, {j}) of a {} × {} Gramian",
                        node.nrows,
                        node.ncols
                    );
                }
            }
        }
    }

    #[test]
    fn groupby_sum_and_counts() {
        let data = leaf(6, 2);
        let labels =
            Node::leaf(TasMat::from_fn::<i64>(6, 1, Partitioner::new(64), |r, _| (r % 2) as i64));
        let node = Node::sink_groupby(data, labels, AggOp::Sum, 2);
        let mut acc = SinkAcc::new_for(&node);
        let d = Chunk::from_slice::<f64>(4, 2, &[1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0]);
        let l = Chunk::from_slice::<i64>(4, 1, &[0, 1, 0, 1]);
        acc.update(&[&d, &l], true);
        let SinkAcc::GroupBy { counts, .. } = &acc else { unreachable!("a groupby sink") };
        assert_eq!(counts, &[2, 2]);
        let out = acc.finalize();
        assert_eq!(out.at(0, 0), 4.0); // rows 0,2 of col 0: 1+3
        assert_eq!(out.at(1, 0), 6.0); // rows 1,3: 2+4
        assert_eq!(out.at(0, 1), 40.0);
        assert_eq!(out.at(1, 1), 60.0);
    }

    #[test]
    fn groupby_mean_divides_by_group_size() {
        let data = leaf(4, 1);
        let labels = Node::leaf(TasMat::from_fn::<i64>(4, 1, Partitioner::new(64), |_, _| 0));
        let node = Node::sink_groupby(data, labels, AggOp::Mean, 1);
        let mut acc = SinkAcc::new_for(&node);
        let d = Chunk::from_slice::<f64>(4, 1, &[1.0, 2.0, 3.0, 6.0]);
        let l = Chunk::from_slice::<i64>(4, 1, &[0, 0, 0, 0]);
        acc.update(&[&d, &l], true);
        assert_eq!(acc.finalize().at(0, 0), 3.0);
    }

    const GROUP_OPS: [AggOp; 8] = [
        AggOp::Sum,
        AggOp::Mean,
        AggOp::Prod,
        AggOp::Min,
        AggOp::Max,
        AggOp::Count,
        AggOp::Any,
        AggOp::All,
    ];

    /// The per-element, column-at-a-time fold the blocked one replaced.
    fn per_element(op: AggOp, ngroups: usize, chunks: &[(Chunk, Vec<i64>)]) -> Vec<f64> {
        let p = chunks[0].0.cols();
        let mut vals = vec![op.identity(); ngroups * p];
        for (data, lab) in chunks {
            for c in 0..p {
                for (r, &v) in data.col::<f64>(c).iter().enumerate() {
                    let slot = lab[r] as usize * p + c;
                    vals[slot] = op.fold(vals[slot], v);
                }
            }
        }
        vals
    }

    /// Fold `chunks` through the sink and require the per-element loop's
    /// partials, bit for bit.
    fn assert_blocked_fold_matches(op: AggOp, ngroups: usize, chunks: &[(Chunk, Vec<i64>)]) {
        let (rows, p) = (chunks[0].0.rows(), chunks[0].0.cols());
        let labels = Node::leaf(TasMat::from_fn::<i64>(1, 1, Partitioner::new(64), |_, _| 0));
        let node = Node::sink_groupby(leaf(1, p), labels, op, ngroups);
        let mut acc = SinkAcc::new_for(&node);
        for (data, lab) in chunks {
            acc.update(&[data, &Chunk::from_slice::<i64>(lab.len(), 1, lab)], true);
        }
        let SinkAcc::GroupBy { vals, .. } = &acc else { unreachable!("a groupby sink") };
        let want = per_element(op, ngroups, chunks);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(vals), bits(&want), "{op:?}, {ngroups} groups, {rows}×{p}");
    }

    /// Two chunks of `rows × p` values, a NaN every `nan_every` elements
    /// (never when 0), labelled by `label(r)` over the rows of both.
    fn chunks(
        rows: usize,
        p: usize,
        nan_every: usize,
        label: impl Fn(usize) -> i64,
    ) -> Vec<(Chunk, Vec<i64>)> {
        let mut rng = flashr_testkit::Rng::new((rows * 31 + p) as u64);
        (0..2)
            .map(|half| {
                let mut v = rng.vec_f64(rows * p, -2.0..2.0);
                for (i, x) in v.iter_mut().enumerate() {
                    if i % 5 == 0 {
                        *x = 0.0;
                    }
                    if nan_every > 0 && i % nan_every == 3 {
                        *x = f64::NAN;
                    }
                }
                let lab = (0..rows).map(|r| label(half * rows + r)).collect();
                (Chunk::from_slice::<f64>(rows, p, &v), lab)
            })
            .collect()
    }

    /// All-equal labels, alternating labels, one group, runs of equal
    /// labels over 17 groups; heights either side of the 32-row block and
    /// widths either side of the 8-column one.
    #[test]
    fn blocked_groupby_fold_matches_the_per_element_loop() {
        for rows in [1, 31, 32, 33, 70] {
            for p in [1, 3, 8, 9, 13] {
                for op in GROUP_OPS {
                    assert_blocked_fold_matches(op, 3, &chunks(rows, p, 0, |_| 1));
                    assert_blocked_fold_matches(op, 2, &chunks(rows, p, 0, |r| (r % 2) as i64));
                    assert_blocked_fold_matches(op, 1, &chunks(rows, p, 0, |_| 0));
                    let runs = |r: usize| ((r / 7) * 5 % 17) as i64;
                    assert_blocked_fold_matches(op, 17, &chunks(rows, p, 0, runs));
                }
            }
        }
    }

    #[test]
    fn blocked_groupby_min_and_max_skip_nan_like_the_per_element_loop() {
        for (rows, p) in [(33, 9), (70, 3), (5, 17)] {
            for op in GROUP_OPS {
                assert_blocked_fold_matches(op, 4, &chunks(rows, p, 4, |r| (r % 4) as i64));
            }
            // A group whose every value is NaN keeps Min's and Max's
            // starting infinity.
            for op in [AggOp::Min, AggOp::Max] {
                assert_blocked_fold_matches(op, 2, &chunks(rows, p, 1, |_| 0));
            }
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_label_panics() {
        let data = leaf(2, 1);
        let labels = Node::leaf(TasMat::from_fn::<i64>(2, 1, Partitioner::new(64), |_, _| 0));
        let node = Node::sink_groupby(data, labels, AggOp::Sum, 2);
        let mut acc = SinkAcc::new_for(&node);
        let d = Chunk::from_slice::<f64>(1, 1, &[1.0]);
        let l = Chunk::from_slice::<i64>(1, 1, &[5]);
        acc.update(&[&d, &l], true);
    }
}
