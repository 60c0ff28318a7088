//! Thread-local sink accumulators (paper §3.3, operations g/h/i).
//!
//! Cross-partition aggregations (full/column aggregation, groupby,
//! Gramian) are accumulated per worker thread while partitions stream
//! through the fused pass, then merged once at the end — no
//! synchronization on the hot path.

use crate::chunk::Chunk;
use crate::dag::{Node, NodeKind};
use crate::element::Element;
use crate::ops::simd::{fold_col, SimdLevel};
use crate::ops::AggOp;
use flashr_linalg::simd::dot_f64;
use flashr_linalg::Dense;

/// One thread's partial state for one sink node.
#[derive(Debug)]
pub enum SinkAcc {
    /// `agg` (1 slot) or `agg.col` (p slots).
    Col { op: AggOp, vals: Vec<f64>, count: u64, elems: u64 },
    /// `t(A) %*% B`: p×k partial product.
    Gramian { p: usize, k: usize, acc: Vec<f64> },
    /// `groupby.row`: ngroups×p partials plus group counts.
    GroupBy { op: AggOp, ngroups: usize, p: usize, vals: Vec<f64>, counts: Vec<u64> },
}

impl SinkAcc {
    /// Fresh accumulator for a sink node.
    pub fn new_for(node: &Node) -> SinkAcc {
        match &node.kind {
            NodeKind::SinkFull { op, .. } => {
                SinkAcc::Col { op: *op, vals: vec![op.identity(); 1], count: 0, elems: 0 }
            }
            NodeKind::SinkCol { op, input } => {
                SinkAcc::Col { op: *op, vals: vec![op.identity(); input.ncols], count: 0, elems: 0 }
            }
            NodeKind::SinkGramian { a, b } => {
                SinkAcc::Gramian { p: a.ncols, k: b.ncols, acc: vec![0.0; a.ncols * b.ncols] }
            }
            NodeKind::SinkGroupBy { data, op, ngroups, .. } => SinkAcc::GroupBy {
                op: *op,
                ngroups: *ngroups,
                p: data.ncols,
                vals: vec![op.identity(); *ngroups * data.ncols],
                counts: vec![0; *ngroups],
            },
            other => panic!("not a sink node: {other:?}"),
        }
    }

    /// Fold one Pcache chunk of the sink's input(s).
    ///
    /// * `Col`/`Gramian` pass the data chunk(s);
    /// * `GroupBy` additionally passes the labels chunk (i64, one column).
    pub fn update(&mut self, chunks: &[&Chunk]) {
        let level = SimdLevel::active();
        match self {
            SinkAcc::Col { op, vals, count, elems } => {
                let input = chunks[0];
                let rows = input.rows();
                *count += rows as u64;
                *elems += (rows * input.cols()) as u64;
                let full = vals.len() == 1;
                crate::dispatch!(input.dtype(), T, {
                    for c in 0..input.cols() {
                        let col = input.col::<T>(c);
                        let slot = if full { 0 } else { c };
                        vals[slot] = fold_col::<T>(level, *op, vals[slot], col);
                    }
                });
            }
            SinkAcc::Gramian { p, k, acc } => {
                let a = chunks[0];
                let b = chunks[1];
                assert_eq!(a.rows(), b.rows(), "gramian chunk row mismatch");
                // acc (row-major p×k) += Aᵀ B. Both chunks are
                // column-major, so every (i, j) entry is a dot product of
                // two contiguous columns — far better locality than a
                // strided GEMM. When both inputs are the same chunk
                // (crossprod), only the upper triangle is computed.
                let same = std::ptr::eq(a.as_bytes().as_ptr(), b.as_bytes().as_ptr()) && *p == *k;
                for i in 0..*p {
                    let ca = a.col::<f64>(i);
                    let j0 = if same { i } else { 0 };
                    for j in j0..*k {
                        let cb = b.col::<f64>(j);
                        let dot = dot_f64(level, ca, cb);
                        acc[i * *k + j] += dot;
                        if same && j != i {
                            acc[j * *k + i] += dot;
                        }
                    }
                }
            }
            SinkAcc::GroupBy { op, ngroups, p, vals, counts } => {
                let data = chunks[0];
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
                crate::dispatch!(data.dtype(), T, {
                    for c in 0..*p {
                        let col = data.col::<T>(c);
                        for r in 0..rows {
                            let g = lab[r] as usize;
                            let slot = g * *p + c;
                            vals[slot] = op.fold(vals[slot], col[r].to_f64());
                        }
                    }
                });
            }
        }
    }

    /// Merge another thread's partial into this one.
    pub fn merge(&mut self, other: SinkAcc) {
        match (self, other) {
            (
                SinkAcc::Col { op, vals, count, elems },
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
            _ => panic!("merging mismatched sink accumulators"),
        }
    }

    /// Turn the merged accumulator into the sink's dense result.
    pub fn finalize(self) -> Dense {
        match self {
            SinkAcc::Col { op, mut vals, count, elems } => {
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
            SinkAcc::Gramian { p, k, acc } => Dense::from_vec(p, k, acc),
            SinkAcc::GroupBy { op, ngroups, p, mut vals, counts } => {
                if op == AggOp::Mean {
                    for g in 0..ngroups {
                        let n = counts[g].max(1) as f64;
                        for c in 0..p {
                            vals[g * p + c] /= n;
                        }
                    }
                }
                if op == AggOp::Count {
                    for g in 0..ngroups {
                        for c in 0..p {
                            vals[g * p + c] = counts[g] as f64;
                        }
                    }
                }
                Dense::from_vec(ngroups, p, vals)
            }
        }
    }

    /// Group counts (groupby only) — used by `Mean` finalization tests.
    pub fn group_counts(&self) -> Option<&[u64]> {
        match self {
            SinkAcc::GroupBy { counts, .. } => Some(counts),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Node;
    use crate::mat::TasMat;
    use crate::part::Partitioner;

    fn leaf(n: u64, p: usize) -> std::sync::Arc<Node> {
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
        a.update(&[&c1]);
        b.update(&[&c2]);
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
        a.update(&[&c]);
        assert_eq!(a.finalize().at(0, 0), -1.0);
    }

    #[test]
    fn gramian_matches_reference() {
        let a_data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3 rows, 2 cols col-major
        let node = Node::sink_gramian(leaf(3, 2), leaf(3, 2));
        let mut acc = SinkAcc::new_for(&node);
        let ca = Chunk::from_slice::<f64>(3, 2, &a_data);
        acc.update(&[&ca, &ca]);
        let g = acc.finalize();
        // cols: x=[1,2,3], y=[4,5,6]; xᵀx=14, xᵀy=32, yᵀy=77
        assert_eq!(g.at(0, 0), 14.0);
        assert_eq!(g.at(0, 1), 32.0);
        assert_eq!(g.at(1, 0), 32.0);
        assert_eq!(g.at(1, 1), 77.0);
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
        acc.update(&[&d, &l]);
        assert_eq!(acc.group_counts().unwrap(), &[2, 2]);
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
        acc.update(&[&d, &l]);
        assert_eq!(acc.finalize().at(0, 0), 3.0);
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
        acc.update(&[&d, &l]);
    }
}
