//! Static value ranges: the integer bounds a tall node's values lie in,
//! known from the DAG alone — as an R factor carries its levels, and as
//! ROSA (PAPERS.md) derives range facts statically. `groupby.row` in the
//! R front-end sizes its output from them and runs no range pass.

use crate::dag::{MapInput, MapOp, Node, NodeKind};
use crate::dtype::DType;
use crate::ops::{AggOp, BinaryOp};

/// Values up to this magnitude are exact in every dtype a range is
/// carried through (`f32` holds every integer up to 2^24).
const EXACT: i64 = 1 << 24;

/// The closed integer range `[lo, hi]` every value of `node` lies in,
/// when the DAG alone says so:
///
/// * `agg.row(which.min | which.max)` over `k` columns is `[0, k − 1]`;
/// * adding or subtracting an integral scalar shifts the range (either
///   operand order);
/// * a cast keeps it when the target dtype holds it.
///
/// `None` for anything else: the caller must look at the values.
pub fn int_range(node: &Node) -> Option<(i64, i64)> {
    let (lo, hi) = match &node.kind {
        NodeKind::AggRow { op: AggOp::WhichMin | AggOp::WhichMax, input } if input.ncols > 0 => {
            (0, input.ncols as i64 - 1)
        }
        NodeKind::Map { op: MapOp::Cast(to), inputs } => {
            let (lo, hi) = int_range(node_input(inputs)?)?;
            let fits = match to {
                DType::U8 => lo >= 0 && hi <= u8::MAX as i64,
                _ => true,
            };
            fits.then_some((lo, hi))?
        }
        NodeKind::Map { op: MapOp::Binary { op, swapped }, inputs } => {
            let (lo, hi) = int_range(node_input(inputs)?)?;
            let s = match inputs.get(1)? {
                MapInput::Scalar(s) => s.to_f64(),
                _ => return None,
            };
            if s.fract() != 0.0 || s.abs() > EXACT as f64 {
                return None;
            }
            let s = s as i64;
            match (op, swapped) {
                (BinaryOp::Add, _) => (lo + s, hi + s),
                (BinaryOp::Sub, false) => (lo - s, hi - s),
                (BinaryOp::Sub, true) => (s - hi, s - lo),
                _ => return None,
            }
        }
        _ => return None,
    };
    (lo.abs() <= EXACT && hi.abs() <= EXACT).then_some((lo, hi))
}

fn node_input(inputs: &[MapInput]) -> Option<&Node> {
    match inputs.first()? {
        MapInput::Node(n) => Some(n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::Scalar;
    use crate::mat::TasMat;
    use crate::part::Partitioner;
    use std::sync::Arc;

    fn wide(k: usize) -> Arc<Node> {
        Node::leaf(TasMat::from_fn::<f64>(10, k, Partitioner::new(64), |r, c| {
            (r + c as u64) as f64
        }))
    }

    fn add(n: Arc<Node>, op: BinaryOp, s: f64, swapped: bool) -> Arc<Node> {
        Node::map_binary(op, n, MapInput::Scalar(Scalar::F64(s)), swapped)
    }

    #[test]
    fn which_min_and_max_carry_their_column_range_through_shifts_and_casts() {
        for op in [AggOp::WhichMin, AggOp::WhichMax] {
            let w = Node::agg_row(op, wide(5));
            assert_eq!(int_range(&w), Some((0, 4)));
            let one_based = add(w.clone(), BinaryOp::Add, 1.0, false);
            assert_eq!(int_range(&one_based), Some((1, 5)));
            assert_eq!(int_range(&add(w.clone(), BinaryOp::Add, 1.0, true)), Some((1, 5)));
            let back = Node::cast(add(one_based, BinaryOp::Sub, 1.0, false), DType::I64);
            assert_eq!(int_range(&back), Some((0, 4)));
            assert_eq!(int_range(&add(w.clone(), BinaryOp::Sub, 10.0, true)), Some((6, 10)));
            assert_eq!(int_range(&Node::cast(w.clone(), DType::U8)), Some((0, 4)));
            let below_zero = add(w.clone(), BinaryOp::Sub, 1.0, false);
            assert_eq!(int_range(&Node::cast(below_zero, DType::U8)), None);
            // A fractional shift, another op or a plain leaf has no range.
            assert_eq!(int_range(&add(w.clone(), BinaryOp::Add, 0.5, false)), None);
            assert_eq!(int_range(&add(w, BinaryOp::Mul, 2.0, false)), None);
        }
        assert_eq!(int_range(&wide(3)), None);
        assert_eq!(int_range(&Node::agg_row(AggOp::Sum, wide(3))), None);
    }
}
