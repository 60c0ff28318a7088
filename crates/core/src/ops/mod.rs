//! GenOp kernels (paper Table 1).
//!
//! Every kernel consumes and produces column-major
//! [`Chunk`](crate::chunk::Chunk)s, is monomorphized per element type and contains no
//! threading: parallelism comes from the executor dispatching I/O
//! partitions to worker threads (§3.3).

pub mod agg;
pub mod binary;
pub mod cum;
pub mod fused_map;
pub mod matmul;
pub mod misc;
pub mod simd;
pub mod unary;

pub use agg::{agg_row, AggOp};
pub use binary::BinaryOp;
pub use cum::{cum_col_chunk, cum_row_chunk};
pub use matmul::{inner_prod_chunk, inner_prod_supported, matmul_chunk, matmul_strided};
pub use misc::{bind_cols, group_cols, select_cols};
pub use simd::SimdLevel;
pub use unary::UnaryOp;
