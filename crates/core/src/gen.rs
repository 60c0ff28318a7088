//! Lazily generated matrices (`runif.matrix`, `rnorm.matrix`, `seq`,
//! constant fill).
//!
//! FlashR creates random matrices lazily like every other operation; only
//! when a DAG materializes does data exist. We use a *counter-based*
//! generator — each element is a deterministic hash of
//! `(seed, row, col)` — so any Pcache chunk can be produced independently,
//! in any order, on any thread, with a bit-identical result. This is what
//! makes in-memory and external-memory runs of the same seeded workload
//! exactly comparable.
//!
//! `rnorm` is Box–Muller keyed by the row *pair* `row >> 1`: the pair's
//! two uniforms give one radius `sqrt(-2 ln u1)` and one angle, the even
//! row takes the cosine branch and the odd row the sine branch. One
//! kernel fills every generated column ([`GenSpec::value_at`] is a
//! one-row fill of it), and it computes each pair once: one hash pair,
//! one `ln`, one `sqrt` and one `sin_cos` for two values. A range that
//! starts on an odd row or ends on an even one takes the half of its
//! boundary pair it needs, so every element still depends on
//! `(seed, row, col)` alone. The bits follow the platform libm's `ln` and
//! `sin_cos`.

use crate::chunk::{BufPool, Chunk};
use crate::dtype::DType;
use crate::ops::misc::cast_slice;

/// Specification of a generated (virtual leaf) matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GenSpec {
    /// Uniform on `[lo, hi)`.
    Runif { seed: u64, lo: f64, hi: f64 },
    /// Normal with the given mean and standard deviation.
    Rnorm { seed: u64, mean: f64, sd: f64 },
    /// `start + row * step` down every column (R's `seq`, columnwise).
    Seq { start: f64, step: f64 },
    /// Constant fill.
    Const { value: f64 },
}

/// splitmix64 finalizer: statistically strong 64-bit mixing.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Uniform f64 in [0, 1) from a counter (single splitmix finalization of
/// a position key — fast and statistically fine for workload synthesis).
#[inline(always)]
fn unit_f64(seed: u64, row: u64, col: u64, stream: u64) -> f64 {
    let key = seed
        ^ row.wrapping_mul(0x2545_F491_4F6C_DD1D)
        ^ col.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    let h = mix(key);
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The two uniforms of row pair `pair` in column `col`; `u1` is kept off
/// zero so its logarithm is finite.
#[inline(always)]
fn pair_uniforms(seed: u64, pair: u64, col: u64) -> (f64, f64) {
    (unit_f64(seed, pair, col, 1).max(f64::MIN_POSITIVE), unit_f64(seed, pair, col, 2))
}

/// The Box–Muller radius `sqrt(-2 ln u1)`.
#[inline(always)]
fn radius(u1: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt()
}

/// The pair's two values, `(mean + sd·r·cos θ, mean + sd·r·sin θ)` with
/// `θ = 2π·u2`: the even row's and the odd row's.
#[inline(always)]
fn pair_values(r: f64, u2: f64, mean: f64, sd: f64) -> (f64, f64) {
    let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
    (mean + sd * (r * cos), mean + sd * (r * sin))
}

/// Row pair `pair` of column `col`, computed on its own: the seams of a
/// column use it.
fn normal_pair(seed: u64, pair: u64, col: u64, mean: f64, sd: f64) -> (f64, f64) {
    let (u1, u2) = pair_uniforms(seed, pair, col);
    pair_values(radius(u1), u2, mean, sd)
}

/// Rows `[row0, row0 + out.len())` of normal column `col`, a pair at a
/// time, in three stages over `out` itself (one column of one Pcache
/// range): every pair's uniforms into its two rows, then the radius over
/// the even row, then one `sin_cos` per pair.
fn fill_normal(seed: u64, mean: f64, sd: f64, row0: u64, col: u64, out: &mut [f64]) {
    // An odd first row is the odd half of a pair that starts before the range.
    let (head, out) = out.split_at_mut(usize::from(row0 & 1 == 1).min(out.len()));
    if let [first] = head {
        *first = normal_pair(seed, row0 >> 1, col, mean, sd).1;
    }
    let row0 = row0 + head.len() as u64;
    let whole = out.len() & !1;
    let (body, tail) = out.split_at_mut(whole);
    for (pair, rows) in (row0 >> 1..).zip(body.chunks_exact_mut(2)) {
        (rows[0], rows[1]) = pair_uniforms(seed, pair, col);
    }
    for rows in body.chunks_exact_mut(2) {
        rows[0] = radius(rows[0]);
    }
    for rows in body.chunks_exact_mut(2) {
        (rows[0], rows[1]) = pair_values(rows[0], rows[1], mean, sd);
    }
    // An odd last row is the even half of a pair that ends past the range.
    if let [last] = tail {
        *last = normal_pair(seed, (row0 + whole as u64) >> 1, col, mean, sd).0;
    }
}

impl GenSpec {
    /// The natural dtype of this generator's output.
    pub fn dtype(&self) -> DType {
        DType::F64
    }

    /// Element (global `row`, `col`) of the generated matrix: a one-row
    /// fill of the chunk kernel, so an element and a chunk cannot differ.
    pub fn value_at(&self, row: u64, col: usize) -> f64 {
        let mut v = [0.0];
        self.fill_col(row, col, &mut v);
        v[0]
    }

    /// Rows `[row0, row0 + out.len())` of column `col`: the one kernel
    /// behind every generated element.
    fn fill_col(&self, row0: u64, col: usize, out: &mut [f64]) {
        match *self {
            GenSpec::Runif { seed, lo, hi } => {
                for (row, v) in (row0..).zip(out) {
                    *v = lo + (hi - lo) * unit_f64(seed, row, col as u64, 0);
                }
            }
            GenSpec::Rnorm { seed, mean, sd } => fill_normal(seed, mean, sd, row0, col as u64, out),
            GenSpec::Seq { start, step } => {
                for (row, v) in (row0..).zip(out) {
                    *v = start + row as f64 * step;
                }
            }
            GenSpec::Const { value } => out.fill(value),
        }
    }

    /// Fill a column-major chunk covering global rows
    /// `[row0, row0 + rows)` and all `cols` columns.
    pub fn fill_chunk(&self, row0: u64, rows: usize, cols: usize, pool: &mut BufPool) -> Chunk {
        let mut out = Chunk::alloc(DType::F64, rows, cols, pool);
        for (c, col) in out.slice_mut::<f64>().chunks_exact_mut(rows.max(1)).enumerate() {
            self.fill_col(row0, c, col);
        }
        out
    }

    /// Fill as a typed chunk of `dtype`: each column is generated into
    /// one `f64` column of scratch from `pool`, then cast.
    pub fn fill_chunk_as(
        &self,
        dtype: DType,
        row0: u64,
        rows: usize,
        cols: usize,
        pool: &mut BufPool,
    ) -> Chunk {
        if dtype == DType::F64 {
            return self.fill_chunk(row0, rows, cols, pool);
        }
        let mut out = Chunk::alloc(dtype, rows, cols, pool);
        let mut scratch = Chunk::alloc(DType::F64, rows, 1, pool);
        crate::dispatch!(dtype, T, {
            let values = scratch.slice_mut::<f64>();
            for (c, col) in out.slice_mut::<T>().chunks_exact_mut(rows.max(1)).enumerate() {
                self.fill_col(row0, c, values);
                cast_slice::<f64, T>(values, col);
            }
        });
        scratch.recycle(pool);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::Element;

    #[test]
    fn runif_range_and_determinism() {
        let g = GenSpec::Runif { seed: 7, lo: -2.0, hi: 3.0 };
        for r in 0..1000u64 {
            let v = g.value_at(r, 0);
            assert!((-2.0..3.0).contains(&v));
            assert_eq!(v, g.value_at(r, 0), "not deterministic");
        }
    }

    #[test]
    fn runif_mean_is_plausible() {
        let g = GenSpec::Runif { seed: 42, lo: 0.0, hi: 1.0 };
        let n = 20_000u64;
        let mean: f64 = (0..n).map(|r| g.value_at(r, 3)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn rnorm_moments_are_plausible() {
        let g = GenSpec::Rnorm { seed: 9, mean: 2.0, sd: 3.0 };
        let n = 40_000u64;
        let vals: Vec<f64> = (0..n).map(|r| g.value_at(r, 0)).collect();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean={mean}");
        assert!((var - 9.0).abs() < 0.3, "var={var}");
    }

    #[test]
    fn chunks_are_position_independent() {
        let g = GenSpec::Rnorm { seed: 1, mean: 0.0, sd: 1.0 };
        let mut pool = BufPool::new();
        let whole = g.fill_chunk(0, 1100, 2, &mut pool);
        // Even and odd first rows and lengths.
        for (row0, rows) in
            [(40, 20), (41, 20), (40, 21), (41, 22), (0, 513), (513, 587), (3, 1097)]
        {
            let part = g.fill_chunk(row0, rows, 2, &mut pool);
            for c in 0..2 {
                for r in 0..rows {
                    let (got, want) = (part.get_f64(r, c), whole.get_f64(row0 as usize + r, c));
                    assert_eq!(got.to_bits(), want.to_bits(), "rows {row0}+{rows}, ({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn every_fill_is_its_elements() {
        let specs = [
            GenSpec::Runif { seed: 5, lo: -3.0, hi: 250.0 },
            GenSpec::Rnorm { seed: 6, mean: 100.0, sd: 60.0 },
            GenSpec::Seq { start: -7.5, step: 0.25 },
            GenSpec::Const { value: 2.75 },
        ];
        let mut pool = BufPool::new();
        for g in specs {
            for row0 in [0, 1, 2, 16383] {
                for rows in [0, 1, 2, 3, 257, 1027] {
                    let what = format!("{g:?} rows {row0}+{rows}");
                    let whole = g.fill_chunk(row0, rows, 3, &mut pool);
                    for (c, col) in whole.slice::<f64>().chunks_exact(rows.max(1)).enumerate() {
                        for (r, v) in col.iter().enumerate() {
                            let want = g.value_at(row0 + r as u64, c);
                            assert_eq!(v.to_bits(), want.to_bits(), "{what}: ({r}, {c})");
                        }
                    }
                    for dtype in [DType::F32, DType::I64, DType::I32, DType::U8] {
                        let typed = g.fill_chunk_as(dtype, row0, rows, 3, &mut pool);
                        assert_eq!((typed.dtype(), typed.rows(), typed.cols()), (dtype, rows, 3));
                        crate::dispatch!(dtype, T, {
                            let got = typed.slice::<T>();
                            for (i, v) in got.iter().enumerate() {
                                let want =
                                    T::from_f64(g.value_at(row0 + (i % rows) as u64, i / rows));
                                assert!(*v == want, "{what} as {dtype:?}: element {i}");
                            }
                        });
                    }
                }
            }
        }
    }

    /// Elements recorded, as bits, before the generator filled a pair at a
    /// time: a change of definition fails here, where the benchmark's
    /// golden log-loss (a 1e-6 tolerance) would let it through. `rnorm`'s
    /// bits are glibc's `ln` and `sin`/`cos`.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    #[test]
    fn generated_bits_are_pinned() {
        let pinned: [(GenSpec, [u64; 6]); 3] = [
            (
                GenSpec::Rnorm { seed: 42, mean: 0.0, sd: 1.0 },
                [
                    0xbffb2aeac5f32b0b,
                    0xbfc71d910da9bdf4,
                    0xbff632c38ad54bfe,
                    0xc00999b4027d307f,
                    0xbfb5bd6cefde7e80,
                    0x3ff542d24ac07a8f,
                ],
            ),
            (
                GenSpec::Rnorm { seed: 17, mean: 2.0, sd: 3.0 },
                [
                    0x40122d4ea70377d7,
                    0x4011e0d4d2899995,
                    0xbfdf9e33fe5d9a50,
                    0xbfcc042789f26990,
                    0x40018faa52620b91,
                    0x40167e3e13ba8ada,
                ],
            ),
            (
                GenSpec::Runif { seed: 7, lo: -2.0, hi: 3.0 },
                [
                    0xbfaa092d14840bc0,
                    0x3ffc623d65ade1d6,
                    0x3fcd30beac0b7940,
                    0x400313ced647bbbc,
                    0x3fd705da851206c0,
                    0x4002b2a21667bd90,
                ],
            ),
        ];
        let at = [(0u64, 0usize), (1, 0), (2, 3), (16383, 1), (16384, 1), (123_457, 7)];
        let mut pool = BufPool::new();
        for (g, bits) in pinned {
            for ((row, col), want) in at.into_iter().zip(bits) {
                assert_eq!(g.value_at(row, col).to_bits(), want, "{g:?} ({row}, {col})");
                if row > 0 {
                    // The same element from a chunk that starts on an odd row.
                    let row0 = (row - 1) | 1;
                    let chunk = g.fill_chunk(row0, 5, col + 1, &mut pool);
                    let got = chunk.get_f64((row - row0) as usize, col);
                    assert_eq!(got.to_bits(), want, "{g:?} ({row}, {col}) in a chunk");
                }
            }
        }
    }

    #[test]
    fn seq_and_const() {
        let mut pool = BufPool::new();
        let s = GenSpec::Seq { start: 5.0, step: 2.0 }.fill_chunk(10, 3, 2, &mut pool);
        assert_eq!(s.get_f64(0, 0), 25.0);
        assert_eq!(s.get_f64(2, 1), 29.0);
        let c = GenSpec::Const { value: -1.5 }.fill_chunk(0, 4, 1, &mut pool);
        assert!(c.slice::<f64>().iter().all(|&v| v == -1.5));
    }

    #[test]
    fn typed_fill_casts() {
        let mut pool = BufPool::new();
        let c =
            GenSpec::Seq { start: 0.0, step: 1.0 }.fill_chunk_as(DType::I32, 0, 5, 1, &mut pool);
        assert_eq!(c.slice::<i32>(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn distinct_columns_are_decorrelated() {
        let g = GenSpec::Runif { seed: 3, lo: 0.0, hi: 1.0 };
        let n = 10_000u64;
        let mut dot = 0.0;
        for r in 0..n {
            dot += (g.value_at(r, 0) - 0.5) * (g.value_at(r, 1) - 0.5);
        }
        let corr = dot / n as f64 / (1.0 / 12.0);
        assert!(corr.abs() < 0.05, "corr={corr}");
    }
}
