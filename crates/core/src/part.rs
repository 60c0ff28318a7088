//! Two-level partitioning math (paper §3.2.1 and §3.5.1).
//!
//! A tall matrix is split on its long dimension into *I/O partitions* of
//! `2^i` rows; the executor further splits each I/O partition into *Pcache
//! partitions* small enough that one block of every matrix in the DAG fits
//! in the processor cache together.

/// Partitioning descriptor shared by every matrix participating in a DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    rows_per_part: u64,
}

impl Partitioner {
    /// The default I/O partition height (rows). 16384 rows of an 8-byte
    /// 32-column matrix is 4 MiB — the paper's order of magnitude for
    /// fixed-size memory chunks.
    pub const DEFAULT_ROWS: u64 = 16384;

    /// Create a partitioner; `rows_per_part` must be a power of two
    /// (paper: the number of rows in an I/O partition is `2^i`).
    pub fn new(rows_per_part: u64) -> Partitioner {
        assert!(rows_per_part.is_power_of_two(), "rows per I/O partition must be a power of two");
        Partitioner { rows_per_part }
    }

    /// Rows in a full I/O partition.
    pub fn rows_per_part(self) -> u64 {
        self.rows_per_part
    }

    /// Number of I/O partitions of an `nrows`-row matrix.
    pub fn nparts(self, nrows: u64) -> u64 {
        nrows.div_ceil(self.rows_per_part).max(1)
    }

    /// Row range `[start, end)` of partition `part`.
    pub fn part_range(self, part: u64, nrows: u64) -> (u64, u64) {
        let start = part * self.rows_per_part;
        assert!(start < nrows || (nrows == 0 && part == 0), "partition {part} out of range");
        (start, (start + self.rows_per_part).min(nrows))
    }

    /// Rows in partition `part`.
    pub fn part_rows(self, part: u64, nrows: u64) -> usize {
        let (s, e) = self.part_range(part, nrows);
        (e - s) as usize
    }
}

/// Choose the Pcache partition height: the largest row count such that
/// `row_bytes` per row stays within `pcache_bytes`, clamped to
/// `[16, part_rows]`. A height short of the partition is a multiple of 8
/// rows, so a sink's eight lane partials line up from chunk to chunk
/// (`exec::accum`).
pub fn pcache_rows(pcache_bytes: usize, row_bytes: usize, part_rows: usize) -> usize {
    let part_rows = part_rows.max(1);
    let rows = (pcache_bytes / row_bytes.max(1)).clamp(16, part_rows).min(part_rows);
    if rows < part_rows {
        rows / 8 * 8
    } else {
        rows
    }
}

/// Iterator over `[start, end)` sub-ranges of height `step` covering
/// `[0, rows)`.
pub fn pcache_ranges(rows: usize, step: usize) -> impl Iterator<Item = (usize, usize)> {
    let step = step.max(1);
    (0..rows.div_ceil(step)).map(move |i| (i * step, ((i + 1) * step).min(rows)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn npart_math() {
        let p = Partitioner::new(1024);
        assert_eq!(p.nparts(1), 1);
        assert_eq!(p.nparts(1024), 1);
        assert_eq!(p.nparts(1025), 2);
        assert_eq!(p.nparts(10 * 1024), 10);
    }

    #[test]
    fn ranges_cover_matrix() {
        let p = Partitioner::new(256);
        let nrows = 1000u64;
        let mut covered = 0u64;
        for part in 0..p.nparts(nrows) {
            let (s, e) = p.part_range(part, nrows);
            assert_eq!(s, covered);
            covered = e;
        }
        assert_eq!(covered, nrows);
        assert_eq!(p.part_rows(3, nrows), 1000 - 3 * 256);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        let _ = Partitioner::new(1000);
    }

    #[test]
    fn pcache_rows_respects_budget() {
        // 256 KiB budget, 40 f64 columns = 320 B/row → 819 rows, 816
        // as whole 8-row blocks.
        assert_eq!(pcache_rows(256 * 1024, 40 * 8, 16384), 816);
        // Never exceeds the partition.
        assert_eq!(pcache_rows(1 << 30, 8, 100), 100);
        // Floor of 16 even under tiny budgets.
        assert_eq!(pcache_rows(64, 1024, 100), 16);
    }

    #[test]
    fn pcache_ranges_tile_exactly() {
        let ranges: Vec<_> = pcache_ranges(1000, 256).collect();
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 1000);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }
}
