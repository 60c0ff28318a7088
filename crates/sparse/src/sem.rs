//! Semi-external-memory SpMM (paper §3, integrating Zheng et al.
//! TPDS'16): the sparse matrix lives on the SSD array in row-block
//! partitions; multiplication streams the blocks while the skinny dense
//! operand stays in memory.
//!
//! On-disk partition layout (8-byte aligned sections):
//!
//! ```text
//! [nnz: u64][indptr: (rows+1) × u64, block-relative][indices: nnz × u32, padded][values: nnz × f64]
//! ```
//!
//! Every partition is padded to the size of the largest one so the SAFS
//! fixed-partition contract holds (sparse blocks are variable-sized; the
//! paper's SEM format solves this the same way, with page-granular
//! blocks).

use crate::csr::CsrMatrix;
use flashr_linalg::{par, Dense};
use flashr_safs::{IoBuf, Safs, SafsFile};

/// A CSR matrix stored on the SSD array in row-block partitions.
pub struct SemCsr {
    file: SafsFile,
    nrows: usize,
    ncols: usize,
    rows_per_part: usize,
    nnz: u64,
}

fn part_payload_bytes(rows: usize, nnz: usize) -> usize {
    let indices_padded = (nnz * 4).div_ceil(8) * 8;
    8 + (rows + 1) * 8 + indices_padded + nnz * 8
}

impl SemCsr {
    /// Serialize `m` onto the array under `name`.
    pub fn store(safs: &Safs, name: &str, m: &CsrMatrix, rows_per_part: usize) -> SemCsr {
        assert!(rows_per_part >= 1);
        let nrows = m.nrows();
        let nparts = nrows.div_ceil(rows_per_part).max(1);
        let (indptr, _, _) = m.raw();

        // Fixed partition size = the largest serialized block.
        let mut part_bytes = 0usize;
        for p in 0..nparts {
            let r0 = p * rows_per_part;
            let r1 = (r0 + rows_per_part).min(nrows);
            let nnz = (indptr[r1] - indptr[r0]) as usize;
            part_bytes = part_bytes.max(part_payload_bytes(r1 - r0, nnz));
        }

        let file = safs
            .create(name, part_bytes as u64, nparts as u64)
            .expect("SEM matrix create failed");
        file.set_delete_on_drop(true);

        let mut writes = Vec::new();
        for p in 0..nparts {
            let r0 = p * rows_per_part;
            let r1 = (r0 + rows_per_part).min(nrows);
            let base = indptr[r0];
            let nnz = (indptr[r1] - base) as usize;
            let mut buf = IoBuf::zeroed(part_bytes);
            {
                let bytes = buf.as_mut_bytes();
                bytes[..8].copy_from_slice(&(nnz as u64).to_le_bytes());
                let mut off = 8;
                for &entry in &indptr[r0..=r1] {
                    bytes[off..off + 8].copy_from_slice(&(entry - base).to_le_bytes());
                    off += 8;
                }
                let (_, all_indices, all_values) = m.raw();
                let s = base as usize;
                for &c in &all_indices[s..s + nnz] {
                    bytes[off..off + 4].copy_from_slice(&c.to_le_bytes());
                    off += 4;
                }
                off = off.div_ceil(8) * 8;
                for &v in &all_values[s..s + nnz] {
                    bytes[off..off + 8].copy_from_slice(&v.to_le_bytes());
                    off += 8;
                }
            }
            writes.push(file.write_part_async(p as u64, buf).expect("SEM write submit failed"));
        }
        for w in writes {
            w.wait().expect("SEM write failed");
        }
        SemCsr { file, nrows, ncols: m.ncols(), rows_per_part, nnz: m.nnz() as u64 }
    }

    /// Rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored entries.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// Number of row-block partitions.
    pub fn nparts(&self) -> usize {
        self.nrows.div_ceil(self.rows_per_part).max(1)
    }

    fn decode(&self, p: usize, buf: &IoBuf) -> (Vec<u64>, Vec<u32>, Vec<f64>) {
        let r0 = p * self.rows_per_part;
        let r1 = (r0 + self.rows_per_part).min(self.nrows);
        let rows = r1 - r0;
        let bytes = buf.as_bytes();
        let nnz = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut off = 8;
        for _ in 0..=rows {
            indptr.push(u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()));
            off += 8;
        }
        let mut indices = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            indices.push(u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()));
            off += 4;
        }
        off = off.div_ceil(8) * 8;
        let mut values = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            values.push(f64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()));
            off += 8;
        }
        (indptr, indices, values)
    }

    /// Semi-external `C = A · B`: row blocks stream from the array (the
    /// per-disk I/O threads overlap reads across `par` threads) while `B`
    /// and `C` stay in memory.
    pub fn spmm(&self, b: &Dense) -> Dense {
        assert_eq!(self.ncols, b.rows(), "inner dimension mismatch");
        let k = b.cols();
        let mut c = Dense::zeros(self.nrows, k);
        let rows_per_part = self.rows_per_part;
        par::for_each_chunk_mut(c.as_mut_slice(), rows_per_part * k, |p, cchunk| {
            let buf = self.file.read_part(p as u64).expect("SEM read failed");
            let (indptr, indices, values) = self.decode(p, &buf);
            let rows = cchunk.len() / k;
            for r in 0..rows {
                let s = indptr[r] as usize;
                let e = indptr[r + 1] as usize;
                let crow = &mut cchunk[r * k..(r + 1) * k];
                for i in s..e {
                    let v = values[i];
                    let brow = b.row(indices[i] as usize);
                    for (cv, bv) in crow.iter_mut().zip(brow) {
                        *cv += v * bv;
                    }
                }
            }
        });
        c
    }

    /// Read the whole matrix back into memory (tests / small data).
    pub fn to_csr(&self) -> CsrMatrix {
        let mut indptr: Vec<u64> = vec![0];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for p in 0..self.nparts() {
            let buf = self.file.read_part(p as u64).expect("SEM read failed");
            let (pip, pidx, pval) = self.decode(p, &buf);
            let base = *indptr.last().unwrap();
            for w in pip.windows(2) {
                indptr.push(base + w[1]);
            }
            indices.extend(pidx);
            values.extend(pval);
        }
        CsrMatrix::from_raw(self.nrows, self.ncols, indptr, indices, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashr_safs::SafsConfig;

    fn safs(tag: &str) -> Safs {
        let dir = std::env::temp_dir().join(format!("flashr-sem-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Safs::open(SafsConfig::striped_under(dir, 3)).unwrap()
    }

    #[test]
    fn roundtrip_through_the_array() {
        let safs = safs("roundtrip");
        let m = CsrMatrix::random(500, 300, 5, 11);
        let sem = SemCsr::store(&safs, "m", &m, 64);
        assert_eq!(sem.nnz(), m.nnz() as u64);
        let back = sem.to_csr();
        assert_eq!(back.to_dense().max_abs_diff(&m.to_dense()), 0.0);
    }

    #[test]
    fn sem_spmm_matches_in_memory() {
        let safs = safs("spmm");
        let m = CsrMatrix::random(400, 400, 8, 3);
        let sem = SemCsr::store(&safs, "g", &m, 32);
        // k = 0: a zero-width product is a 400 × 0 result, not a panic.
        for k in [8, 0] {
            let b = Dense::from_fn(400, k, |r, c| ((r + c) % 5) as f64 - 2.0);
            let want = crate::spmm::spmm(&m, &b);
            let got = sem.spmm(&b);
            assert_eq!((got.rows(), got.cols()), (400, k));
            assert!(got.max_abs_diff(&want) < 1e-10);
        }
    }

    #[test]
    fn single_partition_edge() {
        let safs = safs("single");
        let m = CsrMatrix::random(10, 10, 3, 1);
        let sem = SemCsr::store(&safs, "s", &m, 1000);
        assert_eq!(sem.nparts(), 1);
        let b = Dense::eye(10);
        assert!(sem.spmm(&b).max_abs_diff(&m.to_dense()) < 1e-12);
    }

    #[test]
    fn uneven_last_partition() {
        let safs = safs("uneven");
        let m = CsrMatrix::random(77, 50, 4, 9);
        let sem = SemCsr::store(&safs, "u", &m, 16); // 77 = 4×16 + 13
        assert_eq!(sem.nparts(), 5);
        let back = sem.to_csr();
        assert_eq!(back.to_dense().max_abs_diff(&m.to_dense()), 0.0);
    }
}
