//! Matrix import/export (paper Table 3: `load.dense` and friends).
//!
//! * [`read_csv`] / [`write_csv`] — the paper's `load.dense` reads dense
//!   matrices from text files; rows are lines, columns are separated by
//!   `sep`.
//! * [`save_binary`] / [`load_binary`] — a raw binary container (small
//!   header + column-major partitions) for fast persistence of f64
//!   matrices.

use crate::fm::FM;
use crate::mat::TasMat;
use crate::session::FlashCtx;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Read a dense f64 matrix from a delimited text file.
pub fn read_csv(ctx: &FlashCtx, path: impl AsRef<Path>, sep: char) -> std::io::Result<FM> {
    let f = File::open(path.as_ref())?;
    let reader = BufReader::new(f);
    let mut data: Vec<f64> = Vec::new();
    let mut ncols: Option<usize> = None;
    let mut line_buf = String::new();
    let mut reader = reader;
    while {
        line_buf.clear();
        reader.read_line(&mut line_buf)? > 0
    } {
        let line = line_buf.trim();
        if line.is_empty() {
            continue;
        }
        let mut n = 0;
        for tok in line.split(sep) {
            let v: f64 = tok.trim().parse().map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad number '{tok}': {e}"),
                )
            })?;
            data.push(v);
            n += 1;
        }
        match ncols {
            None => ncols = Some(n),
            Some(c) => {
                if c != n {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("ragged rows: {c} vs {n}"),
                    ));
                }
            }
        }
    }
    let ncols = ncols
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "empty matrix file"))?;
    let nrows = (data.len() / ncols) as u64;
    Ok(FM::from_row_major(ctx, nrows, ncols, &data))
}

/// Write a matrix as delimited text.
pub fn write_csv(
    ctx: &FlashCtx,
    fm: &FM,
    path: impl AsRef<Path>,
    sep: char,
) -> std::io::Result<()> {
    let d = fm.to_dense(ctx);
    let f = File::create(path.as_ref())?;
    let mut w = BufWriter::new(f);
    for r in 0..d.rows() {
        for c in 0..d.cols() {
            if c > 0 {
                write!(w, "{sep}")?;
            }
            write!(w, "{}", d.at(r, c))?;
        }
        writeln!(w)?;
    }
    w.flush()
}

const MAGIC: &[u8; 8] = b"FLASHR01";

/// Persist an f64 matrix to a raw binary file (header + column-major
/// partition payloads in partition order).
pub fn save_binary(ctx: &FlashCtx, fm: &FM, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mat = fm.materialize(ctx).tall_mat(ctx);
    let mat = if mat.dtype() == crate::dtype::DType::F64 {
        mat
    } else {
        fm.cast(crate::dtype::DType::F64).materialize(ctx).tall_mat(ctx)
    };
    let f = File::create(path.as_ref())?;
    let mut w = BufWriter::new(f);
    w.write_all(MAGIC)?;
    w.write_all(&mat.nrows().to_le_bytes())?;
    w.write_all(&(mat.ncols() as u64).to_le_bytes())?;
    w.write_all(&mat.parter().rows_per_part().to_le_bytes())?;
    let mut pool = crate::chunk::BufPool::new();
    for (part, buf) in mat.scan(0..mat.nparts()) {
        let rows = mat.parter().part_rows(part, mat.nrows());
        // Normalize to column-major on disk.
        let chunk = mat.pcache_chunk(&buf, part, 0, rows, &mut pool);
        w.write_all(chunk.as_bytes())?;
    }
    w.flush()
}

/// Load a matrix written by [`save_binary`]. The file's partitioning is
/// preserved, so it must match the context's `rows_per_part` to join DAGs
/// with context-created matrices.
pub fn load_binary(ctx: &FlashCtx, path: impl AsRef<Path>) -> std::io::Result<FM> {
    let f = File::open(path.as_ref())?;
    let mut r = BufReader::new(f);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "not a FlashR binary matrix",
        ));
    }
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)?;
    let nrows = u64::from_le_bytes(u64buf);
    r.read_exact(&mut u64buf)?;
    let ncols = u64::from_le_bytes(u64buf) as usize;
    r.read_exact(&mut u64buf)?;
    let rows_per_part = u64::from_le_bytes(u64buf);
    let parter = crate::part::Partitioner::new(rows_per_part);
    assert_eq!(
        parter,
        ctx.parter(),
        "file partitioning ({rows_per_part} rows) differs from the context"
    );
    let nparts = parter.nparts(nrows);
    let mut parts = Vec::with_capacity(nparts as usize);
    for part in 0..nparts {
        let rows = parter.part_rows(part, nrows);
        let mut buf = flashr_safs::IoBuf::zeroed(rows * ncols * 8);
        r.read_exact(buf.as_mut_bytes())?;
        parts.push(std::sync::Arc::new(buf));
    }
    let mat = TasMat::assemble_in_mem(
        nrows,
        ncols,
        crate::dtype::DType::F64,
        crate::mat::Layout::ColMajor,
        parter,
        parts,
    );
    Ok(FM::from_tas(mat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CtxConfig;

    fn ctx() -> FlashCtx {
        let ctx =
            FlashCtx::with_config(CtxConfig { rows_per_part: 64, ..Default::default() }, None);
        ctx.flight_recorder().set_dump_path(flashr_testkit::flight_dump_path());
        ctx
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("flashr-io-{}-{name}", std::process::id()))
    }

    #[test]
    fn csv_roundtrip() {
        let ctx = ctx();
        let x = FM::runif(&ctx, 100, 3, -5.0, 5.0, 3);
        let path = tmp("roundtrip.csv");
        write_csv(&ctx, &x, &path, ',').unwrap();
        let y = read_csv(&ctx, &path, ',').unwrap();
        assert_eq!(y.nrow(), 100);
        assert_eq!(y.ncol(), 3);
        let diff = (&x - &y).abs().max_all().value(&ctx);
        assert!(diff < 1e-12, "diff={diff}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let ctx = ctx();
        let path = tmp("ragged.csv");
        std::fs::write(&path, "1,2,3\n4,5\n").unwrap();
        assert!(read_csv(&ctx, &path, ',').is_err());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn csv_rejects_garbage() {
        let ctx = ctx();
        let path = tmp("garbage.csv");
        std::fs::write(&path, "1,two,3\n").unwrap();
        assert!(read_csv(&ctx, &path, ',').is_err());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn binary_roundtrip() {
        let ctx = ctx();
        let x = FM::rnorm(&ctx, 300, 4, 1.0, 2.0, 9);
        let path = tmp("roundtrip.bin");
        save_binary(&ctx, &x, &path).unwrap();
        let y = load_binary(&ctx, &path).unwrap();
        assert_eq!(y.nrow(), 300);
        let diff = (&x - &y).abs().max_all().value(&ctx);
        assert_eq!(diff, 0.0, "binary roundtrip must be exact");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let ctx = ctx();
        let path = tmp("bad.bin");
        std::fs::write(&path, b"NOTMAGIC00000000").unwrap();
        assert!(load_binary(&ctx, &path).is_err());
        std::fs::remove_file(path).unwrap();
    }
}
