//! Property tests: SAFS round-trips arbitrary partition geometries and
//! payloads across arbitrary disk counts.

use flashr_safs::{IoBuf, Safs, SafsConfig};
use flashr_testkit::{cases, TempDir};

const CASES: usize = 16;

/// A runtime under a fresh directory, which goes with the guard.
fn fresh(tag: u64, ndisks: usize) -> (TempDir, Safs) {
    let dir = TempDir::new(&format!("safs-prop-{tag}"));
    let safs = Safs::open(SafsConfig::striped_under(&dir, ndisks)).unwrap();
    (dir, safs)
}

/// Deterministic payload for partition `p` of length `len`.
fn payload(p: u64, len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| ((i as u64 * 131 + p * 31 + salt as u64) % 251) as u8).collect()
}

#[test]
fn roundtrip_any_geometry() {
    cases(CASES, |rng, _| {
        let ndisks = rng.usize(1..6);
        let part_bytes = rng.u64(1..5000);
        let total_mult = rng.u64(1..40);
        let tail = rng.u64(0..5000);
        let seed = rng.next_u64();
        let total = (part_bytes * total_mult + tail % part_bytes.max(1)).max(1);
        let (_dir, safs) = fresh(seed, ndisks);
        let f = safs.create_bytes("prop", part_bytes, total).unwrap();
        assert_eq!(f.nparts(), total.div_ceil(part_bytes));

        // Write all partitions (async), read them back (async).
        let mut writes = Vec::new();
        for p in 0..f.nparts() {
            let len = f.part_len(p).unwrap();
            writes.push(f.write_part_async(p, IoBuf::from_bytes(&payload(p, len, 7))).unwrap());
        }
        for w in writes {
            w.wait().unwrap();
        }
        for p in 0..f.nparts() {
            let len = f.part_len(p).unwrap();
            let got = f.read_part(p).unwrap();
            let want = payload(p, len, 7);
            assert_eq!(got.as_bytes(), want.as_slice(), "partition {}", p);
        }
        f.delete().unwrap();
    });
}

#[test]
fn rewrites_are_last_writer_wins() {
    cases(CASES, |rng, _| {
        let parts = rng.u64(1..20);
        let (_dir, safs) = fresh(rng.next_u64() ^ 0xABCD, 3);
        let f = safs.create("rw", 256, parts).unwrap();
        for p in 0..parts {
            f.write_part(p, &payload(p, 256, 1)).unwrap();
        }
        // Overwrite a strided subset.
        for p in (0..parts).step_by(2) {
            f.write_part(p, &payload(p, 256, 2)).unwrap();
        }
        for p in 0..parts {
            let want_salt = if p % 2 == 0 { 2 } else { 1 };
            let got = f.read_part(p).unwrap();
            let want = payload(p, 256, want_salt);
            assert_eq!(got.as_bytes(), want.as_slice());
        }
        f.delete().unwrap();
    });
}

#[test]
fn reopen_sees_identical_content() {
    cases(CASES, |rng, _| {
        let parts = rng.u64(1..12);
        let (_dir, safs) = fresh(rng.next_u64() ^ 0x1234, 2);
        {
            let f = safs.create("persist", 128, parts).unwrap();
            for p in 0..parts {
                f.write_part(p, &payload(p, 128, 9)).unwrap();
            }
        }
        let f = safs.open_file("persist").unwrap();
        assert_eq!(f.nparts(), parts);
        for p in 0..parts {
            let got = f.read_part(p).unwrap();
            let want = payload(p, 128, 9);
            assert_eq!(got.as_bytes(), want.as_slice());
        }
        f.delete().unwrap();
    });
}
