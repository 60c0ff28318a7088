//! Execution statistics: what the engine actually did.
//!
//! The paper's claims are about *data movement* (passes over the data,
//! bytes through the memory hierarchy); these counters make those
//! quantities observable to tests and benchmarks.

flashr_safs::stat_struct! {
    /// Monotonic engine counters.
    pub struct ExecStats;
    /// Point-in-time copy of [`ExecStats`].
    pub struct ExecStatsSnapshot {
        /// Materialization passes over the data (a fused DAG counts one;
        /// the eager engine counts one per operation).
        pub passes: counter;
        /// I/O partitions processed (across all passes and threads).
        pub parts: counter;
        /// Pcache chunks evaluated.
        pub pcache_chunks: counter;
        /// Nanoseconds spent inside materialization.
        pub exec_nanos: counter;
        /// Chunks freshly produced by node evaluation (memo hits excluded;
        /// one fused chain produces one chunk however long it is).
        pub node_chunks: counter;
        /// Bytes of those freshly produced chunks — the data-movement
        /// quantity chain fusion reduces.
        pub node_chunk_bytes: counter;
        /// Fused chain kernels executed (one count per chunk produced by a
        /// chain, not per chain discovered).
        pub fused_chains: counter;
        /// Bytes of intermediate chunks chain fusion skipped allocating.
        pub fused_saved_bytes: counter;
        /// Worker nanoseconds spent blocked waiting for partition reads.
        pub io_wait_nanos: counter;
        /// Worker nanoseconds spent evaluating kernels.
        pub compute_nanos: counter;
        /// Worker nanoseconds spent stalled on result write-back.
        pub write_stall_nanos: counter;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = ExecStats::default();
        s.passes.add(1);
        let a = s.snapshot();
        s.passes.add(2);
        s.parts.add(10);
        let d = a.delta(&s.snapshot());
        assert_eq!(d.passes, 2);
        assert_eq!(d.parts, 10);
    }

    #[test]
    fn swapped_delta_saturates_instead_of_panicking() {
        let s = ExecStats::default();
        s.passes.add(1);
        let a = s.snapshot();
        s.passes.add(1);
        let b = s.snapshot();
        // Wrong order: later.delta(&earlier) must not underflow.
        let d = b.delta(&a);
        assert_eq!(d.passes, 0);
    }
}
