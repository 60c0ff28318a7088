//! Execution statistics: what the engine actually did.
//!
//! The paper's claims are about *data movement* (passes over the data,
//! bytes through the memory hierarchy, locality of NUMA accesses); these
//! counters make those quantities observable to tests and benchmarks.

const NUMA_PARTS: &str = "Partitions by whether the worker's NUMA node matched the partition's.";

flashr_safs::stat_struct! {
    /// Monotonic engine counters.
    pub struct ExecStats;
    /// Point-in-time copy of [`ExecStats`].
    pub struct ExecStatsSnapshot {
        /// Materialization passes over the data (a fused DAG counts one;
        /// the eager engine counts one per operation).
        pub passes: counter => "flashr_exec_passes_total",
            "Materialization passes over the data.";
        /// I/O partitions processed (across all passes and threads).
        pub parts: counter => "flashr_exec_parts_total",
            "I/O partitions processed across all passes and workers.";
        /// Pcache chunks evaluated.
        pub pcache_chunks: counter => "flashr_exec_pcache_chunks_total",
            "Pcache chunks evaluated.";
        /// Partitions whose (simulated) NUMA node matched the worker's node.
        pub local_parts: counter => "flashr_exec_parts_numa_total", NUMA_PARTS, "numa" = "local";
        /// Partitions processed by a worker on a different node.
        pub remote_parts: counter => "flashr_exec_parts_numa_total", NUMA_PARTS, "numa" = "remote";
        /// Nanoseconds spent inside materialization.
        pub exec_nanos: counter => "flashr_exec_nanos_total",
            "Wall nanoseconds spent inside materialization.";
        /// Chunks freshly produced by node evaluation (memo hits excluded;
        /// one fused chain produces one chunk however long it is).
        pub node_chunks: counter => "flashr_exec_node_chunks_total",
            "Chunks freshly produced by node evaluation (memo hits excluded).";
        /// Bytes of those freshly produced chunks — the data-movement
        /// quantity chain fusion reduces.
        pub node_chunk_bytes: counter => "flashr_exec_node_chunk_bytes_total",
            "Bytes of freshly produced chunks.";
        /// Fused chain kernels executed (one count per chunk produced by a
        /// chain, not per chain discovered).
        pub fused_chains: counter => "flashr_exec_fused_chains_total",
            "Fused chain kernels executed.";
        /// Bytes of intermediate chunks chain fusion skipped allocating.
        pub fused_saved_bytes: counter => "flashr_exec_fused_saved_bytes_total",
            "Bytes of intermediate chunks chain fusion skipped allocating.";
        /// Worker nanoseconds spent blocked waiting for partition reads.
        pub io_wait_nanos: counter => "flashr_exec_io_wait_nanos_total",
            "Worker nanoseconds blocked waiting for partition reads.";
        /// Worker nanoseconds spent evaluating kernels.
        pub compute_nanos: counter => "flashr_exec_compute_nanos_total",
            "Worker nanoseconds spent evaluating kernels.";
        /// Worker nanoseconds spent stalled on result write-back.
        pub write_stall_nanos: counter => "flashr_exec_write_stall_nanos_total",
            "Worker nanoseconds stalled on result write-back.";
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
