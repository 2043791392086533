//! Execution plans: the architecture-independent summary of a mapped
//! workload that the cost model prices.
//!
//! A software schedule (crate `sw-opt`) lowers to an [`ExecutionPlan`]; the
//! plan captures how much work and traffic the accelerator must perform —
//! intrinsic invocations, useful vs. padded MACs, per-tensor DRAM traffic
//! with contiguity information, scratchpad traffic, and any data
//! rearrangement bytes (im2col-style conversions or transposed tensorize
//! choices).

/// DRAM traffic of one tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorTraffic {
    /// Tensor name (for reports).
    pub tensor: String,
    /// Total bytes moved between DRAM and the scratchpad.
    pub bytes: u64,
    /// Average contiguous run length in bytes; caps the effective DMA burst
    /// (non-contiguous tile slices cost one burst setup per run).
    pub avg_contiguous_run: u64,
}

impl TensorTraffic {
    /// Creates a traffic record.
    pub fn new(tensor: impl Into<String>, bytes: u64, avg_contiguous_run: u64) -> Self {
        TensorTraffic {
            tensor: tensor.into(),
            bytes,
            avg_contiguous_run: avg_contiguous_run.max(1),
        }
    }
}

/// The priced summary of one workload mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Total hardware-intrinsic invocations.
    pub intrinsic_calls: u64,
    /// MACs the workload semantically requires.
    pub macs_useful: u64,
    /// MACs actually executed, including padding waste when workload
    /// extents do not divide the intrinsic tile.
    pub macs_padded: u64,
    /// Per-tensor DRAM read traffic.
    pub dram_reads: Vec<TensorTraffic>,
    /// Per-tensor DRAM write traffic.
    pub dram_writes: Vec<TensorTraffic>,
    /// Total scratchpad bytes moved between the scratchpad and the PEs.
    pub spad_traffic_bytes: u64,
    /// Bytes shuffled by data rearrangement (transpositions, window
    /// linearization, im2col conversions). Charged serially.
    pub rearrange_bytes: u64,
    /// Number of outer tile stages (DMA/compute double-buffer granularity).
    pub stages: u64,
    /// Whether the schedule double-buffers (tile fits twice in scratchpad).
    pub double_buffered: bool,
    /// Host-side loop-control/launch cycles (reduced by the `fuse`
    /// software primitive, which collapses outer loops into one launch
    /// loop).
    pub host_control_cycles: u64,
}

impl ExecutionPlan {
    /// A plan with compute work only — useful for unit tests and for
    /// microbenchmarks of the PE array.
    pub fn compute_only(macs_useful: u64, macs_padded: u64, intrinsic_calls: u64) -> Self {
        ExecutionPlan {
            intrinsic_calls,
            macs_useful,
            macs_padded: macs_padded.max(macs_useful),
            dram_reads: Vec::new(),
            dram_writes: Vec::new(),
            spad_traffic_bytes: 0,
            rearrange_bytes: 0,
            stages: 1,
            double_buffered: false,
            host_control_cycles: 0,
        }
    }

    /// Total DRAM bytes (reads + writes).
    pub fn dram_bytes(&self) -> u64 {
        self.dram_reads
            .iter()
            .chain(self.dram_writes.iter())
            .map(|t| t.bytes)
            .sum()
    }

    /// Fraction of executed MACs that are useful (1.0 = no padding waste).
    pub fn utilization(&self) -> f64 {
        if self.macs_padded == 0 {
            return 1.0;
        }
        self.macs_useful as f64 / self.macs_padded as f64
    }

    /// Merges another plan executed after this one (sequential stages of a
    /// multi-stage computation, e.g. the two MTTKRP stages or an im2col
    /// conversion followed by GEMM).
    pub fn then(&self, other: &ExecutionPlan) -> ExecutionPlan {
        let mut merged = self.clone();
        merged.intrinsic_calls += other.intrinsic_calls;
        merged.macs_useful += other.macs_useful;
        merged.macs_padded += other.macs_padded;
        merged.dram_reads.extend(other.dram_reads.iter().cloned());
        merged.dram_writes.extend(other.dram_writes.iter().cloned());
        merged.spad_traffic_bytes += other.spad_traffic_bytes;
        merged.rearrange_bytes += other.rearrange_bytes;
        merged.stages += other.stages;
        merged.double_buffered = self.double_buffered && other.double_buffered;
        merged.host_control_cycles += other.host_control_cycles;
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_only_clamps_padded() {
        let p = ExecutionPlan::compute_only(100, 50, 1);
        assert_eq!(p.macs_padded, 100);
        assert_eq!(p.utilization(), 1.0);
    }

    #[test]
    fn utilization_reflects_padding() {
        let p = ExecutionPlan::compute_only(75, 100, 1);
        assert!((p.utilization() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn utilization_of_empty_plan_is_one() {
        let p = ExecutionPlan::compute_only(0, 0, 0);
        assert_eq!(p.utilization(), 1.0);
    }

    #[test]
    fn dram_bytes_sums_reads_and_writes() {
        let mut p = ExecutionPlan::compute_only(1, 1, 1);
        p.dram_reads.push(TensorTraffic::new("A", 100, 10));
        p.dram_reads.push(TensorTraffic::new("B", 50, 50));
        p.dram_writes.push(TensorTraffic::new("C", 25, 25));
        assert_eq!(p.dram_bytes(), 175);
    }

    #[test]
    fn contiguous_run_is_clamped_to_one() {
        let t = TensorTraffic::new("A", 10, 0);
        assert_eq!(t.avg_contiguous_run, 1);
    }

    #[test]
    fn then_merges_sequentially() {
        let mut a = ExecutionPlan::compute_only(10, 20, 2);
        a.dram_reads.push(TensorTraffic::new("A", 100, 10));
        a.double_buffered = true;
        let mut b = ExecutionPlan::compute_only(5, 5, 1);
        b.dram_writes.push(TensorTraffic::new("C", 30, 30));
        b.rearrange_bytes = 7;
        b.double_buffered = true;
        let m = a.then(&b);
        assert_eq!(m.macs_useful, 15);
        assert_eq!(m.macs_padded, 25);
        assert_eq!(m.intrinsic_calls, 3);
        assert_eq!(m.dram_bytes(), 130);
        assert_eq!(m.rearrange_bytes, 7);
        assert_eq!(m.stages, 2);
        assert!(m.double_buffered);
    }
}
