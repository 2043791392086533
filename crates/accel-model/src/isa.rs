//! The accelerator instruction set (§VI-C).
//!
//! "There are two basic types of instructions: the data movement
//! instructions move data between the scratchpad memory and the DRAM, and
//! the compute instructions invoke computations on the PE array." Tensorize
//! interfaces lower to sequences of these instructions; the trace simulator
//! executes them.

/// One accelerator instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// DMA a tile from DRAM into the scratchpad.
    Load {
        /// Source tensor name.
        tensor: String,
        /// Tile size in bytes.
        bytes: u64,
        /// Average contiguous run length (bounds effective burst).
        contiguous_run: u64,
    },
    /// DMA a tile from the scratchpad back to DRAM.
    Store {
        /// Destination tensor name.
        tensor: String,
        /// Tile size in bytes.
        bytes: u64,
        /// Average contiguous run length.
        contiguous_run: u64,
    },
    /// Invoke the hardware intrinsic on staged data (the paper's
    /// `compute_accumulated`-style instruction).
    Compute {
        /// Number of intrinsic invocations in this stage.
        calls: u64,
        /// MACs executed (including padding).
        macs: u64,
        /// Scratchpad bytes streamed to/from the PEs during the stage.
        spad_bytes: u64,
    },
    /// Stage boundary: all previous work must complete before the next
    /// stage's *compute* (loads may still be double-buffered ahead).
    Barrier,
}

/// An instruction stream for one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// The instructions, in program order.
    pub instrs: Vec<Instr>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Appends an instruction.
    pub fn push(&mut self, i: Instr) {
        self.instrs.push(i);
    }

    /// Number of stages (barrier-separated regions containing work).
    pub fn stage_count(&self) -> usize {
        let mut stages = 0;
        let mut has_work = false;
        for i in &self.instrs {
            match i {
                Instr::Barrier => {
                    if has_work {
                        stages += 1;
                        has_work = false;
                    }
                }
                _ => has_work = true,
            }
        }
        if has_work {
            stages += 1;
        }
        stages
    }

    /// Total bytes loaded from DRAM.
    pub fn total_load_bytes(&self) -> u64 {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Load { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum()
    }

    /// Total bytes stored to DRAM.
    pub fn total_store_bytes(&self) -> u64 {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Store { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum()
    }

    /// Total intrinsic invocations.
    pub fn total_calls(&self) -> u64 {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Compute { calls, .. } => Some(*calls),
                _ => None,
            })
            .sum()
    }

    /// Total MACs executed.
    pub fn total_macs(&self) -> u64 {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Compute { macs, .. } => Some(*macs),
                _ => None,
            })
            .sum()
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "program: {} instrs, {} stages, {} calls, {} B in, {} B out",
            self.instrs.len(),
            self.stage_count(),
            self.total_calls(),
            self.total_load_bytes(),
            self.total_store_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(p: &mut Program, bytes: u64, calls: u64) {
        p.push(Instr::Load {
            tensor: "A".into(),
            bytes,
            contiguous_run: 64,
        });
        p.push(Instr::Compute {
            calls,
            macs: calls * 4096,
            spad_bytes: bytes,
        });
        p.push(Instr::Store {
            tensor: "C".into(),
            bytes: bytes / 4,
            contiguous_run: 64,
        });
        p.push(Instr::Barrier);
    }

    #[test]
    fn totals_accumulate() {
        let mut p = Program::new();
        stage(&mut p, 1024, 8);
        stage(&mut p, 2048, 16);
        assert_eq!(p.total_load_bytes(), 3072);
        assert_eq!(p.total_store_bytes(), 768);
        assert_eq!(p.total_calls(), 24);
        assert_eq!(p.total_macs(), 24 * 4096);
        assert_eq!(p.stage_count(), 2);
    }

    #[test]
    fn trailing_work_counts_as_stage() {
        let mut p = Program::new();
        p.push(Instr::Compute {
            calls: 1,
            macs: 10,
            spad_bytes: 0,
        });
        assert_eq!(p.stage_count(), 1);
    }

    #[test]
    fn empty_program_has_no_stages() {
        let p = Program::new();
        assert_eq!(p.stage_count(), 0);
        assert_eq!(p.total_calls(), 0);
    }

    #[test]
    fn consecutive_barriers_do_not_inflate_stages() {
        let mut p = Program::new();
        p.push(Instr::Barrier);
        p.push(Instr::Barrier);
        stage(&mut p, 64, 1);
        p.push(Instr::Barrier);
        assert_eq!(p.stage_count(), 1);
    }

    #[test]
    fn display_summarizes() {
        let mut p = Program::new();
        stage(&mut p, 1024, 8);
        let s = p.to_string();
        assert!(s.contains("1 stages") && s.contains("8 calls"));
    }
}
