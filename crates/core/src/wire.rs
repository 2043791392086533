//! [`Wire`] layouts of the co-design driver's types: requests, options,
//! solutions, events and errors on the wire, plus the `HASCOSR1`
//! surrogate-store payload the engine persists.

use accel_model::backend::SurrogateSnapshot;
use runtime::wire::{from_bytes, to_bytes, Reader, Wire};
use runtime::{wire_enum_unit, wire_struct};
use tensor_ir::intrinsics::IntrinsicKind;

use crate::codesign::CoDesignOptions;
use crate::engine::{CampaignOutcome, CoDesignRequest};
use crate::event::{CampaignEvent, RunEvent};
use crate::input::{Constraints, GenerationMethod, InputDescription};
use crate::remote::RemoteEvalRequest;
use crate::solution::{Solution, WorkloadSolution};
use crate::{HascoError, OptimizerKind, RunStats};

wire_struct!(Constraints {
    max_latency_ms,
    max_power_mw,
    max_area_mm2,
});

impl Wire for GenerationMethod {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GenerationMethod::Chisel(k) => {
                out.push(0);
                k.encode(out);
            }
            GenerationMethod::Gemmini => out.push(1),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        match u8::decode(r)? {
            0 => Some(GenerationMethod::Chisel(IntrinsicKind::decode(r)?)),
            1 => Some(GenerationMethod::Gemmini),
            _ => None,
        }
    }
}

wire_struct!(InputDescription {
    app,
    method,
    constraints,
});
wire_enum_unit!(OptimizerKind {
    0 => OptimizerKind::Mobo,
    1 => OptimizerKind::Nsga2,
    2 => OptimizerKind::Random,
    3 => OptimizerKind::Anneal,
});

impl Wire for CoDesignOptions {
    fn encode(&self, out: &mut Vec<u8>) {
        self.hw_trials.encode(out);
        self.mobo_prior.encode(out);
        self.sw_inner.encode(out);
        self.sw_final.encode(out);
        self.tuning_rounds.encode(out);
        self.seed.encode(out);
        self.threads.encode(out);
        self.work_stealing.encode(out);
        self.cache_capacity.encode(out);
        self.backend.encode(out);
        self.refine_backend.encode(out);
        self.refine_top_k.encode(out);
        self.adaptive_refinement.encode(out);
        self.tech.encode(out);
        self.optimizer.encode(out);
        self.surrogate_full_refit.encode(out);
        // `cache_path` is deliberately not on the wire: the engine
        // ignores it (warm state is the serving engine's, configured
        // server-side) and it is excluded from request fingerprints, so
        // shipping a client-local path would only leak filesystem
        // details.
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        // Start from a constructed options value (the struct is not
        // `Default`) and overwrite every wire-carried field.
        let mut opts = CoDesignOptions::quick(0);
        opts.hw_trials = Wire::decode(r)?;
        opts.mobo_prior = Wire::decode(r)?;
        opts.sw_inner = Wire::decode(r)?;
        opts.sw_final = Wire::decode(r)?;
        opts.tuning_rounds = Wire::decode(r)?;
        opts.seed = Wire::decode(r)?;
        opts.threads = Wire::decode(r)?;
        opts.work_stealing = Wire::decode(r)?;
        opts.cache_capacity = Wire::decode(r)?;
        opts.backend = Wire::decode(r)?;
        opts.refine_backend = Wire::decode(r)?;
        opts.refine_top_k = Wire::decode(r)?;
        opts.adaptive_refinement = Wire::decode(r)?;
        opts.tech = Wire::decode(r)?;
        opts.optimizer = Wire::decode(r)?;
        opts.surrogate_full_refit = Wire::decode(r)?;
        opts.cache_path = None;
        Some(opts)
    }
}

wire_struct!(CoDesignRequest {
    input,
    options,
    label,
});
wire_struct!(RunStats {
    threads,
    hw_evaluations,
    sw_explorations,
    refine_explorations,
    backend,
    refine_backend,
    refine_topk_trajectory,
    surrogate_samples,
    surrogate_trusted,
    warm_cache_entries,
    steals,
    cache,
});
wire_struct!(WorkloadSolution {
    workload,
    schedule,
    metrics,
    program,
});
wire_struct!(Solution {
    accelerator,
    per_workload,
    total,
    meets_constraints,
    hw_history,
    stats,
});
wire_struct!(CampaignOutcome {
    label,
    solution,
    shared_with,
});
wire_struct!(RemoteEvalRequest {
    backend,
    tech,
    seed,
    sw_opts,
    workload,
    config,
});

impl Wire for HascoError {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            HascoError::EmptyApp => out.push(0),
            HascoError::InvalidOptions(msg) => {
                out.push(1);
                msg.encode(out);
            }
            HascoError::Cancelled => out.push(2),
            HascoError::NoFeasibleAccelerator => out.push(3),
            HascoError::Software(msg) => {
                out.push(4);
                msg.encode(out);
            }
            HascoError::Hardware(msg) => {
                out.push(5);
                msg.encode(out);
            }
            HascoError::Transport(msg) => {
                out.push(6);
                msg.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match u8::decode(r)? {
            0 => HascoError::EmptyApp,
            1 => HascoError::InvalidOptions(String::decode(r)?),
            2 => HascoError::Cancelled,
            3 => HascoError::NoFeasibleAccelerator,
            4 => HascoError::Software(String::decode(r)?),
            5 => HascoError::Hardware(String::decode(r)?),
            6 => HascoError::Transport(String::decode(r)?),
            _ => return None,
        })
    }
}

impl Wire for RunEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RunEvent::Started { label, workloads } => {
                out.push(0);
                label.encode(out);
                workloads.encode(out);
            }
            RunEvent::Partitioned { workload, choices } => {
                out.push(1);
                workload.encode(out);
                choices.encode(out);
            }
            RunEvent::BatchEvaluated {
                optimizer,
                phase,
                batch,
                evaluated,
                feasible,
            } => {
                out.push(2);
                optimizer.encode(out);
                phase.encode(out);
                batch.encode(out);
                evaluated.encode(out);
                feasible.encode(out);
            }
            RunEvent::Refined {
                batch,
                survivors,
                budget,
            } => {
                out.push(3);
                batch.encode(out);
                survivors.encode(out);
                budget.encode(out);
            }
            RunEvent::SoftwareOptimized {
                workload,
                rounds,
                latency_ms,
            } => {
                out.push(4);
                workload.encode(out);
                rounds.encode(out);
                latency_ms.encode(out);
            }
            RunEvent::Tuned {
                round,
                meets_constraints,
            } => {
                out.push(5);
                round.encode(out);
                meets_constraints.encode(out);
            }
            RunEvent::Solved {
                meets_constraints,
                latency_ms,
            } => {
                out.push(6);
                meets_constraints.encode(out);
                latency_ms.encode(out);
            }
            RunEvent::Cancelled => out.push(7),
            RunEvent::Failed { error } => {
                out.push(8);
                error.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match u8::decode(r)? {
            0 => RunEvent::Started {
                label: Wire::decode(r)?,
                workloads: Wire::decode(r)?,
            },
            1 => RunEvent::Partitioned {
                workload: Wire::decode(r)?,
                choices: Wire::decode(r)?,
            },
            2 => RunEvent::BatchEvaluated {
                optimizer: Wire::decode(r)?,
                phase: Wire::decode(r)?,
                batch: Wire::decode(r)?,
                evaluated: Wire::decode(r)?,
                feasible: Wire::decode(r)?,
            },
            3 => RunEvent::Refined {
                batch: Wire::decode(r)?,
                survivors: Wire::decode(r)?,
                budget: Wire::decode(r)?,
            },
            4 => RunEvent::SoftwareOptimized {
                workload: Wire::decode(r)?,
                rounds: Wire::decode(r)?,
                latency_ms: Wire::decode(r)?,
            },
            5 => RunEvent::Tuned {
                round: Wire::decode(r)?,
                meets_constraints: Wire::decode(r)?,
            },
            6 => RunEvent::Solved {
                meets_constraints: Wire::decode(r)?,
                latency_ms: Wire::decode(r)?,
            },
            7 => RunEvent::Cancelled,
            8 => RunEvent::Failed {
                error: Wire::decode(r)?,
            },
            _ => return None,
        })
    }
}

impl Wire for CampaignEvent {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CampaignEvent::Planned {
                scenarios,
                unique_jobs,
                deduplicated,
            } => {
                out.push(0);
                scenarios.encode(out);
                unique_jobs.encode(out);
                deduplicated.encode(out);
            }
            CampaignEvent::Job { label, event } => {
                out.push(1);
                label.encode(out);
                event.encode(out);
            }
            CampaignEvent::ScenarioDone {
                label,
                shared_with,
                completed,
                total,
            } => {
                out.push(2);
                label.encode(out);
                shared_with.encode(out);
                completed.encode(out);
                total.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        Some(match u8::decode(r)? {
            0 => CampaignEvent::Planned {
                scenarios: Wire::decode(r)?,
                unique_jobs: Wire::decode(r)?,
                deduplicated: Wire::decode(r)?,
            },
            1 => CampaignEvent::Job {
                label: Wire::decode(r)?,
                event: Wire::decode(r)?,
            },
            2 => CampaignEvent::ScenarioDone {
                label: Wire::decode(r)?,
                shared_with: Wire::decode(r)?,
                completed: Wire::decode(r)?,
                total: Wire::decode(r)?,
            },
            _ => return None,
        })
    }
}

/// The `HASCOSR1` surrogate-store payload: a snapshot count, then each
/// [`SurrogateSnapshot`] prefixed with its `u32` byte length.
pub(crate) struct SurrogateStore(pub(crate) Vec<SurrogateSnapshot>);

impl Wire for SurrogateStore {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.len().encode(out);
        for snap in &self.0 {
            let entry = to_bytes(snap);
            (entry.len() as u32).encode(out);
            out.extend_from_slice(&entry);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let count = usize::decode(r)?;
        let mut snaps = Vec::new();
        for _ in 0..count {
            let len = u32::decode(r)?;
            snaps.push(from_bytes(r.take(len as usize)?)?);
        }
        Some(SurrogateStore(snaps))
    }
}
