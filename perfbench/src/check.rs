//! The correctness gate, applied to every result of every pass.

use accel_model::{AcceleratorConfig, CostBackend, Metrics};
use hasco::{Constraints, Solution};
use sw_opt::schedule::{Schedule, ScheduleContext};
use tensor_ir::workload::Workload;

/// Every modelled quantity is a finite, strictly positive number.
pub fn metrics_ok(m: &Metrics) -> bool {
    [
        m.latency_cycles,
        m.latency_ms,
        m.energy_uj,
        m.power_mw,
        m.area_mm2,
        m.throughput_mops,
        m.utilization,
    ]
    .iter()
    .all(|v| v.is_finite() && *v > 0.0)
}

fn bits(m: &Metrics) -> [u64; 7] {
    [
        m.latency_cycles.to_bits(),
        m.latency_ms.to_bits(),
        m.energy_uj.to_bits(),
        m.power_mw.to_bits(),
        m.area_mm2.to_bits(),
        m.throughput_mops.to_bits(),
        m.utilization.to_bits(),
    ]
}

/// Re-prices `schedule` through `sw_opt::lowering::evaluate` and checks
/// that it reproduces `reported` bit for bit.
pub fn reprices(
    schedule: &Schedule,
    workload: &Workload,
    cfg: &AcceleratorConfig,
    backend: &dyn CostBackend,
    reported: &Metrics,
) -> Result<(), String> {
    let ctx = ScheduleContext::new(workload, &cfg.intrinsic_comp())
        .map_err(|e| format!("{}: no schedule context: {e}", workload.name))?;
    let priced = sw_opt::lowering::evaluate(schedule, &ctx, cfg, backend)
        .map_err(|e| format!("{}: re-pricing failed: {e}", workload.name))?;
    if bits(&priced) != bits(reported) {
        return Err(format!(
            "{}: re-priced {priced:?} differs from reported {reported:?}",
            workload.name
        ));
    }
    Ok(())
}

/// Checks one co-design solution: every schedule re-prices to its
/// reported metrics at the final tier, every metric is finite and
/// positive, and `meets_constraints` agrees with the constraints.
pub fn solution(
    sol: &Solution,
    workloads: &[Workload],
    constraints: &Constraints,
    final_tier: &dyn CostBackend,
) -> Result<(), String> {
    if sol.per_workload.len() != workloads.len() {
        return Err(format!(
            "{} workload solutions for {} workloads",
            sol.per_workload.len(),
            workloads.len()
        ));
    }
    for (ws, w) in sol.per_workload.iter().zip(workloads) {
        if ws.workload != w.name {
            return Err(format!("solution for {} answers {}", w.name, ws.workload));
        }
        if !metrics_ok(&ws.metrics) {
            return Err(format!("{}: non-positive metrics {:?}", w.name, ws.metrics));
        }
        reprices(&ws.schedule, w, &sol.accelerator, final_tier, &ws.metrics)?;
    }
    if !metrics_ok(&sol.total) {
        return Err(format!("non-positive total {:?}", sol.total));
    }
    if sol.meets_constraints != constraints.satisfied_by(&sol.total) {
        return Err(format!(
            "meets_constraints = {} but the constraints say {}",
            sol.meets_constraints,
            constraints.satisfied_by(&sol.total)
        ));
    }
    Ok(())
}
