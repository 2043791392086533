//! What a run reports: end-to-end metrics from untraced passes, the
//! per-layer split from one traced pass, and the JSON result line.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The per-layer split of one traced pass. Every workload reports every
/// field; a layer a workload does not exercise reads 0.
///
/// The `*_s` fields listed in [`Layers::SELF_TIMES`] are disjoint self
/// times: together with `unattributed_s` they sum to `trace_pass_s`.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub engine_overhead_s: f64,
    pub partition_s: f64,
    pub partition_choices: f64,
    pub dse_optimizer_s: f64,
    pub dse_hw_evals: f64,
    pub dse_gp_fits: f64,
    pub dse_gp_fit_s: f64,
    pub dse_gp_predicts: f64,
    pub hw_eval_screen_s: f64,
    pub hw_eval_refine_s: f64,
    pub hw_eval_memo_hit_ratio: f64,
    pub hw_eval_analytic_evals: f64,
    pub hw_eval_surrogate_evals: f64,
    pub hw_eval_sim_evals: f64,
    pub hw_eval_sim_eval_s_mean: f64,
    pub staging_refined: f64,
    pub accel_price_calls: f64,
    pub accel_price_s: f64,
    pub sw_search_s: f64,
    pub sw_schedules_evaluated: f64,
    pub sw_final_s: f64,
    pub pool_batches: f64,
    pub pool_steals: f64,
    pub runtime_image_load_s: f64,
    pub runtime_image_save_s: f64,
    pub runtime_image_bytes: f64,
    pub baselines_s: f64,
    pub net_wire_bytes: f64,
    pub net_encode_s: f64,
    pub net_decode_s: f64,
    pub model_design_latency_ms_geomean: f64,
    pub model_codesign_gain: f64,
    pub model_constraints_met: f64,
    /// Wall time of the traced pass.
    pub trace_pass_s: f64,
    /// Wall time of the untraced pass run next to it.
    pub untraced_pass_s: f64,
}

impl Layers {
    /// The disjoint self times that, with `unattributed_s`, make up the
    /// traced pass.
    pub const SELF_TIMES: [&'static str; 13] = [
        "engine.overhead_s",
        "partition.s",
        "dse.optimizer_s",
        "hw_eval.screen_s",
        "hw_eval.refine_s",
        "accel.price_s",
        "sw.search_s",
        "sw.final_s",
        "runtime.image_load_s",
        "runtime.image_save_s",
        "baselines.s",
        "net.encode_s",
        "net.decode_s",
    ];

    /// Every per-layer metric, in a fixed order.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = vec![
            metric("engine.overhead_s", self.engine_overhead_s, "s"),
            metric("partition.s", self.partition_s, "s"),
            metric("partition.choices", self.partition_choices, "count"),
            metric("dse.optimizer_s", self.dse_optimizer_s, "s"),
            metric(
                "dse.optimizer_share",
                ratio(self.dse_optimizer_s, self.trace_pass_s),
                "ratio",
            ),
            metric("dse.hw_evals", self.dse_hw_evals, "count"),
            metric("dse.gp_fits", self.dse_gp_fits, "count"),
            metric("dse.gp_fit_s", self.dse_gp_fit_s, "s"),
            metric("dse.gp_predicts", self.dse_gp_predicts, "count"),
            metric("hw_eval.screen_s", self.hw_eval_screen_s, "s"),
            metric("hw_eval.refine_s", self.hw_eval_refine_s, "s"),
            metric(
                "hw_eval.memo_hit_ratio",
                self.hw_eval_memo_hit_ratio,
                "ratio",
            ),
            metric(
                "hw_eval.analytic.evals",
                self.hw_eval_analytic_evals,
                "count",
            ),
            metric(
                "hw_eval.surrogate.evals",
                self.hw_eval_surrogate_evals,
                "count",
            ),
            metric("hw_eval.sim.evals", self.hw_eval_sim_evals, "count"),
            metric("hw_eval.sim.eval_s_mean", self.hw_eval_sim_eval_s_mean, "s"),
            metric("staging.refined", self.staging_refined, "count"),
            metric("accel.price_calls", self.accel_price_calls, "count"),
            metric("accel.price_s", self.accel_price_s, "s"),
            metric("sw.search_s", self.sw_search_s, "s"),
            metric(
                "sw.schedules_evaluated",
                self.sw_schedules_evaluated,
                "count",
            ),
            metric("sw.final_s", self.sw_final_s, "s"),
            metric("pool.batches", self.pool_batches, "count"),
            metric("pool.steals", self.pool_steals, "count"),
            metric("runtime.image_load_s", self.runtime_image_load_s, "s"),
            metric("runtime.image_save_s", self.runtime_image_save_s, "s"),
            metric("runtime.image_bytes", self.runtime_image_bytes, "bytes"),
            metric("baselines.s", self.baselines_s, "s"),
            metric("net.wire_bytes", self.net_wire_bytes, "bytes"),
            metric("net.encode_s", self.net_encode_s, "s"),
            metric("net.decode_s", self.net_decode_s, "s"),
            metric(
                "model.design_latency_ms_geomean",
                self.model_design_latency_ms_geomean,
                "ms",
            ),
            metric("model.codesign_gain", self.model_codesign_gain, "ratio"),
            metric("model.constraints_met", self.model_constraints_met, "count"),
        ];
        let attributed = out
            .iter()
            .filter(|m| Self::SELF_TIMES.contains(&m.name))
            .fold(0.0, |acc, m| acc + m.value);
        out.push(metric(
            "unattributed_s",
            self.trace_pass_s - attributed,
            "s",
        ));
        out.push(metric("trace.pass_s", self.trace_pass_s, "s"));
        out.push(metric(
            "trace.overhead_ratio",
            ratio(self.trace_pass_s, self.untraced_pass_s),
            "ratio",
        ));
        out
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed ahead of the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The last line of standard output.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failures.len()
        )
    }
}

/// End-to-end metrics shared by every workload.
pub fn end_to_end(
    setup_s: &[f64],
    pass_s: &[f64],
    request_s: &[f64],
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    use crate::stats::{median, reportable_quantile};
    let setup = median(setup_s).unwrap_or(0.0);
    let pass = median(pass_s).unwrap_or(0.0);
    let p50 = reportable_quantile(request_s, 0.5).unwrap_or(f64::NAN);
    notes.push(format!(
        "setup_s        {setup:.6} s   (median of {} set-ups)",
        setup_s.len()
    ));
    let each: Vec<String> = pass_s.iter().map(|p| format!("{p:.3}")).collect();
    notes.push(format!(
        "pass_s         {pass:.4} s   (median of {} passes: {})",
        pass_s.len(),
        each.join(" ")
    ));
    notes.push(format!(
        "request_s_p50  {p50:.6} s   ({} requests)",
        request_s.len()
    ));
    match reportable_quantile(request_s, 0.9) {
        Some(p90) => notes.push(format!(
            "request_s_p90  {p90:.6} s   ({} requests)",
            request_s.len()
        )),
        None => notes.push(format!(
            "request_s_p90  not reported: {} requests leave fewer than 10 beyond it",
            request_s.len()
        )),
    }
    // Printed, not a metric: on t3-staged-warm the high-water mark
    // follows which request draws the largest job, so it moves by a
    // third from seed to seed.
    notes.push(format!(
        "peak_rss_mb    {:.1} MB  (VmHWM, set-up included; not a metric)",
        peak_rss_mb()
    ));
    vec![
        metric("setup_s", setup, "s"),
        metric("pass_s", pass, "s"),
        metric("request_s_p50", p50, "s"),
    ]
}

/// The process's resident-memory high-water mark (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
