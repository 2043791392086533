//! The software-only mapping workload: every conv layer of ResNet-50,
//! MobileNet and Xception mapped onto the two fixed Table III hardware
//! families with `SoftwareExplorer::optimize` at the paper's
//! final-exploration options. No hardware exploration runs; a request
//! is one `optimize` call.

use std::sync::Arc;

use accel_model::backend::SurrogateBackend;
use accel_model::plan::ExecutionPlan;
use accel_model::{AcceleratorConfig, BackendKind, CostBackend, Metrics};
use hasco::CoDesignOptions;
use hasco_bench::common::{accel_64pe, gemmcore};
use hasco_net::wire;
use runtime::{Fingerprinter, Telemetry, WorkerPool};
use sw_opt::explorer::{ExplorerOptions, OptimizedSoftware, SoftwareExplorer};
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::suites;
use tensor_ir::workload::Workload;

use crate::report::{self, Layers, Report};
use crate::stats::geomean;
use crate::trace::{secs, timed, Clock, Tracer};
use crate::Args;

/// A pricing tier that records every call as an `accel.price` span and
/// otherwise behaves exactly like the tier it wraps.
#[derive(Debug)]
struct TimedBackend {
    inner: Arc<dyn CostBackend>,
    tracer: Arc<Tracer>,
}

impl CostBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn evaluate(&self, cfg: &AcceleratorConfig, plan: &ExecutionPlan) -> Metrics {
        self.tracer
            .time("accel.price", || self.inner.evaluate(cfg, plan))
    }

    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        self.inner.fingerprint_into(fp);
    }

    fn as_surrogate(&self) -> Option<&SurrogateBackend> {
        self.inner.as_surrogate()
    }
}

struct Setup {
    layers: Vec<Workload>,
    targets: Vec<AcceleratorConfig>,
    options: ExplorerOptions,
    seed: u64,
}

fn setup(seed: u64) -> Setup {
    let mut layers = suites::resnet50_convs();
    layers.extend(suites::mobilenet_convs());
    layers.extend(suites::xception_convs());
    Setup {
        layers,
        // The §VII-D GEMMCore and a 64-PE CONV2D core.
        targets: vec![gemmcore(), accel_64pe(IntrinsicKind::Conv2d)],
        options: CoDesignOptions::paper(seed).sw_final,
        seed,
    }
}

struct Pass {
    wall_s: f64,
    latencies: Vec<f64>,
    /// Per request: the schedule, metrics and evaluated count as wire
    /// bytes, with the mapping itself, or why it failed.
    results: Vec<Result<(Vec<u8>, OptimizedSoftware), String>>,
    tracer: Option<Arc<Tracer>>,
    telemetry: Telemetry,
}

fn pass(s: &Setup, traced: bool) -> Pass {
    let clock = Clock::new();
    let tracer = traced.then(|| Arc::new(Tracer::new(clock)));
    let telemetry = if traced {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let start = clock.ns();
    let analytic = BackendKind::Analytic.build();
    let backend: Arc<dyn CostBackend> = match &tracer {
        Some(t) => Arc::new(TimedBackend {
            inner: analytic,
            tracer: Arc::clone(t),
        }),
        None => analytic,
    };
    let explorer = SoftwareExplorer::new(s.seed)
        .with_workers(WorkerPool::new(crate::threads()).with_telemetry(telemetry.clone()))
        .with_backend(backend);
    let mut latencies = Vec::new();
    let mut results = Vec::new();
    for cfg in &s.targets {
        for w in &s.layers {
            let begin = clock.ns();
            let out = timed(tracer.as_deref(), "sw.optimize", || {
                explorer.optimize(w, cfg, &s.options)
            });
            latencies.push(secs(begin, clock.ns()));
            results.push(out.map_err(|e| format!("{} on {}: {e}", w.name, cfg.name)));
        }
    }
    let wall_s = secs(start, clock.ns());
    let results = results
        .into_iter()
        .map(|r| {
            r.map(|o| {
                let mut bytes = wire::to_bytes(&o.schedule);
                bytes.extend(wire::to_bytes(&o.metrics));
                bytes.extend(wire::to_bytes(&o.evaluated));
                (bytes, o)
            })
        })
        .collect();
    Pass {
        wall_s,
        latencies,
        results,
        tracer,
        telemetry,
    }
}

/// Applies the correctness gate: each schedule re-prices to its metrics
/// on the analytic tier, every metric is finite and positive, and every
/// pass reproduces the first bit for bit.
fn check(s: &Setup, p: &Pass, reference: Option<&[Option<Vec<u8>>]>) -> Vec<String> {
    let analytic = BackendKind::Analytic.build();
    let requests = s
        .targets
        .iter()
        .flat_map(|cfg| s.layers.iter().map(move |w| (cfg, w)));
    let mut failures = Vec::new();
    for (i, ((cfg, w), result)) in requests.zip(&p.results).enumerate() {
        let verdict = result
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|(bytes, o)| {
                if !crate::check::metrics_ok(&o.metrics) {
                    return Err(format!("{} on {}: non-positive metrics", w.name, cfg.name));
                }
                crate::check::reprices(&o.schedule, w, cfg, analytic.as_ref(), &o.metrics)?;
                match reference.and_then(|r| r.get(i)) {
                    Some(Some(expected)) if expected != bytes => Err(format!(
                        "{} on {}: result differs from the first pass",
                        w.name, cfg.name
                    )),
                    _ => Ok(()),
                }
            });
        if let Err(e) = verdict {
            failures.push(e);
        }
    }
    failures
}

fn layers(traced: &Pass, untraced: &Pass) -> Layers {
    let mut l = model(traced);
    if let Some(t) = &traced.tracer {
        l.accel_price_calls = t.count("accel.price") as f64;
        l.accel_price_s = t.covered_s("accel.price");
        l.sw_search_s = t.total_s("sw.optimize") - l.accel_price_s;
    }
    l.sw_schedules_evaluated = traced
        .results
        .iter()
        .flatten()
        .fold(0.0, |acc, (_, o)| acc + o.evaluated as f64);
    if let Some(snap) = traced.telemetry.snapshot() {
        l.pool_batches = snap.pool.batches as f64;
        l.pool_steals = snap.pool.steals as f64;
    }
    l.trace_pass_s = traced.wall_s;
    l.untraced_pass_s = untraced.wall_s;
    l
}

fn model(p: &Pass) -> Layers {
    let latencies: Vec<f64> = p
        .results
        .iter()
        .flatten()
        .map(|(_, o)| o.metrics.latency_ms)
        .collect();
    Layers {
        model_design_latency_ms_geomean: geomean(&latencies),
        ..Layers::default()
    }
}

/// Set-ups per run, reported as their median.
const SETUPS: usize = 100;

pub fn run(args: &Args) -> Result<Report, String> {
    let (s, setup_s) =
        crate::repeat_setup(if args.trace { 1 } else { SETUPS }, || Ok(setup(args.seed)))?;
    let mut report = Report::default();
    report.notes.push(format!(
        "{} conv layers x {} fixed accelerators per pass",
        s.layers.len(),
        s.targets.len()
    ));
    // Every pass is checked as soon as it ends and then dropped; the
    // first pass's results are the reference later passes must match.
    let mut reference: Option<Vec<Option<Vec<u8>>>> = None;
    let mut absorb = |p: &Pass, report: &mut Report| {
        report.attempted += p.results.len() as u64;
        report.failures.extend(check(&s, p, reference.as_deref()));
        if reference.is_none() {
            reference = Some(
                p.results
                    .iter()
                    .map(|r| r.as_ref().ok().map(|(bytes, _)| bytes.clone()))
                    .collect(),
            );
            report.notes.push(format!(
                "modelled, not validated against hardware: mapped-layer latency geomean {:.6} ms",
                model(p).model_design_latency_ms_geomean
            ));
        }
    };
    if args.trace {
        let untraced = pass(&s, false);
        absorb(&untraced, &mut report);
        let traced = pass(&s, true);
        absorb(&traced, &mut report);
        report.metrics = layers(&traced, &untraced).metrics();
    } else {
        // Two passes at least: a single pass's wall time carries the
        // host's bursts whole.
        let timings = crate::measure(args.seconds, 2, || {
            let p = pass(&s, false);
            absorb(&p, &mut report);
            (p.wall_s, p.latencies)
        });
        let pass_s: Vec<f64> = timings.iter().map(|t| t.0).collect();
        let request_s: Vec<f64> = timings.iter().flat_map(|t| t.1.clone()).collect();
        report.metrics = report::end_to_end(&setup_s, &pass_s, &request_s, &mut report.notes);
    }
    Ok(report)
}
