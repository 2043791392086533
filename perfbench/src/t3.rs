//! The Table III co-design workloads.
//!
//! One pass submits the whole request matrix — 2 power scenarios × 3
//! CNNs × {GEMMCore, ConvCore} — to a fresh engine with one job slot and
//! every core per job, waits for the jobs in order, prices the AutoTVM
//! and HLS baseline rows, and round-trips every request and solution
//! through the wire codec. A request's latency is the interval between
//! successive completions: its service time on the slot.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use accel_model::tech::TechParams;
use accel_model::{AcceleratorConfig, BackendKind, CostBackend, CostModel, Metrics};
use baselines::{AutoTvm, HlsCore};
use hasco::{
    CoDesignRequest, Constraints, Engine, EngineConfig, GenerationMethod, HascoError,
    InputDescription, JobHandle, RunEvent, Solution,
};
use hasco_bench::common::{self, subsample};
use hasco_bench::Scale;
use hasco_net::wire;
use hw_gen::GemminiGenerator;
use runtime::{Telemetry, TelemetrySnapshot};
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::suites;
use tensor_ir::workload::{TensorApp, Workload};

use crate::report::{self, Layers, Report};
use crate::sample::request_seeds;
use crate::stats::geomean;
use crate::trace::{secs, timed, Clock, Tracer};
use crate::Args;

/// Which Table III campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Analytic screen, no staging, fresh engine and empty store per pass.
    AnalyticCold,
    /// Surrogate screen with adaptive trace-sim refinement, each pass
    /// starting from the persisted images of one cold campaign.
    StagedWarm,
}

/// Conv layers per CNN, as in `table3 --paper`: `subsample(layers, 6)`
/// for every seed. Letting the seed pick the layers as well was tried:
/// over five seeds it raised the spread of `pass_s` from about 5% to
/// 10-17%, because a job's acquisition cost follows its layers'
/// objective landscape.
const LAYERS: usize = 6;

/// AutoTVM's tuning seed in the baseline rows, as in `table3`.
const AUTOTVM_SEED: u64 = 3;

/// One (scenario, CNN) row: requests `2r` (GEMMCore) and `2r + 1`
/// (ConvCore) plus its baselines.
#[derive(Debug, Clone)]
struct Row {
    cloud: bool,
    tech: TechParams,
    workloads: Vec<Workload>,
}

/// The persisted warm state a staged pass starts from.
#[derive(Debug, Clone)]
struct Images {
    memo: Vec<u8>,
    surrogate: Vec<u8>,
}

#[derive(Debug)]
struct Setup {
    requests: Vec<CoDesignRequest>,
    rows: Vec<Row>,
    images: Option<Images>,
}

/// The request matrix, built exactly as `table3` builds it.
fn matrix(seed: u64) -> (Vec<CoDesignRequest>, Vec<Row>) {
    let apps = [
        ("resnet", subsample(&suites::resnet50_convs(), LAYERS)),
        ("mobilenet", subsample(&suites::mobilenet_convs(), LAYERS)),
        ("xception", subsample(&suites::xception_convs(), LAYERS)),
    ];
    let (tech_name, tech) = ("28nm", TechParams::default());
    let mut seeds = request_seeds(seed, 2 * 2 * apps.len()).into_iter();
    let mut requests = Vec::new();
    let mut rows = Vec::new();
    for (scenario, power_cap, cloud) in [("edge", 2_000.0, false), ("cloud", 20_000.0, true)] {
        for (app_name, workloads) in &apps {
            let app = TensorApp::new(*app_name, workloads.clone());
            let constraints = Constraints {
                max_power_mw: Some(power_cap),
                ..Constraints::default()
            };
            for (system, method) in [
                ("gemm", GenerationMethod::Gemmini),
                ("conv", GenerationMethod::Chisel(IntrinsicKind::Conv2d)),
            ] {
                let input = InputDescription {
                    app: app.clone(),
                    method,
                    constraints,
                };
                let request_seed = seeds.next().expect("one seed per request");
                let opts = common::codesign_options_at(Scale::Paper, request_seed, &tech);
                requests.push(
                    CoDesignRequest::new(input, opts)
                        .with_label(format!("{scenario}/{tech_name}/{app_name}/{system}")),
                );
            }
            rows.push(Row {
                cloud,
                tech: tech.clone(),
                workloads: workloads.clone(),
            });
        }
    }
    (requests, rows)
}

fn engine_config(images: Option<&(PathBuf, PathBuf)>, telemetry: Telemetry) -> EngineConfig {
    let config = EngineConfig::default()
        .with_job_slots(1)
        .with_metrics(telemetry);
    match images {
        Some((memo, surrogate)) => config.with_cache_path(memo).with_surrogate_store(surrogate),
        None => config,
    }
}

/// Writes the warm images for the staged workload: one cold campaign
/// over the same matrix, persisted. The campaign runs `nproc` job slots
/// of one thread each, which keeps every core busy through the serial
/// acquisition steps; thread and slot counts never change results.
fn warm_images(requests: &[CoDesignRequest], work: &Path) -> Result<Images, String> {
    let paths = image_paths(&work.join("setup"))?;
    let engine = Engine::new(
        engine_config(Some(&paths), Telemetry::disabled()).with_job_slots(crate::threads()),
    );
    let single_threaded = requests
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.options.threads = 1;
            r
        })
        .collect();
    engine
        .campaign(single_threaded)
        .map_err(|e| format!("set-up campaign: {e}"))?;
    engine
        .persist()
        .map_err(|e| format!("set-up persist: {e}"))?;
    drop(engine);
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
    Ok(Images {
        memo: read(&paths.0)?,
        surrogate: read(&paths.1)?,
    })
}

/// Fresh image paths under `dir` (created, emptied of earlier images).
fn image_paths(dir: &Path) -> Result<(PathBuf, PathBuf), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let paths = (dir.join("memo.bin"), dir.join("surrogate.bin"));
    for p in [&paths.0, &paths.1] {
        let _ = std::fs::remove_file(p);
    }
    Ok(paths)
}

/// Everything one pass produced, plus its timings.
struct Pass {
    wall_s: f64,
    latencies: Vec<f64>,
    /// Per checked item (requests, then baseline rows): its result's
    /// wire bytes, or why it failed. Solutions are encoded with the
    /// timing-dependent `RunStats.steals` zeroed.
    items: Vec<Result<Vec<u8>, String>>,
    solutions: Vec<Option<Solution>>,
    baselines: Vec<Option<(Metrics, Metrics)>>,
    handles: Vec<Option<JobHandle>>,
    /// The staged pass's `Engine::persist` outcome (`None` when cold).
    persisted: Option<Result<(), String>>,
    snapshot: Option<TelemetrySnapshot>,
    tracer: Option<Tracer>,
    image_bytes: u64,
    wire_bytes: u64,
}

fn pass(setup: &Setup, work: &Path, traced: bool) -> Result<Pass, String> {
    let images = match &setup.images {
        Some(img) => {
            let paths = image_paths(&work.join("pass"))?;
            std::fs::write(&paths.0, &img.memo).map_err(|e| e.to_string())?;
            std::fs::write(&paths.1, &img.surrogate).map_err(|e| e.to_string())?;
            Some(paths)
        }
        None => None,
    };
    let config = engine_config(
        images.as_ref(),
        if traced {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        },
    );
    let requests = setup.requests.clone();
    let clock = Clock::new();
    let tracer = traced.then(|| Tracer::new(clock));
    let t = tracer.as_ref();

    let start = clock.ns();
    let engine = timed(t, "runtime.image_load", || Engine::new(config));
    let mut prev = clock.ns();
    let submitted: Vec<Result<JobHandle, HascoError>> = requests
        .into_iter()
        .map(|r| timed(t, "engine.submit", || engine.submit(r)))
        .collect();
    let mut latencies = Vec::with_capacity(submitted.len());
    let mut outcomes = Vec::with_capacity(submitted.len());
    for handle in submitted {
        let outcome = handle.and_then(|h| {
            let solution = timed(t, "engine.wait", || h.wait())?;
            Ok((h, solution))
        });
        let now = clock.ns();
        latencies.push(secs(prev, now));
        prev = now;
        outcomes.push(outcome);
    }
    let persisted = images.as_ref().map(|_| {
        timed(t, "runtime.image_save", || engine.persist())
            .map(|_| ())
            .map_err(|e| format!("persist: {e}"))
    });
    let snapshot = engine.metrics();
    timed(t, "engine.drop", || drop(engine));

    let mut handles = Vec::with_capacity(outcomes.len());
    let mut solutions = Vec::with_capacity(outcomes.len());
    let mut items: Vec<Result<Vec<u8>, String>> = Vec::new();
    for (outcome, request) in outcomes.into_iter().zip(&setup.requests) {
        match outcome {
            Ok((h, mut solution)) => {
                solution.stats.steals = 0;
                handles.push(Some(h));
                solutions.push(Some(solution));
                items.push(Ok(Vec::new()));
            }
            Err(e) => {
                handles.push(None);
                solutions.push(None);
                items.push(Err(format!("{}: {e}", request.label)));
            }
        }
    }

    let mut baselines = Vec::with_capacity(setup.rows.len());
    for (r, row) in setup.rows.iter().enumerate() {
        let result = match &solutions[2 * r + 1] {
            Some(conv) => timed(t, "baselines", || baseline_row(row, &conv.accelerator)),
            None => Err("no ConvCore solution for the HLS row".to_string()),
        };
        match result {
            Ok(pair) => {
                let mut bytes = wire::to_bytes(&pair.0);
                bytes.extend(wire::to_bytes(&pair.1));
                items.push(Ok(bytes));
                baselines.push(Some(pair));
            }
            Err(e) => {
                items.push(Err(format!("baseline row {r}: {e}")));
                baselines.push(None);
            }
        }
    }

    // The wire round trip a served request and its solution would take.
    let mut wire_bytes = 0u64;
    for (i, request) in setup.requests.iter().enumerate() {
        let bytes = timed(t, "net.encode", || wire::to_bytes(request));
        let back = timed(t, "net.decode", || {
            wire::from_bytes::<CoDesignRequest>(&bytes)
        });
        wire_bytes += bytes.len() as u64;
        if back.map(|b| b.fingerprint()) != Some(request.fingerprint()) {
            items[i] = Err(format!("{}: request wire round trip", request.label));
        }
        let Some(solution) = &solutions[i] else {
            continue;
        };
        let bytes = timed(t, "net.encode", || wire::to_bytes(solution));
        let back = timed(t, "net.decode", || wire::from_bytes::<Solution>(&bytes));
        wire_bytes += bytes.len() as u64;
        if back.map(|b| wire::to_bytes(&b)).as_ref() != Some(&bytes) {
            items[i] = Err(format!("{}: solution wire round trip", request.label));
        } else if items[i].is_ok() {
            items[i] = Ok(bytes);
        }
    }
    let wall_s = secs(start, clock.ns());

    let image_bytes = images.as_ref().map_or(0, |(memo, surrogate)| {
        [memo, surrogate]
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    });
    Ok(Pass {
        wall_s,
        latencies,
        items,
        solutions,
        baselines,
        handles,
        persisted,
        snapshot,
        tracer,
        image_bytes,
        wire_bytes,
    })
}

/// The decoupled baseline (default Gemmini + AutoTVM) and the HLS core
/// on the ConvCore hardware, priced as `table3` prices them.
fn baseline_row(row: &Row, conv: &AcceleratorConfig) -> Result<(Metrics, Metrics), String> {
    let base_cfg = GemminiGenerator::baseline(row.cloud);
    let tvm = AutoTvm::new(AUTOTVM_SEED).with_model(CostModel::new(row.tech.clone()));
    let parts = row
        .workloads
        .iter()
        .map(|w| tvm.best_metrics(w, &base_cfg))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("autotvm: {e}"))?;
    let hls = HlsCore::synthesize(&row.workloads, conv)
        .map_err(|e| format!("hls synthesis: {e}"))?
        .with_model(CostModel::new(row.tech.clone()));
    let hls_m = hls
        .run_app(&row.workloads)
        .map_err(|e| format!("hls: {e}"))?;
    Ok((Metrics::sequential(&parts), hls_m))
}

/// The tier `finalize` prices the returned schedules with.
fn final_tier(request: &CoDesignRequest) -> Arc<dyn CostBackend> {
    let o = &request.options;
    let kind = if o.refine_top_k > 0 {
        o.refine_backend
    } else {
        o.backend
    };
    kind.build_with(o.tech.clone())
}

/// Applies the correctness gate to one pass; returns its failures.
/// `reference` holds the first pass's items, which every later pass
/// must reproduce bit for bit.
fn check(setup: &Setup, p: &Pass, reference: Option<&[Result<Vec<u8>, String>]>) -> Vec<String> {
    let mut failures: Vec<String> = p
        .persisted
        .clone()
        .and_then(Result::err)
        .into_iter()
        .collect();
    for (i, item) in p.items.iter().enumerate() {
        let verdict = match item {
            Err(e) => Err(e.clone()),
            Ok(bytes) => {
                let own = if let (Some(sol), Some(req)) = (
                    p.solutions.get(i).and_then(Option::as_ref),
                    setup.requests.get(i),
                ) {
                    crate::check::solution(
                        sol,
                        &req.input.app.workloads,
                        &req.input.constraints,
                        final_tier(req).as_ref(),
                    )
                    .map_err(|e| format!("{}: {e}", req.label))
                } else {
                    let r = i - setup.requests.len();
                    match &p.baselines[r] {
                        Some((base, hls))
                            if crate::check::metrics_ok(base) && crate::check::metrics_ok(hls) =>
                        {
                            Ok(())
                        }
                        _ => Err(format!("baseline row {r}: non-positive metrics")),
                    }
                };
                own.and_then(|()| match reference.and_then(|r| r.get(i)) {
                    Some(Ok(expected)) if expected != bytes => {
                        Err(format!("item {i}: result differs from the first pass"))
                    }
                    _ => Ok(()),
                })
            }
        };
        if let Err(e) = verdict {
            failures.push(e);
        }
    }
    failures
}

fn span_s(snap: &TelemetrySnapshot, path: &str) -> f64 {
    snap.spans
        .iter()
        .find(|s| s.path == path)
        .map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

/// The per-layer split of a traced pass.
fn layers(setup: &Setup, traced: &Pass, untraced: &Pass) -> Layers {
    let mut l = model(setup, traced);
    let (Some(t), Some(snap)) = (&traced.tracer, &traced.snapshot) else {
        return l;
    };
    let job = span_s(snap, "job");
    let screen = span_s(snap, "job/hw_dse/screen");
    let refine = span_s(snap, "job/hw_dse/refine");
    let requests = t
        .extent("engine.submit")
        .zip(t.extent("engine.wait"))
        .map_or(0.0, |((start, _), (_, end))| secs(start, end));
    l.engine_overhead_s = requests - job + t.total_s("engine.drop");
    l.partition_s = span_s(snap, "job/partition");
    l.dse_optimizer_s = span_s(snap, "job/hw_dse") + span_s(snap, "job/tuning") - screen - refine;
    l.hw_eval_screen_s = screen;
    l.hw_eval_refine_s = refine;
    l.sw_final_s = span_s(snap, "job/finalize");
    l.dse_gp_fits = snap.gp.fits as f64;
    l.dse_gp_fit_s = snap.gp.fit_ns.sum_ns as f64 / 1e9;
    l.dse_gp_predicts = snap.gp.predicts as f64;
    for tier in &snap.tiers {
        match tier.name.as_str() {
            "analytic" => l.hw_eval_analytic_evals = tier.evals as f64,
            "surrogate" => l.hw_eval_surrogate_evals = tier.evals as f64,
            "sim" => {
                l.hw_eval_sim_evals = tier.evals as f64;
                l.hw_eval_sim_eval_s_mean = tier.latency_ns.mean_ns() as f64 / 1e9;
            }
            _ => {}
        }
    }
    l.pool_batches = snap.pool.batches as f64;
    l.pool_steals = snap.pool.steals as f64;
    let solutions: Vec<&Solution> = traced.solutions.iter().flatten().collect();
    l.dse_hw_evals = solutions
        .iter()
        .fold(0.0, |acc, s| acc + s.stats.hw_evaluations as f64);
    let (hits, misses) = solutions.iter().fold((0u64, 0u64), |(h, m), s| {
        (h + s.stats.cache.hits, m + s.stats.cache.misses)
    });
    l.hw_eval_memo_hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    for event in traced.handles.iter().flatten().flat_map(JobHandle::events) {
        match event {
            RunEvent::Partitioned { choices, .. } => l.partition_choices += choices as f64,
            RunEvent::Refined { survivors, .. } => l.staging_refined += survivors as f64,
            _ => {}
        }
    }
    l.runtime_image_load_s = t.total_s("runtime.image_load");
    l.runtime_image_save_s = t.total_s("runtime.image_save");
    l.runtime_image_bytes = traced.image_bytes as f64;
    l.baselines_s = t.total_s("baselines");
    l.net_wire_bytes = traced.wire_bytes as f64;
    l.net_encode_s = t.total_s("net.encode");
    l.net_decode_s = t.total_s("net.decode");
    l.trace_pass_s = traced.wall_s;
    l.untraced_pass_s = untraced.wall_s;
    l
}

/// The modelled outputs (simulated time, not host time).
fn model(setup: &Setup, p: &Pass) -> Layers {
    let solutions: Vec<&Solution> = p.solutions.iter().flatten().collect();
    let latencies: Vec<f64> = solutions.iter().map(|s| s.total.latency_ms).collect();
    let gains: Vec<f64> = (0..setup.rows.len())
        .filter_map(|r| {
            let gemm = p.solutions[2 * r].as_ref()?;
            let (base, _) = p.baselines[r].as_ref()?;
            Some(base.latency_ms / gemm.total.latency_ms)
        })
        .collect();
    Layers {
        model_design_latency_ms_geomean: geomean(&latencies),
        model_codesign_gain: geomean(&gains),
        model_constraints_met: solutions.iter().filter(|s| s.meets_constraints).count() as f64,
        ..Layers::default()
    }
}

fn hls_gap(setup: &Setup, p: &Pass) -> f64 {
    let gaps: Vec<f64> = (0..setup.rows.len())
        .filter_map(|r| {
            let conv = p.solutions[2 * r + 1].as_ref()?;
            let (_, hls) = p.baselines[r].as_ref()?;
            Some(hls.latency_ms / conv.total.latency_ms)
        })
        .collect();
    geomean(&gaps)
}

/// Set-ups per run, reported as their median.
fn setups(mode: Mode) -> usize {
    match mode {
        Mode::AnalyticCold => 100,
        Mode::StagedWarm => 2,
    }
}

pub fn run(mode: Mode, args: &Args) -> Result<Report, String> {
    common::set_threads(crate::threads());
    if mode == Mode::StagedWarm {
        common::set_backend(BackendKind::Surrogate);
        common::set_adaptive(true);
        common::set_refine_top_k(4);
    }
    let work = args.work_dir.as_path();
    let (setup, setup_s) = crate::repeat_setup(if args.trace { 1 } else { setups(mode) }, || {
        let (requests, rows) = matrix(args.seed);
        let images = match mode {
            Mode::AnalyticCold => None,
            Mode::StagedWarm => Some(warm_images(&requests, work)?),
        };
        Ok(Setup {
            requests,
            rows,
            images,
        })
    })?;

    // Every pass is checked as soon as it ends and then dropped; the
    // first pass's results are the reference later passes must match.
    let mut report = Report::default();
    let mut reference: Option<Vec<Result<Vec<u8>, String>>> = None;
    let mut absorb = |p: &Pass, report: &mut Report| {
        report.attempted += p.items.len() as u64 + u64::from(p.persisted.is_some());
        report
            .failures
            .extend(check(&setup, p, reference.as_deref()));
        if reference.is_none() {
            reference = Some(p.items.clone());
            report.notes.push(model_note(&setup, p));
        }
    };
    if args.trace {
        let untraced = pass(&setup, work, false)?;
        absorb(&untraced, &mut report);
        let traced = pass(&setup, work, true)?;
        absorb(&traced, &mut report);
        report.metrics = layers(&setup, &traced, &untraced).metrics();
    } else {
        // Two passes at least, so the request median has ten samples
        // beyond it.
        let timings = crate::measure(args.seconds, 2, || {
            let p = pass(&setup, work, false)?;
            absorb(&p, &mut report);
            Ok::<_, String>((p.wall_s, p.latencies))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let pass_s: Vec<f64> = timings.iter().map(|t| t.0).collect();
        let request_s: Vec<f64> = timings.iter().flat_map(|t| t.1.clone()).collect();
        report.metrics = report::end_to_end(&setup_s, &pass_s, &request_s, &mut report.notes);
    }
    Ok(report)
}

/// The modelled readouts, labelled as such, with the known deviations.
fn model_note(setup: &Setup, p: &Pass) -> String {
    let m = model(setup, p);
    format!(
        "modelled, not validated against hardware: design latency geomean {:.4} ms, \
         co-design gain {:.3}x (paper 1.25-1.44x), HLS gap {:.3}x (paper 1.6-2.2x), \
         {} of {} designs meet their constraints\n\
         known deviations (ROADMAP): co-design gain 2.95x and HLS gap 23.8x at the default seed",
        m.model_design_latency_ms_geomean,
        m.model_codesign_gain,
        hls_gap(setup, p),
        m.model_constraints_met,
        setup.requests.len()
    )
}
