//! Hot-path criterion benches: the paper's co-design loop leans on the
//! surrogate being cheap, so this suite times exactly the paths the
//! telemetry (PR 6) exposed as hot — GP fit/observe/predict, the
//! trace-sim staged-plan recurrence, the memo cache under contention,
//! steal-heavy staged pool batches, the hypervolume call inside
//! MOBO's EHVI acquisition, the software explorer's DQN replay
//! training and one whole software exploration — and emits a versioned
//! `BENCH_hotpath.json` at the repo root so the perf trajectory
//! accumulates alongside `BENCH_table3.json`.
//!
//! Custom `main` (no `criterion_main!`): after the runs it derives the
//! headline speedups from the recorded medians:
//!
//! * `gp_observe_200_vs_scratch` — appending the 200th observation via
//!   the incremental trainer (factor extension, O(n²)) vs refitting from
//!   scratch (O(n³)); the acceptance bar is ≥ 5×.
//! * `sim_staged_vs_program` — streaming a plan through
//!   `TraceSimulator::run_plan_cycles` vs materializing the `Program`
//!   and replaying it.
//!
//! `--quick` shrinks sample counts and workload sizes for CI smoke runs.

use criterion::{black_box, Criterion};

use accel_model::arch::AcceleratorConfig;
use accel_model::plan::{ExecutionPlan, TensorTraffic};
use accel_model::sim::{program_from_plan, TraceSimulator};
use dse::gp::{GaussianProcess, IncrementalGp, Posterior, PredictScratch};
use dse::hypervolume::{hypervolume_with, HvScratch};
use hasco::CoDesignOptions;
use hasco_bench::common::gemmcore;
use runtime::{MemoCache, WorkerPool};
use sw_opt::explorer::SoftwareExplorer;
use sw_opt::qlearn::QLearner;
use sw_opt::schedule::{MAX_DIMS, NUM_REVISIONS};
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::suites;

/// Deterministic values in [0, 1) from xorshift64*: cheap, and good
/// enough for bench data.
fn unit_stream(mut seed: u64) -> impl FnMut() -> f64 {
    move || {
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        (seed.wrapping_mul(0x2545f4914f6cdd1d) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Deterministic training rows shaped like the surrogate's feature
/// vectors (8 dims in [0, 1]) with a smooth log-ratio-like target.
fn gp_rows(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut unit = unit_stream(0x2545f4914f6cdd1d);
    let xs: Vec<Vec<f64>> = (0..n).map(|_| (0..8).map(|_| unit()).collect()).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 0.3 * (x[0] * 4.0).sin() + 0.2 * x[3] - 0.1 * x[6] * x[7])
        .collect();
    (xs, ys)
}

fn bench_gp(c: &mut Criterion) {
    let (xs, ys) = gp_rows(200);
    for &n in &[50usize, 100, 200] {
        c.bench_function(&format!("gp/fit_scratch/n{n}"), |b| {
            b.iter(|| black_box(GaussianProcess::fit(&xs[..n], &ys[..n])))
        });
        // The incremental observe path: the trainer already holds n−1
        // rows with maintained factors; appending row n extends each
        // factor and re-selects. The per-iteration clone restores the
        // pre-append state (it is O(n²) memcpy, same order as the work
        // being measured, so the ≥5× headline survives it).
        let mut warm = IncrementalGp::new();
        for (x, y) in xs[..n - 1].iter().zip(&ys[..n - 1]) {
            warm.push(x.clone(), *y);
        }
        warm.refresh().expect("warm trainer fits");
        c.bench_function(&format!("gp/observe_incremental/n{n}"), |b| {
            b.iter(|| {
                let mut inc = warm.clone();
                inc.push(xs[n - 1].clone(), ys[n - 1]);
                black_box(inc.model())
            })
        });
    }
    let gp = GaussianProcess::fit(&xs, &ys).expect("fit succeeds");
    let mut scratch = PredictScratch::default();
    let probe: Vec<f64> = (0..8).map(|i| i as f64 / 7.0).collect();
    c.bench_function("gp/predict/n200", |b| {
        b.iter(|| black_box(gp.predict_with(black_box(&probe), &mut scratch)))
    });
    let batch: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            (0..8)
                .map(|d| ((i * 13 + d * 7) % 97) as f64 / 96.0)
                .collect()
        })
        .collect();
    let mut out: Vec<Posterior> = Vec::new();
    c.bench_function("gp/predict_many_64/n200", |b| {
        b.iter(|| {
            gp.predict_many(black_box(&batch), &mut out);
            black_box(out.len())
        })
    });
}

/// One EHVI sample's hypervolume call: a 3-objective front shaped like
/// table3's (10 mutually non-dominated points — the 90th-percentile front
/// size of a `table3 --paper` run — in MOBO's normalized unit cube,
/// reference 1.1) plus one non-dominated sample in the last row, through
/// a reused scratch as the acquisition loop holds it.
fn bench_hypervolume(c: &mut Criterion) {
    let mut augmented: Vec<Vec<f64>> = (0..10)
        .map(|i| {
            // On the plane x + y + 2z = 2, so no point dominates another.
            let x = i as f64 / 9.0;
            let y = (1.0 - x) * ((i as f64 * 0.618_034) % 1.0);
            vec![x, y, 1.0 - 0.5 * (x + y)]
        })
        .collect();
    augmented.push(vec![0.4, 0.3, 0.6]);
    let reference = [1.1; 3];
    let mut scratch = HvScratch::default();
    c.bench_function("hv/augmented_3d", |b| {
        b.iter(|| {
            black_box(hypervolume_with(
                black_box(&augmented),
                &reference,
                &mut scratch,
            ))
        })
    });
}

/// One `QLearner::observe` as the software explorer makes it: the
/// paper's 18 → 48 → 48 → 48 → 26 network, a full 512-transition replay
/// buffer, and a 16-step replay mini-batch (a TD step each).
fn bench_qlearn(c: &mut Criterion) {
    let mut unit = unit_stream(0x9e37_79b9_7f4a_7c15);
    let mut features = move || -> Vec<f64> { (0..2 * MAX_DIMS + 2).map(|_| unit()).collect() };
    let mut q = QLearner::new(7);
    for i in 0..512 {
        q.observe(features(), i % NUM_REVISIONS, 0.1, features());
    }
    let (state, next) = (features(), features());
    c.bench_function("qlearn/observe_replay16", |b| {
        b.iter(|| q.observe(state.clone(), 3, 0.25, next.clone()))
    });
}

/// One `SoftwareExplorer::optimize` as perfbench's sw-map requests it: a
/// ResNet-50 conv on the §VII-D GEMMCore at the paper's final-exploration
/// options, with a 2-thread pool (which the analytic tier leaves idle:
/// it prices its batches inline).
fn bench_explorer(c: &mut Criterion) {
    let workload = suites::resnet50_convs()
        .into_iter()
        .find(|w| w.name == "resnet_conv3_0_b")
        .expect("ResNet-50 has conv3_0_b");
    let cfg = gemmcore();
    let opts = CoDesignOptions::paper(3).sw_final;
    let explorer = SoftwareExplorer::new(3).with_workers(WorkerPool::new(2));
    c.bench_function("sw/explore_paper_2t", |b| {
        b.iter(|| {
            explorer
                .optimize(black_box(&workload), &cfg, &opts)
                .expect("the GEMMCore maps every ResNet-50 conv")
                .evaluated
        })
    });
}

/// A staged plan shaped like the refinement tier's work: mixed DMA and
/// compute across 50 pipeline stages, double buffered.
fn staged_plan() -> ExecutionPlan {
    let mut p = ExecutionPlan::compute_only(4_000_000, 4_200_000, 1000);
    p.dram_reads.push(TensorTraffic::new("A", 512_000, 128));
    p.dram_reads.push(TensorTraffic::new("B", 512_000, 128));
    p.dram_writes.push(TensorTraffic::new("C", 128_000, 128));
    p.spad_traffic_bytes = 2_000_000;
    p.stages = 50;
    p.double_buffered = true;
    p
}

fn bench_sim(c: &mut Criterion) {
    let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
        .pe_array(16, 16)
        .build()
        .expect("config builds");
    let sim = TraceSimulator::default();
    let plan = staged_plan();
    c.bench_function("sim/eval_staged_plan", |b| {
        b.iter(|| black_box(sim.run_plan_cycles(&cfg, black_box(&plan), 64)))
    });
    c.bench_function("sim/eval_via_program", |b| {
        b.iter(|| {
            let program = program_from_plan(black_box(&plan), 64);
            black_box(sim.run(&cfg, &program, plan.double_buffered).cycles)
        })
    });
}

fn bench_cache(c: &mut Criterion, quick: bool) {
    let ops: u64 = if quick { 2_000 } else { 20_000 };
    c.bench_function("cache/contended_mixed_8thr", |b| {
        b.iter(|| {
            let cache: MemoCache<u64, u64> = MemoCache::new(512);
            std::thread::scope(|s| {
                for t in 0..8u64 {
                    let cache = &cache;
                    s.spawn(move || {
                        let mut acc = 0u64;
                        for i in 0..ops {
                            let key = (t * 31 + i * 7) % 1024;
                            match cache.get(&key) {
                                Some(v) => acc = acc.wrapping_add(v),
                                None => cache.insert(key, key * 3),
                            }
                        }
                        black_box(acc)
                    });
                }
            });
            black_box(cache.stats().hits)
        })
    });
}

fn bench_pool(c: &mut Criterion, quick: bool) {
    let items: Vec<u64> = (0..if quick { 64u64 } else { 256 }).collect();
    let pool = WorkerPool::new(8).with_stealing(true);
    // Steal-heavy shape: work per item is wildly uneven (the staged
    // refinement batches look like this — a few expensive survivors among
    // cheap screens), so chunked stealing is what keeps the pool busy.
    c.bench_function("pool/steal_heavy_staged", |b| {
        b.iter(|| {
            let out = pool.map(&items, |_, &i| {
                let spins = (i % 16) * (i % 16) * 120;
                let mut acc = i;
                for k in 0..spins {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                acc
            });
            black_box(out.len())
        })
    });
}

/// Renders the versioned `BENCH_hotpath.json` document
/// (schema `hasco-bench-hotpath-v1`).
fn bench_json(c: &Criterion, quick: bool) -> String {
    let median = |id: &str| c.median_ns(id).unwrap_or(f64::NAN).max(1.0);
    let gp_speedup = median("gp/fit_scratch/n200") / median("gp/observe_incremental/n200");
    let sim_speedup = median("sim/eval_via_program") / median("sim/eval_staged_plan");
    let mut results = String::new();
    for (i, r) in c.records().iter().enumerate() {
        if i > 0 {
            results.push_str(",\n");
        }
        results.push_str(&format!(
            "    {{ \"id\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1} }}",
            r.id, r.median_ns, r.min_ns, r.max_ns
        ));
    }
    format!(
        "{{\n  \"schema\": \"hasco-bench-hotpath-v1\",\n  \"quick\": {quick},\n  \
         \"results\": [\n{results}\n  ],\n  \"speedups\": {{\n    \
         \"gp_observe_200_vs_scratch\": {gp_speedup:.3},\n    \
         \"sim_staged_vs_program\": {sim_speedup:.3}\n  }}\n}}\n"
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut c = Criterion::default().sample_size(if quick { 3 } else { 15 });
    bench_gp(&mut c);
    bench_sim(&mut c);
    bench_cache(&mut c, quick);
    bench_pool(&mut c, quick);
    bench_hypervolume(&mut c);
    bench_qlearn(&mut c);
    bench_explorer(&mut c);

    let json = bench_json(&c, quick);
    // Anchor at the workspace root regardless of cargo's bench cwd, so
    // CI finds the file next to BENCH_table3.json.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("[bench trajectory written to BENCH_hotpath.json]"),
        Err(e) => eprintln!("[failed to write BENCH_hotpath.json: {e}]"),
    }
    let median = |id: &str| c.median_ns(id).unwrap_or(f64::NAN).max(1.0);
    println!(
        "speedups: gp_observe_200_vs_scratch = {:.1}x, sim_staged_vs_program = {:.1}x",
        median("gp/fit_scratch/n200") / median("gp/observe_incremental/n200"),
        median("sim/eval_via_program") / median("sim/eval_staged_plan"),
    );
}
