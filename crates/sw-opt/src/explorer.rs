//! The software DSE driver: heuristic top-k selection + Q-learning
//! revisions (§VI-B, Fig. 5(d)/(e)).

use std::sync::Arc;

use accel_model::arch::AcceleratorConfig;
use accel_model::{AnalyticBackend, CostBackend, CostModel, Metrics};
use dse::progress::{BatchUpdate, Progress};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use runtime::{Fingerprint, Fingerprinter, StableFingerprint, WorkerPool};
use tensor_ir::matching::TensorizeChoice;
use tensor_ir::workload::Workload;

use crate::heuristic::{Candidate, CandidatePool};
use crate::lowering;
use crate::qlearn::QLearner;
use crate::schedule::{Revision, Schedule, ScheduleContext, NUM_REVISIONS};
use crate::SwError;

/// Exploration configuration.
#[derive(Debug, Clone)]
pub struct ExplorerOptions {
    /// Initial candidate-pool size.
    pub pool: usize,
    /// Revision rounds ("the revision process may repeat for hundreds of
    /// rounds").
    pub rounds: usize,
    /// Valuable candidates revised per round.
    pub top_k: usize,
    /// Maximum pool size (pruned by value after each round).
    pub max_pool: usize,
    /// Use the Q-learning policy for revisions (`false` = random revision,
    /// the ablation baseline).
    pub use_qlearning: bool,
    /// Restrict exploration to one tensorize choice (used by the
    /// tensorize-comparison experiments and the AutoTVM baseline).
    pub fixed_choice: Option<TensorizeChoice>,
}

impl Default for ExplorerOptions {
    fn default() -> Self {
        ExplorerOptions {
            pool: 16,
            rounds: 24,
            top_k: 4,
            max_pool: 32,
            use_qlearning: true,
            fixed_choice: None,
        }
    }
}

impl StableFingerprint for ExplorerOptions {
    // Every knob changes which schedules get explored, so all of them key
    // memoized evaluation results.
    fn fingerprint_into(&self, fp: &mut Fingerprinter) {
        fp.write_usize(self.pool);
        fp.write_usize(self.rounds);
        fp.write_usize(self.top_k);
        fp.write_usize(self.max_pool);
        fp.write_bool(self.use_qlearning);
        self.fixed_choice.fingerprint_into(fp);
    }
}

/// The result of software optimization for one workload.
#[derive(Debug, Clone)]
pub struct OptimizedSoftware {
    /// The best schedule found.
    pub schedule: Schedule,
    /// Its metrics on the target accelerator.
    pub metrics: Metrics,
    /// Best latency after each round (convergence curve).
    pub history: Vec<f64>,
    /// Total schedules evaluated.
    pub evaluated: usize,
}

/// The software explorer; owns the RNG seed and the shared Q-network
/// ("the DQN is reused for all design points in a software space").
///
/// Schedule pricing dispatches through a pluggable [`CostBackend`]
/// ([`SoftwareExplorer::with_backend`]), defaulting to the fast analytic
/// tier. The backend changes which schedules look good and therefore the
/// entire exploration trajectory, so memoization layers must key results
/// by [`SoftwareExplorer::backend_fingerprint`] — and must re-read it
/// whenever the backend's internal state can legitimately move, as the
/// self-improving surrogate tier's fingerprint advances with every
/// training generation.
#[derive(Debug)]
pub struct SoftwareExplorer {
    seed: u64,
    backend: Arc<dyn CostBackend>,
    workers: WorkerPool,
    /// Optional per-round progress observer (see
    /// [`SoftwareExplorer::with_progress`]).
    progress: Option<Arc<dyn Progress>>,
}

impl SoftwareExplorer {
    /// Creates an explorer with the default analytic cost backend,
    /// evaluating serially.
    pub fn new(seed: u64) -> Self {
        SoftwareExplorer {
            seed,
            backend: Arc::new(AnalyticBackend::default()),
            workers: WorkerPool::serial(),
            progress: None,
        }
    }

    /// Creates an explorer with a custom analytic cost model.
    pub fn with_model(seed: u64, model: CostModel) -> Self {
        SoftwareExplorer::new(seed).with_backend(Arc::new(AnalyticBackend::new(model)))
    }

    /// Routes schedule pricing through the given cost backend.
    pub fn with_backend(mut self, backend: Arc<dyn CostBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The cost backend pricing this explorer's schedules.
    pub fn backend(&self) -> &Arc<dyn CostBackend> {
        &self.backend
    }

    /// Stable identity of the cost backend, for memoization keys.
    pub fn backend_fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        self.backend.fingerprint_into(&mut fp);
        fp.finish()
    }

    /// Evaluates candidate pools and per-round revision batches on the
    /// given worker pool. Schedule *generation* and Q-learning updates
    /// stay serial, so results are identical at any worker count. Cheap
    /// tiers ([`CostBackend::is_cheap`]) price inline whatever the pool
    /// size: a thread hand-off costs more than their pricing.
    pub fn with_workers(mut self, workers: WorkerPool) -> Self {
        self.workers = workers;
        self
    }

    /// The pool that prices this explorer's schedules: a serial one for
    /// cheap tiers, the configured workers otherwise.
    fn eval_pool(&self) -> WorkerPool {
        if self.backend.is_cheap() {
            WorkerPool::serial()
        } else {
            self.workers.clone()
        }
    }

    /// Reports every revision round to `progress` (phase `"round"`) and
    /// stops the exploration early — returning the best schedule so far —
    /// when the observer answers `false`. This is how a resident engine
    /// observes and cancels long final optimizations; the observer is
    /// called from the thread driving [`SoftwareExplorer::optimize`], in
    /// round order, so observations never depend on worker scheduling.
    /// Observation changes neither the trajectory nor the result of a
    /// completed run.
    pub fn with_progress(mut self, progress: Arc<dyn Progress>) -> Self {
        self.progress = Some(progress);
        self
    }

    /// Optimizes one workload for one accelerator.
    ///
    /// # Errors
    /// Returns [`SwError`] when no tensorize choice exists or no valid
    /// schedule fits the accelerator.
    pub fn optimize(
        &self,
        workload: &Workload,
        cfg: &AcceleratorConfig,
        opts: &ExplorerOptions,
    ) -> Result<OptimizedSoftware, SwError> {
        let intrinsic = cfg.intrinsic_comp();
        let mut ctx = ScheduleContext::new(workload, &intrinsic)?;
        if let Some(choice) = &opts.fixed_choice {
            ctx.choices.retain(|c| c.var_map == choice.var_map);
            if ctx.choices.is_empty() {
                ctx.choices.push(choice.clone());
            }
        }
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let workers = self.eval_pool();
        let mut pool = CandidatePool::initialize_batched(
            &ctx,
            cfg,
            self.backend.as_ref(),
            opts.pool,
            &mut rng,
            &workers,
        )?;
        let mut qlearner = QLearner::new(self.seed ^ 0x9e3779b97f4a7c15);
        let mut history = Vec::with_capacity(opts.rounds);
        let mut evaluated = pool.len();

        for round in 0..opts.rounds {
            let top = pool.top_k(opts.top_k);
            // Phase 1, serial: propose one revision per valuable candidate.
            // The Q-network state and the RNG stream advance in a fixed
            // order here, so the round's proposals are independent of the
            // worker count.
            let mut proposals: Vec<(Candidate, Schedule, usize)> = Vec::with_capacity(top.len());
            for idx in top {
                let cand = pool.candidates()[idx].clone();
                let proposal = if opts.use_qlearning {
                    qlearner.propose(&cand.schedule, &ctx)
                } else {
                    // Random-revision ablation.
                    let a = rng.gen_range(0..NUM_REVISIONS);
                    Revision::from_action(a)
                        .apply(&cand.schedule, &ctx, &mut rng)
                        .map(|s| (s, a))
                };
                let Some((revised, action)) = proposal else {
                    continue;
                };
                proposals.push((cand, revised, action));
            }
            evaluated += proposals.len();

            // Phase 2: lower and cost the proposed schedules (pure
            // functions of the schedule), on the pool for expensive tiers
            // and inline for cheap ones (see `eval_pool`): lowering plus
            // analytic pricing takes ~1.5 µs per schedule, far less than a
            // thread hand-off. Both yield identical results.
            let outcomes = workers.map(&proposals, |_, (_, revised, _)| {
                lowering::evaluate(revised, &ctx, cfg, self.backend.as_ref())
            });

            // Phase 3, serial: feed rewards back in submission order.
            let outcomes_len = proposals.len();
            let mut fresh: Vec<Candidate> = Vec::new();
            for ((cand, revised, action), outcome) in proposals.into_iter().zip(outcomes) {
                match outcome {
                    Ok(metrics) => {
                        let reward =
                            QLearner::reward(cand.metrics.latency_cycles, metrics.latency_cycles);
                        if opts.use_qlearning {
                            qlearner.observe(
                                cand.schedule.features(&ctx),
                                action,
                                reward,
                                revised.features(&ctx),
                            );
                        }
                        fresh.push(Candidate {
                            schedule: revised,
                            metrics,
                        });
                    }
                    Err(_) => {
                        if opts.use_qlearning {
                            // Invalid revisions (scratchpad overflow) get a
                            // strong negative reward.
                            qlearner.observe(
                                cand.schedule.features(&ctx),
                                action,
                                -1.0,
                                cand.schedule.features(&ctx),
                            );
                        }
                    }
                }
            }
            let feasible = fresh.len();
            let submitted = outcomes_len;
            for c in fresh {
                pool.insert(c);
            }
            pool.prune(opts.max_pool);
            history.push(pool.best_latency());
            if let Some(progress) = &self.progress {
                let keep_going = progress.on_batch(&BatchUpdate {
                    optimizer: "sw-explorer",
                    phase: "round",
                    batch: round + 1,
                    evaluated: submitted,
                    feasible,
                });
                if !keep_going {
                    break;
                }
            }
        }

        let best = pool.best().clone();
        Ok(OptimizedSoftware {
            schedule: best.schedule,
            metrics: best.metrics,
            history,
            evaluated,
        })
    }

    /// Optimizes and returns only the best metrics (the hardware DSE's
    /// objective evaluation: "the Bayesian-based hardware optimization uses
    /// the software latency as the performance metric").
    ///
    /// # Errors
    /// Propagates [`SwError`] from [`SoftwareExplorer::optimize`].
    pub fn best_metrics(
        &self,
        workload: &Workload,
        cfg: &AcceleratorConfig,
        opts: &ExplorerOptions,
    ) -> Result<Metrics, SwError> {
        Ok(self.optimize(workload, cfg, opts)?.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_model::BackendKind;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::suites;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .build()
            .unwrap()
    }

    fn quick_opts() -> ExplorerOptions {
        ExplorerOptions {
            pool: 10,
            rounds: 10,
            top_k: 3,
            ..ExplorerOptions::default()
        }
    }

    #[test]
    fn optimization_improves_over_pool_init() {
        let wl = suites::gemm_workload("g", 512, 512, 512);
        let r = SoftwareExplorer::new(7)
            .optimize(&wl, &cfg(), &quick_opts())
            .unwrap();
        assert!(!r.history.is_empty());
        let first = r.history[0];
        let last = *r.history.last().unwrap();
        assert!(last <= first);
        assert_eq!(r.metrics.latency_cycles, last);
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let r = SoftwareExplorer::new(3)
            .optimize(&wl, &cfg(), &quick_opts())
            .unwrap();
        assert!(r.history.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    }

    #[test]
    fn deterministic_per_seed() {
        let wl = suites::gemm_workload("g", 256, 256, 256);
        let a = SoftwareExplorer::new(11)
            .optimize(&wl, &cfg(), &quick_opts())
            .unwrap();
        let b = SoftwareExplorer::new(11)
            .optimize(&wl, &cfg(), &quick_opts())
            .unwrap();
        assert_eq!(a.metrics.latency_cycles, b.metrics.latency_cycles);
        assert_eq!(a.history, b.history);
    }

    /// A surrogate tier trained on five probe configurations until it
    /// trusts its GP, so it prices through a frozen generation.
    fn trained_surrogate() -> Arc<dyn CostBackend> {
        let backend = BackendKind::Surrogate.build();
        for (rows, kb) in [(8u32, 128u64), (16, 256), (32, 512), (8, 512), (32, 128)] {
            let probe = AcceleratorConfig::builder(IntrinsicKind::Gemm)
                .pe_array(rows, rows)
                .scratchpad_kb(kb)
                .build()
                .unwrap();
            backend.as_surrogate().unwrap().observe(&probe);
        }
        assert!(backend.as_surrogate().unwrap().is_trusted());
        backend
    }

    fn metric_bits(m: &Metrics) -> [u64; 7] {
        [
            m.latency_cycles,
            m.latency_ms,
            m.energy_uj,
            m.power_mw,
            m.area_mm2,
            m.throughput_mops,
            m.utilization,
        ]
        .map(f64::to_bits)
    }

    /// Explores one conv layer with `backend` on pools of 1, 2 and 4
    /// threads and asserts that every run matches the serial one bit for
    /// bit. At `top_k >= 4` every round's revision batch has several
    /// schedules, so a tier that is not cheap really prices them on the
    /// pool, while cheap tiers price inline whatever its size. The
    /// random-revision ablation (`use_qlearning: false`) draws its
    /// revisions from the explorer's RNG instead of the Q-network.
    fn assert_pool_size_independent(tier: &str, cheap: bool, backend: &Arc<dyn CostBackend>) {
        assert_eq!(backend.is_cheap(), cheap, "{tier}");
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let c = cfg();
        for (top_k, use_qlearning) in [(4, true), (4, false), (6, true)] {
            let opts = ExplorerOptions {
                top_k,
                use_qlearning,
                ..quick_opts()
            };
            let runs = [1, 2, 4].map(|threads| {
                let pool = WorkerPool::new(threads);
                let r = SoftwareExplorer::new(13)
                    .with_backend(Arc::clone(backend))
                    .with_workers(pool.clone())
                    .optimize(&wl, &c, &opts)
                    .unwrap();
                (threads, r, pool.stats().batches)
            });
            let serial = &runs[0].1;
            let history = |r: &OptimizedSoftware| -> Vec<u64> {
                r.history.iter().map(|l| l.to_bits()).collect()
            };
            for (threads, r, batches) in &runs {
                let case =
                    format!("{tier}, top_k {top_k}, qlearning {use_qlearning}, {threads} threads");
                assert_eq!(r.schedule, serial.schedule, "{case}");
                assert_eq!(
                    metric_bits(&r.metrics),
                    metric_bits(&serial.metrics),
                    "{case}"
                );
                assert_eq!(history(r), history(serial), "{case}");
                assert_eq!(r.evaluated, serial.evaluated, "{case}");
                if cheap {
                    assert_eq!(*batches, 0, "{case}: a cheap tier prices inline");
                } else {
                    assert!(*batches > 0, "{case}: an expensive tier uses the pool");
                }
            }
        }
    }

    #[test]
    fn parallel_workers_do_not_change_results() {
        for kind in [BackendKind::Analytic, BackendKind::Calibrated] {
            assert_pool_size_independent(&kind.to_string(), true, &kind.build());
        }
    }

    #[test]
    fn sim_backend_results_are_thread_count_independent() {
        // The only tier that costs more than a thread hand-off.
        let kind = BackendKind::TraceSim;
        assert_pool_size_independent(&kind.to_string(), false, &kind.build());
    }

    #[test]
    fn trained_surrogate_explorations_stay_deterministic() {
        // Untrained it prices through the analytic fallback; trained, a
        // frozen generation must price identically everywhere.
        let kind = BackendKind::Surrogate;
        assert_pool_size_independent(&kind.to_string(), true, &kind.build());
        assert_pool_size_independent("trained surrogate", true, &trained_surrogate());
    }

    #[test]
    fn backend_changes_pricing_not_validity() {
        let wl = suites::gemm_workload("g", 256, 256, 256);
        let c = cfg();
        let mut latencies = Vec::new();
        for kind in accel_model::BackendKind::ALL {
            let r = SoftwareExplorer::new(21)
                .with_backend(kind.build())
                .optimize(&wl, &c, &quick_opts())
                .unwrap();
            assert!(r.metrics.latency_cycles > 0.0, "{kind}");
            latencies.push(r.metrics.latency_cycles);
        }
        // Same hardware, same order of magnitude across tiers.
        let (lo, hi) = latencies
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &l| {
                (lo.min(l), hi.max(l))
            });
        assert!(hi / lo < 4.0, "tiers disagree wildly: {latencies:?}");
    }

    #[test]
    fn backend_fingerprints_distinguish_tiers_and_key_identically() {
        let a = SoftwareExplorer::new(0);
        let b = SoftwareExplorer::new(0).with_backend(accel_model::BackendKind::TraceSim.build());
        assert_ne!(a.backend_fingerprint(), b.backend_fingerprint());
        let a2 = SoftwareExplorer::new(7);
        assert_eq!(a.backend_fingerprint(), a2.backend_fingerprint());
    }

    #[test]
    fn surrogate_generations_move_the_explorer_fingerprint() {
        // The hardware DSE keys its memo cache by this fingerprint; a
        // surrogate retraining between batches must invalidate it, or
        // stale-generation prices would be served as fresh ones.
        let explorer =
            SoftwareExplorer::new(0).with_backend(accel_model::BackendKind::Surrogate.build());
        let before = explorer.backend_fingerprint();
        let surrogate = explorer.backend().as_surrogate().expect("surrogate tier");
        assert!(surrogate.observe(&cfg()) > 0);
        assert_ne!(before, explorer.backend_fingerprint());
    }

    #[test]
    fn explorer_options_fingerprints_distinguish_knobs() {
        use runtime::StableFingerprint;
        let base = quick_opts();
        let mut other = quick_opts();
        assert_eq!(base.fingerprint(), other.fingerprint());
        other.rounds += 1;
        assert_ne!(base.fingerprint(), other.fingerprint());
        let mut ql = quick_opts();
        ql.use_qlearning = false;
        assert_ne!(base.fingerprint(), ql.fingerprint());
    }

    #[test]
    fn fixed_choice_is_respected() {
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let c = cfg();
        let ctx = ScheduleContext::new(&wl, &c.intrinsic_comp()).unwrap();
        let choice = ctx.choices[0].clone();
        let mut opts = quick_opts();
        opts.fixed_choice = Some(choice.clone());
        let r = SoftwareExplorer::new(5).optimize(&wl, &c, &opts).unwrap();
        assert_eq!(r.schedule.choice.var_map, choice.var_map);
    }

    #[test]
    fn qlearning_does_not_hurt_vs_random_revision() {
        // Ablation shape check: across seeds, Q-learning should be at least
        // as good as random revision on average.
        let wl = suites::gemm_workload("g", 512, 512, 512);
        let c = cfg();
        let mut q_total = 0.0;
        let mut r_total = 0.0;
        for seed in 0..4 {
            let mut opts = quick_opts();
            opts.rounds = 12;
            let q = SoftwareExplorer::new(seed)
                .optimize(&wl, &c, &opts)
                .unwrap();
            opts.use_qlearning = false;
            let r = SoftwareExplorer::new(seed)
                .optimize(&wl, &c, &opts)
                .unwrap();
            q_total += q.metrics.latency_cycles;
            r_total += r.metrics.latency_cycles;
        }
        assert!(
            q_total <= r_total * 1.15,
            "q = {q_total}, random = {r_total}"
        );
    }

    #[test]
    fn impossible_accelerator_errors() {
        let wl = suites::gemm_workload("g", 256, 256, 256);
        let mut c = cfg();
        c.scratchpad_bytes = 64;
        assert!(SoftwareExplorer::new(0)
            .optimize(&wl, &c, &quick_opts())
            .is_err());
    }

    #[test]
    fn best_metrics_matches_optimize() {
        let wl = suites::gemm_workload("g", 128, 128, 128);
        let e = SoftwareExplorer::new(2);
        let m = e.best_metrics(&wl, &cfg(), &quick_opts()).unwrap();
        let o = e.optimize(&wl, &cfg(), &quick_opts()).unwrap();
        assert_eq!(m.latency_cycles, o.metrics.latency_cycles);
    }

    /// FNV-1a over the bits of every final metric, the history and the
    /// evaluated count.
    fn exploration_digest(runs: &[OptimizedSoftware]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for r in runs {
            metric_bits(&r.metrics).into_iter().for_each(&mut eat);
            r.history.iter().for_each(|l| eat(l.to_bits()));
            eat(r.evaluated as u64);
        }
        h
    }

    #[test]
    fn paper_scale_explorations_are_pinned() {
        // Recorded before the DQN's forward pass was register-blocked and
        // its replay step fused: both must keep every float op, so every
        // round of every exploration stays bit-identical.
        let mut layers = suites::resnet50_convs();
        layers.truncate(3);
        layers.push(suites::mobilenet_convs().swap_remove(1));
        layers.push(suites::xception_convs().swap_remove(2));
        // The two fixed Table III cores: the 16×16 GEMMCore and a 64-PE
        // CONV2D core.
        let cores = [
            AcceleratorConfig::builder(IntrinsicKind::Gemm)
                .pe_array(16, 16)
                .scratchpad_kb(256)
                .banks(4)
                .build()
                .unwrap(),
            AcceleratorConfig::builder(IntrinsicKind::Conv2d)
                .pe_array(8, 8)
                .scratchpad_kb(256)
                .banks(4)
                .build()
                .unwrap(),
        ];
        let explorer = SoftwareExplorer::new(3);
        let runs: Vec<OptimizedSoftware> = cores
            .iter()
            .flat_map(|c| layers.iter().map(move |w| (w, c)))
            .map(|(w, c)| {
                explorer
                    .optimize(w, c, &ExplorerOptions::default())
                    .unwrap()
            })
            .collect();
        assert_eq!(exploration_digest(&runs), 0x48df_09fb_5486_c10f);
    }
}
