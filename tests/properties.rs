//! Property-based tests over the reproduction's core invariants.

use proptest::prelude::*;

use accel_model::arch::AcceleratorConfig;
use accel_model::CostModel;
use dse::gp::{GaussianProcess, IncrementalGp};
use dse::hypervolume::hypervolume;
use dse::pareto::{dominates, pareto_indices, ParetoArchive};
use runtime::wire::Wire;
use runtime::WorkerPool;
use sw_opt::explorer::{ExplorerOptions, OptimizedSoftware, SoftwareExplorer};
use sw_opt::lowering;
use sw_opt::schedule::{Revision, ScheduleContext, NUM_REVISIONS};
use tensor_ir::intrinsics::{gemm_intrinsic, gemv_intrinsic, IntrinsicKind};
use tensor_ir::matching::{find_tensorize_choices, MatchOptions};
use tensor_ir::suites;
use tensor_ir::workload::Workload;

fn objective_vec() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.1f64..10.0, 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- Pareto / hypervolume invariants -----------------

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric(a in objective_vec(), b in objective_vec()) {
        prop_assert!(!dominates(&a, &a));
        prop_assert!(!(dominates(&a, &b) && dominates(&b, &a)));
    }

    #[test]
    fn pareto_front_members_are_mutually_non_dominated(
        objs in prop::collection::vec(objective_vec(), 1..20)
    ) {
        let refs: Vec<&[f64]> = objs.iter().map(|v| v.as_slice()).collect();
        let front = pareto_indices(&refs);
        prop_assert!(!front.is_empty());
        for &i in &front {
            for &j in &front {
                if i != j {
                    prop_assert!(!dominates(&objs[j], &objs[i]));
                }
            }
        }
        // Every non-front point is dominated by (or duplicates) someone.
        for k in 0..objs.len() {
            if !front.contains(&k) {
                let covered = objs.iter().enumerate().any(|(j, o)| {
                    j != k && (dominates(o, &objs[k]) || *o == objs[k])
                });
                prop_assert!(covered, "point {} uncovered", k);
            }
        }
    }

    #[test]
    fn hypervolume_monotone_under_additions(
        objs in prop::collection::vec(objective_vec(), 1..12),
        extra in objective_vec()
    ) {
        let reference = vec![11.0, 11.0, 11.0];
        let base = hypervolume(&objs, &reference);
        let mut more = objs.clone();
        more.push(extra);
        let bigger = hypervolume(&more, &reference);
        prop_assert!(bigger >= base - 1e-9, "hv shrank: {base} -> {bigger}");
    }

    #[test]
    fn hypervolume_bounded_by_reference_box(
        objs in prop::collection::vec(objective_vec(), 1..12)
    ) {
        let reference = vec![10.0, 10.0, 10.0];
        let hv = hypervolume(&objs, &reference);
        // Best possible point is (0.1, 0.1, 0.1) -> box 9.9^3.
        prop_assert!(hv <= 9.9f64.powi(3) + 1e-6);
        prop_assert!(hv >= 0.0);
    }

    #[test]
    fn archive_never_holds_dominated_pairs(
        objs in prop::collection::vec(objective_vec(), 1..24)
    ) {
        let mut archive: ParetoArchive<usize> = ParetoArchive::new();
        for (i, o) in objs.iter().enumerate() {
            archive.insert(i, o.clone());
        }
        let entries = archive.entries();
        for (_, a) in entries {
            for (_, b) in entries {
                prop_assert!(!dominates(a, b) || a == b);
            }
        }
    }

    // ---------------- surrogate incremental-fit invariants -------------

    #[test]
    fn incremental_gp_appends_match_from_scratch_bit_for_bit(
        rows in prop::collection::vec(
            (prop::collection::vec(0.0f64..1.0, 3), -2.0f64..2.0),
            1..20
        )
    ) {
        // The incremental trainer extends its per-length-scale Cholesky
        // factors one row at a time; from-scratch refits the grown kernel
        // matrix. The two must agree to the bit at every prefix — the
        // selected length scale and every posterior — or the surrogate's
        // speed path would silently change co-design results.
        let mut inc = IncrementalGp::new();
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        let probes = [[0.2f64, 0.5, 0.8], [0.9, 0.1, 0.4], [0.0, 1.0, 0.5]];
        for (x, y) in rows {
            inc.push(x.clone(), y);
            xs.push(x);
            ys.push(y);
            let scratch = GaussianProcess::fit(&xs, &ys).unwrap();
            inc.refresh().unwrap();
            let grown = inc.model().unwrap();
            prop_assert_eq!(
                grown.length_scale().to_bits(),
                scratch.length_scale().to_bits()
            );
            for p in &probes {
                let a = grown.predict(p);
                let b = scratch.predict(p);
                prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits());
                prop_assert_eq!(a.std.to_bits(), b.std.to_bits());
            }
        }
    }

    // ---------------- matcher soundness -------------------------------

    #[test]
    fn matcher_choices_respect_kinds_and_bijection(
        k in 8u64..128, c in 8u64..128, x in 7u64..56, r in 1u64..6
    ) {
        let wl = suites::conv2d_workload("c", k, c, x, x, r, r);
        for intr in [gemm_intrinsic(16, 16, 16), gemv_intrinsic(16, 16)] {
            for choice in find_tensorize_choices(&wl.comp, &intr.comp, &MatchOptions::default()) {
                // Var-level bijection: distinct on both sides.
                let mut qs: Vec<_> = choice.var_map.iter().map(|&(q, _)| q).collect();
                let mut cs: Vec<_> = choice.var_map.iter().map(|&(_, c)| c).collect();
                qs.sort(); qs.dedup();
                cs.sort(); cs.dedup();
                prop_assert_eq!(qs.len(), choice.var_map.len());
                prop_assert_eq!(cs.len(), choice.var_map.len());
                // Kind preservation.
                for &(q, cc) in &choice.var_map {
                    prop_assert_eq!(
                        intr.comp.index(q).kind,
                        wl.comp.index(cc).kind
                    );
                }
            }
        }
    }

    // ---------------- lowering invariants ------------------------------

    #[test]
    fn lowering_respects_capacity_and_padding(seed in 0u64..500) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .scratchpad_kb(128)
            .build()
            .unwrap();
        let wl = suites::conv2d_workload("c", 64, 64, 28, 28, 3, 3);
        let ctx = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let sched = ctx.random_schedule(&mut rng);
        if let Ok(l) = lowering::lower(&sched, &ctx, &cfg) {
            prop_assert!(l.tile_footprint_bytes <= cfg.scratchpad_bytes);
            prop_assert!(l.plan.macs_padded >= l.plan.macs_useful);
            prop_assert_eq!(l.plan.macs_useful, wl.comp.iteration_points());
            prop_assert!(l.plan.dram_bytes() > 0);
            // DRAM traffic can never undercut compulsory traffic for the
            // output tensor (each output element written at least once).
            let out_bytes = wl.comp.tensor_elements(&wl.comp.output) * cfg.dtype_bytes;
            let writes: u64 = l.plan.dram_writes.iter().map(|t| t.bytes).sum();
            prop_assert!(writes >= out_bytes);
            // Metrics are finite and positive.
            let m = CostModel::default().evaluate(&cfg, &l.plan);
            prop_assert!(m.latency_cycles.is_finite() && m.latency_cycles > 0.0);
            prop_assert!(m.power_mw.is_finite() && m.power_mw > 0.0);
        }
    }

    #[test]
    fn revisions_preserve_schedule_validity(seed in 0u64..300, action in 0usize..NUM_REVISIONS) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm).build().unwrap();
        let wl = suites::gemm_workload("g", 192, 160, 224);
        let ctx = ScheduleContext::new(&wl, &cfg.intrinsic_comp()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let sched = ctx.random_schedule(&mut rng);
        prop_assert!(sched.validate(&ctx).is_ok());
        if let Some(revised) = Revision::from_action(action).apply(&sched, &ctx, &mut rng) {
            prop_assert!(revised.validate(&ctx).is_ok(), "action {action} broke validity");
        }
    }

    #[test]
    fn cost_model_monotone_in_padding(extra in 1u64..1_000_000) {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm).build().unwrap();
        let model = CostModel::default();
        let base = accel_model::ExecutionPlan::compute_only(1_000_000, 1_000_000, 100);
        let mut padded = base.clone();
        padded.macs_padded += extra;
        prop_assert!(
            model.latency_cycles(&cfg, &padded) >= model.latency_cycles(&cfg, &base)
        );
    }
}

/// Everything an exploration returns, as wire bytes (floats as bits).
fn exploration_bytes(r: &Result<OptimizedSoftware, sw_opt::SwError>) -> Option<Vec<u8>> {
    r.as_ref().ok().map(|o| {
        let mut out = Vec::new();
        o.schedule.encode(&mut out);
        o.metrics.encode(&mut out);
        o.history.encode(&mut out);
        o.evaluated.encode(&mut out);
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // ---------------- software-exploration memo -----------------------

    #[test]
    fn memoized_explorations_match_fresh_ones(
        palette in prop::collection::vec(0usize..1000, 3),
        picks in prop::collection::vec((0usize..3, any::<bool>()), 4..8)
    ) {
        // Layers drawn from a palette of three, so the list repeats some,
        // some under another name; mapped onto both fixed sw-map cores.
        let all: Vec<Workload> = suites::resnet50_convs()
            .into_iter()
            .chain(suites::mobilenet_convs())
            .chain(suites::xception_convs())
            .collect();
        let layers: Vec<Workload> = picks
            .iter()
            .enumerate()
            .map(|(i, &(p, renamed))| {
                let mut w = all[palette[p] % all.len()].clone();
                if renamed {
                    w.name = format!("copy {i}");
                }
                w
            })
            .collect();
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
        let requests: Vec<(&Workload, &AcceleratorConfig)> = cores
            .iter()
            .flat_map(|c| layers.iter().map(move |w| (w, c)))
            .collect();
        let opts = ExplorerOptions {
            pool: 8,
            rounds: 4,
            top_k: 2,
            ..ExplorerOptions::default()
        };
        let fresh: Vec<_> = requests
            .iter()
            .map(|(w, c)| exploration_bytes(&SoftwareExplorer::new(3).optimize(w, c, &opts)))
            .collect();
        let serial = SoftwareExplorer::new(3);
        let memoized: Vec<_> = requests
            .iter()
            .map(|(w, c)| exploration_bytes(&serial.optimize(w, c, &opts)))
            .collect();
        prop_assert_eq!(&memoized, &fresh);
        let shared = SoftwareExplorer::new(3);
        let fanned: Vec<_> = WorkerPool::new(4)
            .map(&requests, |_, (w, c)| exploration_bytes(&shared.optimize(w, c, &opts)));
        prop_assert_eq!(&fanned, &fresh);
    }
}
