//! Layout pins for every binary codec the system writes: the wire
//! protocol, the surrogate snapshot, the memo-cache entry, the
//! `HASCOSR1` surrogate store, and the `HASCOMC2` memo-cache image.
//!
//! Round-trip tests cannot see a layout change made symmetrically on
//! both the encode and the decode side; these tests can. Each one
//! encodes fixed values through the public entry points and pins the
//! length and [`Fingerprinter`] digest of the exact bytes. The persisted
//! codecs are reached through an [`Engine`] that loads an image written
//! here and persists it again, so the pinned bytes are the ones the
//! engine's own encoders produce. A failing pin means persisted images
//! or wire peers from an earlier build no longer read the same bytes:
//! either restore the layout or bump the format magic.

use std::collections::BTreeMap;
use std::path::PathBuf;

use accel_model::arch::AcceleratorConfig;
use accel_model::tech::TechParams;
use accel_model::{BackendKind, Metrics};
use dse::problem::{Evaluation, OptimizerResult};
use hasco::codesign::CoDesignOptions;
use hasco::engine::{CoDesignRequest, Engine, EngineConfig};
use hasco::event::RunEvent;
use hasco::input::{Constraints, GenerationMethod, InputDescription};
use hasco::solution::{Solution, WorkloadSolution};
use hasco::{HascoError, OptimizerKind, RunStats};
use hasco_net::wire::to_bytes;
use runtime::{CacheStats, Fingerprinter, MemoCache};
use sw_opt::explorer::ExplorerOptions;
use sw_opt::schedule::Schedule;
use tensor_ir::index::IndexId;
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::matching::TensorizeChoice;
use tensor_ir::workload::TensorApp;

/// `(length, digest)` of a byte string — the pinned quantity.
fn pin(bytes: &[u8]) -> (usize, u64) {
    let mut fp = Fingerprinter::new();
    fp.write_bytes(bytes);
    (bytes.len(), fp.finish().0)
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hasco-layout-{name}-{}", std::process::id()))
}

fn tech(offset: f64) -> TechParams {
    let mut a = [0.0f64; 13];
    for (i, slot) in a.iter_mut().enumerate() {
        *slot = 0.125 * (i as f64 + 1.0) + offset;
    }
    TechParams::from_array(a)
}

fn metrics(scale: f64) -> Metrics {
    Metrics {
        latency_cycles: 1.0e6 * scale,
        latency_ms: 1.25 * scale,
        energy_uj: 42.5 * scale,
        power_mw: 900.0 * scale,
        area_mm2: 3.75 * scale,
        throughput_mops: 1.0 / 3.0 * scale,
        utilization: 0.875,
    }
}

fn explorer_options(pool: usize, fixed: Option<TensorizeChoice>) -> ExplorerOptions {
    ExplorerOptions {
        pool,
        rounds: 3,
        top_k: 2,
        max_pool: 4 * pool,
        use_qlearning: pool.is_multiple_of(2),
        fixed_choice: fixed,
    }
}

fn choice() -> TensorizeChoice {
    TensorizeChoice {
        intrinsic: "gemm".into(),
        var_map: vec![(IndexId(0), IndexId(1)), (IndexId(2), IndexId(0))],
        needs_rearrangement: true,
    }
}

fn request() -> CoDesignRequest {
    let app = TensorApp::new(
        "layout",
        vec![
            tensor_ir::suites::gemm_workload("g", 64, 32, 16),
            tensor_ir::suites::gemm_workload("h", 8, 8, 8),
        ],
    );
    let input = InputDescription {
        app,
        method: GenerationMethod::Chisel(IntrinsicKind::Gemm),
        constraints: Constraints {
            max_latency_ms: Some(4.0),
            max_power_mw: None,
            max_area_mm2: Some(12.5),
        },
    };
    // Every wire-carried option is set explicitly, so the pin does not
    // move when a preset's defaults are retuned.
    let mut opts = CoDesignOptions::quick(0);
    opts.hw_trials = 11;
    opts.mobo_prior = 3;
    opts.sw_inner = explorer_options(6, None);
    opts.sw_final = explorer_options(9, Some(choice()));
    opts.tuning_rounds = 2;
    opts.seed = 0xdead_beef;
    opts.threads = 4;
    opts.work_stealing = true;
    opts.cache_capacity = 512;
    opts.backend = BackendKind::Surrogate;
    opts.refine_backend = BackendKind::TraceSim;
    opts.refine_top_k = 2;
    opts.adaptive_refinement = true;
    opts.tech = tech(0.0);
    opts.optimizer = OptimizerKind::Nsga2;
    opts.surrogate_full_refit = false;
    CoDesignRequest::new(input, opts).with_label("layout-pin")
}

fn solution() -> Solution {
    let accelerator = AcceleratorConfig::builder(IntrinsicKind::Gemm)
        .pe_array(8, 16)
        .scratchpad_kb(256)
        .build()
        .expect("valid config");
    let mut tiles = BTreeMap::new();
    tiles.insert(IndexId(0), 16);
    tiles.insert(IndexId(2), 4);
    Solution {
        accelerator,
        per_workload: vec![WorkloadSolution {
            workload: "g".into(),
            schedule: Schedule {
                choice: choice(),
                tiles,
                outer_order: vec![IndexId(2), IndexId(0)],
                fuse_outer: 1,
            },
            metrics: metrics(1.0),
            program: "for i0 in 0..4:\n  gemm()".into(),
        }],
        total: metrics(2.0),
        meets_constraints: true,
        hw_history: OptimizerResult {
            optimizer: "nsga2".into(),
            evaluations: vec![Evaluation {
                point: vec![1, 0, 3],
                objectives: vec![1.5, -0.0, 7.25],
            }],
            infeasible: 2,
        },
        stats: RunStats {
            threads: 4,
            hw_evaluations: 30,
            sw_explorations: 60,
            refine_explorations: 6,
            backend: BackendKind::Surrogate,
            refine_backend: Some(BackendKind::TraceSim),
            refine_topk_trajectory: vec![2, 3, 1],
            surrogate_samples: 18,
            surrogate_trusted: true,
            warm_cache_entries: 5,
            steals: 7,
            cache: CacheStats {
                hits: 9,
                misses: 21,
                inserts: 21,
                evictions: 0,
            },
        },
    }
}

fn events() -> Vec<RunEvent> {
    vec![
        RunEvent::Started {
            label: "layout".into(),
            workloads: 2,
        },
        RunEvent::Partitioned {
            workload: "g".into(),
            choices: 3,
        },
        RunEvent::BatchEvaluated {
            optimizer: "mobo".into(),
            phase: "prior".into(),
            batch: 1,
            evaluated: 8,
            feasible: 6,
        },
        RunEvent::Refined {
            batch: 1,
            survivors: 2,
            budget: 4,
        },
        RunEvent::SoftwareOptimized {
            workload: "h".into(),
            rounds: 3,
            latency_ms: 0.5,
        },
        RunEvent::Tuned {
            round: 1,
            meets_constraints: false,
        },
        RunEvent::Solved {
            meets_constraints: true,
            latency_ms: 2.5,
        },
        RunEvent::Cancelled,
        RunEvent::Failed {
            error: "hardware: no fit".into(),
        },
    ]
}

#[test]
fn wire_messages_keep_their_layout() {
    assert_eq!(pin(&to_bytes(&request())), (824, 0xecb1_425a_ae11_0c0e));
    assert_eq!(pin(&to_bytes(&solution())), (581, 0x4e27_7d3c_ea4a_72d1));
    let failed: Result<u64, HascoError> = Err(HascoError::Hardware("no fit".into()));
    assert_eq!(
        pin(&to_bytes(&(events(), failed))),
        (212, 0x647f_83d0_77fd_a652)
    );
}

/// Reads the `[len u32][stamp u64][entry]` records of a memo-cache
/// image: `(stamp, entry bytes)` in file order.
fn memo_records(image: &[u8]) -> Vec<(u64, Vec<u8>)> {
    let u64_at = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
    assert_eq!(&image[..8], b"HASCOMC2");
    let count = u64_at(8);
    let mut at = 16;
    let mut out = Vec::new();
    for _ in 0..count {
        let len = u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
        let stamp = u64_at(at + 4);
        out.push((stamp, image[at + 12..at + 12 + len].to_vec()));
        at += 12 + len;
    }
    assert_eq!(at + 8, image.len(), "checksum trailer follows the records");
    out
}

#[test]
fn memo_cache_image_keeps_its_layout() {
    let cache: MemoCache<u64, u64> = MemoCache::new(64);
    cache.insert_stamped(1, 10, 1_000);
    cache.insert_stamped(2, 20, 2_000);
    cache.insert_stamped(3, 30, 3_000);
    let path = temp_path("memo-image");
    cache
        .save_to_file(&path, |k, v, out| out.extend(to_bytes(&(*k, *v))))
        .unwrap();
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(memo_records(&image).len(), 3);
    assert_eq!(pin(&image), (108, 0x3889_158a_5c05_9adb));
}

#[test]
fn memo_entries_keep_their_layout() {
    // Written here with the wire spelling of `((u64, u64), Option<Metrics>)`,
    // then loaded and re-persisted by the engine's own entry codec.
    let entries = [((7u64, 8u64), None), ((9u64, 10u64), Some(metrics(3.0)))];
    let seed: MemoCache<(u64, u64), Option<Metrics>> = MemoCache::new(64);
    for (i, (key, value)) in entries.iter().enumerate() {
        seed.insert_stamped(*key, *value, 1_000 * (i as u64 + 1));
    }
    let path = temp_path("memo-entries");
    seed.save_to_file(&path, |k, v, out| out.extend(to_bytes(&(*k, *v))))
        .unwrap();
    let engine = Engine::new(EngineConfig::default().with_cache_path(&path));
    assert_eq!(engine.warm_entries(), 2, "the engine decodes both variants");
    assert_eq!(engine.persist().unwrap(), 2);
    drop(engine);
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let mut records = memo_records(&image);
    records.sort();
    let wire: Vec<(u64, Vec<u8>)> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| (1_000 * (i as u64 + 1), to_bytes(e)))
        .collect();
    assert_eq!(records, wire, "memo entries use the wire layout");
    assert_eq!(pin(&records[0].1), (17, 0xfcc7_2c03_3046_a4de));
    assert_eq!(pin(&records[1].1), (73, 0x07ef_d599_dd49_d60b));
}

/// A surrogate snapshot with a training window, in its persisted layout:
/// tech, knobs, generation, digest, CV error, trust flag, observed keys,
/// then `samples, dim` and the interleaved `(x, y)` rows.
fn snapshot_bytes(tech: &TechParams, salt: u64) -> Vec<u8> {
    let (samples, dim) = (10usize, 3usize);
    let mut out = Vec::new();
    out.extend(to_bytes(tech));
    out.extend(to_bytes(&4usize)); // min_train
    out.extend(to_bytes(&64usize)); // max_train
    out.extend(to_bytes(&0.5f64)); // trust_threshold
    out.extend(to_bytes(&(3 + salt))); // generation
    out.extend(to_bytes(&(0x5eed_0000 + salt))); // digest
    out.extend(to_bytes(&0.0f64)); // cv_error (recomputed on restore)
    out.extend(to_bytes(&false)); // trusted (recomputed on restore)
    out.extend(to_bytes(&vec![(1u64, 2 + salt), (3u64, 4u64)]));
    out.extend(to_bytes(&(samples as u64)));
    out.extend(to_bytes(&(dim as u64)));
    for s in 0..samples {
        for d in 0..dim {
            out.extend(to_bytes(&((s * dim + d) as f64 / 31.0)));
        }
        out.extend(to_bytes(&(0.05 * s as f64 - 0.2)));
    }
    out
}

#[test]
fn surrogate_store_keeps_its_layout() {
    let mut payload = to_bytes(&2u64);
    for (t, salt) in [(tech(0.0), 0), (tech(0.5), 1)] {
        let snap = snapshot_bytes(&t, salt);
        payload.extend(to_bytes(&(snap.len() as u32)));
        payload.extend(snap);
    }
    let path = temp_path("surrogate-store");
    runtime::persist::save_frame(&path, b"HASCOSR1", &payload).unwrap();
    let engine = Engine::new(EngineConfig::default().with_surrogate_store(&path));
    assert_eq!(engine.restored_surrogate_backends(), 2);
    assert_eq!(engine.restored_surrogate_generation(), 4);
    engine.persist().unwrap();
    drop(engine);
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(pin(&image), (1098, 0x3490_e730_684d_8a6c));

    // Each snapshot record on its own: the restored, refit state.
    let payload = runtime::persist::parse_frame(b"HASCOSR1", &image).expect("valid frame");
    assert_eq!(&payload[..8], &2u64.to_le_bytes());
    let mut at = 8;
    let mut snaps = Vec::new();
    while at < payload.len() {
        let len = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
        let record = &payload[at + 4..at + 4 + len];
        let cv_error = f64::from_bits(u64::from_le_bytes(record[144..152].try_into().unwrap()));
        assert!(cv_error.is_finite(), "the restore refit the GP");
        snaps.push(pin(record));
        at += 4 + len;
    }
    assert_eq!(
        snaps,
        vec![(529, 0xdd15_d2ea_6fb8_df88), (529, 0x77c4_775d_6278_0f82)]
    );
}
