//! Totality of every decoder of external bytes: arbitrary input,
//! truncations and single-byte corruptions of valid encodings must give
//! a rejection (`None`, a cold start) or a value — never a panic, and
//! never an allocation sized by a count the decoder has not bounded.
//!
//! Covered: the wire messages (`CoDesignRequest`, `Solution`,
//! `RunEvent`), the `SurrogateSnapshot`, the memo-cache entry, the
//! `HASCOSR1` surrogate store (its payload wrapped in a valid-checksum
//! frame, loaded by an [`Engine`]), and the `HASCOMC2` memo-cache image
//! (its checksum recomputed so corruption reaches the entry decoder).

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use accel_model::arch::AcceleratorConfig;
use accel_model::backend::SurrogateSnapshot;
use accel_model::{BackendKind, Metrics};
use dse::problem::OptimizerResult;
use hasco::codesign::CoDesignOptions;
use hasco::engine::{CoDesignRequest, Engine, EngineConfig};
use hasco::event::RunEvent;
use hasco::input::{Constraints, GenerationMethod, InputDescription};
use hasco::solution::{Solution, WorkloadSolution};
use hasco::RunStats;
use runtime::wire::{from_bytes, to_bytes, Wire};
use runtime::{Fingerprinter, MemoCache};
use sw_opt::schedule::Schedule;
use tensor_ir::index::IndexId;
use tensor_ir::intrinsics::IntrinsicKind;
use tensor_ir::matching::TensorizeChoice;
use tensor_ir::workload::TensorApp;

type MemoEntry = ((u64, u64), Option<Metrics>);

/// One codec under test: a valid encoding and a decoder that reports
/// whether it accepted the bytes.
struct Codec {
    name: &'static str,
    valid: Vec<u8>,
    accepts: fn(&[u8]) -> bool,
}

fn temp_path(name: &str) -> PathBuf {
    let thread = format!("{:?}", std::thread::current().id());
    let thread: String = thread.chars().filter(char::is_ascii_digit).collect();
    std::env::temp_dir().join(format!(
        "hasco-totality-{name}-{}-{thread}",
        std::process::id()
    ))
}

fn metrics() -> Metrics {
    Metrics {
        latency_cycles: 1.0e6,
        latency_ms: 1.25,
        energy_uj: 42.5,
        power_mw: 900.0,
        area_mm2: 3.75,
        throughput_mops: 0.5,
        utilization: 0.875,
    }
}

fn request() -> CoDesignRequest {
    let app = TensorApp::new(
        "totality",
        vec![tensor_ir::suites::gemm_workload("g", 64, 32, 16)],
    );
    let input = InputDescription {
        app,
        method: GenerationMethod::Chisel(IntrinsicKind::Gemm),
        constraints: Constraints::latency_power(4.0, 900.0),
    };
    CoDesignRequest::new(input, CoDesignOptions::quick(7)).with_label("totality")
}

fn solution() -> Solution {
    let mut tiles = std::collections::BTreeMap::new();
    tiles.insert(IndexId(0), 16);
    Solution {
        accelerator: AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .pe_array(8, 8)
            .build()
            .expect("valid config"),
        per_workload: vec![WorkloadSolution {
            workload: "g".into(),
            schedule: Schedule {
                choice: TensorizeChoice {
                    intrinsic: "gemm".into(),
                    var_map: vec![(IndexId(0), IndexId(1))],
                    needs_rearrangement: false,
                },
                tiles,
                outer_order: vec![IndexId(0)],
                fuse_outer: 0,
            },
            metrics: metrics(),
            program: "gemm()".into(),
        }],
        total: metrics(),
        meets_constraints: true,
        hw_history: OptimizerResult::default(),
        stats: RunStats {
            refine_topk_trajectory: vec![2, 1],
            ..RunStats::default()
        },
    }
}

/// A trained snapshot: five observed configurations.
fn snapshot() -> SurrogateSnapshot {
    let backend = BackendKind::Surrogate.build();
    let surrogate = backend.as_surrogate().expect("surrogate tier");
    for (rows, kb) in [(8u32, 128u64), (16, 256), (32, 512), (8, 512), (32, 128)] {
        let cfg = AcceleratorConfig::builder(IntrinsicKind::Gemm)
            .pe_array(rows, rows)
            .scratchpad_kb(kb)
            .build()
            .expect("valid config");
        surrogate.observe(&cfg);
    }
    surrogate.snapshot()
}

/// `HASCOSR1` payload holding one snapshot: count, `u32` length, bytes.
fn store_payload(snap: &SurrogateSnapshot) -> Vec<u8> {
    let entry = to_bytes(snap);
    let mut payload = to_bytes(&1u64);
    (entry.len() as u32).encode(&mut payload);
    payload.extend(entry);
    payload
}

/// True when an engine restores a surrogate from `payload` framed with a
/// valid checksum.
fn store_loads(payload: &[u8]) -> bool {
    let path = temp_path("store");
    std::fs::write(&path, runtime::persist::frame(b"HASCOSR1", payload)).unwrap();
    let engine = Engine::new(EngineConfig::default().with_surrogate_store(&path));
    let restored = engine.restored_surrogate_backends() > 0;
    drop(engine);
    std::fs::remove_file(&path).ok();
    restored
}

/// A two-entry memo-cache image, as the engine persists it.
fn memo_image() -> Vec<u8> {
    let cache: MemoCache<(u64, u64), Option<Metrics>> = MemoCache::new(16);
    cache.insert_stamped((1, 2), None, 1_000);
    cache.insert_stamped((3, 4), Some(metrics()), 2_000);
    let path = temp_path("image-src");
    cache
        .save_to_file(&path, |k, v, out| (*k, *v).encode(out))
        .unwrap();
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    image
}

/// Rewrites the checksum trailer of a (possibly corrupted) memo-cache
/// image so the corruption reaches the entry parser instead of stopping
/// at the checksum.
fn with_valid_checksum(image: &[u8]) -> Vec<u8> {
    let mut image = image.to_vec();
    if image.len() >= 24 {
        let trailer = image.len() - 8;
        let mut fp = Fingerprinter::new();
        fp.write_bytes(&image[16..trailer]);
        image[trailer..].copy_from_slice(&fp.finish().0.to_le_bytes());
    }
    image
}

/// True when `MemoCache::load_from_file` loads any entry from `image`
/// (checksum recomputed). A corrupt image must be a clean cold start.
fn image_loads(image: &[u8]) -> bool {
    let path = temp_path("image");
    std::fs::write(&path, with_valid_checksum(image)).unwrap();
    let cache: MemoCache<(u64, u64), Option<Metrics>> = MemoCache::new(16);
    let loaded = cache
        .load_from_file(&path, from_bytes::<MemoEntry>)
        .expect("an existing file reads");
    std::fs::remove_file(&path).ok();
    assert_eq!(
        loaded == 0,
        cache.is_empty(),
        "a rejected image loads nothing"
    );
    loaded > 0
}

fn accepts<T: Wire>(bytes: &[u8]) -> bool {
    from_bytes::<T>(bytes).is_some()
}

fn codecs() -> &'static [Codec] {
    static CODECS: OnceLock<Vec<Codec>> = OnceLock::new();
    CODECS.get_or_init(|| {
        let snap = snapshot();
        vec![
            Codec {
                name: "CoDesignRequest",
                valid: to_bytes(&request()),
                accepts: accepts::<CoDesignRequest>,
            },
            Codec {
                name: "Solution",
                valid: to_bytes(&solution()),
                accepts: accepts::<Solution>,
            },
            Codec {
                name: "RunEvent",
                valid: to_bytes(&RunEvent::BatchEvaluated {
                    optimizer: "mobo".into(),
                    phase: "prior".into(),
                    batch: 1,
                    evaluated: 8,
                    feasible: 6,
                }),
                accepts: accepts::<RunEvent>,
            },
            Codec {
                name: "SurrogateSnapshot",
                valid: to_bytes(&snap),
                accepts: accepts::<SurrogateSnapshot>,
            },
            Codec {
                name: "memo entry",
                valid: to_bytes(&((5u64, 6u64), Some(metrics()))),
                accepts: accepts::<MemoEntry>,
            },
            Codec {
                name: "HASCOSR1 store",
                valid: store_payload(&snap),
                accepts: store_loads,
            },
            Codec {
                name: "HASCOMC2 image",
                valid: memo_image(),
                accepts: image_loads,
            },
        ]
    })
}

#[test]
fn valid_encodings_are_accepted() {
    for codec in codecs() {
        assert!((codec.accepts)(&codec.valid), "{} rejected", codec.name);
    }
}

#[test]
fn huge_counts_are_rejected_without_allocating() {
    // A snapshot whose window claims ~2^60 rows: the bound against the
    // bytes left must reject it before any allocation is sized by it.
    let valid = to_bytes(&snapshot());
    let observed_len = 13 * 8 + 6 * 8 + 1;
    let observed = u64::from_le_bytes(valid[observed_len..observed_len + 8].try_into().unwrap());
    let samples_at = observed_len + 8 + 16 * observed as usize;
    for at in [observed_len, samples_at, samples_at + 8] {
        let mut bytes = valid.clone();
        bytes[at..at + 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        assert!(
            from_bytes::<SurrogateSnapshot>(&bytes).is_none(),
            "count at {at}"
        );
    }
    // Every length-prefixed container, claiming u64::MAX elements.
    let huge = u64::MAX.to_le_bytes();
    assert!(from_bytes::<Vec<u64>>(&huge).is_none());
    assert!(from_bytes::<String>(&huge).is_none());
    assert!(!store_loads(&huge));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..600)
    ) {
        for codec in codecs() {
            let _ = (codec.accepts)(&bytes);
        }
        // Past the magic, so arbitrary bytes reach the image parser.
        let mut image = b"HASCOMC2".to_vec();
        image.extend(&bytes);
        let _ = image_loads(&image);
    }

    #[test]
    fn truncated_encodings_are_rejected(cut in any::<usize>()) {
        for codec in codecs() {
            let cut = cut % codec.valid.len();
            prop_assert!(
                !(codec.accepts)(&codec.valid[..cut]),
                "{} accepted a truncation at {}", codec.name, cut
            );
        }
    }

    #[test]
    fn corrupted_encodings_never_panic(at in any::<usize>(), mask in 1u8..255) {
        for codec in codecs() {
            let mut bytes = codec.valid.clone();
            let at = at % bytes.len();
            bytes[at] ^= mask;
            let _ = (codec.accepts)(&bytes);
        }
    }
}
