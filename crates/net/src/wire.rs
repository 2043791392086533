//! The protocol's binary codec, re-exported from [`runtime::wire`].
//!
//! Every type that crosses the wire implements [`Wire`] in the crate
//! that owns it (`tensor-ir`, `accel-model`, `sw-opt`, `dse`, `hasco`,
//! `runtime`), each in its own `wire` module, beside the type; only
//! [`crate::proto::Msg`] is implemented here. The codec is the same one
//! the memo cache and the surrogate store persist with. Framing,
//! checksumming, and truncation handling live a layer down in
//! [`runtime::persist`]; decode assumes a checksum-validated payload and
//! returns `None` on any structural mismatch, which the transport
//! surfaces as a protocol error.

pub use runtime::wire::{from_bytes, to_bytes, Reader, Wire};

#[cfg(test)]
mod tests {
    use super::*;
    use accel_model::BackendKind;
    use hasco::codesign::CoDesignOptions;
    use hasco::engine::CoDesignRequest;
    use hasco::event::{CampaignEvent, RunEvent};
    use hasco::input::{Constraints, GenerationMethod, InputDescription};
    use hasco::HascoError;
    use tensor_ir::intrinsics::IntrinsicKind;
    use tensor_ir::workload::TensorApp;

    fn roundtrip<T: Wire + std::fmt::Debug>(value: &T) -> T {
        let bytes = to_bytes(value);
        from_bytes(&bytes).expect("round trip decodes")
    }

    /// Debug output for these types prints floats in shortest-round-trip
    /// form, so Debug equality is bit equality for everything we care
    /// about (no NaNs in the domain).
    fn assert_roundtrip<T: Wire + std::fmt::Debug>(value: &T) {
        assert_eq!(format!("{value:?}"), format!("{:?}", roundtrip(value)));
    }

    #[test]
    fn primitives_round_trip() {
        assert_roundtrip(&0u8);
        assert_roundtrip(&u64::MAX);
        assert_roundtrip(&(-0.0f64));
        assert_roundtrip(&1.000000000000004f64);
        assert_roundtrip(&Some("labelled".to_string()));
        assert_roundtrip(&Option::<u64>::None);
        assert_roundtrip(&vec![1usize, 2, 3]);
    }

    #[test]
    fn request_and_workload_round_trip() {
        let app = TensorApp::new(
            "toy",
            vec![
                tensor_ir::suites::gemm_workload("g", 64, 32, 16),
                tensor_ir::suites::gemm_workload("h", 8, 8, 8),
            ],
        );
        let input = InputDescription {
            app,
            method: GenerationMethod::Chisel(IntrinsicKind::Gemm),
            constraints: Constraints::latency_power(4.0, 900.0),
        };
        let mut opts = CoDesignOptions::quick(1234);
        opts.refine_top_k = 2;
        opts.refine_backend = BackendKind::TraceSim;
        let request = CoDesignRequest::new(input, opts).with_label("wire-test");
        let back: CoDesignRequest = roundtrip(&request);
        // The request fingerprint hashes everything evaluation sees, so
        // fingerprint equality is the strongest round-trip check we have.
        assert_eq!(request.fingerprint(), back.fingerprint());
        assert_eq!(request.label, back.label);
    }

    #[test]
    fn events_and_errors_round_trip() {
        assert_roundtrip(&RunEvent::Started {
            label: "x".into(),
            workloads: 3,
        });
        assert_roundtrip(&RunEvent::Solved {
            meets_constraints: true,
            latency_ms: 1.25,
        });
        assert_roundtrip(&RunEvent::Cancelled);
        assert_roundtrip(&CampaignEvent::ScenarioDone {
            label: "a".into(),
            shared_with: Some("b".into()),
            completed: 2,
            total: 9,
        });
        assert_roundtrip(&HascoError::InvalidOptions("bad".into()));
        assert_roundtrip(&HascoError::Transport("conn reset".into()));
        let res: Result<u64, HascoError> = Err(HascoError::Cancelled);
        assert_roundtrip(&res);
    }

    #[test]
    fn trailing_garbage_and_truncation_are_rejected() {
        let mut bytes = to_bytes(&RunEvent::Cancelled);
        assert!(from_bytes::<RunEvent>(&bytes).is_some());
        bytes.push(7);
        assert!(from_bytes::<RunEvent>(&bytes).is_none());
        let event = to_bytes(&RunEvent::Started {
            label: "abc".into(),
            workloads: 1,
        });
        assert!(from_bytes::<RunEvent>(&event[..event.len() - 1]).is_none());
        assert!(from_bytes::<RunEvent>(&[99]).is_none());
    }
}
