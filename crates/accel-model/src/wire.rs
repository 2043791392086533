//! [`Wire`] layouts of the accelerator-model types: the ones that cross
//! the wire, and the [`SurrogateSnapshot`] the engine persists per
//! technology in its surrogate store.

use runtime::wire::{Reader, Wire};
use runtime::{wire_enum_unit, wire_struct};

use crate::arch::{AcceleratorConfig, Dataflow, Interconnect, PeArray};
use crate::backend::SurrogateSnapshot;
use crate::tech::TechParams;
use crate::{BackendKind, Metrics};

wire_struct!(PeArray { rows, cols });
wire_enum_unit!(Interconnect {
    0 => Interconnect::None,
    1 => Interconnect::Systolic,
    2 => Interconnect::Full,
});
wire_enum_unit!(Dataflow {
    0 => Dataflow::OutputStationary,
    1 => Dataflow::WeightStationary,
    2 => Dataflow::InputStationary,
});
wire_struct!(AcceleratorConfig {
    name,
    intrinsic,
    pe,
    interconnect,
    dataflow,
    scratchpad_bytes,
    banks,
    local_mem_bytes,
    dma_burst_bytes,
    bus_width_bits,
    freq_mhz,
    dtype_bytes,
});
// The field order is also the memo-cache entry's persisted layout:
// `((u64, u64), Option<Metrics>)`.
wire_struct!(Metrics {
    latency_cycles,
    latency_ms,
    energy_uj,
    power_mw,
    area_mm2,
    throughput_mops,
    utilization,
});
wire_enum_unit!(BackendKind {
    0 => BackendKind::Analytic,
    1 => BackendKind::TraceSim,
    2 => BackendKind::Calibrated,
    3 => BackendKind::Surrogate,
});

impl Wire for TechParams {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self.to_array() {
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let mut a = [0.0f64; 13];
        for slot in &mut a {
            *slot = f64::decode(r)?;
        }
        Some(TechParams::from_array(a))
    }
}

/// The training window is written as `samples, dim`, then each row's
/// `dim` features followed by its target, so a snapshot restores
/// bit-exactly ([`crate::backend::SurrogateBackend::from_snapshot`]).
impl Wire for SurrogateSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tech.encode(out);
        self.min_train.encode(out);
        self.max_train.encode(out);
        self.trust_threshold.encode(out);
        self.generation.encode(out);
        self.digest.encode(out);
        self.cv_error.encode(out);
        self.trusted.encode(out);
        self.observed.encode(out);
        self.ys.len().encode(out);
        self.xs.first().map_or(0, Vec::len).encode(out);
        for (x, y) in self.xs.iter().zip(&self.ys) {
            for v in x {
                v.encode(out);
            }
            y.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        let tech = TechParams::decode(r)?;
        let min_train = usize::decode(r)?;
        let max_train = usize::decode(r)?;
        let trust_threshold = f64::decode(r)?;
        let generation = u64::decode(r)?;
        let digest = u64::decode(r)?;
        let cv_error = f64::decode(r)?;
        let trusted = bool::decode(r)?;
        let observed = Vec::decode(r)?;
        let samples = usize::decode(r)?;
        let dim = usize::decode(r)?;
        // Bound the window by the bytes left before allocating for it.
        if samples.checked_mul(dim.checked_add(1)?)? > r.remaining() / 8 {
            return None;
        }
        let mut xs = Vec::with_capacity(samples);
        let mut ys = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut x = Vec::with_capacity(dim);
            for _ in 0..dim {
                x.push(f64::decode(r)?);
            }
            xs.push(x);
            ys.push(f64::decode(r)?);
        }
        Some(SurrogateSnapshot {
            tech,
            min_train,
            max_train,
            trust_threshold,
            xs,
            ys,
            observed,
            cv_error,
            trusted,
            generation,
            digest,
        })
    }
}
