//! [`Wire`] layouts of the tensor IR types that cross the wire.

use runtime::wire::{Reader, Wire};
use runtime::{wire_enum_unit, wire_struct};

use crate::expr::{Access, AffineDim, Computation};
use crate::index::{IndexId, IndexKind, IndexVar};
use crate::intrinsics::IntrinsicKind;
use crate::matching::TensorizeChoice;
use crate::workload::{TensorApp, Workload};

impl Wire for IndexId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Option<Self> {
        usize::decode(r).map(IndexId)
    }
}

wire_enum_unit!(IndexKind {
    0 => IndexKind::Spatial,
    1 => IndexKind::Reduction,
});
wire_struct!(IndexVar { name, extent, kind });
wire_struct!(AffineDim { terms });
wire_struct!(Access { tensor, dims });
wire_struct!(Computation {
    name,
    indices,
    output,
    inputs,
});
wire_struct!(Workload { name, comp });
wire_struct!(TensorApp { name, workloads });
wire_enum_unit!(IntrinsicKind {
    0 => IntrinsicKind::Dot,
    1 => IntrinsicKind::Gemv,
    2 => IntrinsicKind::Gemm,
    3 => IntrinsicKind::Conv2d,
});
wire_struct!(TensorizeChoice {
    intrinsic,
    var_map,
    needs_rearrangement,
});
