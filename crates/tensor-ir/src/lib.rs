//! Tensor intermediate representation for HASCO.
//!
//! This crate implements the paper's unified HW/SW IR (§IV): tensor
//! computations expressed as sum-of-products loop nests, lowered to
//! *tensor syntax trees* (TSTs), plus the two-step matching algorithm
//! (index matching + structure matching) that enumerates all legal
//! *tensorize choices* — the ways a tensor computation can be decomposed
//! into sub-workloads implementable by a hardware intrinsic.
//!
//! # Example
//!
//! ```
//! use tensor_ir::{suites, intrinsics, matching::{find_tensorize_choices, MatchOptions}};
//!
//! let conv = suites::conv2d_workload("conv", 64, 64, 56, 56, 3, 3);
//! let gemm = intrinsics::gemm_intrinsic(16, 16, 16);
//! let choices = find_tensorize_choices(&conv.comp, &gemm.comp, &MatchOptions::default());
//! assert!(!choices.is_empty());
//! ```

pub mod complexity;
pub mod expr;
pub mod index;
pub mod intrinsics;
pub mod matching;
pub mod suites;
pub mod tst;
mod wire;
pub mod workload;

pub use expr::{Access, AffineDim, Computation};
pub use index::{IndexId, IndexKind, IndexVar};
pub use matching::{find_tensorize_choices, MatchOptions, TensorizeChoice};
pub use tst::{Tst, TstOp};
pub use workload::{TensorApp, Workload};

/// Errors produced while building or validating IR objects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// An index identifier referred to a variable outside the computation's
    /// index table.
    UnknownIndex(usize),
    /// A computation's output accessed a reduction index. Output tensors may
    /// only be indexed by spatial (parallel) loop variables.
    ReductionInOutput(String),
    /// A spatial index never appears in the output access, which would make
    /// the computation semantically a reduction over that index.
    SpatialNotInOutput(String),
    /// An index variable has a zero extent.
    ZeroExtent(String),
    /// A computation had no input accesses.
    NoInputs,
    /// An affine dimension had no terms.
    EmptyAffineDim(String),
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::UnknownIndex(id) => write!(f, "unknown index id {id}"),
            IrError::ReductionInOutput(name) => {
                write!(f, "reduction index `{name}` used in output access")
            }
            IrError::SpatialNotInOutput(name) => {
                write!(
                    f,
                    "spatial index `{name}` does not appear in the output access"
                )
            }
            IrError::ZeroExtent(name) => write!(f, "index `{name}` has zero extent"),
            IrError::NoInputs => write!(f, "computation has no input accesses"),
            IrError::EmptyAffineDim(t) => {
                write!(f, "tensor `{t}` has an affine dimension with no terms")
            }
        }
    }
}

impl std::error::Error for IrError {}
