//! The software primitives of §VI-A: `split`, `reorder`, `fuse`,
//! `tensorize`.
//!
//! A primitive sequence is the *skeleton* of an optimization; concrete
//! factors make it a schedule. In this reproduction the canonical schedule
//! representation is [`crate::schedule::Schedule`]; this module provides
//! the sequence view of a schedule (the paper's Fig. 5(c)) used by reports,
//! code generation, and tests.

use tensor_ir::IndexId;

/// One software primitive with its factors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwPrimitive {
    /// Split a loop into an outer tile loop and an inner (tensorized) loop.
    Split {
        /// The loop being split.
        index: IndexId,
        /// The outer trip count.
        outer: u64,
        /// The inner (tile) size.
        inner: u64,
    },
    /// Interchange the outer loops into the given order.
    Reorder {
        /// Outer loops, outermost first.
        order: Vec<IndexId>,
    },
    /// Fuse the `count` outermost loops into one (for launch overhead /
    /// parallelism bookkeeping).
    Fuse {
        /// How many outermost loops are fused.
        count: usize,
    },
    /// Mark the inner loops as the tensorized sub-workload executed by the
    /// hardware interface.
    Tensorize {
        /// The tensorized loops with their tile sizes.
        tiles: Vec<(IndexId, u64)>,
        /// The intrinsic name.
        intrinsic: String,
    },
}

impl std::fmt::Display for SwPrimitive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwPrimitive::Split {
                index,
                outer,
                inner,
            } => {
                write!(f, "split({index} -> [{outer}, {inner}])")
            }
            SwPrimitive::Reorder { order } => {
                let names: Vec<String> = order.iter().map(|i| i.to_string()).collect();
                write!(f, "reorder({})", names.join(", "))
            }
            SwPrimitive::Fuse { count } => write!(f, "fuse(outer {count})"),
            SwPrimitive::Tensorize { tiles, intrinsic } => {
                let ts: Vec<String> = tiles.iter().map(|(i, t)| format!("{i}:{t}")).collect();
                write!(f, "tensorize[{intrinsic}]({})", ts.join(", "))
            }
        }
    }
}

/// A primitive sequence — the skeleton plus factors of one optimization.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PrimitiveSequence {
    /// The primitives in application order.
    pub primitives: Vec<SwPrimitive>,
}

impl PrimitiveSequence {
    /// Number of primitives.
    pub fn len(&self) -> usize {
        self.primitives.len()
    }

    /// True when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.primitives.is_empty()
    }

    /// The skeleton: primitive names without factors (used to compare
    /// "combinations of the primitive sequence" during revision).
    pub fn skeleton(&self) -> Vec<&'static str> {
        self.primitives
            .iter()
            .map(|p| match p {
                SwPrimitive::Split { .. } => "split",
                SwPrimitive::Reorder { .. } => "reorder",
                SwPrimitive::Fuse { .. } => "fuse",
                SwPrimitive::Tensorize { .. } => "tensorize",
            })
            .collect()
    }
}

impl std::fmt::Display for PrimitiveSequence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let items: Vec<String> = self.primitives.iter().map(|p| p.to_string()).collect();
        write!(f, "[{}]", items.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_paper_like() {
        let p = SwPrimitive::Split {
            index: IndexId(2),
            outer: 2,
            inner: 32,
        };
        assert_eq!(p.to_string(), "split(i2 -> [2, 32])");
        let t = SwPrimitive::Tensorize {
            tiles: vec![(IndexId(0), 16), (IndexId(1), 32)],
            intrinsic: "gemm".into(),
        };
        assert_eq!(t.to_string(), "tensorize[gemm](i0:16, i1:32)");
    }

    #[test]
    fn skeleton_names() {
        let seq = PrimitiveSequence {
            primitives: vec![
                SwPrimitive::Split {
                    index: IndexId(0),
                    outer: 2,
                    inner: 8,
                },
                SwPrimitive::Reorder {
                    order: vec![IndexId(0), IndexId(1)],
                },
                SwPrimitive::Fuse { count: 2 },
                SwPrimitive::Tensorize {
                    tiles: vec![],
                    intrinsic: "gemm".into(),
                },
            ],
        };
        assert_eq!(
            seq.skeleton(),
            vec!["split", "reorder", "fuse", "tensorize"]
        );
        assert_eq!(seq.len(), 4);
        assert!(!seq.is_empty());
    }

    #[test]
    fn sequence_display_joins() {
        let seq = PrimitiveSequence {
            primitives: vec![SwPrimitive::Fuse { count: 3 }],
        };
        assert_eq!(seq.to_string(), "[fuse(outer 3)]");
    }
}
