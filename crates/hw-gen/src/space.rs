//! Hardware design spaces: discrete parameter grids over primitive factors.
//!
//! "The primitive factors (accelerator parameters) compose the design
//! space" (§V-A). A design point is a vector of choice indices, one per
//! dimension; generators decode points into accelerator configurations.

use accel_model::AcceleratorConfig;
use rand::Rng;

use crate::GenError;

/// One discrete parameter dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDim {
    /// Parameter name (`"pe_rows"`, `"spad_kb"`, ...).
    pub name: String,
    /// The legal values, in increasing "capability" order where meaningful.
    pub choices: Vec<u64>,
}

impl ParamDim {
    /// Creates a dimension.
    pub fn new(name: impl Into<String>, choices: Vec<u64>) -> Self {
        assert!(!choices.is_empty(), "parameter dimension must have choices");
        ParamDim {
            name: name.into(),
            choices,
        }
    }

    /// Number of choices.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Always false (dimensions are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }
}

/// A point in a design space: one choice index per dimension.
pub type DesignPoint = Vec<usize>;

/// A discrete hardware design space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HwDesignSpace {
    /// The dimensions, in decode order.
    pub dims: Vec<ParamDim>,
}

impl HwDesignSpace {
    /// Creates a space from dimensions.
    pub fn new(dims: Vec<ParamDim>) -> Self {
        HwDesignSpace { dims }
    }

    /// Total number of design points (product of choice counts).
    pub fn size(&self) -> u64 {
        self.dims.iter().map(|d| d.len() as u64).product()
    }

    /// Number of dimensions.
    pub fn len(&self) -> usize {
        self.dims.len()
    }

    /// True when the space has no dimensions.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// Validates a point's shape and ranges.
    ///
    /// # Errors
    /// Returns [`GenError::DimensionMismatch`] or
    /// [`GenError::ChoiceOutOfRange`].
    pub fn validate(&self, point: &DesignPoint) -> Result<(), GenError> {
        if point.len() != self.dims.len() {
            return Err(GenError::DimensionMismatch {
                expected: self.dims.len(),
                got: point.len(),
            });
        }
        for (dim, (&coord, d)) in point.iter().zip(self.dims.iter()).enumerate() {
            if coord >= d.len() {
                return Err(GenError::ChoiceOutOfRange { dim, value: coord });
            }
        }
        Ok(())
    }

    /// Decodes a point into parameter values.
    ///
    /// # Errors
    /// Propagates validation errors.
    pub fn values(&self, point: &DesignPoint) -> Result<Vec<u64>, GenError> {
        self.validate(point)?;
        Ok(point
            .iter()
            .zip(self.dims.iter())
            .map(|(&c, d)| d.choices[c])
            .collect())
    }

    /// Value of a named parameter at a point.
    pub fn value_of(&self, point: &DesignPoint, name: &str) -> Option<u64> {
        let idx = self.dims.iter().position(|d| d.name == name)?;
        point.get(idx).map(|&c| self.dims[idx].choices[c])
    }

    /// Uniformly random point.
    pub fn random_point<R: Rng + ?Sized>(&self, rng: &mut R) -> DesignPoint {
        self.dims
            .iter()
            .map(|d| rng.gen_range(0..d.len()))
            .collect()
    }

    /// All single-step neighbors (±1 in one dimension).
    pub fn neighbors(&self, point: &DesignPoint) -> Vec<DesignPoint> {
        let mut out = Vec::new();
        for (i, &c) in point.iter().enumerate() {
            if c > 0 {
                let mut p = point.clone();
                p[i] = c - 1;
                out.push(p);
            }
            if c + 1 < self.dims[i].len() {
                let mut p = point.clone();
                p[i] = c + 1;
                out.push(p);
            }
        }
        out
    }

    /// Normalizes a point to `[0, 1]^d` (inputs for the GP surrogate).
    pub fn normalize(&self, point: &DesignPoint) -> Vec<f64> {
        point
            .iter()
            .zip(self.dims.iter())
            .map(|(&c, d)| {
                if d.len() <= 1 {
                    0.0
                } else {
                    c as f64 / (d.len() - 1) as f64
                }
            })
            .collect()
    }

    /// Iterates over every point in the space (use only for small spaces,
    /// e.g. the ground-truth sweeps of Fig. 8/9).
    pub fn iter_all(&self) -> impl Iterator<Item = DesignPoint> + '_ {
        let sizes: Vec<usize> = self.dims.iter().map(ParamDim::len).collect();
        GridIter {
            sizes,
            current: vec![0; self.dims.len()],
            done: self.dims.is_empty(),
        }
    }
}

struct GridIter {
    sizes: Vec<usize>,
    current: Vec<usize>,
    done: bool,
}

impl Iterator for GridIter {
    type Item = DesignPoint;

    fn next(&mut self) -> Option<DesignPoint> {
        if self.done {
            return None;
        }
        let out = self.current.clone();
        // Odometer increment.
        let mut i = self.sizes.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            self.current[i] += 1;
            if self.current[i] < self.sizes[i] {
                break;
            }
            self.current[i] = 0;
        }
        Some(out)
    }
}

/// A hardware generator: owns a design space and decodes points into
/// accelerator configurations (the paper's off-the-shelf generators expose
/// "a number of optimization knobs").
pub trait Generator {
    /// Generator name (used in reports).
    fn name(&self) -> &str;

    /// The generator's design space.
    fn space(&self) -> &HwDesignSpace;

    /// Decodes a design point into a concrete accelerator.
    ///
    /// # Errors
    /// Returns [`GenError`] for malformed points or illegal configurations.
    fn generate(&self, point: &DesignPoint) -> Result<AcceleratorConfig, GenError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn space() -> HwDesignSpace {
        HwDesignSpace::new(vec![
            ParamDim::new("a", vec![1, 2, 4]),
            ParamDim::new("b", vec![10, 20]),
        ])
    }

    #[test]
    fn size_is_product() {
        assert_eq!(space().size(), 6);
        assert_eq!(space().len(), 2);
    }

    #[test]
    fn values_decode() {
        let s = space();
        assert_eq!(s.values(&vec![2, 1]).unwrap(), vec![4, 20]);
        assert_eq!(s.value_of(&vec![2, 1], "b"), Some(20));
        assert_eq!(s.value_of(&vec![2, 1], "zzz"), None);
    }

    #[test]
    fn validate_rejects_bad_points() {
        let s = space();
        assert!(matches!(
            s.validate(&vec![0]).unwrap_err(),
            GenError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        ));
        assert!(matches!(
            s.validate(&vec![3, 0]).unwrap_err(),
            GenError::ChoiceOutOfRange { dim: 0, value: 3 }
        ));
    }

    #[test]
    fn neighbors_step_one_dim() {
        let s = space();
        let n = s.neighbors(&vec![1, 0]);
        assert!(n.contains(&vec![0, 0]));
        assert!(n.contains(&vec![2, 0]));
        assert!(n.contains(&vec![1, 1]));
        assert_eq!(n.len(), 3);
    }

    #[test]
    fn normalize_maps_to_unit_cube() {
        let s = space();
        assert_eq!(s.normalize(&vec![0, 0]), vec![0.0, 0.0]);
        assert_eq!(s.normalize(&vec![2, 1]), vec![1.0, 1.0]);
        assert_eq!(s.normalize(&vec![1, 0]), vec![0.5, 0.0]);
    }

    #[test]
    fn iter_all_covers_space_once() {
        let s = space();
        let all: Vec<_> = s.iter_all().collect();
        assert_eq!(all.len(), 6);
        let set: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn random_points_are_valid() {
        let s = space();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            let p = s.random_point(&mut rng);
            assert!(s.validate(&p).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "must have choices")]
    fn empty_dim_panics() {
        let _ = ParamDim::new("x", vec![]);
    }
}
