//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks; `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let last = v.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Samples strictly above the `q`-quantile must number at least this
/// many before the quantile is reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile, or `None` while fewer than [`MIN_BEYOND`] samples
/// lie beyond it.
pub fn reportable_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let beyond = (samples.len() as f64 * (1.0 - q)).floor() as usize;
    if beyond < MIN_BEYOND {
        return None;
    }
    quantile(samples, q)
}

/// Geometric mean of positive values (`0.0` for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), Some(4.6));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(reportable_quantile(&v, 0.5), None);
        let v: Vec<f64> = (0..20).map(f64::from).collect();
        assert!(reportable_quantile(&v, 0.5).is_some());
        assert_eq!(reportable_quantile(&v, 0.9), None);
    }
}
