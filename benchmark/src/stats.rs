//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly beyond the `q`-quantile — the guide's
/// "at least ten samples beyond it" rule is checked against this.
pub fn samples_beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!(median(&[]).is_nan());
        let many: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&many, 0.9), 91.0);
        assert_eq!(samples_beyond(&many, 0.9), 10);
    }
}
