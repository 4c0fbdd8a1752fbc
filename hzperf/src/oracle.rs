//! Output oracles. Every op the benchmark runs is judged here, and a failed
//! op is counted against the attempts, never dropped.
//!
//! An op fails on a typed error, a rank panic it did not seed, ranks that
//! disagree, a contributor set or epoch that differs from the seeded
//! victims, or a point-wise error above the op's documented bound.

/// The oracle's judgement of one op.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Worst point-wise error divided by the op's documented bound (plus
    /// the f32 store slack); `<= 1` on a correct op.
    pub max_err_over_bound: f64,
    /// The first thing found wrong; `None` when the op is correct.
    pub failure: Option<String>,
}

impl Verdict {
    pub fn failed(msg: String) -> Verdict {
        Verdict { max_err_over_bound: f64::NAN, failure: Some(msg) }
    }
}

/// Largest `|got[i] - want(i)|` and largest `|want(i)|`, in f64.
pub fn max_abs_err(got: &[f32], want: impl Fn(usize) -> f64) -> (f64, f64) {
    let mut err = 0f64;
    let mut mag = 0f64;
    for (i, &g) in got.iter().enumerate() {
        let w = want(i);
        let d = (f64::from(g) - w).abs();
        // f64::max ignores NaN, so a NaN output is made infinitely wrong
        err = if d.is_nan() { f64::INFINITY } else { err.max(d) };
        mag = mag.max(w.abs());
    }
    (err, mag)
}

/// Judge a value against its f64 reference and documented bound. Storing
/// the result as f32 may add up to one ulp of the largest reference value,
/// the slack the repository's own tests allow on top of every bound.
pub fn judge_error(got: &[f32], want: impl Fn(usize) -> f64, bound: f64) -> Verdict {
    let (err, mag) = max_abs_err(got, want);
    let limit = bound + mag * f64::from(f32::EPSILON);
    let ratio = err / limit;
    let failure = (ratio.is_nan() || ratio > 1.0)
        .then(|| format!("max error {err:e} exceeds the bound {bound:e} (+ulp slack {limit:e})"));
    Verdict { max_err_over_bound: ratio, failure }
}

/// Worst-case error of an uncompressed f32 sum of `terms` values whose
/// absolute values sum to at most `abs_sum`: `terms * u * abs_sum` with unit
/// roundoff `u = 2^-24` (the classical recursive-summation bound).
pub fn f32_sum_bound(terms: usize, abs_sum: f64) -> f64 {
    terms as f64 * f64::from(f32::EPSILON) / 2.0 * abs_sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_within_bound_passes_and_perturbation_fails() {
        let want = [1.0f64, 2.0, 3.0];
        let got = [1.0f32, 2.05, 3.0];
        let ok = judge_error(&got, |i| want[i], 0.1);
        assert!(ok.failure.is_none());
        assert!((ok.max_err_over_bound - 0.5).abs() < 1e-3);
        let bad = judge_error(&[1.0, 2.5, 3.0], |i| want[i], 0.1);
        assert!(bad.failure.is_some());
        assert!(bad.max_err_over_bound > 1.0);
    }

    #[test]
    fn nan_output_fails() {
        let v = judge_error(&[f32::NAN], |_| 0.0, 1.0);
        assert!(v.failure.is_some());
    }
}
