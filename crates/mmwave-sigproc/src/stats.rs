//! Statistics used by the evaluation harness: moments, percentiles, CDFs,
//! error metrics, BER counting and the Gaussian Q-function for analytic
//! bit-error-rate curves.

use serde::{Deserialize, Serialize};

/// Arithmetic mean. Returns `NaN` for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return f64::NAN;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Unbiased sample variance (n−1 denominator). `NaN` for fewer than two
/// samples.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return f64::NAN;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root-mean-square of a slice.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return f64::NAN;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// Root-mean-square error between paired samples.
///
/// # Panics
/// Panics on length mismatch.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmse: length mismatch");
    if a.is_empty() {
        return f64::NAN;
    }
    let s: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (s / a.len() as f64).sqrt()
}

/// Mean absolute error between paired samples.
pub fn mae(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "mae: length mismatch");
    if a.is_empty() {
        return f64::NAN;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64
}

/// Percentile via linear interpolation on the sorted data (the
/// "inclusive"/NIST method). `p` in `[0, 100]`.
///
/// # Panics
/// Panics if `x` is empty or `p` is out of range.
pub fn percentile(x: &[f64], p: f64) -> f64 {
    assert!(!x.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut v = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    interpolate_ranks(v.len(), p, |r| v[r])
}

/// The interpolation step of [`percentile`]: the `p`-th percentile of `n`
/// samples whose `r`-th smallest value (`r` from 0) is `at(r)`. Reads at
/// most the two ranks around `p / 100 · (n − 1)`, so a caller that knows
/// only those order statistics gets [`percentile`]'s exact arithmetic.
pub(crate) fn interpolate_ranks(n: usize, p: f64, at: impl Fn(usize) -> f64) -> f64 {
    let rank = p / 100.0 * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        at(lo)
    } else {
        let frac = rank - lo as f64;
        at(lo) * (1.0 - frac) + at(hi) * frac
    }
}

/// Maps `x` to an integer key whose unsigned order is `x`'s numeric
/// order: for non-NaN `a`, `b`, `a < b` implies `order_key(a) <
/// order_key(b)`. Equal keys are equal bit patterns, and `-0.0` keys just
/// below `+0.0` (IEEE 754 `totalOrder`), so sorting keys is a
/// tie-free, branch-free stand-in for sorting by `partial_cmp` that
/// differs from it only in where the signed zeros land. NaN gets a key
/// too (beyond ±∞), so callers must screen it out first.
pub fn order_key(x: f64) -> u64 {
    const SIGN: u64 = 1 << 63;
    let bits = x.to_bits();
    if bits & SIGN != 0 {
        !bits
    } else {
        bits | SIGN
    }
}

/// Inverse of [`order_key`]: the value (bit pattern) a key came from.
pub fn from_order_key(key: u64) -> f64 {
    const SIGN: u64 = 1 << 63;
    f64::from_bits(if key & SIGN != 0 { key & !SIGN } else { !key })
}

/// Median (50th percentile).
pub fn median(x: &[f64]) -> f64 {
    percentile(x, 50.0)
}

/// Empirical CDF evaluated at each sorted sample: returns `(value, F(value))`
/// pairs suitable for plotting (the Fig 12b angle-error CDF).
pub fn empirical_cdf(x: &[f64]) -> Vec<(f64, f64)> {
    let mut v = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len() as f64;
    v.into_iter()
        .enumerate()
        .map(|(i, val)| (val, (i + 1) as f64 / n))
        .collect()
}

/// Summary of a batch of trial errors: what the paper's error-bar plots show.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorSummary {
    /// Number of trials aggregated.
    pub trials: usize,
    /// Mean absolute error.
    pub mean: f64,
    /// Sample standard deviation of the absolute error.
    pub std_dev: f64,
    /// Median absolute error.
    pub median: f64,
    /// 90th-percentile absolute error.
    pub p90: f64,
    /// Maximum absolute error observed.
    pub max: f64,
}

impl ErrorSummary {
    /// Aggregates a slice of (already absolute) error samples.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn from_abs_errors(errors: &[f64]) -> Self {
        assert!(!errors.is_empty(), "no error samples");
        Self {
            trials: errors.len(),
            mean: mean(errors),
            std_dev: if errors.len() > 1 {
                std_dev(errors)
            } else {
                0.0
            },
            median: median(errors),
            p90: percentile(errors, 90.0),
            max: errors.iter().cloned().fold(f64::MIN, f64::max),
        }
    }

    /// Aggregates signed errors by taking absolute values first.
    pub fn from_signed_errors(errors: &[f64]) -> Self {
        let abs: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
        Self::from_abs_errors(&abs)
    }
}

/// Counts bit errors between two equal-length bit vectors.
///
/// # Panics
/// Panics on length mismatch.
pub fn count_bit_errors(tx: &[bool], rx: &[bool]) -> usize {
    assert_eq!(tx.len(), rx.len(), "bit streams differ in length");
    tx.iter().zip(rx).filter(|(a, b)| a != b).count()
}

/// Bit error rate between two bit vectors (`NaN` when empty).
pub fn bit_error_rate(tx: &[bool], rx: &[bool]) -> f64 {
    if tx.is_empty() {
        return f64::NAN;
    }
    count_bit_errors(tx, rx) as f64 / tx.len() as f64
}

/// Complementary error function, via the Abramowitz–Stegun 7.1.26 rational
/// approximation (|error| < 1.5e-7), extended to negative arguments.
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// Gaussian Q-function: `Q(x) = P(N(0,1) > x)`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Analytic BER of coherent OOK / unipolar binary signalling with threshold
/// midway between levels: `Q(√(SNR)/2)` where `snr_linear` is the ratio of
/// peak signal power to noise power.
///
/// This is the per-tone decision model for OAQFM: each tone is an
/// independent OOK channel, so the OAQFM bit error rate equals this.
pub fn ook_ber(snr_linear: f64) -> f64 {
    q_function((snr_linear).sqrt() / 2.0)
}

/// Analytic BER of non-coherent envelope-detected OOK, the decision the
/// node's MCU makes on the envelope-detector output:
/// `0.5·exp(−SNR/8) + Q(√(SNR)/2)/2` (standard approximation).
pub fn noncoherent_ook_ber(snr_linear: f64) -> f64 {
    0.5 * (-snr_linear / 8.0).exp().min(1.0) * 0.5 + 0.5 * q_function(snr_linear.sqrt() / 2.0)
}

/// Linear interpolation over a monotonically-increasing x grid.
///
/// Values outside the grid are clamped to the end values.
///
/// # Panics
/// Panics if the grids are empty or mismatched in length.
pub fn interp1(x_grid: &[f64], y_grid: &[f64], x: f64) -> f64 {
    assert!(!x_grid.is_empty() && x_grid.len() == y_grid.len());
    if x <= x_grid[0] {
        return y_grid[0];
    }
    if x >= *x_grid.last().unwrap() {
        return *y_grid.last().unwrap();
    }
    let mut i = 0;
    while x_grid[i + 1] < x {
        i += 1;
    }
    let frac = (x - x_grid[i]) / (x_grid[i + 1] - x_grid[i]);
    y_grid[i] * (1.0 - frac) + y_grid[i + 1] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_reference() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < 1e-12);
        // Population variance is 4; sample variance is 4*8/7.
        assert!((variance(&x) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_yield_nan() {
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
        assert!(rms(&[]).is_nan());
    }

    #[test]
    fn rms_of_constant() {
        assert!((rms(&[3.0, 3.0, -3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rmse_and_mae() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 4.0, 1.0];
        assert!((rmse(&a, &b) - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((mae(&a, &b) - 4.0 / 3.0).abs() < 1e-12);
        assert!((rmse(&a, &a)).abs() < 1e-15);
    }

    #[test]
    fn percentile_interpolates() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&x, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&x, 100.0) - 4.0).abs() < 1e-12);
        assert!((median(&x) - 2.5).abs() < 1e-12);
        assert!((percentile(&x, 90.0) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn order_keys_round_trip_and_follow_numeric_order() {
        let ladder = [
            f64::NEG_INFINITY,
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for pair in ladder.windows(2) {
            assert!(order_key(pair[0]) < order_key(pair[1]), "{pair:?}");
        }
        for x in ladder {
            assert_eq!(from_order_key(order_key(x)).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = [5.0, 1.0, 3.0];
        let b = [1.0, 3.0, 5.0];
        assert_eq!(percentile(&a, 50.0), percentile(&b, 50.0));
    }

    #[test]
    #[should_panic(expected = "percentile of empty slice")]
    fn percentile_rejects_empty() {
        percentile(&[], 50.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let x = [0.3, 0.1, 0.7, 0.5];
        let cdf = empirical_cdf(&x);
        assert_eq!(cdf.len(), 4);
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn error_summary_fields() {
        let e = [1.0, 2.0, 3.0, 4.0, 10.0];
        let s = ErrorSummary::from_abs_errors(&e);
        assert_eq!(s.trials, 5);
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!((s.max - 10.0).abs() < 1e-12);
        assert!(s.p90 > 4.0 && s.p90 < 10.0 + 1e-9);
    }

    #[test]
    fn error_summary_from_signed() {
        let s = ErrorSummary::from_signed_errors(&[-2.0, 2.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ber_counting() {
        let tx = [true, false, true, true];
        let rx = [true, true, true, false];
        assert_eq!(count_bit_errors(&tx, &rx), 2);
        assert!((bit_error_rate(&tx, &rx) - 0.5).abs() < 1e-12);
        assert!(bit_error_rate(&[], &[]).is_nan());
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    #[test]
    fn q_function_reference_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-9);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-5);
        assert!((q_function(3.0) - 1.349_9e-3).abs() < 1e-6);
    }

    #[test]
    fn ook_ber_monotone_in_snr() {
        let mut prev = 1.0;
        for snr_db in [0.0, 5.0, 10.0, 15.0, 20.0] {
            let snr = 10f64.powf(snr_db / 10.0);
            let ber = ook_ber(snr);
            assert!(ber < prev, "BER should fall with SNR");
            prev = ber;
        }
    }

    #[test]
    fn ook_ber_at_high_snr_is_tiny() {
        // ~22 dB SNR → BER below 1e-8 (the Fig 14 threshold annotation).
        let ber = ook_ber(10f64.powf(22.0 / 10.0));
        assert!(ber < 1e-8, "ber {ber}");
    }

    #[test]
    fn noncoherent_worse_than_coherent() {
        for snr_db in [6.0, 10.0, 14.0] {
            let snr = 10f64.powf(snr_db / 10.0);
            assert!(noncoherent_ook_ber(snr) >= ook_ber(snr));
        }
    }

    #[test]
    fn interp1_basics() {
        let xg = [0.0, 1.0, 2.0];
        let yg = [0.0, 10.0, 40.0];
        assert!((interp1(&xg, &yg, 0.5) - 5.0).abs() < 1e-12);
        assert!((interp1(&xg, &yg, 1.5) - 25.0).abs() < 1e-12);
        assert_eq!(interp1(&xg, &yg, -1.0), 0.0);
        assert_eq!(interp1(&xg, &yg, 3.0), 40.0);
    }
}
