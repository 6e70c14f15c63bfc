//! Detection primitives: peak finding with sub-bin interpolation, threshold
//! crossings, energy detection and cross-correlation.
//!
//! The localization pipeline finds the node's beat-frequency peak in a
//! background-subtracted spectrum; the node's MCU finds the two power peaks
//! of the triangular chirp; the uplink receiver detects symbol energy.
//! Every one of those reduces to the helpers in this module.

use crate::complex::Complex;

/// A located peak in a sampled sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Integer sample index of the local maximum.
    pub index: usize,
    /// Sub-sample refined position (quadratic interpolation), in samples.
    pub position: f64,
    /// Interpolated peak value.
    pub value: f64,
}

/// Finds the global maximum of a real slice, with quadratic (parabolic)
/// interpolation of the true peak position between samples.
///
/// Returns `None` for an empty slice.
pub fn find_peak(x: &[f64]) -> Option<Peak> {
    if x.is_empty() {
        return None;
    }
    let mut idx = 0;
    for (i, &v) in x.iter().enumerate() {
        if v > x[idx] {
            idx = i;
        }
    }
    Some(refine_peak(x, idx))
}

/// Quadratically refines the position of a local maximum at `idx`.
///
/// Fits a parabola through the sample and its two neighbours; at the edges
/// the integer position is returned unchanged.
pub fn refine_peak(x: &[f64], idx: usize) -> Peak {
    if idx == 0 || idx + 1 >= x.len() {
        return Peak {
            index: idx,
            position: idx as f64,
            value: x[idx],
        };
    }
    let (a, b, c) = (x[idx - 1], x[idx], x[idx + 1]);
    let denom = a - 2.0 * b + c;
    if denom.abs() < 1e-300 {
        return Peak {
            index: idx,
            position: idx as f64,
            value: b,
        };
    }
    let delta = 0.5 * (a - c) / denom;
    // Clamp: a true local max interpolates within ±0.5 samples.
    let delta = delta.clamp(-0.5, 0.5);
    let value = b - 0.25 * (a - c) * delta;
    Peak {
        index: idx,
        position: idx as f64 + delta,
        value,
    }
}

/// Finds all local maxima above `threshold`, separated by at least
/// `min_separation` samples, ordered by descending value.
pub fn find_peaks(x: &[f64], threshold: f64, min_separation: usize) -> Vec<Peak> {
    let mut candidates: Vec<Peak> = Vec::new();
    for i in 1..x.len().saturating_sub(1) {
        if x[i] >= threshold && x[i] > x[i - 1] && x[i] >= x[i + 1] {
            candidates.push(refine_peak(x, i));
        }
    }
    candidates.sort_by(|a, b| b.value.partial_cmp(&a.value).unwrap());
    // Greedy non-maximum suppression.
    let mut kept: Vec<Peak> = Vec::new();
    for c in candidates {
        if kept
            .iter()
            .all(|k| k.index.abs_diff(c.index) >= min_separation)
        {
            kept.push(c);
        }
    }
    kept
}

/// Returns the two strongest peaks separated by at least `min_separation`
/// samples — exactly what the node's orientation estimator needs from its
/// envelope-detector trace. Returned in time order (earlier peak first).
pub fn two_strongest_peaks(x: &[f64], min_separation: usize) -> Option<(Peak, Peak)> {
    let peaks = find_peaks(x, f64::NEG_INFINITY, min_separation);
    if peaks.len() < 2 {
        return None;
    }
    let (a, b) = (peaks[0], peaks[1]);
    Some(if a.position <= b.position {
        (a, b)
    } else {
        (b, a)
    })
}

/// Mean energy (mean of squares) of a real slice.
pub fn energy(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64
}

/// Mean magnitude-squared energy of a complex slice.
pub fn energy_complex(x: &[Complex]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64
}

/// Mean value of each consecutive chunk of `chunk` samples — the integrate-
/// and-dump operation a symbol-rate receiver performs.
///
/// Trailing samples that do not fill a whole chunk are discarded.
///
/// # Panics
/// Panics if `chunk == 0`.
pub fn integrate_and_dump(x: &[f64], chunk: usize) -> Vec<f64> {
    let mut out = Vec::new();
    integrate_and_dump_into(x, chunk, &mut out);
    out
}

/// [`integrate_and_dump`] into a caller-owned buffer (cleared first), so a
/// receiver that decides packet after packet reuses one allocation.
///
/// # Panics
/// Panics if `chunk == 0`.
pub fn integrate_and_dump_into(x: &[f64], chunk: usize, out: &mut Vec<f64>) {
    assert!(chunk > 0, "chunk size must be positive");
    out.clear();
    out.extend(
        x.chunks_exact(chunk)
            .map(|c| c.iter().sum::<f64>() / chunk as f64),
    );
}

/// Above this many multiply-adds the direct O(len_a·len_b) correlation
/// loses to three planned FFTs; [`xcorr`] switches implementations here.
const XCORR_FFT_THRESHOLD: usize = 1 << 14;

/// Full (linear) cross-correlation of two real signals.
///
/// `out[k] = Σ_n a[n]·b[n - (k - (len_b-1))]` — standard "full" mode with
/// output length `len_a + len_b - 1`. Lag zero sits at index `len_b - 1`.
///
/// Small inputs use the exact direct sum; once `len_a·len_b` exceeds
/// `XCORR_FFT_THRESHOLD` the product is evaluated by planned FFTs
/// (zero-pad to a power of two, multiply `FFT(a)` by `conj`-free
/// `FFT(rev b)`, inverse-transform), which agrees with the direct sum to
/// FFT round-off (~1e-13 relative) at a cost of `O(m log m)` instead of
/// `O(len_a·len_b)`.
pub fn xcorr(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let n = a.len() + b.len() - 1;
    if a.len().saturating_mul(b.len()) > XCORR_FFT_THRESHOLD {
        return xcorr_fft(a, b, n);
    }
    let mut out = vec![0.0; n];
    for (i, &av) in a.iter().enumerate() {
        for (j, &bv) in b.iter().enumerate() {
            out[i + b.len() - 1 - j] += av * bv;
        }
    }
    out
}

/// FFT fast path for [`xcorr`]: correlation as convolution with the
/// reversed second signal, via one shared plan and a reused scratch buffer.
fn xcorr_fft(a: &[f64], b: &[f64], n: usize) -> Vec<f64> {
    use crate::complex::ZERO;
    use crate::fft::{Direction, FftPlanner};
    let m = n.next_power_of_two();
    let plan = FftPlanner::plan(m);
    let mut scratch = vec![0.0f64; plan.scratch_len()];
    let mut fa = vec![ZERO; m];
    for (slot, &v) in fa.iter_mut().zip(a) {
        slot.re = v;
    }
    plan.process_with_scratch(&mut fa, &mut scratch, Direction::Forward);
    let mut fb = vec![ZERO; m];
    for (slot, &v) in fb.iter_mut().zip(b.iter().rev()) {
        slot.re = v;
    }
    plan.process_with_scratch(&mut fb, &mut scratch, Direction::Forward);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x *= *y;
    }
    plan.process_with_scratch(&mut fa, &mut scratch, Direction::Inverse);
    fa.truncate(n);
    fa.iter().map(|z| z.re).collect()
}

/// The lag (in samples, possibly negative) at which `b` best aligns with
/// `a`, from the peak of their cross-correlation.
pub fn best_lag(a: &[f64], b: &[f64]) -> Option<f64> {
    let c = xcorr(a, b);
    let p = find_peak(&c)?;
    Some(p.position - (b.len() as f64 - 1.0))
}

/// Estimates an on/off slicing threshold for a two-level trace: midway
/// between the robust bright (90th percentile) and dark (10th percentile)
/// levels. Returns `None` for empty traces, for traces with no contrast
/// (the levels do not differ by a positive amount, which also covers
/// levels that are both infinite), and for traces holding a NaN: a NaN
/// sample has no place in the order, so the trace has no measurable
/// contrast.
///
/// The result equals `(percentile(trace, 90) + percentile(trace, 10)) / 2`
/// bit for bit. The order statistics come from
/// [`order_key`](crate::stats::order_key)s instead of a `partial_cmp`
/// sort: integer keys sort without branches on ties, and they order the
/// values exactly as `partial_cmp` does except that every `-0.0` lands
/// before every `+0.0`, where a stable sort keeps input order. So the two
/// percentile levels can differ from the sorting path only in the sign of
/// a zero, and with `hi > lo` a zero operand never sets the sum. (±∞ keys
/// order like any other value; the same interpolation then runs on the
/// same operands.)
///
/// Allocates one key buffer for traces longer than 71 samples; see
/// [`midpoint_threshold_with`] to reuse one.
pub fn midpoint_threshold(trace: &[f64]) -> Option<f64> {
    midpoint_threshold_with(trace, &mut Vec::new())
}

/// [`midpoint_threshold`] with a caller-owned key buffer. Traces of up to
/// 71 samples (a 16-byte packet is 64 symbols) need only the eight least
/// and eight greatest keys, which comparator networks find without
/// touching `keys`; longer traces sort all their keys in it.
pub fn midpoint_threshold_with(trace: &[f64], keys: &mut Vec<u64>) -> Option<f64> {
    use crate::stats::{from_order_key, interpolate_ranks};
    let n = trace.len();
    if n == 0 {
        return None;
    }
    let rank = |p: f64| p / 100.0 * (n - 1) as f64;
    let (hi, lo) = if rank(10.0).ceil() < 8.0 && (n - 1) as f64 - rank(90.0).floor() < 8.0 {
        // `least[r]` is rank r; `greatest` holds ranks n−8..n ascending.
        let (least, greatest) = tails_of_eight(trace)?;
        (
            interpolate_ranks(n, 90.0, |r| from_order_key(greatest[r + 8 - n])),
            interpolate_ranks(n, 10.0, |r| from_order_key(least[r])),
        )
    } else {
        if trace.iter().any(|x| x.is_nan()) {
            return None;
        }
        keys.clear();
        keys.extend(trace.iter().map(|&x| crate::stats::order_key(x)));
        keys.sort_unstable();
        (
            interpolate_ranks(n, 90.0, |r| from_order_key(keys[r])),
            interpolate_ranks(n, 10.0, |r| from_order_key(keys[r])),
        )
    };
    // A NaN difference (both levels +∞, or a −∞/+∞ interpolation) is no
    // contrast either.
    (hi - lo > 0.0).then(|| (hi + lo) / 2.0)
}

/// The eight least and the eight greatest [`order_key`](crate::stats::order_key)s
/// of `trace`, each ascending, or `None` if the trace holds a NaN. Slots
/// the trace cannot fill (fewer than eight samples) hold `u64::MAX` in
/// the first array and `0` in the second — keys no non-NaN value maps
/// to.
///
/// Each block of eight keys is sorted by Knuth's 19-comparator network and
/// merged into both running tails: the element-wise minimum (maximum) of
/// a sorted tail and the reversed sorted block is a bitonic sequence
/// holding the eight least (greatest) of the sixteen, and a 12-comparator
/// bitonic merger sorts it. Every comparator is a branch-free min/max on
/// fixed slots, so the cost does not depend on the data.
fn tails_of_eight(trace: &[f64]) -> Option<([u64; 8], [u64; 8])> {
    let mut least = [u64::MAX; 8];
    let mut greatest = [0u64; 8];
    let mut nan = false;
    for chunk in trace.chunks(8) {
        let mut block = [u64::MAX; 8];
        for (slot, &x) in block.iter_mut().zip(chunk) {
            nan |= x.is_nan();
            *slot = crate::stats::order_key(x);
        }
        sort8(&mut block);
        for (i, slot) in least.iter_mut().enumerate() {
            *slot = (*slot).min(block[7 - i]);
        }
        merge_bitonic8(&mut least);
        if chunk.len() < 8 {
            // The padding must lose to every key on this side too: the
            // sorted keys move to the top, zeros fill in below.
            let len = chunk.len();
            block.copy_within(..len, 8 - len);
            block[..8 - len].fill(0);
        }
        for (i, slot) in greatest.iter_mut().enumerate() {
            *slot = (*slot).max(block[7 - i]);
        }
        merge_bitonic8(&mut greatest);
    }
    (!nan).then_some((least, greatest))
}

/// One comparator: slot `i` takes the smaller key, slot `j` the larger.
#[inline(always)]
fn compare_exchange(a: &mut [u64; 8], i: usize, j: usize) {
    let (x, y) = (a[i], a[j]);
    a[i] = x.min(y);
    a[j] = x.max(y);
}

/// Sorts eight keys ascending with the optimal 19-comparator network
/// (written out: a loop over a comparator table is not fully unrolled).
#[inline(always)]
#[rustfmt::skip]
fn sort8(a: &mut [u64; 8]) {
    let cx = compare_exchange;
    cx(a, 0, 2); cx(a, 1, 3); cx(a, 4, 6); cx(a, 5, 7);
    cx(a, 0, 4); cx(a, 1, 5); cx(a, 2, 6); cx(a, 3, 7);
    cx(a, 0, 1); cx(a, 2, 3); cx(a, 4, 5); cx(a, 6, 7);
    cx(a, 2, 4); cx(a, 3, 5);
    cx(a, 1, 4); cx(a, 3, 6);
    cx(a, 1, 2); cx(a, 3, 4); cx(a, 5, 6);
}

/// Sorts a bitonic sequence of eight keys ascending (half-cleaners of
/// span 4, 2, 1).
#[inline(always)]
#[rustfmt::skip]
fn merge_bitonic8(a: &mut [u64; 8]) {
    let cx = compare_exchange;
    cx(a, 0, 4); cx(a, 1, 5); cx(a, 2, 6); cx(a, 3, 7);
    cx(a, 0, 2); cx(a, 1, 3); cx(a, 4, 6); cx(a, 5, 7);
    cx(a, 0, 1); cx(a, 2, 3); cx(a, 4, 5); cx(a, 6, 7);
}

/// Simple hysteresis comparator (Schmitt trigger) converting an analog
/// trace into boolean decisions. This mirrors the MCU firmware's slicer.
#[derive(Debug, Clone, Copy)]
pub struct SchmittTrigger {
    high: f64,
    low: f64,
    state: bool,
}

impl SchmittTrigger {
    /// Builds a comparator that flips on at `high` and off at `low`.
    ///
    /// # Panics
    /// Panics unless `low < high`.
    pub fn new(low: f64, high: f64) -> Self {
        assert!(low < high, "hysteresis requires low < high");
        Self {
            high,
            low,
            state: false,
        }
    }

    /// Feeds one sample; returns the (possibly updated) state.
    pub fn step(&mut self, x: f64) -> bool {
        if self.state {
            if x < self.low {
                self.state = false;
            }
        } else if x > self.high {
            self.state = true;
        }
        self.state
    }

    /// Processes a whole trace.
    pub fn process(&mut self, x: &[f64]) -> Vec<bool> {
        x.iter().map(|&v| self.step(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn midpoint_threshold_rejects_nan_instead_of_panicking() {
        assert_eq!(midpoint_threshold(&[1.0, f64::NAN]), None);
        assert_eq!(midpoint_threshold(&[f64::NAN]), None);
        // Past the sorting-network length too.
        let mut long: Vec<f64> = (0..200).map(|i| f64::from(i % 2)).collect();
        assert_eq!(midpoint_threshold(&long), Some(0.5));
        long[7] = f64::NAN;
        assert_eq!(midpoint_threshold_with(&long, &mut Vec::new()), None);
    }

    #[test]
    fn comparator_networks_sort_every_zero_one_input() {
        // The zero-one principle: a comparator network that sorts all 2⁸
        // inputs of 0s and 1s sorts every input.
        for mask in 0u32..256 {
            let mut a: [u64; 8] = std::array::from_fn(|i| u64::from(mask >> i & 1));
            let ones = a.iter().sum::<u64>() as usize;
            sort8(&mut a);
            assert!(
                a.windows(2).all(|w| w[0] <= w[1]),
                "sort8 {mask:08b}: {a:?}"
            );
            assert_eq!(a.iter().sum::<u64>() as usize, ones);
            // Every bitonic 0/1 sequence: a run of ones, then zeros, then
            // ones (rotations of a single block of ones cover them).
            let run = mask as usize % 9;
            let start = mask as usize / 9 % 8;
            let mut b: [u64; 8] = std::array::from_fn(|i| u64::from((i + 8 - start) % 8 < run));
            merge_bitonic8(&mut b);
            assert!(
                b.windows(2).all(|w| w[0] <= w[1]),
                "bitonic {run}@{start}: {b:?}"
            );
        }
    }

    #[test]
    fn tails_hold_the_extreme_order_statistics() {
        for n in 1..40usize {
            let trace: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 23) as f64 - 9.0).collect();
            let mut keys: Vec<u64> = trace.iter().map(|&x| crate::stats::order_key(x)).collect();
            keys.sort_unstable();
            let (least, greatest) = tails_of_eight(&trace).unwrap();
            let m = n.min(8);
            assert_eq!(least[..m], keys[..m], "n = {n}");
            assert_eq!(greatest[8 - m..], keys[n - m..], "n = {n}");
            assert!(least[m..].iter().all(|&k| k == u64::MAX));
            assert!(greatest[..8 - m].iter().all(|&k| k == 0));
        }
    }

    #[test]
    fn find_peak_simple() {
        let x = [0.0, 1.0, 3.0, 1.0, 0.0];
        let p = find_peak(&x).unwrap();
        assert_eq!(p.index, 2);
        assert!((p.position - 2.0).abs() < 1e-12);
        assert!((p.value - 3.0).abs() < 1e-12);
    }

    #[test]
    fn find_peak_empty_is_none() {
        assert!(find_peak(&[]).is_none());
    }

    #[test]
    fn quadratic_interpolation_recovers_subsample_position() {
        // Sample a parabola peaking at 4.3.
        let x: Vec<f64> = (0..10).map(|i| 10.0 - (i as f64 - 4.3).powi(2)).collect();
        let p = find_peak(&x).unwrap();
        assert!((p.position - 4.3).abs() < 1e-9, "got {}", p.position);
        assert!((p.value - 10.0).abs() < 1e-9);
    }

    #[test]
    fn interpolation_on_sampled_sinc_beats_integer_bin() {
        // A windowed tone between FFT bins: the interpolated peak position
        // should land within 0.05 bins of the true frequency.
        use crate::complex::Complex;
        use crate::fft::fft;
        use crate::window::Window;
        use std::f64::consts::PI;
        let n = 256;
        let k0 = 60.37;
        let mut x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * PI * k0 * t as f64 / n as f64))
            .collect();
        Window::Hann.apply_complex(&mut x);
        let mags: Vec<f64> = fft(&x).iter().map(|z| z.norm()).collect();
        let p = find_peak(&mags).unwrap();
        assert!((p.position - k0).abs() < 0.05, "got {}", p.position);
    }

    #[test]
    fn edge_peak_not_interpolated() {
        let x = [5.0, 1.0, 0.0];
        let p = find_peak(&x).unwrap();
        assert_eq!(p.index, 0);
        assert_eq!(p.position, 0.0);
    }

    #[test]
    fn find_peaks_threshold_and_separation() {
        let x = [0.0, 2.0, 0.0, 0.5, 0.0, 3.0, 0.0, 1.0, 0.0];
        let peaks = find_peaks(&x, 0.9, 2);
        assert_eq!(peaks.len(), 3);
        assert_eq!(peaks[0].index, 5);
        assert_eq!(peaks[1].index, 1);
        assert_eq!(peaks[2].index, 7);
        // With larger separation, peak at 7 is suppressed by peak at 5.
        let sparse = find_peaks(&x, 0.9, 3);
        assert_eq!(sparse.len(), 2);
    }

    #[test]
    fn two_strongest_peaks_in_time_order() {
        let mut x = vec![0.0; 100];
        // Strong late peak, weaker early peak, tiny bump in between.
        for (i, v) in x.iter_mut().enumerate() {
            *v += 5.0 * (-((i as f64 - 80.0) / 3.0).powi(2)).exp();
            *v += 3.0 * (-((i as f64 - 20.0) / 3.0).powi(2)).exp();
            *v += 0.2 * (-((i as f64 - 50.0) / 2.0).powi(2)).exp();
        }
        let (first, second) = two_strongest_peaks(&x, 5).unwrap();
        assert!((first.position - 20.0).abs() < 0.5);
        assert!((second.position - 80.0).abs() < 0.5);
    }

    #[test]
    fn two_peaks_returns_none_with_single_peak() {
        let x: Vec<f64> = (0..50)
            .map(|i| (-((i as f64 - 25.0) / 4.0).powi(2)).exp())
            .collect();
        // min_separation larger than the trace kills the second candidate.
        assert!(two_strongest_peaks(&x, 60).is_none());
    }

    #[test]
    fn energy_of_unit_tone_is_half() {
        let x: Vec<f64> = (0..1000)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / 100.0).cos())
            .collect();
        assert!((energy(&x) - 0.5).abs() < 1e-3);
        assert_eq!(energy(&[]), 0.0);
    }

    #[test]
    fn integrate_and_dump_averages_chunks() {
        let x = [1.0, 1.0, 0.0, 0.0, 2.0, 4.0, 9.0];
        assert_eq!(integrate_and_dump(&x, 2), vec![1.0, 0.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn integrate_and_dump_rejects_zero_chunk() {
        integrate_and_dump(&[1.0], 0);
    }

    #[test]
    fn xcorr_of_impulses() {
        let a = [0.0, 0.0, 1.0, 0.0];
        let b = [1.0, 0.0];
        let c = xcorr(&a, &b);
        assert_eq!(c.len(), 5);
        let p = find_peak(&c).unwrap();
        // b aligned with a at lag 2: index = lag + (len_b - 1) = 3.
        assert_eq!(p.index, 3);
    }

    #[test]
    fn best_lag_recovers_shift() {
        let template: Vec<f64> = (0..32).map(|i| ((i as f64) * 0.8).sin()).collect();
        let mut signal = vec![0.0; 100];
        signal[40..72].copy_from_slice(&template);
        let lag = best_lag(&signal, &template).unwrap();
        assert!((lag - 40.0).abs() < 0.51, "lag {lag}");
    }

    #[test]
    fn schmitt_trigger_has_hysteresis() {
        let mut s = SchmittTrigger::new(0.3, 0.7);
        assert!(!s.step(0.5)); // below high: stays off
        assert!(s.step(0.8)); // crosses high: on
        assert!(s.step(0.5)); // above low: stays on
        assert!(!s.step(0.2)); // below low: off
    }

    #[test]
    fn schmitt_rejects_noise_between_thresholds() {
        let mut s = SchmittTrigger::new(0.2, 0.8);
        let noisy = [0.5, 0.6, 0.4, 0.55, 0.45];
        let out = s.process(&noisy);
        assert!(out.iter().all(|&b| !b));
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn schmitt_rejects_inverted_thresholds() {
        SchmittTrigger::new(0.7, 0.3);
    }
}
