//! Property-based tests over the DSP substrate's algebraic invariants,
//! with randomized inputs. Complements the unit tests inside each module.

use mmwave_sigproc::complex::Complex;
use mmwave_sigproc::detect::{find_peak, midpoint_threshold, refine_peak};
use mmwave_sigproc::fft::{fft, fft_frequencies, fftshift, ifft, Direction, FftPlanner};
use mmwave_sigproc::filter::{FirFilter, RcFilter};
use mmwave_sigproc::resample::{decimate, fractional_delay, resample_linear};
use mmwave_sigproc::stats;
use mmwave_sigproc::units;
use mmwave_sigproc::waveform::{Chirp, OaqfmSymbol};
use mmwave_sigproc::window::Window;
use proptest::prelude::*;

/// The sorting reference for the slicing threshold: midway between the
/// 90th and 10th [`stats::percentile`], `None` without contrast.
fn threshold_oracle(x: &[f64]) -> Option<f64> {
    if x.is_empty() {
        return None;
    }
    let hi = stats::percentile(x, 90.0);
    let lo = stats::percentile(x, 10.0);
    (hi - lo > 0.0).then(|| (hi + lo) / 2.0)
}

/// The collecting reference for the channel SNR measurement: the on/off
/// populations gathered into vectors and reduced by [`stats::mean`] and
/// [`stats::variance`] (a single-sample population has variance 0).
fn channel_snr_oracle(symbol_stats: &[f64], tx_bits: &[bool]) -> f64 {
    let population = |level: bool| -> Vec<f64> {
        symbol_stats
            .iter()
            .zip(tx_bits)
            .filter(|(_, &b)| b == level)
            .map(|(&v, _)| v)
            .collect()
    };
    let (on, off) = (population(true), population(false));
    let var = |p: &[f64]| if p.len() > 1 { stats::variance(p) } else { 0.0 };
    let swing = (stats::mean(&on) - stats::mean(&off)) / 2.0;
    let noise = ((var(&on) + var(&off)) / 2.0).max(1e-300);
    10.0 * (swing * swing / noise).log10()
}

/// Values that force ties, both signed zeros and a subnormal.
const TIE_PALETTE: [f64; 6] = [-0.0, 0.0, 1.5, -2.25, 1e-310, 7.0];

/// [`TIE_PALETTE`] with both infinities and the smallest subnormal; its
/// first three entries are the signed zeros and `+∞`, so `i % 3` picks
/// from those alone.
const INF_TIE_PALETTE: [f64; 9] = [
    -0.0,
    0.0,
    f64::INFINITY,
    1.5,
    -2.25,
    1e-310,
    7.0,
    f64::NEG_INFINITY,
    -5e-324,
];

proptest! {
    /// Complex field axioms hold numerically.
    #[test]
    fn complex_field_axioms(
        ar in -1e3f64..1e3, ai in -1e3f64..1e3,
        br in -1e3f64..1e3, bi in -1e3f64..1e3,
        cr in -1e3f64..1e3, ci in -1e3f64..1e3,
    ) {
        let a = Complex::new(ar, ai);
        let b = Complex::new(br, bi);
        let c = Complex::new(cr, ci);
        // Distributivity.
        let lhs = a * (b + c);
        let rhs = a * b + a * c;
        prop_assert!((lhs - rhs).norm() <= 1e-9 * (1.0 + lhs.norm()));
        // |ab| = |a||b|.
        prop_assert!(((a * b).norm() - a.norm() * b.norm()).abs() <= 1e-9 * (1.0 + a.norm() * b.norm()));
        // Conjugation is an automorphism.
        prop_assert!(((a * b).conj() - a.conj() * b.conj()).norm() < 1e-9 * (1.0 + a.norm() * b.norm()));
    }

    /// FFT is linear: F(αx + y) = αF(x) + F(y).
    #[test]
    fn fft_linearity(
        n in 2usize..96,
        alpha in -3.0f64..3.0,
        seed in 0u64..1000,
    ) {
        let mut rng = mmwave_sigproc::random::GaussianSource::new(seed);
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(rng.standard(), rng.standard())).collect();
        let y: Vec<Complex> = (0..n).map(|_| Complex::new(rng.standard(), rng.standard())).collect();
        let combo: Vec<Complex> = x.iter().zip(&y).map(|(&a, &b)| a.scale(alpha) + b).collect();
        let lhs = fft(&combo);
        let fx = fft(&x);
        let fy = fft(&y);
        for k in 0..n {
            let rhs = fx[k].scale(alpha) + fy[k];
            prop_assert!((lhs[k] - rhs).norm() < 1e-7 * (1.0 + rhs.norm()));
        }
    }

    /// The allocation-free scratch API agrees bit-for-bit with the one-shot
    /// `fft()` for any length (power-of-two and Bluestein alike), even with
    /// a dirtied scratch buffer, and its forward→inverse round trip
    /// recovers the input.
    #[test]
    fn scratch_api_matches_oneshot_and_roundtrips(n in 1usize..200, seed in 0u64..1000) {
        let mut rng = mmwave_sigproc::random::GaussianSource::new(seed);
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(rng.standard(), rng.standard())).collect();
        let plan = FftPlanner::plan(n);
        let mut buf = x.clone();
        let mut scratch = vec![7.5f64; plan.scratch_len()]; // deliberately dirty
        plan.process_with_scratch(&mut buf, &mut scratch, Direction::Forward);
        let reference = fft(&x);
        for k in 0..n {
            prop_assert!(buf[k] == reference[k], "bin {k}: {:?} vs {:?}", buf[k], reference[k]);
        }
        scratch.fill(-3.25); // dirty again before the inverse
        plan.process_with_scratch(&mut buf, &mut scratch, Direction::Inverse);
        for k in 0..n {
            prop_assert!((buf[k] - x[k]).norm() < 1e-9 * (1.0 + x[k].norm()));
        }
    }

    /// A circular shift in time multiplies the spectrum by a phase ramp
    /// (shift theorem) — magnitude spectra are shift-invariant.
    #[test]
    fn fft_shift_theorem_magnitudes(n in 4usize..64, shift in 1usize..32, seed in 0u64..500) {
        let shift = shift % n;
        let mut rng = mmwave_sigproc::random::GaussianSource::new(seed);
        let x: Vec<Complex> = (0..n).map(|_| Complex::new(rng.standard(), rng.standard())).collect();
        let mut rolled = x.clone();
        rolled.rotate_left(shift);
        let a = fft(&x);
        let b = fft(&rolled);
        for k in 0..n {
            prop_assert!((a[k].norm() - b[k].norm()).abs() < 1e-8 * (1.0 + a[k].norm()));
        }
    }

    /// fftshift is an involution for even lengths.
    #[test]
    fn fftshift_involution(n in 1usize..40) {
        let n = n * 2; // even
        let x: Vec<usize> = (0..n).collect();
        prop_assert_eq!(fftshift(&fftshift(&x)), x);
    }

    /// fft_frequencies is consistent: bin spacing fs/N, DC at 0.
    #[test]
    fn fft_frequency_grid(n in 2usize..256, fs in 1.0f64..1e9) {
        let f = fft_frequencies(n, fs);
        prop_assert_eq!(f[0], 0.0);
        let df = fs / n as f64;
        prop_assert!((f[1] - df).abs() < 1e-6 * df);
        // All magnitudes within Nyquist.
        for &v in &f {
            prop_assert!(v.abs() <= fs / 2.0 + 1e-6);
        }
    }

    /// dB conversions are inverse bijections on positive reals.
    #[test]
    fn db_bijection(x in 1e-12f64..1e12) {
        prop_assert!((units::db_to_lin(units::lin_to_db(x)) - x).abs() <= 1e-9 * x);
        prop_assert!((units::dbm_to_watts(units::watts_to_dbm(x)) - x).abs() <= 1e-9 * x);
    }

    /// Wrapped angles stay in (−π, π] and preserve the phasor.
    #[test]
    fn angle_wrap_preserves_phasor(theta in -100.0f64..100.0) {
        let w = units::wrap_angle(theta);
        prop_assert!(w > -std::f64::consts::PI - 1e-12 && w <= std::f64::consts::PI + 1e-12);
        prop_assert!((Complex::cis(theta) - Complex::cis(w)).norm() < 1e-9);
    }

    /// FIR low-pass DC gain is one, independent of design parameters.
    #[test]
    fn fir_dc_gain(cut_frac in 0.01f64..0.45, taps in 3usize..101) {
        let fs = 1e6;
        let fir = FirFilter::low_pass(cut_frac * fs, fs, taps, Window::Hamming);
        prop_assert!((fir.taps().iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    /// RC step response is monotone and bounded by the input.
    #[test]
    fn rc_step_monotone(tau in 1e-9f64..1e-3, steps in 2usize..500) {
        let dt = tau / 10.0;
        let mut rc = RcFilter::from_time_constant(tau, dt);
        let mut prev = 0.0;
        for _ in 0..steps {
            let y = rc.step(1.0);
            prop_assert!(y >= prev - 1e-15 && y <= 1.0 + 1e-12);
            prev = y;
        }
    }

    /// Quadratically refined peaks never leave the ±0.5-sample window.
    #[test]
    fn refined_peak_stays_local(values in proptest::collection::vec(0.0f64..100.0, 3..64)) {
        if let Some(p) = find_peak(&values) {
            prop_assert!((p.position - p.index as f64).abs() <= 0.5 + 1e-12);
            let r = refine_peak(&values, p.index);
            prop_assert_eq!(r.index, p.index);
        }
    }

    /// Midpoint threshold separates any strictly two-level trace.
    #[test]
    fn midpoint_threshold_separates(
        lo in -10.0f64..0.0,
        gap in 0.5f64..10.0,
        pattern in proptest::collection::vec(any::<bool>(), 8..64),
    ) {
        prop_assume!(pattern.iter().any(|&b| b) && pattern.iter().any(|&b| !b));
        let hi = lo + gap;
        let trace: Vec<f64> = pattern.iter().map(|&b| if b { hi } else { lo }).collect();
        let t = midpoint_threshold(&trace).unwrap();
        for (&v, &b) in trace.iter().zip(&pattern) {
            prop_assert_eq!(v > t, b);
        }
    }

    /// Both slicing-threshold helpers equal the two-percentile formula
    /// bit for bit on continuous traces, forced ties (signed zeros and a
    /// subnormal among them), all-equal traces and ±0.0-only traces, at
    /// every length from one sample to 300.
    #[test]
    fn threshold_helpers_match_percentile_formula(
        raw in proptest::collection::vec(-1e3f64..1e3, 1..301),
        picks in proptest::collection::vec(0usize..TIE_PALETTE.len(), 300..301),
    ) {
        let n = raw.len();
        let traces = [
            raw.clone(),
            picks[..n].iter().map(|&i| TIE_PALETTE[i]).collect(),
            vec![raw[0]; n],
            picks[..n].iter().map(|&i| if i % 2 == 0 { -0.0 } else { 0.0 }).collect::<Vec<f64>>(),
        ];
        for trace in &traces {
            let want = threshold_oracle(trace).map(f64::to_bits);
            prop_assert_eq!(midpoint_threshold(trace).map(f64::to_bits), want);
            let calibrated = milback_node::downlink::calibrate_threshold(trace);
            prop_assert_eq!(calibrated.clone().ok().map(f64::to_bits), want);
            if want.is_none() {
                prop_assert_eq!(calibrated, Err(milback_node::downlink::DemodError::NoContrast));
            }
        }
    }

    /// Sorting by order key and decoding gives the `partial_cmp` sort
    /// back, equal under `==` (only where the signed zeros land may
    /// differ), and keys round-trip every bit pattern.
    #[test]
    fn order_keys_sort_like_partial_cmp(
        raw in proptest::collection::vec(-1e3f64..1e3, 1..301),
        picks in proptest::collection::vec(0usize..INF_TIE_PALETTE.len(), 300..301),
    ) {
        let ties: Vec<f64> = picks[..raw.len()].iter().map(|&i| INF_TIE_PALETTE[i]).collect();
        for x in [&raw, &ties] {
            let mut want = x.clone();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut keys: Vec<u64> = x.iter().map(|&v| stats::order_key(v)).collect();
            keys.sort_unstable();
            let got: Vec<f64> = keys.iter().map(|&k| stats::from_order_key(k)).collect();
            prop_assert_eq!(&got, &want);
            for &v in x.iter() {
                prop_assert_eq!(stats::from_order_key(stats::order_key(v)).to_bits(), v.to_bits());
            }
        }
    }

    /// The scratch-taking threshold equals the two-percentile formula by
    /// `to_bits` at every length from one sample to 1024 — both sides of
    /// the sorting-network cutoff — on continuous traces, traces of
    /// duplicates, signed zeros and ±∞, and two-level traces; one key
    /// buffer is reused across all of them.
    #[test]
    fn scratch_threshold_matches_percentile_formula(
        len in 1usize..1025,
        raw in proptest::collection::vec(-1e3f64..1e3, 1024..1025),
        picks in proptest::collection::vec(0usize..INF_TIE_PALETTE.len(), 1024..1025),
        levels in proptest::collection::vec(any::<bool>(), 1024..1025),
    ) {
        let mut keys = Vec::new();
        for n in [len, len % 72 + 1] {
            let traces = [
                raw[..n].to_vec(),
                picks[..n].iter().map(|&i| INF_TIE_PALETTE[i]).collect(),
                picks[..n].iter().map(|&i| INF_TIE_PALETTE[i % 3]).collect::<Vec<f64>>(),
                levels[..n].iter().zip(&raw).map(|(&b, &r)| if b { 1.0 } else { 0.2 } + r * 1e-5).collect(),
            ];
            for trace in &traces {
                let want = threshold_oracle(trace).map(f64::to_bits);
                prop_assert_eq!(mmwave_sigproc::detect::midpoint_threshold_with(trace, &mut keys).map(f64::to_bits), want);
                prop_assert_eq!(midpoint_threshold(trace).map(f64::to_bits), want);
            }
        }
    }

    /// The allocation-free SNR measurement equals the collected-population
    /// oracle bit for bit, and the counting symbol BER equals the bit
    /// error rate of the flattened streams.
    #[test]
    fn channel_snr_and_symbol_ber_match_oracles(
        stats_in in proptest::collection::vec(-1e3f64..1e3, 2..301),
        bits in proptest::collection::vec(any::<bool>(), 301..302),
        flips in proptest::collection::vec(any::<u8>(), 301..302),
    ) {
        let n = stats_in.len();
        let mut bits = bits[..n].to_vec();
        // Both populations must be present; a singleton population
        // exercises the zero-variance branch.
        bits[0] = true;
        bits[1] = false;
        let got = milback_ap::uplink_rx::measure_channel_snr_db(&stats_in, &bits);
        prop_assert_eq!(got.to_bits(), channel_snr_oracle(&stats_in, &bits).to_bits());

        let tx: Vec<OaqfmSymbol> = bits.iter().zip(&flips).map(|(&a, &f)| OaqfmSymbol {
            tone_a: a,
            tone_b: f & 1 == 1,
        }).collect();
        let rx: Vec<OaqfmSymbol> = tx.iter().zip(&flips).map(|(s, &f)| OaqfmSymbol {
            tone_a: s.tone_a ^ (f & 2 == 2),
            tone_b: s.tone_b ^ (f & 4 == 4),
        }).collect();
        let flat = |s: &[OaqfmSymbol]| -> Vec<bool> { s.iter().flat_map(|s| [s.tone_a, s.tone_b]).collect() };
        prop_assert_eq!(
            milback_ap::uplink_rx::symbol_ber(&tx, &rx).to_bits(),
            stats::bit_error_rate(&flat(&tx), &flat(&rx)).to_bits()
        );
    }

    /// Chirp instantaneous frequency stays within the swept band.
    #[test]
    fn chirp_frequency_in_band(
        start in 1e9f64..30e9,
        bw in 1e8f64..5e9,
        dur in 1e-6f64..1e-4,
        frac in 0.0f64..1.0,
        tri in any::<bool>(),
    ) {
        let c = if tri { Chirp::triangular(start, bw, dur) } else { Chirp::sawtooth(start, bw, dur) };
        let f = c.instantaneous_freq(frac * dur * 0.999);
        prop_assert!(f >= start - 1.0 && f <= start + bw + 1.0);
    }

    /// Decimation then linear upsampling approximates identity for
    /// oversampled smooth signals.
    #[test]
    fn decimate_upsample_approximates_identity(factor in 2usize..8, freq_frac in 0.001f64..0.01) {
        let fs = 1e6;
        let n = 4000;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq_frac * fs * i as f64 / fs).sin())
            .collect();
        let d = decimate(&x, factor);
        let up = resample_linear(&d, fs / factor as f64, fs);
        // Compare in the steady-state interior.
        let m = up.len().min(n);
        for i in m / 4..(3 * m / 4) {
            prop_assert!((up[i] - x[i]).abs() < 0.15, "i={i}: {} vs {}", up[i], x[i]);
        }
    }

    /// Fractional delay by d then measuring cross-correlation lag recovers d.
    #[test]
    fn fractional_delay_measurable(delay in 0.0f64..20.0) {
        let n = 256;
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.35).sin() * (-((i as f64 - 60.0) / 25.0).powi(2)).exp()).collect();
        let y = fractional_delay(&x, delay);
        let lag = mmwave_sigproc::detect::best_lag(&y, &x).unwrap();
        prop_assert!((lag - delay).abs() < 0.6, "lag {lag} vs {delay}");
    }

    /// ErrorSummary percentiles are ordered: median ≤ p90 ≤ max.
    #[test]
    fn error_summary_ordered(values in proptest::collection::vec(0.0f64..1e3, 1..200)) {
        let s = stats::ErrorSummary::from_abs_errors(&values);
        prop_assert!(s.median <= s.p90 + 1e-12);
        prop_assert!(s.p90 <= s.max + 1e-12);
        prop_assert!(s.mean <= s.max + 1e-12);
    }

    /// Q-function is a decreasing CDF complement on [0, ∞).
    #[test]
    fn q_function_decreasing(x in 0.0f64..8.0, dx in 0.01f64..2.0) {
        prop_assert!(stats::q_function(x + dx) <= stats::q_function(x));
        prop_assert!(stats::q_function(x) <= 0.5 + 1e-12);
    }

    /// OAQFM symbols are a bijection on two bits.
    #[test]
    fn oaqfm_bijection(bits in 0u8..4) {
        prop_assert_eq!(OaqfmSymbol::from_bits(bits).to_bits(), bits);
    }

    /// IFFT(FFT(x)) round-trips Bluestein lengths specifically.
    #[test]
    fn bluestein_roundtrip(n in proptest::sample::select(vec![3usize, 5, 7, 11, 13, 17, 23, 29, 45, 97])) {
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 1.3).sin(), (i as f64 * 0.9).cos()))
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).norm() < 1e-7);
        }
    }
}
