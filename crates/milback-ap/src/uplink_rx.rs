//! Uplink reception at the AP (§6.3, Fig 7).
//!
//! The AP transmits the two-tone query and receives on two chains, each
//! mixing the antenna signal with one of the query tones. Interference
//! (self-interference and static clutter) is a delayed copy of the query,
//! so it mixes to DC plus out-of-band products — both removed by the
//! band-pass filter. The node's switching imprints its OAQFM symbols on
//! each tone, which survive as baseband waveforms: one OOK channel per
//! tone. This module slices those channels back into symbols and measures
//! link quality.

use mmwave_sigproc::detect::{
    integrate_and_dump, integrate_and_dump_into, midpoint_threshold_with,
};
use mmwave_sigproc::waveform::OaqfmSymbol;
use serde::{Deserialize, Serialize};

/// Errors from the uplink receiver.
#[derive(Debug, Clone, PartialEq)]
pub enum UplinkRxError {
    /// The two channel traces differ in length.
    LengthMismatch {
        /// Channel-A length.
        a: usize,
        /// Channel-B length.
        b: usize,
    },
    /// Trace shorter than one symbol.
    TraceTooShort,
    /// No modulation contrast found on a channel.
    NoContrast,
}

impl std::fmt::Display for UplinkRxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UplinkRxError::LengthMismatch { a, b } => {
                write!(f, "channel traces differ: {a} vs {b}")
            }
            UplinkRxError::TraceTooShort => write!(f, "trace shorter than one symbol"),
            UplinkRxError::NoContrast => write!(f, "no modulation contrast on a channel"),
        }
    }
}

impl std::error::Error for UplinkRxError {}

/// Reusable buffers for [`UplinkReceiver::decide_with`]: both channels'
/// integrated symbol statistics, the threshold's order keys and the
/// decided symbols. Every buffer is cleared before it is written, so
/// nothing one packet leaves behind reaches the next.
#[derive(Debug, Default)]
pub struct UplinkRxScratch {
    stats_a: Vec<f64>,
    stats_b: Vec<f64>,
    keys: Vec<u64>,
    decided: Vec<OaqfmSymbol>,
}

impl UplinkRxScratch {
    /// An empty workspace; buffers grow to the longest packet decided.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The AP's uplink symbol receiver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UplinkReceiver {
    /// Samples per symbol at the digitizer rate.
    pub samples_per_symbol: usize,
}

impl UplinkReceiver {
    /// Creates a receiver.
    ///
    /// # Panics
    /// Panics for zero samples per symbol.
    pub fn new(samples_per_symbol: usize) -> Self {
        assert!(samples_per_symbol > 0);
        Self { samples_per_symbol }
    }

    /// Integrate-and-dump symbol statistics for one channel.
    pub fn symbol_statistics(&self, trace: &[f64]) -> Vec<f64> {
        integrate_and_dump(trace, self.samples_per_symbol)
    }

    /// Decides OAQFM symbols from the two baseband channel traces, using
    /// self-calibrated thresholds (the query payload always contains both
    /// levels in practice; a preamble can be prepended otherwise). A
    /// channel without contrast, or holding a NaN sample, is
    /// [`UplinkRxError::NoContrast`].
    pub fn decide(
        &self,
        trace_a: &[f64],
        trace_b: &[f64],
    ) -> Result<Vec<OaqfmSymbol>, UplinkRxError> {
        let mut scratch = UplinkRxScratch::new();
        self.decide_with(trace_a, trace_b, &mut scratch)?;
        Ok(scratch.decided)
    }

    /// [`decide`](Self::decide) through a reusable [`UplinkRxScratch`]:
    /// the decisions land in (and are borrowed from) the scratch, so a
    /// receiver deciding packet after packet allocates nothing past the
    /// longest packet. Decisions are identical to the allocating path.
    ///
    /// At one sample per symbol the traces are their own symbol
    /// statistics (integrate-and-dump over one sample returns it
    /// unchanged, up to the sign of a zero, which neither the threshold
    /// nor a comparison sees), so they are sliced in place.
    pub fn decide_with<'s>(
        &self,
        trace_a: &[f64],
        trace_b: &[f64],
        scratch: &'s mut UplinkRxScratch,
    ) -> Result<&'s [OaqfmSymbol], UplinkRxError> {
        if trace_a.len() != trace_b.len() {
            return Err(UplinkRxError::LengthMismatch {
                a: trace_a.len(),
                b: trace_b.len(),
            });
        }
        if trace_a.len() < self.samples_per_symbol {
            return Err(UplinkRxError::TraceTooShort);
        }
        let UplinkRxScratch {
            stats_a,
            stats_b,
            keys,
            decided,
        } = scratch;
        let (sa, sb): (&[f64], &[f64]) = if self.samples_per_symbol == 1 {
            (trace_a, trace_b)
        } else {
            integrate_and_dump_into(trace_a, self.samples_per_symbol, stats_a);
            integrate_and_dump_into(trace_b, self.samples_per_symbol, stats_b);
            (stats_a, stats_b)
        };
        let ta = midpoint_threshold_with(sa, keys).ok_or(UplinkRxError::NoContrast)?;
        let tb = midpoint_threshold_with(sb, keys).ok_or(UplinkRxError::NoContrast)?;
        decided.clear();
        decided.extend(sa.iter().zip(sb).map(|(&va, &vb)| OaqfmSymbol {
            tone_a: va > ta,
            tone_b: vb > tb,
        }));
        Ok(decided)
    }

    /// Decides against known thresholds (when calibrated externally).
    pub fn decide_with_thresholds(
        &self,
        trace_a: &[f64],
        trace_b: &[f64],
        threshold_a: f64,
        threshold_b: f64,
    ) -> Result<Vec<OaqfmSymbol>, UplinkRxError> {
        if trace_a.len() != trace_b.len() {
            return Err(UplinkRxError::LengthMismatch {
                a: trace_a.len(),
                b: trace_b.len(),
            });
        }
        if trace_a.len() < self.samples_per_symbol {
            return Err(UplinkRxError::TraceTooShort);
        }
        let sa = self.symbol_statistics(trace_a);
        let sb = self.symbol_statistics(trace_b);
        Ok(sa
            .iter()
            .zip(&sb)
            .map(|(&va, &vb)| OaqfmSymbol {
                tone_a: va > threshold_a,
                tone_b: vb > threshold_b,
            })
            .collect())
    }
}

/// Link-quality measurement for one uplink channel, as plotted in Fig 15.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UplinkQuality {
    /// Measured SNR, dB: the ratio of the modulation swing power
    /// `((hi−lo)/2)²` to the noise variance around each level.
    pub snr_db: f64,
    /// Measured bit error rate against known transmitted bits (`NaN` when
    /// no reference bits were supplied).
    pub ber: f64,
}

/// Measures SNR from symbol statistics given the known transmitted bits of
/// one channel: separates the on/off populations and compares the level
/// separation to the within-population spread.
///
/// Each population's mean and unbiased variance are the
/// [`mean`](mmwave_sigproc::stats::mean)/[`variance`](mmwave_sigproc::stats::variance)
/// folds, run for both populations at once: one pass sums and counts each
/// population, a second sums its squared deviations. Within a population
/// the additions run in index order from the `Sum` fold's `-0.0`, and
/// adding `-0.0` is exact, so the result is bit-identical to calling them
/// on the collected populations.
///
/// # Panics
/// Panics if the lengths differ or either population is empty.
pub fn measure_channel_snr_db(symbol_stats: &[f64], tx_bits: &[bool]) -> f64 {
    assert_eq!(
        symbol_stats.len(),
        tx_bits.len(),
        "stats/bits length mismatch"
    );
    // Both populations fold side by side. Each sample adds `-0.0` to the
    // other population's sum, which leaves any sum bit for bit unchanged,
    // so no branch (and no store through a data-dependent index) sits on
    // the two add chains.
    let (mut n_on, mut sum_on, mut sum_off) = (0usize, -0.0f64, -0.0f64);
    for (&v, &b) in symbol_stats.iter().zip(tx_bits) {
        n_on += usize::from(b);
        sum_on += if b { v } else { -0.0 };
        sum_off += if b { -0.0 } else { v };
    }
    let n_off = tx_bits.len() - n_on;
    assert!(n_on > 0 && n_off > 0, "need both symbol populations");
    let (mean_on, mean_off) = (sum_on / n_on as f64, sum_off / n_off as f64);
    let (mut dev_on, mut dev_off) = (-0.0f64, -0.0f64);
    for (&v, &b) in symbol_stats.iter().zip(tx_bits) {
        let d = v - if b { mean_on } else { mean_off };
        dev_on += if b { d * d } else { -0.0 };
        dev_off += if b { -0.0 } else { d * d };
    }
    // The variance of a single sample is taken as 0.
    let var = |dev: f64, n: usize| if n > 1 { dev / (n - 1) as f64 } else { 0.0 };
    let (var_on, var_off) = (var(dev_on, n_on), var(dev_off, n_off));
    let swing = (mean_on - mean_off) / 2.0;
    let noise = ((var_on + var_off) / 2.0).max(1e-300);
    10.0 * (swing * swing / noise).log10()
}

/// Compares decided symbols against transmitted symbols bit-by-bit: the
/// [`bit_error_rate`](mmwave_sigproc::stats::bit_error_rate) of the
/// flattened `[tone_a, tone_b]` streams, counted without building them.
///
/// # Panics
/// Panics if non-empty symbol streams differ in length.
pub fn symbol_ber(tx: &[OaqfmSymbol], rx: &[OaqfmSymbol]) -> f64 {
    if tx.is_empty() {
        return f64::NAN;
    }
    assert_eq!(tx.len(), rx.len(), "bit streams differ in length");
    let errors: usize = tx
        .iter()
        .zip(rx)
        .map(|(t, r)| usize::from(t.tone_a != r.tone_a) + usize::from(t.tone_b != r.tone_b))
        .sum();
    errors as f64 / (2 * tx.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_sigproc::random::GaussianSource;
    use mmwave_sigproc::waveform::{bytes_to_symbols, ook_envelope, symbols_to_bytes};

    fn traces_for(symbols: &[OaqfmSymbol], sps: usize, hi: f64, lo: f64) -> (Vec<f64>, Vec<f64>) {
        let la: Vec<f64> = symbols
            .iter()
            .map(|s| if s.tone_a { hi } else { lo })
            .collect();
        let lb: Vec<f64> = symbols
            .iter()
            .map(|s| if s.tone_b { hi } else { lo })
            .collect();
        (ook_envelope(&la, sps), ook_envelope(&lb, sps))
    }

    #[test]
    fn clean_decisions_roundtrip() {
        let payload = vec![0x12, 0x34, 0xAB, 0xFF, 0x00];
        let syms = bytes_to_symbols(&payload);
        let (ta, tb) = traces_for(&syms, 10, 1e-4, 2e-5);
        let rx = UplinkReceiver::new(10);
        let out = rx.decide(&ta, &tb).unwrap();
        assert_eq!(symbols_to_bytes(&out), payload);
        assert_eq!(symbol_ber(&syms, &out), 0.0);
    }

    #[test]
    fn decisions_survive_moderate_noise() {
        let mut rng = GaussianSource::new(5);
        let payload = rng.bytes(128);
        let syms = bytes_to_symbols(&payload);
        let (mut ta, mut tb) = traces_for(&syms, 20, 1e-4, 1.8e-5);
        // Per-sample SNR modest; integration over 20 samples recovers it.
        let swing: f64 = (1e-4 - 1.8e-5) / 2.0;
        rng.add_real_noise(&mut ta, (swing / 2.0).powi(2));
        rng.add_real_noise(&mut tb, (swing / 2.0).powi(2));
        let rx = UplinkReceiver::new(20);
        let out = rx.decide(&ta, &tb).unwrap();
        assert_eq!(symbols_to_bytes(&out), payload);
    }

    #[test]
    fn ber_degrades_with_noise_monotonically() {
        let mut rng = GaussianSource::new(6);
        let payload = rng.bytes(256);
        let syms = bytes_to_symbols(&payload);
        let rx = UplinkReceiver::new(4);
        let mut previous_ber = -1.0;
        for noise_scale in [0.5, 2.0, 8.0] {
            let (mut ta, mut tb) = traces_for(&syms, 4, 1.0, 0.0);
            rng.add_real_noise(&mut ta, noise_scale);
            rng.add_real_noise(&mut tb, noise_scale);
            let out = rx.decide(&ta, &tb).unwrap();
            let ber = symbol_ber(&syms, &out);
            assert!(ber >= previous_ber, "BER should not improve with noise");
            previous_ber = ber;
        }
        assert!(previous_ber > 0.05, "heavy noise must cause errors");
    }

    #[test]
    fn snr_measurement_tracks_injected_snr() {
        let mut rng = GaussianSource::new(7);
        let bits: Vec<bool> = rng.bits(20_000);
        let swing = 1.0;
        let noise_var: f64 = 0.01; // 20 dB
        let stats: Vec<f64> = bits
            .iter()
            .map(|&b| if b { swing } else { -swing } + rng.sample(noise_var.sqrt()))
            .collect();
        let snr = measure_channel_snr_db(&stats, &bits);
        assert!((snr - 20.0).abs() < 0.5, "measured {snr:.2} dB");
    }

    #[test]
    fn ac_coupled_traces_still_decode() {
        // The BPF removes DC: levels become symmetric around zero.
        let payload = vec![0x3C, 0x96];
        let syms = bytes_to_symbols(&payload);
        let (ta, tb) = traces_for(&syms, 8, 0.5, -0.5);
        let rx = UplinkReceiver::new(8);
        let out = rx.decide(&ta, &tb).unwrap();
        assert_eq!(symbols_to_bytes(&out), payload);
    }

    #[test]
    fn mismatched_channels_rejected() {
        let rx = UplinkReceiver::new(4);
        let err = rx.decide(&[0.0; 8], &[0.0; 9]).unwrap_err();
        assert_eq!(err, UplinkRxError::LengthMismatch { a: 8, b: 9 });
    }

    #[test]
    fn nan_sample_is_no_contrast_not_a_panic() {
        let rx = UplinkReceiver::new(1);
        let mut ta = vec![0.0, 1.0, 0.0, 1.0];
        ta[1] = f64::NAN;
        assert_eq!(
            rx.decide(&ta, &[0.0, 1.0, 0.0, 1.0]).unwrap_err(),
            UplinkRxError::NoContrast
        );
        let rx = UplinkReceiver::new(2);
        let tb = [0.0, 0.0, f64::NAN, 1.0, 0.0, 0.0, 1.0, 1.0];
        assert_eq!(
            rx.decide(&[0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0], &tb)
                .unwrap_err(),
            UplinkRxError::NoContrast
        );
    }

    #[test]
    fn scratch_decisions_match_allocating_decisions() {
        let mut rng = GaussianSource::new(8);
        let mut scratch = UplinkRxScratch::new();
        // Long then short then long again, at one and several samples per
        // symbol: a reused scratch never leaks one packet into the next.
        for (bytes, sps) in [(300, 1), (16, 1), (3, 4), (300, 3), (16, 1)] {
            let payload = rng.bytes(bytes);
            let syms = bytes_to_symbols(&payload);
            let (mut ta, mut tb) = traces_for(&syms, sps, 1.0, 0.0);
            rng.add_real_noise(&mut ta, 0.05);
            rng.add_real_noise(&mut tb, 0.05);
            let rx = UplinkReceiver::new(sps);
            let fresh = rx.decide(&ta, &tb).unwrap();
            assert_eq!(rx.decide_with(&ta, &tb, &mut scratch).unwrap(), &fresh[..]);
        }
    }

    #[test]
    fn flat_channel_rejected() {
        let rx = UplinkReceiver::new(4);
        let err = rx.decide(&[0.5; 16], &[0.5; 16]).unwrap_err();
        assert_eq!(err, UplinkRxError::NoContrast);
    }

    #[test]
    fn short_trace_rejected() {
        let rx = UplinkReceiver::new(100);
        assert_eq!(
            rx.decide(&[0.0; 10], &[0.0; 10]).unwrap_err(),
            UplinkRxError::TraceTooShort
        );
    }

    #[test]
    fn external_thresholds_path() {
        let syms = bytes_to_symbols(&[0xA5]);
        let (ta, tb) = traces_for(&syms, 5, 1.0, 0.0);
        let rx = UplinkReceiver::new(5);
        let out = rx.decide_with_thresholds(&ta, &tb, 0.5, 0.5).unwrap();
        assert_eq!(symbols_to_bytes(&out), vec![0xA5]);
    }

    #[test]
    #[should_panic(expected = "both symbol populations")]
    fn snr_needs_both_levels() {
        measure_channel_snr_db(&[1.0, 1.0], &[true, true]);
    }

    #[test]
    fn error_display() {
        assert!(UplinkRxError::NoContrast.to_string().contains("contrast"));
        assert!(UplinkRxError::TraceTooShort.to_string().contains("shorter"));
        assert!(UplinkRxError::LengthMismatch { a: 1, b: 2 }
            .to_string()
            .contains("differ"));
    }
}
