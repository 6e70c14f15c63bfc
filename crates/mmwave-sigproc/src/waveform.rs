//! Waveform synthesis: FMCW chirps (sawtooth and triangular), single/two
//! tones, and on-off keying envelopes.
//!
//! MilBack's AP uses three waveform families (§8):
//! * sawtooth FMCW chirps (18 µs, 3 GHz sweep) for localization — Field 2,
//! * triangular FMCW chirps (45 µs) for node-side orientation — Field 1,
//! * two-tone queries for OAQFM uplink/downlink payloads.
//!
//! Chirps are described analytically (instantaneous frequency and phase as
//! closed forms) so the channel model can evaluate them at arbitrary times
//! without synthesizing gigasample buffers, and can also be sampled into
//! buffers for the DSP paths that need them.

use crate::complex::Complex;
use serde::{Deserialize, Serialize};
use std::f64::consts::PI;

/// Shape of an FMCW frequency sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChirpShape {
    /// Frequency ramps linearly from start to start+bandwidth, then resets.
    Sawtooth,
    /// Frequency ramps up for the first half and back down for the second
    /// half (the V shape the node's orientation estimator relies on).
    Triangular,
}

/// An analytically-described linear FMCW chirp.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Chirp {
    /// Sweep start frequency, Hz.
    pub start_hz: f64,
    /// Swept bandwidth, Hz (always positive; sweep direction set by shape).
    pub bandwidth_hz: f64,
    /// Chirp duration, seconds.
    pub duration_s: f64,
    /// Sweep shape.
    pub shape: ChirpShape,
}

impl Chirp {
    /// Creates a sawtooth chirp.
    ///
    /// # Panics
    /// Panics unless bandwidth and duration are positive.
    pub fn sawtooth(start_hz: f64, bandwidth_hz: f64, duration_s: f64) -> Self {
        assert!(bandwidth_hz > 0.0 && duration_s > 0.0);
        Self {
            start_hz,
            bandwidth_hz,
            duration_s,
            shape: ChirpShape::Sawtooth,
        }
    }

    /// Creates a triangular chirp (up then down within `duration_s`).
    pub fn triangular(start_hz: f64, bandwidth_hz: f64, duration_s: f64) -> Self {
        assert!(bandwidth_hz > 0.0 && duration_s > 0.0);
        Self {
            start_hz,
            bandwidth_hz,
            duration_s,
            shape: ChirpShape::Triangular,
        }
    }

    /// Sweep slope in Hz/s. For triangular chirps this is the magnitude of
    /// the up-segment slope (the down segment has the negative of it).
    pub fn slope(&self) -> f64 {
        match self.shape {
            ChirpShape::Sawtooth => self.bandwidth_hz / self.duration_s,
            ChirpShape::Triangular => 2.0 * self.bandwidth_hz / self.duration_s,
        }
    }

    /// End frequency of the sweep, Hz.
    pub fn end_hz(&self) -> f64 {
        self.start_hz + self.bandwidth_hz
    }

    /// Center frequency of the sweep, Hz.
    pub fn center_hz(&self) -> f64 {
        self.start_hz + self.bandwidth_hz / 2.0
    }

    /// Instantaneous frequency at time `t` seconds into the chirp.
    ///
    /// Times are folded into `[0, duration)` so chirp trains can be
    /// evaluated with a running clock.
    pub fn instantaneous_freq(&self, t: f64) -> f64 {
        let t = t.rem_euclid(self.duration_s);
        match self.shape {
            ChirpShape::Sawtooth => self.start_hz + self.slope() * t,
            ChirpShape::Triangular => {
                let half = self.duration_s / 2.0;
                if t < half {
                    self.start_hz + self.slope() * t
                } else {
                    self.end_hz() - self.slope() * (t - half)
                }
            }
        }
    }

    /// Accumulated phase (radians) at time `t` into the chirp: the integral
    /// of `2π·f(τ)` from 0 to `t`. Only valid within one period.
    pub fn phase(&self, t: f64) -> f64 {
        let t = t.rem_euclid(self.duration_s);
        match self.shape {
            ChirpShape::Sawtooth => 2.0 * PI * (self.start_hz * t + 0.5 * self.slope() * t * t),
            ChirpShape::Triangular => {
                let half = self.duration_s / 2.0;
                if t < half {
                    2.0 * PI * (self.start_hz * t + 0.5 * self.slope() * t * t)
                } else {
                    let up = 2.0 * PI * (self.start_hz * half + 0.5 * self.slope() * half * half);
                    let td = t - half;
                    up + 2.0 * PI * (self.end_hz() * td - 0.5 * self.slope() * td * td)
                }
            }
        }
    }

    /// For a triangular chirp, the two times within the period at which the
    /// instantaneous frequency crosses `freq_hz` (up-sweep and down-sweep).
    ///
    /// Returns `None` for sawtooth chirps or when `freq_hz` is outside the
    /// swept band. This is the geometric heart of node-side orientation
    /// sensing (§5.2b): the node measures the separation of the two received
    /// power peaks, which equals the separation of these two crossings.
    pub fn triangular_crossings(&self, freq_hz: f64) -> Option<(f64, f64)> {
        if self.shape != ChirpShape::Triangular {
            return None;
        }
        if freq_hz < self.start_hz || freq_hz > self.end_hz() {
            return None;
        }
        let s = self.slope();
        let t_up = (freq_hz - self.start_hz) / s;
        let half = self.duration_s / 2.0;
        let t_down = half + (self.end_hz() - freq_hz) / s;
        Some((t_up, t_down))
    }

    /// Inverts a peak-separation measurement back to the frequency that a
    /// triangular chirp was crossing (the inverse of
    /// [`triangular_crossings`](Self::triangular_crossings)).
    ///
    /// Returns `None` for non-triangular chirps or separations longer than
    /// the chirp duration.
    pub fn freq_from_peak_separation(&self, delta_t: f64) -> Option<f64> {
        if self.shape != ChirpShape::Triangular || !(0.0..=self.duration_s).contains(&delta_t) {
            return None;
        }
        // Δt = (T/2 - t_up) + (t_down - T/2) = 2·(f_end - f)/slope
        Some(self.end_hz() - self.slope() * delta_t / 2.0)
    }

    /// Samples the chirp as a complex baseband signal relative to its start
    /// frequency, at `sample_rate` Hz. Suitable when the observation
    /// bandwidth fits the sample rate (tests, small sweeps).
    pub fn sample_baseband(&self, sample_rate: f64) -> Vec<Complex> {
        let n = (self.duration_s * sample_rate).round() as usize;
        (0..n)
            .map(|i| {
                let t = i as f64 / sample_rate;
                Complex::cis(self.phase(t) - 2.0 * PI * self.start_hz * t)
            })
            .collect()
    }
}

/// A continuous-wave tone with amplitude and frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tone {
    /// Carrier frequency, Hz.
    pub freq_hz: f64,
    /// Peak amplitude (volts across the system impedance, by convention).
    pub amplitude: f64,
}

impl Tone {
    /// Creates a tone.
    pub fn new(freq_hz: f64, amplitude: f64) -> Self {
        Self { freq_hz, amplitude }
    }

    /// Samples `cos(2πft)` at `n` points spaced `dt` seconds apart.
    pub fn sample_real(&self, n: usize, dt: f64) -> Vec<f64> {
        (0..n)
            .map(|i| self.amplitude * (2.0 * PI * self.freq_hz * i as f64 * dt).cos())
            .collect()
    }

    /// Average power of the tone across `ohms` (A²/2R).
    pub fn power_watts(&self, ohms: f64) -> f64 {
        self.amplitude * self.amplitude / (2.0 * ohms)
    }
}

/// One OAQFM symbol: presence/absence of each of the two tones.
///
/// Encodes two bits per symbol exactly as Figure 6 of the paper:
/// `00` → both tones off, `01` → only f_B, `10` → only f_A, `11` → both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OaqfmSymbol {
    /// Whether the f_A tone (port-A beam) is present.
    pub tone_a: bool,
    /// Whether the f_B tone (port-B beam) is present.
    pub tone_b: bool,
}

impl OaqfmSymbol {
    /// All four symbols in bit order 00, 01, 10, 11.
    pub const ALL: [OaqfmSymbol; 4] = [
        OaqfmSymbol {
            tone_a: false,
            tone_b: false,
        },
        OaqfmSymbol {
            tone_a: false,
            tone_b: true,
        },
        OaqfmSymbol {
            tone_a: true,
            tone_b: false,
        },
        OaqfmSymbol {
            tone_a: true,
            tone_b: true,
        },
    ];

    /// Maps a 2-bit value (`0..=3`) to a symbol. The MSB keys tone A.
    ///
    /// # Panics
    /// Panics if `bits > 3`.
    pub fn from_bits(bits: u8) -> Self {
        assert!(bits <= 3, "OAQFM symbols carry exactly two bits");
        Self {
            tone_a: bits & 0b10 != 0,
            tone_b: bits & 0b01 != 0,
        }
    }

    /// Recovers the 2-bit value carried by this symbol.
    pub fn to_bits(self) -> u8 {
        (u8::from(self.tone_a) << 1) | u8::from(self.tone_b)
    }

    /// Number of tones present (0, 1 or 2) — proportional to TX energy.
    pub fn tone_count(self) -> u8 {
        u8::from(self.tone_a) + u8::from(self.tone_b)
    }
}

/// Packs a byte slice into a sequence of OAQFM symbols, MSB-first.
pub fn bytes_to_symbols(data: &[u8]) -> Vec<OaqfmSymbol> {
    let mut out = Vec::with_capacity(data.len() * 4);
    bytes_to_symbols_into(data, &mut out);
    out
}

/// [`bytes_to_symbols`] into a caller-owned buffer (cleared first).
pub fn bytes_to_symbols_into(data: &[u8], out: &mut Vec<OaqfmSymbol>) {
    out.clear();
    for &byte in data {
        for shift in [6u8, 4, 2, 0] {
            out.push(OaqfmSymbol::from_bits((byte >> shift) & 0b11));
        }
    }
}

/// Reassembles bytes from OAQFM symbols (inverse of [`bytes_to_symbols`]).
///
/// # Panics
/// Panics if the symbol count is not a multiple of four.
pub fn symbols_to_bytes(symbols: &[OaqfmSymbol]) -> Vec<u8> {
    let mut out = Vec::with_capacity(symbols.len() / 4);
    symbols_to_bytes_into(symbols, &mut out);
    out
}

/// [`symbols_to_bytes`] into a caller-owned buffer (cleared first).
///
/// # Panics
/// Panics if the symbol count is not a multiple of four.
pub fn symbols_to_bytes_into(symbols: &[OaqfmSymbol], out: &mut Vec<u8>) {
    assert!(symbols.len().is_multiple_of(4), "need 4 symbols per byte");
    out.clear();
    out.extend(
        symbols
            .chunks_exact(4)
            .map(|c| c.iter().fold(0u8, |acc, s| (acc << 2) | s.to_bits())),
    );
}

/// Generates a rectangular on-off keying envelope: `symbols[i]` holds the
/// level for the i-th symbol period of `samples_per_symbol` samples.
pub fn ook_envelope(levels: &[f64], samples_per_symbol: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(levels.len() * samples_per_symbol);
    for &l in levels {
        out.extend(std::iter::repeat_n(l, samples_per_symbol));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sawtooth_sweep_endpoints() {
        let c = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        assert_eq!(c.instantaneous_freq(0.0), 26.5e9);
        let just_before_end = c.instantaneous_freq(18e-6 - 1e-12);
        assert!((just_before_end - 29.5e9).abs() < 1e6);
        assert!((c.center_hz() - 28e9).abs() < 1.0);
    }

    #[test]
    fn sawtooth_slope_matches_paper_field2() {
        // 3 GHz over 18 µs = 1.667e14 Hz/s.
        let c = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        assert!((c.slope() - 3e9 / 18e-6).abs() < 1.0);
    }

    #[test]
    fn triangular_is_symmetric_around_midpoint() {
        let c = Chirp::triangular(26.5e9, 3e9, 45e-6);
        let t1 = 10e-6;
        let f_up = c.instantaneous_freq(t1);
        let f_down = c.instantaneous_freq(45e-6 - t1);
        assert!((f_up - f_down).abs() < 1.0);
        // Peak frequency at midpoint.
        assert!((c.instantaneous_freq(22.5e-6) - 29.5e9).abs() < 1e3);
    }

    #[test]
    fn chirp_period_folding() {
        let c = Chirp::sawtooth(1e9, 1e9, 10e-6);
        assert!((c.instantaneous_freq(25e-6) - c.instantaneous_freq(5e-6)).abs() < 1e-3);
    }

    #[test]
    fn phase_derivative_approximates_frequency() {
        let c = Chirp::sawtooth(1e6, 2e6, 1e-3);
        let dt = 1e-9;
        for &t in &[1e-4, 3e-4, 7e-4] {
            let f_est = (c.phase(t + dt) - c.phase(t)) / (2.0 * PI * dt);
            let f_true = c.instantaneous_freq(t + dt / 2.0);
            assert!((f_est - f_true).abs() / f_true < 1e-6);
        }
    }

    #[test]
    fn triangular_phase_is_continuous_at_apex() {
        // Crossing the apex must not jump the phase: the increment over 2ε
        // equals 2π·f_apex·2ε to first order.
        let c = Chirp::triangular(1e6, 2e6, 1e-3);
        let eps = 1e-9;
        let before = c.phase(0.5e-3 - eps);
        let after = c.phase(0.5e-3 + eps);
        let expected = 2.0 * PI * c.end_hz() * 2.0 * eps;
        assert!(((after - before) - expected).abs() < 1e-6);
    }

    #[test]
    fn triangular_crossings_are_symmetric_for_center_freq() {
        let c = Chirp::triangular(26.5e9, 3e9, 45e-6);
        let (up, down) = c.triangular_crossings(28e9).unwrap();
        // Center frequency crossings sit symmetric around the apex.
        assert!((up - 11.25e-6).abs() < 1e-12);
        assert!((down - 33.75e-6).abs() < 1e-12);
    }

    #[test]
    fn crossing_separation_inverts_exactly() {
        let c = Chirp::triangular(26.5e9, 3e9, 45e-6);
        for f in [26.6e9, 27.5e9, 28.9e9, 29.4e9] {
            let (up, down) = c.triangular_crossings(f).unwrap();
            let rec = c.freq_from_peak_separation(down - up).unwrap();
            assert!((rec - f).abs() < 1.0, "{f} → {rec}");
        }
    }

    #[test]
    fn crossings_refuse_out_of_band_and_sawtooth() {
        let tri = Chirp::triangular(26.5e9, 3e9, 45e-6);
        assert!(tri.triangular_crossings(26.4e9).is_none());
        assert!(tri.triangular_crossings(29.6e9).is_none());
        let saw = Chirp::sawtooth(26.5e9, 3e9, 18e-6);
        assert!(saw.triangular_crossings(27e9).is_none());
        assert!(saw.freq_from_peak_separation(1e-6).is_none());
    }

    #[test]
    fn higher_frequency_means_smaller_peak_separation() {
        // The V-shape: beams near the sweep apex see their two power peaks
        // close together; beams near the sweep edges see them far apart.
        let c = Chirp::triangular(26.5e9, 3e9, 45e-6);
        let (u1, d1) = c.triangular_crossings(27e9).unwrap();
        let (u2, d2) = c.triangular_crossings(29e9).unwrap();
        assert!((d2 - u2) < (d1 - u1));
    }

    #[test]
    fn sampled_baseband_has_unit_magnitude_and_correct_length() {
        let c = Chirp::sawtooth(0.0, 1e6, 1e-4);
        let s = c.sample_baseband(10e6);
        assert_eq!(s.len(), 1000);
        for z in &s {
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tone_power_reference() {
        // 1 V peak across 50 Ω is 10 mW = +10 dBm.
        let t = Tone::new(28e9, 1.0);
        assert!((t.power_watts(50.0) - 0.01).abs() < 1e-15);
    }

    #[test]
    fn tone_sampling() {
        let t = Tone::new(1e3, 2.0);
        let s = t.sample_real(4, 0.25e-3);
        assert!((s[0] - 2.0).abs() < 1e-12);
        assert!(s[1].abs() < 1e-9);
        assert!((s[2] + 2.0).abs() < 1e-9);
    }

    #[test]
    fn oaqfm_symbol_bits_roundtrip() {
        for bits in 0..4u8 {
            assert_eq!(OaqfmSymbol::from_bits(bits).to_bits(), bits);
        }
        assert_eq!(OaqfmSymbol::ALL[2], OaqfmSymbol::from_bits(0b10));
    }

    #[test]
    fn oaqfm_symbol_semantics_match_figure_6() {
        let s01 = OaqfmSymbol::from_bits(0b01);
        assert!(!s01.tone_a && s01.tone_b);
        let s10 = OaqfmSymbol::from_bits(0b10);
        assert!(s10.tone_a && !s10.tone_b);
        assert_eq!(OaqfmSymbol::from_bits(0b00).tone_count(), 0);
        assert_eq!(OaqfmSymbol::from_bits(0b11).tone_count(), 2);
    }

    #[test]
    #[should_panic(expected = "exactly two bits")]
    fn oaqfm_rejects_wide_values() {
        OaqfmSymbol::from_bits(4);
    }

    #[test]
    fn byte_symbol_roundtrip() {
        let data = vec![0x00, 0xFF, 0xA5, 0x3C, 0x42];
        let syms = bytes_to_symbols(&data);
        assert_eq!(syms.len(), 20);
        assert_eq!(symbols_to_bytes(&syms), data);
    }

    #[test]
    fn byte_packing_is_msb_first() {
        let syms = bytes_to_symbols(&[0b10_01_11_00]);
        assert_eq!(syms[0].to_bits(), 0b10);
        assert_eq!(syms[1].to_bits(), 0b01);
        assert_eq!(syms[2].to_bits(), 0b11);
        assert_eq!(syms[3].to_bits(), 0b00);
    }

    #[test]
    fn ook_envelope_shape() {
        let env = ook_envelope(&[1.0, 0.0, 1.0], 3);
        assert_eq!(env, vec![1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
    }
}
