//! The repository benchmark: named, seeded workloads driven through the
//! simulator's public API, timed from outside, with their simulated outputs
//! checked.
//!
//! * [`workloads`] builds each workload's inputs from a seed and runs one
//!   workload call.
//! * [`run`] drives the closed-loop timed run (end-to-end metrics) and the
//!   separate traced run (per-layer metrics, see [`layers`]).
//! * [`spans`] is the traced run's in-memory span recorder.
//!
//! Nothing here changes library code: every number is a timing of, or a
//! count read back from, a public call.

pub mod layers;
pub mod run;
pub mod spans;
pub mod workloads;

/// A metric as printed in the result line: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Folds 64-bit words into a running FNV-1a style digest. The benchmark
/// folds the `to_bits` of every simulated output, in call order, so any
/// change to a simulated value changes the digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// The empty digest (FNV-64 offset basis).
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Folds an `f64` by its bit pattern.
    pub fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// The `q`-quantile of `sorted` by nearest rank (`q` in `(0, 1]`); `NaN`
/// for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (nearest rank); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Renders an `f64` as a JSON number with all its digits; non-finite
/// values (never expected) render as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Whether `name` is a valid metric name (`[A-Za-z0-9_.-]+`).
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// CPU time this process has consumed so far, ns, summed over its threads.
///
/// On a shared host the hypervisor takes the vCPU away for stretches
/// ("steal", up to ~18% of a run on a 2-vCPU virtual machine) and other
/// tasks may preempt it; the kernel leaves both out of this clock, while a
/// wall clock counts them as if the program had been slow. Timed calls are
/// single-threaded, so this is their running time.
#[cfg(target_os = "linux")]
pub fn cpu_time_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Elsewhere the process CPU clock is not read; a monotonic wall clock
/// stands in for it.
#[cfg(not(target_os = "linux"))]
pub fn cpu_time_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A fixed floating-point kernel, unrelated to the simulator, timed beside
/// every measured call to read the host's current speed.
///
/// On a shared 2-vCPU virtual machine the same call takes ~1.45× more CPU
/// time in phases (100 ms to tens of seconds) when a co-tenant contends
/// for the core; the share of a run spent in that state swings from 0 to
/// ~70% within minutes, so raw CPU times of one program moved by up to 30%
/// between runs. This kernel (`sin`/`cos` over a 128 KiB buffer) slows by
/// the same factor: CPU time divided by its CPU time alongside varies by
/// 1–7% between the two states on every workload, where raw time varies
/// by 35–50%. Timings are reported as `cpu × NOMINAL_MS / kernel`, CPU time
/// at the speed where the kernel takes [`Reference::NOMINAL_MS`].
#[derive(Debug, Clone)]
pub struct Reference {
    buf: Vec<f64>,
}

impl Reference {
    /// CPU time of one [`sample_ms`](Self::sample_ms) on an uncontended
    /// 2.1 GHz Xeon vCPU, ms: the speed timings are scaled to.
    pub const NOMINAL_MS: f64 = 0.335;

    /// The kernel with its buffer.
    pub fn new() -> Self {
        Self {
            buf: vec![0.5; 1 << 14],
        }
    }

    /// Runs the kernel once and returns its CPU time, ms.
    pub fn sample_ms(&mut self) -> f64 {
        let started = cpu_time_ns();
        let mut acc = 0.0;
        for (i, v) in self.buf.iter_mut().enumerate() {
            *v = (*v * 1.0001 + (i as f64 * 0.001).sin()).cos();
            acc += *v;
        }
        std::hint::black_box(acc);
        (cpu_time_ns() - started) as f64 / 1e6
    }

    /// The factor that scales a CPU time measured between two kernel
    /// samples to nominal speed.
    pub fn scale(before_ms: f64, after_ms: f64) -> f64 {
        2.0 * Self::NOMINAL_MS / (before_ms + after_ms)
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

/// Peak resident set size of this process, MiB, from `VmHWM` in
/// `/proc/self/status`; `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.9), 90.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        a.float(1.0);
        b.float(f64::from_bits(1.0f64.to_bits() ^ 1));
        assert_ne!(a, b);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_time_ns();
        let mut x = 1u64;
        for i in 0..1_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(cpu_time_ns() > before);
    }

    #[test]
    fn reference_scale_is_one_at_nominal_speed() {
        let nominal = Reference::NOMINAL_MS;
        assert_eq!(Reference::scale(nominal, nominal), 1.0);
        assert!(Reference::scale(1.5 * nominal, 1.5 * nominal) < 1.0);
        assert!(Reference::new().sample_ms() > 0.0);
    }

    #[test]
    fn metric_names() {
        assert!(valid_metric_name("lifecycle.drops.sdm_inseparable"));
        assert!(!valid_metric_name("bad name"));
        assert!(!valid_metric_name(""));
    }
}
