//! The closed-loop timed run and the result it prints.
//!
//! One caller issues workload calls back-to-back from this process until
//! the run has lasted `seconds` and made at least [`MIN_CALLS`] calls.
//! Call `i` runs with seed `trial_seed(seed, i)`. End-to-end metrics come
//! from this untraced loop; `--trace 1` runs [`crate::layers::traced`]
//! instead and reports the per-layer metrics.
//!
//! On a shared 2-vCPU virtual machine the host's speed changes under the
//! benchmark: the hypervisor takes the vCPU away for stretches, and in
//! phases a co-tenant makes the same call take ~1.45× more CPU time. So
//! every end-to-end timing is process CPU time ([`cpu_time_ns`]), which
//! leaves the first out, scaled to nominal host speed by a [`Reference`]
//! kernel timed after every call and set-up, which takes out the second.
//! Each timing is then a median over the run's consecutive
//! [`WINDOW`]-call windows of that window's statistic, and the set-ups are
//! spread across the run rather than back-to-back. The raw CPU and
//! wall-clock figures are printed with the provenance.

use crate::layers;
use crate::workloads::{
    gapped_sector_scene, Detail, Kind, Scale, Workload, FIG12A_DISTANCES_M, PAYLOAD_BYTES,
    RANGE_BANDS_CM, RELAY_HOPS, SECTOR_NODES, SLOTS,
};
use crate::{
    cpu_time_ns, json_num, json_str, median, peak_rss_mb, quantile_sorted, Digest, Metric,
    Reference,
};
use milback_bench::experiments::{extension_net_relay, relay_sweep_config, NET_AUDIT_GAP_FRACTION};
use milback_bench::runner::{trial_seed, RunnerConfig};
use std::time::{Duration, Instant};

/// Calls per statistics window: each window's p90 has ten samples beyond
/// it.
pub const WINDOW: usize = 100;
/// Minimum timed calls per run: at least one full window.
pub const MIN_CALLS: usize = WINDOW;
/// The reference batch: the first `REF_CALLS` calls of a run.
/// `delivery_ratio` and `sim_digest` are taken over it, so they cover the
/// same simulated work for a given seed however long the run lasts.
pub const REF_CALLS: usize = 100;
/// Set-ups timed per untraced run, spread evenly over the run so they
/// sample the host at different moments; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Hard cap on the timed loop, whatever `seconds` asks for.
const MAX_LOOP: Duration = Duration::from_secs(120);
/// The default workload seed, which the pinned digests belong to.
pub const DEFAULT_SEED: u64 = 1;
/// Calls in the golden batch: calls `0..GOLDEN_CALLS` at [`DEFAULT_SEED`].
pub const GOLDEN_CALLS: usize = 10;
/// Digest of each workload's golden batch at [`Scale::full`], in
/// [`crate::workloads::WORKLOADS`] order. Every run re-runs the golden
/// batch after it measures, whatever its own seed, and a mismatch fails all
/// of the run's calls: a change that only claims speed must leave these
/// unchanged.
pub const PINNED_DIGESTS: [u64; 4] = [
    0x0e8a_4a96_fa4f_13bd,
    0x8e88_933e_1057_f6fc,
    0x9ba6_834d_abf2_9569,
    0x95a9_66ce_b8ed_bc30,
];

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
    /// Minimum timed calls.
    pub min_calls: usize,
    /// Where the traced run writes its spans (relative to the working
    /// directory); `None` keeps them in memory only.
    pub spans_dir: Option<&'static str>,
}

impl RunConfig {
    /// The benchmark's settings for `kind` at full scale.
    pub fn new(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            kind,
            seed,
            seconds,
            trace,
            scale: Scale::full(),
            min_calls: MIN_CALLS,
            spans_dir: Some(".bench_build/perfbench-spans"),
        }
    }
}

/// One run's result.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// Workload calls attempted.
    pub attempted: u64,
    /// Calls that returned an error or failed an output check.
    pub failed: u64,
    /// The printed metrics.
    pub metrics: Vec<Metric>,
    /// Provenance and check details, as JSON members (`"key": value`).
    pub provenance: Vec<(String, String)>,
}

impl RunResult {
    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The provenance line printed before the result line.
    pub fn provenance_json(&self) -> String {
        let members: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{\"perfbench\": {{{}}}}}", members.join(", "))
    }
}

/// Host parallelism (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one benchmark run.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut res = if cfg.trace {
        traced_run(cfg)?
    } else {
        timed_run(cfg)?
    };
    let mut prov = vec![
        ("workload".to_string(), json_str(cfg.kind.name())),
        ("seed".to_string(), cfg.seed.to_string()),
        ("trace".to_string(), u8::from(cfg.trace).to_string()),
        ("workers".to_string(), "1".to_string()),
        (
            "library_threads".to_string(),
            mmwave_sigproc::parallel::max_threads().to_string(),
        ),
        ("nproc".to_string(), nproc().to_string()),
        ("rustc".to_string(), json_str(env!("PERFBENCH_RUSTC"))),
        ("features".to_string(), json_str(features())),
        ("git_rev".to_string(), json_str(env!("PERFBENCH_GIT_REV"))),
        ("load".to_string(), json_str("closed loop, 1 caller")),
    ];
    prov.append(&mut res.provenance);
    res.provenance = prov;
    if let Some(m) = res.metrics.iter().find(|m| !m.value.is_finite()) {
        res.correct = false;
        res.provenance.push((
            "error".to_string(),
            json_str(&format!("{} is not finite", m.name)),
        ));
    }
    Ok(res)
}

/// The simulator features this build enables.
pub fn features() -> &'static str {
    if cfg!(feature = "telemetry") {
        "telemetry"
    } else {
        "none"
    }
}

/// The [`Reference`] kernel and its latest sample: each timed span is
/// scaled by the samples taken just before and just after it.
#[derive(Debug)]
struct Speed {
    kernel: Reference,
    last_ms: f64,
    samples_ms: Vec<f64>,
}

impl Speed {
    fn new() -> Self {
        let mut kernel = Reference::new();
        let last_ms = kernel.sample_ms();
        Self {
            kernel,
            last_ms,
            samples_ms: vec![last_ms],
        }
    }

    /// Samples the kernel after a span and returns the span's scale to
    /// nominal speed.
    fn scale_since_last(&mut self) -> f64 {
        let now = self.kernel.sample_ms();
        self.samples_ms.push(now);
        let scale = Reference::scale(self.last_ms, now);
        self.last_ms = now;
        scale
    }
}

/// Builds the workload and makes one warm-up call off the timed seed
/// sequence; returns it with the CPU time both took at nominal speed,
/// seconds. The warm-up belongs to set-up so that work moved into
/// first-call initialisation still shows in `setup_s`.
fn timed_setup(cfg: &RunConfig, rep: usize, speed: &mut Speed) -> Result<(Workload, f64), String> {
    let started = cpu_time_ns();
    let mut w = Workload::build(cfg.kind, cfg.scale)?;
    w.call(rep, trial_seed(!cfg.seed, rep))
        .map_err(|e| format!("warm-up call failed: {e}"))?;
    let cpu_s = (cpu_time_ns() - started) as f64 / 1e9;
    Ok((w, cpu_s * speed.scale_since_last()))
}

/// Per-call results of a timed loop.
#[derive(Debug, Default)]
struct Loop {
    /// CPU time of each call at nominal speed, ns.
    call_ns: Vec<f64>,
    /// Raw CPU time of all calls, ns (provenance only).
    raw_cpu_ns: f64,
    /// Wall-clock time of all calls, ns (provenance only).
    wall_ns: f64,
    attempts: Vec<u64>,
    delivered: Vec<u64>,
    ref_attempts: u64,
    ref_delivered: u64,
    digest: Digest,
    first_digest: Option<u64>,
    failed: u64,
    errors: Vec<String>,
    fix_errors: Vec<(usize, f64)>,
}

/// One window's statistics.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// CPU time of the window's calls at nominal speed, seconds.
    secs: f64,
    p50_ms: f64,
    p90_ms: f64,
    attempts_per_s: f64,
    delivered_per_s: f64,
}

impl Loop {
    /// Statistics of each full [`WINDOW`]-call window (a partial last
    /// window is dropped; a run shorter than one window is one window).
    fn windows(&self) -> Vec<Window> {
        let size = WINDOW.min(self.call_ns.len()).max(1);
        (0..self.call_ns.len() / size)
            .map(|k| {
                let range = k * size..(k + 1) * size;
                let mut ns = self.call_ns[range.clone()].to_vec();
                let secs = ns.iter().sum::<f64>() / 1e9;
                ns.sort_by(f64::total_cmp);
                let rate = |work: &[u64]| work[range.clone()].iter().sum::<u64>() as f64 / secs;
                Window {
                    secs,
                    p50_ms: quantile_sorted(&ns, 0.5) / 1e6,
                    p90_ms: quantile_sorted(&ns, 0.9) / 1e6,
                    attempts_per_s: rate(&self.attempts),
                    delivered_per_s: rate(&self.delivered),
                }
            })
            .collect()
    }
}

fn timed_run(cfg: &RunConfig) -> Result<RunResult, String> {
    let mut speed = Speed::new();
    let (mut w, first_setup) = timed_setup(cfg, 0, &mut speed)?;
    let mut setups = vec![first_setup];
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0)).min(MAX_LOOP);
    let setup_every = budget / SETUP_REPS as u32;
    let mut l = Loop::default();
    let started = Instant::now();
    let mut i = 0usize;
    while i < cfg.min_calls || (started.elapsed() < budget) {
        if setups.len() < SETUP_REPS && started.elapsed() >= setup_every * setups.len() as u32 {
            let (fresh, secs) = timed_setup(cfg, setups.len(), &mut speed)?;
            w = fresh;
            setups.push(secs);
        }
        let t = Instant::now();
        let cpu = cpu_time_ns();
        let out = w.call(i, trial_seed(cfg.seed, i));
        let cpu_ns = (cpu_time_ns() - cpu) as f64;
        l.wall_ns += t.elapsed().as_nanos() as f64;
        l.raw_cpu_ns += cpu_ns;
        l.call_ns.push(cpu_ns * speed.scale_since_last());
        let in_ref = i < REF_CALLS.min(cfg.min_calls);
        match out {
            Ok(o) => {
                l.attempts.push(o.attempts);
                l.delivered.push(o.delivered);
                if in_ref {
                    l.ref_attempts += o.attempts;
                    l.ref_delivered += o.delivered;
                    l.digest.word(o.digest);
                }
                if i == 0 {
                    l.first_digest = Some(o.digest);
                }
                if let Detail::Fix {
                    distance_idx,
                    abs_err_m,
                } = o.detail
                {
                    l.fix_errors.push((distance_idx, abs_err_m));
                }
            }
            Err(e) => {
                l.attempts.push(0);
                l.delivered.push(0);
                l.failed += 1;
                if in_ref {
                    l.digest.word(u64::MAX);
                }
                if l.errors.len() < 4 {
                    l.errors.push(format!("call {i}: {e}"));
                }
            }
        }
        i += 1;
        if started.elapsed() > MAX_LOOP {
            break;
        }
    }
    // A run shorter than its set-up schedule finishes the set-ups here.
    while setups.len() < SETUP_REPS {
        let (fresh, secs) = timed_setup(cfg, setups.len(), &mut speed)?;
        w = fresh;
        setups.push(secs);
    }
    let calls = l.call_ns.len();

    let mut checks: Vec<(&str, Result<(), String>)> = Vec::new();
    // Determinism: call 0 again, fanned out over every core, must
    // reproduce itself.
    checks.push((
        "rerun_call0_nproc_workers",
        match (
            w.call_on(0, trial_seed(cfg.seed, 0), nproc()),
            l.first_digest,
        ) {
            (Ok(o), Some(d)) if o.digest == d => Ok(()),
            (Ok(_), Some(_)) => Err("call 0 changed on re-run".to_string()),
            (Err(e), _) => Err(e),
            (_, None) => Err("call 0 failed".to_string()),
        },
    ));
    let golden = golden_check(cfg, &mut w);
    if let Some((check, _)) = &golden {
        checks.push(("golden_digest_pinned", check.clone()));
    }
    let mut range_err_cm = None;
    if cfg.kind == Kind::Localize {
        let (check, mean_cm) = range_band_check(&l.fix_errors);
        range_err_cm = Some(mean_cm);
        checks.push(("range_err_bands", check));
    }
    if cfg.kind == Kind::Relay {
        checks.push(("gapped_scene_gap_nodes", check_gapped_scene()));
    }
    let failed_checks: Vec<String> = checks
        .iter()
        .filter_map(|(name, r)| r.as_ref().err().map(|e| format!("{name}: {e}")))
        .collect();
    // A run whose outputs fail a run-level check has no trustworthy call.
    let failed = if failed_checks.is_empty() {
        l.failed
    } else {
        calls as u64
    };
    let correct = failed == 0 && failed_checks.is_empty();

    let windows = l.windows();
    let across = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let metrics = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("cpu_s", across(|w| w.secs), "s"),
        Metric::new("call_ms_p50", across(|w| w.p50_ms), "ms"),
        Metric::new("call_ms_p90", across(|w| w.p90_ms), "ms"),
        Metric::new("attempts_per_s", across(|w| w.attempts_per_s), "1/s"),
        Metric::new("delivered_per_s", across(|w| w.delivered_per_s), "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MiB"),
        Metric::new(
            "delivery_ratio",
            l.ref_delivered as f64 / l.ref_attempts.max(1) as f64,
            "ratio",
        ),
    ];

    let mut prov = vec![
        ("calls".to_string(), calls.to_string()),
        ("samples".to_string(), calls.to_string()),
        ("windows".to_string(), windows.len().to_string()),
        ("ref_calls".to_string(), REF_CALLS.min(calls).to_string()),
        ("setup_reps".to_string(), SETUP_REPS.to_string()),
        (
            "reference_ms_p50".to_string(),
            json_num(median(&speed.samples_ms)),
        ),
        (
            "reference_nominal_ms".to_string(),
            json_num(Reference::NOMINAL_MS),
        ),
        ("calls_raw_cpu_s".to_string(), json_num(l.raw_cpu_ns / 1e9)),
        ("calls_wall_s".to_string(), json_num(l.wall_ns / 1e9)),
        (
            "failed_frac".to_string(),
            json_num(failed as f64 / calls.max(1) as f64),
        ),
        (
            "sim_digest".to_string(),
            json_str(&format!("{:#018x}", l.digest.0)),
        ),
    ];
    if let Some((_, digest)) = golden {
        prov.push(("golden_digest".to_string(), json_str(&digest)));
    }
    if let Some(cm) = range_err_cm {
        prov.push(("range_err_cm".to_string(), json_num(cm)));
    }
    let check_names: Vec<String> = checks.iter().map(|(n, _)| json_str(n)).collect();
    prov.push((
        "checks".to_string(),
        format!("[{}]", check_names.join(", ")),
    ));
    let failures: Vec<String> = failed_checks
        .iter()
        .chain(&l.errors)
        .map(|e| json_str(e))
        .collect();
    prov.push(("failures".to_string(), format!("[{}]", failures.join(", "))));
    Ok(RunResult {
        correct,
        attempted: calls as u64,
        failed,
        metrics,
        provenance: prov,
    })
}

/// Re-runs the golden batch and compares its digest with the pin; `None`
/// below full scale, where nothing is pinned. Returns the check and the
/// digest as printed.
pub fn golden_check(cfg: &RunConfig, w: &mut Workload) -> Option<(Result<(), String>, String)> {
    if cfg.scale != Scale::full() {
        return None;
    }
    let idx = crate::workloads::WORKLOADS
        .iter()
        .position(|&n| n == cfg.kind.name())?;
    let mut d = Digest::new();
    for i in 0..GOLDEN_CALLS {
        match w.call(i, trial_seed(DEFAULT_SEED, i)) {
            Ok(o) => d.word(o.digest),
            Err(e) => return Some((Err(format!("golden call {i}: {e}")), "none".to_string())),
        }
    }
    let pinned = PINNED_DIGESTS[idx];
    let shown = format!("{:#018x}", d.0);
    Some(if d.0 == pinned {
        (Ok(()), shown)
    } else {
        (
            Err(format!("golden digest {shown} != pinned {pinned:#018x}")),
            shown,
        )
    })
}

/// Mean absolute range error over every fix, cm, and the check that the
/// per-distance means stay inside the paper's Fig 12a bands.
pub fn range_band_check(fixes: &[(usize, f64)]) -> (Result<(), String>, f64) {
    let mean = |errs: &mut dyn Iterator<Item = f64>| {
        let (s, n) = errs.fold((0.0, 0usize), |(s, n), e| (s + e, n + 1));
        (n > 0).then(|| s / n as f64 * 100.0)
    };
    let overall = mean(&mut fixes.iter().map(|f| f.1)).unwrap_or(f64::NAN);
    for (distance_m, bound_cm) in RANGE_BANDS_CM {
        let idx = FIG12A_DISTANCES_M
            .iter()
            .position(|&d| d == distance_m)
            .expect("band distance is a Fig 12a distance");
        match mean(&mut fixes.iter().filter(|f| f.0 == idx).map(|f| f.1)) {
            Some(cm) if cm < bound_cm => {}
            Some(cm) => {
                return (
                    Err(format!(
                        "mean error {cm:.2} cm at {distance_m} m ≥ {bound_cm} cm"
                    )),
                    overall,
                )
            }
            None => return (Err(format!("no fix at {distance_m} m")), overall),
        }
    }
    (Ok(()), overall)
}

/// The gapped scene rebuilt from the public `Scene` API must hold as many
/// gap nodes as `extension_net_relay` reports at 64 nodes and a 0.25 gap
/// fraction.
pub fn check_gapped_scene() -> Result<(), String> {
    let batch = extension_net_relay(
        &[NET_AUDIT_GAP_FRACTION],
        &[RELAY_HOPS],
        SECTOR_NODES,
        1,
        PAYLOAD_BYTES,
        SLOTS,
        0,
        &RunnerConfig::serial(),
    );
    let reported = batch
        .oks()
        .next()
        .ok_or("extension_net_relay returned no point")?
        .gap_nodes;
    let rebuilt = relay_sweep_config(RELAY_HOPS)
        .coverage
        .classify(&gapped_sector_scene(SECTOR_NODES, NET_AUDIT_GAP_FRACTION))
        .iter()
        .filter(|&&covered| !covered)
        .count() as u64;
    if reported == rebuilt && rebuilt > 0 {
        Ok(())
    } else {
        Err(format!(
            "rebuilt scene has {rebuilt} gap nodes, extension_net_relay reports {reported}"
        ))
    }
}

fn traced_run(cfg: &RunConfig) -> Result<RunResult, String> {
    let (mut w, _) = timed_setup(cfg, 0, &mut Speed::new())?;
    let golden = golden_check(cfg, &mut w);
    let mut t = layers::traced(cfg, w)?;
    if let Some((check, digest)) = golden {
        t.provenance
            .push(("golden_digest".to_string(), json_str(&digest)));
        if let Err(e) = check {
            t.provenance
                .push(("golden_failure".to_string(), json_str(&e)));
            t.check_failures.push(e);
        }
    }
    let ok = t.check_failures.is_empty();
    Ok(RunResult {
        correct: t.failed == 0 && ok,
        attempted: t.attempted,
        failed: if ok { t.failed } else { t.attempted },
        metrics: t.metrics,
        provenance: t.provenance,
    })
}
