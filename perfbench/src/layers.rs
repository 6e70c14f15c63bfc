//! The traced run: per-layer metrics measured from outside the program.
//!
//! The run has three phases, all recorded as [`Spans`]:
//!
//! 1. **Calls.** Workload call `i` runs twice on its seed, once plain and
//!    once inside a `call` span (the order alternates). The plain/traced
//!    time ratio is `trace.overhead_ratio`; the traced call's outputs give
//!    the per-call counts (attempts, collisions, pipeline and lifecycle
//!    ledgers, relayed packets, fixes).
//! 2. **Replays.** For the first calls, every layer call the workload
//!    makes is replayed on that call's inputs, each batch a child span of a
//!    `replay` span carrying the call id: the probed campaign
//!    (engine events), the MAC schedule, SDM arbitration, link physics per
//!    node view, relay graph and routes, shard partition and merge, and the
//!    lifecycle audit.
//! 3. **Kernels.** The engine dispatch ping and the DSP kernels (FFT, range
//!    spectra, beat synthesis, FSA grids, whole fixes).
//!
//! A network workload measures the DSP layers on the `localize` inputs,
//! and `localize` measures the network layers on the `sector_sdm` inputs,
//! so every run reports every layer. Each `<layer>.share` is the layer's
//! per-call count times its unit cost over the call's host time;
//! `unattributed.share` is the residual. Thread fan-out is measured here
//! only, as `shard.parallel_efficiency`: the timed calls run on one worker.

use crate::run::{nproc, RunConfig};
use crate::spans::Spans;
use crate::workloads::{Detail, Inputs, Kind, LocInputs, NetInputs, Workload, SDM_THRESHOLD_DB};
use crate::Metric;
use milback_bench::experiments::{relay_sweep_config, RELAY_TAG_RANGE_M};
use milback_bench::runner::trial_seed;
use milback_core::engine::TimePs;
use milback_core::localization::ToggleSelection;
use milback_core::{
    cell_seed, partition_cells, select_routes, Actor, ActorId, CampaignAggregate, CampaignProbe,
    DropReason, Engine, LinkSimulator, MacContext, MacPolicy, NeighborGraph, Network, Outbox,
    SdmAwareAssignment,
};
use mmwave_rf::antenna::fsa::{FsaGainEval, FsaPort, FsaStats};
use mmwave_rf::Echo;
use mmwave_sigproc::fft::{Direction, FftPlanner};
use mmwave_sigproc::random::GaussianSource;
use mmwave_sigproc::Complex;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls replayed layer by layer.
const REPLAY_CALLS: usize = 3;
/// Minimum plain/traced call pairs.
const MIN_PAIRS: usize = 10;
/// Share of `--seconds` spent on phase 1; the rest of the run is replays
/// and kernels, which take what they take (about a second).
const CALL_PHASE_SHARE: f64 = 0.6;
/// Nodes whose views the link replay walks.
const LINK_NODES: usize = 64;
/// Repetitions of each kernel span.
const KERNEL_REPS: usize = 15;
/// Runs at each worker count behind `shard.parallel_efficiency`.
const FANOUT_REPS: usize = 11;
/// Events per engine ping span.
const PING_EVENTS: u64 = 20_000;
/// Fixes the kernel phase times when the workload is not `localize`.
const PROBE_FIXES: usize = 16;
/// Spectra per fix: the detector's 5-chirp stack, plus AoA's detector
/// pass and one subtracted spectrum per receive channel.
const SPECTRA_PER_FIX: f64 = 20.0;
/// Beat signals per fix: 5 chirps on each of 2 receive channels.
const BEATS_PER_FIX: f64 = 10.0;

/// The traced run's outcome.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Provenance and sample counts.
    pub provenance: Vec<(String, String)>,
    /// Calls attempted (traced executions).
    pub attempted: u64,
    /// Calls that failed.
    pub failed: u64,
    /// Run-level check failures.
    pub check_failures: Vec<String>,
}

/// Per-call counts summed over the traced calls.
#[derive(Debug, Default)]
struct Counts {
    calls: u64,
    attempts: u64,
    delivered: u64,
    collisions: u64,
    offered: u64,
    served: u64,
    shed: u64,
    relayed: u64,
    gap_attempts: u64,
    gap_delivered: u64,
    drops: [u64; DropReason::COUNT],
    fixes: u64,
    fix_err_m: f64,
}

impl Counts {
    fn observe(&mut self, detail: &Detail) {
        self.calls += 1;
        match detail {
            Detail::Net(agg) => {
                self.attempts += agg.attempts;
                self.delivered += agg.delivered;
                self.collisions += agg.collisions;
                self.offered += agg.service.offered;
                self.served += agg.service.served;
                self.shed += agg.service.dropped;
                self.relayed += agg.relayed;
                self.gap_attempts += agg.gap_attempts;
                self.gap_delivered += agg.gap_delivered;
                for (d, s) in self.drops.iter_mut().zip(agg.lifecycle.drops) {
                    *d += s;
                }
            }
            Detail::Fix { abs_err_m, .. } => {
                self.attempts += 1;
                self.delivered += 1;
                self.fixes += 1;
                self.fix_err_m += abs_err_m;
            }
        }
    }

    fn per_call(&self, v: u64) -> f64 {
        v as f64 / self.calls.max(1) as f64
    }
}

/// Runs the traced run on a built workload.
pub fn traced(cfg: &RunConfig, mut w: Workload) -> Result<Traced, String> {
    let mut spans = Spans::new();
    let mut checks = Vec::new();

    // Phase 1: plain and traced executions of the same calls.
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0) * CALL_PHASE_SHARE);
    let started = Instant::now();
    let (mut plain_ns, mut traced_ns) = (0.0, 0.0);
    let mut counts = Counts::default();
    let mut call_span = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut i = 0;
    while i < MIN_PAIRS || started.elapsed() < budget {
        let seed = trial_seed(cfg.seed, i);
        let plain = |w: &mut Workload| {
            let t = Instant::now();
            let out = w.call(i, seed);
            (out, t.elapsed().as_nanos() as f64)
        };
        let run_traced = |w: &mut Workload, spans: &mut Spans, counts: &mut Counts| {
            let t = Instant::now();
            let id = spans.open("call", None, Some(i));
            let out = w.call(i, seed);
            spans.close(id, 1);
            if let Ok(o) = &out {
                counts.observe(&o.detail);
            }
            (out, id, t.elapsed().as_nanos() as f64)
        };
        let ((p, p_ns), (t, id, t_ns)) = if i % 2 == 0 {
            let p = plain(&mut w);
            (p, run_traced(&mut w, &mut spans, &mut counts))
        } else {
            let t = run_traced(&mut w, &mut spans, &mut counts);
            (plain(&mut w), t)
        };
        plain_ns += p_ns;
        traced_ns += t_ns;
        call_span.push(id);
        attempted += 1;
        match (p, t) {
            (Ok(p), Ok(t)) if p.digest == t.digest => {}
            (Ok(_), Ok(_)) => {
                failed += 1;
                checks.push(format!("call {i}: traced and plain outputs differ"));
            }
            (Err(e), _) | (_, Err(e)) => {
                failed += 1;
                checks.push(format!("call {i}: {e}"));
            }
        }
        i += 1;
    }
    let pairs = i;
    let call_ns = plain_ns / pairs as f64;

    // The other half of the stack, for layers this workload never calls.
    let other_kind = if w.kind.is_network() {
        Kind::Localize
    } else {
        Kind::Sector
    };
    let mut other = Workload::build(other_kind, cfg.scale)?;

    // Phase 2: layer replays on the first calls' inputs.
    let kind = w.kind;
    let (net, loc) = match (&mut w.inputs, &mut other.inputs) {
        (Inputs::Net(n), Inputs::Loc(l)) | (Inputs::Loc(l), Inputs::Net(n)) => (&**n, l),
        _ => unreachable!("a workload and its complement cover both halves"),
    };
    let mut replay = NetReplay::default();
    for (call, &parent_call) in call_span.iter().enumerate().take(REPLAY_CALLS) {
        let seed = trial_seed(cfg.seed, call);
        let parent = spans.open("replay", Some(parent_call), Some(call));
        replay_network(&mut spans, parent, call, seed, net, &mut replay)?;
        spans.close(parent, 1);
    }
    let replays = replay.calls.max(1) as f64;

    // Phase 3: kernels.
    let engine_dispatch_ns = {
        for _ in 0..KERNEL_REPS {
            let id = spans.open("engine.dispatch", None, None);
            let events = ping(PING_EVENTS).map_err(|e| e.to_string())?;
            spans.close(id, events);
        }
        spans
            .median_ns_per_op("engine.dispatch")
            .unwrap_or(f64::NAN)
    };
    let parallel_efficiency = parallel_efficiency(&mut spans, cfg.seed, net, &mut checks)?;
    let dsp = dsp_kernels(&mut spans, cfg.seed, loc, kind == Kind::Localize)?;
    let (fix_ns, fix_fail_ratio, range_err_cm, fsa_stats) = if kind == Kind::Localize {
        let fix_ns = spans.median_ns_per_op("call").unwrap_or(f64::NAN);
        let fail = failed as f64 / attempted.max(1) as f64;
        let err_cm = counts.fix_err_m / counts.fixes.max(1) as f64 * 100.0;
        let stats = sum_stats(loc.pipelines.iter().map(|p| p.gain_eval.stats()));
        (fix_ns, fail, err_cm, stats)
    } else {
        (dsp.fix_ns, dsp.fail_ratio, dsp.range_err_cm, replay.fsa)
    };

    // Unit costs and shares.
    let unit = |name: &str| spans.median_ns_per_op(name).unwrap_or(f64::NAN);
    let per_call = |v: u64| counts.per_call(v);
    let share = |count_per_call: f64, unit_ns: f64| count_per_call * unit_ns / call_ns;
    let link_new = unit("link.new");
    let link_uplink = unit("link.uplink");
    let sdm_margin = unit("network.sdm_margin");
    let schedule = unit("mac.schedule_frame");
    let graph = unit("relay.graph");
    let routes = unit("relay.routes");
    let partition = unit("shard.partition");
    let merge = unit("shard.merge");
    let spectra = unit("ap.fmcw.range_spectra");
    let beat = unit("rf.channel.beat_synth");
    let is_net = kind.is_network();
    let own = |v: f64| if is_net { v } else { 0.0 };
    // Every non-collided attempt runs the uplink physics once: a served
    // direct grant, or the terminal uplink of a granted relay chain (a
    // chain counts as its origin's attempt).
    let uplinks = per_call(counts.attempts - counts.collisions);
    // With relaying on, each campaign builds the neighbor graph and routes
    // twice: in `RelayAwareMac::begin` and when classifying gap nodes' drop
    // reasons.
    let relay_builds = if net.relay.is_disabled() {
        0.0
    } else {
        2.0 * net.cells as f64
    };
    let shares = [
        (
            "engine.share",
            own(share(replay.events as f64 / replays, engine_dispatch_ns)),
        ),
        (
            "mac.share",
            own(share(replay.frames as f64 / replays, schedule)),
        ),
        (
            "network.sdm.share",
            own(share(replay.sdm_evals as f64 / replays, sdm_margin)),
        ),
        ("link.share", own(share(uplinks, link_new + link_uplink))),
        ("relay.share", own(share(relay_builds, graph + routes))),
        (
            "shard.share",
            own(if net.cells > 1 {
                share(net.cells as f64, partition + merge)
            } else {
                0.0
            }),
        ),
        (
            "ap.share",
            if is_net {
                0.0
            } else {
                share(SPECTRA_PER_FIX, spectra)
            },
        ),
        (
            "rf.share",
            if is_net {
                0.0
            } else {
                share(BEATS_PER_FIX, beat)
            },
        ),
    ];
    let unattributed = 1.0 - shares.iter().map(|s| s.1).sum::<f64>();

    let mut m = vec![
        Metric::new("engine.dispatch_ns", engine_dispatch_ns, "ns"),
        Metric::new(
            "engine.events_per_call",
            own(replay.events as f64 / replays),
            "count",
        ),
        Metric::new("mac.schedule_ns_per_frame", schedule, "ns"),
        Metric::new("network.sdm_margin_ns", sdm_margin, "ns"),
        Metric::new(
            "network.ns_per_attempt",
            call_ns / per_call(counts.attempts).max(1e-9),
            "ns",
        ),
        Metric::new(
            "network.ns_per_delivered",
            call_ns / per_call(counts.delivered).max(1e-9),
            "ns",
        ),
        Metric::new(
            "network.collided_ratio",
            counts.collisions as f64 / counts.attempts.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "network.sdm_evals_per_call",
            own(replay.sdm_evals as f64 / replays),
            "count",
        ),
        Metric::new("link.new_ns", link_new, "ns"),
        Metric::new("link.plan_carriers_ns", unit("link.plan_carriers"), "ns"),
        Metric::new("link.budget_ns", unit("link.budget"), "ns"),
        Metric::new("link.uplink_ns", link_uplink, "ns"),
        Metric::new("link.uplinks_per_call", own(uplinks), "count"),
        Metric::new("pipeline.offered", per_call(counts.offered), "count"),
        Metric::new("pipeline.served", per_call(counts.served), "count"),
        Metric::new(
            "pipeline.shed_ratio",
            counts.shed as f64 / counts.offered.max(1) as f64,
            "ratio",
        ),
        Metric::new("relay.graph_ns", graph, "ns"),
        Metric::new("relay.routes_ns", routes, "ns"),
        Metric::new("relay.relayed", per_call(counts.relayed), "count"),
        Metric::new(
            "relay.gap_delivery_ratio",
            counts.gap_delivered as f64 / counts.gap_attempts.max(1) as f64,
            "ratio",
        ),
        Metric::new("shard.partition_ns_per_cell", partition, "ns"),
        Metric::new("shard.merge_ns_per_cell", merge, "ns"),
        Metric::new("shard.parallel_efficiency", parallel_efficiency, "ratio"),
        Metric::new("lifecycle.audit_ns", unit("lifecycle.audit"), "ns"),
    ];
    for (label, &d) in DropReason::LABELS.iter().zip(&counts.drops) {
        m.push(Metric::new(
            format!("lifecycle.drops.{label}"),
            per_call(d),
            "count",
        ));
    }
    m.extend([
        Metric::new(
            "telemetry.probe_overhead_ratio",
            replay.probed_ns / replay.plain_ns.max(1.0),
            "ratio",
        ),
        Metric::new("localization.fix_ns", fix_ns, "ns"),
        Metric::new("localization.fail_ratio", fix_fail_ratio, "ratio"),
        Metric::new("localization.range_err_cm", range_err_cm, "cm"),
        Metric::new("ap.fmcw.range_spectra_ns_per_chirp", spectra, "ns"),
        Metric::new("rf.channel.beat_synth_ns", beat, "ns"),
        Metric::new("rf.fsa.gain_ns_per_point", unit("rf.fsa.gain_grid"), "ns"),
        Metric::new("rf.fsa.hit_ratio", hit_ratio(&fsa_stats), "ratio"),
        Metric::new("sigproc.fft_ns", unit("sigproc.fft"), "ns"),
    ]);
    for (name, v) in shares {
        m.push(Metric::new(name, v, "ratio"));
    }
    m.extend([
        Metric::new("unattributed.share", unattributed, "ratio"),
        Metric::new(
            "trace.overhead_ratio",
            traced_ns / plain_ns.max(1.0),
            "ratio",
        ),
        Metric::new("trace.calls", pairs as f64, "count"),
        Metric::new("trace.call_ns", call_ns, "ns"),
    ]);

    let spans_file = write_spans(cfg, &spans);
    let mut self_ns: Vec<(&str, u64)> = spans.self_ns().into_iter().collect();
    self_ns.sort_by_key(|s| std::cmp::Reverse(s.1));
    for (name, ns) in &self_ns {
        eprintln!("self {:<32} {:>12.3} ms", name, *ns as f64 / 1e6);
    }
    let provenance = vec![
        ("calls".to_string(), pairs.to_string()),
        ("samples".to_string(), pairs.to_string()),
        ("replayed_calls".to_string(), replay.calls.to_string()),
        ("spans".to_string(), spans.all().len().to_string()),
        (
            "spans_file".to_string(),
            crate::json_str(&spans_file.unwrap_or_else(|e| format!("not written: {e}"))),
        ),
        (
            "network_layers_from".to_string(),
            crate::json_str(if is_net {
                kind.name()
            } else {
                other_kind.name()
            }),
        ),
        (
            "dsp_layers_from".to_string(),
            crate::json_str(if is_net {
                other_kind.name()
            } else {
                kind.name()
            }),
        ),
        (
            "failures".to_string(),
            format!(
                "[{}]",
                checks
                    .iter()
                    .take(4)
                    .map(|c| crate::json_str(c))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    Ok(Traced {
        metrics: m,
        provenance,
        attempted,
        failed,
        check_failures: checks,
    })
}

/// Writes the spans as TSV into the run's span directory; returns the path.
fn write_spans(cfg: &RunConfig, spans: &Spans) -> Result<String, String> {
    let dir = cfg.spans_dir.ok_or("no span directory configured")?;
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.tsv", cfg.kind.name(), cfg.seed));
    std::fs::write(&path, spans.to_tsv()).map_err(|e| e.to_string())?;
    Ok(path.display().to_string())
}

/// Counts and timings gathered by the network replays.
#[derive(Debug, Default)]
struct NetReplay {
    calls: usize,
    events: u64,
    frames: u64,
    sdm_evals: u64,
    plain_ns: f64,
    probed_ns: f64,
    fsa: FsaStats,
}

/// The cell networks a call runs: the partition for a sharded call, the
/// network itself otherwise.
fn cell_networks(net: &NetInputs) -> Result<Vec<Network>, String> {
    if net.cells <= 1 {
        return Ok(vec![net.net.clone()]);
    }
    Ok(partition_cells(&net.net.scene, net.cells)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|scene| Network {
            config: net.net.config.clone(),
            scene,
        })
        .collect())
}

/// Replays one network call's layer calls under `parent`.
fn replay_network(
    spans: &mut Spans,
    parent: usize,
    call: usize,
    seed: u64,
    net: &NetInputs,
    out: &mut NetReplay,
) -> Result<(), String> {
    let p = Some(parent);
    let c = Some(call);
    let cells = spans.record("shard.partition", p, c, net.cells.max(1) as u64, || {
        cell_networks(net)
    })?;
    let cell_seed_of = |idx: usize| {
        if net.cells > 1 {
            cell_seed(seed, idx)
        } else {
            seed
        }
    };
    // The probed replay runs the engine's direct path: the relay chains of
    // `relay_shed` have no probed entry point, so its replay schedules the
    // same scene with relay-free slotted ALOHA.
    let probe_net = NetInputs {
        policy: if net.relay.is_disabled() {
            net.policy
        } else {
            crate::workloads::Policy::Aloha
        },
        ..net.clone()
    };
    let mut aggs = Vec::with_capacity(cells.len());
    for (idx, cell) in cells.iter().enumerate() {
        let s = cell_seed_of(idx);
        let t = Instant::now();
        let id = spans.open("telemetry.plain_campaign", p, c);
        cell.run_mac_service(
            probe_net.policy(s),
            net.frames,
            &net.payload,
            &net.plan,
            SDM_THRESHOLD_DB,
            &mut GaussianSource::new(s),
            &net.service,
        )
        .map_err(|e| e.to_string())?;
        spans.close(id, 1);
        out.plain_ns += t.elapsed().as_nanos() as f64;
        let mut probe = CampaignProbe::with_metrics();
        let t = Instant::now();
        let id = spans.open("telemetry.probed_campaign", p, c);
        let report = cell
            .run_mac_service_probed(
                probe_net.policy(s),
                net.frames,
                &net.payload,
                &net.plan,
                SDM_THRESHOLD_DB,
                &mut GaussianSource::new(s),
                &net.service,
                &mut probe,
            )
            .map_err(|e| e.to_string())?;
        let events = probe
            .take_metrics()
            .and_then(|m| m.histogram("queue_depth").map(|h| h.count))
            .unwrap_or(0);
        spans.close(id, events.max(1));
        out.probed_ns += t.elapsed().as_nanos() as f64;
        out.events += events;
        aggs.push(CampaignAggregate::from_report(&report));
    }

    // MAC schedule and SDM arbitration, on the call's own policy.
    for (idx, cell) in cells.iter().enumerate() {
        let s = cell_seed_of(idx);
        let ctx = MacContext {
            net: cell,
            plan: net.plan,
            frames: net.frames,
            sdm_threshold_db: SDM_THRESHOLD_DB,
        };
        let mut policy = net.policy(s);
        let mut rng = GaussianSource::new(s);
        spans.record("mac.begin", p, c, 1, || policy.begin(&ctx, &mut rng));
        if net.policy == crate::workloads::Policy::Sdm {
            out.sdm_evals += sdm_partition_evals(&ctx)?;
        }
        for frame in 0..net.frames {
            let schedule = spans.record("mac.schedule_frame", p, c, 1, || {
                policy.schedule_frame(frame, &ctx)
            });
            out.frames += 1;
            let id = spans.open("network.sdm_arbitration", p, c);
            let evals: u64 = schedule
                .iter()
                .map(|(_, g)| arbitration_evals(cell, g))
                .sum();
            spans.close(id, evals.max(1));
            out.sdm_evals += evals;
        }
    }

    // Unit costs on the first cell's nodes.
    let first = &cells[0];
    let n = first.node_count();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
        .take(256)
        .collect();
    if !pairs.is_empty() {
        for _ in 0..4 {
            spans.record("network.sdm_margin", p, c, pairs.len() as u64, || {
                for &(i, j) in &pairs {
                    black_box(first.sdm_margin_db(i, j));
                }
            });
        }
    }
    let views: Vec<_> = (0..n.min(LINK_NODES))
        .filter_map(|i| first.scene.view_for_node(i))
        .collect();
    let k = views.len() as u64;
    let sims = spans.record("link.new", p, c, k, || {
        views
            .iter()
            .map(|v| LinkSimulator::new(first.config.clone(), v.clone()))
            .collect::<Result<Vec<_>, _>>()
    });
    let sims = sims.map_err(|e| e.to_string())?;
    spans.record("link.plan_carriers", p, c, k, || {
        for s in &sims {
            black_box(s.plan_carriers(None).ok());
        }
    });
    spans.record("link.budget", p, c, k, || {
        for s in &sims {
            black_box(s.uplink_analytic_snr_db().ok());
        }
    });
    let mut rng = GaussianSource::new(seed);
    let uplinks = spans.record("link.uplink", p, c, k, || {
        sims.iter()
            .map(|s| s.uplink(&net.payload, &mut rng).map(|o| o.snr_db))
            .collect::<Result<Vec<_>, _>>()
    });
    uplinks.map_err(|e| e.to_string())?;
    out.fsa = add_stats(out.fsa, sum_stats(sims.iter().map(|s| s.gain_eval.stats())));

    let relay = if net.relay.is_disabled() {
        relay_sweep_config(crate::workloads::RELAY_HOPS)
    } else {
        net.relay
    };
    let covered = relay.coverage.classify(&first.scene);
    for _ in 0..4 {
        let graph = spans.record("relay.graph", p, c, 1, || {
            NeighborGraph::from_scene(&first.scene, RELAY_TAG_RANGE_M)
        });
        let routes = spans.record("relay.routes", p, c, 1, || {
            select_routes(&graph, &covered, relay.max_hops, seed)
        });
        black_box(routes);
    }

    let merges = aggs.len().max(8);
    spans.record("shard.merge", p, c, merges as u64, || {
        let mut total = CampaignAggregate::new();
        for a in aggs.iter().cycle().take(merges) {
            total.merge_from(a);
        }
        black_box(total)
    });
    const AUDITS: u64 = 1_000;
    spans.record("lifecycle.audit", p, c, AUDITS, || {
        for _ in 0..AUDITS {
            black_box(aggs[0].lifecycle.audit().is_ok());
        }
    });
    out.calls += 1;
    Ok(())
}

/// SDM margin evaluations `SdmAwareAssignment::begin` makes: a greedy
/// first-fit partition, each candidate group checked member by member
/// until the first inseparable pair. The replayed groups are checked
/// against the policy's own.
fn sdm_partition_evals(ctx: &MacContext<'_>) -> Result<u64, String> {
    let net = ctx.net;
    let mut evals = 0;
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for node in 0..net.node_count() {
        let fit = groups.iter_mut().find(|g| {
            g.iter().all(|&m| {
                evals += 1;
                net.sdm_separable(node, m, SDM_THRESHOLD_DB)
            })
        });
        match fit {
            Some(g) => g.push(node),
            None => groups.push(vec![node]),
        }
    }
    let mut policy = SdmAwareAssignment::new();
    policy.begin(ctx, &mut GaussianSource::new(0));
    if policy.groups() != groups {
        return Err("replayed SDM partition differs from the policy's".to_string());
    }
    Ok(evals)
}

/// SDM margin evaluations one slot's arbitration makes for `group`: pairs
/// in order until the first inseparable one; a separable group then
/// computes each member's worst margin against the others.
fn arbitration_evals(net: &Network, group: &[usize]) -> u64 {
    if group.len() < 2 {
        return 0;
    }
    let mut evals = 0u64;
    let separable = group.iter().enumerate().all(|(i, &a)| {
        group[i + 1..].iter().all(|&b| {
            evals += 1;
            net.sdm_separable(a, b, SDM_THRESHOLD_DB)
        })
    });
    if separable {
        let k = group.len() as u64;
        evals += k * (k - 1);
    }
    evals
}

/// `shard.parallel_efficiency`: the workload's network call sharded into
/// 32-node cells, at one worker and at `nproc` workers, alternating; the
/// two aggregates must be identical. Efficiency is `t1 / (nproc · tN)` over
/// the fastest of [`FANOUT_REPS`] runs each: on a shared host a fork-join
/// waits for whichever vCPU is being stolen, and the best run is the
/// fan-out the runner can achieve.
fn parallel_efficiency(
    spans: &mut Spans,
    seed: u64,
    net: &NetInputs,
    checks: &mut Vec<String>,
) -> Result<f64, String> {
    let workers = nproc();
    let sharded = NetInputs {
        cells: net
            .cells
            .max(net.net.node_count().div_ceil(crate::workloads::CELL_SIZE)),
        ..net.clone()
    };
    let s = trial_seed(seed, 0);
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for rep in 0..FANOUT_REPS {
        let mut timed = |w: usize, name: &'static str| {
            let t = Instant::now();
            let agg = spans.record(name, None, Some(0), 1, || sharded.run(s, w));
            (agg, t.elapsed().as_secs_f64())
        };
        let (a1, t1, an, tn) = if rep % 2 == 0 {
            let (a1, t1) = timed(1, "shard.run_1worker");
            let (an, tn) = timed(workers, "shard.run_nworkers");
            (a1, t1, an, tn)
        } else {
            let (an, tn) = timed(workers, "shard.run_nworkers");
            let (a1, t1) = timed(1, "shard.run_1worker");
            (a1, t1, an, tn)
        };
        if a1? != an? {
            checks.push(format!(
                "sharded aggregates differ at 1 and {workers} workers"
            ));
        }
        one.push(t1);
        many.push(tn);
    }
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    Ok(fastest(&one) / (workers as f64 * fastest(&many)))
}

/// DSP kernel timings and, off `localize`, whole-fix timings.
struct Dsp {
    fix_ns: f64,
    fail_ratio: f64,
    range_err_cm: f64,
}

fn dsp_kernels(
    spans: &mut Spans,
    seed: u64,
    loc: &mut LocInputs,
    own: bool,
) -> Result<Dsp, String> {
    // The 5 m pipeline: the first of the paper's two accuracy bands.
    let pipeline = &loc.pipelines[4];
    let mut rng = GaussianSource::new(trial_seed(seed, 0));
    let (rx1, _) = pipeline.capture(5, ToggleSelection { a: true, b: true }, &mut rng);
    let processor = pipeline.processor;
    for _ in 0..KERNEL_REPS {
        let id = spans.open("ap.fmcw.range_spectra", None, None);
        black_box(
            processor
                .range_spectra_flat_with(&rx1, &mut loc.scratch)
                .map_err(|e| e.to_string())?
                .len(),
        );
        spans.close(id, rx1.len() as u64);
    }
    // Beat synthesis over the indoor scene's reflectors plus the node.
    let scene = &pipeline.scene;
    let ap = scene.ap.position;
    let echoes: Vec<Echo<'_>> = scene
        .clutter
        .iter()
        .map(|r| r.position)
        .chain(scene.nodes.iter().map(|n| n.position))
        .map(|pos| Echo::constant(pos.distance_to(ap), 1e-3))
        .collect();
    for _ in 0..KERNEL_REPS {
        spans.record("rf.channel.beat_synth", None, None, 1, || {
            black_box(mmwave_rf::channel::synthesize_beat_with_threads(
                &processor.chirp,
                &echoes,
                processor.sample_rate_hz,
                1,
            ))
        });
    }
    // A cold FSA grid: 1024 frequencies across the chirp band.
    let eval = FsaGainEval::for_dual(&pipeline.config.node.fsa);
    let chirp = processor.chirp;
    let freqs: Vec<f64> = (0..1024)
        .map(|i| chirp.start_hz + chirp.bandwidth_hz * i as f64 / 1023.0)
        .collect();
    let mut gains = vec![0.0; freqs.len()];
    for _ in 0..KERNEL_REPS {
        spans.record("rf.fsa.gain_grid", None, None, freqs.len() as u64, || {
            eval.gain_dbi_freqs_into(FsaPort::A, &freqs, 0.2, &mut gains, false)
        });
    }
    black_box(&gains);
    // One range FFT at the processor's length.
    let n = processor.fft_len();
    let plan = FftPlanner::plan(n);
    let mut buf: Vec<Complex> = (0..n)
        .map(|i| Complex::new((i as f64).sin(), 0.0))
        .collect();
    let mut scratch = vec![0.0; plan.scratch_len()];
    for _ in 0..KERNEL_REPS {
        spans.record("sigproc.fft", None, None, 8, || {
            for _ in 0..8 {
                plan.process_with_scratch(&mut buf, &mut scratch, Direction::Forward);
            }
        });
    }
    if own {
        return Ok(Dsp {
            fix_ns: f64::NAN,
            fail_ratio: f64::NAN,
            range_err_cm: f64::NAN,
        });
    }
    let (mut failed, mut err_m) = (0usize, 0.0);
    for i in 0..PROBE_FIXES {
        let mut rng = GaussianSource::new(trial_seed(seed, i));
        let gt = pipeline.measured_ground_truth_range(&mut rng);
        let fix = spans.record("localization.fix", None, Some(i), 1, || {
            pipeline.localize_with(&mut rng, &mut loc.scratch)
        });
        match fix {
            Ok(f) => err_m += (f.range_m - gt).abs(),
            Err(_) => failed += 1,
        }
    }
    let ok = (PROBE_FIXES - failed).max(1);
    Ok(Dsp {
        fix_ns: spans
            .median_ns_per_op("localization.fix")
            .unwrap_or(f64::NAN),
        fail_ratio: failed as f64 / PROBE_FIXES as f64,
        range_err_cm: err_m / ok as f64 * 100.0,
    })
}

fn add_stats(a: FsaStats, b: FsaStats) -> FsaStats {
    FsaStats {
        freq_hits: a.freq_hits + b.freq_hits,
        freq_misses: a.freq_misses + b.freq_misses,
        gain_hits: a.gain_hits + b.gain_hits,
        gain_misses: a.gain_misses + b.gain_misses,
        batch_points: a.batch_points + b.batch_points,
    }
}

fn sum_stats(stats: impl Iterator<Item = FsaStats>) -> FsaStats {
    stats.fold(FsaStats::default(), add_stats)
}

/// Share of FSA gain evaluations answered from a memo: memo hits over
/// memo lookups plus batch (memo-bypassing) points.
fn hit_ratio(s: &FsaStats) -> f64 {
    let hits = s.freq_hits + s.gain_hits;
    let served = hits + s.freq_misses + s.gain_misses + s.batch_points;
    hits as f64 / served.max(1) as f64
}

/// Two trivial actors bouncing one event back and forth: `engine.dispatch_ns`
/// is the engine's own cost per event, with no MAC or physics behind it.
struct Pinger {
    peer: ActorId,
    limit: u64,
}

impl Actor<u64, ()> for Pinger {
    fn on_event(
        &mut self,
        now_ps: TimePs,
        _event: &(),
        dispatched: &mut u64,
        out: &mut Outbox<()>,
    ) -> milback_core::Result<()> {
        *dispatched += 1;
        if *dispatched < self.limit {
            out.post_at(now_ps + 1, self.peer, ());
        }
        Ok(())
    }
}

/// Runs a ping of `events` dispatches; returns the count dispatched.
fn ping(events: u64) -> milback_core::Result<u64> {
    let mut engine = Engine::new(0u64);
    let a = engine.add_actor(Box::new(Pinger {
        peer: ActorId(1),
        limit: events,
    }));
    let b = engine.add_actor(Box::new(Pinger {
        peer: a,
        limit: events,
    }));
    debug_assert_eq!(b, ActorId(1));
    engine.post(0, a, ());
    Ok(engine.run()?.events_dispatched as u64)
}
