//! Multi-hop relay recovery sweep: gap fraction × hop budget over the
//! gapped sector scene.
//!
//! Every cell places a `gap_fraction` share of the scene's nodes past AP
//! coverage (an 8 m ring one tag hop out, a 12 m ring two hops out) and
//! runs a relay-aware slotted-ALOHA campaign under the given transmission
//! budget. At `max_hops = 1` (direct only) the gap nodes burn attempts
//! and deliver nothing; at `2` the 8 m ring's packets ride one tag-to-tag
//! forward into coverage; at `3` the 12 m ring recovers too. The CSV
//! carries the recovery (`gap_delivery_rate`) next to its price — the
//! forwarding energy per relayed delivery and the per-hop latency — and
//! every column is deterministic at any `MILBACK_THREADS`.
//!
//! Run with: `cargo run --release -p milback-bench --bin net_relay`

use milback_bench::experiments::{
    extension_net_relay, relay_sweep_config, NetRelayPoint, RELAY_TAG_RANGE_M,
};
use milback_bench::runner::RunnerConfig;
use milback_bench::{reduced_mode, write_results_file, Report, Series};

/// Sweep shape: enough nodes for both gap rings to populate at every
/// non-zero gap fraction, 12-slot frames to keep direct contention from
/// drowning the recovery signal, and a hop-budget axis that crosses the
/// two-ring geometry (1 = direct only, 2 = 8 m ring, 3 = both rings).
const NODES: usize = 32;
const NODES_REDUCED: usize = 12;
const SLOTS: usize = 12;
const FRAMES: usize = 32;
const FRAMES_REDUCED: usize = 6;
const PAYLOAD_BYTES: usize = 16;
const ROOT_SEED: u64 = 0x9E1A;
const HOP_BUDGETS: [usize; 3] = [1, 2, 3];

fn main() {
    let main_span = milback_bench::spans::span("main");
    let reduced = reduced_mode();
    let (gap_fractions, nodes, frames): (&[f64], usize, usize) = if reduced {
        (&[0.0, 0.5], NODES_REDUCED, FRAMES_REDUCED)
    } else {
        (&[0.0, 0.25, 0.5], NODES, FRAMES)
    };
    let cfg = RunnerConfig::from_env();
    let batch = extension_net_relay(
        gap_fractions,
        &HOP_BUDGETS,
        nodes,
        frames,
        PAYLOAD_BYTES,
        SLOTS,
        ROOT_SEED,
        &cfg,
    );
    let points: Vec<NetRelayPoint> = batch.oks().cloned().collect();
    if points.len() != gap_fractions.len() * HOP_BUDGETS.len() {
        for e in batch.results.iter().filter_map(|r| r.as_ref().err()) {
            eprintln!("net_relay cell failed: {e}");
        }
        std::process::exit(1);
    }

    let io_span = milback_bench::spans::span("io");
    let mut report = Report::new(
        "Extension net_relay",
        "gap-node delivery recovery vs hop budget, with forwarding energy per relayed packet",
        "max hops",
        "gap delivery rate / relay energy",
    );
    for &gap in gap_fractions {
        let mut recovery = Series::new(format!("gap delivery (gap={gap})"));
        for p in points.iter().filter(|p| p.gap_fraction == gap) {
            recovery.push_opt(p.max_hops as f64, p.gap_delivery_rate);
        }
        report.add_series(recovery);
    }
    if let Some(p) = points
        .iter()
        .filter(|p| p.relayed > 0)
        .max_by_key(|p| (p.gap_delivered, p.max_hops))
    {
        report.note(format!(
            "gap={} at {} hops recovered a gap delivery rate of {:.2} ({} relayed packets) for \
             {:.2e} J of forwarding energy per delivery and {:.1} µs of extra latency",
            p.gap_fraction,
            p.max_hops,
            p.gap_delivery_rate.unwrap_or(0.0),
            p.relayed,
            p.relay_energy_per_delivered_j.unwrap_or(0.0),
            p.mean_relay_latency_s.unwrap_or(0.0) * 1e6,
        ));
    }
    let relay = relay_sweep_config(2);
    report.note(format!(
        "{SLOTS} slots/frame, {frames} frames, {PAYLOAD_BYTES}-byte payloads, {nodes} nodes, \
         AP coverage {} m, tag range {RELAY_TAG_RANGE_M} m, {} dB/hop SNR penalty, seed {ROOT_SEED:#x}",
        relay.coverage.ap_range_m, relay.hop_snr_penalty_db,
    ));
    print!("{}", report.render());

    // Hand-rolled CSV, same hygiene as the other anchors: undefined cells
    // are empty (never NaN/inf), and reduced runs never touch the anchor.
    if !reduced {
        if let Some(path) = write_results_file("extension_net_relay.csv", &to_csv(&points)) {
            println!("wrote {}", path.display());
        }
    } else {
        // CI validates the reduced schema from a scratch copy instead.
        println!("{}", to_csv(&points));
    }
    drop(io_span);
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

/// The full sweep schema, one row per (gap fraction, hop budget) cell.
fn to_csv(points: &[NetRelayPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "gap_fraction,max_hops,nodes,gap_nodes,attempts,delivered,delivery_rate,\
         gap_attempts,gap_delivered,gap_delivery_rate,relayed,forwarded,mean_relay_hops,\
         relay_energy_per_delivered_j,mean_relay_latency_s\n",
    );
    for p in points {
        let opt = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            p.gap_fraction,
            p.max_hops,
            p.nodes,
            p.gap_nodes,
            p.attempts,
            p.delivered,
            opt(p.delivery_rate),
            p.gap_attempts,
            p.gap_delivered,
            opt(p.gap_delivery_rate),
            p.relayed,
            p.forwarded,
            opt(p.mean_relay_hops),
            opt(p.relay_energy_per_delivered_j),
            opt(p.mean_relay_latency_s),
        );
    }
    out
}
