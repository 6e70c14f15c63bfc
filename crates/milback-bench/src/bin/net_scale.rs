//! Network-scaling extension: slotted-ALOHA + SDM campaigns on the
//! discrete-event engine, sweeping the cell from 1 to 64 nodes.
//!
//! Each node count runs [`milback_core::Network::run_mac`] under
//! [`milback_core::SlottedAloha`] — every node duty-cycles into its hashed
//! slot once per frame, the AP arbitrates co-slotted transmissions by SDM
//! separability — and reports per-node goodput, slot collisions, and
//! energy per delivered packet. The sweep
//! runs through the trial-parallel runner (one deterministic RNG stream per
//! node count), so the CSV is bit-identical at any thread count.
//!
//! When `mac_compare` has left a `results/METRICS_mac.json` behind, the
//! report cross-references the ALOHA campaign counters from it (both
//! sweeps share the sector scene and seeds).
//!
//! Run with: `cargo run --release -p milback-bench --bin net_scale`

use milback_bench::experiments::extension_net_scale;
use milback_bench::runner::RunnerConfig;
use milback_bench::{metrics_io, reduced_mode, results_dir, Report, Series};

fn main() {
    // Named `main`/`io` so `all_experiments` can derive its per-stage
    // table (setup = main - run_trials - io) from the exported span file.
    let main_span = milback_bench::spans::span("main");
    let mut report = Report::new(
        "Extension net_scale",
        "slotted-ALOHA + SDM scaling: per-node goodput, collisions, energy vs node count",
        "nodes",
        "per-node goodput (kbps) / collisions / energy (mJ)",
    );
    let reduced = reduced_mode();
    let node_counts: &[usize] = if reduced {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    let frames = if reduced { 8 } else { 24 };
    let slots = 8;
    let payload_bytes = 16;
    let cfg = RunnerConfig::from_env();
    let batch = extension_net_scale(node_counts, frames, payload_bytes, slots, 0xE4, &cfg);

    let io_span = milback_bench::spans::span("io");
    let mut goodput = Series::new("per-node goodput (kbps)");
    let mut collisions = Series::new("slot collisions per node");
    let mut energy = Series::new("energy per packet (mJ)");
    let mut delivery = Series::new("delivery rate");
    for p in batch.oks() {
        goodput.push(p.nodes as f64, p.per_node_goodput_bps / 1e3);
        collisions.push(p.nodes as f64, p.collisions_per_node);
        energy.push_opt(p.nodes as f64, p.energy_per_packet_j.map(|e| e * 1e3));
        delivery.push(p.nodes as f64, p.delivery_rate);
    }
    let first_rate = batch
        .oks()
        .next()
        .map(|p| p.delivery_rate)
        .unwrap_or(f64::NAN);
    let last = batch.oks().last();
    report.add_series(goodput);
    report.add_series(collisions);
    report.add_series(energy);
    report.add_series(delivery);
    if let Some(p) = last {
        report.note(format!(
            "at {} nodes the delivery rate is {:.2} (vs {:.2} alone): slot sharing and \
             sub-beamwidth neighbour spacing both bite as the ±60° sector fills",
            p.nodes, p.delivery_rate, first_rate
        ));
    }
    if let Some(note) = mac_metrics_note() {
        report.note(note);
    }
    report.note(format!(
        "{} slots/frame, {} frames, {}-byte payloads, SDM threshold 20 dB; {}; {} worker threads",
        slots,
        frames,
        payload_bytes,
        batch.summary(),
        cfg.threads
    ));
    report.emit_respecting_reduced();
    drop(io_span);
    drop(main_span);
    milback_bench::spans::export_if_requested();
}

/// Cross-references the ALOHA campaign counters out of the artifact
/// `mac_compare` writes. Informational only — the two sweeps share seeds
/// and scenes but may have run at different frame counts, so the note
/// reports what the instrumented campaign saw rather than asserting
/// equality.
fn mac_metrics_note() -> Option<String> {
    let text = std::fs::read_to_string(results_dir().join("METRICS_mac.json")).ok()?;
    let slots_fired = metrics_io::parse_policy_counter(&text, "aloha", "slots_fired")?;
    let slot_collisions = metrics_io::parse_policy_counter(&text, "aloha", "slot_collisions")?;
    Some(format!(
        "METRICS_mac.json (mac_compare, aloha): {slots_fired} slots fired, \
         {slot_collisions} collided across the instrumented campaign"
    ))
}
