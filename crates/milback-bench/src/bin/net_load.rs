//! Offered-vs-served load sweep: pushes the AP service pipeline past its
//! capacity to locate the served-load knee.
//!
//! Every point runs a slotted-ALOHA campaign, so offered load — the
//! occupied slots per frame, each one a grant the AP must serve — grows
//! monotonically with node count, under a staged
//! **Capture → Plan → Transmit** pipeline whose Capture stage takes two
//! slot widths behind a 1-deep queue — service capacity is half the slot
//! rate. The sweep races all three overflow policies over the same grid:
//! `drop` saturates `served` at the knee and sheds the rest, `defer`
//! serves everything late and counts the spill, `degrade` serves
//! everything by skipping SDM arbitration. Both load axes are simulated
//! time, so every CSV column is deterministic.
//!
//! Run with: `cargo run --release -p milback-bench --bin net_load`

use milback_bench::experiments::{extension_net_load, NetLoadPoint, OVERFLOW_POLICY_NAMES};
use milback_bench::runner::RunnerConfig;
use milback_bench::{reduced_mode, write_results_file, Report, Series};

/// Campaign shape: 8-slot frames so the knee (capacity = slots/2 grants
/// per frame) sits in the middle of the node sweep, and enough frames for
/// the steady-state backlog to dominate the ramp-up transient.
const SLOTS: usize = 8;
const FRAMES: usize = 64;
const FRAMES_REDUCED: usize = 8;
const PAYLOAD_BYTES: usize = 16;
const QUEUE_CAPACITY: usize = 1;
const ROOT_SEED: u64 = 0x10AD;

fn main() {
    let main_span = milback_bench::spans::span("main");
    let reduced = reduced_mode();
    let (node_counts, frames): (&[usize], usize) = if reduced {
        (&[1, 4, 16, 64], FRAMES_REDUCED)
    } else {
        (&[1, 2, 4, 8, 16, 32, 64, 128], FRAMES)
    };
    let cfg = RunnerConfig::from_env();
    let batch = extension_net_load(
        &OVERFLOW_POLICY_NAMES,
        node_counts,
        frames,
        PAYLOAD_BYTES,
        SLOTS,
        QUEUE_CAPACITY,
        ROOT_SEED,
        &cfg,
    );
    let points: Vec<NetLoadPoint> = batch.oks().cloned().collect();
    if points.len() != OVERFLOW_POLICY_NAMES.len() * node_counts.len() {
        for e in batch.results.iter().filter_map(|r| r.as_ref().err()) {
            eprintln!("net_load cell failed: {e}");
        }
        std::process::exit(1);
    }

    let io_span = milback_bench::spans::span("io");
    let mut report = Report::new(
        "Extension net_load",
        "offered vs served load through the staged AP service pipeline, per overflow policy",
        "offered grants/s",
        "served grants/s / overflow counts",
    );
    for tag in OVERFLOW_POLICY_NAMES {
        let mut served = Series::new(format!("served/s ({tag})"));
        for p in points.iter().filter(|p| p.overflow == tag) {
            served.push(p.offered_per_s, p.served_per_s);
        }
        report.add_series(served);
    }
    if let Some(knee) = points
        .iter()
        .filter(|p| p.overflow == "drop" && p.dropped > 0)
        .min_by_key(|p| p.nodes)
    {
        report.note(format!(
            "drop's served load saturates at {:.0} grants/s ({} nodes offered {:.0} grants/s and shed {}): \
             the service knee of a capture stage two slot widths deep",
            knee.served_per_s, knee.nodes, knee.offered_per_s, knee.dropped,
        ));
    }
    report.note(format!(
        "{SLOTS} slots/frame, {frames} frames, {PAYLOAD_BYTES}-byte payloads, slotted ALOHA, \
         capture = 2 slot widths, stage queue depth {QUEUE_CAPACITY}, seed {ROOT_SEED:#x}"
    ));
    print!("{}", report.render());

    // Hand-rolled CSV, same hygiene as the other anchors: undefined cells
    // are empty (never NaN/inf), and reduced runs never touch the anchor.
    if !reduced {
        if let Some(path) = write_results_file("extension_net_load.csv", &to_csv(&points)) {
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

/// The full sweep schema, one row per (overflow policy, node count) cell.
fn to_csv(points: &[NetLoadPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "overflow,nodes,offered,served,dropped,deferred,degraded,\
         offered_per_s,served_per_s,delivered,delivery_rate\n",
    );
    for p in points {
        let opt = |v: Option<f64>| v.map(|x| x.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{}",
            p.overflow,
            p.nodes,
            p.offered,
            p.served,
            p.dropped,
            p.deferred,
            p.degraded,
            p.offered_per_s,
            p.served_per_s,
            p.delivered,
            opt(p.delivery_rate),
        );
    }
    out
}
