//! Thread-count invariance through the trial-parallel runner: packet
//! sessions ([`Session::run_packet`]), SDM rounds
//! ([`Network::uplink_round`]) and slotted campaigns must give bit-identical
//! results at every thread count, because each trial draws only from its
//! own per-trial RNG stream. The session's own outputs are pinned by
//! `session_digest_is_pinned` in milback-core's `served_packet_golden.rs`.

use milback_bench::runner::{run_trials, RunnerConfig};
use milback_core::{Network, Packet, Scene, Session, SessionReport, SlottedAloha, SystemConfig};
use mmwave_sigproc::random::GaussianSource;

fn session() -> Session {
    Session::new(
        SystemConfig::milback_default(),
        Scene::indoor(4.0, 12f64.to_radians()),
    )
    .unwrap()
}

fn network() -> Network {
    let scene = Scene::single_node(4.0, 12f64.to_radians())
        .with_node_at(4.5, 35f64.to_radians(), 12f64.to_radians())
        .with_node_at(3.5, -30f64.to_radians(), 12f64.to_radians());
    Network::new(SystemConfig::milback_default(), scene).unwrap()
}

/// The per-trial packet grid: direction and payload vary by trial index so
/// the suite covers downlink, uplink, and the empty-payload edge.
fn packet_for(trial: usize) -> Packet {
    match trial % 4 {
        0 => Packet::downlink(vec![0xA5; 12]),
        1 => Packet::uplink(vec![0x42; 16]),
        2 => Packet::downlink(Vec::new()),
        _ => Packet::uplink((0..24).collect::<Vec<u8>>()),
    }
}

/// Sessions through the runner: reports are bit-identical at thread counts
/// 1, 2, 4, 8 (what `MILBACK_THREADS` resolves to) to the 1-thread
/// reference.
#[test]
fn session_reports_thread_count_invariant() {
    let run = |threads: usize| -> Vec<SessionReport> {
        run_trials(8, 0xE4E4, &RunnerConfig::with_threads(threads), |i, rng| {
            session().run_packet(&packet_for(i), rng).unwrap()
        })
    };
    let reference = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            reference,
            run(threads),
            "session changed at {threads} threads"
        );
    }
}

/// SDM rounds through the runner are bit-identical at every thread count.
#[test]
fn network_rounds_thread_count_invariant() {
    let payloads: Vec<Vec<u8>> = vec![vec![1; 8], vec![2; 8], vec![3; 8]];
    let run = |threads: usize| {
        let payloads = payloads.clone();
        run_trials(
            6,
            0x4E7,
            &RunnerConfig::with_threads(threads),
            move |_, rng| network().uplink_round(&payloads, rng).unwrap(),
        )
    };
    let reference = run(1);
    for threads in [2, 4, 8] {
        let rounds = run(threads);
        assert_eq!(reference, rounds, "round changed at {threads} threads");
        // SNR bits, not just PartialEq: catches any -0.0/NaN-shape drift.
        for (t, (a, b)) in reference.iter().zip(&rounds).enumerate() {
            for (ra, rb) in a.iter().zip(b) {
                assert_eq!(
                    ra.outcome.snr_db.to_bits(),
                    rb.outcome.snr_db.to_bits(),
                    "trial {t} SNR bits diverged at {threads} threads"
                );
            }
        }
    }
}

/// The slotted campaign is schedule-invariant: same seed, same report, at
/// any thread count. (Its engine-vs-direct parity against
/// `run_slotted_direct` lives in `mac_parity.rs`.)
#[test]
fn slotted_campaign_thread_count_invariant() {
    use milback_core::protocol::SlotPlan;
    let run = |threads: usize| {
        run_trials(4, 0x5107, &RunnerConfig::with_threads(threads), |i, rng| {
            let n = network();
            let payload = vec![0x42; 16];
            let packet = Packet::uplink(payload.clone());
            let plan = SlotPlan::for_packet(
                4,
                &packet,
                &n.config.fmcw,
                n.config.uplink_symbol_rate_hz,
                10e-6,
            )
            .unwrap();
            n.run_mac(
                Box::new(SlottedAloha::new(i as u64)),
                4 + i,
                &payload,
                &plan,
                20.0,
                rng,
            )
            .unwrap()
        })
    };
    let reference = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(
            reference,
            run(threads),
            "slotted run changed at {threads} threads"
        );
    }
}

/// A fresh `GaussianSource` behaves exactly like a runner stream with the
/// same seed — the session never consults anything but the stream it is
/// handed.
#[test]
fn engine_uses_only_the_handed_stream() {
    let s = session();
    let packet = Packet::uplink(vec![9; 8]);
    let mut a = GaussianSource::new(0xFEED);
    let mut b = GaussianSource::new(0xFEED);
    let ra = s.run_packet(&packet, &mut a).unwrap();
    let rb = s.run_packet(&packet, &mut b).unwrap();
    assert_eq!(ra, rb);
    assert_eq!(a.sample(1.0).to_bits(), b.sample(1.0).to_bits());
}
