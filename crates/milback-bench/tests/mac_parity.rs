//! Parity and determinism suite for the `MacPolicy` layer: slotted ALOHA
//! behind the trait must stay bit-identical to the retained pre-refactor
//! `run_slotted_direct`, and every policy must produce the same campaign
//! report through the trial-parallel runner at every thread count
//! `MILBACK_THREADS` resolves to.

use milback_bench::experiments::{extension_mac_compare, MAC_POLICY_NAMES};
use milback_bench::runner::{run_trials, trial_rng, RunnerConfig};
use milback_core::protocol::SlotPlan;
use milback_core::{Network, Packet, Scene, SlottedAloha, SlottedRunReport, SystemConfig};

fn network() -> Network {
    let scene = Scene::single_node(4.0, 12f64.to_radians())
        .with_node_at(4.5, 35f64.to_radians(), 12f64.to_radians())
        .with_node_at(3.5, -30f64.to_radians(), 12f64.to_radians());
    Network::new(SystemConfig::milback_default(), scene).unwrap()
}

fn plan_for(n: &Network, slots: usize, payload: &[u8]) -> SlotPlan {
    let packet = Packet::uplink(payload.to_vec());
    SlotPlan::for_packet(
        slots,
        &packet,
        &n.config.fmcw,
        n.config.uplink_symbol_rate_hz,
        10e-6,
    )
    .unwrap()
}

/// Float-bit equality across two campaign reports — stricter than
/// `PartialEq`, catches -0.0/rounding drift that `==` would forgive.
fn assert_bit_exact(a: &SlottedRunReport, b: &SlottedRunReport) {
    assert_eq!(a, b);
    for (na, nb) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(na.energy_j.to_bits(), nb.energy_j.to_bits());
        assert_eq!(
            na.mean_snr_db.map(f64::to_bits),
            nb.mean_snr_db.map(f64::to_bits)
        );
    }
}

/// The ALOHA-behind-the-trait refactor is bit-exact with the retained
/// pre-refactor `run_slotted_direct`, trial by trial on shared streams.
/// (`Option<f64>` in the report is what makes the `==` half of this
/// assertable — the old NaN sentinel compared unequal to itself.)
#[test]
fn trait_aloha_matches_direct_through_trial_streams() {
    let n = network();
    let payload = vec![0x42u8; 16];
    let plan = plan_for(&n, 4, &payload);
    for trial in 0..4 {
        let mut rng_t = trial_rng(0xACE5, trial);
        let mut rng_d = trial_rng(0xACE5, trial);
        let engine = n
            .run_mac(
                Box::new(SlottedAloha::new(trial as u64)),
                6,
                &payload,
                &plan,
                20.0,
                &mut rng_t,
            )
            .unwrap();
        let direct = n
            .run_slotted_direct(6, &payload, &plan, trial as u64, 20.0, &mut rng_d)
            .unwrap();
        assert_bit_exact(&engine, &direct);
        // The streams advanced identically too.
        assert_eq!(rng_t.sample(1.0).to_bits(), rng_d.sample(1.0).to_bits());
    }
}

/// Same parity, but through the runner at thread counts 1/2/4/8: the
/// trait path and the direct path are interchangeable under scheduling.
#[test]
fn trait_aloha_matches_direct_at_every_thread_count() {
    let run = |threads: usize, direct: bool| {
        run_trials(
            6,
            0xA10,
            &RunnerConfig::with_threads(threads),
            move |i, rng| {
                let n = network();
                let payload = vec![0x42u8; 16];
                let plan = plan_for(&n, 4, &payload);
                if direct {
                    n.run_slotted_direct(4 + i, &payload, &plan, i as u64, 20.0, rng)
                        .unwrap()
                } else {
                    n.run_mac(
                        Box::new(SlottedAloha::new(i as u64)),
                        4 + i,
                        &payload,
                        &plan,
                        20.0,
                        rng,
                    )
                    .unwrap()
                }
            },
        )
    };
    let reference = run(1, false);
    for (a, b) in reference.iter().zip(&run(1, true)) {
        assert_bit_exact(a, b);
    }
    for threads in [2, 4, 8] {
        assert_eq!(reference, run(threads, false), "trait path @ {threads}");
        assert_eq!(reference, run(threads, true), "direct path @ {threads}");
    }
}

/// Every MAC policy is schedule-invariant through the runner: the whole
/// policy × node-count sweep is bit-identical at `MILBACK_THREADS`
/// 1/2/4/8.
#[test]
fn all_policies_thread_count_invariant() {
    let node_counts = [1, 3, 5];
    let run = |threads: usize| {
        extension_mac_compare(
            &MAC_POLICY_NAMES,
            &node_counts,
            4,
            8,
            4,
            0x3AC,
            &RunnerConfig::with_threads(threads),
        )
    };
    let reference = run(1);
    assert_eq!(
        reference.ok_count(),
        MAC_POLICY_NAMES.len() * node_counts.len(),
        "every cell must simulate"
    );
    for threads in [2, 4, 8] {
        assert_eq!(
            reference,
            run(threads),
            "sweep changed at {threads} threads"
        );
    }
}

/// The sweep's ALOHA rows reproduce the `extension_net_scale` baseline:
/// same root seed, same slot seeds, same campaigns, same numbers.
#[test]
fn mac_compare_aloha_rows_reproduce_net_scale() {
    use milback_bench::experiments::extension_net_scale;
    let node_counts = [1, 2, 4];
    let cfg = RunnerConfig::serial();
    let base = extension_net_scale(&node_counts, 4, 8, 4, 0xE4, &cfg);
    let sweep = extension_mac_compare(&["aloha"], &node_counts, 4, 8, 4, 0xE4, &cfg);
    for (b, s) in base.oks().zip(sweep.oks()) {
        assert_eq!(b.nodes, s.nodes);
        assert_eq!(b.delivery_rate.to_bits(), s.delivery_rate.to_bits());
        assert_eq!(
            b.energy_per_packet_j.map(f64::to_bits),
            s.energy_per_packet_j.map(f64::to_bits)
        );
        assert_eq!(
            b.per_node_goodput_bps.to_bits(),
            s.per_node_goodput_bps.to_bits()
        );
    }
}
