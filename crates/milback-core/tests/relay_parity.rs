//! Relay-layer acceptance: a disabled relay configuration is bit-exact
//! with the relay-free MAC paths (`==` plus `to_bits` on every f64), a
//! sharded relay campaign is invariant across worker thread counts, and
//! an enabled configuration actually bridges coverage gaps — delivery
//! recovering with the hop budget, per-hop energy accounted, and
//! routeless gap nodes kept in every denominator.

use milback_core::{ApServiceConfig, Packet};
use milback_core::{
    CampaignAggregate, CoverageModel, MacPolicy, Network, RelayAwareMac, RelayConfig, Scene,
    SlottedAloha, SlottedRunReport, SystemConfig,
};
use mmwave_sigproc::random::GaussianSource;

const SEED: u64 = 0xBEEF_CAFE;
const SLOT_SEED: u64 = 0xFEED;
const FRAMES: usize = 8;
const PAYLOAD: [u8; 8] = [0x42; 8];

/// An inner (covered) arc at 4 m plus an outer arc at 8 m sharing the
/// azimuth span: with coverage cut at 6 m the outer ring is all gap
/// nodes, and a ~4.1 m radial spacing puts each outer node within a
/// 4.5 m tag range of the inner ring.
fn ringed_network(inner: usize, outer: usize) -> Network {
    let span = 60f64.to_radians();
    let orient = 12f64.to_radians();
    let mut scene = Scene::arc(inner, 4.0, span, orient);
    for k in 0..outer {
        scene = scene.with_node_at(8.0, Scene::arc_azimuth_rad(k, outer, span), orient);
    }
    Network::new(SystemConfig::milback_default(), scene).unwrap()
}

fn plan_for(n: &Network, slots: usize) -> milback_core::protocol::SlotPlan {
    milback_core::protocol::SlotPlan::for_packet(
        slots,
        &Packet::uplink(PAYLOAD.to_vec()),
        &n.config.fmcw,
        n.config.uplink_symbol_rate_hz,
        5e-6,
    )
    .unwrap()
}

fn gapped_relay(max_hops: usize) -> RelayConfig {
    RelayConfig {
        coverage: CoverageModel::with_range(6.0),
        max_hops,
        tag_range_m: 4.5,
        hop_snr_penalty_db: 3.0,
    }
}

/// `==` is necessary but not sufficient for f64 bit-exactness (`-0.0 ==
/// 0.0`); this pins the bits too.
fn assert_bit_exact(a: &SlottedRunReport, b: &SlottedRunReport) {
    assert_eq!(a, b);
    for (x, y) in a.nodes.iter().zip(&b.nodes) {
        assert_eq!(x.energy_j.to_bits(), y.energy_j.to_bits());
        assert_eq!(x.relay_energy_j.to_bits(), y.relay_energy_j.to_bits());
        assert_eq!(x.relay_latency_s.to_bits(), y.relay_latency_s.to_bits());
        assert_eq!(
            x.mean_snr_db.map(f64::to_bits),
            y.mean_snr_db.map(f64::to_bits)
        );
    }
}

fn assert_agg_bit_exact(a: &CampaignAggregate, b: &CampaignAggregate) {
    assert_eq!(a, b);
    assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
    assert_eq!(a.snr_sum_db.to_bits(), b.snr_sum_db.to_bits());
    assert_eq!(a.relay_energy_j.to_bits(), b.relay_energy_j.to_bits());
    assert_eq!(a.relay_latency_s.to_bits(), b.relay_latency_s.to_bits());
}

#[test]
fn disabled_relay_is_bit_exact_with_run_mac() {
    let n = ringed_network(4, 4);
    let plan = plan_for(&n, 8);
    let mut rng_a = GaussianSource::new(SEED);
    let mut rng_b = GaussianSource::new(SEED);
    let direct = n
        .run_mac(
            Box::new(SlottedAloha::new(SLOT_SEED)),
            FRAMES,
            &PAYLOAD,
            &plan,
            20.0,
            &mut rng_a,
        )
        .unwrap();
    let relayed = n
        .run_mac_relay_service(
            Box::new(SlottedAloha::new(SLOT_SEED)),
            FRAMES,
            &PAYLOAD,
            &plan,
            20.0,
            &mut rng_b,
            &ApServiceConfig::instantaneous(),
            &RelayConfig::disabled(),
        )
        .unwrap();
    assert_bit_exact(&direct, &relayed);
    // The RNG streams must land in the same place too.
    assert_eq!(rng_a.bytes(8), rng_b.bytes(8));
    // And the relay columns must be identically dormant.
    for node in &relayed.nodes {
        assert!(!node.gap);
        assert_eq!((node.relayed, node.relay_hops, node.forwarded), (0, 0, 0));
        assert_eq!(node.relay_energy_j.to_bits(), 0f64.to_bits());
    }
}

#[test]
fn disabled_relay_aware_policy_matches_plain_aloha() {
    // RelayAwareMac over a disabled config draws no route seed and
    // schedules exactly what SlottedAloha schedules.
    let n = ringed_network(4, 4);
    let plan = plan_for(&n, 8);
    let mut rng_a = GaussianSource::new(SEED);
    let mut rng_b = GaussianSource::new(SEED);
    let plain = n
        .run_mac(
            Box::new(SlottedAloha::new(SLOT_SEED)),
            FRAMES,
            &PAYLOAD,
            &plan,
            20.0,
            &mut rng_a,
        )
        .unwrap();
    let relay_aware = n
        .run_mac_relay_service(
            Box::new(RelayAwareMac::new(SLOT_SEED, RelayConfig::disabled())),
            FRAMES,
            &PAYLOAD,
            &plan,
            20.0,
            &mut rng_b,
            &ApServiceConfig::instantaneous(),
            &RelayConfig::disabled(),
        )
        .unwrap();
    assert_bit_exact(&plain, &relay_aware);
}

#[test]
fn sharded_disabled_relay_is_thread_count_invariant() {
    let n = ringed_network(8, 8);
    let plan = plan_for(&n, 8);
    let service = ApServiceConfig::instantaneous();
    let run = |threads: usize| {
        n.run_sharded_mac_relay(
            4,
            threads,
            SEED,
            FRAMES,
            &PAYLOAD,
            &plan,
            20.0,
            &service,
            &RelayConfig::disabled(),
            |_, seed| Box::new(SlottedAloha::new(seed)) as Box<dyn MacPolicy>,
        )
        .unwrap()
    };
    let reference = run(1);
    for threads in [2, 3, 4, 8] {
        assert_agg_bit_exact(&reference, &run(threads));
    }
}

#[test]
fn sharded_relay_campaign_is_thread_count_invariant() {
    let n = ringed_network(8, 8);
    let plan = plan_for(&n, 8);
    let service = ApServiceConfig::instantaneous();
    let relay = gapped_relay(3);
    let run = |threads: usize| {
        n.run_sharded_mac_relay(
            4,
            threads,
            SEED,
            FRAMES,
            &PAYLOAD,
            &plan,
            20.0,
            &service,
            &relay,
            |_, seed| Box::new(RelayAwareMac::new(seed, relay)) as Box<dyn MacPolicy>,
        )
        .unwrap()
    };
    let reference = run(1);
    assert!(reference.gap_nodes > 0, "the ring must produce gap nodes");
    for threads in [2, 4, 8] {
        assert_agg_bit_exact(&reference, &run(threads));
    }
}

#[test]
fn relaying_recovers_gap_delivery_with_the_hop_budget() {
    let n = ringed_network(6, 6);
    let plan = plan_for(&n, 12);
    let run = |max_hops: usize| {
        let relay = gapped_relay(max_hops);
        let mut rng = GaussianSource::new(SEED);
        n.run_mac_relay_service(
            Box::new(RelayAwareMac::new(SLOT_SEED, relay)),
            FRAMES,
            &PAYLOAD,
            &plan,
            20.0,
            &mut rng,
            &ApServiceConfig::instantaneous(),
            &relay,
        )
        .unwrap()
    };
    let direct_only = CampaignAggregate::from_report(&run(1));
    let two_hop = CampaignAggregate::from_report(&run(2));
    assert_eq!(direct_only.gap_nodes, 6);
    // Direct-only: gap nodes burn attempts but nothing lands.
    assert!(direct_only.gap_attempts > 0);
    assert_eq!(direct_only.gap_delivery_rate(), Some(0.0));
    assert_eq!(direct_only.relayed, 0);
    // Two hops reach the inner ring: delivery recovers, with per-hop
    // energy and latency on the books.
    let recovered = two_hop.gap_delivery_rate().unwrap();
    assert!(recovered > 0.5, "gap delivery rate {recovered}");
    assert!(two_hop.relayed > 0);
    assert!(two_hop.forwarded > 0, "inner-ring nodes must forward");
    assert!(two_hop.relay_energy_j > 0.0);
    assert!(two_hop.relay_latency_s > 0.0);
    assert_eq!(two_hop.mean_relay_hops(), Some(2.0));
    // Relaying must not cost the covered nodes anything they delivered:
    // total delivery strictly improves.
    assert!(two_hop.delivered > direct_only.delivered);
}

#[test]
fn routeless_gap_node_stays_in_the_denominators() {
    // One gap node far outside everyone's tag range: no route exists, so
    // it keeps contending blindly — attempts counted, nothing delivered,
    // and its report row still present.
    let orient = 12f64.to_radians();
    let scene = Scene::arc(4, 4.0, 60f64.to_radians(), orient).with_node_at(20.0, 0.0, orient);
    let n = Network::new(SystemConfig::milback_default(), scene).unwrap();
    let plan = plan_for(&n, 8);
    let relay = gapped_relay(4);
    let mut rng = GaussianSource::new(SEED);
    let report = n
        .run_mac_relay_service(
            Box::new(RelayAwareMac::new(SLOT_SEED, relay)),
            FRAMES,
            &PAYLOAD,
            &plan,
            20.0,
            &mut rng,
            &ApServiceConfig::instantaneous(),
            &relay,
        )
        .unwrap();
    assert_eq!(report.nodes.len(), 5);
    let stranded = &report.nodes[4];
    assert!(stranded.gap);
    assert_eq!(stranded.attempts, FRAMES, "blind contention every frame");
    assert_eq!(stranded.delivered, 0);
    assert_eq!(stranded.relayed, 0);
    assert!(stranded.energy_j > 0.0, "wasted airtime is still billed");
    let agg = CampaignAggregate::from_report(&report);
    assert_eq!(agg.nodes, 5);
    assert_eq!(agg.gap_nodes, 1);
    assert_eq!(agg.gap_attempts, FRAMES as u64);
    assert_eq!(agg.gap_delivery_rate(), Some(0.0));
}
