//! Golden served-packet digests: `to_bits` digests of the campaigns whose
//! every served packet runs the symbol-level uplink inside
//! `SlotMedium::fire_slot` / `fire_relay`, plus the bare
//! [`LinkSimulator::uplink`] at three distances, the SDM uplink round and
//! the §7 packet session ([`Session::run_packet`]).
//!
//! The parity suites compare two callers of the same serve path, so a
//! drift *inside* it (a reordered float op in the link budget, the symbol
//! core or the threshold decision) passes them. These pins catch it: each
//! digest was computed from the code before the served-packet fast path
//! (per-node budget table, sort-free decision) and must not move.
//!
//! Each campaign pin has two halves. The physics digest (per-node ledger,
//! service counters) is pinned in every build. The lifecycle digest is
//! pinned under the `telemetry` feature; without it the packet-lifecycle
//! ledger records nothing by design, so the pin asserts it stays empty.
//! Both halves were computed on code that still matched the original
//! single-digest pins, so together they check the same fields.

use milback_core::protocol::SlotPlan;
use milback_core::telemetry::Histogram;
use milback_core::{
    ApServiceConfig, CampaignAggregate, CoverageModel, LifecycleStats, LinkSimulator, Network,
    OverflowPolicy, Packet, RelayAwareMac, RelayConfig, Scene, SdmAwareAssignment, Session,
    SessionReport, SlottedAloha, SlottedRunReport, SystemConfig, UplinkOutcome,
};
use mmwave_sigproc::random::GaussianSource;

const SEED: u64 = 0x05EE_D0FF_1E7D;
const SLOTS: usize = 8;
const PAYLOAD: [u8; 16] = [0x42; 16];
const SDM_THRESHOLD_DB: f64 = 20.0;

/// FNV-1a over 64-bit words; floats enter by `to_bits`, so `-0.0` and
/// `0.0` (equal under `==`) digest differently.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn histogram(&mut self, h: &Histogram) {
        h.counts.iter().for_each(|&c| self.word(c));
        self.word(h.count);
        self.float(h.sum);
    }

    fn lifecycle(&mut self, l: &LifecycleStats) {
        self.word(l.offered);
        self.word(l.delivered_direct);
        self.word(l.delivered_relayed);
        l.drops
            .iter()
            .chain(&l.shed_by_stage)
            .for_each(|&w| self.word(w));
        self.histogram(&l.slot_wait_us);
        self.histogram(&l.service_residence_us);
        self.histogram(&l.relay_extra_us);
    }
}

fn report_digest(r: &SlottedRunReport) -> u64 {
    let mut d = Digest::new();
    d.word(r.frames as u64);
    d.float(r.frame_s);
    d.word(r.payload_bytes as u64);
    for n in &r.nodes {
        for w in [
            n.node_idx,
            n.attempts,
            n.delivered,
            n.collisions,
            usize::from(n.gap),
            n.relayed,
            n.relay_hops,
            n.forwarded,
        ] {
            d.word(w as u64);
        }
        d.float(n.energy_j);
        d.float(n.mean_snr_db.unwrap_or(f64::NAN));
        d.float(n.relay_energy_j);
        d.float(n.relay_latency_s);
    }
    let s = r.service;
    for w in [s.offered, s.served, s.dropped, s.deferred, s.degraded] {
        d.word(w);
    }
    d.0
}

fn aggregate_digest(a: &CampaignAggregate) -> u64 {
    let mut d = Digest::new();
    for w in [
        a.cells,
        a.nodes,
        a.frames,
        a.payload_bytes,
        a.attempts,
        a.delivered,
        a.collisions,
        a.delivering_nodes,
        a.gap_nodes,
        a.gap_attempts,
        a.gap_delivered,
        a.relayed,
        a.relay_hops,
        a.forwarded,
        a.service.offered,
        a.service.served,
        a.service.dropped,
        a.service.deferred,
        a.service.degraded,
    ] {
        d.word(w);
    }
    for v in [
        a.frame_s,
        a.energy_j,
        a.snr_sum_db,
        a.relay_energy_j,
        a.relay_latency_s,
    ] {
        d.float(v);
    }
    d.histogram(&a.node_energy_j);
    d.histogram(&a.node_snr_db);
    d.histogram(&a.node_relay_hops);
    d.0
}

fn lifecycle_digest(l: &LifecycleStats) -> u64 {
    let mut d = Digest::new();
    d.lifecycle(l);
    d.0
}

/// The lifecycle half of a pin: the pinned digest under `telemetry`, an
/// empty ledger without it.
fn assert_lifecycle(l: &LifecycleStats, pinned: u64, what: &str) {
    if cfg!(feature = "telemetry") {
        assert_eq!(lifecycle_digest(l), pinned, "{what} lifecycle digest");
    } else {
        assert_eq!(*l, LifecycleStats::new(), "{what} lifecycle ledger");
    }
}

fn uplink_digest(o: &UplinkOutcome) -> u64 {
    let mut d = Digest::new();
    o.decoded.iter().for_each(|&b| d.word(u64::from(b)));
    d.float(o.ber);
    d.float(o.snr_db);
    d.float(o.analytic_snr_db);
    d.0
}

fn orientation() -> f64 {
    12f64.to_radians()
}

fn plan_for(config: &SystemConfig) -> SlotPlan {
    SlotPlan::for_packet(
        SLOTS,
        &Packet::uplink(PAYLOAD.to_vec()),
        &config.fmcw,
        config.uplink_symbol_rate_hz,
        10e-6,
    )
    .unwrap()
}

/// `n` nodes on a 4 m, 120° arc.
fn sector(n: usize) -> Network {
    Network::new(
        SystemConfig::milback_default(),
        Scene::arc(n, 4.0, 120f64.to_radians(), orientation()),
    )
    .unwrap()
}

/// A 64-node sector with a quarter of its nodes pushed past a 6 m
/// coverage edge: 48 covered nodes on the 4 m arc, 11 gap nodes on an
/// 8 m ring (one tag hop from coverage) and 5 on a 12 m ring sharing the
/// 8 m ring's azimuths (two tag hops).
fn gapped_sector() -> Network {
    let span = 120f64.to_radians();
    let mut scene = Scene::arc(48, 4.0, span, orientation());
    for k in 0..11 {
        scene = scene.with_node_at(8.0, Scene::arc_azimuth_rad(k, 11, span), orientation());
    }
    for k in 0..5 {
        scene = scene.with_node_at(12.0, Scene::arc_azimuth_rad(k, 11, span), orientation());
    }
    Network::new(SystemConfig::milback_default(), scene).unwrap()
}

fn relay_config() -> RelayConfig {
    RelayConfig {
        coverage: CoverageModel::with_range(6.0),
        max_hops: 2,
        tag_range_m: 4.5,
        hop_snr_penalty_db: 3.0,
    }
}

#[test]
fn sdm_aware_sector_campaign_digest_is_pinned() {
    let net = sector(64);
    let plan = plan_for(&net.config);
    let mut rng = GaussianSource::new(SEED);
    let report = net
        .run_mac(
            Box::new(SdmAwareAssignment::new()),
            24,
            &PAYLOAD,
            &plan,
            SDM_THRESHOLD_DB,
            &mut rng,
        )
        .unwrap();
    let served: usize = report.nodes.iter().map(|n| n.delivered).sum();
    assert!(served > 0, "the pin must cover served packets");
    assert_eq!(
        report_digest(&report),
        0x70a240f118a2cf27,
        "sdm sector digest"
    );
    assert_lifecycle(&report.lifecycle, 0xd81aa32124d1e20a, "sdm sector");
}

#[test]
fn relay_aware_gapped_campaign_digest_is_pinned() {
    let net = gapped_sector();
    let plan = plan_for(&net.config);
    let service = ApServiceConfig::instantaneous()
        .with_stage_latencies(2 * plan.slot_ps, 0, 0)
        .with_queue(1, OverflowPolicy::Drop);
    let relay = relay_config();
    let mut rng = GaussianSource::new(SEED);
    let report = net
        .run_mac_relay_service(
            Box::new(RelayAwareMac::new(SEED, relay)),
            24,
            &PAYLOAD,
            &plan,
            SDM_THRESHOLD_DB,
            &mut rng,
            &service,
            &relay,
        )
        .unwrap();
    let relayed: usize = report.nodes.iter().map(|n| n.relayed).sum();
    assert!(relayed > 0, "the pin must cover relayed packets");
    assert_eq!(
        report_digest(&report),
        0x51ecd7aa4e48d0be,
        "relay gapped digest"
    );
    assert_lifecycle(&report.lifecycle, 0xda52bba7a7da6827, "relay gapped");
}

#[test]
fn sharded_city_campaign_digest_is_pinned() {
    let net = sector(1_024);
    let plan = plan_for(&net.config);
    let service = ApServiceConfig::instantaneous()
        .with_stage_latencies(2 * plan.slot_ps, 0, 0)
        .with_queue(4, OverflowPolicy::Defer);
    for threads in [1, 2] {
        let agg = net
            .run_sharded_mac_relay(
                32,
                threads,
                SEED,
                4,
                &PAYLOAD,
                &plan,
                SDM_THRESHOLD_DB,
                &service,
                &RelayConfig::disabled(),
                |_, cell_seed| Box::new(SlottedAloha::new(cell_seed)),
            )
            .unwrap();
        assert!(agg.delivered > 0, "the pin must cover served packets");
        assert_eq!(
            aggregate_digest(&agg),
            0x672e343c05d48ded,
            "city digest at {threads} threads"
        );
        assert_lifecycle(&agg.lifecycle, 0xd1999c6fdd0c7ac1, "city");
    }
}

#[test]
fn bare_uplink_digests_are_pinned() {
    let mut rng = GaussianSource::new(SEED);
    let payload = rng.bytes(64);
    let mut digests = Vec::new();
    for d in [2.0, 6.0, 9.0] {
        let sim = LinkSimulator::new(
            SystemConfig::milback_default(),
            Scene::single_node(d, orientation()),
        )
        .unwrap();
        digests.push(uplink_digest(&sim.uplink(&payload, &mut rng).unwrap()));
    }
    assert_eq!(
        digests,
        vec![0x44b194e79373ab21, 0xa6d085af8f3f85b0, 0xc41ef093bcbca454],
        "bare uplink digests"
    );
}

/// The three-node SDM round (4 m on boresight, 4.5 m at 35°, 3.5 m at
/// −30°): three rounds on one stream, every node's decoded bytes, BER,
/// SNRs and interference margin.
#[test]
fn uplink_round_digest_is_pinned() {
    let scene = Scene::single_node(4.0, orientation())
        .with_node_at(4.5, 35f64.to_radians(), orientation())
        .with_node_at(3.5, -30f64.to_radians(), orientation());
    let net = Network::new(SystemConfig::milback_default(), scene).unwrap();
    let payloads: Vec<Vec<u8>> = vec![vec![1; 8], vec![2; 8], vec![3; 8]];
    let mut rng = GaussianSource::new(SEED);
    let mut d = Digest::new();
    for _ in 0..3 {
        for r in net.uplink_round(&payloads, &mut rng).unwrap() {
            d.word(r.node_idx as u64);
            d.word(uplink_digest(&r.outcome));
            d.float(r.sdm_margin_db);
        }
    }
    assert_eq!(d.0, 0x8fb87717e17bff39, "uplink round digest");
}

/// Every `SessionReport` field by bits, then the stream's next draw, so a
/// packet that consumed one draw more or less moves the digest too.
fn session_digest(d: &mut Digest, r: &SessionReport, rng: &mut GaussianSource) {
    for v in [
        r.fix.range_m,
        r.fix.angle_rad,
        r.fix.position.x,
        r.fix.position.y,
        r.fix.confidence_db,
        r.orientation_at_ap,
        r.orientation_at_node,
    ] {
        d.float(v);
    }
    d.word(r.decoded_direction as u64);
    d.word(r.delivered.len() as u64);
    r.delivered.iter().for_each(|&b| d.word(u64::from(b)));
    for v in [r.ber, r.airtime_s, r.node_energy_j] {
        d.float(v);
    }
    d.float(rng.sample(1.0));
}

/// The §7 packet session: the four-packet grid (downlink, uplink, empty
/// downlink, 24-byte uplink) at 4 m on per-trial streams of root seed
/// `0x5E55`, then four seeded packets at 3 m, both scenes at 12°. The value
/// was computed while the session still ran on the event engine with a
/// bit-identical synchronous twin, so it pins what both produced.
#[test]
fn session_digest_is_pinned() {
    let session = |d: f64| {
        Session::new(
            SystemConfig::milback_default(),
            Scene::indoor(d, 12f64.to_radians()),
        )
        .unwrap()
    };
    let mut d = Digest::new();
    let grid = session(4.0);
    for trial in 0..4u64 {
        let packet = match trial {
            0 => Packet::downlink(vec![0xA5; 12]),
            1 => Packet::uplink(vec![0x42; 16]),
            2 => Packet::downlink(Vec::new()),
            _ => Packet::uplink((0..24).collect::<Vec<u8>>()),
        };
        // The trial-parallel runner's per-trial stream seed.
        let mut rng = GaussianSource::new(0x5E55 ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let report = grid.run_packet(&packet, &mut rng).unwrap();
        session_digest(&mut d, &report, &mut rng);
    }
    let near = session(3.0);
    for (seed, packet) in [
        (0xA11CE, Packet::downlink(b"parity downlink".to_vec())),
        (0xB0B, Packet::uplink(b"parity uplink".to_vec())),
        (7, Packet::downlink(vec![])),
        (8, Packet::uplink(vec![0xFF; 128])),
    ] {
        let mut rng = GaussianSource::new(seed);
        let report = near.run_packet(&packet, &mut rng).unwrap();
        session_digest(&mut d, &report, &mut rng);
    }
    assert_eq!(d.0, 0x2a85aa2d157b11da, "session digest");
}
