//! The four benchmark workloads: their inputs and one workload call each.
//!
//! | workload | call | regime |
//! |---|---|---|
//! | `city_contended` | `Network::run_sharded_mac_relay`, 10⁴ nodes in 32-node cells, slotted ALOHA, Defer pipeline | engine / MAC / shard bound, ~98% collided |
//! | `sector_sdm` | `Network::run_mac` with `SdmAwareAssignment`, 64 nodes, 24 frames | link physics bound |
//! | `relay_shed` | `Network::run_mac_relay_service` with `RelayAwareMac`, 64 nodes 25% gapped, 2 hops, congested Drop pipeline | staged / relayed paths |
//! | `localize` | `LocalizationPipeline::localize_with` at the Fig 12a distances | DSP (FFT, FMCW, beat synthesis, FSA) |
//!
//! Every call gets its own seed, derived from the workload seed by the
//! experiment runner's SplitMix64 [`trial_seed`](milback_bench::runner::trial_seed).

use crate::Digest;
use milback_ap::fmcw::FmcwScratch;
use milback_bench::experiments::{
    net_audit_service, relay_sweep_config, sector_campaign, NET_AUDIT_GAP_FRACTION,
};
use milback_core::protocol::SlotPlan;
use milback_core::{
    ApServiceConfig, CampaignAggregate, LocalizationPipeline, MacPolicy, Network, OverflowPolicy,
    RelayAwareMac, RelayConfig, Scene, SdmAwareAssignment, SlottedAloha, SystemConfig,
};
use mmwave_sigproc::random::GaussianSource;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["city_contended", "sector_sdm", "relay_shed", "localize"];

/// Nodes per shard cell on the city workload (the `net_scale_city` cell).
pub const CELL_SIZE: usize = 32;
/// Slots per frame on every network workload.
pub const SLOTS: usize = 8;
/// Uplink payload, bytes.
pub const PAYLOAD_BYTES: usize = 16;
/// SDM separability threshold, dB.
pub const SDM_THRESHOLD_DB: f64 = 20.0;
/// Nodes on the sector and gapped-sector scenes.
pub const SECTOR_NODES: usize = 64;
/// Relay transmission budget on `relay_shed` (one tag hop + the uplink).
pub const RELAY_HOPS: usize = 2;
/// The Fig 12a AP–node distances, meters; `localize` call `i` ranges at
/// `FIG12A_DISTANCES_M[i % 8]`.
pub const FIG12A_DISTANCES_M: [f64; 8] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
/// The paper's mean ranging-error bands (Fig 12a): `(distance m, bound cm)`.
pub const RANGE_BANDS_CM: [(f64, f64); 2] = [(5.0, 5.0), (8.0, 12.0)];
/// Stage queue depth of the city cells' Defer pipeline (`net_scale_city`).
const CITY_SERVICE_QUEUE: usize = 4;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sharded slotted-ALOHA city campaign.
    City,
    /// SDM-aware assignment over the 64-node sector.
    Sector,
    /// Relay-aware MAC over the gapped sector under a shedding pipeline.
    Relay,
    /// FMCW localization fixes.
    Localize,
}

impl Kind {
    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "city_contended" => Some(Kind::City),
            "sector_sdm" => Some(Kind::Sector),
            "relay_shed" => Some(Kind::Relay),
            "localize" => Some(Kind::Localize),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::City => WORKLOADS[0],
            Kind::Sector => WORKLOADS[1],
            Kind::Relay => WORKLOADS[2],
            Kind::Localize => WORKLOADS[3],
        }
    }

    /// Whether the workload's calls run MAC campaigns.
    pub fn is_network(self) -> bool {
        self != Kind::Localize
    }
}

/// Workload size. The benchmark runs [`Scale::full`]; the self-test runs
/// [`Scale::small`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Nodes on the city scene.
    pub city_nodes: usize,
    /// Frames per city cell campaign.
    pub city_frames: usize,
    /// Frames per `sector_sdm` / `relay_shed` campaign.
    pub sector_frames: usize,
}

impl Scale {
    /// The benchmark's workload sizes.
    pub fn full() -> Self {
        Self {
            city_nodes: 10_000,
            city_frames: 4,
            sector_frames: 24,
        }
    }

    /// A quick size for the self-test.
    pub fn small() -> Self {
        Self {
            city_nodes: 1_024,
            city_frames: 2,
            sector_frames: 4,
        }
    }
}

/// The MAC policy a network workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// [`SlottedAloha`] seeded with the cell/call seed.
    Aloha,
    /// [`SdmAwareAssignment`].
    Sdm,
    /// [`RelayAwareMac`] seeded with the call seed.
    RelayAware,
}

/// A network workload's inputs.
#[derive(Debug, Clone)]
pub struct NetInputs {
    /// The network (scene + config).
    pub net: Network,
    /// The payload every node reports.
    pub payload: Vec<u8>,
    /// The slot plan sized for the payload.
    pub plan: SlotPlan,
    /// The AP service pipeline.
    pub service: ApServiceConfig,
    /// The relay configuration (`disabled` except on `relay_shed`).
    pub relay: RelayConfig,
    /// Frames per campaign (per cell on the city workload).
    pub frames: usize,
    /// Shard cells per call (1: the call is not sharded).
    pub cells: usize,
    /// The MAC policy.
    pub policy: Policy,
}

impl NetInputs {
    /// A fresh policy instance for a campaign seeded with `seed`.
    pub fn policy(&self, seed: u64) -> Box<dyn MacPolicy> {
        match self.policy {
            Policy::Aloha => Box::new(SlottedAloha::new(seed)),
            Policy::Sdm => Box::new(SdmAwareAssignment::new()),
            Policy::RelayAware => Box::new(RelayAwareMac::new(seed, self.relay)),
        }
    }

    /// Runs one campaign call at `seed` on `workers` threads and returns
    /// its aggregate.
    pub fn run(&self, seed: u64, workers: usize) -> Result<CampaignAggregate, String> {
        if self.cells > 1 {
            return self
                .net
                .run_sharded_mac_relay(
                    self.cells,
                    workers,
                    seed,
                    self.frames,
                    &self.payload,
                    &self.plan,
                    SDM_THRESHOLD_DB,
                    &self.service,
                    &self.relay,
                    |_, cell_seed| self.policy(cell_seed),
                )
                .map_err(|e| e.to_string());
        }
        let mut rng = GaussianSource::new(seed);
        let report = if self.relay.is_disabled() && self.service.is_instantaneous() {
            self.net.run_mac(
                self.policy(seed),
                self.frames,
                &self.payload,
                &self.plan,
                SDM_THRESHOLD_DB,
                &mut rng,
            )
        } else {
            self.net.run_mac_relay_service(
                self.policy(seed),
                self.frames,
                &self.payload,
                &self.plan,
                SDM_THRESHOLD_DB,
                &mut rng,
                &self.service,
                &self.relay,
            )
        }
        .map_err(|e| e.to_string())?;
        if let Some(n) = report.nodes.iter().find(|n| n.delivered > n.attempts) {
            return Err(format!(
                "node {} delivered {} of {} attempts",
                n.node_idx, n.delivered, n.attempts
            ));
        }
        Ok(CampaignAggregate::from_report(&report))
    }
}

/// The `localize` workload's inputs: one pipeline per Fig 12a distance and
/// one reused FFT workspace.
#[derive(Debug)]
pub struct LocInputs {
    /// Pipelines in [`FIG12A_DISTANCES_M`] order.
    pub pipelines: Vec<LocalizationPipeline>,
    /// The FFT workspace every fix reuses.
    pub scratch: FmcwScratch,
}

/// A workload's inputs.
#[derive(Debug)]
pub enum Inputs {
    /// A MAC campaign workload.
    Net(Box<NetInputs>),
    /// The localization workload.
    Loc(LocInputs),
}

/// What one call simulated.
#[derive(Debug, Clone)]
pub enum Detail {
    /// A network call's campaign aggregate.
    Net(Box<CampaignAggregate>),
    /// A localization fix.
    Fix {
        /// Index into [`FIG12A_DISTANCES_M`].
        distance_idx: usize,
        /// Absolute range error against the measured ground truth, meters.
        abs_err_m: f64,
    },
}

/// One call's outputs.
#[derive(Debug, Clone)]
pub struct CallOutput {
    /// Simulated work attempted: slot transmissions (network) or fixes.
    pub attempts: u64,
    /// Work completed: packets delivered (network) or fixes returned.
    pub delivered: u64,
    /// Digest of the call's simulated outputs (`to_bits` of each).
    pub digest: u64,
    /// Workload-specific detail.
    pub detail: Detail,
}

/// A built workload.
#[derive(Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Its inputs.
    pub inputs: Inputs,
}

/// The node board orientation every scene uses (the paper's 12°
/// placement).
pub fn node_orientation_rad() -> f64 {
    12f64.to_radians()
}

/// The gapped sector scene, rebuilt from the public `Scene` API: covered
/// nodes on the 4 m arc; the gap nodes split between an 8 m ring (two
/// thirds, one tag hop from coverage) and a 12 m ring sharing the 8 m
/// ring's azimuths (the rest, two tag hops).
pub fn gapped_sector_scene(n: usize, gap_fraction: f64) -> Scene {
    let span = 120f64.to_radians();
    let n_gap = ((n as f64 * gap_fraction).round() as usize).min(n);
    let n_far = n_gap / 3;
    let n_near = n_gap - n_far;
    let mut scene = Scene::arc(n - n_gap, 4.0, span, node_orientation_rad());
    for k in 0..n_near {
        scene = scene.with_node_at(
            8.0,
            Scene::arc_azimuth_rad(k, n_near, span),
            node_orientation_rad(),
        );
    }
    for k in 0..n_far {
        scene = scene.with_node_at(
            12.0,
            Scene::arc_azimuth_rad(k, n_near, span),
            node_orientation_rad(),
        );
    }
    scene
}

/// The city cells' Defer pipeline (`net_scale_city`): Capture takes two
/// slot widths behind a 4-deep queue; Defer keeps every ledger bit-identical
/// to the instantaneous campaign while the backlog shows in the service
/// counters.
pub fn city_service(plan: &SlotPlan) -> ApServiceConfig {
    ApServiceConfig::instantaneous()
        .with_stage_latencies(2 * plan.slot_ps, 0, 0)
        .with_queue(CITY_SERVICE_QUEUE, OverflowPolicy::Defer)
}

impl Workload {
    /// Builds `kind`'s inputs at `scale`. Nothing here depends on the seed:
    /// every call draws its randomness from its own call seed.
    pub fn build(kind: Kind, scale: Scale) -> Result<Self, String> {
        let inputs = match kind {
            Kind::City => {
                let c = sector_campaign(scale.city_nodes, PAYLOAD_BYTES, SLOTS, 0)?;
                Inputs::Net(Box::new(NetInputs {
                    service: city_service(&c.plan),
                    net: c.net,
                    payload: c.payload,
                    plan: c.plan,
                    relay: RelayConfig::disabled(),
                    frames: scale.city_frames,
                    cells: scale.city_nodes.div_ceil(CELL_SIZE),
                    policy: Policy::Aloha,
                }))
            }
            Kind::Sector => {
                let c = sector_campaign(SECTOR_NODES, PAYLOAD_BYTES, SLOTS, 0)?;
                Inputs::Net(Box::new(NetInputs {
                    net: c.net,
                    payload: c.payload,
                    plan: c.plan,
                    service: ApServiceConfig::instantaneous(),
                    relay: RelayConfig::disabled(),
                    frames: scale.sector_frames,
                    cells: 1,
                    policy: Policy::Sdm,
                }))
            }
            Kind::Relay => {
                let c = sector_campaign(1, PAYLOAD_BYTES, SLOTS, 0)?;
                let net = Network::new(
                    SystemConfig::milback_default(),
                    gapped_sector_scene(SECTOR_NODES, NET_AUDIT_GAP_FRACTION),
                )
                .map_err(|e| e.to_string())?;
                Inputs::Net(Box::new(NetInputs {
                    net,
                    service: net_audit_service(&c.plan),
                    payload: c.payload,
                    plan: c.plan,
                    relay: relay_sweep_config(RELAY_HOPS),
                    frames: scale.sector_frames,
                    cells: 1,
                    policy: Policy::RelayAware,
                }))
            }
            Kind::Localize => {
                let pipelines = FIG12A_DISTANCES_M
                    .iter()
                    .map(|&d| {
                        LocalizationPipeline::new(
                            SystemConfig::milback_default(),
                            Scene::indoor(d, node_orientation_rad()),
                        )
                        .map(|p| p.with_beat_threads(1))
                        .map_err(|e| e.to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Inputs::Loc(LocInputs {
                    pipelines,
                    scratch: FmcwScratch::new(),
                })
            }
        };
        Ok(Self { kind, inputs })
    }

    /// Runs workload call `call_idx` with seed `seed` on one worker. `Err`
    /// is a call that failed or broke an output invariant.
    pub fn call(&mut self, call_idx: usize, seed: u64) -> Result<CallOutput, String> {
        self.call_on(call_idx, seed, 1)
    }

    /// [`call`](Self::call) on an explicit worker count (the sharded city
    /// call fans its cells out over them; other calls ignore it).
    pub fn call_on(
        &mut self,
        call_idx: usize,
        seed: u64,
        workers: usize,
    ) -> Result<CallOutput, String> {
        match &mut self.inputs {
            Inputs::Net(n) => {
                let agg = n.run(seed, workers)?;
                check_aggregate(&agg)?;
                Ok(CallOutput {
                    attempts: agg.attempts,
                    delivered: agg.delivered,
                    digest: aggregate_digest(&agg),
                    detail: Detail::Net(Box::new(agg)),
                })
            }
            Inputs::Loc(l) => {
                let distance_idx = call_idx % l.pipelines.len();
                let pipeline = &l.pipelines[distance_idx];
                let mut rng = GaussianSource::new(seed);
                // As in Fig 12a, the estimate is scored against the
                // experimenter's (noisy) laser-meter ground truth.
                let measured_gt = pipeline.measured_ground_truth_range(&mut rng);
                let fix = pipeline
                    .localize_with(&mut rng, &mut l.scratch)
                    .map_err(|e| e.to_string())?;
                let abs_err_m = (fix.range_m - measured_gt).abs();
                if !abs_err_m.is_finite() || !fix.angle_rad.is_finite() {
                    return Err(format!("non-finite fix {fix:?}"));
                }
                let mut d = Digest::new();
                d.float(fix.range_m);
                d.float(fix.angle_rad);
                d.float(fix.confidence_db);
                Ok(CallOutput {
                    attempts: 1,
                    delivered: 1,
                    digest: d.0,
                    detail: Detail::Fix {
                        distance_idx,
                        abs_err_m,
                    },
                })
            }
        }
    }
}

/// The per-call output gate of a network call: the lifecycle ledger
/// conserves packets and nothing delivers more than it attempted.
pub fn check_aggregate(agg: &CampaignAggregate) -> Result<(), String> {
    agg.lifecycle.audit().map_err(|e| e.to_string())?;
    if agg.delivered > agg.attempts {
        return Err(format!(
            "delivered {} > attempts {}",
            agg.delivered, agg.attempts
        ));
    }
    if agg.gap_delivered > agg.gap_attempts || agg.relayed > agg.delivered {
        return Err("relay ledger exceeds its attempts".to_string());
    }
    if agg.service.served > agg.service.offered {
        return Err("pipeline served more grants than it was offered".to_string());
    }
    Ok(())
}

/// Digest of a campaign aggregate's simulated fields.
pub fn aggregate_digest(agg: &CampaignAggregate) -> u64 {
    let mut d = Digest::new();
    for w in [
        agg.cells,
        agg.nodes,
        agg.attempts,
        agg.delivered,
        agg.collisions,
        agg.delivering_nodes,
        agg.gap_nodes,
        agg.gap_attempts,
        agg.gap_delivered,
        agg.relayed,
        agg.relay_hops,
        agg.forwarded,
        agg.service.offered,
        agg.service.served,
        agg.service.dropped,
        agg.service.deferred,
        agg.service.degraded,
        agg.lifecycle.offered,
        agg.lifecycle.delivered_direct,
        agg.lifecycle.delivered_relayed,
    ] {
        d.word(w);
    }
    for &w in agg
        .lifecycle
        .drops
        .iter()
        .chain(&agg.lifecycle.shed_by_stage)
    {
        d.word(w);
    }
    for v in [
        agg.energy_j,
        agg.snr_sum_db,
        agg.relay_energy_j,
        agg.relay_latency_s,
    ] {
        d.float(v);
    }
    d.0
}
