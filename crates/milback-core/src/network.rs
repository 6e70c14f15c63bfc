//! Multi-node operation via spatial division multiplexing (§7's closing
//! note): the AP creates beams toward different nodes and runs links
//! concurrently; angular separation and the horn/FSA patterns determine
//! inter-node interference.

use crate::config::SystemConfig;
use crate::engine::{ps_to_secs, Actor, ActorId, Engine, Outbox, TimePs};
use crate::error::{MilbackError, Result};
use crate::lifecycle::{DropReason, LifecycleStats, PacketId};
use crate::link::{LinkSimulator, SymbolScratch, UplinkBudget, UplinkOutcome};
use crate::pipeline::{ApServiceConfig, ApServiceStats, OverflowPolicy, StageKind};
use crate::protocol::{Packet, SlotPlan};
use crate::relay::RelayConfig;
use crate::scene::Scene;
use crate::telemetry::{
    CampaignProbe, Histogram, TraceRecord, BACKOFF_BUCKETS_FRAMES, ENERGY_BUCKETS_J,
    OCCUPANCY_BUCKETS, RELAY_HOP_BUCKETS, SNR_BUCKETS_DB,
};
use milback_node::power::{NodeActivity, NodePowerModel};
use mmwave_rf::antenna::Antenna;
use mmwave_sigproc::random::GaussianSource;
use mmwave_sigproc::units::db_to_lin;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One node's link report in a multi-node round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// Node index in the scene.
    pub node_idx: usize,
    /// Uplink outcome for this node's slot/beam.
    pub outcome: UplinkOutcome,
    /// Worst-case interference margin from other concurrently-served
    /// nodes, dB (signal-to-cross-beam-interference).
    pub sdm_margin_db: f64,
}

/// The multi-node network coordinator.
#[derive(Debug, Clone)]
pub struct Network {
    /// Shared configuration.
    pub config: SystemConfig,
    /// Scene containing every node.
    pub scene: Scene,
}

impl Network {
    /// Creates a network over a scene with at least one node.
    pub fn new(config: SystemConfig, scene: Scene) -> Result<Self> {
        config.validate()?;
        if scene.nodes.is_empty() {
            return Err(MilbackError::Config(
                "network needs at least one node".into(),
            ));
        }
        Ok(Self { config, scene })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.scene.nodes.len()
    }

    /// A single-node view of the scene for node `idx` (that node becomes
    /// the primary; clutter is shared; other nodes' structures are ignored
    /// except through [`sdm_margin_db`](Self::sdm_margin_db)).
    fn view_for(&self, idx: usize) -> Result<Scene> {
        self.scene.view_for_node_checked(idx)
    }

    /// Signal-to-interference margin (dB) for serving `idx` while `other`
    /// is simultaneously illuminated by a second beam: how much weaker the
    /// other beam's energy is toward node `idx`, through the AP horn
    /// pattern steered at each node.
    pub fn sdm_margin_db(&self, idx: usize, other: usize) -> f64 {
        assert!(idx != other, "a node does not interfere with itself");
        Self::margin_from_azimuths(self.node_azimuth(idx), self.node_azimuth(other))
    }

    /// Node `idx`'s azimuth off the AP boresight, radians: the
    /// `azimuth_to` that `Scene::ground_truth` runs, without its range and
    /// incidence. The only per-node input of the SDM margin, so a caller
    /// that evaluates many pairs can compute it once per node.
    pub fn node_azimuth(&self, idx: usize) -> f64 {
        self.scene.ap.azimuth_to(self.scene.nodes[idx].position)
    }

    /// The SDM margin formula of [`sdm_margin_db`](Self::sdm_margin_db),
    /// dB, from the two nodes' [`node_azimuth`](Self::node_azimuth)s: the
    /// one place it is written, shared by the direct form and every
    /// memoized caller (the campaign medium, [`SdmAwareAssignment`]).
    pub fn margin_from_azimuths(azimuth_i: f64, azimuth_o: f64) -> f64 {
        let horn = mmwave_rf::antenna::Horn::miwave_20dbi();
        // Beam steered at node idx: gain toward it is the boresight gain.
        let wanted = horn.gain_dbi(28e9, 0.0);
        // Beam steered at the other node: off-axis gain toward node idx is
        // evaluated at their angular separation.
        let separation = (azimuth_i - azimuth_o).abs();
        let leak = horn.gain_dbi(28e9, separation);
        wanted - leak
    }

    /// Whether two nodes are separable by SDM with at least `margin_db` of
    /// beam isolation.
    pub fn sdm_separable(&self, idx: usize, other: usize, margin_db: f64) -> bool {
        self.sdm_margin_db(idx, other) >= margin_db
    }

    /// Serves node `idx` one uplink beam/slot: runs the link, then degrades
    /// the effective SNR by the worst concurrent-beam leakage.
    fn serve_uplink(
        &self,
        idx: usize,
        payload: &[u8],
        rng: &mut GaussianSource,
    ) -> Result<NodeReport> {
        let sim = LinkSimulator::new(self.config.clone(), self.view_for(idx)?)?;
        let mut outcome = sim.uplink(payload, rng)?;
        // Degrade the effective SNR by concurrent-beam interference if
        // another node's beam leaks over this one.
        let margin = (0..self.node_count())
            .filter(|&o| o != idx)
            .map(|o| self.sdm_margin_db(idx, o))
            .fold(f64::INFINITY, f64::min);
        if margin.is_finite() {
            let sig = db_to_lin(outcome.snr_db);
            let interference = db_to_lin(outcome.snr_db - margin);
            outcome.snr_db = 10.0 * (sig / (1.0 + interference)).log10();
        }
        Ok(NodeReport {
            node_idx: idx,
            outcome,
            sdm_margin_db: if margin.is_finite() { margin } else { f64::MAX },
        })
    }

    /// Runs an uplink round serving every node, each in its own beam, in
    /// node order: every node's link runs on the shared stream, then its
    /// effective SNR is degraded by the worst concurrent-beam leakage.
    pub fn uplink_round(
        &self,
        payloads: &[Vec<u8>],
        rng: &mut GaussianSource,
    ) -> Result<Vec<NodeReport>> {
        if payloads.len() != self.node_count() {
            return Err(MilbackError::Config(format!(
                "{} payloads for {} nodes",
                payloads.len(),
                self.node_count()
            )));
        }
        (0..self.node_count())
            .map(|idx| self.serve_uplink(idx, &payloads[idx], rng))
            .collect()
    }

    /// Runs a slotted campaign under an arbitrary [`MacPolicy`]: `frames`
    /// frames of the given [`SlotPlan`], the policy deciding which nodes
    /// transmit `payload` in which slot of each frame (nodes sleep
    /// otherwise: per-node duty cycling) and the engine firing the slots on
    /// the shared clock.
    ///
    /// When several nodes share a slot, the AP attempts SDM: if every pair
    /// in the slot is separable by at least `sdm_threshold_db` of beam
    /// isolation, all are served concurrently (with cross-beam-degraded
    /// SNR); otherwise the slot is a collision and every packet in it is
    /// lost. Either way the transmitters spend uplink energy for the packet
    /// airtime — a lost slot still drains the ledger, which is exactly the
    /// cost ALOHA retries carry at scale. Accounting (attempts, energy,
    /// collisions, duty-cycled idle drain) is policy-independent, so the
    /// per-node reports compare across policies.
    ///
    /// The AP serves instantaneously and nothing is relayed. Under
    /// [`SlottedAloha`] this is the slotted-ALOHA campaign, and
    /// [`run_slotted_direct`](Self::run_slotted_direct) retains the
    /// pre-trait implementation as its bit-exactness reference. A packet
    /// ledger that fails the conservation audit is a
    /// [`MilbackError::Conservation`].
    pub fn run_mac(
        &self,
        policy: Box<dyn MacPolicy>,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        sdm_threshold_db: f64,
        rng: &mut GaussianSource,
    ) -> Result<SlottedRunReport> {
        self.run_mac_engine(
            policy,
            frames,
            payload,
            plan,
            sdm_threshold_db,
            rng,
            &ApServiceConfig::instantaneous(),
            &RelayConfig::disabled(),
            &mut CampaignProbe::disabled(),
            &mut CampaignScratch::new(),
            Self::finish_slotted,
        )
    }

    /// [`run_mac`](Self::run_mac) under an explicit [`ApServiceConfig`]:
    /// every granted slot flows through the AP's staged
    /// **Capture → Plan → Transmit** pipeline, each stage a distinct engine
    /// event with its configured processing latency and a bounded FIFO
    /// queue (see [`OverflowPolicy`] for what a full queue does). The
    /// instantaneous configuration reproduces [`run_mac`](Self::run_mac)
    /// bit-for-bit, and the report's [`ApServiceStats`] ledger records
    /// offered/served/dropped/deferred/degraded grants either way.
    #[allow(clippy::too_many_arguments)]
    pub fn run_mac_service(
        &self,
        policy: Box<dyn MacPolicy>,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        sdm_threshold_db: f64,
        rng: &mut GaussianSource,
        service: &ApServiceConfig,
    ) -> Result<SlottedRunReport> {
        self.run_mac_engine(
            policy,
            frames,
            payload,
            plan,
            sdm_threshold_db,
            rng,
            service,
            &RelayConfig::disabled(),
            &mut CampaignProbe::disabled(),
            &mut CampaignScratch::new(),
            Self::finish_slotted,
        )
    }

    /// [`run_mac_service`](Self::run_mac_service) with an instrumentation
    /// probe attached.
    ///
    /// The probe collects counters/histograms (slot occupancy, collisions,
    /// energy, SNR, the `ap_*` service counters, per-stage queue occupancy
    /// `ap_queue_*`, and — losslessly, straight from the engine's
    /// dispatch-time tallies — per-event-kind queue depths `queue_depth_*`)
    /// and, when tracing, structured records of every engine dispatch, slot
    /// outcome, policy decision, and energy draw. Recording is
    /// non-perturbing by construction: the probe only copies values the
    /// campaign already computed, draws no randomness, and reads no clocks,
    /// and the parity suite proves probed and plain runs produce
    /// bit-identical reports.
    #[allow(clippy::too_many_arguments)]
    pub fn run_mac_service_probed(
        &self,
        policy: Box<dyn MacPolicy>,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        sdm_threshold_db: f64,
        rng: &mut GaussianSource,
        service: &ApServiceConfig,
        probe: &mut CampaignProbe,
    ) -> Result<SlottedRunReport> {
        self.run_mac_engine(
            policy,
            frames,
            payload,
            plan,
            sdm_threshold_db,
            rng,
            service,
            &RelayConfig::disabled(),
            probe,
            &mut CampaignScratch::new(),
            Self::finish_slotted,
        )
    }

    /// [`run_mac_service`](Self::run_mac_service) with multi-hop
    /// tag-to-tag relaying: nodes outside `relay.coverage` (gap nodes)
    /// cannot be heard by the AP directly — their delivery path, if any, is
    /// the relay schedule the policy grants (see
    /// [`RelayAwareMac`](crate::relay::RelayAwareMac)). Per-hop energy and
    /// latency land in the report's relay columns. Relay chains are
    /// tag-side transmissions, so they bypass the AP's
    /// Capture → Plan → Transmit pipeline: only the terminal uplink's
    /// direct-slot siblings contend for AP service, and the service ledger
    /// counts direct grants exactly as without relays.
    ///
    /// [`RelayConfig::disabled`] reproduces
    /// [`run_mac_service`](Self::run_mac_service) bit-for-bit: full
    /// coverage gates nothing, no routes exist, and no extra randomness is
    /// drawn — the parity suite proves it by `==` and `to_bits`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_mac_relay_service(
        &self,
        policy: Box<dyn MacPolicy>,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        sdm_threshold_db: f64,
        rng: &mut GaussianSource,
        service: &ApServiceConfig,
        relay: &RelayConfig,
    ) -> Result<SlottedRunReport> {
        self.run_mac_engine(
            policy,
            frames,
            payload,
            plan,
            sdm_threshold_db,
            rng,
            service,
            relay,
            &mut CampaignProbe::disabled(),
            &mut CampaignScratch::new(),
            Self::finish_slotted,
        )
    }

    /// [`run_mac_relay_service`](Self::run_mac_relay_service) with
    /// streaming accounting, for the sharded runner: instead of
    /// materializing a per-node `Vec<SlottedNodeReport>`, each node's
    /// ledger row (relay columns included) is folded straight into `agg`
    /// — fixed-size counters and fixed-bucket histograms — so peak report
    /// memory is O(buckets), not O(nodes). The run's [`ApServiceStats`]
    /// and [`LifecycleStats`] fold in too, exactly as
    /// [`CampaignAggregate::observe_run`] folds them from a report.
    /// `scratch` recycles the campaign's per-node ledger across calls; its
    /// incoming rows are reset before use and never influence the result.
    ///
    /// The folded values are bit-identical to what the report path
    /// returns: both share one engine run and one per-node finishing
    /// computation, differing only in whether each [`SlottedNodeReport`]
    /// is pushed into a `Vec` or observed into the aggregate.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_mac_streaming_relay_service(
        &self,
        policy: Box<dyn MacPolicy>,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        sdm_threshold_db: f64,
        rng: &mut GaussianSource,
        service: &ApServiceConfig,
        relay: &RelayConfig,
        scratch: &mut CampaignScratch,
        agg: &mut CampaignAggregate,
    ) -> Result<()> {
        self.run_mac_engine(
            policy,
            frames,
            payload,
            plan,
            sdm_threshold_db,
            rng,
            service,
            relay,
            &mut CampaignProbe::disabled(),
            scratch,
            |m| {
                agg.begin_run(m.frames, m.frame_s, m.payload.len());
                Self::for_each_node_report(m, |r| agg.observe_node(&r))?;
                agg.service.merge_from(&m.service);
                agg.lifecycle.merge_from(&m.lifecycle);
                Ok(())
            },
        )
    }

    /// The shared engine core of every policy-driven campaign path: runs
    /// `policy` over `frames` frames on a fresh [`Engine`] whose per-node
    /// ledgers recycle `scratch`, hands the settled medium to `finish`
    /// (per-node report `Vec` or streaming aggregate), and returns the
    /// ledgers to `scratch`.
    #[allow(clippy::too_many_arguments)]
    fn run_mac_engine<T>(
        &self,
        mut policy: Box<dyn MacPolicy>,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        sdm_threshold_db: f64,
        rng: &mut GaussianSource,
        service: &ApServiceConfig,
        relay: &RelayConfig,
        probe: &mut CampaignProbe,
        scratch: &mut CampaignScratch,
        finish: impl FnOnce(&SlotMedium<'_>) -> Result<T>,
    ) -> Result<T> {
        let airtime_s = self.slotted_airtime_s(payload, plan)?;
        {
            let ctx = MacContext {
                net: self,
                plan: *plan,
                frames,
                sdm_threshold_db,
            };
            policy.begin(&ctx, rng);
        }
        // Jitter state is seeded from the trial stream only when jitter is
        // configured — the parity configuration draws nothing, leaving the
        // stream exactly where the pre-pipeline campaign expects it. Drawn
        // after `begin` so policies see the same stream position either way.
        let jitter_state = (service.jitter_ps > 0)
            .then(|| u64::from_le_bytes(rng.bytes(8).try_into().expect("eight bytes")));
        let mut medium = self.slot_medium(frames, plan, payload, airtime_s, rng, scratch);
        // Coverage defaults to all-true; an unbounded model skips the
        // classification loop entirely so the parity path never touches
        // the per-node flags (delivery gating on `true` is an identity).
        if !relay.coverage.is_unbounded() {
            let covered = relay.coverage.classify(&self.scene);
            for (row, &c) in medium.nodes.iter_mut().zip(&covered) {
                row.covered = c;
            }
            // Pre-classify every gap node's drop reason once per run (the
            // relay topology is static over a campaign), so the serve path
            // attributes uncovered losses by table lookup — no per-slot
            // graph work, no RNG, no clock.
            #[cfg(feature = "telemetry")]
            {
                let reasons = crate::relay::classify_gap_reasons(&self.scene, &covered, relay);
                for (row, reason) in medium.nodes.iter_mut().zip(reasons) {
                    row.gap_reason = reason;
                }
            }
        }
        medium.probe = std::mem::take(probe);
        let trace = medium.probe.trace.clone();
        let want_depths = medium.probe.metrics.is_some();
        let mut engine = Engine::new(medium);
        if let Some(sink) = trace {
            engine.set_tracer(sink, slot_event_label);
        }
        if want_depths {
            engine.enable_depth_stats(slot_event_label);
        }
        let coordinator = engine.add_actor(Box::new(PolicyCoordinator {
            me: ActorId(0),
            plan: *plan,
            frames,
            sdm_threshold_db,
            policy,
            schedule: Vec::new(),
            service: *service,
            relay: *relay,
            relay_schedule: Vec::new(),
            stages: Default::default(),
            jitter_state,
        }));
        if frames > 0 {
            engine.post(0, coordinator, SlotEvent::FrameStart { frame: 0 });
        }
        engine.run()?;
        let depths = engine.take_depth_stats();
        let mut m = engine.into_medium();
        *probe = std::mem::take(&mut m.probe);
        if let Some(d) = depths {
            probe.merge_queue_depths(d.entries());
        }
        let out = finish(&m)?;
        scratch.reclaim(m);
        Ok(out)
    }

    /// The pre-trait slotted-ALOHA campaign, retained verbatim as the
    /// parity reference for the [`SlottedAloha`]-behind-[`MacPolicy`]
    /// refactor.
    pub fn run_slotted_direct(
        &self,
        frames: usize,
        payload: &[u8],
        plan: &SlotPlan,
        slot_seed: u64,
        sdm_threshold_db: f64,
        rng: &mut GaussianSource,
    ) -> Result<SlottedRunReport> {
        let airtime_s = self.slotted_airtime_s(payload, plan)?;
        let mut scratch = CampaignScratch::new();
        let medium = self.slot_medium(frames, plan, payload, airtime_s, rng, &mut scratch);
        let mut engine = Engine::new(medium);
        let coordinator = engine.add_actor(Box::new(SlotCoordinator {
            me: ActorId(0),
            plan: *plan,
            frames,
            slot_seed,
            sdm_threshold_db,
        }));
        if frames > 0 {
            engine.post(0, coordinator, SlotEvent::FrameStart { frame: 0 });
        }
        engine.run()?;
        Self::finish_slotted(&engine.into_medium())
    }

    /// Validates `plan` ([`SlotPlan::validate`]) and that one `payload`
    /// packet (plus guard) fits a slot of it, and returns the packet
    /// airtime in seconds.
    fn slotted_airtime_s(&self, payload: &[u8], plan: &SlotPlan) -> Result<f64> {
        plan.validate()?;
        let packet = Packet::uplink(payload.to_vec());
        let airtime_s = packet.duration_s(&self.config.fmcw, self.config.uplink_symbol_rate_hz);
        if packet.duration_ps(&self.config.fmcw, self.config.uplink_symbol_rate_hz) > plan.slot_ps {
            return Err(MilbackError::Config(format!(
                "a {airtime_s:.3e} s packet does not fit the plan's {:.3e} s slots",
                ps_to_secs(plan.slot_ps)
            )));
        }
        Ok(airtime_s)
    }

    /// A campaign medium for `frames` frames of `plan`, its per-node
    /// ledger recycling `scratch`'s rows (reset before use, so only the
    /// allocation depends on the scratch's history).
    fn slot_medium<'a>(
        &'a self,
        frames: usize,
        plan: &SlotPlan,
        payload: &'a [u8],
        airtime_s: f64,
        rng: &'a mut GaussianSource,
        scratch: &mut CampaignScratch,
    ) -> SlotMedium<'a> {
        let mut nodes = std::mem::take(&mut scratch.nodes);
        nodes.clear();
        nodes.resize(self.node_count(), NodeLedger::UNSERVED);
        SlotMedium {
            net: self,
            rng,
            payload,
            frames,
            frame_s: ps_to_secs(plan.frame_ps()),
            airtime_s,
            power: NodePowerModel::milback_default(),
            nodes,
            symbols: std::mem::take(&mut scratch.symbols),
            lifecycle: LifecycleStats::new(),
            probe: CampaignProbe::disabled(),
            service: ApServiceStats::default(),
        }
    }

    /// The finishing step every campaign output shares: audits the run's
    /// packet ledger for conservation ([`MilbackError::Conservation`] on
    /// violation), then runs each node's finished report — duty-cycled
    /// idle energy folded in — through `each`, without materializing a
    /// report `Vec`. One walk for the per-node-report and
    /// streaming-aggregate outputs, so their accounting cannot drift.
    fn for_each_node_report(
        m: &SlotMedium<'_>,
        mut each: impl FnMut(SlottedNodeReport),
    ) -> Result<()> {
        m.lifecycle.audit()?;
        // Duty cycling: outside its own transmissions every node idles.
        let total_s = m.frames as f64 * m.frame_s;
        for (idx, row) in m.nodes.iter().enumerate() {
            // Forwarded relay transmissions are airtime too: without them
            // the idle-energy complement would double-bill relays as both
            // transmitting and idling. Zero forwards reproduces the
            // pre-relay expression bit-for-bit.
            let active_s = (row.attempts + row.forwarded) as f64 * m.airtime_s;
            let energy_j = row.energy_j + m.power.energy_j(NodeActivity::Idle, total_s - active_s);
            each(SlottedNodeReport {
                node_idx: idx,
                attempts: row.attempts,
                delivered: row.delivered,
                collisions: row.collisions,
                energy_j,
                mean_snr_db: (row.delivered > 0).then(|| row.snr_sum_db / row.delivered as f64),
                gap: !row.covered,
                relayed: row.relayed,
                relay_hops: row.relay_hops,
                forwarded: row.forwarded,
                relay_energy_j: row.relay_energy_j,
                relay_latency_s: row.relay_latency_s,
            });
        }
        Ok(())
    }

    /// Assembles the per-node report `Vec` from a settled medium — the
    /// collecting counterpart of the streaming fold in
    /// [`run_mac_streaming_relay_service`](Self::run_mac_streaming_relay_service);
    /// both walk [`for_each_node_report`](Self::for_each_node_report).
    fn finish_slotted(m: &SlotMedium<'_>) -> Result<SlottedRunReport> {
        let mut nodes = Vec::with_capacity(m.net.node_count());
        Self::for_each_node_report(m, |r| nodes.push(r))?;
        Ok(SlottedRunReport {
            frames: m.frames,
            frame_s: m.frame_s,
            payload_bytes: m.payload.len(),
            nodes,
            service: m.service,
            lifecycle: m.lifecycle.clone(),
        })
    }
}

/// One node's statistics over a slotted multi-node run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlottedNodeReport {
    /// Node index in the scene.
    pub node_idx: usize,
    /// Packets transmitted (one per frame).
    pub attempts: usize,
    /// Packets delivered intact at the AP.
    pub delivered: usize,
    /// Packets lost to unseparable slot collisions.
    pub collisions: usize,
    /// Total node energy over the run (transmit + idle), joules.
    pub energy_j: f64,
    /// Mean effective SNR of the delivered packets, dB; `None` when
    /// nothing got through. (A `NaN` sentinel here made `==`-based parity
    /// and determinism checks silently unsatisfiable and leaked
    /// `null`/`NaN` into serialized reports.)
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mean_snr_db: Option<f64>,
    /// True when the node sits outside the campaign's AP coverage (a
    /// cell-edge gap node): its direct uplinks cannot be heard, so any
    /// delivery it reports arrived over a relay route. Always `false`
    /// under the default unbounded coverage, and for pre-relay reports
    /// (`serde(default)`).
    #[serde(default)]
    pub gap: bool,
    /// Of `delivered`, how many arrived over a multi-hop relay route.
    #[serde(default)]
    pub relayed: usize,
    /// Total transmissions across this node's relayed deliveries (tag
    /// hops + the terminal uplink each; direct counts as 1), so
    /// `relay_hops / relayed` is the mean route length.
    #[serde(default)]
    pub relay_hops: usize,
    /// Packets this node forwarded on behalf of other nodes' routes.
    #[serde(default)]
    pub forwarded: usize,
    /// Energy spent forwarding other nodes' packets, joules (already
    /// included in `energy_j` — this is the relay share, not an extra).
    #[serde(default)]
    pub relay_energy_j: f64,
    /// Extra delivery latency this node's relayed packets accrued over a
    /// direct uplink (one slot per tag hop), seconds, summed across its
    /// relayed deliveries.
    #[serde(default)]
    pub relay_latency_s: f64,
}

/// The outcome of a [`Network::run_mac`] campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlottedRunReport {
    /// Frames simulated.
    pub frames: usize,
    /// Frame duration, seconds.
    pub frame_s: f64,
    /// Payload size per packet, bytes.
    pub payload_bytes: usize,
    /// Per-node statistics.
    pub nodes: Vec<SlottedNodeReport>,
    /// AP service pipeline accounting for the run. Defaults to all-zero
    /// when deserializing pre-pipeline reports.
    #[serde(default)]
    pub service: ApServiceStats,
    /// Packet-lifecycle ledger for the run: offered/delivered totals,
    /// drop counts by [`DropReason`] taxonomy slot, and the three latency
    /// sketches. Defaults to empty when deserializing pre-lifecycle
    /// reports; all-zero in a telemetry-off build.
    #[serde(default)]
    pub lifecycle: LifecycleStats,
}

impl SlottedRunReport {
    /// Elapsed campaign time, seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.frames as f64 * self.frame_s
    }

    /// A node's goodput over the campaign, bits/second.
    pub fn goodput_bps(&self, node_idx: usize) -> f64 {
        let elapsed = self.elapsed_s();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.nodes[node_idx].delivered as f64 * self.payload_bytes as f64 * 8.0 / elapsed
    }

    /// A node's energy per delivered packet, joules; `None` when nothing
    /// got through. (An `INFINITY` sentinel here leaked `inf` into CSV
    /// rows at high node counts; callers now emit an empty cell instead.)
    pub fn energy_per_packet_j(&self, node_idx: usize) -> Option<f64> {
        let n = &self.nodes[node_idx];
        (n.delivered > 0).then(|| n.energy_j / n.delivered as f64)
    }
}

/// Streaming campaign accounting: fixed-size counters plus the fixed-bucket
/// telemetry histograms, folded node-by-node and merged cell-by-cell in
/// deterministic order (the same discipline as
/// [`Metrics::merge_from`](crate::telemetry::Metrics::merge_from)).
///
/// This is the city-scale replacement for per-node
/// `Vec<SlottedNodeReport>` accounting: an aggregate's size is a function
/// of its histogram bucket counts alone, so a sharded campaign's peak
/// report memory is O(cells + buckets) — never O(nodes). The u64 counters
/// and histogram buckets are exact (integer adds), so folding node reports
/// in any cell order produces identical counters/buckets; the f64 sums are
/// reproducible for a *fixed* fold order, which the sharded runner
/// guarantees by merging cells in index order.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignAggregate {
    /// Cell campaigns folded in (1 for a plain run).
    pub cells: u64,
    /// Nodes observed across all cells.
    pub nodes: u64,
    /// Frames per cell campaign (identical across a campaign's cells).
    pub frames: u64,
    /// Frame duration, seconds.
    pub frame_s: f64,
    /// Payload size per packet, bytes.
    pub payload_bytes: u64,
    /// Packets transmitted, network-wide.
    pub attempts: u64,
    /// Packets delivered intact, network-wide.
    pub delivered: u64,
    /// Packets lost to unseparable collisions, network-wide.
    pub collisions: u64,
    /// Total node energy over the campaign (transmit + idle), joules.
    pub energy_j: f64,
    /// Sum of per-node mean delivered SNRs over the delivering nodes, dB.
    pub snr_sum_db: f64,
    /// Nodes that delivered at least one packet.
    pub delivering_nodes: u64,
    /// Per-node total-energy distribution over [`ENERGY_BUCKETS_J`].
    pub node_energy_j: Histogram,
    /// Per-node mean-delivered-SNR distribution over [`SNR_BUCKETS_DB`].
    pub node_snr_db: Histogram,
    /// Nodes outside AP coverage (cell-edge gap nodes).
    pub gap_nodes: u64,
    /// Packets attempted by gap nodes (their direct attempts can never
    /// deliver, so these dominate the no-relay loss).
    pub gap_attempts: u64,
    /// Packets gap nodes got through (necessarily over relay routes).
    pub gap_delivered: u64,
    /// Packets delivered over multi-hop relay routes, network-wide.
    pub relayed: u64,
    /// Total transmissions across relayed deliveries (route length summed
    /// per delivery), so `relayed > 0` makes `relay_hops / relayed` the
    /// mean route length.
    pub relay_hops: u64,
    /// Forwarding transmissions performed on behalf of other nodes.
    pub forwarded: u64,
    /// Energy spent forwarding, joules (a share of `energy_j`).
    pub relay_energy_j: f64,
    /// Extra relay latency over direct uplinks, seconds, summed across
    /// relayed deliveries.
    pub relay_latency_s: f64,
    /// Per-node mean-route-length distribution over
    /// [`RELAY_HOP_BUCKETS`], observed only for nodes with at least one
    /// relayed delivery.
    pub node_relay_hops: Histogram,
    /// AP service pipeline accounting summed over the folded runs —
    /// exact u64 adds, so any cell merge order agrees.
    pub service: ApServiceStats,
    /// Packet-lifecycle ledger summed over the folded runs: exact
    /// integer adds plus fixed-bucket sketch merges, so merging cells in
    /// index order reproduces counts and percentiles bit-identically at
    /// any thread count.
    pub lifecycle: LifecycleStats,
}

impl CampaignAggregate {
    /// An empty aggregate (all counters zero, histograms empty).
    pub fn new() -> Self {
        Self {
            cells: 0,
            nodes: 0,
            frames: 0,
            frame_s: 0.0,
            payload_bytes: 0,
            attempts: 0,
            delivered: 0,
            collisions: 0,
            energy_j: 0.0,
            snr_sum_db: 0.0,
            delivering_nodes: 0,
            node_energy_j: Histogram::new(ENERGY_BUCKETS_J),
            node_snr_db: Histogram::new(SNR_BUCKETS_DB),
            gap_nodes: 0,
            gap_attempts: 0,
            gap_delivered: 0,
            relayed: 0,
            relay_hops: 0,
            forwarded: 0,
            relay_energy_j: 0.0,
            relay_latency_s: 0.0,
            node_relay_hops: Histogram::new(RELAY_HOP_BUCKETS),
            service: ApServiceStats::default(),
            lifecycle: LifecycleStats::new(),
        }
    }

    /// Opens one cell campaign's fold: records the campaign shape and
    /// counts the cell. Call once per cell, then
    /// [`observe_node`](Self::observe_node) per node.
    pub fn begin_run(&mut self, frames: usize, frame_s: f64, payload_bytes: usize) {
        if self.cells > 0 {
            debug_assert_eq!(
                self.frames, frames as u64,
                "cells must share a campaign shape"
            );
            debug_assert_eq!(self.frame_s.to_bits(), frame_s.to_bits());
            debug_assert_eq!(self.payload_bytes, payload_bytes as u64);
        }
        self.frames = frames as u64;
        self.frame_s = frame_s;
        self.payload_bytes = payload_bytes as u64;
        self.cells += 1;
    }

    /// Folds one node's finished report into the aggregate.
    pub fn observe_node(&mut self, r: &SlottedNodeReport) {
        self.nodes += 1;
        self.attempts += r.attempts as u64;
        self.delivered += r.delivered as u64;
        self.collisions += r.collisions as u64;
        self.energy_j += r.energy_j;
        self.node_energy_j.observe(r.energy_j);
        if let Some(snr) = r.mean_snr_db {
            self.delivering_nodes += 1;
            self.snr_sum_db += snr;
            self.node_snr_db.observe(snr);
        }
        if r.gap {
            self.gap_nodes += 1;
            self.gap_attempts += r.attempts as u64;
            self.gap_delivered += r.delivered as u64;
        }
        self.relayed += r.relayed as u64;
        self.relay_hops += r.relay_hops as u64;
        self.forwarded += r.forwarded as u64;
        self.relay_energy_j += r.relay_energy_j;
        self.relay_latency_s += r.relay_latency_s;
        if r.relayed > 0 {
            self.node_relay_hops
                .observe(r.relay_hops as f64 / r.relayed as f64);
        }
    }

    /// Folds a whole per-node report into the aggregate — the reference
    /// the streaming path and the property suite compare against.
    pub fn observe_run(&mut self, r: &SlottedRunReport) {
        self.begin_run(r.frames, r.frame_s, r.payload_bytes);
        for node in &r.nodes {
            self.observe_node(node);
        }
        self.service.merge_from(&r.service);
        self.lifecycle.merge_from(&r.lifecycle);
    }

    /// The aggregate of one materialized report.
    pub fn from_report(r: &SlottedRunReport) -> Self {
        let mut agg = Self::new();
        agg.observe_run(r);
        agg
    }

    /// Folds another aggregate into this one. Merge cells in index order:
    /// counters and buckets are exact either way, and a fixed order makes
    /// the f64 sums reproducible at any thread count.
    pub fn merge_from(&mut self, other: &Self) {
        if other.cells == 0 && other.nodes == 0 {
            return;
        }
        if self.cells == 0 {
            self.frames = other.frames;
            self.frame_s = other.frame_s;
            self.payload_bytes = other.payload_bytes;
        } else if other.cells > 0 {
            debug_assert_eq!(
                self.frames, other.frames,
                "cells must share a campaign shape"
            );
            debug_assert_eq!(self.frame_s.to_bits(), other.frame_s.to_bits());
            debug_assert_eq!(self.payload_bytes, other.payload_bytes);
        }
        self.cells += other.cells;
        self.nodes += other.nodes;
        self.attempts += other.attempts;
        self.delivered += other.delivered;
        self.collisions += other.collisions;
        self.energy_j += other.energy_j;
        self.snr_sum_db += other.snr_sum_db;
        self.delivering_nodes += other.delivering_nodes;
        self.node_energy_j.merge_from(&other.node_energy_j);
        self.node_snr_db.merge_from(&other.node_snr_db);
        self.gap_nodes += other.gap_nodes;
        self.gap_attempts += other.gap_attempts;
        self.gap_delivered += other.gap_delivered;
        self.relayed += other.relayed;
        self.relay_hops += other.relay_hops;
        self.forwarded += other.forwarded;
        self.relay_energy_j += other.relay_energy_j;
        self.relay_latency_s += other.relay_latency_s;
        self.node_relay_hops.merge_from(&other.node_relay_hops);
        self.service.merge_from(&other.service);
        self.lifecycle.merge_from(&other.lifecycle);
    }

    /// Elapsed campaign time, seconds (cells run concurrently in
    /// simulated time — each serves its own AP).
    pub fn elapsed_s(&self) -> f64 {
        self.frames as f64 * self.frame_s
    }

    /// Delivered over attempted, network-wide; `None` before any attempt.
    pub fn delivery_rate(&self) -> Option<f64> {
        (self.attempts > 0).then(|| self.delivered as f64 / self.attempts as f64)
    }

    /// Network-wide goodput over the campaign, bits/second.
    pub fn goodput_bps(&self) -> f64 {
        let elapsed = self.elapsed_s();
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.delivered as f64 * self.payload_bytes as f64 * 8.0 / elapsed
    }

    /// Mean node energy over the campaign, joules; `None` with no nodes.
    pub fn mean_energy_per_node_j(&self) -> Option<f64> {
        (self.nodes > 0).then(|| self.energy_j / self.nodes as f64)
    }

    /// Total energy per delivered packet, joules; `None` when nothing got
    /// through.
    pub fn energy_per_delivered_j(&self) -> Option<f64> {
        (self.delivered > 0).then(|| self.energy_j / self.delivered as f64)
    }

    /// Mean of the per-node mean delivered SNRs, dB; `None` when nothing
    /// got through anywhere.
    pub fn mean_snr_db(&self) -> Option<f64> {
        (self.delivering_nodes > 0).then(|| self.snr_sum_db / self.delivering_nodes as f64)
    }

    /// Delivered over attempted among gap nodes alone; `None` when no gap
    /// node attempted anything (including the all-covered default).
    /// Without relaying this is exactly 0; the `net_relay` sweep shows it
    /// recovering with `max_hops`.
    pub fn gap_delivery_rate(&self) -> Option<f64> {
        (self.gap_attempts > 0).then(|| self.gap_delivered as f64 / self.gap_attempts as f64)
    }

    /// Mean route length (transmissions per relayed delivery; direct
    /// would be 1); `None` when nothing was relayed.
    pub fn mean_relay_hops(&self) -> Option<f64> {
        (self.relayed > 0).then(|| self.relay_hops as f64 / self.relayed as f64)
    }

    /// Forwarding energy per relayed delivery, joules; `None` when
    /// nothing was relayed.
    pub fn relay_energy_per_delivered_j(&self) -> Option<f64> {
        (self.relayed > 0).then(|| self.relay_energy_j / self.relayed as f64)
    }

    /// Mean extra latency per relayed delivery, seconds; `None` when
    /// nothing was relayed.
    pub fn mean_relay_latency_s(&self) -> Option<f64> {
        (self.relayed > 0).then(|| self.relay_latency_s / self.relayed as f64)
    }

    /// Total histogram bucket slots held — the aggregate's only
    /// node-count-independent heap footprint, which the bounded-memory
    /// acceptance check compares across campaign sizes.
    pub fn bucket_footprint(&self) -> usize {
        self.node_energy_j.counts.len()
            + self.node_snr_db.counts.len()
            + self.node_relay_hops.counts.len()
            + self.lifecycle.bucket_footprint()
    }
}

impl Default for CampaignAggregate {
    fn default() -> Self {
        Self::new()
    }
}

/// Reusable per-worker ledger buffer for campaign runs: the per-node
/// ledger rows (counters, energy, uplink budget) every campaign's engine
/// medium needs, recycled across a sharded worker's cells instead of
/// reallocated per cell (a report-path run passes a fresh scratch). Rows
/// are reset before every use, so (per the
/// [`parallel::for_each_chunk_with`](mmwave_sigproc::parallel::for_each_chunk_with)
/// contract) scratch state can never influence a result.
#[derive(Debug, Default)]
pub struct CampaignScratch {
    nodes: Vec<NodeLedger>,
    /// The served packets' symbol buffers.
    symbols: SymbolScratch,
}

impl CampaignScratch {
    /// Empty scratch; buffers grow to the largest cell a worker runs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a settled medium's ledger back for the next cell.
    fn reclaim(&mut self, m: SlotMedium<'_>) {
        self.nodes = m.nodes;
        self.symbols = m.symbols;
    }
}

/// Events of a slotted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotEvent {
    /// A frame boundary: hash every node to its slot and schedule the
    /// occupied slots.
    FrameStart {
        /// Frame number.
        frame: usize,
    },
    /// An occupied slot's airtime begins.
    SlotFire {
        /// Frame number.
        frame: usize,
        /// Slot within the frame.
        slot: usize,
    },
    /// An AP pipeline stage finished the job it had in service. The job
    /// itself lives in the coordinator's [`StageState`] (events stay
    /// `Copy`); the completed job moves downstream and the stage starts
    /// its next queued job, if any.
    StageDone {
        /// Which stage completed.
        stage: StageKind,
    },
    /// A granted relay chain resolves: the route's tag hops fire
    /// back-to-back inside the granted slot and the terminal node uplinks
    /// for the origin. Posted after the frame's direct `SlotFire` events,
    /// so the engine's `(time, seq)` order gives every chain a fixed,
    /// posting-determined position among same-instant events at any
    /// thread count.
    RelayFire {
        /// Frame number.
        frame: usize,
        /// Index into the coordinator's per-frame relay grants.
        grant: usize,
    },
}

/// The stable trace/metric label of a campaign event — shared by the
/// tracer and the engine's lossless queue-depth tallies so both name
/// event kinds identically.
fn slot_event_label(ev: &SlotEvent) -> &'static str {
    match ev {
        SlotEvent::FrameStart { .. } => "frame_start",
        SlotEvent::SlotFire { .. } => "slot_fire",
        SlotEvent::StageDone { stage } => stage.label(),
        SlotEvent::RelayFire { .. } => "relay_fire",
    }
}

/// One node's row of a slotted campaign's ledger.
#[derive(Debug, Clone, Copy)]
struct NodeLedger {
    attempts: usize,
    delivered: usize,
    collisions: usize,
    energy_j: f64,
    snr_sum_db: f64,
    /// AP reachability under the campaign's coverage model. `true` by
    /// default (unbounded coverage), so the delivery gate `&& covered` is
    /// an identity on the parity path.
    covered: bool,
    /// Deliveries that arrived over a relay route, as origin.
    relayed: usize,
    /// Route lengths summed across relayed deliveries, as origin.
    relay_hops: usize,
    /// Forwarding transmissions performed for other nodes' routes.
    forwarded: usize,
    /// Energy spent forwarding, joules (also added to `energy_j`).
    relay_energy_j: f64,
    /// Extra relay latency over direct uplinks, seconds, as origin.
    relay_latency_s: f64,
    /// The node's uplink budget, filled the first time it is served (see
    /// [`SlotMedium::budget`]). Lazy because a contended city cell serves
    /// most nodes at most once.
    budget: Option<UplinkBudget>,
    /// The node's AP azimuth, filled the first time an SDM margin needs
    /// it (see [`SlotMedium::sdm_margin_db`]). Per node rather than per
    /// pair, so the memo stays linear in the node count.
    azimuth: Option<f64>,
    /// Drop attribution if the node is a gap node, precomputed once per
    /// run from the relay topology: [`DropReason::HopBudgetExhausted`] or
    /// [`DropReason::NoRelayRoute`]. `None` for covered nodes, and for
    /// every node under unbounded coverage or in a telemetry-off build;
    /// the serve path falls back to `NoRelayRoute`.
    gap_reason: Option<DropReason>,
}

impl NodeLedger {
    /// The row every node starts a campaign with.
    const UNSERVED: Self = Self {
        attempts: 0,
        delivered: 0,
        collisions: 0,
        energy_j: 0.0,
        snr_sum_db: 0.0,
        covered: true,
        relayed: 0,
        relay_hops: 0,
        forwarded: 0,
        relay_energy_j: 0.0,
        relay_latency_s: 0.0,
        budget: None,
        azimuth: None,
        gap_reason: None,
    };
}

/// Shared medium of a slotted campaign.
struct SlotMedium<'a> {
    net: &'a Network,
    rng: &'a mut GaussianSource,
    payload: &'a [u8],
    /// Frames the campaign runs and their length, seconds: the window
    /// every node's duty-cycled idle energy is billed over.
    frames: usize,
    frame_s: f64,
    airtime_s: f64,
    power: NodePowerModel,
    /// One ledger row per node, indexed by node.
    nodes: Vec<NodeLedger>,
    /// The symbol core's buffers, shared by every packet the run serves.
    symbols: SymbolScratch,
    /// The run's packet-lifecycle ledger: offered/delivered/dropped
    /// counts and latency sketches (see [`LifecycleStats`]). Recording is
    /// feature-gated, not probe-gated, so plain and probed runs account
    /// identically.
    lifecycle: LifecycleStats,
    /// The campaign's instrumentation surface. Disabled (all-`None`) on
    /// every uninstrumented path, so recording helpers no-op and both
    /// paths execute the same code.
    probe: CampaignProbe,
    /// AP service accounting for the run: offered/served at the pipeline's
    /// mouth and tail, overflow outcomes in between. Exact u64 adds only,
    /// so the instantaneous pipeline and the retained direct coordinator
    /// account identically.
    service: ApServiceStats,
}

impl<'a> SlotMedium<'a> {
    /// Node `node`'s [`UplinkBudget`]: computed by the node's own
    /// [`LinkSimulator`] the first time the node is served, read from the
    /// table after that. The scene is static over a campaign, so every
    /// packet sees the budget a fresh simulator would compute.
    fn budget(&mut self, node: usize) -> Result<UplinkBudget> {
        if let Some(budget) = self.nodes[node].budget {
            return Ok(budget);
        }
        let sim = LinkSimulator::new(self.net.config.clone(), self.net.view_for(node)?)?;
        let budget = sim.uplink_budget()?;
        self.nodes[node].budget = Some(budget);
        Ok(budget)
    }

    /// [`Network::sdm_margin_db`] from the nodes' memoized azimuths: each
    /// node's `azimuth_to` runs once per campaign, not twice per pair.
    /// The scene is static over a campaign, so the memo holds exactly
    /// what the direct form would compute.
    fn sdm_margin_db(&mut self, node: usize, other: usize) -> f64 {
        assert!(node != other, "a node does not interfere with itself");
        Network::margin_from_azimuths(self.azimuth(node), self.azimuth(other))
    }

    fn azimuth(&mut self, node: usize) -> f64 {
        *self.nodes[node]
            .azimuth
            .get_or_insert_with(|| self.net.node_azimuth(node))
    }

    /// Resolves one slot's transmitter group: accounts attempts and uplink
    /// energy, arbitrates the group by SDM separability, and serves the
    /// survivors (drawing channel noise from the trial stream in node-index
    /// order). Returns whether the slot was lost to a collision.
    ///
    /// Every MAC path funnels through this one function (`inline(never)` so
    /// the optimizer cannot split it into per-caller pipelines that drift
    /// by a ULP — the same discipline the FSA evaluator uses).
    ///
    /// `(now_ps, frame, slot)` identify the slot for telemetry only — the
    /// physics never reads them, and the probe calls are unconditional
    /// no-ops when the probe is disabled, so instrumented and plain runs
    /// share one code path.
    ///
    /// `degraded` marks a grant the pipeline admitted under
    /// [`OverflowPolicy::Degrade`]: the AP skipped SDM arbitration, so a
    /// multi-transmitter group resolves as a collision (a lone transmitter
    /// still serves — there is nothing to arbitrate). With
    /// `degraded == false` the computation is bit-identical to the
    /// pre-pipeline serve path.
    #[inline(never)]
    fn fire_slot(
        &mut self,
        group: &[usize],
        sdm_threshold_db: f64,
        now_ps: TimePs,
        frame: usize,
        slot: usize,
        degraded: bool,
    ) -> Result<bool> {
        for &node in group {
            self.nodes[node].attempts += 1;
            self.nodes[node].energy_j += self.power.energy_j(NodeActivity::Uplink, self.airtime_s);
        }
        // SDM arbitration: the slot survives concurrency only if every
        // pair of co-slotted beams is separable (a degraded grant skips
        // arbitration and never survives concurrency).
        let separable = !degraded
            && group.iter().enumerate().all(|(i, &a)| {
                group[i + 1..]
                    .iter()
                    .all(|&b| self.sdm_margin_db(a, b) >= sdm_threshold_db)
            });
        if group.len() > 1 && !separable {
            for &node in group {
                self.nodes[node].collisions += 1;
            }
            // A degraded grant never ran SDM arbitration — plain
            // contention; an arbitrated loss is an inseparability drop.
            self.lifecycle.record_drops(
                if degraded {
                    DropReason::ContentionCollision
                } else {
                    DropReason::SdmInseparable
                },
                group.len() as u64,
            );
            self.probe.trace(|| TraceRecord::FlowEnd {
                time_ps: now_ps,
                flow: PacketId::direct(frame, slot).raw(),
                outcome: "collision",
            });
            self.record_slot(group, true, now_ps, frame, slot);
            return Ok(true);
        }
        for &node in group {
            let budget = self.budget(node)?;
            let mut outcome =
                LinkSimulator::uplink_symbols(&budget, self.payload, self.rng, &mut self.symbols)?;
            if group.len() > 1 {
                let margin = group
                    .iter()
                    .filter(|&&o| o != node)
                    .map(|&o| self.sdm_margin_db(node, o))
                    .fold(f64::INFINITY, f64::min);
                if margin.is_finite() {
                    let sig = db_to_lin(outcome.snr_db);
                    let interference = db_to_lin(outcome.snr_db - margin);
                    outcome.snr_db = 10.0 * (sig / (1.0 + interference)).log10();
                }
            }
            // Coverage gates delivery, not transmission: a gap node still
            // burns the attempt and the airtime energy (it cannot know the
            // AP missed it), but nothing lands. The noise draw above stays
            // unconditional so covered nodes see an unchanged stream.
            let row = &mut self.nodes[node];
            if self.symbols.decoded() == self.payload && row.covered {
                row.delivered += 1;
                row.snr_sum_db += outcome.snr_db;
                self.lifecycle.deliver_direct(1);
                self.probe
                    .observe("delivered_snr_db", SNR_BUCKETS_DB, outcome.snr_db);
            } else if !row.covered {
                // A gap node's direct uplink can never land; the
                // precomputed classification says whether a relay route
                // could have existed within the hop budget.
                self.lifecycle
                    .record_drops(row.gap_reason.unwrap_or(DropReason::NoRelayRoute), 1);
            } else {
                self.lifecycle.record_drops(DropReason::DecodeFailure, 1);
            }
        }
        self.probe.trace(|| TraceRecord::FlowEnd {
            time_ps: now_ps,
            flow: PacketId::direct(frame, slot).raw(),
            outcome: "served",
        });
        self.record_slot(group, false, now_ps, frame, slot);
        Ok(false)
    }

    /// Resolves one granted relay chain: the origin's packet hops
    /// tag-to-tag along `route` and the terminal (covered) node uplinks
    /// it to the AP on the origin's behalf.
    ///
    /// `route` holds node indices origin-first, terminal-last, so
    /// `route.len()` is the total transmission count (tag hops + the
    /// terminal uplink; a direct delivery would be 1). Every member pays
    /// one uplink airtime of transmit energy; non-origin members also
    /// ledger it as forwarding. Channel noise is drawn once, for the
    /// terminal uplink — the tag hops are modeled as lossless short-range
    /// retransmissions whose degradation is the deterministic per-hop SNR
    /// penalty subtracted after decode (a documented simplification: hop
    /// losses shift the reported SNR, not the decode verdict).
    ///
    /// `inline(never)` for the same anti-drift reason as
    /// [`fire_slot`](Self::fire_slot).
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn fire_relay(
        &mut self,
        route: &[usize],
        hop_snr_penalty_db: f64,
        slot_s: f64,
        now_ps: TimePs,
        frame: usize,
        slot: usize,
    ) -> Result<()> {
        let n = self.net.node_count();
        if route.len() < 2 {
            return Err(MilbackError::Protocol(format!(
                "a relay route needs at least two nodes, got {}",
                route.len()
            )));
        }
        if let Some(&bad) = route.iter().find(|&&idx| idx >= n) {
            return Err(MilbackError::NodeOutOfScene { idx: bad, nodes: n });
        }
        let origin = route[0];
        let terminal = route[route.len() - 1];
        let tag_hops = route.len() - 1;
        self.nodes[origin].attempts += 1;
        let e_tx = self.power.energy_j(NodeActivity::Uplink, self.airtime_s);
        for &tx in route {
            let row = &mut self.nodes[tx];
            row.energy_j += e_tx;
            if tx != origin {
                row.forwarded += 1;
                row.relay_energy_j += e_tx;
            }
        }
        let budget = self.budget(terminal)?;
        let mut outcome =
            LinkSimulator::uplink_symbols(&budget, self.payload, self.rng, &mut self.symbols)?;
        outcome.snr_db -= hop_snr_penalty_db * tag_hops as f64;
        self.probe.inc("relay_fired", 1);
        // The chain's flow id links its hop spans and terminal outcome in
        // the exported trace; hops fire back-to-back inside the slot, so
        // every span shares the grant instant.
        let flow = PacketId::relayed(frame, origin).raw();
        let hop_dur_ps = crate::engine::secs_to_ps(self.airtime_s);
        for (hop, pair) in route.windows(2).enumerate() {
            let (from, to) = (pair[0], pair[1]);
            self.probe.trace(|| TraceRecord::RelayHop {
                time_ps: now_ps,
                flow,
                hop,
                from,
                to,
                dur_ps: hop_dur_ps,
            });
        }
        if self.symbols.decoded() == self.payload && self.nodes[terminal].covered {
            let row = &mut self.nodes[origin];
            row.delivered += 1;
            row.relayed += 1;
            row.relay_hops += route.len();
            row.relay_latency_s += tag_hops as f64 * slot_s;
            row.snr_sum_db += outcome.snr_db;
            self.lifecycle.deliver_relayed(1);
            self.lifecycle
                .observe_relay_extra_us(tag_hops as f64 * slot_s * 1e6);
            self.probe.inc("relayed_delivered", 1);
            self.probe
                .observe("delivered_snr_db", SNR_BUCKETS_DB, outcome.snr_db);
            self.probe.trace(|| TraceRecord::FlowEnd {
                time_ps: now_ps,
                flow,
                outcome: "relayed",
            });
        } else {
            // Routes terminate at covered nodes by construction, so the
            // only terminal failure mode is a decode miss at the AP.
            self.lifecycle.record_drops(DropReason::DecodeFailure, 1);
            self.probe.trace(|| TraceRecord::FlowEnd {
                time_ps: now_ps,
                flow,
                outcome: "relay_failed",
            });
        }
        self.record_slot(&[origin], false, now_ps, frame, slot);
        Ok(())
    }

    /// Records one resolved slot into the probe: the slot outcome (with
    /// its collision participants), per-node energy draws, and the
    /// occupancy/collision/energy aggregates. Pure copies of
    /// already-computed values — no physics, no randomness, no clock.
    fn record_slot(
        &mut self,
        group: &[usize],
        collided: bool,
        now_ps: TimePs,
        frame: usize,
        slot: usize,
    ) {
        if !self.probe.is_enabled() {
            return;
        }
        let dur_ps = crate::engine::secs_to_ps(self.airtime_s);
        self.probe.trace(|| TraceRecord::Slot {
            time_ps: now_ps,
            frame,
            slot,
            group: group.to_vec(),
            collided,
            dur_ps,
        });
        for &node in group {
            let cumulative_j = self.nodes[node].energy_j;
            self.probe.trace(|| TraceRecord::Energy {
                time_ps: now_ps,
                node,
                cumulative_j,
            });
        }
        self.probe.inc("slots_fired", 1);
        self.probe.inc("attempts", group.len() as u64);
        self.probe
            .observe("slot_occupancy", OCCUPANCY_BUCKETS, group.len() as f64);
        // Every attempt drains the same uplink airtime energy, collided or
        // not — the histogram records the drain per transmitter.
        let energy_per_attempt = self.power.energy_j(NodeActivity::Uplink, self.airtime_s);
        for _ in group {
            self.probe
                .observe("energy_per_attempt_j", ENERGY_BUCKETS_J, energy_per_attempt);
        }
        if collided {
            self.probe.inc("slot_collisions", 1);
            self.probe.inc("collided_packets", group.len() as u64);
        }
    }
}

/// The AP-side MAC coordinator: frames, slot hashing, SDM arbitration.
struct SlotCoordinator {
    me: ActorId,
    plan: SlotPlan,
    frames: usize,
    slot_seed: u64,
    sdm_threshold_db: f64,
}

impl SlotCoordinator {
    /// The nodes that hash into `slot` on `frame`, in index order.
    fn group(&self, n_nodes: usize, frame: usize, slot: usize) -> Vec<usize> {
        (0..n_nodes)
            .filter(|&node| self.plan.slot_for(node, frame, self.slot_seed) == slot)
            .collect()
    }
}

impl<'a> Actor<SlotMedium<'a>, SlotEvent> for SlotCoordinator {
    fn on_event(
        &mut self,
        now_ps: TimePs,
        event: &SlotEvent,
        m: &mut SlotMedium<'a>,
        out: &mut Outbox<SlotEvent>,
    ) -> Result<()> {
        let n = m.net.node_count();
        match *event {
            SlotEvent::FrameStart { frame } => {
                // Direct ALOHA schedules every node exactly once per frame
                // (each hashes into one slot), so the frame offers `n`
                // packets and never leaves one unscheduled — the same
                // accounting the policy coordinator derives from its
                // schedule, which keeps the parity suite's `==` honest.
                m.lifecycle.offer(n as u64);
                let mut occupied: Vec<usize> = (0..n)
                    .map(|node| self.plan.slot_for(node, frame, self.slot_seed))
                    .collect();
                occupied.sort_unstable();
                occupied.dedup();
                for slot in occupied {
                    out.post_at(
                        now_ps + slot as TimePs * self.plan.slot_ps,
                        self.me,
                        SlotEvent::SlotFire { frame, slot },
                    );
                }
                if frame + 1 < self.frames {
                    out.post_at(
                        now_ps + self.plan.frame_ps(),
                        self.me,
                        SlotEvent::FrameStart { frame: frame + 1 },
                    );
                }
            }
            SlotEvent::SlotFire { frame, slot } => {
                // The retained per-slot re-hash (O(nodes × slots) per
                // frame) — the parity reference the hash-once schedule in
                // [`PolicyCoordinator`] is checked against. The direct AP
                // serves instantly: every offered grant is served, which is
                // exactly what the instantaneous pipeline accounts, so the
                // parity suite's `==` covers the service ledger too.
                let group = self.group(n, frame, slot);
                m.service.offered += 1;
                // Same observation points, same values, as the pipeline
                // path under the instantaneous config: the wait is the
                // slot offset from the frame boundary, and the direct AP's
                // service residence is identically zero.
                m.lifecycle.observe_slot_wait_us(
                    (slot as u64 * self.plan.slot_ps) as f64 / 1e6,
                    group.len(),
                );
                m.lifecycle.observe_service_residence_us(0.0, group.len());
                m.fire_slot(&group, self.sdm_threshold_db, now_ps, frame, slot, false)?;
                m.service.served += 1;
            }
            SlotEvent::StageDone { .. } => {
                return Err(MilbackError::Engine(
                    "the direct coordinator runs no pipeline stages".into(),
                ));
            }
            SlotEvent::RelayFire { .. } => {
                return Err(MilbackError::Engine(
                    "the direct coordinator schedules no relays".into(),
                ));
            }
        }
        Ok(())
    }
}

/// A frame's transmission schedule: `(slot, transmitters)` pairs in
/// strictly increasing slot order, transmitters in ascending node order,
/// no empty groups.
pub type FrameSchedule = Vec<(usize, Vec<usize>)>;

/// One granted relay chain for a frame: the route fires inside `slot`,
/// after that slot's direct traffic resolves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayGrant {
    /// Slot within the frame the chain occupies.
    pub slot: usize,
    /// Node indices origin-first, terminal-last (the terminal uplinks to
    /// the AP). At least two nodes — a single-node "route" is a direct
    /// uplink and belongs in the frame schedule instead.
    pub route: Vec<usize>,
}

/// Campaign-wide facts a [`MacPolicy`] consults while scheduling: the
/// network (node geometry and SDM separability), the airtime plan, the
/// campaign length, and the AP's separability threshold.
#[derive(Clone, Copy)]
pub struct MacContext<'a> {
    /// The network being scheduled.
    pub net: &'a Network,
    /// The airtime plan (slots per frame, slot width).
    pub plan: SlotPlan,
    /// Campaign length, frames.
    pub frames: usize,
    /// SDM separability threshold, dB.
    pub sdm_threshold_db: f64,
}

/// An AP-side medium-access policy for slotted campaigns on the
/// discrete-event engine.
///
/// A policy only decides *who transmits when*: at each frame boundary the
/// coordinator asks it for the frame's slot → transmitters schedule, fires
/// the occupied slots on the engine clock, and feeds the collision/served
/// outcome of every slot back. Channel physics, SDM arbitration, and the
/// per-node ledgers are policy-independent
/// ([`Network::run_mac`] shares one serve path across all policies), so
/// reports compare apples-to-apples.
///
/// Implementations in this module: [`SlottedAloha`] (the paper's baseline,
/// bit-exact with [`Network::run_slotted_direct`]), [`BackoffAloha`]
/// (capped exponential backoff after collisions), [`RoundRobinPolling`]
/// (AP-granted reservations, zero collisions), and [`SdmAwareAssignment`]
/// (co-slots only concurrently servable nodes).
pub trait MacPolicy {
    /// Policy name — the label comparison sweeps and CSV rows carry.
    fn name(&self) -> &'static str;

    /// One-time setup before frame 0. The trial RNG stream is available so
    /// a policy can seed deterministic internal state (e.g. per-node
    /// backoff generators); policies that do not draw leave the stream
    /// exactly where a plain campaign expects it.
    fn begin(&mut self, _ctx: &MacContext<'_>, _rng: &mut GaussianSource) {}

    /// The transmission schedule for `frame`.
    fn schedule_frame(&mut self, frame: usize, ctx: &MacContext<'_>) -> FrameSchedule;

    /// Feedback after a slot resolves: `collided` is true when the group
    /// was lost to an unseparable collision.
    fn on_slot_outcome(&mut self, _frame: usize, _slot: usize, _group: &[usize], _collided: bool) {}

    /// Telemetry hook, called once per frame right after
    /// [`schedule_frame`](Self::schedule_frame): the policy may describe
    /// its current decision state (backoff windows, group rotations) into
    /// the probe. Takes `&self`, so recording **cannot** mutate policy
    /// state — the non-perturbation contract holds by construction. The
    /// default records nothing.
    fn record_frame(
        &self,
        _frame: usize,
        _now_ps: TimePs,
        _ctx: &MacContext<'_>,
        _probe: &mut CampaignProbe,
    ) {
    }

    /// The relay chains to grant on `frame`, resolved after each granted
    /// slot's direct traffic. The default grants none — every existing
    /// policy stays direct-only and the coordinator posts no relay
    /// events, which is what keeps relay-disabled runs bit-exact.
    fn relay_frame(&mut self, _frame: usize, _ctx: &MacContext<'_>) -> Vec<RelayGrant> {
        Vec::new()
    }
}

/// One SplitMix64 step: advances `state` and returns the mixed output.
/// The per-node backoff generators and [`SlotPlan::slot_for`] share the
/// same hash family but never the same stream.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes every node passing `contends` into its
/// [`SlotPlan::slot_for`] slot — one hash per node per frame, building the
/// slot → nodes map the coordinator indexes (the retained
/// [`SlotCoordinator::group`] re-hashed every node per occupied slot,
/// O(nodes × slots) per frame with up to
/// [`MAX_SLOTS_PER_FRAME`](crate::protocol::MAX_SLOTS_PER_FRAME) slots).
pub(crate) fn hash_into_slots(
    ctx: &MacContext<'_>,
    frame: usize,
    seed: u64,
    mut contends: impl FnMut(usize) -> bool,
) -> FrameSchedule {
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); ctx.plan.slots_per_frame];
    for node in 0..ctx.net.node_count() {
        if contends(node) {
            buckets[ctx.plan.slot_for(node, frame, seed)].push(node);
        }
    }
    buckets
        .into_iter()
        .enumerate()
        .filter(|(_, g)| !g.is_empty())
        .collect()
}

/// Classic slotted ALOHA behind the [`MacPolicy`] trait: every node
/// contends in its hashed slot every frame, collisions retry implicitly by
/// re-hashing next frame. Bit-exact with the retained pre-trait path
/// ([`Network::run_slotted_direct`]) — the parity suite proves it.
#[derive(Debug, Clone, Copy)]
pub struct SlottedAloha {
    slot_seed: u64,
}

impl SlottedAloha {
    /// Creates the policy over a slot-hash seed.
    pub fn new(slot_seed: u64) -> Self {
        Self { slot_seed }
    }
}

impl MacPolicy for SlottedAloha {
    fn name(&self) -> &'static str {
        "aloha"
    }

    fn schedule_frame(&mut self, frame: usize, ctx: &MacContext<'_>) -> FrameSchedule {
        hash_into_slots(ctx, frame, self.slot_seed, |_| true)
    }
}

/// Per-node backoff state of [`BackoffAloha`].
#[derive(Debug, Clone, Copy)]
struct BackoffState {
    /// Consecutive collisions, capped at the policy's maximum exponent.
    exponent: u32,
    /// Frames left to sit out before contending again.
    defer_frames: u64,
    /// The node's private SplitMix64 draw state.
    rng: u64,
}

/// Slotted ALOHA with capped exponential backoff: after a collision a node
/// sits out a uniformly drawn number of frames in `[0, 2^e)`, where `e`
/// counts its consecutive collisions capped at `max_exponent`; a served
/// slot resets it. Backoff draws come from per-node SplitMix64 generators
/// seeded once from the trial RNG stream in [`MacPolicy::begin`], so the
/// whole campaign stays a pure function of the root seed.
#[derive(Debug, Clone)]
pub struct BackoffAloha {
    slot_seed: u64,
    max_exponent: u32,
    nodes: Vec<BackoffState>,
}

impl BackoffAloha {
    /// Creates the policy; `max_exponent` caps the contention window at
    /// `2^max_exponent` frames.
    pub fn new(slot_seed: u64, max_exponent: u32) -> Self {
        assert!(max_exponent < 63, "backoff window must fit a u64");
        Self {
            slot_seed,
            max_exponent,
            nodes: Vec::new(),
        }
    }
}

impl MacPolicy for BackoffAloha {
    fn name(&self) -> &'static str {
        "backoff"
    }

    fn begin(&mut self, ctx: &MacContext<'_>, rng: &mut GaussianSource) {
        let base = u64::from_le_bytes(rng.bytes(8).try_into().expect("eight bytes"));
        self.nodes = (0..ctx.net.node_count())
            .map(|idx| BackoffState {
                exponent: 0,
                defer_frames: 0,
                rng: base ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            })
            .collect();
    }

    fn schedule_frame(&mut self, frame: usize, ctx: &MacContext<'_>) -> FrameSchedule {
        let nodes = &mut self.nodes;
        hash_into_slots(ctx, frame, self.slot_seed, |idx| {
            let st = &mut nodes[idx];
            if st.defer_frames > 0 {
                st.defer_frames -= 1;
                false
            } else {
                true
            }
        })
    }

    fn on_slot_outcome(&mut self, _frame: usize, _slot: usize, group: &[usize], collided: bool) {
        for &node in group {
            let st = &mut self.nodes[node];
            if collided {
                st.exponent = (st.exponent + 1).min(self.max_exponent);
                let window = 1u64 << st.exponent;
                st.defer_frames = splitmix64(&mut st.rng) % window;
            } else {
                st.exponent = 0;
                st.defer_frames = 0;
            }
        }
    }

    fn record_frame(
        &self,
        _frame: usize,
        now_ps: TimePs,
        _ctx: &MacContext<'_>,
        probe: &mut CampaignProbe,
    ) {
        // Contention windows as of this frame boundary: a node with a
        // non-zero exponent is inside a `2^e`-frame window; one still
        // deferring sat this frame out.
        for (node, st) in self.nodes.iter().enumerate() {
            if st.exponent == 0 {
                continue;
            }
            let window_frames = 1u64 << st.exponent;
            probe.observe(
                "backoff_window_frames",
                BACKOFF_BUCKETS_FRAMES,
                window_frames as f64,
            );
            if st.defer_frames > 0 {
                probe.inc("backoff_deferrals", 1);
                probe.trace(|| TraceRecord::Backoff {
                    time_ps: now_ps,
                    node,
                    window_frames,
                });
            }
        }
    }
}

/// AP-driven reservation/polling: the AP grants slots round-robin over the
/// registered nodes, one node per slot — zero collisions by construction,
/// at the cost of per-node service latency that grows with the cell (a
/// node holds the channel only every ⌈nodes/slots⌉ frames once the cell
/// outgrows a frame).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinPolling {
    cursor: usize,
}

impl RoundRobinPolling {
    /// Creates the policy; polling starts at node 0.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MacPolicy for RoundRobinPolling {
    fn name(&self) -> &'static str {
        "polling"
    }

    fn schedule_frame(&mut self, _frame: usize, ctx: &MacContext<'_>) -> FrameSchedule {
        let n = ctx.net.node_count();
        (0..ctx.plan.slots_per_frame)
            .map(|slot| {
                let node = self.cursor;
                self.cursor = (self.cursor + 1) % n;
                (slot, vec![node])
            })
            .collect()
    }
}

/// SDM-aware slot assignment: the AP partitions the nodes into mutually
/// separable groups (greedy first-fit over [`Network::sdm_separable`]) and
/// grants groups to slots round-robin across the campaign. Every
/// co-slotted pair passes the separability check, so every slot is
/// concurrently servable and the campaign is collision-free by
/// construction; when the geometry needs more groups than a frame has
/// slots the cost shows up as latency (each group waits its turn), never
/// as collisions. The scene is static over a campaign, so the partition is
/// computed once in [`MacPolicy::begin`] and rotated every frame.
#[derive(Debug, Clone, Default)]
pub struct SdmAwareAssignment {
    groups: Vec<Vec<usize>>,
}

impl SdmAwareAssignment {
    /// Creates the policy; the group partition is derived from the scene
    /// when the campaign begins.
    pub fn new() -> Self {
        Self::default()
    }

    /// The mutually separable groups the scene partitioned into (empty
    /// before [`MacPolicy::begin`]).
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }
}

impl MacPolicy for SdmAwareAssignment {
    fn name(&self) -> &'static str {
        "sdm"
    }

    fn begin(&mut self, ctx: &MacContext<'_>, _rng: &mut GaussianSource) {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        // Each node's azimuth once, not twice per pair compared.
        let azimuths: Vec<f64> = (0..ctx.net.node_count())
            .map(|node| ctx.net.node_azimuth(node))
            .collect();
        for (node, &azimuth) in azimuths.iter().enumerate() {
            let fit = groups.iter_mut().find(|g| {
                g.iter().all(|&m| {
                    Network::margin_from_azimuths(azimuth, azimuths[m]) >= ctx.sdm_threshold_db
                })
            });
            match fit {
                Some(g) => g.push(node),
                None => groups.push(vec![node]),
            }
        }
        self.groups = groups;
    }

    fn schedule_frame(&mut self, frame: usize, ctx: &MacContext<'_>) -> FrameSchedule {
        if self.groups.is_empty() {
            return Vec::new();
        }
        let slots = ctx.plan.slots_per_frame;
        (0..slots)
            .map(|slot| {
                let g = (frame * slots + slot) % self.groups.len();
                (slot, self.groups[g].clone())
            })
            .collect()
    }

    fn record_frame(
        &self,
        frame: usize,
        now_ps: TimePs,
        ctx: &MacContext<'_>,
        probe: &mut CampaignProbe,
    ) {
        if self.groups.is_empty() {
            return;
        }
        // The rotation this frame grants: same arithmetic as
        // `schedule_frame`, re-derived read-only.
        let slots = ctx.plan.slots_per_frame;
        for slot in 0..slots {
            let group_idx = (frame * slots + slot) % self.groups.len();
            probe.inc("sdm_rotations", 1);
            probe.trace(|| TraceRecord::SdmRotation {
                time_ps: now_ps,
                frame,
                group_idx,
                group_size: self.groups[group_idx].len(),
            });
        }
    }
}

/// One granted slot flowing through the AP service pipeline: the slot's
/// identity, its transmitter group (cloned out of the frame schedule at
/// grant time, so the job survives frame rollover while queued), and
/// whether an overflowing queue degraded its plan.
#[derive(Debug, Clone)]
struct SlotJob {
    frame: usize,
    slot: usize,
    group: Vec<usize>,
    degraded: bool,
    /// Engine time the grant entered the pipeline (its `SlotFire`
    /// instant), so Transmit completion can ledger the job's service
    /// residence without re-deriving the grant schedule.
    offered_ps: TimePs,
}

/// One serial AP service stage: at most one job in service (its
/// completion event is in flight) plus a FIFO of waiters.
#[derive(Debug, Default)]
struct StageState {
    current: Option<SlotJob>,
    queue: VecDeque<SlotJob>,
}

impl StageState {
    /// Jobs held by the stage: the one in service plus the waiters.
    fn occupancy(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }
}

/// The generic MAC coordinator: drives any [`MacPolicy`] over the same
/// frame/slot event timeline as the retained [`SlotCoordinator`], asking
/// the policy for each frame's schedule once at the frame boundary.
///
/// Unlike the direct coordinator, a granted slot is not served inside its
/// [`SlotEvent::SlotFire`] dispatch: the grant becomes a [`SlotJob`] that
/// walks the **Capture → Plan → Transmit** service stages, each a serial
/// server with its own latency ([`ApServiceConfig`]) and bounded FIFO.
/// The transmission physics run at Transmit completion. Under
/// [`ApServiceConfig::instantaneous`] every stage completes at the grant
/// instant (engine `seq` order keeps the chain ahead of any later-time
/// event), so slots fire in exactly the pre-pipeline order and the trial
/// RNG stream is consumed identically — the parity suite proves
/// bit-exactness against [`SlotCoordinator`].
struct PolicyCoordinator {
    me: ActorId,
    plan: SlotPlan,
    frames: usize,
    sdm_threshold_db: f64,
    policy: Box<dyn MacPolicy>,
    /// The current frame's schedule. Safe to hold per frame: every slot of
    /// frame `f` fires strictly before `FrameStart { f + 1 }` (the last
    /// slot starts one slot-width before the frame boundary). Queued
    /// [`SlotJob`]s own clones of their groups, so a backlogged pipeline
    /// is unaffected by rollover.
    schedule: FrameSchedule,
    /// The AP service pipeline configuration.
    service: ApServiceConfig,
    /// The campaign's relay configuration (coverage model and chain
    /// parameters). Disabled by default: no grants, no relay events.
    relay: RelayConfig,
    /// The current frame's granted relay chains, indexed by the
    /// [`SlotEvent::RelayFire`] events posted at the frame boundary.
    relay_schedule: Vec<RelayGrant>,
    /// Stage states, indexed by [`StageKind`] discriminant.
    stages: [StageState; 3],
    /// SplitMix64 jitter state, seeded once from the trial stream —
    /// `None` when `jitter_ps == 0` (nothing was drawn).
    jitter_state: Option<u64>,
}

impl PolicyCoordinator {
    /// Offers a job to `stage`: starts it if the stage is idle, otherwise
    /// queues it subject to the configured bound and overflow policy.
    /// Queue occupancy is observed at every offer, so the histograms see
    /// the arrival-time depths that admission decisions are made against.
    fn offer_stage(
        &mut self,
        stage: StageKind,
        mut job: SlotJob,
        now_ps: TimePs,
        m: &mut SlotMedium<'_>,
        out: &mut Outbox<SlotEvent>,
    ) {
        let idx = stage as usize;
        m.probe.observe(
            stage.occupancy_metric(),
            OCCUPANCY_BUCKETS,
            self.stages[idx].occupancy() as f64,
        );
        if self.stages[idx].current.is_none() {
            self.start_stage(stage, job, now_ps, m, out);
            return;
        }
        if let Some(cap) = self.service.queue_capacity {
            if self.stages[idx].queue.len() >= cap {
                match self.service.overflow {
                    OverflowPolicy::Drop => {
                        m.service.dropped += 1;
                        m.probe.inc("ap_dropped", 1);
                        // The whole group dies with the shed grant; the
                        // ledger records which stage's queue was full.
                        m.lifecycle.record_drops(
                            DropReason::ServiceShed {
                                stage,
                                policy: OverflowPolicy::Drop,
                            },
                            job.group.len() as u64,
                        );
                        m.probe.trace(|| TraceRecord::FlowEnd {
                            time_ps: now_ps,
                            flow: PacketId::direct(job.frame, job.slot).raw(),
                            outcome: "shed",
                        });
                        return;
                    }
                    OverflowPolicy::Defer => {
                        m.service.deferred += 1;
                        m.probe.inc("ap_deferred", 1);
                    }
                    OverflowPolicy::Degrade => {
                        if !job.degraded {
                            job.degraded = true;
                            m.service.degraded += 1;
                            m.probe.inc("ap_degraded", 1);
                        }
                    }
                }
            }
        }
        self.stages[idx].queue.push_back(job);
    }

    /// Puts a job in service at an idle `stage` and posts its completion:
    /// base stage latency (a degraded job's Plan costs nothing) plus a
    /// uniform SplitMix64 jitter draw when jitter is configured.
    fn start_stage(
        &mut self,
        stage: StageKind,
        job: SlotJob,
        now_ps: TimePs,
        m: &mut SlotMedium<'_>,
        out: &mut Outbox<SlotEvent>,
    ) {
        let base_ps = if job.degraded && stage == StageKind::Plan {
            0
        } else {
            self.service.stage_latency_ps(stage)
        };
        let jitter_ps = match &mut self.jitter_state {
            Some(state) => splitmix64(state) % (self.service.jitter_ps + 1),
            None => 0,
        };
        let dur_ps = base_ps + jitter_ps;
        // The job's service span, tagged with its packet flow id so the
        // exported trace links Capture → Plan → Transmit → outcome as one
        // Perfetto flow. The duration is the already-drawn completion
        // offset — copying it records nothing the engine won't replay.
        m.probe.trace(|| TraceRecord::Stage {
            time_ps: now_ps,
            stage: stage.label(),
            flow: PacketId::direct(job.frame, job.slot).raw(),
            dur_ps,
        });
        self.stages[stage as usize].current = Some(job);
        out.post_at(now_ps + dur_ps, self.me, SlotEvent::StageDone { stage });
    }
}

impl<'a> Actor<SlotMedium<'a>, SlotEvent> for PolicyCoordinator {
    fn on_event(
        &mut self,
        now_ps: TimePs,
        event: &SlotEvent,
        m: &mut SlotMedium<'a>,
        out: &mut Outbox<SlotEvent>,
    ) -> Result<()> {
        match *event {
            SlotEvent::FrameStart { frame } => {
                let ctx = MacContext {
                    net: m.net,
                    plan: self.plan,
                    frames: self.frames,
                    sdm_threshold_db: self.sdm_threshold_db,
                };
                self.schedule = self.policy.schedule_frame(frame, &ctx);
                m.probe.inc("frames", 1);
                self.policy.record_frame(frame, now_ps, &ctx, &mut m.probe);
                debug_assert!(
                    self.schedule.windows(2).all(|w| w[0].0 < w[1].0),
                    "schedule slots must be strictly increasing"
                );
                for &(slot, ref group) in &self.schedule {
                    debug_assert!(slot < self.plan.slots_per_frame, "slot beyond the plan");
                    if group.is_empty() {
                        continue;
                    }
                    out.post_at(
                        now_ps + slot as TimePs * self.plan.slot_ps,
                        self.me,
                        SlotEvent::SlotFire { frame, slot },
                    );
                }
                // Relay grants post after the direct slots, so the
                // engine's (time, seq) order resolves a chain sharing a
                // slot instant with direct traffic at a fixed, posting-
                // determined position — the RNG draw order is a pure
                // function of the schedule at any thread count. A policy
                // granting no relays posts nothing here, which is what
                // keeps relay-disabled runs bit-exact with the pre-relay
                // path.
                self.relay_schedule = self.policy.relay_frame(frame, &ctx);
                for (grant, g) in self.relay_schedule.iter().enumerate() {
                    debug_assert!(g.slot < self.plan.slots_per_frame, "slot beyond the plan");
                    out.post_at(
                        now_ps + g.slot as TimePs * self.plan.slot_ps,
                        self.me,
                        SlotEvent::RelayFire { frame, grant },
                    );
                }
                // Lifecycle offers: one packet per scheduled transmitter
                // appearance, one per granted relay chain, and one per
                // node this frame left entirely unscheduled (backoff
                // deferral, polling rotation, waiting SDM group) — the
                // last resolve immediately as `NeverScheduled`, so every
                // offered packet reaches exactly one terminal outcome.
                // Integer bookkeeping over the already-built schedules:
                // no RNG, no clock.
                #[cfg(feature = "telemetry")]
                {
                    let mut scheduled = vec![false; m.net.node_count()];
                    let mut direct = 0u64;
                    for (_, group) in &self.schedule {
                        direct += group.len() as u64;
                        for &node in group {
                            scheduled[node] = true;
                        }
                    }
                    for g in &self.relay_schedule {
                        if let Some(&origin) = g.route.first() {
                            scheduled[origin] = true;
                        }
                    }
                    let never = scheduled.iter().filter(|&&s| !s).count() as u64;
                    m.lifecycle
                        .offer(direct + self.relay_schedule.len() as u64 + never);
                    m.lifecycle.record_drops(DropReason::NeverScheduled, never);
                }
                if frame + 1 < self.frames {
                    out.post_at(
                        now_ps + self.plan.frame_ps(),
                        self.me,
                        SlotEvent::FrameStart { frame: frame + 1 },
                    );
                }
            }
            SlotEvent::SlotFire { frame, slot } => {
                let idx = self
                    .schedule
                    .binary_search_by_key(&slot, |e| e.0)
                    .map_err(|_| {
                        MilbackError::Engine(format!(
                            "slot {slot} of frame {frame} fired without a schedule entry"
                        ))
                    })?;
                let job = SlotJob {
                    frame,
                    slot,
                    group: self.schedule[idx].1.clone(),
                    degraded: false,
                    offered_ps: now_ps,
                };
                m.service.offered += 1;
                m.probe.inc("ap_offered", 1);
                // Every member of the group waited from the frame
                // boundary to this slot's airtime.
                m.lifecycle.observe_slot_wait_us(
                    (slot as u64 * self.plan.slot_ps) as f64 / 1e6,
                    job.group.len(),
                );
                self.offer_stage(StageKind::Capture, job, now_ps, m, out);
            }
            SlotEvent::StageDone { stage } => {
                let job = self.stages[stage as usize].current.take().ok_or_else(|| {
                    MilbackError::Engine(format!(
                        "{} completed with no job in service",
                        stage.label()
                    ))
                })?;
                // The finished job cascades downstream before this stage
                // admits its next waiter, so same-instant chains complete
                // in pipeline order.
                match stage.next() {
                    Some(next) => self.offer_stage(next, job, now_ps, m, out),
                    None => {
                        // Transmit completion: the job is about to reach
                        // the channel, so its pipeline residence ends
                        // here. Identically zero under the instantaneous
                        // config — what the direct coordinator observes.
                        m.lifecycle.observe_service_residence_us(
                            (now_ps - job.offered_ps) as f64 / 1e6,
                            job.group.len(),
                        );
                        let collided = m.fire_slot(
                            &job.group,
                            self.sdm_threshold_db,
                            now_ps,
                            job.frame,
                            job.slot,
                            job.degraded,
                        )?;
                        m.service.served += 1;
                        m.probe.inc("ap_served", 1);
                        self.policy
                            .on_slot_outcome(job.frame, job.slot, &job.group, collided);
                    }
                }
                if let Some(next_job) = self.stages[stage as usize].queue.pop_front() {
                    self.start_stage(stage, next_job, now_ps, m, out);
                }
            }
            SlotEvent::RelayFire { frame, grant } => {
                // Relay chains are tag-side transmissions: they never enter
                // the AP's Capture/Plan/Transmit pipeline, so the service
                // ledger stays exactly what the direct traffic produced.
                let g = self.relay_schedule.get(grant).ok_or_else(|| {
                    MilbackError::Engine(format!(
                        "relay grant {grant} of frame {frame} fired without a schedule entry"
                    ))
                })?;
                m.fire_relay(
                    &g.route,
                    self.relay.hop_snr_penalty_db,
                    ps_to_secs(self.plan.slot_ps),
                    now_ps,
                    frame,
                    g.slot,
                )?;
            }
        }
        Ok(())
    }
}

/// A per-node Doppler signature for simultaneous multi-node localization:
/// node `k` toggles with period `2·(k+1)` chirps, landing its echo at
/// Doppler row `N / (2·(k+1))` of an N-chirp range–Doppler map — every
/// node separable in one capture, Millimetro-style, without beam
/// scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DopplerSignature {
    /// Toggle period in chirps (even, ≥ 2).
    pub period_chirps: usize,
}

impl DopplerSignature {
    /// The signature assigned to node index `idx`.
    pub fn for_node(idx: usize) -> Self {
        Self {
            period_chirps: 2 * (idx + 1),
        }
    }

    /// The node's state (reflective?) on chirp `k`.
    pub fn reflective_on(&self, chirp: usize) -> bool {
        (chirp / (self.period_chirps / 2)).is_multiple_of(2)
    }

    /// The Doppler row this signature concentrates in, for an `n_chirps`
    /// capture. Requires `n_chirps % period == 0` for an exact bin.
    pub fn doppler_row(&self, n_chirps: usize) -> usize {
        n_chirps / self.period_chirps
    }

    /// Whether an `n_chirps` capture resolves this signature exactly.
    pub fn resolved_by(&self, n_chirps: usize) -> bool {
        n_chirps.is_multiple_of(self.period_chirps)
    }
}

/// Simultaneously localizes every node of a scene from ONE `n_chirps`
/// capture: each node toggles with its own [`DopplerSignature`], the AP
/// builds a range–Doppler map and reads each node's range at its assigned
/// Doppler row. Returns `(node_idx, range_m)` per node found.
///
/// This goes beyond the paper's one-node-at-a-time localization (§7 only
/// sketches SDM for *communication*); it composes the same primitives —
/// toggling modulation and chirp trains — into a single-shot multi-node
/// ranging mode. Static clutter is not synthesized here: it concentrates
/// in the zero-Doppler row and never reaches the signature rows this
/// reader consults (the single-node pipeline's tests cover clutter
/// rejection).
pub fn localize_all_doppler(
    network: &Network,
    n_chirps: usize,
    rng: &mut GaussianSource,
) -> Result<Vec<(usize, f64)>> {
    use milback_ap::doppler::DopplerProcessor;
    use milback_ap::fmcw::FmcwProcessor;
    use mmwave_rf::antenna::Antenna;
    use mmwave_rf::channel::{backscatter_amplitude_sqrt_w, synthesize_beat, Echo};
    use mmwave_sigproc::units::{dbm_to_watts, noise_power_watts};

    let n_nodes = network.node_count();
    for idx in 0..n_nodes {
        let sig = DopplerSignature::for_node(idx);
        if !sig.resolved_by(n_chirps) {
            return Err(MilbackError::Config(format!(
                "{n_chirps} chirps cannot resolve node {idx}'s period-{} signature",
                sig.period_chirps
            )));
        }
    }
    let config = &network.config;
    let proc = FmcwProcessor::new(config.fmcw.field2_chirp(), config.ap.rx1.digitizer_rate_hz);
    let chirp = proc.chirp;
    let horn = mmwave_rf::antenna::Horn::miwave_20dbi();
    let tx_w = dbm_to_watts(config.ap.tx.port_power_dbm());
    let impl_amp = db_to_lin(-config.ap.rx1.chain.implementation_loss_db).sqrt();
    let gamma_r = config.node.reflection_amplitude(
        mmwave_rf::antenna::fsa::FsaPort::A,
        milback_node::mode::PortMode::Reflective,
    );
    let gamma_a = config.node.reflection_amplitude(
        mmwave_rf::antenna::fsa::FsaPort::A,
        milback_node::mode::PortMode::Absorptive,
    );
    let noise_w = noise_power_watts(
        proc.sample_rate_hz / 2.0,
        config.ap.rx1.chain.noise_figure_db(),
    );
    // For multi-node ranging the AP widens its beam (or sweeps); model a
    // broad illumination by evaluating the horn at each node's azimuth.
    let beats: Vec<Vec<mmwave_sigproc::Complex>> = (0..n_chirps)
        .map(|k| {
            let echoes: Vec<Echo<'_>> = (0..n_nodes)
                .map(|idx| {
                    let gt = network.scene.ground_truth(idx);
                    let g = db_to_lin(horn.gain_dbi(chirp.center_hz(), gt.azimuth_rad));
                    let g_node = config.node.fsa.gain_linear(
                        mmwave_rf::antenna::fsa::FsaPort::A,
                        config
                            .node
                            .fsa
                            .design
                            .frequency_for_angle(
                                mmwave_rf::antenna::fsa::FsaPort::A,
                                gt.incidence_rad,
                            )
                            .unwrap_or(chirp.center_hz()),
                        gt.incidence_rad,
                    );
                    let sig = DopplerSignature::for_node(idx);
                    let gamma = if sig.reflective_on(k) {
                        gamma_r
                    } else {
                        gamma_a
                    };
                    let amp = backscatter_amplitude_sqrt_w(
                        tx_w,
                        g,
                        g,
                        g_node * g_node,
                        gamma,
                        chirp.center_hz(),
                        gt.range_m,
                    ) * impl_amp;
                    Echo::constant(gt.range_m, amp)
                })
                .collect();
            let mut b = synthesize_beat(&chirp, &echoes, proc.sample_rate_hz);
            rng.add_complex_noise(&mut b, noise_w);
            b
        })
        .collect();
    let dp = DopplerProcessor::milback_default();
    let rd = dp
        .range_doppler(&proc, &beats)
        .map_err(MilbackError::Fmcw)?;
    let mut fixes = Vec::with_capacity(n_nodes);
    for idx in 0..n_nodes {
        let row = DopplerSignature::for_node(idx).doppler_row(n_chirps);
        if let Some((pos, _)) = rd.row_peak(row) {
            fixes.push((idx, proc.bin_to_range_m(pos)));
        }
    }
    Ok(fixes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_network(sep_deg: f64) -> Network {
        let scene = Scene::single_node(4.0, 12f64.to_radians()).with_node_at(
            4.0,
            sep_deg.to_radians(),
            12f64.to_radians(),
        );
        Network::new(SystemConfig::milback_default(), scene).unwrap()
    }

    #[test]
    fn well_separated_nodes_are_sdm_separable() {
        let n = two_node_network(40.0);
        assert!(
            n.sdm_separable(0, 1, 20.0),
            "margin {:.1}",
            n.sdm_margin_db(0, 1)
        );
    }

    #[test]
    fn close_nodes_are_not_separable() {
        let n = two_node_network(5.0);
        assert!(!n.sdm_separable(0, 1, 20.0));
    }

    #[test]
    fn margin_grows_with_separation() {
        let near = two_node_network(8.0).sdm_margin_db(0, 1);
        let far = two_node_network(30.0).sdm_margin_db(0, 1);
        assert!(far > near);
    }

    #[test]
    fn uplink_round_serves_all_nodes() {
        let n = two_node_network(40.0);
        let mut rng = GaussianSource::new(5);
        let payloads = vec![vec![0xAA, 0x55], vec![0x0F, 0xF0]];
        let reports = n.uplink_round(&payloads, &mut rng).unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].outcome.decoded, payloads[0]);
        assert_eq!(reports[1].outcome.decoded, payloads[1]);
        assert!(reports[0].sdm_margin_db > 20.0);
    }

    #[test]
    fn interference_lowers_effective_snr_for_close_nodes() {
        let mut rng1 = GaussianSource::new(6);
        let mut rng2 = GaussianSource::new(6);
        let payloads = vec![vec![1u8; 64], vec![2u8; 64]];
        let far = two_node_network(40.0)
            .uplink_round(&payloads, &mut rng1)
            .unwrap();
        let near = two_node_network(4.0)
            .uplink_round(&payloads, &mut rng2)
            .unwrap();
        assert!(
            near[0].outcome.snr_db < far[0].outcome.snr_db,
            "near {:.1} dB !< far {:.1} dB",
            near[0].outcome.snr_db,
            far[0].outcome.snr_db
        );
    }

    #[test]
    fn slotted_run_delivers_separable_nodes() {
        use crate::protocol::SlotPlan;
        let n = two_node_network(40.0);
        let packet = Packet::uplink(vec![0x42; 16]);
        let plan = SlotPlan::for_packet(
            4,
            &packet,
            &n.config.fmcw,
            n.config.uplink_symbol_rate_hz,
            10e-6,
        )
        .unwrap();
        let mut rng = GaussianSource::new(0x510);
        let r = n
            .run_mac(
                Box::new(SlottedAloha::new(0xFEED)),
                6,
                &[0x42; 16],
                &plan,
                20.0,
                &mut rng,
            )
            .unwrap();
        assert_eq!(r.frames, 6);
        assert_eq!(r.nodes.len(), 2);
        for node in &r.nodes {
            assert_eq!(node.attempts, 6, "one attempt per frame");
            assert_eq!(node.attempts, node.delivered + node.collisions);
            assert!(node.delivered > 0, "node {} never delivered", node.node_idx);
            assert!(node.energy_j > 0.0);
        }
        // Goodput and energy-per-packet roll-ups are present and positive.
        assert!(r.goodput_bps(0) > 0.0);
        assert!(r.energy_per_packet_j(0).unwrap() > 0.0);
        assert!(r.nodes[0].mean_snr_db.unwrap() > 0.0);
        assert!(r.elapsed_s() > 0.0);
    }

    #[test]
    fn slotted_run_is_deterministic() {
        use crate::protocol::SlotPlan;
        let run = || {
            let n = two_node_network(35.0);
            let packet = Packet::uplink(vec![7u8; 8]);
            let plan = SlotPlan::for_packet(
                2,
                &packet,
                &n.config.fmcw,
                n.config.uplink_symbol_rate_hz,
                5e-6,
            )
            .unwrap();
            let mut rng = GaussianSource::new(0xABCD);
            n.run_mac(
                Box::new(SlottedAloha::new(1)),
                4,
                &[7u8; 8],
                &plan,
                20.0,
                &mut rng,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn close_nodes_collide_in_shared_slots() {
        use crate::protocol::SlotPlan;
        // Nodes 5° apart are not SDM-separable at 20 dB: every shared slot
        // must be a collision, every private slot a delivery.
        let n = two_node_network(5.0);
        let packet = Packet::uplink(vec![0x42; 16]);
        let plan = SlotPlan::for_packet(
            2,
            &packet,
            &n.config.fmcw,
            n.config.uplink_symbol_rate_hz,
            5e-6,
        )
        .unwrap();
        let mut rng = GaussianSource::new(0xC0);
        let r = n
            .run_mac(
                Box::new(SlottedAloha::new(3)),
                12,
                &[0x42; 16],
                &plan,
                20.0,
                &mut rng,
            )
            .unwrap();
        let shared: usize = (0..12)
            .filter(|&f| plan.slot_for(0, f, 3) == plan.slot_for(1, f, 3))
            .count();
        assert!(shared > 0, "seed should produce at least one shared slot");
        for node in &r.nodes {
            assert_eq!(node.collisions, shared);
            assert_eq!(node.delivered, 12 - shared);
        }
    }

    #[test]
    fn slotted_rejects_oversized_packets() {
        use crate::protocol::SlotPlan;
        let n = two_node_network(30.0);
        let small = Packet::uplink(vec![0u8; 2]);
        let plan = SlotPlan::for_packet(
            2,
            &small,
            &n.config.fmcw,
            n.config.uplink_symbol_rate_hz,
            0.0,
        )
        .unwrap();
        let mut rng = GaussianSource::new(1);
        // A much larger payload does not fit the 2-byte slots.
        assert!(n
            .run_mac(
                Box::new(SlottedAloha::new(0)),
                1,
                &[0u8; 4096],
                &plan,
                20.0,
                &mut rng
            )
            .is_err());
    }

    #[test]
    fn slotted_rejects_hand_built_plans_of_bad_shape() {
        use crate::protocol::{SlotPlan, MAX_SLOTS_PER_FRAME};
        let n = two_node_network(30.0);
        let payload = [0u8; 2];
        let slot_ps = SlotPlan::for_packet(
            2,
            &Packet::uplink(payload.to_vec()),
            &n.config.fmcw,
            n.config.uplink_symbol_rate_hz,
            0.0,
        )
        .unwrap()
        .slot_ps;
        // The fields are public, so these skip `for_packet`'s checks.
        for slots_per_frame in [0, MAX_SLOTS_PER_FRAME + 1] {
            let plan = SlotPlan {
                slots_per_frame,
                slot_ps,
            };
            let mut rng = GaussianSource::new(1);
            let err = n
                .run_mac(
                    Box::new(SlottedAloha::new(0)),
                    2,
                    &payload,
                    &plan,
                    20.0,
                    &mut rng,
                )
                .unwrap_err();
            assert!(matches!(err, MilbackError::Config(_)), "run_mac: {err}");
            let err = n
                .run_sharded_mac_relay(
                    1,
                    1,
                    7,
                    2,
                    &payload,
                    &plan,
                    20.0,
                    &ApServiceConfig::instantaneous(),
                    &RelayConfig::disabled(),
                    |_, s| Box::new(SlottedAloha::new(s)),
                )
                .unwrap_err();
            assert!(
                matches!(err, MilbackError::Config(_)),
                "run_sharded_mac_relay: {err}"
            );
        }
    }

    #[test]
    fn payload_count_mismatch_rejected() {
        let n = two_node_network(30.0);
        let mut rng = GaussianSource::new(7);
        assert!(n.uplink_round(&[vec![1]], &mut rng).is_err());
    }

    #[test]
    fn single_node_network_has_infinite_margin() {
        let scene = Scene::single_node(3.0, 12f64.to_radians());
        let n = Network::new(SystemConfig::milback_default(), scene).unwrap();
        let mut rng = GaussianSource::new(8);
        let r = n.uplink_round(&[vec![7, 8, 9]], &mut rng).unwrap();
        assert_eq!(r[0].outcome.decoded, vec![7, 8, 9]);
        assert_eq!(r[0].sdm_margin_db, f64::MAX);
    }

    #[test]
    #[should_panic(expected = "does not interfere with itself")]
    fn self_margin_panics() {
        two_node_network(30.0).sdm_margin_db(0, 0);
    }

    #[test]
    fn doppler_signatures_are_distinct_rows() {
        let n_chirps = 24;
        let rows: Vec<usize> = (0..3)
            .map(|i| DopplerSignature::for_node(i).doppler_row(n_chirps))
            .collect();
        // Node 0: period 2 → row 12 (Nyquist); node 1: period 4 → row 6;
        // node 2: period 6 → row 4.
        assert_eq!(rows, vec![12, 6, 4]);
        let mut sorted = rows.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), rows.len(), "rows must be distinct");
    }

    #[test]
    fn signature_toggle_pattern() {
        let s = DopplerSignature::for_node(1); // period 4
        let pattern: Vec<bool> = (0..8).map(|k| s.reflective_on(k)).collect();
        assert_eq!(
            pattern,
            vec![true, true, false, false, true, true, false, false]
        );
        assert!(s.resolved_by(8));
        assert!(!s.resolved_by(6));
    }

    #[test]
    fn localize_all_ranges_three_nodes_in_one_capture() {
        let scene = Scene::single_node(3.0, 12f64.to_radians())
            .with_node_at(5.0, 0.15, 0.2)
            .with_node_at(7.0, -0.12, -0.15);
        let network = Network::new(SystemConfig::milback_default(), scene).unwrap();
        let mut rng = GaussianSource::new(42);
        let fixes = localize_all_doppler(&network, 24, &mut rng).unwrap();
        assert_eq!(fixes.len(), 3);
        let expected = [3.0, 5.0, 7.0];
        for &(idx, range) in &fixes {
            assert!(
                (range - expected[idx]).abs() < 0.1,
                "node {idx}: {range:.3} m (expected {})",
                expected[idx]
            );
        }
    }

    fn plan_for(n: &Network, slots: usize, payload: &[u8]) -> SlotPlan {
        SlotPlan::for_packet(
            slots,
            &Packet::uplink(payload.to_vec()),
            &n.config.fmcw,
            n.config.uplink_symbol_rate_hz,
            5e-6,
        )
        .unwrap()
    }

    fn mac_context<'a>(n: &'a Network, plan: &SlotPlan, frames: usize) -> MacContext<'a> {
        MacContext {
            net: n,
            plan: *plan,
            frames,
            sdm_threshold_db: 20.0,
        }
    }

    #[test]
    fn reused_campaign_scratch_matches_fresh_scratch_bit_for_bit() {
        // Campaign A (6 SDM-grouped nodes), then B (3 nodes, ALOHA, a
        // different payload of the same length), then A again, all on
        // one scratch: a stale bit plane, decoded byte or memoized
        // azimuth from the previous campaign would show up here.
        let sector = |n: usize, step_deg: f64| {
            let mut scene = Scene::single_node(4.0, 12f64.to_radians());
            for k in 1..n {
                scene = scene.with_node_at(
                    4.0 + 0.3 * k as f64,
                    (k as f64 * step_deg - 20.0).to_radians(),
                    12f64.to_radians(),
                );
            }
            Network::new(SystemConfig::milback_default(), scene).unwrap()
        };
        let (net_a, net_b) = (sector(6, 9.0), sector(3, 23.0));
        let payload_a: Vec<u8> = (0..16).map(|i| (i * 37 + 5) as u8).collect();
        let payload_b: Vec<u8> = (0..16).map(|i| (i * 11 + 200) as u8).collect();
        let run = |net: &Network, payload: &[u8], sdm: bool, scratch: &mut CampaignScratch| {
            let policy: Box<dyn MacPolicy> = if sdm {
                Box::new(SdmAwareAssignment::new())
            } else {
                Box::new(SlottedAloha::new(3))
            };
            let mut agg = CampaignAggregate::new();
            let mut rng = GaussianSource::new(0x5C4A);
            net.run_mac_streaming_relay_service(
                policy,
                5,
                payload,
                &plan_for(net, 4, payload),
                20.0,
                &mut rng,
                &ApServiceConfig::instantaneous(),
                &RelayConfig::disabled(),
                scratch,
                &mut agg,
            )
            .unwrap();
            (agg, rng.sample(1.0).to_bits())
        };
        let fresh_a = run(&net_a, &payload_a, true, &mut CampaignScratch::new());
        let fresh_b = run(&net_b, &payload_b, false, &mut CampaignScratch::new());
        assert!(fresh_a.0.delivered > 0 && fresh_b.0.delivered > 0);
        let mut scratch = CampaignScratch::new();
        for (net, payload, sdm, fresh) in [
            (&net_a, &payload_a[..], true, &fresh_a),
            (&net_b, &payload_b[..], false, &fresh_b),
            (&net_a, &payload_a[..], true, &fresh_a),
        ] {
            let reused = run(net, payload, sdm, &mut scratch);
            assert_eq!(&reused, fresh);
            for (got, want) in [
                (reused.0.snr_sum_db, fresh.0.snr_sum_db),
                (reused.0.energy_j, fresh.0.energy_j),
            ] {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn memoized_sdm_margins_equal_the_direct_form() {
        let net = two_node_network(25.0).scene.with_node_at(5.0, -0.4, 0.2);
        let net = Network::new(SystemConfig::milback_default(), net).unwrap();
        let payload = [1u8; 4];
        let plan = plan_for(&net, 2, &payload);
        let mut rng = GaussianSource::new(1);
        let mut scratch = CampaignScratch::new();
        let airtime_s = net.slotted_airtime_s(&payload, &plan).unwrap();
        let mut m = net.slot_medium(1, &plan, &payload, airtime_s, &mut rng, &mut scratch);
        for (a, b) in [(0, 1), (1, 0), (2, 0), (1, 2), (2, 1)] {
            assert_eq!(
                m.sdm_margin_db(a, b).to_bits(),
                net.sdm_margin_db(a, b).to_bits()
            );
        }
    }

    #[test]
    fn trait_aloha_matches_direct_bit_for_bit() {
        let n = two_node_network(35.0);
        let payload = [7u8; 8];
        let plan = plan_for(&n, 4, &payload);
        let mut rng_t = GaussianSource::new(0xACE);
        let mut rng_d = GaussianSource::new(0xACE);
        let via_trait = n
            .run_mac(
                Box::new(SlottedAloha::new(9)),
                6,
                &payload,
                &plan,
                20.0,
                &mut rng_t,
            )
            .unwrap();
        let direct = n
            .run_slotted_direct(6, &payload, &plan, 9, 20.0, &mut rng_d)
            .unwrap();
        assert_eq!(via_trait, direct);
        // The shared stream advanced identically.
        assert_eq!(rng_t.sample(1.0).to_bits(), rng_d.sample(1.0).to_bits());
    }

    #[test]
    fn hashed_schedule_matches_per_slot_group_rehash() {
        // The hash-once slot → nodes map must regroup exactly like the
        // retained O(nodes × slots) per-slot re-hash.
        let mut scene = Scene::single_node(4.0, 12f64.to_radians());
        for k in 1..9 {
            scene = scene.with_node_at(4.0, (k as f64 * 10.0 - 40.0).to_radians(), 0.2);
        }
        let n = Network::new(SystemConfig::milback_default(), scene).unwrap();
        let plan = plan_for(&n, 6, &[1u8; 4]);
        let old = SlotCoordinator {
            me: ActorId(0),
            plan,
            frames: 5,
            slot_seed: 0xFEED,
            sdm_threshold_db: 20.0,
        };
        let mut aloha = SlottedAloha::new(0xFEED);
        let ctx = mac_context(&n, &plan, 5);
        for frame in 0..5 {
            let schedule = aloha.schedule_frame(frame, &ctx);
            for slot in 0..plan.slots_per_frame {
                let old_group = old.group(n.node_count(), frame, slot);
                let new_group = schedule
                    .iter()
                    .find(|(s, _)| *s == slot)
                    .map(|(_, g)| g.clone())
                    .unwrap_or_default();
                assert_eq!(new_group, old_group, "frame {frame} slot {slot}");
            }
            // And no empty groups are scheduled.
            assert!(schedule.iter().all(|(_, g)| !g.is_empty()));
        }
    }

    #[test]
    fn backoff_caps_exponent_and_window() {
        let n = two_node_network(5.0); // inseparable at 20 dB
        let plan = plan_for(&n, 1, &[1u8; 4]);
        let ctx = mac_context(&n, &plan, 64);
        let mut policy = BackoffAloha::new(0, 3);
        let mut rng = GaussianSource::new(0xB0);
        policy.begin(&ctx, &mut rng);
        // Hammer both nodes with collisions far past the cap.
        for _ in 0..32 {
            policy.on_slot_outcome(0, 0, &[0, 1], true);
            for st in &policy.nodes {
                assert!(st.exponent <= 3, "exponent {} beyond the cap", st.exponent);
                assert!(st.defer_frames < 8, "defer {} beyond 2^3", st.defer_frames);
            }
        }
        assert!(policy.nodes.iter().all(|st| st.exponent == 3));
        // A served slot resets the state.
        policy.on_slot_outcome(0, 0, &[0], false);
        assert_eq!(policy.nodes[0].exponent, 0);
        assert_eq!(policy.nodes[0].defer_frames, 0);
        assert_eq!(policy.nodes[1].exponent, 3);
    }

    #[test]
    fn backoff_deferred_nodes_skip_frames() {
        let n = two_node_network(5.0);
        let plan = plan_for(&n, 1, &[1u8; 4]);
        let ctx = mac_context(&n, &plan, 64);
        let mut policy = BackoffAloha::new(0, 4);
        let mut rng = GaussianSource::new(0xB1);
        policy.begin(&ctx, &mut rng);
        policy.nodes[0].defer_frames = 2;
        let s0 = policy.schedule_frame(0, &ctx);
        assert!(s0.iter().all(|(_, g)| !g.contains(&0)), "node 0 must defer");
        let s1 = policy.schedule_frame(1, &ctx);
        assert!(s1.iter().all(|(_, g)| !g.contains(&0)), "still deferring");
        let s2 = policy.schedule_frame(2, &ctx);
        assert!(
            s2.iter().any(|(_, g)| g.contains(&0)),
            "defer exhausted, node 0 contends again"
        );
    }

    #[test]
    fn backoff_unlocks_an_inseparable_pair() {
        // One slot, two inseparable nodes: plain ALOHA collides every
        // frame and never delivers; backoff desynchronizes the pair so
        // some frames carry exactly one transmitter — deliveries happen.
        let n = two_node_network(5.0);
        let payload = [0x42u8; 8];
        let plan = plan_for(&n, 1, &payload);
        let frames = 24;
        let mut rng_a = GaussianSource::new(0xD0);
        let aloha = n
            .run_mac(
                Box::new(SlottedAloha::new(1)),
                frames,
                &payload,
                &plan,
                20.0,
                &mut rng_a,
            )
            .unwrap();
        assert_eq!(
            aloha.nodes.iter().map(|nd| nd.delivered).sum::<usize>(),
            0,
            "one shared slot must collide every frame under plain ALOHA"
        );
        let mut rng_b = GaussianSource::new(0xD0);
        let backoff = n
            .run_mac(
                Box::new(BackoffAloha::new(1, 4)),
                frames,
                &payload,
                &plan,
                20.0,
                &mut rng_b,
            )
            .unwrap();
        let delivered: usize = backoff.nodes.iter().map(|nd| nd.delivered).sum();
        assert!(delivered > 0, "backoff never desynchronized the pair");
        let collided: usize = backoff.nodes.iter().map(|nd| nd.collisions).sum();
        assert!(
            collided < frames * 2,
            "backoff should collide less than every-frame"
        );
    }

    #[test]
    fn polling_with_more_nodes_than_slots_round_robins() {
        // 5 nodes, 2 slots/frame: each frame polls exactly 2 nodes, the
        // grant cursor wraps across frames, nobody ever collides.
        let mut scene = Scene::single_node(4.0, 12f64.to_radians());
        for k in 1..5 {
            scene = scene.with_node_at(4.0, (k as f64 * 20.0 - 50.0).to_radians(), 0.2);
        }
        let n = Network::new(SystemConfig::milback_default(), scene).unwrap();
        let payload = [9u8; 8];
        let plan = plan_for(&n, 2, &payload);
        let frames = 10; // 20 grants over 5 nodes → 4 each
        let mut rng = GaussianSource::new(0x90);
        let r = n
            .run_mac(
                Box::new(RoundRobinPolling::new()),
                frames,
                &payload,
                &plan,
                20.0,
                &mut rng,
            )
            .unwrap();
        for node in &r.nodes {
            assert_eq!(node.attempts, 4, "node {} grants", node.node_idx);
            assert_eq!(node.collisions, 0);
            assert_eq!(node.delivered, 4, "a granted slot is a clean channel");
        }
    }

    #[test]
    fn polling_grants_every_slot_when_nodes_are_scarce() {
        // 2 nodes, 4 slots/frame: nodes are polled twice per frame.
        let n = two_node_network(30.0);
        let payload = [3u8; 8];
        let plan = plan_for(&n, 4, &payload);
        let mut rng = GaussianSource::new(0x91);
        let r = n
            .run_mac(
                Box::new(RoundRobinPolling::new()),
                3,
                &payload,
                &plan,
                20.0,
                &mut rng,
            )
            .unwrap();
        for node in &r.nodes {
            assert_eq!(node.attempts, 6);
            assert_eq!(node.collisions, 0);
        }
    }

    #[test]
    fn sdm_aware_splits_an_inseparable_pair() {
        // Two nodes 5° apart are not separable at 20 dB: the SDM-aware
        // assignment must put them in different slots, and the campaign
        // must be collision-free with full delivery.
        let n = two_node_network(5.0);
        // 0x42 toggles both tone channels, so a clean slot always decodes.
        let payload = [0x42u8; 8];
        let plan = plan_for(&n, 2, &payload);
        let mut rng = GaussianSource::new(0x5D);
        let r = n
            .run_mac(
                Box::new(SdmAwareAssignment::new()),
                8,
                &payload,
                &plan,
                20.0,
                &mut rng,
            )
            .unwrap();
        for node in &r.nodes {
            assert_eq!(node.collisions, 0, "node {}", node.node_idx);
            assert_eq!(node.attempts, 8);
            assert_eq!(node.delivered, 8);
        }
    }

    #[test]
    fn sdm_aware_co_slots_separable_nodes() {
        let n = two_node_network(40.0);
        let plan = plan_for(&n, 4, &[1u8; 4]);
        let ctx = mac_context(&n, &plan, 4);
        let mut policy = SdmAwareAssignment::new();
        let mut rng = GaussianSource::new(1);
        policy.begin(&ctx, &mut rng);
        assert_eq!(
            policy.groups(),
            &[vec![0, 1]],
            "separable nodes form one group"
        );
        let schedule = policy.schedule_frame(0, &ctx);
        assert_eq!(schedule.len(), 4, "the lone group fills every slot");
        assert!(
            schedule.iter().all(|(_, g)| g == &[0, 1]),
            "separable nodes are co-slotted everywhere"
        );
    }

    #[test]
    fn sdm_aware_rotates_groups_that_outnumber_slots() {
        // Three mutually inseparable nodes, two slots: the partition needs
        // three singleton groups, more than a frame holds. The grant
        // rotation serves them all anyway — collision-free, with latency
        // (fewer grants per node) as the only cost.
        let scene = Scene::single_node(4.0, 12f64.to_radians())
            .with_node_at(4.0, 2f64.to_radians(), 0.2)
            .with_node_at(4.0, 4f64.to_radians(), 0.2);
        let n = Network::new(SystemConfig::milback_default(), scene).unwrap();
        let payload = [0x42u8; 4];
        let plan = plan_for(&n, 2, &payload);
        let frames = 4;
        let mut rng = GaussianSource::new(0x0F);
        let r = n
            .run_mac(
                Box::new(SdmAwareAssignment::new()),
                frames,
                &payload,
                &plan,
                20.0,
                &mut rng,
            )
            .unwrap();
        let attempts: usize = r.nodes.iter().map(|nd| nd.attempts).sum();
        assert_eq!(attempts, frames * 2, "every slot grants exactly one group");
        for node in &r.nodes {
            assert_eq!(node.collisions, 0, "node {}", node.node_idx);
            assert_eq!(node.delivered, node.attempts);
            assert!(
                node.attempts >= 2,
                "rotation starves node {}",
                node.node_idx
            );
        }
    }

    #[test]
    fn undelivered_node_reports_none_not_nan() {
        // One slot, two inseparable nodes: nothing ever delivers, and the
        // report must say so with `None` (NaN would make this very
        // assert_eq unsatisfiable) and keep serde clean of NaN tokens.
        let n = two_node_network(5.0);
        let payload = [1u8; 4];
        let plan = plan_for(&n, 1, &payload);
        let mut rng = GaussianSource::new(0xE0);
        let r = n
            .run_mac(
                Box::new(SlottedAloha::new(1)),
                4,
                &payload,
                &plan,
                20.0,
                &mut rng,
            )
            .unwrap();
        for node in &r.nodes {
            assert_eq!(node.delivered, 0);
            assert_eq!(node.mean_snr_db, None);
        }
        assert_eq!(r.energy_per_packet_j(0), None);
        // NaN sentinels made this exact assertion silently unsatisfiable.
        assert_eq!(r.clone(), r, "undelivered reports must still compare equal");
        // And nothing in the Debug rendering carries a NaN/inf token any
        // serializer would propagate.
        let rendered = format!("{r:?}");
        assert!(!rendered.contains("NaN") && !rendered.contains("inf"));
    }

    #[test]
    fn mac_policies_report_distinct_names() {
        let names = [
            SlottedAloha::new(0).name(),
            BackoffAloha::new(0, 4).name(),
            RoundRobinPolling::new().name(),
            SdmAwareAssignment::new().name(),
        ];
        let mut unique = names.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "policy names collide: {names:?}");
    }

    #[test]
    fn localize_all_rejects_unresolvable_chirp_count() {
        let scene = Scene::single_node(3.0, 0.1).with_node_at(5.0, 0.2, 0.1);
        let network = Network::new(SystemConfig::milback_default(), scene).unwrap();
        let mut rng = GaussianSource::new(1);
        // Node 1 needs a multiple of 4 chirps; 10 is not.
        assert!(localize_all_doppler(&network, 10, &mut rng).is_err());
    }
}
