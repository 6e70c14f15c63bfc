//! The full packet session: the §7 protocol executed end-to-end against a
//! scene — Field 1 (node senses orientation + direction), Field 2 (AP
//! localizes + senses orientation), payload (uplink or downlink with
//! carriers planned from the AP's own estimate), with both sides' state
//! and the node's energy ledger accounted.
//!
//! This is the "network runtime" layer the lower modules compose into: one
//! call runs everything the paper's Fig 8 timeline describes. A single link
//! has one possible order of events, so the session is a plain call
//! sequence: Field-1 bursts, the Field-2 capture, carrier planning from the
//! AP's estimate, then the payload. All randomness flows through the one
//! per-trial stream the caller hands in.

use crate::config::SystemConfig;
use crate::error::{MilbackError, Result};
use crate::link::LinkSimulator;
use crate::localization::{LocalizationPipeline, LocationFix};
use crate::protocol::Packet;
use crate::scene::Scene;
use milback_ap::waveform::LinkDirection;
use milback_node::firmware::{Direction, Event as FwEvent, Firmware, State as FwState};
use milback_node::power::NodePowerModel;
use mmwave_sigproc::random::GaussianSource;
use serde::{Deserialize, Serialize};

/// Everything one packet session produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// The AP's localization fix from Field 2.
    pub fix: LocationFix,
    /// AP-side orientation estimate, radians.
    pub orientation_at_ap: f64,
    /// Node-side orientation estimate, radians.
    pub orientation_at_node: f64,
    /// Direction the node decoded from Field 1.
    pub decoded_direction: LinkDirection,
    /// Payload bytes delivered (downlink: at the node; uplink: at the AP).
    pub delivered: Vec<u8>,
    /// Payload bit error rate.
    pub ber: f64,
    /// Total packet airtime, seconds.
    pub airtime_s: f64,
    /// Node energy spent on this packet, joules.
    pub node_energy_j: f64,
}

/// The session runner.
#[derive(Debug, Clone)]
pub struct Session {
    /// System configuration.
    pub config: SystemConfig,
    /// Scene (first node is the partner).
    pub scene: Scene,
}

impl Session {
    /// Creates a session runner.
    pub fn new(config: SystemConfig, scene: Scene) -> Result<Self> {
        config.validate()?;
        if scene.nodes.is_empty() {
            return Err(MilbackError::Config("session needs a node".into()));
        }
        Ok(Self { config, scene })
    }

    /// Runs one complete packet. The AP plans carriers from its *own*
    /// Field-2 orientation estimate (never ground truth); the node decodes
    /// the direction from the Field-1 burst count and runs its firmware
    /// state machine through the whole exchange.
    pub fn run_packet(&self, packet: &Packet, rng: &mut GaussianSource) -> Result<SessionReport> {
        // Both simulators are built before Field 1, so a construction error
        // comes before the first draw from `rng`.
        let pipeline = LocalizationPipeline::new(self.config.clone(), self.scene.clone())?;
        let mut sim = LinkSimulator::new(self.config.clone(), self.scene.clone())?;
        let mut firmware = Firmware::new(NodePowerModel::milback_default());

        // ---- Field 1: node senses orientation; bursts signal direction.
        for _ in 0..packet.direction.field1_chirp_count() {
            firmware.handle(FwEvent::BurstStart)?;
            firmware.tick(self.config.fmcw.field1_chirp_s);
        }
        let orientation_at_node = pipeline.orient_at_node(rng)?;
        firmware.handle(FwEvent::Field1GapTimeout)?;
        let decoded_direction = match firmware.state() {
            FwState::Field1Done {
                direction: Direction::Uplink,
            } => LinkDirection::Uplink,
            FwState::Field1Done {
                direction: Direction::Downlink,
            } => LinkDirection::Downlink,
            other => {
                return Err(MilbackError::Protocol(format!(
                    "node failed to decode direction (state {other:?})"
                )))
            }
        };

        // ---- Field 2: AP localizes and estimates orientation.
        firmware.handle(FwEvent::BurstStart)?;
        firmware.tick(5.0 * self.config.fmcw.chirp_interval_s);
        let fix = pipeline.localize(rng)?;
        let orientation_at_ap = pipeline.orient_at_ap(rng)?;
        firmware.handle(FwEvent::Field2Complete)?;

        // ---- Payload: carriers planned from the AP's *estimate*, never
        // ground truth — the closed loop the protocol actually runs.
        sim.orientation_hint = Some(orientation_at_ap);
        let symbol_rate = match decoded_direction {
            LinkDirection::Downlink => self.config.downlink_symbol_rate_hz,
            LinkDirection::Uplink => self.config.uplink_symbol_rate_hz,
        };
        firmware.tick(packet.payload_duration_s(symbol_rate));
        let transfer = sim.transfer(decoded_direction, &packet.payload, rng)?;
        firmware.handle(FwEvent::PayloadComplete)?;

        debug_assert_eq!(decoded_direction, packet.direction);

        Ok(SessionReport {
            fix,
            orientation_at_ap,
            orientation_at_node,
            decoded_direction,
            delivered: transfer.decoded().to_vec(),
            ber: transfer.ber(),
            airtime_s: packet.duration_s(&self.config.fmcw, symbol_rate),
            node_energy_j: firmware.energy_j(),
        })
    }

    /// Runs an alternating sequence of downlink/uplink packets and returns
    /// the per-packet reports — a steady-state duty cycle.
    pub fn run_duty_cycle(
        &self,
        packets: &[Packet],
        rng: &mut GaussianSource,
    ) -> Result<Vec<SessionReport>> {
        packets.iter().map(|p| self.run_packet(p, rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(d: f64, orient_deg: f64) -> Session {
        Session::new(
            SystemConfig::milback_default(),
            Scene::indoor(d, orient_deg.to_radians()),
        )
        .unwrap()
    }

    #[test]
    fn downlink_session_end_to_end() {
        let s = session(3.0, 12.0);
        let mut rng = GaussianSource::new(0x5E5);
        let packet = Packet::downlink(b"session payload".to_vec());
        let report = s.run_packet(&packet, &mut rng).unwrap();
        assert_eq!(report.decoded_direction, LinkDirection::Downlink);
        assert_eq!(report.delivered, b"session payload");
        assert_eq!(report.ber, 0.0);
        assert!((report.fix.range_m - 3.0).abs() < 0.1);
        let gt = s.scene.ground_truth(0);
        assert!(
            (report.orientation_at_ap - gt.incidence_rad)
                .abs()
                .to_degrees()
                < 4.0
        );
        assert!(
            (report.orientation_at_node - gt.incidence_rad)
                .abs()
                .to_degrees()
                < 4.0
        );
        assert!(report.node_energy_j > 0.0);
        assert!(report.airtime_s > 635e-6);
    }

    #[test]
    fn uplink_session_end_to_end() {
        let s = session(3.0, 12.0);
        let mut rng = GaussianSource::new(0x5E6);
        let packet = Packet::uplink(b"node says hi".to_vec());
        let report = s.run_packet(&packet, &mut rng).unwrap();
        assert_eq!(report.decoded_direction, LinkDirection::Uplink);
        assert_eq!(report.delivered, b"node says hi");
    }

    #[test]
    fn duty_cycle_alternates() {
        let s = session(2.0, 10.0);
        let mut rng = GaussianSource::new(0x5E7);
        let packets = vec![
            Packet::downlink(vec![1, 2, 3, 4]),
            Packet::uplink(vec![5, 6, 7, 8]),
            Packet::downlink(vec![9, 10, 11, 12]),
        ];
        let reports = s.run_duty_cycle(&packets, &mut rng).unwrap();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].delivered, vec![1, 2, 3, 4]);
        assert_eq!(reports[1].delivered, vec![5, 6, 7, 8]);
        assert_eq!(reports[2].delivered, vec![9, 10, 11, 12]);
        // Uplink packets cost more node energy per second of payload, but
        // these payloads are tiny so preamble dominates; just check all
        // ledgers are positive and sane.
        for r in &reports {
            assert!(r.node_energy_j > 0.0 && r.node_energy_j < 1e-3);
        }
    }

    #[test]
    fn session_requires_a_node() {
        let mut scene = Scene::single_node(2.0, 0.0);
        scene.nodes.clear();
        assert!(Session::new(SystemConfig::milback_default(), scene).is_err());
    }
}
