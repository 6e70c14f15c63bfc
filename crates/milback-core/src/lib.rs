//! # milback-core
//!
//! The MilBack network core: system configuration, scenes with exact ground
//! truth, the joint communication/localization protocol (§7), end-to-end
//! downlink/uplink link simulation (§6, Figs 14–15), the full localization
//! and orientation pipeline (§5, Figs 12–13), and multi-node SDM operation.
//!
//! Start from [`config::SystemConfig::milback_default`] and a
//! [`scene::Scene`], then drive a [`link::LinkSimulator`] or a
//! [`localization::LocalizationPipeline`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coding;
pub mod config;
pub mod dense;
pub mod engine;
pub mod error;
pub mod lifecycle;
pub mod link;
pub mod localization;
pub mod network;
pub mod pipeline;
pub mod protocol;
pub mod relay;
pub mod scene;
pub mod session;
pub mod shard;
pub mod telemetry;
pub mod tracking;

pub use config::SystemConfig;
pub use engine::{Actor, ActorId, Engine, Outbox, TimePs};
pub use error::{MilbackError, Result};
pub use lifecycle::{DropReason, LifecycleStats, PacketId};
pub use link::{
    DownlinkOutcome, LinkSimulator, SymbolOutcome, SymbolScratch, TransferOutcome, UplinkOutcome,
};
pub use localization::{Impairments, LocalizationPipeline, LocationFix};
pub use network::{
    BackoffAloha, CampaignAggregate, CampaignScratch, FrameSchedule, MacContext, MacPolicy,
    Network, RelayGrant, RoundRobinPolling, SdmAwareAssignment, SlottedAloha, SlottedNodeReport,
    SlottedRunReport,
};
pub use pipeline::{ApServiceConfig, ApServiceStats, OverflowPolicy, StageKind};
pub use protocol::Packet;
pub use relay::{classify_gap_reasons, select_routes, NeighborGraph, RelayAwareMac, RelayConfig};
pub use scene::{CoverageModel, GroundTruth, Scene};
pub use session::{Session, SessionReport};
pub use shard::{cell_seed, partition_cells};
pub use telemetry::{CampaignProbe, Metrics, TraceBuffer, TraceRecord, TraceSink};
pub use tracking::Tracker;
