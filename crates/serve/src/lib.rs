//! # cpsmon-serve — monitor-fleet daemon with graceful degradation
//!
//! Long-running serving layer for the paper's safety monitors: many
//! patient sessions multiplexed over a compact binary TCP protocol,
//! pinned to shards by patient id, batch-stepped through the
//! [`cpsmon_core`] stage pipeline each tick.
//!
//! The robustness headline is the **closed-loop overload controller**
//! ([`health`]): bounded per-shard ingest queues answer overflow with
//! explicit [`protocol::Frame::Busy`] backpressure frames, per-tick
//! deadline budgets catch pathological slowdowns, and a
//! [`ServiceHealth`] state machine sheds ML inference to Table-I rule
//! verdicts under sustained pressure — recovering hysteretically, the
//! service-level mirror of the per-session
//! [`cpsmon_core::HealthState`] guard ladder.
//!
//! The engine core ([`shard`]) is **sans-IO**: a [`Shard`] consumes
//! offered ingest items and emits verdict events with no sockets,
//! threads, or clock-dependent output, so overload and fault-storm
//! behaviour is deterministic and testable byte-for-byte. The daemon ([`daemon`]) is
//! a thin thread-per-connection shell around it; the chaos harness
//! ([`chaos`]) mangles byte streams with a seeded RNG to drive
//! drop/duplicate/reorder/truncate storms through both layers.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod daemon;
pub mod health;
pub mod protocol;
pub mod shard;

pub use chaos::ChaosPlan;
pub use client::{replay, ReplayConfig, ReplayReport};
pub use daemon::{Daemon, ServeConfig};
pub use health::{OverloadController, OverloadPolicy, ServiceHealth};
pub use protocol::{ErrorCode, Frame, FrameDecoder, ProtocolError, PROTOCOL_VERSION};
pub use shard::{
    IngestItem, IngestKind, InstallError, OfferError, OutEvent, ServingBundle, Shard, ShardConfig,
    ShardStats,
};
