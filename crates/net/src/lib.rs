//! Distributed serving tier for the RPTCN reproduction.
//!
//! `rptcn-serve` runs one sharded prediction service inside one process;
//! this crate spreads a fleet across many such processes on a network:
//!
//! - **Wire protocol** ([`frame`]): a dependency-free, length-prefixed
//!   binary protocol over TCP — versioned 20-byte header, request ids,
//!   Ingest/Forecast/Health/Checkpoint/Drain message kinds and explicit
//!   error frames, built on the same hand-rolled little-endian
//!   primitives as the RPTM/RPTF checkpoint codecs. Malformed bytes
//!   always decode to a typed [`frame::WireError`], never a panic.
//! - **Node server** ([`node`]): wraps a [`serve::PredictionService`]
//!   behind the protocol with a thread-per-connection accept loop,
//!   graceful drain (refuse ingests, flush, hand the fleet state over)
//!   and per-request latency spans in the service registry.
//! - **Client** ([`client`]): blocking sequential request/reply over one
//!   connection, request-id checked.
//! - **Fleet router** ([`router`]): consistent-hash entity→node
//!   placement ([`rptcn::HashRing`]), health probes, failover with
//!   deterministic re-seed + bounded sample replay (no acknowledged
//!   ingest is lost), and RPTF-checkpoint-based warm migration on node
//!   join/drain — all journaled through `rptcn-obs` on an injectable
//!   clock.

pub mod client;
pub mod error;
pub mod frame;
pub mod node;
pub mod router;
pub mod sim;
pub mod sync;
pub mod transport;

pub use client::NodeClient;
pub use error::NetError;
pub use frame::{
    decode_frame, encode_forecast_frame, encode_frame, encode_ingest_frame, read_frame,
    write_frame, ErrorCode, ForecastOutcome, FrameHeader, HealthReport, IngestEntry, Message,
    SeedSpec, WireError, WireFault, HEADER_LEN, IDEMPOTENT_ID_BASE, MAX_PAYLOAD, WIRE_MAGIC,
    WIRE_VERSION,
};
pub use node::{seed_bootstrap, NodeConfig, NodeServer};
pub use router::{FleetRouter, NodeStatus, RouterConfig};
pub use sim::{
    check_fleet_invariants, run_fleet_chaos, ChaosConfig, ChaosOutcome, FaultConfig, FaultStats,
    InvariantReport, NodeHoldings, SimNet, SimTransport,
};
pub use sync::{lock_recover, read_recover, wait_timeout_recover, write_recover};
pub use transport::{Connection, Listener, SharedTransport, TcpTransport, Transport};
