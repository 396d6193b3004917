//! Length-prefixed binary wire protocol for the distributed serving tier.
//!
//! Every frame is a fixed 20-byte little-endian header followed by a
//! payload of at most [`MAX_PAYLOAD`] bytes:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"RPTW"
//! 4       2     version (u16, currently 1)
//! 6       1     kind    (u8, see `Message::kind`)
//! 7       1     flags   (u8, must be 0 in version 1)
//! 8       8     request id (u64, echoed verbatim in the reply)
//! 16      4     payload length (u32)
//! ```
//!
//! Payloads reuse the checkpoint wire primitives (`rptcn-models`
//! `checkpoint::wire`): little-endian integers, length-prefixed UTF-8
//! strings, and the RPTF per-entity predictor state encoding — so a
//! checkpoint streamed over a socket is byte-compatible with one written
//! to disk. Decoding is strict: unknown kinds, non-zero flags, trailing
//! bytes, implausible counts and truncated payloads all yield a typed
//! [`WireError`] and never panic, hang, or allocate unbounded memory.
//!
//! Encoders write into a caller's buffer (`encode_frame_into`). The
//! `Ingest` and `Forecast` payloads also encode straight from borrowed
//! samples and ids ([`encode_ingest_frame`], [`encode_forecast_frame`])
//! through the same payload writers an owned [`Message`] uses, so the
//! router sends the bytes of the message it never builds.

use std::fmt;
use std::io::{self, Read, Write};

use models::checkpoint::wire;
use models::checkpoint::CheckpointError;
use rptcn::PredictorState;
use serve::checkpoint::{read_predictor_state, write_predictor_state};

/// Magic bytes opening every frame ("RPTcn Wire").
pub const WIRE_MAGIC: [u8; 4] = *b"RPTW";
/// Current protocol version carried in the frame header.
pub const WIRE_VERSION: u16 = 1;
/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 20;
/// Maximum payload size a peer will accept (64 MiB). Larger frames are
/// rejected before any payload allocation happens.
pub const MAX_PAYLOAD: u32 = 64 << 20;
/// First request id in the idempotent range. Standalone clients number
/// their requests per-connection from 1 and never reach this base; the
/// fleet router allocates ids at or above it from a process-wide counter,
/// so every routed mutating request carries a globally unique id that
/// nodes can dedup on — retrying under the same id is then safe even if
/// the first attempt was executed but its reply was lost.
pub const IDEMPOTENT_ID_BASE: u64 = 1 << 32;

/// Errors produced while encoding or decoding frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The underlying reader/writer failed mid-frame.
    Io(String),
    /// The first four bytes were not [`WIRE_MAGIC`].
    BadMagic([u8; 4]),
    /// The header announced a protocol version this build does not speak.
    UnsupportedVersion(u16),
    /// The header announced a message kind this build does not know.
    UnknownKind(u8),
    /// The header announced a payload larger than [`MAX_PAYLOAD`].
    Oversized {
        /// Announced payload length.
        len: u32,
        /// The limit it exceeded.
        max: u32,
    },
    /// The stream or buffer ended before a complete frame was read.
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// The frame was structurally complete but its payload did not decode
    /// (bad tag, implausible count, trailing bytes, non-zero flags…).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(msg) => write!(f, "io: {msg}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:?} (want {WIRE_MAGIC:?})"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v} (speak {WIRE_VERSION})")
            }
            WireError::UnknownKind(k) => write!(f, "unknown message kind {k}"),
            WireError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds limit {max}")
            }
            WireError::Truncated { context } => write!(f, "truncated while reading {context}"),
            WireError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CheckpointError> for WireError {
    fn from(e: CheckpointError) -> Self {
        WireError::Malformed(e.0)
    }
}

fn io_err(context: &str, e: &io::Error) -> WireError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        WireError::Truncated {
            context: context.to_string(),
        }
    } else {
        WireError::Io(format!("{context}: {e}"))
    }
}

/// Machine-readable error categories carried in [`Message::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The node is draining and refuses new ingests.
    Draining,
    /// A referenced entity is not registered on this node.
    UnknownEntity,
    /// The request frame decoded but its contents were invalid.
    Malformed,
    /// The node-local service failed internally.
    Internal,
    /// The node does not support the requested operation.
    Unsupported,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Draining => 1,
            ErrorCode::UnknownEntity => 2,
            ErrorCode::Malformed => 3,
            ErrorCode::Internal => 4,
            ErrorCode::Unsupported => 5,
        }
    }

    fn from_u16(v: u16) -> Result<Self, WireError> {
        match v {
            1 => Ok(ErrorCode::Draining),
            2 => Ok(ErrorCode::UnknownEntity),
            3 => Ok(ErrorCode::Malformed),
            4 => Ok(ErrorCode::Internal),
            5 => Ok(ErrorCode::Unsupported),
            other => Err(WireError::Malformed(format!("unknown error code {other}"))),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::Draining => "draining",
            ErrorCode::UnknownEntity => "unknown_entity",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Internal => "internal",
            ErrorCode::Unsupported => "unsupported",
        };
        f.write_str(name)
    }
}

/// An explicit error reply from a peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFault {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for WireFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// One entity's sample inside an [`Message::Ingest`] batch.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestEntry {
    /// Target entity id.
    pub entity: String,
    /// Explicit sequence number, or `None` to append at the next slot.
    pub seq: Option<u64>,
    /// Indicator values for this timestep.
    pub values: Vec<f32>,
}

/// Per-entity result inside a [`Message::ForecastOk`] reply.
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastOutcome {
    /// Forecast horizon values.
    Values(Vec<f32>),
    /// The entity is not registered on the answering node.
    Unknown,
    /// The node-local service failed to forecast (message attached).
    Failed(String),
}

/// Node health summary carried in [`Message::HealthOk`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// Entities registered on the node.
    pub entities: u64,
    /// Samples ingested since start.
    pub ingested: u64,
    /// Forecasts served since start.
    pub forecasts: u64,
    /// Entities currently in degraded (fallback) mode.
    pub degraded: u64,
    /// Shard restarts since start.
    pub restarts: u64,
    /// Whether the node is draining (refusing new ingests).
    pub draining: bool,
}

/// Instruction to register a batch of entities fitted from a shared
/// synthetic bootstrap, carried in [`Message::Seed`]. Every id is seeded
/// deterministically from `seed ^ fnv1a(id)` so any router replica can
/// reproduce the exact same entity on another node during failover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSpec {
    /// Entity ids to register.
    pub ids: Vec<String>,
    /// Base seed mixed with each entity id's hash.
    pub seed: u64,
    /// Length of the synthetic bootstrap series per entity.
    pub bootstrap_len: u32,
    /// Model input window (must be < `bootstrap_len`).
    pub window: u32,
}

/// Every message the protocol can carry. Requests and replies share one
/// enum so a single codec covers both directions.
#[derive(Debug, Clone)]
pub enum Message {
    /// Append samples to entities (request).
    Ingest {
        /// Samples, applied in order.
        entries: Vec<IngestEntry>,
    },
    /// Ingest reply: per-batch accounting.
    IngestOk {
        /// Entries accepted by the service.
        accepted: u64,
        /// Entity ids the node does not know (candidates for re-seeding).
        unknown: Vec<String>,
        /// Per-entity failures other than unknown-entity, as `(id, error)`.
        errors: Vec<(String, String)>,
    },
    /// Request forecasts for a batch of entities.
    Forecast {
        /// Entity ids to forecast.
        ids: Vec<String>,
    },
    /// Forecast reply, one outcome per requested id, in request order.
    ForecastOk {
        /// `(entity, outcome)` pairs.
        results: Vec<(String, ForecastOutcome)>,
    },
    /// Liveness/health probe (request, empty payload).
    Health,
    /// Health reply.
    HealthOk(HealthReport),
    /// Request a checkpoint of the named entities (empty = all).
    Checkpoint {
        /// Entity ids to snapshot; empty means every entity on the node.
        ids: Vec<String>,
    },
    /// Checkpoint reply carrying full RPTF predictor states.
    CheckpointOk {
        /// `(entity, state)` pairs.
        entities: Vec<(String, PredictorState)>,
    },
    /// Install previously checkpointed entities (warm migration).
    Restore {
        /// `(entity, state)` pairs to install.
        entities: Vec<(String, PredictorState)>,
    },
    /// Restore reply: per-batch accounting.
    RestoreOk {
        /// Entities installed.
        installed: u64,
        /// Per-entity failures as `(id, error)`.
        errors: Vec<(String, String)>,
    },
    /// Register entities fitted from a deterministic synthetic bootstrap.
    Seed(SeedSpec),
    /// Seed reply.
    SeedOk {
        /// Entities registered by this request.
        installed: u64,
        /// Requested ids skipped because the node already had them.
        /// Callers replaying buffered samples after a seed must replay
        /// only the freshly installed ids — replaying into an `already`
        /// entity would apply its samples twice.
        already: Vec<String>,
    },
    /// Remove entities from the node (after they migrated elsewhere).
    Evict {
        /// Entity ids to remove.
        ids: Vec<String>,
    },
    /// Evict reply.
    EvictOk {
        /// Entities actually removed (unknown ids are skipped).
        removed: u64,
    },
    /// Begin draining: refuse new ingests, flush, snapshot everything.
    Drain,
    /// Drain reply carrying the node's full fleet state for migration.
    DrainOk {
        /// `(entity, state)` pairs for every entity the node owned.
        entities: Vec<(String, PredictorState)>,
    },
    /// Ask the node process to stop accepting connections and exit.
    Shutdown,
    /// Shutdown acknowledgement (sent before the node stops).
    ShutdownOk,
    /// Explicit error reply.
    Error(WireFault),
}

/// Wire discriminant of [`Message::Ingest`].
pub(crate) const KIND_INGEST: u8 = 1;
/// Wire discriminant of [`Message::Forecast`].
pub(crate) const KIND_FORECAST: u8 = 3;

/// Short names of the message kinds, indexed by `kind - 1`.
const KIND_NAMES: [&str; 19] = [
    "ingest",
    "ingest_ok",
    "forecast",
    "forecast_ok",
    "health",
    "health_ok",
    "checkpoint",
    "checkpoint_ok",
    "restore",
    "restore_ok",
    "seed",
    "seed_ok",
    "evict",
    "evict_ok",
    "drain",
    "drain_ok",
    "shutdown",
    "shutdown_ok",
    "error",
];

/// Length of a table indexed by kind discriminant (kinds start at 1).
pub(crate) const KIND_SLOTS: usize = KIND_NAMES.len() + 1;

/// Short name of a message kind discriminant (`"unknown"` past the
/// known kinds).
pub(crate) fn kind_name(kind: u8) -> &'static str {
    usize::from(kind)
        .checked_sub(1)
        .and_then(|at| KIND_NAMES.get(at))
        .copied()
        .unwrap_or("unknown")
}

impl Message {
    /// Wire discriminant for this message, written in the frame header.
    pub fn kind(&self) -> u8 {
        match self {
            Message::Ingest { .. } => KIND_INGEST,
            Message::IngestOk { .. } => 2,
            Message::Forecast { .. } => KIND_FORECAST,
            Message::ForecastOk { .. } => 4,
            Message::Health => 5,
            Message::HealthOk(_) => 6,
            Message::Checkpoint { .. } => 7,
            Message::CheckpointOk { .. } => 8,
            Message::Restore { .. } => 9,
            Message::RestoreOk { .. } => 10,
            Message::Seed(_) => 11,
            Message::SeedOk { .. } => 12,
            Message::Evict { .. } => 13,
            Message::EvictOk { .. } => 14,
            Message::Drain => 15,
            Message::DrainOk { .. } => 16,
            Message::Shutdown => 17,
            Message::ShutdownOk => 18,
            Message::Error(_) => 19,
        }
    }

    /// Short human-readable name for metrics and journal entries.
    pub fn kind_name(&self) -> &'static str {
        kind_name(self.kind())
    }

    fn encode_payload(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Message::Ingest { entries } => write_ingest_entries(
                out,
                entries
                    .iter()
                    .map(|e| (e.entity.as_str(), e.seq, e.values.as_slice())),
            )?,
            Message::IngestOk {
                accepted,
                unknown,
                errors,
            } => {
                wire::write_u64(out, *accepted)?;
                write_str_list(out, unknown.iter().map(String::as_str))?;
                write_pair_list(out, errors)?;
            }
            Message::Forecast { ids } | Message::Checkpoint { ids } | Message::Evict { ids } => {
                write_str_list(out, ids.iter().map(String::as_str))?;
            }
            Message::ForecastOk { results } => {
                wire::write_u32(out, len_u32(results.len(), "forecast results")?)?;
                for (id, outcome) in results {
                    wire::write_str(out, id)?;
                    match outcome {
                        ForecastOutcome::Values(vs) => {
                            out.push(1);
                            wire::write_u32(out, len_u32(vs.len(), "forecast values")?)?;
                            for v in vs {
                                wire::write_f32(out, *v)?;
                            }
                        }
                        ForecastOutcome::Unknown => out.push(2),
                        ForecastOutcome::Failed(msg) => {
                            out.push(3);
                            wire::write_str(out, msg)?;
                        }
                    }
                }
            }
            Message::Health | Message::Drain | Message::Shutdown | Message::ShutdownOk => {}
            Message::HealthOk(h) => {
                wire::write_u64(out, h.entities)?;
                wire::write_u64(out, h.ingested)?;
                wire::write_u64(out, h.forecasts)?;
                wire::write_u64(out, h.degraded)?;
                wire::write_u64(out, h.restarts)?;
                out.push(u8::from(h.draining));
            }
            Message::CheckpointOk { entities }
            | Message::Restore { entities }
            | Message::DrainOk { entities } => {
                wire::write_u32(out, len_u32(entities.len(), "entity states")?)?;
                for (id, state) in entities {
                    wire::write_str(out, id)?;
                    write_predictor_state(out, state)?;
                }
            }
            Message::RestoreOk { installed, errors } => {
                wire::write_u64(out, *installed)?;
                write_pair_list(out, errors)?;
            }
            Message::Seed(spec) => {
                write_str_list(out, spec.ids.iter().map(String::as_str))?;
                wire::write_u64(out, spec.seed)?;
                wire::write_u32(out, spec.bootstrap_len)?;
                wire::write_u32(out, spec.window)?;
            }
            Message::SeedOk { installed, already } => {
                wire::write_u64(out, *installed)?;
                write_str_list(out, already.iter().map(String::as_str))?;
            }
            Message::EvictOk { removed } => wire::write_u64(out, *removed)?,
            Message::Error(fault) => {
                wire::write_u32(out, u32::from(fault.code.to_u16()))?;
                wire::write_str(out, &fault.message)?;
            }
        }
        Ok(())
    }

    fn decode_payload_inner(kind: u8, r: &mut &[u8]) -> Result<Message, WireError> {
        Ok(match kind {
            1 => {
                let n = read_count(r, 6, "ingest entries")?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let entity = wire::read_str(r)?;
                    let seq = match read_u8(r)? {
                        0 => None,
                        1 => Some(wire::read_u64(r)?),
                        t => return Err(WireError::Malformed(format!("bad seq tag {t}"))),
                    };
                    let nv = read_count(r, 4, "sample values")?;
                    let mut values = Vec::with_capacity(nv);
                    for _ in 0..nv {
                        values.push(wire::read_f32(r)?);
                    }
                    entries.push(IngestEntry {
                        entity,
                        seq,
                        values,
                    });
                }
                Message::Ingest { entries }
            }
            2 => Message::IngestOk {
                accepted: wire::read_u64(r)?,
                unknown: read_str_list(r)?,
                errors: read_pair_list(r)?,
            },
            3 => Message::Forecast {
                ids: read_str_list(r)?,
            },
            4 => {
                let n = read_count(r, 5, "forecast results")?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = wire::read_str(r)?;
                    let outcome = match read_u8(r)? {
                        1 => {
                            let nv = read_count(r, 4, "forecast values")?;
                            let mut vs = Vec::with_capacity(nv);
                            for _ in 0..nv {
                                vs.push(wire::read_f32(r)?);
                            }
                            ForecastOutcome::Values(vs)
                        }
                        2 => ForecastOutcome::Unknown,
                        3 => ForecastOutcome::Failed(wire::read_str(r)?),
                        t => return Err(WireError::Malformed(format!("bad outcome tag {t}"))),
                    };
                    results.push((id, outcome));
                }
                Message::ForecastOk { results }
            }
            5 => Message::Health,
            6 => Message::HealthOk(HealthReport {
                entities: wire::read_u64(r)?,
                ingested: wire::read_u64(r)?,
                forecasts: wire::read_u64(r)?,
                degraded: wire::read_u64(r)?,
                restarts: wire::read_u64(r)?,
                draining: match read_u8(r)? {
                    0 => false,
                    1 => true,
                    t => return Err(WireError::Malformed(format!("bad bool tag {t}"))),
                },
            }),
            7 => Message::Checkpoint {
                ids: read_str_list(r)?,
            },
            8 => Message::CheckpointOk {
                entities: read_state_list(r)?,
            },
            9 => Message::Restore {
                entities: read_state_list(r)?,
            },
            10 => Message::RestoreOk {
                installed: wire::read_u64(r)?,
                errors: read_pair_list(r)?,
            },
            11 => Message::Seed(SeedSpec {
                ids: read_str_list(r)?,
                seed: wire::read_u64(r)?,
                bootstrap_len: wire::read_u32(r)?,
                window: wire::read_u32(r)?,
            }),
            12 => Message::SeedOk {
                installed: wire::read_u64(r)?,
                already: read_str_list(r)?,
            },
            13 => Message::Evict {
                ids: read_str_list(r)?,
            },
            14 => Message::EvictOk {
                removed: wire::read_u64(r)?,
            },
            15 => Message::Drain,
            16 => Message::DrainOk {
                entities: read_state_list(r)?,
            },
            17 => Message::Shutdown,
            18 => Message::ShutdownOk,
            19 => {
                let raw = wire::read_u32(r)?;
                let code = u16::try_from(raw)
                    .map_err(|_| WireError::Malformed(format!("error code {raw} out of range")))
                    .and_then(ErrorCode::from_u16)?;
                Message::Error(WireFault {
                    code,
                    message: wire::read_str(r)?,
                })
            }
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

fn len_u32(len: usize, what: &str) -> Result<u32, WireError> {
    u32::try_from(len).map_err(|_| WireError::Malformed(format!("{what} count {len} too large")))
}

fn read_u8(r: &mut &[u8]) -> Result<u8, WireError> {
    match r.split_first() {
        Some((b, rest)) => {
            *r = rest;
            Ok(*b)
        }
        None => Err(WireError::Malformed("payload ended at tag byte".into())),
    }
}

/// Read a count and sanity-check it against the bytes actually remaining,
/// so a corrupted length can never trigger a huge pre-allocation.
fn read_count(r: &mut &[u8], min_item_bytes: usize, what: &str) -> Result<usize, WireError> {
    let n = wire::read_u32(r)? as usize;
    if n.saturating_mul(min_item_bytes) > r.len() {
        return Err(WireError::Malformed(format!(
            "implausible {what} count {n} for {} remaining bytes",
            r.len()
        )));
    }
    Ok(n)
}

// hot-path: appends to the caller's buffer, allocates nothing itself.
/// A `u32` item count, then each item as `write_item` writes it. The count
/// is patched in afterwards, so a borrowed iterator of any shape encodes
/// without being collected first.
fn write_counted<T>(
    out: &mut Vec<u8>,
    items: impl IntoIterator<Item = T>,
    what: &str,
    mut write_item: impl FnMut(&mut Vec<u8>, T) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    let mut n = 0usize;
    for item in items {
        write_item(out, item)?;
        n += 1;
    }
    out[at..at + 4].copy_from_slice(&len_u32(n, what)?.to_le_bytes());
    Ok(())
}

// hot-path: one write per field into the caller's buffer.
/// The `Ingest` payload: `(entity, seq, values)` per entry. The one
/// encoding of that kind, fed from owned [`IngestEntry`]s and borrowed
/// samples alike.
fn write_ingest_entries<'a>(
    out: &mut Vec<u8>,
    entries: impl IntoIterator<Item = (&'a str, Option<u64>, &'a [f32])>,
) -> Result<(), WireError> {
    write_counted(
        out,
        entries,
        "ingest entries",
        |out, (entity, seq, values)| {
            wire::write_str(out, entity)?;
            match seq {
                Some(seq) => {
                    out.push(1);
                    wire::write_u64(out, seq)?;
                }
                None => out.push(0),
            }
            wire::write_u32(out, len_u32(values.len(), "sample values")?)?;
            for v in values {
                wire::write_f32(out, *v)?;
            }
            Ok(())
        },
    )
}

// hot-path: one write per id into the caller's buffer.
/// A list of strings: the `Forecast`, `Checkpoint` and `Evict` payloads,
/// and the id lists inside replies.
fn write_str_list<'a>(
    out: &mut Vec<u8>,
    items: impl IntoIterator<Item = &'a str>,
) -> Result<(), WireError> {
    write_counted(out, items, "strings", |out, s| Ok(wire::write_str(out, s)?))
}

fn read_str_list(r: &mut &[u8]) -> Result<Vec<String>, WireError> {
    let n = read_count(r, 4, "strings")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(wire::read_str(r)?);
    }
    Ok(out)
}

fn write_pair_list(out: &mut Vec<u8>, items: &[(String, String)]) -> Result<(), WireError> {
    wire::write_u32(out, len_u32(items.len(), "string pairs")?)?;
    for (a, b) in items {
        wire::write_str(out, a)?;
        wire::write_str(out, b)?;
    }
    Ok(())
}

fn read_pair_list(r: &mut &[u8]) -> Result<Vec<(String, String)>, WireError> {
    let n = read_count(r, 8, "string pairs")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let a = wire::read_str(r)?;
        let b = wire::read_str(r)?;
        out.push((a, b));
    }
    Ok(out)
}

fn read_state_list(r: &mut &[u8]) -> Result<Vec<(String, PredictorState)>, WireError> {
    let n = read_count(r, 8, "entity states")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let id = wire::read_str(r)?;
        let state = read_predictor_state(r)?;
        out.push((id, state));
    }
    Ok(out)
}

/// Parsed frame header, validated against this build's protocol limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Message kind discriminant (not yet checked against known kinds).
    pub kind: u8,
    /// Request id echoed in replies.
    pub request_id: u64,
    /// Announced payload length (≤ [`MAX_PAYLOAD`]).
    pub payload_len: u32,
}

/// Validate a raw 20-byte header: magic, version, flags and payload limit.
pub fn parse_header(bytes: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
    let magic = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = bytes[6];
    let flags = bytes[7];
    if flags != 0 {
        return Err(WireError::Malformed(format!(
            "non-zero flags {flags:#04x} in version {WIRE_VERSION} header"
        )));
    }
    let request_id = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]);
    let payload_len = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len: payload_len,
            max: MAX_PAYLOAD,
        });
    }
    Ok(FrameHeader {
        kind,
        request_id,
        payload_len,
    })
}

/// Decode a payload of the given kind; the whole slice must be consumed.
pub fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, WireError> {
    let mut r = payload;
    let msg = Message::decode_payload_inner(kind, &mut r)?;
    if !r.is_empty() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after payload",
            r.len()
        )));
    }
    Ok(msg)
}

/// Replace `out` with one frame: the header, then the payload `payload`
/// writes, whose length is patched into the header afterwards.
fn encode_frame_with(
    out: &mut Vec<u8>,
    request_id: u64,
    kind: u8,
    payload: impl FnOnce(&mut Vec<u8>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    out.clear();
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.push(kind);
    out.push(0);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    payload(out)?;
    let len = out.len() - HEADER_LEN;
    if len > MAX_PAYLOAD as usize {
        return Err(WireError::Oversized {
            len: u32::try_from(len).unwrap_or(u32::MAX),
            max: MAX_PAYLOAD,
        });
    }
    out[16..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

/// Encode a complete frame (header + payload) into `out`, replacing what
/// it held; a reused buffer makes encoding allocation-free once it has
/// grown to the frame size.
pub(crate) fn encode_frame_into(
    out: &mut Vec<u8>,
    request_id: u64,
    msg: &Message,
) -> Result<(), WireError> {
    encode_frame_with(out, request_id, msg.kind(), |out| msg.encode_payload(out))
}

/// Encode a complete frame (header + payload) into a fresh buffer.
pub fn encode_frame(request_id: u64, msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    encode_frame_into(&mut out, request_id, msg)?;
    Ok(out)
}

/// Encode an `Ingest` frame into `out` straight from borrowed
/// `(entity, seq, values)` entries: the bytes [`encode_frame`] writes for
/// the [`Message::Ingest`] holding the same entries.
pub fn encode_ingest_frame<'a>(
    out: &mut Vec<u8>,
    request_id: u64,
    entries: impl IntoIterator<Item = (&'a str, Option<u64>, &'a [f32])>,
) -> Result<(), WireError> {
    encode_frame_with(out, request_id, KIND_INGEST, |out| {
        write_ingest_entries(out, entries)
    })
}

/// Encode a `Forecast` frame into `out` straight from borrowed ids: the
/// bytes [`encode_frame`] writes for the [`Message::Forecast`] holding the
/// same ids.
pub fn encode_forecast_frame<'a>(
    out: &mut Vec<u8>,
    request_id: u64,
    ids: impl IntoIterator<Item = &'a str>,
) -> Result<(), WireError> {
    encode_frame_with(out, request_id, KIND_FORECAST, |out| {
        write_str_list(out, ids)
    })
}

/// Decode one frame from the front of `bytes`. Returns the request id,
/// the message, and the number of bytes consumed (so buffered callers can
/// advance past the frame).
pub fn decode_frame(bytes: &[u8]) -> Result<(u64, Message, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            context: "frame header".into(),
        });
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    let h = parse_header(&header)?;
    let total = HEADER_LEN + h.payload_len as usize;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            context: "frame payload".into(),
        });
    }
    let msg = decode_payload(h.kind, &bytes[HEADER_LEN..total])?;
    Ok((h.request_id, msg, total))
}

/// Encode and write one frame to a stream.
pub fn write_frame<W: Write + ?Sized>(
    w: &mut W,
    request_id: u64,
    msg: &Message,
) -> Result<(), WireError> {
    write_encoded(w, &encode_frame(request_id, msg)?)
}

/// Write one already-encoded frame to a stream and flush it.
pub(crate) fn write_encoded<W: Write + ?Sized>(w: &mut W, frame: &[u8]) -> Result<(), WireError> {
    w.write_all(frame).map_err(|e| io_err("frame write", &e))?;
    w.flush().map_err(|e| io_err("frame flush", &e))?;
    Ok(())
}

/// Read one complete frame from a stream. A clean EOF before the first
/// header byte surfaces as `Truncated { context: "frame header" }`.
pub fn read_frame<R: Read + ?Sized>(r: &mut R) -> Result<(u64, Message), WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)
        .map_err(|e| io_err("frame header", &e))?;
    let h = parse_header(&header)?;
    let mut payload = vec![0u8; h.payload_len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| io_err("frame payload", &e))?;
    let msg = decode_payload(h.kind, &payload)?;
    Ok((h.request_id, msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Message) -> Message {
        let bytes = encode_frame(42, msg).expect("encode");
        let (id, decoded, used) = decode_frame(&bytes).expect("decode");
        assert_eq!(id, 42);
        assert_eq!(used, bytes.len());
        assert_eq!(
            encode_frame(42, &decoded).expect("re-encode"),
            bytes,
            "re-encode differs"
        );
        decoded
    }

    #[test]
    fn empty_payload_kinds_roundtrip() {
        for msg in [
            Message::Health,
            Message::Drain,
            Message::Shutdown,
            Message::ShutdownOk,
        ] {
            roundtrip(&msg);
        }
    }

    #[test]
    fn ingest_roundtrips() {
        let msg = Message::Ingest {
            entries: vec![
                IngestEntry {
                    entity: "c-001".into(),
                    seq: Some(7),
                    values: vec![1.5, -2.0],
                },
                IngestEntry {
                    entity: "c-002".into(),
                    seq: None,
                    values: vec![],
                },
            ],
        };
        match roundtrip(&msg) {
            Message::Ingest { entries } => {
                assert_eq!(entries.len(), 2);
                assert_eq!(entries[0].seq, Some(7));
                assert_eq!(entries[1].values.len(), 0);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn error_frame_roundtrips() {
        let msg = Message::Error(WireFault {
            code: ErrorCode::Draining,
            message: "drain in progress".into(),
        });
        match roundtrip(&msg) {
            Message::Error(f) => assert_eq!(f.code, ErrorCode::Draining),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_frame(1, &Message::Health).expect("encode");
        bytes[0] = b'X';
        assert!(matches!(decode_frame(&bytes), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut bytes = encode_frame(1, &Message::Health).expect("encode");
        bytes[4] = 9;
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::UnsupportedVersion(9))
        ));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut bytes = encode_frame(1, &Message::Health).expect("encode");
        bytes[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = encode_frame(
            1,
            &Message::Forecast {
                ids: vec!["a".into()],
            },
        )
        .expect("encode");
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).expect_err("must fail");
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn implausible_count_rejected() {
        // Hand-build a Forecast payload claiming u32::MAX ids.
        let mut payload = Vec::new();
        wire::write_u32(&mut payload, u32::MAX).expect("write");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        bytes.push(3);
        bytes.push(0);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn streamed_read_matches_buffered_decode() {
        let msg = Message::IngestOk {
            accepted: 3,
            unknown: vec!["u".into()],
            errors: vec![("e".into(), "boom".into())],
        };
        let bytes = encode_frame(9, &msg).expect("encode");
        let mut cursor = &bytes[..];
        let (id, decoded) = read_frame(&mut cursor).expect("read");
        assert_eq!(id, 9);
        assert_eq!(encode_frame(9, &decoded).expect("re-encode"), bytes);
    }
}
