//! Service-level error type: everything that can go wrong between an
//! ingest call and a forecast reply.

use std::fmt;

use models::checkpoint::CheckpointError;
use timeseries::FrameError;

/// Errors surfaced by the prediction service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The entity id has never been onboarded (or lives on another service).
    UnknownEntity(String),
    /// An entity with this id is already being served.
    DuplicateEntity(String),
    /// The shard's ingest queue is full and the backpressure policy is
    /// [`Reject`](crate::service::Backpressure::Reject).
    QueueFull {
        /// The shard whose queue is full.
        shard: usize,
        /// The entity whose sample was refused.
        entity: String,
    },
    /// The shard worker thread is gone (service shutting down or panicked).
    ShardDown(usize),
    /// The entity's serving state is unusable: its model crashed or went
    /// non-finite *and* the naive fallback has no history to serve from.
    Poisoned(String),
    /// A background refit for this entity exceeded the configured deadline
    /// and was abandoned; the entity keeps serving from its previous model
    /// (or the fallback if it is degraded).
    RefitTimeout {
        /// The entity whose refit was abandoned.
        entity: String,
    },
    /// Preprocessing / pipeline failure (bad sample width, short history…).
    Frame(String),
    /// Checkpoint serialisation or restore failure.
    Checkpoint(String),
    /// The OS refused to spawn a worker thread while bringing the
    /// service up (resource exhaustion); the service cannot start.
    Spawn(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownEntity(id) => write!(f, "unknown entity `{id}`"),
            ServeError::DuplicateEntity(id) => write!(f, "entity `{id}` already exists"),
            ServeError::QueueFull { shard, entity } => {
                write!(
                    f,
                    "shard {shard} queue full, sample for `{entity}` rejected"
                )
            }
            ServeError::ShardDown(shard) => write!(f, "shard {shard} is down"),
            ServeError::Poisoned(id) => {
                write!(f, "entity `{id}` state is poisoned and no fallback is warm")
            }
            ServeError::RefitTimeout { entity } => {
                write!(f, "background refit for `{entity}` timed out")
            }
            ServeError::Frame(msg) => write!(f, "pipeline error: {msg}"),
            ServeError::Checkpoint(msg) => write!(f, "checkpoint error: {msg}"),
            ServeError::Spawn(msg) => write!(f, "failed to spawn worker thread: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        ServeError::Frame(e.0)
    }
}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Checkpoint(e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_entity_and_shard() {
        let e = ServeError::QueueFull {
            shard: 3,
            entity: "c_42".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("shard 3") && msg.contains("c_42"), "{msg}");
    }

    #[test]
    fn conversions_preserve_messages() {
        let f: ServeError = FrameError("too short".into()).into();
        assert_eq!(f, ServeError::Frame("too short".into()));
        let c: ServeError = CheckpointError("bad magic".into()).into();
        assert_eq!(c, ServeError::Checkpoint("bad magic".into()));
    }
}
