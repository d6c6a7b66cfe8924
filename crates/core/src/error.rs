//! Engine errors.

use std::fmt;

use dpx10_apgas::PlaceId;
use dpx10_dag::ValidationError;

/// Failure modes of an engine run.
#[derive(Debug)]
pub enum EngineError {
    /// The DAG pattern violates its contract (see
    /// [`dpx10_dag::validate_pattern`]).
    InvalidPattern(ValidationError),
    /// The run stopped making progress — a bug in a custom pattern
    /// (e.g. an unreachable vertex) or in the engine itself.
    Stalled {
        /// Vertices finished before the stall.
        finished: u64,
        /// Vertices in the DAG.
        total: u64,
    },
    /// A worker thread of `place` unwound — the app's `compute()`
    /// panicked (the panic message is on stderr).
    WorkerPanicked {
        /// The place whose worker panicked.
        place: PlaceId,
    },
    /// A planned fault targets a place that does not exist or is place 0.
    BadFaultPlan(String),
    /// Rectangular tiling of the pattern would create a tile-level cycle
    /// (see [`dpx10_dag::tiled::TilingCycle`]).
    Untileable(dpx10_dag::tiled::TilingCycle),
    /// The socket backend failed outside the fault-tolerance protocol —
    /// mesh formation, an unrecoverable peer loss (place 0), or an I/O
    /// error on the coordinator itself.
    Socket(String),
    /// The operating system refused something every backend needs — the
    /// checkpoint directory, a worker thread.
    Io(String),
    /// The multi-job server rejected a submission or a serve
    /// configuration — a full admission queue (backpressure), a job
    /// pinned to places outside the mesh, or a placement missing the
    /// coordinator place 0.
    Job(String),
    /// The config asks for something this backend cannot honour:
    /// refused, so a run never silently differs from its config.
    Unsupported {
        /// The backend that refused.
        backend: &'static str,
        /// The `EngineConfig` field it cannot honour.
        field: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidPattern(e) => write!(f, "invalid DAG pattern: {e}"),
            EngineError::Stalled { finished, total } => {
                write!(f, "engine stalled at {finished}/{total} vertices")
            }
            EngineError::WorkerPanicked { place } => {
                write!(f, "a worker thread of {place} panicked")
            }
            EngineError::BadFaultPlan(msg) => write!(f, "bad fault plan: {msg}"),
            EngineError::Untileable(e) => write!(f, "{e}"),
            EngineError::Socket(msg) => write!(f, "socket backend: {msg}"),
            EngineError::Io(msg) => write!(f, "i/o: {msg}"),
            EngineError::Job(msg) => write!(f, "job server: {msg}"),
            EngineError::Unsupported { backend, field } => {
                write!(f, "the {backend} backend does not support `{field}`")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::InvalidPattern(e) => Some(e),
            EngineError::Untileable(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidationError> for EngineError {
    fn from(e: ValidationError) -> Self {
        EngineError::InvalidPattern(e)
    }
}

impl From<dpx10_dag::tiled::TilingCycle> for EngineError {
    fn from(e: dpx10_dag::tiled::TilingCycle) -> Self {
        EngineError::Untileable(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = EngineError::Stalled {
            finished: 3,
            total: 10,
        };
        assert_eq!(e.to_string(), "engine stalled at 3/10 vertices");
    }
}
