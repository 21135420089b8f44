//! The workspace-wide error type.
//!
//! Every fallible entry point of the public API — the
//! [`ChatPatternBuilder`](crate::ChatPatternBuilder), the
//! [`ChatPattern`](crate::ChatPattern) facade and the
//! [`PatternService`](crate::PatternService) trait — returns this one
//! [`Error`]. The `From` impls fold the per-subsystem failure types
//! (legalization, requirement parsing, snapshot decoding) into it, so
//! `?` works across crate boundaries.

use cp_agent::RequirementError;
use cp_layout::legalize::LegalizeFailure;

/// Any failure the ChatPattern system can report.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Invalid system configuration rejected by
    /// [`ChatPatternBuilder::build`](crate::ChatPatternBuilder::build).
    Config {
        /// What was wrong with the configuration.
        message: String,
    },
    /// Request parameters rejected at the service boundary before any
    /// work was attempted.
    InvalidRequest {
        /// What was wrong with the request.
        message: String,
    },
    /// A natural-language request could not be parsed into requirement
    /// lists.
    Requirement(RequirementError),
    /// Legalization failed; the payload explains where and why.
    Legalize(LegalizeFailure),
    /// A session id could not be resolved to a live session: it was
    /// never opened, already closed, expired past its TTL, or evicted
    /// to make room for a newer session. The message says which.
    SessionNotFound {
        /// The session id the request named.
        id: String,
        /// Why the id is not live (closed / expired / evicted / never
        /// opened).
        message: String,
    },
    /// The session durability layer failed: a spill could not be
    /// written, or a spilled/snapshotted session could not be decoded.
    /// The failing session stays live (a spill failure never silently
    /// drops it) and the store keeps working.
    SessionPersist {
        /// What went wrong in the persist layer.
        message: String,
    },
    /// The engine was dropped while the job was still queued; no work
    /// was done.
    Cancelled,
    /// The engine's bounded submission queue was full; the request was
    /// rejected without being enqueued. Retry later or use a blocking
    /// submit.
    QueueFull {
        /// The configured queue depth that was exhausted.
        depth: usize,
    },
    /// The tenant's QoS quota (concurrent jobs or turn budget) refused
    /// the request before it was enqueued. The hint says how long to
    /// back off; it travels on the wire as the `Overloaded` error kind
    /// with a `retry_after_ms` field.
    Overloaded {
        /// Milliseconds the client should wait before retrying.
        retry_after_ms: u64,
    },
    /// The service itself failed unexpectedly (it panicked while
    /// executing a request). The engine converts such panics into this
    /// error instead of hanging the job's waiters or killing the
    /// worker thread.
    Internal {
        /// What the panic reported.
        message: String,
    },
}

impl Error {
    /// Builder-validation error.
    #[must_use]
    pub fn config(message: impl Into<String>) -> Error {
        Error::Config {
            message: message.into(),
        }
    }

    /// Service-boundary validation error.
    #[must_use]
    pub fn invalid_request(message: impl Into<String>) -> Error {
        Error::InvalidRequest {
            message: message.into(),
        }
    }

    /// Unexpected service failure (a caught panic).
    #[must_use]
    pub fn internal(message: impl Into<String>) -> Error {
        Error::Internal {
            message: message.into(),
        }
    }

    /// Session-resolution error.
    #[must_use]
    pub(crate) fn session_not_found(id: impl Into<String>, message: impl Into<String>) -> Error {
        Error::SessionNotFound {
            id: id.into(),
            message: message.into(),
        }
    }

    /// Session-durability error (spill write or snapshot decode).
    #[must_use]
    pub(crate) fn session_persist(message: impl Into<String>) -> Error {
        Error::SessionPersist {
            message: message.into(),
        }
    }

    /// QoS admission rejection with a retry-after hint.
    #[must_use]
    pub(crate) fn overloaded(retry_after_ms: u64) -> Error {
        Error::Overloaded { retry_after_ms }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Config { message } => write!(f, "invalid configuration: {message}"),
            Error::InvalidRequest { message } => write!(f, "invalid request: {message}"),
            Error::Requirement(e) => write!(f, "{e}"),
            Error::Legalize(e) => write!(f, "{e}"),
            Error::SessionNotFound { id, message } => {
                write!(f, "session \"{id}\" not found: {message}")
            }
            Error::SessionPersist { message } => {
                write!(f, "session persistence failed: {message}")
            }
            Error::Cancelled => write!(f, "job cancelled before execution"),
            Error::QueueFull { depth } => {
                write!(f, "engine queue is full ({depth} jobs already pending)")
            }
            Error::Overloaded { retry_after_ms } => {
                write!(
                    f,
                    "service overloaded for this tenant; retry in {retry_after_ms} ms"
                )
            }
            Error::Internal { message } => write!(f, "internal service failure: {message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Requirement(e) => Some(e),
            Error::Legalize(e) => Some(e),
            Error::Config { .. }
            | Error::InvalidRequest { .. }
            | Error::SessionNotFound { .. }
            | Error::SessionPersist { .. }
            | Error::Cancelled
            | Error::QueueFull { .. }
            | Error::Overloaded { .. }
            | Error::Internal { .. } => None,
        }
    }
}

impl From<cp_agent::SnapshotError> for Error {
    fn from(e: cp_agent::SnapshotError) -> Error {
        Error::session_persist(e.to_string())
    }
}

impl From<LegalizeFailure> for Error {
    fn from(e: LegalizeFailure) -> Error {
        Error::Legalize(e)
    }
}

impl From<RequirementError> for Error {
    fn from(e: RequirementError) -> Error {
        Error::Requirement(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_layout::geom::Axis;
    use cp_layout::legalize::FailureKind;
    use cp_layout::squish::Region;

    #[test]
    fn display_covers_every_variant() {
        let config = Error::config("window must be at least 4 (got 1)");
        assert!(config.to_string().contains("invalid configuration"));
        let request = Error::invalid_request("count must be positive");
        assert!(request.to_string().contains("invalid request"));
        let requirement: Error = RequirementError::new("empty").into();
        assert!(requirement
            .to_string()
            .contains("requirement parsing failed"));
        let legalize: Error = LegalizeFailure {
            kind: FailureKind::Infeasible { axis: Axis::X },
            region: Region::new(0, 0, 2, 2),
            needed: 300,
            available: 200,
            log: String::new(),
        }
        .into();
        assert!(legalize.to_string().contains("infeasible"));
        assert!(Error::Cancelled.to_string().contains("cancelled"));
        let full = Error::QueueFull { depth: 8 };
        assert!(full.to_string().contains("queue is full"));
        assert!(full.to_string().contains('8'));
        let overloaded = Error::overloaded(250);
        assert!(overloaded.to_string().contains("overloaded"));
        assert!(overloaded.to_string().contains("250 ms"));
        let internal = Error::internal("worker exploded");
        assert!(internal.to_string().contains("internal service failure"));
        assert!(internal.to_string().contains("worker exploded"));
        let session = Error::session_not_found("u-42", "evicted to make room");
        assert!(session.to_string().contains("u-42"));
        assert!(session.to_string().contains("evicted"));
        let persist = Error::session_persist("disk full");
        assert!(persist.to_string().contains("session persistence failed"));
        assert!(persist.to_string().contains("disk full"));
    }

    #[test]
    fn from_conversions_preserve_payloads() {
        let requirement = RequirementError::new("nope");
        match Error::from(requirement.clone()) {
            Error::Requirement(inner) => assert_eq!(inner, requirement),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn source_chains_to_inner_errors() {
        use std::error::Error as _;
        let err: Error = RequirementError::new("inner message").into();
        let source = err.source().expect("requirement errors chain");
        assert!(source.to_string().contains("inner message"));
        assert!(Error::config("x").source().is_none());
    }
}
