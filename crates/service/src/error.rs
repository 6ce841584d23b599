//! Typed service errors and the mapping from library errors onto wire
//! error codes.
//!
//! The serving layer never panics on behalf of a request: untrusted bytes
//! fail in the decoder ([`ErrorCode::BadRequest`]), bad problem inputs fail
//! in the `try_` facades ([`ErrorCode::InvalidInput`], permanent), and
//! failed runs surface as [`ErrorCode::Execution`] (retryable — the
//! facade's built-in [`sfcp_pram::Ctx::recover`] already reconciled the
//! worker's workspace before the response was written).

use sfcp::DecomposeError;
use std::fmt;

/// Wire error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame payload was not a valid request (garbage JSON, unknown
    /// kind, wrong field types).
    BadRequest,
    /// The problem input was rejected by validation (permanent).
    InvalidInput,
    /// The run failed; the worker recovered and a retry may succeed.
    Execution,
    /// The server hit an internal invariant failure; the worker recovered.
    Internal,
}

impl ErrorCode {
    /// The wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::InvalidInput => "invalid_input",
            ErrorCode::Execution => "execution",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parse a wire name (unknown names map to [`ErrorCode::Internal`]).
    #[must_use]
    pub fn from_name(name: &str) -> ErrorCode {
        match name {
            "bad_request" => ErrorCode::BadRequest,
            "invalid_input" => ErrorCode::InvalidInput,
            "execution" => ErrorCode::Execution,
            _ => ErrorCode::Internal,
        }
    }
}

/// A typed error reply, carried on the `ok:false` arm of a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Echoed request id (0 when the id itself did not parse).
    pub id: u64,
    /// The error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Whether retrying the identical request may succeed.
    pub retryable: bool,
}

impl fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.name(), self.message)
    }
}

impl std::error::Error for ErrorReply {}

impl ErrorReply {
    /// A request-decoding failure.
    #[must_use]
    pub fn bad_request(message: impl Into<String>) -> ErrorReply {
        ErrorReply {
            id: 0,
            code: ErrorCode::BadRequest,
            message: message.into(),
            retryable: false,
        }
    }

    /// Map a [`sfcp_pram::Error`] from a `try_` facade: validation errors
    /// are permanent [`ErrorCode::InvalidInput`], caught panics and
    /// injected faults are retryable [`ErrorCode::Execution`].
    #[must_use]
    pub fn from_pram(id: u64, err: &sfcp_pram::Error) -> ErrorReply {
        let execution = matches!(
            err,
            sfcp_pram::Error::Panicked { .. } | sfcp_pram::Error::Injected(_)
        );
        ErrorReply {
            id,
            code: if execution {
                ErrorCode::Execution
            } else {
                ErrorCode::InvalidInput
            },
            message: err.to_string(),
            retryable: execution,
        }
    }

    /// Map a solver-facade [`DecomposeError`].
    #[must_use]
    pub fn from_solver(id: u64, err: &DecomposeError) -> ErrorReply {
        match err {
            DecomposeError::InvalidInput(e) => ErrorReply {
                id,
                code: ErrorCode::InvalidInput,
                message: e.to_string(),
                retryable: false,
            },
            DecomposeError::Execution(e) => ErrorReply {
                id,
                code: ErrorCode::Execution,
                message: e.to_string(),
                retryable: err.is_retryable(),
            },
            // `DecomposeError` is non-exhaustive; future variants surface
            // as internal-but-retryable rather than a stale mapping.
            other => ErrorReply {
                id,
                code: ErrorCode::Internal,
                message: other.to_string(),
                retryable: other.is_retryable(),
            },
        }
    }
}
