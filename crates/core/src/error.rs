//! The unified [`Error`] surfaced by every engine entry point of this
//! crate and by [`crate::session::Session`].

use openserdes_analog::SolverError;
use openserdes_flow::FlowError;
use openserdes_netlist::NetlistError;
use std::error::Error as StdError;
use std::fmt;

/// The unified error surface of the [`crate::session::Session`] API —
/// every entry point (link, analog, flow, lint, sweeps) reports through
/// this one enum, so callers match a single type regardless of which
/// layer failed.
///
/// Marked `#[non_exhaustive]`: future layers may add variants without a
/// breaking release, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The RTL→layout flow refused or failed on a design.
    Flow(FlowError),
    /// The analog solver failed (DC or transient).
    Solver(SolverError),
    /// An operation produced or met an invalid netlist.
    Netlist(NetlistError),
    /// A serialized job ([`crate::job::Request`] / wire frame) was
    /// malformed: bad JSON, an unknown kind, or an out-of-range field.
    Parse(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Flow(e) => write!(f, "flow: {e}"),
            Error::Solver(e) => write!(f, "solver: {e}"),
            Error::Netlist(e) => write!(f, "netlist: {e}"),
            Error::Parse(msg) => write!(f, "parse: {msg}"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Flow(e) => Some(e),
            Error::Solver(e) => Some(e),
            Error::Netlist(e) => Some(e),
            Error::Parse(_) => None,
        }
    }
}

impl From<FlowError> for Error {
    fn from(e: FlowError) -> Self {
        Error::Flow(e)
    }
}

impl From<SolverError> for Error {
    fn from(e: SolverError) -> Self {
        Error::Solver(e)
    }
}

impl From<NetlistError> for Error {
    fn from(e: NetlistError) -> Self {
        Error::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = SolverError::NonConvergence {
            time: 1e-9,
            iterations: 120,
            worst_node: Some("out".into()),
        }
        .into();
        assert!(matches!(e, Error::Solver(_)));
        assert!(e.to_string().starts_with("solver: "));
        assert!(e.to_string().contains("120 iterations"));
        assert!(StdError::source(&e).is_some());
        let e = Error::Parse("bad kind".into());
        assert_eq!(e.to_string(), "parse: bad kind");
        assert!(StdError::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
