//! Netlist validation errors.

use crate::ids::{CellId, NetId};
use std::error::Error;
use std::fmt;

/// Structural problems detected by [`crate::Netlist::check`] and the
/// topological-ordering queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net is driven by more than one output.
    MultipleDrivers {
        /// The conflicted net.
        net: NetId,
        /// The instances (and/or primary input) driving it.
        drivers: Vec<CellId>,
    },
    /// A net is read but never driven.
    UndrivenNet(NetId),
    /// A combinational feedback loop exists through these cells.
    CombinationalLoop(Vec<CellId>),
    /// An instance references a net id that does not exist.
    DanglingNet {
        /// The offending instance.
        cell: CellId,
        /// The missing net id.
        net: NetId,
    },
    /// A sequential cell is missing its clock connection.
    MissingClock(CellId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers { net, drivers } => {
                write!(f, "net {net} has {} drivers", drivers.len())
            }
            NetlistError::UndrivenNet(net) => write!(f, "net {net} is read but never driven"),
            NetlistError::CombinationalLoop(cells) => {
                write!(f, "combinational loop through {} cells", cells.len())
            }
            NetlistError::DanglingNet { cell, net } => {
                write!(f, "instance {cell} references nonexistent net {net}")
            }
            NetlistError::MissingClock(cell) => {
                write!(f, "sequential instance {cell} has no clock")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CellId, NetId};

    #[test]
    fn messages_mention_entities() {
        let e = NetlistError::UndrivenNet(NetId(5));
        assert!(e.to_string().contains("n5"));
        let e = NetlistError::MultipleDrivers {
            net: NetId(1),
            drivers: vec![CellId(0), CellId(2)],
        };
        assert!(e.to_string().contains("2 drivers"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}
