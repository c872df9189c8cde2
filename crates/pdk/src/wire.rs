//! Interconnect parasitics: per-layer wire RC and wireload estimation.
//!
//! The routing estimate in `openserdes-flow` converts net wirelength into
//! resistance and capacitance using these per-µm constants, which follow
//! the sky130 metal stack (thin lower metals are resistive, upper metals
//! are fat and fast). A simple fanout-based wireload model is provided for
//! pre-placement timing, mirroring what synthesis tools do before layout.

use crate::units::{Farad, Micron, Ohm};
use std::fmt;

/// Routing metal layer of the sky130 five-metal stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MetalLayer {
    /// Local interconnect / metal 1 — thin and resistive.
    M1,
    /// Metal 2.
    M2,
    /// Metal 3.
    M3,
    /// Metal 4.
    M4,
    /// Metal 5 — thick top metal for clocks and supplies.
    M5,
}

impl MetalLayer {
    /// All layers, bottom-up.
    pub const ALL: [MetalLayer; 5] = [
        MetalLayer::M1,
        MetalLayer::M2,
        MetalLayer::M3,
        MetalLayer::M4,
        MetalLayer::M5,
    ];

    /// Sheet-derived wire resistance per µm of minimum-width wire.
    pub fn r_per_um(self) -> Ohm {
        match self {
            MetalLayer::M1 => Ohm::new(1.2),
            MetalLayer::M2 => Ohm::new(0.9),
            MetalLayer::M3 => Ohm::new(0.5),
            MetalLayer::M4 => Ohm::new(0.3),
            MetalLayer::M5 => Ohm::new(0.03),
        }
    }

    /// Wire capacitance per µm (to ground plus coupling, lumped).
    pub fn c_per_um(self) -> Farad {
        match self {
            MetalLayer::M1 => Farad::from_ff(0.20),
            MetalLayer::M2 => Farad::from_ff(0.19),
            MetalLayer::M3 => Farad::from_ff(0.17),
            MetalLayer::M4 => Farad::from_ff(0.16),
            MetalLayer::M5 => Farad::from_ff(0.14),
        }
    }
}

impl fmt::Display for MetalLayer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "met{}", *self as u8 + 1)
    }
}

/// Fanout-based wireload model for pre-layout estimation.
///
/// Statistical model in the spirit of liberty `wire_load` tables: the
/// expected routed length of a net grows roughly linearly with its fanout,
/// scaled by the average cell pitch of the block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireloadModel {
    /// Average µm of wire per sink pin.
    pub um_per_fanout: f64,
    /// Fixed overhead per net in µm.
    pub base_um: f64,
    /// Layer the estimate is referenced to.
    pub layer: MetalLayer,
}

impl WireloadModel {
    /// The model used for small blocks (< few thousand cells).
    pub fn small_block() -> Self {
        Self {
            um_per_fanout: 6.0,
            base_um: 4.0,
            layer: MetalLayer::M2,
        }
    }

    /// Estimated routed length of a net with the given fanout.
    pub fn length(&self, fanout: usize) -> Micron {
        Micron::new(self.base_um + self.um_per_fanout * fanout as f64)
    }

    /// Estimated net capacitance (wire only, excluding pins).
    pub fn capacitance(&self, fanout: usize) -> Farad {
        self.layer.c_per_um() * self.length(fanout).value()
    }

    /// Estimated net resistance.
    pub fn resistance(&self, fanout: usize) -> Ohm {
        self.layer.r_per_um() * self.length(fanout).value()
    }
}

impl Default for WireloadModel {
    fn default() -> Self {
        Self::small_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_metals_are_faster() {
        for w in MetalLayer::ALL.windows(2) {
            assert!(w[1].r_per_um().value() < w[0].r_per_um().value());
            assert!(w[1].c_per_um().value() <= w[0].c_per_um().value());
        }
    }

    #[test]
    fn wireload_grows_with_fanout() {
        let m = WireloadModel::small_block();
        assert!(m.length(1).value() < m.length(4).value());
        assert!(m.capacitance(1).ff() < m.capacitance(4).ff());
        assert!(
            m.resistance(0).value() > 0.0,
            "base overhead always present"
        );
    }

    #[test]
    fn layer_names() {
        assert_eq!(format!("{}", MetalLayer::M1), "met1");
        assert_eq!(format!("{}", MetalLayer::M5), "met5");
    }
}
