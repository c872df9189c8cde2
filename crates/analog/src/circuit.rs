//! Circuit description: nodes, devices and stimuli.
//!
//! A [`Circuit`] is a flat nodal netlist of analog elements — resistors,
//! capacitors, MOS transistors from the PDK compact model, and grounded
//! voltage sources with arbitrary stimuli. The receiver front end of the
//! paper (AC-coupling capacitor, resistive-feedback inverter, restoring
//! inverter) is a dozen of these elements.

use crate::waveform::Waveform;
use openserdes_pdk::mos::{MosDevice, MosType};
use std::fmt;

/// A circuit node handle. Node 0 is always ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Node(pub(crate) usize);

impl Node {
    /// The raw node index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A source stimulus: voltage as a function of time.
#[derive(Debug, Clone, PartialEq)]
pub enum Stimulus {
    /// Constant voltage.
    Dc(f64),
    /// Sampled waveform (clamped outside its span).
    Wave(Waveform),
    /// Piecewise-linear `(time, volts)` points; constant outside.
    Pwl(Vec<(f64, f64)>),
}

impl Stimulus {
    /// The stimulus value at time `t`.
    pub fn value_at(&self, t: f64) -> f64 {
        match self {
            Stimulus::Dc(v) => *v,
            Stimulus::Wave(w) => w.sample_at(t),
            Stimulus::Pwl(pts) => {
                if pts.is_empty() {
                    return 0.0;
                }
                if t <= pts[0].0 {
                    return pts[0].1;
                }
                for w in pts.windows(2) {
                    let ((t1, v1), (t2, v2)) = (w[0], w[1]);
                    if t <= t2 {
                        if t2 == t1 {
                            return v2;
                        }
                        return v1 + (v2 - v1) * (t - t1) / (t2 - t1);
                    }
                }
                pts.last().expect("nonempty").1
            }
        }
    }
}

/// An analog circuit element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Linear resistor between two nodes.
    Resistor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// Linear capacitor between two nodes.
    Capacitor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Capacitance in farads.
        farads: f64,
    },
    /// A MOS transistor (polarity from the device model).
    Mos {
        /// The sized device (NMOS or PMOS per its parameters).
        device: MosDevice,
        /// Drain node.
        d: Node,
        /// Gate node.
        g: Node,
        /// Source node.
        s: Node,
    },
}

/// A flat analog circuit.
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    names: Vec<String>,
    elements: Vec<Element>,
    sources: Vec<(Node, Stimulus)>,
}

impl Circuit {
    /// Creates a circuit containing only the ground node.
    pub fn new() -> Self {
        Self {
            names: vec!["gnd".to_string()],
            elements: Vec::new(),
            sources: Vec::new(),
        }
    }

    /// The ground node.
    pub fn gnd(&self) -> Node {
        Node(0)
    }

    /// Adds a named node.
    pub fn node(&mut self, name: impl Into<String>) -> Node {
        let id = Node(self.names.len());
        self.names.push(name.into());
        id
    }

    /// The name of a node.
    pub fn node_name(&self, n: Node) -> &str {
        &self.names[n.0]
    }

    /// Total node count (including ground).
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not positive and finite.
    pub fn resistor(&mut self, a: Node, b: Node, ohms: f64) {
        assert!(
            ohms > 0.0 && ohms.is_finite(),
            "resistance must be positive"
        );
        self.elements.push(Element::Resistor { a, b, ohms });
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not positive and finite.
    pub fn capacitor(&mut self, a: Node, b: Node, farads: f64) {
        assert!(
            farads > 0.0 && farads.is_finite(),
            "capacitance must be positive"
        );
        self.elements.push(Element::Capacitor { a, b, farads });
    }

    /// Adds a MOS transistor.
    pub fn mos(&mut self, device: MosDevice, d: Node, g: Node, s: Node) {
        self.elements.push(Element::Mos { device, d, g, s });
    }

    /// Adds a PMOS pseudo-resistor between `a` and `b`: a PMOS with gate
    /// and source tied to `a`, the synthesizable giga-ohm feedback element
    /// of the paper's receiver front end.
    ///
    /// # Panics
    ///
    /// Panics if `device` is not a PMOS.
    pub fn pseudo_resistor(&mut self, device: MosDevice, a: Node, b: Node) {
        assert_eq!(
            device.params.mos_type,
            MosType::Pmos,
            "pseudo-resistor uses a PMOS device"
        );
        self.mos(device, b, a, a);
    }

    /// Adds a grounded voltage source forcing `node` to the stimulus
    /// value. The node becomes *known* and is removed from the solve.
    pub fn vsource(&mut self, node: Node, stimulus: Stimulus) {
        self.sources.push((node, stimulus));
    }

    /// Pushes a raw element without the builder validations — the
    /// escape hatch for importers and DRC fixtures. The value checks
    /// skipped here are exactly what [`crate::drc`] reports
    /// (`AN002`/`AN003`), so anything smuggled in this way is still
    /// caught before it reaches the solver in debug builds.
    pub fn push_element(&mut self, e: Element) {
        self.elements.push(e);
    }

    /// Replaces element `index` in place — the mutation primitive
    /// behind per-point overrides in multi-point batches (see
    /// `solver::batched::PointOverride::circuit_for_point`). Values are
    /// validated like the builder methods; topology changes (different
    /// nodes or element kind) are allowed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the replacement carries a
    /// non-positive resistance/capacitance.
    pub fn set_element(&mut self, index: usize, e: Element) {
        assert!(index < self.elements.len(), "element index out of range");
        match e {
            Element::Resistor { ohms, .. } => {
                assert!(
                    ohms > 0.0 && ohms.is_finite(),
                    "resistance must be positive"
                );
            }
            Element::Capacitor { farads, .. } => {
                assert!(
                    farads > 0.0 && farads.is_finite(),
                    "capacitance must be positive"
                );
            }
            Element::Mos { .. } => {}
        }
        self.elements[index] = e;
    }

    /// Replaces the stimulus of voltage source `index`, keeping its
    /// node. The counterpart of [`Circuit::set_element`] for per-point
    /// source overrides (DC sweep values, per-corner input waveforms).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_source_stimulus(&mut self, index: usize, stimulus: Stimulus) {
        assert!(index < self.sources.len(), "source index out of range");
        self.sources[index].1 = stimulus;
    }

    /// The elements of the circuit.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// The voltage sources of the circuit.
    pub fn sources(&self) -> &[(Node, Stimulus)] {
        &self.sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::mos::MosParams;

    #[test]
    fn pwl_interpolates_and_clamps() {
        let s = Stimulus::Pwl(vec![(0.0, 0.0), (1.0, 1.8), (2.0, 1.8)]);
        assert_eq!(s.value_at(-1.0), 0.0);
        assert!((s.value_at(0.5) - 0.9).abs() < 1e-12);
        assert_eq!(s.value_at(1.5), 1.8);
        assert_eq!(s.value_at(99.0), 1.8);
    }

    #[test]
    fn dc_is_constant() {
        let s = Stimulus::Dc(1.8);
        assert_eq!(s.value_at(0.0), 1.8);
        assert_eq!(s.value_at(1e-6), 1.8);
    }

    #[test]
    fn wave_stimulus_samples() {
        let w = Waveform::new(0.0, 1.0, vec![0.0, 1.0]);
        let s = Stimulus::Wave(w);
        assert_eq!(s.value_at(0.5), 0.5);
    }

    #[test]
    fn builder_assigns_sequential_nodes() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        assert_eq!(c.gnd().index(), 0);
        assert_eq!(a.index(), 1);
        assert_eq!(b.index(), 2);
        assert_eq!(c.node_name(b), "b");
        c.resistor(a, b, 1e3);
        c.capacitor(b, c.gnd(), 1e-12);
        assert_eq!(c.elements().len(), 2);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn negative_resistance_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor(a, c.gnd(), -5.0);
    }

    #[test]
    #[should_panic(expected = "pseudo-resistor uses a PMOS")]
    fn nmos_pseudo_resistor_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let nmos = MosDevice::new(MosParams::sky130_nmos(&Pvt::nominal()), 1.0, 0.15);
        c.pseudo_resistor(nmos, a, b);
    }
}
