//! Value-change traces.
//!
//! The event simulator records every net transition into a [`Trace`];
//! downstream code queries values at arbitrary times (for sampling-point
//! analysis) and counts toggles (for activity-based power) — the digital
//! counterpart of the paper's Fig. 8 waveform plots.

use crate::logic::Logic;
use openserdes_netlist::NetId;

/// A time-ordered list of value changes per net. Times are in integer
/// picoseconds (the simulator's native resolution).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    changes: Vec<Vec<(u64, Logic)>>,
}

impl Trace {
    /// Creates a trace covering `nets` nets, all starting at `X`.
    pub fn new(nets: usize) -> Self {
        Self {
            changes: vec![Vec::new(); nets],
        }
    }

    /// Records a change on `net` at `time_ps`. Redundant changes (same
    /// value as the last recorded one) are dropped.
    pub fn record(&mut self, net: NetId, time_ps: u64, value: Logic) {
        let list = &mut self.changes[net.index()];
        if let Some(&(last_t, last_v)) = list.last() {
            if last_v == value {
                return;
            }
            debug_assert!(time_ps >= last_t, "trace times must be monotonic");
        }
        list.push((time_ps, value));
    }

    /// The value of `net` at `time_ps` (the latest change at or before
    /// that time; `X` before the first change).
    pub fn value_at(&self, net: NetId, time_ps: u64) -> Logic {
        let list = &self.changes[net.index()];
        match list.partition_point(|&(t, _)| t <= time_ps) {
            0 => Logic::X,
            i => list[i - 1].1,
        }
    }

    /// Total transition count on `net` (both directions, known values).
    pub fn toggle_count(&self, net: NetId) -> usize {
        self.changes[net.index()]
            .windows(2)
            .filter(|w| w[0].1.is_known() && w[1].1.is_known() && w[0].1 != w[1].1)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(i: u32) -> NetId {
        // NetId has a crate-private constructor; go through a Netlist.
        let mut nl = openserdes_netlist::Netlist::new("t");
        let mut id = nl.add_net("n0");
        for k in 1..=i {
            id = nl.add_net(format!("n{k}"));
        }
        id
    }

    fn sample_trace() -> Trace {
        let mut t = Trace::new(2);
        let a = net(0);
        let b = net(1);
        t.record(a, 0, Logic::Zero);
        t.record(a, 100, Logic::One);
        t.record(a, 200, Logic::Zero);
        t.record(a, 300, Logic::One);
        t.record(b, 50, Logic::One);
        t
    }

    #[test]
    fn value_at_finds_latest_change() {
        let t = sample_trace();
        let a = net(0);
        assert_eq!(t.value_at(a, 0), Logic::Zero);
        assert_eq!(t.value_at(a, 99), Logic::Zero);
        assert_eq!(t.value_at(a, 100), Logic::One);
        assert_eq!(t.value_at(a, 150), Logic::One);
        assert_eq!(t.value_at(a, 500), Logic::One);
    }

    #[test]
    fn value_before_first_change_is_x() {
        let t = sample_trace();
        let b = net(1);
        assert_eq!(t.value_at(b, 10), Logic::X);
        assert_eq!(t.value_at(b, 50), Logic::One);
    }

    #[test]
    fn redundant_changes_dropped() {
        let mut t = Trace::new(1);
        let a = net(0);
        t.record(a, 0, Logic::One);
        t.record(a, 10, Logic::One);
        assert_eq!(t.changes[a.index()].len(), 1);
    }

    #[test]
    fn edge_counting() {
        let t = sample_trace();
        let a = net(0);
        assert_eq!(t.toggle_count(a), 3);
    }
}
