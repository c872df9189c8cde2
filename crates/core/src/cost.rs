//! Relative chip-cost model (the paper's Fig. 2).
//!
//! The paper motivates open-source hardware with a bar chart of relative
//! chip fabrication cost across process nodes, split into fabrication
//! and PDK-licensing components; the open PDK removes the licensing
//! component. Licensing costs are not public, so — like the paper — the
//! model scales them relative to fabrication cost and node maturity.
//! All numbers are normalized to the 130 nm fabrication cost.

/// One node's relative cost breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPoint {
    /// Process node in nm.
    pub node_nm: u32,
    /// Relative fabrication (mask + wafer) cost.
    pub fabrication: f64,
    /// Relative PDK licensing / NRE cost for a traditional PDK.
    pub licensing: f64,
    /// `true` when an open PDK exists for this node (sky130).
    pub open_pdk_available: bool,
}

impl CostPoint {
    /// Total cost with a traditional PDK.
    pub fn traditional(&self) -> f64 {
        self.fabrication + self.licensing
    }

    /// Total cost with an open PDK (licensing removed), if available.
    pub fn open_pdk(&self) -> Option<f64> {
        self.open_pdk_available.then_some(self.fabrication)
    }

    /// Relative saving from the open PDK, in percent of the traditional
    /// cost (zero when no open PDK exists).
    pub fn saving_percent(&self) -> f64 {
        match self.open_pdk() {
            Some(open) => 100.0 * (self.traditional() - open) / self.traditional(),
            None => 0.0,
        }
    }
}

/// The Fig. 2 cost series across process nodes.
///
/// Fabrication cost follows the well-documented super-linear growth of
/// mask-set cost with node advancement (`(130/node)^1.6`); licensing is
/// modelled as a node-dependent fraction of fabrication that grows for
/// advanced nodes (stricter legal terms, larger deck complexity).
pub fn cost_model() -> Vec<CostPoint> {
    [180u32, 130, 90, 65, 40, 28]
        .iter()
        .map(|&node| {
            let fabrication = (130.0 / node as f64).powf(1.6);
            let license_fraction = 0.35 + 0.5 * (1.0 - node as f64 / 180.0);
            CostPoint {
                node_nm: node,
                fabrication,
                licensing: fabrication * license_fraction,
                open_pdk_available: node == 130,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chart_has_six_nodes() {
        assert_eq!(cost_model().len(), 6);
    }

    #[test]
    fn advanced_nodes_cost_more() {
        let m = cost_model();
        for w in m.windows(2) {
            assert!(w[1].fabrication > w[0].fabrication);
            assert!(w[1].traditional() > w[0].traditional());
        }
    }

    #[test]
    fn only_130nm_has_an_open_pdk() {
        let m = cost_model();
        let open: Vec<u32> = m
            .iter()
            .filter(|p| p.open_pdk_available)
            .map(|p| p.node_nm)
            .collect();
        assert_eq!(open, [130]);
    }

    #[test]
    fn open_pdk_saves_the_license_share() {
        let m = cost_model();
        let p130 = m.iter().find(|p| p.node_nm == 130).expect("130 nm");
        let saving = p130.saving_percent();
        // License fraction at 130 nm ≈ 0.49 of fab → ≈ 33 % saving.
        assert!((25.0..45.0).contains(&saving), "saving = {saving:.1} %");
        assert_eq!(p130.open_pdk(), Some(p130.fabrication));
    }

    #[test]
    fn normalized_to_130nm_fab() {
        let m = cost_model();
        let p130 = m.iter().find(|p| p.node_nm == 130).expect("130 nm");
        assert!((p130.fabrication - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_open_pdk_no_saving() {
        let m = cost_model();
        let p28 = m.iter().find(|p| p.node_nm == 28).expect("28 nm");
        assert_eq!(p28.saving_percent(), 0.0);
        assert_eq!(p28.open_pdk(), None);
    }
}
