//! Code-reuse accounting: the arithmetic behind §4.1–4.3 and Table 3.
//!
//! A *module* is one implementation artifact a team must write and
//! maintain: a building-block implementation for one NF type, an
//! NF-agnostic building block, or a workflow. A custom (pre-CORNET)
//! solution reimplements every block and every workflow per NF type and
//! per composition; CORNET implements NF-agnostic blocks and workflows
//! once.

use cornet_catalog::Catalog;

/// One reuse experiment: which blocks, how many NF types, how many
/// workflow compositions.
#[derive(Clone, Debug, PartialEq)]
pub struct ReuseScenario {
    /// Scenario name (Table 3 row).
    pub name: String,
    /// Building blocks used by the scenario's workflows.
    pub blocks: Vec<String>,
    /// Network-function types supported.
    pub nf_count: usize,
    /// Distinct workflow compositions required (constraint combinations in
    /// §4.2, rule compositions in §4.3, one per service in §4.1).
    pub workflow_variants: usize,
    /// Whether a custom solution would also reimplement the *blocks* per
    /// composition (true for the impact verifier, §4.3, where aggregation
    /// attributes change the block implementations; false for the planner,
    /// §4.2, where compositions only multiply the workflows/solvers).
    pub blocks_per_composition: bool,
    /// Loss in efficiency vs the custom solution, as a fraction (§4 Table
    /// 3's third column; measured, not derived — stored for reporting).
    pub efficiency_loss: f64,
}

/// A computed Table 3 row.
#[derive(Clone, Debug, PartialEq)]
pub struct ReuseRow {
    /// Scenario name.
    pub name: String,
    /// Modules a custom solution needs.
    pub custom_modules: usize,
    /// Modules CORNET needs.
    pub cornet_modules: usize,
    /// Code re-use percentage: `(custom − cornet) / custom`.
    pub reuse_pct: f64,
    /// Loss in efficiency (fraction).
    pub efficiency_loss: f64,
}

impl ReuseScenario {
    /// §4.1: designer & orchestrator over six vNFs with three blocks and
    /// one workflow per service in the custom world.
    pub fn designer_orchestrator() -> Self {
        ReuseScenario {
            name: "Designer and orchestrator".into(),
            blocks: vec![
                "health_check".into(),
                "software_upgrade".into(),
                "pre_post_comparison".into(),
            ],
            nf_count: 6,
            workflow_variants: 1,
            blocks_per_composition: false,
            efficiency_loss: 0.0,
        }
    }

    /// §4.2: schedule planner over six NF types (two RAN, two transport,
    /// two core) and 16 constraint compositions.
    pub fn schedule_planner() -> Self {
        ReuseScenario {
            name: "Schedule planner".into(),
            blocks: vec![
                "detect_conflicts".into(),
                "extract_topology".into(),
                "extract_inventory".into(),
                "model_translation".into(),
                "optimization_solver".into(),
            ],
            nf_count: 6,
            workflow_variants: 16,
            blocks_per_composition: false,
            efficiency_loss: 0.07,
        }
    }

    /// §4.3: impact verifier over three NF types and three compositions of
    /// attributes and verification rules.
    pub fn impact_verifier() -> Self {
        ReuseScenario {
            name: "Impact verifier".into(),
            blocks: vec![
                "change_scope".into(),
                "extract_kpi".into(),
                "extract_topology_verify".into(),
                "extract_inventory_verify".into(),
                "aggregate_kpi".into(),
                "impact_detection".into(),
            ],
            nf_count: 3,
            workflow_variants: 3,
            blocks_per_composition: true,
            efficiency_loss: 0.0,
        }
    }

    /// Modules a custom solution needs: every block per NF type, plus a
    /// workflow per NF type per composition.
    pub fn custom_modules(&self, catalog: &Catalog) -> usize {
        let blocks: Vec<&str> = self.blocks.iter().map(String::as_str).collect();
        let block_multiplier = if self.blocks_per_composition {
            self.workflow_variants
        } else {
            1
        };
        catalog.modules_custom(&blocks, self.nf_count) * block_multiplier
            + self.nf_count * self.workflow_variants
    }

    /// Modules CORNET needs: NF-agnostic blocks once, NF-specific blocks
    /// per NF type, and a single NF-agnostic workflow.
    pub fn cornet_modules(&self, catalog: &Catalog) -> usize {
        let blocks: Vec<&str> = self.blocks.iter().map(String::as_str).collect();
        catalog.modules_with_cornet(&blocks, self.nf_count) + 1
    }

    /// Compute the Table 3 row.
    pub fn row(&self, catalog: &Catalog) -> ReuseRow {
        let custom = self.custom_modules(catalog);
        let cornet = self.cornet_modules(catalog);
        ReuseRow {
            name: self.name.clone(),
            custom_modules: custom,
            cornet_modules: cornet,
            reuse_pct: 100.0 * (custom - cornet) as f64 / custom as f64,
            efficiency_loss: self.efficiency_loss,
        }
    }
}

/// All three Table 3 rows.
pub fn table3(catalog: &Catalog) -> Vec<ReuseRow> {
    [
        ReuseScenario::designer_orchestrator(),
        ReuseScenario::schedule_planner(),
        ReuseScenario::impact_verifier(),
    ]
    .iter()
    .map(|s| s.row(catalog))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_catalog::builtin_catalog;

    #[test]
    fn designer_orchestrator_matches_section_4_1() {
        // Paper: 24 custom (18 NF-specific BB + 6 NF-specific WF) vs 14
        // CORNET (1 NF-agnostic BB + 12 NF-specific BB + 1 NF-agnostic
        // WF) → 42% reuse.
        let cat = builtin_catalog();
        let s = ReuseScenario::designer_orchestrator();
        assert_eq!(s.custom_modules(&cat), 24);
        assert_eq!(s.cornet_modules(&cat), 14);
        let row = s.row(&cat);
        assert!((row.reuse_pct - 42.0).abs() < 1.0, "{}", row.reuse_pct);
    }

    #[test]
    fn schedule_planner_matches_section_4_2() {
        // Paper: 126 custom (30 NF-specific BB + 96 NF-specific WF) vs 11
        // CORNET (6 NF-specific BB + 4 NF-agnostic BB + 1 WF) → 91% reuse.
        let cat = builtin_catalog();
        let s = ReuseScenario::schedule_planner();
        assert_eq!(s.custom_modules(&cat), 126);
        assert_eq!(s.cornet_modules(&cat), 11);
        let row = s.row(&cat);
        assert!((row.reuse_pct - 91.0).abs() < 1.0, "{}", row.reuse_pct);
    }

    #[test]
    fn impact_verifier_matches_section_4_3() {
        // Paper: 63 custom (54 NF-specific BB + 9 NF-specific WF) vs 11
        // CORNET (6 NF-specific BB + 4 NF-agnostic BB + 1 WF) → 83% reuse.
        let cat = builtin_catalog();
        let s = ReuseScenario::impact_verifier();
        assert_eq!(s.custom_modules(&cat), 63);
        assert_eq!(s.cornet_modules(&cat), 11);
        let row = s.row(&cat);
        assert!((row.reuse_pct - 83.0).abs() < 1.0, "{}", row.reuse_pct);
    }

    #[test]
    fn table3_summarizes_all_rows() {
        let cat = builtin_catalog();
        let rows = table3(&cat);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].efficiency_loss, 0.07, "planner pays 7% makespan");
        assert_eq!(rows[0].efficiency_loss, 0.0);
        assert_eq!(rows[2].efficiency_loss, 0.0);
    }
}
