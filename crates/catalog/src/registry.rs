//! The catalog registry: block specs plus registered implementations.
//!
//! An *implementation* binds a block to a network-function type (or to all
//! of them when the block is NF-agnostic) and records the technology used.
//! Counting implementations is exactly how §4 measures code re-use: a
//! custom solution needs one module per (block, NF) pair, while CORNET
//! needs a single module for each NF-agnostic block.

use crate::block::{BlockSpec, Phase, RunnerKind};
use cornet_types::NfType;
use std::collections::BTreeMap;

/// A registered implementation of a building block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Implementation {
    /// Block name the implementation serves.
    pub block: String,
    /// NF type the implementation is specific to; `None` for an NF-agnostic
    /// implementation that serves every type.
    pub nf_type: Option<NfType>,
    /// Implementation technology.
    pub runner: RunnerKind,
}

/// The building-block catalog.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    blocks: BTreeMap<String, BlockSpec>,
    implementations: Vec<Implementation>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a block spec.
    pub fn register(&mut self, spec: BlockSpec) {
        self.blocks.insert(spec.name.clone(), spec);
    }

    /// Look up a block by name.
    pub fn get(&self, name: &str) -> Option<&BlockSpec> {
        self.blocks.get(name)
    }

    /// Number of registered blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when no blocks are registered.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterate over all blocks in name order.
    pub fn iter(&self) -> impl Iterator<Item = &BlockSpec> {
        self.blocks.values()
    }

    /// Blocks belonging to one phase.
    pub fn blocks_in_phase(&self, phase: Phase) -> impl Iterator<Item = &BlockSpec> {
        self.blocks.values().filter(move |b| b.phase == phase)
    }

    /// Record an implementation. NF-agnostic blocks accept exactly one
    /// implementation with `nf_type = None`; NF-specific blocks require a
    /// concrete `nf_type`. Returns an error message on a mismatch.
    pub fn add_implementation(
        &mut self,
        block: &str,
        nf_type: Option<NfType>,
        runner: RunnerKind,
    ) -> Result<(), String> {
        let spec = self
            .blocks
            .get(block)
            .ok_or_else(|| format!("unknown block '{block}'"))?;
        match (spec.nf_agnostic, nf_type) {
            (true, Some(t)) => {
                return Err(format!(
                    "block '{block}' is NF-agnostic; refusing an implementation pinned to {t}"
                ))
            }
            (false, None) => {
                return Err(format!(
                    "block '{block}' is NF-specific; an NF type is required"
                ))
            }
            _ => {}
        }
        let dup = self
            .implementations
            .iter()
            .any(|i| i.block == block && i.nf_type == nf_type);
        if dup {
            return Err(format!(
                "duplicate implementation for '{block}' / {nf_type:?}"
            ));
        }
        self.implementations.push(Implementation {
            block: block.into(),
            nf_type,
            runner,
        });
        Ok(())
    }

    /// All registered implementations.
    pub fn implementations(&self) -> &[Implementation] {
        &self.implementations
    }

    /// Implementations covering a block for a given NF type (either an
    /// exact NF-specific match or the NF-agnostic one).
    pub fn implementation_for(&self, block: &str, nf: NfType) -> Option<&Implementation> {
        self.implementations
            .iter()
            .find(|i| i.block == block && (i.nf_type == Some(nf) || i.nf_type.is_none()))
    }

    /// Number of implementation modules CORNET needs to support `blocks`
    /// across `nf_types`: one per NF-agnostic block plus one per
    /// (NF-specific block, NF type) pair. This is the §4 reuse arithmetic.
    pub fn modules_with_cornet(&self, blocks: &[&str], nf_count: usize) -> usize {
        blocks
            .iter()
            .filter_map(|b| self.get(b))
            .map(|spec| if spec.nf_agnostic { 1 } else { nf_count })
            .sum()
    }

    /// Number of modules a custom (per-NF) solution needs: every block is
    /// reimplemented for every NF type.
    pub fn modules_custom(&self, blocks: &[&str], nf_count: usize) -> usize {
        blocks.iter().filter(|b| self.get(b).is_some()).count() * nf_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::builtin_catalog;

    #[test]
    fn implementation_rules() {
        let mut cat = builtin_catalog();
        // NF-agnostic block takes exactly one None implementation.
        cat.add_implementation("pre_post_comparison", None, RunnerKind::Native)
            .unwrap();
        assert!(cat
            .add_implementation(
                "pre_post_comparison",
                Some(NfType::ENodeB),
                RunnerKind::Native
            )
            .is_err());
        assert!(
            cat.add_implementation("pre_post_comparison", None, RunnerKind::Native)
                .is_err(),
            "duplicate rejected"
        );
        // NF-specific block needs a type.
        assert!(cat
            .add_implementation("software_upgrade", None, RunnerKind::Ansible)
            .is_err());
        cat.add_implementation(
            "software_upgrade",
            Some(NfType::VceRouter),
            RunnerKind::VendorCli,
        )
        .unwrap();
        cat.add_implementation(
            "software_upgrade",
            Some(NfType::VGateway),
            RunnerKind::Ansible,
        )
        .unwrap();
        assert_eq!(cat.implementations().len(), 3);
    }

    #[test]
    fn implementation_lookup_prefers_any_match() {
        let mut cat = builtin_catalog();
        cat.add_implementation(
            "health_check",
            Some(NfType::VceRouter),
            RunnerKind::VendorCli,
        )
        .unwrap();
        cat.add_implementation("pre_post_comparison", None, RunnerKind::Native)
            .unwrap();
        assert!(cat
            .implementation_for("health_check", NfType::VceRouter)
            .is_some());
        assert!(cat
            .implementation_for("health_check", NfType::Portal)
            .is_none());
        assert!(
            cat.implementation_for("pre_post_comparison", NfType::Portal)
                .is_some(),
            "agnostic implementation serves every NF"
        );
    }

    #[test]
    fn unknown_block_rejected() {
        let mut cat = Catalog::new();
        assert!(cat
            .add_implementation("ghost", None, RunnerKind::Native)
            .is_err());
    }

    #[test]
    fn module_accounting_matches_section_4_1() {
        // §4.1: 3 blocks (health_check, software_upgrade, pre_post_comparison)
        // across 6 vNFs. Custom: 18 BB modules. CORNET: 1 agnostic + 12
        // NF-specific = 13 BB modules.
        let cat = builtin_catalog();
        let blocks = ["health_check", "software_upgrade", "pre_post_comparison"];
        assert_eq!(cat.modules_custom(&blocks, 6), 18);
        assert_eq!(cat.modules_with_cornet(&blocks, 6), 13);
    }
}
