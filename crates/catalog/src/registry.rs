//! The catalog registry: block specs by name.
//!
//! Counting implementation modules is how §4 measures code re-use: a
//! custom solution needs one module per (block, NF) pair, while CORNET
//! needs a single module for each NF-agnostic block.

use crate::block::{BlockSpec, Phase};
use std::collections::BTreeMap;

/// The building-block catalog.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    blocks: BTreeMap<String, BlockSpec>,
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
    use crate::builtin::builtin_catalog;

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
