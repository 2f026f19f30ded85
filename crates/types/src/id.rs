//! Stable identifiers for network elements.
//!
//! The paper's schedulable unit is the *common_id* of a network function
//! instance (§3.3.2). We represent it as a dense `NodeId` so that planner
//! and solver data structures can be flat vectors indexed by id.

use std::fmt;

/// Dense identifier of a network-function instance (the paper's `common_id`).
///
/// Ids are assigned densely from 0 by [`crate::inventory::Inventory`], so a
/// `NodeId` can index flat `Vec`s without hashing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Return the id as a usable vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Matches the `id000001` style used in the paper's Listing 1.
        write!(f, "id{:06}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_listing_style() {
        assert_eq!(NodeId(1).to_string(), "id000001");
        assert_eq!(NodeId(283).to_string(), "id000283");
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(NodeId(42).index(), 42);
        assert_eq!(NodeId::from(7u32), NodeId(7));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(NodeId(2) < NodeId(10));
    }
}
