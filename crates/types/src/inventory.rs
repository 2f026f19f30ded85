//! Inventory: the attribute database the planner and verifier resolve
//! high-level intents against.
//!
//! The paper's constraint rules name attributes (`market`, `timezone`,
//! `pool_id`, …) and CORNET "must figure out the mapping between the ESA
//! common_id and the non-ESA" attribute (§3.3.2). [`Inventory`] owns the
//! records and builds those sparse ESA↔attribute mappings on demand.

use crate::attr::{AttrValue, Attributes};
use crate::id::NodeId;
use crate::nf::NfType;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One network-function instance and its attributes.
#[derive(Clone, Debug, PartialEq)]
pub struct InventoryRecord {
    /// Dense instance id (the paper's `common_id`).
    pub id: NodeId,
    /// Human-readable instance name, e.g. `"enb-NYC-00017"`.
    pub name: String,
    /// Network-function type.
    pub nf_type: NfType,
    /// Open attribute map: market, tac, usid, ems, timezone/utc_offset,
    /// hw_version, sw_version, pool_id, …
    pub attrs: Attributes,
}

impl InventoryRecord {
    /// Construct a record; attributes can be added afterwards via `attrs`.
    pub fn new(id: NodeId, name: impl Into<String>, nf_type: NfType) -> Self {
        Self {
            id,
            name: name.into(),
            nf_type,
            attrs: Attributes::new(),
        }
    }
}

/// Marks, in a [`Column`], a record that lacks the attribute.
const ABSENT: u32 = u32::MAX;

/// One attribute across the whole inventory.
#[derive(Debug, Default)]
struct Column {
    /// Per record, the index into `keys` of its grouping key, or [`ABSENT`].
    ids: Vec<u32>,
    /// Distinct grouping keys ([`AttrValue::group_key`]), as the build met them.
    keys: Vec<String>,
}

/// Every attribute of every record, interned in one pass: what a grouped
/// query reads instead of chasing each record's attribute map (one
/// `BTreeMap` leaf and ten separately allocated key strings a record — a
/// cache miss a lookup).
fn build_index(records: &[InventoryRecord]) -> HashMap<String, Column> {
    #[derive(Default)]
    struct Building<'a> {
        name: &'a str,
        column: Column,
        id_of: HashMap<Cow<'a, str>, u32>,
        /// The value last interned: loaded site by site, most repeat it.
        last: Option<(&'a AttrValue, u32)>,
    }
    // Sorted by name as a record's attributes are: the next is most often it.
    let mut columns: Vec<Building<'_>> = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let mut at = 0;
        for (name, value) in record.attrs.iter() {
            if columns.get(at).is_none_or(|b| b.name != name) {
                let ahead = columns[at..].binary_search_by(|b| b.name.cmp(name));
                at += ahead.unwrap_or_else(|ahead| {
                    let mut new = Building::default();
                    (new.name, new.column.ids) = (name, vec![ABSENT; records.len()]);
                    columns.insert(at + ahead, new);
                    ahead
                });
            }
            let b = &mut columns[at];
            let id = match b.last {
                Some((seen, id)) if seen == value => id,
                _ => {
                    let key = match value {
                        AttrValue::Str(s) => Cow::Borrowed(s.as_str()),
                        other => Cow::Owned(other.group_key()),
                    };
                    let next = b.column.keys.len() as u32;
                    *b.id_of.entry(key).or_insert_with_key(|key| {
                        b.column.keys.push(key.to_string());
                        next
                    })
                }
            };
            b.last = Some((value, id));
            b.column.ids[i] = id;
            at += 1;
        }
    }
    let named = columns.into_iter().map(|b| (b.name.to_owned(), b.column));
    named.collect()
}

/// Collection of inventory records with dense ids and attribute indexes.
#[derive(Clone, Debug, Default)]
pub struct Inventory {
    records: Vec<InventoryRecord>,
    /// Built by the first grouped query; a clone shares it once it is.
    index: OnceLock<Arc<HashMap<String, Column>>>,
    #[cfg(test)]
    index_builds: Arc<std::sync::atomic::AtomicUsize>,
}

impl Inventory {
    /// Empty inventory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a record, assigning it the next dense [`NodeId`].
    pub fn push(&mut self, name: impl Into<String>, nf_type: NfType, attrs: Attributes) -> NodeId {
        let id = NodeId(self.records.len() as u32);
        // The one mutation there is, so the one place an index goes stale.
        self.index = OnceLock::new();
        self.records.push(InventoryRecord {
            id,
            name: name.into(),
            nf_type,
            attrs,
        });
        id
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the inventory holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Borrow a record by id.
    pub fn get(&self, id: NodeId) -> Option<&InventoryRecord> {
        self.records.get(id.index())
    }

    /// Borrow a record by id, panicking on an unknown id.
    ///
    /// Planner internals use this after validating ids once at the intent
    /// boundary, so a miss here is a programming error.
    pub fn record(&self, id: NodeId) -> &InventoryRecord {
        &self.records[id.index()]
    }

    /// Iterate over all records in id order.
    pub fn iter(&self) -> impl Iterator<Item = &InventoryRecord> {
        self.records.iter()
    }

    /// All node ids in the inventory.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.records.len() as u32).map(NodeId)
    }

    /// Find a record by its human-readable name (linear scan; intended for
    /// tests and small intent inputs, not hot paths).
    pub fn find_by_name(&self, name: &str) -> Option<&InventoryRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// Attribute value of a node, with `nf_type` and `common_id` exposed as
    /// virtual attributes so intents can group by them uniformly.
    pub fn attr_of(&self, id: NodeId, key: &str) -> Option<AttrValue> {
        let rec = self.get(id)?;
        match key {
            "common_id" => Some(AttrValue::Str(id.to_string())),
            "nf_type" => Some(AttrValue::Str(rec.nf_type.name().to_owned())),
            _ => rec.attrs.get(key).cloned(),
        }
    }

    /// Grouping key of a node under an attribute, if present.
    pub fn group_key_of(&self, id: NodeId, key: &str) -> Option<String> {
        self.attr_of(id, key).map(|v| v.group_key())
    }

    /// The sparse ESA↔attribute mapping Q of §3.3.2: distinct attribute
    /// values in first-seen order, plus each node's group index (or `None`
    /// when the node lacks the attribute) — [`Self::group_ids`] with the
    /// names, for callers that print or rank them.
    pub fn group_by(&self, nodes: &[NodeId], key: &str) -> AttributeGroups {
        let GroupIds { membership, count } = self.group_ids(nodes, key);
        let mut values = Vec::with_capacity(count);
        for (&n, group) in nodes.iter().zip(&membership) {
            // Groups are numbered first-seen: a node opens the next one.
            if *group == Some(values.len()) {
                values.extend(self.group_key_of(n, key));
            }
        }
        AttributeGroups {
            key: key.to_owned(),
            values,
            membership,
        }
    }

    /// Each node's group under an attribute and the number of groups, as
    /// [`Self::group_by`] numbers them, from interned ids without a name.
    ///
    /// Restricting to `nodes` keeps the mapping as small as the request:
    /// once the first caller has built the index, an array read a node.
    pub fn group_ids(&self, nodes: &[NodeId], key: &str) -> GroupIds {
        let index = || {
            self.index.get_or_init(|| {
                #[cfg(test)]
                self.index_builds
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Arc::new(build_index(&self.records))
            })
        };
        let len = self.len();
        match key {
            "common_id" => {
                let id_of = |n: NodeId| if n.index() < len { n.0 } else { ABSENT };
                renumber(nodes, len, id_of)
            }
            "nf_type" => {
                // `NfType::ALL` is in declaration order: discriminants index it.
                let id_of = |n| self.get(n).map_or(ABSENT, |r| r.nf_type as u32);
                renumber(nodes, NfType::ALL.len(), id_of)
            }
            _ => {
                let nowhere = Column::default();
                let column = index().get(key).unwrap_or(&nowhere);
                let id_of = |n: NodeId| column.ids.get(n.index()).copied().unwrap_or(ABSENT);
                renumber(nodes, column.keys.len(), id_of)
            }
        }
    }

    /// Distinct values of an attribute across the whole inventory.
    pub fn distinct_values(&self, key: &str) -> Vec<String> {
        let ids: Vec<NodeId> = self.ids().collect();
        self.group_by(&ids, key).values
    }
}

/// Group `nodes` by the id `id_of` gives each (below `distinct`, or
/// [`ABSENT`]), numbering the groups in first-seen order.
fn renumber(nodes: &[NodeId], distinct: usize, id_of: impl Fn(NodeId) -> u32) -> GroupIds {
    let (mut group_of, mut count) = (vec![usize::MAX; distinct], 0);
    let mut group = |id: u32| {
        let group = group_of.get_mut(id as usize)?;
        if *group == usize::MAX {
            (*group, count) = (count, count + 1);
        }
        Some(*group)
    };
    let membership = nodes.iter().map(|&n| group(id_of(n))).collect();
    GroupIds { membership, count }
}

/// Each node's group under one attribute, without the names.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupIds {
    /// Per input node: its group id, or `None` where the attribute is absent.
    pub membership: Vec<Option<usize>>,
    /// Number of distinct groups.
    pub count: usize,
}

impl GroupIds {
    /// Indices of input nodes in each group (group id → node positions).
    pub fn members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.count];
        for (pos, g) in self.membership.iter().enumerate() {
            if let Some(g) = g {
                out[*g].push(pos);
            }
        }
        out
    }

    /// Number of input nodes in each group.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.count];
        for g in self.membership.iter().flatten() {
            sizes[*g] += 1;
        }
        sizes
    }
}

/// Result of grouping a node list by one attribute: the paper's sparse
/// mapping Q between schedulable units and a non-ESA attribute.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributeGroups {
    /// Attribute key that was grouped on.
    pub key: String,
    /// Distinct attribute values, indexed by group id.
    pub values: Vec<String>,
    /// For each input node (parallel to the `nodes` slice passed to
    /// [`Inventory::group_by`]): its group id, or `None` if the attribute
    /// was absent on that node.
    pub membership: Vec<Option<usize>>,
}

impl AttributeGroups {
    /// Number of distinct groups.
    pub fn group_count(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Inventory {
        let mut inv = Inventory::new();
        for (name, market, tz) in [
            ("enb-1", "NYC", -5.0),
            ("enb-2", "NYC", -5.0),
            ("enb-3", "DFW", -6.0),
            ("enb-4", "LAX", -8.0),
        ] {
            inv.push(
                name,
                NfType::ENodeB,
                Attributes::new()
                    .with("market", market)
                    .with("utc_offset", tz),
            );
        }
        inv
    }

    #[test]
    fn push_assigns_dense_ids() {
        let inv = sample();
        assert_eq!(inv.len(), 4);
        assert_eq!(inv.get(NodeId(2)).unwrap().name, "enb-3");
        assert!(inv.get(NodeId(9)).is_none());
    }

    #[test]
    fn virtual_attributes() {
        let inv = sample();
        assert_eq!(
            inv.attr_of(NodeId(0), "common_id"),
            Some(AttrValue::Str("id000000".into()))
        );
        assert_eq!(
            inv.attr_of(NodeId(0), "nf_type"),
            Some(AttrValue::Str("enodeb".into()))
        );
    }

    #[test]
    fn group_by_builds_sparse_mapping() {
        let inv = sample();
        let nodes: Vec<NodeId> = inv.ids().collect();
        let g = inv.group_by(&nodes, "market");
        assert_eq!(g.values, vec!["NYC", "DFW", "LAX"]);
        assert_eq!(g.membership, vec![Some(0), Some(0), Some(1), Some(2)]);
        let ids = inv.group_ids(&nodes, "market");
        assert_eq!(ids.members(), vec![vec![0, 1], vec![2], vec![3]]);
        assert_eq!(ids.sizes(), vec![2, 1, 1]);
    }

    #[test]
    fn group_by_missing_attribute() {
        let inv = sample();
        let nodes: Vec<NodeId> = inv.ids().collect();
        let g = inv.group_by(&nodes, "nonexistent");
        assert_eq!(g.group_count(), 0);
        assert!(g.membership.iter().all(Option::is_none));
    }

    #[test]
    fn group_by_subset_only_sees_subset_values() {
        let inv = sample();
        let g = inv.group_by(&[NodeId(2), NodeId(3)], "market");
        assert_eq!(g.values, vec!["DFW", "LAX"]);
    }

    #[test]
    fn find_by_name() {
        let inv = sample();
        assert_eq!(inv.find_by_name("enb-4").unwrap().id, NodeId(3));
        assert!(inv.find_by_name("nope").is_none());
    }

    #[test]
    fn distinct_values() {
        let inv = sample();
        assert_eq!(inv.distinct_values("market").len(), 3);
        assert_eq!(inv.distinct_values("nf_type"), vec!["enodeb"]);
    }
}
