//! The attribute index is the loop it replaced, on every input: the loop
//! is kept here as the oracle and [`Inventory::group_by`] is held to it
//! field for field, [`Inventory::group_ids`] to its membership and group
//! count. The suite runs the default case count, so CI raises
//! it with `PROPTEST_CASES`.

use super::*;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Barrier;

/// `group_by` as it was before the index: one attribute-map lookup, one
/// `AttrValue` clone and one key `String` a node.
fn group_by_naive(inventory: &Inventory, nodes: &[NodeId], key: &str) -> AttributeGroups {
    let mut value_to_group: BTreeMap<String, usize> = BTreeMap::new();
    let mut values: Vec<String> = Vec::new();
    let mut membership: Vec<Option<usize>> = Vec::with_capacity(nodes.len());
    for &id in nodes {
        match inventory.group_key_of(id, key) {
            Some(v) => {
                let g = *value_to_group.entry(v.clone()).or_insert_with(|| {
                    values.push(v.clone());
                    values.len() - 1
                });
                membership.push(Some(g));
            }
            None => membership.push(None),
        }
    }
    AttributeGroups {
        key: key.to_owned(),
        values,
        membership,
    }
}

/// Splitmix64 over a proptest-drawn seed: the inventories need nested,
/// size-dependent choices that range strategies do not compose into.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

const KEYS: [&str; 5] = ["market", "pool", "offset", "common_id", "nf_type"];

/// A value from a pool where different types share grouping keys:
/// `Str("5")` beside `Int(5)`, `Float(-5.0)` beside `Str("-5.0000")`.
fn value(dice: &mut Dice) -> AttrValue {
    match dice.below(9) {
        0 => AttrValue::Str("5".into()),
        1 => AttrValue::Int(5),
        2 => AttrValue::Float(-5.0),
        3 => AttrValue::Str("-5.0000".into()),
        4 => AttrValue::Float(5.5),
        5 => AttrValue::Int(-5),
        6 => AttrValue::Str(String::new()),
        _ => AttrValue::Str(format!("v{}", dice.below(4))),
    }
}

/// Records that each carry a random subset of [`KEYS`] (the two virtual
/// names included: a stored `common_id` must stay shadowed), in runs of
/// repeated values and in single draws.
fn inventory(dice: &mut Dice) -> Inventory {
    let mut inv = Inventory::new();
    let mut run: Vec<AttrValue> = KEYS.iter().map(|_| value(dice)).collect();
    for i in 0..dice.below(40) {
        let mut attrs = Attributes::new();
        for (k, key) in KEYS.iter().enumerate() {
            if dice.below(3) == 0 {
                run[k] = value(dice);
            }
            if dice.below(4) > 0 {
                attrs.set(*key, run[k].clone());
            }
        }
        let nf = NfType::ALL[dice.below(NfType::ALL.len())];
        inv.push(format!("n{i}"), nf, attrs);
    }
    inv
}

/// Subsets, permutations, repeats and ids past the end.
fn nodes(dice: &mut Dice, len: usize) -> Vec<NodeId> {
    (0..dice.below(2 * len + 3))
        .map(|_| NodeId(dice.below(len + 2) as u32))
        .collect()
}

proptest! {
    #[test]
    fn group_by_is_the_naive_loop(seed in any::<u64>()) {
        let mut dice = Dice(seed);
        let mut inv = inventory(&mut dice);
        // A second round after a push: the rebuilt index, not a stale one.
        for _ in 0..2 {
            for key in KEYS.iter().chain(&["absent"]) {
                let nodes = nodes(&mut dice, inv.len());
                let naive = group_by_naive(&inv, &nodes, key);
                let ids = inv.group_ids(&nodes, key);
                prop_assert_eq!(&ids.membership, &naive.membership);
                prop_assert_eq!(ids.count, naive.group_count());
                let mut sizes = vec![0; naive.group_count()];
                naive.membership.iter().flatten().for_each(|g| sizes[*g] += 1);
                prop_assert_eq!(ids.sizes(), sizes);
                prop_assert_eq!(inv.group_by(&nodes, key), naive);
            }
            let attrs = Attributes::new().with("market", value(&mut dice));
            inv.push("late", NfType::Cpe, attrs);
        }
    }
}

fn markets(names: &[&str]) -> Inventory {
    let mut inv = Inventory::new();
    for (i, name) in names.iter().enumerate() {
        let attrs = Attributes::new().with("market", *name);
        inv.push(format!("n{i}"), NfType::ENodeB, attrs);
    }
    inv
}

fn builds(inv: &Inventory) -> usize {
    inv.index_builds.load(Ordering::Relaxed)
}

#[test]
fn a_push_after_a_query_is_seen_by_the_next_query() {
    let mut inv = markets(&["NYC", "NYC"]);
    let all = |inv: &Inventory| inv.ids().collect::<Vec<_>>();
    assert_eq!(inv.group_by(&all(&inv), "market").values, ["NYC"]);
    let late = inv.push(
        "late",
        NfType::ENodeB,
        Attributes::new().with("market", "DFW"),
    );
    let groups = inv.group_by(&all(&inv), "market");
    assert_eq!(
        groups.values,
        ["NYC", "DFW"],
        "the new value is a new group"
    );
    assert_eq!(groups.membership[late.index()], Some(1));
    assert_eq!(builds(&inv), 2, "one build a generation of the records");
}

#[test]
fn a_clone_shares_a_built_index_until_it_diverges() {
    let original = markets(&["NYC", "DFW"]);
    let both = [NodeId(0), NodeId(1), NodeId(2)];
    let before = original.group_by(&both, "market");
    let mut clone = original.clone();
    assert_eq!(clone.group_by(&both, "market"), before);
    assert_eq!(builds(&clone), 1, "the clone reads the index it was handed");

    clone.push(
        "late",
        NfType::ENodeB,
        Attributes::new().with("market", "LAX"),
    );
    assert_eq!(
        clone.group_by(&both, "market").values,
        ["NYC", "DFW", "LAX"]
    );
    assert_eq!(original.group_by(&both, "market"), before);

    // Cloned cold, each builds its own: nothing built for one set of
    // records can reach the other.
    let cold = markets(&["NYC"]);
    let mut grown = cold.clone();
    grown.push(
        "late",
        NfType::ENodeB,
        Attributes::new().with("market", "DFW"),
    );
    assert_eq!(cold.group_by(&both, "market").values, ["NYC"]);
    assert_eq!(grown.group_by(&both, "market").values, ["NYC", "DFW"]);
}

#[test]
fn eight_threads_on_a_cold_inventory_build_the_index_once() {
    let inv = inventory(&mut Dice(23));
    let all: Vec<NodeId> = inv.ids().collect();
    let expected = group_by_naive(&inv, &all, "market");
    let start = Barrier::new(8);
    std::thread::scope(|scope| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    inv.group_by(&all, "market")
                })
            })
            .collect();
        for racer in racers {
            assert_eq!(racer.join().expect("no racer panics"), expected);
        }
    });
    assert_eq!(builds(&inv), 1);
}
