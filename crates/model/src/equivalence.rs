//! The dense objective and the lazily printed names against the
//! representation they replaced: a sparse map of per-variable value maps
//! (value 0 in the map like any other), and a formatted string a variable.
//! Random sequences of `add_var`, `slot_vars`, `add_slope` and
//! `add_value_cost` — repeated values, value 0 half the time, zero and
//! negative costs, variables nothing prices — must cost, and print, alike.
//!
//! The suite runs the default case count, so CI raises it with
//! `PROPTEST_CASES`.

use crate::{Model, ModelBuilder, VarId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The sparse model: names as strings, a term only for a priced variable.
#[derive(Default)]
struct Sparse {
    vars: Vec<(String, i64, i64)>,
    terms: BTreeMap<VarId, (i64, BTreeMap<i64, i64>)>,
    constant: i64,
}

impl Sparse {
    fn var_cost(&self, var: VarId, value: i64) -> i64 {
        self.terms.get(&var).map_or(0, |(slope, table)| {
            slope * value + table.get(&value).copied().unwrap_or(0)
        })
    }

    fn cost(&self, assignment: &[i64]) -> i64 {
        let priced = self
            .terms
            .keys()
            .map(|&v| self.var_cost(v, assignment[v.index()]));
        self.constant + priced.sum::<i64>()
    }

    fn is_trivial(&self) -> bool {
        self.terms.is_empty() && self.constant == 0
    }

    /// The MiniZinc text of a model with no constraints.
    fn to_minizinc(&self, name: &str) -> String {
        let ident = |name: &str| -> String {
            let out: String = name
                .chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect();
            match out.chars().next() {
                Some(c) if !c.is_ascii_digit() => out,
                _ => format!("v{out}"),
            }
        };
        let mut s = format!("% Model: {name}\n% Generated by CORNET model translation (vars={}, constraints=0)\n\n%%% Decision variables\n", self.vars.len());
        for (name, lo, hi) in &self.vars {
            s += &format!("var {lo}..{hi}: {} :: add_to_output;\n", ident(name));
        }
        s += "\n%%% Constraints\n\n%%% Objective\n";
        let mut parts: Vec<String> = Vec::new();
        if self.constant != 0 {
            parts.push(self.constant.to_string());
        }
        for (var, (slope, table)) in &self.terms {
            let name = ident(&self.vars[var.index()].0);
            if *slope != 0 {
                parts.push(format!("{slope} * {name}"));
            }
            for (value, cost) in table.iter().filter(|(_, c)| **c != 0) {
                parts.push(format!("(if {name} = {value} then {cost} else 0 endif)"));
            }
        }
        if parts.is_empty() {
            s + "solve satisfy;\n"
        } else {
            s + &format!("solve minimize\n  {};\n", parts.join(" +\n  "))
        }
    }
}

/// Splitmix64 over a proptest-drawn seed.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

/// Play one random operation sequence on a [`Model`] and on the oracle.
fn play(seed: u64) -> (Model, Sparse) {
    let d = &mut Dice(seed);
    let (mut model, mut sparse) = (Model::new("eq"), Sparse::default());
    for _ in 0..d.between(1, 24) {
        let n = model.var_count() as u64;
        match d.below(6) {
            0 => {
                let (lo, name) = (d.between(-2, 2), format!("v{}.{}", n, d.below(3)));
                let hi = lo + d.between(0, 4);
                model.add_var(name.as_str(), lo, hi);
                sparse.vars.push((name, lo, hi));
            }
            1 => {
                // Slot variables come from a builder and join the model
                // with the prefix they share.
                let (slots, count) = (d.between(1, 5) as u32, d.between(0, 4) as usize);
                let prefix = ["X", "COMMON_ID_SCHEDULED", "0p"][d.below(3) as usize];
                let mut b = ModelBuilder::new("slots", slots);
                b.slot_vars(prefix, count);
                model.vars.extend(b.build().vars);
                for i in 0..count {
                    sparse
                        .vars
                        .push((format!("{prefix}[{i}]"), 0, slots as i64));
                }
            }
            2 if n > 0 => {
                let (var, slope) = (VarId(d.below(n) as u32), d.between(-2, 2));
                model.objective.add_slope(var, slope);
                sparse.terms.entry(var).or_default().0 += slope;
            }
            3 | 4 if n > 0 => {
                let var = VarId(d.below(n) as u32);
                // Value 0 — the unscheduled cost — is held apart.
                let value = if d.below(2) == 0 { 0 } else { d.between(-1, 4) };
                let cost = d.between(-3, 3);
                model.objective.add_value_cost(var, value, cost);
                let table = &mut sparse.terms.entry(var).or_default().1;
                *table.entry(value).or_default() += cost;
            }
            5 if d.below(4) == 0 => {
                let constant = d.between(-2, 2);
                (model.objective.constant, sparse.constant) = (constant, constant);
            }
            _ => {}
        }
    }
    (model, sparse)
}

proptest! {
    #[test]
    fn dense_objective_and_lazy_names_match_the_sparse_model(seed in any::<u64>()) {
        let (model, sparse) = play(seed);
        let d = &mut Dice(seed ^ 0x5eed);
        prop_assert_eq!(model.objective.is_trivial(), sparse.is_trivial());
        for (i, (_, lo, hi)) in sparse.vars.iter().enumerate() {
            let var = VarId(i as u32);
            prop_assert!(model.objective.term(var).table.iter().all(|&(v, _)| v != 0));
            for value in lo - 1..=hi + 1 {
                prop_assert_eq!(model.objective.var_cost(var, value), sparse.var_cost(var, value));
            }
        }
        for _ in 0..4 {
            let assignment: Vec<i64> =
                sparse.vars.iter().map(|(_, lo, hi)| d.between(*lo, *hi)).collect();
            prop_assert_eq!(model.cost(&assignment), sparse.cost(&assignment));
        }
        for (var, (name, _, _)) in model.vars.iter().zip(&sparse.vars) {
            prop_assert_eq!(var.name.to_string(), name.clone());
        }
        prop_assert_eq!(model.to_minizinc(), sparse.to_minizinc("eq"));
    }
}
