//! MiniZinc text emission.
//!
//! CORNET "must assemble the model in a very efficient way so that MiniZinc
//! can process and send it to the solver" and "these MiniZinc models can be
//! very long" (§3.3.2, Appendix B). We emit syntactically-valid MiniZinc
//! from the IR so the Appendix B pipeline — high-level JSON intent in,
//! MiniZinc model out — can be reproduced and inspected, even though our
//! own solver consumes the IR directly.

use crate::constraint::Constraint;
use crate::{Model, VarId};
use std::fmt::Write;

/// Sanitize a variable name into a MiniZinc identifier.
fn ident(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        out.insert(0, 'v');
    }
    out
}

impl Model {
    /// Render the model as MiniZinc source text.
    pub fn to_minizinc(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "% Model: {}", self.name);
        let _ = writeln!(
            s,
            "% Generated by CORNET model translation (vars={}, constraints={})",
            self.var_count(),
            self.constraint_count()
        );
        s.push('\n');

        let names: Vec<String> = self
            .vars
            .iter()
            .map(|v| ident(&v.name.to_string()))
            .collect();

        let _ = writeln!(s, "%%% Decision variables");
        for (v, name) in self.vars.iter().zip(&names) {
            let _ = writeln!(s, "var {}..{}: {} :: add_to_output;", v.lo, v.hi, name);
        }
        s.push('\n');

        let _ = writeln!(s, "%%% Constraints");
        for c in &self.constraints {
            let _ = writeln!(s, "% {}", c.label());
            match c {
                Constraint::Capacity {
                    vars,
                    weights,
                    default_cap,
                    slot_caps,
                    block,
                    value_granules,
                    ..
                } => {
                    let block = (*block).max(1);
                    let hi = vars.iter().map(|v| self.var(*v).hi).max().unwrap_or(0);
                    let granule_of = |val: i64| -> i64 {
                        match value_granules {
                            Some(vg) => vg[(val - 1) as usize],
                            None => (val - 1) / block,
                        }
                    };
                    let n_granules = if hi > 0 {
                        (1..=hi).map(granule_of).max().unwrap_or(0) + 1
                    } else {
                        0
                    };
                    for g in 0..n_granules {
                        let cap = slot_caps.get(&g).copied().unwrap_or(*default_cap);
                        let values: Vec<i64> = (1..=hi).filter(|&t| granule_of(t) == g).collect();
                        if values.is_empty() {
                            continue;
                        }
                        let member = |v: &crate::VarId| {
                            values
                                .iter()
                                .map(|t| format!("{} = {t}", names[v.index()]))
                                .collect::<Vec<_>>()
                                .join(" \\/ ")
                        };
                        let sum = vars
                            .iter()
                            .zip(weights)
                            .map(|(v, w)| format!("{w} * bool2int({})", member(v)))
                            .collect::<Vec<_>>()
                            .join(" + ");
                        let _ = writeln!(s, "constraint {sum} <= {cap};");
                    }
                }
                Constraint::DistinctGroups {
                    vars,
                    group_of,
                    cap,
                    ..
                } => {
                    let hi = vars.iter().map(|v| self.var(*v).hi).max().unwrap_or(0);
                    let n_groups = group_of.iter().copied().max().map_or(0, |g| g + 1);
                    for t in 1..=hi {
                        let mut group_terms = Vec::new();
                        for g in 0..n_groups {
                            let members: Vec<String> = vars
                                .iter()
                                .zip(group_of)
                                .filter(|(_, gg)| **gg == g)
                                .map(|(v, _)| format!("{} = {t}", names[v.index()]))
                                .collect();
                            if !members.is_empty() {
                                group_terms.push(format!("bool2int({})", members.join(" \\/ ")));
                            }
                        }
                        let _ = writeln!(s, "constraint {} <= {cap};", group_terms.join(" + "));
                    }
                }
                Constraint::SameValue { vars, .. } => {
                    for pair in vars.windows(2) {
                        let _ = writeln!(
                            s,
                            "constraint {} = {};",
                            names[pair[0].index()],
                            names[pair[1].index()]
                        );
                    }
                }
                Constraint::MaxSpread {
                    vars,
                    metric_milli,
                    max_distance_milli,
                    ..
                } => {
                    for i in 0..vars.len() {
                        for j in (i + 1)..vars.len() {
                            let dist = (metric_milli[i] - metric_milli[j]).abs();
                            if dist > *max_distance_milli {
                                let (a, b) = (&names[vars[i].index()], &names[vars[j].index()]);
                                let _ = writeln!(s, "constraint ({a} != {b}) \\/ ({a} = 0);");
                            }
                        }
                    }
                }
                Constraint::NonInterleaved { vars, group_of, .. } => {
                    // Pairwise disjunction over group intervals, mirroring
                    // Listing 2's MARKET_START/END constraint.
                    let n_groups = group_of.iter().copied().max().map_or(0, |g| g + 1);
                    let members = |g: usize| -> Vec<&str> {
                        vars.iter()
                            .zip(group_of)
                            .filter(|(_, gg)| **gg == g)
                            .map(|(v, _)| names[v.index()].as_str())
                            .collect()
                    };
                    // Unscheduled members (value 0) must not drag a group's
                    // interval down to 0: map 0 to a neutral element on
                    // each side (0 for max, hi+1 for min), matching the
                    // checker's scheduled-only semantics.
                    let hi = vars.iter().map(|v| self.var(*v).hi).max().unwrap_or(0);
                    let neutral_min = hi + 1;
                    let masked = |names_in: &[&str], for_max: bool| -> String {
                        names_in
                            .iter()
                            .map(|n| {
                                if for_max {
                                    n.to_string()
                                } else {
                                    format!("if {n} = 0 then {neutral_min} else {n} endif")
                                }
                            })
                            .collect::<Vec<_>>()
                            .join(", ")
                    };
                    for gi in 0..n_groups {
                        for gj in (gi + 1)..n_groups {
                            let (mi, mj) = (members(gi), members(gj));
                            if mi.is_empty() || mj.is_empty() {
                                continue;
                            }
                            let max_i = format!("max([{}])", masked(&mi, true));
                            let min_i = format!("min([{}])", masked(&mi, false));
                            let max_j = format!("max([{}])", masked(&mj, true));
                            let min_j = format!("min([{}])", masked(&mj, false));
                            let _ = writeln!(
                                s,
                                "constraint ({max_i} <= {min_j}) \\/ ({max_j} <= {min_i});"
                            );
                        }
                    }
                }
                Constraint::ForbiddenValue { var, value, .. } => {
                    let _ = writeln!(s, "constraint {} != {value};", names[var.index()]);
                }
                Constraint::Linear {
                    terms, cmp, rhs, ..
                } => {
                    let sum = terms
                        .iter()
                        .map(|t| format!("{} * {}", t.coeff, names[t.var.index()]))
                        .collect::<Vec<_>>()
                        .join(" + ");
                    let _ = writeln!(s, "constraint {sum} {} {rhs};", cmp.mzn());
                }
            }
        }
        s.push('\n');

        let _ = writeln!(s, "%%% Objective");
        let mut parts = Vec::new();
        if self.objective.constant != 0 {
            parts.push(self.objective.constant.to_string());
        }
        for (i, name) in names.iter().enumerate() {
            let c = self.objective.term(VarId(i as u32));
            if c.slope != 0 {
                parts.push(format!("{} * {name}", c.slope));
            }
            // Value order, with value 0's cost held inline between the
            // negative values and the positive ones.
            let zero = c.table.partition_point(|&(v, _)| v < 0);
            let (below, above) = c.table.split_at(zero);
            for (value, cost) in below.iter().chain([&(0, c.unscheduled)]).chain(above) {
                if *cost != 0 {
                    parts.push(format!("(if {name} = {value} then {cost} else 0 endif)"));
                }
            }
        }
        // Terms that all cancel to zero price nothing: an empty sum is not
        // a MiniZinc expression.
        if parts.is_empty() {
            let _ = writeln!(s, "solve satisfy;");
        } else {
            let _ = writeln!(s, "solve minimize\n  {};", parts.join(" +\n  "));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ModelBuilder;
    use crate::constraint::CmpOp;

    #[test]
    fn emits_vars_constraints_objective() {
        let mut b = ModelBuilder::new("appendix_b", 3);
        let vs = b.slot_vars("COMMON_ID_SCHEDULED", 2);
        b.capacity("concurrency on common_id", vs.clone(), vec![1, 1], 1);
        b.forbid("frozen id000041", vs[0], 2);
        b.completion_objective(&vs, &[1, 1], 100);
        let m = b.build();
        let text = m.to_minizinc();
        assert!(text.contains("var 0..3: COMMON_ID_SCHEDULED_0_"), "{text}");
        assert!(text.contains("% concurrency on common_id"));
        assert!(text.contains("bool2int(COMMON_ID_SCHEDULED_0_ = 1)"));
        assert!(text.contains("constraint COMMON_ID_SCHEDULED_0_ != 2;"));
        assert!(text.contains("solve minimize"));
        assert!(text.contains("if COMMON_ID_SCHEDULED_0_ = 0 then 100"));
    }

    #[test]
    fn satisfaction_model_emits_solve_satisfy() {
        let mut b = ModelBuilder::new("sat", 2);
        let vs = b.slot_vars("X", 2);
        b.linear("lin", vec![(1, vs[0]), (1, vs[1])], CmpOp::Le, 3);
        let text = b.build().to_minizinc();
        assert!(text.contains("solve satisfy;"));
        assert!(text.contains("constraint 1 * X_0_ + 1 * X_1_ <= 3;"));
    }

    #[test]
    fn all_zero_objective_emits_solve_satisfy() {
        let mut b = ModelBuilder::new("zero", 2);
        let vs = b.slot_vars("X", 2);
        b.completion_objective(&vs, &[0, 0], 5);
        b.conflict_penalty(vs[1], 2, 0);
        let m = b.build();
        assert!(!m.objective.is_trivial(), "priced, if at zero");
        let text = m.to_minizinc();
        assert!(text.ends_with("%%% Objective\nsolve satisfy;\n"), "{text}");
    }

    #[test]
    fn same_value_chains_equalities() {
        let mut b = ModelBuilder::new("cons", 2);
        let vs = b.slot_vars("U", 3);
        b.same_value("usid group", vs);
        let text = b.build().to_minizinc();
        assert!(text.contains("constraint U_0_ = U_1_;"));
        assert!(text.contains("constraint U_1_ = U_2_;"));
    }

    #[test]
    fn non_interleaved_emits_interval_disjunction() {
        let mut b = ModelBuilder::new("loc", 4);
        let vs = b.slot_vars("N", 4);
        b.non_interleaved("localize market", vs, vec![0, 0, 1, 1]);
        let text = b.build().to_minizinc();
        // Unscheduled members are masked out of the interval min.
        assert!(
            text.contains("max([N_0_, N_1_])")
                && text.contains("if N_2_ = 0 then 5 else N_2_ endif"),
            "{text}"
        );
    }

    #[test]
    fn identifiers_never_start_with_digit() {
        let mut m = crate::Model::new("t");
        m.add_var("0weird", 0, 1);
        let text = m.to_minizinc();
        assert!(text.contains("v0weird"));
    }
}
