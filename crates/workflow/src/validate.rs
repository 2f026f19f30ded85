//! Workflow verification before deployment (§3.2).
//!
//! "We propose a verification step where we ensure that there are no zombie
//! building blocks (i.e., no incoming or outgoing edge to another building
//! block or decision block or start/end)." Beyond the paper's zombie check
//! we validate structural sanity (one start, ≥1 end, reachability, decision
//! branch completeness) and *parameter flow*: every task input must be
//! producible from the workflow inputs or an upstream block's outputs —
//! the "proper propagation of parameter values" challenge of §3.1.
//!
//! The checks are implemented as `cornet-analysis` passes emitting
//! [`Diagnostic`]s with stable codes (`CN01xx` structural, `CN02xx`
//! dataflow); [`analyze`] returns the [`Report`] and [`require_valid`]
//! turns its errors into a hard failure. The dataflow analysis is
//! path-sensitive: a *may* fixpoint
//! (union over paths) catches inputs that are never produced or arrive
//! with the wrong type, and a *must* fixpoint (intersection over in-edges)
//! catches inputs produced on only some decision branches, with a blame
//! search that names the uncovered branch.

use crate::graph::{NodeId, NodeKind, Workflow, WorkflowEdge};
use cornet_analysis::{Code, Diagnostic, Report, Severity, SourceRef};
use cornet_catalog::Catalog;
use cornet_types::{CornetError, ParamType, Result};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Validate and convert a failing report into a [`CornetError`]. Only
/// error-severity diagnostics block; warnings pass.
pub fn require_valid(wf: &Workflow, catalog: &Catalog) -> Result<()> {
    let report = analyze(wf, catalog);
    if !report.has_errors() {
        return Ok(());
    }
    let errors: Vec<&str> = report
        .with_severity(Severity::Error)
        .map(|d| d.message.as_str())
        .collect();
    Err(CornetError::InvalidWorkflow(errors.join("; ")))
}

/// Run every workflow analysis pass and return the combined, sorted
/// [`Report`]: structural checks (`CN01xx`), path-sensitive parameter
/// dataflow (`CN02xx`), backout coverage, and the recursively analyzed
/// backout subgraph (messages prefixed `backout: `).
pub fn analyze(wf: &Workflow, catalog: &Catalog) -> Report {
    let mut report = Report::new();

    // Referential integrity first: every edge endpoint must name a real
    // node, or the later passes would index out of bounds.
    if !check_edge_endpoints(wf, &mut report) {
        report.sort();
        return report;
    }

    analyze_structure(wf, catalog, &mut report);
    if !report.has_errors() {
        analyze_dataflow(wf, catalog, &mut report);
    }
    analyze_backout_coverage(wf, catalog, &mut report);

    // Backout subgraph: analyzed recursively. The backout executes over
    // the failing instance's *current* global state, so its available
    // inputs are the parent's inputs plus anything any parent block can
    // have produced before the failure.
    if let Some(backout) = &wf.backout {
        let mut sub = (**backout).clone();
        let mut inputs: BTreeMap<String, ParamType> =
            sub.inputs.iter().map(|p| (p.name.clone(), p.ty)).collect();
        for p in &wf.inputs {
            inputs.entry(p.name.clone()).or_insert(p.ty);
        }
        for block in wf.blocks() {
            if let Some(spec) = catalog.get(block) {
                for out in &spec.outputs {
                    inputs.entry(out.name.clone()).or_insert(out.ty);
                }
            }
        }
        sub.inputs = inputs
            .into_iter()
            .map(|(name, ty)| crate::graph::WorkflowParam { name, ty })
            .collect();
        for mut d in analyze(&sub, catalog).diagnostics {
            // A backout needs no backout of its own.
            if d.code == Code("CN0209") {
                continue;
            }
            d.message = format!("backout: {}", d.message);
            report.push(d);
        }
    }

    report.sort();
    report
}

fn node_ref(wf: &Workflow, label: &str) -> SourceRef {
    SourceRef::Node {
        workflow: wf.name.clone(),
        node: label.to_owned(),
    }
}

/// `CN0101`: edges referencing node indices outside the graph. Returns
/// `false` when the graph is too broken for further analysis.
fn check_edge_endpoints(wf: &Workflow, report: &mut Report) -> bool {
    let mut ok = true;
    for e in &wf.edges {
        for id in [e.from, e.to] {
            if id.index() >= wf.nodes.len() {
                ok = false;
                report.push(
                    Diagnostic::error(
                        Code("CN0101"),
                        SourceRef::Edge {
                            workflow: wf.name.clone(),
                            from: e.from.0,
                            to: e.to.0,
                        },
                        format!("edge references unknown node {}", id.0),
                    )
                    .with_hint("remove the edge or add the missing node"),
                );
            }
        }
    }
    ok
}

/// Structural sanity (`CN0102`–`CN0110`): start/end cardinality, zombie
/// blocks, decision branch completeness, guard placement, reachability,
/// and catalog membership.
fn analyze_structure(wf: &Workflow, catalog: &Catalog, report: &mut Report) {
    let wf_ref = SourceRef::Workflow {
        workflow: wf.name.clone(),
    };
    let starts = wf
        .nodes
        .iter()
        .filter(|n| n.kind == NodeKind::Start)
        .count();
    if starts != 1 {
        report.push(Diagnostic::error(
            Code("CN0102"),
            wf_ref.clone(),
            format!("workflow must have exactly one start node, found {starts}"),
        ));
    }
    let ends = wf.nodes.iter().filter(|n| n.kind == NodeKind::End).count();
    if ends == 0 {
        report.push(Diagnostic::error(
            Code("CN0103"),
            wf_ref,
            "workflow has no end node",
        ));
    }

    // Zombie detection: every task/decision node needs an incoming and an
    // outgoing edge.
    for n in &wf.nodes {
        let ins = wf.in_edges(n.id).count();
        let outs = wf.out_edges(n.id).count();
        match n.kind {
            NodeKind::Start => {
                if outs == 0 {
                    report.push(Diagnostic::error(
                        Code("CN0105"),
                        node_ref(wf, &n.label),
                        "start node has no outgoing edge",
                    ));
                }
                if ins > 0 {
                    report.push(Diagnostic::error(
                        Code("CN0105"),
                        node_ref(wf, &n.label),
                        "start node must not have incoming edges",
                    ));
                }
            }
            NodeKind::End => {
                if ins == 0 {
                    report.push(Diagnostic::error(
                        Code("CN0106"),
                        node_ref(wf, &n.label),
                        format!("end node '{}' is unreachable (zombie)", n.label),
                    ));
                }
                if outs > 0 {
                    report.push(Diagnostic::error(
                        Code("CN0106"),
                        node_ref(wf, &n.label),
                        format!("end node '{}' has outgoing edges", n.label),
                    ));
                }
            }
            NodeKind::Task { .. } | NodeKind::Decision { .. } => {
                if ins == 0 || outs == 0 {
                    report.push(
                        Diagnostic::error(
                            Code("CN0104"),
                            node_ref(wf, &n.label),
                            format!(
                                "zombie block '{}': incoming={ins}, outgoing={outs}",
                                n.label
                            ),
                        )
                        .with_hint("connect the node into the flow or delete it"),
                    );
                }
            }
        }
    }

    // Decision gateways need both branches wired.
    for n in &wf.nodes {
        if let NodeKind::Decision { variable } = &n.kind {
            let guards: Vec<Option<bool>> = wf.out_edges(n.id).map(|e| e.guard).collect();
            if !guards.contains(&Some(true)) || !guards.contains(&Some(false)) {
                report.push(Diagnostic::error(
                    Code("CN0107"),
                    node_ref(wf, &n.label),
                    format!(
                        "decision '{}' on variable '{variable}' must have both a yes and a no branch",
                        n.label
                    ),
                ));
            }
        }
    }

    // Edges from decisions must be guarded; others must not be.
    for e in &wf.edges {
        let is_decision = matches!(wf.node(e.from).kind, NodeKind::Decision { .. });
        if is_decision && e.guard.is_none() {
            report.push(Diagnostic::error(
                Code("CN0108"),
                node_ref(wf, &wf.node(e.from).label),
                format!("unguarded edge out of decision '{}'", wf.node(e.from).label),
            ));
        }
        if !is_decision && e.guard.is_some() {
            report.push(Diagnostic::error(
                Code("CN0108"),
                node_ref(wf, &wf.node(e.from).label),
                format!(
                    "guarded edge out of non-decision '{}'",
                    wf.node(e.from).label
                ),
            ));
        }
    }

    // Reachability.
    if starts == 1 {
        let reach = wf.reachable();
        for n in &wf.nodes {
            if !reach[n.id.index()] {
                report.push(Diagnostic::error(
                    Code("CN0109"),
                    node_ref(wf, &n.label),
                    format!("node '{}' is unreachable from start", n.label),
                ));
            }
        }
    }

    // Unknown blocks.
    for block in wf.blocks() {
        if catalog.get(block).is_none() {
            report.push(Diagnostic::error(
                Code("CN0110"),
                SourceRef::Block {
                    block: block.to_owned(),
                },
                format!("unknown building block '{block}'"),
            ));
        }
    }
}

/// *May*-availability: for each node, the set of types each parameter can
/// arrive with on *some* path from start (union over paths; a parameter
/// mapped to more than one type merges conflicting branch states).
fn may_states(
    wf: &Workflow,
    catalog: &Catalog,
    start: NodeId,
) -> Vec<BTreeMap<String, BTreeSet<ParamType>>> {
    let n = wf.nodes.len();
    let mut avail: Vec<BTreeMap<String, BTreeSet<ParamType>>> = vec![BTreeMap::new(); n];
    for p in &wf.inputs {
        avail[start.index()]
            .entry(p.name.clone())
            .or_default()
            .insert(p.ty);
    }
    let mut queue: VecDeque<_> = VecDeque::from([start]);
    let mut visited_edges = BTreeSet::new();
    while let Some(cur) = queue.pop_front() {
        // State after executing this node.
        let mut after = avail[cur.index()].clone();
        if let NodeKind::Task { block } = &wf.node(cur).kind {
            if let Some(spec) = catalog.get(block) {
                for out in &spec.outputs {
                    after.entry(out.name.clone()).or_default().insert(out.ty);
                }
            }
        }
        for e in wf.out_edges(cur) {
            let changed = {
                let target = &mut avail[e.to.index()];
                let mut grew = false;
                for (k, tys) in &after {
                    let slot = target.entry(k.clone()).or_default();
                    for ty in tys {
                        grew |= slot.insert(*ty);
                    }
                }
                grew
            };
            if changed || visited_edges.insert((e.from, e.to)) {
                queue.push_back(e.to);
            }
        }
    }
    avail
}

/// *Must*-availability: for each node, the set of parameter names
/// guaranteed present on *every* path from start (intersection over
/// in-edges; `None` = not yet reached = ⊤). Takes the edge list explicitly
/// so the blame search can re-run it with a decision branch forced.
fn must_states(
    wf: &Workflow,
    catalog: &Catalog,
    edges: &[WorkflowEdge],
    start: NodeId,
) -> Vec<Option<BTreeSet<String>>> {
    let n = wf.nodes.len();
    let mut must: Vec<Option<BTreeSet<String>>> = vec![None; n];
    must[start.index()] = Some(wf.inputs.iter().map(|p| p.name.clone()).collect());
    let mut queue: VecDeque<_> = VecDeque::from([start]);
    while let Some(cur) = queue.pop_front() {
        let Some(mut after) = must[cur.index()].clone() else {
            continue;
        };
        if let NodeKind::Task { block } = &wf.node(cur).kind {
            if let Some(spec) = catalog.get(block) {
                for out in &spec.outputs {
                    after.insert(out.name.clone());
                }
            }
        }
        for e in edges.iter().filter(|e| e.from == cur) {
            let slot = &mut must[e.to.index()];
            let changed = match slot {
                None => {
                    *slot = Some(after.clone());
                    true
                }
                Some(t) => {
                    let before = t.len();
                    t.retain(|k| after.contains(k));
                    t.len() != before
                }
            };
            if changed {
                queue.push_back(e.to);
            }
        }
    }
    must
}

/// Blame search for a some-paths-only parameter: re-run the must analysis
/// with each decision branch forced in turn; the first decision whose
/// forced branch makes `param` guaranteed at `target` names the *other*
/// branch as the uncovered path.
fn blame_uncovered_branch(
    wf: &Workflow,
    catalog: &Catalog,
    start: NodeId,
    target: NodeId,
    param: &str,
) -> Option<String> {
    for n in &wf.nodes {
        if !matches!(n.kind, NodeKind::Decision { .. }) {
            continue;
        }
        for kept in [true, false] {
            let edges: Vec<WorkflowEdge> = wf
                .edges
                .iter()
                .filter(|e| !(e.from == n.id && e.guard == Some(!kept)))
                .copied()
                .collect();
            let must = must_states(wf, catalog, &edges, start);
            if must[target.index()]
                .as_ref()
                .is_some_and(|s| s.contains(param))
            {
                let (covered, uncovered) = if kept { ("yes", "no") } else { ("no", "yes") };
                return Some(format!(
                    "it is guaranteed only when decision '{}' takes its {covered} branch; \
                     the {uncovered} branch reaches the consumer without it",
                    n.label
                ));
            }
        }
    }
    None
}

/// Parameter dataflow (`CN0201`–`CN0207`): walk the graph from start; at
/// each task, every input parameter must be available (correct name and
/// type) in the accumulated global state — matching the paper's
/// shared-global-state semantics. Inputs available on only *some* paths
/// (may but not must) warn with the uncovered branch named; inputs whose
/// type differs across branches error.
fn analyze_dataflow(wf: &Workflow, catalog: &Catalog, report: &mut Report) {
    let Some(start) = wf.start() else { return };
    let may = may_states(wf, catalog, start);
    let must = must_states(wf, catalog, &wf.edges, start);
    let guaranteed =
        |id: NodeId, name: &str| must[id.index()].as_ref().is_some_and(|s| s.contains(name));
    let some_paths_warning = |code: &'static str, id: NodeId, anchor: SourceRef, head: String| {
        let blame = blame_uncovered_branch(wf, catalog, start, id, &head_param(&anchor))
            .unwrap_or_else(|| "it is not produced on every path from start".into());
        Diagnostic::new(
            Code(code),
            Severity::Warning,
            anchor,
            format!("{head} — {blame}"),
        )
        .with_hint("produce the parameter on every branch, or guard the consumer")
    };

    for node in &wf.nodes {
        match &node.kind {
            NodeKind::Task { block } => {
                let Some(spec) = catalog.get(block) else {
                    continue;
                };
                for input in &spec.inputs {
                    let anchor = SourceRef::Param {
                        scope: node.label.clone(),
                        param: input.name.clone(),
                    };
                    match may[node.id.index()].get(&input.name) {
                        None => report.push(Diagnostic::error(
                            Code("CN0201"),
                            anchor,
                            format!(
                                "block '{}' input '{}' is never produced upstream",
                                node.label, input.name
                            ),
                        )),
                        Some(types) if types.len() > 1 => {
                            let tys: Vec<String> = types.iter().map(|t| format!("{t:?}")).collect();
                            report.push(
                                Diagnostic::error(
                                    Code("CN0207"),
                                    anchor,
                                    format!(
                                        "block '{}' input '{}' arrives with conflicting types \
                                         ({}) depending on the branch taken",
                                        node.label,
                                        input.name,
                                        tys.join(" vs ")
                                    ),
                                )
                                .with_hint("make every branch produce the same type"),
                            );
                        }
                        Some(types) => {
                            let ty = *types.iter().next().expect("non-empty type set");
                            if ty != input.ty {
                                report.push(Diagnostic::error(
                                    Code("CN0202"),
                                    anchor,
                                    format!(
                                        "block '{}' input '{}' has type {:?} upstream but \
                                         expects {:?}",
                                        node.label, input.name, ty, input.ty
                                    ),
                                ));
                            } else if !guaranteed(node.id, &input.name) {
                                let head = format!(
                                    "block '{}' input '{}' is produced on only some paths",
                                    node.label, input.name
                                );
                                report.push(some_paths_warning("CN0206", node.id, anchor, head));
                            }
                        }
                    }
                }
            }
            NodeKind::Decision { variable } => {
                let anchor = SourceRef::Param {
                    scope: node.label.clone(),
                    param: variable.clone(),
                };
                match may[node.id.index()].get(variable) {
                    None => report.push(Diagnostic::error(
                        Code("CN0203"),
                        anchor,
                        format!(
                            "decision '{}' reads variable '{variable}' that is never produced",
                            node.label
                        ),
                    )),
                    Some(types) => {
                        if let Some(bad) = types.iter().find(|t| **t != ParamType::Bool) {
                            report.push(Diagnostic::error(
                                Code("CN0204"),
                                anchor,
                                format!(
                                    "decision '{}' variable '{variable}' must be bool, found {bad:?}",
                                    node.label
                                ),
                            ));
                        } else if !guaranteed(node.id, variable) {
                            let head = format!(
                                "decision '{}' variable '{variable}' is produced on only some paths",
                                node.label
                            );
                            report.push(some_paths_warning("CN0206", node.id, anchor, head));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Declared workflow outputs should be producible somewhere.
    let mut all_produced: BTreeSet<&str> = wf.inputs.iter().map(|p| p.name.as_str()).collect();
    for block in wf.blocks() {
        if let Some(spec) = catalog.get(block) {
            all_produced.extend(spec.outputs.iter().map(|p| p.name.as_str()));
        }
    }
    for out in &wf.outputs {
        if !all_produced.contains(out.name.as_str()) {
            report.push(Diagnostic::warning(
                Code("CN0205"),
                SourceRef::Param {
                    scope: wf.name.clone(),
                    param: out.name.clone(),
                },
                format!(
                    "declared workflow output '{}' is never produced by any block",
                    out.name
                ),
            ));
        }
    }
}

fn head_param(anchor: &SourceRef) -> String {
    match anchor {
        SourceRef::Param { param, .. } => param.clone(),
        _ => String::new(),
    }
}

/// Backout coverage (`CN0208`/`CN0209`): mutating catalog blocks reachable
/// from the main flow should be covered by a backout flow, and the backout
/// must not depend on state only the (possibly failed) mutating blocks
/// produce.
fn analyze_backout_coverage(wf: &Workflow, catalog: &Catalog, report: &mut Report) {
    let reach = wf.reachable();
    let mutating: Vec<(&str, &str)> = wf
        .nodes
        .iter()
        .filter(|n| reach.get(n.id.index()).copied().unwrap_or(false))
        .filter_map(|n| match &n.kind {
            NodeKind::Task { block } if catalog.get(block).is_some_and(|s| s.mutates) => {
                Some((n.label.as_str(), block.as_str()))
            }
            _ => None,
        })
        .collect();

    let Some(backout) = &wf.backout else {
        for (label, block) in mutating {
            report.push(
                Diagnostic::warning(
                    Code("CN0209"),
                    node_ref(wf, label),
                    format!(
                        "mutating block '{block}' is reachable but the workflow declares no \
                         backout flow"
                    ),
                )
                .with_hint("attach a backout workflow with set_backout"),
            );
        }
        return;
    };

    // The state a backout can rely on unconditionally: its own declared
    // inputs, the parent workflow's inputs, and anything its *own* blocks
    // produce. Everything else it consumes must come from parent block
    // outputs — and if every producer is mutating, the backout may run
    // after the very block that failed before producing it.
    let mut unconditional: BTreeSet<&str> = backout
        .inputs
        .iter()
        .chain(wf.inputs.iter())
        .map(|p| p.name.as_str())
        .collect();
    for block in backout.blocks() {
        if let Some(spec) = catalog.get(block) {
            unconditional.extend(spec.outputs.iter().map(|p| p.name.as_str()));
        }
    }
    let mut producers: BTreeMap<&str, Vec<(&str, bool)>> = BTreeMap::new();
    for block in wf.blocks() {
        if let Some(spec) = catalog.get(block) {
            for out in &spec.outputs {
                producers
                    .entry(out.name.as_str())
                    .or_default()
                    .push((block, spec.mutates));
            }
        }
    }
    let mut warned = BTreeSet::new();
    for node in &backout.nodes {
        let NodeKind::Task { block } = &node.kind else {
            continue;
        };
        let Some(spec) = catalog.get(block) else {
            continue;
        };
        for input in &spec.inputs {
            if unconditional.contains(input.name.as_str()) {
                continue;
            }
            let Some(prods) = producers.get(input.name.as_str()) else {
                continue; // never-produced → CN0201 in the backout's own analysis
            };
            if prods.iter().all(|(_, mutates)| *mutates) && warned.insert(input.name.clone()) {
                let (producer, _) = prods[0];
                report.push(
                    Diagnostic::warning(
                        Code("CN0208"),
                        SourceRef::Param {
                            scope: backout.name.clone(),
                            param: input.name.clone(),
                        },
                        format!(
                            "backout consumes '{}' which only the mutating block '{producer}' \
                             produces — if that block fails before producing it, the backout \
                             cannot run",
                            input.name
                        ),
                    )
                    .with_hint("capture the value before mutating, or pass it as a workflow input"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designer::Designer;
    use cornet_catalog::builtin_catalog;
    use cornet_catalog::{BlockSpec, Catalog, Phase};
    use cornet_types::ParamType;

    fn has_error(report: &Report, needle: &str) -> bool {
        report
            .with_severity(Severity::Error)
            .any(|d| d.message.contains(needle))
    }

    fn upgrade_workflow() -> Workflow {
        // Fig. 4: start → health_check → healthy? →(yes) software_upgrade
        // → pre_post_comparison → passed? →(no) roll_back → end.
        let cat = builtin_catalog();
        let mut d = Designer::new(&cat, "fig4");
        d.input("node", ParamType::String);
        d.input("software_version", ParamType::String);
        let start = d.start();
        let hc = d.task("health_check").unwrap();
        let dec1 = d.decision("healthy");
        let up = d.task("software_upgrade").unwrap();
        let cmp = d.task("pre_post_comparison").unwrap();
        let dec2 = d.decision("passed");
        let rb = d.task("roll_back").unwrap();
        let end_ok = d.end();
        let end_fail = d.end();
        d.connect(start, hc)
            .connect(hc, dec1)
            .connect_if(dec1, up, true)
            .connect_if(dec1, end_fail, false)
            .connect(up, cmp)
            .connect(cmp, dec2)
            .connect_if(dec2, end_ok, true)
            .connect_if(dec2, rb, false)
            .connect(rb, end_ok);
        d.build()
    }

    /// Minimal catalog for branch-sensitive tests: a probe that yields a
    /// `ready` flag, two branch blocks producing `result` (types vary per
    /// test), and a consumer of `result`.
    fn diamond_catalog(a_ty: ParamType, b_ty: ParamType) -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            BlockSpec::new("probe", Phase::DesignOrchestration, "probe", true)
                .input("node", ParamType::String)
                .output("ready", ParamType::Bool),
        );
        cat.register(
            BlockSpec::new("branch_a", Phase::DesignOrchestration, "a", true)
                .input("node", ParamType::String)
                .output("result", a_ty),
        );
        cat.register(
            BlockSpec::new("branch_b", Phase::DesignOrchestration, "b", true)
                .input("node", ParamType::String)
                .output("result", b_ty),
        );
        cat.register(
            BlockSpec::new("consume", Phase::DesignOrchestration, "c", true)
                .input("node", ParamType::String)
                .input("result", ParamType::Int),
        );
        cat
    }

    fn diamond_workflow(cat: &Catalog) -> Workflow {
        // start → probe → ready? →(yes) branch_a / (no) branch_b → consume → end
        let mut d = Designer::new(cat, "diamond");
        d.input("node", ParamType::String);
        let start = d.start();
        let probe = d.task("probe").unwrap();
        let dec = d.decision("ready");
        let a = d.task("branch_a").unwrap();
        let b = d.task("branch_b").unwrap();
        let c = d.task("consume").unwrap();
        let end = d.end();
        d.connect(start, probe)
            .connect(probe, dec)
            .connect_if(dec, a, true)
            .connect_if(dec, b, false)
            .connect(a, c)
            .connect(b, c)
            .connect(c, end);
        d.build()
    }

    #[test]
    fn fig4_workflow_is_valid() {
        let cat = builtin_catalog();
        let rep = analyze(&upgrade_workflow(), &cat);
        assert!(!rep.has_errors(), "{}", rep.render_text());
    }

    #[test]
    fn zombie_block_detected() {
        let cat = builtin_catalog();
        let mut wf = upgrade_workflow();
        // Add a task with no edges at all — the paper's zombie.
        wf.add_node(
            "zombie",
            NodeKind::Task {
                block: "traffic_redirect".into(),
            },
        );
        let report = analyze(&wf, &cat);
        assert!(has_error(&report, "zombie"), "{}", report.render_text());
        assert!(report.iter().any(|d| d.code == Code("CN0104")));
    }

    #[test]
    fn dangling_edge_reported_not_panicking() {
        let cat = builtin_catalog();
        let mut wf = upgrade_workflow();
        wf.add_edge(crate::graph::NodeId(0), crate::graph::NodeId(999), None);
        let report = analyze(&wf, &cat);
        assert!(
            has_error(&report, "unknown node"),
            "{}",
            report.render_text()
        );
        // The rendered diagnostic is stable text, no Debug noise.
        let d = report.iter().find(|d| d.code == Code("CN0101")).unwrap();
        assert_eq!(d.message, "edge references unknown node 999");
        assert_eq!(
            d.source,
            SourceRef::Edge {
                workflow: "fig4".into(),
                from: 0,
                to: 999
            }
        );
        assert!(!d.render().contains("NodeId"), "{}", d.render());
    }

    #[test]
    fn missing_no_branch_detected() {
        let cat = builtin_catalog();
        let mut d = Designer::new(&cat, "halfdec");
        d.input("node", ParamType::String);
        let start = d.start();
        let hc = d.task("health_check").unwrap();
        let dec = d.decision("healthy");
        let end = d.end();
        d.connect(start, hc)
            .connect(hc, dec)
            .connect_if(dec, end, true);
        let wf = d.build();
        let rep = analyze(&wf, &cat);
        assert!(has_error(&rep, "yes and a no"), "{}", rep.render_text());
        assert!(rep.iter().any(|d| d.code == Code("CN0107")));
    }

    #[test]
    fn missing_parameter_detected() {
        let cat = builtin_catalog();
        let mut d = Designer::new(&cat, "noparam");
        // software_upgrade needs node + software_version; provide neither.
        let start = d.start();
        let up = d.task("software_upgrade").unwrap();
        let end = d.end();
        d.connect(start, up).connect(up, end);
        let rep = analyze(&d.build(), &cat);
        assert!(
            has_error(&rep, "never produced upstream"),
            "{}",
            rep.render_text()
        );
    }

    #[test]
    fn rollback_before_upgrade_is_rejected() {
        // roll_back consumes previous_version, which only software_upgrade
        // produces — ordering matters.
        let cat = builtin_catalog();
        let mut d = Designer::new(&cat, "misorder");
        d.input("node", ParamType::String);
        d.input("software_version", ParamType::String);
        let start = d.start();
        let rb = d.task("roll_back").unwrap();
        let up = d.task("software_upgrade").unwrap();
        let end = d.end();
        d.connect(start, rb).connect(rb, up).connect(up, end);
        let rep = analyze(&d.build(), &cat);
        assert!(has_error(&rep, "previous_version"), "{}", rep.render_text());
    }

    #[test]
    fn decision_on_non_bool_rejected() {
        let cat = builtin_catalog();
        let mut d = Designer::new(&cat, "badvar");
        d.input("node", ParamType::String);
        let start = d.start();
        let hc = d.task("health_check").unwrap();
        let dec = d.decision("node"); // node is a String
        let e1 = d.end();
        let e2 = d.end();
        d.connect(start, hc).connect(hc, dec);
        d.connect_if(dec, e1, true).connect_if(dec, e2, false);
        let rep = analyze(&d.build(), &cat);
        assert!(has_error(&rep, "must be bool"), "{}", rep.render_text());
    }

    #[test]
    fn undeclared_output_warns() {
        let cat = builtin_catalog();
        let mut d = Designer::new(&cat, "out");
        d.input("node", ParamType::String);
        d.output("mystery", ParamType::String);
        let start = d.start();
        let hc = d.task("health_check").unwrap();
        let end = d.end();
        d.connect(start, hc).connect(hc, end);
        let rep = analyze(&d.build(), &cat);
        assert!(!rep.has_errors());
        assert!(rep
            .with_severity(Severity::Warning)
            .any(|d| d.message.contains("mystery")));
    }

    #[test]
    fn diamond_with_conflicting_branch_types_is_an_error() {
        // branch_a yields result:Int, branch_b yields result:Map — the
        // merge at 'consume' silently depended on traversal order before
        // CN0207 made it explicit.
        let cat = diamond_catalog(ParamType::Int, ParamType::Map);
        let report = analyze(&diamond_workflow(&cat), &cat);
        let d = report.iter().find(|d| d.code == Code("CN0207")).unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert!(d.message.contains("conflicting types"), "{}", d.message);

        // Corrected twin: both branches produce Int — clean.
        let cat = diamond_catalog(ParamType::Int, ParamType::Int);
        let report = analyze(&diamond_workflow(&cat), &cat);
        assert!(!report.has_errors(), "{}", report.render_text());
        assert!(!report.iter().any(|d| d.code == Code("CN0206")));
    }

    #[test]
    fn some_paths_only_parameter_warns_and_names_the_branch() {
        // Only the yes branch runs branch_a (the sole producer of
        // 'result'); the no branch jumps straight to the consumer.
        let cat = diamond_catalog(ParamType::Int, ParamType::Int);
        let mut d = Designer::new(&cat, "skippy");
        d.input("node", ParamType::String);
        let start = d.start();
        let probe = d.task("probe").unwrap();
        let dec = d.decision("ready");
        let a = d.task("branch_a").unwrap();
        let c = d.task("consume").unwrap();
        let end = d.end();
        d.connect(start, probe)
            .connect(probe, dec)
            .connect_if(dec, a, true)
            .connect_if(dec, c, false)
            .connect(a, c)
            .connect(c, end);
        let wf = d.build();
        let report = analyze(&wf, &cat);
        let d = report.iter().find(|d| d.code == Code("CN0206")).unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(
            d.message.contains("yes branch") && d.message.contains("no branch"),
            "{}",
            d.message
        );
        assert!(d.message.contains("only some paths"), "{}", d.message);
        assert!(!report.has_errors(), "{}", report.render_text());

        // Corrected twin: the diamond covers both branches — no CN0206.
        let report = analyze(&diamond_workflow(&cat), &cat);
        assert!(!report.iter().any(|d| d.code == Code("CN0206")));
    }

    #[test]
    fn mutating_block_without_backout_warns() {
        let cat = builtin_catalog();
        let wf = upgrade_workflow(); // software_upgrade + roll_back, no backout
        let report = analyze(&wf, &cat);
        let hits: Vec<_> = report.iter().filter(|d| d.code == Code("CN0209")).collect();
        assert_eq!(hits.len(), 2, "{}", report.render_text());
        assert!(hits.iter().all(|d| d.severity == Severity::Warning));

        // Corrected twin: attaching a backout silences CN0209.
        let mut covered = upgrade_workflow();
        let mut d = Designer::new(&cat, "backout");
        let s = d.start();
        let rb = d.task("roll_back").unwrap();
        let e = d.end();
        d.connect(s, rb).connect(rb, e);
        covered.set_backout(d.build());
        let report = analyze(&covered, &cat);
        assert!(!report.iter().any(|d| d.code == Code("CN0209")));
        // …but the backout leans on previous_version, which only the
        // mutating software_upgrade produces: CN0208.
        assert!(
            report.iter().any(|d| d.code == Code("CN0208")
                && d.severity == Severity::Warning
                && d.message.contains("previous_version")),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn backout_errors_are_prefixed_and_inherit_parent_outputs() {
        let cat = builtin_catalog();

        // Valid backout: roll_back consumes previous_version, which the
        // parent's software_upgrade block produces — the backout inherits it.
        let mut wf = upgrade_workflow();
        let mut d = Designer::new(&cat, "backout");
        let s = d.start();
        let rb = d.task("roll_back").unwrap();
        let e = d.end();
        d.connect(s, rb).connect(rb, e);
        wf.set_backout(d.build());
        let rep = analyze(&wf, &cat);
        assert!(!rep.has_errors(), "{}", rep.render_text());

        // Invalid backout (zombie task) surfaces prefixed errors.
        let mut bad = Workflow::new("bad-backout");
        bad.add_node(
            "zombie",
            NodeKind::Task {
                block: "roll_back".into(),
            },
        );
        let mut wf = upgrade_workflow();
        wf.set_backout(bad);
        let rep = analyze(&wf, &cat);
        assert!(
            rep.with_severity(Severity::Error)
                .any(|d| d.message.starts_with("backout: ")),
            "{}",
            rep.render_text()
        );
    }

    #[test]
    fn backout_with_zombie_node_carries_the_structural_code() {
        // The backout flow itself contains a zombie: recursive analysis
        // keeps the CN0104 code and prefixes the message.
        let cat = builtin_catalog();
        let mut backout = Workflow::new("backout");
        let s = backout.add_node("start", NodeKind::Start);
        let rb = backout.add_node(
            "roll_back",
            NodeKind::Task {
                block: "roll_back".into(),
            },
        );
        let e = backout.add_node("end", NodeKind::End);
        backout.add_edge(s, rb, None);
        backout.add_edge(rb, e, None);
        backout.add_node(
            "stray",
            NodeKind::Task {
                block: "traffic_restore".into(),
            },
        );
        let mut wf = upgrade_workflow();
        wf.set_backout(backout);
        let report = analyze(&wf, &cat);
        let d = report
            .iter()
            .find(|d| d.code == Code("CN0104") && d.message.starts_with("backout: "))
            .expect("prefixed zombie diagnostic");
        assert!(d.message.contains("zombie"), "{}", d.message);
        assert!(report.has_errors());
    }

    #[test]
    fn require_valid_converts_to_error() {
        let cat = builtin_catalog();
        let wf = Workflow::new("empty");
        assert!(require_valid(&wf, &cat).is_err());
        assert!(require_valid(&upgrade_workflow(), &cat).is_ok());
    }
}
