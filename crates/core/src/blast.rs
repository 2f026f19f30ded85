//! Campaign blast-radius inference and cross-campaign interference
//! detection (the CN06xx pass).
//!
//! ROADMAP item 4 asks for "only the blast radius changed" guarantees.
//! The first half of that is knowing the blast radius *before* the
//! change runs: this module summarizes each campaign of a MOP bundle as
//! the set of `(node, state dimension, time window)` triples its
//! workflow may touch — workflow effects from
//! [`cornet_workflow::effects`], node targets and waves from the
//! campaign schedule, wall-clock windows from the bundle's scheduling
//! intent when it carries one.
//!
//! On top of the summaries runs a happens-before interference check:
//! two campaigns conflict when they touch the same dimension of the
//! same node in overlapping windows. Node identity is the inventory
//! *name* (stable across bundles), so the same detector serves both the
//! in-bundle pass [`crate::check::check`] runs and
//! the daemon's cross-tenant admission gate (a submitted campaign
//! against every live one).
//!
//! | code   | severity | finding |
//! |--------|----------|---------|
//! | CN0601 | error    | write-write race: both campaigns mutate the same dimension in overlapping windows |
//! | CN0602 | warning  | a backout flow races another campaign's mainline writes |
//! | CN0603 | error    | declared-scope escape: a campaign schedules a node outside the bundle's TAC |
//! | CN0604 | warning  | read-write hazard: one campaign's verification reads a dimension another mutates |
//! | CN0605 | info     | a conflicting campaign's effects were conservatively assumed |

use crate::check::MopBundle;
use cornet_analysis::{Code, Diagnostic, Report, SourceRef};
use cornet_catalog::StateDim;
use cornet_types::json::JsonWriter;
use cornet_types::NodeId;
use cornet_workflow::workflow_effects;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One `(node, window)` element of a campaign's blast radius.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeTouch {
    /// Node id within the owning bundle.
    pub node: u32,
    /// Global node identity: the inventory name when the bundle has one,
    /// `node #<id>` otherwise. Cross-bundle comparison keys on this.
    pub name: String,
    /// Scheduled wave.
    pub slot: u32,
    /// Inclusive window the wave occupies: wall-clock minutes when the
    /// bundle's intent resolves a scheduling window, raw slot indices
    /// otherwise (see [`NodeTouch::wall`]).
    pub window: (u64, u64),
    /// Whether [`NodeTouch::window`] is wall-clock minutes (`true`) or
    /// abstract slot units (`false`). Windows in different bases are
    /// conservatively treated as overlapping.
    pub wall: bool,
}

/// The symbolic blast radius of one campaign: which dimensions of which
/// nodes it may touch, and when.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignBlast {
    /// Workflow the campaign dispatches.
    pub workflow: String,
    /// Index of the campaign in its bundle.
    pub index: usize,
    /// Dimensions the mainline may write.
    pub writes: BTreeSet<StateDim>,
    /// Dimensions every mainline path writes.
    pub must_writes: BTreeSet<StateDim>,
    /// Dimensions the mainline may read.
    pub reads: BTreeSet<StateDim>,
    /// Dimensions the backout flow may write (the backout executes in
    /// the same wave window as the mainline instance it unwinds).
    pub backout_writes: BTreeSet<StateDim>,
    /// Whether any effect set was conservatively assumed (workflow not
    /// defined in the bundle, or unannotated mutating blocks).
    pub assumed: bool,
    /// Every node the campaign schedules, with its wave window.
    pub touches: Vec<NodeTouch>,
}

impl CampaignBlast {
    /// Render the blast summary as a JSON object.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let mut w = JsonWriter::compact(&mut out);
        w.begin_object();
        w.key("workflow").str(&self.workflow);
        for (key, dims) in [
            ("writes", &self.writes),
            ("must_writes", &self.must_writes),
            ("reads", &self.reads),
            ("backout_writes", &self.backout_writes),
        ] {
            w.key(key).begin_array();
            for d in dims {
                w.display(d);
            }
            w.end_array();
        }
        w.key("assumed").bool(self.assumed);
        w.key("nodes").begin_array();
        for t in &self.touches {
            w.begin_object();
            w.key("node").str(&t.name);
            w.key("slot").int(t.slot);
            w.key("window").begin_array();
            w.int(t.window.0).int(t.window.1).end_array();
            w.key("basis").str(if t.wall { "minutes" } else { "slots" });
            w.end_object();
        }
        w.end_array().end_object();
        out
    }
}

/// One detected interference between two campaigns on one node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlastConflict {
    /// Diagnostic code: CN0601 (write-write), CN0602 (backout-vs-
    /// mainline), or CN0604 (read-write).
    pub code: &'static str,
    /// Global node identity the campaigns collide on.
    pub node: String,
    /// Node id as the *left* campaign's bundle numbers it.
    pub node_id: u32,
    /// The left claim's wave.
    pub slot: u32,
    /// Contested state dimensions.
    pub dims: BTreeSet<StateDim>,
    /// Workflow name of the left (first) campaign.
    pub left: String,
    /// Workflow name of the right (second) campaign.
    pub right: String,
    /// Whether either side's effects were conservatively assumed.
    pub assumed: bool,
}

fn dims_list(dims: &BTreeSet<StateDim>) -> String {
    dims.iter()
        .map(|d| d.label())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Compute the blast radius of every campaign in a bundle.
pub fn campaign_blasts(bundle: &MopBundle) -> Vec<CampaignBlast> {
    let window = bundle.intent.as_ref().and_then(|it| it.window().ok());
    bundle
        .campaigns
        .iter()
        .enumerate()
        .map(|(index, campaign)| {
            let mut blast = match bundle
                .workflows
                .iter()
                .find(|wf| wf.name == campaign.workflow)
            {
                Some(wf) => {
                    let eff = workflow_effects(wf, &bundle.catalog);
                    CampaignBlast {
                        workflow: campaign.workflow.clone(),
                        index,
                        assumed: eff.is_assumed(),
                        backout_writes: eff.backout_writes(),
                        writes: eff.may_writes,
                        must_writes: eff.must_writes,
                        reads: eff.may_reads,
                        touches: Vec::new(),
                    }
                }
                // A campaign naming a workflow the bundle does not carry:
                // nothing to analyze, so assume it can write anything.
                None => CampaignBlast {
                    workflow: campaign.workflow.clone(),
                    index,
                    writes: StateDim::ALL.into_iter().collect(),
                    must_writes: BTreeSet::new(),
                    reads: BTreeSet::new(),
                    backout_writes: BTreeSet::new(),
                    assumed: true,
                    touches: Vec::new(),
                },
            };
            for (&node, &slot) in &campaign.schedule.assignments {
                let name = bundle
                    .inventory
                    .get(node)
                    .map(|r| r.name.clone())
                    .unwrap_or_else(|| format!("node #{}", node.0));
                let (win, wall) = match &window {
                    Some(w) => {
                        let (s, e) = w.slot_period(slot);
                        ((s.minutes(), e.minutes()), true)
                    }
                    None => ((slot.0 as u64, slot.0 as u64), false),
                };
                blast.touches.push(NodeTouch {
                    node: node.0,
                    name,
                    slot: slot.0,
                    window: win,
                    wall,
                });
            }
            blast
        })
        .collect()
}

fn windows_overlap(a: &NodeTouch, b: &NodeTouch) -> bool {
    if a.wall != b.wall {
        // Incomparable bases (one bundle has a calendar, the other only
        // abstract slots): assume overlap rather than miss a race.
        return true;
    }
    a.window.0 <= b.window.1 && b.window.0 <= a.window.1
}

/// All interferences between one pair of claims on the same node.
fn claim_conflicts(
    a: &CampaignBlast,
    ta: &NodeTouch,
    b: &CampaignBlast,
    tb: &NodeTouch,
) -> Vec<BlastConflict> {
    if !windows_overlap(ta, tb) {
        return Vec::new();
    }
    let assumed = a.assumed || b.assumed;
    let conflict = |code, dims: BTreeSet<StateDim>| BlastConflict {
        code,
        node: ta.name.clone(),
        node_id: ta.node,
        slot: ta.slot,
        dims,
        left: a.workflow.clone(),
        right: b.workflow.clone(),
        assumed,
    };
    let mut out = Vec::new();
    let ww: BTreeSet<StateDim> = &a.writes & &b.writes;
    if !ww.is_empty() {
        out.push(conflict("CN0601", ww.clone()));
    }
    let backout: BTreeSet<StateDim> =
        &(&a.backout_writes & &b.writes) | &(&b.backout_writes & &a.writes);
    if !backout.is_empty() {
        out.push(conflict("CN0602", backout));
    }
    let rw: BTreeSet<StateDim> = &(&(&a.writes & &b.reads) | &(&b.writes & &a.reads)) - &ww;
    if !rw.is_empty() {
        out.push(conflict("CN0604", rw));
    }
    out
}

/// Node-keyed index of every blast's touches (the same shape as
/// `cornet_planner::index_by_node`, keyed on global node names): claims
/// are paired only within a node, so the detector scales with per-node
/// contention, not with the number of campaign pairs.
fn touch_index(blasts: &[CampaignBlast]) -> BTreeMap<&str, Vec<(usize, &NodeTouch)>> {
    let mut index: BTreeMap<&str, Vec<(usize, &NodeTouch)>> = BTreeMap::new();
    for (i, blast) in blasts.iter().enumerate() {
        for touch in &blast.touches {
            index
                .entry(touch.name.as_str())
                .or_default()
                .push((i, touch));
        }
    }
    index
}

/// Interferences among the campaigns of one bundle.
pub fn conflicts_within(blasts: &[CampaignBlast]) -> Vec<BlastConflict> {
    let mut out = Vec::new();
    for claims in touch_index(blasts).values() {
        for (x, &(i, ti)) in claims.iter().enumerate() {
            for &(j, tj) in &claims[x + 1..] {
                if i != j {
                    out.extend(claim_conflicts(&blasts[i], ti, &blasts[j], tj));
                }
            }
        }
    }
    out
}

/// Interferences between two independently computed blast sets (the
/// daemon's admission gate: `left` is the submitted campaign set,
/// `right` one live campaign's).
pub fn conflicts_between(left: &[CampaignBlast], right: &[CampaignBlast]) -> Vec<BlastConflict> {
    let right_index = touch_index(right);
    let mut out = Vec::new();
    for blast in left {
        for touch in &blast.touches {
            if let Some(claims) = right_index.get(touch.name.as_str()) {
                for &(j, tj) in claims {
                    out.extend(claim_conflicts(blast, touch, &right[j], tj));
                }
            }
        }
    }
    out
}

/// Render a conflict as a diagnostic.
pub fn conflict_diagnostic(c: &BlastConflict) -> Diagnostic {
    let source = SourceRef::Target {
        node: c.node_id,
        slot: Some(c.slot),
    };
    match c.code {
        "CN0601" => Diagnostic::error(
            Code("CN0601"),
            source,
            format!(
                "write-write race: campaigns '{}' and '{}' both write {{{}}} of {} in overlapping windows",
                c.left,
                c.right,
                dims_list(&c.dims),
                c.node
            ),
        )
        .with_hint("serialize the campaigns into disjoint waves or split their node scopes"),
        "CN0602" => Diagnostic::warning(
            Code("CN0602"),
            source,
            format!(
                "backout-vs-mainline overlap: a backout of '{}' or '{}' would race the other's \
                 mainline writes to {{{}}} of {}",
                c.left,
                c.right,
                dims_list(&c.dims),
                c.node
            ),
        )
        .with_hint("a failure-triggered backout executes inside the same wave window; stagger the campaigns"),
        _ => Diagnostic::warning(
            Code("CN0604"),
            source,
            format!(
                "read-write hazard: one of campaigns '{}' and '{}' reads {{{}}} of {} while the \
                 other mutates it, polluting pre/post verification",
                c.left,
                c.right,
                dims_list(&c.dims),
                c.node
            ),
        )
        .with_hint("verification readings taken during another campaign's change window are unreliable"),
    }
}

/// The CN06xx pass body: blast-radius inference, declared-scope escape
/// detection, and in-bundle interference over the node-keyed index.
pub fn analyze_interference(bundle: &MopBundle, report: &mut Report) {
    let blasts = campaign_blasts(bundle);

    // Declared-scope escapes: the bundle's scope (explicit, or the whole
    // inventory) is the change's TAC; scheduling a node outside it means
    // the blast radius exceeds what was declared.
    let scope: BTreeSet<NodeId> = bundle.scope.iter().copied().collect();
    for blast in &blasts {
        for touch in &blast.touches {
            if !scope.contains(&NodeId(touch.node)) {
                report.push(
                    Diagnostic::error(
                        Code("CN0603"),
                        SourceRef::Target {
                            node: touch.node,
                            slot: Some(touch.slot),
                        },
                        format!(
                            "declared-scope escape: campaign '{}' schedules {} which is outside \
                             the bundle's {}-node declared scope",
                            blast.workflow,
                            touch.name,
                            scope.len()
                        ),
                    )
                    .with_hint(
                        "add the node to the bundle scope/inventory or drop it from the campaign",
                    ),
                );
            }
        }
    }

    let conflicts = conflicts_within(&blasts);
    let mut suspicious: BTreeSet<&str> = BTreeSet::new();
    for c in &conflicts {
        if c.assumed {
            if blasts.iter().any(|b| b.workflow == c.left && b.assumed) {
                suspicious.insert(&c.left);
            }
            if blasts.iter().any(|b| b.workflow == c.right && b.assumed) {
                suspicious.insert(&c.right);
            }
        }
        report.push(conflict_diagnostic(c));
    }
    // Explain conservatism only when it contributed to a finding, so
    // clean bundles stay CN06xx-silent even with unknown workflows.
    for workflow in suspicious {
        report.push(Diagnostic::info(
            Code("CN0605"),
            SourceRef::Global,
            format!(
                "effects of campaign '{workflow}' were conservatively assumed (workflow not in \
                 the bundle or unannotated mutating blocks); its conflicts may be wider than real"
            ),
        ));
    }
}

/// Text rendering of a bundle's blast radii for `cornet blast`.
pub fn render_blast_text(blasts: &[CampaignBlast]) -> String {
    let mut out = String::new();
    for b in blasts {
        let _ = writeln!(
            out,
            "campaign '{}'{}: writes {{{}}}{} reads {{{}}} backout {{{}}} over {} node(s)",
            b.workflow,
            if b.assumed { " (assumed)" } else { "" },
            dims_list(&b.writes),
            if b.must_writes == b.writes {
                String::new()
            } else {
                format!(" (always {{{}}})", dims_list(&b.must_writes))
            },
            dims_list(&b.reads),
            dims_list(&b.backout_writes),
            b.touches.len(),
        );
        for t in &b.touches {
            let _ = writeln!(
                out,
                "  {} @ slot {} window [{}, {}] {}",
                t.name,
                t.slot,
                t.window.0,
                t.window.1,
                if t.wall { "min" } else { "slots" },
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::load_bundle;

    fn two_campaign_bundle(slot_b: u32) -> String {
        format!(
            r#"{{
            "workflows": [
                {{"name": "upgrade",
                  "inputs": {{"node": "string", "software_version": "string"}},
                  "sequence": ["software_upgrade"]}},
                {{"name": "patch",
                  "inputs": {{"node": "string", "software_version": "string"}},
                  "sequence": ["software_upgrade"]}}
            ],
            "inventory": [{{"name": "enb-0", "nf_type": "enb"}},
                          {{"name": "enb-1", "nf_type": "enb"}}],
            "campaigns": [
                {{"workflow": "upgrade", "assignments": [[0, 1]]}},
                {{"workflow": "patch", "assignments": [[0, {slot_b}]]}}
            ]
        }}"#
        )
    }

    #[test]
    fn same_node_same_dim_overlapping_windows_is_a_write_write_race() {
        let bundle = load_bundle(&two_campaign_bundle(1)).unwrap();
        let mut report = Report::new();
        analyze_interference(&bundle, &mut report);
        let d = report
            .iter()
            .find(|d| d.code == Code("CN0601"))
            .expect("write-write race");
        assert!(d.message.contains("enb-0"), "{}", d.message);
        assert!(d.message.contains("version"), "{}", d.message);
        // Both workflows are fully annotated builtin blocks: no CN0605.
        assert!(report.iter().all(|d| d.code != Code("CN0605")));
    }

    #[test]
    fn serialized_waves_do_not_interfere() {
        let bundle = load_bundle(&two_campaign_bundle(2)).unwrap();
        let mut report = Report::new();
        analyze_interference(&bundle, &mut report);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn scope_escape_is_flagged() {
        let text = r#"{
            "workflows": [{"name": "up",
                           "inputs": {"node": "string", "software_version": "string"},
                           "sequence": ["software_upgrade"]}],
            "inventory": [{"name": "enb-0", "nf_type": "enb"}],
            "campaigns": [{"workflow": "up", "assignments": [[9, 1]]}]
        }"#;
        let bundle = load_bundle(text).unwrap();
        let mut report = Report::new();
        analyze_interference(&bundle, &mut report);
        let d = report
            .iter()
            .find(|d| d.code == Code("CN0603"))
            .expect("scope escape");
        assert!(d.message.contains("node #9"), "{}", d.message);
        assert_eq!(report.error_count(), 1);
    }

    #[test]
    fn admission_order_does_not_change_the_verdict() {
        let a = load_bundle(&two_campaign_bundle(1)).unwrap();
        let mut swapped = load_bundle(&two_campaign_bundle(1)).unwrap();
        swapped.campaigns.reverse();
        let (mut ra, mut rb) = (Report::new(), Report::new());
        analyze_interference(&a, &mut ra);
        analyze_interference(&swapped, &mut rb);
        ra.sort();
        rb.sort();
        let codes = |r: &Report| {
            r.iter()
                .map(|d| (d.code, d.source.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(codes(&ra), codes(&rb));
        assert!(!ra.is_clean());
    }

    #[test]
    fn backout_races_other_mainline_and_reads_see_writes() {
        // 'upgrade' has a traffic_restore backout (routing write);
        // 'reroute' mainline writes routing in the same wave → CN0602.
        // 'reroute' also runs health_check while 'upgrade' mutates → the
        // write-read hazard is reported for health only if one writes it.
        let text = r#"{
            "workflows": [
                {"name": "upgrade",
                 "inputs": {"node": "string", "software_version": "string"},
                 "sequence": ["software_upgrade"],
                 "backout": ["traffic_restore"]},
                {"name": "reroute",
                 "inputs": {"node": "string"},
                 "sequence": ["traffic_redirect", "pre_post_comparison"]}
            ],
            "inventory": [{"name": "enb-0", "nf_type": "enb"}],
            "campaigns": [
                {"workflow": "upgrade", "assignments": [[0, 1]]},
                {"workflow": "reroute", "assignments": [[0, 1]]}
            ]
        }"#;
        let bundle = load_bundle(text).unwrap();
        let blasts = campaign_blasts(&bundle);
        let conflicts = conflicts_within(&blasts);
        assert!(
            conflicts
                .iter()
                .any(|c| c.code == "CN0602" && c.dims.contains(&StateDim::Routing)),
            "{conflicts:?}"
        );
        // No shared write dim between version and routing mainlines.
        assert!(
            conflicts.iter().all(|c| c.code != "CN0601"),
            "{conflicts:?}"
        );
    }

    #[test]
    fn cross_set_detection_matches_in_bundle_detection() {
        let bundle = load_bundle(&two_campaign_bundle(1)).unwrap();
        let blasts = campaign_blasts(&bundle);
        let within = conflicts_within(&blasts);
        let between = conflicts_between(&blasts[..1], &blasts[1..]);
        assert_eq!(within.len(), between.len());
        assert_eq!(within[0].code, between[0].code);
        assert_eq!(within[0].dims, between[0].dims);
    }

    #[test]
    fn windows_come_from_the_intent_when_present() {
        let text = r#"{
            "workflows": [{"name": "up",
                           "inputs": {"node": "string", "software_version": "string"},
                           "sequence": ["software_upgrade"]}],
            "inventory": [{"name": "enb-0", "nf_type": "enb"}],
            "intent": {
                "scheduling_window": {"start": "2020-07-01 00:00:00",
                                      "end": "2020-07-04 23:59:00",
                                      "granularity": {"metric": "day", "value": 1}},
                "maintenance_window": {"start": "0:00", "end": "6:00"},
                "schedulable_attribute": "common_id",
                "conflict_attribute": "common_id",
                "constraints": []
            },
            "campaigns": [{"workflow": "up", "assignments": [[0, 2]]}]
        }"#;
        let bundle = load_bundle(text).unwrap();
        let blasts = campaign_blasts(&bundle);
        let touch = &blasts[0].touches[0];
        assert!(touch.wall);
        // Slot 2 is the second day of the window: a full-day window.
        assert_eq!(touch.window.1 - touch.window.0 + 1, 24 * 60);
    }
}
