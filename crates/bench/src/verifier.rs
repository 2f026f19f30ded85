//! Appendix D: how impact-verification time moves with the KPI
//! composition (Fig. 10) and with the number of nodes (Fig. 11). The
//! claims are ratios of end points — the milliseconds are the machine's.

use crate::claims::{table, Bound, Claims, Row, Scale};
use cornet_netsim::{KpiCatalog, KpiGenerator, Network, NetworkConfig};
use cornet_types::{NfType, NodeId};
use cornet_verifier::{
    verify_rule, ChangeScope, ClosureAdapter, ControlSelection, KpiQuery, VerificationRule,
};

/// Location attributes to aggregate on (the paper builds them from eNodeB
/// inventory and configuration).
const ATTRS: [&str; 10] = [
    "market",
    "tac",
    "usid",
    "ems",
    "timezone",
    "hw_version",
    "sw_version",
    "nf",
    "utc_offset",
    "carriers",
];

/// What one verification runs over.
struct Workload<'a> {
    net: &'a Network,
    study: usize,
    controls: usize,
    /// Samples per series; the change lands in the middle.
    len: usize,
}

impl Workload<'_> {
    /// Verify `kpis` × the first `attrs` location attributes; the seconds
    /// are the verifier's own clock.
    fn seconds(&self, kpis: &[String], attrs: usize) -> f64 {
        let net = self.net;
        let take =
            |nf, n: usize| -> Vec<NodeId> { net.nodes_of_type(nf).into_iter().take(n).collect() };
        let study = take(NfType::ENodeB, self.study);
        let len = self.len;
        let rule = VerificationRule {
            name: "appendix_d".into(),
            kpis: kpis
                .iter()
                .map(|k| KpiQuery::monitor(k.clone(), true))
                .collect(),
            location_attributes: ATTRS[..attrs].iter().map(|s| s.to_string()).collect(),
            control: ControlSelection::Explicit(take(NfType::Siad, self.controls)),
            control_attr_filter: None,
            timescales: vec![1, 24],
            alpha: 0.01,
            min_relative_shift: 0.01,
        };
        let gen = KpiGenerator {
            seed: 10,
            noise: 0.02,
            ..Default::default()
        };
        let adapter = ClosureAdapter(move |node: NodeId, kpi: &str, carrier: Option<usize>| {
            Some(gen.series(node, kpi, carrier, len, &[]))
        });
        let scope = ChangeScope::simultaneous(&study, len as u64 * 30);
        let report = verify_rule(&adapter, &rule, &scope, &net.inventory, &net.topology);
        report
            .expect("generated series verify")
            .duration
            .as_secs_f64()
    }
}

fn millis(seconds: &[f64]) -> String {
    let cells: Vec<String> = seconds
        .iter()
        .map(|s| format!("{:.1} ms", s * 1e3))
        .collect();
    cells.join(" | ")
}

/// Fig. 10: verification time against KPI group and location attributes.
pub fn fig10(scale: Scale) -> Vec<Row> {
    let (study, controls, len, attr_counts, takes) = match scale {
        Scale::Quick => (100, 30, 200, [1, 3, 5], [4, 6, 8, 10]),
        Scale::Full => (400, 60, 400, [1, 5, 10], [9, 16, 24, 32]),
    };
    let net = Network::generate_ran(&NetworkConfig::default().with_target_nodes(study + 100));
    let workload = Workload {
        net: &net,
        study,
        controls,
        len,
    };
    let catalog = KpiCatalog::table5();
    let mut seconds = Vec::new();
    let mut cells = Vec::new();
    // A slice of each group in proportion to its join work keeps the run
    // short; more KPIs over deeper joins is the paper's trend.
    for (group, take) in ["scorecard", "level1", "level2", "level3"]
        .into_iter()
        .zip(takes)
    {
        let kpis: Vec<_> = catalog.group(group).into_iter().take(take).collect();
        let names: Vec<String> = kpis.iter().map(|k| k.name.clone()).collect();
        let times = attr_counts.map(|attrs| workload.seconds(&names, attrs));
        let joins = catalog.join_work(&kpis);
        cells.push(format!("{group} | {take} | {joins} | {}", millis(&times)));
        seconds.push(times);
    }
    let title = format!("Fig. 10 — verification time vs KPI group × attributes ({study} nodes)");
    let [few, some, many] = attr_counts;
    let header =
        format!("KPI group | KPIs | join work | {few} attrs | {some} attrs | {many} attrs");
    table(&title, &header, &cells);
    let total = |group: usize| seconds[group].iter().sum::<f64>();
    let by_attrs = |column: usize| seconds.iter().map(|g| g[column]).sum::<f64>();
    let mut t = Claims::new("fig10", "Fig 10");
    t.claim("depth", "time, all attribute counts: level-3 ÷ scorecard")
        .paper("grows with the KPI composition depth")
        .measured(total(3) / total(0), Bound::at_least(1.5));
    t.claim("attributes", "time, all groups: most ÷ fewest attributes")
        .paper("grows with the number of location attributes")
        .measured(by_attrs(2) / by_attrs(0), Bound::at_least(1.2));
    t.done()
}

/// Fig. 11: verification time against the number of study nodes.
pub fn fig11(scale: Scale) -> Vec<Row> {
    let (sizes, len): (&[usize], usize) = match scale {
        Scale::Quick => (&[200, 400, 800], 200),
        Scale::Full => (&[400, 800, 1600, 3200, 6400], 400),
    };
    let kpis: Vec<String> = (0..4).map(|i| format!("kpi{i}")).collect();
    let mut seconds = Vec::new();
    let mut cells = Vec::new();
    for &study in sizes {
        let config = NetworkConfig {
            seed: 3,
            ..Default::default()
        };
        let net = Network::generate_ran(&config.with_target_nodes(study + 200));
        let workload = Workload {
            net: &net,
            study,
            controls: 100,
            len,
        };
        let times = [1, 5].map(|attrs| workload.seconds(&kpis, attrs));
        cells.push(format!("{study} | {}", millis(&times)));
        seconds.push(times);
    }
    let title = "Fig. 11 — verification time vs nodes × location attributes";
    table(title, "nodes | 1 attr | 5 attrs", &cells);
    let both = |size: usize| seconds[size][0] + seconds[size][1];
    let column = |attrs: usize| seconds.iter().map(|s| s[attrs]).sum::<f64>();
    let last = sizes.len() - 1;
    let growth = (sizes[last] / sizes[0]) as f64;
    let mut t = Claims::new("fig11", "Fig 11");
    t.claim("nodes", "time, most ÷ fewest nodes (bound: growth ÷ 2)")
        .paper("grows with the number of eNodeBs")
        .measured(both(last) / both(0), Bound::at_least(growth / 2.0));
    t.claim("attributes", "time, all sizes: 5 ÷ 1 location attributes")
        .paper("grows with the attribute composition")
        .measured(column(1) / column(0), Bound::at_least(1.2));
    t.done()
}
