//! The seeded experiments: every table and figure the paper draws from
//! operational data or from the catalog. None reads a clock, so each row
//! is the same on every machine (`Kind::Deterministic`).

use crate::claims::{bar, table, Bound, Claims, Row, Scale};
use cornet_catalog::builtin_catalog;
use cornet_netsim::changelog::{
    change_mix, generate_change_log, rollout_curve, rollout_windows, ChangeLogConfig, ChangeMixRow,
    RolloutConfig, RolloutPlanner,
};
use cornet_netsim::{usage, ImpactKind, InjectedImpact, KpiCatalog, KpiGenerator, Network};
use cornet_planner::{plan, translate, GroupStrategy, PlanIntent, PlanOptions, TranslateOptions};
use cornet_stats::{detect_level_shifts, mann_whitney_u, robust_rank_order, series::AggFn};
use cornet_types::{Attributes, Inventory, NfType, NodeId, SimTime, Topology};
use cornet_verifier::{
    analyze_kpi, derive_control_group, AnalysisOptions, ChangeScope, ClosureAdapter,
    ControlSelection, ImpactVerdict,
};

const TYPES: [&str; 4] = ["software", "config", "retuning", "construction"];

/// Per-type duration statistics of a seeded three-year change log.
fn mix(seed: u64, with_cornet: bool, activities: usize) -> Vec<ChangeMixRow> {
    let config = ChangeLogConfig::table1(seed, with_cornet);
    let start = SimTime::from_ymd_hm(2018, 1, 1, 0, 0);
    change_mix(&generate_change_log(&config, 60_000, activities, start))
}

/// A roll-out of `total` nodes: its completion curve and window count.
fn rollout(planner: RolloutPlanner, seed: u64, run_rate: usize, total: usize) -> (Vec<f64>, f64) {
    let config = RolloutConfig {
        seed,
        run_rate,
        ..Default::default()
    };
    let curve = rollout_curve(&config, planner, total);
    let windows = rollout_windows(&curve) as f64;
    (curve, windows)
}

fn kpi_generator(seed: u64, noise: f64) -> KpiGenerator {
    KpiGenerator {
        seed,
        noise,
        ..Default::default()
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Table 1: change mix, duration per node, network-wide roll-out time.
pub fn table1(_: Scale) -> Vec<Row> {
    const TABLE6_WINS: &str = "the paper's Table 1 and Table 6 disagree on this mean \
        (config 1.66 vs 1.29, re-tuning 3.82 vs 3.17, construction 3.01 vs 3.78); \
        netsim::changelog is calibrated to Table 6";
    let activities = 200_000;
    // Software upgrades and config changes roll the whole network (paper:
    // 63 and 35 windows); the other two are continuous programmes.
    let default_seed = RolloutConfig::default().seed;
    let windows = |run_rate| rollout(RolloutPlanner::Cornet, default_seed, run_rate, 60_000).1;
    let paper = [
        (24.67, 1.92, Some((windows(1150), 63.0))),
        (65.82, 1.66, Some((windows(2300), 35.0))),
        (1.14, 3.82, None),
        (8.37, 3.01, None),
    ];
    let mut t = Claims::new("table1", "Table 1");
    let mut cells = Vec::new();
    for ((r, name), (share, avg, rollout)) in mix(42, true, activities).iter().zip(TYPES).zip(paper)
    {
        let rolled = rollout.map_or("continuous".into(), |(w, _)| w.to_string());
        let (share_pct, avg_mw) = (r.share_pct, r.avg_duration);
        cells.push(format!(
            "{} | {share_pct:.2}% | {avg_mw:.2} | {rolled}",
            r.change_type
        ));
        t.claim(&format!("{name}.share_pct"), "share of activities, %")
            .paper(&share.to_string())
            .measured(share_pct, Bound::within(share - 0.5, share + 0.5));
        let mean = t.claim(&format!("{name}.avg_mw"), "mean windows per node");
        mean.near(avg, 0.10, avg_mw);
        if name != "software" {
            mean.waive(TABLE6_WINS);
        }
        if let Some((windows, paper_windows)) = rollout {
            let what = format!("{name}.rollout_windows");
            t.claim(&what, "windows to roll out 60 000 nodes")
                .near(paper_windows, 0.15, windows);
        }
    }
    let title = format!("Table 1 — change mix over {activities} activities on 60000 nodes");
    let header = "Change type | Activities | Avg. duration/node (MW) | Roll-out (60K+ nodes)";
    table(&title, header, &cells);
    t.done()
}

/// Fig. 1: FFA trickle, assessment, crawl/walk, then the run phase.
pub fn fig1(_: Scale) -> Vec<Row> {
    let curve = rollout_curve(&RolloutConfig::default(), RolloutPlanner::Cornet, 60_000);
    let windows = rollout_windows(&curve);
    println!("\nFig. 1 — staggered deployment of 60000 eNodeBs ({windows} slots)\n");
    for (i, f) in curve.iter().enumerate().take(windows) {
        if i < 16 || i % 4 == 0 || i + 1 == windows {
            println!("{:>5}  {:>6.1}%  {}", i + 1, f * 100.0, bar(*f, 50));
        }
    }
    let mut t = Claims::new("fig1", "Fig 1");
    t.claim("windows", "windows until 60 000 nodes are done")
        .near(63.0, 0.05, windows as f64);
    t.claim("ramp_start_pct", "share done when crawl/walk ends, %")
        .paper("a trickle, then a ramp")
        .measured(curve[13] * 100.0, Bound::at_most(10.0));
    t.done()
}

/// Fig. 2: the day-28 change moves CF-3 up and CF-1/CF-2 down, and the
/// all-carrier aggregate hides it.
pub fn fig2(_: Scale) -> Vec<Row> {
    let (node, kpi, change_day) = (NodeId(17), "dl_throughput", 28usize);
    let injected = [-0.18, -0.15, 0.25, 0.0, 0.0];
    let impact = |cf: usize| InjectedImpact {
        node,
        kpi: kpi.into(),
        carrier: Some(cf),
        at_minute: change_day as u64 * 24 * 60,
        kind: ImpactKind::LevelShift,
        magnitude: injected[cf],
    };
    let impacts = [impact(0), impact(1), impact(2)];
    let gen = kpi_generator(2, 0.03);
    // The strongest shift of at least 3 % of the level, if any.
    let strongest = |daily: &[f64]| {
        let shifts = detect_level_shifts(daily, 4, 5.0).into_iter();
        let relevant = shifts.filter(|s| s.delta.abs() >= 0.03 * mean(daily));
        relevant.max_by(|a, b| a.score.total_cmp(&b.score))
    };

    println!("\nFig. 2 — per-carrier daily dl throughput, 60 days, change on day {change_day}\n");
    let mut t = Claims::new("fig2", "Fig 2");
    let mut carriers = Vec::new();
    for (cf, &magnitude) in injected.iter().enumerate() {
        let hourly = gen.series(node, kpi, Some(cf), 60 * 24, &impacts);
        let daily = hourly.resample(24, AggFn::Mean).values;
        let shift = strongest(&daily);
        let (pre, post) = (mean(&daily[..change_day]), mean(&daily[change_day..]));
        let event = shift.as_ref().map_or("no level change".into(), |s| {
            format!("level change at day {} (Δ {:+.1})", s.index, s.delta)
        });
        let name = format!("cf{}", cf + 1);
        println!("  {name}: pre {pre:7.1}  post {post:7.1}   {event}");
        carriers.push(daily);
        if magnitude == 0.0 {
            t.claim(&format!("{name}.shifts"), "level changes detected")
                .exactly(0.0, shift.iter().count());
            continue;
        }
        let shift = shift.as_ref();
        let towards_paper = shift.map(|s| 100.0 * s.delta * magnitude.signum() / pre);
        let days_off = shift.map(|s| s.index.abs_diff(change_day) as f64);
        t.claim(
            &format!("{name}.direction"),
            "shift in the paper's direction, %",
        )
        .paper(if magnitude > 0.0 {
            "upward"
        } else {
            "downward"
        })
        .measured(towards_paper, Bound::at_least(3.0));
        t.claim(
            &format!("{name}.day_error"),
            "|detected day − 28|, window 4 days",
        )
        .paper("day 28")
        .measured(days_off, Bound::at_most(1.0));
    }
    let all_carriers = |day: usize| carriers.iter().map(|c| c[day]).sum::<f64>() / 5.0;
    let combined: Vec<f64> = (0..60).map(all_carriers).collect();
    let masked = strongest(&combined).iter().count();
    println!("\n  combined CF 1-5: {masked} level changes — per-carrier impacts masked");
    t.claim("aggregate_shifts", "level changes in the all-carrier mean")
        .exactly(0.0, masked);
    let ratio = mean(&carriers[4][..change_day]) / mean(&carriers[0][..change_day]);
    t.claim("cf5_over_cf1", "pre-change throughput, CF-5 ÷ CF-1")
        .paper("higher carrier, higher throughput")
        .measured(ratio, Bound::at_least(1.5));
    t.done()
}

/// Table 2: the building-block catalog.
pub fn table2(_: Scale) -> Vec<Row> {
    let catalog = builtin_catalog();
    let mut cells = Vec::new();
    for b in catalog.iter() {
        let agnostic = if b.nf_agnostic { "✓" } else { "✗" };
        cells.push(format!(
            "{} | {} | {} | {agnostic}",
            b.phase, b.name, b.function
        ));
    }
    let title = format!(
        "Table 2 — CORNET catalog ({} building blocks)",
        catalog.len()
    );
    table(
        &title,
        "Phase | Building block | Function | NF-agnostic",
        &cells,
    );
    let agnostic = catalog.iter().filter(|b| b.nf_agnostic).count();
    let mut t = Claims::new("table2", "Table 2");
    t.claim("blocks", "building blocks in the catalog")
        .exactly(19.0, catalog.len());
    t.claim("nf_agnostic", "NF-agnostic building blocks")
        .exactly(10.0, agnostic);
    t.done()
}

/// Table 3 and the module counts of §4.1–§4.3 it summarises.
pub fn table3(_: Scale) -> Vec<Row> {
    let paper = [
        ("designer", "§4.1", 24.0, 14.0, 42.0),
        ("planner", "§4.2", 126.0, 11.0, 91.0),
        ("verifier", "§4.3", 63.0, 11.0, 83.0),
    ];
    let mut t = Claims::new("table3", "Table 3");
    let mut cells = Vec::new();
    let measured = cornet_core::table3(&builtin_catalog());
    for (r, (name, section, custom, cornet, pct)) in measured.iter().zip(paper) {
        let (custom_n, cornet_n) = (r.custom_modules, r.cornet_modules);
        cells.push(format!(
            "{} | {custom_n} | {cornet_n} | {:.0}%",
            r.name, r.reuse_pct
        ));
        t.source(section);
        t.claim(
            &format!("{name}.custom_modules"),
            "modules, custom solution",
        )
        .exactly(custom, custom_n);
        t.claim(&format!("{name}.cornet_modules"), "modules with CORNET")
            .exactly(cornet, cornet_n);
        t.source("Table 3");
        // The paper prints whole percents.
        t.claim(&format!("{name}.reuse_pct"), "code re-use, %")
            .paper(&pct.to_string())
            .measured(r.reuse_pct, Bound::within(pct - 0.5, pct + 0.5));
    }
    let header = "Component | Custom modules | CORNET modules | Code re-use";
    table("Table 3 — code re-use", header, &cells);
    t.done()
}

/// §4.3: 60 labelled impacts (20 up, 20 down, 20 none) over staggered
/// 8-node scopes, each to be named by the verifier.
pub fn sec43(_: Scale) -> Vec<Row> {
    let study: Vec<NodeId> = (0..8).map(NodeId).collect();
    let control: Vec<NodeId> = (100..116).map(NodeId).collect();
    let generator = kpi_generator(42, 0.02);
    let options = AnalysisOptions {
        min_relative_shift: 0.05,
        ..Default::default()
    };
    let mut correct = 0;
    for i in 0..60usize {
        let kpi = format!("kpi_{i:02}");
        let (label, expected) = [
            (1.0, ImpactVerdict::Improvement),
            (-1.0, ImpactVerdict::Degradation),
            (0.0, ImpactVerdict::NoImpact),
        ][i % 3];
        let first = 6_000 + (i as u64 % 7) * 120;
        let staggered = |(k, &n): (usize, &NodeId)| (n, first + k as u64 * 180);
        let scope = ChangeScope {
            changes: study.iter().enumerate().map(staggered).collect(),
        };
        let impact = |(&node, &at_minute): (&NodeId, &u64)| InjectedImpact {
            node,
            kpi: kpi.clone(),
            carrier: None,
            at_minute,
            kind: ImpactKind::LevelShift,
            magnitude: label * (0.15 + (i % 5) as f64 * 0.05),
        };
        let changed = scope.changes.iter().filter(|_| label != 0.0);
        let impacts: Vec<InjectedImpact> = changed.map(impact).collect();
        let gen = generator.clone();
        let adapter = ClosureAdapter(move |node: NodeId, kpi: &str, carrier: Option<usize>| {
            Some(gen.series(node, kpi, carrier, 250, &impacts))
        });
        let analysis = analyze_kpi(&adapter, &kpi, None, true, &scope, &control, &options);
        match analysis.map(|a| a.verdict) {
            Ok(verdict) if verdict == expected => correct += 1,
            other => println!("  MISS {kpi}: expected {expected:?}, got {other:?}"),
        }
    }

    // The same test on what the generator never produces: rare-event
    // counters, where most comparisons are ties. 1 000 seeded pairs of
    // 30 + 30 samples from one distribution (an event in one sample of
    // four, so five comparisons in eight tie): at α = 0.05 about one pair
    // in twenty may look like an impact, and with equal variances the test
    // must agree with Wilcoxon–Mann–Whitney, which shares no code with it.
    let mut state = 0x5eed_u64;
    let mut counter = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        f64::from(state >> 20 & 3 == 0)
    };
    let pairs = 1_000;
    let (mut rejected, mut z_rank_order, mut z_wilcoxon) = (0, 0.0, 0.0);
    for _ in 0..pairs {
        let (pre, post): (Vec<f64>, Vec<f64>) = (0..30).map(|_| (counter(), counter())).unzip();
        let test = robust_rank_order(&pre, &post);
        rejected += usize::from(test.significant(0.05));
        z_rank_order += test.z.abs();
        z_wilcoxon += mann_whitney_u(&pre, &post).z.abs();
    }
    println!("\n§4.3 — labelled impacts named: {correct}/60");
    println!("§3.5 — of {pairs} tied no-change pairs, {rejected} rejected");
    let rejected_pct = 100.0 * rejected as f64 / pairs as f64;
    let mut t = Claims::new("sec43", "§4.3");
    t.claim("accuracy", "of 60 labelled impacts, named correctly")
        .exactly(60.0, correct);
    t.source("§3.5");
    t.claim("tied_rejection_pct", "tied no-change pairs rejected, %")
        .paper("5 (the test's size at α = 0.05)")
        .measured(rejected_pct, Bound::within(3.0, 7.0));
    t.claim("tied_z_over_wilcoxon", "mean |z| on them, ÷ Wilcoxon's")
        .paper("1 (equal variances: the two tests agree)")
        .measured(z_rank_order / z_wilcoxon, Bound::near(1.0, 0.05));
    t.done()
}

/// Fig. 5: two roll-outs planned by CORNET against two planned by hand.
pub fn fig5(_: Scale) -> Vec<Row> {
    let cases = [
        ("SU-1 (CORNET)", RolloutPlanner::Cornet, 1),
        ("SU-2 (CORNET)", RolloutPlanner::Cornet, 2),
        ("SU-3 (manual)", RolloutPlanner::Manual, 3),
        ("SU-4 (manual)", RolloutPlanner::Manual, 4),
    ];
    let runs = cases.map(|(_, planner, seed)| rollout(planner, seed, 600, 10_000));
    let [cornet_a, cornet_b, manual_a, manual_b] = runs.each_ref().map(|r| r.1);
    let slowest = manual_a.max(manual_b);
    println!("\nFig. 5 — completion time, normalised to the slowest roll-out\n");
    for ((name, ..), (_, w)) in cases.iter().zip(&runs) {
        println!(
            "  {name:>14}: {:>5.2}  {}",
            w / slowest,
            bar(w / slowest, 40)
        );
    }
    // Slots a roll-out spends between 93 % done and done: the straggler tail.
    let in_tail = |f: &&f64| (0.93..1.0).contains(*f);
    let tail = |run: usize| runs[run].0.iter().filter(in_tail).count() as f64;
    let tails = (tail(2) + tail(3)) / (tail(0) + tail(1)).max(1.0);
    let finish = cornet_a.max(cornet_b) / manual_a.min(manual_b);
    let mut t = Claims::new("fig5", "Fig 5");
    t.claim("finish_ratio", "windows, slower CORNET ÷ faster manual")
        .paper("CORNET finishes much earlier")
        .measured(finish, Bound::at_most(0.7));
    t.claim("tail_ratio", "slots above 93 % done, manual ÷ CORNET")
        .paper("manual roll-outs have long straggler tails")
        .measured(tails, Bound::at_least(5.0));
    t.done()
}

/// Fig. 6: KPI definitions created or modified per month.
pub fn fig6(_: Scale) -> Vec<Row> {
    let timeline = usage::kpi_activity_timeline(6);
    let touched = |m: &usage::KpiActivityMonth| m.created_or_modified as f64;
    let months: Vec<f64> = timeline.iter().map(touched).collect();
    let busiest = months.iter().copied().fold(1.0, f64::max);
    let quietest = months.iter().copied().fold(f64::INFINITY, f64::min);
    println!("\nFig. 6 — KPI definitions created/modified per month\n");
    for (m, n) in timeline.iter().zip(&months) {
        println!("{}  {n:>4}  {}", m.label, bar(n / busiest, 40));
    }
    let surge = timeline.iter().position(|m| m.label == "2019-09");
    let surge = surge.expect("the timeline covers September 2019");
    let growth = mean(&months[surge..]) / mean(&months[..surge]);
    let mut t = Claims::new("fig6", "Fig 6");
    t.claim("surge", "monthly rate from 2019-09 ÷ before")
        .paper("significant increase for 5G")
        .measured(growth, Bound::at_least(2.0));
    t.claim("quietest_month", "definitions touched, quietest month")
        .paper("continuous activity")
        .measured(quietest, Bound::at_least(1.0));
    t.done()
}

/// Table 4: a year of FFA trials and certified roll-outs.
pub fn table4(_: Scale) -> Vec<Row> {
    const UNIFORM_DRAW: &str = "netsim::usage draws nodes/FFA uniformly from [100, 400) and \
        nodes/roll-out from [10 000, 60 000): the decade is the paper's, the nearest power of \
        ten is not; recalibrating the generator is a netsim change";
    let mut t = Claims::new("table4", "Table 4");
    let mut cells = Vec::new();
    for ((r, name), ffa) in usage::verification_usage(3)
        .iter()
        .zip(TYPES)
        .zip([160.0, 200.0])
    {
        let (ffas, certified, rolled_back) = (r.ffa_count, r.certified_rollouts, r.rolled_back);
        let (per_ffa, per_rollout) = (r.nodes_per_ffa, r.nodes_per_rollout);
        let change = r.change_type;
        cells.push(format!(
            "{change} | {ffas} | {per_ffa} | {certified} | {per_rollout} | {rolled_back}"
        ));
        t.claim(&format!("{name}.ffa"), "FFA trials a year")
            .near(ffa, 0.15, ffas as f64);
        t.claim(&format!("{name}.certified_pct"), "FFAs certified, %")
            .near(10.0, 0.2, 100.0 * certified as f64 / ffas as f64);
        t.claim(&format!("{name}.rolled_back"), "roll-outs rolled back")
            .paper("< 2")
            .measured(rolled_back as f64, Bound::at_most(1.0));
        for (what, paper, power, nodes) in [
            ("nodes_per_ffa", "O(100)", 2.0, per_ffa),
            ("nodes_per_rollout", "O(10K)", 4.0, per_rollout),
        ] {
            let magnitude = (nodes as f64).log10().round();
            t.claim(&format!("{name}.{what}_magnitude"), "nearest power of ten")
                .paper(paper)
                .measured(magnitude, Bound::exactly(power))
                .waive(UNIFORM_DRAW);
        }
    }
    let header = "Change type | # FFA | Nodes/FFA | # certified | Nodes/roll-out | Rolled back";
    table("Table 4 — yearly verification usage", header, &cells);
    t.done()
}

/// Table 5: KPI groups and the join structure of their tables.
pub fn table5(_: Scale) -> Vec<Row> {
    let catalog = KpiCatalog::table5();
    let mut t = Claims::new("table5", "Table 5");
    let mut cells = Vec::new();
    for (group, kpis, tables) in [
        ("scorecard", 9.0, 6.0),
        ("level1", 58.0, 17.0),
        ("level2", 123.0, 14.0),
        ("level3", 159.0, 17.0),
    ] {
        let (k, n) = (
            catalog.group(group).len(),
            catalog.group_tables(group).len(),
        );
        cells.push(format!("{group} | {k} | {n}"));
        t.claim(&format!("{group}.kpis"), "KPIs in the group")
            .exactly(kpis, k);
        t.claim(&format!("{group}.tables"), "tables the group reads")
            .exactly(tables, n);
    }
    table("Table 5 — KPI groups", "KPI group | KPIs | Tables", &cells);
    let joins = |width| {
        catalog
            .tables
            .iter()
            .filter(|t| t.join_width == width)
            .count()
    };
    for (what, claim, paper, measured) in [
        ("kpis", "KPIs over all groups", 349.0, catalog.kpis.len()),
        (
            "tables",
            "distinct tables over all groups",
            48.0,
            catalog.tables.len(),
        ),
        ("no_join", "tables read without a join", 40.0, joins(1)),
        ("two_way", "tables behind a 2-way join", 7.0, joins(2)),
        ("three_way", "tables behind a 3-way join", 1.0, joins(3)),
    ] {
        println!("  {claim}: {measured}");
        t.claim(&format!("all.{what}"), claim)
            .exactly(paper, measured);
    }
    t.done()
}

/// Table 6: durations with and without CORNET's short-reservation policy.
pub fn table6(_: Scale) -> Vec<Row> {
    // 1.2 M activities: construction is 8.4 % of them and its σ without
    // CORNET is ≈ 25 windows, so its mean has a standard error of ≈ 0.08
    // against the 0.28 the paper's two means differ by. (At the old 120 k
    // the error was 0.25 and the seed decided the direction.)
    let activities = 1_200_000;
    let (with, without) = (mix(8, true, activities), mix(8, false, activities));
    let paper = [(1.92, 1.97), (1.29, 1.58), (3.17, 4.03), (3.78, 4.06)];
    let mut t = Claims::new("table6", "Table 6");
    let mut cells = Vec::new();
    for (((a, b), name), (paper_a, paper_b)) in with.iter().zip(&without).zip(TYPES).zip(paper) {
        let (avg_a, avg_b) = (a.avg_duration, b.avg_duration);
        let (sd_a, sd_b) = (a.std_duration, b.std_duration);
        let change = a.change_type;
        cells.push(format!(
            "{change} | {avg_a:.2} | {sd_a:.2} | {avg_b:.2} | {sd_b:.2}"
        ));
        t.claim(&format!("{name}.avg_with"), "mean windows with CORNET")
            .near(paper_a, 0.10, avg_a);
        t.claim(&format!("{name}.avg_gap"), "mean windows, without − with")
            .paper(&format!("{:+.2}", paper_b - paper_a))
            .measured(avg_b - avg_a, Bound::at_least(0.01));
    }
    let title = format!("Table 6 — durations with vs without CORNET, {activities} activities");
    let header = "Change type | Avg with | σ with | Avg without | σ without";
    table(&title, header, &cells);
    let sigmas = without[3].std_duration / with[3].std_duration;
    t.claim("construction.sigma_ratio", "σ without ÷ σ with CORNET")
        .paper("36.91 / 19.09 = 1.93")
        .measured(sigmas, Bound::near(1.93, 0.25));
    t.done()
}

/// Fig. 12: requested change durations across scheduling queries.
pub fn fig12(_: Scale) -> Vec<Row> {
    let total = 5_000;
    let hist = usage::duration_request_histogram(12, total);
    let single = hist[0].1 as f64;
    println!("\nFig. 12 — requested change duration across {total} scheduling queries\n");
    for (windows, count) in &hist {
        let share = *count as f64 / single;
        println!("{windows:>3} MW  {count:>5}  {}", bar(share, 45));
    }
    let inversions = hist.windows(2).filter(|w| w[1].1 > w[0].1).count();
    let mut t = Claims::new("fig12", "Fig 12");
    t.claim("one_window_pct", "requests for one maintenance window, %")
        .paper("4433 of ~5000 = 88.7")
        .measured(100.0 * single / total as f64, Bound::within(86.7, 90.7));
    t.claim("tail_inversions", "a longer duration asked for more often")
        .exactly(0.0, inversions);
    t.done()
}

/// Usage counts as bars, and the names ranked by count.
fn ranked_usage<'a>(title: &str, counts: &[(&'a str, usize)]) -> Vec<&'a str> {
    let max = counts.iter().map(|c| c.1).max().unwrap_or(1) as f64;
    println!("\n{title}\n");
    for (name, count) in counts {
        println!("{name:>32}  {count:>6}  {}", bar(*count as f64 / max, 40));
    }
    let mut ranked = counts.to_vec();
    ranked.sort_by_key(|c| std::cmp::Reverse(c.1));
    ranked.iter().map(|c| c.0).collect()
}

/// Fig. 13: location-aggregation attributes chosen across impact queries.
pub fn fig13(_: Scale) -> Vec<Row> {
    let counts = usage::location_attribute_usage(13, 20_000);
    let title = "Fig. 13 — location attributes across 20000 impact queries";
    let ranked = ranked_usage(title, &counts);
    let position = |name: &str| ranked.iter().position(|r| *r == name);
    let views = ["All (time-aligned aggregate)", "Per (e/g)NodeB"].map(position);
    let on_top = views.iter().filter(|p| p.is_some_and(|p| p < 2)).count();
    let config = ["Carrier frequency", "Hardware version (BB/DU)", "Market"].map(position);
    let in_order = config.is_sorted() && config[0].is_some();
    let mut t = Claims::new("fig13", "Fig 13");
    t.claim("top_views", "of those two views, in the top two")
        .exactly(2.0, on_top);
    t.claim("config_order", "carrier > hardware > market: 1 yes, 0 no")
        .exactly(1.0, usize::from(in_order));
    t.done()
}

/// Fig. 14: control-group selection, as used and as derived on a RAN.
pub fn fig14(_: Scale) -> Vec<Row> {
    let counts = usage::control_group_usage(14, 20_000);
    let title = "Fig. 14 — control-group selection across 20000 impact queries";
    let ranked = ranked_usage(title, &counts);
    let used = |name: &str| counts.iter().find(|c| c.0 == name).map_or(0, |c| c.1) as f64;
    let first_tier_leads = ranked[0].starts_with("1st tier");
    let lead = first_tier_leads.then(|| used(ranked[0]) / used(ranked[1]));

    let net = Network::generate_ran(&Default::default());
    let enbs = net.nodes_of_type(NfType::ENodeB);
    let study = &enbs[..10];
    println!("\ncontrol groups for a 10-eNodeB study group on a generated RAN:");
    let derived = [
        ("1st tier", ControlSelection::FirstTier),
        ("2nd tier", ControlSelection::SecondTier),
        (
            "same hw_version",
            ControlSelection::SameAttribute("hw_version".into()),
        ),
    ]
    .map(|(name, selection)| {
        let group = derive_control_group(&selection, study, &net.topology, &net.inventory, None);
        println!("  {name:>16}: {} control nodes", group.len());
        group.len()
    });
    let non_empty = derived.iter().filter(|n| **n > 0).count();
    let mut t = Claims::new("fig14", "Fig 14");
    t.claim("first_tier_lead", "queries, 1st tier ÷ next criterion")
        .paper("1st-tier neighbours dominate")
        .measured(lead, Bound::at_least(1.2));
    t.claim("usable_criteria", "of those three criteria, non-empty")
        .exactly(3.0, non_empty);
    t.done()
}

const LISTING1: &str = r#"{
    "scheduling_window": {"start": "2020-07-01 00:00:00",
                           "end": "2020-07-07 23:59:00",
                           "granularity": {"metric": "day", "value": 1}},
    "maintenance_window": {"start": "0:00", "end": "6:00",
                            "granularity": "hour", "timezone": "local"},
    "excluded_periods": [
        {"start": "2020-07-01 00:00:00", "end": "2020-07-01 23:59:00"},
        {"start": "2020-07-04 00:00:00", "end": "2020-07-05 23:59:00"}
    ],
    "schedulable_attribute": "common_id",
    "conflict_attribute": "common_id",
    "frozen_elements": [
        {"common_id": "id000041"},
        {"common_id": "id000283",
         "start": "2020-07-03 00:00:00", "end": "2020-07-03 23:59:00"}
    ],
    "conflict_table": {
        "id000001": [{"start": "2020-07-01 00:00:00",
                       "end": "2020-07-04 00:00:00",
                       "tickets": ["CHG000005482383"]}],
        "id000002": [{"start": "2020-07-03 00:00:00",
                       "end": "2020-07-05 00:00:00",
                       "tickets": ["CHG000005485234", "CHG000005485999"]}]
    },
    "constraints": [
        {"name": "conflict_handling", "value": "minimize-conflicts"},
        {"name": "concurrency", "base_attribute": "common_id",
         "operator": "<=", "granularity": {"metric": "day", "value": 1},
         "default_capacity": 300},
        {"name": "concurrency", "base_attribute": "market",
         "operator": "<=", "granularity": {"metric": "day", "value": 1},
         "default_capacity": 5},
        {"name": "concurrency", "base_attribute": "common_id",
         "aggregate_attribute": "pool_id", "operator": "<=",
         "granularity": {"metric": "day", "value": 1},
         "default_capacity": 10},
        {"name": "uniformity", "attribute": "utc_offset", "value": 1},
        {"name": "localize", "attribute": "market"}
    ]
}"#;

/// Appendix B: Listing 1's intent translated into Listing 2's model.
pub fn appendix_b(_: Scale) -> Vec<Row> {
    const PROSE_WINS: &str = "the paper's prose (\"schedule as many nodes as possible but \
        minimize the number of generated conflicts\") and Listing 2 disagree; the translation \
        follows the prose and prices staying unscheduled above any conflicted slot";
    let mut inventory = Inventory::new();
    for i in 0..300 {
        let attributes = Attributes::new()
            .with("market", format!("M{:02}", i % 8))
            .with("utc_offset", -5.0 - (i % 3) as f64)
            .with("pool_id", (i % 5) as i64);
        inventory.push(format!("enb-{i:05}"), NfType::ENodeB, attributes);
    }
    let topology = Topology::with_capacity(300);
    let nodes: Vec<NodeId> = inventory.ids().collect();
    let intent = PlanIntent::from_json(LISTING1).expect("Listing 1 parses");
    let model_of = |strategy| {
        let options = TranslateOptions {
            strategy,
            ..Default::default()
        };
        let translated = translate(&intent, &inventory, &topology, &nodes, &options);
        translated.expect("Listing 1 translates").model
    };
    let linking = model_of(GroupStrategy::LinkingVars);
    let hybrid = model_of(GroupStrategy::HybridWeights).stats().by_kind;
    let (stats, minizinc) = (linking.stats(), linking.to_minizinc());
    let lines = minizinc.lines().count();
    println!(
        "\nAppendix B — Listing 1 → {} vars, {:?}",
        stats.vars, stats.by_kind
    );
    println!("hybrid weights: {hybrid:?}; {lines} lines of MiniZinc:\n");
    minizinc
        .lines()
        .take(12)
        .for_each(|line| println!("{line}"));

    // A node busy on every usable day: the prose schedules it and takes
    // the conflict, Listing 2's literal objective would leave it out.
    let (until_day_4, all_window) = ("\"end\": \"2020-07-04 00", "\"end\": \"2020-07-08 00");
    let busy = LISTING1.replace(until_day_4, all_window);
    let busy = PlanIntent::from_json(&busy).expect("edited Listing 1 parses");
    let mut options = PlanOptions::default();
    options.solver.max_nodes = 2_000;
    options.solver.time_limit = std::time::Duration::from_secs(120);
    let planned = plan(&busy, &inventory, &topology, &nodes, &options).expect("Listing 1 plans");
    let scheduled = planned.schedule.assignments.contains_key(&NodeId(1));

    let mut t = Claims::new("appendix_b", "App. B");
    t.claim("variables", "variables: 300 nodes, one frozen all window")
        .exactly(299.0, stats.vars);
    t.claim("constraint_families", "constraint families in the model")
        .exactly(5.0, stats.by_kind.len());
    let linking_left = hybrid.get("distinct_groups").copied().unwrap_or(0);
    t.claim("hybrid_linking", "distinct-groups rules, hybrid weights")
        .exactly(0.0, linking_left);
    t.claim("busy_node", "a node busy every day: 1 scheduled, 0 not")
        .paper("0 (Listing 2 minimises BIGM·conflicts − reward)")
        .measured(f64::from(scheduled), Bound::exactly(0.0))
        .waive(PROSE_WINS);
    t.done()
}
