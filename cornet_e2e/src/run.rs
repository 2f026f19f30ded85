//! Running one workload in this process: repeated set-up, whole cycles of
//! the op list until the time is up, metrics, the traced run's extras.

use crate::calibrate::{Reference, Resembles, NOMINAL_S};
use crate::measure::{
    highest_reportable_percentile, median, peak_rss_mib, percentile, render_result, Metric,
};
use crate::report::{self, PER_LAYER};
use crate::trace::TraceAgg;
use crate::workload::{Env, OpResult, Workload};
use crate::{fleet_plan, fleet_rollout, kpi_verify, layers, tenant_mix, Args};
use cornet_obs::{write_trace, ChromeTraceSink, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// `setup_s` is the median of repeated set-ups: at least `MIN_SETUPS`, and
/// more (up to `MAX_SETUPS`) while they total under `SETUP_BUDGET_S`, so
/// that a millisecond set-up is not reported from three noisy samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET_S: f64 = 2.0;
/// Every run measures at least this many cycles (the second cycle is the
/// determinism check of the first).
const MIN_CYCLES: usize = 2;
/// Share of the traced wall time that named layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// Which machine-speed reference a workload is measured against:
/// `fleet_plan` builds and searches models, mostly on one thread; the other
/// three pass work between threads (dispatcher workers and the journal's
/// lock, the rayon shim, the daemon's workers and runners). Chosen by
/// measurement, see README.md, *How a run measures*.
fn resembles(name: &str) -> Resembles {
    match name {
        "fleet_plan" => Resembles::Allocation,
        _ => Resembles::HandOffs,
    }
}

pub fn setup(name: &str, env: &Env) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "tenant_mix" => Box::new(tenant_mix::TenantMix::setup(env)?),
        "fleet_plan" => Box::new(fleet_plan::FleetPlan::setup(env)),
        "fleet_rollout" => Box::new(fleet_rollout::FleetRollout::setup(env)),
        "kpi_verify" => Box::new(kpi_verify::KpiVerify::setup(env)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// A fresh scratch directory beside the executable: inside the build
/// directory, hence inside the checkout and ignored by git.
pub fn work_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let base = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    base.join("e2e_work")
        .join(format!("{}-{n}", std::process::id()))
}

struct Cycle {
    wall_s: f64,
    traced: bool,
    results: Vec<OpResult>,
}

/// Everything one run measured.
pub struct RunReport {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Distinct oracle failures, with counts.
    pub failures: BTreeMap<String, u64>,
    /// Extra lines for the human report.
    pub notes: Vec<String>,
    /// Traced run only: coverage of the named layer spans.
    pub coverage: Option<f64>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.coverage.is_none_or(|c| c >= MIN_COVERAGE)
    }
}

/// One op of the list, over the cycles it was correct in.
struct OpLatency {
    class: &'static str,
    timed: bool,
    /// Seconds on the machine at its nominal speed (see [`op_latencies`]).
    nominal_s: f64,
    /// Median latency as clocked.
    clocked_s: f64,
}

/// Nearest-rank lower quartile of an unsorted sample.
fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.25)
}

/// Every op's latency. Op `k` is the same work in every cycle, and a
/// reference sample is taken right after each of its runs; the latency is
/// reported in reference samples, times the nominal sample, so that what
/// the shared sandbox does to both cancels (it runs at half speed for
/// seconds at a time, and drifts by tens of per cent over minutes). There
/// are two ways to count an op in samples, and they err in opposite
/// directions when the sandbox is disturbed for a whole run:
///
/// * in time — the median over the cycles of latency ÷ the sample right
///   after it. Op and sample saw the same moment, but the sample is the
///   shorter and reacts more: this reads low in a bad run.
/// * in rank — the lower quartile of the op's latencies ÷ the lower quartile
///   of the run's samples, both at their quiet level. Single wild samples do
///   not matter, but a bad run raises the op's quiet level by more than the
///   samples': this reads high.
///
/// The latency is their geometric mean (README.md, *How a run measures*, has
/// the measurements). With `in_samples` false (the 1-CPU probe, whose
/// reference would run on the one CPU as well and mean something else) it is
/// the median as clocked. Oracles are checked on every op of every cycle;
/// failed ops give no sample.
fn op_latencies(cycles: &[Cycle], in_samples: bool) -> Vec<OpLatency> {
    let ops = cycles.first().map_or(0, |c| c.results.len());
    let correct = |k: usize| -> Vec<&OpResult> {
        cycles
            .iter()
            .filter_map(|c| c.results.get(k))
            .filter(|r| r.ok())
            .collect()
    };
    let run_references: Vec<f64> = (0..ops).flat_map(&correct).map(|r| r.reference_s).collect();
    (0..ops)
        .filter_map(|k| {
            let samples = correct(k);
            let first = samples.first()?;
            let clocked: Vec<f64> = samples.iter().map(|r| r.latency_s).collect();
            let clocked_s = median(&clocked);
            let nominal_s = if in_samples {
                let quotients: Vec<f64> = samples
                    .iter()
                    .map(|r| r.latency_s / r.reference_s)
                    .collect();
                let in_time = median(&quotients);
                let in_rank = lower_quartile(&clocked) / lower_quartile(&run_references);
                (in_time * in_rank).sqrt() * NOMINAL_S
            } else {
                clocked_s
            };
            Some(OpLatency {
                class: first.class,
                timed: first.timed,
                nominal_s,
                clocked_s,
            })
        })
        .collect()
}

/// Seconds one cycle takes at nominal machine speed. Ops run one after
/// another, so a cycle is the sum of its ops.
fn cycle_wall_s(ops: &[OpLatency]) -> f64 {
    ops.iter().map(|op| op.nominal_s).sum()
}

/// `(setup seconds, reference sample right after it)` per set-up, as the
/// median quotient times the nominal sample.
fn setup_nominal_s(setups: &[(f64, f64)]) -> f64 {
    median(&setups.iter().map(|&(s, r)| s / r).collect::<Vec<_>>()) * NOMINAL_S
}

/// The end-to-end metrics, at nominal machine speed (see `calibrate`).
fn end_to_end(
    setups: &[(f64, f64)],
    cycles: &[Cycle],
    in_samples: bool,
    peak_rss_mb: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let ops = op_latencies(cycles, in_samples);
    let wall_s = cycle_wall_s(&ops);
    // Ops of the list that were correct in every cycle.
    let correct = (0..ops.len())
        .filter(|&k| {
            cycles
                .iter()
                .all(|c| c.results.get(k).is_some_and(OpResult::ok))
        })
        .count();
    let percentiles = |pick: fn(&OpLatency) -> f64| {
        let mut ms: Vec<f64> = ops
            .iter()
            .filter(|op| op.timed)
            .map(|op| pick(op) * 1e3)
            .collect();
        ms.sort_by(f64::total_cmp);
        if ms.is_empty() {
            (0.0, 0.0, ms)
        } else {
            (percentile(&ms, 0.5), percentile(&ms, 0.9), ms)
        }
    };
    let (p50, p90, latencies) = percentiles(|op| op.nominal_s);
    notes.push(format!(
        "{} cycles, cycle walls as clocked, reference samples included (s): {}",
        cycles.len(),
        cycles
            .iter()
            .map(|c| format!("{:.3}", c.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let nominal_ms = NOMINAL_S * 1e3;
    notes.push(format!(
        "an op's latency is {}; wall_s is the sum over the {} ops; latency percentiles over the {} \
         timed ops of the list",
        if in_samples {
            format!(
                "the geometric mean of (median over the cycles of latency ÷ the reference sample \
                 right after it) and (lower quartile of its latencies ÷ lower quartile of the \
                 run's reference samples), × the nominal {nominal_ms:.1} ms"
            )
        } else {
            "the median over the cycles as clocked (1-CPU probe)".into()
        },
        ops.len(),
        latencies.len()
    ));
    match highest_reportable_percentile(latencies.len()) {
        Some(q) if q > 0.9 => notes.push(format!(
            "op_p{}_ms {:.4} ms (highest percentile with ten ops beyond it; not gated)",
            q * 100.0,
            percentile(&latencies, q)
        )),
        Some(_) => {}
        None => notes.push(format!(
            "the list has {} timed ops, each timed {} times: op_p90_ms is the latency of the op \
             at that rank of the list",
            latencies.len(),
            cycles.len()
        )),
    }
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for op in ops.iter().filter(|op| op.timed) {
        by_class
            .entry(op.class)
            .or_default()
            .push(op.nominal_s * 1e3);
    }
    for (class, ms) in &mut by_class {
        ms.sort_by(f64::total_cmp);
        notes.push(format!(
            "class {class}: {} ops, min {:.3} median {:.3} max {:.3} ms",
            ms.len(),
            ms[0],
            median(ms),
            ms[ms.len() - 1]
        ));
    }
    let ops_per_s = correct as f64 / wall_s;
    let (clocked_p50, clocked_p90, _) = percentiles(|op| op.clocked_s);
    let clocked_wall: f64 = ops.iter().map(|op| op.clocked_s).sum();
    notes.push(format!(
        "{} set-ups as clocked (s): {}",
        setups.len(),
        setups
            .iter()
            .map(|&(s, _)| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "medians as clocked, before dividing by the reference: setup_s {:.6} wall_s \
         {clocked_wall:.6} ops_per_s {:.4} op_p50_ms {clocked_p50:.4} op_p90_ms {clocked_p90:.4}",
        median(&setups.iter().map(|&(s, _)| s).collect::<Vec<_>>()),
        correct as f64 / clocked_wall
    ));
    vec![
        Metric::new("setup_s", setup_nominal_s(setups), "s"),
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("ops_per_s", ops_per_s, "op/s"),
        Metric::new("op_p50_ms", p50, "ms"),
        Metric::new("op_p90_ms", p90, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
    ]
}

/// `wall_s` of the same workload pinned to one CPU, from a child process
/// under `taskset -c 0`; `None` (with a note) where that cannot
/// be measured.
fn one_cpu_wall_s(name: &str, args: &Args, notes: &mut Vec<String>) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let seconds = (args.seconds() / 3.0).max(1.0);
    let mut cmd = std::process::Command::new("taskset");
    cmd.args(["-c", "0"]).arg(exe).args([
        "--workload",
        name,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        "0",
        "--probe",
    ]);
    let output = match cmd.stderr(std::process::Stdio::null()).output() {
        Ok(o) if o.status.success() => o,
        Ok(o) => {
            notes.push(format!(
                "1-CPU probe exited with {}: rayon.speedup_2cpu not measured",
                o.status
            ));
            return None;
        }
        Err(e) => {
            notes.push(format!(
                "taskset unavailable ({e}): rayon.speedup_2cpu not measured"
            ));
            return None;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    report::metric_of_result_line(stdout.lines().last()?, "wall_s")
}

/// Run one workload in a scratch directory that is gone afterwards,
/// whatever happens.
pub fn run_workload(name: &str, args: &Args) -> Result<RunReport, String> {
    let dir = work_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let report = run_in(name, args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

fn run_in(name: &str, args: &Args, dir: &Path) -> Result<RunReport, String> {
    let tracer = if args.trace {
        Tracer::wall()
    } else {
        Tracer::noop()
    };
    // Sampled right after every op.
    let reference = Arc::new(Reference::start(resembles(name))?);
    // Set-up is input generation on one thread, whatever the workload.
    let setup_reference = Reference::start(Resembles::Allocation)?;
    let env = Env {
        seed: args.seed,
        quick: args.quick,
        tracer: tracer.clone(),
        work_dir: dir.to_path_buf(),
        reference: reference.clone(),
    };

    let once = args.quick || args.probe;
    // (set-up seconds, the reference sample right after it).
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut workload: Box<dyn Workload> = loop {
        let started = Instant::now();
        let built = setup(name, &env)?;
        setups.push((started.elapsed().as_secs_f64(), setup_reference.sample()));
        let n = setups.len();
        let enough = n >= MAX_SETUPS
            || (n >= MIN_SETUPS && setups.iter().map(|s| s.0).sum::<f64>() >= SETUP_BUDGET_S);
        if once || enough {
            break built;
        }
        built.finish();
    };
    tracer.take();

    let min_cycles = if args.trace {
        2 * MIN_CYCLES
    } else {
        MIN_CYCLES
    };
    let mut cycles: Vec<Cycle> = Vec::new();
    // `VmHWM` once every run has done the same work: the set-ups and the
    // cycles no run goes without. What later cycles add is what the
    // allocator happens to keep (on `tenant_mix` 0–20 MiB over 45), and a
    // faster run has more of them.
    let mut peak_rss_mb = 0.0;
    let mut agg = TraceAgg::default();
    let started = Instant::now();
    while cycles.len() < min_cycles || started.elapsed().as_secs_f64() < args.seconds() {
        // A traced run alternates, so both kinds see the same drift.
        let traced = args.trace && cycles.len() % 2 == 1;
        if !cycles.is_empty() {
            workload.prepare_cycle();
        }
        let cycle_started = Instant::now();
        let results = workload.run_cycle(traced);
        let wall = cycle_started.elapsed();
        if traced {
            agg.absorb(tracer.take(), wall.as_nanos() as u64);
        }
        cycles.push(Cycle {
            wall_s: wall.as_secs_f64(),
            traced,
            results,
        });
        if cycles.len() == min_cycles {
            peak_rss_mb = peak_rss_mib();
        }
    }

    let mut notes = vec![format!(
        "op list fingerprint {:016x}",
        workload.ops_fingerprint()
    )];
    let mut failures: BTreeMap<String, u64> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in cycles.iter().flat_map(|c| &c.results) {
        attempted += 1;
        if let Some(why) = &r.failure {
            failed += 1;
            *failures.entry(format!("{}: {why}", r.class)).or_default() += 1;
        }
    }
    if let Err(why) = workload.check_counts() {
        attempted += 1;
        failed += 1;
        failures.insert(why, 1);
    }
    let (untraced, traced): (Vec<Cycle>, Vec<Cycle>) = cycles.into_iter().partition(|c| !c.traced);
    let dilation = reference.dilation();
    notes.push(format!(
        "machine speed: the median reference sample ({:?}) is {dilation:.4} × the nominal {:.1} ms",
        resembles(name),
        NOMINAL_S * 1e3
    ));
    // The 1-CPU probe reports as clocked.
    let in_samples = !args.probe;
    if let Some([min, q1, q2, q3, max]) = reference.spread_ms() {
        notes.push(format!(
            "reference samples (ms): min {min:.3} lower quartile {q1:.3} median {q2:.3} upper \
             quartile {q3:.3} max {max:.3}"
        ));
    }
    notes.push(format!(
        "peak_rss_mb is VmHWM after the first {min_cycles} cycles; at the end of the run it is \
         {:.4} MiB",
        peak_rss_mib()
    ));
    let end_to_end = end_to_end(&setups, &untraced, in_samples, peak_rss_mb, &mut notes);

    let mut measured = workload.layer_metrics();
    measured.push(Metric::new("machine.dilation", dilation, "ratio"));
    let mut coverage = None;
    if args.trace {
        let wall_of = |cs: &[Cycle]| cycle_wall_s(&op_latencies(cs, in_samples));
        let (plain_wall, traced_wall) = (wall_of(&untraced), wall_of(&traced));
        measured.push(Metric::new(
            "obs.trace_overhead_share",
            traced_wall / plain_wall - 1.0,
            "ratio",
        ));
        measured.extend(agg.metrics());
        coverage = Some(agg.coverage());
        notes.push(format!(
            "self-time table of the traced cycles:\n{}",
            agg.render_table()
        ));
        if let (Some(dir), Some(trace)) = (&args.out, &agg.last_cycle) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let path = dir.join(format!("{name}.trace.json"));
            write_trace(&path.to_string_lossy(), &ChromeTraceSink, trace)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            notes.push(format!(
                "Chrome trace of the last traced cycle: {}",
                path.display()
            ));
        }
        let row_seconds = if args.quick {
            layers::QUICK_ROW_SECONDS
        } else {
            layers::TRACE_ROW_SECONDS
        };
        measured.extend(layers::run_all(row_seconds, args.seed));
        if args.quick {
            notes.push("--quick: rayon.speedup_2cpu not measured".into());
        } else if let Some(one_cpu) = one_cpu_wall_s(name, args, &mut notes) {
            measured.push(Metric::new(
                "rayon.speedup_2cpu",
                // Both as clocked.
                one_cpu / cycle_wall_s(&op_latencies(&untraced, false)),
                "ratio",
            ));
        }
    }
    workload.finish();

    // Every per-layer metric, in BENCHMARK.json order; a layer this
    // workload bypasses (or a probe that could not run) reads 0.
    let per_layer = PER_LAYER
        .iter()
        .map(|&(layer_name, unit, _)| {
            measured
                .iter()
                .find(|m| m.name == layer_name)
                .cloned()
                .unwrap_or_else(|| Metric::new(layer_name, 0.0, unit))
        })
        .collect();
    if !args.trace {
        // The workload's own counts cost nothing; show them untraced too.
        for m in &measured {
            notes.push(format!("{} {} {}", m.name, m.value, m.unit));
        }
    }
    Ok(RunReport {
        end_to_end,
        per_layer,
        attempted,
        failed,
        failures,
        notes,
        coverage,
    })
}

/// Run one workload, print the report, and end with the result line.
pub fn run_single(name: &str, args: &Args) -> bool {
    let report = match run_workload(name, args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("cornet_e2e: {name}: {e}");
            return false;
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# cornet_e2e workload={name} seed={} seconds={} trace={} cpus={cpus}",
        args.seed,
        args.seconds(),
        u8::from(args.trace)
    );
    if args.trace {
        println!("# end-to-end metrics come from the untraced run (--trace 0)");
        print!("{}", report::render_metric_lines(name, &report.per_layer));
    } else {
        print!("{}", report::render_metric_lines(name, &report.end_to_end));
    }
    println!(
        "{name} failed_share {} ratio ({} of {} ops; bound: 0)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for note in &report.notes {
        println!("# {}", note.replace('\n', "\n# "));
    }
    for (why, count) in &report.failures {
        eprintln!("cornet_e2e: {name}: {count} × {why}");
    }
    if let Some(c) = report.coverage.filter(|&c| c < MIN_COVERAGE) {
        eprintln!(
            "cornet_e2e: {name}: named layer spans cover {:.1} % of the traced wall time (< {:.0} %)",
            c * 100.0,
            MIN_COVERAGE * 100.0
        );
    }
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let line = render_result(report.correct(), report.attempted, report.failed, metrics);
    println!("{line}");
    report.correct()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn quick(trace: bool) -> Args {
        Args {
            workload: None,
            seed: 3,
            seconds: Some(0.05),
            trace,
            layers: false,
            quick: true,
            out: None,
            probe: false,
        }
    }

    /// `--quick` runs every workload's code paths and oracles at ~1/20 size.
    #[test]
    fn every_workload_passes_its_oracles_at_quick_size() {
        for name in WORKLOADS {
            let report = run_workload(name, &quick(false)).expect(name);
            assert!(report.correct(), "{name}: {:?}", report.failures);
            assert!(
                report.attempted >= 6,
                "{name}: two cycles of at least three ops"
            );
            let names: Vec<&str> = report.end_to_end.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = report::END_TO_END.iter().map(|m| m.0).collect();
            assert_eq!(names, want);
            assert!(
                report.end_to_end.iter().all(|m| m.value > 0.0),
                "{name}: a metric is 0"
            );
        }
    }

    /// The traced run reports every per-layer metric and attributes the
    /// wall time to named spans.
    #[test]
    fn traced_quick_run_reports_every_layer_metric() {
        let report = run_workload("fleet_rollout", &quick(true)).expect("traced run");
        assert!(
            report.correct(),
            "{:?} coverage {:?}",
            report.failures,
            report.coverage
        );
        assert_eq!(report.per_layer.len(), PER_LAYER.len());
        let value = |name: &str| {
            report
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .expect(name)
        };
        assert!(value("trace.coverage_share") >= MIN_COVERAGE);
        assert!(value("dispatch.executor_calls") > 0.0);
        assert!(value("journal.append_us.always") > 0.0);
        assert!(value("trace.self_ms_per_op.journal") > 0.0);
        assert_eq!(
            value("solver.nodes"),
            0.0,
            "fleet_rollout bypasses the solver"
        );
    }
}
