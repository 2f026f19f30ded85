//! # cornet-bench
//!
//! The paper-reproduction gate: every table, figure and evaluation
//! section of the paper is one function `fn(Scale) -> Vec<Row>` in
//! [`EXPERIMENTS`]. A [`Row`] states a claim, the paper's figure, what
//! this tree measures and the bound that decides whether the claim
//! reproduces; `cornet_bench [--quick] [--only id,…] [--json PATH]`
//! runs the table, prints each experiment's human table and then the
//! claims table, and exits 1 when a row is red and not waived.
//!
//! * [`paper`] — seeded experiments over the generators and the catalog;
//! * [`planner`] — §4.2, §5.2 / Appendix C, the backend and scale bars of
//!   ROADMAP item 9 and DESIGN.md's ablations;
//! * [`verifier`] — Fig. 10 and Fig. 11;
//! * [`events`] — the event-driven composition §3.2 contrasts with
//!   workflows, and the comparison itself.
//!
//! Absolute performance is not measured here: `cornet_e2e/` does that.
//! `EXPERIMENTS.md` quotes the claims table and says why each bound is
//! what it is; `tests/paper_claims.rs` pins the deterministic rows.

#![forbid(unsafe_code)]
pub mod claims;
pub mod events;
pub mod paper;
pub mod planner;
pub mod verifier;

pub use claims::{red, render_json, render_table, Bound, Experiment, Kind, Row, Scale};
use Kind::{Deterministic, Timed};

/// Every experiment, in the order the claims table lists them.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new("table1", Deterministic, paper::table1),
    Experiment::new("fig1", Deterministic, paper::fig1),
    Experiment::new("fig2", Deterministic, paper::fig2),
    Experiment::new("table2", Deterministic, paper::table2),
    Experiment::new("table3", Deterministic, paper::table3),
    Experiment::new("sec32", Timed, events::sec32),
    Experiment::new("sec42", Deterministic, planner::sec42),
    Experiment::new("sec42_time", Timed, planner::sec42_time),
    Experiment::new("sec43", Deterministic, paper::sec43),
    Experiment::new("fig5", Deterministic, paper::fig5),
    Experiment::new("fig6", Deterministic, paper::fig6),
    Experiment::new("table4", Deterministic, paper::table4),
    Experiment::new("sec52", Timed, planner::sec52),
    Experiment::new("table5", Deterministic, paper::table5),
    Experiment::new("fig10", Timed, verifier::fig10),
    Experiment::new("fig11", Timed, verifier::fig11),
    Experiment::new("fig12", Deterministic, paper::fig12),
    Experiment::new("fig13", Deterministic, paper::fig13),
    Experiment::new("fig14", Deterministic, paper::fig14),
    Experiment::new("table6", Deterministic, paper::table6),
    Experiment::new("appendix_b", Deterministic, paper::appendix_b),
    Experiment::new("ablation", Timed, planner::ablation),
    Experiment::new("backends", Timed, planner::backends),
    Experiment::new("scale", Timed, planner::scale),
];

/// Run `experiments` in order and collect their rows.
///
/// # Panics
/// If a row's id does not start with its experiment's id, or repeats:
/// ids are how EXPERIMENTS.md, `--only` and the committed JSON refer to a
/// claim, so a clash is a bug in the table, not a measurement.
pub fn run<'a>(experiments: impl IntoIterator<Item = &'a Experiment>, scale: Scale) -> Vec<Row> {
    let mut rows: Vec<Row> = Vec::new();
    for experiment in experiments {
        let prefix = format!("{}.", experiment.id);
        for row in (experiment.run)(scale) {
            assert!(
                row.id.starts_with(&prefix),
                "{} is not under {prefix}",
                row.id
            );
            assert!(
                rows.iter().all(|r| r.id != row.id),
                "duplicate row id {}",
                row.id
            );
            rows.push(row);
        }
    }
    rows
}

/// `cornet_bench`'s `main`: the process exit code for `args`
/// (0 every row holds or is waived, 1 a row is red, 2 usage).
pub fn run_cli(args: &[String]) -> i32 {
    const USAGE: &str = "usage: cornet_bench [--quick] [--only id,…] [--json PATH]";
    let mut scale = Scale::Full;
    let mut only: Option<Vec<&str>> = None;
    let mut json = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--only" if args.len() > 0 => only = args.next().map(|ids| ids.split(',').collect()),
            "--json" if args.len() > 0 => json = args.next(),
            _ => {
                eprintln!("cornet_bench: cannot read {arg:?}\n{USAGE}");
                return 2;
            }
        }
    }
    let ids = only.unwrap_or_else(|| EXPERIMENTS.iter().map(|e| e.id).collect());
    let mut selected = Vec::new();
    for id in ids {
        let Some(experiment) = EXPERIMENTS.iter().find(|e| e.id == id) else {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            eprintln!(
                "cornet_bench: no experiment {id:?}; known: {}",
                known.join(", ")
            );
            return 2;
        };
        selected.push(experiment);
    }

    let rows = run(selected, scale);
    println!("\n## Claims\n\n{}", render_table(&rows));
    if let Some(path) = json {
        if let Err(e) = std::fs::write(path, render_json(&rows)) {
            eprintln!("cornet_bench: cannot write {path}: {e}");
            return 2;
        }
    }
    let failing = red(&rows);
    let waived = rows.iter().filter(|r| !r.holds).count() - failing.len();
    println!(
        "{} rows, {} red, {waived} waived",
        rows.len(),
        failing.len()
    );
    for row in &failing {
        eprintln!(
            "RED {}: measured {:?}, bound {}",
            row.id, row.measured, row.bound
        );
    }
    i32::from(!failing.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> i32 {
        run_cli(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn an_unknown_experiment_or_flag_exits_two() {
        assert_eq!(cli(&["--only", "nope"]), 2);
        assert_eq!(cli(&["--only", "table2,nope"]), 2);
        assert_eq!(cli(&["--only"]), 2);
        assert_eq!(cli(&["--fast"]), 2);
    }

    #[test]
    fn a_green_selection_exits_zero_and_writes_its_rows() {
        let path = std::env::temp_dir().join(format!("cornet-claims-{}.json", std::process::id()));
        let path_text = path.to_str().expect("UTF-8 temp dir");
        assert_eq!(
            cli(&["--quick", "--only", "table2,table5", "--json", path_text]),
            0
        );
        let written = std::fs::read_to_string(&path).expect("--json wrote the file");
        std::fs::remove_file(&path).ok();
        let rows = run(
            EXPERIMENTS
                .iter()
                .filter(|e| ["table2", "table5"].contains(&e.id)),
            Scale::Quick,
        );
        assert_eq!(written, render_json(&rows));
    }

    #[test]
    fn experiment_ids_are_unique() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|other| other.id != e.id),
                "{}",
                e.id
            );
        }
    }
}
