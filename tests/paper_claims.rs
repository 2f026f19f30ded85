//! The paper-claims gate, tier-1 half: every deterministic row of
//! `cornet_bench::EXPERIMENTS` (seeded, no clock) holds or is waived, is
//! byte-equal to the committed `PAPER_REPRO.json`, and is quoted verbatim
//! in EXPERIMENTS.md — so a documented number cannot drift from the tree.
//! The timed rows run in CI's `paper-claims` job (`cornet_bench --quick`).
//!
//! Regenerate the committed file after an intended change with
//! `UPDATE_GOLDEN=1 cargo test --test paper_claims`, then paste the new
//! lines of the claims table into EXPERIMENTS.md.

use cornet_bench::{red, render_json, run, Kind, Row, Scale, EXPERIMENTS};
use std::sync::OnceLock;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The deterministic rows, computed once for all tests of this file.
fn rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let deterministic = EXPERIMENTS.iter().filter(|e| e.kind == Kind::Deterministic);
        run(deterministic, Scale::Quick)
    })
}

fn experiments_md() -> String {
    std::fs::read_to_string(format!("{ROOT}/EXPERIMENTS.md")).expect("EXPERIMENTS.md")
}

#[test]
fn every_deterministic_row_holds_or_is_waived() {
    let failing: Vec<String> = red(rows())
        .iter()
        .map(|r| format!("{}: measured {:?}, bound {}", r.id, r.measured, r.bound))
        .collect();
    assert!(failing.is_empty(), "red rows:\n{}", failing.join("\n"));
}

#[test]
fn the_committed_rows_equal_a_fresh_run() {
    let path = format!("{ROOT}/PAPER_REPRO.json");
    let fresh = render_json(rows());
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &fresh).expect("write PAPER_REPRO.json");
    }
    let committed = std::fs::read_to_string(&path).expect("PAPER_REPRO.json");
    assert!(
        committed == fresh,
        "PAPER_REPRO.json differs from a fresh run; first differing line:\n{:?}",
        committed.lines().zip(fresh.lines()).find(|(a, b)| a != b)
    );
}

#[test]
fn experiments_md_quotes_every_row_and_every_waiver() {
    let doc = experiments_md();
    for row in rows() {
        assert!(
            doc.contains(&row.table_line()),
            "EXPERIMENTS.md does not quote this line of the claims table:\n{}",
            row.table_line()
        );
    }
}

#[test]
fn experiments_md_names_exactly_the_experiments_that_exist() {
    // Every experiment, timed ones included, is named in exactly one
    // "### `id`, `id` — …" heading.
    let doc = experiments_md();
    let headings = doc.lines().filter(|line| line.starts_with("### `"));
    let named: Vec<&str> = headings
        .flat_map(|line| line.split('`').skip(1).step_by(2))
        .collect();
    for id in &named {
        assert!(
            EXPERIMENTS.iter().any(|e| e.id == *id),
            "EXPERIMENTS.md names `{id}`, which no experiment has"
        );
    }
    for e in EXPERIMENTS {
        assert_eq!(
            named.iter().filter(|id| **id == e.id).count(),
            1,
            "`{}` needs one heading",
            e.id
        );
    }
}
