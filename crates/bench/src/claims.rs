//! The claims table: what one row is, when it holds, and how a run of
//! rows is printed, written and turned into an exit code.

use cornet_types::json::{FloatFmt, JsonWriter};

/// Problem sizes: `Quick` is what CI runs (seconds), `Full` the paper's
/// sizes (minutes: the 1 M-node planner rows). Seeded experiments that
/// read no clock ignore it, so their rows are the same in both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// CI sizes.
    Quick,
    /// The paper's sizes.
    Full,
}

/// Whether an experiment's rows depend on the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Seeded, no clock: identical rows on every machine and in every
    /// build profile. `tests/paper_claims.rs` runs these in tier-1 and
    /// pins them to `PAPER_REPRO.json`.
    Deterministic,
    /// Wall times or ratios of wall times: run by the release binary.
    Timed,
}

/// One entry of [`crate::EXPERIMENTS`].
pub struct Experiment {
    /// What `--only` selects; every row id starts with `"<id>."`.
    pub id: &'static str,
    /// See [`Kind`].
    pub kind: Kind,
    /// Runs the experiment, prints its human table, returns its claims.
    pub run: fn(Scale) -> Vec<Row>,
}

impl Experiment {
    /// One line of the table.
    pub const fn new(id: &'static str, kind: Kind, run: fn(Scale) -> Vec<Row>) -> Self {
        Experiment { id, kind, run }
    }
}

/// The closed interval a measured value must fall in. An open side is an
/// infinity, which JSON renders as `null`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    /// Smallest admitted value.
    pub min: f64,
    /// Largest admitted value.
    pub max: f64,
}

impl Bound {
    /// `measured ≥ min`.
    pub fn at_least(min: f64) -> Self {
        Bound {
            min,
            max: f64::INFINITY,
        }
    }

    /// `measured ≤ max`.
    pub fn at_most(max: f64) -> Self {
        Bound {
            min: f64::NEG_INFINITY,
            max,
        }
    }

    /// `min ≤ measured ≤ max`.
    pub fn within(min: f64, max: f64) -> Self {
        Bound { min, max }
    }

    /// Within `relative` (0.10 = ±10 %) of the paper's figure.
    pub fn near(paper: f64, relative: f64) -> Self {
        let slack = paper.abs() * relative;
        Bound::within(paper - slack, paper + slack)
    }

    /// `measured = value`, for counts.
    pub fn exactly(value: f64) -> Self {
        Bound::within(value, value)
    }

    /// A value on the bound is admitted; a missing one or a NaN never is
    /// (both comparisons are false for NaN).
    pub fn admits(&self, measured: Option<f64>) -> bool {
        measured.is_some_and(|v| v >= self.min && v <= self.max)
    }
}

impl std::fmt::Display for Bound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.min.is_finite(), self.max.is_finite()) {
            (true, true) if self.min == self.max => write!(f, "= {}", num(self.min)),
            (true, true) => write!(f, "[{}, {}]", num(self.min), num(self.max)),
            (true, false) => write!(f, "≥ {}", num(self.min)),
            (false, true) => write!(f, "≤ {}", num(self.max)),
            (false, false) => write!(f, "any"),
        }
    }
}

/// One claim of the paper (or of ROADMAP / DESIGN.md) against one
/// measurement of this tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// `"<experiment>.<what>"`, unique over the whole table.
    pub id: String,
    /// Where the claim is made: `"Table 3"`, `"§4.2(c)"`, `"ROADMAP 9"`.
    pub source: &'static str,
    /// What is measured, in words.
    pub claim: String,
    /// The source's own figure or wording.
    pub paper: String,
    /// What this tree measures; `None` when the experiment could not.
    pub measured: Option<f64>,
    /// What `measured` must satisfy for the claim to count as reproduced.
    pub bound: Bound,
    /// `bound.admits(measured)`, fixed when the measurement is recorded.
    pub holds: bool,
    /// Why a row that does not hold may not fail the run. EXPERIMENTS.md
    /// repeats every reason.
    pub waived: Option<&'static str>,
}

impl Row {
    /// A claim nothing has measured yet: red until [`Row::measured`].
    pub fn new(id: String, source: &'static str, claim: &str) -> Self {
        Row {
            id,
            source,
            claim: claim.to_owned(),
            paper: String::new(),
            measured: None,
            bound: Bound::within(f64::NEG_INFINITY, f64::INFINITY),
            holds: false,
            waived: None,
        }
    }

    /// The source's own figure or wording.
    pub fn paper(&mut self, paper: &str) -> &mut Self {
        self.paper = paper.to_owned();
        self
    }

    /// What this tree measures and what that must satisfy; decides `holds`.
    pub fn measured(&mut self, measured: impl Into<Option<f64>>, bound: Bound) -> &mut Self {
        self.measured = measured.into();
        self.bound = bound;
        self.holds = bound.admits(self.measured);
        self
    }

    /// A count that must equal the paper's.
    pub fn exactly(&mut self, paper: f64, measured: usize) -> &mut Self {
        self.paper(&num(paper))
            .measured(measured as f64, Bound::exactly(paper))
    }

    /// A figure that must land within `relative` of the paper's.
    pub fn near(&mut self, paper: f64, relative: f64, measured: f64) -> &mut Self {
        self.paper(&num(paper))
            .measured(measured, Bound::near(paper, relative))
    }

    /// Record why this row may be red without failing the run.
    pub fn waive(&mut self, reason: &'static str) {
        self.waived = Some(reason);
    }

    /// `ok`, `WAIVED: <reason>` or `RED`.
    pub fn status(&self) -> String {
        match (self.holds, self.waived) {
            (true, _) => "ok".into(),
            (false, Some(reason)) => format!("WAIVED: {reason}"),
            (false, None) => "RED".into(),
        }
    }

    /// This row's line of the claims table, as EXPERIMENTS.md quotes it.
    pub fn table_line(&self) -> String {
        format!(
            "| `{}` | {} | {} | {} | {} | {} | {} |",
            self.id,
            self.source,
            self.claim,
            self.paper,
            self.measured.map_or("—".into(), num),
            self.bound,
            self.status()
        )
    }
}

/// Whole values bare, everything else to four significant digits with
/// trailing zeros dropped.
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        return format!("{v:.0}");
    }
    let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    let text = format!("{v:.decimals$}");
    match text.contains('.') {
        true => text.trim_end_matches('0').trim_end_matches('.').to_owned(),
        false => text,
    }
}

/// The rows of one experiment as it builds them: every id gets the
/// experiment's prefix and every row the current source.
pub struct Claims {
    experiment: &'static str,
    source: &'static str,
    rows: Vec<Row>,
}

impl Claims {
    /// No rows yet; `source` is where the experiment's claims are made.
    pub fn new(experiment: &'static str, source: &'static str) -> Self {
        Claims {
            experiment,
            source,
            rows: Vec::new(),
        }
    }

    /// The rows that follow quote another place (`"§4.2(c)"`).
    pub fn source(&mut self, source: &'static str) {
        self.source = source;
    }

    /// Open the row `<experiment>.<what>`; chain [`Row::paper`] and
    /// [`Row::measured`] (or [`Row::exactly`] / [`Row::near`]) onto it.
    pub fn claim(&mut self, what: &str, claim: &str) -> &mut Row {
        let id = format!("{}.{what}", self.experiment);
        self.rows.push(Row::new(id, self.source, claim));
        self.rows.last_mut().expect("just pushed")
    }

    /// The experiment's rows.
    pub fn done(self) -> Vec<Row> {
        self.rows
    }
}

/// Rows that fail the run: red and not waived.
pub fn red(rows: &[Row]) -> Vec<&Row> {
    rows.iter()
        .filter(|r| !r.holds && r.waived.is_none())
        .collect()
}

/// The claims table as markdown, one [`Row::table_line`] per row.
pub fn render_table(rows: &[Row]) -> String {
    let mut out = String::from(
        "| id | source | claim | paper | measured | bound | status |\n|---|---|---|---|---|---|---|\n",
    );
    for row in rows {
        out.push_str(&row.table_line());
        out.push('\n');
    }
    out
}

/// The rows as one JSON document (`PAPER_REPRO.json`).
pub fn render_json(rows: &[Row]) -> String {
    let mut out = String::new();
    let mut w = JsonWriter::spaced(&mut out);
    w.begin_object().line(2).key("rows").begin_array();
    for row in rows {
        w.line(4).begin_object();
        w.key("id").str(&row.id);
        w.key("source").str(row.source);
        w.key("claim").str(&row.claim);
        w.key("paper").str(&row.paper);
        w.key("measured")
            .float(row.measured.unwrap_or(f64::NAN), FloatFmt::Display);
        w.key("min").float(row.bound.min, FloatFmt::Display);
        w.key("max").float(row.bound.max, FloatFmt::Display);
        w.key("holds").bool(row.holds);
        match row.waived {
            Some(reason) => w.key("waived").str(reason),
            None => w.key("waived").null(),
        };
        w.end_object();
    }
    w.line(2).end_array().line(0).end_object();
    out.push('\n');
    out
}

/// A markdown table on stdout — the human view each experiment prints.
/// `header` and each row are cells joined by `" | "`.
pub(crate) fn table(title: &str, header: &str, rows: &[String]) {
    println!("\n{title}\n\n| {header} |");
    println!("|{}", "---|".repeat(header.matches(" | ").count() + 1));
    rows.iter().for_each(|row| println!("| {row} |"));
}

/// An ASCII bar for a 0..=1 fraction.
pub(crate) fn bar(fraction: f64, width: usize) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(measured: Option<f64>, bound: Bound) -> Row {
        let mut row = Row::new("t.x".into(), "Table 0", "claim");
        row.paper("1").measured(measured, bound);
        row
    }

    #[test]
    fn a_value_on_the_bound_holds_and_one_ulp_past_it_does_not() {
        for edge in [100.0f64, 0.1, -3.5] {
            assert!(row(Some(edge), Bound::at_least(edge)).holds);
            assert!(!row(Some(edge.next_down()), Bound::at_least(edge)).holds);
            assert!(row(Some(edge), Bound::at_most(edge)).holds);
            assert!(!row(Some(edge.next_up()), Bound::at_most(edge)).holds);
            assert!(row(Some(edge), Bound::exactly(edge)).holds);
            assert!(!row(Some(edge.next_up()), Bound::exactly(edge)).holds);
            assert!(!row(Some(edge.next_down()), Bound::exactly(edge)).holds);
        }
    }

    #[test]
    fn nan_or_missing_is_red_never_green() {
        for bound in [
            Bound::at_least(0.0),
            Bound::at_most(0.0),
            Bound::within(f64::NEG_INFINITY, f64::INFINITY),
        ] {
            assert!(!row(Some(f64::NAN), bound).holds);
            assert!(!row(None, bound).holds);
        }
        assert_eq!(row(None, Bound::at_least(0.0)).status(), "RED");
        assert_eq!(
            Row::new("t.x".into(), "Table 0", "never measured").status(),
            "RED"
        );
        assert!(row(None, Bound::at_least(0.0)).table_line().contains("—"));
    }

    #[test]
    fn a_waived_red_row_does_not_fail_the_run_but_an_unwaived_one_does() {
        let green = row(Some(1.0), Bound::at_least(1.0));
        let mut waived = row(Some(0.0), Bound::at_least(1.0));
        waived.waive("ROADMAP item 9");
        let red_row = row(Some(0.0), Bound::at_least(1.0));
        assert!(red(&[green.clone(), waived.clone()]).is_empty());
        assert_eq!(red(&[green, waived.clone(), red_row.clone()]), [&red_row]);
        assert_eq!(waived.status(), "WAIVED: ROADMAP item 9");
        // A waiver on a row that holds changes nothing.
        let mut holds = row(Some(2.0), Bound::at_least(1.0));
        holds.waive("x");
        assert_eq!(holds.status(), "ok");
    }

    #[test]
    fn json_writes_open_bounds_and_missing_values_as_null() {
        let mut waived = row(None, Bound::at_least(2.5));
        waived.waive("why");
        let doc = render_json(&[waived]);
        let parsed = cornet_types::json::parse(&doc).expect("valid JSON");
        let rows = parsed.get("rows").and_then(|r| r.as_array()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("min").and_then(|v| v.as_f64()), Some(2.5));
        assert!(rows[0].get("max").unwrap().as_f64().is_none());
        assert!(rows[0].get("measured").unwrap().as_f64().is_none());
        assert_eq!(rows[0].get("waived").and_then(|v| v.as_str()), Some("why"));
    }

    #[test]
    fn numbers_and_bounds_render_for_a_reader() {
        assert_eq!(num(60.0), "60");
        assert_eq!(num(41.666), "41.67");
        assert_eq!(num(0.51234), "0.5123");
        assert_eq!(num(1234.56), "1235");
        assert_eq!(Bound::exactly(60.0).to_string(), "= 60");
        assert_eq!(Bound::within(0.0, 20.0).to_string(), "[0, 20]");
        assert_eq!(Bound::at_least(1.5).to_string(), "≥ 1.5");
        assert_eq!(bar(0.5, 10), "#####.....");
        assert_eq!(bar(2.0, 4), "####");
    }
}
