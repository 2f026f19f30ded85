//! `cornet_e2e` — absolute end-to-end and per-layer numbers for the CORNET
//! workspace: four seeded workloads, each a fixed op list run closed-loop
//! in its own process with every op checked against an oracle, plus a
//! traced run and a layer microbench table. README.md documents every
//! metric and workload.
//!
//! ```text
//! cornet_e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!            [--layers] [--quick] [--out DIR]
//! ```

mod calibrate;
mod fleet_plan;
mod fleet_rollout;
mod gen;
mod kpi_verify;
mod layers;
mod measure;
mod report;
mod run;
mod tenant_mix;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::WORKLOADS;

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// A workload name, `all`, or `None` for `--layers` alone.
    pub workload: Option<String>,
    pub seed: u64,
    /// Length of the timed region; `None` takes the default of the mode.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub layers: bool,
    pub quick: bool,
    pub out: Option<PathBuf>,
    /// Internal: this process is the 1-CPU probe of a traced run.
    pub probe: bool,
}

/// Seconds one run measures unless `--seconds` says otherwise (the
/// `run_seconds` of BENCHMARK.json).
pub const DEFAULT_SECONDS: f64 = 25.0;
pub const QUICK_SECONDS: f64 = 1.0;

const USAGE: &str =
    "usage: cornet_e2e [--workload tenant_mix|fleet_plan|fleet_rollout|kpi_verify|all] \
[--seed N] [--seconds S] [--trace 0|1] [--layers] [--quick] [--out DIR]";

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        layers: false,
        quick: false,
        out: None,
        probe: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" && !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--layers" => args.layers = true,
            "--quick" => args.quick = true,
            "--probe" => args.probe = true,
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && !args.layers {
        args.workload = Some("all".into());
    }
    Ok(args)
}

impl Args {
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cornet_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload.as_deref() {
        None => {
            let rows = layers::run_all(layers::FULL_ROW_SECONDS, args.seed);
            println!("{}", report::render_metric_lines("layers", &rows));
            true
        }
        Some("all") => report::run_all_workloads(&args),
        Some(name) => run::run_single(name, &args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload fleet_plan --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("fleet_plan"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(20.0), true));
        assert_eq!(parse_args(&[]).unwrap().workload.as_deref(), Some("all"));
        assert_eq!(parse_args(&argv("--layers")).unwrap().workload, None);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace yes")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert_eq!(
            parse_args(&argv("--quick")).unwrap().seconds(),
            QUICK_SECONDS
        );
    }
}
