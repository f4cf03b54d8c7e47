//! The Inside Job benchmark: four closed-loop workloads driven through the
//! workspace's public APIs, each checked against an independent oracle.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics of the named
//! workload. With `--trace 1` it re-executes the workloads' pipelines
//! through the layers' public calls and prints the per-layer metrics of all
//! four: the named workload over the whole budget, the others over one pass
//! each. The last line of standard output is one JSON object; see
//! `perfbench/README.md`.

mod audit_churn;
mod census_paper;
mod census_stream;
mod chart_analyze;
pub mod clock;
mod metrics;
mod trace;

use metrics::Outcome;
use std::path::PathBuf;
use std::time::Duration;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 4] = [
    "census-stream",
    "census-paper",
    "chart-analyze",
    "audit-churn",
];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}`; expected one of: {}",
                WORKLOADS.join(", ")
            ));
        }
        let seed = seed.ok_or("--seed is required")?;
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(1..=600).contains(&seconds) {
            return Err(format!("--seconds {seconds} is outside 1..=600"));
        }
        let trace = trace.ok_or("--trace is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// The repository root, which runs start from: the benchmark's inputs
/// (fixture charts and the conformance baseline) live there.
pub fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    if cwd.join("CONFORMANCE.json").is_file() {
        Ok(cwd)
    } else {
        Err("run from the repository root: no CONFORMANCE.json here".into())
    }
}

/// Runs one benchmark invocation and returns its result line.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        if clock::allocs().is_none() {
            return Err("--trace 1 needs the perfbench-traced binary".into());
        }
        // The named workload is traced over the whole budget; the others
        // over one pass each, so every run reports every layer.
        let budget_of = |name: &str| {
            if name == args.workload {
                budget
            } else {
                Duration::ZERO
            }
        };
        let mut out = Outcome::default();
        census_stream::trace(args.seed, budget_of("census-stream"), &mut out);
        census_paper::trace(args.seed, budget_of("census-paper"), &mut out);
        chart_analyze::trace(
            args.seed,
            budget_of("chart-analyze"),
            &repo_root()?,
            &mut out,
        );
        audit_churn::trace(args.seed, budget_of("audit-churn"), &mut out);
        return Ok(out);
    }
    Ok(match args.workload.as_str() {
        "census-stream" => census_stream::run(args.seed, budget),
        "census-paper" => census_paper::run(args.seed, budget),
        "chart-analyze" => chart_analyze::run(args.seed, budget, &repo_root()?)?,
        "audit-churn" => audit_churn::run(args.seed, budget),
        other => unreachable!("workload `{other}` passed validation"),
    })
}

/// Entry point shared by both binaries: prints the result line, or an
/// error and exit code 2.
pub fn main() {
    let result = Args::parse(std::env::args().skip(1)).and_then(|args| run(&args));
    match result {
        Ok(out) => {
            if !out.correct() {
                eprintln!(
                    "perfbench: {} of {} ops failed their correctness gate",
                    out.failed, out.attempted
                );
            }
            println!("{}", out.to_json());
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_contract_flags() {
        let a = parse("--workload audit-churn --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("audit-churn", 9, 3, true)
        );
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload census-paper --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload census-paper --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--seed 3 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload census-paper --seconds 1 --trace 0").is_err());
        assert!(parse("--workload census-paper --seed 1 --trace 0").is_err());
        assert!(parse("--workload census-paper --seed 1 --seconds 1").is_err());
    }
}
