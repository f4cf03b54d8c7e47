//! `chart-analyze`: one op runs, in process, the call sequence of
//! `ij analyze <chart>` on one conformant fixture chart: ingest from disk,
//! naive render, install into a fresh cluster, double-pass runtime probe,
//! rule evaluation. Charts are visited round-robin in a seeded order. This
//! is the workload where YAML parsing, chart ingestion and text-template
//! evaluation do most of the work.

use crate::metrics::{closed_loop, Outcome};
use crate::trace::Tracer;
use ij_chart::{Chart, Release};
use ij_cluster::{Cluster, ClusterConfig};
use ij_core::{chart_defines_network_policies, Analyzer};
use ij_probe::{HostBaseline, RuntimeAnalyzer};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A conformant fixture chart and its committed object and finding counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub chart: String,
    pub objects: usize,
    pub findings: usize,
}

/// What one op produced for its chart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub objects: usize,
    pub findings: usize,
}

/// Reads the conformant charts of a `CONFORMANCE.json` baseline. The file
/// is written one key per line by `ij conform`, so a line scan suffices.
pub fn parse_conformance(json: &str) -> Result<Vec<Expected>, String> {
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = line.trim().strip_prefix(&format!("\"{key}\": "))?;
        Some(rest.trim_end_matches(',').trim_matches('"').to_string())
    };
    let number = |value: String| {
        value
            .parse::<usize>()
            .map_err(|_| format!("CONFORMANCE.json: `{value}` is not a count"))
    };
    let mut charts = Vec::new();
    let mut current: Option<(String, bool)> = None;
    let mut objects = None;
    for line in json.lines() {
        if let Some(name) = field(line, "chart") {
            current = Some((name, false));
            objects = None;
        } else if let Some(status) = field(line, "status") {
            if let Some((_, conformant)) = &mut current {
                *conformant = status == "conformant";
            }
        } else if let Some(value) = field(line, "objects") {
            objects = Some(number(value)?);
        } else if let Some(value) = field(line, "findings") {
            if let (Some((chart, true)), Some(objects)) = (&current, objects) {
                charts.push(Expected {
                    chart: chart.clone(),
                    objects,
                    findings: number(value)?,
                });
            }
        }
    }
    if charts.is_empty() {
        return Err("CONFORMANCE.json lists no conformant chart".into());
    }
    Ok(charts)
}

/// The `ij analyze` call sequence on one chart directory.
pub fn analyze(dir: &Path) -> Result<Counts, String> {
    let chart = Chart::from_dir(dir).map_err(|e| e.to_string())?;
    let release = Release::new(&chart.name, "default");
    let rendered = chart.render(&release).map_err(|e| e.to_string())?;
    let mut cluster = Cluster::new(ClusterConfig::default());
    let baseline = HostBaseline::capture(&cluster);
    cluster.install(&rendered).map_err(|e| e.to_string())?;
    let runtime = RuntimeAnalyzer::default().analyze(&mut cluster, &baseline);
    let findings = Analyzer::hybrid().analyze_app(
        &chart.name,
        &rendered.objects,
        &cluster,
        Some(&runtime),
        chart_defines_network_policies(&chart),
    );
    Ok(Counts {
        objects: rendered.objects.len(),
        findings: findings.len(),
    })
}

/// The correctness gate: the op's counts equal the committed baseline.
pub fn gate(expected: &Expected, got: &Result<Counts, String>) -> Result<(), String> {
    let want = Counts {
        objects: expected.objects,
        findings: expected.findings,
    };
    match got {
        Ok(counts) if *counts == want => Ok(()),
        Ok(counts) => Err(format!("{}: {counts:?}, baseline {want:?}", expected.chart)),
        Err(e) => Err(format!("{}: {e}", expected.chart)),
    }
}

/// The conformant charts in a seeded order (Fisher-Yates over splitmix64).
pub fn charts(root: &Path, seed: u64) -> Result<Vec<(PathBuf, Expected)>, String> {
    let path = root.join("CONFORMANCE.json");
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut charts: Vec<(PathBuf, Expected)> = parse_conformance(&json)?
        .into_iter()
        .map(|e| (root.join("fixtures/charts").join(&e.chart), e))
        .collect();
    let mut state = seed;
    for i in (1..charts.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        charts.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    Ok(charts)
}

/// The untraced end-to-end run. Set-up reads the baseline and analyzes
/// every chart once, untimed.
pub fn run(seed: u64, budget: Duration, root: &Path) -> Result<Outcome, String> {
    // Fail before timing anything when the inputs are missing.
    charts(root, seed)?;
    Ok(closed_loop(
        budget,
        || {
            let inputs = charts(root, seed).unwrap_or_default();
            let ok = !inputs.is_empty()
                && inputs
                    .iter()
                    .all(|(dir, want)| gate(want, &analyze(dir)).is_ok());
            ((inputs, 0usize), ok)
        },
        |(inputs, next)| {
            let (dir, _) = &inputs[*next % inputs.len()];
            analyze(black_box(dir))
        },
        |(inputs, next), got| {
            let (_, want) = &inputs[*next % inputs.len()];
            *next += 1;
            gate(want, &got).is_ok()
        },
    ))
}

const LAYERS: &[&str] = &[
    "chart.ingest",
    "chart.render_naive",
    "cluster.new",
    "probe.baseline",
    "cluster.install",
    "probe.runtime",
    "core.rules",
    "teardown",
];

/// [`analyze`] with every layer call a span of `t`.
fn traced_analyze(dir: &Path, t: &mut Tracer) -> Result<Counts, String> {
    let chart = t
        .span(0, || Chart::from_dir(dir))
        .map_err(|e| e.to_string())?;
    let rendered = t
        .span(1, || chart.render(&Release::new(&chart.name, "default")))
        .map_err(|e| e.to_string())?;
    let mut cluster = t.span(2, || Cluster::new(ClusterConfig::default()));
    let baseline = t.span(3, || HostBaseline::capture(&cluster));
    t.span(4, || cluster.install(&rendered))
        .map_err(|e| e.to_string())?;
    let runtime = t.span(5, || {
        RuntimeAnalyzer::default().analyze(&mut cluster, &baseline)
    });
    let findings = t.span(6, || {
        Analyzer::hybrid().analyze_app(
            &chart.name,
            &rendered.objects,
            &cluster,
            Some(&runtime),
            chart_defines_network_policies(&chart),
        )
    });
    let counts = Counts {
        objects: rendered.objects.len(),
        findings: findings.len(),
    };
    t.span(7, || {
        drop((findings, runtime, baseline, cluster, rendered, chart))
    });
    Ok(counts)
}

/// The traced run: every chart's traced counts must equal the baseline.
pub fn trace(seed: u64, budget: Duration, root: &Path, out: &mut Outcome) {
    let charts = match charts(root, seed) {
        Ok(charts) => charts,
        Err(_) => {
            out.check(false);
            return;
        }
    };
    let mut tracer = Tracer::new(LAYERS);
    let mut plain = Duration::ZERO;
    let mut ops = 0;
    // Warm-up: the first round pays one-time initialization.
    for (dir, want) in &charts {
        out.check(gate(want, &analyze(dir)).is_ok());
    }
    while ops == 0 || tracer.total() + plain < budget {
        for (dir, want) in &charts {
            let start = std::time::Instant::now();
            let untraced = analyze(dir);
            plain += start.elapsed();
            let traced = tracer.interval(|t| traced_analyze(dir, t));
            out.check(gate(want, &untraced).is_ok() && gate(want, &traced).is_ok());
            ops += 1;
        }
    }
    tracer.emit(out, "charts", ops as f64);
    out.push(
        "charts.tracing_overhead_share",
        "ratio",
        tracer.total().as_secs_f64() / plain.as_secs_f64() - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark sits in the repository")
            .to_path_buf()
    }

    #[test]
    fn every_conformant_chart_passes_the_gate_traced_and_untraced() {
        let charts = charts(&root(), 3).expect("baseline parses");
        assert_eq!(charts.len(), 11);
        let mut tracer = Tracer::new(LAYERS);
        for (dir, want) in &charts {
            assert_eq!(gate(want, &analyze(dir)), Ok(()));
            let traced = tracer.interval(|t| traced_analyze(dir, t));
            assert_eq!(gate(want, &traced), Ok(()));
        }
    }

    #[test]
    fn gate_rejects_a_wrong_chart_count() {
        let charts = charts(&root(), 3).expect("baseline parses");
        let (dir, want) = &charts[0];
        let got = analyze(dir).expect("conformant chart analyzes");
        let off_by_one = Counts {
            findings: got.findings + 1,
            ..got
        };
        assert!(gate(want, &Ok(off_by_one)).is_err());
        let fewer_objects = Counts {
            objects: got.objects - 1,
            ..got
        };
        assert!(gate(want, &Ok(fewer_objects)).is_err());
    }

    #[test]
    fn seeded_order_is_a_permutation() {
        let a = charts(&root(), 1).expect("baseline parses");
        let b = charts(&root(), 2).expect("baseline parses");
        let names = |c: &[(PathBuf, Expected)]| {
            let mut n: Vec<String> = c.iter().map(|(_, e)| e.chart.clone()).collect();
            n.sort();
            n
        };
        assert_eq!(names(&a), names(&b));
        assert_ne!(a, b);
    }
}
