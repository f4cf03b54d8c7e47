//! `census-paper`: one op is a fresh `CensusPipeline` running the census
//! of the built-in 290-app corpus and then the policy-impact study, which
//! reproduces Table 2 and Figure 4b. It is the only workload that hits the
//! pipeline's build and render caches and the reachability matrix.

use crate::metrics::{closed_loop, Outcome};
use crate::trace::Tracer;
use ij_core::{Census, MisconfigId};
use ij_datasets::{
    corpus, describe_builtin, score_corpus, AppSpec, CensusPipeline, PolicyImpact,
    PopulationSummary,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

fn pipeline(seed: u64) -> CensusPipeline {
    CensusPipeline::builder().seed(seed).build()
}

/// One op's output.
pub type Output = (Census, Vec<PolicyImpact>);

fn op(seed: u64, specs: &[AppSpec]) -> Result<Output, String> {
    let pipeline = pipeline(seed);
    let census = pipeline.run(specs).map_err(|e| e.to_string())?;
    let impact = pipeline.policy_impact(specs).map_err(|e| e.to_string())?;
    Ok((census, impact))
}

/// The correctness gate. Oracles: the specs' ground truth (precision and
/// recall 1.0 for every per-app class), the corpus summary's per-class
/// expectation and affected-app count (634 findings, 259 of 290 apps), and
/// the policy-defining charts per dataset.
pub fn gate(
    specs: &[AppSpec],
    expected: &PopulationSummary,
    (census, impact): &Output,
) -> Result<(), String> {
    if census.apps.len() != specs.len() {
        return Err(format!(
            "{} reports for {} specs",
            census.apps.len(),
            specs.len()
        ));
    }
    let score = score_corpus(
        specs
            .iter()
            .zip(&census.apps)
            .map(|(spec, app)| (spec, app.findings.as_slice())),
    );
    for (id, class) in &score.classes {
        if *id != MisconfigId::M4Star && (class.precision() != 1.0 || class.recall() != 1.0) {
            return Err(format!("{id}: {class:?}"));
        }
    }
    for id in MisconfigId::ALL {
        let found: usize = census.apps.iter().map(|a| a.count_of(id)).sum();
        let want = expected.expected.get(&id).copied().unwrap_or(0);
        if found != want {
            return Err(format!("{id}: found {found}, corpus expects {want}"));
        }
    }
    let affected = census
        .apps
        .iter()
        .filter(|a| !a.findings.is_empty())
        .count();
    if affected != expected.affected {
        return Err(format!(
            "{affected} apps affected, corpus expects {}",
            expected.affected
        ));
    }
    let mut defining: BTreeMap<&str, usize> = BTreeMap::new();
    for spec in specs.iter().filter(|s| s.plan.netpol.defines_policy()) {
        *defining.entry(spec.org.as_str()).or_default() += 1;
    }
    let enabled: BTreeMap<&str, usize> = impact
        .iter()
        .map(|row| (row.dataset.as_str(), row.enabled))
        .collect();
    if enabled != defining {
        return Err(format!(
            "policy study enabled {enabled:?}, specs define {defining:?}"
        ));
    }
    Ok(())
}

/// The untraced end-to-end run.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    closed_loop(
        budget,
        || {
            let specs = corpus();
            let expected = describe_builtin();
            let ok = op(seed, &specs).is_ok_and(|o| gate(&specs, &expected, &o).is_ok());
            ((specs, expected), ok)
        },
        |(specs, _)| op(seed, black_box(specs)),
        |(specs, expected), output| output.is_ok_and(|o| gate(specs, expected, &o).is_ok()),
    )
}

const LAYERS: &[&str] = &[
    "pipeline.new",
    "pipeline.run",
    "pipeline.policy_impact",
    "teardown",
];

/// The traced run: the op's three calls and the drop of the pipeline with
/// its caches, each a span.
pub fn trace(seed: u64, budget: Duration, out: &mut Outcome) {
    let specs = corpus();
    let expected = describe_builtin();
    let mut tracer = Tracer::new(LAYERS);
    let mut plain = Duration::ZERO;
    let mut ops = 0;
    // Warm-up: the first op pays one-time initialization.
    out.check(op(seed, &specs).is_ok_and(|o| gate(&specs, &expected, &o).is_ok()));
    while ops == 0 || tracer.total() + plain < budget {
        let start = std::time::Instant::now();
        let untraced = op(seed, &specs);
        plain += start.elapsed();
        drop(untraced);
        let output = tracer.interval(|t| {
            let pipeline = t.span(0, || pipeline(seed));
            let census = t.span(1, || pipeline.run(&specs));
            let impact = t.span(2, || pipeline.policy_impact(&specs));
            t.span(3, || drop(pipeline));
            census.and_then(|c| impact.map(|i| (c, i)))
        });
        out.check(output.is_ok_and(|o| gate(&specs, &expected, &o).is_ok()));
        ops += 1;
    }
    tracer.emit(out, "paper", ops as f64);
    out.push(
        "paper.tracing_overhead_share",
        "ratio",
        tracer.total().as_secs_f64() / plain.as_secs_f64() - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_accepts_the_paper_census_and_rejects_corruptions() {
        let specs = corpus();
        let expected = describe_builtin();
        let output = op(7, &specs).expect("the corpus runs");
        assert_eq!(gate(&specs, &expected, &output), Ok(()));

        let mut dropped = output.clone();
        let app = dropped
            .0
            .apps
            .iter_mut()
            .find(|a| !a.findings.is_empty())
            .expect("an affected app");
        app.findings.pop();
        assert!(gate(&specs, &expected, &dropped).is_err());

        // An M4* finding moved onto an unaffected app keeps every per-class
        // count and every per-app score; only the affected count moves.
        let mut moved = output.clone();
        let apps = &mut moved.0.apps;
        let from = apps
            .iter()
            .position(|a| a.findings.len() > 1 && a.count_of(MisconfigId::M4Star) > 0)
            .expect("an app with an M4* and another finding");
        let to = apps
            .iter()
            .position(|a| a.findings.is_empty())
            .expect("an unaffected app");
        let at = apps[from]
            .findings
            .iter()
            .position(|f| f.id == MisconfigId::M4Star)
            .expect("the M4* finding");
        let finding = apps[from].findings.remove(at);
        apps[to].findings.push(finding);
        assert!(gate(&specs, &expected, &moved).is_err_and(|e| e.contains("apps affected")));

        let mut study = output;
        study.1[0].enabled += 1;
        assert!(gate(&specs, &expected, &study).is_err());
    }
}
