//! `census-stream`: one op is one streamed census of a generated `baseline`
//! population through `CensusPipeline::run_generated_compact` at one
//! thread and two shards. It runs every per-app layer, the shard merge and
//! the global M4* pass, and bypasses the build and render caches.

use crate::metrics::{closed_loop, Outcome};
use crate::trace::Tracer;
use ij_chart::{Release, RenderScratch};
use ij_cluster::{Cluster, ClusterConfig};
use ij_core::{
    chart_defines_network_policies, m4_global_collisions_compact, sort_canonical_compact,
    CompactAppReport, CompactCensus, CompactFinding, GlobalAppModel, MisconfigId, StaticModel,
    SymbolTable,
};
use ij_datasets::{build_app, CensusPipeline, CorpusGenerator, CorpusProfile, PopulationSummary};
use ij_probe::{HostBaseline, RuntimeAnalyzer};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Duration;

/// Population of one census op.
pub const APPS: usize = 400;
/// One worker: on a shared two-vCPU host a two-thread census waits for
/// whichever vCPU the host takes away; its wall time swung by 60% in a
/// phase where its CPU time moved 15%.
const THREADS: usize = 1;
const SHARDS: usize = 2;

pub fn generator(seed: u64, apps: usize) -> CorpusGenerator {
    CorpusGenerator::new(
        CorpusProfile::named("baseline")
            .expect("the baseline profile exists")
            .with_apps(apps)
            .with_seed(seed),
    )
}

pub fn pipeline(seed: u64, threads: usize, shards: usize) -> CensusPipeline {
    CensusPipeline::builder()
        .seed(seed)
        .threads(threads)
        .shards(shards)
        .build()
}

/// The correctness gate: the census finds exactly what the generator
/// injected, class by class, in one report per generated app.
pub fn gate(census: &CompactCensus, expected: &PopulationSummary) -> Result<(), String> {
    if census.apps.len() != expected.apps {
        return Err(format!(
            "{} reports for {} apps",
            census.apps.len(),
            expected.apps
        ));
    }
    for id in MisconfigId::ALL {
        let found: usize = census.apps.iter().map(|a| a.count_of(id)).sum();
        let want = expected.expected.get(&id).copied().unwrap_or(0);
        if found != want {
            return Err(format!("{id}: found {found}, generator injected {want}"));
        }
    }
    Ok(())
}

/// What the traced pass must reproduce of a census: per-app finding count,
/// cluster-wide (M4*) finding count, and a hash over every finding identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub local: usize,
    pub global: usize,
    pub identity: u64,
}

impl Fingerprint {
    pub fn of(census: &CompactCensus) -> Self {
        let table = census.table();
        let mut ids: Vec<u64> = Vec::new();
        let mut global = 0;
        for app in &census.apps {
            for f in &app.findings {
                ids.push(f.identity(table));
                global += usize::from(f.id == MisconfigId::M4Star);
            }
        }
        ids.sort_unstable();
        let identity = ids.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, id| {
            id.to_le_bytes()
                .iter()
                .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
        });
        Fingerprint {
            local: ids.len() - global,
            global,
            identity,
        }
    }
}

/// The untraced end-to-end run.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    closed_loop(
        budget,
        || {
            let generator = generator(seed, APPS);
            let expected = generator.describe();
            let pipeline = pipeline(seed, THREADS, SHARDS);
            let warm = pipeline.run_generated_compact(&generator);
            let ok = warm.is_ok_and(|c| gate(&c, &expected).is_ok());
            ((generator, expected, pipeline), ok)
        },
        |(generator, _, pipeline)| pipeline.run_generated_compact(black_box(generator)),
        |(_, expected, _), census| census.is_ok_and(|c| gate(&c, expected).is_ok()),
    )
}

/// Layers of the traced census, in call order.
pub const LAYERS: &[&str] = &[
    "gen.spec",
    "build.app",
    "chart.compile",
    "chart.render",
    "cluster.new",
    "cluster.install",
    "probe.baseline",
    "probe.runtime",
    "core.rules",
    "core.static_model",
    "core.intern",
    "core.global",
    "teardown",
];
const GEN_SPEC: usize = 0;
const BUILD_APP: usize = 1;
const CHART_COMPILE: usize = 2;
const CHART_RENDER: usize = 3;
const CLUSTER_NEW: usize = 4;
const CLUSTER_INSTALL: usize = 5;
const PROBE_BASELINE: usize = 6;
const PROBE_RUNTIME: usize = 7;
const CORE_RULES: usize = 8;
const CORE_STATIC_MODEL: usize = 9;
const CORE_INTERN: usize = 10;
const CORE_GLOBAL: usize = 11;
const TEARDOWN: usize = 12;

/// The pipeline's per-app seed: FNV-1a over the app name mixed with the
/// base seed. `CorpusOptions::app_seed` is crate-private, so this is a copy;
/// the fingerprint equality of the traced pass guards it.
pub fn app_seed(base: u64, name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    }) ^ base
}

/// One census through the layers' public calls, on one thread and one
/// shard, each call a span of `tracer`. Returns the census fingerprint.
pub fn traced_census(generator: &CorpusGenerator, seed: u64, tracer: &mut Tracer) -> Fingerprint {
    let pipeline = pipeline(seed, 1, 1);
    let opts = pipeline.options();
    let census = tracer.interval(|t| {
        let mut table = SymbolTable::new();
        let mut apps: Vec<CompactAppReport> = Vec::with_capacity(generator.len());
        let mut globals: Vec<GlobalAppModel> = Vec::new();
        let mut staged = Vec::new();
        let mut scratch = RenderScratch::default();
        for i in 0..generator.len() {
            let spec = t.span(GEN_SPEC, || generator.spec(i));
            let name = spec.name.as_str();
            let built = t.span(BUILD_APP, || build_app(&spec));
            let compiled = t.span(CHART_COMPILE, || built.compiled());
            let compiled = compiled.expect("generated charts compile");
            t.span(CHART_RENDER, || {
                let release = Release::new(name, "default");
                compiled.render_objects_into(&release, &mut scratch, &mut staged)
            })
            .expect("generated charts render");
            let mut cluster = t.span(CLUSTER_NEW, || {
                Cluster::new(ClusterConfig {
                    nodes: opts.nodes,
                    seed: app_seed(opts.seed, name),
                    behaviors: built.registry(),
                })
            });
            let baseline = t.span(PROBE_BASELINE, || HostBaseline::capture(&cluster));
            t.span(CLUSTER_INSTALL, || cluster.install_objects(name, &staged))
                .expect("generated charts install");
            let runtime = t.span(PROBE_RUNTIME, || {
                let mut probe = opts.probe.clone();
                probe.seed = app_seed(opts.seed, name).rotate_left(17);
                RuntimeAnalyzer::new(probe).analyze(&mut cluster, &baseline)
            });
            let findings = t.span(CORE_RULES, || {
                opts.analyzer.analyze_app(
                    name,
                    &staged,
                    &cluster,
                    Some(&runtime),
                    chart_defines_network_policies(built.chart()),
                )
            });
            let statics = t.span(CORE_STATIC_MODEL, || StaticModel::from_objects(&staged));
            t.span(CORE_INTERN, || {
                apps.push(CompactAppReport {
                    app: table.intern(name),
                    dataset: table.intern(spec.org.as_str()),
                    version: table.intern(&spec.version),
                    findings: findings
                        .iter()
                        .map(|f| CompactFinding::intern(f, &mut table))
                        .collect(),
                });
                globals.push(GlobalAppModel::intern(name, &statics, &mut table));
            });
            t.span(TEARDOWN, || {
                drop((findings, statics, runtime, baseline, cluster, built, spec));
                staged.clear();
            });
        }
        t.span(CORE_GLOBAL, || {
            let found = m4_global_collisions_compact(&globals, &table);
            let mut first_ix: HashMap<_, usize> = HashMap::new();
            for (i, a) in apps.iter().enumerate() {
                first_ix.entry(a.app).or_insert(i);
            }
            let mut touched = Vec::new();
            for finding in found {
                let Some(&i) = table.lookup(&finding.app).and_then(|s| first_ix.get(&s)) else {
                    continue;
                };
                apps[i]
                    .findings
                    .push(CompactFinding::intern(&finding, &mut table));
                touched.push(i);
            }
            touched.sort_unstable();
            touched.dedup();
            for i in touched {
                sort_canonical_compact(&mut apps[i].findings, &table);
            }
        });
        t.span(TEARDOWN, || drop((globals, staged, scratch)));
        CompactCensus::new(table, apps)
    });
    let fingerprint = Fingerprint::of(&census);
    tracer.interval(|t| t.span(TEARDOWN, || drop(census)));
    fingerprint
}

/// The traced run: the traced census must reproduce the untraced
/// pipeline's fingerprint; tracing overhead compares it with an untraced
/// single-threaded census of the same population.
pub fn trace(seed: u64, budget: Duration, out: &mut Outcome) {
    let generator = generator(seed, APPS);
    let expected = generator.describe();
    let reference = pipeline(seed, THREADS, SHARDS)
        .run_generated_compact(&generator)
        .map(|c| (gate(&c, &expected).is_ok(), Fingerprint::of(&c)));
    let mut tracer = Tracer::new(LAYERS);
    let mut plain = Duration::ZERO;
    let mut passes = 0;
    while passes == 0 || tracer.total() + plain < budget {
        let start = std::time::Instant::now();
        let census = pipeline(seed, 1, 1).run_generated_compact(&generator);
        plain += start.elapsed();
        drop(census);
        let fingerprint = traced_census(&generator, seed, &mut tracer);
        out.check(matches!(&reference, Ok((true, r)) if *r == fingerprint));
        passes += 1;
    }
    let apps = (APPS * passes) as f64;
    tracer.emit(out, "stream", apps);
    out.push(
        "stream.tracing_overhead_share",
        "ratio",
        tracer.total().as_secs_f64() / plain.as_secs_f64() - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_pass_equals_the_pipeline() {
        let generator = generator(1, APPS);
        let census = pipeline(1, 2, 2)
            .run_generated_compact(&generator)
            .expect("generated corpus runs");
        let want = Fingerprint::of(&census);
        assert!(want.global > 0, "population too small to collide");
        let mut tracer = Tracer::new(LAYERS);
        assert_eq!(traced_census(&generator, 1, &mut tracer), want);
        assert!(tracer.unattributed_share() < 0.05);
    }

    #[test]
    fn gate_rejects_a_dropped_finding() {
        let generator = generator(5, 40);
        let expected = generator.describe();
        let census = pipeline(5, 1, 1)
            .run_generated_compact(&generator)
            .expect("generated corpus runs");
        assert_eq!(gate(&census, &expected), Ok(()));
        let mut apps = census.apps.clone();
        let victim = apps
            .iter_mut()
            .find(|a| !a.findings.is_empty())
            .expect("some app has a finding");
        victim.findings.pop();
        let corrupted = CompactCensus::new(census.table().clone(), apps);
        assert!(gate(&corrupted, &expected).is_err());
        assert_ne!(Fingerprint::of(&corrupted), Fingerprint::of(&census));
    }

    #[test]
    fn app_seed_copy_is_fnv1a_mixed_with_the_base_seed() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(app_seed(0, ""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(app_seed(0, "a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(app_seed(0xff, "a"), 0xaf63_dc4c_8601_ec73);
    }
}
