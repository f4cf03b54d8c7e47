//! `audit-churn`: the latency of `ij serve`. Set-up preinstalls a fixed
//! population into one long-lived cluster and audits it once; one op is then
//! one `ChurnSession` mutation applied through `apply_mutation` followed by
//! an `IncrementalAuditor::tick`.
//!
//! A pass runs a fixed number of mutations, never a fixed duration: net
//! installs grow the cluster and per-mutation cost grows with it, so a
//! duration-bound pass would hand faster code a bigger cluster. A run
//! cycles through [`POPULATIONS`] populations, one per pass and each from a
//! fresh set-up, and stops after a whole cycle once its time is spent. The
//! op mix is multimodal (a policy add takes microseconds, an install
//! milliseconds), so one population's mix would move the median with the
//! seed; a cycle averages over several.

use crate::clock::Stamp;
use crate::metrics::{percentile, EndToEnd, Outcome};
use ij_cluster::{BehaviorRegistry, Cluster, ClusterConfig};
use ij_core::Finding;
use ij_datasets::{apply_mutation, ChurnMutation, ChurnSession, CorpusGenerator, CorpusProfile};
use ij_guard::IncrementalAuditor;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Applications installed before the first timed mutation.
pub const PREINSTALL: usize = 100;
/// Timed mutations per pass.
pub const MUTATIONS: usize = 300;
/// Every this many ticks, and after the last one, the incremental finding
/// set is compared with a full recompute.
const CHECK_EVERY: usize = 50;
/// Populations per cycle of passes.
pub const POPULATIONS: u64 = 4;

/// The seed of pass `pass` of a run with seed `seed`: runs with different
/// seeds never share a population.
fn pass_seed(seed: u64, pass: u64) -> u64 {
    seed.wrapping_mul(POPULATIONS)
        .wrapping_add(pass % POPULATIONS)
}

/// One long-lived tenant cluster under churn, with its auditor and the
/// full-recompute oracle the gate compares it with.
pub struct Tenant {
    pub cluster: Cluster,
    pub session: ChurnSession,
    pub auditor: IncrementalAuditor,
    pub oracle: IncrementalAuditor,
}

impl Tenant {
    /// Preinstalls [`PREINSTALL`] apps and runs the first (full) tick.
    pub fn new(seed: u64, preinstall: usize, mutations: usize) -> Result<Tenant, String> {
        let mut tenant = Tenant {
            cluster: Cluster::new(ClusterConfig {
                nodes: 3,
                seed,
                behaviors: BehaviorRegistry::new(),
            }),
            session: ChurnSession::new(CorpusGenerator::new(
                CorpusProfile::named("baseline")
                    .expect("the baseline profile exists")
                    .with_apps(preinstall + mutations)
                    .with_seed(seed),
            )),
            auditor: IncrementalAuditor::new(),
            oracle: IncrementalAuditor::new(),
        };
        for mutation in tenant.session.preinstall(preinstall) {
            tenant.declare(&mutation);
            apply_mutation(&mut tenant.cluster, &mutation).map_err(|e| e.to_string())?;
        }
        tenant.auditor.tick(&tenant.cluster);
        Ok(tenant)
    }

    /// Tells both auditors whether an installed chart defines policies.
    fn declare(&mut self, mutation: &ChurnMutation) {
        if let ChurnMutation::Install { spec } | ChurnMutation::LabelFlip { spec, .. } = mutation {
            let defines = spec.plan.netpol.defines_policy();
            self.auditor.set_chart_defines_policies(&spec.name, defines);
            self.oracle.set_chart_defines_policies(&spec.name, defines);
        }
    }

    /// Recomputes the cluster from scratch on the oracle and applies
    /// [`gate`] to the two finding sets.
    pub fn check(&mut self) -> Result<(), String> {
        self.oracle.full_tick(&self.cluster);
        gate(self.auditor.current(), self.oracle.current())
    }

    pub fn installed(&self) -> usize {
        self.session.installed().count()
    }
}

/// The correctness gate: the incremental finding set equals a full
/// recompute of the same cluster.
pub fn gate(incremental: &[Finding], full: &[Finding]) -> Result<(), String> {
    if incremental == full {
        Ok(())
    } else {
        Err(format!(
            "incremental audit has {} findings, full recompute {}",
            incremental.len(),
            full.len()
        ))
    }
}

/// Whether op `i` (0-based) of a pass of `n` is followed by the gate.
fn checked(i: usize, n: usize) -> bool {
    (i + 1).is_multiple_of(CHECK_EVERY) || i + 1 == n
}

/// The untraced end-to-end run.
pub fn run(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let mut passes: u64 = 0;
    while e2e.busy < budget || !passes.is_multiple_of(POPULATIONS) {
        let pass = pass_seed(seed, passes);
        passes += 1;
        let Ok(mut tenant) = e2e.setup(|| Tenant::new(pass, PREINSTALL, MUTATIONS)) else {
            out.check(false);
            break;
        };
        for i in 0..MUTATIONS {
            let mutation = tenant.session.next_mutation();
            let applied = e2e.time(|| {
                tenant.declare(&mutation);
                let applied = apply_mutation(&mut tenant.cluster, &mutation);
                tenant.auditor.tick(&tenant.cluster);
                applied
            });
            out.check(applied.is_ok() && (!checked(i, MUTATIONS) || tenant.check().is_ok()));
        }
    }
    if e2e.latencies.is_empty() {
        // The first set-up failed: report it without metrics.
        return out;
    }
    e2e.finish(&mut out);
    out
}

/// Per-call samples of one traced layer.
#[derive(Default)]
struct Calls {
    us: Vec<f64>,
    allocs: u64,
}

impl Calls {
    fn record(&mut self, start: Stamp, end: Stamp) {
        self.us.push((end.wall - start.wall).as_secs_f64() * 1e6);
        self.allocs += end.allocs - start.allocs;
    }

    fn quantile(&self, q: f64) -> f64 {
        let mut v = self.us.clone();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, q)
        }
    }
}

/// The traced run: passes with the apply and the tick of every mutation
/// timed apart, each after an untraced pass (also the warm-up) that gives
/// the tracing overhead.
pub fn trace(seed: u64, budget: Duration, out: &mut Outcome) {
    let mut apply = Calls::default();
    let mut tick = Calls::default();
    let mut by_kind: BTreeMap<&'static str, Calls> = BTreeMap::new();
    let mut quiet = 0usize;
    let (mut traced, mut plain) = (Duration::ZERO, Duration::ZERO);
    let mut installed = (0, 0);
    let mut passes = 0;
    while passes == 0 || traced + plain < budget {
        let pass = pass_seed(seed, passes);
        let Ok(mut tenant) = Tenant::new(pass, PREINSTALL, MUTATIONS) else {
            out.check(false);
            return;
        };
        for _ in 0..MUTATIONS {
            let mutation = tenant.session.next_mutation();
            let start = Instant::now();
            tenant.declare(&mutation);
            let applied = apply_mutation(&mut tenant.cluster, &mutation);
            let delta = tenant.auditor.tick(&tenant.cluster);
            plain += start.elapsed();
            drop(delta);
            out.check(applied.is_ok());
        }
        drop(tenant);

        let Ok(mut tenant) = Tenant::new(pass, PREINSTALL, MUTATIONS) else {
            out.check(false);
            return;
        };
        let first = passes == 0;
        if first {
            installed.0 = tenant.installed();
        }
        for i in 0..MUTATIONS {
            let mutation = tenant.session.next_mutation();
            let t0 = Stamp::start();
            tenant.declare(&mutation);
            let applied = apply_mutation(&mut tenant.cluster, &mutation);
            let t1 = Stamp::end();
            let t2 = Stamp::start();
            let delta = tenant.auditor.tick(&tenant.cluster);
            let t3 = Stamp::end();
            traced += t3.wall - t0.wall;
            apply.record(t0, t1);
            by_kind.entry(mutation.kind()).or_default().record(t0, t1);
            tick.record(t2, t3);
            quiet += usize::from(delta.is_quiet());
            out.check(applied.is_ok() && (!checked(i, MUTATIONS) || tenant.check().is_ok()));
        }
        if first {
            installed.1 = tenant.installed();
        }
        passes += 1;
    }
    let ops = (MUTATIONS as u64 * passes) as f64;
    out.push("churn.cluster.apply_p50_us", "us", apply.quantile(0.5));
    out.push("churn.cluster.apply_p90_us", "us", apply.quantile(0.9));
    for kind in ["install", "uninstall", "label-flip", "policy-add", "scale"] {
        let p50 = by_kind.get(kind).map_or(0.0, |c| c.quantile(0.5));
        out.push(format!("churn.cluster.apply.{kind}_p50_us"), "us", p50);
    }
    out.push("churn.guard.tick_p50_us", "us", tick.quantile(0.5));
    out.push("churn.guard.tick_p90_us", "us", tick.quantile(0.9));
    out.push("churn.guard.quiet_tick_share", "ratio", quiet as f64 / ops);
    out.push(
        "churn.cluster.apply.allocs",
        "count",
        apply.allocs as f64 / ops,
    );
    out.push("churn.guard.tick.allocs", "count", tick.allocs as f64 / ops);
    out.push(
        "churn.cluster.installed_apps_start",
        "count",
        installed.0 as f64,
    );
    out.push(
        "churn.cluster.installed_apps_end",
        "count",
        installed.1 as f64,
    );
    out.push(
        "churn.tracing_overhead_share",
        "ratio",
        traced.as_secs_f64() / plain.as_secs_f64() - 1.0,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_ticks_match_the_full_recompute() {
        let mut tenant = Tenant::new(4, 10, 60).expect("preinstall applies");
        assert_eq!(tenant.installed(), 10);
        for _ in 0..60 {
            let mutation = tenant.session.next_mutation();
            tenant.declare(&mutation);
            apply_mutation(&mut tenant.cluster, &mutation).expect("churn applies");
            tenant.auditor.tick(&tenant.cluster);
        }
        assert_eq!(tenant.check(), Ok(()));
    }

    #[test]
    fn gate_rejects_a_dropped_finding() {
        let mut tenant = Tenant::new(4, 20, 0).expect("preinstall applies");
        assert_eq!(tenant.check(), Ok(()));
        let mut incremental = tenant.auditor.current().to_vec();
        assert!(!incremental.is_empty(), "a 20-app cluster has findings");
        incremental.pop();
        assert!(gate(&incremental, tenant.oracle.current()).is_err());
    }

    #[test]
    fn pass_seeds_cycle_and_differ_between_runs() {
        let run = |seed| (0..8).map(|p| pass_seed(seed, p)).collect::<Vec<_>>();
        assert_eq!(run(1), [4, 5, 6, 7, 4, 5, 6, 7]);
        assert!(run(2).iter().all(|s| !run(1).contains(s)));
    }

    #[test]
    fn gate_points_cover_the_last_tick() {
        assert!(checked(MUTATIONS - 1, MUTATIONS));
        assert!(checked(CHECK_EVERY - 1, MUTATIONS));
        assert!(!checked(0, MUTATIONS));
    }
}
