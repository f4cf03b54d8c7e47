//! Result assembly: latency samples, the end-to-end metric set, and the
//! one-line JSON object every run ends with.

use crate::clock;
use std::fmt::Write as _;
use std::time::Duration;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run prints as its last line.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Records one checked op: a gate mismatch counts as a failed op.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; `null` makes such a run invalid.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String");
        }
        out.push_str("}}");
        out
    }
}

/// Latencies in a log-linear histogram: exact below 2048 ns, then 1024
/// buckets per octave (0.1% relative width). Its memory does not grow with
/// the number of samples, so a run's peak RSS does not depend on how many
/// ops fit in its time.
pub struct Histogram {
    counts: Vec<u32>,
    samples: u64,
}

const SUB_BITS: u32 = 10;
/// Octaves above the exact range: covers latencies up to 2^44 ns (~4.9 h).
const OCTAVES: usize = 34;

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (OCTAVES + 2) << SUB_BITS],
            samples: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        let bits = 64 - ns.leading_zeros();
        if bits <= SUB_BITS + 1 {
            ns as usize
        } else {
            let shift = bits - (SUB_BITS + 1);
            ((shift as usize) << SUB_BITS) + (ns >> shift) as usize
        }
    }

    /// Midpoint of bucket `index`, in ns.
    fn value(index: usize) -> f64 {
        if index < 2 << SUB_BITS {
            return index as f64;
        }
        let shift = (index >> SUB_BITS) - 1;
        let low = ((index - (shift << SUB_BITS)) as u64) << shift;
        low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
    }

    pub fn record(&mut self, latency: Duration) {
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let last = self.counts.len() - 1;
        self.counts[Self::index(ns).min(last)] += 1;
        self.samples += 1;
    }

    pub fn len(&self) -> u64 {
        self.samples
    }

    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// Nearest-rank percentile (`q` in 0..=1), in microseconds.
    pub fn percentile_us(&self, q: f64) -> f64 {
        assert!(self.samples > 0, "percentile of no samples");
        let rank = ((q * self.samples as f64).ceil() as u64).clamp(1, self.samples);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += u64::from(count);
            if seen >= rank {
                return Self::value(index) / 1e3;
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

/// Set-up repetitions per run, spread evenly over its timed work.
pub const SETUPS: u32 = 10;

/// The untraced closed loop shared by the workloads whose op count is free:
/// `setup` builds the inputs and runs one untimed, gated warm-up op; `op`
/// is timed; `gate` checks its output outside the timed region. Set-up
/// reruns after every tenth of the budget, so `setup_s` samples the
/// machine over the same span as the ops do, not only at process start.
pub fn closed_loop<S, O>(
    budget: Duration,
    mut setup: impl FnMut() -> (S, bool),
    mut op: impl FnMut(&mut S) -> O,
    mut gate: impl FnMut(&mut S, O) -> bool,
) -> Outcome {
    let mut out = Outcome::default();
    let mut e2e = EndToEnd::default();
    let every = budget / SETUPS;
    let mut state = None;
    while e2e.busy < budget {
        let due = every * (e2e.setups_s.len() as u32);
        if state.is_none() || e2e.busy >= due {
            drop(state.take());
            let (fresh, warm_ok) = e2e.setup(&mut setup);
            out.check(warm_ok);
            state = Some(fresh);
        }
        let s = state.as_mut().expect("set up above");
        let output = e2e.time(|| op(s));
        let ok = gate(s, output);
        out.check(ok);
    }
    e2e.finish(&mut out);
    out
}

/// Closed-loop measurements of the untraced run: one latency and one
/// process-CPU delta per timed op, plus every set-up repetition.
#[derive(Default)]
pub struct EndToEnd {
    pub latencies: Histogram,
    pub cpu_ns: u64,
    pub busy: Duration,
    pub setups_s: Vec<f64>,
}

impl EndToEnd {
    /// Times one op: wall latency and process CPU time.
    pub fn time<R>(&mut self, op: impl FnOnce() -> R) -> R {
        let cpu = clock::process_cpu_ns();
        let start = std::time::Instant::now();
        let out = op();
        let wall = start.elapsed();
        self.cpu_ns += clock::process_cpu_ns() - cpu;
        self.busy += wall;
        self.latencies.record(wall);
        out
    }

    /// Times one set-up repetition.
    pub fn setup<R>(&mut self, setup: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let out = setup();
        self.setups_s.push(start.elapsed().as_secs_f64());
        out
    }

    /// Appends every end-to-end metric to `out`.
    pub fn finish(&self, out: &mut Outcome) {
        let ops = self.latencies.len() as f64;
        out.push("ops_per_s", "1/s", ops / self.busy.as_secs_f64());
        out.push("cpu_us_per_op", "us", self.cpu_ns as f64 / 1e3 / ops);
        out.push("latency_p50_us", "us", self.latencies.percentile_us(0.5));
        out.push("latency_p90_us", "us", self.latencies.percentile_us(0.9));
        let rss_kb = clock::peak_rss_kb().unwrap_or(0);
        out.push("peak_rss_mb", "MB", rss_kb as f64 / 1024.0);
        out.push("setup_s", "s", median(&self.setups_s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn histogram_is_exact_then_within_a_tenth_of_a_percent() {
        for ns in [
            0u64,
            1,
            2047,
            2048,
            2049,
            4095,
            4096,
            123_456,
            9_876_543_210,
        ] {
            let i = Histogram::index(ns);
            let mid = Histogram::value(i);
            assert!(
                (mid - ns as f64).abs() <= ns as f64 / 1024.0,
                "{ns} -> {mid}"
            );
            assert!(Histogram::index(ns + 1) >= i, "monotone at {ns}");
        }
        let mut h = Histogram::default();
        for us in 1..=10u64 {
            h.record(Duration::from_nanos(us * 1000));
        }
        assert_eq!(h.len(), 10);
        assert!((h.percentile_us(0.5) - 5.0).abs() < 0.01);
        assert!((h.percentile_us(0.9) - 9.0).abs() < 0.01);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true);
        o.push("setup_s", "s", 0.25);
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.check(false);
        assert!(!o.correct());
    }
}
