//! Layer accounting for the traced run: every call into a layer's public
//! function is wrapped in a span that records wall time, thread CPU time
//! and allocation calls. Spans never nest, so a span's self time is its
//! whole duration, and the share of the enclosing interval no span covers
//! is reported as `unattributed_share`. The tracer's own clock reads fall
//! between spans; their cost is measured once and kept out of that share.

use crate::clock::Stamp;
use crate::metrics::Outcome;
use std::time::{Duration, Instant};

#[derive(Default, Clone, Copy)]
struct LayerStat {
    wall: Duration,
    cpu_ns: u64,
    allocs: u64,
}

/// Per-layer totals over a traced interval.
pub struct Tracer {
    names: &'static [&'static str],
    stats: Vec<LayerStat>,
    /// Wall time of every [`Tracer::interval`].
    total: Duration,
    /// Spans run so far.
    spans: u32,
    /// Wall time one span spends outside itself on its own clock reads.
    clock_cost: Duration,
}

/// Measures [`Tracer::clock_cost`] as the mean over empty spans.
fn clock_cost_per_span() -> Duration {
    const SPANS: u32 = 4096;
    let mut inside = Duration::ZERO;
    let start = Instant::now();
    for _ in 0..SPANS {
        let s = Stamp::start();
        inside += Stamp::end().wall - s.wall;
    }
    start.elapsed().saturating_sub(inside) / SPANS
}

impl Tracer {
    pub fn new(names: &'static [&'static str]) -> Self {
        Tracer {
            names,
            stats: vec![LayerStat::default(); names.len()],
            total: Duration::ZERO,
            spans: 0,
            clock_cost: clock_cost_per_span(),
        }
    }

    /// Runs `f` as one call into `layer` (an index into the names).
    pub fn span<R>(&mut self, layer: usize, f: impl FnOnce() -> R) -> R {
        let start = Stamp::start();
        let out = f();
        let end = Stamp::end();
        let stat = &mut self.stats[layer];
        stat.wall += end.wall - start.wall;
        stat.cpu_ns += end.cpu_ns - start.cpu_ns;
        stat.allocs += end.allocs - start.allocs;
        self.spans += 1;
        out
    }

    /// Times `f` as traced end-to-end work: spans inside it are expected to
    /// cover all of it.
    pub fn interval<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = Instant::now();
        let out = f(self);
        self.total += start.elapsed();
        out
    }

    /// Wall time of the traced intervals.
    pub fn total(&self) -> Duration {
        self.total
    }

    fn attributed(&self) -> Duration {
        self.stats.iter().map(|s| s.wall).sum()
    }

    /// The tracer's own clock reads between spans.
    fn clock_time(&self) -> Duration {
        self.clock_cost * self.spans
    }

    /// Share of traced wall time, less the tracer's own clock reads, that
    /// no layer span covers.
    pub fn unattributed_share(&self) -> f64 {
        let traced = self.total.as_secs_f64() - self.clock_time().as_secs_f64();
        (traced - self.attributed().as_secs_f64()) / traced
    }

    /// Share of the layers' wall time spent on the calling thread's CPU.
    /// Its window encloses the wall window and part of the clock reads, so
    /// it reads slightly above 1 on a thread that never waits.
    pub fn cpu_share(&self) -> f64 {
        let cpu: u64 = self.stats.iter().map(|s| s.cpu_ns).sum();
        cpu as f64 / 1e9 / self.attributed().as_secs_f64()
    }

    /// Emits `<prefix>.<layer>_us` and `<prefix>.<layer>.allocs` per
    /// `per` units of work (apps, charts, ops).
    pub fn emit(&self, out: &mut Outcome, prefix: &str, per: f64) {
        for (name, stat) in self.names.iter().zip(&self.stats) {
            out.push(
                format!("{prefix}.{name}_us"),
                "us",
                stat.wall.as_secs_f64() * 1e6 / per,
            );
            out.push(
                format!("{prefix}.{name}.allocs"),
                "count",
                stat.allocs as f64 / per,
            );
        }
        out.push(
            format!("{prefix}.unattributed_share"),
            "ratio",
            self.unattributed_share(),
        );
        out.push(format!("{prefix}.cpu_share"), "ratio", self.cpu_share());
        out.push(
            format!("{prefix}.tracer_clock_share"),
            "ratio",
            self.clock_time().as_secs_f64() / self.total.as_secs_f64(),
        );
    }
}
