//! The measuring loop shared by every workload: repeated set-up, then
//! whole passes until the run's time is spent.

use crate::layers::SimCounts;
use crate::trace::{self, Span};
use std::time::Instant;

/// One timed set-up: its total and the layer calls it is made of.
pub struct Setup {
    pub total_s: f64,
    pub parts: Vec<(&'static str, f64)>,
}

/// What one pass over a workload's inputs produced.
#[derive(Default)]
pub struct Pass {
    /// Host time of the measured window (the throughput denominator).
    pub wall_ns: u64,
    /// Host time of the whole pass, its root span included.
    pub root_ns: u64,
    pub traced: bool,
    /// Operations attempted (design points, programs, requests).
    pub ops: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Host latency of each operation.
    pub latencies_ns: Vec<u64>,
    /// Simulated instructions retired by the simulations this pass ran.
    pub instructions: u64,
    pub digest: u64,
    pub counts: SimCounts,
    /// Table 3 speedups, for workloads that run those points.
    pub speedups: Option<Vec<(String, f64, f64)>>,
    pub spans: Vec<Span>,
    /// What a `serve-reuse` round saw of the daemon.
    pub serve: Option<ServeRound>,
}

/// One `serve-reuse` round: the daemon's counters over the round (from
/// `ServerHandle::stats`) and the latency of first and repeat requests.
#[derive(Default)]
pub struct ServeRound {
    pub requests: u64,
    pub computed: u64,
    pub cache_hits: u64,
    pub dedup_joins: u64,
    pub overloaded: u64,
    pub peak_queue_depth: u64,
    pub first_ns: Vec<u64>,
    pub repeat_ns: Vec<u64>,
}

impl Pass {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

pub trait Bench {
    /// Builds the workload's inputs (and anything it serves them with);
    /// later passes reuse what the last set-up built.
    fn setup(&mut self) -> Setup;
    /// Runs one whole pass; `index` numbers passes from 0.
    fn pass(&mut self, index: u64) -> Pass;
    /// Releases what `setup` acquired.
    fn finish(&mut self) {}
}

pub struct Measured {
    pub setups: Vec<Setup>,
    pub passes: Vec<Pass>,
}

/// How many of a run's first passes set up afresh before they run. Spread
/// over the run's start, the set-up samples see the host the passes see;
/// capping them keeps the allocator churn of set-up, and so peak memory,
/// from growing with the number of passes a faster build gets through.
pub const SETUP_PASSES: u64 = 11;

/// Runs passes until `seconds` have passed, the first [`SETUP_PASSES`]
/// each after a set-up of its own. With `traced`,
/// passes alternate untraced and traced, starting untraced, and at least
/// one of each runs.
pub fn measure(bench: &mut dyn Bench, seconds: u64, traced: bool) -> Measured {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    for index in 0.. {
        if index < SETUP_PASSES {
            setups.push(bench.setup());
        }
        let on = traced && index % 2 == 1;
        trace::enable(on);
        let t0 = Instant::now();
        let mut pass = trace::span_under("bench.pass", 0, index, || bench.pass(index));
        pass.root_ns = t0.elapsed().as_nanos() as u64;
        trace::enable(false);
        if on {
            pass.spans = trace::take();
        }
        pass.traced = on;
        passes.push(pass);
        if start.elapsed().as_secs_f64() >= seconds as f64 && (!traced || index >= 1) {
            break;
        }
    }
    bench.finish();
    Measured { setups, passes }
}

/// splitmix64 stream: the benchmark's only source of randomness, seeded
/// from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        let z = self.0;
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        ms_fuzz::mix(z)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The value at quantile `q` (nearest rank) of `sorted`.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
