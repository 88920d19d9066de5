//! Turns a measured run into its checks and metrics.

use crate::bench::{median_f64, quantile, Measured, Pass, ServeRound};
use crate::layers::{SimCounts, MACHINES, RUN_SPANS};
use crate::model;
use crate::trace::{self, Span};
use std::collections::HashMap;

/// The suite's rows, as per-row metric suffixes.
pub const ROWS: [&str; 10] =
    ["compress", "eqntott", "espresso", "gcc", "sc", "xlisp", "tomcatv", "cmp", "wc", "example"];

/// Largest share of the traced wall by which the layers' self times may
/// miss it.
pub const ACCOUNTING_TOLERANCE_PCT: f64 = 1.0;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many measurements the value summarizes.
    pub samples: u64,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric { name: name.into(), value, unit, samples }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Outcome of the run's checks.
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: u64,
    pub expected: Option<u64>,
    pub speedup_err_pct: Option<f64>,
}

/// Counts every operation and every per-pass digest check. A pass's
/// digest must equal `expected`; with none recorded, no pass is correct.
pub fn checks(run: &Measured, expected: Option<u64>) -> Checks {
    let digest = run.passes[0].digest;
    let mut c = Checks {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        digest,
        expected,
        speedup_err_pct: run.passes[0].speedups.as_deref().map(model::speedup_err_pct),
    };
    for (i, p) in run.passes.iter().enumerate() {
        c.attempted += p.ops + 1;
        c.failed += p.failed;
        c.failures.extend(p.failures.iter().cloned());
        match expected {
            Some(want) if p.digest == want => {}
            Some(want) => {
                c.failed += 1;
                c.failures.push(format!(
                    "pass {i}: stats digest {:016x}, expected {want:016x}",
                    p.digest
                ));
            }
            None => {
                c.failed += 1;
                c.failures.push(format!("pass {i}: no stats digest recorded to check against"));
            }
        }
    }
    c
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The end-to-end metrics of an untraced run. Rates are medians over
/// passes; latency percentiles pool every operation of the run.
pub fn end_to_end(run: &Measured) -> Vec<Metric> {
    let passes = &run.passes;
    let rate = |f: &dyn Fn(&Pass) -> f64| {
        median_f64(passes.iter().map(|p| ratio(f(p), p.wall_ns as f64 * 1e-9)).collect())
    };
    let ops: u64 = passes.iter().map(|p| p.ops).sum();
    let lat = sorted(passes.iter().flat_map(|p| p.latencies_ns.iter().copied()).collect());
    let n = lat.len() as u64;
    let np = passes.len() as u64;
    vec![
        m(
            "setup_s",
            median_f64(run.setups.iter().map(|s| s.total_s).collect()),
            "s",
            run.setups.len() as u64,
        ),
        m("peak_rss_mb", peak_rss_mb(), "MB", 1),
        m("ops_per_s", rate(&|p| p.ops as f64), "1/s", ops),
        m("op_p50_ms", quantile(&lat, 0.50) as f64 * 1e-6, "ms", n),
        m("op_p99_ms", quantile(&lat, 0.99) as f64 * 1e-6, "ms", n),
        m("sim_minstr_per_s", rate(&|p| p.instructions as f64 * 1e-6), "Minstr/s", np),
    ]
}

fn counts_metrics(c: &SimCounts, out: &mut Vec<Metric>, passes: u64) {
    let s = |name: &str, v: u64, unit| m(name, v as f64, unit, passes);
    let skip = c.skip_of("");
    out.extend([
        s("core.skip_probes", skip[0], "count"),
        s("core.skip_spans", skip[1], "count"),
        s("core.skipped_cycles", skip[2], "count"),
        m("core.skip_yield", ratio(skip[2] as f64, skip[0] as f64), "cycles/probe", passes),
        s("core.park_probes", skip[3], "count"),
        s("core.parks", skip[4], "count"),
    ]);
    for row in ROWS {
        let k = c.skip_of(row);
        out.extend([
            s(&format!("core.skip_probes.{row}"), k[0], "count"),
            s(&format!("core.skipped_cycles.{row}"), k[2], "count"),
            m(
                format!("core.skip_yield.{row}"),
                ratio(k[2] as f64, k[0] as f64),
                "cycles/probe",
                passes,
            ),
        ]);
    }
    let dispatched = c.tasks_retired + c.tasks_squashed;
    let issued = c.instructions + c.squashed_instructions;
    let f = |a: u64, b: u64| ratio(a as f64, b as f64);
    out.extend([
        s("core.tasks_squashed", c.tasks_squashed, "count"),
        s("core.tasks_dispatched", dispatched, "count"),
        m("core.task_squash_frac", f(c.tasks_squashed, dispatched), "ratio", passes),
        s("pipeline.instructions", c.instructions, "count"),
        s("pipeline.squashed_instructions", c.squashed_instructions, "count"),
        s("pipeline.issued_instructions", issued, "count"),
        m("pipeline.squashed_frac", f(c.squashed_instructions, issued), "ratio", passes),
        s("memsys.arb_loads", c.arb_loads, "count"),
        s("memsys.arb_stores", c.arb_stores, "count"),
        s("memsys.arb_violations", c.arb_violations, "count"),
        s("memsys.arb_full_events", c.arb_full_events, "count"),
        s("memsys.dcache_accesses", c.dcache.0, "count"),
        s("memsys.dcache_misses", c.dcache.1, "count"),
        m("memsys.dcache_miss_rate", f(c.dcache.1, c.dcache.0), "ratio", passes),
        s("memsys.icache_accesses", c.icache.0, "count"),
        s("memsys.icache_misses", c.icache.1, "count"),
        m("memsys.icache_miss_rate", f(c.icache.1, c.icache.0), "ratio", passes),
        s("predictor.predictions", c.predictions, "count"),
        s("predictor.correct", c.correct_predictions, "count"),
        m("predictor.accuracy", f(c.correct_predictions, c.predictions), "ratio", passes),
        s("predictor.desc_accesses", c.descriptor_cache.0, "count"),
        s("predictor.desc_hits", c.descriptor_cache.0 - c.descriptor_cache.1, "count"),
        m(
            "predictor.desc_hit_rate",
            f(c.descriptor_cache.0 - c.descriptor_cache.1, c.descriptor_cache.0),
            "ratio",
            passes,
        ),
    ]);
}

/// Per traced pass: the time from the first sweep worker going idle to
/// the end of `run_jobs_with`.
fn sweep_tail_ns(spans: &[Span]) -> u64 {
    let Some(run) = spans.iter().find(|s| s.name == "sweep.run_jobs") else { return 0 };
    let mut last_end: HashMap<u32, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent == run.id) {
        let e = last_end.entry(s.thread).or_insert(0);
        *e = (*e).max(s.end_ns);
    }
    last_end.values().min().map_or(0, |&first_idle| run.end_ns.saturating_sub(first_idle))
}

/// Median over served requests that led a computation of the request's
/// latency minus the computation: protocol, queueing and cache store.
fn serve_overhead_ns(spans: &[Span]) -> (u64, u64) {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let v = sorted(
        spans
            .iter()
            .filter(|s| s.name == "serve.compute")
            .filter_map(|c| by_id.get(&c.parent).map(|r| r.dur_ns().saturating_sub(c.dur_ns())))
            .collect(),
    );
    (quantile(&v, 0.5), v.len() as u64)
}

/// The per-layer metrics of a traced run, from its traced passes. Times
/// and counts are per pass; set-up parts are medians over set-ups.
pub fn per_layer(run: &Measured, checks: &mut Checks) -> Vec<Metric> {
    let traced: Vec<&Pass> = run.passes.iter().filter(|p| p.traced).collect();
    let t = traced.len() as f64;
    let tn = traced.len() as u64;
    let spans: Vec<Span> = traced.iter().flat_map(|p| p.spans.iter().cloned()).collect();
    let prof = trace::profile(&spans);
    let per_pass_s = |ns: u64| ns as f64 * 1e-9 / t;
    let mut out = Vec::new();

    for part in ["workloads.suite_s", "fuzz.generate_s", "serve.start_s"] {
        let v: Vec<f64> = run
            .setups
            .iter()
            .flat_map(|s| s.parts.iter().filter(|(n, _)| *n == part).map(|(_, v)| *v))
            .collect();
        let n = v.len() as u64;
        out.push(m(part, median_f64(v), "s", n));
    }

    let asm = prof.prefixed("asm.");
    let check = prof.get("cfg.check");
    let part = prof.get("cfg.partition");
    let new = prof.prefixed("core.new.");
    out.extend([
        m("asm.calls", asm.calls as f64 / t, "count", asm.calls),
        m("asm.busy_s", per_pass_s(asm.self_ns), "s", asm.calls),
        m("asm.us_per_call", ratio(asm.self_ns as f64 * 1e-3, asm.calls as f64), "us", asm.calls),
        m("cfg.check_calls", check.calls as f64 / t, "count", check.calls),
        m("cfg.check_busy_s", per_pass_s(check.self_ns), "s", check.calls),
        m("cfg.partition_calls", part.calls as f64 / t, "count", part.calls),
        m("cfg.partition_busy_s", per_pass_s(part.self_ns), "s", part.calls),
        m("core.new_calls", new.calls as f64 / t, "count", new.calls),
        m(
            "core.new_us_per_call",
            ratio(new.self_ns as f64 * 1e-3, new.calls as f64),
            "us",
            new.calls,
        ),
    ]);

    // Simulated counts repeat exactly from pass to pass (the digest
    // checks it), so one pass's counts stand for every pass.
    let counts = &run.passes[0].counts;
    let mut busy_ns = [0u64; 3];
    for (i, name) in MACHINES.iter().enumerate() {
        let r = prof.get(RUN_SPANS[i]);
        busy_ns[i] = r.self_ns;
        out.extend([
            m(format!("core.run_calls.{name}"), r.calls as f64 / t, "count", r.calls),
            m(format!("core.run_busy_s.{name}"), per_pass_s(r.self_ns), "s", r.calls),
            m(format!("core.sim_cycles.{name}"), counts.cycles[i] as f64, "count", tn),
        ]);
    }
    let ns_per =
        |i: usize, units: f64| ratio(busy_ns[i] as f64 / t, counts.cycles[i] as f64 * units);
    out.extend([
        m("core.scalar_ns_per_cycle", ns_per(0, 1.0), "ns", tn),
        m("core.ns_per_sim_cycle.ms4", ns_per(1, 1.0), "ns", tn),
        m("core.ns_per_sim_cycle.ms8", ns_per(2, 1.0), "ns", tn),
        m("core.ns_per_unit_cycle.ms4", ns_per(1, 4.0), "ns", tn),
        m("core.ns_per_unit_cycle.ms8", ns_per(2, 8.0), "ns", tn),
    ]);
    counts_metrics(counts, &mut out, tn);
    out.push(m("model.speedup_err_pct", checks.speedup_err_pct.unwrap_or(0.0), "%", 20));

    let verify = prof.get("workloads.verify");
    let validate = prof.get("fuzz.validate");
    let job = prof.get("sweep.job");
    let sweep_run = prof.get("sweep.run_jobs");
    let capacity_ns = sweep_run.total_ns * crate::sweep::WORKERS as u64;
    let tail: u64 = traced.iter().map(|p| sweep_tail_ns(&p.spans)).sum();
    out.extend([
        m("workloads.verify_calls", verify.calls as f64 / t, "count", verify.calls),
        m("workloads.verify_busy_s", per_pass_s(verify.self_ns), "s", verify.calls),
        m("fuzz.validate_calls", validate.calls as f64 / t, "count", validate.calls),
        m("fuzz.validate_busy_s", per_pass_s(validate.self_ns), "s", validate.calls),
        m("sweep.job_busy_s", per_pass_s(job.total_ns), "s", job.calls),
        m("sweep.worker_capacity_s", per_pass_s(capacity_ns), "s", sweep_run.calls),
        m(
            "sweep.worker_util",
            ratio(job.total_ns as f64, capacity_ns as f64),
            "ratio",
            sweep_run.calls,
        ),
        m("sweep.tail_s", per_pass_s(tail), "s", sweep_run.calls),
        m("sweep.self_s", per_pass_s(prof.prefixed("sweep.").self_ns), "s", sweep_run.calls),
    ]);

    let rounds: Vec<&ServeRound> = traced.iter().filter_map(|p| p.serve.as_ref()).collect();
    let per_round = |f: fn(&ServeRound) -> u64| rounds.iter().map(|r| f(r)).sum::<u64>() as f64 / t;
    let requests = per_round(|r| r.requests);
    let reused = per_round(|r| r.cache_hits + r.dedup_joins);
    let peak = rounds.iter().map(|r| r.peak_queue_depth).max().unwrap_or(0);
    out.extend([
        m("serve.requests", requests, "count", tn),
        m("serve.computed", per_round(|r| r.computed), "count", tn),
        m("serve.cache_hits", per_round(|r| r.cache_hits), "count", tn),
        m("serve.dedup_joins", per_round(|r| r.dedup_joins), "count", tn),
        m("serve.overloaded", per_round(|r| r.overloaded), "count", tn),
        m("serve.peak_queue_depth", peak as f64, "count", tn),
    ]);
    let first = sorted(rounds.iter().flat_map(|r| r.first_ns.iter().copied()).collect());
    let repeat = sorted(rounds.iter().flat_map(|r| r.repeat_ns.iter().copied()).collect());
    let (overhead, led) = serve_overhead_ns(&spans);
    let compute = prof.get("serve.compute");
    out.extend([
        m("serve.reused", reused, "count", tn),
        m("serve.reuse_ratio", ratio(reused, requests), "ratio", tn),
        m("serve.compute_busy_s", per_pass_s(compute.total_ns), "s", compute.calls),
        m("serve.first_p50_ms", quantile(&first, 0.5) as f64 * 1e-6, "ms", first.len() as u64),
        m("serve.first_samples", first.len() as f64 / t, "count", first.len() as u64),
        m("serve.repeat_p50_ms", quantile(&repeat, 0.5) as f64 * 1e-6, "ms", repeat.len() as u64),
        m("serve.repeat_samples", repeat.len() as f64 / t, "count", repeat.len() as u64),
        m("serve.overhead_ms", overhead as f64 * 1e-6, "ms", led),
        m("serve.self_s", per_pass_s(prof.prefixed("serve.").self_ns), "s", tn),
    ]);

    // Accounting: self times add up to the roots' time plus the time
    // parallel children overlap; the roots are the traced passes.
    let wall_ns: u64 = traced.iter().map(|p| p.root_ns).sum();
    let accounted = prof.self_sum_ns() as f64 - prof.overlap_ns as f64;
    let gap_pct = 100.0 * ratio(accounted - wall_ns as f64, wall_ns as f64);
    checks.attempted += 1;
    if gap_pct.abs() > ACCOUNTING_TOLERANCE_PCT {
        checks.failed += 1;
        checks.failures.push(format!(
            "layer self times minus overlap miss the traced wall by {gap_pct:.3}% (tolerance {ACCOUNTING_TOLERANCE_PCT}%)"
        ));
    }
    let walls = |on: bool| {
        median_f64(run.passes.iter().filter(|p| p.traced == on).map(|p| p.wall_ns as f64).collect())
    };
    out.extend([
        m("bench.passes", t, "count", tn),
        m("bench.self_s", per_pass_s(prof.prefixed("bench.").self_ns), "s", tn),
        m("bench.traced_wall_s", per_pass_s(wall_ns), "s", tn),
        m("bench.self_sum_s", per_pass_s(prof.self_sum_ns()), "s", tn),
        m("bench.overlap_s", per_pass_s(prof.overlap_ns), "s", tn),
        m("bench.accounting_gap_pct", gap_pct, "%", tn),
        m(
            "bench.trace_overhead_pct",
            100.0 * (ratio(walls(true), walls(false)) - 1.0),
            "%",
            run.passes.len() as u64,
        ),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_pass(digest: u64) -> Measured {
        Measured { setups: Vec::new(), passes: vec![Pass { digest, ops: 1, ..Default::default() }] }
    }

    #[test]
    fn a_digest_that_differs_from_the_expected_one_is_a_failure() {
        let c = checks(&one_pass(0x1234), Some(0x5678));
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert!(c.failures[0].contains("expected 0000000000005678"), "{:?}", c.failures);
        // With no recorded digest a run cannot read correct.
        assert_eq!(checks(&one_pass(0x1234), None).failed, 1);
        assert_eq!(checks(&one_pass(0x1234), Some(0x1234)).failed, 0);
    }
}
