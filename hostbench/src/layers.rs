//! Timed calls into the simulator's crates, the wrapping sweep
//! executor, and the simulated-work counts a pass accumulates.
//!
//! Every call into a layer goes through a [`span`] named
//! `<layer>.<call>`, so a traced pass can split host time across the
//! crates from outside them.

use crate::trace::{self, span};
use ms_asm::AsmMode;
use ms_isa::Program;
use ms_sweep::{Executor, Job, JobKind};
use ms_workloads::Workload;
use multiscalar::{Processor, RunStats, ScalarProcessor, SimConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The machines every workload runs: the scalar baseline and 4- and
/// 8-unit multiscalar processors.
pub const MACHINES: [&str; 3] = ["scalar", "ms4", "ms8"];
const NEW_SPANS: [&str; 3] = ["core.new.scalar", "core.new.ms4", "core.new.ms8"];
pub const RUN_SPANS: [&str; 3] = ["core.run.scalar", "core.run.ms4", "core.run.ms8"];

/// Index into [`MACHINES`] of a multiscalar unit count.
///
/// # Panics
/// On a unit count the benchmark does not run.
pub fn ms_machine(units: usize) -> usize {
    match units {
        4 => 1,
        8 => 2,
        _ => panic!("the benchmark runs 4- and 8-unit machines only, not {units}"),
    }
}

/// Host-side skip-ahead telemetry of one multiscalar run:
/// `(probes, spans, skipped cycles)` from `skip_telemetry()` and
/// `(probes, parks, replayed cycles)` from `unit_park_stats()`.
pub type SkipTelemetry = [u64; 6];

/// Builds and runs a scalar-baseline processor.
pub fn run_scalar(
    prog: Program,
    cfg: SimConfig,
    req: u64,
) -> Result<(RunStats, ScalarProcessor), String> {
    let mut p = span(NEW_SPANS[0], req, || ScalarProcessor::new(prog, cfg))
        .map_err(|e| format!("scalar: {e}"))?;
    let stats = span(RUN_SPANS[0], req, || p.run()).map_err(|e| format!("scalar: {e}"))?;
    Ok((stats, p))
}

/// Builds and runs a multiscalar processor.
pub fn run_multiscalar(
    prog: Program,
    cfg: SimConfig,
    req: u64,
) -> Result<(RunStats, Processor, SkipTelemetry), String> {
    let m = ms_machine(cfg.units);
    let mut p = span(NEW_SPANS[m], req, || Processor::new(prog, cfg))
        .map_err(|e| format!("{}: {e}", MACHINES[m]))?;
    let stats = span(RUN_SPANS[m], req, || p.run()).map_err(|e| format!("{}: {e}", MACHINES[m]))?;
    let (a, b, c) = p.skip_telemetry();
    let (d, e, f) = p.unit_park_stats();
    Ok((stats, p, [a, b, c, d, e, f]))
}

/// What the wrapping executor saw of one job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub id: String,
    pub row: String,
    pub machine: usize,
    pub stats: Option<RunStats>,
    pub skip: SkipTelemetry,
    pub host_ns: u64,
}

/// The executor handed to `ms_sweep::run_jobs_with` and to
/// `ms_serve::Server::start`. It runs a job exactly as
/// `Workload::run_scalar`/`run_multiscalar` do — assemble (memoized),
/// build, run, verify memory — with a span around each call, and keeps
/// a record of every job for the pass that is running.
pub struct BenchExecutor {
    job_span: &'static str,
    /// Parent span of every job of the running sweep pass.
    parent: AtomicU64,
    /// Served requests waiting on a job, by job id: `(span, request)`.
    waiting: Mutex<HashMap<String, Vec<(u64, u64)>>>,
    records: Mutex<Vec<JobRecord>>,
}

impl BenchExecutor {
    pub fn new(job_span: &'static str) -> BenchExecutor {
        BenchExecutor {
            job_span,
            parent: AtomicU64::new(0),
            waiting: Mutex::new(HashMap::new()),
            records: Mutex::new(Vec::new()),
        }
    }

    /// Makes `span` the parent of the jobs that follow.
    pub fn set_parent(&self, span: u64) {
        self.parent.store(span, Ordering::SeqCst);
    }

    /// Registers a served request span as waiting on `job_id`, so the
    /// job's span can name it as parent. Untraced requests (span 0) are
    /// not registered.
    pub fn wait_on(&self, job_id: &str, span: u64, req: u64) {
        if span != 0 {
            self.waiting
                .lock()
                .expect("waiting map lock")
                .entry(job_id.to_string())
                .or_default()
                .push((span, req));
        }
    }

    pub fn done_waiting(&self, job_id: &str, span: u64) {
        if span != 0 {
            if let Some(v) = self.waiting.lock().expect("waiting map lock").get_mut(job_id) {
                v.retain(|&(s, _)| s != span);
            }
        }
    }

    /// Removes and returns the records of every job run so far.
    pub fn take_records(&self) -> Vec<JobRecord> {
        std::mem::take(&mut *self.records.lock().expect("record lock"))
    }

    fn parent_of(&self, job_id: &str, slot: usize) -> (u64, u64) {
        if let Some(&first) =
            self.waiting.lock().expect("waiting map lock").get(job_id).and_then(|v| v.first())
        {
            return first;
        }
        (self.parent.load(Ordering::SeqCst), slot as u64)
    }

    fn simulate(job: &Job, w: &Workload, req: u64) -> Result<(RunStats, SkipTelemetry), String> {
        let mode = match job.kind {
            JobKind::Scalar => AsmMode::Scalar,
            JobKind::Multiscalar => AsmMode::Multiscalar,
        };
        let prog = span("asm.assemble", req, || w.assemble(mode)).map_err(|e| e.to_string())?;
        let verify = |mem, prog| {
            span("workloads.verify", req, || w.verify_memory(mem, prog)).map_err(|e| e.to_string())
        };
        match job.kind {
            JobKind::Scalar => {
                let (stats, p) = run_scalar(prog, job.cfg, req)?;
                verify(p.memory(), p.program())?;
                Ok((stats, [0; 6]))
            }
            JobKind::Multiscalar => {
                let (stats, p, skip) = run_multiscalar(prog, job.cfg, req)?;
                verify(p.memory(), p.program())?;
                Ok((stats, skip))
            }
        }
    }
}

impl Executor for BenchExecutor {
    fn run(&self, job: &Job, w: &Workload, slot: usize) -> Result<RunStats, String> {
        let id = job.id();
        let (parent, req) = self.parent_of(&id, slot);
        let t0 = Instant::now();
        let out = trace::span_under(self.job_span, parent, req, || Self::simulate(job, w, req));
        let host_ns = t0.elapsed().as_nanos() as u64;
        let machine = match job.kind {
            JobKind::Scalar => 0,
            JobKind::Multiscalar => ms_machine(job.cfg.units),
        };
        let (stats, skip) = match &out {
            Ok((s, k)) => (Some(s.clone()), *k),
            Err(_) => (None, [0; 6]),
        };
        self.records.lock().expect("record lock").push(JobRecord {
            id,
            row: job.workload.to_ascii_lowercase(),
            machine,
            stats,
            skip,
            host_ns,
        });
        out.map(|(s, _)| s)
    }

    fn name(&self) -> &str {
        "hostbench"
    }
}

/// Simulated work of one pass, summed over its runs. These counts are
/// deterministic: a change that only speeds up the host must leave them
/// unchanged.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimCounts {
    pub runs: [u64; 3],
    pub cycles: [u64; 3],
    pub instructions: u64,
    pub squashed_instructions: u64,
    pub tasks_retired: u64,
    pub tasks_squashed: u64,
    pub arb_loads: u64,
    pub arb_stores: u64,
    pub arb_violations: u64,
    pub arb_full_events: u64,
    pub dcache: (u64, u64),
    pub icache: (u64, u64),
    pub predictions: u64,
    pub correct_predictions: u64,
    pub descriptor_cache: (u64, u64),
    /// Skip-ahead telemetry per workload row, plus the total under "".
    pub skip: BTreeMap<String, SkipTelemetry>,
}

impl SimCounts {
    pub fn add(&mut self, machine: usize, s: &RunStats) {
        self.runs[machine] += 1;
        self.cycles[machine] += s.cycles;
        self.instructions += s.instructions;
        self.squashed_instructions += s.squashed_instructions;
        self.tasks_retired += s.tasks_retired;
        self.tasks_squashed += s.tasks_squashed;
        self.arb_loads += s.arb.loads;
        self.arb_stores += s.arb.stores;
        self.arb_violations += s.arb.violations;
        self.arb_full_events += s.arb.full_events;
        self.dcache.0 += s.dcache.accesses;
        self.dcache.1 += s.dcache.misses;
        self.icache.0 += s.icache.accesses;
        self.icache.1 += s.icache.misses;
        self.predictions += s.predictions;
        self.correct_predictions += s.correct_predictions;
        self.descriptor_cache.0 += s.descriptor_cache.0;
        self.descriptor_cache.1 += s.descriptor_cache.1;
    }

    pub fn add_skip(&mut self, row: &str, t: &SkipTelemetry) {
        let keys = if row.is_empty() { vec![""] } else { vec!["", row] };
        for key in keys {
            let e = self.skip.entry(key.to_string()).or_default();
            for (a, b) in e.iter_mut().zip(t) {
                *a += b;
            }
        }
    }

    pub fn skip_of(&self, row: &str) -> SkipTelemetry {
        self.skip.get(row).copied().unwrap_or_default()
    }
}
