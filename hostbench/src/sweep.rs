//! `sweep-tables`: the paper's full Table 3 + Table 4 design space at
//! full scale, through `ms_sweep::run_jobs_with` on two workers with the
//! result cache off. The seed only permutes the job order of each pass.

use crate::bench::{Bench, Pass, Rng, Setup};
use crate::layers::{BenchExecutor, SimCounts};
use crate::model::{self, Fnv};
use crate::trace::{self, span};
use ms_sweep::{run_jobs_with, Job, SweepCache, SweepOptions, SweepSpec};
use ms_workloads::Scale;
use std::collections::HashMap;
use std::time::Instant;

/// Worker threads: the host's two cores.
pub const WORKERS: usize = 2;

/// Expands the 120 jobs in the canonical (`SweepSpec::expand`) order
/// digests are taken in, timing the expansion: it generates the suite
/// for the workload names. Passes resolve each job's workload again
/// themselves; they reuse only the job list.
pub fn design_points() -> (Vec<Job>, f64) {
    let t0 = Instant::now();
    let points = SweepSpec::tables34(Scale::Full).expand();
    (points, t0.elapsed().as_secs_f64())
}

/// Folds one pass's per-point stats (canonical order) into the pass:
/// digest, simulated counts and the Table 3 speedups.
pub fn settle(pass: &mut Pass, points: &[Job], stats: &HashMap<String, multiscalar::RunStats>) {
    let mut digest = Fnv::default();
    for job in points {
        let s = stats.get(&job.id());
        digest.stats(s);
        if let Some(s) = s {
            let machine = match job.kind {
                ms_sweep::JobKind::Scalar => 0,
                ms_sweep::JobKind::Multiscalar => crate::layers::ms_machine(job.cfg.units),
            };
            pass.counts.add(machine, s);
        }
    }
    pass.digest = digest.finish();
    pass.speedups = model::table3_speedups(stats);
}

pub struct SweepTables {
    rng: Rng,
    points: Vec<Job>,
    exec: BenchExecutor,
}

impl SweepTables {
    pub fn new(seed: u64) -> SweepTables {
        SweepTables {
            rng: Rng::new(seed),
            points: Vec::new(),
            exec: BenchExecutor::new("sweep.job"),
        }
    }
}

impl Bench for SweepTables {
    fn setup(&mut self) -> Setup {
        let (points, suite_s) = design_points();
        self.points = points;
        Setup { total_s: suite_s, parts: vec![("workloads.suite_s", suite_s)] }
    }

    fn pass(&mut self, _index: u64) -> Pass {
        let mut jobs = self.points.clone();
        self.rng.shuffle(&mut jobs);
        let opts =
            SweepOptions { jobs: WORKERS, cache: SweepCache::disabled(), ..Default::default() };
        let t0 = Instant::now();
        let report = span("sweep.run_jobs", 0, || {
            self.exec.set_parent(trace::current());
            run_jobs_with(jobs, &opts, &self.exec)
        });
        let mut pass = Pass { wall_ns: t0.elapsed().as_nanos() as u64, ..Default::default() };

        let mut counts = SimCounts::default();
        for r in self.exec.take_records() {
            pass.latencies_ns.push(r.host_ns);
            if r.machine != 0 {
                counts.add_skip(&r.row, &r.skip);
            }
        }
        let mut stats = HashMap::new();
        for outcome in report.outcomes {
            pass.ops += 1;
            match outcome {
                Ok(o) => {
                    pass.instructions += o.stats.instructions;
                    stats.insert(o.job.id(), o.stats);
                }
                Err(f) => pass.fail(f.to_string()),
            }
        }
        pass.counts = counts;
        settle(&mut pass, &self.points, &stats);
        pass
    }
}
