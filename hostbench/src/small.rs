//! `small-programs`: a seeded corpus of generated multiscalar programs,
//! each assembled, checked, partitioned, simulated on three machines and
//! validated — one program after another on one thread.

use crate::bench::{Bench, Pass, Setup};
use crate::layers::{run_multiscalar, run_scalar};
use crate::model::Fnv;
use crate::trace::span;
use ms_asm::{assemble, AsmMode};
use ms_cfg::{check_program, partition_source, PartitionPolicy};
use ms_fuzz::diff::{data_window, validate_pair, ValidateOpts};
use ms_fuzz::gen::{generate, render, ARR_BYTES, OUT_BYTES};
use multiscalar::{RunStats, SimConfig};
use std::time::Instant;

/// Programs per corpus; one pass runs each once.
pub const CORPUS: u64 = 256;

/// Distinct corpora. A run's seed picks corpus [`corpus_seed`], so every
/// seed has a stats digest recorded in `data/digests.tsv`.
pub const CORPORA: u64 = 100;

pub fn corpus_seed(seed: u64) -> u64 {
    seed % CORPORA
}

/// Renders the corpus of `seed`: programs `seed + i` for `i < CORPUS`.
pub fn corpus(seed: u64) -> Vec<String> {
    (0..CORPUS).map(|i| render(&generate(seed.wrapping_add(i), false))).collect()
}

fn configs(opts: &ValidateOpts) -> [(&'static str, SimConfig); 2] {
    let cfg = |units| {
        SimConfig::multiscalar(units).max_cycles(opts.max_cycles).watchdog(Some(opts.watchdog))
    };
    [("ms4", cfg(4)), ("ms8", cfg(8))]
}

/// One program: its stats on the scalar, ms4 and ms8 machines and the
/// skip-ahead telemetry of the multiscalar runs.
struct Done {
    stats: [RunStats; 3],
    skip: [[u64; 6]; 2],
}

fn program(src: &str, req: u64) -> Result<Done, String> {
    let opts = ValidateOpts::default();
    let ms = span("asm.assemble", req, || assemble(src, AsmMode::Multiscalar))
        .map_err(|e| format!("assemble: {e}"))?;
    let sc = span("asm.assemble", req, || assemble(src, AsmMode::Scalar))
        .map_err(|e| format!("assemble: {e}"))?;
    let report = span("cfg.check", req, || check_program(&ms));
    if report.has_errors() {
        return Err(format!("checker rejected the program:\n{report}"));
    }
    let part = span("cfg.partition", req, || partition_source(src, &PartitionPolicy::default()))
        .map_err(|e| format!("partition: {e}"))?;

    let arr = sc.symbol("arr").ok_or("generated program has no `arr`")?;
    let len = (ARR_BYTES + OUT_BYTES) as usize;
    let scalar_cfg = SimConfig::scalar().max_cycles(opts.max_cycles);
    let (scalar, p) = run_scalar(sc.clone(), scalar_cfg, req)?;
    let want = p.memory().read_vec(arr, len);
    let mut stats = [scalar, RunStats::default(), RunStats::default()];
    let mut skip = [[0; 6]; 2];
    let configs = configs(&opts);
    for (i, (name, cfg)) in configs.iter().enumerate() {
        let (s, p, k) = run_multiscalar(ms.clone(), *cfg, req)?;
        if p.memory().read_vec(arr, len) != want {
            return Err(format!("{name}: results differ from the scalar reference"));
        }
        stats[i + 1] = s;
        skip[i] = k;
    }

    let regions = [data_window(&sc)];
    let verdict = span("fuzz.validate", req, || {
        validate_pair(&part.program, &sc, &regions, false, &opts, &configs)
    });
    if !verdict.pass {
        return Err(format!("partitioned program: {}: {}", verdict.verdict, verdict.detail));
    }
    Ok(Done { stats, skip })
}

pub struct SmallPrograms {
    seed: u64,
    corpus: Vec<String>,
}

impl SmallPrograms {
    pub fn new(seed: u64) -> SmallPrograms {
        SmallPrograms { seed: corpus_seed(seed), corpus: Vec::new() }
    }
}

impl Bench for SmallPrograms {
    fn setup(&mut self) -> Setup {
        let t0 = Instant::now();
        self.corpus = corpus(self.seed);
        let s = t0.elapsed().as_secs_f64();
        Setup { total_s: s, parts: vec![("fuzz.generate_s", s)] }
    }

    fn pass(&mut self, index: u64) -> Pass {
        let mut pass = Pass::default();
        let mut digest = Fnv::default();
        let t0 = Instant::now();
        for (i, src) in self.corpus.iter().enumerate() {
            let req = index * CORPUS + i as u64;
            let t = Instant::now();
            let out = span("bench.program", req, || program(src, req));
            pass.latencies_ns.push(t.elapsed().as_nanos() as u64);
            pass.ops += 1;
            match out {
                Ok(done) => {
                    for (m, s) in done.stats.iter().enumerate() {
                        digest.stats(Some(s));
                        pass.counts.add(m, s);
                        pass.instructions += s.instructions;
                    }
                    for k in &done.skip {
                        pass.counts.add_skip("", k);
                    }
                }
                Err(e) => {
                    digest.stats(None);
                    pass.fail(format!("program {}: {e}", self.seed.wrapping_add(i as u64)));
                }
            }
        }
        pass.wall_ns = t0.elapsed().as_nanos() as u64;
        pass.digest = digest.finish();
        pass
    }
}
