//! `hostbench`: host-time benchmark of the multiscalar simulator stack.
//!
//! ```text
//! hostbench --workload <sweep-tables|small-programs|serve-reuse>
//!           --seed <n> --seconds <s> --trace <0|1>
//! hostbench record-digests
//! ```
//!
//! A run prints one `metric` line per metric (name, value, unit, sample
//! count), its checks, and last a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod bench;
mod layers;
mod model;
mod report;
mod serve;
mod small;
mod sweep;
mod trace;

use bench::{measure, Bench};
use report::Metric;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["sweep-tables", "small-programs", "serve-reuse"];

const USAGE: &str = "usage: hostbench --workload <sweep-tables|small-programs|serve-reuse> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     hostbench record-digests";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn bench_for(workload: &str, seed: u64) -> Box<dyn Bench> {
    match workload {
        "sweep-tables" => Box::new(sweep::SweepTables::new(seed)),
        "small-programs" => Box::new(small::SmallPrograms::new(seed)),
        "serve-reuse" => Box::new(serve::ServeReuse::new(seed)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// JSON number for a measured value; the metrics are ratios of finite
/// measurements, so a non-finite value is a bug.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

fn run(args: &Args) {
    let mut bench = bench_for(&args.workload, args.seed);
    let measured = measure(bench.as_mut(), args.seconds, args.trace);
    let digest_seed = match args.workload.as_str() {
        "small-programs" => small::corpus_seed(args.seed),
        _ => args.seed,
    };
    let expected = model::expected_digest(&args.workload, digest_seed);
    let mut checks = report::checks(&measured, expected);
    let metrics: Vec<Metric> = if args.trace {
        let out = report::per_layer(&measured, &mut checks);
        let spans: Vec<_> = measured.passes.iter().flat_map(|p| p.spans.iter().cloned()).collect();
        let traced = measured.passes.iter().filter(|p| p.traced).count() as f64;
        for (layer, ns) in trace::profile(&spans).by_layer() {
            println!("layer {layer} self_s_per_pass {}", ns as f64 * 1e-9 / traced);
        }
        let path =
            std::path::Path::new(".hostbench-out").join(format!("spans-{}.jsonl", args.workload));
        match std::fs::create_dir_all(".hostbench-out")
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&spans)))
        {
            Ok(()) => println!("spans {} written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("hostbench: cannot write {}: {e}", path.display()),
        }
        out
    } else {
        report::end_to_end(&measured)
    };

    println!(
        "hostbench workload={} seed={} seconds={} trace={} passes={} host_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measured.passes.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for x in &metrics {
        println!("metric {} {} {} n={}", x.name, number(x.value), x.unit, x.samples);
    }
    let mut rates: Vec<f64> =
        measured.passes.iter().map(|p| p.ops as f64 / (p.wall_ns as f64 * 1e-9)).collect();
    rates.sort_by(f64::total_cmp);
    let q = |f: f64| rates[((rates.len() - 1) as f64 * f).round() as usize];
    println!(
        "passes ops_per_s min {} q1 {} median {} q3 {} max {}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    );
    match checks.speedup_err_pct {
        Some(e) => println!("model speedup_err_pct {e} % n=20"),
        None => println!("model speedup_err_pct n/a (this workload runs no Table 3 point)"),
    }
    let expected = checks.expected.map_or("none recorded".to_string(), |d| format!("{d:016x}"));
    println!("check digest {:016x} expected {expected}", checks.digest);
    println!(
        "check fail_frac {} ({}/{})",
        number(checks.failed as f64 / checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    for f in &checks.failures {
        println!("failure {}", f.replace('\n', " | "));
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, number(x.value), x.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        fields.join(", ")
    );
}

/// Prints `data/digests.tsv`: the sweep digest (which `serve-reuse`
/// shares: it computes the same 120 points each round) and the
/// `small-programs` digest of each of its [`small::CORPORA`] corpora.
fn record_digests() {
    println!("# Stats digests: FNV-1a over ms_sweep::statsio::stats_to_kv of every");
    println!("# design point (canonical sweep order) or program (scalar, ms4, ms8).");
    println!("# Regenerate with `hostbench record-digests`. Columns: workload, seed");
    println!("# (`*` = every seed), digest.");
    let mut s = sweep::SweepTables::new(0);
    s.setup();
    let d = s.pass(0).digest;
    println!("sweep-tables\t*\t{d:016x}");
    println!("serve-reuse\t*\t{d:016x}");
    for seed in 0..small::CORPORA {
        let mut b = small::SmallPrograms::new(seed);
        b.setup();
        println!("small-programs\t{seed}\t{:016x}", b.pass(0).digest);
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("record-digests") {
        record_digests();
        return ExitCode::SUCCESS;
    }
    match parse_args(&argv) {
        Ok(args) => {
            run(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
