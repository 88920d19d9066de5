//! Traced workload runner: executes one named workload on the multiscalar
//! processor with the full trace layer attached and writes machine-readable
//! artifacts.
//!
//! ```text
//! cargo run --release -p ms-bench --bin mstrace -- <workload> \
//!     [--units N] [--scale test|full] [--out-dir DIR] [--jsonl] [--list]
//! ```
//!
//! Outputs, under `--out-dir` (default `mstrace-out`):
//! * `trace.json`  — Chrome `trace_event` JSON: per-unit task timelines,
//!   squash-wave instants, ARB occupancy counter. Load in Perfetto or
//!   `chrome://tracing`.
//! * `report.json` — the [`ms_trace::MetricsReport`] (event-derived
//!   counters and histograms) next to the simulator's own `RunStats`
//!   and the run's CPI stack, after cross-checking that all three agree.
//! * `trace.jsonl` (with `--jsonl`) — one JSON object per trace event.
//!
//! The run always carries a live cycle accountant, and reconciliation
//! checks the resulting `CpiStack` three ways: the conservation
//! invariant (every unit-cycle in exactly one bucket), bucket-for-bucket
//! agreement with the event-derived `MetricsReport` stall counters for
//! every event-backed reason, and zero event counts for the
//! accountant-only buckets (`no_task`, `squash_recovery` — idle units
//! emit no `UnitStall` events). Exits non-zero with the exact
//! disagreements if any counter fails to reconcile — the trace layer,
//! the aggregate statistics, and the cycle-accounting layer are three
//! independent observers of one simulation and must never silently
//! diverge.
//!
//! If the simulation itself fails (cycle bound, forward-progress
//! watchdog, broken invariant), the error is followed on stderr by the
//! full `DiagnosticSnapshot` of the machine: per-unit stall reasons and
//! histograms, ring and ARB occupancy, and the head task's age.

use ms_trace::{
    ChromeTraceSink, CpiStack, JsonLinesSink, MetricsReport, MetricsSink, StallReason, TeeSink,
};
use ms_workloads::{Scale, WorkloadError};
use multiscalar::{CpiAccountant, NoFaults, RunStats, SimConfig};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    units: usize,
    scale: Scale,
    out_dir: PathBuf,
    jsonl: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: mstrace <workload> [--units N] [--scale test|full] \
         [--out-dir DIR] [--jsonl]\n       mstrace --list"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut units = 8usize;
    let mut scale = Scale::Test;
    let mut out_dir = PathBuf::from("mstrace-out");
    let mut jsonl = false;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => {
                for w in ms_workloads::suite(Scale::Test) {
                    println!("{:<12} {}", w.name, w.description);
                }
                std::process::exit(0);
            }
            "--units" => {
                units = it.next().and_then(|v| v.parse().ok()).filter(|&n| n > 0).unwrap_or_else(
                    || {
                        eprintln!("--units needs a positive integer");
                        usage()
                    },
                );
            }
            "--scale" => {
                scale = match it.next().as_deref() {
                    Some("test") => Scale::Test,
                    Some("full") => Scale::Full,
                    other => {
                        eprintln!(
                            "--scale must be `test` or `full`, got `{}`",
                            other.unwrap_or("nothing")
                        );
                        usage();
                    }
                };
            }
            "--out-dir" => {
                out_dir = PathBuf::from(it.next().unwrap_or_else(|| {
                    eprintln!("--out-dir needs a path");
                    usage()
                }));
            }
            "--jsonl" => jsonl = true,
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
            other => {
                if workload.replace(other.to_string()).is_some() {
                    eprintln!("more than one workload named");
                    usage();
                }
            }
        }
    }
    let Some(workload) = workload else { usage() };
    Args { workload, units, scale, out_dir, jsonl }
}

use ms_sweep::statsio::stats_to_json;

/// Cross-checks event-derived counters against the simulator's own
/// aggregates. Any disagreement means an instrumentation call-site is
/// missing or double-counting.
fn reconcile(m: &MetricsReport, s: &RunStats) -> Vec<String> {
    let icache_misses = m.icache_fetches - m.icache_hits;
    let desc_misses = m.descriptor_fetches - m.descriptor_hits;
    let pairs: &[(&str, u64, u64)] = &[
        ("tasks_retired", m.tasks_retired, s.tasks_retired),
        ("tasks_squashed", m.tasks_squashed, s.tasks_squashed),
        ("control_squash_waves", m.control_squash_waves, s.control_squashes),
        ("memory_squash_waves", m.memory_squash_waves, s.memory_squashes),
        ("arb_full_squash_waves", m.arb_full_squash_waves, s.arb_squashes),
        ("arb_loads", m.arb_loads, s.arb.loads),
        ("arb_stores", m.arb_stores, s.arb.stores),
        ("arb_forwarded_loads", m.arb_forwarded_loads, s.arb.load_forwards),
        ("arb_violations", m.arb_violations, s.arb.violations),
        ("arb_full_stalls", m.arb_full_stalls, s.arb.full_events),
        ("icache_fetches", m.icache_fetches, s.icache.accesses),
        ("icache_misses", icache_misses, s.icache.misses),
        ("descriptor_fetches", m.descriptor_fetches, s.descriptor_cache.0),
        ("descriptor_misses", desc_misses, s.descriptor_cache.1),
        ("task_len_instrs.sum", m.task_len_instrs.sum(), s.instructions),
    ];
    let mut mismatches: Vec<String> = pairs
        .iter()
        .filter(|(_, ev, st)| ev != st)
        .map(|(name, ev, st)| format!("{name}: events say {ev}, RunStats says {st}"))
        .collect();

    match &s.cpi {
        None => mismatches.push("cpi: accountant produced no CpiStack".to_string()),
        Some(cpi) => mismatches.extend(reconcile_cpi(m, cpi)),
    }
    mismatches
}

/// Cross-checks the cycle-accounting stack against the event-derived
/// stall counters. Every stall reason a unit can report while holding a
/// task is event-backed — the accountant and the `UnitStall` stream
/// observe the same per-cycle classification, so their per-reason totals
/// must be identical. `no_task` and `squash_recovery` are charged only
/// by the accountant (an unoccupied unit emits no events), so their
/// event counts must be zero.
fn reconcile_cpi(m: &MetricsReport, cpi: &CpiStack) -> Vec<String> {
    let mut out = Vec::new();
    if !cpi.conservation_holds() {
        out.push(format!(
            "cpi conservation: accounted {} of {} unit-cycles",
            cpi.accounted_unit_cycles(),
            cpi.total_unit_cycles()
        ));
    }
    for r in StallReason::ALL {
        let acct = cpi.stall_cycles[r.index()];
        let ev = m.stall_cycles[r.index()];
        let accountant_only = matches!(r, StallReason::NoTask | StallReason::SquashRecovery);
        let expected_ev = if accountant_only { 0 } else { acct };
        if ev != expected_ev {
            out.push(format!(
                "cpi.{}: events say {ev}, accountant says {acct}{}",
                r.as_str(),
                if accountant_only { " (accountant-only bucket; events must be 0)" } else { "" }
            ));
        }
    }
    out
}

fn write_report(
    path: &Path,
    args: &Args,
    stats: &RunStats,
    metrics: &MetricsReport,
    mismatches: &[String],
) -> io::Result<()> {
    let mut f = BufWriter::new(File::create(path)?);
    let scale = match args.scale {
        Scale::Test => "test",
        Scale::Full => "full",
    };
    write!(
        f,
        "{{\"workload\":\"{}\",\"units\":{},\"scale\":\"{scale}\",\"reconciled\":{},",
        args.workload.to_ascii_lowercase(),
        args.units,
        mismatches.is_empty(),
    )?;
    write!(f, "\"stats\":{},", stats_to_json(stats))?;
    if let Some(cpi) = &stats.cpi {
        write!(f, "\"cpi\":{},", cpi.to_json())?;
    }
    write!(f, "\"metrics\":{}}}", metrics.to_json())?;
    f.flush()
}

fn main() -> ExitCode {
    let args = parse_args();
    let Some(w) = ms_workloads::by_name(&args.workload, args.scale) else {
        eprintln!("unknown workload `{}`; try --list", args.workload);
        return ExitCode::from(2);
    };

    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let trace_path = args.out_dir.join("trace.json");
    let report_path = args.out_dir.join("report.json");
    let jsonl_path = args.out_dir.join("trace.jsonl");

    let chrome_writer = match File::create(&trace_path) {
        Ok(f) => BufWriter::new(f),
        Err(e) => {
            eprintln!("cannot create {}: {e}", trace_path.display());
            return ExitCode::FAILURE;
        }
    };
    let jsonl_writer: Box<dyn Write> = if args.jsonl {
        match File::create(&jsonl_path) {
            Ok(f) => Box::new(BufWriter::new(f)),
            Err(e) => {
                eprintln!("cannot create {}: {e}", jsonl_path.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        Box::new(io::sink())
    };

    let sink = TeeSink(
        MetricsSink::new(),
        TeeSink(ChromeTraceSink::new(chrome_writer), JsonLinesSink::new(jsonl_writer)),
    );

    let cfg = SimConfig::multiscalar(args.units);
    let (stats, p) = match w.run_multiscalar_with(cfg, sink, NoFaults, CpiAccountant::new()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            // A timeout, stalled run or broken invariant carries the
            // machine state at the failure: print all of it.
            if let WorkloadError::Sim(sim) = &e {
                if let Some(snap) = sim.snapshot() {
                    eprintln!("{snap}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    let TeeSink(metrics_sink, TeeSink(chrome, jsonl)) = p.into_sink();
    let metrics = metrics_sink.into_report();

    let (_, chrome_err) = chrome.into_inner();
    if let Some(e) = chrome_err {
        eprintln!("writing {}: {e}", trace_path.display());
        return ExitCode::FAILURE;
    }
    let (_, jsonl_err) = jsonl.into_inner();
    if let Some(e) = jsonl_err {
        eprintln!("writing {}: {e}", jsonl_path.display());
        return ExitCode::FAILURE;
    }

    let mismatches = reconcile(&metrics, &stats);
    if let Err(e) = write_report(&report_path, &args, &stats, &metrics, &mismatches) {
        eprintln!("writing {}: {e}", report_path.display());
        return ExitCode::FAILURE;
    }

    println!(
        "{}: {} cycles, {} instructions (IPC {:.3}), {} tasks retired, {} squashed",
        w.name,
        stats.cycles,
        stats.instructions,
        stats.ipc(),
        stats.tasks_retired,
        stats.tasks_squashed
    );
    println!("wrote {}", trace_path.display());
    if args.jsonl {
        println!("wrote {}", jsonl_path.display());
    }
    println!("wrote {}", report_path.display());

    if mismatches.is_empty() {
        println!("reconciliation: event counters match RunStats and the CPI stack conserves");
        ExitCode::SUCCESS
    } else {
        eprintln!("reconciliation FAILED:");
        for m in &mismatches {
            eprintln!("  {m}");
        }
        ExitCode::FAILURE
    }
}
