//! Short runs of every workload through the benchmark binary.

use ms_trace::jsonv::{self, JsonValue};
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["sweep-tables", "small-programs", "serve-reuse"];

struct Run {
    stdout: String,
    result: JsonValue,
}

impl Run {
    fn metrics(&self) -> BTreeMap<String, (f64, String)> {
        let JsonValue::Obj(fields) = self.result.get("metrics").expect("metrics object") else {
            panic!("metrics is not an object")
        };
        fields
            .iter()
            .map(|(k, v)| {
                let value = v.get("value").and_then(JsonValue::as_f64).expect("value");
                let unit = v.get("unit").and_then(JsonValue::as_str).expect("unit");
                (k.clone(), (value, unit.to_string()))
            })
            .collect()
    }

    fn line(&self, prefix: &str) -> &str {
        self.stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` line:\n{}", self.stdout))
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_hostbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run hostbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} exited {}:\n{stdout}", out.status);
    let last = stdout.lines().last().expect("some output");
    let result =
        jsonv::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    Run { stdout, result }
}

/// `(name, unit)` of every metric BENCHMARK.json names under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = jsonv::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let list = doc.get(key).and_then(JsonValue::as_arr).expect("metric list");
    let s = |m: &JsonValue, k: &str| {
        m.get(k).and_then(JsonValue::as_str).expect("string field").to_string()
    };
    list.iter().map(|m| (s(m, "name"), s(m, "unit"))).collect()
}

fn assert_reports(run: &Run, workload: &str, key: &str) {
    assert_eq!(
        run.result.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{}",
        run.stdout
    );
    assert_eq!(run.result.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(run.line("check fail_frac ").starts_with("check fail_frac 0 (0/"));
    let got: Vec<(String, String)> = run.metrics().into_iter().map(|(k, (_, u))| (k, u)).collect();
    let mut want = declared(key);
    want.sort();
    assert_eq!(got, want, "{workload}: metrics differ from BENCHMARK.json {key}");
    for (name, unit) in &want {
        let line = run.line(&format!("metric {name} "));
        assert!(line.contains(&format!(" {unit} n=")), "{workload}: {line}");
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for w in WORKLOADS {
        // Seed 103 is past the recorded `small-programs` corpora, so it
        // also shows such a seed is checked against a recorded digest.
        let r = run(w, 103, false);
        assert_reports(&r, w, "end_to_end");
        assert!(r.metrics().values().all(|(v, _)| *v > 0.0), "{w}: an end-to-end metric read 0");
    }
}

/// Per-layer metrics that count simulated or scheduled work rather than
/// host time; they must repeat exactly.
fn deterministic(name: &str) -> bool {
    [
        "core.sim_cycles",
        "core.skip",
        "core.park",
        "core.task",
        "pipeline.",
        "memsys.",
        "predictor.",
        "model.",
        "asm.calls",
        "cfg.check_calls",
        "cfg.partition_calls",
        "core.new_calls",
        "core.run_calls",
        "workloads.verify_calls",
        "fuzz.validate_calls",
        "serve.requests",
        "serve.computed",
    ]
    .iter()
    .any(|p| name.starts_with(p))
}

#[test]
fn traced_runs_report_every_layer_metric_and_repeat_the_deterministic_ones() {
    for w in WORKLOADS {
        let a = run(w, 7, true);
        let b = run(w, 7, true);
        assert_reports(&a, w, "per_layer");
        let (ma, mb) = (a.metrics(), b.metrics());
        for (name, (v, _)) in ma.iter().filter(|(n, _)| deterministic(n)) {
            assert_eq!(*v, mb[name].0, "{w}: {name} differs between two runs");
        }
        assert_eq!(a.line("check digest"), b.line("check digest"));
        assert_eq!(a.line("model "), b.line("model "));
        assert!(ma["asm.calls"].0 > 0.0 && ma["core.new_calls"].0 > 0.0, "{w}: layers not reached");
        assert!(
            ma["bench.accounting_gap_pct"].0.abs() <= 1.0,
            "{w}: self times miss the traced wall"
        );
    }
}
