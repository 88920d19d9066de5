//! Reference data the benchmark checks its outputs against: the paper's
//! Table 3 speedups and the recorded stats digests.

use multiscalar::RunStats;
use std::collections::HashMap;

const TABLE3: &str = include_str!("../data/table3.tsv");
const DIGESTS: &str = include_str!("../data/digests.tsv");

/// 64-bit FNV-1a.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Adds one design point or program: its stats as
    /// `ms_sweep::statsio::stats_to_kv`, or a marker when it failed.
    pub fn stats(&mut self, s: Option<&RunStats>) {
        match s {
            Some(s) => self.write(ms_sweep::statsio::stats_to_kv(s).as_bytes()),
            None => self.write(b"failed\n"),
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn rows(text: &str) -> impl Iterator<Item = Vec<&str>> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
}

/// The paper's Table 3 1-way in-order speedups: `(program, 4 units,
/// 8 units)` in table order.
pub fn paper_table3() -> Vec<(String, f64, f64)> {
    rows(TABLE3)
        .map(|r| {
            let v = |i: usize| r[i].parse::<f64>().expect("table3.tsv holds numbers");
            (r[0].to_string(), v(1), v(2))
        })
        .collect()
}

/// The simulated Table 3 speedups, computed as `tables` computes them
/// (scalar cycles over multiscalar cycles, 1-way in-order, full scale),
/// from stats keyed by job id. `None` if any of the 30 points is
/// missing.
pub fn table3_speedups(stats: &HashMap<String, RunStats>) -> Option<Vec<(String, f64, f64)>> {
    let cycles = |program: &str, machine: &str| {
        let id = format!("{}@full/{machine}/w1/inorder", program.to_ascii_lowercase());
        stats.get(&id).map(|s| s.cycles as f64)
    };
    paper_table3()
        .into_iter()
        .map(|(p, _, _)| {
            let scalar = cycles(&p, "scalar")?;
            Some((p.clone(), scalar / cycles(&p, "ms4")?, scalar / cycles(&p, "ms8")?))
        })
        .collect()
}

/// Mean absolute relative error, in percent, of simulated speedups
/// against the paper's 20 values. Simulated, not host, time: the model's
/// distance from the paper's own simulator.
pub fn speedup_err_pct(sim: &[(String, f64, f64)]) -> f64 {
    let paper = paper_table3();
    let mut sum = 0.0;
    for ((_, p4, p8), (_, s4, s8)) in paper.iter().zip(sim) {
        sum += ((s4 - p4) / p4).abs() + ((s8 - p8) / p8).abs();
    }
    100.0 * sum / (2 * paper.len()) as f64
}

/// The recorded digest of `workload` at `seed` (`*` rows hold for every
/// seed), if there is one.
pub fn expected_digest(workload: &str, seed: u64) -> Option<u64> {
    rows(DIGESTS)
        .find(|r| r[0] == workload && (r[1] == "*" || r[1].parse() == Ok(seed)))
        .map(|r| u64::from_str_radix(r[2], 16).expect("digests.tsv holds hex digests"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_sweep::{run_jobs, SweepOptions, SweepSpec};
    use ms_workloads::Scale;

    /// The paper's `(program, 4 units, 8 units)` 1-way in-order speedups
    /// quoted in EXPERIMENTS.md's Table 3 section.
    fn experiments_md_paper_values() -> Vec<(String, f64, f64)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../EXPERIMENTS.md");
        let text = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
        let section = &text[text.find("## Table 3").expect("Table 3 section")..];
        let mut eight = Vec::new();
        for line in section.lines().filter(|l| l.starts_with("| ")) {
            let cols: Vec<&str> = line.split('|').map(str::trim).collect();
            if let Ok(p) = cols[2].parse::<f64>() {
                eight.push((cols[1].to_string(), p));
            }
            if eight.len() == 10 {
                break;
            }
        }
        let para = section.split("against the paper's").nth(1).expect("paper 4-unit values");
        let four = para
            .split(|c: char| !(c.is_ascii_digit() || c == '.'))
            .filter_map(|w| w.trim_end_matches('.').parse().ok());
        eight.into_iter().zip(four).map(|((name, e), f)| (name, f, e)).collect()
    }

    #[test]
    fn paper_values_match_experiments_md() {
        assert_eq!(paper_table3(), experiments_md_paper_values());
    }

    #[test]
    fn simulated_speedups_are_the_ones_tables_computes() {
        let spec =
            SweepSpec { widths: vec![1], orders: vec![false], ..SweepSpec::tables34(Scale::Full) };
        let report = run_jobs(spec.expand(), &SweepOptions { jobs: 2, ..Default::default() });
        let stats: HashMap<String, RunStats> =
            report.successes().map(|o| (o.job.id(), o.stats.clone())).collect();
        let sim = table3_speedups(&stats).expect("all 30 points present");
        let tables: Vec<(String, f64, f64)> = ms_bench::rows_from_sweep(&report, false)
            .expect("every Table 3 point runs")
            .into_iter()
            .map(|row| {
                let m = &row.per_width[0].multi;
                assert_eq!((row.per_width[0].width, m[0].units, m[1].units), (1, 4, 8));
                (row.name, m[0].speedup, m[1].speedup)
            })
            .collect();
        assert_eq!(sim, tables);
        let err = speedup_err_pct(&sim);
        assert!(err > 0.0 && err < 100.0, "{err}");
    }

    #[test]
    fn digests_are_recorded_for_every_workload() {
        for w in ["sweep-tables", "serve-reuse"] {
            assert!(expected_digest(w, 12345).is_some(), "{w}");
        }
        for seed in 0..crate::small::CORPORA {
            assert!(expected_digest("small-programs", seed).is_some(), "{seed}");
        }
        assert_eq!(expected_digest("small-programs", crate::small::CORPORA), None);
        for seed in [100, 12345, u64::MAX] {
            let corpus = crate::small::corpus_seed(seed);
            assert!(expected_digest("small-programs", corpus).is_some(), "{seed}");
        }
        assert_eq!(expected_digest("sweep-tables", 1), expected_digest("serve-reuse", 2));
    }
}
