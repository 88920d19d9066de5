//! Fixed-seed chaos regression: a small fault-injection campaign pinned
//! to specific seeds. Guards two properties end to end:
//!
//! 1. every (workload x plan x seed) point preserves sequential semantics
//!    under injected mispredictions, ring jitter/back-pressure, ARB
//!    capacity pressure and spurious squash waves;
//! 2. the campaign is deterministic — the same seeds produce a
//!    byte-identical report, so any future divergence is a regression in
//!    the simulator or the plans, not noise.
//!
//! Seed 4 of the gcc/storm point is the one that exposed the stale
//! ring-delivery hazard this suite was built to catch (a delayed message
//! skipping past a re-assigned producer's unit); keep it pinned.

use ms_chaos::{run_campaign, Campaign, FaultPlan};
use multiscalar::trace::NullSink;
use multiscalar::NoAccounting;

#[test]
fn fixed_seed_campaign_passes_and_is_deterministic() {
    let c = Campaign {
        workloads: vec!["wc".into(), "cmp".into(), "gcc".into()],
        plans: vec!["mispredict".into(), "ring".into(), "storm".into()],
        seeds: 4,
        ..Campaign::default()
    };
    let r1 = run_campaign(&c).expect("campaign runs");
    assert_eq!(r1.failures(), 0, "oracle violation:\n{}", r1.to_json());
    let r2 = run_campaign(&c).expect("campaign runs");
    assert_eq!(r1.to_json(), r2.to_json(), "same seeds must give a byte-identical report");
}

#[test]
fn stale_ring_delivery_regression_stays_fixed() {
    // The exact point that first corrupted architectural state (word
    // count off by three in wc, then gcc's hash state under storm).
    let c = Campaign {
        workloads: vec!["gcc".into()],
        plans: vec!["storm".into()],
        seeds: 1,
        seed_base: 4,
        ..Campaign::default()
    };
    let r = run_campaign(&c).expect("campaign runs");
    assert_eq!(r.failures(), 0, "stale ring delivery resurfaced:\n{}", r.to_json());
}

/// Fault plans are cycle-indexed, so the skip-ahead scheduler hard-gates
/// itself off whenever an injector is live (DESIGN.md §13): jumping the
/// clock would skip the exact cycles a plan was going to perturb.
/// This point proves the gate — a chaotic run must be byte-identical
/// whether the config asks for skip-ahead or not.
#[test]
fn fault_plans_reproduce_identically_under_skip_ahead_config() {
    use ms_sweep::statsio::stats_to_json;
    let w = ms_workloads::by_name("gcc", ms_workloads::Scale::Test).expect("gcc exists");
    let cfg = multiscalar::SimConfig::multiscalar(4);
    let (skipped, _) = w
        .run_multiscalar_with(cfg.skip_ahead(true), NullSink, FaultPlan::storm(4), NoAccounting)
        .expect("chaotic run (skip-ahead config)");
    let (ticked, _) = w
        .run_multiscalar_with(cfg.skip_ahead(false), NullSink, FaultPlan::storm(4), NoAccounting)
        .expect("chaotic run (ticked config)");
    assert_eq!(
        stats_to_json(&skipped),
        stats_to_json(&ticked),
        "a fault plan diverged under the skip-ahead config — the injector gate is broken"
    );
}
