//! The per-layer counts are host-independent: two traced passes of the
//! same workload and seed report identical counts, and the explorations
//! cover their pinned schedule counts.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use bloom_perfbench::{setup_round, traced_pass, Metric, Workload};

fn counts(workload: Workload, seed: u64) -> Vec<Metric> {
    let (inputs, warmup_problems) = setup_round(workload, 0);
    assert!(warmup_problems.is_empty(), "{warmup_problems:?}");
    let traced = traced_pass(&inputs, seed);
    assert!(traced.problems.is_empty(), "{:?}", traced.problems);
    assert_eq!(
        traced.batch.failed, 0,
        "{} units failed",
        traced.batch.failed
    );
    traced.count_metrics()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn explore_dfs_counts_repeat() {
    let first = counts(Workload::ExploreDfs, 1);
    // The explore workloads ignore the seed.
    assert_eq!(first, counts(Workload::ExploreDfs, 2));
    assert_eq!(value(&first, "sim.explore.schedules"), 20_358.0);
    assert_eq!(value(&first, "sim.explore.pruned"), 0.0);
}

#[test]
fn explore_revisit_counts_repeat() {
    let first = counts(Workload::ExploreRevisit, 1);
    assert_eq!(first, counts(Workload::ExploreRevisit, 1));
    assert_eq!(value(&first, "sim.explore.schedules"), 10_583.0);
    assert_eq!(value(&first, "sim.explore.revisits"), 10_582.0);
    assert_eq!(value(&first, "sim.explore.pruned"), 2_578.0);
    assert_eq!(value(&first, "sim.explore.revisit_requests"), 42_660.0);
}

#[test]
fn sample_starvation_counts_repeat_at_a_fixed_seed() {
    let first = counts(Workload::SampleStarvation, 7);
    assert_eq!(first, counts(Workload::SampleStarvation, 7));
    assert!(value(&first, "sim.sample.decisions_per_run") > 0.0);
    assert_eq!(value(&first, "sim.explore.schedules"), 0.0);
}
