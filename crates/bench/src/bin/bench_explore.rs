//! Exploration baselines: the one exploration engine at 1 worker vs
//! 2/4/8 workers over two real schedule trees (E1, throughput), the full
//! tree vs the race-driven revisit prune (E2/E4, schedule counts) on the
//! same trees plus a stutter-heavy dining scenario, and the kernel's OS
//! thread hand-offs per run on the pruned anomaly+background tree (a
//! deterministic cost proxy). Writes `BENCH_explore.json` at the repo root
//! (archived in EXPERIMENTS.md §E1/§E2/§E4); the CI explore job gates on
//! the hand-off ceiling.
//!
//! ```text
//! cargo run --release -p bloom-bench --bin bench_explore            # E1/E2
//! cargo run --release -p bloom-bench --bin bench_explore -- --sample --symbolic
//! ```
//!
//! With `--sample`, a further section measures the R3 *samplers* (PCT and
//! random walk) on the scaled starvation scenario: sampled schedules
//! per second at 1/2/4/8 workers, plus the deterministic violation
//! counts the throughput was bought with. With `--symbolic`, another
//! section records the E5 symbolic-vs-concrete schedule counts for the
//! two `choose_value` scenarios (the CI explore job gates
//! `symbolic <= concrete` on it). Without a flag its section is an
//! empty array, so the JSON shape is stable either way.
//!
//! Wall-clock measurement is deliberately confined to this binary — the
//! deterministic report (`report.rs`) must stay machine-independent; this
//! artifact, like the criterion benches, is a measurement and says so.
//! The prune and hand-off *counts*, by contrast, are deterministic, and
//! this binary asserts the prune's soundness while measuring: both modes
//! observe the identical behavior set, and every tree is byte-identical
//! across 1/2/4/8 workers.

use bloom_core::MechanismId;
use bloom_problems::liveness::{deadlock_recovery_sim, LiveMechanism};
use bloom_problems::r3::{starvation_at_scale, starvation_laws};
use bloom_problems::rw::{self, RwVariant};
use bloom_problems::symbolic::{compare_andler, compare_csp, SymbolicComparison};
use bloom_problems::workload::{Arrival, Think, WorkloadSpec};
use bloom_sim::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The experiment-R2 dining-philosophers recovery tree: contested forks,
/// deadlock detection, and kernel victim-abort on many schedules.
fn recovery_tree() -> Sim {
    deadlock_recovery_sim(LiveMechanism::SemaphoreStrong)
}

/// The footnote-3 anomaly tree (two writers, one reader, Figure-1 paths):
/// the F1a report section's workload.
fn anomaly_tree() -> Sim {
    let mut sim = Sim::new();
    let db = rw::make(MechanismId::PathV1, RwVariant::ReadersPriority);
    for i in 0..2 {
        let db = Arc::clone(&db);
        sim.spawn(&format!("writer{i}"), move |ctx| {
            db.write(ctx, &mut || ctx.yield_now());
        });
    }
    let db2 = Arc::clone(&db);
    sim.spawn("reader", move |ctx| {
        db2.read(ctx, &mut || ctx.yield_now());
    });
    sim
}

/// The footnote-3 tree as explored for the prune comparison: the
/// Figure-1 scenario of [`anomaly_tree`] plus one background process
/// working a private semaphore. Every quantum of the bare scenario
/// touches the single shared path machine; the background worker is the
/// minimal independent load — its semaphore quanta conflict with nothing
/// the anomaly processes touch, which only per-object footprints can see.
/// This is also the representative case: exploring a subsystem embedded
/// in a larger program.
fn anomaly_bg_tree() -> Sim {
    let mut sim = anomaly_tree();
    let side = Arc::new(bloom_semaphore::Semaphore::strong("side", 1));
    sim.spawn("background", move |ctx| {
        side.p(ctx);
        ctx.yield_now();
        side.v(ctx);
    });
    sim
}

/// Stutter-heavy dining scenario for the prune measurement: extra bare
/// yields between fork operations create empty-footprint quanta that
/// race with nothing.
fn dining_tree(n: usize) -> Sim {
    let mut sim = Sim::new();
    let forks: Vec<Arc<bloom_semaphore::Semaphore>> = (0..n)
        .map(|i| Arc::new(bloom_semaphore::Semaphore::strong(&format!("fork{i}"), 1)))
        .collect();
    for i in 0..n {
        let (a, b) = (i, (i + 1) % n);
        let (a, b) = (a.min(b), a.max(b));
        let first = Arc::clone(&forks[a]);
        let second = Arc::clone(&forks[b]);
        sim.spawn(&format!("philosopher{i}"), move |ctx| {
            first.p(ctx);
            ctx.yield_now();
            ctx.yield_now();
            second.p(ctx);
            second.v(ctx);
            first.v(ctx);
        });
    }
    sim
}

struct Measurement {
    schedules: usize,
    secs: f64,
}

/// Mean wall time of one complete exploration of `setup` at `threads`
/// workers, over `iters` explorations.
fn time_explore(iters: usize, threads: usize, setup: impl Fn() -> Sim + Sync) -> Measurement {
    let start = Instant::now();
    let mut schedules = 0;
    for _ in 0..iters {
        let (journal, stats) = ExploreConfig::new(usize::MAX)
            .threads(threads)
            .run(&setup, |_, result| result.is_err());
        assert!(stats.complete);
        std::hint::black_box(journal.iter().filter(|r| r.value).count());
        schedules = journal.len();
    }
    Measurement {
        schedules,
        secs: start.elapsed().as_secs_f64() / iters as f64,
    }
}

/// E1: one worker (the [`Engine::Serial`] default) against 2/4/8 workers.
fn bench_tree(name: &str, iters: usize, setup: impl Fn() -> Sim + Sync) -> String {
    let serial = time_explore(iters, 1, &setup);
    eprintln!(
        "{name}: 1 worker {} schedules in {:.3}s ({:.0}/s)",
        serial.schedules,
        serial.secs,
        serial.schedules as f64 / serial.secs
    );
    let mut parallel_entries = Vec::new();
    for &threads in &THREAD_COUNTS[1..] {
        let m = time_explore(iters, threads, &setup);
        assert_eq!(
            m.schedules, serial.schedules,
            "{name}: schedule count diverged at {threads} threads"
        );
        let speedup = serial.secs / m.secs;
        eprintln!(
            "{name}: {threads} threads {:.3}s ({:.0}/s, {speedup:.2}x)",
            m.secs,
            m.schedules as f64 / m.secs
        );
        parallel_entries.push(format!(
            "{{ \"threads\": {threads}, \"schedules\": {}, \"secs\": {:.6}, \
             \"schedules_per_sec\": {:.0}, \"speedup\": {speedup:.2} }}",
            m.schedules,
            m.secs,
            m.schedules as f64 / m.secs
        ));
    }
    format!(
        "{{\n      \"name\": \"{name}\",\n      \"schedules\": {},\n      \
         \"serial\": {{ \"secs\": {:.6}, \"schedules_per_sec\": {:.0} }},\n      \
         \"parallel\": [\n        {}\n      ]\n    }}",
        serial.schedules,
        serial.secs,
        serial.schedules as f64 / serial.secs,
        parallel_entries.join(",\n        ")
    )
}

/// Canonical behavior of one schedule: liveness verdict, recovery
/// victims, and the ordered user-event journal. Timestamps are excluded
/// on purpose — commuting independent quanta shifts every later
/// timestamp, and that is exactly the unobservable difference the prune
/// collapses.
fn behavior(result: &Result<SimReport, SimError>) -> String {
    let report = match result {
        Ok(report) => report,
        Err(err) => &err.report,
    };
    let events: Vec<String> = report
        .trace
        .user_events()
        .map(|(e, label, params)| format!("{}:{label}:{params:?}", e.pid))
        .collect();
    format!(
        "ok={} recovered={:?} {}",
        result.is_ok(),
        report.recovered,
        events.join(",")
    )
}

/// One exploration under `config` at `threads` workers, returning the
/// full (decision-vector, behavior) journal alongside the stats. The
/// unified verb sorts the journal by decision vector, so it is directly
/// comparable to any other worker count's.
fn explore(
    config: &ExploreConfig,
    threads: usize,
    setup: impl Fn() -> Sim + Sync,
) -> (Vec<(Vec<u32>, String)>, ExploreStats) {
    let (journal, stats) = config
        .clone()
        .threads(threads)
        .run(&setup, |_, result| behavior(result));
    assert!(stats.complete, "tree exceeds the budget");
    (
        journal.into_iter().map(|r| (r.choices, r.value)).collect(),
        stats,
    )
}

/// E2/E4: the full tree vs the race-driven revisit prune (DESIGN.md
/// §2.14) on one tree. Asserts, while counting: both modes observe the
/// identical behavior set, the prune visits strictly fewer schedules, its
/// accounting invariant holds, and both trees are byte-identical across
/// 1/2/4/8 workers.
fn compare_prunes(name: &str, setup: impl Fn() -> Sim + Sync) -> String {
    let full_config = ExploreConfig::new(usize::MAX);
    let revisit_config = full_config.clone().mode(PruneMode::Revisit);
    let (full_journal, full_stats) = explore(&full_config, 1, &setup);
    let (revisit_journal, revisit_stats) = explore(&revisit_config, 1, &setup);

    // Soundness while we measure: pruning may only skip schedules whose
    // behavior an explored schedule already exhibits.
    let behaviors = |journal: &[(Vec<u32>, String)]| -> BTreeSet<String> {
        journal.iter().map(|(_, b)| b.clone()).collect()
    };
    assert_eq!(
        behaviors(&revisit_journal),
        behaviors(&full_journal),
        "{name}: revisit prune changed the behavior set"
    );
    assert!(
        revisit_stats.schedules < full_stats.schedules,
        "{name}: revisit mode must beat the full tree ({} vs {} schedules)",
        revisit_stats.schedules,
        full_stats.schedules
    );
    revisit_stats.assert_consistent();
    assert_eq!(
        revisit_stats.schedules,
        revisit_stats.revisits as usize + 1,
        "{name}: every revisit schedule past the root run is a grant"
    );

    // Worker-count invariance: both trees merge to the one-worker journal
    // byte-for-byte at every worker count.
    for (config, serial_journal, serial_stats) in [
        (&full_config, &full_journal, &full_stats),
        (&revisit_config, &revisit_journal, &revisit_stats),
    ] {
        for &threads in &THREAD_COUNTS[1..] {
            let (journal, stats) = explore(config, threads, &setup);
            assert_eq!(
                &journal, serial_journal,
                "{name}: journal diverged at {threads} threads"
            );
            assert_eq!(stats.schedules, serial_stats.schedules);
            assert_eq!(stats.pruned, serial_stats.pruned);
            assert_eq!(stats.conflicts, serial_stats.conflicts);
            assert_eq!(stats.revisit_requests, serial_stats.revisit_requests);
            assert_eq!(stats.revisits, serial_stats.revisits);
        }
    }

    let races: u64 = revisit_stats.conflicts.values().sum();
    eprintln!(
        "pruning({name}): {} full, {} revisit ({} subtrees pruned, {} races, \
         {} requests, {} grants)",
        full_stats.schedules,
        revisit_stats.schedules,
        revisit_stats.pruned,
        races,
        revisit_stats.revisit_requests,
        revisit_stats.revisits
    );
    format!(
        "{{\n      \"tree\": \"{name}\",\n      \"full_schedules\": {},\n      \
         \"revisit_schedules\": {},\n      \"revisit_pruned\": {},\n      \
         \"revisit_races\": {},\n      \"revisit_requests\": {},\n      \
         \"revisit_grants\": {}\n    }}",
        full_stats.schedules,
        revisit_stats.schedules,
        revisit_stats.pruned,
        races,
        revisit_stats.revisit_requests,
        revisit_stats.revisits
    )
}

/// OS thread hand-offs and dispatches per run on the revisit-pruned
/// anomaly+background tree, averaged over its schedules. Both counts are
/// pure functions of the schedules ([`bloom_sim::SimMetrics::os_handoffs`]),
/// so the CI explore job can gate a ceiling on them on any host.
fn bench_handoffs() -> String {
    let counts = |threads: usize| {
        let (journal, stats) = ExploreConfig::new(usize::MAX)
            .mode(PruneMode::Revisit)
            .threads(threads)
            .run(anomaly_bg_tree, |_, result| {
                let m = match result {
                    Ok(report) => &report.metrics,
                    Err(err) => &err.report.metrics,
                };
                (m.os_handoffs, m.dispatches)
            });
        assert!(stats.complete);
        journal
    };
    let journal = counts(1);
    assert_eq!(
        journal,
        counts(4),
        "hand-off counts must not depend on the worker count"
    );
    let runs = journal.len() as f64;
    let handoffs = journal.iter().map(|r| r.value.0).sum::<u64>() as f64 / runs;
    let dispatches = journal.iter().map(|r| r.value.1).sum::<u64>() as f64 / runs;
    eprintln!(
        "handoffs(anomaly+background, revisit): {} schedules, {handoffs:.2} hand-offs \
         and {dispatches:.2} dispatches per run",
        journal.len()
    );
    format!(
        "{{ \"tree\": \"anomaly+background\", \"mode\": \"revisit\", \
         \"schedules\": {}, \"handoffs_per_run\": {handoffs:.2}, \
         \"dispatches_per_run\": {dispatches:.2} }}",
        journal.len()
    )
}

/// `--sample`: throughput of the R3 samplers on one scaled starvation
/// tree. Violation counts and the OS hand-offs and dispatches per run are
/// deterministic (seeded, worker-count independent — asserted here across
/// every worker count); the CI explore job gates a hand-off ceiling on
/// the watchdog-armed PCT row. The schedules-per-second figures are
/// measurements.
fn bench_samplers() -> Vec<String> {
    let spec = WorkloadSpec::new(0xB5A)
        .clients(24)
        .ops(4)
        .arrival(Arrival::Together)
        .think(Think::None);
    let laws = starvation_laws();
    let mut entries = Vec::new();
    for (name, strategy) in [
        (
            "pct-weak-24",
            SampleStrategy::Pct {
                change_points: 4,
                depth_hint: 2048,
            },
        ),
        ("walk-weak-24", SampleStrategy::Walk),
    ] {
        let iterations = 40;
        let mut baseline = None;
        let mut entry_parts = Vec::new();
        for &threads in &THREAD_COUNTS {
            let start = Instant::now();
            let (journal, stats) = ExploreConfig::new(0).threads(threads).sample(
                strategy,
                iterations,
                0xB5A,
                || starvation_at_scale(LiveMechanism::SemaphoreWeak, &spec),
                |_, result| {
                    let m = match result {
                        Ok(report) => &report.metrics,
                        Err(err) => &err.report.metrics,
                    };
                    ((m.os_handoffs, m.dispatches), laws.violated(result))
                },
            );
            let secs = start.elapsed().as_secs_f64();
            let sampling = stats.sampling.expect("sampler stats");
            let hits = sampling
                .violations
                .get("starvation-free")
                .copied()
                .unwrap_or(0);
            match &baseline {
                None => baseline = Some((journal, hits)),
                Some(expect) => assert_eq!(
                    &(journal, hits),
                    expect,
                    "{name}: sampled journal diverged at {threads} threads"
                ),
            }
            eprintln!(
                "sampling({name}): {threads} thread(s) {iterations} runs in {secs:.3}s \
                 ({:.0}/s), {hits} starvation hits",
                iterations as f64 / secs
            );
            entry_parts.push(format!(
                "{{ \"threads\": {threads}, \"runs\": {iterations}, \"secs\": {secs:.6}, \
                 \"runs_per_sec\": {:.0} }}",
                iterations as f64 / secs
            ));
        }
        let (journal, hits) = baseline.expect("at least one worker count");
        let runs = journal.len() as f64;
        let handoffs = journal.iter().map(|r| r.value.0).sum::<u64>() as f64 / runs;
        let dispatches = journal.iter().map(|r| r.value.1).sum::<u64>() as f64 / runs;
        eprintln!(
            "sampling({name}): {handoffs:.2} hand-offs and {dispatches:.2} dispatches per run"
        );
        entries.push(format!(
            "{{\n      \"name\": \"{name}\",\n      \"iterations\": 40,\n      \
             \"violations\": {hits},\n      \"handoffs_per_run\": {handoffs:.2},\n      \
             \"dispatches_per_run\": {dispatches:.2},\n      \"workers\": [\n        {}\n      \
             ]\n    }}",
            entry_parts.join(",\n        ")
        ));
    }
    entries
}

/// `--symbolic`: E5 — symbolic data-nondeterminism collapse vs concrete
/// enumeration on the two `choose_value` scenarios (see
/// `bloom_problems::symbolic`). All counts are deterministic; the
/// wall-clock column is the only measurement. Asserts while measuring:
/// the symbolic behavior set equals the concrete union, every symbolic
/// schedule passes its scenario check, and the symbolic schedule count
/// is strictly below concrete enumeration — the CI explore job re-gates
/// `symbolic <= concrete` from the JSON.
type SymbolicScenario = (&'static str, fn(usize) -> SymbolicComparison);

fn bench_symbolic() -> Vec<String> {
    let scenarios: [SymbolicScenario; 2] = [
        ("andler-burst", compare_andler),
        ("csp-capacity", compare_csp),
    ];
    let mut entries = Vec::new();
    for (name, run) in scenarios {
        let start = Instant::now();
        let c = run(500_000);
        let secs = start.elapsed().as_secs_f64();
        assert!(c.behaviors_match, "{name}: symbolic != concrete behaviors");
        assert!(c.clean, "{name}: a symbolic schedule failed its check");
        assert!(
            c.symbolic_schedules < c.concrete_schedules,
            "{name}: symbolic collapse bought nothing"
        );
        eprintln!(
            "symbolic({name}): domain {} -> {} concrete vs {} symbolic schedules \
             ({} class grants) in {secs:.3}s",
            c.domain, c.concrete_schedules, c.symbolic_schedules, c.sym_grants
        );
        entries.push(format!(
            "{{\n      \"tree\": \"{name}\",\n      \"domain\": {},\n      \
             \"concrete_schedules\": {},\n      \"symbolic_schedules\": {},\n      \
             \"sym_requests\": {},\n      \"sym_grants\": {},\n      \
             \"behaviors_match\": {},\n      \"clean\": {},\n      \
             \"secs\": {secs:.6}\n    }}",
            c.domain,
            c.concrete_schedules,
            c.symbolic_schedules,
            c.sym_requests,
            c.sym_grants,
            c.behaviors_match,
            c.clean
        ));
    }
    entries
}

fn main() {
    let sample = std::env::args().any(|a| a == "--sample");
    let symbolic = std::env::args().any(|a| a == "--symbolic");
    let meta = bloom_bench::hostmeta::json_fields();
    eprintln!(
        "host: {} core(s) available",
        bloom_bench::hostmeta::host_cores()
    );
    let trees = [
        bench_tree("liveness-recovery", 20, recovery_tree),
        bench_tree("anomaly", 100, anomaly_tree),
    ];
    let pruning = [
        compare_prunes("liveness-recovery", recovery_tree),
        compare_prunes("anomaly+background", anomaly_bg_tree),
        compare_prunes("dining-strong-3", || dining_tree(3)),
    ];
    let handoffs = [bench_handoffs()];
    let sampling = if sample { bench_samplers() } else { Vec::new() };
    let symbolic = if symbolic {
        bench_symbolic()
    } else {
        Vec::new()
    };

    let json = format!(
        "{{\n  {meta},\n  \"trees\": [\n    {}\n  ],\n  \
         \"pruning\": [\n    {}\n  ],\n  \"handoffs\": [\n    {}\n  ],\n  \
         \"sampling\": [{}],\n  \"symbolic\": [{}]\n}}\n",
        trees.join(",\n    "),
        pruning.join(",\n    "),
        handoffs.join(",\n    "),
        if sampling.is_empty() {
            String::new()
        } else {
            format!("\n    {}\n  ", sampling.join(",\n    "))
        },
        if symbolic.is_empty() {
            String::new()
        } else {
            format!("\n    {}\n  ", symbolic.join(",\n    "))
        }
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_explore.json");
    std::fs::write(path, &json).expect("write BENCH_explore.json");
    println!("{json}");
}
