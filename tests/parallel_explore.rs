//! Determinism contract of the exploration engine: for any worker count,
//! the exploration of a real problem tree is *byte-identical* to the
//! one-worker run's — same schedule count, same set of decision vectors,
//! same merged journal in the same order, and (since the observability
//! layer) the same `SimMetrics` and the same exported JSONL/Chrome trace
//! bytes for every schedule.
//!
//! The scenario is the experiment-R2 dining-philosophers deadlock-recovery
//! sim: a genuinely contested tree (thousands of schedules) whose runs
//! exercise deadlock detection, victim abort, and recovery bookkeeping —
//! the worst case for any scheme whose merged order could depend on which
//! worker got which subtree.
//!
//! The last test pins the one-worker order: under a budget cut a single
//! worker runs exactly the first `budget` schedules of the sorted journal,
//! the canonical depth-first order.

#![deny(deprecated)]

use bloom_core::liveness::classify_liveness;
use bloom_core::MechanismId;
use bloom_problems::liveness::{deadlock_recovery_sim, LiveMechanism};
use bloom_problems::rw::{self, RwVariant};
use bloom_semaphore::Semaphore;
use bloom_sim::prelude::*;
use bloom_sim::{export, Decision};
use std::collections::BTreeSet;
use std::sync::Arc;

const BUDGET: usize = 50_000;

/// FNV-1a 64: folds a whole exported document into one journal token, so
/// the byte-identity assertion covers every exported byte of every
/// schedule without holding thousands of full documents in memory.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One journal line per schedule: decision vector, victim count, verdict,
/// the run's metrics, and hashes of both export formats.
fn line(decisions: &[Decision], result: &Result<SimReport, SimError>) -> String {
    let report: &SimReport = match result {
        Ok(report) => report,
        Err(err) => &err.report,
    };
    let m = &report.metrics;
    assert!(
        !m.replay.diverged(),
        "exhaustive exploration must never diverge from its own decisions"
    );
    let jsonl = export::to_jsonl(&report.trace, m);
    let chrome = export::to_chrome_trace(&report.trace, m);
    let choices: Vec<u32> = decisions.iter().map(|d| d.chosen).collect();
    format!(
        "{choices:?} v{} {} d{} s{} p{} w{} q{} j{:016x} c{:016x}",
        report.recovered.len(),
        classify_liveness(result),
        m.dispatches,
        m.context_switches,
        m.total_parks(),
        m.total_wakes(),
        m.max_queue_depth(),
        fnv1a(jsonl.as_bytes()),
        fnv1a(chrome.as_bytes()),
    )
}

#[test]
fn parallel_matches_serial_on_recovery_tree_at_every_thread_count() {
    let mech = LiveMechanism::SemaphoreStrong;

    // One-worker baseline through the unified verb: the journal comes
    // back in lexicographic decision-vector order — the canonical order
    // the multi-worker merge reproduces.
    let config = ExploreConfig::new(BUDGET);
    let (serial_records, serial_stats) = config.run(|| deadlock_recovery_sim(mech), line);
    assert!(serial_stats.complete, "budget too small for the tree");
    let serial_journal: Vec<String> = serial_records.into_iter().map(|r| r.value).collect();
    let serial_vectors: BTreeSet<String> = serial_journal.iter().cloned().collect();

    for threads in [1, 2, 4, 8] {
        let (records, stats): (Vec<ScheduleRecord<String>>, _) = config
            .clone()
            .threads(threads)
            .run(|| deadlock_recovery_sim(mech), line);
        assert_eq!(
            stats.schedules, serial_stats.schedules,
            "{threads} threads: schedule count diverged"
        );
        assert!(stats.complete, "{threads} threads: must exhaust the tree");
        assert_eq!(
            stats.depth_schedules, serial_stats.depth_schedules,
            "{threads} threads: depth histogram diverged"
        );
        assert_eq!(
            stats.depth_pruned, serial_stats.depth_pruned,
            "{threads} threads: prune histogram diverged"
        );
        match (&stats.first_error, &serial_stats.first_error) {
            (None, None) => {}
            (Some(parallel), Some(serial)) => assert_eq!(
                parallel.choices, serial.choices,
                "{threads} threads: canonical first error diverged"
            ),
            (parallel, serial) => panic!(
                "{threads} threads: first_error presence diverged \
                 (parallel: {:?}, serial: {:?})",
                parallel.is_some(),
                serial.is_some()
            ),
        }
        let vectors: BTreeSet<String> = records.iter().map(|r| r.value.clone()).collect();
        assert_eq!(
            vectors, serial_vectors,
            "{threads} threads: decision-vector set diverged"
        );
        let merged: Vec<String> = records.into_iter().map(|r| r.value).collect();
        assert_eq!(
            merged, serial_journal,
            "{threads} threads: merged journal (incl. metrics and export \
             hashes) is not byte-identical to serial"
        );
    }
}

/// The revisit prune on the recovery tree: strictly fewer schedules than
/// the full tree, byte-identical journals (decision vectors, verdicts,
/// metrics, export hashes) across 1/2/4/8 workers, and every returned
/// [`ExploreStats`] passing its own accounting cross-check — the
/// regression net for prune-tally drift (`depth_pruned` is settled from
/// discovered-sibling capacity minus grants, not incremented ad hoc).
#[test]
fn revisit_matches_serial_and_beats_full_on_recovery_tree() {
    let mech = LiveMechanism::SemaphoreStrong;
    let (_, full_stats) = ExploreConfig::new(BUDGET).run(|| deadlock_recovery_sim(mech), |_, _| ());
    assert!(full_stats.complete);
    full_stats.assert_consistent();

    let config = ExploreConfig::new(BUDGET).mode(PruneMode::Revisit);
    let (serial_records, serial_stats) = config.run(|| deadlock_recovery_sim(mech), line);
    assert!(serial_stats.complete, "budget too small for the tree");
    serial_stats.assert_consistent();
    assert!(
        serial_stats.schedules < full_stats.schedules,
        "revisit must beat the full tree on the recovery tree: {} vs {}",
        serial_stats.schedules,
        full_stats.schedules
    );
    assert_eq!(
        serial_stats.schedules,
        serial_stats.revisits as usize + 1,
        "every schedule past the root run is a granted revisit"
    );
    // The unified verb already canonicalises by decision vector.
    let serial_journal: Vec<String> = serial_records.into_iter().map(|r| r.value).collect();

    for threads in [1, 2, 4, 8] {
        let (records, stats): (Vec<ScheduleRecord<String>>, _) = config
            .clone()
            .threads(threads)
            .run(|| deadlock_recovery_sim(mech), line);
        stats.assert_consistent();
        assert_eq!(stats.schedules, serial_stats.schedules, "{threads} threads");
        assert_eq!(stats.pruned, serial_stats.pruned, "{threads} threads");
        assert_eq!(
            stats.revisit_requests, serial_stats.revisit_requests,
            "{threads} threads: race-request tally diverged"
        );
        assert_eq!(stats.revisits, serial_stats.revisits, "{threads} threads");
        assert_eq!(stats.conflicts, serial_stats.conflicts, "{threads} threads");
        assert_eq!(
            stats.depth_pruned, serial_stats.depth_pruned,
            "{threads} threads: prune histogram diverged"
        );
        let merged: Vec<String> = records.into_iter().map(|r| r.value).collect();
        assert_eq!(
            merged, serial_journal,
            "{threads} threads: revisit journal is not byte-identical to serial"
        );
    }
}

/// The footnote-3 scenario (two writers, one reader, readers-priority) on
/// the CSP channel solution, as the F1a report row builds it.
fn footnote3_csp() -> Sim {
    let mut sim = Sim::new();
    let db = rw::make(MechanismId::Csp, RwVariant::ReadersPriority);
    for i in 0..2 {
        let db = Arc::clone(&db);
        sim.spawn(&format!("writer{i}"), move |ctx| {
            db.write(ctx, &mut || ctx.yield_now());
        });
    }
    sim.spawn("reader", move |ctx| {
        db.read(ctx, &mut || ctx.yield_now());
    });
    sim
}

/// Four dining philosophers on strong semaphores with ordered fork pickup
/// and two bare yields between the forks.
fn dining_four() -> Sim {
    let n = 4;
    let mut sim = Sim::new();
    let forks: Vec<Arc<Semaphore>> = (0..n)
        .map(|i| Arc::new(Semaphore::strong(&format!("fork{i}"), 1)))
        .collect();
    for i in 0..n {
        let (a, b) = (i.min((i + 1) % n), i.max((i + 1) % n));
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

/// FNV-1a 64 of a whole journal, one line per schedule.
fn journal_hash(records: Vec<ScheduleRecord<String>>) -> u64 {
    let lines: Vec<String> = records.into_iter().map(|r| r.value).collect();
    fnv1a(lines.join("\n").as_bytes())
}

/// One worker pops the least branch prefix first, so it runs schedules in
/// canonical depth-first order even under a budget cut. The two pinned
/// hashes are the budget-cut journals of the depth-first serial explorer
/// this engine replaced, at the benchmark's warm-up budgets: the unpruned
/// footnote-3 CSP tree at 400 schedules and the revisit-pruned dining-4
/// tree at 300. An unpruned budget-cut journal is also exactly the first
/// `budget` entries of the complete sorted journal.
#[test]
fn one_worker_budget_cut_runs_the_serial_order() {
    let (records, stats) = ExploreConfig::new(400).run(footnote3_csp, line);
    assert!(!stats.complete);
    assert_eq!(records.len(), 400);
    assert_eq!(
        journal_hash(records),
        0xe7f4_1fb0_0f69_e620,
        "unpruned footnote-3 CSP journal at budget 400"
    );

    let (records, stats) = ExploreConfig::new(300)
        .mode(PruneMode::Revisit)
        .engine(Engine::Serial)
        .run(dining_four, line);
    assert!(!stats.complete);
    assert_eq!(records.len(), 300);
    assert_eq!(
        journal_hash(records),
        0x65ef_f5f4_f844_8362,
        "revisit dining-4 journal at budget 300"
    );

    let mech = LiveMechanism::SemaphoreStrong;
    let (full, full_stats) = ExploreConfig::new(BUDGET).run(|| deadlock_recovery_sim(mech), line);
    assert!(full_stats.complete);
    for budget in [1, 100, 200, full.len() - 1] {
        let (cut, stats) = ExploreConfig::new(budget).run(|| deadlock_recovery_sim(mech), line);
        assert!(!stats.complete);
        assert_eq!(
            cut,
            full[..budget],
            "budget {budget}: the cut journal is not a prefix of the full one"
        );
    }
}
