//! The exploration engine: a work-sharing frontier of branch prefixes.
//!
//! [`crate::ExploreConfig::run`] drives this engine with one or more
//! workers (`std::thread::scope` — no extra dependencies, no unsafe; a
//! single worker runs on the calling thread). The tree is embarrassingly
//! parallel at prefix boundaries:
//!
//! * A shared frontier (a `BTreeSet<Vec<u32>>`) holds unexplored branch
//!   prefixes, seeded with the empty prefix (the canonical first
//!   schedule), and is popped in lexicographic order.
//! * A worker pops a prefix, runs the scenario under a
//!   [`crate::ReplayPolicy`] for it (decisions past the prefix take the
//!   canonical choice 0), and schedules sibling branches
//!   `decisions[..i] ⧺ [c]` of the decision points the run *discovered*
//!   (indices at or beyond the prefix length): every sibling when pruning
//!   is off, each leaf generated exactly once by the prefix that ends at
//!   its last non-zero choice; only the race-requested ones in
//!   [`crate::PruneMode::Revisit`].
//! * The run's outcome is mapped to a journal entry on the spot (outcomes
//!   are never buffered whole — a 300k-schedule tree of full
//!   [`SimReport`]s would not fit in memory) and appended to the worker's
//!   own journal.
//!
//! Determinism is load-bearing in this repository, so the merge is
//! canonical: per-worker journals are concatenated and sorted by the full
//! decision vector of each schedule. Schedule counts, journals, and any
//! report text derived from them are byte-identical for every worker
//! count (verified by the `parallel_explore` integration test).
//!
//! Every unvisited schedule descends from a frontier entry that is
//! lexicographically no greater than it, so a single worker popping the
//! least prefix executes schedules in canonical depth-first order. The
//! budget is deterministic too: workers claim budget slots from an atomic
//! counter before running, so exactly `min(budget, tree)` schedules
//! execute. Under an exhausted budget, one worker runs exactly the first
//! `budget` schedules of the sorted journal; with more workers *which*
//! schedules run is scheduling-dependent, so only `schedules` and
//! `complete` (not the journal) are stable then.

use crate::error::SimError;
use crate::explore::{bump_depth, merge_conflicts, ExploreConfig, ExploreError, ExploreStats};
use crate::kernel::SimReport;
use crate::policy::ReplayPolicy;
use crate::revisit::plan_revisits;
use crate::sim::Sim;
use crate::trace::Decision;
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One schedule's entry in a merged exploration journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleRecord<T> {
    /// The schedule's decision vector (its replay coordinates).
    pub choices: Vec<u32>,
    /// Whatever the map closure produced for this schedule.
    pub value: T,
}

/// Shared frontier of unexplored branch prefixes.
struct Frontier {
    /// Popped least-first, which is canonical depth-first order.
    pending: BTreeSet<Vec<u32>>,
    /// Workers currently expanding a popped prefix (may push more work).
    active: usize,
    /// Raised on budget exhaustion or worker panic: drain and exit.
    stop: bool,
}

struct Coordinator {
    frontier: Mutex<Frontier>,
    available: Condvar,
}

/// Decrements `active` when an expansion ends — including by panic, where
/// it also raises `stop` so sibling workers exit instead of waiting forever
/// on a frontier that will never drain.
struct ActiveGuard<'a> {
    sync: &'a Coordinator,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        let mut f = self.sync.frontier.lock();
        f.active -= 1;
        if std::thread::panicking() {
            f.stop = true;
        }
        self.sync.available.notify_all();
    }
}

/// Mutable exploration state shared by the workers. Everything here is
/// merge-order-independent (atomic adds, elementwise histogram adds, a
/// lexicographic minimum), which is what keeps the final [`ExploreStats`]
/// byte-identical across worker counts.
struct SharedStats {
    claimed: AtomicUsize,
    budget_hit: AtomicBool,
    first_error: Mutex<Option<ExploreError>>,
    /// Revisit-mode grant state; `None` when pruning is off.
    revisit: Option<Mutex<RevisitShared>>,
}

/// The shared fixed-point state of a revisit-mode exploration: which
/// branch prefixes were ever scheduled (so a request is granted exactly
/// once, no matter which worker makes it first), plus the per-depth
/// sibling-capacity and grant histograms whose difference is the prune
/// histogram. A worker registers a run's discovered nodes and grants its
/// requests under one lock acquisition, *before* pushing the granted
/// branches to the frontier — so any run that can request a branch at a
/// node always finds the node's canonical marker already present.
struct RevisitShared {
    scheduled: BTreeSet<Vec<u32>>,
    potential: Vec<usize>,
    granted: Vec<usize>,
    /// Value-sibling capacity and grants of discovered `Data`-kind
    /// decisions, kept apart from the race-revisit pair so the symbolic
    /// collapse is separately reportable (see
    /// [`ExploreStats::sym_grants`]).
    data_potential: Vec<usize>,
    data_granted: Vec<usize>,
    /// Per-object race tally (see [`ExploreStats::conflicts`]).
    conflicts: BTreeMap<String, u64>,
    /// Total race-derived branch requests (including already-scheduled
    /// duplicates); a per-run pure function, so the sum is
    /// order-independent. See [`ExploreStats::revisit_requests`].
    revisit_requests: u64,
    /// Total symbolic value requests (including duplicates); also a
    /// per-run pure function. See [`ExploreStats::sym_requests`].
    sym_requests: u64,
}

impl SharedStats {
    /// Keeps the failure whose decision vector is least in canonical
    /// depth-first order — the same winner regardless of which worker
    /// found which failure first.
    fn offer_error(&self, candidate: ExploreError) {
        let mut slot = self.first_error.lock();
        match &*slot {
            Some(cur) if cur.choices <= candidate.choices => {}
            _ => *slot = Some(candidate),
        }
    }
}

/// Explores the scenario produced by `setup` under `config`, mapping
/// every schedule to a journal entry via `map`, and returns the journal
/// merged in canonical order together with the stats.
pub(crate) fn explore<S, M, T>(
    config: &ExploreConfig,
    setup: S,
    map: M,
) -> (Vec<ScheduleRecord<T>>, ExploreStats)
where
    S: Fn() -> Sim + Sync,
    M: Fn(&[Decision], &Result<SimReport, SimError>) -> T + Sync,
    T: Send,
{
    let sync = Coordinator {
        frontier: Mutex::new(Frontier {
            pending: BTreeSet::from([Vec::new()]),
            active: 0,
            stop: false,
        }),
        available: Condvar::new(),
    };
    let shared = SharedStats {
        claimed: AtomicUsize::new(0),
        budget_hit: AtomicBool::new(false),
        first_error: Mutex::new(None),
        revisit: config.mode.is_some().then(|| {
            Mutex::new(RevisitShared {
                scheduled: BTreeSet::from([Vec::new()]),
                potential: Vec::new(),
                granted: Vec::new(),
                data_potential: Vec::new(),
                data_granted: Vec::new(),
                conflicts: BTreeMap::new(),
                revisit_requests: 0,
                sym_requests: 0,
            })
        }),
    };
    let worker = || self::worker(config, &sync, &shared, &setup, &map);
    let mut journal: Vec<ScheduleRecord<T>> = match config.threads.unwrap_or(1) {
        1 => worker(),
        threads => {
            let journals: Mutex<Vec<ScheduleRecord<T>>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let journal = worker();
                        journals.lock().extend(journal);
                    });
                }
            });
            journals.into_inner()
        }
    };
    journal.sort_unstable_by(|a, b| a.choices.cmp(&b.choices));
    // The schedule depth histogram is derived from the merged journal
    // (one record per executed schedule), so it is canonical by
    // construction.
    let mut depth_schedules = Vec::new();
    for r in &journal {
        bump_depth(&mut depth_schedules, r.choices.len(), 1);
    }
    // The prune histogram is settled now: every sibling of every
    // discovered node that was never granted is a pruned branch. (A
    // granted-but-unexecuted branch under a budget cut is neither
    // executed nor pruned, exactly like an unvisited frontier entry.)
    let mut stats = ExploreStats {
        schedules: journal.len(),
        complete: !shared.budget_hit.load(Ordering::Relaxed),
        depth_schedules,
        first_error: shared.first_error.into_inner(),
        ..ExploreStats::default()
    };
    if let Some(revisit) = shared.revisit {
        let rs = revisit.into_inner();
        for (potential, granted, total) in [
            (&rs.potential, &rs.granted, &mut stats.revisits),
            (&rs.data_potential, &rs.data_granted, &mut stats.sym_grants),
        ] {
            for (depth, &cap) in potential.iter().enumerate() {
                let taken = granted.get(depth).copied().unwrap_or(0);
                debug_assert!(taken <= cap, "granted more siblings than exist");
                if cap > taken {
                    bump_depth(&mut stats.depth_pruned, depth, cap - taken);
                }
                *total += taken as u64;
            }
        }
        stats.pruned = stats.depth_pruned.iter().sum();
        stats.conflicts = rs.conflicts;
        stats.revisit_requests = rs.revisit_requests;
        stats.sym_requests = rs.sym_requests;
    }
    #[cfg(debug_assertions)]
    stats.assert_consistent();
    (journal, stats)
}

/// One worker: pop a prefix, run it, schedule its siblings, journal the
/// outcome; exit when the frontier drains or `stop` rises.
fn worker<S, M, T>(
    config: &ExploreConfig,
    sync: &Coordinator,
    shared: &SharedStats,
    setup: &S,
    map: &M,
) -> Vec<ScheduleRecord<T>>
where
    S: Fn() -> Sim + Sync,
    M: Fn(&[Decision], &Result<SimReport, SimError>) -> T + Sync,
    T: Send,
{
    let mut journal = Vec::new();
    loop {
        // Pop a prefix, or exit once no work exists and nobody is
        // expanding (an active worker may still push more).
        let prefix = {
            let mut f = sync.frontier.lock();
            loop {
                if f.stop {
                    return journal;
                }
                if let Some(p) = f.pending.pop_first() {
                    f.active += 1;
                    break p;
                }
                if f.active == 0 {
                    return journal;
                }
                sync.available.wait(&mut f);
            }
        };
        let _guard = ActiveGuard { sync };
        // Claim a budget slot *before* running: exactly
        // min(budget, tree) schedules execute, deterministically.
        let claim = shared.claimed.fetch_add(1, Ordering::Relaxed);
        if claim >= config.budget {
            shared.budget_hit.store(true, Ordering::Relaxed);
            let mut f = sync.frontier.lock();
            f.stop = true;
            sync.available.notify_all();
            return journal;
        }
        config.progress.tick(claim + 1);

        let mut sim = setup();
        sim.set_policy(ReplayPolicy::prefix(prefix.clone()));
        if config.mode.is_some() {
            // The race analysis needs the footprint log; unpruned runs
            // keep the scenario's own setting.
            sim.set_record_quanta(true);
        }
        let result = sim.run();
        let report = match &result {
            Ok(report) => report,
            Err(err) => &err.report,
        };
        let decisions = &report.decisions[..];
        debug_assert!(
            !report.metrics.replay.diverged(),
            "replay diverged ({:?}) during exploration: scenario is nondeterministic",
            report.metrics.replay
        );
        for (i, want) in prefix.iter().enumerate() {
            assert!(
                decisions.get(i).map(|d| d.chosen) == Some(*want),
                "replay prefix diverged at decision {i}: scenario is nondeterministic"
            );
        }
        let choices: Vec<u32> = decisions.iter().map(|d| d.chosen).collect();
        debug_assert!(
            choices[prefix.len()..].iter().all(|&c| c == 0),
            "past-prefix replay takes choice 0"
        );
        if let Err(err) = &result {
            shared.offer_error(ExploreError {
                choices: choices.clone(),
                error: err.clone(),
            });
        }
        let fresh = match &shared.revisit {
            Some(revisit) => grant_revisits(revisit, report, prefix.len(), &choices),
            None => {
                // Every sibling of every decision point this run
                // discovered. Points below the prefix length were expanded
                // by the run that discovered the prefix.
                let mut fresh = Vec::new();
                for (i, d) in decisions.iter().enumerate().skip(prefix.len()) {
                    for c in 1..d.arity {
                        let mut branch = choices[..i].to_vec();
                        branch.push(c);
                        fresh.push(branch);
                    }
                }
                fresh
            }
        };
        if !fresh.is_empty() {
            let mut f = sync.frontier.lock();
            f.pending.extend(fresh);
            sync.available.notify_all();
        }
        journal.push(ScheduleRecord {
            value: map(decisions, &result),
            choices,
        });
    }
}

/// Race-driven expansion of one executed run: analyse it for reversible
/// races, register the nodes it discovered, and return the fresh
/// race-derived and symbolic value requests. Grants happen under one lock
/// acquisition, before the frontier push, so a node's canonical marker is
/// always visible before any descendant run can request choice 0 there.
fn grant_revisits(
    revisit: &Mutex<RevisitShared>,
    report: &SimReport,
    prefix_len: usize,
    choices: &[u32],
) -> Vec<Vec<u32>> {
    let decisions = &report.decisions;
    let mut races = BTreeMap::new();
    let plan = plan_revisits(decisions, &report.quanta, prefix_len, &mut races);
    let mut fresh = Vec::new();
    let mut rs = revisit.lock();
    merge_conflicts(&mut rs.conflicts, &races);
    rs.revisit_requests += plan.requests.len() as u64;
    for (i, d) in decisions.iter().enumerate().skip(prefix_len) {
        if d.arity > 1 {
            if d.is_sched() {
                bump_depth(&mut rs.potential, i, d.arity as usize - 1);
            } else {
                bump_depth(&mut rs.data_potential, i, d.arity as usize - 1);
            }
            rs.scheduled.insert(choices[..=i].to_vec());
        }
    }
    for (i, c) in plan.requests {
        let mut branch = choices[..i].to_vec();
        branch.push(c);
        if rs.scheduled.insert(branch.clone()) {
            bump_depth(&mut rs.granted, i, 1);
            fresh.push(branch);
        }
    }
    // Symbolic collapse over the run's data decisions: each
    // [`crate::DataChoice`] partitions its domain by the constraint
    // outcomes this run recorded, and one representative of every class
    // the chosen value does not cover is requested. Constraints recorded
    // *after* the branch point can split classes at earlier slots, so
    // every slot is re-examined on every run — requests stay a pure
    // function of the run, and grants are fresh insertions into
    // `scheduled`, preserving the order-independent fixed point.
    let data_decisions = decisions.iter().enumerate().filter(|(_, d)| d.is_data());
    debug_assert_eq!(
        data_decisions.clone().count(),
        report.data_choices.len(),
        "data decision/choice drift"
    );
    for ((i, _), data) in data_decisions.zip(&report.data_choices) {
        let requests = data.collapse_requests();
        rs.sym_requests += requests.len() as u64;
        for c in requests {
            let mut branch = choices[..i].to_vec();
            branch.push(c);
            if rs.scheduled.insert(branch.clone()) {
                bump_depth(&mut rs.data_granted, i, 1);
                fresh.push(branch);
            }
        }
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PruneMode;
    use std::sync::Arc;

    fn three_emitters() -> Sim {
        let mut sim = Sim::new();
        for i in 0..3 {
            sim.spawn(&format!("p{i}"), move |ctx| ctx.emit("go", &[i]));
        }
        sim
    }

    fn trace_of(result: &Result<SimReport, SimError>) -> Vec<String> {
        result
            .as_ref()
            .map(|report| {
                report
                    .trace
                    .user_events()
                    .map(|(_, l, _)| l.to_string())
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default()
    }

    #[test]
    fn matches_serial_explorer_for_every_thread_count() {
        let order = |_: &[Decision], result: &Result<SimReport, SimError>| {
            let Ok(report) = result else {
                return Vec::new();
            };
            report
                .trace
                .user_events()
                .map(|(_, _, params)| params[0])
                .collect::<Vec<i64>>()
        };
        let (serial, serial_stats) = ExploreConfig::new(10_000).run(three_emitters, order);
        assert_eq!(serial.len(), 6, "3! = 6 schedules");
        for threads in [1, 2, 4, 8] {
            let (journal, stats) = ExploreConfig::new(10_000)
                .threads(threads)
                .run(three_emitters, order);
            assert_eq!(stats.schedules, serial_stats.schedules);
            assert!(stats.complete);
            assert_eq!(stats.depth_schedules, serial_stats.depth_schedules);
            assert_eq!(stats.depth_pruned, serial_stats.depth_pruned);
            assert!(stats.first_error.is_none());
            assert_eq!(journal, serial, "journal must match serial visit order");
        }
    }

    #[test]
    fn budget_claims_are_deterministic() {
        for threads in [1, 2, 4, 8] {
            let (journal, stats) = ExploreConfig::new(2)
                .threads(threads)
                .run(three_emitters, |_, _| ());
            assert_eq!(stats.schedules, 2);
            assert_eq!(journal.len(), 2);
            assert!(!stats.complete);
        }
    }

    #[test]
    fn exact_budget_reports_complete() {
        // 3 one-emit processes: 3! = 6 schedules exactly.
        let (_, stats) = ExploreConfig::new(6)
            .threads(4)
            .run(three_emitters, |_, _| ());
        assert_eq!(stats.schedules, 6);
        assert!(stats.complete, "budget == tree size must be complete");
    }

    #[test]
    fn pruning_matches_serial_and_preserves_behaviors() {
        let scenario = || {
            let mut sim = Sim::new();
            sim.spawn("a", |ctx| {
                ctx.emit("a1", &[]);
                ctx.yield_now();
                ctx.yield_now();
                ctx.emit("a2", &[]);
            });
            sim.spawn("b", |ctx| {
                ctx.emit("b1", &[]);
                ctx.yield_now();
                ctx.emit("b2", &[]);
            });
            sim
        };
        let pruned = ExploreConfig::new(100_000).mode(PruneMode::Revisit);
        let (serial_journal, serial_stats) = pruned.run(scenario, |_, r| trace_of(r));
        assert!(serial_stats.pruned > 0, "scenario must actually prune");
        let (full_journal, _) = ExploreConfig::new(100_000).run(scenario, |_, r| trace_of(r));
        let behaviors = |journal: &[ScheduleRecord<Vec<String>>]| {
            journal
                .iter()
                .map(|r| r.value.clone())
                .collect::<BTreeSet<_>>()
        };
        assert_eq!(
            behaviors(&serial_journal),
            behaviors(&full_journal),
            "prune must be behavior-preserving"
        );
        for threads in [1, 4] {
            let (journal, stats) = pruned
                .clone()
                .threads(threads)
                .run(scenario, |_, r| trace_of(r));
            assert_eq!(stats.schedules, serial_stats.schedules);
            assert_eq!(stats.pruned, serial_stats.pruned);
            assert_eq!(stats.conflicts, serial_stats.conflicts);
            assert_eq!(journal, serial_journal, "pruned trees must be identical");
        }
    }

    /// The revisit mode's executed set is a fixed point of the race
    /// analysis, so every worker count must produce the identical journal
    /// and identical stats.
    #[test]
    fn revisit_matches_serial_for_every_thread_count() {
        let scenario = || {
            let mut sim = Sim::new();
            let shared = Arc::new(crate::waitq::WaitQueue::new("shared"));
            let qa = Arc::new(crate::waitq::WaitQueue::new("qa"));
            let s1 = Arc::clone(&shared);
            sim.spawn("a", move |ctx| {
                qa.wake_one(ctx);
                ctx.yield_now();
                s1.wake_one(ctx);
                ctx.emit("a", &[]);
            });
            let s2 = Arc::clone(&shared);
            sim.spawn("b", move |ctx| {
                s2.wake_one(ctx);
                ctx.yield_now();
                ctx.emit("b", &[]);
            });
            sim
        };
        let revisit = ExploreConfig::new(100_000).mode(PruneMode::Revisit);
        let (serial_journal, serial_stats) = revisit.run(scenario, |_, r| trace_of(r));
        assert!(serial_stats.revisits > 0, "the shared queue must race");
        for threads in [1, 2, 4, 8] {
            let (journal, stats) = revisit
                .clone()
                .threads(threads)
                .run(scenario, |_, r| trace_of(r));
            assert_eq!(stats.schedules, serial_stats.schedules);
            assert_eq!(stats.pruned, serial_stats.pruned);
            assert_eq!(stats.depth_pruned, serial_stats.depth_pruned);
            assert_eq!(stats.conflicts, serial_stats.conflicts);
            assert_eq!(stats.revisit_requests, serial_stats.revisit_requests);
            assert_eq!(stats.revisits, serial_stats.revisits);
            assert_eq!(journal, serial_journal, "revisit trees must be identical");
        }
    }

    /// A schedule-dependent deadlock must not panic the workers; the
    /// canonical-first failure must be the same at every worker count.
    #[test]
    fn first_error_matches_serial_for_every_thread_count() {
        let scenario = || {
            let mut sim = Sim::new();
            let q = Arc::new(crate::waitq::WaitQueue::new("gate"));
            let q2 = Arc::clone(&q);
            sim.spawn("waiter", move |ctx| q2.wait(ctx));
            let q3 = Arc::clone(&q);
            sim.spawn("waker", move |ctx| {
                q3.wake_one(ctx);
            });
            sim
        };
        let (_, serial_stats) = ExploreConfig::new(1000).run(scenario, |_, _| ());
        let serial_first = serial_stats.first_error.expect("some schedule deadlocks");
        for threads in [1, 2, 4, 8] {
            let (journal, stats) = ExploreConfig::new(1000)
                .threads(threads)
                .run(scenario, |_, result| result.is_ok());
            assert!(stats.complete, "failures must not cut the walk short");
            assert_eq!(stats.schedules, serial_stats.schedules);
            assert!(journal.iter().any(|r| !r.value), "failures are journaled");
            let first = stats.first_error.expect("failure is propagated");
            assert_eq!(first.choices, serial_first.choices);
            assert!(first.error.is_deadlock());
        }
    }

    /// Progress milestones are a pure function of the tree for exhaustive
    /// explorations: same set for every worker count, never wall-clock.
    #[test]
    fn progress_milestones_are_deterministic() {
        for threads in [1, 2, 4, 8] {
            let ticks = Arc::new(Mutex::new(Vec::new()));
            let ticks2 = Arc::clone(&ticks);
            let (_, stats) = ExploreConfig::new(10_000)
                .threads(threads)
                .progress(2, move |n| ticks2.lock().push(n))
                .run(three_emitters, |_, _| ());
            assert!(stats.complete);
            assert_eq!(stats.schedules, 6, "3! = 6 schedules");
            let mut ticks = ticks.lock().clone();
            ticks.sort_unstable();
            assert_eq!(ticks, vec![2, 4, 6], "milestones fire every 2 claims");
        }
    }
}
