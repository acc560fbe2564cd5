//! Exhaustive (schedule × kill-point) exploration of the experiment-R1
//! crash scenarios.
//!
//! The per-kill-point sweeps in `faults` run one canonical schedule;
//! this suite drives [`ExploreConfig::run_kill_points`] over *every*
//! schedule of the three-process readers/writers scenario for each
//! mechanism, checking that crash containment and the poison protocol
//! hold on all of them — and that the whole exploration is
//! deterministic, decision vectors included. The CSP server's request loop makes its schedule tree too
//! large to exhaust (≈465k schedules), so that mechanism gets a budgeted
//! sample instead; the shared-memory mechanisms are proved over their full
//! trees (~13k–17k schedules each).

#![deny(deprecated)]

use bloom_core::{check_crash_containment, check_poison_propagation, classify_crash, CrashOutcome};
use bloom_problems::faults::{crash_sim, CrashMechanism, CrashProblem, VICTIM};
use bloom_sim::{Engine, ExploreConfig};

const KILL_POINTS: u64 = 6;
const BUDGET: usize = 20_000;

/// Explores all schedules × kill points of `mech`'s readers/writers crash
/// scenario, asserting crash containment and the poison protocol on every
/// run. Returns one journal line per run — kill point, decision vector,
/// outcome — plus whether the whole tree was covered within `budget`.
fn explore_journal(mech: CrashMechanism, budget: usize) -> (Vec<String>, bool) {
    let problem = CrashProblem::ReadersWriters;
    let (records, stats) = ExploreConfig::new(budget)
        .engine(Engine::Parallel)
        .run_kill_points(
            VICTIM,
            KILL_POINTS,
            || crash_sim(mech, problem),
            |point, decisions, result| {
                let victims = match result {
                    Ok(report) => report.killed(),
                    Err(err) => err.report.killed(),
                };
                let violations = check_crash_containment(result, &victims);
                assert!(
                    violations.is_empty(),
                    "{mech}/{problem} kill point {point}: {violations:?}"
                );
                let trace = match result {
                    Ok(report) => &report.trace,
                    Err(err) => &err.report.trace,
                };
                let protocol = check_poison_propagation(trace);
                assert!(
                    protocol.is_empty(),
                    "{mech}/{problem} kill point {point}: {protocol:?}"
                );
                let choices: Vec<u32> = decisions.iter().map(|d| d.chosen).collect();
                format!("k{point} {choices:?} {}", classify_crash(result))
            },
        );
    let journal = records.into_iter().map(|(_, r)| r.value).collect();
    (journal, stats.complete)
}

fn outcomes(journal: &[String]) -> Vec<CrashOutcome> {
    journal
        .iter()
        .map(|line| match line.rsplit(' ').next().unwrap() {
            "contained" => CrashOutcome::Contained,
            "poisoned" => CrashOutcome::Poisoned,
            other => {
                assert_eq!(other, "wedged");
                CrashOutcome::Wedged
            }
        })
        .collect()
}

/// Every schedule of every shared-memory readers/writers crash scenario,
/// at every kill point, is contained and protocol-clean — not just the
/// canonical FIFO schedule the `outcome_sweep` matrix uses. And across
/// the full trees the mechanisms keep their R1 character: bare P/V wedges
/// somewhere, the poisoning mechanisms never wedge, and serializer crowds
/// contain every crash.
#[test]
fn all_rw_schedules_contain_crashes_at_every_kill_point() {
    for mech in [
        CrashMechanism::SemaphoreBare,
        CrashMechanism::SemaphoreLock,
        CrashMechanism::Monitor,
        CrashMechanism::Serializer,
        CrashMechanism::PathExpr,
    ] {
        let (journal, complete) = explore_journal(mech, BUDGET);
        assert!(
            complete,
            "{mech}: budget of {BUDGET} per kill point too small"
        );
        let seen = outcomes(&journal);
        match mech {
            CrashMechanism::SemaphoreBare => assert!(
                seen.contains(&CrashOutcome::Wedged),
                "some schedule must wedge bare P/V"
            ),
            CrashMechanism::Serializer => assert!(
                seen.iter().all(|&o| o == CrashOutcome::Contained),
                "serializer crowds contain every schedule's crash"
            ),
            _ => {
                assert!(
                    !seen.contains(&CrashOutcome::Wedged),
                    "{mech}: no schedule may wedge"
                );
                assert!(
                    seen.contains(&CrashOutcome::Poisoned),
                    "{mech}: some schedule must poison"
                );
            }
        }
    }
}

/// The CSP server's request loop makes exhaustive exploration infeasible;
/// a budgeted sample still proves containment and protocol cleanliness on
/// thousands of schedules per kill point (wedges show up as loud
/// deadlocks, which the containment checker accepts).
#[test]
fn csp_rw_exploration_sample_is_contained() {
    let (journal, _) = explore_journal(CrashMechanism::Csp, 2_000);
    let seen = outcomes(&journal);
    assert!(
        !seen.contains(&CrashOutcome::Poisoned),
        "channels are never poisoned"
    );
    assert!(
        seen.contains(&CrashOutcome::Wedged),
        "a writer dying mid-grant wedges the CSP server in some schedule"
    );
}

/// The exploration itself is deterministic: same scenario, same schedule
/// tree, same decision vectors, same outcomes — run to run. (One
/// representative mechanism; the tree shape is mechanism-independent
/// machinery, and `faults::sweeps_are_deterministic` covers the rest at
/// the single-schedule level.)
#[test]
fn rw_kill_point_exploration_is_deterministic() {
    let first = explore_journal(CrashMechanism::Monitor, BUDGET);
    let second = explore_journal(CrashMechanism::Monitor, BUDGET);
    assert_eq!(first, second, "exploration diverged between runs");
}
