//! Exhaustive schedule exploration of the experiment-R2 liveness
//! scenarios.
//!
//! The R2 matrix in `liveness` runs one canonical FIFO schedule per cell;
//! this suite drives [`ExploreConfig::run`] over *every* interleaving of the
//! recovery scenarios, proving the verdicts are schedule-independent for
//! the shared-memory mechanisms: dining philosophers recover from every
//! deadlock the scheduler can produce (and from the schedules that never
//! deadlock at all), the nested-monitor recovery never does worse than a
//! poisoned monitor, and every recovery is contained — victims die
//! cancelled and loud, survivors finish.

#![deny(deprecated)]

use bloom_core::liveness::{check_recovery_containment, classify_liveness, LivenessOutcome};
use bloom_problems::liveness::{deadlock_recovery_sim, LiveMechanism};
use bloom_sim::{Engine, ExploreConfig};

const BUDGET: usize = 50_000;

/// Explores every schedule of `mech`'s deadlock-recovery scenario,
/// asserting recovery containment on each run and returning one journal
/// line per schedule (decision vector, victim count, verdict) plus
/// whether the tree was exhausted within the budget.
fn explore_journal(mech: LiveMechanism, budget: usize) -> (Vec<String>, bool) {
    let (records, stats) = ExploreConfig::new(budget).engine(Engine::Parallel).run(
        || deadlock_recovery_sim(mech),
        |decisions, result| {
            let violations = check_recovery_containment(result);
            assert!(violations.is_empty(), "{mech}: {violations:?}");
            let recovered = match result {
                Ok(report) => report.recovered.len(),
                Err(err) => err.report.recovered.len(),
            };
            let choices: Vec<u32> = decisions.iter().map(|d| d.chosen).collect();
            format!("{choices:?} v{recovered} {}", classify_liveness(result))
        },
    );
    let journal = records.into_iter().map(|r| r.value).collect();
    (journal, stats.complete)
}

fn verdicts(journal: &[String]) -> Vec<LivenessOutcome> {
    journal
        .iter()
        .map(|line| match line.rsplit(' ').next().unwrap() {
            "recovers" => LivenessOutcome::Recovers,
            "recovers-after-retry" => LivenessOutcome::RecoversAfterRetry,
            "degrades" => LivenessOutcome::Degrades,
            other => {
                assert_eq!(other, "wedges");
                LivenessOutcome::Wedges
            }
        })
        .collect()
}

/// The R2 headline, proved over the whole schedule tree: *every*
/// interleaving of the dining philosophers — those that deadlock and shed
/// a victim, and those that dodge the cycle entirely — ends with the
/// table recovered. No schedule wedges, no schedule degrades, and at
/// least one schedule actually exercises the victim-abort path.
#[test]
fn dining_philosophers_recovers_after_victim_abort() {
    for mech in [LiveMechanism::SemaphoreStrong, LiveMechanism::SemaphoreWeak] {
        let (journal, complete) = explore_journal(mech, BUDGET);
        assert!(complete, "{mech}: budget of {BUDGET} schedules too small");
        assert!(
            verdicts(&journal)
                .iter()
                .all(|&v| v == LivenessOutcome::Recovers),
            "{mech}: every schedule must recover"
        );
        let aborted = journal.iter().filter(|l| !l.contains(" v0 ")).count();
        assert!(
            aborted > 0,
            "{mech}: some schedule must deadlock and abort a victim"
        );
        assert!(
            journal.iter().any(|l| l.contains(" v0 ")),
            "{mech}: some schedule must dodge the deadlock without a victim"
        );
    }
}

/// Nested-monitor recovery over every schedule: the poison price is the
/// worst case — no interleaving wedges, panics a survivor, or strands a
/// non-victim (the containment check inside the journal), under either
/// signalling discipline.
#[test]
fn nested_monitor_recovery_never_exceeds_poison() {
    for mech in [LiveMechanism::MonitorHoare, LiveMechanism::MonitorMesa] {
        let (journal, complete) = explore_journal(mech, BUDGET);
        assert!(complete, "{mech}: budget of {BUDGET} schedules too small");
        assert!(
            !verdicts(&journal).contains(&LivenessOutcome::Wedges),
            "{mech}: no schedule may wedge once recovery is on"
        );
    }
}

/// The serializer's crowd rollback works from every interleaving: each
/// schedule either avoids the cross-crowd cycle or sheds one victim whose
/// membership cleanup frees the survivor.
#[test]
fn serializer_crowd_rollback_recovers_every_schedule() {
    let (journal, complete) = explore_journal(LiveMechanism::Serializer, BUDGET);
    assert!(complete, "budget of {BUDGET} schedules too small");
    assert!(
        verdicts(&journal)
            .iter()
            .all(|&v| v == LivenessOutcome::Recovers),
        "every schedule must recover"
    );
}

/// The exploration itself is deterministic, decision vectors and verdicts
/// included.
#[test]
fn recovery_exploration_is_deterministic() {
    let first = explore_journal(LiveMechanism::SemaphoreStrong, BUDGET);
    let second = explore_journal(LiveMechanism::SemaphoreStrong, BUDGET);
    assert_eq!(first, second, "exploration diverged between runs");
}
