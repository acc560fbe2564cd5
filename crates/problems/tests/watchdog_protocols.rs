//! Differential test of the kernel's two dispatch protocols under the
//! starvation watchdog.
//!
//! Without a fault plan the kernel runs the *inline continuation*: a
//! stopping process accounts its own stop and dispatches the next process
//! itself, so the watchdog scan runs on whichever host thread stopped. A
//! fault plan keeps the *scheduler loop*, where every stop is reported to
//! the thread that called `Sim::run`. An inert plan — a kill at a
//! scheduling point no process ever reaches — selects the loop and never
//! fires, so the two runs below differ only in which thread does the
//! bookkeeping. The watchdog's flags, the trace and the decisions must
//! not notice.
//!
//! The scenario is R3's ten-client weak-semaphore rung, where the
//! watchdog flags the barged writer under many PCT schedules.

#![deny(deprecated)]

use bloom_problems::liveness::LiveMechanism;
use bloom_problems::r3::starvation_at_scale;
use bloom_problems::workload::{Arrival, Think, WorkloadSpec};
use bloom_sim::{FaultPlan, PctPolicy, SimReport};
use parking_lot::Mutex;
use std::sync::Arc;

/// Seeds compared per protocol.
const SEEDS: u64 = 64;

/// R3's ten-client rung, as the report samples it.
fn rung() -> WorkloadSpec {
    WorkloadSpec::new(0xB10)
        .clients(10)
        .ops(6)
        .arrival(Arrival::Together)
        .think(Think::None)
}

/// One PCT run of the rung; `inert_faults` selects the scheduler loop.
fn run(seed: u64, inert_faults: bool) -> SimReport {
    let mut sim = starvation_at_scale(LiveMechanism::SemaphoreWeak, &rung());
    sim.set_policy(PctPolicy::new(
        seed,
        4,
        2048,
        Arc::new(Mutex::new(Vec::new())),
    ));
    if inert_faults {
        sim.set_fault_plan(FaultPlan::new().kill("writer", u64::MAX));
    }
    match sim.run() {
        Ok(report) => report,
        Err(err) => *err.report,
    }
}

#[test]
fn inline_and_loop_protocols_agree_under_the_watchdog() {
    let mut flags = 0;
    for seed in 0..SEEDS {
        let inline = run(seed, false);
        let looped = run(seed, true);
        assert_eq!(
            inline.trace.events(),
            looped.trace.events(),
            "seed {seed}: trace"
        );
        assert_eq!(inline.decisions, looped.decisions, "seed {seed}: decisions");
        assert_eq!(inline.starvation, looped.starvation, "seed {seed}: flags");
        assert_eq!(
            format!("{:?}", inline.processes),
            format!("{:?}", looped.processes),
            "seed {seed}: processes"
        );
        assert_eq!(inline.steps, looped.steps, "seed {seed}: steps");
        assert_eq!(inline.final_time, looped.final_time, "seed {seed}: time");
        assert!(looped.killed().is_empty(), "seed {seed}: the plan fired");
        flags += inline.starvation.len();

        // The loop wakes the scheduler thread and then the next process
        // at every dispatch; the inline path hands off once per switch
        // to another process and never for a re-pick.
        let m = &inline.metrics;
        assert_eq!(looped.metrics.os_handoffs, 2 * looped.metrics.dispatches);
        assert!(
            m.os_handoffs * 10 <= m.dispatches * 3,
            "seed {seed}: {} hand-offs for {} dispatches",
            m.os_handoffs,
            m.dispatches
        );
    }
    assert!(flags > 0, "no seed raised a watchdog flag");
}
