//! The exhaustive schedule explorer, hands on.
//!
//! ```text
//! cargo run --release --example explore_schedules
//! ```
//!
//! The simulator records every contested scheduling decision;
//! [`ExploreConfig::run`] walks the tree of those decisions — here on one
//! worker per core, sharing one frontier of branch prefixes — running
//! *every* interleaving of a scenario. This example uses it to map the deadlock
//! space of the dining philosophers: what fraction of schedules deadlocks
//! naively, and that the two classic cures drive it to zero.

use bloom_semaphore::Semaphore;
use bloom_sim::prelude::*;
use std::sync::Arc;

/// Builds `n` philosophers; `ordered` selects the resource-ordering cure.
fn philosophers(n: usize, ordered: bool) -> impl Fn() -> Sim {
    move || {
        let mut sim = Sim::new();
        let forks: Vec<Arc<Semaphore>> = (0..n)
            .map(|i| Arc::new(Semaphore::strong(&format!("fork{i}"), 1)))
            .collect();
        for i in 0..n {
            let (first_idx, second_idx) = if ordered {
                let left = i;
                let right = (i + 1) % n;
                (left.min(right), left.max(right))
            } else {
                (i, (i + 1) % n)
            };
            let first = Arc::clone(&forks[first_idx]);
            let second = Arc::clone(&forks[second_idx]);
            sim.spawn(&format!("philosopher{i}"), move |ctx| {
                first.p(ctx);
                ctx.yield_now(); // think with one fork in hand
                second.p(ctx);
                second.v(ctx);
                first.v(ctx);
            });
        }
        sim
    }
}

fn explore(label: &str, setup: impl Fn() -> Sim + Sync) {
    let (journal, stats) = ExploreConfig::new(2_000_000)
        .engine(Engine::Parallel)
        .run(setup, |_, result| result.is_err());
    assert!(stats.complete, "{label}: exploration hit the budget cap");
    let schedules = journal.len();
    let deadlocks = journal.iter().filter(|r| r.value).count();
    let pct = 100.0 * deadlocks as f64 / schedules as f64;
    println!("  {label:<28} {schedules:>7} schedules, {deadlocks:>5} deadlock ({pct:>5.1}%)");
}

fn main() {
    println!("== Mapping the dining-philosophers deadlock space ==\n");
    println!("Every interleaving of every variant is executed; a deadlock is any");
    println!("schedule the simulator reports as one (all processes blocked).\n");

    for n in [2usize, 3, 4] {
        explore(&format!("naive, {n} philosophers"), philosophers(n, false));
    }
    println!();
    for n in [2usize, 3, 4] {
        explore(&format!("ordered, {n} philosophers"), philosophers(n, true));
    }

    println!(
        "\nThe deadlock fraction shrinks as the table grows (the circular wait needs\n\
         every philosopher holding its left fork), which is why the bug gets rarer —\n\
         not safer — on real schedulers. Resource ordering removes the cycle\n\
         entirely: zero deadlocking schedules, proven over the whole tree."
    );
}
