//! Single-CPU benchmark of the bloom-eval exploration engines.
//!
//! Three workloads drive the public exploration API serially
//! (`ExploreConfig::run` on [`Engine::Serial`], `ExploreConfig::sample`
//! with one worker) and time it from outside. A *unit* is one executed
//! schedule (`explore-*`) or one sampled run (`sample-starvation`); its
//! time runs from the end of the previous unit's visitor call to the end
//! of its own, so it covers building the scenario, running it, the
//! explorer's own analysis and the output check.
//!
//! * [`timed_pass`] repeats whole batches (a full exploration, or a batch
//!   of sampled runs) until its time is up, records every unit's time,
//!   and times the set-up rounds it spreads over the pass.
//! * [`traced_pass`] runs one fixed batch with spans around the setup
//!   closure and the check, and replays each unit's decision vector right
//!   after the unit to time the simulator's run alone. It also gathers
//!   the deterministic counts: [`Counts`] from each run's `SimMetrics`,
//!   and the batch's `ExploreStats`.
//!
//! Every unit is checked ([`Inputs::check`]) and every full batch is
//! checked against its pinned schedule counts ([`Inputs::run_batch`]).

pub mod hist;
pub mod host;
pub mod trace;

use bloom_core::checks::check_priority_over;
use bloom_core::events::extract;
use bloom_core::laws::{no_failure, LawSet};
use bloom_core::MechanismId;
use bloom_problems::liveness::LiveMechanism;
use bloom_problems::r3::{starvation_at_scale, starvation_laws};
use bloom_problems::rw::{self, RwVariant};
use bloom_problems::workload::{Arrival, Think, WorkloadSpec};
use bloom_semaphore::Semaphore;
use bloom_sim::{
    replay_exact, Decision, Engine, ExploreConfig, ExploreStats, PruneMode, ReplayPolicy,
    SampleStrategy, Sim, SimError, SimReport, SplitMix64,
};
use hist::Histogram;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace::{Span, Tracer};

/// Schedules of the unpruned footnote-3 tree on the CSP channel solution
/// (the CSP row of F1a in `docs/report.txt`).
const DFS_SCHEDULES: usize = 20_358;
/// Schedules the revisit DPOR runs on the four-philosopher tree.
const REVISIT_SCHEDULES: usize = 10_583;
/// Philosophers in the revisit workload's dining table.
const DINING_N: usize = 4;
/// The PCT budget of R3's sampling rows.
const PCT: SampleStrategy = SampleStrategy::Pct {
    change_points: 4,
    depth_hint: 2048,
};
/// Sampled runs per sampler call in the timed pass.
const SAMPLE_BATCH: usize = 16;
/// Sampled runs in the traced pass.
const TRACED_SAMPLES: usize = 64;
/// Budget meaning "the whole tree".
const FULL: usize = usize::MAX;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unpruned DFS of the footnote-3 scenario on the CSP solution.
    ExploreDfs,
    /// Revisit DPOR of four stutter-yielding dining philosophers.
    ExploreRevisit,
    /// Seeded PCT sampling of R3's ten-client weak-semaphore rung.
    SampleStarvation,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ExploreDfs,
        Workload::ExploreRevisit,
        Workload::SampleStarvation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreDfs => "explore-dfs",
            Workload::ExploreRevisit => "explore-revisit",
            Workload::SampleStarvation => "sample-starvation",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_sample(self) -> bool {
        self == Workload::SampleStarvation
    }

    /// Units of one set-up round's warm-up.
    fn warmup_units(self) -> usize {
        match self {
            Workload::ExploreDfs => 400,
            Workload::ExploreRevisit => 300,
            Workload::SampleStarvation => 3,
        }
    }

    /// Units of one batch of the timed and traced passes.
    fn batch_units(self, traced: bool) -> usize {
        match (self, traced) {
            (Workload::SampleStarvation, false) => SAMPLE_BATCH,
            (Workload::SampleStarvation, true) => TRACED_SAMPLES,
            _ => FULL,
        }
    }
}

/// Sampler seed of batch `k` of a stream derived from the benchmark seed.
fn batch_seed(seed: u64, k: u64) -> u64 {
    SplitMix64::new(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Sampler seed of the warm-up stream. It does not depend on the
/// benchmark seed, so every run's set-up rounds do the same work.
const WARMUP_SEED: u64 = 0x0005_E70B;

/// The footnote-3 scenario (two writers, one reader, readers-priority)
/// on the CSP channel solution, as F1a builds it.
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

/// Dining philosophers on strong semaphores with ordered fork pickup and
/// two bare yields between the forks: the `dining_tree` of the
/// `bench_explore` binary.
fn dining_tree(n: usize) -> Sim {
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

/// R3's ten-client rung: every client arrives together, thinks for no
/// time, and runs six operations.
fn starvation_spec() -> WorkloadSpec {
    WorkloadSpec::new(0xB10)
        .clients(10)
        .ops(6)
        .arrival(Arrival::Together)
        .think(Think::None)
}

/// Deterministic per-run counters, summed over a batch's runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub runs: u64,
    pub dispatches: u64,
    pub context_switches: u64,
    pub parks: u64,
    pub events: u64,
    pub decisions: u64,
    pub channel_ops: u64,
    pub semaphore_ops: u64,
}

impl Counts {
    fn add(&mut self, result: &Result<SimReport, SimError>) {
        let report = match result {
            Ok(report) => report,
            Err(err) => &err.report,
        };
        let m = &report.metrics;
        let ops = |key: &str| m.sync_ops.get(key).copied().unwrap_or(0);
        self.runs += 1;
        self.dispatches += m.dispatches;
        self.context_switches += m.context_switches;
        self.parks += m.total_parks();
        self.events += report.trace.len() as u64;
        self.decisions += report.decisions.len() as u64;
        self.channel_ops += ops("channel");
        self.semaphore_ops += ops("semaphore");
    }
}

/// What the visitor returns for one unit.
#[derive(Debug, Clone)]
pub struct UnitValue {
    /// Position of the unit in execution order within its pass.
    pub id: u64,
    /// Whether the unit's output check passed.
    pub ok: bool,
    /// Laws the run violated (sampled and revisit workloads).
    pub keys: Vec<String>,
}

struct RecState {
    last: Instant,
    next: u64,
    units: Histogram,
    counts: Counts,
    problems: Vec<String>,
}

/// Times units from inside the setup closure and the visitor, and, when
/// given a tracer, records their spans and counts.
pub struct Recorder<'t> {
    tracer: Option<&'t Tracer>,
    state: Mutex<RecState>,
}

impl<'t> Recorder<'t> {
    pub fn new(tracer: Option<&'t Tracer>) -> Self {
        Recorder {
            tracer,
            state: Mutex::new(RecState {
                last: Instant::now(),
                next: 0,
                units: Histogram::new(),
                counts: Counts::default(),
                problems: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecState> {
        self.state.lock().expect("recorder poisoned")
    }

    /// Starts the next unit's clock now, so the gap between two batches
    /// belongs to no unit.
    fn restart(&self) {
        self.lock().last = Instant::now();
    }

    fn build(&self, inputs: &Inputs) -> Sim {
        match self.tracer {
            None => inputs.build(),
            Some(tracer) => {
                let unit = self.lock().next;
                let start = Instant::now();
                let sim = inputs.build();
                tracer.record(unit, trace::BUILD, start, Instant::now());
                sim
            }
        }
    }

    /// Ends a unit: checks its outcome and stops its clock. A traced
    /// recorder then replays the unit's decision vector at once, so the
    /// replay sees the same host conditions as the unit it stands for,
    /// and starts the next unit's clock after the replay.
    fn finish(
        &self,
        inputs: &Inputs,
        decisions: &[Decision],
        result: &Result<SimReport, SimError>,
    ) -> UnitValue {
        let check_start = Instant::now();
        let (ok, keys) = inputs.check(result);
        let end = Instant::now();
        let mut st = self.lock();
        let id = st.next;
        st.next += 1;
        let unit_start = st.last;
        st.units
            .record(end.saturating_duration_since(unit_start).as_nanos() as u64);
        st.last = end;
        let value = UnitValue { id, ok, keys };
        if let Some(tracer) = self.tracer {
            tracer.record(id, trace::CHECK, check_start, end);
            tracer.record(id, trace::UNIT, unit_start, end);
            st.counts.add(result);
            drop(st);
            let choices: Vec<u32> = decisions.iter().map(|d| d.chosen).collect();
            let (run_start, run_end, problem) = inputs.replay(&choices, &value);
            tracer.record(id, trace::RUN, run_start, run_end);
            let mut st = self.lock();
            st.problems.extend(problem);
            st.last = Instant::now();
        }
        value
    }

    /// The histogram of every unit's time so far, in nanoseconds.
    pub fn units(&self) -> Histogram {
        self.lock().units.clone()
    }
}

/// One batch's journal (decision vector and visitor value per unit, in
/// decision-vector or iteration order), statistics and check results.
pub struct Batch {
    pub journal: Vec<(Vec<u32>, UnitValue)>,
    pub stats: ExploreStats,
    /// Units whose output check failed.
    pub failed: usize,
    /// Batch-level check failures (schedule counts, stats consistency).
    pub problems: Vec<String>,
}

/// A workload's inputs: what each unit is built from and checked
/// against. Building them is the first part of a set-up round.
pub struct Inputs {
    workload: Workload,
    spec: WorkloadSpec,
    laws: LawSet,
}

impl Inputs {
    pub fn new(workload: Workload) -> Self {
        let laws = match workload {
            Workload::SampleStarvation => starvation_laws(),
            _ => LawSet::new().with(no_failure()),
        };
        Inputs {
            workload,
            spec: starvation_spec(),
            laws,
        }
    }

    /// Builds one unit's scenario (the setup closure's body).
    pub fn build(&self) -> Sim {
        match self.workload {
            Workload::ExploreDfs => footnote3_csp(),
            Workload::ExploreRevisit => dining_tree(DINING_N),
            Workload::SampleStarvation => {
                starvation_at_scale(LiveMechanism::SemaphoreWeak, &self.spec)
            }
        }
    }

    /// Checks one unit's outcome: whether it passed, and which laws it
    /// violated. A footnote-3 run passes when it completed and no writer
    /// overtook the waiting reader; a dining run passes when it completed;
    /// a sampled run passes when it completed (starving is the finding
    /// the sampler looks for, not a failure).
    pub fn check(&self, result: &Result<SimReport, SimError>) -> (bool, Vec<String>) {
        match self.workload {
            Workload::ExploreDfs => match result {
                Ok(report) => {
                    let events = extract(&report.trace);
                    (
                        check_priority_over(&events, "read", "write").is_empty(),
                        Vec::new(),
                    )
                }
                Err(_) => (false, Vec::new()),
            },
            Workload::ExploreRevisit => {
                let keys = self.laws.violated(result);
                (keys.is_empty(), keys)
            }
            Workload::SampleStarvation => {
                let keys = self.laws.violated(result);
                (result.is_ok(), keys)
            }
        }
    }

    /// Runs one batch: an exploration with schedule budget `units`
    /// ([`FULL`] for the whole tree), or `units` sampled runs under
    /// `seed`. Full explorations are checked against their pinned counts.
    pub fn run_batch(&self, units: usize, seed: u64, rec: &Recorder<'_>) -> Batch {
        rec.restart();
        let setup = || rec.build(self);
        let (journal, stats): (Vec<(Vec<u32>, UnitValue)>, ExploreStats) = match self.workload {
            Workload::ExploreDfs | Workload::ExploreRevisit => {
                let mut config = ExploreConfig::new(units).engine(Engine::Serial);
                if self.workload == Workload::ExploreRevisit {
                    config = config.mode(PruneMode::Revisit);
                }
                let (journal, stats) = config.run(setup, |decisions, result| {
                    rec.finish(self, decisions, result)
                });
                let journal = journal.into_iter().map(|r| (r.choices, r.value)).collect();
                (journal, stats)
            }
            Workload::SampleStarvation => {
                let (journal, stats) = ExploreConfig::new(0).threads(1).sample(
                    PCT,
                    units,
                    seed,
                    setup,
                    |decisions, result| {
                        let value = rec.finish(self, decisions, result);
                        let keys = value.keys.clone();
                        (value, keys)
                    },
                );
                let journal = journal.into_iter().map(|r| (r.choices, r.value)).collect();
                (journal, stats)
            }
        };
        let failed = journal.iter().filter(|(_, v)| !v.ok).count();
        let problems = self.check_batch(units, &journal, &stats);
        Batch {
            journal,
            stats,
            failed,
            problems,
        }
    }

    fn check_batch(
        &self,
        units: usize,
        journal: &[(Vec<u32>, UnitValue)],
        stats: &ExploreStats,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        let mut expect = |holds: bool, what: String| {
            if !holds {
                problems.push(format!("{}: {what}", self.workload.name()));
            }
        };
        let expected = match self.workload {
            Workload::ExploreDfs => DFS_SCHEDULES,
            Workload::ExploreRevisit => REVISIT_SCHEDULES,
            Workload::SampleStarvation => units,
        };
        if units == FULL || self.workload.is_sample() {
            expect(
                stats.schedules == expected && journal.len() == expected,
                format!(
                    "expected {expected} units, got {} (journal {})",
                    stats.schedules,
                    journal.len()
                ),
            );
            expect(stats.complete, "exploration did not complete".to_string());
        }
        if self.workload == Workload::ExploreRevisit {
            let consistent = catch_unwind(AssertUnwindSafe(|| stats.assert_consistent()));
            expect(consistent.is_ok(), "stats are inconsistent".to_string());
            if units == FULL {
                expect(
                    stats.schedules as u64 == stats.revisits + 1,
                    format!(
                        "schedules {} != revisits {} + 1",
                        stats.schedules, stats.revisits
                    ),
                );
            }
        }
        if self.workload.is_sample() {
            let runs = stats.sampling.as_ref().map_or(0, |s| s.runs);
            expect(runs == units, format!("sampler ran {runs} of {units} runs"));
        }
        problems
    }

    /// Reruns one journaled unit from its decision vector with the
    /// policy and footprint setting its pass used, and checks that it
    /// takes the same decisions and reaches the same verdict. Returns the
    /// time of the run alone (scenario building excluded).
    fn replay(&self, choices: &[u32], value: &UnitValue) -> (Instant, Instant, Option<String>) {
        let mut sim = self.build();
        let start = Instant::now();
        let result = match self.workload {
            Workload::SampleStarvation => replay_exact(move || sim, choices),
            Workload::ExploreDfs | Workload::ExploreRevisit => {
                sim.set_policy(ReplayPolicy::prefix(choices.to_vec()));
                if self.workload == Workload::ExploreRevisit {
                    // Revisit mode forces the footprint log on; unpruned
                    // DFS keeps the scenario's own setting.
                    sim.set_record_quanta(true);
                }
                sim.run()
            }
        };
        let end = Instant::now();
        let decisions = match &result {
            Ok(report) => &report.decisions,
            Err(err) => &err.report.decisions,
        };
        let same_path = decisions.len() == choices.len()
            && decisions.iter().zip(choices).all(|(d, &c)| d.chosen == c);
        let (ok, keys) = self.check(&result);
        let problem = if !same_path {
            Some(format!("unit {} took other decisions on replay", value.id))
        } else if ok != value.ok || keys != value.keys {
            Some(format!(
                "unit {} changed verdict on replay: {keys:?} vs {:?}",
                value.id, value.keys
            ))
        } else {
            None
        };
        (start, end, problem)
    }
}

/// Set-up rounds per timed pass; `setup_s` is their median.
pub const SETUP_ROUNDS: u64 = 16;

/// Builds the inputs and runs the untimed warm-up of one set-up round.
/// Returns the inputs and the warm-up's check failures. Round `round`
/// does the same work in every run, whatever the benchmark seed.
pub fn setup_round(workload: Workload, round: u64) -> (Inputs, Vec<String>) {
    let inputs = Inputs::new(workload);
    let rec = Recorder::new(None);
    let mut warmup = inputs.run_batch(
        workload.warmup_units(),
        batch_seed(WARMUP_SEED, round),
        &rec,
    );
    if warmup.failed > 0 {
        let failed = warmup.failed;
        warmup
            .problems
            .push(format!("{failed} warm-up units failed"));
    }
    (inputs, warmup.problems)
}

/// Iterations of [`reference_ms`]'s loop: about 20 ms on a 2.1 GHz Xeon.
const REFERENCE_STEPS: u64 = 10_000_000;

/// Times a fixed integer loop that calls none of the repository's code,
/// in milliseconds. It gauges the host's speed at that moment, so that a
/// drift of the host can be told apart from a change in the code.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..REFERENCE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// The result of the timed pass.
pub struct Timed {
    /// Every measured unit's time, in nanoseconds.
    pub units: Histogram,
    /// Each set-up round's time, in seconds.
    pub setup_s: Vec<f64>,
    /// Wall and CPU time of the measured batches, in seconds.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Units per second of each segment that ran a batch: a record of
    /// how the host's speed moved during the pass.
    pub segment_rates: Vec<f64>,
    /// [`reference_ms`] before each segment.
    pub reference_ms: Vec<f64>,
    pub failed: usize,
    pub problems: Vec<String>,
}

/// Measures `seconds` of whole batches, timing every unit, in
/// [`SETUP_ROUNDS`] segments that each start with a timed set-up round:
/// building fresh inputs and warming up on them. Spreading the set-up
/// rounds over the pass lets their median average over the same host
/// conditions as the units.
pub fn timed_pass(workload: Workload, seed: u64, seconds: f64) -> Result<Timed, String> {
    let ticks_per_s = host::clock_ticks_per_s();
    let rec = Recorder::new(None);
    let mut timed = Timed {
        units: Histogram::new(),
        setup_s: Vec::new(),
        wall_s: 0.0,
        cpu_s: 0.0,
        segment_rates: Vec::new(),
        reference_ms: Vec::new(),
        failed: 0,
        problems: Vec::new(),
    };
    let mut k = 0;
    for round in 0..SETUP_ROUNDS {
        timed.reference_ms.push(reference_ms());
        let start = Instant::now();
        let (inputs, warmup_problems) = setup_round(workload, round);
        timed.setup_s.push(start.elapsed().as_secs_f64());
        timed.problems.extend(warmup_problems);

        let until = seconds * (round + 1) as f64 / SETUP_ROUNDS as f64;
        let cpu_before = host::cpu_ticks()?;
        let start = Instant::now();
        let mut units = 0;
        while timed.wall_s + start.elapsed().as_secs_f64() < until {
            let batch = inputs.run_batch(workload.batch_units(false), batch_seed(seed, k), &rec);
            units += batch.journal.len();
            timed.failed += batch.failed;
            timed.problems.extend(batch.problems);
            k += 1;
        }
        let wall_s = start.elapsed().as_secs_f64();
        if units > 0 {
            timed.segment_rates.push(units as f64 / wall_s);
        }
        timed.wall_s += wall_s;
        timed.cpu_s += host::cpu_ticks()?.saturating_sub(cpu_before) as f64 / ticks_per_s;
    }
    timed.units = rec.units();
    Ok(timed)
}

/// Runs the traced pass's batch without tracing: the base its overhead
/// is measured against. Returns the histogram of its unit times.
pub fn untraced_fixed_pass(inputs: &Inputs, seed: u64) -> (Histogram, Batch) {
    let rec = Recorder::new(None);
    let batch = inputs.run_batch(inputs.workload.batch_units(true), batch_seed(seed, 0), &rec);
    (rec.units(), batch)
}

/// The result of the traced pass.
pub struct Traced {
    pub spans: Vec<Span>,
    pub counts: Counts,
    pub batch: Batch,
    pub problems: Vec<String>,
}

/// Runs one fixed batch with spans, replaying and timing every unit
/// right after it ends.
pub fn traced_pass(inputs: &Inputs, seed: u64) -> Traced {
    let tracer = Tracer::new();
    let rec = Recorder::new(Some(&tracer));
    let batch = inputs.run_batch(inputs.workload.batch_units(true), batch_seed(seed, 0), &rec);
    let state = rec.state.into_inner().expect("recorder poisoned");
    let mut problems = batch.problems.clone();
    problems.extend(state.problems);
    Traced {
        spans: tracer.into_spans(),
        counts: state.counts,
        batch,
        problems,
    }
}

/// A named measurement with its unit.
pub type Metric = (&'static str, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Traced {
    /// The host-independent counts: identical on every run of the same
    /// workload and seed. Metrics of a layer the workload does not use
    /// read 0.
    pub fn count_metrics(&self) -> Vec<Metric> {
        let c = &self.counts;
        let runs = c.runs as f64;
        let per_run = |n: u64| ratio(n as f64, runs);
        let stats = &self.batch.stats;
        let sample = self.batch.stats.sampling.is_some();
        let explore = |v: f64| if sample { 0.0 } else { v };
        let sampled = |v: f64| if sample { v } else { 0.0 };
        let hits = self
            .batch
            .journal
            .iter()
            .filter(|(_, v)| !v.keys.is_empty())
            .count();
        vec![
            (
                "sim.kernel.dispatches_per_run",
                per_run(c.dispatches),
                "count",
            ),
            (
                "sim.kernel.context_switches_per_run",
                per_run(c.context_switches),
                "count",
            ),
            ("sim.kernel.parks_per_run", per_run(c.parks), "count"),
            ("sim.trace.events_per_run", per_run(c.events), "count"),
            (
                "sim.explore.schedules",
                explore(stats.schedules as f64),
                "count",
            ),
            ("sim.explore.pruned", explore(stats.pruned as f64), "count"),
            (
                "sim.explore.revisit_requests",
                explore(stats.revisit_requests as f64),
                "count",
            ),
            (
                "sim.explore.revisits",
                explore(stats.revisits as f64),
                "count",
            ),
            (
                "sim.explore.grant_ratio",
                explore(ratio(stats.revisits as f64, stats.revisit_requests as f64)),
                "ratio",
            ),
            (
                "sim.explore.decisions_per_schedule",
                explore(per_run(c.decisions)),
                "count",
            ),
            (
                "sim.sample.decisions_per_run",
                sampled(per_run(c.decisions)),
                "count",
            ),
            (
                "sim.sample.hit_rate",
                sampled(ratio(hits as f64, runs)),
                "ratio",
            ),
            ("channel.sync_ops_per_run", per_run(c.channel_ops), "count"),
            (
                "semaphore.sync_ops_per_run",
                per_run(c.semaphore_ops),
                "count",
            ),
        ]
    }

    /// Mean span times per unit; the explorer's or sampler's self time
    /// (the unit's time minus the time of its build, check and replayed
    /// run); and the tracing overhead: how much longer a traced unit took
    /// than an untraced unit of the same batch (`base`).
    pub fn time_metrics(&self, base: &Histogram) -> Vec<Metric> {
        let (unit_ns, units) = trace::total_ns(&self.spans, trace::UNIT);
        let (build_ns, builds) = trace::total_ns(&self.spans, trace::BUILD);
        let (check_ns, checks) = trace::total_ns(&self.spans, trace::CHECK);
        let (run_ns, runs) = trace::total_ns(&self.spans, trace::RUN);
        let us = |ns: u64, n: usize| ratio(ns as f64 / 1e3, n as f64);
        let self_us =
            us(unit_ns, units) - ratio((build_ns + check_ns + run_ns) as f64 / 1e3, units as f64);
        let sample = self.batch.stats.sampling.is_some();
        vec![
            ("bench.unit_us", us(unit_ns, units), "us"),
            ("problems.build_us", us(build_ns, builds), "us"),
            ("sim.kernel.run_us", us(run_ns, runs), "us"),
            (
                "sim.kernel.us_per_dispatch",
                ratio(run_ns as f64 / 1e3, self.counts.dispatches as f64),
                "us",
            ),
            (
                "sim.explore.self_us",
                if sample { 0.0 } else { self_us },
                "us",
            ),
            (
                "sim.sample.self_us",
                if sample { self_us } else { 0.0 },
                "us",
            ),
            ("core.check_us", us(check_ns, checks), "us"),
            (
                "bench.trace_overhead_frac",
                ratio(unit_ns as f64 / units as f64, base.mean()) - 1.0,
                "ratio",
            ),
        ]
    }
}
