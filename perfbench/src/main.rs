//! The benchmark binary. Start it through `perfbench/run.py`, which builds it
//! and runs it on one CPU under `SCHED_FIFO`:
//!
//! ```text
//! python3 perfbench/run.py --workload explore-dfs --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of a timed pass;
//! with `--trace 1` the per-layer metrics of a traced pass, and it writes
//! the pass's spans to `<out>/<workload>.spans.jsonl`. Either way the last
//! line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! host. It exits non-zero, printing no result, when it is not confined
//! to one CPU under `SCHED_FIFO` or when no unit ran.

use bloom_perfbench::host;
use bloom_perfbench::trace::{self, Span};
use bloom_perfbench::{
    setup_round, timed_pass, traced_pass, untraced_fixed_pass, Metric, Workload,
};
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <explore-dfs|explore-revisit|sample-starvation> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let required = |flag: &str| value(flag)?.ok_or(format!("missing {flag}"));
    let workload = required("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        required(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace,
        out: PathBuf::from(value("--out")?.unwrap_or(".bench_out")),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

/// Runs the benchmark and returns its host line and result line.
fn run(args: &Args) -> Result<Vec<String>, String> {
    let cpu = host::confined_cpu()?;
    let rt_priority = host::fifo_priority()?;
    let ticks_before = host::cpu_ticks_all()?;
    let mut problems = Vec::new();
    let mut diagnostics = String::new();

    let (metrics, attempted, failed, spans): (Vec<Metric>, u64, usize, Vec<Span>) = if args.trace {
        // Warm the host pool before either pass.
        let (inputs, warmup_problems) = setup_round(args.workload, 0);
        problems.extend(warmup_problems);
        let (base, base_batch) = untraced_fixed_pass(&inputs, args.seed);
        problems.extend(base_batch.problems);
        let traced = traced_pass(&inputs, args.seed);
        problems.extend(traced.problems.iter().cloned());
        let mut metrics = traced.time_metrics(&base);
        metrics.extend(traced.count_metrics());
        let steal = host::steal_frac(cpu, &ticks_before, &host::cpu_ticks_all()?);
        metrics.push(("bench.steal_frac", steal, "ratio"));
        let attempted = traced.batch.journal.len() as u64;
        (metrics, attempted, traced.batch.failed, traced.spans)
    } else {
        let timed = timed_pass(args.workload, args.seed, args.seconds)?;
        problems.extend(timed.problems);
        let units = timed.units.count();
        let metrics = vec![
            ("setup_s", median(&timed.setup_s), "s"),
            ("units_per_s", units as f64 / timed.wall_s, "1/s"),
            ("unit_ms_mean", timed.units.mean() / 1e6, "ms"),
            ("unit_ms_p90", timed.units.quantile(0.9) / 1e6, "ms"),
            ("cpu_ms_per_unit", timed.cpu_s * 1e3 / units as f64, "ms"),
            ("peak_rss_mb", host::peak_rss_mb()?, "MB"),
        ];
        let rates: Vec<String> = timed
            .segment_rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect();
        // p50 is recorded here rather than as a metric: explore-dfs unit
        // times are bimodal with p50 between the modes, and on every
        // workload p50 moved more between runs than the mean did.
        diagnostics = format!(
            ", \"unit_ms_p50\": {}, \"reference_ms\": {}, \"segment_rates\": [{}]",
            timed.units.quantile(0.5) / 1e6,
            median(&timed.reference_ms),
            rates.join(", ")
        );
        (metrics, units, timed.failed, Vec::new())
    };
    if attempted == 0 {
        return Err("no unit ran".to_string());
    }
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            problems.push(format!("metric {name} is {value}"));
        }
    }

    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let ticks_after = host::cpu_ticks_all()?;
    let host_line = format!(
        "{{\"host\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"pinned_cpu\": {cpu}, \
         \"sched\": \"fifo\", \"rt_priority\": {rt_priority}, \
         \"nproc\": {}, \"host_cores\": {}, \"rustc\": \"{}\", \"date\": \"{}\", \
         \"malloc_arena_max\": \"{}\", \"steal_frac\": {}, \"others_busy_frac\": {}, \
         \"units\": {attempted}, \"threads\": {}{diagnostics}}}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        host::nproc_all().map_or("null".to_string(), |n| n.to_string()),
        bloom_bench::hostmeta::host_cores(),
        bloom_bench::hostmeta::rustc_version().replace('"', "'"),
        bloom_bench::hostmeta::today_utc(),
        std::env::var("MALLOC_ARENA_MAX").unwrap_or_default(),
        host::steal_frac(cpu, &ticks_before, &ticks_after),
        host::others_busy_frac(cpu, &ticks_before, &ticks_after),
        host::threads()?,
    );
    if args.trace {
        fs::create_dir_all(&args.out)
            .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
        let path = args
            .out
            .join(format!("{}.spans.jsonl", args.workload.name()));
        let file =
            fs::File::create(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        trace::write_jsonl(&mut BufWriter::new(file), &host_line, &spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    // A non-finite value has already failed the run; print it as 0 so
    // the line stays valid JSON.
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty() && failed == 0,
        fields.join(", ")
    );
    Ok(vec![host_line, result])
}
