//! Host facts read from procfs: CPU confinement, scheduling policy,
//! process CPU time, peak memory and per-CPU steal and busy time. Linux
//! only; every reader returns an error naming the file it could not use.

use std::fs;

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The value of a `Key:\tvalue` line of `/proc/self/status`.
fn status_field(key: &str) -> Result<String, String> {
    let status = read("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
        .ok_or_else(|| format!("/proc/self/status has no {key} line"))
}

/// The one CPU this process may run on, from `Cpus_allowed_list`. The
/// benchmark refuses to measure when the list names more than one CPU.
pub fn confined_cpu() -> Result<usize, String> {
    let allowed = status_field("Cpus_allowed_list")?;
    let single = match allowed.split_once('-') {
        Some((first, last)) if first == last => first,
        Some(_) => "",
        None => allowed.as_str(),
    };
    single.parse().map_err(|_| {
        format!(
            "process may run on CPUs {allowed:?}, not on one CPU only; \
             start the benchmark through perfbench/run.py, which pins it with taskset"
        )
    })
}

/// Checks that this process runs under `SCHED_FIFO` and returns its
/// real-time priority. The benchmark refuses to measure otherwise.
pub fn fifo_priority() -> Result<u64, String> {
    let (policy, priority) = (stat_field(38)?, stat_field(37)?);
    if policy == 1 {
        Ok(priority)
    } else {
        Err(format!(
            "process runs under scheduling policy {policy}, not SCHED_FIFO (1); \
             start the benchmark through perfbench/run.py, which sets it with chrt"
        ))
    }
}

/// Field `i` of `/proc/self/stat`, counted from the field after the
/// parenthesised command name (so field 14 of the whole line is 11).
fn stat_field(i: usize) -> Result<u64, String> {
    let stat = read("/proc/self/stat")?;
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(i)?.parse().ok())
        .ok_or_else(|| format!("malformed /proc/self/stat field {i}"))
}

/// Clock ticks per second of the `/proc` time fields.
pub fn clock_ticks_per_s() -> f64 {
    std::process::Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|&hz| hz > 0.0)
        .unwrap_or(100.0)
}

/// User plus system CPU time of this process (all threads), in ticks.
pub fn cpu_ticks() -> Result<u64, String> {
    Ok(stat_field(11)? + stat_field(12)?)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let hwm = status_field("VmHWM")?;
    let kb: f64 = hwm
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("malformed VmHWM {hwm:?}"))?;
    Ok(kb / 1024.0)
}

/// Threads of this process right now.
pub fn threads() -> Result<u64, String> {
    let n = status_field("Threads")?;
    n.parse().map_err(|_| format!("malformed Threads {n:?}"))
}

/// Cumulative ticks of one CPU from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    pub steal: u64,
    /// Ticks spent neither idle, waiting for I/O nor stolen.
    pub busy: u64,
    pub total: u64,
}

/// The [`CpuTicks`] of every CPU, by number.
pub fn cpu_ticks_all() -> Result<Vec<(usize, CpuTicks)>, String> {
    let stat = read("/proc/stat")?;
    let mut cpus = Vec::new();
    for line in stat.lines() {
        let mut fields = line.split_whitespace();
        let Some(cpu) = fields
            .next()
            .and_then(|label| label.strip_prefix("cpu")?.parse::<usize>().ok())
        else {
            continue;
        };
        // user nice system idle iowait irq softirq steal
        let ticks: Vec<u64> = fields.take(8).map(|f| f.parse().unwrap_or(0)).collect();
        let at = |i: usize| ticks.get(i).copied().unwrap_or(0);
        let total: u64 = ticks.iter().sum();
        let steal = at(7);
        cpus.push((
            cpu,
            CpuTicks {
                steal,
                busy: total.saturating_sub(at(3) + at(4) + steal),
                total,
            },
        ));
    }
    if cpus.is_empty() {
        return Err("/proc/stat has no per-CPU lines".to_string());
    }
    Ok(cpus)
}

/// Share of `cpu`'s ticks between two [`cpu_ticks_all`] readings that
/// the hypervisor gave to another guest.
pub fn steal_frac(cpu: usize, before: &[(usize, CpuTicks)], after: &[(usize, CpuTicks)]) -> f64 {
    let d = delta(before, after, |c| c == cpu);
    ratio(d.steal, d.total)
}

/// Busy share of every CPU other than `cpu` between two readings: how
/// much else ran on the machine while the benchmark measured.
pub fn others_busy_frac(
    cpu: usize,
    before: &[(usize, CpuTicks)],
    after: &[(usize, CpuTicks)],
) -> f64 {
    let d = delta(before, after, |c| c != cpu);
    ratio(d.busy, d.total)
}

fn delta(
    before: &[(usize, CpuTicks)],
    after: &[(usize, CpuTicks)],
    which: impl Fn(usize) -> bool,
) -> CpuTicks {
    let mut sum = CpuTicks::default();
    for (cpu, a) in after.iter().filter(|(c, _)| which(*c)) {
        let b = before
            .iter()
            .find(|(c, _)| c == cpu)
            .map_or(CpuTicks::default(), |(_, b)| *b);
        sum.steal += a.steal.saturating_sub(b.steal);
        sum.busy += a.busy.saturating_sub(b.busy);
        sum.total += a.total.saturating_sub(b.total);
    }
    sum
}

fn ratio(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        part as f64 / total as f64
    }
}

/// Number of CPUs the machine has online, as `nproc --all` reports it.
pub fn nproc_all() -> Option<usize> {
    std::process::Command::new("nproc")
        .arg("--all")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
}
