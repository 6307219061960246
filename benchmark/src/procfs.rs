//! `/proc` readers: everything the harness learns about the server child
//! and the host comes from here, measured from outside the program.
//!
//! Each reader is a pure `parse_*` function over the file's text (unit
//! tested below) plus a thin wrapper that reads the file.

use std::fs;

/// On-CPU nanoseconds from a `schedstat` file (its first field). Unlike
/// the `utime`/`stime` clock ticks of `stat` this has ns resolution, so a
/// 4-second phase is not quantised to ~400 ticks.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// A `Key:   <n> kB`-style numeric field of a `status` file.
pub fn parse_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// The `Cpus_allowed_list` value of a `status` file, expanded
/// (`"0-1,4"` → `[0, 1, 4]`).
pub fn parse_cpus_allowed(text: &str) -> Option<Vec<usize>> {
    let list = text
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((lo, hi)) => cpus.extend(lo.parse::<usize>().ok()?..=hi.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

/// `(utime, stime)` clock ticks of a `/proc/<pid>/stat` line. The command
/// name may hold spaces, so fields are counted from the closing paren.
pub fn parse_stat_ticks(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// `(steal, total)` ticks of the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_steal(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// CPUs listed in `/proc/stat` (`cpu0`, `cpu1`, …): the guest's `nproc`,
/// whatever this process is pinned to.
pub fn parse_online_cpus(text: &str) -> usize {
    text.lines()
        .filter(|l| l.starts_with("cpu") && l[3..].starts_with(|c: char| c.is_ascii_digit()))
        .count()
}

/// What the harness samples from a live server process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Summed on-CPU ns of every live thread.
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches of every live thread.
    pub ctx_switches: u64,
    /// Live threads.
    pub threads: u64,
}

/// Summed `schedstat` run time of every thread of `pid`. A thread that
/// exits takes its time with it, which is why a round keeps one
/// connection (one server thread) from setup to scrape.
pub fn process_cpu_ns(pid: u32) -> u64 {
    task_files(pid, "schedstat")
        .iter()
        .filter_map(|t| parse_schedstat(t))
        .sum()
}

/// CPU, context switches and thread count of `pid` (two files per
/// thread: taken around a measured phase, not per epoch).
pub fn sample_process(pid: u32) -> ProcSample {
    let status = task_files(pid, "status");
    ProcSample {
        cpu_ns: process_cpu_ns(pid),
        ctx_switches: status
            .iter()
            .map(|s| {
                parse_status_field(s, "voluntary_ctxt_switches").unwrap_or(0)
                    + parse_status_field(s, "nonvoluntary_ctxt_switches").unwrap_or(0)
            })
            .sum(),
        threads: status.len() as u64,
    }
}

fn task_files(pid: u32, file: &str) -> Vec<String> {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join(file)).ok())
        .collect()
}

/// On-CPU ns of the calling thread (the load generator's own cost).
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| parse_schedstat(&t))
        .unwrap_or(0)
}

/// Peak resident set of `pid` in KiB (`VmHWM`).
pub fn peak_rss_kb(pid: u32) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|t| parse_status_field(&t, "VmHWM"))
        .unwrap_or(0)
}

/// `(utime, stime)` ticks of `pid`, dead threads included.
pub fn process_ticks(pid: u32) -> (u64, u64) {
    fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|t| parse_stat_ticks(&t))
        .unwrap_or((0, 0))
}

/// `(steal, total)` ticks of the whole host so far.
pub fn host_steal() -> (u64, u64) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_host_steal(&t))
        .unwrap_or((0, 0))
}

/// Share of host CPU time stolen between two [`host_steal`] samples, in
/// percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// CPUs the guest has online.
pub fn online_cpus() -> usize {
    fs::read_to_string("/proc/stat").map_or(0, |t| parse_online_cpus(&t))
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_cpus_allowed(&t))
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tfidr\nVmPeak:\t  123456 kB\nVmHWM:\t   98760 kB\n\
        Cpus_allowed:\t3\nCpus_allowed_list:\t0-1,4\n\
        voluntary_ctxt_switches:\t1500\nnonvoluntary_ctxt_switches:\t25\n";

    #[test]
    fn schedstat_takes_the_run_time_field() {
        assert_eq!(parse_schedstat("600967 78710 2\n"), Some(600_967));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("abc 1 2"), None);
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(98_760));
        // `voluntary_…` must not match inside `nonvoluntary_…`.
        assert_eq!(
            parse_status_field(STATUS, "voluntary_ctxt_switches"),
            Some(1500)
        );
        assert_eq!(
            parse_status_field(STATUS, "nonvoluntary_ctxt_switches"),
            Some(25)
        );
        assert_eq!(parse_status_field(STATUS, "VmSwap"), None);
    }

    #[test]
    fn cpu_lists_expand_ranges_and_singles() {
        assert_eq!(parse_cpus_allowed(STATUS), Some(vec![0, 1, 4]));
        assert_eq!(parse_cpus_allowed("Cpus_allowed_list:\t7\n"), Some(vec![7]));
        assert_eq!(parse_cpus_allowed("Cpus_allowed_list:\tx\n"), None);
        assert_eq!(parse_cpus_allowed("Name:\tfidr\n"), None);
    }

    #[test]
    fn stat_ticks_survive_a_command_name_with_spaces_and_parens() {
        let line = "4242 (fidr (serve) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    321 45 0 0 20 0 3 0 100 1000 200";
        assert_eq!(parse_stat_ticks(line), Some((321, 45)));
        assert_eq!(parse_stat_ticks("4242 fidr S"), None);
    }

    #[test]
    fn host_steal_reads_the_aggregate_line_only() {
        let stat = "cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 1 1 1 1 1 1 1 99 0 0\n";
        assert_eq!(parse_host_steal(stat), Some((35, 1000)));
        assert_eq!(parse_host_steal("intr 5\n"), None);
        assert_eq!(parse_online_cpus(stat), 1);
        assert_eq!(steal_pct((35, 1000), (45, 1200)), 5.0);
        assert_eq!(steal_pct((35, 1000), (35, 1000)), 0.0);
        assert_eq!(
            parse_online_cpus("cpu  1 2\ncpu0 1\ncpu1 1\ncpufreq 3\n"),
            2
        );
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_kb(std::process::id()) > 0);
        let sample = sample_process(std::process::id());
        assert!(sample.threads >= 1);
        assert!(sample.cpu_ns > 0);
    }
}
