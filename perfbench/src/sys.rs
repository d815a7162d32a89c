//! What the benchmark reads about its own process and the machine: peak
//! memory, CPU time and the provenance every run prints.

use std::path::Path;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// CPU time consumed so far by every live thread of this process, in
/// nanoseconds (sum of the first field of each thread's `schedstat`).
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Unified cache sizes of CPU 0 by level, as sysfs prints them (`"2048K"`).
pub fn cache_sizes() -> Vec<(String, String)> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let read = |dir: &Path, f: &str| {
        std::fs::read_to_string(dir.join(f))
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        if !dir.exists() {
            break;
        }
        let level = read(&dir, "level");
        if read(&dir, "type") == "Unified" {
            out.push((format!("L{level}"), read(&dir, "size")));
        }
    }
    out
}
