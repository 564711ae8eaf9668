//! Process CPU time and peak memory, read from `/proc/self`.

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, 100 on
/// every Linux architecture the engine targets).
const TICKS_PER_SEC: f64 = 100.0;

/// User plus system CPU seconds of the whole process, every thread
/// included.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / TICKS_PER_SEC
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
