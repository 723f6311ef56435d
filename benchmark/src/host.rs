//! Host-side process metrics read from `/proc` (Linux only).

use std::fs;

/// Kernel clock ticks per second of the `utime`/`stime` fields. The value
/// is a kernel ABI constant (`USER_HZ`) on every Linux architecture Rust
/// targets; reading it properly needs `sysconf`, which needs libc.
const USER_HZ: f64 = 100.0;

/// CPU time and fault counters of this process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuUsage {
    /// Seconds spent in user mode.
    pub user_s: f64,
    /// Seconds spent in kernel mode.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
}

fn read_proc(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| {
        format!("cannot read {path} ({e}): host metrics need a Linux /proc file system")
    })
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    parse_vm_hwm(&read_proc("/proc/self/status")?)
}

/// CPU time and minor faults of this process so far.
pub fn cpu_usage() -> Result<CpuUsage, String> {
    parse_stat(&read_proc("/proc/self/stat")?)
}

fn parse_vm_hwm(status: &str) -> Result<f64, String> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line: {line}"))?;
    Ok(kb / 1024.0)
}

fn parse_stat(stat: &str) -> Result<CpuUsage, String> {
    // The second field (comm) may contain spaces; the fixed-format fields
    // start after its closing parenthesis. Field numbers are those of
    // proc(5): minflt 10, utime 14, stime 15; state is field 3.
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("no comm field in /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |number: usize| -> Result<u64, String> {
        fields
            .get(number - 3)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("field {number} missing in /proc/self/stat"))
    };
    Ok(CpuUsage {
        user_s: field(14)? as f64 / USER_HZ,
        sys_s: field(15)? as f64 / USER_HZ,
        minor_faults: field(10)?,
    })
}

/// Logical cores available to this process (recorded with every result).
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status).unwrap(), 2.0);
        let stat = "42 (a b) c) R 1 1 1 0 -1 4194560 777 0 0 0 250 50 0 0 20 0 3 0 100 1 1";
        let usage = parse_stat(stat).unwrap();
        assert_eq!(usage.minor_faults, 777);
        assert_eq!(usage.user_s, 2.5);
        assert_eq!(usage.sys_s, 0.5);
        assert!(parse_vm_hwm("nothing").is_err());
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_usage().is_ok());
        assert!(cores() >= 1);
    }
}
