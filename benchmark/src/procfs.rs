//! What the operating system charges this process: CPU seconds and the
//! resident-set high-water mark, read from `/proc/self`.

/// Kernel clock ticks per second as `/proc/self/stat` reports them
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed by all threads of this process so
/// far (fields 14 and 15 of `/proc/self/stat`).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat).ok_or_else(|| "malformed /proc/self/stat".to_string())
}

fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis, where field 3 (state) follows.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_peak_rss_mb(&status).ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command_name() {
        let stat = "42 (aqp bench) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 100 0 0";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("garbage"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(200.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn reads_the_live_process() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
