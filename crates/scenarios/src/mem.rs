//! Process memory accounting for the timing records.
//!
//! The runner records two numbers per evaluated round when timing is on:
//! `bytes_materialized` (the FedAvg snapshots refilled that round, or the
//! gossip pushes delivered) and `peak_rss_bytes` (what the OS actually charged the process), so a
//! memory regression shows up next to the round that caused it. Both are
//! timing-class fields: golden transcripts run `--no-timing` and never see
//! them.

use std::fs;

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux or when procfs is unavailable.
///
/// The high-water mark is monotone over the process lifetime — per-round
/// deltas come from `bytes_materialized`, not from differencing this.
pub fn peak_rss_bytes() -> Option<u64> {
    parse_vm_hwm(&fs::read_to_string("/proc/self/status").ok()?)
}

/// Parses the `VmHWM:   123456 kB` line of a `/proc/<pid>/status` blob.
fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vm_hwm_line() {
        let status = "Name:\tcia\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  5 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(123_456 * 1024));
        assert_eq!(parse_vm_hwm("Name:\tcia\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    fn linux_reports_a_positive_peak() {
        if let Some(bytes) = peak_rss_bytes() {
            // A running test binary has megabytes resident at minimum.
            assert!(bytes > 1024 * 1024, "implausible peak RSS: {bytes}");
        }
    }
}
