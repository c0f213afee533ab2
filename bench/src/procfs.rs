//! Process accounting read from `/proc`: CPU time and peak resident set.

use std::fs;

/// Linux reports `utime`/`stime` in units of `USER_HZ`, which is 100 on
/// every architecture this repository builds for.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of process `pid` (`"self"` for the caller),
/// all threads, including ones that have exited.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields are counted after it.
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After `comm` comes field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_accounting_is_readable_and_positive() {
        // Burn a little CPU so the tick counter has something to show.
        let mut x = 0u64;
        while cpu_seconds("self").expect("/proc/self/stat parses") == 0.0 {
            for i in 0..10_000_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
        assert!(peak_rss_mib("self").expect("/proc/self/status parses") > 0.0);
    }
}
