//! Reading CPU time and peak memory of processes from `/proc`.

use std::fs;

/// `user + system` CPU time of a process, in clock ticks, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) sits in parentheses and
/// may itself hold spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime field 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Parent pid (field 4) from the text of `/proc/<pid>/stat`.
pub fn parse_stat_ppid(stat: &str) -> Option<u32> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(1)?.parse().ok()
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") | None => Some(value),
        Some(_) => None,
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;
/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of this process (all threads) in seconds, with nanosecond
/// resolution — for timing in-process work too short for clock ticks.
pub fn own_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout
    // (two 64-bit fields on 64-bit Linux) for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Clock ticks per second of `/proc/<pid>/stat` CPU times.
pub fn clock_ticks_per_s() -> f64 {
    // SAFETY: sysconf takes an integer name and reads process-wide
    // configuration; it has no memory-safety preconditions.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// CPU time of a live process in milliseconds.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    Some(parse_stat_cpu_ticks(&stat)? as f64 * 1e3 / clock_ticks_per_s())
}

/// Peak resident set of a live process in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_status_hwm_kib(&status)? as f64 / 1024.0)
}

/// Pids of the live children of `parent`.
pub fn children(parent: u32) -> Vec<u32> {
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| parse_stat_ppid(&s))
                == Some(parent)
        })
        .collect();
    pids.sort_unstable();
    pids
}

/// Whether a process is still running (a zombie counts as ended).
pub fn alive(pid: u32) -> bool {
    match fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(stat) => stat
            .rfind(')')
            .and_then(|i| stat[i + 1..].split_whitespace().next())
            .is_some_and(|state| state != "Z" && state != "X"),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (shard router) S 4000 4242 4000 0 -1 4194560 1523 0 0 0 \
                        317 42 0 0 20 0 9 0 123456 1048576 2048 18446744073709551615";

    #[test]
    fn stat_cpu_is_utime_plus_stime() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(359));
        assert_eq!(parse_stat_ppid(STAT), Some(4000));
    }

    #[test]
    fn stat_survives_parentheses_in_the_command_name() {
        let stat = "7 (a) b (c)) R 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1 1";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(11));
        assert_eq!(parse_stat_ppid(stat), Some(1));
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 0 1 1"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_hwm_in_kib() {
        let status =
            "Name:\tshard_router\nVmPeak:\t  20000 kB\nVmHWM:\t   12288 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(12288));
        assert_eq!(parse_status_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_status_hwm_kib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        assert!(cpu_ms(me).is_some());
        assert!(peak_rss_mib(me).unwrap() > 0.0);
        assert!(alive(me));
        let before = own_cpu_s();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(own_cpu_s() > before);
    }
}
