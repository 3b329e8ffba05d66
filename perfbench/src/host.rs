//! Process and host readings: memory high-water marks and CPU time from
//! `/proc/self`, and a fixed single-thread calibration loop whose time
//! tracks how fast the host runs at the moment, independent of the
//! program under test.

use std::time::Instant;

fn status_kb(field: &str) -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// The process's current resident set (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of the whole process, in seconds
/// (`/proc/self/stat` fields 14 and 15, at the Linux 100 Hz tick).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields are counted from after its closing parenthesis.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After the name, field 3 (state) sits at index 0, so utime (14) and
    // stime (15) sit at 11 and 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Times a fixed single-thread FNV-1a pass over 48 MiB (a 256 KiB buffer
/// hashed 192 times) and returns milliseconds. The loop is bound by its
/// multiply chain, not by memory, so it reads the speed the host gives one
/// thread right now.
pub fn calibrate_ms() -> f64 {
    let buf: Vec<u8> = (0..256 * 1024u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let started = Instant::now();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..192 {
        for &b in std::hint::black_box(&buf) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    std::hint::black_box(h);
    started.elapsed().as_secs_f64() * 1e3
}
