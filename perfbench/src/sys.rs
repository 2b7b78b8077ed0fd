//! Process and thread resource readings from `/proc`.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// which Linux fixes at 100 for every user-space ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds from a `/proc/.../stat` file.
fn stat_cpu_s(path: &str) -> Result<f64, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are space separated, starting at field 3.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Result<f64, String> {
        fields
            .get(n - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: field {n} missing"))
    };
    Ok((field(14)? + field(15)?) / TICKS_PER_SEC)
}

/// CPU seconds used so far by the whole process.
pub fn process_cpu_s() -> Result<f64, String> {
    stat_cpu_s("/proc/self/stat")
}

/// CPU seconds used so far by the calling thread.
pub fn thread_cpu_s() -> Result<f64, String> {
    stat_cpu_s("/proc/thread-self/stat")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "status: no VmHWM".to_string())
}

/// Threads of this process.
pub fn threads() -> Result<usize, String> {
    let text = fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "status: no Threads".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_positive() {
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_s().unwrap() >= thread_cpu_s().unwrap());
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(threads().unwrap() >= 1);
    }
}
