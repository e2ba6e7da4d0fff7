//! Clocks, process statistics and order statistics.

use std::fmt::Write as _;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Linux clock id of the CPU time consumed by every thread of the
/// process, exited threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on the 64-bit Linux targets this benchmark
    // runs on), and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Starts a fresh peak-memory window: returns the heap earlier work
/// freed to the operating system (glibc `malloc_trim`), then resets
/// the process's peak resident set size to its current size (Linux
/// `clear_refs` code 5). The next [`peak_rss_mb`] then reads the peak
/// of what ran in between, not what earlier campaigns left resident.
///
/// # Errors
///
/// `clear_refs` cannot be written, or the peak did not drop to the
/// current size: [`peak_rss_mb`] would then read the process's
/// lifetime peak, not this window's.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: malloc_trim takes a plain integer and only releases
    // free heap pages; no memory this program holds is touched.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS via /proc/self/clear_refs: {e}"))?;
    // Right after the reset VmHWM equals VmRSS; allow for what this
    // thread or an exiting one touched between the two reads.
    let (peak, current) = (status_kib("VmHWM:"), status_kib("VmRSS:"));
    if peak > current + RESET_SLACK_KIB {
        return Err(format!(
            "peak RSS reset did not take: VmHWM {peak} kB against VmRSS {current} kB"
        ));
    }
    Ok(())
}

/// How far VmHWM may sit above VmRSS right after a reset.
const RESET_SLACK_KIB: f64 = 1024.0;

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"))
}

/// Median of a sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of a non-empty sample, linearly interpolated
/// between order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric; non-finite values are a bug in the benchmark.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_owned(), value, unit));
    }

    /// The value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// One human-readable line per metric.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<32} {value:>16.6} {unit}");
        }
        out
    }

    /// The `metrics` object of the result line; `{:?}` prints every
    /// digit an `f64` needs to round-trip.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn process_clocks_read() {
        assert!(cpu_seconds() > 0.0);
        reset_peak_rss().unwrap();
        assert!(peak_rss_mb() > 0.0);
    }
}
