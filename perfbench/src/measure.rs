//! Summary statistics, the result line, and process-level readings.

/// Samples beyond the reported tail value: `op_tail_ms` is the highest
/// percentile with at least this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The sample with exactly [`TAIL_BEYOND`] samples above it, and its
/// percentile `100 (n - TAIL_BEYOND) / n`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((
        v[n - TAIL_BEYOND - 1],
        100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
    ))
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    /// `struct timeval` on 64-bit Linux.
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
    /// which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this target, which is all getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    usage.maxrss as f64 / 1024.0
}

/// Return the allocator's free memory to the system (glibc's
/// `malloc_trim`). After set-up on `dashboard_hot`, glibc kept 250 to
/// 550 MiB of freed warm-up memory resident, varying with thread
/// interleaving; a window that started on top of the high end peaked
/// above set-up, and `peak_rss_mb` split into two modes from run to run.
/// Nothing the system under test still holds is released.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only returns free heap pages to the system;
        // it takes no pointers and is safe to call from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports on its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A number as JSON: every digit Rust's shortest round-trip form gives,
/// and 0 for a value that cannot be computed (JSON has no NaN).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Provenance as one JSON object of string values.
pub fn describe(pairs: &[(&str, String)]) -> String {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}
