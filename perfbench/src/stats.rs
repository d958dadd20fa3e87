//! Percentiles, medians and the output record every workload fills.

use std::collections::BTreeMap;

/// Nearest-rank `q`-quantile of `sorted`, or `None` when fewer than ten
/// samples lie beyond it: a percentile the sample cannot support is
/// reported as `null`, never as a number.
pub fn pct(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || (n as f64) * (1.0 - q) < 10.0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Sorts `v` and returns its `q`-quantile (see [`pct`]).
pub fn pct_of(v: &mut [f64], q: f64) -> Option<f64> {
    v.sort_by(f64::total_cmp);
    pct(v, q)
}

/// Median of `v` (mean of the middle pair for even lengths); `None` when
/// empty. Used across repeated rounds or windows of one run.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Median of the values that are present.
pub fn median_some(v: &[Option<f64>]) -> Option<f64> {
    let present: Vec<f64> = v.iter().flatten().copied().collect();
    median(&present)
}

/// CPU time of the calling thread so far, ns (`/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// CPU time of the process's live threads so far, ns: the sum of their
/// `schedstat` run times. Read it while the measured threads are alive.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| schedstat_ns(t.path().join("schedstat")))
        .sum()
}

fn schedstat_ns(path: impl AsRef<std::path::Path>) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// One named measurement with its unit; `None` prints as `null`.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
}

/// Builds a [`Metric`].
pub fn m(name: &str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations issued (keys, for batched calls).
    pub attempted: u64,
    /// Operations that failed, were refused or returned a wrong result.
    pub failed: u64,
    /// The user-visible metrics every workload reports; the result line
    /// carries those of them that `BENCHMARK.json` gates (`crate::E2E`).
    pub e2e: Vec<Metric>,
    /// Further user-visible metrics of this workload (tail latency, the
    /// open-loop rate steps, placement), printed in the report line only.
    pub extra: Vec<Metric>,
    /// Per-layer values by name; layers a workload does not exercise are
    /// absent and print as 0 (see `PER_LAYER`).
    pub layers: BTreeMap<String, Option<f64>>,
    /// Human-readable lines (layer tables, key placement).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Share of attempted operations that failed.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Formats a float for JSON: shortest round-trip digits, `null` for
/// absent or non-finite values.
pub fn json_num(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".to_string(),
    }
}

/// Escapes a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(pct(&v, 0.99), None, "999 samples leave 9.99 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(pct(&v, 0.99), Some(990.0));
        assert_eq!(pct(&v, 0.5), Some(500.0));
        assert_eq!(pct(&v[..19], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
