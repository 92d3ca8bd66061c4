//! What a run reports: named metrics with units, correctness
//! violations, operation counts, run metadata, and the one-line JSON
//! result the benchmark prints last.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string (`s`, `ms`, `count`, ...).
    pub unit: &'static str,
}

/// Everything one workload (or one traced layer table) produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (builds, jobs, probes).
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Correctness violations; the run is correct iff this is empty.
    pub violations: Vec<String>,
    /// Run metadata (`key → JSON value`) printed on the line before the
    /// result: sample counts, shapes, thread counts.
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a metadata entry whose value is already JSON.
    pub fn meta(&mut self, key: impl Into<String>, json_value: impl Into<String>) {
        self.meta.push((key.into(), json_value.into()));
    }

    /// Records a correctness check: a false `ok` adds a violation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Folds another outcome (a sub-table) into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.violations.extend(other.violations);
        self.meta.extend(other.meta);
    }

    /// Value of a recorded metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Value (as JSON text) of a metadata entry.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether every check passed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The metadata line: one JSON object.
    pub fn meta_line(&self) -> String {
        let mut out = String::from("{\"meta\": {");
        for (i, (key, value)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {}", json_string(key), value);
        }
        out.push_str("}}");
        out
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`. Values print with all their digits (Rust's shortest
    /// round-trip form); a non-finite value prints as 0 and makes the
    /// run incorrect.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                value,
                json_string(m.unit)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of the samples (mean of the middle two for even counts);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]`; 0 for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the nearest-rank percentile `q`.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = percentile(samples, q);
    samples.iter().filter(|&&x| x > cut).count()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("build_s", 1.25, "s");
        o.metric("spanner_edges", 648760.0, "count");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"build_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"spanner_edges\": {\"value\": 648760, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn violations_and_non_finite_values_make_a_run_incorrect() {
        let mut o = Outcome::default();
        o.metric("x", f64::NAN, "s");
        assert!(!o.correct());
        assert!(o.result_line().contains("\"value\": 0,"));
        let mut o = Outcome::default();
        o.check(false, || "boom".into());
        assert!(!o.correct());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(median(&xs), 500.5);
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(beyond(&xs, 0.99), 10);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
