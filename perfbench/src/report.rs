//! Results of one run and how they are printed: a human-readable row per
//! workload, then one JSON object as the last line of standard output.

use std::fmt::Write;

/// The end-to-end metrics every untraced run reports in its JSON line,
/// in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("cpu_us_per_req", "us"),
    ("queries_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `us`.
    pub unit: &'static str,
}

impl Metric {
    /// Build a metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered correctly.
    pub succeeded: u64,
    /// Requests that failed, were shed, or were answered wrongly.
    pub failed: u64,
    /// Whole-run checks (e.g. agent traffic, delta accounting) held.
    pub checks_ok: bool,
    /// Metrics for the JSON line: the end-to-end set, or the per-layer
    /// set in a traced run.
    pub metrics: Vec<Metric>,
    /// Further figures printed in the row only.
    pub extra: Vec<Metric>,
    /// Free-text notes (failed checks, inputs).
    pub notes: Vec<String>,
}

impl RunResult {
    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Every answer and every whole-run check was right.
    pub fn correct(&self) -> bool {
        self.checks_ok && self.failed == 0 && self.attempted > 0
    }

    /// The human-readable row: every figure with its unit.
    pub fn row(&self) -> String {
        let mut out = format!("{:<17}", self.workload);
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = write!(out, " | {}={} {}", m.name, fmt_value(m.value), m.unit);
        }
        let _ = write!(
            out,
            " | error_rate={} | sent={} succeeded={} failed={}",
            fmt_value(self.error_rate()),
            self.attempted,
            self.succeeded,
            self.failed
        );
        out
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics
        )
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// A finite JSON number with all its digits (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            workload: "w".into(),
            attempted: 10,
            succeeded: 10,
            failed: 0,
            checks_ok: true,
            metrics: vec![
                Metric::new("p50_us", 12.5, "us"),
                Metric::new("setup_s", 1.0, "s"),
            ],
            extra: vec![Metric::new("max_qps", 4000.0, "1/s")],
            notes: vec![],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}}}"
        );
        assert!(r.row().contains("max_qps=4000 1/s"));
        assert!(r.row().contains("error_rate=0"));
        let bad = RunResult { failed: 1, ..r };
        assert!(!bad.correct());
        assert_eq!(bad.error_rate(), 0.1);
    }
}
