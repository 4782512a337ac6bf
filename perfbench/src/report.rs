//! The run's result line and its failure accounting.

use shahin::RunReport;

/// Attempted and failed operations of a run: tuples for the offline
/// workloads, requests for the served one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one offline explain call over `n_tuples` tuples: every
    /// quarantined tuple failed.
    pub fn add_run(&mut self, n_tuples: usize, run: &RunReport) {
        self.attempted += n_tuples as u64;
        self.failed += run.report.failures.len() as u64;
    }

    /// Counts served requests: `sent` attempted, of which `errors` were
    /// answered with an error frame and `missing` never answered in time.
    pub fn add_requests(&mut self, sent: u64, errors: u64, missing: u64) {
        self.attempted += sent;
        self.failed += errors + missing;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The JSON object printed as the last line of a run.
#[derive(Debug, Default)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Failure accounting.
    pub tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Adds one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("output check failed: {what}");
            self.correct = false;
        }
    }

    /// Puts the metrics in the order of `names`; a run that reports a
    /// different set of metrics is incorrect.
    pub fn expect_exactly(&mut self, names: &[&str]) {
        let mut ordered = Vec::with_capacity(names.len());
        for name in names {
            match self.metrics.iter().position(|(n, _, _)| n == name) {
                Some(i) => ordered.push(self.metrics.swap_remove(i)),
                None => self.check(false, &format!("metric {name} reported")),
            }
        }
        for (extra, _, _) in std::mem::replace(&mut self.metrics, ordered) {
            self.check(false, &format!("metric {extra} expected"));
        }
    }

    /// Renders the result line. Non-finite values, which JSON cannot
    /// carry, make the run incorrect and are written as 0.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// The unit of a per-layer metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_ratio") {
        "ratio"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name.ends_with("_mean") || name.ends_with("_per_call") {
        "mean"
    } else {
        "count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shahin::{FailureKind, TupleFailure};

    fn run_with_failures(n: usize) -> RunReport {
        let mut run = RunReport {
            metrics: Default::default(),
            explanations: Vec::new(),
            report: Default::default(),
        };
        for row in 0..n {
            run.report.failures.push(TupleFailure {
                row: row as u32,
                kind: FailureKind::Panic,
                message: "boom".into(),
            });
        }
        run
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        t.add_run(100, &run_with_failures(0));
        t.add_run(100, &run_with_failures(3));
        assert_eq!((t.attempted, t.failed), (200, 3));
        // Error frames and missing responses both fail a request.
        t.add_requests(50, 2, 5);
        assert_eq!((t.attempted, t.failed), (250, 10));
        assert!((t.failed_frac() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report::new();
        r.tally.add_requests(4, 1, 0);
        r.metric("p50_ms", 1.25, "ms");
        r.metric("setup_s", 3.0, "s");
        let line = r.to_json();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
        r.check(false, "demo");
        assert!(r.to_json().starts_with("{\"correct\": false"));
        let mut nan = Report::new();
        nan.metric("x", f64::NAN, "s");
        assert!(nan.to_json().starts_with("{\"correct\": false"));
    }
}
