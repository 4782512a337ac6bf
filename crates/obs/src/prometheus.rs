//! Prometheus text-format exposition of a [`MetricsSnapshot`]:
//! label-free v1 of the `/metrics` wire format, rendered on demand by
//! the serve `metrics` admin frame and writable next to the JSON export.
//!
//! Mapping from the registry's model:
//!
//! * counters → `name_total` with a `# TYPE name_total counter` header;
//! * gauges → `name` with `# TYPE name gauge`;
//! * nanosecond histograms → `name_ns` families: cumulative
//!   `name_ns_bucket{le="..."}` rows (one per occupied log2 bucket, the
//!   catch-all rendered as `le="+Inf"`, plus an explicit `+Inf` row so
//!   the family is always well-formed), `name_ns_sum`, `name_ns_count`;
//! * unitless value histograms → the same shape without the `_ns`
//!   suffix.
//!
//! Dotted metric names are sanitized to `[a-zA-Z0-9_]` (dots and dashes
//! become underscores). The registry's naming convention keeps sanitized
//! names collision-free; exposition is deterministic (BTreeMap order).

use std::fmt::Write as _;

use crate::registry::bucket_upper_ns;
use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};

/// Sanitizes a dotted metric name into a Prometheus-legal identifier.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Emits one `# EXEMPLAR` comment per stamped bucket, after the family's
/// sample lines (comment placement matters: a `# TYPE` header must be
/// followed immediately by a sample of its family). The label-free v1
/// exposition has no native exemplar syntax, so these ride as comments a
/// human or the check scripts can join against retained traces.
fn push_exemplar_comments(out: &mut String, base: &str, exemplars: &[(usize, u64)]) {
    for &(i, trace_id) in exemplars {
        let le = bucket_upper_ns(i);
        if le == u64::MAX {
            writeln!(
                out,
                "# EXEMPLAR {base}_bucket{{le=\"+Inf\"}} trace_id={trace_id}"
            )
            .unwrap();
        } else {
            writeln!(
                out,
                "# EXEMPLAR {base}_bucket{{le=\"{le}\"}} trace_id={trace_id}"
            )
            .unwrap();
        }
    }
}

fn push_histogram_family(out: &mut String, base: &str, h: &HistogramSnapshot) {
    writeln!(out, "# TYPE {base} histogram").unwrap();
    let mut cumulative = 0u64;
    for &(i, n) in &h.buckets {
        cumulative += n;
        let le = bucket_upper_ns(i);
        if le == u64::MAX {
            // The catch-all bucket *is* +Inf; the explicit row below
            // would duplicate the series, so let it carry the total.
            break;
        }
        writeln!(out, "{base}_bucket{{le=\"{le}\"}} {cumulative}").unwrap();
    }
    writeln!(out, "{base}_bucket{{le=\"+Inf\"}} {}", h.count).unwrap();
    writeln!(out, "{base}_sum {}", h.sum_ns).unwrap();
    writeln!(out, "{base}_count {}", h.count).unwrap();
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    /// Every emitted family carries a `# TYPE` header followed by at
    /// least one sample line; series names are unique by construction.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, &v) in &self.counters {
            let base = sanitize_name(name);
            writeln!(out, "# TYPE {base}_total counter").unwrap();
            writeln!(out, "{base}_total {v}").unwrap();
        }
        for (name, &v) in &self.gauges {
            let base = sanitize_name(name);
            writeln!(out, "# TYPE {base} gauge").unwrap();
            writeln!(out, "{base} {v}").unwrap();
        }
        for (name, h) in &self.histograms {
            let base = format!("{}_ns", sanitize_name(name));
            push_histogram_family(&mut out, &base, h);
            if let Some(ex) = self.exemplars.get(name) {
                push_exemplar_comments(&mut out, &base, ex);
            }
        }
        for (name, h) in &self.value_histograms {
            let base = sanitize_name(name);
            push_histogram_family(&mut out, &base, h);
            if let Some(ex) = self.exemplars.get(name) {
                push_exemplar_comments(&mut out, &base, ex);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn sample() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests").add(42);
        reg.gauge("serve.queue_depth").set(3);
        let h = reg.histogram("serve.request_latency");
        h.record_ns(900);
        h.record_ns(1_500);
        h.record_ns(u64::MAX); // saturates into the catch-all bucket
        reg.value_histogram("serve.batch_size").record(8);
        reg.snapshot()
    }

    #[test]
    fn sanitization_maps_dots_and_leading_digits() {
        assert_eq!(
            sanitize_name("serve.request_latency"),
            "serve_request_latency"
        );
        assert_eq!(sanitize_name("a-b.c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn families_have_types_and_samples() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE serve_requests_total counter\nserve_requests_total 42\n"));
        assert!(text.contains("# TYPE serve_queue_depth gauge\nserve_queue_depth 3\n"));
        assert!(text.contains("# TYPE serve_request_latency_ns histogram\n"));
        assert!(text.contains("serve_request_latency_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("serve_request_latency_ns_count 3\n"));
        assert!(text.contains("# TYPE serve_batch_size histogram\n"));
        assert!(text.contains("serve_batch_size_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("serve_batch_size_sum 8\n"));
    }

    #[test]
    fn buckets_are_cumulative_and_inf_is_unique() {
        let text = sample().to_prometheus();
        let buckets: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("serve_request_latency_ns_bucket"))
            .collect();
        // 900 and 1500 land in finite buckets; u64::MAX lands in the
        // catch-all, which the explicit +Inf row accounts for.
        let counts: Vec<u64> = buckets
            .iter()
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(*counts.last().unwrap(), 3);
        assert_eq!(
            buckets.iter().filter(|l| l.contains("+Inf")).count(),
            1,
            "exactly one +Inf row:\n{text}"
        );
    }

    #[test]
    fn series_names_are_unique() {
        let text = sample().to_prometheus();
        let mut seen = std::collections::BTreeSet::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let series = line.rsplit_once(' ').unwrap().0;
            assert!(seen.insert(series.to_string()), "duplicate series {series}");
        }
    }

    #[test]
    fn every_type_header_is_followed_by_samples() {
        let text = sample().to_prometheus();
        for (i, line) in text.lines().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let fam = rest.split(' ').next().unwrap();
                let next = text.lines().nth(i + 1).unwrap_or("");
                assert!(next.starts_with(fam), "family {fam} has no samples");
            }
        }
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(MetricsSnapshot::default().to_prometheus(), "");
    }

    #[test]
    fn exemplar_comments_follow_their_family_samples() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("serve.request_latency");
        h.record_ns_traced(900, 17);
        h.record_ns_traced(u64::MAX, 23);
        let text = reg.snapshot().to_prometheus();
        assert!(
            text.contains("# EXEMPLAR serve_request_latency_ns_bucket{le=\"1023\"} trace_id=17\n"),
            "{text}"
        );
        assert!(
            text.contains("# EXEMPLAR serve_request_latency_ns_bucket{le=\"+Inf\"} trace_id=23\n"),
            "{text}"
        );
        // Comments come after the family's sample lines, never directly
        // after a # TYPE header.
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if line.starts_with("# EXEMPLAR") {
                assert!(
                    !lines[i - 1].starts_with("# TYPE"),
                    "exemplar comment directly after a TYPE header:\n{text}"
                );
            }
        }
        // Untraced snapshots emit no exemplar comments.
        assert!(!sample().to_prometheus().contains("# EXEMPLAR"));
    }
}
