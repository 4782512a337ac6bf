//! Order statistics, explanation fingerprints and agreement measures.

use shahin::Explanation;

/// Percentiles the tail helper may report, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample it came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// Nearest-rank percentile `pct` of `sorted` (ascending, non-empty): the
/// value at 1-based rank `ceil(pct/100 · n)`.
fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct) - 1]
}

fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps decimal percentiles like 99.9, which binary
    // floating point stores slightly high, from rounding up a rank.
    ((pct / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest percentile of `values` with at least [`MIN_BEYOND`]
/// samples beyond its rank, or `None` when even the median lacks them.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_PERCENTILES
        .iter()
        .find(|&&pct| n > 0 && n - rank(n, pct) >= MIN_BEYOND)
        .map(|&pct| Tail {
            pct,
            value: nearest_rank(&sorted, pct),
            n,
        })
}

/// Nearest-rank percentile `pct` of unsorted `values`; NaN when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        f64::NAN
    } else {
        nearest_rank(&sorted, pct)
    }
}

/// Median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// FNV-1a over the bit-exact content of every explanation.
pub use shahin_bench::explanation_fingerprint as fingerprint;

/// The attribute with the heaviest weight (by magnitude, lowest index on
/// ties): the attribution's headline reason.
fn top_feature(weights: &[f64]) -> Option<usize> {
    (0..weights.len()).max_by(|&a, &b| {
        weights[a]
            .abs()
            .total_cmp(&weights[b].abs())
            .then(b.cmp(&a))
    })
}

/// The indicator vector of an Anchor rule's attributes, so Kendall-τ
/// compares which attributes two rules rest on.
fn rule_weights(e: &Explanation, n_attrs: usize) -> Vec<f64> {
    let mut w = vec![0.0; n_attrs];
    for item in e.rule().expect("anchor explanation").rule.items() {
        w[usize::from(item.attr)] = 1.0;
    }
    w
}

/// Mean Kendall-τ between two runs over the same tuples: of the weight
/// rankings for attributions (`runner::attribution_fidelity`), of the
/// rule-induced rankings for Anchor.
pub fn kendall_tau_vs(a: &[Explanation], b: &[Explanation], n_attrs: usize) -> f64 {
    match a.first() {
        Some(Explanation::Weights(_)) => shahin::runner::attribution_fidelity(a, b).1,
        _ => {
            assert_eq!(a.len(), b.len(), "batch size mismatch");
            let total: f64 = a
                .iter()
                .zip(b)
                .map(|(x, y)| {
                    shahin_linalg::kendall_tau(&rule_weights(x, n_attrs), &rule_weights(y, n_attrs))
                })
                .sum();
            total / a.len() as f64
        }
    }
}

/// Fraction of tuples whose explanations give the same reason: identical
/// rules for Anchor (`runner::rule_agreement`), the same heaviest feature
/// for attributions.
pub fn rule_agreement_vs(a: &[Explanation], b: &[Explanation]) -> f64 {
    match a.first() {
        Some(Explanation::Rule(_)) => shahin::runner::rule_agreement(a, b),
        _ => {
            assert_eq!(a.len(), b.len(), "batch size mismatch");
            let same = a
                .iter()
                .zip(b)
                .filter(|(x, y)| {
                    let (wx, wy) = (x.weights().expect("weights"), y.weights().expect("weights"));
                    top_feature(&wx.weights) == top_feature(&wy.weights)
                })
                .count();
            same as f64 / a.len() as f64
        }
    }
}

/// Whether every explanation is usable: finite weights, or a rule with at
/// least one predicate and a finite precision.
pub fn all_usable(explanations: &[Explanation]) -> bool {
    explanations.iter().all(|e| match e {
        Explanation::Weights(w) => w
            .weights
            .iter()
            .chain([&w.intercept, &w.local_prediction])
            .all(|v| v.is_finite()),
        Explanation::Rule(r) => !r.rule.items().is_empty() && r.precision.is_finite(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_reports_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Some(Tail {
                pct: 99.0,
                value: 990.0,
                n: 1000
            })
        );
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().pct, 99.9);
        // 999 samples: p99 has only 9 beyond it, p95 has 49.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.n), (95.0, 999));
        assert_eq!(t.value, 950.0);
        // 20 samples support only the median; 19 support nothing.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().pct, 50.0);
        assert_eq!(tail(&v[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        let t = tail(&v).unwrap();
        assert_eq!((t.pct, t.value), (95.0, 190.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn top_feature_is_the_heaviest_by_magnitude() {
        assert_eq!(top_feature(&[0.1, -0.9, 0.5, 0.3, 0.0]), Some(1));
        assert_eq!(
            top_feature(&[0.5, -0.5]),
            Some(0),
            "ties go to the lower index"
        );
        assert_eq!(top_feature(&[]), None);
    }
}
