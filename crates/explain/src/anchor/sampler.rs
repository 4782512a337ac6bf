//! Rule-conditioned sampling behind a pluggable interface.
//!
//! All of Anchor's classifier traffic flows through [`RuleSampler`]. The
//! default [`FreshRuleSampler`] generates every sample from scratch (the
//! sequential baseline); the `shahin` crate supplies a caching
//! implementation that bootstraps counts from materialized perturbations
//! and memoizes coverage — without touching the search or bandit logic.

use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin_fim::{Item, Itemset};
use shahin_model::Classifier;
use shahin_tabular::DiscreteTable;

use crate::context::ExplainContext;
use crate::perturb::labeled_perturbation;

/// Source of rule-conditioned, classifier-labeled samples plus the
/// invariant per-rule statistics (coverage).
pub trait RuleSampler {
    /// Draws up to `k` perturbations conditioned on `rule` (rule items
    /// frozen, everything else resampled from the training distribution),
    /// invokes the classifier on each, and returns
    /// `(drawn, positive)` where `positive` counts *positive-class*
    /// predictions. May draw fewer than `k` (e.g. a budget-capped cache);
    /// returning `(0, _)` means the source is exhausted for this rule.
    fn draw(&mut self, rule: &Itemset, k: usize) -> (u64, u64);

    /// Pre-existing counts for `rule` available without any classifier
    /// invocation (Shahin's bootstrap from materialized supersets/subsets,
    /// paper §3.2). The default has none.
    fn prior(&mut self, rule: &Itemset) -> (u64, u64) {
        let _ = rule;
        (0, 0)
    }

    /// Coverage of `rule`: the fraction of data tuples satisfying its
    /// predicate. Invariant across tuples — Shahin materializes it.
    fn coverage(&mut self, rule: &Itemset) -> f64;
}

/// Row bitmaps of a discretized row sample, one per `(attribute, code)`,
/// so a rule's coverage is the popcount of the AND of its items' bitmaps
/// instead of a scan over every row.
#[derive(Clone, Debug)]
pub(crate) struct CoverageBitmaps {
    n_rows: usize,
    /// `u64` words per bitmap.
    words: usize,
    /// Attribute `a` owns bitmaps `offsets[a]..offsets[a + 1]`, one per
    /// code from 0 up to the largest code in its column.
    offsets: Vec<usize>,
    bits: Vec<u64>,
}

impl CoverageBitmaps {
    /// Indexes every row of `table`.
    pub(crate) fn new(table: &DiscreteTable) -> CoverageBitmaps {
        let n_rows = table.n_rows();
        let words = n_rows.div_ceil(64);
        let mut offsets = vec![0];
        for a in 0..table.n_attrs() {
            let n_codes = table.column(a).iter().max().map_or(0, |&c| c as usize + 1);
            offsets.push(offsets[a] + n_codes);
        }
        let mut bits = vec![0u64; offsets[table.n_attrs()] * words];
        for a in 0..table.n_attrs() {
            for (r, &c) in table.column(a).iter().enumerate() {
                bits[(offsets[a] + c as usize) * words + r / 64] |= 1 << (r % 64);
            }
        }
        CoverageBitmaps {
            n_rows,
            words,
            offsets,
            bits,
        }
    }

    /// The rows holding `item`; `None` when no row does because the code
    /// (or the attribute) lies outside the indexed domain.
    fn bitmap(&self, item: Item) -> Option<&[u64]> {
        let attr = item.attr as usize;
        let (&start, &end) = (self.offsets.get(attr)?, self.offsets.get(attr + 1)?);
        let code = item.code as usize;
        if code >= end - start {
            return None;
        }
        let at = (start + code) * self.words;
        Some(&self.bits[at..at + self.words])
    }

    /// Fraction of rows satisfying every item of `rule`: 1 for the empty
    /// rule, 0 over an empty sample. Bit-identical to counting the rows.
    pub(crate) fn coverage(&self, rule: &Itemset) -> f64 {
        if self.n_rows == 0 {
            return 0.0;
        }
        self.hits(rule) as f64 / self.n_rows as f64
    }

    /// Rows satisfying every item of `rule`.
    fn hits(&self, rule: &Itemset) -> usize {
        let mut items = rule.items().iter();
        let Some(&first) = items.next() else {
            return self.n_rows;
        };
        let Some(first) = self.bitmap(first) else {
            return 0;
        };
        let mut acc = first.to_vec();
        for &item in items {
            let Some(rows) = self.bitmap(item) else {
                return 0;
            };
            for (a, &r) in acc.iter_mut().zip(rows) {
                *a &= r;
            }
        }
        acc.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The baseline sampler: every draw generates fresh perturbations and
/// invokes the classifier; coverage is recomputed on every call (from the
/// context's row bitmaps).
pub struct FreshRuleSampler<'a, C> {
    ctx: &'a ExplainContext,
    clf: &'a C,
    rng: StdRng,
}

impl<'a, C: Classifier> FreshRuleSampler<'a, C> {
    /// Creates a sampler with its own deterministic RNG stream.
    pub fn new(ctx: &'a ExplainContext, clf: &'a C, seed: u64) -> Self {
        FreshRuleSampler {
            ctx,
            clf,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<C: Classifier> RuleSampler for FreshRuleSampler<'_, C> {
    fn draw(&mut self, rule: &Itemset, k: usize) -> (u64, u64) {
        let mut positive = 0u64;
        for _ in 0..k {
            let s = labeled_perturbation(self.ctx, self.clf, rule, &mut self.rng);
            if s.proba >= 0.5 {
                positive += 1;
            }
        }
        (k as u64, positive)
    }

    fn coverage(&mut self, rule: &Itemset) -> f64 {
        self.ctx.rule_coverage(rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shahin_fim::Item;
    use shahin_model::{CountingClassifier, MajorityClass};
    use shahin_tabular::DatasetPreset;

    fn ctx() -> ExplainContext {
        let (data, _) = DatasetPreset::Recidivism.spec(0.02).generate(1);
        let mut rng = StdRng::seed_from_u64(0);
        ExplainContext::fit(&data, 500, &mut rng)
    }

    #[test]
    fn draw_invokes_classifier_k_times() {
        let ctx = ctx();
        let clf = CountingClassifier::new(MajorityClass::fit(&[1]));
        let mut s = FreshRuleSampler::new(&ctx, &clf, 7);
        let (n, pos) = s.draw(&Itemset::new(vec![Item::new(0, 1)]), 25);
        assert_eq!(n, 25);
        assert_eq!(pos, 25); // classifier always says positive
        assert_eq!(clf.invocations(), 25);
    }

    #[test]
    fn default_prior_is_empty() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut s = FreshRuleSampler::new(&ctx, &clf, 7);
        assert_eq!(s.prior(&Itemset::new(vec![])), (0, 0));
    }

    #[test]
    fn coverage_of_empty_rule_is_one() {
        let ctx = ctx();
        let clf = MajorityClass::fit(&[1]);
        let mut s = FreshRuleSampler::new(&ctx, &clf, 7);
        assert_eq!(s.coverage(&Itemset::new(vec![])), 1.0);
    }

    /// The oracle: counts the rows of `table` satisfying `rule`.
    fn scan_coverage(table: &DiscreteTable, rule: &Itemset) -> f64 {
        if table.n_rows() == 0 {
            return 0.0;
        }
        let hits = (0..table.n_rows())
            .filter(|&r| {
                rule.items()
                    .iter()
                    .all(|it| table.code(r, it.attr as usize) == it.code)
            })
            .count();
        hits as f64 / table.n_rows() as f64
    }

    #[test]
    fn coverage_matches_brute_force() {
        let table = DiscreteTable::new(vec![vec![0, 0, 1, 1, 0], vec![2, 2, 2, 3, 3]]);
        let index = CoverageBitmaps::new(&table);
        let rule = Itemset::new(vec![Item::new(0, 0), Item::new(1, 2)]);
        assert_eq!(index.coverage(&rule), 2.0 / 5.0);
        let rule1 = Itemset::new(vec![Item::new(1, 2)]);
        assert_eq!(index.coverage(&rule1), 3.0 / 5.0);
        assert_eq!(index.coverage(&Itemset::new(vec![Item::new(1, 7)])), 0.0);
    }

    #[test]
    fn coverage_of_empty_table_is_zero() {
        let table = DiscreteTable::new(vec![vec![]]);
        let index = CoverageBitmaps::new(&table);
        assert_eq!(index.coverage(&Itemset::new(vec![])), 0.0);
        assert_eq!(index.coverage(&Itemset::new(vec![Item::new(0, 0)])), 0.0);
    }

    #[test]
    fn context_coverage_matches_the_row_scan() {
        let ctx = ctx();
        for attr in 0..ctx.n_attrs() {
            for code in 0..=ctx.discretizer().n_codes(attr) {
                let rule = Itemset::new(vec![
                    Item::new(attr, code),
                    Item::new((attr + 1) % ctx.n_attrs(), 0),
                ]);
                assert_eq!(
                    ctx.rule_coverage(&rule).to_bits(),
                    scan_coverage(ctx.coverage_sample(), &rule).to_bits(),
                    "rule {rule}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Bitmap coverage equals the row count on random tables (row
        /// counts either side of a 64-row word boundary, and empty) and
        /// random rules, including the empty rule and codes beyond a
        /// column's domain.
        #[test]
        fn bitmap_coverage_equals_row_scan(
            n_attrs in 1usize..6,
            n_rows in 0usize..200,
            cards in proptest::collection::vec(1u32..6, 6),
            cells in proptest::collection::vec(0u64..u64::MAX, 6 * 200),
            rules in proptest::collection::vec(
                proptest::collection::btree_map(0usize..6, 0u32..8, 0..4), 1..12),
        ) {
            use proptest::prelude::prop_assert_eq;
            let cols: Vec<Vec<u32>> = (0..n_attrs)
                .map(|a| (0..n_rows).map(|r| (cells[a * 200 + r] % u64::from(cards[a])) as u32).collect())
                .collect();
            let table = DiscreteTable::new(cols);
            let index = CoverageBitmaps::new(&table);
            for rule in rules {
                let rule = Itemset::new(
                    rule.into_iter()
                        .filter(|&(a, _)| a < n_attrs)
                        .map(|(a, c)| Item::new(a, c))
                        .collect(),
                );
                prop_assert_eq!(
                    index.coverage(&rule).to_bits(),
                    scan_coverage(&table, &rule).to_bits(),
                    "rule {}", rule
                );
            }
        }
    }
}
