//! Shared explanation context: everything fitted once on training data.

use std::sync::Arc;

use rand::Rng;

use shahin_fim::Itemset;
use shahin_tabular::{Dataset, DiscreteTable, Discretizer, Schema, TrainingStats};

use crate::anchor::sampler::CoverageBitmaps;

/// State every explainer needs, fitted once per (training set) and shared
/// across all explanations of a batch:
///
/// * the quartile [`Discretizer`],
/// * per-attribute training [`TrainingStats`] (the perturbation
///   distribution),
/// * a discretized sample of training rows used for Anchor coverage
///   estimation, with one row bitmap per `(attribute, code)` over it.
#[derive(Clone, Debug)]
pub struct ExplainContext {
    schema: Arc<Schema>,
    discretizer: Discretizer,
    stats: TrainingStats,
    coverage_sample: DiscreteTable,
    coverage_bitmaps: CoverageBitmaps,
}

impl ExplainContext {
    /// Fits the context on training data. `coverage_rows` caps the size of
    /// the row sample kept for coverage estimation (Anchor).
    pub fn fit(train: &Dataset, coverage_rows: usize, rng: &mut impl Rng) -> ExplainContext {
        assert!(train.n_rows() > 0, "need training data");
        let discretizer = Discretizer::fit(train);
        let table = discretizer.encode_dataset(train);
        let n_codes: Vec<u32> = (0..train.n_attrs())
            .map(|a| discretizer.n_codes(a))
            .collect();
        let stats = TrainingStats::fit(&table, &n_codes);
        let coverage_sample = if table.n_rows() <= coverage_rows {
            table
        } else {
            let idx: Vec<usize> =
                rand::seq::index::sample(rng, table.n_rows(), coverage_rows).into_vec();
            table.select(&idx)
        };
        let coverage_bitmaps = CoverageBitmaps::new(&coverage_sample);
        ExplainContext {
            schema: Arc::clone(train.schema()),
            discretizer,
            stats,
            coverage_sample,
            coverage_bitmaps,
        }
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of attributes.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.schema.len()
    }

    /// The fitted discretizer.
    #[inline]
    pub fn discretizer(&self) -> &Discretizer {
        &self.discretizer
    }

    /// Training frequency statistics over the discretized space.
    #[inline]
    pub fn stats(&self) -> &TrainingStats {
        &self.stats
    }

    /// The discretized training sample used for coverage estimation.
    #[inline]
    pub fn coverage_sample(&self) -> &DiscreteTable {
        &self.coverage_sample
    }

    /// Coverage of an Anchor rule: the fraction of coverage-sample rows
    /// satisfying every item (1 for the empty rule, 0 for codes no row
    /// holds), counted by ANDing the items' row bitmaps.
    pub fn rule_coverage(&self, rule: &Itemset) -> f64 {
        self.coverage_bitmaps.coverage(rule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_tabular::DatasetPreset;

    #[test]
    fn fit_produces_consistent_dimensions() {
        let (data, _) = DatasetPreset::Recidivism.spec(0.02).generate(1);
        let mut rng = StdRng::seed_from_u64(0);
        let ctx = ExplainContext::fit(&data, 100, &mut rng);
        assert_eq!(ctx.n_attrs(), data.n_attrs());
        assert_eq!(ctx.stats().n_attrs(), data.n_attrs());
        assert_eq!(ctx.coverage_sample().n_attrs(), data.n_attrs());
        assert!(ctx.coverage_sample().n_rows() <= 100);
    }

    #[test]
    fn coverage_sample_kept_whole_when_small() {
        let (data, _) = DatasetPreset::Recidivism.spec(0.005).generate(2);
        let mut rng = StdRng::seed_from_u64(1);
        let ctx = ExplainContext::fit(&data, 10_000, &mut rng);
        assert_eq!(ctx.coverage_sample().n_rows(), data.n_rows());
    }
}
