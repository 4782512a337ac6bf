//! LIME: Local Interpretable Model-agnostic Explanations (tabular mode).
//!
//! Faithful to the reference `lime_tabular` pipeline (paper §3.1):
//!
//! 1. discretize the instance; draw `N − 1` perturbations by sampling every
//!    attribute independently from the training frequency distribution,
//! 2. invoke the black box on each perturbation (the 88%-of-runtime step),
//! 3. map each perturbation to the binary interpretable space
//!    `z_j = 1 ⇔ sampled code == instance code`, weight it by the
//!    exponential proximity kernel,
//! 4. fit weighted ridge regression; its coefficients are the explanation.
//!
//! [`LimeExplainer::explain_with_reused`] additionally accepts pre-labeled
//! samples (Algorithm 1 line 6: "retrieve reusable samples and labels"),
//! generating only the remaining `N − 1 − |S|` perturbations fresh.

use rand::Rng;

use shahin_fim::Itemset;
use shahin_linalg::{default_kernel_width, exponential_kernel, ridge, Matrix};
use shahin_model::Classifier;
use shahin_tabular::Feature;

use crate::context::ExplainContext;
use crate::explanation::FeatureWeights;
use crate::perturb::{labeled_perturbation, sanitize_proba, LabeledSample, ReuseStats};

/// LIME hyperparameters.
#[derive(Clone, Debug)]
pub struct LimeParams {
    /// Total number of samples `N` (including the instance itself).
    pub n_samples: usize,
    /// Proximity kernel width; `None` uses LIME's default `0.75·√m`.
    pub kernel_width: Option<f64>,
    /// Ridge penalty for the surrogate (LIME's default is 1.0).
    pub alpha: f64,
}

impl Default for LimeParams {
    fn default() -> Self {
        LimeParams {
            n_samples: 500,
            kernel_width: None,
            alpha: 1.0,
        }
    }
}

/// The LIME explainer.
#[derive(Clone, Debug, Default)]
pub struct LimeExplainer {
    /// Hyperparameters.
    pub params: LimeParams,
}

impl LimeExplainer {
    /// Creates an explainer with the given parameters.
    pub fn new(params: LimeParams) -> LimeExplainer {
        LimeExplainer { params }
    }

    /// Explains one prediction, generating every perturbation fresh
    /// (the sequential baseline).
    pub fn explain(
        &self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        instance: &[Feature],
        rng: &mut impl Rng,
    ) -> FeatureWeights {
        self.explain_with_reused(ctx, clf, instance, std::iter::empty(), rng)
    }

    /// Explains one prediction, pooling `reused` pre-labeled samples first
    /// and topping up with fresh perturbations to reach `N` total samples.
    ///
    /// Reused samples whose frozen itemset is contained in the instance are
    /// distributed identically to fresh LIME perturbations conditioned on
    /// those attributes matching (paper §3.6), so this changes neither the
    /// surrogate's input distribution nor the explanation semantics.
    pub fn explain_with_reused<'a>(
        &self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        instance: &[Feature],
        reused: impl IntoIterator<Item = &'a LabeledSample>,
        rng: &mut impl Rng,
    ) -> FeatureWeights {
        self.explain_with_reused_counted(ctx, clf, instance, reused, rng)
            .0
    }

    /// [`LimeExplainer::explain_with_reused`], additionally reporting the
    /// reuse accounting ([`ReuseStats`]): how many of the `N − 1`
    /// perturbation rows came from `reused` versus fresh generation, and
    /// the classifier invocations consumed. Drivers turn this into the
    /// per-tuple provenance record.
    pub fn explain_with_reused_counted<'a>(
        &self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        instance: &[Feature],
        reused: impl IntoIterator<Item = &'a LabeledSample>,
        rng: &mut impl Rng,
    ) -> (FeatureWeights, ReuseStats) {
        let m = ctx.n_attrs();
        assert_eq!(instance.len(), m, "instance arity mismatch");
        assert!(self.params.n_samples >= 2, "need at least 2 samples");
        let inst_codes = ctx.discretizer().encode_instance(instance);
        let width = self
            .params
            .kernel_width
            .unwrap_or_else(|| default_kernel_width(m));

        let n = self.params.n_samples;
        let mut z = Matrix::zeros(n, m);
        let mut y = vec![0.0; n];
        let mut w = vec![0.0; n];

        let mut stats = ReuseStats {
            invocations: 1, // the instance probe below
            ..ReuseStats::default()
        };

        // Row 0: the instance itself (all-ones interpretable vector).
        let fx = sanitize_proba(clf.predict_proba(instance), &mut stats);
        z.row_mut(0).fill(1.0);
        y[0] = fx;
        w[0] = 1.0;
        let mut reused = reused.into_iter();
        let empty = Itemset::new(vec![]);
        for row in 1..n {
            let fresh;
            let (codes, proba): (&[u32], f64) = match reused.next() {
                Some(s) => {
                    stats.reused += 1;
                    (&s.codes, s.proba)
                }
                None => {
                    fresh = labeled_perturbation(ctx, clf, &empty, rng);
                    stats.fresh += 1;
                    stats.invocations += 1;
                    (&fresh.codes, fresh.proba)
                }
            };
            // Binary interpretable representation + distance.
            let mut zeros = 0usize;
            let zrow = z.row_mut(row);
            for j in 0..m {
                if codes[j] == inst_codes[j] {
                    zrow[j] = 1.0;
                } else {
                    zeros += 1;
                }
            }
            y[row] = sanitize_proba(proba, &mut stats);
            let distance = (zeros as f64).sqrt();
            w[row] = exponential_kernel(distance, width);
        }

        let fit = ridge(&z, &y, &w, self.params.alpha);
        let local_prediction = fit.predict(&vec![1.0; m]);
        (
            FeatureWeights {
                weights: fit.coefficients,
                intercept: fit.intercept,
                local_prediction,
            },
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_model::{CountingClassifier, MajorityClass};
    use shahin_tabular::{Attribute, Column, Dataset, DatasetPreset, Schema};
    use std::sync::Arc;

    fn small_ctx() -> (ExplainContext, Dataset) {
        let (data, _) = DatasetPreset::Recidivism.spec(0.02).generate(3);
        let mut rng = StdRng::seed_from_u64(0);
        let ctx = ExplainContext::fit(&data, 200, &mut rng);
        (ctx, data)
    }

    /// A classifier keyed on a single categorical attribute.
    struct KeyAttr {
        attr: usize,
        code: u32,
    }
    impl Classifier for KeyAttr {
        fn predict_proba(&self, instance: &[Feature]) -> f64 {
            f64::from(instance[self.attr].cat() == self.code)
        }
    }

    #[test]
    fn classifier_invocations_equal_n_samples() {
        let (ctx, data) = small_ctx();
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(1);
        lime.explain(&ctx, &clf, &data.instance(0), &mut rng);
        // 1 for the instance + 99 perturbations.
        assert_eq!(clf.invocations(), 100);
    }

    #[test]
    fn reuse_cuts_invocations_exactly() {
        let (ctx, data) = small_ctx();
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(2);
        // Pre-label 40 samples.
        let empty = Itemset::new(vec![]);
        let reused: Vec<LabeledSample> = (0..40)
            .map(|_| labeled_perturbation(&ctx, &clf, &empty, &mut rng))
            .collect();
        clf.reset();
        lime.explain_with_reused(&ctx, &clf, &data.instance(0), &reused, &mut rng);
        // 1 (instance) + 59 fresh.
        assert_eq!(clf.invocations(), 60);
    }

    #[test]
    fn counted_variant_reports_exact_reuse_stats() {
        let (ctx, data) = small_ctx();
        let clf = CountingClassifier::new(MajorityClass::fit(&[1, 0]));
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(2);
        let empty = Itemset::new(vec![]);
        let reused: Vec<LabeledSample> = (0..40)
            .map(|_| labeled_perturbation(&ctx, &clf, &empty, &mut rng))
            .collect();
        clf.reset();
        let (_, stats) =
            lime.explain_with_reused_counted(&ctx, &clf, &data.instance(0), &reused, &mut rng);
        assert_eq!(stats.reused, 40);
        assert_eq!(stats.fresh, 59);
        assert_eq!(stats.tau(), 99); // n_samples − 1 perturbation rows
        assert_eq!(stats.invocations, 60);
        assert_eq!(stats.invocations, clf.invocations());
    }

    #[test]
    fn key_attribute_gets_top_weight() {
        // Classifier depends only on attribute 2; LIME must rank it first.
        let schema = Arc::new(Schema::new(vec![
            Attribute::categorical("a", 3),
            Attribute::categorical("b", 3),
            Attribute::categorical("c", 2),
        ]));
        let mut rng = StdRng::seed_from_u64(3);
        let n = 600;
        let cols = vec![
            Column::Cat((0..n).map(|_| rng.gen_range(0..3)).collect()),
            Column::Cat((0..n).map(|_| rng.gen_range(0..3)).collect()),
            Column::Cat((0..n).map(|_| rng.gen_range(0..2)).collect()),
        ];
        let data = Dataset::new(schema, cols);
        let ctx = ExplainContext::fit(&data, 200, &mut rng);
        let clf = KeyAttr { attr: 2, code: 1 };
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 400,
            ..Default::default()
        });
        let instance = vec![Feature::Cat(0), Feature::Cat(1), Feature::Cat(1)];
        let e = lime.explain(&ctx, &clf, &instance, &mut rng);
        assert_eq!(e.ranking()[0], 2, "weights: {:?}", e.weights);
        assert!(e.weights[2] > 0.0, "key weight should be positive");
    }

    #[test]
    fn weight_sign_flips_with_class() {
        let schema = Arc::new(Schema::new(vec![
            Attribute::categorical("a", 2),
            Attribute::categorical("b", 2),
        ]));
        let mut rng = StdRng::seed_from_u64(4);
        let n = 400;
        let cols = vec![
            Column::Cat((0..n).map(|_| rng.gen_range(0..2)).collect()),
            Column::Cat((0..n).map(|_| rng.gen_range(0..2)).collect()),
        ];
        let data = Dataset::new(schema, cols);
        let ctx = ExplainContext::fit(&data, 100, &mut rng);
        let clf = KeyAttr { attr: 0, code: 1 };
        let lime = LimeExplainer::new(LimeParams {
            n_samples: 300,
            ..Default::default()
        });
        // Instance whose attr0 = 1 (classifier says positive): holding
        // attr0 fixed should push toward positive → positive weight.
        let pos_inst = vec![Feature::Cat(1), Feature::Cat(0)];
        let e_pos = lime.explain(&ctx, &clf, &pos_inst, &mut rng);
        assert!(e_pos.weights[0] > 0.0, "{:?}", e_pos.weights);
        // Instance whose attr0 = 0 (negative): keeping it at 0 pushes away
        // from positive → negative weight.
        let neg_inst = vec![Feature::Cat(0), Feature::Cat(0)];
        let e_neg = lime.explain(&ctx, &clf, &neg_inst, &mut rng);
        assert!(e_neg.weights[0] < 0.0, "{:?}", e_neg.weights);
    }

    #[test]
    fn deterministic_under_seed() {
        let (ctx, data) = small_ctx();
        let clf = MajorityClass::fit(&[1, 0, 0]);
        let lime = LimeExplainer::default();
        let e1 = lime.explain(&ctx, &clf, &data.instance(5), &mut StdRng::seed_from_u64(9));
        let e2 = lime.explain(&ctx, &clf, &data.instance(5), &mut StdRng::seed_from_u64(9));
        assert_eq!(e1, e2);
    }

    #[test]
    fn constant_classifier_gives_near_zero_weights() {
        let (ctx, data) = small_ctx();
        let clf = MajorityClass::fit(&[1, 1, 1, 1, 0, 0, 0, 0]);
        let lime = LimeExplainer::default();
        let mut rng = StdRng::seed_from_u64(10);
        let e = lime.explain(&ctx, &clf, &data.instance(0), &mut rng);
        for &w in &e.weights {
            assert!(w.abs() < 1e-9, "weights should vanish: {:?}", e.weights);
        }
        assert!((e.intercept - 0.5).abs() < 1e-9);
    }
}
