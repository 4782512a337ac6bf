//! Shahin-Batch: the paper's Algorithms 1 (LIME), 2 (Anchor), 3 (SHAP).
//!
//! All three drivers share the same preparation phase: discretize the
//! batch, mine frequent itemsets over a `max(1000, 1%)` sample, and
//! materialize `τ` labeled perturbations per itemset in the
//! [`PerturbationStore`]. Per tuple, they retrieve the matching
//! materialized samples and hand them to the (unmodified) explainer's
//! reuse-aware entry point.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin_explain::{
    AnchorExplainer, AnchorExplanation, ExplainContext, FeatureWeights, KernelShapExplainer,
    LimeExplainer,
};
use shahin_fim::{apriori, sample_rows, AprioriParams, Itemset, MatchScratch};
use shahin_model::{Classifier, CountingClassifier};
use shahin_tabular::{Dataset, DiscreteTable};

use crate::anchor_cache::{CachingRuleSampler, SharedAnchorCaches};
use crate::config::BatchConfig;
use crate::metrics::{BatchReport, BatchResult, OverheadBreakdown, RunMetrics};
use crate::obs::{names, ProvenanceCtx};
use crate::quarantine::{guard_tuple, QuarantineObs, TupleOutcome};
use crate::runner::per_tuple_seed;
use crate::shap_source::StoreCoalitionSource;
use crate::store::PerturbationStore;
use shahin_obs::MetricsRegistry;

/// The batch-mode optimizer.
#[derive(Clone, Debug)]
pub struct ShahinBatch {
    /// Configuration.
    pub config: BatchConfig,
    /// Metrics registry the drivers record into. Disabled (all handles
    /// no-ops) unless set via [`ShahinBatch::with_obs`].
    pub(crate) obs: MetricsRegistry,
}

impl Default for ShahinBatch {
    fn default() -> Self {
        ShahinBatch::new(BatchConfig::default())
    }
}

/// Output of the shared preparation phase.
pub(crate) struct Prepared {
    pub(crate) table: DiscreteTable,
    pub(crate) store: PerturbationStore,
    pub(crate) fim_time: Duration,
    pub(crate) materialization_time: Duration,
}

impl ShahinBatch {
    /// Creates a batch optimizer (with observability disabled).
    pub fn new(config: BatchConfig) -> ShahinBatch {
        ShahinBatch {
            config,
            obs: MetricsRegistry::disabled(),
        }
    }

    /// Records spans, counters and gauges into `registry` during every
    /// subsequent run (see [`crate::obs`] for the name schema).
    pub fn with_obs(mut self, registry: &MetricsRegistry) -> ShahinBatch {
        self.obs = registry.clone();
        self
    }

    /// Lines 2–4 of each algorithm: sample, mine, materialize.
    /// `n_target` is the explainer's per-tuple sample budget, used by the
    /// automatic τ selection. Materialization runs on
    /// [`BatchConfig::n_threads`] workers seeded per itemset from `seed`,
    /// so the store is identical at every thread count.
    pub(crate) fn prepare<C: Classifier>(
        &self,
        ctx: &ExplainContext,
        clf: &C,
        batch: &Dataset,
        n_target: usize,
        seed: u64,
        rng: &mut StdRng,
    ) -> Prepared {
        let table = ctx.discretizer().encode_dataset(batch);

        let fim_span = self.obs.span(names::SPAN_FIM_MINE);
        let sample = sample_rows(&table, rng);
        let fim_params = AprioriParams {
            min_support: self.config.min_support,
            max_len: self.config.max_itemset_len,
            max_itemsets: self.config.max_itemsets,
        };
        let frequent = apriori(&sample, &fim_params).frequent;
        // Expected number of materialized itemsets a random batch tuple
        // contains = Σ_f support(f); a tuple pools ~τ·E[matched] samples.
        let n_sample_rows = sample.n_rows() as f64;
        let expected_matched: f64 = frequent
            .iter()
            .map(|(_, c)| *c as f64 / n_sample_rows)
            .sum::<f64>()
            .max(1e-9);
        let itemsets: Vec<Itemset> = frequent.into_iter().map(|(s, _)| s).collect();
        let fim_time = fim_span.stop();

        let fill_span = self.obs.span(names::SPAN_MATERIALIZE_FILL);
        let mut store = PerturbationStore::new(itemsets, self.config.cache_budget_bytes);
        store.attach_obs(&self.obs);
        // "The parameter τ is set automatically by Shahin based on the
        // resource constraints" (§3.1): τ only pays off up to the point
        // where pooled samples cover the explainer's per-tuple budget
        // (`n_target / E[matched]`), and the up-front cost must stay below
        // what reuse can ever recover (a quarter of the batch per itemset).
        let mut tau = self.config.tau.min((batch.n_rows() / 4).max(1));
        if self.config.auto_tau {
            let coverage_tau = (1.25 * n_target as f64 / expected_matched).ceil() as usize;
            tau = tau.min(coverage_tau.max(1));
        }
        store.materialize_parallel(ctx, clf, tau, seed, self.config.resolved_n_threads());
        let materialization_time = fill_span.stop();

        Prepared {
            table,
            store,
            fim_time,
            materialization_time,
        }
    }

    /// Algorithm 1: LIME for the EMP problem.
    pub fn explain_lime<C: Classifier>(
        &self,
        ctx: &ExplainContext,
        clf: &CountingClassifier<C>,
        batch: &Dataset,
        lime: &LimeExplainer,
        seed: u64,
    ) -> BatchResult<FeatureWeights> {
        let start_inv = clf.invocations();
        let wall0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prep = self.prepare(ctx, clf, batch, lime.params.n_samples, seed, &mut rng);
        let retrieve_hist = self.obs.span_histogram(names::SPAN_RETRIEVE_MATCH);
        let surrogate_hist = self.obs.span_histogram(names::SPAN_SURROGATE_FIT);
        let prov = ProvenanceCtx::new(&self.obs, "Shahin-Batch", "LIME");

        let quarantine = QuarantineObs::new(&self.obs);
        let mut retrieval = Duration::ZERO;
        let mut scratch = MatchScratch::new();
        let mut explanations = Vec::with_capacity(batch.n_rows());
        let mut report = BatchReport::default();
        for row in 0..batch.n_rows() {
            let outcome = guard_tuple(row as u32, &quarantine, |incidents0| {
                let t0 = prov.start();
                let mut tuple_rng = StdRng::seed_from_u64(per_tuple_seed(seed, row));
                let codes = prep.table.row(row);
                let retrieve = retrieve_hist.start();
                let (matched, lookup) = prep.store.matching_stats(&codes, &mut scratch);
                retrieval += retrieve.stop();
                let store = &prep.store;
                let pooled = matched.iter().flat_map(|&id| store.samples(id).iter());
                let instance = batch.instance(row);
                let _fit = surrogate_hist.start();
                let (weights, reuse) =
                    lime.explain_with_reused_counted(ctx, clf, &instance, pooled, &mut tuple_rng);
                let degraded = reuse.clamped > 0 || shahin_model::degraded_incidents() > incidents0;
                prov.record(
                    row as u32,
                    0,
                    &matched,
                    lookup,
                    reuse.reused,
                    reuse.fresh,
                    reuse.invocations,
                    (0, 0),
                    degraded,
                    t0,
                );
                (weights, degraded)
            });
            match outcome {
                TupleOutcome::Ok(weights) => explanations.push(weights),
                TupleOutcome::Degraded(weights) => {
                    explanations.push(weights);
                    report.degraded.push(row as u32);
                }
                TupleOutcome::Failed(failure) => report.failures.push(failure),
            }
        }

        BatchResult {
            explanations,
            metrics: RunMetrics {
                invocations: clf.invocations() - start_inv,
                wall: wall0.elapsed(),
                overhead: OverheadBreakdown {
                    fim: prep.fim_time,
                    materialization: prep.materialization_time,
                    retrieval,
                },
                store_bytes: prep.store.peak_bytes(),
                n_frequent: prep.store.len(),
                n_tuples: batch.n_rows(),
            },
            report,
        }
    }

    /// Algorithm 2: Anchor for the EMP problem.
    pub fn explain_anchor<C: Classifier>(
        &self,
        ctx: &ExplainContext,
        clf: &CountingClassifier<C>,
        batch: &Dataset,
        anchor: &AnchorExplainer,
        seed: u64,
    ) -> BatchResult<AnchorExplanation> {
        let start_inv = clf.invocations();
        let wall0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed);
        // Anchor has no fixed per-tuple sample count; 400 approximates the
        // bandit's typical rule-conditioned draw budget per tuple.
        let mut prep = self.prepare(ctx, clf, batch, 400, seed, &mut rng);
        let caches = SharedAnchorCaches::with_obs(&self.obs);
        let anchor = anchor.clone().with_obs(&self.obs);
        let retrieve_hist = self.obs.span_histogram(names::SPAN_RETRIEVE_MATCH);
        let prov = ProvenanceCtx::new(&self.obs, "Shahin-Batch", "Anchor");

        let quarantine = QuarantineObs::new(&self.obs);
        let mut retrieval = Duration::ZERO;
        let mut scratch = MatchScratch::new();
        let mut explanations = Vec::with_capacity(batch.n_rows());
        let mut report = BatchReport::default();
        for row in 0..batch.n_rows() {
            let outcome = guard_tuple(row as u32, &quarantine, |incidents0| {
                let t0 = prov.start();
                let codes = prep.table.row(row);
                let retrieve = retrieve_hist.start();
                let (matched, lookup) = prep.store.matching_stats(&codes, &mut scratch);
                retrieval += retrieve.stop();
                let instance = batch.instance(row);
                let inv0 = clf.invocations();
                let target = clf.predict(&instance);
                let mut sampler = CachingRuleSampler::new(
                    ctx,
                    clf,
                    &prep.store,
                    &matched,
                    &caches,
                    per_tuple_seed(seed, row),
                );
                let explanation = anchor.explain_with_sampler(&codes, target, &mut sampler);
                let stats = sampler.stats();
                let degraded = shahin_model::degraded_incidents() > incidents0;
                prov.record(
                    row as u32,
                    0,
                    &matched,
                    lookup,
                    stats.reused,
                    stats.fresh,
                    clf.invocations() - inv0,
                    (stats.cache_hits, stats.cache_misses),
                    degraded,
                    t0,
                );
                (explanation, degraded)
            });
            match outcome {
                TupleOutcome::Ok(explanation) => explanations.push(explanation),
                TupleOutcome::Degraded(explanation) => {
                    explanations.push(explanation);
                    report.degraded.push(row as u32);
                }
                TupleOutcome::Failed(failure) => report.failures.push(failure),
            }
        }

        BatchResult {
            explanations,
            metrics: RunMetrics {
                invocations: clf.invocations() - start_inv,
                wall: wall0.elapsed(),
                overhead: OverheadBreakdown {
                    fim: prep.fim_time,
                    materialization: prep.materialization_time,
                    retrieval,
                },
                store_bytes: prep.store.peak_bytes() + caches.approx_bytes(),
                n_frequent: prep.store.len(),
                n_tuples: batch.n_rows(),
            },
            report,
        }
    }

    /// Algorithm 3: KernelSHAP for the EMP problem. `base_samples`
    /// classifier invocations estimate the null prediction once for the
    /// whole batch (as the reference implementation's background set does).
    pub fn explain_shap<C: Classifier>(
        &self,
        ctx: &ExplainContext,
        clf: &CountingClassifier<C>,
        batch: &Dataset,
        shap: &KernelShapExplainer,
        base_samples: usize,
        seed: u64,
    ) -> BatchResult<FeatureWeights> {
        let start_inv = clf.invocations();
        let wall0 = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prep = self.prepare(ctx, clf, batch, shap.params.n_samples, seed, &mut rng);
        let quarantine = QuarantineObs::new(&self.obs);
        let base = estimate_base_value_guarded(ctx, clf, base_samples, &mut rng, &quarantine);
        let retrieve_hist = self.obs.span_histogram(names::SPAN_RETRIEVE_MATCH);
        let surrogate_hist = self.obs.span_histogram(names::SPAN_SURROGATE_FIT);
        let prov = ProvenanceCtx::new(&self.obs, "Shahin-Batch", "SHAP");

        let mut retrieval = Duration::ZERO;
        let mut scratch = MatchScratch::new();
        let mut explanations = Vec::with_capacity(batch.n_rows());
        let mut report = BatchReport::default();
        for row in 0..batch.n_rows() {
            let outcome = guard_tuple(row as u32, &quarantine, |incidents0| {
                let t0 = prov.start();
                let mut tuple_rng = StdRng::seed_from_u64(per_tuple_seed(seed, row));
                let codes = prep.table.row(row);
                let retrieve = retrieve_hist.start();
                let (matched, lookup) = prep.store.matching_stats(&codes, &mut scratch);
                // Line 7–8: pool the perturbations of contained frequent
                // itemsets as coalitions over their attributes (round-robin
                // for mask diversity, half of the budget).
                let pooled = crate::shap_source::pool_coalitions(
                    &prep.store,
                    &matched,
                    shap.params.n_samples / 2,
                );
                let mut source = StoreCoalitionSource::new(&prep.store, matched.clone());
                retrieval += retrieve.stop();
                let instance = batch.instance(row);
                let _fit = surrogate_hist.start();
                let (weights, reuse) = shap.explain_with_counted(
                    ctx,
                    clf,
                    &instance,
                    base,
                    pooled,
                    &mut source,
                    &mut tuple_rng,
                );
                let degraded = reuse.clamped > 0 || shahin_model::degraded_incidents() > incidents0;
                prov.record(
                    row as u32,
                    0,
                    &matched,
                    lookup,
                    reuse.reused,
                    reuse.fresh,
                    reuse.invocations,
                    (0, 0),
                    degraded,
                    t0,
                );
                (weights, degraded)
            });
            match outcome {
                TupleOutcome::Ok(weights) => explanations.push(weights),
                TupleOutcome::Degraded(weights) => {
                    explanations.push(weights);
                    report.degraded.push(row as u32);
                }
                TupleOutcome::Failed(failure) => report.failures.push(failure),
            }
        }

        BatchResult {
            explanations,
            metrics: RunMetrics {
                invocations: clf.invocations() - start_inv,
                wall: wall0.elapsed(),
                overhead: OverheadBreakdown {
                    fim: prep.fim_time,
                    materialization: prep.materialization_time,
                    retrieval,
                },
                store_bytes: prep.store.peak_bytes(),
                n_frequent: prep.store.len(),
                n_tuples: batch.n_rows(),
            },
            report,
        }
    }
}

/// Estimates the SHAP base value, falling back to `0.5` when a classifier
/// panic unwinds out of the estimation loop. The base value is shared by
/// the whole batch, so losing it must not kill every tuple — the fallback
/// keeps the efficiency constraint intact (the surrogate re-anchors on
/// it) and the contained panic is counted in
/// `resilience.panics_isolated`.
pub(crate) fn estimate_base_value_guarded<C: Classifier>(
    ctx: &ExplainContext,
    clf: &C,
    n_samples: usize,
    rng: &mut StdRng,
    quarantine: &QuarantineObs,
) -> f64 {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    match catch_unwind(AssertUnwindSafe(|| {
        shahin_explain::estimate_base_value(ctx, clf, n_samples, rng)
    })) {
        // `estimate_base_value` clamps non-finite model outputs itself, so
        // an Ok value is always usable.
        Ok(base) => base,
        Err(_) => {
            quarantine.note_contained_panic();
            0.5
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shahin_model::MajorityClass;
    use shahin_tabular::{train_test_split, DatasetPreset};

    fn setup(
        scale: f64,
        seed: u64,
    ) -> (ExplainContext, CountingClassifier<MajorityClass>, Dataset) {
        let (data, labels) = DatasetPreset::CensusIncome.spec(scale).generate(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
        let ctx = ExplainContext::fit(&split.train, 500, &mut rng);
        let clf = CountingClassifier::new(MajorityClass::fit(&split.train_labels));
        let n = split.test.n_rows().min(40);
        let rows: Vec<usize> = (0..n).collect();
        (ctx, clf, split.test.select(&rows))
    }

    #[test]
    fn lime_batch_beats_sequential_on_invocations() {
        let (ctx, clf, batch) = setup(0.02, 1);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 200,
            ..Default::default()
        });
        // Sequential cost: N per tuple.
        let seq_cost = 200u64 * batch.n_rows() as u64;
        let shahin = ShahinBatch::new(BatchConfig {
            tau: 50,
            ..Default::default()
        });
        let res = shahin.explain_lime(&ctx, &clf, &batch, &lime, 7);
        assert_eq!(res.explanations.len(), batch.n_rows());
        assert_eq!(res.metrics.n_tuples, batch.n_rows());
        assert!(
            res.metrics.invocations < seq_cost,
            "no savings: {} vs {}",
            res.metrics.invocations,
            seq_cost
        );
        assert!(res.metrics.n_frequent > 0, "no frequent itemsets mined");
    }

    #[test]
    fn lime_batch_is_deterministic() {
        let (ctx, clf, batch) = setup(0.02, 2);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let shahin = ShahinBatch::default();
        let a = shahin.explain_lime(&ctx, &clf, &batch, &lime, 9);
        let b = shahin.explain_lime(&ctx, &clf, &batch, &lime, 9);
        assert_eq!(a.explanations, b.explanations);
        assert_eq!(a.metrics.invocations, b.metrics.invocations);
    }

    #[test]
    fn shap_batch_runs_and_saves() {
        let (ctx, clf, batch) = setup(0.02, 3);
        let shap = KernelShapExplainer::new(shahin_explain::ShapParams {
            n_samples: 128,
            ..Default::default()
        });
        let shahin = ShahinBatch::new(BatchConfig {
            tau: 50,
            ..Default::default()
        });
        let res = shahin.explain_shap(&ctx, &clf, &batch, &shap, 50, 11);
        assert_eq!(res.explanations.len(), batch.n_rows());
        let seq_cost = (128 + 1) * batch.n_rows() as u64 + 50;
        assert!(
            res.metrics.invocations < seq_cost,
            "no savings: {} vs {}",
            res.metrics.invocations,
            seq_cost
        );
        // Efficiency constraint survives the reuse path.
        for e in &res.explanations {
            let total: f64 = e.weights.iter().sum();
            assert!(
                (total - (e.local_prediction - e.intercept)).abs() < 1e-6,
                "efficiency violated: {total}"
            );
        }
    }

    #[test]
    fn anchor_batch_runs_and_saves() {
        let (ctx, clf, batch) = setup(0.02, 4);
        // A classifier keyed on one attribute so anchors exist.
        struct Key;
        impl Classifier for Key {
            fn predict_proba(&self, inst: &[shahin_tabular::Feature]) -> f64 {
                f64::from(inst[0].cat().is_multiple_of(2))
            }
        }
        let clf2 = CountingClassifier::new(Key);
        let _ = clf;
        let anchor = AnchorExplainer::default();
        let shahin = ShahinBatch::new(BatchConfig {
            tau: 50,
            ..Default::default()
        });
        let res = shahin.explain_anchor(&ctx, &clf2, &batch, &anchor, 13);
        assert_eq!(res.explanations.len(), batch.n_rows());
        // Every explanation anchors the tuple's own predicted class, and
        // the rule predicates come from the tuple itself.
        let table = ctx.discretizer().encode_dataset(&batch);
        for (row, e) in res.explanations.iter().enumerate() {
            let codes = table.row(row);
            assert!(
                e.rule.contained_in(&codes),
                "rule {} not contained in its tuple",
                e.rule
            );
            let inst = batch.instance(row);
            assert_eq!(e.anchored_class, clf2.predict(&inst));
        }
        // Shared caches should have kicked in: far fewer invocations than
        // a from-scratch bandit per tuple.
        let per_tuple = res.metrics.invocations as f64 / batch.n_rows() as f64;
        assert!(per_tuple < 1000.0, "per-tuple invocations {per_tuple}");
    }

    #[test]
    fn cache_budget_bounds_store_bytes() {
        let (ctx, clf, batch) = setup(0.02, 5);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let budget = 64 * 1024;
        let shahin = ShahinBatch::new(BatchConfig {
            cache_budget_bytes: budget,
            tau: 1000,
            ..Default::default()
        });
        let res = shahin.explain_lime(&ctx, &clf, &batch, &lime, 17);
        assert!(
            res.metrics.store_bytes <= budget + 4096,
            "store grew past budget: {}",
            res.metrics.store_bytes
        );
    }

    #[test]
    fn obs_registry_sees_every_phase() {
        let (ctx, clf, batch) = setup(0.02, 7);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let reg = MetricsRegistry::new();
        let shahin = ShahinBatch::default().with_obs(&reg);
        let res = shahin.explain_lime(&ctx, &clf, &batch, &lime, 23);
        let snap = reg.snapshot();
        // One span per phase, one retrieve + one fit per tuple.
        assert_eq!(snap.histograms["span.fim.mine"].count, 1);
        assert_eq!(snap.histograms["span.materialize.fill"].count, 1);
        let n = batch.n_rows() as u64;
        assert_eq!(snap.histograms["span.retrieve.match"].count, n);
        assert_eq!(snap.histograms["span.surrogate.fit"].count, n);
        // The recorded spans agree with the RunMetrics durations.
        assert_eq!(
            snap.histograms["span.fim.mine"].sum_ns,
            res.metrics.overhead.fim.as_nanos() as u64
        );
        assert_eq!(snap.counter("store.lookups"), n);
        assert!(snap.gauge("store.peak_bytes") > 0);
    }

    #[test]
    fn provenance_records_one_per_tuple_and_reconcile_with_counters() {
        use crate::obs::fold_provenance;
        use shahin_obs::ProvenanceSink;
        use std::sync::Arc;

        let (ctx, clf, batch) = setup(0.02, 9);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 100,
            ..Default::default()
        });
        let reg = MetricsRegistry::new();
        let sink = Arc::new(ProvenanceSink::new());
        reg.attach_provenance_sink(Arc::clone(&sink));
        let shahin = ShahinBatch::default().with_obs(&reg);
        let res = shahin.explain_lime(&ctx, &clf, &batch, &lime, 31);

        let recs = sink.records();
        assert_eq!(recs.len(), batch.n_rows(), "one record per tuple");
        for (row, r) in recs.iter().enumerate() {
            assert_eq!(r.tuple, row as u32);
            assert_eq!(&*r.method, "Shahin-Batch");
            assert_eq!(&*r.explainer, "LIME");
            assert_eq!(r.epoch, 0);
            assert_eq!(r.samples_reused + r.samples_fresh, r.tau);
        }

        fold_provenance(&reg);
        let snap = reg.snapshot();
        let totals = sink.totals();
        assert_eq!(totals.records, batch.n_rows() as u64);
        assert_eq!(snap.counter("store.lookups"), totals.records);
        assert_eq!(snap.counter("store.hits"), totals.matched_itemsets);
        assert_eq!(snap.counter("store.misses"), totals.store_misses);
        assert_eq!(
            snap.counter("store.samples_reused"),
            totals.samples_available
        );
        assert_eq!(snap.gauge("provenance.records"), totals.records);
        assert_eq!(snap.gauge("provenance.samples_fresh"), totals.samples_fresh);
        // The per-tuple invocation counts sum to the classifier's measured
        // delta for the explanation loop (prep invocations excluded).
        assert!(totals.invocations <= res.metrics.invocations);
        assert!(totals.samples_fresh > 0 && totals.samples_reused > 0);
    }

    #[test]
    fn obs_is_inert_by_default() {
        let (ctx, clf, batch) = setup(0.02, 8);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 50,
            ..Default::default()
        });
        let shahin = ShahinBatch::default();
        assert!(!shahin.obs.is_enabled());
        // Phase durations still flow into RunMetrics through detached spans.
        let res = shahin.explain_lime(&ctx, &clf, &batch, &lime, 29);
        assert!(res.metrics.overhead.materialization > Duration::ZERO);
    }

    #[test]
    fn overhead_is_small_fraction() {
        let (ctx, clf, batch) = setup(0.02, 6);
        let lime = LimeExplainer::new(shahin_explain::LimeParams {
            n_samples: 200,
            ..Default::default()
        });
        let shahin = ShahinBatch::default();
        let res = shahin.explain_lime(&ctx, &clf, &batch, &lime, 19);
        let frac = res.metrics.overhead_fraction();
        assert!(frac < 0.5, "bookkeeping overhead {frac} too high");
    }
}
