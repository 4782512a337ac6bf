//! Anchor: high-precision model-agnostic rule explanations.
//!
//! An anchor for tuple `t` is a rule `IF A_i = u AND A_j = v THEN
//! class = c` (with `c` the model's prediction for `t`) whose *precision* —
//! the probability that rule-conditioned perturbations keep prediction
//! `c` — exceeds a threshold, chosen to maximize *coverage* (paper §3.2).
//!
//! The search is the reference implementation's beam search: candidate
//! rules are conjunctions of the tuple's own attribute values, extended one
//! predicate at a time; precision is estimated by the KL-LUCB bandit
//! ([`bandit`]) to minimize classifier invocations; the first rule whose
//! precision lower bound clears the threshold wins (ties by coverage) —
//! which also realizes the paper's "pick the rule with least predicates"
//! rule, since shorter rules are found at earlier levels.

pub mod bandit;
pub mod sampler;

use rand::Rng;

use shahin_fim::{Item, Itemset};
use shahin_model::Classifier;
use shahin_obs::{Counter, Histogram, MetricsRegistry};
use shahin_tabular::Feature;

use crate::context::ExplainContext;
use crate::explanation::AnchorExplanation;

use bandit::{beta, kl_lower_bound, kl_lucb, kl_upper_bound, ArmState};
pub use sampler::{FreshRuleSampler, RuleSampler};

/// Anchor hyperparameters. The paper's defaults: `ε = 0.1`, `δ = 0.05`.
#[derive(Clone, Debug)]
pub struct AnchorParams {
    /// Required rule precision.
    pub precision_threshold: f64,
    /// KL-LUCB tolerance ε.
    pub epsilon: f64,
    /// KL-LUCB confidence δ.
    pub delta: f64,
    /// Beam width (candidates kept per level).
    pub beam_width: usize,
    /// Maximum number of predicates in a rule.
    pub max_rule_len: usize,
    /// Samples drawn per bandit pull.
    pub batch_size: usize,
    /// Minimum samples per candidate before bounds are trusted.
    pub init_samples: usize,
    /// Total sample budget per KL-LUCB invocation.
    pub max_pulls: u64,
    /// Candidates with coverage below this are pruned (they could never be
    /// useful anchors).
    pub min_coverage: f64,
}

impl Default for AnchorParams {
    fn default() -> Self {
        AnchorParams {
            precision_threshold: 0.90,
            epsilon: 0.1,
            delta: 0.05,
            beam_width: 2,
            max_rule_len: 4,
            batch_size: 16,
            init_samples: 16,
            max_pulls: 2_000,
            min_coverage: 0.02,
        }
    }
}

/// Observability handles for the beam search. Defaults to detached
/// no-ops; [`AnchorExplainer::with_obs`] wires them to a registry.
#[derive(Clone, Debug, Default)]
struct AnchorObs {
    /// Wall time of one `explain_with_sampler` call (`span.anchor.search`).
    search: Histogram,
    /// Beam-search levels entered.
    levels: Counter,
    /// Candidate rules that survived coverage pruning.
    candidates: Counter,
    /// Searches that returned a precision-verified anchor.
    verified: Counter,
    /// Searches that fell back to a best-effort (unverified) rule.
    fallbacks: Counter,
}

/// The Anchor explainer.
#[derive(Clone, Debug, Default)]
pub struct AnchorExplainer {
    /// Hyperparameters.
    pub params: AnchorParams,
    obs: AnchorObs,
}

/// One candidate rule with its bandit state.
struct Candidate {
    rule: Itemset,
    arm: ArmState,
    coverage: f64,
}

/// The reference implementation's precision-verification loop: keeps
/// sampling a candidate until, with confidence `1 − δ`, its precision is
/// resolved to be above or below the threshold (within `ε`), or the budget
/// runs out. Returns whether the candidate qualifies as an anchor.
fn verify_precision(
    cand: &mut Candidate,
    target: u8,
    sampler: &mut dyn RuleSampler,
    p: &AnchorParams,
) -> bool {
    let tau = p.precision_threshold;
    let mut drawn_total = 0u64;
    loop {
        let b = beta(1, cand.arm.n, p.delta);
        let mean = cand.arm.mean();
        let unresolved = (mean >= tau && kl_lower_bound(&cand.arm, b) < tau - p.epsilon)
            || (mean < tau && kl_upper_bound(&cand.arm, b) >= tau + p.epsilon);
        if !unresolved || drawn_total >= p.max_pulls {
            return mean >= tau;
        }
        let (n, pos) = sampler.draw(&cand.rule, p.batch_size);
        if n == 0 {
            return cand.arm.mean() >= tau;
        }
        cand.arm.n += n;
        cand.arm.successes += if target == 1 { pos } else { n - pos };
        drawn_total += n;
    }
}

impl AnchorExplainer {
    /// Creates an explainer with the given parameters.
    pub fn new(params: AnchorParams) -> AnchorExplainer {
        AnchorExplainer {
            params,
            obs: AnchorObs::default(),
        }
    }

    /// Wires the explainer's search metrics (`span.anchor.search`,
    /// `anchor.levels`, `anchor.candidates`, `anchor.verified`,
    /// `anchor.fallbacks`) to `registry`.
    pub fn with_obs(mut self, registry: &MetricsRegistry) -> AnchorExplainer {
        self.obs = AnchorObs {
            search: registry.span_histogram("anchor.search"),
            levels: registry.counter("anchor.levels"),
            candidates: registry.counter("anchor.candidates"),
            verified: registry.counter("anchor.verified"),
            fallbacks: registry.counter("anchor.fallbacks"),
        };
        self
    }

    /// Explains one prediction with fresh sampling (the sequential
    /// baseline). Draws a sampler seed from `rng` so runs are reproducible.
    pub fn explain(
        &self,
        ctx: &ExplainContext,
        clf: &impl Classifier,
        instance: &[Feature],
        rng: &mut impl Rng,
    ) -> AnchorExplanation {
        let target = clf.predict(instance);
        let inst_codes = ctx.discretizer().encode_instance(instance);
        let mut sampler = FreshRuleSampler::new(ctx, clf, rng.gen());
        self.explain_with_sampler(&inst_codes, target, &mut sampler)
    }

    /// Explains a prediction given its discretized codes and predicted
    /// class, drawing every sample through `sampler`. This is the entry
    /// point Shahin uses to inject materialized perturbations and cached
    /// invariants.
    pub fn explain_with_sampler(
        &self,
        inst_codes: &[u32],
        target: u8,
        sampler: &mut dyn RuleSampler,
    ) -> AnchorExplanation {
        // RAII: records into span.anchor.search on every exit path.
        let _search = self.obs.search.start();
        let p = &self.params;
        let items: Vec<Item> = inst_codes
            .iter()
            .enumerate()
            .map(|(a, &c)| Item::new(a, c))
            .collect();

        let mut beam: Vec<Candidate> = Vec::new();
        let mut best_fallback: Option<Candidate> = None;

        for level in 1..=p.max_rule_len {
            self.obs.levels.inc();
            // --- candidate generation
            let mut rules: Vec<Itemset> = if level == 1 {
                items.iter().map(|&it| Itemset::singleton(it)).collect()
            } else {
                let mut ext = Vec::new();
                for cand in &beam {
                    for &it in &items {
                        if cand.rule.items().iter().any(|r| r.attr == it.attr) {
                            continue;
                        }
                        ext.push(cand.rule.union(&Itemset::singleton(it)));
                    }
                }
                ext.sort();
                ext.dedup();
                ext
            };
            // Coverage pruning (invariant, served by the sampler so Shahin
            // can cache it).
            let mut candidates: Vec<Candidate> = Vec::with_capacity(rules.len());
            for rule in rules.drain(..) {
                let coverage = sampler.coverage(&rule);
                if coverage < p.min_coverage {
                    continue;
                }
                let (n, pos) = sampler.prior(&rule);
                let successes = if target == 1 { pos } else { n - pos };
                candidates.push(Candidate {
                    rule,
                    arm: ArmState { n, successes },
                    coverage,
                });
            }
            if candidates.is_empty() {
                break;
            }
            self.obs.candidates.add(candidates.len() as u64);

            // --- initial pulls
            for cand in &mut candidates {
                while (cand.arm.n as usize) < p.init_samples {
                    let want = p.init_samples - cand.arm.n as usize;
                    let (n, pos) = sampler.draw(&cand.rule, want);
                    if n == 0 {
                        break;
                    }
                    cand.arm.n += n;
                    cand.arm.successes += if target == 1 { pos } else { n - pos };
                }
            }

            // --- KL-LUCB top-B selection
            let mut arms: Vec<ArmState> = candidates.iter().map(|c| c.arm).collect();
            let top = kl_lucb(
                &mut arms,
                p.beam_width,
                p.epsilon,
                p.delta,
                p.batch_size,
                p.max_pulls,
                |idx, batch, arm| {
                    let (n, pos) = sampler.draw(&candidates[idx].rule, batch);
                    arm.n += n;
                    arm.successes += if target == 1 { pos } else { n - pos };
                    n as usize
                },
            );
            for (cand, arm) in candidates.iter_mut().zip(&arms) {
                cand.arm = *arm;
            }

            // --- verify the beam candidates against the precision
            // threshold, sampling further until the question is resolved
            // (the reference implementation's refinement loop).
            let mut verified: Vec<usize> = Vec::new();
            for &i in &top {
                if verify_precision(&mut candidates[i], target, sampler, p) {
                    verified.push(i);
                }
            }
            let mut valid: Vec<&Candidate> = verified.iter().map(|&i| &candidates[i]).collect();
            if !valid.is_empty() {
                // Highest coverage among valid anchors of this (minimal)
                // length.
                valid.sort_by(|a, b| {
                    b.coverage
                        .partial_cmp(&a.coverage)
                        .expect("finite coverage")
                });
                let chosen = valid[0];
                self.obs.verified.inc();
                return AnchorExplanation {
                    rule: chosen.rule.clone(),
                    precision: chosen.arm.mean(),
                    coverage: chosen.coverage,
                    anchored_class: target,
                };
            }

            // --- carry the beam to the next level
            let mut next_beam: Vec<Candidate> = Vec::with_capacity(top.len());
            for &i in &top {
                next_beam.push(Candidate {
                    rule: candidates[i].rule.clone(),
                    arm: candidates[i].arm,
                    coverage: candidates[i].coverage,
                });
            }
            // Track the best-precision candidate as a fallback.
            for cand in &next_beam {
                let better = best_fallback
                    .as_ref()
                    .is_none_or(|b| cand.arm.mean() > b.arm.mean());
                if better {
                    best_fallback = Some(Candidate {
                        rule: cand.rule.clone(),
                        arm: cand.arm,
                        coverage: cand.coverage,
                    });
                }
            }
            beam = next_beam;
        }

        // No rule cleared the threshold: return the best we saw (the
        // reference implementation likewise returns the best-effort anchor).
        self.obs.fallbacks.inc();
        match best_fallback {
            Some(c) => AnchorExplanation {
                rule: c.rule,
                precision: c.arm.mean(),
                coverage: c.coverage,
                anchored_class: target,
            },
            None => AnchorExplanation {
                rule: Itemset::new(vec![]),
                precision: 0.0,
                coverage: 1.0,
                anchored_class: target,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use shahin_model::{CountingClassifier, MajorityClass};
    use shahin_tabular::{Attribute, Column, Dataset, Schema};
    use std::sync::Arc;

    /// Classifier = indicator of attr `attr` having code `code`.
    struct KeyAttr {
        attr: usize,
        code: u32,
    }
    impl Classifier for KeyAttr {
        fn predict_proba(&self, instance: &[Feature]) -> f64 {
            f64::from(instance[self.attr].cat() == self.code)
        }
    }

    fn uniform_ctx(n_attrs: usize, card: u32, seed: u64) -> ExplainContext {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 600;
        let schema = Arc::new(Schema::new(
            (0..n_attrs)
                .map(|i| Attribute::categorical(format!("a{i}"), card))
                .collect(),
        ));
        let cols = (0..n_attrs)
            .map(|_| Column::Cat((0..n).map(|_| rng.gen_range(0..card)).collect()))
            .collect();
        let data = Dataset::new(schema, cols);
        ExplainContext::fit(&data, 400, &mut rng)
    }

    #[test]
    fn finds_single_predicate_anchor() {
        let ctx = uniform_ctx(4, 3, 0);
        let clf = KeyAttr { attr: 2, code: 1 };
        let anchor = AnchorExplainer::default();
        let mut rng = StdRng::seed_from_u64(1);
        let inst = vec![
            Feature::Cat(0),
            Feature::Cat(2),
            Feature::Cat(1),
            Feature::Cat(0),
        ];
        let e = anchor.explain(&ctx, &clf, &inst, &mut rng);
        assert_eq!(e.anchored_class, 1);
        assert_eq!(e.rule.len(), 1, "rule {}", e.rule);
        assert_eq!(e.rule.items()[0], Item::new(2, 1));
        assert!(e.precision >= 0.95, "precision {}", e.precision);
        assert!(
            (e.coverage - 1.0 / 3.0).abs() < 0.1,
            "coverage {}",
            e.coverage
        );
    }

    #[test]
    fn anchors_the_negative_class_too() {
        let ctx = uniform_ctx(3, 2, 2);
        let clf = KeyAttr { attr: 0, code: 1 };
        let anchor = AnchorExplainer::default();
        let mut rng = StdRng::seed_from_u64(3);
        // attr0 = 0 → predicted class 0; the anchor should be A0=0.
        let inst = vec![Feature::Cat(0), Feature::Cat(1), Feature::Cat(0)];
        let e = anchor.explain(&ctx, &clf, &inst, &mut rng);
        assert_eq!(e.anchored_class, 0);
        assert_eq!(e.rule.items()[0], Item::new(0, 0), "rule {}", e.rule);
        assert!(e.precision >= 0.95);
    }

    #[test]
    fn finds_conjunction_when_needed() {
        // Positive iff attr0 == 1 AND attr1 == 1.
        struct AndClf;
        impl Classifier for AndClf {
            fn predict_proba(&self, inst: &[Feature]) -> f64 {
                f64::from(inst[0].cat() == 1 && inst[1].cat() == 1)
            }
        }
        let ctx = uniform_ctx(3, 2, 4);
        let anchor = AnchorExplainer::default();
        let mut rng = StdRng::seed_from_u64(5);
        let inst = vec![Feature::Cat(1), Feature::Cat(1), Feature::Cat(0)];
        let e = anchor.explain(&ctx, &AndClf, &inst, &mut rng);
        assert_eq!(e.anchored_class, 1);
        assert_eq!(e.rule.len(), 2, "rule {}", e.rule);
        let attrs: Vec<u16> = e.rule.items().iter().map(|i| i.attr).collect();
        assert_eq!(attrs, vec![0, 1]);
        assert!(e.precision >= 0.9);
    }

    #[test]
    fn constant_classifier_anchors_trivially() {
        let ctx = uniform_ctx(3, 3, 6);
        let clf = MajorityClass::fit(&[1, 1, 1]);
        let anchor = AnchorExplainer::default();
        let mut rng = StdRng::seed_from_u64(7);
        let inst = vec![Feature::Cat(0), Feature::Cat(1), Feature::Cat(2)];
        let e = anchor.explain(&ctx, &clf, &inst, &mut rng);
        // Any single predicate has precision 1.0.
        assert_eq!(e.rule.len(), 1);
        assert!(e.precision >= 0.99);
    }

    #[test]
    fn bandit_uses_fewer_invocations_than_uniform_sampling() {
        // Adaptivity check: total invocations should be well below
        // candidates × max budget.
        let ctx = uniform_ctx(6, 3, 8);
        let clf = CountingClassifier::new(KeyAttr { attr: 0, code: 2 });
        let anchor = AnchorExplainer::default();
        let mut rng = StdRng::seed_from_u64(9);
        let inst = vec![Feature::Cat(2); 6];
        let e = anchor.explain(&ctx, &clf, &inst, &mut rng);
        assert_eq!(e.rule.items()[0], Item::new(0, 2));
        let worst_case = 6 * anchor.params.max_pulls;
        assert!(
            clf.invocations() < worst_case / 3,
            "bandit not adaptive: {} invocations",
            clf.invocations()
        );
    }

    #[test]
    fn obs_records_search_span_and_counters() {
        let reg = shahin_obs::MetricsRegistry::new();
        let ctx = uniform_ctx(4, 3, 0);
        let clf = KeyAttr { attr: 2, code: 1 };
        let anchor = AnchorExplainer::default().with_obs(&reg);
        let mut rng = StdRng::seed_from_u64(1);
        let inst = vec![
            Feature::Cat(0),
            Feature::Cat(2),
            Feature::Cat(1),
            Feature::Cat(0),
        ];
        anchor.explain(&ctx, &clf, &inst, &mut rng);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["span.anchor.search"].count, 1);
        assert!(snap.counter("anchor.levels") >= 1);
        assert!(snap.counter("anchor.candidates") >= 1);
        assert_eq!(
            snap.counter("anchor.verified") + snap.counter("anchor.fallbacks"),
            1
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let ctx = uniform_ctx(4, 3, 10);
        let clf = KeyAttr { attr: 1, code: 0 };
        let anchor = AnchorExplainer::default();
        let inst = vec![
            Feature::Cat(0),
            Feature::Cat(0),
            Feature::Cat(1),
            Feature::Cat(2),
        ];
        let e1 = anchor.explain(&ctx, &clf, &inst, &mut StdRng::seed_from_u64(11));
        let e2 = anchor.explain(&ctx, &clf, &inst, &mut StdRng::seed_from_u64(11));
        assert_eq!(e1.rule, e2.rule);
        assert_eq!(e1.precision, e2.precision);
    }
}
