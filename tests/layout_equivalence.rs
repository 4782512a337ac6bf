//! Golden-fingerprint tests for the forest walker, the itemset matcher and
//! Anchor's search (DESIGN.md §5g). The committed fingerprints and
//! invocation counts were captured while a second forest layout and a
//! second matcher still existed and every test asserted that both agreed;
//! the Sequential Anchor golden was captured before the search computed
//! each confidence bound once and counted coverage by row bitmaps. Any
//! drift in the one remaining path changes them. The bitset matcher is
//! also checked against brute-force containment on random families.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin::{run, BatchConfig, ExplainerKind, Explanation, Method};
use shahin_explain::{
    AnchorExplainer, ExplainContext, KernelShapExplainer, LimeExplainer, LimeParams, ShapParams,
};
use shahin_fim::{BitsetDomain, Item, Itemset, MatchScratch};
use shahin_model::{Classifier, CountingClassifier, ForestParams, RandomForest};
use shahin_tabular::{train_test_split, Dataset, DatasetPreset};

/// A random non-empty itemset over `n_attrs` attributes with codes below
/// `card`: between 1 and 3 items on distinct attributes.
fn itemset_strategy(n_attrs: usize, card: u32) -> impl Strategy<Value = Itemset> {
    proptest::collection::btree_map(0..n_attrs, 0..card, 1..=3)
        .prop_map(|m| Itemset::new(m.into_iter().map(|(a, c)| Item::new(a, c)).collect()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bitset containment == brute force, on random families and rows.
    /// `n_attrs × card` ranges past 64 so the multi-word (`W > 1`) mask
    /// path is exercised, and rows draw codes beyond `card` so
    /// out-of-dictionary handling is covered.
    #[test]
    fn bitset_matches_brute_force(
        sets in proptest::collection::vec(itemset_strategy(12, 10), 1..24),
        rows in proptest::collection::vec(
            proptest::collection::vec(0u32..14, 12), 1..16),
    ) {
        let domain = BitsetDomain::new(&sets);
        let mut scratch = MatchScratch::new();
        for row in &rows {
            let brute: Vec<u32> = sets
                .iter()
                .enumerate()
                .filter(|(_, s)| s.contained_in(row))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(domain.contained_in_with(row, &mut scratch), brute, "row {:?}", row);
        }
    }

    /// A domain wider than one `u64` word: every tracked itemset is still
    /// found on a row made of exactly its items.
    #[test]
    fn wide_domains_overflow_words_correctly(
        sets in proptest::collection::vec(itemset_strategy(20, 12), 8..32),
    ) {
        let domain = BitsetDomain::new(&sets);
        if domain.n_bits() <= 64 {
            // Narrow draw; the single-word path is covered elsewhere.
            return Ok(());
        }
        prop_assert!(domain.words() >= 2);
        let mut scratch = MatchScratch::new();
        for (id, set) in sets.iter().enumerate() {
            // A row agreeing with `set` everywhere it constrains and
            // out-of-dictionary (no bits) elsewhere.
            let mut row = vec![u32::MAX; 20];
            for item in set.items() {
                row[item.attr as usize] = item.code;
            }
            let ids = domain.contained_in_with(&row, &mut scratch);
            prop_assert!(ids.contains(&(id as u32)), "itemset {id} lost");
            for &got in &ids {
                prop_assert!(sets[got as usize].contained_in(&row));
            }
        }
    }
}

fn forest_world() -> (Dataset, RandomForest, ExplainContext, Dataset) {
    let (data, labels) = DatasetPreset::CensusIncome.spec(0.05).generate(17);
    let mut rng = StdRng::seed_from_u64(17);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let forest = RandomForest::fit(
        &split.train,
        &split.train_labels,
        &ForestParams {
            n_trees: 12,
            ..Default::default()
        },
        &mut rng,
    );
    let ctx = ExplainContext::fit(&split.train, 500, &mut rng);
    let rows: Vec<usize> = (0..30.min(split.test.n_rows())).collect();
    let batch = split.test.select(&rows);
    (split.train, forest, ctx, batch)
}

/// FNV-1a over a stream of bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    fn eat_f64(&mut self, v: f64) {
        self.eat(&v.to_bits().to_le_bytes());
    }
}

/// FNV-1a over the bit-exact content of every explanation: weights,
/// intercept and local prediction; rule items, precision, coverage and
/// anchored class.
fn explanation_fingerprint(explanations: &[Explanation]) -> u64 {
    let mut h = Fnv::new();
    for e in explanations {
        match e {
            Explanation::Weights(w) => {
                h.eat(b"W");
                for &v in &w.weights {
                    h.eat_f64(v);
                }
                h.eat_f64(w.intercept);
                h.eat_f64(w.local_prediction);
            }
            Explanation::Rule(r) => {
                h.eat(b"R");
                for item in r.rule.items() {
                    h.eat(&item.attr.to_le_bytes());
                    h.eat(&item.code.to_le_bytes());
                }
                h.eat_f64(r.precision);
                h.eat_f64(r.coverage);
                h.eat(&[r.anchored_class]);
            }
        }
    }
    h.0
}

fn predictions_fingerprint(probs: &[f64]) -> u64 {
    let mut h = Fnv::new();
    for &p in probs {
        h.eat_f64(p);
    }
    h.0
}

/// Fingerprint of the forest's probabilities on the first 200 training
/// rows of [`forest_world`].
const GOLDEN_FOREST: u64 = 0x55bb_850a_c01f_ced8;

/// `(explainer, threads, invocations, explanation fingerprint)` for the
/// [`forest_world`] batch at seed 23.
const GOLDEN_DRIVERS: [(&str, usize, u64, u64); 7] = [
    ("LIME", 1, 708, 0xa7a7_b7ae_42cb_759c),
    ("LIME", 2, 708, 0xa7a7_b7ae_42cb_759c),
    ("LIME", 8, 708, 0xa7a7_b7ae_42cb_759c),
    ("SHAP", 1, 1356, 0xfd0a_bb84_814a_4c10),
    ("SHAP", 2, 1356, 0xfd0a_bb84_814a_4c10),
    ("SHAP", 8, 1356, 0xfd0a_bb84_814a_4c10),
    ("Anchor", 1, 91461, 0x0d5c_46af_37c1_9e2d),
];

/// `(invocations, explanation fingerprint)` of `Sequential` Anchor on the
/// [`forest_world`] batch at seed 23: the fresh-sampling path
/// (`FreshRuleSampler`), which the `Batch` goldens above do not reach.
const GOLDEN_SEQUENTIAL_ANCHOR: (u64, u64) = (169_310, 0x1754_3859_d8be_9695);

/// Batched predictions at every worker count, and single-row
/// predictions, reproduce the golden fingerprint bit for bit.
#[test]
fn forest_predictions_match_golden_at_every_worker_count() {
    let (train, forest, _, _) = forest_world();
    let instances: Vec<Vec<shahin_tabular::Feature>> = (0..train.n_rows().min(200))
        .map(|r| train.instance(r))
        .collect();
    let singles: Vec<f64> = instances.iter().map(|i| forest.predict_proba(i)).collect();
    assert_eq!(
        predictions_fingerprint(&singles),
        GOLDEN_FOREST,
        "single rows"
    );
    for workers in [1usize, 2, 8] {
        let batch = forest.predict_batch_with(&instances, workers);
        assert_eq!(
            predictions_fingerprint(&batch),
            GOLDEN_FOREST,
            "workers {workers}"
        );
    }
}

/// The end-to-end guarantee: the LIME and SHAP drivers at 1, 2 and 8
/// threads, and Anchor at 1 thread, return the golden explanations and
/// invocation counts.
#[test]
fn drivers_match_golden_fingerprints() {
    let (_, forest, ctx, batch) = forest_world();
    let clf = CountingClassifier::new(forest);
    let lime = ExplainerKind::Lime(LimeExplainer::new(LimeParams {
        n_samples: 120,
        ..Default::default()
    }));
    let shap = ExplainerKind::Shap(KernelShapExplainer::new(ShapParams {
        n_samples: 64,
        ..Default::default()
    }));
    let anchor = ExplainerKind::Anchor(AnchorExplainer::default());
    let mut failures = Vec::new();
    for &(name, threads, invocations, fingerprint) in &GOLDEN_DRIVERS {
        let kind = [&lime, &shap, &anchor]
            .into_iter()
            .find(|k| k.name() == name)
            .expect("golden explainer name");
        let config = BatchConfig {
            n_threads: Some(threads),
            ..Default::default()
        };
        let method = if threads == 1 {
            Method::Batch(config)
        } else {
            Method::BatchParallel(config)
        };
        clf.reset();
        let report = run(&method, kind, &ctx, &clf, &batch, 23);
        let got = (
            clf.invocations(),
            explanation_fingerprint(&report.explanations),
        );
        if got != (invocations, fingerprint) {
            failures.push(format!("{name} x{threads}: got {got:?}"));
        }
    }
    assert!(failures.is_empty(), "golden drift: {failures:#?}");
}

/// Sequential Anchor returns the golden explanations and invocation count.
#[test]
fn sequential_anchor_matches_golden_fingerprint() {
    let (_, forest, ctx, batch) = forest_world();
    let clf = CountingClassifier::new(forest);
    let anchor = ExplainerKind::Anchor(AnchorExplainer::default());
    let report = run(&Method::Sequential, &anchor, &ctx, &clf, &batch, 23);
    assert_eq!(
        (
            clf.invocations(),
            explanation_fingerprint(&report.explanations)
        ),
        GOLDEN_SEQUENTIAL_ANCHOR
    );
}
