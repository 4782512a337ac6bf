//! Criterion microbenchmarks for Shahin's hot kernels: mining,
//! perturbation generation, store retrieval, the surrogate solvers,
//! Anchor's search, and forest prediction.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shahin::PerturbationStore;
use shahin_explain::anchor::bandit::{kl_lucb, ArmState};
use shahin_explain::{perturb_codes, ExplainContext};
use shahin_fim::{apriori, AprioriParams, Item, Itemset, MatchScratch};
use shahin_linalg::{constrained_wls, ridge, Matrix};
use shahin_model::{Classifier, ForestParams, MajorityClass, RandomForest};
use shahin_tabular::{train_test_split, DatasetPreset, DiscreteTable};

fn synth_table(n_rows: usize, n_attrs: usize, seed: u64) -> DiscreteTable {
    let mut rng = StdRng::seed_from_u64(seed);
    DiscreteTable::new(
        (0..n_attrs)
            .map(|_| {
                (0..n_rows)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            0
                        } else {
                            rng.gen_range(0..8u32)
                        }
                    })
                    .collect()
            })
            .collect(),
    )
}

fn bench_apriori(c: &mut Criterion) {
    let table = synth_table(1000, 30, 0);
    let params = AprioriParams {
        min_support: 0.2,
        max_len: 3,
        max_itemsets: 200,
    };
    c.bench_function("fim/apriori_1000x30", |b| {
        b.iter(|| apriori(&table, &params))
    });
}

fn bench_perturbation(c: &mut Criterion) {
    let (data, _) = DatasetPreset::CensusIncome.spec(0.05).generate(2);
    let mut rng = StdRng::seed_from_u64(3);
    let ctx = ExplainContext::fit(&data, 500, &mut rng);
    let empty = Itemset::new(vec![]);
    c.bench_function("perturb/codes_42attrs", |b| {
        b.iter(|| perturb_codes(&ctx, &empty, &mut rng))
    });
    let codes = perturb_codes(&ctx, &empty, &mut rng);
    c.bench_function("perturb/undiscretize_instance", |b| {
        b.iter(|| ctx.discretizer().undiscretize_instance(&codes, &mut rng))
    });
}

fn bench_store(c: &mut Criterion) {
    let (data, _) = DatasetPreset::CensusIncome.spec(0.05).generate(4);
    let mut rng = StdRng::seed_from_u64(5);
    let ctx = ExplainContext::fit(&data, 500, &mut rng);
    let table = ctx.discretizer().encode_dataset(&data);
    let mined = apriori(
        &table,
        &AprioriParams {
            min_support: 0.15,
            max_len: 3,
            max_itemsets: 200,
        },
    );
    let sets: Vec<Itemset> = mined.frequent.into_iter().map(|(s, _)| s).collect();
    let clf = MajorityClass::fit(&[1, 0]);
    let mut store = PerturbationStore::new(sets, usize::MAX);
    store.materialize(&ctx, &clf, 20, &mut rng);
    let row = table.row(0);
    let mut scratch = MatchScratch::new();
    c.bench_function("store/matching", |b| {
        b.iter(|| store.matching(&row, &mut scratch))
    });
}

fn bench_solvers(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let (n, m) = (300, 42);
    let x = Matrix::from_rows(
        n,
        m,
        (0..n * m).map(|_| f64::from(rng.gen_bool(0.5))).collect(),
    );
    let y: Vec<f64> = (0..n).map(|_| rng.gen()).collect();
    let w: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
    c.bench_function("solve/ridge_300x42", |b| b.iter(|| ridge(&x, &y, &w, 1.0)));
    c.bench_function("solve/constrained_wls_300x42", |b| {
        b.iter(|| constrained_wls(&x, &y, &w, 0.4, 0.9))
    });
}

fn bench_anchor(c: &mut Criterion) {
    // One KL-LUCB round over 33 arms: the pull refuses to draw, so the
    // search ranks the arms, bounds the weakest top arm and the strongest
    // challenger, and stops.
    let mut rng = StdRng::seed_from_u64(10);
    let mut arms: Vec<ArmState> = (0..33)
        .map(|_| {
            let n = rng.gen_range(16..400u64);
            ArmState {
                n,
                successes: rng.gen_range(0..=n),
            }
        })
        .collect();
    c.bench_function("anchor/kl_lucb_round", |b| {
        b.iter(|| kl_lucb(&mut arms, 2, 0.1, 0.05, 16, u64::MAX, |_, _, _| 0))
    });
    // The benchmark fixture's inputs: Census-Income at 20,000 rows, a
    // third of it for training, the default 25-tree forest.
    let (data, labels) = DatasetPreset::CensusIncome.spec(1.0).generate(42);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let ctx = ExplainContext::fit(&split.train, 1000, &mut rng);
    let row = ctx.coverage_sample().row(0);
    let rule = Itemset::new(vec![Item::new(0, row[0]), Item::new(3, row[3])]);
    c.bench_function("anchor/rule_coverage", |b| {
        b.iter(|| ctx.rule_coverage(&rule))
    });

    // One Anchor pull is 16 perturbed rows: as 16 single-row calls vs one
    // flat single-worker call. The flat call is the slower of the two, so
    // batching pulls through the forest walker does not pay. Iterations
    // cycle through 256 pulls: repeating one would let the branch
    // predictor learn its paths.
    let forest = RandomForest::fit(
        &split.train,
        &split.train_labels,
        &ForestParams::default(),
        &mut rng,
    );
    let pulls: Vec<Vec<_>> = (0..256)
        .map(|_| {
            (0..16)
                .map(|_| {
                    let codes = perturb_codes(&ctx, &Itemset::new(vec![]), &mut rng);
                    ctx.discretizer().undiscretize_instance(&codes, &mut rng)
                })
                .collect()
        })
        .collect();
    let flat: Vec<Vec<_>> = pulls.iter().map(|p| p.concat()).collect();
    let n_attrs = pulls[0][0].len();
    let mut i = 0;
    c.bench_function("model/rf_rows16_single", |b| {
        b.iter(|| {
            i = (i + 1) % pulls.len();
            pulls[i]
                .iter()
                .map(|r| forest.predict_proba(r))
                .collect::<Vec<f64>>()
        })
    });
    c.bench_function("model/rf_rows16_flat", |b| {
        b.iter(|| {
            i = (i + 1) % flat.len();
            forest.predict_flat_with(&flat[i], n_attrs, 1)
        })
    });
}

fn bench_forest(c: &mut Criterion) {
    let (data, labels) = DatasetPreset::CensusIncome.spec(0.05).generate(7);
    let mut rng = StdRng::seed_from_u64(8);
    let forest = RandomForest::fit(&data, &labels, &ForestParams::default(), &mut rng);
    let inst = data.instance(0);
    c.bench_function("model/rf_predict", |b| {
        b.iter(|| forest.predict_proba(&inst))
    });
    let rows: Vec<Vec<_>> = (0..100.min(data.n_rows()))
        .map(|r| data.instance(r))
        .collect();
    c.bench_function("model/rf_batch100", |b| {
        b.iter(|| forest.predict_batch_with(&rows, 1))
    });
    c.bench_function("model/rf_train_25trees", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(9),
            |mut r| RandomForest::fit(&data, &labels, &ForestParams::default(), &mut r),
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    targets = bench_apriori, bench_perturbation, bench_store, bench_solvers,
              bench_forest
}
criterion_group! {
    // Microsecond kernels: many iterations, so the mean is not noise.
    name = fine;
    config = Criterion::default()
        .sample_size(50_000)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    targets = bench_anchor
}
criterion_main!(benches, fine);
