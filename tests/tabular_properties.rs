//! Property-based tests for the tabular substrate: discretization
//! invariants, statistics sampling bounds, synthetic-generator shape, and
//! CSV round-trips.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use shahin_tabular::{
    read_csv, train_test_split, write_csv, Attribute, Column, Dataset, Discretizer, Feature,
    Schema, TrainingStats,
};

fn numeric_dataset(values: Vec<f64>) -> Dataset {
    let schema = Arc::new(Schema::new(vec![Attribute::numeric("x")]));
    Dataset::new(schema, vec![Column::Num(values)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn discretizer_bins_are_monotone(
        mut values in proptest::collection::vec(-100.0f64..100.0, 8..60),
        probes in proptest::collection::vec(-120.0f64..120.0, 2..10),
    ) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let d = numeric_dataset(values);
        let disc = Discretizer::fit(&d);
        let mut sorted = probes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let bins: Vec<u32> = sorted.iter()
            .map(|&v| disc.code(0, Feature::Num(v)))
            .collect();
        prop_assert!(bins.windows(2).all(|w| w[0] <= w[1]),
            "bins not monotone: {bins:?}");
        prop_assert!(bins.iter().all(|&b| b < disc.n_codes(0)));
    }

    #[test]
    fn undiscretize_lands_in_its_bin(
        values in proptest::collection::vec(-50.0f64..50.0, 16..100),
        seed in 0u64..1000,
    ) {
        let d = numeric_dataset(values);
        let disc = Discretizer::fit(&d);
        let mut rng = StdRng::seed_from_u64(seed);
        for bin in 0..disc.n_codes(0) {
            for _ in 0..10 {
                let f = disc.undiscretize(0, bin, &mut rng);
                prop_assert_eq!(disc.code(0, f), bin);
            }
        }
    }

    #[test]
    fn training_stats_sample_within_domain(
        codes in proptest::collection::vec(0u32..6, 4..60),
        seed in 0u64..1000,
    ) {
        let table = shahin_tabular::DiscreteTable::new(vec![codes.clone()]);
        let stats = TrainingStats::fit(&table, &[6]);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let c = stats.sample_code(0, &mut rng);
            prop_assert!(c < 6);
            // Never sample something unseen.
            prop_assert!(codes.contains(&c), "sampled unseen code {c}");
        }
        // Frequencies sum to 1.
        let total: f64 = (0..6u32).map(|c| stats.frequency(0, c)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn split_partitions_and_preserves_labels(
        n in 10usize..80,
        frac in 0.1f64..0.9,
        seed in 0u64..1000,
    ) {
        let schema = Arc::new(Schema::new(vec![Attribute::numeric("x")]));
        let d = Dataset::new(schema, vec![Column::Num((0..n).map(|i| i as f64).collect())]);
        let labels: Vec<u8> = (0..n).map(|i| (i % 2) as u8).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = train_test_split(&d, &labels, frac, &mut rng);
        prop_assert_eq!(s.train.n_rows() + s.test.n_rows(), n);
        for r in 0..s.train.n_rows() {
            let x = s.train.feature(r, 0).num() as usize;
            prop_assert_eq!(s.train_labels[r], (x % 2) as u8);
        }
    }

    #[test]
    fn csv_roundtrip_preserves_numeric_data(
        rows in proptest::collection::vec((0u32..5, -100.0f64..100.0), 2..30),
    ) {
        let schema = Arc::new(Schema::new(vec![
            Attribute::categorical("c", 5),
            Attribute::numeric("x"),
        ]));
        let data = Dataset::new(
            Arc::clone(&schema),
            vec![
                Column::Cat(rows.iter().map(|r| r.0).collect()),
                Column::Num(rows.iter().map(|r| r.1).collect()),
            ],
        );
        let mut buf = Vec::new();
        let dicts = vec![Vec::new(); 2];
        write_csv(&mut buf, &data, &dicts, None).expect("write");
        let parsed = read_csv(buf.as_slice(), None).expect("parse");
        prop_assert_eq!(parsed.data.n_rows(), data.n_rows());
        for r in 0..data.n_rows() {
            // Numeric column roundtrips exactly through display formatting.
            let orig = data.feature(r, 1).num();
            let back = parsed.data.feature(r, 1).num();
            prop_assert!((orig - back).abs() < 1e-9, "{orig} vs {back}");
        }
    }
}
