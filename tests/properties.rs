//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use shahin_fim::{apriori, AprioriParams, BitsetDomain, Item, Itemset};
use shahin_linalg::{constrained_wls, kendall_tau, ridge, Matrix};
use shahin_tabular::DiscreteTable;

/// Strategy: a small discrete table with bounded code domains.
fn table_strategy() -> impl Strategy<Value = DiscreteTable> {
    (2usize..6, 4usize..40).prop_flat_map(|(n_attrs, n_rows)| {
        proptest::collection::vec(proptest::collection::vec(0u32..4, n_rows), n_attrs)
            .prop_map(DiscreteTable::new)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn apriori_downward_closure(table in table_strategy(), sup in 0.1f64..0.9) {
        let res = apriori(&table, &AprioriParams {
            min_support: sup,
            max_len: 3,
            max_itemsets: usize::MAX,
        });
        let sets: std::collections::HashSet<_> =
            res.frequent.iter().map(|(s, _)| s.clone()).collect();
        for (s, _) in &res.frequent {
            for sub in s.immediate_subsets() {
                if !sub.is_empty() {
                    prop_assert!(sets.contains(&sub),
                        "{s} frequent but subset {sub} missing");
                }
            }
        }
    }

    #[test]
    fn apriori_counts_are_exact(table in table_strategy(), sup in 0.2f64..0.8) {
        let res = apriori(&table, &AprioriParams {
            min_support: sup,
            max_len: 2,
            max_itemsets: usize::MAX,
        });
        for (set, count) in &res.frequent {
            let brute = (0..table.n_rows())
                .filter(|&r| set.contained_in(&table.row(r)))
                .count() as u64;
            prop_assert_eq!(*count, brute);
        }
    }

    #[test]
    fn negative_border_is_infrequent_with_frequent_subsets(
        table in table_strategy(), sup in 0.2f64..0.8
    ) {
        let res = apriori(&table, &AprioriParams {
            min_support: sup,
            max_len: 3,
            max_itemsets: usize::MAX,
        });
        let min_count = ((sup * table.n_rows() as f64).ceil() as u64).max(1);
        let freq: std::collections::HashSet<_> =
            res.frequent.iter().map(|(s, _)| s.clone()).collect();
        for nb in &res.negative_border {
            let count = (0..table.n_rows())
                .filter(|&r| nb.contained_in(&table.row(r)))
                .count() as u64;
            prop_assert!(count < min_count, "{nb} on border but frequent");
            for sub in nb.immediate_subsets() {
                if !sub.is_empty() {
                    prop_assert!(freq.contains(&sub));
                }
            }
        }
    }

    #[test]
    fn itemset_index_matches_brute_force(table in table_strategy()) {
        // Index the frequent itemsets of the table in the bitset matcher
        // and verify containment queries against the naive definition,
        // for every row.
        let res = apriori(&table, &AprioriParams {
            min_support: 0.2,
            max_len: 3,
            max_itemsets: usize::MAX,
        });
        let sets: Vec<Itemset> = res.frequent.into_iter().map(|(s, _)| s).collect();
        let domain = BitsetDomain::new(&sets);
        for r in 0..table.n_rows() {
            let row = table.row(r);
            let got = domain.contained_in(&row);
            let brute: Vec<u32> = sets.iter().enumerate()
                .filter(|(_, s)| s.contained_in(&row))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(got, brute);
        }
    }

    #[test]
    fn itemset_subset_relation_is_consistent_with_union(
        a in proptest::collection::btree_map(0usize..6, 0u32..4, 0..4),
        b in proptest::collection::btree_map(0usize..6, 0u32..4, 0..4),
    ) {
        // Itemsets carry at most one item per attribute; a union is only
        // well-defined when the operands agree on shared attributes, so
        // make b consistent with a on any overlap.
        let a_set = Itemset::new(a.iter().map(|(&x, &c)| Item::new(x, c)).collect());
        let b_set = Itemset::new(
            b.iter()
                .map(|(&x, &c)| Item::new(x, *a.get(&x).unwrap_or(&c)))
                .collect(),
        );
        let u = a_set.union(&b_set);
        prop_assert!(a_set.is_subset_of(&u));
        prop_assert!(b_set.is_subset_of(&u));
        prop_assert!(a_set.is_subset_of(&a_set));
        prop_assert_eq!(u.len() <= a_set.len() + b_set.len(), true);
    }

    #[test]
    fn apriori_equals_brute_force_enumeration(table in table_strategy(), sup in 0.1f64..0.9) {
        // Completeness: every itemset of up to 3 items that occurs in some
        // row is enumerated, counted row by row, and kept when frequent;
        // apriori must return exactly these, with the same counts and order.
        let p = AprioriParams { min_support: sup, max_len: 3, max_itemsets: usize::MAX };
        let n = table.n_rows();
        let min_count = ((sup * n as f64).ceil() as u64).max(1);
        let mut candidates = std::collections::BTreeSet::new();
        for r in 0..n {
            let items: Vec<Item> =
                table.row(r).iter().enumerate().map(|(a, &c)| Item::new(a, c)).collect();
            for mask in 1u32..(1 << items.len()) {
                if mask.count_ones() <= 3 {
                    let picked = (0..items.len()).filter(|i| mask >> i & 1 == 1);
                    candidates.insert(Itemset::new(picked.map(|i| items[i]).collect()));
                }
            }
        }
        let mut brute: Vec<(Itemset, u64)> = candidates
            .into_iter()
            .map(|s| {
                let count = (0..n).filter(|&r| s.contained_in(&table.row(r))).count() as u64;
                (s, count)
            })
            .filter(|(_, c)| *c >= min_count)
            .collect();
        brute.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then(b.0.len().cmp(&a.0.len()))
                .then(a.0.cmp(&b.0))
        });
        prop_assert_eq!(apriori(&table, &p).frequent, brute);
    }

    #[test]
    fn kendall_tau_bounds_and_self_correlation(
        w in proptest::collection::vec(-10.0f64..10.0, 2..12)
    ) {
        let tau = kendall_tau(&w, &w);
        prop_assert_eq!(tau, 1.0);
        let rev: Vec<f64> = w.iter().rev().copied().collect();
        let t = kendall_tau(&w, &rev);
        prop_assert!((-1.0..=1.0).contains(&t));
    }

    #[test]
    fn ridge_interpolates_constant_targets(
        xs in proptest::collection::vec(-5.0f64..5.0, 4..20),
        c in -3.0f64..3.0,
    ) {
        let n = xs.len();
        let x = Matrix::from_rows(n, 1, xs);
        let y = vec![c; n];
        let fit = ridge(&x, &y, &vec![1.0; n], 1.0);
        prop_assert!((fit.predict(&[0.0]) - c).abs() < 1e-6);
        prop_assert!(fit.coefficients[0].abs() < 1e-6);
    }

    #[test]
    fn constrained_wls_always_satisfies_efficiency(
        rows in proptest::collection::vec(
            proptest::collection::vec(0.0f64..=1.0, 3), 4..16),
        base in -1.0f64..1.0,
        fx in -1.0f64..1.0,
    ) {
        let n = rows.len();
        let z = Matrix::from_rows(n, 3,
            rows.iter().flat_map(|r| r.iter().map(|v| v.round())).collect());
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let w = vec![1.0; n];
        let phi = constrained_wls(&z, &y, &w, base, fx);
        let total: f64 = phi.iter().sum();
        prop_assert!((total - (fx - base)).abs() < 1e-6,
            "efficiency violated: {} vs {}", total, fx - base);
        prop_assert!(phi.iter().all(|p| p.is_finite()));
    }
}
