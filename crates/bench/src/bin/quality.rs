//! §4.2 "Explanation Quality": fidelity of Shahin's explanations relative
//! to the sequential baseline.
//!
//! The paper's findings to check: identical feature rankings for all three
//! explainers (average Kendall-τ ≈ 1); Anchor and SHAP explanations
//! essentially identical; LIME's maximum weight deviation small (≤ 0.1,
//! comparable to the seed-to-seed variation of LIME itself). Every
//! explainer gets a "self (reseeded)" row — the sequential baseline
//! against itself under another seed — as the yardstick for its Shahin
//! rows.

use shahin::runner::{attribution_fidelity, rule_agreement};
use shahin::{run, top_k_overlap, ExplainerKind, Method};
use shahin_bench::{base_seed, bench_anchor, f2, row, scaled, workload};
use shahin_explain::{KernelShapExplainer, LimeExplainer, LimeParams, ShapParams};
use shahin_linalg::euclidean_distance;
use shahin_tabular::DatasetPreset;

fn main() {
    let seed = base_seed();
    let n = scaled(200);
    let w = workload(DatasetPreset::CensusIncome, 1.0, seed);
    let batch = w.batch(n);

    println!("# Explanation Quality: Shahin vs Sequential (Census-Income, batch {n})");
    println!(
        "{}",
        row(&[
            "explainer".into(),
            "variant".into(),
            "avg Euclidean".into(),
            "max Euclidean".into(),
            "avg Kendall-tau".into(),
            "top-5 overlap".into(),
        ])
    );

    // Quality runs use larger sample budgets than the speed sweeps so the
    // baseline itself is stable enough to compare against (the paper's
    // Python defaults are larger still: LIME 5000, SHAP ~2048).
    let lime = ExplainerKind::Lime(LimeExplainer::new(LimeParams {
        n_samples: 1000,
        ..Default::default()
    }));
    let shap = ExplainerKind::Shap(KernelShapExplainer::new(ShapParams {
        n_samples: 512,
        ..Default::default()
    }));
    for (kind, label) in [(lime, "LIME"), (shap, "SHAP")] {
        let seq = run(&Method::Sequential, &kind, &w.ctx, &w.clf, &batch, seed);
        // Seed-to-seed variation of the baseline itself — the paper's
        // yardstick for LIME's deviation.
        let seq2 = run(
            &Method::Sequential,
            &kind,
            &w.ctx,
            &w.clf,
            &batch,
            seed ^ 0x1234,
        );
        for (variant, r) in [
            ("self (reseeded)", &seq2),
            (
                "Shahin-Batch",
                &run(
                    &Method::Batch(Default::default()),
                    &kind,
                    &w.ctx,
                    &w.clf,
                    &batch,
                    seed,
                ),
            ),
            (
                "Shahin-Streaming",
                &run(
                    &Method::Streaming(Default::default()),
                    &kind,
                    &w.ctx,
                    &w.clf,
                    &batch,
                    seed,
                ),
            ),
        ] {
            let (avg_d, avg_tau) = attribution_fidelity(&seq.explanations, &r.explanations);
            let max_d = seq
                .explanations
                .iter()
                .zip(&r.explanations)
                .map(|(a, b)| {
                    euclidean_distance(
                        &a.weights().expect("weights").weights,
                        &b.weights().expect("weights").weights,
                    )
                })
                .fold(0.0f64, f64::max);
            let seq_w: Vec<_> = seq
                .explanations
                .iter()
                .map(|e| e.weights().expect("weights").clone())
                .collect();
            let r_w: Vec<_> = r
                .explanations
                .iter()
                .map(|e| e.weights().expect("weights").clone())
                .collect();
            let overlap = top_k_overlap(&seq_w, &r_w, 5);
            println!(
                "{}",
                row(&[
                    label.into(),
                    variant.into(),
                    format!("{avg_d:.4}"),
                    format!("{max_d:.4}"),
                    f2(avg_tau),
                    format!("{:.0}%", 100.0 * overlap),
                ])
            );
        }
    }

    // Anchor: rule agreement + precision/coverage deltas, with the same
    // reseeded-baseline yardstick as LIME/SHAP.
    let kind = ExplainerKind::Anchor(bench_anchor());
    let seq = run(&Method::Sequential, &kind, &w.ctx, &w.clf, &batch, seed);
    for (variant, r) in [
        (
            "self (reseeded)",
            run(
                &Method::Sequential,
                &kind,
                &w.ctx,
                &w.clf,
                &batch,
                seed ^ 0x1234,
            ),
        ),
        (
            "Shahin-Batch",
            run(
                &Method::Batch(Default::default()),
                &kind,
                &w.ctx,
                &w.clf,
                &batch,
                seed,
            ),
        ),
        (
            "Shahin-Streaming",
            run(
                &Method::Streaming(Default::default()),
                &kind,
                &w.ctx,
                &w.clf,
                &batch,
                seed,
            ),
        ),
    ] {
        let agree = rule_agreement(&seq.explanations, &r.explanations);
        let avg_prec_delta: f64 = seq
            .explanations
            .iter()
            .zip(&r.explanations)
            .map(|(a, b)| {
                (a.rule().expect("rule").precision - b.rule().expect("rule").precision).abs()
            })
            .sum::<f64>()
            / seq.explanations.len() as f64;
        println!(
            "{}",
            row(&[
                "Anchor".into(),
                variant.into(),
                format!("rule agreement {:.1}%", 100.0 * agree),
                format!("avg |precision delta| {avg_prec_delta:.4}"),
                String::new(),
            ])
        );
    }
}
