//! Workload inputs. The synthetic Census-Income table, its split, the
//! forest and the explanation context are a fixture, made the same way
//! on every run like a dataset file read from disk; the run's seed draws
//! which held-out rows a workload explains, and every random stream of
//! the explainers.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use shahin_explain::ExplainContext;
use shahin_model::{ForestParams, RandomForest};
use shahin_tabular::{train_test_split, Dataset, DatasetPreset};

/// Seed of the fixture table and model.
pub const FIXTURE_SEED: u64 = 42;

/// Training rows sampled into the context for Anchor coverage.
const COVERAGE_ROWS: usize = 1000;

/// How many times a run sets up; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// Everything a workload explains with.
pub struct Setup {
    /// Discretizer and coverage sample fitted on the training split.
    pub ctx: ExplainContext,
    /// The model under explanation.
    pub forest: Arc<RandomForest>,
    /// Held-out rows; batches and warm sets are drawn from it.
    pub test: Dataset,
}

impl Setup {
    /// `n` held-out rows drawn without replacement by `seed`.
    pub fn batch(&self, n: usize, seed: u64) -> Dataset {
        let mut rows: Vec<usize> = (0..self.test.n_rows()).collect();
        rows.shuffle(&mut StdRng::seed_from_u64(seed ^ 0xBA7C));
        rows.truncate(n);
        self.test.select(&rows)
    }
}

/// Wall time of one set-up and of the layers inside it.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    /// Whole set-up.
    pub total_s: f64,
    /// Data synthesis (`tabular`).
    pub generate_s: f64,
    /// Forest fit (`model`).
    pub fit_s: f64,
}

/// Synthesizes Census-Income at `data_scale` (1.0 is 20,000 rows), splits
/// 1/3 train : 2/3 held out, fits the forest and the context.
pub fn build(data_scale: f64) -> (Setup, SetupTimes) {
    let t0 = Instant::now();
    let (data, labels) = DatasetPreset::CensusIncome
        .spec(data_scale)
        .generate(FIXTURE_SEED);
    let generate_s = t0.elapsed().as_secs_f64();
    let mut rng = StdRng::seed_from_u64(FIXTURE_SEED ^ 0x5EED_CAFE);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let t1 = Instant::now();
    let forest = RandomForest::fit(
        &split.train,
        &split.train_labels,
        &ForestParams::default(),
        &mut rng,
    );
    let fit_s = t1.elapsed().as_secs_f64();
    let ctx = ExplainContext::fit(&split.train, COVERAGE_ROWS, &mut rng);
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        generate_s,
        fit_s,
    };
    let setup = Setup {
        ctx,
        forest: Arc::new(forest),
        test: split.test,
    };
    (setup, times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_batch() {
        let (s, _) = build(0.05);
        let a = s.batch(50, 7).instances();
        assert_eq!(a.len(), 50);
        assert_eq!(a, s.batch(50, 7).instances());
        assert_ne!(a, s.batch(50, 8).instances());
        let (again, _) = build(0.05);
        assert_eq!(a, again.batch(50, 7).instances(), "the fixture repeats");
    }
}
