//! KL-LUCB best-arm identification.
//!
//! Anchor estimates rule precision with a multi-armed bandit to minimize
//! classifier invocations (paper §3.2). Each candidate rule is an arm; a
//! pull draws rule-conditioned perturbations and observes how many the
//! black box labels with the anchored class. KL-LUCB adaptively pulls the
//! most ambiguous arms until the top-`k` set is separated with confidence
//! `1 − δ` up to tolerance `ε`.

/// Sufficient statistics of one arm (candidate rule).
#[derive(Clone, Copy, Debug, Default)]
pub struct ArmState {
    /// Total rule-conditioned samples drawn.
    pub n: u64,
    /// Samples whose prediction matched the anchored class.
    pub successes: u64,
}

impl ArmState {
    /// Empirical precision; 0 before any pull.
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.successes as f64 / self.n as f64
        }
    }
}

/// Bernoulli KL divergence `KL(p ‖ q)` with the usual conventions at the
/// boundaries.
pub fn kl_bernoulli(p: f64, q: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    let q = q.clamp(1e-12, 1.0 - 1e-12);
    let mut kl = 0.0;
    if p > 0.0 {
        kl += p * (p / q).ln();
    }
    if p < 1.0 {
        kl += (1.0 - p) * ((1.0 - p) / (1.0 - q)).ln();
    }
    kl
}

/// Upper KL confidence bound: the largest `q ≥ mean` with
/// `n · KL(mean ‖ q) ≤ beta`, found by bisection. An unpulled arm gets 1.
pub fn kl_upper_bound(arm: &ArmState, beta: f64) -> f64 {
    if arm.n == 0 {
        return 1.0;
    }
    let p = arm.mean();
    let level = beta / arm.n as f64;
    let (mut lo, mut hi) = (p, 1.0);
    for _ in 0..32 {
        let mid = 0.5 * (lo + hi);
        if kl_bernoulli(p, mid) > level {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// Lower KL confidence bound: the smallest `q ≤ mean` with
/// `n · KL(mean ‖ q) ≤ beta`. An unpulled arm gets 0.
pub fn kl_lower_bound(arm: &ArmState, beta: f64) -> f64 {
    if arm.n == 0 {
        return 0.0;
    }
    let p = arm.mean();
    let level = beta / arm.n as f64;
    let (mut lo, mut hi) = (0.0, p);
    for _ in 0..32 {
        let mid = 0.5 * (lo + hi);
        if kl_bernoulli(p, mid) > level {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Exploration rate used by the reference Anchor implementation:
/// `β(t) = ln(n_arms · t^α / δ)` with `α = 1.1`.
pub fn beta(n_arms: usize, t: u64, delta: f64) -> f64 {
    let alpha = 1.1;
    ((n_arms as f64) * (t.max(1) as f64).powf(alpha) / delta)
        .ln()
        .max(0.0)
}

/// The member of `top` with the lowest lower bound, and that bound. Each
/// bound is computed once; on a tie the first arm wins.
fn weakest_top(arms: &[ArmState], top: &[usize], beta: f64) -> (usize, f64) {
    let mut best = (top[0], kl_lower_bound(&arms[top[0]], beta));
    for &i in &top[1..] {
        let lower = kl_lower_bound(&arms[i], beta);
        if lower < best.1 {
            best = (i, lower);
        }
    }
    best
}

/// The member of `rest` with the highest upper bound, and that bound. On a
/// tie the last arm wins.
///
/// An arm is skipped without its bisection when its bound provably falls
/// below the best one so far. The bisection in [`kl_upper_bound`] only
/// accepts midpoints `q` with `KL(mean ‖ q) ≤ β / n`, and KL does not
/// decrease in `q` on `[mean, 1]`; so when `KL(mean ‖ best)` already
/// exceeds `β / n`, every accepted midpoint, and hence the bound, lies
/// below `best`. The relative and absolute margins cover the rounding
/// noise of a computed KL (a few ulps of its two logarithms), so the
/// skip never drops an arm the full computation would have chosen.
fn strongest_challenger(arms: &[ArmState], rest: &[usize], beta: f64) -> (usize, f64) {
    let mut best = (rest[0], f64::NEG_INFINITY);
    for &i in rest {
        let arm = &arms[i];
        if arm.n > 0 {
            let mean = arm.mean();
            let level = beta / arm.n as f64;
            if best.1 > mean && kl_bernoulli(mean, best.1) > level * (1.0 + 1e-9) + 1e-12 {
                continue;
            }
        }
        let upper = kl_upper_bound(arm, beta);
        if upper >= best.1 {
            best = (i, upper);
        }
    }
    best
}

/// Identifies the `top_k` arms by mean with KL-LUCB.
///
/// `pull(arm_idx, batch, state)` draws `batch` more samples for one arm and
/// updates its state (returning how many draws actually happened — a
/// sampler may be exhausted). Stops when the gap between the weakest
/// upper bound outside the top set and the weakest lower bound inside it is
/// below `epsilon`, or when no arm can be pulled further, or after
/// `max_pulls` total draws. Returns the indices of the selected arms,
/// best mean first.
#[allow(clippy::too_many_arguments)]
pub fn kl_lucb(
    arms: &mut [ArmState],
    top_k: usize,
    epsilon: f64,
    delta: f64,
    batch: usize,
    max_pulls: u64,
    mut pull: impl FnMut(usize, usize, &mut ArmState) -> usize,
) -> Vec<usize> {
    assert!(!arms.is_empty(), "need at least one arm");
    let k = top_k.min(arms.len());
    let n_arms = arms.len();
    let mut total_pulls: u64 = arms.iter().map(|a| a.n).sum();
    let mut exhausted = vec![false; n_arms];

    loop {
        // Rank arms by mean.
        let mut order: Vec<usize> = (0..n_arms).collect();
        order.sort_by(|&i, &j| {
            arms[j]
                .mean()
                .partial_cmp(&arms[i].mean())
                .expect("finite means")
                .then(i.cmp(&j))
        });
        let (top, rest) = order.split_at(k);
        if rest.is_empty() {
            return top.to_vec();
        }
        let b = beta(n_arms, total_pulls, delta);
        let (lt, lt_lower) = weakest_top(arms, top, b);
        let (ut, ut_upper) = strongest_challenger(arms, rest, b);
        let gap = ut_upper - lt_lower;
        if gap < epsilon || total_pulls >= max_pulls {
            return top.to_vec();
        }
        let mut progressed = false;
        for idx in [ut, lt] {
            if exhausted[idx] {
                continue;
            }
            let drawn = pull(idx, batch, &mut arms[idx]);
            if drawn == 0 {
                exhausted[idx] = true;
            } else {
                total_pulls += drawn as u64;
                progressed = true;
            }
        }
        if !progressed {
            return top.to_vec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn kl_bernoulli_basics() {
        assert_eq!(kl_bernoulli(0.5, 0.5), 0.0);
        assert!(kl_bernoulli(0.9, 0.1) > 0.0);
        assert!(kl_bernoulli(0.0, 0.5) > 0.0);
        assert!(kl_bernoulli(1.0, 0.5) > 0.0);
        // Asymmetric but always non-negative.
        for &(p, q) in &[(0.2, 0.8), (0.7, 0.3), (0.01, 0.99)] {
            assert!(kl_bernoulli(p, q) >= 0.0);
        }
    }

    #[test]
    fn bounds_bracket_the_mean_and_tighten() {
        let loose = ArmState {
            n: 10,
            successes: 7,
        };
        let tight = ArmState {
            n: 1000,
            successes: 700,
        };
        let b = 2.0;
        let (lo_l, hi_l) = (kl_lower_bound(&loose, b), kl_upper_bound(&loose, b));
        let (lo_t, hi_t) = (kl_lower_bound(&tight, b), kl_upper_bound(&tight, b));
        assert!(lo_l <= 0.7 && 0.7 <= hi_l);
        assert!(lo_t <= 0.7 && 0.7 <= hi_t);
        assert!(
            hi_t - lo_t < hi_l - lo_l,
            "more samples must tighten bounds"
        );
    }

    #[test]
    fn unpulled_arm_has_trivial_bounds() {
        let a = ArmState::default();
        assert_eq!(kl_upper_bound(&a, 1.0), 1.0);
        assert_eq!(kl_lower_bound(&a, 1.0), 0.0);
        assert_eq!(a.mean(), 0.0);
    }

    #[test]
    fn lucb_finds_the_best_arm() {
        // True precisions: arm 2 is clearly best.
        let truth = [0.3, 0.5, 0.95, 0.4];
        let mut arms = vec![ArmState::default(); truth.len()];
        let mut rng = StdRng::seed_from_u64(0);
        let top = kl_lucb(&mut arms, 1, 0.1, 0.05, 16, 100_000, |idx, batch, arm| {
            for _ in 0..batch {
                arm.n += 1;
                if rng.gen_bool(truth[idx]) {
                    arm.successes += 1;
                }
            }
            batch
        });
        assert_eq!(top, vec![2]);
    }

    #[test]
    fn lucb_top2_selection() {
        let truth = [0.9, 0.1, 0.85, 0.2];
        let mut arms = vec![ArmState::default(); truth.len()];
        let mut rng = StdRng::seed_from_u64(1);
        let mut top = kl_lucb(&mut arms, 2, 0.15, 0.05, 16, 100_000, |idx, batch, arm| {
            for _ in 0..batch {
                arm.n += 1;
                if rng.gen_bool(truth[idx]) {
                    arm.successes += 1;
                }
            }
            batch
        });
        top.sort_unstable();
        assert_eq!(top, vec![0, 2]);
    }

    #[test]
    fn lucb_respects_exhausted_arms() {
        // Pull function refuses to draw: must terminate immediately with
        // the prior ranking.
        let mut arms = vec![
            ArmState {
                n: 10,
                successes: 9,
            },
            ArmState {
                n: 10,
                successes: 1,
            },
        ];
        let top = kl_lucb(&mut arms, 1, 0.01, 0.05, 8, 100_000, |_, _, _| 0);
        assert_eq!(top, vec![0]);
    }

    #[test]
    fn lucb_respects_max_pulls() {
        let mut arms = vec![ArmState::default(); 2];
        let mut pulls = 0u64;
        let _ = kl_lucb(&mut arms, 1, 1e-9, 0.05, 4, 40, |_, batch, arm| {
            pulls += batch as u64;
            arm.n += batch as u64;
            // Identical arms: bounds never separate; max_pulls must stop us.
            arm.successes += batch as u64 / 2;
            batch
        });
        assert!(pulls <= 48, "pulled {pulls} times");
    }

    /// Reference KL-LUCB: `min_by` / `max_by` evaluate both bounds in
    /// every comparison and the gap evaluates the winners' bounds again,
    /// with no challenger skipped. The exactness tests hold `kl_lucb` to
    /// it.
    #[allow(clippy::too_many_arguments)]
    fn kl_lucb_reference(
        arms: &mut [ArmState],
        top_k: usize,
        epsilon: f64,
        delta: f64,
        batch: usize,
        max_pulls: u64,
        mut pull: impl FnMut(usize, usize, &mut ArmState) -> usize,
    ) -> Vec<usize> {
        let k = top_k.min(arms.len());
        let n_arms = arms.len();
        let mut total_pulls: u64 = arms.iter().map(|a| a.n).sum();
        let mut exhausted = vec![false; n_arms];
        loop {
            let mut order: Vec<usize> = (0..n_arms).collect();
            order.sort_by(|&i, &j| {
                arms[j]
                    .mean()
                    .partial_cmp(&arms[i].mean())
                    .expect("finite means")
                    .then(i.cmp(&j))
            });
            let (top, rest) = order.split_at(k);
            if rest.is_empty() {
                return top.to_vec();
            }
            let b = beta(n_arms, total_pulls, delta);
            let (lt, ut) = reference_selection(arms, top, rest, b);
            let gap = kl_upper_bound(&arms[ut], b) - kl_lower_bound(&arms[lt], b);
            if gap < epsilon || total_pulls >= max_pulls {
                return top.to_vec();
            }
            let mut progressed = false;
            for idx in [ut, lt] {
                if exhausted[idx] {
                    continue;
                }
                let drawn = pull(idx, batch, &mut arms[idx]);
                if drawn == 0 {
                    exhausted[idx] = true;
                } else {
                    total_pulls += drawn as u64;
                    progressed = true;
                }
            }
            if !progressed {
                return top.to_vec();
            }
        }
    }

    /// `(weakest top arm, strongest challenger)` by `min_by` / `max_by`.
    fn reference_selection(
        arms: &[ArmState],
        top: &[usize],
        rest: &[usize],
        b: f64,
    ) -> (usize, usize) {
        let &lt = top
            .iter()
            .min_by(|&&i, &&j| {
                kl_lower_bound(&arms[i], b)
                    .partial_cmp(&kl_lower_bound(&arms[j], b))
                    .expect("finite bounds")
            })
            .expect("top set non-empty");
        let &ut = rest
            .iter()
            .max_by(|&&i, &&j| {
                kl_upper_bound(&arms[i], b)
                    .partial_cmp(&kl_upper_bound(&arms[j], b))
                    .expect("finite bounds")
            })
            .expect("rest non-empty");
        (lt, ut)
    }

    /// An arm from raw draws: `kind` 0 is unpulled, 1 never succeeded,
    /// 2 always succeeded, anything else a `frac` share of successes;
    /// `n` is below `2^log_n` (up to `2^40`).
    fn arm_from((kind, log_n, raw, frac): (u8, u32, u64, f64)) -> ArmState {
        if kind == 0 {
            return ArmState::default();
        }
        let n = (raw % (1u64 << log_n)).max(1);
        let successes = match kind {
            1 => 0,
            2 => n,
            _ => ((frac * n as f64) as u64).min(n),
        };
        ArmState { n, successes }
    }

    /// Random arms with duplicates: `fresh` arms, then copies of the arms
    /// that `dups` point at.
    fn arms_with_duplicates(fresh: Vec<(u8, u32, u64, f64)>, dups: &[usize]) -> Vec<ArmState> {
        let mut arms: Vec<ArmState> = fresh.into_iter().map(arm_from).collect();
        let n = arms.len();
        for &d in dups {
            arms.push(arms[d % n]);
        }
        arms
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The bound-once selection picks the same weakest top arm and the
        /// same strongest challenger as `min_by` / `max_by`, with the same
        /// bound bits, including ties between duplicated arms.
        #[test]
        fn selection_matches_min_by_max_by(
            fresh in proptest::collection::vec((0u8..6, 0u32..=40, 0u64..u64::MAX, 0.0f64..=1.0), 1..40),
            dups in proptest::collection::vec(0usize..1000, 0..12),
            split in 1usize..8,
            b in 0.0f64..=60.0,
        ) {
            use proptest::prelude::prop_assert_eq;
            let arms = arms_with_duplicates(fresh, &dups);
            if arms.len() < 2 {
                return Ok(());
            }
            let order: Vec<usize> = (0..arms.len()).rev().collect();
            let (top, rest) = order.split_at(split.min(arms.len() - 1));
            let (lt, ut) = reference_selection(&arms, top, rest, b);
            let (got_lt, lower) = weakest_top(&arms, top, b);
            let (got_ut, upper) = strongest_challenger(&arms, rest, b);
            prop_assert_eq!(got_lt, lt);
            prop_assert_eq!(got_ut, ut);
            prop_assert_eq!(lower.to_bits(), kl_lower_bound(&arms[lt], b).to_bits());
            prop_assert_eq!(upper.to_bits(), kl_upper_bound(&arms[ut], b).to_bits());
        }

        /// Whole searches: `kl_lucb` returns the reference's top set after
        /// the reference's exact pull sequence. Most arms start small so
        /// searches run many rounds; a `huge` arm (n up to 2^40) joins
        /// half of them, and the budget counts from the starting total.
        #[test]
        fn kl_lucb_matches_the_reference_pull_sequence(
            fresh in proptest::collection::vec((0u8..6, 0u32..=10, 0u64..u64::MAX, 0.0f64..=1.0), 1..36),
            huge in proptest::collection::vec((1u8..6, 30u32..=40, 0u64..u64::MAX, 0.0f64..=1.0), 0..2),
            dups in proptest::collection::vec(0usize..1000, 0..8),
            truth_seed in 0u64..u64::MAX,
            top_k in 1usize..4,
            epsilon in 0.0f64..=0.3,
            delta in 0.01f64..=0.5,
            batch in 1usize..=32,
            extra_pulls in 0u64..4000,
            exhaust_after in 0u64..400,
        ) {
            use proptest::prelude::prop_assert_eq;
            let mut start = arms_with_duplicates(fresh, &dups);
            start.extend(huge.into_iter().map(arm_from));
            let max_pulls = start.iter().map(|a| a.n).sum::<u64>() + extra_pulls;
            // Per-arm success probabilities; an arm stops yielding samples
            // once it has received `exhaust_after` of them from the search.
            let truth: Vec<f64> = {
                let mut rng = StdRng::seed_from_u64(truth_seed);
                start.iter().map(|_| rng.gen()).collect()
            };
            let search = |reference: bool| {
                let mut arms = start.clone();
                let mut rng = StdRng::seed_from_u64(truth_seed ^ 1);
                let mut given = vec![0u64; arms.len()];
                let mut log = Vec::new();
                let pull = |idx: usize, batch: usize, arm: &mut ArmState| {
                    log.push(idx);
                    let k = (batch as u64).min(exhaust_after.saturating_sub(given[idx]));
                    given[idx] += k;
                    for _ in 0..k {
                        arm.n += 1;
                        arm.successes += u64::from(rng.gen_bool(truth[idx]));
                    }
                    k as usize
                };
                let top = if reference {
                    kl_lucb_reference(&mut arms, top_k, epsilon, delta, batch, max_pulls, pull)
                } else {
                    kl_lucb(&mut arms, top_k, epsilon, delta, batch, max_pulls, pull)
                };
                (top, log)
            };
            let (top, log) = search(false);
            let (ref_top, ref_log) = search(true);
            prop_assert_eq!(log, ref_log);
            prop_assert_eq!(top, ref_top);
        }
    }

    #[test]
    fn beta_grows_with_t_and_arms() {
        assert!(beta(10, 100, 0.05) > beta(10, 10, 0.05));
        assert!(beta(20, 10, 0.05) > beta(10, 10, 0.05));
        assert!(beta(10, 10, 0.01) > beta(10, 10, 0.1));
    }
}
