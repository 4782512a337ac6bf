//! Anchor's invariant caches and the caching rule sampler.
//!
//! Two of Shahin's Anchor optimizations are *exact* (paper §3.6):
//!
//! 1. **Invariant caching** — a rule's precision counts and its coverage do
//!    not depend on which tuple is being explained, so they are shared
//!    across the whole batch ([`SharedAnchorCaches`]).
//! 2. **Bootstrap from materialized perturbations** — the precision of a
//!    rule `{A_i=u, A_j=v}` can be seeded by scanning the stored
//!    perturbations of the frequent itemset `{A_i=u}` for those that also
//!    have `A_j=v` (and vice versa: a materialized superset's samples are
//!    valid draws for each of its subset rules).
//!
//! [`CachingRuleSampler`] plugs both into the unmodified Anchor search via
//! the [`RuleSampler`] interface.
//!
//! The caches are **lock-striped**: rules hash to one of [`N_SHARDS`]
//! independent [`parking_lot::Mutex`]-protected shards, so
//! [`crate::ShahinBatch::explain_anchor_parallel`]'s worker threads share
//! precision evidence and memoized coverage without serializing on a
//! single lock. The sequential drivers use the same type through `&self` —
//! an uncontended shard lock is a few nanoseconds, noise next to a
//! classifier invocation.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use parking_lot::{Mutex, MutexGuard};
use rand::rngs::StdRng;
use rand::SeedableRng;

use shahin_explain::anchor::{rule_coverage, RuleSampler};
use shahin_explain::{labeled_perturbation, ExplainContext};
use shahin_fim::Itemset;
use shahin_model::Classifier;
use shahin_obs::{Counter, MetricsRegistry};

use crate::obs::names;
use crate::snapshot::{Dec, Enc, SnapshotError};
use crate::store::PerturbationStore;

/// Number of lock stripes. 16 keeps the worst-case contention of a full
/// fleet of workers low while the per-shard memory overhead stays trivial.
pub const N_SHARDS: usize = 16;

/// One stripe of the shared caches.
#[derive(Debug, Default)]
struct CacheShard {
    /// Per-rule `(n, positive)` sample counts, where `positive` counts
    /// positive-*class* predictions (so both anchored classes can reuse the
    /// same entry).
    precision: HashMap<Itemset, (u64, u64)>,
    /// Memoized per-rule coverage.
    coverage: HashMap<Itemset, f64>,
    /// Rules already seeded from the materialized store (the bootstrap
    /// must run at most once per rule or counts would be double-added).
    bootstrapped: HashSet<Itemset>,
}

/// Per-shard observability handles (all detached no-ops unless the caches
/// were built with [`SharedAnchorCaches::with_obs`]).
#[derive(Clone, Debug, Default)]
struct ShardObs {
    /// Cache hits: memoized coverage or already-bootstrapped precision.
    hits: Counter,
    /// Cache misses: the shard had to bootstrap or compute.
    misses: Counter,
    /// Lock acquisitions that found the shard already held.
    contention: Counter,
}

/// Caches shared across every tuple of a batch (or stream), striped across
/// [`N_SHARDS`] mutexes keyed by rule hash. All methods take `&self`; the
/// type is `Sync` and is shared by reference across the parallel Anchor
/// driver's worker threads.
#[derive(Debug)]
pub struct SharedAnchorCaches {
    shards: [Mutex<CacheShard>; N_SHARDS],
    obs: [ShardObs; N_SHARDS],
}

impl Default for SharedAnchorCaches {
    fn default() -> Self {
        SharedAnchorCaches::new()
    }
}

impl SharedAnchorCaches {
    /// Creates empty caches.
    pub fn new() -> SharedAnchorCaches {
        SharedAnchorCaches {
            shards: std::array::from_fn(|_| Mutex::new(CacheShard::default())),
            obs: std::array::from_fn(|_| ShardObs::default()),
        }
    }

    /// Creates empty caches whose per-shard hit/miss/contention counters
    /// record into `registry` (as `anchor.shardNN.{hits,misses,contention}`).
    pub fn with_obs(registry: &MetricsRegistry) -> SharedAnchorCaches {
        SharedAnchorCaches {
            shards: std::array::from_fn(|_| Mutex::new(CacheShard::default())),
            obs: std::array::from_fn(|idx| ShardObs {
                hits: registry.counter(&names::anchor_shard(idx, "hits")),
                misses: registry.counter(&names::anchor_shard(idx, "misses")),
                contention: registry.counter(&names::anchor_shard(idx, "contention")),
            }),
        }
    }

    /// The stripe index responsible for `rule`.
    fn shard_index(rule: &Itemset) -> usize {
        let mut h = DefaultHasher::new();
        rule.hash(&mut h);
        h.finish() as usize % N_SHARDS
    }

    /// Locks stripe `idx`, counting the acquisition as contended if another
    /// thread already holds it (the fast path is one uncontended `try_lock`).
    fn lock_shard(&self, idx: usize) -> MutexGuard<'_, CacheShard> {
        if let Some(guard) = self.shards[idx].try_lock() {
            return guard;
        }
        self.obs[idx].contention.inc();
        self.shards[idx].lock()
    }

    /// Number of rules with cached precision counts.
    pub fn n_precision_entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().precision.len()).sum()
    }

    /// Number of rules with memoized coverage.
    pub fn n_coverage_entries(&self) -> usize {
        self.shards.iter().map(|s| s.lock().coverage.len()).sum()
    }

    /// Serializes every shard's precision counts, memoized coverage and
    /// bootstrap marks into one flat payload. Entries are sorted by rule so
    /// the bytes are deterministic regardless of `HashMap` iteration order
    /// or which shard a rule hashed to.
    pub(crate) fn dump_snapshot(&self) -> Vec<u8> {
        let mut precision: Vec<(Itemset, (u64, u64))> = Vec::new();
        let mut coverage: Vec<(Itemset, f64)> = Vec::new();
        let mut bootstrapped: Vec<Itemset> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            precision.extend(shard.precision.iter().map(|(r, &c)| (r.clone(), c)));
            coverage.extend(shard.coverage.iter().map(|(r, &c)| (r.clone(), c)));
            bootstrapped.extend(shard.bootstrapped.iter().cloned());
        }
        precision.sort_by(|a, b| a.0.cmp(&b.0));
        coverage.sort_by(|a, b| a.0.cmp(&b.0));
        bootstrapped.sort();

        let mut e = Enc::new();
        e.u64(precision.len() as u64);
        for (rule, (n, pos)) in &precision {
            e.itemset(rule);
            e.u64(*n);
            e.u64(*pos);
        }
        e.u64(coverage.len() as u64);
        for (rule, c) in &coverage {
            e.itemset(rule);
            e.f64(*c);
        }
        e.u64(bootstrapped.len() as u64);
        for rule in &bootstrapped {
            e.itemset(rule);
        }
        e.buf
    }

    /// Rebuilds caches from a [`dump_snapshot`](Self::dump_snapshot)
    /// payload, re-sharding every rule (the shard a rule lands in is an
    /// implementation detail, not part of the format). Each list must be
    /// strictly sorted — the dump's canonical form — so duplicated or
    /// shuffled entries are rejected as corruption, and semantic invariants
    /// (`pos <= n`, coverage in `[0, 1]`) are enforced before any entry is
    /// admitted.
    pub(crate) fn load_snapshot(
        payload: &[u8],
        registry: &MetricsRegistry,
    ) -> Result<SharedAnchorCaches, SnapshotError> {
        const CONTEXT: &str = "anchor cache section";
        let corrupt = |context: &'static str| SnapshotError::Corrupt { context };
        let caches = SharedAnchorCaches::with_obs(registry);
        let mut d = Dec::new(payload, CONTEXT);

        let mut prev: Option<Itemset> = None;
        for _ in 0..d.len()? {
            let rule = d.itemset()?;
            if prev.as_ref().is_some_and(|p| *p >= rule) {
                return Err(corrupt("precision entries out of order"));
            }
            let n = d.u64()?;
            let pos = d.u64()?;
            if pos > n {
                return Err(corrupt("positive count exceeds sample count"));
            }
            let idx = SharedAnchorCaches::shard_index(&rule);
            caches.shards[idx]
                .lock()
                .precision
                .insert(rule.clone(), (n, pos));
            prev = Some(rule);
        }
        prev = None;
        for _ in 0..d.len()? {
            let rule = d.itemset()?;
            if prev.as_ref().is_some_and(|p| *p >= rule) {
                return Err(corrupt("coverage entries out of order"));
            }
            let c = d.f64()?;
            if !(0.0..=1.0).contains(&c) {
                return Err(corrupt("coverage outside [0, 1]"));
            }
            let idx = SharedAnchorCaches::shard_index(&rule);
            caches.shards[idx].lock().coverage.insert(rule.clone(), c);
            prev = Some(rule);
        }
        prev = None;
        for _ in 0..d.len()? {
            let rule = d.itemset()?;
            if prev.as_ref().is_some_and(|p| *p >= rule) {
                return Err(corrupt("bootstrap marks out of order"));
            }
            let idx = SharedAnchorCaches::shard_index(&rule);
            caches.shards[idx].lock().bootstrapped.insert(rule.clone());
            prev = Some(rule);
        }
        d.finish()?;
        Ok(caches)
    }

    /// Approximate resident bytes (for budget-style reporting).
    pub fn approx_bytes(&self) -> usize {
        let per_rule = |s: &Itemset| s.approx_bytes() + 24;
        self.shards
            .iter()
            .map(|shard| {
                let shard = shard.lock();
                shard.precision.keys().map(per_rule).sum::<usize>()
                    + shard.coverage.keys().map(per_rule).sum::<usize>()
            })
            .sum()
    }
}

/// Per-tuple accounting of one [`CachingRuleSampler`]'s work: where the
/// Anchor search's precision evidence came from while explaining a single
/// tuple. Shard counters aggregate over the whole batch; these stay local
/// so provenance can attribute reuse to the tuple.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Evidence samples obtained without classifier calls: cached prior
    /// counts (earlier tuples' draws plus store bootstraps) retrieved for
    /// this tuple's candidate rules.
    pub reused: u64,
    /// Fresh rule-conditioned draws, one classifier invocation each.
    pub fresh: u64,
    /// Shard-cache hits (memoized coverage or bootstrapped precision).
    pub cache_hits: u64,
    /// Shard-cache misses (bootstrap scans or coverage computations).
    pub cache_misses: u64,
}

/// A [`RuleSampler`] backed by the shared caches and the materialized
/// perturbation store. Constructed per explained tuple (it needs the
/// tuple's matched store entries) but folding its evidence into the
/// batch-wide [`SharedAnchorCaches`].
pub struct CachingRuleSampler<'a, C> {
    ctx: &'a ExplainContext,
    clf: &'a C,
    store: &'a PerturbationStore,
    /// Store ids whose itemsets the current tuple contains.
    matched: &'a [u32],
    caches: &'a SharedAnchorCaches,
    rng: StdRng,
    stats: SamplerStats,
}

impl<'a, C: Classifier> CachingRuleSampler<'a, C> {
    /// Creates a sampler for one tuple. `matched` are the store entries
    /// contained in the tuple (from [`PerturbationStore::matching`]).
    pub fn new(
        ctx: &'a ExplainContext,
        clf: &'a C,
        store: &'a PerturbationStore,
        matched: &'a [u32],
        caches: &'a SharedAnchorCaches,
        seed: u64,
    ) -> Self {
        CachingRuleSampler {
            ctx,
            clf,
            store,
            matched,
            caches,
            rng: StdRng::seed_from_u64(seed),
            stats: SamplerStats::default(),
        }
    }

    /// The per-tuple accounting accumulated so far (reused vs fresh
    /// evidence, shard-cache hits/misses for this tuple only).
    pub fn stats(&self) -> SamplerStats {
        self.stats
    }

    /// Seeds the precision counts of `rule` from the materialized store:
    /// every stored sample of a matched itemset `f ⊆ rule` whose codes also
    /// satisfy `rule \ f` is a valid rule-conditioned draw — its label came
    /// for free at materialization time.
    fn bootstrap(&self, rule: &Itemset) -> (u64, u64) {
        let mut n = 0u64;
        let mut pos = 0u64;
        for &id in self.matched {
            let f = self.store.itemset(id);
            if !f.is_subset_of(rule) {
                continue;
            }
            for s in self.store.samples(id) {
                if rule.contained_in(&s.codes) {
                    n += 1;
                    pos += u64::from(s.proba >= 0.5);
                }
            }
        }
        (n, pos)
    }
}

impl<C: Classifier> RuleSampler for CachingRuleSampler<'_, C> {
    fn draw(&mut self, rule: &Itemset, k: usize) -> (u64, u64) {
        self.stats.fresh += k as u64;
        let mut pos = 0u64;
        for _ in 0..k {
            let s = labeled_perturbation(self.ctx, self.clf, rule, &mut self.rng);
            pos += u64::from(s.proba >= 0.5);
        }
        // Fresh draws are invariant evidence: fold them into the shared
        // cache so later tuples (on any thread) start ahead (Algorithm 2
        // line 12).
        let idx = SharedAnchorCaches::shard_index(rule);
        let mut shard = self.caches.lock_shard(idx);
        let e = shard.precision.entry(rule.clone()).or_insert((0, 0));
        e.0 += k as u64;
        e.1 += pos;
        (k as u64, pos)
    }

    fn prior(&mut self, rule: &Itemset) -> (u64, u64) {
        let idx = SharedAnchorCaches::shard_index(rule);
        {
            let shard = self.caches.lock_shard(idx);
            if shard.bootstrapped.contains(rule) {
                self.caches.obs[idx].hits.inc();
                self.stats.cache_hits += 1;
                let prior = shard.precision.get(rule).copied().unwrap_or((0, 0));
                self.stats.reused += prior.0;
                return prior;
            }
        }
        self.caches.obs[idx].misses.inc();
        self.stats.cache_misses += 1;
        // Scan the store outside the lock (it can be a long walk), then
        // publish under the lock; `bootstrapped.insert` arbitrates racing
        // threads so the seed counts are added at most once.
        let (n, pos) = self.bootstrap(rule);
        let mut shard = self.caches.lock_shard(idx);
        if shard.bootstrapped.insert(rule.clone()) && n > 0 {
            let e = shard.precision.entry(rule.clone()).or_insert((0, 0));
            e.0 += n;
            e.1 += pos;
        }
        let prior = shard.precision.get(rule).copied().unwrap_or((0, 0));
        self.stats.reused += prior.0;
        prior
    }

    fn coverage(&mut self, rule: &Itemset) -> f64 {
        let idx = SharedAnchorCaches::shard_index(rule);
        if let Some(&c) = self.caches.lock_shard(idx).coverage.get(rule) {
            self.caches.obs[idx].hits.inc();
            self.stats.cache_hits += 1;
            return c;
        }
        self.caches.obs[idx].misses.inc();
        self.stats.cache_misses += 1;
        // Computed outside the lock; coverage is a pure function of the
        // rule, so a racing double-computation inserts the same value.
        let c = rule_coverage(self.ctx.coverage_sample(), rule);
        self.caches.lock_shard(idx).coverage.insert(rule.clone(), c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use shahin_fim::Item;
    use shahin_model::{CountingClassifier, MajorityClass};
    use shahin_tabular::{Attribute, Column, Dataset, Schema};
    use std::sync::Arc;

    fn test_ctx(seed: u64) -> ExplainContext {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 300;
        let schema = Arc::new(Schema::new(vec![
            Attribute::categorical("a", 3),
            Attribute::categorical("b", 3),
            Attribute::categorical("c", 3),
        ]));
        let cols = (0..3)
            .map(|_| Column::Cat((0..n).map(|_| rng.gen_range(0..3u32)).collect()))
            .collect();
        ExplainContext::fit(&Dataset::new(schema, cols), 300, &mut rng)
    }

    fn materialized_store(ctx: &ExplainContext, clf: &impl Classifier) -> PerturbationStore {
        let itemsets = vec![
            Itemset::new(vec![Item::new(0, 1)]),
            Itemset::new(vec![Item::new(1, 2)]),
        ];
        let mut store = PerturbationStore::new(itemsets, usize::MAX);
        let mut rng = StdRng::seed_from_u64(42);
        store.materialize(ctx, clf, 50, &mut rng);
        store
    }

    #[test]
    fn bootstrap_seeds_subset_and_superset_rules() {
        let ctx = test_ctx(0);
        let clf = MajorityClass::fit(&[1]);
        let store = materialized_store(&ctx, &clf);
        let matched = vec![0u32, 1];
        let caches = SharedAnchorCaches::new();
        let mut sampler = CachingRuleSampler::new(&ctx, &clf, &store, &matched, &caches, 1);
        // Rule equal to a materialized itemset: all 50 samples count.
        let (n, pos) = sampler.prior(&Itemset::new(vec![Item::new(0, 1)]));
        assert_eq!(n, 50);
        assert_eq!(pos, 50);
        // Superset rule: seeded by the subset's samples that also match.
        let rule = Itemset::new(vec![Item::new(0, 1), Item::new(1, 2)]);
        let (n2, _) = sampler.prior(&rule);
        // Samples of {A0=1} with A1=2 (~1/3 of 50) plus samples of {A1=2}
        // with A0=1 (~1/3 of 50).
        assert!(n2 > 10, "bootstrap found only {n2} samples");
        assert!(n2 < 100);
    }

    #[test]
    fn bootstrap_happens_once() {
        let ctx = test_ctx(1);
        let clf = MajorityClass::fit(&[1]);
        let store = materialized_store(&ctx, &clf);
        let matched = vec![0u32];
        let caches = SharedAnchorCaches::new();
        let rule = Itemset::new(vec![Item::new(0, 1)]);
        {
            let mut s = CachingRuleSampler::new(&ctx, &clf, &store, &matched, &caches, 2);
            assert_eq!(s.prior(&rule).0, 50);
            assert_eq!(s.prior(&rule).0, 50, "second prior must not double");
        }
        // A new sampler (next tuple) sees the same counts, not doubled.
        let mut s2 = CachingRuleSampler::new(&ctx, &clf, &store, &matched, &caches, 3);
        assert_eq!(s2.prior(&rule).0, 50);
    }

    #[test]
    fn draws_accumulate_into_shared_cache() {
        let ctx = test_ctx(2);
        let clf = CountingClassifier::new(MajorityClass::fit(&[1]));
        let store = PerturbationStore::new(vec![], usize::MAX);
        let matched = vec![];
        let caches = SharedAnchorCaches::new();
        let rule = Itemset::new(vec![Item::new(2, 0)]);
        {
            let mut s = CachingRuleSampler::new(&ctx, &clf, &store, &matched, &caches, 4);
            assert_eq!(s.draw(&rule, 20), (20, 20));
        }
        assert_eq!(clf.invocations(), 20);
        // Next tuple: the 20 draws are already in the prior.
        let mut s2 = CachingRuleSampler::new(&ctx, &clf, &store, &matched, &caches, 5);
        assert_eq!(s2.prior(&rule), (20, 20));
        assert_eq!(clf.invocations(), 20, "prior must be free");
    }

    #[test]
    fn coverage_is_memoized() {
        let ctx = test_ctx(3);
        let clf = MajorityClass::fit(&[1]);
        let store = PerturbationStore::new(vec![], usize::MAX);
        let matched = vec![];
        let caches = SharedAnchorCaches::new();
        let rule = Itemset::new(vec![Item::new(0, 0)]);
        let mut s = CachingRuleSampler::new(&ctx, &clf, &store, &matched, &caches, 6);
        let c1 = s.coverage(&rule);
        let c2 = s.coverage(&rule);
        assert_eq!(c1, c2);
        assert!((0.2..0.5).contains(&c1), "coverage {c1}");
        assert_eq!(s.caches.n_coverage_entries(), 1);
    }

    #[test]
    fn obs_counts_shard_hits_and_misses() {
        let ctx = test_ctx(5);
        let clf = MajorityClass::fit(&[1]);
        let store = PerturbationStore::new(vec![], usize::MAX);
        let reg = MetricsRegistry::new();
        let caches = SharedAnchorCaches::with_obs(&reg);
        let rule = Itemset::new(vec![Item::new(0, 0)]);
        let mut s = CachingRuleSampler::new(&ctx, &clf, &store, &[], &caches, 7);
        s.coverage(&rule); // miss
        s.coverage(&rule); // hit
        s.prior(&rule); // miss (bootstrap)
        s.prior(&rule); // hit
        let snap = reg.snapshot();
        let idx = SharedAnchorCaches::shard_index(&rule);
        assert_eq!(snap.counter(&names::anchor_shard(idx, "hits")), 2);
        assert_eq!(snap.counter(&names::anchor_shard(idx, "misses")), 2);
        // Single-threaded use never contends.
        assert_eq!(snap.counter(&names::anchor_shard(idx, "contention")), 0);
    }

    #[test]
    fn sampler_stats_track_per_tuple_reuse_and_cache_traffic() {
        let ctx = test_ctx(6);
        let clf = CountingClassifier::new(MajorityClass::fit(&[1]));
        let store = materialized_store(&ctx, &clf);
        clf.reset();
        let matched = vec![0u32, 1];
        let caches = SharedAnchorCaches::new();
        let rule = Itemset::new(vec![Item::new(0, 1)]);
        let mut s = CachingRuleSampler::new(&ctx, &clf, &store, &matched, &caches, 8);
        s.prior(&rule); // miss → bootstrap seeds 50 reused samples
        s.draw(&rule, 7); // 7 fresh classifier draws
        s.coverage(&rule); // miss → compute
        s.coverage(&rule); // hit
        let stats = s.stats();
        assert_eq!(stats.reused, 50);
        assert_eq!(stats.fresh, 7);
        assert_eq!(stats.fresh, clf.invocations());
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 2);
        // A second sampler (next tuple) starts from zero but sees the
        // shared prior (50 bootstrap + 7 draws) as reused evidence.
        let mut s2 = CachingRuleSampler::new(&ctx, &clf, &store, &matched, &caches, 9);
        s2.prior(&rule);
        let stats2 = s2.stats();
        assert_eq!(stats2.reused, 57);
        assert_eq!(stats2.fresh, 0);
        assert_eq!(stats2.cache_hits, 1);
    }

    #[test]
    fn snapshot_round_trip_preserves_every_cache() {
        let ctx = test_ctx(7);
        let clf = MajorityClass::fit(&[1]);
        let store = materialized_store(&ctx, &clf);
        let matched = vec![0u32, 1];
        let caches = SharedAnchorCaches::new();
        let mut s = CachingRuleSampler::new(&ctx, &clf, &store, &matched, &caches, 11);
        for rule in [
            Itemset::new(vec![Item::new(0, 1)]),
            Itemset::new(vec![Item::new(1, 2)]),
            Itemset::new(vec![Item::new(0, 1), Item::new(1, 2)]),
        ] {
            s.prior(&rule);
            s.coverage(&rule);
            s.draw(&rule, 3);
        }
        let payload = caches.dump_snapshot();
        let reg = MetricsRegistry::new();
        let loaded = SharedAnchorCaches::load_snapshot(&payload, &reg).expect("valid payload");
        assert_eq!(loaded.dump_snapshot(), payload, "reserialization identical");
        assert_eq!(loaded.n_precision_entries(), caches.n_precision_entries());
        assert_eq!(loaded.n_coverage_entries(), caches.n_coverage_entries());
        // A sampler over the loaded caches sees the donor's evidence as
        // free priors, not as cache misses to recompute.
        let clf2 = CountingClassifier::new(MajorityClass::fit(&[1]));
        let mut s2 = CachingRuleSampler::new(&ctx, &clf2, &store, &matched, &loaded, 12);
        let rule = Itemset::new(vec![Item::new(0, 1)]);
        let before = s.prior(&rule);
        assert_eq!(s2.prior(&rule), before);
        assert_eq!(clf2.invocations(), 0, "hydrated prior must be free");
    }

    #[test]
    fn snapshot_load_rejects_invalid_payloads() {
        let caches = SharedAnchorCaches::new();
        {
            let mut shard = caches.shards[0].lock();
            shard
                .precision
                .insert(Itemset::new(vec![Item::new(0, 1)]), (10, 4));
            shard
                .coverage
                .insert(Itemset::new(vec![Item::new(1, 0)]), 0.25);
        }
        let payload = caches.dump_snapshot();
        let reg = MetricsRegistry::new();
        for end in 0..payload.len() {
            assert!(
                SharedAnchorCaches::load_snapshot(&payload[..end], &reg).is_err(),
                "cut at {end} must be rejected"
            );
        }
        // pos > n is semantic corruption even when the framing is intact.
        let bad = {
            let c = SharedAnchorCaches::new();
            c.shards[0]
                .lock()
                .precision
                .insert(Itemset::new(vec![Item::new(0, 1)]), (3, 9));
            c.dump_snapshot()
        };
        let err = SharedAnchorCaches::load_snapshot(&bad, &reg).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Dump → load → dump is the identity on bytes for arbitrary
        /// cache contents, across all shards.
        #[test]
        fn cache_snapshot_round_trip_holds_for_arbitrary_contents(
            entries in proptest::collection::vec(
                ((0u32..6, 0u32..4), (0u64..200, 0u64..200), 0.0f64..=1.0, 0u8..2),
                0..30),
        ) {
            use proptest::prelude::prop_assert_eq;
            let caches = SharedAnchorCaches::new();
            for ((attr, code), (n, pos), c, mark) in entries {
                let rule = Itemset::new(vec![Item::new(attr as usize, code)]);
                let idx = SharedAnchorCaches::shard_index(&rule);
                let mut shard = caches.shards[idx].lock();
                shard.precision.insert(rule.clone(), (n, pos % (n + 1)));
                shard.coverage.insert(rule.clone(), c);
                if mark == 1 {
                    shard.bootstrapped.insert(rule);
                }
            }
            let payload = caches.dump_snapshot();
            let reg = MetricsRegistry::new();
            let loaded = SharedAnchorCaches::load_snapshot(&payload, &reg).expect("own dump loads");
            prop_assert_eq!(loaded.dump_snapshot(), payload);
            prop_assert_eq!(loaded.n_precision_entries(), caches.n_precision_entries());
            prop_assert_eq!(loaded.n_coverage_entries(), caches.n_coverage_entries());
        }
    }

    #[test]
    fn concurrent_draws_lose_no_evidence() {
        // 8 threads hammer overlapping rules; every fresh draw must land in
        // the shared precision counts exactly once.
        let ctx = test_ctx(4);
        let clf = CountingClassifier::new(MajorityClass::fit(&[1]));
        let store = PerturbationStore::new(vec![], usize::MAX);
        let caches = SharedAnchorCaches::new();
        let rules: Vec<Itemset> = (0..3)
            .map(|a| Itemset::new(vec![Item::new(a, 0)]))
            .collect();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let caches = &caches;
                let ctx = &ctx;
                let clf = &clf;
                let store = &store;
                let rules = &rules;
                scope.spawn(move || {
                    let mut s = CachingRuleSampler::new(ctx, clf, store, &[], caches, 100 + t);
                    for rule in rules {
                        s.draw(rule, 5);
                    }
                });
            }
        });
        assert_eq!(clf.invocations(), 8 * 3 * 5);
        assert_eq!(caches.n_precision_entries(), 3);
        let mut s = CachingRuleSampler::new(&ctx, &clf, &store, &[], &caches, 999);
        for rule in &rules {
            // 8 threads × 5 draws each, all positive under MajorityClass(1).
            assert_eq!(s.prior(rule), (40, 40));
        }
    }
}
