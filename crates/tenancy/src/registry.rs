//! The tenant registry: N warm engines behind one listener, managed
//! like FaaS containers.
//!
//! Each tenant is declared up front (name, warm-set size, quota,
//! snapshot path, and a *factory* that can materialize its engine) but
//! its repository is built lazily, on the first request that routes to
//! it — a **cold start**, counted and traced, hydrating classifier-free
//! from the tenant's snapshot when one is readable (the PR 9
//! machinery). Warm tenants stay resident under a global memory budget
//! tracked from the engines' store-bytes accounting; when the budget is
//! exceeded or a tenant sits idle past its keepalive, the LRU-idle
//! tenant is **evicted** — after writing a final at-evict snapshot, so
//! re-admission is again classifier-free and bit-identical.
//!
//! ```text
//!            ensure_warm()            evict()
//!   Cold ──► Warming ──► Warm ──────► Evicted
//!                          ▲             │ ensure_warm()
//!                          └── Warming ◄─┘   (hydrates <name>.shws)
//! ```
//!
//! Request admission is quota-gated per tenant ([`TenantRegistry::
//! try_admit`] / [`TenantRegistry::release`] bracket every in-flight
//! explain), reusing the serve layer's 429 taxonomy. All transitions
//! are counted under `tenancy.*`, with per-tenant `tenant.<name>.*`
//! breakdowns when (and only when) the cluster is multi-tenant.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use shahin::obs::{names, register_standard};
use shahin::{MetricsRegistry, SnapshotError, WarmEngine, WarmRequest};
use shahin_model::Classifier;

use crate::shard::ShardMap;

/// Lifecycle phase of one tenant's repository.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Lifecycle {
    /// Declared, never materialized.
    Cold = 0,
    /// A cold start is materializing the engine right now.
    Warming = 1,
    /// Resident and serving.
    Warm = 2,
    /// Retired by the lifecycle controller; the next request cold-starts
    /// again (hydrating from the at-evict snapshot when present).
    Evicted = 3,
}

impl Lifecycle {
    /// Wire/metric name of the phase.
    pub fn name(self) -> &'static str {
        match self {
            Lifecycle::Cold => "cold",
            Lifecycle::Warming => "warming",
            Lifecycle::Warm => "warm",
            Lifecycle::Evicted => "evicted",
        }
    }

    fn from_u8(v: u8) -> Lifecycle {
        match v {
            1 => Lifecycle::Warming,
            2 => Lifecycle::Warm,
            3 => Lifecycle::Evicted,
            _ => Lifecycle::Cold,
        }
    }
}

/// A materialized tenant: the engine plus its consistent-hash routing
/// table, built once per cold start so the per-request path is two
/// array reads.
pub struct WarmSlot<C: Classifier> {
    pub engine: Arc<WarmEngine<C>>,
    map: ShardMap,
    /// Worker shard per warm row, precomputed from the rows' frozen-
    /// itemset signatures.
    row_shards: Vec<u32>,
}

impl<C: Classifier> WarmSlot<C> {
    fn build(engine: Arc<WarmEngine<C>>) -> WarmSlot<C> {
        let map = ShardMap::new(engine.n_workers());
        let row_shards = engine
            .row_signatures()
            .into_iter()
            .map(|sig| map.shard_for(sig) as u32)
            .collect();
        WarmSlot {
            engine,
            map,
            row_shards,
        }
    }

    /// Workers (= shards) this tenant's requests spread over.
    pub fn n_workers(&self) -> usize {
        self.map.n_shards()
    }

    /// The worker shard warm row `row` routes to.
    pub fn shard_of_row(&self, row: usize) -> usize {
        self.row_shards[row] as usize
    }

    /// The request→worker assignment for one micro-batch, ready for
    /// [`WarmEngine::explain_assigned`].
    pub fn assign(&self, requests: &[WarmRequest]) -> Vec<usize> {
        requests.iter().map(|r| self.shard_of_row(r.row)).collect()
    }
}

/// Materializes one tenant's engine, optionally from snapshot bytes —
/// the signature of [`WarmEngine::prime_warm_or_cold`] with everything
/// but the bytes captured. The registry never holds datasets or
/// classifiers itself; tenants cost a closure until their first request.
pub type EngineFactory<C> =
    Box<dyn Fn(Option<&[u8]>) -> (WarmEngine<C>, Option<SnapshotError>) + Send + Sync>;

/// One tenant's declaration, handed to [`TenantRegistry::new`].
pub struct TenantConfig<C: Classifier> {
    /// Routing key (the protocol's `tenant` field) and metric label.
    pub name: String,
    /// Warm-set size, known without materializing — row-range admission
    /// checks never wake a cold tenant.
    pub n_rows: usize,
    /// Max in-flight explain requests (`None` = unlimited, `Some(0)` =
    /// reject everything).
    pub quota: Option<usize>,
    /// `<snapshot_dir>/<name>.shws`: hydration source at cold start,
    /// persistence target at evict and on snapshot sweeps.
    pub snapshot_path: Option<PathBuf>,
    /// Explicit snapshot for the *first* cold start only (the manifest's
    /// `warm_from`), overriding `snapshot_path` as hydration source.
    pub warm_from: Option<PathBuf>,
    pub factory: EngineFactory<C>,
}

/// What one cold start did — surfaced into the request trace and logs.
#[derive(Debug)]
pub struct ColdStart {
    /// Served classifier-free from a snapshot.
    pub hydrated: bool,
    /// Materialization wall time.
    pub wall: Duration,
    /// A snapshot was offered but rejected (the engine cold-primed).
    pub rejection: Option<SnapshotError>,
}

/// Why [`TenantRegistry::evict`] declined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvictRefused {
    /// The tenant is not in the `Warm` phase.
    NotWarm,
    /// Requests admitted against this tenant are still in flight.
    Inflight,
    /// The tenant has no factory to re-materialize from (the
    /// single-tenant wrapper), so retiring it would be permanent.
    NotRebuildable,
}

/// Eviction policy for the whole cluster.
#[derive(Clone, Copy, Debug, Default)]
pub struct LifecyclePolicy {
    /// Global budget across every warm tenant's store bytes; exceeded →
    /// LRU-idle tenants are evicted until back under.
    pub memory_budget_bytes: Option<usize>,
    /// Keepalive: a warm tenant idle longer than this is evicted.
    pub idle_evict: Option<Duration>,
}

struct TenantCell<C: Classifier> {
    name: Arc<str>,
    n_rows: usize,
    quota: Option<usize>,
    snapshot_path: Option<PathBuf>,
    factory: Option<EngineFactory<C>>,
    /// Lock-free phase mirror of `state`, so stats/enforce never block
    /// behind a multi-second materialization.
    phase: AtomicU8,
    state: Mutex<TenantState<C>>,
    inflight: AtomicU64,
    last_used: Mutex<Instant>,
}

struct TenantState<C: Classifier> {
    slot: Option<Arc<WarmSlot<C>>>,
    /// Consumed by the first cold start.
    warm_from: Option<PathBuf>,
}

/// One tenant's row in the admin `stats`/`ping` frames.
#[derive(Clone, Debug)]
pub struct TenantStatus {
    pub name: Arc<str>,
    pub state: &'static str,
    pub entries: u64,
    pub bytes: u64,
    pub inflight: u64,
}

/// The cluster's tenant table (see the module docs).
pub struct TenantRegistry<C: Classifier> {
    tenants: Vec<TenantCell<C>>,
    default: usize,
    multi: bool,
    policy: LifecyclePolicy,
    obs: MetricsRegistry,
}

impl<C: Classifier> TenantRegistry<C> {
    /// Builds the registry over `configs`. Per-tenant metric names are
    /// pre-registered when the cluster is multi-tenant, so metric dumps
    /// carry zeroes for tenants that never cold-started.
    pub fn new(
        configs: Vec<TenantConfig<C>>,
        default: usize,
        policy: LifecyclePolicy,
        obs: &MetricsRegistry,
    ) -> TenantRegistry<C> {
        assert!(!configs.is_empty(), "a cluster needs at least one tenant");
        assert!(default < configs.len(), "default tenant out of range");
        register_standard(obs);
        let multi = configs.len() > 1;
        let tenants: Vec<TenantCell<C>> = configs
            .into_iter()
            .map(|c| TenantCell {
                name: Arc::from(c.name.as_str()),
                n_rows: c.n_rows,
                quota: c.quota,
                snapshot_path: c.snapshot_path,
                factory: Some(c.factory),
                phase: AtomicU8::new(Lifecycle::Cold as u8),
                state: Mutex::new(TenantState {
                    slot: None,
                    warm_from: c.warm_from,
                }),
                inflight: AtomicU64::new(0),
                last_used: Mutex::new(Instant::now()),
            })
            .collect();
        let reg = TenantRegistry {
            tenants,
            default,
            multi,
            policy,
            obs: obs.clone(),
        };
        reg.obs
            .gauge(names::TENANCY_TENANTS)
            .set(reg.tenants.len() as u64);
        reg.obs
            .gauge(names::TENANCY_BUDGET_BYTES)
            .set(policy.memory_budget_bytes.unwrap_or(0) as u64);
        if multi {
            for cell in &reg.tenants {
                for kind in [
                    "requests",
                    "cold_starts",
                    "hydrations",
                    "evictions",
                    "quota_rejections",
                    "snapshots_taken",
                    "loads_ok",
                    "load_rejected",
                ] {
                    reg.obs.counter(&names::tenant_metric(&cell.name, kind));
                }
                for kind in ["warm_entries", "warm_bytes", "state"] {
                    reg.obs.gauge(&names::tenant_metric(&cell.name, kind));
                }
            }
        }
        reg
    }

    /// Wraps an already-warm engine as a one-tenant cluster — how the
    /// single-tenant `Server::start` path rides the same machinery. No
    /// factory, so the lifecycle controller never retires it; tenant
    /// labels stay off every metric, record, and trace.
    pub fn single(engine: Arc<WarmEngine<C>>, snapshot_path: Option<PathBuf>) -> TenantRegistry<C> {
        let obs = engine.obs().clone();
        let n_rows = engine.n_rows();
        let slot = Arc::new(WarmSlot::build(engine));
        let cell = TenantCell {
            name: Arc::from("default"),
            n_rows,
            quota: None,
            snapshot_path,
            factory: None,
            phase: AtomicU8::new(Lifecycle::Warm as u8),
            state: Mutex::new(TenantState {
                slot: Some(slot),
                warm_from: None,
            }),
            inflight: AtomicU64::new(0),
            last_used: Mutex::new(Instant::now()),
        };
        obs.gauge(names::TENANCY_TENANTS).set(1);
        TenantRegistry {
            tenants: vec![cell],
            default: 0,
            multi: false,
            policy: LifecyclePolicy::default(),
            obs,
        }
    }

    /// More than one tenant — tags go on metrics, records, and traces.
    pub fn multi(&self) -> bool {
        self.multi
    }

    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    pub fn default_idx(&self) -> usize {
        self.default
    }

    pub fn obs(&self) -> &MetricsRegistry {
        &self.obs
    }

    pub fn name(&self, idx: usize) -> &Arc<str> {
        &self.tenants[idx].name
    }

    /// Warm-set size, available without materializing the tenant.
    pub fn n_rows(&self, idx: usize) -> usize {
        self.tenants[idx].n_rows
    }

    pub fn lifecycle(&self, idx: usize) -> Lifecycle {
        Lifecycle::from_u8(self.tenants[idx].phase.load(Ordering::Acquire))
    }

    pub fn inflight(&self, idx: usize) -> u64 {
        self.tenants[idx].inflight.load(Ordering::Relaxed)
    }

    /// The tenant's in-flight admission quota (`None` = unbounded).
    pub fn quota(&self, idx: usize) -> Option<usize> {
        self.tenants[idx].quota
    }

    /// Routes a request's `tenant` field: absent → the default tenant,
    /// unknown → `None` (the serve layer's typed 404), counted under
    /// `tenancy.unknown_tenant`.
    pub fn resolve(&self, tenant: Option<&str>) -> Option<usize> {
        match tenant {
            None => Some(self.default),
            Some(name) => match self.tenants.iter().position(|c| &*c.name == name) {
                Some(idx) => Some(idx),
                None => {
                    self.obs.counter(names::TENANCY_UNKNOWN_TENANT).inc();
                    None
                }
            },
        }
    }

    /// Admission-quota gate, bracketing every in-flight request with
    /// [`TenantRegistry::release`]. Returns `false` — counted under
    /// `tenancy.quota_rejections` — when the tenant is at quota; the
    /// serve layer answers 429.
    pub fn try_admit(&self, idx: usize) -> bool {
        let cell = &self.tenants[idx];
        *cell.last_used.lock() = Instant::now();
        if let Some(quota) = cell.quota {
            // CAS loop: never overshoot the quota under concurrent
            // admission from many reader threads.
            let mut cur = cell.inflight.load(Ordering::Relaxed);
            loop {
                if cur >= quota as u64 {
                    self.obs.counter(names::TENANCY_QUOTA_REJECTIONS).inc();
                    if self.multi {
                        self.obs
                            .counter(&names::tenant_metric(&cell.name, "quota_rejections"))
                            .inc();
                    }
                    return false;
                }
                match cell.inflight.compare_exchange_weak(
                    cur,
                    cur + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(now) => cur = now,
                }
            }
        } else {
            cell.inflight.fetch_add(1, Ordering::Relaxed);
        }
        if self.multi {
            self.obs
                .counter(&names::tenant_metric(&cell.name, "requests"))
                .inc();
        }
        true
    }

    /// Releases one admitted request (response written or dropped).
    pub fn release(&self, idx: usize) {
        let cell = &self.tenants[idx];
        let prev = cell.inflight.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "release without admit");
        *cell.last_used.lock() = Instant::now();
    }

    /// The tenant's slot if it is warm right now (no materialization).
    pub fn slot(&self, idx: usize) -> Option<Arc<WarmSlot<C>>> {
        self.tenants[idx].state.lock().slot.clone()
    }

    /// The FaaS entry point: returns the tenant's warm slot,
    /// materializing it on first use. A cold start reads the hydration
    /// source (the first-start `warm_from` override, else the tenant's
    /// snapshot if one is on disk), runs the factory — which hydrates
    /// classifier-free on a valid snapshot and cold-primes otherwise —
    /// and publishes the slot. Counted under `tenancy.cold_starts` /
    /// `tenancy.hydrations` with wall time in
    /// `tenancy.cold_start_latency`; the `Some(ColdStart)` return is the
    /// batcher's cue to add a `coldstart` span to request traces.
    pub fn ensure_warm(&self, idx: usize) -> (Arc<WarmSlot<C>>, Option<ColdStart>) {
        let cell = &self.tenants[idx];
        let mut state = cell.state.lock();
        if let Some(slot) = &state.slot {
            return (Arc::clone(slot), None);
        }
        let t0 = Instant::now();
        cell.phase
            .store(Lifecycle::Warming as u8, Ordering::Release);
        let source = state
            .warm_from
            .take()
            .or_else(|| cell.snapshot_path.as_ref().filter(|p| p.exists()).cloned());
        let bytes = source.as_ref().and_then(|p| std::fs::read(p).ok());
        let factory = cell
            .factory
            .as_ref()
            .expect("cold tenants always carry a factory");
        let (mut engine, rejection) = factory(bytes.as_deref());
        if self.multi {
            engine.set_tenant(&cell.name);
        }
        let hydrated = bytes.is_some() && rejection.is_none();
        let slot = Arc::new(WarmSlot::build(Arc::new(engine)));
        state.slot = Some(Arc::clone(&slot));
        cell.phase.store(Lifecycle::Warm as u8, Ordering::Release);
        drop(state);

        let wall = t0.elapsed();
        self.obs.counter(names::TENANCY_COLD_STARTS).inc();
        self.obs
            .histogram(names::TENANCY_COLD_START_LATENCY)
            .record_ns(u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX));
        if hydrated {
            self.obs.counter(names::TENANCY_HYDRATIONS).inc();
        }
        if self.multi {
            self.obs
                .counter(&names::tenant_metric(&cell.name, "cold_starts"))
                .inc();
            if hydrated {
                self.obs
                    .counter(&names::tenant_metric(&cell.name, "hydrations"))
                    .inc();
            }
            if bytes.is_some() {
                let kind = if rejection.is_none() {
                    "loads_ok"
                } else {
                    "load_rejected"
                };
                self.obs
                    .counter(&names::tenant_metric(&cell.name, kind))
                    .inc();
            }
        }
        match (&rejection, hydrated) {
            (Some(err), _) => eprintln!(
                "tenancy: cold-started tenant '{}' in {:.1} ms (snapshot rejected: {err})",
                cell.name,
                wall.as_secs_f64() * 1e3
            ),
            (None, true) => eprintln!(
                "tenancy: cold-started tenant '{}' in {:.1} ms (hydrated, classifier-free)",
                cell.name,
                wall.as_secs_f64() * 1e3
            ),
            (None, false) => eprintln!(
                "tenancy: cold-started tenant '{}' in {:.1} ms (primed cold)",
                cell.name,
                wall.as_secs_f64() * 1e3
            ),
        }
        (
            slot,
            Some(ColdStart {
                hydrated,
                wall,
                rejection,
            }),
        )
    }

    /// Retires a warm tenant: writes the at-evict snapshot (when the
    /// tenant has a snapshot path), drops the engine, and marks the
    /// tenant `Evicted`. Refuses — rather than corrupting a serving
    /// tenant — when requests are in flight, the tenant is not warm, or
    /// it cannot be re-materialized.
    pub fn evict(&self, idx: usize) -> Result<(), EvictRefused> {
        let cell = &self.tenants[idx];
        if cell.factory.is_none() {
            return Err(EvictRefused::NotRebuildable);
        }
        let mut state = cell.state.lock();
        if state.slot.is_none() {
            return Err(EvictRefused::NotWarm);
        }
        // Checked under the state lock: admission bumps inflight before
        // the batcher can touch the slot, so a zero here means no
        // request can be between admit and response.
        if cell.inflight.load(Ordering::Acquire) > 0 {
            return Err(EvictRefused::Inflight);
        }
        let slot = state.slot.take().expect("checked above");
        let mut snapshot_note = "no snapshot path";
        if let Some(path) = &cell.snapshot_path {
            match slot.engine.write_snapshot(path) {
                Ok(bytes) => {
                    self.obs.counter(names::PERSIST_SNAPSHOTS_TAKEN).inc();
                    self.obs.gauge(names::PERSIST_SNAPSHOT_BYTES).set(bytes);
                    if self.multi {
                        self.obs
                            .counter(&names::tenant_metric(&cell.name, "snapshots_taken"))
                            .inc();
                    }
                    snapshot_note = "at-evict snapshot written";
                }
                Err(_) => {
                    self.obs.counter(names::PERSIST_SNAPSHOTS_FAILED).inc();
                    snapshot_note = "at-evict snapshot FAILED";
                }
            }
        }
        cell.phase
            .store(Lifecycle::Evicted as u8, Ordering::Release);
        drop(state);
        self.obs.counter(names::TENANCY_EVICTIONS).inc();
        if self.multi {
            self.obs
                .counter(&names::tenant_metric(&cell.name, "evictions"))
                .inc();
        }
        eprintln!("tenancy: evicted tenant '{}' ({snapshot_note})", cell.name);
        Ok(())
    }

    /// One lifecycle sweep, run from the serve monitor tick: evict warm
    /// tenants idle past the keepalive, then evict LRU-idle tenants
    /// while the cluster is over its memory budget, then refresh the
    /// `tenancy.*` (and per-tenant) gauges. Returns `(name, reason)` per
    /// eviction for the caller's log.
    pub fn enforce(&self) -> Vec<(Arc<str>, &'static str)> {
        let mut evicted = Vec::new();
        if let Some(idle) = self.policy.idle_evict {
            for idx in 0..self.tenants.len() {
                let cell = &self.tenants[idx];
                if self.lifecycle(idx) == Lifecycle::Warm
                    && cell.inflight.load(Ordering::Relaxed) == 0
                    && cell.last_used.lock().elapsed() >= idle
                    && self.evict(idx).is_ok()
                {
                    evicted.push((Arc::clone(&cell.name), "idle"));
                }
            }
        }
        if let Some(budget) = self.policy.memory_budget_bytes {
            loop {
                let (_, total) = self.warm_totals();
                if total <= budget as u64 {
                    break;
                }
                // LRU victim: the least-recently-used evictable tenant.
                let victim = (0..self.tenants.len())
                    .filter(|&i| {
                        self.lifecycle(i) == Lifecycle::Warm
                            && self.tenants[i].inflight.load(Ordering::Relaxed) == 0
                            && self.tenants[i].factory.is_some()
                    })
                    .min_by_key(|&i| *self.tenants[i].last_used.lock());
                let Some(victim) = victim else {
                    break; // Everything warm is busy; retry next tick.
                };
                if self.evict(victim).is_err() {
                    break;
                }
                evicted.push((Arc::clone(&self.tenants[victim].name), "budget"));
            }
        }
        self.sample_gauges();
        evicted
    }

    /// Aggregate `(entries, bytes)` across every warm tenant — what the
    /// monitor publishes as `serve.warm_entries`/`serve.warm_bytes`, now
    /// a cluster-wide sum.
    pub fn warm_totals(&self) -> (u64, u64) {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for idx in 0..self.tenants.len() {
            if let Some(slot) = self.slot(idx) {
                entries += slot.engine.store_entries() as u64;
                bytes += slot.engine.store_bytes() as u64;
            }
        }
        (entries, bytes)
    }

    /// Refreshes `tenancy.warm_tenants`/`tenancy.warm_bytes` and the
    /// per-tenant gauges (multi-tenant only).
    pub fn sample_gauges(&self) {
        let mut warm_tenants = 0u64;
        let mut warm_bytes = 0u64;
        for idx in 0..self.tenants.len() {
            let cell = &self.tenants[idx];
            let slot = self.slot(idx);
            if let Some(slot) = &slot {
                warm_tenants += 1;
                warm_bytes += slot.engine.store_bytes() as u64;
            }
            if self.multi {
                let (entries, bytes) = slot
                    .map(|s| {
                        (
                            s.engine.store_entries() as u64,
                            s.engine.store_bytes() as u64,
                        )
                    })
                    .unwrap_or((0, 0));
                self.obs
                    .gauge(&names::tenant_metric(&cell.name, "warm_entries"))
                    .set(entries);
                self.obs
                    .gauge(&names::tenant_metric(&cell.name, "warm_bytes"))
                    .set(bytes);
                self.obs
                    .gauge(&names::tenant_metric(&cell.name, "state"))
                    .set(u64::from(cell.phase.load(Ordering::Acquire)));
            }
        }
        self.obs
            .gauge(names::TENANCY_WARM_TENANTS)
            .set(warm_tenants);
        self.obs.gauge(names::TENANCY_WARM_BYTES).set(warm_bytes);
    }

    /// Sweeps a snapshot of every warm tenant with a snapshot path —
    /// the periodic / admin-frame / SIGUSR1 / at-drain persistence path,
    /// still funneled through the single monitor writer. Returns
    /// `(taken, failed)`.
    pub fn write_snapshots(&self) -> (usize, usize) {
        let mut taken = 0;
        let mut failed = 0;
        for idx in 0..self.tenants.len() {
            let cell = &self.tenants[idx];
            let Some(path) = &cell.snapshot_path else {
                continue;
            };
            let Some(slot) = self.slot(idx) else {
                continue;
            };
            match slot.engine.write_snapshot(path) {
                Ok(bytes) => {
                    taken += 1;
                    self.obs.counter(names::PERSIST_SNAPSHOTS_TAKEN).inc();
                    self.obs.gauge(names::PERSIST_SNAPSHOT_BYTES).set(bytes);
                    if self.multi {
                        self.obs
                            .counter(&names::tenant_metric(&cell.name, "snapshots_taken"))
                            .inc();
                    }
                }
                Err(_) => {
                    failed += 1;
                    self.obs.counter(names::PERSIST_SNAPSHOTS_FAILED).inc();
                }
            }
        }
        (taken, failed)
    }

    /// Any tenant carries a snapshot path (the monitor's "is persistence
    /// configured at all" check).
    pub fn persists(&self) -> bool {
        self.tenants.iter().any(|c| c.snapshot_path.is_some())
    }

    /// Per-tenant rows for the admin `stats`/`ping` frames.
    pub fn stats(&self) -> Vec<TenantStatus> {
        (0..self.tenants.len())
            .map(|idx| {
                let cell = &self.tenants[idx];
                let (entries, bytes) = self
                    .slot(idx)
                    .map(|s| {
                        (
                            s.engine.store_entries() as u64,
                            s.engine.store_bytes() as u64,
                        )
                    })
                    .unwrap_or((0, 0));
                TenantStatus {
                    name: Arc::clone(&cell.name),
                    state: self.lifecycle(idx).name(),
                    entries,
                    bytes,
                    inflight: cell.inflight.load(Ordering::Relaxed),
                }
            })
            .collect()
    }
}
