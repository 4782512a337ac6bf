//! The lock-striped metrics registry and its metric handles.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! of the registered cell: callers resolve a name once (one stripe lock)
//! and update lock-free afterwards. Handles from a
//! [`MetricsRegistry::disabled`] registry carry no cell and every update
//! is a no-op behind a single predictable branch.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::events::EventSink;
use crate::provenance::ProvenanceSink;
use crate::trace::TraceSink;

/// Number of name-keyed stripes. Registration is rare (handles are cached
/// by the instrumented structures), so this only needs to keep concurrent
/// *registration* bursts from serializing.
pub const N_STRIPES: usize = 16;

/// Number of log2 histogram buckets. Bucket `i ≥ 1` counts samples in
/// `[2^(i-1), 2^i)` nanoseconds; bucket 0 counts zeros; the last bucket is
/// a catch-all for everything at or above `2^(N_BUCKETS-2)`.
pub const N_BUCKETS: usize = 64;

/// Prefix under which [`MetricsRegistry::span`] registers its histograms.
pub const SPAN_PREFIX: &str = "span.";

/// The bucket a value falls into: its bit length, clamped to the catch-all.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(N_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i`, in nanoseconds.
#[inline]
pub fn bucket_upper_ns(i: usize) -> u64 {
    if i >= N_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// The shared cell behind a [`Histogram`] handle.
pub(crate) struct HistogramCell {
    pub(crate) count: AtomicU64,
    pub(crate) sum_ns: AtomicU64,
    pub(crate) buckets: [AtomicU64; N_BUCKETS],
    /// Exemplars: per bucket, the last nonzero trace id whose sample
    /// landed there (0 = none yet). Written only by the traced record
    /// path, so untraced hot paths never touch this array.
    pub(crate) exemplars: [AtomicU64; N_BUCKETS],
}

impl HistogramCell {
    fn new() -> HistogramCell {
        HistogramCell {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A monotonically increasing counter. No-op when detached.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached handle: every update is a no-op, `get` returns 0.
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// True when updates actually land somewhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a detached handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => write!(f, "Counter({})", self.get()),
            None => write!(f, "Counter(noop)"),
        }
    }
}

/// A last-value / high-watermark gauge. No-op when detached.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A detached handle.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// True when updates actually land somewhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if it is below (high-watermark semantics).
    #[inline]
    pub fn max(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a detached handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => write!(f, "Gauge({})", self.get()),
            None => write!(f, "Gauge(noop)"),
        }
    }
}

/// The timeline-event context a span histogram carries when an
/// [`EventSink`] is attached to its registry: the sink plus the interned
/// phase name, resolved once at registration so span drops on the hot
/// path never touch the registry again.
#[derive(Clone)]
pub(crate) struct EventContext {
    pub(crate) sink: Arc<EventSink>,
    pub(crate) phase: Arc<str>,
}

/// A log2-bucketed histogram of nanosecond values. No-op when detached.
#[derive(Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
    /// Present only for span histograms from a registry with an attached
    /// [`EventSink`]; spans then also emit timeline events on drop.
    pub(crate) events: Option<EventContext>,
}

impl Histogram {
    /// A detached handle.
    pub fn noop() -> Histogram {
        Histogram {
            cell: None,
            events: None,
        }
    }

    /// True when samples actually land somewhere. Hot paths use this to
    /// skip even the `Instant::now` calls when observability is off.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Records one sample of `ns` nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if let Some(cell) = &self.cell {
            cell.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }

    /// Records one duration sample.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one sample and stamps `trace_id` as the exemplar of the
    /// bucket it lands in (a `trace_id` of 0 means "untraced" and only
    /// records the sample). Snapshots export the exemplars so operators
    /// can jump from a latency bucket to a concrete retained trace.
    #[inline]
    pub fn record_ns_traced(&self, ns: u64, trace_id: u64) {
        if let Some(cell) = &self.cell {
            let i = bucket_index(ns);
            cell.buckets[i].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum_ns.fetch_add(ns, Ordering::Relaxed);
            if trace_id != 0 {
                cell.exemplars[i].store(trace_id, Ordering::Relaxed);
            }
        }
    }

    /// Duration-flavored [`Histogram::record_ns_traced`].
    #[inline]
    pub fn record_traced(&self, d: Duration, trace_id: u64) {
        self.record_ns_traced(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX), trace_id);
    }

    /// Starts an RAII span recording into this histogram when dropped.
    /// Pre-resolving the histogram and calling `start()` per iteration
    /// avoids re-hashing the name on hot loops.
    #[inline]
    pub fn start(&self) -> Span {
        Span {
            hist: self.clone(),
            start: Instant::now(),
            armed: true,
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.sum_ns.load(Ordering::Relaxed))
    }

    /// Mean sample value in nanoseconds. An empty (or detached) histogram
    /// reports 0, never NaN — summaries must stay finite for JSON export.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns().checked_div(self.count()).unwrap_or(0)
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the log2
    /// bucket holding the q-th sample, or `None` when the histogram is
    /// empty or detached (callers must not conjure a percentile out of
    /// zero samples). A non-finite `q` is treated as 0; samples in the
    /// saturating catch-all bucket report `u64::MAX` ("inf").
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let cell = self.cell.as_ref()?;
        let count = cell.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        let mut last_nonempty = 0usize;
        for (i, b) in cell.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                last_nonempty = i;
            }
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_ns(i));
            }
        }
        // Racing writers may have bumped `count` before their bucket:
        // fall back to the highest populated bucket.
        Some(bucket_upper_ns(last_nonempty))
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.cell {
            Some(_) => write!(f, "Histogram(n={}, sum_ns={})", self.count(), self.sum_ns()),
            None => write!(f, "Histogram(noop)"),
        }
    }
}

/// A log2-bucketed histogram of *unitless* values (counts, sizes) — the
/// same cell layout as [`Histogram`] but exported without nanosecond
/// semantics, so e.g. a batch-size distribution never renders with time
/// units. No-op when detached.
#[derive(Clone, Default)]
pub struct ValueHistogram(Option<Arc<HistogramCell>>);

impl ValueHistogram {
    /// A detached handle.
    pub fn noop() -> ValueHistogram {
        ValueHistogram(None)
    }

    /// True when samples actually land somewhere.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(cell) = &self.0 {
            cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum_ns.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.sum_ns.load(Ordering::Relaxed))
    }
}

impl fmt::Debug for ValueHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => write!(f, "ValueHistogram(n={}, sum={})", self.count(), self.sum()),
            None => write!(f, "ValueHistogram(noop)"),
        }
    }
}

/// An RAII wall-time span. Records its elapsed time into the backing
/// histogram on drop; [`Span::stop`] records eagerly and returns the
/// elapsed duration (which is measured even for a detached histogram, so
/// callers can reuse the span as their local timer).
pub struct Span {
    hist: Histogram,
    start: Instant,
    armed: bool,
}

impl Span {
    /// Elapsed time so far, without stopping the span.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Stops the span, records the sample, and returns the elapsed time.
    pub fn stop(mut self) -> Duration {
        self.armed = false;
        self.finish()
    }

    /// Records into the histogram and, when the backing registry has an
    /// attached [`EventSink`], pushes one complete timeline event. With no
    /// sink attached this is the same single-branch cost as before.
    fn finish(&mut self) -> Duration {
        let d = self.start.elapsed();
        self.hist.record(d);
        if let Some(ev) = &self.hist.events {
            ev.sink.complete(
                &ev.phase,
                ev.sink.ns_since_epoch(self.start),
                u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
            );
        }
        d
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            self.finish();
        }
    }
}

/// What a name is registered as. Mixing kinds under one name is a
/// programming error and panics at registration time.
#[derive(Clone)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
    ValueHistogram(Arc<HistogramCell>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
            Slot::ValueHistogram(_) => "value histogram",
        }
    }
}

struct Inner {
    enabled: bool,
    stripes: [Mutex<HashMap<String, Slot>>; N_STRIPES],
    /// Timeline-event sink; spans emit trace events only while attached.
    events: RwLock<Option<Arc<EventSink>>>,
    /// Per-tuple provenance sink; drivers record lineage only while
    /// attached.
    provenance: RwLock<Option<Arc<ProvenanceSink>>>,
    /// Per-request stage-span sink; engine workers record trace stages
    /// only while attached.
    traces: RwLock<Option<Arc<TraceSink>>>,
}

/// A lock-striped, thread-safe registry of named metrics. Cloning shares
/// the underlying storage (`Arc` semantics), so one registry can be handed
/// to every phase of a run and snapshotted at the end.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n: usize = self.inner.stripes.iter().map(|s| s.lock().len()).sum();
        write!(
            f,
            "MetricsRegistry(enabled={}, metrics={n})",
            self.inner.enabled
        )
    }
}

impl MetricsRegistry {
    fn with_enabled(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::new(Inner {
                enabled,
                stripes: std::array::from_fn(|_| Mutex::new(HashMap::new())),
                events: RwLock::new(None),
                provenance: RwLock::new(None),
                traces: RwLock::new(None),
            }),
        }
    }

    /// A live registry: handles record, snapshots see everything.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::with_enabled(true)
    }

    /// A no-op registry: every handle it vends is detached, snapshots are
    /// empty. This is the "instrumentation compiled out" arm of the
    /// `bench_obs` overhead comparison.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry::with_enabled(false)
    }

    /// Whether this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    fn stripe(&self, name: &str) -> &Mutex<HashMap<String, Slot>> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.inner.stripes[h.finish() as usize % N_STRIPES]
    }

    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Option<Slot> {
        if !self.inner.enabled {
            return None;
        }
        let mut stripe = self.stripe(name).lock();
        let slot = stripe.entry(name.to_string()).or_insert_with(make);
        Some(slot.clone())
    }

    /// The counter registered under `name`, creating it on first use.
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        match self.slot(name, || Slot::Counter(Arc::new(AtomicU64::new(0)))) {
            Some(Slot::Counter(cell)) => Counter(Some(cell)),
            Some(other) => panic!("metric '{name}' is a {}, not a counter", other.kind()),
            None => Counter::noop(),
        }
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.slot(name, || Slot::Gauge(Arc::new(AtomicU64::new(0)))) {
            Some(Slot::Gauge(cell)) => Gauge(Some(cell)),
            Some(other) => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
            None => Gauge::noop(),
        }
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.slot(name, || Slot::Histogram(Arc::new(HistogramCell::new()))) {
            Some(Slot::Histogram(cell)) => Histogram {
                cell: Some(cell),
                events: None,
            },
            Some(other) => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
            None => Histogram::noop(),
        }
    }

    /// The unitless value histogram registered under `name`, creating it
    /// on first use. Distinct from [`MetricsRegistry::histogram`]: its
    /// samples are plain values (batch sizes, counts), and snapshots
    /// export it without nanosecond semantics.
    pub fn value_histogram(&self, name: &str) -> ValueHistogram {
        match self.slot(name, || {
            Slot::ValueHistogram(Arc::new(HistogramCell::new()))
        }) {
            Some(Slot::ValueHistogram(cell)) => ValueHistogram(Some(cell)),
            Some(other) => panic!(
                "metric '{name}' is a {}, not a value histogram",
                other.kind()
            ),
            None => ValueHistogram::noop(),
        }
    }

    /// The histogram backing span `name` (registered as `span.{name}`,
    /// the `phase.subphase` convention). Resolve once outside hot loops,
    /// then [`Histogram::start`] per iteration. When an [`EventSink`] is
    /// attached, the handle also carries the timeline-event context, so
    /// every span started from it lands on the trace with no further
    /// registry traffic.
    pub fn span_histogram(&self, name: &str) -> Histogram {
        let mut h = self.histogram(&format!("{SPAN_PREFIX}{name}"));
        if h.is_enabled() {
            if let Some(sink) = self.event_sink() {
                h.events = Some(EventContext {
                    sink,
                    phase: Arc::from(name),
                });
            }
        }
        h
    }

    /// Attaches a timeline-event sink: from now on, span histograms
    /// resolved from this registry emit trace events (see
    /// [`EventSink::to_chrome_trace`]). Attach *before* drivers resolve
    /// their span handles; ignored on a disabled registry.
    pub fn attach_event_sink(&self, sink: Arc<EventSink>) {
        if self.inner.enabled {
            *self.inner.events.write() = Some(sink);
        }
    }

    /// The attached event sink, if any (always `None` when disabled).
    pub fn event_sink(&self) -> Option<Arc<EventSink>> {
        if !self.inner.enabled {
            return None;
        }
        self.inner.events.read().clone()
    }

    /// Attaches a provenance sink: drivers that see it record one
    /// [`crate::ProvenanceRecord`] per explained tuple. Ignored on a
    /// disabled registry.
    pub fn attach_provenance_sink(&self, sink: Arc<ProvenanceSink>) {
        if self.inner.enabled {
            *self.inner.provenance.write() = Some(sink);
        }
    }

    /// The attached provenance sink, if any (always `None` when disabled).
    pub fn provenance_sink(&self) -> Option<Arc<ProvenanceSink>> {
        if !self.inner.enabled {
            return None;
        }
        self.inner.provenance.read().clone()
    }

    /// Attaches a request-trace stage sink: engine workers that see it
    /// record per-stage [`crate::trace::StageSpan`]s for traced
    /// requests. Ignored on a disabled registry.
    pub fn attach_trace_sink(&self, sink: Arc<TraceSink>) {
        if self.inner.enabled {
            *self.inner.traces.write() = Some(sink);
        }
    }

    /// The attached trace sink, if any (always `None` when disabled).
    pub fn trace_sink(&self) -> Option<Arc<TraceSink>> {
        if !self.inner.enabled {
            return None;
        }
        self.inner.traces.read().clone()
    }

    /// Starts an RAII span recording into `span.{name}` when dropped.
    pub fn span(&self, name: &str) -> Span {
        self.span_histogram(name).start()
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> crate::MetricsSnapshot {
        let mut snap = crate::MetricsSnapshot::default();
        for stripe in &self.inner.stripes {
            let stripe = stripe.lock();
            for (name, slot) in stripe.iter() {
                match slot {
                    Slot::Counter(c) => {
                        snap.counters
                            .insert(name.clone(), c.load(Ordering::Relaxed));
                    }
                    Slot::Gauge(g) => {
                        snap.gauges.insert(name.clone(), g.load(Ordering::Relaxed));
                    }
                    Slot::Histogram(h) => {
                        snap.histograms.insert(name.clone(), freeze_histogram(h));
                        let ex = freeze_exemplars(h);
                        if !ex.is_empty() {
                            snap.exemplars.insert(name.clone(), ex);
                        }
                    }
                    Slot::ValueHistogram(h) => {
                        snap.value_histograms
                            .insert(name.clone(), freeze_histogram(h));
                        let ex = freeze_exemplars(h);
                        if !ex.is_empty() {
                            snap.exemplars.insert(name.clone(), ex);
                        }
                    }
                }
            }
        }
        snap
    }
}

/// Point-in-time copy of one histogram cell (shared by the ns and the
/// unitless kinds; the snapshot's field names stay ns-flavored, the
/// exporters attach the right units).
fn freeze_histogram(h: &HistogramCell) -> crate::HistogramSnapshot {
    let buckets: Vec<(usize, u64)> = h
        .buckets
        .iter()
        .enumerate()
        .filter_map(|(i, b)| {
            let n = b.load(Ordering::Relaxed);
            (n > 0).then_some((i, n))
        })
        .collect();
    crate::HistogramSnapshot {
        count: h.count.load(Ordering::Relaxed),
        sum_ns: h.sum_ns.load(Ordering::Relaxed),
        buckets,
    }
}

/// The `(bucket_index, last_trace_id)` exemplar pairs of one histogram
/// cell; buckets that never saw a traced sample are omitted.
fn freeze_exemplars(h: &HistogramCell) -> Vec<(usize, u64)> {
    h.exemplars
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            let id = e.load(Ordering::Relaxed);
            (id != 0).then_some((i, id))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name resolves to the same cell.
        assert_eq!(reg.counter("a.b").get(), 5);
        assert!(c.is_enabled());
    }

    #[test]
    fn disabled_registry_is_noop() {
        let reg = MetricsRegistry::disabled();
        let c = reg.counter("x");
        let g = reg.gauge("y");
        let h = reg.histogram("z");
        c.add(10);
        g.set(3);
        h.record_ns(100);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
        assert!(!c.is_enabled() && !g.is_enabled() && !h.is_enabled());
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn gauge_set_and_watermark() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("bytes");
        g.set(10);
        g.max(5);
        assert_eq!(g.get(), 10);
        g.max(20);
        assert_eq!(g.get(), 20);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_upper_ns(0), 0);
        assert_eq!(bucket_upper_ns(10), 1023);
        assert_eq!(bucket_upper_ns(N_BUCKETS - 1), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 7, 1000, 123_456_789, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_ns(i), "{v} above bucket {i}");
            if i > 0 {
                assert!(v > bucket_upper_ns(i - 1), "{v} below bucket {i}");
            }
        }
    }

    #[test]
    fn histogram_records_count_and_sum() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for ns in [3u64, 100, 100_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ns(), 100_103);
        let snap = reg.snapshot();
        let hs = snap.histograms.get("lat").expect("registered");
        assert_eq!(hs.count, 3);
        assert_eq!(hs.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 3);
    }

    #[test]
    fn spans_record_on_drop_and_stop() {
        let reg = MetricsRegistry::new();
        {
            let _s = reg.span("phase.sub");
        }
        let d = reg.span("phase.sub").stop();
        assert!(d >= Duration::ZERO);
        assert_eq!(reg.span_histogram("phase.sub").count(), 2);
        // Spans live under the span. prefix.
        assert_eq!(reg.histogram("span.phase.sub").count(), 2);
    }

    #[test]
    fn span_stop_measures_even_when_detached() {
        let h = Histogram::noop();
        let s = h.start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(s.stop() >= Duration::from_millis(2));
        assert_eq!(h.count(), 0);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("dual");
        reg.gauge("dual");
    }

    #[test]
    fn value_histograms_record_and_snapshot_separately() {
        let reg = MetricsRegistry::new();
        let v = reg.value_histogram("serve.batch_size");
        for size in [1u64, 8, 32] {
            v.record(size);
        }
        assert_eq!(v.count(), 3);
        assert_eq!(v.sum(), 41);
        let snap = reg.snapshot();
        let hs = snap
            .value_histograms
            .get("serve.batch_size")
            .expect("snapshots into the value_histograms section");
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum_ns, 41);
        assert!(!snap.histograms.contains_key("serve.batch_size"));
        // Detached handles are no-ops.
        let off = MetricsRegistry::disabled().value_histogram("x");
        off.record(5);
        assert_eq!(off.count(), 0);
        assert!(!off.is_enabled());
    }

    #[test]
    #[should_panic(expected = "is a histogram, not a value histogram")]
    fn value_histogram_kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.histogram("dual");
        reg.value_histogram("dual");
    }

    #[test]
    fn empty_histogram_summaries_are_zero_and_none_not_nan() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("never.recorded");
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.quantile_ns(0.5), None);
        assert_eq!(h.quantile_ns(0.99), None);
        // Detached handles behave identically.
        let noop = Histogram::noop();
        assert_eq!(noop.mean_ns(), 0);
        assert_eq!(noop.quantile_ns(0.5), None);
    }

    #[test]
    fn single_sample_histogram_summaries() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("one");
        h.record_ns(1000);
        assert_eq!(h.mean_ns(), 1000);
        // Every quantile of one sample is that sample's bucket bound.
        let expected = bucket_upper_ns(bucket_index(1000));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), Some(expected));
        }
        // Degenerate q values must not panic or go non-finite.
        assert_eq!(h.quantile_ns(f64::NAN), Some(expected));
        assert_eq!(h.quantile_ns(f64::INFINITY), Some(expected));
        assert_eq!(h.quantile_ns(-3.0), Some(expected));
    }

    #[test]
    fn saturating_bucket_quantile_reports_max() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("sat");
        h.record_ns(10);
        h.record_ns(u64::MAX); // lands in the catch-all bucket
        assert_eq!(h.quantile_ns(1.0), Some(u64::MAX));
        assert!(h.quantile_ns(0.25).unwrap() < u64::MAX);
        // Sum saturates gracefully rather than being meaningful here;
        // mean must still be finite.
        let _ = h.mean_ns();
    }

    #[test]
    fn spans_emit_complete_events_when_sink_attached() {
        let reg = MetricsRegistry::new();
        let sink = Arc::new(crate::EventSink::new());
        reg.attach_event_sink(Arc::clone(&sink));
        {
            let _s = reg.span("fim.mine");
        }
        reg.span("retrieve.match").stop();
        assert_eq!(sink.len(), 2);
        let recs = sink.records();
        let phases: Vec<&str> = recs.iter().map(|r| &*r.phase).collect();
        assert!(phases.contains(&"fim.mine"));
        assert!(phases.contains(&"retrieve.match"));
        // Histograms recorded too — events ride along, they don't replace.
        assert_eq!(reg.span_histogram("fim.mine").count(), 1);
    }

    #[test]
    fn no_sink_means_no_events_and_disabled_ignores_attach() {
        let reg = MetricsRegistry::new();
        {
            let _s = reg.span("quiet.phase");
        }
        assert!(reg.event_sink().is_none());
        assert!(reg.provenance_sink().is_none());

        let off = MetricsRegistry::disabled();
        off.attach_event_sink(Arc::new(crate::EventSink::new()));
        off.attach_provenance_sink(Arc::new(crate::ProvenanceSink::new()));
        assert!(off.event_sink().is_none());
        assert!(off.provenance_sink().is_none());
    }

    #[test]
    fn provenance_sink_round_trips_through_registry() {
        let reg = MetricsRegistry::new();
        let sink = Arc::new(crate::ProvenanceSink::new());
        reg.attach_provenance_sink(Arc::clone(&sink));
        let got = reg.provenance_sink().expect("attached");
        got.push(crate::ProvenanceRecord {
            tuple: 3,
            ..Default::default()
        });
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn traced_records_stamp_bucket_exemplars() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("serve.request_latency");
        h.record_ns(500); // untraced: no exemplar
        h.record_ns_traced(600, 41); // same bucket, traced
        h.record_ns_traced(600, 42); // last writer wins
        h.record_ns_traced(1 << 20, 7);
        h.record_ns_traced(900, 0); // trace id 0 = untraced
        let snap = reg.snapshot();
        let ex = snap
            .exemplars
            .get("serve.request_latency")
            .expect("stamped");
        assert_eq!(ex.len(), 2);
        assert!(ex.contains(&(bucket_index(600), 42)));
        assert!(ex.contains(&(bucket_index(1 << 20), 7)));
        // Counts unaffected by tracing.
        assert_eq!(h.count(), 5);
        // Histograms that never saw a traced sample export no entry.
        reg.histogram("quiet").record_ns(3);
        assert!(!reg.snapshot().exemplars.contains_key("quiet"));
        // Detached handles stay no-ops.
        let off = Histogram::noop();
        off.record_ns_traced(5, 9);
        assert_eq!(off.count(), 0);
    }

    #[test]
    fn trace_sink_round_trips_through_registry() {
        let reg = MetricsRegistry::new();
        assert!(reg.trace_sink().is_none());
        let sink = Arc::new(crate::trace::TraceSink::new());
        reg.attach_trace_sink(Arc::clone(&sink));
        let got = reg.trace_sink().expect("attached");
        got.push(
            3,
            crate::trace::StageSpan {
                name: "retrieve",
                start: Instant::now(),
                dur: Duration::from_micros(1),
                counters: crate::trace::TraceCounters::default(),
            },
        );
        assert_eq!(sink.len(), 1);
        // Disabled registries ignore the attachment.
        let off = MetricsRegistry::disabled();
        off.attach_trace_sink(Arc::new(crate::trace::TraceSink::new()));
        assert!(off.trace_sink().is_none());
    }

    #[test]
    fn clones_share_storage() {
        let reg = MetricsRegistry::new();
        let reg2 = reg.clone();
        reg.counter("shared").add(7);
        assert_eq!(reg2.counter("shared").get(), 7);
        assert_eq!(reg2.snapshot().counter("shared"), 7);
    }
}
