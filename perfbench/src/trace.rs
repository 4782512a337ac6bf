//! The traced run's instruments, all outside the program: a `Classifier`
//! wrapper that times every model call, and the attribution of worker
//! thread time to layers from the program's own span timeline (the
//! `EventSink` attached to the `MetricsRegistry` a run records into).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use shahin::obs::{current_thread_id, EventRecord, EventSink};
use shahin_model::Classifier;
use shahin_tabular::Feature;

const N_STRIPES: usize = 16;

/// One timed model call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Call {
    /// Calling thread (the `EventSink` lane id).
    pub tid: u64,
    /// Start, ns since the sink's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Rows predicted.
    pub rows: u64,
}

/// Where timed model calls are collected, striped by thread.
pub struct CallLog {
    sink: Arc<EventSink>,
    stripes: [Mutex<Vec<Call>>; N_STRIPES],
}

impl CallLog {
    /// A log whose timestamps share `sink`'s epoch.
    pub fn new(sink: Arc<EventSink>) -> CallLog {
        CallLog {
            sink,
            stripes: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    fn record(&self, start: Instant, rows: usize) {
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let tid = current_thread_id();
        self.stripes[tid as usize % N_STRIPES]
            .lock()
            .expect("call log poisoned")
            .push(Call {
                tid,
                start_ns: self.sink.ns_since_epoch(start),
                dur_ns,
                rows: rows as u64,
            });
    }

    /// Every call recorded so far.
    pub fn calls(&self) -> Vec<Call> {
        self.stripes
            .iter()
            .flat_map(|s| s.lock().expect("call log poisoned").clone())
            .collect()
    }
}

/// The benchmark's model wrapper. With a log attached it times every call
/// (all four `Classifier` entry points, so batched fast paths survive);
/// without one it forwards at the cost of one branch.
pub struct TimedModel<C> {
    inner: C,
    log: Option<Arc<CallLog>>,
}

impl<C: Classifier> TimedModel<C> {
    /// Wraps `inner`; `log` switches timing on.
    pub fn new(inner: C, log: Option<Arc<CallLog>>) -> TimedModel<C> {
        TimedModel { inner, log }
    }

    #[inline]
    fn timed<T>(&self, rows: usize, f: impl FnOnce(&C) -> T) -> T {
        match &self.log {
            None => f(&self.inner),
            Some(log) => {
                let start = Instant::now();
                let out = f(&self.inner);
                log.record(start, rows);
                out
            }
        }
    }
}

impl<C: Classifier> Classifier for TimedModel<C> {
    fn predict_proba(&self, instance: &[Feature]) -> f64 {
        self.timed(1, |m| m.predict_proba(instance))
    }

    fn predict(&self, instance: &[Feature]) -> u8 {
        self.timed(1, |m| m.predict(instance))
    }

    fn predict_proba_batch(&self, instances: &[Vec<Feature>]) -> Vec<f64> {
        self.timed(instances.len(), |m| m.predict_proba_batch(instances))
    }

    fn predict_proba_flat(&self, rows: &[Feature], n_attrs: usize) -> Vec<f64> {
        let n = rows.len().checked_div(n_attrs).unwrap_or(0);
        self.timed(n, |m| m.predict_proba_flat(rows, n_attrs))
    }
}

/// Span names whose time the attribution splits off by layer.
pub const FIM: &str = "fim.mine";
/// Materialization of the perturbation store.
pub const FILL: &str = "materialize.fill";
/// Per-tuple store lookup.
pub const MATCH: &str = "retrieve.match";
/// Per-tuple sample top-up and surrogate fit.
pub const SURROGATE: &str = "surrogate.fit";
/// One Anchor beam search.
pub const ANCHOR: &str = "anchor.search";

/// Self times, in thread-seconds, of the layers a traced interval ran.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attribution {
    /// Time inside model calls.
    pub model_s: f64,
    /// Model calls.
    pub model_calls: u64,
    /// Rows those calls predicted.
    pub model_rows: u64,
    /// Frequent itemset mining.
    pub fim_s: f64,
    /// Store lookups.
    pub match_s: f64,
    /// Materialization lanes minus the model calls inside them.
    pub materialize_s: f64,
    /// Surrogate fitting minus its model calls.
    pub surrogate_self_s: f64,
    /// Anchor search minus its model calls.
    pub anchor_self_s: f64,
    /// Inclusive time of the per-tuple spans (lookup + explain).
    pub explain_inclusive_s: f64,
    /// Lane capacity of the interval: `lanes × wall`.
    pub worker_thread_s: f64,
}

impl Attribution {
    /// Sum of the layer self times.
    pub fn layers_s(&self) -> f64 {
        self.model_s
            + self.fim_s
            + self.match_s
            + self.materialize_s
            + self.surrogate_self_s
            + self.anchor_self_s
    }

    /// Worker-thread time no layer accounts for: idle lanes, thread
    /// hand-offs and unspanned work.
    pub fn unattributed_s(&self) -> f64 {
        self.worker_thread_s - self.layers_s()
    }
}

/// Splits `lanes × (end_ns − start_ns)` of worker-thread time among the
/// layers, from the spans and model calls that start inside the window.
///
/// A model call belongs to the span that contains it on its own thread;
/// one on a materialization worker (no span of its own) belongs to the
/// `materialize.fill` window it falls in, since that span is recorded by
/// the thread that waits for the workers. Materialization then occupies
/// every lane for its duration, so its self time is `lanes × fill`
/// minus the model time inside it.
pub fn attribute(
    events: &[EventRecord],
    calls: &[Call],
    window: (u64, u64),
    lanes: usize,
    fill_lanes: usize,
) -> Attribution {
    let (w0, w1) = window;
    let inside = |start: u64| start >= w0 && start < w1;
    let spans: Vec<&EventRecord> = events
        .iter()
        .filter(|e| e.dur_ns.is_some() && inside(e.start_ns))
        .collect();
    let mut by_thread: HashMap<u64, Vec<(u64, u64, &str)>> = HashMap::new();
    let mut totals: HashMap<&str, u64> = HashMap::new();
    let mut fills: Vec<(u64, u64)> = Vec::new();
    for e in &spans {
        let dur = e.dur_ns.expect("complete span");
        *totals.entry(&e.phase).or_default() += dur;
        by_thread
            .entry(e.tid)
            .or_default()
            .push((e.start_ns, e.start_ns + dur, &e.phase));
        if &*e.phase == FILL {
            fills.push((e.start_ns, e.start_ns + dur));
        }
    }
    for v in by_thread.values_mut() {
        v.sort_unstable();
    }
    fills.sort_unstable();

    let contains = |sorted: &[(u64, u64)], s: u64, end: u64| {
        let i = sorted.partition_point(|iv| iv.0 <= s);
        i > 0 && sorted[i - 1].1 >= end
    };
    let mut model_in: HashMap<&str, u64> = HashMap::new();
    let mut model_ns = 0u64;
    let mut model_calls = 0u64;
    let mut model_rows = 0u64;
    for c in calls.iter().filter(|c| inside(c.start_ns)) {
        model_ns += c.dur_ns;
        model_calls += 1;
        model_rows += c.rows;
        let end = c.start_ns + c.dur_ns;
        let own = by_thread.get(&c.tid).and_then(|v| {
            let i = v.partition_point(|iv| iv.0 <= c.start_ns);
            (i > 0 && v[i - 1].1 >= end).then(|| v[i - 1].2)
        });
        let span = own.or_else(|| contains(&fills, c.start_ns, end).then_some(FILL));
        if let Some(name) = span {
            *model_in.entry(name).or_default() += c.dur_ns;
        }
    }
    let secs = |ns: u64| ns as f64 * 1e-9;
    let total = |name: &str| totals.get(name).copied().unwrap_or(0);
    let self_s = |name: &str| secs(total(name)) - secs(model_in.get(name).copied().unwrap_or(0));
    let fill_ns: u64 = fills.iter().map(|(a, b)| b - a).sum();
    Attribution {
        model_s: secs(model_ns),
        model_calls,
        model_rows,
        fim_s: self_s(FIM),
        match_s: self_s(MATCH),
        materialize_s: fill_lanes as f64 * secs(fill_ns)
            - secs(model_in.get(FILL).copied().unwrap_or(0)),
        surrogate_self_s: self_s(SURROGATE),
        anchor_self_s: self_s(ANCHOR),
        explain_inclusive_s: secs(total(MATCH) + total(SURROGATE) + total(ANCHOR)),
        worker_thread_s: lanes as f64 * secs(w1 - w0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: &str, tid: u64, start_ns: u64, dur_ns: u64) -> EventRecord {
        EventRecord {
            phase: Arc::from(phase),
            tid,
            start_ns,
            dur_ns: Some(dur_ns),
            seq: 0,
            args: Vec::new(),
        }
    }

    fn call(tid: u64, start_ns: u64, dur_ns: u64) -> Call {
        Call {
            tid,
            start_ns,
            dur_ns,
            rows: 1,
        }
    }

    #[test]
    fn self_times_and_unattributed_add_up_to_lane_time() {
        // Main thread 1 mines, then waits in `materialize.fill` while
        // workers 2 and 3 label perturbations; the workers then explain.
        let events = vec![
            span(FIM, 1, 0, 100),
            span(FILL, 1, 100, 200),
            span(MATCH, 2, 300, 10),
            span(SURROGATE, 2, 310, 90),
            span(MATCH, 3, 300, 20),
            span(SURROGATE, 3, 320, 60),
        ];
        let calls = vec![
            call(2, 120, 50),
            call(3, 130, 40),
            call(2, 320, 30),
            call(3, 330, 10),
        ];
        let a = attribute(&events, &calls, (0, 400), 2, 2);
        let ns = 1e-9;
        assert_eq!((a.model_calls, a.model_rows), (4, 4));
        assert!((a.model_s - 130.0 * ns).abs() < 1e-15);
        assert!((a.fim_s - 100.0 * ns).abs() < 1e-15);
        assert!((a.materialize_s - (400.0 - 90.0) * ns).abs() < 1e-15);
        assert!((a.match_s - 30.0 * ns).abs() < 1e-15);
        assert!((a.surrogate_self_s - (150.0 - 40.0) * ns).abs() < 1e-15);
        assert!((a.worker_thread_s - 800.0 * ns).abs() < 1e-15);
        let sum = a.layers_s() + a.unattributed_s();
        assert!((sum - a.worker_thread_s).abs() < 1e-15);
        assert!(
            a.unattributed_s() > 0.0,
            "the idle second lane during mining"
        );
    }

    #[test]
    fn window_excludes_earlier_work() {
        let events = vec![span(FIM, 1, 0, 100), span(SURROGATE, 1, 500, 100)];
        let calls = vec![call(1, 10, 5), call(1, 510, 20)];
        let a = attribute(&events, &calls, (400, 700), 1, 1);
        assert_eq!(a.fim_s, 0.0);
        assert_eq!(a.model_calls, 1);
        assert!((a.surrogate_self_s - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn timed_model_counts_rows_and_calls() {
        let log = Arc::new(CallLog::new(Arc::new(EventSink::new())));
        let m = TimedModel::new(
            shahin_model::MajorityClass::fit(&[1, 0, 1]),
            Some(Arc::clone(&log)),
        );
        let row = vec![Feature::Num(1.0)];
        m.predict_proba(&row);
        m.predict_proba_batch(&[row.clone(), row.clone()]);
        m.predict_proba_flat(&[Feature::Num(1.0), Feature::Num(2.0)], 1);
        let calls = log.calls();
        assert_eq!(calls.len(), 3);
        assert_eq!(calls.iter().map(|c| c.rows).sum::<u64>(), 5);
        let untimed = TimedModel::new(shahin_model::MajorityClass::fit(&[1]), None);
        assert_eq!(untimed.predict(&row), 1);
    }
}
