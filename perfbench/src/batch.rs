//! The offline workloads: one explain call over a whole batch, repeated
//! for the measured time.

use std::sync::Arc;
use std::time::Instant;

use shahin::obs::{EventSink, ProvenanceSink};
use shahin::{
    run, run_with_obs, BatchConfig, ExplainerKind, Method, MetricsRegistry, RunReport,
    StreamingConfig,
};
use shahin_bench::{bench_anchor, bench_lime, bench_shap};
use shahin_model::{CountingClassifier, RandomForest};
use shahin_tabular::Dataset;

use crate::report::{unit_of, Report};
use crate::setup::{self, Setup, SetupTimes};
use crate::stats::{self, median};
use crate::trace::{self, CallLog, TimedModel};

/// Worker threads of the parallel engine.
pub const THREADS: usize = 2;

/// The model as every workload sees it.
pub type Model = CountingClassifier<TimedModel<Arc<RandomForest>>>;

/// Wraps the forest, timing calls into `log` when one is given.
pub fn model(forest: &Arc<RandomForest>, log: Option<Arc<CallLog>>) -> Model {
    CountingClassifier::new(TimedModel::new(Arc::clone(forest), log))
}

/// Which offline workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offline {
    /// LIME, `BatchParallel` at two threads.
    Lime,
    /// Anchor, `BatchParallel` at two threads.
    Anchor,
    /// KernelSHAP, `ShahinStreaming` under a small memory budget.
    StreamShap,
}

/// Sizes of an offline workload.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Census-Income scale (1.0 is 20,000 rows).
    pub data_scale: f64,
    /// Tuples per explain call.
    pub tuples: usize,
    /// Leading tuples also explained by `Sequential` for agreement.
    pub agreement_tuples: usize,
}

impl Offline {
    /// The workload's full-size inputs.
    pub fn size(self) -> Size {
        let (tuples, agreement_tuples) = match self {
            Offline::Lime => (5000, 1000),
            Offline::Anchor => (1000, 400),
            Offline::StreamShap => (1000, 1000),
        };
        Size {
            data_scale: 1.0,
            tuples,
            agreement_tuples,
        }
    }

    /// The explainer and its parameters.
    pub fn explainer(self) -> ExplainerKind {
        match self {
            Offline::Lime => ExplainerKind::Lime(bench_lime()),
            Offline::Anchor => ExplainerKind::Anchor(bench_anchor()),
            Offline::StreamShap => ExplainerKind::Shap(bench_shap()),
        }
    }

    /// The explanation method.
    pub fn method(self) -> Method {
        match self {
            Offline::Lime | Offline::Anchor => Method::BatchParallel(parallel_config()),
            Offline::StreamShap => Method::Streaming(StreamingConfig {
                memory_budget_bytes: 1 << 20,
                refresh_every: 100,
                ..Default::default()
            }),
        }
    }

    /// Threads the method runs on: the lanes of worker-thread time.
    fn lanes(self) -> usize {
        match self {
            Offline::Lime | Offline::Anchor => THREADS,
            Offline::StreamShap => 1,
        }
    }
}

/// Shahin-Batch at [`THREADS`] worker threads.
pub fn parallel_config() -> BatchConfig {
    BatchConfig {
        n_threads: Some(THREADS),
        ..Default::default()
    }
}

/// One explain call and its cost.
pub struct Rep {
    /// The call's report.
    pub run: RunReport,
    /// Wall time of the call.
    pub wall_s: f64,
    /// Classifier invocations of the call.
    pub invocations: u64,
}

/// Runs the workload's method once over `batch`, recording into `obs`.
pub fn explain_once(
    w: Offline,
    s: &Setup,
    clf: &Model,
    batch: &Dataset,
    seed: u64,
    obs: &MetricsRegistry,
) -> Rep {
    clf.reset();
    let t0 = Instant::now();
    let run = run_with_obs(&w.method(), &w.explainer(), &s.ctx, clf, batch, seed, obs);
    Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        invocations: clf.invocations(),
        run,
    }
}

/// Sets up [`setup::SETUP_REPS`] times; returns the last set-up and the
/// per-set-up times.
pub fn set_up(data_scale: f64) -> (Setup, Vec<SetupTimes>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..setup::SETUP_REPS {
        let (s, t) = setup::build(data_scale);
        times.push(t);
        last = Some(s);
    }
    (last.expect("at least one set-up"), times)
}

/// Median set-up metrics: `setup_s`, and the `tabular` / `model` layer
/// shares of it.
pub fn setup_medians(times: &[SetupTimes]) -> (f64, f64, f64) {
    let pick = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    (
        pick(|t| t.total_s),
        pick(|t| t.generate_s),
        pick(|t| t.fit_s),
    )
}

/// The output checks every run makes on the untimed first call, plus the
/// agreement of its leading tuples with `Sequential`. Returns
/// `(kendall_tau_vs_seq, rule_agreement_vs_seq)`.
pub fn check_outputs(
    w: Offline,
    s: &Setup,
    batch: &Dataset,
    first: &RunReport,
    seed: u64,
    size: Size,
    report: &mut Report,
) -> (f64, f64) {
    let n = batch.n_rows();
    report.check(
        first.report.failures.is_empty() && first.explanations.len() == n,
        "one explanation per tuple",
    );
    report.check(
        stats::all_usable(&first.explanations),
        "finite weights or non-empty rules",
    );
    if w == Offline::Lime {
        // Documented thread-count invariance: BatchParallel at any thread
        // count equals the single-thread Batch method bit for bit.
        let single = Method::Batch(BatchConfig {
            n_threads: Some(1),
            ..Default::default()
        });
        let clf = model(&s.forest, None);
        let reference = run(&single, &w.explainer(), &s.ctx, &clf, batch, seed);
        report.check(
            stats::fingerprint(&reference.explanations) == stats::fingerprint(&first.explanations),
            "batch-lime equals single-thread Batch",
        );
    }
    let k = size.agreement_tuples.min(first.explanations.len());
    let head = batch.select(&(0..k).collect::<Vec<_>>());
    let clf = model(&s.forest, None);
    let seq = run(
        &Method::Sequential,
        &w.explainer(),
        &s.ctx,
        &clf,
        &head,
        seed,
    );
    let ours = &first.explanations[..k];
    (
        stats::kendall_tau_vs(ours, &seq.explanations, s.ctx.n_attrs()),
        stats::rule_agreement_vs(ours, &seq.explanations),
    )
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints one explain call's fingerprint next to its cost.
fn print_fingerprint(w: &str, seed: u64, i: usize, rep: &Rep) {
    println!(
        "fingerprint workload={w} seed={seed} rep={i} fp={:016x} wall_s={:.4} invocations={}",
        stats::fingerprint(&rep.run.explanations),
        rep.wall_s,
        rep.invocations
    );
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(w: Offline, name: &str, seed: u64, seconds: f64, size: Size) -> Report {
    let mut report = Report::new();
    let (s, times) = set_up(size.data_scale);
    let batch = s.batch(size.tuples, seed);
    let n = batch.n_rows();
    let clf = model(&s.forest, None);
    let off = MetricsRegistry::disabled();

    // The first call is untimed: it warms allocator and caches, and its
    // output is what the checks examine.
    let first = explain_once(w, &s, &clf, &batch, seed, &off);
    print_fingerprint(name, seed, 0, &first);
    let fp0 = stats::fingerprint(&first.run.explanations);

    let t0 = Instant::now();
    // Only each call's cost is kept: holding its explanations would grow
    // the benchmark's own memory with the number of calls.
    let mut walls = Vec::new();
    let mut invocations = Vec::new();
    let mut repeats = true;
    while walls.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        let rep = explain_once(w, &s, &clf, &batch, seed, &off);
        report.tally.add_run(n, &rep.run);
        print_fingerprint(name, seed, walls.len() + 1, &rep);
        repeats &= stats::fingerprint(&rep.run.explanations) == fp0;
        walls.push(rep.wall_s);
        invocations.push(rep.invocations as f64 / n as f64);
    }
    if w == Offline::Lime {
        report.check(repeats, "batch-lime repeats its fingerprint");
    }
    let (tau, agree) = check_outputs(w, &s, &batch, &first.run, seed, size, &mut report);

    let tput = median(&walls.iter().map(|wall| n as f64 / wall).collect::<Vec<_>>());
    // Every tuple of a call is delivered when the call returns, so a
    // tuple's latency is its call's wall time. A run makes 5-30 calls: too
    // few to support any tail percentile (the tail helper needs ten calls
    // beyond it), so p99_ms reports the highest percentile they support,
    // and the median when they support none.
    let walls_ms: Vec<f64> = walls.iter().map(|wall| wall * 1e3).collect();
    let p50 = median(&walls_ms);
    let tail = stats::tail(&walls_ms).map_or(p50, |t| t.value);
    eprintln!("{name}: {} calls of {n} tuples", walls.len());
    let (setup_s, _, _) = setup_medians(&times);
    report.metric("setup_s", setup_s, "s");
    report.metric("tuples_per_s", tput, "1/s");
    report.metric("invocations_per_tuple", median(&invocations), "count");
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("kendall_tau_vs_seq", tau, "ratio");
    report.metric("rule_agreement_vs_seq", agree, "ratio");
    report.metric("p50_ms", p50, "ms");
    report.metric("p99_ms", tail, "ms");
    // An offline job has no latency limit: its sustainable rate is its
    // throughput.
    report.metric("max_rps_at_slo", tput, "1/s");
    report
}

/// Per-layer figures of one traced explain call.
struct Traced {
    wall_s: f64,
    values: Vec<(&'static str, f64)>,
}

fn traced_once(w: Offline, s: &Setup, batch: &Dataset, seed: u64, report: &mut Report) -> Traced {
    let reg = MetricsRegistry::new();
    let sink = Arc::new(EventSink::new());
    reg.attach_event_sink(Arc::clone(&sink));
    let prov = Arc::new(ProvenanceSink::new());
    reg.attach_provenance_sink(Arc::clone(&prov));
    let log = Arc::new(CallLog::new(Arc::clone(&sink)));
    let clf = model(&s.forest, Some(Arc::clone(&log)));
    let w0 = sink.now_ns();
    let rep = explain_once(w, s, &clf, batch, seed, &reg);
    let w1 = sink.now_ns();
    report.tally.add_run(batch.n_rows(), &rep.run);
    report.check(sink.dropped() == 0, "span timeline complete");

    let a = trace::attribute(
        &sink.records(),
        &log.calls(),
        (w0, w1),
        w.lanes(),
        w.lanes(),
    );
    report.check(
        a.unattributed_s() >= -0.02 * a.worker_thread_s,
        "layer self times fit in worker-thread time",
    );
    let snap = reg.snapshot();
    let span_count = |name: &str| {
        snap.histograms
            .get(&format!("span.{name}"))
            .map_or(0.0, |h| h.count as f64)
    };
    let shard_sum = |kind: &str| -> f64 {
        snap.counters
            .iter()
            .filter(|(k, _)| k.starts_with("anchor.shard") && k.ends_with(kind))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let p = prov.totals();
    let (hits, misses) = (shard_sum(".hits"), shard_sum(".misses"));
    let rows = a.model_rows as f64;
    let calls = a.model_calls as f64;
    let values = vec![
        ("model.busy_s", a.model_s),
        ("model.rows", rows),
        ("model.calls", calls),
        (
            "model.rows_per_call",
            if calls > 0.0 { rows / calls } else { 0.0 },
        ),
        ("explain.surrogate_self_s", a.surrogate_self_s),
        ("explain.anchor_search_self_s", a.anchor_self_s),
        (
            "explain.anchor_candidates",
            snap.counter("anchor.candidates") as f64,
        ),
        ("anchor_cache.hit_ratio", ratio(hits, misses)),
        ("store.match_s", a.match_s),
        ("store.match_calls", span_count(trace::MATCH)),
        ("store.materialize_s", a.materialize_s),
        ("store.samples_reused", p.samples_reused as f64),
        ("store.samples_fresh", p.samples_fresh as f64),
        (
            "store.reuse_ratio",
            ratio(p.samples_reused as f64, p.samples_fresh as f64),
        ),
        ("store.evictions", snap.counter("store.evictions") as f64),
        ("store.peak_bytes", rep.run.metrics.store_bytes as f64),
        ("fim.mine_s", a.fim_s),
        ("fim.mine_calls", span_count(trace::FIM)),
        ("fim.itemsets", rep.run.metrics.n_frequent as f64),
        (
            "streaming.refresh_rounds",
            snap.counter("streaming.refresh_rounds") as f64,
        ),
        (
            "streaming.carried_samples",
            snap.counter("streaming.carried_samples") as f64,
        ),
        (
            "streaming.early_evictions",
            snap.counter("streaming.early_evictions") as f64,
        ),
        ("worker_thread_s", a.worker_thread_s),
        ("unattributed_s", a.unattributed_s()),
    ];
    Traced {
        wall_s: rep.wall_s,
        values,
    }
}

/// The traced run: per-layer metrics, with untraced and traced calls
/// alternating so their difference is the tracing overhead.
pub fn run_traced(w: Offline, seed: u64, seconds: f64, size: Size) -> Report {
    let mut report = Report::new();
    let (s, times) = set_up(size.data_scale);
    let batch = s.batch(size.tuples, seed);
    let clf = model(&s.forest, None);
    let off = MetricsRegistry::disabled();
    let first = explain_once(w, &s, &clf, &batch, seed, &off);
    check_outputs(w, &s, &batch, &first.run, seed, size, &mut report);

    let t0 = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    while traced.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        let rep = explain_once(w, &s, &clf, &batch, seed, &off);
        report.tally.add_run(batch.n_rows(), &rep.run);
        plain.push(rep.wall_s);
        traced.push(traced_once(w, &s, &batch, seed, &mut report));
    }
    for (i, (name, _)) in traced[0].values.iter().enumerate() {
        let v: Vec<f64> = traced.iter().map(|t| t.values[i].1).collect();
        report.metric(name, median(&v), unit_of(name));
    }
    let (_, generate_s, fit_s) = setup_medians(&times);
    report.metric("model.fit_s", fit_s, "s");
    report.metric("tabular.generate_s", generate_s, "s");
    let traced_wall = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    report.metric(
        "obs.trace_overhead_pct",
        (traced_wall / median(&plain) - 1.0) * 100.0,
        "%",
    );
    serve_layers_idle(&mut report);
    report
}

/// The serve-layer metrics of a workload that does not serve: nothing
/// was queued, batched, sent or refused.
pub fn serve_layers_idle(report: &mut Report) {
    for name in [
        "warm.explain_s",
        "serve.queue_wait_p99_ms",
        "serve.batch_size_mean",
        "serve.server_latency_p99_ms",
        "serve.rejected_overload",
        "serve.gen_lateness_p99_ms",
        "serve.backlog_end",
    ] {
        report.metric(name, 0.0, unit_of(name));
    }
}

/// Explanations of one untimed call of workload `w` at `seed`.
#[cfg(test)]
pub fn explanations(w: Offline, seed: u64, size: Size) -> Vec<shahin::Explanation> {
    let (s, _) = setup::build(size.data_scale);
    let batch = s.batch(size.tuples, seed);
    let clf = model(&s.forest, None);
    explain_once(w, &s, &clf, &batch, seed, &MetricsRegistry::disabled())
        .run
        .explanations
}
