//! The served workload: an in-process `shahin-serve` over a warm LIME
//! engine, driven open-loop over one pipelined loopback connection.
//!
//! Requests are due on a fixed schedule regardless of how fast the server
//! answers (independent users do not wait for each other). One sender
//! thread writes each request at its due time; one receiver thread reads
//! the answers. Latency runs from the due time, so a stall delays every
//! request scheduled behind it.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shahin::obs::{bucket_upper_ns, EventSink, HistogramSnapshot, ProvenanceSink};
use shahin::{
    run, Explanation, Method, MetricsRegistry, MetricsSnapshot, ShahinBatch, WarmEngine,
    WarmExplainer,
};
use shahin_bench::bench_lime;
use shahin_explain::FeatureWeights;
use shahin_obs::json::Json;
use shahin_serve::{ServeConfig, Server, ServerHandle};
use shahin_tabular::Dataset;

use crate::batch::{self, model, parallel_config, peak_rss_mb, setup_medians};
use crate::report::{unit_of, Report};
use crate::setup::{self, Setup, SetupTimes};
use crate::stats::{self, median, percentile};
use crate::trace::{self, CallLog, TimedModel};

/// Latency limit on a rung's p99.
pub const SLO_MS: f64 = 50.0;
/// A rung whose generator ran later than this at p99 misses the SLO: it
/// fell behind the load it claims to offer by half the latency limit.
pub const LATE_MS: f64 = SLO_MS / 2.0;
/// How long a request may stay unanswered after the rung's last send.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(2);
/// Rows of the warm set: held-out rows the service may be asked about.
/// The warm set and the primed repository are the same on every run, like
/// a deployed service's state; the seed draws the requests. (A repository
/// primed from the run's seed covers different rows, which moved
/// invocations per request by ±15% between seeds.)
pub const WARM_ROWS: usize = 2000;
/// Seed the warm repository is primed with.
const PRIME_SEED: u64 = setup::FIXTURE_SEED;
/// Rate of the reference rung, whose latency is reported.
pub const REFERENCE_RPS: f64 = 500.0;
/// Rungs above the reference rate, each held for [`RUNG_SECS`]: about
/// 10% apart from 2,000 rps on.
pub const LADDER_RPS: [f64; 22] = [
    1000.0, 1500.0, 2000.0, 2200.0, 2400.0, 2650.0, 2900.0, 3200.0, 3500.0, 3850.0, 4250.0, 4650.0,
    5100.0, 5600.0, 6200.0, 6800.0, 7500.0, 8250.0, 9100.0, 10000.0, 11000.0, 12000.0,
];
const RUNG_SECS: f64 = 0.5;
/// Served rows compared with `Sequential` for agreement.
const AGREEMENT_ROWS: usize = 500;

/// When each request of a rung is due, and which row it asks about.
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// `(due offset ns, warm-set row)`, in due order.
    pub requests: Vec<(u64, usize)>,
}

/// The requests of rung `rung`: evenly spaced at `rate` for `secs`, rows
/// drawn uniformly from the warm set by a generator seeded from
/// `(seed, rung)`.
pub fn schedule(seed: u64, rung: u64, rate: f64, secs: f64, n_rows: usize) -> Schedule {
    let mut rng = StdRng::seed_from_u64(shahin::per_tuple_seed(seed ^ 0x5E4E, rung as usize));
    let n = (rate * secs).round() as usize;
    Schedule {
        rate,
        requests: (0..n)
            .map(|i| ((i as f64 * 1e9 / rate) as u64, rng.gen_range(0..n_rows)))
            .collect(),
    }
}

/// What one rung measured.
#[derive(Debug, Default)]
pub struct Rung {
    /// Offered rate.
    pub rate: f64,
    /// Requests sent.
    pub sent: u64,
    /// Due-to-answer latency of each successful request, ms.
    pub latency_ms: Vec<f64>,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Requests not answered within the timeout.
    pub missing: u64,
    /// How late the sender wrote each request, ms.
    pub lateness_ms: Vec<f64>,
    /// Requests outstanding when the last one was sent.
    pub backlog_end: u64,
    /// First due time to last answer, s.
    pub wall_s: f64,
    /// Successful answer frames by row (kept only when asked for).
    pub frames: Vec<(usize, String)>,
}

impl Rung {
    /// Requests in flight that still meet the latency limit: what arrives
    /// within one limit, plus one micro-batch.
    fn backlog_allowance(&self) -> u64 {
        (self.rate * SLO_MS / 1e3).ceil() as u64 + 32
    }

    /// One diagnostic line.
    pub fn summary(&self) -> String {
        let p = percentile;
        format!(
            "sent {} errors {} missing {} p50 {:.2} ms p99 {:.2} ms max {:.2} ms late p99 {:.2} ms backlog {} meets {}",
            self.sent,
            self.errors,
            self.missing,
            p(&self.latency_ms, 50.0),
            p(&self.latency_ms, 99.0),
            p(&self.latency_ms, 100.0),
            p(&self.lateness_ms, 99.0),
            self.backlog_end,
            self.meets_slo()
        )
    }

    /// Whether the rung meets the SLO: no request refused, failed or
    /// timed out, p99 latency within the limit, the generator on time and
    /// the backlog not growing.
    pub fn meets_slo(&self) -> bool {
        self.errors == 0
            && self.missing == 0
            && percentile(&self.latency_ms, 99.0) <= SLO_MS
            && percentile(&self.lateness_ms, 99.0) <= LATE_MS
            && self.backlog_end <= self.backlog_allowance()
    }
}

/// Sends `sched` over `conn` open-loop and collects the answers. Request
/// ids start at `id0`.
pub fn drive(conn: &TcpStream, sched: &Schedule, id0: u64, keep_frames: bool) -> Rung {
    let n = sched.requests.len();
    let received = AtomicU64::new(0);
    let mut sent = Vec::new();
    let mut backlog_end = 0u64;
    // (answer ns, ok) per request, and kept frames.
    let mut answers: Vec<Option<(u64, bool)>> = vec![None; n];
    let mut frames = Vec::new();
    let start = Instant::now() + Duration::from_millis(2);
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let last_due = sched.requests.last().map_or(0, |r| r.0);
    let deadline = start + Duration::from_nanos(last_due) + ANSWER_TIMEOUT;
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut out = conn.try_clone().expect("clone connection");
            let mut sent = Vec::with_capacity(n);
            for (i, &(due, row)) in sched.requests.iter().enumerate() {
                let due_at = start + Duration::from_nanos(due);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let id = id0 + i as u64;
                let frame = format!("{{\"id\":{id},\"method\":\"explain\",\"row\":{row}}}\n");
                out.write_all(frame.as_bytes()).expect("send request");
                sent.push(ns(Instant::now()));
            }
            let outstanding = n as u64 - received.load(Ordering::SeqCst).min(n as u64);
            (sent, outstanding)
        });
        let mut input = BufReader::new(conn.try_clone().expect("clone connection"));
        let mut line = String::new();
        let mut got = 0usize;
        while got < n && Instant::now() < deadline {
            match input.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {}
                // A timeout can split a frame: keep the part read so far.
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    continue
                }
                Err(e) => panic!("read answer: {e}"),
            }
            let at = ns(Instant::now());
            let text = std::mem::take(&mut line);
            let Ok(frame) = Json::parse(text.trim_end()) else {
                continue;
            };
            let Some(i) = frame
                .get("id")
                .and_then(Json::as_u64)
                .and_then(|id| id.checked_sub(id0))
                .map(|i| i as usize)
                .filter(|&i| i < n && answers[i].is_none())
            else {
                continue;
            };
            let ok = frame.get("ok").and_then(Json::as_bool) == Some(true);
            answers[i] = Some((at, ok));
            got += 1;
            received.store(got as u64, Ordering::SeqCst);
            if ok && keep_frames {
                frames.push((sched.requests[i].1, text));
            }
        }
        (sent, backlog_end) = sender.join().expect("sender thread");
    });
    let mut rung = Rung {
        rate: sched.rate,
        sent: n as u64,
        backlog_end,
        frames,
        ..Rung::default()
    };
    let mut last = 0u64;
    for (i, &(due, _)) in sched.requests.iter().enumerate() {
        rung.lateness_ms
            .push(sent[i].saturating_sub(due) as f64 / 1e6);
        match answers[i] {
            Some((at, true)) => {
                rung.latency_ms.push(at.saturating_sub(due) as f64 / 1e6);
                last = last.max(at);
            }
            Some((at, false)) => {
                rung.errors += 1;
                last = last.max(at);
            }
            None => rung.missing += 1,
        }
    }
    rung.wall_s = last as f64 / 1e9;
    rung
}

/// A started server over a primed engine.
struct Served {
    engine: Arc<WarmEngine<TimedModel<Arc<shahin_model::RandomForest>>>>,
    handle: ServerHandle<TimedModel<Arc<shahin_model::RandomForest>>>,
    conn: TcpStream,
}

impl Served {
    fn stop(self) {
        drop(self.conn);
        self.handle.shutdown();
        self.handle.wait();
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        trace_store: 0,
        ..ServeConfig::default()
    }
}

/// Primes a warm LIME engine over `warm` with [`PRIME_SEED`] and starts
/// a listener on it.
fn start(s: &Setup, warm: &Dataset, reg: &MetricsRegistry, log: Option<Arc<CallLog>>) -> Served {
    let engine = Arc::new(WarmEngine::prime(
        parallel_config(),
        WarmExplainer::Lime(bench_lime()),
        s.ctx.clone(),
        model(&s.forest, log),
        warm.clone(),
        PRIME_SEED,
        reg,
    ));
    let handle = Server::start(Arc::clone(&engine), serve_config()).expect("server binds");
    let conn = TcpStream::connect(handle.addr()).expect("connect to server");
    conn.set_nodelay(true).expect("nodelay");
    conn.set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    Served {
        engine,
        handle,
        conn,
    }
}

/// Sets up [`setup::SETUP_REPS`] times, each time through a listening
/// server; keeps the last one running.
fn set_up(data_scale: f64) -> (Setup, Dataset, Served, Vec<SetupTimes>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..setup::SETUP_REPS {
        let (s, mut t) = setup::build(data_scale);
        let t0 = Instant::now();
        let warm = s.batch(WARM_ROWS, setup::FIXTURE_SEED);
        let served = start(&s, &warm, &MetricsRegistry::disabled(), None);
        t.total_s += t0.elapsed().as_secs_f64();
        times.push(t);
        if let Some((_, _, old)) = last.replace((s, warm, served)) {
            Served::stop(old);
        }
    }
    let (s, warm, served) = last.expect("at least one set-up");
    (s, warm, served, times)
}

fn weights_of(frame: &str) -> Option<FeatureWeights> {
    let v = Json::parse(frame).ok()?;
    let weights = match v.get("weights")? {
        Json::Arr(a) => a.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>()?,
        _ => return None,
    };
    Some(FeatureWeights {
        weights,
        intercept: v.get("intercept")?.as_f64()?,
        local_prediction: v.get("local_prediction")?.as_f64()?,
    })
}

/// Served explanations, one per distinct row, against the offline
/// `BatchParallel` run over the warm set: they must be equal bit for bit.
/// Returns the served explanations by row.
fn check_served(
    s: &Setup,
    warm: &Dataset,
    frames: &[(usize, String)],
    report: &mut Report,
) -> BTreeMap<usize, Explanation> {
    let clf = model(&s.forest, None);
    let offline = ShahinBatch::new(parallel_config()).explain_lime_parallel(
        &s.ctx,
        &clf,
        warm,
        &bench_lime(),
        PRIME_SEED,
    );
    report.check(
        offline.report.failures.is_empty(),
        "offline warm-set run explains every row",
    );
    let mut served = BTreeMap::new();
    let mut equal = !frames.is_empty();
    for (row, frame) in frames {
        match weights_of(frame) {
            Some(w) => {
                let want = &offline.explanations[*row];
                equal &= w.weights.len() == want.weights.len()
                    && w.weights
                        .iter()
                        .zip(&want.weights)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
                    && w.intercept.to_bits() == want.intercept.to_bits()
                    && w.local_prediction.to_bits() == want.local_prediction.to_bits();
                served.insert(*row, Explanation::Weights(w));
            }
            None => equal = false,
        }
    }
    report.check(equal, "served explanations equal offline BatchParallel");
    report.check(
        served
            .values()
            .map(std::slice::from_ref)
            .all(stats::all_usable),
        "finite served weights",
    );
    served
}

/// Agreement of served explanations with `Sequential` over the same rows.
fn agreement(
    s: &Setup,
    warm: &Dataset,
    seed: u64,
    served: &BTreeMap<usize, Explanation>,
) -> (f64, f64) {
    let rows: Vec<usize> = served.keys().copied().take(AGREEMENT_ROWS).collect();
    let ours: Vec<Explanation> = rows.iter().map(|r| served[r].clone()).collect();
    let clf = model(&s.forest, None);
    let kind = shahin::ExplainerKind::Lime(bench_lime());
    let seq = run(
        &Method::Sequential,
        &kind,
        &s.ctx,
        &clf,
        &warm.select(&rows),
        seed,
    );
    (
        stats::kendall_tau_vs(&ours, &seq.explanations, s.ctx.n_attrs()),
        stats::rule_agreement_vs(&ours, &seq.explanations),
    )
}

/// The reference rate is measured in this many back-to-back windows; the
/// latency metrics are medians over them, so one stall of the host moves
/// one window and not the result.
const REFERENCE_WINDOWS: u64 = 5;

/// Length of one reference window: the run's measured time split over
/// the windows, and at least 1,000 requests so its p99 has ten samples
/// beyond it.
fn window_secs(seconds: f64) -> f64 {
    (seconds / REFERENCE_WINDOWS as f64).max(1000.0 / REFERENCE_RPS)
}

/// Half a second at the reference rate before anything is timed: the
/// first requests after a prime pay page faults and cold caches.
fn warm_up(conn: &TcpStream, seed: u64, n_rows: usize, report: &mut Report) -> u64 {
    let sched = schedule(seed, u64::MAX, REFERENCE_RPS, 0.5, n_rows);
    let rung = drive(conn, &sched, 0, false);
    report
        .tally
        .add_requests(rung.sent, rung.errors, rung.missing);
    rung.sent
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(seed: u64, seconds: f64, data_scale: f64) -> Report {
    let mut report = Report::new();
    let (s, warm, served, times) = set_up(data_scale);

    let mut id0 = warm_up(&served.conn, seed, warm.n_rows(), &mut report);
    // Invocations per request count every request sent up to the last
    // window or rung that met the SLO: the rows asked for vary, and the
    // fresh samples a row needs vary more.
    let inv0 = served.engine.invocations();
    let mut sent = 0u64;
    let mut windows = Vec::new();
    for w in 0..REFERENCE_WINDOWS {
        let sched = schedule(seed, w, REFERENCE_RPS, window_secs(seconds), warm.n_rows());
        let window = drive(&served.conn, &sched, id0, true);
        eprintln!("reference {REFERENCE_RPS} rps: {}", window.summary());
        id0 += window.sent;
        sent += window.sent;
        report
            .tally
            .add_requests(window.sent, window.errors, window.missing);
        windows.push(window);
    }
    let mut invocations = served.engine.invocations() - inv0;
    let mut requests = sent;
    // Like a ladder rung, the reference rate needs one attempt that meets
    // the SLO.
    let mut max_rps = if windows.iter().any(Rung::meets_slo) {
        REFERENCE_RPS
    } else {
        0.0
    };
    // The ladder climbs while rungs meet the SLO. A rung gets two
    // attempts, so one stall of the host does not end it; the first rung
    // that misses twice does. Its misses are the capacity probe, not an
    // operating point, so only rungs that met the SLO enter the tally.
    let mut rung_seed = REFERENCE_WINDOWS;
    'ladder: for &rate in &LADDER_RPS {
        if max_rps < REFERENCE_RPS {
            break;
        }
        for _attempt in 0..2 {
            let sched = schedule(seed, rung_seed, rate, RUNG_SECS, warm.n_rows());
            rung_seed += 1;
            let rung = drive(&served.conn, &sched, id0, false);
            id0 += rung.sent;
            sent += rung.sent;
            eprintln!("rung {rate} rps: {}", rung.summary());
            if rung.meets_slo() {
                report.tally.add_requests(rung.sent, 0, 0);
                requests = sent;
                invocations = served.engine.invocations() - inv0;
                max_rps = rate;
                continue 'ladder;
            }
        }
        break;
    }
    served.stop();

    let frames: Vec<(usize, String)> = windows
        .iter_mut()
        .flat_map(|w| std::mem::take(&mut w.frames))
        .collect();
    let by_row = check_served(&s, &warm, &frames, &mut report);
    let (tau, agree) = agreement(&s, &warm, seed, &by_row);
    let tails: Vec<_> = windows.iter().map(|w| stats::tail(&w.latency_ms)).collect();
    report.check(
        tails.iter().all(|t| t.is_some_and(|t| t.pct >= 99.0)),
        "every reference window supports a p99",
    );
    let over = |f: &dyn Fn(&Rung) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    let (setup_s, _, _) = setup_medians(&times);
    report.metric("setup_s", setup_s, "s");
    report.metric(
        "tuples_per_s",
        over(&|w| w.latency_ms.len() as f64 / w.wall_s),
        "1/s",
    );
    report.metric(
        "invocations_per_tuple",
        invocations as f64 / requests as f64,
        "count",
    );
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("kendall_tau_vs_seq", tau, "ratio");
    report.metric("rule_agreement_vs_seq", agree, "ratio");
    report.metric("p50_ms", over(&|w| median(&w.latency_ms)), "ms");
    report.metric(
        "p99_ms",
        over(&|w| stats::tail(&w.latency_ms).map_or(f64::NAN, |t| t.value)),
        "ms",
    );
    report.metric("max_rps_at_slo", max_rps, "1/s");
    println!(
        "fingerprint workload=serve-lime-open seed={seed} rep=0 fp={:016x} rows={}",
        stats::fingerprint(&by_row.into_values().collect::<Vec<_>>()),
        frames.len()
    );
    report
}

/// Process CPU time (user + system) so far, s. `/proc` reports it in
/// clock ticks of 1/100 s.
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    f.iter().sum::<f64>() / 100.0
}

fn hist_delta(
    a: &MetricsSnapshot,
    b: &MetricsSnapshot,
    name: &str,
    value: bool,
) -> HistogramSnapshot {
    let pick = |s: &MetricsSnapshot| {
        let m = if value {
            &s.value_histograms
        } else {
            &s.histograms
        };
        m.get(name).cloned().unwrap_or_default()
    };
    let (before, after) = (pick(a), pick(b));
    let old: HashMap<usize, u64> = before.buckets.iter().copied().collect();
    HistogramSnapshot {
        count: after.count - before.count,
        sum_ns: after.sum_ns - before.sum_ns,
        buckets: after
            .buckets
            .iter()
            .map(|&(i, n)| (i, n - old.get(&i).copied().unwrap_or(0)))
            .filter(|&(_, n)| n > 0)
            .collect(),
    }
}

/// Upper bound of the log2 bucket holding quantile `q`, ms.
fn bucket_quantile_ms(h: &HistogramSnapshot, q: f64) -> f64 {
    let rank = ((q * h.count as f64).ceil() as u64).clamp(1, h.count.max(1));
    let mut seen = 0;
    for &(i, n) in &h.buckets {
        seen += n;
        if seen >= rank {
            return bucket_upper_ns(i) as f64 / 1e6;
        }
    }
    0.0
}

/// The traced run: per-layer metrics at the reference rate, from a traced
/// server next to an untraced one.
pub fn run_traced(seed: u64, seconds: f64, data_scale: f64) -> Report {
    let mut report = Report::new();
    let (s, warm, plain, times) = set_up(data_scale);
    let reg = MetricsRegistry::new();
    let sink = Arc::new(EventSink::new());
    reg.attach_event_sink(Arc::clone(&sink));
    let prov = Arc::new(ProvenanceSink::new());
    reg.attach_provenance_sink(Arc::clone(&prov));
    let log = Arc::new(CallLog::new(Arc::clone(&sink)));
    let traced = start(&s, &warm, &reg, Some(Arc::clone(&log)));

    let id0 = warm_up(&plain.conn, seed, warm.n_rows(), &mut report);
    warm_up(&traced.conn, seed, warm.n_rows(), &mut report);
    let sched = schedule(seed, 0, REFERENCE_RPS, window_secs(seconds), warm.n_rows());
    let cpu0 = process_cpu_s();
    let base = drive(&plain.conn, &sched, id0, true);
    let cpu1 = process_cpu_s();
    let snap0 = reg.snapshot();
    let prov0 = prov.totals();
    let w0 = sink.now_ns();
    let rung = drive(&traced.conn, &sched, id0, true);
    let w1 = sink.now_ns();
    let cpu2 = process_cpu_s();
    let snap1 = reg.snapshot();
    let prov1 = prov.totals();
    for r in [&base, &rung] {
        report.tally.add_requests(r.sent, r.errors, r.missing);
    }
    check_served(&s, &warm, &rung.frames, &mut report);
    report.check(sink.dropped() == 0, "span timeline complete");

    let a = trace::attribute(
        &sink.records(),
        &log.calls(),
        (w0, w1),
        batch::THREADS,
        batch::THREADS,
    );
    report.check(
        a.unattributed_s() >= -0.02 * a.worker_thread_s,
        "layer self times fit in worker-thread time",
    );
    let counter = |name: &str| (snap1.counter(name) - snap0.counter(name)) as f64;
    let spans =
        |name: &str| hist_delta(&snap0, &snap1, &format!("span.{name}"), false).count as f64;
    let batch_sizes = hist_delta(&snap0, &snap1, "serve.batch_size", true);
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let reused = (prov1.samples_reused - prov0.samples_reused) as f64;
    let fresh = (prov1.samples_fresh - prov0.samples_fresh) as f64;
    let (rows, calls) = (a.model_rows as f64, a.model_calls as f64);
    let p99 = |v: &[f64]| stats::tail(v).map_or(0.0, |t| t.value);
    let (_, generate_s, fit_s) = setup_medians(&times);
    let cpu_per_req = |cpu: f64, r: &Rung| cpu / r.sent.max(1) as f64;
    let values: Vec<(&str, f64)> = vec![
        ("model.busy_s", a.model_s),
        ("model.rows", rows),
        ("model.calls", calls),
        (
            "model.rows_per_call",
            if calls > 0.0 { rows / calls } else { 0.0 },
        ),
        ("explain.surrogate_self_s", a.surrogate_self_s),
        ("explain.anchor_search_self_s", a.anchor_self_s),
        ("explain.anchor_candidates", counter("anchor.candidates")),
        ("anchor_cache.hit_ratio", 0.0),
        ("store.match_s", a.match_s),
        ("store.match_calls", spans(trace::MATCH)),
        ("store.materialize_s", a.materialize_s),
        ("store.samples_reused", reused),
        ("store.samples_fresh", fresh),
        ("store.reuse_ratio", ratio(reused, fresh)),
        ("store.evictions", counter("store.evictions")),
        ("store.peak_bytes", traced.engine.store_bytes() as f64),
        ("fim.mine_s", a.fim_s),
        ("fim.mine_calls", spans(trace::FIM)),
        ("fim.itemsets", traced.engine.store_entries() as f64),
        ("streaming.refresh_rounds", 0.0),
        ("streaming.carried_samples", 0.0),
        ("streaming.early_evictions", 0.0),
        ("worker_thread_s", a.worker_thread_s),
        ("unattributed_s", a.unattributed_s()),
        ("model.fit_s", fit_s),
        ("tabular.generate_s", generate_s),
        (
            "obs.trace_overhead_pct",
            (cpu_per_req(cpu2 - cpu1, &rung) / cpu_per_req(cpu1 - cpu0, &base) - 1.0) * 100.0,
        ),
        ("warm.explain_s", a.explain_inclusive_s),
        (
            "serve.queue_wait_p99_ms",
            bucket_quantile_ms(&hist_delta(&snap0, &snap1, "serve.queue_wait", false), 0.99),
        ),
        (
            "serve.batch_size_mean",
            batch_sizes.sum_ns as f64 / batch_sizes.count.max(1) as f64,
        ),
        (
            "serve.server_latency_p99_ms",
            bucket_quantile_ms(
                &hist_delta(&snap0, &snap1, "serve.request_latency", false),
                0.99,
            ),
        ),
        (
            "serve.rejected_overload",
            counter("serve.rejected_overload"),
        ),
        ("serve.gen_lateness_p99_ms", p99(&rung.lateness_ms)),
        ("serve.backlog_end", rung.backlog_end as f64),
    ];
    for (name, v) in values {
        report.metric(name, v, unit_of(name));
    }
    plain.stop();
    traced.stop();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_request_schedule() {
        let a = schedule(42, 3, 1000.0, 0.5, 2000);
        assert_eq!(a, schedule(42, 3, 1000.0, 0.5, 2000));
        assert_eq!(a.requests.len(), 500);
        assert_eq!(a.requests[1].0, 1_000_000, "1 ms apart at 1000 rps");
        assert!(a.requests.iter().all(|&(_, row)| row < 2000));
        assert_ne!(a, schedule(43, 3, 1000.0, 0.5, 2000));
        assert_ne!(a.requests, schedule(42, 4, 1000.0, 0.5, 2000).requests);
    }

    fn rung(latency_ms: Vec<f64>) -> Rung {
        Rung {
            rate: 1000.0,
            sent: latency_ms.len() as u64,
            lateness_ms: vec![0.1; latency_ms.len()],
            latency_ms,
            ..Rung::default()
        }
    }

    #[test]
    fn a_rung_misses_on_any_failure_lateness_or_backlog() {
        let ok = rung(vec![5.0; 200]);
        assert!(ok.meets_slo());
        let mut slow = rung(vec![5.0; 200]);
        // Nearest-rank p99 of 200 samples is the 198th: three slow ones
        // reach it.
        for i in 197..200 {
            slow.latency_ms[i] = 60.0;
        }
        assert!(!slow.meets_slo(), "p99 over the limit");
        let mut refused = rung(vec![5.0; 199]);
        refused.errors = 1;
        assert!(!refused.meets_slo());
        let mut lost = rung(vec![5.0; 199]);
        lost.missing = 1;
        assert!(!lost.meets_slo());
        let mut late = rung(vec![5.0; 200]);
        late.lateness_ms = vec![30.0; 200];
        assert!(!late.meets_slo(), "generator ran late");
        let mut backlog = rung(vec![5.0; 200]);
        backlog.backlog_end = 1000;
        assert!(!backlog.meets_slo(), "backlog grew");
    }

    /// Served answers equal the offline run over the warm set (the check
    /// every run makes), and the same seed serves the same explanations.
    #[test]
    fn served_answers_equal_offline_and_repeat() {
        let (s, _) = setup::build(0.1);
        let warm = s.batch(300, setup::FIXTURE_SEED);
        let served_fingerprint = |seed| {
            let served = start(&s, &warm, &MetricsRegistry::disabled(), None);
            let rung = drive(
                &served.conn,
                &schedule(seed, 0, 500.0, 0.4, warm.n_rows()),
                0,
                true,
            );
            served.stop();
            let mut report = Report::new();
            let by_row = check_served(&s, &warm, &rung.frames, &mut report);
            assert!(report.correct, "served answers equal offline");
            stats::fingerprint(&by_row.into_values().collect::<Vec<_>>())
        };
        let a = served_fingerprint(3);
        eprintln!(
            "serve-lime-open: fingerprint repeats: {}",
            a == served_fingerprint(3)
        );
        assert_eq!(a, served_fingerprint(3));
    }

    #[test]
    fn bucket_quantiles_come_from_the_delta() {
        let h = HistogramSnapshot {
            count: 100,
            sum_ns: 0,
            buckets: vec![(10, 99), (20, 1)],
        };
        assert_eq!(
            bucket_quantile_ms(&h, 0.99),
            bucket_upper_ns(10) as f64 / 1e6
        );
        assert_eq!(
            bucket_quantile_ms(&h, 1.0),
            bucket_upper_ns(20) as f64 / 1e6
        );
    }
}
