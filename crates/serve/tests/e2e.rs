//! End-to-end tests over a real TCP connection: warm-served explanations
//! must be bit-identical to the offline parallel driver, malformed
//! frames must not kill connections, and shutdown must drain cleanly.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use shahin::obs::names;
use shahin::{BatchConfig, MetricsRegistry, ShahinBatch, WarmEngine, WarmExplainer};
use shahin_explain::{ExplainContext, FeatureWeights, LimeExplainer, LimeParams};
use shahin_model::{CountingClassifier, MajorityClass};
use shahin_obs::json::Json;
use shahin_serve::{ServeConfig, Server, ServerHandle};
use shahin_tabular::{train_test_split, Dataset, DatasetPreset};

const SEED: u64 = 11;

fn setup() -> (ExplainContext, CountingClassifier<MajorityClass>, Dataset) {
    let (data, labels) = DatasetPreset::Recidivism.spec(0.05).generate(5);
    let mut rng = StdRng::seed_from_u64(5);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
    let clf = CountingClassifier::new(MajorityClass::fit(&split.train_labels));
    let rows: Vec<usize> = (0..24.min(split.test.n_rows())).collect();
    (ctx, clf, split.test.select(&rows))
}

fn lime() -> LimeExplainer {
    LimeExplainer::new(LimeParams {
        n_samples: 60,
        ..Default::default()
    })
}

fn start_server(n_workers: usize) -> (ServerHandle<MajorityClass>, MetricsRegistry, usize) {
    let (ctx, clf, warm) = setup();
    let n_rows = warm.n_rows();
    let reg = MetricsRegistry::new();
    let engine = Arc::new(WarmEngine::prime(
        BatchConfig {
            n_threads: Some(n_workers),
            ..Default::default()
        },
        WarmExplainer::Lime(lime()),
        ctx,
        clf,
        warm,
        SEED,
        &reg,
    ));
    let handle = Server::start(
        engine,
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            poll_interval: Duration::from_millis(10),
            // Fast ticks and a deep ring so the windowed aggregator has
            // seen every sample by the time a test interrogates `stats`.
            monitor_interval: Duration::from_millis(20),
            windows: 256,
            ..Default::default()
        },
    )
    .expect("server binds an ephemeral port");
    (handle, reg, n_rows)
}

/// One request/response round trip on an established connection.
fn round_trip(reader: &mut BufReader<TcpStream>, frame: &str) -> Json {
    reader
        .get_mut()
        .write_all(format!("{frame}\n").as_bytes())
        .expect("request writes");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response arrives");
    Json::parse(&line).expect("response frame is valid JSON")
}

fn connect<C: shahin_model::Classifier + 'static>(
    handle: &ServerHandle<C>,
) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(handle.addr()).expect("connects");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    BufReader::new(stream)
}

fn weights_of(frame: &Json) -> FeatureWeights {
    assert_eq!(
        frame.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected a success frame, got {frame:?}"
    );
    FeatureWeights {
        weights: frame
            .get("weights")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect(),
        intercept: frame.get("intercept").unwrap().as_f64().unwrap(),
        local_prediction: frame.get("local_prediction").unwrap().as_f64().unwrap(),
    }
}

#[test]
fn warm_server_matches_offline_batch_parallel_at_1_and_4_workers() {
    let (ctx, clf, warm) = setup();
    let offline = ShahinBatch::new(BatchConfig {
        n_threads: Some(2),
        ..Default::default()
    })
    .explain_lime_parallel(&ctx, &clf, &warm, &lime(), SEED);

    for n_workers in [1usize, 4] {
        let (handle, _reg, n_rows) = start_server(n_workers);
        assert_eq!(n_rows, warm.n_rows());

        // Two clients interleaving rows (even/odd, served in reverse) so
        // micro-batch composition differs from the offline row order.
        let mut clients: Vec<BufReader<TcpStream>> = (0..2).map(|_| connect(&handle)).collect();
        for row in (0..n_rows).rev() {
            let client = &mut clients[row % 2];
            let frame = round_trip(
                client,
                &format!("{{\"id\": {row}, \"method\": \"explain\", \"row\": {row}}}"),
            );
            assert_eq!(frame.get("row").unwrap().as_u64(), Some(row as u64));
            let served = weights_of(&frame);
            assert_eq!(
                &served, &offline.explanations[row],
                "row {row} must be bit-identical to offline at {n_workers} workers"
            );
        }
        handle.shutdown();
        handle.wait();
    }
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let (handle, reg, n_rows) = start_server(1);
    let mut client = connect(&handle);

    // Bad JSON → 400, connection stays up.
    let frame = round_trip(&mut client, "{not json");
    assert_eq!(frame.get("code").unwrap().as_u64(), Some(400));
    assert_eq!(frame.get("error").unwrap().as_str(), Some("bad_request"));

    // Unknown method → 400, and the echoed id survives the rejection.
    let frame = round_trip(&mut client, "{\"id\": 9, \"method\": \"explode\"}");
    assert_eq!(frame.get("code").unwrap().as_u64(), Some(400));
    assert_eq!(frame.get("id").unwrap().as_u64(), Some(9));

    // Wrong arity → 400.
    let frame = round_trip(&mut client, "{\"id\": 10, \"method\": \"explain\"}");
    assert_eq!(frame.get("code").unwrap().as_u64(), Some(400));

    // Out-of-range row → 404.
    let frame = round_trip(
        &mut client,
        &format!("{{\"id\": 11, \"method\": \"explain\", \"row\": {n_rows}}}"),
    );
    assert_eq!(frame.get("code").unwrap().as_u64(), Some(404));

    // The same connection still serves pings and real work.
    let frame = round_trip(&mut client, "{\"id\": 12, \"method\": \"ping\"}");
    assert_eq!(frame.get("pong").unwrap().as_bool(), Some(true));
    let frame = round_trip(
        &mut client,
        "{\"id\": 13, \"method\": \"explain\", \"row\": 0}",
    );
    assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));

    handle.shutdown();
    handle.wait();
    let snap = reg.snapshot();
    assert_eq!(snap.counter(names::SERVE_REJECTED_MALFORMED), 4);
    assert_eq!(snap.counter(names::SERVE_REQUESTS), 1);
}

#[test]
fn overlong_frames_get_one_400_and_the_connection_survives() {
    use shahin_serve::MAX_FRAME_LEN;
    let (handle, reg, _) = start_server(1);
    let mut client = connect(&handle);

    // A single line more than twice the cap, streamed in two writes so
    // part of it sits in the reader's partial-line buffer across reads.
    let garbage = "x".repeat(MAX_FRAME_LEN + 100);
    client.get_mut().write_all(garbage.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    client.get_mut().write_all(garbage.as_bytes()).unwrap();
    client.get_mut().write_all(b"\n").unwrap();

    // Exactly one 400 for the whole overlong line.
    let mut line = String::new();
    client.read_line(&mut line).expect("400 frame arrives");
    let frame = Json::parse(&line).expect("valid error frame");
    assert_eq!(frame.get("code").unwrap().as_u64(), Some(400));
    assert!(frame
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("exceeds"));

    // The connection still serves real work afterwards.
    let frame = round_trip(&mut client, "{\"id\": 5, \"method\": \"ping\"}");
    assert_eq!(frame.get("pong").unwrap().as_bool(), Some(true));
    let frame = round_trip(
        &mut client,
        "{\"id\": 6, \"method\": \"explain\", \"row\": 0}",
    );
    assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));

    handle.shutdown();
    handle.wait();
    assert_eq!(reg.snapshot().counter(names::SERVE_REJECTED_MALFORMED), 1);
}

#[test]
fn admin_shutdown_frame_drains_and_reports_served_requests() {
    let (handle, reg, _) = start_server(2);
    let mut client = connect(&handle);
    for row in 0..5 {
        let frame = round_trip(
            &mut client,
            &format!("{{\"id\": {row}, \"method\": \"explain\", \"row\": {row}}}"),
        );
        assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));
    }
    let frame = round_trip(&mut client, "{\"id\": 99, \"method\": \"shutdown\"}");
    assert_eq!(frame.get("shutting_down").unwrap().as_bool(), Some(true));
    let served = handle.wait();
    assert_eq!(served, 5);
    let snap = reg.snapshot();
    assert_eq!(snap.gauge(names::SERVE_DRAINED), 1);
    assert!(snap.counter(names::SERVE_BATCHES) > 0);
    assert_eq!(snap.counter(names::SERVE_CONNECTIONS), 1);
}

#[test]
fn explains_arriving_mid_drain_are_rejected_with_503() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // A classifier that can be frozen after priming, so the batcher is
    // provably still draining when the late frames arrive.
    struct Gated {
        hold: Arc<AtomicBool>,
    }
    impl shahin_model::Classifier for Gated {
        fn predict_proba(&self, _inst: &[shahin_tabular::Feature]) -> f64 {
            while self.hold.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(1));
            }
            0.7
        }
    }

    let (ctx, _clf, warm) = setup();
    let hold = Arc::new(AtomicBool::new(false));
    let reg = MetricsRegistry::new();
    let engine = Arc::new(WarmEngine::prime(
        BatchConfig {
            n_threads: Some(1),
            ..Default::default()
        },
        // A sample budget far beyond what the warm store can pool, so
        // explaining row 0 must generate fresh samples — and block on
        // the frozen classifier.
        WarmExplainer::Lime(LimeExplainer::new(LimeParams {
            n_samples: 400,
            ..Default::default()
        })),
        ctx,
        CountingClassifier::new(Gated {
            hold: Arc::clone(&hold),
        }),
        warm,
        SEED,
        &reg,
    ));
    let handle = Server::start(
        engine,
        ServeConfig {
            max_delay: Duration::from_millis(2),
            poll_interval: Duration::from_millis(10),
            ..Default::default()
        },
    )
    .unwrap();

    hold.store(true, Ordering::Relaxed);
    let mut client = connect(&handle);
    client
        .get_mut()
        .write_all(b"{\"id\": 1, \"method\": \"explain\", \"row\": 0}\n")
        .unwrap();
    // Let the batcher pick it up and block inside the engine.
    std::thread::sleep(Duration::from_millis(50));
    let mut admin = connect(&handle);
    let frame = round_trip(&mut admin, "{\"id\": 90, \"method\": \"shutdown\"}");
    assert_eq!(frame.get("shutting_down").unwrap().as_bool(), Some(true));

    // The drain cannot finish while the classifier is frozen, so this
    // explain deterministically lands mid-drain.
    let frame = round_trip(
        &mut client,
        "{\"id\": 2, \"method\": \"explain\", \"row\": 1}",
    );
    assert_eq!(frame.get("id").unwrap().as_u64(), Some(2));
    assert_eq!(frame.get("code").unwrap().as_u64(), Some(503));
    assert_eq!(frame.get("error").unwrap().as_str(), Some("shutting_down"));

    // Unfreeze: the in-flight request still completes (the drain answers
    // every admitted request) and the server exits cleanly.
    hold.store(false, Ordering::Relaxed);
    let mut line = String::new();
    client.read_line(&mut line).unwrap();
    let frame = Json::parse(&line).unwrap();
    assert_eq!(frame.get("id").unwrap().as_u64(), Some(1));
    assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(handle.wait(), 1);
    assert_eq!(reg.snapshot().counter(names::SERVE_REJECTED_SHUTDOWN), 1);
}

#[test]
fn ping_reports_uptime_version_and_warm_entries() {
    let (handle, _reg, _n_rows) = start_server(1);
    let mut client = connect(&handle);
    let frame = round_trip(&mut client, "{\"id\": 1, \"method\": \"ping\"}");
    assert_eq!(frame.get("pong").unwrap().as_bool(), Some(true));
    assert!(frame.get("uptime_secs").unwrap().as_u64().is_some());
    assert_eq!(
        frame.get("version").unwrap().as_str(),
        Some(env!("CARGO_PKG_VERSION"))
    );
    // Priming populates the perturbation store, so a freshly started
    // server always reports a non-empty warm repository.
    assert!(frame.get("warm_entries").unwrap().as_u64().unwrap() > 0);
    handle.shutdown();
    handle.wait();
}

#[test]
fn metrics_and_stats_frames_round_trip_during_and_after_load() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (handle, reg, n_rows) = start_server(2);

    // A load burst (two closed-loop clients sweeping every row three
    // times) with an admin poller hammering `metrics`/`stats` on its own
    // connection the whole time.
    let stop = AtomicBool::new(false);
    let polls = std::thread::scope(|scope| {
        let loaders: Vec<_> = (0..2usize)
            .map(|c| {
                let handle = &handle;
                scope.spawn(move || {
                    let mut client = connect(handle);
                    for i in 0..3 * n_rows {
                        let row = (i + c) % n_rows;
                        let frame = round_trip(
                            &mut client,
                            &format!("{{\"id\": {i}, \"method\": \"explain\", \"row\": {row}}}"),
                        );
                        assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));
                    }
                })
            })
            .collect();
        let admin = {
            let (stop, handle) = (&stop, &handle);
            scope.spawn(move || {
                let mut client = connect(handle);
                let mut polls = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let frame = round_trip(
                        &mut client,
                        "{\"id\": 7, \"method\": \"metrics\", \"format\": \"prometheus\"}",
                    );
                    assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));
                    let text = frame.get("metrics").unwrap().as_str().unwrap();
                    assert!(text.contains("# TYPE serve_requests_total counter"));

                    let frame = round_trip(
                        &mut client,
                        "{\"id\": 8, \"method\": \"metrics\", \"format\": \"json\"}",
                    );
                    assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));
                    assert!(frame.get("snapshot").is_some());

                    let frame = round_trip(&mut client, "{\"id\": 9, \"method\": \"stats\"}");
                    assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));
                    assert!(frame.at(&["stats", "req_per_s"]).is_some());

                    polls += 1;
                    std::thread::sleep(Duration::from_millis(5));
                }
                polls
            })
        };
        for l in loaders {
            l.join().expect("load client");
        }
        stop.store(true, Ordering::Relaxed);
        admin.join().expect("admin poller")
    });
    assert!(
        polls > 0,
        "admin frames must answer while load is in flight"
    );

    // Give the monitor ≥2 ticks to fold the burst's tail into the window
    // ring, then ask for the windowed p99. The ring (256 windows of
    // 20ms) spans the whole run, so the windowed quantile must land
    // within one log2 bucket of the end-of-run histogram quantile.
    let mut client = connect(&handle);
    let mut stats_p99 = None;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(45));
        let frame = round_trip(&mut client, "{\"id\": 10, \"method\": \"stats\"}");
        assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));
        stats_p99 = frame.at(&["stats", "p99_ns"]).and_then(Json::as_u64);
        let seen = frame
            .at(&["stats", "req_per_s"])
            .and_then(Json::as_f64)
            .unwrap();
        if stats_p99.is_some() && seen > 0.0 {
            break;
        }
    }
    let stats_p99 = stats_p99.expect("windowed p99 materializes after the burst");

    // The prometheus exposition carries the same histogram.
    let frame = round_trip(
        &mut client,
        "{\"id\": 11, \"method\": \"metrics\", \"format\": \"prometheus\"}",
    );
    let text = frame.get("metrics").unwrap().as_str().unwrap();
    assert!(text.contains("serve_request_latency_ns_bucket{le="));
    assert!(text.contains("serve_request_latency_ns_count"));

    handle.shutdown();
    handle.wait();

    let snapshot_p99 = reg
        .snapshot()
        .histograms
        .get(names::SERVE_REQUEST_LATENCY)
        .expect("latency histogram recorded")
        .quantile_ns(0.99)
        .expect("histogram has samples");
    let (windowed, end_of_run) = (
        shahin_obs::bucket_index(stats_p99),
        shahin_obs::bucket_index(snapshot_p99),
    );
    assert!(
        windowed.abs_diff(end_of_run) <= 1,
        "windowed p99 bucket {windowed} (={stats_p99}ns) vs end-of-run \
         bucket {end_of_run} (={snapshot_p99}ns)"
    );
}

/// Delegates to a calm classifier until armed, then to a chaotic
/// resilient stack — so priming is deterministic and fast while the
/// serving path sees the injected faults.
struct ArmedChaos {
    chaotic: shahin_model::ResilientClassifier<shahin_model::ChaosClassifier<MajorityClass>>,
    calm: MajorityClass,
    armed: Arc<AtomicBool>,
}

impl shahin_model::Classifier for ArmedChaos {
    fn predict_proba(&self, inst: &[shahin_tabular::Feature]) -> f64 {
        if self.armed.load(Ordering::Relaxed) {
            self.chaotic.predict_proba(inst)
        } else {
            self.calm.predict_proba(inst)
        }
    }
}

fn armed_chaos(config: shahin_model::ChaosConfig) -> (ArmedChaos, Arc<AtomicBool>) {
    let armed = Arc::new(AtomicBool::new(false));
    let clf = ArmedChaos {
        chaotic: shahin_model::ResilientClassifier::new(
            shahin_model::ChaosClassifier::new(MajorityClass::fit(&[1, 1, 0]), config),
            shahin_model::RetryPolicy::default(),
        ),
        calm: MajorityClass::fit(&[1, 1, 0]),
        armed: Arc::clone(&armed),
    };
    (clf, armed)
}

/// Asserts the span tree is well-formed — span 0 a root covering
/// `total_ns`, every other span nesting within an earlier parent — and
/// returns `(name, parent, start_ns, dur_ns)` tuples.
fn check_span_tree(trace: &Json) -> Vec<(String, Option<u64>, u64, u64)> {
    let spans: Vec<(String, Option<u64>, u64, u64)> = trace
        .get("spans")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|s| {
            (
                s.get("name").unwrap().as_str().unwrap().to_string(),
                s.get("parent").and_then(Json::as_u64),
                s.get("start_ns").unwrap().as_u64().unwrap(),
                s.get("dur_ns").unwrap().as_u64().unwrap(),
            )
        })
        .collect();
    assert!(!spans.is_empty(), "trace has no spans: {trace:?}");
    let total = trace.get("total_ns").unwrap().as_u64().unwrap();
    assert_eq!(spans[0].1, None, "span 0 must be the root");
    assert_eq!(spans[0].2, 0, "root must start at the trace origin");
    assert_eq!(spans[0].3, total, "root must span the whole request");
    for (i, (name, parent, start, dur)) in spans.iter().enumerate().skip(1) {
        let p = parent.unwrap_or_else(|| panic!("span {i} ({name}) has no parent")) as usize;
        assert!(p < i, "span {i} ({name}) references a forward parent {p}");
        let (_, _, p_start, p_dur) = &spans[p];
        assert!(
            *p_start <= *start && start + dur <= p_start + p_dur,
            "span {i} ({name}) [{start}, {}] does not nest within parent \
             [{p_start}, {}]",
            start + dur,
            p_start + p_dur
        );
    }
    spans
}

#[test]
fn slow_request_trace_round_trips_with_nested_spans() {
    // Chaos latency injection makes the request reliably slow: every
    // armed classifier call sleeps, and the 400-sample budget forces
    // fresh sample generation past what the warm store pooled.
    let (ctx, _clf, warm) = setup();
    let reg = MetricsRegistry::new();
    let (clf, armed) = armed_chaos(shahin_model::ChaosConfig {
        transient_rate: 0.0,
        nan_rate: 0.0,
        panic_rate: 0.0,
        latency_rate: 1.0,
        latency_spike: Duration::from_millis(2),
        ..Default::default()
    });
    let engine = Arc::new(WarmEngine::prime(
        BatchConfig {
            n_threads: Some(1),
            ..Default::default()
        },
        WarmExplainer::Lime(LimeExplainer::new(LimeParams {
            n_samples: 400,
            ..Default::default()
        })),
        ctx,
        CountingClassifier::new(clf),
        warm,
        SEED,
        &reg,
    ));
    let handle = Server::start(
        engine,
        ServeConfig {
            max_delay: Duration::from_millis(2),
            poll_interval: Duration::from_millis(10),
            monitor_interval: Duration::from_millis(20),
            windows: 256,
            // No probabilistic retention: this trace must be kept by the
            // slow-request rule alone.
            trace_sample: 0.0,
            trace_slow: Duration::from_millis(50),
            ..Default::default()
        },
    )
    .expect("server binds");
    armed.store(true, Ordering::Relaxed);

    let mut client = connect(&handle);
    let t = Instant::now();
    let frame = round_trip(
        &mut client,
        "{\"id\": 1, \"method\": \"explain\", \"row\": 0}",
    );
    let wall_ns = t.elapsed().as_nanos() as u64;
    assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));
    let trace_id = frame
        .get("trace_id")
        .and_then(Json::as_u64)
        .expect("response frames carry the trace id");

    let fetched = round_trip(
        &mut client,
        &format!("{{\"id\": 2, \"method\": \"trace\", \"trace_id\": {trace_id}}}"),
    );
    assert_eq!(fetched.get("ok").unwrap().as_bool(), Some(true));
    let trace = fetched.get("trace").expect("trace payload");
    assert_eq!(trace.get("trace_id").and_then(Json::as_u64), Some(trace_id));
    assert_eq!(trace.get("row").and_then(Json::as_u64), Some(0));
    assert!(
        trace.get("batch_id").and_then(Json::as_u64).is_some(),
        "a served request records its micro-batch"
    );

    let spans = check_span_tree(trace);
    let names: Vec<&str> = spans.iter().map(|(n, ..)| n.as_str()).collect();
    for stage in [
        "request", "queue", "batch", "retrieve", "classify", "explain",
    ] {
        assert!(
            names.contains(&stage),
            "span tree lacks '{stage}': {names:?}"
        );
    }

    // The slow rule fired, the trace's wall time brackets within the
    // client-measured round trip, and every stage fits inside it.
    let total_ns = trace.get("total_ns").unwrap().as_u64().unwrap();
    assert!(
        total_ns >= 50_000_000,
        "chaos latency must push the request past trace_slow, got {total_ns}ns"
    );
    assert!(
        total_ns <= wall_ns,
        "trace total {total_ns}ns exceeds the measured {wall_ns}ns"
    );
    let stage_sum: u64 = spans
        .iter()
        .filter(|(_, parent, ..)| *parent == Some(2))
        .map(|(.., dur)| dur)
        .sum();
    assert!(
        stage_sum <= wall_ns,
        "engine stage durations {stage_sum}ns exceed the request wall {wall_ns}ns"
    );
    let fresh = trace
        .at(&["counters", "samples_fresh"])
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        fresh > 0,
        "the slow request must have generated fresh samples"
    );

    // The same trace renders as a single-request Chrome-trace document.
    let chrome = round_trip(
        &mut client,
        &format!(
            "{{\"id\": 3, \"method\": \"trace\", \"trace_id\": {trace_id}, \
             \"format\": \"chrome\"}}"
        ),
    );
    assert_eq!(chrome.get("ok").unwrap().as_bool(), Some(true));
    let events = chrome
        .at(&["chrome_trace", "traceEvents"])
        .and_then(Json::as_arr)
        .expect("chrome_trace carries traceEvents");
    let complete = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .count();
    assert_eq!(complete, spans.len(), "one complete event per span");

    handle.shutdown();
    handle.wait();
    assert!(reg.snapshot().counter(names::SERVE_TRACE_FETCHES) >= 2);
}

#[test]
fn tail_sampling_retains_every_quarantined_trace_and_samples_the_rest() {
    // Mixed chaos load: seeded panics quarantine a slice of the requests
    // while the rest succeed. Every quarantined trace must be retained;
    // successes fall back to deterministic sampling (plus the slow-K
    // reservoir) under the store bound.
    const SAMPLE: f64 = 0.05;
    let (ctx, _clf, warm) = setup();
    let n_rows = warm.n_rows();
    let reg = MetricsRegistry::new();
    let (clf, armed) = armed_chaos(shahin_model::ChaosConfig {
        transient_rate: 0.0,
        nan_rate: 0.0,
        panic_rate: 0.08,
        latency_rate: 0.0,
        ..Default::default()
    });
    let engine = Arc::new(WarmEngine::prime(
        BatchConfig {
            n_threads: Some(2),
            ..Default::default()
        },
        WarmExplainer::Lime(lime()),
        ctx,
        CountingClassifier::new(clf),
        warm,
        SEED,
        &reg,
    ));
    let handle = Server::start(
        engine,
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            poll_interval: Duration::from_millis(10),
            // A long monitor interval keeps the slow-K reservoir to a
            // handful of windows, so the retained-success bound below is
            // meaningful.
            monitor_interval: Duration::from_secs(5),
            trace_sample: SAMPLE,
            trace_slow: Duration::from_secs(3600),
            trace_store: 256,
            ..Default::default()
        },
    )
    .expect("server binds");
    armed.store(true, Ordering::Relaxed);

    let mut client = connect(&handle);
    let mut quarantined: Vec<u64> = Vec::new();
    let mut succeeded: Vec<u64> = Vec::new();
    for i in 0..3 * n_rows {
        let frame = round_trip(
            &mut client,
            &format!(
                "{{\"id\": {i}, \"method\": \"explain\", \"row\": {}}}",
                i % n_rows
            ),
        );
        let trace_id = frame
            .get("trace_id")
            .and_then(Json::as_u64)
            .expect("every admitted request carries a trace id");
        if frame.get("ok").unwrap().as_bool() == Some(true) {
            succeeded.push(trace_id);
        } else {
            assert_eq!(frame.get("code").unwrap().as_u64(), Some(422));
            quarantined.push(trace_id);
        }
    }
    assert!(
        !quarantined.is_empty() && !succeeded.is_empty(),
        "the chaos schedule must produce a mixed outcome \
         ({} quarantined / {} ok)",
        quarantined.len(),
        succeeded.len()
    );

    // Tail retention: the error selector returns exactly the quarantined
    // requests, regardless of the 5% sampling rate.
    let errors = round_trip(
        &mut client,
        "{\"id\": 9000, \"method\": \"trace\", \"errors\": true}",
    );
    assert_eq!(errors.get("ok").unwrap().as_bool(), Some(true));
    let mut error_ids: Vec<u64> = errors
        .get("traces")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|t| {
            assert_eq!(t.get("quarantined").and_then(Json::as_bool), Some(true));
            check_span_tree(t);
            t.get("trace_id").unwrap().as_u64().unwrap()
        })
        .collect();
    let mut expected = quarantined.clone();
    error_ids.sort_unstable();
    expected.sort_unstable();
    assert_eq!(
        error_ids, expected,
        "every quarantined trace (and only those) must be retained"
    );

    // Success traces: the deterministically sampled ones resolve; the
    // retained total stays near the sampled count (the slow-K reservoir
    // may add up to 8 per window) and well under both the success count
    // and the store bound.
    let mut retained_successes = 0usize;
    let mut sampled = 0usize;
    for (i, &id) in succeeded.iter().enumerate() {
        let frame = round_trip(
            &mut client,
            &format!(
                "{{\"id\": {}, \"method\": \"trace\", \"trace_id\": {id}}}",
                9001 + i
            ),
        );
        let ok = frame.get("ok").unwrap().as_bool() == Some(true);
        if shahin::trace_sampled(id, SAMPLE) {
            sampled += 1;
            assert!(ok, "sampled success trace {id} must be retrievable");
            assert_eq!(
                frame.at(&["trace", "quarantined"]).and_then(Json::as_bool),
                Some(false)
            );
        } else if !ok {
            assert_eq!(frame.get("code").unwrap().as_u64(), Some(404));
        }
        retained_successes += ok as usize;
    }
    assert!(
        retained_successes <= sampled + 32,
        "{retained_successes} success traces retained vs {sampled} sampled \
         — tail sampling is not bounding retention"
    );
    assert!(
        retained_successes < succeeded.len(),
        "sampling at {SAMPLE} must drop some of the {} successes",
        succeeded.len()
    );

    // Store totals agree: something was dropped, nothing exceeded the
    // configured bound.
    let store = errors
        .get("store")
        .expect("multi-trace frames carry totals");
    assert!(store.get("dropped").unwrap().as_u64().unwrap() > 0);
    assert!(store.get("len").unwrap().as_u64().unwrap() <= 256);

    handle.shutdown();
    handle.wait();
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter(names::SERVE_QUARANTINED),
        quarantined.len() as u64
    );
    assert!(
        snap.gauge(names::TRACE_DROPPED) > 0,
        "monitor publishes drop totals"
    );
}

#[test]
fn queued_deadline_expiry_yields_408() {
    // deadline_ms: 0 expires by the time the batcher dequeues it.
    let (handle, reg, _) = start_server(1);
    let mut client = connect(&handle);
    let frame = round_trip(
        &mut client,
        "{\"id\": 1, \"method\": \"explain\", \"row\": 0, \"deadline_ms\": 0}",
    );
    assert_eq!(frame.get("code").unwrap().as_u64(), Some(408));
    assert_eq!(
        frame.get("error").unwrap().as_str(),
        Some("deadline_expired")
    );
    handle.shutdown();
    handle.wait();
    assert_eq!(reg.snapshot().counter(names::SERVE_DEADLINE_EXPIRED), 1);
}

#[test]
fn snapshot_frame_persists_warm_state_and_a_restart_serves_it_bit_identically() {
    let dir = std::env::temp_dir().join(format!("shahin_e2e_snap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snap_path = dir.join("nested").join("warm.snap");

    // Donor server: snapshots enabled, no periodic timer — only the
    // admin frame (and the final at-drain snapshot) write the file.
    let (ctx, clf, warm) = setup();
    let reg = MetricsRegistry::new();
    let engine = Arc::new(WarmEngine::prime(
        BatchConfig::default(),
        WarmExplainer::Lime(lime()),
        ctx,
        clf,
        warm,
        SEED,
        &reg,
    ));
    let donor_bytes = engine.snapshot_bytes();
    let handle = Server::start(
        engine,
        ServeConfig {
            poll_interval: Duration::from_millis(10),
            monitor_interval: Duration::from_millis(20),
            snapshot_out: Some(snap_path.clone()),
            ..Default::default()
        },
    )
    .expect("server binds");
    let mut client = connect(&handle);

    // Serve a few rows to compare against the hydrated replica later.
    let mut donor_served: Vec<FeatureWeights> = Vec::new();
    for row in 0..4 {
        let frame = round_trip(
            &mut client,
            &format!("{{\"id\": {row}, \"method\": \"explain\", \"row\": {row}}}"),
        );
        donor_served.push(weights_of(&frame));
    }

    let ack = round_trip(&mut client, "{\"id\": 90, \"method\": \"snapshot\"}");
    assert_eq!(ack.get("ok").unwrap().as_bool(), Some(true));
    assert_eq!(ack.get("snapshot_requested").unwrap().as_bool(), Some(true));
    // The monitor writes within one poll tick; wait for it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !snap_path.exists() {
        assert!(Instant::now() < deadline, "snapshot file never appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
    handle.wait();
    let snap = reg.snapshot();
    assert_eq!(snap.counter(names::PERSIST_SNAPSHOTS_REQUESTED), 1);
    assert!(snap.counter(names::PERSIST_SNAPSHOTS_TAKEN) >= 1);
    assert_eq!(snap.counter(names::PERSIST_SNAPSHOTS_FAILED), 0);
    assert!(snap.gauge(names::PERSIST_SNAPSHOT_BYTES) > 0);

    // Reads don't mutate the store, so the served-then-snapshotted bytes
    // equal a pre-serving dump — the snapshot is canonical.
    let file_bytes = std::fs::read(&snap_path).expect("snapshot file readable");
    assert_eq!(file_bytes, donor_bytes, "snapshot dump must be canonical");

    // Replica: hydrate a fresh engine from the file and serve the same
    // rows. Zero classifier invocations to warm up, identical bytes out.
    let (ctx, clf, warm) = setup();
    let reg2 = MetricsRegistry::new();
    let replica = WarmEngine::prime_from_snapshot(
        BatchConfig::default(),
        WarmExplainer::Lime(lime()),
        ctx,
        clf,
        warm,
        SEED,
        &reg2,
        &file_bytes,
    )
    .expect("snapshot hydrates");
    assert_eq!(replica.invocations(), 0, "hydration is classifier-free");
    let handle = Server::start(
        Arc::new(replica),
        ServeConfig {
            poll_interval: Duration::from_millis(10),
            monitor_interval: Duration::from_millis(20),
            ..Default::default()
        },
    )
    .expect("replica binds");
    let mut client = connect(&handle);
    let disabled = round_trip(&mut client, "{\"id\": 91, \"method\": \"snapshot\"}");
    assert_eq!(disabled.get("code").unwrap().as_u64(), Some(404));
    assert_eq!(
        disabled.get("error").unwrap().as_str(),
        Some("snapshots_disabled")
    );
    for row in 0..4 {
        let frame = round_trip(
            &mut client,
            &format!("{{\"id\": {row}, \"method\": \"explain\", \"row\": {row}}}"),
        );
        let served = weights_of(&frame);
        let donor = &donor_served[row as usize];
        for (a, b) in served.weights.iter().zip(&donor.weights) {
            assert_eq!(a.to_bits(), b.to_bits(), "weights must be bit-identical");
        }
        assert_eq!(served.intercept.to_bits(), donor.intercept.to_bits());
    }
    handle.shutdown();
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigusr1_triggers_an_on_demand_snapshot() {
    let dir = std::env::temp_dir().join(format!("shahin_e2e_usr1_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let snap_path = dir.join("warm.snap");
    let (ctx, clf, warm) = setup();
    let reg = MetricsRegistry::new();
    let engine = Arc::new(WarmEngine::prime(
        BatchConfig::default(),
        WarmExplainer::Lime(lime()),
        ctx,
        clf,
        warm,
        SEED,
        &reg,
    ));
    let handle = Server::start(
        engine,
        ServeConfig {
            poll_interval: Duration::from_millis(10),
            monitor_interval: Duration::from_millis(20),
            snapshot_out: Some(snap_path.clone()),
            ..Default::default()
        },
    )
    .expect("server binds");
    // The test hook stands in for a real SIGUSR1 delivery (the handler
    // does exactly this store).
    shahin_serve::signal::raise_snapshot();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !snap_path.exists() {
        assert!(Instant::now() < deadline, "snapshot file never appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown();
    handle.wait();
    let snap = reg.snapshot();
    assert!(snap.counter(names::PERSIST_SNAPSHOTS_REQUESTED) >= 1);
    assert!(snap.counter(names::PERSIST_SNAPSHOTS_TAKEN) >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}
