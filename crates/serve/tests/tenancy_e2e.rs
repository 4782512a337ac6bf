//! Multi-tenant end-to-end tests over real TCP: requests route by their
//! `tenant` field, tenants materialize lazily (counted cold starts),
//! quotas answer 429 with the tenant named, and idle eviction followed
//! by snapshot-hydrated re-admission serves bit-identical explanations
//! at 1 and 4 workers.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
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
use shahin_tenancy::{LifecyclePolicy, TenantConfig, TenantRegistry};

const SEED: u64 = 11;
const WARM_ROWS: usize = 8;

fn lime() -> LimeExplainer {
    LimeExplainer::new(LimeParams {
        n_samples: 60,
        ..Default::default()
    })
}

/// The pieces a tenant's engine is built from — shared between the
/// serving factory and the offline driver the served output is
/// compared against.
fn tenant_parts(preset: DatasetPreset) -> (ExplainContext, MajorityClass, Dataset) {
    let (data, labels) = preset.spec(0.05).generate(5);
    let mut rng = StdRng::seed_from_u64(5);
    let split = train_test_split(&data, &labels, 1.0 / 3.0, &mut rng);
    let ctx = ExplainContext::fit(&split.train, 300, &mut rng);
    let inner = MajorityClass::fit(&split.train_labels);
    let rows: Vec<usize> = (0..WARM_ROWS.min(split.test.n_rows())).collect();
    let warm = split.test.select(&rows);
    (ctx, inner, warm)
}

/// Declares one tenant over a small preset-derived warm set. The
/// factory re-materializes the tenant on every cold start — a fresh
/// counting wrapper each time, so an engine's invocation count is its
/// own — and hydrates classifier-free when handed readable snapshot
/// bytes.
fn tenant_config(
    name: &str,
    preset: DatasetPreset,
    quota: Option<usize>,
    snapshot_path: Option<PathBuf>,
    n_workers: usize,
) -> TenantConfig<MajorityClass> {
    let (ctx, inner, warm) = tenant_parts(preset);
    let n_rows = warm.n_rows();
    let reg = MetricsRegistry::new();
    TenantConfig {
        name: name.to_string(),
        n_rows,
        quota,
        snapshot_path,
        warm_from: None,
        factory: Box::new(move |bytes| {
            WarmEngine::prime_warm_or_cold(
                BatchConfig {
                    n_threads: Some(n_workers),
                    ..Default::default()
                },
                WarmExplainer::Lime(lime()),
                ctx.clone(),
                CountingClassifier::new(inner.clone()),
                warm.clone(),
                SEED,
                &reg,
                bytes,
            )
        }),
    }
}

fn start_cluster(
    configs: Vec<TenantConfig<MajorityClass>>,
    policy: LifecyclePolicy,
) -> (ServerHandle<MajorityClass>, MetricsRegistry) {
    let obs = MetricsRegistry::new();
    let cluster = Arc::new(TenantRegistry::new(configs, 0, policy, &obs));
    let handle = Server::start_cluster(
        cluster,
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            poll_interval: Duration::from_millis(10),
            monitor_interval: Duration::from_millis(25),
            ..Default::default()
        },
    )
    .expect("cluster binds an ephemeral port");
    (handle, obs)
}

fn round_trip(reader: &mut BufReader<TcpStream>, frame: &str) -> Json {
    reader
        .get_mut()
        .write_all(format!("{frame}\n").as_bytes())
        .expect("request writes");
    let mut line = String::new();
    reader.read_line(&mut line).expect("response arrives");
    Json::parse(&line).expect("response frame is valid JSON")
}

fn connect(handle: &ServerHandle<MajorityClass>) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(handle.addr()).expect("connects");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
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

/// Extracts one tenant's row from a multi-tenant `ping` frame.
fn tenant_row(frame: &Json, name: &str) -> Json {
    frame
        .get("tenants")
        .unwrap_or_else(|| panic!("ping frame lacks tenants: {frame:?}"))
        .as_arr()
        .unwrap()
        .iter()
        .find(|t| t.get("name").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("no tenant row {name:?} in {frame:?}"))
        .clone()
}

fn tenant_state(client: &mut BufReader<TcpStream>, name: &str) -> String {
    let frame = round_trip(client, "{\"id\": 1000, \"method\": \"ping\"}");
    tenant_row(&frame, name)
        .get("state")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

#[test]
fn requests_route_by_tenant_and_unknown_tenants_get_404() {
    // Two tenants over *different* presets: routing mistakes are
    // structurally visible because their weight vectors have different
    // widths (Recidivism vs Census-Income feature counts).
    let (handle, obs) = start_cluster(
        vec![
            tenant_config("acme", DatasetPreset::Recidivism, None, None, 2),
            tenant_config("globex", DatasetPreset::CensusIncome, None, None, 2),
        ],
        LifecyclePolicy::default(),
    );
    let mut client = connect(&handle);

    // Absent tenant → the default tenant (acme, index 0).
    let default_frame = round_trip(
        &mut client,
        "{\"id\": 1, \"method\": \"explain\", \"row\": 0}",
    );
    let default_weights = weights_of(&default_frame);

    // Explicit default tenant → the same engine, bit-identical.
    let named = round_trip(
        &mut client,
        "{\"id\": 2, \"method\": \"explain\", \"row\": 0, \"tenant\": \"acme\"}",
    );
    assert_eq!(weights_of(&named), default_weights);

    // The other tenant answers with its own model's explanation.
    let other = round_trip(
        &mut client,
        "{\"id\": 3, \"method\": \"explain\", \"row\": 0, \"tenant\": \"globex\"}",
    );
    let other_weights = weights_of(&other);
    assert_ne!(
        other_weights.weights.len(),
        default_weights.weights.len(),
        "tenants over different schemas must not share an engine"
    );

    // Unknown tenant → typed 404 naming the tenant; connection survives.
    let missing = round_trip(
        &mut client,
        "{\"id\": 4, \"method\": \"explain\", \"row\": 0, \"tenant\": \"hooli\"}",
    );
    assert_eq!(missing.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(missing.get("code").unwrap().as_u64(), Some(404));
    assert_eq!(
        missing.get("error").unwrap().as_str(),
        Some("unknown_tenant")
    );
    assert_eq!(missing.get("tenant").unwrap().as_str(), Some("hooli"));
    assert_eq!(missing.get("id").unwrap().as_u64(), Some(4));

    let frame = round_trip(&mut client, "{\"id\": 5, \"method\": \"ping\"}");
    assert_eq!(frame.get("pong").unwrap().as_bool(), Some(true));

    handle.shutdown();
    assert_eq!(handle.wait(), 3, "three explains served");
    let snap = obs.snapshot();
    assert_eq!(snap.counter(names::TENANCY_UNKNOWN_TENANT), 1);
    assert_eq!(snap.counter(&names::tenant_metric("acme", "requests")), 2);
    assert_eq!(snap.counter(&names::tenant_metric("globex", "requests")), 1);
}

#[test]
fn tenants_materialize_lazily_and_ping_reports_lifecycle() {
    let (handle, obs) = start_cluster(
        vec![
            tenant_config("acme", DatasetPreset::Recidivism, None, None, 2),
            tenant_config("globex", DatasetPreset::Recidivism, None, None, 2),
            tenant_config("initech", DatasetPreset::Recidivism, None, None, 2),
        ],
        LifecyclePolicy::default(),
    );
    let mut client = connect(&handle);

    // Before any explain: the listener is up but every repository is
    // cold — declaring a tenant costs a closure, not an engine.
    let frame = round_trip(&mut client, "{\"id\": 1, \"method\": \"ping\"}");
    assert_eq!(frame.get("warm_entries").unwrap().as_u64(), Some(0));
    for name in ["acme", "globex", "initech"] {
        let row = tenant_row(&frame, name);
        assert_eq!(row.get("state").unwrap().as_str(), Some("cold"));
        assert_eq!(row.get("entries").unwrap().as_u64(), Some(0));
    }
    assert_eq!(obs.snapshot().counter(names::TENANCY_COLD_STARTS), 0);

    // First request to one tenant cold-starts that tenant alone.
    let frame = round_trip(
        &mut client,
        "{\"id\": 2, \"method\": \"explain\", \"row\": 0, \"tenant\": \"globex\"}",
    );
    assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));
    let frame = round_trip(&mut client, "{\"id\": 3, \"method\": \"ping\"}");
    let row = tenant_row(&frame, "globex");
    assert_eq!(row.get("state").unwrap().as_str(), Some("warm"));
    assert!(row.get("entries").unwrap().as_u64().unwrap() > 0);
    assert_eq!(
        tenant_row(&frame, "acme").get("state").unwrap().as_str(),
        Some("cold")
    );
    assert_eq!(
        tenant_row(&frame, "initech").get("state").unwrap().as_str(),
        Some("cold")
    );

    handle.shutdown();
    handle.wait();
    let snap = obs.snapshot();
    assert_eq!(snap.counter(names::TENANCY_COLD_STARTS), 1);
    assert_eq!(
        snap.counter(&names::tenant_metric("globex", "cold_starts")),
        1
    );
    assert_eq!(
        snap.counter(&names::tenant_metric("acme", "cold_starts")),
        0
    );
    assert!(
        snap.histograms
            .get(names::TENANCY_COLD_START_LATENCY)
            .is_some_and(|h| h.count == 1),
        "cold-start wall time lands in the latency histogram"
    );
}

#[test]
fn quota_exhausted_tenants_answer_429_naming_the_tenant() {
    // quota 0: the draining-tenant idiom — every request bounces.
    let (handle, obs) = start_cluster(
        vec![
            tenant_config("acme", DatasetPreset::Recidivism, None, None, 2),
            tenant_config("initech", DatasetPreset::Recidivism, Some(0), None, 2),
        ],
        LifecyclePolicy::default(),
    );
    let mut client = connect(&handle);

    let frame = round_trip(
        &mut client,
        "{\"id\": 1, \"method\": \"explain\", \"row\": 0, \"tenant\": \"initech\"}",
    );
    assert_eq!(frame.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(frame.get("code").unwrap().as_u64(), Some(429));
    assert_eq!(
        frame.get("error").unwrap().as_str(),
        Some("tenant_over_quota")
    );
    assert_eq!(frame.get("tenant").unwrap().as_str(), Some("initech"));

    // A quota rejection happens at admission, before the batcher could
    // materialize anything: the bounced tenant must still be cold.
    assert_eq!(tenant_state(&mut client, "initech"), "cold");

    // Other tenants are unaffected.
    let frame = round_trip(
        &mut client,
        "{\"id\": 2, \"method\": \"explain\", \"row\": 0, \"tenant\": \"acme\"}",
    );
    assert_eq!(frame.get("ok").unwrap().as_bool(), Some(true));

    handle.shutdown();
    handle.wait();
    let snap = obs.snapshot();
    assert_eq!(snap.counter(names::TENANCY_QUOTA_REJECTIONS), 1);
    assert_eq!(
        snap.counter(&names::tenant_metric("initech", "quota_rejections")),
        1
    );
    assert_eq!(
        snap.counter(&names::tenant_metric("initech", "cold_starts")),
        0
    );
}

#[test]
fn idle_eviction_then_hydrated_readmission_is_bit_identical_at_1_and_4_workers() {
    let dir = std::env::temp_dir().join(format!("shahin_tenancy_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The same drill at both worker counts; each run's served weights
    // are collected so cross-worker identity can be asserted at the end
    // (the consistent-hash sharding must not perturb explanations).
    let mut per_worker_runs: Vec<Vec<FeatureWeights>> = Vec::new();
    for n_workers in [1usize, 4] {
        let snap = dir.join(format!("acme_{n_workers}.shws"));
        let (handle, obs) = start_cluster(
            vec![
                tenant_config(
                    "acme",
                    DatasetPreset::Recidivism,
                    None,
                    Some(snap.clone()),
                    n_workers,
                ),
                tenant_config("globex", DatasetPreset::Recidivism, None, None, n_workers),
            ],
            LifecyclePolicy {
                memory_budget_bytes: None,
                idle_evict: Some(Duration::from_millis(150)),
            },
        );
        let mut client = connect(&handle);

        // First pass cold-primes acme (no snapshot on disk yet) and
        // records what it serves.
        let before: Vec<FeatureWeights> = (0..WARM_ROWS)
            .map(|row| {
                weights_of(&round_trip(
                    &mut client,
                    &format!(
                        "{{\"id\": {row}, \"method\": \"explain\", \"row\": {row}, \
                         \"tenant\": \"acme\"}}"
                    ),
                ))
            })
            .collect();
        assert_eq!(obs.snapshot().counter(names::TENANCY_HYDRATIONS), 0);

        // Idle past the keepalive: the monitor's lifecycle sweep must
        // retire the tenant and leave the at-evict snapshot behind.
        // Pings poll state without resetting the idle clock.
        let deadline = Instant::now() + Duration::from_secs(30);
        while tenant_state(&mut client, "acme") != "evicted" {
            assert!(Instant::now() < deadline, "idle eviction never happened");
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(snap.exists(), "eviction leaves an at-evict snapshot");

        // Re-admission: the next request cold-starts again, hydrating
        // classifier-free from the at-evict snapshot, and every row
        // comes back bit-identical to the pre-eviction serving.
        for (row, donor) in before.iter().enumerate() {
            let frame = round_trip(
                &mut client,
                &format!(
                    "{{\"id\": {}, \"method\": \"explain\", \"row\": {row}, \
                     \"tenant\": \"acme\"}}",
                    100 + row
                ),
            );
            let served = weights_of(&frame);
            assert_eq!(served.weights.len(), donor.weights.len());
            for (a, b) in served.weights.iter().zip(&donor.weights) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "row {row} must be bit-identical after re-admission \
                     at {n_workers} workers"
                );
            }
            assert_eq!(served.intercept.to_bits(), donor.intercept.to_bits());
            assert_eq!(
                served.local_prediction.to_bits(),
                donor.local_prediction.to_bits()
            );
        }

        handle.shutdown();
        handle.wait();
        let snap_metrics = obs.snapshot();
        assert!(snap_metrics.counter(names::TENANCY_EVICTIONS) >= 1);
        assert!(snap_metrics.counter(names::TENANCY_HYDRATIONS) >= 1);
        assert!(snap_metrics.counter(&names::tenant_metric("acme", "cold_starts")) >= 2);
        assert!(snap_metrics.counter(&names::tenant_metric("acme", "hydrations")) >= 1);
        assert!(snap_metrics.counter(&names::tenant_metric("acme", "loads_ok")) >= 1);
        assert_eq!(
            snap_metrics.counter(&names::tenant_metric("acme", "load_rejected")),
            0
        );
        per_worker_runs.push(before);
    }

    // Worker count is a routing detail, not a numeric one: the 1-worker
    // and 4-worker clusters served identical bits.
    let (one, four) = (&per_worker_runs[0], &per_worker_runs[1]);
    assert_eq!(one.len(), four.len());
    for (row, (a, b)) in one.iter().zip(four).enumerate() {
        assert_eq!(
            a, b,
            "row {row} differs between 1-worker and 4-worker clusters"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn each_tenant_serves_bit_identical_to_its_offline_batch_parallel() {
    // The acceptance drill: three tenants over three different presets,
    // every served explanation bit-identical to what that tenant's own
    // offline parallel driver computes over the same warm set.
    let presets = [
        ("acme", DatasetPreset::Recidivism),
        ("globex", DatasetPreset::CensusIncome),
        ("initech", DatasetPreset::LendingClub),
    ];
    let offline: Vec<Vec<FeatureWeights>> = presets
        .iter()
        .map(|(_, preset)| {
            let (ctx, inner, warm) = tenant_parts(*preset);
            ShahinBatch::new(BatchConfig {
                n_threads: Some(2),
                ..Default::default()
            })
            .explain_lime_parallel(&ctx, &CountingClassifier::new(inner), &warm, &lime(), SEED)
            .explanations
        })
        .collect();

    let (handle, _obs) = start_cluster(
        presets
            .iter()
            .map(|(name, preset)| tenant_config(name, *preset, None, None, 2))
            .collect(),
        LifecyclePolicy::default(),
    );
    let mut client = connect(&handle);

    // Rows in reverse, tenants interleaved per row, so micro-batch
    // composition resembles neither the offline row order nor a
    // single-tenant stream.
    for row in (0..WARM_ROWS).rev() {
        for ((name, _), donor) in presets.iter().zip(&offline) {
            let frame = round_trip(
                &mut client,
                &format!(
                    "{{\"id\": {row}, \"method\": \"explain\", \"row\": {row}, \
                     \"tenant\": \"{name}\"}}"
                ),
            );
            assert_eq!(
                weights_of(&frame),
                donor[row],
                "tenant {name} row {row} must be bit-identical to its \
                 offline BatchParallel"
            );
        }
    }

    handle.shutdown();
    assert_eq!(handle.wait(), (WARM_ROWS * presets.len()) as u64);
}
