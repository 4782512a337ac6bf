//! The TCP front end: acceptor, per-connection readers, and the batcher.
//!
//! Threading model (see DESIGN.md §5f):
//!
//! ```text
//! acceptor ──spawns──▶ reader (one per connection)
//!                        │ parse + resolve tenant + admit (quota)
//!                        ▼
//!                 Admission queue (bounded)
//!                        │ pop_batch(max_batch, max_delay)
//!                        ▼
//!                     batcher ── group by tenant
//!                        │ ensure_warm (lazy cold start)
//!                        ▼
//!        WarmEngine::explain_assigned (shard-routed) ──▶ response frames
//! ```
//!
//! The server fronts a [`TenantRegistry`] — one tenant wrapped from a
//! prebuilt engine on the classic [`Server::start`] path, N manifest
//! tenants via [`Server::start_cluster`]. Readers resolve each explain's
//! `tenant` field (absent → default tenant, unknown → typed 404) and
//! admit against the tenant's quota (over → typed 429) before the
//! request crosses into the queue; the batcher groups each popped batch
//! by tenant, materializes cold tenants on first use (counted and
//! traced as a `coldstart` span), and routes every group through the
//! tenant's consistent-hash shard map.
//!
//! Readers never touch the engine; the batcher never touches sockets
//! except through each request's [`Conn`] handle (a mutex-wrapped writer
//! shared with the reader, so pong/error frames and served explanations
//! interleave without tearing). Shutdown — admin frame, watched signal,
//! or [`ServerHandle::shutdown`] — closes the queue; the batcher drains
//! the backlog (every admitted request is still answered), the acceptor
//! stops accepting, and readers notice within one read-timeout tick.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use shahin::obs::names;
use shahin::{
    MetricsRegistry, RequestTrace, StageSpan, TraceContext, TraceCounters, TraceSink, TraceSpan,
    TraceStore, TraceStoreConfig, WarmEngine, WarmOutcome, WarmRequest,
};
use shahin_model::Classifier;
use shahin_tenancy::TenantRegistry;

use crate::monitor::{self, MonitorState};
use crate::protocol::{
    error_frame, error_frame_traced, explanation_frame, metrics_frame, parse_frame_id,
    parse_request, pong_frame, shutdown_frame, snapshot_frame, stats_frame, trace_frame,
    traces_frame, MetricsFormat, Request, TraceQuery, TraceStoreStats, WireError,
};
use crate::queue::{Admission, PushError};
use crate::signal;

/// Upper bound on one request line, newline included. Well-formed
/// request frames are tens of bytes; a longer line is hostile or broken
/// and must not grow the reader's buffer without limit. Overlong lines
/// are answered with a 400 frame and discarded up to the next newline —
/// the connection survives.
pub const MAX_FRAME_LEN: usize = 8 * 1024;

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Admission queue bound; pushes beyond it get 429 frames.
    pub queue_capacity: usize,
    /// Micro-batch flush threshold.
    pub max_batch: usize,
    /// Micro-batch flush delay: how long the batcher holds an open batch
    /// waiting for co-batchable requests.
    pub max_delay: Duration,
    /// Refresh the warm store every this many micro-batches (0 = never).
    pub refresh_every: u64,
    /// How often idle readers and the acceptor poll the shutdown flag.
    pub poll_interval: Duration,
    /// Per-frame write timeout. A client that stops reading (full TCP
    /// window) past this is treated as hung up: its connection is marked
    /// dead and further responses for it are dropped, so a stalled
    /// socket never blocks the batcher for other requests.
    pub write_timeout: Duration,
    /// Accept admin frames (`shutdown`, `metrics`, `stats`) from
    /// non-loopback peers. Off by default: when `addr` binds a
    /// non-loopback interface, remote clients get 403 frames instead of
    /// draining or scraping the server.
    pub allow_remote_shutdown: bool,
    /// Watch SIGINT/SIGTERM and drain when one arrives.
    pub watch_signals: bool,
    /// How often the monitor thread samples gauges and rolls a new
    /// metrics window.
    pub monitor_interval: Duration,
    /// How many monitor windows the aggregator retains; `stats` and SLO
    /// gauges look back over `windows × monitor_interval` of wall time.
    pub windows: usize,
    /// SLO latency objective: windowed request-latency p99 should stay
    /// at or below this.
    pub slo_p99: Duration,
    /// SLO error-rate objective: allowed fraction of failed traffic
    /// (rejections, expired deadlines, quarantines).
    pub slo_error_rate: f64,
    /// When set, the monitor atomically rewrites this file with the
    /// current metrics JSON every tick, so an operator can tail it.
    pub metrics_out: Option<std::path::PathBuf>,
    /// Probability of retaining a bulk-success request trace
    /// (`--trace-sample`); errors, quarantined requests, and slow ones
    /// are retained regardless (tail-based sampling).
    pub trace_sample: f64,
    /// Wall time at or above which a request's trace is always retained
    /// (`--trace-slow-ms`).
    pub trace_slow: Duration,
    /// Retained-trace ring bound (`--trace-store`); 0 disables request
    /// tracing entirely — no ids minted, no stage spans recorded.
    pub trace_store: usize,
    /// When set, the monitor thread writes checksummed warm-state
    /// snapshots here (`--snapshot-out`): periodically per
    /// `snapshot_interval`, on demand (admin `snapshot` frame, SIGUSR1),
    /// and once at drain. Writes are temp-file + fsync + rename, so the
    /// file is always a complete snapshot. Parent directories are
    /// created as needed.
    pub snapshot_out: Option<std::path::PathBuf>,
    /// Periodic snapshot cadence (`--snapshot-interval-ms`); `None`
    /// means on-demand and at-drain snapshots only.
    pub snapshot_interval: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 1024,
            max_batch: 32,
            max_delay: Duration::from_millis(5),
            refresh_every: 0,
            poll_interval: Duration::from_millis(50),
            write_timeout: Duration::from_secs(1),
            allow_remote_shutdown: false,
            watch_signals: false,
            monitor_interval: Duration::from_secs(1),
            windows: 12,
            slo_p99: Duration::from_millis(500),
            slo_error_rate: 0.001,
            metrics_out: None,
            trace_sample: TraceStoreConfig::default().sample,
            trace_slow: TraceStoreConfig::default().slow,
            trace_store: TraceStoreConfig::default().capacity,
            snapshot_out: None,
            snapshot_interval: None,
        }
    }
}

/// One client connection's write half, shared by its reader thread (pong
/// and error frames) and the batcher (served explanations).
struct Conn {
    stream: Mutex<TcpStream>,
    /// Whether the peer is a loopback address (gates admin frames).
    peer_loopback: bool,
    /// Flipped on the first failed or timed-out write. A timed-out
    /// `write_all` may have written a partial frame, so the byte stream
    /// is torn: nothing further may be sent on this connection.
    dead: AtomicBool,
}

impl Conn {
    /// Writes one frame plus the line terminator, bounded by the
    /// stream's write timeout. Errors (including the timeout a stalled
    /// client causes) mean the client is gone or not reading: the
    /// connection is marked dead, the socket shut down so its reader
    /// unblocks and cleans up, and this and all further responses for
    /// it are dropped on the floor.
    fn send(&self, frame: &str) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        let mut stream = self.stream.lock().unwrap();
        let wrote = stream
            .write_all(frame.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush());
        if wrote.is_err() {
            self.dead.store(true, Ordering::Relaxed);
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }
}

/// An admitted explain request waiting for the batcher.
pub(crate) struct Pending {
    conn: Arc<Conn>,
    /// Client frame id, echoed on the response.
    frame_id: u64,
    /// Registry index of the tenant the request routed to; the batcher
    /// groups by it and releases the tenant's quota after answering.
    tenant: usize,
    /// Warm-set row to explain.
    row: usize,
    /// Server-assigned id stamped on provenance records.
    request_id: u64,
    /// Admission time (queue-wait + end-to-end latency histograms; the
    /// zero point of the request's span tree).
    enqueued: Instant,
    /// Absolute queue deadline, from the request's `deadline_ms`.
    deadline: Option<Instant>,
    /// Trace context minted at admission (`None` with tracing off).
    trace: Option<TraceContext>,
}

/// The server's request-tracing state: the sink engine workers deposit
/// stage spans into, the tail-sampled store of retained traces, and the
/// trace-id mint. `None` on [`Shared::traces`] when `trace_store` is 0.
pub(crate) struct TracePlane {
    pub(crate) store: TraceStore,
    pub(crate) sink: Arc<TraceSink>,
    /// Ids start at 1: 0 means "no exemplar" in histogram bucket slots.
    next_trace_id: AtomicU64,
}

impl TracePlane {
    fn mint(&self) -> TraceContext {
        TraceContext::root(self.next_trace_id.fetch_add(1, Ordering::Relaxed))
    }
}

pub(crate) struct Shared<C: Classifier> {
    pub(crate) cluster: Arc<TenantRegistry<C>>,
    pub(crate) queue: Admission<Pending>,
    shutdown: AtomicBool,
    /// Set by the batcher once the backlog is fully answered; readers
    /// hold connections open (answering 503s) until then.
    drained: AtomicBool,
    next_request_id: AtomicU64,
    /// Requests answered by the batcher (the drain report).
    served: AtomicU64,
    /// Reader threads currently attached to a client connection; the
    /// monitor samples this into the `serve.live_connections` gauge.
    pub(crate) live_connections: AtomicU64,
    /// Windowed-aggregator + SLO state owned by the monitor thread.
    pub(crate) monitor: MonitorState,
    /// On-demand snapshot flag: set by the admin `snapshot` frame (and
    /// by the monitor itself for SIGUSR1), consumed by the monitor
    /// thread — the single snapshot writer.
    pub(crate) snapshot_requested: AtomicBool,
    /// Request-tracing plane (`None` when `trace_store` is 0).
    pub(crate) traces: Option<TracePlane>,
    pub(crate) config: ServeConfig,
}

impl<C: Classifier> Shared<C> {
    pub(crate) fn obs(&self) -> &MetricsRegistry {
        self.cluster.obs()
    }

    /// The tenant label stamped on a request's trace — only when the
    /// cluster actually is multi-tenant, so single-tenant traces keep
    /// the pre-tenancy schema.
    fn trace_tenant(&self, tenant: usize) -> Option<Arc<str>> {
        self.cluster
            .multi()
            .then(|| Arc::clone(self.cluster.name(tenant)))
    }

    /// Begins the graceful drain: stop admitting, let the batcher finish
    /// the backlog, wake everything that polls.
    fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn drained(&self) -> bool {
        self.drained.load(Ordering::SeqCst)
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`shutdown`](ServerHandle::shutdown) (or send an admin `shutdown`
/// frame) and then [`wait`](ServerHandle::wait).
pub struct Server;

/// Handle to a started server.
pub struct ServerHandle<C: Classifier + 'static> {
    addr: SocketAddr,
    shared: Arc<Shared<C>>,
    acceptor: JoinHandle<()>,
    batcher: JoinHandle<()>,
    monitor: JoinHandle<()>,
}

impl<C: Classifier + 'static> ServerHandle<C> {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the graceful drain (idempotent).
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }

    /// Blocks until the drain completes and all server threads exit;
    /// returns the number of requests the batcher answered. The monitor
    /// exits after its final post-drain tick, so the last metrics-out
    /// rewrite reflects the drained state.
    pub fn wait(self) -> u64 {
        self.acceptor.join().expect("acceptor thread panicked");
        self.batcher.join().expect("batcher thread panicked");
        self.monitor.join().expect("monitor thread panicked");
        self.shared.served.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds `config.addr` and spawns the acceptor and batcher threads
    /// over a primed engine — the single-tenant path, wrapping the
    /// engine as a one-tenant cluster (no tenant labels, no lifecycle
    /// management; `--snapshot-out` becomes the tenant's snapshot path).
    pub fn start<C: Classifier + 'static>(
        engine: Arc<WarmEngine<C>>,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle<C>> {
        let cluster = Arc::new(TenantRegistry::single(engine, config.snapshot_out.clone()));
        Server::start_cluster(cluster, config)
    }

    /// Binds `config.addr` over a tenant cluster: requests route by
    /// their `tenant` field, tenants materialize lazily, and the monitor
    /// runs the FaaS lifecycle (idle/budget eviction, per-tenant
    /// snapshots) every tick.
    pub fn start_cluster<C: Classifier + 'static>(
        cluster: Arc<TenantRegistry<C>>,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle<C>> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        if config.watch_signals {
            signal::install();
        }
        let slo = shahin_obs::SloConfig {
            target: "serve.request".into(),
            latency_histogram: names::SERVE_REQUEST_LATENCY.into(),
            latency_objective: config.slo_p99,
            latency_quantile: 0.99,
            requests_counter: names::SERVE_REQUESTS.into(),
            error_counters: vec![
                names::SERVE_REJECTED_OVERLOAD.into(),
                names::SERVE_REJECTED_SHUTDOWN.into(),
                names::SERVE_DEADLINE_EXPIRED.into(),
                names::SERVE_QUARANTINED.into(),
            ],
            error_rate_objective: config.slo_error_rate,
        };
        // Tracing on: attach the stage sink so engine workers can see it,
        // and bound the retained-trace ring per the config knobs.
        let traces = (config.trace_store > 0).then(|| {
            let sink = Arc::new(TraceSink::new());
            cluster.obs().attach_trace_sink(Arc::clone(&sink));
            TracePlane {
                store: TraceStore::new(TraceStoreConfig {
                    capacity: config.trace_store,
                    sample: config.trace_sample,
                    slow: config.trace_slow,
                    ..TraceStoreConfig::default()
                }),
                sink,
                next_trace_id: AtomicU64::new(1),
            }
        });
        let shared = Arc::new(Shared {
            cluster,
            queue: Admission::new(config.queue_capacity),
            shutdown: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            next_request_id: AtomicU64::new(0),
            served: AtomicU64::new(0),
            live_connections: AtomicU64::new(0),
            monitor: MonitorState::new(config.windows, slo),
            snapshot_requested: AtomicBool::new(false),
            traces,
            config,
        });
        // Server threads carry names so EventSink timeline lanes and
        // panic messages identify their role.
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("acceptor".into())
                .spawn(move || accept_loop(listener, shared))
                .expect("spawn acceptor")
        };
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("batcher".into())
                .spawn(move || batch_loop(shared))
                .expect("spawn batcher")
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("monitor".into())
                .spawn(move || monitor::monitor_loop(shared))
                .expect("spawn monitor")
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor,
            batcher,
            monitor,
        })
    }
}

/// Accepts connections until shutdown, spawning one reader thread each,
/// then joins the readers (they exit within one poll tick of the flag).
fn accept_loop<C: Classifier + 'static>(listener: TcpListener, shared: Arc<Shared<C>>) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.config.watch_signals && signal::requested() {
            shared.trigger_shutdown();
        }
        if shared.shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Response frames are small; Nagle + delayed ACK would
                // add ~40ms per round trip.
                let _ = stream.set_nodelay(true);
                shared.obs().counter(names::SERVE_CONNECTIONS).inc();
                let shared = Arc::clone(&shared);
                readers.push(
                    std::thread::Builder::new()
                        .name("reader".into())
                        .spawn(move || read_loop(stream, shared))
                        .expect("spawn reader"),
                );
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(shared.config.poll_interval);
            }
            Err(_) => std::thread::sleep(shared.config.poll_interval),
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// Reads newline-delimited frames off one connection until EOF or
/// shutdown. Every malformed frame is answered in place and the
/// connection kept open; only explain frames cross into the queue. The
/// partial-line buffer is bounded by [`MAX_FRAME_LEN`]: an overlong
/// line gets one 400 frame and its remaining bytes are discarded up to
/// the next newline, so a client streaming without newlines can never
/// grow server memory.
fn read_loop<C: Classifier + 'static>(stream: TcpStream, shared: Arc<Shared<C>>) {
    // Blocking socket with a read timeout: the reader wakes every tick
    // to notice a drain even when the client sends nothing. The write
    // timeout bounds how long a response frame can stall the batcher on
    // a client that stopped reading.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let peer_loopback = stream
        .peer_addr()
        .map(|peer| peer.ip().is_loopback())
        .unwrap_or(false);
    let conn = Arc::new(Conn {
        stream: Mutex::new(stream.try_clone().expect("tcp stream clones")),
        peer_loopback,
        dead: AtomicBool::new(false),
    });
    shared.live_connections.fetch_add(1, Ordering::Relaxed);
    // Decrements on every exit path out of the read loop below (the
    // loop only breaks, never returns).
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    // True while discarding the tail of an overlong line; the 400 frame
    // was already sent when the overflow was detected.
    let mut discarding = false;
    loop {
        let buf = match reader.fill_buf() {
            Ok([]) => {
                // EOF with an unterminated final frame: flush it.
                if !discarding && !line.is_empty() {
                    handle_frame(&String::from_utf8_lossy(&line), &conn, &shared);
                }
                break;
            }
            Ok(buf) => buf,
            Err(e)
                if e.kind() == ErrorKind::WouldBlock
                    || e.kind() == ErrorKind::TimedOut
                    || e.kind() == ErrorKind::Interrupted =>
            {
                // Read timeout tick. Connections stay open through the
                // drain (in-flight frames still get typed 503s) and close
                // once the batcher has answered the whole backlog.
                if shared.drained() || conn.is_dead() {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let (chunk_len, terminated) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i, true),
            None => (buf.len(), false),
        };
        if !discarding {
            if line.len() + chunk_len > MAX_FRAME_LEN {
                shared.obs().counter(names::SERVE_REJECTED_MALFORMED).inc();
                conn.send(&error_frame(
                    0,
                    &WireError::bad_request(format!("frame exceeds {MAX_FRAME_LEN} bytes")),
                ));
                line.clear();
                discarding = true;
            } else {
                line.extend_from_slice(&buf[..chunk_len]);
            }
        }
        reader.consume(chunk_len + usize::from(terminated));
        if terminated {
            if discarding {
                discarding = false;
            } else {
                let text = String::from_utf8_lossy(&line).into_owned();
                if !text.trim().is_empty() {
                    handle_frame(&text, &conn, &shared);
                }
            }
            line.clear();
        }
    }
    shared.live_connections.fetch_sub(1, Ordering::Relaxed);
}

/// Parses and dispatches one frame.
fn handle_frame<C: Classifier>(line: &str, conn: &Arc<Conn>, shared: &Shared<C>) {
    let obs = shared.obs();
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(err) => {
            obs.counter(names::SERVE_REJECTED_MALFORMED).inc();
            conn.send(&error_frame(parse_frame_id(line), &err));
            return;
        }
    };
    match request {
        Request::Ping { id } => {
            let uptime_secs = shared.monitor.started.elapsed().as_secs();
            let (entries, _) = shared.cluster.warm_totals();
            let tenants = monitor::tenant_stats(shared);
            conn.send(&pong_frame(
                id,
                uptime_secs,
                env!("CARGO_PKG_VERSION"),
                entries as usize,
                &tenants,
            ));
        }
        Request::Shutdown { id } => {
            if !admin_permitted(conn.peer_loopback, shared.config.allow_remote_shutdown) {
                obs.counter(names::SERVE_REJECTED_FORBIDDEN).inc();
                conn.send(&error_frame(id, &WireError::forbidden()));
                return;
            }
            // Effect before ack: once the client reads `shutting_down`,
            // admission is already closed, so every later explain gets
            // its 503 instead of slipping into the drain.
            shared.trigger_shutdown();
            conn.send(&shutdown_frame(id));
        }
        Request::Metrics { id, format } => {
            if !admin_permitted(conn.peer_loopback, shared.config.allow_remote_shutdown) {
                obs.counter(names::SERVE_REJECTED_FORBIDDEN).inc();
                conn.send(&error_frame(id, &WireError::forbidden()));
                return;
            }
            obs.counter(names::SERVE_SCRAPES).inc();
            let snapshot = obs.snapshot();
            let body = match format {
                MetricsFormat::Prometheus => snapshot.to_prometheus(),
                MetricsFormat::Json => snapshot.to_json(),
            };
            conn.send(&metrics_frame(id, format, &body));
        }
        Request::Stats { id } => {
            if !admin_permitted(conn.peer_loopback, shared.config.allow_remote_shutdown) {
                obs.counter(names::SERVE_REJECTED_FORBIDDEN).inc();
                conn.send(&error_frame(id, &WireError::forbidden()));
                return;
            }
            obs.counter(names::SERVE_SCRAPES).inc();
            conn.send(&stats_frame(id, &monitor::stats_summary(shared)));
        }
        Request::Snapshot { id } => {
            if !admin_permitted(conn.peer_loopback, shared.config.allow_remote_shutdown) {
                obs.counter(names::SERVE_REJECTED_FORBIDDEN).inc();
                conn.send(&error_frame(id, &WireError::forbidden()));
                return;
            }
            if !shared.cluster.persists() {
                conn.send(&error_frame(id, &WireError::snapshots_disabled()));
                return;
            }
            obs.counter(names::PERSIST_SNAPSHOTS_REQUESTED).inc();
            // The monitor thread does the write (single snapshot writer);
            // it wakes within one poll tick of this flag.
            shared.snapshot_requested.store(true, Ordering::Relaxed);
            let path = match &shared.config.snapshot_out {
                Some(path) => path.to_string_lossy().into_owned(),
                // Multi-tenant: one file per tenant under the manifest's
                // snapshot_dir.
                None => "<per-tenant>".to_string(),
            };
            conn.send(&snapshot_frame(id, &path));
        }
        Request::Trace { id, query, format } => {
            if !admin_permitted(conn.peer_loopback, shared.config.allow_remote_shutdown) {
                obs.counter(names::SERVE_REJECTED_FORBIDDEN).inc();
                conn.send(&error_frame(id, &WireError::forbidden()));
                return;
            }
            // Counted apart from serve.scrapes: trace fetches are debug
            // traffic, not metrics-plane load.
            obs.counter(names::SERVE_TRACE_FETCHES).inc();
            let Some(traces) = &shared.traces else {
                conn.send(&error_frame(id, &WireError::tracing_disabled()));
                return;
            };
            let stats = TraceStoreStats {
                len: traces.store.len() as u64,
                retained: traces.store.retained(),
                dropped: traces.store.dropped(),
                evicted: traces.store.evicted(),
            };
            match query {
                TraceQuery::ById(trace_id) => match traces.store.get(trace_id) {
                    Some(trace) => conn.send(&trace_frame(id, &trace, format)),
                    None => {
                        conn.send(&error_frame(id, &WireError::trace_not_found(trace_id)));
                    }
                },
                TraceQuery::Slowest(n) => {
                    conn.send(&traces_frame(id, &traces.store.slowest(n), stats));
                }
                TraceQuery::Errors => {
                    conn.send(&traces_frame(id, &traces.store.errors(), stats));
                }
            }
        }
        Request::Explain {
            id,
            row,
            deadline_ms,
            tenant,
        } => {
            if shared.shutting_down() {
                obs.counter(names::SERVE_REJECTED_SHUTDOWN).inc();
                conn.send(&error_frame(id, &WireError::shutting_down()));
                return;
            }
            // Route first: the row bound and quota are per-tenant.
            // `resolve` counts `tenancy.unknown_tenant` itself; the miss
            // is a routing 404, not malformed input.
            let Some(tidx) = shared.cluster.resolve(tenant.as_deref()) else {
                let name = tenant.as_deref().unwrap_or_default();
                conn.send(&error_frame(id, &WireError::unknown_tenant(name)));
                return;
            };
            let n_rows = shared.cluster.n_rows(tidx);
            if row >= n_rows {
                obs.counter(names::SERVE_REJECTED_MALFORMED).inc();
                conn.send(&error_frame(id, &WireError::row_out_of_range(row, n_rows)));
                return;
            }
            // Quota gate: every admitted request holds one in-flight slot
            // until the batcher answers it (release in batch_loop).
            if !shared.cluster.try_admit(tidx) {
                let quota = shared.cluster.quota(tidx).unwrap_or(0);
                conn.send(&error_frame(
                    id,
                    &WireError::tenant_over_quota(shared.cluster.name(tidx), quota),
                ));
                return;
            }
            let enqueued = Instant::now();
            let pending = Pending {
                conn: Arc::clone(conn),
                frame_id: id,
                tenant: tidx,
                row,
                request_id: shared.next_request_id.fetch_add(1, Ordering::Relaxed),
                enqueued,
                deadline: deadline_ms.map(|ms| enqueued + Duration::from_millis(ms)),
                trace: shared.traces.as_ref().map(TracePlane::mint),
            };
            match shared.queue.push(pending) {
                Ok(()) => {
                    obs.counter(names::SERVE_REQUESTS).inc();
                    obs.gauge(names::SERVE_QUEUE_DEPTH)
                        .set(shared.queue.len() as u64);
                }
                Err((rejected, PushError::Full)) => {
                    shared.cluster.release(rejected.tenant);
                    obs.counter(names::SERVE_REJECTED_OVERLOAD).inc();
                    reject_traced(
                        shared,
                        &rejected,
                        &WireError::overloaded(shared.config.queue_capacity),
                    );
                }
                Err((rejected, PushError::Closed)) => {
                    shared.cluster.release(rejected.tenant);
                    obs.counter(names::SERVE_REJECTED_SHUTDOWN).inc();
                    reject_traced(shared, &rejected, &WireError::shutting_down());
                }
            }
        }
    }
}

/// Whether an admin frame (`shutdown`, `metrics`, `stats`, `trace`) may
/// act on the server: always from loopback peers, from remote ones only
/// when the operator opted in.
fn admin_permitted(peer_loopback: bool, allow_remote_shutdown: bool) -> bool {
    peer_loopback || allow_remote_shutdown
}

/// Nanoseconds from `t0` to `t`, saturating both at zero (clock reads
/// race) and at `u64::MAX`.
fn ns_since(t0: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// Answers a queue-rejected request (429/503) with an error frame and,
/// when traced, retains a minimal error trace — admission is where trace
/// ids are minted, so even never-batched requests stay debuggable.
fn reject_traced<C: Classifier>(shared: &Shared<C>, rejected: &Pending, err: &WireError) {
    let trace_id = rejected.trace.map(|ctx| ctx.trace_id);
    // Offer before sending so a fetch issued right after the error frame
    // never races the store insert.
    if let (Some(traces), Some(ctx)) = (&shared.traces, rejected.trace) {
        let total_ns = ns_since(rejected.enqueued, Instant::now());
        traces.store.offer(assemble_trace(AssembleArgs {
            ctx,
            row: rejected.row,
            request_id: rejected.request_id,
            tenant: shared.trace_tenant(rejected.tenant),
            batch_id: None,
            t0: rejected.enqueued,
            total_ns,
            queue_ns: total_ns,
            batch_window: None,
            stages: Vec::new(),
            error: true,
            quarantined: false,
            degraded: false,
        }));
    }
    rejected
        .conn
        .send(&error_frame_traced(rejected.frame_id, err, trace_id));
}

/// Everything the batcher knows about one finished request, handed to
/// [`assemble_trace`].
struct AssembleArgs {
    ctx: TraceContext,
    row: usize,
    request_id: u64,
    /// Tenant label (`None` for single-tenant serving — omitted from the
    /// trace JSON, keeping the pre-tenancy schema).
    tenant: Option<Arc<str>>,
    batch_id: Option<u64>,
    /// The trace's zero point (admission).
    t0: Instant,
    total_ns: u64,
    queue_ns: u64,
    /// When the request reached the engine: the batch flush's start and
    /// end instants.
    batch_window: Option<(Instant, Instant)>,
    stages: Vec<StageSpan>,
    error: bool,
    quarantined: bool,
    degraded: bool,
}

/// Index of the `batch` span engine stages parent under (0 is the root
/// `request` span, 1 the `queue` span).
const BATCH_SPAN: u32 = 2;

/// Builds one finished [`RequestTrace`] from the batcher's measurements
/// plus the engine's stage spans. Every offset is clamped so children
/// nest within their parents even under clock-read jitter: `queue` and
/// `batch` within `request`, engine stages within `batch`.
fn assemble_trace(args: AssembleArgs) -> RequestTrace {
    let mut counters = TraceCounters::default();
    let mut spans = Vec::with_capacity(3 + args.stages.len());
    spans.push(TraceSpan {
        name: Arc::from("request"),
        parent: None,
        start_ns: 0,
        dur_ns: args.total_ns,
    });
    spans.push(TraceSpan {
        name: Arc::from("queue"),
        parent: Some(0),
        start_ns: 0,
        dur_ns: args.queue_ns.min(args.total_ns),
    });
    if let Some((flush_start, flush_end)) = args.batch_window {
        let start = ns_since(args.t0, flush_start).min(args.total_ns);
        let end = ns_since(args.t0, flush_end).clamp(start, args.total_ns);
        debug_assert_eq!(spans.len(), BATCH_SPAN as usize);
        spans.push(TraceSpan {
            name: Arc::from("batch"),
            parent: Some(0),
            start_ns: start,
            dur_ns: end - start,
        });
        for stage in args.stages {
            counters.absorb(&stage.counters);
            let stage_start = ns_since(args.t0, stage.start).clamp(start, end);
            let stage_dur = u64::try_from(stage.dur.as_nanos())
                .unwrap_or(u64::MAX)
                .min(end - stage_start);
            spans.push(TraceSpan {
                name: Arc::from(stage.name),
                parent: Some(BATCH_SPAN),
                start_ns: stage_start,
                dur_ns: stage_dur,
            });
        }
    }
    RequestTrace {
        trace_id: args.ctx.trace_id,
        request_id: args.request_id,
        row: args.row as u64,
        batch_id: args.batch_id,
        tenant: args.tenant,
        spans,
        counters,
        error: args.error,
        quarantined: args.quarantined,
        degraded: args.degraded,
        total_ns: args.total_ns,
    }
}

/// Pops micro-batches until the queue closes and drains, explaining each
/// against the warm engine and answering every request.
fn batch_loop<C: Classifier>(shared: Arc<Shared<C>>) {
    let obs = shared.obs().clone();
    let batch_size = obs.value_histogram(names::SERVE_BATCH_SIZE);
    let queue_wait = obs.histogram(names::SERVE_QUEUE_WAIT);
    let latency = obs.histogram(names::SERVE_REQUEST_LATENCY);
    let mut batches: u64 = 0;
    while let Some(batch) = shared
        .queue
        .pop_batch(shared.config.max_batch, shared.config.max_delay)
    {
        obs.gauge(names::SERVE_QUEUE_DEPTH)
            .set(shared.queue.len() as u64);
        batch_size.record(batch.len() as u64);
        obs.counter(names::SERVE_BATCHES).inc();
        let batch_id = batches;

        // Requests whose deadline passed while queued get 408 frames and
        // never reach the engine; the rest form the micro-batch.
        let now = Instant::now();
        let mut live: Vec<Pending> = Vec::with_capacity(batch.len());
        for pending in batch {
            queue_wait.record(now.duration_since(pending.enqueued));
            if pending.deadline.is_some_and(|d| d < now) {
                obs.counter(names::SERVE_DEADLINE_EXPIRED).inc();
                if let (Some(traces), Some(ctx)) = (&shared.traces, pending.trace) {
                    let total_ns = ns_since(pending.enqueued, now);
                    traces.store.offer(assemble_trace(AssembleArgs {
                        ctx,
                        row: pending.row,
                        request_id: pending.request_id,
                        tenant: shared.trace_tenant(pending.tenant),
                        batch_id: None,
                        t0: pending.enqueued,
                        total_ns,
                        queue_ns: total_ns,
                        batch_window: None,
                        stages: Vec::new(),
                        error: true,
                        quarantined: false,
                        degraded: false,
                    }));
                }
                pending.conn.send(&error_frame_traced(
                    pending.frame_id,
                    &WireError::deadline_expired(),
                    pending.trace.map(|ctx| ctx.trace_id),
                ));
                shared.cluster.release(pending.tenant);
                shared.served.fetch_add(1, Ordering::SeqCst);
            } else {
                live.push(pending);
            }
        }
        // One engine flush per tenant present in the batch, grouped in
        // arrival order of each tenant's first request: co-tenant
        // requests still amortize classifier calls across the batch;
        // cross-tenant ones never share an engine.
        let mut groups: Vec<(usize, Vec<Pending>)> = Vec::new();
        for pending in live {
            match groups.iter_mut().find(|(t, _)| *t == pending.tenant) {
                Some((_, group)) => group.push(pending),
                None => groups.push((pending.tenant, vec![pending])),
            }
        }
        for (tenant, group) in groups {
            let requests: Vec<WarmRequest> = group
                .iter()
                .map(|p| WarmRequest {
                    row: p.row,
                    request_id: p.request_id,
                    trace: p.trace.map(|ctx| ctx.trace_id),
                })
                .collect();
            // Batcher occupancy: how many requests the engine is
            // explaining right now (0 between flushes).
            obs.gauge(names::SERVE_BATCH_INFLIGHT)
                .set(group.len() as u64);
            let flush_start = Instant::now();
            // Lazy materialization: a cold tenant's first batch pays its
            // cold start here, inside the flush window, so the synthetic
            // `coldstart` stage below nests in the `batch` span.
            let (slot, cold) = shared.cluster.ensure_warm(tenant);
            let epoch = slot.engine.epoch();
            // Shard-route every request by its row's frozen-itemset
            // signature; bit-identical to unsharded explanation because
            // per-tuple seeding depends only on the global warm row.
            let assign = slot.assign(&requests);
            let outcomes = slot
                .engine
                .explain_assigned(&requests, &assign, slot.n_workers());
            let flush_end = Instant::now();
            obs.gauge(names::SERVE_BATCH_INFLIGHT).set(0);
            let coldstart = cold.map(|c| StageSpan {
                name: "coldstart",
                start: flush_start,
                dur: c.wall,
                counters: TraceCounters::default(),
            });
            for (pending, outcome) in group.iter().zip(outcomes) {
                let trace_id = pending.trace.map(|ctx| ctx.trace_id);
                let (frame, error, quarantined, degraded) = match outcome {
                    WarmOutcome::Ok {
                        explanation,
                        degraded,
                    } => (
                        explanation_frame(
                            pending.frame_id,
                            pending.row,
                            &explanation,
                            degraded,
                            epoch,
                            trace_id,
                        ),
                        false,
                        false,
                        degraded,
                    ),
                    WarmOutcome::Failed(failure) => {
                        obs.counter(names::SERVE_QUARANTINED).inc();
                        (
                            error_frame_traced(
                                pending.frame_id,
                                &WireError::quarantined(failure.kind, &failure.message),
                                trace_id,
                            ),
                            true,
                            true,
                            false,
                        )
                    }
                };
                let total = pending.enqueued.elapsed();
                match trace_id {
                    Some(id) => latency.record_traced(total, id),
                    None => latency.record(total),
                }
                // Offer before sending: once a client sees the trace id in
                // its response frame, a fetch on the same connection must
                // not race the store insert.
                if let (Some(traces), Some(ctx)) = (&shared.traces, pending.trace) {
                    let mut stages = traces.sink.take(ctx.trace_id);
                    if let Some(cs) = &coldstart {
                        stages.insert(0, cs.clone());
                    }
                    traces.store.offer(assemble_trace(AssembleArgs {
                        ctx,
                        row: pending.row,
                        request_id: pending.request_id,
                        tenant: shared.trace_tenant(pending.tenant),
                        batch_id: Some(batch_id),
                        t0: pending.enqueued,
                        total_ns: u64::try_from(total.as_nanos()).unwrap_or(u64::MAX),
                        queue_ns: ns_since(pending.enqueued, flush_start),
                        batch_window: Some((flush_start, flush_end)),
                        stages,
                        error,
                        quarantined,
                        degraded,
                    }));
                }
                pending.conn.send(&frame);
                shared.cluster.release(tenant);
                shared.served.fetch_add(1, Ordering::SeqCst);
            }
        }

        batches += 1;
        let every = shared.config.refresh_every;
        if every > 0 && batches.is_multiple_of(every) {
            // Refresh every materialized tenant; cold ones have nothing
            // to refresh.
            for idx in 0..shared.cluster.len() {
                if let Some(slot) = shared.cluster.slot(idx) {
                    slot.engine.refresh();
                }
            }
        }
    }
    // Queue closed and fully drained: every admitted request has been
    // answered. Flag it for the smoke test's clean-drain assertion.
    obs.gauge(names::SERVE_QUEUE_DEPTH).set(0);
    obs.gauge(names::SERVE_DRAINED).set(1);
    shared.drained.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admin_frames_are_loopback_only_unless_opted_in() {
        assert!(admin_permitted(true, false));
        assert!(admin_permitted(true, true));
        assert!(!admin_permitted(false, false));
        assert!(admin_permitted(false, true));
    }
}
