//! The server: a thread-per-connection HTTP front end over a
//! [`DevicePool`].
//!
//! One acceptor thread hands each connection to its own handler thread;
//! handlers speak keep-alive HTTP/1.1 with short read timeouts so a
//! shutdown request drains promptly, and read each request under one
//! fixed deadline so a stalled client gets a 408 instead of a hang.
//! Each job route parses its request, calls the one job service (which
//! owns the pool, the quota ledger and the job records), and renders
//! the document or the service's typed error. This module keeps only
//! the transport: connections, deadlines, metrics and trace spans.

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::http::{read_request, write_response, HttpError, Request, Response};
use crate::json::Json;
use crate::problem::ProblemJson;
use crate::quota::Quota;
use crate::router::{route, RouteMatch, ROUTES};
use crate::service::{JobService, ServiceError};
use quma_obs::trace::{now_ns, SpanEvent, SpanKind, TraceBuffer};
use quma_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry as MetricRegistry};
use quma_pool::prelude::JobId;
use quma_pool::{DevicePool, RecoveredPool};

/// The API version every response announces in `x-quma-api-version`.
pub const API_VERSION: u32 = 1;

/// Server tuning knobs, built builder-style.
///
/// ```
/// use quma_serve::server::ServerConfig;
/// use quma_serve::quota::Quota;
///
/// let config = ServerConfig::new()
///     .with_max_body_bytes(64 * 1024)
///     .with_quota(Quota::new().with_burst(16).with_per_second(8.0));
/// assert_eq!(config.max_body_bytes, 64 * 1024);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Per-client submission quota; `None` disables quota enforcement.
    pub quota: Option<Quota>,
}

impl ServerConfig {
    /// Defaults: 1 MiB bodies and the default [`Quota`].
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            max_body_bytes: 1024 * 1024,
            quota: Some(Quota::new()),
        }
    }

    /// Sets the request-body size limit (builder style).
    pub fn with_max_body_bytes(mut self, bytes: usize) -> Self {
        self.max_body_bytes = bytes.max(1);
        self
    }

    /// Sets the per-client quota (builder style).
    pub fn with_quota(mut self, quota: Quota) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Disables per-client quotas (builder style).
    pub fn without_quota(mut self) -> Self {
        self.quota = None;
        self
    }
}

/// The serve layer's metric handles, registered in the pool's metric
/// registry under `quma_serve_*` family names — so one
/// [`MetricRegistry::render_prometheus`] pass covers pool, journal, and
/// HTTP front end alike. All handles are pre-registered at startup; the
/// per-request path touches only atomics.
struct ServeMetrics {
    /// Every request that got a response, whatever its status.
    requests: Counter,
    /// Jobs accepted through `POST /jobs`.
    submitted: Counter,
    /// Submissions bounced by the per-client quota.
    quota_rejections: Counter,
    /// Jobs restored from the journal at startup
    /// (`Server::start_recovered`).
    recovered_jobs: Counter,
    /// Jobs currently tracked by the job service (set at scrape time).
    jobs_tracked: Gauge,
    /// Responses by status class, indexed `[2xx, 3xx, 4xx, 5xx]`.
    responses: [Counter; 4],
    /// Request-handling latency per route, plus the interned trace
    /// label of the route name (0 when tracing is off).
    routes: Vec<(&'static str, Histogram, u16)>,
    /// The latency/label pair for requests no route matched.
    unmatched: (Histogram, u16),
}

impl ServeMetrics {
    fn new(registry: &MetricRegistry, trace: Option<&TraceBuffer>) -> Self {
        let route_hist = |name: &str| {
            registry.histogram_with(
                "quma_serve_request_seconds",
                "Wall-clock request handling latency by route",
                &[("route", name)],
            )
        };
        let label = |name: &str| trace.map_or(0, |t| t.intern(name));
        Self {
            requests: registry.counter(
                "quma_serve_requests_total",
                "HTTP requests answered, any status",
            ),
            submitted: registry.counter(
                "quma_serve_submitted_total",
                "Jobs accepted through POST /jobs",
            ),
            quota_rejections: registry.counter(
                "quma_serve_quota_rejections_total",
                "Submissions bounced by the per-client quota",
            ),
            recovered_jobs: registry.counter(
                "quma_serve_recovered_jobs_total",
                "Jobs restored from the journal at startup",
            ),
            jobs_tracked: registry.gauge(
                "quma_serve_jobs_tracked",
                "Jobs currently tracked by the serving registry",
            ),
            responses: ["2xx", "3xx", "4xx", "5xx"].map(|class| {
                registry.counter_with(
                    "quma_serve_responses_total",
                    "Responses by status class",
                    &[("class", class)],
                )
            }),
            routes: ROUTES
                .iter()
                .map(|r| (r.name, route_hist(r.name), label(r.name)))
                .collect(),
            unmatched: (route_hist("unmatched"), label("unmatched")),
        }
    }

    /// The latency histogram and trace label for a dispatched route
    /// name ("unmatched" for 404/405s).
    fn route(&self, name: &str) -> (&Histogram, u16) {
        self.routes
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, h, l)| (h, *l))
            .unwrap_or((&self.unmatched.0, self.unmatched.1))
    }
}

struct Shared {
    service: JobService,
    /// The unified metric registry (pool + journal + serve families).
    obs: MetricRegistry,
    /// The span-trace ring buffer, when the pool was built with
    /// `PoolConfig::with_trace`.
    trace: Option<TraceBuffer>,
    metrics: ServeMetrics,
    config: ServerConfig,
    shutdown: AtomicBool,
    /// When the server started (drives `uptime_ms`).
    started: Instant,
    /// Monotonic `/metrics` snapshot counter — pollers watch it reset
    /// to detect a restarted server behind a stable address.
    snapshot_seq: AtomicU64,
    /// Connection counter; each connection's requests trace under a
    /// distinct lane id.
    conn_seq: AtomicU64,
}

/// A running server. Dropping it (or calling [`Server::shutdown`]) stops
/// the acceptor, drains handler threads, and lets the pool drain its
/// queues.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl Server {
    /// Binds `127.0.0.1:0` (an OS-chosen port) and starts serving `pool`.
    pub fn start(pool: DevicePool, config: ServerConfig) -> std::io::Result<Server> {
        Self::start_inner(JobService::new(pool, config.quota), 0, config)
    }

    /// Starts a server over a pool rebuilt by
    /// [`DevicePool::recover`], pre-populating the job service so the
    /// lifecycle routes survive the restart: `GET /jobs/{id}` answers
    /// for every journaled job under its *original* id, finished results
    /// are served from the result log byte-identically to the
    /// pre-restart responses, cancelled jobs stay cancelled (their
    /// `DELETE` answers 409), and unfinished work resumes past its last
    /// durable checkpoint. Opaque (experiment) jobs are re-submitted
    /// through the same wire parser that built them originally.
    pub fn start_recovered(
        recovered: RecoveredPool,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let service = JobService::recover(recovered, config.quota);
        let recovered_jobs = service.len() as u64;
        Self::start_inner(service, recovered_jobs, config)
    }

    fn start_inner(
        service: JobService,
        recovered_jobs: u64,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let obs = service.pool().obs_registry();
        let trace = service.pool().trace_buffer();
        let metrics = ServeMetrics::new(&obs, trace.as_ref());
        metrics.recovered_jobs.add(recovered_jobs);
        let shared = Arc::new(Shared {
            service,
            obs,
            trace,
            metrics,
            config,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            snapshot_seq: AtomicU64::new(0),
            conn_seq: AtomicU64::new(0),
        });
        let handlers: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            thread::Builder::new()
                .name("quma-serve-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let shared = Arc::clone(&shared);
                        let handle = thread::Builder::new()
                            .name("quma-serve-conn".into())
                            .spawn(move || handle_connection(&shared, stream));
                        if let Ok(handle) = handle {
                            let mut live = handlers.lock().expect("handlers poisoned");
                            // Opportunistically reap finished handlers so
                            // long-lived servers do not accumulate joins.
                            live.retain(|h| !h.is_finished());
                            live.push(handle);
                        }
                    }
                })?
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            handlers,
        })
    }

    /// The bound address (connect and speak HTTP/1.1 to it).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A `http://…` base URL for the bound address.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stops accepting, drains connection handlers, and returns.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor's blocking `accept` with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handles = std::mem::take(&mut *self.handlers.lock().expect("handlers poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// How long a request may take to arrive once its first byte has: the
/// head and body are read under this one deadline.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

/// The socket read timeout: how often a waiting handler re-checks the
/// shutdown flag.
const SHUTDOWN_POLL: Duration = Duration::from_millis(100);

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// A connection's read side. Between requests a read timeout surfaces,
/// so the handler can poll for shutdown. While a request is being read
/// (`deadline` set) timeouts are retried, and any read at or past the
/// deadline, or after shutdown began, fails with `TimedOut` — so a
/// client trickling bytes is cut off too.
struct ConnReader<'a> {
    stream: TcpStream,
    deadline: Option<Instant>,
    shutdown: &'a AtomicBool,
}

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline || self.shutdown.load(Ordering::SeqCst) {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
            }
            match self.stream.read(buf) {
                Err(e) if is_timeout(&e) && self.deadline.is_some() => {}
                other => return other,
            }
        }
    }
}

/// Serves one connection until close, error, or shutdown.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(SHUTDOWN_POLL));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // HTTP spans trace in per-connection lanes, offset past the worker
    // lane ids so the two tiers never share a row in a trace viewer.
    let conn_tid = 10_000 + (shared.conn_seq.fetch_add(1, Ordering::Relaxed) % 40_000) as u32;
    let mut reader = BufReader::new(ConnReader {
        stream,
        deadline: None,
        shutdown: &shared.shutdown,
    });
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let problem = ProblemJson::shutting_down();
            let _ = write_response(&mut writer, &problem.into_response(), true);
            return;
        }
        // Idle until the next request's first byte, polling for shutdown.
        reader.get_mut().deadline = None;
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => continue,
            Err(_) => return,
        }
        reader.get_mut().deadline = Some(Instant::now() + REQUEST_DEADLINE);
        let request = match read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(request) => request,
            Err(HttpError::Eof) => return,
            Err(HttpError::Io(e)) if is_timeout(&e) => {
                let problem = if shared.shutdown.load(Ordering::SeqCst) {
                    ProblemJson::shutting_down()
                } else {
                    ProblemJson::request_timeout(format!(
                        "the request did not arrive within {} s",
                        REQUEST_DEADLINE.as_secs()
                    ))
                };
                let _ = write_response(&mut writer, &problem.into_response(), true);
                return;
            }
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                let problem = ProblemJson::payload_too_large(format!(
                    "declared body of {declared} bytes exceeds the {limit}-byte limit"
                ));
                let _ = write_response(&mut writer, &problem.into_response(), true);
                return;
            }
            Err(e) => {
                let problem = ProblemJson::bad_request(e.to_string());
                let _ = write_response(&mut writer, &problem.into_response(), true);
                return;
            }
        };
        let close = request.close;
        let started = Instant::now();
        let trace_start_ns = shared.trace.as_ref().map(|_| now_ns());
        let (response, route_name) = dispatch(shared, &request);
        let response = response.with_header("x-quma-api-version", API_VERSION.to_string());
        let m = &shared.metrics;
        m.requests.inc();
        if let Some(class) = (response.status / 100).checked_sub(2) {
            if let Some(counter) = m.responses.get(class as usize) {
                counter.inc();
            }
        }
        let (hist, label) = m.route(route_name);
        hist.record_duration(started.elapsed());
        if let (Some(trace), Some(start_ns)) = (&shared.trace, trace_start_ns) {
            trace.record(SpanEvent {
                kind: SpanKind::HttpRequest,
                label,
                trace: http_trace_id(&request, &response),
                tid: conn_tid,
                start_ns,
                end_ns: now_ns(),
                a: u64::from(response.status),
                b: 0,
            });
        }
        if write_response(&mut writer, &response, close).is_err() || close {
            return;
        }
    }
}

/// The job trace id an HTTP request span should join: the `{id}` path
/// capture for the lifecycle routes, or — for `POST /jobs` — the id the
/// `Location` header of the 201 announces. `0` (no job) otherwise.
fn http_trace_id(request: &Request, response: &Response) -> u64 {
    if let Some(rest) = request.path.strip_prefix("/jobs/") {
        let id = rest.split('/').next().unwrap_or("");
        if let Ok(id) = id.parse::<u64>() {
            return id;
        }
    }
    response
        .headers
        .iter()
        .find(|(name, _)| name == "location")
        .and_then(|(_, value)| value.strip_prefix("/jobs/"))
        .and_then(|id| id.parse::<u64>().ok())
        .unwrap_or(0)
}

/// Maps one request to its response — the routing table made executable.
/// The second element is the matched route's stable name (`"unmatched"`
/// for 404/405s), keying the per-route latency histogram.
fn dispatch(shared: &Shared, request: &Request) -> (Response, &'static str) {
    let (route, params) = match route(&request.method, &request.path) {
        RouteMatch::Matched { route, params } => (route, params),
        RouteMatch::WrongMethod(allowed) => {
            return (
                ProblemJson::method_not_allowed(&allowed).into_response(),
                "unmatched",
            )
        }
        RouteMatch::Unknown => {
            return (
                ProblemJson::not_found(format!("no route for {}", request.path)).into_response(),
                "unmatched",
            )
        }
    };
    let response = match route.name {
        "submit_job" => submit_job(shared, request),
        "list_jobs" => list_jobs(shared, request),
        "job_status" => with_id(&params, |id| shared.service.status(id)),
        "cancel_job" => with_id(&params, |id| shared.service.cancel(id)),
        "job_result" => with_id(&params, |id| shared.service.result(id)),
        "job_chunks" => match query_uint(request, "from", 0) {
            Ok(from) => with_id(&params, |id| shared.service.chunks(id, from)),
            Err(problem) => problem.into_response(),
        },
        "metrics" => metrics_response(shared, request),
        "trace" => trace_response(shared),
        other => ProblemJson::internal(format!("unrouted handler '{other}'")).into_response(),
    };
    (response, route.name)
}

/// Parses the `{id}` capture, calls the service, and renders the
/// document as a 200 (or the service error as its problem).
fn with_id(params: &[&str], call: impl FnOnce(JobId) -> Result<Json, ServiceError>) -> Response {
    let raw = params.first().copied().unwrap_or("");
    match raw.parse::<JobId>() {
        Ok(id) => match call(id) {
            Ok(doc) => Response::json(200, &doc),
            Err(e) => ProblemJson::from(e).into_response(),
        },
        Err(_) => {
            ProblemJson::bad_request(format!("job ids are integers, got '{raw}'")).into_response()
        }
    }
}

/// A non-negative integer query parameter, `default` when absent.
fn query_uint(request: &Request, name: &str, default: usize) -> Result<usize, ProblemJson> {
    match request.query_param(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            ProblemJson::validation(format!(
                "'{name}' must be a non-negative integer, got '{raw}'"
            ))
        }),
    }
}

/// `POST /jobs`: the service admits, parses, validates and submits.
fn submit_job(shared: &Shared, request: &Request) -> Response {
    let client = request.header("x-quma-client").unwrap_or("anonymous");
    match shared.service.submit(client, &request.body) {
        Ok((id, status)) => {
            shared.metrics.submitted.inc();
            Response::json(201, &status).with_header("location", format!("/jobs/{id}"))
        }
        Err(e) => {
            if matches!(e, ServiceError::QuotaExhausted { .. }) {
                shared.metrics.quota_rejections.inc();
            }
            ProblemJson::from(e).into_response()
        }
    }
}

/// `GET /jobs?limit=&offset=`.
fn list_jobs(shared: &Shared, request: &Request) -> Response {
    let bounds = query_uint(request, "limit", 50)
        .and_then(|limit| Ok((limit.min(1000), query_uint(request, "offset", 0)?)));
    match bounds {
        Ok((limit, offset)) => Response::json(200, &shared.service.list(limit, offset)),
        Err(problem) => problem.into_response(),
    }
}

/// `GET /metrics`, content-negotiated: Prometheus text exposition when
/// the client asks for it (`?format=prometheus`, or an `Accept` that
/// names `text/plain` without `application/json`), the JSON snapshot
/// otherwise. Both views read the same registry handles.
fn metrics_response(shared: &Shared, request: &Request) -> Response {
    shared.metrics.jobs_tracked.set(shared.service.len() as u64);
    let seq = shared.snapshot_seq.fetch_add(1, Ordering::Relaxed);
    if wants_prometheus(request) {
        Response::new(200)
            .with_header("content-type", "text/plain; version=0.0.4; charset=utf-8")
            .with_body(shared.obs.render_prometheus().into_bytes())
    } else {
        Response::json(200, &metrics_json(shared, seq))
    }
}

/// Whether a `/metrics` request asked for the Prometheus exposition.
fn wants_prometheus(request: &Request) -> bool {
    if let Some(format) = request.query_param("format") {
        return matches!(format, "prometheus" | "text");
    }
    match request.header("accept") {
        Some(accept) => {
            (accept.contains("text/plain") || accept.contains("openmetrics"))
                && !accept.contains("application/json")
        }
        None => false,
    }
}

/// A latency summary document from a histogram snapshot (nanoseconds).
fn hist_json(snap: &HistogramSnapshot) -> Json {
    Json::obj([
        ("count", Json::uint(snap.count)),
        ("p50_ns", Json::uint(snap.p50())),
        ("p90_ns", Json::uint(snap.p90())),
        ("p99_ns", Json::uint(snap.p99())),
        ("max_ns", Json::uint(snap.max)),
        ("mean_ns", Json::uint(snap.mean())),
    ])
}

/// The `/metrics` JSON document: pool statistics, serve counters, and
/// latency summaries, plus `uptime_ms` and the monotonic
/// `snapshot_seq` pollers use to detect restarts.
fn metrics_json(shared: &Shared, seq: u64) -> Json {
    let pool = shared.service.pool();
    let stats = pool.stats();
    let m = &shared.metrics;
    let routes = m
        .routes
        .iter()
        .map(|(name, hist, _)| {
            let Json::Obj(mut fields) = hist_json(&hist.snapshot()) else {
                unreachable!("hist_json builds an object");
            };
            fields.insert(0, ("route".to_string(), Json::str(*name)));
            Json::Obj(fields)
        })
        .collect();
    Json::obj([
        (
            "uptime_ms",
            Json::uint(u64::try_from(shared.started.elapsed().as_millis()).unwrap_or(u64::MAX)),
        ),
        ("snapshot_seq", Json::uint(seq)),
        (
            "pool",
            Json::obj([
                ("workers", Json::uint(stats.workers as u64)),
                ("submitted", Json::uint(stats.submitted)),
                ("rejected", Json::uint(stats.rejected)),
                ("completed", Json::uint(stats.completed)),
                ("failed", Json::uint(stats.failed)),
                ("cancelled", Json::uint(stats.cancelled)),
                ("high_completed", Json::uint(stats.high_completed)),
                ("cache_hits", Json::uint(stats.cache_hits)),
                ("cache_misses", Json::uint(stats.cache_misses)),
                ("warm_device_clones", Json::uint(stats.warm_device_clones)),
                ("cold_device_builds", Json::uint(stats.cold_device_builds)),
                ("warm_session_reuses", Json::uint(stats.warm_session_reuses)),
                ("executed_shots", Json::uint(stats.executed_shots)),
                ("recovered_jobs", Json::uint(stats.recovered_jobs)),
                ("max_queue_depth", Json::uint(stats.max_queue_depth as u64)),
            ]),
        ),
        (
            "journal",
            Json::obj([
                ("records_written", Json::uint(stats.journal_records_written)),
                ("bytes_written", Json::uint(stats.journal_bytes_written)),
                ("fsyncs", Json::uint(stats.journal_fsyncs)),
            ]),
        ),
        (
            "serve",
            Json::obj([
                ("requests", Json::uint(m.requests.get())),
                ("submitted", Json::uint(m.submitted.get())),
                ("responses_2xx", Json::uint(m.responses[0].get())),
                ("responses_3xx", Json::uint(m.responses[1].get())),
                ("responses_4xx", Json::uint(m.responses[2].get())),
                ("responses_5xx", Json::uint(m.responses[3].get())),
                ("quota_rejections", Json::uint(m.quota_rejections.get())),
                ("recovered_jobs", Json::uint(m.recovered_jobs.get())),
                ("jobs_tracked", Json::uint(shared.service.len() as u64)),
            ]),
        ),
        (
            "latency",
            Json::obj([
                ("queue_wait", hist_json(&pool.queue_wait_snapshot())),
                ("run", hist_json(&pool.run_time_snapshot())),
                ("routes", Json::Arr(routes)),
            ]),
        ),
        (
            "trace",
            Json::obj([
                ("enabled", Json::Bool(shared.trace.is_some())),
                (
                    "dropped_events",
                    Json::uint(shared.trace.as_ref().map_or(0, TraceBuffer::dropped_events)),
                ),
            ]),
        ),
    ])
}

/// `GET /trace`: the span ring buffer as Chrome trace-event JSON, or a
/// 404 problem when the pool was built without tracing.
fn trace_response(shared: &Shared) -> Response {
    match &shared.trace {
        Some(trace) => Response::new(200)
            .with_header("content-type", "application/json")
            .with_body(trace.export_chrome_json().into_bytes()),
        None => ProblemJson::not_found(
            "tracing is not enabled; build the pool with PoolConfig::with_trace",
        )
        .into_response(),
    }
}
