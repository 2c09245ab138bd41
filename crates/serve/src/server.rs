//! The server: a thread-per-connection HTTP front end over a
//! [`DevicePool`].
//!
//! One acceptor thread hands each connection to its own handler thread;
//! handlers speak keep-alive HTTP/1.1 with short read timeouts so a
//! shutdown request drains promptly, and read each request under one
//! fixed deadline so a stalled client gets a 408 instead of a hang. All
//! state a handler touches — the pool, the job registry, the quota
//! ledger, the serve counters — is shared behind one `Arc`, so the
//! dispatch function is a pure `Request -> Response` map plus those
//! shared effects.

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::http::{read_request, write_response, HttpError, Request, Response};
use crate::json::Json;
use crate::problem::ProblemJson;
use crate::quota::{Quota, QuotaLedger};
use crate::registry::{RecoveredSeed, Registry};
use crate::router::{route, RouteMatch, ROUTES};
use crate::wire;
use quma_obs::trace::{now_ns, SpanEvent, SpanKind, TraceBuffer};
use quma_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry as MetricRegistry};
use quma_pool::prelude::{JobId, JobOutput, ShotChunk, SubmitError};
use quma_pool::{DevicePool, JobSpec, RecoveredPool, RecoveredState};

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
    /// Seconds a client should wait after a `queue_full` rejection.
    pub queue_retry_after: u64,
}

impl ServerConfig {
    /// Defaults: 1 MiB bodies, the default [`Quota`], retry after 1 s.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            max_body_bytes: 1024 * 1024,
            quota: Some(Quota::new()),
            queue_retry_after: 1,
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
    /// Jobs currently tracked by the registry (set at scrape time).
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
    pool: DevicePool,
    registry: Registry,
    /// The unified metric registry (pool + journal + serve families).
    obs: MetricRegistry,
    /// The span-trace ring buffer, when the pool was built with
    /// `PoolConfig::with_trace`.
    trace: Option<TraceBuffer>,
    metrics: ServeMetrics,
    ledger: Option<QuotaLedger>,
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
        Self::start_inner(pool, Registry::new(), 0, config)
    }

    /// Starts a server over a pool rebuilt by
    /// [`DevicePool::recover`], pre-populating the job registry so the
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
        let RecoveredPool { pool, jobs } = recovered;
        let registry = Registry::new();
        let count = jobs.len() as u64;
        for job in jobs {
            let kind = job.spec.kind();
            let experiment = recovered_experiment(&job.spec);
            let seed = match job.state {
                RecoveredState::Done(output) => RecoveredSeed::Done {
                    chunks: recovered_chunks(&job.spec, &output),
                    result: wire::render_for_kind(kind)(output),
                },
                RecoveredState::Resumed(handle) => RecoveredSeed::Live {
                    handle,
                    render: wire::render_for_kind(kind),
                },
                RecoveredState::Cancelled => RecoveredSeed::Cancelled,
                RecoveredState::Failed(detail) => RecoveredSeed::Failed(detail),
                RecoveredState::NeedsResubmit { payload, .. } => {
                    match resubmit_opaque(&pool, job.id, &payload, &job.client) {
                        Ok(seed) => seed,
                        Err(detail) => RecoveredSeed::Failed(detail),
                    }
                }
            };
            registry.insert_recovered(job.id, kind, experiment, job.client, seed);
        }
        let server = Self::start_inner(pool, registry, count, config)?;
        Ok(server)
    }

    fn start_inner(
        pool: DevicePool,
        registry: Registry,
        recovered_jobs: u64,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let obs = pool.obs_registry();
        let trace = pool.trace_buffer();
        let metrics = ServeMetrics::new(&obs, trace.as_ref());
        metrics.recovered_jobs.add(recovered_jobs);
        let shared = Arc::new(Shared {
            pool,
            registry,
            obs,
            trace,
            metrics,
            ledger: config.quota.map(Quota::ledger),
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

/// The experiment name a recovered opaque job was journaled under.
fn recovered_experiment(spec: &JobSpec) -> Option<&'static str> {
    match spec {
        JobSpec::Opaque { tag, .. } => match tag.as_str() {
            "allxy" => Some("allxy"),
            "qec" => Some("qec"),
            _ => None,
        },
        _ => None,
    }
}

/// Re-renders the chunk documents of a recovered chunked shot batch, so
/// `GET /jobs/{id}/chunks` answers across the restart exactly as it did
/// before it (chunk boundaries come from the journaled spec; contents
/// come from the result log).
fn recovered_chunks(spec: &JobSpec, output: &JobOutput) -> Vec<Json> {
    let (JobSpec::Shots { chunk, .. }, JobOutput::Batch(batch)) = (spec, output) else {
        return Vec::new();
    };
    if *chunk == 0 {
        return Vec::new();
    }
    let size = usize::try_from(*chunk).unwrap_or(usize::MAX).max(1);
    batch
        .shots
        .chunks(size)
        .enumerate()
        .map(|(i, reports)| {
            wire::encode_chunk(&ShotChunk {
                first_shot: (i * size) as u64,
                reports: reports.to_vec(),
            })
        })
        .collect()
}

/// Rebuilds an opaque (experiment) job from its journaled submission
/// document and re-enters it into the pool under its original id.
fn resubmit_opaque(
    pool: &DevicePool,
    id: JobId,
    payload: &[u8],
    client: &str,
) -> Result<RecoveredSeed, String> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| "journaled submission payload is not UTF-8".to_string())?;
    let doc =
        Json::parse(text).map_err(|e| format!("journaled submission failed to parse: {e}"))?;
    let submission = wire::parse_submission(&doc, pool)
        .map_err(|p| format!("journaled submission failed to validate: {}", p.detail))?;
    let handle = pool
        .resubmit_recovered(id, submission.job.with_client(client))
        .map_err(|e| format!("recovered job re-enqueue failed: {e}"))?;
    Ok(RecoveredSeed::Live {
        handle,
        render: submission.render,
    })
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
        "job_status" => with_id(&params, |id| {
            shared
                .registry
                .status(id)
                .map(|doc| Response::json(200, &doc))
        }),
        "cancel_job" => with_id(&params, |id| {
            shared
                .registry
                .cancel(id)
                .map(|doc| Response::json(200, &doc))
        }),
        "job_result" => with_id(&params, |id| {
            shared
                .registry
                .result(id)
                .map(|doc| Response::json(200, &doc))
        }),
        "job_chunks" => {
            let from = match request.query_param("from") {
                None => 0,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(from) => from,
                    Err(_) => {
                        return (
                            ProblemJson::validation(format!(
                                "'from' must be a non-negative integer, got '{raw}'"
                            ))
                            .into_response(),
                            route.name,
                        )
                    }
                },
            };
            with_id(&params, |id| {
                shared
                    .registry
                    .chunks(id, from)
                    .map(|doc| Response::json(200, &doc))
            })
        }
        "metrics" => metrics_response(shared, request),
        "trace" => trace_response(shared),
        other => ProblemJson::internal(format!("unrouted handler '{other}'")).into_response(),
    };
    (response, route.name)
}

/// Parses the `{id}` capture and runs `f`, mapping problems to responses.
fn with_id(params: &[&str], f: impl FnOnce(JobId) -> Result<Response, ProblemJson>) -> Response {
    let raw = params.first().copied().unwrap_or("");
    match raw.parse::<JobId>() {
        Ok(id) => f(id).unwrap_or_else(ProblemJson::into_response),
        Err(_) => {
            ProblemJson::bad_request(format!("job ids are integers, got '{raw}'")).into_response()
        }
    }
}

/// `POST /jobs`: quota check, body parse, validation, pool submit.
fn submit_job(shared: &Shared, request: &Request) -> Response {
    let client = request
        .header("x-quma-client")
        .unwrap_or("anonymous")
        .to_string();
    if let Some(ledger) = &shared.ledger {
        if let Err(retry_after) = ledger.admit(&client) {
            shared.metrics.quota_rejections.inc();
            return ProblemJson::quota_exhausted(
                format!("client '{client}' has spent its submission quota"),
                retry_after,
            )
            .with_context("client", Json::str(client))
            .into_response();
        }
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => return ProblemJson::bad_request("request body is not UTF-8").into_response(),
    };
    let doc = match Json::parse(body) {
        Ok(doc) => doc,
        Err(e) => {
            return ProblemJson::bad_request(format!("body is not valid JSON: {e}")).into_response()
        }
    };
    let submission = match wire::parse_submission(&doc, &shared.pool) {
        Ok(submission) => submission,
        Err(problem) => return problem.into_response(),
    };
    // Tag the job with its client so a journaled submission record (and
    // any recovery of it) carries the same attribution the registry does.
    let handle = match shared
        .pool
        .submit(submission.job.with_client(client.clone()))
    {
        Ok(handle) => handle,
        Err(SubmitError::QueueFull { priority, depth }) => {
            return ProblemJson::queue_full(
                format!("the {priority:?}-priority queue is at its bound of {depth}"),
                shared.config.queue_retry_after,
            )
            .with_context("depth", Json::Int(depth.min(i64::MAX as usize) as i64))
            .into_response()
        }
        Err(SubmitError::ShutDown) => return ProblemJson::shutting_down().into_response(),
        Err(SubmitError::InvalidJob(e)) => {
            return ProblemJson::validation(format!("job rejected at submit: {e}")).into_response()
        }
    };
    shared.metrics.submitted.inc();
    let id = handle.id();
    let status = shared.registry.insert(
        handle,
        submission.kind,
        submission.experiment,
        client,
        submission.render,
    );
    Response::json(201, &status).with_header("location", format!("/jobs/{id}"))
}

/// `GET /jobs?limit=&offset=`.
fn list_jobs(shared: &Shared, request: &Request) -> Response {
    let parse_bound = |name: &str, default: usize| -> Result<usize, ProblemJson> {
        match request.query_param(name) {
            None => Ok(default),
            Some(raw) => raw.parse::<usize>().map_err(|_| {
                ProblemJson::validation(format!(
                    "'{name}' must be a non-negative integer, got '{raw}'"
                ))
            }),
        }
    };
    let limit = match parse_bound("limit", 50) {
        Ok(limit) => limit.min(1000),
        Err(problem) => return problem.into_response(),
    };
    let offset = match parse_bound("offset", 0) {
        Ok(offset) => offset,
        Err(problem) => return problem.into_response(),
    };
    Response::json(200, &shared.registry.list(limit, offset))
}

/// `GET /metrics`, content-negotiated: Prometheus text exposition when
/// the client asks for it (`?format=prometheus`, or an `Accept` that
/// names `text/plain` without `application/json`), the JSON snapshot
/// otherwise. Both views read the same registry handles.
fn metrics_response(shared: &Shared, request: &Request) -> Response {
    shared
        .metrics
        .jobs_tracked
        .set(shared.registry.len() as u64);
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

/// A saturating `u64 → i64` cast for JSON integers.
fn int(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// A latency summary document from a histogram snapshot (nanoseconds).
fn hist_json(snap: &HistogramSnapshot) -> Json {
    Json::obj([
        ("count", int(snap.count)),
        ("p50_ns", int(snap.p50())),
        ("p90_ns", int(snap.p90())),
        ("p99_ns", int(snap.p99())),
        ("max_ns", int(snap.max)),
        ("mean_ns", int(snap.mean())),
    ])
}

/// The `/metrics` JSON document: pool statistics, serve counters, and
/// latency summaries, plus `uptime_ms` and the monotonic
/// `snapshot_seq` pollers use to detect restarts.
fn metrics_json(shared: &Shared, seq: u64) -> Json {
    let stats = shared.pool.stats();
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
        ("uptime_ms", {
            let ms = shared.started.elapsed().as_millis();
            Json::Int(i64::try_from(ms).unwrap_or(i64::MAX))
        }),
        ("snapshot_seq", int(seq)),
        (
            "pool",
            Json::obj([
                ("workers", int(stats.workers as u64)),
                ("submitted", int(stats.submitted)),
                ("rejected", int(stats.rejected)),
                ("completed", int(stats.completed)),
                ("failed", int(stats.failed)),
                ("cancelled", int(stats.cancelled)),
                ("high_completed", int(stats.high_completed)),
                ("cache_hits", int(stats.cache_hits)),
                ("cache_misses", int(stats.cache_misses)),
                ("warm_device_clones", int(stats.warm_device_clones)),
                ("cold_device_builds", int(stats.cold_device_builds)),
                ("warm_session_reuses", int(stats.warm_session_reuses)),
                ("executed_shots", int(stats.executed_shots)),
                ("recovered_jobs", int(stats.recovered_jobs)),
                ("max_queue_depth", int(stats.max_queue_depth as u64)),
            ]),
        ),
        (
            "journal",
            Json::obj([
                ("records_written", int(stats.journal_records_written)),
                ("bytes_written", int(stats.journal_bytes_written)),
                ("fsyncs", int(stats.journal_fsyncs)),
            ]),
        ),
        (
            "serve",
            Json::obj([
                ("requests", int(m.requests.get())),
                ("submitted", int(m.submitted.get())),
                ("responses_2xx", int(m.responses[0].get())),
                ("responses_3xx", int(m.responses[1].get())),
                ("responses_4xx", int(m.responses[2].get())),
                ("responses_5xx", int(m.responses[3].get())),
                ("quota_rejections", int(m.quota_rejections.get())),
                ("recovered_jobs", int(m.recovered_jobs.get())),
                ("jobs_tracked", int(shared.registry.len() as u64)),
            ]),
        ),
        (
            "latency",
            Json::obj([
                ("queue_wait", hist_json(&shared.pool.queue_wait_snapshot())),
                ("run", hist_json(&shared.pool.run_time_snapshot())),
                ("routes", Json::Arr(routes)),
            ]),
        ),
        (
            "trace",
            Json::obj([
                ("enabled", Json::Bool(shared.trace.is_some())),
                (
                    "dropped_events",
                    int(shared.trace.as_ref().map_or(0, TraceBuffer::dropped_events)),
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
