//! Serving the workloads: pool and server construction (cold start and
//! journal restart), and the closed-loop HTTP clients that drive them.
//!
//! Every client owns one keep-alive [`MiniClient`] connection and waits
//! for each job's result before submitting the next, as a calibration
//! loop does. Jobs are numbered by a shared ticket counter, so job
//! `ticket` of a phase is always the same job whichever client runs it.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use quma_journal::JournalConfig;
use quma_obs::trace::now_ns;
use quma_pool::prelude::{DevicePool, PoolConfig};
use quma_serve::prelude::{Json, MiniClient, Server, ServerConfig};

use crate::workload::{base_device, job_key, Backoff, Workload, BACKOFF_FACTOR};

/// Span-ring capacity of a traced pool.
pub const TRACE_CAPACITY: usize = 1 << 17;

/// Client threads and pool workers: one per core.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

pub fn pool_config(journal: Option<&Path>, traced: bool) -> PoolConfig {
    let mut config = PoolConfig::new(base_device())
        .with_workers(parallelism())
        .with_queue_depth(64);
    if let Some(dir) = journal {
        config = config.with_journal(JournalConfig::new(dir));
    }
    if traced {
        config = config.with_trace(TRACE_CAPACITY);
    }
    config
}

fn server_config() -> ServerConfig {
    // Closed-loop clients never exceed one job in flight each; a quota
    // would only add refusals the benchmark does not study.
    ServerConfig::new().without_quota()
}

/// Builds a pool and a server on an ephemeral loopback port.
pub fn start(journal: Option<&Path>, traced: bool) -> Result<Server, String> {
    let pool = DevicePool::new(pool_config(journal, traced)).map_err(|e| e.to_string())?;
    Server::start(pool, server_config()).map_err(|e| format!("server start: {e}"))
}

/// Rebuilds the pool from its journal and restarts the server over it.
pub fn restart(journal: &Path) -> Result<Server, String> {
    let recovered =
        DevicePool::recover(pool_config(Some(journal), false)).map_err(|e| e.to_string())?;
    Server::start_recovered(recovered, server_config()).map_err(|e| format!("restart: {e}"))
}

/// A benchmark-side span (Chrome `cat` "bench"), tied to a job by its id.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpan {
    pub name: &'static str,
    pub trace: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One job as a client saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub ticket: u64,
    /// The job's stream key: `Workload::job(key)` rebuilds it.
    pub key: u64,
    pub id: u64,
    pub start_ns: u64,
    pub latency_ns: u64,
    pub submit_rtt_ns: u64,
    pub polls: u32,
    pub result_bytes: usize,
    /// Digest of the parsed result, or why the job failed.
    pub outcome: Result<u64, String>,
    /// The raw result body, when the phase keeps bodies.
    pub body: Option<String>,
}

/// What one phase of closed-loop clients produced.
#[derive(Default)]
pub struct Phase {
    pub records: Vec<JobRecord>,
    pub result_rtts_ns: Vec<u64>,
    pub spans: Vec<BenchSpan>,
    pub wall: Duration,
}

impl Phase {
    pub fn ok(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| r.outcome.is_ok())
    }

    pub fn failures(&self) -> impl Iterator<Item = (&JobRecord, &String)> {
        self.records
            .iter()
            .filter_map(|r| r.outcome.as_ref().err().map(|e| (r, e)))
    }

    /// Appends a later phase's jobs, adding its wall time.
    pub fn absorb(&mut self, other: Phase) {
        self.records.extend(other.records);
        self.result_rtts_ns.extend(other.result_rtts_ns);
        self.spans.extend(other.spans);
        self.wall += other.wall;
    }
}

/// When a phase stops handing out tickets: after `jobs` tickets or once
/// `after` has passed, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub jobs: u64,
    pub after: Duration,
}

impl Stop {
    pub fn jobs(jobs: u64) -> Self {
        Self {
            jobs,
            after: Duration::MAX,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    pub workload: Workload,
    pub seed: u64,
    /// Phase number, mixed into every job key.
    pub phase: u64,
    pub backoff: Backoff,
    pub stop: Stop,
    pub traced: bool,
    pub keep_bodies: bool,
}

/// Runs one closed-loop client per core against `addr`.
pub fn run_phase(addr: std::net::SocketAddr, spec: &PhaseSpec) -> Result<Phase, String> {
    let clients = parallelism();
    let tickets = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(clients + 1));
    let mut handles = Vec::with_capacity(clients);
    for client in 0..clients {
        let tickets = Arc::clone(&tickets);
        let barrier = Arc::clone(&barrier);
        let spec = *spec;
        handles.push(std::thread::spawn(move || {
            let mut http = MiniClient::connect(addr, format!("bench-{client}"));
            let mut out = Phase::default();
            barrier.wait();
            let started = Instant::now();
            loop {
                if started.elapsed() >= spec.stop.after {
                    break;
                }
                let ticket = tickets.fetch_add(1, Ordering::Relaxed);
                if ticket >= spec.stop.jobs {
                    break;
                }
                let record = run_job(&mut http, &spec, ticket, client as u32, &mut out);
                out.records.push(record);
            }
            out
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    let mut phase = Phase::default();
    for handle in handles {
        let out = handle
            .join()
            .map_err(|_| "a client thread panicked".to_string())?;
        phase.records.extend(out.records);
        phase.result_rtts_ns.extend(out.result_rtts_ns);
        phase.spans.extend(out.spans);
    }
    phase.wall = t0.elapsed();
    phase.records.sort_by_key(|r| r.ticket);
    Ok(phase)
}

/// Submits job `ticket` of `spec` and polls its result with the
/// workload's backoff.
fn run_job(
    http: &mut MiniClient,
    spec: &PhaseSpec,
    ticket: u64,
    tid: u32,
    out: &mut Phase,
) -> JobRecord {
    let key = job_key(spec.seed, spec.phase, ticket);
    let doc = spec.workload.job(key).to_json();
    let backoff = spec.backoff;
    let traced = spec.traced;
    let start_ns = now_ns();
    let mut record = JobRecord {
        ticket,
        key,
        id: 0,
        start_ns,
        latency_ns: 0,
        submit_rtt_ns: 0,
        polls: 0,
        result_bytes: 0,
        outcome: Err(String::new()),
        body: None,
    };
    let mut spans = Vec::new();
    let mut span = |name, start_ns, end_ns| {
        if traced {
            spans.push(BenchSpan {
                name,
                trace: 0,
                tid,
                start_ns,
                end_ns,
            });
        }
    };
    let outcome = (|| -> Result<u64, String> {
        let submit = http
            .post_json("/jobs", &doc)
            .map_err(|e| format!("submit: {e}"))?;
        let submitted_ns = now_ns();
        record.submit_rtt_ns = submitted_ns - start_ns;
        span("post_jobs", start_ns, submitted_ns);
        if submit.status != 201 {
            return Err(format!(
                "submit answered {}: {}",
                submit.status,
                submit.text()
            ));
        }
        record.id = submit
            .json()
            .ok()
            .and_then(|d| d.get("id").and_then(Json::as_u64))
            .ok_or("submit response carries no id")?;
        let path = format!("/jobs/{}/result", record.id);
        let mut sleep_us = backoff.first_us;
        loop {
            let slept = now_ns();
            std::thread::sleep(Duration::from_micros(sleep_us));
            let poll_start = now_ns();
            span("backoff", slept, poll_start);
            let response = http.get(&path).map_err(|e| format!("poll: {e}"))?;
            let poll_end = now_ns();
            span("get_result", poll_start, poll_end);
            out.result_rtts_ns.push(poll_end - poll_start);
            record.polls += 1;
            match response.status {
                200 => {
                    let text = response.text();
                    let parsed = Json::parse(&text).map_err(|e| format!("result json: {e}"))?;
                    record.latency_ns = now_ns() - start_ns;
                    record.result_bytes = response.body.len();
                    if spec.keep_bodies {
                        record.body = Some(text);
                    }
                    return crate::workload::digest_served(&parsed);
                }
                409 => sleep_us = (sleep_us * BACKOFF_FACTOR).min(backoff.cap_us),
                other => return Err(format!("result answered {other}: {}", response.text())),
            }
        }
    })();
    record.outcome = outcome;
    let end_ns = start_ns + record.latency_ns;
    span("job", start_ns, end_ns.max(start_ns));
    for mut s in spans {
        s.trace = record.id;
        out.spans.push(s);
    }
    record
}

/// The poll schedule of a cold start's single job: fine enough that the
/// set-up time is not quantised by the workload's poll grid.
const SETUP_BACKOFF: Backoff = Backoff {
    first_us: 20,
    cap_us: 100,
};

/// Cold start: pool and server construction through the first parsed
/// result of job 0 of `phase`. Returns the seconds it took.
pub fn cold_start(workload: Workload, seed: u64, phase: u64) -> Result<f64, String> {
    let t0 = Instant::now();
    let server = start(None, false)?;
    let spec = PhaseSpec {
        workload,
        seed,
        phase,
        backoff: SETUP_BACKOFF,
        stop: Stop::jobs(1),
        traced: false,
        keep_bodies: false,
    };
    let mut http = MiniClient::connect(server.local_addr(), "bench-setup");
    let record = run_job(&mut http, &spec, 0, 0, &mut Phase::default());
    let elapsed = t0.elapsed().as_secs_f64();
    server.shutdown();
    record.outcome.map(|_| elapsed)
}

/// A journal restart: recovery plus the server restart, through the
/// first recovered result (`GET /jobs/{first_id}/result`). Returns the
/// new server and the seconds it took.
pub fn timed_restart(journal: &Path, first_id: u64) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let server = restart(journal)?;
    let mut http = MiniClient::connect(server.local_addr(), "bench-setup");
    let response = http
        .get(&format!("/jobs/{first_id}/result"))
        .map_err(|e| format!("recovered result: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "recovered job {first_id} answered {}: {}",
            response.status,
            response.text()
        ));
    }
    Json::parse(&response.text()).map_err(|e| format!("recovered result json: {e}"))?;
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Fetches `GET path` and returns the body, failing on a non-200.
pub fn get_text(
    addr: std::net::SocketAddr,
    path: &str,
    accept: Option<&str>,
) -> Result<String, String> {
    let mut http = MiniClient::connect(addr, "bench-scrape");
    let response = match accept {
        Some(accept) => http.get_accept(path, accept),
        None => http.get(path),
    }
    .map_err(|e| format!("GET {path}: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET {path} answered {}", response.status));
    }
    Ok(response.text())
}

/// Compares every recovered body against the body served before the
/// restart; returns one line per mismatch.
pub fn recovered_mismatches(addr: std::net::SocketAddr, served: &[(u64, String)]) -> Vec<String> {
    let mut http = MiniClient::connect(addr, "bench-verify");
    served
        .iter()
        .filter_map(|(id, before)| {
            let after = match http.get(&format!("/jobs/{id}/result")) {
                Ok(r) if r.status == 200 => r.text(),
                Ok(r) => return Some(format!("job {id}: recovered result answered {}", r.status)),
                Err(e) => return Some(format!("job {id}: {e}")),
            };
            body_mismatch(*id, before, &after)
        })
        .collect()
}

/// `Some(reason)` when a recovered body differs from the served one.
pub fn body_mismatch(id: u64, before: &str, after: &str) -> Option<String> {
    (before != after).then(|| {
        let at = before
            .bytes()
            .zip(after.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(before.len().min(after.len()));
        format!("job {id}: recovered body differs from the served one at byte {at}")
    })
}
