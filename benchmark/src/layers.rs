//! `--trace 1`: the per-layer metrics, the sum-of-layers ledger, and the
//! merged Chrome trace.
//!
//! The run measures an untraced phase and then a traced phase (a pool
//! built with `PoolConfig::with_trace`) of the same workload and seed,
//! each for half of `--seconds`. Layer numbers come from outside the
//! program: the client's own timings, the server's `/metrics` JSON and
//! Prometheus exports, `GET /trace`, and replays that call each layer's
//! public API directly (`Session`, `DevicePool::submit`/`wait`,
//! `QuantumChip::measure`, the assembler, the QEC compiler). Layers a
//! workload does not exercise report 0.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use quma_core::prelude::{DeviceConfig, RunReport, Session};
use quma_experiments::qec;
use quma_isa::asm::Assembler;
use quma_pool::prelude::DevicePool;
use quma_qsim::prelude::QuantumChip;
use quma_serve::prelude::Json;

use crate::driver::{self, BenchSpan, Phase};
use crate::stats::{self, json_u64, median, prom_quantile, quantile};
use crate::workload::{self, job_key, JobDoc, Replayer, Workload, GATE_PULSES, T1_SOURCE};
use crate::{check_jobs, check_replays, fresh_server, measure, out_dir, prepare, self_check_body};
use crate::{Gate, Metric, Outcome, TempDir};

const PHASE_UNTRACED: u64 = 10;
const PHASE_TRACED: u64 = 11;
const PHASE_POOLED: u64 = 12;

/// Wall time each timing probe repeats for.
const PROBE_BUDGET: Duration = Duration::from_millis(200);

/// The readout window of the quickstart segment's `MPG {q0}, 300`.
const READOUT_WINDOW_S: f64 = 1.5e-6;

struct Metrics(Vec<Metric>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }
}

pub fn traced_run(w: Workload, seed: u64, seconds: u64, tmp: &TempDir) -> Result<Outcome, String> {
    let mut gate = Gate::default();
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);

    // Untraced phase: client-side serving costs and the /metrics views.
    let prepared = prepare(w, seed, tmp, &mut gate)?;
    let server = match prepared.server {
        Some(server) => server,
        None => fresh_server(w, seed, tmp, PHASE_UNTRACED, false, &mut gate)?.0,
    };
    let addr = server.local_addr();
    let before = scrape(addr)?;
    let untraced = measure(addr, w, seed, half, false, PHASE_UNTRACED)?;
    let after = scrape(addr)?;
    check_jobs(&mut gate, "untraced", &untraced);
    self_check_body(&mut gate, addr, &untraced)?;
    server.shutdown();
    let done: Vec<_> = untraced.ok().collect();
    let replayed = check_replays(&mut gate, w, &done)?;

    // Traced phase on a fresh traced pool.
    let (server, _) = fresh_server(w, seed, tmp, PHASE_TRACED, true, &mut gate)?;
    let taddr = server.local_addr();
    let traced = measure(taddr, w, seed, half, true, PHASE_TRACED)?;
    check_jobs(&mut gate, "traced", &traced);
    let traced_metrics = Json::parse(&driver::get_text(taddr, "/metrics", None)?)
        .map_err(|e| format!("/metrics json: {e}"))?;
    let trace_doc = Json::parse(&driver::get_text(taddr, "/trace", None)?)
        .map_err(|e| format!("/trace json: {e}"))?;
    server.shutdown();
    let server_events = trace_doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("/trace has no traceEvents")?;
    let durations = span_durations_us(server_events, &traced);
    let span_q = |cat: &str, name: &str, q: f64| {
        durations
            .get(&(cat.to_string(), name.to_string()))
            .map_or(0.0, |d| quantile(d, q))
    };

    let mut m = Metrics(Vec::new());
    let served_p50_us = stats::median(&latencies_us(&untraced));
    let jobs = untraced.ok().count() as f64;

    // serve
    let submit_rtts: Vec<f64> = untraced
        .ok()
        .map(|r| r.submit_rtt_ns as f64 / 1e3)
        .collect();
    let result_rtts: Vec<f64> = untraced
        .result_rtts_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    m.push("serve.submit_rtt_us_p50", median(&submit_rtts), "us");
    m.push("serve.result_rtt_us_p50", median(&result_rtts), "us");
    m.push(
        "serve.submit_handler_us_p50",
        span_q("serve", "submit_job", 0.5),
        "us",
    );
    m.push(
        "serve.result_handler_us_p50",
        span_q("serve", "job_result", 0.5),
        "us",
    );
    m.push(
        "serve.polls_per_job",
        untraced.ok().map(|r| f64::from(r.polls)).sum::<f64>() / jobs,
        "count",
    );
    m.push(
        "serve.result_bytes_per_job",
        untraced.ok().map(|r| r.result_bytes as f64).sum::<f64>() / jobs,
        "B",
    );
    let pooled = pooled_latencies_us(w, seed, tmp, (w.warmup_jobs() as u64).min(w.phase_jobs()))?;
    let pooled_p50_us = median(&pooled);
    m.push("serve.tax_us_per_job", served_p50_us - pooled_p50_us, "us");

    // pool
    let delta = |path: &[&str]| {
        json_u64(&after.json, path).saturating_sub(json_u64(&before.json, path)) as f64
    };
    m.push(
        "pool.queue_wait_us_p50",
        span_q("pool", "queued", 0.5),
        "us",
    );
    m.push(
        "pool.queue_wait_us_p90",
        span_q("pool", "queued", 0.9),
        "us",
    );
    m.push("pool.run_us_p50", span_q("pool", "run", 0.5), "us");
    let job = w.job(job_key(seed, PHASE_UNTRACED, 0));
    let probe = CoreProbe::run(&job, &replayed)?;
    m.push("pool.tax_us_per_job", pooled_p50_us - probe.job_us, "us");
    let hits = delta(&["pool", "cache_hits"]);
    let misses = delta(&["pool", "cache_misses"]);
    m.push(
        "pool.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    let completed = delta(&["pool", "completed"]).max(1.0);
    m.push(
        "pool.warm_reuse_ratio",
        delta(&["pool", "warm_session_reuses"]) / completed,
        "ratio",
    );

    // journal
    if w.journaled() {
        m.push(
            "journal.records_per_job",
            delta(&["journal", "records_written"]) / completed,
            "count",
        );
        m.push(
            "journal.bytes_per_job",
            delta(&["journal", "bytes_written"]) / completed,
            "B",
        );
        m.push(
            "journal.fsyncs_per_job",
            delta(&["journal", "fsyncs"]) / completed,
            "count",
        );
        m.push(
            "journal.append_us_p50",
            prom_quantile(&after.prom, "quma_journal_append_seconds", 0.5) * 1e6,
            "us",
        );
        m.push(
            "journal.fsync_us_p50",
            prom_quantile(&after.prom, "quma_journal_fsync_seconds", 0.5) * 1e6,
            "us",
        );
        m.push(
            "journal.recover_mb_per_s",
            prepared.journal_bytes as f64 / 1e6 / median(&prepared.setup_s),
            "MB/s",
        );
    } else {
        for (name, unit) in [
            ("journal.records_per_job", "count"),
            ("journal.bytes_per_job", "B"),
            ("journal.fsyncs_per_job", "count"),
            ("journal.append_us_p50", "us"),
            ("journal.fsync_us_p50", "us"),
            ("journal.recover_mb_per_s", "MB/s"),
        ] {
            m.push(name, 0.0, unit);
        }
    }

    // core
    m.push("core.shot_us", probe.shot_us, "us");
    m.push("core.shot_floor_us", probe.floor_us, "us");
    m.push(
        "core.host_ns_per_insn",
        probe.shot_us * 1e3 / probe.insns_per_shot,
        "ns",
    );
    m.push("core.insns_per_shot", probe.insns_per_shot, "count");
    m.push("core.sim_cycles_per_shot", probe.cycles_per_shot, "count");
    m.push("core.events_per_shot", probe.events_per_shot, "count");
    m.push("core.timing_underruns", probe.underruns, "count/shot");

    // qsim / signal
    let mut chip = QuantumChip::paper_device(1, seed);
    let mut at = 0.0;
    let measure_us = time_per_call(|| {
        std::hint::black_box(chip.measure(0, at, READOUT_WINDOW_S));
        at += 2.0 * READOUT_WINDOW_S;
    }) * 1e6;
    m.push("qsim.measure_us", measure_us, "us");
    m.push("qsim.pulse_us", pulse_us(w)?, "us");
    m.push(
        "qsim.readout_share",
        (probe.measurements_per_shot * measure_us / probe.shot_us).min(1.0),
        "ratio",
    );

    // isa
    let assemble_us = match source_of(w, seed) {
        Some(source) => {
            time_per_call(|| {
                std::hint::black_box(Assembler::new().assemble(&source).ok());
            }) * 1e6
        }
        None => 0.0,
    };
    m.push("isa.assemble_us", assemble_us, "us");

    // compiler / experiments
    let (compile_us, qec_job_ms) = match &job {
        JobDoc::Qec(cfg) => (
            time_per_call(|| {
                std::hint::black_box(qec::code_for(cfg).compile());
            }) * 1e6,
            probe.job_us / 1e3,
        ),
        _ => (0.0, 0.0),
    };
    m.push("compiler.qec_compile_us", compile_us, "us");
    m.push("experiments.qec_job_ms", qec_job_ms, "ms");

    // obs
    let untraced_rate = jobs / untraced.wall.as_secs_f64();
    let traced_rate = traced.ok().count() as f64 / traced.wall.as_secs_f64();
    let overhead = traced_rate / untraced_rate;
    m.push("obs.trace_overhead_ratio", overhead, "ratio");
    m.push(
        "obs.dropped_events",
        json_u64(&traced_metrics, &["trace", "dropped_events"]) as f64,
        "count",
    );

    // the ledger
    let ledger = Ledger::build(&traced, server_events);
    ledger.print(w, overhead);
    m.push("layers.serve_us_per_job", ledger.mean(Layer::Serve), "us");
    m.push("layers.pool_us_per_job", ledger.mean(Layer::Pool), "us");
    m.push(
        "layers.journal_us_per_job",
        ledger.mean(Layer::Journal),
        "us",
    );
    m.push("layers.core_us_per_job", ledger.mean(Layer::Core), "us");
    m.push("layers.sum_us_per_job", ledger.layer_sum(), "us");
    m.push("layers.job_us", ledger.job_mean(), "us");
    m.push(
        "layers.leftover_us_per_job",
        ledger.mean(Layer::Leftover),
        "us",
    );
    if ledger.jobs == 0 {
        gate.fail("trace", "no traced job had a complete span set");
    }
    write_chrome_trace(w, server_events, &traced.spans)?;

    println!(
        "-- per-layer ({} untraced jobs, {} traced jobs) --",
        untraced.ok().count(),
        traced.ok().count()
    );
    for metric in &m.0 {
        println!("{:<30} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    Ok(Outcome {
        attempted: (untraced.records.len() + traced.records.len()) as u64,
        gate,
        metrics: m.0,
    })
}

/// Durations in µs of the server spans of the traced phase's jobs, by
/// `(category, name)`. Exact, where the `/metrics` JSON percentiles are
/// histogram bucket bounds that repeat from run to run.
fn span_durations_us(events: &[Json], traced: &Phase) -> HashMap<(String, String), Vec<f64>> {
    let ids: HashSet<u64> = traced.ok().map(|r| r.id).collect();
    let mut out: HashMap<(String, String), Vec<f64>> = HashMap::new();
    for e in events {
        let (Some(cat), Some(name), Some(dur), Some(trace)) = (
            e.get("cat").and_then(Json::as_str),
            e.get("name").and_then(Json::as_str),
            e.get("dur").and_then(Json::as_f64),
            e.get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_u64),
        ) else {
            continue;
        };
        if ids.contains(&trace) {
            out.entry((cat.to_string(), name.to_string()))
                .or_default()
                .push(dur);
        }
    }
    out
}

struct Scrape {
    json: Json,
    prom: String,
}

fn scrape(addr: std::net::SocketAddr) -> Result<Scrape, String> {
    Ok(Scrape {
        json: Json::parse(&driver::get_text(addr, "/metrics", None)?)
            .map_err(|e| format!("/metrics json: {e}"))?,
        prom: driver::get_text(addr, "/metrics", Some("text/plain"))?,
    })
}

fn latencies_us(phase: &Phase) -> Vec<f64> {
    phase.ok().map(|r| r.latency_ns as f64 / 1e3).collect()
}

/// Median per-call seconds of `f`, called repeatedly for
/// [`PROBE_BUDGET`] (at least five calls).
fn time_per_call(mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || started.elapsed() < PROBE_BUDGET {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// The same jobs through `DevicePool::submit`/`wait` with no HTTP: one
/// closed-loop thread per core, `jobs` jobs after the workload's re-warm-up
/// (a journaled pool thus stays within one journal). Returns each job's
/// latency in µs.
fn pooled_latencies_us(
    w: Workload,
    seed: u64,
    tmp: &TempDir,
    jobs: u64,
) -> Result<Vec<f64>, String> {
    let journal = tmp.path().join("journal-pooled");
    let pool = DevicePool::new(driver::pool_config(
        w.journaled().then_some(journal.as_path()),
        false,
    ))
    .map_err(|e| e.to_string())?;
    let warmup = w.rewarm_jobs();
    let tickets = AtomicU64::new(0);
    let results: Vec<Result<Vec<f64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..driver::parallelism())
            .map(|_| {
                scope.spawn(|| {
                    let mut latencies = Vec::new();
                    loop {
                        let ticket = tickets.fetch_add(1, Ordering::Relaxed);
                        if ticket >= warmup + jobs {
                            return Ok(latencies);
                        }
                        let doc = w.job(job_key(seed, PHASE_POOLED, ticket));
                        let t = Instant::now();
                        let handle = pool
                            .submit(doc.to_pool_job(&pool)?)
                            .map_err(|e| e.to_string())?;
                        handle.wait().map_err(|e| e.to_string())?;
                        if ticket >= warmup {
                            latencies.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("pooled replay thread panicked".into()))
            })
            .collect()
    });
    pool.shutdown();
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}

/// Engine timings and simulated statistics of the workload's program.
struct CoreProbe {
    /// One whole job run directly: `Session` replay, or the harness
    /// for QEC.
    job_us: f64,
    shot_us: f64,
    floor_us: f64,
    insns_per_shot: f64,
    cycles_per_shot: f64,
    events_per_shot: f64,
    measurements_per_shot: f64,
    underruns: f64,
}

impl CoreProbe {
    /// Times `job` run directly (a `Session` replay, or the experiments
    /// harness for QEC). `reports` are the shots the digest check
    /// replayed; their simulated statistics depend only on the seed.
    fn run(job: &JobDoc, reports: &[RunReport]) -> Result<Self, String> {
        let per_shot = |f: fn(&RunReport) -> u64| {
            reports.iter().map(|r| f(r) as f64).sum::<f64>() / reports.len().max(1) as f64
        };
        let mut replayer = Replayer::new()?;
        let mut failure = None;
        let job_us = time_per_call(|| {
            if let Err(e) = replayer.replay(job) {
                failure = Some(e);
            }
        }) * 1e6;
        if let Some(e) = failure {
            return Err(e);
        }
        let (shot_us, device) = match job {
            JobDoc::Qec(cfg) => {
                let mut samples = Vec::new();
                let started = Instant::now();
                while samples.len() < 3 || started.elapsed() < PROBE_BUDGET {
                    samples.push(workload::qec_session_reports(cfg)?.1 / cfg.shots as f64);
                }
                (median(&samples) * 1e6, qec::device_config(cfg))
            }
            _ => (job_us / job.shots() as f64, workload::base_device()),
        };
        Ok(Self {
            job_us,
            shot_us,
            floor_us: session_shot_seconds(device, "halt\n")? * 1e6,
            insns_per_shot: per_shot(|r| r.stats.exec.retired),
            cycles_per_shot: per_shot(|r| r.stats.host_cycles),
            events_per_shot: per_shot(|r| r.stats.timing.events_fired),
            measurements_per_shot: per_shot(|r| r.stats.measurements),
            underruns: per_shot(|r| r.stats.timing.underruns),
        })
    }
}

/// Median seconds per single-thread `Session::run_shots` shot of `source`.
fn session_shot_seconds(device: DeviceConfig, source: &str) -> Result<f64, String> {
    let mut session = Session::new(device).map_err(|e| e.to_string())?;
    let program = session.load_assembly(source).map_err(|e| e.to_string())?;
    let mut failure = None;
    let seconds = time_per_call(|| {
        if let Err(e) = session.run_shots(&program, 1) {
            failure = Some(e.to_string());
        }
    });
    failure.map_or(Ok(seconds), Err)
}

/// Per-pulse cost on the workload's device: the gate-sequence shot with
/// and without its pulses (the `Wait`s stay, so the timeline is equal).
fn pulse_us(w: Workload) -> Result<f64, String> {
    let device = match w.job(0) {
        JobDoc::Qec(cfg) => qec::device_config(&cfg),
        _ => workload::base_device(),
    };
    let with = workload::gate_sequence_source();
    let without: String = with
        .lines()
        .filter(|line| !line.starts_with("Pulse"))
        .map(|line| format!("{line}\n"))
        .collect();
    let with_s = session_shot_seconds(device.clone(), with)?;
    let without_s = session_shot_seconds(device, &without)?;
    Ok((with_s - without_s) * 1e6 / GATE_PULSES as f64)
}

/// The assembly source a workload's jobs submit (`None` for QEC, whose
/// jobs are compiled, not assembled).
fn source_of(w: Workload, seed: u64) -> Option<String> {
    match w.job(job_key(seed, PHASE_UNTRACED, 0)) {
        JobDoc::Shots { source, .. } => Some(source.to_string()),
        JobDoc::T1Sweep { .. } => Some(T1_SOURCE.to_string()),
        JobDoc::Qec(_) => None,
    }
}

/// The layers the ledger attributes a job's time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Layer {
    Serve,
    Pool,
    Journal,
    Core,
    /// Time inside the job but outside every layer span: the client's
    /// poll backoff after the result was ready, and client-side work.
    Leftover,
}

impl Layer {
    const ALL: [Layer; 5] = [
        Layer::Serve,
        Layer::Pool,
        Layer::Journal,
        Layer::Core,
        Layer::Leftover,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Serve => "serve",
            Layer::Pool => "pool",
            Layer::Journal => "journal",
            Layer::Core => "core+qsim (engine shot batches)",
            Layer::Leftover => "leftover",
        }
    }
}

/// A span's depth: where spans overlap, the deepest one owns the time.
/// Returns `None` for spans that belong to no job.
fn rank(cat: &str, name: &str) -> Option<(u8, Layer)> {
    Some(match (cat, name) {
        ("bench", "job" | "backoff") => (0, Layer::Leftover),
        ("bench", _) => (1, Layer::Serve),
        ("serve", _) => (2, Layer::Serve),
        ("pool", "queued") => (3, Layer::Pool),
        ("pool", "submit") => (4, Layer::Pool),
        ("pool", _) => (5, Layer::Pool),
        ("journal", _) => (6, Layer::Journal),
        ("engine", _) => (7, Layer::Core),
        _ => return None,
    })
}

/// Per-job self time of each layer, from the traced phase: each instant
/// of a job (client submit start to parsed result) goes to the deepest
/// span of that job covering it, so a span's self time is its duration
/// minus what its children cover, and the layers sum to the job latency.
struct Ledger {
    jobs: usize,
    skipped: usize,
    totals: HashMap<Layer, f64>,
    job_total_us: f64,
}

impl Ledger {
    fn build(traced: &Phase, server_events: &[Json]) -> Self {
        let mut by_job: HashMap<u64, Vec<(u8, Layer, u64, u64)>> = HashMap::new();
        for e in server_events {
            let (Some(cat), Some(name), Some(ts), Some(dur), Some(trace)) = (
                e.get("cat").and_then(Json::as_str),
                e.get("name").and_then(Json::as_str),
                e.get("ts").and_then(Json::as_f64),
                e.get("dur").and_then(Json::as_f64),
                e.get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(Json::as_u64),
            ) else {
                continue;
            };
            if trace == 0 {
                continue;
            }
            if let Some((depth, layer)) = rank(cat, name) {
                let start = (ts * 1e3).round() as u64;
                let end = start + (dur * 1e3).round() as u64;
                by_job
                    .entry(trace)
                    .or_default()
                    .push((depth, layer, start, end));
            }
        }
        for s in &traced.spans {
            if let Some((depth, layer)) = rank("bench", s.name) {
                by_job
                    .entry(s.trace)
                    .or_default()
                    .push((depth, layer, s.start_ns, s.end_ns));
            }
        }
        let mut ledger = Ledger {
            jobs: 0,
            skipped: 0,
            totals: HashMap::new(),
            job_total_us: 0.0,
        };
        for record in traced.ok() {
            let spans = by_job.get(&record.id).map(Vec::as_slice).unwrap_or(&[]);
            // A job whose server spans fell out of the ring is skipped.
            if !spans.iter().any(|s| s.1 == Layer::Pool) {
                ledger.skipped += 1;
                continue;
            }
            let (from, to) = (record.start_ns, record.start_ns + record.latency_ns);
            let mut cuts = vec![from, to];
            for &(_, _, s, e) in spans {
                cuts.push(s.clamp(from, to));
                cuts.push(e.clamp(from, to));
            }
            cuts.sort_unstable();
            cuts.dedup();
            for pair in cuts.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let owner = spans
                    .iter()
                    .filter(|&&(_, _, s, e)| s <= a && e >= b)
                    .max_by_key(|s| s.0)
                    .map_or(Layer::Leftover, |s| s.1);
                *ledger.totals.entry(owner).or_default() += (b - a) as f64 / 1e3;
            }
            ledger.jobs += 1;
            ledger.job_total_us += record.latency_ns as f64 / 1e3;
        }
        ledger
    }

    fn mean(&self, layer: Layer) -> f64 {
        self.totals.get(&layer).copied().unwrap_or(0.0) / self.jobs.max(1) as f64
    }

    fn layer_sum(&self) -> f64 {
        [Layer::Serve, Layer::Pool, Layer::Journal, Layer::Core]
            .iter()
            .map(|&l| self.mean(l))
            .sum()
    }

    fn job_mean(&self) -> f64 {
        self.job_total_us / self.jobs.max(1) as f64
    }

    fn print(&self, w: Workload, overhead: f64) {
        println!(
            "-- sum-of-layers ledger: {} ({} traced jobs, {} skipped; mean us per job) --",
            w.name(),
            self.jobs,
            self.skipped
        );
        for layer in Layer::ALL.into_iter().filter(|&l| l != Layer::Leftover) {
            println!("  {:<34} {:>12.2}", layer.name(), self.mean(layer));
        }
        println!("  {:<34} {:>12.2}", "sum of layers", self.layer_sum());
        println!("  {:<34} {:>12.2}", "measured job latency", self.job_mean());
        println!(
            "  {:<34} {:>12.2}",
            "layers.leftover_us_per_job",
            self.mean(Layer::Leftover)
        );
        println!("  {:<34} {:>12.4}", "obs.trace_overhead_ratio", overhead);
    }
}

/// Writes the server's spans and the benchmark's own spans, which share
/// each job's trace id, as one Chrome trace-event file.
fn write_chrome_trace(
    w: Workload,
    server_events: &[Json],
    spans: &[BenchSpan],
) -> Result<(), String> {
    let mut events = server_events.to_vec();
    events.extend(spans.iter().map(|s| {
        Json::obj([
            ("name", Json::str(s.name)),
            ("cat", Json::str("bench")),
            ("ph", Json::str("X")),
            ("ts", Json::Float(s.start_ns as f64 / 1e3)),
            (
                "dur",
                Json::Float(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
            ),
            ("pid", Json::Int(2)),
            ("tid", Json::Int(i64::from(s.tid))),
            (
                "args",
                Json::obj([(
                    "trace_id",
                    Json::Int(i64::try_from(s.trace).unwrap_or(i64::MAX)),
                )]),
            ),
        ])
    }));
    let doc = Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ]);
    let path = out_dir().join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, doc.encode()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("chrome trace: {}", path.display());
    Ok(())
}
