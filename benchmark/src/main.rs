//! End-to-end benchmark of the served QuMA stack.
//!
//! ```sh
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload served_small_shots --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each run serves one workload from an in-process `Server` over a
//! `DevicePool` (one pool worker per core) to one closed-loop client
//! thread per core, each on its own keep-alive loopback connection.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is the
//! separate traced run that prints the per-layer metrics and the
//! sum-of-layers ledger and writes a Chrome trace under
//! `benchmark/out/`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Every run checks its outputs: served results must equal an in-process
//! replay bit for bit (compared by digest), recovered results must be
//! byte-identical to the bodies served before a restart, the replayed
//! shots must show no timing-queue underruns (outside the feedback
//! workload, where they are the modelled branch latency), and the gate
//! must flag a deliberately perturbed digest and body. A failed check prints the
//! result with `"correct": false`, names the workload and check on
//! standard error, and exits 1; a run that cannot complete exits 2
//! without a result.

mod driver;
mod layers;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use quma_core::prelude::RunReport;
use quma_serve::prelude::{Json, Server};

use driver::{JobRecord, Phase, PhaseSpec, Stop};
use workload::{job_key, Replayer, Workload};

/// Phase numbers, mixed into job keys so every phase runs its own jobs.
const PHASE_SETUP: u64 = 1;
const PHASE_WARMUP: u64 = 2;
const PHASE_REWARM: u64 = 3;
const PHASE_MEASURE: u64 = 4;
/// Phase numbers of later rounds step by this.
const PHASE_STRIDE: u64 = 16;

/// Target length of one round of the measured phase (see
/// `measured_run`).
const ROUND_SECONDS: u64 = 2;

/// Cold starts per run; `setup_s` is their median.
const COLD_STARTS: usize = 15;
/// Journal restarts per run (each recovers the whole warm-up journal).
const RESTARTS: usize = 7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload '{value}' (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?)
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds
                .filter(|&s| s > 0)
                .ok_or("--seconds must be positive")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The correctness gate: every failed check, named.
#[derive(Default)]
pub struct Gate {
    pub failures: Vec<String>,
    /// Jobs that failed, were refused, or failed a check.
    pub failed_jobs: u64,
}

impl Gate {
    pub fn fail(&mut self, check: &str, detail: impl std::fmt::Display) {
        self.failures.push(format!("{check}: {detail}"));
    }
}

/// Whether a served digest disagrees with its replay.
fn digests_differ(served: u64, replayed: u64) -> bool {
    served != replayed
}

struct Outcome {
    attempted: u64,
    gate: Gate,
    metrics: Vec<Metric>,
}

/// A fresh scratch directory under `benchmark/out`, removed on drop
/// (also when a failure unwinds the run).
pub struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Result<Self, String> {
        let base = out_dir();
        remove_stale(&base);
        let dir = base.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where runs write their scratch files and traces.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Removes scratch directories left by runs that were killed.
fn remove_stale(base: &Path) {
    let Ok(entries) = std::fs::read_dir(base) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name
            .to_str()
            .and_then(|n| n.strip_prefix("tmp-"))
            .and_then(|n| n.split('-').next())
        else {
            continue;
        };
        if !Path::new("/proc").join(pid).exists() {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Makes a write past the file-size limit fail with `EFBIG`, which the
/// run then reports by name, instead of killing the process with
/// `SIGXFSZ`.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn ignore_sigxfsz() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGXFSZ: i32 = 25;
    const SIG_IGN: usize = 1;
    // SAFETY: `signal` is the C library's own; installing the ignore
    // disposition runs no handler code and touches no Rust state.
    unsafe {
        signal(SIGXFSZ, SIG_IGN);
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn ignore_sigxfsz() {}

fn main() -> ExitCode {
    ignore_sigxfsz();
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let outcome = TempDir::new(w.name()).and_then(|tmp| {
        print_definition(&args);
        if args.trace {
            layers::traced_run(w, args.seed, args.seconds, &tmp)
        } else {
            measured_run(w, args.seed, args.seconds, &tmp)
        }
    });
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark error on workload {}: {e}", w.name());
            return ExitCode::from(2);
        }
    };
    let correct = outcome.gate.failures.is_empty();
    println!(
        "failed_frac: {} ({} of {} jobs)",
        outcome.gate.failed_jobs as f64 / outcome.attempted.max(1) as f64,
        outcome.gate.failed_jobs,
        outcome.attempted
    );
    for failure in &outcome.gate.failures {
        eprintln!("CHECK FAILED on workload {}: {failure}", w.name());
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name,
                Json::obj([("value", Json::Float(m.value)), ("unit", Json::str(m.unit))]),
            )
        })
        .collect::<Vec<_>>();
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(outcome.attempted as i64)),
            ("failed", Json::Int(outcome.gate.failed_jobs as i64)),
            ("metrics", Json::obj(metrics)),
        ])
        .encode()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_definition(args: &Args) {
    let w = args.workload;
    let b = w.backoff();
    let mut doc = w
        .job(job_key(args.seed, PHASE_MEASURE, 0))
        .to_json()
        .encode();
    if doc.len() > 400 {
        doc.truncate(400);
        doc.push('…');
    }
    println!(
        "== {} (seed {}, {} s, trace {}) ==",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", w.why());
    println!(
        "closed loop: {} clients on keep-alive loopback connections, {} pool workers, journal {}",
        driver::parallelism(),
        driver::parallelism(),
        if w.journaled() {
            "on (OnCompletion fsync)"
        } else {
            "off"
        }
    );
    println!(
        "poll backoff: first {} us, x{} per unfinished poll, cap {} us",
        b.first_us,
        workload::BACKOFF_FACTOR,
        b.cap_us
    );
    println!("job (seeds derive from --seed and the job ticket): {doc}");
}

/// The server the measured phase runs on, after set-up and warm-up.
pub struct Prepared {
    /// `None` when journaled: the restarts filled that server's journal.
    pub server: Option<Server>,
    /// Cold-start (or restart) seconds, one per repetition.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Journal bytes recovered per restart, when journaled.
    pub journal_bytes: u64,
}

/// Set-up and fixed-size warm-up, shared by the measured and traced runs.
///
/// Without a journal, `setup_s` is a cold start: pool and server
/// construction through the first parsed result. With one, the warm-up
/// phase writes the journal, and `setup_s` is the restart over it:
/// `DevicePool::recover` plus `Server::start_recovered` through the
/// first recovered result, after which every recovered body is compared
/// with the body served before the restart.
pub fn prepare(w: Workload, seed: u64, tmp: &TempDir, gate: &mut Gate) -> Result<Prepared, String> {
    let warm = |phase, jobs, keep_bodies| PhaseSpec {
        workload: w,
        seed,
        phase,
        backoff: w.backoff(),
        stop: Stop::jobs(jobs),
        traced: false,
        keep_bodies,
    };
    let mut setup_s = Vec::new();
    let mut journal_bytes = 0;
    let server = if w.journaled() {
        let journal = tmp.path().join("journal");
        let mut server = driver::start(Some(&journal), false)?;
        let phase = driver::run_phase(
            server.local_addr(),
            &warm(PHASE_WARMUP, w.warmup_jobs() as u64, true),
        )?;
        check_jobs(gate, "warm-up", &phase);
        let served: Vec<(u64, String)> = phase
            .ok()
            .filter_map(|r| Some((r.id, r.body.clone()?)))
            .collect();
        let first = served.first().ok_or("the warm-up served no job")?.0;
        for _ in 0..RESTARTS {
            server.shutdown();
            journal_bytes = dir_bytes(&journal);
            let (restarted, seconds) = driver::timed_restart(&journal, first)?;
            setup_s.push(seconds);
            for mismatch in driver::recovered_mismatches(restarted.local_addr(), &served) {
                gate.fail("recovered-bytes", mismatch);
            }
            server = restarted;
        }
        // This journal is full; measured phases run on fresh ones.
        server.shutdown();
        None
    } else {
        for _ in 0..COLD_STARTS {
            setup_s.push(driver::cold_start(w, seed, PHASE_SETUP)?);
        }
        let server = driver::start(None, false)?;
        let phase = driver::run_phase(
            server.local_addr(),
            &warm(PHASE_WARMUP, w.warmup_jobs() as u64, false),
        )?;
        check_jobs(gate, "warm-up", &phase);
        Some(server)
    };
    Ok(Prepared {
        server,
        setup_s,
        peak_rss_mb: stats::peak_rss_mb()?,
        journal_bytes,
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Counts a phase's failed jobs into the gate.
fn check_jobs(gate: &mut Gate, phase: &str, result: &Phase) {
    for (record, error) in result.failures() {
        gate.failed_jobs += 1;
        gate.fail(
            "job",
            format!(
                "{phase} ticket {} (job {}): {error}",
                record.ticket, record.id
            ),
        );
    }
}

/// The measured phase's closed-loop run.
pub fn measure(
    addr: std::net::SocketAddr,
    w: Workload,
    seed: u64,
    duration: Duration,
    traced: bool,
    phase: u64,
) -> Result<Phase, String> {
    driver::run_phase(
        addr,
        &PhaseSpec {
            workload: w,
            seed,
            phase,
            backoff: w.backoff(),
            stop: Stop {
                jobs: w.phase_jobs(),
                after: duration,
            },
            traced,
            keep_bodies: false,
        },
    )
}

/// Replays an evenly spaced sample of the completed jobs `done` in
/// process and compares digests; also checks the replayed shots for
/// timing-queue underruns and proves the gate on a perturbed digest.
/// Returns the replayed shot reports.
pub fn check_replays(
    gate: &mut Gate,
    w: Workload,
    done: &[&JobRecord],
) -> Result<Vec<RunReport>, String> {
    let sample = w.replay_sample().min(done.len());
    let mut replayer = Replayer::new()?;
    let mut reports = Vec::new();
    let mut pair = None;
    for i in 0..sample {
        let record = done[if sample > 1 {
            i * (done.len() - 1) / (sample - 1)
        } else {
            0
        }];
        let job = w.job(record.key);
        let replay = replayer.replay(&job)?;
        let served = *record
            .outcome
            .as_ref()
            .expect("sampled from completed jobs");
        if digests_differ(served, replay.digest) {
            gate.failed_jobs += 1;
            gate.fail(
                "determinism",
                format!(
                    "job {} (ticket {}): served digest {served:016x} != replay {:016x}",
                    record.id, record.ticket, replay.digest
                ),
            );
        }
        pair.get_or_insert((served, replay.digest));
        reports.extend(replay.reports);
    }
    if sample == 0 {
        gate.fail("determinism", "no completed job to replay");
    }
    if let Some(workload::JobDoc::Qec(cfg)) = done.first().map(|r| w.job(r.key)) {
        reports.extend(workload::qec_session_reports(&cfg)?.0);
    }
    let underruns: u64 = reports.iter().map(|r| r.stats.timing.underruns).sum();
    if underruns != 0 && !w.feedback() {
        gate.fail(
            "timing-underruns",
            format!("{underruns} timing-queue underruns in replayed shots"),
        );
    }
    if let Some((served, replayed)) = pair {
        if !digests_differ(served ^ 1, replayed) {
            gate.fail(
                "self-check",
                "a perturbed digest passed the determinism check",
            );
        }
    }
    Ok(reports)
}

/// Proves the recovered-bytes check on a real served body with one byte
/// changed.
pub fn self_check_body(
    gate: &mut Gate,
    addr: std::net::SocketAddr,
    phase: &Phase,
) -> Result<(), String> {
    let record = phase
        .ok()
        .next()
        .ok_or("no completed job for the body self-check")?;
    let body = driver::get_text(addr, &format!("/jobs/{}/result", record.id), None)?;
    let mut perturbed = body.clone().into_bytes();
    let last = perturbed.len().checked_sub(2).ok_or("empty result body")?;
    perturbed[last] ^= 0x01;
    let perturbed = String::from_utf8_lossy(&perturbed);
    if driver::body_mismatch(record.id, &body, &perturbed).is_none() {
        gate.fail(
            "self-check",
            "a perturbed recovered body passed the byte comparison",
        );
    }
    Ok(())
}

/// `--trace 0`: the end-to-end metrics.
///
/// The measured phase runs in equal rounds of about [`ROUND_SECONDS`]
/// each. Every round after the first runs on a freshly built pool and
/// server (after a short warm-up), and each end-to-end figure is the
/// median over rounds, so a run does not hang on one placement of its
/// threads on the cores.
fn measured_run(w: Workload, seed: u64, seconds: u64, tmp: &TempDir) -> Result<Outcome, String> {
    let mut gate = Gate::default();
    let prepared = prepare(w, seed, tmp, &mut gate)?;
    let rounds_n = (seconds / ROUND_SECONDS).max(1);
    let slice = Duration::from_secs_f64(seconds as f64 / rounds_n as f64);
    let mut warmed = prepared.server;
    let mut servers = 0;
    let mut rounds = Vec::new();
    for round in 0..rounds_n {
        // A journaled round moves to a fresh pool and journal every
        // `phase_jobs` jobs until its time is spent.
        let mut phase = Phase::default();
        loop {
            let (server, journal) = match warmed.take() {
                Some(server) => (server, None),
                None => fresh_server(w, seed, tmp, servers, false, &mut gate)?,
            };
            let addr = server.local_addr();
            let segment = measure(
                addr,
                w,
                seed,
                slice - phase.wall,
                false,
                PHASE_MEASURE + PHASE_STRIDE * servers,
            )?;
            servers += 1;
            check_jobs(&mut gate, "measured", &segment);
            if round == 0 && phase.records.is_empty() {
                self_check_body(&mut gate, addr, &segment)?;
            }
            server.shutdown();
            if let Some(dir) = journal {
                let _ = std::fs::remove_dir_all(dir);
            }
            phase.absorb(segment);
            if !w.journaled() || phase.wall >= slice {
                break;
            }
        }
        rounds.push(phase);
    }
    let done: Vec<_> = rounds.iter().flat_map(Phase::ok).collect();
    check_replays(&mut gate, w, &done)?;

    let per_round = |f: &dyn Fn(&Phase) -> f64| -> Vec<f64> { rounds.iter().map(f).collect() };
    let rates = per_round(&|p| p.ok().count() as f64 / p.wall.as_secs_f64());
    let p50s = per_round(&|p| stats::median(&latencies_ms(p)));
    let p90s = per_round(&|p| stats::quantile(&latencies_ms(p), 0.9));
    let done: usize = rounds.iter().map(|p| p.ok().count()).sum();
    let metrics = vec![
        Metric {
            name: "jobs_per_s",
            value: stats::median(&rates),
            unit: "jobs/s",
        },
        Metric {
            name: "job_p50_ms",
            value: stats::median(&p50s),
            unit: "ms",
        },
        Metric {
            name: "job_p90_ms",
            value: stats::median(&p90s),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: stats::median(&prepared.setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: prepared.peak_rss_mb,
            unit: "MB",
        },
    ];
    println!("-- end-to-end ({done} jobs in {rounds_n} rounds; medians over rounds) --");
    for m in &metrics {
        let samples = match m.name {
            "setup_s" => format!(
                "{} {}",
                prepared.setup_s.len(),
                if w.journaled() {
                    "restarts"
                } else {
                    "cold starts"
                }
            ),
            "peak_rss_mb" => "VmHWM after the fixed-size warm-up".to_string(),
            _ => format!("{done} jobs"),
        };
        println!("{:<12} {:>14.6} {:<7} ({samples})", m.name, m.value, m.unit);
    }
    for (i, ((rate, p50), p90)) in rates.iter().zip(&p50s).zip(&p90s).enumerate() {
        println!("  round {i}: {rate:.2} jobs/s, p50 {p50:.4} ms, p90 {p90:.4} ms");
    }
    Ok(Outcome {
        attempted: rounds.iter().map(|p| p.records.len() as u64).sum(),
        gate,
        metrics,
    })
}

fn latencies_ms(phase: &Phase) -> Vec<f64> {
    phase.ok().map(|r| r.latency_ns as f64 / 1e6).collect()
}

/// A freshly built pool and server (journaled into its own directory
/// when the workload is), warmed up with a quarter of the fixed warm-up.
/// Returns the server and its journal directory.
pub fn fresh_server(
    w: Workload,
    seed: u64,
    tmp: &TempDir,
    tag: u64,
    traced: bool,
    gate: &mut Gate,
) -> Result<(Server, Option<PathBuf>), String> {
    let journal = w
        .journaled()
        .then(|| tmp.path().join(format!("journal-{tag}")));
    let server = driver::start(journal.as_deref(), traced)?;
    let warm = driver::run_phase(
        server.local_addr(),
        &PhaseSpec {
            workload: w,
            seed,
            phase: PHASE_REWARM + PHASE_STRIDE * tag,
            backoff: w.backoff(),
            stop: Stop::jobs(w.rewarm_jobs()),
            traced: false,
            keep_bodies: false,
        },
    )?;
    check_jobs(gate, "warm-up", &warm);
    Ok((server, journal))
}
