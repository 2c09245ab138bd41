//! The worker side of the pool: warm devices, job execution, and the
//! deterministic-replay discipline.
//!
//! Each worker owns a small set of *pristine* calibrated devices (the
//! pool's base configuration is always warm; other configurations are
//! admitted on first use) plus long-lived warm [`Session`]s built from
//! them. Both are keyed by calibration, not by seed
//! ([`DeviceConfig::same_calibration`]): a job whose config differs from
//! a warm one only in `chip_seed`/`jitter_seed` is served by that warm
//! device, rebased to the job's seeds. Jobs split by what they may
//! touch:
//!
//! * **Workload** jobs (shot batches, sweeps, template sweeps) and
//!   experiments that leave their device as calibrated
//!   ([`Experiment::mutates_device`] is `false`, e.g. the QEC
//!   experiments) run on a *reused* warm session, rebased to the job's
//!   seeds, with its shot counter at 0. That skips the per-job device
//!   clone and keeps warm caches — the MDU calibrations and readout-skip
//!   jumps — across jobs.
//! * **Mutating** experiment jobs (error injection in
//!   `Experiment::prepare`, library uploads such as AllXY's, noise
//!   retuning) each get a fresh session around a clone of a pristine
//!   device, rebased to the job's seeds; whatever they do is discarded
//!   with the session and can never leak into the next job.
//!
//! Determinism: `Device::new` is a pure function of its config and seeds
//! enter nothing but the RNGs, so a rebased clone of a pristine device is
//! bit-identical to a fresh build (`Device::rebase`), and a reused
//! session, rebased, runs exactly like a fresh one because every run
//! starts with the architectural reset. Together that makes every pooled
//! result bit-identical to a direct single-session run — regardless of
//! which worker picks the job up, in what order, or how many workers
//! exist.
//!
//! Containment: a job that panics fails with [`JobError::Panicked`]
//! (journaled as a failure, so recovery never re-runs it), and its
//! worker drops its warm sessions — one may have been left mid-run — so
//! the next job starts from a pristine clone.
//!
//! [`Experiment::mutates_device`]: quma_experiments::prelude::Experiment::mutates_device

use crate::job::{JobError, JobEvent, JobId, JobKind, JobOutput, Priority, QueuedJob, ShotChunk};
use crate::metrics::JobMetrics;
use crate::pool::PoolShared;
use quma_core::prelude::{
    BatchReport, Device, DeviceConfig, DeviceError, Session, SessionTracer, Workload,
};
use quma_journal::WalRecord;
use quma_obs::trace::{now_ns, SpanEvent, SpanKind};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Pristine devices a worker can clone per job, plus long-lived warm
/// sessions for the jobs that never mutate device parameters. Both are
/// keyed by calibration ([`DeviceConfig::same_calibration`]). Bounded;
/// the pool's base configuration (device slot 0) is never evicted.
pub(crate) struct WarmSet {
    devices: Vec<Device>,
    /// Reused across non-mutating jobs. Mutating experiments never
    /// touch these.
    sessions: Vec<Session>,
}

/// How many distinct calibrations a worker keeps warm (base + 3).
const WARM_CAP: usize = 4;

impl WarmSet {
    pub(crate) fn new(base: Device) -> Self {
        Self {
            devices: vec![base],
            sessions: Vec::new(),
        }
    }

    /// A fresh session for `config`: a warm clone rebased to its seeds
    /// when the calibration is known, a cold build (then kept warm)
    /// otherwise. Mutating experiments use this path — they must not
    /// share a device.
    fn fresh_session(
        &mut self,
        config: &DeviceConfig,
        shared: &PoolShared,
    ) -> Result<Session, JobError> {
        if let Some(device) = self
            .devices
            .iter()
            .find(|d| d.config().same_calibration(config))
        {
            let mut device = device.clone();
            device.rebase(config.chip_seed, config.jitter_seed);
            shared.metrics.warm_device_clones.inc();
            return Ok(Session::from_device(device));
        }
        let device = Device::new(config.clone()).map_err(JobError::Device)?;
        shared.metrics.cold_device_builds.inc();
        let session = Session::from_device(device.clone());
        if self.devices.len() >= WARM_CAP {
            // Evict the oldest non-base entry.
            self.devices.remove(1);
        }
        self.devices.push(device);
        Ok(session)
    }

    /// A warm session for `config`, rebased to its seeds with the shot
    /// counter at 0. Only for jobs that never mutate device parameters:
    /// every run starts with the architectural reset, so the reused
    /// device is bit-indistinguishable from a fresh rebased clone.
    fn warm_session(
        &mut self,
        config: &DeviceConfig,
        shared: &PoolShared,
    ) -> Result<&mut Session, JobError> {
        let calibrated = |s: &Session| s.device().config().same_calibration(config);
        let pos = match self.sessions.iter().position(calibrated) {
            Some(pos) => {
                shared.metrics.warm_session_reuses.inc();
                pos
            }
            None => {
                let session = self.fresh_session(config, shared)?;
                if self.sessions.len() >= WARM_CAP {
                    // Evict the oldest session not serving the base config.
                    let base = |s: &Session| s.device().config().same_calibration(&shared.base);
                    let pos = self.sessions.iter().position(|s| !base(s)).unwrap_or(0);
                    self.sessions.remove(pos);
                }
                self.sessions.push(session);
                self.sessions.len() - 1
            }
        };
        let session = &mut self.sessions[pos];
        session.rebase(config.chip_seed, config.jitter_seed);
        Ok(session)
    }
}

/// The worker thread body: runs queued jobs, high before normal, until
/// the pool closes its queue and the backlog is drained — the
/// graceful-drain property: every accepted job runs before any worker
/// exits.
pub(crate) fn worker_loop(index: usize, shared: Arc<PoolShared>, pristine: Device) {
    let mut warm = WarmSet::new(pristine);
    while let Some(queued) = shared.queue.pop() {
        run_job(index, &shared, &mut warm, queued);
    }
}

/// The text a panic was raised with (`panic!` payloads are a `&str` or
/// a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|text| text.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn run_job(worker: usize, shared: &Arc<PoolShared>, warm: &mut WarmSet, queued: QueuedJob) {
    let QueuedJob {
        id,
        job,
        events,
        submitted_at,
        phase,
    } = queued;
    let dispatch_seq = shared.dispatch_seq.fetch_add(1, Ordering::SeqCst);
    let started = Instant::now();
    let queue_wait = started.duration_since(submitted_at);
    let trace_dispatch_ns = shared.trace.as_ref().map(|_| now_ns());
    let priority = job.priority;
    let cache_hit = job.cache_hit;
    // Claim the job: only a still-queued job may transition to running.
    // Losing the race to `JobHandle::cancel` means the job is dropped
    // without executing — the handle still gets a terminal event so
    // `wait` resolves (with `JobError::Cancelled`) instead of hanging.
    if phase
        .compare_exchange(
            crate::job::PHASE_QUEUED,
            crate::job::PHASE_RUNNING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
        .is_err()
    {
        shared.metrics.cancelled.inc();
        let metrics = JobMetrics {
            id,
            priority,
            worker,
            dispatch_seq,
            queue_wait,
            run_time: std::time::Duration::ZERO,
            cache_hit,
        };
        let _ = events.send(JobEvent::Done {
            result: Err(JobError::Cancelled),
            metrics,
        });
        return;
    }
    let journal = match (&shared.journal, &job.spec) {
        (Some(journal), Some(_)) => Some(Arc::clone(journal)),
        _ => None,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        execute(worker, shared, warm, &events, id, job)
    }))
    .unwrap_or_else(|payload| {
        warm.sessions.clear();
        Err(JobError::Panicked(panic_message(payload.as_ref())))
    });
    // Journal the terminal state before the handle can observe it, so a
    // client that saw a result can rely on recovery re-serving it. Batch
    // payloads go to the result log in full; sweep completions are
    // marker-only (their checkpoints already carry every point);
    // experiment outputs are not durable (marker-only too). A journal IO
    // failure here is not a job failure — the in-memory result is intact
    // and recovery simply re-runs deterministic work.
    if let Some(journal) = &journal {
        let record = match &result {
            Ok(JobOutput::Batch(batch)) => journal
                .append_reports_traced(&batch.shots, id)
                .ok()
                .map(|(offset, len)| WalRecord::Completed { id, offset, len }),
            Ok(_) => Some(WalRecord::Completed {
                id,
                offset: 0,
                len: 0,
            }),
            Err(e) => Some(WalRecord::Failed {
                id,
                detail: e.to_string(),
            }),
        };
        if let Some(record) = record {
            let _ = journal.append_traced(&record, id);
        }
    }
    let run_time = started.elapsed();
    phase.store(crate::job::PHASE_FINISHED, Ordering::SeqCst);
    if result.is_ok() {
        shared.metrics.completed.inc();
        if priority == Priority::High {
            shared.metrics.high_completed.inc();
        }
    } else {
        shared.metrics.failed.inc();
    }
    shared.metrics.queue_wait.record_duration(queue_wait);
    shared.metrics.run_time.record_duration(run_time);
    if let (Some(trace), Some(dispatch_ns)) = (&shared.trace, trace_dispatch_ns) {
        // The queued span is reconstructed arithmetically from the
        // measured wait rather than stamped at submit time: the submit
        // thread already emits its own span, and subtracting the wait
        // from the dispatch stamp keeps the two spans adjacent even
        // when clocks are read on different threads.
        let wait_ns = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
        trace.record(SpanEvent {
            kind: SpanKind::Queued,
            label: 0,
            trace: id,
            tid: worker as u32,
            start_ns: dispatch_ns.saturating_sub(wait_ns),
            end_ns: dispatch_ns,
            a: match priority {
                Priority::High => 1,
                Priority::Normal => 0,
            },
            b: 0,
        });
        trace.record(SpanEvent {
            kind: SpanKind::Run,
            label: 0,
            trace: id,
            tid: worker as u32,
            start_ns: dispatch_ns,
            end_ns: now_ns(),
            a: worker as u64,
            b: dispatch_seq,
        });
    }
    let metrics = JobMetrics {
        id,
        priority,
        worker,
        dispatch_seq,
        queue_wait,
        run_time,
        cache_hit,
    };
    // The client may have dropped its handle; an undeliverable result is
    // not a worker error.
    let _ = events.send(JobEvent::Done { result, metrics });
}

/// Wraps a journal IO failure mid-job. The device did nothing wrong, but
/// a durable job whose checkpoints cannot be written must fail loudly
/// rather than silently degrade to un-journaled execution.
fn journal_err(e: std::io::Error) -> JobError {
    JobError::Device(DeviceError::Config(format!("journal write failed: {e}")))
}

/// The per-job [`SessionTracer`] (shot-batch spans tagged with the
/// job's trace id and the worker's lane), or `None` on an untraced
/// pool. Set on *every* session a job runs on — warm sessions are
/// reused across jobs, so each job must overwrite the previous one's
/// tracer (or clear it when tracing is off).
fn session_tracer(shared: &PoolShared, id: JobId, worker: usize) -> Option<SessionTracer> {
    shared.trace.as_ref().map(|buf| SessionTracer {
        buf: buf.clone(),
        trace_id: id,
        tid: worker as u32,
    })
}

fn execute(
    worker: usize,
    shared: &Arc<PoolShared>,
    warm: &mut WarmSet,
    events: &mpsc::Sender<JobEvent>,
    id: JobId,
    job: crate::job::Job,
) -> Result<JobOutput, JobError> {
    let device_cfg = job.device.as_ref().unwrap_or(&shared.base);
    let work = match job.kind {
        JobKind::Workload(work) => work,
        JobKind::Experiment(erased) => {
            let config = erased.device_config();
            let mut fresh;
            let session = if erased.mutates_device() {
                fresh = warm.fresh_session(&config, shared)?;
                &mut fresh
            } else {
                warm.warm_session(&config, shared)?
            };
            session.set_tracer(session_tracer(shared, id, worker));
            let output = erased.run_erased(session)?;
            return Ok(JobOutput::Experiment(output));
        }
    };
    let session = warm.warm_session(device_cfg, shared)?;
    session.set_tracer(session_tracer(shared, id, worker));
    let shots = matches!(work, Workload::Shots { .. });
    // The items run in blocks: a chunked shot batch (`Job::validate`
    // admits chunks on shot batches only) streams a chunk per block; a
    // sweep on a journaled pool makes each block durable (result-log
    // frame + WAL checkpoint) before the next starts. Every item
    // reseeds, so blocked execution is bit-identical to one whole run,
    // and resuming at `resume.done` with the journaled prefix prepended
    // reproduces the uninterrupted result exactly.
    let checkpoints = match (&shared.journal, &job.spec) {
        (Some(journal), Some(_)) if !shots => Some(journal),
        _ => None,
    };
    let total = work.len();
    let block = match checkpoints {
        Some(journal) if journal.checkpoint_every > 0 => journal.checkpoint_every,
        _ if job.chunk > 0 => job.chunk,
        _ => total as u64,
    };
    let block = usize::try_from(block).unwrap_or(usize::MAX).max(1);
    let (mut at, mut all) = match job.resume {
        Some(resume) => ((resume.done as usize).min(total), resume.prefix),
        None => (0, Vec::with_capacity(total)),
    };
    while at < total {
        let items = at..at + block.min(total - at);
        let reports = session.execute(&work, items.clone(), 1)?;
        shared.metrics.executed_shots.add(reports.len() as u64);
        if job.chunk > 0 {
            // Any nonzero chunk streams — `chunk >= shots` still emits
            // the one covering chunk a streaming client waits for.
            let _ = events.send(JobEvent::Chunk(ShotChunk {
                first_shot: items.start as u64,
                reports: reports.clone(),
            }));
        }
        if let Some(journal) = checkpoints {
            let (offset, len) = journal
                .append_reports_traced(&reports, id)
                .map_err(journal_err)?;
            journal
                .append_traced(
                    &WalRecord::Checkpoint {
                        id,
                        done: items.end as u64,
                        offset,
                        len,
                    },
                    id,
                )
                .map_err(journal_err)?;
        }
        all.extend(reports);
        at = items.end;
    }
    Ok(if shots {
        JobOutput::Batch(BatchReport { shots: all })
    } else {
        JobOutput::Reports(all)
    })
}
