//! The [`DevicePool`]: N warm workers, one two-class bounded queue, and
//! the submission surface many concurrent clients share.

use crate::cache::{ProgramCache, SlotSpec};
use crate::job::{
    ExperimentHandle, Job, JobHandle, JobId, JobKind, JobOutput, Priority, QueuedJob, Resume,
    SpecError, SubmitError,
};
use crate::metrics::{PoolMetrics, PoolStats};
use crate::queue::JobQueue;
use crate::worker::worker_loop;
use quma_core::prelude::{
    resolve_threads, BatchReport, Device, DeviceConfig, DeviceError, LoadedProgram, SeedPlan,
    ShotSeeds, TemplatePoint,
};
use quma_experiments::prelude::Experiment;
use quma_isa::prelude::{Program, ProgramTemplate};
use quma_journal::{
    replay_ledger, JobSpec, Journal, JournalConfig, ReplayedJob, ReplayedOutcome, WalRecord,
};
use quma_obs::trace::{now_ns, SpanEvent, SpanKind, TraceBuffer};
use quma_obs::{HistogramSnapshot, Registry};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How a pool is built.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads (`0` = one per available core).
    pub workers: usize,
    /// Queue bound *per priority class*; the `workers + 1`-th … `depth`-th
    /// concurrent submissions queue, the `depth + 1`-th gets
    /// [`SubmitError::QueueFull`].
    pub queue_depth: usize,
    /// The base device configuration every worker keeps warm; jobs
    /// without an override run on it.
    pub device: DeviceConfig,
    /// Durability: when set, jobs that carry a [`JobSpec`] are journaled
    /// (submission before enqueue, checkpoints per sweep block, result
    /// or cancellation on completion) and [`DevicePool::recover`] can
    /// rebuild them after a crash; shot and sweep jobs without a spec
    /// are rejected at submit. `None` (the default) journals nothing
    /// and costs nothing.
    pub journal: Option<JournalConfig>,
    /// Span-trace ring-buffer capacity in events; `0` (the default)
    /// disables tracing entirely — no buffer is allocated and the
    /// record path in workers is a single `Option` check. Rounded up to
    /// a power of two, minimum 16. When full, the buffer drops the
    /// *oldest* events and counts them (`dropped_events`).
    pub trace_capacity: usize,
}

impl PoolConfig {
    /// A pool over `device` with auto worker count and a 64-deep queue
    /// per priority class.
    pub fn new(device: DeviceConfig) -> Self {
        Self {
            workers: 0,
            queue_depth: 64,
            device,
            journal: None,
            trace_capacity: 0,
        }
    }

    /// Sets the worker count (builder style; `0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-class queue bound (builder style).
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth.max(1);
        self
    }

    /// Journals spec-carrying jobs under `journal.dir` (builder style).
    pub fn with_journal(mut self, journal: JournalConfig) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Enables span tracing with a ring buffer of `capacity` events
    /// (builder style; `0` disables).
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::new(DeviceConfig::default())
    }
}

/// State shared between the pool handle and its workers.
pub(crate) struct PoolShared {
    /// The base device configuration.
    pub(crate) base: DeviceConfig,
    /// The content-hash program/template cache.
    pub(crate) cache: ProgramCache,
    /// Lock-free counters, gauges, and latency histograms.
    pub(crate) metrics: PoolMetrics,
    /// The registry every pool metric (and the journal's, when
    /// journaled) is registered in — the serving layer renders it.
    pub(crate) registry: Registry,
    /// The span-trace ring buffer, when tracing is enabled.
    pub(crate) trace: Option<TraceBuffer>,
    /// Global dispatch sequence (see `JobMetrics::dispatch_seq`).
    pub(crate) dispatch_seq: AtomicU64,
    /// The write-ahead journal, when the pool is durable.
    pub(crate) journal: Option<Arc<Journal>>,
    /// Accepted jobs waiting for a worker, both priority classes.
    pub(crate) queue: JobQueue,
}

/// A pool of warm devices serving jobs from many concurrent clients.
///
/// * **Scheduling** — one queue of two bounded FIFO classes
///   ([`Priority::High`] drains before [`Priority::Normal`]); a full
///   class rejects with typed backpressure ([`SubmitError::QueueFull`])
///   instead of blocking.
/// * **Warmth** — each worker keeps pristine calibrated devices and warm
///   sessions keyed by calibration, rebased to each job's seeds, instead
///   of re-synthesizing pulse libraries; workload jobs and non-mutating
///   experiments run on the warm sessions it keeps across jobs.
/// * **Caching** — identical assembly/template submissions share one
///   `Arc`'d program via the content-hash [`ProgramCache`].
/// * **Determinism** — every job result is bit-identical to a direct
///   single-`Session` run of the same work, independent of worker
///   count, scheduling order, and interleaving: a rebased warm device
///   is bit-identical to a fresh build, every run starts from the
///   architectural reset, and each mutating experiment runs on a fresh
///   session around a pristine clone.
/// * **Containment** — a job that panics fails with
///   [`JobError::Panicked`](crate::JobError::Panicked); its worker
///   discards its warm sessions and serves on.
/// * **Drain** — [`DevicePool::shutdown`] (and `Drop`) stops intake,
///   runs every accepted job to completion, and joins the workers.
pub struct DevicePool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
    worker_count: usize,
    queue_depth: usize,
}

impl std::fmt::Debug for DevicePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DevicePool")
            .field("workers", &self.worker_count)
            .field("queue_depth", &self.queue_depth)
            .field("shut_down", &self.workers.is_empty())
            .finish()
    }
}

impl DevicePool {
    /// Builds the pool: calibrates one pristine device for the base
    /// configuration and spawns the workers, each warmed with a clone.
    pub fn new(config: PoolConfig) -> Result<Self, DeviceError> {
        let PoolConfig {
            workers,
            queue_depth,
            device,
            journal,
            trace_capacity,
        } = config;
        let queue_depth = queue_depth.max(1);
        let pristine = Device::new(device.clone())?;
        let worker_count = resolve_threads(workers, usize::MAX);
        let journal = match journal {
            Some(config) => {
                Some(Arc::new(Journal::open(&config).map_err(|e| {
                    DeviceError::Config(format!("journal open failed: {e}"))
                })?))
            }
            None => None,
        };
        let registry = Registry::new();
        let trace = (trace_capacity > 0).then(|| TraceBuffer::new(trace_capacity));
        let metrics = PoolMetrics::new(&registry);
        metrics.workers.set(worker_count as u64);
        let cache = ProgramCache::new();
        {
            let (hits, misses) = cache.hit_miss_counters();
            registry.register_counter(
                "quma_pool_cache_hits_total",
                "Cache lookups served without assembling",
                &[],
                hits,
            );
            registry.register_counter(
                "quma_pool_cache_misses_total",
                "Cache lookups that had to assemble or compile",
                &[],
                misses,
            );
        }
        if let Some(journal) = &journal {
            journal.attach_obs(&registry, trace.as_ref());
        }
        let shared = Arc::new(PoolShared {
            base: device,
            cache,
            metrics,
            registry,
            trace,
            dispatch_seq: AtomicU64::new(0),
            journal,
            queue: JobQueue::default(),
        });
        let handles = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                let pristine = pristine.clone();
                std::thread::Builder::new()
                    .name(format!("quma-pool-{index}"))
                    .spawn(move || worker_loop(index, shared, pristine))
                    .expect("spawn pool worker")
            })
            .collect();
        Ok(Self {
            shared,
            workers: handles,
            next_id: AtomicU64::new(0),
            worker_count,
            queue_depth,
        })
    }

    /// Submits a job, returning its handle — or typed backpressure when
    /// the job's priority queue is at its bound. Inconsistent jobs (a
    /// seed plan or chunk size on a kind that cannot honor it, or a
    /// shot or sweep job without a [`JobSpec`] on a journaled pool,
    /// which could not be made durable) are rejected here with
    /// [`SubmitError::InvalidJob`] instead of being silently ignored or
    /// run un-journaled.
    pub fn submit(&self, job: Job) -> Result<JobHandle, SubmitError> {
        self.submit_inner(job, None)
    }

    /// Re-enqueues a job recovery rebuilt, *preserving its journaled id*
    /// so handles, journal records, and any serving-layer registry keep
    /// naming the same job across the crash. For jobs the pool cannot
    /// rebuild itself — [`RecoveredState::NeedsResubmit`] — the layer
    /// that understands the opaque payload reconstructs the job and
    /// re-enters it here. No new submission record is written (the
    /// original one is already durable), and the job is admitted past
    /// the queue bound instead of bouncing: recovery re-enqueues a
    /// backlog the bound was never sized for (it is already in memory,
    /// replayed from the journal), and rejecting durable work would
    /// silently lose it.
    pub fn resubmit_recovered(&self, id: JobId, job: Job) -> Result<JobHandle, SubmitError> {
        self.submit_inner(job, Some(id))
    }

    /// Whether this pool journals spec-carrying jobs.
    pub fn journaled(&self) -> bool {
        self.shared.journal.is_some()
    }

    fn submit_inner(&self, job: Job, fixed_id: Option<JobId>) -> Result<JobHandle, SubmitError> {
        let submit_start_ns = self.shared.trace.as_ref().map(|_| now_ns());
        job.validate().map_err(SubmitError::InvalidJob)?;
        let id = match fixed_id {
            Some(id) => id,
            None => self.next_id.fetch_add(1, Ordering::Relaxed),
        };
        // A journaled job writes its submission record *before* it can
        // possibly run: recovery must never see a result it has no
        // submission for. Only spec-carrying jobs on a journaled pool pay
        // this; everything else takes the allocation-free path unchanged.
        let journal = match (&self.shared.journal, &job.spec) {
            (Some(_), None) if matches!(job.kind, JobKind::Workload(_)) => {
                return Err(SubmitError::InvalidJob(DeviceError::Config(format!(
                    "{:?} job has no JobSpec; a journaled pool cannot make it durable \
                     (build it with DevicePool::job_from_spec)",
                    job.kind
                ))));
            }
            (Some(journal), Some(spec)) => {
                if fixed_id.is_none() {
                    journal
                        .append_traced(
                            &WalRecord::Submitted {
                                id,
                                priority: match job.priority {
                                    Priority::High => 1,
                                    Priority::Normal => 0,
                                },
                                client: job.client.clone(),
                                spec: spec.clone(),
                            },
                            id,
                        )
                        .map_err(|e| {
                            SubmitError::InvalidJob(DeviceError::Config(format!(
                                "journal append failed: {e}"
                            )))
                        })?;
                }
                Some(Arc::clone(journal))
            }
            _ => None,
        };
        let (events_tx, events_rx) = mpsc::channel();
        let priority = job.priority;
        let phase = Arc::new(AtomicU8::new(crate::job::PHASE_QUEUED));
        let queued = QueuedJob {
            id,
            job,
            events: events_tx,
            submitted_at: Instant::now(),
            phase: Arc::clone(&phase),
        };
        // Recovered jobs (a fixed id) are admitted past the bound.
        let bound = fixed_id.is_none().then_some(self.queue_depth);
        let Some(depth) = self.shared.queue.push(queued, bound) else {
            self.shared.metrics.rejected.inc();
            // The submission is already durable; neutralize it so
            // recovery does not resurrect a job the client was told
            // never entered the queue.
            if let Some(journal) = &journal {
                let _ = journal.append_traced(&WalRecord::Cancelled { id }, id);
            }
            return Err(SubmitError::QueueFull {
                priority,
                depth: self.queue_depth,
            });
        };
        self.shared.metrics.submitted.inc();
        self.shared.metrics.max_queue_depth.fetch_max(depth as u64);
        if let (Some(trace), Some(start_ns)) = (&self.shared.trace, submit_start_ns) {
            trace.record(SpanEvent {
                kind: SpanKind::Submit,
                label: 0,
                trace: id,
                tid: 0,
                start_ns,
                end_ns: now_ns(),
                a: match priority {
                    Priority::High => 1,
                    Priority::Normal => 0,
                },
                b: 0,
            });
        }
        Ok(JobHandle::new(id, events_rx, phase, journal))
    }

    /// Assembles `source` through the pool cache and submits it as a
    /// `shots`-shot batch — the one-call path for clients that speak
    /// assembly. Identical sources share one cached program. On a
    /// journaled pool the submission is durable: the source itself is
    /// the job's re-run description.
    pub fn submit_assembly(&self, source: &str, shots: u64) -> Result<JobHandle, SubmitError> {
        let spec = JobSpec::Shots {
            source: source.to_string(),
            shots,
            plan: None,
            chunk: 0,
        };
        let job = self
            .job_from_spec(spec)
            .map_err(|e| SubmitError::InvalidJob(e.error))?;
        self.submit(job)
    }

    /// Builds the runnable [`Job`] a shot, sweep or template-sweep
    /// [`JobSpec`] describes, assembling its sources through the pool
    /// cache, and attaches the spec so the job is durable on a journaled
    /// pool. The one place a spec becomes a job: the serving layer, the
    /// assembly path and recovery all build jobs here. An
    /// [`JobSpec::Opaque`] spec is rejected — only the layer that
    /// journaled it can rebuild it.
    pub fn job_from_spec(&self, spec: JobSpec) -> Result<Job, SpecError> {
        let cache = &self.shared.cache;
        let failed = |point| move |error| SpecError { point, error };
        let job = match &spec {
            JobSpec::Shots {
                source,
                shots,
                plan,
                chunk,
            } => {
                let (program, hit) = cache.assemble_keyed(source).map_err(failed(None))?;
                let mut job = Job::shots(program, *shots).mark_cache_hit(hit);
                if let Some((chip_base, jitter_base)) = *plan {
                    job = job.with_seed_plan(SeedPlan {
                        chip_base,
                        jitter_base,
                    });
                }
                job.with_chunk_shots(*chunk)
            }
            JobSpec::Sweep { points } => Job::sweep(
                points
                    .iter()
                    .enumerate()
                    .map(|(i, point)| {
                        let program = cache.assemble(&point.source).map_err(failed(Some(i)))?;
                        let seeds = ShotSeeds {
                            chip: point.chip,
                            jitter: point.jitter,
                        };
                        Ok((LoadedProgram::from_arc(program), seeds))
                    })
                    .collect::<Result<_, _>>()?,
            ),
            JobSpec::TemplateSweep {
                source,
                slots,
                points,
            } => Job::template_sweep(
                cache
                    .assemble_template(source, slots)
                    .map_err(failed(None))?,
                points
                    .iter()
                    .map(|point| TemplatePoint {
                        patches: point.patches.clone(),
                        seeds: ShotSeeds {
                            chip: point.chip,
                            jitter: point.jitter,
                        },
                    })
                    .collect(),
            ),
            JobSpec::Opaque { tag, .. } => {
                return Err(failed(None)(DeviceError::Config(format!(
                    "opaque '{tag}' jobs are rebuilt by the layer that journaled them"
                ))))
            }
        };
        Ok(job.with_spec(spec))
    }

    /// Submits an experiment and returns a handle typed with its output.
    pub fn submit_experiment<E>(
        &self,
        exp: E,
        cfg: E::Config,
    ) -> Result<ExperimentHandle<E::Output>, SubmitError>
    where
        E: Experiment + Send + 'static,
        E::Config: Send + 'static,
        E::Output: Send + 'static,
    {
        self.submit(Job::experiment(exp, cfg))
            .map(ExperimentHandle::new)
    }

    /// Assembles `source` through the content-hash cache (no job).
    pub fn assemble(&self, source: &str) -> Result<Arc<Program>, DeviceError> {
        self.shared.cache.assemble(source)
    }

    /// Assembles a slotted template through the content-hash cache.
    pub fn assemble_template(
        &self,
        source: &str,
        slots: &[SlotSpec],
    ) -> Result<Arc<ProgramTemplate>, DeviceError> {
        self.shared.cache.assemble_template(source, slots)
    }

    /// The shared program/template cache (e.g. for pre-warming).
    pub fn cache(&self) -> &ProgramCache {
        &self.shared.cache
    }

    /// The base device configuration jobs run on by default.
    pub fn base_config(&self) -> &DeviceConfig {
        &self.shared.base
    }

    /// Worker threads serving the pool.
    pub fn worker_count(&self) -> usize {
        self.worker_count
    }

    /// The per-class queue bound.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// A point-in-time snapshot of the pool's counters — a
    /// compatibility view assembled from the live metric handles (the
    /// histograms' sums reconstruct the old `total_*` durations).
    pub fn stats(&self) -> PoolStats {
        let journal = self
            .shared
            .journal
            .as_ref()
            .map(|j| j.stats())
            .unwrap_or_default();
        let m = &self.shared.metrics;
        PoolStats {
            workers: self.worker_count,
            submitted: m.submitted.get(),
            rejected: m.rejected.get(),
            completed: m.completed.get(),
            failed: m.failed.get(),
            cancelled: m.cancelled.get(),
            high_completed: m.high_completed.get(),
            cache_hits: self.shared.cache.hits(),
            cache_misses: self.shared.cache.misses(),
            warm_device_clones: m.warm_device_clones.get(),
            cold_device_builds: m.cold_device_builds.get(),
            warm_session_reuses: m.warm_session_reuses.get(),
            executed_shots: m.executed_shots.get(),
            recovered_jobs: m.recovered_jobs.get(),
            journal_records_written: journal.records_written,
            journal_bytes_written: journal.bytes_written,
            journal_fsyncs: journal.fsyncs,
            total_queue_wait: Duration::from_nanos(m.queue_wait.snapshot().sum),
            total_run_time: Duration::from_nanos(m.run_time.snapshot().sum),
            max_queue_depth: usize::try_from(m.max_queue_depth.get()).unwrap_or(usize::MAX),
        }
    }

    /// The metric registry every pool (and journal) handle is
    /// registered in; render it with
    /// [`Registry::render_prometheus`] or walk it for JSON.
    pub fn obs_registry(&self) -> Registry {
        self.shared.registry.clone()
    }

    /// The span-trace ring buffer, when the pool was built
    /// [`PoolConfig::with_trace`]; `None` on an untraced pool.
    pub fn trace_buffer(&self) -> Option<TraceBuffer> {
        self.shared.trace.clone()
    }

    /// Exports the trace ring buffer as Chrome trace-event JSON
    /// (load it in `chrome://tracing` or Perfetto); `None` on an
    /// untraced pool.
    pub fn trace_chrome_json(&self) -> Option<String> {
        self.shared.trace.as_ref().map(|t| t.export_chrome_json())
    }

    /// Merged snapshot of the submit-to-dispatch latency histogram.
    pub fn queue_wait_snapshot(&self) -> HistogramSnapshot {
        self.shared.metrics.queue_wait.snapshot()
    }

    /// Merged snapshot of the dispatch-to-terminal latency histogram.
    pub fn run_time_snapshot(&self) -> HistogramSnapshot {
        self.shared.metrics.run_time.snapshot()
    }

    /// Rebuilds a pool from its journal after a crash (or a plain
    /// restart): replays the write-ahead log, reconstructs every
    /// journaled job, serves finished results straight from the result
    /// log, and re-enqueues unfinished work — sweeps resume *after*
    /// their last durable checkpoint, so completed points are never
    /// re-executed.
    ///
    /// `config` must carry the journal configuration pointing at the
    /// directory of the previous run (same device/base configuration
    /// too: specs re-assemble against it). The rebuilt pool journals
    /// into the same files, so a recovered pool is itself recoverable.
    pub fn recover(config: PoolConfig) -> Result<RecoveredPool, DeviceError> {
        if config.journal.is_none() {
            return Err(DeviceError::Config(
                "DevicePool::recover needs a journal configuration".to_string(),
            ));
        }
        let pool = Self::new(config)?;
        let journal = Arc::clone(pool.shared.journal.as_ref().expect("journal configured"));
        let records = journal
            .replay()
            .map_err(|e| DeviceError::Config(format!("journal replay failed: {e}")))?;
        let replayed = replay_ledger(&records, |offset, len| {
            journal.read_reports(offset, len).ok()
        });
        // Fresh ids must never collide with journaled ones.
        let max_id = replayed.iter().map(|j| j.id).max();
        if let Some(max_id) = max_id {
            pool.next_id.store(max_id + 1, Ordering::Relaxed);
        }
        let mut jobs = Vec::with_capacity(replayed.len());
        for entry in replayed {
            let state = pool.recover_one(&entry)?;
            pool.shared.metrics.recovered_jobs.inc();
            jobs.push(RecoveredJob {
                id: entry.id,
                client: entry.client,
                priority: if entry.priority == 1 {
                    Priority::High
                } else {
                    Priority::Normal
                },
                spec: entry.spec,
                state,
            });
        }
        Ok(RecoveredPool { pool, jobs })
    }

    /// Maps one replayed ledger entry to its recovered disposition,
    /// re-enqueuing when there is work left to run.
    fn recover_one(&self, entry: &ReplayedJob) -> Result<RecoveredState, DeviceError> {
        match &entry.outcome {
            ReplayedOutcome::Cancelled => Ok(RecoveredState::Cancelled),
            ReplayedOutcome::Failed { detail } => Ok(RecoveredState::Failed(detail.clone())),
            ReplayedOutcome::Completed {
                reports: Some(reports),
            } => Ok(match &entry.spec {
                // Shots results journal as one full payload.
                JobSpec::Shots { .. } => RecoveredState::Done(JobOutput::Batch(BatchReport {
                    shots: reports.clone(),
                })),
                _ => RecoveredState::Done(JobOutput::Reports(reports.clone())),
            }),
            ReplayedOutcome::Completed { reports: None } => match &entry.spec {
                // Sweep completions are marker-only: the checkpoints
                // carry every point, so a full prefix *is* the result.
                JobSpec::Sweep { .. } | JobSpec::TemplateSweep { .. }
                    if Some(entry.prefix.len() as u64) == entry.spec.total_points() =>
                {
                    Ok(RecoveredState::Done(JobOutput::Reports(
                        entry.prefix.clone(),
                    )))
                }
                // Opaque outputs were never durable; the layer that
                // understands the tag decides whether to re-run.
                JobSpec::Opaque { tag, payload } => Ok(RecoveredState::NeedsResubmit {
                    tag: tag.clone(),
                    payload: payload.clone(),
                }),
                // A marker without its checkpoints (torn tail ate them,
                // or the completion payload failed to read): the work is
                // deterministic, so re-running is always bit-safe.
                _ => self.requeue(entry),
            },
            ReplayedOutcome::Unfinished => match &entry.spec {
                JobSpec::Opaque { tag, payload } => Ok(RecoveredState::NeedsResubmit {
                    tag: tag.clone(),
                    payload: payload.clone(),
                }),
                _ => self.requeue(entry),
            },
        }
    }

    /// Rebuilds a runnable [`Job`] from a journaled spec and re-enqueues
    /// it under its original id, resuming past checkpointed points.
    fn requeue(&self, entry: &ReplayedJob) -> Result<RecoveredState, DeviceError> {
        let mut job = self
            .job_from_spec(entry.spec.clone())
            .map_err(|e| e.error)?
            .with_client(entry.client.clone())
            .with_priority(if entry.priority == 1 {
                Priority::High
            } else {
                Priority::Normal
            });
        if entry.done > 0 {
            job.resume = Some(Resume {
                done: entry.done,
                prefix: entry.prefix.clone(),
            });
        }
        let handle = self
            .resubmit_recovered(entry.id, job)
            .map_err(|e| DeviceError::Config(format!("recovered job re-enqueue failed: {e}")))?;
        Ok(RecoveredState::Resumed(handle))
    }

    /// Graceful drain: stops accepting submissions, runs every already
    /// accepted job to completion, joins the workers, and returns the
    /// final stats snapshot.
    pub fn shutdown(mut self) -> PoolStats {
        self.drain();
        self.stats()
    }

    fn drain(&mut self) {
        // Closing stops intake; each worker keeps popping until the
        // backlog is gone, then exits.
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for DevicePool {
    /// Dropping the pool is a graceful drain too: accepted jobs finish,
    /// then workers join. Abandoning queued work requires dropping the
    /// handles, not the pool.
    fn drop(&mut self) {
        self.drain();
    }
}

/// What [`DevicePool::recover`] returns: the rebuilt pool plus every
/// journaled job's recovered disposition, sorted by id.
#[derive(Debug)]
pub struct RecoveredPool {
    /// The rebuilt pool, journaling into the same directory.
    pub pool: DevicePool,
    /// Every journaled job, in id (= submission) order.
    pub jobs: Vec<RecoveredJob>,
}

/// One journaled job as recovery reconstructed it.
#[derive(Debug)]
pub struct RecoveredJob {
    /// The job's original (and still current) pool id.
    pub id: JobId,
    /// The client id journaled at submission.
    pub client: String,
    /// The journaled scheduling class.
    pub priority: Priority,
    /// The portable re-run description journaled at submission.
    pub spec: JobSpec,
    /// What recovery could make of the job.
    pub state: RecoveredState,
}

/// The disposition of one recovered job.
#[derive(Debug)]
pub enum RecoveredState {
    /// The job finished before the crash and its full result was
    /// durable; served from the result log without re-running anything.
    Done(JobOutput),
    /// The job had work left; it is re-enqueued (under its original id)
    /// and this handle tracks it. Checkpointed sweep points are skipped
    /// — the worker prepends their journaled reports.
    Resumed(JobHandle),
    /// An opaque (experiment) job whose submission only the serving
    /// layer can reconstruct; it must decide whether to resubmit the
    /// journaled payload.
    NeedsResubmit {
        /// The tag the submitting layer journaled (e.g. the experiment
        /// kind).
        tag: String,
        /// The opaque re-submission payload it journaled.
        payload: Vec<u8>,
    },
    /// The job was durably cancelled; it stays cancelled.
    Cancelled,
    /// The job durably failed with this error text.
    Failed(String),
}
