//! Jobs, handles, and the typed errors of the pool's serving surface.
//!
//! A [`Job`] describes one unit of client work — a derived-seed shot
//! batch, a prepared-program sweep, a patch-per-point template sweep, or
//! any [`Experiment`] — plus its scheduling attributes (priority, device
//! configuration, seed plan, chunking). Submitting one yields a
//! [`JobHandle`]: a cheap, send-able receipt with blocking
//! ([`JobHandle::wait`]) and polling ([`JobHandle::is_finished`]) result
//! access and a stream of [`ShotChunk`]s for long batches.

use crate::metrics::JobMetrics;
use quma_core::prelude::{
    BatchReport, DeviceConfig, DeviceError, LoadedProgram, RunReport, SeedPlan, Session, ShotSeeds,
    TemplatePoint, Workload,
};
use quma_experiments::prelude::{Experiment, ExperimentError};
use quma_isa::prelude::{Program, ProgramTemplate};
use quma_journal::{JobSpec, Journal, WalRecord};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{self, RecvError, TryRecvError};
use std::sync::Arc;
use std::time::Instant;

/// Identifies a submitted job within its pool (monotonically increasing
/// in submission order).
pub type JobId = u64;

/// The two scheduling classes of the pool's queue. Workers always drain
/// `High` before `Normal`; within a class, jobs run in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served before any queued `Normal` job (interactive calibration,
    /// operator probes).
    High,
    /// The default class (bulk batches, background sweeps).
    #[default]
    Normal,
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::High => write!(f, "high"),
            Priority::Normal => write!(f, "normal"),
        }
    }
}

/// The lifecycle phase of a submitted job, shared between the handle,
/// the queue, and the worker that eventually runs it.
///
/// A job moves `Queued → Running → Finished`, or jumps `Queued →
/// Cancelled` when [`JobHandle::cancel`] wins the race against worker
/// pickup. `Cancelled` is terminal: the worker that later pops the job
/// observes the phase and delivers [`JobError::Cancelled`] without ever
/// executing the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted into a queue; no worker has picked it up yet.
    Queued,
    /// A worker is executing it (cancellation can no longer stop it).
    Running,
    /// It reached a terminal result (success or failure).
    Finished,
    /// It was cancelled while still queued and will never run.
    Cancelled,
}

/// The raw atomic encoding of [`JobPhase`].
pub(crate) const PHASE_QUEUED: u8 = 0;
pub(crate) const PHASE_RUNNING: u8 = 1;
pub(crate) const PHASE_FINISHED: u8 = 2;
pub(crate) const PHASE_CANCELLED: u8 = 3;

fn decode_phase(raw: u8) -> JobPhase {
    match raw {
        PHASE_QUEUED => JobPhase::Queued,
        PHASE_RUNNING => JobPhase::Running,
        PHASE_CANCELLED => JobPhase::Cancelled,
        _ => JobPhase::Finished,
    }
}

/// The typed outcome of a [`JobHandle::cancel`] request, so callers (the
/// serving layer's `DELETE /jobs/{id}` above all) can report what
/// actually happened instead of conflating "cancelled" with "it had
/// already finished".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued and will never run; the handle resolves
    /// with [`JobError::Cancelled`]. Cancelling an already-cancelled job
    /// returns this again (cancellation is idempotent).
    Cancelled,
    /// Too late: a worker is executing the job. It runs to completion
    /// and its result stays available on the handle.
    Running,
    /// Too late: the job already reached a terminal result.
    Finished,
}

impl std::fmt::Display for CancelOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelOutcome::Cancelled => write!(f, "cancelled"),
            CancelOutcome::Running => write!(f, "already running"),
            CancelOutcome::Finished => write!(f, "already finished"),
        }
    }
}

/// Submission failure: the job never entered the queue.
#[derive(Debug)]
pub enum SubmitError {
    /// The priority level's queue is at its configured bound — the typed
    /// backpressure signal. Re-submit later, shed load, or use a deeper
    /// queue; nothing blocks.
    QueueFull {
        /// The class whose queue was full.
        priority: Priority,
        /// The configured per-class bound that was hit.
        depth: usize,
    },
    /// The job was rejected before queueing (e.g. its assembly source
    /// failed to assemble).
    InvalidJob(DeviceError),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { priority, depth } => {
                write!(f, "{priority}-priority queue is full (depth {depth})")
            }
            SubmitError::InvalidJob(e) => write!(f, "job rejected at submit: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SubmitError::InvalidJob(e) => Some(e),
            SubmitError::QueueFull { .. } => None,
        }
    }
}

/// Why [`crate::DevicePool::job_from_spec`] could not build a job: a
/// source in the spec failed to assemble (or a template's slots to
/// attach).
#[derive(Debug)]
pub struct SpecError {
    /// The sweep point whose source failed; `None` for the single
    /// source of a shot batch or template sweep.
    pub point: Option<usize>,
    /// The assembler's error.
    pub error: DeviceError,
}

/// Execution failure: the job ran (or was about to run) and failed.
#[derive(Debug)]
pub enum JobError {
    /// The device rejected the configuration or the run.
    Device(DeviceError),
    /// An experiment job failed inside the harness.
    Experiment(ExperimentError),
    /// The worker disappeared without delivering a result.
    WorkerLost,
    /// The job panicked while running; carries the panic message. The
    /// worker survives and serves the next job from pristine state.
    Panicked(String),
    /// The job was cancelled via [`JobHandle::cancel`] while still
    /// queued; it never ran.
    Cancelled,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Device(e) => write!(f, "job failed on device: {e}"),
            JobError::Experiment(e) => write!(f, "experiment job failed: {e}"),
            JobError::WorkerLost => write!(f, "worker lost before delivering a result"),
            JobError::Panicked(message) => write!(f, "job panicked: {message}"),
            JobError::Cancelled => write!(f, "job cancelled while queued; it never ran"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Device(e) => Some(e),
            JobError::Experiment(e) => Some(e),
            JobError::WorkerLost | JobError::Panicked(_) | JobError::Cancelled => None,
        }
    }
}

impl From<DeviceError> for JobError {
    fn from(e: DeviceError) -> Self {
        JobError::Device(e)
    }
}

impl From<ExperimentError> for JobError {
    fn from(e: ExperimentError) -> Self {
        JobError::Experiment(e)
    }
}

/// An [`Experiment`] erased to a uniform, `Send`-able job body, so the
/// pool can queue heterogeneous experiments without knowing their
/// config/output types.
pub(crate) trait ErasedExperiment: Send {
    /// The device the experiment wants ([`Experiment::device_config`]).
    fn device_config(&self) -> DeviceConfig;
    /// Whether it may change device parameters
    /// ([`Experiment::mutates_device`]).
    fn mutates_device(&self) -> bool;
    /// Runs the experiment on the worker's session via
    /// `harness::run_on_session`, boxing the typed output.
    fn run_erased(
        self: Box<Self>,
        session: &mut Session,
    ) -> Result<Box<dyn Any + Send>, ExperimentError>;
}

struct TypedExperiment<E: Experiment> {
    exp: E,
    cfg: E::Config,
}

impl<E> ErasedExperiment for TypedExperiment<E>
where
    E: Experiment + Send + 'static,
    E::Config: Send + 'static,
    E::Output: Send + 'static,
{
    fn device_config(&self) -> DeviceConfig {
        self.exp.device_config(&self.cfg)
    }

    fn mutates_device(&self) -> bool {
        self.exp.mutates_device()
    }

    fn run_erased(
        self: Box<Self>,
        session: &mut Session,
    ) -> Result<Box<dyn Any + Send>, ExperimentError> {
        quma_experiments::harness::run_on_session(&self.exp, &self.cfg, session, None)
            .map(|out| Box::new(out) as Box<dyn Any + Send>)
    }
}

/// What a job executes.
pub(crate) enum JobKind {
    /// A shot batch, program sweep or template sweep, run through
    /// `Session::execute` on a warm session. A shot batch without a plan
    /// of its own (see [`Job::with_seed_plan`]) takes the session's,
    /// i.e. the one its device configuration seeds.
    Workload(Workload),
    /// Any [`Experiment`], run through `harness::run_on_session`.
    Experiment(Box<dyn ErasedExperiment>),
}

impl std::fmt::Debug for JobKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobKind::Workload(work) => work.fmt(f),
            JobKind::Experiment(_) => f.debug_struct("Experiment").finish_non_exhaustive(),
        }
    }
}

/// One unit of client work plus its scheduling attributes. Build with a
/// constructor ([`Job::shots`], [`Job::sweep`], [`Job::template_sweep`],
/// [`Job::experiment`]) and refine builder-style.
#[derive(Debug)]
pub struct Job {
    pub(crate) kind: JobKind,
    pub(crate) priority: Priority,
    /// Device configuration override; `None` runs on the pool's base
    /// config (the warm path). Ignored by experiment jobs, which carry
    /// their own [`Experiment::device_config`].
    pub(crate) device: Option<DeviceConfig>,
    /// True when [`Job::with_seed_plan`] was called on a job that is not
    /// a shot batch (rejected at submit).
    pub(crate) stray_plan: bool,
    /// `Shots` jobs: emit a [`ShotChunk`] every `chunk` shots (0 = only
    /// the final result).
    pub(crate) chunk: u64,
    /// True when the job's program came out of the pool's content-hash
    /// cache (recorded into [`JobMetrics`]).
    pub(crate) cache_hit: bool,
    /// Portable re-run description. When the pool has a journal the job
    /// is journaled (submission record before enqueue,
    /// results/cancellation on completion) and survives a crash. A
    /// journaled pool rejects shot and sweep jobs without one; spec-less
    /// experiment jobs run un-journaled.
    pub(crate) spec: Option<JobSpec>,
    /// Submitting client id, journaled with the submission record.
    pub(crate) client: String,
    /// Recovery resume state: sweep points `[0, done)` were durably
    /// checkpointed before the crash; the worker skips them and prepends
    /// their journaled reports. Only `DevicePool::recover` sets this.
    pub(crate) resume: Option<Resume>,
}

/// The already-completed prefix of a recovered sweep job.
#[derive(Debug)]
pub(crate) struct Resume {
    /// Points finished before the crash.
    pub(crate) done: u64,
    /// Their reports, decoded from the result log.
    pub(crate) prefix: Vec<RunReport>,
}

impl Job {
    fn new(kind: JobKind) -> Self {
        Self {
            kind,
            priority: Priority::Normal,
            device: None,
            stray_plan: false,
            chunk: 0,
            cache_hit: false,
            spec: None,
            client: String::new(),
            resume: None,
        }
    }

    /// `shots` derived-seed shots of `program` — bit-identical to a fresh
    /// direct `Session::run_shots` with the same device config and plan.
    pub fn shots(program: Arc<Program>, shots: u64) -> Self {
        Self::new(JobKind::Workload(Workload::Shots {
            program: LoadedProgram::from_arc(program),
            plan: None,
            first: 0,
            count: shots,
        }))
    }

    /// A prepared-program sweep with explicit per-point seeds —
    /// bit-identical to a direct `Session::execute` of the same
    /// [`Workload::Sweep`].
    pub fn sweep(points: Vec<(LoadedProgram, ShotSeeds)>) -> Self {
        Self::new(JobKind::Workload(Workload::Sweep {
            points: points.into(),
        }))
    }

    /// A patch-per-point template sweep — bit-identical to a direct
    /// `Session::run_template_sweep` on a freshly loaded template.
    pub fn template_sweep(template: Arc<ProgramTemplate>, points: Vec<TemplatePoint>) -> Self {
        Self::new(JobKind::Workload(Workload::TemplateSweep {
            working: Arc::new(template.program().clone()),
            points: points.into(),
        }))
    }

    /// Any [`Experiment`] — bit-identical to a direct `harness::run`.
    /// Prefer [`crate::DevicePool::submit_experiment`], which returns a
    /// typed handle.
    pub fn experiment<E>(exp: E, cfg: E::Config) -> Self
    where
        E: Experiment + Send + 'static,
        E::Config: Send + 'static,
        E::Output: Send + 'static,
    {
        Self::new(JobKind::Experiment(Box::new(TypedExperiment { exp, cfg })))
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Shorthand for [`Priority::High`].
    pub fn high_priority(self) -> Self {
        self.with_priority(Priority::High)
    }

    /// Runs the job on `device` instead of the pool's base configuration
    /// (a warm device with the same calibration serves it, rebased to its
    /// seeds; otherwise the worker builds and keeps one). No effect on
    /// experiment jobs.
    pub fn with_device_config(mut self, device: DeviceConfig) -> Self {
        self.device = Some(device);
        self
    }

    /// Overrides the seed plan of a `Shots` job (deterministic replay
    /// with client-chosen seeds). Only meaningful on [`Job::shots`] jobs
    /// — sweep points carry explicit seeds and experiments derive their
    /// own — so submitting any other kind with a plan is rejected with
    /// `SubmitError::InvalidJob`.
    pub fn with_seed_plan(mut self, plan: SeedPlan) -> Self {
        match &mut self.kind {
            JobKind::Workload(Workload::Shots { plan: own, .. }) => *own = Some(plan),
            _ => self.stray_plan = true,
        }
        self
    }

    /// Streams a [`ShotChunk`] through the handle every `chunk` completed
    /// shots of a `Shots` job (0 = only the final [`BatchReport`]; a
    /// chunk covering the whole batch still streams one chunk). Chunking
    /// never changes the result: successive batches continue the seed
    /// sequence. Only meaningful on [`Job::shots`] jobs; submitting any
    /// other kind with a chunk size is rejected with
    /// `SubmitError::InvalidJob`.
    pub fn with_chunk_shots(mut self, chunk: u64) -> Self {
        self.chunk = chunk;
        self
    }

    /// Attaches the portable re-run description that makes this job
    /// durable on a journaled pool: the submission is journaled before
    /// enqueue and the result on completion, so `DevicePool::recover`
    /// can serve or re-run it after a crash. The spec must describe the
    /// same work as the job; [`crate::DevicePool::job_from_spec`] builds
    /// both from one description, and the pool trusts, and journals,
    /// what it is given.
    pub fn with_spec(mut self, spec: JobSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Tags the job with the submitting client's id (journaled, and
    /// surfaced again by recovery).
    pub fn with_client(mut self, client: impl Into<String>) -> Self {
        self.client = client.into();
        self
    }

    /// Records whether the job's program came out of the pool's
    /// [`ProgramCache`](crate::cache::ProgramCache) — a hit flag of
    /// `ProgramCache::compile` — for [`JobMetrics::cache_hit`]. Changes
    /// no counter: the cache counted the lookup itself.
    ///
    /// [`JobMetrics::cache_hit`]: crate::metrics::JobMetrics::cache_hit
    pub fn mark_cache_hit(mut self, hit: bool) -> Self {
        self.cache_hit = hit;
        self
    }

    /// Rejects attribute combinations the worker would otherwise
    /// silently ignore: seed plans and chunk sizes only apply to `Shots`
    /// jobs, and device overrides never apply to experiments (which
    /// carry their own [`Experiment::device_config`]).
    pub(crate) fn validate(&self) -> Result<(), DeviceError> {
        if !matches!(self.kind, JobKind::Workload(Workload::Shots { .. })) {
            if self.stray_plan {
                return Err(DeviceError::Config(format!(
                    "a seed plan only applies to shot-batch jobs, not {:?}",
                    self.kind
                )));
            }
            if self.chunk != 0 {
                return Err(DeviceError::Config(format!(
                    "chunked streaming only applies to shot-batch jobs, not {:?}",
                    self.kind
                )));
            }
        }
        if matches!(self.kind, JobKind::Experiment(_)) && self.device.is_some() {
            return Err(DeviceError::Config(
                "experiment jobs define their own device config; \
                 with_device_config does not apply"
                    .to_string(),
            ));
        }
        Ok(())
    }
}

/// A contiguous run of completed shots streamed mid-job.
#[derive(Debug, Clone)]
pub struct ShotChunk {
    /// Index of the first shot in this chunk within the job's batch.
    pub first_shot: u64,
    /// The completed shots, in shot order.
    pub reports: Vec<RunReport>,
}

/// A finished job's payload.
pub enum JobOutput {
    /// A `Shots` job's batch, in shot order.
    Batch(BatchReport),
    /// A sweep job's reports, in point order.
    Reports(Vec<RunReport>),
    /// An experiment job's typed output, boxed; downcast with
    /// [`JobOutput::downcast`] (or use the typed [`ExperimentHandle`]).
    Experiment(Box<dyn Any + Send>),
}

impl std::fmt::Debug for JobOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobOutput::Batch(b) => f.debug_tuple("Batch").field(&b.len()).finish(),
            JobOutput::Reports(r) => f.debug_tuple("Reports").field(&r.len()).finish(),
            JobOutput::Experiment(_) => f.debug_tuple("Experiment").finish(),
        }
    }
}

impl JobOutput {
    /// The batch of a `Shots` job (`None` for other kinds).
    pub fn into_batch(self) -> Option<BatchReport> {
        match self {
            JobOutput::Batch(b) => Some(b),
            _ => None,
        }
    }

    /// The reports of a sweep job (`None` for other kinds; a `Shots`
    /// batch also unwraps, preserving shot order).
    pub fn into_reports(self) -> Option<Vec<RunReport>> {
        match self {
            JobOutput::Reports(r) => Some(r),
            JobOutput::Batch(b) => Some(b.shots),
            JobOutput::Experiment(_) => None,
        }
    }

    /// Downcasts an experiment job's output to its concrete type.
    pub fn downcast<T: 'static>(self) -> Option<T> {
        match self {
            JobOutput::Experiment(any) => any.downcast::<T>().ok().map(|b| *b),
            _ => None,
        }
    }
}

/// What workers push through a handle's event channel.
pub(crate) enum JobEvent {
    /// A mid-job chunk of completed shots.
    Chunk(ShotChunk),
    /// The terminal event: result plus the job's metrics.
    Done {
        result: Result<JobOutput, JobError>,
        metrics: JobMetrics,
    },
}

/// A job queued inside the pool: the job, its identity, and the event
/// channel back to the handle.
pub(crate) struct QueuedJob {
    pub(crate) id: JobId,
    pub(crate) job: Job,
    pub(crate) events: mpsc::Sender<JobEvent>,
    pub(crate) submitted_at: Instant,
    /// Lifecycle phase shared with the handle (see [`JobPhase`]).
    pub(crate) phase: Arc<AtomicU8>,
}

/// The client's receipt for a submitted job: poll it, block on it, or
/// stream its shot chunks. Dropping a handle abandons the result (the
/// job still runs; its events go nowhere).
#[derive(Debug)]
pub struct JobHandle {
    id: JobId,
    events: mpsc::Receiver<JobEvent>,
    chunks: VecDeque<ShotChunk>,
    outcome: Option<(Result<JobOutput, JobError>, Option<JobMetrics>)>,
    /// Lifecycle phase shared with the queue and the worker.
    phase: Arc<AtomicU8>,
    /// Present for journaled jobs: a won cancellation race is a durable
    /// fact (recovery must not re-run the job), so the handle writes the
    /// `Cancelled` record itself — the worker only learns of the
    /// cancellation later, when it pops the job.
    journal: Option<Arc<Journal>>,
}

impl JobHandle {
    pub(crate) fn new(
        id: JobId,
        events: mpsc::Receiver<JobEvent>,
        phase: Arc<AtomicU8>,
        journal: Option<Arc<Journal>>,
    ) -> Self {
        Self {
            id,
            events,
            chunks: VecDeque::new(),
            outcome: None,
            phase,
            journal,
        }
    }

    /// The pool-assigned job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The job's current lifecycle phase. Queued jobs can still be
    /// cancelled; running jobs cannot. This is a point-in-time read —
    /// a `Queued` answer may be stale by the time the caller acts on
    /// it, but [`JobHandle::cancel`] resolves the race atomically.
    pub fn phase(&self) -> JobPhase {
        decode_phase(self.phase.load(Ordering::SeqCst))
    }

    /// Requests cancellation and reports what actually happened, as a
    /// typed [`CancelOutcome`]: `Cancelled` only when the job was still
    /// queued (it will never run; the handle resolves with
    /// [`JobError::Cancelled`]), `Running` / `Finished` when the request
    /// came too late. Cancellation never blocks and is idempotent —
    /// cancelling an already-cancelled job reports `Cancelled` again.
    pub fn cancel(&mut self) -> CancelOutcome {
        match self.phase.compare_exchange(
            PHASE_QUEUED,
            PHASE_CANCELLED,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => {
                // First cancel of a journaled job: make it durable so a
                // recovered pool holds the cancellation instead of
                // re-running the work. Best-effort — the in-memory
                // cancellation already won either way.
                if let Some(journal) = &self.journal {
                    let _ = journal.append(&WalRecord::Cancelled { id: self.id });
                }
                CancelOutcome::Cancelled
            }
            Err(PHASE_CANCELLED) => CancelOutcome::Cancelled,
            Err(PHASE_RUNNING) => CancelOutcome::Running,
            Err(_) => CancelOutcome::Finished,
        }
    }

    fn absorb(&mut self, event: JobEvent) {
        match event {
            JobEvent::Chunk(chunk) => self.chunks.push_back(chunk),
            JobEvent::Done { result, metrics } => self.outcome = Some((result, Some(metrics))),
        }
    }

    /// Drains whatever events have already arrived, without blocking.
    fn pump(&mut self) {
        while self.outcome.is_none() {
            match self.events.try_recv() {
                Ok(event) => self.absorb(event),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    self.outcome = Some((Err(JobError::WorkerLost), None));
                }
            }
        }
    }

    /// Polling result access: true once the terminal result is in (or the
    /// worker side vanished).
    pub fn is_finished(&mut self) -> bool {
        self.pump();
        self.outcome.is_some()
    }

    /// The next streamed chunk that has already arrived, if any
    /// (non-blocking; never consumes the terminal result).
    pub fn try_next_chunk(&mut self) -> Option<ShotChunk> {
        self.pump();
        self.chunks.pop_front()
    }

    /// Blocks until the next streamed chunk, returning `None` once the
    /// job has finished (or the worker vanished) with no chunks pending.
    pub fn next_chunk(&mut self) -> Option<ShotChunk> {
        loop {
            if let Some(chunk) = self.chunks.pop_front() {
                return Some(chunk);
            }
            if self.outcome.is_some() {
                return None;
            }
            match self.events.recv() {
                Ok(event) => self.absorb(event),
                Err(RecvError) => {
                    self.outcome = Some((Err(JobError::WorkerLost), None));
                }
            }
        }
    }

    /// The job's metrics, once finished (always present for jobs that
    /// completed or failed on a worker; absent after a lost worker).
    pub fn metrics(&mut self) -> Option<&JobMetrics> {
        self.pump();
        self.outcome
            .as_ref()
            .and_then(|(_, metrics)| metrics.as_ref())
    }

    /// Blocks until the job finishes and returns its result (the
    /// polling twin is `if handle.is_finished() { handle.wait() }` —
    /// `wait` returns immediately once `is_finished` is true). Pending
    /// chunks are discarded; use [`JobHandle::next_chunk`] first to
    /// consume the stream.
    pub fn wait(mut self) -> Result<JobOutput, JobError> {
        while self.outcome.is_none() {
            match self.events.recv() {
                Ok(event) => self.absorb(event),
                Err(RecvError) => {
                    self.outcome = Some((Err(JobError::WorkerLost), None));
                }
            }
        }
        self.outcome.take().expect("outcome present").0
    }
}

/// A [`JobHandle`] that remembers the experiment's output type, so
/// [`ExperimentHandle::wait`] returns `E::Output` directly instead of a
/// boxed [`JobOutput::Experiment`].
#[derive(Debug)]
pub struct ExperimentHandle<T> {
    inner: JobHandle,
    _output: std::marker::PhantomData<fn() -> T>,
}

impl<T: 'static> ExperimentHandle<T> {
    pub(crate) fn new(inner: JobHandle) -> Self {
        Self {
            inner,
            _output: std::marker::PhantomData,
        }
    }

    /// The pool-assigned job id.
    pub fn id(&self) -> JobId {
        self.inner.id()
    }

    /// Polling result access (see [`JobHandle::is_finished`]).
    pub fn is_finished(&mut self) -> bool {
        self.inner.is_finished()
    }

    /// The job's current lifecycle phase (see [`JobHandle::phase`]).
    pub fn phase(&self) -> JobPhase {
        self.inner.phase()
    }

    /// Requests cancellation (see [`JobHandle::cancel`]). A cancelled
    /// experiment's [`ExperimentHandle::wait`] resolves with
    /// [`JobError::Cancelled`].
    pub fn cancel(&mut self) -> CancelOutcome {
        self.inner.cancel()
    }

    /// The job's metrics, once finished (see [`JobHandle::metrics`]).
    pub fn metrics(&mut self) -> Option<&JobMetrics> {
        self.inner.metrics()
    }

    /// Blocks until the experiment finishes and returns its typed output.
    pub fn wait(self) -> Result<T, JobError> {
        let output = self.inner.wait()?;
        Ok(output
            .downcast::<T>()
            .expect("experiment output type is fixed at submission"))
    }

    /// Unwraps the untyped handle.
    pub fn into_inner(self) -> JobHandle {
        self.inner
    }
}
