//! The job service: the one domain object behind the HTTP routes.
//!
//! [`JobService`] owns the device pool, the per-client quota ledger, and
//! a record of every job it has submitted (or recovered from the
//! journal) on a client's behalf. Its methods speak in client ids,
//! request bodies, job ids and JSON documents, and fail with a typed
//! [`ServiceError`]; `From<ServiceError> for ProblemJson` is the one
//! table that turns a failure into an HTTP problem document.
//!
//! The pool hands back a [`JobHandle`] per submission; the service owns
//! those handles and *pumps* them lazily — every touch of a job (status
//! poll, result fetch, chunk read, listing) drains whatever events the
//! handle has buffered. No background reaper thread exists: a job whose
//! client never polls simply keeps its events buffered in the handle's
//! channel, exactly as an un-served pool client would.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::json::{Json, ParseError};
use crate::quota::{Quota, QuotaLedger};
use crate::wire::{self, FieldError};
use quma_pool::prelude::{
    CancelOutcome, JobError, JobHandle, JobId, JobOutput, JobPhase, ShotChunk, SubmitError,
};
use quma_pool::{DevicePool, JobSpec, RecoveredPool, RecoveredState};

/// Why a service call failed. Each variant is one row of the
/// error→problem table.
#[derive(Debug)]
pub(crate) enum ServiceError {
    /// No job with this id.
    UnknownJob(JobId),
    /// The result of a job that is still queued or running.
    NotFinished { id: JobId, phase: &'static str },
    /// The result of a job cancelled while queued.
    NoResult(JobId),
    /// A cancel of a job that is already cancelled.
    AlreadyCancelled(JobId),
    /// A cancel of a job that is already running.
    AlreadyRunning(JobId),
    /// A cancel of a job that already finished (or failed).
    AlreadyFinished { id: JobId, phase: &'static str },
    /// The result of a job whose execution failed.
    JobFailed { id: JobId, detail: String },
    /// The client's token bucket is empty; retry after this many seconds.
    QuotaExhausted { client: String, retry_after: u64 },
    /// The request body is not UTF-8.
    NotUtf8,
    /// The request body is not JSON.
    NotJson(ParseError),
    /// The submission document has an invalid field.
    Invalid(FieldError),
    /// The pool refused the job.
    Rejected(SubmitError),
}

/// A job's terminal state as the service remembers it once the handle
/// has been consumed.
enum Outcome {
    /// Finished successfully; the rendered result document.
    Done(Json),
    /// Failed; the error detail served as a `job_failed` problem.
    Failed(String),
    /// Cancelled while queued; it never ran.
    Cancelled,
}

/// One served job.
struct Record {
    kind: &'static str,
    experiment: Option<&'static str>,
    client: String,
    /// Live handle; `None` once the terminal event has been consumed.
    handle: Option<JobHandle>,
    /// Streamed chunks, already encoded, in arrival order.
    chunks: Vec<Json>,
    outcome: Option<Outcome>,
    metrics: Option<Json>,
}

impl Record {
    fn new(kind: &'static str, experiment: Option<&'static str>, client: String) -> Self {
        Self {
            kind,
            experiment,
            client,
            handle: None,
            chunks: Vec::new(),
            outcome: None,
            metrics: None,
        }
    }

    /// Drains buffered events from the handle: accumulates chunks and,
    /// when the terminal event has arrived, consumes the handle into an
    /// [`Outcome`].
    fn pump(&mut self) {
        let Some(handle) = self.handle.as_mut() else {
            return;
        };
        while let Some(chunk) = handle.try_next_chunk() {
            self.chunks.push(wire::encode_chunk(&chunk));
        }
        if !handle.is_finished() {
            return;
        }
        // `is_finished` buffered the Done event, so metrics are ready
        // and `wait` returns without blocking.
        self.metrics = handle.metrics().map(wire::encode_metrics);
        let handle = self.handle.take().expect("handle present");
        self.outcome = Some(match handle.wait() {
            Ok(output) => Outcome::Done(wire::encode_output(output)),
            Err(JobError::Cancelled) => Outcome::Cancelled,
            Err(e) => Outcome::Failed(e.to_string()),
        });
    }

    /// The lifecycle phase as a wire string.
    fn phase_str(&self) -> &'static str {
        match (&self.outcome, self.handle.as_ref().map(JobHandle::phase)) {
            (Some(Outcome::Done(_)), _) => "finished",
            (Some(Outcome::Failed(_)), _) => "failed",
            (Some(Outcome::Cancelled), _) => "cancelled",
            (None, Some(JobPhase::Queued)) => "queued",
            (None, Some(JobPhase::Running)) => "running",
            (None, Some(JobPhase::Finished)) => "finished",
            (None, Some(JobPhase::Cancelled)) => "cancelled",
            (None, None) => "finished",
        }
    }

    /// The compact status document (`GET /jobs/{id}` and list entries).
    fn status_json(&self, id: JobId) -> Json {
        let mut pairs = vec![
            ("id".to_string(), Json::uint(id)),
            ("kind".to_string(), Json::str(self.kind)),
            ("phase".to_string(), Json::str(self.phase_str())),
            ("client".to_string(), Json::str(self.client.clone())),
            (
                "chunks_available".to_string(),
                Json::uint(self.chunks.len() as u64),
            ),
        ];
        if let Some(name) = self.experiment {
            pairs.insert(2, ("experiment".to_string(), Json::str(name)));
        }
        if let Some(metrics) = &self.metrics {
            pairs.push(("metrics".to_string(), metrics.clone()));
        }
        if let Some(Outcome::Failed(detail)) = &self.outcome {
            pairs.push(("error".to_string(), Json::str(detail.clone())));
        }
        Json::Obj(pairs)
    }
}

/// The job records by id, plus registration order for stable
/// pagination.
#[derive(Default)]
struct Jobs {
    records: HashMap<JobId, Record>,
    order: Vec<JobId>,
}

impl Jobs {
    fn insert(&mut self, id: JobId, record: Record) {
        self.order.push(id);
        self.records.insert(id, record);
    }
}

/// The job service: the pool, the quota ledger, and the job records.
pub(crate) struct JobService {
    pool: DevicePool,
    ledger: Option<QuotaLedger>,
    jobs: Mutex<Jobs>,
}

impl JobService {
    /// A service over a fresh pool, enforcing `quota` when set.
    pub(crate) fn new(pool: DevicePool, quota: Option<Quota>) -> Self {
        Self {
            pool,
            ledger: quota.map(Quota::ledger),
            jobs: Mutex::default(),
        }
    }

    /// A service over a pool rebuilt by [`DevicePool::recover`], holding
    /// a record for every journaled job under its *original* id:
    /// finished results re-rendered from the result log, durable
    /// cancellations and failures as terminal states, and unfinished
    /// work as the resumed handle. Opaque (experiment) jobs are
    /// re-submitted through the same wire parser that built them.
    pub(crate) fn recover(recovered: RecoveredPool, quota: Option<Quota>) -> Self {
        let RecoveredPool { pool, jobs } = recovered;
        let mut records = Jobs::default();
        for job in jobs {
            let experiment = match &job.spec {
                JobSpec::Opaque { tag, .. } => ["allxy", "qec"].into_iter().find(|&n| n == *tag),
                _ => None,
            };
            let mut record = Record::new(job.spec.kind(), experiment, job.client);
            match job.state {
                RecoveredState::Done(output) => {
                    record.chunks = recovered_chunks(&job.spec, &output);
                    record.outcome = Some(Outcome::Done(wire::encode_output(output)));
                }
                RecoveredState::Resumed(handle) => record.handle = Some(handle),
                RecoveredState::Cancelled => record.outcome = Some(Outcome::Cancelled),
                RecoveredState::Failed(detail) => record.outcome = Some(Outcome::Failed(detail)),
                RecoveredState::NeedsResubmit { payload, .. } => {
                    match resubmit(&pool, job.id, &payload, &record.client) {
                        Ok(handle) => record.handle = Some(handle),
                        Err(detail) => record.outcome = Some(Outcome::Failed(detail)),
                    }
                }
            }
            records.insert(job.id, record);
        }
        Self {
            jobs: Mutex::new(records),
            ..Self::new(pool, quota)
        }
    }

    /// The pool the service submits to.
    pub(crate) fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// `POST /jobs`: quota, then UTF-8, then JSON, then the submission
    /// schema, then the pool. Returns the new job's id and status
    /// document.
    pub(crate) fn submit(&self, client: &str, body: &[u8]) -> Result<(JobId, Json), ServiceError> {
        if let Some(ledger) = &self.ledger {
            ledger
                .admit(client)
                .map_err(|retry_after| ServiceError::QuotaExhausted {
                    client: client.to_string(),
                    retry_after,
                })?;
        }
        let body = std::str::from_utf8(body).map_err(|_| ServiceError::NotUtf8)?;
        let doc = Json::parse(body).map_err(ServiceError::NotJson)?;
        let submission = wire::parse_submission(&doc, &self.pool).map_err(ServiceError::Invalid)?;
        // Tag the job with its client so a journaled submission record (and
        // any recovery of it) carries the same attribution the record does.
        let handle = self
            .pool
            .submit(submission.job.with_client(client))
            .map_err(ServiceError::Rejected)?;
        let id = handle.id();
        let mut record = Record::new(submission.kind, submission.experiment, client.to_string());
        record.handle = Some(handle);
        let status = record.status_json(id);
        self.jobs
            .lock()
            .expect("job records poisoned")
            .insert(id, record);
        Ok((id, status))
    }

    /// Looks `id` up, pumps its handle, and runs `f` on the record.
    fn with_job<T>(
        &self,
        id: JobId,
        f: impl FnOnce(&mut Record) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let mut jobs = self.jobs.lock().expect("job records poisoned");
        let record = jobs
            .records
            .get_mut(&id)
            .ok_or(ServiceError::UnknownJob(id))?;
        record.pump();
        f(record)
    }

    /// `GET /jobs/{id}`: the status document.
    pub(crate) fn status(&self, id: JobId) -> Result<Json, ServiceError> {
        self.with_job(id, |record| Ok(record.status_json(id)))
    }

    /// `GET /jobs/{id}/result`: the result document of a finished job.
    pub(crate) fn result(&self, id: JobId) -> Result<Json, ServiceError> {
        self.with_job(id, |record| match &record.outcome {
            Some(Outcome::Done(doc)) => Ok(doc.clone()),
            Some(Outcome::Failed(detail)) => Err(ServiceError::JobFailed {
                id,
                detail: detail.clone(),
            }),
            Some(Outcome::Cancelled) => Err(ServiceError::NoResult(id)),
            None => Err(ServiceError::NotFinished {
                id,
                phase: record.phase_str(),
            }),
        })
    }

    /// `GET /jobs/{id}/chunks?from=`: everything streamed so far from
    /// chunk index `from`, plus whether the stream is complete.
    pub(crate) fn chunks(&self, id: JobId, from: usize) -> Result<Json, ServiceError> {
        self.with_job(id, |record| {
            Ok(Json::obj([
                ("id", Json::uint(id)),
                ("from", Json::uint(from as u64)),
                (
                    "chunks",
                    Json::Arr(record.chunks.iter().skip(from).cloned().collect()),
                ),
                ("total", Json::uint(record.chunks.len() as u64)),
                ("complete", Json::Bool(record.outcome.is_some())),
            ]))
        })
    }

    /// `DELETE /jobs/{id}`: typed cancel. `Ok` only for the request that
    /// actually cancels the queued job; a repeat cancel — or one against
    /// a job recovered as cancelled — is [`ServiceError::AlreadyCancelled`],
    /// because a durable cancellation is a terminal state, not a
    /// repeatable action.
    pub(crate) fn cancel(&self, id: JobId) -> Result<Json, ServiceError> {
        self.with_job(id, |record| {
            let already_cancelled = matches!(record.outcome, Some(Outcome::Cancelled))
                || record
                    .handle
                    .as_ref()
                    .is_some_and(|h| h.phase() == JobPhase::Cancelled);
            if already_cancelled {
                return Err(ServiceError::AlreadyCancelled(id));
            }
            let outcome = match (&record.outcome, record.handle.as_mut()) {
                (Some(_), _) | (None, None) => CancelOutcome::Finished,
                (None, Some(handle)) => handle.cancel(),
            };
            match outcome {
                CancelOutcome::Cancelled => {
                    record.pump();
                    Ok(Json::obj([
                        ("id", Json::uint(id)),
                        ("cancelled", Json::Bool(true)),
                    ]))
                }
                CancelOutcome::Running => Err(ServiceError::AlreadyRunning(id)),
                CancelOutcome::Finished => Err(ServiceError::AlreadyFinished {
                    id,
                    phase: record.phase_str(),
                }),
            }
        })
    }

    /// `GET /jobs?limit=&offset=`: a stable page over submission order.
    pub(crate) fn list(&self, limit: usize, offset: usize) -> Json {
        let mut jobs = self.jobs.lock().expect("job records poisoned");
        let Jobs { records, order } = &mut *jobs;
        let page = order
            .iter()
            .skip(offset)
            .take(limit)
            .map(|id| {
                let record = records.get_mut(id).expect("every ordered id has a record");
                record.pump();
                record.status_json(*id)
            })
            .collect();
        Json::obj([
            ("jobs", Json::Arr(page)),
            ("total", Json::uint(order.len() as u64)),
            ("limit", Json::uint(limit as u64)),
            ("offset", Json::uint(offset as u64)),
        ])
    }

    /// Jobs tracked (all lifecycle states).
    pub(crate) fn len(&self) -> usize {
        self.jobs.lock().expect("job records poisoned").order.len()
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
fn resubmit(
    pool: &DevicePool,
    id: JobId,
    payload: &[u8],
    client: &str,
) -> Result<JobHandle, String> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| "journaled submission payload is not UTF-8".to_string())?;
    let doc =
        Json::parse(text).map_err(|e| format!("journaled submission failed to parse: {e}"))?;
    let submission = wire::parse_submission(&doc, pool)
        .map_err(|e| format!("journaled submission failed to validate: {}", e.detail))?;
    pool.resubmit_recovered(id, submission.job.with_client(client))
        .map_err(|e| format!("recovered job re-enqueue failed: {e}"))
}
