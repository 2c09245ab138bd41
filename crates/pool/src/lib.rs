//! # quma-pool — the multi-client device-pool scheduler
//!
//! The paper's microarchitecture is organized around queues that decouple
//! slow, bursty producers from a deterministic consumer (the timing and
//! event queues of Tables 2–4). This crate applies the same shape one
//! level up, at the serving layer: many concurrent clients produce jobs —
//! shot batches, sweeps, template sweeps, whole
//! [`Experiment`](quma_experiments::harness::Experiment)s — and a pool of
//! N warm [`Session`](quma_core::engine::Session) workers consumes them
//! from one two-class priority queue (a `Mutex` over both classes and
//! one `Condvar`), without ever giving up the engine's bit-exact
//! determinism.
//!
//! ```text
//!  clients ──submit──▶ ┌ JobQueue: one Mutex + Condvar ┐       ┌─ worker 0: warm Device clones
//!     │                │  high   ≤ depth (pops first)  ├─ pop ─┼─ worker 1: warm Device clones
//!     │   QueueFull ◀──┤  normal ≤ depth               │       └─ worker N: warm Device clones
//!     │   (bound hit)  └───────────────────────────────┘
//!     └──────◀─ JobHandle: wait / poll / chunk stream ◀─ events (mpsc) ─┘
//! ```
//!
//! The three guarantees, in order of importance:
//!
//! 1. **Deterministic replay.** A pooled job's result is bit-identical
//!    to running the same work directly on one fresh `Session` —
//!    independent of worker count, scheduling order, or what ran on the
//!    worker before. Warm devices and sessions are keyed by
//!    calibration, not seed, and rebased to each job's seeds. Workload
//!    jobs and experiments that never change their device (QEC) run on
//!    a warm session the worker reuses, which is safe because every run
//!    starts from the architectural reset; experiment jobs that may
//!    mutate their device (error injection, library uploads), each run
//!    on a fresh session around a rebased clone of a pristine calibrated
//!    original, so nothing they do survives them. A job that panics
//!    fails with [`JobError::Panicked`] and its worker serves on.
//!    `tests/differential.rs` pins this for the AllXY and QEC workloads
//!    across worker counts.
//! 2. **Typed backpressure.** Both classes ([`Priority::High`] drains
//!    first) are bounded; the `depth + 1`-th waiting submission gets
//!    [`SubmitError::QueueFull`] *immediately* instead of blocking the
//!    client — the serving-layer version of the paper's bounded
//!    event-queue capacity.
//! 3. **Shared compilation.** Identical assembly/template submissions
//!    hit a content-hash [`ProgramCache`] and share one `Arc`'d program;
//!    only the first client pays the assembler. Compiler output keyed on
//!    its compile inputs ([`ProgramCache::compile`]) is shared the same
//!    way.
//!
//! Per-job [`JobMetrics`] (queue wait, run time, cache hit, dispatch
//! order) ride back on the handle, and [`DevicePool::stats`] snapshots
//! the pool-wide counters.

#![warn(missing_docs)]

pub mod cache;
pub mod job;
pub mod metrics;
mod pool;
mod queue;
mod worker;

pub use cache::{content_hash, ProgramCache, SlotSpec};
pub use job::{
    CancelOutcome, ExperimentHandle, Job, JobError, JobHandle, JobId, JobOutput, JobPhase,
    Priority, ShotChunk, SpecError, SubmitError,
};
pub use metrics::{JobMetrics, PoolStats};
pub use pool::{DevicePool, PoolConfig, RecoveredJob, RecoveredPool, RecoveredState};
pub use quma_journal::{FsyncPolicy, JobSpec, JournalConfig, JournalStats};

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::cache::{content_hash, ProgramCache, SlotSpec};
    pub use crate::job::{
        CancelOutcome, ExperimentHandle, Job, JobError, JobHandle, JobId, JobOutput, JobPhase,
        Priority, ShotChunk, SpecError, SubmitError,
    };
    pub use crate::metrics::{JobMetrics, PoolStats};
    pub use crate::pool::{DevicePool, PoolConfig, RecoveredJob, RecoveredPool, RecoveredState};
    pub use quma_journal::{FsyncPolicy, JobSpec, JournalConfig, JournalStats};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use quma_core::prelude::*;
    use quma_experiments::prelude::*;

    const SEGMENT: &str = "\
        Wait 40000\n\
        Pulse {q0}, X90\n\
        Wait 4\n\
        Pulse {q0}, X90\n\
        Wait 4\n\
        MPG {q0}, 300\n\
        MD {q0}, r7\n\
        halt\n";

    fn config() -> DeviceConfig {
        DeviceConfig {
            chip: ChipProfile::Paper,
            chip_seed: 0x9001,
            trace: TraceLevel::Off,
            ..DeviceConfig::default()
        }
    }

    #[test]
    fn pooled_shots_match_direct_session() {
        let pool = DevicePool::new(PoolConfig::new(config()).with_workers(2)).unwrap();
        let handle = pool.submit_assembly(SEGMENT, 6).unwrap();
        let batch = handle.wait().unwrap().into_batch().unwrap();
        let mut direct = Session::new(config()).unwrap();
        let loaded = direct.load_assembly(SEGMENT).unwrap();
        let want = direct.run_shots(&loaded, 6).unwrap();
        assert_eq!(batch.len(), want.len());
        for (a, b) in batch.shots.iter().zip(want.shots.iter()) {
            assert_eq!(a.registers, b.registers);
            assert_eq!(a.md_results, b.md_results);
        }
    }

    #[test]
    fn identical_submissions_share_the_cached_program() {
        let pool = DevicePool::new(PoolConfig::new(config()).with_workers(1)).unwrap();
        let a = pool.submit_assembly(SEGMENT, 1).unwrap();
        let b = pool.submit_assembly(SEGMENT, 1).unwrap();
        let (ra, rb) = (a.wait().unwrap(), b.wait().unwrap());
        assert!(ra.into_batch().is_some() && rb.into_batch().is_some());
        let stats = pool.shutdown();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn inapplicable_job_attributes_are_rejected_at_submit() {
        // A seed plan or chunk size on a kind that cannot honor it must
        // fail loudly at submit, never be silently ignored at run time.
        let pool = DevicePool::new(PoolConfig::new(config()).with_workers(1)).unwrap();
        let template = pool
            .assemble_template(SEGMENT, &[])
            .expect("template assembles");
        let plan = quma_core::prelude::SeedPlan {
            chip_base: 1,
            jitter_base: 2,
        };
        let err = pool
            .submit(Job::template_sweep(template.clone(), Vec::new()).with_seed_plan(plan))
            .unwrap_err();
        assert!(matches!(err, SubmitError::InvalidJob(_)), "{err}");
        let err = pool
            .submit(Job::template_sweep(template, Vec::new()).with_chunk_shots(4))
            .unwrap_err();
        assert!(matches!(err, SubmitError::InvalidJob(_)), "{err}");
    }

    #[test]
    fn invalid_assembly_is_rejected_at_submit() {
        let pool = DevicePool::new(PoolConfig::new(config()).with_workers(1)).unwrap();
        let err = pool.submit_assembly("not an instruction\n", 1).unwrap_err();
        assert!(matches!(err, SubmitError::InvalidJob(_)));
        assert!(err.to_string().contains("rejected"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn shutdown_drains_accepted_jobs() {
        let pool = DevicePool::new(
            PoolConfig::new(config())
                .with_workers(2)
                .with_queue_depth(64),
        )
        .unwrap();
        let handles: Vec<JobHandle> = (0..8)
            .map(|_| pool.submit_assembly(SEGMENT, 2).unwrap())
            .collect();
        let stats = pool.shutdown();
        assert_eq!(stats.submitted, 8);
        assert_eq!(stats.completed, 8);
        assert_eq!(stats.failed, 0);
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn dropped_pool_reports_worker_lost_only_if_job_never_ran() {
        // Drop semantics are drain semantics: handles resolve Ok.
        let pool = DevicePool::new(PoolConfig::new(config()).with_workers(1)).unwrap();
        let handle = pool.submit_assembly(SEGMENT, 1).unwrap();
        drop(pool);
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn cancel_of_a_queued_job_is_typed_and_terminal() {
        // One worker, one long blocker: the second job is reliably still
        // queued when we cancel it.
        let pool = DevicePool::new(PoolConfig::new(config()).with_workers(1)).unwrap();
        let blocker = pool.submit_assembly(SEGMENT, 8).unwrap();
        let mut queued = pool.submit_assembly(SEGMENT, 1).unwrap();
        assert_eq!(queued.cancel(), CancelOutcome::Cancelled);
        // Idempotent: a second cancel reports Cancelled again.
        assert_eq!(queued.cancel(), CancelOutcome::Cancelled);
        assert_eq!(queued.phase(), JobPhase::Cancelled);
        let err = queued.wait().unwrap_err();
        assert!(matches!(err, JobError::Cancelled), "{err}");
        let batch = blocker.wait().unwrap().into_batch().unwrap();
        assert_eq!(batch.len(), 8);
        let stats = pool.shutdown();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn cancel_of_a_finished_job_reports_finished() {
        let pool = DevicePool::new(PoolConfig::new(config()).with_workers(1)).unwrap();
        let mut handle = pool.submit_assembly(SEGMENT, 1).unwrap();
        while !handle.is_finished() {
            std::thread::yield_now();
        }
        assert_eq!(handle.cancel(), CancelOutcome::Finished);
        assert_eq!(handle.phase(), JobPhase::Finished);
        assert!(handle.wait().is_ok());
    }

    /// An experiment that panics inside `prepare` — a poison job.
    struct PanicExperiment;

    impl Experiment for PanicExperiment {
        type Config = ();
        type Output = ();

        fn name(&self) -> &'static str {
            "panic"
        }

        fn device_config(&self, _cfg: &()) -> DeviceConfig {
            config()
        }

        fn prepare(&self, _cfg: &(), _session: &mut Session) -> Result<(), ExperimentError> {
            panic!("poison job");
        }

        fn axes(&self, _cfg: &()) -> Result<SweepAxes, ExperimentError> {
            unreachable!("prepare panics first")
        }

        fn analyze(
            &self,
            _cfg: &(),
            _axes: &SweepAxes,
            _reports: &[RunReport],
        ) -> Result<(), ExperimentError> {
            unreachable!("prepare panics first")
        }
    }

    #[test]
    fn a_panicking_job_fails_typed_and_its_worker_serves_on() {
        // One worker: if the panic took the worker down, nothing would
        // run the next job.
        let pool = DevicePool::new(PoolConfig::new(config()).with_workers(1)).unwrap();
        let err = pool
            .submit_experiment(PanicExperiment, ())
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(
            matches!(&err, JobError::Panicked(m) if m == "poison job"),
            "{err}"
        );
        let batch = pool
            .submit_assembly(SEGMENT, 4)
            .expect("the pool still accepts work")
            .wait()
            .expect("the next job runs")
            .into_batch()
            .unwrap();
        let mut direct = Session::new(config()).unwrap();
        let loaded = direct.load_assembly(SEGMENT).unwrap();
        let want = direct.run_shots(&loaded, 4).unwrap();
        assert_eq!(batch.len(), want.len());
        for (a, b) in batch.shots.iter().zip(want.shots.iter()) {
            assert_eq!(a.registers, b.registers);
            assert_eq!(a.md_results, b.md_results);
        }
        let stats = pool.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn a_journaled_panicking_job_recovers_as_failed() {
        // The panic is a durable failure: recovery must not re-run the
        // poison job.
        let dir = std::env::temp_dir().join(format!("quma-poison-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journaled = || {
            PoolConfig::new(config())
                .with_workers(1)
                .with_journal(JournalConfig::new(&dir))
        };
        let pool = DevicePool::new(journaled()).unwrap();
        let spec = JobSpec::Opaque {
            tag: "panic".to_string(),
            payload: Vec::new(),
        };
        let err = pool
            .submit(Job::experiment(PanicExperiment, ()).with_spec(spec))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(
            matches!(&err, JobError::Panicked(m) if m == "poison job"),
            "{err}"
        );
        drop(pool);
        let recovered = DevicePool::recover(journaled()).unwrap();
        assert_eq!(recovered.jobs.len(), 1);
        match &recovered.jobs[0].state {
            RecoveredState::Failed(detail) => assert!(detail.contains("poison job"), "{detail}"),
            other => panic!("a panicked job must recover as Failed, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn job_metrics_arrive_with_the_result() {
        let pool = DevicePool::new(PoolConfig::new(config()).with_workers(1)).unwrap();
        let mut handle = pool.submit_assembly(SEGMENT, 2).unwrap();
        while !handle.is_finished() {
            std::thread::yield_now();
        }
        let metrics = handle.metrics().expect("metrics present").clone();
        assert_eq!(metrics.worker, 0);
        assert_eq!(metrics.priority, Priority::Normal);
        assert!(metrics.run_time > std::time::Duration::ZERO);
        assert!(handle.wait().is_ok());
    }
}
