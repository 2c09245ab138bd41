//! Per-job metrics and the pool-wide stats snapshot.

use crate::job::{JobId, Priority};
use quma_obs::{Counter, Gauge, Histogram, Registry};
use std::time::Duration;

/// What one job cost, measured by the worker that ran it and delivered
/// with the terminal event (see `JobHandle::metrics`).
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// The job.
    pub id: JobId,
    /// Its scheduling class.
    pub priority: Priority,
    /// Index of the worker that ran it.
    pub worker: usize,
    /// Global dispatch order: the pool-wide sequence number assigned
    /// when a worker picked the job up. A high-priority job submitted
    /// while normal jobs queue behind a busy pool dispatches with a
    /// smaller sequence than those normal jobs — the observable form of
    /// the priority guarantee.
    pub dispatch_seq: u64,
    /// Time spent queued (submit → dispatch).
    pub queue_wait: Duration,
    /// Time spent running on the worker.
    pub run_time: Duration,
    /// True when the pool resolved this job's program from the
    /// content-hash cache *at submission* — a
    /// `DevicePool::submit_assembly` call whose source was already
    /// cached, or a job marked with `Job::mark_cache_hit` from a
    /// `ProgramCache::compile` hit (the served `qec` experiment). Jobs
    /// built from other pre-assembled `Arc`s (including ones a separate
    /// `pool.assemble` call fetched from the cache) report `false` here;
    /// pool-wide cache accounting lives in [`PoolStats::cache_hits`].
    pub cache_hit: bool,
}

/// The pool's live counters, gauges, and latency histograms — all
/// lock-free atomic handles, registered under `quma_pool_*` family
/// names at construction. This replaced the old `Mutex<StatsInner>`:
/// workers bump counters and record histograms without ever contending
/// on a stats lock, and [`PoolStats`] is assembled from snapshots at
/// read time.
#[derive(Debug)]
pub(crate) struct PoolMetrics {
    pub submitted: Counter,
    pub rejected: Counter,
    pub completed: Counter,
    pub failed: Counter,
    pub cancelled: Counter,
    pub high_completed: Counter,
    pub warm_device_clones: Counter,
    pub cold_device_builds: Counter,
    pub warm_session_reuses: Counter,
    pub executed_shots: Counter,
    pub recovered_jobs: Counter,
    /// Worker threads serving the pool (constant per pool).
    pub workers: Gauge,
    /// High-water mark of queue depth at submit time.
    pub max_queue_depth: Gauge,
    /// Submit → dispatch latency of finished jobs, nanoseconds.
    pub queue_wait: Histogram,
    /// Dispatch → terminal-state latency of finished jobs, nanoseconds.
    pub run_time: Histogram,
}

impl PoolMetrics {
    /// Creates every handle and registers it in `registry`.
    pub(crate) fn new(registry: &Registry) -> Self {
        let c = |name: &str, help: &str| registry.counter(name, help);
        Self {
            submitted: c(
                "quma_pool_jobs_submitted_total",
                "Jobs accepted into a queue",
            ),
            rejected: c(
                "quma_pool_jobs_rejected_total",
                "Submissions bounced with QueueFull backpressure",
            ),
            completed: c(
                "quma_pool_jobs_completed_total",
                "Jobs finished successfully",
            ),
            failed: c("quma_pool_jobs_failed_total", "Jobs finished with an error"),
            cancelled: c(
                "quma_pool_jobs_cancelled_total",
                "Jobs cancelled while queued (never ran)",
            ),
            high_completed: c(
                "quma_pool_jobs_high_completed_total",
                "Completed jobs that were high priority",
            ),
            warm_device_clones: c(
                "quma_pool_warm_device_clones_total",
                "Jobs served by cloning a warm device",
            ),
            cold_device_builds: c(
                "quma_pool_cold_device_builds_total",
                "Jobs that forced a cold Device::new (a calibration not yet warm)",
            ),
            warm_session_reuses: c(
                "quma_pool_warm_session_reuses_total",
                "Workload and non-mutating experiment jobs served on an already-warm session",
            ),
            executed_shots: c(
                "quma_pool_executed_shots_total",
                "Shots and sweep points actually executed by workers",
            ),
            recovered_jobs: c(
                "quma_pool_recovered_jobs_total",
                "Jobs reconstructed from the journal by recovery",
            ),
            workers: registry.gauge("quma_pool_workers", "Worker threads serving the pool"),
            max_queue_depth: registry.gauge(
                "quma_pool_max_queue_depth",
                "Deepest any queue got at submit time",
            ),
            queue_wait: registry.histogram(
                "quma_pool_queue_wait_seconds",
                "Submit-to-dispatch latency of finished jobs",
            ),
            run_time: registry.histogram(
                "quma_pool_run_seconds",
                "Dispatch-to-terminal latency of finished jobs",
            ),
        }
    }
}

/// A point-in-time snapshot of the pool's counters
/// (`DevicePool::stats`). Cheap to take; safe to take while jobs run.
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Worker threads serving the pool.
    pub workers: usize,
    /// Jobs accepted into a queue.
    pub submitted: u64,
    /// Submissions bounced with `SubmitError::QueueFull`.
    pub rejected: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with an error.
    pub failed: u64,
    /// Jobs cancelled while queued (they never ran; see
    /// `JobHandle::cancel`).
    pub cancelled: u64,
    /// Completed jobs that were high priority.
    pub high_completed: u64,
    /// Cache lookups served without assembling.
    pub cache_hits: u64,
    /// Cache lookups that had to assemble or compile.
    pub cache_misses: u64,
    /// Jobs served by cloning a warm device.
    pub warm_device_clones: u64,
    /// Jobs that forced a cold `Device::new` (calibration not yet warm
    /// on that worker; a seed-only difference never forces one).
    pub cold_device_builds: u64,
    /// Workload jobs and non-mutating experiments served on an
    /// already-warm session — no device clone at all.
    pub warm_session_reuses: u64,
    /// Shots (and sweep points — each point is one shot) actually
    /// executed by workers. After a journal recovery this is *less*
    /// than the submitted work implies: durably checkpointed points are
    /// served from the result log and never re-run, and the difference
    /// is exactly how much execution the journal saved.
    pub executed_shots: u64,
    /// Jobs reconstructed from the journal by `DevicePool::recover`
    /// (every journaled job, whatever its recovered state).
    pub recovered_jobs: u64,
    /// Frames the journal has appended across both of its files
    /// (0 when the pool runs without a journal).
    pub journal_records_written: u64,
    /// Bytes the journal has appended, frame headers included.
    pub journal_bytes_written: u64,
    /// Explicit `fsync` calls the journal has issued.
    pub journal_fsyncs: u64,
    /// Summed queue latency across finished jobs.
    pub total_queue_wait: Duration,
    /// Summed run time across finished jobs.
    pub total_run_time: Duration,
    /// Deepest any queue got at submit time.
    pub max_queue_depth: usize,
}

impl PoolStats {
    /// Jobs that reached a terminal state.
    pub fn finished(&self) -> u64 {
        self.completed + self.failed
    }

    /// Mean time a finished job spent queued. Computed in u64
    /// nanoseconds — `Duration`'s `Div<u32>` would silently clamp the
    /// divisor at `u32::MAX` finished jobs and report inflated means
    /// past that point.
    pub fn mean_queue_wait(&self) -> Duration {
        mean_duration(self.total_queue_wait, self.finished())
    }

    /// Mean time a finished job spent running (u64 nanosecond math;
    /// see [`PoolStats::mean_queue_wait`]).
    pub fn mean_run_time(&self) -> Duration {
        mean_duration(self.total_run_time, self.finished())
    }
}

/// `total / n` in u64 nanoseconds. Totals above `u64::MAX` ns (~584
/// years) saturate before dividing; `n == 0` yields zero.
fn mean_duration(total: Duration, n: u64) -> Duration {
    if n == 0 {
        return Duration::ZERO;
    }
    let total_ns = u64::try_from(total.as_nanos()).unwrap_or(u64::MAX);
    Duration::from_nanos(total_ns / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(
        finished: u64,
        total_queue_wait: Duration,
        total_run_time: Duration,
    ) -> PoolStats {
        PoolStats {
            workers: 1,
            submitted: finished,
            rejected: 0,
            completed: finished,
            failed: 0,
            cancelled: 0,
            high_completed: 0,
            cache_hits: 0,
            cache_misses: 0,
            warm_device_clones: 0,
            cold_device_builds: 0,
            warm_session_reuses: 0,
            executed_shots: 0,
            recovered_jobs: 0,
            journal_records_written: 0,
            journal_bytes_written: 0,
            journal_fsyncs: 0,
            total_queue_wait,
            total_run_time,
            max_queue_depth: 0,
        }
    }

    #[test]
    fn mean_is_exact_past_the_u32_saturation_boundary() {
        // More finished jobs than a u32 can hold: the old
        // `Duration / u32` implementation clamped the divisor at
        // u32::MAX, so a pool that finished 10 * u32::MAX jobs at
        // 1 µs each reported a ~10 µs mean. u64 nanosecond math stays
        // exact.
        let n = u64::from(u32::MAX) * 10;
        let stats = stats_with(
            n,
            Duration::from_nanos(n * 2_000),
            Duration::from_nanos(n * 1_000),
        );
        assert_eq!(stats.mean_queue_wait(), Duration::from_nanos(2_000));
        assert_eq!(stats.mean_run_time(), Duration::from_nanos(1_000));
    }

    #[test]
    fn mean_of_zero_finished_is_zero() {
        let stats = stats_with(0, Duration::from_secs(5), Duration::from_secs(5));
        assert_eq!(stats.mean_queue_wait(), Duration::ZERO);
        assert_eq!(stats.mean_run_time(), Duration::ZERO);
    }

    #[test]
    fn mean_matches_small_counts() {
        let stats = stats_with(4, Duration::from_micros(10), Duration::from_micros(100));
        assert_eq!(stats.mean_queue_wait(), Duration::from_nanos(2_500));
        assert_eq!(stats.mean_run_time(), Duration::from_micros(25));
    }
}
