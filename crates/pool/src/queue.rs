//! The pool's job queue: both priority classes behind one lock and one
//! condition variable.
//!
//! Submitters push under the lock (checking their class's bound) and
//! wake one worker; workers pop `High` before `Normal` and sleep while
//! both classes are empty. Closing the queue wakes every worker, and
//! each keeps popping until the backlog is gone — the graceful drain.
//! Only the pool's drain closes the queue, and it owns the pool, so no
//! submission can race it.

use crate::job::{Priority, QueuedJob};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

#[derive(Default)]
struct Classes {
    high: VecDeque<QueuedJob>,
    normal: VecDeque<QueuedJob>,
    closed: bool,
}

/// A two-class FIFO queue shared by every submitter and worker.
#[derive(Default)]
pub(crate) struct JobQueue {
    classes: Mutex<Classes>,
    ready: Condvar,
}

impl JobQueue {
    fn lock(&self) -> MutexGuard<'_, Classes> {
        self.classes.lock().expect("job queue poisoned")
    }

    /// Enqueues `job` in its class and wakes one worker, returning the
    /// class's depth after the push — or `None`, dropping the job, when
    /// the class already holds `bound` jobs. A `None` bound admits past
    /// it.
    pub(crate) fn push(&self, job: QueuedJob, bound: Option<usize>) -> Option<usize> {
        let mut classes = self.lock();
        let class = match job.job.priority {
            Priority::High => &mut classes.high,
            Priority::Normal => &mut classes.normal,
        };
        if bound.is_some_and(|bound| class.len() >= bound) {
            return None;
        }
        class.push_back(job);
        let depth = class.len();
        drop(classes);
        self.ready.notify_one();
        Some(depth)
    }

    /// Blocks until a job is queued — `High` before `Normal`, FIFO
    /// within a class — and takes it. `None` once the queue is closed
    /// and empty.
    pub(crate) fn pop(&self) -> Option<QueuedJob> {
        let mut classes = self.lock();
        loop {
            if let Some(job) = classes.high.pop_front() {
                return Some(job);
            }
            if let Some(job) = classes.normal.pop_front() {
                return Some(job);
            }
            if classes.closed {
                return None;
            }
            classes = self.ready.wait(classes).expect("job queue poisoned");
        }
    }

    /// Wakes every worker to drain what is queued; each exits once the
    /// queue is empty.
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}
