//! Job contexts: scopes for submission, waiting, faults and cancellation.
//!
//! The paper's composition tool schedules one application's component
//! calls at a time. A job lets several independent pieces of work share
//! one runtime without waiting on each other: a [`JobHandle`] (created
//! with [`crate::Runtime::job`]) tags every task submitted through it,
//! `wait` counts only that job's tasks, a fault is reported to the job
//! whose task raised it, and `cancel` drains everything not yet
//! dispatched without leaking device replicas.
//!
//! A job does not change dispatch order: every job's tasks share the
//! schedulers' ready queues and dispatch in `(priority desc, submission
//! order)`, exactly as the implicit default job's tasks do.

use crate::task::TaskHandle;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Construction options for a job context (see [`crate::Runtime::job`]).
/// A job has no options; the type remains so existing
/// `rt.job(JobConfig::default())` callers keep compiling.
#[derive(Debug, Clone, Default)]
pub struct JobConfig {}

/// Point-in-time counters for one job, from [`JobHandle::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobStats {
    /// Tasks submitted through the job (including graph-replay seeds).
    pub submitted: u64,
    /// Tasks that executed to completion.
    pub completed: u64,
    /// Tasks drained by [`JobHandle::cancel`] without executing.
    pub drained: u64,
    /// Submitted-but-unfinished tasks right now.
    pub pending: u64,
}

/// Shared core of one job context. Every task carries an `Arc` to its
/// owning core, so per-job accounting (pending counts, cancellation flag,
/// first fault) is one pointer chase away on the paths that need it.
pub(crate) struct JobCore {
    /// Stable id; 0 is the runtime's implicit default job, and handle
    /// ownership treats 0 as "untracked".
    pub(crate) id: u64,
    /// The process-wide detached core tasks constructed outside any
    /// runtime get (unit tests building raw tasks): completion skips all
    /// job accounting for it.
    pub(crate) detached: bool,
    /// Submitted-but-unfinished tasks of this job. Same condvar handshake
    /// as the runtime's global counter: notify only on the 1→0 edge.
    pending: AtomicU64,
    done_mx: Mutex<()>,
    all_done: Condvar,
    cancelled: AtomicBool,
    /// First out-of-kernel panic among this job's tasks, replayed graph
    /// tasks included; re-raised by the job-scoped wait
    /// ([`crate::Runtime::wait_all`] for the default job) or reported by
    /// `try_execute_many` of an instance the job owns.
    fault: Mutex<Option<String>>,
    submitted: AtomicU64,
    completed: AtomicU64,
    drained: AtomicU64,
}

impl JobCore {
    pub(crate) fn new(id: u64) -> Arc<JobCore> {
        Arc::new(JobCore {
            id,
            detached: false,
            pending: AtomicU64::new(0),
            done_mx: Mutex::new(()),
            all_done: Condvar::new(),
            cancelled: AtomicBool::new(false),
            fault: Mutex::new(None),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        })
    }

    /// The process-wide core for tasks constructed outside any runtime
    /// (raw `into_task` in unit tests). Completion skips job accounting.
    pub(crate) fn detached() -> Arc<JobCore> {
        static DETACHED: OnceLock<Arc<JobCore>> = OnceLock::new();
        Arc::clone(DETACHED.get_or_init(|| {
            let mut core = Arc::into_inner(JobCore::new(u64::MAX)).expect("fresh core is unshared");
            core.detached = true;
            Arc::new(core)
        }))
    }

    /// Counts `n` freshly submitted tasks.
    pub(crate) fn add_pending(&self, n: u64) {
        self.submitted.fetch_add(n, Ordering::Relaxed);
        self.pending.fetch_add(n, Ordering::SeqCst);
    }

    /// Completion accounting for one task: `executed` is false for tasks
    /// drained by cancellation.
    pub(crate) fn task_finished(&self, executed: bool) {
        if self.detached {
            return;
        }
        if executed {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.drained.fetch_add(1, Ordering::Relaxed);
        }
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = self.done_mx.lock();
            self.all_done.notify_all();
        }
    }

    /// Blocks until this job's pending count drains to zero.
    pub(crate) fn wait_idle(&self) {
        if self.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut guard = self.done_mx.lock();
        while self.pending.load(Ordering::SeqCst) > 0 {
            self.all_done.wait(&mut guard);
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    pub(crate) fn set_cancelled(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    pub(crate) fn record_fault(&self, msg: String) {
        if self.detached {
            return;
        }
        let mut fault = self.fault.lock();
        if fault.is_none() {
            *fault = Some(msg);
        }
    }

    pub(crate) fn take_fault(&self) -> Option<String> {
        self.fault.lock().take()
    }

    pub(crate) fn stats(&self) -> JobStats {
        JobStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            pending: self.pending.load(Ordering::SeqCst),
        }
    }
}

/// The per-runtime job registry: the implicit default job
/// [`crate::TaskBuilder::submit`] lands in and the id allocator.
pub(crate) struct JobSet {
    /// Job 0: what [`crate::TaskBuilder::submit`] submits to.
    pub(crate) default: Arc<JobCore>,
    next_id: AtomicU64,
}

impl JobSet {
    pub(crate) fn new() -> Self {
        JobSet {
            default: JobCore::new(0),
            next_id: AtomicU64::new(1),
        }
    }

    pub(crate) fn create(&self) -> Arc<JobCore> {
        JobCore::new(self.next_id.fetch_add(1, Ordering::Relaxed))
    }
}

/// A scoped submission context, created with [`crate::Runtime::job`].
/// Cloning shares the same job. Dropping every clone does **not** cancel
/// outstanding work.
///
/// ```no_run
/// # use peppher_runtime::{Runtime, SchedulerKind, JobConfig, Codelet, Arch, TaskBuilder};
/// # use std::sync::Arc;
/// # let rt = Runtime::new(peppher_sim::MachineConfig::cpu_only(2), SchedulerKind::Eager);
/// # let codelet = Arc::new(Codelet::new("noop").with_impl(Arch::Cpu, |_| {}));
/// let job = rt.job(JobConfig::default());
/// let t = job.submit(TaskBuilder::new(&codelet));
/// job.wait(); // waits for this job's tasks only
/// # t.wait();
/// ```
#[derive(Clone)]
pub struct JobHandle {
    pub(crate) rt: crate::Runtime,
    pub(crate) core: Arc<JobCore>,
}

impl JobHandle {
    /// Stable job id (0 is the runtime's implicit default job).
    pub fn id(&self) -> u64 {
        self.core.id
    }

    /// The runtime this job submits to.
    pub fn runtime(&self) -> &crate::Runtime {
        &self.rt
    }

    /// Submits one task under this job.
    pub fn submit(&self, builder: crate::TaskBuilder) -> TaskHandle {
        self.rt.submit_for(&self.core, builder)
    }

    /// Submits a whole sub-graph of tasks as one unit under this job:
    /// all-or-nothing validation, then the frontier is released in one
    /// call (see DESIGN.md §5e).
    pub fn submit_batch(&self, builders: Vec<crate::TaskBuilder>) -> Batch {
        self.rt.submit_batch_for(&self.core, builders)
    }

    /// Registers a payload owned by this job: its device replicas are
    /// reclaimed by [`JobHandle::cancel`].
    pub fn register<T: crate::handle::Data>(&self, v: T) -> crate::DataHandle {
        let bytes = v.data_bytes();
        self.register_sized(v, bytes)
    }

    /// Registers an arbitrary payload with an explicit byte size, owned by
    /// this job (see [`JobHandle::register`]).
    pub fn register_sized<T: Clone + Send + Sync + 'static>(
        &self,
        v: T,
        bytes: usize,
    ) -> crate::DataHandle {
        self.rt.register_owned(v, bytes, self.core.id)
    }

    /// Instantiates a recorded [`crate::graph::TaskGraph`] under this job:
    /// replay iterations count toward the job's `wait` and cancellation,
    /// and their faults are the job's.
    pub fn instantiate(&self, graph: &crate::graph::TaskGraph) -> crate::graph::GraphInstance {
        graph.instantiate_for(&self.rt, &self.core)
    }

    /// Blocks until every task submitted through this job has finished.
    /// Only this job's tasks count — another job's backlog does not
    /// block the wait. Re-raises the first out-of-kernel panic among this
    /// job's tasks, like [`crate::Runtime::wait_all`].
    pub fn wait(&self) {
        self.core.wait_idle();
        if let Some(msg) = self.core.take_fault() {
            panic!("{msg}");
        }
    }

    /// Like [`JobHandle::wait`] but reports an escaped task-body panic as
    /// an `Err` instead of re-raising it.
    pub fn try_wait(&self) -> Result<(), String> {
        self.core.wait_idle();
        match self.core.take_fault() {
            Some(msg) => Err(msg),
            None => Ok(()),
        }
    }

    /// Cancels the job: tasks not yet dispatched are drained (completed
    /// without executing, so dependents unwind instead of hanging),
    /// in-flight tasks finish normally, and every device replica of the
    /// job's registered data is evicted afterwards — no replica bytes or
    /// pins leak. Blocks until the drain finishes; returns the number of
    /// tasks drained without executing.
    ///
    /// Work submitted through the job *after* cancellation is accepted
    /// but drained the same way.
    pub fn cancel(&self) -> u64 {
        self.core.set_cancelled();
        // Parked workers must wake to drain the job's queued tasks.
        self.rt.inner.wake_all_workers();
        self.core.wait_idle();
        self.rt
            .inner
            .memory
            .reclaim_job(self.core.id, &self.rt.inner.topo, &self.rt.inner.stats);
        self.core.stats().drained
    }

    /// Whether [`JobHandle::cancel`] was called.
    pub fn is_cancelled(&self) -> bool {
        self.core.is_cancelled()
    }

    /// Point-in-time counters for this job.
    pub fn stats(&self) -> JobStats {
        self.core.stats()
    }

    /// This job's task events from the runtime trace (requires
    /// [`crate::RuntimeConfig::enable_trace`]).
    pub fn trace(&self) -> Vec<crate::TraceEvent> {
        crate::stats::trace_for_job(&self.rt.inner.stats.trace.lock(), self.core.id)
    }
}

/// The handles of one [`JobHandle::submit_batch`] call, with
/// batch-level joins. Dereferences to `[TaskHandle]`, so indexing and
/// iteration work like a bare `Vec`.
pub struct Batch {
    handles: Vec<TaskHandle>,
}

impl Batch {
    pub(crate) fn new(handles: Vec<TaskHandle>) -> Self {
        Batch { handles }
    }

    /// Blocks until every task in the batch has completed.
    pub fn wait(&self) {
        for h in &self.handles {
            h.wait();
        }
    }

    /// Whether every task in the batch has completed, without blocking.
    pub fn try_wait(&self) -> bool {
        self.handles.iter().all(|h| h.vfinish().is_some())
    }

    /// The individual task handles.
    pub fn handles(&self) -> &[TaskHandle] {
        &self.handles
    }

    /// Consumes the batch into its task handles.
    pub fn into_handles(self) -> Vec<TaskHandle> {
        self.handles
    }
}

impl std::ops::Deref for Batch {
    type Target = [TaskHandle];
    fn deref(&self) -> &[TaskHandle] {
        &self.handles
    }
}

impl IntoIterator for Batch {
    type Item = TaskHandle;
    type IntoIter = std::vec::IntoIter<TaskHandle>;
    fn into_iter(self) -> Self::IntoIter {
        self.handles.into_iter()
    }
}

impl<'a> IntoIterator for &'a Batch {
    type Item = &'a TaskHandle;
    type IntoIter = std::slice::Iter<'a, TaskHandle>;
    fn into_iter(self) -> Self::IntoIter {
        self.handles.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_core_skips_accounting() {
        let d = JobCore::detached();
        assert!(d.detached);
        // Must not underflow the (zero) pending counter.
        d.task_finished(true);
        d.task_finished(false);
        assert_eq!(d.stats().pending, 0);
    }
}
