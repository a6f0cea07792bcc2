//! Multi-tenant job contexts: scoped submission, weighted fair-share,
//! per-job memory quotas, and cancellation.
//!
//! The paper's composition tool schedules one application's component
//! calls at a time; a runtime serving many concurrent applications needs
//! *jobs* — per-tenant submission scopes with resource budgets and
//! fairness. A [`JobHandle`] (created with [`crate::Runtime::job`]) is the
//! scoped entry point for work: tasks submitted through it are tagged with
//! the job, `wait` counts only that job's tasks, and `cancel` drains
//! everything not yet dispatched without leaking device replicas.
//!
//! Fair-share works on dispatch order, not preemption: every ready-queue
//! pop debits the popping task's job a virtual-time quantum inversely
//! proportional to its weight, and each scheduler's per-worker (or
//! central) queue is split into per-job *lanes* — the pop boundary picks
//! the non-empty, admissible lane whose job has the minimum account
//! (deficit-round-robin over jobs). A runtime that never created a second
//! job skips all of this: lanes collapse to the single default lane and
//! the account bookkeeping is never touched, so the single-tenant hot
//! path stays at its PR-7 throughput floor.

use crate::task::TaskHandle;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Virtual-time quantum debited per dispatched task for a weight-1 job.
/// A job of weight `w` is debited `VT_QUANTUM / w`, so min-account lane
/// selection serves it `w` tasks for every one task of a weight-1 peer.
const VT_QUANTUM: u64 = 1 << 20;

/// Construction options for a job context (see [`crate::Runtime::job`]).
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Fair-share weight: relative dispatch throughput under contention.
    /// A weight-4 job gets ~4× the dispatches of a weight-1 job while both
    /// have ready work. Clamped to at least 1.
    pub weight: u32,
    /// Base priority added to every task submitted through the job
    /// (intra-lane ordering for priority-queue schedulers; fair-share
    /// across jobs is governed by `weight`, not priority).
    pub priority: i32,
    /// Optional per-device-node memory quota in bytes. When one of the
    /// job's allocations would push its footprint on a device node past
    /// the quota, the job's *own* unpinned replicas are evicted first
    /// (LRU), before any other tenant's data is touched. Soft: if
    /// everything of the job's is pinned, the allocation overcommits the
    /// quota rather than deadlocking (the global node budget still
    /// applies on top).
    pub mem_quota: Option<u64>,
    /// Optional admission cap: the maximum number of this job's tasks
    /// dispatched-but-unfinished at once. Lanes of a job at its cap are
    /// passed over by the pop boundary (best effort — concurrent workers
    /// may transiently overshoot by at most the worker count).
    pub max_in_flight: Option<u64>,
}

impl Default for JobConfig {
    fn default() -> Self {
        JobConfig {
            weight: 1,
            priority: 0,
            mem_quota: None,
            max_in_flight: None,
        }
    }
}

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
    /// Dispatched-but-unfinished tasks right now (admission-cap gauge;
    /// only maintained once the runtime has more than one job).
    pub in_flight: u64,
}

/// Shared core of one job context. Every task carries an `Arc` to its
/// owning core, so per-job accounting (pending counts, fair-share
/// account, cancellation flag) is one pointer chase away on the hot paths
/// that need it.
pub(crate) struct JobCore {
    /// Stable id; 0 is the runtime's implicit default job, and handle
    /// ownership / memory-quota tracking treats 0 as "untracked".
    pub(crate) id: u64,
    pub(crate) weight: u32,
    pub(crate) priority: i32,
    pub(crate) quota: Option<u64>,
    cap: Option<u64>,
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
    /// Fair-share virtual-time account; lanes with the minimum account
    /// pop first. Monotone per job; caught up to the global virtual
    /// clock when the job goes from idle to busy so a returning job
    /// cannot monopolize dispatch to "repay" time it was not running.
    account: AtomicU64,
    /// Dispatched-but-unfinished tasks (admission-cap gauge).
    inflight: AtomicU64,
    /// First out-of-kernel panic among this job's tasks, replayed graph
    /// tasks included; re-raised by the job-scoped wait
    /// ([`crate::Runtime::wait_all`] for the default job) or reported by
    /// `try_execute_many` of an instance the job owns.
    fault: Mutex<Option<String>>,
    /// Live user-facing [`JobHandle`] clones; when the last one drops the
    /// job is closed and its empty scheduler lanes become reclaimable.
    user_refs: AtomicU64,
    closed: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    drained: AtomicU64,
}

impl JobCore {
    pub(crate) fn new(id: u64, cfg: &JobConfig) -> Arc<JobCore> {
        Arc::new(JobCore {
            id,
            weight: cfg.weight.max(1),
            priority: cfg.priority,
            quota: cfg.mem_quota,
            cap: cfg.max_in_flight,
            detached: false,
            pending: AtomicU64::new(0),
            done_mx: Mutex::new(()),
            all_done: Condvar::new(),
            cancelled: AtomicBool::new(false),
            account: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            fault: Mutex::new(None),
            user_refs: AtomicU64::new(1),
            closed: AtomicBool::new(false),
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
            let mut core = Arc::into_inner(JobCore::new(u64::MAX, &JobConfig::default()))
                .expect("fresh core is unshared");
            core.detached = true;
            Arc::new(core)
        }))
    }

    /// Counts `n` freshly submitted tasks. Returns `true` when the job
    /// went from idle to busy (the caller catches the account up to the
    /// global virtual clock on that edge).
    pub(crate) fn add_pending(&self, n: u64) -> bool {
        self.submitted.fetch_add(n, Ordering::Relaxed);
        self.pending.fetch_add(n, Ordering::SeqCst) == 0
    }

    /// Completion accounting for one task: `executed` is false for tasks
    /// drained by cancellation, `popped` is false for self-continued
    /// (direct) graph tasks that never crossed the pop boundary.
    pub(crate) fn task_finished(&self, executed: bool, popped: bool) {
        if self.detached {
            return;
        }
        if executed {
            self.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.drained.fetch_add(1, Ordering::Relaxed);
        }
        if popped && self.cap.is_some() {
            self.inflight.fetch_sub(1, Ordering::Relaxed);
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

    /// Debits one dispatch quantum (weight-scaled) and returns the new
    /// account value for the global virtual clock.
    pub(crate) fn debit(&self) -> u64 {
        self.account
            .fetch_add(VT_QUANTUM / self.weight as u64, Ordering::Relaxed)
            + VT_QUANTUM / self.weight as u64
    }

    pub(crate) fn account(&self) -> u64 {
        self.account.load(Ordering::Relaxed)
    }

    /// Catches an idle job's account up to the global virtual clock so it
    /// resumes on par with active jobs instead of replaying its backlog.
    pub(crate) fn catch_up(&self, vclock: u64) {
        self.account.fetch_max(vclock, Ordering::Relaxed);
    }

    /// Whether the pop boundary may take another of this job's tasks.
    /// Cancelled jobs are always admissible so their queues drain.
    pub(crate) fn admissible(&self) -> bool {
        match self.cap {
            Some(cap) => self.is_cancelled() || self.inflight.load(Ordering::Relaxed) < cap,
            None => true,
        }
    }

    /// Counts one dispatch against the admission cap (no-op for uncapped
    /// jobs). Paired with the `popped` flag of [`JobCore::task_finished`].
    pub(crate) fn admit(&self) {
        if self.cap.is_some() {
            self.inflight.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the job has an admission cap at all. Completions of a
    /// capped job's tasks broadcast a wakeup: a worker that parked after
    /// seeing only inadmissible lanes must re-examine them once a slot
    /// frees up.
    pub(crate) fn capped(&self) -> bool {
        self.cap.is_some()
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
            in_flight: self.inflight.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn add_user_ref(&self) {
        self.user_refs.fetch_add(1, Ordering::SeqCst);
    }

    pub(crate) fn drop_user_ref(&self) {
        if self.user_refs.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.closed.store(true, Ordering::SeqCst);
        }
    }

    /// Whether the last [`JobHandle`] is gone — empty scheduler lanes of a
    /// closed, drained job are garbage-collected at the push boundary.
    pub(crate) fn reclaimable(&self) -> bool {
        self.closed.load(Ordering::SeqCst) && self.pending.load(Ordering::SeqCst) == 0
    }
}

/// The per-runtime job registry: the implicit default job
/// [`crate::TaskBuilder::submit`] lands in, the id allocator, the "more than one job
/// exists" fast flag, and the global fair-share virtual clock.
pub(crate) struct JobSet {
    /// Job 0: what [`crate::TaskBuilder::submit`] submits to.
    pub(crate) default: Arc<JobCore>,
    next_id: AtomicU64,
    /// Latched true by the first [`crate::Runtime::job`] call. While
    /// false, the pop boundary skips every per-job account/admission op —
    /// the single-tenant overhead is this one relaxed load.
    multi: AtomicBool,
    /// Global fair-share virtual clock: max account any job ever reached.
    /// Jobs returning from idle catch up to it.
    vclock: AtomicU64,
}

impl JobSet {
    pub(crate) fn new() -> Self {
        JobSet {
            default: JobCore::new(0, &JobConfig::default()),
            next_id: AtomicU64::new(1),
            multi: AtomicBool::new(false),
            vclock: AtomicU64::new(0),
        }
    }

    pub(crate) fn create(&self, cfg: &JobConfig) -> Arc<JobCore> {
        self.multi.store(true, Ordering::SeqCst);
        JobCore::new(self.next_id.fetch_add(1, Ordering::Relaxed), cfg)
    }

    #[inline]
    pub(crate) fn multi(&self) -> bool {
        self.multi.load(Ordering::Relaxed)
    }

    pub(crate) fn vclock(&self) -> u64 {
        self.vclock.load(Ordering::Relaxed)
    }

    pub(crate) fn advance_vclock(&self, to: u64) {
        self.vclock.fetch_max(to, Ordering::Relaxed);
    }
}

/// A scoped submission context for one tenant, created with
/// [`crate::Runtime::job`]. Cloning shares the same job. Dropping every
/// clone closes the job (its scheduler lanes are reclaimed once drained);
/// it does **not** cancel outstanding work.
///
/// ```no_run
/// # use peppher_runtime::{Runtime, SchedulerKind, JobConfig, Codelet, Arch, TaskBuilder};
/// # use std::sync::Arc;
/// # let rt = Runtime::new(peppher_sim::MachineConfig::cpu_only(2), SchedulerKind::Eager);
/// # let codelet = Arc::new(Codelet::new("noop").with_impl(Arch::Cpu, |_| {}));
/// let job = rt.job(JobConfig { weight: 4, ..JobConfig::default() });
/// let t = job.submit(TaskBuilder::new(&codelet));
/// job.wait(); // waits for this job's tasks only
/// # t.wait();
/// ```
pub struct JobHandle {
    pub(crate) rt: crate::Runtime,
    pub(crate) core: Arc<JobCore>,
}

impl Clone for JobHandle {
    fn clone(&self) -> Self {
        self.core.add_user_ref();
        JobHandle {
            rt: self.rt.clone(),
            core: Arc::clone(&self.core),
        }
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        self.core.drop_user_ref();
    }
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

    /// Registers a payload owned by this job: its device replicas count
    /// against the job's [`JobConfig::mem_quota`] and are reclaimed by
    /// [`JobHandle::cancel`].
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
    /// replay iterations count toward the job's `wait`, fair-share
    /// account, and cancellation.
    pub fn instantiate(&self, graph: &crate::graph::TaskGraph) -> crate::graph::GraphInstance {
        graph.instantiate_for(&self.rt, &self.core)
    }

    /// Blocks until every task submitted through this job has finished.
    /// Only this job's tasks count — another tenant's backlog does not
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
    fn weight_scales_the_dispatch_debit() {
        let heavy = JobCore::new(
            1,
            &JobConfig {
                weight: 4,
                ..JobConfig::default()
            },
        );
        let light = JobCore::new(2, &JobConfig::default());
        for _ in 0..4 {
            heavy.debit();
        }
        light.debit();
        assert_eq!(
            heavy.account(),
            light.account(),
            "4 dispatches at weight 4 cost as much as 1 at weight 1"
        );
    }

    #[test]
    fn catch_up_is_monotone() {
        let j = JobCore::new(1, &JobConfig::default());
        j.catch_up(100);
        assert_eq!(j.account(), 100);
        j.catch_up(50);
        assert_eq!(j.account(), 100, "catch-up never rewinds the account");
    }

    #[test]
    fn admission_cap_gates_and_releases() {
        let j = JobCore::new(
            1,
            &JobConfig {
                max_in_flight: Some(2),
                ..JobConfig::default()
            },
        );
        assert!(j.admissible());
        j.admit();
        j.admit();
        assert!(!j.admissible(), "at cap");
        j.add_pending(1);
        j.task_finished(true, true);
        assert!(j.admissible(), "completion releases an admission slot");
        // Cancelled jobs drain regardless of the cap.
        j.admit();
        j.admit();
        assert!(!j.admissible());
        j.set_cancelled();
        assert!(j.admissible());
    }

    #[test]
    fn detached_core_skips_accounting() {
        let d = JobCore::detached();
        assert!(d.detached);
        // Must not underflow the (zero) pending counter.
        d.task_finished(true, true);
        d.task_finished(false, false);
        assert_eq!(d.stats().pending, 0);
    }

    #[test]
    fn last_user_ref_closes_the_job() {
        let j = JobCore::new(1, &JobConfig::default());
        j.add_user_ref();
        j.drop_user_ref();
        assert!(!j.reclaimable(), "clone still alive");
        j.drop_user_ref();
        assert!(j.reclaimable());
        // A closed job with pending work is not reclaimable yet.
        let k = JobCore::new(2, &JobConfig::default());
        k.add_pending(1);
        k.drop_user_ref();
        assert!(!k.reclaimable());
        k.task_finished(true, true);
        assert!(k.reclaimable());
    }
}
