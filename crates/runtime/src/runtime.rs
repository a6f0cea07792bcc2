//! The runtime facade: submission, data registration, host access, lifecycle.

use crate::coherence::{self, Topology};
use crate::handle::{AccessMode, Data, DataHandle, PayloadBox, PayloadCell};
use crate::job::{Batch, JobConfig, JobCore, JobHandle, JobSet};
use crate::memory::{EvictionPolicy, MemoryManager};
use crate::perfmodel::PerfRegistry;
use crate::sched::{
    has_option, make_scheduler, SchedCtx, Scheduler, SchedulerKind, Timelines, WorkerClasses,
};
use crate::stats::{RuntimeStats, StatsCollector, TraceEvent};
use crate::task::{Task, TaskBuilder, TaskHandle};
use crate::worker;
use parking_lot::{ArcRwLockReadGuard, ArcRwLockWriteGuard, Condvar, Mutex, RawRwLock};
use peppher_sim::{MachineConfig, NoiseModel, VTime};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;

/// The overall optimization goal, from the application's main-module
/// descriptor ("states e.g. the target execution platform and the overall
/// optimization goal").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Minimize predicted completion time (the default).
    #[default]
    ExecTime,
    /// Minimize predicted energy: execution time × device power (+ link
    /// power during transfers). Heterogeneity makes this a different
    /// trade-off — a GPU that is 2× faster but draws 10× the power loses.
    Energy,
}

/// Runtime construction options.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// The paper's `useHistoryModels` flag: when true (default) the `dmda`
    /// scheduler learns execution-history models online; when false it
    /// falls back to prediction functions / static models.
    pub use_history: bool,
    /// Record a [`TraceEvent`] log (costs memory; used by tests and the
    /// Fig. 3 harness).
    pub enable_trace: bool,
    /// Samples required to consider a history calibrated.
    pub calibration_min: u64,
    /// Prefetch read operands to the chosen worker's memory node as soon
    /// as the scheduler places a ready task (StarPU's dmda does the same):
    /// the transfer overlaps whatever the worker is still executing.
    /// Only effective with the placing policies (dmda, dmdar).
    pub enable_prefetch: bool,
    /// The overall optimization goal `dmda` scores options by.
    pub objective: Objective,
    /// Which replicas a full device memory node evicts: LRU with
    /// MSI-aware writeback (default), or whole partition families.
    pub eviction: EvictionPolicy,
    /// Exploration rate of `dmda`/`dmdar` placement, the bandit side of
    /// online adaptation: the fraction of eligible placements diverted
    /// from the predicted-best option to an explorable (cold or stale, see
    /// `perfmodel`) one. 0 turns exploration off, leaving only the
    /// calibration round-robin for keys with no model at all.
    pub explore_epsilon: f64,
    /// Detect model drift (recent samples diverging from the model mean)
    /// and recover by decaying the affected (codelet, arch) family and
    /// thawing frozen replay schedules. On by default; turning it off
    /// restores the learned-then-frozen pre-adaptation behavior.
    pub drift_detection: bool,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            scheduler: SchedulerKind::Dmda,
            use_history: true,
            enable_trace: false,
            calibration_min: 3,
            enable_prefetch: true,
            objective: Objective::ExecTime,
            eviction: EvictionPolicy::Lru,
            explore_epsilon: 0.05,
            drift_detection: true,
        }
    }
}

/// One worker's parking spot. The token (guarded by the mutex) makes
/// wakeups lossless: a producer that sets it before the worker blocks is
/// observed by the `while !*token` recheck inside the lock, so a notify
/// can never slip between the worker's last pop attempt and its wait.
pub(crate) struct Parker {
    pub token: Mutex<bool>,
    pub cv: Condvar,
}

pub(crate) struct RuntimeInner {
    pub machine: MachineConfig,
    pub config: RuntimeConfig,
    pub topo: Topology,
    pub memory: Arc<MemoryManager>,
    pub sched: Box<dyn Scheduler>,
    pub perf: Arc<PerfRegistry>,
    pub stats: StatsCollector,
    /// Interned arch-class lookup shared with schedulers and workers.
    pub classes: WorkerClasses,
    /// Actual virtual clock per worker (lock-free monotone slots).
    pub timelines: Timelines,
    pub noise: Mutex<NoiseModel>,
    /// Job registry: the implicit default job and id allocation.
    pub jobs: JobSet,
    /// Submitted-but-unfinished task count across *all* jobs (shutdown
    /// drains on this). The condvar handshake only happens on the
    /// transition to zero, so per-task bookkeeping is one atomic op at
    /// submit and one at completion.
    pub pending: AtomicU64,
    pub done_mx: Mutex<()>,
    pub all_done: Condvar,
    pub shutdown: AtomicBool,
    /// Per-worker parking spots for targeted wakeups.
    pub parkers: Vec<Parker>,
    /// `idle[w]` is set by worker `w` just before it parks and cleared by
    /// whoever wakes it. Producers only touch the parker of a worker whose
    /// flag they successfully swapped from `true`, so a submit wakes at
    /// most one thread instead of broadcasting to all of them.
    pub idle: Vec<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Number of live user-facing `Runtime` clones (workers excluded).
    user_handles: AtomicU64,
    next_task: AtomicU64,
    next_handle: AtomicU64,
}

impl RuntimeInner {
    pub(crate) fn sched_ctx(&self) -> SchedCtx<'_> {
        SchedCtx {
            machine: &self.machine,
            perf: &self.perf,
            timelines: &self.timelines,
            topo: &self.topo,
            memory: &self.memory,
            config: &self.config,
            stats: &self.stats,
            classes: &self.classes,
        }
    }

    /// Counts `n` new tasks of `job` as pending, runtime-wide and in the
    /// job. Submission and replay seeding both count here before they
    /// release anything.
    pub(crate) fn admit(&self, job: &JobCore, n: usize) {
        self.pending.fetch_add(n as u64, Ordering::SeqCst);
        job.add_pending(n as u64);
    }

    /// Publishes tasks whose dependencies are all satisfied — the one path
    /// for submits, batch submits, replay seeds and completions.
    ///
    /// When `on` is the worker releasing them, the first task already
    /// placed on that worker (a frozen replay's) is handed back for it to
    /// run directly: no push, no wakeup, no pop (see `worker::run_one`).
    /// The rest go to the scheduler in one call — one queue lock per
    /// target queue — which keeps any placement a task carries and breaks
    /// placement ties toward `on`. Tasks it placed just now get their
    /// operands prefetched (a carried placement repeats the previous
    /// iteration's worker, so its operands are already there). Targets are
    /// woken only after every task is enqueued: a woken (or still-busy)
    /// worker drains its queue in a loop, so the first wake of a worker
    /// serves the whole batch and the rest cost one load each. `tasks` may
    /// be reordered.
    pub(crate) fn release(&self, tasks: &mut [Arc<Task>], on: Option<usize>) -> Option<Arc<Task>> {
        let next = on.and_then(|w| {
            tasks
                .iter()
                .position(|t| t.chosen.get().is_some_and(|c| c.worker == w))
        });
        if let Some(i) = next {
            // Move it to the front; the others keep their order.
            tasks[..=i].rotate_right(1);
        }
        let rest = &tasks[usize::from(next.is_some())..];
        if !rest.is_empty() {
            self.sched.push(rest, on, &self.sched_ctx());
            // Only a device node can be prefetched into.
            if self.config.enable_prefetch && self.machine.memory_nodes() > 1 {
                for task in rest.iter().filter(|t| t.chosen.take_fresh()) {
                    self.prefetch_for(task);
                }
            }
            for task in rest {
                match task.chosen.get() {
                    Some(c) => {
                        self.wake_worker(c.worker);
                    }
                    None => self.wake_any_for(task),
                }
            }
        }
        next.map(|_| Arc::clone(&tasks[0]))
    }

    /// Wakes every parked worker; [`JobHandle::cancel`] calls it before
    /// waiting for the drain, so no queued task of the cancelled job waits
    /// on a missed wakeup.
    pub(crate) fn wake_all_workers(&self) {
        for w in 0..self.idle.len() {
            self.wake_worker(w);
        }
    }

    /// Prefetch: every dependency has completed (that is what made the
    /// task ready), so its input data is final and can start moving to
    /// the placed worker's memory node right away. Eviction-aware: a
    /// prefetch that does not fit the free space is not skipped — every
    /// unpinned replica outside this task's own operand set is a victim
    /// about to free up, so the prefetch proceeds and `prepare` performs
    /// the evictions (victim writebacks naturally precede the prefetch
    /// transfer in the trace).
    fn prefetch_for(&self, task: &Task) {
        let Some(choice) = task.chosen.get() else {
            return;
        };
        let node = self.machine.worker_memory_node(choice.worker);
        if node == 0 {
            return;
        }
        let wanted: Vec<&DataHandle> = task
            .accesses
            .iter()
            .filter(|(_, m)| m.reads())
            .map(|(h, _)| h)
            .collect();
        self.fetch_pinned(node, &wanted, &task.accesses);
        // Family burst: when a read operand is one block of a partition
        // family, its sibling blocks are pulled to the same node in one
        // planned burst — siblings are used together (tiles of the same
        // band, blocks of the same gather), so fetching them now overlaps
        // compute instead of faulting them in one task at a time later.
        let mut burst: Vec<DataHandle> = Vec::new();
        for fam in wanted.iter().filter_map(|h| h.inner.family.get()) {
            for inner in fam.members.iter().filter_map(Weak::upgrade) {
                let sib = DataHandle { inner };
                let known = |h: &DataHandle| h.id() == sib.id();
                if !task.accesses.iter().any(|(h, _)| known(h)) && !burst.iter().any(known) {
                    burst.push(sib);
                }
            }
        }
        self.fetch_pinned(node, &burst, &task.accesses);
    }

    /// Makes `handles` valid on `node`, capacity honest: all of them are
    /// pinned first, so fetching one cannot evict another fetched a moment
    /// earlier, and each is fetched only if it is not valid there yet and
    /// [`MemoryManager::prefetch_fits`] next to the task's own operands.
    fn fetch_pinned<H: Borrow<DataHandle>>(
        &self,
        node: usize,
        handles: &[H],
        accesses: &[(DataHandle, AccessMode)],
    ) {
        for h in handles {
            self.memory.pin(node, h.borrow());
        }
        for h in handles.iter().map(Borrow::borrow) {
            if !h.valid_on(node) && self.memory.prefetch_fits(node, h.bytes() as u64, accesses) {
                coherence::make_valid(
                    h,
                    node,
                    AccessMode::Read,
                    &self.topo,
                    &self.stats,
                    &self.memory,
                );
            }
        }
        for h in handles {
            self.memory.unpin(node, h.borrow());
        }
    }

    /// Wakes worker `w` if it is parked (or about to park); returns whether
    /// it did. The idle flag is swap-claimed so concurrent producers pay
    /// one notify between them; the load first keeps repeated wakes of a
    /// busy worker off the flag's cache line.
    pub(crate) fn wake_worker(&self, w: usize) -> bool {
        if !(self.idle[w].load(Ordering::SeqCst) && self.idle[w].swap(false, Ordering::SeqCst)) {
            return false;
        }
        let mut token = self.parkers[w].token.lock();
        *token = true;
        self.parkers[w].cv.notify_one();
        true
    }

    /// For centrally-queued tasks (scheduler returned no target): wake one
    /// idle worker that can actually run the task. Workers that stay busy
    /// discover the task themselves on their next pop.
    fn wake_any_for(&self, task: &Task) {
        for w in 0..self.idle.len() {
            if task.runnable_on(w, self.machine.worker_is_gpu(w)) && self.wake_worker(w) {
                return;
            }
        }
    }

    /// Per-task completion accounting: the owning job's counters first
    /// (its scoped `wait` may unblock), then the global counter (shutdown
    /// and `sync_virtual_clocks` drain on it). `executed` is false for
    /// tasks drained by job cancellation.
    pub(crate) fn task_finished(&self, task: &Task, executed: bool) {
        task.job.task_finished(executed);
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Take the lock so the notify cannot race a waiter that
            // observed a non-zero count but has not blocked yet.
            let _guard = self.done_mx.lock();
            self.all_done.notify_all();
        }
    }

    /// Allocates the next task id (submission order; graph instantiation
    /// draws from the same sequence so trace ids stay unique).
    pub(crate) fn alloc_task_id(&self) -> u64 {
        self.next_task.fetch_add(1, Ordering::Relaxed)
    }
}

/// Submission-time validation shared by [`crate::JobHandle::submit`],
/// [`crate::JobHandle::submit_batch`], and graph instantiation. Panics on
/// the two task shapes no scheduler can handle, and builds nothing.
///
/// Rejected here, on the *submitting* thread: aliased writable operands
/// (two write accesses to one handle would need two exclusive guards on
/// one buffer) and tasks no worker could ever run (no implementation for
/// any worker of this machine, or a force_worker/implementation
/// mismatch). Detecting the latter later, on a worker, either killed the
/// worker (the placing schedulers assert) or hung `wait_all` forever
/// (eager silently never dispatches it).
pub(crate) fn validate_task(task: &Task, machine: &MachineConfig) {
    for (i, (h, m)) in task.accesses.iter().enumerate() {
        if m.writes() {
            for (h2, _) in task.accesses.iter().skip(i + 1) {
                assert!(
                    h2.id() != h.id(),
                    "task `{}` passes handle {} twice with a writable access",
                    task.codelet.name,
                    h.id()
                );
            }
        }
    }
    assert!(
        has_option(task, machine),
        "task for codelet `{}` has no eligible worker on this machine{}",
        task.codelet.name,
        match task.force_worker {
            Some(w) => format!(" (forced to worker {w})"),
            None => String::new(),
        }
    );
}

thread_local! {
    /// The submitting thread's dependency buffer: `record_access` appends
    /// a task's predecessors here and [`Runtime::submit_tasks`] links and
    /// drains them, so wiring allocates nothing once warm.
    static DEPS: RefCell<Vec<Arc<Task>>> = const { RefCell::new(Vec::new()) };
}

/// A running PEPPHER runtime instance: worker threads for every CPU core
/// and accelerator of the configured [`MachineConfig`].
///
/// `Runtime` is a cheap handle (`Clone` shares the same instance) so smart
/// containers and the component layer can keep a reference. The worker
/// threads stop when the last clone is dropped or [`Runtime::shutdown`] is
/// called explicitly.
///
/// See the crate-level docs for an end-to-end example.
pub struct Runtime {
    pub(crate) inner: Arc<RuntimeInner>,
}

impl Clone for Runtime {
    fn clone(&self) -> Self {
        self.inner.user_handles.fetch_add(1, Ordering::SeqCst);
        Runtime {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Runtime {
    /// Starts a runtime with default config and the given scheduler.
    pub fn new(machine: MachineConfig, scheduler: SchedulerKind) -> Self {
        Runtime::with_config(
            machine,
            RuntimeConfig {
                scheduler,
                ..RuntimeConfig::default()
            },
        )
    }

    /// Starts a runtime with explicit configuration.
    pub fn with_config(machine: MachineConfig, config: RuntimeConfig) -> Self {
        Runtime::with_shared_perf(
            machine,
            config.clone(),
            Arc::new(
                PerfRegistry::new(config.calibration_min)
                    .with_drift_detection(config.drift_detection),
            ),
        )
    }

    /// Starts a runtime reusing an existing performance-model registry —
    /// StarPU persists calibrated models across application runs; passing
    /// the registry from a previous [`Runtime`] models exactly that.
    pub fn with_shared_perf(
        machine: MachineConfig,
        config: RuntimeConfig,
        perf: Arc<PerfRegistry>,
    ) -> Self {
        let workers = machine.total_workers();
        let sched = make_scheduler(config.scheduler, &machine);
        let inner = Arc::new(RuntimeInner {
            topo: Topology::new(&machine),
            memory: Arc::new(MemoryManager::new(&machine, config.eviction)),
            sched,
            perf,
            stats: StatsCollector::new(workers, config.enable_trace),
            timelines: Timelines::new(workers),
            noise: Mutex::new(NoiseModel::new(
                machine.noise_seed,
                machine.noise_rel_stddev,
            )),
            classes: WorkerClasses::new(&machine),
            jobs: JobSet::new(),
            pending: AtomicU64::new(0),
            done_mx: Mutex::new(()),
            all_done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            parkers: (0..workers)
                .map(|_| Parker {
                    token: Mutex::new(false),
                    cv: Condvar::new(),
                })
                .collect(),
            idle: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            threads: Mutex::new(Vec::new()),
            user_handles: AtomicU64::new(1),
            next_task: AtomicU64::new(1),
            next_handle: AtomicU64::new(1),
            machine,
            config,
        });
        let threads: Vec<JoinHandle<()>> = (0..workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("peppher-worker-{w}"))
                    .spawn(move || worker::worker_loop(inner, w))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        *inner.threads.lock() = threads;
        Runtime { inner }
    }

    /// The machine this runtime drives.
    pub fn machine(&self) -> &MachineConfig {
        &self.inner.machine
    }

    /// The active configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.inner.config
    }

    /// The shared performance-model registry.
    pub fn perf(&self) -> &Arc<PerfRegistry> {
        &self.inner.perf
    }

    /// Opens a job context: a scope for submission, waiting, faults and
    /// cancellation. Tasks submitted through the returned [`JobHandle`]
    /// count toward the job's own `wait`, report their faults to it, and
    /// can be cancelled as a unit; they dispatch in the same order as
    /// every other task. `JobConfig` has no options. See the `job` module
    /// docs.
    pub fn job(&self, _cfg: JobConfig) -> JobHandle {
        JobHandle {
            rt: self.clone(),
            core: self.inner.jobs.create(),
        }
    }

    /// Job-scoped single-task submission (the implementation behind both
    /// [`crate::JobHandle::submit`] and [`TaskBuilder::submit`], which
    /// targets the implicit default job): [`Runtime::submit_tasks`] over
    /// the one task, which is all it allocates.
    pub(crate) fn submit_for(&self, job: &Arc<JobCore>, builder: TaskBuilder) -> TaskHandle {
        let mut task = Arc::new(builder.for_job(job).into_task(self.inner.alloc_task_id()));
        self.submit_tasks(job, std::slice::from_mut(&mut task));
        TaskHandle(task)
    }

    /// Job-scoped batch submission: a whole sub-graph of tasks as one unit
    /// (the implementation behind [`crate::JobHandle::submit_batch`]).
    /// Observably equivalent to submitting each builder in order — the
    /// same implicit data dependencies are recorded, including intra-batch
    /// edges — but the simultaneously-ready frontier is released in one
    /// call: one queue-lock acquisition per target queue covers the whole
    /// batch instead of one per task.
    pub(crate) fn submit_batch_for(
        &self,
        job: &Arc<JobCore>,
        builders: impl IntoIterator<Item = TaskBuilder>,
    ) -> Batch {
        let mut tasks: Vec<Arc<Task>> = builders
            .into_iter()
            .map(|b| Arc::new(b.for_job(job).into_task(self.inner.alloc_task_id())))
            .collect();
        let handles = tasks.iter().cloned().map(TaskHandle).collect();
        self.submit_tasks(job, &mut tasks);
        Batch::new(handles)
    }

    /// The one submission path: validation, admission, dependency wiring
    /// and release of the ready frontier, for one task or a batch.
    ///
    /// Validation is all-or-nothing: every task is checked *before* any
    /// side effect, so a batch containing an undispatchable codelet (or an
    /// aliased writable operand) panics without enqueuing a prefix,
    /// counting pending work, or recording any dependency edge.
    ///
    /// Dependencies are recorded in submission order, so intra-batch
    /// edges resolve exactly as sequential submits would. `link` counts
    /// each created edge on the successor *before* publishing it, and the
    /// submission guard holds every task until its own dependencies are
    /// wired. Later batch members that depend on earlier ones cannot be
    /// raced ready here — nothing from the batch executes before the
    /// release below — and an *external* predecessor completing mid-loop
    /// publishes the task through its own completion instead of this
    /// frontier (the 1→0 dependency counter transition happens exactly
    /// once). The ready tasks gather, in order, at the front of `tasks`.
    fn submit_tasks(&self, job: &JobCore, tasks: &mut [Arc<Task>]) {
        for task in tasks.iter() {
            validate_task(task, &self.inner.machine);
        }
        self.inner.admit(job, tasks.len());
        let mut ready = 0;
        DEPS.with_borrow_mut(|deps| {
            for i in 0..tasks.len() {
                let task = &tasks[i];
                for (h, mode) in &task.accesses {
                    h.record_access(task, *mode, deps);
                }
                for dep in deps.drain(..) {
                    Task::link(&dep, task);
                }
                if task.dep_satisfied() {
                    tasks.swap(ready, i);
                    ready += 1;
                }
            }
        });
        self.inner.release(&mut tasks[..ready], None);
    }

    /// Blocks until every task of the *implicit default job* has executed.
    /// Tasks submitted through an explicit [`JobHandle`] are that job's
    /// business ([`JobHandle::wait`]): one job's barrier does not block on
    /// another job's backlog (runtime-wide draining still happens in
    /// [`Runtime::shutdown`]).
    ///
    /// If a default-job task body panicked outside its kernel (a kernel
    /// panic is contained and counted in `kernel_failures` instead), the
    /// panic is re-raised here on the waiting thread — the pending counter
    /// still drains, so this reports the failure instead of deadlocking.
    /// Use [`Runtime::try_wait_all`] for a non-panicking variant.
    pub fn wait_all(&self) {
        if let Err(msg) = self.try_wait_all() {
            panic!("{msg}");
        }
    }

    /// Like [`Runtime::wait_all`] but reports an escaped task-body panic
    /// as an `Err` instead of re-raising it.
    pub fn try_wait_all(&self) -> Result<(), String> {
        self.inner.jobs.default.wait_idle();
        match self.inner.jobs.default.take_fault() {
            Some(msg) => Err(msg),
            None => Ok(()),
        }
    }

    /// Runtime-wide counter drain across all jobs, used by the
    /// non-panicking shutdown path (`Drop` must not panic) and the
    /// virtual-clock barrier.
    fn wait_pending(&self) {
        if self.inner.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut guard = self.inner.done_mx.lock();
        // Recheck under the lock: `task_finished` notifies while holding
        // `done_mx`, so a zero observed here can no longer race the wait.
        while self.inner.pending.load(Ordering::SeqCst) > 0 {
            self.inner.all_done.wait(&mut guard);
        }
    }

    /// Registers a payload; its master copy lives in main memory. The byte
    /// size used for transfer modelling and capacity accounting comes from
    /// the payload's [`Data`] impl.
    pub fn register<T: Data>(&self, v: T) -> DataHandle {
        let bytes = v.data_bytes();
        self.register_sized(v, bytes)
    }

    /// Registers an arbitrary payload with an explicit byte size, for types
    /// without a [`Data`] impl or whose modelled size differs from the
    /// payload's own.
    pub fn register_sized<T: Clone + Send + Sync + 'static>(
        &self,
        v: T,
        bytes: usize,
    ) -> DataHandle {
        self.register_owned(v, bytes, 0)
    }

    /// Registration with an owning job id (0 = untracked/default):
    /// job-owned handles' device replicas are reclaimed by
    /// [`JobHandle::cancel`].
    pub(crate) fn register_owned<T: Clone + Send + Sync + 'static>(
        &self,
        v: T,
        bytes: usize,
        job: u64,
    ) -> DataHandle {
        let id = self.inner.next_handle.fetch_add(1, Ordering::Relaxed);
        let nodes = self.inner.machine.memory_nodes();
        let memory = Arc::downgrade(&self.inner.memory);
        let h = DataHandle::new_owned(id, v, bytes, nodes, job, memory);
        // Account the master copy so node 0's high-water mark tracks the
        // registered working set (node 0 has no budget and never evicts).
        self.inner.memory.register_host(&h);
        h
    }

    /// Waits for all tasks using the handle, ensures main memory holds the
    /// latest copy, and returns the payload.
    pub fn unregister<T: Clone + Send + Sync + 'static>(&self, h: DataHandle) -> T {
        for t in h.tasks_to_wait_for(AccessMode::ReadWrite) {
            t.wait();
        }
        coherence::make_valid(
            &h,
            0,
            AccessMode::Read,
            &self.inner.topo,
            &self.inner.stats,
            &self.inner.memory,
        );
        let cell = retire(&h, &self.inner.memory);
        match Arc::try_unwrap(cell) {
            Ok(lock) => *lock
                .into_inner()
                .downcast::<T>()
                .unwrap_or_else(|_| panic!("unregister: payload type mismatch")),
            // A host guard or late kernel still holds the cell: fall back to
            // cloning the contents.
            Err(cell) => cell
                .read()
                .downcast_ref::<T>()
                .expect("unregister: payload type mismatch")
                .clone(),
        }
    }

    /// Waits for the handle's pending writer and returns a read guard over
    /// the (made-coherent) main-memory copy — the paper's implicit
    /// device-to-host copy on host access (Fig. 3, line 6).
    pub fn acquire_read<T: 'static>(&self, h: &DataHandle) -> HostReadGuard<T> {
        for t in h.tasks_to_wait_for(AccessMode::Read) {
            t.wait();
        }
        let (_, cell) = coherence::make_valid_cell(
            h,
            0,
            AccessMode::Read,
            &self.inner.topo,
            &self.inner.stats,
            &self.inner.memory,
        );
        let cell = cell.expect("acquire_read on an unregistered handle");
        HostReadGuard {
            guard: cell.read_arc(),
            _t: PhantomData,
        }
    }

    /// Waits for all tasks using the handle and returns a write guard over
    /// the main-memory copy; device replicas are invalidated (Fig. 3,
    /// line 14: "the copy in the device memory is marked outdated").
    pub fn acquire_write<T: 'static>(&self, h: &DataHandle) -> HostWriteGuard<T> {
        for t in h.tasks_to_wait_for(AccessMode::ReadWrite) {
            t.wait();
        }
        let (vready, cell) = coherence::make_valid_cell(
            h,
            0,
            AccessMode::ReadWrite,
            &self.inner.topo,
            &self.inner.stats,
            &self.inner.memory,
        );
        let cell = cell.expect("acquire_write on an unregistered handle");
        coherence::mark_written(h, 0, vready, &self.inner.stats, &self.inner.memory);
        {
            // Every prior task has completed and the host now owns the data.
            let mut st = h.inner.state.lock();
            st.last_writer = None;
            st.readers.clear();
        }
        HostWriteGuard {
            guard: cell.write_arc(),
            _t: PhantomData,
        }
    }

    /// Replaces the handle's contents with `value` wholesale — the operand
    /// *rebinding* primitive for graph replay ([`crate::graph`]).
    ///
    /// Unlike [`Runtime::acquire_write`], which first makes main memory
    /// coherent (paying a device→host transfer when the latest copy lives
    /// on a device), this declares the old contents dead: every device
    /// replica is freed with no writeback, the main-memory payload is
    /// overwritten in place, and recorded access history is cleared. `T`
    /// must be the type the handle was registered with.
    ///
    /// Waits for all tasks using the handle first, so it must not be
    /// called while a graph execution using the handle is in flight
    /// (replayed tasks do not register in the handle's access history —
    /// see the rebinding rules in DESIGN.md).
    pub fn write_discard<T: Clone + Send + Sync + 'static>(&self, h: &DataHandle, value: T) {
        for t in h.tasks_to_wait_for(AccessMode::ReadWrite) {
            t.wait();
        }
        discard(h, &self.inner.memory, |payload| {
            assert!(
                payload.is::<T>(),
                "write_discard: payload type mismatch for handle {}",
                h.id()
            );
            *payload = Box::new(value);
        });
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RuntimeStats {
        let mut snap = self.inner.stats.snapshot();
        snap.mem_high_water = self.inner.memory.high_waters();
        snap.channel_busy = self.inner.topo.channel_busy();
        let models = self.inner.perf.model_stats();
        snap.perf_keys = models.keys;
        snap.perf_keys_calibrated = models.calibrated;
        snap.perf_keys_exploring = models.exploring;
        snap.model_drifts = models.drift_events;
        snap
    }

    /// Links `handles` into a fresh block family and returns its id (ids
    /// start at 1). The partition-aware memory policy treats a family as
    /// one unit: [`EvictionPolicy::Family`] evicts a whole sibling set
    /// together and prefetch pulls a family in one planned burst. The
    /// partition containers make one family per partitioning level. A
    /// handle joins at most one family, for its whole life.
    pub fn new_family(&self, handles: &[&DataHandle]) -> u64 {
        self.inner.memory.new_family(handles)
    }

    /// The block family `h` belongs to, or 0 when it has none.
    pub fn family_of(&self, h: &DataHandle) -> u64 {
        h.family()
    }

    /// Declares that the application will not touch `h`'s device replicas
    /// again (StarPU's `starpu_data_wont_use`): they become eager-eviction
    /// candidates taken ahead of LRU order, and their bytes stop counting
    /// toward the `dmda` eviction-cost estimate. Data is *not* moved here —
    /// a Modified replica still gets exactly one writeback when eviction
    /// claims it. Any later access clears the hint.
    pub fn wont_use(&self, h: &DataHandle) {
        self.inner.memory.wont_use(h);
    }

    /// The memory subsystem (budgets, residency, high-water marks).
    pub fn memory(&self) -> &MemoryManager {
        &self.inner.memory
    }

    /// Evicts every unpinned replica from device memory node `node`,
    /// writing Modified data back to main memory first. Returns the number
    /// of replicas evicted. Exposed for diagnostics and for stress tests
    /// that inject eviction pressure at arbitrary points.
    pub fn reclaim_node(&self, node: usize) -> u64 {
        self.inner
            .memory
            .reclaim_node(node, &self.inner.topo, &self.inner.stats)
    }

    /// Copy of the event trace (empty unless `enable_trace`).
    pub fn trace(&self) -> Vec<TraceEvent> {
        self.inner.stats.trace.lock().clone()
    }

    /// The virtual makespan so far: the latest task completion time.
    pub fn makespan(&self) -> VTime {
        self.stats().makespan
    }

    /// Virtual synchronization barrier: waits for all tasks, then advances
    /// every worker and link clock to the current makespan. After this,
    /// the makespan increase caused by subsequently submitted work equals
    /// that work's true duration — benchmark harnesses use it to measure
    /// per-phase times on a long-lived runtime.
    pub fn sync_virtual_clocks(&self) -> VTime {
        // Runtime-wide: every job's clocks advance together.
        self.wait_pending();
        if let Some(msg) = self.inner.jobs.default.take_fault() {
            panic!("{msg}");
        }
        let m = self.stats().makespan;
        for w in 0..self.inner.timelines.len() {
            self.inner.timelines.advance(w, m);
        }
        self.inner.topo.advance_links(m);
        m
    }

    /// Stops all workers (idempotent). Outstanding submitted tasks are
    /// still executed before workers exit.
    pub fn shutdown(&self) {
        // Drain without re-raising a recorded fault: shutdown runs from
        // `Drop`, and panicking there during an unwind would abort. The
        // fault stays recorded for an explicit `try_wait_all` to pick up.
        self.wait_pending();
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Hand every worker a wake token so parked threads observe the
        // shutdown flag; setting it under the parker lock pairs with the
        // recheck in the worker's wait loop.
        for p in &self.inner.parkers {
            let mut token = p.token.lock();
            *token = true;
            p.cv.notify_one();
        }
        let mut threads = self.inner.threads.lock();
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        if self.inner.user_handles.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shutdown();
        }
    }
}

/// Replaces `handle`'s contents wholesale with what `write` puts in main
/// memory ([`crate::Runtime::write_discard`]): a claim at node 0, so a copy
/// in flight is discarded as stale, and every device buffer freed with no
/// writeback.
pub(crate) fn discard(
    handle: &DataHandle,
    memory: &MemoryManager,
    write: impl FnOnce(&mut PayloadBox),
) {
    let mut st = handle.inner.state.lock();
    st.claim(0)
        .expect("write_discard on an unregistered handle");
    write(&mut st.replicas[0].cell.as_ref().expect("claimed").write());
    let freed = coherence::free_devices(handle, &mut st, memory, None);
    st.last_writer = None;
    st.readers.clear();
    drop(st);
    drop(freed);
}

/// Retires `handle` ([`crate::Runtime::unregister`]), whose main-memory
/// copy is valid: every replica is freed, and the claim counts as a write
/// so that a prefetch copying meanwhile discards its copy. Returns the
/// main-memory buffer.
pub(crate) fn retire(handle: &DataHandle, memory: &MemoryManager) -> PayloadCell {
    let mut st = handle.inner.state.lock();
    // Every task using the handle has completed: drop the access history,
    // which would otherwise keep those tasks (and through their operand
    // lists, this handle) alive.
    st.last_writer = None;
    st.readers.clear();
    st.claim(0).expect("main-memory replica missing");
    let freed = coherence::free_devices(handle, &mut st, memory, None);
    let host = memory.free(handle, &mut st, 0).expect("claimed");
    drop(st);
    drop(freed);
    host
}

/// Read access to a handle's main-memory payload.
pub struct HostReadGuard<T> {
    guard: ArcRwLockReadGuard<RawRwLock, PayloadBox>,
    _t: PhantomData<T>,
}

impl<T: 'static> Deref for HostReadGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard
            .downcast_ref::<T>()
            .expect("host read guard: payload type mismatch")
    }
}

/// Write access to a handle's main-memory payload.
pub struct HostWriteGuard<T> {
    guard: ArcRwLockWriteGuard<RawRwLock, PayloadBox>,
    _t: PhantomData<T>,
}

impl<T: 'static> Deref for HostWriteGuard<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard
            .downcast_ref::<T>()
            .expect("host write guard: payload type mismatch")
    }
}

impl<T: 'static> DerefMut for HostWriteGuard<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard
            .downcast_mut::<T>()
            .expect("host write guard: payload type mismatch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::{Arch, Codelet};

    #[test]
    fn unregister_releases_the_handle_its_tasks_accessed() {
        let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Dmda);
        let c = Arc::new(Codelet::new("touch").with_impl(Arch::Cpu, |_| {}));
        let h = rt.register(vec![0u8; 64]);
        let tasks: Vec<TaskHandle> = [AccessMode::Write, AccessMode::Read, AccessMode::Read]
            .into_iter()
            .map(|mode| TaskBuilder::new(&c).access(&h, mode).submit(&rt))
            .collect();
        rt.wait_all();
        let weak = Arc::downgrade(&h.inner);
        let _: Vec<u8> = rt.unregister(h);
        drop(tasks);
        // Joining the workers drops their last references to the tasks.
        rt.shutdown();
        assert!(
            weak.upgrade().is_none(),
            "access history must not keep the handle alive"
        );
    }

    #[test]
    fn dropped_handle_returns_its_bytes() {
        let rt = Runtime::new(MachineConfig::c2050_platform(1), SchedulerKind::Dmda);
        let h = rt.register(vec![0u8; 4096]);
        assert_eq!(rt.memory().used_bytes(), vec![4096, 0]);
        drop(h);
        assert_eq!(rt.memory().used_bytes(), vec![0, 0]);
        rt.memory().validate().unwrap();
    }
}
