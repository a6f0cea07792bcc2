//! Tasks, the submission API, and sequential-consistency dependencies.

use crate::codelet::{Arch, Codelet};
use crate::graph::instance::InstanceCore;
use crate::handle::{AccessMode, DataHandle};
use crate::job::JobCore;
use crate::perfmodel::PerfKey;
use crate::runtime::Runtime;
use crate::stats::RunId;
use parking_lot::{Condvar, Mutex};
use peppher_sim::{KernelCost, VTime};
use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// The scheduler's placement decision for a task (filled in by `dmda`;
/// greedy schedulers leave it empty and the worker decides at pop time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecChoice {
    /// Worker the scheduler placed the task on.
    pub worker: usize,
    /// Architecture of the implementation to run.
    pub arch: Arch,
    /// Predicted worker-occupancy this task added to its queue (used by
    /// `dmda` to keep its load estimates consistent at pop time).
    pub pred_delta: VTime,
}

/// Low bits of a packed [`ExecChoice`]: `worker + 1`, 0 meaning no choice.
const WORKER_MASK: u64 = 0xffff;
const ARCH_SHIFT: u32 = 16;
/// Set by [`Chosen::place`], cleared by [`Chosen::take_fresh`].
const FRESH: u64 = 1 << 18;
const DELTA_SHIFT: u32 = 19;

impl ExecChoice {
    fn pack(self) -> u64 {
        assert!(
            (self.worker as u64) < WORKER_MASK,
            "worker {} does not fit a packed placement",
            self.worker
        );
        let arch = match self.arch {
            Arch::Cpu => 0,
            Arch::CpuTeam => 1,
            Arch::Gpu => 2,
        };
        let delta = self.pred_delta.as_nanos().min(u64::MAX >> DELTA_SHIFT);
        (self.worker as u64 + 1) | arch << ARCH_SHIFT | delta << DELTA_SHIFT
    }

    fn unpack(word: u64) -> Option<ExecChoice> {
        let worker = (word & WORKER_MASK).checked_sub(1)? as usize;
        let arch = match (word >> ARCH_SHIFT) & 3 {
            0 => Arch::Cpu,
            1 => Arch::CpuTeam,
            _ => Arch::Gpu,
        };
        let pred_delta = VTime::from_nanos(word >> DELTA_SHIFT);
        Some(ExecChoice {
            worker,
            arch,
            pred_delta,
        })
    }
}

/// [`Task::chosen`]: the placement packed into one word, so that it is
/// read and written without a lock. The word holds `worker + 1` (0 when
/// there is no placement), the arch, a fresh mark and `pred_delta` in
/// nanoseconds, saturating at 2^45 (about ten hours).
#[derive(Debug, Default)]
pub struct Chosen(AtomicU64);

impl Chosen {
    /// The current placement, if any.
    pub fn get(&self) -> Option<ExecChoice> {
        ExecChoice::unpack(self.0.load(Ordering::Acquire))
    }

    /// Replaces the placement (a carried or cleared one: not fresh).
    pub fn set(&self, choice: Option<ExecChoice>) {
        self.0
            .store(choice.map_or(0, ExecChoice::pack), Ordering::Release);
    }

    /// Records a placement just decided, marked fresh, and returns it as
    /// stored: the prediction it charges is `pred_delta` after saturation,
    /// so a release of the stored value balances the charge.
    pub(crate) fn place(&self, choice: ExecChoice) -> ExecChoice {
        let word = choice.pack();
        self.0.store(word | FRESH, Ordering::Release);
        ExecChoice::unpack(word).expect("a packed placement")
    }

    /// Whether the placement was decided by the push that just released
    /// the task (see [`Chosen::place`]); clears the mark.
    pub(crate) fn take_fresh(&self) -> bool {
        self.0.fetch_and(!FRESH, Ordering::AcqRel) & FRESH != 0
    }

    /// Moves the placement to `worker`, keeping its arch, prediction and
    /// fresh mark; returns the placement it replaced.
    pub(crate) fn rebind(&self, worker: usize) -> Option<ExecChoice> {
        let to = worker as u64 + 1;
        assert!(
            to < WORKER_MASK,
            "worker {worker} does not fit a packed placement"
        );
        let old = self
            .0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                (w & WORKER_MASK != 0).then_some((w & !WORKER_MASK) | to)
            })
            .ok()?;
        ExecChoice::unpack(old)
    }
}

pub(crate) struct TaskRunState {
    pub completed: bool,
    /// A thread blocked in [`Task::wait`]: only then does completion pay
    /// for a wakeup (a futex syscall, whether or not anyone sleeps).
    pub waited: bool,
    /// Virtual completion time, valid once `completed`.
    pub vfinish: VTime,
}

/// Placement table precomputed when a task is recorded into a
/// [`crate::graph::TaskGraph`]: the eligible `(worker, arch)` options and,
/// parallel to them, the performance-model keys (codelet id × worker class
/// × footprint). Replays hand these to the scheduler so per-iteration
/// placement skips `options_for` recomputation and `PerfKey` hashing.
#[derive(Debug, Clone)]
pub struct StaticPlacement {
    /// Eligible `(worker, arch)` execution options.
    pub options: Vec<(usize, Arch)>,
    /// Performance-model key per option (same order as `options`).
    pub keys: Vec<PerfKey>,
}

impl StaticPlacement {
    /// The precomputed perf key for one `(worker, arch)` option, if that
    /// option was recorded.
    pub fn key_for(&self, worker: usize, arch: Arch) -> Option<PerfKey> {
        self.options
            .iter()
            .position(|&o| o == (worker, arch))
            .map(|i| self.keys[i])
    }
}

/// A runtime task: one codelet invocation bound to data accesses.
///
/// Tasks are non-preemptive and stateless (the paper: "PEPPHER components
/// and tasks are stateless; however, the parameter data that they operate
/// on may have state").
pub struct Task {
    /// Unique id (submission order).
    pub id: u64,
    /// The computation to run.
    pub codelet: Arc<Codelet>,
    /// Operand accesses in buffer order.
    pub accesses: Vec<(DataHandle, AccessMode)>,
    /// Work descriptor used by the virtual-time executor (and by explicit
    /// prediction functions — *not* consulted by history models).
    pub cost: KernelCost,
    /// Scalar argument pack exposed to the kernel via
    /// [`crate::KernelCtx::arg`]. Shared (`Arc`, not `Box`) so recorded
    /// graph tasks can reuse one pack across every replay iteration.
    pub arg: Option<Arc<dyn Any + Send + Sync>>,
    /// Larger = more urgent (schedulers may use it for tie-breaking).
    pub priority: i32,
    /// Pin execution to one worker (user-guided static composition and
    /// tests); `None` lets the scheduler choose.
    pub force_worker: Option<usize>,
    /// Per-task override of the runtime's `useHistoryModels` flag (§IV-G:
    /// the flag can be set per component interface); `None` inherits the
    /// runtime configuration.
    pub use_history: Option<bool>,
    /// Handles hinted dead after this task completes (the task
    /// epilogue's `wont_use`): the worker demotes their device replicas to
    /// eager-eviction candidates once the operands are unpinned.
    pub wont_use: Vec<DataHandle>,
    /// Scheduler decision, if the scheduling policy makes one at push time.
    /// A task that already carries one when it becomes ready keeps it: a
    /// frozen graph replay re-enqueues with the previous iteration's
    /// placement ([`Task::reset_for_replay`] clears it otherwise).
    pub chosen: Chosen,
    /// Placement table recorded at graph-instantiation time; `None` for
    /// ordinary submitted tasks (computed on the fly instead).
    pub(crate) placement: Option<StaticPlacement>,
    /// The owning graph instance of a recorded task, whose iteration
    /// countdown each completion advances; `None` for submitted tasks.
    /// Weak so an abandoned instance (and its handles) can be dropped even
    /// though the scheduler might still hold task Arcs.
    pub(crate) graph: Option<Weak<InstanceCore>>,
    /// Packed [`RunId`] of the replay iteration currently executing this
    /// recorded task (`u64::MAX` = none); threaded into trace events.
    pub(crate) run_tag: AtomicU64,
    /// Owning job context — per-job completion counting, fault reporting,
    /// cancellation draining. Tasks built outside a runtime get
    /// the process-wide detached core (all accounting skipped).
    pub(crate) job: Arc<JobCore>,
    /// Cached operand footprint (sum of operand bytes); operands are fixed
    /// at build time so this never changes.
    footprint: u64,
    /// Dependencies not yet satisfied, +1 submission guard.
    ndeps: AtomicUsize,
    /// Max virtual finish time (ns) over the completed predecessors.
    vdeps: AtomicU64,
    /// Dependents released when this task completes: added by
    /// [`Task::link`] for submitted tasks (dropped on completion), wired
    /// once at instantiation for recorded tasks (kept across replays).
    pub(crate) successors: Mutex<Vec<Arc<Task>>>,
    pub(crate) state: Mutex<TaskRunState>,
    pub(crate) cv: Condvar,
}

impl Task {
    /// Sum of operand sizes — the performance-model footprint, keyed by
    /// its log₂ bucket ([`crate::perfmodel::footprint_bucket`]). StarPU
    /// instead hashes each buffer's size (`starpu_task_footprint`), so
    /// tasks whose operand sizes differ but whose sums share a bucket
    /// share a history here and not there.
    pub fn footprint(&self) -> u64 {
        self.footprint
    }

    /// The graph replay iteration currently executing this task; `None`
    /// for a submitted task.
    pub fn run(&self) -> Option<RunId> {
        RunId::unpack(self.run_tag.load(Ordering::Relaxed))
    }

    /// Rewinds a recorded graph task for the next replay iteration: not
    /// completed, `preds` unsatisfied dependencies (roots get 0 — the seed
    /// pushes them directly, so no submission guard is needed), virtual
    /// times cleared, the placement dropped unless `frozen`, and the new
    /// run tag for trace events. Only called when no iteration is in
    /// flight, so no worker can observe the intermediate state.
    pub(crate) fn reset_for_replay(&self, preds: usize, run: RunId, frozen: bool) {
        {
            let mut st = self.state.lock();
            st.completed = false;
            st.vfinish = VTime::ZERO;
        }
        self.vdeps.store(0, Ordering::Relaxed);
        if !frozen {
            self.chosen.set(None);
        }
        self.ndeps.store(preds, Ordering::Release);
        self.run_tag.store(run.pack(), Ordering::Relaxed);
    }

    /// Whether `worker` (CPU if `is_gpu` is false) could execute this task
    /// with some implementation of its codelet.
    pub fn runnable_on(&self, worker: usize, worker_is_gpu: bool) -> bool {
        if let Some(fw) = self.force_worker {
            if fw != worker {
                return false;
            }
        }
        if worker_is_gpu {
            self.codelet.has_arch(Arch::Gpu)
        } else {
            self.codelet.has_arch(Arch::Cpu) || self.codelet.has_arch(Arch::CpuTeam)
        }
    }

    /// Registers `succ` as waiting on `pred`. Returns `true` if an edge was
    /// created (pred still pending); on `false` the predecessor already
    /// completed and its finish time has been folded into `succ.vdeps`.
    ///
    /// The successor's dependency counter is incremented *here*, before the
    /// edge becomes visible: the predecessor may complete (and drain its
    /// successor list, decrementing counters) the moment the edge is
    /// published, so counting afterwards would let the successor go ready
    /// while the caller is still wiring its remaining dependencies.
    pub(crate) fn link(pred: &Arc<Task>, succ: &Arc<Task>) -> bool {
        let pred_state = pred.state.lock();
        if pred_state.completed {
            let vfinish = pred_state.vfinish;
            drop(pred_state);
            succ.observe_dep(vfinish);
            false
        } else {
            succ.add_dep();
            // Keep holding pred's state lock while adding the successor so
            // completion cannot race past us.
            pred.successors.lock().push(Arc::clone(succ));
            true
        }
    }

    pub(crate) fn observe_dep(&self, pred_vfinish: VTime) {
        self.vdeps
            .fetch_max(pred_vfinish.as_nanos(), Ordering::Relaxed);
    }

    /// Max virtual finish time over the completed predecessors.
    pub(crate) fn vdeps(&self) -> VTime {
        VTime::from_nanos(self.vdeps.load(Ordering::Relaxed))
    }

    /// Decrements the dependency counter; returns `true` when the task has
    /// become ready.
    pub(crate) fn dep_satisfied(&self) -> bool {
        self.ndeps.fetch_sub(1, Ordering::AcqRel) == 1
    }

    pub(crate) fn add_dep(&self) {
        self.ndeps.fetch_add(1, Ordering::AcqRel);
    }

    /// Marks the task complete and appends the successors that became
    /// ready to `ready`.
    pub(crate) fn complete(self: &Arc<Task>, vfinish: VTime, ready: &mut Vec<Arc<Task>>) {
        let mut st = self.state.lock();
        st.completed = true;
        st.vfinish = vfinish;
        let waited = std::mem::take(&mut st.waited);
        drop(st);
        if waited {
            self.cv.notify_all();
        }

        let satisfied = |s: &Arc<Task>| {
            s.observe_dep(vfinish);
            s.dep_satisfied()
        };
        if self.graph.is_some() {
            let succs = self.successors.lock();
            ready.extend(succs.iter().filter(|s| satisfied(s)).cloned());
        } else {
            let succs = std::mem::take(&mut *self.successors.lock());
            ready.extend(succs.into_iter().filter(satisfied));
        }
    }

    /// Blocks until the task has executed.
    pub fn wait(&self) {
        let mut st = self.state.lock();
        while !st.completed {
            st.waited = true;
            self.cv.wait(&mut st);
        }
    }

    /// Virtual completion time; `None` while still pending.
    pub fn vfinish(&self) -> Option<VTime> {
        let st = self.state.lock();
        st.completed.then_some(st.vfinish)
    }
}

/// One scheduling/epilogue hint attached to a task at build time.
///
/// Hints never change what a task computes — only how the runtime treats
/// its data afterwards. Builders accept them through the shared
/// [`TaskHints`] surface so the task layer ([`TaskBuilder`]) and the
/// composition layer (`InvokeBuilder`) cannot drift apart.
#[non_exhaustive]
#[derive(Debug, Clone)]
pub enum TaskHint {
    /// The handle will not be used (on any device) after the task
    /// completes: the task epilogue demotes its device replicas to
    /// eager-eviction candidates (StarPU's `starpu_data_wont_use`).
    WontUse(DataHandle),
}

/// Shared hint-and-operand surface for task-producing builders.
///
/// Both [`TaskBuilder`] and the composition layer's `InvokeBuilder`
/// implement this, so epilogue hints like [`TaskHints::wont_use`] behave
/// identically no matter which layer submits the task.
pub trait TaskHints: Sized {
    /// Appends an operand access (buffer order matches call order).
    fn add_access(&mut self, handle: &DataHandle, mode: AccessMode);

    /// Attaches one [`TaskHint`].
    fn add_hint(&mut self, hint: TaskHint);

    /// Chained form of [`TaskHints::add_access`].
    fn with_access(mut self, handle: &DataHandle, mode: AccessMode) -> Self {
        self.add_access(handle, mode);
        self
    }

    /// Hints that `handle` will not be used after this task completes
    /// (see [`TaskHint::WontUse`]).
    fn wont_use(mut self, handle: &DataHandle) -> Self {
        self.add_hint(TaskHint::WontUse(handle.clone()));
        self
    }
}

/// A waitable reference to a submitted task — what the paper's asynchronous
/// entry-wrappers hand back so "control resumes on the calling thread
/// without waiting for the task completion".
#[derive(Clone)]
pub struct TaskHandle(pub(crate) Arc<Task>);

impl TaskHandle {
    /// Blocks until the task completes.
    pub fn wait(&self) {
        self.0.wait();
    }

    /// Virtual completion time; `None` while pending.
    pub fn vfinish(&self) -> Option<VTime> {
        self.0.vfinish()
    }

    /// The underlying task id.
    pub fn id(&self) -> u64 {
        self.0.id
    }
}

/// Fluent construction of tasks — the runtime-facing half of the paper's
/// entry-wrapper: "implements logic to translate that component call to one
/// or more tasks in the runtime system [... and] performs packing and
/// unpacking of arguments".
pub struct TaskBuilder {
    codelet: Arc<Codelet>,
    accesses: Vec<(DataHandle, AccessMode)>,
    cost: KernelCost,
    arg: Option<Arc<dyn Any + Send + Sync>>,
    priority: i32,
    force_worker: Option<usize>,
    use_history: Option<bool>,
    wont_use: Vec<DataHandle>,
    job: Option<Arc<JobCore>>,
}

impl TaskBuilder {
    /// Starts a task for `codelet`.
    pub fn new(codelet: &Arc<Codelet>) -> Self {
        TaskBuilder {
            codelet: Arc::clone(codelet),
            accesses: Vec::new(),
            cost: KernelCost::new(0.0, 0.0, 0.0),
            arg: None,
            priority: 0,
            force_worker: None,
            use_history: None,
            wont_use: Vec::new(),
            job: None,
        }
    }

    /// Appends an operand; buffer order in the kernel matches call order.
    pub fn access(mut self, handle: &DataHandle, mode: AccessMode) -> Self {
        self.accesses.push((handle.clone(), mode));
        self
    }

    /// Attaches the scalar argument pack.
    pub fn arg<T: Any + Send + Sync>(mut self, arg: T) -> Self {
        self.arg = Some(Arc::new(arg));
        self
    }

    /// Attaches an already type-erased argument pack (used by the
    /// composition layer, which receives packed arguments from the entry
    /// wrapper).
    pub fn arg_boxed(mut self, arg: Box<dyn Any + Send + Sync>) -> Self {
        self.arg = Some(Arc::from(arg));
        self
    }

    /// Attaches a shared argument pack without re-wrapping (used by the
    /// graph layer, which reuses one pack across replay iterations).
    pub(crate) fn arg_shared(mut self, arg: Option<Arc<dyn Any + Send + Sync>>) -> Self {
        self.arg = arg;
        self
    }

    /// Sets the work descriptor used for virtual timing.
    pub fn cost(mut self, cost: KernelCost) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the scheduling priority.
    pub fn priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    /// Pins the task to a specific worker.
    pub fn on_worker(mut self, worker: usize) -> Self {
        self.force_worker = Some(worker);
        self
    }

    /// Overrides the runtime's `useHistoryModels` flag for this task.
    pub fn use_history(mut self, flag: bool) -> Self {
        self.use_history = Some(flag);
        self
    }

    /// Tags the task with its owning job context (the submission paths of
    /// [`crate::JobHandle`] and the implicit default job set this).
    pub(crate) fn for_job(mut self, job: &Arc<JobCore>) -> Self {
        self.job = Some(Arc::clone(job));
        self
    }

    pub(crate) fn into_task(self, id: u64) -> Task {
        let footprint = self.accesses.iter().map(|(h, _)| h.bytes() as u64).sum();
        let job = self.job.unwrap_or_else(JobCore::detached);
        Task {
            id,
            codelet: self.codelet,
            accesses: self.accesses,
            cost: self.cost,
            arg: self.arg,
            priority: self.priority,
            force_worker: self.force_worker,
            use_history: self.use_history,
            wont_use: self.wont_use,
            chosen: Chosen::default(),
            placement: None,
            graph: None,
            run_tag: AtomicU64::new(u64::MAX),
            job,
            footprint,
            ndeps: AtomicUsize::new(1), // submission guard
            vdeps: AtomicU64::new(0),
            successors: Mutex::new(Vec::new()),
            state: Mutex::new(TaskRunState {
                completed: false,
                waited: false,
                vfinish: VTime::ZERO,
            }),
            cv: Condvar::new(),
        }
    }

    /// Submits asynchronously to the runtime's implicit default job;
    /// returns a waitable handle. To scope a task to another job, submit
    /// it through [`crate::JobHandle::submit`] instead.
    pub fn submit(self, rt: &Runtime) -> TaskHandle {
        let job = Arc::clone(&rt.inner.jobs.default);
        rt.submit_for(&job, self)
    }

    /// Submits and blocks until completion (a synchronous component call).
    pub fn submit_sync(self, rt: &Runtime) {
        let h = self.submit(rt);
        h.wait();
    }
}

impl TaskHints for TaskBuilder {
    fn add_access(&mut self, handle: &DataHandle, mode: AccessMode) {
        self.accesses.push((handle.clone(), mode));
    }

    fn add_hint(&mut self, hint: TaskHint) {
        match hint {
            TaskHint::WontUse(h) => self.wont_use.push(h),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_codelet(archs: &[Arch]) -> Arc<Codelet> {
        let mut c = Codelet::new("t");
        for &a in archs {
            c = c.with_impl(a, |_| {});
        }
        Arc::new(c)
    }

    fn raw_task(codelet: Arc<Codelet>) -> Arc<Task> {
        Arc::new(TaskBuilder::new(&codelet).into_task(0))
    }

    #[test]
    fn runnable_on_respects_arch() {
        let cpu_only = raw_task(dummy_codelet(&[Arch::Cpu]));
        assert!(cpu_only.runnable_on(0, false));
        assert!(!cpu_only.runnable_on(4, true));

        let gpu_only = raw_task(dummy_codelet(&[Arch::Gpu]));
        assert!(!gpu_only.runnable_on(0, false));
        assert!(gpu_only.runnable_on(4, true));

        let team = raw_task(dummy_codelet(&[Arch::CpuTeam]));
        assert!(team.runnable_on(2, false));
    }

    #[test]
    fn runnable_on_respects_forced_worker() {
        let c = dummy_codelet(&[Arch::Cpu, Arch::Gpu]);
        let t = Arc::new(TaskBuilder::new(&c).on_worker(3).into_task(0));
        assert!(t.runnable_on(3, false));
        assert!(!t.runnable_on(2, false));
    }

    #[test]
    fn link_to_completed_pred_folds_vfinish() {
        let c = dummy_codelet(&[Arch::Cpu]);
        let pred = raw_task(Arc::clone(&c));
        let succ = raw_task(c);
        pred.complete(VTime::from_micros(42), &mut Vec::new());
        assert!(!Task::link(&pred, &succ));
        assert_eq!(succ.vdeps(), VTime::from_micros(42));
    }

    #[test]
    fn complete_releases_ready_successors() {
        let c = dummy_codelet(&[Arch::Cpu]);
        let pred = raw_task(Arc::clone(&c));
        let succ = raw_task(c);
        assert!(Task::link(&pred, &succ)); // link counts the edge itself
                                           // Remove submission guard; only the real dep remains.
        assert!(!succ.dep_satisfied());
        let mut ready = Vec::new();
        pred.complete(VTime::from_micros(7), &mut ready);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].vdeps(), VTime::from_micros(7));
    }

    #[test]
    fn chosen_packs_placements_into_one_word() {
        let chosen = Chosen::default();
        assert_eq!(chosen.get(), None);
        for (worker, arch) in [(0, Arch::Cpu), (0, Arch::CpuTeam), (65, Arch::Gpu)] {
            let c = ExecChoice {
                worker,
                arch,
                pred_delta: VTime::from_micros(7),
            };
            chosen.set(Some(c));
            assert_eq!(chosen.get(), Some(c));
            assert!(!chosen.take_fresh(), "a set placement is not fresh");
        }
        // A placement decided now is fresh once, keeps its mark across a
        // steal's rebinding, and stores its prediction saturated.
        let huge = ExecChoice {
            worker: 1,
            arch: Arch::Gpu,
            pred_delta: VTime::from_nanos(u64::MAX),
        };
        let stored = chosen.place(huge);
        assert_eq!(
            stored.pred_delta,
            VTime::from_nanos(u64::MAX >> DELTA_SHIFT)
        );
        assert_eq!(chosen.rebind(3), Some(stored));
        assert_eq!(
            chosen.get(),
            Some(ExecChoice {
                worker: 3,
                ..stored
            })
        );
        assert!(chosen.take_fresh());
        assert!(!chosen.take_fresh());
        chosen.set(None);
        assert_eq!(chosen.rebind(2), None, "nothing to rebind");
        assert_eq!(chosen.get(), None);
    }

    #[test]
    fn vfinish_only_after_completion() {
        let t = raw_task(dummy_codelet(&[Arch::Cpu]));
        assert!(t.vfinish().is_none());
        t.complete(VTime::from_micros(3), &mut Vec::new());
        assert_eq!(t.vfinish(), Some(VTime::from_micros(3)));
    }
}
