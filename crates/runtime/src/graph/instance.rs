//! Replayable graph instances: recorded tasks, seeding and the iteration
//! countdown.

use super::{wire, GraphSlot, TaskGraph};
use crate::handle::DataHandle;
use crate::job::JobCore;
use crate::perfmodel::PerfKey;
use crate::runtime::{Runtime, RuntimeInner};
use crate::stats::RunId;
use crate::task::{StaticPlacement, Task, TaskBuilder};
use parking_lot::{Condvar, Mutex};
use peppher_sim::VTime;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Process-wide instance id source, so every [`RunId::instance`] in a
/// trace is unique.
static NEXT_INSTANCE: AtomicU32 = AtomicU32::new(1);

/// One completed replay iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRecord {
    /// Which iteration this was.
    pub run: RunId,
    /// Latest virtual completion time over the iteration's tasks.
    pub vfinish: VTime,
}

/// Shared core of a [`GraphInstance`]: the recorded tasks (their
/// dependents wired onto them once) and the per-iteration countdown
/// state. Workers reach it through the weak reference on each task.
pub(crate) struct InstanceCore {
    pub(crate) id: u32,
    /// Owning job: every iteration's tasks count toward its scoped wait
    /// and cancellation drain.
    job: Arc<JobCore>,
    tasks: Vec<Arc<Task>>,
    /// Predecessor counts, used to rewind each task's dependency counter.
    preds: Vec<u32>,
    /// Nodes with no predecessors — the seed frontier.
    roots: Vec<u32>,
    /// Tasks not yet completed in the current iteration.
    remaining: AtomicUsize,
    /// Additional iterations to chain after the current one completes
    /// (set by `execute_many`, consumed worker-side).
    iters_left: AtomicUsize,
    /// Completed iterations since instantiation; the next iteration's
    /// [`RunId::iteration`].
    total_runs: AtomicU32,
    /// Replay count after which placement is frozen (re-enqueue on the
    /// previous iteration's worker instead of re-running placement).
    freeze_after: AtomicU32,
    /// The perf registry's drift epoch observed at the last unfrozen
    /// seed. A frozen seed that finds the global epoch moved concludes
    /// its recorded schedule may be priced on pre-drift models and thaws
    /// (see [`InstanceCore::seed`]).
    frozen_epoch: AtomicU64,
    /// Max task vfinish (nanoseconds) seen this iteration.
    iter_max_ns: AtomicU64,
    runs: Mutex<Vec<RunRecord>>,
    /// `true` once the requested batch of iterations has fully completed.
    done: Mutex<bool>,
    cv: Condvar,
}

impl InstanceCore {
    /// Whether replays now reuse the previous iteration's placements.
    fn is_frozen(&self) -> bool {
        self.total_runs.load(Ordering::Relaxed) >= self.freeze_after.load(Ordering::Relaxed)
    }

    /// Starts one iteration: rewind every task, account the batch in the
    /// pending counters, and release the root frontier in one call. Only
    /// called with no iteration in flight (from `try_execute_many` or the
    /// previous iteration's last completion), so no worker observes the
    /// intermediate state.
    ///
    /// A frozen iteration keeps every task's placement from the previous
    /// one; an unfrozen one clears them, so the scheduler places afresh.
    /// When the caller is a worker (`continue_on`), a root placed on that
    /// worker comes back for it to run directly — no queue round trip, no
    /// wakeup.
    ///
    /// Drift-aware thaw: every unfrozen seed notes the perf registry's
    /// drift epoch. A frozen seed that finds the epoch moved since then
    /// is replaying a schedule placed on models that have since been
    /// declared stale — it pushes `freeze_after` out past the current run
    /// count so this and the next [`DEFAULT_FREEZE_AFTER`] iterations
    /// re-place (and re-calibrate against the decayed histories) before
    /// freezing again.
    pub(crate) fn seed(
        &self,
        inner: &RuntimeInner,
        continue_on: Option<usize>,
    ) -> Option<Arc<Task>> {
        let epoch = inner.perf.drift_epoch();
        let mut frozen = self.is_frozen();
        if frozen && self.frozen_epoch.load(Ordering::Relaxed) != epoch {
            // Thaw: models drifted under the frozen schedule. The
            // `u32::MAX` sentinel (freezing disabled) never reaches here —
            // with it, `is_frozen` is false.
            let runs = self.total_runs.load(Ordering::Relaxed);
            self.freeze_after
                .store(runs.saturating_add(DEFAULT_FREEZE_AFTER), Ordering::Relaxed);
            frozen = false;
        }
        if !frozen {
            self.frozen_epoch.store(epoch, Ordering::Relaxed);
        }
        let run = RunId {
            instance: self.id,
            iteration: self.total_runs.load(Ordering::Relaxed),
        };
        self.iter_max_ns.store(0, Ordering::Relaxed);
        self.remaining.store(self.tasks.len(), Ordering::Release);
        for (t, &preds) in self.tasks.iter().zip(&self.preds) {
            t.reset_for_replay(preds as usize, run, frozen);
        }
        // Per-iteration accounting: this add happens before the previous
        // iteration's last `task_finished` decrement (seed runs inside
        // `task_done`), so `pending` never transiently reaches zero
        // between chained iterations and `wait_all` cannot wake early.
        inner.admit(&self.job, self.tasks.len());
        let mut roots: Vec<Arc<Task>> = self
            .roots
            .iter()
            .map(|&r| Arc::clone(&self.tasks[r as usize]))
            .collect();
        inner.release(&mut roots, continue_on)
    }

    /// Worker-side countdown for one completed task of the current
    /// iteration, running on `worker` after the task released its
    /// dependents. The iteration's last task either chains the next
    /// iteration — whose root placed on `worker`, if any, comes back as a
    /// self-continuation — or wakes the waiter. Exactly one task wins the
    /// countdown, so the rest of this runs single-threaded.
    pub(crate) fn task_done(
        &self,
        vfinish: VTime,
        inner: &RuntimeInner,
        worker: usize,
    ) -> Option<Arc<Task>> {
        self.iter_max_ns
            .fetch_max(vfinish.as_nanos(), Ordering::Relaxed);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) != 1 {
            return None;
        }
        let run = RunId {
            instance: self.id,
            iteration: self.total_runs.load(Ordering::Relaxed),
        };
        let vfinish = VTime::from_nanos(self.iter_max_ns.load(Ordering::Relaxed));
        self.runs.lock().push(RunRecord { run, vfinish });
        self.total_runs.fetch_add(1, Ordering::Relaxed);
        if self.iters_left.load(Ordering::Relaxed) > 0 {
            self.iters_left.fetch_sub(1, Ordering::Relaxed);
            self.seed(inner, Some(worker))
        } else {
            let mut done = self.done.lock();
            *done = true;
            self.cv.notify_all();
            None
        }
    }
}

/// Builds the long-lived tasks for `graph` on `rt`, each wired to its
/// dependents.
pub(crate) fn instantiate(
    graph: &TaskGraph,
    handles: Vec<DataHandle>,
    rt: &Runtime,
    job: &Arc<JobCore>,
) -> GraphInstance {
    let (succs, preds, roots) = wire(&graph.nodes, handles.len());
    let id = NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed);
    let inner = &rt.inner;
    let core = Arc::new_cyclic(|weak| {
        let tasks: Vec<Arc<Task>> = graph
            .nodes
            .iter()
            .map(|spec| {
                let mut b = TaskBuilder::new(&spec.codelet)
                    .for_job(job)
                    .cost(spec.cost)
                    .priority(spec.priority)
                    .arg_shared(spec.arg.clone());
                if let Some(flag) = spec.use_history {
                    b = b.use_history(flag);
                }
                for &(slot, mode) in &spec.accesses {
                    b = b.access(&handles[slot.0], mode);
                }
                let mut task = b.into_task(inner.alloc_task_id());
                // Shared submission-time validation (aliased writable
                // operands, undispatchable codelets) — same checks as
                // `JobHandle::submit` / `JobHandle::submit_batch`.
                crate::runtime::validate_task(&task, &inner.machine);
                let options = crate::sched::options_for(&task, &inner.machine);
                let keys = options
                    .iter()
                    .map(|&(w, a)| {
                        PerfKey::for_codelet(
                            task.codelet.id,
                            inner.classes.class_id(a, w),
                            task.footprint(),
                        )
                    })
                    .collect();
                task.placement = Some(StaticPlacement { options, keys });
                task.graph = Some(weak.clone());
                Arc::new(task)
            })
            .collect();
        for (task, succ) in tasks.iter().zip(&succs) {
            *task.successors.lock() = succ
                .iter()
                .map(|&s| Arc::clone(&tasks[s as usize]))
                .collect();
        }
        InstanceCore {
            id,
            job: Arc::clone(job),
            tasks,
            preds,
            roots,
            remaining: AtomicUsize::new(0),
            iters_left: AtomicUsize::new(0),
            total_runs: AtomicU32::new(0),
            freeze_after: AtomicU32::new(DEFAULT_FREEZE_AFTER),
            frozen_epoch: AtomicU64::new(0),
            iter_max_ns: AtomicU64::new(0),
            runs: Mutex::new(Vec::new()),
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    });
    GraphInstance {
        rt: rt.clone(),
        core,
        handles,
        exec_mx: Mutex::new(()),
    }
}

/// Replays past this count reuse the previous iteration's placements.
/// Chosen just past the default scheduler calibration threshold
/// ([`crate::RuntimeConfig::calibration_min`] = 3) so `dmda` places with
/// calibrated history models before the decision is frozen.
const DEFAULT_FREEZE_AFTER: u32 = 4;

/// An instantiated [`TaskGraph`]: long-lived tasks over instance-private
/// handles, executable any number of times.
///
/// # Rebinding rules
///
/// Slot handles are private to the instance — do not submit ordinary
/// tasks against them. [`GraphInstance::bind`] replaces a slot's contents
/// wholesale between executions; calling it while an execution is in
/// flight is a usage error (it would race the replayed kernels, which do
/// not register in the handles' access histories).
pub struct GraphInstance {
    rt: Runtime,
    core: Arc<InstanceCore>,
    handles: Vec<DataHandle>,
    /// Serializes executions: one iteration batch in flight at a time.
    exec_mx: Mutex<()>,
}

impl GraphInstance {
    /// The instance id carried by this instance's [`RunId`]s.
    pub fn instance_id(&self) -> u32 {
        self.core.id
    }

    /// The handle backing `slot` (for inspection; see the rebinding rules).
    pub fn handle(&self, slot: GraphSlot) -> &DataHandle {
        &self.handles[slot.0]
    }

    /// Replaces `slot`'s contents with `value` — the replay rebinding
    /// primitive. Device replicas of the old contents are dropped without
    /// writeback ([`Runtime::write_discard`]). `T` must be the slot's
    /// declared payload type. Must not be called mid-execution.
    pub fn bind<T: Clone + Send + Sync + 'static>(&self, slot: GraphSlot, value: T) {
        self.rt.write_discard(&self.handles[slot.0], value);
    }

    /// Reads back `slot`'s current contents (coherent main-memory copy).
    pub fn read<T: Clone + Send + Sync + 'static>(&self, slot: GraphSlot) -> T {
        self.rt.acquire_read::<T>(&self.handles[slot.0]).clone()
    }

    /// Executes the graph once; blocks until every task has completed.
    /// Panics if a task body panicked outside its kernel (see
    /// [`Runtime::wait_all`]).
    pub fn execute(&self) -> RunId {
        self.execute_many(1)
    }

    /// Non-panicking [`GraphInstance::execute`].
    pub fn try_execute(&self) -> Result<RunId, String> {
        self.try_execute_many(1)
    }

    /// Executes the graph `n` times back to back. Iterations are chained
    /// worker-side: the worker completing iteration `k`'s last task seeds
    /// iteration `k+1` directly, so the waiting thread is only woken once.
    /// Returns the last iteration's [`RunId`].
    pub fn execute_many(&self, n: u32) -> RunId {
        self.try_execute_many(n)
            .unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// Non-panicking [`GraphInstance::execute_many`]: a task-body panic is
    /// reported as `Err` after the iteration batch drains.
    pub fn try_execute_many(&self, n: u32) -> Result<RunId, String> {
        assert!(n > 0, "execute_many requires at least one iteration");
        let _exec = self.exec_mx.lock();
        *self.core.done.lock() = false;
        self.core
            .iters_left
            .store(n as usize - 1, Ordering::Relaxed);
        self.core.seed(&self.rt.inner, None);
        {
            let mut done = self.core.done.lock();
            while !*done {
                self.core.cv.wait(&mut done);
            }
        }
        let last = RunId {
            instance: self.core.id,
            iteration: self.core.total_runs.load(Ordering::Relaxed) - 1,
        };
        match self.core.job.take_fault() {
            Some(msg) => Err(msg),
            None => Ok(last),
        }
    }

    /// Completed iterations, in order.
    pub fn runs(&self) -> Vec<RunRecord> {
        self.core.runs.lock().clone()
    }

    /// Overrides the replay count after which placements are frozen
    /// (`u32::MAX` disables freezing entirely).
    pub fn set_freeze_after(&self, n: u32) {
        self.core.freeze_after.store(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::{GraphInstance, DEFAULT_FREEZE_AFTER};
    use crate::codelet::{Arch, ArchClass, Codelet};
    use crate::graph::{GraphTask, TaskGraph};
    use crate::handle::AccessMode;
    use crate::job::JobConfig;
    use crate::perfmodel::PerfKey;
    use crate::runtime::Runtime;
    use crate::sched::SchedulerKind;
    use crate::task::ExecChoice;
    use peppher_sim::{MachineConfig, VTime};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn drift_thaws_frozen_replay() {
        let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Dmda);
        let c = Arc::new(Codelet::new("thaw_cl").with_impl(Arch::Cpu, |_| {}));
        let mut g = TaskGraph::new();
        let s = g.slot(vec![0.0f32; 4]);
        g.add(GraphTask::new(&c).access(s, AccessMode::ReadWrite));
        let inst = g.instantiate(&rt);
        inst.execute_many(6);
        assert!(inst.core.is_frozen(), "premise: replay froze after 4 runs");
        let frozen_at = inst.core.freeze_after.load(Ordering::Relaxed);

        // Inject a drift on an unrelated key: the registry's drift epoch
        // is global, and any detection means some schedule may be priced
        // on stale models.
        let key = PerfKey::new("unrelated_cl", ArchClass::Cpu, 0);
        for _ in 0..20 {
            rt.inner.perf.record(key, VTime::from_micros(10));
        }
        let fired = (0..6).any(|_| rt.inner.perf.record(key, VTime::from_micros(40)).is_some());
        assert!(fired, "premise: sustained 4x slowdown must trigger drift");

        inst.execute();
        assert!(
            !inst.core.is_frozen(),
            "drift must thaw the frozen schedule"
        );
        assert!(
            inst.core.freeze_after.load(Ordering::Relaxed) > frozen_at,
            "freeze point pushed past the current run count"
        );

        // With no further drift the schedule re-freezes after another
        // calibration window.
        inst.execute_many(DEFAULT_FREEZE_AFTER + 1);
        assert!(inst.core.is_frozen(), "re-frozen after re-calibration");
        rt.shutdown();
    }

    #[test]
    fn freeze_disabled_sentinel_survives_drift() {
        let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Dmda);
        let c = Arc::new(Codelet::new("nofreeze_cl").with_impl(Arch::Cpu, |_| {}));
        let mut g = TaskGraph::new();
        let s = g.slot(vec![0.0f32; 4]);
        g.add(GraphTask::new(&c).access(s, AccessMode::ReadWrite));
        let inst = g.instantiate(&rt);
        inst.set_freeze_after(u32::MAX);
        inst.execute_many(6);
        assert!(!inst.core.is_frozen());
        assert_eq!(inst.core.freeze_after.load(Ordering::Relaxed), u32::MAX);
        rt.shutdown();
    }

    /// Records a one-task graph whose CPU-only task carries a placement
    /// corrupted to an unimplemented architecture, the way only an
    /// internal scheduler bug could. Frozen from the first run, so the
    /// replay keeps that placement.
    fn mislabelled(
        name: &str,
        instantiate: impl FnOnce(&TaskGraph) -> GraphInstance,
    ) -> GraphInstance {
        let c = Arc::new(Codelet::new(name).with_impl(Arch::Cpu, |_| {}));
        let mut g = TaskGraph::new();
        let s = g.slot(vec![0.0f32; 4]);
        g.add(GraphTask::new(&c).access(s, AccessMode::ReadWrite));
        let inst = instantiate(&g);
        inst.set_freeze_after(0);
        inst.core.tasks[0].chosen.set(Some(ExecChoice {
            worker: 0,
            arch: Arch::Gpu,
            pred_delta: VTime::ZERO,
        }));
        inst
    }

    /// A replayed task whose body panics outside its kernel must drain the
    /// whole iteration batch and surface as `Err` from `try_execute_many`
    /// — never hang the waiting thread.
    #[test]
    fn try_execute_many_reports_task_fault_as_error() {
        let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Eager);
        let inst = mislabelled("graph_cpu_cl", |g| g.instantiate(&rt));
        let err = inst
            .try_execute_many(2)
            .expect_err("the dispatch fault must be reported");
        assert!(
            err.contains("graph_cpu_cl"),
            "error should identify the codelet: {err:?}"
        );
        rt.shutdown();
    }

    /// The same fault in a replay instantiated through a job is the job's:
    /// `try_execute_many` reports it, not a later `try_wait`.
    #[test]
    fn job_scoped_replay_reports_task_fault_as_error() {
        let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Eager);
        let job = rt.job(JobConfig::default());
        let inst = mislabelled("job_graph_cpu_cl", |g| job.instantiate(g));
        let err = inst
            .try_execute_many(2)
            .expect_err("the job's dispatch fault must be reported");
        assert!(
            err.contains("job_graph_cpu_cl"),
            "error should identify the codelet: {err:?}"
        );
        assert_eq!(job.try_wait(), Ok(()), "the fault is reported once");
        rt.shutdown();
    }
}
