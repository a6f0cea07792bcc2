//! Worker threads: task execution with virtual-time accounting.

use crate::codelet::{Arch, BufferGuard, KernelCtx};
use crate::coherence;
use crate::handle::{AccessMode, PayloadCell};
use crate::perfmodel::PerfKey;
use crate::runtime::RuntimeInner;
use crate::stats::TraceEvent;
use crate::task::{ExecChoice, Task};
use peppher_sim::VTime;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::Instant;

/// One pop attempt. One successful pop in [`crate::stats::POP_SAMPLE`] is
/// wall-clock timed into the worker's stats cell, so benchmarks can report
/// the scheduler's real per-dispatch decision cost without every pop
/// paying for two clock reads.
fn try_pop(inner: &RuntimeInner, worker: usize) -> Option<Arc<Task>> {
    let t0 = inner.stats.pop_timed(worker).then(Instant::now);
    let task = inner.sched.pop_for_worker(worker, &inner.sched_ctx())?;
    let ns = t0.map(|t0| t0.elapsed().as_nanos() as u64);
    inner.stats.record_pop(worker, ns);
    Some(task)
}

/// Buffers a worker reuses from task to task, so running one allocates
/// nothing: the operands' buffer guards and the successors a completion
/// readies. Both are empty between tasks.
#[derive(Default)]
struct Scratch {
    guards: Vec<BufferGuard>,
    ready: Vec<Arc<Task>>,
}

/// Main loop of worker `worker`: pop tasks until shutdown, parking on the
/// worker's own condvar while idle. Producers wake exactly the workers
/// that received work (`wake_worker`/`wake_any_for` in runtime.rs) instead
/// of broadcasting, so an N-worker runtime no longer pays a thundering
/// herd per submit.
pub(crate) fn worker_loop(inner: Arc<RuntimeInner>, worker: usize) {
    let mut scratch = Scratch::default();
    // Frozen graph replays chain task-to-task: `run_one` hands back the
    // ready successor already placed on this very worker, which runs
    // without ever touching the scheduler queues.
    let mut run_chain = |t: Arc<Task>| {
        let mut next = run_one(&inner, worker, t, false, &mut scratch);
        while let Some(t) = next.take() {
            next = run_one(&inner, worker, t, true, &mut scratch);
        }
    };
    loop {
        if let Some(t) = try_pop(&inner, worker) {
            run_chain(t);
            continue;
        }
        // Publish idleness, then recheck: a producer either sees the flag
        // (and wakes us) or pushed before we set it (and the recheck finds
        // the task). Either way no wakeup is lost.
        inner.idle[worker].store(true, Ordering::SeqCst);
        if let Some(t) = try_pop(&inner, worker) {
            inner.idle[worker].store(false, Ordering::SeqCst);
            run_chain(t);
            continue;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        {
            let parker = &inner.parkers[worker];
            let mut token = parker.token.lock();
            while !*token {
                parker.cv.wait(&mut token);
            }
            *token = false;
        }
        inner.idle[worker].store(false, Ordering::SeqCst);
    }
}

/// The implementation architecture worker `worker` runs `task` with,
/// given the placement decision (if any) already read from `task.chosen`.
fn pick_arch(inner: &RuntimeInner, worker: usize, task: &Task, choice: Option<ExecChoice>) -> Arch {
    if let Some(choice) = choice {
        return choice.arch;
    }
    if inner.machine.worker_is_gpu(worker) {
        Arch::Gpu
    } else if task.codelet.has_arch(Arch::Cpu) {
        Arch::Cpu
    } else {
        Arch::CpuTeam
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

/// Executes one task end to end, containing panics that escape
/// `execute_task` *outside* the kernel (kernel panics are already caught
/// and counted inside `run_kernel`; what reaches here is runtime-level
/// misuse, e.g. a codelet scheduled on an architecture it has no
/// implementation for). The panic is recorded as a fault of the task's
/// job and the task still completes — successors run, the pending
/// counters drain, and the job's wait (`wait_all` for the default job)
/// re-raises the fault on the waiting thread instead of the whole process
/// hanging on a dead worker.
///
/// Returns a self-continuation, if any: a ready successor (or, after a
/// graph iteration's last task, a root of the next iteration) already
/// placed on this worker — see [`RuntimeInner::release`]. The caller runs
/// it immediately, queue-free, passing `direct = true`. Direct tasks
/// bypass the scheduler entirely: they were never pushed, so no load
/// prediction was charged and `task_timed` must not release one, and by
/// the freeze point that carried their placement the execution-history
/// model has converged, so re-recording the same stationary sample every
/// iteration is skipped too.
fn run_one(
    inner: &RuntimeInner,
    worker: usize,
    task: Arc<Task>,
    direct: bool,
    scratch: &mut Scratch,
) -> Option<Arc<Task>> {
    // Cancellation drain: a cancelled job's tasks complete without
    // executing, so dependents unwind and the job's `cancel()` unblocks,
    // but nothing touches operand data or device memory.
    let cancelled = task.job.is_cancelled();
    let vfinish = if cancelled {
        // Placement-at-push schedulers charged a load prediction when the
        // task was enqueued; release it exactly as a timed execution would.
        if !direct {
            inner.sched.task_timed(worker, &task, task.chosen.get());
        }
        task.vdeps()
    } else {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_task(inner, worker, &task, direct, &mut scratch.guards)
        }));
        match result {
            Ok(vfinish) => vfinish,
            Err(payload) => {
                // Unlock whatever the unwound execution had guarded.
                scratch.guards.clear();
                let msg = panic_message(payload.as_ref());
                task.job.record_fault(format!(
                    "task {} (codelet `{}`) panicked on worker {worker}: {msg}",
                    task.id, task.codelet.name
                ));
                // Complete at the dependency horizon so successors still
                // get a monotone virtual time. Pins/accounting from the
                // unwound execution may be leaked — acceptable in fault
                // mode, the runtime is headed for an error report.
                task.vdeps()
            }
        }
    };
    task.complete(vfinish, &mut scratch.ready);
    let mut next = inner.release(&mut scratch.ready, Some(worker));
    scratch.ready.clear();
    if let Some(core) = task.graph.as_ref().and_then(Weak::upgrade) {
        // The iteration's last task has no successors, so at most one of
        // the two hands back a continuation.
        let seeded = core.task_done(vfinish, inner, worker);
        next = next.or(seeded);
    }
    inner.task_finished(&task, !cancelled);
    next
}

fn execute_task(
    inner: &RuntimeInner,
    worker: usize,
    task: &Arc<Task>,
    direct: bool,
    guards: &mut Vec<BufferGuard>,
) -> VTime {
    // One read of the placement decision serves the arch pick here and the
    // prediction release in `task_timed` below.
    let choice = task.chosen.get();
    let arch = pick_arch(inner, worker, task, choice);
    // Borrowed, not cloned: the task holds its codelet, and a clone would
    // bounce the kernel's shared reference count between workers.
    let implementation = task.codelet.impl_for(arch).unwrap_or_else(|| {
        panic!(
            "codelet `{}` scheduled on {arch:?} without an implementation",
            task.codelet.name
        )
    });
    let team = if arch == Arch::CpuTeam {
        inner.machine.cpu_workers
    } else {
        1
    };
    let node = inner.machine.worker_memory_node(worker);
    let vdeps = task.vdeps();
    let run = task.run();

    // Gate on the flag before building the event: the `String` clone must
    // not be paid when tracing is disabled.
    if inner.stats.tracing_enabled() {
        inner.stats.record_event(TraceEvent::TaskStart {
            task: task.id,
            codelet: task.codelet.name.clone(),
            worker,
            run,
            job: task.job.id,
        });
    }

    // Pin every operand at this node before bringing any in: replicas of a
    // running task must never be eviction victims, and a later operand's
    // allocation could otherwise evict one brought in earlier. Bring the
    // operands to this worker's memory node (lazy coherence), collecting
    // the virtual time at which the data is available, and guard each
    // buffer (shared for reads, exclusive for writes). While every operand
    // so far was already usable here (a warm task), its pin also takes its
    // buffer in the same lock hold; from the first one that is not, the
    // rest are only pinned and then made valid in order, so replicas are
    // touched in access order either way.
    let guard = |cell: PayloadCell, mode: AccessMode| {
        if mode.writes() {
            BufferGuard::Write(cell.write_arc())
        } else {
            BufferGuard::Read(cell.read_arc())
        }
    };
    let mut data_ready = VTime::ZERO;
    let mut resident = 0;
    for (i, (h, mode)) in task.accesses.iter().enumerate() {
        let warm = resident == i;
        let got = coherence::pin_resident(h, node, *mode, warm, &inner.stats, &inner.memory);
        if let Some((r, cell)) = got {
            data_ready = data_ready.max(r);
            guards.push(guard(cell, *mode));
            resident += 1;
        }
    }
    for (h, mode) in &task.accesses[resident..] {
        let (r, cell) =
            coherence::make_valid_cell(h, node, *mode, &inner.topo, &inner.stats, &inner.memory);
        data_ready = data_ready.max(r);
        guards.push(guard(
            cell.expect("a task's operand has a valid copy"),
            *mode,
        ));
    }

    // Timing is decided by the model before the real execution.
    let profile = inner.machine.worker_profile(worker);
    // Noiseless machines skip the shared RNG lock entirely;
    // `next_factor` returns 1.0 before touching the RNG when the
    // relative stddev is zero, so this changes no timing.
    let factor = if inner.machine.noise_rel_stddev == 0.0 {
        1.0
    } else {
        inner.noise.lock().next_factor()
    };
    let base_exec = profile.exec_time_team(&task.cost, team).scale(factor);
    let (vexec, vfinish) = {
        let tl = &inner.timelines;
        let avail = if team > 1 {
            (0..inner.machine.cpu_workers)
                .map(|w| tl.get(w))
                .fold(VTime::ZERO, VTime::max)
        } else {
            tl.get(worker)
        };
        let vstart = avail.max(vdeps).max(data_ready);
        // Scheduled device throttle: the factor in effect at the
        // task's virtual *start* scales the modelled execution
        // (thermal slowdowns hit whole kernels, not fractions).
        // Guarded so untouched machines keep bit-identical timing.
        let throttle = inner.machine.worker_throttle_factor(worker, vstart);
        let vexec = if throttle != 1.0 {
            base_exec.scale(throttle)
        } else {
            base_exec
        };
        let vfinish = vstart + vexec;
        if team > 1 {
            for w in 0..inner.machine.cpu_workers {
                tl.advance(w, vfinish);
            }
        } else {
            tl.advance(worker, vfinish);
        }
        (vexec, vfinish)
    };
    let mut ctx = KernelCtx {
        buffers: guards.as_mut_slice(),
        arg: task
            .arg
            .as_deref()
            .map(|a| a as &(dyn std::any::Any + Send)),
        worker,
        arch,
        team_size: team,
    };
    // Contain kernel panics: a crashing component implementation must
    // not take the worker thread (and with it the whole runtime) down.
    // The task still completes (its outputs may be garbage — recorded
    // in the failure counter and, when tracing, as an event naming the
    // task), successors run, waiters wake.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        (implementation.func)(&mut ctx);
    }));
    if result.is_err() {
        inner.stats.record_kernel_failure();
        inner.stats.record_event(TraceEvent::KernelFault {
            task: task.id,
            worker,
            job: task.job.id,
        });
    }
    guards.clear();

    // The worker's virtual timeline now includes this task. Direct
    // (self-continued) tasks never entered the scheduler, so there is no
    // push-time load prediction to release.
    if !direct {
        inner.sched.task_timed(worker, task, choice);
    }

    // Coherence effects of writes become visible before successors run.
    for (h, mode) in &task.accesses {
        if mode.writes() {
            coherence::mark_written(h, node, vfinish, &inner.stats, &inner.memory);
        }
    }

    // Operands may become eviction victims again.
    for (h, _) in &task.accesses {
        inner.memory.unpin(node, h);
    }

    // Task-epilogue wont_use hints: operands declared dead are demoted to
    // eager-eviction candidates now that they are unpinned.
    for h in &task.wont_use {
        inner.memory.wont_use(h);
    }

    // Feed the execution-history models. The key is built from interned
    // ids (`Copy` all the way down) — no per-task string allocation.
    // Direct tasks skip this: a graph freezes placement only after the
    // calibration threshold, so their model has converged and every
    // further replay would re-record the same stationary sample.
    if !direct {
        let drift = inner.perf.record(
            PerfKey::for_codelet(
                task.codelet.id,
                inner.classes.class_id(arch, worker),
                task.footprint(),
            ),
            vexec,
        );
        // Drift already decayed the family and bumped the epoch inside
        // `record`; here it only becomes visible in the trace. Strings are
        // built only when tracing is on.
        if let Some(d) = drift {
            if inner.stats.tracing_enabled() {
                inner.stats.record_event(TraceEvent::ModelDrift {
                    codelet: task.codelet.name.clone(),
                    arch: d.key.arch.to_string(),
                    worker,
                    observed: VTime::from_nanos(d.observed_ns as u64),
                    model: VTime::from_nanos(d.model_ns as u64),
                });
            }
        }
    }

    inner.stats.record_task(worker, vexec, vfinish);
    inner.stats.record_energy(
        worker,
        inner
            .machine
            .worker_profile(worker)
            .energy_joules(vexec, team),
    );
    if inner.stats.tracing_enabled() {
        inner.stats.record_event(TraceEvent::TaskEnd {
            task: task.id,
            worker,
            codelet: task.codelet.name.clone(),
            vstart: vfinish.saturating_sub(vexec),
            vfinish,
            run,
            job: task.job.id,
        });
    }

    vfinish
}

#[cfg(test)]
mod tests {
    use crate::codelet::{Arch, Codelet};
    use crate::handle::AccessMode;
    use crate::perfmodel::{ArchClassId, PerfKey};
    use crate::runtime::Runtime;
    use crate::sched::SchedulerKind;
    use crate::task::{ExecChoice, TaskBuilder};
    use peppher_sim::{MachineConfig, VTime};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Successors released by workers are charged and timed like any
    /// pushed task: after a gated chain and a fan-out drain, every
    /// worker's queued charge is released and the chain's history is
    /// calibrated from its samples.
    #[test]
    fn released_successors_release_their_charge_and_feed_the_model() {
        for sched in [SchedulerKind::Dmda, SchedulerKind::Dmdar] {
            let rt = Runtime::new(MachineConfig::cpu_only(2).without_noise(), sched);
            let gate = Arc::new(AtomicBool::new(false));
            let gate_cl = {
                let gate = Arc::clone(&gate);
                Arc::new(Codelet::new("drain_gate").with_impl(Arch::Cpu, move |_| {
                    while !gate.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                }))
            };
            let step = Arc::new(Codelet::new("drain_step").with_impl(Arch::Cpu, |ctx| {
                *ctx.w::<u64>(0) += 1;
            }));
            let read = Arc::new(Codelet::new("drain_read").with_impl(Arch::Cpu, |_| {}));
            let h = rt.register(0u64);
            TaskBuilder::new(&gate_cl)
                .access(&h, AccessMode::Write)
                .submit(&rt);
            for _ in 0..64 {
                TaskBuilder::new(&step)
                    .access(&h, AccessMode::ReadWrite)
                    .submit(&rt);
            }
            for _ in 0..16 {
                TaskBuilder::new(&read)
                    .access(&h, AccessMode::Read)
                    .submit(&rt);
            }
            gate.store(true, Ordering::Release);
            rt.wait_all();

            let stats = rt.stats();
            assert_eq!(stats.tasks_executed, 81, "{sched:?}");
            for w in 0..2 {
                let charge = rt.inner.sched.queued_charge(w);
                assert_eq!(charge, VTime::ZERO, "{sched:?}: worker {w} charge");
            }
            let key = PerfKey::for_codelet(step.id, ArchClassId::Cpu, 8);
            assert!(rt.perf().calibrated(&key), "{sched:?}: chain history");
            assert_eq!(rt.unregister::<u64>(h), 64);
            rt.shutdown();
        }
    }

    /// Releases a CPU-only task mislabelled with a GPU placement past the
    /// submission guard, the way only an internal scheduler bug could.
    /// The dispatch panic it provokes happens outside the kernel, so it
    /// exercises the worker's fault backstop rather than the kernel
    /// containment path.
    fn push_mismatched(rt: &Runtime) {
        let c = Arc::new(Codelet::new("cpu_only_cl").with_impl(Arch::Cpu, |_| {}));
        let task = Arc::new(
            TaskBuilder::new(&c)
                .for_job(&rt.inner.jobs.default)
                .into_task(u64::MAX),
        );
        task.chosen.set(Some(ExecChoice {
            worker: 0,
            arch: Arch::Gpu,
            pred_delta: VTime::ZERO,
        }));
        assert!(task.dep_satisfied(), "fresh task has only the guard dep");
        rt.inner.admit(&rt.inner.jobs.default, 1);
        rt.inner.release(&mut [task], None);
    }

    #[test]
    fn escaped_task_body_panic_is_reported_not_hung() {
        let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Eager);
        push_mismatched(&rt);
        let err = rt.try_wait_all().expect_err("fault must surface");
        assert!(
            err.contains("cpu_only_cl") && err.contains("without an implementation"),
            "fault should carry the dispatch panic: {err:?}"
        );
        // The fault is consumed once and the pool keeps working.
        assert_eq!(rt.try_wait_all(), Ok(()));
        let ok = Arc::new(Codelet::new("ok").with_impl(Arch::Cpu, |_| {}));
        TaskBuilder::new(&ok).submit_sync(&rt);
        rt.shutdown();
    }

    #[test]
    fn wait_all_reraises_the_fault_on_the_waiting_thread() {
        let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Eager);
        push_mismatched(&rt);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.wait_all()));
        let msg = caught
            .expect_err("wait_all must re-raise the task-body panic")
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("cpu_only_cl") && msg.contains("panicked on worker"),
            "re-raised panic should identify codelet and worker: {msg:?}"
        );
        rt.shutdown();
    }
}
