//! Central-queue greedy scheduler.

use super::queue::ReadyQueue;
use super::{resident_read_bytes, SchedCtx, Scheduler};
use crate::task::Task;
use parking_lot::Mutex;
use std::sync::Arc;

/// One global queue; an idle worker takes the highest-priority task it is
/// able to execute (StarPU's `eager` policy). The pull API is per-worker,
/// but eager deliberately keeps a single shared queue — late binding *is*
/// the policy: no task commits to a worker before one asks for it.
///
/// The queue is a [`ReadyQueue`] ordered `(priority desc, push seq asc)`,
/// shared by the tasks of every job; entries the popping worker cannot
/// run are skipped (and kept) by its `pop_where`.
pub struct EagerScheduler {
    queue: Mutex<ReadyQueue>,
}

impl EagerScheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        EagerScheduler {
            queue: Mutex::new(ReadyQueue::default()),
        }
    }
}

impl Default for EagerScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for EagerScheduler {
    fn push(&self, tasks: &[Arc<Task>], _ctx: &SchedCtx<'_>) -> Vec<Option<usize>> {
        // One queue-lock acquisition covers the whole batch.
        let mut q = self.queue.lock();
        for task in tasks {
            q.push(Arc::clone(task));
        }
        vec![None; tasks.len()]
    }

    fn pop_for_worker(&self, worker: usize, ctx: &SchedCtx<'_>) -> Option<Arc<Task>> {
        let is_gpu = ctx.machine.worker_is_gpu(worker);
        let (task, depth) = {
            let mut q = self.queue.lock();
            let depth = q.len();
            let task = q.pop_where(|t| t.runnable_on(worker, is_gpu))?;
            (task, depth)
        };
        let node = ctx.machine.worker_memory_node(worker);
        ctx.stats
            .record_dispatch(depth, resident_read_bytes(node, &task.accesses), false);
        Some(task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::{Arch, Codelet};
    use crate::runtime::RuntimeConfig;
    use crate::sched::dmda::tests::Fixture;
    use crate::task::TaskBuilder;
    use peppher_sim::MachineConfig;

    fn task(archs: &[Arch], priority: i32) -> Arc<Task> {
        let mut c = Codelet::new("t");
        for &a in archs {
            c = c.with_impl(a, |_| {});
        }
        Arc::new(
            TaskBuilder::new(&Arc::new(c))
                .priority(priority)
                .into_task(0),
        )
    }

    #[test]
    fn pop_skips_incompatible_tasks() {
        let f = Fixture::new(MachineConfig::c2050_platform(1), RuntimeConfig::default());
        let ctx = f.ctx();
        let s = EagerScheduler::new();
        s.push(&[task(&[Arch::Gpu], 0), task(&[Arch::Cpu], 0)], &ctx);

        // CPU worker 0 must skip the GPU-only task and take the CPU one.
        let got = s.pop_for_worker(0, &ctx).expect("cpu task available");
        assert!(got.codelet.has_arch(Arch::Cpu));
        // GPU worker 1 gets the GPU task.
        let got = s.pop_for_worker(1, &ctx).expect("gpu task available");
        assert!(got.codelet.has_arch(Arch::Gpu));
        assert!(s.pop_for_worker(0, &ctx).is_none());
    }

    #[test]
    fn pop_prefers_higher_priority() {
        let f = Fixture::new(MachineConfig::cpu_only(1), RuntimeConfig::default());
        let ctx = f.ctx();
        let s = EagerScheduler::new();
        s.push(&[task(&[Arch::Cpu], 0), task(&[Arch::Cpu], 5)], &ctx);
        assert_eq!(s.pop_for_worker(0, &ctx).unwrap().priority, 5);
        assert_eq!(s.pop_for_worker(0, &ctx).unwrap().priority, 0);
    }
}
