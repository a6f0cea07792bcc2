//! Work-stealing scheduler.

use super::fair::JobLanes;
use super::{options_for, resident_read_bytes, SchedCtx, Scheduler};
use crate::stats::TraceEvent;
use crate::task::Task;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Per-worker deques: pushes go to the shortest eligible queue, pops come
/// from the front of the worker's own queue, and idle workers steal from
/// the back of victims' queues (classic Cilk/StarPU `ws` shape). Each
/// worker's deque is laned per job (see [`super::fair`]): pops and steals
/// walk the victim's lanes in fair-share order.
///
/// Victim selection is *steal-from-richest*: candidates are ranked by how
/// many of their stealable task's read-operand bytes already have a valid
/// replica on the thief's memory node, so a steal moves work toward its
/// data instead of paying blind transfer costs. All-cold candidates fall back to the
/// classic deepest-queue order, and every steal is recorded as a
/// [`TraceEvent::Steal`] with its thief-side resident bytes.
pub struct WsScheduler {
    queues: Vec<Mutex<JobLanes<VecDeque<Arc<Task>>>>>,
}

impl WsScheduler {
    /// Creates deques for `workers` workers.
    pub fn new(workers: usize) -> Self {
        WsScheduler {
            queues: (0..workers).map(|_| Mutex::new(JobLanes::new())).collect(),
        }
    }

    #[cfg(test)]
    fn seed(&self, worker: usize, task: Arc<Task>) {
        let job = Arc::clone(&task.job);
        self.queues[worker].lock().queue_for(&job).push_back(task);
    }

    #[cfg(test)]
    fn queue_len(&self, worker: usize) -> usize {
        self.queues[worker].lock().total_len()
    }
}

impl Scheduler for WsScheduler {
    fn push_ready(&self, task: Arc<Task>, ctx: &SchedCtx<'_>) -> Option<usize> {
        let opts = options_for(&task, ctx.machine);
        assert!(
            !opts.is_empty(),
            "task for codelet `{}` has no eligible worker",
            task.codelet.name
        );
        // Shortest queue among eligible workers; ties favour earlier workers.
        let (worker, _) = opts
            .iter()
            .copied()
            .min_by_key(|&(w, _)| self.queues[w].lock().total_len())
            .expect("non-empty options");
        let job = Arc::clone(&task.job);
        self.queues[worker].lock().queue_for(&job).push_back(task);
        Some(worker)
    }

    fn pop_for_worker(&self, worker: usize, ctx: &SchedCtx<'_>) -> Option<Arc<Task>> {
        let node = ctx.machine.worker_memory_node(worker);
        let own = {
            let mut q = self.queues[worker].lock();
            let depth = q.total_len();
            q.pop_with(|lane| lane.pop_front()).map(|t| (t, depth))
        };
        if let Some((t, depth)) = own {
            let resident = resident_read_bytes(node, &t.accesses);
            ctx.stats.record_dispatch(depth, resident, false);
            return Some(t);
        }
        // Steal-from-richest: score every victim by the thief-side
        // resident read bytes of its stealable back task (peeked under
        // the victim's lock without removing anything), then attempt the
        // actual steals richest-first. Depth breaks ties, so a mesh with
        // no resident data anywhere keeps the classic deepest-queue
        // behavior. The scored task can be taken by its owner between the
        // two passes — the steal pass re-resolves the back-most runnable
        // task, so a stale score costs at most a suboptimal victim order.
        let is_gpu = ctx.machine.worker_is_gpu(worker);
        let mut ranked: Vec<(usize, u64, usize)> = Vec::new();
        for v in 0..self.queues.len() {
            if v == worker {
                continue;
            }
            let mut q = self.queues[v].lock();
            let depth = q.total_len();
            if depth == 0 {
                continue;
            }
            let score = q.pop_with(|lane| {
                lane.iter()
                    .rev()
                    .find(|t| t.runnable_on(worker, is_gpu))
                    .map(|t| resident_read_bytes(node, &t.accesses))
            });
            if let Some(bytes) = score {
                ranked.push((v, bytes, depth));
            }
        }
        ranked
            .sort_by_key(|&(_, bytes, depth)| (std::cmp::Reverse(bytes), std::cmp::Reverse(depth)));
        for (v, _, _) in ranked {
            let stolen = {
                let mut q = self.queues[v].lock();
                let depth = q.total_len();
                q.pop_with(|lane| {
                    lane.iter()
                        .rposition(|t| t.runnable_on(worker, is_gpu))
                        .and_then(|pos| lane.remove(pos))
                })
                .map(|t| (t, depth))
            };
            if let Some((t, depth)) = stolen {
                let resident = resident_read_bytes(node, &t.accesses);
                ctx.stats.record_dispatch(depth, resident, false);
                ctx.stats.record_steal(resident);
                ctx.stats.record_event(TraceEvent::Steal {
                    task: t.id,
                    thief: worker,
                    victim: v,
                    resident_bytes: resident,
                });
                return Some(t);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::{Arch, Codelet};
    use crate::handle::DataHandle;
    use crate::runtime::RuntimeConfig;
    use crate::sched::dmda::tests::Fixture;
    use crate::stats::StatsCollector;
    use crate::task::TaskBuilder;
    use peppher_sim::MachineConfig;

    fn fixture(machine: MachineConfig) -> Fixture {
        Fixture::new(machine, RuntimeConfig::default())
    }

    fn cpu_task(i: u64) -> Arc<Task> {
        let c = Arc::new(Codelet::new("t").with_impl(Arch::Cpu, |_| {}));
        Arc::new(TaskBuilder::new(&c).into_task(i))
    }

    #[test]
    fn push_balances_queues() {
        let f = fixture(MachineConfig::cpu_only(4));
        let s = WsScheduler::new(4);
        for i in 0..8 {
            s.push_ready(cpu_task(i), &f.ctx());
        }
        for w in 0..4 {
            assert_eq!(s.queue_len(w), 2, "queue {w} unbalanced");
        }
    }

    #[test]
    fn idle_worker_steals() {
        let f = fixture(MachineConfig::cpu_only(2));
        let s = WsScheduler::new(2);
        // Load everything onto worker 0 artificially.
        for i in 0..4 {
            s.seed(0, cpu_task(i));
        }
        let stolen = s.pop_for_worker(1, &f.ctx()).expect("steal succeeds");
        assert_eq!(stolen.id, 3, "steals from the back");
        assert_eq!(
            s.pop_for_worker(0, &f.ctx()).unwrap().id,
            0,
            "owner pops from front"
        );
    }

    #[test]
    fn gpu_worker_does_not_steal_cpu_only_tasks() {
        let f = fixture(MachineConfig::c2050_platform(1));
        let s = WsScheduler::new(2);
        s.seed(0, cpu_task(0));
        assert!(s.pop_for_worker(1, &f.ctx()).is_none());
    }

    #[test]
    fn steal_prefers_victim_with_resident_operands() {
        use crate::coherence;
        use crate::handle::AccessMode;

        // 1 CPU + 2 GPUs: the thief is GPU worker 1 (memory node 1).
        let mut f = fixture(MachineConfig::multi_gpu(1, 2));
        f.stats = StatsCollector::new(f.machine.total_workers(), true);
        let s = WsScheduler::new(f.machine.total_workers());
        let c = Arc::new(
            Codelet::new("t")
                .with_impl(Arch::Cpu, |_| {})
                .with_impl(Arch::Gpu, |_| {}),
        );
        let cold = DataHandle::new(1, vec![0f32; 256], 1024, f.machine.memory_nodes());
        let hot = DataHandle::new(2, vec![0f32; 256], 1024, f.machine.memory_nodes());
        // `hot` is resident on the thief's node before the steal.
        coherence::make_valid(&hot, 1, AccessMode::Read, &f.topo, &f.stats, &f.memory);
        let task_reading = |id, h: &DataHandle| {
            Arc::new(
                TaskBuilder::new(&c)
                    .access(h, AccessMode::Read)
                    .into_task(id),
            )
        };
        // Fixed-order stealing would hit worker 0 (the cold task) first.
        s.seed(0, task_reading(10, &cold));
        s.seed(2, task_reading(11, &hot));
        let stolen = s.pop_for_worker(1, &f.ctx()).expect("steal succeeds");
        assert_eq!(stolen.id, 11, "steals the task whose operand is resident");
        let snap = f.stats.snapshot();
        assert_eq!(snap.steals, 1);
        assert_eq!(snap.steal_resident_bytes, 1024);
        assert!(f.stats.trace.lock().iter().any(|e| matches!(
            e,
            TraceEvent::Steal {
                task: 11,
                thief: 1,
                victim: 2,
                resident_bytes: 1024,
            }
        )));
        // Next steal has only the cold victim left: classic order.
        let stolen = s
            .pop_for_worker(1, &f.ctx())
            .expect("cold steal still succeeds");
        assert_eq!(stolen.id, 10);
        assert_eq!(f.stats.snapshot().steals, 2);
    }
}
