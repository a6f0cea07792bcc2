//! Uniformly random placement (a weak baseline for ablations).

use super::fair::JobLanes;
use super::queue::ReadyQueue;
use super::{enqueue, options_for, resident_read_bytes, SchedCtx, Scheduler};
use crate::task::{ExecChoice, Task};
use parking_lot::Mutex;
use peppher_sim::VTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Assigns each ready task to a uniformly random eligible worker.
pub struct RandomScheduler {
    queues: Vec<Mutex<JobLanes<ReadyQueue>>>,
    rng: Mutex<StdRng>,
}

impl RandomScheduler {
    /// Creates queues for `workers` workers with a deterministic seed.
    pub fn new(workers: usize, seed: u64) -> Self {
        RandomScheduler {
            queues: (0..workers).map(|_| Mutex::new(JobLanes::new())).collect(),
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// Draws a uniformly random placement and records it on the task.
    fn draw(&self, task: &Arc<Task>, ctx: &SchedCtx<'_>) -> usize {
        let opts = options_for(task, ctx.machine);
        assert!(
            !opts.is_empty(),
            "task for codelet `{}` has no eligible worker",
            task.codelet.name
        );
        let pick = self.rng.lock().gen_range(0..opts.len());
        let (worker, arch) = opts[pick];
        *task.chosen.lock() = Some(ExecChoice {
            worker,
            arch,
            pred_delta: VTime::ZERO,
        });
        worker
    }
}

impl Scheduler for RandomScheduler {
    fn push(&self, tasks: &[Arc<Task>], ctx: &SchedCtx<'_>) -> Vec<Option<usize>> {
        // Draw every placement first, then enqueue per-worker groups. A
        // carried draw (a frozen replay's) is kept — re-rolling every
        // replay would burn RNG state for no scheduling benefit.
        let targets: Vec<Option<usize>> = tasks
            .iter()
            .map(|task| {
                let carried = *task.chosen.lock();
                Some(carried.map_or_else(|| self.draw(task, ctx), |c| c.worker))
            })
            .collect();
        enqueue(&self.queues, tasks, &targets);
        targets
    }

    fn pop_for_worker(&self, worker: usize, ctx: &SchedCtx<'_>) -> Option<Arc<Task>> {
        let (task, depth) = {
            let mut q = self.queues[worker].lock();
            let depth = q.total_len();
            (q.pop_with(|lane| lane.pop())?, depth)
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

    /// Pushes `n` dual-implementation tasks onto a seeded random scheduler.
    fn pushed(f: &Fixture, n: u64, seed: u64) -> RandomScheduler {
        let codelet = Arc::new(
            Codelet::new("t")
                .with_impl(Arch::Cpu, |_| {})
                .with_impl(Arch::Gpu, |_| {}),
        );
        let s = RandomScheduler::new(f.machine.total_workers(), seed);
        let tasks: Vec<Arc<Task>> = (0..n)
            .map(|i| Arc::new(TaskBuilder::new(&codelet).into_task(i)))
            .collect();
        s.push(&tasks, &f.ctx());
        s
    }

    #[test]
    fn spreads_across_eligible_workers() {
        let f = Fixture::new(MachineConfig::c2050_platform(2), RuntimeConfig::default());
        let s = pushed(&f, 300, 1);
        let mut counts = vec![0usize; f.machine.total_workers()];
        for (w, count) in counts.iter_mut().enumerate() {
            while s.pop_for_worker(w, &f.ctx()).is_some() {
                *count += 1;
            }
        }
        assert_eq!(counts.iter().sum::<usize>(), 300);
        // All three workers (2 CPU + 1 GPU) should receive a decent share.
        for (w, &c) in counts.iter().enumerate() {
            assert!(c > 50, "worker {w} got only {c} of 300 tasks");
        }
    }

    #[test]
    fn chosen_arch_matches_worker_kind() {
        let f = Fixture::new(MachineConfig::c2050_platform(1), RuntimeConfig::default());
        let s = pushed(&f, 50, 7);
        for w in 0..f.machine.total_workers() {
            while let Some(t) = s.pop_for_worker(w, &f.ctx()) {
                let arch = t.chosen.lock().unwrap().arch;
                if f.machine.worker_is_gpu(w) {
                    assert_eq!(arch, Arch::Gpu);
                } else {
                    assert_eq!(arch, Arch::Cpu);
                }
            }
        }
    }
}
