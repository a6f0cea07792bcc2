//! `dag_jobs`: the runtime's submission and dispatch hot path on its own —
//! no data movement and no kernel work. One op opens a job, submits one
//! ad-hoc DAG of near-empty tasks through it, waits for the job and
//! unregisters the job's handles:
//!
//! - `INDEPENDENT` independent tasks through one `submit_batch`;
//! - a `CHAIN`-task ReadWrite chain on a job-registered handle;
//! - a fanout of one writer to `READERS` readers of another handle.
//!
//! Every kernel folds its scalar argument into the op's result so the
//! output can be checked against the same folds done sequentially.

use crate::spans::Tracer;
use crate::{Rng, Workload};
use peppher_runtime::{AccessMode, Arch, Codelet, JobConfig, Runtime, SchedulerKind, TaskBuilder};
use peppher_sim::MachineConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const INDEPENDENT: usize = 64;
const CHAIN: usize = 16;
const READERS: usize = 32;
/// Tasks one op runs.
pub const TASKS_PER_OP: u64 = (INDEPENDENT + CHAIN + 1 + READERS) as u64;

/// One chain step: an affine map whose composition depends on order.
fn chain_step(x: u64, k: u64) -> u64 {
    x.wrapping_mul(3).wrapping_add(k)
}

pub struct DagJobs {
    rt: Runtime,
    rng: Rng,
    /// Sum of the independent tasks' arguments, as the tasks add them.
    independent_sum: Arc<AtomicU64>,
    /// Sum of the values the fanout readers observed.
    fanout_sum: Arc<AtomicU64>,
    add: Arc<Codelet>,
    step: Arc<Codelet>,
    write: Arc<Codelet>,
    read: Arc<Codelet>,
}

impl DagJobs {
    pub fn new(seed: u64) -> Self {
        let rt = Runtime::new(
            MachineConfig::cpu_only(2).without_noise(),
            SchedulerKind::Dmda,
        );
        let independent_sum = Arc::new(AtomicU64::new(0));
        let fanout_sum = Arc::new(AtomicU64::new(0));
        let sum = Arc::clone(&independent_sum);
        let add = Codelet::new("perfbench_add").with_impl(Arch::Cpu, move |ctx| {
            sum.fetch_add(*ctx.arg::<u64>(), Ordering::Relaxed);
        });
        let step = Codelet::new("perfbench_step").with_impl(Arch::Cpu, |ctx| {
            let k = *ctx.arg::<u64>();
            let x = ctx.w::<u64>(0);
            *x = chain_step(*x, k);
        });
        let write = Codelet::new("perfbench_write").with_impl(Arch::Cpu, |ctx| {
            let v = *ctx.arg::<u64>();
            *ctx.w::<u64>(0) = v;
        });
        let sum = Arc::clone(&fanout_sum);
        let read = Codelet::new("perfbench_read").with_impl(Arch::Cpu, move |ctx| {
            sum.fetch_add(*ctx.r::<u64>(0), Ordering::Relaxed);
        });
        DagJobs {
            rt,
            rng: Rng::new(seed),
            independent_sum,
            fanout_sum,
            add: Arc::new(add),
            step: Arc::new(step),
            write: Arc::new(write),
            read: Arc::new(read),
        }
    }
}

impl Workload for DagJobs {
    fn runtime(&self) -> &Runtime {
        &self.rt
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let args: Vec<u64> = (0..INDEPENDENT).map(|_| self.rng.below(1 << 20)).collect();
        let steps: Vec<u64> = (0..CHAIN).map(|_| self.rng.below(1 << 20)).collect();
        let (chain0, shared) = (self.rng.below(1 << 20), self.rng.below(1 << 20));
        self.independent_sum.store(0, Ordering::Relaxed);
        self.fanout_sum.store(0, Ordering::Relaxed);

        let job = self.rt.job(JobConfig::default());
        let batch: Vec<TaskBuilder> = args
            .iter()
            .map(|&a| TaskBuilder::new(&self.add).arg(a))
            .collect();
        tr.span("task.submit_batch", INDEPENDENT as u32, |_| {
            job.submit_batch(batch);
        });
        let (acc, fan) = tr.span("runtime.register", 2, |_| {
            (job.register(chain0), job.register(0u64))
        });
        tr.span("task.submit", (CHAIN + 1 + READERS) as u32, |_| {
            for &k in &steps {
                job.submit(
                    TaskBuilder::new(&self.step)
                        .access(&acc, AccessMode::ReadWrite)
                        .arg(k),
                );
            }
            job.submit(
                TaskBuilder::new(&self.write)
                    .access(&fan, AccessMode::Write)
                    .arg(shared),
            );
            for _ in 0..READERS {
                job.submit(TaskBuilder::new(&self.read).access(&fan, AccessMode::Read));
            }
        });
        tr.span("job.wait", 0, |_| job.wait());
        let (chained, fanned) = tr.span("runtime.unregister", 2, |_| {
            (
                self.rt.unregister::<u64>(acc),
                self.rt.unregister::<u64>(fan),
            )
        });

        let want_chain = steps.iter().fold(chain0, |x, &k| chain_step(x, k));
        let want_sum: u64 = args.iter().sum();
        let got_sum = self.independent_sum.load(Ordering::Relaxed);
        let got_fan = self.fanout_sum.load(Ordering::Relaxed);
        if chained != want_chain || fanned != shared {
            return Err(format!(
                "chain {chained} != {want_chain} or fan {fanned} != {shared}"
            ));
        }
        if got_sum != want_sum || got_fan != shared * READERS as u64 {
            return Err(format!(
                "independent sum {got_sum} != {want_sum} or fanout sum {got_fan}"
            ));
        }
        Ok(TASKS_PER_OP)
    }
}
