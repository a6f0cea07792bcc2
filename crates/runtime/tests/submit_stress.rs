//! Concurrency stress for the per-worker parking protocol: many submitter
//! threads racing `wait_all` and each other must never lose a wakeup (a
//! lost wakeup shows up as a hang — every worker parked with tasks still
//! queued — or as a wrong `tasks_executed` count). Chains and fan-outs
//! add the completion path: a released successor either goes through the
//! queue or runs directly on the worker that released it, and either way
//! runs exactly once, after its predecessors.

use peppher_runtime::{
    AccessMode, Arch, Codelet, KernelCtx, Runtime, RuntimeConfig, SchedulerKind, TaskBuilder,
};
use peppher_sim::{KernelCost, MachineConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SUBMITTERS: usize = 4;
const TASKS_PER_SUBMITTER: u64 = 250;

fn counting_codelet(hits: &Arc<AtomicU64>) -> Arc<Codelet> {
    let h_cpu = Arc::clone(hits);
    let h_gpu = Arc::clone(hits);
    Arc::new(
        Codelet::new("stress")
            .with_impl(Arch::Cpu, move |_| {
                h_cpu.fetch_add(1, Ordering::Relaxed);
            })
            .with_impl(Arch::Gpu, move |_| {
                h_gpu.fetch_add(1, Ordering::Relaxed);
            }),
    )
}

fn stress_policy(kind: SchedulerKind, machine: MachineConfig) {
    let rt = Runtime::with_config(
        machine,
        RuntimeConfig {
            scheduler: kind,
            ..RuntimeConfig::default()
        },
    );
    let hits = Arc::new(AtomicU64::new(0));
    let codelet = counting_codelet(&hits);

    let threads: Vec<_> = (0..SUBMITTERS)
        .map(|_| {
            let rt = rt.clone();
            let codelet = Arc::clone(&codelet);
            std::thread::spawn(move || {
                for _ in 0..TASKS_PER_SUBMITTER {
                    TaskBuilder::new(&codelet)
                        .cost(KernelCost::new(100.0, 0.0, 0.0))
                        .submit(&rt);
                }
            })
        })
        .collect();
    // Race wait_all against in-flight submission: it may legitimately
    // return while submitters are still running (pending momentarily hit
    // zero), but it must never hang and never miss a done notification.
    rt.wait_all();
    for t in threads {
        t.join().expect("submitter thread panicked");
    }
    rt.wait_all();
    let expected = (SUBMITTERS as u64) * TASKS_PER_SUBMITTER;
    assert_eq!(
        hits.load(Ordering::Relaxed),
        expected,
        "{kind:?}: every submitted kernel ran exactly once"
    );
    assert_eq!(rt.stats().tasks_executed, expected, "{kind:?}: stats agree");
    rt.shutdown();
}

#[test]
fn concurrent_submitters_lose_no_tasks_eager() {
    for workers in [2, 3] {
        stress_policy(
            SchedulerKind::Eager,
            MachineConfig::cpu_only(workers).without_noise(),
        );
    }
}

#[test]
fn concurrent_submitters_lose_no_tasks_dmda() {
    stress_policy(
        SchedulerKind::Dmda,
        MachineConfig::c2050_platform(2).without_noise(),
    );
}

#[test]
fn concurrent_submitters_lose_no_tasks_dmdar() {
    stress_policy(
        SchedulerKind::Dmdar,
        MachineConfig::cpu_only(2).without_noise(),
    );
}

/// Alternating submit → wait_all rounds drive every worker through many
/// park/unpark transitions; a single lost wakeup deadlocks the round.
#[test]
fn repeated_park_unpark_rounds_complete() {
    let rt = Runtime::new(
        MachineConfig::cpu_only(2).without_noise(),
        SchedulerKind::Eager,
    );
    let hits = Arc::new(AtomicU64::new(0));
    let codelet = counting_codelet(&hits);
    let mut expected = 0u64;
    for round in 0..200 {
        let burst = 1 + (round % 7) as u64;
        for _ in 0..burst {
            TaskBuilder::new(&codelet)
                .cost(KernelCost::new(50.0, 0.0, 0.0))
                .submit(&rt);
        }
        expected += burst;
        rt.wait_all();
        assert_eq!(hits.load(Ordering::Relaxed), expected, "round {round}");
    }
    rt.shutdown();
}

/// Dependent chains force workers to park while predecessors run, then be
/// woken by the completion path (the worker's `release` of the successors
/// `task.complete` returns), not by a submitter — covering the second
/// wakeup producer.
#[test]
fn completion_driven_wakeups_deliver_chains() {
    let rt = Runtime::new(
        MachineConfig::cpu_only(2).without_noise(),
        SchedulerKind::Eager,
    );
    let c = Arc::new(Codelet::new("chain").with_impl(Arch::Cpu, |ctx| {
        let v = ctx.w::<Vec<u64>>(0);
        v[0] += 1;
    }));
    let h = rt.register(vec![0u64; 1]);
    for _ in 0..300 {
        TaskBuilder::new(&c)
            .access(&h, AccessMode::ReadWrite)
            .cost(KernelCost::new(50.0, 8.0, 8.0))
            .submit(&rt);
    }
    rt.wait_all();
    assert_eq!(rt.unregister::<Vec<u64>>(h)[0], 300);
    rt.shutdown();
}

const ROUNDS: u64 = 8;
const CHAIN: u64 = 16;
const READERS: u64 = 16;

/// One chain step: an affine map whose composition depends on order.
fn step(x: u64, k: u64) -> u64 {
    x.wrapping_mul(3).wrapping_add(k)
}

/// A codelet running `kernel` on the CPU and the GPU alike.
fn both(
    name: &str,
    kernel: impl Fn(&mut KernelCtx<'_>) + Clone + Send + Sync + 'static,
) -> Arc<Codelet> {
    Arc::new(
        Codelet::new(name)
            .with_impl(Arch::Cpu, kernel.clone())
            .with_impl(Arch::Gpu, kernel),
    )
}

/// Racing submitters each run rounds of a `CHAIN`-step ReadWrite chain
/// and a fan-out of one writer to `READERS` readers, then read both
/// results back: the chain must fold its steps in order, every reader
/// must see the writer's value, and every task must run exactly once.
fn chain_fanout_stress(kind: SchedulerKind, machine: MachineConfig) {
    let rt = Runtime::with_config(
        machine,
        RuntimeConfig {
            scheduler: kind,
            ..RuntimeConfig::default()
        },
    );
    let seen = Arc::new(AtomicU64::new(0));
    let step_cl = both("stress_step", |ctx| {
        let k = *ctx.arg::<u64>();
        let x = ctx.w::<u64>(0);
        *x = step(*x, k);
    });
    let write_cl = both("stress_write", |ctx| *ctx.w::<u64>(0) = *ctx.arg::<u64>());
    let read_cl = {
        let seen = Arc::clone(&seen);
        both("stress_read", move |ctx| {
            seen.fetch_add(*ctx.r::<u64>(0), Ordering::Relaxed);
        })
    };
    let threads: Vec<_> = (0..SUBMITTERS as u64)
        .map(|t| {
            let rt = rt.clone();
            let (step_cl, write_cl, read_cl) = (
                Arc::clone(&step_cl),
                Arc::clone(&write_cl),
                Arc::clone(&read_cl),
            );
            std::thread::spawn(move || {
                for round in 0..ROUNDS {
                    let seed = t * 1000 + round;
                    let acc = rt.register(seed);
                    for k in 0..CHAIN {
                        TaskBuilder::new(&step_cl)
                            .access(&acc, AccessMode::ReadWrite)
                            .arg(k)
                            .submit(&rt);
                    }
                    let fan = rt.register(0u64);
                    TaskBuilder::new(&write_cl)
                        .access(&fan, AccessMode::Write)
                        .arg(seed)
                        .submit(&rt);
                    for _ in 0..READERS {
                        TaskBuilder::new(&read_cl)
                            .access(&fan, AccessMode::Read)
                            .submit(&rt);
                    }
                    let want = (0..CHAIN).fold(seed, step);
                    assert_eq!(rt.unregister::<u64>(acc), want, "chain {t}.{round}");
                    assert_eq!(rt.unregister::<u64>(fan), seed, "fan-out {t}.{round}");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("submitter thread panicked");
    }
    rt.wait_all();
    let seeds = (0..SUBMITTERS as u64).flat_map(|t| (0..ROUNDS).map(move |r| t * 1000 + r));
    let want: u64 = seeds.map(|s| s * READERS).sum();
    assert_eq!(
        seen.load(Ordering::Relaxed),
        want,
        "{kind:?}: readers saw the writes"
    );
    let tasks = SUBMITTERS as u64 * ROUNDS * (CHAIN + 1 + READERS);
    assert_eq!(
        rt.stats().tasks_executed,
        tasks,
        "{kind:?}: every task ran once"
    );
    rt.shutdown();
}

#[test]
fn racing_chains_and_fanouts_run_exactly_once() {
    for kind in [
        SchedulerKind::Eager,
        SchedulerKind::Dmda,
        SchedulerKind::Dmdar,
    ] {
        chain_fanout_stress(kind, MachineConfig::cpu_only(2).without_noise());
    }
    chain_fanout_stress(
        SchedulerKind::Dmda,
        MachineConfig::c2050_platform(2).without_noise(),
    );
}
