//! Concurrency stress for the per-worker parking protocol: many submitter
//! threads racing `wait_all` and each other must never lose a wakeup (a
//! lost wakeup shows up as a hang — every worker parked with tasks still
//! queued — or as a wrong `tasks_executed` count).

use peppher_runtime::{
    AccessMode, Arch, Codelet, Runtime, RuntimeConfig, SchedulerKind, TaskBuilder,
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
    stress_policy(
        SchedulerKind::Eager,
        MachineConfig::cpu_only(2).without_noise(),
    );
}

#[test]
fn concurrent_submitters_lose_no_tasks_ws() {
    stress_policy(
        SchedulerKind::Ws,
        MachineConfig::cpu_only(3).without_noise(),
    );
}

#[test]
fn concurrent_submitters_lose_no_tasks_random() {
    stress_policy(
        SchedulerKind::Random,
        MachineConfig::c2050_platform(2).without_noise(),
    );
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
