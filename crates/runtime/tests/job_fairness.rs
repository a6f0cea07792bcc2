//! Job behaviour: scoped waits, one dispatch order shared by every job,
//! and leak-free cancellation.
//!
//! The dispatch-order cell runs on a single CPU worker so dispatch order
//! *is* completion order: a gate task parks the worker while two jobs'
//! tasks land in the ready queue, then each kernel records its position
//! in the drain. No timing is measured — the assertions are on dispatch
//! positions.

use peppher_runtime::{
    AccessMode, Arch, Codelet, JobConfig, Runtime, RuntimeConfig, SchedulerKind, TaskBuilder,
};
use peppher_sim::MachineConfig;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

fn single_worker(sched: SchedulerKind) -> Runtime {
    Runtime::with_config(
        MachineConfig::cpu_only(1).without_noise(),
        RuntimeConfig {
            scheduler: sched,
            ..RuntimeConfig::default()
        },
    )
}

/// A codelet whose kernel spin-waits until `gate` is raised — parks the
/// single worker so submissions pile up behind it.
fn gate_codelet(gate: &Arc<AtomicBool>) -> Arc<Codelet> {
    let gate = Arc::clone(gate);
    Arc::new(Codelet::new("job_gate").with_impl(Arch::Cpu, move |_| {
        while !gate.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
    }))
}

/// `JobHandle::wait` counts only that job's tasks: it must return while
/// another tenant still has a task in flight (the pre-job `wait_all`
/// would have blocked on the runtime-wide counter).
#[test]
fn wait_scopes_to_the_job() {
    // Eager's shared queue lets the free worker take every quick task; a
    // placing scheduler could pin them behind the spin-blocked worker
    // (virtual timelines cannot see real blocking).
    let rt = Runtime::with_config(
        MachineConfig::cpu_only(2).without_noise(),
        RuntimeConfig {
            scheduler: SchedulerKind::Eager,
            ..RuntimeConfig::default()
        },
    );
    let blocker_gate = Arc::new(AtomicBool::new(false));
    let blocked = rt.job(JobConfig::default());
    let quick = rt.job(JobConfig::default());

    blocked.submit(TaskBuilder::new(&gate_codelet(&blocker_gate)));
    let fast_cl = Arc::new(Codelet::new("job_quick").with_impl(Arch::Cpu, |_| {}));
    for _ in 0..16 {
        quick.submit(TaskBuilder::new(&fast_cl));
    }

    // Must return with the other tenant's blocker still spinning.
    quick.wait();
    assert_eq!(quick.stats().pending, 0);
    assert_eq!(
        blocked.stats().pending,
        1,
        "the blocked tenant's task is still in flight"
    );

    blocker_gate.store(true, Ordering::Release);
    blocked.wait();
    rt.shutdown();
}

/// A job scopes work; it does not reorder dispatch. Every job's tasks
/// share the ready queues and dispatch in `(priority desc, submission
/// order)`, like the default job's: behind a gate on one worker, two
/// jobs' interleaved submissions drain in submission order, except that
/// the one prioritized task goes first.
#[test]
fn jobs_do_not_reorder_dispatch() {
    for sched in [
        SchedulerKind::Eager,
        SchedulerKind::Dmda,
        SchedulerKind::Dmdar,
    ] {
        let rt = single_worker(sched);
        let gate = Arc::new(AtomicBool::new(false));
        let started = Arc::new(AtomicBool::new(false));
        let gate_cl = {
            let (gate, started) = (Arc::clone(&gate), Arc::clone(&started));
            Arc::new(Codelet::new("job_gate").with_impl(Arch::Cpu, move |_| {
                started.store(true, Ordering::Release);
                while !gate.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            }))
        };
        TaskBuilder::new(&gate_cl).submit(&rt);
        while !started.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }

        let order = Arc::new(Mutex::new(Vec::new()));
        let record = |i: usize| {
            let order = Arc::clone(&order);
            let cl = Codelet::new("job_order").with_impl(Arch::Cpu, move |_| {
                order.lock().unwrap().push(i);
            });
            TaskBuilder::new(&Arc::new(cl))
        };
        let a = rt.job(JobConfig::default());
        let b = rt.job(JobConfig::default());
        a.submit(record(0));
        a.submit(record(1));
        b.submit(record(2));
        a.submit(record(3));
        b.submit(record(4).priority(5));

        gate.store(true, Ordering::Release);
        a.wait();
        b.wait();
        rt.wait_all();
        assert_eq!(
            *order.lock().unwrap(),
            [4, 0, 1, 2, 3],
            "{sched:?}: jobs must dispatch in (priority desc, submission order)"
        );
        rt.shutdown();
    }
}

/// Cancellation mid-stream leaks nothing: queued tasks drain without
/// executing, dependents unwind, the job's device replicas are all
/// reclaimed (per-job accounting returns to zero on every device node),
/// the memory manager's invariants hold, and a surviving tenant's data
/// comes out bitwise exact.
#[test]
fn cancel_mid_graph_leaks_nothing() {
    const CHAIN: usize = 300;
    const SURVIVOR_CHAIN: usize = 64;
    let rt = Runtime::with_config(
        MachineConfig::c2050_platform(1).without_noise(),
        RuntimeConfig::default(),
    );

    // The doomed job: a GPU-only write chain, so device replicas
    // definitely exist when the axe falls.
    let doomed = rt.job(JobConfig::default());
    let gpu_cl = Arc::new(Codelet::new("doomed_gpu").with_impl(Arch::Gpu, |ctx| {
        let v = ctx.w::<Vec<f32>>(0);
        for x in v.iter_mut() {
            *x += 1.0;
        }
    }));
    // The chain's head spins until the axe is visibly falling, so the tail
    // is still queued when `cancel` lands — `drained > 0` is deterministic,
    // not a race against a fast worker. (If the cancel flag beats the pop,
    // the head itself drains instead of executing; either way nothing runs
    // past it.)
    let head_cl = {
        let doomed = doomed.clone();
        Arc::new(
            Codelet::new("doomed_head").with_impl(Arch::Gpu, move |ctx| {
                while !doomed.is_cancelled() {
                    std::hint::spin_loop();
                }
                let v = ctx.w::<Vec<f32>>(0);
                for x in v.iter_mut() {
                    *x += 1.0;
                }
            }),
        )
    };
    let doomed_data = doomed.register(vec![0.0f32; 1024]);
    doomed.submit_batch(
        std::iter::once(TaskBuilder::new(&head_cl).access(&doomed_data, AccessMode::ReadWrite))
            .chain(
                (1..CHAIN)
                    .map(|_| TaskBuilder::new(&gpu_cl).access(&doomed_data, AccessMode::ReadWrite)),
            )
            .collect(),
    );

    // The survivor runs concurrently on its own handle.
    let survivor = rt.job(JobConfig::default());
    let add_cl = Arc::new(
        Codelet::new("survivor_add")
            .with_impl(Arch::Cpu, |ctx| {
                let v = ctx.w::<Vec<f32>>(0);
                for x in v.iter_mut() {
                    *x += 1.0;
                }
            })
            .with_impl(Arch::Gpu, |ctx| {
                let v = ctx.w::<Vec<f32>>(0);
                for x in v.iter_mut() {
                    *x += 1.0;
                }
            }),
    );
    let survivor_data = survivor.register(vec![0.0f32; 512]);
    survivor.submit_batch(
        (0..SURVIVOR_CHAIN)
            .map(|_| TaskBuilder::new(&add_cl).access(&survivor_data, AccessMode::ReadWrite))
            .collect(),
    );

    let drained = doomed.cancel();
    let stats = doomed.stats();
    assert_eq!(
        stats.completed + stats.drained,
        stats.submitted,
        "every task is accounted for after cancel"
    );
    assert_eq!(drained, stats.drained);
    assert!(
        stats.drained > 0,
        "cancelling a {CHAIN}-deep serialized chain must catch queued tasks \
         (completed {}, drained {})",
        stats.completed,
        stats.drained
    );
    assert_eq!(doomed.stats().pending, 0);

    // No replica bytes of the cancelled job survive on any device node
    // (node 0's master copy stays until unregistration).
    let device_bytes = rt.memory().job_used_bytes(doomed.id());
    assert!(
        device_bytes.iter().skip(1).all(|&b| b == 0),
        "cancelled job still owns device bytes: {device_bytes:?}"
    );
    rt.memory()
        .validate()
        .expect("memory accounting is consistent");

    // The survivor is untouched: bitwise-exact against the host shadow.
    survivor.wait();
    let shadow = vec![SURVIVOR_CHAIN as f32; 512];
    let out: Vec<f32> = rt.unregister(survivor_data);
    assert_eq!(out, shadow, "surviving tenant's data corrupted by cancel");

    // The cancelled job's handle is still unregistrable (master copy is
    // coherent after the reclaim's writebacks) and drops its accounting.
    let _: Vec<f32> = rt.unregister(doomed_data);
    assert!(
        rt.memory()
            .job_used_bytes(doomed.id())
            .iter()
            .all(|&b| b == 0),
        "unregistration must clear the last of the job's accounting"
    );
    rt.memory()
        .validate()
        .expect("memory accounting after unregister");
    rt.shutdown();
}
