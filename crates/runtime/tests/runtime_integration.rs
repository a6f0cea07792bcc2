//! End-to-end runtime behaviour: dependency ordering, heterogeneous
//! placement, virtual-time properties, history persistence.

use peppher_runtime::{
    AccessMode, Arch, Codelet, Runtime, RuntimeConfig, SchedulerKind, TaskBuilder, TraceEvent,
};
use peppher_sim::{KernelCost, MachineConfig};
use std::sync::Arc;

fn incr_codelet(archs: &[Arch]) -> Arc<Codelet> {
    let mut c = Codelet::new("incr");
    for &a in archs {
        c = c.with_impl(a, |ctx| {
            let v = ctx.w::<Vec<f64>>(0);
            for x in v.iter_mut() {
                *x += 1.0;
            }
        });
    }
    Arc::new(c)
}

#[test]
fn raw_chain_executes_in_order() {
    let rt = Runtime::new(
        MachineConfig::c2050_platform(2).without_noise(),
        SchedulerKind::Dmda,
    );
    let c = incr_codelet(&[Arch::Cpu, Arch::Gpu]);
    let h = rt.register(vec![0.0f64; 1000]);
    for _ in 0..50 {
        TaskBuilder::new(&c)
            .access(&h, AccessMode::ReadWrite)
            .cost(KernelCost::new(1000.0, 8000.0, 8000.0))
            .submit(&rt);
    }
    rt.wait_all();
    let out = rt.unregister::<Vec<f64>>(h);
    assert!(
        out.iter().all(|&x| x == 50.0),
        "all 50 increments applied in order"
    );
}

#[test]
fn independent_tasks_spread_across_workers() {
    let rt = Runtime::new(MachineConfig::cpu_only(4), SchedulerKind::Eager);
    let c = incr_codelet(&[Arch::Cpu]);
    let handles: Vec<_> = (0..32).map(|_| rt.register(vec![0.0f64; 10_000])).collect();
    for h in &handles {
        TaskBuilder::new(&c)
            .access(h, AccessMode::ReadWrite)
            .cost(KernelCost::new(1e7, 8e4, 8e4))
            .submit(&rt);
    }
    rt.wait_all();
    let stats = rt.stats();
    assert_eq!(stats.tasks_executed, 32);
    let busy_workers = stats.tasks_per_worker.iter().filter(|&&n| n > 0).count();
    assert!(
        busy_workers >= 2,
        "work should spread, got {:?}",
        stats.tasks_per_worker
    );
    for h in handles {
        assert!(rt.unregister::<Vec<f64>>(h).iter().all(|&x| x == 1.0));
    }
}

#[test]
fn virtual_makespan_reflects_parallelism() {
    // 8 equal independent tasks, each ~T: on 4 CPUs makespan ≈ 2T, not 8T.
    let rt = Runtime::new(MachineConfig::cpu_only(4), SchedulerKind::Dmda);
    let c = incr_codelet(&[Arch::Cpu]);
    let cost = KernelCost::new(9e6, 0.0, 0.0).with_arithmetic_efficiency(1.0);
    // With peak 9 GFLOPS and 100% efficiency: 1 ms per task.
    let handles: Vec<_> = (0..8).map(|_| rt.register(vec![0.0f64; 8])).collect();
    for h in &handles {
        TaskBuilder::new(&c)
            .access(h, AccessMode::ReadWrite)
            .cost(cost)
            .submit(&rt);
    }
    rt.wait_all();
    let makespan_ms = rt.makespan().as_millis_f64();
    assert!(
        makespan_ms < 3.0,
        "8x1ms tasks on 4 workers should take ~2ms virtual, got {makespan_ms:.2}ms"
    );
    assert!(
        makespan_ms > 1.5,
        "two waves minimum, got {makespan_ms:.2}ms"
    );
}

#[test]
fn dependency_chain_serializes_virtual_time() {
    let rt = Runtime::new(MachineConfig::cpu_only(4), SchedulerKind::Dmda);
    let c = incr_codelet(&[Arch::Cpu]);
    let cost = KernelCost::new(9e6, 0.0, 0.0).with_arithmetic_efficiency(1.0); // ~1ms
    let h = rt.register(vec![0.0f64; 8]);
    for _ in 0..8 {
        TaskBuilder::new(&c)
            .access(&h, AccessMode::ReadWrite)
            .cost(cost)
            .submit(&rt);
    }
    rt.wait_all();
    let makespan_ms = rt.makespan().as_millis_f64();
    assert!(
        makespan_ms > 7.0,
        "8 chained 1ms tasks cannot run in parallel, got {makespan_ms:.2}ms"
    );
    rt.unregister::<Vec<f64>>(h);
}

#[test]
fn concurrent_reads_do_not_serialize() {
    // One producer writes, then N readers: readers may overlap (Fig. 3's
    // line-10/line-12 independence).
    let rt = Runtime::new(MachineConfig::cpu_only(4), SchedulerKind::Dmda);
    let write = Arc::new(Codelet::new("w").with_impl(Arch::Cpu, |ctx| {
        ctx.w::<Vec<f64>>(0).fill(7.0);
    }));
    let read = Arc::new(Codelet::new("r").with_impl(Arch::Cpu, |ctx| {
        let src = ctx.r::<Vec<f64>>(0);
        assert!(src.iter().all(|&x| x == 7.0));
        let dst_val = src[0] + 1.0;
        ctx.w::<Vec<f64>>(1).fill(dst_val);
    }));
    let cost = KernelCost::new(9e6, 0.0, 0.0).with_arithmetic_efficiency(1.0); // ~1ms
    let src = rt.register(vec![0.0f64; 64]);
    let sinks: Vec<_> = (0..4).map(|_| rt.register(vec![0.0f64; 64])).collect();
    TaskBuilder::new(&write)
        .access(&src, AccessMode::Write)
        .cost(cost)
        .submit(&rt);
    for s in &sinks {
        TaskBuilder::new(&read)
            .access(&src, AccessMode::Read)
            .access(s, AccessMode::Write)
            .cost(cost)
            .submit(&rt);
    }
    rt.wait_all();
    let makespan_ms = rt.makespan().as_millis_f64();
    // Writer (1ms) + readers in parallel (~1ms) ≈ 2ms; serialized would be 5ms.
    assert!(
        makespan_ms < 3.5,
        "readers should overlap after the writer, got {makespan_ms:.2}ms"
    );
    for s in sinks {
        assert!(rt.unregister::<Vec<f64>>(s).iter().all(|&x| x == 8.0));
    }
    rt.unregister::<Vec<f64>>(src);
}

#[test]
fn gpu_execution_produces_correct_results_and_transfers() {
    let mut machine = MachineConfig::c2050_platform(1).without_noise();
    machine.cpu_workers = 1;
    let rt = Runtime::with_config(
        machine,
        RuntimeConfig {
            scheduler: SchedulerKind::Eager,
            enable_trace: true,
            ..RuntimeConfig::default()
        },
    );
    // GPU-only codelet forces device execution.
    let c = incr_codelet(&[Arch::Gpu]);
    let h = rt.register(vec![1.0f64; 4096]);
    TaskBuilder::new(&c)
        .access(&h, AccessMode::ReadWrite)
        .cost(KernelCost::new(4096.0, 32768.0, 32768.0))
        .submit(&rt);
    rt.wait_all();
    let stats = rt.stats();
    assert_eq!(stats.h2d_transfers, 1, "RW access fetches data to device");
    assert_eq!(stats.d2h_transfers, 0, "no host access yet: no copy-back");
    let out = rt.unregister::<Vec<f64>>(h);
    assert!(out.iter().all(|&x| x == 2.0));
    // Unregister forced the lazy device-to-host copy.
    assert_eq!(rt.stats().d2h_transfers, 1);
    assert!(rt
        .trace()
        .iter()
        .any(|e| matches!(e, TraceEvent::Transfer { from: 1, to: 0, .. })));
}

#[test]
fn repeated_gpu_use_exploits_locality() {
    // The §IV-H claim: with handles staying registered, repeated component
    // calls on the GPU transfer once, not once per call.
    let mut machine = MachineConfig::c2050_platform(1).without_noise();
    machine.cpu_workers = 1;
    let rt = Runtime::new(machine, SchedulerKind::Eager);
    let c = incr_codelet(&[Arch::Gpu]);
    let h = rt.register(vec![0.0f64; 4096]);
    for _ in 0..10 {
        TaskBuilder::new(&c)
            .access(&h, AccessMode::ReadWrite)
            .cost(KernelCost::new(4096.0, 32768.0, 32768.0))
            .submit(&rt);
    }
    rt.wait_all();
    assert_eq!(rt.stats().h2d_transfers, 1, "data stays resident on device");
    assert_eq!(rt.unregister::<Vec<f64>>(h)[0], 10.0);
}

#[test]
fn dmda_learns_to_prefer_faster_device() {
    // Large regular kernels: after calibration, dmda should send most work
    // to the (much faster) GPU.
    let rt = Runtime::new(
        MachineConfig::c2050_platform(4).without_noise(),
        SchedulerKind::Dmda,
    );
    let c = incr_codelet(&[Arch::Cpu, Arch::Gpu]);
    let cost = KernelCost::new(5e9, 4e6, 4e6); // heavily compute-bound
    let handles: Vec<_> = (0..40).map(|_| rt.register(vec![0.0f64; 1000])).collect();
    for h in &handles {
        TaskBuilder::new(&c)
            .access(h, AccessMode::ReadWrite)
            .cost(cost)
            .submit(&rt);
        rt.wait_all(); // sequential submissions let history steer later tasks
    }
    let stats = rt.stats();
    let gpu_tasks = stats.tasks_per_worker[4];
    assert!(
        gpu_tasks >= 25,
        "GPU should win most placements after calibration, got {:?}",
        stats.tasks_per_worker
    );
}

#[test]
fn shared_perf_registry_survives_runtime_restart() {
    let machine = MachineConfig::c2050_platform(2).without_noise();
    let rt1 = Runtime::new(machine.clone(), SchedulerKind::Dmda);
    let perf = Arc::clone(rt1.perf());
    let c = incr_codelet(&[Arch::Cpu, Arch::Gpu]);
    let h = rt1.register(vec![0.0f64; 1000]);
    for _ in 0..12 {
        TaskBuilder::new(&c)
            .access(&h, AccessMode::ReadWrite)
            .cost(KernelCost::new(1e8, 8e3, 8e3))
            .submit(&rt1);
    }
    rt1.wait_all();
    rt1.unregister::<Vec<f64>>(h);
    let keys_before = perf.key_count();
    assert!(keys_before > 0);
    rt1.shutdown();

    // Second run reuses calibrated models (StarPU's persisted histories).
    let rt2 = Runtime::with_shared_perf(machine, RuntimeConfig::default(), perf);
    assert_eq!(rt2.perf().key_count(), keys_before);
}

#[test]
fn force_worker_pins_execution() {
    let rt = Runtime::new(MachineConfig::cpu_only(4), SchedulerKind::Dmda);
    let c = incr_codelet(&[Arch::Cpu]);
    let h = rt.register(vec![0.0f64; 16]);
    for _ in 0..5 {
        TaskBuilder::new(&c)
            .access(&h, AccessMode::ReadWrite)
            .on_worker(2)
            .submit(&rt);
    }
    rt.wait_all();
    let stats = rt.stats();
    assert_eq!(stats.tasks_per_worker[2], 5);
    assert_eq!(stats.tasks_executed, 5);
}

#[test]
fn team_task_advances_all_cpu_timelines() {
    let rt = Runtime::new(MachineConfig::cpu_only(4), SchedulerKind::Eager);
    let team = Arc::new(Codelet::new("omp").with_impl(Arch::CpuTeam, |ctx| {
        assert_eq!(ctx.team_size, 4);
        ctx.w::<Vec<f64>>(0).fill(3.0);
    }));
    let h = rt.register(vec![0.0f64; 64]);
    TaskBuilder::new(&team)
        .access(&h, AccessMode::Write)
        .cost(KernelCost::new(3.6e7, 0.0, 0.0).with_arithmetic_efficiency(1.0))
        .submit(&rt);
    rt.wait_all();
    // 36 MFLOP on 4x9 GFLOPS cores ≈ 1 ms; a single core would need 4 ms.
    let ms = rt.makespan().as_millis_f64();
    assert!(
        ms < 2.0,
        "team execution should use all 4 cores, got {ms:.2}ms"
    );
    assert!(rt.unregister::<Vec<f64>>(h).iter().all(|&x| x == 3.0));
}

#[test]
fn async_handles_wait_individually() {
    let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Eager);
    let c = incr_codelet(&[Arch::Cpu]);
    let h1 = rt.register(vec![0.0f64; 8]);
    let h2 = rt.register(vec![0.0f64; 8]);
    let t1 = TaskBuilder::new(&c)
        .access(&h1, AccessMode::ReadWrite)
        .submit(&rt);
    let t2 = TaskBuilder::new(&c)
        .access(&h2, AccessMode::ReadWrite)
        .submit(&rt);
    t1.wait();
    t2.wait();
    assert!(t1.vfinish().is_some());
    assert!(t2.vfinish().is_some());
}

#[test]
fn host_read_guard_sees_latest_data() {
    let mut machine = MachineConfig::c2050_platform(1).without_noise();
    machine.cpu_workers = 1;
    let rt = Runtime::new(machine, SchedulerKind::Eager);
    let c = incr_codelet(&[Arch::Gpu]);
    let h = rt.register(vec![5.0f64; 256]);
    TaskBuilder::new(&c)
        .access(&h, AccessMode::ReadWrite)
        .submit(&rt);
    {
        let guard = rt.acquire_read::<Vec<f64>>(&h);
        assert!(
            guard.iter().all(|&x| x == 6.0),
            "read waits for the GPU task"
        );
    }
    // Device copy remains valid after a host read (Fig. 3: master only read).
    assert_eq!(h.valid_nodes(), vec![0, 1]);
    rt.unregister::<Vec<f64>>(h);
}

#[test]
fn host_write_invalidates_device_copies() {
    let mut machine = MachineConfig::c2050_platform(1).without_noise();
    machine.cpu_workers = 1;
    let rt = Runtime::new(machine, SchedulerKind::Eager);
    let c = incr_codelet(&[Arch::Gpu]);
    let h = rt.register(vec![0.0f64; 256]);
    TaskBuilder::new(&c)
        .access(&h, AccessMode::ReadWrite)
        .submit(&rt);
    {
        let mut guard = rt.acquire_write::<Vec<f64>>(&h);
        guard.fill(100.0);
    }
    assert_eq!(
        h.valid_nodes(),
        vec![0],
        "host write leaves only node 0 valid"
    );
    // A new GPU task must re-fetch and see the host's values.
    TaskBuilder::new(&c)
        .access(&h, AccessMode::ReadWrite)
        .submit(&rt);
    rt.wait_all();
    assert!(rt.unregister::<Vec<f64>>(h).iter().all(|&x| x == 101.0));
}

#[test]
fn concurrent_submitters_from_many_threads() {
    // The runtime is a shared handle: several application threads may
    // submit simultaneously (each on its own operand chain).
    let rt = Runtime::new(
        MachineConfig::c2050_platform(2).without_noise(),
        SchedulerKind::Dmda,
    );
    let c = incr_codelet(&[Arch::Cpu, Arch::Gpu]);
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let rt = rt.clone();
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let h = rt.register(vec![t as f64; 256]);
                for _ in 0..50 {
                    TaskBuilder::new(&c)
                        .access(&h, AccessMode::ReadWrite)
                        .cost(KernelCost::new(256.0, 2048.0, 2048.0))
                        .submit(&rt);
                }
                rt.unregister::<Vec<f64>>(h)
            })
        })
        .collect();
    for (t, th) in handles.into_iter().enumerate() {
        let out = th.join().expect("submitter thread panicked");
        assert!(
            out.iter().all(|&x| x == t as f64 + 50.0),
            "thread {t}: chain corrupted"
        );
    }
    assert_eq!(rt.stats().tasks_executed, 400);
    rt.shutdown();
}

#[test]
fn submission_race_stress_chain_counts_exactly() {
    // Regression test for a dependency-accounting race: an edge used to
    // become visible to the predecessor's completion drain before the
    // successor's counter was incremented, letting tasks go ready early
    // (observed as lost/duplicated updates on long chains). Hammer rapid
    // chains with fast real tasks.
    let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Eager);
    let bump = Arc::new(Codelet::new("bump").with_impl(Arch::Cpu, |ctx| {
        *ctx.w::<u64>(0) += 1;
    }));
    for round in 0..60 {
        let h = rt.register_sized(0u64, 8);
        for _ in 0..500 {
            TaskBuilder::new(&bump)
                .access(&h, AccessMode::ReadWrite)
                .submit(&rt);
        }
        let got = rt.unregister::<u64>(h);
        assert_eq!(got, 500, "round {round}: chain updates lost or duplicated");
    }
}

#[test]
fn kernel_panic_is_contained() {
    let rt = Runtime::with_config(
        MachineConfig::cpu_only(2),
        RuntimeConfig {
            scheduler: SchedulerKind::Eager,
            enable_trace: true,
            ..RuntimeConfig::default()
        },
    );
    let bad = Arc::new(Codelet::new("bad").with_impl(Arch::Cpu, |_| {
        panic!("kernel bug");
    }));
    let good = incr_codelet(&[Arch::Cpu]);
    let h = rt.register(vec![0.0f64; 8]);
    // The panicking task must not kill its worker or deadlock waiters...
    let failed = TaskBuilder::new(&bad).submit(&rt);
    failed.wait();
    // ...and subsequent (even dependent) work still executes.
    TaskBuilder::new(&good)
        .access(&h, AccessMode::ReadWrite)
        .submit(&rt);
    rt.wait_all();
    let stats = rt.stats();
    assert_eq!(stats.kernel_failures, 1);
    assert_eq!(stats.tasks_executed, 2);
    // The runtime reports the fault as one trace event naming the task.
    let faults: Vec<TraceEvent> = rt
        .trace()
        .into_iter()
        .filter(|e| matches!(e, TraceEvent::KernelFault { .. }))
        .collect();
    assert!(
        matches!(faults[..], [TraceEvent::KernelFault { task, .. }] if task == failed.id()),
        "one fault event for task {}: {faults:?}",
        failed.id()
    );
    assert!(rt.unregister::<Vec<f64>>(h).iter().all(|&x| x == 1.0));
    rt.shutdown();
}

#[test]
fn all_schedulers_produce_identical_results() {
    let gold: Vec<f64> = {
        let rt = Runtime::new(
            MachineConfig::c2050_platform(2).without_noise(),
            SchedulerKind::Eager,
        );
        run_mixed_workload(&rt)
    };
    for kind in [SchedulerKind::Dmda, SchedulerKind::Dmdar] {
        let rt = Runtime::new(MachineConfig::c2050_platform(2).without_noise(), kind);
        let got = run_mixed_workload(&rt);
        assert_eq!(got, gold, "scheduler {kind:?} changed results");
    }
}

fn run_mixed_workload(rt: &Runtime) -> Vec<f64> {
    let scale = Arc::new(
        Codelet::new("scale")
            .with_impl(Arch::Cpu, |ctx| {
                let f: f64 = *ctx.arg::<f64>();
                for x in ctx.w::<Vec<f64>>(0).iter_mut() {
                    *x *= f;
                }
            })
            .with_impl(Arch::Gpu, |ctx| {
                let f: f64 = *ctx.arg::<f64>();
                for x in ctx.w::<Vec<f64>>(0).iter_mut() {
                    *x *= f;
                }
            }),
    );
    let sum2 = Arc::new(
        Codelet::new("sum2")
            .with_impl(Arch::Cpu, |ctx| {
                let b = ctx.r::<Vec<f64>>(1).clone();
                let a = ctx.w::<Vec<f64>>(0);
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
            })
            .with_impl(Arch::Gpu, |ctx| {
                let b = ctx.r::<Vec<f64>>(1).clone();
                let a = ctx.w::<Vec<f64>>(0);
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
            }),
    );
    let a = rt.register((0..512).map(|i| i as f64).collect::<Vec<_>>());
    let b = rt.register(vec![1.0f64; 512]);
    for i in 0..6 {
        TaskBuilder::new(&scale)
            .arg(1.5f64)
            .access(&a, AccessMode::ReadWrite)
            .cost(KernelCost::new(512.0, 4096.0, 4096.0))
            .submit(rt);
        TaskBuilder::new(&sum2)
            .access(&a, AccessMode::ReadWrite)
            .access(&b, AccessMode::Read)
            .cost(KernelCost::new(1024.0, 8192.0, 4096.0))
            .submit(rt);
        if i % 2 == 0 {
            TaskBuilder::new(&scale)
                .arg(2.0f64)
                .access(&b, AccessMode::ReadWrite)
                .cost(KernelCost::new(512.0, 4096.0, 4096.0))
                .submit(rt);
        }
    }
    rt.wait_all();
    let mut out = rt.unregister::<Vec<f64>>(a);
    out.extend(rt.unregister::<Vec<f64>>(b));
    out
}

/// The generic `register`/`unregister` pair covers both vectors and
/// scalars (the pre-0.4 `register_vec`/`register_value` forwarders were
/// removed after their one-release deprecation window).
#[test]
fn generic_registration_round_trips_vectors_and_scalars() {
    let rt = Runtime::new(MachineConfig::cpu_only(1), SchedulerKind::Eager);
    let v = rt.register(vec![3u64; 16]);
    assert_eq!(v.bytes(), 16 * 8);
    assert_eq!(rt.unregister::<Vec<u64>>(v), vec![3u64; 16]);

    let s = rt.register_sized(2.5f64, 8);
    assert_eq!(s.bytes(), 8);
    assert_eq!(rt.unregister::<f64>(s), 2.5);
    rt.shutdown();
}
