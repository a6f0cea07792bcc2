//! Shared deterministic stress harness used by `memory_stress.rs` and
//! `scheduler_parity.rs`.
//!
//! Replays seeded random task graphs over a small handle pool under a
//! tight device budget and checks, for a given eviction policy and
//! scheduler, that
//!
//! - results are bitwise identical to a host shadow evaluated in
//!   submission order (sequential data consistency),
//! - the device budget is never exceeded (the live-replica high-water
//!   mark stays within it),
//! - no pinned replica is ever selected for eviction (a hard assert inside
//!   the capacity manager — the run aborts if it trips),
//! - capacity accounting balances to zero at shutdown: after
//!   unregistering every handle, all memory nodes report zero used bytes.
//!
//! Failures dump the full trace and a gantt rendering to
//! `target/stress-artifacts/` (CI uploads that directory).
#![allow(dead_code)] // each test binary uses a subset of the harness

use peppher::runtime::{
    gantt, AccessMode, Arch, Codelet, DataHandle, EvictionPolicy, Runtime, RuntimeConfig,
    SchedulerKind, TaskBuilder, TaskHints,
};
use peppher::sim::{KernelCost, MachineConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// Device budget: 10x the largest handle, so only the working set — never
/// a single task's pinned operands — can exceed it.
pub const BUDGET: u64 = 40 * 1024;
pub const NHANDLES: usize = 12;

/// All scheduling policies, for parity sweeps.
pub const ALL_SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Eager,
    SchedulerKind::Dmda,
    SchedulerKind::Dmdar,
];

fn fill_kernel(ctx: &mut peppher::runtime::KernelCtx<'_>) {
    let opseed: u64 = *ctx.arg::<u64>();
    let y = ctx.w::<Vec<f32>>(0);
    for (i, v) in y.iter_mut().enumerate() {
        *v = ((opseed + i as u64) % 97) as f32 * 0.5;
    }
}

fn axpy_kernel(ctx: &mut peppher::runtime::KernelCtx<'_>) {
    let x = ctx.r::<Vec<f32>>(0).clone();
    let y = ctx.w::<Vec<f32>>(1);
    for (i, v) in y.iter_mut().enumerate() {
        *v += 0.25 * x[i % x.len()];
    }
}

fn scale_kernel(ctx: &mut peppher::runtime::KernelCtx<'_>) {
    let y = ctx.w::<Vec<f32>>(0);
    for v in y.iter_mut() {
        *v = *v * 1.5 + 1.0;
    }
}

/// Both architectures run the *same* scalar code, so results are bitwise
/// independent of placement and the shadow can be a plain host replay.
fn codelet(name: &str, f: fn(&mut peppher::runtime::KernelCtx<'_>)) -> Arc<Codelet> {
    Arc::new(
        Codelet::new(name)
            .with_impl(Arch::Cpu, f)
            .with_impl(Arch::Gpu, f),
    )
}

pub fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs one seeded graph under `sched` on the default single-GPU
/// platform; returns human-readable failures (empty = pass).
pub fn run_stress(
    seed: u64,
    ntasks: usize,
    policy: EvictionPolicy,
    sched: SchedulerKind,
) -> Vec<String> {
    run_stress_on(
        MachineConfig::c2050_platform(2),
        seed,
        ntasks,
        policy,
        sched,
    )
}

/// Runs one seeded graph under `sched` on `machine` (noise stripped and
/// every device capped at [`BUDGET`]); returns human-readable failures
/// (empty = pass). Multi-device machines exercise device-to-device
/// routing — direct when the machine has a P2P link, staged through the
/// host otherwise.
pub fn run_stress_on(
    machine: MachineConfig,
    seed: u64,
    ntasks: usize,
    policy: EvictionPolicy,
    sched: SchedulerKind,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed);

    let rt = Runtime::with_config(
        machine.without_noise().with_device_mem(BUDGET),
        RuntimeConfig {
            scheduler: sched,
            enable_trace: true,
            eviction: policy,
            ..RuntimeConfig::default()
        },
    );

    let fill = codelet("stress_fill", fill_kernel);
    let axpy = codelet("stress_axpy", axpy_kernel);
    let scale = codelet("stress_scale", scale_kernel);

    // Handle pool: 1-4 KiB f32 vectors plus an identical host shadow.
    let mut shadow: Vec<Vec<f32>> = Vec::new();
    let mut handles: Vec<DataHandle> = Vec::new();
    for _ in 0..NHANDLES {
        let len = rng.gen_range(256..=1024usize);
        let init = vec![0.0f32; len];
        shadow.push(init.clone());
        handles.push(rt.register(init));
    }
    // Partition-style block families for the Family policy: handles in
    // threes share a family, giving eviction real sibling sets to group
    // and the prefetcher bursts to plan. Other policies skip the tagging
    // so their seeds replay byte-identically to earlier revisions.
    if policy == EvictionPolicy::Family {
        for chunk in handles.chunks(3) {
            let fam = rt.new_family();
            for h in chunk {
                rt.set_family(h, fam);
            }
        }
    }

    for t in 0..ntasks {
        let kind = rng.gen_range(0..3u32);
        match kind {
            0 => {
                // fill(y): overwrite — exercises the write-only fast path
                // (the new buffer's stale contents must be reset, not
                // trusted).
                let yi = rng.gen_range(0..NHANDLES);
                let opseed = rng.gen_range(0..1_000_000u64);
                let len = shadow[yi].len();
                TaskBuilder::new(&fill)
                    .arg(opseed)
                    .access(&handles[yi], AccessMode::Write)
                    .cost(KernelCost::new(len as f64, 0.0, 4.0 * len as f64))
                    .submit(&rt);
                for (i, v) in shadow[yi].iter_mut().enumerate() {
                    *v = ((opseed + i as u64) % 97) as f32 * 0.5;
                }
            }
            1 => {
                // axpy(x, y): two operands, sometimes with a task-epilogue
                // wont_use hint on the read operand.
                let xi = rng.gen_range(0..NHANDLES);
                let mut yi = rng.gen_range(0..NHANDLES);
                while yi == xi {
                    yi = rng.gen_range(0..NHANDLES);
                }
                let len = shadow[yi].len();
                let mut tb = TaskBuilder::new(&axpy)
                    .access(&handles[xi], AccessMode::Read)
                    .access(&handles[yi], AccessMode::ReadWrite)
                    .cost(KernelCost::new(
                        2.0 * len as f64,
                        4.0 * len as f64,
                        4.0 * len as f64,
                    ));
                if rng.gen_bool(0.10) {
                    tb = tb.wont_use(&handles[xi]);
                }
                tb.submit(&rt);
                let x = shadow[xi].clone();
                for (i, v) in shadow[yi].iter_mut().enumerate() {
                    *v += 0.25 * x[i % x.len()];
                }
            }
            _ => {
                let yi = rng.gen_range(0..NHANDLES);
                let len = shadow[yi].len();
                TaskBuilder::new(&scale)
                    .access(&handles[yi], AccessMode::ReadWrite)
                    .cost(KernelCost::new(
                        2.0 * len as f64,
                        4.0 * len as f64,
                        4.0 * len as f64,
                    ))
                    .submit(&rt);
                for v in shadow[yi].iter_mut() {
                    *v = *v * 1.5 + 1.0;
                }
            }
        }

        // Interleave the hint/reclaim/host-read side channels.
        if rng.gen_bool(0.10) {
            let i = rng.gen_range(0..NHANDLES);
            rt.wont_use(&handles[i]);
        }
        if rng.gen_bool(0.05) {
            rt.reclaim_node(1);
        }
        if rng.gen_bool(0.10) {
            let i = rng.gen_range(0..NHANDLES);
            let got = rt.acquire_read::<Vec<f32>>(&handles[i]);
            if !bitwise_eq(&got, &shadow[i]) {
                failures.push(format!(
                    "task {t}: mid-run host read of handle {i} diverged from shadow"
                ));
            }
        }
    }

    rt.wait_all();

    // Final bitwise verification of every handle.
    for (i, expect) in shadow.iter().enumerate() {
        let got = rt.acquire_read::<Vec<f32>>(&handles[i]);
        if !bitwise_eq(&got, expect) {
            failures.push(format!("final read of handle {i} diverged from shadow"));
        }
    }

    let stats = rt.stats();
    // Live bytes never exceeded the budget on ANY device node, at any
    // point.
    for (n, &hw) in stats.mem_high_water.iter().enumerate().skip(1) {
        if hw > BUDGET {
            failures.push(format!(
                "{policy:?} budget exceeded on node {n}: high water {hw} > {BUDGET}"
            ));
        }
    }
    if let Err(e) = rt.memory().validate() {
        failures.push(format!("capacity accounting invalid after run: {e}"));
    }

    // Shutdown accounting: unregister everything and require the books to
    // balance to zero.
    for h in handles {
        rt.unregister::<Vec<f32>>(h);
    }
    if let Err(e) = rt.memory().validate() {
        failures.push(format!("capacity accounting invalid after unregister: {e}"));
    }
    for (n, &used) in rt.memory().used_bytes().iter().enumerate() {
        if used != 0 {
            failures.push(format!("node {n} still accounts {used} used bytes"));
        }
    }

    // On failure, dump trace + gantt for the CI artifact upload.
    if !failures.is_empty() {
        let trace = rt.trace();
        let dir = std::path::Path::new("target/stress-artifacts");
        let _ = std::fs::create_dir_all(dir);
        let mut out = String::new();
        out.push_str(&format!(
            "seed {seed}, {ntasks} tasks, policy {policy:?}, sched {sched:?}\n\n"
        ));
        for f in &failures {
            out.push_str(&format!("FAIL: {f}\n"));
        }
        out.push_str(&format!(
            "\n{stats:#?}\n\ntrace ({} events):\n",
            trace.len()
        ));
        for e in &trace {
            out.push_str(&format!("{e:?}\n"));
        }
        out.push_str("\ngantt:\n");
        out.push_str(&gantt(&trace, rt.machine().total_workers(), 100));
        let path = dir.join(format!("seed_{seed}_{policy:?}_{sched:?}.log"));
        let _ = std::fs::write(&path, out);
        eprintln!("stress artifacts written to {}", path.display());
    }
    rt.shutdown();
    failures
}

/// Asserts a stress run passes.
pub fn check(seed: u64, ntasks: usize, policy: EvictionPolicy, sched: SchedulerKind) {
    let failures = run_stress(seed, ntasks, policy, sched);
    assert!(
        failures.is_empty(),
        "stress seed {seed} ({policy:?}, {sched:?}) failed:\n{}",
        failures.join("\n")
    );
}

/// Asserts a stress run passes on an explicit machine.
pub fn check_on(
    machine: MachineConfig,
    seed: u64,
    ntasks: usize,
    policy: EvictionPolicy,
    sched: SchedulerKind,
) {
    let failures = run_stress_on(machine, seed, ntasks, policy, sched);
    assert!(
        failures.is_empty(),
        "stress seed {seed} ({policy:?}, {sched:?}) failed:\n{}",
        failures.join("\n")
    );
}
