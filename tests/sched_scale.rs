//! Scale-cell scheduler harness: wide graphs on many-device machines,
//! submitted through a job context (`JobHandle::submit_batch`), verified bitwise against
//! the eager policy.
//!
//! The per-policy throughput bench (`task_throughput`) gates decision
//! *cost*; this harness gates decision *correctness* at scale: with 64
//! simulated devices and a 100k-task frontier landing in one batch, every
//! policy must still produce results bitwise identical to eager's, and the
//! recorded queue high-water must stay bounded by the submitted task count
//! (batch seeding must not duplicate queue entries).
//!
//! Two graph shapes:
//!
//! * `independent` — `lanes` parallel write chains with no cross-lane
//!   edges: the widest ready frontier the batch path can seed, stressing
//!   the heap-ordered queues' push side.
//! * `fanout` — one producer gating every other task: a single completion
//!   releases the whole frontier at once, stressing the completion-side
//!   batch push and dmdar's pop-time pricing (every reader wants the
//!   producer's output, whose residency changes as readers fetch it).
//!
//! The small cells run in the tier-1 suite; the 100k-task × 64-device
//! sweep is `#[ignore]`d and runs in the release CI job next to the
//! memory-stress sweep.

mod support;

use peppher::runtime::{
    AccessMode, Codelet, JobConfig, KernelCtx, Runtime, RuntimeConfig, RuntimeStats, SchedulerKind,
    TaskBuilder,
};
use peppher::sim::MachineConfig;
use std::sync::Arc;
use support::{bitwise_eq, ALL_SCHEDULERS};

const LANE_LEN: usize = 64;

/// Overwrites the lane with a value derived from the task tag. Writes to
/// the same lane are ordered by sequential data consistency, so the final
/// lane content is the stamp of the *last-submitted* writer regardless of
/// how the scheduler interleaves lanes.
fn stamp_kernel(ctx: &mut KernelCtx<'_>) {
    let tag: u64 = *ctx.arg::<u64>();
    let y = ctx.w::<Vec<f32>>(0);
    for (i, v) in y.iter_mut().enumerate() {
        *v = ((tag + i as u64) % 251) as f32 * 0.25;
    }
}

/// Reads the shared root and overwrites the lane with a mix of both.
fn blend_kernel(ctx: &mut KernelCtx<'_>) {
    let tag: u64 = *ctx.arg::<u64>();
    let root = ctx.r::<Vec<f32>>(0).clone();
    let y = ctx.w::<Vec<f32>>(1);
    for (i, v) in y.iter_mut().enumerate() {
        *v = root[i % root.len()] + ((tag + i as u64) % 127) as f32;
    }
}

/// Same scalar code on both architectures so results are placement-
/// independent (the property the bitwise sweep verifies).
fn codelet(name: &str, f: fn(&mut KernelCtx<'_>)) -> Arc<Codelet> {
    Arc::new(
        Codelet::new(name)
            .with_impl(peppher::runtime::Arch::Cpu, f)
            .with_impl(peppher::runtime::Arch::Gpu, f),
    )
}

#[derive(Clone, Copy, PartialEq)]
enum Shape {
    Independent,
    Fanout,
}

/// Builds the whole graph as one batch, submits it through
/// `submit_batch`, and returns the final lane contents plus run stats.
fn run_cell(
    machine: MachineConfig,
    sched: SchedulerKind,
    shape: Shape,
    ntasks: usize,
    lanes: usize,
) -> (Vec<Vec<f32>>, RuntimeStats) {
    let rt = Runtime::with_config(
        machine.without_noise(),
        RuntimeConfig {
            scheduler: sched,
            ..RuntimeConfig::default()
        },
    );
    let stamp = codelet("scale_stamp", stamp_kernel);
    let blend = codelet("scale_blend", blend_kernel);

    let handles: Vec<_> = (0..lanes)
        .map(|_| rt.register(vec![0.0f32; LANE_LEN]))
        .collect();
    let root = rt.register(vec![0.0f32; LANE_LEN]);

    let mut builders: Vec<TaskBuilder> = Vec::with_capacity(ntasks + 1);
    match shape {
        Shape::Independent => {
            for i in 0..ntasks {
                builders.push(
                    TaskBuilder::new(&stamp)
                        .arg(i as u64)
                        .access(&handles[i % lanes], AccessMode::Write),
                );
            }
        }
        Shape::Fanout => {
            builders.push(
                TaskBuilder::new(&stamp)
                    .arg(0xF00Du64)
                    .access(&root, AccessMode::Write),
            );
            for i in 0..ntasks {
                builders.push(
                    TaskBuilder::new(&blend)
                        .arg(i as u64)
                        .access(&root, AccessMode::Read)
                        .access(&handles[i % lanes], AccessMode::Write),
                );
            }
        }
    }
    let expected = builders.len() as u64;
    let job = rt.job(JobConfig::default());
    job.submit_batch(builders);
    job.wait();

    let out: Vec<Vec<f32>> = handles
        .iter()
        .map(|h| rt.acquire_read::<Vec<f32>>(h).clone())
        .collect();
    let stats = rt.stats();
    assert_eq!(
        stats.tasks_executed, expected,
        "{sched:?}: batch of {expected} tasks must all execute"
    );
    assert!(
        stats.max_queue_depth <= expected,
        "{sched:?}: queue high-water {} exceeds the {expected} submitted tasks \
         (batch seeding duplicated entries?)",
        stats.max_queue_depth
    );
    rt.shutdown();
    (out, stats)
}

/// Runs one (shape, size) cell under every policy and checks each against
/// the eager reference bitwise, lane by lane.
fn sweep(machine: &MachineConfig, shape: Shape, ntasks: usize, lanes: usize) {
    let (reference, _) = run_cell(machine.clone(), SchedulerKind::Eager, shape, ntasks, lanes);
    for sched in ALL_SCHEDULERS {
        if sched == SchedulerKind::Eager {
            continue;
        }
        let (out, _) = run_cell(machine.clone(), sched, shape, ntasks, lanes);
        for (lane, (a, b)) in reference.iter().zip(&out).enumerate() {
            assert!(
                bitwise_eq(a, b),
                "{sched:?} diverged from eager on lane {lane} \
                 ({ntasks} tasks, {lanes} lanes)"
            );
        }
    }
}

/// Tier-1 smoke cell: 8 devices, 2k tasks, both shapes, all three
/// policies.
#[test]
fn scale_cell_smoke_all_schedulers() {
    let machine = MachineConfig::multi_gpu(2, 8);
    sweep(&machine, Shape::Independent, 2_000, 256);
    sweep(&machine, Shape::Fanout, 2_000, 256);
}

/// Release CI sweep: 64 simulated devices, 100k-task graphs. The batch
/// submit seeds a 4096-lane frontier in one scheduler-lock acquisition.
#[test]
#[ignore]
fn scale_cell_64_devices_100k_tasks() {
    let machine = MachineConfig::multi_gpu(2, 64);
    sweep(&machine, Shape::Independent, 100_000, 4_096);
    sweep(&machine, Shape::Fanout, 100_000, 4_096);
}

/// P2P variant of the smoke cell: peer links change dmdar's route costs
/// (and thus its dispatch order) but must not change results.
#[test]
fn scale_cell_smoke_with_p2p_links() {
    let machine = MachineConfig::c2050_platform_p2p(2, 8);
    sweep(&machine, Shape::Fanout, 1_000, 128);
}
