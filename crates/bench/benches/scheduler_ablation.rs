//! Ablation: scheduling policy (eager vs dmda vs dmdar).
//!
//! The paper relies on the runtime's performance-aware policy; this bench
//! quantifies how much `dmda` buys over the greedy baselines on a
//! heterogeneous mixed workload. Criterion's `iter_custom` reports the
//! *virtual makespan* (the modelled heterogeneous execution time) rather
//! than host wall time.
//!
//! Run: `cargo bench -p peppher-bench --bench scheduler_ablation`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use peppher_apps::spmv;
use peppher_runtime::{Runtime, SchedulerKind};
use peppher_sim::MachineConfig;
use std::time::Duration;

/// One workload instance: many independent spmv blocks of mixed sizes —
/// exactly the placement problem dmda is built for.
fn run_workload(kind: SchedulerKind) -> Duration {
    let rt = Runtime::new(MachineConfig::c2050_platform(4).without_noise(), kind);
    let m = spmv::scattered_matrix(40_000, 8, 11);
    let x = vec![1.0f32; m.cols];
    spmv::run_hybrid(&rt, &m, &x, 24);
    let makespan = rt.stats().makespan;
    rt.shutdown();
    Duration::from_nanos(makespan.as_nanos())
}

fn bench_schedulers(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_ablation_virtual_makespan");
    group.sample_size(10);
    // These groups measure *virtual* makespans (returned via iter_custom),
    // which are far shorter than the wall time each iteration costs; keep
    // criterion's time targets small so it doesn't request huge iteration
    // counts.
    group.warm_up_time(std::time::Duration::from_millis(2));
    group.measurement_time(std::time::Duration::from_millis(40));
    for kind in [
        SchedulerKind::Eager,
        SchedulerKind::Dmda,
        SchedulerKind::Dmdar,
    ] {
        group.bench_with_input(
            BenchmarkId::new("hybrid_spmv_24_blocks", format!("{kind:?}")),
            &kind,
            |b, &kind| {
                b.iter_custom(|iters| (0..iters).map(|_| run_workload(kind)).sum());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_schedulers);
criterion_main!(benches);
