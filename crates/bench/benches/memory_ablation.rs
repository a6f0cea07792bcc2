//! Memory-node capacity management under a device budget a quarter the
//! size of the SpMV working set: the GPU keeps accepting blocks and the
//! capacity manager evicts cold replicas (LRU, writing Modified victims
//! back) to make room.
//!
//! Before the timing group runs, a repeated-SpMV demonstration asserts the
//! allocation cache works: same-shaped row blocks streamed through a
//! capped GPU must serve the majority of their allocations from recycled
//! buffers. (The cache is always on; EXPERIMENTS.md records what turning
//! it off cost, and how LRU compared with the never-evict policy this
//! bench used to time against it.) The timing group reports the virtual
//! makespan of one hybrid SpMV.
//!
//! Run: `cargo bench -p peppher-bench --bench memory_ablation`

use criterion::{criterion_group, criterion_main, Criterion};
use peppher_apps::spmv;
use peppher_runtime::{EvictionPolicy, Runtime, RuntimeConfig, SchedulerKind};
use peppher_sim::MachineConfig;
use std::time::Duration;

fn runtime() -> Runtime {
    let m = spmv::banded_matrix(8_192, 32, 11);
    let x = vec![1.0f32; m.cols];
    let working_set = (m.bytes() + (x.len() + m.rows) * 4) as u64;
    Runtime::with_config(
        MachineConfig::c2050_platform(4)
            .without_noise()
            .with_device_mem(working_set / 4),
        RuntimeConfig {
            scheduler: SchedulerKind::Dmda,
            eviction: EvictionPolicy::Lru,
            ..RuntimeConfig::default()
        },
    )
}

fn run() -> Duration {
    let m = spmv::banded_matrix(8_192, 32, 11);
    let x = vec![1.0f32; m.cols];
    let rt = runtime();
    spmv::run_hybrid(&rt, &m, &x, 32);
    let makespan = rt.stats().makespan;
    rt.shutdown();
    Duration::from_nanos(makespan.as_nanos())
}

/// Repeated same-shape SpMV products through one capped runtime: after the
/// first pass warms the cache, later blocks' allocations recycle evicted
/// buffers. Prints the rate and asserts the cache carries the majority of
/// allocations.
fn demonstrate_cache_hit_rate() {
    let m = spmv::banded_matrix(8_192, 32, 11);
    let x = vec![1.0f32; m.cols];

    let rt = runtime();
    for _ in 0..3 {
        spmv::run_hybrid_ex(&rt, &m, &x, 32, Some("spmv_cuda"));
    }
    let cached = rt.stats();
    rt.shutdown();

    println!(
        "repeated-SpMV allocation-cache hit rate: {:.1}% ({} hits / {} misses)",
        cached.alloc_cache_hit_rate() * 100.0,
        cached.alloc_cache_hits,
        cached.alloc_cache_misses,
    );
    assert!(
        cached.alloc_cache_hit_rate() > 0.5,
        "repeated same-shape blocks should recycle the majority of their \
         allocations, got {:.1}%",
        cached.alloc_cache_hit_rate() * 100.0
    );
}

fn bench_memory(c: &mut Criterion) {
    demonstrate_cache_hit_rate();

    let mut group = c.benchmark_group("memory_ablation_virtual_makespan");
    group.sample_size(10);
    // Virtual-makespan group: keep criterion's time targets small (see the
    // sibling benches for the rationale).
    group.warm_up_time(Duration::from_millis(2));
    group.measurement_time(Duration::from_millis(40));
    group.bench_function("Lru", |b| {
        b.iter_custom(|iters| (0..iters).map(|_| run()).sum());
    });
    group.finish();
}

criterion_group!(benches, bench_memory);
criterion_main!(benches);
