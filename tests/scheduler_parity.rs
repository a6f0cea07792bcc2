//! Scheduler parity: every policy must produce bitwise-identical results
//! on the seeded memory-stress graphs (correctness is scheduler-invariant
//! under sequential data consistency), and `dmdar` must beat `dmda` on the
//! repeated-SpMV locality scenario it was built for.

mod support;

use peppher::apps::spmv;
use peppher::runtime::{EvictionPolicy, Runtime, RuntimeConfig, SchedulerKind};
use peppher::sim::MachineConfig;
use support::{bitwise_eq, check, ALL_SCHEDULERS};

/// Runs an LRU seed and a family-eviction seed under every policy. Each
/// run is verified bitwise against its host shadow, and every policy's
/// shadow digests must equal the first policy's, so the results are
/// bitwise identical across all three policies.
fn assert_parity((lru_seed, lru_tasks): (u64, usize), (fam_seed, fam_tasks): (u64, usize)) {
    let digests: Vec<_> = ALL_SCHEDULERS
        .iter()
        .map(|&sched| {
            (
                check(lru_seed, lru_tasks, EvictionPolicy::Lru, sched),
                check(fam_seed, fam_tasks, EvictionPolicy::Family, sched),
            )
        })
        .collect();
    for (sched, d) in ALL_SCHEDULERS.iter().zip(&digests) {
        assert_eq!(*d, digests[0], "{sched:?} computed different data");
    }
}

#[test]
fn stress_graphs_bitwise_identical_under_every_scheduler() {
    assert_parity((7, 60), (11, 40));
}

/// Release-mode CI sweep with the long seeds.
#[test]
#[ignore]
fn stress_release_parity_sweep() {
    assert_parity((1001, 300), (2002, 300));
}

fn run_locality_with(sched: SchedulerKind) -> (Vec<Vec<f32>>, u64, peppher::sim::VTime) {
    let sc = spmv::LocalityScenario::default_shape();
    let rt = Runtime::with_config(
        MachineConfig::c2050_platform(1)
            .without_noise()
            .with_device_mem(sc.suggested_budget()),
        RuntimeConfig {
            scheduler: sched,
            // Prefetch-at-push would partially hide the FIFO order's
            // transfer cost; disable it for both runs so the comparison
            // isolates the pop-time reordering.
            enable_prefetch: false,
            ..RuntimeConfig::default()
        },
    );
    let out = spmv::run_locality(&rt, &sc);
    let stats = rt.stats();
    rt.shutdown();
    (out, stats.total_transfer_bytes(), stats.makespan)
}

/// `dmdar` groups the per-block chains together, so each block crosses the
/// PCIe link roughly once instead of once per iteration: fewer transferred
/// bytes AND a shorter makespan than `dmda`'s FIFO dispatch, with bitwise
/// identical block products.
#[test]
fn dmdar_beats_dmda_on_repeated_spmv_locality() {
    let (out_dmda, bytes_dmda, makespan_dmda) = run_locality_with(SchedulerKind::Dmda);
    let (out_dmdar, bytes_dmdar, makespan_dmdar) = run_locality_with(SchedulerKind::Dmdar);

    assert_eq!(out_dmda.len(), out_dmdar.len());
    for (a, b) in out_dmda.iter().zip(&out_dmdar) {
        assert!(bitwise_eq(a, b), "block products diverged across policies");
    }
    assert!(
        bytes_dmdar as f64 <= 0.9 * bytes_dmda as f64,
        "dmdar transferred {bytes_dmdar} bytes, expected <= 90% of dmda's {bytes_dmda}"
    );
    assert!(
        makespan_dmdar <= makespan_dmda,
        "dmdar makespan {makespan_dmdar:?} worse than dmda {makespan_dmda:?}"
    );
}
