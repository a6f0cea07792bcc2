//! Multi-GPU platforms: the PEPPHER component model targets "homogeneous
//! and heterogeneous multicore and manycore systems, including GPU and
//! multi-GPU based systems". These tests exercise two simulated
//! accelerators, each with its own memory node and PCIe link.

use peppher::apps::sgemm::{self, SgemmArgs};
use peppher::apps::spmv;
use peppher::runtime::{
    AccessMode, Arch, Codelet, Runtime, RuntimeConfig, SchedulerKind, TaskBuilder,
};
use peppher::sim::{KernelCost, MachineConfig};
use std::sync::Arc;

#[test]
fn hybrid_spmv_spreads_over_two_gpus() {
    let machine = MachineConfig::multi_gpu(4, 2);
    assert_eq!(machine.total_workers(), 6);
    assert_eq!(machine.memory_nodes(), 3);

    let rt = Runtime::new(machine, SchedulerKind::Dmda);
    let m = spmv::scattered_matrix(80_000, 10, 5);
    let x = vec![1.0f32; m.cols];
    let want = spmv::reference(&m, &x);
    let got = spmv::run_hybrid(&rt, &m, &x, 24);
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() <= 1e-4 * (1.0 + w.abs()));
    }
    let stats = rt.stats();
    let gpu_tasks: u64 = stats.tasks_per_worker[4..].iter().sum();
    assert!(
        gpu_tasks > 0,
        "GPUs participated: {:?}",
        stats.tasks_per_worker
    );
    rt.shutdown();
}

#[test]
fn data_migrates_between_devices_through_host() {
    let mut machine = MachineConfig::multi_gpu(1, 2);
    machine.cpu_workers = 1;
    let rt = Runtime::new(machine, SchedulerKind::Eager);

    let bump = Arc::new(Codelet::new("bump").with_impl(Arch::Gpu, |ctx| {
        for v in ctx.w::<Vec<f32>>(0).iter_mut() {
            *v += 1.0;
        }
    }));
    let h = rt.register(vec![0.0f32; 4096]);
    // Alternate the two GPU workers (1 and 2): every switch must route the
    // data device → host → device.
    for i in 0..4 {
        TaskBuilder::new(&bump)
            .access(&h, AccessMode::ReadWrite)
            .cost(KernelCost::new(4096.0, 16384.0, 16384.0))
            .on_worker(1 + (i % 2))
            .submit(&rt);
    }
    rt.wait_all();
    let stats = rt.stats();
    // First upload + 3 migrations (each d2h + h2d).
    assert_eq!(stats.h2d_transfers, 4, "{stats:?}");
    assert_eq!(stats.d2h_transfers, 3, "{stats:?}");
    assert!(rt.unregister::<Vec<f32>>(h).iter().all(|&v| v == 4.0));
    rt.shutdown();
}

#[test]
fn dmda_prefers_the_gpu_already_holding_the_data() {
    let mut machine = MachineConfig::multi_gpu(1, 2);
    machine.cpu_workers = 1;
    let rt = Runtime::new(machine, SchedulerKind::Dmda);

    let bump = Arc::new(Codelet::new("bump").with_impl(Arch::Gpu, |ctx| {
        for v in ctx.w::<Vec<f32>>(0).iter_mut() {
            *v += 1.0;
        }
    }));
    // 1 MiB operand: migration between GPUs would be expensive.
    let h = rt.register(vec![0.0f32; 262_144]);
    let cost = KernelCost::new(262_144.0, 1048576.0, 1048576.0);
    for _ in 0..12 {
        TaskBuilder::new(&bump)
            .access(&h, AccessMode::ReadWrite)
            .cost(cost)
            .submit(&rt);
        rt.wait_all();
    }
    let stats = rt.stats();
    // After calibration settles, the chain should stick to one device:
    // far fewer migrations than task count.
    assert!(
        stats.h2d_transfers <= 4,
        "data should stay resident on one GPU: {stats:?}"
    );
    assert!(rt.unregister::<Vec<f32>>(h).iter().all(|&v| v == 12.0));
    rt.shutdown();
}

/// Tiled SGEMM on two 1 MiB GPUs with operand prefetch on (the default):
/// placement, prefetch and eviction race over the same C tiles, and dmda
/// and dmdar once returned a stale tile now and then. Every run builds a
/// fresh runtime and must match the sequential reference bit for bit.
fn tiled_sgemm_with_prefetch_matches_reference(kind: SchedulerKind, runs: usize) {
    let n = 192;
    let (a, b, c) = sgemm::generate(n, 0xA11CE);
    let args = SgemmArgs {
        m: n,
        k: n,
        n,
        alpha: 1.0,
        beta: 0.5,
    };
    let want = sgemm::reference(&a, &b, &c, args);
    for run in 0..runs {
        let rt = Runtime::with_config(
            MachineConfig::multi_gpu(1, 2)
                .without_noise()
                .with_device_mem(1 << 20),
            RuntimeConfig {
                scheduler: kind,
                ..RuntimeConfig::default()
            },
        );
        assert!(rt.config().enable_prefetch, "premise: prefetch is on");
        let got = sgemm::run_tiled(&rt, n, 4);
        rt.shutdown();
        let wrong = got
            .iter()
            .zip(&want)
            .filter(|(g, w)| g.to_bits() != w.to_bits())
            .count();
        assert_eq!(wrong, 0, "{kind:?} run {run}: {wrong} elements differ");
    }
}

const PREFETCH_POLICIES: [SchedulerKind; 3] = [
    SchedulerKind::Eager,
    SchedulerKind::Dmda,
    SchedulerKind::Dmdar,
];

#[test]
fn tiled_sgemm_with_prefetch_is_bitwise_exact() {
    for kind in PREFETCH_POLICIES {
        tiled_sgemm_with_prefetch_matches_reference(kind, 1);
    }
}

#[test]
#[ignore = "300 runs per policy; run in release"]
fn tiled_sgemm_with_prefetch_is_bitwise_exact_300_runs() {
    for kind in PREFETCH_POLICIES {
        tiled_sgemm_with_prefetch_matches_reference(kind, 300);
    }
}
