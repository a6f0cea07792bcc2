//! Hybrid SpMV (Fig. 5 machinery) must be numerically identical to the
//! sequential reference under every scheduler, platform and block count.

use peppher::apps::spmv;
use peppher::runtime::{Runtime, SchedulerKind};
use peppher::sim::MachineConfig;

fn assert_close(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs()), "{x} vs {y}");
    }
}

#[test]
fn hybrid_matches_reference_across_schedulers() {
    let m = spmv::scattered_matrix(3_000, 7, 13);
    let x: Vec<f32> = (0..m.cols).map(|i| ((i % 13) as f32) * 0.25).collect();
    let want = spmv::reference(&m, &x);
    for kind in [
        SchedulerKind::Eager,
        SchedulerKind::Dmda,
        SchedulerKind::Dmdar,
    ] {
        let rt = Runtime::new(MachineConfig::c2050_platform(4).without_noise(), kind);
        let got = spmv::run_hybrid(&rt, &m, &x, 8);
        assert_close(&got, &want);
        rt.shutdown();
    }
}

#[test]
fn hybrid_matches_reference_across_platforms_and_blocks() {
    let m = spmv::banded_matrix(2_000, 14, 5);
    let x: Vec<f32> = (0..m.cols).map(|i| (i as f32).sin()).collect();
    let want = spmv::reference(&m, &x);
    for machine in [
        MachineConfig::cpu_only(4),
        MachineConfig::c2050_platform(2).without_noise(),
        MachineConfig::c1060_platform(4).without_noise(),
    ] {
        for blocks in [1, 3, 16] {
            let rt = Runtime::new(machine.clone(), SchedulerKind::Dmda);
            let got = spmv::run_hybrid(&rt, &m, &x, blocks);
            assert_close(&got, &want);
            rt.shutdown();
        }
    }
}

#[test]
fn hybrid_reduces_pcie_traffic_vs_gpu_only() {
    let m = spmv::scattered_matrix(60_000, 10, 3);
    let x = vec![1.0f32; m.cols];

    let rt = Runtime::new(
        MachineConfig::c2050_platform(4).without_noise(),
        SchedulerKind::Dmda,
    );
    spmv::run_peppherized_forced(&rt, &m, &x, "spmv_cuda");
    let gpu_bytes = rt.stats().total_transfer_bytes();
    rt.shutdown();

    let rt = Runtime::new(
        MachineConfig::c2050_platform(4).without_noise(),
        SchedulerKind::Dmda,
    );
    spmv::run_hybrid(&rt, &m, &x, 16);
    let hybrid = rt.stats();
    rt.shutdown();

    assert!(
        hybrid.total_transfer_bytes() < gpu_bytes,
        "hybrid moved {} bytes, GPU-only moved {gpu_bytes}",
        hybrid.total_transfer_bytes()
    );
    // CPU workers actually participated.
    let cpu_tasks: u64 = hybrid.tasks_per_worker[..4].iter().sum();
    assert!(
        cpu_tasks > 0,
        "hybrid must use CPU workers: {:?}",
        hybrid.tasks_per_worker
    );
}

#[test]
fn more_blocks_do_not_change_results() {
    let m = spmv::scattered_matrix(777, 5, 77);
    let x = vec![0.5f32; m.cols];
    let rt = Runtime::new(
        MachineConfig::c2050_platform(2).without_noise(),
        SchedulerKind::Dmda,
    );
    let a = spmv::run_hybrid(&rt, &m, &x, 2);
    let b = spmv::run_hybrid(&rt, &m, &x, 11);
    assert_close(&a, &b);
    rt.shutdown();
}
