//! Whole-application integration: several PEPPHERized applications share
//! one runtime instance; performance histories persist across runs; every
//! app's output matches its sequential reference.

use peppher::apps::{bfs, cfd, hotspot, lud, nw, particlefilter, pathfinder, sgemm, spmv};
use peppher::runtime::{Runtime, RuntimeConfig, SchedulerKind};
use peppher::sim::MachineConfig;
use std::sync::Arc;

fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs()))
}

#[test]
fn all_apps_correct_on_one_shared_runtime() {
    all_apps_correct(SchedulerKind::Dmda);
}

/// Correctness is scheduler-invariant: the full application set must pass
/// under every scheduling policy, including the queue-reordering `dmdar`.
#[test]
fn all_apps_correct_under_every_scheduler() {
    for kind in [SchedulerKind::Eager, SchedulerKind::Dmdar] {
        all_apps_correct(kind);
    }
}

fn all_apps_correct(kind: SchedulerKind) {
    let rt = Runtime::new(MachineConfig::c2050_platform(4).without_noise(), kind);

    // spmv
    let m = spmv::scattered_matrix(2_000, 6, 1);
    let x = vec![1.0f32; m.cols];
    assert!(close(
        &spmv::run_peppherized(&rt, &m, &x, 1),
        &spmv::reference(&m, &x),
        1e-4
    ));

    // sgemm (fresh generate inside both paths uses the same seed)
    let n = 20;
    let (a, b, c) = sgemm::generate(n, 0xA11CE);
    let args = sgemm::SgemmArgs {
        m: n,
        k: n,
        n,
        alpha: 1.0,
        beta: 0.5,
    };
    // run_peppherized applies the call twice (two iterations here).
    let got = sgemm::run_peppherized(&rt, n, 2, None);
    let once = sgemm::reference(&a, &b, &c, args);
    let want = sgemm::reference(&a, &b, &once, args);
    assert!(close(&got, &want, 1e-3));

    // bfs
    let g = bfs::generate(400, 4, 2);
    assert_eq!(
        bfs::run_peppherized(&rt, &g, 1, None),
        bfs::reference(&g, 0)
    );

    // hotspot (2 calls x 4 steps)
    let (temp, power) = hotspot::generate(24, 0x407);
    let h_args = hotspot::HotspotArgs {
        n: 24,
        steps: 8,
        cap: 0.05,
    };
    assert!(close(
        &hotspot::run_peppherized(&rt, 24, 2, None),
        &hotspot::reference(&temp, &power, h_args),
        1e-4
    ));

    // lud
    let lu = lud::run_peppherized(&rt, 20, None);
    let want = lud::reference(&lud::generate(20, 0x11D), lud::LudArgs { n: 20 });
    assert!(close(&lu, &want, 1e-3));

    // nw
    let (s1, s2) = nw::generate(48, 0x2A);
    assert_eq!(
        nw::run_peppherized(&rt, 48, None),
        nw::reference(&s1, &s2, nw::NwArgs { n: 48, penalty: 10 })
    );

    // pathfinder
    let wall = pathfinder::generate(30, 64, 0xF1D);
    assert_eq!(
        pathfinder::run_peppherized(&rt, 30, 64, None),
        pathfinder::reference(&wall, pathfinder::PathfinderArgs { rows: 30, cols: 64 })
    );

    // particlefilter
    let obs = particlefilter::generate(8, 0x9F);
    assert!(close(
        &particlefilter::run_peppherized(&rt, 400, 8, None),
        &particlefilter::reference(
            &obs,
            particlefilter::PfArgs {
                particles: 400,
                frames: 8,
                seed: 0x9F2
            }
        ),
        1e-3
    ));

    // cfd
    let mesh = cfd::generate(300, 0xCFD);
    let mut want = mesh.variables.clone();
    for _ in 0..2 {
        cfd::cfd_kernel(
            &mesh.neighbors,
            &mut want,
            cfd::CfdArgs {
                elements: 300,
                steps: 3,
                dt: 0.05,
            },
        );
    }
    assert!(close(&cfd::run_peppherized(&rt, 300, 2, None), &want, 1e-4));

    let stats = rt.stats();
    assert!(stats.tasks_executed >= 10, "{stats:?}");
    rt.shutdown();
}

#[test]
fn perf_histories_persist_across_application_runs() {
    let machine = MachineConfig::c2050_platform(2).without_noise();
    let rt1 = Runtime::new(machine.clone(), SchedulerKind::Dmda);
    let perf = Arc::clone(rt1.perf());

    let m = spmv::scattered_matrix(5_000, 8, 9);
    let x = vec![1.0f32; m.cols];
    spmv::run_peppherized(&rt1, &m, &x, 8);
    rt1.shutdown();
    let trained_keys = perf.key_count();
    assert!(trained_keys > 0);

    // Second run, same registry (StarPU's persisted calibration): the
    // scheduler starts hot and keeps learning into the same histories.
    let rt2 = Runtime::with_shared_perf(machine, RuntimeConfig::default(), Arc::clone(&perf));
    spmv::run_peppherized(&rt2, &m, &x, 4);
    rt2.shutdown();
    assert!(perf.key_count() >= trained_keys);
}

#[test]
fn fig6_entry_points_run_on_both_platforms() {
    for machine in [
        MachineConfig::c2050_platform(4).without_noise(),
        MachineConfig::c1060_platform(4).without_noise(),
    ] {
        for entry in peppher::apps::fig6_apps() {
            let size = entry.sizes[0];
            let rt = Runtime::new(machine.clone(), SchedulerKind::Dmda);
            let makespan = (entry.run)(&rt, size, None);
            assert!(
                makespan > peppher::sim::VTime::ZERO,
                "{} produced no work",
                entry.name
            );
            rt.shutdown();
        }
    }
}
