//! Integration tests for the routed transfer fabric: peer-to-peer device
//! links and in-flight transfer dedup, observed through the public
//! `Runtime` API.

use peppher::runtime::{
    AccessMode, Arch, Codelet, Runtime, RuntimeConfig, SchedulerKind, TaskBuilder,
};
use peppher::sim::MachineConfig;
use std::sync::Arc;

fn fill_kernel(ctx: &mut peppher::runtime::KernelCtx<'_>) {
    let seed: u64 = *ctx.arg::<u64>();
    let y = ctx.w::<Vec<f32>>(0);
    for (i, v) in y.iter_mut().enumerate() {
        *v = ((seed + i as u64) % 101) as f32;
    }
}

fn touch_kernel(ctx: &mut peppher::runtime::KernelCtx<'_>) {
    // Read-only consumer: forces the operand valid on the worker's node.
    let x = ctx.r::<Vec<f32>>(0);
    assert!(!x.is_empty());
}

fn scale_kernel(ctx: &mut peppher::runtime::KernelCtx<'_>) {
    let y = ctx.w::<Vec<f32>>(0);
    for v in y.iter_mut() {
        *v = *v * 1.5 + 1.0;
    }
}

fn codelet(name: &str, f: fn(&mut peppher::runtime::KernelCtx<'_>)) -> Arc<Codelet> {
    Arc::new(
        Codelet::new(name)
            .with_impl(Arch::Cpu, f)
            .with_impl(Arch::Gpu, f),
    )
}

fn bitwise_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Two CPU workers racing to read a handle that only exists on the GPU:
/// the in-flight registry (plus MSI caching for late arrivals) must
/// produce exactly one device-to-host transfer.
#[test]
fn concurrent_cold_readers_record_one_transfer() {
    // c2050_platform(2): workers 0-1 = CPUs (node 0), worker 2 = GPU.
    let rt = Runtime::with_config(
        MachineConfig::c2050_platform(2).without_noise(),
        RuntimeConfig {
            scheduler: SchedulerKind::Eager,
            ..RuntimeConfig::default()
        },
    );
    let fill = codelet("fab_fill", fill_kernel);
    let touch = codelet("fab_touch", touch_kernel);
    let h = rt.register(vec![0.0f32; 1024]);

    TaskBuilder::new(&fill)
        .arg(42u64)
        .access(&h, AccessMode::Write)
        .on_worker(2)
        .submit(&rt);
    for w in 0..2 {
        TaskBuilder::new(&touch)
            .access(&h, AccessMode::Read)
            .on_worker(w)
            .submit(&rt);
    }
    rt.wait_all();

    let stats = rt.stats();
    assert_eq!(
        stats.d2h_transfers, 1,
        "one writeback serves both host readers"
    );
    assert_eq!(stats.h2d_transfers, 0, "write-only allocation never copies");
    rt.shutdown();
}

/// Broadcasting one device-resident handle to every other device routes
/// through the host, but the device-to-host leg is shared: N consumers
/// cost 1 d2h + N h2d transfers, never N of each.
#[test]
fn broadcast_to_devices_shares_the_writeback_leg() {
    // multi_gpu(1, 3): worker 0 = CPU, workers 1-3 = GPUs (nodes 1-3).
    let rt = Runtime::with_config(
        MachineConfig::multi_gpu(1, 3).without_noise(),
        RuntimeConfig {
            scheduler: SchedulerKind::Eager,
            ..RuntimeConfig::default()
        },
    );
    let fill = codelet("fab_fill", fill_kernel);
    let touch = codelet("fab_touch", touch_kernel);
    let h = rt.register(vec![0.0f32; 1024]);

    TaskBuilder::new(&fill)
        .arg(7u64)
        .access(&h, AccessMode::Write)
        .on_worker(1)
        .submit(&rt);
    for w in 2..=3 {
        TaskBuilder::new(&touch)
            .access(&h, AccessMode::Read)
            .on_worker(w)
            .submit(&rt);
    }
    rt.wait_all();

    let stats = rt.stats();
    assert_eq!(stats.d2h_transfers, 1, "single shared d2h leg");
    assert_eq!(stats.h2d_transfers, 2, "one h2d per consuming device");
    assert_eq!(stats.d2d_transfers, 0, "no peer links on this platform");

    let got = rt.acquire_read::<Vec<f32>>(&h);
    let expect: Vec<f32> = (0..1024u64).map(|i| ((7 + i) % 101) as f32).collect();
    assert!(bitwise_eq(&got, &expect));
    drop(got);
    rt.shutdown();
}

/// The same producer/consumer pipeline on a host-only platform and on a
/// P2P platform: identical results, but the peer link carries the
/// device-to-device migration and the host links fall silent.
#[test]
fn p2p_migration_bypasses_host_links() {
    let run = |machine: MachineConfig| {
        let rt = Runtime::with_config(
            machine.without_noise(),
            RuntimeConfig {
                scheduler: SchedulerKind::Eager,
                ..RuntimeConfig::default()
            },
        );
        let fill = codelet("fab_fill", fill_kernel);
        let scale = codelet("fab_scale", scale_kernel);
        let h = rt.register(vec![0.0f32; 1024]);
        TaskBuilder::new(&fill)
            .arg(3u64)
            .access(&h, AccessMode::Write)
            .on_worker(1)
            .submit(&rt);
        TaskBuilder::new(&scale)
            .access(&h, AccessMode::ReadWrite)
            .on_worker(2)
            .submit(&rt);
        rt.wait_all();
        let out = rt.acquire_read::<Vec<f32>>(&h).clone();
        let stats = rt.stats();
        rt.shutdown();
        (out, stats)
    };

    let (host_out, host_stats) = run(MachineConfig::multi_gpu(1, 2));
    let (p2p_out, p2p_stats) = run(MachineConfig::c2050_platform_p2p(1, 2));

    assert!(
        bitwise_eq(&host_out, &p2p_out),
        "results are placement-blind"
    );
    assert_eq!(host_stats.d2d_transfers, 0);
    assert_eq!(p2p_stats.d2d_transfers, 1, "migration took the peer link");
    assert!(
        p2p_stats.host_link_bytes() < host_stats.host_link_bytes(),
        "peer route must shed host-link traffic: {} vs {}",
        p2p_stats.host_link_bytes(),
        host_stats.host_link_bytes()
    );
    rt_sanity(&p2p_stats.channel_busy);
}

fn rt_sanity(busy: &[(String, peppher::sim::VTime)]) {
    // Peer channels only appear in the per-channel report once used.
    assert!(busy
        .iter()
        .any(|(name, t)| name.starts_with("p2p:") && *t > peppher::sim::VTime::ZERO));
}
