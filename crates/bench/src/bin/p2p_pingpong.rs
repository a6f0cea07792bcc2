//! Two-GPU halo exchange over the peer-to-peer fabric vs host staging.
//!
//! Each of two GPUs owns one domain block; every iteration it relaxes its
//! block against the *neighbour's* boundary halo and republishes its own.
//! The halo handles therefore ping-pong between the two device memory
//! nodes every iteration. On a host-only platform each migration is
//! staged as d2h + h2d over the (shared) host links; with a peer link the
//! same migration is one direct d2d hop, so the host links carry only the
//! initial domain loads. The run asserts the P2P platform moves at least
//! 40% fewer host-link bytes, finishes strictly earlier, and produces
//! bitwise-identical domains — placement and routing must never change
//! numerics.
//!
//! Run: `cargo run --release -p peppher-bench --bin p2p_pingpong`
//!
//! Emits the `p2p_pingpong` section of `target/BENCH_transfer.json`:
//! bytes per link class and the virtual makespan for both platforms.

use peppher_bench::{bench_json_path, json_str, write_json_section, TextTable};
use peppher_runtime::{
    AccessMode, Arch, Codelet, DataHandle, KernelCtx, Runtime, RuntimeConfig, RuntimeStats,
    SchedulerKind, TaskBuilder,
};
use peppher_sim::{KernelCost, MachineConfig};
use std::sync::Arc;

const DOMAIN: usize = 4096; // f32 elements per GPU block (16 KiB)
const HALO: usize = 1024; // f32 elements per boundary halo (4 KiB)
const ITERS: usize = 20;

/// Relax the domain against the neighbour's halo, then republish this
/// domain's boundary as its own halo. Scalar code shared by both
/// architectures so the result is placement-independent.
fn step_kernel(ctx: &mut KernelCtx<'_>) {
    let neighbour = ctx.r::<Vec<f32>>(0).clone();
    let boundary: Vec<f32> = {
        let dom = ctx.w::<Vec<f32>>(1);
        for (i, v) in dom.iter_mut().enumerate() {
            *v = *v * 0.5 + neighbour[i % neighbour.len()] * 0.25 + 1.0;
        }
        dom[DOMAIN - HALO..].to_vec()
    };
    let halo = ctx.w::<Vec<f32>>(2);
    halo.copy_from_slice(&boundary);
}

fn step_codelet() -> Arc<Codelet> {
    Arc::new(
        Codelet::new("halo_step")
            .with_impl(Arch::Cpu, step_kernel)
            .with_impl(Arch::Gpu, step_kernel),
    )
}

/// Runs the exchange with both GPU workers force-placed; returns the two
/// final domains and the run's stats.
fn run_on(machine: MachineConfig) -> (Vec<Vec<f32>>, RuntimeStats) {
    let rt = Runtime::with_config(
        machine.without_noise(),
        RuntimeConfig {
            scheduler: SchedulerKind::Eager,
            ..RuntimeConfig::default()
        },
    );
    let step = step_codelet();
    // Workers 0-1 are the CPUs; workers 2-3 drive GPU nodes 1-2.
    let gpu_workers = [2usize, 3usize];
    let domains: Vec<DataHandle> = (0..2)
        .map(|g| {
            rt.register(
                (0..DOMAIN)
                    .map(|i| (g * 31 + i) as f32 * 1e-3)
                    .collect::<Vec<f32>>(),
            )
        })
        .collect();
    let halos: Vec<DataHandle> = (0..2).map(|_| rt.register(vec![0.0f32; HALO])).collect();

    for _ in 0..ITERS {
        for g in 0..2 {
            TaskBuilder::new(&step)
                .access(&halos[1 - g], AccessMode::Read)
                .access(&domains[g], AccessMode::ReadWrite)
                .access(&halos[g], AccessMode::Write)
                .cost(KernelCost::new(
                    3.0 * DOMAIN as f64,
                    4.0 * (DOMAIN + HALO) as f64,
                    4.0 * (DOMAIN + HALO) as f64,
                ))
                .on_worker(gpu_workers[g])
                .submit(&rt);
        }
    }
    rt.wait_all();
    let out: Vec<Vec<f32>> = domains
        .iter()
        .map(|d| rt.acquire_read::<Vec<f32>>(d).clone())
        .collect();
    let stats = rt.stats();
    rt.shutdown();
    (out, stats)
}

fn main() {
    println!(
        "2-GPU halo exchange: {ITERS} iterations, {} KiB domains, {} KiB halos\n",
        DOMAIN * 4 / 1024,
        HALO * 4 / 1024
    );

    let (out_host, host) = run_on(MachineConfig::multi_gpu(2, 2));
    let (out_p2p, p2p) = run_on(MachineConfig::c2050_platform_p2p(2, 2));

    let mut table = TextTable::new(&["", "host-staged", "p2p"]);
    table.row(&[
        "makespan".into(),
        format!("{}", host.makespan),
        format!("{}", p2p.makespan),
    ]);
    table.row(&[
        "host-link bytes (h2d+d2h)".into(),
        format!("{}", host.host_link_bytes()),
        format!("{}", p2p.host_link_bytes()),
    ]);
    table.row(&[
        "peer bytes".into(),
        format!("{}", host.d2d_bytes),
        format!("{}", p2p.d2d_bytes),
    ]);
    table.row(&[
        "transfers (h2d/d2h/d2d)".into(),
        format!(
            "{}/{}/{}",
            host.h2d_transfers, host.d2h_transfers, host.d2d_transfers
        ),
        format!(
            "{}/{}/{}",
            p2p.h2d_transfers, p2p.d2h_transfers, p2p.d2d_transfers
        ),
    ]);
    print!("{}", table.render());

    for (a, b) in out_host.iter().zip(&out_p2p) {
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "domains diverged between host-staged and p2p runs"
        );
    }
    assert_eq!(host.d2d_transfers, 0, "no peer link on the staged platform");
    assert!(p2p.d2d_transfers > 0, "p2p run must use the peer link");
    assert!(
        (p2p.host_link_bytes() as f64) <= 0.6 * host.host_link_bytes() as f64,
        "p2p must shed >= 40% of host-link bytes: {} vs {}",
        p2p.host_link_bytes(),
        host.host_link_bytes()
    );
    assert!(
        p2p.makespan < host.makespan,
        "p2p makespan {} must beat host staging {}",
        p2p.makespan,
        host.makespan
    );

    let mut fields: Vec<(&str, String)> = vec![
        ("host_makespan_ns", host.makespan.as_nanos().to_string()),
        ("host_h2d_bytes", host.h2d_bytes.to_string()),
        ("host_d2h_bytes", host.d2h_bytes.to_string()),
        ("host_d2d_bytes", host.d2d_bytes.to_string()),
        ("p2p_makespan_ns", p2p.makespan.as_nanos().to_string()),
        ("p2p_h2d_bytes", p2p.h2d_bytes.to_string()),
        ("p2p_d2h_bytes", p2p.d2h_bytes.to_string()),
        ("p2p_d2d_bytes", p2p.d2d_bytes.to_string()),
    ];
    let busy_json = |stats: &RuntimeStats| {
        format!(
            "{{{}}}",
            stats
                .channel_busy
                .iter()
                .map(|(name, t)| format!("{}:{}", json_str(name), t.as_nanos()))
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    let (host_busy, p2p_busy) = (busy_json(&host), busy_json(&p2p));
    fields.push(("host_channel_busy_ns", host_busy));
    fields.push(("p2p_channel_busy_ns", p2p_busy));

    let path = bench_json_path("transfer");
    write_json_section(&path, "p2p_pingpong", &fields).expect("write sidecar");
    println!(
        "\np2p moved {:.1}% fewer host-link bytes and was {:.1}% faster; wrote {}",
        100.0 * (1.0 - p2p.host_link_bytes() as f64 / host.host_link_bytes() as f64),
        100.0 * (1.0 - p2p.makespan.as_micros_f64() / host.makespan.as_micros_f64()),
        path.display()
    );
}
