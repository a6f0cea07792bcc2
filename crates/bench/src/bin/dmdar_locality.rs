//! `dmdar` vs `dmda` on the repeated blocked-SpMV locality scenario.
//!
//! Iteration-major submission over more blocks than the device budget
//! holds makes FIFO dispatch (`dmda`) thrash: every block is evicted
//! before its next iteration runs, so it crosses the PCIe link once per
//! iteration. `dmdar`'s pop-time readiness reordering runs each block's
//! chain back-to-back and fetches it roughly once. The run asserts that
//! `dmdar` moves at least 10% fewer bytes and finishes no later, with
//! bitwise-identical block products.
//!
//! Run: `cargo run --release -p peppher-bench --bin dmdar_locality`

use peppher_apps::spmv::{run_locality, LocalityScenario};
use peppher_bench::{bench_json_path, write_json_section, TextTable};
use peppher_runtime::{Runtime, RuntimeConfig, RuntimeStats, SchedulerKind};
use peppher_sim::MachineConfig;

fn run_with(sched: SchedulerKind, sc: &LocalityScenario) -> (Vec<Vec<f32>>, RuntimeStats) {
    let rt = Runtime::with_config(
        MachineConfig::c2050_platform(1)
            .without_noise()
            .with_device_mem(sc.suggested_budget()),
        RuntimeConfig {
            scheduler: sched,
            // Disable prefetch-at-push for both runs so the comparison
            // isolates the pop-time reordering itself.
            enable_prefetch: false,
            ..RuntimeConfig::default()
        },
    );
    let out = run_locality(&rt, sc);
    let stats = rt.stats();
    rt.shutdown();
    (out, stats)
}

fn main() {
    let sc = LocalityScenario::default_shape();
    println!(
        "Repeated blocked SpMV: {} blocks x {} iterations, budget {} bytes (~3 blocks)\n",
        sc.blocks,
        sc.iters,
        sc.suggested_budget()
    );

    let (out_dmda, dmda) = run_with(SchedulerKind::Dmda, &sc);
    let (out_dmdar, dmdar) = run_with(SchedulerKind::Dmdar, &sc);

    let mut table = TextTable::new(&["", "dmda", "dmdar"]);
    table.row(&[
        "makespan".into(),
        format!("{}", dmda.makespan),
        format!("{}", dmdar.makespan),
    ]);
    table.row(&[
        "transfer bytes".into(),
        format!("{}", dmda.total_transfer_bytes()),
        format!("{}", dmdar.total_transfer_bytes()),
    ]);
    table.row(&[
        "transfers (h2d/d2h)".into(),
        format!("{}/{}", dmda.h2d_transfers, dmda.d2h_transfers),
        format!("{}/{}", dmdar.h2d_transfers, dmdar.d2h_transfers),
    ]);
    table.row(&[
        "evictions".into(),
        format!("{}", dmda.evictions),
        format!("{}", dmdar.evictions),
    ]);
    table.row(&[
        "scheduler reorders".into(),
        format!("{}", dmda.sched_reorders),
        format!("{}", dmdar.sched_reorders),
    ]);
    table.row(&[
        "resident bytes at dispatch".into(),
        format!("{}", dmda.dispatch_resident_bytes),
        format!("{}", dmdar.dispatch_resident_bytes),
    ]);
    table.row(&[
        "max queue depth".into(),
        format!("{}", dmda.max_queue_depth),
        format!("{}", dmdar.max_queue_depth),
    ]);
    print!("{}", table.render());

    for (a, b) in out_dmda.iter().zip(&out_dmdar) {
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "block products diverged between dmda and dmdar"
        );
    }
    let (bytes_dmda, bytes_dmdar) = (dmda.total_transfer_bytes(), dmdar.total_transfer_bytes());
    assert!(
        (bytes_dmdar as f64) <= 0.9 * bytes_dmda as f64,
        "dmdar must move at least 10% fewer bytes: {bytes_dmdar} vs {bytes_dmda}"
    );
    assert!(
        dmdar.makespan <= dmda.makespan,
        "dmdar makespan {} must not exceed dmda's {}",
        dmdar.makespan,
        dmda.makespan
    );
    assert!(
        dmdar.sched_reorders > 0,
        "the win must come from actual queue reordering"
    );

    let fields: Vec<(&str, String)> = vec![
        ("dmda_makespan_ns", dmda.makespan.as_nanos().to_string()),
        ("dmda_h2d_bytes", dmda.h2d_bytes.to_string()),
        ("dmda_d2h_bytes", dmda.d2h_bytes.to_string()),
        ("dmda_d2d_bytes", dmda.d2d_bytes.to_string()),
        ("dmdar_makespan_ns", dmdar.makespan.as_nanos().to_string()),
        ("dmdar_h2d_bytes", dmdar.h2d_bytes.to_string()),
        ("dmdar_d2h_bytes", dmdar.d2h_bytes.to_string()),
        ("dmdar_d2d_bytes", dmdar.d2d_bytes.to_string()),
        ("dmdar_reorders", dmdar.sched_reorders.to_string()),
    ];
    let path = bench_json_path("transfer");
    write_json_section(&path, "dmdar_locality", &fields).expect("write sidecar");

    println!(
        "\ndmdar moved {:.1}% fewer bytes and was {:.1}% faster ({} queue reorders); wrote {}",
        100.0 * (1.0 - bytes_dmdar as f64 / bytes_dmda as f64),
        100.0 * (1.0 - dmdar.makespan.as_micros_f64() / dmda.makespan.as_micros_f64()),
        dmdar.sched_reorders,
        path.display()
    );
}
