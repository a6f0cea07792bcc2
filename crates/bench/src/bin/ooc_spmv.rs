//! Out-of-core SpMV: the working set is several times larger than device
//! memory, so the GPU can only make progress because the memory-node
//! capacity manager evicts cold replicas (writing Modified victims back to
//! main memory) while tasks stream through.
//!
//! Every row block is *forced* onto the CUDA variant, so the entire matrix
//! must pass through the single GPU's budgeted memory node — a
//! deterministic capacity-pressure scenario. The run asserts that
//!
//!   * the result is bitwise identical to a sequential reference product,
//!   * evictions actually happened (`evictions > 0`), and
//!   * at least one Modified victim was written back before invalidation
//!     (`writeback_bytes > 0`).
//!
//! Run: `cargo run --release -p peppher-bench --bin ooc_spmv`
//!      `... --bin ooc_spmv -- --mem-budget 262144` (override device bytes)
//!      `... --bin ooc_spmv -- --sched dmdar` (override scheduling policy)
//!      `... --bin ooc_spmv -- --p2p` (two peer-linked GPUs instead of one;
//!      combine with `--sched dmda|dmdar` to see the route-aware placement
//!      split blocks across both devices and migrate over the peer link)

use peppher_apps::spmv;
use peppher_bench::TextTable;
use peppher_runtime::{gantt, Runtime, RuntimeConfig, SchedulerKind};
use peppher_sim::MachineConfig;

const NBLOCKS: usize = 32;

fn main() {
    let m = spmv::banded_matrix(8_192, 32, 11);
    let x = vec![1.0f32; m.cols];
    // One replica of everything a full product touches: the CSR arrays
    // plus the dense input and output vectors.
    let working_set = (m.bytes() + (x.len() + m.rows) * 4) as u64;
    // Default: the device holds a quarter of the working set, the
    // out-of-core regime the issue asks for. `--mem-budget` overrides.
    let budget = parse_mem_budget().unwrap_or(working_set / 4);
    let sched = parse_sched().unwrap_or(SchedulerKind::Dmda);
    let p2p = parse_p2p();
    // With `--p2p` the matrix streams through TWO budgeted GPUs that share
    // a peer link, so inter-device block migrations bypass the host.
    let base_machine = if p2p {
        MachineConfig::c2050_platform_p2p(4, 2)
    } else {
        MachineConfig::c2050_platform(4)
    };

    println!("Out-of-core SpMV — working set vs. device budget\n");
    println!("  scheduler   : {sched:?}");
    println!(
        "  platform    : {}",
        if p2p { "2 GPUs + peer link" } else { "1 GPU" }
    );
    println!("  working set : {} bytes", working_set);
    println!(
        "  GPU budget  : {} bytes ({:.1}x oversubscribed)\n",
        budget,
        working_set as f64 / budget as f64
    );

    let reference = spmv::reference(&m, &x);

    // Constrained run: every block forced through the GPU(s).
    let machine = base_machine.clone().without_noise().with_device_mem(budget);
    let workers = machine.total_workers();
    let rt = Runtime::with_config(
        machine,
        RuntimeConfig {
            scheduler: sched,
            enable_trace: true,
            ..RuntimeConfig::default()
        },
    );
    let y = spmv::run_hybrid_ex(&rt, &m, &x, NBLOCKS, Some("spmv_cuda"));
    let constrained = rt.stats();
    let trace = rt.trace();
    rt.shutdown();

    // Uncapped control run: same forced placement, no budget, so any
    // difference in traffic below is pure capacity-management overhead.
    let rt = Runtime::with_config(
        base_machine.without_noise(),
        RuntimeConfig {
            scheduler: sched,
            ..RuntimeConfig::default()
        },
    );
    let y_uncapped = spmv::run_hybrid_ex(&rt, &m, &x, NBLOCKS, Some("spmv_cuda"));
    let uncapped = rt.stats();
    rt.shutdown();

    let mut table = TextTable::new(&["", "Capped GPU", "Unlimited GPU"]);
    table.row(&[
        "makespan".into(),
        format!("{}", constrained.makespan),
        format!("{}", uncapped.makespan),
    ]);
    table.row(&[
        "transfers (h2d/d2h/d2d)".into(),
        format!(
            "{}/{}/{}",
            constrained.h2d_transfers, constrained.d2h_transfers, constrained.d2d_transfers
        ),
        format!(
            "{}/{}/{}",
            uncapped.h2d_transfers, uncapped.d2h_transfers, uncapped.d2d_transfers
        ),
    ]);
    table.row(&[
        "transfer bytes".into(),
        format!("{}", constrained.total_transfer_bytes()),
        format!("{}", uncapped.total_transfer_bytes()),
    ]);
    table.row(&[
        "evictions".into(),
        format!("{}", constrained.evictions),
        format!("{}", uncapped.evictions),
    ]);
    table.row(&[
        "writeback bytes".into(),
        format!("{}", constrained.writeback_bytes),
        format!("{}", uncapped.writeback_bytes),
    ]);
    table.row(&[
        "GPU high water".into(),
        format!(
            "{}",
            constrained.mem_high_water.get(1).copied().unwrap_or(0)
        ),
        format!("{}", uncapped.mem_high_water.get(1).copied().unwrap_or(0)),
    ]);
    print!("{}", table.render());

    assert_eq!(y.len(), reference.len());
    let bitwise = y
        .iter()
        .zip(&reference)
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        bitwise,
        "out-of-core result diverged from the sequential reference"
    );
    assert_eq!(y, y_uncapped, "capacity pressure changed the numerics");
    if budget < working_set {
        assert!(
            constrained.evictions > 0,
            "a {:.1}x-oversubscribed device must evict",
            working_set as f64 / budget as f64
        );
        assert!(
            constrained.writeback_bytes > 0,
            "Modified block outputs must be written back on eviction"
        );
    } else {
        println!("\n(budget covers the working set — no capacity pressure to demonstrate)");
    }
    assert_eq!(
        uncapped.evictions, 0,
        "the unlimited-budget control run must not evict"
    );

    // The tail of the capped run's schedule: eviction stalls show up as
    // the gantt's eviction summary under the worker lanes.
    let tail = trace.len().saturating_sub(120);
    println!("\nschedule tail (capped run):");
    print!("{}", gantt(&trace[tail..], workers, 72));

    let high = constrained.mem_high_water.get(1).copied().unwrap_or(0);
    println!(
        "\nresult bitwise-identical to reference; GPU peaked at {high} of {budget} budgeted bytes"
    );
}

/// Parses `--mem-budget <bytes>` (or `--mem-budget=<bytes>`) from argv.
fn parse_mem_budget() -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--mem-budget=") {
            return Some(v.parse().expect("--mem-budget expects a byte count"));
        }
        if a == "--mem-budget" {
            let v = args.get(i + 1).expect("--mem-budget expects a byte count");
            return Some(v.parse().expect("--mem-budget expects a byte count"));
        }
    }
    None
}

/// Parses the presence of the `--p2p` flag from argv.
fn parse_p2p() -> bool {
    std::env::args().any(|a| a == "--p2p")
}

/// Parses `--sched <policy>` (or `--sched=<policy>`) from argv; accepts
/// eager|dmda|dmdar.
fn parse_sched() -> Option<SchedulerKind> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix("--sched=") {
            return Some(v.parse().unwrap_or_else(|e| panic!("{e}")));
        }
        if a == "--sched" {
            let v = args.get(i + 1).expect("--sched expects a policy name");
            return Some(v.parse().unwrap_or_else(|e| panic!("{e}")));
        }
    }
    None
}
