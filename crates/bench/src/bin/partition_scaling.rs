//! Partition-tree scaling: one kernel spread across the device mesh.
//!
//! Runs the blocked multi-device SGEMM ([`sgemm::run_partitioned`]) and
//! the tiled blocked LUD ([`lud::run_blocked_batch`]) — both built on the
//! partition trees of `peppher-containers` — on 1, 2 and 4 GPUs and
//! reports the virtual-makespan speedup over the single-GPU run. With
//! `--p2p` the multi-GPU platforms carry peer links (the 4-GPU row uses
//! the asymmetric `c2050_platform_mesh` preset); without it every
//! device-to-device move stages through the host.
//!
//! The SGEMM run applies `SWEEPS` band-GEMM rounds between one scatter
//! and one gather (the build-once/execute-many shape of a real solver
//! loop), so the device-count-independent host copies amortize; the LUD
//! run factors a batch of independent matrices concurrently so one
//! factorization's serial gather tail overlaps the others' trailing
//! updates instead of Amdahl-capping the speedup. Placement uses the
//! static device model (`use_history: false`): with history on, dmda's
//! calibration round-robin spreads the first samples of every codelet
//! across all architecture classes, and these graphs are too small to
//! ever exit that transient.
//!
//! A second experiment runs an out-of-core multi-pass accumulation over
//! a partitioned matrix under a tight device budget, once with plain
//! LRU eviction and once with the partition-aware family policy, and
//! compares eviction writeback traffic. The accumulator bands form one
//! dirty block family that stays hot across passes; the per-pass read
//! operand alternates between two clean buffers, so exactly one buffer
//! must leave the device at every pass boundary. Family eviction drops
//! the clean cold operand (zero writeback); LRU goes by recency alone,
//! picks the least-recently-touched accumulator band — dirty, and
//! needed again a task later — and shreds the family into a cascade of
//! writebacks.
//!
//! Run: `cargo run --release -p peppher-bench --bin partition_scaling --
//! [--p2p]`
//!
//! Emits the `partition_scaling` section of `target/BENCH_partition.json`.
//! The run fails if the gated 1→2-device speedup of either kernel drops
//! below the 1.7× floor or if family eviction stops reducing writeback
//! bytes; on failure traced gantts are dumped to
//! `target/partition-artifacts/` for the CI artifact upload.

use peppher_apps::{lud, sgemm};
use peppher_bench::{bar, bench_json_path, write_json_section, TextTable};
use peppher_containers::Matrix;
use peppher_runtime::{
    gantt, AccessMode, Arch, Codelet, EvictionPolicy, Runtime, RuntimeConfig, SchedulerKind,
    TaskBuilder,
};
use peppher_sim::{KernelCost, MachineConfig, VTime};
use std::path::Path;
use std::sync::Arc;

/// Gated 1→2-device speedup floor.
const FLOOR_SPEEDUP: f64 = 1.7;
/// Repetitions per (kernel, device-count) cell; the minimum makespan is
/// scored. Placement reacts to real-thread interleaving, so single runs
/// jitter by up to ~15%.
const REPS: usize = 7;

/// SGEMM: 512² operands in 8 row bands, 12 sweeps per scatter/gather.
const SGEMM_N: usize = 512;
const SGEMM_NBLOCKS: usize = 8;
const SGEMM_SWEEPS: usize = 12;

/// LUD: a batch of 2048² factorizations, each over an 8×8 flat tile
/// grid, in flight together (see [`lud::run_blocked_batch`]).
const LUD_N: usize = 2048;
const LUD_NBLOCKS: usize = 8;
const LUD_BATCH: usize = 4;

/// Out-of-core experiment: accumulator band count/size and pass count.
/// The device budget holds the whole accumulator family plus exactly one
/// of the two alternating read operands, so each pass boundary forces
/// one eviction.
const OOC_BANDS: usize = 6;
const OOC_BAND_ROWS: usize = 128;
const OOC_COLS: usize = 128;
const OOC_PASSES: usize = 4;
const OOC_BAND_BYTES: u64 = (OOC_BAND_ROWS * OOC_COLS * 4) as u64;
const OOC_BUDGET: u64 = (OOC_BANDS as u64 + 1) * OOC_BAND_BYTES;

const CPUS: usize = 2;

struct Kernel {
    name: &'static str,
    n: usize,
    nblocks: usize,
    sweeps: usize,
    run: fn(&Runtime),
}

const KERNELS: [Kernel; 2] = [
    Kernel {
        name: "sgemm",
        n: SGEMM_N,
        nblocks: SGEMM_NBLOCKS,
        sweeps: SGEMM_SWEEPS,
        run: |rt| {
            sgemm::run_partitioned(rt, SGEMM_N, SGEMM_NBLOCKS, SGEMM_SWEEPS);
        },
    },
    Kernel {
        name: "lud",
        n: LUD_N,
        nblocks: LUD_NBLOCKS,
        // For lud "sweeps" is the batch width: independent concurrent
        // factorizations, not repeated passes.
        sweeps: LUD_BATCH,
        run: |rt| {
            lud::run_blocked_batch(rt, LUD_N, LUD_NBLOCKS, LUD_BATCH);
        },
    },
];

fn platform(gpus: usize, p2p: bool) -> MachineConfig {
    let m = match (gpus, p2p) {
        (1, _) => MachineConfig::c2050_platform(CPUS),
        (4, true) => MachineConfig::c2050_platform_mesh(CPUS),
        (g, true) => MachineConfig::c2050_platform_p2p(CPUS, g),
        (g, false) => MachineConfig::multi_gpu(CPUS, g),
    };
    m.without_noise()
}

fn runtime(machine: MachineConfig, trace: bool) -> Runtime {
    Runtime::with_config(
        machine,
        RuntimeConfig {
            scheduler: SchedulerKind::Dmda,
            use_history: false,
            enable_trace: trace,
            ..RuntimeConfig::default()
        },
    )
}

/// Minimum makespan over [`REPS`] runs.
fn makespan(machine: &MachineConfig, run: fn(&Runtime)) -> VTime {
    (0..REPS)
        .map(|_| {
            let rt = runtime(machine.clone(), false);
            run(&rt);
            let t = rt.stats().makespan;
            rt.shutdown();
            t
        })
        .min()
        .expect("REPS > 0")
}

/// Writeback bytes of the out-of-core multi-pass accumulation under
/// `policy`.
///
/// One GPU, one task in flight at a time (each submission is followed
/// by `wait_all`), so the eviction sequence is a pure function of the
/// access pattern and the two policies see identical pressure. The
/// accumulator is a `partition_tree` band family (dirty after the first
/// pass); the two pass operands are plain family-less handles that take
/// turns being cold.
fn ooc_writeback(policy: EvictionPolicy) -> u64 {
    let rt = Runtime::with_config(
        platform(1, false).with_device_mem(OOC_BUDGET),
        RuntimeConfig {
            scheduler: SchedulerKind::Dmda,
            use_history: false,
            eviction: policy,
            ..RuntimeConfig::default()
        },
    );
    let band = OOC_BAND_ROWS * OOC_COLS;
    let acc = Matrix::register(
        &rt,
        OOC_BANDS * OOC_BAND_ROWS,
        OOC_COLS,
        vec![0.0f32; OOC_BANDS * band],
    );
    let parts = acc.partition_tree(OOC_BANDS);
    parts.scatter();
    let ops: Vec<_> = (0..2)
        .map(|p| Matrix::register(&rt, OOC_BAND_ROWS, OOC_COLS, vec![p as f32; band]))
        .collect();
    // GPU-only so every task lands on the one budgeted device.
    let accum = Arc::new(Codelet::new("ooc_accum").with_impl(Arch::Gpu, |ctx| {
        let a = ctx.r::<Vec<f32>>(0).clone();
        let c = ctx.w::<Vec<f32>>(1);
        for (cv, av) in c.iter_mut().zip(&a) {
            *cv += av;
        }
    }));
    for pass in 0..OOC_PASSES {
        for i in 0..OOC_BANDS {
            TaskBuilder::new(&accum)
                .access(ops[pass % 2].handle(), AccessMode::Read)
                .access(parts.block(i).handle(), AccessMode::ReadWrite)
                .cost(
                    KernelCost::new(
                        band as f64,
                        2.0 * OOC_BAND_BYTES as f64,
                        OOC_BAND_BYTES as f64,
                    )
                    .with_regularity(1.0),
                )
                .submit(&rt);
            rt.wait_all();
        }
    }
    let stats = rt.stats();
    rt.shutdown();
    stats.writeback_bytes
}

/// Dumps traced 2-device gantts of both kernels for postmortem when a
/// gate fails.
fn dump_diagnostics(dir: &Path, p2p: bool) {
    let _ = std::fs::create_dir_all(dir);
    for k in &KERNELS {
        let rt = runtime(platform(2, p2p), true);
        (k.run)(&rt);
        let trace = rt.trace();
        let chart = gantt(&trace, rt.machine().total_workers(), 100);
        let _ = std::fs::write(
            dir.join(format!("{}_2dev_gantt.txt", k.name)),
            format!(
                "{} n={} nblocks={} sweeps={} on 2 devices, dmda:\n\n{chart}",
                k.name, k.n, k.nblocks, k.sweeps
            ),
        );
        rt.shutdown();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let p2p = args.iter().any(|a| a == "--p2p");

    println!(
        "partition-tree scaling: {CPUS} CPU workers, min of {REPS} reps, p2p={}\n",
        if p2p { "on" } else { "off (host-staged)" }
    );

    let mut table = TextTable::new(&["kernel", "1 gpu", "2 gpus", "4 gpus", "1→2", "1→4", ""]);
    let mut speedups_2dev: Vec<(&str, f64)> = Vec::new();
    let mut fields: Vec<(String, String)> = Vec::new();
    for k in &KERNELS {
        let t: Vec<VTime> = [1usize, 2, 4]
            .iter()
            .map(|&g| makespan(&platform(g, p2p), k.run))
            .collect();
        let s2 = t[0].as_nanos() as f64 / t[1].as_nanos().max(1) as f64;
        let s4 = t[0].as_nanos() as f64 / t[2].as_nanos().max(1) as f64;
        table.row(&[
            format!("{} (n={}, {} blk)", k.name, k.n, k.nblocks),
            format!("{:.2} ms", t[0].as_millis_f64()),
            format!("{:.2} ms", t[1].as_millis_f64()),
            format!("{:.2} ms", t[2].as_millis_f64()),
            format!("{s2:.2}x"),
            format!("{s4:.2}x"),
            bar(s4, 4.0, 20),
        ]);
        speedups_2dev.push((k.name, s2));
        for (g, tv) in [1usize, 2, 4].iter().zip(&t) {
            fields.push((
                format!("{}_{g}gpu_makespan_ns", k.name),
                tv.as_nanos().to_string(),
            ));
        }
        fields.push((format!("{}_n", k.name), k.n.to_string()));
        fields.push((format!("{}_nblocks", k.name), k.nblocks.to_string()));
        fields.push((format!("{}_sweeps", k.name), k.sweeps.to_string()));
        fields.push((format!("{}_speedup_2dev", k.name), format!("{s2:.2}")));
        fields.push((format!("{}_speedup_4dev", k.name), format!("{s4:.2}")));
    }
    print!("{}", table.render());

    let lru_wb = ooc_writeback(EvictionPolicy::Lru);
    let fam_wb = ooc_writeback(EvictionPolicy::Family);
    println!(
        "\nout-of-core accumulation ({OOC_BANDS} bands x {OOC_BAND_BYTES} B, {OOC_PASSES} \
         passes, {OOC_BUDGET} B budget):\n  eviction writeback: lru {lru_wb} B, family \
         {fam_wb} B ({:.0}% less)",
        100.0 * (1.0 - fam_wb as f64 / lru_wb.max(1) as f64)
    );

    fields.push(("reps".into(), REPS.to_string()));
    fields.push(("p2p".into(), p2p.to_string()));
    fields.push(("floor_speedup".into(), format!("{FLOOR_SPEEDUP:.2}")));
    fields.push(("ooc_lru_writeback_bytes".into(), lru_wb.to_string()));
    fields.push(("ooc_family_writeback_bytes".into(), fam_wb.to_string()));
    let borrowed: Vec<(&str, String)> = fields
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    let path = bench_json_path("partition");
    write_json_section(&path, "partition_scaling", &borrowed).expect("write sidecar");
    println!("\nwrote {}", path.display());

    let mut failures: Vec<String> = Vec::new();
    for (name, s2) in &speedups_2dev {
        if *s2 < FLOOR_SPEEDUP {
            failures.push(format!(
                "{name} 1→2-device speedup {s2:.2}x is below the floor {FLOOR_SPEEDUP:.2}x"
            ));
        }
    }
    if lru_wb == 0 {
        failures.push("out-of-core run evicted nothing under LRU (budget too large?)".into());
    } else if fam_wb >= lru_wb {
        failures.push(format!(
            "family eviction wrote back {fam_wb} B, not less than LRU's {lru_wb} B"
        ));
    }
    if !failures.is_empty() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/partition-artifacts");
        dump_diagnostics(&dir, p2p);
        panic!(
            "partition scaling regression (diagnostics in {}):\n  {}",
            dir.display(),
            failures.join("\n  ")
        );
    }
}
