//! Graph-replay speedup: the ODE double-step DAG driven two ways —
//! naively resubmitted through `TaskBuilder` every iteration vs recorded
//! once in a `TaskGraph` and replayed with `execute_many`.
//!
//! Kernels are empty and operands tiny, so the measured cost is the
//! framework's per-iteration overhead in isolation (the same isolation
//! `task_throughput` uses for §V-E): per-task allocation, dependency
//! discovery against the handles' access histories, codelet/perf-key
//! bookkeeping, and — on the placing policies — the per-task placement
//! search, which the frozen replay path skips entirely. Real ODE kernels
//! would put identical compute time in both columns and only dilute the
//! ratio; the DAG *shape* (18 tasks over 7 operands, the tight
//! read-after-write chain that makes libsolve "almost sequential") is
//! what exercises the replay machinery.
//!
//! The two drivers model the two regimes libsolve actually runs in.
//! *Naive* is the adaptive stepper: it cannot know the next step until it
//! has seen this step's error estimate, so each iteration pays a full
//! resubmission plus a blocking error readback (submit → sync → decide).
//! *Replay* is the fixed-step / dense-output regime the graph API was
//! built for: the iteration count is known up front, so
//! `execute_many(ITERS)` chains all iterations worker-side — one frontier
//! seed per iteration, no per-task allocation, no dependency discovery,
//! no placement search once frozen, and a single host wakeup at the end.
//!
//! Run: `cargo run --release -p peppher-bench --bin graph_replay`
//!
//! Emits the `graph_replay` section of `target/BENCH_replay.json`:
//! iterations/sec for both modes under eager, dmda and dmdar. The run
//! fails if the gated cell (dmda speedup) drops below the 5× floor; on
//! failure a traced replay gantt is dumped to `target/replay-artifacts/`
//! for the CI artifact upload.

use peppher_bench::{bar, bench_json_path, write_json_section, TextTable};
use peppher_runtime::{
    gantt, AccessMode, Arch, Codelet, GraphSlot, GraphTask, KernelCtx, Runtime, RuntimeConfig,
    SchedulerKind, TaskBuilder, TaskGraph,
};
use peppher_sim::{KernelCost, MachineConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const ITERS: u32 = 1_000;
const RUNS: usize = 3;
/// Operand length — tiny, so coherence traffic is negligible.
const SLOT_LEN: usize = 16;

/// Virtual cost of every stage kernel — enough parallel flops that the
/// calibrated models prefer the GPU decisively (as the real ODE stage
/// kernels do), so the placement a frozen replay reuses is a stable,
/// locality-respecting one rather than a tie broken per iteration.
/// Virtual time never burns wall-clock, so this is placement signal only
/// and applies identically to both modes.
fn stage_cost() -> KernelCost {
    KernelCost::new(4.0e6, 1.0e5, 1.0e5)
}

/// Replay must beat naive resubmission by at least this factor on the
/// gated dmda cell.
const FLOOR_SPEEDUP: f64 = 5.0;

fn empty_kernel(_ctx: &mut KernelCtx<'_>) {}

struct Codelets {
    feval: Arc<Codelet>,
    stage: Arc<Codelet>,
    combine: Arc<Codelet>,
    norm: Arc<Codelet>,
    scale: Arc<Codelet>,
}

fn codelets(suffix: &str) -> Codelets {
    let make = |name: &str| {
        Arc::new(
            Codelet::new(format!("{name}_{suffix}"))
                .with_impl(Arch::Cpu, empty_kernel)
                .with_impl(Arch::Gpu, empty_kernel),
        )
    };
    Codelets {
        feval: make("replay_feval"),
        stage: make("replay_stage"),
        combine: make("replay_combine"),
        norm: make("replay_norm"),
        scale: make("replay_scale"),
    }
}

fn runtime(kind: SchedulerKind) -> Runtime {
    Runtime::with_config(
        MachineConfig::c2050_platform(8).without_noise(),
        RuntimeConfig {
            scheduler: kind,
            ..RuntimeConfig::default()
        },
    )
}

/// One double RK4 step (18 tasks) over handles `[y, k1..k4, yt, err]`,
/// submitted through the ordinary task API — the naive loop body.
fn submit_double_step(rt: &Runtime, cl: &Codelets, h: &[peppher_runtime::DataHandle]) {
    let (y, k1, k2, k3, k4, yt, err) = (&h[0], &h[1], &h[2], &h[3], &h[4], &h[5], &h[6]);
    for parity in 0..2 {
        for kout in [k1, k2, k3] {
            let src = if std::ptr::eq(kout, k1) { y } else { yt };
            TaskBuilder::new(&cl.feval)
                .cost(stage_cost())
                .access(src, AccessMode::Read)
                .access(kout, AccessMode::Write)
                .submit(rt);
            TaskBuilder::new(&cl.stage)
                .cost(stage_cost())
                .access(y, AccessMode::Read)
                .access(kout, AccessMode::Read)
                .access(yt, AccessMode::Write)
                .submit(rt);
        }
        TaskBuilder::new(&cl.feval)
            .cost(stage_cost())
            .access(yt, AccessMode::Read)
            .access(k4, AccessMode::Write)
            .submit(rt);
        TaskBuilder::new(&cl.combine)
            .cost(stage_cost())
            .access(y, AccessMode::ReadWrite)
            .access(k1, AccessMode::Read)
            .access(k2, AccessMode::Read)
            .access(k3, AccessMode::Read)
            .access(k4, AccessMode::Read)
            .submit(rt);
        if parity == 0 {
            TaskBuilder::new(&cl.norm)
                .cost(stage_cost())
                .access(k1, AccessMode::Read)
                .access(k4, AccessMode::Read)
                .access(err, AccessMode::Write)
                .submit(rt);
        } else {
            TaskBuilder::new(&cl.scale)
                .cost(stage_cost())
                .access(k4, AccessMode::ReadWrite)
                .submit(rt);
        }
    }
}

/// The same double step recorded as a [`TaskGraph`].
fn record_graph(cl: &Codelets) -> TaskGraph {
    let mut g = TaskGraph::new();
    let y = g.slot(vec![0.0f32; SLOT_LEN]);
    let k1 = g.slot(vec![0.0f32; SLOT_LEN]);
    let k2 = g.slot(vec![0.0f32; SLOT_LEN]);
    let k3 = g.slot(vec![0.0f32; SLOT_LEN]);
    let k4 = g.slot(vec![0.0f32; SLOT_LEN]);
    let yt = g.slot(vec![0.0f32; SLOT_LEN]);
    let err = g.slot_sized(0.0f32, 4);
    for parity in 0..2 {
        for kout in [k1, k2, k3] {
            let src: GraphSlot = if kout == k1 { y } else { yt };
            g.add(
                GraphTask::new(&cl.feval)
                    .cost(stage_cost())
                    .access(src, AccessMode::Read)
                    .access(kout, AccessMode::Write),
            );
            g.add(
                GraphTask::new(&cl.stage)
                    .cost(stage_cost())
                    .access(y, AccessMode::Read)
                    .access(kout, AccessMode::Read)
                    .access(yt, AccessMode::Write),
            );
        }
        g.add(
            GraphTask::new(&cl.feval)
                .cost(stage_cost())
                .access(yt, AccessMode::Read)
                .access(k4, AccessMode::Write),
        );
        g.add(
            GraphTask::new(&cl.combine)
                .cost(stage_cost())
                .access(y, AccessMode::ReadWrite)
                .access(k1, AccessMode::Read)
                .access(k2, AccessMode::Read)
                .access(k3, AccessMode::Read)
                .access(k4, AccessMode::Read),
        );
        if parity == 0 {
            g.add(
                GraphTask::new(&cl.norm)
                    .cost(stage_cost())
                    .access(k1, AccessMode::Read)
                    .access(k4, AccessMode::Read)
                    .access(err, AccessMode::Write),
            );
        } else {
            g.add(
                GraphTask::new(&cl.scale)
                    .cost(stage_cost())
                    .access(k4, AccessMode::ReadWrite),
            );
        }
    }
    g
}

/// Naive mode: the adaptive-stepping driver. Each iteration resubmits
/// the 18-task double step through `TaskBuilder` (per-task allocation,
/// dependency discovery, placement) and then reads the error estimate
/// back — the host round trip a step-size controller must make before it
/// can decide whether the step is accepted and what `h` comes next.
/// Returns iterations/sec.
fn run_naive(kind: SchedulerKind) -> f64 {
    let rt = runtime(kind);
    let cl = codelets("naive");
    let mut handles: Vec<peppher_runtime::DataHandle> = (0..6)
        .map(|_| rt.register(vec![0.0f32; SLOT_LEN]))
        .collect();
    handles.push(rt.register_sized(0.0f32, 4));
    let t0 = Instant::now();
    for _ in 0..ITERS {
        submit_double_step(&rt, &cl, &handles);
        let err = *rt.acquire_read::<f32>(&handles[6]);
        std::hint::black_box(err);
    }
    rt.wait_all();
    let rate = ITERS as f64 / t0.elapsed().as_secs_f64();
    rt.shutdown();
    rate
}

/// Replay mode: record once, instantiate once, `execute_many(ITERS)`.
/// Returns iterations/sec.
fn run_replay(kind: SchedulerKind) -> f64 {
    let rt = runtime(kind);
    let cl = codelets("replay");
    let inst = record_graph(&cl).instantiate(&rt);
    let t0 = Instant::now();
    inst.execute_many(ITERS);
    let rate = ITERS as f64 / t0.elapsed().as_secs_f64();
    rt.shutdown();
    rate
}

fn best_of(f: impl Fn() -> f64) -> f64 {
    (0..RUNS).map(|_| f()).fold(0.0f64, f64::max)
}

/// Dumps a short traced replay (per-iteration gantt lanes) for postmortem
/// when the speedup gate fails.
fn dump_diagnostics(dir: &Path) {
    let _ = std::fs::create_dir_all(dir);
    let rt = Runtime::with_config(
        MachineConfig::c2050_platform(8).without_noise(),
        RuntimeConfig {
            scheduler: SchedulerKind::Dmda,
            enable_trace: true,
            ..RuntimeConfig::default()
        },
    );
    let cl = codelets("diag");
    let inst = record_graph(&cl).instantiate(&rt);
    inst.execute_many(6);
    let trace = rt.trace();
    let chart = gantt(&trace, rt.machine().total_workers(), 100);
    let _ = std::fs::write(
        dir.join("replay_gantt.txt"),
        format!("6 traced replay iterations, dmda:\n\n{chart}"),
    );
    rt.shutdown();
}

fn main() {
    let policies = [
        ("eager", SchedulerKind::Eager),
        ("dmda", SchedulerKind::Dmda),
        ("dmdar", SchedulerKind::Dmdar),
    ];

    println!(
        "graph replay vs naive resubmission (ODE double-step DAG, 18 empty \
         tasks/iter,\n{ITERS} iterations, 8 CPU + 1 GPU workers, best of {RUNS}):\n"
    );

    let mut cells: Vec<(&str, f64, f64)> = Vec::new();
    for (name, kind) in policies {
        let naive = best_of(|| run_naive(kind));
        let replay = best_of(|| run_replay(kind));
        cells.push((name, naive, replay));
    }

    let max_rate = cells
        .iter()
        .map(|&(_, n, r)| n.max(r))
        .fold(0.0f64, f64::max);
    let mut table = TextTable::new(&["policy", "naive it/s", "replay it/s", "speedup", ""]);
    for &(name, naive, replay) in &cells {
        table.row(&[
            name.into(),
            format!("{naive:.0}"),
            format!("{replay:.0}"),
            format!("{:.2}x", replay / naive),
            bar(replay, max_rate, 30),
        ]);
    }
    print!("{}", table.render());

    let (_, gated_naive, gated_replay) = *cells.iter().find(|(n, _, _)| *n == "dmda").unwrap();
    let gated = gated_replay / gated_naive;

    let mut fields: Vec<(&str, String)> = vec![
        ("iterations", ITERS.to_string()),
        ("tasks_per_iteration", "18".to_string()),
        ("floor_speedup", format!("{FLOOR_SPEEDUP:.2}")),
        ("dmda_speedup", format!("{gated:.2}")),
    ];
    let rendered: Vec<(String, String)> = cells
        .iter()
        .flat_map(|&(name, naive, replay)| {
            [
                (format!("{name}_naive_iters_per_sec"), format!("{naive:.0}")),
                (
                    format!("{name}_replay_iters_per_sec"),
                    format!("{replay:.0}"),
                ),
                (format!("{name}_speedup"), format!("{:.2}", replay / naive)),
            ]
        })
        .collect();
    for (k, v) in &rendered {
        fields.push((k.as_str(), v.clone()));
    }
    let path = bench_json_path("replay");
    write_json_section(&path, "graph_replay", &fields).expect("write sidecar");
    println!(
        "\ngated cell dmda replay speedup: {gated:.2}x (floor {FLOOR_SPEEDUP:.2}x); wrote {}",
        path.display()
    );

    if gated < FLOOR_SPEEDUP {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/replay-artifacts");
        dump_diagnostics(&dir);
        panic!(
            "replay regression: dmda speedup {gated:.2}x is below the floor {FLOOR_SPEEDUP:.2}x \
             (diagnostics in {})",
            dir.display()
        );
    }
}
