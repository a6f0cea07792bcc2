//! The libsolve Runge–Kutta ODE solver through the PEPPHER framework
//! (the paper's Fig. 7 application): nine components with tight data
//! dependencies, executed almost sequentially — the interesting part is
//! that the framework overhead stays negligible while smart containers
//! keep the state resident on the device across thousands of invocations.
//!
//! By default the step loop runs through the **graph-replay** API: the
//! double RK4 step is recorded once as a `TaskGraph` and replayed with
//! `execute_many`, so the steady-state loop pays no per-task allocation,
//! no dependency discovery and (once frozen) no placement search. Pass
//! `--no-replay` for the original composition-tool path that resubmits
//! every component invocation.
//!
//! Run with: `cargo run --release --example ode_pipeline [-- --no-replay]`

use peppher::apps::odesolver;
use peppher::prelude::*;
use peppher::runtime::{gantt, JobConfig, Runtime, RuntimeConfig};

fn main() {
    let no_replay = std::env::args().any(|a| a == "--no-replay");
    if no_replay {
        run_naive();
    } else {
        run_replayed();
    }
}

/// The replay port: record the double step once, execute it `steps / 2`
/// times. A short traced replay shows each iteration as its own gantt
/// lane (`w4#1.0`, `w4#1.1`, …: worker 4, instance 1, iterations 0, 1…).
fn run_replayed() {
    let edge = 60; // 60x60 Brusselator grid → 7200 unknowns
    let steps = 120;

    let rt = Runtime::with_config(
        MachineConfig::c2050_platform(4),
        RuntimeConfig {
            scheduler: SchedulerKind::Dmda,
            ..RuntimeConfig::default()
        },
    );
    let state = odesolver::run_replay(&rt, edge, steps, false);
    let stats = rt.stats();
    println!("replayed double step: {} iterations", steps / 2);
    println!("tasks executed:     {}", stats.tasks_executed);
    println!("virtual makespan:   {}", stats.makespan);
    println!(
        "transfers:          {} h2d / {} d2h ({:.2} MB total)",
        stats.h2d_transfers,
        stats.d2h_transfers,
        stats.total_transfer_bytes() as f64 / 1e6
    );
    println!(
        "state checksum:     {:.6}",
        state.iter().map(|v| *v as f64).sum::<f64>() / state.len() as f64
    );
    rt.shutdown();

    // The naive resubmission path computes bitwise the same trajectory.
    let rt = Runtime::new(MachineConfig::c2050_platform(4), SchedulerKind::Dmda);
    let direct = odesolver::run_direct(&rt, edge, steps, false);
    rt.shutdown();
    assert!(
        state
            .iter()
            .zip(&direct)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "replayed and naively-resubmitted trajectories must agree bitwise"
    );
    println!("replay and naive resubmission agree bitwise");

    // A short traced replay: every iteration renders as its own lane.
    let rt = Runtime::with_config(
        MachineConfig::c2050_platform(2).without_noise(),
        RuntimeConfig {
            scheduler: SchedulerKind::Dmda,
            enable_trace: true,
            ..RuntimeConfig::default()
        },
    );
    // Instantiate through a job context: its scoped wait/cancel apply to
    // every iteration.
    let job = rt.job(JobConfig::default());
    let g = odesolver::record_double_step(10, false);
    let inst = job.instantiate(&g.graph);
    inst.execute_many(3);
    println!("\n3 traced replay iterations (one lane per worker x iteration):");
    print!("{}", gantt(&rt.trace(), rt.machine().total_workers(), 72));
    for rec in inst.runs() {
        println!("  run {}: finished at {}", rec.run, rec.vfinish);
    }
    rt.shutdown();
}

/// The original composition-tool path (`--no-replay`): every component
/// invocation is resubmitted through the registry.
fn run_naive() {
    let edge = 60;
    let steps = 120;

    // Dynamic composition on the C2050-class platform.
    let rt = Runtime::with_config(
        MachineConfig::c2050_platform(4),
        RuntimeConfig {
            scheduler: SchedulerKind::Dmda,
            enable_trace: true,
            ..RuntimeConfig::default()
        },
    );
    let (state, invocations) = odesolver::run_peppherized(&rt, edge, steps, None);
    let stats = rt.stats();
    println!(
        "components invoked: {invocations} times ({} tasks executed)",
        stats.tasks_executed
    );
    println!("virtual makespan:   {}", stats.makespan);
    println!(
        "transfers:          {} h2d / {} d2h ({:.2} MB total)",
        stats.h2d_transfers,
        stats.d2h_transfers,
        stats.total_transfer_bytes() as f64 / 1e6
    );
    println!(
        "state checksum:     {:.6}",
        state.iter().map(|v| *v as f64).sum::<f64>() / state.len() as f64
    );
    // The near-sequential pipeline shape is visible in the schedule.
    print!("{}", gantt(&rt.trace()[..400.min(rt.trace().len())], 5, 72));
    rt.shutdown();

    // The same solve forced onto the GPU (user-guided static composition).
    let rt = Runtime::new(MachineConfig::c2050_platform(4), SchedulerKind::Dmda);
    let (state_gpu, _) = odesolver::run_peppherized(&rt, edge, steps, Some("cuda"));
    println!("forced-CUDA makespan: {}", rt.stats().makespan);
    rt.shutdown();

    let diff = state
        .iter()
        .zip(&state_gpu)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(
        diff < 1e-4,
        "dynamic and forced runs must agree, diff={diff}"
    );
    println!("dynamic and forced-CUDA runs agree bitwise-ish (max diff {diff:.1e})");
}
