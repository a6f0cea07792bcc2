//! End-to-end online-adaptation behaviour across runtime generations:
//! performance models calibrated on one machine state are carried (via
//! [`PerfRegistry::serialize`]) into a runtime whose device speeds have
//! changed, and the scheduler must notice.
//!
//! Two directions are covered:
//!
//! * **Slowdown** (ExecTime objective) — the GPU the models were
//!   calibrated on is now 4× slower. Drift detection must fire, decay
//!   the stale family, and surface the event through stats and the
//!   trace; with adaptation disabled no drift is ever reported.
//! * **Recovery** (Energy objective) — the models were calibrated while
//!   the GPU was throttled, and the throttle has since lifted. Energy
//!   scoring has no finish-time feedback loop (an idle device never
//!   "catches up" into the score), so placement is purely model-driven:
//!   with exploration disabled the recovered device is starved forever —
//!   the regression this test pins. Exploration must rediscover it.

use peppher_runtime::{
    AccessMode, Arch, Codelet, Objective, PerfRegistry, Runtime, RuntimeConfig, TaskBuilder,
    TraceEvent,
};
use peppher_sim::{KernelCost, MachineConfig, VTime};
use std::sync::Arc;

/// Compute-bound kernel sized so the C2050 under-saturates: GPU ≈ 11.6 µs
/// (plus ~15.7 µs PCIe fetch for a fresh operand), one Xeon core ≈ 18.3 µs.
/// A 4× throttle (≈ 46.3 µs) flips the time ordering.
const FLOPS_EXEC: f64 = 40_960.0;
/// Saturating kernel for the energy test: GPU ≈ 12 µs × 238 W ≈ 2.9 mJ,
/// one Xeon core ≈ 462 µs × 20 W ≈ 9.2 mJ — the GPU wins on energy, but a
/// 4× throttle (≈ 48 µs ≈ 11.5 mJ) flips the ordering, and the gap is
/// wide enough that a handful of explored samples flips it back.
const FLOPS_ENERGY: f64 = 1_040_000.0;
const WAVE: usize = 5;
const WAVES: usize = 40;

fn kernel() -> Arc<Codelet> {
    let mut c = Codelet::new("adapt_k");
    for a in [Arch::Cpu, Arch::Gpu] {
        c = c.with_impl(a, |_| {});
    }
    Arc::new(c)
}

fn healthy_machine() -> MachineConfig {
    MachineConfig::c2050_platform(2).without_noise()
}

/// Same platform with the single GPU (accelerator 0 = worker 2) running
/// 4× slower from the first virtual instant.
fn throttled_machine() -> MachineConfig {
    healthy_machine().throttle_device(0, VTime::ZERO, 4.0)
}

fn frozen_config(objective: Objective) -> RuntimeConfig {
    RuntimeConfig {
        objective,
        explore_epsilon: 0.0,
        drift_detection: false,
        ..RuntimeConfig::default()
    }
}

/// One wave of independent tasks over fresh host-resident operands, so
/// placement is decided by the models, not by where yesterday's operands
/// happen to be resident.
fn submit_wave(rt: &Runtime, c: &Arc<Codelet>, flops: f64) {
    for _ in 0..WAVE {
        let h = rt.register(vec![0.0f64; 512]);
        TaskBuilder::new(c)
            .access(&h, AccessMode::ReadWrite)
            .cost(KernelCost::new(flops, 4096.0, 4096.0))
            .submit(rt);
    }
    rt.wait_all();
}

struct Drive {
    makespan: VTime,
    gpu_tasks: u64,
    drifts: u64,
}

fn drive(rt: &Runtime, waves: usize, flops: f64) -> Drive {
    let c = kernel();
    for _ in 0..waves {
        submit_wave(rt, &c, flops);
    }
    let makespan = rt.sync_virtual_clocks();
    let stats = rt.stats();
    let gpu_worker = rt.machine().cpu_workers; // first accelerator worker
    Drive {
        makespan,
        gpu_tasks: stats.tasks_per_worker[gpu_worker],
        drifts: stats.model_drifts,
    }
}

/// Calibrates models on `machine` and returns the serialized registry.
fn calibrate_on(machine: MachineConfig, objective: Objective, flops: f64) -> String {
    let rt = Runtime::with_config(
        machine,
        RuntimeConfig {
            objective,
            ..RuntimeConfig::default()
        },
    );
    drive(&rt, 40, flops);
    let text = rt.perf().serialize();
    rt.shutdown();
    text
}

/// Starts a runtime on `machine` with models seeded from `seed` and a
/// short freshness half-life so staleness shows up within one test run.
fn seeded_runtime(machine: MachineConfig, config: RuntimeConfig, seed: &str) -> Runtime {
    let perf = Arc::new(
        PerfRegistry::new(config.calibration_min)
            .with_drift_detection(config.drift_detection)
            .with_freshness_half_life(8),
    );
    perf.deserialize(seed).expect("seed models parse");
    Runtime::with_shared_perf(machine, config, perf)
}

#[test]
fn gpu_slowdown_triggers_drift_and_replacement() {
    let seed = calibrate_on(healthy_machine(), Objective::ExecTime, FLOPS_EXEC);

    let adaptive_cfg = RuntimeConfig {
        enable_trace: true,
        ..RuntimeConfig::default()
    };
    let rt = seeded_runtime(throttled_machine(), adaptive_cfg, &seed);
    let adaptive = drive(&rt, WAVES, FLOPS_EXEC);
    let traced_drifts = rt
        .trace()
        .iter()
        .filter(|e| matches!(e, TraceEvent::ModelDrift { .. }))
        .count() as u64;
    let stats = rt.stats();
    rt.shutdown();

    let rt = seeded_runtime(
        throttled_machine(),
        frozen_config(Objective::ExecTime),
        &seed,
    );
    let frozen = drive(&rt, WAVES, FLOPS_EXEC);
    rt.shutdown();

    assert!(
        adaptive.drifts >= 1,
        "a sustained 4x slowdown must raise a drift event"
    );
    assert_eq!(
        traced_drifts, adaptive.drifts,
        "every drift shows up as a ModelDrift trace event"
    );
    assert!(
        stats.perf_keys >= 2 && stats.perf_keys_calibrated <= stats.perf_keys,
        "stats must expose the model census ({} keys, {} calibrated)",
        stats.perf_keys,
        stats.perf_keys_calibrated
    );
    assert_eq!(frozen.drifts, 0, "drift detection off never reports drift");
    // Under ExecTime scoring the worker-clock feedback bounds how wrong a
    // stale model can steer placement (an idle worker's standing clock
    // eventually wins any finish-time race), so the frozen run degrades
    // softly and the two makespans land within noise of each other. The
    // property worth pinning is that adaptation — drift decay plus the
    // recalibration traffic it triggers — costs at most a few percent
    // here; the case where frozen *cannot* self-correct is the energy
    // test below, and the hard makespan gate lives in the `adapt_drift`
    // bench where frozen replay really is pinned.
    assert!(
        adaptive.makespan.as_secs_f64() <= 1.05 * frozen.makespan.as_secs_f64(),
        "drift-aware run must stay within 5% of the stale-model run: {:?} vs {:?}",
        adaptive.makespan,
        frozen.makespan
    );
}

#[test]
fn recovered_gpu_is_rediscovered_only_with_exploration() {
    // Models learned while the GPU was throttled say the GPU costs more
    // energy per task than a CPU core, so energy-objective placement —
    // which has no queue/clock feedback — never lands there on its own.
    let seed = calibrate_on(throttled_machine(), Objective::Energy, FLOPS_ENERGY);

    let exploring = RuntimeConfig {
        objective: Objective::Energy,
        explore_epsilon: 0.1,
        ..RuntimeConfig::default()
    };
    let rt = seeded_runtime(healthy_machine(), exploring, &seed);
    let explore = drive(&rt, WAVES, FLOPS_ENERGY);
    rt.shutdown();

    let rt = seeded_runtime(healthy_machine(), frozen_config(Objective::Energy), &seed);
    let frozen = drive(&rt, WAVES, FLOPS_ENERGY);
    rt.shutdown();

    // The regression: with exploration off nothing ever re-samples the
    // "expensive" device, so the stale model is permanent.
    assert_eq!(
        frozen.gpu_tasks, 0,
        "without exploration the recovered GPU is never tried again"
    );
    // No drift event is required for recovery: the stale GPU history holds
    // only a few calibration samples, so its low weight lets plain Welford
    // re-convergence absorb the surprise — drift events guard
    // *well-calibrated* histories (see the slowdown test above).
    assert!(
        explore.gpu_tasks > 50,
        "exploration must rediscover the recovered GPU (got {} tasks)",
        explore.gpu_tasks
    );
    assert!(
        explore.makespan < frozen.makespan,
        "rediscovering the 24x-faster device must shorten the run: {:?} vs {:?}",
        explore.makespan,
        frozen.makespan
    );
}
