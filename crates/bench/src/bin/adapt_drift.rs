//! Drift recovery: how fast the runtime re-converges after a device
//! silently slows down mid-run — the failure mode the online-adaptation
//! layer (drift detection + placement thaw) exists for.
//!
//! A persistent graph of independent per-slot kernels is replayed on a
//! one-CPU/one-GPU platform whose GPU is throttled 4× at a fixed virtual
//! instant. Three variants run the same two-phase protocol (a long first
//! phase that contains the throttle event and any adaptation transient,
//! then a measured steady-state phase):
//!
//! * **adaptive** — the default configuration: drift detection decays the
//!   stale GPU history, which thaws the instance's frozen
//!   `StaticPlacement`; the graph re-calibrates, re-places CPU-heavy, and
//!   re-freezes.
//! * **frozen** — drift detection and exploration off: the placement
//!   frozen while the GPU was fast is replayed forever, so every
//!   iteration keeps paying the 4× GPU lane. This is exactly the
//!   regression the gate pins: without adaptation, replay never
//!   re-converges.
//! * **oracle** — the GPU is throttled from the first virtual instant, so
//!   the models never believe anything stale: the best steady state any
//!   online policy could reach.
//!
//! Run: `cargo run --release -p peppher-bench --bin adapt_drift`
//!
//! Emits the `adapt_drift` section of `target/BENCH_adapt.json`:
//! post-throttle per-iteration time for each variant plus the two gated
//! ratios. The run fails if `adaptive` exceeds 1.15× oracle or `frozen`
//! drops below 1.5× oracle; on failure a traced gantt of the adaptive
//! transition is dumped to `target/adapt-artifacts/` for CI upload.

use peppher_bench::{bench_json_path, write_json_section, TextTable};
use peppher_runtime::{
    gantt, AccessMode, Arch, Codelet, GraphTask, KernelCtx, Runtime, RuntimeConfig, TaskGraph,
};
use peppher_sim::{KernelCost, MachineConfig, VTime};
use std::path::Path;
use std::sync::Arc;

/// Independent tasks (and slots) per iteration.
const WIDTH: usize = 8;
/// Sized so the healthy C2050 beats a Xeon core (≈ 11.6 µs vs ≈ 18.3 µs)
/// and the placement goes GPU-heavy, while the 4× throttle (≈ 46.3 µs)
/// makes every stale GPU assignment a 2.5× per-task regression.
const FLOPS: f64 = 40_960.0;
const BYTES: f64 = 4_096.0;
/// First phase: healthy calibration + freeze, the throttle event, and —
/// for the adaptive variant — the drift/thaw/re-freeze transient.
const SETTLE_ITERS: u32 = 80;
/// Second phase: the measured post-throttle steady state.
const MEASURE_ITERS: u32 = 80;
/// Virtual instant the GPU drops to quarter speed — inside the settle
/// phase (healthy iterations run ≈ 60 µs each).
const THROTTLE_AT: VTime = VTime::from_micros(1_000);
const THROTTLE_FACTOR: f64 = 4.0;

/// `adaptive` steady state must stay within this factor of `oracle`.
const MAX_ADAPTIVE_RATIO: f64 = 1.15;
/// `frozen` steady state must stay at least this much worse than
/// `oracle` — otherwise the gate is not measuring anything.
const MIN_FROZEN_RATIO: f64 = 1.5;

fn empty_kernel(_ctx: &mut KernelCtx<'_>) {}

fn graph() -> TaskGraph {
    let cl = Arc::new(
        Codelet::new("adapt_drift_k")
            .with_impl(Arch::Cpu, empty_kernel)
            .with_impl(Arch::Gpu, empty_kernel),
    );
    let mut g = TaskGraph::new();
    for _ in 0..WIDTH {
        let s = g.slot(vec![0.0f64; 512]);
        g.add(
            GraphTask::new(&cl)
                .cost(KernelCost::new(FLOPS, BYTES, BYTES))
                .access(s, AccessMode::ReadWrite),
        );
    }
    g
}

/// One CPU worker plus the C2050, no noise: the GPU-vs-CPU trade is
/// decided purely by the models and the throttle.
fn healthy() -> MachineConfig {
    MachineConfig::c2050_platform(1).without_noise()
}

/// (post-throttle ns/iteration, drift events) for one variant.
fn run(machine: MachineConfig, config: RuntimeConfig) -> (f64, u64) {
    let rt = Runtime::with_config(machine, config);
    let inst = graph().instantiate(&rt);
    inst.execute_many(SETTLE_ITERS);
    let t1 = rt.sync_virtual_clocks();
    inst.execute_many(MEASURE_ITERS);
    let t2 = rt.sync_virtual_clocks();
    let drifts = rt.stats().model_drifts;
    rt.shutdown();
    ((t2 - t1).as_secs_f64() * 1e9 / MEASURE_ITERS as f64, drifts)
}

fn frozen_config() -> RuntimeConfig {
    RuntimeConfig {
        explore_epsilon: 0.0,
        drift_detection: false,
        ..RuntimeConfig::default()
    }
}

/// Re-runs the adaptive variant with tracing on and dumps a gantt of the
/// iterations around the throttle instant for postmortem.
fn dump_diagnostics(dir: &Path) {
    let _ = std::fs::create_dir_all(dir);
    let rt = Runtime::with_config(
        healthy().throttle_device(0, THROTTLE_AT, THROTTLE_FACTOR),
        RuntimeConfig {
            enable_trace: true,
            ..RuntimeConfig::default()
        },
    );
    let inst = graph().instantiate(&rt);
    inst.execute_many(SETTLE_ITERS);
    let trace = rt.trace();
    let chart = gantt(&trace, rt.machine().total_workers(), 120);
    let _ = std::fs::write(
        dir.join("adapt_gantt.txt"),
        format!(
            "{SETTLE_ITERS} traced adaptive iterations (GPU throttled {THROTTLE_FACTOR}x \
             at {THROTTLE_AT:?}), dmda:\n\n{chart}"
        ),
    );
    rt.shutdown();
}

fn main() {
    println!(
        "drift recovery ({WIDTH} independent tasks/iter, 1 CPU + 1 GPU, GPU \
         throttled {THROTTLE_FACTOR}x at {THROTTLE_AT:?};\n\
         {SETTLE_ITERS} settle + {MEASURE_ITERS} measured iterations):\n"
    );

    let throttled_later = || healthy().throttle_device(0, THROTTLE_AT, THROTTLE_FACTOR);
    let (adaptive_ns, adaptive_drifts) = run(throttled_later(), RuntimeConfig::default());
    let (frozen_ns, _) = run(throttled_later(), frozen_config());
    let (oracle_ns, _) = run(
        healthy().throttle_device(0, VTime::ZERO, THROTTLE_FACTOR),
        RuntimeConfig::default(),
    );

    let adaptive_ratio = adaptive_ns / oracle_ns;
    let frozen_ratio = frozen_ns / oracle_ns;

    let mut table = TextTable::new(&["variant", "ns/iter (post-throttle)", "vs oracle"]);
    for (name, ns) in [
        ("oracle", oracle_ns),
        ("adaptive", adaptive_ns),
        ("frozen", frozen_ns),
    ] {
        table.row(&[
            name.into(),
            format!("{ns:.0}"),
            format!("{:.2}x", ns / oracle_ns),
        ]);
    }
    print!("{}", table.render());
    println!("\nadaptive drift events: {adaptive_drifts}");

    let fields: Vec<(&str, String)> = vec![
        ("width", WIDTH.to_string()),
        ("settle_iters", SETTLE_ITERS.to_string()),
        ("measure_iters", MEASURE_ITERS.to_string()),
        ("throttle_factor", format!("{THROTTLE_FACTOR}")),
        ("oracle_ns_per_iter", format!("{oracle_ns:.0}")),
        ("adaptive_ns_per_iter", format!("{adaptive_ns:.0}")),
        ("frozen_ns_per_iter", format!("{frozen_ns:.0}")),
        ("adaptive_vs_oracle", format!("{adaptive_ratio:.3}")),
        ("frozen_vs_oracle", format!("{frozen_ratio:.3}")),
        ("adaptive_drift_events", adaptive_drifts.to_string()),
        ("max_adaptive_ratio", format!("{MAX_ADAPTIVE_RATIO:.2}")),
        ("min_frozen_ratio", format!("{MIN_FROZEN_RATIO:.2}")),
    ];
    let path = bench_json_path("adapt");
    write_json_section(&path, "adapt_drift", &fields).expect("write sidecar");
    println!(
        "gated: adaptive {adaptive_ratio:.2}x oracle (max {MAX_ADAPTIVE_RATIO:.2}x), \
         frozen {frozen_ratio:.2}x oracle (min {MIN_FROZEN_RATIO:.2}x); wrote {}",
        path.display()
    );

    let mut failures = Vec::new();
    if adaptive_drifts == 0 {
        failures.push("the throttle raised no drift event in the adaptive run".to_string());
    }
    if adaptive_ratio > MAX_ADAPTIVE_RATIO {
        failures.push(format!(
            "adaptation regression: adaptive steady state is {adaptive_ratio:.2}x oracle \
             (max {MAX_ADAPTIVE_RATIO:.2}x)"
        ));
    }
    if frozen_ratio < MIN_FROZEN_RATIO {
        failures.push(format!(
            "gate not measuring: frozen steady state is only {frozen_ratio:.2}x oracle \
             (min {MIN_FROZEN_RATIO:.2}x) — the stale placement should stay pinned to the slow GPU"
        ));
    }
    if !failures.is_empty() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/adapt-artifacts");
        dump_diagnostics(&dir);
        panic!("{} (diagnostics in {})", failures.join("; "), dir.display());
    }
}
