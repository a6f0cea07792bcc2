//! Closed-loop benchmark of the PEPPHER runtime: one client thread issues
//! one op, waits for it to finish and checks its output against a
//! sequential reference, then issues the next.
//!
//! ```text
//! perfbench --workload <dag_jobs|ooc_apps|ode_replay> --seed <n>
//!           --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace
//! 1` records spans around the benchmark's calls into each layer in every
//! other [`TRACE_BLOCK`] and reports the per-layer metrics (see
//! `perfbench/README.md`). Every metric is printed with its unit; the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod counters;
mod dag;
mod maths;
mod ode;
mod ooc;
mod spans;

use counters::Counters;
use maths::{median, percentile, ratio, samples_beyond, window_figures, WindowOp, QUICK_SHARE};
use peppher_runtime::{Runtime, RuntimeStats};
use spans::{layer_totals, unattributed_share, LayerTotals, Tracer};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `peak_rss_mb` is sampled once this many timed ops have run. A fixed op
/// count keeps it a footprint figure: the runtime leaks a little per op
/// (see README.md), so a sample at the end of a time-bounded run would
/// grow with throughput.
const RSS_AT_OPS: usize = 250;
/// An op that has not finished after this long counts as failed.
const OP_DEADLINE: Duration = Duration::from_secs(5);
/// Marks an op the watchdog gave up on.
const ABANDONED: u64 = u64::MAX;
/// A traced run traces every other block of this length, so traced and
/// untraced ops interleave and drift over the run affects both alike.
/// Throughput and p50 latency are read over blocks of this length (see
/// [`maths::window_figures`]).
const TRACE_BLOCK: Duration = Duration::from_millis(250);

/// Whether time `t` since the measurement epoch falls in a traced block.
fn in_traced_block(t: Duration) -> bool {
    (t.as_nanos() / TRACE_BLOCK.as_nanos()) % 2 == 1
}

/// One workload: a runtime plus the inputs and references of its ops.
pub trait Workload: Send {
    /// The runtime the ops run on.
    fn runtime(&self) -> &Runtime;
    /// Issues one op, waits for it and checks its output. Returns the
    /// number of runtime tasks the op ran, or why its output is wrong.
    fn op(&mut self, tr: &mut Tracer) -> Result<u64, String>;
}

/// SplitMix64: the benchmark's only source of input randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut map: BTreeMap<String, String> = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            map.insert(key.to_string(), value);
        }
        let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        };
        let work_dir = match map.get("work-dir") {
            Some(d) => PathBuf::from(d),
            None => PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or("target".into()))
                .join("perfbench-work"),
        };
        Ok(Args {
            workload: get("workload")?.clone(),
            seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace,
            work_dir,
        })
    }
}

/// Builds a workload's state; set-up spans go to `tr`.
fn build(args: &Args, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "dag_jobs" => Box::new(dag::DagJobs::new(args.seed)),
        "ooc_apps" => {
            let dir = args
                .work_dir
                .join(format!("compose-{}", std::process::id()));
            tr.span("compose.compose", 0, |_| ooc::compose(&dir))?;
            Box::new(ooc::OocApps::new(args.seed))
        }
        "ode_replay" => Box::new(ode::OdeReplay::new(args.seed, tr)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Calibration warm-up ops run as part of set-up.
fn warmup_ops(workload: &str) -> usize {
    if workload == "ooc_apps" {
        4
    } else {
        32
    }
}

/// What the harness observed about one op.
#[derive(Debug, Clone, Copy, Default)]
struct OpRecord {
    /// When the harness began the op (before its bookkeeping), since the
    /// measurement epoch.
    start_ns: u64,
    /// The loop's time on the op, bookkeeping included.
    loop_ns: u64,
    /// Wall time from issue to checked result.
    latency_ns: u64,
    /// Virtual makespan the op added.
    vmakespan_ns: u64,
    /// Tasks the runtime executed for the op.
    tasks: u64,
    ok: bool,
    /// Whether the op finished at all (false after a deadline miss).
    finished: bool,
    traced: bool,
    /// The client thread that issued the op; a fresh client replaces one
    /// abandoned after a deadline miss.
    client: u32,
}

/// Runs one op between two virtual-clock barriers and checks it: its
/// output, the `tasks_executed` delta against the tasks it ran, and the
/// kernel-failure delta. A panic counts as a failed op.
fn run_op(w: &mut dyn Workload, tr: &mut Tracer, op: u64, epoch: Instant) -> OpRecord {
    let start_ns = epoch.elapsed().as_nanos() as u64;
    let traced = tr.enabled();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let v0 = w.runtime().sync_virtual_clocks();
        let s0 = w.runtime().stats();
        tr.set_op(op);
        let t0 = Instant::now();
        let result = tr.span("op", 0, |tr| w.op(tr));
        let latency = t0.elapsed();
        let v1 = w.runtime().sync_virtual_clocks();
        let s1 = w.runtime().stats();
        (result, latency, v1.saturating_sub(v0), s0, s1)
    }));
    let mut rec = OpRecord {
        start_ns,
        finished: true,
        traced,
        ..OpRecord::default()
    };
    match outcome {
        Ok((result, latency, vspan, s0, s1)) => {
            rec.latency_ns = latency.as_nanos() as u64;
            rec.vmakespan_ns = vspan.as_nanos();
            rec.tasks = s1.tasks_executed - s0.tasks_executed;
            let failures = s1.kernel_failures - s0.kernel_failures;
            match result {
                Ok(expected) if expected == rec.tasks && failures == 0 => rec.ok = true,
                Ok(expected) => eprintln!(
                    "perfbench: op {op}: ran {} tasks, expected {expected}; {failures} kernel failures",
                    rec.tasks
                ),
                Err(msg) => eprintln!("perfbench: op {op}: {msg}"),
            }
        }
        Err(_) => eprintln!("perfbench: op {op} panicked"),
    }
    rec.loop_ns = epoch.elapsed().as_nanos() as u64 - start_ns;
    rec
}

/// State the client thread shares with the watchdog.
struct Shared {
    /// Start of the op in flight (ns since the epoch, plus one), 0 when
    /// idle, [`ABANDONED`] once the watchdog gave up on it.
    in_flight: AtomicU64,
    records: Mutex<Vec<OpRecord>>,
    /// `VmHWM` in MiB once the phase has issued [`Budget::ops`] ops.
    rss_mib: Mutex<Option<f64>>,
}

/// When a phase of the loop ends: once `until` (since the phase began)
/// has passed and at least `ops` ops have been issued. Ops issued after
/// `until` are verified but neither timed nor traced.
#[derive(Debug, Clone, Copy)]
struct Budget {
    until: Duration,
    ops: usize,
}

/// What a client hands back when its phase ends normally.
struct ClientEnd {
    /// The workload, for the next phase.
    w: Box<dyn Workload>,
    /// Which client this was; its tracer and counters cover only its own
    /// ops.
    client: u32,
    tracer: Tracer,
    /// Counter deltas summed over the traced blocks.
    traced: Counters,
    /// Statistics at the end of the run, for the gauges.
    last: RuntimeStats,
}

/// The closed loop: ops back to back until `budget` is spent. With
/// `trace`, every other [`TRACE_BLOCK`] is traced. Returns `None` if the
/// watchdog abandoned it.
fn client(
    mut w: Box<dyn Workload>,
    shared: Arc<Shared>,
    epoch: Instant,
    trace: bool,
    budget: Budget,
    id: u32,
    mut op: u64,
) -> Option<ClientEnd> {
    let mut tr = Tracer::new();
    let mut traced = Counters::default();
    let mut block_start = None;
    let mut issued = shared.records.lock().expect("records lock poisoned").len();
    loop {
        let now = epoch.elapsed();
        let timed = now < budget.until;
        let tracing = trace && timed && in_traced_block(now);
        if tracing != tr.enabled() {
            let snap = Counters::of(&w.runtime().stats());
            match block_start.take() {
                Some(start) => traced.add_window(&start, &snap),
                None => block_start = Some(snap),
            }
            tr.set_enabled(tracing);
        }
        if !timed && issued >= budget.ops {
            break;
        }
        let mark = now.as_nanos() as u64 + 1;
        shared.in_flight.store(mark, Ordering::SeqCst);
        let rec = run_op(&mut *w, &mut tr, op, epoch);
        if shared
            .in_flight
            .compare_exchange(mark, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return None;
        }
        let mut records = shared.records.lock().expect("records lock poisoned");
        records.push(OpRecord { client: id, ..rec });
        issued = records.len();
        drop(records);
        let mut rss = shared.rss_mib.lock().expect("rss lock poisoned");
        if issued >= budget.ops && rss.is_none() {
            *rss = peak_rss_mb().ok();
        }
        drop(rss);
        op += 1;
    }
    Some(ClientEnd {
        client: id,
        tracer: tr,
        traced,
        last: w.runtime().stats(),
        w,
    })
}

/// The ops of one phase and the client that ended it.
struct Phase {
    records: Vec<OpRecord>,
    end: ClientEnd,
    rss_mib: Option<f64>,
}

/// Runs one phase of the loop under a watchdog. An op that misses
/// [`OP_DEADLINE`] is recorded as failed; its client thread and runtime
/// are abandoned and a freshly built workload serves the rest of the
/// phase.
fn measure(
    args: &Args,
    w: Box<dyn Workload>,
    first_op: u64,
    budget: Budget,
    trace: bool,
) -> Result<Phase, String> {
    let shared = Arc::new(Shared {
        in_flight: AtomicU64::new(0),
        records: Mutex::new(Vec::new()),
        rss_mib: Mutex::new(None),
    });
    let epoch = Instant::now();
    // A client sends its id as it returns, so the phase (and a set-up's
    // time) ends then rather than at the watchdog's next tick.
    let (done_tx, done_rx) = std::sync::mpsc::channel::<u32>();
    let spawn = |w: Box<dyn Workload>, id: u32, op: u64| {
        let shared = Arc::clone(&shared);
        let done_tx = done_tx.clone();
        std::thread::Builder::new()
            .name("perfbench-client".into())
            .spawn(move || {
                let end = client(w, shared, epoch, trace, budget, id, op);
                let _ = done_tx.send(id);
                end
            })
            .map_err(|e| format!("spawning the client: {e}"))
    };
    let mut id = 0;
    let mut handle = spawn(w, id, first_op)?;
    loop {
        // A client that panicked sends nothing but has finished.
        let finished = match done_rx.recv_timeout(Duration::from_millis(10)) {
            Ok(done) => done == id,
            Err(_) => handle.is_finished(),
        };
        if finished {
            // Only the current client can end its phase; an abandoned one
            // has been replaced before it could return.
            let end = handle
                .join()
                .map_err(|_| "client thread panicked".to_string())?
                .ok_or("the last client was abandoned")?;
            let records =
                std::mem::take(&mut *shared.records.lock().expect("records lock poisoned"));
            let rss_mib = *shared.rss_mib.lock().expect("rss lock poisoned");
            return Ok(Phase {
                records,
                end,
                rss_mib,
            });
        }
        let mark = shared.in_flight.load(Ordering::SeqCst);
        if mark == 0 || mark == ABANDONED {
            continue;
        }
        let now = epoch.elapsed().as_nanos() as u64 + 1;
        if now.saturating_sub(mark) < OP_DEADLINE.as_nanos() as u64 {
            continue;
        }
        if shared
            .in_flight
            .compare_exchange(mark, ABANDONED, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            continue;
        }
        let mut records = shared.records.lock().expect("records lock poisoned");
        eprintln!(
            "perfbench: op {} missed its {OP_DEADLINE:?} deadline; moving on with a fresh runtime",
            first_op + records.len() as u64
        );
        let started = Duration::from_nanos(mark - 1);
        records.push(OpRecord {
            start_ns: mark - 1,
            traced: trace && started < budget.until && in_traced_block(started),
            client: id,
            ..OpRecord::default()
        });
        let next_op = first_op + records.len() as u64;
        drop(records);
        let w = build(args, &mut Tracer::new())?;
        shared.in_flight.store(0, Ordering::SeqCst);
        // The stuck thread is detached, not joined: it may never return.
        id += 1;
        handle = spawn(w, id, next_op)?;
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Metrics in print order: name → (value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Throughput and latency over the finished ops in `recs`.
struct LoopFigures {
    ops: usize,
    ops_per_s: f64,
    tasks_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    vmakespan_us: f64,
}

fn loop_figures(recs: &[&OpRecord]) -> LoopFigures {
    let done: Vec<&OpRecord> = recs.iter().copied().filter(|r| r.finished).collect();
    let ops: Vec<WindowOp> = done
        .iter()
        .map(|r| WindowOp {
            start: r.start_ns,
            took: r.loop_ns,
            tasks: r.tasks,
            latency: r.latency_ns,
        })
        .collect();
    let (ops_per_s, tasks_per_s, p50_ns) =
        window_figures(&ops, TRACE_BLOCK.as_nanos() as u64, QUICK_SHARE);
    let lat: Vec<f64> = done.iter().map(|r| r.latency_ns as f64 / 1e3).collect();
    let vm: f64 = done.iter().map(|r| r.vmakespan_ns as f64 / 1e3).sum();
    LoopFigures {
        ops: done.len(),
        ops_per_s,
        tasks_per_s,
        p50_us: p50_ns / 1e3,
        p99_us: percentile(&lat, 99.0),
        vmakespan_us: ratio(vm, done.len() as f64),
    }
}

/// Mean self time per span of `name`, in `unit_ns` units.
fn mean_self(totals: &BTreeMap<&'static str, LayerTotals>, name: &str, unit_ns: f64) -> f64 {
    totals
        .get(name)
        .map_or(0.0, |t| ratio(t.self_ns as f64, t.count as f64) / unit_ns)
}

/// The per-layer metrics of a traced run: span self times and counter
/// deltas over the traced ops, set-up spans over the set-ups.
fn layer_metrics(
    recs: &[OpRecord],
    end: &ClientEnd,
    setup_layers: &BTreeMap<&'static str, Vec<f64>>,
) -> Metrics {
    let untraced: Vec<&OpRecord> = recs.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&OpRecord> = recs.iter().filter(|r| r.traced).collect();
    let (a, b) = (loop_figures(&untraced), loop_figures(&traced));
    let all: Vec<&OpRecord> = recs.iter().collect();
    let failed = traced.iter().filter(|r| !r.ok).count();
    // Spans and counter deltas come from the client that ended the run,
    // so per-op figures divide by that client's finished traced ops.
    let own: Vec<&OpRecord> = traced
        .iter()
        .copied()
        .filter(|r| r.client == end.client && r.finished)
        .collect();
    let ops = own.len() as f64;
    let vm_ns: u64 = own.iter().map(|r| r.vmakespan_ns).sum();
    let spans = end.tracer.spans();
    let t = layer_totals(spans);
    let per = |name: &str| t.get(name).copied().unwrap_or_default();
    let submit = [per("task.submit"), per("task.submit_batch")];
    let submit_ns: u64 = submit.iter().map(|x| x.self_ns).sum();
    let submit_items: u64 = submit.iter().map(|x| x.items).sum();
    let setup = |name: &str| setup_layers.get(name).map_or(0.0, |v| median(v));

    let c = &end.traced;
    let per_op = |v: u64| ratio(v as f64, ops);
    let busy: u64 = c.busy_ns.iter().sum();
    let per_worker: Vec<f64> = c.tasks_per_worker.iter().map(|&n| n as f64).collect();
    let mean_tasks = ratio(per_worker.iter().sum(), per_worker.len() as f64);
    let max_tasks = per_worker.iter().copied().fold(0.0, f64::max);
    let allocs = c.cache_hits + c.cache_misses;
    let last = &end.last;
    // Device nodes when there are any, else main memory.
    let high_water = last.mem_high_water.iter().skip(1).copied().max();
    let high_water = high_water
        .or(last.mem_high_water.first().copied())
        .unwrap_or(0);

    vec![
        ("compose.compose_ms", setup("compose.compose") / 1e6, "ms"),
        (
            "graph.instantiate_ms",
            setup("graph.instantiate") / 1e6,
            "ms",
        ),
        (
            "core.call_submit_us",
            mean_self(&t, "core.call_submit", 1e3),
            "us",
        ),
        (
            "containers.partition_us",
            mean_self(&t, "containers.partition", 1e3),
            "us",
        ),
        (
            "containers.scatter_us",
            mean_self(&t, "containers.scatter", 1e3),
            "us",
        ),
        (
            "containers.gather_us",
            mean_self(&t, "containers.gather", 1e3),
            "us",
        ),
        (
            "task.submit_ns_per_task",
            ratio(submit_ns as f64, submit_items as f64),
            "ns",
        ),
        ("job.wait_us", mean_self(&t, "job.wait", 1e3), "us"),
        (
            "runtime.register_us",
            mean_self(&t, "runtime.register", 1e3),
            "us",
        ),
        (
            "runtime.unregister_us",
            mean_self(&t, "runtime.unregister", 1e3),
            "us",
        ),
        ("graph.bind_us", mean_self(&t, "graph.bind", 1e3), "us"),
        (
            "graph.execute_us",
            mean_self(&t, "graph.execute", 1e3),
            "us",
        ),
        ("graph.read_us", mean_self(&t, "graph.read", 1e3), "us"),
        ("op_latency_p99_us", loop_figures(&all).p99_us, "us"),
        ("vmakespan_per_op_us", b.vmakespan_us, "us"),
        ("sched.pop_ns", ratio(c.pop_ns as f64, c.pops as f64), "ns"),
        (
            "sched.pops_per_task",
            ratio(c.pops as f64, c.tasks as f64),
            "ratio",
        ),
        ("sched.steals", per_op(c.steals), "1/op"),
        ("sched.reorders", per_op(c.reorders), "1/op"),
        (
            "sched.max_queue_depth",
            last.max_queue_depth as f64,
            "count",
        ),
        (
            "worker.busy_share",
            ratio(busy as f64, (c.busy_ns.len() as u64 * vm_ns) as f64),
            "ratio",
        ),
        (
            "worker.task_imbalance",
            ratio(max_tasks, mean_tasks),
            "ratio",
        ),
        (
            "coherence.host_link_bytes_per_op",
            per_op(c.host_link_bytes),
            "B",
        ),
        ("coherence.d2d_bytes_per_op", per_op(c.d2d_bytes), "B"),
        ("coherence.transfers_per_op", per_op(c.transfers), "1/op"),
        ("coherence.transfer_joins", per_op(c.transfer_joins), "1/op"),
        ("memory.evictions_per_op", per_op(c.evictions), "1/op"),
        (
            "memory.writeback_bytes_per_op",
            per_op(c.writeback_bytes),
            "B",
        ),
        (
            "memory.alloc_cache_hit_rate",
            ratio(c.cache_hits as f64, allocs as f64),
            "ratio",
        ),
        ("memory.device_allocs_per_op", per_op(allocs), "1/op"),
        ("memory.high_water_bytes", high_water as f64, "B"),
        (
            "perfmodel.calibrated_share",
            ratio(last.perf_keys_calibrated as f64, last.perf_keys as f64),
            "ratio",
        ),
        (
            "perfmodel.exploring_keys",
            last.perf_keys_exploring as f64,
            "count",
        ),
        ("perfmodel.drifts", per_op(c.drifts), "1/op"),
        ("stats.kernel_failures", c.kernel_failures as f64, "count"),
        (
            "failed_op_ratio",
            ratio(failed as f64, traced.len() as f64),
            "ratio",
        ),
        (
            "trace.unattributed_share",
            unattributed_share(spans),
            "ratio",
        ),
        (
            "trace.ops_per_s_ratio",
            ratio(b.ops_per_s, a.ops_per_s),
            "ratio",
        ),
    ]
}

fn write_spans(path: &Path, tr: &Tracer) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    tr.write_tsv(&mut std::io::BufWriter::new(file))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    let mut verified: Vec<OpRecord> = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut state = None;
    let mut op = 0u64;
    for _ in 0..SETUPS {
        // The previous set-up's runtime shuts down before the next starts.
        drop(state.take());
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        let t0 = Instant::now();
        let w = build(args, &mut tr)?;
        let warm = Budget {
            until: Duration::ZERO,
            ops: warmup_ops(&args.workload),
        };
        let phase = measure(args, w, op, warm, false)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        op += phase.records.len() as u64;
        verified.extend(phase.records);
        for (name, totals) in layer_totals(tr.spans()) {
            setup_layers
                .entry(name)
                .or_default()
                .push(totals.total_ns as f64);
        }
        state = Some(phase.end.w);
    }
    let w = state.ok_or("no set-up ran")?;
    let until = Duration::from_secs_f64(args.seconds);
    let budget = Budget {
        until,
        ops: RSS_AT_OPS,
    };
    let Phase {
        records,
        end,
        rss_mib,
    } = measure(args, w, op, budget, args.trace)?;
    verified.extend(records.iter().copied());
    let failed = verified.iter().filter(|r| !r.ok).count();
    let records: Vec<OpRecord> = records
        .into_iter()
        .filter(|r| r.start_ns < until.as_nanos() as u64)
        .collect();

    let metrics: Metrics = if args.trace {
        let path = args
            .work_dir
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        write_spans(&path, &end.tracer)?;
        println!(
            "spans: {} written to {}",
            end.tracer.spans().len(),
            path.display()
        );
        layer_metrics(&records, &end, &setup_layers)
    } else {
        let all: Vec<&OpRecord> = records.iter().collect();
        let f = loop_figures(&all);
        println!(
            "{}: {} timed ops; p99 latency {:.1} us rests on {} samples above it",
            args.workload,
            f.ops,
            f.p99_us,
            samples_beyond(f.ops, 99.0)
        );
        vec![
            ("ops_per_s", f.ops_per_s, "1/s"),
            ("tasks_per_s", f.tasks_per_s, "1/s"),
            ("op_latency_p50_us", f.p50_us, "us"),
            ("setup_s", median(&setup_s), "s"),
            (
                "peak_rss_mb",
                rss_mib.ok_or("no VmHWM sample was taken")?,
                "MiB",
            ),
        ]
    };

    println!(
        "{}: {} ops verified against sequential references, {} failed",
        args.workload,
        verified.len(),
        failed
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        verified.len(),
        failed,
        body.join(", ")
    );
    Ok(())
}

fn main() {
    let code = match Args::parse().and_then(|args| run(&args)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    let _ = std::io::stdout().flush();
    // Exit without joining: a client abandoned after a deadline miss may
    // still be blocked inside the runtime.
    std::process::exit(code);
}
