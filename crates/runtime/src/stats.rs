//! Execution statistics and the optional event trace.

use parking_lot::Mutex;
use peppher_sim::VTime;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one execution of a recorded graph: which
/// [`crate::graph::GraphInstance`] it belongs to and which replay
/// iteration it is. Threaded through
/// [`TraceEvent::TaskStart`]/[`TraceEvent::TaskEnd`] so overlapping
/// iterations stay distinguishable in the trace and render as separate
/// [`gantt`] lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId {
    /// The graph instance the run belongs to.
    pub instance: u32,
    /// Replay iteration within the instance.
    pub iteration: u32,
}

impl RunId {
    /// Packs into one word for lock-free storage on tasks. The all-ones
    /// word is reserved as the "no run" sentinel.
    pub(crate) fn pack(self) -> u64 {
        ((self.instance as u64) << 32) | self.iteration as u64
    }

    /// Inverse of [`RunId::pack`]; `u64::MAX` decodes to `None`.
    pub(crate) fn unpack(tag: u64) -> Option<RunId> {
        (tag != u64::MAX).then_some(RunId {
            instance: (tag >> 32) as u32,
            iteration: tag as u32,
        })
    }
}

impl fmt::Display for RunId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}.{}", self.instance, self.iteration)
    }
}

/// One recorded event (enabled with [`crate::RuntimeConfig::enable_trace`]).
/// The Fig. 3 harness and several tests assert on transfer events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A task began executing.
    TaskStart {
        /// Task id.
        task: u64,
        /// Codelet name.
        codelet: String,
        /// Executing worker.
        worker: usize,
        /// Graph replay iteration, if the task belongs to one.
        run: Option<RunId>,
        /// Owning job id (0 = the implicit default job).
        job: u64,
    },
    /// A task finished.
    TaskEnd {
        /// Task id.
        task: u64,
        /// Executing worker.
        worker: usize,
        /// Codelet name.
        codelet: String,
        /// Virtual start time.
        vstart: VTime,
        /// Virtual completion time.
        vfinish: VTime,
        /// Graph replay iteration, if the task belongs to one.
        run: Option<RunId>,
        /// Owning job id (0 = the implicit default job).
        job: u64,
    },
    /// Data moved between memory nodes.
    Transfer {
        /// Data handle id.
        handle: u64,
        /// Source memory node.
        from: usize,
        /// Destination memory node.
        to: usize,
        /// Payload size.
        bytes: usize,
        /// The fabric channel the transfer occupied (route tag): h2d, d2h,
        /// or a directed peer-to-peer channel.
        channel: crate::coherence::Channel,
    },
    /// A device replica was allocated without a copy (write-only access —
    /// the paper: "just a memory allocation is made in the device memory").
    Allocate {
        /// Data handle id.
        handle: u64,
        /// Memory node.
        node: usize,
    },
    /// A replica was invalidated ("master copy ... marked outdated").
    Invalidate {
        /// Data handle id.
        handle: u64,
        /// Memory node.
        node: usize,
    },
    /// A replica was evicted from a full memory node. When `writeback` is
    /// set the victim held the sole valid copy and a device→host
    /// [`TraceEvent::Transfer`] for the same handle precedes this event.
    Evict {
        /// Data handle id.
        handle: u64,
        /// Memory node the replica was evicted from.
        node: usize,
        /// Size of the freed buffer.
        bytes: usize,
        /// Whether the contents were written back to main memory first.
        writeback: bool,
    },
    /// An idle `dmda` worker stole a task from another worker's queue.
    /// Records how many of the stolen task's read-operand bytes were
    /// already resident on the *thief's* memory node, so steal quality
    /// (affinity-aware vs. blind) is observable in traces.
    Steal {
        /// Stolen task id.
        task: u64,
        /// Worker that stole the task.
        thief: usize,
        /// Worker whose queue lost the task.
        victim: usize,
        /// Read-operand bytes of the stolen task already resident on the
        /// thief's memory node at steal time.
        resident_bytes: u64,
    },
    /// The scheduler dispatched a task ahead of FIFO order because its
    /// operands were already resident on the worker's memory node (the
    /// `dmdar` readiness reordering, or a forced aging pop).
    Reorder {
        /// Task id dispatched out of order.
        task: u64,
        /// Worker whose ready queue was reordered.
        worker: usize,
        /// Bytes of the task's read operands already resident on the
        /// worker's memory node at dispatch.
        resident_bytes: u64,
        /// Queue entries the task was dispatched ahead of.
        jumped: usize,
    },
    /// A performance-model drift detection: the recent execution times of
    /// a (codelet, arch) family diverged from its model, its histories
    /// were decayed below calibration, and frozen replay schedules were
    /// told to thaw. Makes drift episodes visible in dumped gantts.
    ModelDrift {
        /// Codelet whose model drifted.
        codelet: String,
        /// Architecture class of the drifted history (display form).
        arch: String,
        /// Worker whose sample triggered the detection.
        worker: usize,
        /// Recent-window (EWMA) execution time at detection.
        observed: VTime,
        /// Model mean the recent window diverged from.
        model: VTime,
    },
}

/// Per-worker counters, padded to a cache line so workers hammering their
/// own cell never false-share with a neighbour. Each cell has exactly one
/// writer (its worker), so plain relaxed load-add-store is race-free;
/// `snapshot` tolerates slight skew like the old locked counters did.
#[repr(align(64))]
#[derive(Debug, Default)]
struct WorkerCell {
    tasks: AtomicU64,
    busy_ns: AtomicU64,
    /// Modelled energy in millijoules, stored as `f64::to_bits`.
    energy_mj_bits: AtomicU64,
    /// Wall-clock nanoseconds this worker spent inside successful
    /// `pop_for_worker` calls — the scheduler's real decision cost, not
    /// virtual time.
    pop_ns: AtomicU64,
    /// Successful pops, the divisor for `pop_ns`.
    pops: AtomicU64,
}

impl WorkerCell {
    #[inline]
    fn add_task(&self, busy_ns: u64) {
        self.tasks
            .store(self.tasks.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.busy_ns.store(
            self.busy_ns.load(Ordering::Relaxed) + busy_ns,
            Ordering::Relaxed,
        );
    }

    #[inline]
    fn add_energy_mj(&self, mj: f64) {
        let cur = f64::from_bits(self.energy_mj_bits.load(Ordering::Relaxed));
        self.energy_mj_bits
            .store((cur + mj).to_bits(), Ordering::Relaxed);
    }

    #[inline]
    fn add_pop(&self, ns: u64) {
        self.pop_ns
            .store(self.pop_ns.load(Ordering::Relaxed) + ns, Ordering::Relaxed);
        self.pops
            .store(self.pops.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// Internal mutable collector shared by workers. Public only so scheduler
/// implementations can reach it through [`crate::sched::SchedCtx`]; all
/// recording methods stay crate-private.
#[derive(Debug, Default)]
pub struct StatsCollector {
    pub h2d_transfers: AtomicU64,
    pub d2h_transfers: AtomicU64,
    /// Direct device→device transfers over peer-to-peer links.
    pub d2d_transfers: AtomicU64,
    pub h2d_bytes: AtomicU64,
    pub d2h_bytes: AtomicU64,
    /// Bytes moved directly device→device over peer-to-peer links.
    pub d2d_bytes: AtomicU64,
    /// `make_valid` calls that joined an in-flight transfer of the same
    /// replica instead of starting a duplicate copy.
    pub transfer_joins: AtomicU64,
    /// Maximum virtual finish time observed (the makespan), in ns.
    pub makespan_ns: AtomicU64,
    /// One padded counter cell per worker (tasks, busy ns, energy).
    /// Sharded so the per-task hot path touches only its own cache line;
    /// totals are aggregated in [`StatsCollector::snapshot`].
    cells: Vec<WorkerCell>,
    pub trace: Mutex<Vec<TraceEvent>>,
    pub trace_enabled: bool,
    /// Kernels that panicked (contained by the worker).
    pub kernel_failures: AtomicU64,
    /// Replicas evicted from full memory nodes.
    pub evictions: AtomicU64,
    /// Bytes of Modified victims written back to main memory.
    pub writeback_bytes: AtomicU64,
    /// Whole block families evicted together (partition-aware policy).
    pub family_evictions: AtomicU64,
    /// Sibling replicas evicted as members of those family groups.
    pub family_eviction_members: AtomicU64,
    /// Tasks taken from another worker's ready queue.
    pub steals: AtomicU64,
    /// Sum over all steals of the stolen task's read-operand bytes already
    /// resident on the thief's memory node.
    pub steal_resident_bytes: AtomicU64,
    /// Device replica allocations (each creates a fresh buffer).
    pub device_allocs: AtomicU64,
    /// Dispatches where the scheduler popped a task ahead of FIFO order
    /// (dmdar's readiness reordering).
    pub sched_reorders: AtomicU64,
    /// Sum over all dispatches of read-operand bytes already resident on
    /// the dispatching worker's memory node.
    pub dispatch_resident_bytes: AtomicU64,
    /// Deepest per-worker ready queue observed at any pop.
    pub max_queue_depth: AtomicU64,
}

impl StatsCollector {
    pub(crate) fn new(workers: usize, trace_enabled: bool) -> Self {
        StatsCollector {
            cells: (0..workers).map(|_| WorkerCell::default()).collect(),
            trace_enabled,
            ..Default::default()
        }
    }

    /// Whether the event trace is being recorded. Inlined so hot paths can
    /// skip building [`TraceEvent`]s (and their `String` clones) entirely
    /// when tracing is off.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.trace_enabled
    }

    pub(crate) fn record_event(&self, ev: TraceEvent) {
        if self.trace_enabled {
            self.trace.lock().push(ev);
        }
    }

    pub(crate) fn record_transfer(&self, from: usize, to: usize, bytes: usize) {
        if from == 0 {
            self.h2d_transfers.fetch_add(1, Ordering::Relaxed);
            self.h2d_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        } else if to == 0 {
            self.d2h_transfers.fetch_add(1, Ordering::Relaxed);
            self.d2h_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        } else {
            self.d2d_transfers.fetch_add(1, Ordering::Relaxed);
            self.d2d_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_transfer_join(&self) {
        self.transfer_joins.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_kernel_failure(&self) {
        self.kernel_failures.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_eviction(&self, bytes: u64, writeback: bool) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        if writeback {
            self.writeback_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Records one family-at-a-time eviction of `members` sibling replicas.
    /// The per-replica [`StatsCollector::record_eviction`] calls still
    /// happen for each member; this counts the *group* decisions.
    pub(crate) fn record_family_eviction(&self, members: u64) {
        self.family_evictions.fetch_add(1, Ordering::Relaxed);
        self.family_eviction_members
            .fetch_add(members, Ordering::Relaxed);
    }

    /// Records one work steal and the thief-side resident bytes of the
    /// stolen task's read operands (steal quality).
    pub(crate) fn record_steal(&self, resident_bytes: u64) {
        self.steals.fetch_add(1, Ordering::Relaxed);
        self.steal_resident_bytes
            .fetch_add(resident_bytes, Ordering::Relaxed);
    }

    pub(crate) fn record_device_alloc(&self) {
        self.device_allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one queue-aware dispatch: the ready-queue depth it popped
    /// from, the read-operand bytes already resident on the worker's node,
    /// and whether the pop jumped ahead of FIFO order.
    pub(crate) fn record_dispatch(&self, depth: usize, resident_bytes: u64, reordered: bool) {
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
        self.dispatch_resident_bytes
            .fetch_add(resident_bytes, Ordering::Relaxed);
        if reordered {
            self.sched_reorders.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records the wall-clock cost of one successful pop (the scheduling
    /// decision) on `worker`'s cell.
    pub(crate) fn record_pop(&self, worker: usize, ns: u64) {
        self.cells[worker].add_pop(ns);
    }

    pub(crate) fn record_task(&self, worker: usize, busy: VTime, vfinish: VTime) {
        self.makespan_ns
            .fetch_max(vfinish.as_nanos(), Ordering::Relaxed);
        self.cells[worker].add_task(busy.as_nanos());
    }

    pub(crate) fn record_energy(&self, worker: usize, joules: f64) {
        self.cells[worker].add_energy_mj(joules * 1e3);
    }

    pub(crate) fn snapshot(&self) -> RuntimeStats {
        RuntimeStats {
            tasks_executed: self
                .cells
                .iter()
                .map(|c| c.tasks.load(Ordering::Relaxed))
                .sum(),
            h2d_transfers: self.h2d_transfers.load(Ordering::Relaxed),
            d2h_transfers: self.d2h_transfers.load(Ordering::Relaxed),
            d2d_transfers: self.d2d_transfers.load(Ordering::Relaxed),
            h2d_bytes: self.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: self.d2h_bytes.load(Ordering::Relaxed),
            d2d_bytes: self.d2d_bytes.load(Ordering::Relaxed),
            transfer_joins: self.transfer_joins.load(Ordering::Relaxed),
            makespan: VTime::from_nanos(self.makespan_ns.load(Ordering::Relaxed)),
            busy: self
                .cells
                .iter()
                .map(|c| VTime::from_nanos(c.busy_ns.load(Ordering::Relaxed)))
                .collect(),
            tasks_per_worker: self
                .cells
                .iter()
                .map(|c| c.tasks.load(Ordering::Relaxed))
                .collect(),
            kernel_failures: self.kernel_failures.load(Ordering::Relaxed),
            energy_joules: self
                .cells
                .iter()
                .map(|c| f64::from_bits(c.energy_mj_bits.load(Ordering::Relaxed)) / 1e3)
                .collect(),
            evictions: self.evictions.load(Ordering::Relaxed),
            writeback_bytes: self.writeback_bytes.load(Ordering::Relaxed),
            family_evictions: self.family_evictions.load(Ordering::Relaxed),
            family_eviction_members: self.family_eviction_members.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            steal_resident_bytes: self.steal_resident_bytes.load(Ordering::Relaxed),
            alloc_cache_hits: 0,
            alloc_cache_misses: self.device_allocs.load(Ordering::Relaxed),
            sched_reorders: self.sched_reorders.load(Ordering::Relaxed),
            dispatch_resident_bytes: self.dispatch_resident_bytes.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            sched_pop_ns: self
                .cells
                .iter()
                .map(|c| c.pop_ns.load(Ordering::Relaxed))
                .sum(),
            sched_pops: self
                .cells
                .iter()
                .map(|c| c.pops.load(Ordering::Relaxed))
                .sum(),
            // Filled in by `Runtime::stats`, which owns the MemoryManager,
            // the Topology, and the PerfRegistry.
            mem_high_water: Vec::new(),
            channel_busy: Vec::new(),
            perf_keys: 0,
            perf_keys_calibrated: 0,
            perf_keys_exploring: 0,
            model_drifts: 0,
        }
    }
}

/// A point-in-time snapshot of runtime statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Total tasks executed.
    pub tasks_executed: u64,
    /// Host→device transfer count.
    pub h2d_transfers: u64,
    /// Device→host transfer count.
    pub d2h_transfers: u64,
    /// Direct device→device transfer count (peer-to-peer links).
    pub d2d_transfers: u64,
    /// Host→device bytes moved.
    pub h2d_bytes: u64,
    /// Device→host bytes moved.
    pub d2h_bytes: u64,
    /// Bytes moved directly device→device over peer-to-peer links.
    pub d2d_bytes: u64,
    /// `make_valid` calls that joined an in-flight transfer of the same
    /// replica instead of starting a duplicate copy.
    pub transfer_joins: u64,
    /// Virtual makespan: latest task completion observed.
    pub makespan: VTime,
    /// Busy virtual time per worker.
    pub busy: Vec<VTime>,
    /// Tasks executed per worker.
    pub tasks_per_worker: Vec<u64>,
    /// Kernel bodies that panicked (contained; their tasks still
    /// completed, possibly with garbage outputs).
    pub kernel_failures: u64,
    /// Modelled energy drawn per worker, in joules.
    pub energy_joules: Vec<f64>,
    /// Replicas evicted from full memory nodes (LRU capacity pressure).
    pub evictions: u64,
    /// Bytes of Modified victims written back to main memory before their
    /// device replicas were invalidated.
    pub writeback_bytes: u64,
    /// Whole block families evicted together under
    /// [`crate::EvictionPolicy::Family`] (group decisions, not replicas).
    pub family_evictions: u64,
    /// Sibling replicas evicted as members of those family groups
    /// (each also counts toward [`RuntimeStats::evictions`]).
    pub family_eviction_members: u64,
    /// Tasks taken from another worker's ready queue (`dmda`'s steal
    /// fallback).
    pub steals: u64,
    /// Sum over all steals of the stolen task's read-operand bytes already
    /// resident on the thief's memory node — high values mean the
    /// steal-from-richest heuristic found affine victims.
    pub steal_resident_bytes: u64,
    /// Always 0: the runtime keeps no allocation cache, because a
    /// simulated device charges nothing for an allocation, so a freed
    /// buffer dies with its replica. The field stays because the benchmark
    /// harness (`perfbench`) reads it.
    pub alloc_cache_hits: u64,
    /// Device replica allocations, each of which creates a fresh buffer.
    /// With no allocation cache every allocation is a miss, hence the
    /// name, which the benchmark harness (`perfbench`) reads.
    pub alloc_cache_misses: u64,
    /// Dispatches where the scheduler popped a task ahead of FIFO order
    /// because its operands were already resident (dmdar).
    pub sched_reorders: u64,
    /// Sum over all queue-aware dispatches of read-operand bytes already
    /// resident on the dispatching worker's memory node.
    pub dispatch_resident_bytes: u64,
    /// Deepest per-worker ready queue observed at any pop.
    pub max_queue_depth: u64,
    /// Total wall-clock nanoseconds workers spent inside successful
    /// `pop_for_worker` calls (the scheduling decision).
    /// Real time, not virtual — the scheduler's measured decision cost.
    pub sched_pop_ns: u64,
    /// Successful pops, the divisor for [`RuntimeStats::sched_pop_ns`].
    pub sched_pops: u64,
    /// Per-memory-node allocation high-water marks, in bytes
    /// (index 0 = main memory).
    pub mem_high_water: Vec<u64>,
    /// Accumulated busy virtual time per fabric channel (label, busy span):
    /// `h2d:n` / `d2h:n` for each device's host link directions, `p2p:a->b`
    /// for peer channels that carried traffic.
    pub channel_busy: Vec<(String, VTime)>,
    /// Distinct performance-model keys with at least one sample.
    pub perf_keys: usize,
    /// Perf-model keys whose effective sample weight has reached
    /// calibration.
    pub perf_keys_calibrated: usize,
    /// Perf-model keys currently flagged for exploration (cold, or
    /// calibrated but with decayed confidence).
    pub perf_keys_exploring: usize,
    /// Lifetime model-drift detections (family decays + replay thaws).
    pub model_drifts: u64,
}

impl RuntimeStats {
    /// Total transfers across all channels.
    pub fn total_transfers(&self) -> u64 {
        self.h2d_transfers + self.d2h_transfers + self.d2d_transfers
    }

    /// Total bytes moved across all channels.
    pub fn total_transfer_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes + self.d2d_bytes
    }

    /// Bytes moved over the host⇄device links only (both directions);
    /// peer-to-peer traffic bypasses these links and is excluded.
    pub fn host_link_bytes(&self) -> u64 {
        self.h2d_bytes + self.d2h_bytes
    }

    /// Total modelled energy across all workers, in joules.
    pub fn total_energy_joules(&self) -> f64 {
        self.energy_joules.iter().sum()
    }

    /// Mean wall-clock nanoseconds per successful pop — the scheduler's
    /// measured per-dispatch decision cost. 0.0 when nothing was popped.
    pub fn avg_pop_ns(&self) -> f64 {
        if self.sched_pops == 0 {
            0.0
        } else {
            self.sched_pop_ns as f64 / self.sched_pops as f64
        }
    }
}

/// The task events of one job, extracted from a full trace: the per-job
/// view behind [`crate::JobHandle::trace`]. Non-task events (transfers,
/// evictions) are runtime-global and not attributable to one job, so they
/// are omitted.
pub(crate) fn trace_for_job(trace: &[TraceEvent], job: u64) -> Vec<TraceEvent> {
    trace
        .iter()
        .filter(|e| {
            matches!(e,
                TraceEvent::TaskStart { job: j, .. } | TraceEvent::TaskEnd { job: j, .. }
                    if *j == job)
        })
        .cloned()
        .collect()
}

/// Renders an ASCII Gantt chart of the virtual schedule from a trace
/// (requires [`crate::RuntimeConfig::enable_trace`]): one row per worker,
/// time flowing left to right across `width` columns, each task drawn with
/// the first letter of its codelet name. Tasks carrying a [`RunId`] (graph
/// replays) get one lane per `(worker, run)` pair so overlapping
/// iterations render separately instead of as one smeared row; traces
/// without run tags keep the classic one-row-per-worker layout. Useful
/// for eyeballing placement decisions and replay shapes in examples and
/// debugging sessions.
pub fn gantt(trace: &[TraceEvent], workers: usize, width: usize) -> String {
    let width = width.max(10);
    let spans: Vec<(usize, Option<RunId>, VTime, VTime, char)> = trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::TaskEnd {
                worker,
                codelet,
                vstart,
                vfinish,
                run,
                ..
            } => {
                let tag = codelet.chars().next().unwrap_or('#');
                Some((*worker, *run, *vstart, *vfinish, tag))
            }
            _ => None,
        })
        .collect();
    let horizon = spans
        .iter()
        .map(|(_, _, _, f, _)| *f)
        .fold(VTime::ZERO, VTime::max);
    if horizon == VTime::ZERO {
        return String::from("(no timed tasks in trace)\n");
    }
    // Lane layout: one lane per (worker, run) pair that actually appears.
    // Workers with no tagged spans keep a single untagged lane so an
    // all-untagged trace produces the historical output byte for byte.
    let mut lanes: Vec<(usize, Option<RunId>)> = Vec::new();
    for w in 0..workers {
        let mut runs: Vec<Option<RunId>> = spans
            .iter()
            .filter(|(sw, ..)| *sw == w)
            .map(|(_, r, ..)| *r)
            .collect();
        runs.sort();
        runs.dedup();
        if runs.is_empty() {
            lanes.push((w, None));
        } else {
            lanes.extend(runs.into_iter().map(|r| (w, r)));
        }
    }
    let labels: Vec<String> = lanes
        .iter()
        .map(|(w, r)| match r {
            Some(run) => format!("w{w}{run}"),
            None => format!("w{w}"),
        })
        .collect();
    let label_w = labels.iter().map(String::len).max().unwrap_or(3).max(3);
    let scale = horizon.as_nanos() as f64 / width as f64;
    let mut rows = vec![vec!['.'; width]; lanes.len()];
    for (w, run, s, f, tag) in spans {
        if w >= workers {
            continue;
        }
        let Some(lane) = lanes.iter().position(|&l| l == (w, run)) else {
            continue;
        };
        let c0 = (s.as_nanos() as f64 / scale) as usize;
        let c1 = ((f.as_nanos() as f64 / scale) as usize)
            .max(c0 + 1)
            .min(width);
        for cell in &mut rows[lane][c0.min(width - 1)..c1] {
            // Overlapping marks (from rounding) keep the first writer.
            if *cell == '.' {
                *cell = tag;
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("virtual schedule (horizon {horizon}):\n"));
    for (label, row) in labels.iter().zip(&rows) {
        out.push_str(&format!(
            "  {label:<label_w$} |{}|\n",
            row.iter().collect::<String>()
        ));
    }
    // Memory-pressure summary: eviction stalls lengthen transfer queues, so
    // surface them next to the schedule they distorted.
    let (mut evictions, mut writebacks, mut evicted_bytes) = (0u64, 0u64, 0u64);
    let (mut reorders, mut reorder_resident) = (0u64, 0u64);
    let (mut steals, mut steal_resident) = (0u64, 0u64);
    let (mut d2d, mut d2d_bytes) = (0u64, 0u64);
    let mut drifts = 0u64;
    for e in trace {
        match e {
            TraceEvent::Evict {
                bytes, writeback, ..
            } => {
                evictions += 1;
                evicted_bytes += *bytes as u64;
                if *writeback {
                    writebacks += 1;
                }
            }
            TraceEvent::Reorder { resident_bytes, .. } => {
                reorders += 1;
                reorder_resident += resident_bytes;
            }
            TraceEvent::Steal { resident_bytes, .. } => {
                steals += 1;
                steal_resident += resident_bytes;
            }
            TraceEvent::Transfer {
                from, to, bytes, ..
            } if *from != 0 && *to != 0 => {
                d2d += 1;
                d2d_bytes += *bytes as u64;
            }
            TraceEvent::ModelDrift { .. } => drifts += 1,
            _ => {}
        }
    }
    if evictions > 0 {
        out.push_str(&format!(
            "  evictions: {evictions} ({writebacks} with writeback, {evicted_bytes} bytes freed)\n"
        ));
    }
    if reorders > 0 {
        out.push_str(&format!(
            "  scheduler reorders: {reorders} ({reorder_resident} resident bytes dispatched early)\n"
        ));
    }
    if steals > 0 {
        out.push_str(&format!(
            "  steals: {steals} ({steal_resident} resident bytes already on the thief's node)\n"
        ));
    }
    if d2d > 0 {
        out.push_str(&format!(
            "  peer transfers: {d2d} ({d2d_bytes} bytes bypassed the host links)\n"
        ));
    }
    if drifts > 0 {
        out.push_str(&format!(
            "  model drifts: {drifts} (histories decayed, frozen schedules thawed)\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_direction_counting() {
        let s = StatsCollector::new(2, false);
        s.record_transfer(0, 1, 100);
        s.record_transfer(1, 0, 40);
        s.record_transfer(0, 1, 60);
        s.record_transfer(1, 2, 25);
        let snap = s.snapshot();
        assert_eq!(snap.h2d_transfers, 2);
        assert_eq!(snap.d2h_transfers, 1);
        assert_eq!(snap.d2d_transfers, 1);
        assert_eq!(snap.h2d_bytes, 160);
        assert_eq!(snap.d2h_bytes, 40);
        assert_eq!(snap.d2d_bytes, 25);
        assert_eq!(snap.total_transfers(), 4);
        assert_eq!(snap.total_transfer_bytes(), 225);
        assert_eq!(snap.host_link_bytes(), 200, "p2p bytes excluded");
    }

    #[test]
    fn transfer_joins_counted() {
        let s = StatsCollector::new(1, false);
        s.record_transfer_join();
        s.record_transfer_join();
        assert_eq!(s.snapshot().transfer_joins, 2);
    }

    #[test]
    fn peer_transfer_gantt_summary() {
        let trace = vec![
            TraceEvent::TaskEnd {
                task: 1,
                worker: 0,
                codelet: "halo".into(),
                vstart: VTime::ZERO,
                vfinish: VTime::from_micros(10),
                run: None,
                job: 0,
            },
            TraceEvent::Transfer {
                handle: 7,
                from: 1,
                to: 2,
                bytes: 4096,
                channel: crate::coherence::Channel::Peer(1, 2),
            },
            TraceEvent::Transfer {
                handle: 7,
                from: 0,
                to: 1,
                bytes: 512,
                channel: crate::coherence::Channel::HostToDevice(1),
            },
        ];
        let chart = gantt(&trace, 1, 20);
        assert!(chart.contains("peer transfers: 1 (4096 bytes bypassed the host links)"));
        // Host-link traffic alone draws no peer summary line.
        assert!(!gantt(&trace[..1], 1, 20).contains("peer transfers"));
    }

    #[test]
    fn makespan_is_max_of_finishes() {
        let s = StatsCollector::new(2, false);
        s.record_task(0, VTime::from_micros(5), VTime::from_micros(10));
        s.record_task(1, VTime::from_micros(2), VTime::from_micros(7));
        let snap = s.snapshot();
        assert_eq!(snap.makespan, VTime::from_micros(10));
        assert_eq!(snap.busy[0], VTime::from_micros(5));
        assert_eq!(snap.tasks_per_worker, vec![1, 1]);
    }

    #[test]
    fn gantt_renders_worker_rows() {
        let trace = vec![
            TraceEvent::TaskEnd {
                task: 1,
                worker: 0,
                codelet: "alpha".into(),
                vstart: VTime::ZERO,
                vfinish: VTime::from_micros(50),
                run: None,
                job: 0,
            },
            TraceEvent::TaskEnd {
                task: 2,
                worker: 1,
                codelet: "beta".into(),
                vstart: VTime::from_micros(50),
                vfinish: VTime::from_micros(100),
                run: None,
                job: 0,
            },
        ];
        let chart = gantt(&trace, 2, 20);
        assert!(chart.contains("w0"));
        assert!(chart.contains("w1"));
        // First half of row 0 is 'a', second half of row 1 is 'b'.
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[1].contains("aaaa"));
        assert!(lines[2].contains("bbbb"));
        assert!(!lines[1].contains('b'));
        // Empty trace handled gracefully.
        assert!(gantt(&[], 2, 20).contains("no timed tasks"));
    }

    #[test]
    fn gantt_splits_lanes_per_run() {
        let run = |i| {
            Some(RunId {
                instance: 3,
                iteration: i,
            })
        };
        let end = |task, worker, codelet: &str, us0, us1, run| TraceEvent::TaskEnd {
            task,
            worker,
            codelet: codelet.into(),
            vstart: VTime::from_micros(us0),
            vfinish: VTime::from_micros(us1),
            run,
            job: 0,
        };
        let trace = vec![
            end(1, 0, "alpha", 0, 50, run(0)),
            end(2, 0, "beta", 50, 100, run(1)),
            end(3, 1, "gamma", 0, 100, None),
        ];
        let chart = gantt(&trace, 2, 20);
        let lines: Vec<&str> = chart.lines().collect();
        // Worker 0 splits into one lane per replay iteration; worker 1's
        // untagged span keeps a plain lane.
        assert!(lines[1].contains("w0#3.0") && lines[1].contains("aaaa"));
        assert!(lines[2].contains("w0#3.1") && lines[2].contains("bbbb"));
        assert!(!lines[1].contains('b'), "iterations must not smear");
        assert!(lines[3].contains("w1") && lines[3].contains("gggg"));
    }

    #[test]
    fn eviction_counters_and_gantt_summary() {
        let s = StatsCollector::new(1, true);
        s.record_eviction(1024, false);
        s.record_eviction(2048, true);
        let snap = s.snapshot();
        assert_eq!(snap.evictions, 2);
        assert_eq!(snap.writeback_bytes, 2048, "only writeback victims counted");

        let trace = vec![
            TraceEvent::TaskEnd {
                task: 1,
                worker: 0,
                codelet: "spmv".into(),
                vstart: VTime::ZERO,
                vfinish: VTime::from_micros(10),
                run: None,
                job: 0,
            },
            TraceEvent::Evict {
                handle: 7,
                node: 1,
                bytes: 1024,
                writeback: false,
            },
            TraceEvent::Evict {
                handle: 8,
                node: 1,
                bytes: 2048,
                writeback: true,
            },
        ];
        let chart = gantt(&trace, 1, 20);
        assert!(chart.contains("evictions: 2 (1 with writeback, 3072 bytes freed)"));
        // No summary line when nothing was evicted.
        assert!(!gantt(&trace[..1], 1, 20).contains("evictions"));
    }

    #[test]
    fn dispatch_counters_and_reorder_gantt_summary() {
        let s = StatsCollector::new(1, true);
        s.record_dispatch(3, 1024, false);
        s.record_dispatch(7, 2048, true);
        s.record_dispatch(2, 0, true);
        let snap = s.snapshot();
        assert_eq!(snap.sched_reorders, 2);
        assert_eq!(snap.dispatch_resident_bytes, 3072);
        assert_eq!(snap.max_queue_depth, 7, "depth is a high-water mark");

        let trace = vec![
            TraceEvent::TaskEnd {
                task: 1,
                worker: 0,
                codelet: "spmv".into(),
                vstart: VTime::ZERO,
                vfinish: VTime::from_micros(10),
                run: None,
                job: 0,
            },
            TraceEvent::Reorder {
                task: 9,
                worker: 0,
                resident_bytes: 4096,
                jumped: 3,
            },
        ];
        let chart = gantt(&trace, 1, 20);
        assert!(chart.contains("scheduler reorders: 1 (4096 resident bytes dispatched early)"));
        // No summary line when nothing was reordered.
        assert!(!gantt(&trace[..1], 1, 20).contains("scheduler reorders"));
    }

    #[test]
    fn model_drift_gantt_summary() {
        let trace = vec![
            TraceEvent::TaskEnd {
                task: 1,
                worker: 0,
                codelet: "spmv".into(),
                vstart: VTime::ZERO,
                vfinish: VTime::from_micros(10),
                run: None,
                job: 0,
            },
            TraceEvent::ModelDrift {
                codelet: "spmv".into(),
                arch: "gpu:Tesla C2050".into(),
                worker: 4,
                observed: VTime::from_micros(40),
                model: VTime::from_micros(10),
            },
        ];
        let chart = gantt(&trace, 1, 20);
        assert!(chart.contains("model drifts: 1"));
        assert!(!gantt(&trace[..1], 1, 20).contains("model drifts"));
    }

    #[test]
    fn trace_respects_enable_flag() {
        let off = StatsCollector::new(1, false);
        off.record_event(TraceEvent::Allocate { handle: 1, node: 1 });
        assert!(off.trace.lock().is_empty());

        let on = StatsCollector::new(1, true);
        on.record_event(TraceEvent::Allocate { handle: 1, node: 1 });
        assert_eq!(on.trace.lock().len(), 1);
    }
}
