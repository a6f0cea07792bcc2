//! `dmda` and `dmdar` — performance-model-aware earliest-finish-time
//! scheduling, optionally with memory-aware dispatch order.
//!
//! The policy StarPU calls *deque model data aware*, which the paper's
//! "tool-generated performance-aware" (TGPA) executions rely on. For each
//! ready task it evaluates every (worker, implementation) option and picks
//! the one minimizing
//!
//! ```text
//! predicted_finish = worker_available + transfer_cost + expected_exec
//! ```
//!
//! where `expected_exec` comes from the execution-history models (after
//! calibration), from a programmer-provided prediction function, or — if
//! history models are disabled and no prediction exists — from the static
//! device cost model. While any option is still uncalibrated, the scheduler
//! deliberately round-robins across uncalibrated architectures to gather
//! samples, as StarPU's calibration mode does.
//!
//! Calibration never really ends: histories carry a confidence score that
//! decays as a key goes unsampled (see [`crate::perfmodel`]), and a
//! calibrated-but-stale option is flagged for *exploration*. With a
//! nonzero `explore_epsilon` (the default) every Nth placement that sees
//! a stale losing option diverts the task there to refresh its model. Warm
//! steady-state placement pays only a per-option boolean check — the
//! epsilon counter is touched only when an explorable option actually
//! lost the score race.
//!
//! # Readiness ordering (`dmdar`)
//!
//! [`SchedulerKind::Dmdar`](super::SchedulerKind::Dmdar) — StarPU's "dmda
//! ready" — keeps the placement and turns on readiness ordering. When a
//! worker pops, its queued tasks are priced with the route-aware cost of
//! fetching the read operands they are missing from the worker's memory
//! node: each missing operand is priced along its cheapest route from any
//! node holding a valid replica (a direct peer link beats two hops through
//! the host) including the backlog already queued on the route's channels
//! beyond the worker's current clock. Among equal priorities the most
//! "ready" task dispatches first (see the `queue` module), so under
//! capacity pressure tasks that share resident operands run together and a
//! block is fetched once and fully consumed instead of being evicted and
//! re-fetched every round trip.
//!
//! Residency comes from the handles' valid masks, the one model every
//! policy reads: one fetch estimate ([`fetch_delay`]) prices both
//! placement and readiness, so the two halves of the policy agree on which
//! bytes are resident. Nothing is cached at push time. The pop scan stops
//! at the first task with nothing to fetch, so it costs the queue's cold
//! prefix; starvation is bounded by `AGE_LIMIT`. The scan reads handle
//! state and channel backlogs under the worker's queue lock: the lock
//! order is queue → handle → channel, and no path takes a queue lock
//! while holding either of the others.
//!
//! # Steal fallback (`dmda` only)
//!
//! Placement predictions are estimates, so queues drain unevenly: a worker
//! whose queue runs dry while a same-class sibling still holds a backlog
//! would otherwise idle until new submissions rebalance. The dmda pop path
//! therefore falls back to *steal-from-richest*, the runtime's one steal
//! path: an empty-handed worker takes the highest-priority stealable task
//! from the victim whose stealable work has the most bytes already valid
//! on the thief's memory node, transferring the victim's queued-work charge
//! to itself. A task is stealable only onto an option placement could
//! have chosen for it, in the class its prediction came from; recorded
//! graph tasks are never stolen — a frozen replay keeps the placement
//! each task carries, and moving one instance would invalidate the charge
//! bookkeeping the next iteration re-applies. `dmdar` never steals.

use super::queue::ReadyQueue;
use super::{is_option, options_into, resident_read_bytes, SchedCtx, Scheduler};
use crate::codelet::Arch;
use crate::handle::DataHandle;
use crate::intern::CodeletId;
use crate::perfmodel::{Estimate, PerfKey};
use crate::stats::TraceEvent;
use crate::task::{ExecChoice, Task};
use parking_lot::Mutex;
use peppher_sim::VTime;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// dmdar's anti-starvation bound: once the oldest top-priority entry of a
/// worker's ready queue has been passed over this many times by readiness
/// ordering, it dispatches next regardless of what it must transfer.
pub(crate) const AGE_LIMIT: u32 = 16;

/// Route-aware delay beyond `now` of bringing `h` to `node` from its
/// cheapest valid replica; `None` when `h` is already valid at `node`. A
/// replica that is allocated but not yet valid counts as missing.
fn fetch_delay(h: &DataHandle, node: usize, now: VTime, ctx: &SchedCtx<'_>) -> Option<VTime> {
    SOURCES.with_borrow_mut(|sources| {
        sources.clear();
        if !h.missing_at(node, sources) {
            return None;
        }
        // Priced after the handle lock is released.
        let bytes = h.bytes() as u64;
        let price = |&src: &usize| ctx.topo.estimate_transfer_after(src, node, bytes, now);
        Some(sources.iter().map(price).min().unwrap_or(VTime::ZERO))
    })
}

/// dmdar's readiness score: the fetch cost of the read operands `task` is
/// missing from `node`, occupancy-aware beyond `now`.
fn fetch_cost(node: usize, task: &Task, now: VTime, ctx: &SchedCtx<'_>) -> VTime {
    task.accesses
        .iter()
        .filter(|(_, mode)| mode.reads())
        .filter_map(|(h, _)| fetch_delay(h, node, now, ctx))
        .sum()
}

thread_local! {
    /// [`fetch_delay`]'s list of the nodes holding a valid replica.
    static SOURCES: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Enqueues each task on its target worker's queue, taking every distinct
/// target queue's lock once (`seen` marks the queues already served). A
/// lone task takes its queue's lock with no bookkeeping.
fn enqueue(
    queues: &[Mutex<ReadyQueue>],
    tasks: &[Arc<Task>],
    targets: &[usize],
    seen: &mut Vec<bool>,
) {
    if let ([task], &[w]) = (tasks, targets) {
        queues[w].lock().push(Arc::clone(task));
        return;
    }
    seen.clear();
    seen.resize(queues.len(), false);
    for (i, &w) in targets.iter().enumerate() {
        if std::mem::replace(&mut seen[w], true) {
            continue;
        }
        let mut q = queues[w].lock();
        for (task, _) in tasks[i..]
            .iter()
            .zip(&targets[i..])
            .filter(|&(_, &t)| t == w)
        {
            q.push(Arc::clone(task));
        }
    }
}

/// Reusable buffers for [`DmdaScheduler::push`], one set per thread: the
/// prediction memo (cleared per push, kept across its tasks — one
/// registry lookup per distinct history key per batch), the option,
/// evaluation and calibration-class buffers (cleared per task), and the
/// batch's targets and served-queue marks. A warm thread's push
/// allocates nothing.
#[derive(Default)]
struct PlaceScratch {
    memo: Vec<(PerfKey, Estimate)>,
    opts: Vec<(usize, Arch)>,
    evaluated: Vec<(usize, Arch, Estimate)>,
    uncal_classes: Vec<Arch>,
    targets: Vec<usize>,
    seen: Vec<bool>,
}

thread_local! {
    static SCRATCH: RefCell<PlaceScratch> = RefCell::default();
}

/// Performance-aware scheduler (see module docs).
pub struct DmdaScheduler {
    /// Readiness ordering on (`dmdar`): pops price the queue, no steals.
    readiness: bool,
    /// Predicted residual occupancy of each worker's queue, in virtual
    /// nanoseconds. Per-worker atomics instead of one mutex: the
    /// submit-side placement loop reads every worker's charge per task
    /// while the workers release charges on every completion, and that
    /// pair must not serialize on a lock.
    queued_pred: Vec<AtomicU64>,
    /// Round-robin counters for calibration, per codelet.
    calib_rr: Mutex<HashMap<CodeletId, usize>>,
    /// Epsilon-greedy opportunity counter: bumped only when a placement
    /// sees an explorable option lose the score race, so the warm path
    /// (nothing stale) never touches it. Every `1/epsilon`-th opportunity
    /// diverts the task to the stale option.
    explore_seq: AtomicU64,
    /// Per-worker ready queues.
    queues: Vec<Mutex<ReadyQueue>>,
}

impl DmdaScheduler {
    /// Creates the per-worker structures; `readiness` selects `dmdar`.
    pub fn new(workers: usize, readiness: bool) -> Self {
        DmdaScheduler {
            readiness,
            queued_pred: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            calib_rr: Mutex::new(HashMap::new()),
            explore_seq: AtomicU64::new(0),
            queues: (0..workers)
                .map(|_| Mutex::new(ReadyQueue::default()))
                .collect(),
        }
    }

    /// The queued-work prediction currently charged to `worker`.
    fn queued(&self, worker: usize) -> VTime {
        VTime::from_nanos(self.queued_pred[worker].load(Ordering::Relaxed))
    }

    /// Charges `delta` of predicted work to `worker` (placement or replay
    /// re-push).
    fn charge_pred(&self, worker: usize, delta: VTime) {
        self.queued_pred[worker].fetch_add(delta.as_nanos(), Ordering::Relaxed);
    }

    /// Releases the prediction charged at placement time once the task's
    /// duration is part of the worker's actual timeline.
    fn release(&self, worker: usize, delta: VTime) {
        // Saturating: a replay re-push can re-charge a different delta
        // than an in-flight release expects, and the floor is zero.
        let _ = self.queued_pred[worker].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(delta.as_nanos()))
        });
    }

    /// Expected execution time for an option whose history key is already
    /// in hand, with the model's adaptation signals. Worker-independent
    /// for a given key: every worker sharing an architecture class shares
    /// a profile, so [`DmdaScheduler::place`] evaluates each distinct key
    /// once.
    fn expected_exec(
        &self,
        task: &Task,
        key: PerfKey,
        worker: usize,
        arch: Arch,
        ctx: &SchedCtx<'_>,
    ) -> Estimate {
        if task.use_history.unwrap_or(ctx.config.use_history) {
            // One shard-lock acquisition returns mean, confidence, and the
            // explore flag together. Uncalibrated keys come back with
            // `expected: None` — a prediction function does not preempt
            // calibration, since history models are built from real
            // executions precisely because predictions can be wrong.
            return ctx.perf.estimate(&key);
        }

        // History disabled (`useHistoryModels=false`): prediction function,
        // else the static device model — both fully trusted, never
        // explored. Predictions keep their public `&ArchClass` signature;
        // the conversion allocates only on this rare path.
        let t = task
            .codelet
            .prediction
            .as_ref()
            .and_then(|pred| pred(&key.arch.to_class(), &task.cost))
            .unwrap_or_else(|| {
                let profile = ctx.machine.worker_profile(worker);
                let team = if arch == Arch::CpuTeam {
                    ctx.machine.cpu_workers
                } else {
                    1
                };
                profile.exec_time_team(&task.cost, team)
            });
        Estimate {
            expected: Some(t),
            confidence: 1.0,
            explore: false,
        }
    }

    /// Estimated transfer delay to bring the task's read operands to the
    /// worker's memory node, plus a locality term for written operands:
    /// producing data away from where its current copy lives means a
    /// likely fetch-back later (tightly-dependent chains like the ODE
    /// solver thrash between devices without this). Each operand is priced
    /// along its cheapest route from any valid source (direct P2P beats
    /// two hops via the host when configured), occupancy-aware: channel
    /// backlog beyond `now` (the candidate worker's availability) delays
    /// the estimate, so a congested link steers placement elsewhere. Each
    /// operand goes through [`fetch_delay`], the estimate dmdar's pops
    /// price readiness with.
    fn transfer_estimate(
        &self,
        task: &Task,
        worker: usize,
        now: VTime,
        ctx: &SchedCtx<'_>,
    ) -> VTime {
        let node = ctx.machine.worker_memory_node(worker);
        let mut total = VTime::ZERO;
        for (h, mode) in &task.accesses {
            let Some(t) = fetch_delay(h, node, now, ctx) else {
                continue;
            };
            if mode.reads() {
                total += t;
            } else {
                // Write-only: no fetch now, but the produced copy strands
                // away from its consumers' likely location.
                total += t.scale(0.5);
            }
        }
        // Eviction pressure: if the node's free memory cannot hold the
        // task's non-resident operands, making room will evict (and likely
        // write back) that many overflow bytes over the d2h channel. A
        // task without operands exerts no pressure — skip the node-lock
        // probe entirely.
        if node != 0 && !task.accesses.is_empty() {
            let overflow = ctx.memory.pressure_overflow(node, &task.accesses);
            if overflow > 0 {
                total += ctx.topo.estimate_transfer_after(node, 0, overflow, now);
            }
        }
        total
    }

    /// Chooses the (worker, arch) placement for a ready task, records the
    /// decision in `task.chosen`, and charges the worker's queued-work
    /// prediction. Returns the chosen worker; the caller enqueues the task
    /// on that worker's ready queue.
    ///
    /// One `scratch` serves a whole batch: the prediction memo then pays
    /// one registry lookup per distinct (codelet, class, footprint) key
    /// instead of one per task. A memoized prediction can lag a sample
    /// recorded mid-batch by a worker — acceptable, since placement is
    /// already interleaving-dependent (calibration round-robin) and
    /// results never depend on it.
    ///
    /// Ties go to `prefer`, the worker releasing the task, when it is
    /// among the best: that worker is busy, so its next pop takes the
    /// successor without a wakeup.
    fn place(
        &self,
        task: &Arc<Task>,
        prefer: Option<usize>,
        ctx: &SchedCtx<'_>,
        scratch: &mut PlaceScratch,
    ) -> usize {
        let PlaceScratch {
            memo,
            opts,
            evaluated,
            uncal_classes,
            ..
        } = scratch;
        opts.clear();
        evaluated.clear();
        uncal_classes.clear();
        options_into(task, ctx.machine, opts);
        assert!(
            !opts.is_empty(),
            "task for codelet `{}` has no eligible worker",
            task.codelet.name
        );

        // Evaluate every option, looking each distinct history key up
        // once — all same-class workers (e.g. the CPU cores) share a key,
        // so an n-core machine pays one registry lock, not n.
        evaluated.extend(opts.iter().map(|&(w, a)| {
            // Recorded graph tasks carry their keys precomputed at
            // instantiation; everyone else hashes one up on the spot.
            let key = task
                .placement
                .as_ref()
                .and_then(|p| p.key_for(w, a))
                .unwrap_or_else(|| {
                    PerfKey::for_codelet(
                        task.codelet.id,
                        ctx.classes.class_id(a, w),
                        task.footprint(),
                    )
                });
            let est = match memo.iter().find(|(k, _)| *k == key) {
                Some(&(_, e)) => e,
                None => {
                    let e = self.expected_exec(task, key, w, a, ctx);
                    memo.push((key, e));
                    e
                }
            };
            (w, a, est)
        }));

        // Calibration: spread executions across uncalibrated architecture
        // classes (round-robin over classes; least-loaded worker within).
        for (_, a, est) in evaluated.iter() {
            if est.expected.is_none() && !uncal_classes.contains(a) {
                uncal_classes.push(*a);
            }
        }
        if !uncal_classes.is_empty() {
            let class = {
                let mut rr = self.calib_rr.lock();
                let counter = rr.entry(task.codelet.id).or_insert(0);
                let class = uncal_classes[*counter % uncal_classes.len()];
                *counter += 1;
                class
            };
            let (w, a) = evaluated
                .iter()
                .filter(|(_, a, est)| est.expected.is_none() && *a == class)
                .map(|&(w, a, _)| (w, a))
                .min_by_key(|&(w, _)| (ctx.timelines.get(w) + self.queued(w), Some(w) != prefer))
                .expect("class came from evaluated options");
            // Charge a nominal occupancy so calibration tasks still spread.
            self.charge(task, w, a, VTime::from_micros(1));
            return w;
        }

        // All options predictable: score each by the configured objective.
        // A task cannot start before its dependencies' virtual finish time,
        // so an idle worker is no earlier than `vdeps` (without this,
        // dependent chains look artificially cheap on idle devices).
        let vdeps = task.vdeps();
        // Worker availability: actual clock + predicted queued work (the
        // latest across the whole team for a team option), both lock-free
        // reads.
        let avail_of = |w: usize, a: Arch| {
            if a == Arch::CpuTeam {
                (0..ctx.machine.cpu_workers)
                    .map(|x| ctx.timelines.get(x) + self.queued(x))
                    .fold(VTime::ZERO, VTime::max)
            } else {
                ctx.timelines.get(w) + self.queued(w)
            }
        };
        let mut best: Option<(usize, Arch, f64, VTime)> = None;
        let mut best_is_explore = false;
        // Best-scored among the explore-flagged options (stale histories),
        // tracked for the epsilon-greedy divert below. Stays `None` on the
        // warm path, where this whole mechanism costs one boolean per
        // option.
        let mut best_explore: Option<(usize, Arch, VTime)> = None;
        let mut best_explore_score = f64::INFINITY;
        for (w, a, est) in evaluated.drain(..) {
            let exec = est.expected.expect("calibrated option must predict");
            let avail = avail_of(w, a).max(vdeps);
            let transfer = self.transfer_estimate(task, w, avail, ctx);
            let finish = avail + transfer + exec;
            let score = match ctx.config.objective {
                crate::runtime::Objective::ExecTime => finish.as_secs_f64(),
                crate::runtime::Objective::Energy => {
                    // Device energy for the execution plus PCIe energy for
                    // the transfer (~10 W of link/controller power).
                    let team = if a == Arch::CpuTeam {
                        ctx.machine.cpu_workers
                    } else {
                        1
                    };
                    ctx.machine.worker_profile(w).energy_joules(exec, team)
                        + transfer.as_secs_f64() * 10.0
                }
            };
            let delta = transfer + exec;
            let better = best.is_none_or(|(bw, _, sc, _)| {
                score < sc || (score == sc && Some(w) == prefer && Some(bw) != prefer)
            });
            if better {
                best = Some((w, a, score, delta));
                best_is_explore = est.explore;
            }
            if est.explore && score < best_explore_score {
                best_explore = Some((w, a, delta));
                best_explore_score = score;
            }
        }
        let (mut w, mut a, _, mut delta) = best.expect("at least one option");
        // Epsilon-greedy: a stale option that lost the score race gets
        // every `1/epsilon`-th such opportunity anyway, refreshing its
        // model before confidence rots completely. The counter moves only
        // when an opportunity exists, so the warm path never touches it.
        let eps = ctx.config.explore_epsilon;
        if eps > 0.0 && !best_is_explore {
            if let Some((ew, ea, edelta)) = best_explore {
                let period = (1.0 / eps.min(1.0)).round() as u64;
                if self
                    .explore_seq
                    .fetch_add(1, Ordering::Relaxed)
                    .is_multiple_of(period)
                {
                    (w, a, delta) = (ew, ea, edelta);
                }
            }
        }
        self.charge(task, w, a, delta);
        w
    }

    /// Records the placement on the task and charges the queued-work
    /// prediction it stores.
    fn charge(&self, task: &Arc<Task>, worker: usize, arch: Arch, pred_delta: VTime) {
        let stored = task.chosen.place(ExecChoice {
            worker,
            arch,
            pred_delta,
        });
        self.charge_pred(worker, stored.pred_delta);
    }

    /// The worker `task` goes to: the placement it already carries (a
    /// frozen graph replay), re-charging its prediction — `task_timed`
    /// releases it after execution, so the load estimate stays balanced —
    /// or else a fresh [`DmdaScheduler::place`].
    fn target(
        &self,
        task: &Arc<Task>,
        prefer: Option<usize>,
        ctx: &SchedCtx<'_>,
        scratch: &mut PlaceScratch,
    ) -> usize {
        match task.chosen.get() {
            Some(c) => {
                self.charge_pred(c.worker, c.pred_delta);
                c.worker
            }
            None => self.place(task, prefer, ctx, scratch),
        }
    }

    #[cfg(test)]
    fn queue_len(&self, worker: usize) -> usize {
        self.queues[worker].lock().len()
    }

    /// Steal fallback for a worker whose own queue is empty (see module
    /// docs). A task is stealable when it is not a recorded graph task and
    /// `(thief, arch)` is one of its placement options in the class the
    /// placement was predicted for — the predicted execution time (and
    /// therefore the charge transfer below) is only valid within the class
    /// the history profile was built for.
    fn steal(&self, worker: usize, node: usize, ctx: &SchedCtx<'_>) -> Option<Arc<Task>> {
        let stealable = |t: &Task| {
            t.graph.is_none()
                && t.chosen.get().is_some_and(|c| {
                    is_option(t, ctx.machine, worker, c.arch)
                        && ctx.classes.class_id(c.arch, c.worker)
                            == ctx.classes.class_id(c.arch, worker)
                })
        };
        // Virtual-time gate: a worker's real thread can run far ahead of
        // its virtual clock, so an ungated steal lets one fast thread
        // drain the whole mesh and serialize work that the simulated
        // machine would have run in parallel. A steal is only justified
        // when the thief's virtual ready time beats the victim's predicted
        // finish — i.e. the simulated victim genuinely cannot get to the
        // task before the simulated thief could start it.
        let thief_ready = ctx.timelines.get(worker) + self.queued(worker);
        let victim_behind = |v: usize| ctx.timelines.get(v) + self.queued(v) > thief_ready;
        // Two passes, richest first: score every victim's stealable work by
        // thief-side resident read bytes (depth breaks ties, so a mesh with
        // no resident data anywhere steals from the deepest queue), then
        // attempt the steals best-first. A scored task can be taken by its
        // owner between the passes; the steal pass re-resolves, so a stale
        // score costs at most a suboptimal order.
        // The scan is capped: scoring holds the victim's queue lock and
        // reads each task's placement, so walking a deep queue
        // (tens of thousands of independent tasks) would stall the victim's
        // own pops for longer than the steal saves.
        const SCAN_CAP: usize = 64;
        let mut ranked: Vec<(usize, u64, usize)> = Vec::new();
        for v in 0..self.queues.len() {
            if v == worker || !victim_behind(v) {
                continue;
            }
            let q = self.queues[v].lock();
            let depth = q.len();
            if depth == 0 {
                continue;
            }
            let score = q
                .iter()
                .take(SCAN_CAP)
                .filter(|t| stealable(t))
                .map(|t| resident_read_bytes(node, &t.accesses))
                .max();
            if let Some(bytes) = score {
                ranked.push((v, bytes, depth));
            }
        }
        ranked
            .sort_by_key(|&(_, bytes, depth)| (std::cmp::Reverse(bytes), std::cmp::Reverse(depth)));
        for (v, _, _) in ranked {
            if !victim_behind(v) {
                continue;
            }
            // Bulk steal: taking one task per idle pop would leave the
            // thief re-acquiring the victim's queue lock once per task —
            // on a drained worker facing a deep victim queue that
            // serializes both workers on one lock. Instead take enough
            // work to equalize the two predicted ready times (each stolen
            // task moves its charge across), capped at half the victim's
            // queue (the classic steal-half split, which also bounds
            // zero-cost tasks with no model yet) and at [`STEAL_CHUNK`]
            // tasks — the whole transfer happens under the victim's queue
            // lock, so an unbounded chunk would stall the victim's own
            // pops for the duration of a thousands-deep transfer.
            const STEAL_CHUNK: usize = 64;
            let mut victim_ready = ctx.timelines.get(v) + self.queued(v);
            let mut thief_acc = thief_ready;
            let (taken, depth) = {
                let mut q = self.queues[v].lock();
                let depth = q.len();
                let cap = depth.div_ceil(2).min(STEAL_CHUNK);
                let mut taken = Vec::new();
                while taken.len() < cap && (taken.is_empty() || thief_acc < victim_ready) {
                    let Some(t) = q.pop_where(stealable) else {
                        break;
                    };
                    // Move the queued-work charge from the victim to the
                    // thief and rebind the recorded placement: the thief
                    // executes the task, so `task_timed` releases the
                    // charge against it.
                    let old = t
                        .chosen
                        .rebind(worker)
                        .expect("dmda tasks are placed at push time");
                    self.release(old.worker, old.pred_delta);
                    self.charge_pred(worker, old.pred_delta);
                    thief_acc += old.pred_delta;
                    victim_ready = victim_ready.saturating_sub(old.pred_delta);
                    taken.push(t);
                }
                (taken, depth)
            };
            if taken.is_empty() {
                continue;
            }
            for t in &taken {
                let resident = resident_read_bytes(node, &t.accesses);
                ctx.stats.record_steal(resident);
                ctx.stats.record_event(TraceEvent::Steal {
                    task: t.id,
                    thief: worker,
                    victim: v,
                    resident_bytes: resident,
                });
            }
            // Run the victim's next-in-line task now; park the surplus on
            // the thief's own queue for its following pops.
            let mut taken = taken.into_iter();
            let first = taken.next().expect("non-empty");
            {
                let mut q = self.queues[worker].lock();
                for t in taken {
                    q.push(t);
                }
            }
            let resident = resident_read_bytes(node, &first.accesses);
            ctx.stats.record_dispatch(depth, resident, false);
            return Some(first);
        }
        None
    }
}

impl Scheduler for DmdaScheduler {
    fn push(&self, tasks: &[Arc<Task>], releaser: Option<usize>, ctx: &SchedCtx<'_>) {
        // Place every task first (sharing one prediction memo across the
        // batch), then enqueue per-worker groups.
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.memo.clear();
            scratch.targets.clear();
            for task in tasks {
                let w = self.target(task, releaser, ctx, scratch);
                scratch.targets.push(w);
            }
            enqueue(&self.queues, tasks, &scratch.targets, &mut scratch.seen);
        })
    }

    fn pop_for_worker(&self, worker: usize, ctx: &SchedCtx<'_>) -> Option<Arc<Task>> {
        let node = ctx.machine.worker_memory_node(worker);
        let mut q = self.queues[worker].lock();
        let depth = q.len();
        let popped = if self.readiness {
            // Priced now, against the worker's current clock.
            let now = ctx.timelines.get(worker);
            q.pop_ready(|t| fetch_cost(node, t, now, ctx))
        } else {
            q.pop().map(|t| (t, 0))
        };
        drop(q);
        let Some((task, jumped)) = popped else {
            return if self.readiness {
                None
            } else {
                self.steal(worker, node, ctx)
            };
        };
        let resident = resident_read_bytes(node, &task.accesses);
        ctx.stats.record_dispatch(depth, resident, jumped > 0);
        if jumped > 0 {
            ctx.stats.record_event(TraceEvent::Reorder {
                task: task.id,
                worker,
                resident_bytes: resident,
                jumped,
            });
        }
        Some(task)
    }

    fn task_timed(&self, worker: usize, _task: &Task, choice: Option<ExecChoice>) {
        // The task's duration is now part of the worker's actual timeline;
        // release the prediction charged at push time.
        self.release(worker, choice.map(|c| c.pred_delta).unwrap_or(VTime::ZERO));
    }

    #[cfg(test)]
    fn queued_charge(&self, worker: usize) -> VTime {
        self.queued(worker)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::codelet::{ArchClass, Codelet};
    use crate::coherence::Topology;
    use crate::handle::AccessMode;
    use crate::memory::MemoryManager;
    use crate::perfmodel::{PerfKey, PerfRegistry};
    use crate::runtime::RuntimeConfig;
    use crate::stats::StatsCollector;
    use crate::task::TaskBuilder;
    use peppher_sim::{KernelCost, MachineConfig};

    pub(in crate::sched) struct Fixture {
        pub machine: MachineConfig,
        pub perf: PerfRegistry,
        pub timelines: crate::sched::Timelines,
        pub topo: Topology,
        pub memory: MemoryManager,
        pub config: RuntimeConfig,
        pub stats: StatsCollector,
        pub classes: crate::sched::WorkerClasses,
    }

    impl Fixture {
        pub fn new(machine: MachineConfig, config: RuntimeConfig) -> Self {
            let timelines = crate::sched::Timelines::new(machine.total_workers());
            let topo = Topology::new(&machine);
            let memory = MemoryManager::new(&machine, config.eviction);
            let stats = StatsCollector::new(machine.total_workers(), false);
            let classes = crate::sched::WorkerClasses::new(&machine);
            Fixture {
                perf: PerfRegistry::default(),
                timelines,
                topo,
                memory,
                config,
                stats,
                classes,
                machine,
            }
        }
        pub fn ctx(&self) -> SchedCtx<'_> {
            SchedCtx {
                machine: &self.machine,
                perf: &self.perf,
                timelines: &self.timelines,
                topo: &self.topo,
                memory: &self.memory,
                config: &self.config,
                stats: &self.stats,
                classes: &self.classes,
            }
        }
    }

    fn dual_codelet() -> Arc<Codelet> {
        Arc::new(
            Codelet::new("k")
                .with_impl(Arch::Cpu, |_| {})
                .with_impl(Arch::Gpu, |_| {}),
        )
    }

    fn task_of(codelet: &Arc<Codelet>, id: u64) -> Arc<Task> {
        Arc::new(
            TaskBuilder::new(codelet)
                .cost(KernelCost::new(1e6, 1e5, 1e5))
                .into_task(id),
        )
    }

    #[test]
    fn calibration_round_robins_architecture_classes() {
        let f = Fixture::new(MachineConfig::c2050_platform(2), RuntimeConfig::default());
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        let c = dual_codelet();
        for i in 0..6 {
            s.push(&[task_of(&c, i)], None, &f.ctx());
        }
        // Classes alternate Cpu/Gpu: 3 CPU tasks (spread over cpu0/cpu1 by
        // load) and 3 GPU tasks.
        let counts: Vec<usize> = (0..3).map(|w| s.queue_len(w)).collect();
        assert_eq!(counts[0] + counts[1], 3, "CPU class got half: {counts:?}");
        assert_eq!(counts[2], 3, "GPU class got half: {counts:?}");
        assert!(
            counts[0] >= 1 && counts[1] >= 1,
            "both CPU workers sampled: {counts:?}"
        );
    }

    /// Records three samples per class for `c`'s footprint: the CPU takes
    /// `cpu_us`, the C2050 GPU `gpu_us`.
    fn calibrate(f: &Fixture, fp: u64, cpu_us: u64, gpu_us: u64) {
        for _ in 0..3 {
            f.perf.record(
                PerfKey::new("k", ArchClass::Cpu, fp),
                VTime::from_micros(cpu_us),
            );
            f.perf.record(
                PerfKey::new("k", ArchClass::Gpu("Tesla C2050".into()), fp),
                VTime::from_micros(gpu_us),
            );
        }
    }

    #[test]
    fn calibrated_histories_drive_placement_to_faster_arch() {
        let f = Fixture::new(MachineConfig::c2050_platform(2), RuntimeConfig::default());
        let c = dual_codelet();
        let probe = task_of(&c, 0);
        // GPU is 10x faster in recorded history.
        calibrate(&f, probe.footprint(), 100, 10);
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        s.push(&[probe], None, &f.ctx());
        assert_eq!(s.queue_len(2), 1, "task should land on the GPU worker");
    }

    /// A CPU-only codelet `k` whose zero-cost tasks are calibrated at 50µs.
    fn calibrated_cpu_codelet(f: &Fixture) -> Arc<Codelet> {
        let c = Arc::new(Codelet::new("k").with_impl(Arch::Cpu, |_| {}));
        let probe = Arc::new(TaskBuilder::new(&c).into_task(99));
        for _ in 0..3 {
            f.perf.record(
                PerfKey::new("k", ArchClass::Cpu, probe.footprint()),
                VTime::from_micros(50),
            );
        }
        c
    }

    #[test]
    fn load_balances_across_cpu_workers_when_equal() {
        let f = Fixture::new(MachineConfig::cpu_only(2), RuntimeConfig::default());
        let c = calibrated_cpu_codelet(&f);
        let s = DmdaScheduler::new(2, false);
        for i in 0..4 {
            s.push(&[task_of_no_cost(&c, i)], None, &f.ctx());
        }
        assert_eq!(s.queue_len(0), 2);
        assert_eq!(s.queue_len(1), 2);
    }

    fn task_of_no_cost(codelet: &Arc<Codelet>, id: u64) -> Arc<Task> {
        Arc::new(TaskBuilder::new(codelet).into_task(id))
    }

    #[test]
    fn prediction_does_not_preempt_calibration() {
        // With history models enabled, an (arbitrarily wrong) prediction
        // function must not stop the scheduler from sampling each class.
        let f = Fixture::new(MachineConfig::c2050_platform(1), RuntimeConfig::default());
        let c = Arc::new(
            Codelet::new("k")
                .with_impl(Arch::Cpu, |_| {})
                .with_impl(Arch::Gpu, |_| {})
                .with_prediction(|class, _| match class {
                    ArchClass::Cpu => Some(VTime::from_millis(1)),
                    _ => None,
                }),
        );
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        for i in 0..4 {
            s.push(&[task_of(&c, i)], None, &f.ctx());
        }
        // Both classes received calibration tasks despite the prediction.
        assert!(s.queue_len(0) > 0, "CPU sampled");
        assert!(s.queue_len(1) > 0, "GPU sampled");
    }

    #[test]
    fn prediction_trusted_when_history_disabled() {
        let config = RuntimeConfig {
            use_history: false,
            ..RuntimeConfig::default()
        };
        let f = Fixture::new(MachineConfig::c2050_platform(1), config);
        // Prediction says the CPU takes forever; the GPU has no prediction
        // and falls back to the static model.
        let c = Arc::new(
            Codelet::new("k")
                .with_impl(Arch::Cpu, |_| {})
                .with_impl(Arch::Gpu, |_| {})
                .with_prediction(|class, _| match class {
                    ArchClass::Cpu => Some(VTime::from_millis(100)),
                    _ => None,
                }),
        );
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        s.push(&[task_of(&c, 0)], None, &f.ctx());
        assert_eq!(s.queue_len(1), 1, "wrong prediction steers to GPU");
    }

    #[test]
    fn static_model_used_when_history_disabled() {
        let config = RuntimeConfig {
            use_history: false,
            ..RuntimeConfig::default()
        };
        let f = Fixture::new(MachineConfig::c2050_platform(1), config);
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        let c = dual_codelet();
        // Large, regular, parallel work: static model must prefer the GPU.
        let t = Arc::new(
            TaskBuilder::new(&c)
                .cost(KernelCost::new(5e9, 1e6, 1e6))
                .into_task(0),
        );
        s.push(&[t], None, &f.ctx());
        assert_eq!(s.queue_len(1), 1);
    }

    #[test]
    fn memory_pressure_adds_eviction_cost() {
        let machine = MachineConfig::c2050_platform(1).with_device_mem(8 * 1024);
        let f = Fixture::new(machine, RuntimeConfig::default());

        // Fill most of the device node with an unrelated resident replica.
        // `now` absorbs the h2d backlog that fetch leaves on the channel.
        let resident = DataHandle::new(1, vec![0u8; 6 * 1024], 6 * 1024, 2);
        let now = crate::coherence::make_valid(
            &resident,
            1,
            AccessMode::Read,
            &f.topo,
            &f.stats,
            &f.memory,
        );

        let c = dual_codelet();
        let operand = DataHandle::new(2, vec![0u8; 4 * 1024], 4 * 1024, 2);
        let t = Arc::new(
            TaskBuilder::new(&c)
                .access(&operand, AccessMode::Read)
                .into_task(0),
        );
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        // 6 KiB used + 4 KiB needed > 8 KiB budget: 2 KiB of eviction
        // writeback (d2h) is charged on top of the operand's own h2d fetch.
        let est = s.transfer_estimate(&t, 1, now, &f.ctx());
        let link = &f.machine.accelerators[0].link;
        let base = link.transfer_time(4 * 1024);
        let overflow = link.transfer_time(2 * 1024);
        assert_eq!(est, base + overflow);
    }

    #[test]
    fn releasing_worker_wins_ties() {
        let f = Fixture::new(MachineConfig::cpu_only(2), RuntimeConfig::default());
        let c = calibrated_cpu_codelet(&f);
        let s = DmdaScheduler::new(2, false);
        // Equal scores: worker 1 released the task, so it wins the tie
        // (worker 0 would win it otherwise).
        let t = task_of_no_cost(&c, 0);
        s.push(&[Arc::clone(&t)], Some(1), &f.ctx());
        assert_eq!(t.chosen.get().unwrap().worker, 1);
        assert_eq!(s.queue_len(1), 1);
        // Worker 1 is now the busier one: the score, not the tie-break,
        // sends the next task to worker 0.
        let u = task_of_no_cost(&c, 1);
        s.push(&[Arc::clone(&u)], Some(1), &f.ctx());
        assert_eq!(u.chosen.get().unwrap().worker, 0);
    }

    #[test]
    fn queued_prediction_released_when_timed() {
        let f = Fixture::new(MachineConfig::cpu_only(1), RuntimeConfig::default());
        let c = calibrated_cpu_codelet(&f);
        let s = DmdaScheduler::new(1, false);
        s.push(&[task_of_no_cost(&c, 0)], None, &f.ctx());
        assert!(s.queued(0) > VTime::ZERO);
        let t = s.pop_for_worker(0, &f.ctx()).unwrap();
        assert!(s.queued(0) > VTime::ZERO, "still charged until timed");
        s.task_timed(0, &t, t.chosen.get());
        assert_eq!(s.queued(0), VTime::ZERO);
    }

    #[test]
    fn pop_records_dispatch_depth_and_residency() {
        let f = Fixture::new(MachineConfig::c2050_platform(1), RuntimeConfig::default());
        let operand = DataHandle::new(1, vec![0u8; 4 * 1024], 4 * 1024, 2);
        crate::coherence::make_valid(&operand, 1, AccessMode::Read, &f.topo, &f.stats, &f.memory);

        let c = gpu_codelet();
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        for i in 0..3 {
            s.push(&[task_on(&c, i, &operand)], None, &f.ctx());
        }
        // GPU worker is index 1 on the single-CPU platform.
        assert!(s.pop_for_worker(1, &f.ctx()).is_some());
        assert_eq!(f.stats.max_queue_depth.load(Ordering::Relaxed), 3);
        assert_eq!(
            f.stats.dispatch_resident_bytes.load(Ordering::Relaxed),
            4 * 1024
        );
    }

    /// Pushes `task` and asserts it was placed on `worker` (the tests
    /// below need to know which queue the steal must raid).
    fn push_on(s: &DmdaScheduler, f: &Fixture, task: Arc<Task>, worker: usize) {
        s.push(&[Arc::clone(&task)], None, &f.ctx());
        let placed = task.chosen.get().map(|c| c.worker);
        assert_eq!(placed, Some(worker), "test premise: placement target");
    }

    #[test]
    fn idle_worker_steals_and_charge_follows() {
        let mut f = Fixture::new(MachineConfig::cpu_only(2), RuntimeConfig::default());
        f.stats = StatsCollector::new(2, true);
        let c = calibrated_cpu_codelet(&f);
        let s = DmdaScheduler::new(2, false);
        // A single calibrated task lands on worker 0 (equal scores keep the
        // first option).
        push_on(&s, &f, task_of_no_cost(&c, 7), 0);
        assert!(s.queued(0) > VTime::ZERO);
        assert_eq!(s.queued(1), VTime::ZERO);

        // Worker 1's own queue is empty: it steals the task, and the
        // queued-work charge and recorded placement move with it.
        let t = s.pop_for_worker(1, &f.ctx()).expect("steals");
        assert_eq!(t.id, 7);
        assert_eq!(s.queued(0), VTime::ZERO, "victim charge released");
        assert!(s.queued(1) > VTime::ZERO, "thief charged");
        assert_eq!(t.chosen.get().unwrap().worker, 1, "placement rebound");
        assert_eq!(s.queue_len(0), 0);
        assert_eq!(f.stats.snapshot().steals, 1);
        assert!(f.stats.trace.lock().iter().any(|e| matches!(
            e,
            TraceEvent::Steal {
                task: 7,
                thief: 1,
                victim: 0,
                ..
            }
        )));

        // task_timed releases against the thief, balancing the books.
        s.task_timed(1, &t, t.chosen.get());
        assert_eq!(s.queued(1), VTime::ZERO);
    }

    /// Calibrates `k` on c2050_platform(2) (workers 0–1 CPU, 2 GPU), places
    /// one task, and checks idle worker `thief` leaves it on `victim`.
    fn assert_not_stolen(cpu_us: u64, gpu_us: u64, victim: usize, thief: usize) {
        let f = Fixture::new(MachineConfig::c2050_platform(2), RuntimeConfig::default());
        let c = dual_codelet();
        calibrate(&f, task_of(&c, 9).footprint(), cpu_us, gpu_us);
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        push_on(&s, &f, task_of(&c, 3), victim);
        assert!(s.pop_for_worker(thief, &f.ctx()).is_none());
        assert_eq!(s.queue_len(victim), 1);
        assert_eq!(f.stats.snapshot().steals, 0);
    }

    #[test]
    fn steal_stays_within_architecture_class() {
        // A CPU worker must not steal a task placed on the GPU even though
        // the codelet has a CPU implementation: the charge was predicted
        // from the GPU profile.
        assert_not_stolen(100, 10, 2, 0);
    }

    #[test]
    fn gpu_worker_never_steals_a_cpu_placed_task() {
        // The mirror case: an idle GPU worker would run the task's CPU
        // implementation, timed with the GPU profile and recorded into
        // the CPU history.
        assert_not_stolen(10, 100, 0, 2);
    }

    /// Calibrates both classes, then ages the CPU key far past the
    /// freshness half-life by recording `aging` GPU samples (each record
    /// advances the registry's logical tick). GPU mean is `gpu_us`.
    fn stale_cpu_fixture(config: RuntimeConfig, cpu_us: u64, gpu_us: u64, aging: usize) -> Fixture {
        let f = Fixture::new(MachineConfig::c2050_platform(1), config);
        let c = dual_codelet();
        let fp = task_of(&c, 0).footprint();
        for _ in 0..3 {
            f.perf.record(
                PerfKey::new("k", ArchClass::Cpu, fp),
                VTime::from_micros(cpu_us),
            );
        }
        let gpu_key = PerfKey::new("k", ArchClass::Gpu("Tesla C2050".into()), fp);
        for _ in 0..aging {
            f.perf.record(gpu_key, VTime::from_micros(gpu_us));
        }
        f
    }

    #[test]
    fn epsilon_greedy_diverts_to_stale_loser() {
        // CPU is slow (loses the score race) and stale (explore-flagged);
        // with epsilon = 1.0 every opportunity diverts the task there to
        // refresh the model.
        let config = RuntimeConfig {
            explore_epsilon: 1.0,
            ..RuntimeConfig::default()
        };
        let f = stale_cpu_fixture(config, 100, 10, 16 * 1024);
        let est = f.perf.estimate(&PerfKey::new(
            "k",
            ArchClass::Cpu,
            task_of(&dual_codelet(), 0).footprint(),
        ));
        assert!(est.explore, "premise: CPU key must be stale");
        assert!(est.expected.is_some(), "premise: still calibrated");
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        s.push(&[task_of(&dual_codelet(), 0)], None, &f.ctx());
        assert_eq!(s.queue_len(0), 1, "stale CPU explored");
        assert_eq!(s.queue_len(1), 0);
    }

    #[test]
    fn exploration_off_keeps_stale_placement() {
        let config = RuntimeConfig {
            explore_epsilon: 0.0,
            ..RuntimeConfig::default()
        };
        let f = stale_cpu_fixture(config, 100, 10, 16 * 1024);
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        s.push(&[task_of(&dual_codelet(), 0)], None, &f.ctx());
        assert_eq!(s.queue_len(1), 1, "no exploration: best score wins");
        assert_eq!(s.queue_len(0), 0);
    }

    #[test]
    fn warm_confident_keys_never_touch_the_explore_counter() {
        // Both classes fresh and confident: placement must not consume an
        // epsilon opportunity (the warm hot path stays divert-free).
        let config = RuntimeConfig {
            explore_epsilon: 1.0,
            ..RuntimeConfig::default()
        };
        let f = stale_cpu_fixture(config, 100, 10, 8);
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        for i in 0..4 {
            s.push(&[task_of(&dual_codelet(), i)], None, &f.ctx());
        }
        assert_eq!(s.queue_len(1), 4, "all tasks stay on the better GPU");
        assert_eq!(s.explore_seq.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn recorded_graph_tasks_are_not_stolen() {
        let f = Fixture::new(MachineConfig::cpu_only(2), RuntimeConfig::default());
        let c = calibrated_cpu_codelet(&f);
        let mut t = TaskBuilder::new(&c).into_task(4);
        t.graph = Some(std::sync::Weak::new());
        let s = DmdaScheduler::new(2, false);
        push_on(&s, &f, Arc::new(t), 0);
        assert!(
            s.pop_for_worker(1, &f.ctx()).is_none(),
            "replay placement must stay pinned to its recorded worker"
        );
        assert_eq!(s.queue_len(0), 1);
    }

    #[test]
    fn steal_prefers_victim_with_resident_operands() {
        // 1 CPU + 3 GPUs: the thief is GPU worker 1 (memory node 1), the
        // victims GPU workers 2 and 3.
        let mut f = Fixture::new(MachineConfig::multi_gpu(1, 3), RuntimeConfig::default());
        f.stats = StatsCollector::new(f.machine.total_workers(), true);
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        let cold = DataHandle::new(1, vec![0f32; 256], 1024, f.machine.memory_nodes());
        let hot = DataHandle::new(2, vec![0f32; 256], 1024, f.machine.memory_nodes());
        // `hot` is resident on the thief's node before the steal.
        crate::coherence::make_valid(&hot, 1, AccessMode::Read, &f.topo, &f.stats, &f.memory);
        // Each task carries its placement, as a frozen replay's would, so
        // the push keeps it: the victims are chosen, not predicted.
        let placed_on = |id, h: &DataHandle, worker| {
            let t = task_on(&dual_codelet(), id, h);
            t.chosen.set(Some(ExecChoice {
                worker,
                arch: Arch::Gpu,
                pred_delta: VTime::from_micros(10),
            }));
            push_on(&s, &f, t, worker);
        };
        // Fixed-order stealing would hit worker 2 (the cold task) first.
        placed_on(10, &cold, 2);
        placed_on(11, &hot, 3);
        let stolen = s.pop_for_worker(1, &f.ctx()).expect("steal succeeds");
        assert_eq!(stolen.id, 11, "steals the task whose operand is resident");
        let snap = f.stats.snapshot();
        assert_eq!(snap.steals, 1);
        assert_eq!(snap.steal_resident_bytes, 1024);
        assert!(f.stats.trace.lock().iter().any(|e| matches!(
            e,
            TraceEvent::Steal {
                task: 11,
                thief: 1,
                victim: 3,
                resident_bytes: 1024,
            }
        )));
        // Once the stolen task is timed the thief is idle again, and the
        // only victim left is the cold one.
        s.task_timed(1, &stolen, stolen.chosen.get());
        let stolen = s
            .pop_for_worker(1, &f.ctx())
            .expect("cold steal still succeeds");
        assert_eq!(stolen.id, 10);
        assert_eq!(f.stats.snapshot().steals, 2);
    }

    // Readiness ordering (dmdar) below. c2050_platform(1): worker 0 = CPU,
    // worker 1 = GPU (memory node 1).

    fn gpu_codelet() -> Arc<Codelet> {
        Arc::new(Codelet::new("k").with_impl(Arch::Gpu, |_| {}))
    }

    fn task_on(codelet: &Arc<Codelet>, id: u64, h: &DataHandle) -> Arc<Task> {
        Arc::new(
            TaskBuilder::new(codelet)
                .access(h, AccessMode::Read)
                .into_task(id),
        )
    }

    /// A GPU fixture with a cold operand and a `hot` one resident on the
    /// GPU node (made valid there before any push unless `late_hot`).
    fn hot_and_cold(late_hot: bool) -> (Fixture, DataHandle, DataHandle) {
        let f = Fixture::new(MachineConfig::c2050_platform(1), RuntimeConfig::default());
        let cold = DataHandle::new(1, vec![0u8; 4 * 1024], 4 * 1024, 2);
        let hot = DataHandle::new(2, vec![0u8; 4 * 1024], 4 * 1024, 2);
        if !late_hot {
            crate::coherence::make_valid(&hot, 1, AccessMode::Read, &f.topo, &f.stats, &f.memory);
        }
        (f, cold, hot)
    }

    fn reorders(f: &Fixture) -> u64 {
        f.stats.sched_reorders.load(Ordering::Relaxed)
    }

    #[test]
    fn resident_operand_task_jumps_the_queue() {
        let (f, cold, hot) = hot_and_cold(false);
        let c = gpu_codelet();
        let s = DmdaScheduler::new(f.machine.total_workers(), true);
        s.push(&[task_on(&c, 0, &cold)], None, &f.ctx());
        s.push(&[task_on(&c, 1, &hot)], None, &f.ctx());

        let first = s.pop_for_worker(1, &f.ctx()).expect("queued");
        assert_eq!(first.id, 1, "resident-operand task dispatches first");
        assert_eq!(reorders(&f), 1);
        assert_eq!(
            f.stats.dispatch_resident_bytes.load(Ordering::Relaxed),
            4 * 1024
        );
        let second = s.pop_for_worker(1, &f.ctx()).expect("queued");
        assert_eq!(second.id, 0);
        // The non-jump dispatch did not count as a reorder.
        assert_eq!(reorders(&f), 1);
        assert_eq!(s.queue_len(1), 0);
    }

    #[test]
    fn dmda_mode_dispatches_fifo_and_never_reorders() {
        let (f, cold, hot) = hot_and_cold(false);
        let c = gpu_codelet();
        let s = DmdaScheduler::new(f.machine.total_workers(), false);
        s.push(&[task_on(&c, 0, &cold)], None, &f.ctx());
        s.push(&[task_on(&c, 1, &hot)], None, &f.ctx());
        assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, 0);
        assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, 1);
        assert_eq!(reorders(&f), 0);
    }

    #[test]
    fn priority_beats_readiness() {
        let (f, cold, hot) = hot_and_cold(false);
        let c = gpu_codelet();
        let s = DmdaScheduler::new(f.machine.total_workers(), true);
        s.push(&[task_on(&c, 0, &hot)], None, &f.ctx());
        let urgent = TaskBuilder::new(&c)
            .access(&cold, AccessMode::Read)
            .priority(5)
            .into_task(1);
        s.push(&[Arc::new(urgent)], None, &f.ctx());
        assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, 1);
        assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, 0);
        assert_eq!(reorders(&f), 0, "a priority jump is not a reorder");
    }

    #[test]
    fn equal_readiness_stays_fifo() {
        let (f, a, b) = hot_and_cold(true);
        let c = gpu_codelet();
        let s = DmdaScheduler::new(f.machine.total_workers(), true);
        s.push(&[task_on(&c, 0, &a)], None, &f.ctx());
        s.push(&[task_on(&c, 1, &b)], None, &f.ctx());

        assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, 0);
        assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, 1);
        assert_eq!(reorders(&f), 0, "ties break FIFO, not as reorders");
    }

    #[test]
    fn fetch_cost_prices_cheapest_route_per_operand() {
        // Two GPUs behind a peer link: an operand resident on the *other*
        // device is cheaper to fetch than an equal-sized one that must
        // come over the (higher-latency) host link.
        let f = Fixture::new(
            MachineConfig::c2050_platform_p2p(1, 2),
            RuntimeConfig::default(),
        );
        let peer_h = DataHandle::new(1, vec![0u8; 4 * 1024], 4 * 1024, 3);
        crate::coherence::make_valid(&peer_h, 2, AccessMode::Read, &f.topo, &f.stats, &f.memory);
        let host_h = DataHandle::new(2, vec![0u8; 4 * 1024], 4 * 1024, 3);

        let c = gpu_codelet();
        let t_peer = task_on(&c, 0, &peer_h);
        let t_host = task_on(&c, 1, &host_h);
        let ctx = f.ctx();
        let peer_cost = fetch_cost(1, &t_peer, VTime::ZERO, &ctx);
        let host_cost = fetch_cost(1, &t_host, VTime::ZERO, &ctx);
        assert!(peer_cost > VTime::ZERO);
        assert!(
            peer_cost < host_cost,
            "peer hop ({peer_cost:?}) must undercut the host link ({host_cost:?})"
        );
        // Already resident at the target node: nothing to fetch.
        assert_eq!(fetch_cost(2, &t_peer, VTime::ZERO, &ctx), VTime::ZERO);
    }

    #[test]
    fn aging_forces_fifo_pop_after_limit() {
        let (f, cold, hot) = hot_and_cold(false);
        let c = gpu_codelet();
        let s = DmdaScheduler::new(f.machine.total_workers(), true);
        // The cold task is pushed first, then a stream of hot tasks that
        // would each out-ready it forever without aging.
        s.push(&[task_on(&c, 0, &cold)], None, &f.ctx());
        let hot_tasks = AGE_LIMIT as u64 + 1;
        for i in 1..=hot_tasks {
            s.push(&[task_on(&c, i, &hot)], None, &f.ctx());
        }
        for i in 1..=AGE_LIMIT as u64 {
            assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, i);
        }
        // Front entry now skipped AGE_LIMIT times: dispatched FIFO even
        // though the last hot task's operand is resident.
        assert_eq!(
            s.pop_for_worker(1, &f.ctx()).unwrap().id,
            0,
            "aged-out task dispatches before a more-ready one"
        );
        assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, hot_tasks);
        // The forced FIFO pop is not a reorder; the jumps were.
        assert_eq!(reorders(&f), AGE_LIMIT as u64);
    }

    #[test]
    fn residency_change_after_push_is_read_at_pop() {
        // Readiness is priced when the worker pops, not when the task is
        // pushed: a replica that lands *after* the push must reorder the
        // queue at the next pop.
        let (f, cold, hot) = hot_and_cold(true);
        let c = gpu_codelet();
        let s = DmdaScheduler::new(f.machine.total_workers(), true);
        // Both tasks are cold at push time: equal scores, FIFO order.
        s.push(&[task_on(&c, 0, &cold)], None, &f.ctx());
        s.push(&[task_on(&c, 1, &hot)], None, &f.ctx());
        // Now the second task's operand becomes resident on the GPU node.
        crate::coherence::make_valid(&hot, 1, AccessMode::Read, &f.topo, &f.stats, &f.memory);

        let first = s.pop_for_worker(1, &f.ctx()).expect("queued");
        assert_eq!(first.id, 1, "the now-hot task jumps the cold one");
        assert_eq!(reorders(&f), 1);
        assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, 0);
    }

    #[test]
    fn cpu_lane_prices_a_device_written_operand_as_missing() {
        // A device write leaves main memory's buffer (and its accounting)
        // behind but makes that copy stale: the CPU lane must price the
        // operand as a fetch from the device, not as resident.
        let f = Fixture::new(MachineConfig::c2050_platform(1), RuntimeConfig::default());
        let written = DataHandle::new(1, vec![0u8; 4 * 1024], 4 * 1024, 2);
        let clean = DataHandle::new(2, vec![0u8; 4 * 1024], 4 * 1024, 2);
        f.memory.register_host(&written);
        f.memory.register_host(&clean);
        let done = crate::coherence::make_valid(
            &written,
            1,
            AccessMode::ReadWrite,
            &f.topo,
            &f.stats,
            &f.memory,
        );
        crate::coherence::mark_written(&written, 1, done, &f.stats, &f.memory);
        assert!(!written.valid_on(0), "premise: the host copy is stale");

        let c = Arc::new(Codelet::new("k").with_impl(Arch::Cpu, |_| {}));
        let s = DmdaScheduler::new(f.machine.total_workers(), true);
        push_on(&s, &f, task_on(&c, 0, &written), 0);
        push_on(&s, &f, task_on(&c, 1, &clean), 0);
        assert_eq!(s.pop_for_worker(0, &f.ctx()).unwrap().id, 1);
        assert_eq!(reorders(&f), 1);
        assert_eq!(s.pop_for_worker(0, &f.ctx()).unwrap().id, 0);
    }

    #[test]
    fn batch_push_places_scores_and_preserves_fifo() {
        let (f, cold, hot) = hot_and_cold(false);
        let c = gpu_codelet();
        let s = DmdaScheduler::new(f.machine.total_workers(), true);
        let batch = vec![
            task_on(&c, 0, &cold),
            task_on(&c, 1, &cold),
            task_on(&c, 2, &hot),
        ];
        s.push(&batch, None, &f.ctx());
        let targets: Vec<_> = batch
            .iter()
            .map(|t| t.chosen.get().unwrap().worker)
            .collect();
        assert_eq!(targets, [1; 3], "GPU-only tasks target worker 1");
        assert_eq!(s.queue_len(1), 3);

        // Hot entry jumps; the two equal cold entries then drain FIFO.
        assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, 2);
        assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, 0);
        assert_eq!(s.pop_for_worker(1, &f.ctx()).unwrap().id, 1);
    }
}
