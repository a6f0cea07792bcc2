//! Pluggable task schedulers.
//!
//! The paper's evaluation rests on the runtime's "performance-aware dynamic
//! scheduling" — reproduced here by [`dmda`] (deque model data aware, the
//! StarPU policy PEPPHER used): it places each ready task where its
//! *predicted completion time* — queue availability + data-transfer cost +
//! expected execution time from history models — is smallest. The same
//! policy with readiness ordering on is `dmdar` ("dmda ready"): each
//! worker's queue dispatches tasks whose operands are already resident on
//! the worker's memory node first. [`eager`] is the greedy baseline: one
//! central queue, no performance model. Every policy keeps its tasks in
//! one structure, the `queue` module's, shared by the tasks of every job,
//! and the one steal path is dmda's steal-from-richest.
//!
//! # The pull model
//!
//! Scheduling is split into two halves. [`Scheduler::push`] takes each
//! task once, when its dependencies are all satisfied (a
//! simultaneously-ready batch in one call); the policies that *place*
//! (dmda, dmdar) decide the worker there, unless the task already
//! carries a placement (a frozen replay), and enqueue onto that worker's
//! ready queue. [`Scheduler::pop_for_worker`] is polled by each idle
//! worker — the queue-aware half, where a policy may reorder or steal.
//! Keeping the ordering decision on the pop path means it sees the
//! *current* memory state, not the state at submission time: that is what
//! lets dmdar run resident-operand tasks first and turn the eviction
//! machinery into avoided transfers instead of survived ones.
//!
//! # Online adaptation
//!
//! The placing policies consult confidence-tracked history models
//! ([`crate::perfmodel`]): a key whose confidence has decayed (never
//! calibrated, freshly drift-decayed, or stale past its freshness
//! half-life) is flagged for *exploration*, and dmda/dmdar periodically
//! divert one flagged candidate that lost the score race onto its
//! would-be worker (ε-greedy at
//! [`crate::runtime::RuntimeConfig::explore_epsilon`]). The diversion
//! counter only advances when a flagged option actually loses, so a
//! fully-calibrated steady state pays nothing — the §5e hot-path floors
//! still hold with adaptation enabled.

pub mod dmda;
pub mod eager;
mod queue;

use crate::codelet::{Arch, ArchClass};
use crate::coherence::Topology;
use crate::handle::{AccessMode, DataHandle};
use crate::intern::Sym;
use crate::memory::MemoryManager;
use crate::perfmodel::{ArchClassId, PerfRegistry};
use crate::runtime::RuntimeConfig;
use crate::stats::StatsCollector;
use crate::task::{ExecChoice, Task};
use peppher_sim::{MachineConfig, VTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-worker virtual clocks, readable without a lock.
///
/// Each slot is monotonically non-decreasing; writers advance it with a
/// `fetch_max`, so a concurrent reader sees a monotone (possibly a hair
/// stale) value. This keeps the placement loop — which reads every
/// candidate worker's clock for every ready task — from serializing
/// against the workers' post-task timeline updates, as the mutex that
/// used to guard the vector did.
#[derive(Debug)]
pub struct Timelines(Vec<AtomicU64>);

impl Timelines {
    /// All clocks at zero.
    pub fn new(workers: usize) -> Self {
        Timelines((0..workers).map(|_| AtomicU64::new(0)).collect())
    }

    /// Worker `w`'s current virtual clock.
    pub fn get(&self, w: usize) -> VTime {
        VTime::from_nanos(self.0[w].load(Ordering::Acquire))
    }

    /// Advances worker `w`'s clock to at least `to`; clocks never rewind.
    pub fn advance(&self, w: usize, to: VTime) {
        self.0[w].fetch_max(to.as_nanos(), Ordering::AcqRel);
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the machine has no workers (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Which scheduling policy a runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Central queue; workers grab the first task they can run.
    Eager,
    /// Performance-model-aware earliest-finish-time placement (the paper's
    /// default dynamic-composition mechanism).
    Dmda,
    /// `dmda` with readiness ordering: among equal priorities, tasks whose
    /// operands are already resident on the worker's memory node dispatch
    /// first (StarPU's "dmda ready").
    Dmdar,
}

impl std::str::FromStr for SchedulerKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "eager" => Ok(SchedulerKind::Eager),
            "dmda" => Ok(SchedulerKind::Dmda),
            "dmdar" => Ok(SchedulerKind::Dmdar),
            other => Err(format!(
                "unknown scheduler `{other}` (try eager|dmda|dmdar)"
            )),
        }
    }
}

/// Read-only runtime context the scheduler consults.
pub struct SchedCtx<'a> {
    /// Platform description.
    pub machine: &'a MachineConfig,
    /// Execution-history models.
    pub perf: &'a PerfRegistry,
    /// Actual per-worker virtual clocks.
    pub timelines: &'a Timelines,
    /// Transfer fabric (for cost estimates).
    pub topo: &'a Topology,
    /// Memory-node occupancy (for eviction-pressure estimates).
    pub memory: &'a MemoryManager,
    /// Runtime configuration (history-model toggle etc.).
    pub config: &'a RuntimeConfig,
    /// Statistics sink for queue-depth / reorder instrumentation.
    pub stats: &'a StatsCollector,
    /// Pre-interned per-worker architecture classes (no `String` clone per
    /// placement decision).
    pub classes: &'a WorkerClasses,
}

/// Pre-interned [`ArchClassId`]s for every worker of a machine, computed
/// once at runtime construction so the dispatch path never re-interns or
/// clones GPU model names.
#[derive(Debug)]
pub struct WorkerClasses {
    team: ArchClassId,
    per_worker: Vec<ArchClassId>,
}

impl WorkerClasses {
    /// Builds the table for `machine`.
    pub fn new(machine: &MachineConfig) -> Self {
        let per_worker = (0..machine.total_workers())
            .map(|w| {
                if w >= machine.cpu_workers {
                    ArchClassId::Gpu(Sym::intern(&machine.worker_profile(w).name))
                } else {
                    ArchClassId::Cpu
                }
            })
            .collect();
        WorkerClasses {
            team: ArchClassId::CpuTeam(machine.cpu_workers),
            per_worker,
        }
    }

    /// The performance-model class of running `arch` on `worker` —
    /// the `Copy` equivalent of [`arch_class`].
    pub fn class_id(&self, arch: Arch, worker: usize) -> ArchClassId {
        match arch {
            Arch::Cpu => ArchClassId::Cpu,
            Arch::CpuTeam => self.team,
            Arch::Gpu => self.per_worker[worker],
        }
    }
}

/// A scheduling policy over per-worker ready queues.
pub trait Scheduler: Send + Sync {
    /// Accepts tasks whose dependencies are all satisfied — one, or a
    /// simultaneously-ready batch (a submitted sub-graph's frontier, a
    /// replay seed, a fan-out). Placing policies decide each task's worker
    /// here and record it in `task.chosen`, unless the task already
    /// carries a placement (a frozen graph replay), which they keep; a
    /// task's wake target is the worker its `chosen` names, or any
    /// eligible worker when it has none (central queue). Every policy
    /// takes each queue lock once for the whole batch.
    ///
    /// `releaser` is the worker whose completion released the batch, if a
    /// worker's did. Placing policies break ties toward it: it is busy, so
    /// its next pop takes the task without a wakeup.
    fn push(&self, tasks: &[Arc<Task>], releaser: Option<usize>, ctx: &SchedCtx<'_>);
    /// Hands worker `worker` its next task, if any.
    fn pop_for_worker(&self, worker: usize, ctx: &SchedCtx<'_>) -> Option<Arc<Task>>;
    /// Notifies the policy that `task`'s contribution is now reflected in
    /// worker `worker`'s virtual timeline (so load predictions charged at
    /// push time can be released without double counting). `choice` is the
    /// task's placement decision, read from `task.chosen` once per task by
    /// the worker to pick the architecture.
    fn task_timed(&self, _worker: usize, _task: &Task, _choice: Option<ExecChoice>) {}

    /// The predicted work still charged to `worker` (test hook: a drained
    /// runtime must have released every charge).
    #[cfg(test)]
    fn queued_charge(&self, _worker: usize) -> VTime {
        VTime::ZERO
    }
}

/// Instantiates the policy for a machine.
pub fn make_scheduler(kind: SchedulerKind, machine: &MachineConfig) -> Box<dyn Scheduler> {
    let workers = machine.total_workers();
    match kind {
        SchedulerKind::Eager => Box::new(eager::EagerScheduler::new()),
        SchedulerKind::Dmda => Box::new(dmda::DmdaScheduler::new(workers, false)),
        SchedulerKind::Dmdar => Box::new(dmda::DmdaScheduler::new(workers, true)),
    }
}

/// Sums, over the read-mode operands of `accesses`, the bytes with a valid
/// replica at `node` — the residency figure of dispatch stats and steal
/// ranking. Write-only operands are skipped: they allocate without a copy,
/// so their residency saves no transfer.
pub(crate) fn resident_read_bytes(node: usize, accesses: &[(DataHandle, AccessMode)]) -> u64 {
    accesses
        .iter()
        .filter(|(h, m)| m.reads() && h.valid_on(node))
        .map(|(h, _)| h.bytes() as u64)
        .sum()
}

/// The (worker, architecture) pairs that could execute `task` on `machine`.
/// A `CpuTeam` implementation is represented by its leader, CPU worker 0.
/// Recorded graph tasks return their placement table computed once at
/// instantiation instead of re-enumerating.
pub fn options_for(task: &Task, machine: &MachineConfig) -> Vec<(usize, Arch)> {
    let mut opts = Vec::new();
    options_into(task, machine, &mut opts);
    opts
}

/// [`options_for`] writing into a caller-owned buffer, for hot paths that
/// enumerate options per task and do not want an allocation each time.
pub(crate) fn options_into(task: &Task, machine: &MachineConfig, opts: &mut Vec<(usize, Arch)>) {
    match &task.placement {
        Some(p) => opts.extend_from_slice(&p.options),
        None => opts.extend(enumerate_options(task, machine)),
    }
}

/// Whether some worker of `machine` could execute `task` (an ordinary,
/// unrecorded task): [`options_for`] is non-empty, without building it.
pub(crate) fn has_option(task: &Task, machine: &MachineConfig) -> bool {
    enumerate_options(task, machine).next().is_some()
}

fn enumerate_options<'a>(
    task: &'a Task,
    machine: &'a MachineConfig,
) -> impl Iterator<Item = (usize, Arch)> + 'a {
    [Arch::Cpu, Arch::CpuTeam, Arch::Gpu]
        .into_iter()
        .filter(|&arch| task.codelet.has_arch(arch))
        .flat_map(move |arch| {
            arch_workers(arch, machine)
                .filter(|&w| task.force_worker.is_none_or(|fw| fw == w))
                .map(move |w| (w, arch))
        })
}

/// The workers an `arch` implementation can run on: every CPU worker, the
/// team leader (CPU worker 0), or every GPU worker.
fn arch_workers(arch: Arch, machine: &MachineConfig) -> std::ops::Range<usize> {
    match arch {
        Arch::Cpu => 0..machine.cpu_workers,
        Arch::CpuTeam => 0..1,
        Arch::Gpu => machine.cpu_workers..machine.total_workers(),
    }
}

/// Whether `(worker, arch)` is one of the options [`options_for`]
/// enumerates for an ordinary (unrecorded) task.
pub(crate) fn is_option(task: &Task, machine: &MachineConfig, worker: usize, arch: Arch) -> bool {
    task.codelet.has_arch(arch)
        && arch_workers(arch, machine).contains(&worker)
        && task.force_worker.is_none_or(|fw| fw == worker)
}

/// The performance-model architecture class of an option.
pub fn arch_class(arch: Arch, machine: &MachineConfig, worker: usize) -> ArchClass {
    match arch {
        Arch::Cpu => ArchClass::Cpu,
        Arch::CpuTeam => ArchClass::CpuTeam(machine.cpu_workers),
        Arch::Gpu => ArchClass::Gpu(machine.worker_profile(worker).name.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::Codelet;
    use crate::task::TaskBuilder;

    fn task_with(archs: &[Arch]) -> Task {
        let mut c = Codelet::new("t");
        for &a in archs {
            c = c.with_impl(a, |_| {});
        }
        TaskBuilder::new(&Arc::new(c)).into_task(0)
    }

    #[test]
    fn options_enumerate_workers_per_arch() {
        let m = MachineConfig::c2050_platform(4);
        let t = task_with(&[Arch::Cpu, Arch::Gpu]);
        let opts = options_for(&t, &m);
        assert_eq!(opts.len(), 5); // 4 CPU + 1 GPU
        assert!(opts.contains(&(4, Arch::Gpu)));
    }

    #[test]
    fn team_option_is_leader_only() {
        let m = MachineConfig::c2050_platform(4);
        let t = task_with(&[Arch::CpuTeam]);
        assert_eq!(options_for(&t, &m), vec![(0, Arch::CpuTeam)]);
    }

    #[test]
    fn forced_worker_filters_options() {
        let m = MachineConfig::c2050_platform(4);
        let mut c = Codelet::new("t");
        c = c.with_impl(Arch::Cpu, |_| {});
        c = c.with_impl(Arch::Gpu, |_| {});
        let t = TaskBuilder::new(&Arc::new(c)).on_worker(4).into_task(0);
        assert_eq!(options_for(&t, &m), vec![(4, Arch::Gpu)]);
        assert!(is_option(&t, &m, 4, Arch::Gpu));
        assert!(!is_option(&t, &m, 0, Arch::Cpu), "forced elsewhere");
    }

    #[test]
    fn resident_read_bytes_follow_valid_masks_and_skip_write_only_operands() {
        let a = DataHandle::new(1, vec![0u8; 4], 4 * 1024, 2);
        let b = DataHandle::new(2, vec![0u8; 8], 8 * 1024, 2);
        let both = vec![
            (a.clone(), AccessMode::Read),
            (b.clone(), AccessMode::ReadWrite),
        ];
        assert_eq!(resident_read_bytes(0, &both), 12 * 1024, "host masters");
        assert_eq!(resident_read_bytes(1, &both), 0);
        // A write-only operand never counts: it allocates without a copy.
        assert_eq!(resident_read_bytes(0, &[(b, AccessMode::Write)]), 0);
    }

    #[test]
    fn scheduler_kind_parses() {
        assert_eq!(
            "dmda".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::Dmda
        );
        assert_eq!(
            "dmdar".parse::<SchedulerKind>().unwrap(),
            SchedulerKind::Dmdar
        );
        assert!("bogus".parse::<SchedulerKind>().is_err());
        let msg = "bogus".parse::<SchedulerKind>().unwrap_err();
        assert!(msg.contains("dmdar"), "error message lists every policy");
    }

    #[test]
    fn arch_class_names_gpu_model() {
        let m = MachineConfig::c1060_platform(2);
        assert_eq!(
            arch_class(Arch::Gpu, &m, 2),
            ArchClass::Gpu("Tesla C1060".into())
        );
        assert_eq!(arch_class(Arch::CpuTeam, &m, 0), ArchClass::CpuTeam(2));
    }

    #[test]
    fn worker_classes_match_arch_class() {
        let m = MachineConfig::c1060_platform(2);
        let classes = WorkerClasses::new(&m);
        for w in 0..m.total_workers() {
            for arch in [Arch::Cpu, Arch::CpuTeam, Arch::Gpu] {
                // GPU class is only meaningful for GPU workers.
                if arch == Arch::Gpu && w < m.cpu_workers {
                    continue;
                }
                assert_eq!(
                    classes.class_id(arch, w).to_class(),
                    arch_class(arch, &m, w),
                    "worker {w} arch {arch:?}"
                );
            }
        }
    }
}
