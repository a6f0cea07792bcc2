//! Persistent task graphs: build-once / execute-many replay.
//!
//! Iterative applications (the paper's ODE solver, §V-C) resubmit the same
//! small DAG thousands of times. Going through [`crate::TaskBuilder::submit`]
//! every iteration pays, per task, an allocation, codelet bookkeeping,
//! sequential-consistency dependency discovery against the handles' access
//! histories, eligible-worker enumeration and `PerfKey` construction —
//! none of which changes between iterations. A [`TaskGraph`] factors all
//! of that out:
//!
//! 1. **Record** the DAG once: declare data *slots* ([`TaskGraph::slot`]),
//!    add tasks over those slots ([`TaskGraph::add`]). Dependencies are
//!    derived from the operand access modes with the same
//!    sequential-consistency rules the submit path uses, but computed a
//!    single time.
//! 2. **Instantiate** against a runtime ([`TaskGraph::instantiate`]): each
//!    node becomes one long-lived [`crate::Task`] with its eligible-worker
//!    table and performance-model keys precomputed
//!    ([`crate::task::StaticPlacement`]) and its dependents wired onto it
//!    once, and each slot one registered [`DataHandle`] private to the
//!    instance.
//! 3. **Replay** ([`GraphInstance::execute`] / `execute_many`): each
//!    iteration rewinds the tasks' dependency counters and releases the
//!    root frontier in one call. Completions then release dependents
//!    exactly as submitted tasks do — the same per-task successor lists,
//!    the same `RuntimeInner::release` — without touching the handles'
//!    access histories; the instance only counts the iteration down.
//!    Between replays, operands are *rebound* wholesale with
//!    [`GraphInstance::bind`] (no device writeback — the old contents are
//!    declared dead).
//!
//! After `freeze_after` replays (default 4, past the scheduler's history
//! calibration threshold), the instance stops re-running placement: each
//! task keeps the placement the previous iteration chose, and a scheduler
//! re-enqueues a task that carries one on that worker.

pub mod instance;

pub use instance::{GraphInstance, RunRecord};

use crate::codelet::Codelet;
use crate::handle::{AccessMode, Data, DataHandle};
use crate::job::JobCore;
use crate::runtime::Runtime;
use peppher_sim::KernelCost;
use std::any::Any;
use std::sync::Arc;

/// A data operand position in a [`TaskGraph`], bound to a fresh
/// [`DataHandle`] when the graph is instantiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphSlot(pub(crate) usize);

/// A node position in a [`TaskGraph`] (addition order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphNodeId(pub(crate) u32);

/// Registers a slot's initial payload at instantiation time, owned by the
/// given job id.
type SlotMake = Box<dyn Fn(&Runtime, u64) -> DataHandle + Send + Sync>;

/// How a slot's initial payload is registered at instantiation time. The
/// job id makes the instance's handles job-owned, so replays count
/// against the instantiating job's memory quota.
struct SlotSpec {
    make: SlotMake,
}

/// One recorded node: a codelet invocation over graph slots. Built with
/// the same fluent surface as [`crate::TaskBuilder`], minus submission.
pub struct GraphTask {
    pub(crate) codelet: Arc<Codelet>,
    pub(crate) accesses: Vec<(GraphSlot, AccessMode)>,
    pub(crate) cost: KernelCost,
    pub(crate) priority: i32,
    pub(crate) arg: Option<Arc<dyn Any + Send + Sync>>,
    pub(crate) use_history: Option<bool>,
}

impl GraphTask {
    /// Starts a recorded task for `codelet`.
    pub fn new(codelet: &Arc<Codelet>) -> Self {
        GraphTask {
            codelet: Arc::clone(codelet),
            accesses: Vec::new(),
            cost: KernelCost::new(0.0, 0.0, 0.0),
            priority: 0,
            arg: None,
            use_history: None,
        }
    }

    /// Appends an operand; buffer order in the kernel matches call order.
    pub fn access(mut self, slot: GraphSlot, mode: AccessMode) -> Self {
        self.accesses.push((slot, mode));
        self
    }

    /// Attaches the scalar argument pack, shared across every replay
    /// iteration (kernels must not rely on per-iteration argument state).
    pub fn arg<T: Any + Send + Sync>(mut self, arg: T) -> Self {
        self.arg = Some(Arc::new(arg));
        self
    }

    /// Sets the work descriptor used for virtual timing.
    pub fn cost(mut self, cost: KernelCost) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the scheduling priority.
    pub fn priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    /// Overrides the runtime's `useHistoryModels` flag for this task.
    pub fn use_history(mut self, flag: bool) -> Self {
        self.use_history = Some(flag);
        self
    }
}

/// A recorded DAG: data slots plus tasks over them, with dependency edges
/// derived once from the access modes. Instantiate against a [`Runtime`]
/// to get a replayable [`GraphInstance`].
#[derive(Default)]
pub struct TaskGraph {
    slots: Vec<SlotSpec>,
    pub(crate) nodes: Vec<GraphTask>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Declares a data slot whose instances start out holding `init`.
    pub fn slot<T: Data>(&mut self, init: T) -> GraphSlot {
        let id = GraphSlot(self.slots.len());
        self.slots.push(SlotSpec {
            make: Box::new(move |rt, job| {
                let bytes = init.data_bytes();
                rt.register_owned(init.clone(), bytes, job)
            }),
        });
        id
    }

    /// Declares a data slot with an explicit modelled byte size, for
    /// payload types without a [`Data`] impl.
    pub fn slot_sized<T: Clone + Send + Sync + 'static>(
        &mut self,
        init: T,
        bytes: usize,
    ) -> GraphSlot {
        let id = GraphSlot(self.slots.len());
        self.slots.push(SlotSpec {
            make: Box::new(move |rt, job| rt.register_owned(init.clone(), bytes, job)),
        });
        id
    }

    /// Number of declared slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of recorded tasks.
    pub fn task_count(&self) -> usize {
        self.nodes.len()
    }

    /// Records a task. Panics on an out-of-range slot or on aliased
    /// writable operands (the same rejection the submit path applies).
    pub fn add(&mut self, task: GraphTask) -> GraphNodeId {
        for (i, (slot, mode)) in task.accesses.iter().enumerate() {
            assert!(
                slot.0 < self.slots.len(),
                "graph task `{}` uses undeclared slot {}",
                task.codelet.name,
                slot.0
            );
            if mode.writes() {
                for (s2, _) in task.accesses.iter().skip(i + 1) {
                    assert!(
                        s2.0 != slot.0,
                        "graph task `{}` passes slot {} twice with a writable access",
                        task.codelet.name,
                        slot.0
                    );
                }
            }
        }
        let id = GraphNodeId(self.nodes.len() as u32);
        self.nodes.push(task);
        id
    }

    /// Creates a replayable instance: registers one handle per slot and one
    /// long-lived task per node, all placement tables precomputed. The
    /// instance belongs to the runtime's implicit default job; multi-tenant
    /// callers use [`crate::JobHandle::instantiate`].
    pub fn instantiate(&self, rt: &Runtime) -> GraphInstance {
        self.instantiate_for(rt, &Arc::clone(&rt.inner.jobs.default))
    }

    /// Job-scoped instantiation: slot handles are owned by `job` (quota
    /// accounting, reclaim on cancel) and every replay iteration counts
    /// toward the job's `wait` and fair-share account.
    pub(crate) fn instantiate_for(&self, rt: &Runtime, job: &Arc<JobCore>) -> GraphInstance {
        let handles: Vec<DataHandle> = self.slots.iter().map(|s| (s.make)(rt, job.id)).collect();
        instance::instantiate(self, handles, rt, job)
    }
}

/// Derives the dependency structure from the recorded access modes with
/// the submit path's sequential-consistency rules, applied per slot in
/// node order: a read depends on the slot's last writer; a write depends
/// on the last writer *and* every reader since (then becomes the new last
/// writer). Returns `(succs, preds, roots)`: per-node successor lists
/// (deduplicated), per-node predecessor counts, and the nodes with no
/// predecessors.
pub(crate) fn wire(nodes: &[GraphTask], nslots: usize) -> (Vec<Vec<u32>>, Vec<u32>, Vec<u32>) {
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
    let mut preds: Vec<u32> = vec![0; nodes.len()];
    let mut last_writer: Vec<Option<u32>> = vec![None; nslots];
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); nslots];

    for (i, node) in nodes.iter().enumerate() {
        let i = i as u32;
        for &(slot, mode) in &node.accesses {
            let s = slot.0;
            let mut deps: Vec<u32> = Vec::new();
            if let Some(w) = last_writer[s] {
                deps.push(w);
            }
            if mode.writes() {
                deps.extend(readers[s].iter().copied());
                readers[s].clear();
                last_writer[s] = Some(i);
            }
            if mode.reads() && !mode.writes() && !readers[s].contains(&i) {
                readers[s].push(i);
            }
            for d in deps {
                if d != i && !succs[d as usize].contains(&i) {
                    succs[d as usize].push(i);
                    preds[i as usize] += 1;
                }
            }
        }
    }

    let roots = (0..nodes.len() as u32)
        .filter(|&i| preds[i as usize] == 0)
        .collect();
    (succs, preds, roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::Arch;

    fn cod(name: &str) -> Arc<Codelet> {
        Arc::new(Codelet::new(name).with_impl(Arch::Cpu, |_| {}))
    }

    fn graph_with(accesses: &[&[(usize, AccessMode)]]) -> TaskGraph {
        let mut g = TaskGraph::new();
        let nslots = accesses
            .iter()
            .flat_map(|a| a.iter().map(|&(s, _)| s + 1))
            .max()
            .unwrap_or(0);
        let slots: Vec<GraphSlot> = (0..nslots).map(|_| g.slot(vec![0.0f32; 4])).collect();
        for (i, task) in accesses.iter().enumerate() {
            let mut t = GraphTask::new(&cod(&format!("t{i}")));
            for &(s, m) in task.iter() {
                t = t.access(slots[s], m);
            }
            g.add(t);
        }
        g
    }

    #[test]
    fn wire_chains_writers() {
        // t0 writes s0; t1 reads s0, writes s1; t2 reads s1.
        let g = graph_with(&[
            &[(0, AccessMode::Write)],
            &[(0, AccessMode::Read), (1, AccessMode::Write)],
            &[(1, AccessMode::Read)],
        ]);
        let (succs, preds, roots) = wire(&g.nodes, g.slot_count());
        assert_eq!(succs, vec![vec![1], vec![2], vec![]]);
        assert_eq!(preds, vec![0, 1, 1]);
        assert_eq!(roots, vec![0]);
    }

    #[test]
    fn wire_fans_out_readers_and_joins_on_write() {
        // t0 writes s0; t1 and t2 read s0; t3 writes s0 (waits for both
        // readers, write-after-read).
        let g = graph_with(&[
            &[(0, AccessMode::Write)],
            &[(0, AccessMode::Read)],
            &[(0, AccessMode::Read)],
            &[(0, AccessMode::Write)],
        ]);
        let (succs, preds, roots) = wire(&g.nodes, g.slot_count());
        assert_eq!(succs[0], vec![1, 2, 3]); // w-a-w edge 0→3 plus readers
        assert_eq!(succs[1], vec![3]);
        assert_eq!(succs[2], vec![3]);
        assert_eq!(preds, vec![0, 1, 1, 3]);
        assert_eq!(roots, vec![0]);
    }

    #[test]
    fn wire_dedups_multi_slot_edges() {
        // t1 reads two slots both written by t0: one edge, not two.
        let g = graph_with(&[
            &[(0, AccessMode::Write), (1, AccessMode::Write)],
            &[(0, AccessMode::Read), (1, AccessMode::Read)],
        ]);
        let (succs, preds, _) = wire(&g.nodes, g.slot_count());
        assert_eq!(succs[0], vec![1]);
        assert_eq!(preds[1], 1);
    }

    #[test]
    fn wire_readwrite_acts_as_both() {
        // t0 writes s0; t1 read-writes s0; t2 reads s0 → chain 0→1→2.
        let g = graph_with(&[
            &[(0, AccessMode::Write)],
            &[(0, AccessMode::ReadWrite)],
            &[(0, AccessMode::Read)],
        ]);
        let (succs, preds, roots) = wire(&g.nodes, g.slot_count());
        assert_eq!(succs, vec![vec![1], vec![2], vec![]]);
        assert_eq!(preds, vec![0, 1, 1]);
        assert_eq!(roots, vec![0]);
    }

    #[test]
    #[should_panic(expected = "twice with a writable access")]
    fn add_rejects_aliased_writes() {
        let mut g = TaskGraph::new();
        let s = g.slot(vec![0.0f32; 4]);
        g.add(
            GraphTask::new(&cod("t"))
                .access(s, AccessMode::Write)
                .access(s, AccessMode::Read),
        );
    }

    #[test]
    fn independent_tasks_are_all_roots() {
        let g = graph_with(&[&[(0, AccessMode::Write)], &[(1, AccessMode::Write)]]);
        let (_, preds, roots) = wire(&g.nodes, g.slot_count());
        assert_eq!(preds, vec![0, 0]);
        assert_eq!(roots, vec![0, 1]);
    }
}
