//! Incremental residency index for pop-path locality scoring.
//!
//! `dmdar` prices every queued task by where its read operands currently
//! live. Asking the memory manager per operand per candidate per pop would
//! lock a node map for every probe — O(queue depth) work that grows with
//! load, exactly when the scheduler can least afford it. [`LocalityIndex`]
//! inverts the bookkeeping: it keeps a per-handle source list (`node →
//! accounted bytes`) synchronized against the memory manager's residency
//! epoch via the [`super::ResidencyDelta`] log, so a pop pays O(changed
//! replicas) instead of O(resident replicas), and the index reports
//! exactly *which* handles moved so the scheduler can rescore only the
//! queue entries that reference them.
//!
//! One index instance per [`MemoryManager`]: [`MemoryManager::
//! take_residency_deltas`] drains a single shared log, so two indexes on
//! the same manager would each see half the mutations.

use super::MemoryManager;
use std::collections::HashMap;

/// Per-handle residency index, kept current by applying the memory
/// manager's delta log instead of rescanning its nodes (see module docs).
pub struct LocalityIndex {
    /// handle id → sources `(node, accounted bytes)`. A handle lives on a
    /// handful of nodes at most, so a small vec beats a map per handle.
    resident: HashMap<u64, Vec<(usize, u64)>>,
    /// The residency epoch the index was last synchronized to.
    synced_epoch: u64,
}

impl LocalityIndex {
    /// Builds an index over `memory`'s current residency and turns on its
    /// delta log. Logging is enabled *before* the seeding walk over the
    /// node maps: a mutation racing the walk is then replayed by the first
    /// [`LocalityIndex::sync`], which absolute deltas absorb harmlessly.
    pub fn new(memory: &MemoryManager) -> Self {
        memory.enable_residency_log();
        let epoch = memory.epoch();
        let mut resident: HashMap<u64, Vec<(usize, u64)>> = HashMap::new();
        memory.for_each_resident(|node, id, bytes| {
            resident.entry(id).or_default().push((node, bytes));
        });
        LocalityIndex {
            resident,
            synced_epoch: epoch,
        }
    }

    /// Applies every pending residency delta and returns the handle ids
    /// whose residency changed (with duplicates when a handle moved more
    /// than once). The fast path — epoch unmoved since the last sync — is
    /// one atomic load.
    pub fn sync(&mut self, memory: &MemoryManager) -> Vec<u64> {
        let epoch = memory.epoch();
        if epoch == self.synced_epoch {
            return Vec::new();
        }
        self.synced_epoch = epoch;
        let deltas = memory.take_residency_deltas();
        let mut touched = Vec::with_capacity(deltas.len());
        for d in deltas {
            touched.push(d.handle);
            let sources = self.resident.entry(d.handle).or_default();
            match sources.iter_mut().find(|(n, _)| *n == d.node) {
                Some(entry) if d.bytes == 0 => {
                    let node = entry.0;
                    sources.retain(|(n, _)| *n != node);
                }
                Some(entry) => entry.1 = d.bytes,
                None if d.bytes > 0 => sources.push((d.node, d.bytes)),
                None => {}
            }
            if sources.is_empty() {
                self.resident.remove(&d.handle);
            }
        }
        touched
    }

    /// Accounted bytes of `handle_id`'s replica at `node` (0 when absent).
    pub fn resident_bytes(&self, node: usize, handle_id: u64) -> u64 {
        self.resident
            .get(&handle_id)
            .and_then(|s| s.iter().find(|(n, _)| *n == node))
            .map(|(_, b)| *b)
            .unwrap_or(0)
    }

    /// Every `(node, accounted bytes)` replica of `handle_id`.
    pub fn sources(&self, handle_id: u64) -> &[(usize, u64)] {
        self.resident.get(&handle_id).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::super::EvictionPolicy;
    use super::*;
    use crate::coherence::{self, Topology};
    use crate::handle::{AccessMode, DataHandle};
    use crate::stats::StatsCollector;
    use peppher_sim::MachineConfig;
    use proptest::prelude::*;

    fn fixture(budget: u64) -> (MachineConfig, Topology, StatsCollector, MemoryManager) {
        let m = MachineConfig::multi_gpu(1, 2).with_device_mem(budget);
        let topo = Topology::new(&m);
        let stats = StatsCollector::new(m.total_workers(), false);
        let mm = MemoryManager::new(&m, EvictionPolicy::Lru, true);
        (m, topo, stats, mm)
    }

    fn handle(id: u64, kib: usize, nodes: usize) -> DataHandle {
        DataHandle::new(id, vec![id as f32; kib * 256], kib * 1024, nodes)
    }

    #[test]
    fn index_tracks_add_and_evict() {
        let (m, topo, stats, mm) = fixture(10 * 1024);
        let mut idx = LocalityIndex::new(&mm);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        let touched = idx.sync(&mm);
        assert!(touched.contains(&1));
        assert_eq!(idx.resident_bytes(1, 1), 4 * 1024);
        assert_eq!(idx.resident_bytes(2, 1), 0);

        // Second replica on the other device node.
        coherence::make_valid(&a, 2, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&b, 1, AccessMode::Read, &topo, &stats, &mm);
        idx.sync(&mm);
        assert_eq!(idx.resident_bytes(2, 1), 4 * 1024);
        assert_eq!(idx.resident_bytes(1, 2), 4 * 1024);
        assert_eq!(idx.sources(1), &[(1, 4 * 1024), (2, 4 * 1024)]);

        // Eviction under pressure must retire the index entry too.
        let c = handle(3, 4, m.memory_nodes());
        coherence::make_valid(&c, 1, AccessMode::Read, &topo, &stats, &mm);
        let touched = idx.sync(&mm);
        assert!(!touched.is_empty());
        for node in 1..m.memory_nodes() {
            for id in 1..=3 {
                assert_eq!(
                    idx.resident_bytes(node, id),
                    oracle(&mm, node, id),
                    "node {node} handle {id}"
                );
            }
        }
    }

    /// Accounted bytes of `id` at `node` straight from the memory manager.
    fn oracle(mm: &MemoryManager, node: usize, id: u64) -> u64 {
        let mut bytes = 0;
        mm.for_each_resident(|n, h, b| {
            if (n, h) == (node, id) {
                bytes = b;
            }
        });
        bytes
    }

    #[test]
    fn sync_without_changes_is_empty_and_cheap() {
        let (m, topo, stats, mm) = fixture(64 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        let mut idx = LocalityIndex::new(&mm);
        idx.sync(&mm);
        assert!(idx.sync(&mm).is_empty());
        // Pins are invisible to residency and must not dirty the index.
        mm.pin(1, &a);
        assert!(idx.sync(&mm).is_empty());
        mm.unpin(1, a.id());
    }

    #[test]
    fn seed_snapshot_covers_preexisting_residency() {
        let (m, topo, stats, mm) = fixture(64 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        mm.register_host(&a);
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        // Index created *after* the residency existed.
        let mut idx = LocalityIndex::new(&mm);
        assert_eq!(idx.resident_bytes(0, 1), 4 * 1024);
        assert_eq!(idx.resident_bytes(1, 1), 4 * 1024);
        mm.forget(a.id());
        idx.sync(&mm);
        assert_eq!(idx.resident_bytes(0, 1), 0);
        assert_eq!(idx.resident_bytes(1, 1), 0);
    }

    /// Model operations for the oracle property test below.
    #[derive(Debug, Clone)]
    enum Op {
        /// `make_valid(handle, node)` — allocates (evicting under
        /// pressure) and copies.
        Touch(usize, usize),
        /// Host write: invalidates (recycles) every device replica.
        HostWrite(usize),
        /// `wont_use` hint — eager-eviction candidate on the next alloc.
        WontUse(usize),
        /// Unregister the handle everywhere.
        Forget(usize),
        /// Evict everything unpinned at a device node.
        Reclaim(usize),
        /// Drain the delta log into the index mid-stream.
        Sync,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..6, 1usize..3).prop_map(|(h, n)| Op::Touch(h, n)),
            (0usize..6).prop_map(Op::HostWrite),
            (0usize..6).prop_map(Op::WontUse),
            (0usize..6).prop_map(Op::Forget),
            (1usize..3).prop_map(Op::Reclaim),
            Just(Op::Sync),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Drives the memory manager through random interleavings of
        /// replica add / host-write invalidation / wont_use-assisted
        /// eviction / forget / reclaim, syncing the index at random
        /// points, and checks after every operation that the cached
        /// per-handle byte counts never diverge from a brute-force rescan
        /// of the memory manager's node maps.
        #[test]
        fn index_never_diverges_from_node_maps(
            ops in proptest::collection::vec(op_strategy(), 1..60)
        ) {
            // Two 10 KiB device nodes and six 4 KiB handles: roughly half
            // the ops allocate under pressure, so evictions are frequent.
            let (m, topo, stats, mm) = fixture(10 * 1024);
            let handles: Vec<DataHandle> =
                (0..6).map(|i| handle(i as u64 + 1, 4, m.memory_nodes())).collect();
            let mut forgotten = vec![false; handles.len()];
            let mut idx = LocalityIndex::new(&mm);

            for op in ops {
                match op {
                    Op::Touch(h, node) => {
                        if !forgotten[h] {
                            coherence::make_valid(
                                &handles[h], node, AccessMode::Read, &topo, &stats, &mm,
                            );
                        }
                    }
                    Op::HostWrite(h) => {
                        if !forgotten[h] {
                            coherence::mark_written(
                                &handles[h], 0, peppher_sim::VTime::ZERO, &stats, &mm,
                            );
                        }
                    }
                    Op::WontUse(h) => mm.wont_use(handles[h].id()),
                    Op::Forget(h) => {
                        mm.forget(handles[h].id());
                        forgotten[h] = true;
                    }
                    Op::Reclaim(node) => {
                        mm.reclaim_node(node, &topo, &stats);
                    }
                    Op::Sync => {
                        idx.sync(&mm);
                    }
                }
                // Oracle check: after a sync the index must agree with a
                // full rescan, byte for byte.
                idx.sync(&mm);
                for node in 0..m.memory_nodes() {
                    for h in &handles {
                        prop_assert_eq!(
                            idx.resident_bytes(node, h.id()),
                            oracle(&mm, node, h.id()),
                            "node {} handle {}", node, h.id()
                        );
                    }
                }
            }
            mm.validate().unwrap();
        }
    }
}
