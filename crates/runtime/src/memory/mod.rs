//! Memory-node capacity management: budgets, LRU eviction and writeback.
//!
//! The paper's data-management story (§IV-E, Fig. 3) assumes a replica can
//! always be allocated on any memory node. Real accelerators cannot — the
//! C2050 the paper evaluates on has 3 GB — so this module gives every
//! memory node a capacity budget (from [`peppher_sim::DeviceProfile::
//! mem_bytes`]) and accounts each replica's bytes against it. When
//! an allocation would exceed a node's budget, the least-recently-used
//! unpinned replica is evicted, StarPU-style: a `Shared` copy is simply
//! dropped, while a `Modified` (sole-valid) copy is first written back to
//! main memory over the device's PCIe link — a virtually-timed transfer —
//! and only then invalidated ([`EvictionPolicy::Lru`], the default;
//! [`EvictionPolicy::Family`] evicts partitioned data a whole block family
//! at a time instead). Operands of running or placed tasks are
//! pinned and never victim candidates, so forward progress is guaranteed
//! (a task whose operands alone exceed the budget overcommits rather than
//! deadlocks).
//!
//! Two refinements mirror StarPU's memory layer:
//!
//! * **`wont_use` hints** ([`MemoryManager::wont_use`], StarPU's
//!   `starpu_data_wont_use`): a replica flagged dead is demoted to an
//!   eager-eviction candidate chosen ahead of LRU order; any later touch
//!   resurrects it.
//! * **Eviction-aware prefetch** ([`MemoryManager::prefetch_fits`]):
//!   instead of skipping any prefetch that does not fit the free space,
//!   the prefetcher counts every unpinned replica outside the prefetching
//!   task's own operand set as space about to free up.
//!
//! One record per replica, as in StarPU's `memalloc.c`: a replica's
//! capacity state (accounted, pin count, LRU stamp, `wont_use` hint) lives
//! on [`crate::handle::Replica`] under the handle's lock. A node keeps its
//! budget, clock and high-water mark, the handles with an accounted replica
//! there, and three sums over them (used, pinned and dead bytes), which
//! `NodeMem::update` alone moves. Lock order is handle → node everywhere. A
//! freed buffer dies with its replica: StarPU caches device buffers because
//! `cudaMalloc` synchronizes the device, but a simulated device charges
//! nothing for an allocation.
//!
//! Accounting is not residency: a replica is accounted before its copy
//! lands, and main memory keeps its buffer and accounting when a device
//! write makes the host copy stale. The schedulers read residency from the
//! handles' valid masks; this module answers only capacity questions (what
//! fits, what must be evicted, what that costs).

use crate::coherence::Topology;
use crate::handle::{
    AccessMode, DataHandle, Family, HandleInner, HandleState, PayloadCell, Replica, ReplicaStatus,
};
use crate::stats::{StatsCollector, TraceEvent};
use parking_lot::{Mutex, MutexGuard};
use peppher_sim::MachineConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Which replicas a device memory node evicts when it runs out of
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used unpinned replica, writing Modified
    /// data back to main memory first (the default; enables out-of-core
    /// execution).
    #[default]
    Lru,
    /// Partition-aware eviction: victims are chosen *family-at-a-time*.
    /// When pressure hits, the whole sibling set of the best candidate
    /// family is evicted together — clean (no Modified member) families
    /// before dirty ones, oldest family first — instead of LRU shredding a
    /// partition's blocks interleaved with hot data. Handles without a
    /// family compete as single replicas under the same dead-first,
    /// clean-first, oldest-first order, so this is *not* LRU even on
    /// unpartitioned workloads: a clean replica is evicted before an older
    /// dirty one.
    Family,
}

/// A change to one replica's capacity state, applied by [`NodeMem::update`].
enum Cap {
    /// Reserve the replica's room; the node lists the handle as a member.
    Account(Weak<HandleInner>),
    /// Give the room back.
    Release,
    /// An LRU touch, which also clears the `wont_use` hint.
    Touch,
    Pin,
    Unpin,
    /// The `wont_use` hint; only an accounted replica keeps it.
    WontUse,
}

/// Per-node books. The byte counts are sums over the member replicas.
#[derive(Default)]
struct NodeMem {
    /// Capacity in bytes; `None` is unbounded (main memory).
    budget: Option<u64>,
    /// Accounted bytes.
    used: u64,
    /// Largest `used` ever observed.
    high_water: u64,
    /// Monotonic LRU clock.
    clock: u64,
    /// Accounted bytes of pinned replicas.
    pinned: u64,
    /// Accounted bytes of unpinned replicas hinted dead.
    dead: u64,
    /// The handles with an accounted replica at this node.
    members: HashMap<u64, Weak<HandleInner>>,
}

/// A replica's share of its node's sums: used, pinned and dead bytes.
fn share(r: &Replica, bytes: u64) -> [u64; 3] {
    let b = bytes * u64::from(r.accounted);
    [
        b,
        b * u64::from(r.pinned > 0),
        b * u64::from(r.pinned == 0 && r.dead),
    ]
}

impl NodeMem {
    /// The capacity transition: the one code path that changes a replica's
    /// capacity state. It moves the node's sums and membership from the
    /// replica's share before the change to its share after.
    fn update(&mut self, id: u64, bytes: usize, r: &mut Replica, cap: Cap) {
        let before = share(r, bytes as u64);
        match cap {
            Cap::Account(weak) => {
                self.members.insert(id, weak);
                r.accounted = true;
                r.dead = false;
                self.clock += 1;
                r.last_use = self.clock;
            }
            Cap::Release => {
                self.members.remove(&id);
                r.accounted = false;
                r.dead = false;
            }
            Cap::Touch => {
                self.clock += 1;
                r.last_use = self.clock;
                r.dead = false;
            }
            Cap::Pin => r.pinned += 1,
            Cap::Unpin => r.pinned = r.pinned.saturating_sub(1),
            Cap::WontUse => r.dead = r.accounted,
        }
        let after = share(r, bytes as u64);
        self.used = self.used - before[0] + after[0];
        self.pinned = self.pinned - before[1] + after[1];
        self.dead = self.dead - before[2] + after[2];
        self.high_water = self.high_water.max(self.used);
    }
}

/// An accounted replica at one node, read under its handle's lock when
/// ranking eviction victims: the handle, whether it is pinned, and its rank
/// `(not dead, Modified, LRU stamp)`, lowest first.
struct Candidate(DataHandle, bool, (bool, bool, u64));

/// The runtime's memory subsystem: one set of books per memory node.
pub struct MemoryManager {
    nodes: Vec<Mutex<NodeMem>>,
    policy: EvictionPolicy,
    /// Monotonic family-id source (ids start at 1; 0 = no family).
    next_family: AtomicU64,
}

impl MemoryManager {
    /// Builds the per-node books with budgets from the machine config.
    pub(crate) fn new(machine: &MachineConfig, policy: EvictionPolicy) -> Self {
        let node = |n| NodeMem {
            budget: machine.node_budget(n),
            ..NodeMem::default()
        };
        MemoryManager {
            nodes: (0..machine.memory_nodes())
                .map(|n| Mutex::new(node(n)))
                .collect(),
            policy,
            next_family: AtomicU64::new(1),
        }
    }

    /// Links `handles` into a fresh block family and returns its id. Each
    /// member keeps the sibling list the prefetch burst reads; a handle
    /// joins at most one family.
    pub(crate) fn new_family(&self, handles: &[&DataHandle]) -> u64 {
        let id = self.next_family.fetch_add(1, Ordering::Relaxed);
        let members: Arc<[Weak<HandleInner>]> =
            handles.iter().map(|h| Arc::downgrade(&h.inner)).collect();
        let family = Family { id, members };
        for h in handles {
            if h.inner.family.set(family.clone()).is_err() {
                panic!("handle {} already has a family", h.id());
            }
        }
        id
    }

    /// Per-node accounted bytes of the replicas owned by `job` (the leak
    /// probe for the cancellation tests).
    pub fn job_used_bytes(&self, job: u64) -> Vec<u64> {
        let cands = |n| self.candidates(n, u64::MAX, Some(job));
        let bytes = |n| cands(n).iter().map(|c| c.0.bytes() as u64).sum();
        (0..self.nodes.len()).map(bytes).collect()
    }

    /// Whether `handle_id` has an allocated (accounted) replica at `node`.
    pub fn is_resident(&self, node: usize, handle_id: u64) -> bool {
        self.nodes[node].lock().members.contains_key(&handle_id)
    }

    /// The operands' own bytes at `node` — missing (unaccounted), unpinned
    /// accounted, and unpinned dead — counting a repeated operand once.
    fn own(node: usize, accesses: &[(DataHandle, AccessMode)]) -> [u64; 3] {
        let mut own = [0; 3];
        for (i, (h, _)) in accesses.iter().enumerate() {
            if accesses[..i].iter().all(|(g, _)| g.id() != h.id()) {
                let st = h.inner.state.lock();
                let [used, pinned, dead] = share(&st.replicas[node], h.bytes() as u64);
                own[0] += h.bytes() as u64 - used;
                own[1] += used - pinned;
                own[2] += dead;
            }
        }
        own
    }

    /// Whether a *prefetch* of `bytes` for a task with operands `accesses`
    /// can land at `node`. Eviction-aware: every unpinned replica outside
    /// the task's own operand set is a victim candidate about to free up,
    /// so only the unevictable bytes (pins and the task's own operands)
    /// gate the prefetch.
    pub fn prefetch_fits(
        &self,
        node: usize,
        bytes: u64,
        accesses: &[(DataHandle, AccessMode)],
    ) -> bool {
        let [_, own, _] = Self::own(node, accesses);
        let nm = self.nodes[node].lock();
        nm.budget.is_none_or(|b| nm.pinned + own + bytes <= b)
    }

    /// Bytes of new allocation the operands of `accesses` need at `node`
    /// beyond its reclaimable capacity (the `dmda` eviction-cost overflow;
    /// 0 when everything fits or the node is unbounded). Dead
    /// (`wont_use`-hinted) unpinned replicas outside the operand set are
    /// subtracted from the occupancy: they vanish before any live replica
    /// is evicted — this is the post-prefetch occupancy the scheduler
    /// should price, not the instantaneous one.
    pub fn pressure_overflow(&self, node: usize, accesses: &[(DataHandle, AccessMode)]) -> u64 {
        let [missing, _, own_dead] = Self::own(node, accesses);
        let nm = self.nodes[node].lock();
        let reclaimable = nm.dead.saturating_sub(own_dead);
        nm.budget
            .map_or(0, |b| (nm.used - reclaimable + missing).saturating_sub(b))
    }

    /// Per-node allocation high-water marks of live replicas, in bytes.
    pub fn high_waters(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.lock().high_water).collect()
    }

    /// Per-node currently accounted bytes of live replicas.
    pub fn used_bytes(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.lock().used).collect()
    }

    /// Checks the books of every node while nothing runs: each sum equals
    /// the sum over its members' replicas, every member is accounted and
    /// alive (a dropped handle gave its bytes back), and in each member a
    /// valid replica holds a buffer and a device buffer is accounted.
    pub fn validate(&self) -> Result<(), String> {
        for node in 0..self.nodes.len() {
            let members = self.nodes[node].lock().members.clone();
            let mut sums = [0u64; 3];
            for (id, weak) in members {
                let inner = weak.upgrade().ok_or(format!("{id} dropped accounted"))?;
                let st = inner.state.lock();
                let bad = st.replicas.iter().enumerate().position(|(i, r)| {
                    (r.is_valid() && r.cell.is_none())
                        || (i > 0 && r.cell.is_some() && !r.accounted)
                });
                if !st.replicas[node].accounted || bad.is_some() {
                    return Err(format!("handle {id}, node {node}: {bad:?} unbooked"));
                }
                let share = share(&st.replicas[node], inner.bytes as u64);
                sums.iter_mut().zip(share).for_each(|(s, b)| *s += b);
            }
            let nm = self.nodes[node].lock();
            if [nm.used, nm.pinned, nm.dead] != sums {
                let books = [nm.used, nm.pinned, nm.dead];
                return Err(format!("node {node}: books {books:?} != sums {sums:?}"));
            }
        }
        Ok(())
    }

    /// The accounted replicas at `node` (other than handle `skip`'s, and
    /// only `job`'s if given), each read under its own lock. The members'
    /// weak references are upgraded only once the node lock is released: a
    /// handle whose last reference drops gives its bytes back in `Drop`,
    /// which takes node locks, so an upgraded handle must never drop while
    /// a node lock is held.
    fn candidates(&self, node: usize, skip: u64, job: Option<u64>) -> Vec<Candidate> {
        let weak: Vec<_> = self.nodes[node].lock().members.values().cloned().collect();
        let mut out = Vec::new();
        for inner in weak.iter().filter_map(Weak::upgrade) {
            let handle = DataHandle { inner };
            let st = handle.inner.state.lock();
            let r = &st.replicas[node];
            let keep = r.accounted && handle.id() != skip && job.is_none_or(|j| handle.job() == j);
            let rank = (!r.dead, r.status == ReplicaStatus::Modified, r.last_use);
            let pinned = r.pinned > 0;
            drop(st);
            if keep {
                out.push(Candidate(handle, pinned, rank));
            }
        }
        out
    }

    /// Flags every accounted device replica of `handle` as dead — the
    /// application will not touch it again, so eviction should take it
    /// first (before any live LRU victim). No data is moved here: a
    /// Modified replica still gets exactly one writeback when eviction
    /// actually claims it. Any later touch clears the hint.
    pub fn wont_use(&self, handle: &DataHandle) {
        let mut st = handle.inner.state.lock();
        for (node, r) in st.replicas.iter_mut().enumerate().skip(1) {
            if r.accounted {
                self.nodes[node]
                    .lock()
                    .update(handle.id(), handle.bytes(), r, Cap::WontUse);
            }
        }
    }

    /// Accounts a freshly registered payload's master copy at node 0.
    pub(crate) fn register_host(&self, handle: &DataHandle) {
        self.apply(0, handle, Cap::Account(Arc::downgrade(&handle.inner)));
    }

    /// Pins `handle` at `node` so it cannot be selected as an eviction
    /// victim (also before its replica is accounted). No-op for node 0,
    /// which never evicts.
    pub(crate) fn pin(&self, node: usize, handle: &DataHandle) {
        if node != 0 {
            self.apply(node, handle, Cap::Pin);
        }
    }

    /// [`MemoryManager::pin`], also marking the replica used (`prepare`'s
    /// touch) when `touch` holds for it, in one hold of the handle lock and
    /// the node lock. Returns the handle's state, still locked.
    pub(crate) fn pin_touching<'h>(
        &self,
        node: usize,
        handle: &'h DataHandle,
        touch: impl FnOnce(&Replica) -> bool,
    ) -> MutexGuard<'h, HandleState> {
        let mut st = handle.inner.state.lock();
        if node != 0 {
            let r = &mut st.replicas[node];
            let touch = touch(r) && r.accounted;
            let mut nm = self.nodes[node].lock();
            nm.update(handle.id(), handle.bytes(), r, Cap::Pin);
            if touch {
                nm.update(handle.id(), handle.bytes(), r, Cap::Touch);
            }
        }
        st
    }

    /// Releases one pin.
    pub(crate) fn unpin(&self, node: usize, handle: &DataHandle) {
        if node != 0 {
            self.apply(node, handle, Cap::Unpin);
        }
    }

    /// Applies `cap` to `handle`'s replica at `node`: handle lock first.
    fn apply(&self, node: usize, handle: &DataHandle, cap: Cap) {
        let r = &mut handle.inner.state.lock().replicas[node];
        self.nodes[node]
            .lock()
            .update(handle.id(), handle.bytes(), r, cap);
    }

    /// Gives a dropped handle's accounted bytes back (`Drop for
    /// HandleInner`: a handle dropped without `unregister`).
    pub(crate) fn dropped(&self, id: u64, bytes: usize, st: &mut HandleState) {
        for (node, r) in st.replicas.iter_mut().enumerate() {
            if r.accounted {
                self.nodes[node].lock().update(id, bytes, r, Cap::Release);
            }
        }
    }

    /// Reserves room for `handle`'s replica at `node`, evicting victims
    /// under pressure, and returns the handle's state with that replica
    /// accounted (touched, if it already was). Node 0 is unbounded and
    /// accounted from registration on.
    ///
    /// The replica is accounted under the node-lock hold that found the
    /// room, or found nothing evictable (every accounted byte pinned:
    /// overcommit so pinned work still proceeds). Released in between, a
    /// concurrent reservation could take the same room and overshoot the
    /// budget.
    pub(crate) fn prepare<'h>(
        &self,
        handle: &'h DataHandle,
        node: usize,
        topo: &Topology,
        stats: &StatsCollector,
    ) -> MutexGuard<'h, HandleState> {
        let need = handle.bytes() as u64;
        let fits = |nm: &NodeMem| nm.budget.is_none_or(|b| nm.used + need <= b);
        loop {
            let mut st = handle.inner.state.lock();
            if node == 0 {
                return st;
            }
            let mut nm = self.nodes[node].lock();
            let r = &mut st.replicas[node];
            if r.accounted {
                nm.update(handle.id(), handle.bytes(), r, Cap::Touch);
                return st;
            }
            if fits(&nm) || nm.used == nm.pinned {
                let weak = Arc::downgrade(&handle.inner);
                nm.update(handle.id(), handle.bytes(), r, Cap::Account(weak));
                stats.record_device_alloc();
                return st;
            }
            drop(nm);
            drop(st);
            // One eviction round; a round that gives up (the requester
            // fits by now, or a victim changed since it was ranked) retries.
            let cands = self.candidates(node, handle.id(), None);
            // Family falls back to plain LRU when no group is evictable, so
            // pressure still finds a victim.
            let family = (self.policy == EvictionPolicy::Family).then(|| handle.family());
            let victims = family.and_then(|f| select(&cands, Some(f)));
            let Some(mut victims) = victims.or_else(|| select(&cands, None)) else {
                // Only a handle being dropped is listed yet unreachable.
                std::thread::yield_now();
                continue;
            };
            if self.evict(node, &mut victims, |nm| !fits(nm), topo, stats) && victims.len() > 1 {
                stats.record_family_eviction(victims.len() as u64);
            }
        }
    }

    /// Evicts `victims` from `node`: locks them in id order, then the node,
    /// and gives up (returning false) if `wanted` no longer holds or a
    /// victim is no longer an unpinned accounted replica. Otherwise
    /// unaccounts them, then writes back each sole valid copy and
    /// invalidates it under its lock: nothing can re-account a replica
    /// whose lock the evictor holds.
    fn evict(
        &self,
        node: usize,
        victims: &mut [DataHandle],
        wanted: impl FnOnce(&NodeMem) -> bool,
        topo: &Topology,
        stats: &StatsCollector,
    ) -> bool {
        victims.sort_by_key(DataHandle::id);
        let mut guards: Vec<_> = victims.iter().map(|v| v.inner.state.lock()).collect();
        let mut nm = self.nodes[node].lock();
        let evictable =
            |st: &HandleState| st.replicas[node].accounted && st.replicas[node].pinned == 0;
        if !wanted(&nm) || !guards.iter().all(|st| evictable(st)) {
            return false;
        }
        for (v, st) in victims.iter().zip(guards.iter_mut()) {
            nm.update(v.id(), v.bytes(), &mut st.replicas[node], Cap::Release);
        }
        drop(nm);
        let mut cells: Vec<PayloadCell> = Vec::new();
        for (v, st) in victims.iter().zip(guards.iter_mut()) {
            let writeback = |cell: &PayloadCell, vready| {
                let arrive = topo.hop(v, node, 0, vready, stats);
                ((v.inner.clone_fn)(&cell.read()), arrive)
            };
            // A bufferless reservation has nothing to write back or drop.
            if let Ok((cell, writeback)) = st.evict(node, writeback) {
                cells.push(cell);
                stats.record_eviction(v.bytes() as u64, writeback);
                let (handle, bytes) = (v.id(), v.bytes());
                stats.record_event(TraceEvent::Evict {
                    handle,
                    node,
                    bytes,
                    writeback,
                });
            }
        }
        drop(guards);
        true
    }

    /// Frees `node`'s replica of `handle` under its lock: invalidates it,
    /// gives its room back and takes its buffer, for the caller to drop
    /// once it holds no lock.
    pub(crate) fn free(
        &self,
        handle: &DataHandle,
        st: &mut HandleState,
        node: usize,
    ) -> Option<PayloadCell> {
        let r = &mut st.replicas[node];
        if r.accounted {
            self.nodes[node]
                .lock()
                .update(handle.id(), handle.bytes(), r, Cap::Release);
        }
        st.free(node)
    }

    /// Evicts every unpinned replica at the device nodes (of `job`'s
    /// handles only, if given); returns the number evicted and their bytes.
    fn reclaim(
        &self,
        nodes: std::ops::Range<usize>,
        job: Option<u64>,
        topo: &Topology,
        stats: &StatsCollector,
    ) -> (u64, u64) {
        let (mut evicted, mut freed) = (0, 0);
        for node in nodes.filter(|&n| n > 0) {
            loop {
                let cands = self.candidates(node, u64::MAX, job).into_iter();
                let mut victims: Vec<_> = cands.filter(|c| !c.1).map(|c| c.0).collect();
                if victims.is_empty() || self.evict(node, &mut victims, |_| true, topo, stats) {
                    evicted += victims.len() as u64;
                    freed += victims.iter().map(|v| v.bytes() as u64).sum::<u64>();
                    break;
                }
            }
        }
        (evicted, freed)
    }

    /// Evicts every unpinned resident replica at `node` (diagnostics and
    /// the eviction-injection property tests). Returns the number evicted.
    pub(crate) fn reclaim_node(&self, node: usize, topo: &Topology, stats: &StatsCollector) -> u64 {
        self.reclaim(node..node + 1, None, topo, stats).0
    }

    /// Evicts every unpinned device replica owned by `job` (job
    /// cancellation / teardown): Modified replicas get their one writeback
    /// so node 0 keeps a valid master copy, and the job owns no accounted
    /// bytes on any device node afterwards. Returns the total bytes
    /// released. Pinned replicas (a task still executing) are left
    /// for their unpin + free path.
    pub(crate) fn reclaim_job(&self, job: u64, topo: &Topology, stats: &StatsCollector) -> u64 {
        self.reclaim(1..self.nodes.len(), Some(job), topo, stats).1
    }
}

/// Picks the victims among `cands`: under plain LRU (`family` is `None`)
/// the unpinned replica of lowest rank — dead first, then LRU order.
///
/// Under [`EvictionPolicy::Family`] (`family` is the requester's),
/// replicas are grouped by block family and a whole sibling set leaves the
/// node together, so a partition tree is never LRU-shredded
/// replica-by-replica interleaved with hot blocks. Groups are ranked
/// dead-first, then *clean*-first (no Modified member, so no writeback is
/// due), then by the family's most recent use — dropping a clean family
/// costs zero writeback bytes, which is where this policy beats plain LRU
/// on out-of-core working sets. Family-less replicas compete as singleton
/// groups under the same key; groups with a pinned member are skipped
/// whole (they are mid-use — evicting their siblings would only thrash),
/// and so is the requester's own family. `None` when nothing is evictable.
fn select(cands: &[Candidate], family: Option<u64>) -> Option<Vec<DataHandle>> {
    let Some(requester) = family else {
        let unpinned = cands.iter().filter(|c| !c.1);
        let lru = unpinned.min_by_key(|c| (c.2 .0, c.2 .2))?;
        return Some(vec![lru.0.clone()]);
    };
    // Per group: (rank, pinned, members).
    type Group = ((bool, bool, u64), bool, Vec<DataHandle>);
    let mut groups: HashMap<(u64, u64), Group> = HashMap::new();
    for Candidate(handle, pinned, (live, dirty, last)) in cands {
        let fam = handle.family();
        if fam != 0 && fam == requester {
            continue;
        }
        let single = if fam == 0 { handle.id() } else { 0 };
        let g = groups.entry((fam, single)).or_default();
        g.0 = (g.0 .0 || *live, g.0 .1 || *dirty, g.0 .2.max(*last));
        g.1 |= *pinned;
        g.2.push(handle.clone());
    }
    let evictable = groups.into_values().filter(|g| !g.1);
    evictable.min_by_key(|g| g.0).map(|g| g.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::{self, Topology};
    use crate::handle::AccessMode;
    use peppher_sim::{MachineConfig, VTime};

    fn tiny_machine(budget: u64) -> MachineConfig {
        MachineConfig::c2050_platform(1).with_device_mem(budget)
    }

    fn handle(id: u64, kib: usize, nodes: usize) -> DataHandle {
        DataHandle::new(id, vec![id as f32; kib * 256], kib * 1024, nodes)
    }

    fn fixture(budget: u64) -> (MachineConfig, Topology, StatsCollector, MemoryManager) {
        let m = tiny_machine(budget);
        let topo = Topology::new(&m);
        let stats = StatsCollector::new(m.total_workers(), true);
        let mm = MemoryManager::new(&m, EvictionPolicy::Lru);
        (m, topo, stats, mm)
    }

    fn family_fixture(budget: u64) -> (MachineConfig, Topology, StatsCollector, MemoryManager) {
        let m = tiny_machine(budget);
        let topo = Topology::new(&m);
        let stats = StatsCollector::new(m.total_workers(), true);
        let mm = MemoryManager::new(&m, EvictionPolicy::Family);
        (m, topo, stats, mm)
    }

    #[test]
    fn family_eviction_takes_the_whole_sibling_set() {
        let (m, topo, stats, mm) = family_fixture(10 * 1024);
        let a1 = handle(1, 2, m.memory_nodes());
        let a2 = handle(2, 2, m.memory_nodes());
        let b = handle(3, 4, m.memory_nodes());
        let c = handle(4, 4, m.memory_nodes());
        let fam = mm.new_family(&[&a1, &a2]);
        assert_eq!(a1.family(), fam);
        assert_eq!(a2.inner.family.get().unwrap().members.len(), 2);
        coherence::make_valid(&a1, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&a2, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&b, 1, AccessMode::Read, &topo, &stats, &mm);
        // c (4 KiB) over-budgets the node. Plain LRU would shred the
        // family by evicting a1 alone; the family policy takes both
        // siblings together even though a2 is younger than nothing else.
        coherence::make_valid(&c, 1, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert!(!a1.valid_on(1) && !a2.valid_on(1), "whole family evicted");
        assert!(b.valid_on(1), "the singleton survived");
        assert!(c.valid_on(1));
        assert_eq!(snap.evictions, 2, "each sibling still counts");
        assert_eq!(snap.family_evictions, 1, "one group decision");
        assert_eq!(snap.family_eviction_members, 2);
        mm.validate().unwrap();
    }

    #[test]
    fn clean_family_evicted_before_dirty_family() {
        let (m, topo, stats, mm) = family_fixture(8 * 1024);
        let d1 = handle(1, 2, m.memory_nodes());
        let d2 = handle(2, 2, m.memory_nodes());
        let c1 = handle(3, 2, m.memory_nodes());
        let c2 = handle(4, 2, m.memory_nodes());
        mm.new_family(&[&d1, &d2]);
        mm.new_family(&[&c1, &c2]);
        // The dirty family is written on device (sole valid copies, a
        // writeback due at eviction); the clean family is read-shared.
        for h in [&d1, &d2] {
            coherence::make_valid(h, 1, AccessMode::ReadWrite, &topo, &stats, &mm);
            coherence::mark_written(h, 1, VTime::from_micros(1), &stats, &mm);
        }
        coherence::make_valid(&c1, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&c2, 1, AccessMode::Read, &topo, &stats, &mm);
        // Pressure: the clean family goes even though the dirty one is
        // older — dropping it costs zero writeback bytes.
        let g = handle(5, 2, m.memory_nodes());
        coherence::make_valid(&g, 1, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert!(!c1.valid_on(1) && !c2.valid_on(1), "clean family evicted");
        assert!(d1.valid_on(1) && d2.valid_on(1), "dirty family retained");
        assert_eq!(snap.writeback_bytes, 0, "no writeback was paid");
        assert_eq!(snap.family_evictions, 1);
        mm.validate().unwrap();
    }

    #[test]
    fn family_eviction_spares_the_requesters_own_siblings() {
        let (m, topo, stats, mm) = family_fixture(7 * 1024);
        let a1 = handle(1, 2, m.memory_nodes());
        let a2 = handle(2, 2, m.memory_nodes());
        let old = handle(3, 4, m.memory_nodes());
        mm.new_family(&[&a1, &a2]);
        coherence::make_valid(&a1, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&old, 1, AccessMode::Read, &topo, &stats, &mm);
        // a2 arrives: its sibling a1 is off-limits even though the
        // singleton `old` was used more recently than a1.
        coherence::make_valid(&a2, 1, AccessMode::Read, &topo, &stats, &mm);
        assert!(a1.valid_on(1) && a2.valid_on(1), "family kept together");
        assert!(!old.valid_on(1), "the non-family replica paid the room");
        mm.validate().unwrap();
    }

    #[test]
    fn accounts_and_reports_high_water() {
        let (m, topo, stats, mm) = fixture(10 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&b, 1, AccessMode::Read, &topo, &stats, &mm);
        assert_eq!(mm.used_bytes()[1], 8 * 1024);
        assert_eq!(mm.high_waters()[1], 8 * 1024);
        assert!(mm.is_resident(1, 1) && mm.is_resident(1, 2));
        assert_eq!(stats.snapshot().alloc_cache_misses, 2, "two allocations");
        mm.validate().unwrap();
    }

    #[test]
    fn lru_evicts_oldest_shared_replica_without_writeback() {
        let (m, topo, stats, mm) = fixture(10 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 4, m.memory_nodes());
        let c = handle(3, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&b, 1, AccessMode::Read, &topo, &stats, &mm);
        // Touch a so b becomes the LRU victim.
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        let d2h_before = stats.snapshot().d2h_transfers;
        coherence::make_valid(&c, 1, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.writeback_bytes, 0, "Shared victims are dropped");
        assert_eq!(snap.d2h_transfers, d2h_before);
        assert!(!b.valid_on(1), "victim invalidated on device");
        assert!(b.valid_on(0), "host master copy untouched");
        assert!(a.valid_on(1) && c.valid_on(1));
        assert_eq!(mm.used_bytes()[1], 8 * 1024);
        mm.validate().unwrap();
    }

    #[test]
    fn modified_victim_written_back_before_invalidation() {
        let (m, topo, stats, mm) = fixture(10 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 4, m.memory_nodes());
        let c = handle(3, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::ReadWrite, &topo, &stats, &mm);
        coherence::mark_written(&a, 1, VTime::from_micros(10), &stats, &mm);
        coherence::make_valid(&b, 1, AccessMode::Read, &topo, &stats, &mm);
        // a is Modified on device (sole valid) and the LRU entry.
        coherence::make_valid(&c, 1, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.writeback_bytes, 4 * 1024);
        assert!(snap.d2h_transfers >= 1, "writeback paid a d2h transfer");
        assert!(!a.valid_on(1));
        assert!(a.valid_on(0), "written-back copy is valid at node 0");
        // The trace shows the writeback Transfer before the Evict.
        let trace = stats.trace.lock();
        let t = trace
            .iter()
            .position(|e| {
                matches!(
                    e,
                    TraceEvent::Transfer {
                        handle: 1,
                        from: 1,
                        to: 0,
                        ..
                    }
                )
            })
            .expect("writeback transfer recorded");
        let e = trace
            .iter()
            .position(|e| {
                matches!(
                    e,
                    TraceEvent::Evict {
                        handle: 1,
                        writeback: true,
                        ..
                    }
                )
            })
            .expect("evict event recorded");
        assert!(t < e, "writeback must precede invalidation");
    }

    #[test]
    fn wont_use_demotes_replica_ahead_of_lru_order() {
        let (m, topo, stats, mm) = fixture(9 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 4, m.memory_nodes());
        let c = handle(3, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&b, 1, AccessMode::ReadWrite, &topo, &stats, &mm);
        coherence::mark_written(&b, 1, VTime::from_micros(5), &stats, &mm);
        // a is older (the LRU victim), but b is hinted dead: eviction must
        // take b first.
        mm.wont_use(&b);
        coherence::make_valid(&c, 1, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert_eq!(snap.evictions, 1);
        assert!(a.valid_on(1), "live LRU replica survives");
        assert!(!b.valid_on(1), "dead replica evicted first");
        // b was Modified: the writeback happened exactly once, and the
        // trace orders it before c's copy into the freed space.
        assert_eq!(snap.writeback_bytes, 4 * 1024);
        assert!(b.valid_on(0), "written-back copy valid at node 0");
        let trace = stats.trace.lock();
        let wb_count = trace
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::Transfer {
                        handle: 2,
                        from: 1,
                        to: 0,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(wb_count, 1, "writeback happens exactly once");
        let wb = trace
            .iter()
            .position(|e| {
                matches!(
                    e,
                    TraceEvent::Transfer {
                        handle: 2,
                        from: 1,
                        to: 0,
                        ..
                    }
                )
            })
            .unwrap();
        let fill = trace
            .iter()
            .position(|e| {
                matches!(
                    e,
                    TraceEvent::Transfer {
                        handle: 3,
                        to: 1,
                        ..
                    }
                )
            })
            .expect("c copied in");
        assert!(
            wb < fill,
            "writeback precedes c's copy into the freed space"
        );
    }

    #[test]
    fn touch_resurrects_dead_replica() {
        let (m, topo, stats, mm) = fixture(9 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 4, m.memory_nodes());
        let c = handle(3, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&b, 1, AccessMode::Read, &topo, &stats, &mm);
        mm.wont_use(&b);
        // The hint is wrong: b is used again, clearing the dead flag, so
        // plain LRU applies and a (older) is the victim.
        coherence::make_valid(&b, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&c, 1, AccessMode::Read, &topo, &stats, &mm);
        assert!(!a.valid_on(1), "LRU victim");
        assert!(b.valid_on(1), "resurrected replica survives");
    }

    #[test]
    fn pinned_replicas_are_never_victims() {
        let (m, topo, stats, mm) = fixture(10 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 4, m.memory_nodes());
        let c = handle(3, 4, m.memory_nodes());
        mm.pin(1, &a);
        mm.pin(1, &b);
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&b, 1, AccessMode::Read, &topo, &stats, &mm);
        // Both residents pinned: allocation overcommits instead of evicting.
        coherence::make_valid(&c, 1, AccessMode::Read, &topo, &stats, &mm);
        assert_eq!(stats.snapshot().evictions, 0);
        assert!(a.valid_on(1) && b.valid_on(1) && c.valid_on(1));
        assert!(mm.used_bytes()[1] > 10 * 1024, "overcommitted");
        mm.unpin(1, &a);
        mm.unpin(1, &b);
    }

    #[test]
    fn overflow_counts_only_missing_operands() {
        let (m, topo, stats, mm) = fixture(10 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 8, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        let ops = vec![(b.clone(), AccessMode::Read)];
        assert_eq!(mm.pressure_overflow(1, &ops), 2 * 1024);
        let resident = vec![(a.clone(), AccessMode::Read)];
        assert_eq!(mm.pressure_overflow(1, &resident), 0);
        // Unbounded node 0 never overflows.
        assert_eq!(mm.pressure_overflow(0, &ops), 0);
    }

    #[test]
    fn pressure_overflow_discounts_dead_replicas() {
        let (m, topo, stats, mm) = fixture(10 * 1024);
        let a = handle(1, 6, m.memory_nodes());
        let b = handle(2, 8, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        let ops = vec![(b.clone(), AccessMode::Read)];
        assert_eq!(mm.pressure_overflow(1, &ops), 4 * 1024);
        // Hinting a dead removes its bytes from the occupancy estimate:
        // the prefetcher will reclaim it before b arrives.
        mm.wont_use(&a);
        assert_eq!(mm.pressure_overflow(1, &ops), 0);
    }

    #[test]
    fn prefetch_fits_counts_unpinned_replicas_as_reclaimable() {
        let (m, topo, stats, mm) = fixture(10 * 1024);
        let a = handle(1, 6, m.memory_nodes());
        let b = handle(2, 8, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        // b does not fit beside a (6 + 8 > 10 KiB)...
        let ops = vec![(b.clone(), AccessMode::Read)];
        assert_eq!(mm.pressure_overflow(1, &ops), 4 * 1024);
        // ...but eviction-aware prefetch sees a as a victim about to free
        // up and lets the prefetch proceed.
        assert!(mm.prefetch_fits(1, b.bytes() as u64, &ops));
        // With a pinned (a running task holds it) nothing is reclaimable.
        mm.pin(1, &a);
        assert!(!mm.prefetch_fits(1, b.bytes() as u64, &ops));
        mm.unpin(1, &a);
        // A sibling operand of the same task is likewise untouchable.
        let both = vec![(a.clone(), AccessMode::Read), (b.clone(), AccessMode::Read)];
        assert!(!mm.prefetch_fits(1, b.bytes() as u64, &both));
    }

    #[test]
    fn reclaim_empties_unpinned_node() {
        let (m, topo, stats, mm) = fixture(64 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&b, 1, AccessMode::ReadWrite, &topo, &stats, &mm);
        coherence::mark_written(&b, 1, VTime::from_micros(3), &stats, &mm);
        assert_eq!(mm.reclaim_node(1, &topo, &stats), 2);
        assert_eq!(mm.used_bytes()[1], 0);
        assert!(!a.valid_on(1) && !b.valid_on(1));
        assert!(b.valid_on(0), "Modified b written back to host");
        let snap = stats.snapshot();
        assert_eq!(snap.writeback_bytes, 4 * 1024);
        mm.validate().unwrap();
    }

    #[test]
    fn pressure_overflow_counts_a_repeated_operand_once() {
        let (m, _, _, mm) = fixture(10 * 1024);
        let b = handle(1, 8, m.memory_nodes());
        let once = vec![(b.clone(), AccessMode::Read)];
        let twice = vec![(b.clone(), AccessMode::Read), (b.clone(), AccessMode::Read)];
        assert_eq!(mm.pressure_overflow(1, &once), 0);
        assert_eq!(mm.pressure_overflow(1, &twice), 0);
    }

    #[test]
    fn free_gives_the_room_back() {
        let (m, topo, stats, mm) = fixture(64 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        mm.register_host(&a);
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        let cell = mm.free(&a, &mut a.inner.state.lock(), 1);
        assert!(cell.is_some() && !a.valid_on(1));
        assert_eq!(mm.used_bytes(), vec![4 * 1024, 0]);
        assert!(!mm.is_resident(1, a.id()));
        mm.validate().unwrap();
    }

    /// An exhaustive single-threaded checker for the MSI transitions and
    /// the node books. Each scenario runs a few actors — scripts of the
    /// real phases of a prefetch, a device write, a host access or a
    /// `reclaim_node` — on two handles and two device nodes whose budget
    /// holds one handle, and explores every interleaving of up to `k`
    /// steps depth-first. After each step it checks that (1) a valid
    /// replica has a buffer; (2) a registered handle has a valid replica,
    /// at most one Modified, and a Modified replica is the only valid one;
    /// (3) the node books equal the sums over the accounted replicas, only
    /// an accounted device replica holds a buffer, and one accounted
    /// without a buffer has its copy in flight; (4) `used` grows past the
    /// budget only while every accounted byte is pinned; (5) every valid
    /// replica holds the value last written.
    mod checker {
        use super::*;
        use crate::coherence::{cell_for, make_valid, mark_written};
        use crate::handle::{PayloadBox, ReplicaStatus};
        use crate::runtime::{discard, retire};

        const BYTES: usize = 1024;

        #[derive(Clone, Copy, Debug)]
        enum Host {
            Read,
            Write,
            Discard,
            Unregister,
        }

        #[derive(Clone, Copy, Debug)]
        enum Actor {
            /// Prefetch handle `.0` into node `.1`: pin, reserve, snapshot,
            /// copy, install, unpin (a stale install or a staged route
            /// retries from the reservation).
            Prefetch(usize, usize),
            /// A task writing handle `.0` on node `.1`: pin, reserve, claim,
            /// written, unpin.
            Write(usize, usize),
            /// One synchronous host access to handle `.0`.
            Host(usize, Host),
            /// `reclaim_node(.0)`.
            Reclaim(usize),
        }

        impl Actor {
            /// The handle whose task order the actor takes part in: a host
            /// access waits for the tasks using the handle, and a task for
            /// an earlier host access (sequential consistency).
            fn ordered(self) -> Option<usize> {
                match self {
                    Actor::Write(h, _) | Actor::Host(h, _) => Some(h),
                    _ => None,
                }
            }
        }

        /// An actor's progress through its script.
        #[derive(Default)]
        struct Progress {
            pc: usize,
            done: bool,
            /// Holds a reservation whose buffer is not installed yet.
            inflight: bool,
            snapshot: Option<(PayloadCell, u64)>,
            copy: Option<PayloadBox>,
        }

        struct World {
            topo: Topology,
            stats: StatsCollector,
            mm: Arc<MemoryManager>,
            handles: Vec<DataHandle>,
            shadow: Vec<u64>,
            registered: Vec<bool>,
            progress: Vec<Progress>,
            /// The actor in the middle of a task on each handle.
            owner: Vec<Option<usize>>,
            next_value: u64,
            trace: Vec<String>,
        }

        impl World {
            fn new(actors: usize) -> Self {
                let m = MachineConfig::multi_gpu(1, 2).with_device_mem(BYTES as u64);
                let mm = Arc::new(MemoryManager::new(&m, EvictionPolicy::Lru));
                let handles: Vec<DataHandle> = (0..2)
                    .map(|id| {
                        let memory = Arc::downgrade(&mm);
                        let nodes = m.memory_nodes();
                        let h = DataHandle::new_owned(id, 0u64, BYTES, nodes, 0, memory);
                        mm.register_host(&h);
                        h
                    })
                    .collect();
                World {
                    topo: Topology::new(&m),
                    stats: StatsCollector::new(m.total_workers(), false),
                    mm,
                    handles,
                    shadow: vec![0; 2],
                    registered: vec![true; 2],
                    progress: (0..actors).map(|_| Progress::default()).collect(),
                    owner: vec![None; 2],
                    next_value: 1,
                    trace: Vec::new(),
                }
            }

            fn enabled(&self, actors: &[Actor]) -> Vec<usize> {
                let may = |i: usize, a: Actor| match a.ordered() {
                    Some(h) => {
                        self.owner[h] == Some(i) || self.owner[h].is_none() && self.registered[h]
                    }
                    None => true,
                };
                (0..actors.len())
                    .filter(|&i| !self.progress[i].done && may(i, actors[i]))
                    .collect()
            }

            fn fresh_value(&mut self, h: usize) -> u64 {
                self.next_value += 1;
                self.shadow[h] = self.next_value;
                self.next_value
            }

            /// Runs actor `i`'s next phase; returns its name.
            fn step(&mut self, i: usize, actor: Actor) -> &'static str {
                let (topo, stats, mm) = (&self.topo, &self.stats, &*self.mm);
                let p = &mut self.progress[i];
                let (name, next) = match actor {
                    Actor::Prefetch(h, n) => {
                        let handle = &self.handles[h];
                        match p.pc {
                            0 => {
                                mm.pin(n, handle);
                                ("pin", 1)
                            }
                            1 => {
                                let st = mm.prepare(handle, n, topo, stats);
                                p.inflight = !st.replicas[n].is_valid();
                                ("reserve", if p.inflight { 2 } else { 5 })
                            }
                            2 => {
                                let mut st = handle.inner.state.lock();
                                match st.snapshot() {
                                    Err(_) => {
                                        drop(mm.free(handle, &mut st, n));
                                        p.inflight = false;
                                        ("give up", 5)
                                    }
                                    Ok((src, ..)) if src != 0 => {
                                        drop(st);
                                        make_valid(handle, 0, AccessMode::Read, topo, stats, mm);
                                        ("stage via host", 1)
                                    }
                                    Ok((_, cell, _, writes)) => {
                                        p.snapshot = Some((cell, writes));
                                        ("snapshot", 3)
                                    }
                                }
                            }
                            3 => {
                                let (cell, _) = p.snapshot.as_ref().unwrap();
                                p.copy = Some((handle.inner.clone_fn)(&cell.read()));
                                ("copy", 4)
                            }
                            4 => {
                                let (_, writes) = p.snapshot.take().unwrap();
                                let payload = p.copy.take().unwrap();
                                let mut st = handle.inner.state.lock();
                                match st.install(n, payload, VTime::ZERO, writes) {
                                    Ok(()) => {
                                        p.inflight = false;
                                        ("install", 5)
                                    }
                                    Err(_) => ("stale install", 1),
                                }
                            }
                            _ => {
                                mm.unpin(n, handle);
                                p.done = true;
                                ("unpin", 6)
                            }
                        }
                    }
                    Actor::Write(h, n) => {
                        let handle = &self.handles[h];
                        match p.pc {
                            0 => {
                                self.owner[h] = Some(i);
                                mm.pin(n, handle);
                                ("pin", 1)
                            }
                            1 => {
                                let st = mm.prepare(handle, n, topo, stats);
                                p.inflight = st.replicas[n].cell.is_none();
                                ("reserve", 2)
                            }
                            2 => {
                                make_valid(handle, n, AccessMode::Write, topo, stats, mm);
                                p.inflight = false;
                                ("claim", 3)
                            }
                            3 => {
                                self.next_value += 1;
                                self.shadow[h] = self.next_value;
                                *cell_for(handle, n).write() = Box::new(self.next_value);
                                mark_written(handle, n, VTime::ZERO, stats, mm);
                                ("written", 4)
                            }
                            _ => {
                                mm.unpin(n, handle);
                                self.owner[h] = None;
                                p.done = true;
                                ("unpin", 5)
                            }
                        }
                    }
                    Actor::Host(h, kind) => {
                        let handle = self.handles[h].clone();
                        p.done = true;
                        match kind {
                            Host::Read => {
                                make_valid(&handle, 0, AccessMode::Read, topo, stats, mm);
                            }
                            Host::Write => {
                                make_valid(&handle, 0, AccessMode::ReadWrite, topo, stats, mm);
                                mark_written(&handle, 0, VTime::ZERO, stats, mm);
                                let v = self.fresh_value(h);
                                *cell_for(&handle, 0).write() = Box::new(v);
                            }
                            Host::Discard => {
                                let v = self.fresh_value(h);
                                discard(&handle, &self.mm, |p| *p = Box::new(v));
                            }
                            Host::Unregister => {
                                make_valid(&handle, 0, AccessMode::Read, topo, stats, mm);
                                drop(retire(&handle, &self.mm));
                                self.registered[h] = false;
                            }
                        }
                        (
                            ["host read", "host write", "write_discard", "unregister"]
                                [kind as usize],
                            1,
                        )
                    }
                    Actor::Reclaim(n) => {
                        mm.reclaim_node(n, topo, stats);
                        p.done = true;
                        ("reclaim", 1)
                    }
                };
                self.progress[i].pc = next;
                name
            }

            /// Runs actor `i`'s next phase, then checks the invariants.
            fn advance(&mut self, actors: &[Actor], i: usize) -> Result<(), String> {
                let before = self.mm.used_bytes();
                let name = self.step(i, actors[i]);
                self.trace.push(format!("{:?}:{name}", actors[i]));
                let after = self.mm.used_bytes();
                let grew: Vec<bool> = after.iter().zip(&before).map(|(a, b)| a > b).collect();
                let trace = &self.trace;
                self.check(actors, &grew)
                    .map_err(|e| format!("invariant {e} after {trace:?}"))
            }

            /// The five invariants; `grew` lists the nodes whose `used`
            /// grew in the last step.
            fn check(&self, actors: &[Actor], grew: &[bool]) -> Result<(), String> {
                for (h, handle) in self.handles.iter().enumerate() {
                    let st = handle.inner.state.lock();
                    let valid = st.replicas.iter().filter(|r| r.is_valid()).count();
                    let modified = st
                        .replicas
                        .iter()
                        .filter(|r| r.status == ReplicaStatus::Modified)
                        .count();
                    if self.registered[h]
                        && (valid == 0 || modified > 1 || modified == 1 && valid > 1)
                    {
                        return Err(format!(
                            "2: handle {h} has {valid} valid, {modified} Modified"
                        ));
                    }
                    for (n, r) in st.replicas.iter().enumerate() {
                        if r.is_valid() && r.cell.is_none() {
                            return Err(format!("1: handle {h} valid at {n} without a buffer"));
                        }
                        if n > 0 && r.cell.is_some() && !r.accounted {
                            return Err(format!("3: handle {h} holds a buffer at {n} unaccounted"));
                        }
                        let owned = actors.iter().zip(&self.progress).any(|(a, p)| {
                            p.inflight && matches!(*a, Actor::Prefetch(x, y) | Actor::Write(x, y) if (x, y) == (h, n))
                        });
                        if n > 0 && r.accounted && r.cell.is_none() && !owned {
                            return Err(format!("3: handle {h} accounted at {n} without a buffer"));
                        }
                        let payload = r
                            .cell
                            .as_ref()
                            .map(|c| *c.read().downcast_ref::<u64>().unwrap());
                        if self.registered[h] && r.is_valid() && payload != Some(self.shadow[h]) {
                            return Err(format!(
                                "5: handle {h} at {n} holds {payload:?}, not {}",
                                self.shadow[h]
                            ));
                        }
                    }
                }
                for (n, node) in self.mm.nodes.iter().enumerate() {
                    let mut sums = [0u64; 3];
                    for handle in &self.handles {
                        let share = share(&handle.inner.state.lock().replicas[n], BYTES as u64);
                        sums.iter_mut().zip(share).for_each(|(s, b)| *s += b);
                    }
                    let nm = node.lock();
                    if [nm.used, nm.pinned, nm.dead] != sums {
                        return Err(format!(
                            "3: node {n} books {:?} != sums {sums:?}",
                            [nm.used, nm.pinned, nm.dead]
                        ));
                    }
                    if grew[n] && nm.budget.is_some_and(|b| nm.used > b) && nm.used != nm.pinned {
                        return Err(format!(
                            "4: node {n} grew to {} unpinned bytes over budget",
                            nm.used
                        ));
                    }
                }
                Ok(())
            }
        }

        /// Replays a schedule whose steps were checked already.
        fn replay(actors: &[Actor], schedule: &[usize]) -> World {
            let mut w = World::new(actors.len());
            for &i in schedule {
                w.advance(actors, i).expect("a checked prefix replays");
            }
            w
        }

        /// Explores every interleaving of `actors` up to `k` steps; returns
        /// the number of complete runs. The first branch at each point goes
        /// on with the world at hand, the others replay the prefix.
        fn explore(actors: &[Actor], k: usize) -> Result<usize, String> {
            fn dfs(
                actors: &[Actor],
                k: usize,
                prefix: &mut Vec<usize>,
                w: World,
            ) -> Result<usize, String> {
                let enabled = w.enabled(actors);
                if enabled.is_empty() || prefix.len() == k {
                    return Ok(1);
                }
                let (mut first, mut runs) = (Some(w), 0);
                for i in enabled {
                    let mut w = first.take().unwrap_or_else(|| replay(actors, prefix));
                    prefix.push(i);
                    w.advance(actors, i)?;
                    runs += dfs(actors, k, prefix, w)?;
                    prefix.pop();
                }
                Ok(runs)
            }
            dfs(actors, k, &mut Vec::new(), World::new(actors.len()))
        }

        use Actor::{Host as H, Prefetch, Reclaim, Write};

        fn run(scenarios: &[&[Actor]], k: usize) {
            for actors in scenarios {
                let runs = explore(actors, k).unwrap_or_else(|e| panic!("{actors:?}: {e}"));
                assert!(runs > 1, "{actors:?} explored only {runs} run");
            }
        }

        #[test]
        fn every_interleaving_keeps_the_invariants() {
            run(
                &[
                    &[Prefetch(0, 1), H(0, Host::Discard)],
                    &[Prefetch(0, 1), H(0, Host::Unregister)],
                    &[Prefetch(0, 1), H(0, Host::Write), Reclaim(1)],
                    &[Prefetch(0, 2), Write(0, 1)],
                    &[Write(0, 1), Reclaim(1), H(0, Host::Read)],
                    &[Prefetch(1, 1), Write(0, 1), Reclaim(1)],
                    &[Write(0, 1), Prefetch(0, 2), H(0, Host::Discard)],
                ],
                24,
            );
        }

        #[test]
        #[ignore = "deep variant (~a minute in release); CI runs it"]
        fn every_deep_interleaving_keeps_the_invariants() {
            run(
                &[
                    &[Prefetch(0, 1), Write(1, 1), H(0, Host::Discard), Reclaim(1)],
                    &[Write(0, 1), Prefetch(0, 2), H(0, Host::Discard), Reclaim(1)],
                    &[
                        Prefetch(0, 1),
                        Prefetch(1, 1),
                        H(0, Host::Discard),
                        Reclaim(1),
                    ],
                    &[Prefetch(0, 2), Write(0, 1), Reclaim(1), Reclaim(2)],
                    &[
                        Prefetch(0, 1),
                        Write(1, 2),
                        H(0, Host::Unregister),
                        Reclaim(2),
                    ],
                ],
                40,
            );
        }
    }
}
