//! Memory-node capacity management: budgets, LRU eviction, writeback, and
//! the allocation-reuse cache.
//!
//! The paper's data-management story (§IV-E, Fig. 3) assumes a replica can
//! always be allocated on any memory node. Real accelerators cannot — the
//! C2050 the paper evaluates on has 3 GB — so this module gives every
//! memory node a capacity budget (from [`peppher_sim::DeviceProfile::
//! mem_bytes`]) and an allocator that accounts each replica's bytes. When
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
//! Three refinements mirror StarPU's memory layer:
//!
//! * **Allocation cache** ([`freelist::FreeList`]): evicted and
//!   invalidated device buffers are retained in a per-node, size-class-
//!   keyed free-list instead of being freed, and later allocations of a
//!   compatible size reuse them (`cudaMalloc` synchronizes the device, so
//!   avoiding it is a real win). Retained bytes count against the node's
//!   budget and the cache is trimmed (oldest first) *before* any live
//!   replica is evicted.
//! * **`wont_use` hints** ([`MemoryManager::wont_use`], StarPU's
//!   `starpu_data_wont_use`): a replica flagged dead is demoted to an
//!   eager-eviction candidate chosen ahead of LRU order; any later touch
//!   resurrects it.
//! * **Eviction-aware prefetch** ([`MemoryManager::prefetch_fits`]):
//!   instead of skipping any prefetch that does not fit the free space,
//!   the prefetcher counts every unpinned replica outside the prefetching
//!   task's own operand set — plus the allocation cache — as space about
//!   to free up.
//!
//! Accounting invariant: a device replica holds a buffer cell **iff** its
//! bytes are accounted here. Every cell creation goes through
//! [`MemoryManager::prepare`] and every cell drop through
//! [`MemoryManager::recycle`] (invalidation), eviction, or
//! [`MemoryManager::forget`] (unregistration) — and the dropped buffer is
//! offered to the node's allocation cache on the way out.
//! [`MemoryManager::validate`] checks the whole invariant on demand.
//!
//! Accounting is not residency. A replica is accounted before its copy
//! lands, and main memory keeps its buffer and accounting when a device
//! write makes the host copy stale. The schedulers therefore read
//! residency from the handles' valid masks, never from these maps; this
//! module answers only capacity questions (what fits, what must be
//! evicted, what that costs).

mod freelist;

use crate::coherence::Topology;
use crate::handle::{DataHandle, HandleInner, PayloadBox, PayloadCell, ReplicaStatus};
use crate::stats::{StatsCollector, TraceEvent};
use freelist::FreeList;
use parking_lot::{Mutex, RwLock};
use peppher_sim::{MachineConfig, VTime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    /// family is evicted together — clean (never-written) families before
    /// dirty ones, oldest family first — instead of LRU shredding a
    /// partition's blocks interleaved with hot data. Handles without a
    /// family compete as single replicas under the same dead-first,
    /// clean-first, oldest-first order, so this is *not* LRU even on
    /// unpartitioned workloads: a clean replica is evicted before an older
    /// dirty one.
    Family,
}

/// One resident (or pinned-pending) replica at a node.
struct Resident {
    /// Back-reference for eviction surgery; dead handles are lazily reaped.
    weak: Weak<HandleInner>,
    /// Accounted bytes; 0 marks a pin placeholder created before the
    /// replica's buffer was allocated.
    bytes: u64,
    /// LRU clock stamp of the last touch.
    last_use: u64,
    /// Pin count — operands of running/placed tasks; never evicted.
    pinned: u32,
    /// `wont_use` hint: the application declared this replica dead, making
    /// it an eager-eviction candidate ahead of LRU order. Cleared by any
    /// later touch.
    dead: bool,
    /// Owning job id (0 = the implicit default job), from the handle at
    /// accounting time. Drives per-job quota charging and
    /// [`MemoryManager::reclaim_job`].
    job: u64,
    /// Block-family id (0 = no family), resolved from the family registry
    /// at accounting time. Under [`EvictionPolicy::Family`], eviction
    /// takes whole sibling sets keyed by this id.
    family: u64,
    /// Heuristic dirty flag: set when a completed write made this replica
    /// the Modified copy, cleared when a fresh (transferred-in) buffer is
    /// accounted. Family victim ranking prefers clean families — evicting
    /// them costs no writeback. Correctness never depends on this bit; the
    /// authoritative writeback decision stays with eviction's sole-valid
    /// check.
    dirty: bool,
}

/// Per-node allocator state.
struct NodeMem {
    /// Capacity in bytes; `None` is unbounded (main memory).
    budget: Option<u64>,
    /// Currently accounted bytes of *live* replicas (the allocation
    /// cache's retained bytes are tracked separately in `cache`).
    used: u64,
    /// Largest `used + cache.retained()` ever observed.
    high_water: u64,
    /// Monotonic LRU clock.
    clock: u64,
    /// Accounting entries keyed by handle id.
    residents: HashMap<u64, Resident>,
    /// Accounted bytes per owning job (entries removed at zero, so the map
    /// is bounded by the number of jobs with live replicas here).
    job_used: HashMap<u64, u64>,
    /// The allocation-reuse cache of retained (evicted/invalidated)
    /// buffers. Capped at the node budget; zero-capped on node 0.
    cache: FreeList,
}

impl NodeMem {
    fn stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn account(&mut self, job: u64, bytes: u64) {
        self.used += bytes;
        *self.job_used.entry(job).or_insert(0) += bytes;
        self.high_water = self.high_water.max(self.used + self.cache.retained());
    }

    fn unaccount(&mut self, job: u64, bytes: u64) {
        self.used = self.used.saturating_sub(bytes);
        if let Some(ju) = self.job_used.get_mut(&job) {
            *ju = ju.saturating_sub(bytes);
            if *ju == 0 {
                self.job_used.remove(&job);
            }
        }
    }

    /// Whether allocating `need` more bytes would exceed the budget,
    /// counting both live and cache-retained bytes.
    fn over_budget(&self, need: u64) -> bool {
        matches!(self.budget, Some(b) if self.used + self.cache.retained() + need > b)
    }
}

/// The runtime's memory subsystem: one allocator per memory node.
pub struct MemoryManager {
    nodes: Vec<Mutex<NodeMem>>,
    policy: EvictionPolicy,
    /// Per-job device-memory quotas (bytes per device node), set at job
    /// creation via [`MemoryManager::set_quota`].
    quotas: RwLock<HashMap<u64, u64>>,
    /// Fast flag mirroring `!quotas.is_empty()`, so the quota-free hot
    /// path pays one relaxed load instead of an `RwLock` read per prepare.
    has_quotas: AtomicBool,
    /// Block-family registry: handle id → family id (0 / absent = no
    /// family). Written by [`MemoryManager::set_family`] when a container
    /// partitions; read at replica-accounting time.
    families: RwLock<HashMap<u64, u64>>,
    /// Family id → member handles (weak, pruned on read). Lets the
    /// prefetcher pull a whole sibling set in one planned burst.
    family_members: RwLock<HashMap<u64, Vec<Weak<HandleInner>>>>,
    /// Monotonic family-id source (ids start at 1; 0 = no family).
    next_family: AtomicU64,
    /// Fast flag mirroring `!families.is_empty()` — the family-free hot
    /// path pays one relaxed load per prepare, like `has_quotas`.
    has_families: AtomicBool,
}

/// Outcome of one victim-selection pass under the node lock.
enum Selection {
    /// Space is available; the caller may allocate.
    Done,
    /// Evict these residents (a whole block family under
    /// [`EvictionPolicy::Family`], a single replica otherwise), then retry.
    Victim(Vec<(u64, Resident)>),
    /// Nothing evictable: overcommit so pinned work still proceeds.
    Overcommit,
}

impl MemoryManager {
    /// Builds the per-node allocators with budgets from the machine config.
    /// Budgeted device nodes retain freed buffers in an allocation cache
    /// (node 0's host allocations are cheap and an unbounded cache would
    /// never trim, so those nodes never cache).
    pub(crate) fn new(machine: &MachineConfig, policy: EvictionPolicy) -> Self {
        let nodes = (0..machine.memory_nodes())
            .map(|n| {
                let budget = machine.node_budget(n);
                let cap = if n == 0 { 0 } else { budget.unwrap_or(0) };
                Mutex::new(NodeMem {
                    budget,
                    used: 0,
                    high_water: 0,
                    clock: 0,
                    residents: HashMap::new(),
                    job_used: HashMap::new(),
                    cache: FreeList::new(cap),
                })
            })
            .collect();
        MemoryManager {
            nodes,
            policy,
            quotas: RwLock::new(HashMap::new()),
            has_quotas: AtomicBool::new(false),
            families: RwLock::new(HashMap::new()),
            family_members: RwLock::new(HashMap::new()),
            next_family: AtomicU64::new(1),
            has_families: AtomicBool::new(false),
        }
    }

    /// Mints a fresh block-family id (container partitioning calls this
    /// once per partition level).
    pub fn new_family(&self) -> u64 {
        self.next_family.fetch_add(1, Ordering::Relaxed)
    }

    /// Links `handle` into block family `family`: future replica
    /// accounting carries the id (family-at-a-time eviction), the
    /// prefetcher can enumerate siblings, and any replica already resident
    /// is retagged in place.
    pub fn set_family(&self, handle: &DataHandle, family: u64) {
        self.families.write().insert(handle.id(), family);
        self.family_members
            .write()
            .entry(family)
            .or_default()
            .push(Arc::downgrade(&handle.inner));
        self.has_families.store(true, Ordering::Release);
        for node in &self.nodes {
            let mut nm = node.lock();
            if let Some(r) = nm.residents.get_mut(&handle.id()) {
                r.family = family;
            }
        }
    }

    /// Whether any handle has been linked into a block family — the
    /// family-free fast path for prefetch and eviction.
    pub fn any_families(&self) -> bool {
        self.has_families.load(Ordering::Acquire)
    }

    /// The family `handle_id` belongs to (0 = none).
    pub fn family_of(&self, handle_id: u64) -> u64 {
        if !self.has_families.load(Ordering::Acquire) {
            return 0;
        }
        self.families.read().get(&handle_id).copied().unwrap_or(0)
    }

    /// The live member handles of `family`, pruning members whose handles
    /// were dropped. Sibling order is registration order.
    pub fn family_handles(&self, family: u64) -> Vec<DataHandle> {
        if !self.has_families.load(Ordering::Acquire) {
            return Vec::new();
        }
        let members = self.family_members.read();
        members
            .get(&family)
            .map(|v| {
                v.iter()
                    .filter_map(|w| w.upgrade())
                    .map(|inner| DataHandle { inner })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Flags `handle_id`'s replica at `node` as dirty (a completed write
    /// made it the Modified copy). Called by coherence after
    /// `mark_written`; see [`Resident::dirty`].
    pub(crate) fn mark_dirty(&self, node: usize, handle_id: u64) {
        if node == 0 {
            return;
        }
        let mut nm = self.nodes[node].lock();
        if let Some(r) = nm.residents.get_mut(&handle_id) {
            r.dirty = true;
        }
    }

    /// Caps `job`'s accounted replica bytes at `bytes` per device node.
    /// An allocation that would push the job past its quota evicts the
    /// job's *own* replicas first (see [`MemoryManager::prepare`]); only
    /// when none are evictable does the job overcommit its quota.
    pub(crate) fn set_quota(&self, job: u64, bytes: u64) {
        self.quotas.write().insert(job, bytes);
        self.has_quotas.store(true, Ordering::Release);
    }

    /// The quota configured for `job`, if any.
    fn quota_for(&self, job: u64) -> Option<u64> {
        if !self.has_quotas.load(Ordering::Acquire) {
            return None;
        }
        self.quotas.read().get(&job).copied()
    }

    /// Per-node accounted bytes owned by `job` (the leak probe for the
    /// cancellation tests).
    pub fn job_used_bytes(&self, job: u64) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| n.lock().job_used.get(&job).copied().unwrap_or(0))
            .collect()
    }

    /// Whether `handle_id` has an allocated (accounted) replica at `node`.
    pub fn is_resident(&self, node: usize, handle_id: u64) -> bool {
        self.nodes[node]
            .lock()
            .residents
            .get(&handle_id)
            .is_some_and(|r| r.bytes > 0)
    }

    /// Whether a *prefetch* of `bytes` for a task whose operand handle ids
    /// are `keep` can land at `node`. Eviction-aware: every unpinned
    /// replica outside the task's own operand set is a victim candidate
    /// about to free up, as is the allocation cache, so only the
    /// unevictable bytes (pins and sibling operands) gate the prefetch.
    pub fn prefetch_fits(&self, node: usize, bytes: u64, keep: &[u64]) -> bool {
        if node == 0 {
            return true;
        }
        let nm = self.nodes[node].lock();
        let Some(budget) = nm.budget else { return true };
        let unevictable: u64 = nm
            .residents
            .iter()
            .filter(|(id, r)| r.pinned > 0 || keep.contains(id))
            .map(|(_, r)| r.bytes)
            .sum();
        unevictable + bytes <= budget
    }

    /// Bytes of new allocation the operands of `accesses` need at `node`
    /// beyond its reclaimable capacity (the `dmda` eviction-cost overflow;
    /// 0 when everything fits or the node is unbounded). Dead
    /// (`wont_use`-hinted) unpinned replicas outside the operand set are
    /// subtracted from the occupancy: they vanish before any live replica
    /// is evicted, as does the allocation cache (whose retained bytes are
    /// excluded from `used` already) — this is the post-prefetch occupancy
    /// the scheduler should price, not the instantaneous one.
    pub fn pressure_overflow(
        &self,
        node: usize,
        accesses: &[(DataHandle, crate::handle::AccessMode)],
    ) -> u64 {
        let nm = self.nodes[node].lock();
        let Some(budget) = nm.budget else { return 0 };
        let needed: u64 = accesses
            .iter()
            .filter(|(h, _)| nm.residents.get(&h.id()).is_none_or(|r| r.bytes == 0))
            .map(|(h, _)| h.bytes() as u64)
            .sum();
        let reclaimable: u64 = nm
            .residents
            .iter()
            .filter(|(id, r)| {
                r.dead && r.pinned == 0 && !accesses.iter().any(|(h, _)| h.id() == **id)
            })
            .map(|(_, r)| r.bytes)
            .sum();
        (nm.used.saturating_sub(reclaimable) + needed).saturating_sub(budget)
    }

    /// Per-node allocation high-water marks (live + cache-retained), in
    /// bytes.
    pub fn high_waters(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.lock().high_water).collect()
    }

    /// Per-node currently accounted bytes of live replicas.
    pub fn used_bytes(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.lock().used).collect()
    }

    /// Per-node bytes retained by the allocation cache.
    pub fn alloc_cache_retained(&self) -> Vec<u64> {
        self.nodes
            .iter()
            .map(|n| n.lock().cache.retained())
            .collect()
    }

    /// Frees every buffer retained by every node's allocation cache.
    /// Returns the total bytes released. After this, retained bytes are
    /// zero everywhere — the shutdown-balance check of the stress harness.
    pub fn drain_alloc_cache(&self) -> u64 {
        self.nodes.iter().map(|n| n.lock().cache.drain()).sum()
    }

    /// Checks the accounting invariants on every node: `used` equals the
    /// sum of resident bytes, the allocation cache's retained counter
    /// matches its entries, and the cache respects its cap.
    pub fn validate(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            let nm = node.lock();
            let sum: u64 = nm.residents.values().map(|r| r.bytes).sum();
            if sum != nm.used {
                return Err(format!(
                    "node {i}: used counter {} != resident byte sum {sum}",
                    nm.used
                ));
            }
            let job_sum: u64 = nm.job_used.values().sum();
            if job_sum != nm.used {
                return Err(format!(
                    "node {i}: per-job byte sum {job_sum} != used counter {}",
                    nm.used
                ));
            }
            for (job, ju) in &nm.job_used {
                let owned: u64 = nm
                    .residents
                    .values()
                    .filter(|r| r.job == *job)
                    .map(|r| r.bytes)
                    .sum();
                if owned != *ju {
                    return Err(format!(
                        "node {i}: job {job} accounted {ju} but owns {owned} resident bytes"
                    ));
                }
            }
            nm.cache
                .validate()
                .map_err(|e| format!("node {i} allocation cache: {e}"))?;
        }
        Ok(())
    }

    /// Flags every allocated device replica of `handle_id` as dead — the
    /// application will not touch it again, so eviction should take it
    /// first (before any live LRU victim). No data is moved here: a
    /// Modified replica still gets exactly one writeback when eviction
    /// actually claims it. Any later touch clears the hint.
    pub fn wont_use(&self, handle_id: u64) {
        for node in self.nodes.iter().skip(1) {
            let mut nm = node.lock();
            if let Some(r) = nm.residents.get_mut(&handle_id) {
                if r.bytes > 0 {
                    r.dead = true;
                }
            }
        }
    }

    /// Accounts a freshly registered payload's master copy at node 0.
    pub(crate) fn register_host(&self, handle: &DataHandle) {
        let family = self.family_of(handle.id());
        let mut nm = self.nodes[0].lock();
        let stamp = nm.stamp();
        nm.account(handle.job(), handle.bytes() as u64);
        nm.residents.insert(
            handle.id(),
            Resident {
                weak: Arc::downgrade(&handle.inner),
                bytes: handle.bytes() as u64,
                last_use: stamp,
                pinned: 0,
                dead: false,
                job: handle.job(),
                family,
                dirty: false,
            },
        );
    }

    /// Pins `handle` at `node` so it cannot be selected as an eviction
    /// victim (created as a placeholder when the replica is not yet
    /// allocated). No-op for node 0, which never evicts.
    pub(crate) fn pin(&self, node: usize, handle: &DataHandle) {
        if node == 0 {
            return;
        }
        let family = self.family_of(handle.id());
        let mut nm = self.nodes[node].lock();
        let stamp = nm.stamp();
        nm.residents
            .entry(handle.id())
            .or_insert_with(|| Resident {
                weak: Arc::downgrade(&handle.inner),
                bytes: 0,
                last_use: stamp,
                pinned: 0,
                dead: false,
                job: handle.job(),
                family,
                dirty: false,
            })
            .pinned += 1;
    }

    /// Releases one pin; placeholder entries that never allocated are
    /// removed.
    pub(crate) fn unpin(&self, node: usize, handle_id: u64) {
        if node == 0 {
            return;
        }
        let mut nm = self.nodes[node].lock();
        if let Some(r) = nm.residents.get_mut(&handle_id) {
            r.pinned = r.pinned.saturating_sub(1);
            if r.pinned == 0 && r.bytes == 0 {
                nm.residents.remove(&handle_id);
            }
        }
    }

    /// Makes room for (and accounts) `handle`'s replica at `node`, evicting
    /// LRU victims under pressure. Called by coherence *before* the
    /// handle's state lock is taken (lock order is handle → node, and
    /// eviction surgery needs victim handle locks). Touches the LRU stamp
    /// when the replica is already resident.
    ///
    /// Returns a buffer from the node's allocation cache when one of a
    /// sufficient size class is retained (an allocation-cache *hit*); the
    /// caller installs it as the replica's cell and overwrites its (stale)
    /// contents. `None` means the caller allocates fresh.
    pub(crate) fn prepare(
        &self,
        handle: &DataHandle,
        node: usize,
        topo: &Topology,
        stats: &StatsCollector,
    ) -> Option<PayloadCell> {
        if node == 0 {
            return None;
        }
        let need = handle.bytes() as u64;
        let job = handle.job();
        let quota = self.quota_for(job);
        // Resolved once, outside the node lock, so the selection pass under
        // the lock never touches the family registry.
        let req_family = self.family_of(handle.id());
        let mut reused: Option<PayloadCell> = None;
        let mut reused_bytes = 0u64;
        let mut nm = loop {
            let mut nm = self.nodes[node].lock();
            let stamp = nm.stamp();
            if let Some(r) = nm.residents.get_mut(&handle.id()) {
                r.last_use = stamp;
                r.dead = false; // a new use resurrects the replica
                if r.bytes > 0 {
                    // Already allocated and accounted. A cache buffer
                    // grabbed on an earlier pass goes back (another
                    // thread won the allocation race).
                    if let Some(cell) = reused.take() {
                        nm.cache.insert(cell, reused_bytes);
                    }
                    return None;
                }
            }
            // Per-job quota pre-pass: an allocation pushing the job
            // past its per-node quota evicts the job's *own* replicas
            // (its LRU first) before touching anyone else's. When the
            // job has nothing evictable left here, it overcommits its
            // quota softly — pinned working sets keep making progress
            // — and the node-budget logic below still applies.
            let quota_victim = quota
                .filter(|&q| nm.job_used.get(&job).copied().unwrap_or(0) + need > q)
                .and_then(|_| Self::select_victim(&mut nm, handle.id(), Some(job)));
            // Allocation cache first: a retained buffer of a
            // sufficient size class is reused outright — this is also
            // how an eviction victim's buffer becomes the allocation
            // that displaced it.
            if reused.is_none() {
                if let Some(buf) = nm.cache.take(need) {
                    reused_bytes = buf.bytes;
                    reused = Some(buf.cell);
                }
            }
            let selection = if let Some(victim) = quota_victim {
                Selection::Victim(vec![victim])
            } else if !nm.over_budget(need) {
                // Under budget with no retained buffer to reuse: honor
                // `wont_use` hints eagerly. A dead replica whose buffer
                // can serve this allocation is evicted now (its
                // writeback was due at eviction anyway) so the new
                // replica recycles the buffer instead of widening the
                // footprint alongside semantically-garbage data. Only
                // worthwhile when pressure is plausible — the node at
                // least half full once this allocation lands — and the
                // cache can actually retain the donated buffer.
                let donate = reused.is_none()
                    && nm.cache.cap() > 0
                    && nm.budget.is_some_and(|b| (nm.used + need) * 2 >= b);
                match donate {
                    true => match Self::select_dead_donor(&mut nm, handle.id(), need) {
                        Some(victim) => Selection::Victim(vec![victim]),
                        None => Selection::Done,
                    },
                    false => Selection::Done,
                }
            } else {
                // Over budget: dead cache memory goes first — trim
                // retained buffers before touching any live replica.
                while nm.over_budget(need) {
                    match nm.cache.trim_oldest() {
                        Some(freed) => stats.record_cache_trim(freed),
                        None => break,
                    }
                }
                if !nm.over_budget(need) {
                    Selection::Done
                } else {
                    // Family falls back to plain LRU when no group is
                    // evictable, so pressure still finds a victim.
                    let victims = match self.policy {
                        EvictionPolicy::Family => {
                            Self::select_victim_family(&mut nm, handle.id(), req_family)
                        }
                        EvictionPolicy::Lru => None,
                    }
                    .or_else(|| Self::select_victim(&mut nm, handle.id(), None).map(|v| vec![v]));
                    victims.map_or(Selection::Overcommit, Selection::Victim)
                }
            };
            match selection {
                Selection::Victim(victims) => {
                    // The victims already left the accounting under the
                    // lock; their surgery takes handle locks, so release it.
                    drop(nm);
                    if victims.len() > 1 {
                        stats.record_family_eviction(victims.len() as u64);
                    }
                    for (vid, r) in victims {
                        self.evict(vid, r, node, topo, stats);
                    }
                }
                // Account under the lock that found the room (or found
                // nothing evictable): released in between, a concurrent
                // allocation could take the same room and overshoot the
                // budget.
                Selection::Done | Selection::Overcommit => break nm,
            }
        };
        let stamp = nm.stamp();
        nm.account(job, need);
        let weak = Arc::downgrade(&handle.inner);
        let entry = nm.residents.entry(handle.id()).or_insert_with(|| Resident {
            weak,
            bytes: 0,
            last_use: stamp,
            pinned: 0,
            dead: false,
            job,
            family: req_family,
            dirty: false,
        });
        entry.bytes = need;
        entry.last_use = stamp;
        entry.dead = false;
        entry.family = req_family;
        // The buffer is (about to be) filled from a valid source copy; any
        // write that dirties it again goes through `mark_dirty`.
        entry.dirty = false;
        drop(nm);
        match reused {
            Some(cell) => {
                stats.record_cache_hit();
                stats.record_event(TraceEvent::Reuse {
                    handle: handle.id(),
                    node,
                    bytes: need as usize,
                });
                Some(cell)
            }
            None => {
                stats.record_cache_miss();
                None
            }
        }
    }

    /// Picks and *removes* the best eviction victim under the node lock
    /// (so concurrent allocators cannot double-evict); its bytes are
    /// un-accounted immediately. Dead (`wont_use`-hinted) replicas go
    /// first, oldest first; live replicas follow in LRU order. With
    /// `Some(job)` only that job's replicas qualify — quota overflow and
    /// job reclaim evict the job's own data.
    fn select_victim(
        nm: &mut NodeMem,
        requester: u64,
        job: Option<u64>,
    ) -> Option<(u64, Resident)> {
        let vid = nm
            .residents
            .iter()
            .filter(|(id, r)| {
                **id != requester && r.pinned == 0 && r.bytes > 0 && job.is_none_or(|j| r.job == j)
            })
            .min_by_key(|(_, r)| (!r.dead, r.last_use))
            .map(|(id, _)| *id)?;
        let r = nm.residents.remove(&vid).expect("victim just found");
        nm.unaccount(r.job, r.bytes);
        Some((vid, r))
    }

    /// Family-at-a-time victim selection ([`EvictionPolicy::Family`]):
    /// residents are grouped by block family and a whole sibling set leaves
    /// the node together, so a partition tree is never LRU-shredded
    /// replica-by-replica interleaved with hot blocks. Groups are ranked
    /// dead-first, then *clean*-first (no writeback due anywhere in the
    /// set), then by the family's most recent use — dropping a clean family
    /// costs zero writeback bytes, which is where this policy beats plain
    /// LRU on out-of-core working sets. Family-less replicas compete as
    /// singleton groups under the same key; families with a pinned member
    /// are skipped whole (they are mid-use — evicting their siblings would
    /// only thrash). Returns `None` when nothing groupable is evictable;
    /// the caller falls back to plain LRU for liveness.
    fn select_victim_family(
        nm: &mut NodeMem,
        requester: u64,
        requester_family: u64,
    ) -> Option<Vec<(u64, Resident)>> {
        struct Group {
            ids: Vec<u64>,
            all_dead: bool,
            any_dirty: bool,
            pinned: bool,
            last_use: u64,
        }
        let mut groups: HashMap<u64, Group> = HashMap::new();
        let mut best_single: Option<(u64, (bool, bool, u64))> = None;
        for (id, r) in nm.residents.iter() {
            if *id == requester || r.bytes == 0 {
                continue;
            }
            if r.family != 0 && r.family == requester_family {
                // The requester's own siblings are about to be used with it;
                // evicting them to make room for one of them thrashes.
                continue;
            }
            if r.family == 0 {
                if r.pinned > 0 {
                    continue;
                }
                let key = (!r.dead, r.dirty, r.last_use);
                if best_single.as_ref().is_none_or(|(_, k)| key < *k) {
                    best_single = Some((*id, key));
                }
                continue;
            }
            let g = groups.entry(r.family).or_insert(Group {
                ids: Vec::new(),
                all_dead: true,
                any_dirty: false,
                pinned: false,
                last_use: 0,
            });
            g.ids.push(*id);
            g.all_dead &= r.dead;
            g.any_dirty |= r.dirty;
            g.pinned |= r.pinned > 0;
            g.last_use = g.last_use.max(r.last_use);
        }
        let best_family = groups
            .into_values()
            .filter(|g| !g.pinned)
            .min_by_key(|g| (!g.all_dead, g.any_dirty, g.last_use));
        let ids = match (best_family, best_single) {
            (Some(g), Some((sid, skey))) => {
                let gkey = (!g.all_dead, g.any_dirty, g.last_use);
                if gkey <= skey {
                    g.ids
                } else {
                    vec![sid]
                }
            }
            (Some(g), None) => g.ids,
            (None, Some((sid, _))) => vec![sid],
            (None, None) => return None,
        };
        let mut victims = Vec::with_capacity(ids.len());
        for vid in ids {
            let r = nm.residents.remove(&vid).expect("victim just found");
            nm.unaccount(r.job, r.bytes);
            victims.push((vid, r));
        }
        Some(victims)
    }

    /// Picks and removes a *dead* replica whose buffer can serve an
    /// allocation of `need` bytes — the eager half of `wont_use`: instead
    /// of letting hinted-dead data squat until capacity pressure, its
    /// buffer is donated to the next compatible allocation. Prefers the
    /// tightest size class, then the oldest stamp (a 32 KiB donor is not
    /// burned on a 1 KiB request while a 1 KiB donor exists).
    fn select_dead_donor(nm: &mut NodeMem, requester: u64, need: u64) -> Option<(u64, Resident)> {
        let vid = nm
            .residents
            .iter()
            .filter(|(id, r)| {
                **id != requester && r.pinned == 0 && r.dead && r.bytes >= need.max(1)
            })
            .min_by_key(|(_, r)| (FreeList::size_class(r.bytes), r.last_use))
            .map(|(id, _)| *id)?;
        let r = nm.residents.remove(&vid).expect("donor just found");
        nm.unaccount(r.job, r.bytes);
        Some((vid, r))
    }

    /// Eviction surgery on a victim already removed from the accounting:
    /// writes a sole-valid (Modified) copy back to main memory over the
    /// device link, invalidates the replica, and retains the freed buffer
    /// in the node's allocation cache for reuse.
    fn evict(
        &self,
        victim_id: u64,
        resident: Resident,
        node: usize,
        topo: &Topology,
        stats: &StatsCollector,
    ) {
        assert_eq!(resident.pinned, 0, "pinned replica selected for eviction");
        let Some(inner) = resident.weak.upgrade() else {
            return; // handle already dropped; bytes were just released
        };
        let handle = DataHandle { inner };
        let mut st = handle.inner.state.lock();
        // A concurrent (pinned) make_valid may have re-registered the
        // replica between selection and here; if so it owns the buffer now.
        if self.nodes[node].lock().residents.contains_key(&victim_id) {
            return;
        }
        let Some(cell) = st.replicas[node].cell.take() else {
            return;
        };
        let sole_valid = st.replicas[node].is_valid()
            && !st
                .replicas
                .iter()
                .enumerate()
                .any(|(i, r)| i != node && r.is_valid());
        let mut writeback = false;
        if sole_valid {
            // Last valid copy (Modified, or Shared whose peers were already
            // evicted): write back to node 0 before invalidating.
            let arrive = topo.hop(&handle, node, 0, st.replicas[node].vready, stats);
            let payload = (handle.inner.clone_fn)(&cell.read());
            match &st.replicas[0].cell {
                Some(c0) => *c0.write() = payload,
                None => {
                    st.replicas[0].cell = Some(Arc::new(RwLock::new(payload as PayloadBox)));
                }
            }
            st.replicas[0].status = ReplicaStatus::Modified;
            st.replicas[0].vready = arrive;
            writeback = true;
        }
        st.replicas[node].status = ReplicaStatus::Invalid;
        st.replicas[node].vready = VTime::ZERO;
        drop(st);
        // Retain the freed buffer for reuse — unless a straggling guard
        // still references the cell, in which case it just drops.
        if Arc::strong_count(&cell) == 1 {
            let mut nm = self.nodes[node].lock();
            let trimmed = nm.cache.insert(cell, resident.bytes);
            if trimmed > 0 {
                stats.record_cache_trim(trimmed);
            }
        }
        stats.record_eviction(resident.bytes, writeback);
        stats.record_event(TraceEvent::Evict {
            handle: victim_id,
            node,
            bytes: resident.bytes as usize,
            writeback,
        });
    }

    /// Releases the accounting for `handle_id`'s replica at `node` after
    /// its buffer left the replica array (invalidation in `mark_written`,
    /// unregistration), retaining the buffer in the allocation cache when
    /// the caller could take sole ownership of it.
    pub(crate) fn recycle(
        &self,
        node: usize,
        handle_id: u64,
        cell: Option<PayloadCell>,
        stats: &StatsCollector,
    ) {
        let mut nm = self.nodes[node].lock();
        if let Some(r) = nm.residents.get_mut(&handle_id) {
            let freed = std::mem::take(&mut r.bytes);
            let unpinned = r.pinned == 0;
            let job = r.job;
            nm.unaccount(job, freed);
            if unpinned {
                nm.residents.remove(&handle_id);
            }
            if freed > 0 {
                if let Some(cell) = cell {
                    if Arc::strong_count(&cell) == 1 {
                        let trimmed = nm.cache.insert(cell, freed);
                        if trimmed > 0 {
                            stats.record_cache_trim(trimmed);
                        }
                    }
                }
            }
        }
    }

    /// Returns a cache buffer that lost an allocation race back to the
    /// node's free-list (coherence grabbed it via [`MemoryManager::
    /// prepare`] but another thread installed a cell first).
    pub(crate) fn give_back(&self, node: usize, cell: PayloadCell, bytes: u64) {
        if node == 0 {
            return;
        }
        let mut nm = self.nodes[node].lock();
        nm.cache.insert(cell, bytes);
    }

    /// Drops every node's accounting for a handle being unregistered.
    pub(crate) fn forget(&self, handle_id: u64) {
        for node in &self.nodes {
            let mut nm = node.lock();
            if let Some(r) = nm.residents.remove(&handle_id) {
                nm.unaccount(r.job, r.bytes);
            }
        }
    }

    /// Evicts every unpinned resident replica at `node` (diagnostics and
    /// the eviction-injection property tests). Returns the number evicted.
    ///
    /// Eviction retains victim buffers in the allocation cache, and the
    /// cache may also hold bytes from nodes that never allocated again
    /// after their last trim — a *reclaim* means "give the memory back",
    /// so the cache is drained after the eviction loop (the drained bytes
    /// count as trims in the stats).
    pub(crate) fn reclaim_node(&self, node: usize, topo: &Topology, stats: &StatsCollector) -> u64 {
        if node == 0 {
            return 0;
        }
        let mut evicted = 0;
        // The victim leaves the accounting under the node lock, released
        // before the eviction surgery takes the handle's lock.
        loop {
            let victim = Self::select_victim(&mut self.nodes[node].lock(), u64::MAX, None);
            let Some((vid, r)) = victim else { break };
            self.evict(vid, r, node, topo, stats);
            evicted += 1;
        }
        let drained = self.nodes[node].lock().cache.drain();
        if drained > 0 {
            stats.record_cache_trim(drained);
        }
        evicted
    }

    /// Evicts every unpinned device replica owned by `job` (job
    /// cancellation / teardown): Modified replicas get their one writeback
    /// so node 0 keeps a valid master copy, then the job's quota
    /// accounting on every device node returns to zero. Returns the total
    /// bytes released. Pinned replicas (a task still executing) are left
    /// for their unpin + recycle path.
    pub(crate) fn reclaim_job(&self, job: u64, topo: &Topology, stats: &StatsCollector) -> u64 {
        let mut freed = 0;
        for node in 1..self.nodes.len() {
            loop {
                let victim = Self::select_victim(&mut self.nodes[node].lock(), u64::MAX, Some(job));
                let Some((vid, r)) = victim else { break };
                freed += r.bytes;
                self.evict(vid, r, node, topo, stats);
            }
        }
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::{self, Topology};
    use crate::handle::AccessMode;
    use peppher_sim::MachineConfig;

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
        let fam = mm.new_family();
        mm.set_family(&a1, fam);
        mm.set_family(&a2, fam);
        assert_eq!(mm.family_of(a1.id()), fam);
        assert_eq!(mm.family_handles(fam).len(), 2);
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
        let dirty_fam = mm.new_family();
        let clean_fam = mm.new_family();
        mm.set_family(&d1, dirty_fam);
        mm.set_family(&d2, dirty_fam);
        mm.set_family(&c1, clean_fam);
        mm.set_family(&c2, clean_fam);
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
        let fam = mm.new_family();
        mm.set_family(&a1, fam);
        mm.set_family(&a2, fam);
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
    fn eviction_victim_buffer_is_reused_by_displacing_allocation() {
        let (m, topo, stats, mm) = fixture(10 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 4, m.memory_nodes());
        let c = handle(3, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&b, 1, AccessMode::Read, &topo, &stats, &mm);
        // c's allocation evicts a (LRU); a's freed 4 KiB buffer lands in
        // the cache and is immediately reused for c itself.
        coherence::make_valid(&c, 1, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.alloc_cache_hits, 1, "victim buffer reused");
        assert!(c.valid_on(1));
        // The trace orders the eviction before the reuse of its space.
        let trace = stats.trace.lock();
        let evict = trace
            .iter()
            .position(|e| matches!(e, TraceEvent::Evict { handle: 1, .. }))
            .expect("evict recorded");
        let reuse = trace
            .iter()
            .position(|e| matches!(e, TraceEvent::Reuse { handle: 3, .. }))
            .expect("reuse recorded");
        assert!(evict < reuse, "eviction frees the space reuse consumes");
        drop(trace);
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
    fn dead_replica_donates_buffer_without_pressure() {
        // Eager wont_use: even with free space left, a hinted-dead replica
        // is evicted so the next compatible allocation recycles its buffer
        // instead of allocating fresh beside garbage. (Donation arms once
        // the node would be at least half full.)
        let (m, topo, stats, mm) = fixture(8 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        mm.wont_use(a.id());
        coherence::make_valid(&b, 1, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert_eq!(snap.evictions, 1, "dead donor evicted despite free space");
        assert_eq!(snap.alloc_cache_hits, 1, "donor buffer recycled");
        assert!(!a.valid_on(1) && b.valid_on(1));
        assert_eq!(mm.used_bytes()[1], 4 * 1024, "footprint did not widen");
        mm.validate().unwrap();
    }

    #[test]
    fn dead_donor_prefers_tightest_size_class() {
        // A 1 KiB request must take the 1 KiB dead donor, not burn the
        // 8 KiB one.
        let (m, topo, stats, mm) = fixture(16 * 1024);
        let big = handle(1, 8, m.memory_nodes());
        let small = handle(2, 1, m.memory_nodes());
        let incoming = handle(3, 1, m.memory_nodes());
        coherence::make_valid(&big, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&small, 1, AccessMode::Read, &topo, &stats, &mm);
        mm.wont_use(big.id());
        mm.wont_use(small.id());
        coherence::make_valid(&incoming, 1, AccessMode::Read, &topo, &stats, &mm);
        assert!(big.valid_on(1), "big donor untouched");
        assert!(!small.valid_on(1), "small donor consumed");
        assert_eq!(stats.snapshot().alloc_cache_hits, 1);
        mm.validate().unwrap();
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
        mm.wont_use(b.id());
        coherence::make_valid(&c, 1, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert_eq!(snap.evictions, 1);
        assert!(a.valid_on(1), "live LRU replica survives");
        assert!(!b.valid_on(1), "dead replica evicted first");
        // b was Modified: the writeback happened exactly once, and the
        // trace orders it before the reuse of the freed space by c.
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
        let reuse = trace
            .iter()
            .position(|e| matches!(e, TraceEvent::Reuse { handle: 3, .. }))
            .expect("c reuses b's freed buffer");
        assert!(wb < reuse, "writeback precedes reuse of the freed space");
    }

    #[test]
    fn touch_resurrects_dead_replica() {
        let (m, topo, stats, mm) = fixture(9 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        let b = handle(2, 4, m.memory_nodes());
        let c = handle(3, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        coherence::make_valid(&b, 1, AccessMode::Read, &topo, &stats, &mm);
        mm.wont_use(b.id());
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
        mm.unpin(1, a.id());
        mm.unpin(1, b.id());
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
        mm.wont_use(a.id());
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
        assert!(mm.prefetch_fits(1, b.bytes() as u64, &[b.id()]));
        // With a pinned (a running task holds it) nothing is reclaimable.
        mm.pin(1, &a);
        assert!(!mm.prefetch_fits(1, b.bytes() as u64, &[b.id()]));
        mm.unpin(1, a.id());
        // A sibling operand of the same task is likewise untouchable.
        assert!(!mm.prefetch_fits(1, b.bytes() as u64, &[a.id(), b.id()]));
    }

    #[test]
    fn alloc_cache_balances_to_zero_on_drain() {
        let (m, topo, stats, mm) = fixture(10 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        // Host write invalidates the device replica; its buffer is
        // recycled into the cache rather than freed.
        coherence::mark_written(&a, 0, VTime::from_micros(1), &stats, &mm);
        assert_eq!(mm.used_bytes()[1], 0);
        assert_eq!(mm.alloc_cache_retained()[1], 4 * 1024);
        mm.validate().unwrap();
        assert_eq!(mm.drain_alloc_cache(), 4 * 1024);
        assert_eq!(mm.alloc_cache_retained()[1], 0);
        mm.validate().unwrap();
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
        // Reclaim means "give the memory back": the victims' buffers pass
        // through the allocation cache but the cache is drained before
        // reclaim returns, and the drained bytes show up as trims.
        assert_eq!(mm.alloc_cache_retained()[1], 0);
        assert_eq!(snap.alloc_cache_trim_bytes, 8 * 1024);
        mm.validate().unwrap();
    }

    #[test]
    fn reclaim_drains_cache_bytes_left_by_earlier_invalidations() {
        // The satellite-fix scenario: a node whose cache retains bytes
        // from an invalidation but which never allocates again afterward.
        // Reclaim must drain those retained bytes even with no live
        // replica left to evict.
        let (m, topo, stats, mm) = fixture(64 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        // Host write invalidates the device replica; its buffer is
        // recycled into the cache.
        coherence::mark_written(&a, 0, VTime::from_micros(1), &stats, &mm);
        assert_eq!(mm.used_bytes()[1], 0);
        assert_eq!(mm.alloc_cache_retained()[1], 4 * 1024);
        assert_eq!(mm.reclaim_node(1, &topo, &stats), 0, "nothing to evict");
        assert_eq!(mm.alloc_cache_retained()[1], 0, "retained bytes drained");
        assert_eq!(stats.snapshot().alloc_cache_trim_bytes, 4 * 1024);
        mm.validate().unwrap();
    }

    #[test]
    fn release_and_forget_drop_accounting() {
        let (m, topo, stats, mm) = fixture(64 * 1024);
        let a = handle(1, 4, m.memory_nodes());
        coherence::make_valid(&a, 1, AccessMode::Read, &topo, &stats, &mm);
        mm.recycle(1, a.id(), None, &stats);
        assert_eq!(mm.used_bytes()[1], 0);
        assert!(!mm.is_resident(1, a.id()));

        mm.register_host(&a);
        assert_eq!(mm.used_bytes()[0], 4 * 1024);
        mm.forget(a.id());
        assert_eq!(mm.used_bytes()[0], 0);
    }
}
