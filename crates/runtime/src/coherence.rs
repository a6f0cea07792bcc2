//! MSI coherence across memory nodes, with virtually-timed transfers over
//! a routed, full-duplex transfer fabric.
//!
//! Implements the protocol the paper walks through in Fig. 3: replicas of a
//! handle may exist on several memory units; writes invalidate remote
//! copies ("the master copy in the main memory is marked outdated"); reads
//! fetch lazily ("a copy from device memory to main memory is implicitly
//! invoked before the actual data access takes place"); write-only accesses
//! allocate without copying.
//!
//! The fabric models each PCIe link as two independent channels (h2d and
//! d2h — full-duplex DMA engines), optionally adds peer-to-peer
//! device↔device channels ([`peppher_sim::MachineConfig::p2p`]), plans the
//! cheapest route per transfer, and deduplicates concurrent transfers of
//! the same `(handle, node)` pair through an in-flight registry.

use crate::handle::{AccessMode, DataHandle, HandleState, PayloadCell, ReplicaStatus};
use crate::memory::MemoryManager;
use crate::stats::{StatsCollector, TraceEvent};
use parking_lot::{Condvar, Mutex, RwLock};
use peppher_sim::{LinkProfile, MachineConfig, VTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Mutable occupancy timeline of one directed transfer channel.
#[derive(Debug, Default)]
pub struct LinkState {
    /// Virtual time until which the channel is busy.
    pub vnow: VTime,
    /// Accumulated time the channel actually spent moving bytes (excludes
    /// idle gaps, so `busy / makespan` is the channel's utilization).
    pub busy: VTime,
}

/// A directed channel of the transfer fabric. Each PCIe link contributes
/// two (the h2d and d2h DMA engines work concurrently); each ordered device
/// pair contributes one when peer-to-peer links are configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// Host → device channel of the link serving device node `.0`.
    HostToDevice(usize),
    /// Device → host channel of the link serving device node `.0`.
    DeviceToHost(usize),
    /// Directed peer-to-peer channel between two device nodes.
    Peer(usize, usize),
}

impl std::fmt::Display for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Channel::HostToDevice(n) => write!(f, "h2d:{n}"),
            Channel::DeviceToHost(n) => write!(f, "d2h:{n}"),
            Channel::Peer(a, b) => write!(f, "p2p:{a}->{b}"),
        }
    }
}

/// One pending transfer in the in-flight registry: readers that need the
/// same `(handle, node)` replica block on `cv` instead of starting a
/// duplicate copy.
struct PendingTransfer {
    done: Mutex<Option<VTime>>,
    cv: Condvar,
}

impl PendingTransfer {
    fn new() -> Self {
        PendingTransfer {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) -> VTime {
        let mut g = self.done.lock();
        while g.is_none() {
            self.cv.wait(&mut g);
        }
        g.unwrap()
    }

    fn finish(&self, at: VTime) {
        *self.done.lock() = Some(at);
        self.cv.notify_all();
    }
}

enum Inflight {
    /// This caller starts (and owns) the transfer.
    Owner(Arc<PendingTransfer>),
    /// Another caller's transfer is already in flight: join it.
    Join(Arc<PendingTransfer>),
}

/// The machine's transfer fabric: a full-duplex host⇄device link per
/// accelerator (device node `i + 1` ⇄ main memory, node 0), plus optional
/// peer-to-peer device↔device channels, plus the in-flight registry that
/// deduplicates concurrent transfers of the same replica.
pub struct Topology {
    host_profiles: Vec<LinkProfile>,
    h2d: Vec<Mutex<LinkState>>,
    d2h: Vec<Mutex<LinkState>>,
    /// Per-*directed*-pair peer link profiles, indexed
    /// `(src_dev * ndev) + dst_dev` over 0-based device indices; `None`
    /// means that direction has no direct channel and stages through the
    /// host. Empty when the machine has no P2P links at all. Asymmetric
    /// meshes (fast intra-switch pairs, slow or absent cross-switch
    /// directions) are expressed here, resolved once at construction from
    /// [`MachineConfig::peer_link`].
    peer_profiles: Vec<Option<LinkProfile>>,
    /// Directed peer channels, indexed `(src_dev * ndev) + dst_dev`.
    peer: Vec<Mutex<LinkState>>,
    inflight: Mutex<HashMap<(u64, usize), Arc<PendingTransfer>>>,
}

impl Topology {
    /// Builds the fabric described by a machine config.
    pub fn new(machine: &MachineConfig) -> Self {
        let host_profiles: Vec<LinkProfile> = machine
            .accelerators
            .iter()
            .map(|a| a.link.clone())
            .collect();
        let ndev = host_profiles.len();
        let mk = |n: usize| (0..n).map(|_| Mutex::new(LinkState::default())).collect();
        let peer_profiles: Vec<Option<LinkProfile>> = if machine.has_p2p() {
            (0..ndev * ndev)
                .map(|i| machine.peer_link(i / ndev.max(1), i % ndev.max(1)).cloned())
                .collect()
        } else {
            Vec::new()
        };
        let peer_chans = peer_profiles.len();
        Topology {
            h2d: mk(ndev),
            d2h: mk(ndev),
            peer_profiles,
            peer: mk(peer_chans),
            host_profiles,
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Number of device nodes the fabric serves.
    fn ndev(&self) -> usize {
        self.host_profiles.len()
    }

    /// The peer link of the directed device-*node* pair `src → dst`
    /// (1-based memory nodes), if that direction has a direct channel.
    pub fn peer_profile(&self, src: usize, dst: usize) -> Option<&LinkProfile> {
        debug_assert!(src >= 1 && dst >= 1);
        self.peer_profiles
            .get((src - 1) * self.ndev() + (dst - 1))
            .and_then(|p| p.as_ref())
    }

    /// The channel a one-hop transfer `from → to` occupies.
    fn channel_for(from: usize, to: usize) -> Channel {
        debug_assert_ne!(from, to);
        if from == 0 {
            Channel::HostToDevice(to)
        } else if to == 0 {
            Channel::DeviceToHost(from)
        } else {
            Channel::Peer(from, to)
        }
    }

    /// The occupancy timeline backing `channel`.
    fn chan_state(&self, channel: Channel) -> &Mutex<LinkState> {
        match channel {
            Channel::HostToDevice(n) => &self.h2d[n - 1],
            Channel::DeviceToHost(n) => &self.d2h[n - 1],
            Channel::Peer(a, b) => {
                debug_assert!(
                    self.peer_profile(a, b).is_some(),
                    "peer transfer {a}->{b} without a direct link configured"
                );
                &self.peer[(a - 1) * self.ndev() + (b - 1)]
            }
        }
    }

    /// The link profile that times transfers on `channel`.
    fn chan_profile(&self, channel: Channel) -> &LinkProfile {
        match channel {
            Channel::HostToDevice(n) | Channel::DeviceToHost(n) => &self.host_profiles[n - 1],
            Channel::Peer(a, b) => self
                .peer_profile(a, b)
                .expect("peer transfer without a direct link configured"),
        }
    }

    /// The host-link profile used when moving data to/from device `node`.
    pub fn link_profile(&self, node: usize) -> &LinkProfile {
        &self.host_profiles[node - 1]
    }

    /// Advances every channel clock to at least `to` (used by the runtime's
    /// virtual synchronization barrier). Busy spans are unaffected: the
    /// skipped time is idle.
    pub(crate) fn advance_links(&self, to: VTime) {
        for link in self.h2d.iter().chain(&self.d2h).chain(&self.peer) {
            let mut l = link.lock();
            l.vnow = l.vnow.max(to);
        }
    }

    /// Plans the cheapest valid route for moving `bytes` from node `src` to
    /// node `dst` as a list of one-hop legs. Transfers touching main memory
    /// are a single hop; device-to-device traffic takes the direct peer
    /// channel when the *directed* pair has one configured and it is no
    /// more expensive than staging through the host, else two hops via
    /// node 0. Pair profiles are directional, so the `src → dst` decision
    /// may differ from `dst → src` on asymmetric meshes.
    pub fn plan_route(&self, src: usize, dst: usize, bytes: u64) -> Vec<(usize, usize)> {
        if src == dst {
            return Vec::new();
        }
        if src == 0 || dst == 0 {
            return vec![(src, dst)];
        }
        if let Some(p) = self.peer_profile(src, dst) {
            let direct = p.transfer_time(bytes);
            let staged = self.host_profiles[src - 1].transfer_time(bytes)
                + self.host_profiles[dst - 1].transfer_time(bytes);
            if direct <= staged {
                return vec![(src, dst)];
            }
        }
        vec![(src, 0), (0, dst)]
    }

    /// Scheduler-facing transfer estimate, occupancy-aware.
    ///
    /// Contract: returns the virtual time at which a transfer of `bytes`
    /// from `src` to `dst`, enqueued now with its data already available,
    /// would complete — the cheapest planned route is simulated hop by hop
    /// against the current per-channel clocks without charging them. On an
    /// idle fabric this equals the route's flat transfer time; a backlogged
    /// channel pushes the estimate out. `src == dst` on an idle fabric (and
    /// in particular host→host) costs `VTime::ZERO`; a device→host move
    /// never does — it pays the d2h channel like any other hop.
    pub fn estimate_transfer_from(&self, src: usize, dst: usize, bytes: u64) -> VTime {
        self.estimate_transfer_after(src, dst, bytes, VTime::ZERO)
    }

    /// Like [`estimate_transfer_from`](Self::estimate_transfer_from), but
    /// returns the *extra delay beyond `now`*: channel backlog already
    /// covered by `now` (e.g. the requesting worker's availability) is not
    /// double-counted. Used by `dmda`/`dmdar` so congestion only penalizes
    /// a candidate when the fabric, not the worker, is the bottleneck.
    pub fn estimate_transfer_after(&self, src: usize, dst: usize, bytes: u64, now: VTime) -> VTime {
        let mut t = now;
        for (from, to) in self.plan_route(src, dst, bytes) {
            let ch = Self::channel_for(from, to);
            let start = t.max(self.chan_state(ch).lock().vnow);
            t = start + self.chan_profile(ch).transfer_time(bytes);
        }
        t.saturating_sub(now)
    }

    /// Accumulated busy time per channel, for stats reporting. Peer
    /// channels are listed only when they carried traffic; host channels
    /// are always listed (one entry per direction).
    pub fn channel_busy(&self) -> Vec<(String, VTime)> {
        let mut out = Vec::new();
        for (i, l) in self.h2d.iter().enumerate() {
            out.push((Channel::HostToDevice(i + 1).to_string(), l.lock().busy));
        }
        for (i, l) in self.d2h.iter().enumerate() {
            out.push((Channel::DeviceToHost(i + 1).to_string(), l.lock().busy));
        }
        let ndev = self.ndev();
        for (idx, l) in self.peer.iter().enumerate() {
            let busy = l.lock().busy;
            if busy > VTime::ZERO {
                let ch = Channel::Peer(idx / ndev + 1, idx % ndev + 1);
                out.push((ch.to_string(), busy));
            }
        }
        out
    }

    /// Registers interest in the in-flight transfer of `(handle, node)`:
    /// either this caller owns a fresh entry or joins the existing one.
    fn inflight_begin(&self, key: (u64, usize)) -> Inflight {
        let mut map = self.inflight.lock();
        match map.get(&key) {
            Some(p) => Inflight::Join(p.clone()),
            None => {
                let p = Arc::new(PendingTransfer::new());
                map.insert(key, p.clone());
                Inflight::Owner(p)
            }
        }
    }

    /// Completes an owned in-flight entry: unregisters it and wakes joiners.
    fn inflight_finish(&self, key: (u64, usize), pending: &Arc<PendingTransfer>, at: VTime) {
        self.inflight.lock().remove(&key);
        pending.finish(at);
    }

    /// Performs one hop `from → to` along a planned route: charges the
    /// channel, records stats/trace, and returns the arrival time. Also
    /// used by the memory subsystem to time eviction writebacks (which ride
    /// the d2h channel, overlapping with incoming prefetches).
    pub(crate) fn hop(
        &self,
        handle: &DataHandle,
        from: usize,
        to: usize,
        data_ready: VTime,
        stats: &StatsCollector,
    ) -> VTime {
        debug_assert!(from != to);
        let channel = Self::channel_for(from, to);
        let ttime = self
            .chan_profile(channel)
            .transfer_time(handle.bytes() as u64);

        let arrive = {
            let mut link = self.chan_state(channel).lock();
            let start = link.vnow.max(data_ready);
            let arrive = start + ttime;
            link.vnow = arrive;
            link.busy += ttime;
            arrive
        };

        stats.record_transfer(from, to, handle.bytes());
        stats.record_event(TraceEvent::Transfer {
            handle: handle.id(),
            from,
            to,
            bytes: handle.bytes(),
            channel,
        });
        arrive
    }
}

/// Makes `node`'s replica of `handle` usable for an access of mode `mode`,
/// triggering lazy transfers as needed. Returns the virtual time at which
/// the data is available at `node` (i.e. the earliest the access may begin
/// consuming it). Coherence-status effects of *writes* are applied by
/// [`mark_written`], once the writing task's finish time is known — except
/// that a write-only access claims the handle here already (see below).
///
/// Capacity is reserved through `memory` *before* the handle's state lock
/// is taken (lock order is handle → node, and eviction surgery must be able
/// to lock victim handles). Callers racing with eviction — workers and the
/// prefetcher — must hold a [`MemoryManager::pin`] on `(node, handle)`
/// across this call so the reservation cannot itself be evicted before the
/// buffer materializes.
///
/// Concurrent readers of the same `(handle, node)` deduplicate through the
/// fabric's in-flight registry: the first caller owns the transfer and
/// performs the payload copy *outside* the handle's state lock; later
/// callers join the pending transfer and block until it lands, so N
/// concurrent reads cost exactly one copy. A device→device move via main
/// memory first makes node 0 valid through its own registry entry, so a
/// broadcast of one handle to N devices shares the single d2h leg.
pub(crate) fn make_valid(
    handle: &DataHandle,
    node: usize,
    mode: AccessMode,
    topo: &Topology,
    stats: &StatsCollector,
    memory: &MemoryManager,
) -> VTime {
    memory.prepare(handle, node, topo, stats);
    let inner = &handle.inner;
    let mut st = inner.state.lock();
    debug_assert!(node < st.replicas.len(), "node {node} out of range");

    if !mode.reads() {
        // Write-only: ensure a buffer exists (a copy of any valid payload,
        // purely for allocation and type) but charge no transfer.
        if st.replicas[node].cell.is_none() {
            let src_cell = st
                .replicas
                .iter()
                .find(|r| r.is_valid())
                .and_then(|r| r.cell.clone())
                .expect("handle has no valid replica anywhere");
            let payload = (inner.clone_fn)(&src_cell.read());
            st.replicas[node].cell = Some(Arc::new(RwLock::new(payload)));
            stats.record_event(TraceEvent::Allocate {
                handle: handle.id(),
                node,
            });
        }
        // The old contents are dead from here on: their readers have
        // completed and later ones wait for this writer. Claiming now, not
        // at `mark_written`, matters when `node` is 0: a sole valid device
        // copy evicted mid-write would be written back into this very
        // buffer, over the new contents.
        claim(&mut st, handle, node, stats);
        return VTime::ZERO;
    }

    loop {
        if st.replicas[node].is_valid() {
            return st.replicas[node].vready;
        }

        let key = (handle.id(), node);
        let pending = match topo.inflight_begin(key) {
            Inflight::Join(p) => {
                // Someone else is already moving this replica in: wait for
                // their copy instead of starting a duplicate, then re-check
                // (the replica could have been evicted again meanwhile).
                drop(st);
                p.wait();
                stats.record_transfer_join();
                st = inner.state.lock();
                continue;
            }
            Inflight::Owner(p) => p,
        };

        // This caller owns the transfer into `node`. Choose a source:
        // prefer the Modified copy, else main memory, else any valid.
        let src = st
            .replicas
            .iter()
            .position(|r| r.status == ReplicaStatus::Modified)
            .or_else(|| st.replicas[0].is_valid().then_some(0))
            .or_else(|| st.replicas.iter().position(|r| r.is_valid()));
        let Some(mut src) = src else {
            // No copy left: the handle was unregistered under a prefetch
            // that outlived its task (a task's own operands always have
            // one). Give the reservation back and give up.
            drop(st);
            memory.recycle(node, handle.id());
            topo.inflight_finish(key, &pending, VTime::ZERO);
            return VTime::ZERO;
        };

        if topo.plan_route(src, node, handle.bytes() as u64).len() > 1 {
            // Device→device staged through main memory: make node 0 valid
            // through its own in-flight entry first. Concurrent broadcasts
            // of this handle to other devices join that entry, so the d2h
            // leg is paid once. Node 0 never evicts, so it stays valid
            // unless the handle was unregistered under a prefetch.
            drop(st);
            make_valid(handle, 0, AccessMode::Read, topo, stats, memory);
            st = inner.state.lock();
            if !st.replicas[0].is_valid() {
                topo.inflight_finish(key, &pending, VTime::ZERO);
                continue;
            }
            src = 0;
        }

        // Snapshot the source under the lock, then copy outside it: the
        // Arc keeps the payload alive even if the source replica is evicted
        // mid-copy. Sequential consistency keeps writers away from a task's
        // own operands; a prefetch can still race one, which the `writes`
        // check below catches.
        let src_vready = st.replicas[src].vready;
        let src_cell = st.replicas[src]
            .cell
            .clone()
            .expect("source replica has no buffer");
        let writes = st.writes;
        drop(st);

        let arrive = topo.hop(handle, src, node, src_vready, stats);
        let payload = (inner.clone_fn)(&src_cell.read());

        st = inner.state.lock();
        if st.writes != writes {
            // A write claimed the handle during the copy — only a prefetch
            // can race a writer — so the payload is stale: start over.
            topo.inflight_finish(key, &pending, arrive);
            continue;
        }
        match st.replicas[node].cell.clone() {
            Some(cell) => *cell.write() = payload,
            None => st.replicas[node].cell = Some(Arc::new(RwLock::new(payload))),
        }
        // Every valid copy now shares the same contents. Demoting *any*
        // Modified replica (the source, or node 0 if an eviction wrote the
        // source back mid-copy) keeps the MSI "Modified is unique and sole
        // valid" invariant.
        for r in st.replicas.iter_mut() {
            if r.status == ReplicaStatus::Modified {
                r.status = ReplicaStatus::Shared;
            }
        }
        st.replicas[node].status = ReplicaStatus::Shared;
        st.replicas[node].vready = arrive;
        drop(st);

        topo.inflight_finish(key, &pending, arrive);
        return arrive;
    }
}

/// Applies the coherence effect of a completed write at `node`: that
/// replica becomes the unique Modified copy available at `vfinish`; every
/// other valid replica is invalidated (the paper's "marked outdated").
/// Invalidated *device* replicas also free their buffers, returning the
/// bytes to their node's capacity budget — main memory (node 0) keeps its
/// buffer as the protocol's backing store.
pub(crate) fn mark_written(
    handle: &DataHandle,
    node: usize,
    vfinish: VTime,
    stats: &StatsCollector,
    memory: &MemoryManager,
) {
    let mut released: Vec<(usize, PayloadCell)> = Vec::new();
    {
        let mut st = handle.inner.state.lock();
        claim(&mut st, handle, node, stats);
        st.replicas[node].vready = vfinish;
        for i in (1..st.replicas.len()).filter(|&i| i != node) {
            if let Some(cell) = st.replicas[i].cell.take() {
                released.push((i, cell));
            }
        }
    }
    // The replica now holds the sole valid (Modified) copy — flag its
    // capacity-manager entry dirty so family-aware eviction can prefer
    // clean sibling sets. Heuristic only: eviction correctness still
    // re-derives writeback necessity from the replica states.
    memory.mark_dirty(node, handle.id());
    // The freed buffers drop with `released`, outside every lock.
    for &(i, _) in &released {
        memory.recycle(i, handle.id());
    }
}

/// Makes `node`'s replica the unique Modified copy, invalidating every other
/// valid replica.
fn claim(st: &mut HandleState, handle: &DataHandle, node: usize, stats: &StatsCollector) {
    for (i, r) in st.replicas.iter_mut().enumerate() {
        if i != node && r.is_valid() {
            r.status = ReplicaStatus::Invalid;
            stats.record_event(TraceEvent::Invalidate {
                handle: handle.id(),
                node: i,
            });
        }
    }
    st.replicas[node].status = ReplicaStatus::Modified;
    st.writes += 1;
}

/// The buffer cell for `node`, which must have been prepared by a prior
/// [`make_valid`] call.
pub(crate) fn cell_for(handle: &DataHandle, node: usize) -> PayloadCell {
    handle.inner.state.lock().replicas[node]
        .cell
        .clone()
        .expect("replica buffer missing; call make_valid first")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::DataHandle;
    use crate::memory::EvictionPolicy;
    use peppher_sim::MachineConfig;

    fn setup() -> (Topology, StatsCollector, DataHandle, MemoryManager) {
        let machine = MachineConfig::c2050_platform(2);
        let topo = Topology::new(&machine);
        let stats = StatsCollector::new(machine.total_workers(), true);
        let memory = MemoryManager::new(&machine, EvictionPolicy::Lru);
        // 1 MiB payload (the 3 GiB device budget is ample: no evictions).
        let h = DataHandle::new(7, vec![1.0f32; 262_144], 1 << 20, machine.memory_nodes());
        (topo, stats, h, memory)
    }

    #[test]
    fn read_triggers_single_transfer_then_cached() {
        let (topo, stats, h, mm) = setup();
        let t1 = make_valid(&h, 1, AccessMode::Read, &topo, &stats, &mm);
        assert!(t1 > VTime::ZERO, "first device read must pay a transfer");
        assert_eq!(stats.snapshot().h2d_transfers, 1);
        assert_eq!(h.valid_nodes(), vec![0, 1]);

        // Second read: already Shared on device, no new transfer.
        let t2 = make_valid(&h, 1, AccessMode::Read, &topo, &stats, &mm);
        assert_eq!(t2, t1);
        assert_eq!(stats.snapshot().h2d_transfers, 1);
    }

    #[test]
    fn write_only_allocates_without_transfer() {
        let (topo, stats, h, mm) = setup();
        let ready = make_valid(&h, 1, AccessMode::Write, &topo, &stats, &mm);
        assert_eq!(ready, VTime::ZERO);
        let snap = stats.snapshot();
        assert_eq!(snap.total_transfers(), 0, "write-only must not copy");
        assert!(stats
            .trace
            .lock()
            .iter()
            .any(|e| matches!(e, TraceEvent::Allocate { node: 1, .. })));
        // The write claims the handle at once: the old host copy is dead.
        assert_eq!(h.valid_nodes(), vec![1]);
        // The allocation is charged against the device budget right away.
        assert!(mm.is_resident(1, h.id()));
    }

    #[test]
    fn write_only_on_invalidated_replica_moves_zero_bytes() {
        // Paper §IV-E: for a write-only access "just a memory allocation is
        // made in the device memory" — even when the node held a replica
        // before and lost it to an invalidation.
        let (topo, stats, h, mm) = setup();
        make_valid(&h, 1, AccessMode::Read, &topo, &stats, &mm);
        // Host write invalidates the device replica (and frees its buffer).
        mark_written(&h, 0, VTime::from_micros(5), &stats, &mm);
        assert!(!h.valid_on(1));
        assert!(!mm.is_resident(1, h.id()), "invalidated buffer was freed");

        let bytes_before = stats.snapshot().total_transfer_bytes();
        let ready = make_valid(&h, 1, AccessMode::Write, &topo, &stats, &mm);
        assert_eq!(ready, VTime::ZERO);
        assert_eq!(
            stats.snapshot().total_transfer_bytes(),
            bytes_before,
            "write-only re-allocation must transfer zero bytes"
        );
        assert!(mm.is_resident(1, h.id()), "fresh buffer is re-accounted");
    }

    #[test]
    fn transfer_of_an_unregistered_handle_gives_up() {
        // A prefetch that outlived its task can find its handle already
        // unregistered: no valid copy, no buffer. It must give up, not
        // panic on a worker thread, and leave nothing accounted.
        let (topo, stats, h, mm) = setup();
        {
            let mut st = h.inner.state.lock();
            st.replicas[0].cell = None;
            st.replicas[0].status = ReplicaStatus::Invalid;
        }
        mm.pin(1, &h);
        let ready = make_valid(&h, 1, AccessMode::Read, &topo, &stats, &mm);
        mm.unpin(1, h.id());
        assert_eq!(ready, VTime::ZERO);
        assert_eq!(mm.used_bytes()[1], 0);
        mm.validate().unwrap();
    }

    #[test]
    fn eviction_mid_write_keeps_the_new_host_contents() {
        // A write-only host access while the sole valid copy lives on the
        // device: evicting that copy before the write completes must not
        // write it back over the new host contents.
        let (topo, stats, h, mm) = setup();
        make_valid(&h, 1, AccessMode::ReadWrite, &topo, &stats, &mm);
        mark_written(&h, 1, VTime::from_micros(1), &stats, &mm);
        make_valid(&h, 0, AccessMode::Write, &topo, &stats, &mm);
        *cell_for(&h, 0).write() = Box::new(vec![2.0f32; 4]);
        mm.reclaim_node(1, &topo, &stats);
        mark_written(&h, 0, VTime::from_micros(2), &stats, &mm);
        let cell = cell_for(&h, 0);
        let host = cell.read();
        assert!(
            host.downcast_ref::<Vec<f32>>() == Some(&vec![2.0f32; 4]),
            "the stale device copy was written back over the new contents"
        );
        assert_eq!(
            stats.snapshot().writeback_bytes,
            0,
            "the dead copy is dropped"
        );
    }

    #[test]
    fn mark_written_invalidates_others() {
        let (topo, stats, h, mm) = setup();
        make_valid(&h, 1, AccessMode::Write, &topo, &stats, &mm);
        mark_written(&h, 1, VTime::from_micros(100), &stats, &mm);
        assert_eq!(h.valid_nodes(), vec![1]);
        assert!(stats
            .trace
            .lock()
            .iter()
            .any(|e| matches!(e, TraceEvent::Invalidate { node: 0, .. })));

        // Host read now requires a d2h transfer (paper Fig. 3 line 6).
        let ready = make_valid(&h, 0, AccessMode::Read, &topo, &stats, &mm);
        assert!(
            ready >= VTime::from_micros(100),
            "transfer starts after data is produced"
        );
        assert_eq!(stats.snapshot().d2h_transfers, 1);
        // Device copy stays valid: "the copy in the device memory remains
        // valid as the master copy is only read".
        assert_eq!(h.valid_nodes(), vec![0, 1]);
    }

    #[test]
    fn host_write_frees_device_buffer_and_accounting() {
        let (topo, stats, h, mm) = setup();
        make_valid(&h, 1, AccessMode::Read, &topo, &stats, &mm);
        assert!(mm.is_resident(1, h.id()));
        mark_written(&h, 0, VTime::from_micros(1), &stats, &mm);
        assert!(!mm.is_resident(1, h.id()));
        assert_eq!(mm.used_bytes()[1], 0);
        assert!(h.inner.state.lock().replicas[1].cell.is_none());
        // Node 0 keeps its buffer: it is the protocol's backing store.
        assert!(h.inner.state.lock().replicas[0].cell.is_some());
    }

    #[test]
    fn transfer_waits_for_source_availability() {
        let (topo, stats, h, mm) = setup();
        make_valid(&h, 1, AccessMode::Write, &topo, &stats, &mm);
        let produce_time = VTime::from_millis(50);
        mark_written(&h, 1, produce_time, &stats, &mm);
        let ready = make_valid(&h, 0, AccessMode::Read, &topo, &stats, &mm);
        assert!(ready > produce_time);
    }

    #[test]
    fn readwrite_fetches_existing_data() {
        let (topo, stats, h, mm) = setup();
        let ready = make_valid(&h, 1, AccessMode::ReadWrite, &topo, &stats, &mm);
        assert!(ready > VTime::ZERO);
        assert_eq!(stats.snapshot().h2d_transfers, 1);
    }

    #[test]
    fn kernel_sees_transferred_contents() {
        let (topo, stats, h, mm) = setup();
        make_valid(&h, 1, AccessMode::Read, &topo, &stats, &mm);
        let cell = cell_for(&h, 1);
        let guard = cell.read();
        let v = guard.downcast_ref::<Vec<f32>>().unwrap();
        assert_eq!(v.len(), 262_144);
        assert_eq!(v[0], 1.0);
    }

    #[test]
    fn two_device_topology_routes_via_host() {
        let machine = MachineConfig::multi_gpu(1, 2);
        let topo = Topology::new(&machine);
        let stats = StatsCollector::new(machine.total_workers(), true);
        let mm = MemoryManager::new(&machine, EvictionPolicy::Lru);
        let h = DataHandle::new(9, vec![0u8; 4096], 4096, machine.memory_nodes());

        // Write on device 1, then read on device 2: d2h + h2d.
        make_valid(&h, 1, AccessMode::Write, &topo, &stats, &mm);
        mark_written(&h, 1, VTime::from_micros(5), &stats, &mm);
        make_valid(&h, 2, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert_eq!(snap.d2h_transfers, 1);
        assert_eq!(snap.h2d_transfers, 1);
        assert_eq!(snap.d2d_transfers, 0, "no peer links on this platform");
        // Host copy became valid on the way through.
        assert_eq!(h.valid_nodes(), vec![0, 1, 2]);
    }

    #[test]
    fn two_device_topology_takes_peer_link_when_configured() {
        let machine = MachineConfig::c2050_platform_p2p(1, 2);
        let topo = Topology::new(&machine);
        let stats = StatsCollector::new(machine.total_workers(), true);
        let mm = MemoryManager::new(&machine, EvictionPolicy::Lru);
        let h = DataHandle::new(9, vec![3u8; 4096], 4096, machine.memory_nodes());

        make_valid(&h, 1, AccessMode::Write, &topo, &stats, &mm);
        mark_written(&h, 1, VTime::from_micros(5), &stats, &mm);
        make_valid(&h, 2, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert_eq!(snap.d2d_transfers, 1, "direct peer hop");
        assert_eq!(snap.d2h_transfers, 0);
        assert_eq!(snap.h2d_transfers, 0);
        assert_eq!(snap.d2d_bytes, 4096);
        // The host never saw the data: only the two devices are valid.
        assert_eq!(h.valid_nodes(), vec![1, 2]);
        // Contents really moved across the peer channel.
        let cell = cell_for(&h, 2);
        let guard = cell.read();
        assert_eq!(guard.downcast_ref::<Vec<u8>>().unwrap()[0], 3);
    }

    #[test]
    fn route_planner_prefers_cheapest_path() {
        let p2p = Topology::new(&MachineConfig::c2050_platform_p2p(1, 2));
        assert_eq!(p2p.plan_route(1, 2, 4096), vec![(1, 2)]);
        assert_eq!(p2p.plan_route(0, 2, 4096), vec![(0, 2)]);
        assert_eq!(p2p.plan_route(1, 0, 4096), vec![(1, 0)]);
        assert_eq!(p2p.plan_route(1, 1, 4096), Vec::<(usize, usize)>::new());

        let host_only = Topology::new(&MachineConfig::multi_gpu(1, 2));
        assert_eq!(host_only.plan_route(1, 2, 4096), vec![(1, 0), (0, 2)]);

        // A peer link slower than two host hops is rejected by the planner.
        let slow_peer = MachineConfig::multi_gpu(1, 2).p2p(0.1, VTime::from_millis(10));
        let topo = Topology::new(&slow_peer);
        assert_eq!(topo.plan_route(1, 2, 1 << 20), vec![(1, 0), (0, 2)]);
    }

    #[test]
    fn asymmetric_pair_flips_direct_vs_staged_per_direction() {
        // A → B has a fast direct link; B → A's link is slower than two
        // host hops. The planner must take the direct route one way and
        // stage through the host the other way — same pair, same bytes.
        let bytes = 1 << 20;
        let m = MachineConfig::multi_gpu(1, 2)
            .with_p2p_pair(0, 1, Some(LinkProfile::pcie2_p2p()))
            .with_p2p_pair(1, 0, Some(LinkProfile::custom(0.1, VTime::from_millis(10))));
        let topo = Topology::new(&m);
        assert_eq!(topo.plan_route(1, 2, bytes), vec![(1, 2)]);
        assert_eq!(topo.plan_route(2, 1, bytes), vec![(2, 0), (0, 1)]);

        // Flipping the directed profiles flips the decisions with them.
        let flipped = MachineConfig::multi_gpu(1, 2)
            .with_p2p_pair(1, 0, Some(LinkProfile::pcie2_p2p()))
            .with_p2p_pair(0, 1, Some(LinkProfile::custom(0.1, VTime::from_millis(10))));
        let topo = Topology::new(&flipped);
        assert_eq!(topo.plan_route(1, 2, bytes), vec![(1, 0), (0, 2)]);
        assert_eq!(topo.plan_route(2, 1, bytes), vec![(2, 1)]);

        // Estimates price the per-direction routes, not a shared profile.
        let est_fwd = topo.estimate_transfer_from(2, 1, bytes);
        let est_rev = topo.estimate_transfer_from(1, 2, bytes);
        assert_eq!(est_fwd, LinkProfile::pcie2_p2p().transfer_time(bytes));
        assert_eq!(
            est_rev,
            topo.link_profile(1).transfer_time(bytes) + topo.link_profile(2).transfer_time(bytes)
        );
    }

    #[test]
    fn mesh_preset_routes_follow_the_directed_table() {
        // The c2050_platform_mesh preset: fast intra-switch, slow
        // cross-switch, and one host-staged direction (0 → 3, i.e. nodes
        // 1 → 4).
        let m = MachineConfig::c2050_platform_mesh(1);
        let topo = Topology::new(&m);
        let bytes = 1 << 20;
        assert_eq!(topo.plan_route(1, 2, bytes), vec![(1, 2)], "intra-switch");
        assert_eq!(topo.plan_route(3, 4, bytes), vec![(3, 4)], "intra-switch");
        assert_eq!(
            topo.plan_route(2, 3, bytes),
            vec![(2, 3)],
            "slow but direct"
        );
        assert_eq!(
            topo.plan_route(1, 4, bytes),
            vec![(1, 0), (0, 4)],
            "0→3 has no direct path"
        );
        assert_eq!(
            topo.plan_route(4, 1, bytes),
            vec![(4, 1)],
            "3→0 stays direct"
        );
        // The slow cross-switch link really is priced slower than the fast
        // intra-switch one.
        assert!(
            topo.estimate_transfer_from(2, 3, bytes) > topo.estimate_transfer_from(1, 2, bytes)
        );
    }

    #[test]
    fn actual_transfers_follow_asymmetric_routes() {
        // End-to-end on the mesh: a 0→3 (nodes 1→4) migration stages
        // through the host while 3→0 rides the peer channel.
        let m = MachineConfig::c2050_platform_mesh(1);
        let topo = Topology::new(&m);
        let stats = StatsCollector::new(m.total_workers(), true);
        let mm = MemoryManager::new(&m, EvictionPolicy::Lru);
        let h = DataHandle::new(5, vec![9u8; 4096], 4096, m.memory_nodes());

        make_valid(&h, 1, AccessMode::Write, &topo, &stats, &mm);
        mark_written(&h, 1, VTime::from_micros(3), &stats, &mm);
        make_valid(&h, 4, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert_eq!(snap.d2d_transfers, 0, "1→4 must stage through the host");
        assert_eq!(snap.d2h_transfers, 1);
        assert_eq!(snap.h2d_transfers, 1);

        mark_written(&h, 4, VTime::from_micros(9), &stats, &mm);
        make_valid(&h, 1, AccessMode::Read, &topo, &stats, &mm);
        let snap = stats.snapshot();
        assert_eq!(snap.d2d_transfers, 1, "4→1 takes the direct peer channel");
    }

    mod route_pricing_props {
        use super::*;
        use proptest::prelude::*;

        fn link_strategy() -> impl Strategy<Value = Option<LinkProfile>> {
            prop_oneof![
                (0.5f64..16.0, 1u64..100)
                    .prop_map(|(bw, lat)| Some(LinkProfile::custom(bw, VTime::from_micros(lat)))),
                (0.5f64..16.0, 1u64..100)
                    .prop_map(|(bw, lat)| Some(LinkProfile::custom(bw, VTime::from_micros(lat)))),
                Just(None),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Whatever the directed pair table looks like, a planned
            /// route is never priced below the best single link that could
            /// carry the transfer: the direct route costs its peer link's
            /// time, and a staged route costs at least each of its host
            /// legs. A planner bug that priced a staged route as one free
            /// hop (or ignored a leg) would fall below this floor.
            #[test]
            fn plan_route_never_prices_below_best_single_link(
                fwd in link_strategy(),
                rev in link_strategy(),
                bytes in 1u64..(8 << 20),
            ) {
                let mut m = MachineConfig::multi_gpu(1, 2);
                m.p2p_overrides.push((0, 1, fwd));
                m.p2p_overrides.push((1, 0, rev));
                let topo = Topology::new(&m);
                for (src, dst) in [(1usize, 2usize), (2, 1)] {
                    let est = topo.estimate_transfer_from(src, dst, bytes);
                    let mut floor = topo
                        .link_profile(src)
                        .transfer_time(bytes)
                        .min(topo.link_profile(dst).transfer_time(bytes));
                    if let Some(p) = topo.peer_profile(src, dst) {
                        floor = floor.min(p.transfer_time(bytes));
                    }
                    prop_assert!(
                        est >= floor,
                        "{src}->{dst}: estimate {est} below single-link floor {floor}"
                    );
                    // And the route itself is sane: 1 or 2 hops, endpoints
                    // matching, staged routes passing through node 0.
                    let route = topo.plan_route(src, dst, bytes);
                    prop_assert!(route.len() == 1 || route.len() == 2);
                    prop_assert_eq!(route[0].0, src);
                    prop_assert_eq!(route[route.len() - 1].1, dst);
                    if route.len() == 2 {
                        prop_assert_eq!(route[0].1, 0);
                        prop_assert_eq!(route[1].0, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn estimate_transfer_prices_the_route() {
        // Satellite fix: the estimate depends on the actual route — a
        // device→host move is NOT free just because the destination is the
        // host node.
        let (topo, _, _, _) = setup();
        let bytes = 1 << 20;
        let d2h = topo.estimate_transfer_from(1, 0, bytes);
        let h2d = topo.estimate_transfer_from(0, 1, bytes);
        assert!(d2h > VTime::ZERO, "d2h transfers are not free");
        assert_eq!(d2h, topo.link_profile(1).transfer_time(bytes));
        assert_eq!(h2d, d2h, "symmetric link, symmetric flat estimate");
        // No movement, no cost.
        assert_eq!(topo.estimate_transfer_from(0, 0, bytes), VTime::ZERO);
        assert_eq!(topo.estimate_transfer_from(1, 1, bytes), VTime::ZERO);

        // Device→device prices the full two-hop route on a host-only
        // fabric, and the single peer hop on a P2P fabric.
        let host_only = Topology::new(&MachineConfig::multi_gpu(1, 2));
        assert_eq!(
            host_only.estimate_transfer_from(1, 2, bytes),
            host_only.link_profile(1).transfer_time(bytes)
                + host_only.link_profile(2).transfer_time(bytes)
        );
        let p2p = Topology::new(&MachineConfig::c2050_platform_p2p(1, 2));
        assert_eq!(
            p2p.estimate_transfer_from(1, 2, bytes),
            LinkProfile::pcie2_p2p().transfer_time(bytes)
        );
    }

    #[test]
    fn estimate_reflects_channel_occupancy() {
        let (topo, stats, h, mm) = setup();
        let bytes = h.bytes() as u64;
        let flat = topo.link_profile(1).transfer_time(bytes);
        assert_eq!(topo.estimate_transfer_from(0, 1, bytes), flat);

        // Charge the h2d channel: the occupancy-aware estimate from ZERO
        // now includes the backlog, while estimates *after* the backlog
        // reduce to the flat time again.
        let arrive = make_valid(&h, 1, AccessMode::Read, &topo, &stats, &mm);
        assert_eq!(topo.estimate_transfer_from(0, 1, bytes), arrive + flat);
        assert_eq!(topo.estimate_transfer_after(0, 1, bytes, arrive), flat);
        // The d2h direction is an independent channel: still idle.
        assert_eq!(topo.estimate_transfer_from(1, 0, bytes), flat);
    }

    #[test]
    fn duplex_directions_overlap() {
        // A writeback (d2h) and a prefetch (h2d) on the same device overlap
        // in virtual time: each direction is its own channel.
        let machine = MachineConfig::c2050_platform(1);
        let stats = StatsCollector::new(machine.total_workers(), false);
        let nodes = machine.memory_nodes();
        let bytes = 1 << 20;
        let topo = Topology::new(&machine);
        let a = DataHandle::new(1, vec![0u8; bytes], bytes, nodes);
        let b = DataHandle::new(2, vec![0u8; bytes], bytes, nodes);
        let flat = machine.accelerators[0].link.transfer_time(bytes as u64);
        assert_eq!(topo.hop(&a, 1, 0, VTime::ZERO, &stats), flat);
        assert_eq!(
            topo.hop(&b, 0, 1, VTime::ZERO, &stats),
            flat,
            "both directions start at t=0"
        );
    }

    #[test]
    fn channel_busy_accumulates_per_direction() {
        let (topo, stats, h, mm) = setup();
        make_valid(&h, 1, AccessMode::Read, &topo, &stats, &mm);
        let busy = topo.channel_busy();
        let flat = topo.link_profile(1).transfer_time(h.bytes() as u64);
        assert_eq!(busy.len(), 2, "one h2d + one d2h channel");
        assert_eq!(busy[0], ("h2d:1".to_string(), flat));
        assert_eq!(busy[1], ("d2h:1".to_string(), VTime::ZERO));
    }

    #[test]
    fn concurrent_readers_share_one_transfer() {
        // In-flight dedup: N threads racing make_valid on one cold handle
        // must produce exactly one h2d transfer and identical ready times.
        let machine = MachineConfig::c2050_platform(2);
        let topo = Arc::new(Topology::new(&machine));
        let stats = Arc::new(StatsCollector::new(machine.total_workers(), false));
        let mm = Arc::new(MemoryManager::new(&machine, EvictionPolicy::Lru));
        let h = Arc::new(DataHandle::new(
            7,
            vec![1.0f32; 262_144],
            1 << 20,
            machine.memory_nodes(),
        ));

        let barrier = Arc::new(std::sync::Barrier::new(8));
        let times: Vec<VTime> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (topo, stats, mm, h, barrier) = (
                        topo.clone(),
                        stats.clone(),
                        mm.clone(),
                        h.clone(),
                        barrier.clone(),
                    );
                    s.spawn(move || {
                        barrier.wait();
                        make_valid(&h, 1, AccessMode::Read, &topo, &stats, &mm)
                    })
                })
                .collect();
            handles.into_iter().map(|t| t.join().unwrap()).collect()
        });

        let snap = stats.snapshot();
        assert_eq!(snap.h2d_transfers, 1, "dedup: one transfer for 8 readers");
        assert!(times.windows(2).all(|w| w[0] == w[1]));
        // Late arrivals may find the replica already valid, so the join
        // count is bounded by (not necessarily equal to) the loser count.
        assert!(snap.transfer_joins <= 7);
    }

    #[test]
    fn racing_readers_install_one_buffer_without_leaking() {
        // Several threads prepare the same cold replica at once. One wins
        // the install and the transfer; the others join it, and the node's
        // books account the replica exactly once.
        let machine = MachineConfig::c2050_platform(2);
        let topo = Arc::new(Topology::new(&machine));
        let stats = Arc::new(StatsCollector::new(machine.total_workers(), false));
        let mm = Arc::new(MemoryManager::new(&machine, EvictionPolicy::Lru));
        let nodes = machine.memory_nodes();

        for round in 0..8u64 {
            let cold = Arc::new(DataHandle::new(round + 1, vec![7u8; 4096], 4096, nodes));
            let before = stats.snapshot().h2d_transfers;
            let barrier = Arc::new(std::sync::Barrier::new(4));
            let times: Vec<VTime> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let (topo, stats, mm, cold, barrier) = (
                            topo.clone(),
                            stats.clone(),
                            mm.clone(),
                            cold.clone(),
                            barrier.clone(),
                        );
                        s.spawn(move || {
                            barrier.wait();
                            make_valid(&cold, 1, AccessMode::Read, &topo, &stats, &mm)
                        })
                    })
                    .collect();
                handles.into_iter().map(|t| t.join().unwrap()).collect()
            });

            assert_eq!(
                stats.snapshot().h2d_transfers - before,
                1,
                "round {round}: exactly one transfer for 4 racing readers"
            );
            assert!(times.windows(2).all(|w| w[0] == w[1]));
            mm.validate()
                .unwrap_or_else(|e| panic!("round {round}: accounting invalid: {e}"));
            // Free the cold replica, keeping the next round's books flat.
            mark_written(&cold, 0, VTime::ZERO, &stats, &mm);
        }

        mm.validate().expect("accounting balances");
        for (n, &used) in mm.used_bytes().iter().enumerate().skip(1) {
            assert_eq!(used, 0, "node {n} leaked {used} used bytes");
        }
    }
}
