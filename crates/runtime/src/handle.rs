//! Registered data and its per-memory-node replicas: one record per
//! replica, holding its MSI and capacity state under the handle's lock,
//! and the MSI transitions on [`HandleState`].

use crate::memory::MemoryManager;
use crate::task::Task;
use parking_lot::{Mutex, RwLock};
use peppher_sim::VTime;
use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock, Weak};

/// How a task (or the host program) accesses an operand.
///
/// Access modes drive both dependency inference (sequential data
/// consistency) and coherence: a write-only access allocates a replica
/// without copying ("just a memory allocation is made in the device
/// memory" — paper §IV-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Read-only.
    Read,
    /// Write-only; previous contents are not transferred.
    Write,
    /// Read-modify-write.
    ReadWrite,
}

impl AccessMode {
    /// Whether the access observes existing data.
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// Whether the access produces new data.
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }
}

/// Type-erased payload stored in a replica.
pub type PayloadBox = Box<dyn Any + Send + Sync>;

/// A replica buffer cell. Kernels hold read/write lock guards on the cell
/// for the duration of execution; coherence replaces the boxed payload on
/// transfer.
pub type PayloadCell = Arc<RwLock<PayloadBox>>;

/// MSI-style replica status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaStatus {
    /// No valid copy at this node.
    #[default]
    Invalid,
    /// A valid copy that other nodes may also hold.
    Shared,
    /// The unique up-to-date copy; all other replicas are invalid.
    Modified,
}

/// One memory node's view of a handle's data: its coherence state and its
/// capacity state, under the handle's lock.
///
/// Only the MSI transitions on [`HandleState`] write `cell` and `status`,
/// and only the memory manager's capacity transition writes `accounted`,
/// `pinned`, `last_use` and `dead` (moving the node's byte sums with them).
#[derive(Default)]
pub struct Replica {
    /// The buffer, if one was ever allocated at this node.
    pub cell: Option<PayloadCell>,
    /// Coherence status.
    pub status: ReplicaStatus,
    /// Virtual time at which this replica's contents become available
    /// (produced by a task or delivered by a transfer).
    pub vready: VTime,
    /// Room is reserved at this node (the buffer may still be in flight).
    pub(crate) accounted: bool,
    /// Pin count: operands of running or prefetching tasks, never evicted.
    pub(crate) pinned: u32,
    /// The node's LRU clock at the last touch.
    pub(crate) last_use: u64,
    /// `wont_use` hint: evicted ahead of LRU order until the next touch.
    pub(crate) dead: bool,
}

impl Replica {
    /// Whether this replica currently holds valid data.
    pub fn is_valid(&self) -> bool {
        self.status != ReplicaStatus::Invalid
    }
}

/// Mutable handle state, guarded by one mutex.
pub struct HandleState {
    /// Per-memory-node replicas (index 0 = main memory).
    pub replicas: Vec<Replica>,
    /// The task that last wrote this handle (sequential-consistency
    /// tracking); `None` once the write is known complete and observed by
    /// a host access.
    pub last_writer: Option<Arc<Task>>,
    /// Tasks that read the handle since the last write.
    pub readers: Vec<Arc<Task>>,
    /// Writes that have claimed the handle so far. A transfer copies its
    /// source outside this lock; if a write claimed the handle meanwhile,
    /// the copy is stale and is not installed.
    pub writes: u64,
}

/// An MSI transition refused: the replica it needs holds no buffer, no
/// valid copy is left, or a copy is stale.
#[derive(Debug)]
pub(crate) struct Refused;

/// The MSI transitions. They take no lock, move no data between nodes and
/// record nothing: callers run them under the handle's lock and do the
/// transfers, accounting and tracing around them.
impl HandleState {
    /// Makes `node`'s replica the unique Modified copy and counts a write,
    /// invalidating every other valid replica; returns those nodes.
    pub(crate) fn claim(&mut self, node: usize) -> Result<Vec<usize>, Refused> {
        if self.replicas[node].cell.is_none() {
            return Err(Refused);
        }
        let mut invalidated = Vec::new();
        for (i, r) in self.replicas.iter_mut().enumerate() {
            if i != node && r.is_valid() {
                r.status = ReplicaStatus::Invalid;
                invalidated.push(i);
            }
        }
        self.replicas[node].status = ReplicaStatus::Modified;
        self.writes += 1;
        Ok(invalidated)
    }

    /// Snapshots the source for a copy — the Modified copy, else main
    /// memory, else any valid copy — as `(node, buffer, ready time,
    /// writes)`. The copy runs outside the handle lock, and
    /// [`HandleState::install`] checks the `writes` stamp on return.
    pub(crate) fn snapshot(&self) -> Result<(usize, PayloadCell, VTime, u64), Refused> {
        let valid = |i: &usize| self.replicas[*i].is_valid();
        let src = (0..self.replicas.len())
            .find(|&i| self.replicas[i].status == ReplicaStatus::Modified)
            .or_else(|| Some(0).filter(valid))
            .or_else(|| (0..self.replicas.len()).find(valid))
            .ok_or(Refused)?;
        let r = &self.replicas[src];
        Ok((src, r.cell.clone().ok_or(Refused)?, r.vready, self.writes))
    }

    /// Installs a copy taken at `writes` as `node`'s Shared replica,
    /// available at `arrive`. Every valid copy then holds the same
    /// contents, so any Modified replica (the source, or main memory if an
    /// eviction wrote the source back mid-copy) is demoted to Shared.
    /// Refused as stale when a write claimed the handle since.
    pub(crate) fn install(
        &mut self,
        node: usize,
        payload: PayloadBox,
        arrive: VTime,
        writes: u64,
    ) -> Result<(), Refused> {
        if self.writes != writes {
            return Err(Refused);
        }
        for r in self.replicas.iter_mut() {
            if r.status == ReplicaStatus::Modified {
                r.status = ReplicaStatus::Shared;
            }
        }
        let r = &mut self.replicas[node];
        r.cell = Some(Arc::new(RwLock::new(payload)));
        r.status = ReplicaStatus::Shared;
        r.vready = arrive;
        Ok(())
    }

    /// A write at `node` completed at `vfinish`: the claim, with the new
    /// contents' ready time. Returns the invalidated nodes.
    pub(crate) fn written(&mut self, node: usize, vfinish: VTime) -> Result<Vec<usize>, Refused> {
        let invalidated = self.claim(node)?;
        self.replicas[node].vready = vfinish;
        Ok(invalidated)
    }

    /// Evicts `node`'s buffer. A sole valid copy is first handed to
    /// `writeback`, which returns the payload and arrival time of its copy
    /// in main memory; main memory then holds the Modified copy. Returns
    /// the buffer and whether it was written back.
    pub(crate) fn evict(
        &mut self,
        node: usize,
        writeback: impl FnOnce(&PayloadCell, VTime) -> (PayloadBox, VTime),
    ) -> Result<(PayloadCell, bool), Refused> {
        let cell = self.replicas[node].cell.take().ok_or(Refused)?;
        let r = &self.replicas[node];
        let sole_valid = r.is_valid()
            && !(0..self.replicas.len()).any(|i| i != node && self.replicas[i].is_valid());
        if sole_valid {
            let (payload, arrive) = writeback(&cell, r.vready);
            let host = &mut self.replicas[0];
            host.cell = Some(Arc::new(RwLock::new(payload)));
            host.status = ReplicaStatus::Modified;
            host.vready = arrive;
        }
        let r = &mut self.replicas[node];
        r.status = ReplicaStatus::Invalid;
        r.vready = VTime::ZERO;
        Ok((cell, sole_valid))
    }

    /// Invalidates `node`'s replica and takes its buffer.
    pub(crate) fn free(&mut self, node: usize) -> Option<PayloadCell> {
        self.replicas[node].status = ReplicaStatus::Invalid;
        self.replicas[node].cell.take()
    }
}

/// A block family: sibling handles a container partitioned together.
#[derive(Clone)]
pub(crate) struct Family {
    pub id: u64,
    pub members: Arc<[Weak<HandleInner>]>,
}

pub(crate) struct HandleInner {
    pub id: u64,
    /// Payload size in bytes (fixed at registration; used for transfer
    /// modelling, performance-model footprints and capacity accounting).
    pub bytes: usize,
    /// Owning job id (0 = the implicit default job). A job cancellation
    /// reclaims exactly the device replicas carrying its id.
    pub job: u64,
    /// Deep-copies a payload (drives replica allocation and transfer).
    pub clone_fn: Arc<dyn Fn(&PayloadBox) -> PayloadBox + Send + Sync>,
    /// The block family, set once when a container partitions.
    pub family: OnceLock<Family>,
    /// The books this handle's replicas are accounted in: a handle dropped
    /// without `unregister` gives its bytes back through it.
    pub memory: Weak<MemoryManager>,
    pub state: Mutex<HandleState>,
}

impl Drop for HandleInner {
    fn drop(&mut self) {
        if let Some(memory) = self.memory.upgrade() {
            memory.dropped(self.id, self.bytes, self.state.get_mut());
        }
    }
}

/// A reference-counted handle to registered data.
///
/// Cloning the handle clones the reference, not the data. Handles are
/// created by [`crate::Runtime::register`] (or [`crate::Runtime::register_sized`]
/// for payloads without a [`Data`] impl) and consumed by
/// [`crate::Runtime::unregister`] / dropped.
#[derive(Clone)]
pub struct DataHandle {
    pub(crate) inner: Arc<HandleInner>,
}

impl fmt::Debug for DataHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataHandle")
            .field("id", &self.inner.id)
            .field("bytes", &self.inner.bytes)
            .finish()
    }
}

impl DataHandle {
    /// Creates a handle whose initial valid copy is `payload` in main
    /// memory (node 0) of a machine with `nodes` memory nodes. Test-only
    /// shorthand; the runtime registers through [`DataHandle::new_owned`].
    #[cfg(test)]
    pub(crate) fn new<T: Clone + Send + Sync + 'static>(
        id: u64,
        payload: T,
        bytes: usize,
        nodes: usize,
    ) -> Self {
        Self::new_owned(id, payload, bytes, nodes, 0, Weak::new())
    }

    /// [`DataHandle::new`] with an explicit owning job id (see
    /// [`HandleInner::job`]) and the books it is accounted in.
    pub(crate) fn new_owned<T: Clone + Send + Sync + 'static>(
        id: u64,
        payload: T,
        bytes: usize,
        nodes: usize,
        job: u64,
        memory: Weak<MemoryManager>,
    ) -> Self {
        let mut replicas: Vec<Replica> = (0..nodes).map(|_| Replica::default()).collect();
        replicas[0].cell = Some(Arc::new(RwLock::new(Box::new(payload) as PayloadBox)));
        replicas[0].status = ReplicaStatus::Modified;
        let clone_fn: Arc<dyn Fn(&PayloadBox) -> PayloadBox + Send + Sync> =
            Arc::new(|src: &PayloadBox| {
                let typed = src
                    .downcast_ref::<T>()
                    .expect("clone_fn: payload type changed underneath handle");
                Box::new(typed.clone()) as PayloadBox
            });
        DataHandle {
            inner: Arc::new(HandleInner {
                id,
                bytes,
                job,
                clone_fn,
                family: OnceLock::new(),
                memory,
                state: Mutex::new(HandleState {
                    replicas,
                    last_writer: None,
                    readers: Vec::new(),
                    writes: 0,
                }),
            }),
        }
    }

    /// Stable identifier of this handle.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Owning job id (0 = the implicit default job).
    pub fn job(&self) -> u64 {
        self.inner.job
    }

    /// Registered payload size in bytes.
    pub fn bytes(&self) -> usize {
        self.inner.bytes
    }

    /// The block family this handle belongs to (0 = none).
    pub fn family(&self) -> u64 {
        self.inner.family.get().map_or(0, |f| f.id)
    }

    /// Whether node `node` currently holds a valid replica. Used by the
    /// `dmda` scheduler to estimate transfer costs.
    pub fn valid_on(&self, node: usize) -> bool {
        let st = self.inner.state.lock();
        st.replicas.get(node).is_some_and(|r| r.is_valid())
    }

    /// Per-node replica statuses (diagnostics / invariant tests).
    pub fn replica_statuses(&self) -> Vec<ReplicaStatus> {
        self.inner
            .state
            .lock()
            .replicas
            .iter()
            .map(|r| r.status)
            .collect()
    }

    /// The set of nodes holding valid replicas (diagnostics / tests).
    pub fn valid_nodes(&self) -> Vec<usize> {
        let st = self.inner.state.lock();
        st.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_valid())
            .map(|(i, _)| i)
            .collect()
    }

    /// Tasks a host access with mode `mode` must wait for, per sequential
    /// data consistency.
    pub(crate) fn tasks_to_wait_for(&self, mode: AccessMode) -> Vec<Arc<Task>> {
        let st = self.inner.state.lock();
        let mut out = Vec::new();
        if let Some(w) = &st.last_writer {
            out.push(Arc::clone(w));
        }
        if mode.writes() {
            out.extend(st.readers.iter().cloned());
        }
        out
    }

    /// Whether `node` lacks a valid replica of this handle, read under one
    /// hold of its lock together with the nodes that hold one, which are
    /// appended to `sources` when it does.
    pub(crate) fn missing_at(&self, node: usize, sources: &mut Vec<usize>) -> bool {
        let st = self.inner.state.lock();
        if st.replicas[node].is_valid() {
            return false;
        }
        let valid = st.replicas.iter().enumerate().filter(|(_, r)| r.is_valid());
        sources.extend(valid.map(|(src, _)| src));
        true
    }

    /// Records a task access at submission time and appends the tasks it
    /// depends on to `deps`: the last writer (for any access) plus all
    /// readers since the last write (for writing accesses).
    pub(crate) fn record_access(
        &self,
        task: &Arc<Task>,
        mode: AccessMode,
        deps: &mut Vec<Arc<Task>>,
    ) {
        let mut st = self.inner.state.lock();
        if let Some(w) = &st.last_writer {
            if w.id != task.id {
                deps.push(Arc::clone(w));
            }
        }
        if mode.writes() {
            for r in &st.readers {
                if r.id != task.id {
                    deps.push(Arc::clone(r));
                }
            }
            st.last_writer = Some(Arc::clone(task));
            st.readers.clear();
        } else if !st.readers.iter().any(|r| r.id == task.id) {
            st.readers.push(Arc::clone(task));
        }
    }
}

/// Constructs the clone function and byte size for a `Vec<T>` payload.
pub(crate) fn vec_bytes<T>(v: &[T]) -> usize {
    std::mem::size_of_val(v)
}

/// Payload types [`crate::Runtime::register`] can size on its own.
///
/// The byte count feeds transfer-cost modelling, performance-model
/// footprints, and memory-node capacity accounting, so it should reflect
/// the payload's bulk data — for `Vec<T>` that is the heap storage, for
/// scalars the value itself. Types whose size the runtime cannot infer
/// (or where the default would be wrong) can skip this trait and go
/// through [`crate::Runtime::register_sized`] with an explicit byte count.
pub trait Data: Clone + Send + Sync + 'static {
    /// Size in bytes of the payload's bulk data.
    fn data_bytes(&self) -> usize;
}

impl<T: Clone + Send + Sync + 'static> Data for Vec<T> {
    fn data_bytes(&self) -> usize {
        vec_bytes(self)
    }
}

macro_rules! scalar_data {
    ($($t:ty),* $(,)?) => {
        $(impl Data for $t {
            fn data_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        })*
    };
}

scalar_data!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64, bool);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_mode_predicates() {
        assert!(AccessMode::Read.reads() && !AccessMode::Read.writes());
        assert!(!AccessMode::Write.reads() && AccessMode::Write.writes());
        assert!(AccessMode::ReadWrite.reads() && AccessMode::ReadWrite.writes());
    }

    #[test]
    fn new_handle_master_copy_in_main_memory() {
        let h = DataHandle::new(1, vec![1.0f32; 8], 32, 3);
        assert!(h.valid_on(0));
        assert!(!h.valid_on(1));
        assert!(!h.valid_on(2));
        assert_eq!(h.valid_nodes(), vec![0]);
        assert_eq!(h.bytes(), 32);
    }

    #[test]
    fn vec_bytes_counts_payload() {
        assert_eq!(vec_bytes(&[0u64; 10]), 80);
        assert_eq!(vec_bytes::<f32>(&[]), 0);
    }
}
