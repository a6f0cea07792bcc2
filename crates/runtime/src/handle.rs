//! Registered data and its per-memory-node replicas.

use crate::task::Task;
use parking_lot::{Mutex, RwLock};
use peppher_sim::VTime;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaStatus {
    /// No valid copy at this node.
    Invalid,
    /// A valid copy that other nodes may also hold.
    Shared,
    /// The unique up-to-date copy; all other replicas are invalid.
    Modified,
}

/// One memory node's view of a handle's data.
pub struct Replica {
    /// The buffer, if one was ever allocated at this node.
    pub cell: Option<PayloadCell>,
    /// Coherence status.
    pub status: ReplicaStatus,
    /// Virtual time at which this replica's contents become available
    /// (produced by a task or delivered by a transfer).
    pub vready: VTime,
}

impl Replica {
    fn empty() -> Self {
        Replica {
            cell: None,
            status: ReplicaStatus::Invalid,
            vready: VTime::ZERO,
        }
    }

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

pub(crate) struct HandleInner {
    pub id: u64,
    /// Payload size in bytes (fixed at registration; used for transfer
    /// modelling and performance-model footprints).
    pub bytes: usize,
    /// Owning job id (0 = the implicit default job). A job cancellation
    /// reclaims exactly the device replicas carrying its id.
    pub job: u64,
    /// Deep-copies a payload (drives replica allocation and transfer).
    pub clone_fn: Arc<dyn Fn(&PayloadBox) -> PayloadBox + Send + Sync>,
    pub state: Mutex<HandleState>,
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
        Self::new_owned(id, payload, bytes, nodes, 0)
    }

    /// [`DataHandle::new`] with an explicit owning job id (see
    /// [`HandleInner::job`]).
    pub(crate) fn new_owned<T: Clone + Send + Sync + 'static>(
        id: u64,
        payload: T,
        bytes: usize,
        nodes: usize,
        job: u64,
    ) -> Self {
        let mut replicas: Vec<Replica> = (0..nodes).map(|_| Replica::empty()).collect();
        replicas[0] = Replica {
            cell: Some(Arc::new(RwLock::new(Box::new(payload) as PayloadBox))),
            status: ReplicaStatus::Modified,
            vready: VTime::ZERO,
        };
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

    /// Records a task access at submission time and returns the tasks it
    /// depends on: the last writer (for any access) plus all readers since
    /// the last write (for writing accesses).
    pub(crate) fn record_access(&self, task: &Arc<Task>, mode: AccessMode) -> Vec<Arc<Task>> {
        let mut st = self.inner.state.lock();
        let mut deps = Vec::new();
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
        deps
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
