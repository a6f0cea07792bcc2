//! Codelets: multi-architecture computations the runtime schedules.

use crate::handle::PayloadBox;
use crate::intern::CodeletId;
use parking_lot::{ArcRwLockReadGuard, ArcRwLockWriteGuard, RawRwLock};
use peppher_sim::KernelCost;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// The architecture an implementation targets.
///
/// This mirrors the paper's backend wrappers: "One backend-wrapper for a
/// component is generated for each backend (i.e. CPU/OpenMP, CUDA, OpenCL)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// A sequential implementation running on one CPU worker.
    Cpu,
    /// An OpenMP-style parallel implementation occupying the whole CPU
    /// worker team (scheduled as one StarPU-style *parallel task*).
    CpuTeam,
    /// An accelerator implementation; runs on a GPU worker and operates on
    /// replicas in that device's memory node.
    Gpu,
}

/// Architecture *class* used as a performance-model key: CPU times differ
/// from team times differ from each distinct GPU model's times.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArchClass {
    /// Single CPU core.
    Cpu,
    /// Whole CPU team of the given size.
    CpuTeam(usize),
    /// A GPU identified by its profile name (C2050 vs C1060 learn
    /// separate histories).
    Gpu(String),
}

impl fmt::Display for ArchClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchClass::Cpu => write!(f, "cpu"),
            ArchClass::CpuTeam(n) => write!(f, "cpu-team{n}"),
            ArchClass::Gpu(name) => write!(f, "gpu:{name}"),
        }
    }
}

impl std::str::FromStr for ArchClass {
    type Err = String;

    /// Inverse of `Display` (used by the performance-model persistence).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "cpu" {
            Ok(ArchClass::Cpu)
        } else if let Some(n) = s.strip_prefix("cpu-team") {
            n.parse::<usize>()
                .map(ArchClass::CpuTeam)
                .map_err(|_| format!("bad team size in `{s}`"))
        } else if let Some(name) = s.strip_prefix("gpu:") {
            Ok(ArchClass::Gpu(name.to_string()))
        } else {
            Err(format!("unknown arch class `{s}`"))
        }
    }
}

/// The kernel function type: receives a [`KernelCtx`] exposing the task's
/// data buffers (already made coherent on the executing node) and scalar
/// arguments. Plays the role of the paper's backend-wrapper signature
/// `void <name>(void* buffers[], void* arg)`.
pub type KernelFn = Arc<dyn Fn(&mut KernelCtx<'_>) + Send + Sync>;

/// One implementation variant of a codelet.
#[derive(Clone)]
pub struct Implementation {
    /// Target architecture.
    pub arch: Arch,
    /// The kernel body.
    pub func: KernelFn,
}

/// A prediction function, as in the paper's component metadata: maps a
/// task's [`KernelCost`] (derived from the call context) to an expected
/// execution time on the given architecture class. When absent, the
/// runtime's history models are the only information source.
pub type PredictionFn =
    Arc<dyn Fn(&ArchClass, &KernelCost) -> Option<peppher_sim::VTime> + Send + Sync>;

/// A named multi-architecture computation.
pub struct Codelet {
    /// Name; also the performance-model key prefix.
    pub name: String,
    /// Interned identity of `name`, assigned at construction. The hot path
    /// keys perf models and scheduler state on this `Copy` id instead of
    /// cloning the name per task.
    pub id: CodeletId,
    /// Available implementations, at most one per [`Arch`].
    pub impls: Vec<Implementation>,
    /// Optional programmer-provided prediction function.
    pub prediction: Option<PredictionFn>,
}

impl Codelet {
    /// Creates a codelet with no implementations yet.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        let id = CodeletId::intern(&name);
        Codelet {
            name,
            id,
            impls: Vec::new(),
            prediction: None,
        }
    }

    /// Adds (or replaces) the implementation for `arch`.
    pub fn with_impl(
        mut self,
        arch: Arch,
        func: impl Fn(&mut KernelCtx<'_>) + Send + Sync + 'static,
    ) -> Self {
        self.impls.retain(|i| i.arch != arch);
        self.impls.push(Implementation {
            arch,
            func: Arc::new(func),
        });
        self
    }

    /// Attaches a programmer-provided prediction function.
    pub fn with_prediction(
        mut self,
        f: impl Fn(&ArchClass, &KernelCost) -> Option<peppher_sim::VTime> + Send + Sync + 'static,
    ) -> Self {
        self.prediction = Some(Arc::new(f));
        self
    }

    /// The implementation for `arch`, if one exists.
    pub fn impl_for(&self, arch: Arch) -> Option<&Implementation> {
        self.impls.iter().find(|i| i.arch == arch)
    }

    /// Whether any implementation targets `arch`.
    pub fn has_arch(&self, arch: Arch) -> bool {
        self.impl_for(arch).is_some()
    }
}

impl fmt::Debug for Codelet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Codelet")
            .field("name", &self.name)
            .field(
                "archs",
                &self.impls.iter().map(|i| i.arch).collect::<Vec<_>>(),
            )
            .field("has_prediction", &self.prediction.is_some())
            .finish()
    }
}

/// A buffer guard held for the duration of a kernel: shared for reads,
/// exclusive for writes. Dependencies already serialize conflicting
/// accesses, so these locks are uncontended except for legitimate
/// concurrent readers.
pub enum BufferGuard {
    /// Shared read access.
    Read(ArcRwLockReadGuard<RawRwLock, PayloadBox>),
    /// Exclusive write access.
    Write(ArcRwLockWriteGuard<RawRwLock, PayloadBox>),
}

/// Execution context handed to kernel functions: typed access to the task's
/// data buffers plus the scalar argument pack.
pub struct KernelCtx<'a> {
    pub(crate) buffers: &'a mut [BufferGuard],
    pub(crate) arg: Option<&'a (dyn Any + Send)>,
    /// Index of the executing worker.
    pub worker: usize,
    /// Architecture of the implementation being run.
    pub arch: Arch,
    /// For [`Arch::CpuTeam`] implementations: the number of CPU workers in
    /// the team (kernels may use it to size their internal parallelism).
    pub team_size: usize,
}

/// Buffer `i`'s payload as a `T`.
fn view<T: 'static>(g: &BufferGuard, i: usize) -> &T {
    match g {
        BufferGuard::Read(g) => g.downcast_ref::<T>(),
        BufferGuard::Write(g) => g.downcast_ref::<T>(),
    }
    .unwrap_or_else(|| panic!("buffer {i}: type mismatch in kernel read"))
}

/// Buffer `i`'s payload as a mutable `T`; it must have been acquired for
/// writing.
fn view_mut<T: 'static>(g: &mut BufferGuard, i: usize) -> &mut T {
    match g {
        BufferGuard::Write(g) => g
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("buffer {i}: type mismatch in kernel write")),
        BufferGuard::Read(_) => {
            panic!("buffer {i}: kernel requested mutable access to a read-only operand")
        }
    }
}

impl KernelCtx<'_> {
    /// Immutable view of buffer `i`, downcast to `T`.
    ///
    /// # Panics
    /// Panics if the buffer was not registered as a `T`, if index is out of
    /// range, or if the access mode at `i` is write-only (write-only
    /// buffers may hold uninitialized/stale data by design).
    pub fn r<T: 'static>(&self, i: usize) -> &T {
        view(&self.buffers[i], i)
    }

    /// Mutable view of buffer `i`, downcast to `T`.
    ///
    /// # Panics
    /// Panics on type mismatch or if the buffer was acquired read-only.
    pub fn w<T: 'static>(&mut self, i: usize) -> &mut T {
        view_mut(&mut self.buffers[i], i)
    }

    /// Two mutable buffers at once (e.g. LU factorization updating two
    /// blocks). Indices must differ.
    pub fn w2<T: 'static, U: 'static>(&mut self, i: usize, j: usize) -> (&mut T, &mut U) {
        assert_ne!(i, j, "w2 requires distinct buffer indices");
        let (lo, hi) = self.buffers.split_at_mut(i.max(j));
        let (gi, gj) = if i < j {
            (&mut lo[i], &mut hi[0])
        } else {
            (&mut hi[0], &mut lo[j])
        };
        (view_mut(gi, i), view_mut(gj, j))
    }

    /// Buffer `r` to read beside buffer `w` to write (a copy kernel moving
    /// one operand's contents into another without cloning either).
    /// Indices must differ.
    ///
    /// # Panics
    /// Panics if `r == w`, on a type mismatch, or if `w` was acquired
    /// read-only.
    pub fn rw<R: 'static, W: 'static>(&mut self, r: usize, w: usize) -> (&R, &mut W) {
        assert_ne!(r, w, "rw requires distinct buffer indices");
        let (lo, hi) = self.buffers.split_at_mut(r.max(w));
        let (gr, gw) = if r < w {
            (&lo[r], &mut hi[0])
        } else {
            (&hi[0], &mut lo[w])
        };
        (view(gr, r), view_mut(gw, w))
    }

    /// The scalar argument pack, downcast to `T`.
    ///
    /// # Panics
    /// Panics if no argument was attached or the type does not match.
    pub fn arg<T: 'static>(&self) -> &T {
        self.arg
            .expect("task has no scalar argument")
            .downcast_ref::<T>()
            .expect("scalar argument type mismatch")
    }

    /// Number of data buffers attached to the task.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::RwLock;

    fn guard(v: Vec<u32>, writable: bool) -> BufferGuard {
        let cell = Arc::new(RwLock::new(Box::new(v) as PayloadBox));
        if writable {
            BufferGuard::Write(cell.write_arc())
        } else {
            BufferGuard::Read(cell.read_arc())
        }
    }

    fn ctx(buffers: &mut [BufferGuard]) -> KernelCtx<'_> {
        KernelCtx {
            buffers,
            arg: None,
            worker: 0,
            arch: Arch::Cpu,
            team_size: 1,
        }
    }

    #[test]
    fn rw_reads_one_buffer_into_another_either_way_round() {
        let mut bufs = [guard(vec![1, 2], false), guard(vec![0, 0], true)];
        let mut k = ctx(&mut bufs);
        let (src, dst) = k.rw::<Vec<u32>, Vec<u32>>(0, 1);
        dst.clone_from_slice(src);
        assert_eq!(k.r::<Vec<u32>>(1), &[1, 2]);
        let mut bufs = [guard(vec![0], true), guard(vec![7], false)];
        let mut k = ctx(&mut bufs);
        let (src, dst) = k.rw::<Vec<u32>, Vec<u32>>(1, 0);
        dst[0] = src[0];
        assert_eq!(k.r::<Vec<u32>>(0), &[7]);
    }

    #[test]
    #[should_panic(expected = "rw requires distinct buffer indices")]
    fn rw_rejects_one_buffer_as_both_operands() {
        let mut bufs = [guard(vec![1], true)];
        ctx(&mut bufs).rw::<Vec<u32>, Vec<u32>>(0, 0);
    }

    #[test]
    #[should_panic(expected = "mutable access to a read-only operand")]
    fn rw_rejects_a_read_only_destination() {
        let mut bufs = [guard(vec![1], false), guard(vec![2], false)];
        ctx(&mut bufs).rw::<Vec<u32>, Vec<u32>>(0, 1);
    }

    #[test]
    fn with_impl_replaces_same_arch() {
        let c = Codelet::new("k")
            .with_impl(Arch::Cpu, |_| {})
            .with_impl(Arch::Cpu, |_| {});
        assert_eq!(c.impls.len(), 1);
        assert!(c.has_arch(Arch::Cpu));
        assert!(!c.has_arch(Arch::Gpu));
    }

    #[test]
    fn codelet_id_is_interned_name() {
        let a = Codelet::new("codelet-id-test");
        let b = Codelet::new("codelet-id-test");
        assert_eq!(a.id, b.id);
        assert_eq!(a.id.as_str(), "codelet-id-test");
        assert_ne!(Codelet::new("codelet-id-other").id, a.id);
    }

    #[test]
    fn arch_class_display() {
        assert_eq!(ArchClass::Cpu.to_string(), "cpu");
        assert_eq!(ArchClass::CpuTeam(4).to_string(), "cpu-team4");
        assert_eq!(
            ArchClass::Gpu("Tesla C2050".into()).to_string(),
            "gpu:Tesla C2050"
        );
    }
}
