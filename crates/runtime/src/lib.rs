//! A StarPU-like task runtime for heterogeneous systems.
//!
//! PEPPHER's dynamic composition delegates variant selection to "a
//! context-aware runtime system that records performance history and
//! constructs a dispatch mechanism online" — in the paper, StarPU. This
//! crate is that substrate, rebuilt from scratch in safe Rust:
//!
//! - **Codelets** ([`Codelet`]): a named computation with one implementation
//!   per architecture ([`Arch::Cpu`] single core, [`Arch::CpuTeam`] an
//!   OpenMP-style team spanning all CPU workers, [`Arch::Gpu`] a simulated
//!   accelerator).
//! - **Data handles** ([`DataHandle`]): registered operand data, replicated
//!   across memory nodes with MSI-style coherence ([`coherence`]); transfers
//!   are performed lazily and charged to a virtual PCIe link.
//! - **Memory-node capacity** ([`memory`]): device memory nodes carry byte
//!   budgets; under pressure the LRU unpinned replica is evicted, with
//!   Modified data written back to main memory first, enabling out-of-core
//!   working sets. A freed device buffer dies with its replica;
//!   [`Runtime::wont_use`](runtime::Runtime::wont_use) hints demote dead
//!   replicas to eager-eviction candidates, and prefetch consults the
//!   eviction clock instead of skipping when a node is momentarily full.
//! - **Implicit dependencies** (*sequential data consistency*): tasks
//!   submitted in program order are ordered by their data accesses
//!   (read-after-write, write-after-read, write-after-write), exactly as
//!   the paper's Fig. 3 describes; independent reads run concurrently.
//! - **Workers**: one OS thread per CPU worker and per accelerator. GPU
//!   kernels *really execute* (on the device's host thread) so results are
//!   correct; their *timing* is virtual, from `peppher-sim` cost models.
//! - **Schedulers** ([`SchedulerKind`]): a pull-based API — ready tasks are
//!   pushed once into per-worker queues and idle workers pop from them.
//!   Policies: `eager` (central queue, late binding), `dmda` — the
//!   performance-model-aware policy (HEFT-style earliest-finish-time with
//!   transfer costs) that gives the paper's "performance-aware dynamic
//!   scheduling" and steals from the richest victim when a worker runs
//!   dry — and `dmdar`, the same policy with memory-aware dispatch order
//!   (StarPU's "dmda ready") that runs tasks whose read operands are
//!   already resident on the worker's node first.
//! - **Performance models** ([`perfmodel`]): per (codelet, architecture,
//!   size-bucket) execution-history models with explicit calibration,
//!   StarPU-style, toggled by `useHistoryModels`.
//!
//! # Example
//!
//! ```
//! use peppher_runtime::{AccessMode, Arch, Codelet, Runtime, SchedulerKind, TaskBuilder};
//! use peppher_sim::{KernelCost, MachineConfig};
//! use std::sync::Arc;
//!
//! let rt = Runtime::new(MachineConfig::c2050_platform(2), SchedulerKind::Dmda);
//!
//! let axpy = Arc::new(
//!     Codelet::new("axpy")
//!         .with_impl(Arch::Cpu, |ctx| {
//!             let a: f32 = *ctx.arg::<f32>();
//!             let x = ctx.r::<Vec<f32>>(0).clone();
//!             let y = ctx.w::<Vec<f32>>(1);
//!             for (yi, xi) in y.iter_mut().zip(&x) {
//!                 *yi += a * xi;
//!             }
//!         }),
//! );
//!
//! let x = rt.register(vec![1.0f32; 1024]);
//! let y = rt.register(vec![2.0f32; 1024]);
//! TaskBuilder::new(&axpy)
//!     .arg(3.0f32)
//!     .access(&x, AccessMode::Read)
//!     .access(&y, AccessMode::ReadWrite)
//!     .cost(KernelCost::new(2048.0, 8192.0, 4096.0))
//!     .submit(&rt);
//! rt.wait_all();
//!
//! let out: Vec<f32> = rt.unregister(y);
//! assert_eq!(out[0], 5.0);
//! rt.shutdown();
//! ```

pub mod codelet;
pub mod coherence;
pub mod graph;
pub mod handle;
pub mod hash;
pub mod intern;
pub mod job;
pub mod memory;
pub mod perfmodel;
pub mod runtime;
pub mod sched;
pub mod stats;
pub mod task;
pub mod worker;

pub use codelet::{Arch, ArchClass, Codelet, KernelCtx};
pub use coherence::{Channel, Topology};
pub use graph::{GraphInstance, GraphNodeId, GraphSlot, GraphTask, RunRecord, TaskGraph};
pub use handle::{AccessMode, Data, DataHandle, ReplicaStatus};
pub use intern::{CodeletId, Sym};
pub use job::{Batch, JobConfig, JobHandle, JobStats};
pub use memory::{EvictionPolicy, MemoryManager};
pub use perfmodel::{ArchClassId, DriftEvent, Estimate, ModelStats, PerfKey, PerfRegistry};
pub use runtime::{HostReadGuard, HostWriteGuard, Objective, Runtime, RuntimeConfig};
pub use sched::{Scheduler, SchedulerKind};
pub use stats::{gantt, RunId, RuntimeStats, TraceEvent};
pub use task::{Task, TaskBuilder, TaskHandle, TaskHint, TaskHints};
