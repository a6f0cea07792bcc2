//! # PEPPHER — performance-aware dynamic composition for GPU-based systems
//!
//! A Rust reproduction of *The PEPPHER Composition Tool* (Dastgeer, Li,
//! Kessler; MuCoCoS 2012). This facade crate re-exports the whole workspace:
//!
//! - [`xml`] — minimal XML parser/writer for descriptors.
//! - [`descriptor`] — interface / component / platform / main-module
//!   descriptors, repository scanning, and skeleton generation.
//! - [`sim`] — virtual-time heterogeneous machine model (CPU + simulated
//!   GPU devices with transfer links and kernel cost models).
//! - [`runtime`] — StarPU-like task runtime: codelets, data handles with
//!   MSI coherence, dependency inference, workers, performance-aware
//!   schedulers.
//! - [`containers`] — smart containers `Scalar`, `Vector`, `Matrix`.
//! - [`core`] — the component model: interfaces, implementation variants,
//!   context-aware composition.
//! - [`compose`] — the composition tool: IR, expansion, static composition,
//!   stub/header/makefile code generation, utility mode.
//! - [`apps`] — the paper's evaluation applications, PEPPHERized.
//!
//! ## Quickstart
//!
//! ```
//! use peppher::prelude::*;
//!
//! // A machine with 4 CPU workers and one simulated C2050-class GPU.
//! let machine = MachineConfig::c2050_platform(4);
//! let rt = Runtime::new(machine, SchedulerKind::Dmda);
//!
//! // Register a component with CPU and GPU variants through the registry.
//! let registry = ComponentRegistry::new();
//! // ... see examples/quickstart.rs for the full flow.
//! drop(registry);
//! rt.shutdown();
//! ```

pub use peppher_apps as apps;
pub use peppher_compose as compose;
pub use peppher_containers as containers;
pub use peppher_core as core;
pub use peppher_descriptor as descriptor;
pub use peppher_runtime as runtime;
pub use peppher_sim as sim;
pub use peppher_xml as xml;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use peppher_containers::{Matrix, Scalar, Vector};
    pub use peppher_core::{
        CallContext, ComponentRegistry, ExecutionMode, InterfaceDecl, VariantBuilder,
    };
    pub use peppher_runtime::{
        AccessMode, Data, Runtime, RuntimeConfig, SchedulerKind, TaskBuilder, TaskHint, TaskHints,
    };
    pub use peppher_sim::{DeviceProfile, MachineConfig};
}
