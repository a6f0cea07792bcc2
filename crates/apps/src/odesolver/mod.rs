//! Runge–Kutta ODE solver (libsolve): a classic RK4 integrator for a 2D
//! Brusselator reaction–diffusion system, decomposed into PEPPHER
//! components exactly the way the paper describes: "this application is
//! particularly interesting to measure the runtime overhead as the
//! component calls in this application have tight data dependency which
//! makes its execution almost sequential" — 9 different components,
//! 10613 invocations at the paper's step count.
//!
//! The nine components: `ode_init`, `ode_feval`, `ode_stage2`,
//! `ode_stage3`, `ode_stage4`, `ode_combine`, `ode_norm`, `ode_scale`,
//! `ode_copy`. Each step performs 4 derivative evaluations, 3 stage
//! updates, the final combination, and one error-control call (the solver
//! alternates error-norm evaluation with error-vector scaling), i.e. 9
//! invocations per step; with the paper's 1179 steps plus the boundary
//! `init`/`copy` calls this is exactly `9 * 1179 + 2 = 10613` invocations.

use peppher_containers::{Scalar, Vector};
use peppher_core::{Component, ComponentRegistry, VariantBuilder};
use peppher_descriptor::{AccessType, ContextParam, InterfaceDescriptor, ParamDecl};
use peppher_runtime::{
    AccessMode, Arch, Codelet, GraphSlot, GraphTask, KernelCtx, Runtime, TaskBuilder, TaskGraph,
};
use peppher_sim::{KernelCost, VTime};
use std::sync::Arc;

/// Number of invocations the paper reports for this application.
pub const PAPER_INVOCATIONS: usize = 10_613;
/// Steps that produce exactly [`PAPER_INVOCATIONS`] calls.
pub const PAPER_STEPS: usize = 1_179;

/// Scalar arguments shared by the vector-op components.
#[derive(Debug, Clone, Copy)]
pub struct OdeArgs {
    /// Unknown count (`2 * cells`).
    pub n: usize,
    /// Coefficient (`h/2`, `h`, `h/6`, scale factor — per component).
    pub coeff: f32,
    /// Brusselator grid edge (cells = `edge * edge`).
    pub edge: usize,
}

/// Brusselator parameters (classical A=1, B=3, small diffusion).
const BRUSS_A: f32 = 1.0;
const BRUSS_B: f32 = 3.0;
const BRUSS_D: f32 = 0.1;

/// Derivative evaluation `k = f(y)` for the 2D Brusselator on an
/// `edge x edge` grid; `y` stores `u` then `v` (each `edge*edge`).
pub fn feval_kernel(y: &[f32], k: &mut [f32], edge: usize) {
    let cells = edge * edge;
    let (u, v) = y.split_at(cells);
    let idx = |i: usize, j: usize| i * edge + j;
    for i in 0..edge {
        for j in 0..edge {
            let c = idx(i, j);
            let lap = |field: &[f32]| {
                let center = field[c];
                let north = if i > 0 { field[idx(i - 1, j)] } else { center };
                let south = if i + 1 < edge {
                    field[idx(i + 1, j)]
                } else {
                    center
                };
                let west = if j > 0 { field[idx(i, j - 1)] } else { center };
                let east = if j + 1 < edge {
                    field[idx(i, j + 1)]
                } else {
                    center
                };
                north + south + east + west - 4.0 * center
            };
            let uu = u[c];
            let vv = v[c];
            let reaction_u = BRUSS_A + uu * uu * vv - (BRUSS_B + 1.0) * uu;
            let reaction_v = BRUSS_B * uu - uu * uu * vv;
            k[c] = reaction_u + BRUSS_D * lap(u);
            k[cells + c] = reaction_v + BRUSS_D * lap(v);
        }
    }
}

/// Stage update `yt = y + coeff * k`.
pub fn stage_kernel(y: &[f32], k: &[f32], yt: &mut [f32], coeff: f32, n: usize) {
    for i in 0..n {
        yt[i] = y[i] + coeff * k[i];
    }
}

/// Final combination `y += coeff * (k1 + 2 k2 + 2 k3 + k4)` (`coeff = h/6`).
pub fn combine_kernel(
    y: &mut [f32],
    k1: &[f32],
    k2: &[f32],
    k3: &[f32],
    k4: &[f32],
    coeff: f32,
    n: usize,
) {
    for i in 0..n {
        y[i] += coeff * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

/// Error norm `max |k1 - k4|` (the step-size-control proxy).
pub fn norm_kernel(k1: &[f32], k4: &[f32], n: usize) -> f32 {
    let mut m = 0.0f32;
    for i in 0..n {
        m = m.max((k1[i] - k4[i]).abs());
    }
    m
}

/// Initial condition: the standard Brusselator perturbation pattern.
pub fn init_kernel(y: &mut [f32], edge: usize) {
    let cells = edge * edge;
    for i in 0..edge {
        for j in 0..edge {
            let (x, yy) = (j as f32 / edge as f32, i as f32 / edge as f32);
            y[i * edge + j] = 0.5 + yy; // u
            y[cells + i * edge + j] = 1.0 + 5.0 * x; // v
        }
    }
}

/// Sequential reference: full RK4 integration, returning the final state.
pub fn reference(edge: usize, steps: usize, h: f32) -> Vec<f32> {
    let n = 2 * edge * edge;
    let mut y = vec![0.0f32; n];
    init_kernel(&mut y, edge);
    let mut k1 = vec![0.0f32; n];
    let mut k2 = vec![0.0f32; n];
    let mut k3 = vec![0.0f32; n];
    let mut k4 = vec![0.0f32; n];
    let mut yt = vec![0.0f32; n];
    for _ in 0..steps {
        feval_kernel(&y, &mut k1, edge);
        stage_kernel(&y, &k1, &mut yt, h / 2.0, n);
        feval_kernel(&yt, &mut k2, edge);
        stage_kernel(&y, &k2, &mut yt, h / 2.0, n);
        feval_kernel(&yt, &mut k3, edge);
        stage_kernel(&y, &k3, &mut yt, h, n);
        feval_kernel(&yt, &mut k4, edge);
        combine_kernel(&mut y, &k1, &k2, &k3, &k4, h / 6.0, n);
    }
    y
}

fn vec_interface(
    name: &str,
    params: &[(&str, &str, AccessType)],
    ctx_param: &str,
) -> InterfaceDescriptor {
    let mut i = InterfaceDescriptor::new(name);
    i.params = params
        .iter()
        .map(|(n, t, a)| ParamDecl {
            name: (*n).into(),
            ctype: (*t).into(),
            access: *a,
        })
        .collect();
    i.context_params = vec![ContextParam {
        name: ctx_param.into(),
        min: Some(1.0),
        max: None,
    }];
    i
}

fn axpy_cost(n: f64) -> KernelCost {
    KernelCost::new(2.0 * n, 8.0 * n, 4.0 * n).with_regularity(1.0)
}

fn feval_cost(n: f64) -> KernelCost {
    KernelCost::new(20.0 * n, 24.0 * n, 4.0 * n)
        .with_regularity(0.85)
        .with_arithmetic_efficiency(0.2)
}

fn both_archs(
    b: peppher_core::ComponentBuilder,
    name: &str,
    f: impl Fn(&mut KernelCtx<'_>) + Send + Sync + Clone + 'static,
) -> peppher_core::ComponentBuilder {
    let f2 = f.clone();
    b.variant(
        VariantBuilder::new(format!("{name}_cpu"), "cpp")
            .kernel(f)
            .build(),
    )
    .variant(
        VariantBuilder::new(format!("{name}_cuda"), "cuda")
            .kernel(f2)
            .build(),
    )
}

/// Builds all nine ODE components and registers them.
pub fn register_components(registry: &ComponentRegistry) {
    // 1. ode_init — write the initial condition.
    let b = Component::builder(vec_interface(
        "ode_init",
        &[("y", "float*", AccessType::Write)],
        "n",
    ));
    registry.register(
        both_archs(b, "ode_init", |ctx| {
            let edge = ctx.arg::<OdeArgs>().edge;
            init_kernel(ctx.w::<Vec<f32>>(0), edge);
        })
        .cost(|c| axpy_cost(c.get("n").unwrap_or(0.0)))
        .build(),
    );

    // 2. ode_feval — k = f(y).
    let b = Component::builder(vec_interface(
        "ode_feval",
        &[
            ("y", "const float*", AccessType::Read),
            ("k", "float*", AccessType::Write),
        ],
        "n",
    ));
    registry.register(
        both_archs(b, "ode_feval", |ctx| {
            let edge = ctx.arg::<OdeArgs>().edge;
            let y = ctx.r::<Vec<f32>>(0).clone();
            feval_kernel(&y, ctx.w::<Vec<f32>>(1), edge);
        })
        .cost(|c| feval_cost(c.get("n").unwrap_or(0.0)))
        .build(),
    );

    // 3-5. ode_stage2/3/4 — yt = y + coeff * k (libsolve specializes each
    // stage kernel; we keep them as distinct components likewise).
    for stage in ["ode_stage2", "ode_stage3", "ode_stage4"] {
        let b = Component::builder(vec_interface(
            stage,
            &[
                ("y", "const float*", AccessType::Read),
                ("k", "const float*", AccessType::Read),
                ("yt", "float*", AccessType::Write),
            ],
            "n",
        ));
        registry.register(
            both_archs(b, stage, |ctx| {
                let args = *ctx.arg::<OdeArgs>();
                let y = ctx.r::<Vec<f32>>(0).clone();
                let k = ctx.r::<Vec<f32>>(1).clone();
                stage_kernel(&y, &k, ctx.w::<Vec<f32>>(2), args.coeff, args.n);
            })
            .cost(|c| axpy_cost(c.get("n").unwrap_or(0.0)))
            .build(),
        );
    }

    // 6. ode_combine — y += coeff * (k1 + 2k2 + 2k3 + k4).
    let b = Component::builder(vec_interface(
        "ode_combine",
        &[
            ("y", "float*", AccessType::ReadWrite),
            ("k1", "const float*", AccessType::Read),
            ("k2", "const float*", AccessType::Read),
            ("k3", "const float*", AccessType::Read),
            ("k4", "const float*", AccessType::Read),
        ],
        "n",
    ));
    registry.register(
        both_archs(b, "ode_combine", |ctx| {
            let args = *ctx.arg::<OdeArgs>();
            let k1 = ctx.r::<Vec<f32>>(1).clone();
            let k2 = ctx.r::<Vec<f32>>(2).clone();
            let k3 = ctx.r::<Vec<f32>>(3).clone();
            let k4 = ctx.r::<Vec<f32>>(4).clone();
            combine_kernel(ctx.w::<Vec<f32>>(0), &k1, &k2, &k3, &k4, args.coeff, args.n);
        })
        .cost(|c| axpy_cost(c.get("n").unwrap_or(0.0)).scaled(2.5))
        .build(),
    );

    // 7. ode_norm — err = max|k1 - k4|.
    let b = Component::builder(vec_interface(
        "ode_norm",
        &[
            ("k1", "const float*", AccessType::Read),
            ("k4", "const float*", AccessType::Read),
            ("err", "float*", AccessType::Write),
        ],
        "n",
    ));
    registry.register(
        both_archs(b, "ode_norm", |ctx| {
            let args = *ctx.arg::<OdeArgs>();
            let k1 = ctx.r::<Vec<f32>>(0).clone();
            let k4 = ctx.r::<Vec<f32>>(1).clone();
            *ctx.w::<f32>(2) = norm_kernel(&k1, &k4, args.n);
        })
        .cost(|c| axpy_cost(c.get("n").unwrap_or(0.0)))
        .build(),
    );

    // 8. ode_scale — k *= coeff (error-vector scaling).
    let b = Component::builder(vec_interface(
        "ode_scale",
        &[("k", "float*", AccessType::ReadWrite)],
        "n",
    ));
    registry.register(
        both_archs(b, "ode_scale", |ctx| {
            let args = *ctx.arg::<OdeArgs>();
            for x in ctx.w::<Vec<f32>>(0).iter_mut().take(args.n) {
                *x *= args.coeff;
            }
        })
        .cost(|c| axpy_cost(c.get("n").unwrap_or(0.0)))
        .build(),
    );

    // 9. ode_copy — out = y (result snapshot).
    let b = Component::builder(vec_interface(
        "ode_copy",
        &[
            ("y", "const float*", AccessType::Read),
            ("out", "float*", AccessType::Write),
        ],
        "n",
    ));
    registry.register(
        both_archs(b, "ode_copy", |ctx| {
            let args = *ctx.arg::<OdeArgs>();
            let y = ctx.r::<Vec<f32>>(0).clone();
            ctx.w::<Vec<f32>>(1)[..args.n].copy_from_slice(&y[..args.n]);
        })
        .cost(|c| axpy_cost(c.get("n").unwrap_or(0.0)))
        .build(),
    );
}

// LOC:TOOL:BEGIN
/// The full solver through the composition framework. Returns the final
/// state and the total number of component invocations performed.
pub fn run_peppherized(
    rt: &Runtime,
    edge: usize,
    steps: usize,
    force: Option<&str>,
) -> (Vec<f32>, usize) {
    let registry = ComponentRegistry::new();
    register_components(&registry);
    let n = 2 * edge * edge;
    let h = 1e-4f32;
    let mut invocations = 0usize;

    let y = Vector::register(rt, vec![0.0f32; n]);
    let k1 = Vector::register(rt, vec![0.0f32; n]);
    let k2 = Vector::register(rt, vec![0.0f32; n]);
    let k3 = Vector::register(rt, vec![0.0f32; n]);
    let k4 = Vector::register(rt, vec![0.0f32; n]);
    let yt = Vector::register(rt, vec![0.0f32; n]);
    let out = Vector::register(rt, vec![0.0f32; n]);
    let err = Scalar::register(rt, 0.0f32);

    let suffix = |name: &str| force.map(|f| format!("{name}_{f}"));
    let call = |name: &str, ops: &[&peppher_runtime::DataHandle], coeff: f32| {
        let mut c = registry
            .call(name)
            .arg(OdeArgs { n, coeff, edge })
            .context("n", n as f64);
        for h in ops {
            c = c.operand(h);
        }
        if let Some(v) = suffix(name) {
            c = c.force_variant(v);
        }
        c.submit(rt);
    };

    call("ode_init", &[y.handle()], 0.0);
    invocations += 1;
    for step in 0..steps {
        call("ode_feval", &[y.handle(), k1.handle()], 0.0);
        call(
            "ode_stage2",
            &[y.handle(), k1.handle(), yt.handle()],
            h / 2.0,
        );
        call("ode_feval", &[yt.handle(), k2.handle()], 0.0);
        call(
            "ode_stage3",
            &[y.handle(), k2.handle(), yt.handle()],
            h / 2.0,
        );
        call("ode_feval", &[yt.handle(), k3.handle()], 0.0);
        call("ode_stage4", &[y.handle(), k3.handle(), yt.handle()], h);
        call("ode_feval", &[yt.handle(), k4.handle()], 0.0);
        call(
            "ode_combine",
            &[
                y.handle(),
                k1.handle(),
                k2.handle(),
                k3.handle(),
                k4.handle(),
            ],
            h / 6.0,
        );
        // Error control: alternate norm evaluation with error scaling.
        if step % 2 == 0 {
            call("ode_norm", &[k1.handle(), k4.handle(), err.handle()], 0.0);
        } else {
            call("ode_scale", &[k4.handle()], 1.0);
        }
        invocations += 9;
    }
    call("ode_copy", &[y.handle(), out.handle()], 0.0);
    invocations += 1;

    let result = out.into_vec();
    (result, invocations)
}
// LOC:TOOL:END

// LOC:DIRECT:BEGIN
/// The solver hand-written against the raw runtime: every codelet, task
/// and buffer managed manually (the paper's "direct" libsolve port).
pub fn run_direct(rt: &Runtime, edge: usize, steps: usize, gpu_only: bool) -> Vec<f32> {
    let n = 2 * edge * edge;
    let h = 1e-4f32;

    let make = |name: &str, f: fn(&mut KernelCtx<'_>)| -> Arc<Codelet> {
        let mut c = Codelet::new(name);
        if !gpu_only {
            c = c.with_impl(Arch::Cpu, f);
        }
        c = c.with_impl(Arch::Gpu, f);
        Arc::new(c)
    };
    let feval = make("ode_feval_direct", |ctx| {
        let edge = ctx.arg::<OdeArgs>().edge;
        let y = ctx.r::<Vec<f32>>(0).clone();
        feval_kernel(&y, ctx.w::<Vec<f32>>(1), edge);
    });
    let stage = make("ode_stage_direct", |ctx| {
        let args = *ctx.arg::<OdeArgs>();
        let y = ctx.r::<Vec<f32>>(0).clone();
        let k = ctx.r::<Vec<f32>>(1).clone();
        stage_kernel(&y, &k, ctx.w::<Vec<f32>>(2), args.coeff, args.n);
    });
    let combine = make("ode_combine_direct", |ctx| {
        let args = *ctx.arg::<OdeArgs>();
        let k1 = ctx.r::<Vec<f32>>(1).clone();
        let k2 = ctx.r::<Vec<f32>>(2).clone();
        let k3 = ctx.r::<Vec<f32>>(3).clone();
        let k4 = ctx.r::<Vec<f32>>(4).clone();
        combine_kernel(ctx.w::<Vec<f32>>(0), &k1, &k2, &k3, &k4, args.coeff, args.n);
    });
    let norm = make("ode_norm_direct", |ctx| {
        let args = *ctx.arg::<OdeArgs>();
        let k1 = ctx.r::<Vec<f32>>(0).clone();
        let k4 = ctx.r::<Vec<f32>>(1).clone();
        *ctx.w::<f32>(2) = norm_kernel(&k1, &k4, args.n);
    });
    let scale = make("ode_scale_direct", |ctx| {
        let args = *ctx.arg::<OdeArgs>();
        for x in ctx.w::<Vec<f32>>(0).iter_mut().take(args.n) {
            *x *= args.coeff;
        }
    });

    let mut y0 = vec![0.0f32; n];
    init_kernel(&mut y0, edge);
    let y = rt.register(y0);
    let k1 = rt.register(vec![0.0f32; n]);
    let k2 = rt.register(vec![0.0f32; n]);
    let k3 = rt.register(vec![0.0f32; n]);
    let k4 = rt.register(vec![0.0f32; n]);
    let yt = rt.register(vec![0.0f32; n]);
    let err = rt.register_sized(0.0f32, 4);

    let args = |coeff: f32| OdeArgs { n, coeff, edge };
    let fcost = feval_cost(n as f64);
    let acost = axpy_cost(n as f64);
    for step in 0..steps {
        TaskBuilder::new(&feval)
            .access(&y, AccessMode::Read)
            .access(&k1, AccessMode::Write)
            .arg(args(0.0))
            .cost(fcost)
            .submit(rt);
        TaskBuilder::new(&stage)
            .access(&y, AccessMode::Read)
            .access(&k1, AccessMode::Read)
            .access(&yt, AccessMode::Write)
            .arg(args(h / 2.0))
            .cost(acost)
            .submit(rt);
        TaskBuilder::new(&feval)
            .access(&yt, AccessMode::Read)
            .access(&k2, AccessMode::Write)
            .arg(args(0.0))
            .cost(fcost)
            .submit(rt);
        TaskBuilder::new(&stage)
            .access(&y, AccessMode::Read)
            .access(&k2, AccessMode::Read)
            .access(&yt, AccessMode::Write)
            .arg(args(h / 2.0))
            .cost(acost)
            .submit(rt);
        TaskBuilder::new(&feval)
            .access(&yt, AccessMode::Read)
            .access(&k3, AccessMode::Write)
            .arg(args(0.0))
            .cost(fcost)
            .submit(rt);
        TaskBuilder::new(&stage)
            .access(&y, AccessMode::Read)
            .access(&k3, AccessMode::Read)
            .access(&yt, AccessMode::Write)
            .arg(args(h))
            .cost(acost)
            .submit(rt);
        TaskBuilder::new(&feval)
            .access(&yt, AccessMode::Read)
            .access(&k4, AccessMode::Write)
            .arg(args(0.0))
            .cost(fcost)
            .submit(rt);
        TaskBuilder::new(&combine)
            .access(&y, AccessMode::ReadWrite)
            .access(&k1, AccessMode::Read)
            .access(&k2, AccessMode::Read)
            .access(&k3, AccessMode::Read)
            .access(&k4, AccessMode::Read)
            .arg(args(h / 6.0))
            .cost(acost.scaled(2.5))
            .submit(rt);
        if step % 2 == 0 {
            TaskBuilder::new(&norm)
                .access(&k1, AccessMode::Read)
                .access(&k4, AccessMode::Read)
                .access(&err, AccessMode::Write)
                .arg(args(0.0))
                .cost(acost)
                .submit(rt);
        } else {
            TaskBuilder::new(&scale)
                .access(&k4, AccessMode::ReadWrite)
                .arg(args(1.0))
                .cost(acost)
                .submit(rt);
        }
    }
    rt.wait_all();
    let result = rt.unregister::<Vec<f32>>(y);
    let _ = rt.unregister::<f32>(err);
    for hdl in [k1, k2, k3, k4, yt] {
        let _ = rt.unregister::<Vec<f32>>(hdl);
    }
    result
}
// LOC:DIRECT:END

/// The recorded-graph port of [`run_direct`]: slots plus the DAG of one
/// *double* RK4 step, for build-once/execute-many replay.
pub struct OdeGraph {
    /// The recorded double step (18 tasks over 7 slots).
    pub graph: TaskGraph,
    /// State-vector slot: bind the initial condition, read back the result.
    pub y: GraphSlot,
    /// Error-norm output slot.
    pub err: GraphSlot,
}

/// Records the solver's repeating unit as a [`TaskGraph`]. The direct path
/// alternates error control per step (norm on even steps, error-vector
/// scaling on odd), so the repeating unit is a *double* step: even step
/// ending in `ode_norm`, odd step ending in `ode_scale` — 18 nodes total.
/// Codelet names carry a `_graph` suffix so performance histories stay
/// separate from the direct path's.
pub fn record_double_step(edge: usize, gpu_only: bool) -> OdeGraph {
    let n = 2 * edge * edge;
    let h = 1e-4f32;

    let make = |name: &str, f: fn(&mut KernelCtx<'_>)| -> Arc<Codelet> {
        let mut c = Codelet::new(name);
        if !gpu_only {
            c = c.with_impl(Arch::Cpu, f);
        }
        c = c.with_impl(Arch::Gpu, f);
        Arc::new(c)
    };
    let feval = make("ode_feval_graph", |ctx| {
        let edge = ctx.arg::<OdeArgs>().edge;
        let y = ctx.r::<Vec<f32>>(0).clone();
        feval_kernel(&y, ctx.w::<Vec<f32>>(1), edge);
    });
    let stage = make("ode_stage_graph", |ctx| {
        let args = *ctx.arg::<OdeArgs>();
        let y = ctx.r::<Vec<f32>>(0).clone();
        let k = ctx.r::<Vec<f32>>(1).clone();
        stage_kernel(&y, &k, ctx.w::<Vec<f32>>(2), args.coeff, args.n);
    });
    let combine = make("ode_combine_graph", |ctx| {
        let args = *ctx.arg::<OdeArgs>();
        let k1 = ctx.r::<Vec<f32>>(1).clone();
        let k2 = ctx.r::<Vec<f32>>(2).clone();
        let k3 = ctx.r::<Vec<f32>>(3).clone();
        let k4 = ctx.r::<Vec<f32>>(4).clone();
        combine_kernel(ctx.w::<Vec<f32>>(0), &k1, &k2, &k3, &k4, args.coeff, args.n);
    });
    let norm = make("ode_norm_graph", |ctx| {
        let args = *ctx.arg::<OdeArgs>();
        let k1 = ctx.r::<Vec<f32>>(0).clone();
        let k4 = ctx.r::<Vec<f32>>(1).clone();
        *ctx.w::<f32>(2) = norm_kernel(&k1, &k4, args.n);
    });
    let scale = make("ode_scale_graph", |ctx| {
        let args = *ctx.arg::<OdeArgs>();
        for x in ctx.w::<Vec<f32>>(0).iter_mut().take(args.n) {
            *x *= args.coeff;
        }
    });

    let mut g = TaskGraph::new();
    let y = g.slot(vec![0.0f32; n]);
    let k1 = g.slot(vec![0.0f32; n]);
    let k2 = g.slot(vec![0.0f32; n]);
    let k3 = g.slot(vec![0.0f32; n]);
    let k4 = g.slot(vec![0.0f32; n]);
    let yt = g.slot(vec![0.0f32; n]);
    let err = g.slot_sized(0.0f32, 4);

    let args = |coeff: f32| OdeArgs { n, coeff, edge };
    let fcost = feval_cost(n as f64);
    let acost = axpy_cost(n as f64);
    for parity in 0..2usize {
        // Derivative evaluations: k1 from y, k2..k4 from the stage buffer.
        for (kout, stage_coeff) in [(k1, h / 2.0), (k2, h / 2.0), (k3, h)] {
            let src = if kout == k1 { y } else { yt };
            g.add(
                GraphTask::new(&feval)
                    .access(src, AccessMode::Read)
                    .access(kout, AccessMode::Write)
                    .arg(args(0.0))
                    .cost(fcost),
            );
            g.add(
                GraphTask::new(&stage)
                    .access(y, AccessMode::Read)
                    .access(kout, AccessMode::Read)
                    .access(yt, AccessMode::Write)
                    .arg(args(stage_coeff))
                    .cost(acost),
            );
        }
        g.add(
            GraphTask::new(&feval)
                .access(yt, AccessMode::Read)
                .access(k4, AccessMode::Write)
                .arg(args(0.0))
                .cost(fcost),
        );
        g.add(
            GraphTask::new(&combine)
                .access(y, AccessMode::ReadWrite)
                .access(k1, AccessMode::Read)
                .access(k2, AccessMode::Read)
                .access(k3, AccessMode::Read)
                .access(k4, AccessMode::Read)
                .arg(args(h / 6.0))
                .cost(acost.scaled(2.5)),
        );
        if parity == 0 {
            g.add(
                GraphTask::new(&norm)
                    .access(k1, AccessMode::Read)
                    .access(k4, AccessMode::Read)
                    .access(err, AccessMode::Write)
                    .arg(args(0.0))
                    .cost(acost),
            );
        } else {
            g.add(
                GraphTask::new(&scale)
                    .access(k4, AccessMode::ReadWrite)
                    .arg(args(1.0))
                    .cost(acost),
            );
        }
    }
    OdeGraph { graph: g, y, err }
}

/// [`run_direct`]'s integration through graph replay: record the double
/// step once, bind the initial condition, execute `steps / 2` iterations.
/// `steps` must be even (the recorded unit covers two).
pub fn run_replay(rt: &Runtime, edge: usize, steps: usize, gpu_only: bool) -> Vec<f32> {
    assert!(
        steps.is_multiple_of(2),
        "run_replay records a double step; steps must be even"
    );
    let rec = record_double_step(edge, gpu_only);
    let inst = rec.graph.instantiate(rt);
    let n = 2 * edge * edge;
    let mut y0 = vec![0.0f32; n];
    init_kernel(&mut y0, edge);
    inst.bind(rec.y, y0);
    if steps > 0 {
        inst.execute_many((steps / 2) as u32);
    }
    inst.read::<Vec<f32>>(rec.y)
}

/// Fig. 6 entry point (`size` = grid edge; short integration).
pub fn run_for_fig6(rt: &Runtime, size: usize, backend: Option<&str>) -> VTime {
    // Fig. 6 calls this "libsolve"; the omp backend maps to cpu (the
    // solver's vector ops are memory-bound, libsolve runs them serially
    // per invocation).
    let force = backend.map(|b| if b == "omp" { "cpu" } else { b });
    run_peppherized(rt, size.min(120), 20, force);
    rt.stats().makespan
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppher_runtime::SchedulerKind;
    use peppher_sim::MachineConfig;

    #[test]
    fn dropped_graph_instance_returns_its_bytes() {
        // `run_replay` executes the instance 6 times, reads it and drops it
        // without unregistering its slots: the handles give their bytes
        // back as they drop.
        let rt = Runtime::new(MachineConfig::c2050_platform(1), SchedulerKind::Dmda);
        run_replay(&rt, 6, 12, false);
        // Joining the workers drops their last references to the tasks.
        rt.shutdown();
        assert_eq!(rt.memory().used_bytes(), vec![0, 0]);
        rt.memory().validate().unwrap();
    }

    #[test]
    fn paper_invocation_count_is_exact() {
        assert_eq!(9 * PAPER_STEPS + 2, PAPER_INVOCATIONS);
    }

    #[test]
    fn rk4_converges_on_brusselator() {
        // The solution must stay finite and move from the initial state.
        let edge = 12;
        let y = reference(edge, 50, 1e-3);
        assert!(y.iter().all(|v| v.is_finite()));
        let mut init = vec![0.0f32; y.len()];
        init_kernel(&mut init, edge);
        let moved: f32 = y.iter().zip(&init).map(|(a, b)| (a - b).abs()).sum();
        assert!(moved > 1e-3, "solution evolved");
    }

    #[test]
    fn rk4_order_sanity() {
        // Halving h should change the answer very little (4th order).
        let edge = 8;
        let coarse = reference(edge, 10, 2e-3);
        let fine = reference(edge, 20, 1e-3);
        let diff: f32 = coarse
            .iter()
            .zip(&fine)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff < 1e-4, "RK4 step-halving diff {diff}");
    }

    #[test]
    fn peppherized_matches_reference_and_counts_invocations() {
        let rt = Runtime::new(
            MachineConfig::c2050_platform(2).without_noise(),
            SchedulerKind::Dmda,
        );
        let (got, invocations) = run_peppherized(&rt, 10, 6, None);
        let want = reference(10, 6, 1e-4);
        assert_eq!(invocations, 9 * 6 + 2);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn direct_matches_reference() {
        let rt = Runtime::new(
            MachineConfig::c2050_platform(2).without_noise(),
            SchedulerKind::Eager,
        );
        let got = run_direct(&rt, 10, 6, false);
        let want = reference(10, 6, 1e-4);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4);
        }
    }

    #[test]
    fn replay_matches_direct_bitwise() {
        let machine = MachineConfig::c2050_platform(2).without_noise();
        let rt = Runtime::new(machine.clone(), SchedulerKind::Dmda);
        let got = run_replay(&rt, 10, 6, false);
        let rt2 = Runtime::new(machine, SchedulerKind::Dmda);
        let want = run_direct(&rt2, 10, 6, false);
        let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, want_bits, "replay diverged from direct path");
    }

    #[test]
    fn replay_survives_many_iterations_and_rebinds() {
        let rt = Runtime::new(
            MachineConfig::c2050_platform(1).without_noise(),
            SchedulerKind::Dmda,
        );
        let rec = record_double_step(8, false);
        let inst = rec.graph.instantiate(&rt);
        let n = 2 * 8 * 8;
        let mut y0 = vec![0.0f32; n];
        init_kernel(&mut y0, 8);
        // Two rounds with a rebind between: each must match a fresh
        // reference integration from the bound state.
        inst.bind(rec.y, y0.clone());
        inst.execute_many(3);
        let first: Vec<f32> = inst.read(rec.y);
        assert_eq!(inst.runs().len(), 3);
        inst.bind(rec.y, y0);
        inst.execute_many(3);
        let second: Vec<f32> = inst.read(rec.y);
        assert_eq!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "rebinding must fully reset the state"
        );
        let want = reference(8, 6, 1e-4);
        for (g, w) in first.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4, "{g} vs {w}");
        }
    }

    #[test]
    fn gpu_only_direct_matches_too() {
        let rt = Runtime::new(
            MachineConfig::c2050_platform(1).without_noise(),
            SchedulerKind::Eager,
        );
        let got = run_direct(&rt, 8, 4, true);
        let want = reference(8, 4, 1e-4);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-4);
        }
        // Everything ran on the GPU worker.
        assert_eq!(rt.stats().tasks_per_worker[0], 0);
    }
}
