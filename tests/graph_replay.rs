//! Graph replay vs naive resubmission: the replayed ODE step loop must be
//! bit-for-bit the trajectory the ordinary task API computes, under every
//! scheduling policy, and rebinding operands between replays must never
//! leave stale device replicas behind.

mod support;

use peppher::apps::odesolver;
use peppher::runtime::{
    AccessMode, Arch, Codelet, GraphTask, Runtime, RuntimeConfig, SchedulerKind, TaskGraph,
};
use peppher::sim::MachineConfig;
use proptest::prelude::*;
use std::sync::Arc;
use support::ALL_SCHEDULERS;

fn runtime(kind: SchedulerKind) -> Runtime {
    Runtime::with_config(
        MachineConfig::c2050_platform(2).without_noise(),
        RuntimeConfig {
            scheduler: kind,
            ..RuntimeConfig::default()
        },
    )
}

/// The replayed double-step loop equals naive resubmission bitwise, for
/// all three policies (kernels are deterministic; only the driving
/// mechanism differs).
#[test]
fn replay_matches_naive_resubmission_for_every_policy() {
    for kind in ALL_SCHEDULERS {
        let rt = runtime(kind);
        let replayed = odesolver::run_replay(&rt, 8, 6, false);
        rt.shutdown();

        let rt = runtime(kind);
        let naive = odesolver::run_direct(&rt, 8, 6, false);
        rt.shutdown();

        assert_eq!(replayed.len(), naive.len());
        for (i, (a, b)) in replayed.iter().zip(&naive).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{kind:?}: element {i} diverged ({a} vs {b})"
            );
        }
    }
}

/// Replay keeps working past the placement freeze and across rebinds —
/// a long `execute_many` equals the same number of single `execute`s.
#[test]
fn long_replay_equals_chained_singles() {
    let rt = runtime(SchedulerKind::Dmda);
    let many = odesolver::run_replay(&rt, 6, 24, false);
    rt.shutdown();

    let rt = runtime(SchedulerKind::Dmda);
    let g = odesolver::record_double_step(6, false);
    let inst = g.graph.instantiate(&rt);
    let mut y0 = vec![0.0f32; 2 * 6 * 6];
    odesolver::init_kernel(&mut y0, 6);
    inst.bind(g.y, y0);
    for _ in 0..12 {
        inst.execute();
    }
    let singles: Vec<f32> = inst.read(g.y);
    rt.shutdown();

    assert!(
        many.iter()
            .zip(&singles)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "execute_many(12) and 12 x execute() diverged"
    );
}

/// A tiny two-task graph for the rebinding proptest: out = 2*y + 1,
/// elementwise, via an intermediate slot.
fn scale_shift_graph(
    len: usize,
) -> (
    TaskGraph,
    peppher::runtime::GraphSlot,
    peppher::runtime::GraphSlot,
) {
    let scale = Arc::new(
        Codelet::new("prop_scale")
            .with_impl(Arch::Cpu, |ctx| {
                let y = ctx.r::<Vec<f32>>(0).clone();
                let t = ctx.w::<Vec<f32>>(1);
                for (d, s) in t.iter_mut().zip(&y) {
                    *d = 2.0 * s;
                }
            })
            .with_impl(Arch::Gpu, |ctx| {
                let y = ctx.r::<Vec<f32>>(0).clone();
                let t = ctx.w::<Vec<f32>>(1);
                for (d, s) in t.iter_mut().zip(&y) {
                    *d = 2.0 * s;
                }
            }),
    );
    let shift = Arc::new(
        Codelet::new("prop_shift")
            .with_impl(Arch::Cpu, |ctx| {
                let t = ctx.r::<Vec<f32>>(0).clone();
                let o = ctx.w::<Vec<f32>>(1);
                for (d, s) in o.iter_mut().zip(&t) {
                    *d = s + 1.0;
                }
            })
            .with_impl(Arch::Gpu, |ctx| {
                let t = ctx.r::<Vec<f32>>(0).clone();
                let o = ctx.w::<Vec<f32>>(1);
                for (d, s) in o.iter_mut().zip(&t) {
                    *d = s + 1.0;
                }
            }),
    );
    let mut g = TaskGraph::new();
    let y = g.slot(vec![0.0f32; len]);
    let tmp = g.slot(vec![0.0f32; len]);
    let out = g.slot(vec![0.0f32; len]);
    g.add(
        GraphTask::new(&scale)
            .access(y, AccessMode::Read)
            .access(tmp, AccessMode::Write),
    );
    g.add(
        GraphTask::new(&shift)
            .access(tmp, AccessMode::Read)
            .access(out, AccessMode::Write),
    );
    (g, y, out)
}

#[derive(Debug, Clone)]
enum Op {
    /// Rebind the input slot to fresh values (seeded).
    Bind(u64),
    /// Replay the graph this many times.
    Execute(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u64>().prop_map(Op::Bind),
        (1u32..4).prop_map(Op::Execute),
    ]
}

fn values_for(seed: u64, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9)) % 1000) as f32 * 0.25)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of rebinds and replays matches a host-side shadow
    /// computation, and a rebind always leaves the slot valid on the host
    /// node only — device replicas of the old contents must be dropped,
    /// never read back by a later replay.
    #[test]
    fn rebinding_never_leaks_stale_replicas(ops in prop::collection::vec(op_strategy(), 1..12)) {
        const LEN: usize = 16;
        let rt = runtime(SchedulerKind::Dmda);
        let (g, y, out) = scale_shift_graph(LEN);
        let inst = g.instantiate(&rt);

        let mut shadow_y = vec![0.0f32; LEN];
        for op in &ops {
            match op {
                Op::Bind(seed) => {
                    let vals = values_for(*seed, LEN);
                    inst.bind(y, vals.clone());
                    shadow_y = vals;
                    let h = inst.handle(y);
                    prop_assert!(h.valid_on(0), "host copy must be valid after bind");
                    prop_assert_eq!(
                        h.valid_nodes(),
                        vec![0],
                        "bind left a stale device replica"
                    );
                }
                Op::Execute(n) => {
                    inst.execute_many(*n);
                }
            }
        }
        // One final replay, then compare against the shadow.
        inst.execute();
        let got: Vec<f32> = inst.read(out);
        let want: Vec<f32> = shadow_y.iter().map(|v| 2.0 * v + 1.0).collect();
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                a.to_bits(), b.to_bits(),
                "element {} diverged: {} vs {}", i, a, b
            );
        }
        rt.shutdown();
    }
}
