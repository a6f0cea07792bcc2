//! Memory-node capacity management end to end: ample budgets leave the
//! paper's transfer counts untouched, and oversubscribed budgets force the
//! runtime out of core — evicting LRU replicas, writing Modified victims
//! back before invalidation, and still producing bitwise-correct results.

use peppher::apps::spmv;
use peppher::containers::Vector;
use peppher::core::{Component, VariantBuilder};
use peppher::descriptor::{AccessType, InterfaceDescriptor, ParamDecl};
use peppher::runtime::{Runtime, RuntimeConfig, SchedulerKind, TraceEvent};
use peppher::sim::MachineConfig;
use std::sync::Arc;

fn component(
    name: &str,
    access: AccessType,
    body: fn(&mut peppher::runtime::KernelCtx<'_>),
) -> Arc<Component> {
    let mut iface = InterfaceDescriptor::new(name);
    iface.params = vec![ParamDecl {
        name: "v".into(),
        ctype: "float*".into(),
        access,
    }];
    Component::builder(iface)
        .variant(
            VariantBuilder::new(format!("{name}_cuda"), "cuda")
                .kernel(body)
                .build(),
        )
        .build()
}

/// The Fig. 3 access sequence under a budget that is tight (a few vector
/// replicas) but sufficient: the capacity manager must stay entirely out
/// of the way — still exactly 2 copies, both device-to-host, no eviction.
#[test]
fn fig3_transfer_count_unchanged_with_ample_budget() {
    let mut machine = MachineConfig::c2050_platform(1).without_noise();
    machine.cpu_workers = 1;
    let vector_bytes = 4096 * 4;
    let rt = Runtime::with_config(
        machine.with_device_mem(4 * vector_bytes as u64),
        RuntimeConfig {
            scheduler: SchedulerKind::Eager,
            enable_trace: true,
            ..RuntimeConfig::default()
        },
    );

    let comp1 = component("comp1", AccessType::Write, |ctx| {
        ctx.w::<Vec<f32>>(0).fill(1.0);
    });
    let comp2 = component("comp2", AccessType::ReadWrite, |ctx| {
        for x in ctx.w::<Vec<f32>>(0).iter_mut() {
            *x += 1.0;
        }
    });
    let read_body: fn(&mut peppher::runtime::KernelCtx<'_>) = |ctx| {
        let _ = ctx.r::<Vec<f32>>(0);
    };
    let comp3 = component("comp3", AccessType::Read, read_body);
    let comp4 = component("comp4", AccessType::Read, read_body);

    let v0 = Vector::register(&rt, vec![0.0f32; 4096]);
    comp1.call().operand(v0.handle()).submit(&rt).wait();
    assert_eq!(v0.get(7), 1.0);
    comp2.call().operand(v0.handle()).submit(&rt);
    comp3.call().operand(v0.handle()).submit(&rt);
    comp4.call().operand(v0.handle()).submit(&rt);
    v0.set(0, 42.0);

    let stats = rt.stats();
    assert_eq!(
        stats.total_transfers(),
        2,
        "Fig. 3 still needs exactly 2 copies"
    );
    assert_eq!(stats.evictions, 0, "an ample budget must never evict");
    assert_eq!(stats.writeback_bytes, 0);
    assert!(
        stats.mem_high_water[1] <= 4 * vector_bytes as u64,
        "high water {} exceeds the budget",
        stats.mem_high_water[1]
    );
    rt.shutdown();
}

/// Small-scale out-of-core SpMV: the working set is ~4x the GPU budget and
/// every row block is forced onto the CUDA variant. The run must evict,
/// must write Modified victims back *before* invalidating them (checked on
/// the trace), and must still match the sequential reference bitwise.
#[test]
fn out_of_core_spmv_is_bitwise_correct_and_evicts() {
    let m = spmv::banded_matrix(2_048, 16, 7);
    let x = vec![1.0f32; m.cols];
    let working_set = (m.bytes() + (x.len() + m.rows) * 4) as u64;
    let rt = Runtime::with_config(
        MachineConfig::c2050_platform(2)
            .without_noise()
            .with_device_mem(working_set / 4),
        RuntimeConfig {
            scheduler: SchedulerKind::Dmda,
            enable_trace: true,
            ..RuntimeConfig::default()
        },
    );
    let y = spmv::run_hybrid_ex(&rt, &m, &x, 16, Some("spmv_cuda"));
    let stats = rt.stats();
    let trace = rt.trace();
    rt.shutdown();

    let reference = spmv::reference(&m, &x);
    assert_eq!(y.len(), reference.len());
    assert!(
        y.iter()
            .zip(&reference)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "out-of-core result diverged from the sequential reference"
    );
    assert!(stats.evictions > 0, "4x oversubscription must evict");
    assert!(
        stats.writeback_bytes > 0,
        "Modified victims must be written back"
    );

    // Every writeback eviction is preceded by its own device-to-host
    // transfer: data leaves the node before the replica is invalidated.
    for (i, e) in trace.iter().enumerate() {
        if let TraceEvent::Evict {
            handle,
            node,
            writeback: true,
            ..
        } = e
        {
            let written_back = trace[..i].iter().any(|t| {
                matches!(t, TraceEvent::Transfer { handle: h, from, to: 0, .. }
                    if h == handle && from == node)
            });
            assert!(
                written_back,
                "Evict of handle {handle} on node {node} has no prior writeback transfer"
            );
        }
    }
}

/// Eviction-aware prefetch end to end: on a device holding a Modified
/// replica A and with room for nothing else, bringing in B must not skip
/// the transfer — it evicts A (writing it back first), recycles A's buffer
/// through the allocation cache, and only then moves B in. The trace
/// pins down the ordering; the capacity manager's dead-replica discount
/// shows the scheduler the post-prefetch occupancy.
#[test]
fn prefetch_into_space_about_to_free_up() {
    use peppher::runtime::AccessMode;

    let mut machine = MachineConfig::c2050_platform(1).without_noise();
    machine.cpu_workers = 1;
    // Budget fits one 4 KiB vector (plus slack), never two.
    let rt = Runtime::with_config(
        machine.with_device_mem(5 * 1024),
        RuntimeConfig {
            scheduler: SchedulerKind::Dmda,
            enable_trace: true,
            ..RuntimeConfig::default()
        },
    );

    let writer = component("writer", AccessType::Write, |ctx| {
        ctx.w::<Vec<f32>>(0).fill(3.0);
    });
    let reader = component("reader", AccessType::Read, |ctx| {
        let _ = ctx.r::<Vec<f32>>(0);
    });

    // A becomes Modified on the device (sole valid copy).
    let a = Vector::register(&rt, vec![0.0f32; 1024]);
    writer.call().operand(a.handle()).sync().submit(&rt);
    assert!(rt.memory().is_resident(1, a.handle().id()));

    // Reading B on the device needs A's space: the fetch must go ahead
    // anyway, with A's writeback ordered before B's host-to-device copy.
    let b = Vector::register(&rt, vec![2.0f32; 1024]);
    reader.call().operand(b.handle()).sync().submit(&rt);

    let stats = rt.stats();
    let trace = rt.trace();
    assert!(stats.evictions >= 1, "B displaces A");
    assert!(
        stats.writeback_bytes >= 4096,
        "Modified A written back, got {}",
        stats.writeback_bytes
    );
    let a_writeback = trace
        .iter()
        .position(|e| {
            matches!(e, TraceEvent::Transfer { handle, from: 1, to: 0, .. }
                if *handle == a.handle().id())
        })
        .expect("A written back to host");
    let b_fetch = trace
        .iter()
        .position(|e| {
            matches!(e, TraceEvent::Transfer { handle, from: 0, to: 1, .. }
                if *handle == b.handle().id())
        })
        .expect("B transferred to device");
    assert!(
        a_writeback < b_fetch,
        "victim writeback (event {a_writeback}) must precede the incoming \
         transfer (event {b_fetch})"
    );
    // A's evicted buffer was recycled for B's allocation.
    assert!(stats.alloc_cache_hits >= 1, "{stats:?}");
    assert!(trace.iter().any(|e| {
        matches!(e, TraceEvent::Reuse { handle, node: 1, .. } if *handle == b.handle().id())
    }));
    assert_eq!(a.get(5), 3.0, "writeback preserved A's values");

    // The scheduler's eviction-cost term prices post-prefetch occupancy:
    // a fresh 4 KiB operand overflows while B is live, but not once B is
    // hinted dead.
    let c = Vector::register(&rt, vec![0.0f32; 1024]);
    let accesses = vec![(c.handle().clone(), AccessMode::Read)];
    assert_eq!(rt.memory().pressure_overflow(1, &accesses), 3 * 1024);
    b.wont_use();
    assert_eq!(rt.memory().pressure_overflow(1, &accesses), 0);
    rt.shutdown();
}
