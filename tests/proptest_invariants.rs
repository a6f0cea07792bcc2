//! Cross-crate property tests on the invariants DESIGN.md calls out:
//! MSI coherence, dispatch-table/decision-tree equivalence,
//! partition/gather round-trips, and C-declaration parsing robustness.

use peppher::containers::Vector;
use peppher::core::{Component, DecisionTree, DispatchTable, TrainingSample, VariantBuilder};
use peppher::descriptor::{AccessType, CDeclaration, InterfaceDescriptor, ParamDecl};
use peppher::runtime::{ReplicaStatus, Runtime, SchedulerKind};
use peppher::sim::MachineConfig;
use proptest::prelude::*;
use std::sync::Arc;

/// One random access step in the coherence program.
#[derive(Debug, Clone)]
enum Access {
    /// Component call on the GPU with the given mode (0=R, 1=W, 2=RW).
    Gpu(u8),
    /// Component call on a CPU worker.
    Cpu(u8),
    /// Host read.
    HostRead,
    /// Host write.
    HostWrite,
    /// Capacity-manager eviction sweep of the GPU's memory node — injects
    /// the same replica surgery an out-of-memory condition would.
    Evict,
}

fn access_strategy() -> impl Strategy<Value = Access> {
    prop_oneof![
        (0u8..3).prop_map(Access::Gpu),
        (0u8..3).prop_map(Access::Cpu),
        Just(Access::HostRead),
        Just(Access::HostWrite),
        Just(Access::Evict),
    ]
}

fn mode_component(name: &str, mode: u8) -> Arc<Component> {
    let access = match mode {
        0 => AccessType::Read,
        1 => AccessType::Write,
        _ => AccessType::ReadWrite,
    };
    let mut iface = InterfaceDescriptor::new(name);
    iface.params = vec![ParamDecl {
        name: "v".into(),
        ctype: "long*".into(),
        access,
    }];
    let body = move |ctx: &mut peppher::runtime::KernelCtx<'_>| match access {
        AccessType::Read => {
            let _ = ctx.r::<Vec<i64>>(0)[0];
        }
        AccessType::Write => {
            // Write-only: previous contents are undefined, so the kernel
            // (re)writes the whole buffer.
            let v = ctx.w::<Vec<i64>>(0);
            v.fill(0);
            v[0] = 7777;
        }
        AccessType::ReadWrite => {
            ctx.w::<Vec<i64>>(0)[0] += 1;
        }
    };
    Component::builder(iface)
        .variant(
            VariantBuilder::new(format!("{name}_cpu"), "cpp")
                .kernel(body)
                .build(),
        )
        .variant(
            VariantBuilder::new(format!("{name}_cuda"), "cuda")
                .kernel(body)
                .build(),
        )
        .build()
}

/// The MSI invariants after every step of an arbitrary access program:
/// 1. at least one replica is valid,
/// 2. a Modified replica is unique and all others are Invalid.
fn check_msi(statuses: &[ReplicaStatus]) -> Result<(), String> {
    let valid = statuses
        .iter()
        .filter(|s| **s != ReplicaStatus::Invalid)
        .count();
    if valid == 0 {
        return Err(format!("no valid replica: {statuses:?}"));
    }
    let modified = statuses
        .iter()
        .filter(|s| **s == ReplicaStatus::Modified)
        .count();
    if modified > 1 {
        return Err(format!("{modified} Modified replicas: {statuses:?}"));
    }
    if modified == 1 && valid != 1 {
        return Err(format!("Modified coexists with Shared: {statuses:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn msi_invariants_hold_under_random_access_programs(
        ops in proptest::collection::vec(access_strategy(), 1..20)
    ) {
        let rt = Runtime::new(
            MachineConfig::c2050_platform(2).without_noise(),
            SchedulerKind::Eager,
        );
        let comps: Vec<Arc<Component>> = (0..3u8)
            .map(|m| mode_component(&format!("acc{m}"), m))
            .collect();
        let v = Vector::register(&rt, vec![0i64; 128]);
        // Shadow model executed with the exact same op semantics.
        let mut expected = vec![0i64; 128];
        for op in &ops {
            match op {
                Access::Gpu(m) | Access::Cpu(m) => {
                    let worker = if matches!(op, Access::Gpu(_)) { 2 } else { 0 };
                    comps[*m as usize]
                        .call()
                        .operand(v.handle())
                        .on_worker(worker)
                        .sync()
                        .submit(&rt);
                    match m {
                        0 => {}
                        1 => {
                            expected.fill(0);
                            expected[0] = 7777;
                        }
                        _ => expected[0] += 1,
                    }
                }
                Access::HostRead => {
                    prop_assert_eq!(v.get(0), expected[0], "host read sees the model");
                }
                Access::HostWrite => {
                    v.set(1, expected[1] + 1);
                    expected[1] += 1;
                }
                Access::Evict => {
                    // Must preserve the data (writing Modified replicas
                    // back) and every MSI invariant, at any program point.
                    rt.reclaim_node(1);
                }
            }
            prop_assert!(
                check_msi(&v.handle().replica_statuses()).is_ok(),
                "after {op:?}: {:?}",
                v.handle().replica_statuses()
            );
            // Nothing is in flight between synchronous steps, so the books
            // must balance: every sum matches its replicas, every valid
            // replica has a buffer and every device buffer is accounted.
            let books = rt.memory().validate();
            prop_assert!(books.is_ok(), "after {op:?}: {books:?}");
        }
        prop_assert_eq!(v.into_vec(), expected);
        rt.shutdown();
    }

    #[test]
    fn dispatch_table_and_tree_agree_everywhere(
        mut crossovers in proptest::collection::vec(1.0f64..1e6, 1..4),
        queries in proptest::collection::vec(0.5f64..2e6, 20)
    ) {
        crossovers.sort_by(f64::total_cmp);
        crossovers.dedup_by(|a, b| (*a - *b).abs() < 1.0);
        // Build samples: winner alternates across crossover points.
        let mut samples: Vec<(f64, String)> = Vec::new();
        let mut grid = vec![0.6f64];
        grid.extend(crossovers.iter().flat_map(|&c| [c * 0.99, c * 1.01]));
        grid.push(1.9e6);
        for (i, &g) in grid.iter().enumerate() {
            let region = crossovers.iter().filter(|&&c| g > c).count();
            let _ = i;
            samples.push((g, format!("variant{}", region % 2)));
        }
        let table = DispatchTable::from_samples("n", &samples);
        let tree_samples: Vec<TrainingSample> = samples
            .iter()
            .map(|(v, w)| TrainingSample { features: vec![*v], best: w.clone() })
            .collect();
        let tree = DecisionTree::fit(&tree_samples, 10);
        // Equivalence on the training grid...
        for (v, w) in &samples {
            prop_assert_eq!(table.lookup(*v), w.as_str());
            prop_assert_eq!(tree.predict(&[*v]), w.as_str());
        }
        // ...and mutual agreement except inside ambiguous boundary gaps.
        for &q in &queries {
            let near_boundary = crossovers.iter().any(|&c| (q / c - 1.0).abs() < 0.02);
            if !near_boundary {
                prop_assert_eq!(table.lookup(q), tree.predict(&[q]), "at {}", q);
            }
        }
    }

    #[test]
    fn partition_gather_roundtrip(
        data in proptest::collection::vec(any::<i32>(), 1..200),
        nblocks in 1usize..12
    ) {
        let rt = Runtime::new(MachineConfig::cpu_only(2), SchedulerKind::Eager);
        let v = Vector::register(&rt, data.clone());
        let parts = v.partition(nblocks);
        prop_assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), data.len());
        // Block sizes differ by at most one.
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(mx - mn <= 1, "unbalanced: {sizes:?}");
        let out = Vector::register(&rt, vec![0i32; data.len()]);
        out.gather(&parts);
        prop_assert_eq!(out.into_vec(), data);
        rt.shutdown();
    }

    #[test]
    fn cdecl_parser_never_panics(s in "[\\PC]{0,80}") {
        let _ = CDeclaration::parse(&s);
    }

    #[test]
    fn cdecl_roundtrips_wellformed_decls(
        names in proptest::collection::vec("[a-z][a-z0-9_]{0,8}", 1..6),
        consts in proptest::collection::vec(any::<bool>(), 6),
        ptrs in proptest::collection::vec(any::<bool>(), 6)
    ) {
        // Build a declaration from the generated params and re-parse it.
        let mut params: Vec<String> = Vec::new();
        let mut unique = names.clone();
        unique.dedup();
        for (i, name) in unique.iter().enumerate() {
            let c = if consts[i % consts.len()] { "const " } else { "" };
            let p = if ptrs[i % ptrs.len()] { "*" } else { "" };
            params.push(format!("{c}float{p} {name}_{i}"));
        }
        let decl = format!("void f({});", params.join(", "));
        let parsed = CDeclaration::parse(&decl).unwrap();
        prop_assert_eq!(parsed.params.len(), unique.len());
        for (i, p) in parsed.params.iter().enumerate() {
            let is_const = consts[i % consts.len()];
            let is_ptr = ptrs[i % ptrs.len()];
            prop_assert_eq!(p.is_pointer, is_ptr);
            let expect_read = is_const || !is_ptr;
            prop_assert_eq!(
                p.suggested_access == AccessType::Read,
                expect_read,
                "param {} ({})", i, p.ctype
            );
        }
    }
}
