//! Counting-allocator probes for the per-task hot path: once warmed, the
//! interned `PerfKey` pipeline and the disabled-trace gate must perform
//! **zero** heap allocations, and submission allocates little beyond the
//! tasks themselves.
//!
//! The probe counts allocations made by *this* thread only (worker threads
//! have their own counters that are never read), so a parked runtime in
//! the background cannot pollute a measurement.

use peppher_runtime::stats::StatsCollector;
use peppher_runtime::{
    AccessMode, Arch, ArchClass, ArchClassId, Codelet, JobConfig, PerfKey, PerfRegistry, Runtime,
    SchedulerKind, Sym, TaskBuilder,
};
use peppher_sim::{MachineConfig, VTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// `try_with` instead of `with`: the allocator runs during thread teardown
// when the thread-local may already be destroyed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static PROBE: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

#[test]
fn warmed_perf_key_path_does_not_allocate() {
    let codelet = Codelet::new("alloc-probe-kernel").with_impl(Arch::Cpu, |_| {});
    let reg = PerfRegistry::new(1);
    let arch = ArchClassId::from_class(&ArchClass::Cpu);
    // Warm: first record creates the history entry (allowed to allocate).
    reg.record(
        PerfKey::for_codelet(codelet.id, arch, 4096),
        VTime::from_nanos(500),
    );
    let n = allocs_during(|| {
        for i in 0..1_000u64 {
            let key = PerfKey::for_codelet(codelet.id, arch, 4096 + (i % 7));
            reg.record(key, VTime::from_nanos(500 + i));
            let _ = reg.expected(&key);
        }
    });
    assert_eq!(n, 0, "warmed PerfKey record/lookup must be allocation-free");
}

#[test]
fn warmed_intern_lookup_does_not_allocate() {
    let id = Sym::intern("alloc-probe-name");
    let n = allocs_during(|| {
        for _ in 0..1_000 {
            assert_eq!(Sym::intern("alloc-probe-name"), id);
            assert_eq!(id.as_str(), "alloc-probe-name");
        }
    });
    assert_eq!(n, 0, "re-interning a known name must be allocation-free");
}

#[test]
fn disabled_trace_gate_does_not_allocate() {
    // Default collector has tracing off — the exact gate worker.rs uses.
    let stats = StatsCollector::default();
    let codelet_name = String::from("alloc-probe-trace");
    let n = allocs_during(|| {
        for task in 0..1_000u64 {
            if stats.tracing_enabled() {
                // Unreachable with tracing off: the event (and its String
                // clone) must never be built.
                let _ = peppher_runtime::TraceEvent::TaskStart {
                    task,
                    codelet: codelet_name.clone(),
                    worker: 0,
                    run: None,
                    job: 0,
                };
                unreachable!("tracing is disabled");
            }
        }
    });
    assert_eq!(n, 0, "disabled tracing must cost zero allocations per task");
}

fn dmda_runtime() -> Runtime {
    Runtime::new(
        MachineConfig::cpu_only(2).without_noise(),
        SchedulerKind::Dmda,
    )
}

/// A warmed single submit of a one-operand task allocates the task and at
/// most two growths of the dependency lists it joins (the predecessor's
/// successors, the handle's readers), builder excluded.
#[test]
fn warmed_single_submit_allocates_at_most_three_times() {
    let rt = dmda_runtime();
    let c = Arc::new(Codelet::new("alloc-probe-submit").with_impl(Arch::Cpu, |_| {}));
    let job = rt.job(JobConfig::default());
    let h = job.register(0u64);
    let submit = |mode| {
        let b = TaskBuilder::new(&c).access(&h, mode);
        allocs_during(|| {
            job.submit(b);
        })
    };
    for _ in 0..256 {
        submit(AccessMode::ReadWrite);
        submit(AccessMode::Read);
    }
    job.wait();
    let worst = (0..256)
        .flat_map(|_| [submit(AccessMode::ReadWrite), submit(AccessMode::Read)])
        .max();
    job.wait();
    assert!(
        worst <= Some(3),
        "a warmed single submit made {worst:?} allocations (at most 3)"
    );
    let _: u64 = rt.unregister(h);
}

/// A warmed 64-task batch of independent tasks allocates at most two
/// blocks per task, builders excluded.
#[test]
fn warmed_batch_of_64_allocates_at_most_128_times() {
    let rt = dmda_runtime();
    let c = Arc::new(Codelet::new("alloc-probe-batch").with_impl(Arch::Cpu, |_| {}));
    let job = rt.job(JobConfig::default());
    let batch = || {
        (0..64u64)
            .map(|i| TaskBuilder::new(&c).arg(i))
            .collect::<Vec<_>>()
    };
    let submit = |b: Vec<TaskBuilder>| {
        allocs_during(|| {
            job.submit_batch(b);
        })
    };
    for _ in 0..16 {
        submit(batch());
    }
    job.wait();
    let worst = (0..16).map(|_| submit(batch())).max();
    job.wait();
    assert!(
        worst <= Some(128),
        "a warmed 64-task batch made {worst:?} allocations (at most 128)"
    );
}
