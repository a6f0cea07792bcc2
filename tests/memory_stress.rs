//! Deterministic memory stress seeds under the default `dmda` scheduler.
//! The harness itself lives in `tests/support/mod.rs` (shared with the
//! scheduler-parity suite, which replays these graphs under every policy).
//!
//! The small seeds run in the normal test pass; the `#[ignore]` seeds are
//! the release-mode CI job (`cargo test --release -- --ignored`).

mod support;

use peppher::runtime::{EvictionPolicy, SchedulerKind};
use peppher::sim::MachineConfig;
use support::{check, check_on};

fn check_dmda(seed: u64, ntasks: usize, policy: EvictionPolicy) -> u64 {
    check(seed, ntasks, policy, SchedulerKind::Dmda)
}

/// Same graphs on a 3-GPU platform with a peer link: device-to-device
/// migrations take the direct P2P route instead of staging through the
/// host, under the same budget/eviction churn.
fn check_dmda_p2p(seed: u64, ntasks: usize, policy: EvictionPolicy) {
    check_on(
        MachineConfig::c2050_platform_p2p(2, 3),
        seed,
        ntasks,
        policy,
        SchedulerKind::Dmda,
    );
}

/// Every seed runs under both eviction policies: plain LRU, and
/// partition-aware (family) eviction, where handles are grouped into block
/// families, victims leave family-at-a-time, and the burst prefetcher pulls
/// siblings together — bitwise results and the budget high-water must hold
/// under either.
fn check_both(seed: u64, ntasks: usize) {
    check_dmda(seed, ntasks, EvictionPolicy::Lru);
    check_dmda(seed, ntasks, EvictionPolicy::Family);
}

#[test]
fn stress_seed_7_both_policies() {
    check_both(7, 60);
}

#[test]
fn stress_seed_11_both_policies() {
    check_both(11, 60);
}

/// Determinism of the harness itself: the same seed must build the same
/// shadow and pass twice (guards against accidental nondeterminism in the
/// generator, which would make CI failures unreproducible).
#[test]
fn stress_harness_is_deterministic() {
    let first = check_dmda(7, 40, EvictionPolicy::Lru);
    let second = check_dmda(7, 40, EvictionPolicy::Lru);
    assert_eq!(first, second, "seed 7 built two different shadows");
}

#[test]
fn stress_seed_17_p2p_three_devices() {
    check_dmda_p2p(17, 60, EvictionPolicy::Lru);
}

#[test]
fn stress_seed_17_p2p_family_policy() {
    check_dmda_p2p(17, 60, EvictionPolicy::Family);
}

// The release-mode CI seeds: `cargo test --release -- --ignored`.

#[test]
#[ignore]
fn stress_release_seed_1001() {
    check_both(1001, 300);
}

#[test]
#[ignore]
fn stress_release_seed_2002() {
    check_both(2002, 300);
}

#[test]
#[ignore]
fn stress_release_seed_3003() {
    check_dmda(3003, 300, EvictionPolicy::Lru);
}

#[test]
#[ignore]
fn stress_release_seed_4004_p2p_three_devices() {
    check_dmda_p2p(4004, 300, EvictionPolicy::Lru);
    check_dmda_p2p(4004, 300, EvictionPolicy::Family);
}
