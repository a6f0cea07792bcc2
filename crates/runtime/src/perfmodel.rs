//! History-based performance models (StarPU-style), adapted online.
//!
//! The runtime records, per *(codelet, architecture class, footprint
//! bucket)*, the execution times it has observed, and answers expected-time
//! queries for the `dmda` scheduler. A key is **calibrated** once it has at
//! least [`PerfRegistry::calibration_min`] effective samples; until then the
//! scheduler deliberately spreads executions across architectures to gather
//! data — this is the paper's "performance history" that "guide\[s\] variant
//! selection".
//!
//! Unlike the original learned-then-frozen design, histories stay *live*:
//!
//! - Samples carry decaying weight (weighted Welford, capped at
//!   [`WEIGHT_CAP`] effective samples) so the mean tracks a sliding window
//!   instead of averaging a device's whole lifetime.
//! - Each estimate comes with a **confidence** in `[0, 1]`: effective
//!   weight relative to the calibration threshold, scaled down as the key
//!   goes unsampled (staleness). Schedulers use low confidence as an
//!   exploration signal.
//! - A per-key EWMA of recent samples detects **drift**: when the recent
//!   window diverges from the model mean by more than `k·σ` (with a
//!   relative floor, since deterministic simulation can drive σ to zero),
//!   the whole `(codelet, arch)` family is decayed below calibration so the
//!   scheduler's calibration round-robin re-measures every architecture,
//!   and a global epoch counter advances so frozen replay schedules know to
//!   thaw.

use crate::codelet::ArchClass;
use crate::hash::{FastBuildHasher, FastMap};
use crate::intern::{CodeletId, Sym};
use parking_lot::Mutex;
use peppher_sim::VTime;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};

/// A `Copy` architecture class: the interned counterpart of [`ArchClass`],
/// used in hot-path keys so no `String` travels with each task. GPU models
/// are identified by their interned profile name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchClassId {
    /// Single CPU core.
    Cpu,
    /// Whole CPU team of the given size.
    CpuTeam(usize),
    /// A GPU identified by its interned profile name.
    Gpu(Sym),
}

impl ArchClassId {
    /// Interns an [`ArchClass`] (allocation only on first sight of a GPU
    /// model name).
    pub fn from_class(class: &ArchClass) -> Self {
        match class {
            ArchClass::Cpu => ArchClassId::Cpu,
            ArchClass::CpuTeam(n) => ArchClassId::CpuTeam(*n),
            ArchClass::Gpu(name) => ArchClassId::Gpu(Sym::intern(name)),
        }
    }

    /// The owned [`ArchClass`] equivalent (allocates for GPU names; only
    /// used on rare paths such as programmer prediction functions).
    pub fn to_class(self) -> ArchClass {
        match self {
            ArchClassId::Cpu => ArchClass::Cpu,
            ArchClassId::CpuTeam(n) => ArchClass::CpuTeam(n),
            ArchClassId::Gpu(name) => ArchClass::Gpu(name.as_str().to_string()),
        }
    }
}

impl fmt::Display for ArchClassId {
    /// Same text as [`ArchClass`]'s `Display`, so the perf-model file
    /// format is unchanged.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchClassId::Cpu => write!(f, "cpu"),
            ArchClassId::CpuTeam(n) => write!(f, "cpu-team{n}"),
            ArchClassId::Gpu(name) => write!(f, "gpu:{name}"),
        }
    }
}

/// Identifies one performance history. `Copy` — built per dispatch on the
/// worker hot path without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PerfKey {
    /// Interned codelet name.
    pub codelet: CodeletId,
    /// Architecture class (CPU core, CPU team, specific GPU model).
    pub arch: ArchClassId,
    /// Data-size bucket (log₂ of the footprint in bytes).
    pub bucket: u32,
}

impl PerfKey {
    /// Builds a key for a codelet execution over `footprint` bytes,
    /// interning the name and arch class. Convenient for tests and tools;
    /// the dispatch path uses [`PerfKey::for_codelet`] with ids already in
    /// hand.
    pub fn new(codelet: &str, arch: ArchClass, footprint: u64) -> Self {
        PerfKey::for_codelet(
            Sym::intern(codelet),
            ArchClassId::from_class(&arch),
            footprint,
        )
    }

    /// Builds a key from pre-interned parts — the allocation-free hot path.
    pub fn for_codelet(codelet: CodeletId, arch: ArchClassId, footprint: u64) -> Self {
        PerfKey {
            codelet,
            arch,
            bucket: footprint_bucket(footprint),
        }
    }
}

/// Buckets a byte footprint by log₂ so histories generalize across nearby
/// sizes (StarPU's history models hash each buffer's size instead).
pub fn footprint_bucket(footprint: u64) -> u32 {
    64 - footprint.max(1).leading_zeros()
}

/// Smoothing factor of the per-key recent-sample EWMA used for drift
/// detection (a window of roughly `2/α − 1 ≈ 7` samples).
const EWMA_ALPHA: f64 = 0.25;

/// Stddev of an EWMA of i.i.d. samples relative to the sample stddev:
/// `sqrt(α / (2 − α))`. Drift compares the EWMA's deviation against `k`
/// of *its own* expected fluctuation — scaling the model σ by the raw `k`
/// would self-suppress, because the post-drift samples inflate the model
/// variance as fast as they move the EWMA.
const EWMA_STD_FACTOR: f64 = 0.377_964_473_009_227_2;

/// Effective-weight ceiling: once a key has this much decayed sample
/// weight, each new sample first decays the history so the post-record
/// weight stays at the cap. The mean then tracks a sliding window of about
/// this many samples instead of a device's whole lifetime.
pub const WEIGHT_CAP: f64 = 64.0;

/// Confidence below which an estimate is flagged for exploration (cold or
/// stale key). See [`PerfRegistry::estimate`].
pub const EXPLORE_CONFIDENCE: f64 = 0.5;

/// Decayed-weight Welford statistics for one key.
///
/// `record` adds samples with weight 1; [`History::decay`] scales every
/// prior sample's weight by a factor. The running `(mean_ns, m2, weight)`
/// triple is exactly the batch weighted mean / weighted sum of squared
/// deviations / total weight over the decayed sample set (West's weighted
/// incremental update), which the proptest-style oracle test exploits.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Lifetime sample count (never decayed; diagnostics + serialization).
    pub n: u64,
    /// Weighted running mean (ns).
    pub mean_ns: f64,
    /// Weighted sum of squared deviations (for variance).
    pub m2: f64,
    /// Effective (decayed) sample weight; calibration compares this, not
    /// `n`, so decay can force re-calibration.
    pub weight: f64,
    /// EWMA of recent samples (ns) — the drift detector's "observed" side.
    pub ewma_ns: f64,
    /// Registry tick of the most recent sample (staleness clock).
    pub last_tick: u64,
}

impl History {
    fn record(&mut self, sample_ns: f64, weight_cap: f64) {
        if self.weight > weight_cap - 1.0 {
            self.decay((weight_cap - 1.0) / self.weight);
        }
        self.n += 1;
        self.weight += 1.0;
        let delta = sample_ns - self.mean_ns;
        self.mean_ns += delta / self.weight;
        self.m2 += delta * (sample_ns - self.mean_ns);
        self.ewma_ns = if self.n == 1 {
            sample_ns
        } else {
            EWMA_ALPHA * sample_ns + (1.0 - EWMA_ALPHA) * self.ewma_ns
        };
    }

    /// Scales the effective weight of every recorded sample by `factor`
    /// (clamped to `[0, 1]`). The weighted mean is unchanged; `m2` and
    /// `weight` scale linearly, exactly as if each sample's weight had
    /// been multiplied in a batch computation.
    pub fn decay(&mut self, factor: f64) {
        let f = factor.clamp(0.0, 1.0);
        self.weight *= f;
        self.m2 *= f;
    }

    /// Weighted standard deviation in nanoseconds (0 with ≤1 effective
    /// sample).
    pub fn stddev_ns(&self) -> f64 {
        if self.weight <= 1.0 {
            0.0
        } else {
            (self.m2.max(0.0) / self.weight).sqrt()
        }
    }
}

/// One placement-query answer: the model mean plus the adaptation signals
/// the scheduler folds into its decision, all computed under the single
/// shard-lock acquisition of [`PerfRegistry::estimate`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Estimate {
    /// Expected execution time; `None` when the key is not calibrated.
    pub expected: Option<VTime>,
    /// Model confidence in `[0, 1]`: effective weight relative to the
    /// calibration threshold, scaled down by staleness.
    pub confidence: f64,
    /// Whether the key is cold or its confidence has decayed below
    /// [`EXPLORE_CONFIDENCE`] — an exploration candidate.
    pub explore: bool,
}

/// Drift notification returned by [`PerfRegistry::record`] when the recent
/// EWMA diverged from the model mean beyond the detection threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// The key whose history drifted.
    pub key: PerfKey,
    /// Recent-window EWMA at the moment of detection (ns).
    pub observed_ns: f64,
    /// Model mean at the moment of detection (ns).
    pub model_ns: f64,
}

/// Aggregate model-state counts for [`crate::RuntimeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Distinct keys with at least one recorded sample.
    pub keys: usize,
    /// Keys whose effective weight has reached calibration.
    pub calibrated: usize,
    /// Keys currently flagged for exploration (cold or stale).
    pub exploring: usize,
    /// Lifetime drift detections.
    pub drift_events: u64,
}

/// Shared registry of execution histories.
///
/// A registry can outlive a [`crate::Runtime`] and be handed to the next
/// one (`Runtime::with_shared_perf`), modelling StarPU's on-disk
/// performance-model persistence across runs.
#[derive(Debug)]
pub struct PerfRegistry {
    /// Histories sharded by key hash: every task completion records a
    /// sample, so one global map would serialize all workers against each
    /// other (and against the submitter's calibration queries) on a
    /// single lock.
    shards: [Mutex<FastMap<PerfKey, History>>; SHARDS],
    /// Effective samples required before a key counts as calibrated.
    pub calibration_min: u64,
    /// Whether [`PerfRegistry::record`] runs EWMA drift detection.
    drift_enabled: bool,
    /// Effective-weight cap applied per record (see [`WEIGHT_CAP`]).
    weight_cap: f64,
    /// Drift threshold multiplier on the model stddev.
    drift_k: f64,
    /// Relative drift floor: deviation must also exceed this fraction of
    /// the mean, so a deterministic simulation (σ = 0) neither
    /// hair-triggers nor silently suppresses detection.
    drift_rel_floor: f64,
    /// Sample age (in registry ticks) past which confidence starts to
    /// fade; a key untouched for `2×` this goes below
    /// [`EXPLORE_CONFIDENCE`].
    freshness_half_life: u64,
    /// Global sample clock: bumped once per record, compared against each
    /// history's `last_tick` for staleness. Relaxed — only a coarse age.
    tick: AtomicU64,
    /// Advances on every drift detection; frozen replay schedules compare
    /// it to decide whether to thaw. Relaxed load is lock-free on the
    /// replay seed path.
    drift_epoch: AtomicU64,
    /// Lifetime drift detections (for stats).
    drift_events: AtomicU64,
}

/// Shard count; a power of two so the hash folds with a mask.
const SHARDS: usize = 8;

/// The shard holding `key`'s history.
fn shard_of(key: &PerfKey) -> usize {
    FastBuildHasher::default().hash_one(key) as usize & (SHARDS - 1)
}

impl Default for PerfRegistry {
    fn default() -> Self {
        PerfRegistry::new(3)
    }
}

impl PerfRegistry {
    /// Creates a registry requiring `calibration_min` effective samples per
    /// key, with drift detection enabled.
    pub fn new(calibration_min: u64) -> Self {
        PerfRegistry {
            shards: std::array::from_fn(|_| Mutex::new(FastMap::default())),
            calibration_min: calibration_min.max(1),
            drift_enabled: true,
            weight_cap: WEIGHT_CAP,
            drift_k: 3.0,
            drift_rel_floor: 0.2,
            freshness_half_life: 4096,
            tick: AtomicU64::new(0),
            drift_epoch: AtomicU64::new(0),
            drift_events: AtomicU64::new(0),
        }
    }

    /// Enables/disables EWMA drift detection (builder style). With it off,
    /// histories still decay per the weight cap but never trigger family
    /// decay or epoch bumps — the pre-adaptation behavior.
    pub fn with_drift_detection(mut self, on: bool) -> Self {
        self.drift_enabled = on;
        self
    }

    /// Overrides the effective-weight cap (builder style). Tests pass
    /// `f64::INFINITY` to disable the sliding window and compare against
    /// an undecayed batch oracle.
    pub fn with_weight_cap(mut self, cap: f64) -> Self {
        self.weight_cap = cap.max(2.0);
        self
    }

    /// Overrides the staleness half-life in registry ticks (builder
    /// style).
    pub fn with_freshness_half_life(mut self, ticks: u64) -> Self {
        self.freshness_half_life = ticks.max(1);
        self
    }

    /// Records an observed execution time. Returns a [`DriftEvent`] when
    /// the key's recent EWMA has diverged from its model mean beyond
    /// `max(k·σ, rel_floor·mean)`: the whole `(codelet, arch)` family has
    /// then been decayed below calibration (forcing the scheduler to
    /// re-measure every architecture class) and the drift epoch advanced
    /// (thawing frozen replay schedules). Callers that don't surface drift
    /// may ignore the return value.
    pub fn record(&self, key: PerfKey, t: VTime) -> Option<DriftEvent> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let sample = t.as_nanos() as f64;
        let mut drift = None;
        {
            let mut map = self.shards[shard_of(&key)].lock();
            let h = map.entry(key).or_default();
            h.record(sample, self.weight_cap);
            h.last_tick = tick;
            if self.drift_enabled
                && h.weight >= self.calibration_min as f64
                && h.n > self.calibration_min
            {
                let dev = (h.ewma_ns - h.mean_ns).abs();
                let threshold = (self.drift_k * EWMA_STD_FACTOR * h.stddev_ns())
                    .max(self.drift_rel_floor * h.mean_ns.abs())
                    .max(1.0);
                if dev > threshold {
                    drift = Some(DriftEvent {
                        key,
                        observed_ns: h.ewma_ns,
                        model_ns: h.mean_ns,
                    });
                }
            }
        }
        if let Some(_ev) = &drift {
            // Family decay re-acquires shard locks one at a time, so the
            // recording shard's lock must already be dropped (above).
            self.decay_family(key.codelet, key.arch, self.calibration_min as f64 * 0.5);
            self.drift_epoch.fetch_add(1, Ordering::Relaxed);
            self.drift_events.fetch_add(1, Ordering::Relaxed);
        }
        drift
    }

    /// Scales the effective weight of `key`'s history by `factor` (for
    /// tools and tests; drift uses [`PerfRegistry::decay_family`]).
    pub fn decay(&self, key: &PerfKey, factor: f64) {
        if let Some(h) = self.shards[shard_of(key)].lock().get_mut(key) {
            h.decay(factor);
        }
    }

    /// Decays every bucket of the `(codelet, arch)` family down to
    /// `target_weight` effective samples (histories already below it are
    /// untouched). Dropping below `calibration_min` makes the keys
    /// uncalibrated again, which re-engages the scheduler's calibration
    /// round-robin — the recovery path after drift. Shard locks are taken
    /// one at a time; callers must not hold any.
    pub fn decay_family(&self, codelet: CodeletId, arch: ArchClassId, target_weight: f64) {
        for s in &self.shards {
            let mut map = s.lock();
            for (k, h) in map.iter_mut() {
                if k.codelet == codelet && k.arch == arch && h.weight > target_weight {
                    h.decay(target_weight / h.weight);
                }
            }
        }
    }

    /// Expected execution time, or `None` when the key is not calibrated.
    pub fn expected(&self, key: &PerfKey) -> Option<VTime> {
        let map = self.shards[shard_of(key)].lock();
        let h = map.get(key)?;
        (h.weight >= self.calibration_min as f64)
            .then(|| VTime::from_nanos(h.mean_ns.max(0.0) as u64))
    }

    /// Expected time plus adaptation signals, in one shard-lock
    /// acquisition — the scheduler's placement query. Costs one extra
    /// relaxed atomic load and a handful of float ops over
    /// [`PerfRegistry::expected`], keeping warm placement on the hot path.
    pub fn estimate(&self, key: &PerfKey) -> Estimate {
        let map = self.shards[shard_of(key)].lock();
        let Some(h) = map.get(key) else {
            return Estimate {
                expected: None,
                confidence: 0.0,
                explore: true,
            };
        };
        let confidence = self.confidence_of(h);
        if h.weight < self.calibration_min as f64 {
            return Estimate {
                expected: None,
                confidence,
                explore: true,
            };
        }
        Estimate {
            expected: Some(VTime::from_nanos(h.mean_ns.max(0.0) as u64)),
            confidence,
            explore: confidence < EXPLORE_CONFIDENCE,
        }
    }

    /// Confidence of `key`'s current model (0 when unseen).
    pub fn confidence(&self, key: &PerfKey) -> f64 {
        self.shards[shard_of(key)]
            .lock()
            .get(key)
            .map_or(0.0, |h| self.confidence_of(h))
    }

    /// Weight term × freshness term. Freshness uses a cheap hyperbolic
    /// tail (`half_life / age`) instead of an exponential so the hot path
    /// never calls `exp`.
    fn confidence_of(&self, h: &History) -> f64 {
        let w = (h.weight / self.calibration_min as f64).min(1.0);
        let age = self
            .tick
            .load(Ordering::Relaxed)
            .saturating_sub(h.last_tick);
        let fresh = if age <= self.freshness_half_life {
            1.0
        } else {
            self.freshness_half_life as f64 / age as f64
        };
        w * fresh
    }

    /// Monotone counter bumped by every drift detection. Frozen replay
    /// schedules snapshot it and thaw when it moves.
    pub fn drift_epoch(&self) -> u64 {
        self.drift_epoch.load(Ordering::Relaxed)
    }

    /// Lifetime drift detections.
    pub fn drift_event_count(&self) -> u64 {
        self.drift_events.load(Ordering::Relaxed)
    }

    /// Aggregate calibration/exploration counts (scans every shard; a
    /// diagnostics path, not for dispatch).
    pub fn model_stats(&self) -> ModelStats {
        let mut stats = ModelStats {
            drift_events: self.drift_events.load(Ordering::Relaxed),
            ..ModelStats::default()
        };
        for s in &self.shards {
            let map = s.lock();
            stats.keys += map.len();
            for h in map.values() {
                if h.weight >= self.calibration_min as f64 {
                    stats.calibrated += 1;
                    if self.confidence_of(h) < EXPLORE_CONFIDENCE {
                        stats.exploring += 1;
                    }
                } else {
                    stats.exploring += 1;
                }
            }
        }
        stats
    }

    /// Lifetime samples recorded for `key` (not reduced by decay).
    pub fn samples(&self, key: &PerfKey) -> u64 {
        self.shards[shard_of(key)]
            .lock()
            .get(key)
            .map_or(0, |h| h.n)
    }

    /// Whether `key` has reached calibration (by effective weight).
    pub fn calibrated(&self, key: &PerfKey) -> bool {
        self.shards[shard_of(key)]
            .lock()
            .get(key)
            .is_some_and(|h| h.weight >= self.calibration_min as f64)
    }

    /// Mean/stddev snapshot for diagnostics.
    pub fn history(&self, key: &PerfKey) -> Option<History> {
        self.shards[shard_of(key)].lock().get(key).cloned()
    }

    /// Number of distinct keys with at least one sample.
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Clears all recorded histories.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Serializes every history to a line-oriented text format (StarPU
    /// persists its calibrated models under `~/.starpu/sampling`; this is
    /// the equivalent "performance data repository" format). Version 2
    /// adds the decayed weight and drift EWMA to each line.
    pub fn serialize(&self) -> String {
        let mut lines: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .iter()
                    .map(|(k, h)| {
                        format!(
                            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                            k.codelet, k.arch, k.bucket, h.n, h.mean_ns, h.m2, h.weight, h.ewma_ns
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        lines.sort();
        let mut out = String::from(
            "# peppher perfmodel v2: codelet\tarch\tbucket\tn\tmean_ns\tm2\tweight\tewma_ns\n",
        );
        out.push_str(&lines.join("\n"));
        out.push('\n');
        out
    }

    /// Restores histories from [`PerfRegistry::serialize`] output, merging
    /// into the current state (existing keys are replaced). Every line
    /// must carry the eight fields `serialize` writes; any other line is
    /// rejected with its line number.
    pub fn deserialize(&self, text: &str) -> Result<usize, String> {
        let mut loaded = 0usize;
        let tick = self.tick.load(Ordering::Relaxed);
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let [codelet, arch, bucket, n, mean, m2, weight, ewma] = fields[..] else {
                return Err(format!("line {}: expected 8 fields", lineno + 1));
            };
            let err = |what: &str| format!("line {}: bad {what}", lineno + 1);
            let arch: ArchClass = arch.parse().map_err(|_| err("arch class"))?;
            let key = PerfKey {
                codelet: Sym::intern(codelet),
                arch: ArchClassId::from_class(&arch),
                bucket: bucket.parse().map_err(|_| err("bucket"))?,
            };
            let history = History {
                n: n.parse().map_err(|_| err("sample count"))?,
                mean_ns: mean.parse().map_err(|_| err("mean"))?,
                m2: m2.parse().map_err(|_| err("m2"))?,
                weight: weight.parse().map_err(|_| err("weight"))?,
                ewma_ns: ewma.parse().map_err(|_| err("ewma"))?,
                last_tick: tick,
            };
            self.shards[shard_of(&key)].lock().insert(key, history);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Writes the registry to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.serialize())
    }

    /// Loads (merges) a registry file previously written by
    /// [`PerfRegistry::save`].
    pub fn load(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let text = std::fs::read_to_string(path)?;
        self.deserialize(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(bucket_bytes: u64) -> PerfKey {
        PerfKey::new("k", ArchClass::Cpu, bucket_bytes)
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(footprint_bucket(0), 1);
        assert_eq!(footprint_bucket(1), 1);
        assert_eq!(footprint_bucket(2), 2);
        assert_eq!(footprint_bucket(1023), 10);
        assert_eq!(footprint_bucket(1024), 11);
        // Nearby sizes share a bucket; far sizes don't.
        assert_eq!(footprint_bucket(1 << 20), footprint_bucket((1 << 20) + 100));
        assert_ne!(footprint_bucket(1 << 10), footprint_bucket(1 << 20));
    }

    #[test]
    fn uncalibrated_returns_none() {
        let reg = PerfRegistry::new(3);
        reg.record(key(100), VTime::from_micros(10));
        reg.record(key(100), VTime::from_micros(10));
        assert_eq!(reg.expected(&key(100)), None);
        assert!(!reg.calibrated(&key(100)));
        reg.record(key(100), VTime::from_micros(10));
        assert_eq!(reg.expected(&key(100)), Some(VTime::from_micros(10)));
        assert!(reg.calibrated(&key(100)));
    }

    #[test]
    fn mean_converges() {
        let reg = PerfRegistry::new(1);
        for us in [8, 10, 12] {
            reg.record(key(64), VTime::from_micros(us));
        }
        let expected = reg.expected(&key(64)).unwrap();
        assert_eq!(expected, VTime::from_micros(10));
        let h = reg.history(&key(64)).unwrap();
        assert_eq!(h.n, 3);
        assert!(h.stddev_ns() > 0.0);
    }

    #[test]
    fn distinct_arches_are_distinct_keys() {
        let reg = PerfRegistry::new(1);
        let cpu = PerfKey::new("k", ArchClass::Cpu, 1000);
        let gpu = PerfKey::new("k", ArchClass::Gpu("g".into()), 1000);
        reg.record(cpu, VTime::from_micros(100));
        reg.record(gpu, VTime::from_micros(5));
        assert_eq!(reg.expected(&cpu), Some(VTime::from_micros(100)));
        assert_eq!(reg.expected(&gpu), Some(VTime::from_micros(5)));
        assert_eq!(reg.key_count(), 2);
    }

    /// A fresh, calibrated key has full confidence and no exploration
    /// flag; an unseen key is a cold exploration candidate.
    #[test]
    fn estimate_reports_confidence_and_exploration() {
        let reg = PerfRegistry::new(3);
        let cold = reg.estimate(&key(64));
        assert_eq!(cold.expected, None);
        assert_eq!(cold.confidence, 0.0);
        assert!(cold.explore);

        for _ in 0..3 {
            reg.record(key(64), VTime::from_micros(10));
        }
        let warm = reg.estimate(&key(64));
        assert_eq!(warm.expected, Some(VTime::from_micros(10)));
        assert_eq!(warm.confidence, 1.0);
        assert!(!warm.explore);
    }

    /// A key that stops being sampled while the rest of the registry stays
    /// busy loses freshness, eventually dropping below the exploration
    /// threshold while its mean stays put.
    #[test]
    fn stale_keys_become_explorable() {
        let reg = PerfRegistry::new(1).with_freshness_half_life(10);
        reg.record(key(64), VTime::from_micros(10));
        let other = PerfKey::new("busy", ArchClass::Cpu, 64);
        for _ in 0..9 {
            reg.record(other, VTime::from_micros(1));
        }
        let fresh = reg.estimate(&key(64));
        assert_eq!(fresh.confidence, 1.0, "within the half-life: fully fresh");
        for _ in 0..90 {
            reg.record(other, VTime::from_micros(1));
        }
        let stale = reg.estimate(&key(64));
        assert!(stale.confidence < EXPLORE_CONFIDENCE);
        assert!(stale.explore, "stale key must be flagged for exploration");
        assert_eq!(stale.expected, Some(VTime::from_micros(10)));
        // Re-sampling restores freshness.
        reg.record(key(64), VTime::from_micros(10));
        assert!(!reg.estimate(&key(64)).explore);
    }

    /// The weight cap turns the mean into a sliding window: after a step
    /// change, a capped history converges to the new level while an
    /// uncapped one stays dominated by the old samples.
    #[test]
    fn weight_cap_makes_mean_track_recent_samples() {
        let capped = PerfRegistry::new(3); // WEIGHT_CAP = 64
        let uncapped = PerfRegistry::new(3)
            .with_weight_cap(f64::INFINITY)
            .with_drift_detection(false);
        for _ in 0..1000 {
            capped.record(key(64), VTime::from_micros(10));
            uncapped.record(key(64), VTime::from_micros(10));
        }
        for _ in 0..200 {
            capped.record(key(64), VTime::from_micros(40));
            uncapped.record(key(64), VTime::from_micros(40));
        }
        let c = capped.history(&key(64)).unwrap();
        let u = uncapped.history(&key(64)).unwrap();
        assert!(c.weight <= WEIGHT_CAP + 1e-9);
        assert!(
            c.mean_ns > 35_000.0,
            "capped mean should track the new level, got {}",
            c.mean_ns
        );
        assert!(
            u.mean_ns < 20_000.0,
            "uncapped mean stays near the lifetime average, got {}",
            u.mean_ns
        );
    }

    /// Welford vs batch oracle, property-tested: an arbitrary interleaving
    /// of record and decay operations must leave the incremental
    /// (mean, m2, weight) triple exactly matching a batch weighted oracle
    /// computed over the same sample/weight multiset.
    mod welford_props {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// Record one sample of the given duration (ns).
            Record(u64),
            /// Decay every weight recorded so far by factor/1000.
            Decay(u64),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                // Three record arms to one decay arm: most ops add samples.
                (1u64..10_000_000).prop_map(Op::Record),
                (1u64..10_000_000).prop_map(Op::Record),
                (1u64..10_000_000).prop_map(Op::Record),
                (100u64..1000).prop_map(Op::Decay),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn welford_matches_batch_oracle_under_random_decay(
                ops in proptest::collection::vec(op_strategy(), 2..60)
            ) {
                let reg = PerfRegistry::new(3)
                    .with_weight_cap(f64::INFINITY)
                    .with_drift_detection(false);
                let k = key(64);
                // Oracle: (sample_ns, current_weight) pairs; a decay event
                // scales every weight recorded so far.
                let mut oracle: Vec<(f64, f64)> = Vec::new();
                for op in ops {
                    match op {
                        Op::Decay(milli) if !oracle.is_empty() => {
                            let factor = milli as f64 / 1000.0;
                            reg.decay(&k, factor);
                            for (_, w) in oracle.iter_mut() {
                                *w *= factor;
                            }
                        }
                        Op::Decay(_) => {}
                        Op::Record(ns) => {
                            reg.record(k, VTime::from_nanos(ns));
                            oracle.push((ns as f64, 1.0));
                        }
                    }
                }
                if oracle.is_empty() {
                    // All ops were decays on an empty history: vacuous case.
                    return Ok(());
                }
                let h = reg.history(&k).unwrap();
                let w_tot: f64 = oracle.iter().map(|(_, w)| w).sum();
                let mean: f64 =
                    oracle.iter().map(|(s, w)| s * w).sum::<f64>() / w_tot;
                let m2: f64 =
                    oracle.iter().map(|(s, w)| w * (s - mean).powi(2)).sum();
                let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1.0);
                prop_assert!(
                    rel(h.weight, w_tot) < 1e-9,
                    "weight {} vs oracle {w_tot}",
                    h.weight
                );
                prop_assert!(
                    rel(h.mean_ns, mean) < 1e-9,
                    "mean {} vs oracle {mean}",
                    h.mean_ns
                );
                prop_assert!(rel(h.m2, m2) < 1e-6, "m2 {} vs oracle {m2}", h.m2);
            }
        }
    }

    /// A sustained step change (4× slowdown) must trigger drift: the event
    /// is reported, the whole (codelet, arch) family decays below
    /// calibration, and the drift epoch advances.
    #[test]
    fn sustained_slowdown_triggers_drift_and_family_decay() {
        let reg = PerfRegistry::new(3);
        let k = key(64);
        // Same codelet+arch, different bucket — the rest of the family.
        let sibling = key(1 << 20);
        for _ in 0..20 {
            reg.record(k, VTime::from_micros(10));
            reg.record(sibling, VTime::from_micros(50));
        }
        assert_eq!(reg.drift_epoch(), 0);
        assert!(reg.calibrated(&k) && reg.calibrated(&sibling));
        let mut event = None;
        for _ in 0..20 {
            if let Some(ev) = reg.record(k, VTime::from_micros(40)) {
                event = Some(ev);
                break;
            }
        }
        let ev = event.expect("4x slowdown must be detected");
        assert_eq!(ev.key, k);
        assert!(ev.observed_ns > ev.model_ns);
        assert!(reg.drift_epoch() >= 1);
        assert_eq!(reg.drift_event_count(), reg.drift_epoch());
        assert!(!reg.calibrated(&k), "drifted key must lose calibration");
        assert!(
            !reg.calibrated(&sibling),
            "family members must decay with the drifted key"
        );
        // Re-calibration converges to the new level.
        for _ in 0..30 {
            reg.record(k, VTime::from_micros(40));
        }
        let mean = reg.expected(&k).expect("re-calibrated").as_nanos() as f64;
        assert!(
            (mean - 40_000.0).abs() / 40_000.0 < 0.15,
            "post-drift mean should re-converge near 40us, got {mean}ns"
        );
    }

    /// Steady samples never trigger drift, and disabling detection
    /// suppresses it even under a genuine step change.
    #[test]
    fn drift_detection_respects_enable_flag_and_steady_state() {
        let steady = PerfRegistry::new(3);
        for _ in 0..200 {
            assert!(steady.record(key(64), VTime::from_micros(10)).is_none());
        }
        assert_eq!(steady.drift_epoch(), 0);

        let frozen = PerfRegistry::new(3).with_drift_detection(false);
        for _ in 0..20 {
            frozen.record(key(64), VTime::from_micros(10));
        }
        for _ in 0..40 {
            assert!(frozen.record(key(64), VTime::from_micros(40)).is_none());
        }
        assert_eq!(frozen.drift_epoch(), 0);
        assert!(frozen.calibrated(&key(64)));
    }

    #[test]
    fn serialize_roundtrip() {
        let reg = PerfRegistry::new(2);
        reg.record(
            PerfKey::new("spmv", ArchClass::Cpu, 4096),
            VTime::from_micros(100),
        );
        reg.record(
            PerfKey::new("spmv", ArchClass::Cpu, 4096),
            VTime::from_micros(120),
        );
        reg.record(
            PerfKey::new("spmv", ArchClass::Gpu("Tesla C2050".into()), 4096),
            VTime::from_micros(9),
        );
        reg.record(
            PerfKey::new("sgemm", ArchClass::CpuTeam(4), 1 << 20),
            VTime::from_millis(3),
        );
        let text = reg.serialize();
        assert!(text.starts_with("# peppher perfmodel v2"));

        let restored = PerfRegistry::new(2);
        let loaded = restored.deserialize(&text).unwrap();
        assert_eq!(loaded, 3);
        let k = PerfKey::new("spmv", ArchClass::Cpu, 4096);
        assert_eq!(restored.samples(&k), 2);
        assert_eq!(restored.expected(&k), Some(VTime::from_micros(110)));
        let h_orig = reg.history(&k).unwrap();
        let h_back = restored.history(&k).unwrap();
        assert!((h_orig.stddev_ns() - h_back.stddev_ns()).abs() < 1.0);
        assert_eq!(h_orig.weight, h_back.weight);
        assert_eq!(h_orig.ewma_ns, h_back.ewma_ns);
    }

    #[test]
    fn deserialize_rejects_garbage() {
        let reg = PerfRegistry::new(1);
        assert!(reg.deserialize("a\tb\tc").is_err());
        assert!(reg.deserialize("c\tnot-an-arch\t1\t1\t1\t1\t1\t1").is_err());
        assert!(reg.deserialize("c\tcpu\t1\tx\t1\t1\t1\t1").is_err());
        assert!(
            reg.deserialize("c\tcpu\t1\t1\t1\t1\t1").is_err(),
            "7 fields"
        );
        assert!(reg
            .deserialize("c\tcpu\t1\t1\t1\t1\tbad-weight\t0")
            .is_err());
        // Lines of the older 6-field (v1: no weight/ewma) and 4-field (v0:
        // sample counts only) formats are rejected with their line number,
        // and nothing loads.
        let v1 = "# peppher perfmodel v1: codelet\tarch\tbucket\tn\tmean_ns\tm2\n\
                  spmv\tcpu\t13\t4\t110000\t200000000\n";
        assert_eq!(
            reg.deserialize(v1).unwrap_err(),
            "line 2: expected 8 fields"
        );
        let v0 = "spmv\tgpu:Tesla C2050\t13\t7\n";
        assert_eq!(
            reg.deserialize(v0).unwrap_err(),
            "line 1: expected 8 fields"
        );
        assert_eq!(reg.key_count(), 0);
        // Comments and blank lines are fine.
        assert_eq!(reg.deserialize("# header\n\n").unwrap(), 0);
    }

    #[test]
    fn save_load_file() {
        let path = std::env::temp_dir().join(format!("peppher-perf-{}.tsv", std::process::id()));
        let reg = PerfRegistry::new(1);
        reg.record(
            PerfKey::new("k", ArchClass::Cpu, 100),
            VTime::from_micros(5),
        );
        reg.save(&path).unwrap();
        let other = PerfRegistry::new(1);
        assert_eq!(other.load(&path).unwrap(), 1);
        assert_eq!(
            other.expected(&PerfKey::new("k", ArchClass::Cpu, 100)),
            Some(VTime::from_micros(5))
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn arch_class_parse_roundtrip() {
        for class in [
            ArchClass::Cpu,
            ArchClass::CpuTeam(4),
            ArchClass::Gpu("Tesla C1060".into()),
        ] {
            let s = class.to_string();
            assert_eq!(s.parse::<ArchClass>().unwrap(), class);
        }
        assert!("bogus".parse::<ArchClass>().is_err());
        assert!("cpu-teamX".parse::<ArchClass>().is_err());
    }

    #[test]
    fn for_codelet_matches_interned_new() {
        let by_str = PerfKey::new("k-fc", ArchClass::Gpu("Tesla C2050".into()), 4096);
        let by_id = PerfKey::for_codelet(
            Sym::intern("k-fc"),
            ArchClassId::Gpu(Sym::intern("Tesla C2050")),
            4096,
        );
        assert_eq!(by_str, by_id);
        // PerfKey is Copy: both of these uses read the same value.
        let copy = by_id;
        assert_eq!(copy, by_id);
    }

    #[test]
    fn arch_class_id_round_trips() {
        for class in [
            ArchClass::Cpu,
            ArchClass::CpuTeam(8),
            ArchClass::Gpu("Tesla C1060".into()),
        ] {
            let id = ArchClassId::from_class(&class);
            assert_eq!(id.to_class(), class);
            assert_eq!(id.to_string(), class.to_string());
        }
    }

    #[test]
    fn model_stats_counts_calibration_states() {
        let reg = PerfRegistry::new(3);
        for _ in 0..5 {
            reg.record(key(64), VTime::from_micros(10));
        }
        reg.record(key(1 << 20), VTime::from_micros(50));
        let stats = reg.model_stats();
        assert_eq!(stats.keys, 2);
        assert_eq!(stats.calibrated, 1);
        assert_eq!(stats.exploring, 1, "the cold key is an explorer");
        assert_eq!(stats.drift_events, 0);
    }

    #[test]
    fn clear_resets() {
        let reg = PerfRegistry::new(1);
        reg.record(key(10), VTime::from_micros(1));
        reg.clear();
        assert_eq!(reg.key_count(), 0);
        assert_eq!(reg.samples(&key(10)), 0);
    }
}
