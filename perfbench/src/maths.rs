//! The few statistics the benchmark reports: percentiles, guarded ratios,
//! and span self times. Kept free of I/O so the unit tests below pin
//! them down exactly.

use std::collections::BTreeMap;

/// The `p`-th percentile (0 ≤ p ≤ 100) of `values`, interpolating
/// linearly between the two closest ranks (the definition NumPy uses by
/// default). Returns 0.0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values` (0.0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// How many samples lie strictly above the `p`-th percentile: the count a
/// tail percentile rests on.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - (n as f64 * p / 100.0).ceil() as usize
}

/// `num / den`, or 0.0 when the base is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One op as the windowed figures see it (all times in ns).
#[derive(Debug, Clone, Copy)]
pub struct WindowOp {
    /// When the op began, since the measurement epoch.
    pub start: u64,
    /// The loop's time on the op, bookkeeping included.
    pub took: u64,
    /// Runtime tasks the op ran.
    pub tasks: u64,
    /// Wall latency from issue to checked result.
    pub latency: u64,
}

/// The share of windows, in percent, on whose quick side a run's windowed
/// figures are read. The host slows down for seconds at a time (a pure
/// CPU loop then takes up to 1.6× as long) and a slowdown only ever adds
/// time, so the quickest tenth of a run's windows shows the program's own
/// speed, while a median over windows flips between the quick and the
/// slow speed as the share of slow seconds crosses one half.
pub const QUICK_SHARE: f64 = 10.0;

/// Figures over fixed windows. An op counts toward the window it started
/// in. A window's rate is its ops (or tasks) over its ops' summed loop
/// time, so a partly filled window is not biased; its latency is the
/// median latency of its ops. Returns `(ops/s, tasks/s, p50 latency ns)`:
/// each rate at the `quick_share` percent mark from the top of its
/// windows, the latency at that mark from the bottom.
pub fn window_figures(ops: &[WindowOp], window_ns: u64, quick_share: f64) -> (f64, f64, f64) {
    let mut buckets: BTreeMap<u64, Vec<&WindowOp>> = BTreeMap::new();
    for op in ops {
        buckets.entry(op.start / window_ns).or_default().push(op);
    }
    let (mut op_rates, mut task_rates, mut p50s) = (Vec::new(), Vec::new(), Vec::new());
    for ops in buckets.values() {
        let took_s: f64 = ops.iter().map(|o| o.took as f64 / 1e9).sum();
        let tasks: u64 = ops.iter().map(|o| o.tasks).sum();
        op_rates.push(ratio(ops.len() as f64, took_s));
        task_rates.push(ratio(tasks as f64, took_s));
        let lat: Vec<f64> = ops.iter().map(|o| o.latency as f64).collect();
        p50s.push(median(&lat));
    }
    (
        percentile(&op_rates, 100.0 - quick_share),
        percentile(&task_rates, 100.0 - quick_share),
        percentile(&p50s, quick_share),
    )
}

/// Nanoseconds of the window `[start, end)` covered by the union of
/// `intervals` (each clipped to the window first). Overlapping intervals
/// count once.
pub fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover. `spans[i]` is `(start_ns, end_ns, parent)`,
/// where `parent` indexes into `spans` or is `None` for a root.
pub fn self_times(spans: &[(u64, u64, Option<usize>)]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for &(s, e, parent) in spans {
        if let Some(p) = parent {
            children[p].push((s, e));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(&(s, e, _), kids)| (e - s) - covered_ns(s, e, kids))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 25.0), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p99_of_a_hundred_and_one_ranks_is_the_second_largest() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(samples_beyond(v.len(), 99.0), 1);
        assert_eq!(samples_beyond(2000, 99.0), 20);
    }

    #[test]
    fn ratio_guards_a_zero_base() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn window_figures_read_the_quick_quarter() {
        const MS: u64 = 1_000_000;
        let op = |start: u64, took: u64, tasks: u64, latency: u64| WindowOp {
            start: start * MS,
            took: took * MS,
            tasks,
            latency: latency * MS,
        };
        // 100 ms windows. Window 0: two 25 ms ops of 10 tasks (40 ops/s,
        // 400 tasks/s, p50 20 ms); window 1: one 100 ms op of 40 tasks (10
        // ops/s, 400 tasks/s, p50 90 ms); window 2: four 25 ms ops of 5
        // tasks (40 ops/s, 200 tasks/s, p50 21.5 ms); window 3: one 10 ms
        // op of 1 task (100 ops/s, 100 tasks/s, p50 9 ms).
        let ops = [
            op(0, 25, 10, 20),
            op(25, 25, 10, 20),
            op(150, 100, 40, 90),
            op(200, 25, 5, 21),
            op(225, 25, 5, 21),
            op(250, 25, 5, 22),
            op(275, 25, 5, 23),
            op(300, 10, 1, 9),
        ];
        let (ops_s, tasks_s, p50) = window_figures(&ops, 100 * MS, 25.0);
        // Read at the quick quarter: rates at the 75th percentile of
        // [10, 40, 40, 100] and of [100, 200, 400, 400]; latency at the
        // 25th of [9, 20, 21.5, 90].
        assert_eq!(ops_s, 55.0);
        assert_eq!(tasks_s, 400.0);
        assert_eq!(p50, 17.25 * MS as f64);
        // At the quick end, the quickest window alone.
        assert_eq!(
            window_figures(&ops, 100 * MS, 0.0),
            (100.0, 400.0, 9.0 * MS as f64)
        );
        assert_eq!(window_figures(&[], 100, QUICK_SHARE), (0.0, 0.0, 0.0));
    }

    #[test]
    fn coverage_merges_overlaps_and_clips_to_the_window() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        // [10,30) ∪ [20,40) = 30 ns; [90,150) clips to [90,100).
        assert_eq!(covered_ns(0, 100, &[(20, 40), (10, 30), (90, 150)]), 40);
        // Touching intervals merge without double counting.
        assert_eq!(covered_ns(0, 100, &[(0, 50), (50, 100)]), 100);
        // Entirely outside the window.
        assert_eq!(covered_ns(10, 20, &[(0, 5), (25, 30)]), 0);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) has children [10,40) and [30,60); the first child
        // has a grandchild [15,25) that must not count against the root.
        let spans = [
            (0, 100, None),
            (10, 40, Some(0)),
            (30, 60, Some(0)),
            (15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
    }
}
