//! The cumulative `RuntimeStats` counters the per-layer metrics difference,
//! so that the deltas of several disjoint windows can be summed.

use peppher_runtime::RuntimeStats;

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub tasks: u64,
    pub pop_ns: u64,
    pub pops: u64,
    pub steals: u64,
    pub reorders: u64,
    pub host_link_bytes: u64,
    pub d2d_bytes: u64,
    pub transfers: u64,
    pub transfer_joins: u64,
    pub evictions: u64,
    pub writeback_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub drifts: u64,
    pub kernel_failures: u64,
    /// Virtual busy time per worker, in nanoseconds.
    pub busy_ns: Vec<u64>,
    pub tasks_per_worker: Vec<u64>,
}

impl Counters {
    pub fn of(s: &RuntimeStats) -> Counters {
        Counters {
            tasks: s.tasks_executed,
            pop_ns: s.sched_pop_ns,
            pops: s.sched_pops,
            steals: s.steals,
            reorders: s.sched_reorders,
            host_link_bytes: s.host_link_bytes(),
            d2d_bytes: s.d2d_bytes,
            transfers: s.total_transfers(),
            transfer_joins: s.transfer_joins,
            evictions: s.evictions,
            writeback_bytes: s.writeback_bytes,
            cache_hits: s.alloc_cache_hits,
            cache_misses: s.alloc_cache_misses,
            drifts: s.model_drifts,
            kernel_failures: s.kernel_failures,
            busy_ns: s.busy.iter().map(|b| b.as_nanos()).collect(),
            tasks_per_worker: s.tasks_per_worker.clone(),
        }
    }

    /// Adds `later - earlier` (two snapshots of one runtime) to `self`.
    pub fn add_window(&mut self, earlier: &Counters, later: &Counters) {
        let scalar = |f: fn(&Counters) -> u64| f(later) - f(earlier);
        self.tasks += scalar(|c| c.tasks);
        self.pop_ns += scalar(|c| c.pop_ns);
        self.pops += scalar(|c| c.pops);
        self.steals += scalar(|c| c.steals);
        self.reorders += scalar(|c| c.reorders);
        self.host_link_bytes += scalar(|c| c.host_link_bytes);
        self.d2d_bytes += scalar(|c| c.d2d_bytes);
        self.transfers += scalar(|c| c.transfers);
        self.transfer_joins += scalar(|c| c.transfer_joins);
        self.evictions += scalar(|c| c.evictions);
        self.writeback_bytes += scalar(|c| c.writeback_bytes);
        self.cache_hits += scalar(|c| c.cache_hits);
        self.cache_misses += scalar(|c| c.cache_misses);
        self.drifts += scalar(|c| c.drifts);
        self.kernel_failures += scalar(|c| c.kernel_failures);
        add_per_worker(&mut self.busy_ns, &earlier.busy_ns, &later.busy_ns);
        add_per_worker(
            &mut self.tasks_per_worker,
            &earlier.tasks_per_worker,
            &later.tasks_per_worker,
        );
    }
}

fn add_per_worker(acc: &mut Vec<u64>, earlier: &[u64], later: &[u64]) {
    acc.resize(later.len().max(acc.len()), 0);
    for (i, (l, e)) in later.iter().zip(earlier).enumerate() {
        acc[i] += l - e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_sum_their_deltas() {
        let snap = |tasks, busy: &[u64]| Counters {
            tasks,
            busy_ns: busy.to_vec(),
            tasks_per_worker: vec![tasks; busy.len()],
            ..Counters::default()
        };
        let mut acc = Counters::default();
        acc.add_window(&snap(10, &[5, 7]), &snap(15, &[6, 9]));
        acc.add_window(&snap(20, &[10, 10]), &snap(23, &[12, 10]));
        assert_eq!(acc.tasks, 8);
        assert_eq!(acc.busy_ns, vec![3, 2]);
        assert_eq!(acc.tasks_per_worker, vec![8, 8]);
    }
}
