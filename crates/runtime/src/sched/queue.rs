//! The ready queue shared by eager and the dmda family.
//!
//! Entries dispatch in `(priority desc, push seq asc)` order: highest
//! priority first, FIFO among equals. dmdar pops through
//! [`ReadyQueue::pop_ready`] instead, which prices the top priority's
//! entries with the caller's fetch-cost closure at pop time and takes the
//! cheapest, so among equal priorities the most "ready" task goes first.
//! No score is stored: residency is read when a worker asks for work.
//!
//! Sequence numbers are monotonic, so entries live in a dense slab
//! (`slots[i]` holds sequence `base + i`) instead of a map: lookup is
//! pointer arithmetic, and the slab's front compacts away as entries leave
//! — the front slot is always live while the queue is non-empty.
//!
//! While every live entry has priority 0 — the common case: no priorities
//! set — dispatch order is plain FIFO, the head is the slab front and the
//! heap stays empty. The first prioritized entry builds a heap of one key
//! per live entry, and the head comes from it until the last prioritized
//! entry leaves. A removed entry leaves its key behind; a key whose entry
//! is gone is stale and skipped, and the heap is rebuilt from the live
//! entries once stale keys outnumber them, so it stays bounded by the live
//! count.
//!
//! A readiness pop scans the top priority's entries oldest first and stops
//! at the first one with nothing to fetch, so it costs the queue's cold
//! prefix, not its depth. Starvation of transfer-heavy tasks is bounded by
//! aging: every pop that passes over the oldest top-priority entry bumps
//! its skip count, and once that reaches [`AGE_LIMIT`] the entry
//! dispatches next without being priced.

use super::dmda::AGE_LIMIT;
use crate::task::Task;
use peppher_sim::VTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

struct Entry {
    task: Arc<Task>,
    /// Times this entry, as the oldest of the top priority, was passed
    /// over by a readiness pop (the aging term).
    skipped: u32,
}

/// Max-heap key: higher priority first, then the older sequence.
type Key = (i32, Reverse<u64>);

/// A priority-ordered ready queue (see module docs). Not internally
/// locked — callers wrap it in their own per-worker or central mutex.
#[derive(Default)]
pub(super) struct ReadyQueue {
    slots: VecDeque<Option<Entry>>,
    /// Sequence number of `slots[0]`; `base + slots.len()` is the next
    /// sequence to assign.
    base: u64,
    /// Live entries (slots not yet removed).
    live: usize,
    /// Live entries with a nonzero priority; 0 means FIFO order and an
    /// empty heap.
    prioritized: usize,
    heap: BinaryHeap<Key>,
}

impl ReadyQueue {
    fn key(task: &Task, seq: u64) -> Key {
        (task.priority, Reverse(seq))
    }

    /// Queued tasks.
    pub fn len(&self) -> usize {
        self.live
    }

    fn get(&self, seq: u64) -> Option<&Entry> {
        self.slots
            .get(seq.checked_sub(self.base)? as usize)?
            .as_ref()
    }

    /// Enqueues `task` behind every entry of its priority.
    pub fn push(&mut self, task: Arc<Task>) {
        let seq = self.base + self.slots.len() as u64;
        let key = Self::key(&task, seq);
        let leaves_fifo = task.priority != 0 && self.prioritized == 0;
        if task.priority != 0 {
            self.prioritized += 1;
        }
        self.slots.push_back(Some(Entry { task, skipped: 0 }));
        self.live += 1;
        if leaves_fifo {
            // Leaving FIFO order: every live entry needs its key.
            self.rebuild_heap();
        } else if self.prioritized > 0 {
            self.heap.push(key);
        }
    }

    fn rebuild_heap(&mut self) {
        self.heap = (self.base..)
            .zip(&self.slots)
            .filter_map(|(seq, s)| s.as_ref().map(|e| Self::key(&e.task, seq)))
            .collect();
    }

    fn remove(&mut self, seq: u64) -> Arc<Task> {
        let e = self.slots[(seq - self.base) as usize]
            .take()
            .expect("sequence number queued");
        self.live -= 1;
        if e.task.priority != 0 {
            self.prioritized -= 1;
        }
        // Compact dead front slots so `base` stays the live FIFO front.
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        if self.prioritized == 0 {
            self.heap.clear();
        } else if self.heap.len() > 2 * self.live {
            self.rebuild_heap();
        }
        e.task
    }

    /// The oldest entry of the top priority: the slab front in FIFO order,
    /// else the first live heap key (stale keys on top are dropped).
    fn head(&mut self) -> Option<u64> {
        if self.prioritized == 0 {
            return (self.live > 0).then_some(self.base);
        }
        while let Some(&(_, Reverse(seq))) = self.heap.peek() {
            if self.get(seq).is_some() {
                return Some(seq);
            }
            self.heap.pop();
        }
        unreachable!("a prioritized queue keys every live entry")
    }

    /// Removes and returns the next entry in `(priority desc, seq asc)`
    /// order.
    pub fn pop(&mut self) -> Option<Arc<Task>> {
        let seq = self.head()?;
        Some(self.remove(seq))
    }

    /// Readiness pop (dmdar): prices the top priority's entries with
    /// `score`, oldest first and stopping at the first zero, and removes
    /// the cheapest (ties go to the older). Returns it with the number of
    /// older top-priority entries it jumped — 0 for an in-order dispatch.
    /// A jump ages the oldest entry; aged [`AGE_LIMIT`] times, that entry
    /// dispatches next unpriced.
    pub fn pop_ready(
        &mut self,
        mut score: impl FnMut(&Task) -> VTime,
    ) -> Option<(Arc<Task>, usize)> {
        let head = self.head()?;
        let offset = (head - self.base) as usize;
        let oldest = self.slots[offset].as_ref().expect("head live");
        if oldest.skipped >= AGE_LIMIT {
            return Some((self.remove(head), 0));
        }
        let priority = oldest.task.priority;
        let mut best: Option<(VTime, u64, usize)> = None;
        let top = self
            .slots
            .range(offset..)
            .zip(head..)
            .filter_map(|(s, seq)| s.as_ref().map(|e| (e, seq)))
            .filter(|(e, _)| e.task.priority == priority);
        for (older, (e, seq)) in top.enumerate() {
            let cost = score(&e.task);
            if best.is_none_or(|(b, _, _)| cost < b) {
                best = Some((cost, seq, older));
            }
            if cost == VTime::ZERO {
                break;
            }
        }
        let (_, seq, jumped) = best.expect("the head is scored");
        if jumped > 0 {
            self.slots[offset].as_mut().expect("head live").skipped += 1;
        }
        Some((self.remove(seq), jumped))
    }

    /// Removes the first entry in dispatch order that satisfies `pred`;
    /// the entries skipped keep their places.
    pub fn pop_where(&mut self, pred: impl Fn(&Task) -> bool) -> Option<Arc<Task>> {
        if self.prioritized == 0 {
            let seq = (self.base..)
                .zip(&self.slots)
                .find(|(_, s)| s.as_ref().is_some_and(|e| pred(&e.task)))?
                .0;
            return Some(self.remove(seq));
        }
        let mut skipped = Vec::new();
        let mut found = None;
        while let Some(key) = self.heap.pop() {
            let (_, Reverse(seq)) = key;
            let Some(e) = self.get(seq) else {
                continue; // stale
            };
            if pred(&e.task) {
                found = Some(seq);
                break;
            }
            skipped.push(key);
        }
        self.heap.extend(skipped);
        found.map(|seq| self.remove(seq))
    }

    /// The queued tasks, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Task>> {
        self.slots.iter().flatten().map(|e| &e.task)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::{Arch, Codelet};
    use crate::task::TaskBuilder;

    fn task(id: u64, priority: i32) -> Arc<Task> {
        let c = Arc::new(Codelet::new("t").with_impl(Arch::Cpu, |_| {}));
        Arc::new(TaskBuilder::new(&c).priority(priority).into_task(id))
    }

    fn drain(q: &mut ReadyQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop()).map(|t| t.id).collect()
    }

    /// A score pricing the tasks in `ready` at zero and the rest at 1µs.
    fn ready_ids(ready: &[u64]) -> impl FnMut(&Task) -> VTime + '_ {
        move |t| {
            if ready.contains(&t.id) {
                VTime::ZERO
            } else {
                VTime::from_micros(1)
            }
        }
    }

    #[test]
    fn equal_priority_pops_fifo() {
        let mut q = ReadyQueue::default();
        for id in 0..5 {
            q.push(task(id, 0));
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn higher_priority_pops_first_fifo_among_equals() {
        let mut q = ReadyQueue::default();
        q.push(task(0, 0));
        q.push(task(1, 5));
        q.push(task(2, 5));
        q.push(task(3, -1));
        assert_eq!(drain(&mut q), vec![1, 2, 0, 3]);
    }

    #[test]
    fn pop_where_skips_and_preserves_order() {
        let mut q = ReadyQueue::default();
        for id in 0..3 {
            q.push(task(id, 0));
        }
        // Skip the front entry; it must stay queued in its original slot.
        assert_eq!(q.pop_where(|t| t.id != 0).unwrap().id, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec![0, 2]);
    }

    #[test]
    fn readiness_orders_within_a_priority_only() {
        let mut q = ReadyQueue::default();
        q.push(task(0, 0));
        q.push(task(1, 0));
        q.push(task(2, 1));
        // Priority first, even over a more-ready entry; then the ready
        // entry jumps the older cold one, which counts as a reorder.
        let pop = |q: &mut ReadyQueue| q.pop_ready(ready_ids(&[1])).map(|(t, j)| (t.id, j));
        assert_eq!(pop(&mut q), Some((2, 0)));
        assert_eq!(pop(&mut q), Some((1, 1)));
        assert_eq!(pop(&mut q), Some((0, 0)));
    }

    #[test]
    fn pop_ready_prices_the_top_priority_up_to_the_first_ready_entry() {
        let mut q = ReadyQueue::default();
        q.push(task(0, 0)); // lower priority: never priced
        for id in 1..=5 {
            q.push(task(id, 1));
        }
        let mut priced = Vec::new();
        let mut score = ready_ids(&[3, 4]);
        let popped = q.pop_ready(|t| {
            priced.push(t.id);
            score(t)
        });
        assert_eq!(popped.map(|(t, j)| (t.id, j)), Some((3, 2)));
        assert_eq!(priced, vec![1, 2, 3], "the scan stops at the first zero");
    }

    #[test]
    fn aging_counts_on_the_oldest_top_priority_entry() {
        let limit = AGE_LIMIT as u64;
        let mut q = ReadyQueue::default();
        q.push(task(0, 0)); // older, but a lower priority: never aged
        q.push(task(1, 1)); // the oldest top-priority entry, and cold
        for id in 2..=limit + 2 {
            q.push(task(id, 1));
        }
        let hot: Vec<u64> = (2..=limit + 2).collect();
        for id in 2..limit + 2 {
            let popped = q.pop_ready(ready_ids(&hot));
            assert_eq!(popped.map(|(t, j)| (t.id, j)), Some((id, 1)));
        }
        // Passed over AGE_LIMIT times: dispatches unpriced, in order.
        let popped = q.pop_ready(|_| unreachable!("the aged entry is not priced"));
        assert_eq!(popped.map(|(t, j)| (t.id, j)), Some((1, 0)));
        assert_eq!(drain(&mut q), vec![limit + 2, 0]);
    }

    /// Churns 10,000 readiness pops through a queue holding `held` besides.
    /// Each pop prefers the entry just pushed, so most picks remove an
    /// entry from mid-queue (aging dispatches the oldest every 17th pop).
    /// Returns the heap size and the live entries.
    fn churn(held: Option<Arc<Task>>) -> (usize, usize) {
        let mut q = ReadyQueue::default();
        if let Some(t) = held {
            q.push(t);
        }
        for id in 0..8 {
            q.push(task(id, 0));
        }
        for id in 8..10_008 {
            q.push(task(id, 0));
            assert!(q.pop_ready(ready_ids(&[id])).is_some());
        }
        (q.heap.len(), q.len())
    }

    #[test]
    fn heap_stays_bounded_by_live_entries() {
        // FIFO order needs no keys at all.
        assert_eq!(churn(None), (0, 8));
        // A low-priority entry holds the queue in heap order: the keys the
        // mid-queue picks leave behind are swept.
        let (keys, live) = churn(Some(task(99, -1)));
        assert_eq!(live, 9);
        assert!(keys <= 2 * live, "{keys} heap keys for {live} live entries");
    }
}
