//! The ready queue shared by eager, random and the dmda family.
//!
//! Entries dispatch in `(priority desc, readiness score asc, push seq asc)`
//! order. Every policy but dmdar leaves the score at zero, which makes that
//! highest-priority-first, FIFO among equals; dmdar scores each entry with
//! the cost of fetching the read operands it is missing from the worker's
//! memory node, so among equal priorities the most "ready" task goes first.
//!
//! Sequence numbers are monotonic, so entries live in a dense slab
//! (`slots[i]` holds sequence `base + i`) instead of a map: lookup is
//! pointer arithmetic, and the slab's front compacts away as entries leave
//! — the front slot is always live while the queue is non-empty, which
//! makes the FIFO-oldest entry (the aging candidate) an O(1) read.
//!
//! While every live entry has priority 0 and score 0 — the common case:
//! no priorities set, or every operand already resident — dispatch order
//! is plain FIFO, pops take the slab front in O(1) and the heap stays
//! empty. The first *keyed* entry (nonzero priority or score) builds a
//! heap of one key per live entry, and pops go through it in O(log n)
//! until the last keyed entry leaves. Rescoring pushes a fresh key and
//! leaves the old one behind; a popped key whose score no longer matches
//! its entry is stale and skipped, and the heap is rebuilt from the live
//! entries once stale keys outnumber them, so it stays bounded by the live
//! count.
//!
//! Starvation of transfer-heavy tasks is bounded by aging: every time the
//! front entry is passed over by a readiness reorder within its own
//! priority its skip count increments, and once it reaches
//! [`AGE_LIMIT`] the front dispatches next regardless of readiness.

use super::dmda::AGE_LIMIT;
use super::fair::LaneQueue;
use crate::hash::{FastMap, FastSet};
use crate::task::Task;
use peppher_sim::VTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

struct Entry {
    task: Arc<Task>,
    /// Readiness score cached at push (or last rescore) time.
    score: VTime,
    /// Times this entry, while at the queue front, was passed over by a
    /// readiness reorder (the aging term).
    skipped: u32,
}

impl Entry {
    /// Whether the entry's key can order it anywhere but FIFO.
    fn keyed(&self) -> bool {
        self.task.priority != 0 || self.score != VTime::ZERO
    }
}

/// Max-heap key ordering `(priority desc, score asc, seq asc)` first.
type Key = Reverse<(Reverse<i32>, VTime, u64)>;

/// A heap-ordered ready queue (see module docs). Not internally locked —
/// callers wrap it in their own per-worker or central mutex.
#[derive(Default)]
pub(super) struct ReadyQueue {
    slots: VecDeque<Option<Entry>>,
    /// Sequence number of `slots[0]`; `base + slots.len()` is the next
    /// sequence to assign.
    base: u64,
    /// Live entries (slots not yet removed).
    live: usize,
    /// Live keyed entries; 0 means FIFO order and an empty heap.
    keyed: usize,
    heap: BinaryHeap<Key>,
    /// Read-operand handle → sequence numbers of the scored entries that
    /// read it, so a residency delta rescores only those entries.
    by_handle: FastMap<u64, Vec<u64>>,
    /// Handles that moved since this queue last reconciled its scores.
    /// Filled by the scheduler's index sync; drained by [`ReadyQueue::rescore`].
    dirty: FastSet<u64>,
}

impl LaneQueue for ReadyQueue {
    fn lane_len(&self) -> usize {
        self.live
    }
}

impl ReadyQueue {
    fn key(e: &Entry, seq: u64) -> Key {
        Reverse((Reverse(e.task.priority), e.score, seq))
    }

    fn get(&self, seq: u64) -> Option<&Entry> {
        self.slots
            .get(seq.checked_sub(self.base)? as usize)?
            .as_ref()
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut Entry> {
        let idx = seq.checked_sub(self.base)? as usize;
        self.slots.get_mut(idx)?.as_mut()
    }

    /// Enqueues `task` with readiness `score`. `None` — every policy but
    /// dmdar — queues it by priority and arrival alone and keeps it out of
    /// the rescoring index.
    pub fn push(&mut self, task: Arc<Task>, score: Option<VTime>) {
        let seq = self.base + self.slots.len() as u64;
        if score.is_some() {
            for (h, mode) in &task.accesses {
                if mode.reads() {
                    self.by_handle.entry(h.id()).or_default().push(seq);
                }
            }
        }
        self.slots.push_back(Some(Entry {
            task,
            score: score.unwrap_or(VTime::ZERO),
            skipped: 0,
        }));
        self.live += 1;
        self.publish(seq, false);
    }

    /// Publishes entry `seq`'s key after it was pushed or rescored;
    /// `was_keyed` is whether it counted as keyed before.
    fn publish(&mut self, seq: u64, was_keyed: bool) {
        let e = self.get(seq).expect("live entry");
        let key = Self::key(e, seq);
        match (was_keyed, e.keyed()) {
            (false, true) => {
                self.keyed += 1;
                if self.keyed == 1 {
                    // Leaving FIFO order: every live entry needs its key.
                    self.rebuild_heap();
                    return;
                }
            }
            (true, false) => self.keyed -= 1,
            _ => {}
        }
        if self.keyed == 0 {
            self.heap.clear();
        } else {
            self.heap.push(key);
        }
    }

    fn rebuild_heap(&mut self) {
        self.heap = (self.base..)
            .zip(&self.slots)
            .filter_map(|(seq, s)| s.as_ref().map(|e| Self::key(e, seq)))
            .collect();
    }

    fn remove(&mut self, seq: u64) -> Arc<Task> {
        let e = self.slots[(seq - self.base) as usize]
            .take()
            .expect("sequence number queued");
        self.live -= 1;
        if e.keyed() {
            self.keyed -= 1;
            if self.keyed == 0 {
                self.heap.clear();
            }
        }
        // Compact dead front slots so `base` stays the live FIFO front.
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        if !self.by_handle.is_empty() {
            for (h, mode) in &e.task.accesses {
                if mode.reads() {
                    if let Some(seqs) = self.by_handle.get_mut(&h.id()) {
                        seqs.retain(|&s| s != seq);
                        if seqs.is_empty() {
                            self.by_handle.remove(&h.id());
                        }
                    }
                }
            }
        }
        e.task
    }

    /// Pops heap keys until one matches a live entry, and returns it.
    fn pop_live_key(&mut self) -> Option<Key> {
        while let Some(key) = self.heap.pop() {
            let Reverse((_, score, seq)) = key;
            if self.get(seq).is_some_and(|e| e.score == score) {
                return Some(key);
            }
        }
        None
    }

    /// Rebuilds the heap once stale keys (left by rescores and aged-out
    /// dispatches) outnumber the live entries.
    fn bound_heap(&mut self) {
        if self.heap.len() > 2 * self.live {
            self.rebuild_heap();
        }
    }

    /// Removes and returns the next entry to dispatch, with the number of
    /// older live entries a readiness reorder jumped (0 when the dispatch
    /// followed priority-then-FIFO order). Scores must already be
    /// reconciled ([`ReadyQueue::rescore`]).
    pub fn pop(&mut self) -> Option<(Arc<Task>, usize)> {
        if self.keyed == 0 {
            return (self.live > 0).then(|| (self.remove(self.base), 0));
        }
        let key = self.pop_live_key().expect("keyed queues key every entry");
        let Reverse((Reverse(priority), _, seq)) = key;
        let front = self.base;
        let front_entry = self.get(front).expect("front live");
        // Only a jump within the front's own priority is a readiness
        // reorder; a higher-priority entry overtakes the front by right.
        if seq == front || front_entry.task.priority != priority {
            return Some((self.remove(seq), 0));
        }
        if front_entry.skipped >= AGE_LIMIT {
            // Aged out: the front dispatches FIFO. The more-ready entry
            // keeps its place; the front's own key retires as stale.
            self.heap.push(key);
            let task = self.remove(front);
            self.bound_heap();
            return Some((task, 0));
        }
        self.get_mut(front).expect("front live").skipped += 1;
        let jumped = self
            .slots
            .iter()
            .take((seq - self.base) as usize)
            .filter(|s| s.is_some())
            .count();
        Some((self.remove(seq), jumped))
    }

    /// Removes the first entry in dispatch order that satisfies `pred`;
    /// the entries skipped keep their places.
    pub fn pop_where(&mut self, pred: impl Fn(&Task) -> bool) -> Option<Arc<Task>> {
        if self.keyed == 0 {
            let seq = (self.base..)
                .zip(&self.slots)
                .find(|(_, s)| s.as_ref().is_some_and(|e| pred(&e.task)))?
                .0;
            return Some(self.remove(seq));
        }
        let mut skipped = Vec::new();
        let mut found = None;
        while let Some(key) = self.pop_live_key() {
            let Reverse((_, _, seq)) = key;
            if pred(&self.get(seq).expect("live key").task) {
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

    /// Records that the residency of `handles` moved; the scored entries
    /// reading any of them are rescored before the next dispatch.
    pub fn mark_moved(&mut self, handles: &[u64]) {
        let by_handle = &self.by_handle;
        self.dirty
            .extend(handles.iter().filter(|&h| by_handle.contains_key(h)));
    }

    /// Whether a residency move awaits [`ReadyQueue::rescore`].
    pub fn is_dirty(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Rescores every entry that reads a moved handle with `score`.
    pub fn rescore(&mut self, score: impl Fn(&Task) -> VTime) {
        if self.dirty.is_empty() {
            return;
        }
        let by_handle = &self.by_handle;
        let mut seqs: Vec<u64> = self
            .dirty
            .drain()
            .filter_map(|h| by_handle.get(&h))
            .flatten()
            .copied()
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        for seq in seqs {
            let e = self.get_mut(seq).expect("indexed entries are live");
            let fresh = score(&e.task);
            if fresh != e.score {
                let was_keyed = e.keyed();
                e.score = fresh;
                self.publish(seq, was_keyed);
            }
        }
        self.bound_heap();
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
        std::iter::from_fn(|| q.pop()).map(|(t, _)| t.id).collect()
    }

    #[test]
    fn equal_priority_pops_fifo() {
        let mut q = ReadyQueue::default();
        for id in 0..5 {
            q.push(task(id, 0), None);
        }
        assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4]);
        assert_eq!(q.lane_len(), 0);
    }

    #[test]
    fn higher_priority_pops_first_fifo_among_equals() {
        let mut q = ReadyQueue::default();
        q.push(task(0, 0), None);
        q.push(task(1, 5), None);
        q.push(task(2, 5), None);
        q.push(task(3, -1), None);
        assert_eq!(drain(&mut q), vec![1, 2, 0, 3]);
    }

    #[test]
    fn pop_where_skips_and_preserves_order() {
        let mut q = ReadyQueue::default();
        for id in 0..3 {
            q.push(task(id, 0), None);
        }
        // Skip the front entry; it must stay queued in its original slot.
        assert_eq!(q.pop_where(|t| t.id != 0).unwrap().id, 1);
        assert_eq!(q.lane_len(), 2);
        assert_eq!(drain(&mut q), vec![0, 2]);
    }

    #[test]
    fn readiness_orders_within_a_priority_only() {
        let mut q = ReadyQueue::default();
        q.push(task(0, 0), Some(VTime::from_micros(5)));
        q.push(task(1, 0), Some(VTime::ZERO));
        q.push(task(2, 1), Some(VTime::from_micros(9)));
        // Priority first, even over a more-ready entry; then the ready
        // entry jumps the older cold one, which counts as a reorder.
        assert_eq!(q.pop().map(|(t, j)| (t.id, j)), Some((2, 0)));
        assert_eq!(q.pop().map(|(t, j)| (t.id, j)), Some((1, 1)));
        assert_eq!(q.pop().map(|(t, j)| (t.id, j)), Some((0, 0)));
    }

    /// Churns 10,000 zero-score pops through a queue holding `held`
    /// besides, and returns its heap size over its live entries.
    fn churn(held: Option<Arc<Task>>) -> (usize, usize) {
        let mut q = ReadyQueue::default();
        if let Some(t) = held {
            q.push(t, Some(VTime::from_micros(1)));
        }
        for id in 0..8 {
            q.push(task(id, 0), Some(VTime::ZERO));
        }
        for id in 8..10_008 {
            q.push(task(id, 0), Some(VTime::ZERO));
            assert_eq!(q.pop().unwrap().0.id, id - 8);
        }
        (q.heap.len(), q.lane_len())
    }

    #[test]
    fn heap_stays_bounded_by_live_entries() {
        // FIFO order needs no keys at all.
        assert_eq!(churn(None), (0, 8));
        // A low-priority keyed entry holds the queue in heap order: every
        // pop retires its own key.
        let (keys, live) = churn(Some(task(99, -1)));
        assert!(keys <= live, "{keys} heap keys for {live} live entries");
    }
}
