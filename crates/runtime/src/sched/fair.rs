//! Per-job lanes: the weighted fair-share layer under every policy.
//!
//! Multi-tenant runtimes (see [`crate::job`]) need dispatch-time isolation
//! between jobs without giving up each policy's own ordering *within* a
//! job. The compromise is a lane per job in front of the one queue every
//! policy uses — each job's tasks live in that job's own
//! [`ReadyQueue`], and the pop path walks lanes in deficit order
//! (smallest virtual-time account first, see [`crate::job::JobCore::debit`])
//! so a heavy submitter cannot starve a light one.
//!
//! The single-job case — every benchmark and most applications — must not
//! pay for any of this: with one lane, [`JobLanes::pop_with`] is a bounds
//! check and a direct call into the underlying queue, no ordering, no
//! allocation. Multi-lane pops reuse an internal scratch vector, so the
//! steady state allocates nothing either.
//!
//! Lanes are garbage-collected lazily: a lane whose job is closed (last
//! [`crate::job::JobHandle`] dropped) and fully drained is swept the next
//! time a new job's first task arrives, bounding lane count by the number
//! of *live* jobs, not the number ever created.

use super::queue::ReadyQueue;
use crate::job::JobCore;
use std::sync::Arc;

struct Lane {
    job: Arc<JobCore>,
    queue: ReadyQueue,
}

/// One queue per live job, popped in deficit order (see module docs).
/// Not internally locked — callers wrap it in the same mutex that guarded
/// the bare queue before.
pub(super) struct JobLanes {
    lanes: Vec<Lane>,
    /// Scratch for the multi-lane pop order, reused across pops.
    order: Vec<usize>,
}

impl JobLanes {
    pub fn new() -> Self {
        JobLanes {
            lanes: Vec::new(),
            order: Vec::new(),
        }
    }

    /// Tasks queued across all lanes.
    pub fn total_len(&self) -> usize {
        self.lanes.iter().map(|l| l.queue.len()).sum()
    }

    /// The queue for `job`'s lane, creating it on first use. Creation
    /// sweeps lanes whose jobs are closed and drained, so abandoned
    /// tenants do not accumulate.
    pub fn queue_for(&mut self, job: &Arc<JobCore>) -> &mut ReadyQueue {
        if let Some(i) = self.lanes.iter().position(|l| l.job.id == job.id) {
            return &mut self.lanes[i].queue;
        }
        self.lanes
            .retain(|l| l.queue.len() > 0 || !l.job.reclaimable());
        self.lanes.push(Lane {
            job: Arc::clone(job),
            queue: ReadyQueue::default(),
        });
        let last = self.lanes.len() - 1;
        &mut self.lanes[last].queue
    }

    /// Runs `pop` against candidate lanes — nonempty, job admissible
    /// (under its in-flight cap) — in ascending virtual-time-account
    /// order, returning the first hit. `pop` may return `None` (e.g. no
    /// entry runnable on this worker), in which case the next lane is
    /// tried. Single-lane fast path: no ordering, no scratch touch.
    pub fn pop_with<T>(&mut self, mut pop: impl FnMut(&mut ReadyQueue) -> Option<T>) -> Option<T> {
        if self.lanes.len() <= 1 {
            let lane = self.lanes.first_mut()?;
            if lane.queue.len() == 0 || !lane.job.admissible() {
                return None;
            }
            return pop(&mut lane.queue);
        }
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(
            (0..self.lanes.len())
                .filter(|&i| self.lanes[i].queue.len() > 0 && self.lanes[i].job.admissible()),
        );
        order.sort_by_key(|&i| self.lanes[i].job.account());
        let mut found = None;
        for &i in &order {
            if let Some(t) = pop(&mut self.lanes[i].queue) {
                found = Some(t);
                break;
            }
        }
        self.order = order;
        found
    }
}

impl Default for JobLanes {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codelet::{Arch, Codelet};
    use crate::job::JobConfig;
    use crate::task::{Task, TaskBuilder};

    fn job(id: u64, weight: u32) -> Arc<JobCore> {
        JobCore::new(
            id,
            &JobConfig {
                weight,
                ..JobConfig::default()
            },
        )
    }

    fn task(id: u64) -> Arc<Task> {
        let c = Arc::new(Codelet::new("t").with_impl(Arch::Cpu, |_| {}));
        Arc::new(TaskBuilder::new(&c).into_task(id))
    }

    fn pop_id(lanes: &mut JobLanes) -> Option<u64> {
        lanes.pop_with(ReadyQueue::pop).map(|t| t.id)
    }

    #[test]
    fn single_lane_pops_without_ordering() {
        let j = job(1, 1);
        let mut lanes = JobLanes::new();
        assert!(pop_id(&mut lanes).is_none(), "no lanes yet");
        lanes.queue_for(&j);
        assert_eq!(lanes.total_len(), 0);
        assert!(pop_id(&mut lanes).is_none(), "empty lane");
    }

    #[test]
    fn pop_order_favours_the_smallest_account() {
        // Two jobs; the heavy one has debited more virtual time, so the
        // light one's lane must be offered first.
        let light = job(1, 1);
        let heavy = job(2, 1);
        heavy.debit();
        heavy.debit();
        light.debit();

        let mut lanes = JobLanes::new();
        lanes.queue_for(&heavy).push(task(20));
        lanes.queue_for(&light).push(task(10));
        assert_eq!(lanes.total_len(), 2);
        assert_eq!(pop_id(&mut lanes), Some(10));
        assert_eq!(pop_id(&mut lanes), Some(20));
        assert_eq!(pop_id(&mut lanes), None);
    }

    #[test]
    fn inadmissible_lane_is_skipped() {
        let capped = JobCore::new(
            1,
            &JobConfig {
                max_in_flight: Some(1),
                ..JobConfig::default()
            },
        );
        let free = job(2, 1);
        // Fill the capped job's only slot.
        capped.admit();

        let mut lanes = JobLanes::new();
        lanes.queue_for(&capped).push(task(1));
        lanes.queue_for(&free).push(task(2));
        assert_eq!(pop_id(&mut lanes), Some(2));
        // Only the capped lane remains and it is inadmissible.
        assert_eq!(pop_id(&mut lanes), None);
    }

    #[test]
    fn closed_drained_lanes_are_swept_on_growth() {
        let gone = job(1, 1);
        gone.drop_user_ref(); // releases the ref `new` starts with: closed
        let live = job(2, 1);

        let mut lanes = JobLanes::new();
        lanes.queue_for(&gone);
        assert_eq!(lanes.lanes.len(), 1);
        lanes.queue_for(&live).push(task(7));
        assert_eq!(lanes.lanes.len(), 1, "drained closed lane swept");
        assert_eq!(lanes.lanes[0].job.id, 2);
    }
}
