//! The event loop's calendar of per-node events: an indexed binary
//! min-heap over a fixed id space, each id scheduled at most once.
//! [`MergedSource`](crate::MergedSource) keys its sources' next arrivals
//! in one too, `(arrival, source index)`.
//!
//! `engine::drive` numbers a tree's per-node events `Tx(node) = node`
//! and `Deliver(node) = n + node` and keys them `(time, id)`, so the
//! minimum is the next per-node event with equal-time ties broken as
//! `Tx(node asc) < Deliver(node asc)` — the order the engine's full
//! scan used. Scheduling, rescheduling and unscheduling cost
//! O(log n); reading the minimum costs O(1). The heap never grows past
//! its id space, so after construction nothing allocates.

use crate::time::SimTime;

/// `pos` value of an id that is not scheduled.
const ABSENT: usize = usize::MAX;

/// An indexed binary min-heap over the ids `0..capacity`, keyed
/// `(time, id)`.
pub(crate) struct Calendar {
    /// The scheduled ids, in heap order.
    heap: Vec<usize>,
    /// Per id: its index in `heap`, or `ABSENT`.
    pos: Vec<usize>,
    /// Per id: its time (meaningful only while scheduled).
    at: Vec<SimTime>,
}

impl Calendar {
    /// An empty calendar over the ids `0..ids`.
    pub(crate) fn new(ids: usize) -> Self {
        Calendar {
            heap: Vec::with_capacity(ids),
            pos: vec![ABSENT; ids],
            at: vec![SimTime::MAX; ids],
        }
    }

    /// The earliest scheduled id and its time; the lowest id among
    /// equal times.
    #[inline]
    pub(crate) fn peek(&self) -> Option<(usize, SimTime)> {
        self.heap.first().map(|&id| (id, self.at[id]))
    }

    /// Schedules `id` at `t`, moving it if it is already scheduled.
    pub(crate) fn set(&mut self, id: usize, t: SimTime) {
        let old = std::mem::replace(&mut self.at[id], t);
        match self.pos[id] {
            ABSENT => {
                self.heap.push(id);
                self.sift_up(self.heap.len() - 1);
            }
            i if t < old => self.sift_up(i),
            i => self.sift_down(i),
        }
    }

    /// Unschedules `id`; a no-op when it is not scheduled.
    pub(crate) fn remove(&mut self, id: usize) {
        let i = std::mem::replace(&mut self.pos[id], ABSENT);
        if i == ABSENT {
            return;
        }
        let last = self.heap.pop().expect("a scheduled id is in the heap");
        if i < self.heap.len() {
            // `last` takes the hole and may belong above or below it.
            self.heap[i] = last;
            self.sift_up(i);
            self.sift_down(self.pos[last]);
        }
    }

    /// Whether `a` fires before `b`.
    #[inline]
    fn before(&self, a: usize, b: usize) -> bool {
        (self.at[a], a) < (self.at[b], b)
    }

    /// Moves the id at heap index `i` up to its place.
    fn sift_up(&mut self, mut i: usize) {
        let id = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let above = self.heap[parent];
            if !self.before(id, above) {
                break;
            }
            self.heap[i] = above;
            self.pos[above] = i;
            i = parent;
        }
        self.heap[i] = id;
        self.pos[id] = i;
    }

    /// Moves the id at heap index `i` down to its place.
    fn sift_down(&mut self, mut i: usize) {
        let id = self.heap[i];
        let len = self.heap.len();
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.before(self.heap[child + 1], self.heap[child]) {
                child += 1;
            }
            let below = self.heap[child];
            if !self.before(below, id) {
                break;
            }
            self.heap[i] = below;
            self.pos[below] = i;
            i = child;
        }
        self.heap[i] = id;
        self.pos[id] = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accturbo_prng::{Rng, SeedableRng, StdRng};

    /// The naive oracle: the lowest `(time, id)` over a flat slot scan.
    fn scan_min(slots: &[Option<SimTime>]) -> Option<(usize, SimTime)> {
        slots
            .iter()
            .enumerate()
            .filter_map(|(id, t)| t.map(|t| (t, id)))
            .min()
            .map(|(t, id)| (id, t))
    }

    #[test]
    fn equal_times_pop_tx_before_deliver_and_lower_nodes_first() {
        // Three nodes: Tx(i) = i, Deliver(i) = 3 + i.
        let n = 3;
        let mut cal = Calendar::new(2 * n);
        let t = SimTime::from_micros(5);
        cal.set(n, t); // Deliver(0)
        cal.set(2, t); // Tx(2)
        assert_eq!(cal.peek(), Some((2, t)), "Tx(2) beats Deliver(0)");
        cal.set(1, t); // Tx(1)
        assert_eq!(cal.peek(), Some((1, t)), "two Tx at once: lower node");
        cal.remove(1);
        assert_eq!(cal.peek(), Some((2, t)));
        cal.remove(2);
        assert_eq!(cal.peek(), Some((n, t)), "then the Deliver");
        cal.set(n + 2, SimTime::from_micros(4)); // Deliver(2), earlier
        assert_eq!(cal.peek(), Some((n + 2, SimTime::from_micros(4))));
        cal.remove(n + 2);
        cal.remove(n + 2); // not scheduled: a no-op
        cal.remove(n);
        assert_eq!(cal.peek(), None);
    }

    #[test]
    fn random_operations_match_a_sorted_scan() {
        let mut rng = StdRng::seed_from_u64(0xca1e_0da2);
        for case in 0..200 {
            let ids = rng.gen_range(1..40usize);
            let mut cal = Calendar::new(ids);
            let mut slots: Vec<Option<SimTime>> = vec![None; ids];
            for step in 0..400 {
                let id = rng.gen_range(0..ids);
                // Few distinct times, so equal-time ties are common.
                let t = SimTime::from_nanos(rng.gen_range(0..8u64));
                match rng.gen_range(0..4u32) {
                    0 | 1 => {
                        cal.set(id, t);
                        slots[id] = Some(t);
                    }
                    2 => {
                        cal.remove(id);
                        slots[id] = None;
                    }
                    _ => {
                        // Pop the minimum, as the loop does when it fires.
                        if let Some((min, _)) = cal.peek() {
                            cal.remove(min);
                            slots[min] = None;
                        }
                    }
                }
                assert_eq!(
                    cal.peek(),
                    scan_min(&slots),
                    "case {case} step {step}: calendar and scan disagree"
                );
            }
        }
    }
}
