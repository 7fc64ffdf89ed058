//! Flat, allocation-free building blocks for the simulation kernel hot loop.
//!
//! The closed-loop drivers schedule the worker with the smallest
//! `(clock, worker-id)` pair. The original kernel found it with an O(workers)
//! scan per event; [`EventQueue`] is the profile-guided replacement — an
//! index-based binary min-heap stored in one flat `Vec<(u64, u32)>` that is
//! allocated once per run and never again. Because the key is the *total*
//! lexicographic order `(time, worker)` (worker ids are unique within a
//! queue), the heap has no ties to break and pops the exact sequence the
//! min-scan produced — the property the kernel-equivalence proptests pin.
//!
//! Nothing here knows about clocks or horizons; the queue is plain data so
//! the drivers (and the criterion microbenches) can drive it directly.

use crate::time::SimTime;

/// One schedulable event: the time a worker becomes runnable, and its id.
/// Ordered lexicographically — `(time, worker)` — matching the pinned
/// tie-break contract of `ClosedLoopDriver`.
pub type Event = (u64, u32);

/// A flat binary min-heap of `(time_ns, worker_id)` events.
///
/// * One contiguous allocation, made at construction (`with_capacity`) or on
///   first growth; steady-state `push`/`pop` never allocate.
/// * Total order: worker ids are unique per queue, so equal times still
///   compare deterministically and the pop order is a pure function of the
///   pushed set — byte-identical across runs and platforms.
#[derive(Debug, Default, Clone)]
pub struct EventQueue {
    heap: Vec<Event>,
}

impl EventQueue {
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// A queue with room for `n` events before any reallocation.
    pub fn with_capacity(n: usize) -> EventQueue {
        EventQueue {
            heap: Vec::with_capacity(n),
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all events, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// The smallest `(time, worker)` event, if any.
    #[inline]
    pub fn peek(&self) -> Option<Event> {
        self.heap.first().copied()
    }

    /// Insert an event. O(log n), allocation-free at steady state.
    #[inline]
    pub fn push(&mut self, at: SimTime, worker: u32) {
        self.heap.push((at.0, worker));
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the smallest `(time, worker)` event.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        self.heap.swap(0, n - 1);
        let min = self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        min
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] < self.heap[parent] {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut smallest = i;
            if l < n && self.heap[l] < self.heap[smallest] {
                smallest = l;
            }
            if r < n && self.heap[r] < self.heap[smallest] {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_worker_order() {
        let mut q = EventQueue::with_capacity(8);
        q.push(SimTime(300), 0);
        q.push(SimTime(100), 2);
        q.push(SimTime(100), 1);
        q.push(SimTime(200), 3);
        assert_eq!(q.peek(), Some((100, 1)));
        assert_eq!(q.pop(), Some((100, 1)));
        assert_eq!(q.pop(), Some((100, 2)));
        assert_eq!(q.pop(), Some((200, 3)));
        assert_eq!(q.pop(), Some((300, 0)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_heap_invariant() {
        let mut q = EventQueue::new();
        for w in 0..16u32 {
            q.push(SimTime(1_000 - w as u64 * 10), w);
        }
        // re-arm each popped worker later in time, like the driver does
        for _ in 0..200 {
            let (t, w) = q.pop().unwrap();
            let next = q.peek().unwrap();
            assert!((t, w) <= next, "pop returned a non-minimal event");
            q.push(SimTime(t + 37 + w as u64), w);
        }
        assert_eq!(q.len(), 16);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut q = EventQueue::with_capacity(4);
        for w in 0..4 {
            q.push(SimTime(w as u64), w);
        }
        let cap = q.heap.capacity();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.heap.capacity(), cap);
    }
}
