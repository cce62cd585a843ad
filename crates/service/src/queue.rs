//! Bounded producer/consumer queue with accounted overload.
//!
//! Two overload policies, chosen per push:
//!
//! * blocking ([`BoundedQueue::push_blocking`], and the batch form
//!   [`BoundedQueue::push_all_blocking`]) — the producer waits for space
//!   (replay mode: a recorded log must reach the aggregator losslessly,
//!   or the determinism contract with the offline loop is void);
//! * drop-oldest ([`BoundedQueue::push_all_drop_oldest`], batches only)
//!   — a full queue evicts its oldest evictable element to admit the new
//!   one (live mode: fresh events matter more than stale ones under
//!   overload). The caller says what may be evicted; what may not is
//!   never lost. Every eviction increments a counter; drops are **never
//!   silent**.
//!
//! The consumer takes a batch with [`BoundedQueue::pop_all`]: one lock
//! and one wake-up hand over many items, which is what the sharded
//! router's per-event path uses (a condvar wake per event costs more
//! than decoding and folding it). Capacity counts *items* under every
//! operation.
//!
//! The queue also tracks its high-water mark as a backpressure
//! diagnostic: a high-water mark at capacity means the consumer fell
//! behind at least once.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

struct Inner<T> {
    buf: VecDeque<T>,
    closed: bool,
}

/// Bounded FIFO shared between ingestion threads and the tuning loop.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    dropped: AtomicU64,
    high_water: AtomicU64,
}

impl<T> BoundedQueue<T> {
    /// Queue holding at most `capacity` elements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        Self {
            inner: Mutex::new(Inner { buf: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            dropped: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        }
    }

    fn note_level(&self, len: usize) {
        self.high_water.fetch_max(len as u64, Ordering::Relaxed);
    }

    /// Enqueue, waiting for space if full. Returns `false` (item
    /// discarded) only if the queue was closed.
    pub fn push_blocking(&self, item: T) -> bool {
        let mut g = self.inner.lock().expect("queue lock poisoned");
        while g.buf.len() >= self.capacity && !g.closed {
            g = self.not_full.wait(g).expect("queue lock poisoned");
        }
        if g.closed {
            return false;
        }
        g.buf.push_back(item);
        self.note_level(g.buf.len());
        drop(g);
        self.not_empty.notify_one();
        true
    }

    /// Enqueue all of `items` in order, leaving the vector empty (its
    /// allocation is kept for reuse). Pushes what fits, waits for space,
    /// continues — the queue never holds more than `capacity` items, so a
    /// batch may be larger than the queue. Returns `false` (remaining
    /// items discarded) only if the queue was closed.
    pub fn push_all_blocking(&self, items: &mut Vec<T>) -> bool {
        if items.is_empty() {
            return true;
        }
        let mut rest = items.drain(..);
        let mut g = self.inner.lock().expect("queue lock poisoned");
        loop {
            while g.buf.len() >= self.capacity && !g.closed {
                g = self.not_full.wait(g).expect("queue lock poisoned");
            }
            if g.closed {
                return false;
            }
            let room = self.capacity - g.buf.len();
            g.buf.extend(rest.by_ref().take(room));
            self.note_level(g.buf.len());
            if rest.len() == 0 {
                break;
            }
            // Full with items left over: the consumer has to run first.
            self.not_empty.notify_one();
        }
        drop(g);
        self.not_empty.notify_one();
        true
    }

    /// Enqueue all of `items` in order, leaving the vector empty. Every
    /// item that does not fit evicts the oldest queued element that is
    /// `evictable` — possibly an earlier item of the same batch — and
    /// every eviction is counted in [`Self::dropped`], exactly as if the
    /// items had been pushed one by one. With nothing evictable queued,
    /// it waits for room as [`Self::push_all_blocking`] does, so what
    /// may not be lost never is. Returns `false` (remaining items
    /// discarded) only if the queue was closed.
    pub fn push_all_drop_oldest(
        &self,
        items: &mut Vec<T>,
        evictable: impl Fn(&T) -> bool,
    ) -> bool {
        if items.is_empty() {
            return true;
        }
        let mut g = self.inner.lock().expect("queue lock poisoned");
        let mut evicted = 0;
        for item in items.drain(..) {
            while g.buf.len() >= self.capacity && !g.closed {
                match g.buf.iter().position(&evictable) {
                    Some(oldest) => {
                        g.buf.remove(oldest);
                        evicted += 1;
                    }
                    None => {
                        self.note_level(g.buf.len());
                        self.not_empty.notify_one();
                        g = self.not_full.wait(g).expect("queue lock poisoned");
                    }
                }
            }
            if g.closed {
                break;
            }
            g.buf.push_back(item);
        }
        self.dropped.fetch_add(evicted, Ordering::Relaxed);
        self.note_level(g.buf.len());
        let open = !g.closed;
        drop(g);
        self.not_empty.notify_one();
        open
    }

    /// Dequeue the oldest element, waiting while the queue is empty and
    /// open. `None` means closed *and* drained — the consumer's signal to
    /// finish up.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = g.buf.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).expect("queue lock poisoned");
        }
    }

    /// Take everything queued, oldest first, by swapping the queue's
    /// buffer with the (empty) `into` — one lock however many items —
    /// waiting while the queue is empty and open. `false` means closed
    /// *and* drained. Handing the same deque back on every call recycles
    /// both allocations.
    ///
    /// # Panics
    ///
    /// Panics if `into` is not empty.
    pub fn pop_all(&self, into: &mut VecDeque<T>) -> bool {
        assert!(into.is_empty(), "pop_all swaps into an empty buffer");
        let mut g = self.inner.lock().expect("queue lock poisoned");
        while g.buf.is_empty() {
            if g.closed {
                return false;
            }
            g = self.not_empty.wait(g).expect("queue lock poisoned");
        }
        std::mem::swap(&mut g.buf, into);
        drop(g);
        self.not_full.notify_all();
        true
    }

    /// Close the queue: producers stop, the consumer drains what remains.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Elements evicted by [`Self::push_all_drop_oldest`] so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Highest fill level observed.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Current fill level.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").buf.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn fifo_order_preserved() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            assert!(q.push_blocking(i));
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drop_oldest_counts_every_eviction() {
        let q = BoundedQueue::new(3);
        for i in 0..10 {
            assert!(q.push_all_drop_oldest(&mut vec![i], |_| true));
        }
        assert_eq!(q.dropped(), 7);
        assert_eq!(q.high_water(), 3);
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![7, 8, 9], "newest events survive");
    }

    /// Drop-oldest sheds only what it may: a non-evictable item at the
    /// head survives while evictable ones behind it go, oldest first;
    /// with nothing evictable queued, the push waits for the consumer
    /// rather than overfill or shed.
    #[test]
    fn a_non_evictable_head_survives_eviction() {
        let q = Arc::new(BoundedQueue::new(3));
        let evictable = |i: &i32| *i >= 0;
        assert!(q.push_all_drop_oldest(&mut vec![-1, 1, 2], evictable));
        assert!(q.push_all_drop_oldest(&mut vec![3, 4], evictable));
        assert_eq!(q.dropped(), 2);
        let mut got = VecDeque::new();
        assert!(q.pop_all(&mut got));
        assert_eq!(got, VecDeque::from([-1, 3, 4]), "the head stays, 1 and 2 go");

        assert!(q.push_all_drop_oldest(&mut vec![-2, -3, -4], evictable));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_all_drop_oldest(&mut vec![-5, 5], evictable))
        };
        thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.len(), 3, "a full queue of what may not be shed makes the push wait");
        got.clear();
        let mut seen = Vec::new();
        while seen.len() < 5 {
            assert!(q.pop_all(&mut got));
            seen.extend(got.drain(..));
        }
        assert!(producer.join().unwrap());
        assert_eq!(seen, [-2, -3, -4, -5, 5]);
        assert_eq!(q.dropped(), 2, "nothing more was shed");
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn blocking_push_waits_for_consumer() {
        let q = Arc::new(BoundedQueue::new(2));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                for i in 0..100 {
                    assert!(q.push_blocking(i));
                }
                q.close();
            })
        };
        let mut seen = Vec::new();
        while let Some(x) = q.pop() {
            seen.push(x);
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..100).collect::<Vec<i32>>());
        assert_eq!(q.dropped(), 0, "blocking mode never drops");
    }

    #[test]
    fn close_releases_blocked_producer() {
        let q = Arc::new(BoundedQueue::new(1));
        assert!(q.push_blocking(1));
        let blocked = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push_blocking(2))
        };
        thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(!blocked.join().unwrap(), "push after close reports failure");
        assert_eq!(q.pop(), Some(1), "already-queued items still drain");
        assert_eq!(q.pop(), None);
    }
    #[test]
    fn fifo_order_across_single_and_batch_pushes() {
        let q = BoundedQueue::new(64);
        let mut batch = vec![1, 2, 3];
        assert!(q.push_blocking(0));
        assert!(q.push_all_blocking(&mut batch));
        assert!(batch.is_empty(), "the batch is handed over, not copied");
        batch.push(4);
        assert!(q.push_all_drop_oldest(&mut batch, |_| true));
        batch.extend([5, 6]);
        assert!(q.push_all_drop_oldest(&mut batch, |_| true));
        assert!(q.push_all_blocking(&mut batch), "an empty batch is a no-op");
        assert!(q.push_blocking(7));
        assert_eq!(q.len(), 8);
        assert_eq!(q.pop(), Some(0), "single pops and pop_all share one order");
        let mut got = VecDeque::new();
        assert!(q.pop_all(&mut got));
        assert_eq!(got, (1..8).collect::<VecDeque<i32>>());
        assert!(q.is_empty());
    }

    #[test]
    fn blocking_batch_larger_than_capacity_never_overfills() {
        let q = Arc::new(BoundedQueue::new(4));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut batch: Vec<i32> = (0..50).collect();
                assert!(q.push_all_blocking(&mut batch));
                let mut batch: Vec<i32> = (50..53).collect();
                assert!(q.push_all_blocking(&mut batch));
                q.close();
            })
        };
        let mut seen = Vec::new();
        let mut got = VecDeque::new();
        while q.pop_all(&mut got) {
            assert!(got.len() <= 4, "one swap never carries more than capacity");
            seen.extend(got.drain(..));
            thread::sleep(std::time::Duration::from_millis(1)); // slow consumer
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..53).collect::<Vec<i32>>());
        assert!(q.high_water() <= 4, "high water {} exceeds capacity", q.high_water());
        assert_eq!(q.dropped(), 0, "blocking mode never drops");
    }

    #[test]
    fn batch_drop_oldest_accounts_for_every_item() {
        let q = BoundedQueue::new(5);
        let mut pushed = 0u64;
        let mut delivered = Vec::new();
        let mut got = VecDeque::new();
        // Batches smaller than, equal to and larger than the capacity,
        // with a partial drain in between.
        for (round, size) in [3usize, 5, 12, 1, 7].into_iter().enumerate() {
            let mut batch: Vec<u64> = (pushed..pushed + size as u64).collect();
            pushed += size as u64;
            assert!(q.push_all_drop_oldest(&mut batch, |_| true));
            assert!(q.len() <= 5);
            if round == 1 {
                assert!(q.pop_all(&mut got));
                delivered.extend(got.drain(..));
            }
        }
        q.close();
        while q.pop_all(&mut got) {
            delivered.extend(got.drain(..));
        }
        assert_eq!(delivered.len() as u64 + q.dropped(), pushed);
        assert!(delivered.windows(2).all(|w| w[0] < w[1]), "survivors stay in order");
        assert_eq!(delivered.last(), Some(&(pushed - 1)), "the newest item survives");
        assert_eq!(&delivered[delivered.len() - 5..], &[23, 24, 25, 26, 27]);
        assert_eq!(q.high_water(), 5);
    }

    #[test]
    fn close_releases_producer_blocked_mid_batch() {
        let q = Arc::new(BoundedQueue::new(2));
        let blocked = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut batch = vec![1, 2, 3, 4, 5];
                let open = q.push_all_blocking(&mut batch);
                (open, batch.len())
            })
        };
        while q.len() < 2 {
            thread::yield_now();
        }
        thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        let (open, left) = blocked.join().unwrap();
        assert!(!open, "a batch cut short by close reports failure");
        assert_eq!(left, 0, "the unsent remainder is discarded, not handed back");
        let mut got = VecDeque::new();
        assert!(q.pop_all(&mut got), "already-queued items still drain");
        assert_eq!(got, VecDeque::from([1, 2]));
        let mut batch = vec![9];
        assert!(!q.push_all_drop_oldest(&mut batch, |_| true), "closed to every push");
        assert!(batch.is_empty());
    }

    #[test]
    fn pop_all_after_close_drains_then_reports_closed() {
        let q = BoundedQueue::new(8);
        let mut batch = vec![1, 2, 3];
        assert!(q.push_all_blocking(&mut batch));
        q.close();
        let mut got = VecDeque::new();
        assert!(q.pop_all(&mut got));
        assert_eq!(got.drain(..).collect::<Vec<i32>>(), vec![1, 2, 3]);
        assert!(!q.pop_all(&mut got), "closed and drained");
        assert!(!q.pop_all(&mut got), "and stays that way");
        assert_eq!(q.pop(), None);
    }
}
