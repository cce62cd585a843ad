//! Deterministic fan-out for candidate evaluation.
//!
//! The inner loop of every selection strategy is an embarrassingly parallel
//! scan: evaluate a metric (what-if cost, benefit, ratio) for each
//! candidate, then reduce. [`parallel_map`] fans that scan across a scoped
//! thread pool while keeping the *output order identical to the input
//! order*, so any downstream reduction — in particular Algorithm 1's
//! argmax fold — sees exactly the sequence a serial scan would have
//! produced. Determinism therefore never depends on thread scheduling;
//! only the wall-clock does.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Degree of parallelism for candidate evaluation.
///
/// `Parallelism::serial()` (the default) runs everything inline on the
/// calling thread; `Parallelism::new(n)` fans work over `n` OS threads;
/// `Parallelism::available()` uses the machine's advertised core count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Use `threads` worker threads; 0 and 1 both mean "run inline".
    pub fn new(threads: usize) -> Self {
        Self {
            threads: NonZeroUsize::new(threads.max(1)).expect("max(1) is nonzero"),
        }
    }

    /// Single-threaded evaluation (the default).
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// One worker per advertised hardware thread.
    pub fn available() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::serial()
    }
}

/// Apply `f` to every item, possibly on several threads, returning results
/// in input order.
///
/// Work is distributed by an atomic cursor (work stealing at item
/// granularity), so stragglers don't idle the pool; each worker tags
/// results with their input position and the merge re-sorts, making the
/// output bit-for-bit independent of the schedule. With a serial
/// [`Parallelism`] — or fewer than two items — this is a plain `map` with
/// no thread or allocation overhead.
pub fn parallel_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = par.threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("candidate evaluation worker panicked"))
            .collect()
    });
    let mut tagged: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_on_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = parallel_map(Parallelism::serial(), &items, |&x| x * x);
        for threads in [2, 4, 8] {
            let par = parallel_map(Parallelism::new(threads), &items, |&x| x * x);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn zero_threads_means_inline() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::default(), Parallelism::serial());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1, 2, 3];
        let out = parallel_map(Parallelism::new(16), &items, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u32; 0] = [];
        let out = parallel_map(Parallelism::new(4), &items, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn all_items_are_processed_exactly_once() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(Parallelism::new(8), &items, |&x| x);
        assert_eq!(out, items);
    }

    #[test]
    fn available_parallelism_is_at_least_one() {
        assert!(Parallelism::available().threads() >= 1);
    }
}
