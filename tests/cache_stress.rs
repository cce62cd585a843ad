//! Concurrency stress tests for the what-if cache.
//!
//! The parallel argmax scan hammers one [`CachingWhatIf`] from many worker
//! threads at once. These tests drive that pattern hard — far more threads
//! than shards, all asking overlapping questions — and then audit the
//! [`CacheStats`] ledger: every lookup is a hit or a miss, every miss
//! inserted exactly one entry, and the wrapped oracle was consulted exactly
//! once per distinct question (no duplicate evaluations, ever). The dense
//! per-id memos (index memory, unindexed cost) get their own race, across
//! their bucket boundaries and while the pool grows.

use isel_core::{algorithm1, budget, Parallelism};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::{AttrId, Index, IndexId, QueryId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

fn workload() -> isel_workload::Workload {
    synthetic::generate(&SyntheticConfig {
        tables: 1,
        attrs_per_table: 10,
        queries_per_table: 16,
        rows_base: 150_000,
        max_query_width: 4,
        update_fraction: 0.2,
        seed: 42,
    })
}

/// An oracle decorator that counts raw evaluations, to catch duplicate
/// computations that the cache's own `inserts` counter could miss —
/// in total, and per id for the single-id questions.
struct CountingWhatIf<W> {
    inner: W,
    evals: AtomicUsize,
    unindexed_by_query: Mutex<HashMap<QueryId, u32>>,
    memory_by_index: Mutex<HashMap<IndexId, u32>>,
}

impl<W> CountingWhatIf<W> {
    fn new(inner: W) -> Self {
        Self {
            inner,
            evals: AtomicUsize::new(0),
            unindexed_by_query: Mutex::default(),
            memory_by_index: Mutex::default(),
        }
    }
}

impl<W: WhatIfOptimizer> WhatIfOptimizer for CountingWhatIf<W> {
    fn workload(&self) -> &isel_workload::Workload {
        self.inner.workload()
    }

    fn pool(&self) -> &isel_workload::IndexPool {
        self.inner.pool()
    }

    fn unindexed_cost(&self, j: QueryId) -> f64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        *self.unindexed_by_query.lock().unwrap().entry(j).or_default() += 1;
        self.inner.unindexed_cost(j)
    }

    fn index_cost(&self, j: isel_workload::QueryId, k: isel_workload::IndexId) -> Option<f64> {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.index_cost(j, k)
    }

    fn index_memory(&self, k: IndexId) -> u64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        *self.memory_by_index.lock().unwrap().entry(k).or_default() += 1;
        self.inner.index_memory(k)
    }

    fn maintenance_cost(&self, k: isel_workload::IndexId) -> f64 {
        self.inner.maintenance_cost(k)
    }
}

/// Many threads, overlapping key sets: the ledger must balance and the
/// wrapped oracle must see each distinct question exactly once.
#[test]
fn hammered_cache_never_duplicates_and_ledger_balances() {
    let w = workload();
    let est = CachingWhatIf::new(CountingWhatIf::new(AnalyticalWhatIf::new(&w)));

    const THREADS: usize = 32; // 2× the shard count
    const ROUNDS: usize = 25;
    let queries: Vec<_> = w.iter().map(|(j, _)| j).collect();
    let indexes: Vec<Index> = (0..w.schema().attr_count() as u32)
        .map(|a| Index::single(AttrId(a)))
        .chain((0..w.schema().attr_count() as u32 - 1).map(|a| {
            Index::single(AttrId(a)).extended(AttrId(a + 1))
        }))
        .collect();
    // Intern once up front: the hot loop below asks by id, as the
    // selection algorithms do.
    let ids: Vec<isel_workload::IndexId> =
        indexes.iter().map(|k| est.pool().intern(k)).collect();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let est = &est;
            let queries = &queries;
            let ids = &ids;
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    // Each thread walks the key space from a different
                    // offset so racing threads collide on fresh keys.
                    for i in 0..queries.len() {
                        let j = queries[(i + t + r) % queries.len()];
                        est.unindexed_cost(j);
                        for &k in ids.iter() {
                            est.index_cost(j, k);
                        }
                    }
                }
            });
        }
    });

    // Inapplicable (query, index) pairs are answered structurally and
    // never touch the counters, so the expected ledger counts only the
    // applicable pairs plus one unindexed lookup per query.
    let applicable: usize = queries
        .iter()
        .map(|&j| {
            indexes
                .iter()
                .filter(|k| k.applicable_to(w.query(j)))
                .count()
        })
        .sum();
    let per_walk = (queries.len() + applicable) as u64;
    let stats = est.cache_stats().expect("caching oracle exposes stats");
    // Every lookup is accounted for exactly once.
    assert_eq!(stats.lookups(), (THREADS * ROUNDS) as u64 * per_walk);
    assert_eq!(stats.hits + stats.misses, stats.lookups());
    // One insert per miss — a duplicate evaluation would break this.
    assert_eq!(stats.inserts, stats.misses);
    // Distinct questions: one unindexed per query plus the applicable
    // pairs. Each was evaluated by the oracle exactly once.
    assert_eq!(stats.misses, per_walk);
    let evals = est.inner().evals.load(Ordering::Relaxed) as u64;
    assert_eq!(evals, stats.misses, "oracle evaluations must equal misses");
    assert_eq!(est.stats().calls_issued, evals, "each evaluation is one issued call");
    // Re-walking the whole key space serially must be pure hits now.
    let before = est.cache_stats().unwrap();
    for &j in &queries {
        est.unindexed_cost(j);
        for &k in &ids {
            est.index_cost(j, k);
        }
    }
    let after = est.cache_stats().unwrap();
    assert_eq!(after.misses, before.misses, "second pass must not miss");
    assert_eq!(after.hits - before.hits, per_walk);
}

/// Every index of up to four attributes of the one table, by width, then
/// lexicographically: 10 + 90 + 720 + 5 040 ids once interned.
fn indexes_up_to_width_four(w: &isel_workload::Workload) -> Vec<Index> {
    let attrs: Vec<AttrId> = (0..w.schema().attr_count() as u32).map(AttrId).collect();
    let mut out: Vec<Index> = attrs.iter().map(|&a| Index::single(a)).collect();
    let mut frontier = out.clone();
    for _ in 1..4 {
        frontier = frontier
            .iter()
            .flat_map(|k| {
                attrs.iter().filter(|a| !k.attrs().contains(a)).map(|&a| k.extended(a))
            })
            .collect();
        out.extend(frontier.iter().cloned());
    }
    out
}

/// The dense memos under fire: 32 threads race `index_memory` on every id
/// below 2 100 — across the bucket boundaries at 64, 192, 448, 960 and
/// 1 984 — and `unindexed_cost` on every query, while four more threads
/// intern the remaining ids (into buckets nobody has touched yet) and ask
/// their memory. Each id and each query is evaluated exactly once, and
/// the ledger balances.
#[test]
fn dense_memos_evaluate_each_id_once_across_buckets_while_the_pool_grows() {
    let w = workload();
    let est = CachingWhatIf::new(CountingWhatIf::new(AnalyticalWhatIf::new(&w)));

    const RACERS: usize = 32;
    const INTERNERS: usize = 4;
    const ROUNDS: usize = 8;
    const PRE_INTERNED: usize = 2_100;
    let all = indexes_up_to_width_four(&w);
    assert_eq!(all.len(), 5_860);
    let ids: Vec<IndexId> = all[..PRE_INTERNED].iter().map(|k| est.pool().intern(k)).collect();
    assert_eq!(ids.last(), Some(&IndexId(PRE_INTERNED as u32 - 1)), "ids are dense from 0");
    let later = &all[PRE_INTERNED..];
    let queries: Vec<QueryId> = w.iter().map(|(j, _)| j).collect();
    // Every thread starts its first lookup at once.
    let start = Barrier::new(RACERS + INTERNERS);

    std::thread::scope(|scope| {
        for t in 0..RACERS {
            let (est, ids, queries, start) = (&est, &ids, &queries, &start);
            scope.spawn(move || {
                start.wait();
                for r in 0..ROUNDS {
                    // Offsets differ per thread and round, so racers
                    // collide on fresh cells of every bucket.
                    for i in 0..ids.len() {
                        est.index_memory(ids[(i * 11 + t * 131 + r * 17) % ids.len()]);
                    }
                    for i in 0..queries.len() {
                        est.unindexed_cost(queries[(i + t + r) % queries.len()]);
                    }
                }
            });
        }
        for t in 0..INTERNERS {
            let (est, start) = (&est, &start);
            scope.spawn(move || {
                start.wait();
                // Each interner walks every later index from its own
                // offset: the ids race to be interned and then to be
                // evaluated.
                let offset = t * later.len() / INTERNERS;
                for i in 0..later.len() {
                    let k = est.pool().intern(&later[(i + offset) % later.len()]);
                    est.index_memory(k);
                }
            });
        }
    });

    assert_eq!(est.pool().len(), all.len());
    let memory = est.inner().memory_by_index.lock().unwrap();
    assert_eq!(memory.len(), all.len(), "every id was evaluated");
    assert!(memory.values().all(|&n| n == 1), "an id was evaluated twice");
    let unindexed = est.inner().unindexed_by_query.lock().unwrap();
    assert_eq!(unindexed.len(), queries.len(), "every query was evaluated");
    assert!(unindexed.values().all(|&n| n == 1), "a query was evaluated twice");

    let lookups = (RACERS * ROUNDS * (ids.len() + queries.len())
        + INTERNERS * later.len()) as u64;
    let distinct = (all.len() + queries.len()) as u64;
    let stats = est.cache_stats().expect("caching oracle exposes stats");
    assert_eq!(stats.lookups(), lookups);
    assert_eq!(stats.misses, distinct);
    assert_eq!(stats.inserts, stats.misses);
    assert_eq!(est.inner().evals.load(Ordering::Relaxed) as u64, distinct);
    // Index memory is no what-if call: only the unindexed misses issue.
    assert_eq!(est.stats().calls_issued, queries.len() as u64);
}

/// The real workload: Algorithm 1's parallel scan over a shared cache.
/// Stats must balance and the run must match the serial engine exactly.
#[test]
fn parallel_algorithm1_keeps_cache_accounting_consistent() {
    let w = workload();

    // Budget from a scratch estimator so both runs start with cold,
    // identical caches.
    let a = budget::relative_budget(&CachingWhatIf::new(AnalyticalWhatIf::new(&w)), 0.3);

    let serial_est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let serial = algorithm1::run(&serial_est, &algorithm1::Options::new(a));
    let serial_stats = serial_est.cache_stats().unwrap();

    let mut par_est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let opts = algorithm1::Options {
        parallelism: Parallelism::new(8),
        ..algorithm1::Options::new(a)
    };
    let par = algorithm1::run(&par_est, &opts);
    let par_stats = par_est.cache_stats().unwrap();

    assert_eq!(serial.steps, par.steps);
    assert_eq!(serial.final_cost, par.final_cost);

    for stats in [serial_stats, par_stats] {
        assert_eq!(stats.hits + stats.misses, stats.lookups());
        assert_eq!(stats.inserts, stats.misses);
        assert!(stats.lookups() > 0);
    }
    // The parallel engine asks the same questions, so the miss (= insert)
    // count is identical; only scheduling changes.
    assert_eq!(serial_stats.misses, par_stats.misses);
    assert_eq!(serial_stats.lookups(), par_stats.lookups());

    // Invalidation resets the memo but not the run's correctness.
    par_est.invalidate();
    let again = algorithm1::run(&par_est, &opts);
    assert_eq!(again.steps, par.steps);
}
