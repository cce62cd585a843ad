//! The what-if ledger: the one memo and the one call counter.
//!
//! What-if optimizer calls dominate the runtime of index-selection tools
//! (Section I and \[16\] in the paper), so repeated questions must be
//! answered from a cache, and a strategy is judged by the calls it issues
//! (Section III-A). Algorithm 1 additionally notes (Figure 1) that "in
//! each step, required what-if calls from previous steps can be cached,
//! except for calls related to indexes built in the previous step".
//!
//! [`CachingWhatIf`] wraps any [`WhatIfOptimizer`]; every other oracle is
//! a pure cost function that neither memoizes nor counts.
//!
//! * `f_j(0)` answers are memoized per query, and index memory per index,
//!   each in a dense table indexed by the id itself,
//! * `f_j(k)` answers are memoized per `(query, index id)` — the two ids
//!   pack into one `u64` ([`pack_key`]), so a lookup hashes a single
//!   machine word instead of cloning and re-hashing an attribute vector.
//!   Inapplicable indexes are answered structurally, without a cache
//!   entry,
//! * a miss of the `f_j(0)` or `f_j(k)` memo is an *issued* what-if call;
//!   every hit, index memory included, is a *cached* one.
//!
//! # Two pair keys
//!
//! [`CachingWhatIf::new`] keys `f_j(k)` by the candidate itself.
//! [`CachingWhatIf::prefix_keyed`] is INUM's reuse (cf. Papadomanolakis et
//! al. \[16\]): the cost of a query under an index depends only on the
//! index's *usable prefix* for that query — the longest prefix of key
//! attributes the query binds — and candidates frequently share usable
//! prefixes (every extension of an index shares all of its prefixes). The
//! pair is then keyed by `(query, usable prefix)`, and a miss asks the
//! inner oracle about the prefix index, whose answer serves every later
//! candidate with the same usable prefix. CoPhy's exhaustive candidate
//! evaluation, whose `Q·q̄·|I|/N` requests collapse to one call per
//! distinct `(query, prefix)` pair, is what it is for. Every prefix of an
//! interned index is itself interned, so the usable prefix *is* a pool id
//! ([`IndexPool::usable_ancestor`] walks the parent links) and the
//! reduction allocates nothing.
//!
//! # Layout
//!
//! The single-id memos are dense: query and index ids are small integers
//! handed out in order, so cell `id` of a table of write-once cells holds
//! the answer. The table is a fixed array of doubling buckets, each
//! allocated on first touch and never moved, so a hit is one atomic load
//! with no lock and no hash — Algorithm 1 asks for index memory millions
//! of times per ERP-scale run. A miss initializes its cell exactly once;
//! a thread racing on the same cell blocks until the winner's answer is
//! there and counts a hit.
//!
//! The pair memo is sharded: each of [`CACHE_SHARDS`] shards is an
//! independent `Mutex<HashMap>`, so concurrent candidate evaluations (the
//! parallel argmax scan of Algorithm 1) rarely contend. A miss computes
//! the answer *under the shard lock*, which makes the cache linearizable
//! per key: two threads racing on the same key serialize, and the loser
//! finds the winner's entry instead of re-issuing the what-if call.
//! Distinct keys on the same shard briefly serialize too — the price of
//! the no-duplicate guarantee, and cheap while the wrapped oracle is the
//! expensive part.

use crate::whatif::{WhatIfOptimizer, WhatIfStats};
use isel_workload::{IndexId, IndexPool, QueryId, Workload};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Number of independent lock domains per memo table.
pub const CACHE_SHARDS: usize = 16;

/// splitmix64 finalizer: full-avalanche mixing of one machine word.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hasher for the dense integer cache keys ([`pack_key`] pairs, bare
/// query/index ids): two multiplies per word instead of SipHash's full
/// permutation. Every memo-table probe hashes its key twice (shard pick +
/// bucket), so this is squarely on the warm-cache hot path.
#[derive(Default)]
pub struct IdKeyHasher(u64);

impl Hasher for IdKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Cache keys are integers; this path only runs for exotic keys.
        for &b in bytes {
            self.0 = mix(self.0 ^ b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = mix(self.0 ^ n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0 ^ n);
    }
}

/// The [`HashMap`] state every id-keyed memo table uses.
pub type IdHashBuilder = BuildHasherDefault<IdKeyHasher>;

/// Pack a `(query, index)` id pair into one `u64` cache key.
///
/// Both ids are dense `u32`s, so the pair fits a machine word exactly;
/// every id-keyed cost table in the workspace (the sharded cache here and
/// the calibration's per-pair ratios) uses this layout.
#[inline]
pub fn pack_key(query: QueryId, index: IndexId) -> u64 {
    ((query.0 as u64) << 32) | index.0 as u64
}

/// Point-in-time accounting snapshot of a [`CachingWhatIf`]'s memo tables.
///
/// Invariants (verified by the concurrency stress tests):
/// `hits + misses == lookups()`, and `inserts == misses` because every miss
/// computes-and-inserts exactly once (under the shard lock, or as the one
/// initializer of a dense cell) — a duplicate evaluation of the same key
/// would show up as `inserts < misses`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a memo table.
    pub hits: u64,
    /// Lookups that had to consult the wrapped oracle.
    pub misses: u64,
    /// Entries written (one per miss; never more, even under contention).
    pub inserts: u64,
}

impl CacheStats {
    /// Total lookups seen: `hits + misses`.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A memo table: answers each key once, then from memory.
trait Memo<K, V> {
    /// Cached value for `key`, or `compute` it. Returns `(value,
    /// was_hit)`; `compute` runs at most once per key across all threads,
    /// and a lookup that waited for another thread's `compute` is a hit.
    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool);
}

/// A hash map split over [`CACHE_SHARDS`] independently locked shards.
struct Sharded<K, V> {
    shards: Box<[Mutex<HashMap<K, V, IdHashBuilder>>]>,
}

impl<K: Hash + Eq + Copy, V: Copy> Sharded<K, V> {
    fn new() -> Self {
        Self {
            shards: (0..CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::default()))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V, IdHashBuilder>> {
        let mut h = IdKeyHasher::default();
        key.hash(&mut h);
        // Take the shard from the high word: the map inside the shard
        // indexes its buckets with the low hash bits, and keys routed here
        // all share the shard-selecting bits.
        &self.shards[((h.finish() >> 32) as usize) % self.shards.len()]
    }
}

impl<K: Hash + Eq + Copy, V: Copy> Memo<K, V> for Sharded<K, V> {
    /// `compute` runs while holding the key's shard lock.
    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        let mut map = self.shard(&key).lock();
        if let Some(&v) = map.get(&key) {
            return (v, true);
        }
        let v = compute();
        map.insert(key, v);
        (v, false)
    }
}

/// log2 of the cell count of a [`Dense`] table's first bucket.
const FIRST_BUCKET_BITS: u32 = 6;
/// Bucket `b` holds `64 << b` cells; 27 buckets cover every `u32` id.
const DENSE_BUCKETS: usize = 27;

/// `id → (bucket, cell)` for the doubling bucket layout of [`Dense`]:
/// bucket `b` starts at id `(64 << b) − 64` and holds `64 << b` cells.
#[inline]
fn locate(id: u32) -> (usize, usize) {
    let i = id as u64 + (1 << FIRST_BUCKET_BITS);
    let bucket = (u64::BITS - 1 - i.leading_zeros() - FIRST_BUCKET_BITS) as usize;
    (bucket, (i - (1 << (FIRST_BUCKET_BITS as usize + bucket))) as usize)
}

/// A write-once cell per dense `u32` id, in doubling buckets allocated on
/// first touch. Cells never move once allocated, so readers hold plain
/// references; dropping the table frees every bucket.
struct Dense<V> {
    buckets: [OnceLock<Box<[OnceLock<V>]>>; DENSE_BUCKETS],
}

impl<V> Dense<V> {
    fn new() -> Self {
        Self { buckets: std::array::from_fn(|_| OnceLock::new()) }
    }

    /// The cell of `id`, allocating its bucket on first touch.
    #[inline]
    fn cell(&self, id: u32) -> &OnceLock<V> {
        let (bucket, cell) = locate(id);
        let cells = self.buckets[bucket]
            .get_or_init(|| (0..64usize << bucket).map(|_| OnceLock::new()).collect());
        &cells[cell]
    }
}

impl<V: Copy> Memo<u32, V> for Dense<V> {
    #[inline]
    fn get_or_insert_with(&self, id: u32, compute: impl FnOnce() -> V) -> (V, bool) {
        let cell = self.cell(id);
        if let Some(&v) = cell.get() {
            return (v, true);
        }
        // A racing thread that loses the initialization blocks until the
        // winner's value is in, and finds `ran` still false: a hit.
        let mut ran = false;
        let v = *cell.get_or_init(|| {
            ran = true;
            compute()
        });
        (v, !ran)
    }
}

/// The what-if ledger: a caching, call-counting decorator over another
/// what-if optimizer.
pub struct CachingWhatIf<W> {
    inner: W,
    /// Key `f_j(k)` by `k`'s usable prefix for `j` instead of by `k`.
    prefix_keyed: bool,
    /// `f_j(0)` in cell `j`.
    unindexed: Dense<f64>,
    /// `f_j(k)` keyed by [`pack_key`]`(j, k)`, or by `(j, usable prefix)`.
    indexed: Sharded<u64, Option<f64>>,
    /// Memory of index `k` in cell `k`.
    memory: Dense<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    /// Questions forwarded to `inner`: misses of `unindexed` and `indexed`.
    issued: AtomicU64,
}

impl<W: WhatIfOptimizer> CachingWhatIf<W> {
    /// Wrap `inner` with a cache keyed by the exact `(query, index)` pair.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            prefix_keyed: false,
            unindexed: Dense::new(),
            indexed: Sharded::new(),
            memory: Dense::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            issued: AtomicU64::new(0),
        }
    }

    /// Wrap `inner` with a cache keyed by `(query, usable prefix)` (INUM):
    /// a miss asks `inner` about the prefix index. Sound only for an inner
    /// oracle whose `f_j(k)` depends on nothing but `k`'s usable prefix
    /// for `j`, as the Appendix-B model's does.
    pub fn prefix_keyed(inner: W) -> Self {
        Self { prefix_keyed: true, ..Self::new(inner) }
    }

    /// The wrapped optimizer.
    pub fn inner(&self) -> &W {
        &self.inner
    }

    fn lookup<K, V>(&self, table: &impl Memo<K, V>, key: K, compute: impl FnOnce() -> V) -> V {
        let (v, hit) = table.get_or_insert_with(key, || {
            self.inserts.fetch_add(1, Ordering::Relaxed);
            compute()
        });
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    /// Ask the inner oracle a cost question: one issued what-if call.
    fn issue<V>(&self, ask: impl FnOnce() -> V) -> V {
        self.issued.fetch_add(1, Ordering::Relaxed);
        ask()
    }
}

impl<W: WhatIfOptimizer> WhatIfOptimizer for CachingWhatIf<W> {
    fn workload(&self) -> &Workload {
        self.inner.workload()
    }

    fn pool(&self) -> &IndexPool {
        self.inner.pool()
    }

    fn unindexed_cost(&self, query: QueryId) -> f64 {
        self.lookup(&self.unindexed, query.0, || {
            self.issue(|| self.inner.unindexed_cost(query))
        })
    }

    fn index_cost(&self, query: QueryId, index: IndexId) -> Option<f64> {
        // Inapplicability is a pure workload property (the trait contract:
        // `None` iff the leading attribute is unbound); answer it without
        // allocating a cache entry — negative entries for all Q·|I| pairs
        // of an exhaustive candidate sweep would dwarf the useful cache.
        let pool = self.inner.pool();
        let q = self.inner.workload().query(query);
        let asked = if self.prefix_keyed {
            pool.usable_ancestor(q, index)?
        } else if pool.applicable_to(q, index) {
            index
        } else {
            return None;
        };
        self.lookup(&self.indexed, pack_key(query, asked), || {
            self.issue(|| self.inner.index_cost(query, asked))
        })
    }

    fn index_memory(&self, index: IndexId) -> u64 {
        // Memory estimates are deterministic and cheap relative to what-if
        // calls but still worth memoizing for wide candidate sweeps.
        self.lookup(&self.memory, index.0, || self.inner.index_memory(index))
    }

    fn maintenance_cost(&self, index: IndexId) -> f64 {
        self.inner.maintenance_cost(index)
    }

    fn stats(&self) -> WhatIfStats {
        WhatIfStats {
            calls_issued: self.issued.load(Ordering::Relaxed),
            calls_answered_from_cache: self.hits.load(Ordering::Relaxed),
        }
    }

    /// Accounting snapshot across all memo tables. Counters are relaxed
    /// atomics: each is individually exact, and quiescent snapshots (no
    /// concurrent lookups in flight) satisfy the [`CacheStats`] invariants.
    fn cache_stats(&self) -> Option<CacheStats> {
        Some(CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticalWhatIf;
    use isel_workload::{AttrId, Index, Query, SchemaBuilder, TableId};

    fn workload() -> Workload {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 1_000);
        let a0 = b.attribute(t, "a0", 100, 4);
        let a1 = b.attribute(t, "a1", 10, 4);
        Workload::new(
            b.finish(),
            vec![Query::new(TableId(0), vec![a0, a1], 1)],
        )
    }

    #[test]
    fn pack_key_is_injective_over_id_pairs() {
        let mut seen = std::collections::HashSet::new();
        for q in [0u32, 1, 7, u32::MAX] {
            for k in [0u32, 1, 9, u32::MAX] {
                assert!(seen.insert(pack_key(QueryId(q), IndexId(k))));
            }
        }
    }

    #[test]
    fn dense_buckets_tile_the_id_space() {
        // Consecutive ids map to consecutive cells, and the array has a
        // bucket for the largest id.
        let mut at = (0, 0);
        assert_eq!(locate(0), at);
        for id in 1..100_000u32 {
            let next = locate(id);
            at = if at.1 + 1 == 64 << at.0 { (at.0 + 1, 0) } else { (at.0, at.1 + 1) };
            assert_eq!(next, at, "id {id}");
        }
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(u32::MAX), (DENSE_BUCKETS - 1, 63));
    }

    #[test]
    fn dense_cells_are_distinct_and_write_once() {
        let table: Dense<u32> = Dense::new();
        for id in (0..1_000u32).chain([4_095, 4_096, 70_000]) {
            let (v, hit) = table.get_or_insert_with(id, || id * 3);
            assert_eq!((v, hit), (id * 3, false), "id {id}");
        }
        for id in (0..1_000u32).chain([4_095, 4_096, 70_000]) {
            let (v, hit) = table.get_or_insert_with(id, || unreachable!("id {id} was memoized"));
            assert_eq!((v, hit), (id * 3, true));
        }
    }

    #[test]
    fn repeated_calls_hit_the_cache() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let k = est.pool().intern_single(AttrId(0));
        let c1 = est.index_cost(QueryId(0), k);
        let c2 = est.index_cost(QueryId(0), k);
        assert_eq!(c1, c2);
        let s = est.stats();
        assert_eq!(s.calls_issued, 1);
        assert_eq!(s.calls_answered_from_cache, 1);
    }

    #[test]
    fn inapplicable_indexes_cost_neither_calls_nor_cache_entries() {
        // An exhaustive candidate sweep asks about Q·|I| pairs of which
        // only ≈ Q·q̄·|I|/N are applicable; the rest must be answered from
        // the workload structure alone (no call, no negative cache entry).
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 10);
        let a0 = b.attribute(t, "a0", 10, 4);
        let a1 = b.attribute(t, "a1", 10, 4);
        let w2 = Workload::new(b.finish(), vec![Query::new(TableId(0), vec![a0], 1)]);
        let est2 = CachingWhatIf::new(AnalyticalWhatIf::new(&w2));
        let k = est2.pool().intern_single(a1);
        assert_eq!(est2.index_cost(QueryId(0), k), None);
        assert_eq!(est2.index_cost(QueryId(0), k), None);
        let s = est2.stats();
        assert_eq!(s.calls_issued, 0);
        assert_eq!(s.calls_answered_from_cache, 0);
        assert_eq!(est2.cache_stats().unwrap().lookups(), 0);
    }

    #[test]
    fn unindexed_costs_are_cached() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let c1 = est.unindexed_cost(QueryId(0));
        let c2 = est.unindexed_cost(QueryId(0));
        assert_eq!(c1, c2);
        assert_eq!(est.stats().calls_issued, 1);
    }

    #[test]
    fn caching_is_transparent_for_costs() {
        let w = workload();
        let plain = AnalyticalWhatIf::new(&w);
        let cached = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let k = Index::new(vec![AttrId(1), AttrId(0)]);
        assert_eq!(
            plain.index_cost_of(QueryId(0), &k),
            cached.index_cost_of(QueryId(0), &k)
        );
        assert_eq!(plain.unindexed_cost(QueryId(0)), cached.unindexed_cost(QueryId(0)));
        assert_eq!(plain.index_memory_of(&k), cached.index_memory_of(&k));
    }

    #[test]
    fn cache_stats_balance_hits_misses_and_inserts() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let k0 = est.pool().intern_single(AttrId(0));
        let k1 = est.pool().intern_single(AttrId(1));
        est.index_cost(QueryId(0), k0); // miss
        est.index_cost(QueryId(0), k0); // hit
        est.index_cost(QueryId(0), k1); // miss
        est.unindexed_cost(QueryId(0)); // miss
        est.unindexed_cost(QueryId(0)); // hit
        est.index_memory(k0); // miss
        let s = est.cache_stats().unwrap();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 4);
        assert_eq!(s.inserts, s.misses);
        assert_eq!(s.lookups(), 6);
        // A memory miss asks the oracle no cost question; a memory hit is
        // a cached request like any other.
        assert_eq!(est.stats(), WhatIfStats { calls_issued: 3, calls_answered_from_cache: 2 });
        est.index_memory(k0); // hit
        assert_eq!(est.stats(), WhatIfStats { calls_issued: 3, calls_answered_from_cache: 3 });
    }

    #[test]
    fn concurrent_lookups_never_duplicate_evaluations() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let keys: Vec<IndexId> = [
            Index::single(AttrId(0)),
            Index::single(AttrId(1)),
            Index::new(vec![AttrId(0), AttrId(1)]),
            Index::new(vec![AttrId(1), AttrId(0)]),
        ]
        .iter()
        .map(|k| est.pool().intern(k))
        .collect();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..50 {
                        for &k in &keys {
                            est.index_cost(QueryId(0), k);
                        }
                    }
                });
            }
        });
        // 8 threads × 50 rounds × 4 keys = 1600 lookups; exactly 4 unique
        // keys means exactly 4 oracle calls — never a duplicate.
        let s = est.cache_stats().unwrap();
        assert_eq!(s.lookups(), 1600);
        assert_eq!(s.misses, 4);
        assert_eq!(s.inserts, 4);
        assert_eq!(est.stats().calls_issued, 4);
    }

    /// Two queries over three attributes: query 0 binds a0 and a1, query 1
    /// only a2.
    fn prefix_fixture() -> Workload {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 10_000);
        let a0 = b.attribute(t, "a0", 1_000, 4);
        let a1 = b.attribute(t, "a1", 100, 4);
        let a2 = b.attribute(t, "a2", 10, 4);
        Workload::new(
            b.finish(),
            vec![Query::new(TableId(0), vec![a0, a1], 5), Query::new(TableId(0), vec![a2], 2)],
        )
    }

    #[test]
    fn prefix_key_shares_one_call_across_a_shared_prefix() {
        let w = prefix_fixture();
        let est = CachingWhatIf::prefix_keyed(AnalyticalWhatIf::new(&w));
        // Query 0 binds a0 and a1 but not a2: both candidates below have
        // usable prefix (a0) for it.
        let k1 = est.pool().intern_single(AttrId(0));
        let k2 = est.pool().intern(&Index::new(vec![AttrId(0), AttrId(2)]));
        let c1 = est.index_cost(QueryId(0), k1).unwrap();
        let c2 = est.index_cost(QueryId(0), k2).unwrap();
        assert_eq!(c1, c2);
        let s = est.stats();
        assert_eq!(s.calls_issued, 1, "one physical call for the shared prefix");
        assert_eq!(s.calls_answered_from_cache, 1);
    }

    #[test]
    fn prefix_key_issues_distinct_calls_for_distinct_prefixes() {
        let w = prefix_fixture();
        let est = CachingWhatIf::prefix_keyed(AnalyticalWhatIf::new(&w));
        let k1 = est.pool().intern_single(AttrId(0));
        let k12 = est.pool().intern(&Index::new(vec![AttrId(0), AttrId(1)]));
        est.index_cost(QueryId(0), k1);
        est.index_cost(QueryId(0), k12); // usable prefix (a0, a1)
        assert_eq!(est.stats().calls_issued, 2);
    }

    #[test]
    fn prefix_key_answers_inapplicable_pairs_without_a_call() {
        let w = prefix_fixture();
        let est = CachingWhatIf::prefix_keyed(AnalyticalWhatIf::new(&w));
        let k = est.pool().intern_single(AttrId(0));
        assert_eq!(est.index_cost(QueryId(1), k), None);
        assert_eq!(est.stats(), WhatIfStats::default());
        assert_eq!(est.cache_stats().unwrap().lookups(), 0);
    }

    #[test]
    fn prefix_key_answers_match_the_plain_oracle() {
        let w = prefix_fixture();
        let plain = AnalyticalWhatIf::new(&w);
        let accel = CachingWhatIf::prefix_keyed(AnalyticalWhatIf::new(&w));
        for (j, _) in w.iter() {
            for k in [
                Index::single(AttrId(0)),
                Index::new(vec![AttrId(0), AttrId(1)]),
                Index::new(vec![AttrId(1), AttrId(0)]),
                Index::new(vec![AttrId(0), AttrId(2), AttrId(1)]),
                Index::single(AttrId(2)),
            ] {
                assert_eq!(plain.index_cost_of(j, &k), accel.index_cost_of(j, &k), "{j} {k}");
            }
            assert_eq!(plain.unindexed_cost(j), accel.unindexed_cost(j));
        }
    }

    #[test]
    fn prefix_key_caches_unindexed_costs() {
        let w = prefix_fixture();
        let est = CachingWhatIf::prefix_keyed(AnalyticalWhatIf::new(&w));
        est.unindexed_cost(QueryId(0));
        est.unindexed_cost(QueryId(0));
        let s = est.stats();
        assert_eq!(s.calls_issued, 1);
        assert_eq!(s.calls_answered_from_cache, 1);
    }
}
