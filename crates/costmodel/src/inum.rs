//! INUM-style what-if acceleration (cf. Papadomanolakis et al. \[16\]).
//!
//! The cost of a query under an index depends only on the *usable prefix*
//! of that index for the query — the longest prefix of key attributes the
//! query binds. Different candidates frequently share usable prefixes
//! (every extension of an index shares all of its prefixes), so a cache
//! keyed by `(query, usable prefix)` answers far more requests per issued
//! optimizer call than one keyed by the full index.
//!
//! [`PrefixAwareWhatIf`] exploits this: an `index_cost(j, k)` request is
//! reduced to the usable prefix `U(q_j, k)`, answered from the prefix
//! cache when possible, and otherwise forwarded as a what-if call on the
//! *prefix index* — whose answer then serves every future candidate with
//! the same usable prefix. This is the biggest lever for CoPhy-style
//! exhaustive candidate evaluation, where `Q·q̄·|I|/N` raw requests
//! collapse to one call per distinct `(query, prefix)` pair.
//!
//! Because every prefix of an interned index is itself interned, the
//! usable prefix *is* a pool id ([`IndexPool::usable_ancestor`] walks the
//! parent links): the cache key is the packed `(query, ancestor id)` pair
//! and the reduction allocates nothing.

use crate::cache::{pack_key, IdHashBuilder};
use crate::whatif::{WhatIfOptimizer, WhatIfStats};
use isel_workload::{IndexId, IndexPool, QueryId, Workload};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Prefix-keyed caching decorator.
pub struct PrefixAwareWhatIf<W> {
    inner: W,
    /// `f_j(prefix)` keyed by [`pack_key`]`(j, usable ancestor)`.
    prefix_costs: Mutex<HashMap<u64, f64, IdHashBuilder>>,
    unindexed: Mutex<HashMap<QueryId, f64, IdHashBuilder>>,
    hits: AtomicU64,
}

impl<W: WhatIfOptimizer> PrefixAwareWhatIf<W> {
    /// Wrap an oracle.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            prefix_costs: Mutex::new(HashMap::default()),
            unindexed: Mutex::new(HashMap::default()),
            hits: AtomicU64::new(0),
        }
    }
}

impl<W: WhatIfOptimizer> WhatIfOptimizer for PrefixAwareWhatIf<W> {
    fn workload(&self) -> &Workload {
        self.inner.workload()
    }

    fn pool(&self) -> &IndexPool {
        self.inner.pool()
    }

    fn unindexed_cost(&self, query: QueryId) -> f64 {
        if let Some(&c) = self.unindexed.lock().get(&query) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return c;
        }
        let c = self.inner.unindexed_cost(query);
        self.unindexed.lock().insert(query, c);
        c
    }

    fn index_cost(&self, query: QueryId, index: IndexId) -> Option<f64> {
        let pool = self.inner.pool();
        let q = self.inner.workload().query(query);
        // Inapplicable — no call needed at all.
        let prefix = pool.usable_ancestor(q, index)?;
        let key = pack_key(query, prefix);
        if let Some(&c) = self.prefix_costs.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Some(c);
        }
        // Ask about the prefix index: by prefix semantics its cost equals
        // the full index's cost for this query.
        let c = self.inner.index_cost(query, prefix)?;
        self.prefix_costs.lock().insert(key, c);
        Some(c)
    }

    fn index_memory(&self, index: IndexId) -> u64 {
        self.inner.index_memory(index)
    }

    fn maintenance_cost(&self, index: IndexId) -> f64 {
        self.inner.maintenance_cost(index)
    }

    fn stats(&self) -> WhatIfStats {
        let inner = self.inner.stats();
        WhatIfStats {
            calls_issued: inner.calls_issued,
            calls_answered_from_cache: inner.calls_answered_from_cache
                + self.hits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticalWhatIf;
    use isel_workload::{AttrId, Index, Query, SchemaBuilder, TableId};

    fn fixture() -> Workload {
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
    fn candidates_sharing_a_prefix_share_one_call() {
        let w = fixture();
        let est = PrefixAwareWhatIf::new(AnalyticalWhatIf::new(&w));
        let a0 = AttrId(0);
        let a2 = AttrId(2);
        // Query 0 binds a0 and a1 but not a2: all three candidates below
        // have usable prefix (a0) for it.
        let k1 = est.pool().intern_single(a0);
        let k2 = est.pool().intern(&Index::new(vec![a0, a2]));
        let c1 = est.index_cost(QueryId(0), k1).unwrap();
        let c2 = est.index_cost(QueryId(0), k2).unwrap();
        assert_eq!(c1, c2);
        let s = est.stats();
        assert_eq!(s.calls_issued, 1, "one physical call for the shared prefix");
        assert_eq!(s.calls_answered_from_cache, 1);
    }

    #[test]
    fn distinct_prefixes_issue_distinct_calls() {
        let w = fixture();
        let est = PrefixAwareWhatIf::new(AnalyticalWhatIf::new(&w));
        let k1 = est.pool().intern_single(AttrId(0));
        let k12 = est.pool().intern(&Index::new(vec![AttrId(0), AttrId(1)]));
        est.index_cost(QueryId(0), k1);
        est.index_cost(QueryId(0), k12); // usable prefix (a0, a1)
        assert_eq!(est.stats().calls_issued, 2);
    }

    #[test]
    fn inapplicable_indexes_cost_no_calls() {
        let w = fixture();
        let est = PrefixAwareWhatIf::new(AnalyticalWhatIf::new(&w));
        let k = est.pool().intern_single(AttrId(0));
        assert_eq!(est.index_cost(QueryId(1), k), None);
        assert_eq!(est.stats().calls_issued, 0);
    }

    #[test]
    fn answers_match_the_plain_oracle() {
        let w = fixture();
        let plain = AnalyticalWhatIf::new(&w);
        let accel = PrefixAwareWhatIf::new(AnalyticalWhatIf::new(&w));
        for (j, _) in w.iter() {
            for k in [
                Index::single(AttrId(0)),
                Index::new(vec![AttrId(0), AttrId(1)]),
                Index::new(vec![AttrId(1), AttrId(0)]),
                Index::single(AttrId(2)),
            ] {
                assert_eq!(plain.index_cost_of(j, &k), accel.index_cost_of(j, &k), "{j} {k}");
            }
            assert_eq!(plain.unindexed_cost(j), accel.unindexed_cost(j));
        }
    }

    #[test]
    fn unindexed_costs_are_cached_too() {
        let w = fixture();
        let est = PrefixAwareWhatIf::new(AnalyticalWhatIf::new(&w));
        est.unindexed_cost(QueryId(0));
        est.unindexed_cost(QueryId(0));
        let s = est.stats();
        assert_eq!(s.calls_issued, 1);
        assert_eq!(s.calls_answered_from_cache, 1);
    }
}
