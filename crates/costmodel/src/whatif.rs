//! The what-if optimizer abstraction.
//!
//! Selection algorithms never compute costs themselves; they ask a
//! [`WhatIfOptimizer`] — exactly like index advisors ask the DBMS's what-if
//! mode for the cost of a query under a hypothetical index. Its
//! implementations in this workspace:
//!
//! * two pure leaves — [`AnalyticalWhatIf`](crate::AnalyticalWhatIf)
//!   (the Appendix-B model) and `isel-dbsim`'s `LiveWhatIf`, which builds
//!   and executes on demand (the Section IV-B end-to-end mode); they
//!   answer questions and count nothing,
//! * [`CachingWhatIf`](crate::CachingWhatIf) — the one ledger: it memoizes
//!   answers, keyed by the exact `(query, index)` pair or by INUM's
//!   `(query, usable prefix)`, and counts issued and cached calls,
//! * [`CalibratedWhatIf`](crate::CalibratedWhatIf) — rescales an inner
//!   oracle's costs by learned ratios (the service wraps it in the
//!   ledger).
//!
//! # Id-keyed costing
//!
//! Every oracle owns (or forwards to) an [`IndexPool`] that interns each
//! candidate [`Index`] into a dense [`IndexId`]. The hot-path methods —
//! [`index_cost`](WhatIfOptimizer::index_cost),
//! [`index_memory`](WhatIfOptimizer::index_memory),
//! [`config_cost`](WhatIfOptimizer::config_cost) — take ids, so repeated
//! probes never clone or re-hash attribute vectors. The `*_of` convenience
//! methods accept plain [`Index`] values, intern them through the pool and
//! delegate; they are meant for API boundaries (tests, examples, report
//! code), not for inner loops.

use isel_workload::{Index, IndexId, IndexPool, Query, QueryId, QueryKind, Workload};
use serde::{Deserialize, Serialize};

/// Call statistics; the paper evaluates approaches by the number of what-if
/// calls they need (Section III-A). Only
/// [`CachingWhatIf`](crate::CachingWhatIf) keeps them; every other oracle
/// reports zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WhatIfStats {
    /// Cost questions forwarded to the wrapped oracle: misses of the
    /// ledger's `f_j(0)` and `f_j(k)` memos. An index-memory miss is not
    /// a what-if call and is not counted; an inapplicable pair is answered
    /// structurally and is not counted either.
    pub calls_issued: u64,
    /// Requests answered from the ledger's memos: every hit, index-memory
    /// hits included.
    pub calls_answered_from_cache: u64,
}

impl WhatIfStats {
    /// Total requests seen (issued + cached).
    pub fn total_requests(&self) -> u64 {
        self.calls_issued + self.calls_answered_from_cache
    }
}

/// A what-if cost oracle over a fixed workload.
///
/// Costs follow the paper's conventions: `unindexed_cost` is `f_j(0)`,
/// `index_cost` is `f_j(k)` in the "one index per query" setting of
/// Example 1 (the residual attributes are scanned without further index
/// support), and `config_cost` is `f_j(I*)`.
///
/// Oracles must be `Sync`: the selection algorithms fan candidate
/// evaluations across threads, each holding `&self`. Implementations keep
/// their mutable state (the ledger's memos and counters, a measuring
/// oracle's database) behind locks or atomics.
pub trait WhatIfOptimizer: Sync {
    /// The workload the oracle answers questions about.
    fn workload(&self) -> &Workload;

    /// The interning pool candidate ids are relative to. Decorators
    /// forward to their inner oracle's pool so one id space spans the
    /// whole stack.
    fn pool(&self) -> &IndexPool;

    /// `f_j(0)`: cost of query `j` without any index.
    fn unindexed_cost(&self, query: QueryId) -> f64;

    /// `f_j(k)`: cost of query `j` using exactly index `k`; `None` when the
    /// index is not applicable to the query.
    fn index_cost(&self, query: QueryId, index: IndexId) -> Option<f64>;

    /// Index memory consumption `p_k`.
    fn index_memory(&self, index: IndexId) -> u64;

    /// Maintenance cost charged per execution of an *update* template on
    /// the index's table (write amplification). Oracles without a write
    /// model return 0 — updates are then free, which is exactly the
    /// simplification CoPhy's base formulation makes.
    fn maintenance_cost(&self, index: IndexId) -> f64 {
        let _ = index;
        0.0
    }

    /// Call statistics so far. Only the ledger
    /// ([`CachingWhatIf`](crate::CachingWhatIf)) counts; every other oracle
    /// answers zeros.
    fn stats(&self) -> WhatIfStats {
        WhatIfStats::default()
    }

    /// Memo-table accounting, when the oracle keeps one
    /// ([`CachingWhatIf`](crate::CachingWhatIf) does; plain oracles return
    /// `None`).
    fn cache_stats(&self) -> Option<crate::CacheStats> {
        None
    }

    /// `f_j(I*)` in the "one index only" setting:
    /// `min(f_j(0), min_{k∈I*} f_j(k))` (Example 1 (i)). Update templates
    /// additionally pay the maintenance cost of every index on their table.
    fn config_cost(&self, query: QueryId, config: &[IndexId]) -> f64 {
        let mut best = self.unindexed_cost(query);
        for &k in config {
            if let Some(c) = self.index_cost(query, k) {
                best = best.min(c);
            }
        }
        if self.query(query).kind() == QueryKind::Update {
            let table = self.query(query).table();
            for &k in config {
                if self.pool().table(k) == table {
                    best += self.maintenance_cost(k);
                }
            }
        }
        best
    }

    /// Total workload cost `F(I*) = Σ_j b_j · f_j(I*)` (Eq. 1), summed in
    /// query order.
    ///
    /// Each query's [`Self::config_cost`] receives only the indexes of
    /// `config` on the query's own table, in configuration order. An
    /// index on another table can neither serve the query (its leading
    /// attribute is not accessed) nor charge it maintenance, so every
    /// query costs what the whole configuration gives it, while the
    /// (query, index) pairs visited fall from `Q·|I|` to `Σₜ Qₜ·|Iₜ|`.
    fn workload_cost(&self, config: &[IndexId]) -> f64 {
        let workload = self.workload();
        let mut by_table = vec![Vec::new(); workload.schema().tables().len()];
        for &k in config {
            by_table[self.pool().table(k).idx()].push(k);
        }
        workload
            .iter()
            .map(|(j, q)| q.frequency() as f64 * self.config_cost(j, &by_table[q.table().idx()]))
            .sum()
    }

    /// Convenience: the query behind an id.
    fn query(&self, id: QueryId) -> &Query {
        self.workload().query(id)
    }

    /// Boundary convenience: [`Self::index_cost`] for an un-interned index.
    fn index_cost_of(&self, query: QueryId, index: &Index) -> Option<f64> {
        self.index_cost(query, self.pool().intern(index))
    }

    /// Boundary convenience: [`Self::index_memory`] for an un-interned
    /// index.
    fn index_memory_of(&self, index: &Index) -> u64 {
        self.index_memory(self.pool().intern(index))
    }

    /// Boundary convenience: [`Self::maintenance_cost`] for an un-interned
    /// index.
    fn maintenance_cost_of(&self, index: &Index) -> f64 {
        self.maintenance_cost(self.pool().intern(index))
    }

    /// Boundary convenience: [`Self::config_cost`] for un-interned indexes.
    fn config_cost_of(&self, query: QueryId, config: &[Index]) -> f64 {
        let ids: Vec<IndexId> = config.iter().map(|k| self.pool().intern(k)).collect();
        self.config_cost(query, &ids)
    }

    /// Boundary convenience: [`Self::workload_cost`] for un-interned
    /// indexes.
    fn workload_cost_of(&self, config: &[Index]) -> f64 {
        let ids: Vec<IndexId> = config.iter().map(|k| self.pool().intern(k)).collect();
        self.workload_cost(&ids)
    }
}

/// Blanket implementation so `&W` can be passed wherever a
/// `WhatIfOptimizer` is expected.
impl<W: WhatIfOptimizer + ?Sized> WhatIfOptimizer for &W {
    fn workload(&self) -> &Workload {
        (**self).workload()
    }
    fn pool(&self) -> &IndexPool {
        (**self).pool()
    }
    fn unindexed_cost(&self, query: QueryId) -> f64 {
        (**self).unindexed_cost(query)
    }
    fn index_cost(&self, query: QueryId, index: IndexId) -> Option<f64> {
        (**self).index_cost(query, index)
    }
    fn index_memory(&self, index: IndexId) -> u64 {
        (**self).index_memory(index)
    }
    fn maintenance_cost(&self, index: IndexId) -> f64 {
        (**self).maintenance_cost(index)
    }
    fn stats(&self) -> WhatIfStats {
        (**self).stats()
    }
    fn cache_stats(&self) -> Option<crate::CacheStats> {
        (**self).cache_stats()
    }
    fn config_cost(&self, query: QueryId, config: &[IndexId]) -> f64 {
        (**self).config_cost(query, config)
    }
    fn workload_cost(&self, config: &[IndexId]) -> f64 {
        (**self).workload_cost(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticalWhatIf;
    use isel_workload::{AttrId, SchemaBuilder, TableId};

    fn workload() -> Workload {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 1_000);
        let a0 = b.attribute(t, "a0", 1_000, 4);
        let a1 = b.attribute(t, "a1", 10, 4);
        Workload::new(
            b.finish(),
            vec![
                Query::new(TableId(0), vec![a0, a1], 10),
                Query::new(TableId(0), vec![a1], 1),
            ],
        )
    }

    #[test]
    fn config_cost_takes_best_applicable_index() {
        let w = workload();
        let est = AnalyticalWhatIf::new(&w);
        let k0 = est.pool().intern_single(AttrId(0));
        let k1 = est.pool().intern_single(AttrId(1));
        let f0 = est.unindexed_cost(QueryId(0));
        let with_both = est.config_cost(QueryId(0), &[k0, k1]);
        let with_k0 = est.config_cost(QueryId(0), &[k0]);
        assert!(with_both <= with_k0);
        assert!(with_both < f0);
    }

    #[test]
    fn config_cost_never_exceeds_unindexed() {
        let w = workload();
        let est = AnalyticalWhatIf::new(&w);
        // An index that is useless for q1 (leading attr not accessed).
        let k = Index::new(vec![AttrId(0), AttrId(1)]);
        let f0 = est.unindexed_cost(QueryId(1));
        assert_eq!(est.config_cost_of(QueryId(1), &[k]), f0);
    }

    #[test]
    fn workload_cost_weights_by_frequency() {
        let w = workload();
        let est = AnalyticalWhatIf::new(&w);
        let total = est.workload_cost(&[]);
        let manual = 10.0 * est.unindexed_cost(QueryId(0)) + 1.0 * est.unindexed_cost(QueryId(1));
        assert!((total - manual).abs() < 1e-9);
    }

    #[test]
    fn boundary_wrappers_agree_with_id_methods() {
        let w = workload();
        let est = AnalyticalWhatIf::new(&w);
        let k = Index::new(vec![AttrId(0), AttrId(1)]);
        let id = est.pool().intern(&k);
        assert_eq!(est.index_cost_of(QueryId(0), &k), est.index_cost(QueryId(0), id));
        assert_eq!(est.index_memory_of(&k), est.index_memory(id));
        assert_eq!(est.maintenance_cost_of(&k), est.maintenance_cost(id));
        assert_eq!(
            est.workload_cost_of(std::slice::from_ref(&k)),
            est.workload_cost(&[id])
        );
    }

    #[test]
    fn update_queries_pay_maintenance_per_index_on_their_table() {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 1_000);
        let a0 = b.attribute(t, "a0", 1_000, 4);
        let a1 = b.attribute(t, "a1", 10, 4);
        let w = Workload::new(
            b.finish(),
            vec![Query::update(TableId(0), vec![a0], 10)],
        );
        let est = AnalyticalWhatIf::new(&w);
        let k0 = est.pool().intern_single(a0);
        let k1 = est.pool().intern_single(a1);
        let locate = est.index_cost(QueryId(0), k0).unwrap();
        let both = est.config_cost(QueryId(0), &[k0, k1]);
        let expect = locate + est.maintenance_cost(k0) + est.maintenance_cost(k1);
        assert!((both - expect).abs() < 1e-9, "{both} vs {expect}");
        // An update-heavy workload can be *hurt* by an index that never
        // helps locating.
        let only_useless = est.config_cost(QueryId(0), &[k1]);
        assert!(only_useless > est.unindexed_cost(QueryId(0)));
    }

    #[test]
    fn stats_totals() {
        let s = WhatIfStats { calls_issued: 3, calls_answered_from_cache: 7 };
        assert_eq!(s.total_requests(), 10);
    }
}
