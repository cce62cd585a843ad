//! What-if oracle backed by explicit cost tables.
//!
//! The end-to-end evaluation (Section IV-B) does not trust optimizer
//! estimates: every query is *executed* under every candidate index and the
//! measured runtimes "are then used (instead of what-if estimations) to
//! feed the model's cost parameters". [`TabularWhatIf`] is that feeding
//! mechanism — `isel-dbsim` measures, the table answers.
//!
//! Because a multi-attribute index serves any query along its usable
//! prefix, lookups fall back from the full index to the measured cost of
//! ever shorter prefixes (an index `(a,b)` answers a query on `a` exactly
//! like the measured index `(a)` did). The pool's parent links make that
//! descent a pointer walk: probe the full id, jump to the usable ancestor,
//! then follow parent links — no key vectors are built or re-hashed.

use crate::cache::{pack_key, IdHashBuilder};
use crate::whatif::WhatIfOptimizer;
use isel_workload::{Index, IndexId, IndexPool, QueryId, Workload};
use std::collections::HashMap;

/// Cost tables: measured or precomputed query costs.
pub struct TabularWhatIf {
    workload: Workload,
    pool: IndexPool,
    unindexed: Vec<f64>,
    /// Measured `f_j(k)` keyed by [`pack_key`]`(j, k)`.
    indexed: HashMap<u64, f64, IdHashBuilder>,
    /// Measured or computed `p_k`.
    memory: HashMap<IndexId, u64, IdHashBuilder>,
}

impl TabularWhatIf {
    /// Build an oracle over `workload` with per-query unindexed costs.
    ///
    /// # Panics
    ///
    /// Panics if `unindexed.len()` does not match the query count.
    pub fn new(workload: Workload, unindexed: Vec<f64>) -> Self {
        assert_eq!(
            unindexed.len(),
            workload.query_count(),
            "need one unindexed cost per query"
        );
        let pool = IndexPool::new(workload.schema());
        Self {
            workload,
            pool,
            unindexed,
            indexed: HashMap::default(),
            memory: HashMap::default(),
        }
    }

    /// Record a measured cost `f_j(k)`.
    pub fn set_index_cost(&mut self, query: QueryId, index: &Index, cost: f64) {
        let id = self.pool.intern(index);
        self.indexed.insert(pack_key(query, id), cost);
    }

    /// Record the memory footprint of an index.
    pub fn set_index_memory(&mut self, index: &Index, bytes: u64) {
        let id = self.pool.intern(index);
        self.memory.insert(id, bytes);
    }

    fn lookup(&self, query: QueryId, index: IndexId) -> Option<f64> {
        // Exact entry first, then progressively shorter usable prefixes:
        // the executor can only exploit the prefix of the index bound by
        // the query, so the measured cost of that prefix is the truth.
        let q = self.workload.query(query);
        let usable = self.pool.usable_prefix_len(q, index);
        if usable == 0 {
            return None;
        }
        if let Some(&c) = self.indexed.get(&pack_key(query, index)) {
            return Some(c);
        }
        // Descend: unusable suffix widths are skipped in one jump to the
        // usable ancestor, then each shorter prefix is probed in turn.
        let mut cur = if self.pool.width(index) > usable {
            self.pool.usable_ancestor(q, index)
        } else {
            self.pool.parent(index)
        };
        while let Some(k) = cur {
            if let Some(&c) = self.indexed.get(&pack_key(query, k)) {
                return Some(c);
            }
            cur = self.pool.parent(k);
        }
        // Applicable but never measured: fall back to "no index".
        Some(self.unindexed[query.idx()])
    }
}

impl WhatIfOptimizer for TabularWhatIf {
    fn workload(&self) -> &Workload {
        &self.workload
    }

    fn pool(&self) -> &IndexPool {
        &self.pool
    }

    fn unindexed_cost(&self, query: QueryId) -> f64 {
        self.unindexed[query.idx()]
    }

    fn index_cost(&self, query: QueryId, index: IndexId) -> Option<f64> {
        self.lookup(query, index)
    }

    fn index_memory(&self, index: IndexId) -> u64 {
        if let Some(&m) = self.memory.get(&index) {
            return m;
        }
        crate::model::index_memory_attrs(self.workload.schema(), self.pool.attrs(index))
    }

    fn maintenance_cost(&self, index: IndexId) -> f64 {
        crate::model::update_maintenance_cost_attrs(self.workload.schema(), self.pool.attrs(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_workload::{AttrId, Query, SchemaBuilder, TableId};

    fn fixture() -> (Workload, AttrId, AttrId) {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 100);
        let a0 = b.attribute(t, "a0", 100, 4);
        let a1 = b.attribute(t, "a1", 10, 4);
        let w = Workload::new(
            b.finish(),
            vec![
                Query::new(TableId(0), vec![a0, a1], 1),
                Query::new(TableId(0), vec![a0], 1),
            ],
        );
        (w, a0, a1)
    }

    #[test]
    fn exact_entries_win() {
        let (w, a0, a1) = fixture();
        let mut t = TabularWhatIf::new(w, vec![100.0, 50.0]);
        let k = Index::new(vec![a0, a1]);
        t.set_index_cost(QueryId(0), &k, 7.0);
        assert_eq!(t.index_cost_of(QueryId(0), &k), Some(7.0));
    }

    #[test]
    fn prefix_fallback_matches_usable_prefix() {
        let (w, a0, a1) = fixture();
        let mut t = TabularWhatIf::new(w, vec![100.0, 50.0]);
        t.set_index_cost(QueryId(1), &Index::single(a0), 3.0);
        // Query 1 accesses only a0; an (a0, a1) index behaves like (a0).
        let wide = Index::new(vec![a0, a1]);
        assert_eq!(t.index_cost_of(QueryId(1), &wide), Some(3.0));
    }

    #[test]
    fn inapplicable_index_is_none() {
        let (w, _a0, a1) = fixture();
        let t = TabularWhatIf::new(w, vec![100.0, 50.0]);
        assert_eq!(t.index_cost_of(QueryId(1), &Index::single(a1)), None);
    }

    #[test]
    fn unmeasured_applicable_index_falls_back_to_scan_cost() {
        let (w, a0, _) = fixture();
        let t = TabularWhatIf::new(w, vec![100.0, 50.0]);
        assert_eq!(t.index_cost_of(QueryId(1), &Index::single(a0)), Some(50.0));
    }

    #[test]
    fn memory_table_overrides_analytic_formula() {
        let (w, a0, _) = fixture();
        let mut t = TabularWhatIf::new(w, vec![100.0, 50.0]);
        let k = Index::single(a0);
        let analytic = t.index_memory_of(&k);
        t.set_index_memory(&k, 12345);
        assert_eq!(t.index_memory_of(&k), 12345);
        assert_ne!(analytic, 12345);
    }

    #[test]
    fn maintenance_is_the_analytical_formula() {
        let (w, a0, _) = fixture();
        let t = TabularWhatIf::new(w, vec![100.0, 50.0]);
        let analytic = crate::model::update_maintenance_cost_attrs(t.workload().schema(), &[a0]);
        assert!(analytic > 0.0);
        assert_eq!(t.maintenance_cost_of(&Index::single(a0)), analytic);
    }

    #[test]
    #[should_panic(expected = "one unindexed cost per query")]
    fn wrong_table_size_rejected() {
        let (w, _, _) = fixture();
        TabularWhatIf::new(w, vec![1.0]);
    }
}
