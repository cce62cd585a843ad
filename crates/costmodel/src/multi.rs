//! Multi-index query evaluation (Appendix B (i) and Remark 2).
//!
//! Example 1 restricts queries to a single index ("one index only") to stay
//! comparable with CoPhy. The underlying cost model, however, is defined
//! for *sets* of indexes: a query repeatedly picks the applicable index
//! with the smallest result set for its remaining attributes, accumulates
//! the index access cost, intersects position lists, and finally scans
//! whatever attributes no index covered.
//!
//! [`MultiIndexAnalyticalWhatIf`] exposes that evaluation behind the
//! [`WhatIfOptimizer`] trait by overriding
//! [`config_cost`](WhatIfOptimizer::config_cost); Algorithm 1 works
//! unchanged against it (Remark 2), it merely has to refresh cached costs
//! after each construction step.

use crate::model::{self, POSITION_BYTES};
use crate::whatif::WhatIfOptimizer;
use isel_workload::{AttrId, Index, IndexId, IndexPool, Query, QueryId, QueryKind, Schema, Workload};

/// Cost of evaluating `attrs` by scanning the surviving `c`-fraction of
/// the table, cheapest selectivity first (the Appendix-B residual scan).
fn residual_scan_cost(schema: &Schema, attrs: &[AttrId], n: f64, c: f64) -> f64 {
    let mut sorted: Vec<AttrId> = attrs.to_vec();
    // NaN-safe: a degenerate selectivity (0/0 on an empty table) ranks
    // lowest, keeping the ascending scan order total and deterministic
    // (attribute-id tie-break) instead of panicking mid-costing.
    sorted.sort_by(|a, b| {
        isel_workload::ord::total_cmp_nan_lowest(schema.selectivity(*a), schema.selectivity(*b))
            .then(a.cmp(b))
    });
    let mut cost = 0.0;
    let mut cc = c;
    for &a in &sorted {
        let attr = schema.attribute(a);
        cost += attr.value_size as f64 * n * cc;
        cost += POSITION_BYTES * n * cc * attr.selectivity();
        cc *= attr.selectivity();
    }
    cost
}

/// `f_j(I*)` with multiple indexes per query (Appendix B (i)).
///
/// Procedure: among the indexes applicable to the *remaining* attribute
/// set, choose the one minimizing the query's *total* cost if it were the
/// last index used — access cost (search term included, so a wide-value
/// index on a barely-more-selective attribute loses to a cheap one), plus
/// the position-list intersection, plus the residual scan of whatever it
/// leaves uncovered. Use it if that total undercuts scanning the remaining
/// attributes outright; repeat; scan the rest.
///
/// The one-step-lookahead pick makes the result sandwich cleanly: it never
/// exceeds the plain scan, and never exceeds the best single applicable
/// index (whose total is among the candidates of the first round).
pub fn multi_index_cost(schema: &Schema, query: &Query, config: &[Index]) -> f64 {
    let n = schema.rows_of(query.attrs()[0]) as f64;
    let mut remaining: Vec<AttrId> = query.attrs().to_vec();
    let mut c = 1.0; // surviving row fraction
    let mut cost = 0.0;
    let mut first = true;

    loop {
        // Cost of stopping here: scan everything still uncovered.
        let baseline = residual_scan_cost(schema, &remaining, n, c);
        // (cfg idx, prefix len, frac, access + intersect, lookahead total)
        let mut best: Option<(usize, usize, f64, f64, f64)> = None;
        for (i, k) in config.iter().enumerate() {
            let plen = k.usable_prefix_len_in(&remaining);
            if plen == 0 {
                continue;
            }
            let frac: f64 = k.attrs()[..plen]
                .iter()
                .map(|&a| schema.attribute(a).selectivity())
                .product();
            // Access cost of this index (search + position-list write).
            let mut access = n.log2().max(0.0);
            for &a in &k.attrs()[..plen] {
                let attr = schema.attribute(a);
                access +=
                    attr.value_size as f64 * (attr.distinct_values as f64).log2().max(0.0);
            }
            access += POSITION_BYTES * n * frac;
            // Intersecting the new position list with the current one
            // writes the (smaller) intersection.
            let intersect = if first { 0.0 } else { POSITION_BYTES * n * (c * frac) };
            let tail: Vec<AttrId> = remaining
                .iter()
                .copied()
                .filter(|a| !k.attrs()[..plen].contains(a))
                .collect();
            let total =
                access + intersect + residual_scan_cost(schema, &tail, n, c * frac);
            // Strict `<` keeps the earliest config index on ties —
            // deterministic regardless of candidate order upstream.
            if best.is_none_or(|(.., bt)| total < bt) {
                best = Some((i, plen, frac, access + intersect, total));
            }
        }
        let Some((ki, plen, frac, step_cost, total)) = best else { break };
        // An index only pays off while using it undercuts scanning the
        // remaining attributes outright.
        if total >= baseline {
            break;
        }
        cost += step_cost;
        c *= frac;
        first = false;
        let k = &config[ki];
        remaining.retain(|a| !k.attrs()[..plen].contains(a));
        if remaining.is_empty() {
            break;
        }
    }

    // Scan whatever is left, cheapest-selectivity first.
    cost + residual_scan_cost(schema, &remaining, n, c)
}

/// Analytical what-if oracle evaluating configurations with multiple
/// indexes per query.
pub struct MultiIndexAnalyticalWhatIf<'a> {
    workload: &'a Workload,
    pool: IndexPool,
}

impl<'a> MultiIndexAnalyticalWhatIf<'a> {
    /// Oracle over `workload`.
    pub fn new(workload: &'a Workload) -> Self {
        Self {
            workload,
            pool: IndexPool::new(workload.schema()),
        }
    }
}

impl WhatIfOptimizer for MultiIndexAnalyticalWhatIf<'_> {
    fn workload(&self) -> &Workload {
        self.workload
    }

    fn pool(&self) -> &IndexPool {
        &self.pool
    }

    fn unindexed_cost(&self, query: QueryId) -> f64 {
        model::scan_cost(self.workload.schema(), self.workload.query(query))
    }

    fn index_cost(&self, query: QueryId, index: IndexId) -> Option<f64> {
        model::index_scan_cost_attrs(
            self.workload.schema(),
            self.workload.query(query),
            self.pool.attrs(index),
        )
    }

    fn index_memory(&self, index: IndexId) -> u64 {
        model::index_memory_attrs(self.workload.schema(), self.pool.attrs(index))
    }

    fn maintenance_cost(&self, index: IndexId) -> f64 {
        model::update_maintenance_cost_attrs(self.workload.schema(), self.pool.attrs(index))
    }

    fn config_cost(&self, query: QueryId, config: &[IndexId]) -> f64 {
        let q = self.workload.query(query);
        // The multi-index evaluation is a genuine per-call optimizer run;
        // resolving ids to owned indexes here is noise next to its cost.
        let resolved: Vec<Index> = config.iter().map(|&k| self.pool.resolve(k)).collect();
        let mut cost = multi_index_cost(self.workload.schema(), q, &resolved);
        if q.kind() == QueryKind::Update {
            for &k in config {
                if self.pool.table(k) == q.table() {
                    cost += self.maintenance_cost(k);
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_workload::{Query, SchemaBuilder, TableId};

    fn fixture() -> (Schema, Vec<AttrId>) {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 1_048_576); // 2^20 rows
        let attrs = vec![
            b.attribute(t, "u", 1_048_576, 4), // unique
            b.attribute(t, "v", 4_096, 4),
            b.attribute(t, "w", 64, 4),
            b.attribute(t, "x", 4, 4),
        ];
        (b.finish(), attrs)
    }

    fn q(attrs: &[AttrId]) -> Query {
        Query::new(TableId(0), attrs.to_vec(), 1)
    }

    #[test]
    fn empty_config_equals_scan_cost() {
        let (s, a) = fixture();
        let query = q(&[a[0], a[2]]);
        assert_eq!(multi_index_cost(&s, &query, &[]), model::scan_cost(&s, &query));
    }

    #[test]
    fn single_index_config_matches_single_index_cost() {
        let (s, a) = fixture();
        let query = q(&[a[0], a[2]]);
        let k = Index::single(a[0]);
        let multi = multi_index_cost(&s, &query, std::slice::from_ref(&k));
        let single = model::index_scan_cost(&s, &query, &k).unwrap();
        assert!((multi - single).abs() < 1e-9, "multi={multi} single={single}");
    }

    #[test]
    fn two_disjoint_indexes_can_beat_one() {
        let (s, a) = fixture();
        // Query on v and w; indexes on each separately. Using both
        // (intersecting position lists) must not be worse than the best
        // single one, and here v's list (1/4096) then w's (1/64) is cheap.
        let query = q(&[a[1], a[2]]);
        let kv = Index::single(a[1]);
        let kw = Index::single(a[2]);
        let both = multi_index_cost(&s, &query, &[kv.clone(), kw.clone()]);
        let only_v = multi_index_cost(&s, &query, std::slice::from_ref(&kv));
        let only_w = multi_index_cost(&s, &query, std::slice::from_ref(&kw));
        assert!(both <= only_v + 1e-9);
        assert!(both <= only_w + 1e-9);
    }

    #[test]
    fn useless_index_is_ignored() {
        let (s, a) = fixture();
        let query = q(&[a[1]]);
        let useless = Index::single(a[3]); // not accessed by the query
        let with = multi_index_cost(&s, &query, std::slice::from_ref(&useless));
        assert_eq!(with, model::scan_cost(&s, &query));
    }

    #[test]
    fn low_selectivity_index_rejected_when_scan_is_cheaper() {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 1_000);
        let flag = b.attribute(t, "flag", 2, 1); // s = 0.5, tiny column
        let s = b.finish();
        let query = q(&[flag]);
        let k = Index::single(flag);
        // Scan: 1·1000 + 4·1000·0.5 = 3000; index: ~10 + 1 + 4·500 = 2011.
        // Here the index actually wins; shrink the table so log terms
        // dominate.
        let cost = multi_index_cost(&s, &query, std::slice::from_ref(&k));
        assert!(cost <= model::scan_cost(&s, &query));
    }

    #[test]
    fn pick_weighs_access_cost_not_just_selectivity() {
        // Two near-tied selectivities; the slightly more selective index
        // has a wide value (expensive search term). The total-cost pick
        // must choose the cheap one and never exceed the best single.
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 200_000);
        let cheap = b.attribute(t, "cheap", 110_000, 1);
        let wide = b.attribute(t, "wide", 113_000, 8);
        let s = b.finish();
        let query = q(&[cheap, wide]);
        let kc = Index::single(cheap);
        let kw = Index::single(wide);
        let both = multi_index_cost(&s, &query, &[kw.clone(), kc.clone()]);
        let best_single = model::index_scan_cost(&s, &query, &kc)
            .unwrap()
            .min(model::index_scan_cost(&s, &query, &kw).unwrap());
        assert!(
            both <= best_single + 1e-9,
            "multi {both} worse than best single {best_single}"
        );
    }

    #[test]
    fn multi_never_exceeds_best_single_or_scan() {
        let (s, a) = fixture();
        let config: Vec<Index> = vec![
            Index::single(a[0]),
            Index::single(a[1]),
            Index::new(vec![a[2], a[3]]),
        ];
        for attrs in [
            vec![a[0]],
            vec![a[1], a[2]],
            vec![a[0], a[2], a[3]],
            vec![a[1], a[2], a[3]],
        ] {
            let query = q(&attrs);
            let multi = multi_index_cost(&s, &query, &config);
            let scan = model::scan_cost(&s, &query);
            assert!(multi <= scan + 1e-9, "{attrs:?}: multi {multi} > scan {scan}");
            for k in &config {
                if let Some(single) = model::index_scan_cost(&s, &query, k) {
                    assert!(
                        multi <= single + 1e-9,
                        "{attrs:?}: multi {multi} > single {single} via {k:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_overrides_config_cost() {
        let (s, a) = fixture();
        let w = Workload::new(s, vec![q(&[a[1], a[2]])]);
        let oracle = MultiIndexAnalyticalWhatIf::new(&w);
        let kv = Index::single(a[1]);
        let kw = Index::single(a[2]);
        let cfg = vec![kv, kw];
        let got = oracle.config_cost_of(QueryId(0), &cfg);
        let expect = multi_index_cost(w.schema(), w.query(QueryId(0)), &cfg);
        assert_eq!(got, expect);
    }
}
