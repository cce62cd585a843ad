//! The reproducible exemplary cost model of Appendix B.
//!
//! Costs approximate the memory traffic (in bytes, plus logarithmic seek
//! terms) of evaluating a conjunctive equality selection in a columnar,
//! vector-at-a-time engine:
//!
//! * **Unindexed scan** — predicates are evaluated in ascending-selectivity
//!   order; evaluating attribute `i` over the surviving fraction `c` of the
//!   table reads `a_i · n · c` bytes and writes a 4-byte position-list entry
//!   per qualifying row: `4 · n · c · s_i`.
//! * **Index access** — an applicable index `k` (leading attribute inside
//!   `q_j`) is searched along its usable prefix `U(q_j, k)`:
//!   `log2(n) + Σ_{i∈U} a_i · log2(d_i) + 4 · n · Π_{m∈U} s_m`
//!   (binary search, composite key comparisons, and materialization of the
//!   matching position list). Residual attributes are then scanned over the
//!   surviving fraction as above.
//! * **Index memory** — `p_k = ⌈⌈log2 n⌉ · n / 8⌉ + Σ_{i∈k} a_i · n`
//!   (packed row-id array plus the key columns).
//!
//! The functions are pure so they can be property-tested; [`AnalyticalWhatIf`]
//! wraps them behind the [`crate::WhatIfOptimizer`] trait.

use crate::whatif::WhatIfOptimizer;
use isel_workload::{AttrId, Index, IndexId, IndexPool, Query, QueryId, Schema, Workload};

/// Bytes per position-list entry.
pub const POSITION_BYTES: f64 = 4.0;

/// Cost of evaluating `query` by pure column scans (no index), i.e. `f_j(0)`.
pub fn scan_cost(schema: &Schema, query: &Query) -> f64 {
    let n = schema.rows_of(query.attrs()[0]) as f64;
    let mut attrs: Vec<AttrId> = query.attrs().to_vec();
    sort_by_selectivity(schema, &mut attrs);
    residual_scan_cost(schema, n, &attrs, 1.0)
}

/// Cost of scanning `attrs` (already ordered by ascending selectivity) over
/// the surviving row fraction `c` of a table with `n` rows.
fn residual_scan_cost(schema: &Schema, n: f64, attrs: &[AttrId], mut c: f64) -> f64 {
    let mut cost = 0.0;
    for &a in attrs {
        let attr = schema.attribute(a);
        cost += attr.value_size as f64 * n * c;
        let s = attr.selectivity();
        cost += POSITION_BYTES * n * c * s;
        c *= s;
    }
    cost
}

fn sort_by_selectivity(schema: &Schema, attrs: &mut [AttrId]) {
    attrs.sort_by(|a, b| {
        isel_workload::ord::total_cmp_nan_lowest(schema.selectivity(*a), schema.selectivity(*b))
            .then(a.cmp(b))
    });
}

/// Access cost of searching an index with key attributes `key_attrs` along
/// a usable prefix of length `prefix_len`, returning
/// `(cost, result_fraction)`.
fn index_access_cost(schema: &Schema, key_attrs: &[AttrId], prefix_len: usize) -> (f64, f64) {
    debug_assert!(prefix_len >= 1 && prefix_len <= key_attrs.len());
    let n = schema.rows_of(key_attrs[0]) as f64;
    let mut cost = n.log2().max(0.0);
    let mut frac = 1.0;
    for &a in &key_attrs[..prefix_len] {
        let attr = schema.attribute(a);
        cost += attr.value_size as f64 * (attr.distinct_values as f64).log2().max(0.0);
        frac *= attr.selectivity();
    }
    cost += POSITION_BYTES * n * frac;
    (cost, frac)
}

/// Cost `f_j(k)` of evaluating `query` using exactly the index with the
/// ordered key `key_attrs` (then scanning any residual attributes). `None`
/// if the index is not applicable (its leading attribute is not accessed
/// by the query). [`AnalyticalWhatIf`] resolves an [`IndexId`] to exactly
/// this borrowed slice, so no [`Index`] is materialized per probe.
///
/// The engine may bind any *prefix* of the composite key and post-filter
/// the rest, so the cost is the minimum over all usable prefix lengths.
/// (Always forcing the full usable prefix would make a composite index
/// *worse* than its own leading attribute once the prefix is already
/// unique — extending an index could then degrade queries it serves,
/// breaking the paper's Property 1 and the morphing step's monotonicity.)
pub fn index_scan_cost_attrs(schema: &Schema, query: &Query, key_attrs: &[AttrId]) -> Option<f64> {
    let usable = key_attrs
        .iter()
        .take_while(|a| query.accesses(**a))
        .count();
    if usable == 0 {
        return None;
    }
    let n = schema.rows_of(query.attrs()[0]) as f64;
    let mut best = f64::INFINITY;
    for prefix_len in 1..=usable {
        let (mut cost, frac) = index_access_cost(schema, key_attrs, prefix_len);
        let covered = &key_attrs[..prefix_len];
        let mut residual: Vec<AttrId> = query
            .attrs()
            .iter()
            .copied()
            .filter(|a| !covered.contains(a))
            .collect();
        sort_by_selectivity(schema, &mut residual);
        cost += residual_scan_cost(schema, n, &residual, frac);
        best = best.min(cost);
    }
    Some(best)
}

/// Maintenance cost of one update execution against `index`: locate the
/// entry by binary search (`log2 n` plus composite key comparisons) and
/// rewrite the key columns plus the 4-byte row id.
///
/// This is the write-amplification term that makes indexes *cost* under
/// update-heavy workloads; CoPhy's base formulation drops it "w.l.o.g."
/// (Section II-B), the general model of Section II-A includes it.
pub fn update_maintenance_cost_attrs(schema: &Schema, key_attrs: &[AttrId]) -> f64 {
    let n = schema.rows_of(key_attrs[0]) as f64;
    let mut cost = n.log2().max(0.0);
    let mut key_bytes = 0.0;
    for &a in key_attrs {
        let attr = schema.attribute(a);
        cost += attr.value_size as f64 * (attr.distinct_values as f64).log2().max(0.0);
        key_bytes += attr.value_size as f64;
    }
    cost + key_bytes + POSITION_BYTES
}

/// Index memory `p_k = ⌈⌈log2 n⌉ · n / 8⌉ + Σ_{i∈k} a_i · n`.
pub fn index_memory(schema: &Schema, index: &Index) -> u64 {
    index_memory_attrs(schema, index.attrs())
}

/// [`index_memory`] over a raw ordered attribute list.
pub fn index_memory_attrs(schema: &Schema, key_attrs: &[AttrId]) -> u64 {
    let n = schema.rows_of(key_attrs[0]);
    let bits = (n.max(2) as f64).log2().ceil() as u64;
    let rowid_bytes = (bits * n).div_ceil(8);
    let key_bytes: u64 = key_attrs
        .iter()
        .map(|&a| schema.attribute(a).value_size as u64 * n)
        .sum();
    rowid_bytes + key_bytes
}

/// The analytical what-if optimizer: Appendix B behind the
/// [`WhatIfOptimizer`] trait, as a pure cost function (wrap it in a
/// [`CachingWhatIf`](crate::CachingWhatIf) to memoize and count calls).
pub struct AnalyticalWhatIf<'a> {
    workload: &'a Workload,
    pool: IndexPool,
}

impl<'a> AnalyticalWhatIf<'a> {
    /// Estimator over `workload`.
    pub fn new(workload: &'a Workload) -> Self {
        Self {
            workload,
            pool: IndexPool::new(workload.schema()),
        }
    }
}

impl WhatIfOptimizer for AnalyticalWhatIf<'_> {
    fn workload(&self) -> &Workload {
        self.workload
    }

    fn pool(&self) -> &IndexPool {
        &self.pool
    }

    fn unindexed_cost(&self, query: QueryId) -> f64 {
        scan_cost(self.workload.schema(), self.workload.query(query))
    }

    fn index_cost(&self, query: QueryId, index: IndexId) -> Option<f64> {
        index_scan_cost_attrs(
            self.workload.schema(),
            self.workload.query(query),
            self.pool.attrs(index),
        )
    }

    fn index_memory(&self, index: IndexId) -> u64 {
        index_memory_attrs(self.workload.schema(), self.pool.attrs(index))
    }

    fn maintenance_cost(&self, index: IndexId) -> f64 {
        update_maintenance_cost_attrs(self.workload.schema(), self.pool.attrs(index))
    }
}

/// [`index_scan_cost_attrs`] of a whole [`Index`], for the tests below.
#[cfg(test)]
pub(crate) fn index_scan_cost(schema: &Schema, query: &Query, index: &Index) -> Option<f64> {
    index_scan_cost_attrs(schema, query, index.attrs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_workload::{SchemaBuilder, TableId};

    /// One table, 1024 rows, attributes with round cardinalities so the
    /// expected costs are easy to compute by hand.
    fn fixture() -> (Schema, AttrId, AttrId, AttrId) {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 1024);
        let hi = b.attribute(t, "hi", 1024, 4); // s = 1/1024, unique
        let mid = b.attribute(t, "mid", 16, 8); // s = 1/16
        let lo = b.attribute(t, "lo", 2, 4); // s = 1/2
        (b.finish(), hi, mid, lo)
    }

    fn q(attrs: &[AttrId]) -> Query {
        Query::new(TableId(0), attrs.to_vec(), 1)
    }

    #[test]
    fn scan_cost_orders_by_selectivity() {
        let (s, hi, _, lo) = fixture();
        // hi first (s=1/1024): 4·1024 read + 4·1024/1024 written = 4100;
        // then lo over c=1/1024: 4·1 read + 4·1·0.5 written = 6.
        let cost = scan_cost(&s, &q(&[hi, lo]));
        assert!((cost - (4.0 * 1024.0 + 4.0 + 4.0 + 2.0)).abs() < 1e-9, "cost={cost}");
    }

    #[test]
    fn scan_cost_single_attribute() {
        let (s, _, mid, _) = fixture();
        // 8·1024 read + 4·1024/16 written.
        let cost = scan_cost(&s, &q(&[mid]));
        assert!((cost - (8192.0 + 256.0)).abs() < 1e-9);
    }

    #[test]
    fn index_cost_requires_leading_attribute() {
        let (s, hi, mid, _) = fixture();
        let k = Index::new(vec![mid, hi]);
        assert!(index_scan_cost(&s, &q(&[hi]), &k).is_none());
        assert!(index_scan_cost(&s, &q(&[mid]), &k).is_some());
    }

    #[test]
    fn index_beats_scan_on_selective_attribute() {
        let (s, hi, _, _) = fixture();
        let query = q(&[hi]);
        let k = Index::single(hi);
        let with = index_scan_cost(&s, &query, &k).unwrap();
        let without = scan_cost(&s, &query);
        // Index: log2(1024) + 4·log2(1024) + 4·1 = 10 + 40 + 4 = 54.
        assert!((with - 54.0).abs() < 1e-9, "with={with}");
        assert!(with < without);
    }

    #[test]
    fn extending_a_nonselective_prefix_pays_off() {
        let (s, _, mid, lo) = fixture();
        let query = q(&[mid, lo]);
        let k1 = Index::single(mid);
        let k2 = Index::new(vec![mid, lo]);
        let c1 = index_scan_cost(&s, &query, &k1).unwrap();
        let c2 = index_scan_cost(&s, &query, &k2).unwrap();
        assert!(c2 < c1, "c1={c1} c2={c2}");
    }

    #[test]
    fn extending_an_already_unique_prefix_neither_pays_nor_hurts() {
        // Diminishing returns (Property 1/4 in Section V): once the prefix
        // is unique, appending another attribute cannot help — and because
        // the engine may bind the shorter prefix, it cannot hurt either
        // (extension monotonicity, which Algorithm 1's morphing relies on).
        let (s, hi, mid, lo) = fixture();
        let query = q(&[hi, mid, lo]);
        let k1 = Index::single(hi);
        let k2 = Index::new(vec![hi, mid]);
        let c1 = index_scan_cost(&s, &query, &k1).unwrap();
        let c2 = index_scan_cost(&s, &query, &k2).unwrap();
        assert_eq!(c1, c2, "c1={c1} c2={c2}");
    }

    #[test]
    fn extension_never_increases_any_query_cost() {
        // The monotonicity the morphing step needs, checked exhaustively
        // over the fixture's attribute permutations.
        let (s, hi, mid, lo) = fixture();
        let attrs = [hi, mid, lo];
        for &lead in &attrs {
            for &next in &attrs {
                if next == lead {
                    continue;
                }
                let k = Index::single(lead);
                let ext = k.extended(next);
                for query in [q(&[lead]), q(&[lead, next]), q(&[hi, mid, lo])] {
                    let before = index_scan_cost(&s, &query, &k).unwrap();
                    let after = index_scan_cost(&s, &query, &ext).unwrap();
                    assert!(
                        after <= before + 1e-12,
                        "extension hurt: {k:?}->{ext:?} {before} -> {after}"
                    );
                }
            }
        }
    }

    #[test]
    fn unusable_suffix_attributes_do_not_change_cost() {
        let (s, hi, mid, lo) = fixture();
        // Query lacks `mid`, so only the `hi` prefix of (hi, mid, lo) is
        // usable; cost must equal that of the single-attribute index.
        let query = q(&[hi, lo]);
        let wide = Index::new(vec![hi, mid, lo]);
        let narrow = Index::single(hi);
        assert_eq!(
            index_scan_cost(&s, &query, &wide),
            index_scan_cost(&s, &query, &narrow)
        );
    }

    #[test]
    fn index_memory_formula() {
        let (s, hi, mid, _) = fixture();
        // n=1024 → 10 bits per row-id → 10·1024/8 = 1280 bytes, plus keys.
        assert_eq!(index_memory(&s, &Index::single(hi)), 1280 + 4 * 1024);
        assert_eq!(
            index_memory(&s, &Index::new(vec![hi, mid])),
            1280 + 4 * 1024 + 8 * 1024
        );
    }

    #[test]
    fn memory_grows_with_width() {
        let (s, hi, mid, lo) = fixture();
        let k1 = Index::single(hi);
        let k2 = k1.extended(mid);
        let k3 = k2.extended(lo);
        assert!(index_memory(&s, &k1) < index_memory(&s, &k2));
        assert!(index_memory(&s, &k2) < index_memory(&s, &k3));
    }

    #[test]
    fn maintenance_grows_with_index_width() {
        let (s, hi, mid, lo) = fixture();
        let k1 = Index::single(hi);
        let k2 = k1.extended(mid);
        let k3 = k2.extended(lo);
        let m1 = update_maintenance_cost_attrs(&s, k1.attrs());
        let m2 = update_maintenance_cost_attrs(&s, k2.attrs());
        let m3 = update_maintenance_cost_attrs(&s, k3.attrs());
        assert!(m1 > 0.0);
        assert!(m2 > m1);
        assert!(m3 > m2);
    }

    #[test]
    fn analytical_whatif_counts_no_calls() {
        // The leaf is a pure cost function; only the ledger counts.
        let (s, hi, _, _) = fixture();
        let w = Workload::new(s, vec![q(&[hi])]);
        let est = AnalyticalWhatIf::new(&w);
        est.unindexed_cost(QueryId(0));
        let k = est.pool().intern_single(hi);
        est.index_cost(QueryId(0), k);
        assert_eq!(est.stats(), crate::WhatIfStats::default());
        assert_eq!(est.cache_stats(), None);
    }
}
