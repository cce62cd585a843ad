//! Observed-cost calibration: rescale what-if estimates by learned
//! observed/estimated ratios.
//!
//! The selection algorithms optimize against *estimates*; the service's
//! feedback tracker aggregates *observed* execution costs (from
//! `isel-dbsim` probes or production measurements) per template. This
//! module closes the gap: [`RatioTable::build`] divides each warmed-up
//! observed mean by the estimate the inner oracle produces for the same
//! question, and [`CalibratedWhatIf`] multiplies the two cost primitives
//! (`unindexed_cost`, `index_cost`) by the learned ratio on the way out.
//! Every derived quantity (`config_cost`, `workload_cost`) recomputes
//! through those primitives, so calibration is consistent by
//! construction.
//!
//! Two contracts matter for the service's determinism story:
//!
//! * **Identity until warm** — a template with no ratio returns the
//!   inner oracle's value *untouched* (not multiplied by `1.0`), so an
//!   empty table is bit-identical to the unwrapped oracle.
//! * **Bounded influence** — ratios are clamped to
//!   `[1/RATIO_CLAMP, RATIO_CLAMP]` and non-finite or non-positive
//!   ratios are discarded, so a single corrupt observation can never
//!   poison a selection.

use crate::cache::pack_key;
use crate::whatif::WhatIfOptimizer;
use isel_workload::{AttrId, Index, IndexId, IndexPool, QueryId, QueryKind, Workload};
use std::collections::HashMap;

/// Hard bound on how far a learned ratio may scale an estimate, in
/// either direction.
pub const RATIO_CLAMP: f64 = 64.0;

/// One warmed-up observation aggregate handed over by the service's
/// feedback tracker: the template it applies to and the decayed
/// geometric mean of its observed execution costs.
#[derive(Clone, Debug, PartialEq)]
pub struct TemplateProbe {
    /// Template kind (selects and updates calibrate independently).
    pub kind: QueryKind,
    /// Accessed attributes identifying the template.
    pub attrs: Vec<AttrId>,
    /// The index the cost was observed under; `None` means the
    /// sequential-scan (unindexed) execution.
    pub index: Option<Vec<AttrId>>,
    /// Decayed geometric mean of the observed costs.
    pub observed_mean: f64,
}

/// Learned observed/estimated cost ratios, keyed the same way the
/// oracle's hot path is: per `QueryId` for unindexed executions, per
/// packed `(QueryId, IndexId)` for indexed ones.
#[derive(Clone, Debug, Default)]
pub struct RatioTable {
    per_query: HashMap<u32, f64>,
    per_pair: HashMap<u64, f64>,
}

impl RatioTable {
    /// Resolve probes against `inner`'s workload and pool and compute
    /// clamped ratios. Probes that match no template, produce a
    /// non-finite or non-positive ratio, or name an inapplicable index
    /// are skipped — calibration degrades to identity, never to a
    /// panic.
    pub fn build<W: WhatIfOptimizer>(inner: &W, probes: &[TemplateProbe]) -> Self {
        let mut table = Self::default();
        for probe in probes {
            let Some((qid, _)) = inner
                .workload()
                .iter()
                .find(|(_, q)| q.kind() == probe.kind && q.attrs() == probe.attrs.as_slice())
            else {
                continue;
            };
            match &probe.index {
                None => {
                    let est = inner.unindexed_cost(qid);
                    if let Some(r) = sanitize_ratio(probe.observed_mean, est) {
                        table.per_query.insert(qid.0, r);
                    }
                }
                Some(attrs) => {
                    if attrs.is_empty() || has_duplicates(attrs) {
                        continue;
                    }
                    let k = inner.pool().intern(&Index::new(attrs.clone()));
                    if let Some(est) = inner.index_cost(qid, k) {
                        if let Some(r) = sanitize_ratio(probe.observed_mean, est) {
                            table.per_pair.insert(pack_key(qid, k), r);
                        }
                    }
                }
            }
        }
        table
    }

    /// Number of learned ratios (query-level + pair-level).
    pub fn len(&self) -> usize {
        self.per_query.len() + self.per_pair.len()
    }

    /// `true` when no ratio has been learned — the wrapper is then a
    /// bit-identical pass-through.
    pub fn is_empty(&self) -> bool {
        self.per_query.is_empty() && self.per_pair.is_empty()
    }

    /// Ratio for an unindexed execution of `query`, if learned.
    pub fn ratio_for_query(&self, query: QueryId) -> Option<f64> {
        self.per_query.get(&query.0).copied()
    }

    /// Ratio for `query` under `index`: the exact pair if learned,
    /// falling back to the query-level ratio (model bias is usually
    /// per-template, not per-index).
    pub fn ratio_for(&self, query: QueryId, index: IndexId) -> Option<f64> {
        self.per_pair
            .get(&pack_key(query, index))
            .copied()
            .or_else(|| self.ratio_for_query(query))
    }

    /// Every learned ratio (query-level and pair-level), in no
    /// particular order — for histogramming and status counters.
    pub fn all_ratios(&self) -> Vec<f64> {
        self.per_query
            .values()
            .chain(self.per_pair.values())
            .copied()
            .collect()
    }
}

fn has_duplicates(attrs: &[AttrId]) -> bool {
    let mut seen = attrs.to_vec();
    seen.sort_unstable();
    seen.windows(2).any(|w| w[0] == w[1])
}

fn sanitize_ratio(observed: f64, estimated: f64) -> Option<f64> {
    let r = observed / estimated;
    if r.is_finite() && r > 0.0 {
        Some(r.clamp(1.0 / RATIO_CLAMP, RATIO_CLAMP))
    } else {
        None
    }
}

/// A decorator that rescales the inner oracle's cost primitives by the
/// learned ratios. Memory, maintenance and the pool forward untouched;
/// `config_cost`/`workload_cost` recompute through the calibrated
/// primitives via the trait's default methods. Like the leaves it wraps,
/// it counts nothing: put a [`CachingWhatIf`](crate::CachingWhatIf) on
/// top to memoize and count.
#[derive(Clone, Debug)]
pub struct CalibratedWhatIf<W> {
    inner: W,
    ratios: RatioTable,
}

impl<W: WhatIfOptimizer> CalibratedWhatIf<W> {
    /// Wrap `inner`, scaling by `ratios`.
    pub fn new(inner: W, ratios: RatioTable) -> Self {
        Self { inner, ratios }
    }
}

impl<W: WhatIfOptimizer> WhatIfOptimizer for CalibratedWhatIf<W> {
    fn workload(&self) -> &Workload {
        self.inner.workload()
    }

    fn pool(&self) -> &IndexPool {
        self.inner.pool()
    }

    fn unindexed_cost(&self, query: QueryId) -> f64 {
        // Return the inner value untouched when uncalibrated: `c * 1.0`
        // is bit-identical for finite costs but this keeps the identity
        // contract airtight (NaN payloads, signed zeros).
        match self.ratios.ratio_for_query(query) {
            Some(r) => self.inner.unindexed_cost(query) * r,
            None => self.inner.unindexed_cost(query),
        }
    }

    fn index_cost(&self, query: QueryId, index: IndexId) -> Option<f64> {
        match self.ratios.ratio_for(query, index) {
            Some(r) => self.inner.index_cost(query, index).map(|c| c * r),
            None => self.inner.index_cost(query, index),
        }
    }

    fn index_memory(&self, index: IndexId) -> u64 {
        self.inner.index_memory(index)
    }

    fn maintenance_cost(&self, index: IndexId) -> f64 {
        self.inner.maintenance_cost(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AnalyticalWhatIf;
    use isel_workload::{Query, SchemaBuilder, TableId};

    fn workload() -> Workload {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 10_000);
        let a0 = b.attribute(t, "a0", 1_000, 4);
        let a1 = b.attribute(t, "a1", 10, 4);
        Workload::new(
            b.finish(),
            vec![
                Query::new(TableId(0), vec![a0, a1], 10),
                Query::new(TableId(0), vec![a1], 3),
            ],
        )
    }

    #[test]
    fn empty_table_is_bit_identical_passthrough() {
        let w = workload();
        let inner = AnalyticalWhatIf::new(&w);
        let cal = CalibratedWhatIf::new(AnalyticalWhatIf::new(&w), RatioTable::default());
        let k = cal.pool().intern(&Index::new(vec![AttrId(0), AttrId(1)]));
        let k_inner = inner.pool().intern(&Index::new(vec![AttrId(0), AttrId(1)]));
        for q in [QueryId(0), QueryId(1)] {
            assert_eq!(
                cal.unindexed_cost(q).to_bits(),
                inner.unindexed_cost(q).to_bits()
            );
            assert_eq!(
                cal.index_cost(q, k).map(f64::to_bits),
                inner.index_cost(q, k_inner).map(f64::to_bits)
            );
            assert_eq!(
                cal.config_cost(q, &[k]).to_bits(),
                inner.config_cost(q, &[k_inner]).to_bits()
            );
        }
        assert_eq!(
            cal.workload_cost(&[k]).to_bits(),
            inner.workload_cost(&[k_inner]).to_bits()
        );
    }

    #[test]
    fn learned_ratio_rescales_the_matched_template_only() {
        let w = workload();
        let inner = AnalyticalWhatIf::new(&w);
        let observed = 2.0 * inner.unindexed_cost(QueryId(0));
        let probes = vec![TemplateProbe {
            kind: QueryKind::Select,
            attrs: vec![AttrId(0), AttrId(1)],
            index: None,
            observed_mean: observed,
        }];
        let table = RatioTable::build(&inner, &probes);
        assert_eq!(table.len(), 1);
        let cal = CalibratedWhatIf::new(AnalyticalWhatIf::new(&w), table);
        let base = AnalyticalWhatIf::new(&w);
        assert_eq!(
            cal.unindexed_cost(QueryId(0)).to_bits(),
            (2.0 * base.unindexed_cost(QueryId(0))).to_bits()
        );
        // The other template is untouched.
        assert_eq!(
            cal.unindexed_cost(QueryId(1)).to_bits(),
            base.unindexed_cost(QueryId(1)).to_bits()
        );
    }

    #[test]
    fn pair_ratio_beats_query_ratio_and_falls_back() {
        let w = workload();
        let inner = AnalyticalWhatIf::new(&w);
        let k = inner.pool().intern(&Index::new(vec![AttrId(1)]));
        let est = inner.index_cost(QueryId(1), k).unwrap();
        let probes = vec![
            TemplateProbe {
                kind: QueryKind::Select,
                attrs: vec![AttrId(1)],
                index: None,
                observed_mean: 4.0 * inner.unindexed_cost(QueryId(1)),
            },
            TemplateProbe {
                kind: QueryKind::Select,
                attrs: vec![AttrId(1)],
                index: Some(vec![AttrId(1)]),
                observed_mean: 2.0 * est,
            },
        ];
        let table = RatioTable::build(&inner, &probes);
        assert_eq!(table.ratio_for(QueryId(1), k), Some(2.0));
        // An index with no pair-level ratio falls back to the
        // query-level one.
        let other = inner.pool().intern(&Index::new(vec![AttrId(0)]));
        assert_eq!(table.ratio_for(QueryId(1), other), Some(4.0));
    }

    #[test]
    fn ratios_are_clamped_and_garbage_is_skipped() {
        let w = workload();
        let inner = AnalyticalWhatIf::new(&w);
        let est = inner.unindexed_cost(QueryId(0));
        let probe = |observed: f64| TemplateProbe {
            kind: QueryKind::Select,
            attrs: vec![AttrId(0), AttrId(1)],
            index: None,
            observed_mean: observed,
        };
        let table = RatioTable::build(&inner, &[probe(est * 1e9)]);
        assert_eq!(table.ratio_for_query(QueryId(0)), Some(RATIO_CLAMP));
        let table = RatioTable::build(&inner, &[probe(est * 1e-9)]);
        assert_eq!(table.ratio_for_query(QueryId(0)), Some(1.0 / RATIO_CLAMP));
        for garbage in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            let table = RatioTable::build(&inner, &[probe(garbage)]);
            assert!(table.is_empty(), "observed {garbage} must be discarded");
        }
        // Unknown template and malformed index probes are skipped too.
        let unknown = TemplateProbe {
            kind: QueryKind::Update,
            attrs: vec![AttrId(0)],
            index: None,
            observed_mean: est,
        };
        assert!(RatioTable::build(&inner, &[unknown]).is_empty());
        let dup = TemplateProbe {
            kind: QueryKind::Select,
            attrs: vec![AttrId(0), AttrId(1)],
            index: Some(vec![AttrId(0), AttrId(0)]),
            observed_mean: est,
        };
        assert!(RatioTable::build(&inner, &[dup]).is_empty());
    }

    #[test]
    fn derived_costs_recompute_through_calibrated_primitives() {
        let w = workload();
        let inner = AnalyticalWhatIf::new(&w);
        let probes = vec![TemplateProbe {
            kind: QueryKind::Select,
            attrs: vec![AttrId(1)],
            index: None,
            observed_mean: 8.0 * inner.unindexed_cost(QueryId(1)),
        }];
        let table = RatioTable::build(&inner, &probes);
        let cal = CalibratedWhatIf::new(AnalyticalWhatIf::new(&w), table);
        // config_cost([]) for the calibrated template is its scaled
        // unindexed cost; workload_cost sums the scaled values.
        assert_eq!(
            cal.config_cost(QueryId(1), &[]).to_bits(),
            cal.unindexed_cost(QueryId(1)).to_bits()
        );
        let manual = 10.0 * cal.unindexed_cost(QueryId(0)) + 3.0 * cal.unindexed_cost(QueryId(1));
        assert!((cal.workload_cost(&[]) - manual).abs() < 1e-9);
    }
}
