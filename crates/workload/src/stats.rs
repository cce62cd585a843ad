//! Workload statistics used by the rule-based heuristics and the candidate
//! generators.
//!
//! * `g_i = Σ_{j: i ∈ q_j} b_j` — frequency-weighted number of occurrences
//!   of attribute `i` (Definition 1, H1),
//! * `q̄ = (1/Q) Σ_j |q_j|` — average number of attributes per query (used
//!   in the paper's what-if-call complexity estimates).

use crate::ids::AttrId;
use crate::query::Workload;

/// Precomputed statistics over a workload.
#[derive(Clone, Debug)]
pub struct WorkloadStats {
    /// `g_i` per attribute, indexed by `AttrId`.
    occurrences: Vec<u64>,
    /// Average query width `q̄`.
    avg_query_width: f64,
}

impl WorkloadStats {
    /// Compute statistics for `workload`.
    pub fn compute(workload: &Workload) -> Self {
        let mut occurrences = vec![0u64; workload.schema().attr_count()];
        let mut width_sum = 0usize;
        for (_, q) in workload.iter() {
            width_sum += q.width();
            for &a in q.attrs() {
                occurrences[a.idx()] += q.frequency();
            }
        }
        let avg_query_width = if workload.query_count() == 0 {
            0.0
        } else {
            width_sum as f64 / workload.query_count() as f64
        };
        Self { occurrences, avg_query_width }
    }

    /// Frequency-weighted occurrence count `g_i` of an attribute.
    #[inline]
    pub fn occurrences(&self, attr: AttrId) -> u64 {
        self.occurrences[attr.idx()]
    }

    /// Average query width `q̄`.
    #[inline]
    pub fn avg_query_width(&self) -> f64 {
        self.avg_query_width
    }

    /// Attributes sorted by descending `g_i` (ties broken by id for
    /// determinism).
    pub fn attrs_by_occurrences(&self) -> Vec<AttrId> {
        let mut ids: Vec<AttrId> = (0..self.occurrences.len() as u32).map(AttrId).collect();
        ids.sort_by(|a, b| {
            self.occurrences[b.idx()]
                .cmp(&self.occurrences[a.idx()])
                .then(a.0.cmp(&b.0))
        });
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TableId;
    use crate::query::Query;
    use crate::schema::SchemaBuilder;

    fn workload() -> Workload {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 100);
        for i in 0..4 {
            b.attribute(t, &format!("a{i}"), 10, 4);
        }
        let q = |attrs: &[u32], f: u64| {
            Query::new(TableId(0), attrs.iter().copied().map(AttrId).collect(), f)
        };
        Workload::new(
            b.finish(),
            vec![q(&[0, 1], 5), q(&[0, 1, 2], 3), q(&[3], 2)],
        )
    }

    #[test]
    fn occurrences_are_frequency_weighted() {
        let s = WorkloadStats::compute(&workload());
        assert_eq!(s.occurrences(AttrId(0)), 8);
        assert_eq!(s.occurrences(AttrId(1)), 8);
        assert_eq!(s.occurrences(AttrId(2)), 3);
        assert_eq!(s.occurrences(AttrId(3)), 2);
    }

    #[test]
    fn avg_query_width_matches_definition() {
        let s = WorkloadStats::compute(&workload());
        assert!((s.avg_query_width() - (2.0 + 3.0 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn attrs_by_occurrences_sorts_descending_with_stable_ties() {
        let s = WorkloadStats::compute(&workload());
        assert_eq!(
            s.attrs_by_occurrences(),
            vec![AttrId(0), AttrId(1), AttrId(2), AttrId(3)]
        );
    }

}
