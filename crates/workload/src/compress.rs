//! Workload compression (Section VI).
//!
//! Large workloads are often preprocessed before index selection:
//! Chaudhuri et al. \[30\] compress within an error bound, while DB2 simply
//! keeps "the top k most expensive queries" \[10\] because full compression
//! proved too slow. [`top_k_by_weight`] is the DB2 flavour: keep the k
//! templates with the highest frequency-weighted cost estimate.

use crate::query::{Query, Workload};

/// DB2-style lossy compression: keep the `k` templates with the largest
/// `weight(q)` under the given per-query weight function (typically
/// `b_j · f_j(0)` — frequency times estimated cost). Deterministic
/// tie-break by position. A weight function may yield NaN on degenerate
/// inputs (e.g. a `0/0` cost ratio); NaN-weighted templates rank *last*
/// (below every finite and infinite weight) instead of panicking.
///
/// ```
/// use isel_workload::compress;
/// use isel_workload::synthetic::{self, SyntheticConfig};
///
/// let w = synthetic::generate(&SyntheticConfig::default());
/// let c = compress::top_k_by_weight(&w, 50, |q| q.frequency() as f64);
/// assert_eq!(c.query_count(), 50);
/// assert!(c.total_frequency() <= w.total_frequency());
/// ```
pub fn top_k_by_weight(
    workload: &Workload,
    k: usize,
    weight: impl Fn(&Query) -> f64,
) -> Workload {
    let mut scored: Vec<(usize, f64)> = workload
        .queries()
        .iter()
        .enumerate()
        .map(|(i, q)| (i, weight(q)))
        .collect();
    scored.sort_by(|a, b| {
        crate::ord::total_cmp_nan_lowest_desc(a.1, b.1).then(a.0.cmp(&b.0))
    });
    let mut keep: Vec<usize> = scored.into_iter().take(k).map(|(i, _)| i).collect();
    keep.sort_unstable();
    let queries = keep
        .into_iter()
        .map(|i| workload.queries()[i].clone())
        .collect();
    Workload::new(workload.schema().clone(), queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TableId;
    use crate::schema::SchemaBuilder;

    fn workload() -> Workload {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 100);
        let a0 = b.attribute(t, "a0", 10, 4);
        let a1 = b.attribute(t, "a1", 10, 4);
        Workload::new(
            b.finish(),
            vec![
                Query::new(TableId(0), vec![a0], 5),
                Query::new(TableId(0), vec![a0, a1], 3),
                Query::new(TableId(0), vec![a0], 2), // duplicate of q0
                Query::update(TableId(0), vec![a0], 4), // same attrs, write
            ],
        )
    }

    #[test]
    fn top_k_keeps_the_heaviest_templates() {
        let w = workload();
        let compressed = top_k_by_weight(&w, 2, |q| q.frequency() as f64);
        assert_eq!(compressed.query_count(), 2);
        // q0 (5) and update (4) dominate.
        assert_eq!(compressed.queries()[0].frequency(), 5);
        assert_eq!(compressed.queries()[1].frequency(), 4);
    }

    #[test]
    fn top_k_larger_than_workload_is_identity() {
        let w = workload();
        let c = top_k_by_weight(&w, 100, |q| q.frequency() as f64);
        assert_eq!(c, w);
    }

    #[test]
    fn nan_weights_rank_last_instead_of_panicking() {
        // Regression: a 0/0-style weight must not abort the compression.
        let w = workload();
        let nan_for_updates =
            |q: &Query| if q.is_update() { f64::NAN } else { q.frequency() as f64 };
        let c = top_k_by_weight(&w, 3, nan_for_updates);
        assert_eq!(c.query_count(), 3);
        // The NaN-weighted update template is the one dropped.
        assert!(c.queries().iter().all(|q| !q.is_update()));
        // All-NaN weights degrade to positional order, still no panic.
        let all_nan = top_k_by_weight(&w, 2, |_| f64::NAN);
        assert_eq!(all_nan.queries()[0], w.queries()[0]);
        assert_eq!(all_nan.queries()[1], w.queries()[1]);
    }
}
