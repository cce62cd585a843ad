//! The baseline selection heuristics H1–H5 of Definition 1.
//!
//! All five pick from a *given* candidate set until the memory budget is
//! exhausted:
//!
//! * **H1** — most used attribute combinations first (rule-based),
//! * **H2** — smallest combined selectivity first (rule-based),
//! * **H3** — smallest selectivity/occurrences ratio first (rule-based),
//! * **H4** — largest individually-measured benefit first (the concept of
//!   Microsoft SQL Server's advisor \[11\], \[13\]), optionally after the
//!   skyline filter that drops per-query dominated candidates,
//! * **H5** — largest benefit *per size* first (DB2 advisor's starting
//!   solution \[9\]).
//!
//! Candidates are passed as interned [`IndexId`]s relative to the
//! estimator's pool; rankings resolve attribute lists through
//! [`IndexPool::attrs`] only for tie-breaking, and every cost probe is a
//! packed id lookup.
//!
//! H4/H5 need what-if costs for every candidate — the very cost explosion
//! the paper's recursive strategy avoids. Their per-candidate benefit scan
//! ([`individual_benefits`]) fans out over a thread pool when given a
//! non-serial [`Parallelism`]; candidate order (and thus every ranking
//! tie-break) is preserved by the order-stable [`parallel_map`].

use crate::parallel::{parallel_map, Parallelism};
use crate::selection::Selection;
use crate::trace::{Trace, TraceEvent};
use isel_costmodel::{WhatIfOptimizer, WhatIfStats};
use isel_workload::{AttrId, IndexId, QueryId, Workload};
use std::time::Instant;

#[allow(unused_imports)] // doc link
use isel_workload::IndexPool;

/// `RunStart`/`RunEnd` envelope shared by the traced candidate-set
/// strategies (H1–H5, DB2, CoPhy).
///
/// The envelope records the run origin (wall clock + oracle stats) and
/// closes [`TraceEvent::CandidateScan`] spans that *partition* the run:
/// every span starts where the previous one (or the run) ended, and
/// [`finish`](Self::finish) closes one last span before reading the run
/// totals from the same stats snapshot. The summed per-scan what-if
/// deltas therefore equal the `RunEnd` totals by construction — the
/// accounting invariant `report --check` verifies — for every strategy,
/// not just Algorithm 1. `None` with a disabled handle: untraced runs
/// perform no clock reads and no stats loads.
pub(crate) struct RunEnvelope<'a> {
    trace: Trace<'a>,
    strategy: String,
    run_t0: Instant,
    run_entry: WhatIfStats,
    span_t0: Instant,
    span_entry: WhatIfStats,
}

impl<'a> RunEnvelope<'a> {
    /// Emit `RunStart` and open the first scan span. Returns `None` (and
    /// emits nothing) when `trace` is disabled.
    pub(crate) fn open(
        trace: Trace<'a>,
        strategy: &str,
        est: &impl WhatIfOptimizer,
        budget: u64,
    ) -> Option<Self> {
        if !trace.is_enabled() {
            return None;
        }
        let run_entry = est.stats();
        let run_t0 = Instant::now();
        trace.emit(|| {
            let w = est.workload();
            TraceEvent::RunStart {
                strategy: strategy.into(),
                queries: w.query_count() as u64,
                total_width: w.iter().map(|(_, q)| q.width() as u64).sum(),
                budget,
                shard: None,
            }
        });
        Some(Self {
            trace,
            strategy: strategy.to_owned(),
            run_t0,
            run_entry,
            span_t0: run_t0,
            span_entry: run_entry,
        })
    }

    /// Close the open span as one `CandidateScan` and start the next.
    pub(crate) fn scan(
        &mut self,
        est: &impl WhatIfOptimizer,
        step: u64,
        candidates: u64,
        queries_recosted: u64,
    ) {
        let now = est.stats();
        let t = Instant::now();
        self.trace.emit(|| TraceEvent::CandidateScan {
            step,
            candidates,
            queries_recosted,
            issued: now.calls_issued - self.span_entry.calls_issued,
            cached: now.calls_answered_from_cache - self.span_entry.calls_answered_from_cache,
            micros: t.duration_since(self.span_t0).as_micros() as u64,
        });
        self.span_entry = now;
        self.span_t0 = t;
    }

    /// Re-open the span after an inner traced call (e.g.
    /// [`individual_benefits`]) emitted its own contiguous scan.
    pub(crate) fn resync(&mut self, est: &impl WhatIfOptimizer) {
        self.span_entry = est.stats();
        self.span_t0 = Instant::now();
    }

    /// Close the final span (covering ranking, selection and the cost
    /// probes for the `RunEnd` payload) and emit `RunEnd` from the run
    /// origin. `initial_cost`/`final_cost` must already be computed so
    /// their what-if calls land inside the final span.
    pub(crate) fn finish(
        mut self,
        est: &impl WhatIfOptimizer,
        steps: u64,
        candidates: u64,
        initial_cost: f64,
        final_cost: f64,
    ) {
        let queries = est.workload().query_count() as u64;
        self.scan(est, steps, candidates, queries);
        let now = self.span_entry;
        let end = self.span_t0;
        self.trace.emit(|| TraceEvent::RunEnd {
            shard: None,
            strategy: self.strategy.clone(),
            steps,
            issued: now.calls_issued - self.run_entry.calls_issued,
            cached: now.calls_answered_from_cache - self.run_entry.calls_answered_from_cache,
            initial_cost,
            final_cost,
            micros: end.duration_since(self.run_t0).as_micros() as u64,
        });
    }
}

/// Close a rule-based run: cost the unindexed baseline and the selection
/// (inside the envelope's final span) and emit `RunEnd`.
fn finish_envelope(
    env: Option<RunEnvelope<'_>>,
    est: &impl WhatIfOptimizer,
    candidates: u64,
    sel: &Selection,
) {
    if let Some(env) = env {
        let initial = est.workload_cost(&[]);
        let fin = sel.cost(est);
        env.finish(est, sel.len() as u64, candidates, initial, fin);
    }
}

/// Frequency-weighted occurrences of a candidate's attribute set
/// (`Σ_{j: set(k) ⊆ q_j} b_j`).
pub fn occurrences(workload: &Workload, attrs: &[AttrId]) -> u64 {
    workload
        .iter()
        .filter(|(_, q)| attrs.iter().all(|a| q.accesses(*a)))
        .map(|(_, q)| q.frequency())
        .sum()
}

/// Combined selectivity `Π_{i ∈ k} s_i` of a candidate.
pub fn combined_selectivity(workload: &Workload, attrs: &[AttrId]) -> f64 {
    attrs
        .iter()
        .map(|&a| workload.schema().selectivity(a))
        .product()
}

/// Individually measured benefit of a candidate:
/// `Σ_j b_j · (f_j(0) − f_j({k}))` — the candidate's improvement when it
/// is the *only* index (no interaction). Under update templates the
/// configuration cost includes maintenance, so the benefit can be
/// negative (the index costs more upkeep than it saves).
pub fn individual_benefit(est: &impl WhatIfOptimizer, index: IndexId) -> f64 {
    let config = [index];
    let lead = est.pool().leading(index);
    est.workload()
        .iter()
        .map(|(j, q)| {
            // Fast path: selects the index cannot touch keep cost f_j(0).
            if !q.is_update() && !q.accesses(lead) {
                return 0.0;
            }
            let f0 = est.unindexed_cost(j);
            q.frequency() as f64 * (f0 - est.config_cost(j, &config))
        })
        .sum()
}

/// The shared candidate-costing scan of H4/H5 (and the DB2 advisor's
/// start): [`individual_benefit`] of every candidate, evaluated
/// concurrently and returned in candidate order.
///
/// The sweep inverts [`individual_benefit`]'s fast path once up front:
/// queries are grouped by accessed attribute, so each candidate visits
/// exactly the queries its leading attribute can serve instead of testing
/// all `Q` — the `|I|·Q` applicability scan collapses to the applicable
/// pairs. Per-candidate results are bit-identical to the single-candidate
/// entry point.
///
/// An enabled `trace` receives one [`TraceEvent::CandidateScan`]
/// summarizing the sweep: candidates scored, queries visited, and the
/// what-if calls issued vs. answered from cache. Results are the same
/// with and without a sink, at every thread count.
pub fn individual_benefits(
    candidates: &[IndexId],
    est: &impl WhatIfOptimizer,
    par: Parallelism,
    trace: Trace<'_>,
) -> Vec<f64> {
    let span = trace
        .is_enabled()
        .then(|| (std::time::Instant::now(), est.stats()));
    let benefits = individual_benefits_inner(candidates, est, par);
    if let Some((t0, before)) = span {
        let now = est.stats();
        trace.emit(|| TraceEvent::CandidateScan {
            step: 0,
            candidates: candidates.len() as u64,
            queries_recosted: est.workload().query_count() as u64,
            issued: now.calls_issued - before.calls_issued,
            cached: now.calls_answered_from_cache - before.calls_answered_from_cache,
            micros: t0.elapsed().as_micros() as u64,
        });
    }
    benefits
}

fn individual_benefits_inner(
    candidates: &[IndexId],
    est: &impl WhatIfOptimizer,
    par: Parallelism,
) -> Vec<f64> {
    let w = est.workload();
    let mut by_attr: Vec<Vec<QueryId>> = vec![Vec::new(); w.schema().attr_count()];
    let mut updates: Vec<QueryId> = Vec::new();
    for (j, q) in w.iter() {
        if q.is_update() {
            // Update templates pay maintenance under any same-table index;
            // they participate for every candidate.
            updates.push(j);
        } else {
            for &a in q.attrs() {
                by_attr[a.idx()].push(j);
            }
        }
    }
    parallel_map(par, candidates, |&k| {
        let lead = est.pool().leading(k);
        benefit_over(est, k, &by_attr[lead.idx()], &updates)
    })
}

/// Benefit of `index` summed over the merged (ascending-id) union of two
/// sorted, disjoint query lists — the same accumulation order as
/// [`individual_benefit`]'s full scan, so both entry points produce
/// bit-identical sums.
fn benefit_over(
    est: &impl WhatIfOptimizer,
    index: IndexId,
    selects: &[QueryId],
    updates: &[QueryId],
) -> f64 {
    let config = [index];
    let w = est.workload();
    let mut total = 0.0;
    let (mut s, mut u) = (0, 0);
    while s < selects.len() || u < updates.len() {
        let j = match (selects.get(s), updates.get(u)) {
            (Some(&a), Some(&b)) if a < b => {
                s += 1;
                a
            }
            (Some(&a), None) => {
                s += 1;
                a
            }
            (_, Some(&b)) => {
                u += 1;
                b
            }
            (None, None) => unreachable!(),
        };
        let q = w.query(j);
        let f0 = est.unindexed_cost(j);
        total += q.frequency() as f64 * (f0 - est.config_cost(j, &config));
    }
    total
}

/// Add candidates in the given order while the budget permits (candidates
/// that do not fit are skipped, later smaller ones may still fit). Ids
/// resolve to concrete indexes only on selection — the boundary rule.
pub fn greedy_fill(ranked: &[IndexId], est: &impl WhatIfOptimizer, budget: u64) -> Selection {
    let mut sel = Selection::empty();
    let mut taken: Vec<IndexId> = Vec::new();
    let mut used = 0u64;
    for &k in ranked {
        if taken.contains(&k) {
            continue;
        }
        let p = est.index_memory(k);
        if used + p <= budget {
            used += p;
            taken.push(k);
            sel.insert(est.pool().resolve(k));
        }
    }
    sel
}

/// H1: most used attribute combinations first.
///
/// An enabled `trace` wraps the run in a `RunStart`/`CandidateScan`/`RunEnd`
/// envelope. The rule-based ranking issues no what-if calls of its own,
/// so the single scan span covers the whole run (including the
/// baseline/selection cost probes for the `RunEnd` payload) and the
/// accounting invariant holds by construction. Selections are the same
/// with and without a sink.
pub fn h1(
    candidates: &[IndexId],
    est: &impl WhatIfOptimizer,
    budget: u64,
    trace: Trace<'_>,
) -> Selection {
    let env = RunEnvelope::open(trace, "H1", est, budget);
    let w = est.workload();
    let pool = est.pool();
    let mut ranked = candidates.to_vec();
    ranked.sort_by_cached_key(|&k| std::cmp::Reverse(occurrences(w, pool.attrs(k))));
    let sel = greedy_fill(&ranked, est, budget);
    finish_envelope(env, est, candidates.len() as u64, &sel);
    sel
}

/// H2: smallest combined selectivity first (`trace` as in [`h1`]).
pub fn h2(
    candidates: &[IndexId],
    est: &impl WhatIfOptimizer,
    budget: u64,
    trace: Trace<'_>,
) -> Selection {
    let env = RunEnvelope::open(trace, "H2", est, budget);
    let w = est.workload();
    let pool = est.pool();
    let mut ranked = candidates.to_vec();
    ranked.sort_by(|&a, &b| {
        isel_workload::ord::total_cmp_nan_lowest(
            combined_selectivity(w, pool.attrs(a)),
            combined_selectivity(w, pool.attrs(b)),
        )
        .then_with(|| pool.attrs(a).cmp(pool.attrs(b)))
    });
    let sel = greedy_fill(&ranked, est, budget);
    finish_envelope(env, est, candidates.len() as u64, &sel);
    sel
}

/// H3: smallest selectivity/occurrences ratio first (`trace` as in
/// [`h1`]).
pub fn h3(
    candidates: &[IndexId],
    est: &impl WhatIfOptimizer,
    budget: u64,
    trace: Trace<'_>,
) -> Selection {
    let env = RunEnvelope::open(trace, "H3", est, budget);
    let w = est.workload();
    let pool = est.pool();
    // Each ratio scans the workload once, so it is computed once per
    // candidate, not once per comparison.
    let mut ranked: Vec<(f64, IndexId)> = candidates
        .iter()
        .map(|&k| {
            let attrs = pool.attrs(k);
            (combined_selectivity(w, attrs) / occurrences(w, attrs).max(1) as f64, k)
        })
        .collect();
    ranked.sort_by(|&(ra, a), &(rb, b)| {
        isel_workload::ord::total_cmp_nan_lowest(ra, rb)
            .then_with(|| pool.attrs(a).cmp(pool.attrs(b)))
    });
    let ranked: Vec<IndexId> = ranked.into_iter().map(|(_, k)| k).collect();
    let sel = greedy_fill(&ranked, est, budget);
    finish_envelope(env, est, candidates.len() as u64, &sel);
    sel
}

/// H4: best individually-measured performance first; with
/// `use_skyline = true` the candidate set is first reduced to per-query
/// Pareto-efficient candidates (cf. \[11\]). `par` fans out the benefit
/// scan.
///
/// An enabled `trace` receives `RunStart`, a scan span covering the
/// skyline filter (when enabled — its what-if probes happen *before* the
/// benefit sweep), the benefit-sweep scan, a final wrap-up span, and
/// `RunEnd`. The spans partition the run, so the accounting invariant
/// holds. Selections are the same with and without a sink.
pub fn h4(
    candidates: &[IndexId],
    est: &impl WhatIfOptimizer,
    budget: u64,
    use_skyline: bool,
    par: Parallelism,
    trace: Trace<'_>,
) -> Selection {
    let label = if use_skyline { "H4s" } else { "H4" };
    let mut env = RunEnvelope::open(trace, label, est, budget);
    let pool: Vec<IndexId> = if use_skyline {
        let filtered = skyline_filter(candidates, est);
        if let Some(env) = env.as_mut() {
            env.scan(
                est,
                0,
                candidates.len() as u64,
                est.workload().query_count() as u64,
            );
        }
        filtered
    } else {
        candidates.to_vec()
    };
    // Candidates whose upkeep outweighs their savings are never worth
    // selecting, whatever the budget.
    let benefits = individual_benefits(&pool, est, par, trace);
    if let Some(env) = env.as_mut() {
        env.resync(est);
    }
    let ids = est.pool();
    let mut ranked: Vec<(IndexId, f64)> = pool
        .into_iter()
        .zip(benefits)
        .filter(|(_, ben)| *ben > 0.0)
        .collect();
    ranked.sort_by(|a, b| {
        isel_workload::ord::total_cmp_nan_lowest_desc(a.1, b.1)
            .then_with(|| ids.attrs(a.0).cmp(ids.attrs(b.0)))
    });
    let ranked: Vec<IndexId> = ranked.into_iter().map(|(k, _)| k).collect();
    let sel = greedy_fill(&ranked, est, budget);
    finish_envelope(env, est, 0, &sel);
    sel
}

/// H5: best benefit-per-size ratio first (cf. the starting solution of
/// the DB2 advisor \[9\]). `par` and `trace` as in [`h4`].
///
/// ```
/// use isel_core::{candidates, heuristics, budget, Parallelism, Trace};
/// use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
/// use isel_workload::synthetic::{self, SyntheticConfig};
///
/// let w = synthetic::generate(&SyntheticConfig {
///     tables: 1, attrs_per_table: 8, queries_per_table: 10,
///     rows_base: 100_000, ..SyntheticConfig::default()
/// });
/// let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
/// let pool = candidates::enumerate_imax(&w, 3).ids(est.pool());
/// let a = budget::relative_budget(&est, 0.3);
/// let sel = heuristics::h5(&pool, &est, a, Parallelism::serial(), Trace::disabled());
/// assert!(sel.memory(&est) <= a);
/// ```
pub fn h5(
    candidates: &[IndexId],
    est: &impl WhatIfOptimizer,
    budget: u64,
    par: Parallelism,
    trace: Trace<'_>,
) -> Selection {
    let mut env = RunEnvelope::open(trace, "H5", est, budget);
    let benefits = individual_benefits(candidates, est, par, trace);
    if let Some(env) = env.as_mut() {
        env.resync(est);
    }
    let pool = est.pool();
    let mut ranked: Vec<(IndexId, f64)> = candidates
        .iter()
        .zip(benefits)
        .filter(|(_, ben)| *ben > 0.0)
        .map(|(&k, ben)| {
            let density = ben / est.index_memory(k).max(1) as f64;
            (k, density)
        })
        .collect();
    ranked.sort_by(|a, b| {
        isel_workload::ord::total_cmp_nan_lowest_desc(a.1, b.1)
            .then_with(|| pool.attrs(a.0).cmp(pool.attrs(b.0)))
    });
    let ranked: Vec<IndexId> = ranked.into_iter().map(|(k, _)| k).collect();
    let sel = greedy_fill(&ranked, est, budget);
    finish_envelope(env, est, 0, &sel);
    sel
}

/// Skyline filter: keep a candidate iff it is Pareto-efficient in
/// `(query cost, index size)` for at least one query — i.e. for some query
/// no other candidate is both cheaper (or equal) *and* smaller (or equal)
/// with one of the two strict.
pub fn skyline_filter(candidates: &[IndexId], est: &impl WhatIfOptimizer) -> Vec<IndexId> {
    let workload = est.workload();
    let sizes: Vec<u64> = candidates.iter().map(|&k| est.index_memory(k)).collect();
    let mut keep = vec![false; candidates.len()];

    for (j, _) in workload.iter() {
        // Applicable candidates with their costs for this query.
        let mut rows: Vec<(usize, f64)> = candidates
            .iter()
            .enumerate()
            .filter_map(|(i, &k)| est.index_cost(j, k).map(|c| (i, c)))
            .collect();
        if rows.is_empty() {
            continue;
        }
        // Sort by size asc, then cost asc; sweep keeps the Pareto front.
        rows.sort_by(|a, b| {
            sizes[a.0]
                .cmp(&sizes[b.0])
                .then(isel_workload::ord::total_cmp_nan_lowest(a.1, b.1))
        });
        let mut best_cost = f64::INFINITY;
        for &(i, c) in &rows {
            if c < best_cost {
                keep[i] = true;
                best_cost = c;
            }
        }
    }
    candidates
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(&k, _)| k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf};
    use isel_workload::{Index, Query, SchemaBuilder, TableId};

    fn fixture() -> Workload {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 10_000);
        let a0 = b.attribute(t, "a0", 10_000, 4); // selective, rarely used
        let a1 = b.attribute(t, "a1", 100, 4); // moderately selective, hot
        let a2 = b.attribute(t, "a2", 4, 4); // non-selective
        Workload::new(
            b.finish(),
            vec![
                Query::new(TableId(0), vec![a1], 100),
                Query::new(TableId(0), vec![a1, a2], 50),
                Query::new(TableId(0), vec![a0], 1),
            ],
        )
    }

    fn singles(est: &impl WhatIfOptimizer) -> Vec<IndexId> {
        (0..3).map(|i| est.pool().intern_single(AttrId(i))).collect()
    }

    #[test]
    fn h1_ranks_by_occurrences() {
        let w = fixture();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let budget = est.index_memory_of(&Index::single(AttrId(1)));
        let sel = h1(&singles(&est), &est, budget, Trace::disabled());
        assert!(sel.contains(&Index::single(AttrId(1)))); // g = 150
    }

    #[test]
    fn h2_ranks_by_selectivity() {
        let w = fixture();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let budget = est.index_memory_of(&Index::single(AttrId(0)));
        let sel = h2(&singles(&est), &est, budget, Trace::disabled());
        assert!(sel.contains(&Index::single(AttrId(0)))); // s = 1e-4
    }

    #[test]
    fn benefit_is_zero_for_inapplicable_candidates() {
        let w = fixture();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        // a2-leading index helps only q2; a hypothetical index on a totally
        // unused ordering yields finite benefit ≥ 0.
        let k = est.pool().intern(&Index::new(vec![AttrId(2), AttrId(0)]));
        let b = individual_benefit(&est, k);
        assert!(b >= 0.0);
    }

    #[test]
    fn h4_beats_rule_based_on_this_workload() {
        let w = fixture();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let cands = singles(&est);
        let budget = cands.iter().map(|&k| est.index_memory(k)).max().unwrap();
        let by_benefit = h4(&cands, &est, budget, false, Parallelism::serial(), Trace::disabled());
        let by_selectivity = h2(&cands, &est, budget, Trace::disabled());
        assert!(by_benefit.cost(&est) <= by_selectivity.cost(&est));
    }

    #[test]
    fn h5_prefers_dense_candidates() {
        let w = fixture();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let budget = est.index_memory_of(&Index::single(AttrId(1)));
        let sel = h5(&singles(&est), &est, budget, Parallelism::serial(), Trace::disabled());
        assert_eq!(sel.len(), 1);
        // The hot a1 index has by far the best benefit density here.
        assert!(sel.contains(&Index::single(AttrId(1))));
    }

    #[test]
    fn greedy_fill_skips_oversized_but_keeps_later_fits() {
        let w = fixture();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let wide = est.pool().intern(&Index::new(vec![AttrId(1), AttrId(2), AttrId(0)]));
        let small_index = Index::single(AttrId(2));
        let small = est.pool().intern(&small_index);
        let budget = est.index_memory(small);
        let sel = greedy_fill(&[wide, small], &est, budget);
        assert_eq!(sel.len(), 1);
        assert!(sel.contains(&small_index));
    }

    #[test]
    fn skyline_keeps_per_query_pareto_candidates() {
        let w = fixture();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let k1 = est.pool().intern_single(AttrId(1));
        let k12 = est.pool().intern(&Index::new(vec![AttrId(1), AttrId(2)]));
        let k2 = est.pool().intern_single(AttrId(2));
        let kept = skyline_filter(&[k1, k12, k2], &est);
        // k1 is the smallest applicable index for q1 → kept. k12 is the
        // cheapest for q2 → kept.
        assert!(kept.contains(&k1));
        assert!(kept.contains(&k12));
    }

    #[test]
    fn skyline_drops_dominated_candidates() {
        let w = fixture();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        // (a1, a0): same size as (a1, a2) but worse for every applicable
        // query than either k1 (smaller, same or lower cost on q1) or k12.
        let k1 = est.pool().intern_single(AttrId(1));
        let k12 = est.pool().intern(&Index::new(vec![AttrId(1), AttrId(2)]));
        let k10 = est.pool().intern(&Index::new(vec![AttrId(1), AttrId(0)]));
        let kept = skyline_filter(&[k1, k12, k10], &est);
        assert!(!kept.contains(&k10));
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let w = fixture();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let cands = singles(&est);
        for sel in [
            h1(&cands, &est, 0, Trace::disabled()),
            h2(&cands, &est, 0, Trace::disabled()),
            h3(&cands, &est, 0, Trace::disabled()),
            h4(&cands, &est, 0, true, Parallelism::serial(), Trace::disabled()),
            h5(&cands, &est, 0, Parallelism::serial(), Trace::disabled()),
        ] {
            assert!(sel.is_empty());
        }
    }
}
