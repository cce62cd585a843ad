//! CoPhy's LP-based index selection (Section II-B), driven end to end:
//! what-if cost collection → binary program → branch-and-bound solve →
//! selection.
//!
//! The cost-coefficient collection is the expensive part the paper keeps
//! pointing at: the program needs `f_j(k)` for *every* applicable
//! `(query, candidate)` pair — `≈ Q·q̄·|I|/N` what-if calls (Eq. 9) —
//! before the solver even starts.

use crate::parallel::{parallel_map, Parallelism};
use crate::selection::Selection;
use crate::trace::{Trace, TraceEvent};
use isel_costmodel::WhatIfOptimizer;
use isel_solver::cophy::{self, CophyInstance, CophyOptions, CophyQueryRow, CophySolution};
use isel_workload::{AttrId, Index, IndexId};
use std::time::{Duration, Instant};

/// A finished CoPhy run.
#[derive(Clone, Debug)]
pub struct CophyRun {
    /// The candidates handed to the solver (deduplicated, in order).
    pub candidates: Vec<Index>,
    /// Selected indexes.
    pub selection: Selection,
    /// Raw solver output.
    pub solution: CophySolution,
    /// Size of the equivalent LP formulation (5)–(8): `(vars, constraints)`
    /// — the Figure 6 metric.
    pub lp_size: (usize, usize),
    /// What-if calls needed to build the cost coefficients.
    pub build_what_if_calls: u64,
    /// Time spent collecting coefficients (excluded from solver time, as
    /// in Table I).
    pub build_time: Duration,
}

/// Build the CoPhy instance for a candidate set: collect `f_j(0)` and
/// `f_j(k)` for every applicable pair.
pub fn build_instance(
    est: &impl WhatIfOptimizer,
    candidates: &[IndexId],
    budget: u64,
) -> CophyInstance {
    build_instance_with(est, candidates, budget, Parallelism::serial())
}

/// [`build_instance`] with the per-query what-if collection — the
/// `≈ Q·q̄·|I|/N` calls of Eq. 9, the expensive part — fanned over a
/// thread pool. Row order follows query order regardless of schedule, so
/// the produced instance is identical at every thread count.
pub fn build_instance_with(
    est: &impl WhatIfOptimizer,
    candidates: &[IndexId],
    budget: u64,
    par: Parallelism,
) -> CophyInstance {
    let workload = est.workload();
    let pool = est.pool();
    let candidate_memory: Vec<u64> = candidates.iter().map(|&k| est.index_memory(k)).collect();
    // Leading attributes resolved once up front: the Q·|I| applicability
    // probes below then never touch the pool.
    let leading: Vec<AttrId> = candidates.iter().map(|&k| pool.leading(k)).collect();
    // Frequency-weighted update volume per table: selecting a candidate
    // charges its maintenance cost once per update execution on its table.
    let mut update_weight = vec![0.0f64; workload.schema().tables().len()];
    for (_, q) in workload.iter() {
        if q.is_update() {
            update_weight[q.table().idx()] += q.frequency() as f64;
        }
    }
    let candidate_penalty: Vec<f64> = candidates
        .iter()
        .map(|&k| update_weight[pool.table(k).idx()] * est.maintenance_cost(k))
        .collect();
    // Applicability (leading attribute bound by the query) is a pure
    // workload property. Instead of testing every (query, candidate) pair
    // — Q·|I| binary searches that dwarf the ≈ Q·q̄·|I|/N applicable pairs
    // (Eq. 9) — group candidates by leading attribute once, so each query
    // walks exactly its applicable candidates.
    let mut by_leading: Vec<Vec<u32>> = vec![Vec::new(); workload.schema().attr_count()];
    for (ki, &lead) in leading.iter().enumerate() {
        by_leading[lead.idx()].push(ki as u32);
    }
    let rows: Vec<_> = workload.iter().collect();
    let queries = parallel_map(par, &rows, |&(j, q)| {
        let mut options: Vec<(u32, f64)> = q
            .attrs()
            .iter()
            .flat_map(|a| by_leading[a.idx()].iter().copied())
            .filter_map(|ki| {
                est.index_cost(j, candidates[ki as usize]).map(|c| (ki, c))
            })
            .collect();
        // Candidate groups arrive in query-attribute order; restore the
        // canonical candidate order the instance (and determinism
        // contract) is defined over.
        options.sort_unstable_by_key(|&(ki, _)| ki);
        CophyQueryRow {
            weight: q.frequency() as f64,
            base_cost: est.unindexed_cost(j),
            options,
        }
    });
    CophyInstance { candidate_memory, candidate_penalty, queries, budget }
}

/// Run CoPhy end to end on a candidate set, collecting coefficients on
/// `par` threads.
///
/// An enabled `trace` receives a full envelope: `RunStart`, one
/// [`TraceEvent::SolverPhase`] per phase (`cophy_build`, detail = what-if
/// requests collecting coefficients; `cophy_solve`, detail =
/// branch-and-bound nodes), one covering `CandidateScan`, and `RunEnd` —
/// so a CoPhy run in a `compare` trace is attributable and passes the
/// accounting check like every other strategy.
pub fn solve(
    est: &impl WhatIfOptimizer,
    candidates: &[IndexId],
    budget: u64,
    options: &CophyOptions,
    par: Parallelism,
    trace: Trace<'_>,
) -> CophyRun {
    // Deduplicate candidates; the LP must not contain identical columns.
    // Interned ids are content-unique, so duplicate detection is id
    // equality — no attribute vectors are cloned or hashed.
    let mut seen = std::collections::HashSet::new();
    let candidates: Vec<IndexId> = candidates
        .iter()
        .copied()
        .filter(|&k| seen.insert(k))
        .collect();

    let env = crate::heuristics::RunEnvelope::open(trace, "CoPhy", est, budget);
    let calls_before = est.stats().total_requests();
    let build_start = Instant::now();
    let instance = build_instance_with(est, &candidates, budget, par);
    let build_time = build_start.elapsed();
    let build_what_if_calls = est.stats().total_requests() - calls_before;
    let lp_size = instance.lp_size();
    trace.emit(|| TraceEvent::SolverPhase {
        phase: "cophy_build".into(),
        detail: build_what_if_calls,
        micros: build_time.as_micros() as u64,
    });

    let solve_start = Instant::now();
    let solution = cophy::solve(&instance, options);
    trace.emit(|| TraceEvent::SolverPhase {
        phase: "cophy_solve".into(),
        detail: solution.nodes as u64,
        micros: solve_start.elapsed().as_micros() as u64,
    });
    let pool = est.pool();
    let selection: Selection = candidates
        .iter()
        .zip(&solution.selected)
        .filter(|(_, &sel)| sel)
        .map(|(&k, _)| pool.resolve(k))
        .collect();
    let candidates: Vec<Index> = candidates.iter().map(|&k| pool.resolve(k)).collect();
    if let Some(env) = env {
        let initial = est.workload_cost(&[]);
        let fin = selection.cost(est);
        env.finish(est, solution.nodes as u64, candidates.len() as u64, initial, fin);
    }
    CophyRun {
        candidates,
        selection,
        solution,
        lp_size,
        build_what_if_calls,
        build_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algorithm1, budget, candidates as cand};
    use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf};
    use isel_workload::synthetic::{self, SyntheticConfig};
    use isel_workload::{AttrId, Query, SchemaBuilder, TableId, Workload};

    fn small_synthetic() -> Workload {
        synthetic::generate(&SyntheticConfig {
            tables: 1,
            attrs_per_table: 12,
            queries_per_table: 15,
            rows_base: 500_000,
            max_query_width: 5,
            update_fraction: 0.0,
            seed: 21,
        })
    }

    fn exact_opts() -> CophyOptions {
        CophyOptions {
            mip_gap: 0.0,
            time_limit: Duration::from_secs(60),
            max_nodes: 2_000_000,
        }
    }

    fn solve_exact(est: &impl WhatIfOptimizer, candidates: &[IndexId], budget: u64) -> CophyRun {
        solve(est, candidates, budget, &exact_opts(), Parallelism::serial(), Trace::disabled())
    }

    #[test]
    fn instance_rows_reference_applicable_candidates_only() {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 1_000);
        let a0 = b.attribute(t, "a0", 100, 4);
        let a1 = b.attribute(t, "a1", 10, 4);
        let w = Workload::new(
            b.finish(),
            vec![Query::new(TableId(0), vec![a0], 3)],
        );
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let cands = vec![est.pool().intern_single(a0), est.pool().intern_single(a1)];
        let inst = build_instance(&est, &cands, 1_000_000);
        assert_eq!(inst.queries[0].options.len(), 1);
        assert_eq!(inst.queries[0].options[0].0, 0);
    }

    #[test]
    fn optimal_selection_fits_budget_and_beats_empty() {
        let w = small_synthetic();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let pool = cand::enumerate_imax(&w, 5);
        let budget = budget::relative_budget(&est, 0.3);
        let run = solve_exact(&est, &pool.ids(est.pool()), budget);
        assert!(run.solution.status.finished());
        assert!(run.selection.memory(&est) <= budget);
        let empty_cost = Selection::empty().cost(&est);
        assert!(run.solution.objective <= empty_cost);
        // Solver objective equals the selection's evaluated cost.
        let eval = run.selection.cost(&est);
        assert!(
            (eval - run.solution.objective).abs() < 1e-6 * empty_cost,
            "eval={eval} obj={}",
            run.solution.objective
        );
    }

    #[test]
    fn cophy_with_all_candidates_bounds_algorithm1_from_below() {
        // CoPhy on the exhaustive candidate set is optimal (Section III-B);
        // H6 must come close but can never beat it.
        let w = small_synthetic();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let pool = cand::enumerate_imax(&w, 5);
        let budget = budget::relative_budget(&est, 0.3);
        let cophy_run = solve_exact(&est, &pool.ids(est.pool()), budget);
        assert!(cophy_run.solution.status.finished());
        let h6 = algorithm1::run(&est, &algorithm1::Options::new(budget));
        // The pool keeps one permutation per set; H6 may undercut the
        // reference by the permutation slack, never by more than 1%.
        assert!(
            h6.final_cost >= cophy_run.solution.objective * 0.99,
            "H6 {} far below optimal {}",
            h6.final_cost,
            cophy_run.solution.objective
        );
        // Near-optimality: within 10% on this small instance.
        assert!(
            h6.final_cost <= cophy_run.solution.objective * 1.10,
            "H6 {} too far from optimal {}",
            h6.final_cost,
            cophy_run.solution.objective
        );
    }

    #[test]
    fn duplicate_candidates_are_removed() {
        let w = small_synthetic();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let k = est.pool().intern_single(AttrId(0));
        let run = solve_exact(&est, &[k, k], budget::relative_budget(&est, 0.5));
        assert_eq!(run.candidates.len(), 1);
    }

    #[test]
    fn lp_size_grows_linearly_with_candidates() {
        let w = small_synthetic();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let pool = cand::enumerate_imax(&w, 3).ids(est.pool());
        let budget = budget::relative_budget(&est, 0.3);
        let half = build_instance(&est, &pool[..pool.len() / 2], budget).lp_size();
        let full = build_instance(&est, &pool, budget).lp_size();
        assert!(full.0 > half.0);
        assert!(full.1 > half.1);
    }

    #[test]
    fn larger_candidate_sets_never_hurt_quality() {
        let w = small_synthetic();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let pool = cand::enumerate_imax(&w, 5);
        let budget = budget::relative_budget(&est, 0.25);
        let small: Vec<_> = cand::select_candidates(&pool, 8, 4, cand::CandidateRanking::Frequency)
            .iter()
            .map(|k| est.pool().intern(k))
            .collect();
        let run_small = solve_exact(&est, &small, budget);
        let run_full = solve_exact(&est, &pool.ids(est.pool()), budget);
        assert!(run_full.solution.objective <= run_small.solution.objective + 1e-9);
    }
}
