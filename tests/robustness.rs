//! Robustness and failure-injection tests: noisy oracles, degenerate
//! workloads, and starved solver limits must never produce invalid
//! selections or panics.

use isel_core::{algorithm1, budget, candidates, cophy, heuristics, Parallelism, Trace};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_solver::cophy::CophyOptions;
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::{AttrId, Index, Query, QueryId, SchemaBuilder, TableId, Workload};
use std::time::Duration;

/// Deterministically noisy oracle: every cost is perturbed by up to ±20%
/// (keyed by query and index so repeated calls agree) — a stand-in for the
/// "too often inaccurate" cost estimations of real optimizers [19].
struct NoisyWhatIf<W> {
    inner: W,
}

impl<W> NoisyWhatIf<W> {
    fn factor(seed: u64) -> f64 {
        // splitmix-style hash to [0.8, 1.2].
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let u = ((z >> 11) as f64) / ((1u64 << 53) as f64);
        0.8 + 0.4 * u
    }
}

impl<W: WhatIfOptimizer> WhatIfOptimizer for NoisyWhatIf<W> {
    fn workload(&self) -> &Workload {
        self.inner.workload()
    }
    fn pool(&self) -> &isel_workload::IndexPool {
        self.inner.pool()
    }
    fn unindexed_cost(&self, q: QueryId) -> f64 {
        self.inner.unindexed_cost(q) * Self::factor(q.0 as u64)
    }
    fn index_cost(&self, q: QueryId, k: isel_workload::IndexId) -> Option<f64> {
        // Seed from the resolved attribute list, not the id, so the noise
        // is a pure function of the (query, index) content.
        let seed = self
            .pool()
            .attrs(k)
            .iter()
            .fold(q.0 as u64, |acc, a| acc.wrapping_mul(31).wrapping_add(a.0 as u64));
        self.inner.index_cost(q, k).map(|c| c * Self::factor(seed))
    }
    fn index_memory(&self, k: isel_workload::IndexId) -> u64 {
        self.inner.index_memory(k)
    }
    fn maintenance_cost(&self, k: isel_workload::IndexId) -> f64 {
        self.inner.maintenance_cost(k)
    }
}

fn workload() -> Workload {
    synthetic::generate(&SyntheticConfig {
        tables: 2,
        attrs_per_table: 15,
        queries_per_table: 20,
        rows_base: 200_000,
        max_query_width: 5,
        update_fraction: 0.0,
        seed: 55,
    })
}

#[test]
fn noisy_estimates_still_yield_valid_near_good_selections() {
    let w = workload();
    let clean = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let noisy = NoisyWhatIf { inner: CachingWhatIf::new(AnalyticalWhatIf::new(&w)) };
    let a = budget::relative_budget(&clean, 0.3);

    let clean_run = algorithm1::run(&clean, &algorithm1::Options::new(a));
    let noisy_run = algorithm1::run(&noisy, &algorithm1::Options::new(a));
    assert!(noisy_run.selection.memory(&clean) <= a);
    // Evaluate both selections under the clean model: noise costs at most
    // a modest factor.
    let clean_cost = clean_run.selection.cost(&clean);
    let noisy_cost = noisy_run.selection.cost(&clean);
    assert!(
        noisy_cost <= clean_cost * 2.0 + 1e-9,
        "noise degraded too far: {noisy_cost} vs {clean_cost}"
    );
}

#[test]
fn degenerate_workloads_do_not_panic() {
    // Single attribute, single query.
    let mut b = SchemaBuilder::new();
    let t = b.table("t", 10);
    let a0 = b.attribute(t, "a", 2, 1);
    let w = Workload::new(b.finish(), vec![Query::new(TableId(0), vec![a0], 1)]);
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let a = budget::relative_budget(&est, 1.0);
    let run = algorithm1::run(&est, &algorithm1::Options::new(a));
    assert!(run.selection.len() <= 1);

    // Identical queries, huge frequencies.
    let mut b = SchemaBuilder::new();
    let t = b.table("t", 1_000_000);
    let a0 = b.attribute(t, "a", 1_000_000, 8);
    let q = Query::new(TableId(0), vec![a0], u32::MAX as u64);
    let w = Workload::new(b.finish(), vec![q.clone(), q.clone(), q]);
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let a = budget::relative_budget(&est, 1.0);
    let run = algorithm1::run(&est, &algorithm1::Options::new(a));
    assert!(run.final_cost <= run.initial_cost);
}

#[test]
fn exact_fit_budgets_are_handled() {
    let w = workload();
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    // Budget exactly one specific index's footprint.
    let k = Index::single(AttrId(3));
    let a = est.index_memory_of(&k);
    let run = algorithm1::run(&est, &algorithm1::Options::new(a));
    assert!(run.selection.memory(&est) <= a);
}

#[test]
fn starved_solver_limits_return_feasible_incumbents() {
    let w = workload();
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let pool = candidates::enumerate_imax(&w, 3).ids(est.pool());
    let a = budget::relative_budget(&est, 0.3);
    for opts in [
        CophyOptions { mip_gap: 0.0, time_limit: Duration::from_millis(0), max_nodes: usize::MAX },
        CophyOptions { mip_gap: 0.0, time_limit: Duration::from_secs(60), max_nodes: 1 },
    ] {
        let run = cophy::solve(&est, &pool, a, &opts, Parallelism::serial(), Trace::disabled());
        assert!(run.selection.memory(&est) <= a);
        assert!(run.solution.objective.is_finite());
        assert!(run.solution.objective >= run.solution.lower_bound - 1e-9);
    }
}

#[test]
fn heuristics_survive_single_candidate_pools() {
    let w = workload();
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let lone = vec![est.pool().intern_single(AttrId(0))];
    let a = budget::relative_budget(&est, 1.0);
    for sel in [
        heuristics::h1(&lone, &est, a, Trace::disabled()),
        heuristics::h4(&lone, &est, a, true, Parallelism::serial(), Trace::disabled()),
        heuristics::h5(&lone, &est, a, Parallelism::serial(), Trace::disabled()),
    ] {
        assert!(sel.len() <= 1);
    }
    // Empty candidate pool.
    let empty: Vec<isel_workload::IndexId> = vec![];
    assert!(heuristics::h1(&empty, &est, a, Trace::disabled()).is_empty());
    assert!(heuristics::skyline_filter(&empty, &est).is_empty());
}

#[test]
fn noisy_oracle_keeps_heuristics_budget_feasible() {
    let w = workload();
    let noisy = NoisyWhatIf { inner: CachingWhatIf::new(AnalyticalWhatIf::new(&w)) };
    let pool = candidates::enumerate_imax(&w, 3).ids(noisy.pool());
    let a = budget::relative_budget(&noisy, 0.25);
    for sel in [
        heuristics::h4(&pool, &noisy, a, false, Parallelism::serial(), Trace::disabled()),
        heuristics::h5(&pool, &noisy, a, Parallelism::serial(), Trace::disabled()),
    ] {
        assert!(sel.memory(&noisy) <= a);
    }
}
