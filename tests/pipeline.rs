//! Cross-crate pipeline tests: workload generation → cost model →
//! selection algorithms, on the paper's synthetic setting.

use isel_core::{algorithm1, budget, candidates, heuristics, Parallelism, Trace};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer, WhatIfStats};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::{Index, Workload};

fn small() -> Workload {
    synthetic::generate(&SyntheticConfig {
        tables: 3,
        attrs_per_table: 20,
        queries_per_table: 30,
        rows_base: 200_000,
        max_query_width: 6,
        update_fraction: 0.0,
        seed: 99,
    })
}

#[test]
fn h6_beats_all_rule_based_heuristics_on_synthetic_workloads() {
    let w = small();
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let a = budget::relative_budget(&est, 0.25);
    let pool = candidates::enumerate_imax(&w, 4).ids(est.pool());

    let h6 = algorithm1::run(&est, &algorithm1::Options::new(a));
    let h6_cost = h6.final_cost;
    for (name, sel) in [
        ("h1", heuristics::h1(&pool, &est, a, Trace::disabled())),
        ("h2", heuristics::h2(&pool, &est, a, Trace::disabled())),
        ("h3", heuristics::h3(&pool, &est, a, Trace::disabled())),
    ] {
        let cost = sel.cost(&est);
        assert!(
            h6_cost <= cost * 1.001,
            "{name}: H6 {h6_cost} should beat rule-based {cost}"
        );
    }
}

#[test]
fn h6_is_competitive_with_performance_based_heuristics() {
    let w = small();
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let a = budget::relative_budget(&est, 0.25);
    let pool = candidates::enumerate_imax(&w, 4).ids(est.pool());
    let h6 = algorithm1::run(&est, &algorithm1::Options::new(a));
    let h5 = heuristics::h5(&pool, &est, a, Parallelism::serial(), Trace::disabled()).cost(&est);
    // H5 with the full candidate set is a strong baseline; H6 must at
    // least match it within a small tolerance (it usually wins).
    assert!(
        h6.final_cost <= h5 * 1.05,
        "H6 {} vs H5 {h5}",
        h6.final_cost
    );
}

#[test]
fn all_strategies_respect_every_budget() {
    let w = small();
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let pool = candidates::enumerate_imax(&w, 4).ids(est.pool());
    for share in [0.05, 0.15, 0.35] {
        let a = budget::relative_budget(&est, share);
        let sels = [
            heuristics::h1(&pool, &est, a, Trace::disabled()),
            heuristics::h2(&pool, &est, a, Trace::disabled()),
            heuristics::h3(&pool, &est, a, Trace::disabled()),
            heuristics::h4(&pool, &est, a, false, Parallelism::serial(), Trace::disabled()),
            heuristics::h4(&pool, &est, a, true, Parallelism::serial(), Trace::disabled()),
            heuristics::h5(&pool, &est, a, Parallelism::serial(), Trace::disabled()),
            algorithm1::run(&est, &algorithm1::Options::new(a)).selection,
        ];
        for sel in sels {
            assert!(sel.memory(&est) <= a, "selection exceeds budget at w={share}");
        }
    }
}

#[test]
fn selections_never_increase_workload_cost() {
    let w = small();
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let base = est.workload_cost(&[]);
    let a = budget::relative_budget(&est, 0.3);
    let pool = candidates::enumerate_imax(&w, 4).ids(est.pool());
    for sel in [
        heuristics::h1(&pool, &est, a, Trace::disabled()),
        heuristics::h4(&pool, &est, a, true, Parallelism::serial(), Trace::disabled()),
        algorithm1::run(&est, &algorithm1::Options::new(a)).selection,
    ] {
        assert!(sel.cost(&est) <= base + 1e-9);
    }
}

#[test]
fn frontier_is_monotone_in_budget() {
    let w = small();
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let a = budget::relative_budget(&est, 0.5);
    let run = algorithm1::run(&est, &algorithm1::Options::new(a));
    let points = run.frontier.points();
    for pair in points.windows(2) {
        assert!(pair[0].memory < pair[1].memory);
        assert!(pair[0].cost > pair[1].cost);
    }
}

#[test]
fn selection_at_replays_the_step_log_consistently() {
    let w = small();
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let a = budget::relative_budget(&est, 0.4);
    let run = algorithm1::run(&est, &algorithm1::Options::new(a));
    // Replaying at the final memory reproduces the final selection.
    let full = algorithm1::selection_at(&run.steps, a);
    assert_eq!(full, run.selection);
    // Replaying at a reduced budget yields a subset-size selection that
    // fits and whose cost matches the frontier.
    let half = a / 2;
    let partial = algorithm1::selection_at(&run.steps, half);
    assert!(partial.memory(&est) <= half);
    if let Some(frontier_cost) = run.frontier.cost_at(half) {
        let eval = partial.cost(&est);
        assert!(
            (eval - frontier_cost).abs() <= 1e-6 * eval.abs().max(1.0),
            "replaccording frontier {frontier_cost} vs eval {eval}"
        );
    }
}

/// What-if requests CoPhy's coefficient collection asks through `est`.
fn cophy_build_stats(est: impl WhatIfOptimizer, cands: &[Index], budget: u64) -> WhatIfStats {
    let ids: Vec<_> = cands.iter().map(|k| est.pool().intern(k)).collect();
    isel_core::cophy::build_instance(&est, &ids, budget);
    est.stats()
}

#[test]
fn cophy_build_asks_table1s_request_count_under_either_pair_key() {
    // Table I's first cell (`table1 --cutoff=1`: ΣQ = 500, |I| = 100 by
    // H1-M): collecting CoPhy's coefficients asks 1 982 what-if requests.
    // INUM's prefix key answers more of them from the memo.
    let w = synthetic::generate(&SyntheticConfig {
        queries_per_table: 50,
        ..SyntheticConfig::default()
    });
    assert_eq!(w.query_count(), 500);
    let pool = candidates::enumerate_imax(&w, 4);
    let ranking = candidates::CandidateRanking::Frequency;
    let cands = candidates::select_candidates(&pool, 100, 4, ranking);
    let a = budget::relative_budget(&AnalyticalWhatIf::new(&w), 0.2);
    let exact = cophy_build_stats(CachingWhatIf::new(AnalyticalWhatIf::new(&w)), &cands, a);
    let prefix = cophy_build_stats(CachingWhatIf::prefix_keyed(AnalyticalWhatIf::new(&w)), &cands, a);
    assert_eq!(prefix.total_requests(), 1_982);
    assert_eq!(exact.total_requests(), 1_982);
    assert!(prefix.calls_issued < exact.calls_issued, "{prefix:?} vs {exact:?}");
}
