//! Reproducibility guarantees: every generator and every selection
//! algorithm is deterministic in its seed, so the experiment binaries
//! regenerate identical rows run after run (the property the paper's
//! "reproducible examples" hinge on).

use isel_core::{algorithm1, budget, candidates, cophy, db2, heuristics, Parallelism, Trace};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_solver::cophy::CophyOptions;
use isel_workload::erp::{self, ErpConfig};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::{drift, tpcc};
use std::time::Duration;

#[test]
fn all_generators_are_seed_deterministic() {
    let syn = SyntheticConfig::default();
    assert_eq!(synthetic::generate(&syn), synthetic::generate(&syn));
    let erp_cfg = ErpConfig::tiny(4);
    assert_eq!(erp::generate(&erp_cfg), erp::generate(&erp_cfg));
    assert_eq!(tpcc::generate(7).0, tpcc::generate(7).0);
    let drift_cfg = drift::DriftConfig {
        base: SyntheticConfig {
            tables: 2,
            attrs_per_table: 10,
            queries_per_table: 10,
            rows_base: 1_000,
            ..SyntheticConfig::default()
        },
        epochs: 3,
        rotation_per_epoch: 2,
    };
    assert_eq!(drift::generate(&drift_cfg), drift::generate(&drift_cfg));
}

#[test]
fn selection_algorithms_are_deterministic() {
    let w = synthetic::generate(&SyntheticConfig {
        tables: 2,
        attrs_per_table: 12,
        queries_per_table: 15,
        rows_base: 100_000,
        max_query_width: 4,
        update_fraction: 0.2,
        seed: 12,
    });
    let run = |_: usize| {
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let a = budget::relative_budget(&est, 0.3);
        let pool = candidates::enumerate_imax(&w, 3).ids(est.pool());
        let h6 = algorithm1::run(&est, &algorithm1::Options::new(a));
        let h5 = heuristics::h5(&pool, &est, a, Parallelism::serial(), Trace::disabled());
        let cop = cophy::solve(
            &est,
            &pool,
            a,
            &CophyOptions { mip_gap: 0.0, time_limit: Duration::from_secs(60), max_nodes: 1_000_000 },
            Parallelism::serial(),
            Trace::disabled(),
        );
        let db2_options = db2::Db2Options { budget: a, swap_rounds: 50, seed: 3 };
        let shuffled = db2::run(&pool, &est, &db2_options, Trace::disabled());
        (h6.selection, h5, cop.selection, shuffled.selection)
    };
    assert_eq!(run(0), run(1));
}

#[test]
fn candidate_enumeration_is_order_stable() {
    let w = synthetic::generate(&SyntheticConfig {
        tables: 1,
        attrs_per_table: 10,
        queries_per_table: 12,
        rows_base: 10_000,
        max_query_width: 4,
        update_fraction: 0.0,
        seed: 6,
    });
    let a = candidates::enumerate_imax(&w, 4);
    let b = candidates::enumerate_imax(&w, 4);
    assert_eq!(a, b);
    let sel_a = candidates::select_candidates(&a, 10, 4, candidates::CandidateRanking::Ratio);
    let sel_b = candidates::select_candidates(&b, 10, 4, candidates::CandidateRanking::Ratio);
    assert_eq!(sel_a, sel_b);
}

#[test]
fn dimension_claims_of_design_md_hold() {
    // DESIGN.md §5 pins the experiment dimensions — keep them honest.
    let fig2 = synthetic::generate(&SyntheticConfig {
        queries_per_table: 100,
        ..SyntheticConfig::default()
    });
    assert_eq!(fig2.schema().attr_count(), 500);
    assert_eq!(fig2.query_count(), 1_000);

    let e2e = synthetic::generate(&SyntheticConfig::end_to_end(0xE2E));
    assert_eq!(e2e.schema().attr_count(), 100);
    assert_eq!(e2e.query_count(), 100);

    let erp = erp::generate(&ErpConfig::default());
    assert_eq!(erp.schema().tables().len(), 500);
    assert_eq!(erp.schema().attr_count(), 4_204);
    assert_eq!(erp.query_count(), 2_271);
}
