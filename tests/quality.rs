//! Solution-quality tests against the optimal reference: CoPhy with the
//! exhaustive candidate set is optimal for a given budget (Section III-B);
//! the paper claims H6 stays near-optimal while candidate-restricted CoPhy
//! degrades.

use isel_core::{
    algorithm1, budget, candidates, cophy, Advisor, Parallelism, Strategy, Trace, TraceEvent,
    VecSink,
};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_solver::cophy::CophyOptions;
use isel_workload::erp::{self, ErpConfig};
use isel_workload::{io, IndexId};
use isel_workload::synthetic::{self, SyntheticConfig};
use std::time::Duration;

/// CoPhy solved to optimality (zero gap).
fn solve_exact(est: &impl WhatIfOptimizer, candidates: &[IndexId], a: u64) -> cophy::CophyRun {
    let exact = CophyOptions {
        mip_gap: 0.0,
        time_limit: Duration::from_secs(120),
        max_nodes: 5_000_000,
    };
    cophy::solve(est, candidates, a, &exact, Parallelism::serial(), Trace::disabled())
}

fn workload(seed: u64) -> isel_workload::Workload {
    synthetic::generate(&SyntheticConfig {
        tables: 1,
        attrs_per_table: 15,
        queries_per_table: 20,
        rows_base: 300_000,
        max_query_width: 5,
        update_fraction: 0.0,
        seed,
    })
}

#[test]
fn h6_is_near_optimal_across_seeds_and_budgets() {
    // The paper's Section IV-B finding: H6 within a few percent of the
    // optimum for tractable problems. These 15-attribute instances are far
    // lumpier than the paper's N=100/N=500 workloads, so individual points
    // get a 20% cap while the sweep average must stay within 8%.
    let mut worst: f64 = 1.0;
    let mut sum = 0.0;
    let mut count = 0;
    for seed in [4u64, 7, 18] {
        let w = workload(seed);
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let pool = candidates::enumerate_imax(&w, 5).ids(est.pool());
        for share in [0.15, 0.3] {
            let a = budget::relative_budget(&est, share);
            let h6 = algorithm1::run(&est, &algorithm1::Options::new(a));
            // The exhaustive pool keeps one permutation per attribute set;
            // complement it with H6's own picks (Section III-B suggests
            // exactly this) so the reference is a true lower bound.
            let mut reference = pool.clone();
            reference.extend(h6.selection.ids(&est));
            let opt = solve_exact(&est, &reference, a);
            assert!(opt.solution.status.finished(), "reference must solve");
            let ratio = h6.final_cost / opt.solution.objective;
            assert!(
                ratio >= 1.0 - 1e-9,
                "H6 {} below optimum {} (seed {seed}, w {share})",
                h6.final_cost,
                opt.solution.objective
            );
            assert!(
                ratio <= 1.20,
                "H6 {} too far from optimum {} (seed {seed}, w {share})",
                h6.final_cost,
                opt.solution.objective
            );
            worst = worst.max(ratio);
            sum += ratio;
            count += 1;
        }
    }
    let mean = sum / count as f64;
    assert!(mean <= 1.08, "mean H6/optimal ratio {mean:.4} too high");
    println!("worst H6/optimal ratio {worst:.4}, mean {mean:.4}");
}

#[test]
fn restricted_candidate_sets_degrade_cophy() {
    let w = workload(7);
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let pool = candidates::enumerate_imax(&w, 5);
    let a = budget::relative_budget(&est, 0.3);
    let all = solve_exact(&est, &pool.ids(est.pool()), a);
    let tiny: Vec<_> =
        candidates::select_candidates(&pool, 4, 4, candidates::CandidateRanking::Frequency)
            .iter()
            .map(|k| est.pool().intern(k))
            .collect();
    let restricted = solve_exact(&est, &tiny, a);
    assert!(
        restricted.solution.objective >= all.solution.objective - 1e-9,
        "restricted CoPhy cannot beat the exhaustive set"
    );
}

#[test]
fn h6_beats_cophy_with_tiny_candidate_sets() {
    // The headline comparison of Figures 3 and 4.
    let mut h6_wins = 0;
    let mut rounds = 0;
    for seed in [11u64, 12, 13, 14] {
        let w = workload(seed);
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let pool = candidates::enumerate_imax(&w, 5);
        let a = budget::relative_budget(&est, 0.3);
        let tiny: Vec<_> =
            candidates::select_candidates(&pool, 4, 4, candidates::CandidateRanking::Frequency)
                .iter()
                .map(|k| est.pool().intern(k))
                .collect();
        let restricted = solve_exact(&est, &tiny, a);
        let h6 = algorithm1::run(&est, &algorithm1::Options::new(a));
        rounds += 1;
        if h6.final_cost <= restricted.solution.objective + 1e-9 {
            h6_wins += 1;
        }
    }
    assert!(
        h6_wins >= rounds - 1,
        "H6 should dominate candidate-starved CoPhy ({h6_wins}/{rounds})"
    );
}

#[test]
fn gap_terminated_solutions_respect_their_gap() {
    let w = workload(5);
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let pool = candidates::enumerate_imax(&w, 5).ids(est.pool());
    let a = budget::relative_budget(&est, 0.25);
    let run = cophy::solve(
        &est,
        &pool,
        a,
        &CophyOptions { mip_gap: 0.05, time_limit: Duration::from_secs(60), max_nodes: 5_000_000 },
        Parallelism::serial(),
        Trace::disabled(),
    );
    assert!(run.solution.status.finished());
    assert!(run.solution.gap <= 0.05 + 1e-9);
    assert!(run.solution.objective >= run.solution.lower_bound - 1e-9);
}

#[test]
fn remark_one_accelerations_trade_little_quality() {
    let w = workload(21);
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let a = budget::relative_budget(&est, 0.3);
    let base = algorithm1::run(&est, &algorithm1::Options::new(a));
    let nbest = algorithm1::run(
        &est,
        &algorithm1::Options { n_best_single: Some(8), ..algorithm1::Options::new(a) },
    );
    let pruned = algorithm1::run(
        &est,
        &algorithm1::Options { prune_unused: true, ..algorithm1::Options::new(a) },
    );
    // n-best with more than half the attributes must stay close.
    assert!(nbest.final_cost <= base.final_cost * 1.25);
    // Pruning can only free memory for more useful indexes.
    assert!(pruned.final_cost <= base.final_cost * 1.05);
}

#[test]
fn erp_scale_h6_holds_the_papers_call_count_and_cost() {
    // The paper's two claims for H6 at enterprise scale (Section III-A,
    // Table I; Section IV-A): about 2·Q·q̄ what-if calls, and a cost far
    // below the unindexed workload at w = 0.2 — on the workload
    // `isel generate --kind erp --seed 42` writes, read back through the
    // file as `isel recommend` reads it. The request ledger is the one
    // `benchmark/golden/erp_advisor.txt` digests: a change that asks the
    // oracle one time more or less fails here, not first in the benchmark.
    let path = std::env::temp_dir().join(format!("isel-erp-guard-{}.json", std::process::id()));
    io::save(&erp::generate(&ErpConfig { seed: 42, ..ErpConfig::default() }), &path)
        .expect("write the ERP workload");
    let w = io::load(&path).expect("read the ERP workload back");
    std::fs::remove_file(&path).expect("remove the temporary workload file");

    // The same run fanned over four threads asks exactly as often and
    // selects the same indexes: the ledger is thread-count invariant.
    let mut selections = Vec::new();
    for threads in [1, 4] {
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let sink = VecSink::new();
        let rec = Advisor::new(&est)
            .with_parallelism(Parallelism::new(threads))
            .with_trace(Trace::to(&sink))
            .recommend_relative(Strategy::H6, 0.2);
        let steps = sink
            .take()
            .into_iter()
            .find_map(|e| match e {
                TraceEvent::RunEnd { steps, .. } => Some(steps),
                _ => None,
            })
            .expect("the run reports its end");
        assert_eq!(steps, 963, "{threads} threads");

        let q_qbar: usize = w.iter().map(|(_, q)| q.width()).sum();
        let calls_per_qq = rec.what_if_calls as f64 / q_qbar as f64;
        assert!(calls_per_qq <= 2.5, "{} calls ÷ Q·q̄ {q_qbar} = {calls_per_qq}", rec.what_if_calls);
        let rel = rec.relative_cost();
        assert!((rel / 0.006_323_329_483_832_412 - 1.0).abs() < 1e-12, "relative cost {rel:?}");

        assert_eq!(rec.what_if.calls_issued, 14_119, "{threads} threads");
        assert_eq!(rec.what_if.calls_answered_from_cache, 2_846_222, "{threads} threads");
        let cache = rec.cache.expect("a caching oracle reports its memo tables");
        let triple = (cache.hits, cache.misses, cache.inserts);
        assert_eq!(triple, (2_854_403, 19_040, 19_040), "{threads} threads");
        selections.push(rec.selection);
    }
    assert!(selections[0] == selections[1], "4 threads selected other indexes");
}
