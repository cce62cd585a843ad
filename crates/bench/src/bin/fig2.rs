//! **Figure 2** — scan performance vs memory budget: H6 against CoPhy with
//! candidate sets from different heuristics.
//!
//! Paper setting: N = 500, Q = 1 000, budgets `A(w)` for `w ∈ [0, 0.4]`;
//! CoPhy with |I| = 500 candidates selected by H1-M, H2-M and H3-M, plus
//! the exhaustive set `I_max` (optimal reference). One H6 run traces the
//! whole frontier.
//!
//! Expected shape: H6 ≈ CoPhy(I_max) for every budget; CoPhy with reduced
//! candidate sets is strictly worse, and how much worse depends on the
//! candidate heuristic.

use isel_bench::{
    accept_args, cophy_budget_sweep, h6_frontier_profiled, print_scan_histogram, report_written,
    FrontierWriter,
};
use isel_core::{budget, candidates};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_solver::cophy::CophyOptions;
use isel_workload::synthetic::{self, SyntheticConfig};
use std::time::Duration;

fn main() {
    accept_args(&[]);
    let cfg = SyntheticConfig {
        queries_per_table: 100, // Q = 1 000 over 10 tables
        ..SyntheticConfig::default()
    };
    let workload = synthetic::generate(&cfg);
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&workload));
    let base_cost = est.workload_cost(&[]);
    let ws: Vec<f64> = (0..=8).map(|i| i as f64 * 0.05).collect();
    let opts = CophyOptions {
        mip_gap: 0.05,
        time_limit: Duration::from_secs(20),
        max_nodes: usize::MAX,
    };

    let mut out = FrontierWriter::new(
        "fig2",
        "Figure 2: cost vs A(w), H6 vs CoPhy with candidate heuristics",
        base_cost,
        2,
    );

    // H6: a single run covers every budget.
    let max_budget = budget::relative_budget(&est, *ws.last().unwrap());
    let (frontier, h6_time, h6_report) = h6_frontier_profiled(&est, max_budget);
    for &w in &ws {
        let a = budget::relative_budget(&est, w);
        let cost = frontier.cost_at(a).unwrap_or(base_cost);
        out.emit("H6", w, cost, "Frontier");
    }
    println!("(H6 single-run time: {:.3}s)", h6_time.as_secs_f64());
    print_scan_histogram("H6 candidate scans", &h6_report);

    let pool = candidates::enumerate_imax(&workload, 4);
    println!("(|I_max| = {})", pool.len());

    for (name, ranking) in [
        ("CoPhy-H1M-500", candidates::CandidateRanking::Frequency),
        ("CoPhy-H2M-500", candidates::CandidateRanking::Selectivity),
        ("CoPhy-H3M-500", candidates::CandidateRanking::Ratio),
    ] {
        let cands = candidates::select_candidates(&pool, 500, 4, ranking);
        for (w, cost, status) in cophy_budget_sweep(&est, &cands, &ws, &opts) {
            out.emit(name, w, cost, &status);
        }
    }

    let all = pool.indexes();
    for (w, cost, status) in cophy_budget_sweep(&est, &all, &ws, &opts) {
        out.emit("CoPhy-Imax", w, cost, &status);
    }

    report_written(&out.finish());
}
