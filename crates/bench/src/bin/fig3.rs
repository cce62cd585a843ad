//! **Figure 3** — effect of the candidate-set *size* on CoPhy's quality:
//! H6 vs CoPhy with |I| ∈ {100, 1 000, |I_max|} candidates chosen by H1-M.
//!
//! Paper setting: N = 500, Q = 1 000, `w ∈ [0, 0.4]`. Expected shape: the
//! smaller the candidate set, the bigger the gap to the optimal
//! CoPhy(I_max) curve; H6 tracks the optimal curve without any candidate
//! set.

use isel_bench::{accept_args, cophy_budget_sweep, h6_frontier, report_written, FrontierWriter};
use isel_core::{budget, candidates};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_solver::cophy::CophyOptions;
use isel_workload::synthetic::{self, SyntheticConfig};
use std::time::Duration;

fn main() {
    accept_args(&[]);
    let cfg = SyntheticConfig {
        queries_per_table: 100,
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
        "fig3",
        "Figure 3: cost vs A(w), H6 vs CoPhy with |I| = 100 / 1000 / I_max (H1-M)",
        base_cost,
        2,
    );

    let max_budget = budget::relative_budget(&est, *ws.last().unwrap());
    let (frontier, _) = h6_frontier(&est, max_budget);
    for &w in &ws {
        let a = budget::relative_budget(&est, w);
        out.emit("H6", w, frontier.cost_at(a).unwrap_or(base_cost), "Frontier");
    }

    let pool = candidates::enumerate_imax(&workload, 4);
    println!("(|I_max| = {})", pool.len());
    for size in [100usize, 1_000] {
        let cands =
            candidates::select_candidates(&pool, size, 4, candidates::CandidateRanking::Frequency);
        let name = format!("CoPhy-H1M-{size}");
        for (w, cost, status) in cophy_budget_sweep(&est, &cands, &ws, &opts) {
            out.emit(&name, w, cost, &status);
        }
    }
    let all = pool.indexes();
    for (w, cost, status) in cophy_budget_sweep(&est, &all, &ws, &opts) {
        out.emit("CoPhy-Imax", w, cost, &status);
    }

    report_written(&out.finish());
}
