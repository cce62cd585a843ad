//! **Figure 4** — enterprise (ERP) workload: H6 vs CoPhy with restricted
//! candidate sets on the Fortune-500-shaped system.
//!
//! Paper setting: the largest 500 tables, N = 4 204 attributes,
//! Q = 2 271 templates, >5·10⁷ executions, budgets `w ∈ [0, 0.1]`; CoPhy
//! with |I| ∈ {100, 1 000, |I_max|} via H1-M (paper: |I_max| = 9 912).
//! The proprietary workload is replaced by the published-aggregate
//! generator (DESIGN.md §3).
//!
//! Expected shape: H6 dominates CoPhy-with-restricted-candidates at every
//! budget; H6's runtime stays around a second while CoPhy-with-all-
//! candidates needs minutes.

use isel_bench::{
    accept_args, cophy_budget_sweep, h6_frontier_profiled, has_flag, print_scan_histogram,
    report_written, secs, FrontierWriter,
};
use isel_core::{budget, candidates};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_solver::cophy::CophyOptions;
use isel_workload::erp::{self, ErpConfig};
use std::time::Duration;

fn main() {
    accept_args(&["--quick"]);
    let quick = has_flag("--quick");
    let cfg = if quick {
        ErpConfig {
            tables: 100,
            total_attrs: 900,
            query_templates: 500,
            ..ErpConfig::default()
        }
    } else {
        ErpConfig::default()
    };
    let workload = erp::generate(&cfg);
    println!(
        "(ERP workload: {} tables, {} attrs, {} templates, {:.1}M executions)",
        workload.schema().tables().len(),
        workload.schema().attr_count(),
        workload.query_count(),
        workload.total_frequency() as f64 / 1e6
    );
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&workload));
    let base_cost = est.workload_cost(&[]);
    let ws: Vec<f64> = (0..=8).map(|i| i as f64 * 0.0125).collect();
    let opts = CophyOptions {
        mip_gap: 0.05,
        time_limit: Duration::from_secs(if quick { 15 } else { 45 }),
        max_nodes: usize::MAX,
    };

    let mut out = FrontierWriter::new("fig4", "Figure 4: ERP workload, cost vs A(w)", base_cost, 4);

    let max_budget = budget::relative_budget(&est, *ws.last().unwrap());
    let (frontier, h6_time, h6_report) = h6_frontier_profiled(&est, max_budget);
    println!("(H6 runtime: {}s)", secs(h6_time));
    print_scan_histogram("H6 candidate scans", &h6_report);
    for &w in &ws {
        let a = budget::relative_budget(&est, w);
        out.emit("H6", w, frontier.cost_at(a).unwrap_or(base_cost), "Frontier");
    }

    // Wide analytical templates are capped to their 8 hottest attributes
    // so the pool stays in the paper's |I_max| ≈ 10⁴ regime.
    let pool = candidates::enumerate_imax_capped(&workload, 4, 8);
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
    let (rows, cophy_time) = isel_bench::timed(|| cophy_budget_sweep(&est, &all, &ws, &opts));
    for (w, cost, status) in rows {
        out.emit("CoPhy-Imax", w, cost, &status);
    }
    println!("(CoPhy-Imax total sweep time: {}s)", secs(cophy_time));

    report_written(&out.finish());
}
