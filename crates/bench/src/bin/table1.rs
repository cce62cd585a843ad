//! **Table I** — runtime comparison: solving time of the recursive
//! strategy (H6) vs CoPhy's solver for growing problem sizes.
//!
//! Paper setting: T = 10 tables, Σ N_t = 500 attributes, budget w = 0.2,
//! Σ Q_t ∈ {500, …, 50 000}, candidate sets |I| ∈ {100, 1 000, 10 000}
//! (via H1-M) plus the exhaustive pool `IC_max`; CPLEX `mipgap = 0.05`;
//! what-if time excluded; DNF after a wall-clock cutoff.
//!
//! Quick mode (default) runs Σ Q_t up to 5 000 with a 10 s cutoff;
//! `--full` runs the complete sweep with a 60 s cutoff. Paper DNFs at
//! 8 hours — the *pattern* (CoPhy explodes with |I| and Q, H6 stays in
//! seconds) is the reproduction target, not the cutoff constant.

use isel_bench::{
    accept_args, arg_value, has_flag, header, print_scan_histogram, report_written, secs, timed,
    ResultSink,
};
use isel_core::{algorithm1, budget, candidates, RunReport, Trace, VecSink};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, PrefixAwareWhatIf, WhatIfOptimizer};
use isel_solver::cophy::CophyOptions;
use isel_solver::SolveStatus;
use isel_workload::synthetic::{self, SyntheticConfig};
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Row {
    total_queries: usize,
    ic_max: usize,
    candidates: usize,
    cophy_status: String,
    cophy_solve_secs: f64,
    cophy_whatif_calls: u64,
    h6_secs: f64,
    h6_whatif_calls: u64,
    h6_selected: usize,
}

fn main() {
    accept_args(&["--full", "--cutoff=SECS"]);
    let full = has_flag("--full");
    let cutoff = Duration::from_secs_f64(
        arg_value("--cutoff")
            .map(|v| v.parse().expect("numeric cutoff"))
            .unwrap_or(if full { 60.0 } else { 10.0 }),
    );
    let query_scales: &[usize] = if full {
        &[50, 100, 200, 500, 1_000, 2_000, 5_000]
    } else {
        &[50, 100, 200, 500]
    };

    let mut sink = ResultSink::new("table1");
    header(
        "Table I: solving time H6 vs CoPhy (w = 0.2, mipgap = 0.05)",
        &["SumQ", "|IC_max|", "|I|", "CoPhy status", "CoPhy s", "H6 s", "H6 calls"],
    );

    for &qpt in query_scales {
        let cfg = SyntheticConfig {
            queries_per_table: qpt,
            ..SyntheticConfig::default()
        };
        let workload = synthetic::generate(&cfg);
        let total_queries = workload.query_count();

        // H6: one run, cache-backed what-if; its runtime includes the cheap
        // analytical calls (the paper's notion of "solving time" excludes
        // what-if time — we report the call count separately so the
        // comparison stays honest).
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&workload));
        let a = budget::relative_budget(&est, 0.2);
        let h6_sink = VecSink::new();
        let (h6, h6_time) = timed(|| {
            algorithm1::run_traced(&est, &algorithm1::Options::new(a), Trace::to(&h6_sink))
        });
        let h6_calls = est.stats().calls_issued;
        print_scan_histogram(
            &format!("H6 candidate scans (SumQ={})", workload.query_count()),
            &RunReport::from_events(&h6_sink.take()),
        );

        let pool = candidates::enumerate_imax(&workload, 4);
        let ic_max = pool.len();
        let sizes: Vec<usize> = [100usize, 1_000, 10_000]
            .iter()
            .copied()
            .filter(|&s| s < ic_max)
            .chain([ic_max])
            .collect();

        for &size in &sizes {
            let cands = if size == ic_max {
                pool.indexes()
            } else {
                candidates::select_candidates(
                    &pool,
                    size,
                    4,
                    candidates::CandidateRanking::Frequency,
                )
            };
            // Fresh estimator per run so call counts are attributable. The
            // prefix-aware (INUM-style) layer keeps the cache proportional
            // to distinct (query, prefix) pairs rather than
            // (query, candidate) pairs — essential for |I| ≈ 10⁵.
            let est = PrefixAwareWhatIf::new(AnalyticalWhatIf::new(&workload));
            let cand_ids: Vec<_> = cands.iter().map(|k| est.pool().intern(k)).collect();
            let run = isel_core::cophy::solve(
                &est,
                &cand_ids,
                a,
                &CophyOptions { mip_gap: 0.05, time_limit: cutoff, max_nodes: usize::MAX },
            );
            let status = match run.solution.status {
                SolveStatus::TimeLimit => "DNF".to_owned(),
                s => format!("{s:?}"),
            };
            println!(
                "{total_queries}\t{ic_max}\t{}\t{status}\t{}\t{}\t{h6_calls}",
                run.candidates.len(),
                secs(run.solution.solve_time),
                secs(h6_time),
            );
            sink.emit(&Row {
                total_queries,
                ic_max,
                candidates: run.candidates.len(),
                cophy_status: status,
                cophy_solve_secs: run.solution.solve_time.as_secs_f64(),
                cophy_whatif_calls: run.build_what_if_calls,
                h6_secs: h6_time.as_secs_f64(),
                h6_whatif_calls: h6_calls,
                h6_selected: h6.selection.len(),
            });
        }
    }
    report_written(&sink.finish());
}
