//! **Extension experiment** — update-aware selection (Section II-A's
//! general model; CoPhy's base formulation drops updates "w.l.o.g.").
//!
//! Sweeps the update fraction of the synthetic workload and compares:
//!
//! * `H6` — Algorithm 1 with maintenance-aware step benefits,
//! * `H6-blind` — the same construction against an oracle that reports
//!   zero maintenance (the read-only simplification),
//! * `CoPhy` — the solver with per-candidate maintenance penalties.
//!
//! All selections are evaluated under the *true* (maintenance-aware)
//! model. Expected shape: identical at 0% updates; H6-blind degrades with
//! the update share (it overbuilds indexes whose upkeep exceeds their
//! benefit), H6 and CoPhy track each other.

use isel_bench::{accept_args, header, report_written, ResultSink};
use isel_core::{algorithm1, budget, candidates, cophy};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer, WhatIfStats};
use isel_solver::cophy::CophyOptions;
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::{IndexId, IndexPool, QueryId, Workload};
use serde::Serialize;
use std::time::Duration;

/// Oracle adapter that hides maintenance costs (the "blind" baseline).
struct MaintenanceBlind<W>(W);

impl<W: WhatIfOptimizer> WhatIfOptimizer for MaintenanceBlind<W> {
    fn workload(&self) -> &Workload {
        self.0.workload()
    }
    fn pool(&self) -> &IndexPool {
        self.0.pool()
    }
    fn unindexed_cost(&self, q: QueryId) -> f64 {
        self.0.unindexed_cost(q)
    }
    fn index_cost(&self, q: QueryId, k: IndexId) -> Option<f64> {
        self.0.index_cost(q, k)
    }
    fn index_memory(&self, k: IndexId) -> u64 {
        self.0.index_memory(k)
    }
    fn maintenance_cost(&self, _k: IndexId) -> f64 {
        0.0
    }
    fn stats(&self) -> WhatIfStats {
        self.0.stats()
    }
}

#[derive(Serialize)]
struct Row {
    update_fraction: f64,
    series: String,
    cost: f64,
    relative_cost: f64,
    indexes: usize,
}

fn main() {
    accept_args(&[]);
    let mut sink = ResultSink::new("ext_updates");
    header(
        "Extension: update-aware selection (true cost, w = 0.3)",
        &["upd%", "series", "cost", "relative", "|I*|"],
    );

    for pct in [0u32, 20, 40, 60, 80] {
        let cfg = SyntheticConfig {
            tables: 4,
            attrs_per_table: 30,
            queries_per_table: 40,
            update_fraction: pct as f64 / 100.0,
            ..SyntheticConfig::default()
        };
        let workload = synthetic::generate(&cfg);
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&workload));
        let a = budget::relative_budget(&est, 0.3);
        let base = est.workload_cost(&[]);

        let mut emit = |series: &str, sel: &isel_core::Selection| {
            let cost = sel.cost(&est);
            println!(
                "{pct}\t{series}\t{cost:.3e}\t{:.4}\t{}",
                cost / base,
                sel.len()
            );
            sink.emit(&Row {
                update_fraction: pct as f64 / 100.0,
                series: series.to_owned(),
                cost,
                relative_cost: cost / base,
                indexes: sel.len(),
            });
        };

        let aware = algorithm1::run(&est, &algorithm1::Options::new(a));
        emit("H6", &aware.selection);

        let blind_est = MaintenanceBlind(CachingWhatIf::new(AnalyticalWhatIf::new(&workload)));
        let blind = algorithm1::run(&blind_est, &algorithm1::Options::new(a));
        emit("H6-blind", &blind.selection);

        let pool = candidates::enumerate_imax(&workload, 3).ids(est.pool());
        let run = cophy::solve(
            &est,
            &pool,
            a,
            &CophyOptions {
                mip_gap: 0.05,
                time_limit: Duration::from_secs(30),
                max_nodes: usize::MAX,
            },
        );
        emit("CoPhy", &run.selection);
    }
    report_written(&sink.finish());
}
