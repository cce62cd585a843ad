//! Adapting to a drifting workload (the paper's Section-VII scenario).
//!
//! ```bash
//! cargo run -p isel-examples --release --example dynamic_advisor
//! ```
//!
//! Generates six workload epochs whose hot attribute set rotates, then
//! compares three policies under size-proportional index build costs:
//! keep the first configuration forever, rebuild from scratch every epoch,
//! or adapt with reconfiguration costs in the loop.

use isel_core::dynamic::{self, TransitionCosts};
use isel_core::{budget, Trace};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_workload::drift::{self, DriftConfig};
use isel_workload::synthetic::SyntheticConfig;

fn main() {
    let scenario = drift::generate(&DriftConfig {
        base: SyntheticConfig {
            tables: 3,
            attrs_per_table: 25,
            queries_per_table: 30,
            ..SyntheticConfig::default()
        },
        epochs: 6,
        rotation_per_epoch: 5,
    });
    println!("drift scenario: {} epochs over one schema", scenario.len());
    for (e, w) in scenario.iter().enumerate().skip(1) {
        println!(
            "  epoch {e}: hot-set overlap with epoch 0 = {:.2}",
            drift::attribute_overlap(&scenario[0], w)
        );
    }

    let ests: Vec<CachingWhatIf<AnalyticalWhatIf<'_>>> = scenario
        .iter()
        .map(|w| CachingWhatIf::new(AnalyticalWhatIf::new(w)))
        .collect();
    let refs: Vec<&dyn WhatIfOptimizer> =
        ests.iter().map(|e| e as &dyn WhatIfOptimizer).collect();
    let a = budget::relative_budget(&refs[0], 0.25);
    let costs = TransitionCosts { create_cost_per_byte: 0.05, drop_cost: 10_000.0 };

    println!("\npolicy      total-cost    workload     reconfig   churned-indexes");
    for (name, trace) in [
        ("static  ", dynamic::static_first_epoch(&refs, a, costs, Trace::disabled())),
        ("scratch ", dynamic::from_scratch(&refs, a, costs)),
        ("adaptive", dynamic::adapt(&refs, a, costs)),
    ] {
        let workload: f64 = trace.epochs.iter().map(|e| e.workload_cost).sum();
        let churn: usize = trace
            .epochs
            .windows(2)
            .map(|w| {
                w[1].selection
                    .indexes()
                    .iter()
                    .filter(|k| !w[0].selection.contains(k))
                    .count()
            })
            .sum();
        println!(
            "{name}    {:.3e}    {workload:.3e}   {:.3e}   {churn}",
            trace.total_cost(),
            trace.total_reconfig(),
        );
    }
}
