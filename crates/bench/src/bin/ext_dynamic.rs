//! **Extension experiment** — adapting to drifting workloads under
//! reconfiguration costs (the paper's Section-VII future work).
//!
//! A drifting scenario (hot attribute set rotates per epoch) is solved by
//! three policies at increasing transition-cost levels:
//!
//! * `static` — select once on epoch 0, never touch again,
//! * `scratch` — re-select every epoch ignoring transition costs (churn),
//! * `adaptive` — re-select with the previous configuration as `Ī*` so
//!   only transitions that pay for themselves are made.
//!
//! Expected shape: with free transitions, adaptive = scratch ≪ static;
//! as transitions get expensive, scratch's churn bill explodes while
//! adaptive degrades gracefully toward static.

use isel_bench::{accept_args, header, report_written, ResultSink};
use isel_core::dynamic::{self, TransitionCosts};
use isel_core::{budget, Trace};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_workload::drift::{self, DriftConfig};
use isel_workload::synthetic::SyntheticConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    create_cost_per_byte: f64,
    policy: String,
    total_cost: f64,
    workload_cost: f64,
    reconfig_cost: f64,
}

fn main() {
    accept_args(&[]);
    let scenario = drift::generate(&DriftConfig {
        base: SyntheticConfig {
            tables: 4,
            attrs_per_table: 30,
            queries_per_table: 40,
            ..SyntheticConfig::default()
        },
        epochs: 6,
        rotation_per_epoch: 6,
    });
    println!(
        "(drift scenario: {} epochs, epoch-1 overlap {:.2})",
        scenario.len(),
        drift::attribute_overlap(&scenario[0], &scenario[1])
    );

    let ests: Vec<CachingWhatIf<AnalyticalWhatIf<'_>>> = scenario
        .iter()
        .map(|w| CachingWhatIf::new(AnalyticalWhatIf::new(w)))
        .collect();
    let refs: Vec<&dyn WhatIfOptimizer> =
        ests.iter().map(|e| e as &dyn WhatIfOptimizer).collect();
    let a = budget::relative_budget(&refs[0], 0.3);

    let mut sink = ResultSink::new("ext_dynamic");
    header(
        "Extension: adaptation under reconfiguration costs (total over epochs)",
        &["create$/B", "policy", "total", "workload", "reconfig"],
    );
    for create in [0.0, 0.01, 0.1, 1.0, 10.0] {
        let costs = TransitionCosts { create_cost_per_byte: create, drop_cost: 1_000.0 };
        for (name, trace) in [
            ("static", dynamic::static_first_epoch(&refs, a, costs, Trace::disabled())),
            ("scratch", dynamic::from_scratch(&refs, a, costs)),
            ("adaptive", dynamic::adapt(&refs, a, costs)),
        ] {
            let workload: f64 = trace.epochs.iter().map(|e| e.workload_cost).sum();
            println!(
                "{create}\t{name}\t{:.3e}\t{workload:.3e}\t{:.3e}",
                trace.total_cost(),
                trace.total_reconfig()
            );
            sink.emit(&Row {
                create_cost_per_byte: create,
                policy: name.to_owned(),
                total_cost: trace.total_cost(),
                workload_cost: workload,
                reconfig_cost: trace.total_reconfig(),
            });
        }
    }
    report_written(&sink.finish());
}
