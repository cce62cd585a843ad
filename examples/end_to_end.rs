//! End-to-end advisor session against the in-memory column store: measure
//! real executions, select indexes, create them, and verify the speedup by
//! executing the workload again (the Section IV-B loop in miniature).
//!
//! ```bash
//! cargo run -p isel-examples --release --example end_to_end
//! ```

use isel_core::{algorithm1, budget};
use isel_costmodel::CachingWhatIf;
use isel_dbsim::measure::LiveWhatIf;
use isel_dbsim::{Database, MeasureConfig};
use isel_workload::synthetic::{self, SyntheticConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A single 100-attribute table with 50k rows — small enough to execute
    // every probe in seconds.
    let cfg = SyntheticConfig {
        rows_base: 50_000,
        ..SyntheticConfig::end_to_end(7)
    };
    let workload = synthetic::generate(&cfg);
    let seed = 0xD1CE;

    // Baseline: execute the workload without indexes.
    let baseline_db = Database::populate(workload.schema(), seed);
    let mut rng = StdRng::seed_from_u64(1);
    let mut base_cost = 0.0;
    for (_, q) in workload.iter() {
        let bq = baseline_db.bind_from_row(q, &mut rng);
        base_cost += q.frequency() as f64 * baseline_db.execute(&bq).work.cost_units();
    }
    println!("baseline workload cost (no indexes): {base_cost:.3e} work units");

    // Advisor: Algorithm 1 against live measurements — every index it
    // wonders about is built and probed for real.
    let live = CachingWhatIf::new(LiveWhatIf::new(
        Database::populate(workload.schema(), seed),
        workload.clone(),
        MeasureConfig::default(),
    ));
    let a = budget::relative_budget(&live, 0.3);
    let result = algorithm1::run(&live, &algorithm1::Options::new(a));
    println!(
        "advisor built {} trial indexes, recommends {} (budget {} MiB):",
        live.inner().indexes_built(),
        result.selection.len(),
        a / (1024 * 1024),
    );
    for k in result.selection.indexes() {
        println!("  {k}");
    }

    // Deploy: create exactly the recommendation and re-execute.
    let mut db = Database::populate(workload.schema(), seed);
    for k in result.selection.indexes() {
        db.create_index(k);
    }
    let mut rng = StdRng::seed_from_u64(1);
    let mut indexed_cost = 0.0;
    for (_, q) in workload.iter() {
        let bq = db.bind_from_row(q, &mut rng);
        indexed_cost += q.frequency() as f64 * db.execute(&bq).work.cost_units();
    }
    println!(
        "indexed workload cost: {indexed_cost:.3e} work units ({:.1}% of baseline, {:.1}x speedup)",
        100.0 * indexed_cost / base_cost,
        base_cost / indexed_cost,
    );
    assert!(indexed_cost < base_cost, "indexes must pay off end to end");
}
