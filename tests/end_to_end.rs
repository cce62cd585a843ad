//! End-to-end tests against the columnar engine (the Section IV-B loop in
//! miniature): measured costs in, selections out, verified by execution.
//! Every strategy asks the ledger over the measuring oracle, which builds
//! and executes each distinct question once.

use isel_core::{algorithm1, budget, candidates, heuristics, Parallelism, Trace};
use isel_costmodel::{CachingWhatIf, WhatIfOptimizer};
use isel_dbsim::measure::LiveWhatIf;
use isel_dbsim::{Database, MeasureConfig};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xE2E;

fn tiny_workload() -> Workload {
    synthetic::generate(&SyntheticConfig {
        tables: 1,
        attrs_per_table: 20,
        queries_per_table: 25,
        rows_base: 5_000,
        max_query_width: 5,
        update_fraction: 0.0,
        seed: 4,
    })
}

/// The table of measured costs: the ledger over a live oracle.
fn ledger(w: &Workload) -> CachingWhatIf<LiveWhatIf> {
    CachingWhatIf::new(LiveWhatIf::new(
        Database::populate(w.schema(), SEED),
        w.clone(),
        MeasureConfig::default(),
    ))
}

/// Execute the workload with exactly `sel` and report total work units.
fn executed_cost(workload: &Workload, sel: &isel_core::Selection) -> f64 {
    let mut db = Database::populate(workload.schema(), SEED);
    for k in sel.indexes() {
        db.create_index(k);
    }
    let mut rng = StdRng::seed_from_u64(1);
    workload
        .iter()
        .map(|(_, q)| {
            let bq = db.bind_from_row(q, &mut rng);
            q.frequency() as f64 * db.execute(&bq).work.cost_units()
        })
        .sum()
}

#[test]
fn measured_costs_drive_useful_selections() {
    let w = tiny_workload();
    let pool = candidates::enumerate_imax(&w, 3).indexes();
    let est = ledger(&w);
    let a = budget::relative_budget(&est, 0.4);

    let ids: Vec<_> = pool.iter().map(|k| est.pool().intern(k)).collect();
    let sel = heuristics::h5(&ids, &est, a, Parallelism::serial(), Trace::disabled());
    assert!(!sel.is_empty());
    let base = executed_cost(&w, &isel_core::Selection::empty());
    let with = executed_cost(&w, &sel);
    assert!(
        with < base,
        "measured-cost selection must speed up execution: {with} vs {base}"
    );
}

#[test]
fn h6_on_live_measurements_speeds_up_execution() {
    let w = tiny_workload();
    let live = ledger(&w);
    let a = budget::relative_budget(&live, 0.4);
    let run = algorithm1::run(&live, &algorithm1::Options::new(a));
    assert!(!run.selection.is_empty());
    let base = executed_cost(&w, &isel_core::Selection::empty());
    let with = executed_cost(&w, &run.selection);
    assert!(with < base, "H6-on-measurements must pay off: {with} vs {base}");
    // The oracle should have built clearly fewer indexes than the
    // exhaustive candidate pool would require.
    let pool_size = candidates::enumerate_imax(&w, 3).len();
    assert!(
        live.inner().indexes_built() < pool_size,
        "live probing ({}) should stay below |I_max| ({pool_size})",
        live.inner().indexes_built()
    );
}

#[test]
fn measured_and_analytical_rankings_agree_on_direction() {
    // Section IV-B's point: the approach does not depend on the exemplary
    // cost model. The executed cost of H6's selection must improve over
    // the executed cost of a clearly worse (rule-based) selection chosen
    // with the same measured estimator.
    let w = tiny_workload();
    let pool = candidates::enumerate_imax(&w, 3).indexes();
    let est = ledger(&w);
    let a = budget::relative_budget(&est, 0.3);

    let ids: Vec<_> = pool.iter().map(|k| est.pool().intern(k)).collect();
    let h2 = heuristics::h2(&ids, &est, a, Trace::disabled());
    let h5 = heuristics::h5(&ids, &est, a, Parallelism::serial(), Trace::disabled());
    let c2 = executed_cost(&w, &h2);
    let c5 = executed_cost(&w, &h5);
    assert!(
        c5 <= c2 * 1.10,
        "benefit-driven H5 ({c5}) should not lose badly to rule-based H2 ({c2})"
    );
}

#[test]
fn index_memory_measurements_track_the_analytic_formula() {
    let w = tiny_workload();
    let pool = candidates::enumerate_imax(&w, 2).indexes();
    let table = ledger(&w);
    for k in pool.iter().take(20) {
        let measured = table.index_memory_of(k);
        let analytic = isel_costmodel::model::index_memory(w.schema(), k);
        // Same order of magnitude: the engine stores 4-byte row ids and
        // materialized keys, the formula packs row ids to ⌈log2 n⌉ bits.
        let ratio = measured as f64 / analytic as f64;
        assert!(
            (0.5..=4.0).contains(&ratio),
            "memory mismatch for {k}: measured {measured}, analytic {analytic}"
        );
    }
}

#[test]
fn executed_costs_are_deterministic_for_work_units() {
    let w = tiny_workload();
    let sel = isel_core::Selection::from_indexes(vec![isel_workload::Index::single(
        isel_workload::AttrId(0),
    )]);
    assert_eq!(executed_cost(&w, &sel), executed_cost(&w, &sel));
}
