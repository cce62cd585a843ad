//! **Figure 5** — end-to-end evaluation: selection strategies compared on
//! *executed* workload costs from the columnar engine, no cost model.
//!
//! Paper setting: N = 100, Q = 100, |I_max| = 2 937 candidates, budgets
//! `w ∈ [0, 1]`; every query is executed under every candidate index and
//! the measured costs feed all strategies; final configurations are
//! evaluated by executing the workload. Strategies: H1,
//! H4 without / with the skyline filter, H5 (all candidates),
//! CoPhy with 10 % of the candidates (H1-M), CoPhy with all candidates
//! (optimal reference), and H6.
//!
//! The commercial DBMS is replaced by `isel-dbsim` with scaled-down row
//! counts (default 20 000, `--rows=N` to change); costs default to
//! deterministic work units (`--wall` switches to wall-clock nanoseconds).
//!
//! Expected shape: H6 within a few percent of CoPhy-all; H1 and H4 far
//! off; H5-all good; CoPhy-10 % clearly below CoPhy-all.

use isel_bench::{accept_args, arg_value, has_flag, header, report_written, ResultSink};
use isel_core::{algorithm1, budget, candidates, cophy, heuristics, Selection};
use isel_costmodel::{CachingWhatIf, WhatIfOptimizer};
use isel_dbsim::{measure_workload, CostMetric, Database, MeasureConfig};
use isel_solver::cophy::CophyOptions;
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Duration;

#[derive(Serialize)]
struct Row {
    series: String,
    w: f64,
    measured_cost: f64,
    relative_cost: f64,
    indexes: usize,
}

/// Ground truth: execute the whole workload with exactly `sel` created.
fn evaluate(db: &mut Database, workload: &Workload, sel: &Selection, seed: u64) -> f64 {
    for k in sel.indexes() {
        db.create_index(k);
    }
    let mask: Vec<bool> = db
        .indexes()
        .iter()
        .map(|idx| sel.indexes().contains(&idx.definition))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    for (_, q) in workload.iter() {
        // Two bindings per template, averaged — identical sampling for
        // every strategy.
        let mut cost = 0.0;
        for _ in 0..2 {
            let bq = db.bind_from_row(q, &mut rng);
            cost += db.execute_with(&bq, &mask).work.cost_units();
        }
        total += q.frequency() as f64 * cost / 2.0;
    }
    total
}

fn main() {
    accept_args(&["--rows=N", "--wall"]);
    let rows: u64 = arg_value("--rows").map(|v| v.parse().expect("numeric rows")).unwrap_or(20_000);
    let metric = if has_flag("--wall") { CostMetric::WallTime } else { CostMetric::WorkUnits };
    let data_seed = 0xF1E5;

    let cfg = SyntheticConfig { rows_base: rows, ..SyntheticConfig::end_to_end(0xE2E) };
    let workload = synthetic::generate(&cfg);
    let pool = candidates::enumerate_imax(&workload, 4);
    println!(
        "(end-to-end workload: N = {}, Q = {}, |I_max| = {}, rows = {rows})",
        workload.schema().attr_count(),
        workload.query_count(),
        pool.len()
    );

    // Phase 1: measure every candidate (the paper's create-and-execute
    // loop) and build the cost table all candidate-set strategies use.
    let mcfg = MeasureConfig { metric, ..MeasureConfig::default() };
    let mut measure_db = Database::populate(workload.schema(), data_seed);
    let all_cands = pool.indexes();
    let (table, t_measure) =
        isel_bench::timed(|| measure_workload(&mut measure_db, &workload, &all_cands, &mcfg));
    drop(measure_db);
    println!("(measurement phase: {:.1}s)", t_measure.as_secs_f64());
    let est = CachingWhatIf::new(table);

    let ws: Vec<f64> = (1..=10).map(|i| i as f64 * 0.1).collect();
    let opts = CophyOptions {
        mip_gap: 0.05,
        time_limit: Duration::from_secs(30),
        max_nodes: usize::MAX,
    };

    // Phase 2: H6 on live measurements (no candidate set).
    let max_budget = budget::relative_budget(&est, 1.0);
    let live = isel_dbsim::measure::LiveWhatIf::new(
        Database::populate(workload.schema(), data_seed),
        workload.clone(),
        mcfg,
    );
    let (h6_run, t_h6) =
        isel_bench::timed(|| algorithm1::run(&live, &algorithm1::Options::new(max_budget)));
    println!(
        "(H6 on live measurements: {:.1}s, {} indexes built on demand)",
        t_h6.as_secs_f64(),
        live.indexes_built()
    );

    // Phase 3: evaluate every strategy's selection per budget by executing
    // the workload.
    let mut eval_db = Database::populate(workload.schema(), data_seed);
    let base = evaluate(&mut eval_db, &workload, &Selection::empty(), 0x5EED);

    let mut sink = ResultSink::new("fig5");
    header(
        "Figure 5: end-to-end measured workload cost vs A(w)",
        &["series", "w", "measured", "relative", "|I*|"],
    );
    let emit = |sink: &mut ResultSink, db: &mut Database, series: &str, w: f64, sel: &Selection| {
        let measured = evaluate(db, &workload, sel, 0x5EED);
        println!("{series}\t{w:.1}\t{measured:.3e}\t{:.4}\t{}", measured / base, sel.len());
        sink.emit(&Row {
            series: series.to_owned(),
            w,
            measured_cost: measured,
            relative_cost: measured / base,
            indexes: sel.len(),
        });
    };

    let ten_pct =
        candidates::select_candidates(&pool, pool.len() / 10, 4, candidates::CandidateRanking::Frequency);
    // One-time boundary crossing into id-keyed heuristics and solving.
    let all_ids = pool.ids(est.pool());
    let ten_pct_ids: Vec<_> = ten_pct.iter().map(|k| est.pool().intern(k)).collect();

    for &w in &ws {
        let a = budget::relative_budget(&est, w);
        let h6_sel = algorithm1::selection_at(&h6_run.steps, a);
        emit(&mut sink, &mut eval_db, "H6", w, &h6_sel);
        emit(&mut sink, &mut eval_db, "H1", w, &heuristics::h1(&all_ids, &est, a));
        emit(&mut sink, &mut eval_db, "H4", w, &heuristics::h4(&all_ids, &est, a, false));
        emit(&mut sink, &mut eval_db, "H4-skyline", w, &heuristics::h4(&all_ids, &est, a, true));
        emit(&mut sink, &mut eval_db, "H5", w, &heuristics::h5(&all_ids, &est, a));
        let run10 = cophy::solve(&est, &ten_pct_ids, a, &opts);
        emit(&mut sink, &mut eval_db, "CoPhy-10pct", w, &run10.selection);
        let run_all = cophy::solve(&est, &all_ids, a, &opts);
        emit(&mut sink, &mut eval_db, "CoPhy-all", w, &run_all.selection);
    }

    report_written(&sink.finish());
}
