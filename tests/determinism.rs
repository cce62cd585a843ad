//! Determinism contract of the parallel candidate-evaluation engine.
//!
//! Algorithm 1's argmax fans candidate costing across worker threads, but
//! the winner is chosen by a serial fold over the canonical move order, so
//! a run must be bit-for-bit identical at every thread count. These tests
//! pin that contract: the *step sequence* (not just the final selection)
//! and the traced performance/memory frontier must match the serial run
//! exactly — `==` on floats, no epsilon.

use isel_core::{algorithm1, budget, Parallelism};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_workload::{tpcc, AttrId, Query, SchemaBuilder, TableId, Workload};
use proptest::prelude::*;

/// Random single-table workload: a handful of attributes of random
/// cardinality/width and a few random queries (mirrors
/// `properties.rs::arb_workload`, plus an update share).
fn arb_workload() -> impl Strategy<Value = Workload> {
    (2usize..9, 1u64..6)
        .prop_flat_map(|(n_attrs, rows_k)| {
            let rows = rows_k * 10_000;
            let attrs = prop::collection::vec(
                (1u64..=100_000, prop::sample::select(vec![1u32, 2, 4, 8])),
                n_attrs..=n_attrs,
            );
            let queries = prop::collection::vec(
                (
                    prop::collection::btree_set(0..n_attrs as u32, 1..=n_attrs.min(5)),
                    1u64..1_000,
                    0u32..5, // 0 => update template (20%)
                ),
                1..14,
            );
            (Just(rows), attrs, queries)
        })
        .prop_map(|(rows, attrs, queries)| {
            let mut b = SchemaBuilder::new();
            let t = b.table("t", rows);
            for (i, (d, a)) in attrs.iter().enumerate() {
                b.attribute(t, &format!("a{i}"), (*d).min(rows).max(1), *a);
            }
            let schema = b.finish();
            let qs = queries
                .into_iter()
                .map(|(set, freq, upd)| {
                    let attrs: Vec<AttrId> = set.into_iter().map(AttrId).collect();
                    if upd == 0 {
                        Query::update(TableId(0), attrs, freq)
                    } else {
                        Query::new(TableId(0), attrs, freq)
                    }
                })
                .collect();
            Workload::new(schema, qs)
        })
}

/// Serial and parallel runs on the same workload/budget must agree on
/// every observable: steps, frontier, selection, and costs.
fn assert_runs_identical(w: &Workload, share: f64) {
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(w));
    let a = budget::relative_budget(&est, share);
    let serial = algorithm1::run(&est, &algorithm1::Options::new(a));
    for threads in [2usize, 4, 8] {
        let opts = algorithm1::Options {
            parallelism: Parallelism::new(threads),
            ..algorithm1::Options::new(a)
        };
        let par = algorithm1::run(&est, &opts);
        assert_eq!(serial.steps, par.steps, "step log diverged at {threads} threads");
        assert_eq!(
            serial.frontier, par.frontier,
            "frontier diverged at {threads} threads"
        );
        assert_eq!(serial.selection, par.selection);
        assert_eq!(serial.initial_cost, par.initial_cost);
        assert_eq!(serial.final_cost, par.final_cost);
    }
}

/// Id keying is content-addressed: pre-seeding the pool in a scrambled
/// order (so every id differs from the cold-start run) must not change a
/// single observable, and every step's ledger cost must bit-match the
/// content-keyed boundary evaluation of the resolved index set.
fn assert_id_keying_is_content_addressed(w: &Workload, share: f64) {
    let cold = CachingWhatIf::new(AnalyticalWhatIf::new(w));
    let a = budget::relative_budget(&cold, share);
    let baseline = algorithm1::run(&cold, &algorithm1::Options::new(a));

    // Shift every id the run will touch: intern all attributes (and their
    // reversed pairs) in reverse order before the engine sees the pool.
    let shifted = CachingWhatIf::new(AnalyticalWhatIf::new(w));
    let n = w.schema().attr_count() as u32;
    for i in (0..n).rev() {
        let root = shifted.pool().intern_single(AttrId(i));
        if i > 0 {
            shifted.pool().intern_child(root, AttrId(i - 1));
        }
    }
    let rerun = algorithm1::run(&shifted, &algorithm1::Options::new(a));
    assert_eq!(baseline.steps, rerun.steps, "id numbering leaked into the step log");
    assert_eq!(baseline.frontier, rerun.frontier, "id numbering leaked into the frontier");
    assert_eq!(baseline.selection, rerun.selection);
    assert_eq!(baseline.final_cost, rerun.final_cost);

    // Entering through the content-keyed boundary (`&[Index]`, interned on
    // the way in) and asking by id directly are the same computation —
    // bit-identical, on either estimator's pool.
    let resolved = baseline.selection.indexes().to_vec();
    let by_content = cold.workload_cost_of(&resolved);
    let by_id = cold.workload_cost(&baseline.selection.ids(&cold));
    assert_eq!(by_content, by_id);
    assert_eq!(by_content, baseline.selection.cost(&cold));
    assert_eq!(by_content, shifted.workload_cost_of(&resolved));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// ≥100 random workloads: the parallel engine replays the serial step
    /// sequence and frontier exactly at 2, 4 and 8 threads.
    #[test]
    fn parallel_runs_replay_the_serial_schedule(
        w in arb_workload(),
        share in 0.05f64..0.8,
    ) {
        assert_runs_identical(&w, share);
    }

    /// Same corpus: frontiers and step logs are invariant under id
    /// renumbering, and the id-keyed ledger equals the content-keyed
    /// boundary evaluation — `==` on floats, no epsilon.
    #[test]
    fn id_keyed_runs_match_content_keyed_costing(
        w in arb_workload(),
        share in 0.05f64..0.8,
    ) {
        assert_id_keying_is_content_addressed(&w, share);
    }
}

/// Fixed-seed TPC-C regression: the frontier traced on the deterministic
/// TPC-C workload is reproducible run-to-run and thread-count-invariant,
/// and its shape is sane (monotone cost decrease over increasing memory).
#[test]
fn tpcc_frontier_is_reproducible_across_thread_counts() {
    let (w, _) = tpcc::generate(10);
    assert_runs_identical(&w, 0.4);

    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let a = budget::relative_budget(&est, 0.4);
    let run = algorithm1::run(&est, &algorithm1::Options::new(a));
    assert!(!run.steps.is_empty(), "TPC-C at 40% budget must build indexes");
    let points = run.frontier.points();
    assert!(!points.is_empty());
    for pair in points.windows(2) {
        assert!(pair[0].memory < pair[1].memory);
        assert!(pair[0].cost > pair[1].cost);
    }
    // Same config twice — identical object, not merely similar.
    let again = algorithm1::run(&est, &algorithm1::Options::new(a));
    assert_eq!(run.steps, again.steps);
    assert_eq!(run.frontier, again.frontier);
}

/// Zero out wall-clock fields so event streams from different runs can be
/// compared structurally: timings vary run-to-run, everything else is
/// part of the determinism contract.
fn scrub_timings(events: Vec<isel_core::TraceEvent>) -> Vec<isel_core::TraceEvent> {
    use isel_core::TraceEvent;
    events
        .into_iter()
        .map(|e| match e {
            TraceEvent::CandidateScan { step, candidates, queries_recosted, issued, cached, .. } => {
                TraceEvent::CandidateScan {
                    step,
                    candidates,
                    queries_recosted,
                    issued,
                    cached,
                    micros: 0,
                }
            }
            TraceEvent::SolverPhase { phase, detail, .. } => {
                TraceEvent::SolverPhase { phase, detail, micros: 0 }
            }
            TraceEvent::RunEnd {
                strategy, steps, issued, cached, initial_cost, final_cost, shard, ..
            } => TraceEvent::RunEnd {
                strategy,
                steps,
                issued,
                cached,
                initial_cost,
                final_cost,
                micros: 0,
                shard,
            },
            other => other,
        })
        .collect()
}

/// Tracing only observes: a traced run is bit-identical to the untraced
/// one at every thread count, the event stream itself (timings aside) is
/// thread-count-invariant, and the stream satisfies the accounting and
/// what-if call-bound invariants.
#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    use isel_core::{RunReport, Trace, VecSink};
    let (w, _) = tpcc::generate(5);
    let baseline = {
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let a = budget::relative_budget(&est, 0.3);
        algorithm1::run(&est, &algorithm1::Options::new(a))
    };
    let mut streams = Vec::new();
    for threads in [1usize, 4] {
        // Fresh estimator per run so cache state — and therefore the
        // issued/cached counters in the events — is identical.
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let a = budget::relative_budget(&est, 0.3);
        let sink = VecSink::new();
        let opts = algorithm1::Options {
            parallelism: Parallelism::new(threads),
            ..algorithm1::Options::new(a)
        };
        let traced = algorithm1::run_traced(&est, &opts, Trace::to(&sink));
        assert_eq!(baseline.steps, traced.steps, "tracing changed the step log");
        assert_eq!(baseline.frontier, traced.frontier);
        assert_eq!(baseline.selection, traced.selection);
        assert_eq!(baseline.initial_cost, traced.initial_cost);
        assert_eq!(baseline.final_cost, traced.final_cost);
        let events = sink.take();
        let report = RunReport::from_events(&events);
        report.check_accounting().expect("scan sums equal run totals");
        report.check_call_bound().expect("what-if call bound holds");
        streams.push(scrub_timings(events));
    }
    assert_eq!(
        streams[0], streams[1],
        "event stream diverged across thread counts"
    );
}

/// The [`Advisor`] facade honours the same contract: attaching a trace
/// sink changes no observable of the recommendation, for every traced
/// strategy, at 1 and 4 threads.
#[test]
fn traced_advisor_recommendations_match_untraced() {
    use isel_core::{Advisor, Strategy, Trace, VecSink};
    let (w, _) = tpcc::generate(5);
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    for strategy in [
        Strategy::H1,
        Strategy::H2,
        Strategy::H3,
        Strategy::H4 { skyline: false },
        Strategy::H4 { skyline: true },
        Strategy::H5,
        Strategy::H6,
        Strategy::Db2 { swap_rounds: 50 },
        // Reaches the 5 % gap in well under a second; the limit only
        // bounds a regression.
        Strategy::CoPhy { mip_gap: 0.05, time_limit_secs: 10 },
    ] {
        for threads in [1usize, 4] {
            let par = Parallelism::new(threads);
            let plain = Advisor::new(&est)
                .with_parallelism(par)
                .recommend_relative(strategy.clone(), 0.3);
            let sink = VecSink::new();
            let traced = Advisor::new(&est)
                .with_parallelism(par)
                .with_trace(Trace::to(&sink))
                .recommend_relative(strategy.clone(), 0.3);
            assert_eq!(plain.selection, traced.selection, "{strategy:?}");
            assert_eq!(plain.cost, traced.cost);
            assert_eq!(plain.memory, traced.memory);
            assert!(!sink.take().is_empty(), "{strategy:?} emitted no events");
        }
    }
}

/// The advisor surface honours the same contract for the candidate-set
/// strategies whose scans were parallelised (H4/H5/CoPhy build stage).
#[test]
fn tpcc_heuristic_scans_are_thread_count_invariant() {
    use isel_core::{Advisor, Strategy};
    let (w, _) = tpcc::generate(5);
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    for strategy in [
        Strategy::H4 { skyline: true },
        Strategy::H5,
        Strategy::H6,
    ] {
        let serial = Advisor::new(&est).recommend_relative(strategy.clone(), 0.3);
        let par = Advisor::new(&est)
            .with_parallelism(Parallelism::new(4))
            .recommend_relative(strategy, 0.3);
        assert_eq!(serial.selection, par.selection, "{:?}", serial.strategy);
        assert_eq!(serial.cost, par.cost);
        assert_eq!(serial.memory, par.memory);
    }
}
