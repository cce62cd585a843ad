//! High-level advisor facade: Definition 1's strategies behind one call.
//!
//! Downstream users mostly want "give me a selection for this budget with
//! strategy X". [`Advisor`] wires the candidate generators, the baseline
//! heuristics, CoPhy and Algorithm 1 together and reports a uniform
//! [`Recommendation`].
//!
//! Candidates are interned into the oracle's [index pool] once, by the
//! first strategy that reads them (H6 builds its own and never does);
//! every strategy below works on the resulting [`IndexId`]s and only
//! resolves back to attribute lists inside the returned [`Selection`].
//!
//! [index pool]: isel_workload::IndexPool

use crate::parallel::Parallelism;
use crate::selection::Selection;
use crate::trace::Trace;
use crate::{algorithm1, budget, candidates, cophy, db2, heuristics};
use isel_costmodel::{CacheStats, WhatIfOptimizer, WhatIfStats};
use isel_solver::cophy::CophyOptions;
use isel_workload::IndexId;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A selection strategy of Definition 1.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Strategy {
    /// H1 — most used attribute combinations.
    H1,
    /// H2 — smallest combined selectivity.
    H2,
    /// H3 — selectivity/occurrences ratio.
    H3,
    /// H4 — best individual performance; optionally skyline-filtered.
    H4 {
        /// Apply the skyline (per-query Pareto) filter first.
        skyline: bool,
    },
    /// H5 — best performance-per-size ratio.
    H5,
    /// H6 — Algorithm 1 (the paper's contribution).
    H6,
    /// The full DB2-advisor concept \[9\]: H5 start plus randomized swaps.
    Db2 {
        /// Number of random swap proposals.
        swap_rounds: usize,
    },
    /// CoPhy's LP approach with the given mip gap and time limit.
    CoPhy {
        /// Relative optimality gap (paper: 0.05).
        mip_gap: f64,
        /// Solver wall-clock limit in seconds.
        time_limit_secs: u64,
    },
}

/// What the advisor returns.
#[derive(Clone, Debug)]
pub struct Recommendation {
    /// Strategy that produced the selection.
    pub strategy: Strategy,
    /// The selected indexes.
    pub selection: Selection,
    /// Memory used by the selection.
    pub memory: u64,
    /// Budget it was computed for.
    pub budget: u64,
    /// Workload cost under the selection.
    pub cost: f64,
    /// Workload cost without any index, for reference.
    pub base_cost: f64,
    /// Wall time of the strategy (excluding candidate enumeration).
    pub elapsed: Duration,
    /// What-if calls issued during the run.
    pub what_if_calls: u64,
    /// Full what-if accounting for the run (issued + cache-answered),
    /// as a delta over the strategy's execution.
    pub what_if: WhatIfStats,
    /// Memo-table counters of the oracle's cache after the run, when the
    /// oracle keeps one (`None` for uncached oracles).
    pub cache: Option<CacheStats>,
}

impl Recommendation {
    /// Cost relative to the unindexed workload (1.0 = no improvement).
    pub fn relative_cost(&self) -> f64 {
        if self.base_cost == 0.0 {
            1.0
        } else {
            self.cost / self.base_cost
        }
    }

    /// Share of this run's what-if requests answered from a cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.what_if.total_requests();
        if total == 0 {
            0.0
        } else {
            self.what_if.calls_answered_from_cache as f64 / total as f64
        }
    }
}

/// High-level advisor over a what-if oracle.
pub struct Advisor<'a, W> {
    est: &'a W,
    /// `I_max`, enumerated on first use.
    candidates: OnceLock<Vec<IndexId>>,
    parallelism: Parallelism,
    trace: Trace<'a>,
}

impl<'a, W: WhatIfOptimizer> Advisor<'a, W> {
    /// Advisor with the exhaustive candidate pool `I_max` (width ≤ 4) for
    /// the candidate-set strategies, enumerated when the first of them
    /// runs; H6 ignores the pool by design and never builds it.
    pub fn new(est: &'a W) -> Self {
        Self {
            candidates: OnceLock::new(),
            est,
            parallelism: Parallelism::serial(),
            trace: Trace::disabled(),
        }
    }

    /// Evaluate candidates on `threads` worker threads. Recommendations
    /// are identical at every setting; only the wall-clock changes.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Stream structured run events into `trace` during [`recommend`].
    /// Recommendations are bit-identical with and without a sink; tracing
    /// only observes.
    ///
    /// [`recommend`]: Advisor::recommend
    pub fn with_trace(mut self, trace: Trace<'a>) -> Self {
        self.trace = trace;
        self
    }

    /// Recommend a selection for a relative budget share `w` (Eq. 10).
    pub fn recommend_relative(&self, strategy: Strategy, w: f64) -> Recommendation {
        self.recommend(strategy, budget::relative_budget(self.est, w))
    }

    /// `I_max` interned into the oracle's pool, enumerated on first call.
    fn candidates(&self) -> &[IndexId] {
        self.candidates.get_or_init(|| {
            candidates::enumerate_imax(self.est.workload(), 4).ids(self.est.pool())
        })
    }

    /// Recommend a selection for an absolute byte budget.
    pub fn recommend(&self, strategy: Strategy, budget: u64) -> Recommendation {
        // Enumerate before the clock starts: `elapsed` excludes it.
        let cands = if strategy == Strategy::H6 { &[] } else { self.candidates() };
        let stats_before = self.est.stats();
        let start = Instant::now();
        let (est, par, trace) = (self.est, self.parallelism, self.trace);
        let selection = match &strategy {
            Strategy::H1 => heuristics::h1(cands, est, budget, trace),
            Strategy::H2 => heuristics::h2(cands, est, budget, trace),
            Strategy::H3 => heuristics::h3(cands, est, budget, trace),
            Strategy::H4 { skyline } => heuristics::h4(cands, est, budget, *skyline, par, trace),
            Strategy::H5 => heuristics::h5(cands, est, budget, par, trace),
            Strategy::H6 => {
                let options =
                    algorithm1::Options { parallelism: par, ..algorithm1::Options::new(budget) };
                algorithm1::run_traced(est, &options, trace).selection
            }
            Strategy::Db2 { swap_rounds } => {
                let options = db2::Db2Options { budget, swap_rounds: *swap_rounds, seed: 0xDB2 };
                db2::run(cands, est, &options, trace).selection
            }
            Strategy::CoPhy { mip_gap, time_limit_secs } => {
                let options = CophyOptions {
                    mip_gap: *mip_gap,
                    time_limit: Duration::from_secs(*time_limit_secs),
                    max_nodes: usize::MAX,
                };
                cophy::solve(est, cands, budget, &options, par, trace).selection
            }
        };
        let elapsed = start.elapsed();
        let stats_after = self.est.stats();
        let what_if = WhatIfStats {
            calls_issued: stats_after.calls_issued - stats_before.calls_issued,
            calls_answered_from_cache: stats_after.calls_answered_from_cache
                - stats_before.calls_answered_from_cache,
        };
        Recommendation {
            memory: selection.memory(self.est),
            cost: selection.cost(self.est),
            base_cost: self.est.workload_cost(&[]),
            what_if_calls: what_if.calls_issued,
            what_if,
            cache: self.est.cache_stats(),
            strategy,
            selection,
            budget,
            elapsed,
        }
    }

    /// Compare all strategies at one budget, sorted best-first.
    pub fn compare(&self, budget: u64) -> Vec<Recommendation> {
        let mut recs: Vec<Recommendation> = [
            Strategy::H1,
            Strategy::H2,
            Strategy::H3,
            Strategy::H4 { skyline: false },
            Strategy::H4 { skyline: true },
            Strategy::H5,
            Strategy::H6,
            Strategy::Db2 { swap_rounds: 100 },
            Strategy::CoPhy { mip_gap: 0.05, time_limit_secs: 30 },
        ]
        .into_iter()
        .map(|s| self.recommend(s, budget))
        .collect();
        recs.sort_by(|a, b| isel_workload::ord::total_cmp_nan_lowest(a.cost, b.cost));
        recs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf};
    use isel_workload::synthetic::{self, SyntheticConfig};

    fn workload() -> isel_workload::Workload {
        synthetic::generate(&SyntheticConfig {
            tables: 1,
            attrs_per_table: 12,
            queries_per_table: 15,
            rows_base: 200_000,
            max_query_width: 4,
            update_fraction: 0.0,
            seed: 31,
        })
    }

    #[test]
    fn recommendations_fit_budget_and_report_consistent_numbers() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let advisor = Advisor::new(&est);
        let rec = advisor.recommend_relative(Strategy::H6, 0.3);
        assert!(rec.memory <= rec.budget);
        assert!(rec.cost <= rec.base_cost);
        assert_eq!(rec.memory, rec.selection.memory(&est));
        assert!(rec.relative_cost() <= 1.0);
    }

    #[test]
    fn compare_ranks_h6_at_or_near_the_top() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let advisor = Advisor::new(&est);
        let a = budget::relative_budget(&est, 0.3);
        let recs = advisor.compare(a);
        assert_eq!(recs.len(), 9);
        let h6_rank = recs
            .iter()
            .position(|r| r.strategy == Strategy::H6)
            .expect("H6 present");
        assert!(h6_rank <= 2, "H6 ranked {h6_rank}: {:?}", recs[0].strategy);
        // Best-first ordering holds.
        for pair in recs.windows(2) {
            assert!(pair[0].cost <= pair[1].cost);
        }
    }

    #[test]
    fn parallel_advisor_matches_serial() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let a = budget::relative_budget(&est, 0.3);
        for strategy in [Strategy::H4 { skyline: true }, Strategy::H5, Strategy::H6] {
            let serial = Advisor::new(&est).recommend(strategy.clone(), a);
            let par = Advisor::new(&est)
                .with_parallelism(Parallelism::new(4))
                .recommend(strategy, a);
            assert_eq!(serial.selection, par.selection, "{:?}", serial.strategy);
            assert_eq!(serial.cost, par.cost);
        }
    }

    #[test]
    fn zero_budget_recommendation_is_empty_for_every_strategy() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let advisor = Advisor::new(&est);
        for rec in advisor.compare(0) {
            assert!(rec.selection.is_empty(), "{:?}", rec.strategy);
            assert_eq!(rec.cost, rec.base_cost);
        }
    }

    #[test]
    fn stats_delta_accounts_every_request_and_cache_is_surfaced() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let advisor = Advisor::new(&est);
        let a = budget::relative_budget(&est, 0.3);
        let rec = advisor.recommend(Strategy::H5, a);
        assert_eq!(rec.what_if_calls, rec.what_if.calls_issued);
        assert!(rec.what_if.total_requests() > 0);
        let cache = rec.cache.expect("caching oracle exposes stats");
        assert_eq!(cache.hits + cache.misses, cache.lookups());
        assert!((0.0..=1.0).contains(&rec.cache_hit_rate()));
        // A second identical run is answered from the memo tables.
        let rerun = advisor.recommend(Strategy::H5, a);
        assert_eq!(rerun.what_if.calls_issued, 0);
        assert!(rerun.cache_hit_rate() >= 0.999);
    }

    #[test]
    fn h6_never_enumerates_the_candidate_pool() {
        let w = workload();
        let bare = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let a = budget::relative_budget(&bare, 0.3);
        algorithm1::run(&bare, &algorithm1::Options::new(a));
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let advisor = Advisor::new(&est);
        advisor.recommend(Strategy::H6, a);
        assert_eq!(est.pool().len(), bare.pool().len(), "H6 interned more than Algorithm 1");
        // A candidate-set strategy then enumerates `I_max` into the pool.
        advisor.recommend(Strategy::H5, a);
        assert!(est.pool().len() > bare.pool().len());
    }

    /// How long [`SlowFirstLook`]'s first `workload()` call takes.
    const PAUSE: Duration = Duration::from_millis(300);

    /// An oracle whose first `workload()` call — the one that starts the
    /// `I_max` enumeration — takes [`PAUSE`].
    struct SlowFirstLook<W> {
        inner: W,
        looked: std::sync::atomic::AtomicBool,
    }

    impl<W: WhatIfOptimizer> WhatIfOptimizer for SlowFirstLook<W> {
        fn workload(&self) -> &isel_workload::Workload {
            if !self.looked.swap(true, std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(PAUSE);
            }
            self.inner.workload()
        }

        fn pool(&self) -> &isel_workload::IndexPool {
            self.inner.pool()
        }

        fn unindexed_cost(&self, query: isel_workload::QueryId) -> f64 {
            self.inner.unindexed_cost(query)
        }

        fn index_cost(&self, query: isel_workload::QueryId, index: IndexId) -> Option<f64> {
            self.inner.index_cost(query, index)
        }

        fn index_memory(&self, index: IndexId) -> u64 {
            self.inner.index_memory(index)
        }
    }

    #[test]
    fn elapsed_excludes_the_candidate_enumeration() {
        let w = workload();
        let a = budget::relative_budget(&AnalyticalWhatIf::new(&w), 0.3);
        let est = SlowFirstLook {
            inner: CachingWhatIf::new(AnalyticalWhatIf::new(&w)),
            looked: Default::default(),
        };
        let advisor = Advisor::new(&est);
        let t0 = Instant::now();
        let rec = advisor.recommend(Strategy::H5, a);
        assert!(t0.elapsed() >= PAUSE, "the enumeration ran in the call");
        assert!(rec.elapsed < PAUSE, "elapsed {:?} counts it", rec.elapsed);
    }

    #[test]
    fn uncached_oracle_reports_no_cache_stats() {
        let w = workload();
        let est = AnalyticalWhatIf::new(&w);
        let advisor = Advisor::new(&est);
        let rec = advisor.recommend(Strategy::H1, budget::relative_budget(&est, 0.2));
        assert!(rec.cache.is_none());
    }
}
