//! The DB2-advisor concept of Valentin et al. \[9\], complete with its
//! randomized improvement phase.
//!
//! Definition 1's **H5** is only the *starting solution* of \[9\]: greedy by
//! individually-measured benefit per size. The full advisor then "randomly
//! shuffles" the configuration — swapping selected against unselected
//! candidates — keeping variants that improve the workload cost. The paper
//! argues this attacks index interaction *untargetedly*: the shuffle can
//! stumble on better configurations but needs many expensive evaluations
//! to do so, which is exactly what the comparison experiments show.

use crate::heuristics;
use crate::parallel::Parallelism;
use crate::selection::Selection;
use crate::trace::{Trace, TraceEvent};
use isel_costmodel::WhatIfOptimizer;
use isel_workload::IndexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// Options of the randomized phase.
#[derive(Clone, Copy, Debug)]
pub struct Db2Options {
    /// Memory budget `A`.
    pub budget: u64,
    /// Number of random swap proposals to evaluate.
    pub swap_rounds: usize,
    /// RNG seed (the shuffle is the only random part).
    pub seed: u64,
}

/// Result of a run: the final selection plus search statistics.
#[derive(Clone, Debug)]
pub struct Db2Result {
    /// Final selection.
    pub selection: Selection,
    /// Cost of the H5 starting solution.
    pub start_cost: f64,
    /// Cost after shuffling.
    pub final_cost: f64,
    /// Swap proposals that improved the configuration.
    pub accepted_swaps: usize,
}

/// Run the \[9\]-style advisor: H5 start, then randomized swaps. The shuffle
/// works entirely on interned ids; only the returned [`Selection`] holds
/// resolved indexes.
///
/// An enabled `trace` receives a full envelope: `RunStart`, one
/// [`TraceEvent::SolverPhase`] per phase (`db2_h5_start`, detail =
/// indexes in the starting solution; `db2_swap_rounds`, detail = accepted
/// swap proposals), one covering `CandidateScan`, and `RunEnd` — so a
/// DB2 run in a `compare` trace is attributable and passes the
/// accounting check like every other strategy.
pub fn run(
    candidates: &[IndexId],
    est: &impl WhatIfOptimizer,
    options: &Db2Options,
    trace: Trace<'_>,
) -> Db2Result {
    let env = crate::heuristics::RunEnvelope::open(trace, "DB2", est, options.budget);
    let h5_start = Instant::now();
    let serial = Parallelism::serial();
    let start = heuristics::h5(candidates, est, options.budget, serial, Trace::disabled());
    trace.emit(|| TraceEvent::SolverPhase {
        phase: "db2_h5_start".into(),
        detail: start.len() as u64,
        micros: h5_start.elapsed().as_micros() as u64,
    });
    let swap_start = Instant::now();
    let start_cost = start.cost(est);
    let mut selection: Vec<IndexId> = start.ids(est);
    let mut cost = start_cost;
    let mut used: u64 = start.memory(est);
    let mut accepted = 0usize;
    let mut rng = StdRng::seed_from_u64(options.seed);

    // Unselected pool (candidates not in the start solution).
    let taken: HashSet<IndexId> = selection.iter().copied().collect();
    let pool: Vec<IndexId> = candidates
        .iter()
        .copied()
        .filter(|k| !taken.contains(k))
        .collect();

    for _ in 0..options.swap_rounds {
        if selection.is_empty() || pool.is_empty() {
            break;
        }
        // Propose: drop one random selected index, then try to add random
        // unselected candidates while the budget allows.
        let victim = selection[rng.gen_range(0..selection.len())];
        let mut trial: Vec<IndexId> = selection.iter().copied().filter(|&k| k != victim).collect();
        let mut trial_mem = used - est.index_memory(victim);
        // A few random insertion attempts (with replacement) — the
        // untargeted part.
        for _ in 0..4 {
            let cand = pool[rng.gen_range(0..pool.len())];
            if trial.contains(&cand) {
                continue;
            }
            let p = est.index_memory(cand);
            if trial_mem + p <= options.budget {
                trial.push(cand);
                trial_mem += p;
            }
        }
        let trial_cost = est.workload_cost(&trial);
        if trial_cost < cost - 1e-12 {
            selection = trial;
            cost = trial_cost;
            used = trial_mem;
            accepted += 1;
        }
    }

    trace.emit(|| TraceEvent::SolverPhase {
        phase: "db2_swap_rounds".into(),
        detail: accepted as u64,
        micros: swap_start.elapsed().as_micros() as u64,
    });
    let pool_ref = est.pool();
    let selection: Selection = selection.iter().map(|&k| pool_ref.resolve(k)).collect();
    if let Some(env) = env {
        let initial = est.workload_cost(&[]);
        env.finish(est, accepted as u64, candidates.len() as u64, initial, cost);
    }
    Db2Result { selection, start_cost, final_cost: cost, accepted_swaps: accepted }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algorithm1, budget, candidates};
    use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf};
    use isel_workload::synthetic::{self, SyntheticConfig};

    fn workload() -> isel_workload::Workload {
        synthetic::generate(&SyntheticConfig {
            tables: 1,
            attrs_per_table: 15,
            queries_per_table: 20,
            rows_base: 300_000,
            max_query_width: 5,
            update_fraction: 0.0,
            seed: 7,
        })
    }

    #[test]
    fn shuffling_never_hurts_and_respects_the_budget() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let pool = candidates::enumerate_imax(&w, 4).ids(est.pool());
        let a = budget::relative_budget(&est, 0.3);
        let r = run(
            &pool,
            &est,
            &Db2Options { budget: a, swap_rounds: 200, seed: 1 },
            Trace::disabled(),
        );
        assert!(r.final_cost <= r.start_cost + 1e-9);
        assert!(r.selection.memory(&est) <= a);
        assert!((r.selection.cost(&est) - r.final_cost).abs() < 1e-6 * r.start_cost);
    }

    #[test]
    fn more_rounds_cannot_be_worse() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let pool = candidates::enumerate_imax(&w, 4).ids(est.pool());
        let a = budget::relative_budget(&est, 0.3);
        let short = run(
            &pool,
            &est,
            &Db2Options { budget: a, swap_rounds: 20, seed: 5 },
            Trace::disabled(),
        );
        let long = run(
            &pool,
            &est,
            &Db2Options { budget: a, swap_rounds: 400, seed: 5 },
            Trace::disabled(),
        );
        assert!(long.final_cost <= short.final_cost + 1e-9);
    }

    #[test]
    fn h6_matches_or_beats_the_shuffled_advisor() {
        // The paper's claim: targeted recursion ≥ untargeted shuffling.
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let pool = candidates::enumerate_imax(&w, 4).ids(est.pool());
        let a = budget::relative_budget(&est, 0.3);
        let db2 = run(
            &pool,
            &est,
            &Db2Options { budget: a, swap_rounds: 300, seed: 9 },
            Trace::disabled(),
        );
        let h6 = algorithm1::run(&est, &algorithm1::Options::new(a));
        assert!(
            h6.final_cost <= db2.final_cost * 1.02,
            "H6 {} vs DB2 {}",
            h6.final_cost,
            db2.final_cost
        );
    }

    #[test]
    fn zero_rounds_is_exactly_h5() {
        let w = workload();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let pool = candidates::enumerate_imax(&w, 4).ids(est.pool());
        let a = budget::relative_budget(&est, 0.3);
        let r = run(
            &pool,
            &est,
            &Db2Options { budget: a, swap_rounds: 0, seed: 1 },
            Trace::disabled(),
        );
        let h5 = heuristics::h5(&pool, &est, a, Parallelism::serial(), Trace::disabled());
        assert_eq!(r.selection, h5);
        assert_eq!(r.accepted_swaps, 0);
    }
}
