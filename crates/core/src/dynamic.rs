//! Adaptive selection over drifting workloads (the paper's Section-VII
//! future-work scenario).
//!
//! Given a sequence of workload epochs over one schema, the adaptive
//! advisor re-runs Algorithm 1 per epoch with the *previous* selection as
//! the reconfiguration baseline `Ī*`: creating a new index pays a
//! size-proportional build cost, dropping one a flat fee. High
//! reconfiguration costs therefore make the advisor keep imperfect-but-
//! paid-for indexes; zero costs make every epoch a from-scratch run.
//!
//! Three policies are provided for comparison:
//!
//! * [`adapt`] — reconfiguration-aware re-selection per epoch,
//! * [`from_scratch`] — re-select ignoring transition costs (the paid
//!   reconfiguration is still *reported*),
//! * [`static_first_epoch`] — select once on epoch 0 and keep it.

use crate::algorithm1::{self, Options};
use crate::reconfig::ReconfigCosts;
use crate::selection::Selection;
use crate::trace::{Trace as RunTrace, TraceEvent};
use isel_costmodel::WhatIfOptimizer;
use serde::{Deserialize, Serialize};

/// Transition-cost parameters of a dynamic scenario.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransitionCosts {
    /// Cost per byte of building a new index.
    pub create_cost_per_byte: f64,
    /// Flat cost per dropped index.
    pub drop_cost: f64,
}

/// Outcome of one epoch.
#[derive(Clone, Debug)]
pub struct EpochResult {
    /// Selection in force during the epoch.
    pub selection: Selection,
    /// Workload cost `F(I*)` of the epoch under that selection.
    pub workload_cost: f64,
    /// Reconfiguration cost paid entering the epoch.
    pub reconfig_paid: f64,
}

/// A full adaptation trace.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Per-epoch outcomes.
    pub epochs: Vec<EpochResult>,
}

impl Trace {
    /// Total cost `Σ_e F_e(I*_e) + R(I*_e, I*_{e-1})`.
    pub fn total_cost(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.workload_cost + e.reconfig_paid)
            .sum()
    }

    /// Total reconfiguration cost paid.
    pub fn total_reconfig(&self) -> f64 {
        self.epochs.iter().map(|e| e.reconfig_paid).sum()
    }
}

fn paid_reconfig(
    est: &impl WhatIfOptimizer,
    prev: &Selection,
    next: &Selection,
    costs: TransitionCosts,
) -> f64 {
    ReconfigCosts {
        current: prev.clone(),
        create_cost_per_byte: costs.create_cost_per_byte,
        drop_cost: costs.drop_cost,
    }
    .cost(next, est)
}

/// Reconfiguration-aware adaptation: each epoch's run sees the previous
/// selection as its `Ī*`, so transitions are only made when they pay for
/// themselves within the epoch.
pub fn adapt(epochs: &[impl WhatIfOptimizer], budget: u64, costs: TransitionCosts) -> Trace {
    run_policy(epochs, budget, costs, true)
}

/// Greedy re-selection per epoch ignoring transition costs (they are still
/// charged in the trace — this is the "churn everything" baseline).
pub fn from_scratch(epochs: &[impl WhatIfOptimizer], budget: u64, costs: TransitionCosts) -> Trace {
    run_policy(epochs, budget, costs, false)
}

fn run_policy(
    epochs: &[impl WhatIfOptimizer],
    budget: u64,
    costs: TransitionCosts,
    reconfig_aware: bool,
) -> Trace {
    let mut prev = Selection::empty();
    let mut out = Vec::with_capacity(epochs.len());
    for est in epochs {
        let mut options = Options::new(budget);
        if reconfig_aware {
            options.reconfig = ReconfigCosts {
                current: prev.clone(),
                create_cost_per_byte: costs.create_cost_per_byte,
                drop_cost: costs.drop_cost,
            };
            // Seeding the construction with the previous selection is part
            // of future work in the paper; here the reconfiguration term
            // steers which *new* steps are worth paying for. Steps whose
            // indexes already exist in `Ī*` are free to re-create.
        }
        let run = algorithm1::run(est, &options);
        // Keep previous indexes that the fresh construction did not
        // contradict: an index in Ī* that still fits the budget and was
        // re-chosen costs nothing; everything else is dropped (and billed).
        let selection = run.selection;
        let reconfig_paid = paid_reconfig(est, &prev, &selection, costs);
        let workload_cost = selection.cost(est);
        out.push(EpochResult { selection: selection.clone(), workload_cost, reconfig_paid });
        prev = selection;
    }
    Trace { epochs: out }
}

/// Select once on the first epoch and keep the configuration.
///
/// An enabled `trace` receives the full Algorithm-1 event stream of the
/// one selection run on epoch 0, and one [`TraceEvent::Epoch`] per epoch
/// with policy `"static"`. Results are the same with and without a sink.
pub fn static_first_epoch(
    epochs: &[impl WhatIfOptimizer],
    budget: u64,
    costs: TransitionCosts,
    trace: RunTrace<'_>,
) -> Trace {
    let mut out = Vec::with_capacity(epochs.len());
    let mut prev = Selection::empty();
    for (e, est) in epochs.iter().enumerate() {
        let selection = if e == 0 {
            algorithm1::run_traced(est, &Options::new(budget), trace).selection
        } else {
            prev.clone()
        };
        let reconfig_paid = paid_reconfig(est, &prev, &selection, costs);
        let workload_cost = selection.cost(est);
        trace.emit(|| TraceEvent::Epoch {
            epoch: e as u64,
            policy: "static".into(),
            indexes: selection.len() as u64,
            workload_cost,
            reconfig_paid,
        });
        out.push(EpochResult { workload_cost, reconfig_paid, selection: selection.clone() });
        prev = selection;
    }
    Trace { epochs: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf};
    use isel_workload::drift::{self, DriftConfig};
    use isel_workload::synthetic::SyntheticConfig;
    use isel_workload::Workload;

    /// Free transitions: every epoch re-optimizes from scratch.
    const FREE: TransitionCosts = TransitionCosts { create_cost_per_byte: 0.0, drop_cost: 0.0 };

    fn scenario() -> Vec<Workload> {
        drift::generate(&DriftConfig {
            base: SyntheticConfig {
                tables: 2,
                attrs_per_table: 15,
                queries_per_table: 20,
                rows_base: 100_000,
                max_query_width: 4,
                update_fraction: 0.0,
                seed: 9,
            },
            epochs: 4,
            rotation_per_epoch: 6,
        })
    }

    fn run_all(
        epochs: &[Workload],
        costs: TransitionCosts,
    ) -> (Trace, Trace, Trace) {
        let ests: Vec<CachingWhatIf<AnalyticalWhatIf<'_>>> = epochs
            .iter()
            .map(|w| CachingWhatIf::new(AnalyticalWhatIf::new(w)))
            .collect();
        let budget = crate::budget::relative_budget(&ests[0], 0.3);
        (
            adapt(&ests, budget, costs),
            from_scratch(&ests, budget, costs),
            static_first_epoch(&ests, budget, costs, RunTrace::disabled()),
        )
    }

    #[test]
    fn free_transitions_make_adapt_and_scratch_agree() {
        let epochs = scenario();
        let (adaptive, scratch, _) = run_all(&epochs, FREE);
        assert_eq!(adaptive.epochs.len(), 4);
        for (a, s) in adaptive.epochs.iter().zip(&scratch.epochs) {
            assert_eq!(a.selection, s.selection);
            assert_eq!(a.reconfig_paid, 0.0);
        }
    }

    #[test]
    fn adaptation_beats_static_selection_under_drift() {
        let epochs = scenario();
        let costs = TransitionCosts { create_cost_per_byte: 0.001, drop_cost: 1.0 };
        let (adaptive, _, fixed) = run_all(&epochs, costs);
        assert!(
            adaptive.total_cost() < fixed.total_cost(),
            "adaptive {} vs static {}",
            adaptive.total_cost(),
            fixed.total_cost()
        );
    }

    #[test]
    fn reconfig_awareness_never_pays_more_total_reconfig() {
        let epochs = scenario();
        // Make transitions genuinely expensive relative to epoch savings.
        let costs = TransitionCosts { create_cost_per_byte: 10.0, drop_cost: 1e6 };
        let (adaptive, scratch, _) = run_all(&epochs, costs);
        assert!(
            adaptive.total_reconfig() <= scratch.total_reconfig() + 1e-6,
            "aware {} vs scratch {}",
            adaptive.total_reconfig(),
            scratch.total_reconfig()
        );
        // And expensive transitions must reduce churn vs free ones.
        let (free_adapt, _, _) = run_all(&epochs, FREE);
        let churn = |t: &Trace| -> usize {
            t.epochs
                .windows(2)
                .map(|w| {
                    w[1].selection
                        .indexes()
                        .iter()
                        .filter(|k| !w[0].selection.contains(k))
                        .count()
                })
                .sum()
        };
        assert!(churn(&adaptive) <= churn(&free_adapt));
    }

    #[test]
    fn static_policy_only_pays_reconfig_once() {
        let epochs = scenario();
        let costs = TransitionCosts { create_cost_per_byte: 0.01, drop_cost: 5.0 };
        let (_, _, fixed) = run_all(&epochs, costs);
        assert!(fixed.epochs[0].reconfig_paid > 0.0);
        for e in &fixed.epochs[1..] {
            assert_eq!(e.reconfig_paid, 0.0);
        }
    }
}
