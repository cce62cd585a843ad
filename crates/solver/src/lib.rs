//! Optimization substrate for index selection.
//!
//! The paper solves CoPhy's binary program with CPLEX (`mipgap = 0.05`,
//! NEOS). This crate replaces that proprietary stack:
//!
//! * [`cophy`] — a specialized branch-and-bound solver for the CoPhy index
//!   selection program (5)–(8), scalable to thousands of candidates: it
//!   exploits that for fixed index decisions the per-query variables are
//!   determined (each query takes its cheapest available option) and that
//!   per-candidate marginal benefits upper-bound joint benefits
//!   (subadditivity), which yields a fractional-knapsack bound,
//! * [`knapsack`] — fractional and 0/1 knapsack helpers.
//!
//! The solver supports the paper's termination regime: a relative
//! optimality gap and a wall-clock limit ("DNF" in Table I).
//!
//! The tests check it against a generic reference stack that only they
//! build: a dense two-phase primal simplex (`simplex`), a small
//! branch-and-bound MILP solver on top of it (`milp`, exact on small
//! instances), and the textbook LP (5)–(8) of an instance
//! (`formulation`) — and hold all of them to exhaustive enumeration on
//! tiny instances (`brute`).

#![warn(missing_docs)]

pub mod cophy;
pub mod knapsack;

use serde::{Deserialize, Serialize};

/// How a solve run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// Proven optimal (within numerical tolerance).
    Optimal,
    /// Stopped because the relative gap dropped below the configured
    /// `mip_gap` (the paper's CPLEX runs use 0.05).
    GapReached,
    /// Wall-clock limit hit; best incumbent returned ("DNF" in Table I).
    TimeLimit,
    /// Node limit hit; best incumbent returned.
    NodeLimit,
    /// No feasible solution exists.
    Infeasible,
}

impl SolveStatus {
    /// Whether the run finished on its own terms (optimal or gap).
    pub fn finished(self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::GapReached)
    }
}

#[cfg(test)]
mod brute;
#[cfg(test)]
mod formulation;
#[cfg(test)]
mod milp;
#[cfg(test)]
mod simplex;
