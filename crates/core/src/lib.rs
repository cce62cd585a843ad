//! Recursive multi-attribute index selection.
//!
//! The primary contribution of *"Efficient Scalable Multi-Attribute Index
//! Selection Using Recursive Strategies"* (ICDE 2019): a constructive,
//! one-step selection algorithm that grows an index configuration by
//! repeatedly taking the construction step — a new single-attribute index
//! or the extension of an existing index by one trailing attribute — with
//! the best ratio of additional performance to additional memory.
//!
//! Crate layout:
//!
//! * [`algorithm1`] — the recursive strategy (heuristic **H6**) with the
//!   Remark-1 extensions (n-best acceleration, unused-index pruning,
//!   attribute-pair steps) and full step/frontier logging,
//! * [`heuristics`] — the baselines **H1**–**H5** of Definition 1,
//!   including the skyline filter of \[11\],
//! * [`candidates`] — candidate-set generators: the exhaustive pool
//!   `I_max` and the scalable heuristics **H1-M**, **H2-M**, **H3-M**,
//! * [`cophy`] — CoPhy's LP approach (Section II-B): builds the binary
//!   program from what-if costs and solves it with `isel-solver`,
//! * [`selection`] — selections, frontier points and evaluation helpers,
//! * [`budget`] — the relative memory budget `A(w)` of Eq. (10),
//! * [`reconfig`] — reconfiguration costs `R(I*, Ī*)`.
//!
//! ```
//! use isel_core::{algorithm1, budget};
//! use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf};
//! use isel_workload::synthetic::{self, SyntheticConfig};
//!
//! let workload = synthetic::generate(&SyntheticConfig::default());
//! let whatif = CachingWhatIf::new(AnalyticalWhatIf::new(&workload));
//! let budget = budget::relative_budget(&whatif, 0.2);
//! let result = algorithm1::run(&whatif, &algorithm1::Options::new(budget));
//! assert!(result.selection.memory(&whatif) <= budget);
//! ```

#![warn(missing_docs)]

pub mod advisor;
pub mod algorithm1;
pub mod budget;
pub mod candidates;
pub mod cophy;
pub mod db2;
pub mod dynamic;
pub mod heuristics;
pub mod interaction;
pub mod parallel;
pub mod reconfig;
pub mod selection;
pub mod trace;

pub use advisor::{Advisor, Strategy};
pub use parallel::Parallelism;
pub use reconfig::ReconfigCosts;
pub use selection::{
    merge_frontiers, merge_frontiers_weighted, Frontier, FrontierMerge, FrontierPoint, FrontierSet,
    Selection,
};
pub use trace::{
    BinaryTraceSink, JsonLinesSink, RunReport, Trace, TraceEvent, TraceSink, VecSink, TRACE_MAGIC,
};
