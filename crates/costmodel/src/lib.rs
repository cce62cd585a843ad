//! Cost estimation for index selection.
//!
//! * [`model`] — the reproducible analytical cost model of the paper's
//!   Appendix B (pure functions over a schema),
//! * [`whatif`] — the [`WhatIfOptimizer`] abstraction every selection
//!   algorithm is written against, mirroring the role of a DBMS's what-if
//!   optimizer mode,
//! * [`AnalyticalWhatIf`] — the model as a leaf oracle, a pure cost
//!   function that neither memoizes nor counts. The one other leaf is
//!   `isel-dbsim`'s `LiveWhatIf`, which measures each answer on the
//!   column store (the end-to-end evaluation of Section IV-B),
//! * [`cache`] — the one ledger, [`CachingWhatIf`]: what-if calls are the
//!   dominant cost of index-selection tools (Section I), so it both
//!   memoizes repeated questions and counts the distinct ones it issues.
//!   Its pair key is the exact `(query, index)` or, for CoPhy's
//!   exhaustive sweeps, INUM's `(query, usable prefix)`,
//! * [`calibrate`] — [`CalibratedWhatIf`], which rescales an inner
//!   oracle's costs by learned observed/estimated ratios.

#![warn(missing_docs)]

pub mod cache;
pub mod calibrate;
pub mod model;
pub mod whatif;

pub use cache::{CacheStats, CachingWhatIf};
pub use calibrate::{CalibratedWhatIf, RatioTable, TemplateProbe};
pub use model::AnalyticalWhatIf;
pub use whatif::{WhatIfOptimizer, WhatIfStats};
