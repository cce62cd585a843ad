//! Cost estimation for index selection.
//!
//! Three layers:
//!
//! 1. [`model`] — the reproducible analytical cost model of the paper's
//!    Appendix B (pure functions over a schema),
//! 2. [`whatif`] — the [`WhatIfOptimizer`] abstraction every selection
//!    algorithm is written against, mirroring the role of a DBMS's what-if
//!    optimizer mode; implementations exist for the analytical model (this
//!    crate), for precomputed/measured cost tables ([`tabular`], fed by
//!    `isel-dbsim` in the end-to-end evaluation), and as a caching
//!    decorator,
//! 3. [`cache`] — the caching, call-counting decorator: what-if calls are
//!    the dominant cost of index-selection tools (Section I), so the
//!    paper's approach both caches repeated calls and counts distinct ones.

#![warn(missing_docs)]

pub mod cache;
pub mod calibrate;
pub mod inum;
pub mod model;
pub mod multi;
pub mod tabular;
pub mod whatif;

pub use cache::{pack_key, CacheStats, CachingWhatIf};
pub use calibrate::{CalibratedWhatIf, RatioTable, TemplateProbe};
pub use inum::PrefixAwareWhatIf;
pub use model::AnalyticalWhatIf;
pub use tabular::TabularWhatIf;
pub use whatif::{WhatIfOptimizer, WhatIfStats};
