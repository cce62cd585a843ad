//! Problem-domain types and reproducible workload generators for
//! multi-attribute index selection.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Schema`] — tables and attributes with row counts, distinct-value
//!   counts and value sizes (the `n`, `d_i` and `a_i` of the paper's
//!   notation table),
//! * [`Query`] — a conjunctive selection characterized by the set of
//!   attributes it accesses (`q_j`) and its frequency (`b_j`),
//! * [`Index`] — an *ordered* multi-attribute secondary index
//!   (`k = {i_1, …, i_K}`),
//! * [`Workload`] — a schema plus a bag of weighted queries.
//!
//! Three generators produce the workloads used in the paper's evaluation:
//!
//! * [`synthetic`] — the scalable, seeded workload of Appendix C
//!   (Example 1, used for Table I and Figures 2, 3, 5, 6),
//! * [`tpcc`] — the aggregated TPC-C conjunctive selections of Figure 1,
//! * [`erp`] — an enterprise-workload generator matching the published
//!   aggregate statistics of the Fortune-500 ERP system of Section IV-A.

#![warn(missing_docs)]

pub mod compress;
pub mod drift;
pub mod erp;
pub mod ids;
pub mod io;
pub mod index;
pub mod ord;
pub mod pool;
pub mod query;
pub mod schema;
pub mod stats;
pub mod synthetic;
pub mod tpcc;
pub mod wire;

pub use ids::{AttrId, IndexId, QueryId, TableId};
pub use index::Index;
pub use pool::IndexPool;
pub use query::{Query, QueryKind, Workload};
pub use schema::{Schema, SchemaBuilder};
pub use stats::WorkloadStats;
pub use synthetic::SyntheticConfig;
