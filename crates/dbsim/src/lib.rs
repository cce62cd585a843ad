//! In-memory columnar database substrate.
//!
//! Section IV-B of the paper evaluates index selections *end to end*: every
//! query is executed against a commercial columnar main-memory DBMS under
//! every candidate index, and the measured runtimes replace what-if
//! estimates. This crate is that substrate: a small column store with
//!
//! * seeded data generation honouring the schema's distinct-value counts
//!   ([`data`]),
//! * multi-attribute secondary indexes — lexicographically sorted composite
//!   keys with materialized key columns and a row-id list ([`index`]),
//! * a conjunctive-selection executor that picks the best applicable index
//!   (longest usable prefix, then smallest expected result), probes it by
//!   binary search, and post-filters the survivors column-at-a-time
//!   ([`exec`]),
//! * deterministic work counters *and* wall-clock timing ([`exec::Work`]),
//! * a measuring what-if oracle, [`measure::LiveWhatIf`], that builds
//!   whichever index it is asked about and executes the query under it.
//!   Under the ledger, `CachingWhatIf<LiveWhatIf>`, it is the table of
//!   measured costs the paper feeds its selection models ([`measure`]).

#![warn(missing_docs)]

pub mod data;
pub mod database;
pub mod exec;
pub mod index;
pub mod measure;

pub use database::Database;
pub use measure::{CostMetric, MeasureConfig};
