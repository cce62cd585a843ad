//! Online continuous-tuning service (`isel-service`).
//!
//! The paper's evaluation is one-shot: a workload arrives, Algorithm 1
//! selects, the experiment ends. This crate closes the loop for the
//! Section-VII "workloads that change over time" scenario as a
//! long-running advisor built from the existing layers:
//!
//! 1. **Ingestion** ([`event`], [`BoundedQueue`], [`run_socket_router`])
//!    — query events from stdin, a file, or a Unix-domain socket flow
//!    through bounded queues. Replay uses blocking pushes (lossless); live serving uses
//!    a drop-oldest overload policy whose every drop is *counted*, never
//!    silent. Events arrive in either of two peer encodings, mixed
//!    freely on one stream and auto-detected per record by a magic byte
//!    ([`RecordIter`]): JSONL lines, or the length-prefixed checksummed
//!    binary frames of [`frame`] (interned query templates, varint ids —
//!    DESIGN.md §14). Journals ([`journal`]) write either encoding,
//!    optionally rotating into size-bounded segments behind a manifest,
//!    and `convert` translates between them losslessly; replay can mmap
//!    a journal ([`MappedFile`]) and decode with zero per-event
//!    allocation.
//! 2. **Aggregation** ([`EpochWindow`]) — events are batched into
//!    fixed-size *epochs*; a sliding window of the last `window_epochs` epochs is
//!    merged, deterministically ordered, and compressed with
//!    `compress::top_k_by_weight` into one [`Workload`] snapshot per
//!    sealed epoch.
//! 3. **Tuning** ([`Tuner`]) — a drift detector
//!    (`workload::drift::attribute_overlap` against the last re-selected
//!    snapshot) picks a per-epoch policy: keep the selection (no-op),
//!    reconfiguration-aware re-selection (`core::reconfig` as in
//!    `dynamic::adapt`), or a from-scratch run — always under the
//!    relative memory budget of Eq. (10).
//! 4. **State** ([`GroupCheckpoint`]) — each group's interned
//!    [`IndexPool`], current selection, window contents and counters serialize into
//!    per-shard JSON documents committed atomically through a
//!    [`Manifest`]; a restarted service restores them and continues
//!    **bit-identically** with an uninterrupted run.
//! 5. **Control** ([`Router`]) — EOF or a `{"control":"shutdown"}` line
//!    drains the queues, tunes any sealed epochs, and commits a final
//!    checkpoint generation; `{"control":"checkpoint"}` snapshots
//!    mid-stream in event order. Runs emit the same
//!    [`isel_core::TraceEvent`] stream as the offline strategies, so
//!    `isel report --check` works on service traces.
//!
//! # One engine, one or many groups
//!
//! The [`Router`] is the serving engine at every setting: one thread
//! owns the input, classifies raw JSONL lines with a byte-scanning fast
//! path (binary events route by their template's table without any
//! parse at all), and fans them out to shards that host tuning *groups*
//! — per-group windows, drift baselines and index pools — over
//! per-shard bounded queues to worker threads or, at
//! `ServiceConfig::workers > 0`, over pipes to worker processes. What
//! `ServiceConfig::shards` chooses is the product:
//!
//! * `shards == 0` — the **whole workload as one group** on one shard,
//!   under the whole-schema budget. **Determinism contract**
//!   (DESIGN.md §12): replaying a recorded log with drift thresholds
//!   forcing the adapt policy produces a selection sequence
//!   bit-identical to the offline `dynamic::adapt` loop over the same
//!   epoch snapshots, at every thread count.
//! * `shards >= 1` — **one group per table**, packed onto that many
//!   worker threads. Because the unit of tuning state is always a
//!   single table group, the selection sequence is **bit-identical at
//!   every shard count**; sharding only changes which thread a group
//!   runs on, and each group matches `dynamic::adapt` at its table's
//!   share of the budget (DESIGN.md §13).
//!
//! Per-shard checkpoints commit all-or-nothing across shards, and the
//! final per-group selections are merged under the *global* memory
//! budget with the MCKP frontier merge from `isel_core`. [`StatusBoard`]
//! sums the counters each shard posts; `SIGUSR1` or a
//! `{"control":"status"}` line renders them as one JSON status line.
//!
//! # Frontier arbitration
//!
//! The global-budget merge is a *live* subsystem ([`Arbiter`]): each
//! group publishes its tuned frontier as epochs complete, the
//! [`Arbiter`] folds changed frontiers incrementally into a maintained
//! [`isel_core::FrontierSet`], and the final merged selection is a cheap
//! read of that state. Interactive `{"control":"whatif","budget":B}` and
//! `{"control":"tenant","table_group":T,"budget":B}` queries — over the
//! socket or in a replayed stream — are answered from the precomputed
//! frontiers without re-running selection.
//!
//! # Multi-process serving
//!
//! Past one process, the same router places its shards across process
//! boundaries ([`process`]): its own process, the **supervisor**, keeps
//! the listening socket, the journal, the checkpoint [`Manifest`] and
//! the live [`Arbiter`], and routes events over per-worker stdin pipes
//! (binary frames) to `N` **worker child processes**, each hosting
//! shards with exactly the in-process group-host tuning machinery. The
//! supervisor detects a dead worker (pipe EOF or a failed write),
//! restores its shards onto a survivor or respawned replacement from
//! the last committed checkpoint generation, and replays the journal
//! tail since that generation — so a `SIGKILL` of any worker at any
//! event position leaves the final merged selection **byte-identical**
//! to a failure-free run (DESIGN.md §16).
//!
//! [`Workload`]: isel_workload::Workload
//! [`IndexPool`]: isel_workload::IndexPool

#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod frame;
pub mod journal;
pub mod process;

mod arbiter;
mod checkpoint;
mod config;
mod feedback;
mod group;
mod mmap;
mod queue;
mod records;
mod router;
mod shard;
mod socket;
mod status;
mod stream;
mod tuner;
mod window;

pub use arbiter::{global_budget, Arbiter, InteractiveRegistry, PublishedFrontier};
pub use checkpoint::{
    shard_file, GroupCheckpoint, Manifest, ShardCheckpoint, CHECKPOINT_VERSION,
};
pub use config::{CalibrationConfig, DriftThresholds, ServiceConfig};
pub use event::{parse_line, Control, InputLine};
pub use feedback::{CalSnapshot, FeedbackCheckpoint};
pub use frame::{FrameEncoder, WireItem, FORMAT_VERSION, MAGIC};
pub use group::ShardCounters;
pub use journal::{convert, read_journal_bytes, JournalConfig, JournalWriter, TeeReader, WireFormat};
pub use mmap::MappedFile;
pub use process::{run_worker, SupMsg, WorkerMsg};
pub use records::{DecodeDict, Record, RecordIter};
pub use queue::BoundedQueue;
pub use router::{
    offline_group_adapt, offline_group_snapshots, OverloadPolicy, Router, ServiceReport,
};
pub use shard::{classify_line, LineClass};
pub use socket::run_socket_router;
pub use status::{install_status_signal, StatusBoard};
pub use tuner::{EpochOutcome, TunePolicy, Tuner};
pub use window::EpochWindow;
