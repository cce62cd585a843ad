//! Structured run-trace observability: a zero-cost-when-disabled event
//! stream threaded through every selection strategy.
//!
//! The paper evaluates approaches by *what they do* — what-if calls
//! issued, candidates scored, LP build vs. solve time — but a finished
//! [`RunResult`](crate::algorithm1::RunResult) only shows the outcome.
//! This module exposes the run itself as a stream of typed
//! [`TraceEvent`]s:
//!
//! * every construction step chosen (kind, index id, Δcost, Δmemory,
//!   ratio),
//! * a candidate-scan summary per step (candidates scored, queries
//!   re-costed, what-if calls issued vs. answered from cache),
//! * solver phase timings (CoPhy LP build/solve, DB2 swap rounds),
//! * per-epoch events from the dynamic policies.
//!
//! Events flow into a [`TraceSink`]; three sinks ship with the crate —
//! an in-memory [`VecSink`] for tests, a [`JsonLinesSink`] writing one
//! JSON object per line for offline analysis (`isel report`), and a
//! [`BinaryTraceSink`] writing the compact tagged-varint encoding (a
//! [`TRACE_MAGIC`]-headed stream, ~10× smaller, auto-detected by
//! [`RunReport::parse_trace`]). The stream aggregates into a
//! [`RunReport`] with per-step timing histograms and checked
//! invariants.
//!
//! # Zero-cost contract
//!
//! Strategies receive a [`Trace`] handle — a `Copy` wrapper around
//! `Option<&dyn TraceSink>`. [`Trace::emit`] takes a *closure* producing
//! the event, so with tracing disabled neither the event nor any of its
//! `String`/`Vec` payloads is ever constructed; the only residue is an
//! inlined `Option` test. Instrumented code paths additionally guard
//! their timestamp and counter reads behind [`Trace::is_enabled`], so an
//! untraced run performs no clock reads and no extra stats loads per
//! step. Traced runs remain bit-identical to untraced runs at every
//! thread count: tracing only *observes* (events are emitted from the
//! serial sections of each strategy), it never participates in any
//! ranking or tie-break.
//!
//! # Accounting invariant
//!
//! For an Algorithm-1 run, the per-step [`TraceEvent::CandidateScan`]
//! deltas are measured back-to-back (setup scan, then one span per loop
//! iteration including the final unsuccessful one), so their sums equal
//! the run totals in [`TraceEvent::RunEnd`] *by construction* — for any
//! oracle. [`RunReport::check_accounting`] verifies this, and
//! [`RunReport::check_call_bound`] checks the paper's ≈ 2·Q·q̄ what-if
//! bound (Section III-A) in the same form as the in-repo regression test:
//! `issued < 6·Q·q̄ + Q`.

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::sync::Mutex;

/// What kind of construction step a [`TraceEvent::Step`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepKind {
    /// A new index was created (step 3a).
    Add,
    /// An existing index was extended by trailing attributes (step 3b).
    Morph,
    /// Unused indexes were dropped (Remark 1.2).
    Prune,
}

/// One structured event of a run. Serialized as one JSON object per line
/// by [`JsonLinesSink`]; the schema is the externally-tagged serde form,
/// e.g. `{"Step":{"step":1,...}}`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A strategy run began.
    RunStart {
        /// Strategy label, e.g. `"H6"`.
        strategy: String,
        /// Number of query templates `Q`.
        queries: u64,
        /// `Σ_j |q_j|` — i.e. `Q·q̄`, the denominator of the paper's
        /// what-if call bound.
        total_width: u64,
        /// Memory budget in bytes.
        budget: u64,
        /// Shard that performed the run, when it ran inside a sharded
        /// service (`None` for offline and unsharded runs; stamped by the
        /// service's shard-tagging sink, never by the strategies).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        shard: Option<u32>,
    },
    /// One candidate scan: the work performed to pick (or fail to pick)
    /// one construction step. Scan 0 is the setup scan (initial `f_j(0)`
    /// costing plus any pre-loop ranking); the last scan of a run is the
    /// unsuccessful one that terminated construction.
    CandidateScan {
        /// Step number this scan served (0 = setup).
        step: u64,
        /// Candidate moves enumerated and scored.
        candidates: u64,
        /// Queries whose current cost changed due to the chosen step.
        queries_recosted: u64,
        /// What-if calls issued to the oracle during this span.
        issued: u64,
        /// What-if requests answered from a cache during this span.
        cached: u64,
        /// Wall time of the span in microseconds.
        micros: u64,
    },
    /// A construction step was taken.
    Step {
        /// 1-based step number.
        step: u64,
        /// Add, morph or prune.
        kind: StepKind,
        /// Pool id of the created/extended index (`None` for prunes).
        index: Option<u32>,
        /// Net workload-cost reduction of the step.
        benefit: f64,
        /// Memory change in bytes (negative for prunes).
        memory_delta: i64,
        /// `benefit / memory_delta` — the selection criterion.
        ratio: f64,
        /// Total memory after the step.
        total_memory: u64,
        /// Total cost after the step.
        total_cost: f64,
    },
    /// A named solver phase finished (CoPhy LP build/solve, DB2 swap
    /// rounds, …).
    SolverPhase {
        /// Phase label, e.g. `"cophy_build"`.
        phase: String,
        /// Phase-specific magnitude (what-if calls, nodes, accepted
        /// swaps, …).
        detail: u64,
        /// Wall time of the phase in microseconds.
        micros: u64,
    },
    /// One epoch of a dynamic policy finished.
    Epoch {
        /// 0-based epoch number.
        epoch: u64,
        /// Policy label (`"adapt"` or `"from_scratch"`).
        policy: String,
        /// Indexes in force during the epoch.
        indexes: u64,
        /// Workload cost of the epoch.
        workload_cost: f64,
        /// Reconfiguration cost paid entering the epoch.
        reconfig_paid: f64,
    },
    /// The multi-tenant frontier arbiter re-merged its
    /// [`FrontierSet`](crate::selection::FrontierSet) after one or more
    /// group frontiers changed. Emitted by the service layer, never by
    /// the strategies.
    Merge {
        /// Table groups participating in the merge.
        parts: u64,
        /// Groups whose frontier changed since the previous merge.
        dirty: u64,
        /// DP tree nodes recomputed by the incremental merge (≤ the
        /// full-tree node count; equal on a from-scratch merge).
        recombined: u64,
        /// Global memory budget arbitrated, in bytes.
        budget: u64,
        /// Total memory allocated across groups by the new merge.
        total_memory: u64,
        /// Total weighted workload cost of the new merge.
        total_cost: f64,
        /// Groups whose budget allocation changed vs. the previous
        /// merge (allocation delta count).
        reallocated: u64,
        /// Wall time of the re-merge in microseconds.
        micros: u64,
    },
    /// The multi-process supervisor absorbed a worker crash: the dead
    /// worker's shard state was restored from the last committed
    /// checkpoint generation and its journal tail replayed. Emitted by
    /// the service layer, never by the strategies; one event per shard
    /// failed over.
    Failover {
        /// Shard whose state was restored.
        shard: u32,
        /// Checkpoint generation the restore started from (0 = fresh,
        /// no committed generation existed).
        generation: u64,
        /// Journal-tail lines replayed after the restore.
        replayed: u64,
        /// Worker slot the shard now lives on (the respawned slot under
        /// `--respawn`, otherwise a surviving adopter).
        adopted_by: u32,
        /// Wall time of restore + replay in microseconds.
        micros: u64,
    },
    /// A restarted supervisor recovered a prior incarnation's state
    /// directory: committed checkpoints restored, the input journal
    /// replayed past the last committed generation, serving resumed.
    /// Emitted by the service layer once per recovery (DESIGN.md §18).
    Recovery {
        /// Checkpoint generation the recovery resumed from (0 = no
        /// committed generation existed; the journal replays in full).
        generation: u64,
        /// Journal lines skipped because the committed generation
        /// already covered them.
        skipped: u64,
        /// Total bytes of prior-incarnation journal replayed.
        journal_bytes: u64,
        /// Wall time from startup to resumed serving in microseconds.
        micros: u64,
    },
    /// One observed-cost probe reached the feedback tracker. Emitted by
    /// the service layer, never by the strategies; `accepted` is false
    /// when the probe was rejected (non-finite or non-positive cost)
    /// and left the calibration state untouched.
    ObservedCost {
        /// Table the probed query template belongs to.
        table: u16,
        /// Observed execution cost carried by the probe.
        cost: f64,
        /// Whether the tracker folded the probe into its statistics.
        accepted: bool,
    },
    /// A calibrated tuning pass applied learned estimate/observed
    /// ratios. Emitted by the service layer once per tune that used a
    /// non-empty ratio table.
    Calibration {
        /// Accepted probes folded into the tracker so far.
        probes: u64,
        /// Rejected probes so far.
        rejected: u64,
        /// Warm templates whose ratios were applied by this pass.
        templates: u64,
    },
    /// The deployment gate acted on a candidate selection: opened one
    /// for probation (`"candidate"`), promoted it to incumbent
    /// (`"promote"`), or rolled back to the last-good checkpoint
    /// (`"rollback"`). Emitted by the service layer, never by the
    /// strategies.
    Deploy {
        /// Gate action: `"candidate"`, `"promote"` or `"rollback"`.
        action: String,
        /// Table group the gate acted on.
        table: u16,
        /// Tuner epoch at which the action was taken.
        epoch: u64,
        /// Incumbent selection's workload cost under the calibrated
        /// estimator at decision time.
        incumbent_cost: f64,
        /// Candidate selection's workload cost under the same
        /// estimator.
        candidate_cost: f64,
    },
    /// A strategy run finished. `issued`/`cached` are totals over the
    /// whole run, measured from the same origin as the scans.
    RunEnd {
        /// Strategy label matching the run's [`RunStart`](Self::RunStart).
        /// Defaults to `""` when parsing traces written before the field
        /// existed.
        #[serde(default)]
        strategy: String,
        /// Construction steps taken.
        steps: u64,
        /// Total what-if calls issued.
        issued: u64,
        /// Total what-if requests answered from a cache.
        cached: u64,
        /// Cost before any step.
        initial_cost: f64,
        /// Cost after the last step.
        final_cost: f64,
        /// Wall time of the run in microseconds.
        micros: u64,
        /// Shard that performed the run (see
        /// [`RunStart`](Self::RunStart)).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        shard: Option<u32>,
    },
}

/// Receiver of [`TraceEvent`]s. `Sync` because traced strategies are
/// shared across evaluation workers (events themselves are only emitted
/// from the serial sections, but the handle crosses threads).
pub trait TraceSink: Sync {
    /// Record one event. Called in run order.
    fn record(&self, event: TraceEvent);
}

/// In-memory sink collecting events into a `Vec` — the test sink.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl VecSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The events recorded so far, in order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace sink poisoned").clone()
    }

    /// Drain and return all recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace sink poisoned"))
    }
}

impl TraceSink for VecSink {
    fn record(&self, event: TraceEvent) {
        self.events.lock().expect("trace sink poisoned").push(event);
    }
}

/// Sink writing one JSON object per line — the `--trace FILE` format,
/// parsed back by `isel report` and [`RunReport::parse_jsonl`]. Write
/// errors are counted, not propagated: tracing must never abort a run.
pub struct JsonLinesSink<W: Write + Send> {
    out: Mutex<W>,
    errors: std::sync::atomic::AtomicU64,
}

impl JsonLinesSink<std::io::BufWriter<std::fs::File>> {
    /// Create (truncate) `path` and write events to it, buffered.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wrap any writer.
    pub fn new(out: W) -> Self {
        Self { out: Mutex::new(out), errors: std::sync::atomic::AtomicU64::new(0) }
    }

    /// Number of events dropped due to serialization or I/O errors.
    pub fn write_errors(&self) -> u64 {
        self.errors.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Flush and return the inner writer.
    pub fn finish(self) -> std::io::Result<W> {
        let mut out = self.out.into_inner().expect("trace sink poisoned");
        out.flush()?;
        Ok(out)
    }
}

impl<W: Write + Send> TraceSink for JsonLinesSink<W> {
    fn record(&self, event: TraceEvent) {
        let ok = serde_json::to_string(&event).ok().is_some_and(|line| {
            let mut out = self.out.lock().expect("trace sink poisoned");
            writeln!(out, "{line}").is_ok()
        });
        if !ok {
            self.errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Magic byte opening a binary trace stream. Like the service's event
/// frames, it is invalid as a UTF-8 lead byte, so the first byte of a
/// trace file distinguishes the two encodings unambiguously (JSONL
/// traces start with `{`).
pub const TRACE_MAGIC: u8 = 0xB7;

/// Version byte of the binary trace encoding, written right after
/// [`TRACE_MAGIC`]. Readers reject other versions instead of guessing.
pub const TRACE_VERSION: u8 = 1;

/// Binary event tags (one byte ahead of each encoded event).
const BT_RUN_START: u8 = 0;
const BT_CANDIDATE_SCAN: u8 = 1;
const BT_STEP: u8 = 2;
const BT_SOLVER_PHASE: u8 = 3;
const BT_EPOCH: u8 = 4;
const BT_RUN_END: u8 = 5;
const BT_MERGE: u8 = 6;
const BT_FAILOVER: u8 = 7;
const BT_OBSERVED_COST: u8 = 8;
const BT_CALIBRATION: u8 = 9;
const BT_DEPLOY: u8 = 10;
const BT_RECOVERY: u8 = 11;

/// Encode one event in the tagged-varint binary form (no header).
fn put_event(out: &mut Vec<u8>, event: &TraceEvent) {
    use isel_workload::wire::{put_f64, put_signed, put_str, put_varint};
    // Optional values encode as a presence byte, then the value iff 1.
    fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
        match v {
            Some(v) => {
                out.push(1);
                isel_workload::wire::put_varint(out, v);
            }
            None => out.push(0),
        }
    }
    match event {
        TraceEvent::RunStart { strategy, queries, total_width, budget, shard } => {
            out.push(BT_RUN_START);
            put_str(out, strategy);
            put_varint(out, *queries);
            put_varint(out, *total_width);
            put_varint(out, *budget);
            put_opt_u64(out, shard.map(u64::from));
        }
        TraceEvent::CandidateScan { step, candidates, queries_recosted, issued, cached, micros } => {
            out.push(BT_CANDIDATE_SCAN);
            put_varint(out, *step);
            put_varint(out, *candidates);
            put_varint(out, *queries_recosted);
            put_varint(out, *issued);
            put_varint(out, *cached);
            put_varint(out, *micros);
        }
        TraceEvent::Step {
            step,
            kind,
            index,
            benefit,
            memory_delta,
            ratio,
            total_memory,
            total_cost,
        } => {
            out.push(BT_STEP);
            put_varint(out, *step);
            out.push(match kind {
                StepKind::Add => 0,
                StepKind::Morph => 1,
                StepKind::Prune => 2,
            });
            put_opt_u64(out, index.map(u64::from));
            put_f64(out, *benefit);
            put_signed(out, *memory_delta);
            put_f64(out, *ratio);
            put_varint(out, *total_memory);
            put_f64(out, *total_cost);
        }
        TraceEvent::SolverPhase { phase, detail, micros } => {
            out.push(BT_SOLVER_PHASE);
            put_str(out, phase);
            put_varint(out, *detail);
            put_varint(out, *micros);
        }
        TraceEvent::Epoch { epoch, policy, indexes, workload_cost, reconfig_paid } => {
            out.push(BT_EPOCH);
            put_varint(out, *epoch);
            put_str(out, policy);
            put_varint(out, *indexes);
            put_f64(out, *workload_cost);
            put_f64(out, *reconfig_paid);
        }
        TraceEvent::Merge {
            parts,
            dirty,
            recombined,
            budget,
            total_memory,
            total_cost,
            reallocated,
            micros,
        } => {
            out.push(BT_MERGE);
            put_varint(out, *parts);
            put_varint(out, *dirty);
            put_varint(out, *recombined);
            put_varint(out, *budget);
            put_varint(out, *total_memory);
            put_f64(out, *total_cost);
            put_varint(out, *reallocated);
            put_varint(out, *micros);
        }
        TraceEvent::Failover { shard, generation, replayed, adopted_by, micros } => {
            out.push(BT_FAILOVER);
            put_varint(out, u64::from(*shard));
            put_varint(out, *generation);
            put_varint(out, *replayed);
            put_varint(out, u64::from(*adopted_by));
            put_varint(out, *micros);
        }
        TraceEvent::Recovery { generation, skipped, journal_bytes, micros } => {
            out.push(BT_RECOVERY);
            put_varint(out, *generation);
            put_varint(out, *skipped);
            put_varint(out, *journal_bytes);
            put_varint(out, *micros);
        }
        TraceEvent::ObservedCost { table, cost, accepted } => {
            out.push(BT_OBSERVED_COST);
            put_varint(out, u64::from(*table));
            put_f64(out, *cost);
            out.push(u8::from(*accepted));
        }
        TraceEvent::Calibration { probes, rejected, templates } => {
            out.push(BT_CALIBRATION);
            put_varint(out, *probes);
            put_varint(out, *rejected);
            put_varint(out, *templates);
        }
        TraceEvent::Deploy { action, table, epoch, incumbent_cost, candidate_cost } => {
            out.push(BT_DEPLOY);
            put_str(out, action);
            put_varint(out, u64::from(*table));
            put_varint(out, *epoch);
            put_f64(out, *incumbent_cost);
            put_f64(out, *candidate_cost);
        }
        TraceEvent::RunEnd {
            strategy,
            steps,
            issued,
            cached,
            initial_cost,
            final_cost,
            micros,
            shard,
        } => {
            out.push(BT_RUN_END);
            put_str(out, strategy);
            put_varint(out, *steps);
            put_varint(out, *issued);
            put_varint(out, *cached);
            put_f64(out, *initial_cost);
            put_f64(out, *final_cost);
            put_varint(out, *micros);
            put_opt_u64(out, shard.map(u64::from));
        }
    }
}

/// Decode one event at `pos`; `None` on any truncation, unknown tag, or
/// out-of-range field — the caller turns that into a positioned error.
fn get_event(b: &[u8], pos: &mut usize) -> Option<TraceEvent> {
    use isel_workload::wire::{get_f64, get_signed, get_str, get_varint};
    fn get_opt_u32(b: &[u8], pos: &mut usize) -> Option<Option<u32>> {
        let flag = *b.get(*pos)?;
        *pos += 1;
        match flag {
            0 => Some(None),
            1 => {
                let v = isel_workload::wire::get_varint(b, pos)?;
                Some(Some(u32::try_from(v).ok()?))
            }
            _ => None,
        }
    }
    let tag = *b.get(*pos)?;
    *pos += 1;
    Some(match tag {
        BT_RUN_START => TraceEvent::RunStart {
            strategy: get_str(b, pos)?,
            queries: get_varint(b, pos)?,
            total_width: get_varint(b, pos)?,
            budget: get_varint(b, pos)?,
            shard: get_opt_u32(b, pos)?,
        },
        BT_CANDIDATE_SCAN => TraceEvent::CandidateScan {
            step: get_varint(b, pos)?,
            candidates: get_varint(b, pos)?,
            queries_recosted: get_varint(b, pos)?,
            issued: get_varint(b, pos)?,
            cached: get_varint(b, pos)?,
            micros: get_varint(b, pos)?,
        },
        BT_STEP => {
            let step = get_varint(b, pos)?;
            let kind = match *b.get(*pos)? {
                0 => StepKind::Add,
                1 => StepKind::Morph,
                2 => StepKind::Prune,
                _ => return None,
            };
            *pos += 1;
            TraceEvent::Step {
                step,
                kind,
                index: get_opt_u32(b, pos)?,
                benefit: get_f64(b, pos)?,
                memory_delta: get_signed(b, pos)?,
                ratio: get_f64(b, pos)?,
                total_memory: get_varint(b, pos)?,
                total_cost: get_f64(b, pos)?,
            }
        }
        BT_SOLVER_PHASE => TraceEvent::SolverPhase {
            phase: get_str(b, pos)?,
            detail: get_varint(b, pos)?,
            micros: get_varint(b, pos)?,
        },
        BT_EPOCH => TraceEvent::Epoch {
            epoch: get_varint(b, pos)?,
            policy: get_str(b, pos)?,
            indexes: get_varint(b, pos)?,
            workload_cost: get_f64(b, pos)?,
            reconfig_paid: get_f64(b, pos)?,
        },
        BT_MERGE => TraceEvent::Merge {
            parts: get_varint(b, pos)?,
            dirty: get_varint(b, pos)?,
            recombined: get_varint(b, pos)?,
            budget: get_varint(b, pos)?,
            total_memory: get_varint(b, pos)?,
            total_cost: get_f64(b, pos)?,
            reallocated: get_varint(b, pos)?,
            micros: get_varint(b, pos)?,
        },
        BT_FAILOVER => TraceEvent::Failover {
            shard: u32::try_from(get_varint(b, pos)?).ok()?,
            generation: get_varint(b, pos)?,
            replayed: get_varint(b, pos)?,
            adopted_by: u32::try_from(get_varint(b, pos)?).ok()?,
            micros: get_varint(b, pos)?,
        },
        BT_OBSERVED_COST => TraceEvent::ObservedCost {
            table: u16::try_from(get_varint(b, pos)?).ok()?,
            cost: get_f64(b, pos)?,
            accepted: match *b.get(*pos)? {
                v @ (0 | 1) => {
                    *pos += 1;
                    v == 1
                }
                _ => return None,
            },
        },
        BT_CALIBRATION => TraceEvent::Calibration {
            probes: get_varint(b, pos)?,
            rejected: get_varint(b, pos)?,
            templates: get_varint(b, pos)?,
        },
        BT_DEPLOY => TraceEvent::Deploy {
            action: get_str(b, pos)?,
            table: u16::try_from(get_varint(b, pos)?).ok()?,
            epoch: get_varint(b, pos)?,
            incumbent_cost: get_f64(b, pos)?,
            candidate_cost: get_f64(b, pos)?,
        },
        BT_RECOVERY => TraceEvent::Recovery {
            generation: get_varint(b, pos)?,
            skipped: get_varint(b, pos)?,
            journal_bytes: get_varint(b, pos)?,
            micros: get_varint(b, pos)?,
        },
        BT_RUN_END => TraceEvent::RunEnd {
            strategy: get_str(b, pos)?,
            steps: get_varint(b, pos)?,
            issued: get_varint(b, pos)?,
            cached: get_varint(b, pos)?,
            initial_cost: get_f64(b, pos)?,
            final_cost: get_f64(b, pos)?,
            micros: get_varint(b, pos)?,
            shard: get_opt_u32(b, pos)?,
        },
        _ => return None,
    })
}

/// Sink writing the compact binary trace encoding — the `--trace-format
/// binary` peer of [`JsonLinesSink`]. The stream opens with
/// `[TRACE_MAGIC, TRACE_VERSION]`, then one tagged-varint event after
/// another (strings length-prefixed, floats as raw IEEE-754 bits so
/// round-trips are bit-exact). Typically ~10× smaller than JSONL for
/// the same run. Write errors are counted, not propagated: tracing must
/// never abort a run.
pub struct BinaryTraceSink<W: Write + Send> {
    out: Mutex<W>,
    errors: std::sync::atomic::AtomicU64,
    header_written: std::sync::atomic::AtomicBool,
}

impl BinaryTraceSink<std::io::BufWriter<std::fs::File>> {
    /// Create (truncate) `path` and write events to it, buffered.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write + Send> BinaryTraceSink<W> {
    /// Wrap any writer. The stream header goes out with the first event,
    /// so wrapping is infallible.
    pub fn new(out: W) -> Self {
        Self {
            out: Mutex::new(out),
            errors: std::sync::atomic::AtomicU64::new(0),
            header_written: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Number of events dropped due to I/O errors.
    pub fn write_errors(&self) -> u64 {
        self.errors.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Flush and return the inner writer. An empty run still yields a
    /// valid (header-only) stream.
    pub fn finish(self) -> std::io::Result<W> {
        let mut out = self.out.into_inner().expect("trace sink poisoned");
        if !self.header_written.load(std::sync::atomic::Ordering::Relaxed) {
            out.write_all(&[TRACE_MAGIC, TRACE_VERSION])?;
        }
        out.flush()?;
        Ok(out)
    }
}

impl<W: Write + Send> TraceSink for BinaryTraceSink<W> {
    fn record(&self, event: TraceEvent) {
        let mut buf = Vec::new();
        put_event(&mut buf, &event);
        let mut out = self.out.lock().expect("trace sink poisoned");
        let mut ok = true;
        if !self.header_written.swap(true, std::sync::atomic::Ordering::Relaxed) {
            ok = out.write_all(&[TRACE_MAGIC, TRACE_VERSION]).is_ok();
        }
        if !(ok && out.write_all(&buf).is_ok()) {
            self.errors.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Lightweight tracing handle passed through every strategy: a `Copy`
/// wrapper around an optional sink reference. The default handle is
/// disabled and free.
#[derive(Clone, Copy, Default)]
pub struct Trace<'a> {
    sink: Option<&'a dyn TraceSink>,
}

impl<'a> Trace<'a> {
    /// A disabled handle — every [`emit`](Self::emit) is a no-op.
    pub const fn disabled() -> Self {
        Self { sink: None }
    }

    /// A handle feeding `sink`.
    pub fn to(sink: &'a dyn TraceSink) -> Self {
        Self { sink: Some(sink) }
    }

    /// Whether a sink is attached. Instrumented code guards its clock and
    /// counter reads behind this, keeping untraced runs free of them.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emit an event. The closure only runs when a sink is attached, so a
    /// disabled handle never constructs the event or its payloads.
    #[inline]
    pub fn emit(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink {
            sink.record(event());
        }
    }
}

impl std::fmt::Debug for Trace<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Power-of-two latency histogram over microsecond samples: bucket `i`
/// counts samples in `[2^(i-1), 2^i)` µs (bucket 0 counts `0` µs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimingHistogram {
    counts: [u64; 41],
    total_micros: u64,
    samples: u64,
}

impl Default for TimingHistogram {
    fn default() -> Self {
        Self { counts: [0; 41], total_micros: 0, samples: 0 }
    }
}

impl TimingHistogram {
    fn bucket(micros: u64) -> usize {
        (u64::BITS - micros.leading_zeros()).min(40) as usize
    }

    /// Record one sample.
    pub fn record(&mut self, micros: u64) {
        self.counts[Self::bucket(micros)] += 1;
        self.total_micros += micros;
        self.samples += 1;
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean sample in microseconds (0 when empty).
    pub fn mean_micros(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_micros as f64 / self.samples as f64
        }
    }

    /// Non-empty buckets as `(lower_bound_micros, count)`, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, c))
            .collect()
    }
}

/// Aggregated view of one trace: counters, per-step timing histogram,
/// solver phases, and the checked invariants.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Strategy label from [`TraceEvent::RunStart`], when present.
    pub strategy: Option<String>,
    /// `Q` from the run-start event.
    pub queries: u64,
    /// `Q·q̄` from the run-start event.
    pub total_width: u64,
    /// Budget from the run-start event.
    pub budget: u64,
    /// Add steps taken.
    pub adds: u64,
    /// Morph (extension) steps taken.
    pub morphs: u64,
    /// Prune steps taken.
    pub prunes: u64,
    /// Candidate scans observed.
    pub scans: u64,
    /// Σ candidates over all scans.
    pub candidates_scored: u64,
    /// Σ issued what-if calls over all scans.
    pub scan_issued: u64,
    /// Σ cache-answered requests over all scans.
    pub scan_cached: u64,
    /// Per-scan wall-time histogram.
    pub step_timings: TimingHistogram,
    /// Solver phases aggregated by label in first-seen order:
    /// `(label, total micros, total detail, occurrences)`.
    pub solver_phases: Vec<(String, u64, u64, u64)>,
    /// Dynamic-policy epochs observed.
    pub epochs: u64,
    /// Frontier-arbiter re-merges observed.
    pub merges: u64,
    /// Per-merge wall-time histogram.
    pub merge_timings: TimingHistogram,
    /// Worker failovers observed (supervisor mode).
    pub failovers: u64,
    /// Supervisor recoveries observed (restart from a state directory).
    pub recoveries: u64,
    /// Observed-cost probes accepted by the feedback tracker.
    pub observed_accepted: u64,
    /// Observed-cost probes rejected (non-finite / non-positive cost).
    pub observed_rejected: u64,
    /// Calibrated tuning passes (with a non-empty ratio table).
    pub calibrations: u64,
    /// Deployment candidates opened by the gate.
    pub deploy_candidates: u64,
    /// Candidates promoted to incumbent.
    pub deploy_promotes: u64,
    /// Candidates rolled back to the last-good checkpoint.
    pub deploy_rollbacks: u64,
    /// Totals from [`TraceEvent::RunEnd`], when present:
    /// `(steps, issued, cached, initial_cost, final_cost, micros)`.
    pub run_end: Option<(u64, u64, u64, f64, f64, u64)>,
}

impl RunReport {
    /// Aggregate a slice of events.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut r = RunReport::default();
        for e in events {
            match e {
                TraceEvent::RunStart { strategy, queries, total_width, budget, .. } => {
                    r.strategy = Some(strategy.clone());
                    r.queries = *queries;
                    r.total_width = *total_width;
                    r.budget = *budget;
                }
                TraceEvent::CandidateScan { candidates, issued, cached, micros, .. } => {
                    r.scans += 1;
                    r.candidates_scored += candidates;
                    r.scan_issued += issued;
                    r.scan_cached += cached;
                    r.step_timings.record(*micros);
                }
                TraceEvent::Step { kind, .. } => match kind {
                    StepKind::Add => r.adds += 1,
                    StepKind::Morph => r.morphs += 1,
                    StepKind::Prune => r.prunes += 1,
                },
                TraceEvent::SolverPhase { phase, detail, micros } => {
                    match r.solver_phases.iter_mut().find(|(p, ..)| p == phase) {
                        Some((_, m, d, n)) => {
                            *m += micros;
                            *d += detail;
                            *n += 1;
                        }
                        None => r.solver_phases.push((phase.clone(), *micros, *detail, 1)),
                    }
                }
                TraceEvent::Epoch { .. } => r.epochs += 1,
                TraceEvent::Merge { micros, .. } => {
                    r.merges += 1;
                    r.merge_timings.record(*micros);
                }
                TraceEvent::Failover { .. } => r.failovers += 1,
                TraceEvent::Recovery { .. } => r.recoveries += 1,
                TraceEvent::ObservedCost { accepted, .. } => {
                    if *accepted {
                        r.observed_accepted += 1;
                    } else {
                        r.observed_rejected += 1;
                    }
                }
                TraceEvent::Calibration { .. } => r.calibrations += 1,
                TraceEvent::Deploy { action, .. } => match action.as_str() {
                    "promote" => r.deploy_promotes += 1,
                    "rollback" => r.deploy_rollbacks += 1,
                    _ => r.deploy_candidates += 1,
                },
                TraceEvent::RunEnd {
                    strategy,
                    steps,
                    issued,
                    cached,
                    initial_cost,
                    final_cost,
                    micros,
                    ..
                } => {
                    if r.strategy.is_none() && !strategy.is_empty() {
                        r.strategy = Some(strategy.clone());
                    }
                    r.run_end =
                        Some((*steps, *issued, *cached, *initial_cost, *final_cost, *micros));
                }
            }
        }
        r
    }

    /// Split a multi-run event stream into per-run groups. A new group
    /// opens at every [`TraceEvent::RunStart`]; events before the first
    /// `RunStart` (e.g. from traces written by pre-envelope strategies)
    /// form a leading group of their own. One `--trace` file from
    /// `compare` or a daemon run therefore yields one group per strategy
    /// run, each attributable via its `strategy` label.
    pub fn split_runs(events: &[TraceEvent]) -> Vec<&[TraceEvent]> {
        let mut starts: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, TraceEvent::RunStart { .. }))
            .map(|(i, _)| i)
            .collect();
        if starts.first() != Some(&0) {
            starts.insert(0, 0);
        }
        starts
            .iter()
            .enumerate()
            .map(|(n, &lo)| {
                let hi = starts.get(n + 1).copied().unwrap_or(events.len());
                &events[lo..hi]
            })
            .filter(|g| !g.is_empty())
            .collect()
    }

    /// Aggregate a multi-run event stream into one [`RunReport`] per run
    /// (see [`split_runs`](Self::split_runs)).
    pub fn per_run(events: &[TraceEvent]) -> Vec<RunReport> {
        Self::split_runs(events)
            .into_iter()
            .map(Self::from_events)
            .collect()
    }

    /// Parse a JSON-lines trace (the [`JsonLinesSink`] format) into
    /// events, validating every line against the schema.
    ///
    /// # Errors
    ///
    /// Returns `Err` naming the first line that is not a valid event.
    pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
        let mut events = Vec::new();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event: TraceEvent = serde_json::from_str(line)
                .map_err(|e| format!("trace line {}: not a valid event: {e:?}", n + 1))?;
            events.push(event);
        }
        Ok(events)
    }

    /// Parse a binary trace (the [`BinaryTraceSink`] format) into
    /// events.
    ///
    /// # Errors
    ///
    /// Returns `Err` naming the byte offset of the first malformed or
    /// truncated event, or describing a bad header.
    pub fn parse_binary(bytes: &[u8]) -> Result<Vec<TraceEvent>, String> {
        match bytes {
            [] => return Err("empty trace: missing binary header".into()),
            [m, ..] if *m != TRACE_MAGIC => {
                return Err(format!("trace byte 0: {m:#04x} is not the trace magic {TRACE_MAGIC:#04x}"))
            }
            [_] => return Err("truncated trace: magic without version byte".into()),
            [_, v, ..] if *v != TRACE_VERSION => {
                return Err(format!("unsupported binary trace version {v} (expected {TRACE_VERSION})"))
            }
            _ => {}
        }
        let mut pos = 2usize;
        let mut events = Vec::new();
        while pos < bytes.len() {
            let at = pos;
            match get_event(bytes, &mut pos) {
                Some(e) => events.push(e),
                None => return Err(format!("trace byte {at}: malformed or truncated event")),
            }
        }
        Ok(events)
    }

    /// Parse a trace in either encoding, auto-detected by the first
    /// byte: [`TRACE_MAGIC`] selects [`parse_binary`](Self::parse_binary),
    /// anything else is treated as JSONL text.
    ///
    /// # Errors
    ///
    /// Returns the underlying parser's error, or a UTF-8 error for a
    /// non-binary stream that is not text.
    pub fn parse_trace(bytes: &[u8]) -> Result<Vec<TraceEvent>, String> {
        if bytes.first() == Some(&TRACE_MAGIC) {
            Self::parse_binary(bytes)
        } else {
            let text = std::str::from_utf8(bytes).map_err(|e| format!("trace is not UTF-8: {e}"))?;
            Self::parse_jsonl(text)
        }
    }

    /// Verify the what-if accounting invariant: the summed per-scan
    /// issued/cached deltas must equal the run totals.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch, or of a missing `RunEnd`.
    pub fn check_accounting(&self) -> Result<(), String> {
        let Some((_, issued, cached, ..)) = self.run_end else {
            return Err("trace has no RunEnd event".into());
        };
        if self.scan_issued != issued {
            return Err(format!(
                "scan-summed issued calls {} != run total {issued}",
                self.scan_issued
            ));
        }
        if self.scan_cached != cached {
            return Err(format!(
                "scan-summed cached answers {} != run total {cached}",
                self.scan_cached
            ));
        }
        Ok(())
    }

    /// Verify the paper's what-if call bound (Section III-A) in checked
    /// form: `issued < 6·Q·q̄ + Q`, matching the in-repo regression test.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation, or of missing events.
    pub fn check_call_bound(&self) -> Result<(), String> {
        let Some((_, issued, ..)) = self.run_end else {
            return Err("trace has no RunEnd event".into());
        };
        if self.total_width == 0 {
            return Err("trace has no RunStart event (total_width unknown)".into());
        }
        let bound = 6 * self.total_width + self.queries;
        if issued >= bound {
            return Err(format!(
                "issued {issued} what-if calls >= bound {bound} (6·Q·q̄ + Q, Q·q̄={})",
                self.total_width
            ));
        }
        Ok(())
    }

    /// Verify the deployment-gate accounting invariant: every promote
    /// or rollback closes a previously opened candidate, so `promotes +
    /// rollbacks <= candidates opened` (the difference is the
    /// in-flight probation count).
    ///
    /// # Errors
    ///
    /// Returns a description of the imbalance.
    pub fn check_deploy_accounting(&self) -> Result<(), String> {
        let closed = self.deploy_promotes + self.deploy_rollbacks;
        if closed > self.deploy_candidates {
            return Err(format!(
                "deploy gate closed {closed} candidates ({} promoted + {} rolled back) \
                 but only {} were opened",
                self.deploy_promotes, self.deploy_rollbacks, self.deploy_candidates
            ));
        }
        Ok(())
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        if let Some(strategy) = &self.strategy {
            let _ = writeln!(
                s,
                "run: {strategy}  queries={}  Q·q̄={}  budget={} bytes",
                self.queries, self.total_width, self.budget
            );
        }
        let _ = writeln!(
            s,
            "steps: {} add / {} morph / {} prune over {} candidate scans ({} candidates scored)",
            self.adds, self.morphs, self.prunes, self.scans, self.candidates_scored
        );
        let _ = writeln!(
            s,
            "what-if per scans: {} issued + {} cache-answered",
            self.scan_issued, self.scan_cached
        );
        if let Some((steps, issued, cached, initial, fin, micros)) = self.run_end {
            let _ = writeln!(
                s,
                "run totals: {steps} steps, {issued} issued + {cached} cached, \
                 cost {initial:.3e} -> {fin:.3e}, {:.3}s",
                micros as f64 / 1e6
            );
        }
        let timing = |s: &mut String, what: &str, h: &TimingHistogram| {
            let _ = writeln!(
                s,
                "{what} timing: {} samples, mean {:.0}us",
                h.samples(),
                h.mean_micros()
            );
            for (lo, count) in h.buckets() {
                let _ = writeln!(s, "  >= {lo:>9}us  {count}");
            }
        };
        if self.step_timings.samples() > 0 {
            timing(&mut s, "scan", &self.step_timings);
        }
        for (phase, micros, detail, n) in &self.solver_phases {
            let _ = writeln!(
                s,
                "phase {phase}: {n}x, {:.3}s total, detail={detail}",
                *micros as f64 / 1e6
            );
        }
        if self.epochs > 0 {
            let _ = writeln!(s, "epochs: {}", self.epochs);
        }
        if self.merges > 0 {
            let _ = writeln!(s, "merges: {}", self.merges);
            timing(&mut s, "merge", &self.merge_timings);
        }
        if self.failovers > 0 {
            let _ = writeln!(s, "failovers: {}", self.failovers);
        }
        if self.recoveries > 0 {
            let _ = writeln!(s, "recoveries: {}", self.recoveries);
        }
        if self.observed_accepted + self.observed_rejected > 0 || self.calibrations > 0 {
            let _ = writeln!(
                s,
                "observed-cost probes: {} accepted + {} rejected, {} calibrated tunes",
                self.observed_accepted, self.observed_rejected, self.calibrations
            );
        }
        if self.deploy_candidates > 0 {
            let _ = writeln!(
                s,
                "deploy gate: {} candidates -> {} promoted / {} rolled back / {} in flight",
                self.deploy_candidates,
                self.deploy_promotes,
                self.deploy_rollbacks,
                self.deploy_candidates - (self.deploy_promotes + self.deploy_rollbacks).min(self.deploy_candidates)
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                strategy: "H6".into(),
                queries: 10,
                total_width: 30,
                budget: 1_000,
                shard: None,
            },
            TraceEvent::CandidateScan {
                step: 0,
                candidates: 5,
                queries_recosted: 10,
                issued: 12,
                cached: 0,
                micros: 100,
            },
            TraceEvent::Step {
                step: 1,
                kind: StepKind::Add,
                index: Some(3),
                benefit: 4.0,
                memory_delta: 8,
                ratio: 0.5,
                total_memory: 8,
                total_cost: 6.0,
            },
            TraceEvent::CandidateScan {
                step: 1,
                candidates: 5,
                queries_recosted: 2,
                issued: 6,
                cached: 4,
                micros: 900,
            },
            TraceEvent::RunEnd {
                strategy: "H6".into(),
                steps: 1,
                issued: 18,
                cached: 4,
                initial_cost: 10.0,
                final_cost: 6.0,
                micros: 1_500,
                shard: None,
            },
        ]
    }

    #[test]
    fn disabled_trace_never_runs_the_closure() {
        let trace = Trace::disabled();
        trace.emit(|| panic!("must not be constructed"));
        assert!(!trace.is_enabled());
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let sink = VecSink::new();
        let trace = Trace::to(&sink);
        assert!(trace.is_enabled());
        for e in sample_events() {
            trace.emit(|| e.clone());
        }
        assert_eq!(sink.events(), sample_events());
        assert_eq!(sink.take().len(), 5);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn json_lines_round_trip_preserves_events() {
        let sink = JsonLinesSink::new(Vec::new());
        for e in sample_events() {
            sink.record(e);
        }
        assert_eq!(sink.write_errors(), 0);
        let bytes = sink.finish().expect("flush");
        let text = String::from_utf8(bytes).expect("utf8");
        assert_eq!(text.lines().count(), 5);
        let parsed = RunReport::parse_jsonl(&text).expect("valid schema");
        assert_eq!(parsed, sample_events());
    }

    #[test]
    fn binary_round_trip_preserves_events_and_is_smaller() {
        // Exercise every event kind, optional-field state and a negative
        // memory delta (zigzag path).
        let mut events = sample_events();
        events.push(TraceEvent::SolverPhase {
            phase: "cophy_build".into(),
            detail: 100,
            micros: 5,
        });
        events.push(TraceEvent::Epoch {
            epoch: 2,
            policy: "adapt".into(),
            indexes: 4,
            workload_cost: 12.5,
            reconfig_paid: 0.25,
        });
        events.push(TraceEvent::Step {
            step: 2,
            kind: StepKind::Prune,
            index: None,
            benefit: -0.0,
            memory_delta: -64,
            ratio: 2.2250738585072014e-308,
            total_memory: 0,
            total_cost: 6.0,
        });
        events.push(TraceEvent::Merge {
            parts: 7,
            dirty: 2,
            recombined: 9,
            budget: 1 << 20,
            total_memory: 900_000,
            total_cost: 123.456,
            reallocated: 3,
            micros: 42,
        });
        events.push(TraceEvent::Failover {
            shard: 2,
            generation: 5,
            replayed: 1_234,
            adopted_by: 0,
            micros: 777,
        });
        events.push(TraceEvent::Recovery {
            generation: 4,
            skipped: 96,
            journal_bytes: 8_192,
            micros: 555,
        });
        events.push(TraceEvent::ObservedCost { table: 7, cost: 1.25, accepted: true });
        events.push(TraceEvent::ObservedCost { table: 0, cost: 0.0, accepted: false });
        events.push(TraceEvent::Calibration { probes: 40, rejected: 2, templates: 6 });
        events.push(TraceEvent::Deploy {
            action: "rollback".into(),
            table: 3,
            epoch: 11,
            incumbent_cost: 100.0,
            candidate_cost: 250.5,
        });
        if let TraceEvent::RunEnd { shard, .. } = &mut events[4] {
            *shard = Some(3);
        }
        let sink = BinaryTraceSink::new(Vec::new());
        for e in &events {
            sink.record(e.clone());
        }
        assert_eq!(sink.write_errors(), 0);
        let bytes = sink.finish().expect("flush");
        assert_eq!(&bytes[..2], &[TRACE_MAGIC, TRACE_VERSION]);
        let parsed = RunReport::parse_binary(&bytes).expect("valid stream");
        assert_eq!(parsed, events, "bit-exact round trip incl. floats");
        assert_eq!(RunReport::parse_trace(&bytes).unwrap(), events, "auto-detect binary");

        let json = JsonLinesSink::new(Vec::new());
        for e in &events {
            json.record(e.clone());
        }
        let json_bytes = json.finish().expect("flush");
        assert!(
            bytes.len() * 3 < json_bytes.len(),
            "binary {} should be well under a third of JSONL {}",
            bytes.len(),
            json_bytes.len()
        );
        assert_eq!(
            RunReport::parse_trace(&json_bytes).unwrap(),
            events,
            "auto-detect falls back to JSONL"
        );
    }

    #[test]
    fn binary_parser_rejects_corruption_with_position() {
        let sink = BinaryTraceSink::new(Vec::new());
        for e in sample_events() {
            sink.record(e);
        }
        let bytes = sink.finish().expect("flush");

        // Every strict prefix either parses fewer events or errors with a
        // position — never panics, never invents events.
        for cut in 0..bytes.len() {
            match RunReport::parse_binary(&bytes[..cut]) {
                Ok(events) => assert!(events.len() <= 5),
                Err(e) => assert!(
                    e.contains("byte") || e.contains("header") || e.contains("truncated"),
                    "unpositioned error: {e}"
                ),
            }
        }
        // Unknown version and unknown tag are rejected.
        let mut bad = bytes.clone();
        bad[1] = 9;
        assert!(RunReport::parse_binary(&bad).unwrap_err().contains("version 9"));
        let mut bad = bytes.clone();
        bad[2] = 0xFF;
        assert!(RunReport::parse_binary(&bad).unwrap_err().contains("byte 2"));
        // An empty run is a valid header-only stream.
        let empty = BinaryTraceSink::new(Vec::new()).finish().expect("flush");
        assert_eq!(RunReport::parse_binary(&empty).unwrap(), vec![]);
    }

    #[test]
    fn malformed_lines_are_rejected_with_position() {
        let err = RunReport::parse_jsonl("{\"NotAnEvent\":{}}").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = RunReport::parse_jsonl("not json at all").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn report_aggregates_and_invariants_hold() {
        let r = RunReport::from_events(&sample_events());
        assert_eq!(r.strategy.as_deref(), Some("H6"));
        assert_eq!((r.adds, r.morphs, r.prunes), (1, 0, 0));
        assert_eq!(r.scans, 2);
        assert_eq!(r.scan_issued, 18);
        assert_eq!(r.scan_cached, 4);
        assert_eq!(r.step_timings.samples(), 2);
        r.check_accounting().expect("sums match run end");
        r.check_call_bound().expect("18 < 6*30 + 10");
        let rendered = r.render();
        assert!(rendered.contains("H6"));
        assert!(rendered.contains("1 add"));
    }

    #[test]
    fn report_flags_broken_accounting_and_bound() {
        let mut events = sample_events();
        if let TraceEvent::RunEnd { issued, .. } = &mut events[4] {
            *issued = 999;
        }
        let r = RunReport::from_events(&events);
        assert!(r.check_accounting().is_err());
        assert!(r.check_call_bound().is_err(), "999 >= 6*30+10");
        // Missing RunEnd is reported, not silently passed.
        let r = RunReport::from_events(&events[..4]);
        assert!(r.check_accounting().unwrap_err().contains("RunEnd"));
    }

    #[test]
    fn deploy_accounting_balances_opened_against_closed() {
        let deploy = |action: &str| TraceEvent::Deploy {
            action: action.into(),
            table: 1,
            epoch: 4,
            incumbent_cost: 10.0,
            candidate_cost: 10.5,
        };
        let events = vec![
            TraceEvent::ObservedCost { table: 1, cost: 2.0, accepted: true },
            TraceEvent::ObservedCost { table: 1, cost: -1.0, accepted: false },
            TraceEvent::Calibration { probes: 1, rejected: 1, templates: 1 },
            deploy("candidate"),
            deploy("promote"),
            deploy("candidate"),
        ];
        let r = RunReport::from_events(&events);
        assert_eq!((r.observed_accepted, r.observed_rejected), (1, 1));
        assert_eq!(r.calibrations, 1);
        assert_eq!((r.deploy_candidates, r.deploy_promotes, r.deploy_rollbacks), (2, 1, 0));
        r.check_deploy_accounting().expect("one candidate still in flight");
        let rendered = r.render();
        assert!(rendered.contains("2 candidates"), "{rendered}");
        assert!(rendered.contains("1 in flight"), "{rendered}");

        // A promote or rollback without a matching candidate is flagged.
        let broken = RunReport::from_events(&[deploy("rollback")]);
        assert!(broken.check_deploy_accounting().unwrap_err().contains("opened"));
    }

    #[test]
    fn split_runs_groups_per_strategy() {
        // Two back-to-back runs in one stream — the `compare` shape.
        let mut events = sample_events();
        let mut second = sample_events();
        if let TraceEvent::RunStart { strategy, .. } = &mut second[0] {
            *strategy = "H5".into();
        }
        if let TraceEvent::RunEnd { strategy, .. } = &mut second[4] {
            *strategy = "H5".into();
        }
        events.extend(second);
        let groups = RunReport::split_runs(&events);
        assert_eq!(groups.len(), 2);
        let reports = RunReport::per_run(&events);
        assert_eq!(reports[0].strategy.as_deref(), Some("H6"));
        assert_eq!(reports[1].strategy.as_deref(), Some("H5"));
        for r in &reports {
            r.check_accounting().expect("per-run sums match");
        }
        // The combined stream would have failed: scans accumulate across
        // runs while RunEnd overwrites.
        assert!(RunReport::from_events(&events).check_accounting().is_err());
        // Events before the first RunStart form a leading group; its
        // strategy is backfilled from the RunEnd label.
        let headless = &events[1..];
        assert_eq!(RunReport::split_runs(headless).len(), 2);
        assert_eq!(
            RunReport::per_run(headless)[0].strategy.as_deref(),
            Some("H6")
        );
    }

    #[test]
    fn run_end_strategy_defaults_for_old_traces() {
        // Traces written before RunEnd carried a strategy label must still
        // parse; the field defaults to "".
        let old = "{\"RunEnd\":{\"steps\":1,\"issued\":2,\"cached\":0,\
                    \"initial_cost\":1.0,\"final_cost\":0.5,\"micros\":7}}";
        let events = RunReport::parse_jsonl(old).expect("old schema parses");
        match &events[0] {
            TraceEvent::RunEnd { strategy, issued, .. } => {
                assert_eq!(strategy, "");
                assert_eq!(*issued, 2);
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(RunReport::from_events(&events).strategy.is_none());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = TimingHistogram::default();
        for micros in [0, 1, 2, 3, 4, 1000] {
            h.record(micros);
        }
        assert_eq!(h.samples(), 6);
        let buckets = h.buckets();
        // 0 -> bucket 0; 1 -> [1,2); 2,3 -> [2,4); 4 -> [4,8); 1000 -> [512,1024).
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (4, 1), (512, 1)]);
        assert!((h.mean_micros() - 1010.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn report_prints_merge_timings_after_the_merges_line() {
        let merge = |micros| TraceEvent::Merge {
            parts: 60,
            dirty: 1,
            recombined: 7,
            budget: 1 << 30,
            total_memory: 1 << 29,
            total_cost: 1.0,
            reallocated: 0,
            micros,
        };
        let r = RunReport::from_events(&[merge(100), merge(3_000), merge(3_500)]);
        assert_eq!(r.merges, 3);
        assert_eq!(r.merge_timings.samples(), 3);
        assert_eq!(r.merge_timings.buckets(), vec![(64, 1), (2048, 2)]);
        let text = r.render();
        assert!(
            text.contains(
                "merges: 3\nmerge timing: 3 samples, mean 2200us\n  \
                 >=        64us  1\n  >=      2048us  2\n"
            ),
            "{text}"
        );
        // No merges, no merge lines.
        assert!(!RunReport::from_events(&[]).render().contains("merge"));
    }

    #[test]
    fn solver_phases_aggregate_by_label() {
        let events = vec![
            TraceEvent::SolverPhase { phase: "db2_swap_rounds".into(), detail: 3, micros: 10 },
            TraceEvent::SolverPhase { phase: "db2_swap_rounds".into(), detail: 2, micros: 30 },
            TraceEvent::SolverPhase { phase: "cophy_build".into(), detail: 100, micros: 5 },
        ];
        let r = RunReport::from_events(&events);
        assert_eq!(
            r.solver_phases,
            vec![
                ("db2_swap_rounds".to_string(), 40, 5, 2),
                ("cophy_build".to_string(), 5, 100, 1),
            ]
        );
    }
}
