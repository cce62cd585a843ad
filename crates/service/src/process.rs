//! Multi-process serving: a router/supervisor process fronting `N`
//! worker child processes, failure-invariant by construction.
//!
//! ## Topology
//!
//! The **supervisor** owns everything shared: the input (stdin or the
//! listening socket), the journal, the [`Arbiter`] and its maintained
//! global-budget merge, the checkpoint `Committer`, the
//! [`StatusBoard`] and the trace sink. Each **worker** is a child
//! process (`isel worker`, spawned from the supervisor's own
//! executable) hosting one or more *shards* — the same per-table-group
//! tuning state a [`crate::router::Router`] shard thread holds, behind
//! the same `GroupHost` (`group.rs`).
//!
//! The wire between them is the binary frame protocol of
//! [`crate::frame`]: the supervisor writes frames onto each worker's
//! stdin pipe, carrying either a [`SupMsg`] (JSON inside a
//! [`WireItem::Sup`] item) or one event line (a [`WireItem::Raw`]
//! item); the worker answers with [`WorkerMsg`] JSON lines on stdout.
//! Events always travel as **canonical JSONL lines** — binary input is
//! re-rendered by the supervisor through its template dictionary
//! ([`render_query`]) — so a worker's stream is self-contained: no
//! dictionary state spans the pipe, which is what makes a journal tail
//! replayable to a *different* worker after a crash.
//!
//! ## Liveness and failover
//!
//! The supervisor keeps a per-shard **tail**: every line routed to a
//! shard since the last committed checkpoint generation (appended
//! *before* the pipe write, so a line lost in a dying worker's pipe
//! buffer is always still in the tail). Worker death is observed as
//! EOF on the worker's stdout (the collector thread drains every
//! buffered message first — ordering matters for arbiter publishes) or
//! as a failed write (`EPIPE`) to its stdin pipe, whichever comes first.
//! Failover then, per dead shard:
//!
//! 1. restores the shard onto a survivor (or a respawned replacement,
//!    under [`ServiceConfig::respawn`]) from the last *committed*
//!    `manifest.shard-{k}.g{g}.json` checkpoint, whose contents ride
//!    inside the [`SupMsg::Adopt`] itself;
//! 2. replays the shard's journal tail — checkpoint barriers inside
//!    the tail are re-sent **scoped to that shard only**, so an
//!    adopter's other shards never re-checkpoint at advanced state;
//! 3. emits one [`TraceEvent::Failover`] and bumps the board's
//!    `failovers` (and `restarts`, when a replacement was spawned).
//!
//! ## Why selections are failure-invariant
//!
//! Group state is deterministic in the event prefix: a shard restored
//! from generation `g` and fed the tail since `g` reaches exactly the
//! state the dead worker had, then continues identically. Re-reported
//! epoch outcomes are bit-identical, so the supervisor deduplicates
//! them by `(table, epoch)`; re-published frontiers fold into the
//! arbiter idempotently (clean republish is skipped, and the tail
//! replay always ends at the same last-published frontier per table).
//! The final merged selection depends only on those last publications
//! and the global budget — hence byte-identical with and without a
//! `SIGKILL` at *any* event position, the invariant pinned by the CLI
//! failover tests.

use crate::arbiter::{global_budget, Arbiter, InteractiveRegistry, PublishedFrontier};
use crate::checkpoint::{shard_file, Manifest, ShardCheckpoint};
use crate::config::ServiceConfig;
use crate::event::Control;
use crate::fault;
use crate::feedback::CalSnapshot;
use crate::frame::{put_frame, put_item, render_query, WireItem, MAX_PAYLOAD};
use crate::group::{Env, GroupHost, Sealed};
use crate::records::{Record, RecordIter};
use crate::router::{Committer, ServiceReport};
use crate::shard::ShardMap;
use crate::status::{take_status_signal, StatusBoard};
use crate::stream::{Decision, Stream};
use crate::tuner::EpochOutcome;
use isel_core::{Trace, TraceEvent, TraceSink};
use isel_workload::{QueryKind, Schema};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Supervisor → worker messages, carried as [`WireItem::Sup`] frames on
/// the worker's stdin pipe (interleaved with [`WireItem::Raw`] event
/// lines).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SupMsg {
    /// First message of every spawn: the schema and configuration the
    /// worker tunes under, plus the shards it initially hosts (each
    /// starts fresh; restores arrive as separate [`SupMsg::Adopt`]s).
    Hello {
        /// Workload schema (shared by every shard; boxed to keep the
        /// enum small — every other variant is a few words).
        schema: Box<Schema>,
        /// Service configuration (shared by every shard).
        config: Box<ServiceConfig>,
        /// Shards this worker hosts from the start.
        shards: Vec<u32>,
        /// Checkpoint manifest path, when checkpointing is on; shard
        /// files are derived from it exactly as the in-process router
        /// derives them ([`shard_file`]).
        manifest: Option<String>,
    },
    /// Switch the *current shard*: subsequent raw event lines ingest
    /// into this shard until the next `Shard` message.
    Shard {
        /// The shard now receiving raw lines.
        shard: u32,
    },
    /// Checkpoint barrier: serialize each targeted hosted shard as a
    /// [`ShardCheckpoint`] and report [`WorkerMsg::CheckpointDone`].
    Barrier {
        /// Barrier generation (monotonic, supervisor-assigned).
        generation: u64,
        /// Shards to checkpoint; `None` means every hosted shard. Tail
        /// replays scope this to the failed-over shard so an adopter's
        /// other shards never re-checkpoint at advanced state.
        shards: Option<Vec<u32>>,
    },
    /// In-band interactive-query barrier: acknowledge with
    /// [`WorkerMsg::Ack`] once every line queued before this point has
    /// been consumed. The supervisor answers from the arbiter when all
    /// live workers have acknowledged.
    Query {
        /// Query id matching the acknowledgement to the waiter.
        id: u64,
    },
    /// Host (or re-host) a shard: restore it from a shard checkpoint
    /// document, or create it fresh when no committed generation
    /// exists.
    Adopt {
        /// The shard to host.
        shard: u32,
        /// Serialized [`ShardCheckpoint`] to restore from (`None` =
        /// fresh). Contents, not a path: the supervisor snapshots the
        /// document under its committer lock, so the file GC that runs
        /// when later generations commit can never race the adoption.
        data: Option<String>,
    },
    /// Drain, report one [`WorkerMsg::Final`] per hosted shard, exit.
    Shutdown,
}

/// Worker → supervisor messages, one JSON object per stdout line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WorkerMsg {
    /// The worker is up and parsed its [`SupMsg::Hello`].
    Ready,
    /// A sealed epoch was tuned. Carries the shard's cumulative
    /// absolute counters so the supervisor's status line stays fresh
    /// without extra round trips.
    Outcome {
        /// Shard the epoch sealed on.
        shard: u32,
        /// The tuning outcome (bit-identical on re-report after a
        /// failover replay; the supervisor deduplicates by
        /// `(table, epoch)`).
        outcome: EpochOutcome,
        /// Valid events ingested by this shard so far (absolute).
        ingested: u64,
        /// Invalid lines counted by this shard so far (absolute).
        invalid: u64,
        /// Dropped-event count carried by this shard (absolute; only
        /// non-zero when restored from a checkpoint that had drops).
        dropped: u64,
    },
    /// A group re-selected and published a new frontier for the
    /// supervisor's arbiter to fold into the global-budget merge.
    Publish {
        /// Table group that re-selected.
        table: u16,
        /// The published frontier (construction steps included).
        pf: PublishedFrontier,
    },
    /// One shard's checkpoint file for a barrier generation is on disk.
    CheckpointDone {
        /// Shard that wrote the file.
        shard: u32,
        /// Barrier generation the file belongs to.
        generation: u64,
        /// Path of the shard file (supervisor-side `Committer` input).
        file: String,
    },
    /// Acknowledge an in-band [`SupMsg::Query`] barrier.
    Ack {
        /// The acknowledged query id.
        id: u64,
        /// Cumulative `(shard, ingested, invalid, dropped)` counters
        /// for every hosted shard at the barrier point. Ingest counters
        /// otherwise refresh only when an epoch seals; riding them on
        /// the ack keeps the in-band contract — an interactive status
        /// reply reflects exactly the events that precede the query.
        counts: Vec<(u32, u64, u64, u64)>,
        /// Per-shard absolute calibration counter sums at the barrier
        /// point, summed over the shard's groups. Defaulted so streams
        /// recorded before the feedback subsystem still parse.
        #[serde(default)]
        cal: Vec<(u32, CalSnapshot)>,
    },
    /// Final absolute counters for one hosted shard, sent at shutdown.
    Final {
        /// The shard reported on.
        shard: u32,
        /// Valid events ingested (absolute).
        ingested: u64,
        /// Invalid lines counted (absolute).
        invalid: u64,
        /// Dropped-event count carried (absolute).
        dropped: u64,
    },
    /// The worker hit an unrecoverable error (checkpoint I/O, restore
    /// failure) and is about to exit. The supervisor fails the whole
    /// run with this message instead of cycling a doomed shard through
    /// adopt → die failovers that can never succeed.
    Fatal {
        /// Human-readable cause, verbatim from the failing operation.
        message: String,
    },
}

/// Encode one [`SupMsg`] as a binary frame.
fn sup_frame(msg: &SupMsg) -> Result<Vec<u8>, String> {
    let json = serde_json::to_string(msg).map_err(|e| format!("serialize SupMsg: {e}"))?;
    let mut payload = Vec::new();
    put_item(&mut payload, &WireItem::Sup(json.into_bytes()));
    if payload.len() > MAX_PAYLOAD {
        return Err(format!(
            "supervisor message over the {MAX_PAYLOAD}-byte frame payload limit"
        ));
    }
    let mut frame = Vec::new();
    put_frame(&mut frame, &payload);
    Ok(frame)
}

/// Best-effort [`WorkerMsg::Fatal`] report, sent right before the
/// worker exits with an error. A dead supervisor pipe is ignored —
/// there is nobody left to tell.
fn send_fatal<W: Write>(out: &mut W, message: &str) {
    let msg = WorkerMsg::Fatal { message: message.to_owned() };
    if let Ok(json) = serde_json::to_string(&msg) {
        let _ = writeln!(out, "{json}").and_then(|()| out.flush());
    }
}

/// Encode one raw event line as a binary frame.
fn raw_frame(line: &str) -> Vec<u8> {
    let mut payload = Vec::new();
    put_item(&mut payload, &WireItem::Raw(line.as_bytes().to_vec()));
    let mut frame = Vec::new();
    put_frame(&mut frame, &payload);
    frame
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// The `isel worker` entrypoint: host shards over the stdin/stdout pipe
/// protocol until [`SupMsg::Shutdown`] or EOF. Never called directly by
/// users — the supervisor spawns it from its own executable.
///
/// Worker runs do not write their own trace files (the supervisor owns
/// the single trace, carrying [`TraceEvent::Merge`] and
/// [`TraceEvent::Failover`] events); per-run tuning traces remain an
/// in-process (`--shards`) feature.
///
/// # Errors
///
/// Returns protocol violations (first message not `Hello`, corrupt
/// frame) and checkpoint I/O failures. A failed stdout write means the
/// supervisor is gone; the worker exits quietly.
pub fn run_worker() -> Result<(), String> {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    run_worker_io(stdin.lock(), stdout.lock())
}

/// [`run_worker`] over explicit streams, so unit tests can drive the
/// full protocol through in-memory buffers.
pub fn run_worker_io<R: BufRead, W: Write>(input: R, mut out: W) -> Result<(), String> {
    let mut records = RecordIter::new(input);

    // Protocol: the first record must be the Hello.
    let (schema, config, initial_shards, manifest) = match records.next() {
        Some(Record::Item(WireItem::Sup(json))) => {
            match std::str::from_utf8(&json)
                .map_err(|e| format!("{e}"))
                .and_then(|s| serde_json::from_str::<SupMsg>(s).map_err(|e| format!("{e}")))
            {
                Ok(SupMsg::Hello { schema, config, shards, manifest }) => {
                    (*schema, *config, shards, manifest.map(PathBuf::from))
                }
                Ok(other) => {
                    return Err(format!("worker protocol: expected Hello, got {other:?}"))
                }
                Err(e) => return Err(format!("worker protocol: bad Hello: {e}")),
            }
        }
        other => return Err(format!("worker protocol: expected Hello frame, got {other:?}")),
    };
    let env = Env::new(&schema, &config);
    let mut hosts: BTreeMap<u32, GroupHost> =
        initial_shards.into_iter().map(|k| (k, GroupHost::default())).collect();
    let mut current: Option<u32> = None;
    // Shard documents' JSON, reused by every generation of every shard.
    let mut doc = String::new();

    // A stdout write fails only when the supervisor died; exit quietly
    // (the replacement supervisor story is "restart the service").
    let mut gone = false;
    macro_rules! send {
        ($msg:expr) => {{
            let json = serde_json::to_string(&$msg)
                .map_err(|e| format!("serialize WorkerMsg: {e}"))?;
            if writeln!(out, "{json}").and_then(|()| out.flush()).is_err() {
                gone = true;
            }
        }};
    }
    send!(WorkerMsg::Ready);

    for record in records {
        if gone {
            return Ok(());
        }
        match record {
            Record::Item(WireItem::Sup(json)) => {
                let msg: SupMsg = std::str::from_utf8(&json)
                    .map_err(|e| format!("worker protocol: bad SupMsg: {e}"))
                    .and_then(|s| {
                        serde_json::from_str(s)
                            .map_err(|e| format!("worker protocol: bad SupMsg: {e}"))
                    })?;
                match msg {
                    SupMsg::Hello { .. } => {
                        return Err("worker protocol: duplicate Hello".into())
                    }
                    SupMsg::Shard { shard } => current = Some(shard),
                    SupMsg::Query { id } => {
                        let counts = hosts
                            .iter()
                            .map(|(k, h)| (*k, h.ingested, h.invalid, h.dropped))
                            .collect();
                        let cal = hosts.iter().map(|(k, h)| (*k, h.calibration())).collect();
                        send!(WorkerMsg::Ack { id, counts, cal });
                    }
                    SupMsg::Adopt { shard, data } => {
                        let restore = || match &data {
                            Some(text) => GroupHost::adopt(
                                &ShardCheckpoint::from_json(text)?,
                                &schema,
                                &config,
                            ),
                            None => Ok(GroupHost::default()),
                        };
                        let host = match restore() {
                            Ok(host) => host,
                            Err(e) => {
                                send_fatal(&mut out, &e);
                                return Err(e);
                            }
                        };
                        // Re-publish restored frontiers so the
                        // supervisor's arbiter reflects the adopted
                        // state (idempotent: a clean republish is
                        // skipped arbiter-side, and the tail replay
                        // converges to the same last publication per
                        // table).
                        for (table, pf) in host.published() {
                            send!(WorkerMsg::Publish { table, pf: (**pf).clone() });
                        }
                        hosts.insert(shard, host);
                    }
                    SupMsg::Barrier { generation, shards } => {
                        let targets: Vec<u32> = match shards {
                            Some(list) => list,
                            None => hosts.keys().copied().collect(),
                        };
                        let Some(manifest) = &manifest else {
                            // No checkpoint path: barriers are no-ops,
                            // exactly like the in-process worker's.
                            continue;
                        };
                        for k in targets {
                            let Some(host) = hosts.get_mut(&k) else { continue };
                            let cp = host.capture(&config, k, generation);
                            let file = shard_file(manifest, k, generation);
                            // A failed save (unwritable directory, full
                            // disk) would fail every adopter the same
                            // way — report it so the supervisor aborts
                            // instead of failing over in circles.
                            if let Err(e) = cp.save_with(&file, &mut doc) {
                                send_fatal(&mut out, &e);
                                return Err(e);
                            }
                            // The file is written but CheckpointDone is
                            // not sent — a kill here is a torn
                            // checkpoint attempt. Saves are sequential
                            // from generation 1 on an initially
                            // scheduled worker, so hit ≡ generation.
                            fault::fire(fault::WORKER_CHECKPOINT, k)?;
                            send!(WorkerMsg::CheckpointDone {
                                shard: k,
                                generation,
                                file: file.to_string_lossy().into_owned(),
                            });
                        }
                    }
                    SupMsg::Shutdown => break,
                }
            }
            Record::Item(WireItem::Raw(bytes)) => {
                let line = String::from_utf8_lossy(&bytes);
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                // Protocol: a line before any Shard message, or for a
                // shard this worker does not host, has no home; the
                // supervisor never sends one.
                let Some(shard) = current else { continue };
                let Some(host) = hosts.get_mut(&shard) else { continue };
                let before = host.ingested;
                let sealed = host.line(&env, trimmed, Trace::disabled(), None);
                if host.ingested != before {
                    // One hit per ingested query event, and fresh workers
                    // count from 0, so the hit count equals the shard's
                    // ingested count. Nothing about this event has left
                    // the process yet: a kill here loses it whole, and an
                    // injected error exits the worker like a crash — no
                    // Fatal report, so the supervisor fails the shard
                    // over.
                    fault::fire(fault::WORKER_INGEST, shard)?;
                }
                if let Some(Sealed { mut outcome, publish }) = sealed {
                    outcome.shard = Some(shard);
                    send!(WorkerMsg::Outcome {
                        shard,
                        outcome,
                        ingested: host.ingested,
                        invalid: host.invalid,
                        dropped: host.dropped,
                    });
                    if let Some((table, pf)) = publish {
                        send!(WorkerMsg::Publish { table, pf: (*pf).clone() });
                    }
                }
            }
            // The supervisor sends only Sup and Raw frames; anything
            // else is a protocol violation worth failing loudly on.
            other => return Err(format!("worker protocol: unexpected record {other:?}")),
        }
    }
    for (k, host) in &hosts {
        if gone {
            break;
        }
        send!(WorkerMsg::Final {
            shard: *k,
            ingested: host.ingested,
            invalid: host.invalid,
            dropped: host.dropped,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------

/// One journal-tail entry of a shard: an event line, or a checkpoint
/// barrier at its exact stream position.
enum TailEntry {
    Line(String),
    Barrier(u64),
}

/// One persisted epoch outcome: the `(table, epoch)` dedupe key plus
/// the outcome the worker reported.
type OutcomeEntry = (u16, u64, EpochOutcome);

fn save_outcomes(path: &Path, entries: &Vec<OutcomeEntry>) -> Result<(), String> {
    let json = serde_json::to_string(entries).map_err(|e| e.to_string())?;
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, json).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, path).map_err(|e| e.to_string())
}

/// Load the outcome sidecar; a missing or unreadable file is an empty
/// history (a fresh state directory, or a crash before the first
/// commit edge).
fn load_outcomes(path: &Path) -> BTreeMap<(u16, u64), EpochOutcome> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeMap::new();
    };
    let Ok(entries) = serde_json::from_str::<Vec<OutcomeEntry>>(&text) else {
        return BTreeMap::new();
    };
    entries.into_iter().map(|(t, e, o)| ((t, e), o)).collect()
}

/// Drop everything up to and including the barrier of `generation` —
/// that prefix is durable once the generation's manifest commits.
fn truncate_tail(tail: &mut VecDeque<TailEntry>, generation: u64) {
    if let Some(pos) = tail
        .iter()
        .position(|e| matches!(e, TailEntry::Barrier(g) if *g == generation))
    {
        tail.drain(..=pos);
    }
}

/// An interactive query waiting for every live worker to pass its
/// in-band barrier.
struct PendingInteractive {
    control: Control,
    waiting: std::collections::HashSet<usize>,
    reply: Option<Sender<String>>,
}

/// State shared between the supervisor's routing loop and the
/// per-worker collector threads.
struct Shared<'a> {
    /// Epoch outcomes keyed by `(table, epoch)` — the key under which a
    /// failover replay's re-reported (bit-identical) outcomes dedupe.
    outcomes: Mutex<BTreeMap<(u16, u64), EpochOutcome>>,
    /// Per-shard absolute counters `(ingested, invalid, dropped)` as
    /// last reported by the hosting worker.
    counts: Mutex<BTreeMap<u32, (u64, u64, u64)>>,
    /// Per-shard absolute calibration counter sums, as last reported on
    /// a worker ack.
    cal: Mutex<BTreeMap<u32, CalSnapshot>>,
    /// Outstanding interactive queries by id.
    pending: Mutex<HashMap<u64, PendingInteractive>>,
    /// Per-shard journal tails since the last committed generation.
    tails: Mutex<BTreeMap<u32, VecDeque<TailEntry>>>,
    /// First hard failure reported by a collector (checkpoint I/O).
    failure: Mutex<Option<String>>,
    board: &'a StatusBoard,
    committer: Option<&'a Committer<'a>>,
    arbiter: &'a Arbiter,
    sink: Option<&'a dyn TraceSink>,
    /// Restart sidecar paths under `--state-dir`: persisted status
    /// counters and the committed epoch-outcome history.
    status_path: Option<PathBuf>,
    outcomes_path: Option<PathBuf>,
}

impl Shared<'_> {
    fn set_counts(&self, shard: u32, ingested: u64, invalid: u64, dropped: u64) {
        let mut c = self.counts.lock().expect("counts lock poisoned");
        c.insert(shard, (ingested, invalid, dropped));
        let (i, v) = c
            .values()
            .fold((0u64, 0u64), |(i, v), &(ci, cv, _)| (i + ci, v + cv));
        self.board.ingested.store(i, Ordering::Relaxed);
        self.board.invalid.store(v, Ordering::Relaxed);
    }

    fn set_cal(&self, shard: u32, snap: CalSnapshot) {
        let mut cal = self.cal.lock().expect("cal lock poisoned");
        cal.insert(shard, snap);
        let mut total = CalSnapshot::default();
        for s in cal.values() {
            total.add(s);
        }
        self.board.cal.store(&total);
    }

    fn cal_total(&self) -> CalSnapshot {
        let cal = self.cal.lock().expect("cal lock poisoned");
        let mut total = CalSnapshot::default();
        for s in cal.values() {
            total.add(s);
        }
        total
    }

    fn dropped_total(&self) -> u64 {
        self.counts
            .lock()
            .expect("counts lock poisoned")
            .values()
            .map(|c| c.2)
            .sum()
    }

    fn fail(&self, e: String) {
        self.failure
            .lock()
            .expect("failure lock poisoned")
            .get_or_insert(e);
    }

    fn take_failure(&self) -> Option<String> {
        self.failure.lock().expect("failure lock poisoned").take()
    }

    /// Rewrite the restart sidecars (tmp + rename, best-effort). Called
    /// on every commit edge — the exact point journal replay resumes
    /// from — plus after each failover and at end of run, so a
    /// restarted supervisor reloads counters and epoch history at least
    /// as fresh as the checkpoint it restores.
    fn persist_sidecars(&self) {
        if let Some(p) = &self.status_path {
            let _ = crate::status::PersistedStatus::capture(self.board).save(p);
        }
        if let Some(p) = &self.outcomes_path {
            let snapshot: Vec<OutcomeEntry> = {
                let map = self.outcomes.lock().expect("outcomes lock poisoned");
                map.iter().map(|(&(t, e), o)| (t, e, o.clone())).collect()
            };
            let _ = save_outcomes(p, &snapshot);
        }
    }

    /// All live workers acked query `id`? Then answer — status from the
    /// board (the acks just refreshed its counters, so the reply covers
    /// exactly the events routed before the query), everything else
    /// from the arbiter.
    fn ack(&self, slot: usize, id: u64) {
        let mut pending = self.pending.lock().expect("pending lock poisoned");
        let Some(p) = pending.get_mut(&id) else { return };
        p.waiting.remove(&slot);
        if !p.waiting.is_empty() {
            return;
        }
        let p = pending.remove(&id).expect("entry just seen");
        drop(pending);
        let answer = match p.control {
            Control::Status => {
                let shards = self.tails.lock().expect("tails lock poisoned").len();
                Some(self.board.line(
                    self.dropped_total(),
                    &vec![0; shards],
                    &self.arbiter.allocations(),
                ))
            }
            // The acks that released this answer carried each shard's
            // calibration sums, so the total reflects exactly the
            // events preceding the query.
            Control::Calibration => Some(self.cal_total().render()),
            c => self.arbiter.answer(c),
        };
        if let Some(answer) = answer {
            match p.reply {
                Some(tx) => {
                    let _ = tx.send(answer);
                }
                None => eprintln!("{answer}"),
            }
        }
    }
}

/// One collector: drain a worker's stdout, folding its messages into
/// the shared state, and flag EOF **after** the drain — failover must
/// never race a dying worker's buffered publishes.
fn collect(slot: usize, out: ChildStdout, shared: &Shared<'_>, eof: &AtomicBool) {
    let reader = BufReader::new(out);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        // A worker killed mid-write leaves a partial last line; skip it
        // (the tail replay recovers whatever it was reporting).
        let Ok(msg) = serde_json::from_str::<WorkerMsg>(&line) else { continue };
        match msg {
            WorkerMsg::Ready => {}
            WorkerMsg::Outcome { shard, outcome, ingested, invalid, dropped } => {
                let key = (outcome.table.map_or(u16::MAX, |t| t.0), outcome.epoch);
                {
                    let mut map = shared.outcomes.lock().expect("outcomes lock poisoned");
                    if let std::collections::btree_map::Entry::Vacant(slot) = map.entry(key) {
                        // Deploy-gate actions trace supervisor-side at
                        // the dedupe point, so a failover replay's
                        // re-reported outcome never double-counts.
                        if let (Some(sink), Some(note)) = (shared.sink, &outcome.deploy) {
                            sink.record(TraceEvent::Deploy {
                                action: note.action.clone(),
                                table: key.0,
                                epoch: outcome.epoch,
                                incumbent_cost: note.incumbent_cost,
                                candidate_cost: note.candidate_cost,
                            });
                        }
                        slot.insert(outcome);
                        shared.board.epochs.fetch_add(1, Ordering::Relaxed);
                    }
                }
                shared.set_counts(shard, ingested, invalid, dropped);
            }
            WorkerMsg::Publish { table, pf } => {
                let trace = shared.sink.map_or(Trace::disabled(), Trace::to);
                shared.arbiter.publish(table, Arc::new(pf), trace);
            }
            WorkerMsg::CheckpointDone { shard, generation, file } => {
                if let Some(c) = shared.committer {
                    match c.done(shard, generation, PathBuf::from(file)) {
                        Ok(true) => {
                            // The generation is durable; a kill in this
                            // window leaves committed state paired with
                            // un-truncated tails, which the next
                            // failover's skip-through-barrier absorbs.
                            if let Err(e) = fault::fire(fault::SUP_TRUNCATE, generation as u32) {
                                shared.fail(e);
                            }
                            {
                                let mut tails =
                                    shared.tails.lock().expect("tails lock poisoned");
                                for tail in tails.values_mut() {
                                    truncate_tail(tail, generation);
                                }
                            }
                            shared.persist_sidecars();
                        }
                        Ok(false) => {}
                        Err(e) => shared.fail(e),
                    }
                }
            }
            WorkerMsg::Ack { id, counts, cal } => {
                for (shard, ingested, invalid, dropped) in counts {
                    shared.set_counts(shard, ingested, invalid, dropped);
                }
                for (shard, snap) in cal {
                    shared.set_cal(shard, snap);
                }
                shared.ack(slot, id);
            }
            WorkerMsg::Final { shard, ingested, invalid, dropped } => {
                shared.set_counts(shard, ingested, invalid, dropped);
            }
            WorkerMsg::Fatal { message } => {
                shared.fail(format!("worker {slot}: {message}"));
            }
        }
    }
    eof.store(true, Ordering::Release);
}

/// One worker slot: the child process, its pipe, and liveness state.
/// The `eof` flag belongs to this *spawn instance* — a respawn installs
/// a fresh slot with a fresh flag and collector.
struct Slot {
    child: Child,
    stdin: Option<ChildStdin>,
    eof: Arc<AtomicBool>,
    current_shard: Option<u32>,
    alive: bool,
}

fn write_slot(slot: &mut Slot, bytes: &[u8]) -> bool {
    match &mut slot.stdin {
        Some(w) => w.write_all(bytes).is_ok(),
        None => false,
    }
}

/// Write `bytes` to every live slot; returns the slots whose pipe broke.
fn write_live(slots: &mut [Slot], bytes: &[u8]) -> Vec<usize> {
    slots
        .iter_mut()
        .enumerate()
        .filter_map(|(i, slot)| (slot.alive && !write_slot(slot, bytes)).then_some(i))
        .collect()
}

/// The multi-process supervisor: routes events to worker processes,
/// arbitrates budgets, commits checkpoints, and absorbs worker crashes
/// without changing any selection (see the module docs).
pub struct Supervisor {
    schema: Schema,
    config: ServiceConfig,
    map: ShardMap,
    arbiter: Arbiter,
    board: Arc<StatusBoard>,
    interactive: Option<Arc<InteractiveRegistry>>,
    routed_lines: u64,
    next_generation: u64,
    resume_generation: Option<u64>,
    resume_manifest: Option<PathBuf>,
    /// Journal-replay recovery (set by [`Supervisor::set_recovery`]):
    /// route-able records at positions below this are already inside
    /// the restored checkpoint state and replay without routing.
    resume_skip: u64,
    /// Barrier generations at or below this already committed in the
    /// prior incarnation and replay without firing.
    resume_skip_gen: u64,
    /// Prior-incarnation journal size, when recovering (drives the
    /// [`TraceEvent::Recovery`] emission).
    recovered_bytes: Option<u64>,
    /// State directory holding the restart sidecars (`status.json`
    /// counters, `outcomes.json` epoch history).
    state_dir: Option<PathBuf>,
}

impl Supervisor {
    /// Fresh supervisor. Requires `config.shards >= 1` and
    /// `config.workers >= 1`.
    ///
    /// # Errors
    ///
    /// Returns the first configuration problem, if any.
    pub fn new(schema: Schema, config: ServiceConfig) -> Result<Self, String> {
        config.validate()?;
        if config.shards == 0 {
            return Err("the supervisor requires shards >= 1".into());
        }
        if config.workers == 0 {
            return Err(
                "the supervisor requires workers >= 1 (0 selects in-process serving)".into()
            );
        }
        let map = ShardMap::new(config.shards, config.shard_map.clone(), schema.tables().len())?;
        let arbiter = Arbiter::new(
            global_budget(&schema, config.budget_share),
            config.tenant_weights.clone(),
        );
        let board = Arc::new(StatusBoard::new(config.shards));
        Ok(Self {
            schema,
            config,
            map,
            arbiter,
            board,
            interactive: None,
            routed_lines: 0,
            next_generation: 1,
            resume_generation: None,
            resume_manifest: None,
            resume_skip: 0,
            resume_skip_gen: 0,
            recovered_bytes: None,
            state_dir: None,
        })
    }

    /// Resume from a checkpoint manifest: each worker restores its
    /// shards from the committed shard files (via [`SupMsg::Adopt`])
    /// when the run starts. Unlike [`crate::router::Router::resume`],
    /// the shard count must match the manifest — shard state lives in
    /// child processes, and re-packing table groups across shard files
    /// is an in-process feature (resume there once, checkpoint, then
    /// serve multi-process).
    ///
    /// # Errors
    ///
    /// Returns manifest/shard-file problems and config mismatches.
    pub fn resume(
        schema: Schema,
        config: ServiceConfig,
        manifest_path: &Path,
    ) -> Result<Self, String> {
        let mut sup = Self::new(schema, config)?;
        let manifest = Manifest::load(manifest_path)?;
        if manifest.shards != sup.config.shards {
            return Err(format!(
                "manifest was written at {} shards but --shards is {}; the multi-process \
                 supervisor cannot re-pack shard files (resume in-process at the new count, \
                 checkpoint, then serve with --workers)",
                manifest.shards, sup.config.shards
            ));
        }
        for cp in manifest.load_shards(manifest_path)? {
            sup.config.check_resume(&cp.config)?;
        }
        sup.routed_lines = manifest.routed_lines;
        sup.next_generation = manifest.generation + 1;
        sup.resume_generation = Some(manifest.generation);
        sup.resume_manifest = Some(manifest_path.to_path_buf());
        Ok(sup)
    }

    /// Switch a (fresh or resumed) supervisor into **journal-replay
    /// recovery**: the run's input opens with the prior incarnation's
    /// complete journal (`journal_bytes` long), so `routed` and the
    /// generation counter restart from zero and count through the
    /// replay — but records the restored checkpoint already contains
    /// are not re-routed, and generations it already committed are not
    /// re-fired. Cadence positions and generation numbering therefore
    /// land exactly where an uninterrupted run would put them, which is
    /// what makes the final merged selection and the checkpoint
    /// documents byte-identical to that run (DESIGN.md §18).
    pub fn set_recovery(&mut self, journal_bytes: u64) {
        self.resume_skip = self.routed_lines;
        self.resume_skip_gen = self.next_generation - 1;
        self.routed_lines = 0;
        self.next_generation = 1;
        self.recovered_bytes = Some(journal_bytes);
    }

    /// Persist restart sidecars into this state directory and restore
    /// them at run start: `status.json` carries the
    /// `failovers`/`restarts`/`reply_errors` counters (so a recovered
    /// supervisor's `{"control":"status"}` reports lifetime history,
    /// not just the current incarnation's), and `outcomes.json` carries
    /// the epoch-outcome history already folded into committed
    /// generations (so the recovered report's epoch lines match the
    /// uninterrupted run's). Both rewrite on every commit edge.
    pub fn set_state_dir(&mut self, dir: PathBuf) {
        self.state_dir = Some(dir);
    }

    /// The live frontier arbiter (maintained allocations, interactive
    /// answers, merged selection).
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// Attach the reply registry interactive socket queries route
    /// through; without one, in-stream query answers print to stderr.
    pub fn set_interactive(&mut self, registry: Arc<InteractiveRegistry>) {
        self.interactive = Some(registry);
    }

    /// Number of shards routed across the worker processes.
    pub fn shards(&self) -> u32 {
        self.map.shards()
    }

    /// Number of worker processes spawned per run.
    pub fn workers(&self) -> u32 {
        self.config.workers
    }

    /// Run the supervisor over a line-based input until EOF or a
    /// `shutdown` control: spawn the workers, route every event to its
    /// shard's hosting process, commit checkpoint generations, fail
    /// over dead workers, and at the end drain the children and report
    /// — with a `final_selection` byte-identical to the in-process
    /// router's over the same events, crashes or not.
    ///
    /// `sink` receives the supervisor-side trace:
    /// [`TraceEvent::Merge`] per arbiter fold and one
    /// [`TraceEvent::Failover`] per restored shard. (Workers do not
    /// trace their tuning runs — see [`run_worker`].)
    ///
    /// # Errors
    ///
    /// Returns spawn/protocol/checkpoint failures, and gives up when
    /// repeated worker deaths exhaust the failover attempt budget.
    pub fn run_reader<R: BufRead>(
        &mut self,
        input: R,
        checkpoint: Option<&Path>,
        sink: Option<&dyn TraceSink>,
    ) -> Result<ServiceReport, String> {
        let t_start = Instant::now();
        let shards = self.map.shards();
        let workers = self.config.workers as usize;
        let board = &*self.board;
        let status_path = self.state_dir.as_ref().map(|d| d.join("status.json"));
        let outcomes_path = self.state_dir.as_ref().map(|d| d.join("outcomes.json"));
        if let Some(p) = &status_path {
            crate::status::PersistedStatus::load(p).apply(board);
        }
        let committer = checkpoint.map(|p| Committer::new(p, shards, board));
        // Epoch outcomes folded into committed generations by prior
        // incarnations replay without re-tuning, so their report lines
        // come from the sidecar, not from the workers.
        let mut prior_outcomes: BTreeMap<(u16, u64), EpochOutcome> = BTreeMap::new();
        if self.recovered_bytes.is_some() {
            if let Some(c) = &committer {
                c.prime(self.resume_skip_gen);
            }
            if let Some(p) = &outcomes_path {
                prior_outcomes = load_outcomes(p);
                board.epochs.store(prior_outcomes.len() as u64, Ordering::Relaxed);
            }
        }

        let shared = Shared {
            outcomes: Mutex::new(prior_outcomes),
            counts: Mutex::new(BTreeMap::new()),
            cal: Mutex::new(BTreeMap::new()),
            pending: Mutex::new(HashMap::new()),
            tails: Mutex::new((0..shards).map(|k| (k, VecDeque::new())).collect()),
            failure: Mutex::new(None),
            board,
            committer: committer.as_ref(),
            arbiter: &self.arbiter,
            sink,
            status_path,
            outcomes_path,
        };

        // Fault-injection scoping: the supervisor parses the schedule
        // itself (firing the sup.* sites in-process) and re-serializes
        // each worker.* entry into the environment of exactly ONE
        // child — the initial owner slot of the entry's scope shard.
        // Every other child and every respawned replacement gets the
        // variable stripped, otherwise the adopting survivor would
        // inherit the fault and die in a loop. A malformed schedule
        // disables injection (fault::fire warns once).
        let worker_faults: Vec<Option<String>> = {
            let sched = std::env::var(fault::ENV_SCHEDULE)
                .ok()
                .and_then(|spec| fault::Schedule::parse(&spec).ok())
                .unwrap_or_default();
            (0..workers).map(|w| sched.worker_spec(w as u32, workers as u32)).collect()
        };

        let schema = &self.schema;
        let config = &self.config;
        let map = &self.map;
        let arbiter = &self.arbiter;
        let interactive = self.interactive.clone();
        let respawn = self.config.respawn;
        let resume_generation = self.resume_generation;
        let resume_manifest = self.resume_manifest.clone();
        let resume_skip = self.resume_skip;
        let skip_gen = self.resume_skip_gen;
        let recovered_bytes = self.recovered_bytes;
        let mut stream = Stream::new(&self.config, self.routed_lines, self.next_generation);

        let scope_result: Result<Option<u64>, String> =
            std::thread::scope(|s| {
                let spawn_worker = |slot_idx: usize,
                                   hello_shards: Vec<u32>,
                                   initial: bool|
                 -> Result<Slot, String> {
                    let exe = std::env::current_exe()
                        .map_err(|e| format!("locate worker executable: {e}"))?;
                    let mut cmd = Command::new(exe);
                    cmd.arg("worker")
                        .stdin(Stdio::piped())
                        .stdout(Stdio::piped())
                        .env_remove(fault::ENV_SCHEDULE);
                    if initial {
                        if let Some(spec) = &worker_faults[slot_idx] {
                            cmd.env(fault::ENV_SCHEDULE, spec);
                        }
                    }
                    let mut child =
                        cmd.spawn().map_err(|e| format!("spawn worker: {e}"))?;
                    let mut stdin = child.stdin.take().expect("piped stdin");
                    let stdout = child.stdout.take().expect("piped stdout");
                    let eof = Arc::new(AtomicBool::new(false));
                    {
                        let eof = Arc::clone(&eof);
                        let shared = &shared;
                        s.spawn(move || collect(slot_idx, stdout, shared, &eof));
                    }
                    let hello = SupMsg::Hello {
                        schema: Box::new(schema.clone()),
                        config: Box::new(config.clone()),
                        shards: hello_shards,
                        manifest: checkpoint.map(|p| p.to_string_lossy().into_owned()),
                    };
                    if stdin.write_all(&sup_frame(&hello)?).is_err() {
                        return Err("worker died during handshake".into());
                    }
                    Ok(Slot { child, stdin: Some(stdin), eof, current_shard: None, alive: true })
                };

                // Where a failed-over shard restores from: the last
                // generation committed THIS run, else the resumed one.
                // Returns the checkpoint *document*, not a path —
                // [`Committer::read_committed`] snapshots generation
                // and contents under one lock, because the file behind
                // any path handed out here can be garbage-collected by
                // a later commit before the adopter opens it.
                let restore_source = |k: u32| -> Result<(u64, Option<String>), String> {
                    if let (Some(c), Some(m)) = (committer.as_ref(), checkpoint) {
                        if let Some((g, text)) = c.read_committed(|g| shard_file(m, k, g))? {
                            return Ok((g, Some(text)));
                        }
                    }
                    if let (Some(g), Some(m)) = (resume_generation, &resume_manifest) {
                        // Resumed files predate this run; its committer
                        // never deletes them, so a plain read is safe.
                        let path = shard_file(m, k, g);
                        let text = std::fs::read_to_string(&path)
                            .map_err(|e| format!("read {}: {e}", path.display()))?;
                        return Ok((g, Some(text)));
                    }
                    Ok((0, None))
                };

                // The failover budget is shared across *every*
                // `do_failover` call and resets only on real progress
                // (a fresh epoch outcome or a committed generation).
                // A per-call counter would let a persistent fault — a
                // worker that dies the same way every time it adopts a
                // shard — cycle adopt → die forever, one death per
                // call; consecutive deaths with nothing committed in
                // between must instead exhaust the budget and abort.
                let progress = || {
                    board.epochs.load(Ordering::Relaxed)
                        + committer.as_ref().map_or(0, |c| c.commits())
                };
                let death_streak = std::cell::Cell::new((progress(), 0usize));

                // Restore every shard owned by a dead slot onto a
                // survivor (or respawned replacement), replay its tail,
                // then re-arm pending interactive queries. Loops until
                // the topology is quiet; nested deaths re-enter the
                // worklist, bounded by the attempt budget.
                let do_failover = |slots: &mut Vec<Slot>,
                                   owners: &mut Vec<usize>,
                                   mut dead: Vec<usize>|
                 -> Result<(), String> {
                    loop {
                        while let Some(d) = dead.pop() {
                            let now = progress();
                            let (seen, n) = death_streak.get();
                            let n = if now != seen { 1 } else { n + 1 };
                            death_streak.set((now, n));
                            if n > 3 * slots.len() + 3 {
                                return Err(
                                    "giving up after repeated worker deaths without progress \
                                     during failover"
                                        .into(),
                                );
                            }
                            if !slots[d].alive && !owners.contains(&d) {
                                continue;
                            }
                            slots[d].alive = false;
                            slots[d].stdin = None;
                            slots[d].child.kill().ok();
                            // Let the collector drain every buffered
                            // message first: adopter publishes must not
                            // overtake the dead worker's.
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while !slots[d].eof.load(Ordering::Acquire)
                                && Instant::now() < deadline
                            {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            slots[d].child.wait().ok();

                            let moved: Vec<u32> = owners
                                .iter()
                                .enumerate()
                                .filter(|&(_, &o)| o == d)
                                .map(|(k, _)| k as u32)
                                .collect();
                            if moved.is_empty() {
                                continue;
                            }
                            fault::fire(fault::SUP_FAILOVER, d as u32)?;
                            let survivor = slots.iter().position(|s| s.alive);
                            let target = match survivor {
                                Some(t) if !respawn => t,
                                _ => match spawn_worker(d, Vec::new(), false) {
                                    Ok(slot) => {
                                        slots[d] = slot;
                                        board.restarts.fetch_add(1, Ordering::Relaxed);
                                        d
                                    }
                                    Err(e) => match survivor {
                                        Some(t) => t,
                                        None => return Err(e),
                                    },
                                },
                            };
                            // Reassign ownership up front: if the target
                            // dies mid-restore, its own failover re-moves
                            // every shard, including not-yet-restored ones.
                            for &k in &moved {
                                owners[k as usize] = target;
                            }
                            let mut target_down = false;
                            for &k in &moved {
                                let t0 = Instant::now();
                                fault::fire(fault::SUP_ADOPT, k)?;
                                let mut replayed = 0u64;
                                let (generation, bytes) = {
                                    // The restore snapshot and the tail
                                    // must be read under ONE tails lock:
                                    // a commit completes first and
                                    // truncates the tails second, and
                                    // landing between the two would pair
                                    // a generation-g checkpoint with a
                                    // pre-g tail — replaying events the
                                    // checkpoint already contains. (The
                                    // committer lock nests inside; its
                                    // callers never hold it while taking
                                    // the tails lock.)
                                    let tails =
                                        shared.tails.lock().expect("tails lock poisoned");
                                    let (generation, data) = restore_source(k)?;
                                    let mut bytes =
                                        sup_frame(&SupMsg::Adopt { shard: k, data })?;
                                    bytes.extend(sup_frame(&SupMsg::Shard { shard: k })?);
                                    let tail = &tails[&k];
                                    // If that race did hit, generation g's
                                    // barrier entry is still in the tail;
                                    // skip through it ourselves.
                                    let skip = tail
                                        .iter()
                                        .position(|e| {
                                            matches!(e, TailEntry::Barrier(g) if *g == generation)
                                        })
                                        .map_or(0, |p| p + 1);
                                    for entry in tail.iter().skip(skip) {
                                        match entry {
                                            TailEntry::Line(l) => {
                                                bytes.extend(raw_frame(l));
                                                replayed += 1;
                                            }
                                            TailEntry::Barrier(g) => {
                                                bytes.extend(sup_frame(&SupMsg::Barrier {
                                                    generation: *g,
                                                    shards: Some(vec![k]),
                                                })?);
                                            }
                                        }
                                    }
                                    (generation, bytes)
                                };
                                if !write_slot(&mut slots[target], &bytes) {
                                    target_down = true;
                                    break;
                                }
                                slots[target].current_shard = Some(k);
                                board.failovers.fetch_add(1, Ordering::Relaxed);
                                if let Some(sink) = sink {
                                    sink.record(TraceEvent::Failover {
                                        shard: k,
                                        generation,
                                        replayed,
                                        adopted_by: target as u32,
                                        micros: t0.elapsed().as_micros() as u64,
                                    });
                                }
                            }
                            if target_down {
                                dead.push(target);
                            }
                        }
                        // Re-arm pending interactive queries under the
                        // new topology: every live worker must ack again
                        // (workers ack every Query they see, so the
                        // at-least-once re-send is safe).
                        let live: std::collections::HashSet<usize> = slots
                            .iter()
                            .enumerate()
                            .filter(|(_, s)| s.alive)
                            .map(|(i, _)| i)
                            .collect();
                        let ids: Vec<u64> = {
                            let mut pending =
                                shared.pending.lock().expect("pending lock poisoned");
                            for p in pending.values_mut() {
                                p.waiting.clone_from(&live);
                            }
                            pending.keys().copied().collect()
                        };
                        for id in &ids {
                            let frame = sup_frame(&SupMsg::Query { id: *id })?;
                            dead.extend(write_live(slots, &frame));
                        }
                        if dead.is_empty() {
                            // The failover/restart counters just moved;
                            // make them durable for the next incarnation.
                            shared.persist_sidecars();
                            return Ok(());
                        }
                    }
                };

                let sweep = |slots: &mut Vec<Slot>,
                             owners: &mut Vec<usize>|
                 -> Result<(), String> {
                    let dead: Vec<usize> = slots
                        .iter()
                        .enumerate()
                        .filter(|(_, sl)| sl.alive && sl.eof.load(Ordering::Acquire))
                        .map(|(i, _)| i)
                        .collect();
                    if dead.is_empty() {
                        Ok(())
                    } else {
                        do_failover(slots, owners, dead)
                    }
                };

                // Route one event line: append to the shard's tail
                // FIRST (a line lost in a dying pipe is then still
                // replayed), switch the worker's current shard if
                // needed, write, and fail over on a broken pipe.
                let route = |slots: &mut Vec<Slot>,
                             owners: &mut Vec<usize>,
                             shard: u32,
                             line: String|
                 -> Result<(), String> {
                    // Fires before the tail append: a kill here loses
                    // nothing, because the input journal already holds
                    // this line (teed at consume time).
                    fault::fire(fault::SUP_ROUTE, shard)?;
                    let frame = raw_frame(&line);
                    shared
                        .tails
                        .lock()
                        .expect("tails lock poisoned")
                        .get_mut(&shard)
                        .expect("tail exists for every shard")
                        .push_back(TailEntry::Line(line));
                    let idx = owners[shard as usize];
                    let slot = &mut slots[idx];
                    let mut bytes = Vec::new();
                    if slot.current_shard != Some(shard) {
                        bytes.extend(sup_frame(&SupMsg::Shard { shard })?);
                        slot.current_shard = Some(shard);
                    }
                    bytes.extend(frame);
                    if slot.alive && write_slot(slot, &bytes) {
                        Ok(())
                    } else {
                        // Do NOT retry the write: the line is in the
                        // tail, and the failover replay delivers it.
                        do_failover(slots, owners, vec![idx])
                    }
                };

                let barrier = |slots: &mut Vec<Slot>,
                               owners: &mut Vec<usize>,
                               gen: u64,
                               routed: u64|
                 -> Result<(), String> {
                    let Some(c) = committer.as_ref() else { return Ok(()) };
                    fault::fire(fault::SUP_BARRIER_OPEN, gen as u32)?;
                    c.open(gen, routed);
                    {
                        let mut tails = shared.tails.lock().expect("tails lock poisoned");
                        for tail in tails.values_mut() {
                            tail.push_back(TailEntry::Barrier(gen));
                        }
                    }
                    let frame = sup_frame(&SupMsg::Barrier { generation: gen, shards: None })?;
                    let dead = write_live(slots, &frame);
                    if dead.is_empty() {
                        Ok(())
                    } else {
                        do_failover(slots, owners, dead)
                    }
                };

                let enqueue_query = |slots: &mut Vec<Slot>,
                                     owners: &mut Vec<usize>,
                                     id: u64,
                                     c: Control,
                                     reply: Option<Sender<String>>|
                 -> Result<(), String> {
                    let waiting: std::collections::HashSet<usize> = slots
                        .iter()
                        .enumerate()
                        .filter(|(_, sl)| sl.alive)
                        .map(|(i, _)| i)
                        .collect();
                    shared
                        .pending
                        .lock()
                        .expect("pending lock poisoned")
                        .insert(id, PendingInteractive { control: c, waiting, reply });
                    let dead = write_live(slots, &sup_frame(&SupMsg::Query { id })?);
                    if dead.is_empty() {
                        Ok(())
                    } else {
                        do_failover(slots, owners, dead)
                    }
                };

                // --- Spawn the fleet and restore resumed state.
                let mut slots: Vec<Slot> = Vec::with_capacity(workers);
                for w in 0..workers {
                    let hosted: Vec<u32> =
                        (0..shards).filter(|k| (*k as usize) % workers == w).collect();
                    slots.push(spawn_worker(w, hosted, true)?);
                }
                let mut owners: Vec<usize> =
                    (0..shards).map(|k| (k as usize) % workers).collect();
                if let (Some(gen), Some(m)) = (resume_generation, &resume_manifest) {
                    for k in 0..shards {
                        let path = shard_file(m, k, gen);
                        let text = std::fs::read_to_string(&path)
                            .map_err(|e| format!("read {}: {e}", path.display()))?;
                        let frame =
                            sup_frame(&SupMsg::Adopt { shard: k, data: Some(text) })?;
                        let idx = owners[k as usize];
                        if !write_slot(&mut slots[idx], &frame) {
                            do_failover(&mut slots, &mut owners, vec![idx])?;
                        }
                    }
                }
                if let (Some(journal_bytes), Some(sink)) = (recovered_bytes, sink) {
                    sink.record(TraceEvent::Recovery {
                        generation: skip_gen,
                        skipped: resume_skip,
                        journal_bytes,
                        micros: t_start.elapsed().as_micros() as u64,
                    });
                }

                let mut next_query_id = 0u64;
                // Shape of every binary `Define` seen, by stream-global
                // template id: events re-render as canonical JSONL
                // through this dictionary, so worker streams (and
                // therefore failover tails) carry no dictionary state.
                let mut templates: Vec<(QueryKind, Vec<u32>)> = Vec::new();
                let opaque = map.opaque_shard();

                for record in RecordIter::new(input) {
                    if let Some(e) = shared.take_failure() {
                        return Err(e);
                    }
                    // Every record sweeps for collectors at EOF; reaping
                    // happens inside the failover.
                    sweep(&mut slots, &mut owners)?;
                    if take_status_signal() {
                        eprintln!(
                            "{}",
                            board.line(
                                shared.dropped_total(),
                                &vec![0; shards as usize],
                                &arbiter.allocations()
                            )
                        );
                    }
                    let (shard, line) = match stream.decide(record, schema) {
                        Decision::Skip => continue,
                        Decision::Shutdown => break,
                        Decision::Line { table, line } => {
                            (table.map_or(opaque, |t| map.shard_of(t)), line)
                        }
                        Decision::Define { kind, attrs, .. } => {
                            // Defines never travel: the dictionary lives
                            // here, and events re-render through it.
                            templates.push((kind, attrs));
                            continue;
                        }
                        Decision::Event { table, template, frequency } => {
                            let (kind, attrs) = &templates[template as usize];
                            let line = render_query(None, table, attrs, frequency, *kind);
                            (map.shard_of(table), line)
                        }
                        Decision::Invalid => {
                            (opaque, "{\"invalid\":\"undecodable binary item\"}".to_owned())
                        }
                        Decision::Barrier => {
                            if committer.is_some() {
                                let gen = stream.take_generation();
                                if gen > skip_gen {
                                    barrier(&mut slots, &mut owners, gen, stream.routed)?;
                                }
                            }
                            continue;
                        }
                        // `status` is in band here like every query: the
                        // counters live in the workers, and the acks that
                        // release the answer carry them.
                        Decision::Query { control, token } => {
                            let reply = interactive.as_ref().and_then(|reg| reg.take(token?));
                            let id = next_query_id;
                            next_query_id += 1;
                            enqueue_query(&mut slots, &mut owners, id, control, reply)?;
                            continue;
                        }
                    };
                    // Recovery: records below resume_skip are already
                    // inside the restored checkpoint state, and the prior
                    // incarnation already committed generations ≤
                    // skip_gen — count both (so cadence positions and
                    // numbering match the clean run) but re-route and
                    // re-fire neither.
                    if stream.routed >= resume_skip {
                        route(&mut slots, &mut owners, shard, line)?;
                    }
                    if let Some(gen) = stream.count_routed() {
                        if gen > skip_gen {
                            barrier(&mut slots, &mut owners, gen, stream.routed)?;
                        }
                    }
                }

                // --- Quiesce: an in-band liveness barrier. The routing
                // loop only notices a death while it still has bytes to
                // write, and a small stream fits whole into the pipe
                // buffers — so a worker can die holding routed events it
                // never ingested, strictly *after* routing ends. Every
                // live worker must ack a final Query (acks are in-band,
                // so an ack proves everything routed before it was
                // consumed) before the fleet may retire; a worker that
                // dies instead is failed over here, and its tail replay
                // re-feeds exactly the unacked events. `Shutdown` is the
                // sentinel control the arbiter answers with silence.
                {
                    // The last id ever issued — no increment needed.
                    let qid = next_query_id;
                    enqueue_query(&mut slots, &mut owners, qid, Control::Shutdown, None)?;
                    let deadline = Instant::now() + Duration::from_secs(600);
                    loop {
                        if let Some(e) = shared.take_failure() {
                            return Err(e);
                        }
                        let done = !shared
                            .pending
                            .lock()
                            .expect("pending lock poisoned")
                            .contains_key(&qid);
                        if done {
                            break;
                        }
                        sweep(&mut slots, &mut owners)?;
                        if Instant::now() > deadline {
                            return Err(
                                "timed out waiting for workers to quiesce at shutdown".into()
                            );
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                }

                // --- Shutdown: final generation, then drain the fleet.
                let mut final_committed = None;
                if committer.is_some() {
                    let final_gen = stream.take_generation();
                    barrier(&mut slots, &mut owners, final_gen, stream.routed)?;
                    // Wait out the final commit, absorbing deaths: a
                    // dead worker's tail ends with the scoped final
                    // barrier, so its adopter completes the generation.
                    let deadline = Instant::now() + Duration::from_secs(600);
                    loop {
                        if let Some(e) = shared.take_failure() {
                            return Err(e);
                        }
                        if committer.as_ref().and_then(|c| c.committed()) == Some(final_gen)
                        {
                            break;
                        }
                        sweep(&mut slots, &mut owners)?;
                        if Instant::now() > deadline {
                            return Err(
                                "timed out waiting for the final checkpoint generation"
                                    .into(),
                            );
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    final_committed = Some(final_gen);
                }
                // Everything reportable is already in: outcomes and
                // publishes stream ahead of the final barrier, and with
                // checkpointing the final shard files carry exact
                // counters. Shutdown is therefore best-effort.
                let bye = sup_frame(&SupMsg::Shutdown)?;
                for slot in &mut slots {
                    if slot.alive {
                        let _ = write_slot(slot, &bye);
                    }
                    slot.stdin = None;
                }
                for slot in &mut slots {
                    slot.child.wait().ok();
                }
                Ok(final_committed)
            });

        let final_committed = scope_result?;
        self.routed_lines = stream.routed;
        self.next_generation = stream.next_gen;
        shared.persist_sidecars();
        if let Some(e) = shared.take_failure() {
            return Err(e);
        }
        // With a committed final generation, the shard files carry
        // exact counters — authoritative even if a worker died between
        // the commit and its Final report.
        if let (Some(gen), Some(m)) = (final_committed, checkpoint) {
            for k in 0..shards {
                if let Ok(cp) = ShardCheckpoint::load(&shard_file(m, k, gen)) {
                    shared.set_counts(k, cp.ingested, cp.invalid, cp.dropped);
                }
            }
        }
        let epochs: Vec<EpochOutcome> = shared
            .outcomes
            .into_inner()
            .expect("outcomes lock poisoned")
            .into_values()
            .collect();
        let counts = shared.counts.into_inner().expect("counts lock poisoned");
        let (ingested, invalid, dropped) = counts
            .values()
            .fold((0u64, 0u64, 0u64), |(i, v, d), &(ci, cv, cd)| {
                (i + ci, v + cv, d + cd)
            });
        Ok(ServiceReport {
            epochs,
            ingested,
            invalid,
            dropped,
            queue_high_water: 0,
            checkpoints_written: committer.as_ref().map_or(0, Committer::commits),
            final_selection: self.arbiter.merged_selection(),
        })
    }
}

impl crate::socket::Engine for Supervisor {
    fn schema(&self) -> &Schema {
        &self.schema
    }
    fn board(&self) -> Arc<StatusBoard> {
        Arc::clone(&self.board)
    }
    fn set_interactive(&mut self, registry: Arc<InteractiveRegistry>) {
        Supervisor::set_interactive(self, registry);
    }
    fn serve<R: BufRead + Send>(
        &mut self,
        input: R,
        checkpoint: Option<&Path>,
        sinks: &[&dyn TraceSink],
    ) -> Result<ServiceReport, String> {
        self.run_reader(input, checkpoint, sinks.first().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DriftThresholds;
    use isel_workload::synthetic::{self, SyntheticConfig};
    use isel_workload::Workload;
    use std::io::Cursor;

    fn workload() -> Workload {
        synthetic::generate(&SyntheticConfig {
            tables: 2,
            attrs_per_table: 6,
            queries_per_table: 6,
            rows_base: 40_000,
            max_query_width: 3,
            update_fraction: 0.1,
            seed: 41,
        })
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            epoch_events: 8,
            window_epochs: 2,
            max_templates: 64,
            drift: DriftThresholds::always_adapt(),
            shards: 1,
            workers: 1,
            ..ServiceConfig::default()
        }
    }

    /// `n` copies of one table-0 query as canonical event lines, so
    /// exactly `n / epoch_events` epochs seal on that group.
    fn table0_lines(w: &Workload, n: usize) -> Vec<String> {
        let q = w
            .queries()
            .iter()
            .find(|q| q.table().0 == 0 && !q.is_update())
            .expect("synthetic workload has table-0 selects");
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        let line = format!("{{\"table\":0,\"attrs\":[{}]}}", attrs.join(","));
        vec![line; n]
    }

    fn hello(w: &Workload, shards: Vec<u32>, manifest: Option<String>) -> Vec<u8> {
        sup_frame(&SupMsg::Hello {
            schema: Box::new(w.schema().clone()),
            config: Box::new(config()),
            shards,
            manifest,
        })
        .unwrap()
    }

    /// Drive `run_worker_io` over an in-memory stream and parse its
    /// replies.
    fn drive(frames: &[Vec<u8>]) -> Result<Vec<WorkerMsg>, String> {
        let input: Vec<u8> = frames.concat();
        let mut out = Vec::new();
        run_worker_io(Cursor::new(input), &mut out)?;
        String::from_utf8(out)
            .map_err(|e| e.to_string())?
            .lines()
            .map(|l| serde_json::from_str::<WorkerMsg>(l).map_err(|e| e.to_string()))
            .collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("isel_process_tests").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn sup_and_worker_msgs_round_trip() {
        let msgs = [
            SupMsg::Shard { shard: 3 },
            SupMsg::Barrier { generation: 7, shards: Some(vec![1, 2]) },
            SupMsg::Query { id: 11 },
            SupMsg::Adopt { shard: 0, data: Some("{\"v\":1}".into()) },
            SupMsg::Shutdown,
        ];
        for m in msgs {
            let json = serde_json::to_string(&m).unwrap();
            let back: SupMsg = serde_json::from_str(&json).unwrap();
            assert_eq!(format!("{m:?}"), format!("{back:?}"));
        }
        let m = WorkerMsg::Final { shard: 2, ingested: 5, invalid: 1, dropped: 0 };
        let json = serde_json::to_string(&m).unwrap();
        let back: WorkerMsg = serde_json::from_str(&json).unwrap();
        assert_eq!(format!("{m:?}"), format!("{back:?}"));
    }

    #[test]
    fn tail_truncates_through_the_committed_barrier() {
        let mut tail: VecDeque<TailEntry> = VecDeque::new();
        tail.push_back(TailEntry::Line("a".into()));
        tail.push_back(TailEntry::Barrier(0));
        tail.push_back(TailEntry::Line("b".into()));
        tail.push_back(TailEntry::Barrier(1));
        tail.push_back(TailEntry::Line("c".into()));
        truncate_tail(&mut tail, 99); // unknown generation: no-op
        assert_eq!(tail.len(), 5);
        truncate_tail(&mut tail, 1);
        assert_eq!(tail.len(), 1);
        assert!(matches!(&tail[0], TailEntry::Line(l) if l == "c"));
    }

    #[test]
    fn worker_requires_hello_first() {
        let frames = [sup_frame(&SupMsg::Shard { shard: 0 }).unwrap()];
        let err = drive(&frames).unwrap_err();
        assert!(err.contains("expected Hello"), "{err}");
    }

    #[test]
    fn worker_seals_epochs_and_reports_final_counters() {
        let w = workload();
        let mut frames = vec![hello(&w, vec![0], None)];
        frames.push(sup_frame(&SupMsg::Shard { shard: 0 }).unwrap());
        for line in table0_lines(&w, 16) {
            frames.push(raw_frame(&line));
        }
        frames.push(raw_frame("garbage"));
        frames.push(sup_frame(&SupMsg::Query { id: 4 }).unwrap());
        frames.push(sup_frame(&SupMsg::Shutdown).unwrap());
        let msgs = drive(&frames).unwrap();
        assert!(matches!(msgs[0], WorkerMsg::Ready));
        let outcomes: Vec<_> = msgs
            .iter()
            .filter(|m| matches!(m, WorkerMsg::Outcome { .. }))
            .collect();
        assert_eq!(outcomes.len(), 2, "16 events / 8 per epoch on one group");
        assert!(
            msgs.iter().any(|m| matches!(m, WorkerMsg::Ack { id: 4, .. })),
            "query barrier acknowledged"
        );
        assert!(
            msgs.iter().any(
                |m| matches!(m, WorkerMsg::Final { shard: 0, ingested: 16, invalid: 1, .. })
            ),
            "final counters: {msgs:?}"
        );
    }

    #[test]
    fn adopted_checkpoint_continues_counts() {
        let w = workload();
        let manifest = tmp("adopt").join("manifest.json");
        let manifest_s = manifest.to_string_lossy().into_owned();

        let mut frames = vec![hello(&w, vec![0], Some(manifest_s))];
        frames.push(sup_frame(&SupMsg::Shard { shard: 0 }).unwrap());
        for line in table0_lines(&w, 8) {
            frames.push(raw_frame(&line));
        }
        frames.push(sup_frame(&SupMsg::Barrier { generation: 0, shards: None }).unwrap());
        frames.push(sup_frame(&SupMsg::Shutdown).unwrap());
        let msgs = drive(&frames).unwrap();
        let file = msgs
            .iter()
            .find_map(|m| match m {
                WorkerMsg::CheckpointDone { shard: 0, generation: 0, file } => {
                    Some(file.clone())
                }
                _ => None,
            })
            .expect("checkpoint written");

        // A second worker adopts the checkpoint document and continues
        // where the first one stopped: absolute counters carry over.
        let text = std::fs::read_to_string(&file).unwrap();
        let mut frames = vec![hello(&w, vec![], None)];
        frames.push(sup_frame(&SupMsg::Adopt { shard: 0, data: Some(text) }).unwrap());
        frames.push(sup_frame(&SupMsg::Shard { shard: 0 }).unwrap());
        for line in table0_lines(&w, 8) {
            frames.push(raw_frame(&line));
        }
        frames.push(sup_frame(&SupMsg::Shutdown).unwrap());
        let msgs = drive(&frames).unwrap();
        assert!(
            msgs.iter().any(
                |m| matches!(m, WorkerMsg::Final { shard: 0, ingested: 16, invalid: 0, .. })
            ),
            "adopted shard continued the count: {msgs:?}"
        );
        let outcomes: Vec<_> = msgs
            .iter()
            .filter_map(|m| match m {
                WorkerMsg::Outcome { outcome, .. } => Some(outcome.epoch),
                _ => None,
            })
            .collect();
        assert_eq!(outcomes, vec![1], "second epoch seals on the adopted window");
    }
}
