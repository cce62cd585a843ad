//! The process placement: the [`Router`] at `config.workers = N > 0`,
//! its shards hosted by `N` worker child processes, failure-invariant
//! by construction (DESIGN.md §16).
//!
//! ## Topology
//!
//! The router's own process, the **supervisor**, owns everything
//! shared: the input (stdin or the listening socket), the journal, the
//! [`Arbiter`], the checkpoint `Committer`, the [`StatusBoard`] and the
//! trace sink. [`Router::run_reader`] runs the one ingest loop
//! (`stream.rs`) there over the `Fleet`: the worker children and their
//! pipes, which worker hosts which shard, the per-shard tails, every
//! `Define` read so far and the failover budget. Each **worker**
//! (`isel worker`, spawned from the supervisor's own executable) hosts
//! one or more *shards* behind the same `GroupHost` (`group.rs`) a
//! shard thread uses.
//!
//! The wire is the binary frame protocol of [`crate::frame`]: down each
//! worker's stdin go [`SupMsg`]s (JSON inside [`WireItem::Sup`] items)
//! and the input as the ingest loop decided it — a text line as a
//! [`WireItem::Raw`] item, a template (binary, or a line seen before)
//! and its events as [`WireItem::Define`] and [`WireItem::Event`]
//! items, resolved through the same [`DecodeDict`] a shard thread uses;
//! up its stdout come [`WorkerMsg`] JSON lines. A
//! record the receiving host must count invalid (an event of a template
//! the stream never defined, a corrupt frame region) goes down as an
//! *empty* `Raw` item: routed lines are trimmed and never empty, so the
//! worker maps an empty `Raw` straight to an invalid record, with no
//! parse.
//! Events name their template by stream-global id, so one invariant
//! carries the dictionary across the pipe: **every live worker has seen
//! every `Define`, in stream order** — each is written to every live
//! worker as it is emitted, and all of them to a new worker right after
//! its `Hello`.
//!
//! ## Liveness and failover
//!
//! A shard's **tail** holds the frames routed to it since the last
//! committed generation, appended *before* the pipe write. A worker's
//! death shows as EOF on its stdout (flagged only after the collector
//! drained every buffered message, so no adopter publish overtakes the
//! dead worker's) or as a failed write to its stdin. Each of its shards
//! is then restored onto a survivor (or, under
//! [`ServiceConfig::respawn`], a replacement that first gets every
//! `Define`) from the last *committed* shard checkpoint, carried inside
//! the [`SupMsg::Adopt`]; the tail follows, its barriers scoped to that
//! shard; and one [`TraceEvent::Failover`] is emitted.
//!
//! Group state is deterministic in the event prefix, so a restored
//! shard fed its tail reaches the dead worker's state and continues
//! identically. Re-reported epoch outcomes dedupe by `(table, epoch)`,
//! re-published frontiers fold into the arbiter idempotently, and the
//! final merged selection — which depends only on the last publication
//! per group and the budget — is byte-identical with and without a
//! `SIGKILL` at *any* event position, as the CLI failover tests pin.
//! Counters need no dedupe: workers report each shard's absolute
//! [`ShardCounters`] on every `Outcome`, `Ack` and `Final`, and the
//! collectors post them to the shard's slot on the [`StatusBoard`] — as
//! a shard thread posts its own — so an adopter's reports replace the
//! dead worker's.

use crate::arbiter::{respond, Arbiter, PublishedFrontier};
use crate::checkpoint::{shard_file, ShardCheckpoint};
use crate::config::ServiceConfig;
use crate::event::Control;
use crate::fault;
use crate::frame::{put_frame, put_item, WireItem, MAX_PAYLOAD};
use crate::group::{Env, GroupHost, Sealed, ShardCounters};
use crate::records::{DecodeDict, Record, RecordIter};
use crate::router::{Committer, Ran, Router};
use crate::status::StatusBoard;
use crate::stream::{Placement, Routed};
use crate::tuner::EpochOutcome;
use isel_core::{Trace, TraceEvent, TraceSink};
use isel_workload::{QueryKind, Schema};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Supervisor → worker messages, carried as [`WireItem::Sup`] frames on
/// the worker's stdin pipe (interleaved with the input's own
/// [`WireItem::Raw`] lines and [`WireItem::Define`]/[`WireItem::Event`]
/// items).
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
    /// Switch the *current shard*: subsequent `Raw` lines and `Event`s
    /// go to this shard until the next `Shard` message.
    Shard {
        /// The shard now receiving events.
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
    /// [`WorkerMsg::Ack`] once every event queued before this point has
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
    /// A sealed epoch was tuned. Carries the shard's counters so the
    /// supervisor's status line stays fresh without extra round trips.
    Outcome {
        /// Shard the epoch sealed on.
        shard: u32,
        /// The tuning outcome (bit-identical on re-report after a
        /// failover replay; the supervisor deduplicates by
        /// `(table, epoch)`).
        outcome: EpochOutcome,
        /// The shard's counters so far.
        counters: ShardCounters,
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
        /// Every hosted shard's counters at the barrier point. They
        /// otherwise refresh only when an epoch seals; riding them on
        /// the ack keeps the in-band contract — a `status` or
        /// `calibration` answer reflects exactly the events that
        /// precede the query.
        counters: Vec<(u32, ShardCounters)>,
    },
    /// Final counters for one hosted shard, sent at shutdown.
    Final {
        /// The shard reported on.
        shard: u32,
        /// Its counters.
        counters: ShardCounters,
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

/// Encode one input item — a `Raw` line, a `Define`, an `Event` — as a
/// binary frame of its own.
fn item_frame(item: &WireItem) -> Vec<u8> {
    let mut payload = Vec::new();
    put_item(&mut payload, item);
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
    // Every `Define` reaches every worker in stream order, so numbering
    // them in arrival order gives each template its stream-global id.
    let mut dict = DecodeDict::for_groups(&config);
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
        let item = match record {
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
                        let counters = hosts.iter().map(|(k, h)| (*k, h.counters())).collect();
                        send!(WorkerMsg::Ack { id, counters });
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
                            // A failed save (unwritable directory, full
                            // disk) would fail every adopter the same
                            // way — report it so the supervisor aborts
                            // instead of failing over in circles.
                            let saved = host.checkpoint(&config, manifest, k, generation, &mut doc);
                            let file = match saved {
                                Ok(file) => file,
                                Err(e) => {
                                    send_fatal(&mut out, &e);
                                    return Err(e);
                                }
                            };
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
                continue;
            }
            Record::Item(WireItem::Define { table, kind, attrs }) => {
                dict.define(&schema, table, kind, attrs);
                continue;
            }
            Record::Item(WireItem::Event { template, frequency }) => {
                Routed::Event { template, frequency }
            }
            Record::Item(WireItem::Raw(bytes)) if bytes.is_empty() => Routed::Invalid,
            Record::Item(WireItem::Raw(bytes)) => Routed::Line(
                String::from_utf8(bytes)
                    .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
            ),
            // The supervisor sends only Sup frames and the input's own
            // items; anything else is a protocol violation worth failing
            // loudly on.
            other => return Err(format!("worker protocol: unexpected record {other:?}")),
        };
        // An item with no home — before any `Shard` message, or for a
        // shard this worker does not host — is dropped; the supervisor
        // never sends one.
        let Some(shard) = current else { continue };
        let Some(host) = hosts.get_mut(&shard) else { continue };
        let before = host.ingested;
        let sealed = host.fold(&env, &mut dict, item, Trace::disabled());
        if host.ingested != before {
            // One hit per ingested query event, and fresh workers count
            // from 0, so the hit count equals the shard's ingested count.
            // Nothing about this event has left the process yet: a kill
            // here loses it whole, and an injected error exits the
            // worker like a crash — no Fatal report, so the supervisor
            // fails the shard over.
            fault::fire(fault::WORKER_INGEST, shard)?;
        }
        if let Some(Sealed { mut outcome, publish }) = sealed {
            outcome.shard = Some(shard);
            send!(WorkerMsg::Outcome { shard, outcome, counters: host.counters() });
            if let Some((table, pf)) = publish {
                send!(WorkerMsg::Publish { table, pf: (*pf).clone() });
            }
        }
    }
    for (k, host) in &hosts {
        if gone {
            break;
        }
        send!(WorkerMsg::Final { shard: *k, counters: host.counters() });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------

/// One shard's journal tail: the bytes of every frame routed to it since
/// the last committed checkpoint generation, exactly as they went down
/// the pipe, with each checkpoint barrier at its stream position as a
/// frame scoped to this shard — so a failover replays it verbatim.
#[derive(Default)]
struct Tail {
    bytes: Vec<u8>,
    /// Event frames in `bytes`.
    events: u64,
    /// Per barrier in `bytes`: its generation, where its frame ends, and
    /// how many events precede it.
    barriers: Vec<(u64, usize, u64)>,
}

impl Tail {
    fn push_event(&mut self, frame: &[u8]) {
        self.bytes.extend_from_slice(frame);
        self.events += 1;
    }

    fn push_barrier(&mut self, shard: u32, generation: u64) -> Result<(), String> {
        self.bytes.extend(sup_frame(&SupMsg::Barrier { generation, shards: Some(vec![shard]) })?);
        self.barriers.push((generation, self.bytes.len(), self.events));
        Ok(())
    }

    /// Drop everything up to and including the barrier of `generation` —
    /// that prefix is durable once the generation's manifest commits.
    fn truncate(&mut self, generation: u64) {
        let Some(i) = self.barriers.iter().position(|b| b.0 == generation) else { return };
        let (_, end, before) = self.barriers[i];
        self.bytes.drain(..end);
        self.events -= before;
        self.barriers.drain(..=i);
        for b in &mut self.barriers {
            b.1 -= end;
            b.2 -= before;
        }
    }
}

/// One persisted epoch outcome: the `(table, epoch)` dedupe key plus
/// the outcome the worker reported.
type OutcomeEntry = (u16, u64, EpochOutcome);

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

/// An interactive query waiting for every live worker to pass its
/// in-band barrier.
struct PendingInteractive {
    control: Control,
    waiting: HashSet<usize>,
    reply: Option<Sender<String>>,
}

/// State shared between the supervisor's routing loop and the
/// per-worker collector threads.
struct Shared<'a> {
    /// Epoch outcomes keyed by `(table, epoch)` — the key under which a
    /// failover replay's re-reported (bit-identical) outcomes dedupe.
    outcomes: Mutex<BTreeMap<(u16, u64), EpochOutcome>>,
    /// Outstanding interactive queries by id.
    pending: Mutex<HashMap<u64, PendingInteractive>>,
    /// Per-shard journal tails since the last committed generation.
    tails: Mutex<BTreeMap<u32, Tail>>,
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
    fn fail(&self, e: String) {
        self.failure
            .lock()
            .expect("failure lock poisoned")
            .get_or_insert(e);
    }

    fn take_failure(&self) -> Option<String> {
        self.failure.lock().expect("failure lock poisoned").take()
    }

    /// The supervisor-side trace.
    fn trace(&self) -> Trace<'_> {
        self.sink.map_or(Trace::disabled(), Trace::to)
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
            if let Ok(json) = serde_json::to_string(&snapshot) {
                let _ = crate::checkpoint::atomic_write(p, json.as_bytes(), None);
            }
        }
    }

    /// The status line: the board's counters as the workers last
    /// reported them. Pipes have no queue to sample.
    fn status_line(&self) -> String {
        let depths = vec![0; self.board.shards as usize];
        let allocations = self.arbiter.allocations(self.trace());
        self.board.line(self.board.totals().dropped, &depths, &allocations)
    }

    /// All live workers acked query `id`? Then answer it — the acks that
    /// released it posted every shard's counters, so the answer covers
    /// exactly the events routed before the query.
    fn ack(&self, slot: usize, id: u64) {
        let mut pending = self.pending.lock().expect("pending lock poisoned");
        let Some(p) = pending.get_mut(&id) else { return };
        p.waiting.remove(&slot);
        if !p.waiting.is_empty() {
            return;
        }
        let p = pending.remove(&id).expect("entry just seen");
        drop(pending);
        let status = || self.status_line();
        let answer = self.arbiter.answer_in_band(p.control, self.board, status, self.trace());
        if let Some(answer) = answer {
            respond(p.reply, answer);
        }
    }

    /// Re-arm every pending query for the slots `live` after a failover,
    /// under fresh ids from `next_id`, in stream order; returns the ids
    /// to send again. An ack of an old id still in flight from a
    /// survivor predates the shards it just adopted: it finds nothing
    /// to release.
    fn rearm(&self, live: &HashSet<usize>, next_id: &mut u64) -> Vec<u64> {
        let mut pending = self.pending.lock().expect("pending lock poisoned");
        let mut queries: Vec<(u64, PendingInteractive)> = pending.drain().collect();
        queries.sort_unstable_by_key(|(id, _)| *id);
        let mut ids = Vec::with_capacity(queries.len());
        for (_, mut p) in queries {
            p.waiting.clone_from(live);
            pending.insert(*next_id, p);
            ids.push(*next_id);
            *next_id += 1;
        }
        ids
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
            WorkerMsg::Outcome { shard, outcome, counters } => {
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
                shared.board.post(shard, counters);
            }
            WorkerMsg::Publish { table, pf } => {
                shared.arbiter.publish(table, Arc::new(pf), Trace::disabled());
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
                                    tail.truncate(generation);
                                }
                            }
                            shared.persist_sidecars();
                        }
                        Ok(false) => {}
                        Err(e) => shared.fail(e),
                    }
                }
            }
            WorkerMsg::Ack { id, counters } => {
                for (shard, c) in counters {
                    shared.board.post(shard, c);
                }
                shared.ack(slot, id);
            }
            WorkerMsg::Final { shard, counters } => shared.board.post(shard, counters),
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

/// The process placement: the worker fleet one supervisor run routes
/// to. It owns the children and their pipes (`slots`), which slot hosts
/// each shard (`owners`), every `Define` frame read so far, the failover
/// budget and the thread scope its collectors run in. The per-shard
/// tails live in [`Shared`], because a collector truncates them when a
/// generation commits.
struct Fleet<'scope, 'env> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    shared: &'env Shared<'env>,
    schema: &'env Schema,
    config: &'env ServiceConfig,
    checkpoint: Option<&'env Path>,
    /// A resumed run's manifest and generation: where a shard restores
    /// from until this run commits one of its own.
    resumed: Option<(&'env Path, u64)>,
    slots: Vec<Slot>,
    owners: Vec<usize>,
    /// Every `Define` frame read so far, in stream order: what a newly
    /// spawned worker is sent right after its `Hello`, so that every
    /// live worker has seen every `Define` (see the module docs).
    defines: Vec<u8>,
    /// The progress count the current run of worker deaths started at,
    /// and its length.
    death_streak: (u64, usize),
    next_query: u64,
}

impl<'scope, 'env> Fleet<'scope, 'env> {
    /// Spawn the fleet — shard `k` on worker `k mod N` — and restore a
    /// resumed run's shards onto it.
    fn start(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        shared: &'env Shared<'env>,
        schema: &'env Schema,
        config: &'env ServiceConfig,
        checkpoint: Option<&'env Path>,
        resumed: Option<(&'env Path, u64)>,
    ) -> Result<Self, String> {
        let (workers, shards) = (config.workers as usize, config.shards);
        let mut fleet = Fleet {
            scope,
            shared,
            schema,
            config,
            checkpoint,
            resumed,
            slots: Vec::with_capacity(workers),
            owners: (0..shards).map(|k| k as usize % workers).collect(),
            defines: Vec::new(),
            death_streak: (0, 0),
            next_query: 0,
        };
        fleet.death_streak = (fleet.progress(), 0);
        for w in 0..workers {
            let hosted: Vec<u32> = (0..shards).filter(|k| *k as usize % workers == w).collect();
            let slot = fleet.spawn(w, hosted, true)?;
            fleet.slots.push(slot);
        }
        if fleet.resumed.is_some() {
            for k in 0..shards {
                let (_, data) = fleet.restore_source(k)?;
                let frame = sup_frame(&SupMsg::Adopt { shard: k, data })?;
                let idx = fleet.owners[k as usize];
                if !write_slot(&mut fleet.slots[idx], &frame) {
                    fleet.failover(vec![idx])?;
                }
            }
        }
        Ok(fleet)
    }

    /// Spawn one worker child into slot `slot_idx` with its collector,
    /// and greet it: the `Hello`, then every `Define` read so far.
    fn spawn(
        &self,
        slot_idx: usize,
        hello_shards: Vec<u32>,
        initial: bool,
    ) -> Result<Slot, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locate worker executable: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .env_remove(fault::ENV_SCHEDULE);
        // Fault-injection scoping: the supervisor fires the sup.* sites
        // itself and hands each worker.* entry to exactly ONE child —
        // the initial owner slot of the entry's scope shard. A
        // respawned replacement gets none, otherwise it would inherit
        // the fault and die in a loop. A malformed schedule disables
        // injection (fault::fire warns once).
        let spec = std::env::var(fault::ENV_SCHEDULE)
            .ok()
            .filter(|_| initial)
            .and_then(|spec| fault::Schedule::parse(&spec).ok())
            .and_then(|sched| sched.worker_spec(slot_idx as u32, self.config.workers));
        if let Some(spec) = spec {
            cmd.env(fault::ENV_SCHEDULE, spec);
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn worker: {e}"))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let eof = Arc::new(AtomicBool::new(false));
        {
            let eof = Arc::clone(&eof);
            let shared = self.shared;
            self.scope.spawn(move || collect(slot_idx, stdout, shared, &eof));
        }
        let hello = SupMsg::Hello {
            schema: Box::new(self.schema.clone()),
            config: Box::new(self.config.clone()),
            shards: hello_shards,
            manifest: self.checkpoint.map(|p| p.to_string_lossy().into_owned()),
        };
        let mut greeting = sup_frame(&hello)?;
        greeting.extend_from_slice(&self.defines);
        if stdin.write_all(&greeting).is_err() {
            return Err("worker died during handshake".into());
        }
        Ok(Slot { child, stdin: Some(stdin), eof, current_shard: None, alive: true })
    }

    /// Where a failed-over shard restores from: the last generation
    /// committed THIS run, else the resumed one. Returns the checkpoint
    /// *document*, not a path — [`Committer::read_committed`] snapshots
    /// generation and contents under one lock, because the file behind
    /// any path handed out here can be garbage-collected by a later
    /// commit before the adopter opens it.
    fn restore_source(&self, k: u32) -> Result<(u64, Option<String>), String> {
        if let (Some(c), Some(m)) = (self.shared.committer, self.checkpoint) {
            if let Some((g, text)) = c.read_committed(|g| shard_file(m, k, g))? {
                return Ok((g, Some(text)));
            }
        }
        if let Some((m, g)) = self.resumed {
            // Resumed files predate this run; its committer never
            // deletes them, so a plain read is safe.
            let path = shard_file(m, k, g);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            return Ok((g, Some(text)));
        }
        Ok((0, None))
    }

    /// Real progress: fresh epoch outcomes plus committed generations.
    fn progress(&self) -> u64 {
        self.shared.board.epochs.load(Ordering::Relaxed)
            + self.shared.committer.map_or(0, Committer::commits)
    }

    /// Restore every shard owned by a dead slot onto a survivor (or
    /// respawned replacement), replay its tail, then re-arm pending
    /// interactive queries. Loops until the topology is quiet; nested
    /// deaths re-enter the worklist, bounded by the attempt budget.
    ///
    /// The budget is shared across *every* call and resets only on real
    /// progress. A per-call counter would let a persistent fault — a
    /// worker that dies the same way every time it adopts a shard —
    /// cycle adopt → die forever, one death per call; consecutive deaths
    /// with nothing committed in between must instead exhaust the budget
    /// and abort.
    fn failover(&mut self, mut dead: Vec<usize>) -> Result<(), String> {
        if dead.is_empty() {
            return Ok(());
        }
        let board = self.shared.board;
        loop {
            while let Some(d) = dead.pop() {
                let now = self.progress();
                let (seen, n) = self.death_streak;
                let n = if now != seen { 1 } else { n + 1 };
                self.death_streak = (now, n);
                if n > 3 * self.slots.len() + 3 {
                    return Err(
                        "giving up after repeated worker deaths without progress during failover"
                            .into(),
                    );
                }
                if !self.slots[d].alive && !self.owners.contains(&d) {
                    continue;
                }
                let slot = &mut self.slots[d];
                slot.alive = false;
                slot.stdin = None;
                slot.child.kill().ok();
                // Let the collector drain every buffered message first:
                // adopter publishes must not overtake the dead worker's.
                let deadline = Instant::now() + Duration::from_secs(10);
                while !slot.eof.load(Ordering::Acquire) && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
                slot.child.wait().ok();

                let moved: Vec<u32> = self
                    .owners
                    .iter()
                    .enumerate()
                    .filter(|&(_, &o)| o == d)
                    .map(|(k, _)| k as u32)
                    .collect();
                if moved.is_empty() {
                    continue;
                }
                fault::fire(fault::SUP_FAILOVER, d as u32)?;
                let survivor = self.slots.iter().position(|s| s.alive);
                let target = match survivor {
                    Some(t) if !self.config.respawn => t,
                    _ => match self.spawn(d, Vec::new(), false) {
                        Ok(slot) => {
                            self.slots[d] = slot;
                            board.restarts.fetch_add(1, Ordering::Relaxed);
                            d
                        }
                        Err(e) => survivor.ok_or(e)?,
                    },
                };
                // Reassign ownership up front: if the target dies
                // mid-restore, its own failover re-moves every shard,
                // including not-yet-restored ones.
                for &k in &moved {
                    self.owners[k as usize] = target;
                }
                for &k in &moved {
                    let t0 = Instant::now();
                    fault::fire(fault::SUP_ADOPT, k)?;
                    let (generation, replayed, bytes) = {
                        // The restore snapshot and the tail must be read
                        // under ONE tails lock: a commit completes first
                        // and truncates the tails second, and landing
                        // between the two would pair a generation-g
                        // checkpoint with a pre-g tail — replaying events
                        // the checkpoint already contains. (The committer
                        // lock nests inside; its callers never hold it
                        // while taking the tails lock.)
                        let mut tails = self.shared.tails.lock().expect("tails lock poisoned");
                        let (generation, data) = self.restore_source(k)?;
                        let mut bytes = sup_frame(&SupMsg::Adopt { shard: k, data })?;
                        bytes.extend(sup_frame(&SupMsg::Shard { shard: k })?);
                        // If that race did hit, generation g's barrier is
                        // still in the tail: what precedes it is durable,
                        // drop it now.
                        let tail = tails.get_mut(&k).expect("tail for every shard");
                        tail.truncate(generation);
                        bytes.extend_from_slice(&tail.bytes);
                        (generation, tail.events, bytes)
                    };
                    if !write_slot(&mut self.slots[target], &bytes) {
                        dead.push(target);
                        break;
                    }
                    self.slots[target].current_shard = Some(k);
                    board.failovers.fetch_add(1, Ordering::Relaxed);
                    if let Some(sink) = self.shared.sink {
                        sink.record(TraceEvent::Failover {
                            shard: k,
                            generation,
                            replayed,
                            adopted_by: target as u32,
                            micros: t0.elapsed().as_micros() as u64,
                        });
                    }
                }
            }
            // Re-arm pending interactive queries under the new topology:
            // every live worker must ack again (workers ack every Query
            // they see, so the at-least-once re-send is safe).
            let ids = self.shared.rearm(&self.live(), &mut self.next_query);
            for id in ids {
                dead.extend(self.write_live(&sup_frame(&SupMsg::Query { id })?));
            }
            if dead.is_empty() {
                // The failover/restart counters just moved; make them
                // durable for the next incarnation.
                self.shared.persist_sidecars();
                return Ok(());
            }
        }
    }

    /// The live slots.
    fn live(&self) -> HashSet<usize> {
        (0..self.slots.len()).filter(|&i| self.slots[i].alive).collect()
    }

    /// Write `bytes` to every live slot; returns the slots whose pipe
    /// broke.
    fn write_live(&mut self, bytes: &[u8]) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&i| self.slots[i].alive && !write_slot(&mut self.slots[i], bytes))
            .collect()
    }

    /// Write `bytes` to every live worker, failing over those whose
    /// pipe broke.
    fn broadcast(&mut self, bytes: &[u8]) -> Result<(), String> {
        let dead = self.write_live(bytes);
        self.failover(dead)
    }

    /// Fail over every live slot whose collector hit EOF; reaping
    /// happens inside the failover.
    fn sweep(&mut self) -> Result<(), String> {
        let dead = (0..self.slots.len())
            .filter(|&i| self.slots[i].alive && self.slots[i].eof.load(Ordering::Acquire))
            .collect();
        self.failover(dead)
    }

    /// Put query `control` in band on every live worker; the collector
    /// that takes the last ack answers it.
    fn enqueue_query(
        &mut self,
        control: Control,
        reply: Option<Sender<String>>,
    ) -> Result<(), String> {
        let id = self.next_query;
        self.next_query += 1;
        let waiting = self.live();
        self.shared
            .pending
            .lock()
            .expect("pending lock poisoned")
            .insert(id, PendingInteractive { control, waiting, reply });
        self.broadcast(&sup_frame(&SupMsg::Query { id })?)
    }

    /// Poll until `done`, failing over deaths meanwhile.
    fn wait(&mut self, what: &str, done: impl Fn() -> bool) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(600);
        loop {
            if let Some(e) = self.shared.take_failure() {
                return Err(e);
            }
            if done() {
                return Ok(());
            }
            self.sweep()?;
            if Instant::now() > deadline {
                return Err(format!("timed out waiting for {what}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Quiesce: an in-band liveness barrier. The ingest loop only
    /// notices a death while it still has bytes to write, and a small
    /// stream fits whole into the pipe buffers — so a worker can die
    /// holding routed events it never ingested, strictly *after* routing
    /// ends. Every live worker must ack a final query (acks are in-band,
    /// so an ack proves everything routed before it was consumed) before
    /// the fleet may retire; a worker that dies instead is failed over
    /// here, and its tail replay re-feeds exactly the unacked events.
    /// `Shutdown` is the sentinel control no one answers.
    fn quiesce(&mut self) -> Result<(), String> {
        self.enqueue_query(Control::Shutdown, None)?;
        let shared = self.shared;
        self.wait("workers to quiesce at shutdown", || {
            let pending = shared.pending.lock().expect("pending lock poisoned");
            !pending.values().any(|p| p.control == Control::Shutdown)
        })
    }

    /// Retire the fleet: best-effort `Shutdown`, close every pipe, reap
    /// every child. Everything reportable is already in — outcomes and
    /// publishes stream ahead of the final barrier, and with
    /// checkpointing the final shard files carry exact counters.
    fn retire(&mut self) -> Result<(), String> {
        let bye = sup_frame(&SupMsg::Shutdown)?;
        for slot in &mut self.slots {
            if slot.alive {
                let _ = write_slot(slot, &bye);
            }
            slot.stdin = None;
        }
        for slot in &mut self.slots {
            slot.child.wait().ok();
        }
        Ok(())
    }
}

impl Placement for Fleet<'_, '_> {
    /// Append the event's frame to the shard's tail FIRST (an event lost
    /// in a dying pipe is then still replayed), switch the worker's
    /// current shard if needed, write, and fail over on a broken pipe.
    fn route(&mut self, shard: u32, item: Routed) -> Result<(), String> {
        // Fires before the tail append: a kill here loses nothing,
        // because the input journal already holds this event (teed at
        // consume time).
        fault::fire(fault::SUP_ROUTE, shard)?;
        let frame = item_frame(&match item {
            Routed::Line(line) => WireItem::Raw(line.into()),
            Routed::Event { template, frequency } => WireItem::Event { template, frequency },
            // The one encoding of an invalid record (see the module docs).
            Routed::Invalid => WireItem::Raw(Vec::new()),
        });
        self.shared
            .tails
            .lock()
            .expect("tails lock poisoned")
            .get_mut(&shard)
            .expect("tail exists for every shard")
            .push_event(&frame);
        let idx = self.owners[shard as usize];
        let slot = &mut self.slots[idx];
        let bytes = if slot.current_shard == Some(shard) {
            frame
        } else {
            slot.current_shard = Some(shard);
            let mut bytes = sup_frame(&SupMsg::Shard { shard })?;
            bytes.extend(frame);
            bytes
        };
        if slot.alive && write_slot(slot, &bytes) {
            Ok(())
        } else {
            // Do NOT retry the write: the event is in the tail, and the
            // failover replay delivers it.
            self.failover(vec![idx])
        }
    }

    /// To every live worker, now — and to every later one after its
    /// `Hello`.
    fn define(
        &mut self,
        _shard: u32,
        _id: usize,
        table: u16,
        kind: QueryKind,
        attrs: Vec<u32>,
    ) -> Result<(), String> {
        let frame = item_frame(&WireItem::Define { table, kind, attrs });
        self.defines.extend_from_slice(&frame);
        self.broadcast(&frame)
    }

    fn barrier(&mut self, generation: u64, routed: u64) -> Result<(), String> {
        let Some(c) = self.shared.committer else { return Ok(()) };
        fault::fire(fault::SUP_BARRIER_OPEN, generation as u32)?;
        c.open(generation, routed);
        {
            let mut tails = self.shared.tails.lock().expect("tails lock poisoned");
            for (&k, tail) in tails.iter_mut() {
                tail.push_barrier(k, generation)?;
            }
        }
        self.broadcast(&sup_frame(&SupMsg::Barrier { generation, shards: None })?)
    }

    /// `status` is in band here like every query: the counters live in
    /// the workers, and the acks that release the answer carry them.
    fn query(&mut self, control: Control, reply: Option<Sender<String>>) -> Result<(), String> {
        self.enqueue_query(control, reply)
    }

    /// Nothing is buffered: every frame is written as it is routed.
    fn flush(&mut self) {}

    /// Fail the run on a collector's hard failure; fail over every
    /// worker whose collector hit EOF.
    fn poll(&mut self) -> Result<(), String> {
        if let Some(e) = self.shared.take_failure() {
            return Err(e);
        }
        self.sweep()
    }

    fn status_line(&self) -> String {
        self.shared.status_line()
    }
}

impl Router {
    /// The process placement's run: spawn the workers, route every
    /// event to its shard's hosting process, commit checkpoint
    /// generations, fail over dead workers, and at the end drain the
    /// children — with a `final_selection` byte-identical to the thread
    /// placement's over the same events, crashes or not.
    ///
    /// `sink` receives the supervisor-side trace: deploy actions at the
    /// outcome dedupe point, one [`TraceEvent::Failover`] per restored
    /// shard and the [`TraceEvent::Recovery`] of a recovering run.
    /// (Workers do not trace their tuning runs — see [`run_worker`].)
    pub(crate) fn run_processes(
        &mut self,
        input: &mut (dyn BufRead + Send),
        checkpoint: Option<&Path>,
        committer: Option<&Committer<'_>>,
        sink: Option<&dyn TraceSink>,
    ) -> Result<Ran, String> {
        let t_start = Instant::now();
        let shards = self.map.shards();
        let board = &*self.board;
        let status_path = self.state_dir.as_ref().map(|d| d.join("status.json"));
        let outcomes_path = self.state_dir.as_ref().map(|d| d.join("outcomes.json"));
        if let Some(p) = &status_path {
            crate::status::PersistedStatus::load(p).apply(board);
        }
        let (skipped, prior_gen) = self.stream.skipped();
        // Epoch outcomes folded into committed generations by prior
        // incarnations replay without re-tuning, so their report lines
        // come from the sidecar, not from the workers.
        let mut prior_outcomes: BTreeMap<(u16, u64), EpochOutcome> = BTreeMap::new();
        if self.recovered_bytes.is_some() {
            if let Some(c) = committer {
                c.prime(prior_gen);
            }
            if let Some(p) = &outcomes_path {
                prior_outcomes = load_outcomes(p);
                board.epochs.store(prior_outcomes.len() as u64, Ordering::Relaxed);
            }
        }

        let shared = Shared {
            outcomes: Mutex::new(prior_outcomes),
            pending: Mutex::new(HashMap::new()),
            tails: Mutex::new((0..shards).map(|k| (k, Tail::default())).collect()),
            failure: Mutex::new(None),
            board,
            committer,
            arbiter: &self.arbiter,
            sink,
            status_path,
            outcomes_path,
        };

        let (schema, config, map) = (&self.schema, &self.config, &self.map);
        let resumed = self.resumed.as_ref().map(|(m, g)| (m.as_path(), *g));
        let interactive = self.interactive.as_deref();
        let recovered_bytes = self.recovered_bytes;
        let stream = &mut self.stream;
        let final_committed = std::thread::scope(|scope| -> Result<Option<u64>, String> {
            let mut fleet = Fleet::start(scope, &shared, schema, config, checkpoint, resumed)?;
            if let (Some(journal_bytes), Some(sink)) = (recovered_bytes, sink) {
                sink.record(TraceEvent::Recovery {
                    generation: prior_gen,
                    skipped,
                    journal_bytes,
                    micros: t_start.elapsed().as_micros() as u64,
                });
            }
            stream.run(input, schema, map, interactive, checkpoint.is_some(), &mut fleet)?;
            fleet.quiesce()?;
            // Final generation, then drain the fleet.
            let mut final_committed = None;
            if let Some(c) = shared.committer {
                let final_gen = stream.take_generation();
                fleet.barrier(final_gen, stream.routed)?;
                // Wait out the final commit, absorbing deaths: a dead
                // worker's tail ends with the scoped final barrier, so
                // its adopter completes the generation.
                let committed = || c.committed() == Some(final_gen);
                fleet.wait("the final checkpoint generation", committed)?;
                final_committed = Some(final_gen);
            }
            fleet.retire()?;
            Ok(final_committed)
        })?;

        shared.persist_sidecars();
        if let Some(e) = shared.take_failure() {
            return Err(e);
        }
        // With a committed final generation, the shard files carry
        // exact counters — authoritative even if a worker died between
        // the commit and its Final report.
        if let (Some(gen), Some(m)) = (final_committed, checkpoint) {
            for k in 0..shards {
                let host = ShardCheckpoint::load(&shard_file(m, k, gen))
                    .and_then(|cp| GroupHost::adopt(&cp, &self.schema, &self.config));
                if let Ok(host) = host {
                    board.post(k, host.counters());
                }
            }
        }
        let epochs = shared.outcomes.into_inner().expect("outcomes lock poisoned");
        // Pipes have no queue to fill.
        Ok((epochs.into_values().collect(), board.totals(), 0))
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
        let counters = ShardCounters { ingested: 5, invalid: 1, ..ShardCounters::default() };
        let m = WorkerMsg::Final { shard: 2, counters };
        let json = serde_json::to_string(&m).unwrap();
        let back: WorkerMsg = serde_json::from_str(&json).unwrap();
        assert_eq!(format!("{m:?}"), format!("{back:?}"));
    }

    fn raw_frame(line: &str) -> Vec<u8> {
        item_frame(&WireItem::Raw(line.into()))
    }

    /// After a failover a pending query waits on the new live set under
    /// a fresh id: the survivor's ack of the old id, still in flight
    /// from before it adopted the dead worker's shards, releases
    /// nothing; its ack of the re-sent copy answers.
    #[test]
    fn a_rearmed_query_ignores_acks_sent_before_the_failover() {
        let board = StatusBoard::new(2);
        let arbiter = Arbiter::new(1 << 20, BTreeMap::new());
        let shared = Shared {
            outcomes: Mutex::new(BTreeMap::new()),
            pending: Mutex::new(HashMap::new()),
            tails: Mutex::new(BTreeMap::new()),
            failure: Mutex::new(None),
            board: &board,
            committer: None,
            arbiter: &arbiter,
            sink: None,
            status_path: None,
            outcomes_path: None,
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let query = PendingInteractive {
            control: Control::Calibration,
            waiting: HashSet::from([0, 1]),
            reply: Some(tx),
        };
        shared.pending.lock().unwrap().insert(4, query);
        // Worker 0 dies; worker 1 is left and gets the query again.
        let mut next_id = 5;
        assert_eq!(shared.rearm(&HashSet::from([1]), &mut next_id), [5]);
        assert_eq!(next_id, 6);
        shared.ack(1, 4);
        assert!(rx.try_recv().is_err(), "a pre-failover ack released the query");
        shared.ack(1, 5);
        assert_eq!(rx.try_recv().unwrap(), crate::CalSnapshot::default().render());
    }

    #[test]
    fn tail_truncates_through_the_committed_barrier() {
        let mut tail = Tail::default();
        tail.push_event(&raw_frame("a"));
        tail.push_barrier(3, 0).unwrap();
        tail.push_event(&raw_frame("b"));
        tail.push_barrier(3, 1).unwrap();
        tail.push_event(&raw_frame("c"));
        let scoped = |g| sup_frame(&SupMsg::Barrier { generation: g, shards: Some(vec![3]) });
        tail.truncate(99); // unknown generation: no-op
        assert_eq!(tail.events, 3);
        tail.truncate(0);
        assert_eq!(tail.events, 2);
        assert_eq!(tail.bytes, [raw_frame("b"), scoped(1).unwrap(), raw_frame("c")].concat());
        tail.truncate(1);
        assert_eq!((tail.events, tail.bytes), (1, raw_frame("c")));
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
        // How the supervisor sends a record to be counted invalid.
        frames.push(raw_frame(""));
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
            msgs.iter().any(|m| matches!(
                m,
                WorkerMsg::Final { shard: 0, counters: c } if (c.ingested, c.invalid) == (16, 2)
            )),
            "final counters: {msgs:?}"
        );
    }

    /// `Define`/`Event` frames fold exactly like the lines they encode:
    /// the same replies, message for message — and an event of a
    /// schema-invalid template counts invalid like an unparseable line.
    #[test]
    fn worker_folds_binary_events_like_their_lines() {
        let w = workload();
        let line = table0_lines(&w, 1).remove(0);
        let q = w.queries().iter().find(|q| q.table().0 == 0 && !q.is_update()).unwrap();
        let attrs: Vec<u32> = q.attrs().iter().map(|a| a.0).collect();
        let replies = |events: Vec<Vec<u8>>| {
            let kind = isel_workload::QueryKind::Select;
            let mut frames = vec![hello(&w, vec![0], None)];
            frames.push(item_frame(&WireItem::Define { table: 0, kind, attrs: attrs.clone() }));
            frames.push(item_frame(&WireItem::Define { table: 0, kind, attrs: vec![u32::MAX] }));
            frames.push(sup_frame(&SupMsg::Shard { shard: 0 }).unwrap());
            frames.extend(events);
            frames.push(sup_frame(&SupMsg::Shutdown).unwrap());
            let msgs = drive(&frames).unwrap();
            msgs.iter().map(|m| serde_json::to_string(m).unwrap()).collect::<Vec<_>>()
        };
        let event = |template| item_frame(&WireItem::Event { template, frequency: 1 });
        let lines = replies([vec![raw_frame(&line); 16], vec![raw_frame("garbage")]].concat());
        let events = replies([vec![event(0); 16], vec![event(1)]].concat());
        assert_eq!(events, lines);
        assert!(lines.iter().any(|l| l.contains("\"ingested\":16,\"invalid\":1")), "{lines:?}");
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
            msgs.iter().any(|m| matches!(
                m,
                WorkerMsg::Final { shard: 0, counters: c } if (c.ingested, c.invalid) == (16, 0)
            )),
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
