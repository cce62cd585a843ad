//! The tuning router — the one serving engine, under every `--shards`
//! and at both placements: the one ingest loop (`stream.rs`) fanning
//! records out to shards, each hosting its own groups (DESIGN.md §13).
//! The shards live on threads of this process, or — at
//! `config.workers > 0` — in worker processes ([`crate::process`]).
//!
//! ## Architecture
//!
//! The **unit of tuning state is the group** (`group.rs`). Under
//! `shards >= 1` a group is a table — one [`EpochWindow`] plus one
//! table-scoped tuner, sealing epochs on the group's *own* valid-event
//! count and budgeting with the table-separable split of Eq. (10)
//! ([`isel_core::budget::table_relative_budget`]). Shards merely pack
//! groups onto threads via the [`ShardMap`]; no tuning state spans
//! shards, so the selection sequence is **bit-identical at every shard
//! count** by construction (pinned by `tests/service.rs`). `shards == 0`
//! is the one-group case: the whole workload as a single whole-schema
//! group on one shard — Section VII's `dynamic::adapt` loop run
//! continuously (DESIGN.md §12), a different product, not a different
//! engine.
//!
//! In process, the router thread runs the loop over the thread
//! placement, `Handoff`: a text line is classified by a byte scan (no
//! JSON parse) and appended to its shard's hand-off batch, which crosses
//! the shard's bounded queue under one lock and one wake-up when it is
//! full and before every read that may block ([`RecordIter::next_with`]).
//! Workers take whatever is queued in one swap and parse, validate,
//! fold and tune. `checkpoint` and the cadence put a barrier on *every*
//! queue at the same stream position; `status` is answered by the
//! router thread from the [`StatusBoard`], out of band.
//!
//! ## Checkpointing
//!
//! On `Barrier(g)` each worker writes its groups as a
//! [`crate::ShardCheckpoint`] to `<stem>.shard-{k}.g{g}.json`; when
//! every shard has, the `Committer` atomically writes the
//! [`Manifest`] and deletes older generations' files, so a kill leaves
//! the previous complete generation or the new one — never a mix. A
//! manifest may be resumed at a **different** shard count
//! ([`Router::resume`] re-packs groups under the current map).
//!
//! ## Arbitration
//!
//! Whenever a group's epoch re-selects, its worker publishes the new
//! frontier to the live [`crate::arbiter::Arbiter`], which folds it
//! into the maintained global-budget merge; the
//! [`ServiceReport::final_selection`] is a cheap read of that state.
//! `whatif`, `tenant`, `budget` and `calibration` controls ride every
//! queue as an in-band marker, and the last worker to reach one answers
//! it — behind exactly the events that preceded it, without re-running
//! selection.

use crate::arbiter::{global_budget, respond, Arbiter, InteractiveRegistry, PendingQuery};
use crate::checkpoint::{Manifest, CHECKPOINT_VERSION};
use crate::config::ServiceConfig;
use crate::event::{parse_line, Control, InputLine};
use crate::group::{Env, GroupHost, Sealed, ShardCounters};
use crate::queue::BoundedQueue;
use crate::records::{DecodeDict, RecordIter};
use crate::shard::{ShardMap, ShardTagSink};
use crate::status::StatusBoard;
use crate::stream::{Decision, Placement, Routed, Stream};
use crate::tuner::EpochOutcome;
use crate::window::EpochWindow;
use isel_core::dynamic::EpochResult;
use isel_core::{budget, Selection, Trace, TraceSink};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf};
use isel_workload::{Query, QueryKind, Schema, Workload};
use std::collections::{BTreeMap, VecDeque};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};

/// What happens when a shard queue is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Producer waits — lossless; required for deterministic replay.
    Block,
    /// Oldest queued event is evicted (counted) — live serving.
    DropOldest,
}

/// Summary of one run.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Outcome of every epoch tuned during this run, in canonical
    /// `(group, epoch)` order.
    pub epochs: Vec<EpochOutcome>,
    /// Valid query events ingested (lifetime total, including epochs
    /// restored from a checkpoint).
    pub ingested: u64,
    /// Invalid input lines skipped (lifetime total).
    pub invalid: u64,
    /// Events dropped under overload (lifetime total).
    pub dropped: u64,
    /// Highest queue fill level observed this run.
    pub queue_high_water: u64,
    /// Checkpoints written this run.
    pub checkpoints_written: u64,
    /// Selection in force at shutdown.
    pub final_selection: Selection,
}

/// Items flowing through one shard's queue.
enum ShardItem {
    /// A routed record: a raw line the worker parses and validates, an
    /// event of a previously sent `Define`, or an invalid record the
    /// worker counts at its position in the shard's stream. The only
    /// item drop-oldest sheds.
    Routed(Routed),
    /// A template definition — binary, or a line the router resolved —
    /// carrying its stream-global id. The router sends it to the owning
    /// table's shard, whose dictionary validates it against the schema
    /// once.
    Define {
        id: usize,
        table: u16,
        kind: QueryKind,
        attrs: Vec<u32>,
    },
    /// Checkpoint barrier of one generation.
    Barrier(u64),
    /// An interactive arbitration query riding every queue as an in-band
    /// barrier; the last worker to reach it answers from the arbiter.
    Query(Arc<PendingQuery>),
}

/// Most items the router thread collects per shard before handing them
/// over. A condvar wake-up per event costs several times what decoding
/// and folding the event does; at a few hundred items per wake-up it no
/// longer shows. Not a knob: batches never wait for a timer, only for
/// input that is already buffered (see [`Handoff`]).
const HANDOFF_BATCH: usize = 512;

/// The thread placement: the router thread's end of the shard queues,
/// one batch per shard pushed with one lock and one wake-up, plus what
/// the router thread answers itself — barrier openings at the
/// committer, and `status`, out of band.
///
/// A batch is handed over when it reaches [`HANDOFF_BATCH`] items (or
/// the queue's capacity, if that is smaller — a batch never evicts its
/// own head under drop-oldest, and memory stays bounded by
/// `queue_capacity` items), and every batch is handed over
///
/// * before anything that must see the preceding events on every shard:
///   a checkpoint barrier, an interactive query, the end of the stream;
/// * before every read of the input that may block
///   ([`RecordIter::next_with`]).
///
/// The second rule is why there is no linger timer: an event waits in a
/// batch only while more input is already in the reader's buffer, so a
/// mapped journal runs at full batch size and a socket delivering one
/// line at a time hands over every line as it arrives.
struct Handoff<'a> {
    queues: &'a [BoundedQueue<ShardItem>],
    policy: OverloadPolicy,
    batches: Vec<Vec<ShardItem>>,
    batch_items: usize,
    committer: Option<&'a Committer<'a>>,
    board: &'a StatusBoard,
    arbiter: &'a Arbiter,
    /// Drops restored from a checkpoint, before this run's queues.
    base_dropped: u64,
}

impl<'a> Handoff<'a> {
    fn new(
        queues: &'a [BoundedQueue<ShardItem>],
        policy: OverloadPolicy,
        capacity: usize,
        committer: Option<&'a Committer<'a>>,
        board: &'a StatusBoard,
        arbiter: &'a Arbiter,
        base_dropped: u64,
    ) -> Self {
        let batch_items = HANDOFF_BATCH.min(capacity);
        let batches = queues.iter().map(|_| Vec::with_capacity(batch_items)).collect();
        Self { queues, policy, batches, batch_items, committer, board, arbiter, base_dropped }
    }

    fn push(&mut self, shard: u32, item: ShardItem) {
        let batch = &mut self.batches[shard as usize];
        batch.push(item);
        if batch.len() >= self.batch_items {
            Self::hand_over(&self.queues[shard as usize], self.policy, batch);
        }
    }

    fn hand_over(
        queue: &BoundedQueue<ShardItem>,
        policy: OverloadPolicy,
        batch: &mut Vec<ShardItem>,
    ) {
        match policy {
            OverloadPolicy::Block => queue.push_all_blocking(batch),
            // Only a routed record is shed: a lost `Define` would turn
            // every later event of its template invalid, and a marker
            // must reach every queue.
            OverloadPolicy::DropOldest => {
                queue.push_all_drop_oldest(batch, |item| matches!(item, ShardItem::Routed(_)))
            }
        };
    }

    /// Put one in-band marker on *every* queue, behind everything routed
    /// so far. Markers are pushed blocking at every policy, and never
    /// evicted: a barrier or query must reach each queue.
    fn broadcast(&mut self, marker: impl Fn() -> ShardItem) {
        self.flush();
        for queue in self.queues {
            queue.push_blocking(marker());
        }
    }
}

impl Placement for Handoff<'_> {
    #[inline]
    fn route(&mut self, shard: u32, item: Routed) -> Result<(), String> {
        self.push(shard, ShardItem::Routed(item));
        Ok(())
    }

    /// Only to the table's shard: the worker validates it against the
    /// schema once.
    fn define(
        &mut self,
        shard: u32,
        id: usize,
        table: u16,
        kind: QueryKind,
        attrs: Vec<u32>,
    ) -> Result<(), String> {
        self.push(shard, ShardItem::Define { id, table, kind, attrs });
        Ok(())
    }

    fn barrier(&mut self, generation: u64, routed: u64) -> Result<(), String> {
        if let Some(c) = self.committer {
            c.open(generation, routed);
            self.broadcast(|| ShardItem::Barrier(generation));
        }
        Ok(())
    }

    /// `status` is answered now, from the board as it stands — out of
    /// band, never queued. Every other query rides every queue as an
    /// in-band marker, so the answer reflects exactly the events before
    /// it.
    fn query(&mut self, control: Control, reply: Option<Sender<String>>) -> Result<(), String> {
        if control == Control::Status {
            respond(reply, self.status_line());
        } else {
            let pq = PendingQuery::new(control, self.queues.len() as u32, reply);
            self.broadcast(|| ShardItem::Query(Arc::clone(&pq)));
        }
        Ok(())
    }

    fn flush(&mut self) {
        for (queue, batch) in self.queues.iter().zip(&mut self.batches) {
            Self::hand_over(queue, self.policy, batch);
        }
    }

    #[inline]
    fn poll(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn status_line(&self) -> String {
        let dropped =
            self.base_dropped + self.queues.iter().map(BoundedQueue::dropped).sum::<u64>();
        let depths: Vec<u64> = self.queues.iter().map(|q| q.len() as u64).collect();
        // The router thread writes no trace: a merge this read settles
        // is counted in `Arbiter::merges`, not traced.
        self.board.line(dropped, &depths, &self.arbiter.allocations(Trace::disabled()))
    }
}

/// One pending checkpoint generation inside the committer.
struct PendingGen {
    routed_lines: u64,
    files: BTreeMap<u32, PathBuf>,
}

struct CommitterInner {
    pending: BTreeMap<u64, PendingGen>,
    /// Highest committed generation, if any.
    committed: Option<u64>,
    /// Shard files of the committed generation (kept until superseded).
    live_files: Vec<PathBuf>,
    /// Manifests written this run.
    commits: u64,
}

/// Counts per-generation shard-file completions and commits the
/// manifest once a generation is complete on every shard. At the
/// process placement ([`crate::process`]) the collectors report `done`
/// on behalf of the worker processes.
pub(crate) struct Committer<'a> {
    manifest_path: &'a Path,
    shards: u32,
    board: &'a StatusBoard,
    inner: Mutex<CommitterInner>,
}

impl<'a> Committer<'a> {
    pub(crate) fn new(manifest_path: &'a Path, shards: u32, board: &'a StatusBoard) -> Self {
        Self {
            manifest_path,
            shards,
            board,
            inner: Mutex::new(CommitterInner {
                pending: BTreeMap::new(),
                committed: None,
                live_files: Vec::new(),
                commits: 0,
            }),
        }
    }

    /// Credit `commits` manifests written by prior incarnations, so a
    /// recovered run's report counts commits across the whole
    /// logical run — byte-identical to the uninterrupted one. Every
    /// generation 1..=G commits exactly one manifest, so the committed
    /// generation *is* the prior commit count.
    pub(crate) fn prime(&self, commits: u64) {
        self.inner.lock().expect("committer lock poisoned").commits += commits;
        self.board.checkpoints.fetch_add(commits, Ordering::Relaxed);
    }

    /// Register a generation the router is about to inject barriers for.
    /// Must be called before any worker can report it done.
    pub(crate) fn open(&self, generation: u64, routed_lines: u64) {
        self.inner
            .lock()
            .expect("committer lock poisoned")
            .pending
            .insert(generation, PendingGen { routed_lines, files: BTreeMap::new() });
    }

    /// A worker finished writing its shard file for `generation`. The
    /// last worker in triggers the manifest commit; returns `true` iff
    /// this call committed the generation's manifest (the process
    /// placement truncates journal tails on that edge). Idempotent for
    /// unknown and superseded generations.
    pub(crate) fn done(
        &self,
        shard: u32,
        generation: u64,
        file: PathBuf,
    ) -> Result<bool, String> {
        let mut g = self.inner.lock().expect("committer lock poisoned");
        let Some(pending) = g.pending.get_mut(&generation) else {
            return Ok(false); // unknown generation: nothing to commit
        };
        pending.files.insert(shard, file);
        if pending.files.len() as u32 != self.shards {
            return Ok(false);
        }
        let complete = g.pending.remove(&generation).expect("entry just updated");
        if g.committed.is_some_and(|c| generation <= c) {
            // Superseded (a later generation already committed): discard.
            for f in complete.files.values() {
                std::fs::remove_file(f).ok();
            }
            return Ok(false);
        }
        let manifest = Manifest {
            version: CHECKPOINT_VERSION,
            generation,
            shards: self.shards,
            routed_lines: complete.routed_lines,
            files: complete
                .files
                .values()
                .map(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .expect("shard_file produces utf-8 names")
                        .to_owned()
                })
                .collect(),
        };
        // Every shard file is on disk, the manifest is not — a kill in
        // this window must recover to the *previous* generation.
        crate::fault::fire(crate::fault::SUP_COMMIT, generation as u32)?;
        manifest.save(self.manifest_path)?;
        // The new generation is durable; older files are now garbage —
        // including those of any older generation still pending, which
        // can no longer commit.
        let stale: Vec<PathBuf> = std::mem::take(&mut g.live_files);
        let dead_gens: Vec<u64> =
            g.pending.range(..generation).map(|(&gen, _)| gen).collect();
        for gen in dead_gens {
            if let Some(p) = g.pending.remove(&gen) {
                for f in p.files.values() {
                    std::fs::remove_file(f).ok();
                }
            }
        }
        for f in stale {
            std::fs::remove_file(&f).ok();
        }
        g.live_files = complete.files.into_values().collect();
        g.committed = Some(generation);
        g.commits += 1;
        self.board.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    pub(crate) fn commits(&self) -> u64 {
        self.inner.lock().expect("committer lock poisoned").commits
    }

    /// Highest committed generation so far, if any.
    pub(crate) fn committed(&self) -> Option<u64> {
        self.inner.lock().expect("committer lock poisoned").committed
    }

    /// Snapshot one shard's checkpoint *document* at the committed
    /// generation: both the generation and the file contents are read
    /// under the committer lock, so a concurrent [`Committer::done`]
    /// cannot delete the file between choosing it and reading it. The
    /// process placement restores failed-over shards from this
    /// snapshot — a dead worker may have pre-reported enough future
    /// generations for *several* commits to land while an adoption is
    /// in flight, so any path handed out here could be garbage by the
    /// time a worker opened it. `file` maps the committed generation to
    /// the shard's file path.
    pub(crate) fn read_committed(
        &self,
        file: impl FnOnce(u64) -> PathBuf,
    ) -> Result<Option<(u64, String)>, String> {
        let g = self.inner.lock().expect("committer lock poisoned");
        let Some(generation) = g.committed else { return Ok(None) };
        let path = file(generation);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        Ok(Some((generation, text)))
    }
}

/// Per-worker context shared by the shard loop.
struct WorkerCtx<'a> {
    shard: u32,
    env: &'a Env<'a>,
    board: &'a StatusBoard,
    committer: Option<&'a Committer<'a>>,
    checkpoint: Option<&'a Path>,
    sink: Option<&'a dyn TraceSink>,
    arbiter: &'a Arbiter,
}

/// The tuning service: table groups packed onto shards by a
/// `ShardMap` — or, at `config.shards == 0`, the whole workload tuned
/// as one group on one shard — driven by [`Router::run_reader`]. Where
/// the shards live is the run's placement, chosen by `config.workers`:
/// threads of this process at 0 (`Handoff`), worker processes above
/// ([`crate::process`]'s `Fleet`).
pub struct Router {
    pub(crate) schema: Schema,
    pub(crate) config: ServiceConfig,
    pub(crate) map: ShardMap,
    /// Every group, with the lifetime counters restored from a
    /// checkpoint (zero for a fresh router); a run deals the groups out
    /// to its shard threads and collects them again. Empty under worker
    /// processes, which hold the groups themselves.
    state: GroupHost,
    /// Where the next run continues the stream (a resumed router
    /// continues the manifest's count and generations) — and, on
    /// journal-replay recovery ([`Router::set_recovery`]), what of it
    /// is done.
    pub(crate) stream: Stream,
    pub(crate) arbiter: Arbiter,
    pub(crate) board: Arc<StatusBoard>,
    pub(crate) interactive: Option<Arc<InteractiveRegistry>>,
    /// Worker processes: a resumed manifest and its generation, which
    /// the workers restore their shards from.
    pub(crate) resumed: Option<(PathBuf, u64)>,
    /// Prior-incarnation journal size, when recovering (drives the
    /// [`isel_core::TraceEvent::Recovery`] emission).
    pub(crate) recovered_bytes: Option<u64>,
    /// State directory holding the restart sidecars (`status.json`
    /// counters, `outcomes.json` epoch history).
    pub(crate) state_dir: Option<PathBuf>,
}

/// What a placement hands back from a run: the epochs tuned, in
/// canonical `(group, epoch)` order, the lifetime counters and the
/// highest queue fill level.
pub(crate) type Ran = (Vec<EpochOutcome>, ShardCounters, u64);

impl Router {
    /// Fresh router with no tuned state. `config.shards == 0` selects
    /// whole-workload tuning: one shard hosting the one whole-schema
    /// group, published under part key 0 (DESIGN.md §12).
    ///
    /// # Errors
    ///
    /// Returns the first configuration problem, if any.
    pub fn new(schema: Schema, config: ServiceConfig) -> Result<Self, String> {
        config.validate()?;
        let map =
            ShardMap::new(config.shards.max(1), config.shard_map.clone(), schema.tables().len())?;
        let arbiter = Arbiter::new(
            global_budget(&schema, config.budget_share),
            config.tenant_weights.clone(),
        );
        let board = Arc::new(StatusBoard::new(config.shards));
        Ok(Self {
            stream: Stream::new(&config),
            schema,
            config,
            map,
            state: GroupHost::default(),
            arbiter,
            board,
            interactive: None,
            resumed: None,
            recovered_bytes: None,
            state_dir: None,
        })
    }

    /// Resume from a checkpoint manifest, not in the other tuning mode:
    /// a whole-workload document does not split into table groups, nor
    /// the reverse. In process, the manifest may have been written at a
    /// different shard count — groups are re-packed under the current
    /// `ShardMap` (placement never affects results). Worker processes
    /// restore their shards from the committed shard files when the run
    /// starts, so there the shard count must match the manifest.
    ///
    /// # Errors
    ///
    /// Returns manifest/shard-file problems and config mismatches.
    pub fn resume(
        schema: Schema,
        config: ServiceConfig,
        manifest_path: &Path,
    ) -> Result<Self, String> {
        let mut router = Self::new(schema, config)?;
        let manifest = Manifest::load(manifest_path)?;
        let in_process = router.config.workers == 0;
        if !in_process && manifest.shards != router.config.shards {
            return Err(format!(
                "manifest was written at {} shards but --shards is {}; worker processes \
                 cannot re-pack shard files (resume in-process at the new count, \
                 checkpoint, then serve with --workers)",
                manifest.shards, router.config.shards
            ));
        }
        for cp in &manifest.load_shards(manifest_path)? {
            router.config.check_resume(&cp.config)?;
            if in_process {
                router.state.absorb(GroupHost::adopt(cp, &router.schema, &router.config)?)?;
            }
        }
        router.stream.routed = manifest.routed_lines;
        router.stream.next_gen = manifest.generation + 1;
        if !in_process {
            router.resumed = Some((manifest_path.to_path_buf(), manifest.generation));
        }
        // Re-publish the checkpointed frontiers so the resumed arbiter
        // answers queries — and computes the merged selection — without
        // any group having to re-run from scratch. (Adopting workers
        // re-publish their own.)
        for (key, pf) in router.state.published() {
            router.arbiter.publish(key, Arc::clone(pf), Trace::disabled());
        }
        Ok(router)
    }

    /// Switch a (fresh or resumed) router into **journal-replay
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
        self.stream.recover();
        self.recovered_bytes = Some(journal_bytes);
    }

    /// Persist restart sidecars into this state directory and restore
    /// them at run start (worker processes): `status.json` carries the
    /// `failovers`/`restarts`/`reply_errors` counters (so a recovered
    /// run's `{"control":"status"}` reports lifetime history, not just
    /// the current incarnation's), and `outcomes.json` carries the
    /// epoch-outcome history already folded into committed generations
    /// (so the recovered report's epoch lines match the uninterrupted
    /// run's). Both rewrite on every commit edge.
    pub fn set_state_dir(&mut self, dir: PathBuf) {
        self.state_dir = Some(dir);
    }

    /// The live frontier arbiter: maintained allocations, interactive
    /// `whatif`/`tenant` answers, and the merged selection.
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// The schema events and control lines are checked against.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The live counters the status line reads.
    pub fn board(&self) -> Arc<StatusBoard> {
        Arc::clone(&self.board)
    }

    /// Attach the reply registry interactive socket queries route
    /// through (see [`InteractiveRegistry`]); without one, in-stream
    /// query answers print to stderr.
    pub fn set_interactive(&mut self, registry: Arc<InteractiveRegistry>) {
        self.interactive = Some(registry);
    }

    /// Number of shards a run fans out to (1 under whole-workload
    /// tuning).
    pub fn shards(&self) -> u32 {
        self.map.shards()
    }

    /// Number of groups holding state in this process.
    pub fn group_count(&self) -> usize {
        self.state.groups.len()
    }

    /// Sealed epochs tuned across the groups in this process (lifetime).
    pub fn epochs_tuned(&self) -> u64 {
        self.state.groups.values().map(|g| g.tuner.epoch()).sum()
    }

    /// Canonical calibration snapshot line summed over every group in
    /// this process — byte-identical to the in-band
    /// `{"control":"calibration"}` answer at this point in the stream.
    pub fn calibration(&self) -> String {
        self.state.calibration().render()
    }

    /// Run the router over a line-based input until EOF or a `shutdown`
    /// control, then drain every shard, commit a final checkpoint
    /// generation (if `checkpoint` is set), merge the per-group
    /// selections under the global budget, and report — the same report
    /// at every placement, but for the queue high-water mark (pipes have
    /// no queue).
    ///
    /// `policy` is what a full shard queue does; worker processes have
    /// pipes, which always block. `sinks` carries one trace sink per
    /// shard thread, exactly one under worker processes, or none. A
    /// shard thread's run events are stamped with its shard id via
    /// `ShardTagSink`, so every per-shard trace file is an internally
    /// consistent run stream; under worker processes the one sink gets
    /// the supervisor-side trace (merges, deploy actions, failovers,
    /// the recovery — workers trace no runs).
    ///
    /// # Errors
    ///
    /// Returns a sink count that fits no placement, checkpoint I/O
    /// failures, and — under worker processes — spawn/protocol
    /// failures, or repeated worker deaths exhausting the failover
    /// budget.
    pub fn run_reader<R: BufRead + Send>(
        &mut self,
        input: R,
        policy: OverloadPolicy,
        checkpoint: Option<&Path>,
        sinks: &[&dyn TraceSink],
    ) -> Result<ServiceReport, String> {
        let threads = self.config.workers == 0;
        let want = if threads { self.map.shards() as usize } else { 1 };
        if !sinks.is_empty() && sinks.len() != want {
            let placement = if threads { "shard threads" } else { "worker processes" };
            return Err(format!(
                "got {} trace sinks for {want} {placement} (pass {want} or none)",
                sinks.len()
            ));
        }
        let board = Arc::clone(&self.board);
        let committer = checkpoint.map(|p| Committer::new(p, self.map.shards(), &board));
        let (epochs, counters, queue_high_water) = if threads {
            self.run_threads(input, policy, checkpoint, committer.as_ref(), sinks)?
        } else {
            self.run_processes(input, checkpoint, committer.as_ref(), sinks.first().copied())?
        };
        Ok(ServiceReport {
            epochs,
            ingested: counters.ingested,
            invalid: counters.invalid,
            dropped: counters.dropped,
            queue_high_water,
            checkpoints_written: committer.as_ref().map_or(0, Committer::commits),
            // A read of the arbiter's maintained merge, settling what the
            // run published into the first sink. No group is re-run: each
            // materializes its selection from its published construction
            // steps at its maintained allocation.
            final_selection: self
                .arbiter
                .merged_selection(sinks.first().map_or(Trace::disabled(), |s| Trace::to(*s))),
        })
    }

    /// The thread placement's run: deal the groups out to one thread per
    /// shard, run the ingest loop on a router thread over [`Handoff`],
    /// and collect the groups again.
    fn run_threads<R: BufRead + Send>(
        &mut self,
        input: R,
        policy: OverloadPolicy,
        checkpoint: Option<&Path>,
        committer: Option<&Committer<'_>>,
        sinks: &[&dyn TraceSink],
    ) -> Result<Ran, String> {
        let shards = self.map.shards() as usize;
        let board = &*self.board;
        let queues: Vec<BoundedQueue<ShardItem>> = (0..shards)
            .map(|_| BoundedQueue::new(self.config.queue_capacity))
            .collect();

        // Deal the groups out to the shards under the current map; shard
        // 0 carries the restored counter history. Restored groups bring
        // their calibration history with them, so every count a shard
        // posts is a lifetime one.
        let base_dropped = self.state.dropped;
        let mut hosts: Vec<GroupHost> = (0..shards).map(|_| GroupHost::default()).collect();
        let state = std::mem::take(&mut self.state);
        (hosts[0].ingested, hosts[0].invalid, hosts[0].dropped) =
            (state.ingested, state.invalid, state.dropped);
        for (key, group) in state.groups.into_entries() {
            hosts[self.map.shard_of(key) as usize].groups.insert(key, group);
        }

        let env = Env::new(&self.schema, &self.config);
        let interactive = self.interactive.as_deref();
        let (schema, config, map) = (&self.schema, &self.config, &self.map);
        let (stream, arbiter_ref) = (&mut self.stream, &self.arbiter);
        let queues_ref = &queues;

        let result: Result<Vec<GroupOut>, String> = std::thread::scope(|s| {
            let router_thread = s.spawn(move || {
                let mut threads = Handoff::new(
                    queues_ref,
                    policy,
                    config.queue_capacity,
                    committer,
                    board,
                    arbiter_ref,
                    base_dropped,
                );
                let checkpointing = committer.is_some();
                let ran = stream
                    .run(input, schema, map, interactive, checkpointing, &mut threads)
                    .and_then(|()| {
                        // Final generation: every run with checkpointing
                        // ends on a complete committed generation.
                        let generation = stream.take_generation();
                        threads.barrier(generation, stream.routed)
                    });
                for q in queues_ref {
                    q.close();
                }
                ran
            });

            let workers: Vec<_> = hosts
                .into_iter()
                .enumerate()
                .map(|(k, host)| {
                    let queue = &queues_ref[k];
                    let ctx = WorkerCtx {
                        shard: k as u32,
                        env: &env,
                        board,
                        committer,
                        checkpoint,
                        sink: sinks.get(k).copied(),
                        arbiter: arbiter_ref,
                    };
                    s.spawn(move || shard_worker(ctx, host, queue))
                })
                .collect();

            let mut outs = Vec::new();
            let mut first_err: Option<String> = None;
            for handle in workers {
                match handle.join() {
                    Ok(Ok(out)) => outs.push(out),
                    Ok(Err(e)) => {
                        first_err.get_or_insert(e);
                    }
                    Err(_) => {
                        first_err.get_or_insert("a shard worker panicked".into());
                    }
                }
            }
            router_thread.join().map_err(|_| "the router thread panicked".to_owned())??;
            match first_err {
                Some(e) => Err(e),
                None => Ok(outs),
            }
        });
        let outs = result?;

        let mut epochs = Vec::new();
        for (outcomes, host) in outs {
            epochs.extend(outcomes);
            self.state.absorb(host)?;
        }
        // Canonical order: by (table, epoch). Shard packing decides only
        // *where* an epoch was tuned, never its outcome, so this order —
        // and every outcome in it — is shard-count-invariant.
        epochs.sort_by_key(|o| (o.table.map_or(u16::MAX, |t| t.0), o.epoch));
        let high_water = queues.iter().map(BoundedQueue::high_water).max().unwrap_or(0);
        Ok((epochs, self.state.counters(), high_water))
    }
}

/// What one shard worker hands back when its queue drains: the epochs it
/// tuned and its host.
type GroupOut = (Vec<EpochOutcome>, GroupHost);

/// One shard's consume loop: fold what the router thread hands over
/// into the shard's [`GroupHost`], deliver sealed epochs to the report
/// and the arbiter, serialize shard checkpoints at barriers.
fn shard_worker(
    ctx: WorkerCtx<'_>,
    mut host: GroupHost,
    queue: &BoundedQueue<ShardItem>,
) -> Result<GroupOut, String> {
    let tag_sink = ctx.sink.map(|s| ShardTagSink::new(ctx.shard, s));
    let trace = match &tag_sink {
        Some(t) => Trace::to(t),
        None => Trace::disabled(),
    };
    let base_dropped = host.dropped;
    let mut outcomes = Vec::new();
    let mut failure: Option<String> = None;
    // The status board hears this shard's counters once per hand-off
    // batch — the first time before the first batch, so restored
    // lifetime counters show at once — and ahead of every in-band
    // marker, whose answer may be followed by a status read; never once
    // per event.
    let post = |host: &GroupHost| ctx.board.post(ctx.shard, host.counters());
    let mut deliver = |sealed: Option<Sealed>| {
        let Some(Sealed { mut outcome, publish }) = sealed else { return };
        outcome.shard = Some(ctx.shard);
        outcomes.push(outcome);
        ctx.board.epochs.fetch_add(1, Ordering::Relaxed);
        if let Some((key, pf)) = publish {
            ctx.arbiter.publish(key, pf, trace);
        }
    };
    // This shard's templates under their stream-global ids: the router
    // sends a define only to its table's shard, so the ids of other
    // shards' templates stay undefined here. A define is never shed.
    let mut dict = DecodeDict::for_groups(ctx.env.config);
    let mut batch = VecDeque::new();
    // The shard document's JSON, reused by every generation.
    let mut doc = String::new();
    loop {
        let Some(item) = batch.pop_front() else {
            // Batch folded: tell the board, then take whatever has queued
            // up meanwhile.
            post(&host);
            if queue.pop_all(&mut batch) {
                continue;
            }
            break;
        };
        match item {
            ShardItem::Routed(item) => deliver(host.fold(ctx.env, &mut dict, item, trace)),
            ShardItem::Define { id, table, kind, attrs } => {
                dict.define_at(ctx.env.schema, id, table, kind, attrs);
            }
            ShardItem::Query(pq) => {
                post(&host);
                // In-band barrier: everything queued before the query on
                // this shard has been consumed and posted, as every shard
                // posted before arriving here. The last worker in
                // answers.
                if pq.arrive() {
                    let status = || unreachable!("the router answers status out of band");
                    let answer =
                        ctx.arbiter.answer_in_band(pq.control(), ctx.board, status, trace);
                    if let Some(answer) = answer {
                        pq.respond(answer);
                    }
                }
            }
            ShardItem::Barrier(generation) => {
                post(&host);
                if failure.is_some() {
                    continue; // keep draining; the run already failed
                }
                let (Some(path), Some(committer)) = (ctx.checkpoint, ctx.committer) else {
                    continue;
                };
                host.dropped = base_dropped + queue.dropped();
                match host
                    .checkpoint(ctx.env.config, path, ctx.shard, generation, &mut doc)
                    .and_then(|file| committer.done(ctx.shard, generation, file))
                {
                    Ok(_) => {}
                    Err(e) => failure = Some(e),
                }
            }
        }
    }
    host.dropped = base_dropped + queue.dropped();
    host.forget_slots();
    match failure {
        Some(e) => Err(e),
        None => Ok((outcomes, host)),
    }
}

/// Per-group epoch snapshots of a recorded log — the pure
/// single-threaded reference a replay is checked against, keyed like
/// the service keys its groups: by table under `config.shards >= 1`,
/// everything under key 0 when the whole workload is one group
/// (`config.shards == 0`). Works on both encodings (and mixtures),
/// read by the engines' own grammar and dictionary, but without the
/// router's line table: every text line is parsed here, so a replay's
/// `--offline-check` does not share the edge's line resolution. Each
/// valid event feeds its group's own window; invalid records are
/// skipped, `shutdown` stops, other controls are no-ops.
pub fn offline_group_snapshots<R: BufRead>(
    input: R,
    schema: &Schema,
    config: &ServiceConfig,
) -> Result<BTreeMap<u16, Vec<Workload>>, String> {
    config.validate()?;
    let mut windows: BTreeMap<u16, EpochWindow> = BTreeMap::new();
    let mut out: BTreeMap<u16, Vec<Workload>> = BTreeMap::new();
    let mut stream = Stream::parsing_every_line(config);
    let mut dict = DecodeDict::new();
    let mut feed = |q: &Query| {
        let key = config.group_key(q.table());
        let window = windows.entry(key).or_insert_with(|| {
            EpochWindow::new(
                schema.clone(),
                config.epoch_events,
                config.window_epochs,
                config.max_templates,
            )
        });
        if window.push(q) {
            out.entry(key)
                .or_default()
                .push(window.snapshot().expect("sealed window has a snapshot"));
        }
    };
    for record in RecordIter::new(input) {
        match stream.decide(record, schema) {
            // Observed-cost probes never shape the snapshot reference:
            // snapshots are a pure function of the query events.
            Decision::Route { item: Routed::Line(line), .. } => {
                if let Ok(InputLine::Query(q)) = parse_line(&line, schema) {
                    feed(&q);
                }
            }
            Decision::Define { id, table, kind, attrs, event } => {
                debug_assert!(event.is_none(), "no line becomes a template here");
                dict.define_at(schema, id, table, kind, attrs);
            }
            Decision::Route { item: Routed::Event { template, frequency }, .. } => {
                if let Some(q) = dict.resolve(template, frequency) {
                    feed(&q);
                }
            }
            Decision::Shutdown => break,
            Decision::Route { item: Routed::Invalid, .. }
            | Decision::Skip
            | Decision::Barrier
            | Decision::Query { .. } => {}
        }
    }
    Ok(out)
}

/// Offline reference loop: per group, `dynamic::adapt` over the group's
/// snapshots at the group's budget — a table's share of Eq. (10), or
/// the whole-schema budget for the one whole-workload group — exactly
/// what a group tuner computes under
/// [`crate::DriftThresholds::always_adapt`]. Each epoch keeps its
/// selection and both cost columns.
pub fn offline_group_adapt(
    snapshots: &BTreeMap<u16, Vec<Workload>>,
    config: &ServiceConfig,
) -> BTreeMap<u16, Vec<EpochResult>> {
    use isel_costmodel::WhatIfOptimizer;
    snapshots
        .iter()
        .filter(|(_, snaps)| !snaps.is_empty())
        .map(|(&key, snaps)| {
            let ests: Vec<CachingWhatIf<AnalyticalWhatIf<'_>>> = snaps
                .iter()
                .map(|w| CachingWhatIf::new(AnalyticalWhatIf::new(w)))
                .collect();
            let refs: Vec<&dyn WhatIfOptimizer> =
                ests.iter().map(|e| e as &dyn WhatIfOptimizer).collect();
            let a = match config.group_scope(key) {
                None => budget::relative_budget(&ests[0], config.budget_share),
                Some(t) => budget::table_relative_budget(&ests[0], config.budget_share, t),
            };
            (key, isel_core::dynamic::adapt(&refs, a, config.transition).epochs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DriftThresholds;
    use isel_workload::synthetic::{self, SyntheticConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::io::Cursor;

    fn workload() -> Workload {
        synthetic::generate(&SyntheticConfig {
            tables: 3,
            attrs_per_table: 8,
            queries_per_table: 10,
            rows_base: 40_000,
            max_query_width: 3,
            update_fraction: 0.1,
            seed: 77,
        })
    }

    fn config(shards: u32) -> ServiceConfig {
        ServiceConfig {
            epoch_events: 8,
            window_epochs: 2,
            max_templates: 64,
            drift: DriftThresholds::always_adapt(),
            shards,
            ..ServiceConfig::default()
        }
    }

    fn sample_log(w: &Workload, n: usize, seed: u64) -> String {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = w.total_frequency();
        let mut out = String::new();
        for _ in 0..n {
            let mut pick = rng.gen_range(0..total);
            let q = w
                .queries()
                .iter()
                .find(|q| {
                    if pick < q.frequency() {
                        true
                    } else {
                        pick -= q.frequency();
                        false
                    }
                })
                .expect("pick < total");
            let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
            let kind = if q.is_update() { r#","kind":"Update""# } else { "" };
            out.push_str(&format!(
                "{{\"table\":{},\"attrs\":[{}]{kind}}}\n",
                q.table().0,
                attrs.join(",")
            ));
        }
        out
    }

    fn replay(w: &Workload, log: &str, shards: u32) -> ServiceReport {
        let mut router = Router::new(w.schema().clone(), config(shards)).unwrap();
        router
            .run_reader(Cursor::new(log.to_owned()), OverloadPolicy::Block, None, &[])
            .unwrap()
    }

    #[test]
    fn sharded_replay_matches_the_offline_group_reference() {
        let w = workload();
        let log = sample_log(&w, 96, 3);
        let report = replay(&w, &log, 2);
        assert_eq!(report.ingested, 96);
        assert_eq!(report.invalid, 0);
        assert!(!report.epochs.is_empty());

        let cfg = config(2);
        let snaps = offline_group_snapshots(Cursor::new(log), w.schema(), &cfg).unwrap();
        let offline = offline_group_adapt(&snaps, &cfg);
        let total: usize = offline.values().map(Vec::len).sum();
        assert_eq!(report.epochs.len(), total);
        for out in &report.epochs {
            let t = out.table.expect("router epochs are table-scoped").0;
            let want = &offline[&t][out.epoch as usize];
            assert_eq!(out.workload_cost.to_bits(), want.workload_cost.to_bits());
            assert_eq!(out.reconfig_paid.to_bits(), want.reconfig_paid.to_bits());
            assert_eq!(out.selection, want.selection, "table t{t} epoch {}", out.epoch);
        }
    }

    #[test]
    fn shard_count_does_not_change_outcomes() {
        let w = workload();
        let log = sample_log(&w, 96, 9);
        let one = replay(&w, &log, 1);
        let four = replay(&w, &log, 4);
        assert_eq!(one.epochs.len(), four.epochs.len());
        for (a, b) in one.epochs.iter().zip(&four.epochs) {
            assert_eq!(a.table, b.table);
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.selection, b.selection);
            assert_eq!(a.workload_cost.to_bits(), b.workload_cost.to_bits());
            assert_eq!(a.reconfig_paid.to_bits(), b.reconfig_paid.to_bits());
        }
        assert_eq!(one.final_selection, four.final_selection);
    }

    #[test]
    fn invalid_and_unknown_table_lines_are_counted_once() {
        let w = workload();
        let mut log = sample_log(&w, 8, 1);
        log.push_str("garbage\n");
        log.push_str("{\"table\":999,\"attrs\":[0]}\n"); // unknown: rendezvous-routed
        log.push_str("{\"control\":\"reboot\"}\n"); // bad control: opaque-routed
        let report = replay(&w, &log, 3);
        assert_eq!(report.ingested, 8);
        assert_eq!(report.invalid, 3);
    }

    #[test]
    fn shutdown_stops_routing() {
        let w = workload();
        let mut log = sample_log(&w, 4, 2);
        log.push_str("{\"control\":\"shutdown\"}\n");
        log.push_str(&sample_log(&w, 4, 5));
        let report = replay(&w, &log, 2);
        assert_eq!(report.ingested, 4, "events after shutdown are not read");
    }

    #[test]
    fn checkpoint_manifest_commits_and_resumes_at_any_shard_count() {
        let w = workload();
        let log = sample_log(&w, 96, 11);
        let dir = std::env::temp_dir().join(format!("isel-router-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("checkpoint.json");

        let full = replay(&w, &log, 2);

        // First half under 2 shards, checkpointed.
        let lines: Vec<&str> = log.lines().collect();
        let first: String = lines[..48].join("\n") + "\n";
        let second: String = lines[48..].join("\n") + "\n";
        let mut router = Router::new(w.schema().clone(), config(2)).unwrap();
        router
            .run_reader(Cursor::new(first), OverloadPolicy::Block, Some(&manifest), &[])
            .unwrap();
        assert!(manifest.exists());

        // Second half resumed under 3 shards from the manifest.
        let mut resumed = Router::resume(w.schema().clone(), config(3), &manifest).unwrap();
        let report = resumed
            .run_reader(Cursor::new(second), OverloadPolicy::Block, Some(&manifest), &[])
            .unwrap();
        assert_eq!(report.ingested, 96, "lifetime counters survive the resume");

        // The resumed run's epochs continue the uninterrupted sequence.
        let tail: Vec<_> = full
            .epochs
            .iter()
            .filter(|o| {
                report
                    .epochs
                    .iter()
                    .any(|r| r.table == o.table && r.epoch == o.epoch)
            })
            .collect();
        assert_eq!(tail.len(), report.epochs.len());
        for (got, want) in report.epochs.iter().zip(tail) {
            assert_eq!(got.selection, want.selection, "t{:?} epoch {}", got.table, got.epoch);
            assert_eq!(got.workload_cost.to_bits(), want.workload_cost.to_bits());
        }
        assert_eq!(report.final_selection, full.final_selection);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merged_selection_respects_the_global_budget() {
        let w = workload();
        let log = sample_log(&w, 96, 13);
        let report = replay(&w, &log, 3);
        assert!(!report.final_selection.is_empty());
        // Recompute the global budget and check the union's memory.
        let cfg = config(3);
        let snaps = offline_group_snapshots(
            Cursor::new(log),
            w.schema(),
            &cfg,
        )
        .unwrap();
        let any = snaps.values().next().unwrap().last().unwrap();
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(any));
        let global = budget::relative_budget(&est, cfg.budget_share);
        use isel_costmodel::WhatIfOptimizer;
        let memory: u64 = report
            .final_selection
            .indexes()
            .iter()
            .map(|k| est.index_memory_of(k))
            .sum();
        assert!(
            memory <= global,
            "merged selection uses {memory} B of a {global} B budget"
        );
    }

    #[test]
    fn whatif_queries_do_not_rerun_selection() {
        use isel_core::{TraceEvent, VecSink};
        let w = workload();
        let base = sample_log(&w, 96, 17);
        // Interleave budget questions between event batches.
        let mut probed = String::new();
        for (i, l) in base.lines().enumerate() {
            probed.push_str(l);
            probed.push('\n');
            if i % 24 == 23 {
                probed.push_str("{\"control\":\"whatif\",\"budget\":1048576}\n");
                probed.push_str("{\"control\":\"tenant\",\"table_group\":0,\"budget\":1048576}\n");
            }
        }

        let run = |log: &str| {
            let sinks = [VecSink::new(), VecSink::new()];
            let mut router = Router::new(w.schema().clone(), config(2)).unwrap();
            let refs: Vec<&dyn isel_core::TraceSink> = sinks.iter().map(|s| s as _).collect();
            let report = router
                .run_reader(Cursor::new(log.to_owned()), OverloadPolicy::Block, None, &refs)
                .unwrap();
            let events: Vec<TraceEvent> =
                sinks.iter().flat_map(|s| s.events()).collect();
            let runs = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::RunStart { .. }))
                .count();
            let merges = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Merge { .. }))
                .count();
            (report, runs, merges)
        };
        let (plain, plain_runs, plain_merges) = run(&base);
        let (asked, asked_runs, asked_merges) = run(&probed);
        assert_eq!(asked.ingested, plain.ingested, "queries are not events");
        assert_eq!(
            asked_runs, plain_runs,
            "interactive queries must not trigger selection runs"
        );
        assert_eq!(asked_merges, plain_merges, "queries read, never re-merge");
        assert_eq!(asked_merges, 1, "publishes merge once, when the final selection reads them");
        assert_eq!(asked.final_selection, plain.final_selection);
    }

    #[test]
    fn shutdown_reads_the_maintained_merge_without_rework() {
        use isel_core::{Trace, TraceEvent, VecSink};
        let w = workload();
        let log = sample_log(&w, 96, 19);
        let sinks = [VecSink::new(), VecSink::new()];
        let refs: Vec<&dyn isel_core::TraceSink> = sinks.iter().map(|s| s as _).collect();
        let mut router = Router::new(w.schema().clone(), config(2)).unwrap();
        let report = router
            .run_reader(Cursor::new(log), OverloadPolicy::Block, None, &refs)
            .unwrap();
        let merges = |sink: &VecSink| {
            sink.events().iter().filter(|e| matches!(e, TraceEvent::Merge { .. })).count()
        };
        assert!(sinks.iter().map(merges).sum::<usize>() > 0, "the run merged its publishes");
        // The final selection is a cheap read of the maintained state.
        let arbiter = router.arbiter();
        let after = VecSink::new();
        assert_eq!(arbiter.merged_selection(Trace::to(&after)), report.final_selection);
        assert_eq!(merges(&after), 0, "reads never re-merge");
        // Republishing an unchanged frontier (a group that saw no events
        // since its last epoch) is a clean skip, not a re-merge.
        for t in 0..w.schema().tables().len() as u16 {
            if let Some(pf) = arbiter.published(t) {
                assert!(
                    !arbiter.publish(t, pf, Trace::to(&after)),
                    "clean republish of t{t} must be skipped"
                );
            }
        }
        assert_eq!(arbiter.merged_selection(Trace::to(&after)), report.final_selection);
        assert_eq!(merges(&after), 0, "a clean republish leaves nothing to settle");
    }

    /// What each placement refuses, checked before any worker spawns:
    /// worker processes host shards of table groups, so they need
    /// `shards >= 1`; they restore the committed shard files as written,
    /// so a manifest from another shard count is refused; and a run
    /// takes one trace sink per shard thread, exactly one under worker
    /// processes, or none.
    #[test]
    fn each_placement_refuses_what_it_cannot_honour() {
        use isel_core::VecSink;
        let w = workload();
        let procs = |shards| ServiceConfig { workers: 1, ..config(shards) };
        let refused = |r: Result<Router, String>| r.err().expect("refused");
        let err = refused(Router::new(w.schema().clone(), procs(0)));
        assert!(err.contains("workers >= 1 requires shards >= 1"), "{err}");

        let dir = std::env::temp_dir().join(format!("isel-placement-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("m.json");
        let log = sample_log(&w, 24, 5);
        let mut writer = Router::new(w.schema().clone(), config(2)).unwrap();
        writer
            .run_reader(Cursor::new(log.clone()), OverloadPolicy::Block, Some(&manifest), &[])
            .unwrap();
        let err = refused(Router::resume(w.schema().clone(), procs(3), &manifest));
        assert!(err.contains("cannot re-pack shard files"), "{err}");
        let resumed = Router::resume(w.schema().clone(), procs(2), &manifest).unwrap();
        assert_eq!(resumed.group_count(), 0, "worker processes restore the shard files");
        // Shard threads re-pack the groups at any count.
        let repacked = Router::resume(w.schema().clone(), config(3), &manifest).unwrap();
        assert!(repacked.group_count() > 0);
        std::fs::remove_dir_all(&dir).ok();

        let sinks = [VecSink::new(), VecSink::new(), VecSink::new()];
        let refs: Vec<&dyn TraceSink> = sinks.iter().map(|s| s as _).collect();
        for (cfg, ok, bad) in [(config(2), 2, 1), (config(0), 1, 2), (procs(2), 1, 2)] {
            let mut router = Router::new(w.schema().clone(), cfg.clone()).unwrap();
            let mut run =
                |n| router.run_reader(Cursor::new(""), OverloadPolicy::Block, None, &refs[..n]);
            let err = run(bad).expect_err("a sink count the placement cannot take");
            assert!(err.contains(&format!("pass {ok} or none")), "{err}");
            if cfg.workers == 0 {
                run(ok).unwrap();
            }
        }
    }

    // ----- whole-workload tuning (`shards == 0`): the one-group case

    /// 16-event epochs, whole-schema group.
    fn whole() -> ServiceConfig {
        ServiceConfig { epoch_events: 16, ..config(0) }
    }

    #[test]
    fn whole_workload_replay_matches_the_offline_reference() {
        let w = workload();
        let cfg = whole();
        let log = sample_log(&w, 80, 5);

        let mut router = Router::new(w.schema().clone(), cfg.clone()).unwrap();
        let report = router
            .run_reader(Cursor::new(log.clone()), OverloadPolicy::Block, None, &[])
            .unwrap();
        assert_eq!(report.ingested, 80);
        assert_eq!(report.invalid, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.epochs.len(), 5, "80 events / 16 per epoch");
        assert!(report.epochs.iter().all(|o| o.table.is_none()), "epochs span the schema");

        let snaps = offline_group_snapshots(Cursor::new(log), w.schema(), &cfg).unwrap();
        assert_eq!(snaps.keys().collect::<Vec<_>>(), [&0], "one group, part key 0");
        assert_eq!(snaps[&0].len(), 5);
        let offline = &offline_group_adapt(&snaps, &cfg)[&0];
        for (got, want) in report.epochs.iter().zip(offline) {
            assert_eq!(got.workload_cost.to_bits(), want.workload_cost.to_bits());
            assert_eq!(got.reconfig_paid.to_bits(), want.reconfig_paid.to_bits());
            assert_eq!(got.selection, want.selection);
        }
        assert_eq!(report.final_selection, offline.last().unwrap().selection);
    }

    #[test]
    fn interactive_queries_are_answered_behind_preceding_events() {
        let w = workload();
        let mut router = Router::new(w.schema().clone(), whole()).unwrap();
        let registry = Arc::new(InteractiveRegistry::new());
        router.set_interactive(Arc::clone(&registry));
        let budget = router.arbiter().budget();
        // 16 events seal one epoch, so the tuned frontier is published
        // before the in-band queries behind them are answered.
        let mut log = sample_log(&w, 16, 7);
        let mut ask = |control: String| {
            let (tx, rx) = std::sync::mpsc::channel();
            let token = registry.register(tx);
            log.push_str(&format!(
                "{{\"control\":{control},\"budget\":{budget},\"token\":{token}}}\n"
            ));
            rx
        };
        let rx = ask("\"whatif\"".into());
        let tenant_rx = ask("\"tenant\",\"table_group\":0".into());
        router.run_reader(Cursor::new(log), OverloadPolicy::Block, None, &[]).unwrap();

        let reply = rx.recv().unwrap();
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v.get("budget").and_then(|b| b.as_u64()), Some(budget));
        let total = v.get("total_memory").and_then(|m| m.as_u64()).unwrap();
        assert!(total <= budget, "merged memory {total} within budget {budget}");
        assert_eq!(
            v.get("allocations").and_then(|a| a.as_array()).map(Vec::len),
            Some(1),
            "whole-workload tuning is one tenant"
        );
        // The same question asked again is answered from maintained
        // state, byte-identically.
        assert_eq!(reply, router.arbiter().whatif(budget));
        assert!(
            tenant_rx.recv().unwrap().contains("tenant queries require --shards"),
            "per-tenant splits need table groups"
        );
    }

    #[test]
    fn invalid_lines_are_counted_not_fatal() {
        let w = workload();
        let mut router = Router::new(w.schema().clone(), whole()).unwrap();
        let log = "garbage\n{\"table\":999,\"attrs\":[0]}\n\n";
        let report = router
            .run_reader(Cursor::new(log.to_owned()), OverloadPolicy::Block, None, &[])
            .unwrap();
        assert_eq!(report.invalid, 2);
        assert_eq!(report.ingested, 0);
        assert!(report.epochs.is_empty());
    }

    #[test]
    fn shutdown_control_stops_ingestion() {
        let w = workload();
        let q = &w.queries()[0];
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        let event = format!("{{\"table\":{},\"attrs\":[{}]}}\n", q.table().0, attrs.join(","));
        let log = format!("{event}{}\n{event}", r#"{"control":"shutdown"}"#);
        let mut router = Router::new(w.schema().clone(), whole()).unwrap();
        let report =
            router.run_reader(Cursor::new(log), OverloadPolicy::Block, None, &[]).unwrap();
        assert_eq!(report.ingested, 1, "events after shutdown are not read");
    }

    #[test]
    fn checkpoint_control_writes_in_stream_order() {
        let w = workload();
        let dir = std::env::temp_dir().join(format!("isel-whole-ctl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ctl.json");
        let mut log = sample_log(&w, 20, 9);
        log.push_str("{\"control\":\"checkpoint\"}\n");
        let mut router = Router::new(w.schema().clone(), whole()).unwrap();
        let report = router
            .run_reader(Cursor::new(log), OverloadPolicy::Block, Some(&path), &[])
            .unwrap();
        // One from the control line, one final at shutdown.
        assert_eq!(report.checkpoints_written, 2);
        let cp = Manifest::load(&path).unwrap().load_shards(&path).unwrap().remove(0);
        assert_eq!(cp.ingested, 20);
        assert_eq!(cp.groups.len(), 1, "one whole-schema group");
        assert_eq!(cp.groups[0].epoch, 1, "16 of 20 events sealed one epoch");
        std::fs::remove_dir_all(&dir).ok();
    }
}
