//! The sharded tuning router: one ingest loop fanning raw lines out to
//! per-shard workers, each tuning its own table groups.
//!
//! ## Architecture
//!
//! The **unit of tuning state is the table group** — one [`EpochWindow`]
//! plus one table-scoped [`Tuner`] per table, sealing epochs on the
//! group's *own* valid-event count and budgeting with the
//! table-separable split of Eq. (10)
//! ([`isel_core::budget::table_relative_budget`]). Shards merely pack
//! groups onto worker threads via the [`ShardMap`]; because no tuning
//! state spans shards, the selection sequence is **bit-identical at
//! every shard count** by construction — the router's headline
//! determinism guarantee, pinned by `tests/service.rs`.
//!
//! The router thread owns the input: it classifies each raw line with
//! the cheap byte-scan [`classify_line`] (no JSON parse) and appends it
//! to the owning shard's hand-off batch; a batch crosses the shard's
//! bounded queue under one lock and one wake-up when it is full and —
//! so that nothing waits on an idle input — before every read that may
//! block ([`RecordIter::next_with`]; DESIGN.md §13). Workers take
//! whatever is queued in one swap and do the full
//! parse/validate/aggregate/tune work. Control lines are parsed by the
//! router itself: `shutdown` stops ingestion, `checkpoint` injects a
//! barrier into *every* queue at the same stream position, `status`
//! prints the [`StatusBoard`] line (out of band — never queued).
//!
//! ## Checkpointing
//!
//! A checkpoint barrier carries a monotonically increasing *generation*.
//! Each worker, on seeing `Barrier(g)`, serializes its groups as a
//! [`ShardCheckpoint`] into `<stem>.shard-{k}.g{g}.json`; when every
//! shard has committed generation `g`, the committer atomically writes
//! the [`Manifest`] at the user's checkpoint path and deletes
//! older-generation files. A kill at any moment leaves either the
//! previous complete generation or the new one — never a mix. Group
//! state is placement-independent, so a manifest may be resumed at a
//! **different** shard count ([`Router::resume`] re-packs groups under
//! the current map).
//!
//! ## Arbitration
//!
//! The global-budget merge is *live* ([`crate::arbiter::Arbiter`]):
//! whenever a group's epoch actually re-selects, the worker publishes
//! the group's new frontier (plus the construction steps needed to
//! materialize a selection at any allocation) and the arbiter folds it
//! incrementally into a maintained [`isel_core::FrontierSet`] — only
//! the changed group's DP path is recombined, and republished
//! identical frontiers are skipped outright. The
//! [`ServiceReport::final_selection`] is then a cheap read of that
//! state: no group is ever re-run at shutdown. Interactive
//! `{"control":"whatif","budget":B}` and
//! `{"control":"tenant","table_group":T,"budget":B}` lines ride every
//! shard queue as an in-band barrier; the last worker to reach the
//! query answers from the arbiter, so the reply deterministically
//! reflects exactly the events preceding the query — again without
//! re-running selection (asserted via trace events in the tests).
//! `{"control":"budget","budget":B}` rides the same barrier but
//! *mutates*: it re-anchors the maintained merge at the new global
//! budget, so every later publish folds into allocations under `B`.

use crate::arbiter::{global_budget, Arbiter, InteractiveRegistry, PendingQuery};
use crate::checkpoint::{
    shard_file, GroupCheckpoint, Manifest, ShardCheckpoint, CHECKPOINT_VERSION,
};
use crate::config::ServiceConfig;
use crate::daemon::{flatten_item, FlatItem, OverloadPolicy, ServiceReport};
use crate::event::{parse_line, parse_token, Control, InputLine};
use crate::feedback::{self, GroupFeedback};
use crate::frame::WireItem;
use crate::queue::BoundedQueue;
use crate::records::{validate_define, DecodeDict, Record, RecordIter};
use crate::shard::{classify_line, LineClass, ShardMap, ShardTagSink};
use crate::status::{take_status_signal, StatusBoard};
use crate::tuner::{EpochOutcome, Tuner};
use crate::window::EpochWindow;
use isel_core::{budget, Parallelism, Selection, Trace, TraceSink};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf};
use isel_workload::{Query, QueryKind, Schema, TableId, Workload};
use std::collections::{BTreeMap, VecDeque};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Items flowing through one shard's queue.
enum ShardItem {
    /// A raw input line; the worker parses and validates it.
    Line(String),
    /// A binary template definition, carrying its stream-global id. The
    /// router sends it to the owning table's shard; the worker validates
    /// it against the schema once.
    Define {
        id: usize,
        table: u16,
        kind: QueryKind,
        attrs: Vec<u32>,
    },
    /// A decoded binary event referencing a previously routed `Define`.
    Event { template: u64, frequency: u64 },
    /// A record with no valid interpretation (corrupt frame region or an
    /// event whose template the router never saw); counted invalid by
    /// the receiving worker so the count lands at a deterministic
    /// position in that shard's stream.
    Invalid,
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

/// The router thread's end of the shard queues: one batch per shard,
/// pushed with one lock and one wake-up.
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
}

impl<'a> Handoff<'a> {
    fn new(
        queues: &'a [BoundedQueue<ShardItem>],
        policy: OverloadPolicy,
        capacity: usize,
    ) -> Self {
        let batch_items = HANDOFF_BATCH.min(capacity);
        let batches = queues.iter().map(|_| Vec::with_capacity(batch_items)).collect();
        Self { queues, policy, batches, batch_items }
    }

    fn push(&mut self, shard: u32, item: ShardItem) {
        let batch = &mut self.batches[shard as usize];
        batch.push(item);
        if batch.len() >= self.batch_items {
            Self::hand_over(&self.queues[shard as usize], self.policy, batch);
        }
    }

    fn flush(&mut self) {
        for (queue, batch) in self.queues.iter().zip(&mut self.batches) {
            Self::hand_over(queue, self.policy, batch);
        }
    }

    fn hand_over(
        queue: &BoundedQueue<ShardItem>,
        policy: OverloadPolicy,
        batch: &mut Vec<ShardItem>,
    ) {
        match policy {
            OverloadPolicy::Block => queue.push_all_blocking(batch),
            OverloadPolicy::DropOldest => queue.push_all_drop_oldest(batch),
        };
    }

    /// Put one in-band marker on *every* queue, behind everything routed
    /// so far. Markers are pushed blocking at every policy: a barrier or
    /// query must reach each queue (events behind it may still evict it
    /// under drop-oldest, and the committer tolerates generations that
    /// never complete).
    fn broadcast(&mut self, marker: impl Fn() -> ShardItem) {
        self.flush();
        for queue in self.queues {
            queue.push_blocking(marker());
        }
    }
}

/// One table group's live tuning state. Shared with the multi-process
/// supervisor's worker loop ([`crate::process`]), which hosts groups in
/// child processes exactly as a shard thread does here.
pub(crate) struct GroupState {
    pub(crate) tuner: Tuner,
    pub(crate) window: EpochWindow,
    pub(crate) feedback: GroupFeedback,
}

impl GroupState {
    pub(crate) fn fresh(schema: &Schema, config: &ServiceConfig, table: TableId) -> Self {
        Self {
            tuner: Tuner::for_table(schema, config.clone(), table),
            window: EpochWindow::new(
                schema.clone(),
                config.epoch_events,
                config.window_epochs,
                config.max_templates,
            ),
            feedback: GroupFeedback::new(config),
        }
    }

    /// Restore a group — tuning state and feedback state — from a
    /// checkpoint document.
    pub(crate) fn from_checkpoint(
        gc: &GroupCheckpoint,
        schema: &Schema,
        config: &ServiceConfig,
    ) -> Result<Self, String> {
        let (tuner, window) = gc.restore(schema, config)?;
        let feedback = match &gc.feedback {
            Some(saved) => GroupFeedback::load(saved, config)?,
            None => GroupFeedback::new(config),
        };
        Ok(Self { tuner, window, feedback })
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
/// manifest once a generation is complete on every shard. Also used by
/// the multi-process supervisor ([`crate::process`]), which reports
/// `done` on behalf of worker processes.
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
    /// recovered supervisor's report counts commits across the whole
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
    /// this call committed the generation's manifest (the supervisor
    /// truncates journal tails on that edge). Idempotent for unknown
    /// and superseded generations.
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
        // including generations whose barrier was evicted on some shard
        // (drop-oldest overload) and that can never complete.
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
    /// multi-process supervisor restores failed-over shards from this
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
    schema: &'a Schema,
    config: &'a ServiceConfig,
    par: Parallelism,
    board: &'a StatusBoard,
    committer: Option<&'a Committer<'a>>,
    checkpoint: Option<&'a Path>,
    /// Lifetime counter bases folded into this shard's checkpoints
    /// (non-zero only on shard 0, which carries the restored history).
    base_ingested: u64,
    base_invalid: u64,
    base_dropped: u64,
    sink: Option<&'a dyn TraceSink>,
    arbiter: &'a Arbiter,
}

/// What one worker hands back when its queue drains.
struct WorkerOut {
    outcomes: Vec<EpochOutcome>,
    groups: BTreeMap<u16, GroupState>,
    ingested: u64,
    invalid: u64,
}

/// The sharded tuning service: a [`ShardMap`] over per-table groups,
/// driven by [`Router::run_reader`].
pub struct Router {
    schema: Schema,
    config: ServiceConfig,
    map: ShardMap,
    groups: BTreeMap<u16, GroupState>,
    base_ingested: u64,
    base_invalid: u64,
    base_dropped: u64,
    routed_lines: u64,
    next_generation: u64,
    arbiter: Arbiter,
    interactive: Option<Arc<InteractiveRegistry>>,
}

impl Router {
    /// Fresh router with no tuned state. Requires `config.shards >= 1`.
    ///
    /// # Errors
    ///
    /// Returns the first configuration problem, if any.
    pub fn new(schema: Schema, config: ServiceConfig) -> Result<Self, String> {
        config.validate()?;
        if config.shards == 0 {
            return Err("the router requires shards >= 1 (0 selects the unsharded daemon)".into());
        }
        let map = ShardMap::new(config.shards, config.shard_map.clone(), schema.tables().len())?;
        let arbiter = Arbiter::new(
            global_budget(&schema, config.budget_share),
            config.tenant_weights.clone(),
        );
        Ok(Self {
            schema,
            config,
            map,
            groups: BTreeMap::new(),
            base_ingested: 0,
            base_invalid: 0,
            base_dropped: 0,
            routed_lines: 0,
            next_generation: 1,
            arbiter,
            interactive: None,
        })
    }

    /// Resume from a sharded checkpoint manifest. The manifest may have
    /// been written at a different shard count — groups are re-packed
    /// under the current [`ShardMap`] (placement never affects results).
    pub fn resume(
        schema: Schema,
        config: ServiceConfig,
        manifest_path: &Path,
    ) -> Result<Self, String> {
        let mut router = Self::new(schema, config)?;
        let manifest = Manifest::load(manifest_path)?;
        let shards = manifest.load_shards(manifest_path)?;
        for cp in &shards {
            if cp.config.epoch_events != router.config.epoch_events
                || cp.config.window_epochs != router.config.window_epochs
                || cp.config.max_templates != router.config.max_templates
            {
                return Err(format!(
                    "checkpoint aggregation config (epoch_events={}, window_epochs={}, \
                     max_templates={}) does not match the requested configuration",
                    cp.config.epoch_events, cp.config.window_epochs, cp.config.max_templates
                ));
            }
            router.base_ingested += cp.ingested;
            router.base_invalid += cp.invalid;
            router.base_dropped += cp.dropped;
            for gc in &cp.groups {
                if router.groups.contains_key(&gc.table) {
                    return Err(format!(
                        "table t{} appears in more than one shard checkpoint",
                        gc.table
                    ));
                }
                router.groups.insert(
                    gc.table,
                    GroupState::from_checkpoint(gc, &router.schema, &router.config)?,
                );
            }
        }
        router.routed_lines = manifest.routed_lines;
        router.next_generation = manifest.generation + 1;
        // Re-publish the checkpointed frontiers so the resumed arbiter
        // answers queries — and computes the merged selection — without
        // any group having to re-run from scratch.
        for (t, g) in &router.groups {
            if let Some(pf) = g.tuner.published() {
                router.arbiter.publish(*t, Arc::clone(pf), Trace::disabled());
            }
        }
        Ok(router)
    }

    /// The live frontier arbiter: maintained allocations, interactive
    /// `whatif`/`tenant` answers, and the merged selection.
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// Attach the reply registry interactive socket queries route
    /// through (see [`InteractiveRegistry`]); without one, in-stream
    /// query answers print to stderr.
    pub fn set_interactive(&mut self, registry: Arc<InteractiveRegistry>) {
        self.interactive = Some(registry);
    }

    /// Number of shards the router fans out to.
    pub fn shards(&self) -> u32 {
        self.map.shards()
    }

    pub(crate) fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of table groups holding state.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Sealed epochs tuned across all groups (lifetime).
    pub fn epochs_tuned(&self) -> u64 {
        self.groups.values().map(|g| g.tuner.epoch()).sum()
    }

    /// Canonical calibration snapshot line summed over every table
    /// group — byte-identical to the in-band `{"control":"calibration"}`
    /// answer at this point in the stream.
    pub fn calibration(&self) -> String {
        let mut sum = crate::feedback::CalSnapshot::default();
        for g in self.groups.values() {
            sum.add(&g.feedback.snapshot());
        }
        sum.render()
    }

    fn parallelism(&self) -> Parallelism {
        match self.config.threads {
            0 => Parallelism::available(),
            n => Parallelism::new(n),
        }
    }

    /// Run the router over a line-based input until EOF or a `shutdown`
    /// control, then drain every shard, commit a final checkpoint
    /// generation (if `checkpoint` is set), merge the per-group
    /// selections under the global budget, and report.
    ///
    /// `sinks` carries one trace sink per shard (or is empty for no
    /// tracing); each worker's run events are stamped with its shard id
    /// via [`ShardTagSink`], so every per-shard trace file is an
    /// internally consistent run stream.
    pub fn run_reader<R: BufRead + Send>(
        &mut self,
        input: R,
        policy: OverloadPolicy,
        checkpoint: Option<&Path>,
        sinks: &[&dyn TraceSink],
    ) -> Result<ServiceReport, String> {
        let shards = self.map.shards() as usize;
        if !sinks.is_empty() && sinks.len() != shards {
            return Err(format!(
                "got {} trace sinks for {shards} shards (pass one per shard or none)",
                sinks.len()
            ));
        }
        let board = StatusBoard::new(self.map.shards());
        board.ingested.store(self.base_ingested, Ordering::Relaxed);
        board.invalid.store(self.base_invalid, Ordering::Relaxed);
        let queues: Vec<BoundedQueue<ShardItem>> = (0..shards)
            .map(|_| BoundedQueue::new(self.config.queue_capacity))
            .collect();
        let committer = checkpoint.map(|p| Committer::new(p, self.map.shards(), &board));

        // Pack the groups onto shards under the current map.
        let mut per_shard: Vec<BTreeMap<u16, GroupState>> =
            (0..shards).map(|_| BTreeMap::new()).collect();
        for (t, g) in std::mem::take(&mut self.groups) {
            per_shard[self.map.shard_of(t) as usize].insert(t, g);
        }

        let par = self.parallelism();
        // Periodic barrier cadence in routed lines; 0 disables it.
        let barrier_every = self
            .config
            .checkpoint_every_epochs
            .saturating_mul(self.config.epoch_events);
        let mut routed = self.routed_lines;
        let mut next_gen = self.next_generation;
        let base_dropped = self.base_dropped;
        let interactive = self.interactive.clone();

        let result: Result<(Vec<WorkerOut>, u64, u64), String> = std::thread::scope(|s| {
            let queues_ref = &queues;
            let board_ref = &board;
            let map_ref = &self.map;
            let schema_ref = &self.schema;
            let config_ref = &self.config;
            let committer_ref = committer.as_ref();
            let arbiter_ref = &self.arbiter;

            let router_thread = s.spawn(move || {
                let status = |line: &str| eprintln!("{line}");
                let dropped = || {
                    base_dropped + queues_ref.iter().map(BoundedQueue::dropped).sum::<u64>()
                };
                let mut handoff = Handoff::new(queues_ref, policy, config_ref.queue_capacity);
                let barrier = |handoff: &mut Handoff<'_>, gen: u64, routed: u64| {
                    if let Some(c) = committer_ref {
                        c.open(gen, routed);
                        handoff.broadcast(|| ShardItem::Barrier(gen));
                    }
                };
                let depths = || -> Vec<u64> {
                    queues_ref.iter().map(|q| q.len() as u64).collect()
                };
                // Interactive queries barrier every queue so the answer
                // reflects exactly the events preceding the query. They
                // never count as routed lines: barrier cadence stays
                // identical with and without queries in the stream.
                let enqueue_query = |handoff: &mut Handoff<'_>, c: Control, reply| {
                    let pq = PendingQuery::new(c, queues_ref.len() as u32, reply);
                    handoff.broadcast(|| ShardItem::Query(Arc::clone(&pq)));
                };
                // Tables of every `Define` routed so far, indexed by the
                // stream-global template id, so events route by table
                // without re-reading their definition.
                let mut template_tables: Vec<u16> = Vec::new();
                let mut records = RecordIter::new(input);
                while let Some(record) = records.next_with(|| handoff.flush()) {
                    if take_status_signal() {
                        status(&board_ref.line(dropped(), &depths(), &arbiter_ref.allocations()));
                    }
                    // Journal conn/seq tags and raw-carried lines reduce
                    // to the plain record they wrap.
                    let record = match record {
                        Record::Item(WireItem::Tagged { item, .. }) => Record::Item(*item),
                        r => r,
                    };
                    let record = match record {
                        Record::Item(WireItem::Raw(bytes)) => {
                            Record::Line(String::from_utf8_lossy(&bytes).into_owned())
                        }
                        r => r,
                    };
                    let mut did_route = false;
                    match record {
                        Record::Line(line) => {
                            // Strip surrounding blanks; recorded and
                            // rendered lines have none and move as-is.
                            let line = match line.trim() {
                                "" => continue,
                                t if t.len() == line.len() => line,
                                t => t.to_owned(),
                            };
                            match classify_line(&line) {
                                LineClass::Table(t) => {
                                    handoff.push(map_ref.shard_of(t), ShardItem::Line(line));
                                    did_route = true;
                                }
                                LineClass::Control => match parse_line(&line, schema_ref) {
                                    Ok(InputLine::Control(Control::Shutdown)) => break,
                                    Ok(InputLine::Control(Control::Checkpoint)) => {
                                        if committer_ref.is_some() {
                                            barrier(&mut handoff, next_gen, routed);
                                            next_gen += 1;
                                        }
                                    }
                                    Ok(InputLine::Control(Control::Status)) => {
                                        let counters = board_ref.line(
                                            dropped(),
                                            &depths(),
                                            &arbiter_ref.allocations(),
                                        );
                                        let reply = interactive.as_ref().and_then(|reg| {
                                            parse_token(&line).and_then(|t| reg.take(t))
                                        });
                                        match reply {
                                            Some(tx) => {
                                                let _ = tx.send(counters);
                                            }
                                            None => status(&counters),
                                        }
                                    }
                                    Ok(InputLine::Control(
                                        c @ (Control::Whatif { .. }
                                        | Control::Tenant { .. }
                                        | Control::Budget { .. }
                                        | Control::Calibration),
                                    )) => {
                                        let reply = interactive.as_ref().and_then(|reg| {
                                            parse_token(&line).and_then(|t| reg.take(t))
                                        });
                                        enqueue_query(&mut handoff, c, reply);
                                    }
                                    // A malformed control line is counted
                                    // as invalid by a worker at its stream
                                    // position (deterministic), not by the
                                    // router.
                                    Ok(InputLine::Query(_) | InputLine::Observed(_))
                                    | Err(_) => {
                                        handoff.push(map_ref.opaque_shard(), ShardItem::Line(line));
                                        did_route = true;
                                    }
                                },
                                LineClass::Opaque => {
                                    handoff.push(map_ref.opaque_shard(), ShardItem::Line(line));
                                    did_route = true;
                                }
                            }
                        }
                        Record::Item(WireItem::Define { table, kind, attrs }) => {
                            // Defines ride to the owning shard but do NOT
                            // count as routed: a JSONL stream has no
                            // define lines, and barrier generations must
                            // land at identical event positions in both
                            // encodings.
                            let id = template_tables.len();
                            template_tables.push(table);
                            handoff.push(
                                map_ref.shard_of(table),
                                ShardItem::Define { id, table, kind, attrs },
                            );
                        }
                        Record::Item(WireItem::Event { template, frequency }) => {
                            match usize::try_from(template)
                                .ok()
                                .and_then(|t| template_tables.get(t).copied())
                            {
                                Some(t) => handoff.push(
                                    map_ref.shard_of(t),
                                    ShardItem::Event { template, frequency },
                                ),
                                None => handoff.push(map_ref.opaque_shard(), ShardItem::Invalid),
                            }
                            did_route = true;
                        }
                        Record::Item(WireItem::Control(Control::Shutdown)) => break,
                        Record::Item(WireItem::Control(Control::Checkpoint)) => {
                            if committer_ref.is_some() {
                                barrier(&mut handoff, next_gen, routed);
                                next_gen += 1;
                            }
                        }
                        Record::Item(WireItem::Control(Control::Status)) => {
                            status(&board_ref.line(dropped(), &depths(), &arbiter_ref.allocations()));
                        }
                        Record::Item(WireItem::Control(
                            c @ (Control::Whatif { .. }
                            | Control::Tenant { .. }
                            | Control::Budget { .. }
                            | Control::Calibration),
                        )) => enqueue_query(&mut handoff, c, None),
                        // Tagged/Raw were unwrapped above; anything else
                        // would be a decoder invariant violation — count
                        // it invalid rather than trust it.
                        Record::Item(_) => {
                            handoff.push(map_ref.opaque_shard(), ShardItem::Invalid);
                            did_route = true;
                        }
                        Record::Corrupt => {
                            handoff.push(map_ref.opaque_shard(), ShardItem::Invalid);
                            did_route = true;
                        }
                    }
                    if did_route {
                        routed += 1;
                        if barrier_every > 0 && routed.is_multiple_of(barrier_every) {
                            barrier(&mut handoff, next_gen, routed);
                            next_gen += 1;
                        }
                    }
                }
                // Hand over what is left (the barrier does, but only a
                // checkpointing run has one). Final generation: every
                // run with checkpointing ends on a complete committed
                // generation.
                handoff.flush();
                barrier(&mut handoff, next_gen, routed);
                next_gen += 1;
                for q in queues_ref {
                    q.close();
                }
                (routed, next_gen)
            });

            let workers: Vec<_> = per_shard
                .into_iter()
                .enumerate()
                .map(|(k, groups)| {
                    let queue = &queues_ref[k];
                    let sink = if sinks.is_empty() { None } else { Some(sinks[k]) };
                    let ctx = WorkerCtx {
                        shard: k as u32,
                        schema: schema_ref,
                        config: config_ref,
                        par,
                        board: board_ref,
                        committer: committer_ref,
                        checkpoint,
                        base_ingested: if k == 0 { self.base_ingested } else { 0 },
                        base_invalid: if k == 0 { self.base_invalid } else { 0 },
                        base_dropped: if k == 0 { base_dropped } else { 0 },
                        sink,
                        arbiter: arbiter_ref,
                    };
                    s.spawn(move || shard_worker(ctx, groups, queue))
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
            let (routed, next_gen) = router_thread
                .join()
                .map_err(|_| "the router thread panicked".to_owned())?;
            match first_err {
                Some(e) => Err(e),
                None => Ok((outs, routed, next_gen)),
            }
        });
        let (outs, routed, next_gen) = result?;
        self.routed_lines = routed;
        self.next_generation = next_gen;

        let mut epochs = Vec::new();
        let mut ingested = self.base_ingested;
        let mut invalid = self.base_invalid;
        for out in outs {
            epochs.extend(out.outcomes);
            ingested += out.ingested;
            invalid += out.invalid;
            for (t, g) in out.groups {
                self.groups.insert(t, g);
            }
        }
        // Canonical order: by (table, epoch). Shard packing decides only
        // *where* an epoch was tuned, never its outcome, so this order —
        // and every outcome in it — is shard-count-invariant.
        epochs.sort_by_key(|o| (o.table.map_or(u16::MAX, |t| t.0), o.epoch));

        Ok(ServiceReport {
            epochs,
            ingested,
            invalid,
            dropped: base_dropped + queues.iter().map(BoundedQueue::dropped).sum::<u64>(),
            queue_high_water: queues.iter().map(BoundedQueue::high_water).max().unwrap_or(0),
            checkpoints_written: committer.as_ref().map_or(0, Committer::commits),
            final_selection: self.merged_selection(),
        })
    }

    /// Union the per-group selections under the global memory budget — a
    /// cheap read of the arbiter's maintained merge. No group is re-run:
    /// each materializes its selection from its published construction
    /// steps at its maintained allocation, and groups whose frontier
    /// never changed since their last publication were never even
    /// re-merged (the clean-group skip).
    fn merged_selection(&self) -> Selection {
        self.arbiter.merged_selection()
    }
}

/// One shard's consume loop: parse, aggregate per table group, tune on
/// sealed epochs, serialize shard checkpoints at barriers.
fn shard_worker(
    ctx: WorkerCtx<'_>,
    mut groups: BTreeMap<u16, GroupState>,
    queue: &BoundedQueue<ShardItem>,
) -> Result<WorkerOut, String> {
    let tag_sink = ctx.sink.map(|s| ShardTagSink::new(ctx.shard, s));
    let trace = match &tag_sink {
        Some(t) => Trace::to(t),
        None => Trace::disabled(),
    };
    let mut outcomes = Vec::new();
    let mut ingested = 0u64;
    let mut invalid = 0u64;
    let mut failure: Option<String> = None;
    // What the status board has been told of the two counters so far:
    // it hears once per hand-off batch (and ahead of every in-band
    // marker, whose answer may be followed by a status read), not once
    // per event.
    let mut posted = (0u64, 0u64);
    let post = |ingested: u64, invalid: u64, posted: &mut (u64, u64)| {
        ctx.board.ingested.fetch_add(ingested - posted.0, Ordering::Relaxed);
        ctx.board.invalid.fetch_add(invalid - posted.1, Ordering::Relaxed);
        *posted = (ingested, invalid);
    };
    // Pre-validated frequency-1 queries indexed by the stream-global
    // template id (dense: the router numbers defines as they arrive).
    // `None` is a template this shard was never sent or whose define
    // failed schema validation, so events referencing it count invalid
    // (at their own position, exactly like an invalid JSONL line).
    let mut dict: Vec<Option<Query>> = Vec::new();
    let ingest = |q: &Query,
                  groups: &mut BTreeMap<u16, GroupState>,
                  outcomes: &mut Vec<EpochOutcome>,
                  ingested: &mut u64| {
        *ingested += 1;
        let table = q.table();
        let group = groups
            .entry(table.0)
            .or_insert_with(|| GroupState::fresh(ctx.schema, ctx.config, table));
        if group.window.push(q) {
            let snap = group
                .window
                .snapshot()
                .expect("snapshot exists after an epoch seals");
            let mut out = feedback::tune_group(
                &mut group.tuner,
                &mut group.window,
                &mut group.feedback,
                &snap,
                ctx.schema,
                ctx.config,
                ctx.par,
                trace,
                Some(&ctx.board.cal),
            );
            out.shard = Some(ctx.shard);
            outcomes.push(out);
            ctx.board.epochs.fetch_add(1, Ordering::Relaxed);
            // Publish the group's frontier only when re-selection
            // actually changed it; no-op epochs leave the arbiter's
            // merge untouched.
            if group.tuner.take_published_dirty() {
                if let Some(pf) = group.tuner.published() {
                    ctx.arbiter.publish(table.0, Arc::clone(pf), trace);
                }
            }
        }
    };
    let mut batch = VecDeque::new();
    loop {
        let Some(item) = batch.pop_front() else {
            // Batch folded: tell the board, then take whatever has queued
            // up meanwhile.
            post(ingested, invalid, &mut posted);
            if queue.pop_all(&mut batch) {
                continue;
            }
            break;
        };
        match item {
            ShardItem::Line(line) => match parse_line(&line, ctx.schema) {
                Ok(InputLine::Query(q)) => {
                    ingest(&q, &mut groups, &mut outcomes, &mut ingested);
                }
                // Observed-cost probes feed the owning group's ratio
                // tracker; they never count as ingested events.
                Ok(InputLine::Observed(o)) => {
                    let table = o.query.table();
                    let group = groups
                        .entry(table.0)
                        .or_insert_with(|| GroupState::fresh(ctx.schema, ctx.config, table));
                    group.feedback.observe(ctx.config, &o, Some(&ctx.board.cal), trace);
                }
                // A line carrying both a top-level "table" and "control"
                // key routes as a table line but parses as a control; the
                // router-level command was never seen by the router, so
                // it is dropped here rather than half-applied.
                Ok(InputLine::Control(_)) => {}
                Err(_) => invalid += 1,
            },
            ShardItem::Define { id, table, kind, attrs } => {
                let query = validate_define(ctx.schema, table, &attrs).then(|| {
                    Query::with_kind(
                        TableId(table),
                        attrs.iter().map(|&a| isel_workload::AttrId(a)).collect(),
                        1,
                        kind,
                    )
                });
                if dict.len() <= id {
                    dict.resize_with(id + 1, || None);
                }
                dict[id] = query;
            }
            ShardItem::Event { template, frequency } => {
                match usize::try_from(template).ok().and_then(|t| dict.get(t)) {
                    Some(Some(base)) if frequency == 1 => {
                        // The hot path: borrow the pre-built query, no
                        // allocation per event.
                        ingest(base, &mut groups, &mut outcomes, &mut ingested);
                    }
                    Some(Some(base)) if frequency > 1 => {
                        let q = Query::with_kind(
                            base.table(),
                            base.attrs().to_vec(),
                            frequency,
                            base.kind(),
                        );
                        ingest(&q, &mut groups, &mut outcomes, &mut ingested);
                    }
                    _ => invalid += 1,
                }
            }
            ShardItem::Invalid => invalid += 1,
            ShardItem::Query(pq) => {
                post(ingested, invalid, &mut posted);
                // In-band barrier: everything queued before the query on
                // this shard has been consumed. The last worker in
                // answers from the arbiter's maintained state.
                if pq.arrive() {
                    let answer = match pq.control() {
                        // The board's calibration counters are summed
                        // across shards as they bump; at the barrier
                        // every shard has consumed the preceding events.
                        Control::Calibration => Some(ctx.board.cal.snapshot().render()),
                        c => ctx.arbiter.answer(c),
                    };
                    if let Some(answer) = answer {
                        pq.respond(answer);
                    }
                }
            }
            ShardItem::Barrier(generation) => {
                post(ingested, invalid, &mut posted);
                if failure.is_some() {
                    continue; // keep draining; the run already failed
                }
                let (Some(path), Some(committer)) = (ctx.checkpoint, ctx.committer) else {
                    continue;
                };
                let cp = ShardCheckpoint {
                    version: CHECKPOINT_VERSION,
                    config: ctx.config.clone(),
                    shard: ctx.shard,
                    generation,
                    ingested: ctx.base_ingested + ingested,
                    invalid: ctx.base_invalid + invalid,
                    dropped: ctx.base_dropped + queue.dropped(),
                    groups: groups
                        .values_mut()
                        .map(|g| {
                            GroupCheckpoint::capture(&mut g.tuner, &g.window).with_feedback(
                                ctx.config.calibration.enabled.then(|| g.feedback.save()),
                            )
                        })
                        .collect(),
                };
                let file = shard_file(path, ctx.shard, generation);
                match cp.save(&file).and_then(|()| committer.done(ctx.shard, generation, file)) {
                    Ok(_) => {}
                    Err(e) => failure = Some(e),
                }
            }
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok(WorkerOut { outcomes, groups, ingested, invalid }),
    }
}

/// Per-table-group epoch snapshots of a recorded log — the pure
/// single-threaded reference the sharded replay is checked against.
/// Works on both encodings (and mixtures). Each valid event feeds its
/// table's own window; invalid records are skipped, `shutdown` stops,
/// other controls are no-ops.
pub fn offline_group_snapshots<R: BufRead>(
    input: R,
    schema: &Schema,
    config: &ServiceConfig,
) -> Result<BTreeMap<u16, Vec<Workload>>, String> {
    config.validate()?;
    let mut windows: BTreeMap<u16, EpochWindow> = BTreeMap::new();
    let mut out: BTreeMap<u16, Vec<Workload>> = BTreeMap::new();
    let mut dict = DecodeDict::new();
    let feed = |q: &Query,
                windows: &mut BTreeMap<u16, EpochWindow>,
                out: &mut BTreeMap<u16, Vec<Workload>>| {
        let t = q.table().0;
        let window = windows.entry(t).or_insert_with(|| {
            EpochWindow::new(
                schema.clone(),
                config.epoch_events,
                config.window_epochs,
                config.max_templates,
            )
        });
        if window.push(q) {
            out.entry(t)
                .or_default()
                .push(window.snapshot().expect("sealed window has a snapshot"));
        }
    };
    for record in RecordIter::new(input) {
        let flat = match record {
            Record::Line(line) => FlatItem::RawLine(line),
            Record::Item(item) => flatten_item(&item, &mut dict, schema),
            Record::Corrupt => FlatItem::Skip,
        };
        match flat {
            FlatItem::Query(q) => feed(&q, &mut windows, &mut out),
            FlatItem::RawLine(line) => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                match parse_line(trimmed, schema) {
                    Ok(InputLine::Query(q)) => feed(&q, &mut windows, &mut out),
                    Ok(InputLine::Control(Control::Shutdown)) => break,
                    // Observed-cost probes never shape the snapshot
                    // reference: snapshots are a pure function of the
                    // query events.
                    Ok(InputLine::Control(_) | InputLine::Observed(_)) | Err(_) => {}
                }
            }
            FlatItem::Control(Control::Shutdown) => break,
            FlatItem::Control(_) | FlatItem::Skip => {}
        }
    }
    Ok(out)
}

/// Offline reference loop for sharded replay: per table group,
/// `dynamic::adapt` over the group's snapshots at the table's share of
/// the budget — exactly what a group tuner computes under
/// [`crate::DriftThresholds::always_adapt`].
pub fn offline_group_adapt(
    snapshots: &BTreeMap<u16, Vec<Workload>>,
    config: &ServiceConfig,
) -> BTreeMap<u16, Vec<Selection>> {
    use isel_costmodel::WhatIfOptimizer;
    snapshots
        .iter()
        .filter(|(_, snaps)| !snaps.is_empty())
        .map(|(&t, snaps)| {
            let ests: Vec<CachingWhatIf<AnalyticalWhatIf<'_>>> = snaps
                .iter()
                .map(|w| CachingWhatIf::new(AnalyticalWhatIf::new(w)))
                .collect();
            let refs: Vec<&dyn WhatIfOptimizer> =
                ests.iter().map(|e| e as &dyn WhatIfOptimizer).collect();
            let a = budget::table_relative_budget(&ests[0], config.budget_share, TableId(t));
            let selections = isel_core::dynamic::adapt(&refs, a, config.transition)
                .epochs
                .into_iter()
                .map(|e| e.selection)
                .collect();
            (t, selections)
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
            assert_eq!(&out.selection, want, "table t{t} epoch {}", out.epoch);
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
        assert!(asked_merges > 0, "epoch publishes re-merge incrementally");
        assert_eq!(asked.final_selection, plain.final_selection);
    }

    #[test]
    fn shutdown_reads_the_maintained_merge_without_rework() {
        let w = workload();
        let log = sample_log(&w, 96, 19);
        let mut router = Router::new(w.schema().clone(), config(2)).unwrap();
        let report = router
            .run_reader(Cursor::new(log), OverloadPolicy::Block, None, &[])
            .unwrap();
        let arbiter = router.arbiter();
        let merges = arbiter.merges();
        assert!(merges > 0, "epoch publishes were merged during the run");
        // The final selection is a cheap read of the maintained state.
        assert_eq!(arbiter.merged_selection(), report.final_selection);
        assert_eq!(arbiter.merges(), merges, "reads never re-merge");
        // Republishing an unchanged frontier (a group that saw no events
        // since its last epoch) is a clean skip, not a re-merge.
        for t in 0..w.schema().tables().len() as u16 {
            if let Some(pf) = arbiter.published(t) {
                assert!(
                    !arbiter.publish(t, pf, isel_core::Trace::disabled()),
                    "clean republish of t{t} must be skipped"
                );
            }
        }
        assert_eq!(arbiter.merges(), merges);
    }
}
