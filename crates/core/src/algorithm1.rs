//! Algorithm 1 — the recursive index-selection strategy (heuristic H6).
//!
//! Starting from the empty selection, every construction step either
//!
//! * (3a) adds a new single-attribute index `{i}`, or
//! * (3b) appends one attribute to the end of an existing index
//!   ("morphing"),
//!
//! always taking the step with the best ratio of cost reduction
//! `F(I) + R(I, Ī) − F(Ĩ) − R(Ĩ, Ī)` to additional memory `P(Ĩ) − P(I)`
//! until the budget is exhausted or no step improves the workload.
//!
//! Index interaction is handled *by construction*: each step's benefit is
//! measured against the current per-query costs, i.e. in the presence of
//! everything selected earlier.
//!
//! What-if discipline (Section III-A): only queries that can *fully* use a
//! potential index are re-costed — under prefix semantics every other
//! query's cost is unchanged — and per-move benefits are cached between
//! steps and invalidated only for queries whose current cost changed
//! ("required what-if calls from previous steps can be cached, except for
//! calls related to indexes built in the previous step", Fig. 1).
//!
//! Candidates live in the estimator's [`IndexPool`]: a slot holds the
//! [`IndexId`] of its index, and the morphing step (3b) is the pool's O(1)
//! child lookup — appending an attribute never clones an attribute vector.
//! Ids resolve back to concrete [`Index`] values only at the step-log and
//! result boundaries.
//!
//! Remark-1 extensions, all switchable via [`Options`]:
//!
//! 1. `n_best_single` — consider only the n best single attributes,
//! 2. `prune_unused` — drop indexes no query uses anymore,
//! 3. `pair_steps` — also consider attribute *pairs* for new indexes and
//!    extensions (Remark 1.4),
//! 4. `morphing = false` — ablation: disable (3b) entirely.
//!
//! Update templates are handled natively: every step's net benefit
//! subtracts the frequency-weighted maintenance cost the new or extended
//! index adds for the update executions on its table, so write-heavy
//! tables naturally receive fewer and narrower indexes.
//!
//! # Parallel candidate evaluation
//!
//! With [`Options::parallelism`] above one thread, each step's benefit
//! refreshes and per-move metrics fan out over a thread pool via
//! [`parallel_map`]. Determinism is preserved by construction: candidate
//! moves are enumerated into a canonical total order (`Move::key` — new
//! indexes before extensions, then by slot and attribute list), metrics
//! are computed side-effect-free in that order, and the winner is chosen
//! by a *serial* left-to-right fold over the ordered metrics. The fold —
//! not the thread schedule — decides every tie, so serial and parallel
//! runs produce bit-for-bit identical step sequences. At one thread the
//! fold consumes the candidate walk as it goes: no move or metric list is
//! materialized.
//!
//! # The candidate table
//!
//! The engine keeps its candidates between steps. Single-attribute ids
//! are interned once; every slot stores its extension moves — target id
//! resolved, benefit cached, maintenance delta priced, already in
//! `Move::key` order — and rebuilds that list only when a query it covers
//! changed cost; the set of selected ids is maintained by the steps
//! themselves. A step therefore
//! costs its refreshes plus one walk over the table (singles in attribute
//! order, then slot by slot), not a re-enumeration, and the canonical
//! order is a property of the walk: only a refreshed slot's list is
//! sorted, and — with `pair_steps`, whose pair candidates interleave with
//! the singles — the new-index segment. The selected ids are a bitmap over
//! the dense pool ids, so the walk's "already selected?" test is one bit.

use crate::parallel::{parallel_map, Parallelism};
use crate::reconfig::ReconfigCosts;
use crate::selection::{Frontier, FrontierPoint, Selection};
use crate::trace::{StepKind, Trace, TraceEvent};
use isel_costmodel::cache::IdHashBuilder;
use isel_costmodel::{WhatIfOptimizer, WhatIfStats};
use isel_workload::{AttrId, Index, IndexId, IndexPool, QueryId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// A set of pool ids — dense integers, hashed with two multiplies.
type IdSet = HashSet<IndexId, IdHashBuilder>;

/// A set of pool ids as a bitmap: pool ids are dense, so membership is
/// one shift and mask.
#[derive(Default)]
struct IdBits(Vec<u64>);

impl IdBits {
    fn contains(&self, id: IndexId) -> bool {
        self.0.get(id.idx() / 64).is_some_and(|w| w >> (id.idx() % 64) & 1 != 0)
    }

    fn insert(&mut self, id: IndexId) {
        let word = id.idx() / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (id.idx() % 64);
    }

    fn remove(&mut self, id: IndexId) {
        if let Some(w) = self.0.get_mut(id.idx() / 64) {
            *w &= !(1 << (id.idx() % 64));
        }
    }
}

/// Options of a run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Memory budget `A` in bytes; steps never exceed it.
    pub budget: u64,
    /// Remark 1.1: consider only the n best single attributes (ranked by
    /// initial benefit density) for new-index steps.
    pub n_best_single: Option<usize>,
    /// Remark 1.2: drop indexes that no query uses anymore.
    pub prune_unused: bool,
    /// Remark 1.4: also consider attribute pairs (new two-attribute
    /// indexes and two-attribute extensions).
    pub pair_steps: bool,
    /// Allow extension steps (3b). Disabling degenerates the algorithm
    /// into a single-attribute greedy — the morphing ablation.
    pub morphing: bool,
    /// Reconfiguration cost model `R(·, Ī*)`.
    pub reconfig: ReconfigCosts,
    /// Worker threads for candidate evaluation. The chosen steps are
    /// identical at every setting; only the wall-clock changes.
    pub parallelism: Parallelism,
}

impl Options {
    /// Defaults matching the paper's base configuration: all extensions
    /// off, free reconfiguration, one thread.
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            n_best_single: None,
            prune_unused: false,
            pair_steps: false,
            morphing: true,
            reconfig: ReconfigCosts::free(),
            parallelism: Parallelism::serial(),
        }
    }
}

/// What a construction step did.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum StepAction {
    /// (3a) — a new index was created (single attribute, or a pair with
    /// Remark 1.4).
    NewIndex(Index),
    /// (3b) — `from` was morphed into `to` by appending trailing
    /// attributes.
    Extend {
        /// The index that was extended.
        from: Index,
        /// The resulting index.
        to: Index,
    },
    /// Remark 1.2 — unused indexes were dropped.
    Prune(Vec<Index>),
}

/// Log record of one construction step.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// The action taken.
    pub action: StepAction,
    /// Workload-cost reduction of the step (incl. reconfiguration delta).
    pub benefit: f64,
    /// Memory change in bytes (negative for prune steps).
    pub memory_delta: i64,
    /// `benefit / memory_delta` — the selection criterion.
    pub ratio: f64,
    /// Total memory `P(I)` after the step.
    pub total_memory: u64,
    /// Total cost `F(I) + R(I, Ī)` after the step.
    pub total_cost: f64,
}

/// Result of a run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Final selection.
    pub selection: Selection,
    /// Every construction step, in order.
    pub steps: Vec<StepRecord>,
    /// The performance/memory frontier traced by the construction.
    pub frontier: Frontier,
    /// `F(∅) + R(∅, Ī)` — cost before any step.
    pub initial_cost: f64,
    /// Cost after the last step.
    pub final_cost: f64,
}

/// Reconstruct the selection Algorithm 1 had reached at a given memory
/// budget by replaying the step log — one run serves every budget of a
/// sweep.
pub fn selection_at(steps: &[StepRecord], budget: u64) -> Selection {
    let mut sel = Selection::empty();
    for s in steps {
        if s.total_memory > budget {
            break;
        }
        match &s.action {
            StepAction::NewIndex(k) => {
                sel.insert(k.clone());
            }
            StepAction::Extend { from, to } => {
                sel.replace(from, to.clone());
            }
            StepAction::Prune(dropped) => {
                for k in dropped {
                    sel.remove(k);
                }
            }
        }
    }
    sel
}

/// A candidate move considered in one step. Both variants carry pool ids:
/// an extension names the slot it extends and the (already interned) child
/// index it would morph into.
#[derive(Clone, Copy, Debug)]
enum Move {
    New(IndexId),
    Extend { slot: usize, to: IndexId },
}

impl Move {
    /// The canonical total order on candidate moves — THE tie-break of the
    /// argmax scan, defined once for every evaluation path. Moves are
    /// compared `(kind, slot, attrs)`: new indexes before extensions, then
    /// by slot id, then lexicographically by the full resolved attribute
    /// list. Within one slot every extension shares the slot's prefix, so
    /// comparing full attribute lists orders extensions exactly like
    /// comparing the appended attributes alone. Every enumerated move has
    /// a distinct key, so sorting by it yields one unique candidate
    /// sequence and the left-to-right argmax fold is deterministic
    /// regardless of enumeration (hash map) or thread order.
    fn key<'p>(&self, pool: &'p IndexPool) -> (u8, usize, &'p [AttrId]) {
        match self {
            Move::New(k) => (0, 0, pool.attrs(*k)),
            Move::Extend { slot, to } => (1, *slot, pool.attrs(*to)),
        }
    }

    /// The index the move would add to the selection.
    fn target(&self) -> IndexId {
        match self {
            Move::New(k) => *k,
            Move::Extend { to, .. } => *to,
        }
    }
}

/// A candidate move with what a step's scan reads of it: the workload
/// benefit, cached until a query it covers changes cost, and the
/// weighted maintenance delta, which depends on the move alone and is
/// priced once, when the candidate is built — and only when the benefit
/// is positive, since no other candidate is ever priced.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    mv: Move,
    ben: f64,
    maint: f64,
}

/// Put candidates into the canonical [`Move::key`] order.
fn sort_canonical(cands: &mut [Candidate], pool: &IndexPool) {
    cands.sort_by(|a, b| a.mv.key(pool).cmp(&b.mv.key(pool)));
}

struct Slot {
    index: IndexId,
    /// Queries containing *all* attributes of `index` (sorted ids) — the
    /// only queries an extension can affect.
    covering: Vec<u32>,
    /// The slot's extension candidates, in canonical order: one per
    /// appended attribute (and per appended pair with Remark 1.4) that
    /// lowers some covering query's cost.
    exts: Vec<Candidate>,
    /// Whether `exts` must be recomputed.
    dirty: bool,
    /// Number of queries currently served by this index (tracked for
    /// Remark 1.2).
    served: u32,
    /// Weighted maintenance cost of `index`: the `from` side of every
    /// extension's delta.
    maint: f64,
}

/// A candidate with its `(net benefit, memory delta, ratio)`.
type Scored = (Candidate, f64, u64, f64);

/// The left-to-right fold of a step's scan: the best move so far.
struct Argmax {
    best: Option<Scored>,
}

impl Argmax {
    /// Does `(net, ratio)` beat the incumbent under the step criterion?
    /// Higher ratio wins (with an epsilon guard against float noise);
    /// near-equal ratios fall back to the larger net benefit; remaining
    /// ties keep the incumbent — i.e. the earlier move in canonical order.
    fn beats(net: f64, ratio: f64, incumbent: Option<&Scored>) -> bool {
        match incumbent {
            None => true,
            Some((_, bnet, _, bratio)) => {
                ratio > *bratio + 1e-12 || ((ratio - *bratio).abs() <= 1e-12 && net > *bnet)
            }
        }
    }

    /// Fold in the next candidate in canonical order with its metrics
    /// (`None`: not worth taking, or over budget).
    fn offer(&mut self, c: Candidate, metric: Option<(f64, u64, f64)>) {
        let Some((net, dm, ratio)) = metric else { return };
        if Self::beats(net, ratio, self.best.as_ref()) {
            self.best = Some((c, net, dm, ratio));
        }
    }
}

/// Run Algorithm 1 against a what-if oracle.
///
/// ```
/// use isel_core::algorithm1::{self, Options, StepAction};
/// use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf};
/// use isel_workload::{Query, SchemaBuilder, Workload};
///
/// let mut b = SchemaBuilder::new();
/// let t = b.table("orders", 1_000_000);
/// let customer = b.attribute(t, "customer_id", 50_000, 4);
/// let status = b.attribute(t, "status", 8, 1);
/// let w = Workload::new(b.finish(), vec![Query::new(t, vec![customer, status], 100)]);
///
/// let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
/// let budget = isel_core::budget::relative_budget(&est, 1.0);
/// let result = algorithm1::run(&est, &Options::new(budget));
///
/// assert!(result.final_cost < result.initial_cost);
/// assert!(matches!(result.steps[0].action, StepAction::NewIndex(_)));
/// ```
pub fn run<W: WhatIfOptimizer>(est: &W, options: &Options) -> RunResult {
    run_traced(est, options, Trace::disabled())
}

/// [`run`] with a [`Trace`] handle: emits `RunStart`, one `CandidateScan`
/// per step span (setup scan 0, one per loop iteration including the final
/// unsuccessful one), one `Step` per construction step, and `RunEnd`.
///
/// Scan spans are measured back-to-back from the same stats origin as the
/// run totals, so the summed per-scan what-if deltas equal the `RunEnd`
/// totals by construction. With a disabled handle this is exactly [`run`]:
/// no clock reads, no stats loads, no event construction, and (traced or
/// not) identical selections at every thread count.
pub fn run_traced<W: WhatIfOptimizer>(
    est: &W,
    options: &Options,
    trace: Trace<'_>,
) -> RunResult {
    let entry_stats = est.stats();
    let run_start = Instant::now();
    trace.emit(|| {
        let w = est.workload();
        TraceEvent::RunStart {
            strategy: "H6".into(),
            queries: w.query_count() as u64,
            total_width: w.iter().map(|(_, q)| q.width() as u64).sum(),
            budget: options.budget,
            shard: None,
        }
    });
    let result = Engine::new(est, options, trace, entry_stats, run_start).run();
    trace.emit(|| {
        let now = est.stats();
        TraceEvent::RunEnd {
            shard: None,
            strategy: "H6".into(),
            steps: result.steps.len() as u64,
            issued: now.calls_issued - entry_stats.calls_issued,
            cached: now.calls_answered_from_cache - entry_stats.calls_answered_from_cache,
            initial_cost: result.initial_cost,
            final_cost: result.final_cost,
            micros: run_start.elapsed().as_micros() as u64,
        }
    });
    result
}

struct Engine<'a, W> {
    est: &'a W,
    options: &'a Options,
    /// Observability handle; disabled handles cost one branch per emit.
    trace: Trace<'a>,
    /// Oracle stats at run entry — origin of the setup-scan delta.
    entry_stats: WhatIfStats,
    /// Wall-clock run start — origin of the setup-scan timing.
    run_start: Instant,
    /// Candidate moves given to the fold by the most recent [`best_move`]
    /// scan.
    scanned_candidates: usize,
    /// Per-query frequency `b_j`.
    freq: Vec<f64>,
    /// Per-query current cost (F part).
    cur: Vec<f64>,
    /// Slot currently serving each query (`usize::MAX` = table scan).
    server: Vec<usize>,
    /// Queries containing each attribute.
    attr_queries: Vec<Vec<u32>>,
    slots: Vec<Option<Slot>>,
    /// The indexes of the live slots, maintained by every step: no move
    /// may target an index that is already selected.
    selected: IdBits,
    /// `{i}` for every attribute `i`, interned once.
    single_ids: Vec<IndexId>,
    /// `{i}` as a new-index candidate, its benefit cached; `None` =
    /// stale. Attributes excluded by Remark 1.1 are never refreshed and
    /// stay `None`.
    single_ben: Vec<Option<Candidate>>,
    /// Remark 1.4 cache, keyed by co-occurring attribute pair `a < b`: the
    /// new two-attribute index in whichever orientation benefits the
    /// covering queries more (ties go to `(a, b)`).
    pair_ben: HashMap<(AttrId, AttrId), Option<Candidate>>,
    /// Attributes allowed in new-single steps (Remark 1.1), `None` = all.
    allowed_singles: Option<Vec<bool>>,
    total_memory: u64,
    /// Frequency-weighted update executions per table: selecting an index
    /// on table `t` charges `upd_weight[t] · maintenance_cost(k)`.
    upd_weight: Vec<f64>,
    /// Total weighted maintenance cost of the current selection.
    maint_total: f64,
    /// `Ī*` interned once — reconfiguration deltas are id set lookups.
    reconfig_current: IdSet,
}

impl<'a, W: WhatIfOptimizer> Engine<'a, W> {
    fn new(
        est: &'a W,
        options: &'a Options,
        trace: Trace<'a>,
        entry_stats: WhatIfStats,
        run_start: Instant,
    ) -> Self {
        let workload = est.workload();
        let n_attrs = workload.schema().attr_count();
        let mut attr_queries = vec![Vec::new(); n_attrs];
        let mut freq = Vec::with_capacity(workload.query_count());
        let mut upd_weight = vec![0.0f64; workload.schema().tables().len()];
        for (j, q) in workload.iter() {
            freq.push(q.frequency() as f64);
            if q.is_update() {
                upd_weight[q.table().idx()] += q.frequency() as f64;
            }
            for &a in q.attrs() {
                attr_queries[a.idx()].push(j.0);
            }
        }
        let query_ids: Vec<QueryId> = workload.iter().map(|(j, _)| j).collect();
        let cur = parallel_map(options.parallelism, &query_ids, |&j| est.unindexed_cost(j));
        let server = vec![usize::MAX; workload.query_count()];
        let mut pair_ben = HashMap::new();
        if options.pair_steps {
            // Seed the pair cache with every co-occurring attribute pair.
            for (_, q) in workload.iter() {
                let attrs = q.attrs();
                for (x, &a) in attrs.iter().enumerate() {
                    for &b in &attrs[x + 1..] {
                        pair_ben.insert((a, b), None);
                    }
                }
            }
        }
        let reconfig_current: IdSet = options
            .reconfig
            .current
            .indexes()
            .iter()
            .map(|k| est.pool().intern(k))
            .collect();
        let single_ids = (0..n_attrs as u32)
            .map(|i| est.pool().intern_single(AttrId(i)))
            .collect();
        Self {
            est,
            options,
            trace,
            entry_stats,
            run_start,
            scanned_candidates: 0,
            freq,
            cur,
            server,
            attr_queries,
            slots: Vec::new(),
            selected: IdBits::default(),
            single_ids,
            single_ben: vec![None; n_attrs],
            pair_ben,
            allowed_singles: None,
            total_memory: 0,
            upd_weight,
            maint_total: 0.0,
            reconfig_current,
        }
    }

    /// Frequency-weighted maintenance cost an index adds to the selection.
    /// On a table without update templates it is 0 and asks nothing.
    fn weighted_maint(&self, index: IndexId) -> f64 {
        let table = self.est.pool().table(index);
        let w = self.upd_weight[table.idx()];
        if w == 0.0 {
            0.0
        } else {
            w * self.est.maintenance_cost(index)
        }
    }

    fn total_f(&self) -> f64 {
        self.cur.iter().zip(&self.freq).map(|(c, b)| c * b).sum()
    }

    fn current_selection(&self) -> Selection {
        let pool = self.est.pool();
        self.slots
            .iter()
            .flatten()
            .map(|s| pool.resolve(s.index))
            .collect()
    }

    /// `R(I, Ī*)` of the live slots — [`ReconfigCosts::cost`] by id:
    /// creation costs summed in slot order (one memory request per
    /// selected index outside `Ī*`) plus the drop fee of every index of
    /// `Ī*` that is not selected.
    fn reconfig_cost(&self) -> f64 {
        let r = &self.options.reconfig;
        let creates: f64 = self
            .slots
            .iter()
            .flatten()
            .filter(|s| !self.reconfig_current.contains(&s.index))
            .map(|s| self.est.index_memory(s.index) as f64 * r.create_cost_per_byte)
            .sum();
        let drops = self
            .reconfig_current
            .iter()
            .filter(|&&k| !self.selected.contains(k))
            .count() as f64
            * r.drop_cost;
        creates + drops
    }

    /// `index` as a new-index candidate: its maintenance is priced only
    /// when its benefit is positive.
    fn new_candidate(&self, index: IndexId, ben: f64) -> Candidate {
        let maint = if ben > 0.0 { self.weighted_maint(index) } else { 0.0 };
        Candidate { mv: Move::New(index), ben, maint }
    }

    /// Benefit of a brand-new index over the queries containing all its
    /// attributes.
    fn new_index_benefit(&self, index: IndexId) -> f64 {
        let attrs = self.est.pool().attrs(index);
        let mut ben = 0.0;
        for &j in &self.attr_queries[attrs[0].idx()] {
            let q = self.est.workload().query(QueryId(j));
            if !attrs[1..].iter().all(|a| q.accesses(*a)) {
                continue;
            }
            if let Some(f) = self.est.index_cost(QueryId(j), index) {
                let cur = self.cur[j as usize];
                if f < cur {
                    ben += self.freq[j as usize] * (cur - f);
                }
            }
        }
        ben
    }

    /// Recompute the extension candidates of a slot: every target
    /// interned and keyed by its id (distinct appended attributes give
    /// distinct children), benefits summed over the covering queries in
    /// ascending id, maintenance deltas priced, the list sorted once into
    /// canonical order. Side-effect-free on the engine (only the what-if
    /// oracle's cache and the append-only pool are touched), so dirty
    /// slots refresh concurrently.
    fn compute_exts(&self, slot_id: usize) -> Vec<Candidate> {
        let slot = self.slots[slot_id].as_ref().expect("dirty slot is live");
        let mut ext_ben: HashMap<IndexId, f64, IdHashBuilder> = HashMap::default();
        let workload = self.est.workload();
        let pool = self.est.pool();
        let base_attrs = pool.attrs(slot.index);
        for &j in &slot.covering {
            let q = workload.query(QueryId(j));
            let cur = self.cur[j as usize];
            let remaining: Vec<AttrId> = q
                .attrs()
                .iter()
                .copied()
                .filter(|a| !base_attrs.contains(a))
                .collect();
            for (x, &a) in remaining.iter().enumerate() {
                let ext = pool.intern_child(slot.index, a);
                if let Some(f) = self.est.index_cost(QueryId(j), ext) {
                    if f < cur {
                        *ext_ben.entry(ext).or_insert(0.0) += self.freq[j as usize] * (cur - f);
                    }
                }
                if self.options.pair_steps {
                    for &b in &remaining[x + 1..] {
                        let ext2 = pool.intern_child(ext, b);
                        if let Some(f) = self.est.index_cost(QueryId(j), ext2) {
                            if f < cur {
                                *ext_ben.entry(ext2).or_insert(0.0) +=
                                    self.freq[j as usize] * (cur - f);
                            }
                        }
                    }
                }
            }
        }
        let mut exts: Vec<Candidate> = ext_ben
            .into_iter()
            .map(|(to, ben)| {
                let maint = if ben > 0.0 { self.weighted_maint(to) - slot.maint } else { 0.0 };
                Candidate { mv: Move::Extend { slot: slot_id, to }, ben, maint }
            })
            .collect();
        sort_canonical(&mut exts, pool);
        exts
    }

    /// Reconfiguration delta of a move (new R minus current R).
    fn reconfig_delta(&self, mv: &Move) -> f64 {
        let r = &self.options.reconfig;
        if r.create_cost_per_byte == 0.0 && r.drop_cost == 0.0 {
            return 0.0;
        }
        match mv {
            Move::New(k) => {
                if self.reconfig_current.contains(k) {
                    0.0
                } else {
                    self.est.index_memory(*k) as f64 * r.create_cost_per_byte
                }
            }
            Move::Extend { slot, to } => {
                let from = self.slots[*slot].as_ref().expect("live slot").index;
                let mut delta = 0.0;
                if !self.reconfig_current.contains(to) {
                    delta += self.est.index_memory(*to) as f64 * r.create_cost_per_byte;
                }
                if self.reconfig_current.contains(&from) {
                    delta += r.drop_cost;
                } else {
                    delta -= self.est.index_memory(from) as f64 * r.create_cost_per_byte;
                }
                delta
            }
        }
    }

    fn memory_delta(&self, mv: &Move) -> u64 {
        match mv {
            Move::New(k) => self.est.index_memory(*k),
            Move::Extend { slot, to } => {
                let from = self.slots[*slot].as_ref().expect("live slot").index;
                self.est.index_memory(*to) - self.est.index_memory(from)
            }
        }
    }

    /// Refresh stale benefit caches, evaluating concurrently when
    /// parallelism is enabled. Each computation reads only `&self` and the
    /// what-if oracle; results are written back serially.
    fn refresh_caches(&mut self) {
        let par = self.options.parallelism;
        let n_attrs = self.single_ben.len();
        // Refresh single-attribute benefits.
        let stale_singles: Vec<u32> = (0..n_attrs)
            .filter(|&i| {
                self.allowed_singles.as_ref().is_none_or(|allowed| allowed[i])
                    && self.single_ben[i].is_none()
            })
            .map(|i| i as u32)
            .collect();
        let computed = {
            let this = &*self;
            parallel_map(par, &stale_singles, |&i| {
                let k = this.single_ids[i as usize];
                this.new_candidate(k, this.new_index_benefit(k))
            })
        };
        for (&i, cand) in stale_singles.iter().zip(computed) {
            self.single_ben[i as usize] = Some(cand);
        }
        // Refresh pair benefits (Remark 1.4): cost both orientations and
        // keep whichever benefits the covering queries more (ties go
        // forward).
        if self.options.pair_steps {
            let stale: Vec<(AttrId, AttrId)> = self
                .pair_ben
                .iter()
                .filter(|(_, v)| v.is_none())
                .map(|(k, _)| *k)
                .collect();
            let computed = {
                let this = &*self;
                let pool = this.est.pool();
                parallel_map(par, &stale, |&(a, b)| {
                    let (fwd, rev) = (pool.intern_attrs(&[a, b]), pool.intern_attrs(&[b, a]));
                    let (fwd_ben, rev_ben) =
                        (this.new_index_benefit(fwd), this.new_index_benefit(rev));
                    if fwd_ben >= rev_ben {
                        this.new_candidate(fwd, fwd_ben)
                    } else {
                        this.new_candidate(rev, rev_ben)
                    }
                })
            };
            for (key, best) in stale.into_iter().zip(computed) {
                self.pair_ben.insert(key, Some(best));
            }
        }
        // Refresh dirty slots.
        if self.options.morphing {
            let dirty: Vec<usize> = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.as_ref().is_some_and(|s| s.dirty))
                .map(|(i, _)| i)
                .collect();
            let computed = {
                let this = &*self;
                parallel_map(par, &dirty, |&id| this.compute_exts(id))
            };
            for (id, exts) in dirty.into_iter().zip(computed) {
                let slot = self.slots[id].as_mut().expect("dirty slot is live");
                slot.exts = exts;
                slot.dirty = false;
            }
        }
    }

    /// Every eligible candidate of this step, in the canonical
    /// [`Move::key`] order — one walk over the refreshed candidate table,
    /// skipping moves whose target is already selected. The walk *is* the
    /// order: singles ascend with their attribute, slots with their id,
    /// and each slot's list was sorted when it was refreshed.
    fn candidates(&self) -> impl Iterator<Item = Candidate> + '_ {
        let pool = self.est.pool();
        let singles = self.single_ben.iter().flatten().copied();
        // Pairs come out of a hash map and interleave with the singles
        // (`[a] < [a, b] < [a + 1]`), so with them the new-index segment
        // is gathered and sorted.
        let (singles, news) = if self.options.pair_steps {
            let pairs = self.pair_ben.values().flatten().copied();
            let mut news: Vec<Candidate> = singles.chain(pairs).collect();
            sort_canonical(&mut news, pool);
            (None, Some(news))
        } else {
            (Some(singles), None)
        };
        // Slots that were never refreshed (morphing off) hold no moves.
        let exts = self.slots.iter().flatten().flat_map(|slot| slot.exts.iter().copied());
        let mut prev: Option<Move> = None;
        singles
            .into_iter()
            .flatten()
            .chain(news.into_iter().flatten())
            .chain(exts)
            // Step (3a) requires I ∩ {i} = ∅, and (3b) a target not yet
            // selected either.
            .filter(|c| !self.selected.contains(c.mv.target()))
            .inspect(move |c| {
                debug_assert!(
                    prev.is_none_or(|p| p.key(pool) < c.mv.key(pool)),
                    "candidate walk left the canonical order"
                );
                prev = Some(c.mv);
            })
    }

    /// `(net benefit, memory delta, ratio)` of a candidate, or `None` when
    /// it is not worth taking or does not fit the budget.
    fn move_metrics(&self, c: &Candidate) -> Option<(f64, u64, f64)> {
        if c.ben <= 0.0 {
            return None;
        }
        let net = c.ben - self.reconfig_delta(&c.mv) - c.maint;
        if net <= 0.0 {
            return None;
        }
        let dm = self.memory_delta(&c.mv);
        if dm == 0 || self.total_memory + dm > self.options.budget {
            return None;
        }
        Some((net, dm, net / dm as f64))
    }

    fn best_move(&mut self) -> Option<Scored> {
        self.refresh_caches();
        let par = self.options.parallelism;
        let mut fold = Argmax { best: None };
        let mut scanned = 0;
        if par.threads() > 1 {
            // Metrics evaluate in parallel; the winner is decided by the
            // serial fold over the canonically ordered candidates, so the
            // outcome is independent of the thread schedule.
            let mut cands = Vec::with_capacity(self.scanned_candidates);
            cands.extend(self.candidates());
            let metrics = parallel_map(par, &cands, |c| self.move_metrics(c));
            for (&c, metric) in cands.iter().zip(metrics) {
                fold.offer(c, metric);
            }
            scanned = cands.len();
        } else {
            for c in self.candidates() {
                fold.offer(c, self.move_metrics(&c));
                scanned += 1;
            }
        }
        self.scanned_candidates = scanned;
        fold.best
    }

    /// Apply a chosen candidate; returns (action, queries whose cost
    /// changed).
    fn apply(&mut self, c: &Candidate) -> (StepAction, Vec<u32>) {
        let pool = self.est.pool();
        self.maint_total += c.maint;
        match &c.mv {
            Move::New(k) => {
                let index = *k;
                let attrs = pool.attrs(index);
                let covering: Vec<u32> = self.attr_queries[attrs[0].idx()]
                    .iter()
                    .copied()
                    .filter(|&j| {
                        let q = self.est.workload().query(QueryId(j));
                        attrs[1..].iter().all(|a| q.accesses(*a))
                    })
                    .collect();
                let slot_id = self.slots.len();
                let mut changed = Vec::new();
                let mut served = 0;
                for &j in &covering {
                    if let Some(f) = self.est.index_cost(QueryId(j), index) {
                        if f < self.cur[j as usize] {
                            self.cur[j as usize] = f;
                            self.reassign_server(j, slot_id);
                            served += 1;
                            changed.push(j);
                        }
                    }
                }
                self.total_memory += self.est.index_memory(index);
                self.selected.insert(index);
                self.slots.push(Some(Slot {
                    index,
                    covering,
                    exts: Vec::new(),
                    dirty: true,
                    served,
                    maint: c.maint,
                }));
                (StepAction::NewIndex(pool.resolve(index)), changed)
            }
            Move::Extend { slot: slot_id, to } => {
                let slot = self.slots[*slot_id].take().expect("live slot");
                let from = slot.index;
                let to = *to;
                let to_attrs = pool.attrs(to);
                let appended = &to_attrs[pool.width(from)..];
                let covering: Vec<u32> = slot
                    .covering
                    .iter()
                    .copied()
                    .filter(|&j| {
                        let q = self.est.workload().query(QueryId(j));
                        appended.iter().all(|a| q.accesses(*a))
                    })
                    .collect();
                let mut changed = Vec::new();
                let mut served = slot.served;
                for &j in &covering {
                    if let Some(f) = self.est.index_cost(QueryId(j), to) {
                        if f < self.cur[j as usize] {
                            self.cur[j as usize] = f;
                            if self.server[j as usize] != *slot_id {
                                self.reassign_server(j, *slot_id);
                                served += 1;
                            }
                            changed.push(j);
                        }
                    }
                }
                self.total_memory += self.est.index_memory(to) - self.est.index_memory(from);
                self.selected.remove(from);
                self.selected.insert(to);
                self.slots[*slot_id] = Some(Slot {
                    index: to,
                    covering,
                    exts: Vec::new(),
                    dirty: true,
                    served,
                    maint: self.weighted_maint(to),
                });
                (
                    StepAction::Extend { from: pool.resolve(from), to: pool.resolve(to) },
                    changed,
                )
            }
        }
    }

    /// Point `server[j]` at `slot_id`, maintaining serve counts.
    fn reassign_server(&mut self, j: u32, slot_id: usize) {
        let old = self.server[j as usize];
        if old != usize::MAX {
            if let Some(s) = self.slots[old].as_mut() {
                s.served = s.served.saturating_sub(1);
            }
        }
        self.server[j as usize] = slot_id;
    }

    /// Invalidate benefit caches touched by cost changes in `changed`.
    fn invalidate(&mut self, changed: &[u32]) {
        for &j in changed {
            let q = self.est.workload().query(QueryId(j));
            for &a in q.attrs() {
                self.single_ben[a.idx()] = None;
            }
            if self.options.pair_steps {
                let attrs = q.attrs();
                for (x, &a) in attrs.iter().enumerate() {
                    for &b in &attrs[x + 1..] {
                        if let Some(v) = self.pair_ben.get_mut(&(a, b)) {
                            *v = None;
                        }
                    }
                }
            }
        }
        for slot in self.slots.iter_mut().flatten() {
            if slot.dirty {
                continue;
            }
            if changed
                .iter()
                .any(|j| slot.covering.binary_search(j).is_ok())
            {
                slot.dirty = true;
            }
        }
    }

    /// Remark 1.2: drop indexes that serve no query.
    fn prune_unused(&mut self) -> Option<(Vec<Index>, u64)> {
        let mut dropped = Vec::new();
        let mut freed = 0u64;
        for pos in 0..self.slots.len() {
            let drop_it = self.slots[pos].as_ref().is_some_and(|s| s.served == 0);
            if drop_it {
                let s = self.slots[pos].take().expect("checked above");
                self.selected.remove(s.index);
                freed += self.est.index_memory(s.index);
                self.maint_total -= s.maint;
                dropped.push(self.est.pool().resolve(s.index));
            }
        }
        if dropped.is_empty() {
            None
        } else {
            self.total_memory -= freed;
            Some((dropped, freed))
        }
    }

    /// Emit the candidate-scan event for one step span: what-if deltas
    /// measured from `before`, wall time from `t0`. Only called when the
    /// trace is enabled.
    fn emit_scan(&self, step: u64, queries_recosted: u64, t0: Instant, before: WhatIfStats) {
        let now = self.est.stats();
        self.trace.emit(|| TraceEvent::CandidateScan {
            step,
            candidates: self.scanned_candidates as u64,
            queries_recosted,
            issued: now.calls_issued - before.calls_issued,
            cached: now.calls_answered_from_cache - before.calls_answered_from_cache,
            micros: t0.elapsed().as_micros() as u64,
        });
    }

    fn run(mut self) -> RunResult {
        // Remark 1.1: rank single attributes by initial benefit density
        // and keep only the n best.
        if let Some(n) = self.options.n_best_single {
            let n_attrs = self.single_ben.len();
            let all: Vec<u32> = (0..n_attrs as u32).collect();
            let mut density: Vec<(usize, f64)> = parallel_map(
                self.options.parallelism,
                &all,
                |&i| {
                    let k = self.single_ids[i as usize];
                    let ben = self.new_index_benefit(k);
                    (i as usize, ben / self.est.index_memory(k).max(1) as f64)
                },
            );
            density.sort_by(|a, b| {
                isel_workload::ord::total_cmp_nan_lowest_desc(a.1, b.1).then(a.0.cmp(&b.0))
            });
            let mut allowed = vec![false; n_attrs];
            for &(i, _) in density.iter().take(n) {
                allowed[i] = true;
            }
            self.allowed_singles = Some(allowed);
        }

        // Setup scan (scan 0): the initial `f_j(0)` costing from engine
        // construction plus the n-best pre-ranking above.
        if self.trace.is_enabled() {
            self.scanned_candidates = if self.options.n_best_single.is_some() {
                self.single_ben.len()
            } else {
                0
            };
            self.emit_scan(0, self.cur.len() as u64, self.run_start, self.entry_stats);
        }

        let initial_cost = self.total_f() + self.reconfig_cost();
        let mut steps = Vec::new();
        let mut frontier_points = vec![FrontierPoint { memory: 0, cost: initial_cost }];

        loop {
            let span = self
                .trace
                .is_enabled()
                .then(|| (Instant::now(), self.est.stats()));
            let best = self.best_move();
            let Some((cand, net_ben, dmem, ratio)) = best else {
                // The terminating scan still issued what-if calls; record
                // it so scan sums equal the run totals.
                if let Some((t0, before)) = span {
                    self.emit_scan(steps.len() as u64 + 1, 0, t0, before);
                }
                break;
            };
            let (action, changed) = self.apply(&cand);
            let mv = cand.mv;
            self.invalidate(&changed);

            let total_cost = self.total_f() + self.maint_total + self.reconfig_cost();
            steps.push(StepRecord {
                action,
                benefit: net_ben,
                memory_delta: dmem as i64,
                ratio,
                total_memory: self.total_memory,
                total_cost,
            });
            if let Some((t0, before)) = span {
                let step_no = steps.len() as u64;
                self.emit_scan(step_no, changed.len() as u64, t0, before);
                self.trace.emit(|| TraceEvent::Step {
                    step: step_no,
                    kind: match &mv {
                        Move::New(_) => StepKind::Add,
                        Move::Extend { .. } => StepKind::Morph,
                    },
                    index: Some(match &mv {
                        Move::New(k) => k.0,
                        Move::Extend { to, .. } => to.0,
                    }),
                    benefit: net_ben,
                    memory_delta: dmem as i64,
                    ratio,
                    total_memory: self.total_memory,
                    total_cost,
                });
            }
            frontier_points.push(FrontierPoint { memory: self.total_memory, cost: total_cost });

            if self.options.prune_unused {
                if let Some((dropped, freed)) = self.prune_unused() {
                    let total_cost = self.total_f() + self.maint_total + self.reconfig_cost();
                    steps.push(StepRecord {
                        action: StepAction::Prune(dropped),
                        benefit: 0.0,
                        memory_delta: -(freed as i64),
                        ratio: 0.0,
                        total_memory: self.total_memory,
                        total_cost,
                    });
                    self.trace.emit(|| TraceEvent::Step {
                        step: steps.len() as u64,
                        kind: StepKind::Prune,
                        index: None,
                        benefit: 0.0,
                        memory_delta: -(freed as i64),
                        ratio: 0.0,
                        total_memory: self.total_memory,
                        total_cost,
                    });
                    frontier_points
                        .push(FrontierPoint { memory: self.total_memory, cost: total_cost });
                }
            }
        }

        let final_cost = steps.last().map_or(initial_cost, |s| s.total_cost);
        RunResult {
            selection: self.current_selection(),
            steps,
            frontier: Frontier::new(frontier_points),
            initial_cost,
            final_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf};
    use isel_workload::{Query, SchemaBuilder, TableId, Workload};

    /// Three attributes: `a0` unique (hot), `a1` medium, `a2` coarse.
    fn fixture() -> Workload {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 100_000);
        let a0 = b.attribute(t, "a0", 100_000, 4);
        let a1 = b.attribute(t, "a1", 1_000, 4);
        let a2 = b.attribute(t, "a2", 10, 4);
        Workload::new(
            b.finish(),
            vec![
                Query::new(TableId(0), vec![a0], 100),
                Query::new(TableId(0), vec![a1, a2], 50),
                Query::new(TableId(0), vec![a2], 10),
            ],
        )
    }

    fn est(w: &Workload) -> CachingWhatIf<AnalyticalWhatIf<'_>> {
        CachingWhatIf::new(AnalyticalWhatIf::new(w))
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let w = fixture();
        let e = est(&w);
        let r = run(&e, &Options::new(0));
        assert!(r.selection.is_empty());
        assert_eq!(r.initial_cost, r.final_cost);
    }

    #[test]
    fn selects_and_improves_under_generous_budget() {
        let w = fixture();
        let e = est(&w);
        let r = run(&e, &Options::new(u64::MAX / 2));
        assert!(!r.selection.is_empty());
        assert!(r.final_cost < r.initial_cost);
        // Validate the logged final cost against a fresh evaluation.
        let actual = r.selection.cost(&e);
        assert!((actual - r.final_cost).abs() < 1e-6 * r.initial_cost.max(1.0));
    }

    #[test]
    fn never_exceeds_budget() {
        let w = fixture();
        let e = est(&w);
        for share in [0.1, 0.3, 0.7] {
            let budget = crate::budget::relative_budget(&e, share);
            let r = run(&e, &Options::new(budget));
            assert!(r.selection.memory(&e) <= budget);
        }
    }

    #[test]
    fn morphing_builds_multi_attribute_indexes() {
        let w = fixture();
        let e = est(&w);
        let r = run(&e, &Options::new(u64::MAX / 2));
        // Query on (a1, a2) makes the (a1) index worth extending.
        let has_multi = r.selection.indexes().iter().any(|k| k.width() >= 2);
        let extended = r
            .steps
            .iter()
            .any(|s| matches!(s.action, StepAction::Extend { .. }));
        assert_eq!(has_multi, extended);
        assert!(has_multi, "expected a morphing step; steps: {:?}", r.steps);
    }

    #[test]
    fn morphing_off_yields_single_attribute_indexes_only() {
        let w = fixture();
        let e = est(&w);
        let r = run(&e, &Options { morphing: false, ..Options::new(u64::MAX / 2) });
        assert!(r.selection.indexes().iter().all(|k| k.width() == 1));
    }

    #[test]
    fn costs_decrease_monotonically_along_steps() {
        let w = fixture();
        let e = est(&w);
        let r = run(&e, &Options::new(u64::MAX / 2));
        let mut last = r.initial_cost;
        for s in &r.steps {
            assert!(s.total_cost <= last + 1e-9, "step increased cost: {s:?}");
            last = s.total_cost;
        }
    }

    #[test]
    fn frontier_points_match_steps() {
        let w = fixture();
        let e = est(&w);
        let r = run(&e, &Options::new(u64::MAX / 2));
        // The frontier's best point equals the final cost.
        let best = r.frontier.cost_at(u64::MAX).expect("non-empty frontier");
        assert!((best - r.final_cost).abs() < 1e-9 * r.initial_cost.max(1.0));
    }

    #[test]
    fn first_step_picks_best_density_single() {
        let w = fixture();
        let e = est(&w);
        let r = run(&e, &Options::new(u64::MAX / 2));
        // Manually compute the best-density single attribute.
        let mut best = (f64::MIN, usize::MAX);
        for i in 0..3u32 {
            let k = e.pool().intern_single(AttrId(i));
            let ben = crate::heuristics::individual_benefit(&e, k);
            let d = ben / e.index_memory(k) as f64;
            if d > best.0 {
                best = (d, i as usize);
            }
        }
        match &r.steps[0].action {
            StepAction::NewIndex(k) => assert_eq!(k.leading().idx(), best.1),
            other => panic!("expected NewIndex, got {other:?}"),
        }
    }

    #[test]
    fn n_best_restricts_single_candidates() {
        let w = fixture();
        let e = est(&w);
        let r = run(
            &e,
            &Options { n_best_single: Some(1), ..Options::new(u64::MAX / 2) },
        );
        // Only one distinct leading attribute can ever be introduced.
        let mut leads: Vec<_> = r
            .selection
            .indexes()
            .iter()
            .map(|k| k.leading())
            .collect();
        leads.sort_unstable();
        leads.dedup();
        assert_eq!(leads.len(), 1);
    }

    #[test]
    fn reconfig_costs_discourage_tiny_gains() {
        let w = fixture();
        let e = est(&w);
        let free = run(&e, &Options::new(u64::MAX / 2));
        let costly = run(
            &e,
            &Options {
                reconfig: ReconfigCosts {
                    current: Selection::empty(),
                    create_cost_per_byte: 1e12,
                    drop_cost: 0.0,
                },
                ..Options::new(u64::MAX / 2)
            },
        );
        assert!(!free.selection.is_empty());
        assert!(costly.selection.is_empty(), "prohibitive build costs must stop construction");
    }

    #[test]
    fn pair_steps_can_only_help() {
        let w = fixture();
        let e = est(&w);
        let plain = run(&e, &Options::new(u64::MAX / 2));
        let pairs = run(&e, &Options { pair_steps: true, ..Options::new(u64::MAX / 2) });
        assert!(pairs.final_cost <= plain.final_cost + 1e-9);
    }

    #[test]
    fn what_if_calls_stay_near_two_q_qbar() {
        // Section III-A: ≈ 2·Q·q̄ what-if calls (cached repeats excluded).
        let w = isel_workload::synthetic::generate(&isel_workload::SyntheticConfig {
            tables: 2,
            attrs_per_table: 20,
            queries_per_table: 30,
            rows_base: 100_000,
            max_query_width: 6,
            update_fraction: 0.0,
            seed: 5,
        });
        let e = est(&w);
        let budget = crate::budget::relative_budget(&e, 0.2);
        let _ = run(&e, &Options::new(budget));
        let stats = e.stats();
        let q_qbar: f64 = w.iter().map(|(_, q)| q.width() as f64).sum();
        // Issued calls bounded by a small multiple of Q·q̄ (unindexed costs
        // + first-step singles + extension probes).
        assert!(
            (stats.calls_issued as f64) < 6.0 * q_qbar + w.query_count() as f64,
            "calls_issued={} Q·q̄={q_qbar}",
            stats.calls_issued
        );
    }
}
