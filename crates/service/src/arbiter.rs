//! Live multi-tenant frontier arbitration.
//!
//! The [`Arbiter`] turns the global-budget merge from a one-shot
//! shutdown computation into a maintained subsystem: every table group
//! *publishes* its tuned frontier (plus the construction steps needed to
//! materialize a selection at any allocation) whenever an epoch actually
//! re-selects, and the arbiter upserts the publication into an
//! incremental [`FrontierSet`]. Re-publishing an unchanged frontier is
//! skipped outright; a changed one only marks its leaf-to-root path
//! stale.
//!
//! **Merge on read.** A publication never merges. The first read of
//! maintained state — [`Arbiter::allocations`],
//! [`Arbiter::merged_selection`], the status line built from them, or
//! [`Arbiter::set_budget`] — settles every publication since the last
//! merge with one [`FrontierSet::merge`], re-merging only the `O(log n)`
//! DP nodes on the dirty paths — bit-identical to a full
//! [`isel_core::merge_frontiers_weighted`] over the current parts. So k
//! groups re-selecting between two reads cost one merge, not k, and a
//! run that reads only at its end merges once. Each merge emits one
//! [`TraceEvent::Merge`] into the trace of the read that settled it,
//! with `dirty` = the groups published since the previous merge.
//!
//! Interactive questions are answered **without re-running selection**
//! and without settling anything:
//!
//! * `{"control":"whatif","budget":B}` — the per-group allocation split
//!   at a hypothetical global budget `B`,
//! * `{"control":"tenant","table_group":T,"budget":B}` — one group's
//!   allocation and resulting cost at `B`,
//! * `{"control":"budget","budget":B}` — the mutating form: re-anchor
//!   the *maintained* merge at `B` ([`FrontierSet::set_budget`]), so
//!   selections re-materialize live under the new budget.
//!
//! The first two are answered from the published frontiers via
//! [`FrontierSet::merge_at`], so their reply latency never includes a
//! settle; the canonical reply lines are rendered here so a served
//! socket reply and an offline replay (`isel budget`) produce
//! byte-identical output.
//!
//! Per-tenant weights ([`crate::config::ServiceConfig::tenant_weights`])
//! scale each group's cost axis in the merge, deterministically biasing
//! allocations toward high-priority tenants; unlisted groups weigh 1.

use crate::event::Control;
use crate::status::StatusBoard;
use isel_core::algorithm1::{selection_at, StepRecord};
use isel_core::trace::{Trace, TraceEvent};
use isel_core::{budget, Frontier, FrontierMerge, FrontierSet, Selection};
use isel_costmodel::AnalyticalWhatIf;
use isel_workload::{Schema, Workload};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One table group's frontier as published to the [`Arbiter`]: enough
/// precomputed state to materialize the group's selection at *any*
/// allocation without re-running Algorithm 1.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PublishedFrontier {
    /// Workload cost of the group's snapshot with no indexes.
    pub initial_cost: f64,
    /// The group's memory/cost frontier at its table budget.
    pub frontier: Frontier,
    /// Construction steps backing
    /// [`selection_at`].
    pub steps: Vec<StepRecord>,
    /// Zero-based tuning epoch the publication came from.
    pub epoch: u64,
}

struct ArbiterInner {
    set: FrontierSet,
    /// Latest publication per table group, keyed like `set`.
    parts: BTreeMap<u16, Arc<PublishedFrontier>>,
    /// Allocation per group at the maintained budget, as of the last
    /// merge.
    allocations: BTreeMap<u16, u64>,
    merges: u64,
}

impl ArbiterInner {
    /// Merge whatever was published since the last merge; a no-op when
    /// nothing was.
    fn settle(&mut self, trace: Trace<'_>) {
        if self.set.dirty_len() > 0 {
            self.merge(trace);
        }
    }

    /// One [`FrontierSet::merge`]: refresh the allocations and emit the
    /// merge's [`TraceEvent::Merge`] into `trace`.
    fn merge(&mut self, trace: Trace<'_>) -> FrontierMerge {
        let start = trace.is_enabled().then(Instant::now);
        let outcome = self.set.merge();
        let allocations: BTreeMap<u16, u64> = self
            .set
            .keys()
            .iter()
            .zip(&outcome.merge.allocations)
            .map(|(&k, &a)| (k as u16, a))
            .collect();
        let reallocated = allocations
            .iter()
            .filter(|(t, a)| self.allocations.get(t) != Some(a))
            .count() as u64
            + self.allocations.keys().filter(|t| !allocations.contains_key(t)).count() as u64;
        self.allocations = allocations;
        self.merges += 1;
        trace.emit(|| TraceEvent::Merge {
            parts: outcome.parts,
            dirty: outcome.dirty,
            recombined: outcome.recombined,
            budget: self.set.budget(),
            total_memory: outcome.merge.total_memory,
            total_cost: outcome.merge.total_cost,
            reallocated,
            micros: start.map_or(0, |t| t.elapsed().as_micros() as u64),
        });
        outcome.merge
    }
}

/// The shared frontier-arbitration engine: an incrementally maintained
/// [`FrontierSet`] over the latest publication of every table group,
/// merged on read, answering interactive queries from the published
/// frontiers.
pub struct Arbiter {
    weights: BTreeMap<u16, f64>,
    inner: Mutex<ArbiterInner>,
}

impl std::fmt::Debug for Arbiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.lock();
        f.debug_struct("Arbiter")
            .field("budget", &g.set.budget())
            .field("parts", &g.parts.len())
            .field("merges", &g.merges)
            .finish()
    }
}

impl Arbiter {
    /// Empty arbiter maintaining `budget` bytes with the given
    /// per-tenant weights (unlisted tenants weigh 1).
    pub fn new(budget: u64, weights: BTreeMap<u16, f64>) -> Self {
        Self {
            weights,
            inner: Mutex::new(ArbiterInner {
                set: FrontierSet::new(budget),
                parts: BTreeMap::new(),
                allocations: BTreeMap::new(),
                merges: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ArbiterInner> {
        self.inner.lock().expect("arbiter lock poisoned")
    }

    /// The lock, with every publication merged in.
    fn settled(&self, trace: Trace<'_>) -> std::sync::MutexGuard<'_, ArbiterInner> {
        let mut g = self.lock();
        g.settle(trace);
        g
    }

    /// The maintained global budget.
    pub fn budget(&self) -> u64 {
        self.lock().set.budget()
    }

    /// Table groups holding a publication.
    pub fn parts(&self) -> usize {
        self.lock().parts.len()
    }

    /// Upsert `table`'s publication; the next read of maintained state
    /// merges it. Returns whether anything changed: republishing a
    /// bit-identical frontier is a no-op (the clean-group skip).
    ///
    /// A publication emits no trace event — the read that settles it
    /// traces the merge — so `_trace` is unused; it stays in the
    /// signature for callers written against the eager merge.
    pub fn publish(&self, table: u16, pf: Arc<PublishedFrontier>, _trace: Trace<'_>) -> bool {
        let weight = self.weights.get(&table).copied().unwrap_or(1.0);
        let mut g = self.lock();
        // Compare before copying: a clean republish pays no clone.
        if g.set.is_current(u64::from(table), weight, pf.initial_cost, &pf.frontier) {
            return false;
        }
        g.set.upsert(u64::from(table), weight, pf.initial_cost, pf.frontier.clone());
        g.parts.insert(table, pf);
        true
    }

    /// Current per-group allocations at the maintained budget, sorted by
    /// table id. Settles pending publications into `trace`.
    pub fn allocations(&self, trace: Trace<'_>) -> Vec<(u16, u64)> {
        self.settled(trace).allocations.iter().map(|(&t, &a)| (t, a)).collect()
    }

    /// Latest publication of `table`, if any.
    pub fn published(&self, table: u16) -> Option<Arc<PublishedFrontier>> {
        self.lock().parts.get(&table).cloned()
    }

    /// Union of every group's selection materialized at its maintained
    /// allocation — no selection run. Settles pending publications into
    /// `trace`.
    pub fn merged_selection(&self, trace: Trace<'_>) -> Selection {
        let g = self.settled(trace);
        let mut union = Vec::new();
        for (t, pf) in &g.parts {
            let alloc = g.allocations.get(t).copied().unwrap_or(0);
            union.extend(selection_at(&pf.steps, alloc).indexes().iter().cloned());
        }
        Selection::from_indexes(union)
    }

    /// Answer a `whatif` query: the allocation split over the published
    /// frontiers at a hypothetical global `budget`, rendered as the
    /// canonical reply line. Never re-runs selection, never settles.
    pub fn whatif(&self, budget: u64) -> String {
        let g = self.lock();
        let merge = g.set.merge_at(budget);
        let allocations: Vec<(u16, u64)> = g
            .set
            .keys()
            .iter()
            .zip(&merge.allocations)
            .map(|(&k, &a)| (k as u16, a))
            .collect();
        render_whatif_line(budget, &merge, &allocations)
    }

    /// Answer a `tenant` query: `table`'s allocation and resulting cost
    /// at a hypothetical global `budget`, rendered as the canonical
    /// reply line. Never re-runs selection, never settles.
    pub fn tenant(&self, table: u16, budget: u64) -> String {
        let g = self.lock();
        let Some(pf) = g.parts.get(&table) else {
            return format!(
                "{{\"table_group\":{table},\"budget\":{budget},\"allocation\":0,\"cost\":null}}"
            );
        };
        let merge = g.set.merge_at(budget);
        let pos = g
            .set
            .keys()
            .iter()
            .position(|&k| k == u64::from(table))
            .expect("published part is in the set");
        let alloc = merge.allocations[pos];
        let cost = pf.frontier.cost_at(alloc).unwrap_or(pf.initial_cost);
        format!(
            "{{\"table_group\":{table},\"budget\":{budget},\"allocation\":{alloc},\"cost\":{}}}",
            render_f64(cost)
        )
    }

    /// Re-anchor the maintained merge at a new global `budget` (the
    /// mutating `{"control":"budget",...}` line): every published
    /// group's selection re-materializes under the new budget and all
    /// later answers, status allocations and `merged_selection` reads
    /// use it. Always one merge, traced into `trace`, which also settles
    /// pending publications. Returns the canonical reply line — the
    /// allocation split at the new budget, same shape as a `whatif`
    /// answer.
    pub fn set_budget(&self, budget: u64, trace: Trace<'_>) -> String {
        let mut g = self.lock();
        g.set.set_budget(budget);
        let merge = g.merge(trace);
        let allocations: Vec<(u16, u64)> = g.allocations.iter().map(|(&t, &a)| (t, a)).collect();
        render_whatif_line(budget, &merge, &allocations)
    }

    /// Answer an interactive control, or `None` for non-interactive
    /// controls. Only `budget` reads maintained state, settling into
    /// `trace`.
    pub fn answer(&self, control: Control, trace: Trace<'_>) -> Option<String> {
        match control {
            Control::Whatif { budget } => Some(self.whatif(budget)),
            Control::Tenant { table, budget } => Some(self.tenant(table, budget)),
            Control::Budget { budget } => Some(self.set_budget(budget, trace)),
            _ => None,
        }
    }

    /// What an in-band query answers once every event before it is in —
    /// the one rule both placements follow: `status` is the placement's
    /// status line, `calibration` the sum of what every shard posted,
    /// `tenant` is refused when the whole workload is one group
    /// (`--shards 0` has no per-tenant split), and the rest is
    /// [`Arbiter::answer`]. `None` for a control that asks nothing.
    pub(crate) fn answer_in_band(
        &self,
        control: Control,
        board: &StatusBoard,
        status: impl FnOnce() -> String,
        trace: Trace<'_>,
    ) -> Option<String> {
        match control {
            Control::Status => Some(status()),
            Control::Calibration => Some(board.totals().cal.render()),
            Control::Tenant { .. } if board.shards == 0 => {
                Some("{\"error\":\"tenant queries require --shards\"}".to_owned())
            }
            c => self.answer(c, trace),
        }
    }
}

/// Render an `f64` exactly as `serde_json` would (shortest round-trip
/// form), so socket replies and offline replay output are byte-equal.
fn render_f64(v: f64) -> String {
    serde_json::to_string(&v).expect("finite f64 renders")
}

/// The canonical `whatif` reply line over a computed merge.
pub fn render_whatif_line(budget: u64, merge: &FrontierMerge, allocations: &[(u16, u64)]) -> String {
    let allocs: Vec<String> = allocations.iter().map(|(t, a)| format!("[{t},{a}]")).collect();
    format!(
        "{{\"budget\":{budget},\"total_memory\":{},\"total_cost\":{},\"allocations\":[{}]}}",
        merge.total_memory,
        render_f64(merge.total_cost),
        allocs.join(",")
    )
}

/// The schema-derived global memory budget at `share` — Eq. (10) over
/// the full schema. Depends only on the schema (row counts and widths),
/// so every component computes the identical figure without consulting
/// any workload.
pub fn global_budget(schema: &Schema, share: f64) -> u64 {
    let empty = Workload::new(schema.clone(), Vec::new());
    budget::relative_budget(&AnalyticalWhatIf::new(&empty), share)
}

/// An interactive query traveling the shard queues as an in-band
/// barrier: the router pushes one clone into *every* queue, each worker
/// [`arrive`](PendingQuery::arrive)s after consuming everything queued
/// before it, and the last worker in answers from the [`Arbiter`] —
/// so the reply deterministically reflects exactly the events that
/// preceded the query in the input stream.
pub struct PendingQuery {
    control: Control,
    remaining: AtomicU32,
    reply: Mutex<Option<Sender<String>>>,
}

impl PendingQuery {
    /// A query awaiting `workers` arrivals. `reply` carries the answer
    /// back to the issuing connection; `None` prints it to stderr (the
    /// non-socket replay path).
    pub fn new(control: Control, workers: u32, reply: Option<Sender<String>>) -> Arc<Self> {
        Arc::new(Self {
            control,
            remaining: AtomicU32::new(workers),
            reply: Mutex::new(reply),
        })
    }

    /// The query being asked.
    pub fn control(&self) -> Control {
        self.control
    }

    /// One worker reached the query in its queue; returns whether it was
    /// the last one (and must answer).
    pub fn arrive(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Deliver the reply line to the issuer (or stderr without one).
    pub fn respond(&self, line: String) {
        respond(self.reply.lock().expect("reply lock poisoned").take(), line);
    }
}

/// Deliver a query's answer to the issuing connection, or to stderr
/// without one. A hung-up issuer is ignored — the service never dies on
/// a client.
pub(crate) fn respond(reply: Option<Sender<String>>, line: String) {
    match reply {
        Some(tx) => {
            let _ = tx.send(line);
        }
        None => eprintln!("{line}"),
    }
}

/// Reply routing for interactive queries arriving over the socket: the
/// connection handler registers a sender, stamps the line with the
/// returned `"token":N`, and the router routes the answer back through
/// [`take`](InteractiveRegistry::take).
#[derive(Default)]
pub struct InteractiveRegistry {
    next: AtomicU64,
    map: Mutex<HashMap<u64, Sender<String>>>,
}

impl InteractiveRegistry {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a reply channel; returns the token to stamp the line
    /// with.
    pub fn register(&self, tx: Sender<String>) -> u64 {
        let token = self.next.fetch_add(1, Ordering::Relaxed);
        self.map.lock().expect("registry lock poisoned").insert(token, tx);
        token
    }

    /// Claim the reply channel for `token`, if still registered.
    pub fn take(&self, token: u64) -> Option<Sender<String>> {
        self.map.lock().expect("registry lock poisoned").remove(&token)
    }

    /// Drop every registered reply channel, waking any connection still
    /// blocked on an answer that will never come (e.g. a query sent
    /// after the shutdown control was consumed).
    pub fn drain(&self) {
        self.map.lock().expect("registry lock poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_core::algorithm1::{self, Options};
    use isel_core::VecSink;
    use isel_costmodel::CachingWhatIf;
    use isel_workload::synthetic::{self, SyntheticConfig};
    use isel_workload::TableId;

    fn publication(w: &Workload, table: u16, budget_b: u64) -> Arc<PublishedFrontier> {
        let queries: Vec<_> = w
            .queries()
            .iter()
            .filter(|q| q.table() == TableId(table))
            .cloned()
            .collect();
        let scoped = Workload::new(w.schema().clone(), queries);
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&scoped));
        let run = algorithm1::run(&est, &Options::new(budget_b));
        Arc::new(PublishedFrontier {
            initial_cost: run.initial_cost,
            frontier: run.frontier,
            steps: run.steps,
            epoch: 0,
        })
    }

    fn workload() -> Workload {
        synthetic::generate(&SyntheticConfig {
            tables: 3,
            attrs_per_table: 6,
            queries_per_table: 8,
            rows_base: 30_000,
            max_query_width: 3,
            update_fraction: 0.0,
            seed: 5,
        })
    }

    fn merge_events(sink: &VecSink) -> Vec<TraceEvent> {
        sink.events().into_iter().filter(|e| matches!(e, TraceEvent::Merge { .. })).collect()
    }

    #[test]
    fn publish_maintains_allocations_and_skips_clean_republish() {
        let w = workload();
        let global = global_budget(w.schema(), 0.3);
        let arbiter = Arbiter::new(global, BTreeMap::new());
        let sink = VecSink::new();
        for t in 0..3u16 {
            let pf = publication(&w, t, global / 3);
            assert!(arbiter.publish(t, pf, Trace::to(&sink)));
        }
        assert!(merge_events(&sink).is_empty(), "publications merge on read");
        let allocs = arbiter.allocations(Trace::to(&sink));
        assert_eq!(merge_events(&sink).len(), 1, "one read settles all three publications");
        assert_eq!(allocs.len(), 3);
        assert!(allocs.iter().map(|&(_, a)| a).sum::<u64>() <= global);

        // A bit-identical republish is skipped: nothing to settle, no
        // merge, no trace event.
        let pf = publication(&w, 1, global / 3);
        assert!(!arbiter.publish(1, pf, Trace::to(&sink)));
        assert_eq!(arbiter.allocations(Trace::to(&sink)), allocs);
        assert_eq!(merge_events(&sink).len(), 1);
    }

    #[test]
    fn reads_merge_what_was_published_once() {
        let w = workload();
        let global = global_budget(w.schema(), 0.3);
        let arbiter = Arbiter::new(global, BTreeMap::new());
        let sink = VecSink::new();
        let parts: Vec<_> = (0..3u16).map(|t| publication(&w, t, global / 3)).collect();
        for (t, pf) in parts.iter().enumerate() {
            arbiter.publish(t as u16, Arc::clone(pf), Trace::to(&sink));
        }
        assert!(merge_events(&sink).is_empty(), "k publishes merge nothing");

        // Interactive answers read the published frontiers and settle
        // nothing, before a settle and after it.
        let asks = || (arbiter.whatif(global / 2), arbiter.tenant(1, global / 2));
        let unsettled = asks();
        assert!(merge_events(&sink).is_empty(), "whatif/tenant never settle");

        let allocs = arbiter.allocations(Trace::to(&sink));
        let events = merge_events(&sink);
        assert_eq!(events.len(), 1, "the first read settles with one merge");
        let TraceEvent::Merge { parts: n, dirty, budget, .. } = events[0] else { unreachable!() };
        assert_eq!((n, dirty, budget), (3, 3, global), "dirty counts every publication");

        assert_eq!(arbiter.allocations(Trace::to(&sink)), allocs);
        let _ = arbiter.merged_selection(Trace::to(&sink));
        assert_eq!(asks(), unsettled, "answers do not depend on when the merge ran");
        assert_eq!(merge_events(&sink).len(), 1, "later reads find nothing to settle");

        // One changed group: the next read re-merges that one path.
        let moved = Arc::new(PublishedFrontier {
            initial_cost: parts[2].initial_cost * 2.0,
            ..(*parts[2]).clone()
        });
        assert!(arbiter.publish(2, moved, Trace::to(&sink)));
        let _ = arbiter.merged_selection(Trace::to(&sink));
        let events = merge_events(&sink);
        assert_eq!(events.len(), 2);
        assert!(matches!(events[1], TraceEvent::Merge { dirty: 1, .. }), "{:?}", events[1]);
    }

    #[test]
    fn whatif_matches_offline_merge_and_runs_nothing() {
        let w = workload();
        let global = global_budget(w.schema(), 0.3);
        let arbiter = Arbiter::new(global, BTreeMap::new());
        let parts: Vec<Arc<PublishedFrontier>> =
            (0..3u16).map(|t| publication(&w, t, global / 3)).collect();
        for (t, pf) in parts.iter().enumerate() {
            arbiter.publish(t as u16, pf.clone(), Trace::disabled());
        }
        let probe = global / 2;
        let offline_parts: Vec<(f64, &Frontier)> =
            parts.iter().map(|p| (p.initial_cost, &p.frontier)).collect();
        let offline = isel_core::merge_frontiers(&offline_parts, probe);
        let allocations: Vec<(u16, u64)> = offline
            .allocations
            .iter()
            .enumerate()
            .map(|(t, &a)| (t as u16, a))
            .collect();
        assert_eq!(
            arbiter.answer(Control::Whatif { budget: probe }, Trace::disabled()).unwrap(),
            render_whatif_line(probe, &offline, &allocations)
        );
    }

    #[test]
    fn set_budget_re_anchors_the_maintained_merge() {
        let w = workload();
        let global = global_budget(w.schema(), 0.3);
        let arbiter = Arbiter::new(global, BTreeMap::new());
        for t in 0..3u16 {
            arbiter.publish(t, publication(&w, t, global / 3), Trace::disabled());
        }
        let before = arbiter.allocations(Trace::disabled());
        // Re-anchoring answers like a whatif at the new budget...
        let sink = VecSink::new();
        let reply =
            arbiter.answer(Control::Budget { budget: global / 2 }, Trace::to(&sink)).unwrap();
        assert_eq!(reply, {
            // ...and the whatif at the same figure agrees byte-for-byte.
            let fresh = Arbiter::new(global, BTreeMap::new());
            for t in 0..3u16 {
                fresh.publish(t, publication(&w, t, global / 3), Trace::disabled());
            }
            fresh.whatif(global / 2)
        });
        // ...but unlike a whatif it mutates: it merges, and budget and
        // allocations move.
        assert_eq!(merge_events(&sink).len(), 1);
        assert_eq!(arbiter.budget(), global / 2);
        let after = arbiter.allocations(Trace::disabled());
        assert!(after.iter().map(|&(_, a)| a).sum::<u64>() <= global / 2);
        assert_ne!(before, after, "halving the budget must move allocations");
        // Restoring the original budget restores the original split.
        arbiter.set_budget(global, Trace::disabled());
        assert_eq!(arbiter.allocations(Trace::disabled()), before);
    }

    #[test]
    fn tenant_reports_allocation_and_cost() {
        let w = workload();
        let global = global_budget(w.schema(), 0.3);
        let arbiter = Arbiter::new(global, BTreeMap::new());
        for t in 0..3u16 {
            arbiter.publish(t, publication(&w, t, global / 3), Trace::disabled());
        }
        let line = arbiter.tenant(1, global);
        assert!(line.starts_with("{\"table_group\":1,\"budget\":"), "{line}");
        assert!(line.contains("\"allocation\":"), "{line}");
        // An unpublished group answers with a null cost, not an error.
        assert!(arbiter.tenant(9, global).contains("\"cost\":null"));
    }

    #[test]
    fn weights_bias_allocations_toward_heavy_tenants() {
        let w = workload();
        let global = global_budget(w.schema(), 0.2);
        let flat = Arbiter::new(global, BTreeMap::new());
        let mut weights = BTreeMap::new();
        weights.insert(2u16, 1000.0);
        let biased = Arbiter::new(global, weights);
        for t in 0..3u16 {
            let pf = publication(&w, t, global / 3);
            flat.publish(t, pf.clone(), Trace::disabled());
            biased.publish(t, pf, Trace::disabled());
        }
        let fa = flat.allocations(Trace::disabled());
        let ba = biased.allocations(Trace::disabled());
        assert!(
            ba[2].1 >= fa[2].1,
            "a 1000x weight must not shrink t2's allocation ({} -> {})",
            fa[2].1,
            ba[2].1
        );
    }

    #[test]
    fn pending_query_barrier_and_reply_routing() {
        let pq = PendingQuery::new(Control::Whatif { budget: 7 }, 3, None);
        assert!(!pq.arrive());
        assert!(!pq.arrive());
        assert!(pq.arrive(), "third worker is last in");

        let (tx, rx) = std::sync::mpsc::channel();
        let pq = PendingQuery::new(Control::Status, 1, Some(tx));
        assert!(pq.arrive());
        pq.respond("hello".into());
        assert_eq!(rx.recv().unwrap(), "hello");

        let reg = InteractiveRegistry::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let token = reg.register(tx);
        assert!(reg.take(token + 1).is_none());
        reg.take(token).unwrap().send("routed".into()).unwrap();
        assert_eq!(rx.recv().unwrap(), "routed");
        assert!(reg.take(token).is_none(), "a token is claimed once");
    }
}
