//! The group host: one shard's tuning groups and everything that ever
//! happens to them.
//!
//! The **unit of tuning state is the group** — one [`EpochWindow`], one
//! [`Tuner`], one [`GroupFeedback`]. Under `--shards N` (N ≥ 1) a group
//! is a table: it seals epochs on its own valid-event count and budgets
//! with the table-separable split of Eq. (10). Under `shards == 0` the
//! whole workload is *one* group under part key 0 with the whole-schema
//! budget (DESIGN.md §12). Either way a [`GroupHost`] holds the groups
//! of one shard with the shard's lifetime counters and does the only
//! four things that happen to a group: a query folds into its window
//! and, when that seals an epoch, the group is tuned and its frontier
//! handed back for publication if re-selection changed it; an
//! observed-cost probe feeds its tracker; a barrier captures it into a
//! [`ShardCheckpoint`]; a document restores it.
//!
//! A checkpoint pays only for what changed. Each group keeps the JSON
//! its last capture rendered, with the byte range of its `"current"`
//! value, and every record folded into it marks how much of that went
//! stale ([`Stale`]). At a barrier a clean group splices its rendering
//! into the shard document verbatim; a group that only took query
//! events since — nothing sealed, nothing probed — re-renders just its
//! partial epoch in place; any other group is re-captured and
//! re-rendered whole. The document is byte-identical to a full
//! capture's, whatever the group's history or shard placement.
//!
//! Where a host runs — a shard thread behind a queue
//! ([`crate::router`]) or a worker process behind a pipe
//! ([`crate::process`]) — decides only how its [`Sealed`] epochs,
//! checkpoint documents and [`ShardCounters`] travel. Both hand it the
//! same thing, a [`Routed`] record, through the one door
//! [`GroupHost::fold`], and both checkpoint it through
//! [`GroupHost::checkpoint`].

use crate::arbiter::PublishedFrontier;
use crate::checkpoint::{
    atomic_write, save_batch, shard_file, GroupCheckpoint, ShardCheckpoint, CHECKPOINT_VERSION,
};
use crate::config::ServiceConfig;
use crate::event::{parse_line, InputLine};
use crate::feedback::{self, CalSnapshot, GroupFeedback};
use crate::records::DecodeDict;
use crate::stream::Routed;
use crate::tuner::{EpochOutcome, Tuner};
use crate::window::EpochWindow;
use isel_core::{Parallelism, Trace};
use isel_workload::{Schema, TableId};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What every group of one run tunes under.
pub(crate) struct Env<'a> {
    pub(crate) schema: &'a Schema,
    pub(crate) config: &'a ServiceConfig,
    par: Parallelism,
}

impl<'a> Env<'a> {
    pub(crate) fn new(schema: &'a Schema, config: &'a ServiceConfig) -> Self {
        let par = match config.threads {
            0 => Parallelism::available(),
            n => Parallelism::new(n),
        };
        Self { schema, config, par }
    }
}

/// How much of a group's last rendering the records folded into it
/// since have made stale, least first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Stale {
    /// Nothing: the rendering is the group's document.
    Clean,
    /// Only the `"current"` value: query events folded in without
    /// sealing an epoch.
    Current,
    /// Everything: an epoch sealed (and was tuned, perhaps rolled
    /// back), a probe fed the feedback state, or the group is fresh,
    /// restored or adopted and was never rendered.
    All,
}

/// One group's live tuning state.
pub(crate) struct GroupState {
    pub(crate) tuner: Tuner,
    pub(crate) window: EpochWindow,
    pub(crate) feedback: GroupFeedback,
    /// The group's document as last rendered.
    rendered: String,
    /// Where in `rendered` the `"current"` value sits.
    current: Range<usize>,
    stale: Stale,
}

impl GroupState {
    /// A group in this state, not rendered yet.
    fn new(tuner: Tuner, window: EpochWindow, feedback: GroupFeedback) -> Self {
        Self { tuner, window, feedback, rendered: String::new(), current: 0..0, stale: Stale::All }
    }

    /// Empty state for the group under `key`: table `key`'s group, or —
    /// whole-workload tuning — the one whole-schema group.
    fn fresh(env: &Env<'_>, key: u16) -> Self {
        let config = env.config.clone();
        Self::new(
            match config.group_scope(key) {
                None => Tuner::new(env.schema, config),
                Some(table) => Tuner::for_table(env.schema, config, table),
            },
            EpochWindow::new(
                env.schema.clone(),
                env.config.epoch_events,
                env.config.window_epochs,
                env.config.max_templates,
            ),
            GroupFeedback::new(env.config),
        )
    }

    /// Restore a group — tuning state and feedback state — from a
    /// checkpoint document.
    fn from_checkpoint(
        gc: &GroupCheckpoint,
        schema: &Schema,
        config: &ServiceConfig,
    ) -> Result<Self, String> {
        let (tuner, window) = gc.restore(schema, config)?;
        let feedback = match &gc.feedback {
            Some(saved) => GroupFeedback::load(saved, config)?,
            None => GroupFeedback::new(config),
        };
        Ok(Self::new(tuner, window, feedback))
    }

    /// Capture the group (compacting its pool, which is why this takes
    /// `&mut self`).
    fn capture(&mut self, config: &ServiceConfig) -> GroupCheckpoint {
        GroupCheckpoint::capture(&mut self.tuner, &mut self.window)
            .with_feedback(config.calibration.enabled.then(|| self.feedback.save()))
    }

    /// The group's document, brought up to date by as much rendering
    /// as its staleness asks for.
    fn rendering(&mut self, config: &ServiceConfig) -> &str {
        match self.stale {
            Stale::Clean => {}
            // Only the window's partial epoch changed: the pool, whose
            // compaction is canonical, interned nothing since.
            Stale::Current => {
                self.window.materialise();
                let mut json = String::new();
                save_batch(&self.window.current).write_json(&mut json);
                self.rendered.replace_range(self.current.clone(), &json);
                self.current.end = self.current.start + json.len();
            }
            // Every value before `"current"` is numeric, so its key's
            // first occurrence is the key, and the value is numeric too.
            Stale::All => {
                self.rendered.clear();
                self.capture(config).write_json(&mut self.rendered);
                let key = r#""current":"#;
                let start = self.rendered.find(key).expect("a group has a current epoch");
                let start = start + key.len();
                let len = self.rendered[start..].find(r#","published":"#);
                self.current = start..start + len.expect("the frontier follows the epoch");
            }
        }
        self.stale = Stale::Clean;
        debug_assert_eq!(
            self.rendered[self.current.clone()],
            serde_json::to_string(&save_batch(&self.window.current)).expect("batches render"),
            "the recorded range holds the current epoch"
        );
        &self.rendered
    }
}

/// One sealed and tuned epoch, for the placement to deliver: the
/// outcome, then — only when re-selection actually changed the group's
/// frontier; no-op epochs leave the arbiter's merge untouched — the
/// frontier to publish under the group's key.
pub(crate) struct Sealed {
    pub(crate) outcome: EpochOutcome,
    pub(crate) publish: Option<(u16, Arc<PublishedFrontier>)>,
}

/// One shard's absolute lifetime counters: what every placement reports
/// for the shard it hosts, whichever thread or process that is. Posting
/// the whole value, never a delta, is what lets a report be replaced —
/// by a later one, or by a failed-over shard's adopter — without
/// counting anything twice.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCounters {
    /// Valid query events ingested.
    pub ingested: u64,
    /// Invalid records counted.
    pub invalid: u64,
    /// Events dropped under overload (carried from a checkpoint; the
    /// router's live drops are counted by its queues).
    pub dropped: u64,
    /// Calibration counters summed over the shard's groups.
    pub cal: CalSnapshot,
}

impl ShardCounters {
    /// Element-wise sum, for aggregating shards.
    pub(crate) fn add(&mut self, other: &ShardCounters) {
        self.ingested += other.ingested;
        self.invalid += other.invalid;
        self.dropped += other.dropped;
        self.cal.add(&other.cal);
    }
}

/// A shard's groups by key, as a table: entry `k` holds group `k`.
/// Finding an event's group is an index, and iteration runs in
/// ascending key order like a `BTreeMap`'s, so documents and reports do
/// not depend on the container. An absent group costs one pointer —
/// an ERP shard spans keys 0..500 and may host a handful.
#[derive(Default)]
pub(crate) struct GroupTable {
    entries: Vec<Option<Box<GroupState>>>,
}

impl GroupTable {
    /// Entry `key`, grown into the table if past its end.
    #[inline]
    fn entry(&mut self, key: u16) -> &mut Option<Box<GroupState>> {
        let k = usize::from(key);
        if k >= self.entries.len() {
            self.entries.resize_with(k + 1, || None);
        }
        &mut self.entries[k]
    }

    /// Host `group` under `key`, handing back a group already there.
    pub(crate) fn insert(&mut self, key: u16, group: GroupState) -> Option<GroupState> {
        self.entry(key).replace(Box::new(group)).map(|old| *old)
    }

    /// Hosted groups in ascending key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u16, &GroupState)> {
        (0u16..).zip(&self.entries).filter_map(|(key, g)| Some((key, g.as_deref()?)))
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &GroupState> {
        self.iter().map(|(_, g)| g)
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut GroupState> {
        self.entries.iter_mut().filter_map(|g| g.as_deref_mut())
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// The hosted groups, taken out in ascending key order.
    pub(crate) fn into_entries(self) -> impl Iterator<Item = (u16, GroupState)> {
        (0u16..).zip(self.entries).filter_map(|(key, g)| Some((key, *g?)))
    }
}

/// The groups one shard hosts plus the shard's absolute lifetime
/// counters (checkpoint-exact: they restore from and serialize into
/// every [`ShardCheckpoint`]).
#[derive(Default)]
pub(crate) struct GroupHost {
    pub(crate) groups: GroupTable,
    pub(crate) ingested: u64,
    pub(crate) invalid: u64,
    pub(crate) dropped: u64,
}

impl GroupHost {
    /// Restore a host from a shard checkpoint document.
    pub(crate) fn adopt(
        cp: &ShardCheckpoint,
        schema: &Schema,
        config: &ServiceConfig,
    ) -> Result<Self, String> {
        let mut host = Self {
            groups: GroupTable::default(),
            ingested: cp.ingested,
            invalid: cp.invalid,
            dropped: cp.dropped,
        };
        for gc in &cp.groups {
            host.groups.insert(gc.table, GroupState::from_checkpoint(gc, schema, config)?);
        }
        Ok(host)
    }

    fn group(&mut self, env: &Env<'_>, table: TableId) -> (u16, &mut GroupState) {
        let key = env.config.group_key(table);
        (key, self.groups.entry(key).get_or_insert_with(|| Box::new(GroupState::fresh(env, key))))
    }

    /// Act on one routed record, at its position in this shard's stream:
    /// a query — a template event resolved through `dict`, or a text
    /// line parsed here — folds into its group's window and, when that
    /// seals an epoch, the group is tuned; an observed-cost probe feeds
    /// its group's ratio tracker (and never counts as ingested);
    /// anything else — unparseable, schema-invalid, an undefined
    /// template, frequency 0 — counts invalid. A line carrying both a
    /// top-level `"table"` and `"control"` key routes as a table line but
    /// parses as a control; the ingest loop never saw the command, so it is
    /// dropped rather than half-applied.
    #[inline]
    pub(crate) fn fold(
        &mut self,
        env: &Env<'_>,
        dict: &mut DecodeDict,
        item: Routed,
        trace: Trace<'_>,
    ) -> Option<Sealed> {
        match item {
            Routed::Event { template, frequency } => match dict.resolve_slot(template, frequency) {
                Some((slot, base)) => {
                    return self
                        .ingest(env, base.table(), trace, |w| w.count(slot, base, frequency))
                }
                None => self.invalid += 1,
            },
            Routed::Line(line) => match parse_line(&line, env.schema) {
                Ok(InputLine::Query(q)) => {
                    return self.ingest(env, q.table(), trace, |w| w.push(&q))
                }
                Ok(InputLine::Observed(o)) => {
                    let (_, group) = self.group(env, o.query.table());
                    group.stale = Stale::All;
                    group.feedback.observe(env.config, &o, trace);
                }
                Ok(InputLine::Control(_)) => {}
                Err(_) => self.invalid += 1,
            },
            Routed::Invalid => self.invalid += 1,
        }
        None
    }

    /// Fold one valid query event on `table` into its group's window
    /// with `fold`; when that seals an epoch, tune it.
    #[inline]
    fn ingest(
        &mut self,
        env: &Env<'_>,
        table: TableId,
        trace: Trace<'_>,
        fold: impl FnOnce(&mut EpochWindow) -> bool,
    ) -> Option<Sealed> {
        self.ingested += 1;
        let (key, group) = self.group(env, table);
        if !fold(&mut group.window) {
            group.stale = group.stale.max(Stale::Current);
            return None;
        }
        group.stale = Stale::All;
        let snap = group.window.snapshot().expect("snapshot exists after an epoch seals");
        let outcome = feedback::tune_group(
            &mut group.tuner,
            &mut group.window,
            &mut group.feedback,
            &snap,
            env.schema,
            env.config,
            env.par,
            trace,
        );
        let publish = match group.tuner.take_published_dirty() {
            true => group.tuner.published().map(|pf| (key, Arc::clone(pf))),
            false => None,
        };
        Some(Sealed { outcome, publish })
    }

    /// Write this shard's checkpoint document for barrier `generation`
    /// next to the manifest at `manifest`, rendering it into the reused
    /// buffer `doc`; returns the file written.
    pub(crate) fn checkpoint(
        &mut self,
        config: &ServiceConfig,
        manifest: &Path,
        shard: u32,
        generation: u64,
        doc: &mut String,
    ) -> Result<PathBuf, String> {
        let header = self.document(config, shard, generation, Vec::new());
        header.write_spliced(self.groups.values_mut().map(|g| g.rendering(config)), doc);
        let file = shard_file(manifest, shard, generation);
        atomic_write(&file, doc.as_bytes(), None)?;
        Ok(file)
    }

    /// This shard's document around `groups`.
    fn document(
        &self,
        config: &ServiceConfig,
        shard: u32,
        generation: u64,
        groups: Vec<GroupCheckpoint>,
    ) -> ShardCheckpoint {
        ShardCheckpoint {
            version: CHECKPOINT_VERSION,
            config: config.clone(),
            shard,
            generation,
            ingested: self.ingested,
            invalid: self.invalid,
            dropped: self.dropped,
            groups,
        }
    }

    /// Capture every group afresh: the document [`Self::checkpoint`]
    /// must splice byte for byte.
    #[cfg(test)]
    fn capture(&mut self, config: &ServiceConfig, shard: u32, generation: u64) -> ShardCheckpoint {
        let groups = self.groups.values_mut().map(|g| g.capture(config)).collect();
        self.document(config, shard, generation, groups)
    }

    /// Take over `other`'s groups and add its counters — how a
    /// manifest's documents land on the hosts of the current map.
    ///
    /// # Errors
    ///
    /// A group present on both sides: two shard documents claim it.
    pub(crate) fn absorb(&mut self, other: GroupHost) -> Result<(), String> {
        self.ingested += other.ingested;
        self.invalid += other.invalid;
        self.dropped += other.dropped;
        for (key, group) in other.groups.into_entries() {
            if self.groups.insert(key, group).is_some() {
                return Err(format!("table t{key} appears in more than one shard checkpoint"));
            }
        }
        Ok(())
    }

    /// The frontier each group last published, by group key — what a
    /// restored host re-seats in the arbiter so queries are answerable
    /// (and the merged selection computable) before any group re-tunes.
    pub(crate) fn published(&self) -> impl Iterator<Item = (u16, &Arc<PublishedFrontier>)> {
        self.groups.iter().filter_map(|(key, g)| Some((key, g.tuner.published()?)))
    }

    /// Materialise every group's tallies and forget their slots: the
    /// dictionary that numbered them is done, and a host that outlives
    /// it counts under the next one's.
    pub(crate) fn forget_slots(&mut self) {
        for g in self.groups.values_mut() {
            g.window.forget_slots();
        }
    }

    /// The shard's counters as they stand.
    pub(crate) fn counters(&self) -> ShardCounters {
        ShardCounters {
            ingested: self.ingested,
            invalid: self.invalid,
            dropped: self.dropped,
            cal: self.calibration(),
        }
    }

    /// Calibration counters summed over the hosted groups.
    pub(crate) fn calibration(&self) -> CalSnapshot {
        let mut sum = CalSnapshot::default();
        for g in self.groups.values() {
            sum.add(&g.feedback.snapshot());
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::save_batch;
    use crate::records::Record;
    use crate::stream::{Decision, Stream, LINE_CAP};
    use crate::tuner::TunePolicy;
    use isel_workload::synthetic::{self, SyntheticConfig};
    use isel_workload::{Query, QueryKind, Workload};
    use std::collections::{BTreeMap, BTreeSet};

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

    /// Per-table groups with calibration on, so probes move feedback
    /// state and the deployment gate runs.
    fn calibrated() -> ServiceConfig {
        let mut config = ServiceConfig {
            epoch_events: 8,
            window_epochs: 2,
            max_templates: 64,
            shards: 1,
            ..ServiceConfig::default()
        };
        config.calibration.enabled = true;
        config.calibration.min_probes = 1;
        config
    }

    /// The lines between barriers `generation - 1` and `generation`: a
    /// burst on one table, so the other groups stay clean, with an
    /// observed-cost probe after every third event; every fifth burst
    /// is probes alone.
    fn burst(w: &Workload, generation: usize) -> Vec<(u16, String)> {
        let table = (generation * 7 % 3) as u16;
        let qs: Vec<&Query> = w.queries().iter().filter(|q| q.table().0 == table).collect();
        let mut lines = Vec::new();
        for i in 0..5 + generation % 7 {
            let q = qs[(generation * 7 + i * 3) % qs.len()];
            let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
            let attrs = attrs.join(",");
            if !generation.is_multiple_of(5) {
                let kind = if q.is_update() { r#","kind":"Update""# } else { "" };
                lines.push((table, format!("{{\"table\":{table},\"attrs\":[{attrs}]{kind}}}")));
            }
            if i % 3 == 2 || generation.is_multiple_of(5) {
                let cost = (generation + i) as f64 * 1.5 + 1.0;
                lines.push((
                    table,
                    format!("{{\"table\":{table},\"attrs\":[{attrs}],\"observed_cost\":{cost}}}"),
                ));
            }
        }
        lines
    }

    /// `host` and its twin hosting the same groups, checkpointed alike.
    struct Pair {
        host: GroupHost,
        twin: GroupHost,
    }

    /// Spliced checkpoints: at every barrier the document a host writes
    /// equals a full capture of a twin that saw the same records —
    /// through adoption from a written document, and after the groups
    /// are re-packed onto two shards.
    #[test]
    fn spliced_documents_equal_full_captures() {
        let w = workload();
        let config = calibrated();
        let env = Env::new(w.schema(), &config);
        let mut dict = DecodeDict::new();
        let dir = std::env::temp_dir().join(format!("isel-splice-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("m.json");
        let mut doc = String::new();
        // Groups hosted but untouched since the previous barrier: the
        // ones a document splices.
        let mut clean = 0usize;

        let mut check = |pairs: &mut [Pair], generation: u64, touched: &BTreeSet<u16>| -> String {
            let mut last = String::new();
            for (shard, p) in pairs.iter_mut().enumerate() {
                let shard = shard as u32;
                clean += p.host.groups.iter().filter(|(k, _)| !touched.contains(k)).count();
                let file =
                    p.host.checkpoint(&config, &manifest, shard, generation, &mut doc).unwrap();
                let written = std::fs::read_to_string(&file).unwrap();
                let full = p.twin.capture(&config, shard, generation).to_json().unwrap();
                assert_eq!(written, full, "generation {generation}, shard {shard}");
                std::fs::remove_file(&file).unwrap();
                last = written;
            }
            last
        };
        let mut feed = |pairs: &mut [Pair], generation: usize| -> BTreeSet<u16> {
            let mut touched = BTreeSet::new();
            for (table, line) in burst(&w, generation) {
                let p = &mut pairs[table as usize % pairs.len()];
                for h in [&mut p.host, &mut p.twin] {
                    h.fold(&env, &mut dict, Routed::Line(line.clone()), Trace::disabled());
                }
                touched.insert(table);
            }
            touched
        };

        let mut one = [Pair { host: GroupHost::default(), twin: GroupHost::default() }];
        let mut written = String::new();
        for generation in 1..=12 {
            let touched = feed(&mut one, generation);
            written = check(&mut one, generation as u64, &touched);
        }

        // Adopted from the written document: the first barrier after
        // adoption has touched nothing.
        let cp = ShardCheckpoint::from_json(&written).unwrap();
        let adopt = || GroupHost::adopt(&cp, w.schema(), &config).unwrap();
        let mut one = [Pair { host: adopt(), twin: adopt() }];
        check(&mut one, 13, &BTreeSet::new());
        for generation in 14..=20 {
            let touched = feed(&mut one, generation);
            check(&mut one, generation as u64, &touched);
        }

        // Re-packed onto two shards by table parity, counters on shard 0
        // — the way a run deals a restored state out.
        let [Pair { host, twin }] = one;
        let mut two = [
            Pair { host: GroupHost::default(), twin: GroupHost::default() },
            Pair { host: GroupHost::default(), twin: GroupHost::default() },
        ];
        for (from, side) in [(host, 0), (twin, 1)] {
            let [a, b] = &mut two;
            let (first, second) = match side {
                0 => (&mut a.host, &mut b.host),
                _ => (&mut a.twin, &mut b.twin),
            };
            (first.ingested, first.invalid, first.dropped) =
                (from.ingested, from.invalid, from.dropped);
            for (key, group) in from.groups.into_entries() {
                let to = if key % 2 == 0 { &mut *first } else { &mut *second };
                to.groups.insert(key, group);
            }
        }
        check(&mut two, 21, &BTreeSet::new());
        for generation in 22..=32 {
            let touched = feed(&mut two, generation);
            check(&mut two, generation as u64, &touched);
        }
        assert!(clean >= 30, "only {clean} clean group documents: the log must leave groups idle");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every staleness level renders what a full capture does, and each
    /// kind of record marks the level it must. The stream is the CLI
    /// calibration tests' contradiction stream cut at barriers: a hot
    /// template `A` sealed twice, a shift to `B` that opens a deployment
    /// candidate, probes claiming `A` costs far more than estimated, and
    /// the shift again, whose seal rolls the group back. The host is
    /// then adopted from its last document and takes events alone.
    #[test]
    fn every_staleness_level_renders_like_a_full_capture() {
        let w = synthetic::generate(&SyntheticConfig {
            tables: 1,
            attrs_per_table: 8,
            queries_per_table: 8,
            rows_base: 50_000,
            seed: 9,
            ..SyntheticConfig::default()
        });
        let mut config = ServiceConfig { budget_share: 0.14, window_epochs: 1, ..calibrated() };
        config.calibration.envelope_ratio = 1.0;
        config.calibration.min_probes = 2;
        let env = Env::new(w.schema(), &config);
        let dir = std::env::temp_dir().join(format!("isel-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("m.json");
        let a = r#"{"table":0,"attrs":[0,1],"frequency":10}"#;
        let a6 = r#"{"table":0,"attrs":[0,1],"frequency":6}"#;
        let b = r#"{"table":0,"attrs":[2,3],"frequency":20}"#;
        let probe = r#"{"table":0,"attrs":[0,1],"observed_cost":500000000}"#;
        // Each step: what it is, its lines, the level they leave.
        let steps: [(&str, Vec<&str>, Stale); 12] = [
            ("a fresh group's events", vec![a; 3], Stale::All),
            ("events only", vec![a; 4], Stale::Current),
            ("nothing", vec![], Stale::Clean),
            ("the first seal", vec![a], Stale::All),
            ("a no-op seal", vec![a; 8], Stale::All),
            ("events only", vec![b; 7], Stale::Current),
            ("an adapting seal", vec![a6], Stale::All),
            ("probes only", vec![probe; 4], Stale::All),
            ("events only", vec![b; 3], Stale::Current),
            ("a gate rollback", [vec![b; 4], vec![a6]].concat(), Stale::All),
            ("an adopted group's events", vec![a; 2], Stale::All),
            ("events only", vec![a; 2], Stale::Current),
        ];
        let (mut host, mut twin) = (GroupHost::default(), GroupHost::default());
        let mut dict = DecodeDict::new();
        let mut doc = String::new();
        let mut levels = [0usize; 3];
        let (mut noops, mut adapts, mut rollbacks) = (0, 0, 0);
        let mut written = String::new();
        for (generation, (what, lines, level)) in (1u64..).zip(steps) {
            if what.starts_with("an adopted") {
                let cp = ShardCheckpoint::from_json(&written).unwrap();
                host = GroupHost::adopt(&cp, w.schema(), &config).unwrap();
                twin = GroupHost::adopt(&cp, w.schema(), &config).unwrap();
            }
            for line in lines {
                let line = || Routed::Line(line.to_owned());
                twin.fold(&env, &mut dict, line(), Trace::disabled());
                let Some(sealed) = host.fold(&env, &mut dict, line(), Trace::disabled()) else {
                    continue;
                };
                match (sealed.outcome.deploy, sealed.outcome.policy) {
                    (Some(d), _) if d.action == "rollback" => rollbacks += 1,
                    (_, TunePolicy::NoOp) => noops += 1,
                    _ => adapts += 1,
                }
            }
            let group = host.groups.values().next().expect("the one group");
            assert_eq!(group.stale, level, "{what}: the level it leaves");
            levels[level as usize] += 1;
            let file = host.checkpoint(&config, &manifest, 0, generation, &mut doc).unwrap();
            written = std::fs::read_to_string(&file).unwrap();
            let full = twin.capture(&config, 0, generation).to_json().unwrap();
            assert_eq!(written, full, "{what}, generation {generation}");
            std::fs::remove_file(&file).unwrap();
        }
        assert!(noops > 0 && adapts > 0 && rollbacks == 1, "{noops} {adapts} {rollbacks}");
        assert!(levels.iter().all(|&n| n > 0), "levels clean/current/all: {levels:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every shape of text line the router's line table must tell apart,
    /// in a fixed shuffled order, with more distinct repeated valid lines
    /// than [`LINE_CAP`] in the middle so the table fills mid-stream.
    fn memo_corpus(w: &Workload) -> Vec<String> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(28);
        let shapes: Vec<(u16, String, &str)> = w
            .queries()
            .iter()
            .map(|q| {
                let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
                let kind = if q.is_update() { r#","kind":"Update""# } else { "" };
                (q.table().0, attrs.join(","), kind)
            })
            .collect();
        let line = |rng: &mut StdRng| -> String {
            let (t, attrs, kind) = &shapes[rng.gen_range(0..shapes.len())];
            match rng.gen_range(0..16) {
                0..=5 => format!(r#"{{"table":{t},"attrs":[{attrs}]{kind}}}"#),
                6 => format!(r#"{{"table":{t},"attrs":[{attrs}],"frequency":3{kind}}}"#),
                7 => format!(r#"{{"table":{t},"attrs":[{attrs}],"frequency":40{kind}}}"#),
                8 => format!(r#"{{"attrs":[{attrs}]{kind},"table":{t}}}"#),
                9 => format!(r#"{{"table": {t}, "attrs": [{}]{kind}}}"#, attrs.replace(',', ", ")),
                10 => format!(r#"{{"table":{t},"attrs":[{attrs}],"observed_cost":{}.5}}"#, t + 2),
                11 => format!(r#"{{"table":{t},"attrs":[{attrs}],"control":"checkpoint"}}"#),
                12 => format!(r#"{{"table":{t},"attrs":[{attrs}],"frequency":0}}"#),
                13 => format!(r#"{{"table":{},"attrs":[{attrs}]}}"#, (t + 1) % 3),
                14 => format!(r#"{{"table":7,"attrs":[{attrs}]}}"#),
                _ => format!(r#"{{"table":{t},"attrs":[{attrs}"#),
            }
        };
        let mut corpus: Vec<String> = (0..2_000).map(|_| line(&mut rng)).collect();
        // Each twice in a row, so the table remembers it.
        for n in 1..=LINE_CAP as u64 + 600 {
            let (t, attrs, kind) = &shapes[n as usize % shapes.len()];
            let distinct = format!(r#"{{"table":{t},"attrs":[{attrs}],"frequency":{n}{kind}}}"#);
            corpus.push(distinct.clone());
            corpus.push(distinct);
            if n % 3 == 0 {
                corpus.push(line(&mut rng));
            }
        }
        corpus.extend((0..2_000).map(|_| line(&mut rng)));
        corpus
    }

    /// Fold `line` into `host` as the ingest loop hands it over: through
    /// `stream`'s line table, a line that became a template defined in
    /// `dict` (and counted in `defines`) and folded as its event.
    fn fold_at_edge(
        stream: &mut Stream,
        dict: &mut DecodeDict,
        defines: &mut usize,
        host: &mut GroupHost,
        env: &Env<'_>,
        line: &str,
    ) -> Option<Sealed> {
        let item = match stream.decide(Record::Line(line.to_owned()), env.schema) {
            Decision::Define { id, table, kind, attrs, event } => {
                dict.define_at(env.schema, id, table, kind, attrs);
                *defines += 1;
                let frequency = event.expect("a line's define carries its first event");
                Routed::Event { template: id as u64, frequency }
            }
            Decision::Route { item, .. } => item,
            _ => unreachable!("every corpus line has a table key"),
        };
        host.fold(env, dict, item, Trace::disabled())
    }

    /// The line table is invisible: a host fed through the router's line
    /// table — repeated lines as template events — and a twin that parses
    /// every line count the same, seal and publish the same epochs, and
    /// capture the same documents at every barrier.
    #[test]
    fn remembered_lines_fold_like_fresh_parses() {
        let w = workload();
        let config = ServiceConfig { epoch_events: 64, ..calibrated() };
        let env = Env::new(w.schema(), &config);
        let corpus = memo_corpus(&w);
        let (mut host, mut twin) = (GroupHost::default(), GroupHost::default());
        let mut stream = Stream::new(&config);
        let mut dict = DecodeDict::for_groups(&config);
        let render = |sealed: Option<Sealed>| {
            sealed.map(|s| {
                let publish = s.publish.map(|(key, pf)| (key, (*pf).clone()));
                (serde_json::to_string(&s.outcome).unwrap(), publish)
            })
        };
        let (mut sealed, mut defines) = (0usize, 0usize);
        for (i, line) in corpus.iter().enumerate() {
            let a = fold_at_edge(&mut stream, &mut dict, &mut defines, &mut host, &env, line);
            let b = twin.fold(&env, &mut dict, Routed::Line(line.clone()), Trace::disabled());
            let (a, b) = (render(a), render(b));
            assert_eq!(a, b, "record {i}: {line}");
            sealed += usize::from(a.is_some());
            assert_eq!(host.counters(), twin.counters(), "record {i}: {line}");
            if i % 512 == 511 {
                let generation = (i / 512) as u64;
                let doc = |h: &mut GroupHost| h.capture(&config, 0, generation).to_json().unwrap();
                assert_eq!(doc(&mut host), doc(&mut twin), "barrier after record {i}");
            }
        }
        let c = host.counters();
        assert!(c.invalid >= 1_000 && c.ingested >= 10_000, "{c:?}");
        assert!(c.cal.probes + c.cal.rejected >= 100, "{c:?}");
        assert!(sealed >= 60, "only {sealed} epochs sealed");
        // The table fills: fewer than 500 of its lines are not queries.
        assert!(defines > LINE_CAP - 500 && defines < LINE_CAP, "{defines} lines became templates");
    }

    /// One record of a fold-equivalence stream.
    #[derive(Clone, Debug)]
    enum Step {
        Event {
            template: u64,
            frequency: u64,
        },
        Line(String),
        /// A barrier, most often in the middle of an epoch.
        Capture,
    }

    /// A template as its define carries it.
    type Shape = (u16, QueryKind, Vec<u32>);

    /// The defines and records of a seeded stream over `w`'s templates.
    /// Every template is defined, the first a second time under another
    /// id, plus one with an attribute of another table (defined but
    /// invalid); events also name ids past the last define (undefined).
    /// Frequencies are mostly 1, some small, some 0 (invalid) and some
    /// within 3 of `u64::MAX / 2`, so sums saturate. Lines spell the same
    /// shapes.
    fn fold_stream(w: &Workload, seed: u64) -> (Vec<Shape>, Vec<Step>) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut shapes: Vec<Shape> = w
            .queries()
            .iter()
            .map(|q| (q.table().0, q.kind(), q.attrs().iter().map(|a| a.0).collect()))
            .collect();
        shapes.push(shapes[0].clone());
        shapes.push((0, QueryKind::Select, vec![0, 8]));
        let line = |(t, kind, attrs): &Shape, frequency: u64| {
            let attrs: Vec<String> = attrs.iter().map(u32::to_string).collect();
            let kind = if *kind == QueryKind::Update { r#","kind":"Update""# } else { "" };
            format!(
                r#"{{"table":{t},"attrs":[{}],"frequency":{frequency}{kind}}}"#,
                attrs.join(",")
            )
        };
        let frequency = |rng: &mut StdRng| match rng.gen_range(0..40) {
            0..=29 => 1,
            30..=35 => rng.gen_range(2..50),
            36 => 0,
            _ => u64::MAX / 2 - rng.gen_range(0..4u64),
        };
        let mut steps = Vec::new();
        while steps.len() < 3_000 {
            let step = match rng.gen_range(0..100) {
                0 => Step::Capture,
                1..=57 => Step::Event {
                    template: rng.gen_range(0..shapes.len() as u64 + 2),
                    frequency: frequency(&mut rng),
                },
                58..=59 => Step::Line(r#"{"table":1,"attrs":[9"#.to_owned()),
                _ => {
                    let shape = &shapes[rng.gen_range(0..shapes.len())];
                    Step::Line(line(shape, frequency(&mut rng)))
                }
            };
            steps.push(step);
        }
        (shapes, steps)
    }

    /// Feed `steps` to a host and, as a reference, every query they
    /// resolve to through [`EpochWindow::push`] into a window per group:
    /// the host seals the same epochs, with the same sealed masses and
    /// snapshots, holds the same mass, and renders every barrier's
    /// window and partial epoch as the reference saves them.
    fn assert_folds_like_pushes(w: &Workload, config: &ServiceConfig, seed: u64) {
        let env = Env::new(w.schema(), config);
        let (shapes, steps) = fold_stream(w, seed);
        let mut dict = DecodeDict::for_groups(config);
        for (id, (table, kind, attrs)) in shapes.into_iter().enumerate() {
            dict.define_at(w.schema(), id, table, kind, attrs);
        }
        let dir = std::env::temp_dir().join(format!("isel-fold-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("m.json");
        let mut host = GroupHost::default();
        let mut reference: BTreeMap<u16, EpochWindow> = BTreeMap::new();
        let (mut doc, mut generation, mut seals) = (String::new(), 0, 0);
        for (i, step) in steps.iter().enumerate() {
            let case = format!("seed {seed}, shards {}, record {i}: {step:?}", config.shards);
            let (routed, query) = match step {
                Step::Event { template, frequency } => (
                    Routed::Event { template: *template, frequency: *frequency },
                    dict.resolve(*template, *frequency).map(std::borrow::Cow::into_owned),
                ),
                Step::Line(line) => (
                    Routed::Line(line.clone()),
                    match crate::event::parse_line(line, w.schema()) {
                        Ok(InputLine::Query(q)) => Some(q),
                        _ => None,
                    },
                ),
                Step::Capture => {
                    generation += 1;
                    let file = host.checkpoint(config, &manifest, 0, generation, &mut doc).unwrap();
                    let cp = ShardCheckpoint::from_json(&std::fs::read_to_string(&file).unwrap())
                        .unwrap();
                    let keys: Vec<u16> = cp.groups.iter().map(|g| g.table).collect();
                    assert_eq!(keys, reference.keys().copied().collect::<Vec<_>>(), "{case}");
                    for (gc, window) in cp.groups.iter().zip(reference.values()) {
                        let saved: Vec<_> = window.window.iter().map(save_batch).collect();
                        assert_eq!(gc.window, saved, "{case}: group {}", gc.table);
                        assert_eq!(
                            gc.current,
                            save_batch(&window.current),
                            "{case}: group {}",
                            gc.table
                        );
                    }
                    std::fs::remove_file(&file).unwrap();
                    continue;
                }
            };
            let sealed = host.fold(&env, &mut dict, routed, Trace::disabled()).is_some();
            let Some(q) = query else {
                assert!(!sealed, "{case}: an invalid record sealed");
                continue;
            };
            let key = config.group_key(q.table());
            let window = reference.entry(key).or_insert_with(|| {
                EpochWindow::new(
                    w.schema().clone(),
                    config.epoch_events,
                    config.window_epochs,
                    config.max_templates,
                )
            });
            assert_eq!(sealed, window.push(&q), "{case}: whether the epoch sealed");
            let (_, group) = host.groups.iter().find(|&(k, _)| k == key).expect("folded into");
            assert_eq!(group.window.total_mass(), window.total_mass(), "{case}: total mass");
            if sealed {
                seals += 1;
                assert_eq!(group.window.sealed_masses(), window.sealed_masses(), "{case}");
                let queries = |w: &EpochWindow| w.snapshot().map(|s| s.queries().to_vec());
                assert_eq!(queries(&group.window), queries(window), "{case}: snapshot");
            }
        }
        assert!(generation >= 10 && seals >= 20, "{generation} barriers, {seals} seals");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Counting binary events by slot is invisible: per table and as
    /// one whole-workload group, over streams that mix events and lines,
    /// saturate, repeat a shape under two ids, name undefined ids and
    /// capture mid-epoch.
    #[test]
    fn counted_events_fold_like_keyed_pushes() {
        let w = workload();
        for (seed, shards) in [(1, 1), (2, 0), (3, 1), (4, 0)] {
            let config = ServiceConfig {
                epoch_events: 96,
                window_epochs: 3,
                max_templates: 64,
                shards,
                ..ServiceConfig::default()
            };
            assert_folds_like_pushes(&w, &config, seed);
        }
    }

    /// A group table over sparse keys of ERP's 500 tables iterates, and
    /// checkpoints, as a `BTreeMap` of the same groups does, however the
    /// groups arrived; absorbing a group twice still fails by name.
    #[test]
    fn a_sparse_group_table_reads_like_a_btree_map() {
        use isel_workload::erp::{self, ErpConfig};
        let w = erp::generate(&ErpConfig::default());
        let config = ServiceConfig { epoch_events: 4, shards: 1, ..ServiceConfig::default() };
        let env = Env::new(w.schema(), &config);
        let keys = [499u16, 0, 7];
        let mut dict = DecodeDict::new();
        let mut host = GroupHost::default();
        let mut twin: BTreeMap<u16, GroupState> = BTreeMap::new();
        for (n, &key) in keys.iter().enumerate() {
            let attr = w.schema().tables()[usize::from(key)].first_attr.0;
            let line = format!(r#"{{"table":{key},"attrs":[{attr}],"frequency":{}}}"#, n + 1);
            for _ in 0..=n {
                host.fold(&env, &mut dict, Routed::Line(line.clone()), Trace::disabled());
            }
            let mut alone = GroupHost::default();
            for _ in 0..=n {
                alone.fold(&env, &mut dict, Routed::Line(line.clone()), Trace::disabled());
            }
            let (k, group) = alone.groups.into_entries().next().unwrap();
            twin.insert(k, group);
        }
        let order: Vec<u16> = host.groups.iter().map(|(k, _)| k).collect();
        assert_eq!(order, twin.keys().copied().collect::<Vec<_>>());
        assert_eq!(order, [0, 7, 499]);
        assert_eq!(host.groups.len(), 3);

        let dir = std::env::temp_dir().join(format!("isel-sparse-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut doc = String::new();
        let file = host.checkpoint(&config, &dir.join("m.json"), 0, 1, &mut doc).unwrap();
        let written = std::fs::read_to_string(&file).unwrap();
        let groups = twin.values_mut().map(|g| g.capture(&config)).collect();
        let full = host.document(&config, 0, 1, groups).to_json().unwrap();
        assert_eq!(written, full);
        std::fs::remove_dir_all(&dir).ok();

        let mut again = GroupHost::default();
        let seven = twin.remove(&7).unwrap();
        again.groups.insert(7, seven);
        let err = host.absorb(again).err();
        assert_eq!(err.as_deref(), Some("table t7 appears in more than one shard checkpoint"));
    }
}
