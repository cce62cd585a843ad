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
//! Where a host runs — a shard thread behind a queue
//! ([`crate::router`]) or a worker process behind a pipe
//! ([`crate::process`]) — decides only how its [`Sealed`] epochs and
//! checkpoint documents travel. Both hand it the same things: text
//! lines ([`GroupHost::line`]) and binary events resolved through a
//! [`DecodeDict`] ([`GroupHost::event`]).

use crate::arbiter::PublishedFrontier;
use crate::checkpoint::{GroupCheckpoint, ShardCheckpoint, CHECKPOINT_VERSION};
use crate::config::ServiceConfig;
use crate::event::{parse_line, InputLine};
use crate::feedback::{self, CalCounters, CalSnapshot, GroupFeedback};
use crate::records::DecodeDict;
use crate::tuner::{EpochOutcome, Tuner};
use crate::window::EpochWindow;
use isel_core::{Parallelism, Trace};
use isel_workload::{Query, Schema, TableId};
use std::collections::BTreeMap;
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

/// One group's live tuning state.
pub(crate) struct GroupState {
    pub(crate) tuner: Tuner,
    pub(crate) window: EpochWindow,
    pub(crate) feedback: GroupFeedback,
}

impl GroupState {
    /// Empty state for the group under `key`: table `key`'s group, or —
    /// whole-workload tuning — the one whole-schema group.
    fn fresh(env: &Env<'_>, key: u16) -> Self {
        let config = env.config.clone();
        Self {
            tuner: match config.group_scope(key) {
                None => Tuner::new(env.schema, config),
                Some(table) => Tuner::for_table(env.schema, config, table),
            },
            window: EpochWindow::new(
                env.schema.clone(),
                env.config.epoch_events,
                env.config.window_epochs,
                env.config.max_templates,
            ),
            feedback: GroupFeedback::new(env.config),
        }
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
        Ok(Self { tuner, window, feedback })
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

/// The groups one shard hosts plus the shard's absolute lifetime
/// counters (checkpoint-exact: they restore from and serialize into
/// every [`ShardCheckpoint`]).
#[derive(Default)]
pub(crate) struct GroupHost {
    pub(crate) groups: BTreeMap<u16, GroupState>,
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
            groups: BTreeMap::new(),
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
        (key, self.groups.entry(key).or_insert_with(|| GroupState::fresh(env, key)))
    }

    /// Fold one valid query event into its group's window; when that
    /// seals an epoch, tune it. `cal` mirrors calibration counters onto
    /// a status board, where the placement has one.
    #[inline]
    pub(crate) fn ingest(
        &mut self,
        env: &Env<'_>,
        q: &Query,
        trace: Trace<'_>,
        cal: Option<&CalCounters>,
    ) -> Option<Sealed> {
        self.ingested += 1;
        let (key, group) = self.group(env, q.table());
        if !group.window.push(q) {
            return None;
        }
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
            cal,
        );
        let publish = match group.tuner.take_published_dirty() {
            true => group.tuner.published().map(|pf| (key, Arc::clone(pf))),
            false => None,
        };
        Some(Sealed { outcome, publish })
    }

    /// Fold one binary event: its template resolves through `dict` and
    /// is ingested, or — undefined here, schema-invalid, frequency 0 —
    /// counts invalid here, at its position in this shard's stream,
    /// exactly like an invalid text line.
    #[inline]
    pub(crate) fn event(
        &mut self,
        env: &Env<'_>,
        dict: &DecodeDict,
        template: u64,
        frequency: u64,
        trace: Trace<'_>,
        cal: Option<&CalCounters>,
    ) -> Option<Sealed> {
        match dict.resolve(template, frequency) {
            Some(q) => self.ingest(env, &q, trace, cal),
            None => {
                self.invalid += 1;
                None
            }
        }
    }

    /// Parse one routed text line and act on it: a query is ingested, an
    /// observed-cost probe feeds its group's ratio tracker (and never
    /// counts as an ingested event), anything unparseable counts
    /// invalid — here, at its position in this shard's stream. A line
    /// carrying both a top-level `"table"` and `"control"` key routes as
    /// a table line but parses as a control; the driver never saw the
    /// command, so it is dropped rather than half-applied.
    pub(crate) fn line(
        &mut self,
        env: &Env<'_>,
        line: &str,
        trace: Trace<'_>,
        cal: Option<&CalCounters>,
    ) -> Option<Sealed> {
        match parse_line(line, env.schema) {
            Ok(InputLine::Query(q)) => return self.ingest(env, &q, trace, cal),
            Ok(InputLine::Observed(o)) => {
                let (_, group) = self.group(env, o.query.table());
                group.feedback.observe(env.config, &o, cal, trace);
            }
            Ok(InputLine::Control(_)) => {}
            Err(_) => self.invalid += 1,
        }
        None
    }

    /// Capture every group at a checkpoint barrier (compacting each
    /// group's pool in place, which is why this takes `&mut self`).
    pub(crate) fn capture(
        &mut self,
        config: &ServiceConfig,
        shard: u32,
        generation: u64,
    ) -> ShardCheckpoint {
        ShardCheckpoint {
            version: CHECKPOINT_VERSION,
            config: config.clone(),
            shard,
            generation,
            ingested: self.ingested,
            invalid: self.invalid,
            dropped: self.dropped,
            groups: self
                .groups
                .values_mut()
                .map(|g| {
                    GroupCheckpoint::capture(&mut g.tuner, &g.window)
                        .with_feedback(config.calibration.enabled.then(|| g.feedback.save()))
                })
                .collect(),
        }
    }

    /// Take over `other`'s groups and add its counters — the shards of
    /// a run (or the documents of a manifest) back into one state.
    ///
    /// # Errors
    ///
    /// A group present on both sides: two shard documents claim it.
    pub(crate) fn absorb(&mut self, other: GroupHost) -> Result<(), String> {
        self.ingested += other.ingested;
        self.invalid += other.invalid;
        self.dropped += other.dropped;
        for (key, group) in other.groups {
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
        self.groups.iter().filter_map(|(&key, g)| Some((key, g.tuner.published()?)))
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
