//! Epoch-based sliding-window workload aggregation.
//!
//! Events are batched into *epochs* of `epoch_events` valid events. Each
//! epoch folds its events into a template map keyed by
//! `(table, kind, attrs)`, so within an epoch, aggregation is a
//! commutative sum and the sealed batch is **order-insensitive**: any
//! permutation of an epoch's events yields the same batch (pinned by a
//! property test).
//!
//! A sliding window keeps the last `window_epochs` sealed batches.
//! [`EpochWindow::snapshot`] merges the window, emits queries in
//! deterministic key order, and compresses to the `max_templates`
//! heaviest templates via `compress::top_k_by_weight` — producing the
//! [`Workload`] the tuner optimizes for. Eviction removes exactly the
//! oldest batch; no weight mass is ever lost inside the window
//! (also property-tested). Frequency sums saturate at `u64::MAX`
//! instead of wrapping, so events whose frequencies add past it pin
//! their template at the maximum weight rather than zeroing it.
//!
//! A binary event arrives with its template's *slot* — a small number
//! its [`crate::DecodeDict`] hands out, dense within the event's group —
//! and [`EpochWindow::count`] adds it to that slot's tally instead of
//! probing the epoch's map. One materialise step folds the tallies into
//! the keyed batch: before every seal, whichever of `push` and `count`
//! reaches it, before a capture or a rendering of the current epoch,
//! and before the window outlives the dictionary whose slots it
//! counted. Saturating sums do not depend on the order they are taken
//! in, so the keyed batch — sealed, snapshotted or saved — is the one
//! `push` alone would have built.

use isel_workload::compress;
use isel_workload::{AttrId, Query, QueryKind, Schema, TableId, Workload};
use std::collections::{BTreeMap, VecDeque};

/// Sort/merge key of a template: `QueryKind` carries no order, so it is
/// ranked explicitly (selects before updates).
pub(crate) type TemplateKey = (TableId, u8, Vec<AttrId>);

pub(crate) fn kind_rank(kind: QueryKind) -> u8 {
    match kind {
        QueryKind::Select => 0,
        QueryKind::Update => 1,
    }
}

pub(crate) fn rank_kind(rank: u8) -> Result<QueryKind, String> {
    match rank {
        0 => Ok(QueryKind::Select),
        1 => Ok(QueryKind::Update),
        other => Err(format!("unknown query-kind rank {other}")),
    }
}

/// One epoch's aggregated templates. A `BTreeMap` keeps iteration (and
/// therefore serialization) deterministic without an explicit sort.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct EpochBatch {
    pub(crate) templates: BTreeMap<TemplateKey, u64>,
    /// Raw event count (not frequency mass) — seals the epoch.
    pub(crate) events: u64,
}

impl EpochBatch {
    /// Total frequency mass of the batch (saturating, like every
    /// frequency sum here).
    pub(crate) fn mass(&self) -> u64 {
        self.templates.values().fold(0, |sum, f| sum.saturating_add(*f))
    }
}

/// Sliding-window aggregator turning an event stream into per-epoch
/// workload snapshots.
#[derive(Debug)]
pub struct EpochWindow {
    schema: Schema,
    epoch_events: u64,
    window_epochs: usize,
    max_templates: usize,
    /// Sealed epochs, oldest first; at most `window_epochs` long.
    pub(crate) window: VecDeque<EpochBatch>,
    /// The partially-filled current epoch.
    pub(crate) current: EpochBatch,
    /// Lookup key rewritten in place by every [`EpochWindow::push`], so
    /// an event whose template the epoch already holds — all but the
    /// first of each — allocates nothing.
    probe: TemplateKey,
    /// The current epoch's counted events not yet in `current`, by
    /// template slot.
    tallies: Vec<Tally>,
}

/// One template slot's share of the current epoch.
#[derive(Debug, Default)]
struct Tally {
    /// The slot's template, set by the first event counted under it and
    /// kept for the life of the dictionary that numbered the slot.
    key: Option<TemplateKey>,
    /// Frequency counted since the last materialise step; 0 for none,
    /// as every counted event carries at least 1.
    frequency: u64,
}

impl EpochWindow {
    /// Empty window over `schema`.
    ///
    /// # Panics
    ///
    /// Panics if any sizing parameter is zero.
    pub fn new(
        schema: Schema,
        epoch_events: u64,
        window_epochs: usize,
        max_templates: usize,
    ) -> Self {
        assert!(epoch_events >= 1, "epoch_events must be at least 1");
        assert!(window_epochs >= 1, "window_epochs must be at least 1");
        assert!(max_templates >= 1, "max_templates must be at least 1");
        Self {
            schema,
            epoch_events,
            window_epochs,
            max_templates,
            window: VecDeque::new(),
            current: EpochBatch::default(),
            probe: (TableId(0), 0, Vec::new()),
            tallies: Vec::new(),
        }
    }

    /// Fold one event into the current epoch. Returns `true` when the
    /// event sealed an epoch (time to tune).
    pub fn push(&mut self, query: &Query) -> bool {
        self.probe.0 = query.table();
        self.probe.1 = kind_rank(query.kind());
        self.probe.2.clear();
        self.probe.2.extend_from_slice(query.attrs());
        match self.current.templates.get_mut(&self.probe) {
            Some(frequency) => *frequency = frequency.saturating_add(query.frequency()),
            None => {
                self.current.templates.insert(self.probe.clone(), query.frequency());
            }
        }
        self.current.events += 1;
        self.current.events >= self.epoch_events && self.seal()
    }

    /// [`Self::push`] for an event of `frequency` whose frequency-1
    /// `template` its dictionary numbered `slot`: the same fold, into
    /// the slot's tally. A slot must name one template for as long as
    /// the window counts under it (see [`Self::forget_slots`]).
    #[inline]
    pub(crate) fn count(&mut self, slot: u32, template: &Query, frequency: u64) -> bool {
        let slot = slot as usize;
        if slot >= self.tallies.len() {
            self.tallies.resize_with(slot + 1, Tally::default);
        }
        let tally = &mut self.tallies[slot];
        let key = tally.key.get_or_insert_with(|| {
            (template.table(), kind_rank(template.kind()), template.attrs().to_vec())
        });
        debug_assert!(
            key.0 == template.table()
                && key.1 == kind_rank(template.kind())
                && key.2 == template.attrs(),
            "slot {slot} names one template"
        );
        tally.frequency = tally.frequency.saturating_add(frequency);
        self.current.events += 1;
        self.current.events >= self.epoch_events && self.seal()
    }

    /// Fold every tally into the current epoch's keyed batch.
    pub(crate) fn materialise(&mut self) {
        for tally in &mut self.tallies {
            if tally.frequency == 0 {
                continue;
            }
            let frequency = std::mem::take(&mut tally.frequency);
            let key = tally.key.as_ref().expect("a counted slot knows its template");
            match self.current.templates.get_mut(key) {
                Some(sum) => *sum = sum.saturating_add(frequency),
                None => {
                    self.current.templates.insert(key.clone(), frequency);
                }
            }
        }
    }

    /// Materialise and drop the slot table: the window is about to
    /// count under another dictionary's slots.
    pub(crate) fn forget_slots(&mut self) {
        self.materialise();
        self.tallies = Vec::new();
    }

    /// Seal the full current epoch into the window.
    fn seal(&mut self) -> bool {
        self.materialise();
        self.window.push_back(std::mem::take(&mut self.current));
        if self.window.len() > self.window_epochs {
            self.window.pop_front();
        }
        true
    }

    /// Merge the window into one compressed [`Workload`] snapshot.
    /// `None` until the first epoch seals.
    pub fn snapshot(&self) -> Option<Workload> {
        if self.window.is_empty() {
            return None;
        }
        let mut merged: BTreeMap<&TemplateKey, u64> = BTreeMap::new();
        for batch in &self.window {
            for (key, freq) in &batch.templates {
                let sum = merged.entry(key).or_insert(0);
                *sum = sum.saturating_add(*freq);
            }
        }
        let queries: Vec<Query> = merged
            .into_iter()
            .map(|((table, kind, attrs), freq)| {
                let kind = rank_kind(*kind).expect("ranks produced by kind_rank");
                Query::with_kind(*table, attrs.clone(), freq, kind)
            })
            .collect();
        let full = Workload::new(self.schema.clone(), queries);
        Some(compress::top_k_by_weight(&full, self.max_templates, |q| {
            q.frequency() as f64
        }))
    }

    /// The schema snapshots are built over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Frequency mass of every sealed epoch, oldest first — exposed for
    /// the mass-conservation property tests.
    pub fn sealed_masses(&self) -> Vec<u64> {
        self.window.iter().map(EpochBatch::mass).collect()
    }

    /// Total frequency mass across the sealed window plus the current
    /// partial epoch, tallies included.
    pub fn total_mass(&self) -> u64 {
        let tallied = self.tallies.iter().map(|t| t.frequency);
        self.window
            .iter()
            .chain([&self.current])
            .map(EpochBatch::mass)
            .chain(tallied)
            .fold(0, u64::saturating_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_workload::SchemaBuilder;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 10_000);
        for i in 0..4 {
            b.attribute(t, &format!("a{i}"), 100, 4);
        }
        b.finish()
    }

    fn q(attrs: &[u32], freq: u64) -> Query {
        Query::new(TableId(0), attrs.iter().copied().map(AttrId).collect(), freq)
    }

    #[test]
    fn epochs_seal_every_n_events() {
        let mut w = EpochWindow::new(schema(), 3, 2, 16);
        assert!(!w.push(&q(&[0], 1)));
        assert!(!w.push(&q(&[1], 1)));
        assert!(w.push(&q(&[2], 1)), "third event seals the epoch");
        assert_eq!(w.sealed_masses(), vec![3]);
        assert_eq!(w.total_mass(), 3, "the new current epoch is empty");
    }

    #[test]
    fn window_evicts_oldest_epoch() {
        let mut w = EpochWindow::new(schema(), 1, 2, 16);
        w.push(&q(&[0], 5));
        w.push(&q(&[1], 7));
        w.push(&q(&[2], 9));
        assert_eq!(w.sealed_masses(), vec![7, 9], "epoch of mass 5 evicted");
    }

    #[test]
    fn snapshot_merges_and_orders_templates() {
        let mut w = EpochWindow::new(schema(), 2, 2, 16);
        w.push(&q(&[1], 4));
        w.push(&q(&[0], 2));
        w.push(&q(&[0], 3));
        w.push(&q(&[3], 1));
        let snap = w.snapshot().unwrap();
        // Templates in key order, duplicate a0 merged across epochs.
        let got: Vec<(Vec<AttrId>, u64)> = snap
            .queries()
            .iter()
            .map(|q| (q.attrs().to_vec(), q.frequency()))
            .collect();
        assert_eq!(
            got,
            vec![
                (vec![AttrId(0)], 5),
                (vec![AttrId(1)], 4),
                (vec![AttrId(3)], 1),
            ]
        );
    }

    #[test]
    fn snapshot_compresses_to_top_k() {
        let mut w = EpochWindow::new(schema(), 4, 1, 2);
        w.push(&q(&[0], 100));
        w.push(&q(&[1], 1));
        w.push(&q(&[2], 50));
        w.push(&q(&[3], 2));
        let snap = w.snapshot().unwrap();
        assert_eq!(snap.query_count(), 2);
        assert_eq!(snap.total_frequency(), 150, "heaviest templates kept");
    }

    #[test]
    fn no_snapshot_before_first_seal() {
        let mut w = EpochWindow::new(schema(), 10, 2, 16);
        w.push(&q(&[0], 1));
        assert!(w.snapshot().is_none());
    }

    #[test]
    fn updates_and_selects_are_distinct_templates() {
        let mut w = EpochWindow::new(schema(), 2, 1, 16);
        w.push(&Query::new(TableId(0), vec![AttrId(0)], 3));
        w.push(&Query::update(TableId(0), vec![AttrId(0)], 4));
        let snap = w.snapshot().unwrap();
        assert_eq!(snap.query_count(), 2);
        assert!(!snap.queries()[0].is_update());
        assert!(snap.queries()[1].is_update());
    }

    /// Counting under slots folds like pushing: the same seals, sealed
    /// batches and partial epoch, saturating alike, whether two slots
    /// share a shape or a window forgets its slots mid-epoch.
    #[test]
    fn counting_by_slot_folds_like_pushing() {
        let half = u64::MAX / 2;
        let upd = Query::update(TableId(0), vec![AttrId(2)], 1);
        let templates = [q(&[0], 1), q(&[1, 0], 1), upd, q(&[0], 1)];
        let events = [(0, 1), (1, 3), (0, half), (3, half), (2, 1), (0, 2), (1, 1), (3, 7)];
        let (mut pushed, mut counted) =
            (EpochWindow::new(schema(), 3, 2, 16), EpochWindow::new(schema(), 3, 2, 16));
        let mut saturated = false;
        for (i, &(slot, f)) in events.iter().cycle().take(40).enumerate() {
            let t = &templates[slot];
            let one = Query::with_kind(t.table(), t.attrs().to_vec(), f, t.kind());
            assert_eq!(counted.count(slot as u32, t, f), pushed.push(&one), "event {i}");
            assert_eq!(counted.total_mass(), pushed.total_mass(), "event {i}");
            if i == 20 {
                counted.forget_slots();
            }
            let mut partial = counted.current.clone();
            for tally in counted.tallies.iter().filter(|t| t.frequency > 0) {
                let sum = partial.templates.entry(tally.key.clone().unwrap()).or_insert(0);
                *sum = sum.saturating_add(tally.frequency);
            }
            assert_eq!(partial, pushed.current, "event {i}");
            saturated |= counted.sealed_masses().contains(&u64::MAX);
        }
        assert_eq!(counted.window, pushed.window);
        assert_eq!(counted.snapshot(), pushed.snapshot());
        assert!(saturated, "some epoch saturates");
    }

    #[test]
    fn frequency_sums_saturate() {
        let half = 1u64 << 63;
        let mut w = EpochWindow::new(schema(), 2, 2, 16);
        w.push(&q(&[0], half));
        w.push(&q(&[0], half));
        w.push(&q(&[0], half));
        w.push(&q(&[1], half));
        assert_eq!(w.sealed_masses(), vec![u64::MAX, u64::MAX]);
        assert_eq!(w.total_mass(), u64::MAX);
        let snap = w.snapshot().unwrap();
        assert_eq!(snap.queries()[0].frequency(), u64::MAX, "merged across epochs");
    }
}
