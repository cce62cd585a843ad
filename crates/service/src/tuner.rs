//! Drift-triggered epoch tuning.
//!
//! Per sealed epoch the tuner compares the new window snapshot against
//! the snapshot of the *last re-selection* using
//! `workload::drift::attribute_overlap` and picks one of three policies:
//!
//! * **no-op** — the hot set barely moved; keep the selection and pay
//!   nothing (no Algorithm-1 run at all),
//! * **adapt** — reconfiguration-aware re-selection: the previous
//!   selection becomes the `Ī*` baseline of [`isel_core::reconfig`],
//!   exactly as one epoch of [`isel_core::dynamic::adapt`],
//! * **from-scratch** — the workload moved too far; re-select ignoring
//!   transition costs (they are still *billed* in the outcome).
//!
//! The drift baseline re-anchors only on re-selection, so slow drift
//! accumulates across no-op epochs until it crosses a threshold instead
//! of being absorbed epoch by epoch.
//!
//! With [`DriftThresholds::always_adapt`] the decision is Adapt on every
//! epoch, and the produced selection sequence is bit-identical to
//! [`isel_core::dynamic::adapt`] over the same snapshots — the service's
//! replay determinism contract (DESIGN.md §12).

use crate::arbiter::PublishedFrontier;
use crate::config::ServiceConfig;
#[cfg(doc)]
use crate::config::DriftThresholds;
use isel_core::algorithm1::{self, Options};
use isel_core::reconfig::ReconfigCosts;
use isel_core::trace::{Trace, TraceEvent};
use isel_core::{budget, Parallelism, Selection};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_workload::drift;
use isel_workload::{IndexPool, Schema, TableId, Workload};
use std::sync::Arc;

/// Tuning policy chosen for one epoch. Serde so a worker process can
/// report its outcomes to the supervisor (see [`crate::process`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TunePolicy {
    /// Selection kept unchanged.
    NoOp,
    /// Reconfiguration-aware re-selection.
    Adapt,
    /// Re-selection ignoring transition costs.
    FromScratch,
}

impl TunePolicy {
    /// Label used in [`TraceEvent::Epoch`] and reports. `"adapt"` and
    /// `"from_scratch"` match the offline `dynamic` policies; `"noop"`
    /// is service-only.
    pub fn label(self) -> &'static str {
        match self {
            TunePolicy::NoOp => "noop",
            TunePolicy::Adapt => "adapt",
            TunePolicy::FromScratch => "from_scratch",
        }
    }
}

/// Outcome of tuning one sealed epoch. Serde so a worker process can
/// report its outcomes to the supervisor (see [`crate::process`]).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct EpochOutcome {
    /// Zero-based epoch number.
    pub epoch: u64,
    /// Policy the drift detector chose.
    pub policy: TunePolicy,
    /// Overlap with the last re-selected snapshot (`None` on the first
    /// tuned epoch — there is nothing to compare against).
    pub overlap: Option<f64>,
    /// Selection in force after the epoch.
    pub selection: Selection,
    /// Workload cost `F(I*)` of the snapshot under that selection.
    pub workload_cost: f64,
    /// Reconfiguration cost paid entering the epoch.
    pub reconfig_paid: f64,
    /// Memory budget `A(w)` the run was bounded by.
    pub budget: u64,
    /// Table group the epoch belongs to (`None` under whole-workload
    /// tuning, whose epochs span the whole schema).
    pub table: Option<TableId>,
    /// Shard the epoch was tuned on.
    pub shard: Option<u32>,
    /// Deployment-gate action taken this epoch (`None` when the
    /// calibration gate is disabled or idle — absent on the wire, so
    /// uncalibrated outcome messages are byte-identical to earlier
    /// releases). See the `feedback` module.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub deploy: Option<DeployNote>,
}

/// Deployment-gate verdict attached to an [`EpochOutcome`] when the
/// calibration subsystem opened, promoted, or rolled back a candidate
/// selection this epoch (see [`crate::feedback`]).
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DeployNote {
    /// `"candidate"`, `"promote"`, or `"rollback"`.
    pub action: String,
    /// Workload cost of the incumbent selection under this epoch's
    /// estimator.
    pub incumbent_cost: f64,
    /// Workload cost of the candidate selection under this epoch's
    /// estimator.
    pub candidate_cost: f64,
}

/// Stateful per-epoch tuner: current selection, drift baseline, and the
/// service-lifetime [`IndexPool`] interning every index ever selected
/// (checkpointed so ids stay stable across restarts).
pub struct Tuner {
    config: ServiceConfig,
    pool: IndexPool,
    selection: Selection,
    prev_snapshot: Option<Workload>,
    epoch: u64,
    /// When set, budgets are computed over this table's attributes only
    /// (the table-separable split of Eq. 10 a sharded group runs under);
    /// `None` budgets over the full schema.
    scope: Option<TableId>,
    /// Frontier of the last epoch that actually re-selected, as handed
    /// to the [`crate::arbiter::Arbiter`]. No-op epochs leave it
    /// untouched (and clean).
    published: Option<Arc<PublishedFrontier>>,
    /// Whether `published` changed since it was last taken — the
    /// clean-group skip: a group that saw only no-op epochs (or none)
    /// is never re-published.
    published_dirty: bool,
}

impl std::fmt::Debug for Tuner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuner")
            .field("epoch", &self.epoch)
            .field("selection", &self.selection)
            .field("pool_len", &self.pool.len())
            .finish_non_exhaustive()
    }
}

impl Tuner {
    /// Fresh tuner with an empty selection, budgeting over the full
    /// schema.
    pub fn new(schema: &Schema, config: ServiceConfig) -> Self {
        Self {
            config,
            pool: IndexPool::new(schema),
            selection: Selection::empty(),
            prev_snapshot: None,
            epoch: 0,
            scope: None,
            published: None,
            published_dirty: false,
        }
    }

    /// Fresh tuner for one table group: budgets use only `table`'s share
    /// of the single-attribute memory, so per-group budgets sum to the
    /// global one (the table-separable split the sharded router relies
    /// on).
    pub fn for_table(schema: &Schema, config: ServiceConfig, table: TableId) -> Self {
        Self { scope: Some(table), ..Self::new(schema, config) }
    }

    /// Restore internal state from a checkpoint (see
    /// [`crate::checkpoint`]).
    pub(crate) fn restore(
        config: ServiceConfig,
        pool: IndexPool,
        selection: Selection,
        prev_snapshot: Option<Workload>,
        epoch: u64,
        scope: Option<TableId>,
        published: Option<Arc<PublishedFrontier>>,
    ) -> Self {
        let published_dirty = published.is_some();
        Self { config, pool, selection, prev_snapshot, epoch, scope, published, published_dirty }
    }

    /// Number of sealed epochs tuned so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Selection currently in force.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// The service-lifetime interning pool.
    pub fn pool(&self) -> &IndexPool {
        &self.pool
    }

    /// Snapshot of the last epoch that actually re-selected.
    pub fn drift_baseline(&self) -> Option<&Workload> {
        self.prev_snapshot.as_ref()
    }

    /// Table group this tuner budgets over, if scoped.
    pub fn scope(&self) -> Option<TableId> {
        self.scope
    }

    /// Frontier of the last epoch that re-selected, if any.
    pub fn published(&self) -> Option<&Arc<PublishedFrontier>> {
        self.published.as_ref()
    }

    /// Whether the publication changed since the last take, clearing
    /// the flag. Drives the clean-group skip: callers re-publish to the
    /// arbiter only when this returns `true`.
    pub fn take_published_dirty(&mut self) -> bool {
        std::mem::take(&mut self.published_dirty)
    }

    /// Compact the interning pool down to the current selection (plus
    /// prefix closure), returning how many dead entries were dropped.
    ///
    /// Tuning decisions never read old pool ids, so compaction at a
    /// quiescent point (just before a checkpoint is captured) changes no
    /// observable other than checkpoint size.
    pub fn compact_pool(&mut self) -> usize {
        let before = self.pool.len();
        let live: Vec<_> = self.selection.indexes().iter().map(|k| self.pool.intern(k)).collect();
        let remap = self.pool.compact(&live);
        before - remap.retained()
    }

    /// Set the lifetime epoch counter. Used by the deployment gate's
    /// rollback path ([`crate::feedback`]): a restored tuner must keep
    /// counting from the pre-rollback epoch so outcome streams stay
    /// monotonic and supervisor-side dedup by `(table, epoch)` works.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Tune one sealed epoch against its window `snapshot`.
    ///
    /// Emits the full Algorithm-1 event stream of any run it performs
    /// plus one [`TraceEvent::Epoch`]; attaching a sink changes no
    /// observable (the strategies' zero-cost trace contract).
    pub fn tune(&mut self, snapshot: &Workload, par: Parallelism, trace: Trace<'_>) -> EpochOutcome {
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(snapshot));
        self.tune_with(snapshot, &est, par, trace)
    }

    /// [`Self::tune`] against a caller-supplied estimator — the seam the
    /// calibration subsystem uses to swap in a
    /// [`isel_costmodel::CalibratedWhatIf`] stack. `tune` builds the
    /// default `CachingWhatIf<AnalyticalWhatIf>` and delegates here, so
    /// both paths are bit-identical when the estimator is.
    pub fn tune_with<W: WhatIfOptimizer>(
        &mut self,
        snapshot: &Workload,
        est: &W,
        par: Parallelism,
        trace: Trace<'_>,
    ) -> EpochOutcome {
        let budget = match self.scope {
            Some(t) => budget::table_relative_budget(est, self.config.budget_share, t),
            None => budget::relative_budget(est, self.config.budget_share),
        };
        let overlap = self
            .prev_snapshot
            .as_ref()
            .map(|prev| drift::attribute_overlap(prev, snapshot));
        let policy = match overlap {
            Some(o) if o >= self.config.drift.noop_above => TunePolicy::NoOp,
            Some(o) if o < self.config.drift.scratch_below => TunePolicy::FromScratch,
            _ => TunePolicy::Adapt,
        };
        let transition = self.config.transition;
        let run = match policy {
            TunePolicy::NoOp => None,
            TunePolicy::Adapt => {
                let mut options = Options::new(budget);
                options.parallelism = par;
                options.reconfig = ReconfigCosts {
                    current: self.selection.clone(),
                    create_cost_per_byte: transition.create_cost_per_byte,
                    drop_cost: transition.drop_cost,
                };
                Some(algorithm1::run_traced(est, &options, trace))
            }
            TunePolicy::FromScratch => {
                let mut options = Options::new(budget);
                options.parallelism = par;
                Some(algorithm1::run_traced(est, &options, trace))
            }
        };
        let selection = match &run {
            Some(r) => r.selection.clone(),
            None => self.selection.clone(),
        };
        let reconfig_paid = ReconfigCosts {
            current: self.selection.clone(),
            create_cost_per_byte: transition.create_cost_per_byte,
            drop_cost: transition.drop_cost,
        }
        .cost(&selection, est);
        let workload_cost = selection.cost(est);
        let epoch = self.epoch;
        trace.emit(|| TraceEvent::Epoch {
            epoch,
            policy: policy.label().into(),
            indexes: selection.len() as u64,
            workload_cost,
            reconfig_paid,
        });
        for k in selection.indexes() {
            self.pool.intern(k);
        }
        if policy != TunePolicy::NoOp {
            self.prev_snapshot = Some(snapshot.clone());
        }
        if let Some(r) = run {
            self.published = Some(Arc::new(PublishedFrontier {
                initial_cost: r.initial_cost,
                frontier: r.frontier,
                steps: r.steps,
                epoch,
            }));
            self.published_dirty = true;
        }
        self.selection = selection.clone();
        self.epoch += 1;
        EpochOutcome {
            epoch,
            policy,
            overlap,
            selection,
            workload_cost,
            reconfig_paid,
            budget,
            table: self.scope,
            shard: None,
            deploy: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DriftThresholds;
    use isel_core::dynamic::{self, TransitionCosts};
    use isel_workload::drift::DriftConfig;
    use isel_workload::synthetic::SyntheticConfig;

    fn epochs() -> Vec<Workload> {
        drift::generate(&DriftConfig {
            base: SyntheticConfig {
                tables: 2,
                attrs_per_table: 12,
                queries_per_table: 15,
                rows_base: 50_000,
                max_query_width: 4,
                update_fraction: 0.0,
                seed: 11,
            },
            epochs: 3,
            rotation_per_epoch: 5,
        })
    }

    fn config(drift: DriftThresholds) -> ServiceConfig {
        ServiceConfig {
            budget_share: 0.3,
            transition: TransitionCosts { create_cost_per_byte: 0.001, drop_cost: 1.0 },
            drift,
            ..ServiceConfig::default()
        }
    }

    /// Always-adapt tuning is bit-identical to the offline
    /// `dynamic::adapt` loop over the same snapshots.
    #[test]
    fn always_adapt_matches_offline_dynamic_adapt() {
        let snaps = epochs();
        let cfg = config(DriftThresholds::always_adapt());
        let mut tuner = Tuner::new(snaps[0].schema(), cfg.clone());
        let online: Vec<Selection> = snaps
            .iter()
            .map(|w| tuner.tune(w, Parallelism::serial(), Trace::disabled()).selection)
            .collect();

        let ests: Vec<CachingWhatIf<AnalyticalWhatIf<'_>>> = snaps
            .iter()
            .map(|w| CachingWhatIf::new(AnalyticalWhatIf::new(w)))
            .collect();
        let budget = budget::relative_budget(&ests[0], cfg.budget_share);
        let offline = dynamic::adapt(&ests, budget, cfg.transition);
        assert_eq!(online.len(), offline.epochs.len());
        for (o, e) in online.iter().zip(&offline.epochs) {
            assert_eq!(o, &e.selection);
        }
    }

    /// Identical consecutive snapshots with a high no-op threshold keep
    /// the selection without running the algorithm.
    #[test]
    fn noop_keeps_selection_on_stable_workload() {
        let snaps = epochs();
        let cfg = config(DriftThresholds { noop_above: 0.99, scratch_below: 0.0 });
        let mut tuner = Tuner::new(snaps[0].schema(), cfg);
        let first = tuner.tune(&snaps[0], Parallelism::serial(), Trace::disabled());
        assert_eq!(first.policy, TunePolicy::Adapt, "bootstrap epoch adapts");
        assert_eq!(first.overlap, None);
        let second = tuner.tune(&snaps[0], Parallelism::serial(), Trace::disabled());
        assert_eq!(second.policy, TunePolicy::NoOp);
        assert_eq!(second.selection, first.selection);
        assert_eq!(second.reconfig_paid, 0.0);
    }

    /// A scratch threshold above any achievable overlap forces the
    /// from-scratch policy once a baseline exists.
    #[test]
    fn heavy_drift_triggers_from_scratch() {
        let snaps = epochs();
        let cfg = config(DriftThresholds { noop_above: 2.0, scratch_below: 1.5 });
        let mut tuner = Tuner::new(snaps[0].schema(), cfg);
        tuner.tune(&snaps[0], Parallelism::serial(), Trace::disabled());
        let out = tuner.tune(&snaps[1], Parallelism::serial(), Trace::disabled());
        assert_eq!(out.policy, TunePolicy::FromScratch);
    }

    /// The drift baseline re-anchors only on re-selection: after a no-op
    /// the comparison still runs against the last *tuned* snapshot.
    #[test]
    fn baseline_survives_noop_epochs() {
        let snaps = epochs();
        let cfg = config(DriftThresholds { noop_above: 0.99, scratch_below: 0.0 });
        let mut tuner = Tuner::new(snaps[0].schema(), cfg);
        tuner.tune(&snaps[0], Parallelism::serial(), Trace::disabled());
        let baseline = tuner.drift_baseline().unwrap().clone();
        tuner.tune(&snaps[0], Parallelism::serial(), Trace::disabled());
        assert_eq!(tuner.drift_baseline().unwrap(), &baseline);
    }

    /// Compaction keeps exactly the current selection's prefix closure
    /// and leaves tuning behavior untouched.
    #[test]
    fn compact_pool_drops_dead_entries_only() {
        let snaps = epochs();
        let cfg = config(DriftThresholds::always_adapt());
        let mut tuner = Tuner::new(snaps[0].schema(), cfg.clone());
        for w in &snaps {
            tuner.tune(w, Parallelism::serial(), Trace::disabled());
        }
        let selection = tuner.selection().clone();
        let live_before: Vec<_> =
            selection.indexes().iter().map(|k| tuner.pool().intern(k)).collect();
        let dropped = tuner.compact_pool();
        assert_eq!(tuner.pool().len() + dropped, {
            // Re-derive the pre-compaction size: closure + dropped.
            let mut probe = Tuner::new(snaps[0].schema(), cfg.clone());
            for w in &snaps {
                probe.tune(w, Parallelism::serial(), Trace::disabled());
            }
            probe.pool().len()
        });
        assert_eq!(live_before.len(), selection.len());
        for k in selection.indexes() {
            // Every live index still resolves through the compacted pool.
            let id = tuner.pool().intern(k);
            assert_eq!(tuner.pool().resolve(id).attrs(), k.attrs());
        }
        // Tuning continues to match an uncompacted twin bit-for-bit.
        let mut twin = Tuner::new(snaps[0].schema(), cfg);
        for w in &snaps {
            twin.tune(w, Parallelism::serial(), Trace::disabled());
        }
        let a = tuner.tune(&snaps[0], Parallelism::serial(), Trace::disabled());
        let b = twin.tune(&snaps[0], Parallelism::serial(), Trace::disabled());
        assert_eq!(a.selection, b.selection);
        assert_eq!(a.workload_cost.to_bits(), b.workload_cost.to_bits());
    }

    /// A table-scoped tuner budgets over that table's attributes only.
    #[test]
    fn table_scope_narrows_the_budget() {
        let snaps = epochs();
        let cfg = config(DriftThresholds::always_adapt());
        let mut global = Tuner::new(snaps[0].schema(), cfg.clone());
        let mut scoped = Tuner::for_table(snaps[0].schema(), cfg, TableId(0));
        let g = global.tune(&snaps[0], Parallelism::serial(), Trace::disabled());
        let s = scoped.tune(&snaps[0], Parallelism::serial(), Trace::disabled());
        assert!(s.budget < g.budget, "2-table schema: one table's share is smaller");
        assert_eq!(s.table, Some(TableId(0)));
        assert_eq!(g.table, None);
    }

    /// Every selected index (and its prefixes) lands in the
    /// service-lifetime pool.
    #[test]
    fn selections_are_interned_into_the_pool() {
        let snaps = epochs();
        let mut tuner = Tuner::new(snaps[0].schema(), config(DriftThresholds::always_adapt()));
        let out = tuner.tune(&snaps[0], Parallelism::serial(), Trace::disabled());
        assert!(!out.selection.is_empty(), "30% budget must build indexes");
        for k in out.selection.indexes() {
            // Already interned: re-interning must not grow the pool.
            let before = tuner.pool().len();
            tuner.pool().intern(k);
            assert_eq!(tuner.pool().len(), before);
        }
    }
}
