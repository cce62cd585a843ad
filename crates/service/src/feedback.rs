//! Observed-cost feedback: calibration tracking and the gated
//! deployment loop (DESIGN.md §17).
//!
//! The estimator stack the tuner plans against is a *model* of the
//! database; `dbsim::measure`-style probes report what executions
//! actually cost. This module closes the loop in three pieces:
//!
//! 1. [`RatioTracker`] — per-template statistics of observed execution
//!    cost, folded with deterministic exponential forgetting. Garbage
//!    probes (non-finite or non-positive costs) are counted and
//!    dropped; the tracker never panics and never poisons its state.
//! 2. Calibrated tuning (`tune_group`) — warm templates become
//!    [`TemplateProbe`]s, compiled against the epoch snapshot into a
//!    [`RatioTable`], and the tuner plans through a
//!    [`CalibratedWhatIf`] stack. With calibration disabled the
//!    function early-returns into the plain [`Tuner::tune`] path, so
//!    selections are bit-identical to a build without the subsystem.
//! 3. The deployment gate — a calibrated re-selection that *changes*
//!    the selection is not trusted immediately: it becomes a candidate
//!    on probation against the previous incumbent. Each following
//!    epoch compares the candidate's calibrated workload cost against
//!    the incumbent's under the same estimator; a candidate that stays
//!    inside the safety envelope for `probation_epochs` consecutive
//!    epochs is promoted, while an envelope violation rolls the group
//!    back to its last-good checkpoint — the same byte-level
//!    [`GroupCheckpoint`] restore path the failover machinery uses, so
//!    a rollback is indistinguishable from a crash-recovery restore.
//!
//! All counters aggregate into [`CalSnapshot`] (the serializable
//! answer of the `{"control":"calibration"}` in-band query and the
//! `calibration` section of the status line), with the invariant
//! `opened == promoted + rolled_back + in_flight`.

use crate::checkpoint::GroupCheckpoint;
use crate::config::ServiceConfig;
use crate::event::ObservedEvent;
use crate::tuner::{DeployNote, EpochOutcome, Tuner};
use crate::window::{kind_rank, rank_kind, EpochWindow};
use isel_core::selection::Selection;
use isel_core::trace::{Trace, TraceEvent};
use isel_core::Parallelism;
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, CalibratedWhatIf, RatioTable, TemplateProbe};
use isel_workload::{Index, Schema, Workload};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of ratio-histogram buckets: bucket `i` counts applied ratios
/// in `[2^(i-4), 2^(i-3))`, so bucket 3 is `[1/2, 1)`, bucket 4 is
/// `[1, 2)`, and the ends absorb everything beyond `1/16`× / `16`×.
pub const HIST_BUCKETS: usize = 8;

/// Histogram bucket for one applied ratio (see [`HIST_BUCKETS`]).
pub fn ratio_bucket(ratio: f64) -> usize {
    (ratio.log2().floor() as i64 + 4).clamp(0, HIST_BUCKETS as i64 - 1) as usize
}

/// Identity of one probed template: query kind rank, sorted selected
/// attributes, and optionally the access-path index's attributes.
/// `Ord` so every iteration over tracker state is deterministic.
type ProbeKey = (u8, Vec<u32>, Option<Vec<u32>>);

#[derive(Clone, Debug, PartialEq)]
struct Stat {
    sum_log: f64,
    weight: f64,
    count: u64,
}

/// Decayed per-template observed-cost statistics.
///
/// Each accepted probe folds into its template's geometric running
/// mean: `weight ← weight·decay + 1`, `sum_log ← sum_log·decay +
/// ln(cost)`, giving `observed_mean = exp(sum_log / weight)` — an
/// exponentially-forgetting geometric mean, which matches the
/// multiplicative nature of estimate/observed ratios. A template is
/// *warm* once it has accumulated `min_probes` accepted probes.
#[derive(Clone, Debug)]
pub struct RatioTracker {
    decay: f64,
    min_probes: u64,
    stats: BTreeMap<ProbeKey, Stat>,
    probes: u64,
    rejected: u64,
}

impl RatioTracker {
    /// An empty tracker with the given forgetting factor and warm-up
    /// threshold (see [`crate::config::CalibrationConfig`]).
    pub fn new(decay: f64, min_probes: u64) -> Self {
        Self { decay, min_probes, stats: BTreeMap::new(), probes: 0, rejected: 0 }
    }

    /// Accepted probes folded in so far.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Probes rejected (non-finite or non-positive cost) so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Fold one observed-cost event in. Returns whether the probe was
    /// accepted; a rejected probe only bumps the rejection counter —
    /// every ratio the tracker will ever produce is unaffected.
    pub fn observe(&mut self, event: &ObservedEvent) -> bool {
        if !event.cost.is_finite() || event.cost <= 0.0 {
            self.rejected += 1;
            return false;
        }
        let key: ProbeKey = (
            kind_rank(event.query.kind()),
            event.query.attrs().iter().map(|a| a.0).collect(),
            event.index.as_ref().map(|attrs| attrs.iter().map(|a| a.0).collect()),
        );
        let stat = self.stats.entry(key).or_insert(Stat { sum_log: 0.0, weight: 0.0, count: 0 });
        stat.weight = stat.weight * self.decay + 1.0;
        stat.sum_log = stat.sum_log * self.decay + event.cost.ln();
        stat.count += 1;
        self.probes += 1;
        true
    }

    /// The warm templates as calibration probes, in deterministic
    /// (key-sorted) order.
    pub fn warm_probes(&self) -> Vec<TemplateProbe> {
        self.stats
            .iter()
            .filter(|(_, s)| s.count >= self.min_probes)
            .filter_map(|((rank, attrs, index), s)| {
                let kind = rank_kind(*rank).ok()?;
                Some(TemplateProbe {
                    kind,
                    attrs: attrs.iter().copied().map(isel_workload::AttrId).collect(),
                    index: index
                        .as_ref()
                        .map(|ix| ix.iter().copied().map(isel_workload::AttrId).collect()),
                    observed_mean: (s.sum_log / s.weight).exp(),
                })
            })
            .collect()
    }
}

/// One candidate selection on probation against its incumbent.
#[derive(Clone, Debug)]
struct Probation {
    /// Selection that was in force when the candidate was opened.
    incumbent: Selection,
    /// Epoch the candidate was opened at.
    opened_epoch: u64,
    /// Consecutive in-envelope epochs survived so far.
    survived: u64,
}

/// Per-group feedback state: the ratio tracker plus the deployment
/// gate's counters, probation record and last-good checkpoint.
#[derive(Debug, Default)]
pub struct GroupFeedback {
    tracker: Option<RatioTracker>,
    applied: u64,
    hist: [u64; HIST_BUCKETS],
    opened: u64,
    promoted: u64,
    rolled_back: u64,
    last_good: Option<String>,
    probation: Option<Probation>,
}

impl GroupFeedback {
    /// Fresh feedback state for one group under `config`.
    pub fn new(config: &ServiceConfig) -> Self {
        let cal = &config.calibration;
        Self {
            tracker: Some(RatioTracker::new(cal.decay, cal.min_probes)),
            ..Self::default()
        }
    }

    fn tracker_mut(&mut self, config: &ServiceConfig) -> &mut RatioTracker {
        let cal = &config.calibration;
        self.tracker
            .get_or_insert_with(|| RatioTracker::new(cal.decay, cal.min_probes))
    }

    /// Fold one observed-cost probe in, emitting the
    /// [`TraceEvent::ObservedCost`] record. Returns whether the probe
    /// was accepted.
    pub fn observe(
        &mut self,
        config: &ServiceConfig,
        event: &ObservedEvent,
        trace: Trace<'_>,
    ) -> bool {
        let accepted = self.tracker_mut(config).observe(event);
        let table = event.query.table().0;
        let cost = event.cost;
        trace.emit(|| TraceEvent::ObservedCost { table, cost, accepted });
        accepted
    }

    /// Current counters as a serializable snapshot (probation state and
    /// last-good bytes are checkpoint concerns, not counters).
    pub fn snapshot(&self) -> CalSnapshot {
        CalSnapshot {
            probes: self.tracker.as_ref().map_or(0, RatioTracker::probes),
            rejected: self.tracker.as_ref().map_or(0, RatioTracker::rejected),
            applied: self.applied,
            hist: self.hist.to_vec(),
            opened: self.opened,
            promoted: self.promoted,
            rolled_back: self.rolled_back,
        }
    }

    /// Serialize for a checkpoint.
    pub fn save(&self) -> FeedbackCheckpoint {
        let (stats, probes, rejected) = match &self.tracker {
            Some(t) => (
                t.stats
                    .iter()
                    .map(|((kind, attrs, index), s)| SavedStat {
                        kind: *kind,
                        attrs: attrs.clone(),
                        index: index.clone(),
                        sum_log: s.sum_log,
                        weight: s.weight,
                        count: s.count,
                    })
                    .collect(),
                t.probes,
                t.rejected,
            ),
            None => (Vec::new(), 0, 0),
        };
        FeedbackCheckpoint {
            stats,
            probes,
            rejected,
            applied: self.applied,
            hist: self.hist.to_vec(),
            opened: self.opened,
            promoted: self.promoted,
            rolled_back: self.rolled_back,
            last_good: self.last_good.clone(),
            probation: self.probation.as_ref().map(|p| SavedProbation {
                incumbent: p
                    .incumbent
                    .indexes()
                    .iter()
                    .map(|k| k.attrs().iter().map(|a| a.0).collect())
                    .collect(),
                opened_epoch: p.opened_epoch,
                survived: p.survived,
            }),
        }
    }

    /// Rebuild feedback state from a checkpoint under `config`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry (unknown
    /// kind rank, empty or duplicated index attribute list).
    pub fn load(saved: &FeedbackCheckpoint, config: &ServiceConfig) -> Result<Self, String> {
        let cal = &config.calibration;
        let mut tracker = RatioTracker::new(cal.decay, cal.min_probes);
        for s in &saved.stats {
            rank_kind(s.kind)?;
            tracker.stats.insert(
                (s.kind, s.attrs.clone(), s.index.clone()),
                Stat { sum_log: s.sum_log, weight: s.weight, count: s.count },
            );
        }
        tracker.probes = saved.probes;
        tracker.rejected = saved.rejected;
        let mut hist = [0u64; HIST_BUCKETS];
        for (dst, src) in hist.iter_mut().zip(&saved.hist) {
            *dst = *src;
        }
        let probation = saved
            .probation
            .as_ref()
            .map(|p| -> Result<Probation, String> {
                let indexes: Vec<Index> = p
                    .incumbent
                    .iter()
                    .map(|attrs| {
                        if attrs.is_empty() {
                            return Err("probation incumbent has an empty index".into());
                        }
                        Ok(Index::new(
                            attrs.iter().copied().map(isel_workload::AttrId).collect(),
                        ))
                    })
                    .collect::<Result<_, String>>()?;
                Ok(Probation {
                    incumbent: Selection::from_indexes(indexes),
                    opened_epoch: p.opened_epoch,
                    survived: p.survived,
                })
            })
            .transpose()?;
        Ok(Self {
            tracker: Some(tracker),
            applied: saved.applied,
            hist,
            opened: saved.opened,
            promoted: saved.promoted,
            rolled_back: saved.rolled_back,
            last_good: saved.last_good.clone(),
            probation,
        })
    }
}

/// Serialized `GroupFeedback` state inside a checkpoint. Stats are
/// key-sorted on capture (the tracker's map is a `BTreeMap`), so two
/// captures of the same logical state produce identical bytes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FeedbackCheckpoint {
    /// Per-template statistics, key-sorted.
    pub stats: Vec<SavedStat>,
    /// Accepted probes folded in.
    pub probes: u64,
    /// Probes rejected.
    pub rejected: u64,
    /// Ratios applied at tune time (lifetime total).
    pub applied: u64,
    /// Applied-ratio histogram (see `ratio_bucket`).
    pub hist: Vec<u64>,
    /// Deployment candidates opened.
    pub opened: u64,
    /// Candidates promoted.
    pub promoted: u64,
    /// Candidates rolled back.
    pub rolled_back: u64,
    /// Last-good group checkpoint (JSON), the rollback target.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub last_good: Option<String>,
    /// In-flight probation, if a candidate is deployed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub probation: Option<SavedProbation>,
}

/// One template's saved statistics.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SavedStat {
    /// Query-kind rank (see `window::kind_rank`).
    pub kind: u8,
    /// Sorted selected-attribute ids.
    pub attrs: Vec<u32>,
    /// Access-path index attributes (`None` = sequential scan probe).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub index: Option<Vec<u32>>,
    /// Decayed sum of log observed costs.
    pub sum_log: f64,
    /// Decayed probe weight.
    pub weight: f64,
    /// Accepted probes for this template (undecayed).
    pub count: u64,
}

/// Saved probation record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SavedProbation {
    /// Incumbent selection as attribute lists.
    pub incumbent: Vec<Vec<u32>>,
    /// Epoch the candidate was opened at.
    pub opened_epoch: u64,
    /// Consecutive in-envelope epochs survived.
    pub survived: u64,
}

/// Calibration counters: the payload of the `{"control":"calibration"}`
/// answer and the `calibration` status-line section, summed over groups
/// (and, for both of those, over shards).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CalSnapshot {
    /// Accepted probes.
    pub probes: u64,
    /// Rejected probes.
    pub rejected: u64,
    /// Ratios applied at tune time.
    pub applied: u64,
    /// Applied-ratio histogram, `HIST_BUCKETS` long (see
    /// `ratio_bucket`; a `Vec` because fixed-size arrays don't cross
    /// the serde boundary).
    pub hist: Vec<u64>,
    /// Deployment candidates opened.
    pub opened: u64,
    /// Candidates promoted.
    pub promoted: u64,
    /// Candidates rolled back.
    pub rolled_back: u64,
}

impl Default for CalSnapshot {
    fn default() -> Self {
        Self {
            probes: 0,
            rejected: 0,
            applied: 0,
            hist: vec![0; HIST_BUCKETS],
            opened: 0,
            promoted: 0,
            rolled_back: 0,
        }
    }
}

impl CalSnapshot {
    /// Candidates still on probation: `opened - promoted - rolled_back`
    /// (saturating — partial streams can under-count opens).
    pub fn in_flight(&self) -> u64 {
        self.opened.saturating_sub(self.promoted + self.rolled_back)
    }

    /// Element-wise sum, for aggregating per-shard snapshots.
    pub fn add(&mut self, other: &CalSnapshot) {
        self.probes += other.probes;
        self.rejected += other.rejected;
        self.applied += other.applied;
        if self.hist.len() < other.hist.len() {
            self.hist.resize(other.hist.len(), 0);
        }
        for (dst, src) in self.hist.iter_mut().zip(&other.hist) {
            *dst += *src;
        }
        self.opened += other.opened;
        self.promoted += other.promoted;
        self.rolled_back += other.rolled_back;
    }

    /// The inner counters object, without the `calibration` wrapper —
    /// embedded into the status line.
    pub fn render_inner(&self) -> String {
        format!(
            "{{\"probes\":{},\"rejected\":{},\"applied\":{},\
             \"hist\":[{}],\"opened\":{},\"promoted\":{},\"rolled_back\":{},\
             \"in_flight\":{}}}",
            self.probes,
            self.rejected,
            self.applied,
            self.hist.iter().map(u64::to_string).collect::<Vec<_>>().join(","),
            self.opened,
            self.promoted,
            self.rolled_back,
            self.in_flight()
        )
    }

    /// The canonical one-line JSON rendering — byte-identical however
    /// the snapshot was produced (live router, supervisor sum,
    /// or offline replay), so served and offline answers diff cleanly.
    pub fn render(&self) -> String {
        format!("{{\"calibration\":{}}}", self.render_inner())
    }
}

/// Tune one sealed epoch through the calibration-and-deployment
/// pipeline. With calibration disabled this is exactly
/// [`Tuner::tune`]; enabled, the tuner plans through a
/// [`CalibratedWhatIf`] built from the group's warm templates, and
/// selection changes pass through the deployment gate (table groups
/// only: the one whole-schema group of `shards == 0` calibrates
/// estimates but deploys directly, its gate stays idle).
#[allow(clippy::too_many_arguments)]
pub(crate) fn tune_group(
    tuner: &mut Tuner,
    window: &mut EpochWindow,
    feedback: &mut GroupFeedback,
    snapshot: &Workload,
    schema: &Schema,
    config: &ServiceConfig,
    par: Parallelism,
    trace: Trace<'_>,
) -> EpochOutcome {
    if !config.calibration.enabled {
        return tuner.tune(snapshot, par, trace);
    }
    let inner = AnalyticalWhatIf::new(snapshot);
    let probes = feedback.tracker_mut(config).warm_probes();
    let table = RatioTable::build(&inner, &probes);
    if !table.is_empty() {
        let ratios = table.all_ratios();
        feedback.applied += ratios.len() as u64;
        for r in &ratios {
            feedback.hist[ratio_bucket(*r)] += 1;
        }
        let tracker = feedback.tracker.as_ref().expect("tracker initialized above");
        let (p, rj, n) = (tracker.probes(), tracker.rejected(), ratios.len() as u64);
        trace.emit(|| TraceEvent::Calibration { probes: p, rejected: rj, templates: n });
    }
    let est = CachingWhatIf::new(CalibratedWhatIf::new(inner, table));
    let prev_selection = tuner.selection().clone();
    let gated = tuner.scope().is_some();
    let mut out = tuner.tune_with(snapshot, &est, par, trace);
    if !gated {
        return out;
    }
    let group_table = out.table.map_or(0, |t| t.0);
    match feedback.probation.take() {
        None => {
            if out.selection != prev_selection && feedback.last_good.is_some() {
                // A re-selection under calibrated costs: deploy it as a
                // candidate, on probation against the incumbent.
                feedback.opened += 1;
                let incumbent_cost = prev_selection.cost(&est);
                let candidate_cost = out.workload_cost;
                feedback.probation = Some(Probation {
                    incumbent: prev_selection,
                    opened_epoch: out.epoch,
                    survived: 0,
                });
                out.deploy = Some(DeployNote {
                    action: "candidate".into(),
                    incumbent_cost,
                    candidate_cost,
                });
                let epoch = out.epoch;
                trace.emit(|| TraceEvent::Deploy {
                    action: "candidate".into(),
                    table: group_table,
                    epoch,
                    incumbent_cost,
                    candidate_cost,
                });
            }
        }
        Some(mut probation) => {
            let candidate_cost = out.workload_cost;
            let incumbent_cost = probation.incumbent.cost(&est);
            let violation = if !candidate_cost.is_finite() {
                true
            } else if !incumbent_cost.is_finite() {
                false
            } else {
                candidate_cost > config.calibration.envelope_ratio * incumbent_cost
            };
            if violation {
                match rollback(tuner, window, feedback, schema, config) {
                    Ok(()) => {
                        feedback.rolled_back += 1;
                        // The restored selection replaces the epoch's
                        // output; the epoch counter stays monotonic so
                        // downstream outcome streams never rewind.
                        tuner.set_epoch(out.epoch + 1);
                        out.selection = tuner.selection().clone();
                        out.workload_cost = out.selection.cost(&est);
                        out.deploy = Some(DeployNote {
                            action: "rollback".into(),
                            incumbent_cost,
                            candidate_cost,
                        });
                        let epoch = out.epoch;
                        trace.emit(|| TraceEvent::Deploy {
                            action: "rollback".into(),
                            table: group_table,
                            epoch,
                            incumbent_cost,
                            candidate_cost,
                        });
                    }
                    Err(_) => {
                        // The rollback target failed to restore (it was
                        // validated when captured, so this is only
                        // reachable through external corruption). Keep
                        // the candidate — counted as a promotion so the
                        // gate accounting stays balanced.
                        promote(feedback, &mut out, trace, group_table, incumbent_cost);
                        capture_last_good(tuner, window, feedback);
                    }
                }
            } else {
                probation.survived += 1;
                if probation.survived >= config.calibration.probation_epochs {
                    promote(feedback, &mut out, trace, group_table, incumbent_cost);
                    capture_last_good(tuner, window, feedback);
                } else {
                    feedback.probation = Some(probation);
                }
            }
        }
    }
    if feedback.probation.is_none() {
        capture_last_good(tuner, window, feedback);
    }
    out
}

fn promote(
    feedback: &mut GroupFeedback,
    out: &mut EpochOutcome,
    trace: Trace<'_>,
    table: u16,
    incumbent_cost: f64,
) {
    feedback.promoted += 1;
    let candidate_cost = out.workload_cost;
    out.deploy = Some(DeployNote { action: "promote".into(), incumbent_cost, candidate_cost });
    let epoch = out.epoch;
    trace.emit(|| TraceEvent::Deploy {
        action: "promote".into(),
        table,
        epoch,
        incumbent_cost,
        candidate_cost,
    });
}

/// Capture the group's current state as the rollback target. The
/// window's current batch was just sealed (capture happens right after
/// a tune), so the restore-side seal check always passes.
fn capture_last_good(tuner: &mut Tuner, window: &mut EpochWindow, feedback: &mut GroupFeedback) {
    if let Ok(json) = GroupCheckpoint::capture(tuner, window).to_json() {
        feedback.last_good = Some(json);
    }
}

/// Restore the group to its last-good checkpoint (the deployment
/// gate's rollback). Byte-level the same restore the failover path
/// runs, so a rolled-back group is bit-identical to one that crashed
/// at the last-good barrier and recovered.
fn rollback(
    tuner: &mut Tuner,
    window: &mut EpochWindow,
    feedback: &GroupFeedback,
    schema: &Schema,
    config: &ServiceConfig,
) -> Result<(), String> {
    let json = feedback.last_good.as_ref().ok_or("no last-good checkpoint")?;
    let gc = GroupCheckpoint::from_json(json)?;
    let (restored_tuner, restored_window) = gc.restore(schema, config)?;
    *tuner = restored_tuner;
    *window = restored_window;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_workload::synthetic::{generate, SyntheticConfig};
    use isel_workload::{AttrId, Query, QueryKind, TableId};
    use proptest::prelude::*;

    fn workload() -> Workload {
        generate(&SyntheticConfig {
            tables: 1,
            attrs_per_table: 10,
            queries_per_table: 8,
            rows_base: 80_000,
            max_query_width: 3,
            update_fraction: 0.0,
            seed: 5,
        })
    }

    fn cal_config(enabled: bool) -> ServiceConfig {
        let mut cfg = ServiceConfig {
            epoch_events: 8,
            window_epochs: 2,
            ..ServiceConfig::default()
        };
        cfg.calibration.enabled = enabled;
        cfg.calibration.min_probes = 1;
        cfg
    }

    fn observed(query: &Query, cost: f64) -> ObservedEvent {
        ObservedEvent { query: query.clone(), index: None, cost }
    }

    fn mk_window(w: &Workload, config: &ServiceConfig) -> EpochWindow {
        EpochWindow::new(
            w.schema().clone(),
            config.epoch_events,
            config.window_epochs,
            config.max_templates,
        )
    }

    /// Drive `n` sealed epochs of `w` through the calibrated pipeline.
    fn drive(
        tuner: &mut Tuner,
        window: &mut EpochWindow,
        feedback: &mut GroupFeedback,
        w: &Workload,
        config: &ServiceConfig,
        n: usize,
    ) -> Vec<EpochOutcome> {
        let mut outs = Vec::new();
        for _ in 0..n {
            for (_, q) in w.iter() {
                if window.push(q) {
                    let snap = window.snapshot().expect("sealed epoch has a snapshot");
                    outs.push(tune_group(
                        tuner,
                        window,
                        feedback,
                        &snap,
                        w.schema(),
                        config,
                        Parallelism::serial(),
                        Trace::disabled(),
                    ));
                }
            }
        }
        outs
    }

    #[test]
    fn disabled_calibration_is_plain_tune() {
        let w = workload();
        let config = cal_config(false);
        let mut a = Tuner::for_table(w.schema(), config.clone(), TableId(0));
        let mut wa = mk_window(&w, &config);
        let mut fa = GroupFeedback::new(&config);
        let out_a = drive(&mut a, &mut wa, &mut fa, &w, &config, 2);

        let mut b = Tuner::for_table(w.schema(), config.clone(), TableId(0));
        let mut wb = mk_window(&w, &config);
        let mut out_b = Vec::new();
        for _ in 0..2 {
            for (_, q) in w.iter() {
                if wb.push(q) {
                    let snap = wb.snapshot().unwrap();
                    out_b.push(b.tune(&snap, Parallelism::serial(), Trace::disabled()));
                }
            }
        }
        assert_eq!(out_a.len(), out_b.len());
        for (x, y) in out_a.iter().zip(&out_b) {
            assert_eq!(x.selection, y.selection);
            assert_eq!(x.workload_cost.to_bits(), y.workload_cost.to_bits());
            assert!(x.deploy.is_none());
        }
        assert_eq!(fa.snapshot(), CalSnapshot::default());
    }

    #[test]
    fn rollback_restores_the_last_good_selection_bytes() {
        let w = workload();
        let mut config = cal_config(true);
        config.calibration.envelope_ratio = 1.0;
        let mut tuner = Tuner::for_table(w.schema(), config.clone(), TableId(0));
        let mut window = mk_window(&w, &config);
        let mut feedback = GroupFeedback::new(&config);

        // Bootstrap: tune once so a last-good checkpoint exists.
        drive(&mut tuner, &mut window, &mut feedback, &w, &config, 1);
        let last_good = feedback.last_good.clone().expect("bootstrap captured last-good");
        let good_selection = GroupCheckpoint::from_json(&last_good).unwrap().selection;

        // Poison the tracker: claim every template observed 1000x its
        // estimate, forcing a calibrated re-selection.
        let est = AnalyticalWhatIf::new(&w);
        for (qid, q) in w.iter() {
            let base = isel_costmodel::WhatIfOptimizer::unindexed_cost(&est, qid);
            feedback.observe(&config, &observed(q, base * 1000.0), Trace::disabled());
        }
        drop(est);
        let outs = drive(&mut tuner, &mut window, &mut feedback, &w, &config, 4);
        let actions: Vec<&str> = outs
            .iter()
            .filter_map(|o| o.deploy.as_ref().map(|d| d.action.as_str()))
            .collect();
        let snap = feedback.snapshot();
        assert_eq!(
            snap.opened,
            snap.promoted + snap.rolled_back + snap.in_flight(),
            "gate accounting balances: {actions:?}"
        );
        // If a rollback fired, the restored selection must be the
        // last-good one, byte for byte.
        if let Some(pos) = actions.iter().position(|a| *a == "rollback") {
            let rolled = outs
                .iter()
                .filter(|o| o.deploy.is_some())
                .nth(pos)
                .unwrap();
            let gc = GroupCheckpoint::from_json(feedback.last_good.as_ref().unwrap()).unwrap();
            assert_eq!(gc.selection, good_selection, "last-good unchanged by rollback");
            let (restored, _) = gc.restore(w.schema(), &config).unwrap();
            assert_eq!(&rolled.selection, restored.selection());
        }
    }

    #[test]
    fn promotion_happens_after_probation_epochs() {
        let w = workload();
        let mut config = cal_config(true);
        // A generous envelope: any candidate survives.
        config.calibration.envelope_ratio = 1e9;
        config.calibration.probation_epochs = 2;
        let mut tuner = Tuner::for_table(w.schema(), config.clone(), TableId(0));
        let mut window = mk_window(&w, &config);
        let mut feedback = GroupFeedback::new(&config);
        drive(&mut tuner, &mut window, &mut feedback, &w, &config, 1);
        for (_, q) in w.iter() {
            feedback.observe(&config, &observed(q, 1e7), Trace::disabled());
        }
        let outs = drive(&mut tuner, &mut window, &mut feedback, &w, &config, 5);
        let snap = feedback.snapshot();
        assert_eq!(snap.rolled_back, 0, "envelope can't be violated");
        assert_eq!(snap.opened, snap.promoted + snap.in_flight());
        if snap.opened > 0 {
            assert!(
                outs.iter().any(|o| {
                    o.deploy.as_ref().is_some_and(|d| d.action == "promote")
                        || o.deploy.as_ref().is_some_and(|d| d.action == "candidate")
                }),
                "gate actions surface in outcomes"
            );
        }
    }

    #[test]
    fn feedback_checkpoint_round_trips() {
        let w = workload();
        let config = cal_config(true);
        let mut feedback = GroupFeedback::new(&config);
        for (i, (_, q)) in w.iter().enumerate() {
            feedback.observe(&config, &observed(q, (i + 1) as f64), Trace::disabled());
        }
        let nan = observed(w.iter().next().unwrap().1, f64::NAN);
        feedback.observe(&config, &nan, Trace::disabled());
        feedback.applied = 7;
        feedback.hist[4] = 7;
        feedback.opened = 2;
        feedback.promoted = 1;
        let saved = feedback.save();
        let json = serde_json::to_string(&saved).unwrap();
        let back: FeedbackCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(saved, back, "serde round-trip is lossless");
        let loaded = GroupFeedback::load(&back, &config).unwrap();
        assert_eq!(loaded.snapshot(), feedback.snapshot());
        assert_eq!(
            serde_json::to_string(&loaded.save()).unwrap(),
            json,
            "recapture is byte-identical"
        );
        // Warm probes survive the round trip exactly.
        let a = feedback.tracker.as_ref().unwrap().warm_probes();
        let b = loaded.tracker.as_ref().unwrap().warm_probes();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.attrs, y.attrs);
            assert_eq!(x.observed_mean.to_bits(), y.observed_mean.to_bits());
        }
    }

    #[test]
    fn snapshot_render_is_canonical_json() {
        let snap = CalSnapshot {
            probes: 10,
            rejected: 2,
            applied: 5,
            hist: vec![0, 0, 0, 1, 4, 0, 0, 0],
            opened: 3,
            promoted: 1,
            rolled_back: 1,
        };
        let line = snap.render();
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let cal = v.get("calibration").expect("calibration object");
        assert_eq!(cal.get("probes").and_then(serde_json::Value::as_u64), Some(10));
        assert_eq!(cal.get("in_flight").and_then(serde_json::Value::as_u64), Some(1));
        let mut sum = CalSnapshot::default();
        sum.add(&snap);
        sum.add(&snap);
        assert_eq!(sum.probes, 20);
        assert_eq!(sum.hist[4], 8);
        assert_eq!(sum.in_flight(), 2);
    }

    #[test]
    fn ratio_buckets_cover_the_clamp_range() {
        assert_eq!(ratio_bucket(1.0), 4);
        assert_eq!(ratio_bucket(0.99), 3);
        assert_eq!(ratio_bucket(2.0), 5);
        assert_eq!(ratio_bucket(1.0 / 64.0), 0);
        assert_eq!(ratio_bucket(64.0), 7);
        assert_eq!(ratio_bucket(1e300), 7);
    }

    proptest! {
        /// Garbage probes never panic, never poison accepted state, and
        /// the counters always reconcile.
        #[test]
        fn tracker_survives_garbage_costs(
            costs in proptest::collection::vec(
                (0usize..7, -1e12f64..=1e12f64).prop_map(|(k, r)| match k {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    5 => f64::MIN_POSITIVE,
                    _ => r,
                }),
                1..64,
            ),
            attrs in proptest::collection::vec(0u32..6, 1..3),
        ) {
            let mut tracker = RatioTracker::new(0.9, 2);
            let query = Query::with_kind(
                TableId(0),
                attrs.iter().map(|a| AttrId(*a)).collect::<std::collections::BTreeSet<_>>()
                    .into_iter().collect(),
                1,
                QueryKind::Select,
            );
            let mut accepted = 0u64;
            for cost in &costs {
                let event = ObservedEvent { query: query.clone(), index: None, cost: *cost };
                if tracker.observe(&event) {
                    accepted += 1;
                }
            }
            prop_assert_eq!(tracker.probes(), accepted);
            prop_assert_eq!(tracker.rejected(), costs.len() as u64 - accepted);
            // Every warm mean is a sane positive finite number.
            for probe in tracker.warm_probes() {
                prop_assert!(probe.observed_mean.is_finite());
                prop_assert!(probe.observed_mean > 0.0);
            }
        }

        /// Observations for templates no workload will ever match are
        /// harmless: the built ratio table just skips them.
        #[test]
        fn unknown_templates_never_poison_the_table(
            attr in 0u32..64,
            cost in 1e-6f64..1e9,
        ) {
            let w = workload();
            let config = cal_config(true);
            let mut feedback = GroupFeedback::new(&config);
            let alien = Query::with_kind(
                TableId(0),
                vec![AttrId(attr % 10), AttrId((attr + 1) % 10)],
                1,
                QueryKind::Update,
            );
            feedback.observe(
                &config,
                &ObservedEvent { query: alien, index: None, cost },
                Trace::disabled(),
            );
            let inner = AnalyticalWhatIf::new(&w);
            let probes = feedback.tracker.as_ref().unwrap().warm_probes();
            let table = RatioTable::build(&inner, &probes);
            // Either the template matched a real query or it was
            // skipped — never a panic, never a bogus entry.
            prop_assert!(table.len() <= probes.len());
        }
    }
}
