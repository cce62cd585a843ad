//! Service configuration.

use isel_core::dynamic::TransitionCosts;
use isel_workload::TableId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Drift thresholds deciding the per-epoch tuning policy from the
/// frequency-weighted attribute overlap between the current epoch
/// snapshot and the snapshot of the last re-selection
/// (`workload::drift::attribute_overlap`, in `[0, 1]`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DriftThresholds {
    /// Overlap at or above this keeps the current selection (no-op).
    pub noop_above: f64,
    /// Overlap strictly below this re-selects from scratch, ignoring
    /// reconfiguration costs (the hot set moved too far to morph).
    pub scratch_below: f64,
}

impl DriftThresholds {
    /// Force the reconfiguration-aware adapt policy on every epoch —
    /// overlap never reaches 2.0 and never goes below 0.0. This is the
    /// setting under which a replay is bit-identical to the offline
    /// [`isel_core::dynamic::adapt`] loop.
    pub fn always_adapt() -> Self {
        Self { noop_above: 2.0, scratch_below: 0.0 }
    }
}

impl Default for DriftThresholds {
    fn default() -> Self {
        Self { noop_above: 0.95, scratch_below: 0.4 }
    }
}

/// Observed-cost calibration and deployment-gate parameters (see
/// `crate::feedback`). Disabled by default: with `enabled == false` the
/// service never constructs a calibrated estimator or opens a
/// deployment candidate, so selections are bit-identical to a build
/// without the subsystem.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CalibrationConfig {
    /// Master switch for the whole feedback loop.
    pub enabled: bool,
    /// Exponential forgetting factor applied to the per-template ratio
    /// statistics before each new probe folds in (1.0 = never forget).
    pub decay: f64,
    /// Probes a template must accumulate before its ratio is applied —
    /// the estimator stays identity until warm.
    pub min_probes: u64,
    /// Safety envelope: a candidate selection is rolled back when its
    /// estimated workload cost exceeds `envelope_ratio ×` the
    /// incumbent's under the same calibrated estimator.
    pub envelope_ratio: f64,
    /// Consecutive in-envelope epochs a candidate must survive before
    /// it is promoted to incumbent.
    pub probation_epochs: u64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            decay: 0.9,
            min_probes: 3,
            envelope_ratio: 1.1,
            probation_epochs: 2,
        }
    }
}

/// Static configuration of a service run. Serialized into every
/// checkpoint so a restore can verify it resumes under the same
/// aggregation parameters (changing them mid-run would silently change
/// every later snapshot).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Events per epoch: every `epoch_events` *valid* query events seal
    /// one epoch and trigger one tuning decision.
    pub epoch_events: u64,
    /// Sliding-window length in sealed epochs; older epochs are evicted.
    pub window_epochs: usize,
    /// Snapshot compression: keep only the `max_templates` heaviest
    /// templates of the merged window (`compress::top_k_by_weight`).
    pub max_templates: usize,
    /// Relative memory budget share `w` of Eq. (10), re-evaluated per
    /// epoch (constant across epochs of one schema).
    pub budget_share: f64,
    /// Reconfiguration cost parameters for the adapt policy.
    pub transition: TransitionCosts,
    /// Drift thresholds choosing between no-op, adapt and from-scratch.
    pub drift: DriftThresholds,
    /// Ingestion queue capacity in events.
    pub queue_capacity: usize,
    /// Worker threads for candidate evaluation (0 = all cores). Results
    /// are identical at every setting (DESIGN.md §9).
    pub threads: usize,
    /// Write a checkpoint every `n` sealed epochs (0 = only on a
    /// `checkpoint` control event and at shutdown).
    pub checkpoint_every_epochs: u64,
    /// Number of router shards. 0 tunes the whole workload as one
    /// whole-schema group on one shard (DESIGN.md §12). At 1 and above
    /// tuning state is per table group, so selections are
    /// shard-count-invariant — shards only decide how groups are packed
    /// onto worker threads.
    #[serde(default)]
    pub shards: u32,
    /// Explicit table → shard placements overriding the default map
    /// (tables not listed fall back to one-shard-per-table, then to a
    /// rendezvous hash; see `ShardMap`).
    #[serde(default)]
    pub shard_map: BTreeMap<u16, u32>,
    /// Worker *processes* hosting the shards (0 = shard threads in this
    /// process; see [`crate::process`]); requires `shards >= 1`. Like
    /// shards, worker count never changes selections — workers only
    /// decide which process hosts which shard.
    #[serde(default)]
    pub workers: u32,
    /// Respawn a crashed worker process in place (process placement).
    /// When false, a dead worker's shards are adopted by a survivor.
    #[serde(default)]
    pub respawn: bool,
    /// Per-tenant SLO weights biasing the global-budget frontier merge:
    /// table group → weight scaling its cost axis in the
    /// [`crate::arbiter::Arbiter`] (deterministically favoring heavier
    /// tenants when splitting the budget). Unlisted groups weigh 1.
    #[serde(default)]
    pub tenant_weights: BTreeMap<u16, f64>,
    /// Observed-cost calibration and deployment gating (disabled by
    /// default; see `crate::feedback`).
    #[serde(default)]
    pub calibration: CalibrationConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            epoch_events: 256,
            window_epochs: 4,
            max_templates: 512,
            budget_share: 0.3,
            transition: TransitionCosts { create_cost_per_byte: 0.001, drop_cost: 1.0 },
            drift: DriftThresholds::default(),
            queue_capacity: 4096,
            threads: 1,
            checkpoint_every_epochs: 0,
            shards: 0,
            workers: 0,
            respawn: false,
            shard_map: BTreeMap::new(),
            tenant_weights: BTreeMap::new(),
            calibration: CalibrationConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Validate parameter ranges; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.epoch_events == 0 {
            return Err("epoch_events must be at least 1".into());
        }
        if self.window_epochs == 0 {
            return Err("window_epochs must be at least 1".into());
        }
        if self.max_templates == 0 {
            return Err("max_templates must be at least 1".into());
        }
        if !self.budget_share.is_finite() || self.budget_share < 0.0 {
            return Err("budget_share must be finite and non-negative".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        for (&table, &weight) in &self.tenant_weights {
            if !weight.is_finite() || weight <= 0.0 {
                return Err(format!(
                    "tenant_weights gives table {table} weight {weight}; weights must be \
                     finite and positive"
                ));
            }
        }
        let cal = &self.calibration;
        if !(cal.decay > 0.0 && cal.decay <= 1.0) {
            return Err(format!("calibration decay {} must be in (0, 1]", cal.decay));
        }
        if cal.min_probes == 0 {
            return Err("calibration min_probes must be at least 1".into());
        }
        if !cal.envelope_ratio.is_finite() || cal.envelope_ratio < 1.0 {
            return Err(format!(
                "calibration envelope_ratio {} must be finite and >= 1",
                cal.envelope_ratio
            ));
        }
        if cal.probation_epochs == 0 {
            return Err("calibration probation_epochs must be at least 1".into());
        }
        if self.workers > 0 && self.shards == 0 {
            return Err(
                "workers >= 1 requires shards >= 1 (worker processes host shards of table \
                 groups; 0 workers serves in process)"
                    .into(),
            );
        }
        for (&table, &shard) in &self.shard_map {
            if self.shards == 0 {
                return Err("shard_map requires shards >= 1".into());
            }
            if shard >= self.shards {
                return Err(format!(
                    "shard_map places table {table} on shard {shard}, but only {} shards exist",
                    self.shards
                ));
            }
        }
        Ok(())
    }

    /// Key of the tuning group a query on `table` belongs to: its
    /// table's — or, when the whole workload is one group
    /// (`shards == 0`), that group's part key 0.
    pub fn group_key(&self, table: TableId) -> u16 {
        self.group_scope(table.0).map_or(0, |t| t.0)
    }

    /// The table the group under `key` is scoped to — what its tuner
    /// budgets over; `None` for the one whole-schema group of
    /// `shards == 0`.
    pub fn group_scope(&self, key: u16) -> Option<TableId> {
        (self.shards > 0).then_some(TableId(key))
    }

    /// Whether a run under `self` may resume state checkpointed under
    /// `saved` (the configuration every shard document embeds).
    /// Silently changing epoch sizing mid-stream would corrupt every
    /// later snapshot, and one whole-workload group does not split into
    /// table groups (nor the reverse), so both are refused.
    pub fn check_resume(&self, saved: &ServiceConfig) -> Result<(), String> {
        if saved.epoch_events != self.epoch_events
            || saved.window_epochs != self.window_epochs
            || saved.max_templates != self.max_templates
        {
            return Err(format!(
                "checkpoint aggregation config (epoch_events={}, window_epochs={}, \
                 max_templates={}) does not match the requested configuration",
                saved.epoch_events, saved.window_epochs, saved.max_templates
            ));
        }
        if (saved.shards == 0) != (self.shards == 0) {
            let mode = |shards: u32| match shards {
                0 => "whole-workload tuning (--shards 0)",
                _ => "per-table groups (--shards >= 1)",
            };
            return Err(format!(
                "checkpoint was written under {} and cannot resume under {}",
                mode(saved.shards),
                mode(self.shards)
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ServiceConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_epoch_events_rejected() {
        let cfg = ServiceConfig { epoch_events: 0, ..ServiceConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = ServiceConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ServiceConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn configs_without_shard_fields_still_parse() {
        // Checkpoints written before sharding existed omit the fields.
        let legacy = r#"{"epoch_events":256,"window_epochs":4,"max_templates":512,
            "budget_share":0.3,
            "transition":{"create_cost_per_byte":0.001,"drop_cost":1.0},
            "drift":{"noop_above":0.95,"scratch_below":0.4},
            "queue_capacity":4096,"threads":1,"checkpoint_every_epochs":0}"#;
        let cfg: ServiceConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(cfg.shards, 0);
        assert!(cfg.shard_map.is_empty());
        assert!(cfg.tenant_weights.is_empty());
        assert_eq!(cfg.calibration, CalibrationConfig::default());
        assert!(!cfg.calibration.enabled, "calibration defaults off");
        cfg.validate().unwrap();
    }

    #[test]
    fn calibration_parameters_are_range_checked() {
        let check = |cal: CalibrationConfig| {
            ServiceConfig { calibration: cal, ..ServiceConfig::default() }.validate()
        };
        check(CalibrationConfig { enabled: true, ..CalibrationConfig::default() }).unwrap();
        let d = CalibrationConfig::default;
        assert!(check(CalibrationConfig { decay: 0.0, ..d() }).is_err());
        assert!(check(CalibrationConfig { decay: 1.5, ..d() }).is_err());
        assert!(check(CalibrationConfig { decay: f64::NAN, ..d() }).is_err());
        assert!(check(CalibrationConfig { min_probes: 0, ..d() }).is_err());
        assert!(check(CalibrationConfig { envelope_ratio: 0.9, ..d() }).is_err());
        assert!(check(CalibrationConfig { envelope_ratio: f64::INFINITY, ..d() }).is_err());
        assert!(check(CalibrationConfig { probation_epochs: 0, ..d() }).is_err());
    }

    #[test]
    fn tenant_weights_must_be_finite_and_positive() {
        let mut cfg = ServiceConfig::default();
        cfg.tenant_weights.insert(0, 2.5);
        cfg.validate().unwrap();
        cfg.tenant_weights.insert(1, 0.0);
        assert!(cfg.validate().is_err(), "zero weight rejected");
        cfg.tenant_weights.insert(1, f64::NAN);
        assert!(cfg.validate().is_err(), "NaN weight rejected");
    }

    #[test]
    fn shard_map_targets_must_fit() {
        let mut cfg = ServiceConfig { shards: 2, ..ServiceConfig::default() };
        cfg.shard_map.insert(3, 1);
        cfg.validate().unwrap();
        cfg.shard_map.insert(4, 2);
        assert!(cfg.validate().is_err(), "shard 2 of 2 is out of range");
        let orphan = ServiceConfig {
            shards: 0,
            shard_map: [(0u16, 0u32)].into_iter().collect(),
            ..ServiceConfig::default()
        };
        assert!(orphan.validate().is_err(), "a map without shards is meaningless");
    }

    #[test]
    fn resume_refuses_other_sizing_and_the_other_tuning_mode() {
        let base = ServiceConfig::default();
        let sharded = |shards| ServiceConfig { shards, ..ServiceConfig::default() };
        let retuned = ServiceConfig { threads: 7, queue_capacity: 9, ..base.clone() };
        base.check_resume(&retuned).expect("only sizing and mode matter");
        sharded(4).check_resume(&sharded(2)).expect("groups re-pack at any shard count");
        let resized = ServiceConfig { epoch_events: base.epoch_events + 1, ..base.clone() };
        assert!(base.check_resume(&resized).unwrap_err().contains("aggregation config"));
        let err = sharded(2).check_resume(&base).unwrap_err();
        assert!(err.contains("written under whole-workload tuning"), "{err}");
        let err = base.check_resume(&sharded(1)).unwrap_err();
        assert!(err.contains("written under per-table groups"), "{err}");
    }

    #[test]
    fn always_adapt_covers_the_overlap_range() {
        let t = DriftThresholds::always_adapt();
        for overlap in [0.0f64, 0.5, 1.0] {
            assert!(overlap < t.noop_above);
            assert!(overlap >= t.scratch_below);
        }
    }
}
