//! Checkpoint / restore of the service's tuning state.
//!
//! The state of one group ([`GroupCheckpoint`]) is everything its host
//! owns for it: the interned [`IndexPool`] (entries in id order —
//! restoring re-interns them in order, which reproduces every id
//! exactly, prefixes included), the current selection as pool ids, the
//! drift baseline, the sliding window including the partial current
//! epoch, the epoch counter and the last published frontier. Restoring
//! a checkpoint and feeding the remainder of a log continues
//! **bit-identically** with a run that was never interrupted (pinned by
//! `tests/service.rs`). Pools are compacted (canonically, see
//! [`IndexPool::compact`]) when captured, which keeps checkpoints from
//! growing with selection churn, and all maps serialize in sorted
//! order, so checkpoint bytes are deterministic for identical state.
//!
//! # Shard documents and the manifest
//!
//! Every run checkpoints per shard — whole-workload tuning
//! (`shards == 0`) is the one-shard, one-group case: each shard
//! serializes its groups and its share of the ingestion counters as a
//! [`ShardCheckpoint`] into `<name>.shard-{k}.g{generation}.json` next
//! to the manifest path (see [`shard_file`]), and once every shard has
//! committed a generation a [`Manifest`] naming those files is written
//! at the user's checkpoint path. Every write goes through `<path>.tmp`
//! and a rename, so a kill at any moment leaves either the previous
//! complete generation or the new one, never a mix and never a torn
//! file (restore verifies each file's embedded generation against the
//! manifest). Group state is placement-independent, so a manifest may
//! be restored at a *different* shard count; groups are simply
//! re-packed by the new map.

use crate::arbiter::PublishedFrontier;
use crate::config::ServiceConfig;
use crate::tuner::Tuner;
use crate::window::{kind_rank, rank_kind, EpochBatch, EpochWindow};
use isel_core::Selection;
use isel_workload::{AttrId, IndexId, IndexPool, Query, Schema, TableId, Workload};
use crate::feedback::FeedbackCheckpoint;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Schema version of the checkpoint document.
pub const CHECKPOINT_VERSION: u32 = 1;

/// One aggregated template of a saved batch or drift baseline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SavedTemplate {
    /// Table id.
    pub table: u16,
    /// Kind rank (0 = select, 1 = update).
    pub kind: u8,
    /// Accessed attribute ids.
    pub attrs: Vec<u32>,
    /// Accumulated frequency.
    pub frequency: u64,
}

/// One epoch batch (sealed or the current partial one).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SavedBatch {
    /// Raw event count of the batch.
    pub events: u64,
    /// Aggregated templates in key order.
    pub templates: Vec<SavedTemplate>,
}

fn save_batch(batch: &EpochBatch) -> SavedBatch {
    SavedBatch {
        events: batch.events,
        templates: batch
            .templates
            .iter()
            .map(|((table, kind, attrs), freq)| SavedTemplate {
                table: table.0,
                kind: *kind,
                attrs: attrs.iter().map(|a| a.0).collect(),
                frequency: *freq,
            })
            .collect(),
    }
}

fn load_batch(saved: &SavedBatch) -> Result<EpochBatch, String> {
    let mut templates = BTreeMap::new();
    for t in &saved.templates {
        rank_kind(t.kind)?;
        let key = (TableId(t.table), t.kind, t.attrs.iter().map(|&a| AttrId(a)).collect());
        if templates.insert(key, t.frequency).is_some() {
            return Err("duplicate template key in checkpoint batch".into());
        }
    }
    Ok(EpochBatch { templates, events: saved.events })
}

fn save_workload(w: &Workload) -> Vec<SavedTemplate> {
    w.queries()
        .iter()
        .map(|q| SavedTemplate {
            table: q.table().0,
            kind: kind_rank(q.kind()),
            attrs: q.attrs().iter().map(|a| a.0).collect(),
            frequency: q.frequency(),
        })
        .collect()
}

fn load_workload(schema: &Schema, templates: &[SavedTemplate]) -> Result<Workload, String> {
    let queries = templates
        .iter()
        .map(|t| {
            if t.attrs.is_empty() || t.frequency == 0 {
                return Err("degenerate template in checkpoint baseline".to_owned());
            }
            Ok(Query::with_kind(
                TableId(t.table),
                t.attrs.iter().map(|&a| AttrId(a)).collect(),
                t.frequency,
                rank_kind(t.kind)?,
            ))
        })
        .collect::<Result<Vec<Query>, String>>()?;
    Ok(Workload::new(schema.clone(), queries))
}

/// Re-intern saved pool entries in document order, verifying id
/// stability.
fn restore_pool(schema: &Schema, entries: &[Vec<u32>]) -> Result<IndexPool, String> {
    let pool = IndexPool::new(schema);
    for (i, attrs) in entries.iter().enumerate() {
        if attrs.is_empty() {
            return Err("empty index entry in checkpoint pool".into());
        }
        let id = pool.intern_attrs(&attrs.iter().map(|&a| AttrId(a)).collect::<Vec<_>>());
        if id.0 as usize != i {
            return Err(format!(
                "checkpoint pool entry {i} re-interned as {id} — document reordered?"
            ));
        }
    }
    Ok(pool)
}

/// Resolve saved selection ids through a restored pool.
fn restore_selection(pool: &IndexPool, ids: &[u32]) -> Result<Selection, String> {
    Ok(Selection::from_indexes(
        ids.iter()
            .map(|&id| {
                if id as usize >= pool.len() {
                    return Err(format!("selection references unknown pool id k{id}"));
                }
                Ok(pool.resolve(IndexId(id)))
            })
            .collect::<Result<Vec<_>, String>>()?,
    ))
}

/// Rebuild a sliding window from saved batches under `config`'s
/// aggregation parameters.
fn restore_window(
    schema: &Schema,
    config: &ServiceConfig,
    saved: &[SavedBatch],
    current: &SavedBatch,
) -> Result<EpochWindow, String> {
    let mut window = EpochWindow::new(
        schema.clone(),
        config.epoch_events,
        config.window_epochs,
        config.max_templates,
    );
    if saved.len() > config.window_epochs {
        return Err("checkpoint window longer than window_epochs".into());
    }
    for batch in saved {
        window.window.push_back(load_batch(batch)?);
    }
    window.current = load_batch(current)?;
    if window.current.events >= config.epoch_events {
        return Err("checkpoint current epoch is already sealed".into());
    }
    Ok(window)
}

/// Saved state of one group inside a [`ShardCheckpoint`]: its own pool,
/// selection, drift baseline and window. The pool is compacted on
/// capture, so group checkpoints do not grow with selection churn.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupCheckpoint {
    /// The group's key: the table it tunes — or 0 for the one
    /// whole-schema group of a `shards == 0` document (which of the two
    /// a document holds is decided by the `config.shards` it embeds).
    pub table: u16,
    /// Sealed epochs tuned by this group so far.
    pub epoch: u64,
    /// Pool entries in id order, each as its attribute list.
    pub pool: Vec<Vec<u32>>,
    /// Current selection as ids into `pool`.
    pub selection: Vec<u32>,
    /// Drift baseline of the group, if any.
    pub baseline: Option<Vec<SavedTemplate>>,
    /// Sealed window batches, oldest first.
    pub window: Vec<SavedBatch>,
    /// The partially-filled current epoch.
    pub current: SavedBatch,
    /// Frontier published to the arbiter by the group's last
    /// re-selecting epoch, if any (absent in pre-arbitration
    /// checkpoints). Restoring it lets a resumed run answer `whatif`
    /// queries — and compute the merged selection — without re-running
    /// any group from scratch.
    #[serde(default)]
    pub published: Option<PublishedFrontier>,
    /// Observed-cost feedback state of the group (see
    /// [`crate::feedback`]); the key is absent with calibration disabled.
    /// Documents written before PR 21 carry `"feedback":null` there and
    /// still restore. Also absent
    /// inside the gate's own last-good snapshots — the rollback target
    /// restores tuning state, never the counters that record the
    /// rollback itself.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub feedback: Option<FeedbackCheckpoint>,
}

impl GroupCheckpoint {
    /// Capture one group, compacting its pool first (canonical: the
    /// result depends only on the group's logical state, so two runs
    /// that converged to the same state produce identical bytes).
    pub fn capture(tuner: &mut Tuner, window: &EpochWindow) -> Self {
        let table = tuner.scope().map_or(0, |t| t.0);
        tuner.compact_pool();
        let pool = tuner.pool();
        let entries: Vec<Vec<u32>> = (0..pool.len() as u32)
            .map(|id| pool.attrs(IndexId(id)).iter().map(|a| a.0).collect())
            .collect();
        let selection: Vec<u32> =
            tuner.selection().indexes().iter().map(|k| pool.intern(k).0).collect();
        Self {
            table,
            epoch: tuner.epoch(),
            pool: entries,
            selection,
            baseline: tuner.drift_baseline().map(save_workload),
            window: window.window.iter().map(save_batch).collect(),
            current: save_batch(&window.current),
            published: tuner.published().map(|p| (**p).clone()),
            feedback: None,
        }
    }

    /// Attach observed-cost feedback state (see [`crate::feedback`]).
    #[must_use]
    pub fn with_feedback(mut self, feedback: Option<FeedbackCheckpoint>) -> Self {
        self.feedback = feedback;
        self
    }

    /// Serialize to JSON text (one line) — the byte format the
    /// deployment gate stores as its last-good rollback target.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| format!("serialize group checkpoint: {e}"))
    }

    /// Parse a group checkpoint document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("parse group checkpoint: {e}"))
    }

    /// Rebuild the group's tuner and window under `config`.
    ///
    /// The pool is re-interned entry by entry in id order; any divergence
    /// between recorded and reproduced ids (a corrupted or reordered
    /// document) is an error.
    pub fn restore(
        &self,
        schema: &Schema,
        config: &ServiceConfig,
    ) -> Result<(Tuner, EpochWindow), String> {
        if self.table as usize >= schema.tables().len() {
            return Err(format!("group checkpoint for unknown table t{}", self.table));
        }
        let pool = restore_pool(schema, &self.pool)?;
        let selection = restore_selection(&pool, &self.selection)?;
        let baseline = self.baseline.as_ref().map(|t| load_workload(schema, t)).transpose()?;
        let window = restore_window(schema, config, &self.window, &self.current)?;
        let tuner = Tuner::restore(
            config.clone(),
            pool,
            selection,
            baseline,
            self.epoch,
            config.group_scope(self.table),
            self.published.clone().map(std::sync::Arc::new),
        );
        Ok((tuner, window))
    }
}

/// One shard's checkpoint document: its table groups plus the shard's
/// share of the lifetime counters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardCheckpoint {
    /// Document schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Configuration the state was produced under.
    pub config: ServiceConfig,
    /// Shard that wrote the file (under the map in force at write time;
    /// informational — restore re-packs groups by the current map).
    pub shard: u32,
    /// Barrier generation the file belongs to; must match the manifest.
    pub generation: u64,
    /// Valid query events this shard ingested.
    pub ingested: u64,
    /// Invalid lines this shard counted.
    pub invalid: u64,
    /// Events dropped from this shard's queue.
    pub dropped: u64,
    /// The shard's table groups, sorted by table id.
    pub groups: Vec<GroupCheckpoint>,
}

impl ShardCheckpoint {
    /// Serialize to JSON text (one line).
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string(self).map_err(|e| format!("serialize shard checkpoint: {e}"))
    }

    /// Parse a shard checkpoint document.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| format!("parse shard checkpoint: {e}"))
    }

    /// Atomically write to `path` (`<path>.tmp` + rename).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        self.save_with(path, &mut String::new())
    }

    /// [`save`](Self::save), streaming the JSON into `buf` (cleared
    /// first). A shard worker keeps one `buf` for all its generations, so
    /// a commit reuses the capacity the last one grew.
    pub fn save_with(&self, path: &Path, buf: &mut String) -> Result<(), String> {
        buf.clear();
        serde::Serialize::write_json(self, buf);
        atomic_write(path, buf.as_bytes(), None)
    }

    /// Load a shard checkpoint from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }
}

/// The all-or-nothing commit record of one sharded checkpoint
/// generation, written at the user's checkpoint path after every shard
/// file of that generation is on disk.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Document schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Barrier generation this manifest commits.
    pub generation: u64,
    /// Shard count the generation was written under.
    pub shards: u32,
    /// Router lines routed up to the committing barrier (resumes the
    /// periodic-barrier cadence).
    pub routed_lines: u64,
    /// Shard file names (relative to the manifest's directory), one per
    /// shard.
    pub files: Vec<String>,
}

impl Manifest {
    /// Atomically write to `path` (`<path>.tmp` + rename).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let json =
            serde_json::to_string(self).map_err(|e| format!("serialize manifest: {e}"))?;
        // A kill between the write and the rename is the exact
        // torn-manifest window the crash-safe probe must survive.
        let fault = (crate::fault::CHECKPOINT_MANIFEST, self.generation as u32);
        atomic_write(path, json.as_bytes(), Some(fault))
    }

    /// Load a manifest from `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("parse manifest: {e}"))
    }

    /// Load and validate every shard file the manifest names, in order.
    pub fn load_shards(&self, manifest_path: &Path) -> Result<Vec<ShardCheckpoint>, String> {
        if self.version != CHECKPOINT_VERSION {
            return Err(format!(
                "manifest version {} unsupported (expected {CHECKPOINT_VERSION})",
                self.version
            ));
        }
        let dir = manifest_path.parent().unwrap_or(Path::new("."));
        self.files
            .iter()
            .map(|name| {
                let cp = ShardCheckpoint::load(&dir.join(name))?;
                if cp.generation != self.generation {
                    return Err(format!(
                        "shard file {name} is generation {}, manifest commits {} — torn \
                         checkpoint set",
                        cp.generation, self.generation
                    ));
                }
                if cp.version != CHECKPOINT_VERSION {
                    return Err(format!("shard file {name} has unsupported version {}", cp.version));
                }
                Ok(cp)
            })
            .collect()
    }
}

/// The shard file path for generation `generation` of shard `shard`,
/// derived from the manifest path: `dir/<stem>.shard-{k}.g{gen}.json`.
pub fn shard_file(manifest: &Path, shard: u32, generation: u64) -> std::path::PathBuf {
    let stem = manifest.file_stem().and_then(|s| s.to_str()).unwrap_or("checkpoint");
    let name = format!("{stem}.shard-{shard}.g{generation}.json");
    match manifest.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir.join(name),
        _ => std::path::PathBuf::from(name),
    }
}

/// Write `bytes` to `path` via `<path>.tmp` + rename, firing the fault
/// site `fault` (name, scope), if given, once the `.tmp` is on disk and
/// before the rename.
pub(crate) fn atomic_write(
    path: &Path,
    bytes: &[u8],
    fault: Option<(&str, u32)>,
) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    if let Some((site, scope)) = fault {
        crate::fault::fire(site, scope)?;
    }
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DriftThresholds;
    use isel_core::{Parallelism, Trace};
    use isel_workload::synthetic::{self, SyntheticConfig};

    fn workload() -> Workload {
        synthetic::generate(&SyntheticConfig {
            tables: 2,
            attrs_per_table: 10,
            queries_per_table: 12,
            rows_base: 50_000,
            max_query_width: 3,
            update_fraction: 0.0,
            seed: 21,
        })
    }

    fn populated_state() -> (ServiceConfig, Tuner, EpochWindow) {
        let w = workload();
        let config = ServiceConfig {
            epoch_events: 4,
            window_epochs: 2,
            max_templates: 32,
            drift: DriftThresholds::always_adapt(),
            ..ServiceConfig::default()
        };
        let mut tuner = Tuner::new(w.schema(), config.clone());
        let mut window = EpochWindow::new(w.schema().clone(), 4, 2, 32);
        for q in w.queries().iter().cycle().take(10) {
            if window.push(q) {
                let snap = window.snapshot().unwrap();
                tuner.tune(&snap, Parallelism::serial(), Trace::disabled());
            }
        }
        (config, tuner, window)
    }

    /// The whole-workload group as one shard document, the way a
    /// `shards == 0` run writes it.
    fn whole_document() -> (ServiceConfig, ShardCheckpoint, Tuner, EpochWindow) {
        let (config, mut tuner, window) = populated_state();
        let cp = ShardCheckpoint {
            version: CHECKPOINT_VERSION,
            config: config.clone(),
            shard: 0,
            generation: 1,
            ingested: 10,
            invalid: 1,
            dropped: 2,
            groups: vec![GroupCheckpoint::capture(&mut tuner, &window)],
        };
        (config, cp, tuner, window)
    }

    #[test]
    fn capture_restore_round_trips() {
        let (config, cp, tuner, window) = whole_document();
        assert_eq!(cp.groups[0].table, 0, "the whole-schema group sits under part key 0");
        let (tuner2, window2) = cp.groups[0].restore(window.schema(), &config).unwrap();
        assert_eq!(tuner2.scope(), None, "a shards == 0 document restores unscoped");
        assert_eq!(tuner2.epoch(), tuner.epoch());
        assert_eq!(tuner2.selection(), tuner.selection());
        assert_eq!(tuner2.pool().len(), tuner.pool().len());
        assert_eq!(tuner2.drift_baseline(), tuner.drift_baseline());
        assert_eq!(window2.sealed_masses(), window.sealed_masses());
        assert_eq!(window2.current_events(), window.current_events());
        // A second capture of the restored state is byte-identical.
        let mut tuner2 = tuner2;
        let cp2 = GroupCheckpoint::capture(&mut tuner2, &window2);
        assert_eq!(cp.groups[0].to_json().unwrap(), cp2.to_json().unwrap());
    }

    #[test]
    fn json_round_trips() {
        let (_, cp, ..) = whole_document();
        let back = ShardCheckpoint::from_json(&cp.to_json().unwrap()).unwrap();
        assert_eq!(cp, back);
    }

    #[test]
    fn save_load_is_atomic_and_faithful() {
        let (_, cp, ..) = whole_document();
        let dir = std::env::temp_dir().join("isel-service-cp-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        cp.save(&path).unwrap();
        assert!(!path.with_extension("tmp").exists(), "tmp file renamed away");
        assert_eq!(ShardCheckpoint::load(&path).unwrap(), cp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reordered_pool_is_rejected() {
        let (config, mut cp, _, window) = whole_document();
        let group = &mut cp.groups[0];
        assert!(group.pool.len() >= 2, "state must intern multiple entries");
        group.pool.reverse();
        let err = group.restore(window.schema(), &config).unwrap_err();
        assert!(err.contains("re-interned"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let (_, mut cp, ..) = whole_document();
        let dir = std::env::temp_dir().join(format!("isel-cp-version-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest_path = dir.join("checkpoint.json");
        let file = shard_file(&manifest_path, 0, 1);
        let name = file.file_name().unwrap().to_str().unwrap().to_owned();
        let mut manifest = Manifest {
            version: CHECKPOINT_VERSION,
            generation: 1,
            shards: 1,
            routed_lines: 10,
            files: vec![name],
        };
        cp.version = 99;
        cp.save(&file).unwrap();
        assert!(manifest.load_shards(&manifest_path).unwrap_err().contains("version"));
        cp.version = CHECKPOINT_VERSION;
        cp.save(&file).unwrap();
        manifest.load_shards(&manifest_path).unwrap();
        manifest.version = 99;
        assert!(manifest.load_shards(&manifest_path).unwrap_err().contains("version"));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn populated_group(seed_offset: usize) -> (ServiceConfig, Tuner, EpochWindow) {
        let w = workload();
        let config = ServiceConfig {
            epoch_events: 4,
            window_epochs: 2,
            max_templates: 32,
            drift: DriftThresholds::always_adapt(),
            shards: 1,
            ..ServiceConfig::default()
        };
        let mut tuner = Tuner::for_table(w.schema(), config.clone(), TableId(0));
        let mut window = EpochWindow::new(w.schema().clone(), 4, 2, 32);
        let group: Vec<&Query> =
            w.queries().iter().filter(|q| q.table() == TableId(0)).collect();
        for q in group.iter().cycle().skip(seed_offset).take(10) {
            if window.push(q) {
                let snap = window.snapshot().unwrap();
                tuner.tune(&snap, Parallelism::serial(), Trace::disabled());
            }
        }
        (config, tuner, window)
    }

    #[test]
    fn group_capture_restore_round_trips() {
        let (config, mut tuner, window) = populated_group(0);
        let pool_before = tuner.pool().len();
        let cp = GroupCheckpoint::capture(&mut tuner, &window);
        assert!(
            tuner.pool().len() <= pool_before,
            "capture compacts the pool in place"
        );
        assert_eq!(cp.table, 0);
        let (tuner2, window2) = cp.restore(window.schema(), &config).unwrap();
        assert_eq!(tuner2.epoch(), tuner.epoch());
        assert_eq!(tuner2.selection(), tuner.selection());
        assert_eq!(tuner2.scope(), Some(TableId(0)));
        assert_eq!(tuner2.drift_baseline(), tuner.drift_baseline());
        assert_eq!(window2.sealed_masses(), window.sealed_masses());
        // Re-capture of the restored state is byte-identical (compaction
        // is canonical, so the second compact is a no-op).
        let mut tuner2 = tuner2;
        let cp2 = GroupCheckpoint::capture(&mut tuner2, &window2);
        assert_eq!(cp.to_json().unwrap(), cp2.to_json().unwrap());
    }

    #[test]
    fn compaction_shrinks_checkpoints_after_churn() {
        // Drive the group through drifting epochs so dead indexes pile
        // up in the pool, then compare checkpoint sizes with and without
        // compaction.
        let (_config, mut tuner, window) = populated_group(3);
        let uncompacted = {
            let pool = tuner.pool();
            let entries: Vec<Vec<u32>> = (0..pool.len() as u32)
                .map(|id| pool.attrs(IndexId(id)).iter().map(|a| a.0).collect())
                .collect();
            serde_json::to_string(&entries).unwrap().len()
        };
        let cp = GroupCheckpoint::capture(&mut tuner, &window);
        let compacted = serde_json::to_string(&cp.pool).unwrap().len();
        assert!(
            compacted <= uncompacted,
            "compacted pool ({compacted} B) must not exceed uncompacted ({uncompacted} B)"
        );
    }

    #[test]
    fn manifest_commits_and_detects_torn_generations() {
        let (config, mut tuner, window) = populated_group(0);
        let dir = std::env::temp_dir().join(format!("isel-manifest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let manifest_path = dir.join("checkpoint.json");

        let group = GroupCheckpoint::capture(&mut tuner, &window);
        let mut files = Vec::new();
        for shard in 0..2u32 {
            let cp = ShardCheckpoint {
                version: CHECKPOINT_VERSION,
                config: config.clone(),
                shard,
                generation: 1,
                ingested: 5,
                invalid: 0,
                dropped: 0,
                groups: vec![group.clone()],
            };
            let path = shard_file(&manifest_path, shard, 1);
            cp.save(&path).unwrap();
            files.push(path.file_name().unwrap().to_str().unwrap().to_owned());
        }
        let manifest = Manifest {
            version: CHECKPOINT_VERSION,
            generation: 1,
            shards: 2,
            routed_lines: 10,
            files,
        };
        manifest.save(&manifest_path).unwrap();

        let loaded = Manifest::load(&manifest_path).unwrap();
        assert_eq!(loaded, manifest);
        let shards = loaded.load_shards(&manifest_path).unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].groups[0], group);

        // A shard file from another generation is a torn set.
        let stale = ShardCheckpoint { generation: 7, ..shards[1].clone() };
        stale.save(&shard_file(&manifest_path, 1, 1)).unwrap();
        let err = loaded.load_shards(&manifest_path).unwrap_err();
        assert!(err.contains("torn"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_file_names_embed_shard_and_generation() {
        let p = shard_file(Path::new("/tmp/cp/checkpoint.json"), 3, 12);
        assert_eq!(p, Path::new("/tmp/cp/checkpoint.shard-3.g12.json"));
        let rel = shard_file(Path::new("state.json"), 0, 1);
        assert_eq!(rel, Path::new("state.shard-0.g1.json"));
    }
}
