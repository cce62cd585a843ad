//! Measurement harness: feed selection models with *executed* costs.
//!
//! Section IV-B: "we ran all evaluations without relying on what-if or
//! other optimizer-based estimations but executed all queries one after
//! another […] we also created all index candidates one after another and
//! executed all queries for every candidate. These measured runtimes are
//! then used (instead of what-if estimations) to feed the model's cost
//! parameters."
//!
//! [`LiveWhatIf`] measures *on demand*: whichever index a selection
//! algorithm asks about is built and executed, so Algorithm 1 — which
//! does not enumerate candidates in advance — runs on measured costs as
//! well as the candidate-set strategies do. It measures on every
//! question; wrapped in the ledger,
//! [`CachingWhatIf`](isel_costmodel::CachingWhatIf), it is the table of
//! measured costs the paper feeds its models, filled as it is asked and
//! measuring each distinct question once.

use crate::database::Database;
use crate::exec::BoundQuery;
use isel_costmodel::WhatIfOptimizer;
use isel_workload::{IndexId, IndexPool, QueryId, Workload};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which measurement becomes the cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostMetric {
    /// Deterministic work counters ([`crate::exec::Work::cost_units`]): perfectly
    /// reproducible, same units as the analytical model.
    WorkUnits,
    /// Wall-clock nanoseconds, minimum over the configured repetitions —
    /// the paper's actual-runtime mode.
    WallTime,
}

/// Measurement configuration.
#[derive(Clone, Copy, Debug)]
pub struct MeasureConfig {
    /// Distinct literal bindings sampled per query template (costs are
    /// averaged across bindings).
    pub bindings_per_query: usize,
    /// Executions per binding for [`CostMetric::WallTime`] (the paper uses
    /// ≥ 100; scale down for quick runs). Ignored for work units.
    pub repetitions: usize,
    /// Cost metric.
    pub metric: CostMetric,
    /// Seed for binding sampling.
    pub seed: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        Self {
            bindings_per_query: 3,
            repetitions: 3,
            metric: CostMetric::WorkUnits,
            seed: 0xD8,
        }
    }
}

/// Sample per-query bindings once so every configuration is measured on
/// identical parameters.
fn sample_bindings(db: &Database, workload: &Workload, cfg: &MeasureConfig) -> Vec<Vec<BoundQuery>> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    workload
        .queries()
        .iter()
        .map(|q| {
            (0..cfg.bindings_per_query.max(1))
                .map(|_| db.bind_from_row(q, &mut rng))
                .collect()
        })
        .collect()
}

/// Cost of one binding under the given index mask.
fn cost_once(db: &Database, bq: &BoundQuery, mask: &[bool], cfg: &MeasureConfig) -> f64 {
    match cfg.metric {
        CostMetric::WorkUnits => db.execute_with(bq, mask).work.cost_units(),
        CostMetric::WallTime => {
            let mut best = f64::INFINITY;
            for _ in 0..cfg.repetitions.max(1) {
                let r = db.execute_with(bq, mask);
                best = best.min(r.elapsed.as_nanos() as f64);
            }
            best
        }
    }
}

/// Average cost of a query template (over its bindings) under a mask.
fn template_cost(
    db: &Database,
    bindings: &[BoundQuery],
    mask: &[bool],
    cfg: &MeasureConfig,
) -> f64 {
    let total: f64 = bindings.iter().map(|b| cost_once(db, b, mask, cfg)).sum();
    total / bindings.len() as f64
}

/// On-demand measuring what-if oracle: builds and measures whichever index
/// it is asked about. Lets candidate-free algorithms (Algorithm 1) run
/// against measured costs; callers put the ledger on top,
/// `CachingWhatIf::new(LiveWhatIf::new(..))`, so each distinct question is
/// measured once.
pub struct LiveWhatIf {
    workload: Workload,
    pool: IndexPool,
    cfg: MeasureConfig,
    bindings: Vec<Vec<BoundQuery>>,
    db: Mutex<Database>,
}

impl LiveWhatIf {
    /// Wrap a populated database.
    pub fn new(db: Database, workload: Workload, cfg: MeasureConfig) -> Self {
        let bindings = sample_bindings(&db, &workload, &cfg);
        let pool = IndexPool::new(workload.schema());
        Self { workload, pool, cfg, bindings, db: Mutex::new(db) }
    }

    /// Number of distinct indexes built so far.
    pub fn indexes_built(&self) -> usize {
        self.db.lock().indexes().len()
    }
}

impl WhatIfOptimizer for LiveWhatIf {
    fn workload(&self) -> &Workload {
        &self.workload
    }

    fn pool(&self) -> &IndexPool {
        &self.pool
    }

    fn unindexed_cost(&self, query: QueryId) -> f64 {
        let db = self.db.lock();
        let mask = vec![false; db.indexes().len()];
        template_cost(&db, &self.bindings[query.idx()], &mask, &self.cfg)
    }

    fn index_cost(&self, query: QueryId, index: IndexId) -> Option<f64> {
        // Checked here as well as in the ledger: an inapplicable pair must
        // build no index, whoever asks.
        if !self.pool.applicable_to(self.workload.query(query), index) {
            return None;
        }
        let mut db = self.db.lock();
        let pos = db.create_index(&self.pool.resolve(index));
        let mut mask = vec![false; db.indexes().len()];
        mask[pos] = true;
        Some(template_cost(&db, &self.bindings[query.idx()], &mask, &self.cfg))
    }

    fn index_memory(&self, index: IndexId) -> u64 {
        let mut db = self.db.lock();
        let pos = db.create_index(&self.pool.resolve(index));
        db.indexes()[pos].memory_bytes()
    }

    fn maintenance_cost(&self, index: IndexId) -> f64 {
        let mut db = self.db.lock();
        let pos = db.create_index(&self.pool.resolve(index));
        db.indexes()[pos].maintenance_work().cost_units()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_costmodel::CachingWhatIf;
    use isel_workload::{AttrId, Index, Query, SchemaBuilder, TableId};

    fn fixture() -> (Database, Workload) {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 2_000);
        let a0 = b.attribute(t, "a0", 100, 4);
        let a1 = b.attribute(t, "a1", 10, 4);
        let schema = b.finish();
        let w = Workload::new(
            schema.clone(),
            vec![
                Query::new(TableId(0), vec![a0, a1], 5),
                Query::new(TableId(0), vec![a1], 2),
            ],
        );
        (Database::populate(&schema, 77), w)
    }

    /// The measured cost table: the ledger over a live oracle.
    fn table() -> CachingWhatIf<LiveWhatIf> {
        let (db, w) = fixture();
        CachingWhatIf::new(LiveWhatIf::new(db, w, MeasureConfig::default()))
    }

    #[test]
    fn measured_table_prefers_indexes_for_selective_queries() {
        let table = table();
        let k = Index::single(AttrId(0));
        let f0 = table.unindexed_cost(QueryId(0));
        let fk = table.index_cost_of(QueryId(0), &k).unwrap();
        assert!(fk < f0, "fk={fk} f0={f0}");
        // Query 1 does not access a0 → no entry.
        assert_eq!(table.index_cost_of(QueryId(1), &k), None);
    }

    #[test]
    fn measured_memory_is_recorded() {
        let table = table();
        let k = Index::new(vec![AttrId(0), AttrId(1)]);
        // 2000 rows: 4·2000 row ids + (4+4)·2000 keys.
        assert_eq!(table.index_memory_of(&k), 8_000 + 16_000);
    }

    #[test]
    fn live_oracle_builds_indexes_on_demand() {
        let (db, w) = fixture();
        let live = CachingWhatIf::new(LiveWhatIf::new(db, w, MeasureConfig::default()));
        assert_eq!(live.inner().indexes_built(), 0);
        let c1 = live.index_cost_of(QueryId(0), &Index::single(AttrId(0))).unwrap();
        assert_eq!(live.inner().indexes_built(), 1);
        let c2 = live.index_cost_of(QueryId(0), &Index::single(AttrId(0))).unwrap();
        assert_eq!(c1, c2);
        let s = live.stats();
        assert_eq!(s.calls_issued, 1);
        assert_eq!(s.calls_answered_from_cache, 1);
    }

    #[test]
    fn live_oracle_rejects_inapplicable_indexes_without_building() {
        let (db, w) = fixture();
        let live = LiveWhatIf::new(db, w, MeasureConfig::default());
        assert_eq!(live.index_cost_of(QueryId(1), &Index::single(AttrId(0))), None);
        assert_eq!(live.indexes_built(), 0);
    }

    #[test]
    fn live_maintenance_cost_is_measured_from_the_built_index() {
        let (db, w) = fixture();
        let live = LiveWhatIf::new(db, w, MeasureConfig::default());
        let k = Index::new(vec![AttrId(0), AttrId(1)]);
        let m = live.maintenance_cost_of(&k);
        assert!(m > 0.0);
        // Wider indexes are costlier to maintain.
        let m1 = live.maintenance_cost_of(&Index::single(AttrId(0)));
        assert!(m > m1);
    }

    #[test]
    fn work_units_are_deterministic_across_harness_runs() {
        // Two tables over two databases populated from the same seed.
        let (t1, t2) = (table(), table());
        let k = Index::single(AttrId(1));
        assert_eq!(t1.index_cost_of(QueryId(1), &k), t2.index_cost_of(QueryId(1), &k));
        assert_eq!(t1.unindexed_cost(QueryId(0)), t2.unindexed_cost(QueryId(0)));
    }
}
