//! `WhatIfOptimizer::workload_cost` against Eq. 1 written out.
//!
//! [`naive_workload_cost`] is `F(I*) = Σⱼ bⱼ · f_j(I*)` with the whole
//! configuration handed to every query's `config_cost`, queries in
//! ascending id. The trait's `workload_cost` may cost a query against
//! less (only what can touch it), but it must give the same bits and
//! leave the oracle in the same state: after every call the two sides'
//! `stats()` and `cache_stats()` agree, so no what-if request is added,
//! dropped or turned from a miss into a hit.
//!
//! The workloads span one to four tables with update templates; with
//! two or more, one table has no query at all. Every workload is costed against a
//! sequence of configurations — empty, random (duplicates included, on
//! any table), every single-attribute index of the schema, and the
//! random one again on a warm cache — through four oracles: the bare
//! analytical model, the cached analytical stack the CLI uses, the
//! prefix-keyed ledger `table1`'s CoPhy uses, and the service's
//! calibrated stack with learned ratios.

use isel_costmodel::{
    AnalyticalWhatIf, CachingWhatIf, CalibratedWhatIf, RatioTable, TemplateProbe, WhatIfOptimizer,
};
use isel_workload::{AttrId, Index, IndexId, Query, SchemaBuilder, TableId, Workload};
use rand::prelude::*;

const CASES: u64 = 128;

fn naive_workload_cost<W: WhatIfOptimizer>(est: &W, config: &[IndexId]) -> f64 {
    est.workload().iter().map(|(j, q)| q.frequency() as f64 * est.config_cost(j, config)).sum()
}

/// What the corpus exercised, so the oracle is not vacuous.
#[derive(Default)]
struct Coverage {
    /// (update query, index on its table) pairs costed.
    update_pairs: usize,
    /// (query, index on another table) pairs costed.
    other_table_pairs: usize,
    /// Configurations holding one index twice.
    duplicated: usize,
    /// Configurations holding an index on a table no query reads.
    queryless: usize,
    /// Warm calibrated oracles.
    calibrated: usize,
}

/// A random workload and the table none of its queries reads.
fn workload(rng: &mut StdRng) -> (Workload, Vec<Vec<AttrId>>, usize) {
    let mut b = SchemaBuilder::new();
    let tables = rng.gen_range(1..=4usize);
    let mut attrs = Vec::new();
    let mut next = 0u32;
    for t in 0..tables {
        let rows = *[1_000u64, 50_000, 400_000].choose(rng).unwrap();
        let tid = b.table(&format!("t{t}"), rows);
        let width = rng.gen_range(2..=6usize);
        let mut ids = Vec::new();
        for i in 0..width {
            let distinct = *[2u64, 10, 1_000, 100_000].choose(rng).unwrap();
            let size = *[1u32, 4, 8].choose(rng).unwrap();
            b.attribute(tid, &format!("t{t}_a{i}"), distinct.min(rows), size);
            ids.push(AttrId(next));
            next += 1;
        }
        attrs.push(ids);
    }
    // With one table, every query reads it; otherwise one table is left
    // without queries.
    let queryless = if tables > 1 { rng.gen_range(0..tables) } else { usize::MAX };
    let read: Vec<usize> = (0..tables).filter(|&t| t != queryless).collect();
    let queries = (0..rng.gen_range(1..16))
        .map(|_| {
            let t = *read.choose(rng).unwrap();
            let mut picked = attrs[t].clone();
            picked.shuffle(rng);
            picked.truncate(rng.gen_range(1..=4usize.min(picked.len())));
            picked.sort_unstable();
            let freq = *[1u64, 10, 100, 500].choose(rng).unwrap();
            if rng.gen_bool(0.3) {
                Query::update(TableId(t as u16), picked, freq)
            } else {
                Query::new(TableId(t as u16), picked, freq)
            }
        })
        .collect();
    (Workload::new(b.finish(), queries), attrs, queryless)
}

/// Random indexes over any table, one of them sometimes repeated.
fn random_config(rng: &mut StdRng, attrs: &[Vec<AttrId>]) -> Vec<Index> {
    let mut config: Vec<Index> = (0..rng.gen_range(1..=10))
        .map(|_| {
            let mut picked = attrs.choose(rng).unwrap().clone();
            picked.shuffle(rng);
            picked.truncate(rng.gen_range(1..=3usize.min(picked.len())));
            Index::new(picked)
        })
        .collect();
    if rng.gen_bool(0.4) {
        let again = config.choose(rng).unwrap().clone();
        let at = rng.gen_range(0..=config.len());
        config.insert(at, again);
    }
    config
}

/// Warm ratios for a calibrated oracle: each template observed at a
/// multiple of its estimate, unindexed or under its own leading index.
fn probes(w: &Workload, rng: &mut StdRng) -> Vec<TemplateProbe> {
    let est = AnalyticalWhatIf::new(w);
    w.iter()
        .filter_map(|(j, q)| {
            if !rng.gen_bool(0.6) {
                return None;
            }
            let factor = *[0.25, 0.5, 3.0, 7.0].choose(rng).unwrap();
            let index = rng.gen_bool(0.5).then(|| q.attrs()[..1].to_vec());
            let estimate = match &index {
                None => est.unindexed_cost(j),
                Some(k) => est.index_cost_of(j, &Index::new(k.clone())).unwrap(),
            };
            Some(TemplateProbe {
                kind: q.kind(),
                attrs: q.attrs().to_vec(),
                index,
                observed_mean: estimate * factor,
            })
        })
        .collect()
}

/// Cost every configuration through a fresh pair of oracles, the trait's
/// `workload_cost` on one and the naive sum on the other.
fn check<W: WhatIfOptimizer>(name: &str, seed: u64, make: impl Fn() -> W, configs: &[Vec<Index>]) {
    let (fast, naive) = (make(), make());
    for (n, config) in configs.iter().enumerate() {
        let ids = |est: &W| config.iter().map(|k| est.pool().intern(k)).collect::<Vec<_>>();
        let got = fast.workload_cost(&ids(&fast));
        let want = naive_workload_cost(&naive, &ids(&naive));
        let at = format!("{name}, seed {seed}, config {n} {config:?}");
        assert_eq!(got.to_bits(), want.to_bits(), "{at}: cost {got} vs {want}");
        assert_eq!(fast.stats(), naive.stats(), "{at}: stats");
        assert_eq!(fast.cache_stats(), naive.cache_stats(), "{at}: cache stats");
    }
}

fn note(cov: &mut Coverage, w: &Workload, config: &[Index], queryless: usize) {
    let table = |k: &Index| w.schema().attribute(k.leading()).table;
    for (_, q) in w.iter() {
        for k in config {
            if table(k) != q.table() {
                cov.other_table_pairs += 1;
            } else if q.is_update() {
                cov.update_pairs += 1;
            }
        }
    }
    if config.iter().enumerate().any(|(i, k)| config[..i].contains(k)) {
        cov.duplicated += 1;
    }
    if config.iter().any(|k| table(k).idx() == queryless) {
        cov.queryless += 1;
    }
}

#[test]
fn workload_cost_matches_the_per_query_sum() {
    let mut cov = Coverage::default();
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (w, attrs, queryless) = workload(&mut rng);
        let random = random_config(&mut rng, &attrs);
        let singles: Vec<Index> = attrs.iter().flatten().map(|&a| Index::single(a)).collect();
        let configs = [Vec::new(), random.clone(), singles, random];
        for config in &configs {
            note(&mut cov, &w, config, queryless);
        }
        check("bare", seed, || AnalyticalWhatIf::new(&w), &configs);
        check("cached", seed, || CachingWhatIf::new(AnalyticalWhatIf::new(&w)), &configs);
        let prefix_keyed = || CachingWhatIf::prefix_keyed(AnalyticalWhatIf::new(&w));
        check("prefix-keyed", seed, prefix_keyed, &configs);
        let probes = probes(&w, &mut rng);
        let calibrated = || {
            let inner = AnalyticalWhatIf::new(&w);
            let ratios = RatioTable::build(&inner, &probes);
            CachingWhatIf::new(CalibratedWhatIf::new(inner, ratios))
        };
        if !RatioTable::build(&AnalyticalWhatIf::new(&w), &probes).is_empty() {
            cov.calibrated += 1;
        }
        check("calibrated", seed, calibrated, &configs);
    }
    assert!(cov.update_pairs > 1_000, "update pairs {}", cov.update_pairs);
    assert!(cov.other_table_pairs > 1_000, "other-table pairs {}", cov.other_table_pairs);
    assert!(cov.duplicated > 50, "duplicated configs {}", cov.duplicated);
    assert!(cov.queryless > 100, "configs on query-less tables {}", cov.queryless);
    assert!(cov.calibrated > 100, "warm calibrated oracles {}", cov.calibrated);
}
