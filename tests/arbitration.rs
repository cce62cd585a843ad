//! Frontier-arbitration integration tests.
//!
//! Pins the two load-bearing contracts of the live global-budget merge:
//!
//! 1. **Incremental ≡ full** — `FrontierSet::merge` over any sequence of
//!    upserts, removals and budget changes is bit-identical to a
//!    from-scratch `merge_frontiers_weighted` over the same parts
//!    (property-based, shadowing the set with a plain map).
//! 2. **Checkpoints carry frontiers** — a router restored from a
//!    checkpoint manifest at a *different* shard count answers
//!    `whatif`/`tenant` queries byte-identically to the run that wrote
//!    the checkpoint, before consuming a single new event.

use isel_core::{merge_frontiers_weighted, Frontier, FrontierPoint, FrontierSet};
use isel_service::{OverloadPolicy, Router, ServiceConfig};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::Workload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::Cursor;

// ---------------------------------------------------------------------
// 1. Incremental merge ≡ full merge (property-based)
// ---------------------------------------------------------------------

/// One scripted mutation of the set and its shadow map.
#[derive(Clone, Debug)]
enum Op {
    Upsert { key: u64, weight: f64, base_cost: f64, points: Vec<(u64, u32)> },
    Remove { key: u64 },
    SetBudget { budget: u64 },
    Merge,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        0u32..9,
        0u64..8,
        1u32..=8,
        0u32..2000,
        proptest::collection::vec((1u64..1_048_576, 0u32..2000), 0..10),
    )
        .prop_map(|(sel, key, w, base, points)| match sel {
            0..=4 => Op::Upsert {
                key,
                weight: f64::from(w) / 2.0,
                base_cost: f64::from(base),
                points,
            },
            5 => Op::Remove { key },
            6 => Op::SetBudget { budget: u64::from(base) * 1024 },
            _ => Op::Merge,
        })
}

fn frontier_of(points: &[(u64, u32)]) -> Frontier {
    Frontier::new(
        points
            .iter()
            .map(|&(memory, cost)| FrontierPoint { memory, cost: f64::from(cost) })
            .collect(),
    )
}

/// Full reference merge over the shadow parts in sorted key order.
fn reference(
    shadow: &BTreeMap<u64, (f64, f64, Frontier)>,
    budget: u64,
) -> isel_core::FrontierMerge {
    let parts: Vec<(f64, f64, &Frontier)> =
        shadow.values().map(|(w, b, f)| (*w, *b, f)).collect();
    merge_frontiers_weighted(&parts, budget)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_merge_is_bit_identical_to_full(
        budget in 1u64..2_097_152,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut set = FrontierSet::new(budget);
        let mut shadow: BTreeMap<u64, (f64, f64, Frontier)> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Upsert { key, weight, base_cost, points } => {
                    let f = frontier_of(&points);
                    let changed = set.upsert(key, weight, base_cost, f.clone());
                    let clean = shadow.get(&key)
                        .is_some_and(|(w, b, old)| {
                            w.to_bits() == weight.to_bits()
                                && b.to_bits() == base_cost.to_bits()
                                && *old == f
                        });
                    prop_assert_eq!(changed, !clean);
                    shadow.insert(key, (weight, base_cost, f));
                }
                Op::Remove { key } => {
                    prop_assert_eq!(set.remove(key), shadow.remove(&key).is_some());
                }
                Op::SetBudget { budget } => set.set_budget(budget),
                Op::Merge => {
                    let out = set.merge();
                    let want = reference(&shadow, set.budget());
                    prop_assert_eq!(&out.merge.allocations, &want.allocations);
                    prop_assert_eq!(out.merge.total_memory, want.total_memory);
                    prop_assert_eq!(
                        out.merge.total_cost.to_bits(),
                        want.total_cost.to_bits()
                    );
                    prop_assert_eq!(set.dirty_len(), 0);
                }
            }
        }
        // Final merge plus non-mutating what-ifs at probe budgets.
        let out = set.merge();
        let want = reference(&shadow, set.budget());
        prop_assert_eq!(&out.merge.allocations, &want.allocations);
        prop_assert_eq!(out.merge.total_cost.to_bits(), want.total_cost.to_bits());
        for probe in [0, 4096, budget / 2, budget] {
            let got = set.merge_at(probe);
            let want = reference(&shadow, probe);
            prop_assert_eq!(&got.allocations, &want.allocations);
            prop_assert_eq!(got.total_memory, want.total_memory);
            prop_assert_eq!(got.total_cost.to_bits(), want.total_cost.to_bits());
        }
    }
}

// ---------------------------------------------------------------------
// 2. Checkpointed frontiers answer what-ifs across shard counts
// ---------------------------------------------------------------------

fn workload() -> Workload {
    synthetic::generate(&SyntheticConfig {
        tables: 3,
        attrs_per_table: 8,
        queries_per_table: 10,
        rows_base: 40_000,
        max_query_width: 3,
        update_fraction: 0.1,
        seed: 177,
    })
}

fn config(shards: u32) -> ServiceConfig {
    ServiceConfig {
        epoch_events: 8,
        window_epochs: 2,
        max_templates: 64,
        drift: isel_service::DriftThresholds::always_adapt(),
        shards,
        ..ServiceConfig::default()
    }
}

fn sample_log(w: &Workload, n: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = w.total_frequency();
    let mut out = String::new();
    for _ in 0..n {
        let mut pick = rng.gen_range(0..total);
        let q = w
            .queries()
            .iter()
            .find(|q| {
                if pick < q.frequency() {
                    true
                } else {
                    pick -= q.frequency();
                    false
                }
            })
            .expect("pick < total");
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        let kind = if q.is_update() { r#","kind":"Update""# } else { "" };
        out.push_str(&format!(
            "{{\"table\":{},\"attrs\":[{}]{kind}}}\n",
            q.table().0,
            attrs.join(",")
        ));
    }
    out
}

#[test]
fn restored_frontiers_answer_whatif_byte_identically_at_any_shard_count() {
    let w = workload();
    let log = sample_log(&w, 96, 23);
    let dir = std::env::temp_dir().join(format!("isel-arb-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("checkpoint.json");

    let mut writer = Router::new(w.schema().clone(), config(2)).unwrap();
    writer
        .run_reader(Cursor::new(log), OverloadPolicy::Block, Some(&manifest), &[])
        .unwrap();
    let budgets = [0, 4096, 1 << 20, writer.arbiter().budget()];
    let whatifs: Vec<String> = budgets.iter().map(|&b| writer.arbiter().whatif(b)).collect();
    let tenants: Vec<String> = (0..3).map(|t| writer.arbiter().tenant(t, 1 << 20)).collect();
    assert!(writer.arbiter().parts() > 0, "the run published frontiers");

    for shards in [1u32, 3] {
        // Restoring alone (no new events) must already answer queries:
        // the checkpoint carries the published frontiers themselves.
        let resumed = Router::resume(w.schema().clone(), config(shards), &manifest).unwrap();
        assert_eq!(resumed.arbiter().parts(), writer.arbiter().parts());
        for (b, want) in budgets.iter().zip(&whatifs) {
            assert_eq!(
                &resumed.arbiter().whatif(*b),
                want,
                "whatif at {b} B differs after resume at {shards} shards"
            );
        }
        for (t, want) in tenants.iter().enumerate() {
            assert_eq!(
                &resumed.arbiter().tenant(t as u16, 1 << 20),
                want,
                "tenant t{t} answer differs after resume at {shards} shards"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restored_daemon_answers_whatif_byte_identically() {
    let w = workload();
    let log = sample_log(&w, 64, 29);
    let dir = std::env::temp_dir().join(format!("isel-arb-daemon-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("daemon.json");

    let mut writer = Router::new(w.schema().clone(), config(0)).unwrap();
    writer.run_reader(Cursor::new(log), OverloadPolicy::Block, Some(&path), &[]).unwrap();
    let resumed = Router::resume(w.schema().clone(), config(0), &path).unwrap();
    for b in [0u64, 4096, 1 << 20, writer.arbiter().budget()] {
        assert_eq!(resumed.arbiter().whatif(b), writer.arbiter().whatif(b));
    }
    std::fs::remove_dir_all(&dir).ok();
}
