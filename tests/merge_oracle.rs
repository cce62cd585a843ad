//! Oracles for the multiple-choice-knapsack frontier merge.
//!
//! 1. **A naive merge**, written from `merge_frontiers_weighted`'s doc
//!    comment over public types only: the canonical tree split at
//!    `lo + (hi − lo)/2`, a leaf list of "nothing" plus every point within
//!    the budget, the whole cross product of two children in `(li, ri)`
//!    order, a stable sort by `(memory, total_cmp cost)`, a
//!    strict-decrease prune and the even thinning at 4 096. The library —
//!    `merge_frontiers_weighted`, and `FrontierSet::merge`/`merge_at`
//!    along edit sequences — must agree with it on `allocations`,
//!    `total_memory` and the bits of `total_cost`, whatever it does
//!    inside a node.
//! 2. **A brute force** over every choice vector of small instances with
//!    integer costs: the DP's total is the feasible minimum.

use isel_core::{merge_frontiers_weighted, Frontier, FrontierMerge, FrontierPoint, FrontierSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `MERGE_STATE_CAP`, restated: the doc comment promises exactness below
/// it and an even thinning at it.
const CAP: usize = 4096;

// ---------------------------------------------------------------------
// The naive merge
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct State {
    memory: u64,
    cost: f64,
    left: usize,
    right: usize,
}

/// How equal `(memory, cost)` keys from different `(li, ri)` resolve.
/// `Reversed` is the deliberately wrong oracle the corpus must tell apart.
#[derive(Clone, Copy, PartialEq)]
enum TieBreak {
    LowerPairFirst,
    Reversed,
}

/// What the corpus exercised, counted inside the oracle.
#[derive(Default, Debug)]
struct Tally {
    thinned_nodes: usize,
    key_ties: usize,
    saturated_sums: usize,
}

struct Node {
    lo: usize,
    states: Vec<State>,
    children: Option<Box<(Node, Node)>>,
}

fn prune(mut all: Vec<State>, tie: TieBreak, tally: &mut Tally) -> Vec<State> {
    if tie == TieBreak::Reversed {
        all.reverse();
    }
    all.sort_by(|a, b| a.memory.cmp(&b.memory).then(a.cost.total_cmp(&b.cost)));
    tally.key_ties += all
        .windows(2)
        .filter(|w| w[0].memory == w[1].memory && w[0].cost.to_bits() == w[1].cost.to_bits())
        .count();
    let mut kept: Vec<State> = Vec::new();
    for s in all {
        if kept.last().is_none_or(|k| s.cost < k.cost) {
            kept.push(s);
        }
    }
    if kept.len() > CAP {
        tally.thinned_nodes += 1;
        let n = kept.len();
        kept = (0..CAP).map(|i| kept[i * (n - 1) / (CAP - 1)]).collect();
    }
    kept
}

fn build(
    parts: &[(f64, f64, &Frontier)],
    lo: usize,
    hi: usize,
    budget: u64,
    tie: TieBreak,
    tally: &mut Tally,
) -> Node {
    if hi - lo == 1 {
        let (weight, base_cost, frontier) = parts[lo];
        let mut all = vec![State { memory: 0, cost: weight * base_cost, left: 0, right: 0 }];
        all.extend(frontier.points().iter().filter(|p| p.memory <= budget).map(|p| State {
            memory: p.memory,
            cost: weight * p.cost,
            left: 0,
            right: 0,
        }));
        return Node { lo, states: prune(all, tie, tally), children: None };
    }
    let mid = lo + (hi - lo) / 2;
    let l = build(parts, lo, mid, budget, tie, tally);
    let r = build(parts, mid, hi, budget, tie, tally);
    let mut all = Vec::new();
    for (li, a) in l.states.iter().enumerate() {
        for (ri, b) in r.states.iter().enumerate() {
            let memory = a.memory.saturating_add(b.memory);
            if memory > budget {
                continue;
            }
            if a.memory.checked_add(b.memory).is_none() {
                tally.saturated_sums += 1;
            }
            all.push(State { memory, cost: a.cost + b.cost, left: li, right: ri });
        }
    }
    Node { lo, states: prune(all, tie, tally), children: Some(Box::new((l, r))) }
}

fn assign(node: &Node, state: usize, allocations: &mut [u64]) {
    let s = node.states[state];
    match &node.children {
        None => allocations[node.lo] = s.memory,
        Some(children) => {
            assign(&children.0, s.left, allocations);
            assign(&children.1, s.right, allocations);
        }
    }
}

fn naive_merge(
    parts: &[(f64, f64, &Frontier)],
    budget: u64,
    tie: TieBreak,
    tally: &mut Tally,
) -> FrontierMerge {
    if parts.is_empty() {
        return FrontierMerge { allocations: Vec::new(), total_memory: 0, total_cost: 0.0 };
    }
    let root = build(parts, 0, parts.len(), budget, tie, tally);
    let top = root.states.len() - 1;
    let mut allocations = vec![0u64; parts.len()];
    assign(&root, top, &mut allocations);
    FrontierMerge {
        allocations,
        total_memory: root.states[top].memory,
        total_cost: root.states[top].cost,
    }
}

fn same(got: &FrontierMerge, want: &FrontierMerge) -> bool {
    got.allocations == want.allocations
        && got.total_memory == want.total_memory
        && got.total_cost.to_bits() == want.total_cost.to_bits()
}

// ---------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Case {
    name: String,
    parts: Vec<(f64, f64, Frontier)>,
    budget: u64,
}

impl Case {
    fn borrowed(&self) -> Vec<(f64, f64, &Frontier)> {
        self.parts.iter().map(|(w, b, f)| (*w, *b, f)).collect()
    }
}

fn frontier(points: Vec<(u64, f64)>) -> Frontier {
    Frontier::new(points.into_iter().map(|(memory, cost)| FrontierPoint { memory, cost }).collect())
}

const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// What every run of the service produces: one to three points a group,
/// index sizes in bytes (no two sums collide), real-valued costs.
fn bytes_case(rng: &mut StdRng) -> Case {
    let n = rng.gen_range(1..=20usize);
    let mut ceiling = 0u64;
    let parts = (0..n)
        .map(|_| {
            let base: f64 = rng.gen_range(1e3..1e9);
            let points: Vec<(u64, f64)> = (0..rng.gen_range(1..=3))
                .map(|_| (rng.gen_range(1..=1u64 << 28), base * rng.gen_range(0.0..1.0)))
                .collect();
            ceiling += points.iter().map(|p| p.0).max().unwrap_or(0);
            (1.0, base, frontier(points))
        })
        .collect();
    let budget = (ceiling as f64 * rng.gen_range(0.05..1.1)) as u64;
    Case { name: "bytes".into(), parts, budget }
}

/// A shared memory grid with small-integer costs: many pairs share a
/// memory sum, many a cost, and many both — from different `(li, ri)`.
fn grid_case(rng: &mut StdRng) -> Case {
    let n = rng.gen_range(2..=12usize);
    let parts = (0..n)
        .map(|_| {
            let points = (0..rng.gen_range(1..=6))
                .map(|_| (1024 * rng.gen_range(1..=8u64), f64::from(rng.gen_range(0..=12u32))))
                .collect();
            (1.0, f64::from(rng.gen_range(8..=16u32)), frontier(points))
        })
        .collect();
    let budget = 1024 * rng.gen_range(0..=4 * n as u64);
    Case { name: "grid".into(), parts, budget }
}

/// Tenant weights in {0.5, 1, 2, 4} over integer costs, so differently
/// weighted parts still tie (`2·3 = 1·6`); memories mix the grid with
/// arbitrary bytes.
fn weighted_case(rng: &mut StdRng) -> Case {
    let n = rng.gen_range(2..=12usize);
    let mut ceiling = 0u64;
    let parts = (0..n)
        .map(|_| {
            let on_grid = rng.gen_bool(0.5);
            let points: Vec<(u64, f64)> = (0..rng.gen_range(1..=5))
                .map(|_| {
                    let memory = if on_grid {
                        4096 * rng.gen_range(1..=6u64)
                    } else {
                        rng.gen_range(1..=32_768u64)
                    };
                    (memory, f64::from(rng.gen_range(0..=24u32)))
                })
                .collect();
            ceiling += points.iter().map(|p| p.0).max().unwrap_or(0);
            let weight = WEIGHTS[rng.gen_range(0..WEIGHTS.len())];
            (weight, f64::from(rng.gen_range(16..=32u32)), frontier(points))
        })
        .collect();
    let budget = rng.gen_range(0..=ceiling);
    Case { name: "weighted".into(), parts, budget }
}

/// The ends of the budget axis: 0, 1, a budget some choice vector meets
/// exactly, and `u64::MAX` over memories whose sums saturate.
fn extreme_case(rng: &mut StdRng, i: usize) -> Case {
    const MEMORIES: [u64; 10] = [
        1,
        2,
        3,
        1 << 20,
        u64::MAX / 3,
        u64::MAX / 2,
        u64::MAX / 2 + 1,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
    ];
    let n = rng.gen_range(1..=6usize);
    let parts: Vec<(f64, f64, Frontier)> = (0..n)
        .map(|_| {
            let points = (0..rng.gen_range(1..=3))
                .map(|_| {
                    let memory = MEMORIES[rng.gen_range(0..MEMORIES.len())];
                    (memory, f64::from(rng.gen_range(0..=9u32)))
                })
                .collect();
            (1.0, f64::from(rng.gen_range(6..=12u32)), frontier(points))
        })
        .collect();
    let budget = match i % 4 {
        0 => 0,
        1 => 1,
        2 => parts.iter().fold(0u64, |sum, (_, _, f)| {
            let pts = f.points();
            let pick = rng.gen_range(0..=pts.len());
            sum.saturating_add(if pick == 0 { 0 } else { pts[pick - 1].memory })
        }),
        _ => u64::MAX,
    };
    Case { name: "extreme".into(), parts, budget }
}

/// The instance that engages the cap below the root. Thirteen one-point
/// parts with memories `2^i` and gains `3^i`: every subset has its own
/// memory sum and a larger sum always gains more, so all 8 192 subsets
/// are pareto and the 13-part left child of the 26-part tree is thinned.
/// The right child holds four small real parts and nine empty ones, so
/// the root has to choose among the *thinned* states.
fn cap_case() -> Case {
    let mut parts: Vec<(f64, f64, Frontier)> = (0..13u32)
        .map(|i| (1.0, 3f64.powi(i as i32), frontier(vec![(1 << i, 0.0)])))
        .collect();
    for i in 0..13u64 {
        let f = if i % 4 == 0 {
            frontier(vec![(300 + 77 * i, 40_000.0), (2_100 + 13 * i, 9_000.0)])
        } else {
            frontier(Vec::new())
        };
        parts.push((1.0, 90_000.0 + i as f64, f));
    }
    Case { name: "cap".into(), parts, budget: 6_000 }
}

fn random_cases() -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0x6d65_7267);
    let mut cases = Vec::new();
    for i in 0..64 {
        cases.push(bytes_case(&mut rng));
        cases.push(grid_case(&mut rng));
        cases.push(weighted_case(&mut rng));
        cases.push(extreme_case(&mut rng, i));
    }
    for (i, c) in cases.iter_mut().enumerate() {
        c.name = format!("{} #{i}", c.name);
    }
    cases
}

fn corpus() -> Vec<Case> {
    let mut cases = random_cases();
    cases.push(cap_case());
    cases
}

/// Names of the corpus cases where the library and the naive merge under
/// `tie` disagree, plus what the naive merge met on the way.
fn disagreements(tie: TieBreak) -> (Vec<String>, Tally) {
    let mut tally = Tally::default();
    let mut bad = Vec::new();
    for case in corpus() {
        let parts = case.borrowed();
        let want = naive_merge(&parts, case.budget, tie, &mut tally);
        let got = merge_frontiers_weighted(&parts, case.budget);
        if !same(&got, &want) {
            bad.push(format!("{}: library {got:?}, oracle {want:?}", case.name));
        }
    }
    (bad, tally)
}

#[test]
fn full_merge_equals_the_naive_merge() {
    let (bad, _) = disagreements(TieBreak::LowerPairFirst);
    assert!(bad.is_empty(), "{} cases disagree, first: {}", bad.len(), bad[0]);
}

#[test]
fn corpus_is_not_vacuous() {
    assert!(corpus().len() > 256);
    let (_, tally) = disagreements(TieBreak::LowerPairFirst);
    assert!(tally.thinned_nodes >= 1, "no node reached the cap: {tally:?}");
    assert!(tally.key_ties >= 100, "too few exact (memory, cost) ties: {tally:?}");
    assert!(tally.saturated_sums >= 1, "no memory sum saturated: {tally:?}");
    // The ties are load-bearing: an oracle that resolves them the other
    // way round no longer describes the library.
    let (bad, _) = disagreements(TieBreak::Reversed);
    assert!(!bad.is_empty(), "the corpus cannot tell the (li, ri) tie-break from its reverse");
}

#[test]
fn frontier_set_equals_the_naive_merge_along_edit_sequences() {
    let mut rng = StdRng::seed_from_u64(0x7365_7175);
    for case in random_cases() {
        let mut set = FrontierSet::new(case.budget);
        // Sparse keys in part order, so sorted key order is part order.
        let mut live: Vec<(u64, (f64, f64, Frontier))> = Vec::new();
        let check = |set: &mut FrontierSet, live: &[(u64, (f64, f64, Frontier))], what: &str| {
            let parts: Vec<(f64, f64, &Frontier)> =
                live.iter().map(|(_, (w, b, f))| (*w, *b, f)).collect();
            let budget = set.budget();
            let mut tally = Tally::default();
            let want = naive_merge(&parts, budget, TieBreak::LowerPairFirst, &mut tally);
            let got = set.merge();
            assert!(same(&got.merge, &want), "{} after {what}: {got:?} vs {want:?}", case.name);
            assert_eq!(got.parts as usize, live.len());
            let probe = budget / 3;
            let want = naive_merge(&parts, probe, TieBreak::LowerPairFirst, &mut tally);
            assert!(same(&set.merge_at(probe), &want), "{} merge_at after {what}", case.name);
        };
        for (i, part) in case.parts.iter().enumerate() {
            set.upsert(7 * i as u64 + 3, part.0, part.1, part.2.clone());
            live.push((7 * i as u64 + 3, part.clone()));
        }
        check(&mut set, &live, "build");
        for _ in 0..6 {
            match rng.gen_range(0..4u32) {
                // Republish one group with another's numbers: the
                // incremental path, one leaf-to-root walk.
                0 | 1 => {
                    let to = rng.gen_range(0..live.len());
                    let from = rng.gen_range(0..case.parts.len());
                    let (w, b, f) = case.parts[from].clone();
                    let changed = set.upsert(live[to].0, w, b, f.clone());
                    let (ow, ob, of) = &live[to].1;
                    let clean =
                        ow.to_bits() == w.to_bits() && ob.to_bits() == b.to_bits() && *of == f;
                    assert_eq!(changed, !clean);
                    live[to].1 = (w, b, f);
                    check(&mut set, &live, "upsert");
                }
                2 if live.len() > 1 => {
                    let at = rng.gen_range(0..live.len());
                    assert!(set.remove(live.remove(at).0));
                    check(&mut set, &live, "remove");
                }
                _ => {
                    let budget = match rng.gen_range(0..3u32) {
                        0 => case.budget / 2,
                        1 => case.budget.saturating_add(case.budget / 2),
                        _ => case.budget,
                    };
                    set.set_budget(budget);
                    check(&mut set, &live, "set_budget");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Brute force (ROADMAP 4(a))
// ---------------------------------------------------------------------

/// ≤ 6 parts × ≤ 4 points, integer-valued costs below 2⁴⁰ and weights in
/// {0.5, 1, 2, 4}: every sum is exact, so "the minimum" has one value
/// whatever order it is added up in.
fn small_case(rng: &mut StdRng) -> Case {
    let n = rng.gen_range(1..=6usize);
    let wide = rng.gen_bool(0.5);
    let mut ceiling = 0u64;
    let parts = (0..n)
        .map(|_| {
            let top = if wide { 1u64 << 40 } else { 16 };
            let points: Vec<(u64, f64)> = (0..rng.gen_range(0..=4))
                .map(|_| (rng.gen_range(1..=64u64), rng.gen_range(0..top) as f64))
                .collect();
            ceiling += points.iter().map(|p| p.0).max().unwrap_or(0);
            let weight = WEIGHTS[rng.gen_range(0..WEIGHTS.len())];
            (weight, rng.gen_range(0..top) as f64, frontier(points))
        })
        .collect();
    Case { name: "small".into(), parts, budget: rng.gen_range(0..=ceiling + 1) }
}

#[test]
fn dp_total_is_the_brute_force_minimum() {
    let mut rng = StdRng::seed_from_u64(0x6272_7574);
    for i in 0..300 {
        let case = small_case(&mut rng);
        let got = merge_frontiers_weighted(&case.borrowed(), case.budget);

        // Every choice vector: digit 0 of a part is "nothing", digit k
        // its k-th frontier point.
        let mut best = f64::INFINITY;
        let mut digits = vec![0usize; case.parts.len()];
        'vectors: loop {
            let mut memory = 0u64;
            let mut cost = 0.0;
            for (&d, (w, base, f)) in digits.iter().zip(&case.parts) {
                if d == 0 {
                    cost += w * base;
                } else {
                    memory += f.points()[d - 1].memory;
                    cost += w * f.points()[d - 1].cost;
                }
            }
            if memory <= case.budget && cost < best {
                best = cost;
            }
            for (d, (_, _, f)) in digits.iter_mut().zip(&case.parts) {
                *d += 1;
                if *d <= f.points().len() {
                    continue 'vectors;
                }
                *d = 0;
            }
            break;
        }

        assert_eq!(got.total_cost, best, "case {i}: {case:?}");
        assert_eq!(got.allocations.iter().sum::<u64>(), got.total_memory, "case {i}");
        assert!(got.total_memory <= case.budget, "case {i}");
        let mut implied = 0.0;
        for (&a, (w, base, f)) in got.allocations.iter().zip(&case.parts) {
            implied += match f.points().iter().find(|p| p.memory == a) {
                Some(p) => w * p.cost,
                None => {
                    assert_eq!(a, 0, "case {i}: allocation {a} is no point of its part");
                    w * base
                }
            };
        }
        assert_eq!(implied, got.total_cost, "case {i}: the allocations cost what the DP says");
    }
}
