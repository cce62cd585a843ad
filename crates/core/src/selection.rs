//! Selections, performance/memory frontiers, and the incremental
//! multi-part frontier merge ([`FrontierSet`]).

use isel_costmodel::WhatIfOptimizer;
use isel_workload::Index;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashSet};

/// An index selection `I*`: a duplicate-free set of multi-attribute
/// indexes.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Selection {
    indexes: Vec<Index>,
}

impl Selection {
    /// Empty selection.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Selection from a list of indexes (duplicates removed, order kept:
    /// the first occurrence of each index stays where it was).
    pub fn from_indexes(mut indexes: Vec<Index>) -> Self {
        let first_occurrence: Vec<bool> = {
            let mut seen = HashSet::with_capacity(indexes.len());
            indexes.iter().map(|k| seen.insert(k)).collect()
        };
        let mut keep = first_occurrence.into_iter();
        indexes.retain(|_| keep.next().expect("one flag per index"));
        Self { indexes }
    }

    /// The indexes of the selection.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Number of indexes `|I*|`.
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// Whether the selection is empty.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Whether an identical index is part of the selection.
    pub fn contains(&self, index: &Index) -> bool {
        self.indexes.contains(index)
    }

    /// Add an index; returns `false` if it was already present.
    pub fn insert(&mut self, index: Index) -> bool {
        if self.contains(&index) {
            return false;
        }
        self.indexes.push(index);
        true
    }

    /// Remove an index; returns whether it was present.
    pub fn remove(&mut self, index: &Index) -> bool {
        match self.indexes.iter().position(|k| k == index) {
            Some(pos) => {
                self.indexes.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Replace `old` by `new` (the morphing step); panics if `old` is
    /// absent or `new` already present.
    pub fn replace(&mut self, old: &Index, new: Index) {
        let pos = self
            .indexes
            .iter()
            .position(|k| k == old)
            .expect("replace: old index not in selection");
        assert!(!self.contains(&new), "replace: new index already present");
        self.indexes[pos] = new;
    }

    /// Total memory `P(I*) = Σ p_k` (Eq. 2).
    pub fn memory(&self, est: &impl WhatIfOptimizer) -> u64 {
        self.indexes.iter().map(|k| est.index_memory_of(k)).sum()
    }

    /// Total workload cost `F(I*)` (Eq. 1) under the estimator's
    /// configuration semantics.
    pub fn cost(&self, est: &impl WhatIfOptimizer) -> f64 {
        est.workload_cost_of(&self.indexes)
    }

    /// The selection's indexes interned through the estimator's pool —
    /// the boundary crossing into id-keyed costing.
    pub fn ids(&self, est: &impl WhatIfOptimizer) -> Vec<isel_workload::IndexId> {
        self.indexes.iter().map(|k| est.pool().intern(k)).collect()
    }
}

impl FromIterator<Index> for Selection {
    fn from_iter<T: IntoIterator<Item = Index>>(iter: T) -> Self {
        Self::from_indexes(iter.into_iter().collect())
    }
}

/// One performance/memory point.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FrontierPoint {
    /// Memory used (bytes).
    pub memory: u64,
    /// Total workload cost at that memory.
    pub cost: f64,
}

/// A performance/memory frontier: the per-step points of Algorithm 1, or a
/// budget sweep of any other strategy.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Frontier {
    points: Vec<FrontierPoint>,
}

impl Frontier {
    /// Frontier from raw points (sorted by memory, pruned to be
    /// non-increasing in cost — dominated points are dropped).
    pub fn new(mut points: Vec<FrontierPoint>) -> Self {
        points.sort_by_key(|a| a.memory);
        let mut pruned: Vec<FrontierPoint> = Vec::with_capacity(points.len());
        for p in points {
            if let Some(last) = pruned.last() {
                if p.cost >= last.cost {
                    continue; // dominated: more memory, no better cost
                }
                if p.memory == last.memory {
                    pruned.pop();
                }
            }
            pruned.push(p);
        }
        Self { points: pruned }
    }

    /// The (sorted, dominance-pruned) points.
    pub fn points(&self) -> &[FrontierPoint] {
        &self.points
    }

    /// Best cost achievable within `budget` bytes, if any point fits.
    pub fn cost_at(&self, budget: u64) -> Option<f64> {
        self.points
            .iter()
            .take_while(|p| p.memory <= budget)
            .last()
            .map(|p| p.cost)
    }
}

/// Result of [`merge_frontiers`]: a memory allocation per part under a
/// shared global budget.
#[derive(Clone, Debug, PartialEq)]
pub struct FrontierMerge {
    /// Memory granted to each part, index-aligned with the input slice.
    /// An allocation of 0 means the part keeps its base (empty)
    /// configuration.
    pub allocations: Vec<u64>,
    /// Total memory of the chosen combination (`Σ allocations ≤ budget`).
    pub total_memory: u64,
    /// Total predicted cost of the chosen combination (`Σ` of the chosen
    /// frontier-point costs, falling back to each part's base cost).
    pub total_cost: f64,
}

/// Deterministic cap on the pareto state list carried at every node of
/// the [`merge_frontiers`] DP. Real frontiers have tens of points, so
/// this only engages for adversarial inputs; thinning keeps an evenly
/// spaced subset including both endpoints.
const MERGE_STATE_CAP: usize = 4096;

/// One pareto state of the merge DP: a combined `(memory, cost)` choice
/// plus backpointers into the child state lists it was combined from
/// (for a leaf, `memory` *is* the part's allocation and the backpointers
/// are unused).
#[derive(Clone, Copy, Debug)]
struct MergeState {
    memory: u64,
    cost: f64,
    left: u32,
    right: u32,
}

/// The shape of the canonical balanced merge tree over `n` parts:
/// children always precede their parent in `nodes`, the root is last.
#[derive(Clone, Debug, Default)]
struct TreeShape {
    nodes: Vec<TreeNode>,
    /// Part position → index of its leaf node.
    leaf_of: Vec<usize>,
    /// Node index → parent node index (`None` for the root).
    parent: Vec<Option<usize>>,
}

#[derive(Clone, Debug)]
struct TreeNode {
    /// First part position this node covers (for a leaf, *the* part).
    lo: usize,
    /// Child node indexes; `None` marks a leaf.
    children: Option<(usize, usize)>,
}

impl TreeShape {
    /// Canonical balanced tree over `n ≥ 1` parts: split at
    /// `lo + (hi - lo) / 2`, left subtree first.
    fn build(n: usize) -> Self {
        let mut shape = TreeShape {
            nodes: Vec::with_capacity(2 * n - 1),
            leaf_of: vec![0; n],
            parent: Vec::with_capacity(2 * n - 1),
        };
        shape.build_range(0, n);
        for (i, node) in shape.nodes.iter().enumerate() {
            if let Some((l, r)) = node.children {
                shape.parent[l] = Some(i);
                shape.parent[r] = Some(i);
            }
        }
        shape
    }

    fn build_range(&mut self, lo: usize, hi: usize) -> usize {
        let children = if hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let left = self.build_range(lo, mid);
            let right = self.build_range(mid, hi);
            Some((left, right))
        } else {
            None
        };
        let idx = self.nodes.len();
        self.nodes.push(TreeNode { lo, children });
        self.parent.push(None);
        if children.is_none() {
            self.leaf_of[lo] = idx;
        }
        idx
    }
}

/// Pareto-prune a state list: sort by `(memory, cost)` and keep strictly
/// decreasing cost, then thin at [`MERGE_STATE_CAP`]. f64 totals here
/// are sums of finite costs, so `total_cmp` is a total order consistent
/// with `<`; the stable sort makes every tie-break deterministic
/// (earlier-listed states win).
fn prune_states(mut next: Vec<MergeState>) -> Vec<MergeState> {
    next.sort_by(|a, b| a.memory.cmp(&b.memory).then(a.cost.total_cmp(&b.cost)));
    let mut pruned: Vec<MergeState> = Vec::with_capacity(next.len());
    for s in next {
        match pruned.last() {
            Some(last) if s.cost >= last.cost => continue,
            _ => pruned.push(s),
        }
    }
    thin_states(pruned)
}

/// Deterministic thinning of a pareto list longer than
/// [`MERGE_STATE_CAP`]: an evenly spaced subset including both endpoints.
fn thin_states(pruned: Vec<MergeState>) -> Vec<MergeState> {
    let n = pruned.len();
    if n <= MERGE_STATE_CAP {
        return pruned;
    }
    (0..MERGE_STATE_CAP).map(|i| pruned[i * (n - 1) / (MERGE_STATE_CAP - 1)]).collect()
}

/// The choice list of one part: "nothing" at `(0, weight·base_cost)`
/// plus every frontier point within `budget`, costs scaled by the
/// part's weight. The memory-0 choice survives pruning, so a leaf's
/// state list is never empty.
fn leaf_states(weight: f64, base_cost: f64, frontier: &Frontier, budget: u64) -> Vec<MergeState> {
    let mut states = Vec::with_capacity(1 + frontier.points().len());
    states.push(MergeState { memory: 0, cost: weight * base_cost, left: 0, right: 0 });
    for p in frontier.points() {
        if p.memory > budget {
            break; // points are sorted by memory
        }
        states.push(MergeState { memory: p.memory, cost: weight * p.cost, left: 0, right: 0 });
    }
    prune_states(states)
}

/// The head of one row of the combine sweep. Ordered in reverse of the
/// canonical key `(memory, cost.total_cmp, li, ri)`, so that the maximum
/// of a [`BinaryHeap`] is the next state in canonical order.
struct RowHead(MergeState);

impl Ord for RowHead {
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (&other.0, &self.0);
        a.memory
            .cmp(&b.memory)
            .then_with(|| a.cost.total_cmp(&b.cost))
            .then_with(|| (a.left, a.right).cmp(&(b.left, b.right)))
    }
}

impl PartialOrd for RowHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for RowHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for RowHead {}

/// The pareto list of `left × right` under `budget`, with backpointers
/// recorded for allocation reconstruction: what [`prune_states`] makes
/// of the whole cross product listed in `(li, ri)` order, without
/// listing it.
///
/// Both inputs are strictly ascending in memory and strictly descending
/// in cost, so the sums of one state with every state of the other list
/// — a row — are already in canonical order. A k-way [`Sweep`] with one
/// cursor per row pops the states in exactly the order the stable sort
/// would put them in (`(memory, cost.total_cmp, li, ri)`), applies the
/// same keep test at every pop, and steps over the states that test is
/// bound to drop. The rows are the states of the shorter list: fewer
/// cursors, each with a longer way to step.
fn combine_states(left: &[MergeState], right: &[MergeState], budget: u64) -> Vec<MergeState> {
    debug_assert_pareto(left);
    debug_assert_pareto(right);
    let sweep = if right.len() < left.len() {
        Sweep { rows: right, cols: left, rows_are_right: true, budget }
    } else {
        Sweep { rows: left, cols: right, rows_are_right: false, budget }
    };
    // Row heads at column 0 ascend with the row: the first one over
    // budget ends them all.
    let mut heap: BinaryHeap<RowHead> = (0..sweep.rows.len())
        .map_while(|row| sweep.row_head(row, 0, None))
        .map(RowHead)
        .collect();
    let mut pruned: Vec<MergeState> = Vec::new();
    while let Some(mut top) = heap.peek_mut() {
        let s = top.0;
        let kept = match pruned.last() {
            Some(last) if s.cost >= last.cost => last.cost,
            _ => {
                pruned.push(s);
                s.cost
            }
        };
        let (row, col) = sweep.position(&s);
        // Replace the top in place: one sift instead of a pop and a push.
        match sweep.row_head(row, col + 1, Some(kept)) {
            Some(next) => *top = RowHead(next),
            None => {
                PeekMut::pop(top);
            }
        }
    }
    thin_states(pruned)
}

/// The two child lists of one [`combine_states`] call, laid out as rows
/// (one cursor each) and columns (what a cursor steps along).
struct Sweep<'a> {
    rows: &'a [MergeState],
    cols: &'a [MergeState],
    /// The rows are the right child's states: a `(row, col)` position is
    /// an `(ri, li)` pair. Keys and backpointers are `(li, ri)` always.
    rows_are_right: bool,
    budget: u64,
}

impl Sweep<'_> {
    fn state(&self, row: usize, col: usize, memory: u64, cost: f64) -> MergeState {
        let (li, ri) = if self.rows_are_right { (col, row) } else { (row, col) };
        MergeState { memory, cost, left: li as u32, right: ri as u32 }
    }

    /// The `(row, col)` position of a state made by [`Sweep::state`].
    fn position(&self, s: &MergeState) -> (usize, usize) {
        let (li, ri) = (s.left as usize, s.right as usize);
        if self.rows_are_right {
            (ri, li)
        } else {
            (li, ri)
        }
    }

    /// The first state of `row` at column `from` or later that the sweep
    /// still has to look at, or `None` when the row is over: its sums
    /// have passed the budget, or none of the rest can be kept.
    ///
    /// A sum whose cost is `>=` the cost the sweep kept last (`kept`) is
    /// stepped over. The kept cost only ever falls and every state of
    /// the row past its current head sorts after everything popped so
    /// far, so these are exactly states the sweep would pop and drop at
    /// their turn.
    fn row_head(&self, row: usize, from: usize, kept: Option<f64>) -> Option<MergeState> {
        let r = &self.rows[row];
        for (col, c) in self.cols.iter().enumerate().skip(from) {
            let memory = r.memory.saturating_add(c.memory);
            if memory > self.budget {
                return None;
            }
            let cost = r.cost + c.cost;
            if kept.is_some_and(|kept| cost >= kept) {
                continue;
            }
            let mut head = self.state(row, col, memory, cost);
            if memory == u64::MAX {
                // Every later sum of the row is pinned at `u64::MAX` too
                // (only a budget of `u64::MAX` lets one through), so the
                // rest of the row is ordered by cost alone, the wrong
                // way round for a sorted row. All but the first cheapest
                // of them sort after it at a cost no lower, and are
                // dropped.
                for (later, c) in self.cols.iter().enumerate().skip(col + 1) {
                    let cost = r.cost + c.cost;
                    if cost.total_cmp(&head.cost) == Ordering::Less {
                        head = self.state(row, later, memory, cost);
                    }
                }
            }
            return Some(head);
        }
        None
    }
}

/// What [`combine_states`] rests on: memory strictly ascending, cost
/// strictly descending and finite. A NaN would break "the kept cost only
/// falls", which stepping over states needs.
fn debug_assert_pareto(states: &[MergeState]) {
    debug_assert!(
        states.iter().all(|s| s.cost.is_finite()),
        "merge state costs must be finite"
    );
    debug_assert!(
        states.windows(2).all(|w| w[0].memory < w[1].memory && w[0].cost > w[1].cost),
        "merge state lists must ascend in memory and descend in cost, strictly"
    );
}

/// Walk the root's cheapest state back down to the leaves, filling one
/// allocation per part.
fn extract_merge(shape: &TreeShape, states: &[Vec<MergeState>], n_parts: usize) -> FrontierMerge {
    let root = shape.nodes.len() - 1;
    let top = *states[root].last().expect("merge state lists never empty");
    let mut allocations = vec![0u64; n_parts];
    let mut stack = vec![(root, states[root].len() - 1)];
    while let Some((ni, si)) = stack.pop() {
        let s = states[ni][si];
        match shape.nodes[ni].children {
            None => allocations[shape.nodes[ni].lo] = s.memory,
            Some((l, r)) => {
                stack.push((l, s.left as usize));
                stack.push((r, s.right as usize));
            }
        }
    }
    FrontierMerge { allocations, total_memory: top.memory, total_cost: top.cost }
}

/// Split a global memory `budget` across independent weighted per-part
/// frontiers (the multiple-choice knapsack of a multi-tenant merge).
///
/// Each part is `(weight, base_cost, frontier)`: a deterministic tenant
/// weight/SLO priority scaling the part's costs in the shared objective
/// (higher weight ⇒ that part's cost reduction counts for more, so hot
/// tenants win contested memory), the part's cost with no memory
/// granted, and its performance/memory frontier. Exactly one choice is
/// made per part — either "nothing" at `(0, base_cost)` or one frontier
/// point — minimizing `Σ weightᵢ·costᵢ` subject to `Σ memory ≤ budget`.
///
/// The DP evaluates a canonical balanced binary tree over the parts
/// (split at `lo + (hi-lo)/2`); every node carries a pareto state list
/// pruned to strictly decreasing cost in memory order, so the result is
/// exact whenever state lists stay under `MERGE_STATE_CAP`. A node's
/// list is what sorting the cross product of its children's lists by
/// `(memory, cost)` — pairs in `(li, ri)` order, stably — and keeping
/// every strict cost decrease would give; it is computed by a k-way
/// sweep over the rows of that product in the same order, which never
/// lists the product, so a node costs about its own list, not the
/// product of its children's (DESIGN.md §15). All tie-breaks are
/// deterministic, which the sharded service's bit-identical replay
/// guarantee relies on. [`FrontierSet`] memoizes exactly this tree,
/// which is what makes its incremental re-merge bit-identical to a full
/// merge by construction.
///
/// # Panics
///
/// Panics if any weight is non-finite or not strictly positive, or if
/// any base cost is non-finite.
pub fn merge_frontiers_weighted(parts: &[(f64, f64, &Frontier)], budget: u64) -> FrontierMerge {
    for &(weight, base_cost, _) in parts {
        assert!(
            weight.is_finite() && weight > 0.0,
            "merge weights must be finite and positive, got {weight}"
        );
        assert!(base_cost.is_finite(), "base cost must be finite, got {base_cost}");
    }
    if parts.is_empty() {
        return FrontierMerge { allocations: Vec::new(), total_memory: 0, total_cost: 0.0 };
    }
    let shape = TreeShape::build(parts.len());
    let mut states: Vec<Vec<MergeState>> = Vec::with_capacity(shape.nodes.len());
    for node in &shape.nodes {
        let s = match node.children {
            None => {
                let (weight, base_cost, frontier) = parts[node.lo];
                leaf_states(weight, base_cost, frontier, budget)
            }
            Some((l, r)) => combine_states(&states[l], &states[r], budget),
        };
        states.push(s);
    }
    extract_merge(&shape, &states, parts.len())
}

/// [`merge_frontiers_weighted`] with every part at weight 1 — the
/// unweighted multi-shard merge. Multiplying by 1.0 is bit-exact, so
/// the weighted and unweighted paths share one implementation.
pub fn merge_frontiers(parts: &[(f64, &Frontier)], budget: u64) -> FrontierMerge {
    let weighted: Vec<(f64, f64, &Frontier)> =
        parts.iter().map(|&(base_cost, frontier)| (1.0, base_cost, frontier)).collect();
    merge_frontiers_weighted(&weighted, budget)
}

/// One cached part of a [`FrontierSet`].
#[derive(Clone, Debug)]
struct PartEntry {
    weight: f64,
    base_cost: f64,
    frontier: Frontier,
}

/// Counters describing one incremental [`FrontierSet::merge`].
#[derive(Clone, Debug, PartialEq)]
pub struct MergeOutcome {
    /// The merged allocation, aligned with the set's sorted key order
    /// (see [`FrontierSet::keys`]).
    pub merge: FrontierMerge,
    /// Parts in the set at merge time.
    pub parts: u64,
    /// Parts whose frontier/weight/base cost changed since the previous
    /// merge (the dirty-set ledger, cleared by the merge).
    pub dirty: u64,
    /// DP tree nodes actually recombined — `2·parts − 1` for a full
    /// (re)build, `O(dirty · log parts)` for an incremental one.
    pub recombined: u64,
}

/// An incrementally maintained multi-part frontier merge.
///
/// The set caches one weighted `(base_cost, frontier)` part per `u64`
/// key and memoizes the state lists of the canonical
/// [`merge_frontiers_weighted`] DP tree over the parts in sorted key
/// order. Upserting a part marks only its leaf-to-root path stale, so
/// [`FrontierSet::merge`] recombines `O(log n)` nodes per dirty part
/// instead of re-running the whole DP — and, because full and
/// incremental evaluation walk the *same* tree, the incremental result
/// is bit-identical to [`merge_frontiers_weighted`] over the current
/// parts (pinned by proptest in the workspace test suite).
///
/// Key-set changes (insert/remove) change the tree shape and trigger a
/// full rebuild on the next merge; republishing an *identical* part is
/// detected and skipped entirely, keeping clean parts out of the dirty
/// ledger.
#[derive(Clone, Debug, Default)]
pub struct FrontierSet {
    budget: u64,
    parts: BTreeMap<u64, PartEntry>,
    /// Sorted keys, index-aligned with `shape.leaf_of`; rebuilt with the
    /// shape.
    keys: Vec<u64>,
    shape: TreeShape,
    states: Vec<Vec<MergeState>>,
    stale: Vec<bool>,
    dirty: BTreeSet<u64>,
    /// The key set (or budget) changed: rebuild the whole tree on the
    /// next merge.
    stale_shape: bool,
}

impl FrontierSet {
    /// Empty set arbitrating `budget` bytes.
    pub fn new(budget: u64) -> Self {
        Self { budget, ..Self::default() }
    }

    /// The maintained global budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Change the maintained budget; every node's state list depends on
    /// it, so the next merge rebuilds from scratch.
    pub fn set_budget(&mut self, budget: u64) {
        if self.budget != budget {
            self.budget = budget;
            self.stale_shape = true;
        }
    }

    /// Number of cached parts.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the set has no parts.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The part keys in sorted order — the order
    /// [`FrontierMerge::allocations`] is aligned with.
    pub fn keys(&self) -> Vec<u64> {
        self.parts.keys().copied().collect()
    }

    /// Parts changed since the last merge.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Whether the part at `key` is bit-identical to the given one — the
    /// test [`upsert`](Self::upsert) makes before it dirties anything,
    /// for a caller that would have to copy a frontier just to ask.
    pub fn is_current(&self, key: u64, weight: f64, base_cost: f64, frontier: &Frontier) -> bool {
        self.parts.get(&key).is_some_and(|e| {
            e.weight.to_bits() == weight.to_bits()
                && e.base_cost.to_bits() == base_cost.to_bits()
                && e.frontier == *frontier
        })
    }

    /// Insert or update the part at `key`. Returns whether the set
    /// changed: republishing a bit-identical part is a no-op and does
    /// not dirty anything (the clean-part skip).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is non-finite or not strictly positive, or if
    /// `base_cost` is non-finite.
    pub fn upsert(&mut self, key: u64, weight: f64, base_cost: f64, frontier: Frontier) -> bool {
        assert!(
            weight.is_finite() && weight > 0.0,
            "merge weights must be finite and positive, got {weight}"
        );
        assert!(base_cost.is_finite(), "base cost must be finite, got {base_cost}");
        if self.is_current(key, weight, base_cost, &frontier) {
            return false;
        }
        if !self.parts.contains_key(&key) {
            self.stale_shape = true;
        } else if !self.stale_shape {
            let pos = self.keys.binary_search(&key).expect("existing key is in the key list");
            self.mark_path_stale(self.shape.leaf_of[pos]);
        }
        self.parts.insert(key, PartEntry { weight, base_cost, frontier });
        self.dirty.insert(key);
        true
    }

    /// Remove the part at `key`; returns whether it was present. A
    /// removal changes the tree shape, so the next merge rebuilds.
    pub fn remove(&mut self, key: u64) -> bool {
        if self.parts.remove(&key).is_some() {
            self.dirty.remove(&key);
            self.stale_shape = true;
            true
        } else {
            false
        }
    }

    fn mark_path_stale(&mut self, leaf: usize) {
        let mut at = Some(leaf);
        while let Some(i) = at {
            if self.stale[i] {
                break; // the rest of the path is already stale
            }
            self.stale[i] = true;
            at = self.shape.parent[i];
        }
    }

    /// Re-merge, recombining only stale DP nodes, and clear the dirty
    /// ledger. Bit-identical to [`merge_frontiers_weighted`] over the
    /// current parts at the maintained budget.
    pub fn merge(&mut self) -> MergeOutcome {
        let parts = self.parts.len() as u64;
        let dirty = self.dirty.len() as u64;
        self.dirty.clear();
        if self.parts.is_empty() {
            self.keys.clear();
            self.shape = TreeShape::default();
            self.states.clear();
            self.stale.clear();
            self.stale_shape = false;
            return MergeOutcome {
                merge: FrontierMerge { allocations: Vec::new(), total_memory: 0, total_cost: 0.0 },
                parts,
                dirty,
                recombined: 0,
            };
        }
        if self.stale_shape {
            self.keys = self.parts.keys().copied().collect();
            self.shape = TreeShape::build(self.keys.len());
            self.states = vec![Vec::new(); self.shape.nodes.len()];
            self.stale = vec![true; self.shape.nodes.len()];
            self.stale_shape = false;
        }
        let mut recombined = 0u64;
        for i in 0..self.shape.nodes.len() {
            if !self.stale[i] {
                continue;
            }
            // Children precede parents, so any stale child is already
            // fresh by the time its parent recombines.
            let fresh = match self.shape.nodes[i].children {
                None => {
                    let key = self.keys[self.shape.nodes[i].lo];
                    let e = &self.parts[&key];
                    leaf_states(e.weight, e.base_cost, &e.frontier, self.budget)
                }
                Some((l, r)) => combine_states(&self.states[l], &self.states[r], self.budget),
            };
            self.states[i] = fresh;
            self.stale[i] = false;
            recombined += 1;
        }
        let merge = extract_merge(&self.shape, &self.states, self.keys.len());
        MergeOutcome { merge, parts, dirty, recombined }
    }

    /// A fresh full merge of the cached parts at an arbitrary `budget`
    /// (the interactive what-if path). Does not touch the memoized
    /// state, so it answers from precomputed frontiers without
    /// perturbing the incremental ledger; at the maintained budget the
    /// answer is bit-identical to [`FrontierSet::merge`].
    pub fn merge_at(&self, budget: u64) -> FrontierMerge {
        let parts: Vec<(f64, f64, &Frontier)> = self
            .parts
            .values()
            .map(|e| (e.weight, e.base_cost, &e.frontier))
            .collect();
        merge_frontiers_weighted(&parts, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_costmodel::AnalyticalWhatIf;
    use isel_workload::{AttrId, Query, SchemaBuilder, TableId, Workload};

    fn est_fixture() -> Workload {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 1_000);
        let a0 = b.attribute(t, "a0", 100, 4);
        let a1 = b.attribute(t, "a1", 10, 4);
        Workload::new(
            b.finish(),
            vec![Query::new(TableId(0), vec![a0, a1], 2)],
        )
    }

    #[test]
    fn insert_remove_replace() {
        let mut s = Selection::empty();
        let k0 = Index::single(AttrId(0));
        let k01 = k0.extended(AttrId(1));
        assert!(s.insert(k0.clone()));
        assert!(!s.insert(k0.clone()));
        s.replace(&k0, k01.clone());
        assert!(s.contains(&k01));
        assert!(!s.contains(&k0));
        assert!(s.remove(&k01));
        assert!(s.is_empty());
    }

    #[test]
    fn from_indexes_keeps_first_occurrences_in_order() {
        let k = |attrs: &[u32]| Index::new(attrs.iter().map(|&a| AttrId(a)).collect());
        let s = Selection::from_indexes(vec![
            k(&[2]),
            k(&[0, 1]),
            k(&[2]),
            k(&[1, 0]),
            k(&[0, 1]),
            k(&[0]),
            k(&[2]),
        ]);
        assert_eq!(s.indexes(), &[k(&[2]), k(&[0, 1]), k(&[1, 0]), k(&[0])]);
        // Same result as inserting one by one, on a list long enough to
        // repeat every index many times.
        let many: Vec<Index> = (0..500u32).map(|i| k(&[i * 7 % 31, 31 + i % 3])).collect();
        let mut one_by_one = Selection::empty();
        for index in &many {
            one_by_one.insert(index.clone());
        }
        assert_eq!(Selection::from_indexes(many.clone()), one_by_one);
        assert_eq!(many.into_iter().collect::<Selection>(), one_by_one);
        assert!(Selection::from_indexes(Vec::new()).is_empty());
    }

    #[test]
    fn memory_and_cost_delegate_to_estimator() {
        let w = est_fixture();
        let est = AnalyticalWhatIf::new(&w);
        let s = Selection::from_indexes(vec![Index::single(AttrId(0))]);
        assert_eq!(s.memory(&est), est.index_memory_of(&Index::single(AttrId(0))));
        let empty_cost = Selection::empty().cost(&est);
        assert!(s.cost(&est) < empty_cost);
    }

    #[test]
    fn frontier_prunes_dominated_points() {
        let f = Frontier::new(vec![
            FrontierPoint { memory: 10, cost: 100.0 },
            FrontierPoint { memory: 20, cost: 120.0 }, // dominated
            FrontierPoint { memory: 30, cost: 80.0 },
            FrontierPoint { memory: 30, cost: 70.0 }, // same memory, better
        ]);
        assert_eq!(f.points().len(), 2);
        assert_eq!(f.points()[1].cost, 70.0);
    }

    #[test]
    fn cost_at_respects_budget() {
        let f = Frontier::new(vec![
            FrontierPoint { memory: 10, cost: 100.0 },
            FrontierPoint { memory: 30, cost: 70.0 },
        ]);
        assert_eq!(f.cost_at(5), None);
        assert_eq!(f.cost_at(10), Some(100.0));
        assert_eq!(f.cost_at(29), Some(100.0));
        assert_eq!(f.cost_at(1_000), Some(70.0));
    }

    #[test]
    fn merge_prefers_the_cheaper_combination() {
        let f0 = Frontier::new(vec![
            FrontierPoint { memory: 10, cost: 50.0 },
            FrontierPoint { memory: 30, cost: 10.0 },
        ]);
        let f1 = Frontier::new(vec![
            FrontierPoint { memory: 10, cost: 80.0 },
            FrontierPoint { memory: 20, cost: 30.0 },
        ]);
        // Budget 50 fits the best point of both parts.
        let m = merge_frontiers(&[(100.0, &f0), (100.0, &f1)], 50);
        assert_eq!(m.allocations, vec![30, 20]);
        assert_eq!(m.total_memory, 50);
        assert!((m.total_cost - 40.0).abs() < 1e-9);
        // Budget 40: granting f0 30 + f1 10 (10+80=90) loses to
        // f0 10 + f1 20 (50+30=80).
        let m = merge_frontiers(&[(100.0, &f0), (100.0, &f1)], 40);
        assert_eq!(m.allocations, vec![10, 20]);
        assert!((m.total_cost - 80.0).abs() < 1e-9);
        // Budget 0: nothing fits, both parts pay their base cost.
        let m = merge_frontiers(&[(100.0, &f0), (100.0, &f1)], 0);
        assert_eq!(m.allocations, vec![0, 0]);
        assert_eq!(m.total_memory, 0);
        assert!((m.total_cost - 200.0).abs() < 1e-9);
    }

    #[test]
    fn merge_of_one_part_matches_cost_at() {
        let f = Frontier::new(vec![
            FrontierPoint { memory: 10, cost: 50.0 },
            FrontierPoint { memory: 30, cost: 10.0 },
        ]);
        for budget in [0u64, 9, 10, 29, 30, 100] {
            let m = merge_frontiers(&[(99.0, &f)], budget);
            assert_eq!(m.total_cost, f.cost_at(budget).unwrap_or(99.0));
        }
    }

    #[test]
    fn merge_with_no_parts_is_empty() {
        let m = merge_frontiers(&[], 100);
        assert!(m.allocations.is_empty());
        assert_eq!(m.total_memory, 0);
        assert_eq!(m.total_cost, 0.0);
    }

    #[test]
    fn merge_with_zero_budget_pays_every_base_cost() {
        let f0 = Frontier::new(vec![FrontierPoint { memory: 5, cost: 1.0 }]);
        let f1 = Frontier::new(vec![FrontierPoint { memory: 7, cost: 2.0 }]);
        let f2 = Frontier::new(vec![]);
        let m = merge_frontiers(&[(10.0, &f0), (20.0, &f1), (30.0, &f2)], 0);
        assert_eq!(m.allocations, vec![0, 0, 0]);
        assert_eq!(m.total_memory, 0);
        assert!((m.total_cost - 60.0).abs() < 1e-9);
    }

    #[test]
    fn merge_of_single_point_frontiers_is_a_knapsack() {
        // Three parts, one point each; budget fits exactly two. The best
        // pair is picked, not the greedy first-listed one.
        let f0 = Frontier::new(vec![FrontierPoint { memory: 10, cost: 90.0 }]);
        let f1 = Frontier::new(vec![FrontierPoint { memory: 10, cost: 10.0 }]);
        let f2 = Frontier::new(vec![FrontierPoint { memory: 10, cost: 5.0 }]);
        let m = merge_frontiers(&[(100.0, &f0), (100.0, &f1), (100.0, &f2)], 20);
        assert_eq!(m.allocations, vec![0, 10, 10]);
        assert_eq!(m.total_memory, 20);
        assert!((m.total_cost - 115.0).abs() < 1e-9);
    }

    #[test]
    fn merge_ties_break_deterministically() {
        // Two bit-identical parts contending for one upgrade slot: the
        // tie must resolve the same way on every run (pinned: the
        // later-listed part wins, matching the stable-sort order).
        let f = Frontier::new(vec![FrontierPoint { memory: 10, cost: 40.0 }]);
        for _ in 0..8 {
            let m = merge_frontiers(&[(100.0, &f), (100.0, &f)], 10);
            assert_eq!(m.allocations, vec![0, 10]);
            assert!((m.total_cost - 140.0).abs() < 1e-9);
        }
    }

    /// The combine this module had before the sweep, kept as its
    /// oracle: list the whole cross product in `(li, ri)` order and let
    /// [`prune_states`] sort it.
    fn combine_by_sorting(
        left: &[MergeState],
        right: &[MergeState],
        budget: u64,
    ) -> Vec<MergeState> {
        let mut next = Vec::new();
        for (li, l) in left.iter().enumerate() {
            for (ri, r) in right.iter().enumerate() {
                let memory = l.memory.saturating_add(r.memory);
                if memory > budget {
                    break;
                }
                next.push(MergeState {
                    memory,
                    cost: l.cost + r.cost,
                    left: li as u32,
                    right: ri as u32,
                });
            }
        }
        prune_states(next)
    }

    #[test]
    fn sweep_equals_sorting_the_cross_product_state_by_state() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7377_6565);
        // A pareto list of `len` states from memory 0 up: on a shared
        // grid with integer costs (ties of every kind), in arbitrary
        // bytes, or in fifths of `u64::MAX` (sums that saturate).
        let list = |rng: &mut StdRng, len: usize, shape: u32| -> Vec<MergeState> {
            let (mut memory, mut cost) = (0u64, 1e6);
            let states = (0..len)
                .map(|_| {
                    let s = MergeState { memory, cost, left: 0, right: 0 };
                    let (step, drop) = match shape {
                        0 => (64 * rng.gen_range(1..4u64), f64::from(rng.gen_range(1..4u32))),
                        1 => (rng.gen_range(1..1u64 << 26), rng.gen_range(0.5..1e4)),
                        _ => (u64::MAX / 5, rng.gen_range(0.5..3.0)),
                    };
                    memory = memory.saturating_add(step);
                    cost -= drop;
                    s
                })
                .collect();
            prune_states(states)
        };
        let mut kept = 0;
        for case in 0..600 {
            let shape = case % 3;
            let long = if shape == 2 { 6 } else { 40 };
            let left = list(&mut rng, 1 + case as usize % long, shape);
            let right = list(&mut rng, (1 + case as usize % 17).min(long), shape);
            let top = left.last().unwrap().memory.saturating_add(right.last().unwrap().memory);
            let budget = match case % 4 {
                0 => u64::MAX,
                1 => top,
                _ => rng.gen_range(0..=top),
            };
            let got = combine_states(&left, &right, budget);
            let want = combine_by_sorting(&left, &right, budget);
            let fields = |s: &MergeState| (s.memory, s.cost.to_bits(), s.left, s.right);
            assert_eq!(
                got.iter().map(fields).collect::<Vec<_>>(),
                want.iter().map(fields).collect::<Vec<_>>(),
                "case {case}: {left:?} x {right:?} under {budget}"
            );
            kept += got.len();
        }
        assert!(kept > 5_000, "the cases must keep states to compare, kept {kept}");
    }

    #[test]
    fn weights_prioritize_hot_tenants_deterministically() {
        // Identical frontiers, different weights: the heavier tenant's
        // cost reduction counts for more, so it wins contested memory.
        let f = Frontier::new(vec![FrontierPoint { memory: 10, cost: 40.0 }]);
        let m = merge_frontiers_weighted(&[(1.0, 100.0, &f), (2.0, 100.0, &f)], 10);
        assert_eq!(m.allocations, vec![0, 10]);
        let m = merge_frontiers_weighted(&[(2.0, 100.0, &f), (1.0, 100.0, &f)], 10);
        assert_eq!(m.allocations, vec![10, 0]);
        // Weight 1.0 everywhere is bit-identical to the unweighted path.
        let w = merge_frontiers_weighted(&[(1.0, 100.0, &f), (1.0, 100.0, &f)], 10);
        let u = merge_frontiers(&[(100.0, &f), (100.0, &f)], 10);
        assert_eq!(w, u);
    }

    fn part_fixture(i: u64) -> (f64, Frontier) {
        let base = 100.0 + i as f64;
        let pts = (1..=4)
            .map(|k| FrontierPoint {
                memory: 8 * k + i % 3,
                cost: base / (1.0 + k as f64) + i as f64 * 0.01,
            })
            .collect();
        (base, Frontier::new(pts))
    }

    #[test]
    fn frontier_set_merge_matches_full_weighted_merge() {
        let mut set = FrontierSet::new(64);
        for i in 0..9u64 {
            let (base, f) = part_fixture(i);
            set.upsert(i, 1.0 + (i % 4) as f64, base, f);
        }
        let out = set.merge();
        assert_eq!(out.parts, 9);
        assert_eq!(out.dirty, 9);
        assert_eq!(out.recombined, 17, "full build recombines 2n-1 nodes");
        let parts: Vec<(f64, f64, Frontier)> = (0..9u64)
            .map(|i| {
                let (base, f) = part_fixture(i);
                (1.0 + (i % 4) as f64, base, f)
            })
            .collect();
        let refs: Vec<(f64, f64, &Frontier)> =
            parts.iter().map(|(w, b, f)| (*w, *b, f)).collect();
        let full = merge_frontiers_weighted(&refs, 64);
        assert_eq!(out.merge, full);
        // merge_at at the maintained budget is the same answer, and a
        // clean re-merge recombines nothing.
        assert_eq!(set.merge_at(64), full);
        let again = set.merge();
        assert_eq!(again.merge, full);
        assert_eq!(again.dirty, 0);
        assert_eq!(again.recombined, 0);
    }

    #[test]
    fn incremental_remerge_touches_only_the_dirty_path() {
        let mut set = FrontierSet::new(64);
        for i in 0..8u64 {
            let (base, f) = part_fixture(i);
            set.upsert(i, 1.0, base, f);
        }
        set.merge();
        // Republishing an identical part is a clean no-op.
        let (base, f) = part_fixture(3);
        assert!(!set.upsert(3, 1.0, base, f));
        assert_eq!(set.dirty_len(), 0);
        // A real change re-merges one leaf-to-root path (4 nodes for 8
        // parts), bit-identical to the full merge.
        let changed = Frontier::new(vec![FrontierPoint { memory: 4, cost: 1.0 }]);
        assert!(set.upsert(3, 1.0, base, changed.clone()));
        let out = set.merge();
        assert_eq!(out.dirty, 1);
        assert_eq!(out.recombined, 4);
        let parts: Vec<(f64, f64, Frontier)> = (0..8u64)
            .map(|i| {
                let (b, f) = part_fixture(i);
                if i == 3 {
                    (1.0, b, changed.clone())
                } else {
                    (1.0, b, f)
                }
            })
            .collect();
        let refs: Vec<(f64, f64, &Frontier)> =
            parts.iter().map(|(w, b, f)| (*w, *b, f)).collect();
        assert_eq!(out.merge, merge_frontiers_weighted(&refs, 64));
    }

    #[test]
    fn frontier_set_handles_shape_and_budget_changes() {
        let mut set = FrontierSet::new(64);
        assert!(set.is_empty());
        let empty = set.merge();
        assert!(empty.merge.allocations.is_empty());
        let (base, f) = part_fixture(0);
        set.upsert(7, 1.0, base, f.clone());
        let one = set.merge();
        assert_eq!(one.merge, merge_frontiers(&[(base, &f)], 64));
        assert_eq!(set.keys(), vec![7]);
        // Removing flips back to the empty merge; a budget change forces
        // a rebuild at the new budget.
        set.upsert(9, 1.0, base, f.clone());
        assert!(set.remove(7));
        assert!(!set.remove(7));
        set.set_budget(16);
        let out = set.merge();
        assert_eq!(out.merge, merge_frontiers(&[(base, &f)], 16));
        assert_eq!(out.recombined, 1, "one part, one leaf/root node");
    }

    #[test]
    fn from_iterator_dedups() {
        let s: Selection = vec![Index::single(AttrId(0)), Index::single(AttrId(0))]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 1);
    }
}
