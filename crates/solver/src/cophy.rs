//! Specialized branch-and-bound solver for CoPhy's index-selection program.
//!
//! The binary program (5)–(8) of the paper has enormous LP formulations
//! (Figure 6: ~20 000 variables and constraints already for |I| ≈ 3 000),
//! but a lot of structure:
//!
//! * for a fixed index decision vector `x`, the optimal `z` is trivial —
//!   every query takes its cheapest available option
//!   (`f_j(x) = min(f_j(0), min_{k: x_k=1} f_j(k))`),
//! * the benefit of a candidate *set* is subadditive: each query only uses
//!   its single best index, so the joint benefit of a set is at most the
//!   sum of the members' individual marginal benefits.
//!
//! The solver therefore branches on the `x` variables directly and bounds
//! each node with a fractional knapsack over per-candidate *marginal*
//! benefits (marginal w.r.t. the node's fixed-in set). The bound is valid
//! by subadditivity; it is exact at leaves. Greedy density completion
//! provides incumbents at every node, so gap-based termination
//! (`mipgap = 0.05` in the paper) works from the first node on — and large
//! instances show exactly the paper's behaviour: good incumbents quickly,
//! proofs slowly, DNF on a time limit.

use crate::knapsack::{fractional_upper_bound, Item};
use crate::SolveStatus;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// Per-query data of a CoPhy instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CophyQueryRow {
    /// Query weight `b_j`.
    pub weight: f64,
    /// Cost without any index, `f_j(0)`.
    pub base_cost: f64,
    /// Applicable candidates: `(candidate index, f_j(k))`.
    pub options: Vec<(u32, f64)>,
}

/// A complete CoPhy instance: candidates with memory footprints, queries
/// with their applicable-candidate cost rows, and the memory budget `A`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CophyInstance {
    /// `p_k` per candidate.
    pub candidate_memory: Vec<u64>,
    /// Fixed cost incurred by *selecting* a candidate regardless of use —
    /// e.g. frequency-weighted index-maintenance cost under update
    /// templates. May be empty (all zero), which recovers CoPhy's base
    /// formulation that drops updates "w.l.o.g.".
    #[serde(default)]
    pub candidate_penalty: Vec<f64>,
    /// Query rows.
    pub queries: Vec<CophyQueryRow>,
    /// Memory budget `A`.
    pub budget: u64,
}

impl CophyInstance {
    /// Selection penalty of candidate `k` (0 when none recorded).
    #[inline]
    pub fn penalty(&self, k: usize) -> f64 {
        self.candidate_penalty.get(k).copied().unwrap_or(0.0)
    }

    /// Number of decision variables `x_k` plus `z_{jk}` variables plus the
    /// per-query no-index options — the size of the equivalent LP
    /// formulation (5)–(8). Returns `(variables, constraints)`; reproduces
    /// Figure 6.
    pub fn lp_size(&self) -> (usize, usize) {
        let x_vars = self.candidate_memory.len();
        let z_vars: usize = self.queries.iter().map(|q| q.options.len() + 1).sum();
        let assignment_rows = self.queries.len(); // Σ_k z_jk = 1
        let linking_rows: usize = self.queries.iter().map(|q| q.options.len()).sum(); // z ≤ x
        let memory_rows = 1;
        (x_vars + z_vars, assignment_rows + linking_rows + memory_rows)
    }
}

/// Termination options (mirrors the paper's CPLEX configuration).
#[derive(Clone, Copy, Debug)]
pub struct CophyOptions {
    /// Relative optimality gap at which to stop (paper: 0.05).
    pub mip_gap: f64,
    /// Wall-clock limit; exceeded ⇒ `SolveStatus::TimeLimit` ("DNF").
    pub time_limit: Duration,
    /// Node limit.
    pub max_nodes: usize,
}

impl Default for CophyOptions {
    fn default() -> Self {
        Self {
            mip_gap: 0.05,
            time_limit: Duration::from_secs(300),
            max_nodes: 2_000_000,
        }
    }
}

/// Solution of a CoPhy solve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CophySolution {
    /// Termination status.
    pub status: SolveStatus,
    /// Selected candidates.
    pub selected: Vec<bool>,
    /// Total cost `Σ_j b_j f_j(I*)` of the incumbent.
    pub objective: f64,
    /// Best proven lower bound on the optimal cost.
    pub lower_bound: f64,
    /// Relative gap `(objective − lower_bound)/objective`.
    pub gap: f64,
    /// Explored branch-and-bound nodes.
    pub nodes: usize,
    /// Wall time spent solving.
    pub solve_time: Duration,
}

struct Node {
    /// Branching decisions from the root: `(candidate, fixed_in)`.
    path: Vec<(u32, bool)>,
    /// Lower bound inherited from the parent evaluation.
    bound: f64,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on the bound.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Scratch state reconstructed for the node being expanded.
struct NodeState {
    /// −1 undecided, 0 fixed out, 1 fixed in.
    decided: Vec<i8>,
    /// Current per-query cost under the fixed-in set.
    cur: Vec<f64>,
    /// Weighted total of `cur`.
    total: f64,
    /// Memory used by fixed-in candidates.
    used_mem: u64,
}

/// Solve a CoPhy instance.
///
/// ```
/// use isel_solver::cophy::{self, CophyInstance, CophyOptions, CophyQueryRow};
///
/// let inst = CophyInstance {
///     candidate_memory: vec![5, 5],
///     candidate_penalty: vec![],
///     queries: vec![CophyQueryRow {
///         weight: 1.0,
///         base_cost: 100.0,
///         options: vec![(0, 10.0), (1, 90.0)],
///     }],
///     budget: 5,
/// };
/// let sol = cophy::solve(&inst, &CophyOptions::default());
/// assert_eq!(sol.selected, vec![true, false]);
/// assert!((sol.objective - 10.0).abs() < 1e-9);
/// ```
pub fn solve(instance: &CophyInstance, options: &CophyOptions) -> CophySolution {
    let start = Instant::now();
    let n_cand = instance.candidate_memory.len();

    // Inverted lists: candidate → (query, cost).
    let mut inverted: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_cand];
    for (j, q) in instance.queries.iter().enumerate() {
        for &(k, c) in &q.options {
            inverted[k as usize].push((j as u32, c));
        }
    }

    let base_total: f64 = instance
        .queries
        .iter()
        .map(|q| q.weight * q.base_cost)
        .sum();

    let mut incumbent_sel = vec![false; n_cand];
    let mut incumbent_obj = base_total;
    let mut best_bound = f64::NEG_INFINITY;
    let mut nodes = 0usize;
    let mut status = SolveStatus::Optimal;

    let mut heap = BinaryHeap::new();
    heap.push(Node { path: Vec::new(), bound: 0.0 });

    // Reusable scratch buffers.
    let mut marginals: Vec<f64> = vec![0.0; n_cand];

    while let Some(node) = heap.pop() {
        best_bound = best_bound.max(node.bound);
        if gap(incumbent_obj, node.bound) <= options.mip_gap + 1e-12 {
            // Everything still open is bounded below by node.bound
            // (best-first), so the incumbent is within the gap.
            best_bound = best_bound.max(node.bound);
            status = if node.bound >= incumbent_obj - 1e-9 {
                SolveStatus::Optimal
            } else {
                SolveStatus::GapReached
            };
            break;
        }
        if start.elapsed() > options.time_limit {
            status = SolveStatus::TimeLimit;
            break;
        }
        if nodes >= options.max_nodes {
            status = SolveStatus::NodeLimit;
            break;
        }
        nodes += 1;

        // Reconstruct node state.
        let mut state = NodeState {
            decided: vec![-1; n_cand],
            cur: instance.queries.iter().map(|q| q.base_cost).collect(),
            total: 0.0,
            used_mem: 0,
        };
        let mut fixed_penalty = 0.0;
        for &(k, fixed_in) in &node.path {
            state.decided[k as usize] = fixed_in as i8;
            if fixed_in {
                state.used_mem += instance.candidate_memory[k as usize];
                fixed_penalty += instance.penalty(k as usize);
                for &(j, c) in &inverted[k as usize] {
                    let cur = &mut state.cur[j as usize];
                    if c < *cur {
                        *cur = c;
                    }
                }
            }
        }
        if state.used_mem > instance.budget {
            continue; // infeasible branch
        }
        state.total = fixed_penalty
            + instance
                .queries
                .iter()
                .zip(&state.cur)
                .map(|(q, &c)| q.weight * c)
                .sum::<f64>();

        // Marginal benefit of every undecided candidate w.r.t. the node's
        // fixed-in set, plus the best achievable per-query cost if *every*
        // undecided candidate were free (memory ignored).
        let remaining = instance.budget - state.used_mem;
        let mut items: Vec<Item> = Vec::new();
        let mut item_cand: Vec<u32> = Vec::new();
        let mut best_free: Vec<f64> = state.cur.clone();
        for k in 0..n_cand {
            marginals[k] = 0.0;
            if state.decided[k] != -1 {
                continue;
            }
            let mut m = 0.0;
            for &(j, c) in &inverted[k] {
                let cur = state.cur[j as usize];
                if c < cur {
                    m += instance.queries[j as usize].weight * (cur - c);
                }
                let bf = &mut best_free[j as usize];
                if c < *bf {
                    *bf = c;
                }
            }
            let m = m - instance.penalty(k);
            marginals[k] = m;
            if m > 0.0 {
                items.push(Item { value: m, weight: instance.candidate_memory[k] });
                item_cand.push(k as u32);
            }
        }

        // Node lower bound: two complementary relaxations, take the max.
        //
        // 1. Knapsack bound — fixed cost minus the fractional knapsack over
        //    per-candidate marginal benefits (valid by subadditivity).
        //    Tight when the budget is scarce; loose when almost everything
        //    fits, because marginals double-count queries.
        // 2. Memory-free bound — every query jumps to its best undecided
        //    option for free. Tight at generous budgets where memory is
        //    not the binding constraint.
        let bound_benefit = fractional_upper_bound(&items, remaining);
        let lb_knapsack = state.total - bound_benefit;
        // Fixed-in penalties are sunk in every descendant, so they can be
        // added to the memory-free bound.
        let lb_free: f64 = fixed_penalty
            + instance
                .queries
                .iter()
                .zip(&best_free)
                .map(|(q, &c)| q.weight * c)
                .sum::<f64>();
        let node_lb = lb_knapsack.max(lb_free);
        if node_lb >= incumbent_obj - 1e-9 {
            continue; // cannot improve
        }

        // Greedy density completion → incumbent candidate, CELF-style lazy
        // greedy: marginals only shrink as the selection grows
        // (subadditivity), so a stale heap entry is an upper bound — pop
        // the top, re-validate its marginal against the evolving current
        // costs, and take it only if it still beats the next-best bound.
        // This matches a full recompute-argmax greedy at a fraction of the
        // cost and keeps incumbents strong even for 10⁵-candidate pools.
        {
            #[derive(PartialEq)]
            struct Entry {
                density: f64,
                cand: u32,
            }
            impl Eq for Entry {}
            impl PartialOrd for Entry {
                fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                    Some(self.cmp(other))
                }
            }
            impl Ord for Entry {
                fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                    self.density
                        .partial_cmp(&other.density)
                        .unwrap_or(std::cmp::Ordering::Equal)
                }
            }

            let mut lazy: BinaryHeap<Entry> = items
                .iter()
                .zip(&item_cand)
                .map(|(it, &k)| Entry {
                    density: it.value / it.weight.max(1) as f64,
                    cand: k,
                })
                .collect();
            let mut sel: Vec<bool> = state.decided.iter().map(|&d| d == 1).collect();
            let mut cur = state.cur.clone();
            let mut total = state.total;
            let mut mem_left = remaining;
            while let Some(top) = lazy.pop() {
                let k = top.cand as usize;
                let w = instance.candidate_memory[k];
                if w > mem_left || sel[k] {
                    continue;
                }
                let mut m = 0.0;
                for &(j, c) in &inverted[k] {
                    if c < cur[j as usize] {
                        m += instance.queries[j as usize].weight * (cur[j as usize] - c);
                    }
                }
                m -= instance.penalty(k);
                if m <= 0.0 {
                    continue;
                }
                let density = m / w.max(1) as f64;
                let next_best = lazy.peek().map_or(f64::NEG_INFINITY, |e| e.density);
                if density + 1e-12 < next_best {
                    lazy.push(Entry { density, cand: top.cand });
                    continue;
                }
                sel[k] = true;
                mem_left -= w;
                total -= m;
                for &(j, c) in &inverted[k] {
                    if c < cur[j as usize] {
                        cur[j as usize] = c;
                    }
                }
            }
            if total < incumbent_obj - 1e-12 {
                incumbent_obj = total;
                incumbent_sel = sel;
            }
        }

        if gap(incumbent_obj, node_lb) <= options.mip_gap + 1e-12 {
            // This node's subtree cannot beat the incumbent by more than
            // the gap; with best-first order this node had the smallest
            // bound, but sibling bounds may be smaller than node_lb —
            // only prune the subtree.
            continue;
        }

        // Branch on the densest fitting undecided candidate.
        let mut branch: Option<u32> = None;
        let mut best_density = 0.0;
        for (ii, item) in items.iter().enumerate() {
            if item.weight <= remaining {
                let d = item.value / item.weight.max(1) as f64;
                if d > best_density {
                    best_density = d;
                    branch = Some(item_cand[ii]);
                }
            }
        }
        let Some(bk) = branch else {
            // No candidate fits or helps: node is a leaf; its total is a
            // feasible objective (already covered by the greedy pass).
            continue;
        };
        for fixed_in in [true, false] {
            if fixed_in && state.used_mem + instance.candidate_memory[bk as usize] > instance.budget
            {
                continue;
            }
            let mut path = node.path.clone();
            path.push((bk, fixed_in));
            heap.push(Node { path, bound: node_lb });
        }
    }

    if heap.is_empty() && status == SolveStatus::Optimal {
        best_bound = incumbent_obj;
    }
    let lower_bound = if best_bound.is_finite() { best_bound.min(incumbent_obj) } else { 0.0 };
    CophySolution {
        status,
        gap: gap(incumbent_obj, lower_bound),
        selected: incumbent_sel,
        objective: incumbent_obj,
        lower_bound,
        nodes,
        solve_time: start.elapsed(),
    }
}

fn gap(ub: f64, lb: f64) -> f64 {
    if ub.abs() < 1e-12 {
        return 0.0;
    }
    ((ub - lb) / ub.abs()).max(0.0)
}

/// Objective and memory of a given selection: what the tests check the
/// solver's answers against.
#[cfg(test)]
impl CophyInstance {
    /// Total workload cost of a selection (bit-vector over candidates),
    /// including per-candidate selection penalties.
    pub(crate) fn cost_of(&self, selected: &[bool]) -> f64 {
        let queries: f64 = self
            .queries
            .iter()
            .map(|q| {
                let mut best = q.base_cost;
                for &(k, c) in &q.options {
                    if selected[k as usize] {
                        best = best.min(c);
                    }
                }
                q.weight * best
            })
            .sum();
        let penalties: f64 = selected
            .iter()
            .enumerate()
            .filter(|(_, s)| **s)
            .map(|(k, _)| self.penalty(k))
            .sum();
        queries + penalties
    }

    /// Memory used by a selection.
    pub(crate) fn memory_of(&self, selected: &[bool]) -> u64 {
        selected
            .iter()
            .zip(&self.candidate_memory)
            .filter(|(s, _)| **s)
            .map(|(_, &m)| m)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::best_subset;
    use crate::milp::{self, MilpOptions, MilpProblem};
    use crate::simplex::{ConstraintOp, LinearProgram};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn exact() -> CophyOptions {
        CophyOptions { mip_gap: 0.0, time_limit: Duration::from_secs(30), max_nodes: 1_000_000 }
    }

    fn random_instance(rng: &mut StdRng, n_cand: usize, n_q: usize) -> CophyInstance {
        let candidate_memory: Vec<u64> = (0..n_cand).map(|_| rng.gen_range(1..20)).collect();
        let queries = (0..n_q)
            .map(|_| {
                let base_cost = rng.gen_range(50.0..200.0);
                let n_opts = rng.gen_range(0..=n_cand);
                let mut opts: Vec<u32> = (0..n_cand as u32).collect();
                for i in (1..opts.len()).rev() {
                    opts.swap(i, rng.gen_range(0..=i));
                }
                opts.truncate(n_opts);
                CophyQueryRow {
                    weight: rng.gen_range(1.0..10.0),
                    base_cost,
                    options: opts
                        .into_iter()
                        .map(|k| (k, rng.gen_range(1.0..base_cost)))
                        .collect(),
                }
            })
            .collect();
        let total_mem: u64 = candidate_memory.iter().sum();
        CophyInstance {
            candidate_memory,
            candidate_penalty: vec![],
            queries,
            budget: rng.gen_range(0..=total_mem),
        }
    }

    #[test]
    fn empty_instance_is_trivially_optimal() {
        let inst = CophyInstance {
            candidate_memory: vec![],
            candidate_penalty: vec![],
            queries: vec![CophyQueryRow { weight: 2.0, base_cost: 10.0, options: vec![] }],
            budget: 100,
        };
        let s = solve(&inst, &exact());
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-9);
    }

    #[test]
    fn picks_the_obvious_single_index() {
        let inst = CophyInstance {
            candidate_memory: vec![5, 5],
            candidate_penalty: vec![],
            queries: vec![
                CophyQueryRow { weight: 1.0, base_cost: 100.0, options: vec![(0, 10.0), (1, 90.0)] },
            ],
            budget: 5,
        };
        let s = solve(&inst, &exact());
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.selected, vec![true, false]);
        assert!((s.objective - 10.0).abs() < 1e-9);
    }

    #[test]
    fn respects_the_budget() {
        let inst = CophyInstance {
            candidate_memory: vec![10, 10],
            candidate_penalty: vec![],
            queries: vec![
                CophyQueryRow { weight: 1.0, base_cost: 100.0, options: vec![(0, 1.0)] },
                CophyQueryRow { weight: 1.0, base_cost: 100.0, options: vec![(1, 1.0)] },
            ],
            budget: 10,
        };
        let s = solve(&inst, &exact());
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.selected.iter().filter(|&&x| x).count(), 1);
        assert!((s.objective - 101.0).abs() < 1e-9);
    }

    #[test]
    fn captures_index_interaction() {
        // Two candidates that serve the same query: taking both wastes
        // memory that a third candidate could use.
        let inst = CophyInstance {
            candidate_memory: vec![5, 5, 5],
            candidate_penalty: vec![],
            queries: vec![
                CophyQueryRow { weight: 1.0, base_cost: 100.0, options: vec![(0, 10.0), (1, 12.0)] },
                CophyQueryRow { weight: 1.0, base_cost: 100.0, options: vec![(2, 10.0)] },
            ],
            budget: 10,
        };
        let s = solve(&inst, &exact());
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.selected, vec![true, false, true]);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(7);
        for round in 0..25 {
            let (n_cand, n_q) = (rng.gen_range(1..9), rng.gen_range(1..8));
            let inst = random_instance(&mut rng, n_cand, n_q);
            let s = solve(&inst, &exact());
            let (bf, _) =
                best_subset(n_cand, |s| inst.memory_of(s) <= inst.budget, |s| inst.cost_of(s))
                    .expect("the empty selection fits");
            assert!(
                (s.objective - bf).abs() < 1e-6,
                "round {round}: bb={} bf={bf}",
                s.objective
            );
            assert_eq!(s.status, SolveStatus::Optimal, "round {round}");
            assert!(inst.memory_of(&s.selected) <= inst.budget);
            assert!((inst.cost_of(&s.selected) - s.objective).abs() < 1e-6);
        }
    }

    #[test]
    fn matches_generic_milp_on_small_instances() {
        // Build the literal LP (5)–(8) and cross-check objectives.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..5 {
            let inst = random_instance(&mut rng, 5, 5);
            let n = inst.candidate_memory.len();
            // Variables: x_0..x_{n-1}, then z_{jk} including the "0" option.
            let mut obj = vec![0.0; n];
            let mut z_index = Vec::new(); // (query, option index within row) → var
            for (j, q) in inst.queries.iter().enumerate() {
                let mut row = Vec::new();
                row.push(obj.len());
                obj.push(q.weight * q.base_cost); // z_{j0}
                for &(_, c) in &q.options {
                    row.push(obj.len());
                    obj.push(q.weight * c);
                }
                z_index.push((j, row));
            }
            let mut lp = LinearProgram::minimize(obj);
            for (j, row) in &z_index {
                // Σ z = 1
                lp.constrain(row.iter().map(|&v| (v, 1.0)).collect(), ConstraintOp::Eq, 1.0);
                // z_{jk} ≤ x_k for real options (skip the 0 option).
                for (oi, &(k, _)) in inst.queries[*j].options.iter().enumerate() {
                    lp.constrain(
                        vec![(row[oi + 1], 1.0), (k as usize, -1.0)],
                        ConstraintOp::Le,
                        0.0,
                    );
                }
            }
            lp.constrain(
                (0..n).map(|k| (k, inst.candidate_memory[k] as f64)).collect(),
                ConstraintOp::Le,
                inst.budget as f64,
            );
            let milp_sol = milp::solve(
                &MilpProblem { lp, binary_vars: (0..n).collect() },
                &MilpOptions { mip_gap: 0.0, ..Default::default() },
            );
            let bb = solve(&inst, &exact());
            assert!(
                (milp_sol.objective - bb.objective).abs() < 1e-5,
                "milp={} bb={}",
                milp_sol.objective,
                bb.objective
            );
        }
    }

    #[test]
    fn gap_mode_stops_early_but_within_gap() {
        let mut rng = StdRng::seed_from_u64(3);
        let inst = random_instance(&mut rng, 14, 20);
        let s = solve(
            &inst,
            &CophyOptions { mip_gap: 0.10, ..Default::default() },
        );
        assert!(s.status.finished());
        assert!(s.gap <= 0.10 + 1e-9, "gap={}", s.gap);
        assert!(s.objective >= s.lower_bound - 1e-9);
    }

    #[test]
    fn zero_budget_keeps_base_costs() {
        let inst = CophyInstance {
            candidate_memory: vec![5],
            candidate_penalty: vec![],
            queries: vec![CophyQueryRow { weight: 1.0, base_cost: 42.0, options: vec![(0, 1.0)] }],
            budget: 0,
        };
        let s = solve(&inst, &exact());
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 42.0).abs() < 1e-9);
        assert_eq!(s.selected, vec![false]);
    }

    #[test]
    fn penalties_deter_marginal_candidates() {
        // Without penalty the index is worth it; with a penalty larger
        // than its benefit it must not be selected.
        let base = CophyInstance {
            candidate_memory: vec![5],
            candidate_penalty: vec![],
            queries: vec![CophyQueryRow { weight: 1.0, base_cost: 100.0, options: vec![(0, 10.0)] }],
            budget: 10,
        };
        let s = solve(&base, &exact());
        assert_eq!(s.selected, vec![true]);
        let penalized = CophyInstance { candidate_penalty: vec![200.0], ..base.clone() };
        let s = solve(&penalized, &exact());
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.selected, vec![false]);
        assert!((s.objective - 100.0).abs() < 1e-9);
        // A small penalty still pays off and shows up in the objective.
        let mild = CophyInstance { candidate_penalty: vec![30.0], ..base };
        let s = solve(&mild, &exact());
        assert_eq!(s.selected, vec![true]);
        assert!((s.objective - 40.0).abs() < 1e-9);
    }

    #[test]
    fn lp_size_counts_variables_and_constraints() {
        let inst = CophyInstance {
            candidate_memory: vec![1, 1],
            candidate_penalty: vec![],
            queries: vec![
                CophyQueryRow { weight: 1.0, base_cost: 1.0, options: vec![(0, 0.5), (1, 0.6)] },
                CophyQueryRow { weight: 1.0, base_cost: 1.0, options: vec![(1, 0.5)] },
            ],
            budget: 2,
        };
        // vars: 2 x + (3 + 2) z = 7; constraints: 2 assignment + 3 linking + 1 memory = 6.
        assert_eq!(inst.lp_size(), (7, 6));
    }

    #[test]
    fn time_limit_yields_dnf_with_feasible_incumbent() {
        let mut rng = StdRng::seed_from_u64(5);
        let inst = random_instance(&mut rng, 60, 120);
        let s = solve(
            &inst,
            &CophyOptions {
                mip_gap: 0.0,
                time_limit: Duration::from_millis(1),
                max_nodes: usize::MAX,
            },
        );
        assert!(inst.memory_of(&s.selected) <= inst.budget);
        assert!(s.objective.is_finite());
    }
}
