//! Brute-force reference answers for tiny instances.
//!
//! The solvers of this crate and its test-only reference stack (`simplex`,
//! `milp`) would otherwise be checked only against each other. This module
//! answers the same questions by exhaustive enumeration, with no shared
//! code: every subset of `n ≤ 12` binary decisions, and every vertex of a
//! small LP's feasible polytope.

use crate::simplex::{ConstraintOp, LinearProgram};

/// The largest instance [`best_subset`] enumerates: 4 096 subsets.
const MAX_ITEMS: usize = 12;

/// The cheapest feasible subset of `n` items, as `(cost, chosen)`, or
/// `None` when no subset is feasible. Subsets are visited in increasing
/// bitmask order, so ties go to the first.
pub(crate) fn best_subset(
    n: usize,
    feasible: impl Fn(&[bool]) -> bool,
    cost: impl Fn(&[bool]) -> f64,
) -> Option<(f64, Vec<bool>)> {
    assert!(n <= MAX_ITEMS, "{n} items are too many to enumerate");
    let mut best: Option<(f64, Vec<bool>)> = None;
    for mask in 0u32..1 << n {
        let chosen: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
        if !feasible(&chosen) {
            continue;
        }
        let c = cost(&chosen);
        if best.as_ref().is_none_or(|(b, _)| c < *b) {
            best = Some((c, chosen));
        }
    }
    best
}

/// `Σ coeff · x` of one constraint row at point `x`.
fn row_value(coeffs: &[(usize, f64)], x: &[f64]) -> f64 {
    coeffs.iter().map(|&(v, a)| a * x[v]).sum()
}

/// Does `x` satisfy every constraint of `lp` and `x ≥ 0`, within `tol`?
fn lp_feasible(lp: &LinearProgram, x: &[f64], tol: f64) -> bool {
    x.iter().all(|&v| v >= -tol)
        && lp.constraints.iter().all(|c| {
            let lhs = row_value(&c.coeffs, x);
            match c.op {
                ConstraintOp::Le => lhs <= c.rhs + tol,
                ConstraintOp::Ge => lhs >= c.rhs - tol,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
}

/// Solve the square system `a · x = b` by Gaussian elimination with
/// partial pivoting; `None` when it is singular.
fn solve_square(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&r, &s| a[r][col].abs().total_cmp(&a[s][col].abs()))?;
        if a[pivot][col].abs() < 1e-9 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for r in col + 1..n {
            let f = a[r][col] / a[col][col];
            let (above, below) = a.split_at_mut(r);
            for (x, p) in below[0][col..].iter_mut().zip(&above[col][col..]) {
                *x -= f * p;
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let tail: f64 = (r + 1..n).map(|c| a[r][c] * x[c]).sum();
        x[r] = (b[r] - tail) / a[r][r];
    }
    Some(x)
}

/// The minimum of a *bounded* LP `min cᵀx, constraints, x ≥ 0` over the
/// vertices of its feasible polytope, or `None` when it has none
/// (infeasible). A vertex is where `n` linearly independent hyperplanes —
/// constraint rows or `x_i = 0` — meet; every subset of `n` of them is
/// tried, so keep `n` and the row count tiny.
fn lp_vertex_minimum(lp: &LinearProgram) -> Option<f64> {
    let n = lp.num_vars();
    let mut planes: Vec<(Vec<f64>, f64)> = lp
        .constraints
        .iter()
        .map(|c| {
            let mut dense = vec![0.0; n];
            for &(v, a) in &c.coeffs {
                dense[v] += a;
            }
            (dense, c.rhs)
        })
        .collect();
    planes.extend((0..n).map(|i| ((0..n).map(|j| f64::from(u8::from(i == j))).collect(), 0.0)));
    assert!(planes.len() <= 16, "too many hyperplanes to enumerate");
    let mut best: Option<f64> = None;
    for mask in 0u32..1 << planes.len() {
        if mask.count_ones() as usize != n {
            continue;
        }
        let active: Vec<&(Vec<f64>, f64)> =
            (0..planes.len()).filter(|&p| mask >> p & 1 == 1).map(|p| &planes[p]).collect();
        let a = active.iter().map(|(row, _)| row.clone()).collect();
        let b = active.iter().map(|(_, rhs)| *rhs).collect();
        let Some(x) = solve_square(a, b) else {
            continue;
        };
        if lp_feasible(lp, &x, 1e-7) {
            let obj: f64 = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
            best = Some(best.map_or(obj, |b: f64| b.min(obj)));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cophy::{CophyInstance, CophyQueryRow};
    use crate::formulation;
    use crate::knapsack::{self, Item, SolvePath};
    use crate::milp::{self, MilpOptions, MilpProblem};
    use crate::simplex::{self, LpOutcome};
    use crate::SolveStatus;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `|a − b|` within `1e-9` of the larger magnitude (or of 1).
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn best_subset_enumerates_every_subset() {
        // Cost = number of chosen items, feasible = at least three chosen
        // among the first four: exactly {0, 1, 2} wins (first in mask
        // order among the ties).
        let (cost, chosen) = best_subset(
            6,
            |s| s[..4].iter().filter(|&&c| c).count() >= 3,
            |s| s.iter().filter(|&&c| c).count() as f64,
        )
        .expect("feasible");
        assert_eq!(cost, 3.0);
        assert_eq!(chosen, [true, true, true, false, false, false]);
        assert!(best_subset(3, |_| false, |_| 0.0).is_none());
    }

    #[test]
    fn vertex_enumeration_solves_a_textbook_lp() {
        // max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, x ≤ 3: optimum (3, 1) = 11.
        let mut lp = LinearProgram::minimize(vec![-3.0, -2.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Le, 4.0);
        lp.constrain(vec![(0, 1.0), (1, 3.0)], ConstraintOp::Le, 6.0);
        lp.constrain(vec![(0, 1.0)], ConstraintOp::Le, 3.0);
        assert!(close(lp_vertex_minimum(&lp).expect("feasible"), -11.0));
        lp.constrain(vec![(1, 1.0)], ConstraintOp::Ge, 5.0);
        assert_eq!(lp_vertex_minimum(&lp), None);
    }

    /// `solve_01` is the exact optimum on every DP-sized instance: its
    /// chosen items fit, add up to its value, and no subset does better.
    #[test]
    fn solve_01_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(0xB407E);
        for case in 0..300 {
            let n = rng.gen_range(1..=MAX_ITEMS);
            let items: Vec<Item> = (0..n)
                .map(|_| Item { value: rng.gen_range(-20.0..100.0), weight: rng.gen_range(1..25) })
                .collect();
            let total: u64 = items.iter().map(|i| i.weight).sum();
            let capacity = rng.gen_range(0..=total + 2);
            let weight = |s: &[bool]| -> u64 {
                s.iter().zip(&items).filter(|(c, _)| **c).map(|(_, i)| i.weight).sum()
            };
            let value = |s: &[bool]| -> f64 {
                s.iter().zip(&items).filter(|(c, _)| **c).map(|(_, i)| i.value).sum()
            };
            let (neg_best, _) = best_subset(n, |s| weight(s) <= capacity, |s| -value(s))
                .expect("the empty subset fits");
            let got = knapsack::solve_01(&items, capacity);
            assert_eq!(got.path, SolvePath::ExactDp, "case {case}");
            let mut chosen = vec![false; n];
            for &i in &got.chosen {
                chosen[i] = true;
            }
            assert!(weight(&chosen) <= capacity, "case {case}: over capacity");
            assert!(close(value(&chosen), got.value), "case {case}: value misreported");
            assert!(close(got.value, -neg_best), "case {case}: {} vs {}", got.value, -neg_best);
        }
    }

    /// The MILP oracle finds the optimum of small pure binary programs
    /// (and calls infeasible ones infeasible), as enumeration does.
    #[test]
    fn milp_matches_brute_force_on_binary_programs() {
        let mut rng = StdRng::seed_from_u64(0xB1A4);
        let (mut feasible, mut infeasible) = (0, 0);
        for case in 0..150 {
            let n = rng.gen_range(1..=8);
            let objective: Vec<f64> = (0..n).map(|_| rng.gen_range(-10..=10) as f64).collect();
            let mut lp = LinearProgram::minimize(objective.clone());
            for _ in 0..rng.gen_range(1..=3) {
                let coeffs: Vec<(usize, f64)> =
                    (0..n).map(|v| (v, rng.gen_range(-3..=6) as f64)).collect();
                let op = [ConstraintOp::Le, ConstraintOp::Ge, ConstraintOp::Eq]
                    [rng.gen_range(0..3usize)];
                lp.constrain(coeffs, op, rng.gen_range(0..=2 * n as i32) as f64);
            }
            let brute = best_subset(
                n,
                |s| {
                    lp_feasible(
                        &lp,
                        &s.iter().map(|&c| f64::from(u8::from(c))).collect::<Vec<_>>(),
                        1e-9,
                    )
                },
                |s| s.iter().zip(&objective).filter(|(c, _)| **c).map(|(_, o)| o).sum(),
            );
            let got = milp::solve(
                &MilpProblem { lp, binary_vars: (0..n).collect() },
                &MilpOptions::default(),
            );
            match brute {
                None => {
                    infeasible += 1;
                    assert_eq!(got.status, SolveStatus::Infeasible, "case {case}");
                }
                Some((best, _)) => {
                    feasible += 1;
                    assert_eq!(got.status, SolveStatus::Optimal, "case {case}");
                    assert!(
                        (got.objective - best).abs() < 1e-6,
                        "case {case}: {} vs {best}",
                        got.objective
                    );
                }
            }
        }
        assert!(feasible >= 30 && infeasible >= 10, "{feasible} feasible, {infeasible} infeasible");
    }

    /// The MILP oracle on the literal formulation (5)–(8) reaches the
    /// cheapest selection that fits the budget.
    #[test]
    fn milp_on_the_cophy_formulation_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(0xC0F7);
        for case in 0..40 {
            let n = rng.gen_range(1..=5);
            let candidate_memory: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10)).collect();
            let queries = (0..rng.gen_range(1..=3))
                .map(|_| {
                    let base_cost = rng.gen_range(20.0..100.0);
                    let mut options = Vec::new();
                    for k in 0..n as u32 {
                        if rng.gen_bool(0.6) {
                            options.push((k, rng.gen_range(1.0..base_cost)));
                        }
                    }
                    CophyQueryRow { weight: rng.gen_range(1.0..5.0), base_cost, options }
                })
                .collect();
            let total: u64 = candidate_memory.iter().sum();
            let inst = CophyInstance {
                candidate_penalty: (0..n).map(|_| rng.gen_range(0.0..5.0)).collect(),
                budget: rng.gen_range(0..=total),
                candidate_memory,
                queries,
            };
            let (best, _) =
                best_subset(n, |s| inst.memory_of(s) <= inst.budget, |s| inst.cost_of(s))
                    .expect("the empty selection fits");
            let f = formulation::to_linear_program(&inst);
            let got = milp::solve(
                &MilpProblem { lp: f.lp, binary_vars: f.x_vars },
                &MilpOptions::default(),
            );
            assert_eq!(got.status, SolveStatus::Optimal, "case {case}");
            assert!(
                (got.objective - best).abs() < 1e-6,
                "case {case}: {} vs {best}",
                got.objective
            );
        }
    }

    /// The simplex finds the best vertex of small bounded LPs and calls
    /// the empty ones infeasible.
    #[test]
    fn simplex_matches_vertex_enumeration() {
        let mut rng = StdRng::seed_from_u64(0x51A9);
        let (mut feasible, mut infeasible) = (0, 0);
        for case in 0..200 {
            let n = rng.gen_range(1..=3);
            let mut lp =
                LinearProgram::minimize((0..n).map(|_| rng.gen_range(-5.0..5.0)).collect());
            // A box keeps the polytope bounded.
            for v in 0..n {
                lp.constrain(vec![(v, 1.0)], ConstraintOp::Le, rng.gen_range(1.0..6.0));
            }
            for _ in 0..rng.gen_range(0..=3) {
                let coeffs = (0..n).map(|v| (v, rng.gen_range(-3.0..4.0))).collect();
                let op = [ConstraintOp::Le, ConstraintOp::Ge][rng.gen_range(0..2usize)];
                lp.constrain(coeffs, op, rng.gen_range(-2.0..8.0));
            }
            match (lp_vertex_minimum(&lp), simplex::solve(&lp)) {
                (None, LpOutcome::Infeasible) => infeasible += 1,
                (Some(best), LpOutcome::Optimal(s)) => {
                    feasible += 1;
                    assert!(lp_feasible(&lp, &s.x, 1e-7), "case {case}: infeasible point");
                    assert!(
                        (s.objective - best).abs() < 1e-6,
                        "case {case}: {} vs {best}",
                        s.objective
                    );
                }
                (brute, got) => panic!("case {case}: enumeration {brute:?}, simplex {got:?}"),
            }
        }
        assert!(feasible >= 50 && infeasible >= 10, "{feasible} feasible, {infeasible} infeasible");
    }
}
