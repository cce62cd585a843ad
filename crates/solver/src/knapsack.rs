//! Knapsack helpers.
//!
//! * [`fractional_upper_bound`] — the classic fractional relaxation used as
//!   the node bound of the CoPhy branch-and-bound,
//! * [`solve_01`] — 0/1 knapsack with a safe degradation contract: exact
//!   dynamic programming while the DP table is affordable, greedy
//!   density fill beyond (the result says which path ran).

use std::cmp::Ordering;

/// An item with a value and a weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Item {
    /// Profit of taking the item.
    pub value: f64,
    /// Capacity consumed (must be ≥ 1 for the DP).
    pub weight: u64,
}

/// Total order on densities treating NaN as the lowest value, so a
/// degenerate `0/0` item deterministically ranks last instead of
/// panicking the sort. (Local copy: `isel-solver` is intentionally
/// dependency-free; the canonical version lives in `isel_workload::ord`.)
fn total_cmp_nan_lowest(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.total_cmp(&b),
    }
}

/// Item indices ordered by value density (descending, NaN last), with a
/// deterministic index tie-break. Only positive-value items participate.
fn density_order(items: &[Item]) -> Vec<usize> {
    let density = |i: usize| items[i].value / items[i].weight.max(1) as f64;
    let mut order: Vec<usize> = (0..items.len())
        .filter(|&i| items[i].value > 0.0)
        .collect();
    order.sort_by(|&a, &b| total_cmp_nan_lowest(density(b), density(a)).then(a.cmp(&b)));
    order
}

/// Best achievable value when items may be taken fractionally — an upper
/// bound on the 0/1 optimum. `items` need not be sorted.
pub fn fractional_upper_bound(items: &[Item], capacity: u64) -> f64 {
    let order = density_order(items);
    let mut remaining = capacity as f64;
    let mut total = 0.0;
    for i in order {
        if remaining <= 0.0 {
            break;
        }
        let w = items[i].weight.max(1) as f64;
        if w <= remaining {
            total += items[i].value;
            remaining -= w;
        } else {
            total += items[i].value * (remaining / w);
            break;
        }
    }
    total
}

/// Which computation produced a [`KnapsackSolution`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolvePath {
    /// Exact `O(n · capacity)` dynamic program.
    ExactDp,
    /// Greedy density fill — the safe degradation for capacities whose DP
    /// table would not fit in memory (e.g. byte-denominated budgets).
    GreedyFallback,
}

/// A 0/1 knapsack solution together with the path that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct KnapsackSolution {
    /// Total value of the chosen items.
    pub value: f64,
    /// Chosen item indices, ascending.
    pub chosen: Vec<usize>,
    /// Whether the exact DP or the greedy fallback ran.
    pub path: SolvePath,
}

/// DP-table cell budget above which [`solve_01`] degrades to the greedy
/// density fill. `n · capacity` cells at one byte each — 64 Mi cells keeps
/// the table comfortably under 100 MB while covering every test-scale
/// budget exactly.
pub const DP_CELL_LIMIT: u128 = 1 << 26;

/// 0/1 knapsack with safe degradation: exact DP while
/// `n · (capacity + 1) ≤ DP_CELL_LIMIT` (and the capacity fits `usize`),
/// greedy density fill beyond. A terabyte-scale byte budget therefore
/// returns a feasible (if approximate) solution instead of aborting on an
/// allocation the machine cannot satisfy.
pub fn solve_01(items: &[Item], capacity: u64) -> KnapsackSolution {
    let cells = (items.len() as u128).max(1) * (capacity as u128 + 1);
    if usize::try_from(capacity).is_err() || cells > DP_CELL_LIMIT {
        return greedy_by_density(items, capacity);
    }
    let (value, chosen) = dp_over_capacities(items, capacity);
    KnapsackSolution { value, chosen, path: SolvePath::ExactDp }
}

/// Greedy density fill: take positive-value items best-density-first while
/// they fit. Deterministic (index tie-break), never allocates proportional
/// to the capacity. Matches the DP's conventions: zero-weight and
/// non-positive-value items are never taken.
fn greedy_by_density(items: &[Item], capacity: u64) -> KnapsackSolution {
    let mut remaining = capacity;
    let mut value = 0.0;
    let mut chosen = Vec::new();
    for i in density_order(items) {
        let w = items[i].weight;
        if w == 0 {
            continue;
        }
        if w <= remaining {
            remaining -= w;
            value += items[i].value;
            chosen.push(i);
        }
    }
    chosen.sort_unstable();
    KnapsackSolution { value, chosen, path: SolvePath::GreedyFallback }
}

/// Exact 0/1 knapsack DP over capacities — `O(n · capacity)` time and
/// table space; only called for capacities vetted by [`solve_01`].
fn dp_over_capacities(items: &[Item], capacity: u64) -> (f64, Vec<usize>) {
    let cap = usize::try_from(capacity).expect("capacity vetted by solve_01");
    let mut best = vec![0.0f64; cap + 1];
    let mut take = vec![false; items.len() * (cap + 1)];
    for (i, item) in items.iter().enumerate() {
        if item.weight > capacity {
            continue; // can never fit; also keeps the usize cast safe
        }
        let w = item.weight as usize;
        if w == 0 || item.value <= 0.0 {
            continue;
        }
        for c in (w..=cap).rev() {
            let with = best[c - w] + item.value;
            if with > best[c] {
                best[c] = with;
                take[i * (cap + 1) + c] = true;
            }
        }
    }
    // Reconstruct.
    let mut chosen = Vec::new();
    let mut c = cap;
    for i in (0..items.len()).rev() {
        if take[i * (cap + 1) + c] {
            chosen.push(i);
            c -= items[i].weight as usize; // taken ⇒ weight ≤ capacity
        }
    }
    chosen.reverse();
    (best[cap], chosen)
}

/// [`solve_01`] as `(best value, chosen item indices)`: the exact DP the
/// branch-and-bound tests compare against at test-scale capacities.
#[cfg(test)]
pub(crate) fn solve_01_dynamic(items: &[Item], capacity: u64) -> (f64, Vec<usize>) {
    let s = solve_01(items, capacity);
    (s.value, s.chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn items(vw: &[(f64, u64)]) -> Vec<Item> {
        vw.iter().map(|&(value, weight)| Item { value, weight }).collect()
    }

    #[test]
    fn fractional_bound_takes_best_density_first() {
        let its = items(&[(60.0, 10), (100.0, 20), (120.0, 30)]);
        // Capacity 50: take items 0 and 1 fully, 2/3 of item 2 → 240.
        let ub = fractional_upper_bound(&its, 50);
        assert!((ub - 240.0).abs() < 1e-9, "{ub}");
    }

    #[test]
    fn fractional_bound_with_plenty_of_capacity_takes_everything() {
        let its = items(&[(1.0, 1), (2.0, 2)]);
        assert!((fractional_upper_bound(&its, 100) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn dp_solves_textbook_instance() {
        let its = items(&[(60.0, 10), (100.0, 20), (120.0, 30)]);
        let (v, chosen) = solve_01_dynamic(&its, 50);
        assert!((v - 220.0).abs() < 1e-9);
        assert_eq!(chosen, vec![1, 2]);
    }

    #[test]
    fn dp_zero_capacity_selects_nothing() {
        let its = items(&[(5.0, 1)]);
        let (v, chosen) = solve_01_dynamic(&its, 0);
        assert_eq!(v, 0.0);
        assert!(chosen.is_empty());
    }

    #[test]
    fn negative_values_are_never_taken() {
        let its = items(&[(-5.0, 1), (3.0, 1)]);
        let (v, chosen) = solve_01_dynamic(&its, 2);
        assert!((v - 3.0).abs() < 1e-12);
        assert_eq!(chosen, vec![1]);
        assert!((fractional_upper_bound(&its, 2) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn huge_byte_budget_takes_the_greedy_path_without_allocating() {
        // A 1 TiB byte-denominated budget used to abort (usize cast) or
        // OOM (O(n·capacity) table). Now it degrades to greedy density.
        let its = items(&[(60.0, 10), (100.0, 20), (120.0, 30)]);
        let s = solve_01(&its, 1 << 40);
        assert_eq!(s.path, SolvePath::GreedyFallback);
        assert_eq!(s.chosen, vec![0, 1, 2]); // everything fits
        assert!((s.value - 280.0).abs() < 1e-9);
        // u64::MAX capacity (cannot fit usize on 32-bit, cells overflow
        // any limit) is equally safe.
        let s = solve_01(&its, u64::MAX);
        assert_eq!(s.path, SolvePath::GreedyFallback);
        assert_eq!(s.chosen.len(), 3);
    }

    #[test]
    fn small_budgets_stay_on_the_exact_path() {
        let its = items(&[(60.0, 10), (100.0, 20), (120.0, 30)]);
        let s = solve_01(&its, 50);
        assert_eq!(s.path, SolvePath::ExactDp);
        assert_eq!(s.chosen, vec![1, 2]);
        assert!((s.value - 220.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_fallback_respects_capacity_and_determinism() {
        let its = items(&[(10.0, 6), (9.0, 5), (8.0, 4), (1.0, 1)]);
        let cap = (DP_CELL_LIMIT as u64) + 7; // force the greedy path
        let a = solve_01(&its, cap);
        let b = solve_01(&its, cap);
        assert_eq!(a, b);
        let weight: u64 = a.chosen.iter().map(|&i| its[i].weight).sum();
        assert!(weight <= cap);
    }

    #[test]
    fn nan_valued_items_never_panic_or_get_chosen() {
        let its = items(&[(f64::NAN, 5), (3.0, 5), (f64::NAN, 1)]);
        let (v, chosen) = solve_01_dynamic(&its, 10);
        assert_eq!(chosen, vec![1]);
        assert!((v - 3.0).abs() < 1e-12);
        let ub = fractional_upper_bound(&its, 10);
        assert!((ub - 3.0).abs() < 1e-12);
        // NaN *weights* cannot exist (u64); NaN densities come from values
        // and are filtered before ranking on both paths.
        let g = solve_01(&its, u64::MAX);
        assert_eq!(g.chosen, vec![1]);
    }

    proptest! {
        /// The fractional relaxation always dominates the 0/1 optimum.
        #[test]
        fn fractional_dominates_dp(
            vw in prop::collection::vec((0.0f64..100.0, 1u64..20), 1..10),
            cap in 0u64..60,
        ) {
            let its = items(&vw);
            let (dp, _) = solve_01_dynamic(&its, cap);
            let ub = fractional_upper_bound(&its, cap);
            prop_assert!(ub + 1e-6 >= dp, "ub={ub} dp={dp}");
        }

        /// DP solutions respect the capacity and reproduce their value.
        #[test]
        fn dp_solutions_are_consistent(
            vw in prop::collection::vec((0.0f64..100.0, 1u64..20), 1..10),
            cap in 0u64..60,
        ) {
            let its = items(&vw);
            let (v, chosen) = solve_01_dynamic(&its, cap);
            let weight: u64 = chosen.iter().map(|&i| its[i].weight).sum();
            let value: f64 = chosen.iter().map(|&i| its[i].value).sum();
            prop_assert!(weight <= cap);
            prop_assert!((value - v).abs() < 1e-6);
        }
    }
}
