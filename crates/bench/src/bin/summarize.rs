//! Render the recorded experiment results (`results/*.jsonl`) as the
//! compact paper-vs-measured tables used in EXPERIMENTS.md.
//!
//! ```bash
//! cargo run -p isel-bench --release --bin summarize
//! ```

use serde_json::Value;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

fn rows(name: &str) -> Vec<Value> {
    let path = Path::new(
        &std::env::var("ISEL_RESULTS_DIR").unwrap_or_else(|_| "results".to_owned()),
    )
    .join(format!("{name}.jsonl"));
    let Ok(text) = fs::read_to_string(&path) else {
        println!("  (no {name}.jsonl — run the {name} binary first)");
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str(l).ok())
        .collect()
}

fn f(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn s(v: &Value, key: &str) -> String {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or("?")
        .to_owned()
}

fn summarize_table1() {
    println!("\n## Table I (solve seconds; DNF = hit the wall-clock cutoff)");
    println!("SumQ\t|I|\tCoPhy\tstatus\tH6");
    for r in rows("table1") {
        println!(
            "{}\t{}\t{:.3}\t{}\t{:.3}",
            f(&r, "total_queries") as u64,
            f(&r, "candidates") as u64,
            f(&r, "cophy_solve_secs"),
            s(&r, "cophy_status"),
            f(&r, "h6_secs"),
        );
    }
}

/// Frontier figures share one shape: series × budget → relative cost.
/// `w_decimals` is the precision the figure's binary prints `w` at (for
/// Figs. 2–4 its `FrontierWriter::new` argument), so each column is keyed
/// and labelled as that binary labels it.
fn summarize_frontier(name: &str, title: &str, w_decimals: usize) {
    println!("\n## {title} (relative workload cost; 1.0 = unindexed)");
    for line in frontier_table(&rows(name), w_decimals) {
        println!("{line}");
    }
}

/// The header and series lines of one frontier table; empty without rows.
fn frontier_table(rows: &[Value], w_decimals: usize) -> Vec<String> {
    if rows.is_empty() {
        return Vec::new();
    }
    let mut budgets: Vec<String> = Vec::new();
    let mut table: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    for r in rows {
        let w = format!("{:.w_decimals$}", f(r, "w"));
        if !budgets.contains(&w) {
            budgets.push(w.clone());
        }
        table
            .entry(s(r, "series"))
            .or_default()
            .insert(w, f(r, "relative_cost"));
    }
    let mut lines = vec![format!("series\t{}", budgets.join("\t"))];
    for (series, by_w) in table {
        let cells: Vec<String> = budgets
            .iter()
            .map(|w| by_w.get(w).map_or("-".to_owned(), |v| format!("{v:.4}")))
            .collect();
        lines.push(format!("{series}\t{}", cells.join("\t")));
    }
    lines
}

fn summarize_fig6() {
    println!("\n## Figure 6 (LP size vs candidate fraction)");
    println!("fraction\t|I|\tvars\tconstraints");
    for r in rows("fig6") {
        println!(
            "{:.1}\t{}\t{}\t{}",
            f(&r, "fraction"),
            f(&r, "candidates") as u64,
            f(&r, "variables") as u64,
            f(&r, "constraints") as u64,
        );
    }
}

fn summarize_ext_dynamic() {
    println!("\n## Extension: dynamic adaptation (total cost over epochs)");
    println!("create$/B\tpolicy\ttotal\treconfig");
    for r in rows("ext_dynamic") {
        println!(
            "{}\t{}\t{:.3e}\t{:.3e}",
            f(&r, "create_cost_per_byte"),
            s(&r, "policy"),
            f(&r, "total_cost"),
            f(&r, "reconfig_cost"),
        );
    }
}

fn summarize_ext_updates() {
    println!("\n## Extension: update-aware selection (relative true cost)");
    println!("upd\tseries\trelative\t|I*|");
    for r in rows("ext_updates") {
        println!(
            "{:.1}\t{}\t{:.5}\t{}",
            f(&r, "update_fraction"),
            s(&r, "series"),
            f(&r, "relative_cost"),
            f(&r, "indexes") as u64,
        );
    }
}

fn main() {
    isel_bench::accept_args(&[]);
    summarize_table1();
    summarize_frontier("fig2", "Figure 2 — candidate heuristics", 2);
    summarize_frontier("fig3", "Figure 3 — candidate-set sizes", 2);
    summarize_frontier("fig4", "Figure 4 — ERP workload", 4);
    summarize_frontier("fig5", "Figure 5 — end-to-end (measured)", 1);
    summarize_fig6();
    summarize_ext_updates();
    summarize_ext_dynamic();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_grid_keeps_every_budget_at_the_printed_precision() {
        // fig4's grid: w = 0, 0.0125, …, 0.1. Two decimals would label
        // 0.0125 "0.01" and 0.0375 "0.04", which are not its budgets.
        let rows: Vec<Value> = (0..=8)
            .map(|i| {
                let w = i as f64 * 0.0125;
                serde_json::json!({ "series": "H6", "w": w, "relative_cost": 1.0 - w })
            })
            .collect();
        let lines = frontier_table(&rows, 4);
        assert_eq!(
            lines[0],
            "series\t0.0000\t0.0125\t0.0250\t0.0375\t0.0500\t0.0625\t0.0750\t0.0875\t0.1000"
        );
        assert_eq!(lines[1].split('\t').count(), 10, "one cell per budget: {}", lines[1]);
        assert!(lines[1].starts_with("H6\t1.0000\t0.9875\t"), "{}", lines[1]);
    }
}
