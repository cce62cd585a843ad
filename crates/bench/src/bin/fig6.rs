//! **Figure 6** — CoPhy's LP problem complexity: number of variables and
//! constraints as a function of the relative candidate-set size.
//!
//! Paper setting: the end-to-end workload (N = 100, Q = 100,
//! |I_max| = 2 937); both counts grow linearly to ≈ 20 000 at 100 % of the
//! candidates.

use isel_bench::{accept_args, header, report_written, ResultSink};
use isel_core::{budget, candidates, cophy};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_workload::synthetic::{self, SyntheticConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    fraction: f64,
    candidates: usize,
    variables: usize,
    constraints: usize,
}

fn main() {
    accept_args(&[]);
    let cfg = SyntheticConfig::end_to_end(0xE2E);
    let workload = synthetic::generate(&cfg);
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&workload));
    let pool = candidates::enumerate_imax(&workload, 4);
    println!("(|I_max| = {})", pool.len());
    let a = budget::relative_budget(&est, 0.2);

    let mut sink = ResultSink::new("fig6");
    header(
        "Figure 6: LP size vs relative candidate-set size",
        &["fraction", "|I|", "variables", "constraints"],
    );
    // Frequency-ranked pool; each fraction takes a prefix so that 100%
    // really is the exhaustive candidate set.
    let mut ranked: Vec<_> = pool.entries().to_vec();
    ranked.sort_by(|x, y| y.occurrences.cmp(&x.occurrences).then(x.set.cmp(&y.set)));
    for i in 1..=10 {
        let fraction = i as f64 / 10.0;
        let n = ((pool.len() as f64) * fraction).round() as usize;
        let cands: Vec<_> = ranked[..n].iter().map(|e| est.pool().intern(&e.index)).collect();
        let inst = cophy::build_instance(&est, &cands, a);
        let (variables, constraints) = inst.lp_size();
        println!("{fraction:.1}\t{}\t{variables}\t{constraints}", cands.len());
        sink.emit(&Row { fraction, candidates: cands.len(), variables, constraints });
    }
    report_written(&sink.finish());
}
