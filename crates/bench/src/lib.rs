//! Shared plumbing for the experiment binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! DESIGN.md §5 for the mapping) and emits two artifacts:
//!
//! * a human-readable table on stdout, and
//! * machine-readable JSON-lines under `results/` so EXPERIMENTS.md can be
//!   cross-checked.

use isel_core::{algorithm1, Frontier, RunReport, Trace, VecSink};
use isel_costmodel::WhatIfOptimizer;
use serde::Serialize;
use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Where result JSONL files land (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("ISEL_RESULTS_DIR").unwrap_or_else(|_| "results".to_owned());
    let p = PathBuf::from(dir);
    fs::create_dir_all(&p).expect("create results dir");
    p
}

/// JSONL sink for one experiment.
pub struct ResultSink {
    out: BufWriter<File>,
    path: PathBuf,
}

impl ResultSink {
    /// Open (truncate) `results/<name>.jsonl`.
    pub fn new(name: &str) -> Self {
        let path = results_dir().join(format!("{name}.jsonl"));
        let out = BufWriter::new(File::create(&path).expect("create result file"));
        Self { out, path }
    }

    /// Append one row.
    pub fn emit<T: Serialize>(&mut self, row: &T) {
        serde_json::to_writer(&mut self.out, row).expect("serialize row");
        self.out.write_all(b"\n").expect("write row");
    }

    /// Flush and report the path.
    pub fn finish(mut self) -> PathBuf {
        self.out.flush().expect("flush results");
        self.path
    }
}

/// One point of a cost-vs-budget frontier figure (Figs. 2–4).
#[derive(Serialize)]
struct FrontierRow {
    series: String,
    w: f64,
    cost: f64,
    relative_cost: f64,
    status: String,
}

/// Row writer shared by the frontier figures: prints each point as a
/// stdout table row and appends it to the figure's JSONL. Figures differ
/// only in how many decimals of `w` they print.
pub struct FrontierWriter {
    sink: ResultSink,
    base_cost: f64,
    w_decimals: usize,
}

impl FrontierWriter {
    /// Open `results/<name>.jsonl` and print the table header.
    pub fn new(name: &str, title: &str, base_cost: f64, w_decimals: usize) -> Self {
        let sink = ResultSink::new(name);
        header(title, &["series", "w", "cost", "relative"]);
        Self { sink, base_cost, w_decimals }
    }

    /// Print and record one point; `relative_cost` is against the
    /// unindexed workload.
    pub fn emit(&mut self, series: &str, w: f64, cost: f64, status: &str) {
        let relative_cost = cost / self.base_cost;
        println!("{series}\t{w:.prec$}\t{cost:.3e}\t{relative_cost:.4}", prec = self.w_decimals);
        self.sink.emit(&FrontierRow {
            series: series.to_owned(),
            w,
            cost,
            relative_cost,
            status: status.to_owned(),
        });
    }

    /// Flush and report the path.
    pub fn finish(self) -> PathBuf {
        self.sink.finish()
    }
}

/// Wall-time of a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed())
}

/// Run Algorithm 1 once with the maximum budget of a sweep and return its
/// frontier — one H6 run serves every budget (the paper's "excellent
/// results for *any* budget").
pub fn h6_frontier(est: &impl WhatIfOptimizer, max_budget: u64) -> (Frontier, Duration) {
    let (run, t) = timed(|| algorithm1::run(est, &algorithm1::Options::new(max_budget)));
    (run.frontier, t)
}

/// Like [`h6_frontier`] but traced: also returns the aggregated
/// [`RunReport`] (per-scan timing histogram, what-if accounting) of the
/// run. Tracing observes without participating, so the frontier is
/// byte-identical to the untraced one.
pub fn h6_frontier_profiled(
    est: &impl WhatIfOptimizer,
    max_budget: u64,
) -> (Frontier, Duration, RunReport) {
    let sink = VecSink::new();
    let (run, t) = timed(|| {
        algorithm1::run_traced(est, &algorithm1::Options::new(max_budget), Trace::to(&sink))
    });
    (run.frontier, t, RunReport::from_events(&sink.take()))
}

/// Print the candidate-scan wall-time histogram of a traced run — the
/// per-step latency distribution behind the headline seconds column.
pub fn print_scan_histogram(label: &str, report: &RunReport) {
    let h = &report.step_timings;
    if h.samples() == 0 {
        println!("# {label}: no timed scans recorded");
        return;
    }
    println!(
        "# {label}: {} scans, mean {:.1} us/scan",
        h.samples(),
        h.mean_micros()
    );
    for (lo, count) in h.buckets() {
        println!("#   >= {lo:>8} us  {count}");
    }
}

/// Solve CoPhy for every budget share in `ws`, returning
/// `(w, objective, status)` triples.
///
/// The cost coefficients do not depend on the budget, so the instance is
/// built **once** per candidate set and only the budget field varies —
/// mirroring how the paper amortizes what-if collection across a sweep.
pub fn cophy_budget_sweep(
    est: &impl WhatIfOptimizer,
    cands: &[isel_workload::Index],
    ws: &[f64],
    opts: &isel_solver::cophy::CophyOptions,
) -> Vec<(f64, f64, String)> {
    let pool = est.pool();
    let mut seen = std::collections::HashSet::new();
    let deduped: Vec<isel_workload::IndexId> = cands
        .iter()
        .map(|k| pool.intern(k))
        .filter(|&k| seen.insert(k))
        .collect();
    let mut instance = isel_core::cophy::build_instance(est, &deduped, 0);
    ws.iter()
        .map(|&w| {
            instance.budget = isel_core::budget::relative_budget(est, w);
            let sol = isel_solver::cophy::solve(&instance, opts);
            (w, sol.objective, format!("{:?}", sol.status))
        })
        .collect()
}

/// Pretty seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Reject arguments the binary does not know. `accepted` lists its
/// boolean flags (`--quick`) and valued keys (`--rows=N`); anything else
/// prints a usage line and exits with status 2, so a typo cannot silently
/// run the default experiment.
pub fn accept_args(accepted: &[&str]) {
    let known = |arg: &str| {
        accepted.iter().any(|spec| match spec.split_once('=') {
            Some((key, _)) => arg.strip_prefix(key).is_some_and(|v| v.starts_with('=')),
            None => arg == *spec,
        })
    };
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    if let Some(bad) = args.find(|a| !known(a)) {
        let name = Path::new(&bin).file_name().and_then(|n| n.to_str()).unwrap_or(&bin);
        let usage: String = accepted.iter().map(|spec| format!(" [{spec}]")).collect();
        eprintln!("{name}: unknown argument `{bad}`\nusage: {name}{usage}");
        std::process::exit(2);
    }
}

/// Quick flag lookup: `--full` style booleans.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// `--key=value` style argument.
pub fn arg_value(key: &str) -> Option<String> {
    let prefix = format!("{key}=");
    std::env::args().find_map(|a| a.strip_prefix(&prefix).map(str::to_owned))
}

/// Write the header line of a stdout table.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n== {title} ==");
    println!("{}", columns.join("\t"));
}

/// Ensure a results path prints at the end of a run.
pub fn report_written(path: &Path) {
    println!("\nresults written to {}", path.display());
}
