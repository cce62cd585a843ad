//! Subcommand implementations.

use crate::args::Args;
use crate::out::Failure;
use isel_core::{
    algorithm1, budget, interaction, Advisor, BinaryTraceSink, JsonLinesSink, Parallelism,
    RunReport, Strategy, Trace, TraceEvent, TraceSink,
};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_workload::erp::{self, ErpConfig};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::{io, tpcc, Workload};

type BufFile = std::io::BufWriter<std::fs::File>;

/// A `--trace FILE` sink in the encoding picked by `--trace-format`:
/// JSON lines (the default) or the compact binary stream. `isel report`
/// auto-detects either when reading back.
pub(crate) enum FileSink {
    Json(JsonLinesSink<BufFile>),
    Binary(BinaryTraceSink<BufFile>),
}

impl TraceSink for FileSink {
    fn record(&self, event: TraceEvent) {
        match self {
            Self::Json(s) => s.record(event),
            Self::Binary(s) => s.record(event),
        }
    }
}

/// `--trace FILE` — stream structured run events to FILE, as JSON lines
/// or (`--trace-format binary`) the compact binary encoding.
pub(crate) fn trace_sink(args: &Args) -> Result<Option<FileSink>, String> {
    match args.get("trace") {
        None => Ok(None),
        Some(path) => create_trace_sink(args, path).map(Some),
    }
}

/// Create one trace sink at `path` in the `--trace-format` encoding.
pub(crate) fn create_trace_sink(args: &Args, path: &str) -> Result<FileSink, String> {
    let sink = match args.get("trace-format").unwrap_or("jsonl") {
        "jsonl" => FileSink::Json(
            JsonLinesSink::create(path)
                .map_err(|e| format!("cannot create trace file {path}: {e}"))?,
        ),
        "binary" => FileSink::Binary(
            BinaryTraceSink::create(path)
                .map_err(|e| format!("cannot create trace file {path}: {e}"))?,
        ),
        other => {
            return Err(format!(
                "unknown --trace-format {other:?} (expected jsonl or binary)"
            ))
        }
    };
    Ok(sink)
}

/// Flush the trace file and surface any dropped events as an error.
pub(crate) fn finish_trace(sink: Option<FileSink>) -> Result<(), String> {
    let Some(sink) = sink else { return Ok(()) };
    let dropped = match &sink {
        FileSink::Json(s) => s.write_errors(),
        FileSink::Binary(s) => s.write_errors(),
    };
    match sink {
        FileSink::Json(s) => s.finish().map(drop),
        FileSink::Binary(s) => s.finish().map(drop),
    }
    .map_err(|e| format!("cannot flush trace file: {e}"))?;
    if dropped > 0 {
        return Err(format!("trace: {dropped} events dropped by write errors"));
    }
    Ok(())
}

pub(crate) fn load_workload(args: &Args) -> Result<Workload, String> {
    let path = args
        .get("workload")
        .ok_or("missing --workload FILE")?;
    io::load(path).map_err(|e| format!("cannot load workload: {e}"))
}

/// `--threads N` — candidate-evaluation workers. 1 (the default) runs
/// serially, 0 means one worker per hardware thread. Results are identical
/// at every setting.
fn parallelism(args: &Args) -> Result<Parallelism, String> {
    Ok(match args.get_parsed("threads", 1usize)? {
        0 => Parallelism::available(),
        n => Parallelism::new(n),
    })
}

/// A budget share (`--budget`, `--max-budget`), `default` when absent.
/// Eq. (10) scales it by the single-attribute footprint, so it must be
/// finite and non-negative.
fn budget_share(args: &Args, key: &str, default: f64) -> Result<f64, String> {
    let share = args.get_parsed(key, default)?;
    if share.is_finite() && share >= 0.0 {
        return Ok(share);
    }
    let given = args.get(key).unwrap_or_default();
    Err(format!("invalid value for --{key}: {given:?} (must be finite and non-negative)"))
}

/// `isel generate`
pub fn generate(args: &Args) -> Result<(), Failure> {
    let kind = args.get("kind").unwrap_or("synthetic");
    let out = args.get("out").ok_or("missing --out FILE")?;
    let seed = args.get_parsed("seed", 0x15E1u64)?;
    let workload = match kind {
        "synthetic" => {
            let tables = args.get_parsed("tables", 10usize)?;
            let cfg = SyntheticConfig {
                tables,
                attrs_per_table: args.get_parsed("attrs", 50usize)?,
                queries_per_table: args.get_parsed("queries", 50usize)?,
                rows_base: args.get_parsed("rows", 1_000_000u64)?,
                update_fraction: args.get_parsed("updates", 0.0f64)?,
                seed,
                ..SyntheticConfig::default()
            };
            synthetic::generate(&cfg)
        }
        "erp" => erp::generate(&ErpConfig { seed, ..ErpConfig::default() }),
        "tpcc" => tpcc::generate(args.get_parsed("warehouses", 100u64)?).0,
        other => return Err(format!("unknown workload kind {other:?}").into()),
    };
    io::save(&workload, out).map_err(|e| format!("cannot save workload: {e}"))?;
    outln!(
        "wrote {kind} workload: {} tables, {} attributes, {} templates -> {out}",
        workload.schema().tables().len(),
        workload.schema().attr_count(),
        workload.query_count()
    );
    Ok(())
}

fn parse_strategy(name: &str) -> Result<Strategy, String> {
    Ok(match name {
        "h1" => Strategy::H1,
        "h2" => Strategy::H2,
        "h3" => Strategy::H3,
        "h4" => Strategy::H4 { skyline: false },
        "h4s" => Strategy::H4 { skyline: true },
        "h5" => Strategy::H5,
        "h6" => Strategy::H6,
        "cophy" => Strategy::CoPhy { mip_gap: 0.05, time_limit_secs: 60 },
        other => return Err(format!("unknown strategy {other:?}")),
    })
}

/// `isel recommend`
pub fn recommend(args: &Args) -> Result<(), Failure> {
    let workload = load_workload(args)?;
    let strategy = parse_strategy(args.get("strategy").unwrap_or("h6"))?;
    let share = budget_share(args, "budget", 0.2)?;
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&workload));
    let sink = trace_sink(args)?;
    let rec = {
        let mut advisor = Advisor::new(&est).with_parallelism(parallelism(args)?);
        if let Some(s) = &sink {
            advisor = advisor.with_trace(Trace::to(s));
        }
        advisor.recommend_relative(strategy, share)
    };
    finish_trace(sink)?;

    if args.flag("json") {
        let row = serde_json::json!({
            "strategy": format!("{:?}", rec.strategy),
            "budget_bytes": rec.budget,
            "memory_bytes": rec.memory,
            "cost": rec.cost,
            "base_cost": rec.base_cost,
            "relative_cost": rec.relative_cost(),
            "what_if_calls": rec.what_if_calls,
            "what_if_cached": rec.what_if.calls_answered_from_cache,
            "cache_hit_rate": rec.cache_hit_rate(),
            "cache": rec.cache.map(|c| {
                serde_json::json!({
                    "hits": c.hits,
                    "misses": c.misses,
                    "inserts": c.inserts,
                })
            }),
            "elapsed_secs": rec.elapsed.as_secs_f64(),
            "indexes": rec
                .selection
                .indexes()
                .iter()
                .map(|k| k.attrs().iter().map(|a| a.0).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
        });
        outln!("{row}");
        return Ok(());
    }

    outln!(
        "strategy {:?}: {} indexes, {:.1} MiB of {:.1} MiB budget",
        rec.strategy,
        rec.selection.len(),
        rec.memory as f64 / (1024.0 * 1024.0),
        rec.budget as f64 / (1024.0 * 1024.0),
    );
    outln!(
        "workload cost {:.3e} -> {:.3e} ({:.1}%), {} what-if calls, {:.3}s",
        rec.base_cost,
        rec.cost,
        100.0 * rec.relative_cost(),
        rec.what_if_calls,
        rec.elapsed.as_secs_f64(),
    );
    outln!(
        "what-if requests: {} issued + {} cached ({:.1}% hit rate)",
        rec.what_if.calls_issued,
        rec.what_if.calls_answered_from_cache,
        100.0 * rec.cache_hit_rate(),
    );
    // Section III-A / Table I count an approach's what-if calls in units
    // of Q·q̄, the summed template widths; Algorithm 1 needs about two.
    let q_qbar: usize = workload.iter().map(|(_, q)| q.width()).sum();
    outln!(
        "what-if calls ÷ Q·q̄ = {:.2}{}",
        rec.what_if_calls as f64 / q_qbar as f64,
        if rec.strategy == Strategy::H6 { " (paper ≈ 2)" } else { "" },
    );
    if let Some(c) = rec.cache {
        outln!(
            "memo tables: {} hits / {} misses / {} entries",
            c.hits, c.misses, c.inserts
        );
    }
    for k in rec.selection.indexes() {
        let names: Vec<&str> = k
            .attrs()
            .iter()
            .map(|&a| workload.schema().attribute(a).name.as_str())
            .collect();
        let table = workload.schema().attribute(k.leading()).table;
        outln!("  {}({})", workload.schema().table(table).name, names.join(", "));
    }
    Ok(())
}

/// `isel compare`
pub fn compare(args: &Args) -> Result<(), Failure> {
    let workload = load_workload(args)?;
    let share = budget_share(args, "budget", 0.2)?;
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&workload));
    let sink = trace_sink(args)?;
    let recs = {
        let mut advisor = Advisor::new(&est).with_parallelism(parallelism(args)?);
        if let Some(s) = &sink {
            advisor = advisor.with_trace(Trace::to(s));
        }
        let a = budget::relative_budget(&est, share);
        advisor.compare(a)
    };
    finish_trace(sink)?;
    outln!("strategy\trel.cost\t|I*|\tMiB\tseconds\twhatif\tcached\thit%");
    for rec in recs {
        outln!(
            "{:?}\t{:.4}\t{}\t{:.1}\t{:.3}\t{}\t{}\t{:.1}",
            rec.strategy,
            rec.relative_cost(),
            rec.selection.len(),
            rec.memory as f64 / (1024.0 * 1024.0),
            rec.elapsed.as_secs_f64(),
            rec.what_if.calls_issued,
            rec.what_if.calls_answered_from_cache,
            100.0 * rec.cache_hit_rate(),
        );
    }
    if let Some(c) = est.cache_stats() {
        outln!(
            "# memo tables after all runs: {} hits / {} misses / {} entries",
            c.hits, c.misses, c.inserts
        );
    }
    Ok(())
}

/// `isel frontier`
pub fn frontier(args: &Args) -> Result<(), Failure> {
    let workload = load_workload(args)?;
    let share = budget_share(args, "max-budget", 0.5)?;
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&workload));
    let a = budget::relative_budget(&est, share);
    let opts = algorithm1::Options {
        parallelism: parallelism(args)?,
        ..algorithm1::Options::new(a)
    };
    let sink = trace_sink(args)?;
    let run = {
        let trace = sink.as_ref().map_or(Trace::disabled(), |s| Trace::to(s));
        algorithm1::run_traced(&est, &opts, trace)
    };
    finish_trace(sink)?;
    outln!("memory_bytes\tcost\trelative");
    for p in run.frontier.points() {
        outln!(
            "{}\t{:.6e}\t{:.4}",
            p.memory,
            p.cost,
            p.cost / run.initial_cost
        );
    }
    Ok(())
}

/// `isel report` — summarize a `--trace` file (JSON lines or the binary
/// encoding, auto-detected), one section per strategy run (a `compare`
/// or daemon trace holds many); `--check` additionally verifies the
/// accounting invariant for every run and the what-if call-bound
/// invariant for the Algorithm-1 (`H6`) runs.
pub fn report(args: &Args) -> Result<(), Failure> {
    let path = args.get("trace").ok_or("missing --trace FILE")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read trace file: {e}"))?;
    let events = RunReport::parse_trace(&bytes)?;
    if events.is_empty() {
        return Err("trace file holds no events".into());
    }
    let reports = RunReport::per_run(&events);
    let many = reports.len() > 1;
    for (n, report) in reports.iter().enumerate() {
        if many {
            let label = report.strategy.as_deref().unwrap_or("(no RunStart)");
            outln!("== run {} / {}: {label} ==", n + 1, reports.len());
        }
        out!("{}", report.render());
    }
    if args.flag("check") {
        let mut bounds = 0usize;
        for (n, report) in reports.iter().enumerate() {
            let label = report.strategy.clone().unwrap_or_default();
            if report.run_end.is_none() && report.strategy.is_none() {
                // Leading events from a pre-envelope strategy: nothing to
                // verify against.
                continue;
            }
            report
                .check_accounting()
                .map_err(|e| format!("run {} ({label}): {e}", n + 1))?;
            report
                .check_deploy_accounting()
                .map_err(|e| format!("run {} ({label}): {e}", n + 1))?;
            // The ≈2·Q·q̄ bound is Algorithm 1's property; candidate-set
            // strategies issue per-candidate probes far beyond it.
            if label == "H6" {
                report
                    .check_call_bound()
                    .map_err(|e| format!("run {} ({label}): {e}", n + 1))?;
                bounds += 1;
            }
        }
        let deploys: u64 = reports.iter().map(|r| r.deploy_candidates).sum();
        outln!(
            "invariants: accounting ok ({} runs), call bound ok ({bounds} H6 runs), \
             deploy accounting ok ({deploys} candidates)",
            reports.len()
        );
    }
    Ok(())
}

/// `isel stats`
pub fn stats(args: &Args) -> Result<(), Failure> {
    let workload = load_workload(args)?;
    let stats = isel_workload::WorkloadStats::compute(&workload);
    let schema = workload.schema();
    let updates: u64 = workload
        .queries()
        .iter()
        .filter(|q| q.is_update())
        .map(|q| q.frequency())
        .sum();
    let total = workload.total_frequency();
    outln!(
        "tables: {}   attributes: {}   templates: {}   executions: {}",
        schema.tables().len(),
        schema.attr_count(),
        workload.query_count(),
        total
    );
    outln!(
        "avg query width: {:.2}   update volume: {:.1}%",
        stats.avg_query_width(),
        100.0 * updates as f64 / total.max(1) as f64
    );
    let mut by_rows: Vec<_> = schema.tables().iter().collect();
    by_rows.sort_by_key(|t| std::cmp::Reverse(t.rows));
    outln!("largest tables:");
    for t in by_rows.into_iter().take(5) {
        outln!("  {:<12} {:>12} rows, {} attributes", t.name, t.rows, t.attr_count);
    }
    outln!("hottest attributes (g_i):");
    for a in stats.attrs_by_occurrences().into_iter().take(10) {
        let attr = schema.attribute(a);
        outln!(
            "  {:<16} g={:<10} d={:<10} {}B",
            attr.name,
            stats.occurrences(a),
            attr.distinct_values,
            attr.value_size
        );
    }
    Ok(())
}

/// `isel interactions`
pub fn interactions(args: &Args) -> Result<(), Failure> {
    let workload = load_workload(args)?;
    let top = args.get_parsed("top", 10usize)?;
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&workload));
    // Candidate indexes: the single attributes of the hottest queries.
    let stats = isel_workload::WorkloadStats::compute(&workload);
    let hot: Vec<isel_workload::Index> = stats
        .attrs_by_occurrences()
        .into_iter()
        .take(24)
        .map(isel_workload::Index::single)
        .collect();
    let pairs = interaction::interaction_matrix(&est, &hot, 0.01);
    outln!("index_a\tindex_b\tdegree");
    for p in pairs.into_iter().take(top) {
        outln!("{}\t{}\t{:.4}", hot[p.a], hot[p.b], p.degree);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn argv(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("isel_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn strategies_parse_and_reject() {
        assert!(parse_strategy("h6").is_ok());
        assert!(parse_strategy("h4s").is_ok());
        assert!(parse_strategy("cophy").is_ok());
        assert!(parse_strategy("nope").is_err());
    }

    #[test]
    fn generate_then_recommend_round_trip() {
        let out = tmp("w1.json");
        generate(&argv(&format!(
            "generate --kind synthetic --tables 2 --attrs 8 --queries 8 --rows 50000 --out {out}"
        )))
        .unwrap();
        recommend(&argv(&format!(
            "recommend --workload {out} --strategy h6 --budget 0.3"
        )))
        .unwrap();
        compare(&argv(&format!("compare --workload {out} --budget 0.2"))).unwrap();
        frontier(&argv(&format!("frontier --workload {out} --max-budget 0.4"))).unwrap();
        interactions(&argv(&format!("interactions --workload {out} --top 3"))).unwrap();
    }

    #[test]
    fn threads_option_is_accepted_and_validated() {
        let out = tmp("w_threads.json");
        generate(&argv(&format!(
            "generate --kind synthetic --tables 2 --attrs 8 --queries 8 --rows 50000 --out {out}"
        )))
        .unwrap();
        recommend(&argv(&format!(
            "recommend --workload {out} --strategy h6 --budget 0.3 --threads 4"
        )))
        .unwrap();
        // 0 = one worker per core.
        frontier(&argv(&format!("frontier --workload {out} --threads 0"))).unwrap();
        let err = recommend(&argv(&format!(
            "recommend --workload {out} --threads nope"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("threads"));
    }

    #[test]
    fn trace_files_round_trip_through_report() {
        let out = tmp("w_trace.json");
        generate(&argv(&format!(
            "generate --kind synthetic --tables 2 --attrs 8 --queries 8 --rows 50000 --out {out}"
        )))
        .unwrap();
        let trace = tmp("frontier.jsonl");
        frontier(&argv(&format!(
            "frontier --workload {out} --max-budget 0.4 --trace {trace}"
        )))
        .unwrap();
        report(&argv(&format!("report --trace {trace} --check"))).unwrap();
        let trace2 = tmp("recommend.jsonl");
        recommend(&argv(&format!(
            "recommend --workload {out} --strategy h6 --budget 0.3 --trace {trace2}"
        )))
        .unwrap();
        report(&argv(&format!("report --trace {trace2} --check"))).unwrap();
        // A malformed line is rejected with its position.
        let broken = tmp("broken.jsonl");
        std::fs::write(&broken, "{\"RunStart\":{}}\n").unwrap();
        assert!(report(&argv(&format!("report --trace {broken}"))).is_err());
        // An empty file is an error, not an empty report.
        let empty = tmp("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(report(&argv(&format!("report --trace {empty}"))).is_err());
    }

    #[test]
    fn binary_traces_round_trip_through_report() {
        let out = tmp("w_btrace.json");
        generate(&argv(&format!(
            "generate --kind synthetic --tables 2 --attrs 8 --queries 8 --rows 50000 --out {out}"
        )))
        .unwrap();
        let trace = tmp("recommend.bin");
        recommend(&argv(&format!(
            "recommend --workload {out} --strategy h6 --budget 0.3 \
             --trace {trace} --trace-format binary"
        )))
        .unwrap();
        let bytes = std::fs::read(&trace).unwrap();
        assert_eq!(bytes.first(), Some(&isel_core::TRACE_MAGIC));
        report(&argv(&format!("report --trace {trace} --check"))).unwrap();
        // Unknown formats are rejected up front.
        let err = recommend(&argv(&format!(
            "recommend --workload {out} --trace {trace} --trace-format nope"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("trace-format"), "{err}");
    }

    #[test]
    fn tpcc_generation_works() {
        let out = tmp("w2.json");
        generate(&argv(&format!("generate --kind tpcc --warehouses 3 --out {out}"))).unwrap();
        let w = isel_workload::io::load(&out).unwrap();
        assert_eq!(w.query_count(), 10);
    }

    #[test]
    fn missing_arguments_are_reported() {
        assert!(generate(&argv("generate --kind synthetic")).is_err());
        assert!(recommend(&argv("recommend")).is_err());
        assert!(generate(&argv("generate --kind weird --out /tmp/x.json")).is_err());
    }

    #[test]
    fn stats_runs_on_generated_workloads() {
        let out = tmp("w3.json");
        generate(&argv(&format!(
            "generate --kind synthetic --tables 2 --attrs 6 --queries 6 --rows 10000 --updates 0.3 --out {out}"
        )))
        .unwrap();
        stats(&argv(&format!("stats --workload {out}"))).unwrap();
    }

    #[test]
    fn broken_workload_files_error_cleanly() {
        let out = tmp("broken.json");
        std::fs::write(&out, "not json").unwrap();
        let err = recommend(&argv(&format!("recommend --workload {out}"))).unwrap_err();
        assert!(err.to_string().contains("cannot load"));
    }
}
