//! Shared pieces of the benchmark harness: aggregation, spans, process
//! control, digests and the parsers for the `isel` CLI's output.
//!
//! Nothing here links an `isel-*` crate. `bench` drives the built `isel`
//! binary as child processes, so it keeps compiling whatever happens to
//! the libraries behind the CLI; `probe` (the sibling package) is the
//! only benchmark code that names library items.

pub mod digest;
pub mod openloop;
pub mod parse;
pub mod span;
pub mod stats;
pub mod sys;

/// The gated workloads, in run order, with the one-line reason each
/// exists (`BENCHMARK.json` carries the same list).
pub const WORKLOADS: &[(&str, &str)] = &[
    ("tpcc_binary", "binary replay: frame decode, the per-event queue hop and the window fold do the work; no JSON parse"),
    ("tpcc_jsonl", "the same reader-queue-window path entered through JSONL, so classify_line and parse_line dominate"),
    ("multi_tune", "event in to selection out: 60 drifting table groups at 256-event epochs, a checkpoint commit every 4 epochs"),
    ("erp_advisor", "isel recommend (H6, w = 0.2) on the 500-table ERP file as a user runs it: today 4/5 JSON load, 1/5 Algorithm 1"),
    ("tpcc_paced", "open loop at 50 000 events/s plus a whatif query every 10 ms: reply latency at about 8 % of capacity"),
];

/// Workloads that run and report like the others but are not in
/// `BENCHMARK.json`: their run-to-run spread on the reference host is
/// wider than any bound the driver accepts (see the README's A/A
/// section), so a regression gate on them would only raise false alarms.
pub const UNGATED: &[(&str, &str)] = &[(
    "tpcc_supervised",
    "binary events through serve --workers 1: adds render, pipe write, worker-side re-parse and acks",
)];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("result_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run: the
/// `probe` binary measures the `service.`, `core.`, `costmodel.`,
/// `workload.` and `solver.` ones, `bench` the rest from the workload's
/// own traced repetition.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.decode_ns", "ns"),
    ("service.resolve_ns", "ns"),
    ("service.window_push_ns", "ns"),
    ("service.queue_hop_ns", "ns"),
    ("service.classify_ns", "ns"),
    ("service.parse_ns", "ns"),
    ("service.encode_ns", "ns"),
    ("service.render_ns", "ns"),
    ("service.worker_ns", "ns"),
    ("service.window_snapshot_us", "us"),
    ("service.tune_adapt_ms", "ms"),
    ("service.tune_noop_us", "us"),
    ("service.publish_us", "us"),
    ("service.whatif_us", "us"),
    ("service.ckpt_capture_us", "us"),
    ("service.ckpt_commit_ms", "ms"),
    ("service.ckpt_bytes", "bytes"),
    ("service.journal_bytes_per_event_bin", "bytes"),
    ("service.journal_bytes_per_event_jsonl", "bytes"),
    ("service.convert_ns", "ns"),
    ("core.adapt_ms", "ms"),
    ("core.merge_incr_ms", "ms"),
    ("core.merge_full_60_ms", "ms"),
    ("core.merge_full_1k_ms", "ms"),
    ("core.h6_ms", "ms"),
    ("core.h6_scan_p50_us", "us"),
    ("core.h6_scan_p95_us", "us"),
    ("core.h6_steps", "count"),
    ("core.h6_whatif_issued", "count"),
    ("core.h6_whatif_cached", "count"),
    ("core.h6_calls_per_qq", "ratio"),
    ("core.h6_rel_cost", "ratio"),
    ("costmodel.whatif_ns", "ns"),
    ("costmodel.cache_hit_ns", "ns"),
    ("costmodel.cache_hit_ratio", "ratio"),
    ("workload.pool_intern_ns", "ns"),
    ("workload.load_json_ms", "ms"),
    ("workload.erp_generate_ms", "ms"),
    ("solver.cophy_build_ms", "ms"),
    ("solver.cophy_solve_ms", "ms"),
    ("solver.cophy_nodes", "count"),
    ("solver.knapsack_ms", "ms"),
    ("trace.epochs", "count"),
    ("trace.adapt_epochs", "count"),
    ("trace.noop_epochs", "count"),
    ("trace.merge_count", "count"),
    ("trace.scan_mean_us", "us"),
    ("trace.whatif_issued", "count"),
    ("trace.whatif_cached", "count"),
    ("cli.trace_overhead_frac", "ratio"),
    ("cli.spawn_ms", "ms"),
    ("attr.unattributed_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn names(list: &Value) -> Vec<(String, String)> {
        list.as_array()
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads and these constants are
    /// what `bench` prints; a metric in one and not the other would be
    /// refused at run time.
    #[test]
    fn benchmark_json_lists_exactly_what_bench_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = serde_json::parse_value(&std::fs::read_to_string(path).unwrap()).unwrap();
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(names(doc.get("end_to_end").unwrap()), owned(END_TO_END));
        assert_eq!(names(doc.get("per_layer").unwrap()), owned(PER_LAYER));
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Value::as_str).unwrap().to_owned();
                (field("name"), field("why"))
            })
            .collect();
        assert_eq!(workloads, owned(WORKLOADS));
    }
}
