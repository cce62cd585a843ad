//! Service-layer integration and property tests: sliding-window
//! aggregation invariants, replay determinism (the DESIGN.md §12
//! contract), and kill-then-restore convergence from a mid-run
//! checkpoint.

use isel_service::{
    DriftThresholds, EpochWindow, Manifest, OverloadPolicy, ServiceConfig, ShardCheckpoint,
};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::{AttrId, Query, Schema, TableId, Workload};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Cursor;
use std::path::PathBuf;

fn small_schema(attrs: usize) -> Schema {
    let mut b = isel_workload::SchemaBuilder::new();
    let t = b.table("t", 100_000);
    for i in 0..attrs {
        b.attribute(t, &format!("a{i}"), 1_000, 4);
    }
    b.finish()
}

fn workload() -> Workload {
    synthetic::generate(&SyntheticConfig {
        tables: 2,
        attrs_per_table: 10,
        queries_per_table: 12,
        rows_base: 60_000,
        max_query_width: 3,
        update_fraction: 0.1,
        seed: 77,
    })
}

fn service_config(threads: usize) -> ServiceConfig {
    ServiceConfig {
        epoch_events: 16,
        window_epochs: 2,
        max_templates: 64,
        drift: DriftThresholds::always_adapt(),
        threads,
        ..ServiceConfig::default()
    }
}

/// Frequency-weighted event sampling from a workload's templates; about
/// half the lines carry a `"frequency"` above 1, so the log's binary
/// twin holds events of both encodings (`TAG_EVENT1` and `TAG_EVENT`).
fn sample_log(w: &Workload, n: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = w.total_frequency();
    let mut out = String::new();
    for _ in 0..n {
        let mut pick = rng.gen_range(0..total);
        let q = w
            .queries()
            .iter()
            .find(|q| {
                if pick < q.frequency() {
                    true
                } else {
                    pick -= q.frequency();
                    false
                }
            })
            .expect("pick < total");
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        let frequency = match [1u64, 1, 2, 7][rng.gen_range(0..4usize)] {
            1 => String::new(),
            f => format!(",\"frequency\":{f}"),
        };
        let kind = if q.is_update() { ",\"kind\":\"Update\"" } else { "" };
        out.push_str(&format!(
            "{{\"table\":{},\"attrs\":[{}]{frequency}{kind}}}\n",
            q.table().0,
            attrs.join(",")
        ));
    }
    out
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("isel_service_integration");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Random event stream over a 6-attribute table: (attr-set, frequency)
/// pairs.
fn arb_events() -> impl Strategy<Value = Vec<(Vec<u32>, u64)>> {
    prop::collection::vec(
        (
            prop::collection::btree_set(0u32..6, 1..=3),
            1u64..50,
        ),
        1..80,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(set, f)| (set.into_iter().collect(), f))
            .collect()
    })
}

fn push_all(window: &mut EpochWindow, events: &[(Vec<u32>, u64)]) {
    for (attrs, freq) in events {
        let q = Query::new(
            TableId(0),
            attrs.iter().copied().map(AttrId).collect(),
            *freq,
        );
        window.push(&q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eviction never loses weight mass *inside* the window: the total
    /// mass always equals the sum of the masses of the events that are
    /// still in scope (the last `window_epochs` sealed epochs plus the
    /// current partial epoch).
    #[test]
    fn window_eviction_conserves_weight_mass(
        events in arb_events(),
        epoch_events in 1u64..8,
        window_epochs in 1usize..4,
    ) {
        let schema = small_schema(6);
        let mut window = EpochWindow::new(schema, epoch_events, window_epochs, 64);
        push_all(&mut window, &events);
        // Expected in-scope mass, computed independently: partition the
        // event stream into epochs of `epoch_events` and keep the last
        // `window_epochs` complete ones plus the trailing partial epoch.
        let per_epoch: Vec<u64> = events
            .chunks(epoch_events as usize)
            .map(|c| c.iter().map(|(_, f)| f).sum())
            .collect();
        let complete = events.len() / epoch_events as usize;
        let tail_partial: u64 = per_epoch.get(complete).copied().unwrap_or(0);
        let kept: u64 = per_epoch[..complete]
            .iter()
            .rev()
            .take(window_epochs)
            .sum();
        prop_assert_eq!(window.total_mass(), kept + tail_partial);
        // Sealed masses individually match the independent partition.
        let want: Vec<u64> = per_epoch[..complete]
            .iter()
            .rev()
            .take(window_epochs)
            .rev()
            .copied()
            .collect();
        prop_assert_eq!(window.sealed_masses(), want);
    }

    /// Aggregation within an epoch is a commutative sum: any permutation
    /// of one epoch's events yields an identical snapshot.
    #[test]
    fn epoch_snapshots_are_order_insensitive(
        events in arb_events(),
        seed in 0u64..1000,
    ) {
        let schema = small_schema(6);
        // One epoch holding every event, so the whole stream is a single
        // permutable unit.
        let n = events.len() as u64;
        let mut a = EpochWindow::new(schema.clone(), n, 2, 64);
        push_all(&mut a, &events);

        let mut shuffled = events.clone();
        // Deterministic Fisher-Yates from the seed.
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0..(i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let mut b = EpochWindow::new(schema, n, 2, 64);
        push_all(&mut b, &shuffled);

        let snap_a = a.snapshot();
        let snap_b = b.snapshot();
        prop_assert_eq!(snap_a.is_some(), snap_b.is_some());
        if let (Some(sa), Some(sb)) = (snap_a, snap_b) {
            prop_assert_eq!(sa.queries(), sb.queries());
        }
    }
}

/// A whole-workload run (`shards: 0`, the `service_config` default):
/// the router hosting the one whole-schema group.
fn whole(w: &Workload, cfg: ServiceConfig) -> Router {
    assert_eq!(cfg.shards, 0);
    Router::new(w.schema().clone(), cfg).unwrap()
}

/// The one shard document behind the manifest a whole-workload run
/// committed at `path`.
fn whole_checkpoint(path: &std::path::Path) -> ShardCheckpoint {
    let mut shards = Manifest::load(path).unwrap().load_shards(path).unwrap();
    assert_eq!(shards.len(), 1, "whole-workload tuning runs on one shard");
    assert_eq!(shards[0].groups.len(), 1, "as one group");
    shards.remove(0)
}

/// Same log + same seed ⇒ bit-identical selection sequence and
/// checkpoint bytes at 1 and 4 worker threads, from the JSONL log and
/// from its binary twin, all matching the offline `dynamic::adapt`
/// reference.
#[test]
fn replay_is_deterministic_across_thread_counts() {
    let w = workload();
    let log = sample_log(&w, 80, 21);
    let twin = convert(log.as_bytes(), WireFormat::Binary);

    let mut runs = Vec::new();
    for (encoding, input) in [("jsonl", log.as_bytes()), ("binary", &twin[..])] {
        for threads in [1usize, 4] {
            let cfg = service_config(threads);
            let cp_path = tmp(&format!("replay_{encoding}_t{threads}.json"));
            std::fs::remove_file(&cp_path).ok();
            let report = whole(&w, cfg)
                .run_reader(&mut Cursor::new(input), OverloadPolicy::Block, Some(&cp_path), &[])
                .unwrap();
            assert_eq!(report.dropped, 0, "blocking replay never drops");
            runs.push((report.epochs, whole_checkpoint(&cp_path)));
        }
    }
    let (ep_1, cp_1) = &runs[0];
    for (ep, cp) in &runs[1..] {
        assert!(
            ep_1.iter().map(|e| &e.selection).eq(ep.iter().map(|e| &e.selection)),
            "selection sequence differs across thread counts or encodings"
        );
        // The checkpoint embeds its config (whose `threads` field differs
        // by construction); everything else must be byte-identical.
        // Compare via the parsed form with the config normalized.
        let (mut a, mut b) = (cp_1.clone(), cp.clone());
        a.config.threads = 0;
        b.config.threads = 0;
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    // Both match the offline dynamic::adapt reference.
    let cfg = service_config(1);
    let snaps = offline_group_snapshots(log.as_bytes(), w.schema(), &cfg).unwrap();
    let offline = &offline_group_adapt(&snaps, &cfg)[&0];
    assert_eq!(ep_1.len(), offline.len());
    for (got, want) in ep_1.iter().zip(offline) {
        assert_eq!(got.workload_cost.to_bits(), want.workload_cost.to_bits());
        assert_eq!(got.reconfig_paid.to_bits(), want.reconfig_paid.to_bits());
        assert_eq!(got.selection, want.selection);
    }
}

/// Kill the service mid-run, restore from its checkpoint, feed the rest
/// of the log: the final selection and epoch count equal the
/// uninterrupted run's.
#[test]
fn kill_then_restore_converges_to_uninterrupted_run() {
    let w = workload();
    let cfg = service_config(1);
    let log = sample_log(&w, 96, 8);
    let lines: Vec<&str> = log.lines().collect();

    // Uninterrupted reference run.
    let ref_report = whole(&w, cfg.clone())
        .run_reader(&mut Cursor::new(log.clone()), OverloadPolicy::Block, None, &[])
        .unwrap();
    assert_eq!(ref_report.epochs.len(), 6, "96 events / 16 per epoch");

    // Interrupted run: cut mid-epoch (40 events = 2 sealed epochs + 8
    // events of the third), checkpoint at the cut.
    let cp_path = tmp("kill_restore.json");
    std::fs::remove_file(&cp_path).ok();
    let head = format!("{}\n", lines[..40].join("\n"));
    let mut first = whole(&w, cfg.clone());
    let head_report = first
        .run_reader(&mut Cursor::new(head), OverloadPolicy::Block, Some(&cp_path), &[])
        .unwrap();
    assert_eq!(head_report.epochs.len(), 2);
    drop(first); // the "kill"

    // Restore and feed the remainder.
    assert_eq!(whole_checkpoint(&cp_path).ingested, 40);
    let mut resumed = Router::resume(w.schema().clone(), cfg.clone(), &cp_path).unwrap();
    assert_eq!(resumed.epochs_tuned(), 2);
    let tail = format!("{}\n", lines[40..].join("\n"));
    let tail_report = resumed
        .run_reader(&mut Cursor::new(tail), OverloadPolicy::Block, Some(&cp_path), &[])
        .unwrap();
    assert_eq!(tail_report.epochs.len(), 4, "epochs 2..6 tuned after restore");
    assert_eq!(tail_report.ingested, 96, "lifetime counter spans the restart");

    // Selections after the cut match the reference run epoch by epoch.
    for (resumed_epoch, ref_epoch) in tail_report.epochs.iter().zip(&ref_report.epochs[2..]) {
        assert_eq!(resumed_epoch.epoch, ref_epoch.epoch);
        assert_eq!(resumed_epoch.selection, ref_epoch.selection);
    }
    assert_eq!(tail_report.final_selection, ref_report.final_selection);

    // Restoring the final checkpoint reads back the final state.
    let roundtrip = Router::resume(w.schema().clone(), cfg, &cp_path).unwrap();
    assert_eq!(roundtrip.epochs_tuned(), 6);
    assert_eq!(
        roundtrip.arbiter().merged_selection(isel_core::Trace::disabled()),
        ref_report.final_selection
    );
}

/// A service trace passes `report --check`-grade validation: parseable
/// JSON lines whose per-run accounting sums hold.
#[test]
fn daemon_trace_passes_accounting_checks() {
    use isel_core::{JsonLinesSink, RunReport};
    let w = workload();
    let cfg = service_config(1);
    let log = sample_log(&w, 48, 4);
    let sink = JsonLinesSink::new(Vec::new());
    whole(&w, cfg)
        .run_reader(&mut Cursor::new(log), OverloadPolicy::Block, None, &[&sink])
        .unwrap();
    let bytes = sink.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let events = RunReport::parse_jsonl(&text).unwrap();
    assert!(!events.is_empty());
    let reports = RunReport::per_run(&events);
    assert!(reports.len() >= 3, "one run per tuned epoch");
    for report in &reports {
        if report.strategy.is_some() || report.run_end.is_some() {
            report.check_accounting().unwrap();
        }
    }
}

// --------------------------------------------------------------- sharding

use isel_service::{
    classify_line, offline_group_adapt, offline_group_snapshots, parse_line, InputLine, LineClass,
    Router,
};
use std::sync::atomic::{AtomicU64, Ordering};

fn sharded_config(shards: u32) -> ServiceConfig {
    ServiceConfig {
        epoch_events: 8,
        window_epochs: 2,
        max_templates: 64,
        drift: DriftThresholds::always_adapt(),
        shards,
        ..ServiceConfig::default()
    }
}

/// Render template picks `(index, frequency)` as JSONL event lines.
fn render_log(w: &Workload, picks: &[(usize, u64)]) -> String {
    let qs = w.queries();
    picks
        .iter()
        .map(|&(i, f)| {
            let q = &qs[i % qs.len()];
            let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
            format!(
                "{{\"table\":{},\"attrs\":[{}],\"frequency\":{f}}}\n",
                q.table().0,
                attrs.join(",")
            )
        })
        .collect()
}

/// A fresh scratch directory per proptest case, so checkpoint manifests
/// from one case never leak into the next.
fn case_dir(prefix: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("isel_service_integration")
        .join(format!("{prefix}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline sharding guarantee (DESIGN.md §13): the same random
    /// multi-table log replayed at 1, 2 and 4 shards, as JSONL and as its
    /// binary twin, yields bit-identical per-group selection sequences
    /// and final merged selections, all matching the pure
    /// single-threaded per-group offline reference. Whole-workload
    /// tuning (`shards: 0`, DESIGN.md §12) is held to the same standard
    /// across what varies there — 1 and 4 evaluation threads — against
    /// the whole-workload offline reference.
    #[test]
    fn sharded_replay_is_bit_identical_at_every_shard_count(
        picks in prop::collection::vec((0usize..10_000, 1u64..40), 24..72),
    ) {
        let w = workload();
        let log = render_log(&w, &picks);
        let twin = convert(log.as_bytes(), WireFormat::Binary);
        let sharded = [1u32, 2, 4].map(sharded_config);
        let whole = [1usize, 4].map(|threads| ServiceConfig { threads, ..sharded_config(0) });
        for configs in [&sharded[..], &whole[..]] {
            let reports: Vec<_> = configs
                .iter()
                .flat_map(|config| [log.as_bytes(), &twin[..]].map(|input| (config, input)))
                .map(|(config, input)| {
                    let mut router = Router::new(w.schema().clone(), config.clone()).unwrap();
                    router
                        .run_reader(&mut Cursor::new(input), OverloadPolicy::Block, None, &[])
                        .unwrap()
                })
                .collect();
            let baseline = &reports[0];
            for other in &reports[1..] {
                prop_assert_eq!(baseline.epochs.len(), other.epochs.len());
                for (a, b) in baseline.epochs.iter().zip(&other.epochs) {
                    prop_assert_eq!(a.table, b.table);
                    prop_assert_eq!(a.epoch, b.epoch);
                    prop_assert_eq!(&a.selection, &b.selection);
                    prop_assert_eq!(a.workload_cost.to_bits(), b.workload_cost.to_bits());
                    prop_assert_eq!(a.reconfig_paid.to_bits(), b.reconfig_paid.to_bits());
                }
                prop_assert_eq!(&baseline.final_selection, &other.final_selection);
            }
            // The offline reference agrees epoch by epoch, group by group.
            let cfg = &configs[0];
            let snaps = offline_group_snapshots(log.as_bytes(), w.schema(), cfg).unwrap();
            let offline = offline_group_adapt(&snaps, cfg);
            let total: usize = offline.values().map(Vec::len).sum();
            prop_assert_eq!(baseline.epochs.len(), total);
            for out in &baseline.epochs {
                // Only table groups are table-scoped.
                prop_assert_eq!(out.table.is_some(), cfg.shards > 0);
                let key = out.table.map_or(0, |t| t.0);
                let want = &offline[&key][out.epoch as usize];
                prop_assert_eq!(out.workload_cost.to_bits(), want.workload_cost.to_bits());
                prop_assert_eq!(out.reconfig_paid.to_bits(), want.reconfig_paid.to_bits());
                prop_assert_eq!(&out.selection, &want.selection);
            }
        }
    }

    /// Kill a sharded run mid-stream, restore from its committed
    /// manifest at a *different* shard count, feed the remainder: the
    /// post-restore epochs and the final merged selection equal the
    /// uninterrupted single-shard run's.
    #[test]
    fn sharded_kill_then_restore_converges(
        picks in prop::collection::vec((0usize..10_000, 1u64..40), 48..80),
        resume_shards in 1u32..4,
    ) {
        let w = workload();
        let log = render_log(&w, &picks);
        let lines: Vec<&str> = log.lines().collect();
        let cut = lines.len() / 2;

        let mut reference = Router::new(w.schema().clone(), sharded_config(1)).unwrap();
        let ref_report = reference
            .run_reader(&mut Cursor::new(log.clone()), OverloadPolicy::Block, None, &[])
            .unwrap();

        let dir = case_dir("kill-restore");
        let manifest = dir.join("manifest.json");
        let head = format!("{}\n", lines[..cut].join("\n"));
        let mut first = Router::new(w.schema().clone(), sharded_config(2)).unwrap();
        first
            .run_reader(&mut Cursor::new(head), OverloadPolicy::Block, Some(&manifest), &[])
            .unwrap();
        drop(first); // the "kill"

        let mut resumed =
            Router::resume(w.schema().clone(), sharded_config(resume_shards), &manifest)
                .unwrap();
        let tail = format!("{}\n", lines[cut..].join("\n"));
        let tail_report = resumed
            .run_reader(&mut Cursor::new(tail), OverloadPolicy::Block, Some(&manifest), &[])
            .unwrap();
        prop_assert_eq!(tail_report.ingested, lines.len() as u64);

        // Post-cut epochs match the uninterrupted run per (table, epoch).
        let reference_by_key: std::collections::BTreeMap<_, _> = ref_report
            .epochs
            .iter()
            .map(|o| ((o.table, o.epoch), o))
            .collect();
        for out in &tail_report.epochs {
            let want = reference_by_key[&(out.table, out.epoch)];
            prop_assert_eq!(&out.selection, &want.selection);
            prop_assert_eq!(out.workload_cost.to_bits(), want.workload_cost.to_bits());
        }
        prop_assert_eq!(&tail_report.final_selection, &ref_report.final_selection);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An arbitrary single line of ASCII (newlines swapped for spaces so the
/// value stays one line) — deliberately brace/quote-heavy garbage for
/// wire-fuzzing the parser and classifier.
fn arb_ascii_line(max: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..128, 0..max).prop_map(|codes| {
        codes
            .into_iter()
            .map(|b| match char::from_u32(b).unwrap() {
                '\n' | '\r' => ' ',
                c => c,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite guarantee: the JSONL parser and the routing classifier
    /// never panic, whatever bytes arrive on the wire.
    #[test]
    fn parser_and_classifier_never_panic(line in arb_ascii_line(200)) {
        let schema = small_schema(6);
        let _ = classify_line(&line);
        let _ = parse_line(&line, &schema);
    }

    /// The byte-scanning classifier agrees with the full parser on every
    /// line the parser accepts: a parsed query's table is exactly the
    /// classifier's routing key, however the fields are ordered and
    /// whatever decoy `"table"` keys hide inside strings or nested
    /// objects.
    #[test]
    fn classifier_agrees_with_the_parser(
        t in 0u16..6,
        attr in 0u32..6,
        freq in 1u64..100,
        table_first in 0u32..2,
        noise in arb_ascii_line(20),
    ) {
        let schema = small_schema(6);
        let noise_json = serde_json::to_string(&noise).unwrap();
        let line = if table_first == 1 {
            format!(
                "{{\"table\":{t},\"attrs\":[{attr}],\"note\":{noise_json},\
                 \"nested\":{{\"table\":9}},\"frequency\":{freq}}}"
            )
        } else {
            format!(
                "{{\"note\":{noise_json},\"nested\":{{\"table\":9}},\
                 \"frequency\":{freq},\"attrs\":[{attr}],\"table\":{t}}}"
            )
        };
        prop_assert_eq!(classify_line(&line), LineClass::Table(t));
        // On the single-table schema only t == 0 validates, but whenever
        // the parser does accept, the tables must agree.
        if let Ok(InputLine::Query(q)) = parse_line(&line, &schema) {
            prop_assert_eq!(q.table().0, t);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A whole garbage stream through the sharded router: never panics,
    /// never errors, and every non-empty line is accounted exactly once
    /// as ingested or invalid.
    #[test]
    fn router_survives_garbage_streams(
        lines in prop::collection::vec(arb_ascii_line(60), 0..40),
        shards in 1u32..4,
    ) {
        let w = workload();
        let log: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let mut router = Router::new(w.schema().clone(), sharded_config(shards)).unwrap();
        let report = router
            .run_reader(&mut Cursor::new(log), OverloadPolicy::Block, None, &[])
            .unwrap();
        let shutdown = lines
            .iter()
            .position(|l| matches!(parse_line(l.trim(), w.schema()),
                Ok(InputLine::Control(isel_service::Control::Shutdown))));
        let in_scope = shutdown.unwrap_or(lines.len());
        let nonempty = lines[..in_scope]
            .iter()
            .filter(|l| !l.trim().is_empty())
            .count() as u64;
        let controls = lines[..in_scope]
            .iter()
            .filter(|l| matches!(parse_line(l.trim(), w.schema()), Ok(InputLine::Control(_))))
            .count() as u64;
        prop_assert_eq!(report.ingested + report.invalid, nonempty - controls);
    }
}

// ------------------------------------------------- binary wire format

use isel_service::journal::{is_manifest, tag_line};
use isel_service::{
    convert, read_journal_bytes, Control, FrameEncoder, JournalConfig, JournalWriter, Record,
    RecordIter, WireFormat, FORMAT_VERSION, MAGIC,
};
use isel_workload::{tpcc, QueryKind};
use std::path::Path;

/// Run a router over `bytes` with a checkpoint manifest in a private
/// scratch directory; return the report plus every checkpoint file the
/// run committed, as sorted `(file name, bytes)` pairs. File names are
/// relative to the manifest, so two runs over equivalent streams must
/// produce identical pair lists.
fn run_with_checkpoints(
    w: &Workload,
    shards: u32,
    bytes: Vec<u8>,
    tag: &str,
) -> (isel_service::ServiceReport, Vec<(String, Vec<u8>)>) {
    let dir = case_dir(tag);
    let manifest = dir.join("cp.json");
    let mut router = Router::new(w.schema().clone(), sharded_config(shards)).unwrap();
    let report = router
        .run_reader(&mut Cursor::new(bytes), OverloadPolicy::Block, Some(&manifest), &[])
        .unwrap();
    let files = take_dir_files(&dir);
    (report, files)
}

/// Every file in `dir` as sorted `(file name, bytes)` pairs; removes the
/// directory.
fn take_dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    std::fs::remove_dir_all(dir).ok();
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole cross-encoding guarantee: the same random event
    /// stream replayed as JSONL and as its binary transcoding yields
    /// bit-identical epoch outcomes, final selections, ingest counters
    /// and checkpoint files at 1, 2 and 4 shards.
    #[test]
    fn binary_and_jsonl_replays_are_bit_identical(
        picks in prop::collection::vec((0usize..10_000, 1u64..40), 24..72),
    ) {
        let w = workload();
        let jsonl = render_log(&w, &picks);
        let binary = convert(jsonl.as_bytes(), WireFormat::Binary);
        prop_assert_eq!(binary.first(), Some(&MAGIC));
        for shards in [1u32, 2, 4] {
            let (a, cp_a) =
                run_with_checkpoints(&w, shards, jsonl.clone().into_bytes(), "xenc-jsonl");
            let (b, cp_b) = run_with_checkpoints(&w, shards, binary.clone(), "xenc-binary");
            prop_assert_eq!(a.ingested, b.ingested);
            prop_assert_eq!(a.invalid, b.invalid);
            prop_assert_eq!(a.epochs.len(), b.epochs.len());
            for (x, y) in a.epochs.iter().zip(&b.epochs) {
                prop_assert_eq!(x.table, y.table);
                prop_assert_eq!(x.epoch, y.epoch);
                prop_assert_eq!(&x.selection, &y.selection);
                prop_assert_eq!(x.workload_cost.to_bits(), y.workload_cost.to_bits());
                prop_assert_eq!(x.reconfig_paid.to_bits(), y.reconfig_paid.to_bits());
            }
            prop_assert_eq!(&a.final_selection, &b.final_selection);
            prop_assert_eq!(cp_a, cp_b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `convert` is lossless in both directions on mixed logs: canonical
    /// events, tagged events, controls and arbitrary garbage lines all
    /// survive jsonl → binary → jsonl byte-for-byte, and re-encoding the
    /// round-tripped text reproduces the binary bytes exactly.
    #[test]
    fn convert_round_trips_mixed_logs_losslessly(
        picks in prop::collection::vec((0usize..10_000, 1u64..40), 0..32),
        garbage in prop::collection::vec(arb_ascii_line(40), 0..8),
        seed in 0u64..1000,
    ) {
        let w = workload();
        let mut lines: Vec<String> =
            render_log(&w, &picks).lines().map(str::to_owned).collect();
        for g in garbage {
            if !g.trim().is_empty() {
                lines.push(g);
            }
        }
        lines.push("{\"control\":\"checkpoint\"}".to_owned());
        lines.push("{\"control\":\"status\"}".to_owned());
        lines.push("{\"conn\":3,\"seq\":9,\"table\":0,\"attrs\":[1,4]}".to_owned());
        lines.push("{\"conn\":3,\"seq\":10,\"table\":1,\"attrs\":[2],\"frequency\":5}".to_owned());
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..lines.len()).rev() {
            let j = rng.gen_range(0..(i as u64 + 1)) as usize;
            lines.swap(i, j);
        }
        let log: String = lines.iter().map(|l| format!("{l}\n")).collect();

        let bin = convert(log.as_bytes(), WireFormat::Binary);
        let back = convert(&bin, WireFormat::Jsonl);
        prop_assert_eq!(std::str::from_utf8(&back).unwrap(), log.as_str());
        // Both directions are idempotent fixed points.
        prop_assert_eq!(convert(&back, WireFormat::Binary), bin);
        prop_assert_eq!(convert(log.as_bytes(), WireFormat::Jsonl), log.as_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Satellite guarantee, binary edition: whatever bytes arrive, the
    /// record decoder never panics and decodes deterministically, and
    /// `convert` stays total in both directions.
    #[test]
    fn binary_decoder_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(0u8..=255, 0..512),
    ) {
        let a: Vec<Record> = RecordIter::new(Cursor::new(bytes.clone())).collect();
        let b: Vec<Record> = RecordIter::new(Cursor::new(bytes.clone())).collect();
        prop_assert_eq!(a, b);
        let _ = convert(&bytes, WireFormat::Binary);
        let _ = convert(&bytes, WireFormat::Jsonl);
    }
}

/// Systematic corruption of a known-good two-frame stream: truncation at
/// every byte, every single-byte flip, an unknown version byte, a CRC
/// mismatch and an oversized length prefix all decode without panicking,
/// count invalid regions at deterministic positions, and never take the
/// healthy neighbouring frame down with them.
#[test]
fn binary_decoder_handles_truncation_and_corruption_deterministically() {
    let mut enc = FrameEncoder::new();
    enc.push_query(0, &[1, 2, 3], 7, QueryKind::Select);
    enc.push_query(1, &[0], 1, QueryKind::Update);
    enc.push_control(Control::Checkpoint, None);
    let mut frame1 = Vec::new();
    enc.flush_into(&mut frame1);
    enc.push_query(0, &[2], 3, QueryKind::Select);
    enc.push_raw(b"not json");
    let mut frame2 = Vec::new();
    enc.flush_into(&mut frame2);
    let stream = [frame1.clone(), frame2.clone()].concat();

    let full: Vec<Record> = RecordIter::new(Cursor::new(stream.clone())).collect();
    assert!(full.iter().all(|r| matches!(r, Record::Item(_))));
    assert!(full.len() >= 6, "defines + events + control + raw");
    let frame2_records: Vec<Record> =
        RecordIter::new(Cursor::new(frame2.clone())).collect();

    // Truncation at every byte: no panic, and a second pass agrees.
    for cut in 0..stream.len() {
        let a: Vec<Record> = RecordIter::new(Cursor::new(stream[..cut].to_vec())).collect();
        let b: Vec<Record> = RecordIter::new(Cursor::new(stream[..cut].to_vec())).collect();
        assert_eq!(a, b, "truncation at byte {cut} is nondeterministic");
    }

    // Every single-byte flip: no panic, deterministic.
    for i in 0..stream.len() {
        let mut bad = stream.clone();
        bad[i] ^= 0xFF;
        let a: Vec<Record> = RecordIter::new(Cursor::new(bad.clone())).collect();
        let b: Vec<Record> = RecordIter::new(Cursor::new(bad)).collect();
        assert_eq!(a, b, "flip at byte {i} is nondeterministic");
    }

    // Unknown version byte: the corrupt frame is counted and the decoder
    // resyncs; frame 2's raw item still comes through.
    let mut bad = stream.clone();
    assert_eq!(bad[0], MAGIC);
    assert_eq!(bad[1], FORMAT_VERSION);
    bad[1] = 0xEE;
    let recs: Vec<Record> = RecordIter::new(Cursor::new(bad)).collect();
    assert!(recs.contains(&Record::Corrupt));
    assert_eq!(
        recs.iter()
            .filter(|r| matches!(r, Record::Item(i) if *i == isel_service::WireItem::Raw(b"not json".to_vec())))
            .count(),
        1,
        "frame 2 must survive a frame 1 version error"
    );

    // CRC mismatch: exactly one corrupt marker, no resync, and frame 2
    // decodes bit-identically to its standalone decode.
    assert!(frame1[2] < 0x80, "payload length fits one varint byte");
    let mut bad = stream.clone();
    bad[7] ^= 0x01; // first payload byte of frame 1
    let recs: Vec<Record> = RecordIter::new(Cursor::new(bad)).collect();
    assert_eq!(recs[0], Record::Corrupt);
    assert_eq!(&recs[1..], &frame2_records[..]);

    // Oversized length prefix: corrupt header, then clean resync onto the
    // next magic byte.
    let mut bad = vec![MAGIC, FORMAT_VERSION, 0xFF, 0xFF, 0xFF, 0x7F];
    bad.extend_from_slice(&frame2);
    let recs: Vec<Record> = RecordIter::new(Cursor::new(bad)).collect();
    assert_eq!(recs[0], Record::Corrupt);
    assert_eq!(&recs[1..], &frame2_records[..]);
}

/// The checked-in binary fixture is frozen against its JSONL twin:
/// `journal convert` regenerates it byte-identically, converts it back
/// losslessly, it keeps the ≥10x size edge, and whole-workload tuning
/// replays both encodings to bit-identical epoch outcomes.
#[test]
fn golden_tpcc_fixture_matches_its_jsonl_twin() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples");
    let jsonl = std::fs::read(dir.join("tpcc_events.jsonl")).unwrap();
    let bin = std::fs::read(dir.join("tpcc_events.bin")).unwrap();
    assert_eq!(
        convert(&jsonl, WireFormat::Binary),
        bin,
        "examples/tpcc_events.bin is stale; regenerate with \
         `isel journal convert --log examples/tpcc_events.jsonl --to binary \
         --out examples/tpcc_events.bin`"
    );
    assert_eq!(convert(&bin, WireFormat::Jsonl), jsonl);
    assert!(
        bin.len() * 10 <= jsonl.len(),
        "binary fixture lost its 10x size edge: {} vs {} bytes",
        bin.len(),
        jsonl.len()
    );

    let w = tpcc::generate(50).0;
    let run = |bytes: &[u8]| {
        whole(&w, service_config(1))
            .run_reader(&mut Cursor::new(bytes.to_vec()), OverloadPolicy::Block, None, &[])
            .unwrap()
    };
    let a = run(&jsonl);
    let b = run(&bin);
    assert_eq!(a.ingested, b.ingested);
    assert_eq!(a.invalid, b.invalid);
    assert_eq!(a.epochs.len(), b.epochs.len());
    for (x, y) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(x.epoch, y.epoch);
        assert_eq!(x.selection, y.selection);
        assert_eq!(x.workload_cost.to_bits(), y.workload_cost.to_bits());
        assert_eq!(x.reconfig_paid.to_bits(), y.reconfig_paid.to_bits());
    }
    assert_eq!(a.final_selection, b.final_selection);
}

/// Kill a rotating journal mid-segment (the final manifest commit never
/// lands) and recover: every acknowledged line comes back, in order,
/// with its connection/sequence tag — in both encodings, across the
/// shared-dictionary segment boundary.
#[test]
fn rotated_journal_survives_a_mid_segment_kill() {
    for format in [WireFormat::Jsonl, WireFormat::Binary] {
        let dir = case_dir("rotate-kill");
        let path = dir.join("journal");
        let config = JournalConfig { path: path.clone(), format, max_bytes: Some(96) };
        let mut writer = JournalWriter::create(config).unwrap();
        let mut lines = Vec::new();
        for i in 0..40u64 {
            let line = format!(
                "{{\"table\":{},\"attrs\":[{}],\"frequency\":{}}}",
                i % 2,
                i % 6,
                i % 5 + 2
            );
            writer.write_line(1, i + 1, &line);
            lines.push(line);
        }
        assert_eq!(writer.errors(), 0);
        writer.abandon(); // the "kill": data flushed, manifest not committed

        let manifest = std::fs::read(&path).unwrap();
        assert!(is_manifest(&manifest), "{format:?}: base path holds the manifest");
        assert!(
            dir.join("journal.seg-000001").exists(),
            "{format:?}: 40 events across 96-byte segments must rotate at least once"
        );

        let bytes = read_journal_bytes(&path).unwrap();
        let text = String::from_utf8(convert(&bytes, WireFormat::Jsonl)).unwrap();
        let got: Vec<&str> = text.lines().collect();
        assert_eq!(got.len(), lines.len(), "{format:?}: no acknowledged line may be lost");
        for (i, (g, want)) in got.iter().zip(&lines).enumerate() {
            assert_eq!(*g, tag_line(1, i as u64 + 1, want), "{format:?}: line {i}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// --------------------------------------------- observed-cost feedback

/// Interleave an observed-cost probe after every `every`-th query pick,
/// re-stating the just-picked template with a synthetic measured cost.
fn render_log_with_probes(w: &Workload, picks: &[(usize, u64)], every: usize) -> String {
    let qs = w.queries();
    let mut out = String::new();
    for (n, &(i, f)) in picks.iter().enumerate() {
        let q = &qs[i % qs.len()];
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        out.push_str(&format!(
            "{{\"table\":{},\"attrs\":[{}],\"frequency\":{f}}}\n",
            q.table().0,
            attrs.join(",")
        ));
        if (n + 1) % every == 0 {
            out.push_str(&format!(
                "{{\"table\":{},\"attrs\":[{}],\"observed_cost\":{}}}\n",
                q.table().0,
                attrs.join(","),
                (n % 7 + 1) as f64 * 3.5
            ));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The disabled-calibration contract (DESIGN.md §17): observed-cost
    /// probes are invisible to selection when calibration is off. The
    /// probe-interleaved log replays bit-identically to the probe-free
    /// log at 1, 2 and 4 shards, and probes never count as ingested
    /// events.
    #[test]
    fn disabled_calibration_ignores_observed_probes(
        picks in prop::collection::vec((0usize..10_000, 1u64..40), 24..72),
        every in 2usize..6,
    ) {
        let w = workload();
        let plain = render_log(&w, &picks);
        let with_probes = render_log_with_probes(&w, &picks, every);

        let mut reference = Router::new(w.schema().clone(), sharded_config(1)).unwrap();
        let baseline = reference
            .run_reader(&mut Cursor::new(plain), OverloadPolicy::Block, None, &[])
            .unwrap();
        for shards in [1u32, 2, 4] {
            let mut router =
                Router::new(w.schema().clone(), sharded_config(shards)).unwrap();
            let report = router
                .run_reader(&mut Cursor::new(with_probes.clone()), OverloadPolicy::Block, None, &[])
                .unwrap();
            // Probes must never count as ingested events.
            prop_assert_eq!(report.ingested, picks.len() as u64);
            prop_assert_eq!(report.invalid, 0);
            prop_assert_eq!(baseline.epochs.len(), report.epochs.len());
            for (a, b) in baseline.epochs.iter().zip(&report.epochs) {
                prop_assert_eq!(a.table, b.table);
                prop_assert_eq!(a.epoch, b.epoch);
                prop_assert_eq!(&a.selection, &b.selection);
                prop_assert_eq!(a.workload_cost.to_bits(), b.workload_cost.to_bits());
                prop_assert_eq!(a.reconfig_paid.to_bits(), b.reconfig_paid.to_bits());
            }
            prop_assert_eq!(&baseline.final_selection, &report.final_selection);
        }
    }
}

/// The observed-cost fixture pair is frozen like the plain TPC-C pair:
/// `journal convert` regenerates the binary twin byte-identically and
/// converts it back losslessly (probes ride as raw-framed lines), and a
/// calibrated whole-workload run replays both encodings to the same learned
/// calibration table with every probe counted.
#[test]
fn golden_observed_fixture_matches_its_jsonl_twin() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples");
    let jsonl = std::fs::read(dir.join("tpcc_observed.jsonl")).unwrap();
    let bin = std::fs::read(dir.join("tpcc_observed.bin")).unwrap();
    assert_eq!(
        convert(&jsonl, WireFormat::Binary),
        bin,
        "examples/tpcc_observed.bin is stale; regenerate with \
         `isel journal convert --log examples/tpcc_observed.jsonl --to binary \
         --out examples/tpcc_observed.bin`"
    );
    assert_eq!(convert(&bin, WireFormat::Jsonl), jsonl);
    assert!(
        bin.len() * 3 <= jsonl.len(),
        "binary twin lost its size edge: {} vs {} bytes",
        bin.len(),
        jsonl.len()
    );

    let w = tpcc::generate(50).0;
    let run = |bytes: &[u8]| {
        let mut config = service_config(1);
        config.calibration.enabled = true;
        let mut router = whole(&w, config);
        let report = router
            .run_reader(&mut Cursor::new(bytes.to_vec()), OverloadPolicy::Block, None, &[])
            .unwrap();
        (report, router.calibration())
    };
    let (a, cal_a) = run(&jsonl);
    let (b, cal_b) = run(&bin);
    assert_eq!(a.ingested, 640, "probes never count as ingested events");
    assert_eq!(a.invalid, 0, "every probe line must parse");
    assert_eq!(a.ingested, b.ingested);
    assert_eq!(a.invalid, b.invalid);
    assert_eq!(cal_a, cal_b, "both encodings learn the same table");
    assert!(cal_a.contains("\"probes\":80"), "all 80 probes counted: {cal_a}");
    assert_eq!(a.epochs.len(), b.epochs.len());
    for (x, y) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(x.epoch, y.epoch);
        assert_eq!(x.selection, y.selection);
        assert_eq!(x.workload_cost.to_bits(), y.workload_cost.to_bits());
    }
    assert_eq!(a.final_selection, b.final_selection);
}

/// The in-band `calibration` answer is the groups' own sums, wherever
/// the groups run: a `{"control":"calibration"}` behind the last event
/// of the observed-cost fixture (both encodings) answers exactly what
/// `Router::calibration()` reads after the run, at `--shards 0|1|2|4`;
/// and at one shard a query in the middle of the stream answers what a
/// replay of the prefix before it ends on. (The answers are taken
/// through reply tokens; without one they print to stderr unchanged.)
#[test]
fn in_band_calibration_answer_is_the_groups_sums() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples");
    let jsonl = std::fs::read(dir.join("tpcc_observed.jsonl")).unwrap();
    let bin = std::fs::read(dir.join("tpcc_observed.bin")).unwrap();
    let w = tpcc::generate(50).0;
    // Replay `log`, whose queries carry tokens 0..queries, and return
    // their answers plus the calibration table after the run.
    let run = |shards: u32, log: &[u8], queries: u64| {
        let mut config = ServiceConfig { shards, ..service_config(1) };
        config.calibration.enabled = true;
        let registry = Arc::new(InteractiveRegistry::new());
        let replies: Vec<_> = (0..queries)
            .map(|i| {
                let (tx, rx) = channel();
                assert_eq!(registry.register(tx), i);
                rx
            })
            .collect();
        let mut router = Router::new(w.schema().clone(), config).unwrap();
        router.set_interactive(registry);
        let input = &mut Cursor::new(log.to_vec());
        router.run_reader(input, OverloadPolicy::Block, None, &[]).unwrap();
        let answers: Vec<String> = replies.iter().map(|rx| rx.recv().unwrap()).collect();
        (answers, router.calibration())
    };
    let query = |token: u64| format!("{{\"control\":\"calibration\",\"token\":{token}}}\n");
    for (label, log) in [("jsonl", &jsonl), ("binary", &bin)] {
        for shards in [0, 1, 2, 4] {
            let log = [log.as_slice(), query(0).as_bytes()].concat();
            let (answers, after) = run(shards, &log, 1);
            assert_eq!(answers[0], after, "{label}, --shards {shards}");
            assert!(after.contains("\"probes\":80"), "{label}, --shards {shards}: {after}");
        }
    }

    let lines: Vec<&str> = std::str::from_utf8(&jsonl).unwrap().lines().collect();
    let cut = lines.len() / 2;
    let prefix: String = lines[..cut].iter().map(|l| format!("{l}\n")).collect();
    let rest: String = lines[cut..].iter().map(|l| format!("{l}\n")).collect();
    let (answers, after) =
        run(1, format!("{prefix}{}{rest}{}", query(0), query(1)).as_bytes(), 2);
    let (_, at_cut) = run(1, prefix.as_bytes(), 0);
    assert_eq!(answers, [at_cut.clone(), after.clone()]);
    assert_ne!(at_cut, after, "the mid-stream answer sees only the prefix");
}

/// `n` round-robin query events with an observed-cost probe for the
/// same template after every eighth one; returns the log and its probe
/// count.
fn probed_log(w: &Workload, n: usize) -> (String, usize) {
    let mut out = String::new();
    let mut probes = 0;
    for i in 0..n {
        let q = &w.queries()[i % w.query_count()];
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        let attrs = attrs.join(",");
        let table = q.table().0;
        out.push_str(&format!("{{\"table\":{table},\"attrs\":[{attrs}]}}\n"));
        if (i + 1).is_multiple_of(8) {
            let cost = ((i % 13) as f64 + 1.0) * 1000.0;
            out.push_str(&format!(
                "{{\"table\":{table},\"attrs\":[{attrs}],\"observed_cost\":{cost}}}\n"
            ));
            probes += 1;
        }
    }
    (out, probes)
}

/// An open-loop source: the log's lines released at `rate` lines per
/// second in 1 ms ticks, sleeping between ticks so the consumer keeps
/// a CPU.
struct Paced {
    bytes: Vec<u8>,
    /// Offset just past each line.
    ends: Vec<usize>,
    pos: usize,
    rate: u64,
    start: std::time::Instant,
}

impl Paced {
    fn new(log: &str, rate: u64) -> Self {
        let ends = log.match_indices('\n').map(|(i, _)| i + 1).collect();
        let start = std::time::Instant::now();
        Self { bytes: log.as_bytes().to_vec(), ends, pos: 0, rate, start }
    }
}

impl std::io::Read for Paced {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        use std::io::BufRead;
        let buf = self.fill_buf()?;
        let n = buf.len().min(out.len());
        out[..n].copy_from_slice(&buf[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl std::io::BufRead for Paced {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        while self.pos < self.bytes.len() {
            let ticks = self.start.elapsed().as_millis() as u64 + 1;
            let due = ((ticks * self.rate / 1000) as usize).min(self.ends.len());
            let end = due.checked_sub(1).map_or(0, |i| self.ends[i]);
            if end > self.pos {
                return Ok(&self.bytes[self.pos..end]);
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        Ok(&[])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// Observed-cost probes ride the stream without becoming events: with
/// calibration off or on, 20 000 queries and their 2 500 probes ingest
/// as 20 000 events, nothing is dropped, and the calibration counters
/// count every probe — also paced open-loop at 50 000 lines/s under
/// drop-oldest, where the calibrated service must shed nothing.
#[test]
fn observed_probes_are_counted_never_ingested_or_shed() {
    const EVENTS: usize = 20_000;
    let w = synthetic::generate(&SyntheticConfig {
        tables: 5,
        attrs_per_table: 20,
        queries_per_table: 20,
        rows_base: 500_000,
        ..SyntheticConfig::default()
    });
    let (log, probes) = probed_log(&w, EVENTS);
    assert_eq!(probes, EVENTS / 8);
    // Epochs never seal: the streaming path alone.
    let config = |calibrate: bool| {
        let mut config =
            ServiceConfig { epoch_events: (EVENTS + 1) as u64, ..ServiceConfig::default() };
        config.calibration.enabled = calibrate;
        config
    };
    let counted = format!("\"probes\":{probes}");
    for calibrate in [false, true] {
        let mut router = Router::new(w.schema().clone(), config(calibrate)).unwrap();
        let report = router
            .run_reader(&mut Cursor::new(log.clone()), OverloadPolicy::Block, None, &[])
            .unwrap();
        assert_eq!(report.ingested as usize, EVENTS, "probes must not count as ingested");
        assert_eq!(report.invalid, 0);
        assert_eq!(report.dropped, 0);
        let snap = router.calibration();
        assert!(snap.contains(&counted), "calibrate {calibrate}: {snap}");
    }

    let mut router = Router::new(w.schema().clone(), config(true)).unwrap();
    let report = router
        .run_reader(&mut Paced::new(&log, 50_000), OverloadPolicy::DropOldest, None, &[])
        .unwrap();
    assert_eq!(report.ingested as usize, EVENTS);
    assert_eq!(report.dropped, 0, "the calibrated service shed events at 50 000 lines/s");
    let snap = router.calibration();
    assert!(snap.contains(&counted), "the paced run lost probes: {snap}");
}

// ------------------------------------------------- batched hand-off

use isel_core::{TraceEvent, VecSink};
use isel_service::{run_socket_router, InteractiveRegistry};
use std::io::BufRead;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A reader that hands out one received chunk per `fill_buf` on an empty
/// buffer and *blocks* on the channel for the next one; the sender
/// hanging up is EOF. With [`chunked`] it replays a byte string in
/// pieces, with a live sender it is an input that goes idle.
struct GatedReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl GatedReader {
    fn new(rx: Receiver<Vec<u8>>) -> Self {
        Self { rx, buf: Vec::new(), pos: 0 }
    }
}

impl std::io::Read for GatedReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for GatedReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            self.buf = self.rx.recv().unwrap_or_default();
            self.pos = 0;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// `bytes` as a reader that yields it in pieces of seeded random sizes
/// in `1..=max_piece`, then EOF.
fn chunked(bytes: &[u8], max_piece: usize, seed: u64) -> GatedReader {
    let mut rng = StdRng::seed_from_u64(seed);
    let (tx, rx) = channel();
    let mut rest = bytes;
    while !rest.is_empty() {
        let n = (rng.gen_range(0..max_piece as u64) as usize + 1).min(rest.len());
        tx.send(rest[..n].to_vec()).unwrap();
        rest = &rest[n..];
    }
    GatedReader::new(rx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Record boundaries straddling the reader's buffers never change
    /// the records produced: healthy frames, text lines and arbitrary
    /// garbage, cut into random pieces, decode exactly like the one
    /// slice — the decoder fuzz above, extended to chunked readers.
    #[test]
    fn chunked_readers_decode_like_the_one_slice(
        picks in prop::collection::vec((0usize..10_000, 1u64..40), 0..48),
        garbage in prop::collection::vec(0u8..=255, 0..96),
        splice in 0usize..10_000,
        max_piece in 1usize..40,
        seed in 0u64..1_000,
    ) {
        let w = workload();
        let jsonl = render_log(&w, &picks);
        let mut stream = convert(jsonl.as_bytes(), WireFormat::Binary);
        stream.extend_from_slice(jsonl.as_bytes());
        stream.extend_from_slice(&convert(jsonl.as_bytes(), WireFormat::Binary));
        let at = splice % (stream.len() + 1);
        stream.splice(at..at, garbage);

        let whole: Vec<Record> = RecordIter::new(Cursor::new(&stream[..])).collect();
        let pieces: Vec<Record> = RecordIter::new(chunked(&stream, max_piece, seed)).collect();
        prop_assert_eq!(pieces, whole);
    }
}

/// One table's templates, cycled into `n` JSONL event lines.
fn table_events(w: &Workload, table: u16, n: usize) -> Vec<String> {
    w.queries()
        .iter()
        .filter(|q| q.table().0 == table)
        .cycle()
        .take(n)
        .map(|q| {
            let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
            format!("{{\"table\":{table},\"attrs\":[{}]}}\n", attrs.join(","))
        })
        .collect()
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn epochs_traced(sink: &VecSink) -> usize {
    sink.events().iter().filter(|e| matches!(e, TraceEvent::Epoch { .. })).count()
}

/// The `"ingested"` counter of a status line.
fn ingested_of(status: &str) -> u64 {
    let v: serde_json::Value = serde_json::from_str(status).unwrap();
    v.get("status")
        .and_then(|s| s.get("ingested"))
        .and_then(|n| n.as_u64())
        .expect("status reply carries an ingested counter")
}

/// The flush-before-block rule (DESIGN.md §13): far fewer events than a
/// hand-off batch holds still reach the worker as soon as the input goes
/// idle — no timer, no further input. Sixteen events arrive, then the
/// reader blocks: both epochs are tuned while it is still blocked (seen
/// through the trace sink, which needs no input at all), and status
/// polling — each poll one more line, which is what `serve` clients do —
/// reads `ingested == 16`. The same holds when the idle point falls in
/// the *middle* of a line, and for a binary frame that arrives in two
/// pieces.
#[test]
fn events_are_handed_over_before_the_input_blocks() {
    let w = workload();
    let lines = table_events(&w, 0, 16);
    let jsonl: Vec<u8> = lines.concat().into_bytes();
    let binary = convert(&jsonl, WireFormat::Binary);
    let cut = binary.len() / 2;
    /// What arrives before the input goes idle, and what completes a
    /// record the idle point tore (if it tore one).
    struct Case {
        label: &'static str,
        pieces: Vec<Vec<u8>>,
        completion: Vec<u8>,
    }
    let cases = [
        Case { label: "whole lines", pieces: vec![jsonl.clone()], completion: Vec::new() },
        Case {
            label: "idle in the middle of a line",
            pieces: vec![[&jsonl[..], b"{\"control\":\"sta"].concat()],
            completion: b"tus\"}\n".to_vec(),
        },
        Case {
            label: "a frame in two pieces",
            pieces: vec![binary[..cut].to_vec(), binary[cut..].to_vec()],
            completion: Vec::new(),
        },
    ];
    for Case { label, pieces, completion } in cases {
        let sink = VecSink::new();
        let registry = Arc::new(InteractiveRegistry::new());
        let mut router = Router::new(w.schema().clone(), sharded_config(1)).unwrap();
        router.set_interactive(Arc::clone(&registry));
        let (tx, rx) = channel();
        let report = std::thread::scope(|s| {
            let serving = s.spawn(|| {
                router.run_reader(
                    &mut GatedReader::new(rx),
                    OverloadPolicy::Block,
                    None,
                    &[&sink as &dyn isel_core::TraceSink],
                )
            });
            for piece in pieces {
                tx.send(piece).unwrap();
            }
            // Nothing more is sent: the reader is blocked from here on.
            wait_until(&format!("both epochs are tuned ({label})"), || {
                epochs_traced(&sink) == 2
            });
            assert!(!serving.is_finished());
            if !completion.is_empty() {
                tx.send(completion).unwrap();
            }
            wait_until(&format!("status shows 16 ingested ({label})"), || {
                let (reply_tx, reply_rx) = channel();
                let token = registry.register(reply_tx);
                tx.send(format!("{{\"control\":\"status\",\"token\":{token}}}\n").into_bytes())
                    .unwrap();
                ingested_of(&reply_rx.recv().unwrap()) == 16
            });
            drop(tx); // EOF
            serving.join().unwrap().unwrap()
        });
        assert_eq!(report.ingested, 16, "{label}");
        assert_eq!(report.invalid, 0, "{label}");
        assert_eq!(report.epochs.len(), 2, "{label}");
    }
}

/// One run of a control-carrying log: the report, every checkpoint file
/// committed, and the replies to its in-stream queries in stream order.
struct BatchedRun {
    report: isel_service::ServiceReport,
    files: Vec<(String, Vec<u8>)>,
    replies: Vec<String>,
}

/// Replay `events` with `controls` spliced in *after* the given event
/// positions; every query control is stamped with a reply token.
fn run_with_controls(
    w: &Workload,
    shards: u32,
    events: &[String],
    controls: &[(usize, &str)],
    binary: bool,
    reader: impl FnOnce(&[u8]) -> Box<dyn BufRead + Send>,
) -> BatchedRun {
    let registry = Arc::new(InteractiveRegistry::new());
    let mut replies = Vec::new();
    let mut log = String::new();
    for (i, event) in events.iter().enumerate() {
        log.push_str(event);
        for (_, control) in controls.iter().filter(|(at, _)| *at == i + 1) {
            if control.contains("checkpoint") {
                log.push_str(&format!("{{\"control\":{control}}}\n"));
            } else {
                let (tx, rx) = channel();
                let token = registry.register(tx);
                replies.push(rx);
                log.push_str(&format!("{{\"control\":{control},\"token\":{token}}}\n"));
            }
        }
    }
    let bytes = if binary {
        // Token-stamped controls ride as raw-framed lines; events and
        // the plain checkpoint control transcode.
        convert(log.as_bytes(), WireFormat::Binary)
    } else {
        log.into_bytes()
    };
    let dir = case_dir("batched");
    let manifest = dir.join("cp.json");
    let mut config = sharded_config(shards);
    config.epoch_events = 32;
    let mut router = Router::new(w.schema().clone(), config).unwrap();
    router.set_interactive(registry);
    let report = router
        .run_reader(&mut reader(&bytes), OverloadPolicy::Block, Some(&manifest), &[])
        .unwrap();
    let files = take_dir_files(&dir);
    let replies =
        replies.into_iter().map(|rx| rx.recv().expect("every query is answered")).collect();
    BatchedRun { report, files, replies }
}

/// Where a hand-off batch ends is invisible: a log several batches long
/// per shard, with `checkpoint`, `whatif` and `budget` controls at
/// positions that are not multiples of the batch size (512), replays to
/// bit-identical epochs and selections at 1, 2 and 4 shards, in both
/// encodings, and whether the input arrives as one slice (full batches),
/// one line per read (a hand-off per line, the pre-batching behaviour)
/// or in random pieces — and, at one shard count, to identical
/// checkpoint files and (one shard) identical query answers.
#[test]
fn batch_boundaries_never_show_in_results() {
    let w = workload();
    let picks: Vec<(usize, u64)> = {
        let mut rng = StdRng::seed_from_u64(5);
        (0..2_300).map(|_| (rng.gen_range(0..10_000) as usize, rng.gen_range(1..4))).collect()
    };
    let events: Vec<String> =
        render_log(&w, &picks).lines().map(|l| format!("{l}\n")).collect();
    let controls = [
        (137, "\"whatif\",\"budget\":300000"),
        (511, "\"checkpoint\""),
        (613, "\"budget\",\"budget\":200000"),
        (614, "\"whatif\",\"budget\":300000"),
        (1025, "\"checkpoint\""),
        (1500, "\"tenant\",\"table_group\":1,\"budget\":150000"),
        (2047, "\"whatif\",\"budget\":100000"),
    ];
    let one_slice = |b: &[u8]| Box::new(Cursor::new(b.to_vec())) as Box<dyn BufRead + Send>;
    let baseline = run_with_controls(&w, 1, &events, &controls, false, one_slice);
    assert_eq!(baseline.report.ingested, 2_300);
    assert_eq!(baseline.report.invalid, 0);
    assert_eq!(baseline.replies.len(), 5);
    assert_eq!(baseline.report.checkpoints_written, 3, "two in-stream, one final");
    assert_ne!(baseline.replies[0], baseline.replies[2], "the budget control re-anchors");

    for shards in [1u32, 2, 4] {
        let mut same_shards: Vec<BatchedRun> = Vec::new();
        for binary in [false, true] {
            let per_line = |b: &[u8]| {
                let (tx, rx) = channel();
                // One record per `fill_buf`: split after every newline
                // (JSONL) or hand over byte by byte (binary).
                if binary {
                    b.iter().for_each(|&byte| tx.send(vec![byte]).unwrap());
                } else {
                    b.split_inclusive(|&c| c == b'\n').for_each(|l| tx.send(l.to_vec()).unwrap());
                }
                Box::new(GatedReader::new(rx)) as Box<dyn BufRead + Send>
            };
            let pieces = |b: &[u8]| {
                Box::new(chunked(b, 3_000, u64::from(shards))) as Box<dyn BufRead + Send>
            };
            same_shards.push(run_with_controls(&w, shards, &events, &controls, binary, one_slice));
            same_shards.push(run_with_controls(&w, shards, &events, &controls, binary, per_line));
            same_shards.push(run_with_controls(&w, shards, &events, &controls, binary, pieces));
        }
        for run in &same_shards {
            assert_eq!(run.report.ingested, baseline.report.ingested);
            assert_eq!(run.report.invalid, 0);
            assert_eq!(run.report.checkpoints_written, baseline.report.checkpoints_written);
            assert_eq!(run.report.epochs.len(), baseline.report.epochs.len());
            for (a, b) in baseline.report.epochs.iter().zip(&run.report.epochs) {
                assert_eq!((a.table, a.epoch), (b.table, b.epoch));
                assert_eq!(a.selection, b.selection);
                assert_eq!(a.workload_cost.to_bits(), b.workload_cost.to_bits());
                assert_eq!(a.reconfig_paid.to_bits(), b.reconfig_paid.to_bits());
            }
            assert_eq!(run.report.final_selection, baseline.report.final_selection);
            // Every query is answered; at one shard the answer reflects
            // exactly the events preceding it. (At several shards a shard
            // that has passed the query runs on and may publish a later
            // epoch before the slowest shard answers — DESIGN.md §15.)
            assert_eq!(run.replies.len(), baseline.replies.len());
            if shards == 1 {
                assert_eq!(run.replies, baseline.replies);
            }
            assert_eq!(run.files, same_shards[0].files, "checkpoint bytes at {shards} shards");
        }
    }
}

/// Drop-oldest accounting survives batching: every event sent is either
/// ingested or counted dropped, through the socket front end with a tiny
/// queue (a hand-off per line) and straight through `run_reader` (whole
/// batches, clipped to the queue's capacity).
#[test]
fn drop_oldest_accounts_for_every_event() {
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    let w = workload();
    let sent = 600usize;
    let events: Vec<String> = (0..sent)
        .map(|i| table_events(&w, (i % 2) as u16, i / 2 + 1).pop().unwrap())
        .collect();
    let mut config = sharded_config(2);
    config.queue_capacity = 3;

    // Whole batches from a slice.
    let mut router = Router::new(w.schema().clone(), config.clone()).unwrap();
    let report = router
        .run_reader(&mut Cursor::new(events.concat()), OverloadPolicy::DropOldest, None, &[])
        .unwrap();
    assert_eq!(report.invalid, 0);
    assert_eq!(report.ingested + report.dropped, sent as u64);
    assert!(report.queue_high_water <= 3);

    // The socket front end.
    let dir = case_dir("drop-oldest-socket");
    let sock = dir.join("isel.sock");
    let mut router = Router::new(w.schema().clone(), config).unwrap();
    let report = std::thread::scope(|s| {
        let client = s.spawn(|| {
            let mut stream = loop {
                match UnixStream::connect(&sock) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            };
            stream.write_all(events.concat().as_bytes()).unwrap();
            stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
        });
        let report = run_socket_router(&mut router, &sock, None, None, &[]).unwrap();
        client.join().unwrap();
        report
    });
    assert_eq!(report.invalid, 0);
    assert_eq!(report.ingested + report.dropped, sent as u64);
    assert!(report.queue_high_water <= 3);
    std::fs::remove_dir_all(&dir).ok();
}

/// Under drop-oldest a shed record is one lost event, in either
/// encoding: the queues never shed a `Define` — the binary input's own,
/// or the one the router sends for a JSONL line it saw before — so no
/// later event of its template turns invalid. A few canonical lines
/// repeat, with a new template joining every 100 events so that
/// defines land among queued events; their binary twin is `Define`s and
/// `Event`s.
#[test]
fn drop_oldest_sheds_events_never_defines() {
    let w = workload();
    let sent = 3000usize;
    let qs = w.queries();
    let jsonl: String = (0..sent)
        .map(|i| {
            let q = &qs[i % (1 + i / 100) % qs.len()];
            let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
            let kind = if q.is_update() { r#","kind":"Update""# } else { "" };
            format!("{{\"table\":{},\"attrs\":[{}]{kind}}}\n", q.table().0, attrs.join(","))
        })
        .collect();
    let binary = convert(jsonl.as_bytes(), WireFormat::Binary);
    let defines = RecordIter::new(Cursor::new(&binary[..]))
        .filter(|r| matches!(r, Record::Item(isel_service::WireItem::Define { .. })))
        .count();
    let distinct: std::collections::HashSet<&str> = jsonl.lines().collect();
    assert_eq!(defines, distinct.len(), "the twin defines every distinct line");
    let mut config = sharded_config(2);
    config.queue_capacity = 3;
    for (encoding, log) in [("jsonl", jsonl.into_bytes()), ("binary", binary)] {
        let mut router = Router::new(w.schema().clone(), config.clone()).unwrap();
        let report = router
            .run_reader(&mut Cursor::new(log), OverloadPolicy::DropOldest, None, &[])
            .unwrap();
        assert_eq!(report.invalid, 0, "{encoding}: a shed define turned events invalid");
        assert_eq!(report.ingested + report.dropped, sent as u64, "{encoding}");
        assert!(report.dropped > 0, "{encoding}: nothing was shed, so nothing was shown");
        assert!(report.queue_high_water <= 3, "{encoding}: {}", report.queue_high_water);
    }
}

/// A line with a top-level `"table"` key is an event line to the engine
/// even when it carries `"control"` too, and the socket front agrees:
/// were it to wait for a reply the engine never sends, the connection
/// would stall, and the real `whatif` behind it would go unanswered
/// until the service stopped.
#[test]
fn table_keyed_control_line_does_not_stall_the_connection() {
    use std::io::{Read, Write};
    use std::os::unix::net::UnixStream;

    let w = workload();
    let mut router = whole(&w, service_config(1));
    let sock = std::env::temp_dir().join(format!("isel-tablectl-{}.sock", std::process::id()));
    let probe = 1u64 << 20;
    let (report, reply) = std::thread::scope(|s| {
        let client = s.spawn(|| {
            let connect = || loop {
                match UnixStream::connect(&sock) {
                    Ok(stream) => break stream,
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            };
            let mut stream = connect();
            stream.write_all(table_events(&w, 0, 16).concat().as_bytes()).unwrap();
            stream.write_all(b"{\"table\":0,\"control\":\"whatif\",\"budget\":1}\n").unwrap();
            writeln!(stream, "{{\"control\":\"whatif\",\"budget\":{probe}}}").unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let (mut reply, mut byte) = (Vec::new(), [0u8; 1]);
            while stream.read(&mut byte).is_ok_and(|n| n == 1) && byte[0] != b'\n' {
                reply.push(byte[0]);
            }
            // End the run either way, on a connection of its own: a
            // stalled one would never read a shutdown sent behind it.
            connect().write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
            String::from_utf8(reply).unwrap()
        });
        let report = run_socket_router(&mut router, &sock, None, None, &[]).unwrap();
        (report, client.join().unwrap())
    });
    assert_eq!(reply, router.arbiter().whatif(probe), "the real whatif, answered within 30 s");
    assert_eq!(report.ingested, 16);
}
