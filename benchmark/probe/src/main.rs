//! `probe` — the per-layer half of the benchmark.
//!
//! Links the libraries and times calls into each layer's public leaf
//! functions, pinned to one CPU, over inputs built in process from
//! `--seed`. Each timing is the fastest of up to five loops; counts
//! repeat exactly. One span is recorded per loop, nested under the
//! span of its metric, and written to `OUT/<workload>.trace.jsonl` on
//! exit, in the order the stages lie on that workload's path. See
//! `../README.md` for which end-to-end metric each number is expected to
//! move.
//!
//! ```text
//! probe --out DIR [--seed N] [--quick]
//! ```
//!
//! Prints one `metric NAME VALUE UNIT` line per measurement.

use isel_benchmark::span::SpanLog;
use isel_benchmark::stats::percentile;
use isel_benchmark::sys::pin_to_highest_cpu;
use isel_benchmark::{PER_LAYER, UNGATED, WORKLOADS};
use isel_core::{
    algorithm1, budget, candidates, cophy, dynamic, merge_frontiers_weighted, Frontier,
    FrontierPoint, FrontierSet, Parallelism, Trace, TraceEvent, VecSink,
};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_service::frame::{get_item, put_frame, render_query};
use isel_service::process::run_worker_io;
use isel_service::{
    classify_line, convert, shard_file, Arbiter, BoundedQueue, DecodeDict, EpochWindow,
    FrameEncoder, GroupCheckpoint, Manifest, PublishedFrontier, Record, RecordIter, ServiceConfig,
    ShardCheckpoint, SupMsg, Tuner, WireFormat, WireItem, CHECKPOINT_VERSION,
};
use isel_solver::cophy::CophyOptions;
use isel_solver::knapsack;
use isel_workload::erp::{self, ErpConfig};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::{io, tpcc, IndexId, IndexPool, Query, QueryId, TableId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Loops per metric; the fastest one is reported.
const LOOPS: usize = 5;
/// A loop repeats its batch until it has been busy this long.
const LOOP_BUSY: Duration = Duration::from_millis(20);
/// A metric stops looping once it has used this much, so the probes
/// that take seconds (the ERP load, H6) run once.
const METRIC_CAP: Duration = Duration::from_millis(400);

struct Probe {
    quick: bool,
    spans: SpanLog,
    metrics: Vec<(String, f64)>,
}

impl Probe {
    fn report(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_owned(), value));
    }

    /// Time `batch` on `workload`'s path and return the fastest loop's
    /// seconds per unit. `batch` does its own set-up untimed and returns
    /// `(units of work done, time spent doing them)`.
    fn time(
        &mut self,
        name: &str,
        workload: &'static str,
        mut batch: impl FnMut() -> (u64, Duration),
    ) -> f64 {
        let metric = self.spans.open(None, name, workload);
        let started = Instant::now();
        let mut best = f64::INFINITY;
        let mut total_units = 0u64;
        for _ in 0..if self.quick { 1 } else { LOOPS } {
            let span = self.spans.open(Some(metric), "loop", workload);
            let (mut units, mut busy) = (0u64, Duration::ZERO);
            while busy < LOOP_BUSY {
                let (u, t) = batch();
                units += u;
                busy += t;
                if self.quick {
                    break;
                }
            }
            self.spans.close(span, units);
            total_units += units;
            best = best.min(busy.as_secs_f64() / units.max(1) as f64);
            if started.elapsed() > METRIC_CAP {
                break;
            }
        }
        self.spans.close(metric, total_units);
        best
    }
}

/// Time one closure call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed())
}

/// SplitMix64: the probe's inputs must repeat exactly for a seed on
/// every host.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, n)`; the bias is below 2^-32 for the
    /// ranges used here.
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `events` JSONL event lines sampled from `templates`, frequency-weighted,
/// in the shape `isel record` writes.
fn sampled(templates: &[&Query], events: usize, seed: u64) -> Vec<u8> {
    use std::io::Write as _;
    // cumulative[i] = total frequency of templates[..=i].
    let cumulative: Vec<u64> = templates
        .iter()
        .scan(0u64, |sum, q| {
            *sum += q.frequency();
            Some(*sum)
        })
        .collect();
    let total = *cumulative.last().expect("there are templates to sample");
    let mut rng = SplitMix64(seed);
    let mut out = Vec::new();
    for _ in 0..events {
        let pick = rng.below(total);
        let q = templates[cumulative.partition_point(|&c| c <= pick)];
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        let kind = if q.is_update() {
            ",\"kind\":\"Update\""
        } else {
            ""
        };
        writeln!(
            out,
            "{{\"table\":{},\"attrs\":[{}]{kind}}}",
            q.table().0,
            attrs.join(",")
        )
        .expect("writing to memory cannot fail");
    }
    out
}

/// LEB128, as the frame format writes lengths.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// One supervisor message as the frame the worker reads. The encoder
/// for this item is private to `isel-service`, so the bytes are built
/// here and checked against the public decoder.
fn sup_frame(msg: &SupMsg) -> Vec<u8> {
    const TAG_SUP: u8 = 6;
    let json = serde_json::to_string(msg).expect("SupMsg serializes");
    let mut payload = vec![TAG_SUP];
    put_varint(&mut payload, json.len() as u64);
    payload.extend_from_slice(json.as_bytes());
    assert_eq!(
        get_item(&payload, &mut 0),
        Some(WireItem::Sup(json.into_bytes())),
        "hand-built Sup item decodes as written"
    );
    let mut frame = Vec::new();
    put_frame(&mut frame, &payload);
    frame
}

// ------------------------------------------------ ingest: the tpcc_* paths

fn ingest_layers(p: &mut Probe, seed: u64) {
    let (w, _) = tpcc::generate(50);
    let schema = w.schema().clone();
    let events = if p.quick { 20_000 } else { 100_000 };
    let jsonl = sampled(&w.queries().iter().collect::<Vec<_>>(), events, seed);
    let text = std::str::from_utf8(&jsonl).expect("sampled lines are ASCII");
    let lines: Vec<&str> = text.lines().collect();
    let bin = convert(&jsonl, WireFormat::Binary);
    let n = events as u64;
    p.report(
        "service.journal_bytes_per_event_jsonl",
        jsonl.len() as f64 / n as f64,
    );
    p.report(
        "service.journal_bytes_per_event_bin",
        bin.len() as f64 / n as f64,
    );

    // tpcc_binary: read/decode -> resolve -> queue hop -> window push.
    let s = p.time("service.decode_ns", "tpcc_binary", || {
        let (got, t) = timed(|| {
            RecordIter::new(Cursor::new(&bin[..]))
                .map(|r| match r {
                    Record::Item(WireItem::Event { frequency, .. }) => frequency,
                    _ => 0,
                })
                .sum::<u64>()
        });
        assert_eq!(got, n, "every sampled event decodes");
        (n, t)
    });
    p.report("service.decode_ns", s * 1e9);

    let items: Vec<WireItem> = RecordIter::new(Cursor::new(&bin[..]))
        .filter_map(|r| {
            if let Record::Item(i) = r {
                Some(i)
            } else {
                None
            }
        })
        .collect();
    let mut dict = DecodeDict::new();
    let mut refs: Vec<(u64, u64)> = Vec::with_capacity(events);
    for item in &items {
        match item {
            WireItem::Define { table, kind, attrs } => {
                dict.define(&schema, *table, *kind, attrs.clone());
            }
            WireItem::Event {
                template,
                frequency,
            } => refs.push((*template, *frequency)),
            _ => {}
        }
    }
    let s = p.time("service.resolve_ns", "tpcc_binary", || {
        let (valid, t) = timed(|| {
            refs.iter()
                .filter(|&&(t, f)| dict.resolve(t, f).is_some())
                .count()
        });
        assert_eq!(valid as u64, n, "every event resolves to a valid query");
        (n, t)
    });
    p.report("service.resolve_ns", s * 1e9);

    let s = p.time("service.queue_hop_ns", "tpcc_binary", || {
        let queue: BoundedQueue<u64> = BoundedQueue::new(4096);
        let (sum, t) = timed(|| {
            std::thread::scope(|sc| {
                sc.spawn(|| {
                    for i in 0..n {
                        queue.push_blocking(i);
                    }
                    queue.close();
                });
                let mut sum = 0u64;
                while let Some(v) = queue.pop() {
                    sum += v;
                }
                sum
            })
        });
        assert_eq!(sum, n * (n - 1) / 2, "every item crossed the queue once");
        (n, t)
    });
    p.report("service.queue_hop_ns", s * 1e9);

    let queries: Vec<Query> = refs
        .iter()
        .map(|&(t, f)| dict.resolve(t, f).expect("checked above").into_owned())
        .collect();
    let cfg = ServiceConfig::default();
    let s = p.time("service.window_push_ns", "tpcc_binary", || {
        let mut window =
            EpochWindow::new(schema.clone(), 65_536, cfg.window_epochs, cfg.max_templates);
        let (sealed, t) = timed(|| queries.iter().filter(|q| window.push(q)).count());
        assert_eq!(sealed as u64, n / 65_536);
        (n, t)
    });
    p.report("service.window_push_ns", s * 1e9);

    // tpcc_jsonl: classify -> parse, then the same queue and window.
    let s = p.time("service.classify_ns", "tpcc_jsonl", || {
        let (tables, t) = timed(|| {
            lines
                .iter()
                .filter(|l| matches!(classify_line(l), isel_service::LineClass::Table(_)))
                .count()
        });
        assert_eq!(tables as u64, n);
        (n, t)
    });
    p.report("service.classify_ns", s * 1e9);
    let s = p.time("service.parse_ns", "tpcc_jsonl", || {
        let (ok, t) = timed(|| {
            lines
                .iter()
                .filter(|l| {
                    matches!(
                        isel_service::parse_line(l, &schema),
                        Ok(isel_service::InputLine::Query(_))
                    )
                })
                .count()
        });
        assert_eq!(ok as u64, n);
        (n, t)
    });
    p.report("service.parse_ns", s * 1e9);
    let s = p.time("service.convert_ns", "tpcc_jsonl", || {
        let (out, t) = timed(|| convert(&jsonl, WireFormat::Binary));
        assert_eq!(out.len(), bin.len());
        (n, t)
    });
    p.report("service.convert_ns", s * 1e9);

    // tpcc_supervised: encode -> render -> the worker's whole loop.
    let shapes: Vec<(u16, Vec<u32>, isel_workload::QueryKind)> = queries
        .iter()
        .map(|q| {
            (
                q.table().0,
                q.attrs().iter().map(|a| a.0).collect(),
                q.kind(),
            )
        })
        .collect();
    let s = p.time("service.encode_ns", "tpcc_supervised", || {
        let mut enc = FrameEncoder::new();
        let mut out = Vec::with_capacity(bin.len());
        let ((), t) = timed(|| {
            for (table, attrs, kind) in &shapes {
                enc.push_query(*table, attrs, 1, *kind);
                enc.auto_flush_into(&mut out);
            }
            enc.flush_into(&mut out);
        });
        assert_eq!(
            out.len(),
            bin.len(),
            "the encoder writes what convert wrote"
        );
        (n, t)
    });
    p.report("service.encode_ns", s * 1e9);
    let s = p.time("service.render_ns", "tpcc_supervised", || {
        let (bytes, t) = timed(|| {
            shapes
                .iter()
                .map(|(table, attrs, kind)| render_query(None, *table, attrs, 1, *kind).len())
                .sum::<usize>()
        });
        assert_eq!(
            bytes + lines.len(),
            jsonl.len(),
            "rendering reproduces the sampled lines"
        );
        (n, t)
    });
    p.report("service.render_ns", s * 1e9);

    // The stream a supervisor writes to one worker hosting one shard:
    // Hello, Shard, one Raw frame per event, Shutdown.
    let worker_cfg = ServiceConfig {
        epoch_events: 65_536,
        shards: 1,
        workers: 1,
        ..ServiceConfig::default()
    };
    let mut stream = sup_frame(&SupMsg::Hello {
        schema: Box::new(schema.clone()),
        config: Box::new(worker_cfg),
        shards: vec![0],
        manifest: None,
    });
    stream.extend(sup_frame(&SupMsg::Shard { shard: 0 }));
    let mut enc = FrameEncoder::new();
    for line in &lines {
        enc.push_raw(line.as_bytes());
        enc.flush_into(&mut stream);
    }
    stream.extend(sup_frame(&SupMsg::Shutdown));
    let s = p.time("service.worker_ns", "tpcc_supervised", || {
        let mut replies = Vec::new();
        let (result, t) = timed(|| run_worker_io(Cursor::new(&stream[..]), &mut replies));
        result.expect("the worker accepts the stream");
        let text = String::from_utf8_lossy(&replies);
        let ingested: u64 = text
            .lines()
            .filter(|l| l.contains("\"Final\""))
            .filter_map(|l| {
                l.split("\"ingested\":")
                    .nth(1)?
                    .split(&[',', '}'])
                    .next()?
                    .parse::<u64>()
                    .ok()
            })
            .sum();
        assert_eq!(ingested, n, "the worker ingested every event");
        (n, t)
    });
    p.report("service.worker_ns", s * 1e9);
}

// ------------------------------------------------- tuning: multi_tune path

/// A deterministic tenant frontier of `points` points on a shared
/// memory grid spanning the budget; `seed` perturbs the costs so that a
/// republish is never a clean-skip no-op.
fn synth_frontier(budget: u64, points: u64, key: u64, seed: u64) -> Frontier {
    let grid = (budget / points).max(1);
    Frontier::new(
        (0..points)
            .map(|i| FrontierPoint {
                memory: (i + 1) * grid,
                cost: 2_000.0 * (1.0 - (i + 1) as f64 / (points + 1) as f64)
                    + (seed.wrapping_mul(2_654_435_761).wrapping_add(i * 31) % 997) as f64 / 4096.0
                    + (key % 7) as f64,
            })
            .collect(),
    )
}

fn tuning_layers(p: &mut Probe, seed: u64, out: &Path) {
    let w = synthetic::generate(&SyntheticConfig {
        tables: 60,
        attrs_per_table: 9,
        queries_per_table: 5,
        rows_base: 5_000_000,
        seed: 42,
        ..SyntheticConfig::default()
    });
    let schema = w.schema().clone();
    let cfg = ServiceConfig {
        shards: 1,
        checkpoint_every_epochs: 4,
        ..ServiceConfig::default()
    };
    let tables = schema.tables().len() as u16;

    // Per table group: a window holding one sealed epoch of that group's
    // events, its snapshot, and a tuner that has adapted to it.
    let group_events = |table: u16, slot: u64| -> Vec<Query> {
        let own: Vec<&Query> = w
            .queries()
            .iter()
            .filter(|q| q.table().0 == table)
            .collect();
        // Slot 1 draws from the second half of the group's templates: drift.
        let part = if slot == 0 {
            &own[..]
        } else {
            &own[own.len() / 2..]
        };
        let text = sampled(
            part,
            cfg.epoch_events as usize,
            seed ^ (u64::from(table) << 8) ^ slot,
        );
        std::str::from_utf8(&text)
            .expect("ASCII")
            .lines()
            .map(|l| match isel_service::parse_line(l, &schema) {
                Ok(isel_service::InputLine::Query(q)) => q,
                other => panic!("sampled line did not parse as a query: {other:?}"),
            })
            .collect()
    };
    let window_of = |events: &[Query]| -> EpochWindow {
        let mut window = EpochWindow::new(
            schema.clone(),
            cfg.epoch_events,
            cfg.window_epochs,
            cfg.max_templates,
        );
        for q in events {
            window.push(q);
        }
        window
    };
    let steady = group_events(0, 0);
    let drifted = group_events(0, 1);
    let window = window_of(&steady);
    let snap_a = window.snapshot().expect("one epoch sealed");
    let snap_b = window_of(&drifted).snapshot().expect("one epoch sealed");

    let s = p.time("service.window_snapshot_us", "multi_tune", || {
        let (snap, t) = timed(|| window.snapshot());
        (u64::from(snap.is_some()), t)
    });
    p.report("service.window_snapshot_us", s * 1e6);

    // How far the sampled hot set moved depends on the seed; the
    // thresholds are opened so that the drift check always lets
    // Algorithm 1 re-select, which is the cost being measured.
    let adapting = ServiceConfig {
        drift: isel_service::DriftThresholds::always_adapt(),
        ..cfg.clone()
    };
    let s = p.time("service.tune_adapt_ms", "multi_tune", || {
        let mut tuner = Tuner::for_table(&schema, adapting.clone(), TableId(0));
        tuner.tune(&snap_a, Parallelism::serial(), Trace::disabled());
        let (outcome, t) = timed(|| tuner.tune(&snap_b, Parallelism::serial(), Trace::disabled()));
        assert_eq!(outcome.policy.label(), "adapt");
        (1, t)
    });
    p.report("service.tune_adapt_ms", s * 1e3);

    let mut settled = Tuner::for_table(&schema, cfg.clone(), TableId(0));
    settled.tune(&snap_a, Parallelism::serial(), Trace::disabled());
    let s = p.time("service.tune_noop_us", "multi_tune", || {
        let (outcome, t) =
            timed(|| settled.tune(&snap_a, Parallelism::serial(), Trace::disabled()));
        assert_eq!(
            outcome.policy.label(),
            "noop",
            "an unchanged snapshot keeps the selection"
        );
        (1, t)
    });
    p.report("service.tune_noop_us", s * 1e6);

    let est_a = CachingWhatIf::new(AnalyticalWhatIf::new(&snap_a));
    let est_b = CachingWhatIf::new(AnalyticalWhatIf::new(&snap_b));
    let table_budget = budget::table_relative_budget(&est_a, cfg.budget_share, TableId(0));
    let s = p.time("core.adapt_ms", "multi_tune", || {
        let epochs: [&dyn WhatIfOptimizer; 2] = [&est_a, &est_b];
        let (trace, t) = timed(|| dynamic::adapt(&epochs, table_budget, cfg.transition));
        assert_eq!(trace.epochs.len(), 2);
        (1, t)
    });
    p.report("core.adapt_ms", s * 1e3);

    // All 60 groups tuned once and published, as the service's arbiter
    // holds them; group 0 then alternates between two publications.
    let arbiter = Arbiter::new(
        isel_service::global_budget(&schema, cfg.budget_share),
        BTreeMap::new(),
    );
    let mut groups: Vec<(Tuner, EpochWindow)> = Vec::with_capacity(tables as usize);
    for table in 0..tables {
        let window = window_of(&group_events(table, 0));
        let mut tuner = Tuner::for_table(&schema, cfg.clone(), TableId(table));
        tuner.tune(
            &window.snapshot().expect("sealed"),
            Parallelism::serial(),
            Trace::disabled(),
        );
        let pf = tuner
            .published()
            .expect("an adapting tuner publishes")
            .clone();
        arbiter.publish(table, pf, Trace::disabled());
        groups.push((tuner, window));
    }
    // The same frontier over another base cost: never the clean
    // republish the arbiter skips, whatever the seed sampled.
    let first = groups[0].0.published().expect("published").clone();
    let second = Arc::new(PublishedFrontier {
        initial_cost: first.initial_cost * 1.01,
        ..(*first).clone()
    });
    let publications = [first, second];
    let mut flip = 0usize;
    let s = p.time("service.publish_us", "multi_tune", || {
        flip += 1;
        let pf = Arc::clone(&publications[flip % 2]);
        let (changed, t) = timed(|| arbiter.publish(0, pf, Trace::disabled()));
        assert!(changed, "a changed publication re-merges");
        (1, t)
    });
    p.report("service.publish_us", s * 1e6);

    let budgets = [50_000_000u64, 200_000_000, 1_000_000_000, 5_000_000_000];
    let mut asked = 0usize;
    let s = p.time("service.whatif_us", "tpcc_paced", || {
        asked += 1;
        let (reply, t) = timed(|| arbiter.whatif(budgets[asked % budgets.len()]));
        assert!(reply.starts_with("{\"budget\":"));
        (1, t)
    });
    p.report("service.whatif_us", s * 1e6);

    let s = p.time("service.ckpt_capture_us", "multi_tune", || {
        let (tuner, window) = &mut groups[0];
        let (doc, t) = timed(|| GroupCheckpoint::capture(tuner, window));
        assert_eq!(doc.table, 0);
        (1, t)
    });
    p.report("service.ckpt_capture_us", s * 1e6);

    // One generation as `--shards 1` commits it: the shard document with
    // every group, then the manifest naming it.
    let dir = out.join("probe-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the checkpoint directory");
    let manifest_path = dir.join("m.json");
    let docs: Vec<GroupCheckpoint> = groups
        .iter_mut()
        .map(|(t, w)| GroupCheckpoint::capture(t, w))
        .collect();
    let mut generation = 0u64;
    let mut bytes = 0u64;
    let s = p.time("service.ckpt_commit_ms", "multi_tune", || {
        generation += 1;
        let shard = ShardCheckpoint {
            version: CHECKPOINT_VERSION,
            config: cfg.clone(),
            shard: 0,
            generation,
            ingested: generation * 1024,
            invalid: 0,
            dropped: 0,
            groups: docs.clone(),
        };
        let file = shard_file(&manifest_path, 0, generation);
        let name = file
            .file_name()
            .expect("shard file has a name")
            .to_string_lossy()
            .into_owned();
        let manifest = Manifest {
            version: CHECKPOINT_VERSION,
            generation,
            shards: 1,
            routed_lines: generation * 1024,
            files: vec![name],
        };
        let (result, t) = timed(|| {
            shard
                .save(&file)
                .and_then(|()| manifest.save(&manifest_path))
        });
        result.expect("the commit succeeds");
        bytes = std::fs::metadata(&file).map_or(0, |m| m.len())
            + std::fs::metadata(&manifest_path).map_or(0, |m| m.len());
        // The service garbage-collects superseded generations too.
        let _ = std::fs::remove_file(&file);
        (1, t)
    });
    p.report("service.ckpt_commit_ms", s * 1e3);
    p.report("service.ckpt_bytes", bytes as f64);
    let _ = std::fs::remove_dir_all(&dir);

    // The merge underneath the arbiter, at the service's 60 groups and at
    // 1 000: full rebuild against the incremental path with 1 % dirty.
    for (groups, name) in [
        (60usize, "core.merge_full_60_ms"),
        (1_000, "core.merge_full_1k_ms"),
    ] {
        if p.quick && groups > 60 {
            p.report(name, 0.0);
            p.report("core.merge_incr_ms", 0.0);
            continue;
        }
        let budget = groups as u64 * 32_768;
        let mut parts: Vec<(f64, f64, Frontier)> = (0..groups as u64)
            .map(|i| {
                (
                    1.0 + (i % 4) as f64 * 0.5,
                    2_000.0,
                    synth_frontier(budget, 64, i, i),
                )
            })
            .collect();
        let s = p.time(name, "multi_tune", || {
            let borrowed: Vec<(f64, f64, &Frontier)> =
                parts.iter().map(|(w, b, f)| (*w, *b, f)).collect();
            let (merge, t) = timed(|| merge_frontiers_weighted(&borrowed, budget));
            assert_eq!(merge.allocations.len(), groups);
            (1, t)
        });
        p.report(name, s * 1e3);
        if groups == 1_000 {
            let mut set = FrontierSet::new(budget);
            for (i, (w, b, f)) in parts.iter().enumerate() {
                set.upsert(i as u64, *w, *b, f.clone());
            }
            set.merge();
            let mut round = 0u64;
            let s = p.time("core.merge_incr_ms", "multi_tune", || {
                round += 1;
                for k in 0..groups / 100 {
                    let key = (k * 100) as u64;
                    let f = synth_frontier(budget, 64, key, key + 1_000_000 * round);
                    let (w, b, _) = parts[key as usize];
                    assert!(
                        set.upsert(key, w, b, f.clone()),
                        "a republish dirties its part"
                    );
                    parts[key as usize] = (w, b, f);
                }
                let (outcome, t) = timed(|| set.merge());
                assert_eq!(outcome.dirty as usize, groups / 100);
                (1, t)
            });
            p.report("core.merge_incr_ms", s * 1e3);
        }
    }
}

// ------------------------------------------------ advisor: erp_advisor path

/// Every (query, index on one of its own attributes) pair, in `est`'s
/// id space: what Algorithm 1's first scan asks about.
fn single_attr_pairs(est: &impl WhatIfOptimizer) -> Vec<(QueryId, IndexId)> {
    est.workload()
        .iter()
        .flat_map(|(j, q)| q.attrs().iter().map(move |&a| (j, a)))
        .map(|(j, a)| (j, est.pool().intern_single(a)))
        .collect()
}

fn advisor_layers(p: &mut Probe, out: &Path) {
    let erp_cfg = ErpConfig {
        seed: 42,
        ..ErpConfig::default()
    };
    // The load is timed in a fresh process, as every CLI repetition pays
    // it: in this one, with other workloads alive on the heap, the same
    // call takes a third longer.
    let path = out.join("probe-erp.json");
    let w = erp::generate(&erp_cfg);
    io::save(&w, &path).expect("save the ERP workload");
    let s = p.time("workload.load_json_ms", "erp_advisor", || {
        let child = std::process::Command::new(std::env::current_exe().expect("own path"))
            .arg("--load-only")
            .arg(&path)
            .output()
            .expect("re-run the probe for the load");
        let nanos: u64 = String::from_utf8_lossy(&child.stdout)
            .trim()
            .parse()
            .expect("the load's nanoseconds");
        (1, Duration::from_nanos(nanos))
    });
    p.report("workload.load_json_ms", s * 1e3);
    let _ = std::fs::remove_file(&path);

    let s = p.time("workload.erp_generate_ms", "erp_advisor", || {
        let (again, t) = timed(|| erp::generate(&erp_cfg));
        assert_eq!(
            again.query_count(),
            w.query_count(),
            "the saved workload round-trips"
        );
        (1, t)
    });
    p.report("workload.erp_generate_ms", s * 1e3);

    let s = p.time("workload.pool_intern_ns", "erp_advisor", || {
        let pool = IndexPool::new(w.schema());
        let (ids, t) = timed(|| {
            w.queries()
                .iter()
                .map(|q| pool.intern_attrs(q.attrs()).0)
                .max()
        });
        assert!(ids.is_some());
        (w.query_count() as u64, t)
    });
    p.report("workload.pool_intern_ns", s * 1e9);

    let plain = AnalyticalWhatIf::new(&w);
    let pairs = single_attr_pairs(&plain);
    let s = p.time("costmodel.whatif_ns", "erp_advisor", || {
        let (hits, t) = timed(|| {
            pairs
                .iter()
                .filter(|&&(j, k)| plain.index_cost(j, k).is_some())
                .count()
        });
        assert_eq!(
            hits,
            pairs.len(),
            "an index on a query's own attribute applies"
        );
        (pairs.len() as u64, t)
    });
    p.report("costmodel.whatif_ns", s * 1e9);
    let cached = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
    let cached_pairs = single_attr_pairs(&cached);
    for &(j, k) in &cached_pairs {
        cached.index_cost(j, k);
    }
    let s = p.time("costmodel.cache_hit_ns", "erp_advisor", || {
        let before = cached.stats().calls_issued;
        let (hits, t) = timed(|| {
            cached_pairs
                .iter()
                .filter(|&&(j, k)| cached.index_cost(j, k).is_some())
                .count()
        });
        assert_eq!(hits, cached_pairs.len());
        assert_eq!(
            cached.stats().calls_issued,
            before,
            "a warm cache issues no what-if call"
        );
        (cached_pairs.len() as u64, t)
    });
    p.report("costmodel.cache_hit_ns", s * 1e9);

    // The recommendation itself, traced: Algorithm 1 at w = 0.2.
    let mut last: Vec<TraceEvent> = Vec::new();
    let s = p.time("core.h6_ms", "erp_advisor", || {
        let est = CachingWhatIf::new(AnalyticalWhatIf::new(&w));
        let a = budget::relative_budget(&est, 0.2);
        let sink = VecSink::new();
        let (run, t) =
            timed(|| algorithm1::run_traced(&est, &algorithm1::Options::new(a), Trace::to(&sink)));
        assert!(run.final_cost < run.initial_cost);
        last = sink.take();
        (1, t)
    });
    p.report("core.h6_ms", s * 1e3);
    let scans: Vec<f64> = last
        .iter()
        .filter_map(|e| {
            if let TraceEvent::CandidateScan { micros, .. } = e {
                Some(*micros as f64)
            } else {
                None
            }
        })
        .collect();
    p.report("core.h6_scan_p50_us", percentile(&scans, 50.0));
    p.report("core.h6_scan_p95_us", percentile(&scans, 95.0));
    let width = last
        .iter()
        .find_map(|e| {
            if let TraceEvent::RunStart { total_width, .. } = e {
                Some(*total_width)
            } else {
                None
            }
        })
        .expect("the run starts");
    let (steps, issued, answered, initial, fin) = last
        .iter()
        .find_map(|e| match e {
            TraceEvent::RunEnd {
                steps,
                issued,
                cached,
                initial_cost,
                final_cost,
                ..
            } => Some((*steps, *issued, *cached, *initial_cost, *final_cost)),
            _ => None,
        })
        .expect("the run ends");
    p.report("core.h6_steps", steps as f64);
    p.report("core.h6_whatif_issued", issued as f64);
    p.report("core.h6_whatif_cached", answered as f64);
    p.report("core.h6_calls_per_qq", issued as f64 / width as f64);
    p.report("core.h6_rel_cost", fin / initial);
    p.report(
        "costmodel.cache_hit_ratio",
        answered as f64 / (issued + answered) as f64,
    );

    // CoPhy over an H1-M candidate set on Example 1's base workload, so
    // that Table I's H6-vs-CoPhy ratio stays in view. On no served path.
    let base = synthetic::generate(&SyntheticConfig::default());
    let est = CachingWhatIf::new(AnalyticalWhatIf::new(&base));
    let imax = candidates::enumerate_imax(&base, 4);
    let size = if p.quick { 20 } else { 2_000 };
    let ids: Vec<IndexId> =
        candidates::select_candidates(&imax, size, 4, candidates::CandidateRanking::Frequency)
            .iter()
            .map(|k| est.pool().intern(k))
            .collect();
    let a = budget::relative_budget(&est, 0.2);
    let s = p.time("solver.cophy_build_ms", "erp_advisor", || {
        let fresh = CachingWhatIf::new(AnalyticalWhatIf::new(&base));
        let fresh_ids: Vec<IndexId> = ids
            .iter()
            .map(|&k| fresh.pool().intern(&est.pool().resolve(k)))
            .collect();
        let (inst, t) = timed(|| cophy::build_instance(&fresh, &fresh_ids, a));
        assert_eq!(inst.candidate_memory.len(), ids.len());
        (1, t)
    });
    p.report("solver.cophy_build_ms", s * 1e3);
    let inst = cophy::build_instance(&est, &ids, a);
    // At this size the 5 % gap is out of reach within seconds (Table I's
    // "DNF" regime), so the node limit ends the solve: the node count
    // repeats and the time is what that many nodes cost.
    let opts = CophyOptions {
        mip_gap: 0.05,
        time_limit: Duration::from_secs(2),
        max_nodes: 300,
    };
    let mut nodes = 0usize;
    let s = p.time("solver.cophy_solve_ms", "erp_advisor", || {
        let (sol, t) = timed(|| isel_solver::cophy::solve(&inst, &opts));
        nodes = sol.nodes;
        (1, t)
    });
    p.report("solver.cophy_solve_ms", s * 1e3);
    p.report("solver.cophy_nodes", nodes as f64);

    let mut rng = SplitMix64(7);
    let items: Vec<knapsack::Item> = (0..if p.quick { 200 } else { 2_000 })
        .map(|_| knapsack::Item {
            value: 1.0 + rng.unit() * 99.0,
            weight: 1 + rng.below(1_000),
        })
        .collect();
    let capacity = items.iter().map(|i| i.weight).sum::<u64>() / 3;
    let s = p.time("solver.knapsack_ms", "erp_advisor", || {
        let (sol, t) = timed(|| knapsack::solve_01(&items, capacity));
        assert!(sol.value > 0.0);
        (1, t)
    });
    p.report("solver.knapsack_ms", s * 1e3);
}

fn main() -> ExitCode {
    let (mut seed, mut quick, mut out) = (42u64, false, PathBuf::new());
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            // Internal: time one `io::load` in this fresh process.
            "--load-only" => {
                let Some(path) = args.next() else {
                    eprintln!("probe: --load-only needs a file");
                    return ExitCode::from(2);
                };
                pin_to_highest_cpu();
                let (loaded, t) = timed(|| io::load(&path));
                return match loaded {
                    Ok(_) => {
                        println!("{}", t.as_nanos());
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("probe: load {path}: {e}");
                        ExitCode::FAILURE
                    }
                };
            }
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("probe: --seed needs a whole number");
                    return ExitCode::from(2);
                }
            },
            "--quick" => quick = true,
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => {
                    eprintln!("probe: --out needs a directory");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("probe: unknown argument {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    if out.as_os_str().is_empty() {
        eprintln!("probe: missing --out DIR");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("probe: create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    match pin_to_highest_cpu() {
        Some(cpu) => println!("pinned=true cpu={cpu}"),
        None => println!("pinned=false"),
    }

    let mut p = Probe {
        quick,
        spans: SpanLog::new(),
        metrics: Vec::new(),
    };
    advisor_layers(&mut p, &out);
    ingest_layers(&mut p, seed);
    tuning_layers(&mut p, seed, &out);

    let unit_of: BTreeMap<&str, &str> = PER_LAYER.iter().copied().collect();
    for (name, value) in &p.metrics {
        let unit = unit_of
            .get(name.as_str())
            .expect("every probe metric is declared in PER_LAYER");
        println!("metric {name} {value} {unit}");
    }
    for &(workload, _) in WORKLOADS.iter().chain(UNGATED) {
        let path = out.join(format!("{workload}.trace.jsonl"));
        let written = std::fs::File::create(&path)
            .and_then(|f| p.spans.write_jsonl(workload, std::io::BufWriter::new(f)));
        if let Err(e) = written {
            eprintln!("probe: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
