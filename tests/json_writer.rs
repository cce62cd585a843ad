//! The serde shim's streamed JSON renders what the pre-stream writer did.
//!
//! `serde_json::to_string` streams through the derived `write_json`;
//! the shim has no other serializer (a value tree is that text parsed
//! back). For each type the service writes — shard checkpoints captured
//! from really tuned groups with calibration on and off, every trace
//! event, epoch outcomes, manifests, configs, the supervisor pipe
//! messages — and for random value trees, the streamed bytes must equal
//! the pre-stream tree writer's rendering of their parse, and parsing
//! them back into the type must render the same bytes again.
//!
//! The read side streams too (`Deserialize::read_json`): each type is
//! also read back from re-laid-out copies of its text — whitespace,
//! shuffled keys, an unknown key holding nested containers, a repeated
//! key — and random trees read back as themselves.
//!
//! This file is shim-specific (`Value::U64`, `serde_json::parse_value`,
//! `Serialize::to_value`); it goes with the shim if the real crates come
//! back (`vendor/README.md`).

use isel_core::trace::StepKind;
use isel_core::{TraceEvent, TraceSink, VecSink};
use isel_service::{
    CalSnapshot, CalibrationConfig, DriftThresholds, EpochOutcome, Manifest, OverloadPolicy,
    Router, ServiceConfig, ShardCheckpoint, ShardCounters, SupMsg, WorkerMsg,
};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::Workload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The compact tree writer as it was before streaming landed — a
/// char-by-char escaper and `to_string` numbers — kept as the oracle.
fn oracle(v: &Value) -> String {
    fn escaped(s: &str, out: &mut String) {
        out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    fn write(v: &Value, out: &mut String) {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::F64(f) if f.is_finite() => {
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Value::F64(_) => out.push_str("null"),
            Value::Str(s) => escaped(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write(item, out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (k, val)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escaped(k, out);
                    out.push(':');
                    write(val, out);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    write(v, &mut out);
    out
}

/// The contract for one value: the oracle writer renders the parse of
/// the streamed bytes as those bytes, and parsing them back into `T`
/// renders them again — from the canonical text and from re-laid-out
/// copies of it ([`relaid`]). Returns the text.
fn same_bytes<T: Serialize + Deserialize>(x: &T) -> String {
    let streamed = serde_json::to_string(x).unwrap();
    let tree = serde_json::parse_value(&streamed).unwrap();
    assert_eq!(streamed, oracle(&tree), "write_json vs the oracle writer");
    let back: T = serde_json::from_str(&streamed).unwrap();
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        streamed,
        "parse-render moved a byte"
    );
    for seed in 0..3 {
        let moved = relaid(&streamed, seed);
        let back: T = serde_json::from_str(&moved).unwrap_or_else(|e| panic!("{e}: {moved}"));
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            streamed,
            "a re-laid-out text read back differently: {moved}"
        );
    }
    streamed
}

/// `text` laid out again: whitespace between tokens, every object's keys
/// shuffled, and, in the struct the text is (or in the body of the
/// struct variant it is), an unknown key holding nested containers plus
/// a second, junk-valued copy of one key after the first. A reader must
/// take the same value from it: maps sort, the first copy of a key wins
/// and unknown keys are skipped.
fn relaid(text: &str, seed: u64) -> String {
    /// The fields of the struct `v` is, or of the struct variant it is.
    fn struct_fields(v: &mut Value) -> Option<&mut Vec<(String, Value)>> {
        let Value::Object(e) = v else { return None };
        let variant = e.len() == 1 && e[0].0.starts_with(|c: char| c.is_ascii_uppercase());
        if variant {
            struct_fields(&mut e[0].1)
        } else {
            let fields = e
                .iter()
                .all(|(k, _)| k.starts_with(|c: char| c.is_ascii_lowercase()));
            fields.then_some(e)
        }
    }
    fn shuffle(v: &mut Value, rng: &mut StdRng) {
        match v {
            Value::Object(entries) => {
                for i in (1..entries.len()).rev() {
                    entries.swap(i, rng.gen_range(0..=i as u64) as usize);
                }
                entries.iter_mut().for_each(|(_, v)| shuffle(v, rng));
            }
            Value::Array(items) => items.iter_mut().for_each(|v| shuffle(v, rng)),
            _ => {}
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tree = serde_json::parse_value(text).unwrap();
    shuffle(&mut tree, &mut rng);
    if let Some(fields) = struct_fields(&mut tree) {
        if !fields.is_empty() {
            let i = rng.gen_range(0..fields.len() as u64) as usize;
            let at = rng.gen_range(i as u64 + 1..=fields.len() as u64) as usize;
            let copy = (fields[i].0.clone(), random_value(&mut rng, 2));
            fields.insert(at, copy);
        }
        let nested = Value::Array(vec![
            Value::Object(vec![("k".into(), random_value(&mut rng, 2))]),
            random_value(&mut rng, 2),
        ]);
        let at = rng.gen_range(0..=fields.len() as u64) as usize;
        fields.insert(
            at,
            (
                "unknown_key".into(),
                Value::Object(vec![("x".into(), nested)]),
            ),
        );
    }
    spaced(&tree, &mut rng)
}

/// The compact rendering of `v` with random whitespace between tokens.
fn spaced(v: &Value, rng: &mut StdRng) -> String {
    fn ws(rng: &mut StdRng) -> &'static str {
        [" ", "\n  ", "\t", "\r\n", ""][rng.gen_range(0..5) as usize]
    }
    let mut out = String::from(ws(rng));
    match v {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out += if i > 0 { "," } else { "" };
                out += &spaced(item, rng);
            }
            out += ws(rng);
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                out += if i > 0 { "," } else { "" };
                out += ws(rng);
                out += &Value::Str(k.clone()).to_string();
                out += ws(rng);
                out.push(':');
                out += &spaced(item, rng);
            }
            out += ws(rng);
            out.push('}');
        }
        scalar => out += &scalar.to_string(),
    }
    out + ws(rng)
}

/// What one replay through the router leaves behind.
struct Run {
    docs: Vec<ShardCheckpoint>,
    manifest: Manifest,
    epochs: Vec<EpochOutcome>,
    events: Vec<TraceEvent>,
}

fn replay(w: &Workload, config: ServiceConfig, log: &str) -> Run {
    // Tests replay concurrently: one directory per call.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("isel_json_writer_{}_{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("m.json");
    let sinks: Vec<VecSink> = (0..config.shards.max(1)).map(|_| VecSink::new()).collect();
    let refs: Vec<&dyn TraceSink> = sinks.iter().map(|s| s as &dyn TraceSink).collect();
    let report = Router::new(w.schema().clone(), config)
        .unwrap()
        .run_reader(
            Cursor::new(log.to_owned()),
            OverloadPolicy::Block,
            Some(&path),
            &refs,
        )
        .unwrap();
    let manifest = Manifest::load(&path).unwrap();
    let docs = manifest.load_shards(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    Run {
        docs,
        manifest,
        epochs: report.epochs,
        events: sinks.iter().flat_map(VecSink::events).collect(),
    }
}

/// Uncalibrated: two drifting tables as per-table groups on two shards.
fn tuned() -> (Workload, Run) {
    let w = synthetic::generate(&SyntheticConfig {
        tables: 2,
        attrs_per_table: 8,
        queries_per_table: 6,
        rows_base: 50_000,
        max_query_width: 3,
        update_fraction: 0.1,
        seed: 5,
    });
    let mut rng = StdRng::seed_from_u64(11);
    let mut log = String::new();
    for i in 0..160 {
        // The first half of the stream draws even templates, the second
        // odd ones: every table drifts.
        let half = w.queries().len() / 2;
        let q = &w.queries()[2 * rng.gen_range(0..half as u64) as usize + i / 80];
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        let kind = if q.is_update() {
            ",\"kind\":\"Update\""
        } else {
            ""
        };
        log += &format!(
            "{{\"table\":{},\"attrs\":[{}]{kind}}}\n",
            q.table().0,
            attrs.join(",")
        );
    }
    let config = ServiceConfig {
        epoch_events: 16,
        window_epochs: 2,
        max_templates: 64,
        drift: DriftThresholds::always_adapt(),
        shards: 2,
        ..ServiceConfig::default()
    };
    let run = replay(&w, config, &log);
    (w, run)
}

/// Calibrated: the contradiction stream of `crates/cli/tests/calibration.rs`
/// (a candidate opens, probes contradict it, it rolls back), cut at
/// `lines` so the shutdown checkpoint can catch a probation in flight;
/// one probe naming its access path closes the full stream.
fn calibrated(lines: usize) -> Run {
    let w = synthetic::generate(&SyntheticConfig {
        tables: 1,
        attrs_per_table: 8,
        queries_per_table: 8,
        rows_base: 50_000,
        seed: 9,
        ..SyntheticConfig::default()
    });
    let a = r#"{"table":0,"attrs":[0,1],"frequency":10}"#;
    let shift = [r#"{"table":0,"attrs":[2,3],"frequency":20}"#; 7]
        .into_iter()
        .chain([r#"{"table":0,"attrs":[0,1],"frequency":6}"#]);
    let probe = r#"{"table":0,"attrs":[0,1],"observed_cost":500000000}"#;
    let log: Vec<&str> = std::iter::repeat_n(a, 16)
        .chain(shift.clone())
        .chain([probe; 4])
        .chain(shift)
        .chain([r#"{"table":0,"attrs":[0,1],"observed_cost":7,"index":[0,1]}"#])
        .take(lines)
        .collect();
    let config = ServiceConfig {
        epoch_events: 8,
        window_epochs: 1,
        budget_share: 0.14,
        shards: 1,
        calibration: CalibrationConfig {
            enabled: true,
            envelope_ratio: 1.0,
            min_probes: 2,
            ..CalibrationConfig::default()
        },
        ..ServiceConfig::default()
    };
    replay(&w, config, &(log.join("\n") + "\n"))
}

#[test]
fn checkpoints_of_tuned_groups_keep_their_bytes() {
    let (_, run) = tuned();
    let docs = &run.docs;
    assert!(docs
        .iter()
        .flat_map(|d| &d.groups)
        .any(|g| g.published.is_some()));
    for doc in docs {
        let text = same_bytes(doc);
        assert_eq!(text, doc.to_json().unwrap());
        assert!(
            !text.contains("\"feedback\""),
            "calibration off: no feedback key"
        );
    }
    same_bytes(&run.manifest);
    for outcome in &run.epochs {
        same_bytes(outcome);
    }
    for event in &run.events {
        same_bytes(event);
    }
}

#[test]
fn calibrated_checkpoints_keep_their_bytes() {
    let runs = [calibrated(28), calibrated(usize::MAX)];
    let feedback: Vec<_> = runs
        .iter()
        .flat_map(|r| &r.docs)
        .flat_map(|d| &d.groups)
        .filter_map(|g| g.feedback.as_ref())
        .collect();
    assert!(
        feedback.iter().any(|f| f.probation.is_some()),
        "a probation in flight"
    );
    assert!(
        feedback.iter().any(|f| f.last_good.is_some()),
        "a last-good target"
    );
    assert!(feedback
        .iter()
        .flat_map(|f| &f.stats)
        .any(|s| s.index.is_some()));
    assert!(feedback
        .iter()
        .flat_map(|f| &f.stats)
        .any(|s| s.index.is_none()));
    for run in &runs {
        for doc in &run.docs {
            same_bytes(doc);
        }
        for outcome in &run.epochs {
            same_bytes(outcome);
        }
        for event in &run.events {
            same_bytes(event);
        }
    }
    let deploys: Vec<_> = runs[1]
        .epochs
        .iter()
        .filter_map(|o| o.deploy.as_ref())
        .collect();
    assert!(
        deploys.iter().any(|d| d.action == "rollback"),
        "{deploys:?}"
    );
}

#[test]
fn parent_format_documents_with_nulls_still_restore() {
    // Before the derive honoured `skip_serializing_if`, every group
    // carried `"feedback":null`, and before Remark 1.3's runner-up went,
    // every published step ended in `"runner_up":null`; such documents
    // must restore unchanged.
    let (w, run) = tuned();
    let mut steps = 0;
    for doc in &run.docs {
        let mut tree = serde_json::to_value(doc).unwrap();
        let Value::Object(fields) = &mut tree else {
            panic!("a document is an object")
        };
        let (_, Value::Array(groups)) = fields.iter_mut().find(|(k, _)| k == "groups").unwrap()
        else {
            panic!("groups is an array")
        };
        for group in groups {
            let Value::Object(entries) = group else {
                panic!("a group is an object")
            };
            if let Some((_, Value::Object(published))) =
                entries.iter_mut().find(|(k, _)| k == "published")
            {
                let (_, Value::Array(published_steps)) =
                    published.iter_mut().find(|(k, _)| k == "steps").unwrap()
                else {
                    panic!("published steps are an array")
                };
                for step in published_steps {
                    let Value::Object(step) = step else { panic!("a step is an object") };
                    step.push(("runner_up".to_owned(), Value::Null));
                    steps += 1;
                }
            }
            entries.push(("feedback".to_owned(), Value::Null));
        }
        let parent = serde_json::to_string(&tree).unwrap();
        assert_eq!(
            parent.matches(",\"feedback\":null").count(),
            doc.groups.len()
        );
        let back = ShardCheckpoint::from_json(&parent).unwrap();
        assert_eq!(&back, doc);
        assert_eq!(
            back.to_json().unwrap(),
            parent.replace(",\"feedback\":null", "").replace(",\"runner_up\":null", "")
        );
        for group in &back.groups {
            let (tuner, _) = group.restore(w.schema(), &back.config).unwrap();
            assert_eq!(tuner.epoch(), group.epoch);
        }
    }
    assert!(steps > 0, "a published step carried the old key");
}

/// One of each event, with numbers at the writer's edges.
fn every_trace_event() -> Vec<TraceEvent> {
    vec![
        TraceEvent::RunStart {
            strategy: "H6".into(),
            queries: 0,
            total_width: u64::MAX,
            budget: 1 << 40,
            shard: None,
        },
        TraceEvent::RunStart {
            strategy: "CoPhy \"all\"".into(),
            queries: 3,
            total_width: 9,
            budget: 0,
            shard: Some(7),
        },
        TraceEvent::CandidateScan {
            step: 0,
            candidates: 10,
            queries_recosted: 9,
            issued: 99,
            cached: 100,
            micros: 1_000,
        },
        TraceEvent::Step {
            step: 1,
            kind: StepKind::Add,
            index: Some(0),
            benefit: 1e21,
            memory_delta: i64::MIN,
            ratio: 5e-324,
            total_memory: 12,
            total_cost: -0.0,
        },
        TraceEvent::Step {
            step: 2,
            kind: StepKind::Prune,
            index: None,
            benefit: 3.0,
            memory_delta: -8,
            ratio: -0.375,
            total_memory: 4,
            total_cost: 123456789.125,
        },
        TraceEvent::SolverPhase {
            phase: "cophy_build\n".into(),
            detail: 5,
            micros: 6,
        },
        TraceEvent::Epoch {
            epoch: 4,
            policy: "adapt".into(),
            indexes: 2,
            workload_cost: 0.1,
            reconfig_paid: 0.0,
        },
        TraceEvent::Merge {
            parts: 60,
            dirty: 1,
            recombined: 7,
            budget: 586125000,
            total_memory: 24375000,
            total_cost: 45779.015824595925,
            reallocated: 1,
            micros: 83,
        },
        TraceEvent::Failover {
            shard: 1,
            generation: 0,
            replayed: 40,
            adopted_by: 0,
            micros: 9,
        },
        TraceEvent::Recovery {
            generation: 2,
            skipped: 128,
            journal_bytes: 4096,
            micros: 77,
        },
        TraceEvent::ObservedCost {
            table: 3,
            cost: f64::MAX,
            accepted: false,
        },
        TraceEvent::Calibration {
            probes: 4,
            rejected: 1,
            templates: 2,
        },
        TraceEvent::Deploy {
            action: "rollback".into(),
            table: 0,
            epoch: 3,
            incumbent_cost: 1.5,
            candidate_cost: 2e-7,
        },
        TraceEvent::RunEnd {
            strategy: "H6".into(),
            steps: 2,
            issued: 10,
            cached: 3,
            initial_cost: 10.0,
            final_cost: 9.999999999999998,
            micros: 12,
            shard: None,
        },
    ]
}

#[test]
fn every_trace_event_keeps_its_bytes() {
    for event in every_trace_event() {
        let text = same_bytes(&event);
        assert!(
            !text.contains("\"shard\":null"),
            "a `None` shard is absent: {text}"
        );
    }
}

#[test]
fn configs_and_pipe_messages_keep_their_bytes() {
    let (w, run) = tuned();
    let mut config = ServiceConfig {
        shards: 4,
        workers: 2,
        respawn: true,
        ..ServiceConfig::default()
    };
    config.shard_map.extend([(0, 3), (10, 0), (9, 1)]);
    config.tenant_weights.extend([(2, 0.5), (11, 3.0)]);
    same_bytes(&config);
    same_bytes(&ServiceConfig::default());
    let doc = serde_json::to_string(&run.docs[0]).unwrap();
    let pf = run
        .docs
        .iter()
        .flat_map(|d| &d.groups)
        .find_map(|g| g.published.clone())
        .unwrap();
    let sup = [
        SupMsg::Hello {
            schema: Box::new(w.schema().clone()),
            config: Box::new(config),
            shards: vec![0, 2],
            manifest: Some("/tmp/dir with \"quotes\"/m.json".into()),
        },
        SupMsg::Shard { shard: 3 },
        SupMsg::Barrier {
            generation: 9,
            shards: None,
        },
        SupMsg::Barrier {
            generation: 10,
            shards: Some(vec![1]),
        },
        SupMsg::Query { id: u64::MAX },
        SupMsg::Adopt {
            shard: 1,
            data: Some(doc),
        },
        SupMsg::Adopt {
            shard: 2,
            data: None,
        },
        SupMsg::Shutdown,
    ];
    for msg in &sup {
        same_bytes(msg);
    }
    let cal = CalSnapshot {
        probes: 3,
        hist: vec![0, 1, 2, 0, 0, 0, 0, 9],
        ..CalSnapshot::default()
    };
    let worker = [
        WorkerMsg::Ready,
        WorkerMsg::Outcome {
            shard: 1,
            outcome: run.epochs[0].clone(),
            counters: ShardCounters { ingested: 16, dropped: 2, ..ShardCounters::default() },
        },
        WorkerMsg::Publish { table: 1, pf },
        WorkerMsg::CheckpointDone {
            shard: 0,
            generation: 3,
            file: "m.shard-0.g3.json".into(),
        },
        WorkerMsg::Ack {
            id: 4,
            counters: vec![
                (0, ShardCounters { ingested: 1, invalid: 2, dropped: 3, cal }),
                (1, ShardCounters::default()),
            ],
        },
        WorkerMsg::Final {
            shard: 0,
            counters: ShardCounters { ingested: 160, invalid: 1, ..ShardCounters::default() },
        },
        WorkerMsg::Fatal {
            message: "write /x: No space left\non device\t\u{1}".into(),
        },
    ];
    for msg in &worker {
        same_bytes(msg);
    }
}

/// A random JSON tree: floats at every edge the writer has (NaN, ±∞,
/// −0.0, 1e21, the smallest subnormal, integral values, raw bit
/// patterns), strings mixing `"`, `\`, every C0 control and multibyte
/// text, containers nested a few levels.
fn random_value(rng: &mut StdRng, depth: u32) -> Value {
    const FLOATS: [f64; 10] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1e21,
        5e-324,
        3.0,
        -1e300,
        0.1,
    ];
    let pick = rng.gen_range(0..if depth == 0 { 7 } else { 9 });
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::U64(match rng.gen_range(0..3) {
            0 => rng.gen_range(0..10),
            1 => rng.gen_range(0..100_000),
            _ => u64::MAX - rng.gen_range(0..3u64),
        }),
        3 => Value::I64(-(rng.gen_range(1..i64::MAX as u64) as i64) - rng.gen_range(0..2) as i64),
        4 => Value::F64(FLOATS[rng.gen_range(0..FLOATS.len() as u64) as usize]),
        5 => Value::F64(match rng.gen_range(0..2) {
            0 => f64::from_bits(rng.gen_range(0..u64::MAX)),
            _ => rng.gen_range(0..1u64 << 53) as f64 * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
        }),
        6 => Value::Str(random_string(rng)),
        7 => Value::Array(
            (0..rng.gen_range(0..5))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..5))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn random_string(rng: &mut StdRng) -> String {
    let controls = (0u8..0x20).map(char::from);
    let pool: Vec<char> = controls
        .chain(['"', '\\', '/', 'a', 'Z', ' ', 'é', '€', '𝄞', '\u{7f}', '日'])
        .collect();
    (0..rng.gen_range(0..12))
        .map(|_| pool[rng.gen_range(0..pool.len() as u64) as usize])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A tree streams as itself, and its text is a parse-render fixed
    /// point (NaN and ±∞ render `null`, which parses to `Null`).
    #[test]
    fn random_trees_stream_and_round_trip(seed in 0u64..u64::MAX) {
        let tree = random_value(&mut StdRng::seed_from_u64(seed), 3);
        let text = serde_json::to_string(&tree).unwrap();
        prop_assert_eq!(&text, &oracle(&tree));
        prop_assert_eq!(&text, &tree.to_string());
        let back: Value = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    /// A tree's text reads back as the tree — non-finite floats as the
    /// `null` they render — laid out compactly or with whitespace.
    #[test]
    fn random_trees_read_back_as_themselves(seed in 0u64..u64::MAX) {
        fn finite(v: Value) -> Value {
            match v {
                Value::F64(x) if !x.is_finite() => Value::Null,
                Value::Array(items) => Value::Array(items.into_iter().map(finite).collect()),
                Value::Object(entries) => {
                    Value::Object(entries.into_iter().map(|(k, v)| (k, finite(v))).collect())
                }
                other => other,
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_value(&mut rng, 3);
        let want = finite(tree.clone());
        let compact: Value = serde_json::from_str(&tree.to_string()).unwrap();
        prop_assert_eq!(&compact, &want);
        let text = spaced(&tree, &mut rng);
        let loose: Value = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(&loose, &want);
    }

    /// A `HashMap` renders in the order of its *rendered* keys, so keys
    /// that cross a digit boundary sort as strings ("10" < "9").
    #[test]
    fn hash_map_keys_sort_as_rendered_strings(n in 1u32..150, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let map: HashMap<u32, Vec<u8>> =
            (0..n).map(|k| (k, vec![rng.gen_range(0..3) as u8; k as usize % 3])).collect();
        let text = same_bytes(&map);
        let Value::Object(entries) = serde_json::parse_value(&text).unwrap() else {
            panic!("a map renders as an object")
        };
        let keys: Vec<String> = entries.into_iter().map(|(k, _)| k).collect();
        let mut sorted: Vec<String> = (0..n).map(|k| k.to_string()).collect();
        sorted.sort();
        prop_assert_eq!(keys, sorted);
    }
}
