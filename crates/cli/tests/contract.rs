//! The byte-identity contract, end to end through the `isel` binary.
//!
//! Algorithm 1 is deterministic, and the service keeps it so: what a
//! run over a recorded TPC-C log reports and commits does not depend on
//! the shard count, the encoding of the log, the placement of the
//! shards (threads or worker processes), a killed worker or a crashed
//! and restarted supervisor. [`CASES`] is that contract as a table: one
//! row per run, each naming the row whose outcome it must reproduce.
//! An outcome is four things:
//!
//! - the report on stdout, its queue high-water mark masked;
//! - the final checkpoint manifest (compared at equal shard counts,
//!   since it lists one file per shard);
//! - the final generation's group documents, sorted by table;
//! - `report --check` passing on every non-empty trace the run wrote.
//!
//! Adding a placement, an encoding or a fault site is one more row. The
//! recorded fixtures themselves, `frontier` and the socket front have
//! their own tests below.

mod common;

use common::{
    assert_ok, final_selection, groups, masked, remainder, report_check, run, scratch, stderr,
    stdout, strs, Server,
};
use isel_service::state_dir::MANIFEST;
use isel_service::FrameEncoder;
use isel_workload::QueryKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The recorded example logs: 640 TPC-C events over two drift segments,
/// and the same recipe with an observed-cost probe every 8 events, each
/// with its binary twin.
const EVENTS: &str = "tpcc_events.jsonl";
const EVENTS_BIN: &str = "tpcc_events.bin";
const OBSERVED: &str = "tpcc_observed.jsonl";
const OBSERVED_BIN: &str = "tpcc_observed.bin";

/// The `like` of a row pinned to `examples/tpcc_events.whole.txt`: the
/// `^epoch` lines and final selection the default path printed before
/// its engine was folded into the router.
const GOLDEN: &str = "golden";

const CHECKED: &[&str] = &["--offline-check"];
const CALIBRATED: &[&str] = &["--calibrate"];

/// One run of `isel replay` or `isel serve` over a fixture log.
#[derive(Clone, Copy)]
struct Case {
    /// The row's name, which its scratch directory and failures carry.
    name: &'static str,
    /// The earlier row whose outcome this one must reproduce; its own
    /// name for a reference row, [`GOLDEN`] for the frozen output.
    like: &'static str,
    /// `serve` with the log on stdin, rather than `replay --log`.
    serve: bool,
    /// The log, a file of the fixture directory.
    log: &'static str,
    shards: u32,
    /// `--workers`, which only `serve` takes; 0 runs shards on threads.
    workers: u32,
    epoch_events: u32,
    /// `--checkpoint-every`, committing a checkpoint; 0 commits none.
    every: u32,
    /// An `ISEL_FAULT_SCHEDULE` for the run.
    fault: &'static str,
    /// The fault kills the supervisor: run under `--state-dir`, then
    /// restart on the bytes its journal had not consumed. The restarted
    /// run is the outcome.
    restart: bool,
    /// Run again with `--resume` from the final checkpoint, at this
    /// shard count, over the same log. The resumed run is the outcome.
    resume: Option<u32>,
    /// `--trace` the outcome run.
    trace: bool,
    flags: &'static [&'static str],
}

const REPLAY: Case = Case {
    name: "",
    like: "",
    serve: false,
    log: EVENTS,
    shards: 0,
    workers: 0,
    epoch_events: 64,
    every: 0,
    fault: "",
    restart: false,
    resume: None,
    trace: true,
    flags: &[],
};

/// `replay` checking itself against the offline `dynamic::adapt` loop,
/// which makes every epoch adapt.
const CHECK: Case = Case { flags: CHECKED, ..REPLAY };

/// `replay` at 4 shards, committing every epoch, to resume.
const RESUME: Case = Case { shards: 4, every: 1, ..REPLAY };

/// `replay` committing every 16-event epoch.
const SPLICE: Case = Case { epoch_events: 16, every: 1, ..REPLAY };

/// [`SPLICE`] over the log with observed-cost probes, calibrating.
const PROBED: Case = Case { log: OBSERVED, flags: CALIBRATED, ..SPLICE };

/// `serve` at 4 shards, committing every epoch.
const SERVE: Case = Case { serve: true, shards: 4, every: 1, ..REPLAY };

/// [`SERVE`] in two worker processes, which the fault rows kill.
const WORKERS: Case = Case { workers: 2, ..SERVE };

/// The worker hosting shard 1 SIGKILLs itself after its 40th event.
const KILLED: Case = Case { fault: "worker.ingest@1:40", ..WORKERS };

/// The worker hosting shard 2 dies after its 25th event, and a fresh
/// one replaces it.
const RESPAWNED: Case = Case { fault: "worker.ingest@2:25", flags: &["--respawn"], ..WORKERS };

/// The supervisor SIGKILLs itself at generation 2's manifest commit.
const RESTARTED: Case = Case { fault: "sup.commit@2:1", restart: true, ..WORKERS };

#[rustfmt::skip]
const CASES: &[Case] = &[
    // The default path, `--shards 0`: the whole workload as one group,
    // untraced as a user runs it, and checking itself.
    Case { name: "whole", like: GOLDEN, trace: false, ..REPLAY },
    Case { name: "whole-bin", like: "whole", log: EVENTS_BIN, ..REPLAY },
    Case { name: "whole-checked", like: "whole-checked", every: 1, ..CHECK },
    Case { name: "whole-checked-bin", like: "whole-checked", log: EVENTS_BIN, every: 1, ..CHECK },
    // One group per table, whatever the shard count and the encoding,
    // each shard checking itself against per-group `dynamic::adapt`.
    Case { name: "s1", like: "s1", shards: 1, ..CHECK },
    Case { name: "s4", like: "s1", shards: 4, ..CHECK },
    Case { name: "s1-bin", like: "s1", log: EVENTS_BIN, shards: 1, ..CHECK },
    Case { name: "s4-bin", like: "s1", log: EVENTS_BIN, shards: 4, ..CHECK },
    // A checkpoint resumes at its own `--shards 0`, and a per-table one
    // at any shard count, since its state is per table group.
    Case { name: "whole-resumed", like: "whole-resumed", every: 1, resume: Some(0), ..REPLAY },
    Case { name: "resumed-4", like: "resumed-4", resume: Some(4), ..RESUME },
    Case { name: "resumed-2", like: "resumed-4", resume: Some(2), ..RESUME },
    Case { name: "resumed-1", like: "resumed-4", resume: Some(1), ..RESUME },
    // The router's line table past its cap: every line made distinct
    // (read, never remembered), and each of those written twice (the
    // first 4 096 become templates, the rest are parsed where they land)
    // replays like its binary conversion.
    Case { name: "distinct-0", like: "distinct-0", log: "distinct.jsonl", ..CHECK },
    Case { name: "distinct-0-bin", like: "distinct-0", log: "distinct.bin", ..CHECK },
    Case { name: "distinct-1", like: "distinct-1", log: "distinct.jsonl", shards: 1, ..CHECK },
    Case { name: "distinct-1-bin", like: "distinct-1", log: "distinct.bin", shards: 1, ..CHECK },
    Case { name: "distinct-4", like: "distinct-1", log: "distinct.jsonl", shards: 4, ..CHECK },
    Case { name: "distinct-4-bin", like: "distinct-1", log: "distinct.bin", shards: 4, ..CHECK },
    Case { name: "twice-0", like: "twice-0", log: "twice.jsonl", ..CHECK },
    Case { name: "twice-0-bin", like: "twice-0", log: "twice.bin", ..CHECK },
    Case { name: "twice-1", like: "twice-1", log: "twice.jsonl", shards: 1, ..CHECK },
    Case { name: "twice-1-bin", like: "twice-1", log: "twice.bin", shards: 1, ..CHECK },
    Case { name: "twice-4", like: "twice-1", log: "twice.jsonl", shards: 4, ..CHECK },
    Case { name: "twice-4-bin", like: "twice-1", log: "twice.bin", shards: 4, ..CHECK },
    // Spliced group documents do not depend on packing: committing at
    // every epoch, most commits splice clean groups and re-render only
    // a partial epoch; calibrated, the groups carry feedback state too.
    Case { name: "splice-1", like: "splice-1", shards: 1, ..SPLICE },
    Case { name: "splice-4", like: "splice-1", shards: 4, ..SPLICE },
    Case { name: "probes-1", like: "probes-1", shards: 1, ..PROBED },
    Case { name: "probes-4", like: "probes-1", shards: 4, ..PROBED },
    Case { name: "probes-4-bin", like: "probes-1", log: OBSERVED_BIN, shards: 4, ..PROBED },
    Case { name: "probes-workers", like: "probes-1", serve: true, shards: 4, workers: 2, ..PROBED },
    // One engine at every placement: shard threads, one worker process
    // and two, in either encoding, as `replay` or `serve`.
    Case { name: "placed-0", like: "placed-0", log: EVENTS_BIN, ..SERVE },
    Case { name: "placed-1", like: "placed-0", log: EVENTS_BIN, workers: 1, ..SERVE },
    Case { name: "placed-2", like: "placed-0", log: EVENTS_BIN, ..WORKERS },
    Case { name: "placed-2-jsonl", like: "placed-0", ..WORKERS },
    Case { name: "replayed-4", like: "placed-0", shards: 4, every: 1, ..REPLAY },
    // A killed worker fails over onto the survivor, or a respawned
    // replacement, from the last commit plus the journal tail; a killed
    // supervisor restarts from its state directory.
    Case { name: "killed", like: "placed-0", ..KILLED },
    Case { name: "killed-bin", like: "placed-0", log: EVENTS_BIN, ..KILLED },
    Case { name: "respawned", like: "placed-0", ..RESPAWNED },
    Case { name: "respawned-bin", like: "placed-0", log: EVENTS_BIN, ..RESPAWNED },
    Case { name: "restarted", like: "placed-0", ..RESTARTED },
    Case { name: "restarted-bin", like: "placed-0", log: EVENTS_BIN, ..RESTARTED },
];

/// What a case's run leaves behind, as the contract compares it.
struct Outcome {
    report: Vec<String>,
    /// The shard count of the run that committed `manifest`.
    shards: u32,
    manifest: Option<Vec<u8>>,
    groups: Vec<String>,
}

fn examples() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples")
}

/// The shared fixture directory: the TPC-C workload the example logs
/// were recorded against (`tpcc.json`), copies of those logs, and the
/// line-table logs `distinct` and `twice` in both encodings.
fn fixture() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = scratch("contract");
        let w = dir.join("tpcc.json");
        let tpcc = ["--kind", "tpcc", "--warehouses", "50"];
        assert_ok(&run(
            &[&["generate", "--out", w.to_str().unwrap()][..], &tpcc].concat(),
            None,
            &[],
        ));
        for log in [EVENTS, EVENTS_BIN, OBSERVED, OBSERVED_BIN] {
            std::fs::copy(examples().join(log), dir.join(log)).unwrap();
        }
        let long = dir.join("long.jsonl");
        let record = ["record", "--events", "6000", "--seed", "42", "--segments", "2", "--out"];
        assert_ok(&run(&[&record[..], &[long.to_str().unwrap()], &tpcc].concat(), None, &[]));
        let distinct: String = std::fs::read_to_string(&long)
            .unwrap()
            .lines()
            .enumerate()
            .map(|(n, line)| format!("{},\"frequency\":{}}}\n", &line[..line.len() - 1], n + 1))
            .collect();
        let twice: String = distinct.lines().map(|l| format!("{l}\n{l}\n")).collect();
        for (name, text) in [("distinct", distinct), ("twice", twice)] {
            let (jsonl, bin) = (dir.join(format!("{name}.jsonl")), dir.join(format!("{name}.bin")));
            std::fs::write(&jsonl, text).unwrap();
            let (j, b) = (jsonl.to_str().unwrap(), bin.to_str().unwrap());
            assert_ok(&run(
                &["journal", "convert", "--log", j, "--to", "binary", "--out", b],
                None,
                &[],
            ));
        }
        dir
    })
}

/// Run `case` in a fresh directory of the fixture and check what only
/// the case itself can tell: exit codes, its traces, its checkpoint.
fn run_case(case: &Case) -> Outcome {
    let fix = fixture();
    let dir = fix.join(case.name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("traces")).unwrap();
    let (log, state) = (fix.join(case.log), dir.join("state"));
    let manifest =
        if case.restart { state.join(MANIFEST) } else { dir.join("checkpoint.json") };
    let input = case.serve.then_some(log.as_path());
    let args = |shards: u32, trace: Option<&str>| -> Vec<String> {
        let path = |p: &Path| p.display().to_string();
        let mut args = vec![if case.serve { "serve" } else { "replay" }.to_owned()];
        let mut push = |key: &str, value: String| args.extend([key.to_owned(), value]);
        push("--workload", path(&fix.join("tpcc.json")));
        push("--epoch-events", case.epoch_events.to_string());
        push("--shards", shards.to_string());
        if !case.serve {
            push("--log", path(&log));
        }
        if !case.serve && case.log.ends_with(".bin") {
            push("--format", "binary".into());
        }
        if case.workers > 0 {
            push("--workers", case.workers.to_string());
        }
        if case.every > 0 {
            push("--checkpoint-every", case.every.to_string());
            match case.restart {
                true => push("--state-dir", path(&state)),
                false => push("--checkpoint", path(&manifest)),
            }
        }
        if let Some(file) = trace.filter(|_| case.trace) {
            push("--trace", path(&dir.join("traces").join(file)));
        }
        args.extend(case.flags.iter().map(|f| f.to_string()));
        args
    };
    let fault = [("ISEL_FAULT_SCHEDULE", case.fault)];
    let envs: &[(&str, &str)] = if case.fault.is_empty() { &[] } else { &fault };
    let (out, shards) = if case.restart {
        let crashed = run(&strs(&args(case.shards, None)), input, envs);
        assert!(
            !crashed.status.success(),
            "{}: {} did not kill the supervisor",
            case.name,
            case.fault
        );
        let rest = remainder(&log, &state, dir.join("rest"));
        (run(&strs(&args(case.shards, Some("run.jsonl"))), Some(&rest), &[]), case.shards)
    } else if let Some(at) = case.resume {
        assert_ok(&run(&strs(&args(case.shards, Some("run.jsonl"))), input, envs));
        let mut resumed = args(at, Some("resumed.jsonl"));
        resumed.push("--resume".into());
        (run(&strs(&resumed), input, &[]), at)
    } else {
        (run(&strs(&args(case.shards, Some("run.jsonl"))), input, envs), case.shards)
    };
    assert!(out.status.success(), "{}: {}\n{}", case.name, out.status, stderr(&out));
    let report = masked(&stdout(&out));
    assert!(report.iter().any(|l| l.starts_with("epoch")), "{}: no epoch sealed", case.name);

    // Every non-empty trace checks; a traced run traced something. A
    // fault shows up in the trace as what recovered from it.
    let mut traced = String::new();
    for entry in std::fs::read_dir(dir.join("traces")).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        if !text.is_empty() {
            let summary = report_check(&path);
            if case.restart {
                assert!(summary.contains("recoveries: 1"), "{}: {summary}", case.name);
            }
            traced += &text;
        }
    }
    assert_eq!(case.trace, !traced.is_empty(), "{}: --trace and what was traced differ", case.name);
    if case.fault.starts_with("worker.") {
        assert!(traced.contains("\"Failover\""), "{}: no failover in the trace", case.name);
    }
    if case.restart {
        assert!(traced.contains("\"Recovery\""), "{}: no recovery in the trace", case.name);
    }

    let committed = case.every > 0;
    let groups = if committed { groups(&manifest) } else { Vec::new() };
    assert_eq!(committed, !groups.is_empty(), "{}: no group documents", case.name);
    if case.flags == CALIBRATED {
        let probes = |g: &String| {
            let group: serde_json::Value = serde_json::from_str(g).unwrap();
            group.get("feedback").and_then(|f| f.get("probes")).and_then(|p| p.as_u64())
        };
        assert!(groups.iter().any(|g| probes(g) > Some(0)), "{}: no group took a probe", case.name);
    }
    Outcome {
        report,
        shards,
        manifest: committed.then(|| std::fs::read(&manifest).unwrap()),
        groups,
    }
}

/// Every row of [`CASES`] reproduces the row it names.
#[test]
fn every_case_reproduces_its_reference() {
    let golden = std::fs::read_to_string(examples().join("tpcc_events.whole.txt")).unwrap();
    let mut outcomes: HashMap<&str, Outcome> = HashMap::new();
    for case in CASES {
        let got = run_case(case);
        if case.like == GOLDEN {
            let report = got.report.join("\n") + "\n";
            let epochs = got.report.iter().filter(|l| l.starts_with("epoch"));
            let view =
                epochs.map(|l| format!("{l}\n")).collect::<String>() + &final_selection(&report);
            assert_eq!(view, golden, "{}: the default path moved off its golden", case.name);
        } else if case.like != case.name {
            let want = outcomes
                .get(case.like)
                .unwrap_or_else(|| panic!("{}: no earlier row {:?}", case.name, case.like));
            let ctx = format!("{} (like {})", case.name, case.like);
            assert_eq!(got.report, want.report, "{ctx}: report");
            assert!(got.groups == want.groups, "{ctx}: group documents differ");
            if got.shards == want.shards {
                assert!(got.manifest == want.manifest, "{ctx}: manifest differs");
            }
        }
        outcomes.insert(case.name, got);
        std::fs::remove_dir_all(fixture().join(case.name)).ok();
    }
}

/// Distinct lines the router's line table holds (`LINE_CAP`).
const LINE_CAP: u64 = 4096;

/// A template of the TPC-C fixture log: table, attributes, kind.
type Shape = (u16, Vec<u32>, QueryKind);

/// The distinct templates of the fixture log [`EVENTS`].
fn shapes() -> Vec<Shape> {
    let text = std::fs::read_to_string(examples().join(EVENTS)).unwrap();
    let mut shapes: Vec<Shape> = text
        .lines()
        .map(|line| {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            let attrs = v.get("attrs").and_then(|a| a.as_array()).unwrap().iter();
            let kind = match v.get("kind").and_then(|k| k.as_str()) {
                Some("Update") => QueryKind::Update,
                _ => QueryKind::Select,
            };
            let table = v.get("table").and_then(|t| t.as_u64()).unwrap() as u16;
            (table, attrs.map(|a| a.as_u64().unwrap() as u32).collect(), kind)
        })
        .collect();
    shapes.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    shapes.dedup();
    shapes
}

/// A seeded mixed stream over `shapes`, and its reference: the same
/// records with every text line made unique by a `"seq"` key, which the
/// event parser ignores. The router remembers a line only once it
/// repeats, so the reference's lines all reach their shards as text and
/// are parsed there. The stream holds binary frames with their
/// `Define`s among JSONL lines; more than [`LINE_CAP`] distinct lines,
/// each twice; whitespace, CRLF, key-order and frequency variants of one
/// shape; repeated invalid lines and observed-cost probes; a line with
/// both `"table"` and `"control"`; and `checkpoint` controls.
fn edge_stream(shapes: &[Shape], seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Twins::default();
    let mut encoder = FrameEncoder::new();
    let (mut distinct, mut frames) = (0u64, 0usize);
    while distinct <= LINE_CAP + 100 || frames < 20 {
        let (t, attrs, kind) = &shapes[rng.gen_range(0..shapes.len())];
        let list = |sep: &str| attrs.iter().map(u32::to_string).collect::<Vec<_>>().join(sep);
        let kind = if *kind == QueryKind::Update { r#","kind":"Update""# } else { "" };
        let ending = if rng.gen_range(0..8) == 0 { "\r\n" } else { "\n" };
        let line = match rng.gen_range(0..100) {
            0..=3 => {
                frames += 1;
                for _ in 0..rng.gen_range(1..40) {
                    let (t, attrs, kind) = &shapes[rng.gen_range(0..shapes.len())];
                    encoder.push_query(*t, attrs, [1u64, 1, 2, 7][rng.gen_range(0..4usize)], *kind);
                }
                let mut bytes = Vec::new();
                encoder.flush_into(&mut bytes);
                out.frames(&bytes);
                continue;
            }
            4 => r#"{"control":"checkpoint"}"#.to_owned(),
            // A new line, twice.
            5..=49 => {
                distinct += 1;
                let line = format!(
                    r#"{{"table":{t},"attrs":[{}],"frequency":{distinct}{kind}}}"#,
                    list(",")
                );
                out.line(&line, ending);
                line
            }
            50..=64 => format!(r#"{{"table":{t},"attrs":[{}]{kind}}}"#, list(",")),
            65..=69 => format!(r#"{{"table":{t},"attrs":[{}],"frequency":3{kind}}}"#, list(",")),
            70..=72 => format!(r#"{{"table":{t},"attrs":[{}],"frequency":40{kind}}}"#, list(",")),
            73..=76 => format!(r#"{{"attrs":[{}]{kind},"table":{t}}}"#, list(",")),
            77..=80 => format!(r#"  {{"table": {t}, "attrs": [{}]{kind}}} "#, list(", ")),
            81..=84 => {
                format!(r#"{{"table":{t},"attrs":[{}],"observed_cost":{}.5}}"#, list(","), t + 2)
            }
            85..=86 => format!(r#"{{"table":{t},"attrs":[{}],"control":"status"}}"#, list(",")),
            87..=90 => format!(r#"{{"table":{t},"attrs":[{}],"frequency":0}}"#, list(",")),
            91..=94 => format!(r#"{{"table":{t},"attrs":[99]}}"#),
            _ => format!(r#"{{"table":{t},"attrs":["#),
        };
        out.line(&line, ending);
    }
    (out.stream, out.reference)
}

/// A stream and its reference, written side by side.
#[derive(Default)]
struct Twins {
    stream: Vec<u8>,
    reference: Vec<u8>,
    /// Lines written so far: the next line's `"seq"`.
    seq: u64,
}

impl Twins {
    /// `line` into the stream, and into the reference with `"seq"` first.
    fn line(&mut self, line: &str, ending: &str) {
        self.stream.extend_from_slice(format!("{line}{ending}").as_bytes());
        let at = line.find('{').expect("every line opens an object") + 1;
        let unique = format!("{}\"seq\":{},{}{ending}", &line[..at], self.seq, &line[at..]);
        self.reference.extend_from_slice(unique.as_bytes());
        self.seq += 1;
    }

    /// Binary frames into both, as they are.
    fn frames(&mut self, bytes: &[u8]) {
        self.stream.extend_from_slice(bytes);
        self.reference.extend_from_slice(bytes);
    }
}

/// The first line where `got` and `want` part, for a failure to show.
fn first_difference(got: &[String], want: &[String]) -> String {
    let at = got.iter().zip(want).take_while(|(g, w)| g == w).count();
    format!(
        "line {at}: got {:?}, want {:?} ({} vs {} lines)",
        got.get(at),
        want.get(at),
        got.len(),
        want.len()
    )
}

/// Every file a run's checkpoint directory holds, by name.
fn checkpoint_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The router's line table is invisible: a seeded mixed stream
/// ([`edge_stream`]) replays at `--shards 0`, 1 and 4, committing
/// checkpoints, to the report and checkpoint bytes of its reference,
/// whose every line is parsed where it lands. One seed calibrates, so
/// probes shape the group documents; the other checks itself against
/// the offline reference, which parses every line itself (the two do
/// not mix: a calibrated group's deployment gate is no part of the
/// offline loop).
#[test]
fn repeated_lines_replay_like_lines_parsed_where_they_land() {
    let fix = fixture();
    let dir = scratch("contract_edge");
    let shapes = shapes();
    let w = fix.join("tpcc.json");
    for (seed, flag) in [(1u64, "--calibrate"), (2, "--offline-check")] {
        let (stream, reference) = edge_stream(&shapes, seed);
        for shards in ["0", "1", "4"] {
            let mut outcomes = Vec::new();
            for (name, log) in [("stream", &stream), ("reference", &reference)] {
                let run_dir = dir.join(format!("{seed}-{shards}-{name}"));
                std::fs::create_dir_all(&run_dir).unwrap();
                let (path, manifest) = (run_dir.join("log"), run_dir.join("checkpoint.json"));
                std::fs::write(&path, log).unwrap();
                let args = [
                    "replay", "--workload", w.to_str().unwrap(), "--log", path.to_str().unwrap(),
                    "--shards", shards, "--epoch-events", "256", "--checkpoint",
                    manifest.to_str().unwrap(), "--checkpoint-every", "2", flag,
                ];
                let out = run(&args, None, &[]);
                let case = format!("seed {seed}, --shards {shards}, {name}");
                assert!(out.status.success(), "{case}: {}\n{}", out.status, stderr(&out));
                std::fs::remove_file(&path).unwrap();
                outcomes.push((masked(&stdout(&out)), checkpoint_files(&run_dir)));
            }
            let case = format!("seed {seed}, --shards {shards}");
            let (got, want) = (&outcomes[0], &outcomes[1]);
            assert!(got.0 == want.0, "{case}: report, {}", first_difference(&got.0, &want.0));
            let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
                files.iter().map(|(name, _)| name.clone()).collect()
            };
            assert_eq!(names(&got.1), names(&want.1), "{case}: checkpoint files");
            for ((name, a), (_, b)) in got.1.iter().zip(&want.1) {
                assert!(a == b, "{case}: {name} differs from the reference's");
            }
            assert!(got.1.len() > 1, "{case}: no checkpoint committed");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The checked-in logs are what `record` writes for their recipe, in
/// either encoding, and `journal convert` maps each to its twin both
/// ways byte for byte.
#[test]
fn record_reproduces_the_example_fixtures() {
    let dir = scratch("contract_fixtures");
    let recipe = [
        "record", "--kind", "tpcc", "--warehouses", "50", "--events", "640", "--seed", "42",
        "--segments", "2",
    ];
    let same = |a: &Path, b: &Path| {
        let (x, y) = (std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
        assert!(x == y, "{} differs from {}", a.display(), b.display());
    };
    for (name, probes) in [("tpcc_events", &[][..]), ("tpcc_observed", &["--observed", "8"])] {
        let [jsonl, bin] = ["jsonl", "bin"].map(|ext| examples().join(format!("{name}.{ext}")));
        for (file, format) in [(&jsonl, "jsonl"), (&bin, "binary")] {
            let out = dir.join(format!("{name}.{format}"));
            let args = [&recipe[..], probes, &["--format", format, "--out", out.to_str().unwrap()]];
            assert_ok(&run(&args.concat(), None, &[]));
            same(file, &out);
        }
        for (from, to, twin) in [(&jsonl, "binary", &bin), (&bin, "jsonl", &jsonl)] {
            let out = dir.join(format!("{name}.converted.{to}"));
            let (from, out_s) = (from.to_str().unwrap(), out.to_str().unwrap());
            assert_ok(&run(
                &["journal", "convert", "--log", from, "--to", to, "--out", out_s],
                None,
                &[],
            ));
            same(twin, &out);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `budget --socket` asked of a serving daemon, with shards on threads
/// and in two worker processes, answers what the offline `budget`
/// answers over the same events.
#[test]
fn served_budget_answers_match_offline() {
    let fix = fixture();
    let dir = scratch("contract_socket");
    let (w, events) = (fix.join("tpcc.json"), fix.join(EVENTS));
    let (w, events) = (w.to_str().unwrap(), events.to_str().unwrap());
    let knobs = ["--epoch-events", "64", "--shards", "2"];
    let questions: [&[&str]; 2] =
        [&["--tenant", "7", "--at", "4194304"], &["--at", "1048576,4194304,16777216"]];
    let offline: String = questions
        .iter()
        .map(|q| {
            let out = run(
                &[&["budget", "--workload", w, "--log", events][..], &knobs, q].concat(),
                None,
                &[],
            );
            assert_ok(&out);
            stdout(&out)
        })
        .collect();
    for (n, placement) in [&[][..], &["--workers", "2"]].into_iter().enumerate() {
        let sock = dir.join(format!("{n}.sock"));
        let s = sock.to_str().unwrap();
        let serve = [&["serve", "--workload", w, "--socket", s][..], &knobs, placement].concat();
        let server = Server::start(&serve, &sock);
        let mut served = String::new();
        // The first question streams the log; the last shuts the server down.
        for (q, with) in questions.iter().zip([&["--log", events][..], &["--shutdown"]]) {
            let out = run(&[&["budget", "--socket", s][..], with, q].concat(), None, &[]);
            assert_ok(&out);
            served += &stdout(&out);
        }
        server.wait();
        assert_eq!(served, offline, "{placement:?}: served answers differ from offline");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `frontier` prints the same rows at 1 and 4 threads, traced or not,
/// and each trace passes `report --check`. The rows start at the empty
/// selection and climb strictly in memory.
#[test]
fn frontier_rows_are_thread_count_and_trace_invariant() {
    let dir = scratch("contract_frontier");
    let synthetic = [
        "--kind", "synthetic", "--tables", "2", "--attrs", "10", "--queries", "12", "--rows",
        "100000",
    ];
    let tpcc = ["--kind", "tpcc", "--warehouses", "20"];
    for (name, shape) in [("synthetic", &synthetic[..]), ("tpcc", &tpcc)] {
        let w = dir.join(format!("{name}.json"));
        let w = w.to_str().unwrap();
        assert_ok(&run(&[&["generate", "--out", w][..], shape].concat(), None, &[]));
        let mut reference: Option<String> = None;
        for (threads, traced) in [("1", false), ("4", false), ("1", true), ("4", true)] {
            let trace = dir.join(format!("{name}-{threads}.jsonl"));
            let mut args =
                vec!["frontier", "--workload", w, "--max-budget", "0.4", "--threads", threads];
            if traced {
                args.extend(["--trace", trace.to_str().unwrap()]);
            }
            let out = run(&args, None, &[]);
            assert_ok(&out);
            let rows = stdout(&out);
            let memory: Vec<u64> = rows
                .lines()
                .skip(1)
                .map(|l| l.split('\t').next().unwrap().parse().unwrap())
                .collect();
            assert_eq!(memory.first(), Some(&0), "{name}: no empty-selection row:\n{rows}");
            assert!(
                memory.windows(2).all(|m| m[0] < m[1]),
                "{name}: memory not increasing:\n{rows}"
            );
            if traced {
                report_check(&trace);
            }
            match &reference {
                None => reference = Some(rows),
                Some(want) => {
                    assert_eq!(&rows, want, "{name} at {threads} threads, traced {traced}")
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `recommend --json` with its wall-clock masked, for every strategy on
/// TPC-C (20 warehouses) and on a write-heavy 20-table synthetic, at 1
/// and 4 threads, reproduces `examples/recommend_rows.txt` byte for
/// byte: selection, costs, what-if and memo counts. CoPhy is left out on
/// the synthetic, where it stops at its 60 s time limit.
#[test]
fn recommend_rows_match_their_golden() {
    let dir = scratch("contract_recommend");
    let golden = std::fs::read_to_string(examples().join("recommend_rows.txt")).unwrap();
    let update = [
        "--kind", "synthetic", "--tables", "20", "--attrs", "12", "--queries", "40", "--updates",
        "0.2", "--seed", "7",
    ];
    let tpcc = ["--kind", "tpcc", "--warehouses", "20"];
    let mut rows = Vec::new();
    for (name, shape) in [("tpcc", &tpcc[..]), ("upd", &update)] {
        let w = dir.join(format!("{name}.json"));
        let w = w.to_str().unwrap();
        assert_ok(&run(&[&["generate", "--out", w][..], shape].concat(), None, &[]));
        for strategy in ["h1", "h2", "h3", "h4", "h4s", "h5", "h6", "cophy"] {
            if name == "upd" && strategy == "cophy" {
                continue;
            }
            let mut want = None;
            for threads in ["1", "4"] {
                let args = [
                    "recommend", "--workload", w, "--strategy", strategy, "--threads", threads,
                    "--json",
                ];
                let out = run(&args, None, &[]);
                assert_ok(&out);
                let row = format!("{name} {strategy} {}", mask_elapsed(stdout(&out).trim_end()));
                match &want {
                    None => want = Some(row),
                    Some(w) => assert_eq!(&row, w, "{name} {strategy} at {threads} threads"),
                }
            }
            rows.extend(want);
        }
    }
    for (got, want) in rows.iter().zip(golden.lines()) {
        assert_eq!(got, want, "recommend moved off its golden");
    }
    assert_eq!(rows.len(), golden.lines().count(), "golden rows");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `recommend --json` line with its `elapsed_secs` value set to 0.
fn mask_elapsed(line: &str) -> String {
    const KEY: &str = "\"elapsed_secs\":";
    let at = line.find(KEY).expect("recommend --json reports elapsed_secs") + KEY.len();
    let end = at + line[at..].find([',', '}']).expect("a terminated value");
    format!("{}0{}", &line[..at], &line[end..])
}
