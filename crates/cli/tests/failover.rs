//! End-to-end failover tests for `serve --workers N`.
//!
//! Each test drives the real `isel` binary: the supervisor spawns real
//! worker child processes, an `ISEL_FAULT_SCHEDULE` entry (DESIGN.md
//! §18) makes exactly one worker SIGKILL itself at a chosen event
//! position, and the final merged selection must come out
//! **byte-identical** to a failure-free run — the DESIGN.md §16
//! contract. The sites used here:
//!
//! - `worker.ingest@shard:N` — the worker hosting `shard` SIGKILLs
//!   itself after ingesting its `N`-th event on that shard.
//! - `worker.checkpoint@shard:G` — the worker writes the shard's
//!   generation-`G` checkpoint file, then SIGKILLs itself *before*
//!   reporting it — a torn checkpoint attempt.

use isel_service::frame::{parse_canonical, put_frame, CanonicalBody, FrameEncoder, MAGIC};
use isel_service::Control;
use isel_workload::QueryKind;
use std::path::{Path, PathBuf};
use std::process::Output;

mod common;

use common::{assert_ok, final_selection, masked, report_check, run, setup, stderr, stdout, strs};

fn serve(dir: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Output {
    serve_log(dir, "ev.jsonl", extra, envs)
}

/// `serve` at 2 shards in 2 worker processes, 16 events an epoch, over
/// the log file `log` in `dir`.
fn serve_log(dir: &Path, log: &str, extra: &[&str], envs: &[(&str, &str)]) -> Output {
    let w = dir.join("w.json");
    let args = ["serve", "--workload", w.to_str().unwrap(), "--epoch-events", "16", "--shards"];
    run(&[&args[..], &["2", "--workers", "2"], extra].concat(), Some(&dir.join(log)), envs)
}

/// A manifest path in the fresh checkpoint directory `name` of `dir`.
fn manifest_in(dir: &Path, name: &str) -> String {
    let sub = dir.join(name);
    std::fs::create_dir_all(&sub).unwrap();
    sub.join("manifest.json").display().to_string()
}

/// SIGKILL one worker at a sweep of event positions, without any
/// checkpointing: the survivor must rebuild the dead worker's shards
/// purely from the supervisor's journal tails, and every run must
/// report byte-identically to the failure-free one.
#[test]
fn sigkill_at_any_position_is_selection_invariant() {
    let dir = setup("sweep");
    let clean = serve(&dir, &[], &[]);
    assert_ok(&clean);
    let baseline = stdout(&clean);
    assert!(baseline.contains("final selection"), "baseline report:\n{baseline}");

    for fault in ["0:1", "0:25", "0:60", "1:1", "1:13"] {
        let schedule = format!("worker.ingest@{fault}");
        let out = serve(&dir, &[], &[("ISEL_FAULT_SCHEDULE", &schedule)]);
        assert_ok(&out);
        assert_eq!(
            stdout(&out),
            baseline,
            "kill at {schedule} changed the report"
        );
    }

    // The binary twin: a survivor adopting a shard resolves its tail's
    // events through the templates it was sent as they were read.
    let clean = serve_log(&dir, "ev.bin", &[], &[]);
    assert_ok(&clean);
    assert_eq!(stdout(&clean), baseline, "the binary twin changed the report");
    for fault in ["0:1", "0:25", "0:60", "1:1", "1:13"] {
        let schedule = format!("worker.ingest@{fault}");
        let out = serve_log(&dir, "ev.bin", &[], &[("ISEL_FAULT_SCHEDULE", &schedule)]);
        assert_ok(&out);
        assert_eq!(stdout(&out), baseline, "binary twin: kill at {schedule} changed the report");
    }
}

/// The supervisor report's final selection matches the in-process
/// sharded replay over the same log — crossing the process boundary
/// changes nothing about what gets selected.
#[test]
fn supervised_selection_matches_in_process_replay() {
    let dir = setup("parity");
    let sup = serve(&dir, &[], &[]);
    assert_ok(&sup);
    let rep = run(
        &[
            "replay",
            "--workload",
            dir.join("w.json").to_str().unwrap(),
            "--log",
            dir.join("ev.jsonl").to_str().unwrap(),
            "--epoch-events",
            "16",
            "--shards",
            "2",
        ],
        None,
        &[],
    );
    assert_ok(&rep);
    assert_eq!(final_selection(&stdout(&sup)), final_selection(&stdout(&rep)));

    // The binary twin, supervised, reports what the JSONL log does, and
    // replays in-process to the same selection.
    let sup_bin = serve_log(&dir, "ev.bin", &[], &[]);
    assert_ok(&sup_bin);
    assert_eq!(stdout(&sup_bin), stdout(&sup));
    let log = dir.join("ev.bin");
    let mut args: Vec<&str> = vec!["replay", "--log", log.to_str().unwrap(), "--format", "binary"];
    let w = dir.join("w.json");
    args.extend(["--workload", w.to_str().unwrap(), "--epoch-events", "16", "--shards", "2"]);
    let rep_bin = run(&args, None, &[]);
    assert_ok(&rep_bin);
    assert_eq!(final_selection(&stdout(&sup_bin)), final_selection(&stdout(&rep_bin)));
}

/// With checkpointing on, a killed worker restores from the last
/// committed generation plus the journal tail; the report stays
/// byte-identical and the failover is visible in the trace, which
/// `report --check` still validates.
#[test]
fn checkpointed_failover_is_byte_identical_and_traced() {
    let dir = setup("checkpointed");
    let cp = |name: &str| manifest_in(&dir, name);
    let clean = serve(&dir, &["--checkpoint", &cp("clean"), "--checkpoint-every", "1"], &[]);
    assert_ok(&clean);
    let baseline = stdout(&clean);

    let trace = dir.join("t.jsonl");
    let faulted = serve(
        &dir,
        &[
            "--checkpoint",
            &cp("fault"),
            "--checkpoint-every",
            "1",
            "--trace",
            trace.to_str().unwrap(),
        ],
        &[("ISEL_FAULT_SCHEDULE", "worker.ingest@1:13")],
    );
    assert_ok(&faulted);
    assert_eq!(stdout(&faulted), baseline, "failover changed the report");

    let traced = std::fs::read_to_string(&trace).unwrap();
    assert!(traced.contains("\"Failover\""), "no failover event in trace:\n{traced}");
    let summary = report_check(&trace);
    assert!(summary.contains("failover"), "report summary:\n{summary}");

    // The binary twin: the adopter restores from the checkpoint and
    // replays the tail's event frames.
    let trace = dir.join("t_bin.jsonl");
    let (ckpt, tr) = (cp("fault_bin"), trace.display().to_string());
    let args = ["--checkpoint", &ckpt, "--checkpoint-every", "1", "--trace", &tr];
    let kill = [("ISEL_FAULT_SCHEDULE", "worker.ingest@1:13")];
    let faulted = serve_log(&dir, "ev.bin", &args, &kill);
    assert_ok(&faulted);
    assert_eq!(stdout(&faulted), baseline, "binary twin: failover changed the report");
    let traced = std::fs::read_to_string(&trace).unwrap();
    assert!(traced.contains("\"Failover\""), "no failover event in trace:\n{traced}");
}

/// A worker killed *between* writing a shard checkpoint file and
/// reporting it leaves a torn generation; the restore path must ignore
/// it and the run must still report byte-identically.
#[test]
fn kill_during_checkpoint_write_is_byte_identical() {
    let dir = setup("torncp");
    let cp = |name: &str| manifest_in(&dir, name);
    let clean = serve(&dir, &["--checkpoint", &cp("clean"), "--checkpoint-every", "1"], &[]);
    assert_ok(&clean);
    let faulted = serve(
        &dir,
        &["--checkpoint", &cp("fault"), "--checkpoint-every", "1"],
        &[("ISEL_FAULT_SCHEDULE", "worker.checkpoint@0:2")],
    );
    assert_ok(&faulted);
    assert_eq!(stdout(&faulted), stdout(&clean));
}

/// `--respawn` replaces the dead worker with a fresh child instead of
/// piling its shards onto a survivor; the fault schedule must not leak
/// into the replacement (it would just die again), and the report is
/// unchanged.
#[test]
fn respawn_restores_on_a_fresh_worker() {
    let dir = setup("respawn");
    let cp = |name: &str| manifest_in(&dir, name);
    let clean = serve(&dir, &["--checkpoint", &cp("clean"), "--checkpoint-every", "1"], &[]);
    assert_ok(&clean);
    let faulted = serve(
        &dir,
        &["--respawn", "--checkpoint", &cp("fault"), "--checkpoint-every", "1"],
        &[("ISEL_FAULT_SCHEDULE", "worker.ingest@1:13")],
    );
    assert_ok(&faulted);
    assert_eq!(stdout(&faulted), stdout(&clean));

    // The binary twin: the replacement is sent every `Define` read so
    // far before it adopts the shard.
    let args = ["--respawn", "--checkpoint", &cp("fault_bin"), "--checkpoint-every", "1"];
    let kill = [("ISEL_FAULT_SCHEDULE", "worker.ingest@1:13")];
    let faulted = serve_log(&dir, "ev.bin", &args, &kill);
    assert_ok(&faulted);
    assert_eq!(stdout(&faulted), stdout(&clean), "binary twin: respawn changed the report");
}

/// A checkpoint directory nobody can write to must fail the run fast
/// with the underlying I/O error — not cycle the doomed shard through
/// adopt → die failovers forever.
#[test]
fn unwritable_checkpoint_directory_fails_fast() {
    let dir = setup("badcp");
    let missing = dir.join("nonexistent").join("manifest.json");
    let out = serve(
        &dir,
        &["--checkpoint", missing.to_str().unwrap(), "--checkpoint-every", "1"],
        &[],
    );
    assert!(!out.status.success(), "run with an unwritable checkpoint dir succeeded");
    assert!(stderr(&out).contains("No such file"), "stderr:\n{}", stderr(&out));
}

/// The recorded log re-encoded one frame per line, with every other
/// kind of record a worker is handed spliced in after line 40: a
/// schema-invalid `Define` (table 1, an attribute of table 0) and two
/// events of it, an event of a template nobody defined, a corrupt frame,
/// a frequency-0 event, and an observed-cost probe riding as a `Raw`
/// item.
fn mixed_stream(dir: &Path) -> PathBuf {
    let log = std::fs::read_to_string(dir.join("ev.jsonl")).unwrap();
    let mut enc = FrameEncoder::new();
    let mut out = Vec::new();
    for (i, line) in log.lines().enumerate() {
        if i == 40 {
            enc.push_query(1, &[0], 1, QueryKind::Select);
            enc.push_query(1, &[0], 3, QueryKind::Select);
            enc.flush_into(&mut out);
            put_frame(&mut out, &[1, 99]); // item tag 1: an event of template 99
            out.extend_from_slice(&[MAGIC, 0x7F, 0xde, 0xad, b'\n']); // no such version
            out.extend_from_slice(b"{\"table\":2,\"attrs\":[16],\"frequency\":0}\n");
            enc.push_raw(br#"{"table":0,"attrs":[0,1],"observed_cost":5000.0}"#);
        }
        match parse_canonical(line) {
            Some((None, CanonicalBody::Query { table, attrs, frequency, kind })) => {
                enc.push_query(table, &attrs, frequency, kind)
            }
            _ => enc.push_raw(line.as_bytes()),
        }
        enc.flush_into(&mut out);
    }
    let path = dir.join("mixed.bin");
    std::fs::write(&path, out).unwrap();
    path
}

/// Every record a worker can be handed counts where the in-process
/// replay counts it: with a worker killed after the first `Define` and
/// respawned, the supervised report and every checkpoint document —
/// per-shard `invalid` included — equal `replay --shards N`'s.
#[test]
fn mixed_stream_counts_like_the_in_process_replay() {
    let dir = setup("mixed");
    let log = mixed_stream(&dir);
    let w = dir.join("w.json");
    for shards in ["2", "4"] {
        let cp = |n: &str| {
            let d = dir.join(format!("{n}-{shards}"));
            std::fs::create_dir_all(&d).unwrap();
            d
        };
        let args = |verb: &str, d: &Path| -> Vec<String> {
            let (w, m) = (w.display().to_string(), d.join("manifest.json").display().to_string());
            [verb, "--workload", &w, "--epoch-events", "16", "--checkpoint-every", "1"]
                .into_iter()
                .chain(["--calibrate", "--shards", shards, "--checkpoint", &m])
                .map(String::from)
                .collect()
        };
        let rep_dir = cp("replay");
        let mut rep_args = args("replay", &rep_dir);
        rep_args.extend(["--log".into(), log.display().to_string()]);
        let rep = run(&strs(&rep_args), None, &[]);
        assert_ok(&rep);
        let want = masked(&stdout(&rep));
        assert!(!want.iter().any(|l| l.contains("invalid 0")), "no invalid records: {want:?}");

        for fault in ["worker.ingest@1:5", "worker.ingest@0:30"] {
            let sup_dir = cp(&format!("serve-{}", fault.replace([':', '@', '.'], "-")));
            let mut sup_args = args("serve", &sup_dir);
            sup_args.extend(["--workers".into(), "2".into(), "--respawn".into()]);
            let sup = run(&strs(&sup_args), Some(&log), &[("ISEL_FAULT_SCHEDULE", fault)]);
            assert_ok(&sup);
            assert_eq!(masked(&stdout(&sup)), want, "{shards} shards, {fault}");
            // Documents equal but for the configuration they record
            // (`workers`, `respawn`).
            let doc = |path: PathBuf| {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                match serde_json::from_str(&text) {
                    Ok(serde_json::Value::Object(mut fields)) => {
                        fields.retain(|(k, _)| k != "config");
                        fields
                    }
                    _ => Vec::new(),
                }
            };
            for entry in std::fs::read_dir(&rep_dir).unwrap() {
                let name = entry.unwrap().file_name();
                let (a, b) = (doc(rep_dir.join(&name)), doc(sup_dir.join(&name)));
                assert!(a == b, "{shards} shards, {fault}: {name:?} differs");
            }
        }
    }
}

/// Two events of one template whose frequencies sum past `u64::MAX`
/// saturate the template's weight instead of wrapping it to 0: in
/// either encoding, the whole-workload group, a per-table shard and a
/// worker process each ingest both and exit cleanly.
#[test]
fn frequency_mass_past_u64_max_saturates() {
    let dir = setup("overflow");
    let line = r#"{"table":0,"attrs":[0],"frequency":9223372036854775808}"#;
    let jsonl = dir.join("two.jsonl");
    std::fs::write(&jsonl, format!("{line}\n{line}\n")).unwrap();
    let bin = dir.join("two.bin");
    let (j, b) = (jsonl.display().to_string(), bin.display().to_string());
    assert_ok(&run(&["journal", "convert", "--log", &j, "--to", "binary", "--out", &b], None, &[]));
    let w = dir.join("w.json").display().to_string();
    for log in [&jsonl, &bin] {
        let l = log.display().to_string();
        for shards in ["0", "1"] {
            let args = ["replay", "--workload", &w, "--log", &l, "--epoch-events", "2"];
            let args = [&args[..], &["--offline-check", "--shards", shards]].concat();
            let out = run(&args, None, &[]);
            assert_ok(&out);
            assert!(stdout(&out).contains("ingested 2\t"), "{l} at --shards {shards}");
        }
        let args = ["serve", "--workload", &w, "--epoch-events", "2", "--shards", "1"];
        let out = run(&[&args[..], &["--workers", "1"]].concat(), Some(log), &[]);
        assert_ok(&out);
        assert!(stdout(&out).contains("ingested 2\t"), "{l} under one worker");
    }
}

/// The in-stream questions a served run answers, with their JSONL
/// lines: a `whatif`, a `budget` re-anchor (it mutates every later
/// answer), a `tenant` split and the `calibration` table. No `status`:
/// its queue depths differ by placement.
fn questions() -> Vec<(Control, &'static str)> {
    vec![
        (Control::Whatif { budget: 1 << 20 }, r#"{"control":"whatif","budget":1048576}"#),
        (Control::Budget { budget: 3 << 20 }, r#"{"control":"budget","budget":3145728}"#),
        (
            Control::Tenant { table: 1, budget: 1 << 20 },
            r#"{"control":"tenant","table_group":1,"budget":1048576}"#,
        ),
        (Control::Calibration, r#"{"control":"calibration"}"#),
    ]
}

/// The recorded log and its binary twin with an observed-cost probe and
/// [`questions`] inserted after each event count in `after` — as text
/// lines in the one, as `Raw`/`Control` items in the other.
fn questioned(dir: &Path, name: &str, after: &[usize]) -> [PathBuf; 2] {
    const PROBE: &str = r#"{"table":0,"attrs":[0,1],"observed_cost":5000.0}"#;
    let log = std::fs::read_to_string(dir.join("ev.jsonl")).unwrap();
    let (mut text, mut enc, mut bin) = (String::new(), FrameEncoder::new(), Vec::new());
    for (i, line) in log.lines().enumerate() {
        match parse_canonical(line) {
            Some((None, CanonicalBody::Query { table, attrs, frequency, kind })) => {
                enc.push_query(table, &attrs, frequency, kind)
            }
            _ => enc.push_raw(line.as_bytes()),
        }
        text.push_str(line);
        text.push('\n');
        if after.contains(&(i + 1)) {
            enc.push_raw(PROBE.as_bytes());
            text.push_str(PROBE);
            text.push('\n');
            for (control, line) in questions() {
                enc.push_control(control, None);
                text.push_str(line);
                text.push('\n');
            }
        }
        enc.flush_into(&mut bin);
    }
    let paths = [dir.join(format!("{name}.jsonl")), dir.join(format!("{name}.bin"))];
    std::fs::write(&paths[0], text).unwrap();
    std::fs::write(&paths[1], bin).unwrap();
    paths
}

/// What a run says about the stream: its in-band answers (the `{`-lines
/// of stderr) and its report with the queue high-water mark masked.
fn answers_and_report(out: &Output) -> (Vec<String>, Vec<String>) {
    assert_ok(out);
    let answers = stderr(out).lines().filter(|l| l.starts_with('{')).map(String::from).collect();
    (answers, masked(&stdout(out)))
}

/// In-stream queries through `serve --workers` are answered exactly as
/// `replay` answers them in process, in both encodings: with questions
/// mid-stream at one shard, and after the last event at two shards
/// (mid-stream answers at more than one shard are not deterministic:
/// the in-band marker is no rendezvous).
#[test]
fn supervised_queries_answer_like_the_in_process_replay() {
    let dir = setup("questions");
    let w = dir.join("w.json").display().to_string();
    let args = |verb: &str, shards: &str| -> Vec<String> {
        [verb, "--workload", &w, "--epoch-events", "16", "--calibrate", "--shards", shards]
            .into_iter()
            .map(String::from)
            .collect()
    };
    for (shards, workers, after) in [("1", "1", vec![20, 50, 80, 96]), ("2", "2", vec![96])] {
        let name = format!("questions-{shards}");
        for log in questioned(&dir, &name, &after) {
            let mut rep_args = args("replay", shards);
            rep_args.extend(["--log".into(), log.display().to_string()]);
            let (want_answers, want_report) = answers_and_report(&run(&strs(&rep_args), None, &[]));
            assert_eq!(want_answers.len(), 4 * after.len(), "{want_answers:?}");

            let mut sup_args = args("serve", shards);
            sup_args.extend(["--workers".into(), workers.into()]);
            let (answers, report) = answers_and_report(&run(&strs(&sup_args), Some(&log), &[]));
            assert_eq!(answers, want_answers, "{}: answers", log.display());
            assert_eq!(report, want_report, "{}: report", log.display());
        }
    }
}
