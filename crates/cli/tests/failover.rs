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
use isel_workload::QueryKind;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_isel");

/// Fresh per-test scratch directory with a recorded workload + log.
fn setup(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isel_failover_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let common = [
        "--kind",
        "synthetic",
        "--tables",
        "3",
        "--attrs",
        "8",
        "--queries",
        "8",
        "--rows",
        "50000",
        "--seed",
        "9",
    ];
    let w = dir.join("w.json");
    let mut gen: Vec<&str> = vec!["generate", "--out", w.to_str().unwrap()];
    gen.extend(common);
    assert_ok(&run(&gen, None, &[]));
    let ev = dir.join("ev.jsonl");
    let mut rec: Vec<&str> = vec!["record", "--out", ev.to_str().unwrap(), "--events", "96"];
    rec.extend(common);
    assert_ok(&run(&rec, None, &[]));
    // The same log's binary twin: `Define`/`Event` frames down the pipe.
    let bin = dir.join("ev.bin");
    let mut rec: Vec<&str> =
        vec!["record", "--out", bin.to_str().unwrap(), "--format", "binary", "--events", "96"];
    rec.extend(common);
    assert_ok(&run(&rec, None, &[]));
    dir
}

fn run(args: &[&str], stdin: Option<&Path>, envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    match stdin {
        Some(p) => cmd.stdin(Stdio::from(File::open(p).unwrap())),
        None => cmd.stdin(Stdio::null()),
    };
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn isel")
}

fn assert_ok(out: &Output) {
    assert!(
        out.status.success(),
        "isel failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The report's `final selection` block: what failover must preserve.
fn final_selection(report: &str) -> String {
    let at = report.find("final selection").expect("report has a final selection block");
    report[at..].to_owned()
}

fn serve_args(dir: &Path) -> Vec<String> {
    vec![
        "serve".into(),
        "--workload".into(),
        dir.join("w.json").display().to_string(),
        "--epoch-events".into(),
        "16".into(),
        "--shards".into(),
        "2".into(),
        "--workers".into(),
        "2".into(),
    ]
}

fn serve(dir: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Output {
    serve_log(dir, "ev.jsonl", extra, envs)
}

/// [`serve`] over the log file `log` in `dir`.
fn serve_log(dir: &Path, log: &str, extra: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut args = serve_args(dir);
    args.extend(extra.iter().map(|s| s.to_string()));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    run(&args, Some(&dir.join(log)), envs)
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
    let cp = |n: &str| {
        let d = dir.join(n);
        std::fs::create_dir_all(&d).unwrap();
        d.join("manifest.json").display().to_string()
    };
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
    let checked = run(&["report", "--trace", trace.to_str().unwrap(), "--check"], None, &[]);
    assert_ok(&checked);
    let summary = stdout(&checked);
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
    let cp = |n: &str| {
        let d = dir.join(n);
        std::fs::create_dir_all(&d).unwrap();
        d.join("manifest.json").display().to_string()
    };
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
    let cp = |n: &str| {
        let d = dir.join(n);
        std::fs::create_dir_all(&d).unwrap();
        d.join("manifest.json").display().to_string()
    };
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
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("No such file"), "stderr:\n{err}");
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

/// A report with its one placement-dependent number masked: the queue
/// high-water mark (pipes have no queue).
fn masked(report: &str) -> Vec<String> {
    let field = |f: &&str| !f.starts_with("queue high-water");
    report.lines().map(|l| l.split('\t').filter(field).collect::<Vec<_>>().join("\t")).collect()
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
        let rep_args: Vec<&str> = rep_args.iter().map(String::as_str).collect();
        let rep = run(&rep_args, None, &[]);
        assert_ok(&rep);
        let want = masked(&stdout(&rep));
        assert!(!want.iter().any(|l| l.contains("invalid 0")), "no invalid records: {want:?}");

        for fault in ["worker.ingest@1:5", "worker.ingest@0:30"] {
            let sup_dir = cp(&format!("serve-{}", fault.replace([':', '@', '.'], "-")));
            let mut sup_args = args("serve", &sup_dir);
            sup_args.extend(["--workers".into(), "2".into(), "--respawn".into()]);
            let sup_args: Vec<&str> = sup_args.iter().map(String::as_str).collect();
            let sup = run(&sup_args, Some(&log), &[("ISEL_FAULT_SCHEDULE", fault)]);
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
