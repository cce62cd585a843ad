//! End-to-end tests for the observed-cost feedback subsystem: the
//! deployment gate's rollback riding the checkpoint restore path, its
//! invariance across shard counts and worker crashes, and the in-band
//! calibration query.
//!
//! The contradiction stream is hand-crafted so the rollback is
//! deterministic, not a matter of luck:
//!
//! 1. Two epochs of a hot template `A = [0,1]` — the tuner indexes `A`
//!    and the gate captures that state as the last-good checkpoint.
//! 2. The hot set shifts to `B = [2,3]` (with `A` trickling along) —
//!    the re-selection indexes `B` instead and opens a deployment
//!    candidate, with the `A`-indexed selection as incumbent.
//! 3. Observed-cost probes claim `A` really costs ~10000x its estimate
//!    (clamped to the 64x ratio cap), then the same query mix repeats —
//!    the tuner noops, the calibrated estimate now says the incumbent
//!    is cheaper, the candidate violates the envelope, and the group
//!    rolls back to the last-good checkpoint.

use std::path::{Path, PathBuf};
use std::process::Output;

mod common;

use common::{assert_ok, final_selection, report_check, run, scratch, stdout, Server};

/// Tuning knobs shared by every run over the contradiction stream.
const KNOBS: &[&str] = &[
    "--epoch-events",
    "8",
    "--window",
    "1",
    "--budget",
    "0.14",
    "--cal-envelope",
    "1",
    "--cal-min-probes",
    "2",
];

/// The hand-crafted contradiction stream (32 query events + 4 probes).
/// The rollback window is query events 25..=31: the candidate opens at
/// the epoch sealed by event 24 and rolls back at the seal on event 32.
fn contradiction_log() -> String {
    let mut lines = Vec::new();
    for _ in 0..16 {
        lines.push(r#"{"table":0,"attrs":[0,1],"frequency":10}"#.to_owned());
    }
    let shifted = |lines: &mut Vec<String>| {
        for _ in 0..7 {
            lines.push(r#"{"table":0,"attrs":[2,3],"frequency":20}"#.to_owned());
        }
        lines.push(r#"{"table":0,"attrs":[0,1],"frequency":6}"#.to_owned());
    };
    shifted(&mut lines);
    for _ in 0..4 {
        lines.push(r#"{"table":0,"attrs":[0,1],"observed_cost":500000000}"#.to_owned());
    }
    shifted(&mut lines);
    lines.join("\n") + "\n"
}

/// Fresh per-test scratch directory with a generated workload, the
/// contradiction stream, and its probe-free prefix (the last-good
/// state's input).
fn contradiction_fixture(name: &str) -> PathBuf {
    let dir = scratch(&format!("calibration_{name}"));
    let w = dir.join("w.json");
    let shape = ["--kind", "synthetic", "--tables", "1", "--attrs", "8", "--queries", "8"];
    let generate = ["generate", "--rows", "50000", "--seed", "9", "--out", w.to_str().unwrap()];
    assert_ok(&run(&[&generate[..], &shape].concat(), None, &[]));
    let log = contradiction_log();
    std::fs::write(dir.join("ev.jsonl"), &log).unwrap();
    let prefix: String = log.lines().take(16).map(|l| format!("{l}\n")).collect();
    std::fs::write(dir.join("prefix.jsonl"), prefix).unwrap();
    dir
}

fn replay(dir: &Path, log: &str, shards: &str, extra: &[&str]) -> Output {
    let workload = dir.join("w.json");
    let log = dir.join(log);
    let mut args = vec![
        "replay",
        "--workload",
        workload.to_str().unwrap(),
        "--log",
        log.to_str().unwrap(),
        "--calibrate",
        "--shards",
        shards,
    ];
    args.extend_from_slice(KNOBS);
    args.extend_from_slice(extra);
    run(&args, None, &[])
}

/// The contradiction stream must trigger exactly one rollback, the
/// replay must be byte-identical at 1 and 4 shards, the restored
/// selection must equal the last-good state's (the probe-free prefix
/// run), and `report --check` must verify the gate accounting.
#[test]
fn envelope_violation_rolls_back_byte_identically_across_shards() {
    let dir = contradiction_fixture("replay");
    let trace = dir.join("t.jsonl");
    let one = replay(&dir, "ev.jsonl", "1", &["--trace", trace.to_str().unwrap()]);
    assert_ok(&one);
    let four = replay(&dir, "ev.jsonl", "4", &[]);
    assert_ok(&four);
    assert_eq!(stdout(&one), stdout(&four), "shard count changed the calibrated replay");

    // Sharded traces get per-shard suffixes; shard 0 hosts table 0.
    let traced = std::fs::read_to_string(dir.join("t.jsonl.shard-0")).unwrap();
    assert!(
        traced.contains(r#""action":"rollback""#),
        "no rollback event in trace:\n{traced}"
    );
    assert!(traced.contains(r#""action":"candidate""#));

    // Byte-identity of the rollback target: the final selection equals
    // the one the probe-free prefix (the last-good state) produces.
    let prefix = replay(&dir, "prefix.jsonl", "1", &[]);
    assert_ok(&prefix);
    assert_eq!(
        final_selection(&stdout(&one)),
        final_selection(&stdout(&prefix)),
        "rolled-back selection differs from the last-good checkpoint's"
    );

    let summary = report_check(&dir.join("t.jsonl.shard-0"));
    assert!(summary.contains("rolled back"), "report summary:\n{summary}");
    assert!(summary.contains("deploy accounting ok"), "report summary:\n{summary}");
    std::fs::remove_dir_all(&dir).ok();
}

fn serve_workers(dir: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Output {
    let workload = dir.join("w.json");
    let mut args = vec![
        "serve",
        "--workload",
        workload.to_str().unwrap(),
        "--calibrate",
        "--shards",
        "2",
        "--workers",
        "2",
    ];
    args.extend_from_slice(KNOBS);
    args.extend_from_slice(extra);
    run(&args, Some(&dir.join("ev.jsonl")), envs)
}

/// `serve --workers 2` over the contradiction stream: a worker
/// SIGKILLed at any point inside the rollback window must not change a
/// byte of the report — the failover restore and the gate's rollback
/// compose deterministically — and the supervisor's trace still shows
/// the rollback and passes `report --check`.
#[test]
fn supervised_rollback_survives_sigkill_in_the_rollback_window() {
    let dir = contradiction_fixture("workers");
    let clean = serve_workers(&dir, &[], &[]);
    assert_ok(&clean);
    let baseline = stdout(&clean);
    assert!(baseline.contains("final selection"), "baseline report:\n{baseline}");

    for fault in ["0:25", "0:28", "0:31"] {
        let schedule = format!("worker.ingest@{fault}");
        let out = serve_workers(&dir, &[], &[("ISEL_FAULT_SCHEDULE", &schedule)]);
        assert_ok(&out);
        assert_eq!(stdout(&out), baseline, "kill at {schedule} changed the report");
    }

    // The supervised final selection equals the in-process replay's.
    let rep = replay(&dir, "ev.jsonl", "2", &[]);
    assert_ok(&rep);
    assert_eq!(final_selection(&baseline), final_selection(&stdout(&rep)));

    let trace = dir.join("sup.jsonl");
    let traced_run = serve_workers(
        &dir,
        &["--trace", trace.to_str().unwrap()],
        &[("ISEL_FAULT_SCHEDULE", "worker.ingest@0:28")],
    );
    assert_ok(&traced_run);
    let traced = std::fs::read_to_string(&trace).unwrap();
    assert!(
        traced.contains(r#""action":"rollback""#),
        "no rollback event in supervised trace:\n{traced}"
    );
    assert!(report_check(&trace).contains("deploy accounting ok"));
    std::fs::remove_dir_all(&dir).ok();
}

/// The in-band `{"control":"calibration"}` answer over a serving socket
/// is byte-identical to the offline `isel calibrate` answer over the
/// same events — and both record the rollback — whether the shards run
/// on threads (one shard, two) or in two worker processes.
#[test]
fn served_calibration_answer_matches_offline() {
    let dir = contradiction_fixture("socket");
    let (w, events, sock) = (dir.join("w.json"), dir.join("ev.jsonl"), dir.join("cal.sock"));
    let (w, events, s) = (w.to_str().unwrap(), events.to_str().unwrap(), sock.to_str().unwrap());
    let workers = ["--shards", "2", "--workers", "2"];
    for placement in [&["--shards", "1"][..], &["--shards", "2"], &workers] {
        std::fs::remove_file(&sock).ok();
        let serve = ["serve", "--workload", w, "--socket", s, "--calibrate"];
        let server = Server::start(&[&serve[..], placement, KNOBS].concat(), &sock);
        let served = run(&["calibrate", "--socket", s, "--log", events, "--shutdown"], None, &[]);
        assert_ok(&served);
        server.wait();

        let calibrate = ["calibrate", "--workload", w, "--log", events, "--shards", placement[1]];
        let offline = run(&[&calibrate[..], KNOBS].concat(), None, &[]);
        assert_ok(&offline);

        let served_line = stdout(&served);
        assert_eq!(served_line, stdout(&offline), "{placement:?}: served answer diverged");
        assert!(
            served_line.contains(r#""rolled_back":1"#),
            "{placement:?}: calibration answer missing the rollback: {served_line}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
