//! Crash-recovery tests for `serve --state-dir DIR`, at both
//! placements.
//!
//! Each test drives the real `isel` binary. A crash run sets an
//! `ISEL_FAULT_SCHEDULE` entry (DESIGN.md §18) that SIGKILLs the
//! process running the router at a named fault site; the test then
//! restarts it from the state directory, feeding it only the bytes of
//! the stream the journal had not yet consumed. The restarted run must
//! report **byte-identically** to an uninterrupted run over the same
//! stream — stdout, the committed checkpoint manifest, and the final
//! per-shard checkpoint documents. Under worker processes the sweep
//! walks every registered supervisor-side fault site at 1, 2 and 4
//! shards; on shard threads (`--workers 0`), the sites that placement
//! reaches at `--shards 0` and 2, where stdout is compared with the
//! queue high-water column masked (shard threads race for it).

mod common;

use common::{assert_ok, masked, remainder, report_check, run, setup, stderr, stdout};
use isel_service::state_dir::{JOURNAL, MANIFEST, STATUS};
use std::path::{Path, PathBuf};
use std::process::Output;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Every supervisor-side site the sweep must cover.
const SWEEP_SITES: &[&str] = isel_service::fault::SUPERVISOR_SWEEP_SITES;

/// Serve `input` through `--workers`/`--state-dir` at one epoch per 16
/// events, committing every epoch.
fn serve_state(
    dir: &Path,
    state: &Path,
    shards: u32,
    workers: u32,
    input: &Path,
    envs: &[(&str, &str)],
) -> Output {
    let (w, state) = (dir.join("w.json").display().to_string(), state.display().to_string());
    let (shards, workers) = (shards.to_string(), workers.to_string());
    let args = [
        "serve", "--workload", &w, "--epoch-events", "16", "--checkpoint-every", "1", "--shards",
        &shards, "--workers", &workers, "--state-dir", &state,
    ];
    run(&args, Some(input), envs)
}

/// Assert the recovered state directory's committed documents are
/// byte-identical to the clean run's: the manifest, plus every live
/// shard checkpoint file the clean run kept.
fn assert_state_identical(clean: &Path, recovered: &Path, ctx: &str) {
    let clean_manifest = std::fs::read(clean.join(MANIFEST)).unwrap();
    let rec_manifest = std::fs::read(recovered.join(MANIFEST)).unwrap();
    assert_eq!(clean_manifest, rec_manifest, "{ctx}: checkpoint manifest differs");
    for entry in std::fs::read_dir(clean).unwrap() {
        let name = entry.unwrap().file_name();
        let name = name.to_string_lossy().into_owned();
        if !name.starts_with("checkpoint.shard-") {
            continue;
        }
        let a = std::fs::read(clean.join(&name)).unwrap();
        let b = std::fs::read(recovered.join(&name))
            .unwrap_or_else(|e| panic!("{ctx}: recovered run lacks {name}: {e}"));
        assert_eq!(a, b, "{ctx}: shard document {name} differs");
    }
}

/// A schedule for `site` that is guaranteed to fire: shard-scoped sites
/// get one entry per shard (whichever trips first kills the
/// supervisor), and the failover-path sites ride behind a worker kill
/// on every shard.
fn sweep_schedule(site: &str, shards: u32, workers: u32) -> String {
    let per_shard = |s: &str, hit: u64| -> String {
        (0..shards).map(|k| format!("{s}@{k}:{hit}")).collect::<Vec<_>>().join(";")
    };
    let worker_kills = per_shard("worker.ingest", 9);
    match site {
        "sup.route" => per_shard("sup.route", 5),
        "sup.barrier.open" => "sup.barrier.open@2:1".into(),
        "sup.commit" => "sup.commit@2:1".into(),
        "sup.truncate" => "sup.truncate@2:1".into(),
        "checkpoint.manifest" => "checkpoint.manifest@2:1".into(),
        "journal.append" => "journal.append:40".into(),
        "sup.failover" => {
            let f: Vec<String> =
                (0..workers).map(|w| format!("sup.failover@{w}:1")).collect();
            format!("{worker_kills};{}", f.join(";"))
        }
        "sup.adopt" => format!("{worker_kills};{}", per_shard("sup.adopt", 1)),
        other => panic!("unknown sweep site {other}"),
    }
}

/// The sweep itself: crash the supervisor at `site`, restart from the
/// state directory with the unconsumed stream suffix, and require the
/// recovered run to be byte-identical to the clean one.
fn sweep(dir: &Path, shards: u32, workers: u32) {
    let clean_state = dir.join(format!("clean-{shards}"));
    let clean = serve_state(dir, &clean_state, shards, workers, &dir.join("ev.jsonl"), &[]);
    assert_ok(&clean);
    let baseline = stdout(&clean);
    assert!(baseline.contains("final selection"), "baseline report:\n{baseline}");

    for site in SWEEP_SITES {
        let schedule = sweep_schedule(site, shards, workers);
        let tag = site.replace('.', "-");
        let state = dir.join(format!("crash-{shards}-{tag}"));
        let crashed = serve_state(
            dir,
            &state,
            shards,
            workers,
            &dir.join("ev.jsonl"),
            &[("ISEL_FAULT_SCHEDULE", &schedule)],
        );
        assert!(
            !crashed.status.success(),
            "{site} @ {shards} shards: schedule {schedule:?} did not kill the supervisor"
        );
        let rest = dir.join(format!("rest-{shards}-{tag}"));
        let rest = remainder(&dir.join("ev.jsonl"), &state, rest);
        let recovered = serve_state(dir, &state, shards, workers, &rest, &[]);
        assert_ok(&recovered);
        assert_eq!(
            stdout(&recovered),
            baseline,
            "{site} @ {shards} shards: recovered report differs"
        );
        assert_state_identical(&clean_state, &state, &format!("{site} @ {shards} shards"));
    }

    // The binary twin, clean and crashed at every site: a restarted
    // supervisor replays the journal's `Define`s to its fresh workers,
    // skipped prefix included, and lands on the JSONL run's bytes.
    let bin = dir.join("ev.bin");
    let clean_bin = dir.join(format!("clean-bin-{shards}"));
    let clean = serve_state(dir, &clean_bin, shards, workers, &bin, &[]);
    assert_ok(&clean);
    assert_eq!(stdout(&clean), baseline, "binary twin @ {shards} shards: report differs");
    assert_state_identical(&clean_state, &clean_bin, &format!("binary twin @ {shards} shards"));
    for site in SWEEP_SITES {
        let schedule = match *site {
            // The twin is one frame, read in a handful of consumes: the
            // kill lands inside it, with a partial frame journaled.
            "journal.append" => "journal.append:4".to_owned(),
            _ => sweep_schedule(site, shards, workers),
        };
        let tag = format!("bin-{}", site.replace('.', "-"));
        let ctx = format!("binary twin, {site} @ {shards} shards");
        let state = dir.join(format!("crash-{shards}-{tag}"));
        let envs = [("ISEL_FAULT_SCHEDULE", schedule.as_str())];
        let crashed = serve_state(dir, &state, shards, workers, &bin, &envs);
        assert!(!crashed.status.success(), "{ctx}: schedule {schedule:?} did not kill");
        let rest = remainder(&bin, &state, dir.join(format!("rest-{shards}-{tag}")));
        let recovered = serve_state(dir, &state, shards, workers, &rest, &[]);
        assert_ok(&recovered);
        assert_eq!(stdout(&recovered), baseline, "{ctx}: recovered report differs");
        assert_state_identical(&clean_state, &state, &ctx);
    }
}

#[test]
fn supervisor_crash_sweep_recovers_byte_identically_at_one_shard() {
    let dir = setup("sweep1");
    sweep(&dir, 1, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervisor_crash_sweep_recovers_byte_identically_at_two_shards() {
    let dir = setup("sweep2");
    sweep(&dir, 2, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn supervisor_crash_sweep_recovers_byte_identically_at_four_shards() {
    let dir = setup("sweep4");
    sweep(&dir, 4, 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// The sites a crash at the thread placement (`--workers 0`) can hit:
/// the commit edge, the manifest rename and the journal append. The
/// generation-scoped ones fall mid-stream (96 events commit 7
/// generations), the journal ones inside the stream.
fn thread_schedule(site: &str, log: &str) -> &'static str {
    match (site, log) {
        ("sup.commit", _) => "sup.commit@4:1",
        ("checkpoint.manifest", _) => "checkpoint.manifest@5:1",
        ("journal.append", "ev.bin") => "journal.append:4",
        ("journal.append", _) => "journal.append:40",
        _ => panic!("no thread-placement schedule for {site}"),
    }
}

/// [`sweep`] on shard threads: crash at each site the thread placement
/// reaches, on the JSONL log and its binary twin, restart from the state
/// directory on the unconsumed rest, and require the clean JSONL run's
/// masked report, manifest and shard documents.
fn thread_sweep(dir: &Path, shards: u32) {
    let clean_state = dir.join(format!("clean-{shards}"));
    let clean = serve_state(dir, &clean_state, shards, 0, &dir.join("ev.jsonl"), &[]);
    assert_ok(&clean);
    let baseline = masked(&stdout(&clean));
    assert!(baseline.iter().any(|l| l.starts_with("epoch")), "baseline report:\n{baseline:?}");
    for log in ["ev.jsonl", "ev.bin"] {
        for site in ["sup.commit", "checkpoint.manifest", "journal.append"] {
            let schedule = thread_schedule(site, log);
            let ctx = format!("{log}, {site} @ {shards} shards on threads");
            let tag = format!("{log}-{site}").replace('.', "-");
            let state = dir.join(format!("crash-{shards}-{tag}"));
            let envs = [("ISEL_FAULT_SCHEDULE", schedule)];
            let crashed = serve_state(dir, &state, shards, 0, &dir.join(log), &envs);
            assert!(!crashed.status.success(), "{ctx}: schedule {schedule:?} did not kill");
            let rest = remainder(&dir.join(log), &state, dir.join(format!("rest-{shards}-{tag}")));
            let recovered = serve_state(dir, &state, shards, 0, &rest, &[]);
            assert_ok(&recovered);
            assert_eq!(masked(&stdout(&recovered)), baseline, "{ctx}: recovered report differs");
            assert_state_identical(&clean_state, &state, &ctx);
        }
    }
}

#[test]
fn thread_placement_crash_sweep_recovers_byte_identically_as_one_group() {
    let dir = setup("tsweep0");
    thread_sweep(&dir, 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn thread_placement_crash_sweep_recovers_byte_identically_at_two_shards() {
    let dir = setup("tsweep2");
    thread_sweep(&dir, 2);
    std::fs::remove_dir_all(&dir).ok();
}

/// On shard threads the recovery is traced once, into the first
/// shard's trace file, and every shard's file checks.
#[test]
fn thread_placement_recovery_is_traced_once_and_report_checks() {
    let dir = setup("ttraced");
    let state = dir.join("state");
    let schedule = [("ISEL_FAULT_SCHEDULE", "sup.commit@2:1")];
    let crashed = serve_state(&dir, &state, 2, 0, &dir.join("ev.jsonl"), &schedule);
    assert!(!crashed.status.success());

    let rest = remainder(&dir.join("ev.jsonl"), &state, dir.join("rest-traced"));
    let trace = dir.join("t.jsonl");
    let (state, t) = (state.display().to_string(), trace.display().to_string());
    let w = dir.join("w.json");
    let args = [
        "serve", "--workload", w.to_str().unwrap(), "--epoch-events", "16", "--checkpoint-every",
        "1", "--shards", "2", "--state-dir", &state, "--trace", &t,
    ];
    assert_ok(&run(&args, Some(&rest), &[]));
    let files: Vec<PathBuf> = (0..2).map(|k| dir.join(format!("t.jsonl.shard-{k}"))).collect();
    let recoveries: usize = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap().matches("\"Recovery\"").count())
        .sum();
    assert_eq!(recoveries, 1, "one recovery, traced once");
    assert!(report_check(&files[0]).contains("recoveries: 1"));
    report_check(&files[1]);
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed journal append is not silent, at either placement: the run
/// goes on to its end, then fails naming the write errors, and the
/// journal it leaves is an exact byte prefix of the stream.
#[test]
fn a_journal_write_error_fails_the_run_and_leaves_a_prefix() {
    let dir = setup("journal-error");
    let input = std::fs::read(dir.join("ev.jsonl")).unwrap();
    for workers in [0, 2] {
        let state = dir.join(format!("state-{workers}"));
        let schedule = [("ISEL_FAULT_SCHEDULE", "journal.append:3:error")];
        let out = serve_state(&dir, &state, 2, workers, &dir.join("ev.jsonl"), &schedule);
        assert!(!out.status.success(), "--workers {workers}: a journal error exited 0");
        assert!(stderr(&out).contains("journal write errors: "), "stderr:\n{}", stderr(&out));
        let journal = std::fs::read(state.join(JOURNAL)).unwrap();
        assert!(
            journal.len() < input.len() && input.starts_with(&journal),
            "--workers {workers}: the journal is not a strict prefix of the stream"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The `failovers`/`restarts`/`reply_errors` counters survive a
/// supervisor restart through the status sidecar: a worker kill bumps
/// `failovers`, the supervisor is then crashed and restarted, and the
/// final persisted counters still include the pre-crash failover —
/// while the report stays byte-identical to the clean run.
#[test]
fn status_counters_persist_across_supervisor_restart() {
    let dir = setup("counters");
    let clean_state = dir.join("clean");
    let clean = serve_state(&dir, &clean_state, 2, 2, &dir.join("ev.jsonl"), &[]);
    assert_ok(&clean);

    let state = dir.join("crash");
    let crashed = serve_state(
        &dir,
        &state,
        2,
        2,
        &dir.join("ev.jsonl"),
        &[("ISEL_FAULT_SCHEDULE", "worker.ingest@0:9;worker.ingest@1:9;sup.commit@4:1")],
    );
    assert!(!crashed.status.success(), "supervisor survived sup.commit@4 kill");
    let persisted = std::fs::read_to_string(state.join(STATUS)).unwrap();
    let v: serde_json::Value = serde_json::from_str(&persisted).unwrap();
    let pre_crash = v.get("failovers").and_then(|f| f.as_u64()).unwrap();
    assert!(pre_crash >= 1, "no failover persisted before the crash: {persisted}");

    let rest = remainder(&dir.join("ev.jsonl"), &state, dir.join("rest-counters"));
    let recovered = serve_state(&dir, &state, 2, 2, &rest, &[]);
    assert_ok(&recovered);
    assert_eq!(stdout(&recovered), stdout(&clean));
    let persisted = std::fs::read_to_string(state.join(STATUS)).unwrap();
    let v: serde_json::Value = serde_json::from_str(&persisted).unwrap();
    assert!(
        v.get("failovers").and_then(|f| f.as_u64()).unwrap() >= pre_crash,
        "restart lost the persisted failover count: {persisted}"
    );
}

/// Recovery is visible in the trace: the restarted run records a
/// `Recovery` event with the replayed journal size, and `report
/// --check` accepts the trace.
#[test]
fn recovery_is_traced_and_report_checks() {
    let dir = setup("traced");
    let state = dir.join("state");
    let crashed = serve_state(
        &dir,
        &state,
        2,
        2,
        &dir.join("ev.jsonl"),
        &[("ISEL_FAULT_SCHEDULE", "sup.commit@2:1")],
    );
    assert!(!crashed.status.success());

    let rest = remainder(&dir.join("ev.jsonl"), &state, dir.join("rest-traced"));
    let trace = dir.join("t.jsonl");
    let (state, t) = (state.display().to_string(), trace.display().to_string());
    let w = dir.join("w.json");
    let args = [
        "serve", "--workload", w.to_str().unwrap(), "--epoch-events", "16", "--checkpoint-every",
        "1", "--shards", "2", "--workers", "2", "--state-dir", &state, "--trace", &t,
    ];
    assert_ok(&run(&args, Some(&rest), &[]));
    let traced = std::fs::read_to_string(&trace).unwrap();
    assert!(traced.contains("\"Recovery\""), "no recovery event in trace:\n{traced}");
    let summary = report_check(&trace);
    assert!(summary.contains("recoveries: 1"), "report:\n{summary}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--state-dir` argument validation: it refuses `--socket`, and
/// refuses a state directory holding a manifest but no journal
/// (recovery cannot line up replay positions without it).
#[test]
fn state_dir_validation_fails_fast() {
    let dir = setup("validate");
    let state = dir.join("state");

    let (w, st, sock) = (dir.join("w.json"), state.to_str().unwrap(), dir.join("sock"));
    let w = w.to_str().unwrap();
    let socket = ["--socket", sock.to_str().unwrap()];
    let args = ["serve", "--workload", w, "--workers", "2", "--shards", "2", "--state-dir", st];
    let out = run(&[&args[..], &socket].concat(), None, &[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("stdin"), "stderr:\n{}", stderr(&out));

    // A manifest without its journal is unrecoverable by design.
    let complete = serve_state(&dir, &state, 2, 2, &dir.join("ev.jsonl"), &[]);
    assert_ok(&complete);
    std::fs::remove_file(state.join(JOURNAL)).unwrap();
    let out = serve_state(&dir, &state, 2, 2, &dir.join("ev.jsonl"), &[]);
    assert!(!out.status.success(), "recovered without a journal");
    assert!(stderr(&out).contains("no journal"), "stderr:\n{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// Placement flags a command cannot honour fail fast instead of being
/// ignored: only `serve` runs worker processes, so `replay`, `budget`
/// and `calibrate` refuse `--workers`, `--respawn` and `--state-dir`
/// with an error naming `serve`; and `serve --respawn` without
/// `--workers` has no worker to respawn.
#[test]
fn placement_flags_only_serve_can_honour_fail_fast() {
    let dir = setup("placement");
    let (w, ev, state) = (dir.join("w.json"), dir.join("ev.jsonl"), dir.join("state"));
    let (w, ev, state) = (w.to_str().unwrap(), ev.to_str().unwrap(), state.to_str().unwrap());
    let offline = [
        vec!["replay", "--workload", w, "--log", ev, "--shards", "2", "--workers", "2"],
        vec!["replay", "--workload", w, "--log", ev, "--state-dir", state],
        vec!["replay", "--workload", w, "--log", ev, "--respawn"],
        vec!["budget", "--workload", w, "--log", ev, "--at", "4096", "--workers", "1"],
        vec!["calibrate", "--workload", w, "--log", ev, "--shards", "1", "--workers", "1"],
    ];
    for args in &offline {
        let out = run(args, None, &[]);
        assert!(!out.status.success(), "{args:?} succeeded:\n{}", stdout(&out));
        assert!(stderr(&out).contains("`serve` option"), "{args:?} stderr:\n{}", stderr(&out));
    }
    let serve = ["serve", "--workload", w, "--shards", "2", "--respawn"];
    let out = run(&serve, Some(&dir.join("ev.jsonl")), &[]);
    assert!(!out.status.success(), "serve --respawn without --workers succeeded");
    assert!(stderr(&out).contains("--respawn requires --workers"), "stderr:\n{}", stderr(&out));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Property: random fault schedules always converge.
// ---------------------------------------------------------------------------

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// Shared TPC-C stream + per-shard-count clean baselines, built once.
struct TpccFixture {
    dir: PathBuf,
    baselines: Mutex<HashMap<u32, (String, Vec<u8>)>>,
}

fn tpcc_fixture() -> &'static TpccFixture {
    static FIX: OnceLock<TpccFixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dir = common::scratch("restart_prop");
        let (w, ev) = (dir.join("w.json"), dir.join("ev.jsonl"));
        let tpcc = ["--kind", "tpcc", "--warehouses", "5"];
        let generate = ["generate", "--out", w.to_str().unwrap()];
        assert_ok(&run(&[&generate[..], &tpcc].concat(), None, &[]));
        let record = ["record", "--events", "96", "--seed", "7", "--out", ev.to_str().unwrap()];
        assert_ok(&run(&[&record[..], &tpcc].concat(), None, &[]));
        TpccFixture { dir, baselines: Mutex::new(HashMap::new()) }
    })
}

fn tpcc_baseline(shards: u32, workers: u32) -> (String, Vec<u8>) {
    let fix = tpcc_fixture();
    let mut cache = fix.baselines.lock().unwrap();
    cache
        .entry(shards)
        .or_insert_with(|| {
            let state = fix.dir.join(format!("clean-{shards}"));
            let out =
                serve_state(&fix.dir, &state, shards, workers, &fix.dir.join("ev.jsonl"), &[]);
            assert_ok(&out);
            let manifest = std::fs::read(state.join(MANIFEST)).unwrap();
            (stdout(&out), manifest)
        })
        .clone()
}

/// One randomly drawn fault: a site, a scope seed, a hit count, and a
/// kill-or-stall action, over a random shard count.
#[derive(Debug, Clone)]
struct RandomFault {
    site: usize,
    scope: u32,
    hit: u64,
    stall: bool,
    shards: u32,
}

const PROP_SITES: &[&str] = &[
    "worker.ingest",
    "sup.route",
    "sup.barrier.open",
    "sup.commit",
    "sup.truncate",
    "checkpoint.manifest",
    "journal.append",
];

impl RandomFault {
    fn schedule(&self) -> String {
        let site = PROP_SITES[self.site];
        let action = if self.stall { ":stall(30)" } else { "" };
        match site {
            // Shard-scoped sites: any shard, any event position.
            "worker.ingest" | "sup.route" => {
                format!("{site}@{}:{}{action}", self.scope % self.shards, 1 + self.hit % 40)
            }
            // Unscoped supervisor-stream sites.
            "journal.append" => format!("{site}:{}{action}", 1 + self.hit % 80),
            // Generation-scoped sites: generations 1..=5 all exist
            // (96 events / 16 per epoch, plus the final barrier).
            _ => format!("{site}@{}:1{action}", 1 + self.scope % 5),
        }
    }
}

fn random_fault() -> impl Strategy<Value = RandomFault> {
    (
        0usize..PROP_SITES.len(),
        0u32..64,
        0u64..1000,
        0u8..2,
        prop::sample::select(vec![1u32, 2, 4]),
    )
        .prop_map(|(site, scope, hit, stall, shards)| RandomFault {
            site,
            scope,
            hit,
            stall: stall == 1,
            shards,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any schedule — kill or stall, any site, any scope, any hit —
    /// over a TPC-C stream at 1/2/4 shards converges to the
    /// failure-free selection and checkpoint bytes: stalls and worker
    /// kills are absorbed in-run, supervisor kills recover through a
    /// restart, and nothing deadlocks (the run helper is
    /// watchdog-bounded).
    #[test]
    fn random_fault_schedules_always_converge(fault in random_fault()) {
        let fix = tpcc_fixture();
        let workers = fault.shards.min(2);
        let (base_out, base_manifest) = tpcc_baseline(fault.shards, workers);
        let schedule = fault.schedule();
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let state = fix.dir.join(format!("case-{case}"));
        let first = serve_state(
            &fix.dir,
            &state,
            fault.shards,
            workers,
            &fix.dir.join("ev.jsonl"),
            &[("ISEL_FAULT_SCHEDULE", &schedule)],
        );
        let final_out = if first.status.success() {
            // Stall, an absorbed worker kill, or a site that never
            // fired: the run itself must already be byte-identical.
            stdout(&first)
        } else {
            let rest = fix.dir.join(format!("rest-{case}"));
            let rest = remainder(&fix.dir.join("ev.jsonl"), &state, rest);
            let recovered =
                serve_state(&fix.dir, &state, fault.shards, workers, &rest, &[]);
            prop_assert!(
                recovered.status.success(),
                "restart after {schedule} failed: {}",
                String::from_utf8_lossy(&recovered.stderr)
            );
            stdout(&recovered)
        };
        prop_assert!(
            final_out == base_out,
            "schedule {} diverged from the clean report:\n{}",
            schedule,
            final_out
        );
        let manifest = std::fs::read(state.join(MANIFEST)).unwrap();
        prop_assert!(
            manifest == base_manifest,
            "schedule {} diverged from the clean manifest",
            schedule
        );
        let _ = std::fs::remove_dir_all(&state);
    }
}
