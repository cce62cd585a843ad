//! Supervisor crash-recovery tests for `serve --workers N --state-dir DIR`.
//!
//! Each test drives the real `isel` binary. A crash run sets an
//! `ISEL_FAULT_SCHEDULE` entry (DESIGN.md §18) that SIGKILLs the
//! *supervisor* at a named fault site; the test then restarts the
//! supervisor from the state directory, feeding it only the bytes of
//! the stream the journal had not yet consumed. The restarted run must
//! report **byte-identically** to an uninterrupted run over the same
//! stream — stdout, the committed checkpoint manifest, and the final
//! per-shard checkpoint documents — swept across every registered
//! supervisor-side fault site at 1, 2 and 4 shards.

use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_isel");

/// Every supervisor-side site the sweep must cover (mirrors
/// `isel_service::fault::SUPERVISOR_SWEEP_SITES`).
const SWEEP_SITES: &[&str] = &[
    "sup.route",
    "sup.barrier.open",
    "sup.commit",
    "sup.truncate",
    "sup.failover",
    "sup.adopt",
    "checkpoint.manifest",
    "journal.append",
];

/// Fresh per-test scratch directory with a recorded workload + log.
fn setup(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isel_restart_{name}_{}", std::process::id()));
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

/// Run `isel` to completion with a watchdog: a run that neither exits
/// nor gets killed within the bound is a deadlock — fail loudly rather
/// than hang the suite.
fn run(args: &[&str], stdin: Option<&Path>, envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    match stdin {
        Some(p) => cmd.stdin(Stdio::from(File::open(p).unwrap())),
        None => cmd.stdin(Stdio::null()),
    };
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("spawn isel");
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(st) = child.try_wait().expect("wait isel") {
            break st;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("isel {args:?} deadlocked past the watchdog bound");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    child.stdout.take().unwrap().read_to_end(&mut stdout).unwrap();
    child.stderr.take().unwrap().read_to_end(&mut stderr).unwrap();
    Output { status, stdout, stderr }
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

/// Serve the recorded stream (or a byte-suffix of it) through
/// `--workers`/`--state-dir`.
fn serve_state(
    dir: &Path,
    state: &Path,
    shards: u32,
    workers: u32,
    input: &Path,
    envs: &[(&str, &str)],
) -> Output {
    let args: Vec<String> = vec![
        "serve".into(),
        "--workload".into(),
        dir.join("w.json").display().to_string(),
        "--epoch-events".into(),
        "16".into(),
        "--checkpoint-every".into(),
        "1".into(),
        "--shards".into(),
        shards.to_string(),
        "--workers".into(),
        workers.to_string(),
        "--state-dir".into(),
        state.display().to_string(),
    ];
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    run(&args, Some(input), envs)
}

/// The stream bytes the crashed run's journal had not yet consumed,
/// written to a file so the restart can read them as stdin.
fn remainder(dir: &Path, state: &Path, name: &str) -> PathBuf {
    remainder_of(dir, "ev.jsonl", state, name)
}

/// [`remainder`] of the stream in the file `log` of `dir`.
fn remainder_of(dir: &Path, log: &str, state: &Path, name: &str) -> PathBuf {
    let full = std::fs::read(dir.join(log)).unwrap();
    let consumed = std::fs::metadata(state.join("journal.log")).map_or(0, |m| m.len()) as usize;
    assert!(
        consumed <= full.len(),
        "journal.log larger than the input stream ({consumed} > {})",
        full.len()
    );
    let rest = dir.join(name);
    std::fs::write(&rest, &full[consumed..]).unwrap();
    rest
}

/// Assert the recovered state directory's committed documents are
/// byte-identical to the clean run's: the manifest, plus every live
/// shard checkpoint file the clean run kept.
fn assert_state_identical(clean: &Path, recovered: &Path, ctx: &str) {
    let clean_manifest = std::fs::read(clean.join("checkpoint.json")).unwrap();
    let rec_manifest = std::fs::read(recovered.join("checkpoint.json")).unwrap();
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
        let rest = remainder(dir, &state, &format!("rest-{shards}-{tag}.jsonl"));
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
        let rest = remainder_of(dir, "ev.bin", &state, &format!("rest-{shards}-{tag}.bin"));
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

/// The `failovers`/`restarts`/`reply_errors` counters survive a
/// supervisor restart through `DIR/status.json`: a worker kill bumps
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
    let persisted = std::fs::read_to_string(state.join("status.json")).unwrap();
    let v: serde_json::Value = serde_json::from_str(&persisted).unwrap();
    let pre_crash = v.get("failovers").and_then(|f| f.as_u64()).unwrap();
    assert!(pre_crash >= 1, "no failover persisted before the crash: {persisted}");

    let rest = remainder(&dir, &state, "rest-counters.jsonl");
    let recovered = serve_state(&dir, &state, 2, 2, &rest, &[]);
    assert_ok(&recovered);
    assert_eq!(stdout(&recovered), stdout(&clean));
    let persisted = std::fs::read_to_string(state.join("status.json")).unwrap();
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

    let rest = remainder(&dir, &state, "rest-traced.jsonl");
    let trace = dir.join("t.jsonl");
    let args: Vec<String> = vec![
        "serve".into(),
        "--workload".into(),
        dir.join("w.json").display().to_string(),
        "--epoch-events".into(),
        "16".into(),
        "--checkpoint-every".into(),
        "1".into(),
        "--shards".into(),
        "2".into(),
        "--workers".into(),
        "2".into(),
        "--state-dir".into(),
        state.display().to_string(),
        "--trace".into(),
        trace.display().to_string(),
    ];
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let recovered = run(&args, Some(&rest), &[]);
    assert_ok(&recovered);
    let traced = std::fs::read_to_string(&trace).unwrap();
    assert!(traced.contains("\"Recovery\""), "no recovery event in trace:\n{traced}");
    let checked = run(&["report", "--trace", trace.to_str().unwrap(), "--check"], None, &[]);
    assert_ok(&checked);
    assert!(stdout(&checked).contains("recoveries: 1"), "report:\n{}", stdout(&checked));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--state-dir` argument validation: it needs `--workers`, refuses
/// `--socket`, and refuses a state directory holding a manifest but no
/// journal (recovery cannot line up replay positions without it).
#[test]
fn state_dir_validation_fails_fast() {
    let dir = setup("validate");
    let state = dir.join("state");

    let out = run(
        &[
            "serve",
            "--workload",
            dir.join("w.json").to_str().unwrap(),
            "--state-dir",
            state.to_str().unwrap(),
        ],
        None,
        &[],
    );
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--workers"),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = run(
        &[
            "serve",
            "--workload",
            dir.join("w.json").to_str().unwrap(),
            "--workers",
            "2",
            "--shards",
            "2",
            "--state-dir",
            state.to_str().unwrap(),
            "--socket",
            dir.join("sock").to_str().unwrap(),
        ],
        None,
        &[],
    );
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("stdin"),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A manifest without its journal is unrecoverable by design.
    let complete = serve_state(&dir, &state, 2, 2, &dir.join("ev.jsonl"), &[]);
    assert_ok(&complete);
    std::fs::remove_file(state.join("journal.log")).unwrap();
    let out = serve_state(&dir, &state, 2, 2, &dir.join("ev.jsonl"), &[]);
    assert!(!out.status.success(), "recovered without a journal");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no journal"),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
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
        let dir =
            std::env::temp_dir().join(format!("isel_restart_prop_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let w = dir.join("w.json");
        assert_ok(&run(
            &["generate", "--kind", "tpcc", "--warehouses", "5", "--out", w.to_str().unwrap()],
            None,
            &[],
        ));
        let ev = dir.join("ev.jsonl");
        assert_ok(&run(
            &[
                "record",
                "--kind",
                "tpcc",
                "--warehouses",
                "5",
                "--events",
                "96",
                "--seed",
                "7",
                "--out",
                ev.to_str().unwrap(),
            ],
            None,
            &[],
        ));
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
            let manifest = std::fs::read(state.join("checkpoint.json")).unwrap();
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
            let rest = remainder(&fix.dir, &state, &format!("rest-{case}.jsonl"));
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
        let manifest = std::fs::read(state.join("checkpoint.json")).unwrap();
        prop_assert!(
            manifest == base_manifest,
            "schedule {} diverged from the clean manifest",
            schedule
        );
        let _ = std::fs::remove_dir_all(&state);
    }
}
