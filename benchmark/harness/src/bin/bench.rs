//! `bench` — the end-to-end half of the benchmark.
//!
//! Drives the built `isel` binary as child processes, one workload at a
//! time, pinned to one CPU, and reports four end-to-end metrics per
//! workload from the fastest of several long repetitions. Links no
//! `isel-*` crate: the CLI is the surface measured. See `../../README.md`
//! for what each workload and metric means and why.
//!
//! ```text
//! bench --isel PATH --probe PATH --out DIR --golden DIR
//!       [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//!       [--quick] [--bless] [--commit ID]
//! ```
//!
//! The last line printed for each workload is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. The exit code is 1 when any check failed.

use isel_benchmark::digest::{fnv64_hex, Fnv64};
use isel_benchmark::openloop::{due_time_latencies, run_session, Plan};
use isel_benchmark::parse::{
    generated_templates, normalise_recommendation, normalise_service, recommendation,
    report_totals, selection_lines, service_counters, ReportTotals,
};
use isel_benchmark::stats::{median, percentile, Reps};
use isel_benchmark::sys::{own_peak_rss_kib, pin_to_highest_cpu, wait_with_usage};
use isel_benchmark::{END_TO_END, PER_LAYER, UNGATED, WORKLOADS};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

// Input sizes. Scaled once on the reference host so that a repetition
// lasts 1.6 s while the host is calm (`erp_advisor` 3 s: loading
// `erp.json` alone takes 2.4 s), then frozen — changing one changes
// every number after it.
const TPCC_WAREHOUSES: u32 = 50;
const TPCC_EPOCH_EVENTS: u32 = 65_536;
const TPCC_BINARY_EVENTS: usize = 3_200_000;
const TPCC_JSONL_EVENTS: usize = 1_100_000;
const TPCC_SUPERVISED_EVENTS: usize = 900_000;
const MULTI_TUNE_EVENTS: usize = 230_000;
const PACED_TICK: Duration = Duration::from_millis(1);
const PACED_EVENTS_PER_TICK: usize = 50;
const PACED_TICKS: usize = 4_000;
const PACED_QUERY_EVERY: usize = 10;
/// Small enough that every table group seals epochs within a session,
/// so the `whatif` queries are answered from published frontiers.
const PACED_EPOCH_EVENTS: u32 = 4_096;
/// Room for 0.6 s of events. `serve` sheds the oldest events when its
/// queue is full, and at this rate a host hiccup of 60 ms on top of a
/// tuner burst overflows the default 4 096 slots (seen in one of 80
/// sessions on the reference host); with room, a hiccup shows as reply
/// latency and in the queue high-water mark instead of as lost events.
const PACED_QUEUE: u32 = 32_768;
/// Hypothetical global budgets the `whatif` queries cycle over, bytes.
const PACED_BUDGETS: [u64; 4] = [50_000_000, 200_000_000, 1_000_000_000, 5_000_000_000];
/// A `whatif` reply later than this counts as failed.
const REPLY_LIMIT: Duration = Duration::from_secs(1);
/// Seed of the synthetic and ERP fixtures. `isel generate --seed` changes
/// their *structure* and with it how much work a run is (best-of-five
/// `multi_tune` times range from 1.16 s to 2.0 s over six seeds), which no
/// regression bound survives; `--seed` varies the TPC-C streams only.
const STRUCTURE_SEED: u64 = 42;
const SYNTHETIC_SHAPE: &str = "--kind synthetic --tables 60 --attrs 9 --queries 5 --rows 5000000";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const MAX_REPS: usize = 12;

struct Opts {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    bless: bool,
    isel: PathBuf,
    probe: PathBuf,
    out: PathBuf,
    golden: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workloads: WORKLOADS.iter().chain(UNGATED).map(|w| w.0).collect(),
        seed: 42,
        seconds: 12.0,
        traced: false,
        quick: false,
        bless: false,
        isel: PathBuf::new(),
        probe: PathBuf::new(),
        out: PathBuf::new(),
        golden: PathBuf::new(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().chain(UNGATED).find(|w| w.0 == name);
                o.workloads = vec![known.ok_or(format!("unknown workload {name:?}"))?.0];
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => o.quick = true,
            "--bless" => o.bless = true,
            "--isel" => o.isel = value()?.into(),
            "--probe" => o.probe = value()?.into(),
            "--out" => o.out = value()?.into(),
            "--golden" => o.golden = value()?.into(),
            "--commit" => o.commit = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    for (name, path) in [
        ("--isel", &o.isel),
        ("--probe", &o.probe),
        ("--out", &o.out),
    ] {
        if path.as_os_str().is_empty() {
            return Err(format!("missing {name} PATH"));
        }
    }
    // Children run inside their workload's directory.
    o.isel =
        std::fs::canonicalize(&o.isel).map_err(|e| format!("--isel {}: {e}", o.isel.display()))?;
    Ok(o)
}

/// Verification bookkeeping: `attempted` operations, of which `failed`.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn check(&mut self, what: &str, ok: bool) {
        self.count(1, u64::from(!ok));
        if !ok {
            println!("CHECK FAILED: {what}");
        }
    }

    fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// One finished child process.
struct Run {
    wall_s: f64,
    rss_kib: u64,
    stdout: String,
    ok: bool,
}

/// The host as seen before the process pinned itself.
struct Host {
    nproc: usize,
    pinned: Option<u32>,
}

/// Everything one workload run needs to know where things are.
struct Ctx<'a> {
    o: &'a Opts,
    host: &'a Host,
    name: &'static str,
    dir: PathBuf,
}

impl Ctx<'_> {
    fn path(&self, file: &str) -> String {
        self.dir.join(file).to_string_lossy().into_owned()
    }

    /// Full-size count scaled down for `--quick`.
    fn scaled(&self, n: usize) -> usize {
        if self.o.quick {
            (n / 10).max(1)
        } else {
            n
        }
    }

    /// `isel LINE` (split on blanks) ready to spawn inside the workload's
    /// directory, so that every file is named bare; stdout is piped and
    /// stderr goes to `stderr.log` there.
    fn command(&self, line: &str, trace: Option<&str>) -> Result<Command, String> {
        let stderr = File::create(self.dir.join("stderr.log"))
            .map_err(|e| format!("create stderr.log: {e}"))?;
        let mut cmd = Command::new(&self.o.isel);
        cmd.args(line.split_whitespace())
            .current_dir(&self.dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        if let Some(file) = trace {
            cmd.args(["--trace", file, "--trace-format", "binary"]);
        }
        Ok(cmd)
    }

    /// Spawn `cmd` and time it from spawn to exit.
    fn run(&self, mut cmd: Command) -> Result<Run, String> {
        let start = Instant::now();
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot run {}: {e}", self.o.isel.display()))?;
        self.finish(child, start)
    }

    /// Read `child`'s output to its end and reap it.
    fn finish(&self, mut child: Child, start: Instant) -> Result<Run, String> {
        let mut stdout = String::new();
        child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_string(&mut stdout)
            .map_err(|e| format!("read isel stdout: {e}"))?;
        let exit = wait_with_usage(child).map_err(|e| format!("wait for isel: {e}"))?;
        let wall_s = start.elapsed().as_secs_f64();
        if !exit.success() {
            let err = std::fs::read_to_string(self.dir.join("stderr.log")).unwrap_or_default();
            println!("isel exited with {:?}: {}", exit.code, err.trim());
        }
        Ok(Run {
            wall_s,
            rss_kib: exit.max_rss_kib,
            stdout,
            ok: exit.success(),
        })
    }

    fn isel(&self, line: &str, trace: Option<&str>) -> Result<Run, String> {
        self.run(self.command(line, trace)?)
    }

    /// Run a fixture-building `isel` command that must succeed; returns
    /// what it printed.
    fn build(&self, line: &str) -> Result<String, String> {
        let run = self.isel(line, None)?;
        if run.ok {
            Ok(run.stdout)
        } else {
            Err(format!("isel {line} failed"))
        }
    }

    fn generate_tpcc(&self) -> Result<(), String> {
        self.build(&format!(
            "generate --kind tpcc --warehouses {TPCC_WAREHOUSES} --out tpcc.json"
        ))
        .map(drop)
    }

    fn record_tpcc(
        &self,
        events: usize,
        segments: u32,
        format: &str,
        out: &str,
    ) -> Result<(), String> {
        self.build(&format!(
            "record --kind tpcc --warehouses {TPCC_WAREHOUSES} --events {events} --segments {segments} \
             --format {format} --seed {} --out {out}",
            self.o.seed
        ))
        .map(drop)
    }

    fn replay_tpcc(
        &self,
        log: &str,
        epoch_events: u32,
        trace: Option<&str>,
    ) -> Result<Run, String> {
        self.isel(
            &format!(
                "replay --workload tpcc.json --log {log} --shards 1 --epoch-events {epoch_events}"
            ),
            trace,
        )
    }
}

/// A fixture file as the program will read it.
struct Fixture {
    file: String,
    digest: String,
    bytes: u64,
}

fn fixture(ctx: &Ctx, file: &str) -> Result<Fixture, String> {
    // Streamed: a child's peak RSS is never below the harness's own at
    // the moment of the spawn, so the harness holds no large buffers.
    let path = ctx.path(file);
    let mut input = File::open(&path).map_err(|e| format!("open {path}: {e}"))?;
    let (mut hash, mut bytes, mut buf) = (Fnv64::default(), 0u64, [0u8; 1 << 16]);
    loop {
        let n = input
            .read(&mut buf)
            .map_err(|e| format!("read {path}: {e}"))?;
        if n == 0 {
            break;
        }
        bytes += n as u64;
        hash.update(&buf[..n]);
    }
    Ok(Fixture {
        file: file.to_owned(),
        digest: format!("{:016x}", hash.finish()),
        bytes,
    })
}

/// What a set-up leaves behind for the timed repetitions.
struct Prepared {
    /// Normalised output of the verified warm-up; every repetition must
    /// reproduce it byte for byte.
    reference: String,
    /// Work units one repetition processes.
    units: u64,
    fixtures: Vec<Fixture>,
    /// Wall time of the warm-up repetition.
    warmup_s: f64,
}

/// One timed repetition, verified.
struct Outcome {
    wall_s: f64,
    rss_kib: u64,
    /// What the user waited for, ms: the wall time for batch workloads,
    /// the median `whatif` reply latency for the paced session.
    result_ms: f64,
    /// Checkpoint generations the run committed.
    checkpoints: u64,
    paced: Option<PacedStats>,
}

struct PacedStats {
    reply_ms: Vec<f64>,
    late_ms: Vec<f64>,
    queue_high_water: u64,
}

/// Check a service command's output against the reference and its own
/// counters; returns the normalised text.
fn verify_service(
    ops: &mut Ops,
    what: &str,
    run: &Run,
    events: u64,
    reference: Option<&str>,
) -> String {
    ops.check(&format!("{what}: isel exited with 0"), run.ok);
    match service_counters(&run.stdout) {
        Ok(c) => {
            let lost = events.saturating_sub(c.ingested) + c.dropped + c.invalid;
            ops.count(events, lost.min(events));
            if lost > 0 {
                println!(
                    "CHECK FAILED: {what}: ingested {} of {events}, dropped {}, invalid {}",
                    c.ingested, c.dropped, c.invalid
                );
            }
        }
        Err(e) => {
            ops.count(events, events);
            println!("CHECK FAILED: {what}: {e}");
        }
    }
    let text = normalise_service(&run.stdout);
    if let Some(r) = reference {
        ops.check(
            &format!("{what}: output identical to the verified warm-up"),
            text == r,
        );
    }
    text
}

// ---------------------------------------------------------------- workloads

fn setup(ctx: &Ctx, ops: &mut Ops) -> Result<Prepared, String> {
    let mut files: Vec<&str> = Vec::new();
    let (reference, units, warmup_s);
    match ctx.name {
        "tpcc_binary" => {
            let events = ctx.scaled(TPCC_BINARY_EVENTS);
            ctx.generate_tpcc()?;
            ctx.record_tpcc(events, 16, "binary", "tpcc.bin")?;
            files.extend(["tpcc.json", "tpcc.bin"]);
            let run = ctx.replay_tpcc("tpcc.bin", TPCC_EPOCH_EVENTS, None)?;
            reference = verify_service(ops, "warm-up", &run, events as u64, None);
            (units, warmup_s) = (events as u64, run.wall_s);
        }
        "tpcc_jsonl" => {
            let events = ctx.scaled(TPCC_JSONL_EVENTS);
            ctx.generate_tpcc()?;
            ctx.record_tpcc(events, 16, "jsonl", "tpcc.jsonl")?;
            ctx.record_tpcc(events, 16, "binary", "twin.bin")?;
            files.extend(["tpcc.json", "tpcc.jsonl", "twin.bin"]);
            let run = ctx.replay_tpcc("tpcc.jsonl", TPCC_EPOCH_EVENTS, None)?;
            reference = verify_service(ops, "warm-up", &run, events as u64, None);
            let twin = ctx.replay_tpcc("twin.bin", TPCC_EPOCH_EVENTS, None)?;
            ops.check(
                "binary twin replays to byte-identical output (DESIGN §14)",
                twin.ok && normalise_service(&twin.stdout) == reference,
            );
            (units, warmup_s) = (events as u64, run.wall_s);
        }
        "tpcc_supervised" => {
            let events = ctx.scaled(TPCC_SUPERVISED_EVENTS);
            ctx.generate_tpcc()?;
            ctx.record_tpcc(events, 4, "binary", "tpcc.bin")?;
            files.extend(["tpcc.json", "tpcc.bin"]);
            let run = rep_supervised(ctx, None)?;
            reference = verify_service(ops, "warm-up", &run, events as u64, None);
            let inproc = ctx.replay_tpcc("tpcc.bin", TPCC_EPOCH_EVENTS, None)?;
            ops.check(
                "supervised selection equals the in-process replay (DESIGN §16)",
                inproc.ok && selection_lines(&inproc.stdout) == selection_lines(&run.stdout),
            );
            (units, warmup_s) = (events as u64, run.wall_s);
        }
        "multi_tune" => {
            let events = ctx.scaled(MULTI_TUNE_EVENTS);
            ctx.build(&format!(
                "generate {SYNTHETIC_SHAPE} --seed {STRUCTURE_SEED} --out syn.json"
            ))?;
            ctx.build(&format!(
                "record {SYNTHETIC_SHAPE} --events {events} --segments 8 --format binary \
                 --seed {STRUCTURE_SEED} --out syn.bin"
            ))?;
            files.extend(["syn.json", "syn.bin"]);
            let run = rep_multi_tune(ctx, None)?;
            reference = verify_service(ops, "warm-up", &run, events as u64, None);
            let commits = service_counters(&run.stdout).map_or(0, |c| c.checkpoints);
            ops.check("the run committed checkpoint generations", commits > 0);
            (units, warmup_s) = (events as u64, run.wall_s);
        }
        "erp_advisor" => {
            let wrote = ctx.build(&format!(
                "generate --kind erp --seed {STRUCTURE_SEED} --out erp.json"
            ))?;
            files.push("erp.json");
            let queries = generated_templates(&wrote)?;
            let run = rep_erp(ctx, None)?;
            ops.check("warm-up: isel exited with 0", run.ok);
            let rec = recommendation(&run.stdout);
            ops.check(
                "warm-up: the recommendation selects indexes and lowers the cost",
                rec.as_ref()
                    .is_ok_and(|r| r.indexes > 0 && r.relative_cost < 1.0),
            );
            reference = normalise_recommendation(&run.stdout).unwrap_or_default();
            (units, warmup_s) = (queries, run.wall_s);
        }
        "tpcc_paced" => {
            let ticks = ctx.scaled(PACED_TICKS);
            let events = ticks * PACED_EVENTS_PER_TICK;
            ctx.generate_tpcc()?;
            ctx.record_tpcc(events, 4, "jsonl", "paced.jsonl")?;
            files.extend(["tpcc.json", "paced.jsonl"]);
            // The socket session must produce what an in-process replay
            // of the same events does; the warm-up session only warms.
            let inproc = ctx.replay_tpcc("paced.jsonl", PACED_EPOCH_EVENTS, None)?;
            reference = verify_service(ops, "in-process replay", &inproc, events as u64, None);
            let warm = paced_session(ctx, ops, (ticks / 5).max(1), None, None)?;
            (units, warmup_s) = (events as u64, warm.wall_s);
        }
        other => unreachable!("workload {other} is in WORKLOADS"),
    }
    let fixtures = files
        .iter()
        .map(|f| fixture(ctx, f))
        .collect::<Result<_, _>>()?;
    Ok(Prepared {
        reference,
        units,
        fixtures,
        warmup_s,
    })
}

fn rep_supervised(ctx: &Ctx, trace: Option<&str>) -> Result<Run, String> {
    let mut cmd = ctx.command(
        &format!(
            "serve --workload tpcc.json --workers 1 --shards 1 --epoch-events {TPCC_EPOCH_EVENTS}"
        ),
        trace,
    )?;
    let events = ctx.path("tpcc.bin");
    cmd.stdin(File::open(&events).map_err(|e| format!("open {events}: {e}"))?);
    ctx.run(cmd)
}

fn rep_multi_tune(ctx: &Ctx, trace: Option<&str>) -> Result<Run, String> {
    // A fresh directory each time: the run must create every manifest
    // generation itself, never find one to overwrite.
    let dir = ctx.path("ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir}: {e}"))?;
    ctx.isel(
        "replay --workload syn.json --log syn.bin --shards 1 --epoch-events 256 \
         --checkpoint ckpt/m.json --checkpoint-every 4",
        trace,
    )
}

fn rep_erp(ctx: &Ctx, trace: Option<&str>) -> Result<Run, String> {
    ctx.isel(
        "recommend --workload erp.json --strategy h6 --budget 0.2 --json",
        trace,
    )
}

/// One verified repetition of the workload.
fn rep(ctx: &Ctx, ops: &mut Ops, p: &Prepared, trace: Option<&str>) -> Result<Outcome, String> {
    let run = match ctx.name {
        "tpcc_binary" => ctx.replay_tpcc("tpcc.bin", TPCC_EPOCH_EVENTS, trace)?,
        "tpcc_jsonl" => ctx.replay_tpcc("tpcc.jsonl", TPCC_EPOCH_EVENTS, trace)?,
        "tpcc_supervised" => rep_supervised(ctx, trace)?,
        "multi_tune" => rep_multi_tune(ctx, trace)?,
        "erp_advisor" => {
            let run = rep_erp(ctx, trace)?;
            ops.count(p.units, if run.ok { 0 } else { p.units });
            ops.check(
                "recommendation identical to the verified warm-up",
                normalise_recommendation(&run.stdout).is_ok_and(|t| t == p.reference),
            );
            return Ok(batch_outcome(&run));
        }
        "tpcc_paced" => {
            return paced_session(ctx, ops, ctx.scaled(PACED_TICKS), Some(&p.reference), trace)
        }
        other => unreachable!("workload {other} is in WORKLOADS"),
    };
    verify_service(ops, "repetition", &run, p.units, Some(&p.reference));
    Ok(batch_outcome(&run))
}

fn batch_outcome(run: &Run) -> Outcome {
    Outcome {
        wall_s: run.wall_s,
        rss_kib: run.rss_kib,
        result_ms: run.wall_s * 1e3,
        checkpoints: service_counters(&run.stdout).map_or(0, |c| c.checkpoints),
        paced: None,
    }
}

/// One open-loop session against `isel serve --socket`: connection A
/// carries the events, connection B the `whatif` queries and their
/// replies; `shutdown` ends it.
fn paced_session(
    ctx: &Ctx,
    ops: &mut Ops,
    ticks: usize,
    reference: Option<&str>,
    trace: Option<&str>,
) -> Result<Outcome, String> {
    let plan = Plan {
        tick: PACED_TICK,
        ticks,
        query_every: PACED_QUERY_EVERY,
    };
    // Streamed a tick at a time (see `fixture` on why nothing large is held).
    let mut lines = BufReader::new(
        File::open(ctx.path("paced.jsonl")).map_err(|e| format!("open paced.jsonl: {e}"))?,
    );
    let next_chunk = |buf: &mut Vec<u8>| -> std::io::Result<()> {
        for _ in 0..PACED_EVENTS_PER_TICK {
            if lines.read_until(b'\n', buf)? == 0 {
                return Err(std::io::Error::other(
                    "paced.jsonl holds fewer events than the plan sends",
                ));
            }
        }
        Ok(())
    };
    let events = (ticks * PACED_EVENTS_PER_TICK) as u64;

    let socket = ctx.path("serve.sock");
    let _ = std::fs::remove_file(&socket);
    let mut child = ctx
        .command(
            &format!(
                "serve --workload tpcc.json --shards 1 --socket serve.sock --epoch-events {PACED_EPOCH_EVENTS} \
                 --queue {PACED_QUEUE}"
            ),
            trace,
        )?
        .spawn()
        .map_err(|e| format!("cannot run {}: {e}", ctx.o.isel.display()))?;
    let connect = || -> Result<UnixStream, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(&socket) {
                Ok(s) => return Ok(s),
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("connect {socket}: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    };
    let session = (|| -> Result<_, String> {
        let (conn_a, conn_b) = (connect()?, connect()?);
        conn_b
            .set_read_timeout(Some(REPLY_LIMIT))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let replies = BufReader::new(
            conn_b
                .try_clone()
                .map_err(|e| format!("clone socket: {e}"))?,
        );
        let start = Instant::now();
        let log = run_session(
            &plan,
            next_chunk,
            |n| {
                format!(
                    "{{\"control\":\"whatif\",\"budget\":{}}}\n",
                    PACED_BUDGETS[n % PACED_BUDGETS.len()]
                )
            },
            &conn_a,
            &conn_b,
            replies,
        )
        .map_err(|e| format!("paced session: {e}"))?;
        (&conn_a)
            .write_all(b"{\"control\":\"shutdown\"}\n")
            .map_err(|e| format!("send shutdown: {e}"))?;
        Ok((log, start))
    })();
    let (log, start) = match session {
        Ok(s) => s,
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
    };
    // Both connections are closed by now: the server drains and exits.
    let run = ctx.finish(child, start)?;

    verify_service(ops, "session", &run, events, reference);
    let (reply_ms, unanswered) = due_time_latencies(&log, REPLY_LIMIT);
    ops.count(plan.queries() as u64, unanswered as u64);
    if unanswered > 0 {
        println!("CHECK FAILED: session: {unanswered} whatif queries unanswered within 1 s");
    }
    let malformed = log
        .replies
        .iter()
        .enumerate()
        .filter(|(n, r)| {
            !r.starts_with(&format!(
                "{{\"budget\":{},",
                PACED_BUDGETS[n % PACED_BUDGETS.len()]
            ))
        })
        .count();
    ops.check(
        "every whatif reply answers the budget asked",
        malformed == 0,
    );
    let result_ms = if reply_ms.is_empty() {
        REPLY_LIMIT.as_secs_f64() * 1e3
    } else {
        median(&reply_ms)
    };
    Ok(Outcome {
        wall_s: run.wall_s,
        rss_kib: run.rss_kib,
        result_ms,
        checkpoints: 0,
        paced: Some(PacedStats {
            reply_ms,
            late_ms: log.tick_late_ns.iter().map(|&ns| ns as f64 / 1e6).collect(),
            queue_high_water: service_counters(&run.stdout).map_or(0, |c| c.queue_high_water),
        }),
    })
}

// ------------------------------------------------------------------ driver

fn print_metric(name: &str, value: f64, unit: &str) {
    println!("{name:<36} {value:>16.4} {unit}");
}

fn json_line(ops: &Ops, metrics: &[(String, f64, String)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ops.failed == 0,
        ops.attempted.max(1),
        ops.failed,
        body.join(",")
    )
}

fn golden(ctx: &Ctx, ops: &mut Ops, reference: &str) -> Result<(), String> {
    if ctx.o.quick || ctx.o.seed != 42 || ctx.o.golden.as_os_str().is_empty() {
        return Ok(());
    }
    let path = ctx.o.golden.join(format!("{}.txt", ctx.name));
    let digest = fnv64_hex(reference.as_bytes());
    if ctx.o.bless {
        std::fs::write(&path, format!("{digest}\n"))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("golden      blessed {digest}");
        return Ok(());
    }
    let want =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    ops.check(
        &format!(
            "seed-42 output digest {digest} matches golden {}",
            want.trim()
        ),
        want.trim() == digest,
    );
    Ok(())
}

fn print_header(ctx: &Ctx, p: &Prepared) {
    let (o, pinned, nproc) = (ctx.o, ctx.host.pinned, ctx.host.nproc);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    println!(
        "== {} ==  seed={} seconds={} traced={} comparable={} gated={}",
        ctx.name,
        o.seed,
        o.seconds,
        o.traced,
        !o.quick,
        WORKLOADS.iter().any(|w| w.0 == ctx.name)
    );
    println!(
        "host        commit={} nproc={nproc} pinned={} cpu={} kernel={}",
        o.commit,
        pinned.is_some(),
        pinned.map_or("-".to_owned(), |c| c.to_string()),
        kernel.trim()
    );
    for f in &p.fixtures {
        println!(
            "fixture     {} fnv64={} bytes={}",
            f.file, f.digest, f.bytes
        );
    }
}

/// The untraced run: several set-ups, timed repetitions for `--seconds`
/// in between, every timing metric from the fastest repetition.
fn run_untraced(ctx: &Ctx) -> Result<Ops, String> {
    let mut ops = Ops::default();
    let setups = if ctx.o.quick { 1 } else { SETUPS };
    let max_reps = if ctx.o.quick { 1 } else { MAX_REPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut prepared: Option<Prepared> = None;
    let mut reps = Reps::default();
    let (mut result_ms, mut rss_kib) = (f64::INFINITY, 0u64);
    // Timed repetitions so far and their total, which `--seconds` bounds.
    let (mut timed, mut timed_s) = (0usize, 0f64);
    let mut best_paced: Option<PacedStats> = None;
    let mut session_p50 = Vec::new();
    // Each set-up is followed by its share of the timed repetitions, so
    // that they spread over the whole run: slow phases of a shared host
    // last seconds, and the fastest repetition has to fall outside one.
    for k in 0..setups {
        let start = Instant::now();
        let p = setup(ctx, &mut ops)?;
        setup_s.push(start.elapsed().as_secs_f64());
        match &prepared {
            None => {
                print_header(ctx, &p);
                golden(ctx, &mut ops, &p.reference)?;
            }
            Some(first) => {
                let same = first.reference == p.reference
                    && first
                        .fixtures
                        .iter()
                        .zip(&p.fixtures)
                        .all(|(a, b)| a.digest == b.digest);
                ops.check(
                    "a repeated set-up reproduces the fixtures and the warm-up output",
                    same,
                );
            }
        }
        // The warm-up ran the same command as a repetition, so it competes
        // for fastest as well: a cold one never wins, and a run gets three
        // more samples for nothing. (The paced warm-up is a shorter session.)
        if ctx.name != "tpcc_paced" {
            reps.push(p.warmup_s);
            result_ms = result_ms.min(p.warmup_s * 1e3);
        }
        let share = ctx.o.seconds * (k + 1) as f64 / setups as f64;
        let mut batch = 0;
        // A batch ends at its share of `--seconds`, to within half a
        // repetition either way.
        while timed < max_reps && (batch == 0 || timed_s + 0.5 * reps.best() < share) {
            let out = rep(ctx, &mut ops, &p, None)?;
            batch += 1;
            timed += 1;
            timed_s += out.wall_s;
            reps.push(out.wall_s);
            rss_kib = rss_kib.max(out.rss_kib);
            if out.paced.is_some() {
                session_p50.push(format!("{:.3}", out.result_ms));
            }
            if out.result_ms < result_ms {
                result_ms = out.result_ms;
                best_paced = out.paced;
            }
        }
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up ran");

    let own_kib = own_peak_rss_kib().unwrap_or(0);
    ops.check(
        &format!(
            "the harness's own peak RSS ({own_kib} KiB) stays below the children's ({rss_kib} KiB)"
        ),
        own_kib < rss_kib,
    );
    let setup_line: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "set-ups     {} s (warm-up repetition {:.3} s)",
        setup_line.join(" "),
        p.warmup_s
    );
    println!("reps        {}", reps.describe());
    if let Some(s) = &best_paced {
        println!(
            "paced       reply p50 per session {} ms; best session: reply p50 {:.3} ms p95 {:.3} ms \
             over {} queries; generator late p50 {:.3} ms p95 {:.3} ms; queue high-water {}",
            session_p50.join(" "),
            median(&s.reply_ms),
            percentile(&s.reply_ms, 95.0),
            s.reply_ms.len(),
            median(&s.late_ms),
            percentile(&s.late_ms, 95.0),
            s.queue_high_water
        );
    }
    let values = [
        median(&setup_s),
        p.units as f64 / reps.best(),
        result_ms,
        rss_kib as f64 / 1024.0,
    ];
    let metrics: Vec<(String, f64, String)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_owned(), v, unit.to_owned()))
        .collect();
    for (name, value, unit) in &metrics {
        print_metric(name, *value, unit);
    }
    println!("ops_attempted {} ops_failed {}", ops.attempted, ops.failed);
    println!("{}", json_line(&ops, &metrics));
    Ok(ops)
}

/// `metric NAME VALUE UNIT` lines of the probe's output.
fn probe_metrics(ctx: &Ctx) -> Result<BTreeMap<String, f64>, String> {
    let mut cmd = Command::new(&ctx.o.probe);
    cmd.args(["--seed", &ctx.o.seed.to_string(), "--out"])
        .arg(&ctx.o.out);
    if ctx.o.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", ctx.o.probe.display()))?;
    if !out.status.success() {
        return Err(format!("probe exited with {:?}", out.status.code()));
    }
    let mut metrics = BTreeMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut f = line.split_whitespace();
        match (
            f.next(),
            f.next(),
            f.next().and_then(|v| v.parse::<f64>().ok()),
        ) {
            (Some("metric"), Some(name), Some(value)) => {
                metrics.insert(name.to_owned(), value);
            }
            _ => println!("probe       {line}"),
        }
    }
    Ok(metrics)
}

/// `merges` re-merges of `multi_tune` counted in units of a 60-group
/// one, which is what `service.publish_us` times: a merge costs in
/// proportion to the groups published so far, and each group's first
/// epoch publishes, so the first 60 merges are over 1, 2, … 60 groups.
fn merges_at_full_size(merges: u64) -> f64 {
    let growing = merges.min(60) as f64;
    growing * (growing + 1.0) / 120.0 + merges.saturating_sub(60) as f64
}

/// Time the stages the probe measured would take for this workload's
/// repetition, in seconds — the attributed part of its wall time.
fn attributed_s(
    name: &str,
    units: f64,
    trace: &ReportTotals,
    commits: f64,
    m: &BTreeMap<String, f64>,
) -> f64 {
    let g = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let binary_in = g("service.decode_ns") + g("service.resolve_ns");
    let jsonl_in = g("service.classify_ns") + g("service.parse_ns");
    let fold = g("service.queue_hop_ns") + g("service.window_push_ns");
    match name {
        "tpcc_binary" => units * (binary_in + fold) * 1e-9,
        "tpcc_jsonl" | "tpcc_paced" => units * (jsonl_in + fold) * 1e-9,
        "tpcc_supervised" => {
            units * (binary_in + g("service.render_ns") + g("service.worker_ns")) * 1e-9
        }
        "multi_tune" => {
            units * (binary_in + fold) * 1e-9
                + trace.epochs as f64 * g("service.window_snapshot_us") * 1e-6
                + trace.runs as f64 * g("service.tune_adapt_ms") * 1e-3
                + trace.epochs.saturating_sub(trace.runs) as f64 * g("service.tune_noop_us") * 1e-6
                + merges_at_full_size(trace.merges) * g("service.publish_us") * 1e-6
                + commits
                    * (g("service.ckpt_capture_us") * 1e-6 + g("service.ckpt_commit_ms") * 1e-3)
        }
        _ => (g("workload.load_json_ms") + g("core.h6_ms")) * 1e-3,
    }
}

/// The traced run: one set-up, one untraced and one traced repetition,
/// then the per-layer probes.
fn run_traced(ctx: &Ctx) -> Result<Ops, String> {
    let mut ops = Ops::default();
    let p = setup(ctx, &mut ops)?;
    print_header(ctx, &p);

    let plain = rep(ctx, &mut ops, &p, None)?;
    // `--shards N` writes one trace file per shard beside the name given.
    let candidates = ["trace.bin.shard-0", "trace.bin"];
    for stale in candidates {
        let _ = std::fs::remove_file(ctx.path(stale));
    }
    let traced = rep(ctx, &mut ops, &p, Some("trace.bin"))?;
    let written = candidates
        .into_iter()
        .find(|f| Path::new(&ctx.path(f)).exists())
        .ok_or("the traced repetition wrote no trace file")?;
    // `--check` verifies the what-if accounting and Algorithm 1's call
    // bound on the two workloads whose work is Algorithm-1 runs.
    let check = if matches!(ctx.name, "erp_advisor" | "multi_tune") {
        " --check"
    } else {
        ""
    };
    let report = ctx.isel(&format!("report --trace {written}{check}"), None)?;
    ops.check(
        &format!("isel report --trace{check} accepts the traced run"),
        report.ok,
    );
    let summary = report_totals(&report.stdout)?;
    // What every repetition pays before any work: a process, its
    // arguments, one small file.
    let spawn_ms = (0..5)
        .map(|_| {
            ctx.isel("generate --kind tpcc --warehouses 1 --out spawn.json", None)
                .map(|r| r.wall_s * 1e3)
        })
        .collect::<Result<Vec<f64>, _>>()?
        .into_iter()
        .fold(f64::INFINITY, f64::min);

    let mut m = probe_metrics(ctx)?;
    // The paced warm-up is a shorter session, not a repetition.
    let base_s = if ctx.name == "tpcc_paced" {
        plain.wall_s
    } else {
        plain.wall_s.min(p.warmup_s)
    };
    let commits = plain.checkpoints as f64;
    for (name, value) in [
        ("trace.epochs", summary.epochs as f64),
        (
            "trace.adapt_epochs",
            summary.runs.min(summary.epochs) as f64,
        ),
        (
            "trace.noop_epochs",
            summary.epochs.saturating_sub(summary.runs) as f64,
        ),
        ("trace.merge_count", summary.merges as f64),
        (
            "trace.scan_mean_us",
            summary.scan_micros / summary.scans.max(1) as f64,
        ),
        ("trace.whatif_issued", summary.whatif_issued as f64),
        ("trace.whatif_cached", summary.whatif_cached as f64),
        ("cli.trace_overhead_frac", traced.wall_s / base_s - 1.0),
        ("cli.spawn_ms", spawn_ms),
        (
            "attr.unattributed_frac",
            1.0 - attributed_s(ctx.name, p.units as f64, &summary, commits, &m) / base_s,
        ),
    ] {
        m.insert(name.to_owned(), value);
    }
    if let Some(s) = &plain.paced {
        println!(
            "paced       reply p50 {:.3} ms p95 {:.3} ms; generator late p95 {:.3} ms; queue high-water {}",
            median(&s.reply_ms),
            percentile(&s.reply_ms, 95.0),
            percentile(&s.late_ms, 95.0),
            s.queue_high_water
        );
    }
    println!(
        "reps        untraced {:.4} s, traced {:.4} s",
        base_s, traced.wall_s
    );

    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in PER_LAYER {
        let value = *m
            .get(name)
            .ok_or(format!("the probe did not report {name}"))?;
        print_metric(name, value, unit);
        metrics.push((name.to_owned(), value, unit.to_owned()));
    }
    println!("ops_attempted {} ops_failed {}", ops.attempted, ops.failed);
    println!("{}", json_line(&ops, &metrics));
    Ok(ops)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Before anything is spawned: children and threads inherit the pin.
    let host = Host {
        nproc,
        pinned: pin_to_highest_cpu(),
    };
    if host.pinned.is_none() {
        println!("pinned=false (sched_setaffinity failed; timings include migrations)");
    }
    let started = Instant::now();
    let mut failed = 0u64;
    for &name in &opts.workloads {
        let ctx = Ctx {
            o: &opts,
            host: &host,
            name,
            dir: opts.out.join(name),
        };
        let result = std::fs::create_dir_all(&ctx.dir)
            .map_err(|e| format!("create {}: {e}", ctx.dir.display()))
            .and_then(|()| {
                if opts.traced {
                    run_traced(&ctx)
                } else {
                    run_untraced(&ctx)
                }
            });
        match result {
            Ok(ops) => failed += ops.failed,
            Err(e) => {
                // No result line: the run itself did not happen.
                eprintln!("bench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.workloads.len() > 1 {
        println!(
            "== total ==  {} workloads in {:.1} s, {failed} failed checks, comparable={}",
            opts.workloads.len(),
            started.elapsed().as_secs_f64(),
            !opts.quick
        );
    }
    if failed > 0 {
        eprintln!("bench: {failed} checks failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
