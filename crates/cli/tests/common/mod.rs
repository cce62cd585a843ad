//! The harness every CLI suite shares: scratch directories, the
//! recorded fixtures, running `isel` under a watchdog, a socket server
//! that cannot outlive its test, and the views of a run the suites
//! compare (the masked report, the final selection, the checkpoint
//! state).

// Each suite compiles this module on its own and uses a subset of it.
#![allow(dead_code)]

use isel_service::state_dir::JOURNAL;
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_isel");

/// How long one `isel` may run: a run that neither exits nor gets
/// killed within it is a deadlock, and fails loudly rather than hang
/// the suite.
const WATCHDOG: Duration = Duration::from_secs(120);

/// A fresh, empty scratch directory for the test `name`.
pub fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isel_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// [`scratch`] holding a 3-table synthetic workload `w.json`, a
/// recorded 96-event log `ev.jsonl` and its binary twin `ev.bin`.
pub fn setup(name: &str) -> PathBuf {
    let dir = scratch(name);
    let shape = [
        "--kind", "synthetic", "--tables", "3", "--attrs", "8", "--queries", "8", "--rows",
        "50000", "--seed", "9",
    ];
    let w = dir.join("w.json");
    assert_ok(&run(&[&["generate", "--out", w.to_str().unwrap()][..], &shape].concat(), None, &[]));
    for (file, format) in [("ev.jsonl", "jsonl"), ("ev.bin", "binary")] {
        let out = dir.join(file);
        let record =
            ["record", "--out", out.to_str().unwrap(), "--format", format, "--events", "96"];
        assert_ok(&run(&[&record[..], &shape].concat(), None, &[]));
    }
    dir
}

/// Run `isel args` to completion under the watchdog, with `stdin` (or
/// nothing) as its input and `envs` added to its environment.
pub fn run(args: &[&str], stdin: Option<&Path>, envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args).envs(envs.iter().copied());
    match stdin {
        Some(p) => cmd.stdin(Stdio::from(File::open(p).unwrap())),
        None => cmd.stdin(Stdio::null()),
    };
    finish(cmd.stdout(Stdio::piped()), args)
}

/// [`run`] with no input and stdout sent to `stdout` rather than
/// captured: the `Output`'s stdout is empty.
pub fn run_to(args: &[&str], stdout: Stdio) -> Output {
    finish(Command::new(BIN).args(args).stdin(Stdio::null()).stdout(stdout), args)
}

/// Spawn `cmd` with stderr captured and wait for it under the watchdog.
fn finish(cmd: &mut Command, args: &[&str]) -> Output {
    let mut child = cmd.stderr(Stdio::piped()).spawn().expect("spawn isel");
    // Drained while it runs: a report larger than the pipe must not
    // stall the child into the watchdog.
    let drain = |mut pipe: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut bytes = Vec::new();
            pipe.read_to_end(&mut bytes).expect("read isel output");
            bytes
        })
    };
    let stdout = child.stdout.take().map(|pipe| drain(Box::new(pipe)));
    let stderr = drain(Box::new(child.stderr.take().unwrap()));
    let status = wait_bounded(&mut child, &format!("isel {args:?}"));
    let stdout = stdout.map_or_else(Vec::new, |t| t.join().unwrap());
    Output { status, stdout, stderr: stderr.join().unwrap() }
}

/// Wait for `child` to exit, killing it and failing past the watchdog.
fn wait_bounded(child: &mut Child, what: &str) -> ExitStatus {
    let deadline = Instant::now() + WATCHDOG;
    loop {
        if let Some(status) = child.try_wait().expect("wait isel") {
            return status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{what} deadlocked past the watchdog bound");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

pub fn assert_ok(out: &Output) {
    assert!(
        out.status.success(),
        "isel failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

pub fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

pub fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Borrow owned arguments as the `&str`s [`run`] takes.
pub fn strs(args: &[String]) -> Vec<&str> {
    args.iter().map(String::as_str).collect()
}

/// The report's `final selection` block.
pub fn final_selection(report: &str) -> String {
    let at = report.find("final selection").expect("report has a final selection block");
    report[at..].to_owned()
}

/// A report with its one placement-dependent number masked: the queue
/// high-water mark (pipes have no queue, and shard threads race for
/// theirs).
pub fn masked(report: &str) -> Vec<String> {
    let field = |f: &&str| !f.starts_with("queue high-water");
    report.lines().map(|l| l.split('\t').filter(field).collect::<Vec<_>>().join("\t")).collect()
}

/// `isel report --trace trace --check`, which must pass; its summary.
pub fn report_check(trace: &Path) -> String {
    let out = run(&["report", "--trace", trace.to_str().unwrap(), "--check"], None, &[]);
    assert_ok(&out);
    stdout(&out)
}

/// The bytes of the stream `log` that a crashed run's journal in
/// `state` had not yet consumed, written to `rest` so a restart can
/// read them as stdin.
pub fn remainder(log: &Path, state: &Path, rest: PathBuf) -> PathBuf {
    let full = std::fs::read(log).unwrap();
    let consumed = std::fs::metadata(state.join(JOURNAL)).map_or(0, |m| m.len()) as usize;
    assert!(
        consumed <= full.len(),
        "{JOURNAL} larger than the input stream ({consumed} > {})",
        full.len()
    );
    std::fs::write(&rest, &full[consumed..]).unwrap();
    rest
}

/// The final generation's group documents of the checkpoint whose
/// manifest is `manifest`, one compact JSON line per table group,
/// sorted by table: the state that must not depend on how the groups
/// were packed onto shards or processes.
pub fn groups(manifest: &Path) -> Vec<String> {
    let load = |path: &Path| -> serde_json::Value {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let files = load(manifest);
    let files = files.get("files").and_then(|f| f.as_array()).expect("manifest lists its files");
    let mut groups: Vec<(u64, String)> = Vec::new();
    for file in files {
        let doc = load(&manifest.with_file_name(file.as_str().expect("a file name")));
        for group in doc.get("groups").and_then(|g| g.as_array()).expect("a shard's groups") {
            let table = group.get("table").and_then(|t| t.as_u64()).expect("a group's table");
            groups.push((table, serde_json::to_string(group).unwrap()));
        }
    }
    groups.sort();
    groups.into_iter().map(|(_, g)| g).collect()
}

/// A `serve --socket` daemon that is killed and reaped when dropped, so
/// a failing assert cannot leak it.
pub struct Server(Child);

impl Server {
    /// Start `isel args`, which must bind `sock`, and wait until it has.
    pub fn start(args: &[&str], sock: &Path) -> Server {
        let child = Command::new(BIN)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn isel serve --socket");
        let mut server = Server(child);
        let deadline = Instant::now() + Duration::from_secs(20);
        while !sock.exists() {
            let exited = server.0.try_wait().expect("poll the server");
            assert!(exited.is_none(), "the server exited before binding its socket: {exited:?}");
            assert!(Instant::now() < deadline, "the server never bound {}", sock.display());
            std::thread::sleep(Duration::from_millis(20));
        }
        server
    }

    /// Wait, under the watchdog, for the server to exit on its own
    /// (after a client's `--shutdown`); it must exit cleanly.
    pub fn wait(mut self) {
        let status = wait_bounded(&mut self.0, "isel serve --socket");
        assert!(status.success(), "the server exited with {status}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}
