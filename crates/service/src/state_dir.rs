//! The state directory of `serve --state-dir DIR` (DESIGN.md §18): the
//! one owner of crash recovery's on-disk protocol, at both placements.
//!
//! It holds the input journal ([`JOURNAL`]: every consumed byte,
//! appended before the engine acts on it), the checkpoint manifest
//! ([`MANIFEST`], unless `--checkpoint` names another) beside its shard
//! files, and two sidecars for what no shard document holds: the status
//! counters ([`STATUS`]) and the run's epoch outcomes (`outcomes.json`),
//! which the committer rewrites on every commit edge.

use crate::config::ServiceConfig;
use crate::journal::read_journal_bytes;
use crate::router::{OverloadPolicy, Router, ServiceReport};
use crate::status::StatusBoard;
use crate::tuner::EpochOutcome;
use isel_core::{TraceEvent, TraceSink};
use isel_workload::Schema;
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use std::fs::File;
use std::io::{BufRead, Cursor, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// The input journal's file name.
pub const JOURNAL: &str = "journal.log";
/// The checkpoint manifest's file name, unless `--checkpoint` names
/// another path.
pub const MANIFEST: &str = "checkpoint.json";
/// The status counters' file name.
pub const STATUS: &str = "status.json";
const OUTCOMES: &str = "outcomes.json";

/// Serve `input` under the state directory `dir` (`checkpoint`
/// overrides the manifest path). A prior incarnation's committed
/// manifest restores the shards, its whole journal replays — what the
/// manifest covers counted, not routed or fired again
/// (`Stream::recover`) — and `input` follows, teed into the same
/// journal: the report, manifest and shard documents come out
/// byte-identical to an uninterrupted run's over the same stream.
///
/// A full shard queue blocks, as worker pipes do: a shed event would be
/// in the journal but not in the state it recovers.
///
/// # Errors
///
/// Returns a manifest without its journal, everything
/// [`Router::run_reader`] returns, and `journal write errors: N` when
/// an append to the journal failed. The run goes on past such a
/// failure, and the journal stays an exact byte prefix of the stream.
pub fn run_state_dir(
    schema: &Schema,
    config: ServiceConfig,
    dir: &Path,
    checkpoint: Option<&Path>,
    input: &mut (dyn BufRead + Send),
    sinks: &[&dyn TraceSink],
) -> Result<ServiceReport, String> {
    let opened = Instant::now();
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create state dir {}: {e}", dir.display()))?;
    let manifest = checkpoint.map_or_else(|| dir.join(MANIFEST), Path::to_path_buf);
    let journal = dir.join(JOURNAL);
    let prior = if journal.exists() { read_journal_bytes(&journal)? } else { Vec::new() };
    let mut router = match (manifest.exists(), prior.is_empty()) {
        // Replay positions line up with the manifest's routed count only
        // if the journal spans the stream from byte 0.
        (true, true) => {
            return Err(format!(
                "state dir {} holds a checkpoint manifest but no journal; recovery needs \
                 both (to adopt a foreign checkpoint, resume once with --resume \
                 --checkpoint and a fresh state dir)",
                dir.display()
            ))
        }
        (true, false) => Router::resume(schema.clone(), config, &manifest)?,
        (false, _) => Router::new(schema.clone(), config)?,
    };
    let (status, board) = (read_json::<Status>(&dir.join(STATUS)), &router.board);
    board.failovers.store(status.failovers, Ordering::Relaxed);
    board.restarts.store(status.restarts, Ordering::Relaxed);
    board.reply_errors.store(status.reply_errors, Ordering::Relaxed);
    if !prior.is_empty() {
        eprintln!("replaying {} journal bytes from {}", prior.len(), journal.display());
        router.stream.recover();
        for outcome in read_json::<Vec<EpochOutcome>>(&dir.join(OUTCOMES)) {
            router.outcomes.insert(outcome);
        }
        board.epochs.store(router.outcomes.lock().len() as u64, Ordering::Relaxed);
        let (skipped, generation) = router.stream.skipped();
        if let Some(sink) = sinks.first() {
            let journal_bytes = prior.len() as u64;
            let micros = opened.elapsed().as_micros() as u64;
            sink.record(TraceEvent::Recovery { generation, skipped, journal_bytes, micros });
        }
    }
    router.state_dir = Some(dir.to_path_buf());
    let mut tee = TeeReader::create(input, &journal)?;
    let mut input = Cursor::new(prior).chain(&mut tee);
    let report = router.run_reader(&mut input, OverloadPolicy::Block, Some(&manifest), sinks)?;
    match tee.errors {
        0 => Ok(report),
        n => Err(format!("journal write errors: {n}")),
    }
}

/// Rewrite the sidecars in `dir`, best-effort (tmp + rename). The
/// committer calls this on every commit edge before the manifest, so a
/// restart finds the outcome of every epoch the manifest covers (and
/// perhaps a few the replay re-reports under the same keys).
pub(crate) fn persist(dir: &Path, board: &StatusBoard, outcomes: &Outcomes) {
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let (failovers, restarts) = (load(&board.failovers), load(&board.restarts));
    let reply_errors = load(&board.reply_errors);
    write_json(&dir.join(STATUS), &Status { failovers, restarts, reply_errors });
    write_json(&dir.join(OUTCOMES), &outcomes.lock().values().collect::<Vec<_>>());
}

/// The sidecar at `path`; the default if it is missing or unreadable (a
/// fresh directory, or a crash before the first commit edge): a sidecar
/// never blocks recovery.
fn read_json<T: Deserialize + Default>(path: &Path) -> T {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    serde_json::from_str(&text).unwrap_or_default()
}

fn write_json<T: Serialize + ?Sized>(path: &Path, value: &T) {
    if let Ok(json) = serde_json::to_string(value) {
        let _ = crate::checkpoint::atomic_write(path, json.as_bytes(), None);
    }
}

/// The status counters a restart carries over — history, not tuning
/// state, so never in a checkpoint document.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct Status {
    #[serde(default)]
    failovers: u64,
    #[serde(default)]
    restarts: u64,
    #[serde(default)]
    reply_errors: u64,
}

/// The run's epoch outcomes by `(table, epoch)`, `u16::MAX` standing
/// for the whole-workload group: the report's canonical order, which
/// shard packing never changes. Both placements deliver into it once
/// per sealed epoch, and the key drops the bit-identical outcome a
/// failover or a recovery replay reports again.
#[derive(Default)]
pub(crate) struct Outcomes(Mutex<BTreeMap<(u16, u64), EpochOutcome>>);

impl Outcomes {
    /// Keep `outcome` unless its epoch is in already; whether it was
    /// new.
    pub(crate) fn insert(&self, outcome: EpochOutcome) -> bool {
        let key = (outcome.table.map_or(u16::MAX, |t| t.0), outcome.epoch);
        match self.lock().entry(key) {
            Entry::Vacant(slot) => {
                slot.insert(outcome);
                true
            }
            Entry::Occupied(_) => false,
        }
    }

    /// Every outcome, in canonical order.
    pub(crate) fn take(&self) -> Vec<EpochOutcome> {
        std::mem::take(&mut *self.lock()).into_values().collect()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<(u16, u64), EpochOutcome>> {
        self.0.lock().expect("outcomes lock poisoned")
    }
}

/// A [`BufRead`] adapter that appends every byte the caller **consumes**
/// to the journal, in [`BufRead::consume`]: before the bytes leave the
/// inner buffer, so the journal covers everything the engine acted on.
/// (It may end inside a line; a restart resumes the live stream at byte
/// `journal.len()`, so torn lines reassemble across the boundary.)
///
/// A failed append is counted and ends the appending, so the journal
/// stays an exact byte prefix of the stream; each later consume counts
/// one more.
struct TeeReader<'a> {
    inner: &'a mut (dyn BufRead + Send),
    /// `None` once an append failed.
    out: Option<File>,
    errors: u64,
}

impl<'a> TeeReader<'a> {
    /// Tee `inner` into the file at `path`, appending (a restart
    /// continues the prior incarnation's journal).
    fn create(inner: &'a mut (dyn BufRead + Send), path: &Path) -> Result<Self, String> {
        let out = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open journal {}: {e}", path.display()))?;
        Ok(Self { inner, out: Some(out), errors: 0 })
    }

    /// Append the `amt` bytes the caller is releasing: `fill_buf` on a
    /// filled buffer re-reads exactly those.
    fn append(&mut self, amt: usize) -> Result<(), String> {
        let Some(out) = &mut self.out else { return Err("the journal stopped".into()) };
        crate::fault::fire(crate::fault::JOURNAL_APPEND, 0)?;
        let buf = self.inner.fill_buf().map_err(|e| e.to_string())?;
        let n = amt.min(buf.len());
        out.write_all(&buf[..n]).and_then(|()| out.flush()).map_err(|e| e.to_string())
    }
}

impl Read for TeeReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for TeeReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        if amt > 0 && self.append(amt).is_err() {
            self.errors += 1;
            self.out = None;
        }
        self.inner.consume(amt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("isel-state-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn tee_reader_journals_exactly_the_consumed_bytes() {
        let path = tmp("tee.log");
        let _ = std::fs::remove_file(&path);
        let input = b"{\"table\":0,\"attrs\":[0]}\nsecond line\npartial";
        let mut reader = &input[..];
        let mut tee = TeeReader::create(&mut reader, &path).unwrap();
        let mut line = Vec::new();
        tee.read_until(b'\n', &mut line).unwrap();
        assert_eq!(line, b"{\"table\":0,\"attrs\":[0]}\n");
        // Consumed bytes are on disk before the caller acts on them.
        assert_eq!(std::fs::read(&path).unwrap(), line);
        let mut rest = Vec::new();
        tee.read_to_end(&mut rest).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), input, "journal holds the full stream");
        assert_eq!(tee.errors, 0);

        // A second incarnation appends after the prior journal.
        let mut reader = &b" tail\n"[..];
        let mut tee = TeeReader::create(&mut reader, &path).unwrap();
        let mut all = Vec::new();
        tee.read_to_end(&mut all).unwrap();
        let full = std::fs::read(&path).unwrap();
        assert!(full.ends_with(b"partial tail\n"), "torn line reassembles across restarts");
    }

    #[test]
    fn status_round_trips_and_tolerates_absence() {
        let dir = tmp("status");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(STATUS);
        let _ = std::fs::remove_file(&path);
        assert_eq!(read_json::<Status>(&path), Status::default());

        let board = StatusBoard::new(2);
        board.failovers.store(3, Ordering::Relaxed);
        board.restarts.store(1, Ordering::Relaxed);
        board.reply_errors.store(7, Ordering::Relaxed);
        persist(&dir, &board, &Outcomes::default());
        let want = Status { failovers: 3, restarts: 1, reply_errors: 7 };
        assert_eq!(read_json::<Status>(&path), want);
        assert!(read_json::<Vec<EpochOutcome>>(&dir.join(OUTCOMES)).is_empty());

        std::fs::write(&path, "not json").unwrap();
        assert_eq!(read_json::<Status>(&path), Status::default());
    }

    #[test]
    fn a_failed_append_ends_the_journal_at_a_prefix_and_counts() {
        let path = tmp("tee-fail.log");
        let _ = std::fs::remove_file(&path);
        let input = b"one\ntwo\nthree\n";
        let mut reader = &input[..];
        let mut tee = TeeReader::create(&mut reader, &path).unwrap();
        let mut line = Vec::new();
        tee.read_until(b'\n', &mut line).unwrap();
        // A read-only handle in place of the journal: the next append fails.
        tee.out = Some(File::open(&path).unwrap());
        let mut rest = Vec::new();
        tee.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"two\nthree\n", "the reader passes every byte on");
        assert_eq!(std::fs::read(&path).unwrap(), b"one\n", "the journal stops at a prefix");
        assert!(tee.errors >= 1);
        assert!(tee.out.is_none(), "no append after the first failure");
    }
}
