//! Live service status: shared counters plus a single-JSON-line
//! rendering for scraping.
//!
//! A [`StatusBoard`] is a set of relaxed atomics the ingestion and
//! tuning paths bump as they go; [`StatusBoard::line`] renders the
//! aggregated [`crate::ServiceReport`]-style counters as one JSON
//! object. Two triggers emit the line while the service runs:
//!
//! * `SIGUSR1` — [`install_status_signal`] registers an
//!   async-signal-safe handler that only sets a flag; the consume loops
//!   poll [`take_status_signal`] and print the line to stderr,
//! * a `{"control":"status"}` line — the socket path writes the line
//!   back on the requesting connection; stdin paths print to stderr.
//!
//! The handler is installed via `sigaction(2)` with `SA_RESTART` — not
//! the legacy `signal(2)`, whose one-shot/`EINTR` semantics are
//! implementation-defined — and its body does exactly one
//! async-signal-safe thing: store to a static `AtomicBool`. Everything
//! else (formatting, I/O) happens on the polling thread. A worker
//! process's death needs no signal: the supervisor sees EOF on its pipe
//! or a failed write to it (`crate::process`).
//!
//! Status is out of band by design: it is never queued with events and
//! therefore cannot perturb replay determinism.

use crate::feedback::CalCounters;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Shared live counters of one service run.
#[derive(Debug, Default)]
pub struct StatusBoard {
    /// Valid query events ingested (this run).
    pub ingested: AtomicU64,
    /// Invalid lines skipped (this run).
    pub invalid: AtomicU64,
    /// Epochs sealed and tuned (this run).
    pub epochs: AtomicU64,
    /// Checkpoints committed (this run).
    pub checkpoints: AtomicU64,
    /// Worker-process failovers absorbed (shard state restored from the
    /// last committed manifest generation and its journal tail
    /// replayed; 0 outside supervisor mode).
    pub failovers: AtomicU64,
    /// Worker processes respawned after a crash (≤ `failovers`; a
    /// failover without `--respawn` adopts onto a survivor instead).
    pub restarts: AtomicU64,
    /// Socket replies lost to a client that disconnected mid-reply
    /// (EPIPE/partial write on a whatif/tenant/status response; the
    /// serving loop keeps going).
    pub reply_errors: AtomicU64,
    /// Observed-cost calibration counters (all zero with calibration
    /// disabled; see [`crate::feedback`]).
    pub cal: CalCounters,
    /// The run's `--shards` (0 = the whole workload as one group, which
    /// runs on one shard).
    pub shards: u32,
}

impl StatusBoard {
    /// Fresh board for a `--shards shards` run.
    pub fn new(shards: u32) -> Self {
        Self { shards, ..Self::default() }
    }

    /// Render the aggregated counters as a single JSON status line.
    /// `dropped` is passed in because queue eviction counts live in the
    /// queues themselves; `queue_depths` (one entry per shard queue, in
    /// shard order; a single entry under whole-workload tuning) is a
    /// point-in-time backlog sample — the live observability signal for
    /// a shard falling behind; `allocations` is the arbiter's current
    /// per-group budget split (`[table, bytes]` pairs, sorted by table;
    /// empty before anything was published).
    pub fn line(&self, dropped: u64, queue_depths: &[u64], allocations: &[(u16, u64)]) -> String {
        use std::fmt::Write as _;
        let mut queues = String::new();
        for (i, d) in queue_depths.iter().enumerate() {
            if i > 0 {
                queues.push(',');
            }
            let _ = write!(queues, "{d}");
        }
        let mut allocs = String::new();
        for (i, (t, a)) in allocations.iter().enumerate() {
            if i > 0 {
                allocs.push(',');
            }
            let _ = write!(allocs, "[{t},{a}]");
        }
        format!(
            "{{\"status\":{{\"shards\":{},\"ingested\":{},\"invalid\":{},\"dropped\":{},\
             \"epochs\":{},\"checkpoints\":{},\"failovers\":{},\"restarts\":{},\
             \"reply_errors\":{},\"queues\":[{queues}],\
             \"allocations\":[{allocs}],\"calibration\":{}}}}}",
            self.shards,
            self.ingested.load(Ordering::Relaxed),
            self.invalid.load(Ordering::Relaxed),
            dropped,
            self.epochs.load(Ordering::Relaxed),
            self.checkpoints.load(Ordering::Relaxed),
            self.failovers.load(Ordering::Relaxed),
            self.restarts.load(Ordering::Relaxed),
            self.reply_errors.load(Ordering::Relaxed),
            self.cal.snapshot().render_inner(),
        )
    }
}

/// The status counters that survive a supervisor restart, persisted as
/// a JSON sidecar in the state directory (never inside the checkpoint
/// manifest — recovery keeps checkpoint bytes identical to a clean
/// run's, and these counters are history, not tuning state). The
/// restarted supervisor seeds its fresh [`StatusBoard`] from the
/// sidecar, so `{"control":"status"}` reports lifetime totals.
#[derive(Debug, Default, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PersistedStatus {
    /// Lifetime worker failovers absorbed.
    #[serde(default)]
    pub failovers: u64,
    /// Lifetime worker respawns.
    #[serde(default)]
    pub restarts: u64,
    /// Lifetime reply-write errors.
    #[serde(default)]
    pub reply_errors: u64,
}

impl PersistedStatus {
    /// Load from `path`; a missing or unreadable sidecar is a fresh
    /// history (all zero), never an error — status must not block
    /// recovery.
    pub fn load(path: &std::path::Path) -> Self {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .unwrap_or_default()
    }

    /// Snapshot the persisted subset of a live board.
    pub fn capture(board: &StatusBoard) -> Self {
        Self {
            failovers: board.failovers.load(Ordering::Relaxed),
            restarts: board.restarts.load(Ordering::Relaxed),
            reply_errors: board.reply_errors.load(Ordering::Relaxed),
        }
    }

    /// Seed a board's counters from this history.
    pub fn apply(&self, board: &StatusBoard) {
        board.failovers.store(self.failovers, Ordering::Relaxed);
        board.restarts.store(self.restarts, Ordering::Relaxed);
        board.reply_errors.store(self.reply_errors, Ordering::Relaxed);
    }

    /// Atomically write to `path` (`<path>.tmp` + rename).
    ///
    /// # Errors
    ///
    /// Returns write/rename failures (callers treat them as
    /// best-effort).
    pub fn save(&self, path: &std::path::Path) -> Result<(), String> {
        let json = serde_json::to_string(self).map_err(|e| format!("serialize status: {e}"))?;
        crate::checkpoint::atomic_write(path, json.as_bytes(), None)
    }
}

/// Set by the `SIGUSR1` handler, consumed by [`take_status_signal`].
static STATUS_REQUESTED: AtomicBool = AtomicBool::new(false);

/// `SIGUSR1` on Linux and most Unixes. Kept local instead of pulling in
/// a libc dependency for one constant.
#[cfg(unix)]
const SIGUSR1: i32 = 10;

/// Restart interrupted syscalls instead of surfacing `EINTR` to every
/// blocking read in the service (`SA_RESTART`).
#[cfg(unix)]
const SA_RESTART: i32 = 0x1000_0000;

/// Subset of `struct sigaction` (Linux x86-64/aarch64 layout): handler
/// pointer, blocked-signal mask, flags, legacy restorer slot. The mask
/// is zeroed — the handler only stores to an atomic, so nothing needs
/// blocking while it runs.
#[cfg(unix)]
#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[cfg(unix)]
extern "C" {
    /// `sigaction(2)` from the platform libc (which std already links).
    /// Used instead of `signal(2)`, whose reset-to-default and
    /// syscall-interruption semantics are implementation-defined.
    fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
}

#[cfg(unix)]
extern "C" fn on_sigusr1(_sig: i32) {
    // Only async-signal-safe work here: set the flag, nothing else.
    STATUS_REQUESTED.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
fn install_flag_handler(signum: i32, handler: extern "C" fn(i32)) {
    let act = SigAction {
        handler: handler as usize,
        mask: [0; 16],
        flags: SA_RESTART,
        restorer: 0,
    };
    // SAFETY: `act` is a valid sigaction for this platform ABI and the
    // handler only stores to a static atomic (async-signal-safe).
    unsafe {
        sigaction(signum, &act, std::ptr::null_mut());
    }
}

/// Install the `SIGUSR1` status handler (idempotent). On non-Unix
/// targets this is a no-op and status lines are only reachable via the
/// `{"control":"status"}` event.
pub fn install_status_signal() {
    #[cfg(unix)]
    install_flag_handler(SIGUSR1, on_sigusr1);
}

/// Consume a pending `SIGUSR1` status request, if one arrived since the
/// last call.
pub fn take_status_signal() -> bool {
    STATUS_REQUESTED.swap(false, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_is_valid_json_with_all_counters() {
        let board = StatusBoard::new(4);
        board.ingested.store(10, Ordering::Relaxed);
        board.invalid.store(2, Ordering::Relaxed);
        board.epochs.store(3, Ordering::Relaxed);
        board.checkpoints.store(1, Ordering::Relaxed);
        let line = board.line(7, &[5, 0, 12, 3], &[(0, 4096), (2, 1024)]);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        let s = v.get("status").expect("status object");
        let field = |key: &str| s.get(key).and_then(|f| f.as_u64());
        assert_eq!(field("shards"), Some(4));
        assert_eq!(field("ingested"), Some(10));
        assert_eq!(field("invalid"), Some(2));
        assert_eq!(field("dropped"), Some(7));
        assert_eq!(field("epochs"), Some(3));
        assert_eq!(field("checkpoints"), Some(1));
        board.failovers.store(2, Ordering::Relaxed);
        board.restarts.store(1, Ordering::Relaxed);
        board.reply_errors.store(4, Ordering::Relaxed);
        let line2 = board.line(7, &[0], &[]);
        let v2: serde_json::Value = serde_json::from_str(&line2).unwrap();
        let s2 = v2.get("status").unwrap();
        let field2 = |key: &str| s2.get(key).and_then(|f| f.as_u64());
        assert_eq!(field2("failovers"), Some(2));
        assert_eq!(field2("restarts"), Some(1));
        assert_eq!(field2("reply_errors"), Some(4));
        let queues: Vec<u64> = s
            .get("queues")
            .and_then(|q| q.as_array())
            .expect("queues array")
            .iter()
            .map(|d| d.as_u64().unwrap())
            .collect();
        assert_eq!(queues, vec![5, 0, 12, 3], "one depth per shard, in shard order");
        let allocs: Vec<Vec<u64>> = s
            .get("allocations")
            .and_then(|a| a.as_array())
            .expect("allocations array")
            .iter()
            .map(|pair| {
                pair.as_array().unwrap().iter().map(|v| v.as_u64().unwrap()).collect()
            })
            .collect();
        assert_eq!(allocs, vec![vec![0, 4096], vec![2, 1024]], "per-group budget split");
        board.cal.probes.store(9, Ordering::Relaxed);
        board.cal.opened.store(2, Ordering::Relaxed);
        board.cal.promoted.store(1, Ordering::Relaxed);
        board.cal.hist[4].store(5, Ordering::Relaxed);
        let line3 = board.line(0, &[0], &[]);
        let v3: serde_json::Value = serde_json::from_str(&line3).unwrap();
        let cal = v3
            .get("status")
            .and_then(|s| s.get("calibration"))
            .expect("calibration object");
        let cfield = |key: &str| cal.get(key).and_then(|f| f.as_u64());
        assert_eq!(cfield("probes"), Some(9));
        assert_eq!(cfield("opened"), Some(2));
        assert_eq!(cfield("promoted"), Some(1));
        assert_eq!(cfield("in_flight"), Some(1), "opened - promoted - rolled_back");
        assert_eq!(cal.get("hist").and_then(|h| h.as_array()).unwrap().len(), 8);
        assert!(!line.contains('\n'), "one line, scrape-friendly");
    }

    #[test]
    fn persisted_status_round_trips_and_tolerates_absence() {
        let dir = std::env::temp_dir().join("isel-status-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("status.json");
        let _ = std::fs::remove_file(&path);
        assert_eq!(PersistedStatus::load(&path), PersistedStatus::default());

        let board = StatusBoard::new(2);
        board.failovers.store(3, Ordering::Relaxed);
        board.restarts.store(1, Ordering::Relaxed);
        board.reply_errors.store(7, Ordering::Relaxed);
        PersistedStatus::capture(&board).save(&path).unwrap();

        let fresh = StatusBoard::new(2);
        PersistedStatus::load(&path).apply(&fresh);
        assert_eq!(fresh.failovers.load(Ordering::Relaxed), 3);
        assert_eq!(fresh.restarts.load(Ordering::Relaxed), 1);
        assert_eq!(fresh.reply_errors.load(Ordering::Relaxed), 7);

        std::fs::write(&path, "not json").unwrap();
        assert_eq!(PersistedStatus::load(&path), PersistedStatus::default());
    }

    #[cfg(unix)]
    #[test]
    fn sigusr1_sets_and_take_clears_the_flag() {
        install_status_signal();
        assert!(!take_status_signal());
        // SAFETY: raising a signal at our own process whose handler only
        // sets an AtomicBool.
        unsafe {
            extern "C" {
                fn raise(sig: i32) -> i32;
            }
            raise(SIGUSR1);
        }
        assert!(take_status_signal());
        assert!(!take_status_signal(), "take consumes the request");
    }
}
