//! Deterministic fault-point registry (`ISEL_FAULT_SCHEDULE`).
//!
//! Crash-recovery guarantees are only as good as the crash points they
//! are exercised at. This module grows the two ad-hoc kill hooks the
//! failover tests used (`ISEL_FAULT_KILL_AFTER`,
//! `ISEL_FAULT_KILL_AT_CHECKPOINT`) into a registry of **named fault
//! sites** threaded through the supervisor, the workers, the journal
//! writer and the checkpoint committer. A test enumerates *where* in
//! the protocol to fault — "the 2nd manifest commit", "the 25th event
//! ingested on shard 0" — instead of racing a byte offset, so every
//! recovery sweep is reproducible.
//!
//! # Schedule grammar
//!
//! ```text
//! ISEL_FAULT_SCHEDULE = entry (';' entry)*
//! entry               = site ['@' scope] ':' hit [':' action]
//! action              = 'kill' | 'stall' ['(' millis ')'] | 'error'
//! ```
//!
//! * `site` — one of the [`SITES`] names below.
//! * `scope` — a site-specific `u32` (shard, worker slot, or
//!   generation); omitted = match every scope.
//! * `hit` — fire on the `hit`-th time this entry matches (1-based).
//! * `action` — `kill` (default): `SIGKILL` the current process;
//!   `stall(ms)`: sleep, then continue (default 250 ms, capped at 5 s);
//!   `error`: return an injected error from the fault point.
//!
//! Example: `sup.commit@2:1;worker.ingest@0:25:stall(100)` kills the
//! supervisor the first time checkpoint generation 2 commits, and
//! stalls shard 0's worker for 100 ms after its 25th ingested event.
//!
//! # Scoping across processes
//!
//! The supervisor parses the schedule from its own environment and
//! fires the `sup.*` / `journal.*` / `checkpoint.*` sites in-process.
//! `worker.*` entries are re-serialized into the environment of exactly
//! **one** child each — the initial owner slot of the entry's scope
//! shard — and stripped from every other child and every respawn, so an
//! induced worker crash cannot recur on the adopting survivor
//! (see `process.rs`).
//!
//! Each entry keeps its own hit counter; counters are process-local and
//! never reset, so a schedule describes one deterministic fault plan
//! per process lifetime.

use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Environment variable carrying the fault schedule.
pub const ENV_SCHEDULE: &str = "ISEL_FAULT_SCHEDULE";

/// Worker: after ingesting the `hit`-th valid event on shard `scope`.
pub const WORKER_INGEST: &str = "worker.ingest";
/// Worker: after writing the shard-checkpoint file for shard `scope`,
/// *before* reporting `CheckpointDone` — a torn checkpoint attempt.
/// Generations save sequentially, so `hit` = generation for the
/// initially-scheduled worker.
pub const WORKER_CHECKPOINT: &str = "worker.checkpoint";
/// Supervisor: routing the `hit`-th line bound for shard `scope`,
/// before the tail append and the pipe write.
pub const SUP_ROUTE: &str = "sup.route";
/// Supervisor: opening checkpoint generation `scope` with the
/// committer, before any barrier frame is written.
pub const SUP_BARRIER_OPEN: &str = "sup.barrier.open";
/// Supervisor: committing generation `scope` — the last shard file just
/// arrived, the manifest is not yet written.
pub const SUP_COMMIT: &str = "sup.commit";
/// Supervisor: generation `scope` just committed, journal tails not yet
/// truncated.
pub const SUP_TRUNCATE: &str = "sup.truncate";
/// Supervisor: a dead worker slot `scope` entered failover, before any
/// shard is restored.
pub const SUP_FAILOVER: &str = "sup.failover";
/// Supervisor: about to build the `Adopt` hand-off for shard `scope`
/// during a failover.
pub const SUP_ADOPT: &str = "sup.adopt";
/// Checkpoint layer: the manifest `.tmp` for generation `scope` is on
/// disk, the rename is not — the torn-manifest window the crash-safe
/// probe must survive.
pub const CHECKPOINT_MANIFEST: &str = "checkpoint.manifest";
/// Journal layer: appending consumed input bytes to the write-ahead
/// journal (scope 0).
pub const JOURNAL_APPEND: &str = "journal.append";
/// Journal layer: rotating into a new segment (scope 0).
pub const JOURNAL_ROTATE: &str = "journal.rotate";

/// Every registered site name, for validation and sweeps.
pub const SITES: &[&str] = &[
    WORKER_INGEST,
    WORKER_CHECKPOINT,
    SUP_ROUTE,
    SUP_BARRIER_OPEN,
    SUP_COMMIT,
    SUP_TRUNCATE,
    SUP_FAILOVER,
    SUP_ADOPT,
    CHECKPOINT_MANIFEST,
    JOURNAL_APPEND,
    JOURNAL_ROTATE,
];

/// The supervisor-process sites on the commit, route and failover
/// paths — the set the restart sweep test walks, killing the
/// supervisor at each and asserting byte-identical recovery.
pub const SUPERVISOR_SWEEP_SITES: &[&str] = &[
    SUP_ROUTE,
    SUP_BARRIER_OPEN,
    SUP_COMMIT,
    SUP_TRUNCATE,
    SUP_FAILOVER,
    SUP_ADOPT,
    CHECKPOINT_MANIFEST,
    JOURNAL_APPEND,
];

/// What a firing fault entry does to the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// `SIGKILL` the current process (the default).
    Kill,
    /// Sleep this many milliseconds (capped at 5000), then continue.
    Stall(u64),
    /// Return an injected error from the fault point.
    Error,
}

/// One parsed schedule entry: `site[@scope]:hit[:action]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Site name (one of [`SITES`]).
    pub site: String,
    /// Site-specific scope to match; `None` matches every scope.
    pub scope: Option<u32>,
    /// Fire on the `hit`-th match (1-based).
    pub hit: u64,
    /// What to do when firing.
    pub action: Action,
}

impl Entry {
    /// Re-serialize to the schedule grammar (parse-round-trip exact).
    pub fn spec(&self) -> String {
        let scope = self.scope.map_or(String::new(), |s| format!("@{s}"));
        let action = match self.action {
            Action::Kill => String::new(),
            Action::Stall(ms) => format!(":stall({ms})"),
            Action::Error => ":error".to_owned(),
        };
        format!("{}{scope}:{}{action}", self.site, self.hit)
    }
}

/// A parsed `ISEL_FAULT_SCHEDULE`: an ordered list of [`Entry`]s, each
/// with an independent hit counter at runtime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schedule {
    entries: Vec<Entry>,
}

impl Schedule {
    /// Parse a schedule spec. Empty specs parse to an empty schedule.
    ///
    /// # Errors
    ///
    /// Returns the first malformed entry, or an unknown site name.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            entries.push(parse_entry(part)?);
        }
        Ok(Self { entries })
    }

    /// The sub-schedule the supervisor hands to worker slot `slot` (of
    /// `workers`): the `worker.*` entries whose scope shard initially
    /// lives on that slot. `None` when no entry targets the slot.
    pub fn worker_spec(&self, slot: u32, workers: u32) -> Option<String> {
        if workers == 0 {
            return None;
        }
        let mine: Vec<String> = self
            .entries
            .iter()
            .filter(|e| is_worker_site(&e.site) && e.scope.unwrap_or(0) % workers == slot)
            .map(Entry::spec)
            .collect();
        if mine.is_empty() {
            None
        } else {
            Some(mine.join(";"))
        }
    }

    /// Index of the entry that fires for this `(site, scope)` hit, if
    /// any — the pure matching core of [`fire`]. `hits` carries one
    /// counter per entry and is updated in place.
    fn fire_on(&self, hits: &mut [u64], site: &str, scope: u32) -> Option<usize> {
        for (i, e) in self.entries.iter().enumerate() {
            if e.site == site && e.scope.is_none_or(|s| s == scope) {
                hits[i] += 1;
                if hits[i] == e.hit {
                    return Some(i);
                }
            }
        }
        None
    }
}

/// Is `site` a worker-process site (scoped to one child by the
/// supervisor) as opposed to a supervisor-process one?
pub fn is_worker_site(site: &str) -> bool {
    site.starts_with("worker.")
}

fn parse_entry(part: &str) -> Result<Entry, String> {
    let (head, rest) = part
        .split_once(':')
        .ok_or_else(|| format!("fault entry {part:?} is not site[@scope]:hit[:action]"))?;
    let (site, scope) = match head.split_once('@') {
        Some((s, v)) => {
            let scope: u32 = v
                .trim()
                .parse()
                .map_err(|e| format!("fault scope {:?}: {e}", v.trim()))?;
            (s.trim(), Some(scope))
        }
        None => (head.trim(), None),
    };
    if !SITES.contains(&site) {
        return Err(format!(
            "unknown fault site {site:?} (registered: {})",
            SITES.join(", ")
        ));
    }
    let (hit_str, action_str) = match rest.split_once(':') {
        Some((h, a)) => (h, Some(a)),
        None => (rest, None),
    };
    let hit: u64 = hit_str
        .trim()
        .parse()
        .map_err(|e| format!("fault hit count {:?}: {e}", hit_str.trim()))?;
    if hit == 0 {
        return Err(format!("fault entry {part:?}: hit counts are 1-based"));
    }
    let action = match action_str.map(str::trim) {
        None | Some("kill") => Action::Kill,
        Some("stall") => Action::Stall(250),
        Some("error") => Action::Error,
        Some(a) => {
            let ms = a
                .strip_prefix("stall(")
                .and_then(|t| t.strip_suffix(')'))
                .and_then(|t| t.trim().parse::<u64>().ok())
                .ok_or_else(|| format!("unknown fault action {a:?}"))?;
            Action::Stall(ms)
        }
    };
    Ok(Entry { site: site.to_owned(), scope, hit, action })
}

/// Process-global schedule, parsed from [`ENV_SCHEDULE`] on first use.
/// A parse error disables injection (faults are a test-only facility;
/// they must never take down a production process over a typo) but is
/// reported once on stderr.
struct Runtime {
    schedule: Schedule,
    hits: Mutex<Vec<u64>>,
}

static RUNTIME: OnceLock<Option<Runtime>> = OnceLock::new();

fn runtime() -> Option<&'static Runtime> {
    RUNTIME
        .get_or_init(|| {
            let spec = std::env::var(ENV_SCHEDULE).ok()?;
            match Schedule::parse(&spec) {
                Ok(s) if !s.entries.is_empty() => {
                    let hits = Mutex::new(vec![0; s.entries.len()]);
                    Some(Runtime { schedule: s, hits })
                }
                Ok(_) => None,
                Err(e) => {
                    eprintln!("ignoring {ENV_SCHEDULE}: {e}");
                    None
                }
            }
        })
        .as_ref()
}

/// Pass through a named fault point. With no schedule (the production
/// fast path: one `OnceLock` load) this is a no-op returning `Ok`.
/// With a matching scheduled entry at its hit count: `kill` never
/// returns, `stall` sleeps then returns `Ok`, `error` returns the
/// injected error message.
///
/// # Errors
///
/// Returns the injected message for an `error`-action entry.
pub fn fire(site: &str, scope: u32) -> Result<(), String> {
    let Some(rt) = runtime() else { return Ok(()) };
    let fired = {
        let mut hits = rt.hits.lock().expect("fault hit counters poisoned");
        rt.schedule.fire_on(&mut hits, site, scope)
    };
    let Some(i) = fired else { return Ok(()) };
    let e = &rt.schedule.entries[i];
    match e.action {
        Action::Kill => kill_self(),
        Action::Stall(ms) => {
            std::thread::sleep(Duration::from_millis(ms.min(5000)));
            Ok(())
        }
        Action::Error => Err(format!(
            "injected fault: {site}@{scope} (hit {})",
            e.hit
        )),
    }
}

/// `SIGKILL` the current process — the fault-injection crash. Never
/// returns control to the faulted path, exactly like a real crash.
fn kill_self() -> Result<(), String> {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
        fn getpid() -> i32;
    }
    const SIGKILL: i32 = 9;
    // SAFETY: signalling our own pid with SIGKILL; the process dies
    // before the call returns.
    unsafe {
        kill(getpid(), SIGKILL);
    }
    unreachable!("survived SIGKILL");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        let s = Schedule::parse(
            "sup.commit@2:1; worker.ingest@0:25:stall(100) ;journal.append:3:error;\
             worker.checkpoint@1:2:kill",
        )
        .unwrap();
        assert_eq!(
            s.entries,
            [
                Entry {
                    site: SUP_COMMIT.into(),
                    scope: Some(2),
                    hit: 1,
                    action: Action::Kill
                },
                Entry {
                    site: WORKER_INGEST.into(),
                    scope: Some(0),
                    hit: 25,
                    action: Action::Stall(100)
                },
                Entry {
                    site: JOURNAL_APPEND.into(),
                    scope: None,
                    hit: 3,
                    action: Action::Error
                },
                Entry {
                    site: WORKER_CHECKPOINT.into(),
                    scope: Some(1),
                    hit: 2,
                    action: Action::Kill
                },
            ]
        );
    }

    #[test]
    fn spec_round_trips() {
        let spec = "sup.commit@2:1;worker.ingest@0:25:stall(100);journal.append:3:error";
        let s = Schedule::parse(spec).unwrap();
        let rendered: Vec<String> = s.entries.iter().map(Entry::spec).collect();
        assert_eq!(rendered.join(";"), spec);
    }

    #[test]
    fn rejects_malformed_entries() {
        for bad in [
            "nonsense",
            "sup.commit",
            "not.a.site:1",
            "sup.commit@x:1",
            "sup.commit:0",
            "sup.commit:1:explode",
            "sup.commit:1:stall(x)",
        ] {
            assert!(Schedule::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(Schedule::parse("").unwrap().entries.len(), 0);
        assert_eq!(Schedule::parse(" ; ").unwrap().entries.len(), 0);
    }

    #[test]
    fn every_registered_site_parses() {
        for site in SITES {
            let s = Schedule::parse(&format!("{site}@0:1")).unwrap();
            assert_eq!(s.entries.len(), 1);
        }
        for site in SUPERVISOR_SWEEP_SITES {
            assert!(SITES.contains(site), "sweep site {site} must be registered");
            assert!(!is_worker_site(site), "sweep kills the supervisor, not a worker");
        }
    }

    #[test]
    fn fire_on_counts_hits_per_entry_and_scope() {
        let s = Schedule::parse("worker.ingest@0:3;worker.ingest@1:1;sup.route:2").unwrap();
        let mut hits = vec![0u64; 3];
        // Shard 1's first ingest fires its entry immediately.
        assert_eq!(s.fire_on(&mut hits, WORKER_INGEST, 1), Some(1));
        // Shard 0 needs three hits; shard 1's hits don't count for it.
        assert_eq!(s.fire_on(&mut hits, WORKER_INGEST, 0), None);
        assert_eq!(s.fire_on(&mut hits, WORKER_INGEST, 0), None);
        assert_eq!(s.fire_on(&mut hits, WORKER_INGEST, 0), Some(0));
        // The scope-less route entry matches any scope.
        assert_eq!(s.fire_on(&mut hits, SUP_ROUTE, 7), None);
        assert_eq!(s.fire_on(&mut hits, SUP_ROUTE, 9), Some(2));
        // Unknown site: nothing matches.
        assert_eq!(s.fire_on(&mut hits, SUP_COMMIT, 0), None);
    }

    #[test]
    fn worker_entries_scope_to_one_slot() {
        let s = Schedule::parse(
            "worker.ingest@0:5;worker.checkpoint@3:2;sup.commit@1:1;worker.ingest@1:7",
        )
        .unwrap();
        // Shards 0 and 3 start on slot 0 and 1 of a 2-worker fleet
        // (slot = shard % workers); shard 1 starts on slot 1.
        assert_eq!(
            s.worker_spec(0, 2).as_deref(),
            Some("worker.ingest@0:5"),
            "slot 0 gets shard 0's entry only"
        );
        assert_eq!(
            s.worker_spec(1, 2).as_deref(),
            Some("worker.checkpoint@3:2;worker.ingest@1:7"),
            "slot 1 gets shard 3's and shard 1's entries, never the sup.* one"
        );
        assert_eq!(s.worker_spec(0, 0), None, "no workers, nothing to scope");
        let sup_only = Schedule::parse("sup.commit@1:1").unwrap();
        assert_eq!(sup_only.worker_spec(0, 2), None);
    }

    #[test]
    fn fire_without_a_schedule_is_a_noop() {
        // The test binary never sets ISEL_FAULT_SCHEDULE, so the global
        // runtime is empty and every site passes through.
        assert_eq!(fire(SUP_COMMIT, 0), Ok(()));
        assert_eq!(fire(WORKER_INGEST, 3), Ok(()));
    }
}
