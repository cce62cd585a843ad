//! `isel` — command-line index advisor.
//!
//! ```text
//! isel generate  --kind synthetic|erp|tpcc --out w.json [--seed N] [--tables N]
//!                [--attrs N] [--queries N] [--rows N] [--updates FRAC]
//! isel recommend --workload w.json --strategy h1|h2|h3|h4|h4s|h5|h6|cophy
//!                [--budget 0.2] [--threads N] [--json] [--trace t.jsonl]
//! isel compare   --workload w.json [--budget 0.2] [--threads N] [--trace t.jsonl]
//! isel frontier  --workload w.json [--max-budget 0.5] [--threads N] [--trace t.jsonl]
//! isel report    --trace t.jsonl [--check]
//! isel interactions --workload w.json [--top 10]
//! ```
//!
//! All costs come from the analytical Appendix-B model; budgets are
//! relative shares of the all-single-attribute-indexes footprint (Eq. 10).

#[macro_use]
mod out;
mod args;
mod commands;
mod service_cmd;

use args::Args;
use out::Failure;
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

const USAGE: &str = "\
isel — multi-attribute index advisor

USAGE:
  isel generate      --kind synthetic|erp|tpcc --out FILE [--seed N]
                     [--tables N] [--attrs N] [--queries N] [--rows N]
                     [--updates FRACTION] [--warehouses N]
  isel recommend     --workload FILE --strategy h1|h2|h3|h4|h4s|h5|h6|cophy
                     [--budget SHARE] [--threads N] [--json] [--trace FILE]
  isel compare       --workload FILE [--budget SHARE] [--threads N]
                     [--trace FILE]
  isel frontier      --workload FILE [--max-budget SHARE] [--threads N]
                     [--trace FILE]
  isel report        --trace FILE [--check]
  isel interactions  --workload FILE [--top N]
  isel stats         --workload FILE
  isel record        --kind tpcc|erp|synthetic --out FILE [--events N]
                     [--seed N] [--segments N] [--warehouses N]
                     [--format jsonl|binary] [--observed N]
                     [--observed-drift F]
  isel replay        --workload FILE --log FILE [--offline-check]
                     [--format jsonl|binary] [--checkpoint FILE]
                     [--resume] [--trace FILE] [--epoch-events N]
                     [--window N] [--templates N] [--budget SHARE]
                     [--threads N] [--shards N] [--shard-map T:S,T:S]
  isel serve         --workload FILE [--socket PATH] [--checkpoint FILE]
                     [--resume] [--trace FILE] [--journal FILE]
                     [--format jsonl|binary] [--journal-max-bytes N]
                     [--shards N] [--shard-map T:S,T:S] [--weights T:W,T:W]
                     [--workers N] [--respawn] [same tuning knobs]
  isel budget        --workload FILE --log FILE --at B1,B2,... [--set B]
                     [--tenant T] [--shards N] [--weights T:W,T:W]
                     [same tuning knobs]
  isel budget        --socket PATH --at B1,B2,... [--set B] [--log FILE]
                     [--tenant T] [--shutdown]
  isel calibrate     --workload FILE --log FILE [--shards N]
                     [same tuning knobs]
  isel calibrate     --socket PATH [--log FILE] [--shutdown]
  isel journal       convert --log FILE --to jsonl|binary --out FILE

  The service commands drive the continuous-tuning daemon: record an
  event log, replay it losslessly (--offline-check verifies every
  epoch's cost columns and selection are bit-identical to the offline
  dynamic::adapt loop, and refuses --calibrate), or serve live on
  stdin / a Unix socket with counted drop-oldest overload shedding.

  Event streams come in two peer encodings, auto-detected per record by
  a magic byte and mixable on one stream: JSONL (one JSON object per
  line) and binary (length-prefixed checksummed frames with dictionary-
  compressed events, ~10x smaller). --format picks the encoding record
  writes and serve journals; replay auto-detects and mmaps its input
  (--format only asserts what the log should be). journal convert
  transcodes losslessly in both directions. --journal-max-bytes rotates
  the journal into size-bounded segments behind a manifest that replay
  reads transparently.

  --shards N routes events by table group onto N worker shards; the
  selection sequence is bit-identical at every shard count, per-shard
  checkpoints commit atomically through a manifest, and the final
  selections merge under the global budget. --shard-map pins table
  groups to shards. --journal FILE (socket serve) tags every accepted
  line with connection/sequence ids so a racy live run replays
  deterministically. SIGUSR1 or a status control line prints live JSON
  counters.

  serve --workers N splits the daemon across processes: a supervisor
  owns the socket, journal, checkpoints and the budget arbiter, and N
  worker child processes host the shards over binary-framed pipes. A
  killed worker is detected (pipe EOF / failed write), its shards restore on
  a survivor (or a respawned replacement with --respawn) from the last
  committed checkpoint generation, and the journal tail since that
  generation replays — the final selection is byte-identical to a
  failure-free run no matter when a worker dies. Requires --shards N
  (>= 1). Failovers show up in the status counters and the --trace
  stream.

  The global-budget merge is maintained live: each table group publishes
  its tuned frontier as epochs complete and changed groups re-merge
  incrementally, so budget questions are cheap reads. isel budget
  replays a log and prints the allocation table at each --at budget
  (whatif), or one group's allocation and cost with --tenant T; with
  --socket it asks a serving daemon the same questions over the wire
  ({\"control\":\"whatif\",...} / {\"control\":\"tenant\",...} lines,
  answered in stream order) and the replies are byte-identical to the
  offline answers over the same events. --weights T:W biases the split
  toward high-priority tenants deterministically.

  Observed-cost feedback closes the loop between estimates and reality:
  {\"table\":T,\"attrs\":[..],\"observed_cost\":C} lines (record --observed N
  emits one every N events; --observed-drift F scales them away from the
  model) feed a per-template ratio tracker. --calibrate turns on
  calibrated what-if costing plus the deployment gate: a drift-triggered
  re-selection runs on probation against the incumbent inside a safety
  envelope (--cal-envelope R, --cal-probation E) and either promotes or
  rolls back to the last-good checkpoint, byte-identically. isel
  calibrate prints the learned ratio table — offline from a log, or live
  over a socket ({\"control\":\"calibration\"}) — and report --check
  verifies the promote/rollback accounting from a trace.

  --threads N fans candidate evaluation over N workers (0 = all cores);
  recommendations are identical at every setting.
  --trace FILE streams structured run events (construction steps,
  candidate scans, solver phases) as JSON lines, or as a compact binary
  stream with --trace-format binary; summarize with `isel report
  --trace FILE` (either encoding, auto-detected), or add --check to
  verify the what-if accounting and call-bound invariants.
";

/// `--trace FILE` in the `--trace-format` encoding.
const TRACE: &[&str] = &["trace", "trace-format"];
/// The service knobs `service_cmd::service_config` reads.
const TUNING: &[&str] = &[
    "epoch-events", "window", "templates", "budget", "create-cost", "drop-cost", "noop-above",
    "scratch-below", "queue", "threads", "checkpoint-every", "shards", "shard-map", "weights",
    "calibrate", "cal-decay", "cal-min-probes", "cal-envelope", "cal-probation",
];
/// Worker-process placement, which only `serve` has.
const PLACEMENT: &[&str] = &["workers", "respawn", "state-dir"];

/// The options and flags `command` reads, or `None` for a command that
/// does not exist (dispatch reports it).
fn accepted(command: &str) -> Option<Vec<&'static str>> {
    let (own, shared): (&[&str], &[&[&str]]) = match command {
        "generate" => (
            &["kind", "out", "seed", "tables", "attrs", "queries", "rows", "updates", "warehouses"],
            &[],
        ),
        "recommend" => (&["workload", "strategy", "budget", "threads", "json"], &[TRACE]),
        "compare" => (&["workload", "budget", "threads"], &[TRACE]),
        "frontier" => (&["workload", "max-budget", "threads"], &[TRACE]),
        "report" => (&["trace", "check"], &[]),
        "interactions" => (&["workload", "top"], &[]),
        "stats" => (&["workload"], &[]),
        "record" => (
            &[
                "kind", "out", "events", "seed", "segments", "warehouses", "format", "observed",
                "observed-drift", "tables", "attrs", "queries", "rows",
            ],
            &[],
        ),
        "replay" => (
            &["workload", "log", "offline-check", "format", "checkpoint", "resume"],
            &[TRACE, TUNING],
        ),
        "serve" => (
            &[
                "workload", "socket", "checkpoint", "resume", "journal", "format",
                "journal-max-bytes",
            ],
            &[TRACE, TUNING, PLACEMENT],
        ),
        "budget" => (&["workload", "log", "at", "set", "tenant", "socket", "shutdown"], &[TUNING]),
        "calibrate" => (&["workload", "log", "socket", "shutdown"], &[TUNING]),
        "journal" => (&["log", "to", "out"], &[]),
        "worker" => (&[], &[]),
        _ => return None,
    };
    Some(shared.iter().fold(own.to_vec(), |mut all, group| {
        all.extend_from_slice(group);
        all
    }))
}

/// Refuse, before any work, an option or a positional token
/// `args.command` does not read — a misspelt `--budjet` would otherwise
/// run at the default budget. Only `journal` reads a second positional
/// (its action).
fn check_options(args: &Args) -> Result<(), String> {
    let Some(command) = args.command.as_deref() else { return Ok(()) };
    let Some(known) = accepted(command) else { return Ok(()) };
    let read = usize::from(command == "journal");
    if let Some(token) = args.subcommand.iter().chain(&args.extra).nth(read) {
        return Err(format!("unexpected argument {token:?} for `isel {command}`\n\n{USAGE}"));
    }
    match args.keys().into_iter().find(|key| !known.contains(key)) {
        None => Ok(()),
        Some(key) if PLACEMENT.contains(&key) => {
            Err(format!("--{key} is a `serve` option; `{command}` runs in this process"))
        }
        Some(key) => Err(format!("unknown option --{key} for `isel {command}`\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let result = check_options(&args).map_err(Failure::from);
    let result = result.and_then(|()| match args.command.as_deref() {
        Some("generate") => commands::generate(&args),
        Some("recommend") => commands::recommend(&args),
        Some("compare") => commands::compare(&args),
        Some("frontier") => commands::frontier(&args),
        Some("report") => commands::report(&args),
        Some("interactions") => commands::interactions(&args),
        Some("stats") => commands::stats(&args),
        Some("record") => service_cmd::record(&args),
        Some("replay") => service_cmd::replay(&args),
        Some("serve") => service_cmd::serve(&args),
        Some("budget") => service_cmd::budget(&args),
        Some("calibrate") => service_cmd::calibrate(&args),
        Some("journal") => service_cmd::journal(&args),
        // Hidden: the multi-process worker entrypoint the supervisor
        // spawns from its own executable (`serve --workers N`).
        Some("worker") => service_cmd::worker(&args).map_err(Failure::from),
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
        None => Err(USAGE.into()),
    });
    match result.and_then(|()| std::io::stdout().flush().map_err(Failure::Output)) {
        Ok(()) => ExitCode::SUCCESS,
        // The reader has all it wanted (`isel … | head`).
        Err(Failure::Output(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("{failure}");
            ExitCode::FAILURE
        }
    }
}
