//! `serve`, `replay` and `record` — the continuous-tuning service's
//! command-line surface (crate `isel-service`).
//!
//! `record` samples a JSONL event log from a generated workload's
//! templates (frequency-weighted, seeded); `replay` feeds such a log
//! through the service losslessly and can diff the produced selection
//! sequence against the offline `dynamic::adapt` reference
//! (`--offline-check`, the DESIGN.md §12 determinism contract); `serve`
//! runs it live on stdin or a Unix-domain socket with the drop-oldest
//! overload policy.
//!
//! Every command runs the one engine, the [`Router`] (DESIGN.md §13).
//! Without `--shards` (or at `--shards 0`) the whole workload is tuned
//! as one group under the whole-schema budget; `--shards N` (N >= 1)
//! classifies events by table group and tunes the groups on N
//! independent worker threads — the selection sequence is
//! bit-identical at every N >= 1. `serve --workers N` places those
//! shards in N worker processes instead (DESIGN.md §16); no other
//! command takes it. Checkpoints commit per shard, atomically through a
//! manifest, in every mode.

use crate::args::Args;
use crate::commands::{create_trace_sink, finish_trace, load_workload, FileSink};
use crate::out::Failure;
use isel_core::TraceSink;
use isel_service::{
    install_status_signal, journal::is_manifest, offline_group_adapt, offline_group_snapshots,
    read_journal_bytes, run_socket_router, EpochOutcome, FrameEncoder, JournalConfig, MappedFile,
    OverloadPolicy, Router, ServiceConfig, ServiceReport, TeeReader, WireFormat, MAGIC,
};
use isel_workload::erp::{self, ErpConfig};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_costmodel::{AnalyticalWhatIf, WhatIfOptimizer};
use isel_workload::{tpcc, QueryId, QueryKind, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::path::{Path, PathBuf};

/// `--format jsonl|binary` (default jsonl) — the event-stream encoding
/// for `record` output, `serve` journals, and `replay` input checking.
fn wire_format(args: &Args) -> Result<WireFormat, String> {
    args.get("format").unwrap_or("jsonl").parse()
}

/// A replay log held in memory: a plain log file is mmapped (zero-copy,
/// zero per-event allocation on the binary path); a rotated journal
/// manifest is resolved by concatenating its segments plus any crash
/// tail.
enum LogData {
    Mapped(MappedFile),
    Owned(Vec<u8>),
}

impl LogData {
    fn bytes(&self) -> &[u8] {
        match self {
            Self::Mapped(m) => m.bytes(),
            Self::Owned(v) => v,
        }
    }
}

/// Open `--log FILE` for replay: mmap plain logs, resolve manifests.
fn open_log(path: &str) -> Result<LogData, String> {
    let mapped = MappedFile::open(Path::new(path))?;
    if is_manifest(mapped.bytes()) {
        return read_journal_bytes(Path::new(path)).map(LogData::Owned);
    }
    Ok(LogData::Mapped(mapped))
}

/// Parse a `TABLE:VALUE,TABLE:VALUE,...` list: `--shard-map` (the
/// explicit table-group placement, `what` = "shard") and `--weights`
/// (the per-tenant SLO weights biasing the arbiter's budget split,
/// `what` = "weight").
fn parse_table_list<V: std::str::FromStr>(
    flag: &str,
    what: &str,
    spec: &str,
) -> Result<BTreeMap<u16, V>, String>
where
    V::Err: std::fmt::Display,
{
    let mut map = BTreeMap::new();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (t, v) = part.split_once(':').ok_or_else(|| {
            format!("{flag} entry {part:?} is not TABLE:{}", what.to_uppercase())
        })?;
        let table: u16 =
            t.trim().parse().map_err(|e| format!("{flag} table {:?}: {e}", t.trim()))?;
        let value: V =
            v.trim().parse().map_err(|e| format!("{flag} {what} {:?}: {e}", v.trim()))?;
        if map.insert(table, value).is_some() {
            return Err(format!("{flag} lists table {table} twice"));
        }
    }
    Ok(map)
}

/// Service configuration assembled from the shared `--epoch-events`,
/// `--window`, `--templates`, `--budget`, `--create-cost`, `--drop-cost`,
/// `--noop-above`, `--scratch-below`, `--queue`, `--threads`,
/// `--checkpoint-every`, `--shards`, `--shard-map`, `--weights`,
/// `--workers`, `--respawn`, `--calibrate`, `--cal-decay`,
/// `--cal-min-probes`, `--cal-envelope` and `--cal-probation` options,
/// defaulting to [`ServiceConfig::default`]. Only `serve` places shards
/// in worker processes; the other commands refuse `--workers`,
/// `--respawn` and `--state-dir` before they get here (`main.rs`).
fn service_config(args: &Args) -> Result<ServiceConfig, String> {
    let d = ServiceConfig::default();
    let cfg = ServiceConfig {
        epoch_events: args.get_parsed("epoch-events", d.epoch_events)?,
        window_epochs: args.get_parsed("window", d.window_epochs)?,
        max_templates: args.get_parsed("templates", d.max_templates)?,
        budget_share: args.get_parsed("budget", d.budget_share)?,
        transition: isel_core::dynamic::TransitionCosts {
            create_cost_per_byte: args
                .get_parsed("create-cost", d.transition.create_cost_per_byte)?,
            drop_cost: args.get_parsed("drop-cost", d.transition.drop_cost)?,
        },
        drift: isel_service::DriftThresholds {
            noop_above: args.get_parsed("noop-above", d.drift.noop_above)?,
            scratch_below: args.get_parsed("scratch-below", d.drift.scratch_below)?,
        },
        queue_capacity: args.get_parsed("queue", d.queue_capacity)?,
        threads: args.get_parsed("threads", d.threads)?,
        checkpoint_every_epochs: args
            .get_parsed("checkpoint-every", d.checkpoint_every_epochs)?,
        shards: args.get_parsed("shards", d.shards)?,
        shard_map: match args.get("shard-map") {
            Some(spec) => parse_table_list("--shard-map", "shard", spec)?,
            None => d.shard_map,
        },
        tenant_weights: match args.get("weights") {
            Some(spec) => parse_table_list("--weights", "weight", spec)?,
            None => d.tenant_weights,
        },
        workers: args.get_parsed("workers", d.workers)?,
        respawn: args.flag("respawn"),
        calibration: isel_service::CalibrationConfig {
            enabled: args.flag("calibrate") || d.calibration.enabled,
            decay: args.get_parsed("cal-decay", d.calibration.decay)?,
            min_probes: args.get_parsed("cal-min-probes", d.calibration.min_probes)?,
            envelope_ratio: args.get_parsed("cal-envelope", d.calibration.envelope_ratio)?,
            probation_epochs: args
                .get_parsed("cal-probation", d.calibration.probation_epochs)?,
        },
    };
    cfg.validate()?;
    Ok(cfg)
}

/// Build the router at either placement: fresh, or resumed from the
/// checkpoint manifest at `checkpoint` when `resume` is set and the
/// manifest exists. In process, resuming at a different `--shards N`
/// (N >= 1) is fine — table groups are repacked onto the new shard
/// layout; worker processes need the manifest's shard count.
fn make_router(
    workload: &Workload,
    config: ServiceConfig,
    checkpoint: Option<&Path>,
    resume: bool,
) -> Result<Router, String> {
    if resume {
        let path = checkpoint.ok_or("--resume requires --checkpoint FILE")?;
        if path.exists() {
            let workers = config.workers;
            let router = Router::resume(workload.schema().clone(), config, path)?;
            match workers {
                0 => eprintln!(
                    "resumed {} groups at {} tuned epochs across {} shards from {}",
                    router.group_count(),
                    router.epochs_tuned(),
                    router.shards(),
                    path.display()
                ),
                n => eprintln!(
                    "resuming {} shards across {n} worker processes from {}",
                    router.shards(),
                    path.display()
                ),
            }
            return Ok(router);
        }
        eprintln!("no checkpoint manifest at {}; starting fresh", path.display());
    }
    Router::new(workload.schema().clone(), config)
}

/// `isel worker` — the hidden multi-process worker entrypoint. Spawned
/// by the supervisor with the pipe protocol on stdin/stdout; never
/// useful to invoke by hand.
pub fn worker(_args: &Args) -> Result<(), String> {
    isel_service::run_worker()
}

/// Run `run` with the `--trace FILE` sinks of a `shards`-way run, then
/// flush them. Under `--shards N` (N >= 1) that is one trace file per
/// shard, named `FILE.shard-{k}` — each a complete, checkable event
/// stream for the runs that executed on that shard; a run with one
/// tracing thread (`shards` 0: whole-workload tuning, worker processes)
/// writes `FILE` itself. All in the `--trace-format` encoding.
fn traced<T>(
    args: &Args,
    shards: u32,
    run: impl FnOnce(&[&dyn TraceSink]) -> Result<T, String>,
) -> Result<T, String> {
    let sinks: Vec<FileSink> = match (args.get("trace"), shards) {
        (None, _) => Vec::new(),
        (Some(path), 0) => vec![create_trace_sink(args, path)?],
        (Some(base), n) => (0..n)
            .map(|k| create_trace_sink(args, &format!("{base}.shard-{k}")))
            .collect::<Result<_, _>>()?,
    };
    let out = {
        let refs: Vec<&dyn TraceSink> = sinks.iter().map(|s| s as &dyn TraceSink).collect();
        run(&refs)?
    };
    for sink in sinks {
        finish_trace(Some(sink))?;
    }
    Ok(out)
}

fn print_epoch(out: &EpochOutcome) -> Result<(), Failure> {
    let overlap = out
        .overlap
        .map_or("-".to_owned(), |o| format!("{o:.3}"));
    // Sharded runs tag outcomes with their table group; the column is a
    // function of the table, never the shard, so output diffs clean
    // across shard counts.
    let table = out
        .table
        .map_or(String::new(), |t| format!("table {}\t", t.0));
    outln!(
        "epoch {}\t{table}{}\toverlap {}\t{} indexes\tcost {:.4e}\treconfig {:.3e}",
        out.epoch,
        out.policy.label(),
        overlap,
        out.selection.len(),
        out.workload_cost,
        out.reconfig_paid,
    );
    Ok(())
}

fn print_report(report: &ServiceReport, workload: &Workload) -> Result<(), Failure> {
    for out in &report.epochs {
        print_epoch(out)?;
    }
    outln!(
        "ingested {}\tinvalid {}\tdropped {}\tqueue high-water {}\tcheckpoints {}",
        report.ingested,
        report.invalid,
        report.dropped,
        report.queue_high_water,
        report.checkpoints_written,
    );
    outln!("final selection ({} indexes):", report.final_selection.len());
    let schema = workload.schema();
    for k in report.final_selection.indexes() {
        let names: Vec<&str> = k
            .attrs()
            .iter()
            .map(|&a| schema.attribute(a).name.as_str())
            .collect();
        let table = schema.attribute(k.leading()).table;
        outln!("  {}({})", schema.table(table).name, names.join(", "));
    }
    Ok(())
}

/// The `--journal FILE` / `--journal-max-bytes N` journal configuration
/// for socket serving, if requested.
fn journal_config(args: &Args) -> Result<Option<JournalConfig>, String> {
    match args.get("journal") {
        Some(path) => Ok(Some(JournalConfig {
            path: PathBuf::from(path),
            format: wire_format(args)?,
            max_bytes: args
                .get("journal-max-bytes")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|e| format!("invalid --journal-max-bytes {v:?}: {e}"))
                })
                .transpose()?,
        })),
        None => Ok(None),
    }
}

/// `isel serve` — run the service on stdin (default) or `--socket PATH`
/// with the drop-oldest overload policy until EOF or a
/// `{"control":"shutdown"}` line, then drain, checkpoint and report.
/// `--shards N` tunes per table group on N threads, `--workers N` in N
/// worker processes;
/// `--journal FILE` (socket mode) records every accepted line with
/// connection/sequence tags for deterministic replay. `SIGUSR1` or a
/// `{"control":"status"}` line renders a live JSON status line, and
/// `whatif`/`tenant` control lines are answered from the live arbiter
/// on the issuing connection.
///
/// `--workers N --state-dir DIR` adds crash recovery on stdin
/// (DESIGN.md §18). Every consumed input byte is teed into
/// `DIR/journal.log` *before* it is acted on; checkpoints commit
/// through `DIR/checkpoint.json` (unless `--checkpoint` overrides it),
/// the failover/restart counters persist in `DIR/status.json`, and the
/// committed epoch-outcome history in `DIR/outcomes.json`. On startup a
/// prior incarnation is detected from those files: the committed
/// manifest restores every shard, the whole journal replays (records
/// the checkpoint already covers are counted but not re-routed,
/// committed generations are counted but not re-fired), and serving
/// resumes on live stdin — with the final merged selection and
/// checkpoint documents byte-identical to an uninterrupted run over the
/// same stream.
pub fn serve(args: &Args) -> Result<(), Failure> {
    let workload = load_workload(args)?;
    let config = service_config(args)?;
    let checkpoint = args.get("checkpoint").map(PathBuf::from);
    install_status_signal();
    let journal = journal_config(args)?;
    let socket = args.get("socket");
    if journal.is_some() && socket.is_none() {
        return Err("--journal requires --socket (stdin input is already a replayable log)".into());
    }
    if config.workers == 0 {
        if args.get("state-dir").is_some() {
            return Err(
                "--state-dir requires --workers N (crash recovery of the worker-process \
                 placement; single-process restart is --resume --checkpoint)"
                    .into(),
            );
        }
        if config.respawn {
            return Err("--respawn requires --workers N (it respawns worker processes)".into());
        }
    }
    // One trace file per shard thread; one under worker processes.
    let trace_shards = if config.workers > 0 { 0 } else { config.shards };
    let (mut router, checkpoint, recovery) = match args.get("state-dir") {
        None => {
            let router =
                make_router(&workload, config, checkpoint.as_deref(), args.flag("resume"))?;
            (router, checkpoint, None)
        }
        Some(_) if socket.is_some() => {
            return Err(
                "--state-dir serves on stdin (socket serving records with --journal instead)"
                    .into(),
            )
        }
        Some(dir) => {
            let dir = Path::new(dir);
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create state dir {}: {e}", dir.display()))?;
            let manifest = checkpoint.unwrap_or_else(|| dir.join("checkpoint.json"));
            let journal_path = dir.join("journal.log");
            let prior = match std::fs::read(&journal_path) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
                Err(e) => return Err(format!("cannot read {}: {e}", journal_path.display()).into()),
            };
            if manifest.exists() && prior.is_empty() {
                // The journal must span the stream from byte 0 for replay
                // positions to line up with the manifest's routed_lines; a
                // manifest without its journal cannot be recovered from.
                return Err(format!(
                    "state dir {} holds a checkpoint manifest but no journal; recovery needs \
                     both (to adopt a foreign checkpoint, resume once with --resume \
                     --checkpoint and a fresh state dir)",
                    dir.display()
                ).into());
            }
            let mut router = make_router(&workload, config, Some(&manifest), true)?;
            if !prior.is_empty() {
                eprintln!(
                    "replaying {} journal bytes from {}",
                    prior.len(),
                    journal_path.display()
                );
                router.set_recovery(prior.len() as u64);
            }
            router.set_state_dir(dir.to_path_buf());
            (router, Some(manifest), Some((prior, journal_path)))
        }
    };
    let checkpoint = checkpoint.as_deref();
    let report = traced(args, trace_shards, |sinks| {
        let stdin = BufReader::new(std::io::stdin());
        let policy = OverloadPolicy::DropOldest;
        match (socket, recovery) {
            (Some(path), _) => {
                run_socket_router(&mut router, Path::new(path), checkpoint, journal.as_ref(), sinks)
            }
            (None, None) => router.run_reader(stdin, policy, checkpoint, sinks),
            (None, Some((prior, journal_path))) => {
                let input = Cursor::new(prior).chain(TeeReader::create(stdin, &journal_path)?);
                router.run_reader(input, policy, checkpoint, sinks)
            }
        }
    })?;
    print_report(&report, &workload)?;
    Ok(())
}

/// `isel replay` — feed a recorded `--log FILE` through the service
/// losslessly (blocking pushes; nothing is ever dropped).
/// `--offline-check` forces the always-adapt drift thresholds and
/// verifies that every epoch's workload cost, reconfiguration cost and
/// selection are bit-identical to the offline `dynamic::adapt` loop over
/// the same epoch snapshots, group by group.
/// It refuses `--calibrate`: the reference has no deployment gate, so a
/// calibrated run would diverge from it by design.
pub fn replay(args: &Args) -> Result<(), Failure> {
    if args.flag("offline-check") && args.flag("calibrate") {
        return Err("--offline-check cannot judge --calibrate: the offline reference \
                    does not model the deployment gate (run them separately)"
            .into());
    }
    let workload = load_workload(args)?;
    let log = args.get("log").ok_or("missing --log FILE")?;
    let mut config = service_config(args)?;
    if args.flag("offline-check") {
        config.drift = isel_service::DriftThresholds::always_adapt();
    }
    let checkpoint = args.get("checkpoint").map(PathBuf::from);
    install_status_signal();
    // The whole log is mapped (or a rotated journal's segments
    // concatenated) once; every pass replays the same bytes through a
    // cursor, and the binary fast path decodes without per-event
    // allocation.
    let data = open_log(log)?;
    if let Some(want) = args.get("format") {
        let want: WireFormat = want.parse()?;
        let found = match data.bytes().first() {
            Some(&MAGIC) => WireFormat::Binary,
            _ => WireFormat::Jsonl,
        };
        if want != found {
            return Err(format!(
                "--format {} but {log} starts with {} data (both replay fine; \
                 drop --format to auto-detect)",
                want.name(),
                found.name()
            ).into());
        }
    }
    let reader = || Cursor::new(data.bytes());
    let mut router =
        make_router(&workload, config.clone(), checkpoint.as_deref(), args.flag("resume"))?;
    let report = traced(args, config.shards, |sinks| {
        router.run_reader(reader(), OverloadPolicy::Block, checkpoint.as_deref(), sinks)
    })?;
    print_report(&report, &workload)?;
    if args.flag("offline-check") {
        let snaps = offline_group_snapshots(reader(), workload.schema(), &config)?;
        let offline = offline_group_adapt(&snaps, &config);
        let total: usize = offline.values().map(Vec::len).sum();
        if report.epochs.len() != total {
            return Err(format!(
                "offline check: the service tuned {} epochs, the offline reference {total}",
                report.epochs.len()
            ).into());
        }
        for out in &report.epochs {
            // Whole-workload epochs carry no table: they are group 0's.
            let key = out.table.map_or(0, |t| t.0);
            let want = offline.get(&key).and_then(|v| v.get(out.epoch as usize)).ok_or_else(
                || format!("offline check: no reference for group {key} epoch {}", out.epoch),
            )?;
            let (cost, cost_ref) = (out.workload_cost, want.workload_cost);
            let (paid, paid_ref) = (out.reconfig_paid, want.reconfig_paid);
            let (n, n_ref) = (out.selection.len(), want.selection.len());
            let diverged = if cost.to_bits() != cost_ref.to_bits() {
                Some(("workload costs", cost.to_string(), cost_ref.to_string()))
            } else if paid.to_bits() != paid_ref.to_bits() {
                Some(("reconfiguration costs", paid.to_string(), paid_ref.to_string()))
            } else if out.selection != want.selection {
                Some(("selections", format!("{n} indexes"), format!("{n_ref} indexes")))
            } else {
                None
            };
            if let Some((what, service, reference)) = diverged {
                return Err(format!(
                    "offline check: {what} diverge at group {key} epoch {} \
                     (service {service}, offline {reference})",
                    out.epoch
                ).into());
            }
        }
        match config.shards {
            0 => outln!("offline check: {total} epochs bit-identical to dynamic::adapt"),
            _ => outln!(
                "offline check: {total} epochs across {} table groups bit-identical \
                 to per-group dynamic::adapt",
                offline.len()
            ),
        }
    }
    Ok(())
}

/// `isel record` — sample an event log from a generated workload's
/// templates, frequency-weighted and seeded, as JSONL or (`--format
/// binary`) dictionary-compressed binary frames. `--segments N` splits
/// the log into N runs each drawing from a rotated half of the template
/// set, producing genuine drift for the daemon to detect.
pub fn record(args: &Args) -> Result<(), Failure> {
    let kind = args.get("kind").unwrap_or("tpcc");
    let out = args.get("out").ok_or("missing --out FILE")?;
    let events = args.get_parsed("events", 4096usize)?;
    let seed = args.get_parsed("seed", 0x15E1u64)?;
    let segments = args.get_parsed("segments", 1usize)?.max(1);
    let observed = args.get_parsed("observed", 0usize)?;
    let drift = args.get_parsed("observed-drift", 1.0f64)?;
    if !(drift.is_finite() && drift > 0.0) {
        return Err(format!("--observed-drift must be finite and positive, got {drift}").into());
    }
    let format = wire_format(args)?;
    let workload = match kind {
        "tpcc" => tpcc::generate(args.get_parsed("warehouses", 100u64)?).0,
        "erp" => erp::generate(&ErpConfig { seed, ..ErpConfig::default() }),
        "synthetic" => synthetic::generate(&SyntheticConfig {
            tables: args.get_parsed("tables", 5usize)?,
            attrs_per_table: args.get_parsed("attrs", 20usize)?,
            queries_per_table: args.get_parsed("queries", 20usize)?,
            rows_base: args.get_parsed("rows", 500_000u64)?,
            seed,
            ..SyntheticConfig::default()
        }),
        other => return Err(format!("unknown workload kind {other:?}").into()),
    };

    let file = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut encoder = matches!(format, WireFormat::Binary).then(FrameEncoder::new);
    let mut frames = Vec::new();
    let q = workload.query_count();
    let per_segment = events.div_ceil(segments);
    // Observed-cost probes are priced off the analytical model so a
    // calibrated daemon sees ratios near `--observed-drift` (1.0 means
    // the estimates are honest; far from 1.0 injects contradiction).
    let est = (observed > 0).then(|| AnalyticalWhatIf::new(&workload));
    let mut probes = 0usize;
    let mut written = 0usize;
    for s in 0..segments {
        // One segment draws from a contiguous (circular) slice of the
        // template list; rotating the slice between segments shifts the
        // hot set and creates drift.
        let slice: Vec<usize> = if segments == 1 {
            (0..q).collect()
        } else {
            let len = q.div_ceil(2).max(1);
            let start = s * q / segments;
            (0..len).map(|i| (start + i) % q).collect()
        };
        let total: u64 = slice
            .iter()
            .map(|&i| workload.queries()[i].frequency())
            .sum();
        for _ in 0..per_segment.min(events - written) {
            let mut pick = rng.gen_range(0..total);
            let qi = slice
                .iter()
                .copied()
                .find(|&i| {
                    let f = workload.queries()[i].frequency();
                    if pick < f {
                        true
                    } else {
                        pick -= f;
                        false
                    }
                })
                .expect("pick < total");
            let query = &workload.queries()[qi];
            match &mut encoder {
                None => {
                    let attrs: Vec<String> =
                        query.attrs().iter().map(|a| a.0.to_string()).collect();
                    let kind = if query.is_update() { ",\"kind\":\"Update\"" } else { "" };
                    writeln!(
                        w,
                        "{{\"table\":{},\"attrs\":[{}]{kind}}}",
                        query.table().0,
                        attrs.join(",")
                    )
                    .map_err(|e| format!("write {out}: {e}"))?;
                }
                Some(enc) => {
                    let attrs: Vec<u32> = query.attrs().iter().map(|a| a.0).collect();
                    let qkind =
                        if query.is_update() { QueryKind::Update } else { QueryKind::Select };
                    enc.push_query(query.table().0, &attrs, 1, qkind);
                    enc.auto_flush_into(&mut frames);
                    if !frames.is_empty() {
                        w.write_all(&frames).map_err(|e| format!("write {out}: {e}"))?;
                        frames.clear();
                    }
                }
            }
            written += 1;
            if let Some(est) = &est {
                if written.is_multiple_of(observed) {
                    // Every Nth event is followed by an observed-cost
                    // probe for the template just sampled. Probes ride
                    // binary output as raw-framed lines (they have no
                    // structured item type), which `journal convert`
                    // round-trips verbatim.
                    let jitter = rng.gen_range(0.95..1.05);
                    let cost = est.unindexed_cost(QueryId(qi as u32)) * drift * jitter;
                    let attrs: Vec<String> =
                        query.attrs().iter().map(|a| a.0.to_string()).collect();
                    let kind = if query.is_update() { ",\"kind\":\"Update\"" } else { "" };
                    let line = format!(
                        "{{\"table\":{},\"attrs\":[{}]{kind},\"observed_cost\":{cost}}}",
                        query.table().0,
                        attrs.join(",")
                    );
                    match &mut encoder {
                        None => writeln!(w, "{line}").map_err(|e| format!("write {out}: {e}"))?,
                        Some(enc) => {
                            enc.push_raw(line.as_bytes());
                            enc.auto_flush_into(&mut frames);
                            if !frames.is_empty() {
                                w.write_all(&frames)
                                    .map_err(|e| format!("write {out}: {e}"))?;
                                frames.clear();
                            }
                        }
                    }
                    probes += 1;
                }
            }
        }
    }
    if let Some(enc) = &mut encoder {
        enc.flush_into(&mut frames);
        w.write_all(&frames).map_err(|e| format!("write {out}: {e}"))?;
    }
    w.flush().map_err(|e| format!("write {out}: {e}"))?;
    let probe_note =
        if probes > 0 { format!(" + {probes} observed-cost probe(s)") } else { String::new() };
    outln!(
        "recorded {written} {kind} {} events{probe_note} over {segments} segment(s) \
         ({} templates) -> {out}",
        format.name(),
        q
    );
    Ok(())
}

/// `isel journal` — journal maintenance actions. `convert` transcodes an
/// event log or journal between the JSONL and binary encodings
/// losslessly (rotated journals are flattened to one output file; the
/// jsonl→binary→jsonl round trip is byte-identical).
pub fn journal(args: &Args) -> Result<(), Failure> {
    match args.subcommand.as_deref() {
        Some("convert") => journal_convert(args),
        Some(other) => Err(format!("unknown journal action {other:?} (expected convert)").into()),
        None => Err("usage: isel journal convert --log FILE --to jsonl|binary --out FILE".into()),
    }
}

/// `isel budget` — interactive budget-arbitration queries answered from
/// maintained frontier state, never by re-running selection.
///
/// Offline mode (`--log FILE`): replay the recorded log, then print the
/// allocation table at each `--at` budget (a `whatif` read; `--tenant T`
/// asks one group's allocation and cost instead — requires `--shards`).
/// Live mode (`--socket PATH`): stream `--log` (if given) into a serving
/// socket, then issue the same queries over the wire and print the
/// replies — byte-identical to the offline answers over the same events.
pub fn budget(args: &Args) -> Result<(), Failure> {
    let budgets: Vec<u64> = args
        .get("at")
        .unwrap_or("")
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|p| {
            p.trim()
                .parse::<u64>()
                .map_err(|e| format!("invalid --at budget {:?}: {e}", p.trim()))
        })
        .collect::<Result<_, _>>()?;
    if budgets.is_empty() && args.get("set").is_none() {
        return Err("missing --at B1,B2,... (budgets in bytes) or --set B".into());
    }
    let tenant: Option<u16> = match args.get("tenant") {
        Some(t) => Some(t.parse().map_err(|e| format!("invalid --tenant {t:?}: {e}"))?),
        None => None,
    };
    let set: Option<u64> = match args.get("set") {
        Some(b) => Some(b.parse().map_err(|e| format!("invalid --set {b:?}: {e}"))?),
        None => None,
    };
    if let Some(sock) = args.get("socket") {
        // The budget change is an in-band barrier like any other
        // interactive control: applied after every event that preceded
        // it on this stream, acknowledged with the new allocations.
        let set = set.map(|b| format!("{{\"control\":\"budget\",\"budget\":{b}}}"));
        let asks = budgets.iter().map(|&b| match tenant {
            Some(t) => format!("{{\"control\":\"tenant\",\"table_group\":{t},\"budget\":{b}}}"),
            None => format!("{{\"control\":\"whatif\",\"budget\":{b}}}"),
        });
        return ask_over_socket(args, sock, set.into_iter().chain(asks));
    }
    let config = service_config(args)?;
    if tenant.is_some() && config.shards == 0 {
        return Err("--tenant requires --shards N (whole-workload tuning is one tenant)".into());
    }
    let router = replay_offline(args, config)?;
    let arbiter = router.arbiter();
    if let Some(b) = set {
        outln!("{}", arbiter.set_budget(b, isel_core::Trace::disabled()));
    }
    for &b in &budgets {
        outln!(
            "{}",
            match tenant {
                Some(t) => arbiter.tenant(t, b),
                None => arbiter.whatif(b),
            }
        );
    }
    Ok(())
}

/// The state `--workload FILE --log FILE` replays to, for the offline
/// modes of `budget` and `calibrate`.
fn replay_offline(args: &Args, config: ServiceConfig) -> Result<Router, String> {
    let workload = load_workload(args)?;
    let log = args.get("log").ok_or("missing --log FILE (or --socket PATH)")?;
    let data = open_log(log)?;
    let mut router = Router::new(workload.schema().clone(), config)?;
    router.run_reader(Cursor::new(data.bytes()), OverloadPolicy::Block, None, &[])?;
    Ok(router)
}

/// The live modes of `budget` and `calibrate`: stream the optional
/// `--log` into the serving socket at `sock`, then send each query
/// line, print its reply line, and optionally `--shutdown` the server.
fn ask_over_socket(
    args: &Args,
    sock: &str,
    queries: impl Iterator<Item = String>,
) -> Result<(), Failure> {
    use std::os::unix::net::UnixStream;
    let mut stream =
        UnixStream::connect(sock).map_err(|e| format!("connect {sock}: {e}"))?;
    if let Some(log) = args.get("log") {
        let data = open_log(log)?;
        stream
            .write_all(data.bytes())
            .map_err(|e| format!("stream {log} to {sock}: {e}"))?;
    }
    let mut reader = BufReader::new(
        stream.try_clone().map_err(|e| format!("clone socket stream: {e}"))?,
    );
    for line in queries {
        writeln!(stream, "{line}").map_err(|e| format!("send query to {sock}: {e}"))?;
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .map_err(|e| format!("read reply from {sock}: {e}"))?;
        if reply.is_empty() {
            return Err("server closed the connection before answering".into());
        }
        out!("{reply}");
    }
    if args.flag("shutdown") {
        let _ = stream.write_all(b"{\"control\":\"shutdown\"}\n");
    }
    Ok(())
}

/// `isel calibrate` — inspect the observed-cost calibration table.
///
/// Offline mode (`--log FILE`): replay the recorded log with calibration
/// forced on and print the canonical `{"calibration":{...}}` snapshot
/// line (under `--shards N` the per-group tables, summed). Live mode
/// (`--socket PATH`): stream `--log` (if given) into a serving socket,
/// then issue the in-band `{"control":"calibration"}` barrier query and
/// print the reply — byte-identical to the offline answer over the same
/// events.
pub fn calibrate(args: &Args) -> Result<(), Failure> {
    if let Some(sock) = args.get("socket") {
        let query = "{\"control\":\"calibration\"}".to_owned();
        return ask_over_socket(args, sock, std::iter::once(query));
    }
    let mut config = service_config(args)?;
    // The whole point of the offline mode is to see what the tracker
    // would learn, so calibration is on unless explicitly configured.
    config.calibration.enabled = true;
    outln!("{}", replay_offline(args, config)?.calibration());
    Ok(())
}

fn journal_convert(args: &Args) -> Result<(), Failure> {
    let input = args.get("log").ok_or("missing --log FILE")?;
    let out = args.get("out").ok_or("missing --out FILE")?;
    let to: WireFormat = args.get("to").ok_or("missing --to jsonl|binary")?.parse()?;
    let bytes = read_journal_bytes(Path::new(input))?;
    let converted = isel_service::convert(&bytes, to);
    std::fs::write(out, &converted).map_err(|e| format!("cannot write {out}: {e}"))?;
    outln!(
        "converted {input} ({} bytes) -> {} {out} ({} bytes)",
        bytes.len(),
        to.name(),
        converted.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_owned))
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("isel_cli_service_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn record_then_replay_with_offline_check() {
        let w = tmp("tpcc_w.json");
        crate::commands::generate(&argv(&format!(
            "generate --kind tpcc --warehouses 5 --out {w}"
        )))
        .unwrap();
        let log = tmp("tpcc_events.jsonl");
        record(&argv(&format!(
            "record --kind tpcc --warehouses 5 --events 96 --seed 7 --out {log}"
        )))
        .unwrap();
        replay(&argv(&format!(
            "replay --workload {w} --log {log} --epoch-events 32 --offline-check"
        )))
        .unwrap();
    }

    #[test]
    fn replay_refuses_offline_check_with_calibrate() {
        // Refused before any work: neither file is read.
        let err = replay(&argv(
            "replay --workload missing.json --log missing.jsonl --offline-check --calibrate",
        ))
        .unwrap_err();
        assert!(err.to_string().contains("--offline-check cannot judge --calibrate"), "{err}");
    }

    #[test]
    fn replay_writes_and_resumes_checkpoints() {
        let w = tmp("sy_w.json");
        crate::commands::generate(&argv(&format!(
            "generate --kind synthetic --tables 2 --attrs 8 --queries 8 --rows 50000 --seed 3 --out {w}"
        )))
        .unwrap();
        let log = tmp("sy_events.jsonl");
        record(&argv(&format!(
            "record --kind synthetic --tables 2 --attrs 8 --queries 8 --rows 50000 --seed 3 --events 64 --out {log}"
        )))
        .unwrap();
        let cp = tmp("sy_cp.json");
        std::fs::remove_file(&cp).ok();
        replay(&argv(&format!(
            "replay --workload {w} --log {log} --epoch-events 16 --checkpoint {cp}"
        )))
        .unwrap();
        assert!(std::path::Path::new(&cp).exists());
        // Resuming from the final checkpoint replays on top of restored
        // state (4 more epochs on the same log).
        replay(&argv(&format!(
            "replay --workload {w} --log {log} --epoch-events 16 --checkpoint {cp} --resume"
        )))
        .unwrap();
        let manifest = isel_service::Manifest::load(Path::new(&cp)).unwrap();
        let restored = manifest.load_shards(Path::new(&cp)).unwrap();
        assert_eq!(restored[0].groups[0].epoch, 8);
    }

    #[test]
    fn config_knobs_parse_and_validate() {
        let cfg = service_config(&argv(
            "serve --epoch-events 10 --window 3 --templates 99 --budget 0.25 \
             --noop-above 0.9 --scratch-below 0.1 --queue 128 --threads 2",
        ))
        .unwrap();
        assert_eq!(cfg.epoch_events, 10);
        assert_eq!(cfg.window_epochs, 3);
        assert_eq!(cfg.max_templates, 99);
        assert_eq!(cfg.queue_capacity, 128);
        assert!(service_config(&argv("serve --queue 0")).is_err());
        assert!(service_config(&argv("serve --epoch-events nope")).is_err());
    }

    #[test]
    fn shard_knobs_parse_and_validate() {
        let cfg = service_config(&argv("serve --shards 4 --shard-map 0:1,3:2")).unwrap();
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.shard_map.get(&0), Some(&1));
        assert_eq!(cfg.shard_map.get(&3), Some(&2));
        let parse = |spec| parse_table_list::<u32>("--shard-map", "shard", spec);
        assert!(parse("0:1,0:2").is_err(), "duplicate table");
        assert!(parse("0-1").unwrap_err().ends_with("is not TABLE:SHARD"), "bad separator");
        assert!(parse("x:1").is_err(), "bad table");
        assert!(
            service_config(&argv("serve --shards 2 --shard-map 0:5")).is_err(),
            "shard out of range"
        );
    }

    #[test]
    fn weight_knobs_parse_and_validate() {
        let cfg = service_config(&argv("serve --weights 0:2.5,3:10")).unwrap();
        assert_eq!(cfg.tenant_weights.get(&0), Some(&2.5));
        assert_eq!(cfg.tenant_weights.get(&3), Some(&10.0));
        let parse = |spec| parse_table_list::<f64>("--weights", "weight", spec);
        assert!(parse("0:1,0:2").is_err(), "duplicate table");
        assert!(parse("0=1").is_err(), "bad separator");
        assert!(parse("x:1").is_err(), "bad table");
        assert!(
            service_config(&argv("serve --weights 0:-1")).is_err(),
            "weights must be positive"
        );
    }

    #[test]
    fn budget_replays_and_prints_allocation_tables() {
        let w = tmp("budget_w.json");
        crate::commands::generate(&argv(&format!(
            "generate --kind synthetic --tables 3 --attrs 8 --queries 8 --rows 50000 --seed 9 --out {w}"
        )))
        .unwrap();
        let log = tmp("budget_events.jsonl");
        record(&argv(&format!(
            "record --kind synthetic --tables 3 --attrs 8 --queries 8 --rows 50000 --seed 9 --events 64 --out {log}"
        )))
        .unwrap();
        // Offline whatif tables: unsharded and sharded, one or many budgets.
        budget(&argv(&format!(
            "budget --workload {w} --log {log} --epoch-events 16 --at 4096,1048576"
        )))
        .unwrap();
        budget(&argv(&format!(
            "budget --workload {w} --log {log} --epoch-events 16 --shards 2 --at 1048576"
        )))
        .unwrap();
        // Per-tenant reads need the sharded router.
        budget(&argv(&format!(
            "budget --workload {w} --log {log} --epoch-events 16 --shards 2 --tenant 1 --at 1048576"
        )))
        .unwrap();
        assert!(
            budget(&argv(&format!(
                "budget --workload {w} --log {log} --epoch-events 16 --tenant 1 --at 4096"
            )))
            .is_err(),
            "--tenant without --shards is rejected"
        );
        assert!(budget(&argv(&format!("budget --workload {w} --log {log}"))).is_err());
        assert!(budget(&argv(&format!("budget --workload {w} --log {log} --at ,"))).is_err());
        assert!(budget(&argv(&format!("budget --workload {w} --at 4096"))).is_err());
    }

    #[test]
    fn sharded_replay_checks_offline_and_resumes_manifests() {
        let w = tmp("shard_w.json");
        crate::commands::generate(&argv(&format!(
            "generate --kind synthetic --tables 3 --attrs 8 --queries 8 --rows 50000 --seed 9 --out {w}"
        )))
        .unwrap();
        let log = tmp("shard_events.jsonl");
        record(&argv(&format!(
            "record --kind synthetic --tables 3 --attrs 8 --queries 8 --rows 50000 --seed 9 --events 96 --out {log}"
        )))
        .unwrap();
        // Bit-identity against the per-group offline reference, at two
        // different shard counts over the same log.
        replay(&argv(&format!(
            "replay --workload {w} --log {log} --epoch-events 16 --shards 1 --offline-check"
        )))
        .unwrap();
        replay(&argv(&format!(
            "replay --workload {w} --log {log} --epoch-events 16 --shards 3 --offline-check"
        )))
        .unwrap();
        // Manifest checkpoints commit and a resume at a different shard
        // count restores them.
        let dir = std::env::temp_dir().join("isel_cli_service_tests").join("shard_manifest");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("manifest.json");
        let mstr = manifest.to_string_lossy().into_owned();
        replay(&argv(&format!(
            "replay --workload {w} --log {log} --epoch-events 16 --shards 2 --checkpoint {mstr}"
        )))
        .unwrap();
        assert!(manifest.exists());
        replay(&argv(&format!(
            "replay --workload {w} --log {log} --epoch-events 16 --shards 3 --checkpoint {mstr} --resume"
        )))
        .unwrap();
    }

    #[test]
    fn binary_record_converts_and_replays_like_jsonl() {
        let w = tmp("bin_w.json");
        crate::commands::generate(&argv(&format!(
            "generate --kind tpcc --warehouses 5 --out {w}"
        )))
        .unwrap();
        let jsonl = tmp("bin_events.jsonl");
        record(&argv(&format!(
            "record --kind tpcc --warehouses 5 --events 96 --seed 7 --out {jsonl}"
        )))
        .unwrap();
        let bin = tmp("bin_events.bin");
        record(&argv(&format!(
            "record --kind tpcc --warehouses 5 --events 96 --seed 7 --format binary --out {bin}"
        )))
        .unwrap();
        // Same seed, two encodings: converting the binary log back to
        // JSONL reproduces the JSONL recording byte for byte, and the
        // binary log is the promised order-of-magnitude smaller.
        let back = tmp("bin_events.back.jsonl");
        journal(&argv(&format!(
            "journal convert --log {bin} --to jsonl --out {back}"
        )))
        .unwrap();
        let a = std::fs::read(&jsonl).unwrap();
        let b = std::fs::read(&back).unwrap();
        assert_eq!(a, b, "binary record is the same stream, re-encoded");
        let bin_len = std::fs::read(&bin).unwrap().len();
        assert!(
            bin_len * 10 <= a.len(),
            "binary {bin_len} bytes vs jsonl {} bytes",
            a.len()
        );
        // The binary log replays through the daemon (mmap path) and
        // passes the offline determinism check; declaring the wrong
        // --format is caught.
        replay(&argv(&format!(
            "replay --workload {w} --log {bin} --epoch-events 32 --offline-check --format binary"
        )))
        .unwrap();
        let err = replay(&argv(&format!(
            "replay --workload {w} --log {bin} --epoch-events 32 --format jsonl"
        )))
        .unwrap_err();
        assert!(err.to_string().contains("starts with binary"), "{err}");
        // Unknown conversion targets and actions are rejected.
        assert!(journal(&argv(&format!(
            "journal convert --log {bin} --to nope --out {back}"
        )))
        .is_err());
        assert!(journal(&argv("journal rotate")).is_err());
        assert!(journal(&argv("journal")).is_err());
    }

    #[test]
    fn record_rejects_unknown_kind() {
        let out = tmp("nope.jsonl");
        assert!(record(&argv(&format!("record --kind weird --out {out}"))).is_err());
        assert!(record(&argv("record --kind tpcc")).is_err(), "missing --out");
    }

    #[test]
    fn segmented_record_produces_drift() {
        let log = tmp("seg_events.jsonl");
        record(&argv(&format!(
            "record --kind synthetic --tables 2 --attrs 10 --queries 12 --rows 50000 \
             --seed 5 --events 120 --segments 3 --out {log}"
        )))
        .unwrap();
        let text = std::fs::read_to_string(&log).unwrap();
        assert_eq!(text.lines().count(), 120);
        // First and last segments draw from different template slices.
        let first: std::collections::BTreeSet<&str> = text.lines().take(40).collect();
        let last: std::collections::BTreeSet<&str> = text.lines().skip(80).collect();
        assert_ne!(first, last);
    }
}
