//! Unix-domain-socket ingestion for live serving.
//!
//! [`run_socket_router`] is the one socket front. It binds a socket,
//! accepts any number of concurrent connections, and turns what they
//! send into the single ordered record stream the [`Router`] reads —
//! at any `--shards`, on shard threads or worker processes — exactly as
//! it would read stdin or a replayed file. Live serving sheds load
//! rather than stall its clients: where shards have queues, overload
//! evicts the oldest queued event and counts it. A
//! `{"control":"shutdown"}` line on *any* connection stops the accept
//! loop; the router then drains, commits a final checkpoint generation
//! and reports as usual.
//!
//! Clients may send JSONL lines or binary frames (even mixed on one
//! connection, auto-detected per record by the magic byte). Binary
//! items are rendered back to their canonical line form through a
//! per-connection template dictionary, so the engine's stream — and the
//! journal — is encoding-agnostic and definition-free. An item that
//! cannot be rendered (an event of an undefined template, a corrupt
//! frame) is forwarded as a line the parser rejects, so it is counted
//! invalid where every other invalid record is, and counted again when
//! the journal is replayed.
//!
//! # Deterministic cross-client order
//!
//! Event order across concurrent connections is arrival order, which is
//! inherently racy. To make a live run *auditable*, every accepted
//! connection is assigned a monotone connection id and each of its
//! lines a per-connection sequence number. When a journal path is
//! given, every line is rewritten as
//! `{"conn":C,"seq":S,...original fields...}` and appended to the
//! journal *in the exact order the engine consumed it* — the journal
//! lock is held across both the journal write and the hand-over, so
//! journal order is consumption order. Replaying the journal reproduces
//! the live run bit-for-bit: the event parser ignores the `conn`/`seq`
//! fields, so the journal parses exactly like the original stream.
//!
//! # Replies
//!
//! Interactive `whatif`, `tenant`, `budget`, `calibration` and `status`
//! lines are stamped with a reply-routing token
//! ([`InteractiveRegistry`]); the answer — computed from the live
//! [`crate::Arbiter`] after every event that preceded the query, never
//! by re-running selection — is written back on the issuing connection
//! as one JSON line. A reply lost to a client that hung up is counted
//! on the engine's [`StatusBoard`] (`reply_errors`), never fatal.

use crate::arbiter::InteractiveRegistry;
use crate::event::Control;
use crate::frame::WireItem;
use crate::journal::{render_item, JournalConfig, JournalWriter};
use crate::records::{DecodeDict, Record, RecordIter};
use crate::router::{OverloadPolicy, Router, ServiceReport};
use crate::status::StatusBoard;
use crate::stream::line_control;
use isel_core::TraceSink;
use isel_workload::Schema;
use std::io::{BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Accept-loop poll interval while waiting for connections.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// A line channel presented as [`std::io::BufRead`] input for the
/// [`Router`]: connection handlers send canonical lines in arrival
/// order, and the channel hanging up reads as EOF.
struct ChannelReader {
    rx: std::sync::mpsc::Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl std::io::Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = std::io::BufRead::fill_buf(self)?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        std::io::BufRead::consume(self, n);
        Ok(n)
    }
}

impl std::io::BufRead for ChannelReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf.clear();
                    self.buf.extend_from_slice(line.as_bytes());
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                // Every sender hung up: the stream is over.
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// Serve `router` on a Unix-domain socket at `path` until a `shutdown`
/// control arrives, then drain, commit a final checkpoint generation
/// and report. A stale socket file at `path` is replaced.
///
/// When `journal` is given, every accepted line is appended there
/// tagged with its connection id and per-connection sequence number, in
/// consumption order (see the module docs for the replay contract). The
/// journal may be JSONL or binary and may rotate into segments — see
/// [`JournalConfig`]; both encodings replay identically. `sinks` is
/// passed to [`Router::run_reader`], which sheds the oldest queued event
/// when a shard queue is full.
///
/// Connection handlers read until their peer disconnects, so the final
/// drain completes once every client has hung up — clients should close
/// their end after (or instead of) sending `shutdown`.
pub fn run_socket_router(
    router: &mut Router,
    path: &Path,
    checkpoint: Option<&Path>,
    journal: Option<&JournalConfig>,
    sinks: &[&dyn TraceSink],
) -> Result<ServiceReport, String> {
    if path.exists() {
        std::fs::remove_file(path).map_err(|e| format!("remove stale socket: {e}"))?;
    }
    let listener =
        UnixListener::bind(path).map_err(|e| format!("bind {}: {e}", path.display()))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;

    let journal = match journal {
        Some(cfg) => Some(Mutex::new(JournalWriter::create(cfg.clone())?)),
        None => None,
    };
    let registry = Arc::new(InteractiveRegistry::new());
    router.set_interactive(Arc::clone(&registry));
    let schema = router.schema().clone();
    let board = router.board();
    let stop = AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    let conn_shared = ConnShared {
        schema: &schema,
        registry: &registry,
        journal: journal.as_ref(),
        stop: &stop,
        board: &board,
    };

    let result = std::thread::scope(|s| {
        let stop_ref = &stop;
        let shared_ref = &conn_shared;
        s.spawn(move || {
            let conn_ids = AtomicU64::new(0);
            while !stop_ref.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let conn = conn_ids.fetch_add(1, Ordering::Relaxed) + 1;
                        let tx = tx.clone();
                        s.spawn(move || serve_router_connection(shared_ref, &tx, stream, conn));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => break,
                }
            }
            // Dropping the accept loop's sender lets the engine read EOF
            // once every connection handler has also hung up.
        });
        let mut reader = ChannelReader { rx, buf: Vec::new(), pos: 0 };
        let result = router.run_reader(&mut reader, OverloadPolicy::DropOldest, checkpoint, sinks);
        stop.store(true, Ordering::Relaxed);
        // Queries still in flight were either answered during the drain
        // or never reached the engine; wake any connection waiting on
        // the latter.
        registry.drain();
        result
    });
    if let Some(j) = journal {
        let writer = match j.into_inner() {
            Ok(w) => w,
            Err(p) => p.into_inner(),
        };
        let errors = writer.finish();
        if errors > 0 {
            return Err(format!("journal write errors: {errors}"));
        }
    }
    std::fs::remove_file(path).ok();
    let lost = board.reply_errors.load(Ordering::Relaxed);
    if lost > 0 {
        eprintln!("{lost} interactive replies lost to disconnected clients");
    }
    result
}

/// Context the accept loop shares with every connection handler.
#[derive(Clone, Copy)]
struct ConnShared<'a> {
    schema: &'a Schema,
    registry: &'a InteractiveRegistry,
    journal: Option<&'a Mutex<JournalWriter>>,
    stop: &'a AtomicBool,
    board: &'a StatusBoard,
}

/// Per-connection reader: render records to canonical lines, journal +
/// forward them in one locked step (so journal order is the engine's
/// consumption order), stamp interactive lines with a reply token and
/// relay the answer back. `conn` is the monotone connection id used for
/// journal tagging.
fn serve_router_connection(
    shared: &ConnShared<'_>,
    tx: &std::sync::mpsc::Sender<String>,
    stream: UnixStream,
    conn: u64,
) {
    let ConnShared { schema, registry, journal, stop, board } = *shared;
    let mut writer = stream.try_clone().ok();
    let mut dict = DecodeDict::new();
    let mut seq = 0u64;
    for record in RecordIter::new(BufReader::new(stream)) {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let line = match record {
            Record::Line(line) => line,
            Record::Item(item) => {
                if let WireItem::Define { .. } = item {
                    // Defines only update the connection's dictionary;
                    // events re-render as self-contained lines, so the
                    // journal stays definition-free.
                    render_item(&mut dict, &item, None);
                    continue;
                }
                match render_item(&mut dict, &item, None) {
                    Some(line) => line,
                    // Forwarded as a line the parser rejects, so live
                    // and journal-replay invalid counts agree.
                    None => "{\"invalid\":\"undecodable binary item\"}".to_owned(),
                }
            }
            Record::Corrupt => "{\"invalid\":\"corrupt record\"}".to_owned(),
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        seq += 1;
        // The engine's rule, so a line gets a reply token exactly when
        // the engine will answer it.
        let control = line_control(trimmed, schema);
        let interactive =
            control.is_some_and(|c| !matches!(c, Control::Shutdown | Control::Checkpoint));
        let mut pending = None;
        {
            // Journal-write and channel-send under one lock so journal
            // order is consumption order — including the barrier
            // position of interactive queries, which a replay must
            // answer after the same events.
            let mut guard = journal.map(|j| match j.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            });
            if let Some(g) = guard.as_mut() {
                g.write_line(conn, seq, &line);
            }
            if interactive {
                let (reply_tx, reply_rx) = std::sync::mpsc::channel();
                let token = registry.register(reply_tx);
                // The token goes in as the object's first key: the
                // parser keeps the first of duplicate keys, so a token
                // the client sent cannot redirect the reply.
                let _ = tx.send(format!("{{\"token\":{token},{}", &trimmed[1..]));
                pending = Some(reply_rx);
            } else {
                let _ = tx.send(trimmed.to_owned());
            }
        }
        // Block this connection until the engine answers; a query
        // outliving the run goes unanswered (its sender is dropped with
        // the registry) and is skipped.
        if let Some(reply) = pending.and_then(|rx| rx.recv().ok()) {
            // A peer that hung up mid-reply is counted, never fatal:
            // the answer already reflects the stream (nothing to undo),
            // and the next read sees the disconnect and ends the
            // handler.
            let sent = writer.as_mut().is_some_and(|w| writeln!(w, "{reply}").is_ok());
            if !sent {
                board.reply_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        if matches!(control, Some(Control::Shutdown)) {
            stop.store(true, Ordering::Relaxed);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DriftThresholds, ServiceConfig};
    use crate::router::{OverloadPolicy, Router};
    use isel_workload::synthetic::{self, SyntheticConfig};
    use std::io::{BufRead, Read};

    /// Whole-workload tuning (`shards == 0`) behind the socket front.
    fn whole(w: &isel_workload::Workload, cfg: ServiceConfig) -> Router {
        assert_eq!(cfg.shards, 0);
        Router::new(w.schema().clone(), cfg).unwrap()
    }

    fn test_setup() -> (isel_workload::Workload, ServiceConfig, std::path::PathBuf) {
        let w = synthetic::generate(&SyntheticConfig {
            tables: 1,
            attrs_per_table: 8,
            queries_per_table: 10,
            rows_base: 20_000,
            max_query_width: 3,
            update_fraction: 0.0,
            seed: 44,
        });
        let cfg = ServiceConfig {
            epoch_events: 8,
            window_epochs: 2,
            max_templates: 32,
            drift: DriftThresholds::always_adapt(),
            ..ServiceConfig::default()
        };
        let dir = std::env::temp_dir().join("isel-service-socket-test");
        std::fs::create_dir_all(&dir).unwrap();
        (w, cfg, dir)
    }

    fn event_lines(w: &isel_workload::Workload, n: usize) -> Vec<String> {
        w.queries()[..n]
            .iter()
            .map(|q| {
                let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
                format!("{{\"table\":{},\"attrs\":[{}]}}", q.table().0, attrs.join(","))
            })
            .collect()
    }

    /// Connect once the listener is up.
    fn connect(sock: &Path) -> UnixStream {
        loop {
            match UnixStream::connect(sock) {
                Ok(s) => return s,
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// The next reply line on `stream`, read byte by byte so nothing
    /// behind it is consumed.
    fn read_reply(stream: &mut UnixStream) -> String {
        let mut reply = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            stream.read_exact(&mut byte).unwrap();
            if byte[0] == b'\n' {
                return String::from_utf8(reply).unwrap();
            }
            reply.push(byte[0]);
        }
    }

    #[test]
    fn socket_round_trip_with_shutdown() {
        let (w, cfg, dir) = test_setup();
        let sock = dir.join(format!("isel-{}.sock", std::process::id()));
        let mut router = whole(&w, cfg);
        let events = event_lines(&w, 8);

        let report = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            s.spawn(move || {
                // Wait for the listener to come up, then stream events.
                let mut stream = connect(&sock_path);
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
            });
            run_socket_router(&mut router, &sock, None, None, &[]).unwrap()
        });
        assert_eq!(report.ingested, 8);
        assert_eq!(report.epochs.len(), 1, "8 events seal one epoch");
        assert!(!report.final_selection.is_empty());
        assert!(!sock.exists(), "socket file cleaned up");
    }

    #[test]
    fn whatif_queries_are_answered_on_the_connection() {
        let (w, cfg, dir) = test_setup();
        let sock = dir.join(format!("isel-whatif-{}.sock", std::process::id()));
        let mut router = whole(&w, cfg);
        let events = event_lines(&w, 8);
        let probe = 1u64 << 20;

        let (report, reply) = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            let client = s.spawn(move || {
                let mut stream = connect(&sock_path);
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                // The whatif barrier is answered only after the 8 events
                // before it sealed and tuned an epoch.
                writeln!(stream, "{{\"control\":\"whatif\",\"budget\":{probe}}}").unwrap();
                let reply = read_reply(&mut stream);
                stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
                reply
            });
            let report = run_socket_router(&mut router, &sock, None, None, &[]).unwrap();
            (report, client.join().unwrap())
        });
        assert_eq!(report.ingested, 8);
        assert_eq!(report.epochs.len(), 1);
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v.get("budget").and_then(|b| b.as_u64()), Some(probe));
        assert!(v.get("total_memory").and_then(|m| m.as_u64()).unwrap() <= probe);
        // Served answer is byte-identical to an offline read of the same
        // maintained state.
        assert_eq!(reply, router.arbiter().whatif(probe));
    }

    #[test]
    fn sharded_socket_answers_whatif_and_tenant_queries() {
        let w = synthetic::generate(&SyntheticConfig {
            tables: 3,
            attrs_per_table: 8,
            queries_per_table: 10,
            rows_base: 20_000,
            max_query_width: 3,
            update_fraction: 0.0,
            seed: 44,
        });
        let cfg = ServiceConfig {
            epoch_events: 8,
            window_epochs: 2,
            max_templates: 32,
            drift: DriftThresholds::always_adapt(),
            shards: 2,
            ..ServiceConfig::default()
        };
        let dir = std::env::temp_dir().join("isel-service-socket-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join(format!("isel-router-{}.sock", std::process::id()));
        let mut router = Router::new(w.schema().clone(), cfg).unwrap();
        // 16 events over table 0's templates: two sealed epochs for
        // group 0 before the queries arrive.
        let events: Vec<String> = w
            .queries()
            .iter()
            .filter(|q| q.table().0 == 0)
            .cycle()
            .take(16)
            .map(|q| {
                let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
                format!("{{\"table\":{},\"attrs\":[{}]}}", q.table().0, attrs.join(","))
            })
            .collect();
        let probe = 1u64 << 22;

        let (report, replies) = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            let client = s.spawn(move || {
                let mut stream = connect(&sock_path);
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                writeln!(stream, "{{\"control\":\"whatif\",\"budget\":{probe}}}").unwrap();
                writeln!(stream, "{{\"control\":\"tenant\",\"table_group\":0,\"budget\":{probe}}}")
                    .unwrap();
                let replies = [read_reply(&mut stream), read_reply(&mut stream)];
                stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
                replies
            });
            let report =
                run_socket_router(&mut router, &sock, None, None, &[]).unwrap();
            (report, client.join().unwrap())
        });
        assert_eq!(report.ingested, 16);
        // The served answers are byte-identical to offline reads of the
        // same maintained state.
        assert_eq!(replies[0], router.arbiter().whatif(probe));
        assert_eq!(replies[1], router.arbiter().tenant(0, probe));
        let v: serde_json::Value = serde_json::from_str(&replies[0]).unwrap();
        assert!(v.get("total_memory").and_then(|m| m.as_u64()).unwrap() <= probe);
        let v: serde_json::Value = serde_json::from_str(&replies[1]).unwrap();
        assert_eq!(v.get("table_group").and_then(|t| t.as_u64()), Some(0));
        assert!(v.get("cost").and_then(|c| c.as_f64()).is_some(), "published group has a cost");
    }

    /// A client line that already carries a `"token"` cannot redirect
    /// the reply: the engine reads the token the front stamped, so the
    /// answer comes back on the asking connection — not to stderr or to
    /// another connection's pending query, with the sender blocked until
    /// the run ends.
    #[test]
    fn a_client_token_cannot_redirect_the_reply() {
        let (w, cfg, dir) = test_setup();
        let sock = dir.join(format!("isel-forged-{}.sock", std::process::id()));
        let mut router = whole(&w, cfg);
        let events = event_lines(&w, 8);
        let probe = 1u64 << 20;

        let reply = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            let client = s.spawn(move || {
                let mut stream = connect(&sock_path);
                stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                writeln!(stream, "{{\"control\":\"whatif\",\"budget\":{probe},\"token\":7}}")
                    .unwrap();
                let mut reply = String::new();
                let read = BufReader::new(stream.try_clone().unwrap()).read_line(&mut reply);
                // End the run from a fresh connection: after a timeout
                // this one is still waiting on the engine.
                connect(&sock_path).write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
                read.map(|_| reply.trim_end().to_owned())
            });
            run_socket_router(&mut router, &sock, None, None, &[]).unwrap();
            client.join().unwrap()
        });
        let reply = reply.expect("the reply arrives on the asking connection");
        assert_eq!(reply, router.arbiter().whatif(probe));
    }

    /// Poll `{"control":"status"}` on `stream` until the reply's
    /// `counter` reaches `n`. Waiting for `ingested` orders the controls
    /// sent on this connection afterwards behind those events —
    /// connections are served concurrently, so a `shutdown` would
    /// otherwise race another connection's unread tail.
    fn await_status(stream: &mut UnixStream, counter: &str, n: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            stream.write_all(b"{\"control\":\"status\"}\n").unwrap();
            let reply = read_reply(stream);
            let got: u64 = reply
                .split(&format!("\"{counter}\":"))
                .nth(1)
                .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
                .unwrap_or_else(|| panic!("status reply carries no {counter} counter: {reply}"))
                .parse()
                .unwrap();
            if got >= n {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "{counter} never reached {n}: {reply}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A client that asks `whatif` and hangs up before reading the reply
    /// must not tear down the serving loop: the failed reply write is
    /// absorbed — and counted where the status line reads it — while
    /// other connections keep being served.
    fn survives_disconnect_mid_query(shards: u32, sock: &str) {
        let (w, cfg, dir) = test_setup();
        let cfg = ServiceConfig { shards, ..cfg };
        let sock = dir.join(format!("{sock}-{}.sock", std::process::id()));
        let mut router = Router::new(w.schema().clone(), cfg).unwrap();
        let events = event_lines(&w, 8);

        let report = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            s.spawn(move || {
                let mut stream = connect(&sock_path);
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                // Ask, then vanish without reading the answer.
                writeln!(stream, "{{\"control\":\"whatif\",\"budget\":1048576}}").unwrap();
                stream.shutdown(std::net::Shutdown::Both).unwrap();
                drop(stream);
                // A second client is still served, sees the lost reply in
                // its status line, and can end the run — once everything
                // above has actually been ingested.
                let mut stream = UnixStream::connect(&sock_path).unwrap();
                writeln!(stream, "{}", events[0]).unwrap();
                await_status(&mut stream, "ingested", 9);
                await_status(&mut stream, "reply_errors", 1);
                stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
            });
            run_socket_router(&mut router, &sock, None, None, &[]).unwrap()
        });
        assert_eq!(report.ingested, 9, "both connections fully served");
        assert_eq!(router.board().reply_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn disconnect_mid_query_does_not_abort_serving() {
        survives_disconnect_mid_query(0, "isel-gone");
    }

    #[test]
    fn router_survives_disconnect_mid_query() {
        survives_disconnect_mid_query(2, "isel-router-gone");
    }

    #[test]
    fn journal_records_arrival_order_and_status_replies() {
        let (w, cfg, dir) = test_setup();
        let sock = dir.join(format!("isel-journal-{}.sock", std::process::id()));
        let journal = dir.join(format!("isel-journal-{}.jsonl", std::process::id()));
        let mut router = whole(&w, cfg.clone());
        let board = router.board();
        let events = event_lines(&w, 8);

        let report = std::thread::scope(|s| {
            let sock_path = sock.clone();
            let events = &events;
            s.spawn(move || {
                let mut stream = connect(&sock_path);
                for e in events {
                    writeln!(stream, "{e}").unwrap();
                }
                // Status is out of band: it reads what the shard has
                // folded and posted so far, so let that catch up.
                while board.totals().ingested < 8 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                stream.write_all(b"{\"control\":\"status\"}\n").unwrap();
                // The status reply comes back on this connection as one
                // JSON line before anything else is written to it.
                let reply = read_reply(&mut stream);
                assert!(reply.contains("\"ingested\":8"), "status reply: {reply}");
                stream.write_all(b"{\"control\":\"shutdown\"}\n").unwrap();
            });
            let jcfg = JournalConfig {
                path: journal.clone(),
                format: crate::journal::WireFormat::Jsonl,
                max_bytes: None,
            };
            run_socket_router(&mut router, &sock, None, Some(&jcfg), &[]).unwrap()
        });
        assert_eq!(report.ingested, 8);

        // Journal lines carry conn/seq tags in increasing per-connection
        // order, and the control lines are journaled too.
        let text = std::fs::read_to_string(&journal).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 10, "8 events + status + shutdown journaled");
        let mut last_seq = 0u64;
        for l in &lines {
            let v: serde_json::Value = serde_json::from_str(l).unwrap();
            assert_eq!(v.get("conn").and_then(|c| c.as_u64()), Some(1));
            let seq = v.get("seq").and_then(|s| s.as_u64()).unwrap();
            assert!(seq > last_seq, "sequence numbers strictly increase");
            last_seq = seq;
        }

        // Replaying the journal through the deterministic reader
        // reproduces the live outcome: RawLine ignores conn/seq.
        let rep = whole(&w, cfg)
            .run_reader(&mut std::io::Cursor::new(text), OverloadPolicy::Block, None, &[])
            .unwrap();
        assert_eq!(rep.ingested, report.ingested);
        assert_eq!(rep.epochs.len(), report.epochs.len());
        assert_eq!(
            rep.final_selection.indexes(),
            report.final_selection.indexes()
        );
        std::fs::remove_file(&journal).ok();
    }

    /// What the live run counted invalid, the journal's replay counts
    /// invalid too: a binary event of a template nobody defined and a
    /// corrupt frame are journaled as lines the parser rejects, not
    /// counted on the side and forgotten.
    #[test]
    fn undecodable_records_are_invalid_live_and_on_replay() {
        use crate::frame::{put_frame, put_item, FrameEncoder, MAGIC};
        let (w, cfg, dir) = test_setup();
        let sock = dir.join(format!("isel-invalid-{}.sock", std::process::id()));
        let journal = dir.join(format!("isel-invalid-{}.jsonl", std::process::id()));

        let q = &w.queries()[0];
        let attrs: Vec<u32> = q.attrs().iter().map(|a| a.0).collect();
        let mut bytes = Vec::new();
        let mut enc = FrameEncoder::new();
        enc.push_query(q.table().0, &attrs, 1, isel_workload::QueryKind::Select);
        enc.flush_into(&mut bytes);
        let mut payload = Vec::new();
        put_item(&mut payload, &WireItem::Event { template: 99, frequency: 1 });
        put_frame(&mut bytes, &payload);
        bytes.extend_from_slice(&[MAGIC, 0x7F, 0xde, 0xad, b'\n']); // no such version
        bytes.extend_from_slice(b"{\"control\":\"shutdown\"}\n");

        let mut router = whole(&w, cfg.clone());
        let live = std::thread::scope(|s| {
            let sock_path = sock.clone();
            s.spawn(move || {
                let mut stream = connect(&sock_path);
                stream.write_all(&bytes).unwrap();
            });
            let jcfg = JournalConfig {
                path: journal.clone(),
                format: crate::journal::WireFormat::Jsonl,
                max_bytes: None,
            };
            run_socket_router(&mut router, &sock, None, Some(&jcfg), &[]).unwrap()
        });
        assert_eq!((live.ingested, live.invalid), (1, 2));

        let text = std::fs::read_to_string(&journal).unwrap();
        let replayed = whole(&w, cfg)
            .run_reader(&mut std::io::Cursor::new(text), OverloadPolicy::Block, None, &[])
            .unwrap();
        assert_eq!((replayed.ingested, replayed.invalid), (live.ingested, live.invalid));
        std::fs::remove_file(&journal).ok();
    }
}
