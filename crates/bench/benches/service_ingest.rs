//! Service ingestion throughput: the daemon's reader → bounded queue →
//! window-aggregation path, isolated from tuning.
//!
//! The acceptance bar for the continuous-tuning daemon is sustained
//! ingestion of **≥ 50 000 events/sec with a zero drop counter**
//! (DESIGN.md §12). Both measurements set `epoch_events` above the
//! log length so no epoch seals — tuning cost is Algorithm 1's business
//! and is measured elsewhere; here we want the streaming overhead alone:
//! JSON parse + validation, queue hand-off between the reader and
//! consumer threads, and the per-event `BTreeMap` fold into the current
//! epoch.
//!
//! * `reader_queue_window` drives the pipeline flat-out under the
//!   lossless blocking policy: its per-run time gives the pipeline's
//!   *capacity* in events/sec.
//! * `paced_overload_check` replays the same log through the drop-oldest
//!   policy at a paced 50 000 events/sec arrival rate and fails if a
//!   single event is shed — the live daemon's zero-drop contract at the
//!   target rate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isel_service::{parse_line, Daemon, InputLine, OverloadPolicy, ServiceConfig};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::Workload;
use std::io::{BufRead, Cursor, Read};
use std::time::{Duration, Instant};

const EVENTS: usize = 20_000;

fn workload() -> Workload {
    synthetic::generate(&SyntheticConfig {
        tables: 5,
        attrs_per_table: 20,
        queries_per_table: 20,
        rows_base: 500_000,
        ..SyntheticConfig::default()
    })
}

/// Round-robin the workload's templates into an event log of `n` lines.
fn event_log(w: &Workload, n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        let q = &w.queries()[i % w.query_count()];
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        out.push_str(&format!(
            "{{\"table\":{},\"attrs\":[{}]}}\n",
            q.table().0,
            attrs.join(",")
        ));
    }
    out
}

/// Config that never seals an epoch: streaming path only.
fn ingest_config() -> ServiceConfig {
    ServiceConfig {
        epoch_events: (EVENTS + 1) as u64,
        ..ServiceConfig::default()
    }
}

fn bench_parse(c: &mut Criterion) {
    let w = workload();
    let line = event_log(&w, 1);
    let line = line.trim();
    c.bench_function("service_parse_line", |b| {
        b.iter(|| match parse_line(line, w.schema()) {
            Ok(InputLine::Query(q)) => q.frequency(),
            _ => unreachable!("valid event line"),
        })
    });
}

fn bench_ingest_end_to_end(c: &mut Criterion) {
    let w = workload();
    let log = event_log(&w, EVENTS);
    let cfg = ingest_config();
    let mut group = c.benchmark_group("service_ingest");
    group.bench_with_input(
        BenchmarkId::new("reader_queue_window", EVENTS),
        &log,
        |b, log| {
            b.iter_batched(
                || Daemon::new(w.schema().clone(), cfg.clone()).expect("valid config"),
                |mut daemon| {
                    let report = daemon
                        .run_reader(
                            Cursor::new(log.as_bytes()),
                            OverloadPolicy::Block,
                            None,
                            isel_core::Trace::disabled(),
                        )
                        .expect("ingest run");
                    assert_eq!(report.ingested as usize, EVENTS);
                    assert_eq!(report.dropped, 0, "blocking pushes never drop");
                    report.queue_high_water
                },
                criterion::BatchSize::LargeInput,
            )
        },
    );
    group.finish();
}

/// A `BufRead` releasing one line per fixed interval — a constant-rate
/// event source for the overload check.
struct PacedLines {
    lines: Vec<Vec<u8>>,
    idx: usize,
    pos: usize,
    interval: Duration,
    next: Instant,
}

impl PacedLines {
    fn new(log: &str, events_per_sec: u64) -> Self {
        Self {
            lines: log.lines().map(|l| format!("{l}\n").into_bytes()).collect(),
            idx: 0,
            pos: 0,
            interval: Duration::from_nanos(1_000_000_000 / events_per_sec),
            next: Instant::now(),
        }
    }
}

impl Read for PacedLines {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let buf = self.fill_buf()?;
        let n = buf.len().min(out.len());
        out[..n].copy_from_slice(&buf[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PacedLines {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.idx >= self.lines.len() {
            return Ok(&[]);
        }
        if self.pos == 0 {
            // Spin (not sleep) to the release time: OS sleep granularity
            // is far coarser than the 20 µs inter-arrival gap.
            while Instant::now() < self.next {
                std::hint::spin_loop();
            }
            self.next += self.interval;
        }
        Ok(&self.lines[self.idx][self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        if self.idx >= self.lines.len() {
            return;
        }
        self.pos += amt;
        if self.pos >= self.lines[self.idx].len() {
            self.idx += 1;
            self.pos = 0;
        }
    }
}

/// Not a timing benchmark: a pass/fail contract check printed alongside
/// the numbers. 50 000 events/sec arrival, drop-oldest policy, and the
/// drop counter must stay at zero.
fn paced_overload_check(_c: &mut Criterion) {
    const RATE: u64 = 50_000;
    let w = workload();
    let log = event_log(&w, EVENTS);
    let mut daemon = Daemon::new(w.schema().clone(), ingest_config()).expect("valid config");
    let start = Instant::now();
    let report = daemon
        .run_reader(
            PacedLines::new(&log, RATE),
            OverloadPolicy::DropOldest,
            None,
            isel_core::Trace::disabled(),
        )
        .expect("paced run");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(report.ingested as usize, EVENTS);
    assert_eq!(
        report.dropped, 0,
        "daemon shed events at {RATE}/s — below the acceptance rate"
    );
    println!(
        "service_paced_overload_check: {} events at {RATE}/s in {secs:.3}s, \
         dropped 0, queue high-water {}",
        report.ingested, report.queue_high_water
    );
}

criterion_group!(benches, bench_parse, bench_ingest_end_to_end, paced_overload_check);
criterion_main!(benches);
