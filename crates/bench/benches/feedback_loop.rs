//! Observed-cost feedback overhead: the same probe-interleaved stream
//! ingested with calibration off vs on.
//!
//! The acceptance bar (DESIGN.md §17) is that turning `--calibrate`
//! on costs **≤ 10 % of ingest throughput at the 50 000 events/sec
//! scale**. Both lanes consume an identical log — one observed-cost
//! probe every `PROBE_EVERY` query events — so the off lane pays the
//! probe *parse* (probes are stream lines either way) and the on lane
//! additionally pays the ratio-tracker fold and snapshot bookkeeping.
//! `epoch_events` stays above the log length: tuning cost is Algorithm
//! 1's business; this lane isolates the streaming-path delta.
//!
//! * `feedback_loop/{off,on}` — criterion capacity lanes.
//! * `feedback_contract_check` — min-of-5 flat-out ratio assert
//!   (on ≤ 1.10 × off) plus a paced 50 000 events/sec drop-oldest run
//!   with calibration on that must shed nothing and account every probe.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use isel_service::{OverloadPolicy, Router, ServiceConfig};
use isel_workload::synthetic::{self, SyntheticConfig};
use isel_workload::Workload;
use std::io::{BufRead, Cursor, Read};
use std::time::{Duration, Instant};

const EVENTS: usize = 20_000;
const PROBE_EVERY: usize = 8;

fn workload() -> Workload {
    synthetic::generate(&SyntheticConfig {
        tables: 5,
        attrs_per_table: 20,
        queries_per_table: 20,
        rows_base: 500_000,
        ..SyntheticConfig::default()
    })
}

/// `n` round-robin query events with an observed-cost probe for the
/// same template after every `PROBE_EVERY`-th one.
fn probed_log(w: &Workload, n: usize) -> (String, usize) {
    let mut out = String::new();
    let mut probes = 0;
    for i in 0..n {
        let q = &w.queries()[i % w.query_count()];
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        let attrs = attrs.join(",");
        let table = q.table().0;
        out.push_str(&format!("{{\"table\":{table},\"attrs\":[{attrs}]}}\n"));
        if (i + 1) % PROBE_EVERY == 0 {
            let cost = ((i % 13) as f64 + 1.0) * 1000.0;
            out.push_str(&format!(
                "{{\"table\":{table},\"attrs\":[{attrs}],\"observed_cost\":{cost}}}\n"
            ));
            probes += 1;
        }
    }
    (out, probes)
}

/// Config that never seals an epoch: streaming path only. `shards: 0`
/// (the default): the whole workload as one group, so both lanes run
/// the one-shard pipeline `isel serve` runs without `--shards`.
fn config(calibrate: bool) -> ServiceConfig {
    let mut cfg = ServiceConfig {
        epoch_events: (EVENTS + 1) as u64,
        ..ServiceConfig::default()
    };
    cfg.calibration.enabled = calibrate;
    cfg
}

fn ingest(w: &Workload, log: &str, calibrate: bool, policy: OverloadPolicy) -> Router {
    let mut router = Router::new(w.schema().clone(), config(calibrate)).expect("valid config");
    let report =
        router.run_reader(Cursor::new(log.as_bytes()), policy, None, &[]).expect("ingest run");
    assert_eq!(report.ingested as usize, EVENTS, "probes must not count as ingested");
    assert_eq!(report.dropped, 0);
    router
}

fn bench_capacity(c: &mut Criterion) {
    let w = workload();
    let (log, _) = probed_log(&w, EVENTS);
    let mut group = c.benchmark_group("feedback_loop");
    for (name, calibrate) in [("off", false), ("on", true)] {
        group.bench_with_input(BenchmarkId::new(name, EVENTS), &log, |b, log| {
            b.iter_batched(
                || (),
                |()| ingest(&w, log, calibrate, OverloadPolicy::Block),
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Constant-rate event source: one line per `fill_buf`, spun out at a
/// fixed interval.
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

/// Not a timing benchmark: the ≤ 10 % contract, printed and asserted.
fn feedback_contract_check(_c: &mut Criterion) {
    const RATE: u64 = 50_000;
    const ROUNDS: usize = 5;
    let w = workload();
    let (log, probes) = probed_log(&w, EVENTS);

    let mut best = [f64::INFINITY; 2];
    for _ in 0..ROUNDS {
        for (slot, calibrate) in [(0, false), (1, true)] {
            let start = Instant::now();
            let router = ingest(&w, &log, calibrate, OverloadPolicy::Block);
            let secs = start.elapsed().as_secs_f64();
            if calibrate {
                let snap = router.calibration();
                assert!(
                    snap.contains(&format!("\"probes\":{probes}")),
                    "tracker missed probes: {snap}"
                );
            }
            if secs < best[slot] {
                best[slot] = secs;
            }
        }
    }
    let ratio = best[1] / best[0];
    println!(
        "feedback_loop_capacity: off {:.1}k events/s, on {:.1}k events/s, overhead {:+.1}%",
        EVENTS as f64 / best[0] / 1e3,
        EVENTS as f64 / best[1] / 1e3,
        (ratio - 1.0) * 100.0
    );
    assert!(
        ratio <= 1.10,
        "calibration costs {:.1}% of ingest throughput — over the 10% bar",
        (ratio - 1.0) * 100.0
    );

    // Paced 50k events/s with calibration on: nothing shed, every probe
    // accounted.
    let mut router = Router::new(w.schema().clone(), config(true)).expect("valid config");
    let start = Instant::now();
    let report = router
        .run_reader(PacedLines::new(&log, RATE), OverloadPolicy::DropOldest, None, &[])
        .expect("paced run");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(report.ingested as usize, EVENTS);
    assert_eq!(report.dropped, 0, "calibrated service shed events at {RATE}/s");
    let snap = router.calibration();
    assert!(snap.contains(&format!("\"probes\":{probes}")), "paced run lost probes: {snap}");
    println!(
        "feedback_paced_check: {} events + {probes} probes at {RATE}/s in {secs:.3}s, \
         dropped 0, queue high-water {}",
        report.ingested, report.queue_high_water
    );
}

criterion_group!(benches, bench_capacity, feedback_contract_check);
criterion_main!(benches);
