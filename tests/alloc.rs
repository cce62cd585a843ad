//! Allocations per event on the ingest fast paths: a work count that
//! no host's load or code placement moves (ROADMAP item 23).
//!
//! This binary alone counts every allocation with a counting
//! `#[global_allocator]`; `isel` keeps the system allocator. It replays
//! a TPC-C stream through `Router::run_reader` in both encodings, at
//! `--shards 0` and 1, with epochs longer than the stream (so nothing
//! tunes), and bounds what `2N` events allocate beyond `N` events: the
//! per-event cost, with every per-run and per-template allocation
//! cancelled out.

use isel_service::{convert, OverloadPolicy, Router, ServiceConfig, WireFormat};
use isel_workload::{tpcc, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting each allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Events in the shorter run; the longer one has twice as many.
const N: usize = 8_192;

/// Most allocations 1 000 events may add, per encoding and shard count.
/// Each sits well above what this test measured and far below one per
/// event (1 000): see CHANGES.md for the measurement.
const BOUNDS: [(&str, u32, u64); 4] =
    [("jsonl", 0, 16), ("jsonl", 1, 48), ("binary", 0, 16), ("binary", 1, 48)];

/// `n` frequency-weighted TPC-C events as JSONL, the way `isel record`
/// samples them: a stream of repeated template lines.
fn sample_log(w: &Workload, n: usize) -> String {
    let mut rng = StdRng::seed_from_u64(7);
    let total = w.total_frequency();
    let mut out = String::new();
    for _ in 0..n {
        let mut pick = rng.gen_range(0..total);
        let q = w
            .queries()
            .iter()
            .find(|q| {
                if pick < q.frequency() {
                    true
                } else {
                    pick -= q.frequency();
                    false
                }
            })
            .expect("pick < total");
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        let kind = if q.is_update() { r#","kind":"Update""# } else { "" };
        let table = q.table().0;
        out.push_str(&format!("{{\"table\":{table},\"attrs\":[{}]{kind}}}\n", attrs.join(",")));
    }
    out
}

/// Allocations of a lossless replay of `log`: the fewest of three
/// runs, since how many hand-off batches a shard thread takes at once
/// varies from run to run, and with it a few allocations per batch.
fn allocations(w: &Workload, log: &[u8], shards: u32) -> u64 {
    let config = ServiceConfig { epoch_events: 4 * N as u64, shards, ..ServiceConfig::default() };
    let run = |_| {
        let mut router = Router::new(w.schema().clone(), config.clone()).unwrap();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = router.run_reader(&mut Cursor::new(log), OverloadPolicy::Block, None, &[]);
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(report.unwrap().epochs.is_empty(), "an epoch sealed: the run tuned");
        spent
    };
    (0..3).map(run).min().unwrap()
}

/// One test, so that no other test's allocations land in a count.
#[test]
fn ingest_allocates_per_batch_not_per_event() {
    let (w, _) = tpcc::generate(1);
    let logs = |format: WireFormat| -> [Vec<u8>; 2] {
        [N, 2 * N].map(|n| {
            let jsonl = sample_log(&w, n).into_bytes();
            match format {
                WireFormat::Jsonl => jsonl,
                WireFormat::Binary => convert(&jsonl, WireFormat::Binary),
            }
        })
    };
    for (encoding, shards, bound) in BOUNDS {
        let [short, long] = logs(encoding.parse().unwrap());
        let extra = allocations(&w, &long, shards).saturating_sub(allocations(&w, &short, shards));
        let per_1000 = extra * 1_000 / N as u64;
        eprintln!("{encoding} at --shards {shards}: {per_1000} allocations per 1 000 events");
        assert!(
            per_1000 <= bound,
            "{encoding} at --shards {shards}: {per_1000} allocations per 1 000 events \
             (bound {bound}): something allocates per event"
        );
    }
}
