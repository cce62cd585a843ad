//! Open-loop load generation: events and queries leave on a fixed
//! schedule whether or not the server keeps up.
//!
//! Every query is timed from the instant it was *due*, not from the
//! instant it was written, so a stall — in the server or in the
//! generator — shows up as latency on every query scheduled during it
//! instead of silently stretching the schedule. How late the generator
//! itself ran is reported next to the latencies.

use std::io::{BufRead, ErrorKind, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A fixed send schedule: `ticks` ticks `tick` apart; one chunk of
/// events leaves on every tick and one query on every
/// `query_every`-th.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Plan {
    /// Distance between ticks.
    pub tick: Duration,
    /// Ticks in the session.
    pub ticks: usize,
    /// A query is due on tick 0 and every `query_every` ticks after.
    pub query_every: usize,
}

impl Plan {
    /// When tick `i` is due, ns after the session's origin.
    pub fn due_ns(&self, i: usize) -> u64 {
        self.tick.as_nanos() as u64 * i as u64
    }

    /// Whether a query leaves on tick `i`.
    pub fn query_on(&self, i: usize) -> bool {
        i.is_multiple_of(self.query_every)
    }

    /// Queries in the session.
    pub fn queries(&self) -> usize {
        self.ticks.div_ceil(self.query_every)
    }
}

/// What one session observed. All times are ns after the origin.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionLog {
    /// Due time of each query, in send order.
    pub query_due_ns: Vec<u64>,
    /// Arrival time of each query's reply; `None` when it never came.
    pub reply_ns: Vec<Option<u64>>,
    /// Each reply line, in arrival order.
    pub replies: Vec<String>,
    /// How long after its due time each tick's send began.
    pub tick_late_ns: Vec<u64>,
}

/// Reply latency of every query, measured from its due time, in ms;
/// and how many queries count as failed — unanswered, or answered
/// later than `limit` after they were due.
pub fn due_time_latencies(log: &SessionLog, limit: Duration) -> (Vec<f64>, usize) {
    let mut failed = 0usize;
    let mut ms = Vec::with_capacity(log.query_due_ns.len());
    for (due, reply) in log.query_due_ns.iter().zip(&log.reply_ns) {
        match reply {
            Some(at) => {
                let ns = at.saturating_sub(*due);
                if u128::from(ns) > limit.as_nanos() {
                    failed += 1;
                }
                ms.push(ns as f64 / 1e6);
            }
            None => failed += 1,
        }
    }
    (ms, failed)
}

/// Drive one session against a server.
///
/// Each tick fills a buffer with `next_chunk` and writes it to `events`
/// and, when a query is due, writes `query(n)` (one line, newline
/// included) to `queries`; a second thread timestamps each line
/// arriving on `replies`. Replies come
/// back in query order, so the `n`-th line answers the `n`-th query.
/// After the last tick the reader keeps waiting until every query is
/// answered or `replies` reports a timeout (set one on the socket) or
/// end of stream.
///
/// # Errors
///
/// Returns the first error from `next_chunk` or from a write on either
/// connection.
pub fn run_session<E, Q, R>(
    plan: &Plan,
    mut next_chunk: impl FnMut(&mut Vec<u8>) -> std::io::Result<()>,
    query: impl Fn(usize) -> String,
    mut events: E,
    mut queries: Q,
    mut replies: R,
) -> std::io::Result<SessionLog>
where
    E: Write,
    Q: Write,
    R: BufRead + Send,
{
    let origin = Instant::now();
    let now_ns = move || origin.elapsed().as_nanos() as u64;
    let expected = plan.queries();
    let sending_done = AtomicBool::new(false);
    let mut log = SessionLog::default();

    let (sent, received) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut got: Vec<(u64, String)> = Vec::with_capacity(expected);
            let mut line = String::new();
            while got.len() < expected {
                match replies.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) if line.ends_with('\n') => {
                        got.push((now_ns(), line.trim_end().to_owned()));
                        line.clear();
                    }
                    // A timeout split the line: keep what arrived and read on.
                    Ok(_) => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        if sending_done.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            got
        });

        let sent = (|| -> std::io::Result<()> {
            let mut n = 0usize;
            let mut chunk = Vec::new();
            for i in 0..plan.ticks {
                // Fetched ahead of the due time, so reading the events
                // costs the schedule nothing.
                chunk.clear();
                next_chunk(&mut chunk)?;
                let due = plan.due_ns(i);
                let now = now_ns();
                if now < due {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                log.tick_late_ns.push(now_ns().saturating_sub(due));
                events.write_all(&chunk)?;
                if plan.query_on(i) {
                    log.query_due_ns.push(due);
                    queries.write_all(query(n).as_bytes())?;
                    n += 1;
                }
            }
            events.flush()?;
            queries.flush()
        })();
        sending_done.store(true, Ordering::SeqCst);
        (sent, reader.join().expect("reply reader does not panic"))
    });
    sent?;

    log.reply_ns = (0..log.query_due_ns.len())
        .map(|n| received.get(n).map(|r| r.0))
        .collect();
    log.replies = received.into_iter().map(|r| r.1).collect();
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};
    use std::os::unix::net::UnixStream;

    #[test]
    fn schedule_is_fixed_by_the_plan() {
        let plan = Plan {
            tick: Duration::from_millis(1),
            ticks: 25,
            query_every: 10,
        };
        assert_eq!(plan.due_ns(0), 0);
        assert_eq!(plan.due_ns(7), 7_000_000);
        assert_eq!(
            (0..25).filter(|&i| plan.query_on(i)).collect::<Vec<_>>(),
            [0, 10, 20]
        );
        assert_eq!(plan.queries(), 3);
        assert_eq!(Plan { ticks: 20, ..plan }.queries(), 2);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Query 1 was due at 10 ms. Whether the generator wrote it on time
        // or 40 ms late, a reply at 52 ms kept its user waiting 42 ms.
        let log = SessionLog {
            query_due_ns: vec![0, 10_000_000, 20_000_000, 30_000_000],
            reply_ns: vec![Some(1_000_000), Some(52_000_000), Some(1_500_000_000), None],
            ..SessionLog::default()
        };
        let (ms, failed) = due_time_latencies(&log, Duration::from_secs(1));
        assert_eq!(ms, vec![1.0, 42.0, 1480.0]);
        // One reply came after the 1 s limit and one never came.
        assert_eq!(failed, 2);
    }

    /// A server that answers each query line as it reads it, except that
    /// it sits on query `stall_at` until told to go on.
    fn fake_server(
        events: UnixStream,
        queries: UnixStream,
        stall_at: usize,
        go: std::sync::mpsc::Receiver<()>,
    ) -> std::thread::JoinHandle<usize> {
        std::thread::spawn(move || {
            let drain = std::thread::spawn(move || {
                let mut sink = Vec::new();
                BufReader::new(events).read_to_end(&mut sink).unwrap();
                sink.len()
            });
            let mut out = queries.try_clone().unwrap();
            for (n, line) in BufReader::new(queries).lines().enumerate() {
                if n == stall_at {
                    go.recv().unwrap();
                }
                writeln!(out, "reply to {}", line.unwrap()).unwrap();
            }
            drain.join().unwrap()
        })
    }

    #[test]
    fn a_stalled_server_inflates_every_query_due_during_the_stall() {
        let plan = Plan {
            tick: Duration::from_millis(2),
            ticks: 40,
            query_every: 4,
        };
        let (ev_client, ev_server) = UnixStream::pair().unwrap();
        let (q_client, q_server) = UnixStream::pair().unwrap();
        let (go_tx, go_rx) = std::sync::mpsc::channel();
        let server = fake_server(ev_server, q_server, 3, go_rx);
        q_client
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let chunk = b"e\ne\n";

        // The stall ends only once the generator has sent its whole
        // schedule: the releasing write happens after the last tick.
        struct ReleaseOnFlush(UnixStream, std::sync::mpsc::Sender<()>);
        impl Write for ReleaseOnFlush {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.write(b)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                let _ = self.1.send(());
                self.0.flush()
            }
        }
        let log = run_session(
            &plan,
            |buf| {
                buf.extend_from_slice(chunk);
                Ok(())
            },
            |n| format!("q{n}\n"),
            ev_client.try_clone().unwrap(),
            ReleaseOnFlush(q_client.try_clone().unwrap(), go_tx),
            BufReader::new(q_client.try_clone().unwrap()),
        )
        .unwrap();
        drop((ev_client, q_client));
        assert_eq!(server.join().unwrap(), plan.ticks * chunk.len());

        assert_eq!(log.query_due_ns.len(), 10);
        assert_eq!(log.tick_late_ns.len(), 40);
        assert_eq!(log.replies[3], "reply to q3");
        let (ms, failed) = due_time_latencies(&log, Duration::from_secs(10));
        assert_eq!((ms.len(), failed), (10, 0));
        // Queries 3..=9 were due at 24, 32, … 72 ms and none was answered
        // before the last tick at 78 ms: each waited from its own due
        // time, so the earlier a query was due the longer it waited.
        for (n, &waited) in ms.iter().enumerate().skip(3) {
            let at_least = 78.0 - 8.0 * n as f64;
            assert!(waited >= at_least, "query {n}: {waited} ms < {at_least} ms");
        }
        assert!(ms[3] > ms[9] + 40.0, "{ms:?}");
    }

    #[test]
    fn missing_replies_are_reported_not_waited_for_forever() {
        let plan = Plan {
            tick: Duration::from_millis(1),
            ticks: 6,
            query_every: 2,
        };
        let (ev_client, _ev_server) = UnixStream::pair().unwrap();
        let (q_client, q_server) = UnixStream::pair().unwrap();
        q_client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        // Answers the first query only.
        let server = std::thread::spawn(move || {
            let mut out = q_server.try_clone().unwrap();
            let mut lines = BufReader::new(q_server).lines();
            lines.next().unwrap().unwrap();
            writeln!(out, "only reply").unwrap();
            lines.count()
        });
        let log = run_session(
            &plan,
            |buf| {
                buf.extend_from_slice(b"e\n");
                Ok(())
            },
            |n| format!("q{n}\n"),
            ev_client,
            q_client.try_clone().unwrap(),
            BufReader::new(q_client.try_clone().unwrap()),
        )
        .unwrap();
        drop(q_client);
        assert_eq!(server.join().unwrap(), 2);
        assert_eq!(log.replies, ["only reply"]);
        assert!(log.reply_ns[0].is_some());
        assert_eq!(&log.reply_ns[1..], [None, None]);
        assert_eq!(due_time_latencies(&log, Duration::from_secs(1)).1, 2);
    }
}
