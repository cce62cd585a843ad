//! In-memory spans around the calls into each layer.
//!
//! A span is `{id, parent, name, workload, start_ns, end_ns, count}`.
//! They are kept in memory while the probes run and written out as JSON
//! lines when the process ends. A span's *self time* is its duration
//! minus the part of that interval its child spans cover.

use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within a log; ids are handed out in open order.
    pub id: u32,
    /// The span that caused this one; `None` for a root.
    pub parent: Option<u32>,
    /// Layer or stage name.
    pub name: String,
    /// Workload whose path the stage lies on.
    pub workload: String,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
    /// Work done inside the span (events, calls, epochs).
    pub count: u64,
}

/// Span recorder.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// Empty log whose time origin is now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Self::close`].
    pub fn open(&mut self, parent: Option<u32>, name: &str, workload: &str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_owned(),
            workload: workload.to_owned(),
            start_ns: now,
            end_ns: now,
            count: 0,
        });
        id
    }

    /// Close span `id`, recording the work it covered.
    pub fn close(&mut self, id: u32, count: u64) {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.count = count;
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write `workload`'s spans as JSON lines, each with its self time.
    ///
    /// # Errors
    ///
    /// Returns the underlying write error.
    pub fn write_jsonl(&self, workload: &str, mut out: impl Write) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        for (s, self_ns) in self
            .spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.workload == workload)
        {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"count\":{},\"self_ns\":{self_ns}}}",
                s.id, s.name, s.workload, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, in the order given: duration minus the
/// union of the intervals its direct children cover (children are
/// clipped to the parent; overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for (a, b) in kids {
                let a = a.max(edge);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            workload: "w".into(),
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 70),
            span(3, Some(1), 15, 25), // grandchild: counts against 1, not 0
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 90, 150),  // starts before the parent
            span(2, Some(0), 140, 160), // overlaps span 1
            span(3, Some(0), 190, 260), // ends after the parent
        ];
        // Covered: [100,150) ∪ [150,160) ∪ [190,200) = 70.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn log_assigns_ids_in_open_order_and_writes_one_line_per_span() {
        let mut log = SpanLog::new();
        let root = log.open(None, "workload", "tpcc_binary");
        let child = log.open(Some(root), "service.decode", "tpcc_binary");
        log.close(child, 1000);
        log.close(root, 1);
        let elsewhere = log.open(None, "service.parse", "tpcc_jsonl");
        log.close(elsewhere, 7);
        assert_eq!((root, child), (0, 1));
        assert_eq!(log.spans()[1].count, 1000);
        assert!(log.spans()[0].end_ns >= log.spans()[1].end_ns);
        let mut buf = Vec::new();
        log.write_jsonl("tpcc_binary", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"name\":\"workload\""));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
