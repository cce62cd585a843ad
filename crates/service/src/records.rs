//! Unified record stream: JSONL lines and binary frames on one input.
//!
//! [`RecordIter`] reads any `BufRead` and yields [`Record`]s, deciding
//! per record from a single leading byte whether the next bytes are a
//! binary frame ([`crate::frame::MAGIC`], which no UTF-8 line can start
//! with) or a text line. Both the streaming paths (stdin, sockets) and
//! the mmap replay path (`Cursor<&[u8]>` over a mapped journal) run
//! through this one implementation, so a corrupt byte surfaces as an
//! invalid record at the **same deterministic stream position** no
//! matter how the bytes arrived.
//!
//! Corruption never panics and never kills the stream: a frame with a
//! bad version, oversized or truncated length, or checksum mismatch
//! yields one [`Record::Corrupt`] and the reader resyncs at the next
//! [`MAGIC`] byte or just past the next newline. Text lines that are
//! not valid UTF-8 are converted lossily and surface as parse failures
//! downstream instead of silently ending the stream (which is what
//! `BufRead::lines` would do).
//!
//! [`DecodeDict`] is the consumer-side template dictionary: it
//! validates [`WireItem::Define`]s against the schema once — the same
//! checks [`crate::event::parse_line`] applies per line — and
//! pre-builds a frequency-1 [`Query`] per valid template, so resolving
//! a frequency-1 event is an array lookup that allocates nothing. It is
//! the one place a binary event becomes a query: offline replay, a
//! router shard thread and a worker process all resolve through it.

use crate::frame::{get_item, WireItem, FORMAT_VERSION, MAGIC, MAX_PAYLOAD};
use isel_workload::wire::crc32;
use isel_workload::{AttrId, Query, QueryKind, Schema, TableId};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{BufRead, ErrorKind};

/// One record from a mixed-encoding input stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A text line (newline stripped, invalid UTF-8 replaced lossily).
    Line(String),
    /// One decoded item from a valid binary frame.
    Item(WireItem),
    /// An undecodable region: corrupt frame header, checksum mismatch,
    /// or a malformed item inside an otherwise-valid frame. Exactly one
    /// `Corrupt` is emitted per undecodable region.
    Corrupt,
}

/// Iterator over [`Record`]s. Works over any `BufRead`; for mmap replay
/// wrap the mapped bytes in a `std::io::Cursor`.
///
/// `BufRead::fill_buf` only reads — and so only blocks — when the
/// reader's buffer is empty. The iterator therefore tracks how much of
/// the last `fill_buf` it has not consumed, and [`RecordIter::next_with`]
/// tells its caller right before every read that may block: the hook
/// for a consumer that batches records and must not sit on them while
/// the input is idle.
pub struct RecordIter<R: BufRead> {
    input: R,
    /// Items of the frame currently being drained; `None` marks the
    /// corrupt remainder of a frame whose payload went bad mid-way.
    pending: VecDeque<Option<WireItem>>,
    /// Bytes of the last `fill_buf` not consumed yet.
    buffered: usize,
}

impl<R: BufRead> RecordIter<R> {
    /// Wrap an input stream.
    pub fn new(input: R) -> Self {
        Self { input, pending: VecDeque::new(), buffered: 0 }
    }

    /// [`Iterator::next`], calling `before_block` ahead of every read
    /// that may block — that is, every `fill_buf` on a drained buffer,
    /// whether it falls between two records or in the middle of one. A
    /// slice or mapped file drains only at its end, a pipe once per
    /// buffer-full, a reader that hands over one line per `fill_buf`
    /// after every line.
    pub fn next_with(&mut self, mut before_block: impl FnMut()) -> Option<Record> {
        let hook = &mut before_block;
        loop {
            if let Some(slot) = self.pending.pop_front() {
                return Some(match slot {
                    Some(item) => Record::Item(item),
                    None => Record::Corrupt,
                });
            }
            match self.peek(hook)? {
                MAGIC => self.read_frame(hook), // refills `pending`; loop
                _ => return self.read_line(hook).map(Record::Line),
            }
        }
    }

    /// The unconsumed input: empty at EOF, `None` on an I/O error (which
    /// ends the stream, matching line-based ingestion, which stops at the
    /// first read error).
    fn fill(&mut self, before_block: &mut impl FnMut()) -> Option<&[u8]> {
        if self.buffered == 0 {
            before_block();
            loop {
                match self.input.fill_buf() {
                    Ok(buf) => {
                        self.buffered = buf.len();
                        break;
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return None,
                }
            }
            if self.buffered == 0 {
                return Some(&[]); // EOF; asking again would be another read
            }
        }
        // Served from the reader's buffer: no read.
        self.input.fill_buf().ok()
    }

    fn consume(&mut self, n: usize) {
        self.input.consume(n);
        self.buffered -= n;
    }

    /// Next byte without consuming it; `None` at EOF.
    fn peek(&mut self, before_block: &mut impl FnMut()) -> Option<u8> {
        self.fill(before_block)?.first().copied()
    }

    fn read_byte(&mut self, before_block: &mut impl FnMut()) -> Option<u8> {
        let b = self.peek(before_block)?;
        self.consume(1);
        Some(b)
    }

    /// Fill `out` completely; `false` at EOF or on an I/O error.
    fn read_exact(&mut self, out: &mut [u8], before_block: &mut impl FnMut()) -> bool {
        let mut done = 0;
        while done < out.len() {
            let n = match self.fill(before_block) {
                Some(buf) if !buf.is_empty() => {
                    let n = buf.len().min(out.len() - done);
                    out[done..done + n].copy_from_slice(&buf[..n]);
                    n
                }
                _ => return false,
            };
            self.consume(n);
            done += n;
        }
        true
    }

    /// Skip forward to the next plausible record start: the next
    /// [`MAGIC`] byte (left unconsumed) or just past the next newline.
    fn resync(&mut self, before_block: &mut impl FnMut()) {
        while let Some(b) = self.peek(before_block) {
            if b == MAGIC {
                return;
            }
            self.consume(1);
            if b == b'\n' {
                return;
            }
        }
    }

    /// Decode the frame at the current position (first byte is known to
    /// be [`MAGIC`]) into `pending`. On any header, checksum or payload
    /// error, queues one corrupt marker; when the error leaves the
    /// stream position unknown (bad header, truncation), also resyncs.
    fn read_frame(&mut self, before_block: &mut impl FnMut()) {
        self.consume(1); // MAGIC
        match self.try_read_frame(before_block) {
            Ok(()) => {}
            Err(resync) => {
                self.pending.push_back(None);
                if resync {
                    self.resync(before_block);
                }
            }
        }
    }

    /// `Err(true)` = corrupt with unknown extent (resync needed);
    /// `Err(false)` = corrupt but fully consumed (a checksum mismatch
    /// after reading the declared length — the next record starts right
    /// here, so skipping would eat it).
    fn try_read_frame(&mut self, before_block: &mut impl FnMut()) -> Result<(), bool> {
        if self.read_byte(before_block) != Some(FORMAT_VERSION) {
            return Err(true);
        }
        // Varint payload length, byte at a time (it may straddle the
        // underlying reader's buffer boundary).
        let mut len: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some(byte) = self.read_byte(before_block) else { return Err(true) };
            len |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
            if shift > 28 {
                // > MAX_PAYLOAD needs at most 4 varint bytes; anything
                // longer is corrupt by construction.
                return Err(true);
            }
        }
        let Ok(len) = usize::try_from(len) else { return Err(true) };
        if len > MAX_PAYLOAD {
            return Err(true);
        }
        let mut crc_bytes = [0u8; 4];
        if !self.read_exact(&mut crc_bytes, before_block) {
            return Err(true);
        }
        let mut payload = vec![0u8; len];
        if !self.read_exact(&mut payload, before_block) {
            return Err(true);
        }
        if crc32(&payload) != u32::from_le_bytes(crc_bytes) {
            return Err(false);
        }
        let mut pos = 0;
        while pos < payload.len() {
            match get_item(&payload, &mut pos) {
                Some(item) => self.pending.push_back(Some(item)),
                None => {
                    // The frame checksummed clean but an item is
                    // malformed — count the remainder invalid once.
                    self.pending.push_back(None);
                    break;
                }
            }
        }
        Ok(())
    }

    /// The bytes up to and including the next newline (or EOF), as a
    /// line. `None` at EOF and when an I/O error cuts the line short.
    fn read_line(&mut self, before_block: &mut impl FnMut()) -> Option<String> {
        let mut raw = Vec::new();
        loop {
            let buf = self.fill(before_block)?;
            let (n, complete) = match buf.iter().position(|&b| b == b'\n') {
                Some(i) => (i + 1, true),
                None => (buf.len(), buf.is_empty()),
            };
            raw.extend_from_slice(&buf[..n]);
            self.consume(n);
            if complete {
                break;
            }
        }
        if raw.is_empty() {
            return None;
        }
        if raw.last() == Some(&b'\n') {
            raw.pop();
        }
        if raw.last() == Some(&b'\r') {
            raw.pop();
        }
        // Valid UTF-8 — every line but a corrupt one — keeps its buffer.
        Some(match String::from_utf8(raw) {
            Ok(line) => line,
            Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
        })
    }
}

impl<R: BufRead> Iterator for RecordIter<R> {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        self.next_with(|| {})
    }
}

/// One defined template on the consumer side.
struct TemplateEntry {
    table: u16,
    kind: QueryKind,
    /// Attribute ids in written order (for lossless re-rendering).
    attrs: Vec<u32>,
    /// Pre-built frequency-1 query, `None` if the definition failed
    /// schema validation (events referencing it count as invalid).
    query: Option<Query>,
}

/// Consumer-side template dictionary: validates `Define` items against
/// the schema once, then resolves events by id.
#[derive(Default)]
pub struct DecodeDict {
    /// By template id; `None` is an id this consumer was never sent.
    templates: Vec<Option<TemplateEntry>>,
}

impl DecodeDict {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the next template. Returns the assigned id; whether the
    /// definition validated is visible only when an event resolves it
    /// (mirroring how an invalid JSONL line is counted where it occurs,
    /// not where its shape first appeared).
    pub fn define(&mut self, schema: &Schema, table: u16, kind: QueryKind, attrs: Vec<u32>) -> u64 {
        let id = self.templates.len();
        self.define_at(schema, id, table, kind, attrs);
        id as u64
    }

    /// Register a template under an id its producer assigned — a router
    /// hands each shard only the defines of the shard's own tables, and
    /// may shed one under overload. Ids this dictionary never sees stay
    /// undefined, so their events resolve to `None`, and no later id
    /// shifts.
    pub fn define_at(
        &mut self,
        schema: &Schema,
        id: usize,
        table: u16,
        kind: QueryKind,
        attrs: Vec<u32>,
    ) {
        let query = validate_define(schema, table, &attrs).then(|| {
            Query::with_kind(TableId(table), attrs.iter().map(|&a| AttrId(a)).collect(), 1, kind)
        });
        if self.templates.len() <= id {
            self.templates.resize_with(id + 1, || None);
        }
        self.templates[id] = Some(TemplateEntry { table, kind, attrs, query });
    }

    /// Register a template without schema validation, for render-only
    /// consumers (conversion, socket transcoding) that use [`raw`]
    /// and never [`resolve`].
    ///
    /// [`raw`]: Self::raw
    /// [`resolve`]: Self::resolve
    pub fn define_raw(&mut self, table: u16, kind: QueryKind, attrs: Vec<u32>) -> u64 {
        self.templates.push(Some(TemplateEntry { table, kind, attrs, query: None }));
        (self.templates.len() - 1) as u64
    }

    fn entry(&self, template: u64) -> Option<&TemplateEntry> {
        self.templates.get(usize::try_from(template).ok()?)?.as_ref()
    }

    /// Table of a defined template (valid or not), for routing.
    pub fn table_of(&self, template: u64) -> Option<u16> {
        self.entry(template).map(|e| e.table)
    }

    /// Resolve an event to a validated [`Query`]. Frequency-1 events —
    /// the common case — borrow the pre-built query and allocate
    /// nothing. `None` for unknown or schema-invalid templates and for
    /// zero frequencies.
    #[inline]
    pub fn resolve(&self, template: u64, frequency: u64) -> Option<Cow<'_, Query>> {
        let entry = self.entry(template)?;
        let base = entry.query.as_ref()?;
        if frequency == 1 {
            Some(Cow::Borrowed(base))
        } else if frequency == 0 {
            None
        } else {
            Some(Cow::Owned(Query::with_kind(
                base.table(),
                base.attrs().to_vec(),
                frequency,
                entry.kind,
            )))
        }
    }

    /// Raw shape of a template (written-order attrs), for rendering a
    /// decoded event back to canonical JSONL. Available even for
    /// schema-invalid templates, so conversion needs no schema.
    pub fn raw(&self, template: u64) -> Option<(u16, &[u32], QueryKind)> {
        let e = self.entry(template)?;
        Some((e.table, &e.attrs, e.kind))
    }
}

/// The schema checks [`crate::event::parse_line`] applies, on raw ids.
fn validate_define(schema: &Schema, table: u16, attrs: &[u32]) -> bool {
    if table as usize >= schema.tables().len() || attrs.is_empty() {
        return false;
    }
    attrs.iter().all(|&a| {
        (a as usize) < schema.attr_count() && schema.attribute(AttrId(a)).table == TableId(table)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Control;
    use crate::frame::FrameEncoder;
    use isel_workload::SchemaBuilder;
    use std::io::Cursor;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        let t0 = b.table("t0", 1_000);
        b.attribute(t0, "a", 10, 4);
        b.attribute(t0, "b", 10, 4);
        let t1 = b.table("t1", 1_000);
        b.attribute(t1, "c", 10, 4);
        b.finish()
    }

    fn records(bytes: &[u8]) -> Vec<Record> {
        RecordIter::new(Cursor::new(bytes)).collect()
    }

    #[test]
    fn mixed_text_and_frames_interleave() {
        let mut enc = FrameEncoder::new();
        enc.push_query(0, &[0, 1], 1, QueryKind::Select);
        let mut bytes = b"{\"table\":0,\"attrs\":[0]}\n".to_vec();
        enc.flush_into(&mut bytes);
        bytes.extend_from_slice(b"tail line\n");
        let recs = records(&bytes);
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0], Record::Line("{\"table\":0,\"attrs\":[0]}".into()));
        assert!(matches!(recs[1], Record::Item(WireItem::Define { .. })));
        assert!(matches!(recs[2], Record::Item(WireItem::Event { template: 0, frequency: 1 })));
        assert_eq!(recs[3], Record::Line("tail line".into()));
    }

    /// A reader that hands its input over in fixed pieces, one per
    /// `fill_buf` on an empty buffer, and counts those refills — each is
    /// a read that could have blocked.
    struct Pieces {
        pieces: VecDeque<Vec<u8>>,
        current: Vec<u8>,
        pos: usize,
        refills: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl std::io::Read for Pieces {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("RecordIter reads through BufRead only")
        }
    }

    impl BufRead for Pieces {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.pos >= self.current.len() {
                self.refills.set(self.refills.get() + 1);
                self.current = self.pieces.pop_front().unwrap_or_default();
                self.pos = 0;
            }
            Ok(&self.current[self.pos..])
        }

        fn consume(&mut self, n: usize) {
            self.pos += n;
        }
    }

    fn mixed_stream() -> Vec<u8> {
        let mut enc = FrameEncoder::new();
        let mut bytes = b"{\"table\":0,\"attrs\":[0]}\r\n".to_vec();
        for i in 0..40 {
            enc.push_query(0, &[i % 2], 1 + u64::from(i % 3), QueryKind::Select);
        }
        enc.flush_into(&mut bytes);
        bytes.extend_from_slice("a line with a multi-byte tail é\n\n".as_bytes());
        enc.push_control(Control::Checkpoint, None);
        enc.push_query(1, &[2], 1, QueryKind::Update);
        enc.flush_into(&mut bytes);
        bytes.extend_from_slice(b"last line, no newline");
        bytes
    }

    #[test]
    fn piecewise_input_decodes_like_one_slice_and_announces_every_refill() {
        let bytes = mixed_stream();
        let want = records(&bytes);
        assert!(want.len() > 40 && !want.contains(&Record::Corrupt));
        for piece in [1usize, 2, 3, 5, 7, 16, 61, bytes.len()] {
            let refills = std::rc::Rc::new(std::cell::Cell::new(0));
            let mut iter = RecordIter::new(Pieces {
                pieces: bytes.chunks(piece).map(<[u8]>::to_vec).collect(),
                current: Vec::new(),
                pos: 0,
                refills: std::rc::Rc::clone(&refills),
            });
            let announced = std::cell::Cell::new(0);
            let mut got = Vec::new();
            loop {
                let before = refills.get();
                announced.set(0);
                let record = iter.next_with(|| {
                    // Ahead of its refill: so far, as many refills as
                    // earlier announcements.
                    assert_eq!(refills.get() - before, announced.get());
                    announced.set(announced.get() + 1);
                });
                assert_eq!(refills.get() - before, announced.get(), "piece size {piece}");
                match record {
                    Some(r) => got.push(r),
                    None => break,
                }
            }
            assert_eq!(got, want, "piece size {piece}");
        }
    }

    #[test]
    fn one_slice_drains_only_at_its_ends() {
        let mut bytes = mixed_stream();
        bytes.push(b'\n'); // an unterminated last line is read up to EOF
        let mut iter = RecordIter::new(Cursor::new(&bytes[..]));
        let mut announced = 0;
        let mut n = 0;
        while iter.next_with(|| announced += 1).is_some() {
            n += 1;
            assert_eq!(announced, 1, "record {n}: a slice never drains mid-stream");
        }
        assert_eq!(announced, 2, "once before the first byte, once at EOF");
    }

    #[test]
    fn final_line_without_newline_is_kept() {
        assert_eq!(records(b"abc"), vec![Record::Line("abc".into())]);
        assert_eq!(records(b"abc\r\n"), vec![Record::Line("abc".into())]);
    }

    #[test]
    fn corrupt_frame_resyncs_to_next_record() {
        let mut good = Vec::new();
        let mut enc = FrameEncoder::new();
        enc.push_control(Control::Status, None);
        enc.flush_into(&mut good);
        // Bad version byte, then garbage, then newline, then a good
        // frame and a text line.
        let mut bytes = vec![MAGIC, 0x7F, 0xde, 0xad, b'\n'];
        bytes.extend_from_slice(&good);
        bytes.extend_from_slice(b"after\n");
        let recs = records(&bytes);
        assert_eq!(recs[0], Record::Corrupt);
        assert!(matches!(recs[1], Record::Item(WireItem::Control(_))));
        assert_eq!(recs[2], Record::Line("after".into()));
        assert_eq!(recs.len(), 3);
    }

    #[test]
    fn checksum_mismatch_is_one_corrupt_record() {
        let mut bytes = Vec::new();
        let mut enc = FrameEncoder::new();
        enc.push_query(0, &[0], 1, QueryKind::Select);
        enc.flush_into(&mut bytes);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip a payload bit
        bytes.extend_from_slice(b"next\n");
        let recs = records(&bytes);
        assert_eq!(recs[0], Record::Corrupt);
        assert_eq!(recs[1], Record::Line("next".into()));
    }

    #[test]
    fn truncated_frame_at_eof_is_corrupt() {
        let mut bytes = Vec::new();
        let mut enc = FrameEncoder::new();
        enc.push_query(0, &[0], 7, QueryKind::Update);
        enc.flush_into(&mut bytes);
        for cut in 1..bytes.len() {
            let recs = records(&bytes[..cut]);
            assert_eq!(recs, vec![Record::Corrupt], "cut at {cut}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_quickly() {
        // Length prefix claims ~2^34 bytes; decoder must not allocate.
        let bytes = [MAGIC, FORMAT_VERSION, 0xFF, 0xFF, 0xFF, 0xFF, 0x3F];
        assert_eq!(records(&bytes), vec![Record::Corrupt]);
    }

    #[test]
    fn dict_validates_and_resolves() {
        let s = schema();
        let mut d = DecodeDict::new();
        let ok = d.define(&s, 0, QueryKind::Select, vec![1, 0]);
        let bad_table = d.define(&s, 9, QueryKind::Select, vec![0]);
        let cross = d.define(&s, 0, QueryKind::Select, vec![2]);
        assert_eq!((ok, bad_table, cross), (0, 1, 2));
        let q = d.resolve(0, 1).expect("valid template");
        assert!(matches!(q, Cow::Borrowed(_)), "frequency-1 borrows");
        assert_eq!(q.frequency(), 1);
        let q5 = d.resolve(0, 5).unwrap();
        assert_eq!(q5.frequency(), 5);
        assert!(d.resolve(1, 1).is_none(), "unknown table");
        assert!(d.resolve(2, 1).is_none(), "cross-table attr");
        assert!(d.resolve(7, 1).is_none(), "never defined");
        assert!(d.resolve(0, 0).is_none(), "zero frequency");
        assert_eq!(d.table_of(1), Some(9), "invalid templates still route");
        assert_eq!(d.raw(2), Some((0u16, &[2u32][..], QueryKind::Select)));
    }

    #[test]
    fn producer_ids_leave_gaps_that_stay_undefined() {
        let s = schema();
        let mut d = DecodeDict::new();
        d.define_at(&s, 3, 1, QueryKind::Update, vec![2]);
        d.define_at(&s, 1, 0, QueryKind::Select, vec![0]);
        assert!(d.resolve(0, 1).is_none() && d.resolve(2, 1).is_none(), "never sent");
        assert_eq!(d.table_of(2), None);
        assert_eq!(d.resolve(3, 1).unwrap().table(), TableId(1), "no id shifted");
        assert_eq!(d.resolve(1, 1).unwrap().table(), TableId(0));
        assert_eq!(d.define(&s, 0, QueryKind::Select, vec![1]), 4, "define appends");
    }
}
