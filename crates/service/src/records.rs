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
//! The ingest loop reads through `RecordIter::next_or_line`, which
//! hands a text line over as bytes still in the reader's buffer, so a
//! line the stream already knows is matched there and never becomes a
//! `String` (`stream.rs`); `line_hash` is the hash it is matched by.
//!
//! [`DecodeDict`] is the consumer-side template dictionary: it
//! validates [`WireItem::Define`]s against the schema once — the same
//! checks [`crate::event::parse_line`] applies per line — and
//! pre-builds a frequency-1 [`Query`] per valid template, so resolving
//! a frequency-1 event is an array lookup that allocates nothing. Each
//! valid template also gets a *slot*, the next free number among its
//! group's templates, under which a window counts its events without a
//! key lookup (`EpochWindow::count`). It is the one place an event
//! becomes a query: a router shard thread and a worker process both
//! resolve through it, and offline replay resolves binary events
//! through it. A template is a binary `Define` or a text line the
//! stream saw repeat, numbered in one namespace by the router; a line
//! the router did not resolve reaches its host as text and is parsed
//! there.

use crate::config::ServiceConfig;
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
    pub fn next_with(&mut self, before_block: impl FnMut()) -> Option<Record> {
        let text = |raw: &[u8]| String::from_utf8_lossy(raw).into_owned();
        Some(match self.next_or_line(before_block, text)? {
            Next::Line(line) => Record::Line(line),
            Next::Record(record) => record,
        })
    }

    /// [`Self::next_with`], handing each text line to `line` as bytes —
    /// newline and one trailing carriage return stripped, UTF-8 not yet
    /// checked — instead of building a `String`. A line whole in the
    /// reader's buffer is read there, and `line` runs before the line is
    /// consumed; a line that straddles two reads is gathered first.
    /// Binary frames never reach `line`.
    pub(crate) fn next_or_line<T>(
        &mut self,
        mut before_block: impl FnMut(),
        line: impl FnOnce(&[u8]) -> T,
    ) -> Option<Next<T>> {
        let hook = &mut before_block;
        loop {
            if let Some(record) = self.decoded() {
                return Some(Next::Record(record));
            }
            match self.peek(hook)? {
                MAGIC => self.read_frame(hook), // refills `pending`; loop
                _ => return self.read_line(hook, line).map(Next::Line),
            }
        }
    }

    /// The next item of a frame already decoded, if any: what the
    /// iterator yields next, taken without a read.
    #[inline]
    pub(crate) fn decoded(&mut self) -> Option<Record> {
        Some(match self.pending.pop_front()? {
            Some(item) => Record::Item(item),
            None => Record::Corrupt,
        })
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

    /// The bytes up to and including the next newline (or EOF), as
    /// `line` makes them of the line without its line ending. `None` at
    /// EOF and when an I/O error cuts the line short.
    fn read_line<T>(
        &mut self,
        before_block: &mut impl FnMut(),
        line: impl FnOnce(&[u8]) -> T,
    ) -> Option<T> {
        let buf = self.fill(before_block)?;
        if let Some(end) = buf.iter().position(|&b| b == b'\n') {
            let made = line(strip_cr(&buf[..end]));
            self.consume(end + 1);
            return Some(made);
        }
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
        Some(line(strip_cr(&raw)))
    }
}

/// What [`RecordIter::next_or_line`] reads: a text line, as its caller
/// made it, or any other record.
pub(crate) enum Next<T> {
    Line(T),
    Record(Record),
}

/// `line` without one trailing carriage return.
fn strip_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
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
    /// The template's slot in its group, if valid.
    slot: u32,
}

/// Consumer-side template dictionary: validates `Define` items against
/// the schema once, then resolves events by id.
#[derive(Default)]
pub struct DecodeDict {
    /// By template id; `None` is an id this consumer was never sent.
    templates: Vec<Option<TemplateEntry>>,
    /// Whether slots are numbered per table — every group is a table —
    /// rather than across the stream.
    slots_by_table: bool,
    /// Slots handed out so far, by table (or all under entry 0).
    slots: Vec<u32>,
}

impl DecodeDict {
    /// Empty dictionary numbering slots across the stream, which keeps
    /// them distinct within any group.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty dictionary numbering slots within each group of a run
    /// under `config`, so a window's tallies grow with its own
    /// templates only.
    pub(crate) fn for_groups(config: &ServiceConfig) -> Self {
        Self { slots_by_table: config.shards > 0, ..Self::default() }
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
    ///
    /// An id is defined once: a producer numbers its templates in order
    /// and never reuses one, so a second define of an id means the two
    /// sides disagree on numbering. Windows rely on what an event's
    /// number means staying fixed, as they learn it from the first
    /// event they count under it. They count by slot, not by id, and
    /// every define takes a fresh slot, so a slot keeps its meaning even
    /// if an id were redefined; counting by id would not.
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
        let slot = match &query {
            Some(_) => {
                let space = if self.slots_by_table { usize::from(table) } else { 0 };
                if self.slots.len() <= space {
                    self.slots.resize(space + 1, 0);
                }
                self.slots[space] += 1;
                self.slots[space] - 1
            }
            None => 0,
        };
        if self.templates.len() <= id {
            self.templates.resize_with(id + 1, || None);
        }
        debug_assert!(self.templates[id].is_none(), "template {id} defined twice");
        self.templates[id] = Some(TemplateEntry { table, kind, attrs, query, slot });
    }

    /// Register a template without schema validation, for render-only
    /// consumers (conversion, socket transcoding) that use [`raw`]
    /// and never [`resolve`].
    ///
    /// [`raw`]: Self::raw
    /// [`resolve`]: Self::resolve
    pub fn define_raw(&mut self, table: u16, kind: QueryKind, attrs: Vec<u32>) -> u64 {
        self.templates.push(Some(TemplateEntry { table, kind, attrs, query: None, slot: 0 }));
        (self.templates.len() - 1) as u64
    }

    fn entry(&self, template: u64) -> Option<&TemplateEntry> {
        self.templates.get(usize::try_from(template).ok()?)?.as_ref()
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

    /// Resolve an event to its template's slot and frequency-1 query,
    /// for [`crate::EpochWindow::count`]; `None` where [`Self::resolve`]
    /// is.
    #[inline]
    pub(crate) fn resolve_slot(&self, template: u64, frequency: u64) -> Option<(u32, &Query)> {
        let entry = self.entry(template)?;
        let base = entry.query.as_ref()?;
        (frequency > 0).then_some((entry.slot, base))
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

/// A line's hash: its bytes sixteen at a time, each pair of words
/// folded in by one 64 × 64 → 128-bit multiply; a ragged end is the
/// line's last sixteen bytes, overlapping the pair before. A line that
/// never repeats pays this on top of its parse, hence one multiply per
/// sixteen bytes rather than std's SipHash. Lines that collide only
/// miss: the bytes are compared before a remembered line is used.
pub(crate) fn line_hash(bytes: &[u8]) -> u64 {
    let mix = |h: u64, a: u64, b: u64| {
        let p = u128::from(h ^ a ^ 0x243F_6A88_85A3_08D3) * u128::from(b ^ 0x9E37_79B9_7F4A_7C15);
        (p as u64) ^ (p >> 64) as u64
    };
    let n = bytes.len();
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    if n < 16 {
        let mut short = [0u8; 16];
        short[..n].copy_from_slice(bytes);
        return mix(n as u64, word(&short, 0), word(&short, 8));
    }
    let mut h = n as u64;
    for at in (0..n - 15).step_by(16) {
        h = mix(h, word(bytes, at), word(bytes, at + 8));
    }
    if !n.is_multiple_of(16) {
        h = mix(h, word(bytes, n - 16), word(bytes, n - 8));
    }
    h
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
        assert_eq!(d.raw(1).map(|r| r.0), Some(9), "invalid templates still route");
        assert_eq!(d.raw(2), Some((0u16, &[2u32][..], QueryKind::Select)));
    }

    #[test]
    fn producer_ids_leave_gaps_that_stay_undefined() {
        let s = schema();
        let mut d = DecodeDict::new();
        d.define_at(&s, 3, 1, QueryKind::Update, vec![2]);
        d.define_at(&s, 1, 0, QueryKind::Select, vec![0]);
        assert!(d.resolve(0, 1).is_none() && d.resolve(2, 1).is_none(), "never sent");
        assert_eq!(d.raw(2), None);
        assert_eq!(d.resolve(3, 1).unwrap().table(), TableId(1), "no id shifted");
        assert_eq!(d.resolve(1, 1).unwrap().table(), TableId(0));
        assert_eq!(d.define(&s, 0, QueryKind::Select, vec![1]), 4, "define appends");
    }

    /// A worker process numbers templates as their defines arrive, and
    /// each valid one takes the next slot of its group: per table when
    /// groups are tables, across the stream for the one whole-workload
    /// group. Invalid templates take none.
    #[test]
    fn worker_defines_append_ids_and_number_slots_per_group() {
        let s = schema();
        let defines: [(u16, &[u32]); 5] =
            [(1, &[2]), (0, &[0]), (0, &[2]), (0, &[1, 0]), (1, &[2])];
        for (shards, want) in [(1, [0, 0, 1, 1]), (0, [0, 1, 2, 3])] {
            let config = ServiceConfig { shards, ..ServiceConfig::default() };
            let mut d = DecodeDict::for_groups(&config);
            let ids: Vec<u64> = defines
                .iter()
                .map(|&(t, attrs)| d.define(&s, t, QueryKind::Select, attrs.to_vec()))
                .collect();
            assert_eq!(ids, [0, 1, 2, 3, 4], "shards {shards}");
            let slots: Vec<u32> =
                [0, 1, 3, 4].iter().map(|&id| d.resolve_slot(id, 1).unwrap().0).collect();
            assert_eq!(slots, want, "shards {shards}");
            assert!(d.resolve_slot(2, 1).is_none(), "a cross-table attr has no slot");
            assert!(d.resolve_slot(0, 0).is_none(), "frequency 0 is invalid");
            let (slot, base) = d.resolve_slot(3, 9).unwrap();
            assert_eq!((slot, base.frequency()), (want[2], 1), "the frequency-1 template");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "template 1 defined twice")]
    fn an_id_is_defined_once() {
        let s = schema();
        let mut d = DecodeDict::new();
        d.define_at(&s, 1, 0, QueryKind::Select, vec![0]);
        d.define_at(&s, 1, 0, QueryKind::Select, vec![1]);
    }

    #[test]
    fn line_hash_reads_every_byte() {
        let line = r#"{"table":12,"attrs":[40,41,42,43],"frequency":77,"kind":"Update"}"#;
        let mut seen = std::collections::HashSet::new();
        for n in 0..=line.len() {
            assert!(seen.insert(line_hash(&line.as_bytes()[..n])), "prefix of {n} bytes");
        }
        for at in 0..line.len() {
            let mut flipped = line.as_bytes().to_vec();
            flipped[at] ^= 0x20;
            assert_ne!(line_hash(&flipped), line_hash(line.as_bytes()), "byte {at}");
        }
    }
}
