//! The binary event frame — a peer encoding to JSONL on sockets and in
//! journals (DESIGN.md §14).
//!
//! # Frame layout
//!
//! ```text
//! +------+---------+-------------+----------+=================+
//! | 0xB1 | version | payload_len |  crc32   |     payload     |
//! | 1 B  |   1 B   |   varint    | 4 B (LE) | payload_len B   |
//! +------+---------+-------------+----------+=================+
//! ```
//!
//! The magic byte `0xB1` is an invalid UTF-8 lead byte, so a reader can
//! distinguish a binary frame from a JSONL line by looking at a single
//! byte — the same cheap dispatch [`crate::shard::classify_line`] does
//! for routing. `payload_len` is capped at [`MAX_PAYLOAD`] so a corrupt
//! length prefix can never make a decoder swallow the rest of the
//! stream. The CRC-32 covers the payload; a mismatch invalidates the
//! whole frame.
//!
//! # Items
//!
//! A payload is a sequence of *items*. Event encoding is dictionary
//! based: a [`WireItem::Define`] assigns the next sequential template id
//! to a `(table, attrs, kind)` shape, and each [`WireItem::Event`] then
//! references its template by id — on template-heavy streams an event
//! costs 2–3 bytes against ~27 bytes of JSONL. Ids are resolved against
//! the same interned dictionaries the service already keeps (the
//! workload schema / `IndexPool` id spaces), so decoding an event is an
//! array lookup, not a parse.
//!
//! | tag | item | fields |
//! |-----|------|--------|
//! | `0` | `Define`  | table varint, kind u8, attr count varint, attr deltas varints |
//! | `1` | `Event` (frequency 1) | template varint |
//! | `2` | `Event` | template varint, frequency varint |
//! | `3` | `Control` | code u8 (0 shutdown, 1 checkpoint, 2 status, 3 whatif + budget varint, 4 tenant + table varint + budget varint, 5 budget + budget varint) |
//! | `4` | `Raw` | length varint, verbatim line bytes |
//! | `5` | `Tagged` | conn varint, seq varint, one inner item (tags 1–3) |
//! | `6` | `Sup` | length varint, supervisor JSON bytes |
//!
//! `Raw` carries a line that has no structured encoding (malformed
//! input, non-canonical field order); it is what makes
//! `journal convert` lossless in both directions. `Tagged` wraps an
//! event or control with the connection/sequence ids a live socket
//! journal records. `Sup` carries a supervisor→worker message on the
//! multi-process control channel (`crate::process`); it has its own tag
//! — rather than riding in `Raw` — so a hostile client line can never
//! forge one, and every event-stream consumer counts it invalid.

use crate::event::Control;
use isel_workload::wire::{crc32, get_varint, put_varint};
use isel_workload::QueryKind;
use std::collections::HashMap;

/// First byte of every binary frame. `0xB1` can never begin a UTF-8
/// text line, so encodings coexist on one stream and are auto-detected
/// per record.
pub const MAGIC: u8 = 0xB1;

/// Frame format version this build writes and the only one it accepts.
pub const FORMAT_VERSION: u8 = 1;

/// Upper bound on one frame's payload. A corrupt length prefix is
/// rejected immediately instead of consuming the stream.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Upper bound on attributes per defined template (far above any schema
/// this workspace generates; bounds decoder allocations).
pub const MAX_TEMPLATE_ATTRS: u64 = 4096;

const TAG_DEFINE: u8 = 0;
const TAG_EVENT1: u8 = 1;
const TAG_EVENT: u8 = 2;
const TAG_CONTROL: u8 = 3;
const TAG_RAW: u8 = 4;
const TAG_TAGGED: u8 = 5;
const TAG_SUP: u8 = 6;

/// One decoded item of a binary frame payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireItem {
    /// Assign the next sequential template id to this query shape.
    /// Attributes keep their written order (needed for lossless
    /// round-trips); schema validation happens at the consumer.
    Define {
        /// Table the template queries.
        table: u16,
        /// Read or write template.
        kind: QueryKind,
        /// Accessed attributes, in written order.
        attrs: Vec<u32>,
    },
    /// One execution batch of a previously defined template.
    Event {
        /// Template id assigned by the stream's `Define` sequence.
        template: u64,
        /// Number of executions (≥ 1).
        frequency: u64,
    },
    /// An out-of-band control command.
    Control(Control),
    /// A verbatim line with no structured encoding (bytes exclude the
    /// newline).
    Raw(Vec<u8>),
    /// An event or control tagged with journal connection/sequence ids.
    Tagged {
        /// Monotone connection id assigned by the accepting daemon.
        conn: u64,
        /// Per-connection sequence number.
        seq: u64,
        /// The wrapped event or control (never `Define`, `Raw`, `Sup`
        /// or another `Tagged`).
        item: Box<WireItem>,
    },
    /// A supervisor→worker message (JSON bytes) on the multi-process
    /// control channel. Never valid in an event stream: every ingestion
    /// consumer counts it as one invalid record.
    Sup(Vec<u8>),
}

fn put_control(out: &mut Vec<u8>, c: Control) {
    match c {
        Control::Shutdown => out.push(0),
        Control::Checkpoint => out.push(1),
        Control::Status => out.push(2),
        Control::Whatif { budget } => {
            out.push(3);
            put_varint(out, budget);
        }
        Control::Tenant { table, budget } => {
            out.push(4);
            put_varint(out, u64::from(table));
            put_varint(out, budget);
        }
        Control::Budget { budget } => {
            out.push(5);
            put_varint(out, budget);
        }
        Control::Calibration => out.push(6),
    }
}

fn get_control(b: &[u8], pos: &mut usize) -> Option<Control> {
    let code = *b.get(*pos)?;
    *pos += 1;
    Some(match code {
        0 => Control::Shutdown,
        1 => Control::Checkpoint,
        2 => Control::Status,
        3 => Control::Whatif { budget: get_varint(b, pos)? },
        4 => Control::Tenant {
            table: u16::try_from(get_varint(b, pos)?).ok()?,
            budget: get_varint(b, pos)?,
        },
        5 => Control::Budget { budget: get_varint(b, pos)? },
        6 => Control::Calibration,
        _ => return None,
    })
}

pub(crate) fn put_item(out: &mut Vec<u8>, item: &WireItem) {
    match item {
        WireItem::Define { table, kind, attrs } => {
            out.push(TAG_DEFINE);
            put_varint(out, u64::from(*table));
            out.push(matches!(kind, QueryKind::Update) as u8);
            put_varint(out, attrs.len() as u64);
            let mut prev = 0u32;
            for (i, &a) in attrs.iter().enumerate() {
                // Ascending runs (the canonical sorted form) delta-code
                // to single bytes; out-of-order attrs fall back to the
                // absolute value with a set sign bit.
                if i > 0 && a >= prev {
                    put_varint(out, u64::from(a - prev) << 1);
                } else if i == 0 {
                    put_varint(out, u64::from(a) << 1);
                } else {
                    put_varint(out, (u64::from(a) << 1) | 1);
                }
                prev = a;
            }
        }
        WireItem::Event { template, frequency } => {
            if *frequency == 1 {
                out.push(TAG_EVENT1);
                put_varint(out, *template);
            } else {
                out.push(TAG_EVENT);
                put_varint(out, *template);
                put_varint(out, *frequency);
            }
        }
        WireItem::Control(c) => {
            out.push(TAG_CONTROL);
            put_control(out, *c);
        }
        WireItem::Raw(bytes) => {
            out.push(TAG_RAW);
            put_varint(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
        WireItem::Tagged { conn, seq, item } => {
            out.push(TAG_TAGGED);
            put_varint(out, *conn);
            put_varint(out, *seq);
            put_item(out, item);
        }
        WireItem::Sup(bytes) => {
            out.push(TAG_SUP);
            put_varint(out, bytes.len() as u64);
            out.extend_from_slice(bytes);
        }
    }
}

/// Decode one item at `*pos`, advancing past it. `None` means the
/// payload is malformed from `*pos` on — the caller surfaces one
/// invalid record for the remainder of the frame.
pub fn get_item(b: &[u8], pos: &mut usize) -> Option<WireItem> {
    get_item_inner(b, pos, true)
}

/// Decode the item at `*pos` only if it is a well-formed `Event`: its
/// `(template, frequency)`, with `*pos` advanced past it. Any other
/// item, and a malformed event, leaves `*pos` where it was.
#[inline]
pub(crate) fn get_event(b: &[u8], pos: &mut usize) -> Option<(u64, u64)> {
    let mut at = *pos + 1;
    let event = match *b.get(*pos)? {
        TAG_EVENT1 => (get_varint(b, &mut at)?, 1),
        TAG_EVENT => (get_varint(b, &mut at)?, get_varint(b, &mut at).filter(|&f| f > 0)?),
        _ => return None,
    };
    *pos = at;
    Some(event)
}

fn get_item_inner(b: &[u8], pos: &mut usize, allow_tag: bool) -> Option<WireItem> {
    if let Some((template, frequency)) = get_event(b, pos) {
        return Some(WireItem::Event { template, frequency });
    }
    let tag = *b.get(*pos)?;
    *pos += 1;
    match tag {
        TAG_DEFINE => {
            let table = u16::try_from(get_varint(b, pos)?).ok()?;
            let kind_byte = *b.get(*pos)?;
            *pos += 1;
            let kind = match kind_byte {
                0 => QueryKind::Select,
                1 => QueryKind::Update,
                _ => return None,
            };
            let n = get_varint(b, pos)?;
            if n == 0 || n > MAX_TEMPLATE_ATTRS {
                return None;
            }
            let mut attrs = Vec::with_capacity(n as usize);
            let mut prev = 0u32;
            for i in 0..n {
                let coded = get_varint(b, pos)?;
                let value = u32::try_from(coded >> 1).ok()?;
                let a = if coded & 1 == 0 && i > 0 {
                    prev.checked_add(value)?
                } else {
                    value
                };
                attrs.push(a);
                prev = a;
            }
            Some(WireItem::Define { table, kind, attrs })
        }
        // Not a well-formed event (`get_event` above takes those).
        TAG_EVENT1 | TAG_EVENT => None,
        TAG_CONTROL => Some(WireItem::Control(get_control(b, pos)?)),
        TAG_RAW => {
            let len = usize::try_from(get_varint(b, pos)?).ok()?;
            if len > MAX_PAYLOAD {
                return None;
            }
            let bytes = b.get(*pos..*pos + len)?;
            *pos += len;
            Some(WireItem::Raw(bytes.to_vec()))
        }
        TAG_TAGGED if allow_tag => {
            let conn = get_varint(b, pos)?;
            let seq = get_varint(b, pos)?;
            let item = get_item_inner(b, pos, false)?;
            if matches!(item, WireItem::Define { .. } | WireItem::Raw(_) | WireItem::Sup(_)) {
                return None;
            }
            Some(WireItem::Tagged { conn, seq, item: Box::new(item) })
        }
        TAG_SUP => {
            let len = usize::try_from(get_varint(b, pos)?).ok()?;
            if len > MAX_PAYLOAD {
                return None;
            }
            let bytes = b.get(*pos..*pos + len)?;
            *pos += len;
            Some(WireItem::Sup(bytes.to_vec()))
        }
        _ => None,
    }
}

/// Append a complete frame (header + checksum + `payload`) to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_PAYLOAD`] — encoders flush well
/// below the cap.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(payload.len() <= MAX_PAYLOAD, "frame payload over MAX_PAYLOAD");
    out.push(MAGIC);
    out.push(FORMAT_VERSION);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Template-dictionary frame encoder: queries are deduplicated into
/// `Define` items on first use and referenced by id afterwards. Items
/// accumulate in an in-memory payload until [`FrameEncoder::flush_into`]
/// (or the [`FrameEncoder::auto_flush_into`] threshold) seals them into
/// one frame.
#[derive(Default)]
pub struct FrameEncoder {
    dict: HashMap<(u16, bool, Vec<u32>), u64>,
    next_template: u64,
    payload: Vec<u8>,
}

/// Payload size at which [`FrameEncoder::auto_flush_into`] seals a
/// frame. Batching amortizes the frame header across many items; the
/// value is far below [`MAX_PAYLOAD`] and fixed, so batch boundaries —
/// and therefore converted bytes — are deterministic.
pub const FLUSH_THRESHOLD: usize = 32 * 1024;

impl FrameEncoder {
    /// Fresh encoder with an empty template dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Template id for `(table, attrs, kind)`, appending a `Define` item
    /// on first use. Attribute order is significant (it is preserved on
    /// the wire for lossless round-trips).
    pub fn template_id(&mut self, table: u16, attrs: &[u32], kind: QueryKind) -> u64 {
        let key = (table, matches!(kind, QueryKind::Update), attrs.to_vec());
        if let Some(&id) = self.dict.get(&key) {
            return id;
        }
        let id = self.next_template;
        self.next_template += 1;
        put_item(
            &mut self.payload,
            &WireItem::Define { table, kind, attrs: attrs.to_vec() },
        );
        self.dict.insert(key, id);
        id
    }

    /// Append one query event, defining its template if new.
    pub fn push_query(&mut self, table: u16, attrs: &[u32], frequency: u64, kind: QueryKind) {
        let template = self.template_id(table, attrs, kind);
        put_item(&mut self.payload, &WireItem::Event { template, frequency });
    }

    /// Append a conn/seq-tagged query event (the live-journal shape).
    pub fn push_tagged_query(
        &mut self,
        conn: u64,
        seq: u64,
        table: u16,
        attrs: &[u32],
        frequency: u64,
        kind: QueryKind,
    ) {
        let template = self.template_id(table, attrs, kind);
        put_item(
            &mut self.payload,
            &WireItem::Tagged {
                conn,
                seq,
                item: Box::new(WireItem::Event { template, frequency }),
            },
        );
    }

    /// Append a control item, optionally conn/seq-tagged.
    pub fn push_control(&mut self, control: Control, tag: Option<(u64, u64)>) {
        let item = WireItem::Control(control);
        match tag {
            Some((conn, seq)) => put_item(
                &mut self.payload,
                &WireItem::Tagged { conn, seq, item: Box::new(item) },
            ),
            None => put_item(&mut self.payload, &item),
        }
    }

    /// Append a verbatim line (no structured encoding).
    pub fn push_raw(&mut self, bytes: &[u8]) {
        put_item(&mut self.payload, &WireItem::Raw(bytes.to_vec()));
    }

    /// Seal the buffered items into one frame appended to `out`. A
    /// no-op when nothing is buffered (no empty frames on the wire).
    pub fn flush_into(&mut self, out: &mut Vec<u8>) {
        if self.payload.is_empty() {
            return;
        }
        put_frame(out, &self.payload);
        self.payload.clear();
    }

    /// [`flush_into`](Self::flush_into) only once the buffered payload
    /// reaches [`FLUSH_THRESHOLD`] — the batching mode `journal convert`
    /// uses.
    pub fn auto_flush_into(&mut self, out: &mut Vec<u8>) {
        if self.payload.len() >= FLUSH_THRESHOLD {
            self.flush_into(out);
        }
    }
}

/// A canonically-rendered JSONL line, parsed without a schema. Used by
/// `journal convert` and the binary journal writer to decide whether a
/// line has a structured encoding ([`parse_canonical`]) and to render
/// decoded items back to text ([`render_query`] / [`render_control`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CanonicalBody {
    /// `{"table":T,"attrs":[..](,"frequency":F)(,"kind":"Update")}`.
    Query {
        /// Table id.
        table: u16,
        /// Attribute ids, in written order.
        attrs: Vec<u32>,
        /// Frequency (rendered only when ≠ 1).
        frequency: u64,
        /// Kind (rendered only when `Update`).
        kind: QueryKind,
    },
    /// `{"control":"shutdown"|"checkpoint"|"status"}`.
    Control(Control),
}

#[derive(serde::Deserialize)]
struct CanonRaw {
    conn: Option<u64>,
    seq: Option<u64>,
    control: Option<String>,
    table: Option<u16>,
    attrs: Option<Vec<u32>>,
    frequency: Option<u64>,
    kind: Option<QueryKind>,
    budget: Option<u64>,
    table_group: Option<u16>,
}

/// Render the canonical text of a query event, with an optional
/// `{"conn":C,"seq":S,` prefix. This is the exact byte shape `record`
/// and the JSONL journal produce.
pub fn render_query(
    tag: Option<(u64, u64)>,
    table: u16,
    attrs: &[u32],
    frequency: u64,
    kind: QueryKind,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("{");
    if let Some((conn, seq)) = tag {
        let _ = write!(s, "\"conn\":{conn},\"seq\":{seq},");
    }
    let _ = write!(s, "\"table\":{table},\"attrs\":[");
    for (i, a) in attrs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{a}");
    }
    s.push(']');
    if frequency != 1 {
        let _ = write!(s, ",\"frequency\":{frequency}");
    }
    if matches!(kind, QueryKind::Update) {
        s.push_str(",\"kind\":\"Update\"");
    }
    s.push('}');
    s
}

/// Render the canonical text of a control line, with an optional
/// conn/seq prefix.
pub fn render_control(tag: Option<(u64, u64)>, control: Control) -> String {
    let body = match control {
        Control::Shutdown => "\"control\":\"shutdown\"".to_owned(),
        Control::Checkpoint => "\"control\":\"checkpoint\"".to_owned(),
        Control::Status => "\"control\":\"status\"".to_owned(),
        Control::Whatif { budget } => format!("\"control\":\"whatif\",\"budget\":{budget}"),
        Control::Tenant { table, budget } => {
            format!("\"control\":\"tenant\",\"table_group\":{table},\"budget\":{budget}")
        }
        Control::Budget { budget } => format!("\"control\":\"budget\",\"budget\":{budget}"),
        Control::Calibration => "\"control\":\"calibration\"".to_owned(),
    };
    match tag {
        Some((conn, seq)) => format!("{{\"conn\":{conn},\"seq\":{seq},{body}}}"),
        None => format!("{{{body}}}"),
    }
}

/// Parse a line into its canonical form, returning `None` unless
/// re-rendering reproduces the input **byte for byte**. That rule is
/// what makes structured encoding safe in a lossless converter: any
/// line the canonical form cannot reproduce (extra fields, whitespace,
/// non-default field order, explicit defaults) is carried as
/// [`WireItem::Raw`] instead. No schema is consulted.
pub fn parse_canonical(line: &str) -> Option<(Option<(u64, u64)>, CanonicalBody)> {
    let raw: CanonRaw = serde_json::from_str(line).ok()?;
    let tag = match (raw.conn, raw.seq) {
        (Some(c), Some(s)) => Some((c, s)),
        (None, None) => None,
        _ => return None,
    };
    let (body, rendered) = if let Some(control) = raw.control {
        let control = match control.as_str() {
            "shutdown" => Control::Shutdown,
            "checkpoint" => Control::Checkpoint,
            "status" => Control::Status,
            "whatif" => Control::Whatif { budget: raw.budget? },
            "tenant" => Control::Tenant { table: raw.table_group?, budget: raw.budget? },
            "budget" => Control::Budget { budget: raw.budget? },
            "calibration" => Control::Calibration,
            _ => return None,
        };
        (CanonicalBody::Control(control), render_control(tag, control))
    } else {
        let table = raw.table?;
        let attrs = raw.attrs?;
        if attrs.is_empty() {
            return None;
        }
        let frequency = raw.frequency.unwrap_or(1);
        if frequency == 0 {
            return None;
        }
        let kind = raw.kind.unwrap_or_default();
        let rendered = render_query(tag, table, &attrs, frequency, kind);
        (CanonicalBody::Query { table, attrs, frequency, kind }, rendered)
    };
    (rendered == line).then_some((tag, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(items: &[WireItem]) -> Vec<WireItem> {
        let mut payload = Vec::new();
        for item in items {
            put_item(&mut payload, item);
        }
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < payload.len() {
            out.push(get_item(&payload, &mut pos).expect("valid item"));
        }
        out
    }

    #[test]
    fn items_round_trip() {
        let items = vec![
            WireItem::Define { table: 3, kind: QueryKind::Select, attrs: vec![6, 7, 8] },
            WireItem::Define { table: 9, kind: QueryKind::Update, attrs: vec![40, 2, 40] },
            WireItem::Event { template: 0, frequency: 1 },
            WireItem::Event { template: 1, frequency: 900 },
            WireItem::Control(Control::Checkpoint),
            WireItem::Raw(b"not json at all".to_vec()),
            WireItem::Tagged {
                conn: 2,
                seq: 77,
                item: Box::new(WireItem::Event { template: 0, frequency: 1 }),
            },
            WireItem::Tagged {
                conn: 1,
                seq: 1,
                item: Box::new(WireItem::Control(Control::Shutdown)),
            },
            WireItem::Control(Control::Whatif { budget: 1 << 40 }),
            WireItem::Control(Control::Tenant { table: 513, budget: 0 }),
            WireItem::Tagged {
                conn: 4,
                seq: 2,
                item: Box::new(WireItem::Control(Control::Whatif { budget: 9 })),
            },
            WireItem::Control(Control::Budget { budget: 1 << 33 }),
            WireItem::Control(Control::Calibration),
            WireItem::Sup(br#"{"hello":true}"#.to_vec()),
        ];
        assert_eq!(round_trip(&items), items);
    }

    #[test]
    fn descending_attr_lists_survive() {
        // Non-sorted orders use the absolute fallback encoding.
        let items =
            vec![WireItem::Define { table: 0, kind: QueryKind::Select, attrs: vec![9, 3, 5, 2] }];
        assert_eq!(round_trip(&items), items);
    }

    #[test]
    fn malformed_items_decode_to_none() {
        for bad in [
            &[99u8][..],                      // unknown tag
            &[TAG_DEFINE, 0, 7][..],          // bad kind byte
            &[TAG_DEFINE, 0, 0, 0][..],       // zero attrs
            &[TAG_CONTROL, 9][..],            // unknown control code
            &[TAG_EVENT, 0, 0][..],           // zero frequency
            &[TAG_RAW, 0x20][..],             // raw length past the end
            &[TAG_TAGGED, 1, 1, TAG_RAW, 0][..], // raw inside a tag
            &[TAG_TAGGED, 1, 1, TAG_TAGGED][..], // nested tags
            &[TAG_TAGGED, 1, 1, TAG_SUP, 0][..], // sup inside a tag
            &[TAG_SUP, 0x20][..],             // sup length past the end
            &[][..],                          // empty
        ] {
            let mut pos = 0;
            assert_eq!(get_item(bad, &mut pos), None, "bytes {bad:?}");
        }
    }

    /// `get_event` takes exactly the items `get_item` decodes to an
    /// untagged event, and leaves every other one, malformed events
    /// included, where it is.
    #[test]
    fn get_event_takes_well_formed_events_only() {
        let mut items = vec![
            WireItem::Event { template: 0, frequency: 1 },
            WireItem::Event { template: 300, frequency: 1 },
            WireItem::Event { template: 1, frequency: 9000 },
            WireItem::Define { table: 3, kind: QueryKind::Select, attrs: vec![6] },
            WireItem::Control(Control::Checkpoint),
            WireItem::Raw(b"line".to_vec()),
            WireItem::Sup(b"{}".to_vec()),
        ];
        items.push(WireItem::Tagged { conn: 1, seq: 2, item: Box::new(items[0].clone()) });
        for item in &items {
            let mut payload = Vec::new();
            put_item(&mut payload, item);
            let mut pos = 0;
            match get_event(&payload, &mut pos) {
                Some((template, frequency)) => {
                    assert_eq!(*item, WireItem::Event { template, frequency });
                    assert_eq!(pos, payload.len());
                }
                None => {
                    assert!(!matches!(item, WireItem::Event { .. }), "{item:?}");
                    assert_eq!(pos, 0, "{item:?}");
                }
            }
        }
        for bad in [&[TAG_EVENT, 0, 0][..], &[TAG_EVENT, 0][..], &[TAG_EVENT1, 0x80][..], &[][..]] {
            let mut pos = 0;
            assert_eq!(get_event(bad, &mut pos), None, "bytes {bad:?}");
            assert_eq!((pos, get_item(bad, &mut pos)), (0, None), "bytes {bad:?}");
        }
    }

    #[test]
    fn encoder_defines_each_template_once() {
        let mut enc = FrameEncoder::new();
        enc.push_query(2, &[6, 7, 8], 1, QueryKind::Select);
        enc.push_query(2, &[6, 7, 8], 1, QueryKind::Select);
        enc.push_query(2, &[6, 7, 8], 5, QueryKind::Select);
        let mut out = Vec::new();
        enc.flush_into(&mut out);
        assert_eq!(out[0], MAGIC);
        assert_eq!(out[1], FORMAT_VERSION);
        let mut pos = 2;
        let len = get_varint(&out, &mut pos).unwrap() as usize;
        let payload = &out[pos + 4..pos + 4 + len];
        assert_eq!(crc32(payload).to_le_bytes(), out[pos..pos + 4]);
        let mut items = Vec::new();
        let mut p = 0;
        while p < payload.len() {
            items.push(get_item(payload, &mut p).unwrap());
        }
        assert_eq!(items.len(), 4, "one define + three events");
        assert!(matches!(items[0], WireItem::Define { .. }));
        assert_eq!(items[1], WireItem::Event { template: 0, frequency: 1 });
        assert_eq!(items[3], WireItem::Event { template: 0, frequency: 5 });
        // Nothing pending, so another flush writes nothing.
        let before = out.len();
        enc.flush_into(&mut out);
        assert_eq!(out.len(), before);
    }

    #[test]
    fn canonical_parse_accepts_exact_renders_only() {
        for line in [
            r#"{"table":2,"attrs":[6,7,8]}"#,
            r#"{"table":0,"attrs":[1],"frequency":9}"#,
            r#"{"table":0,"attrs":[1],"kind":"Update"}"#,
            r#"{"conn":1,"seq":4,"table":2,"attrs":[6]}"#,
            r#"{"control":"shutdown"}"#,
            r#"{"conn":3,"seq":9,"control":"status"}"#,
            r#"{"control":"whatif","budget":4096}"#,
            r#"{"control":"tenant","table_group":2,"budget":77}"#,
            r#"{"control":"budget","budget":65536}"#,
            r#"{"control":"calibration"}"#,
        ] {
            let (tag, body) = parse_canonical(line).unwrap_or_else(|| panic!("rejected {line}"));
            let back = match body {
                CanonicalBody::Query { table, attrs, frequency, kind } => {
                    render_query(tag, table, &attrs, frequency, kind)
                }
                CanonicalBody::Control(c) => render_control(tag, c),
            };
            assert_eq!(back, line);
        }
    }

    #[test]
    fn non_canonical_lines_are_rejected() {
        for line in [
            r#"{"table":2,"attrs":[6,7,8]} "#,             // trailing space
            r#"{ "table":2,"attrs":[6]}"#,                 // inner space
            r#"{"attrs":[6],"table":2}"#,                  // field order
            r#"{"table":2,"attrs":[6],"frequency":1}"#,    // explicit default
            r#"{"table":2,"attrs":[6],"kind":"Select"}"#,  // explicit default
            r#"{"table":2,"attrs":[]}"#,                   // empty attrs
            r#"{"table":2,"attrs":[6],"frequency":0}"#,    // zero frequency
            r#"{"table":2,"attrs":[6],"extra":1}"#,        // unknown field
            r#"{"conn":1,"table":2,"attrs":[6]}"#,         // conn without seq
            r#"{"control":"reboot"}"#,                     // unknown control
            "not json",
        ] {
            assert_eq!(parse_canonical(line), None, "accepted {line}");
        }
    }
}
