//! The stream grammar and the one ingest loop: what one record of the
//! input means, and what the engine does with it at every placement.
//!
//! The [`crate::router::Router`] reads the same mixed JSONL/binary
//! stream at both placements — shard threads and queues, or worker
//! processes and pipes — and they must agree, record for record, on
//! what is an event, what is a command, what counts as
//! *routed* (the unit of the periodic checkpoint cadence) and where an
//! undecodable record is charged. [`Stream::decide`] is that agreement:
//! it reduces a [`Record`] to one [`Decision`], by value — a binary
//! `Define` or `Event` allocates nothing and dispatches nothing
//! dynamically. A frame's well-formed events do not even become
//! records: [`Stream::run`] routes them from the frame payload by their
//! template's shard, to the same effect (DESIGN.md §14, "A frame
//! decodes as it drains").
//!
//! The stream owns the run's one template namespace, and resolves text
//! lines too: a routed line seen before is parsed here once and becomes
//! a template — a `Define` to its table's shard, then one `Event` per
//! occurrence — matched against the line table in the reader's buffer,
//! so a repeated line costs a hash and a compare, no `String` and no
//! parse anywhere (DESIGN.md §14, "Where a line is resolved"). A line
//! seen once, a probe, or a line past the table's cap travels as text
//! and is parsed where it lands.
//!
//! [`Stream::run`] is the loop around it, written once: the status
//! signal, the shard choice, reply tokens, routed counting, explicit
//! and cadence barriers, the recovery skip and the final flush; a
//! record and a frame's event share its per-record steps. Where
//! the groups live is a [`Placement`] — shard threads or worker
//! processes, chosen once per run — and the loop is generic over it, so
//! each placement gets its own statically dispatched copy. Every input
//! is one `&mut dyn BufRead`, called once per buffered text line (one
//! `fill_buf`, one `consume`) and never per event of a read frame.

use crate::arbiter::InteractiveRegistry;
use crate::config::ServiceConfig;
use crate::event::{parse_line, parse_token, Control, InputLine};
use crate::frame::WireItem;
use crate::records::{line_hash, Next, Record, RecordIter};
use crate::shard::{classify_line, LineClass, ShardMap};
use crate::status::take_status_signal;
use isel_costmodel::cache::IdHashBuilder;
use isel_workload::{QueryKind, Schema};
use std::collections::HashMap;
use std::io::BufRead;
use std::sync::mpsc::Sender;

/// An invalid record, for the opaque shard.
const INVALID: Decision = Decision::Route { table: None, item: Routed::Invalid };

/// What the loop does with one record.
pub(crate) enum Decision {
    /// Nothing: a blank line.
    Skip,
    /// Route `item` to the shard of `table`. `None` — garbage, a
    /// malformed control line, a corrupt frame region, an event whose
    /// template was never defined, an item with no place in an event
    /// stream — goes to the opaque shard, so that it is counted invalid
    /// exactly once, by a host, at a deterministic position of that
    /// shard's stream — never by the loop.
    Route { table: Option<u16>, item: Routed },
    /// A template definition — a binary `Define`, or a line that
    /// became a template — with its stream-global id. Not routed: barrier
    /// generations must land at identical event positions in both
    /// encodings, and whether a line is resolved here or where it lands.
    /// `event` is the frequency of the line's occurrence that made it a
    /// template, routed right behind the define as an event of it.
    Define { id: usize, table: u16, kind: QueryKind, attrs: Vec<u32>, event: Option<u64> },
    /// A `checkpoint` control: open the next barrier generation here.
    Barrier,
    /// A control that wants an answer: a `whatif`/`tenant`/`budget`/
    /// `calibration` query, answered in band behind every event that
    /// preceded it, or `status`. `token` routes the reply to a socket
    /// connection.
    Query { control: Control, token: Option<u64> },
    /// Stop reading.
    Shutdown,
}

/// The command a (trimmed) text line carries, by the one rule the
/// placements and the socket front share: the byte classifier decides, and
/// only a line it classifies [`LineClass::Control`] is parsed — a
/// top-level `"table"` key makes an event line even where a `"control"`
/// key rides along.
pub(crate) fn line_control(line: &str, schema: &Schema) -> Option<Control> {
    if classify_line(line) != LineClass::Control {
        return None;
    }
    match parse_line(line, schema) {
        Ok(InputLine::Control(c)) => Some(c),
        Ok(InputLine::Query(_) | InputLine::Observed(_)) | Err(_) => None,
    }
}

/// One routed record.
pub(crate) enum Routed {
    /// A text line — trimmed, otherwise untouched — for the group host
    /// of its shard to parse, validate and count.
    Line(String),
    /// A binary event of a defined template.
    Event { template: u64, frequency: u64 },
    /// A record the receiving host counts invalid.
    Invalid,
}

/// Where a run's groups live and how records reach them: the hooks
/// [`Stream::run`] carries decisions out through. Shard threads
/// ([`crate::router`]) and worker processes ([`crate::process`]) are
/// its two implementations; failover, queues
/// and pipes stay behind it.
pub(crate) trait Placement {
    /// Hand one routed record to `shard`.
    fn route(&mut self, shard: u32, item: Routed) -> Result<(), String>;
    /// Make template `id` known to whoever resolves events of `table`,
    /// which lives on `shard`. A `Define` is no routed record.
    fn define(
        &mut self,
        shard: u32,
        id: usize,
        table: u16,
        kind: QueryKind,
        attrs: Vec<u32>,
    ) -> Result<(), String>;
    /// Open checkpoint generation `generation` on every shard, behind
    /// `routed` records. Called only by a checkpointing run.
    fn barrier(&mut self, generation: u64, routed: u64) -> Result<(), String>;
    /// Answer `control` behind every record routed so far; `reply` is
    /// the issuing socket connection (stderr without one).
    fn query(&mut self, control: Control, reply: Option<Sender<String>>) -> Result<(), String>;
    /// Hand over whatever is buffered: before every read of the input
    /// that may block, and at the end of the input.
    fn flush(&mut self);
    /// Before every record: surface failures, absorb what changed.
    fn poll(&mut self) -> Result<(), String>;
    /// The status line `SIGUSR1` prints.
    fn status_line(&self) -> String;
}

/// Distinct text lines a stream remembers at most: a line repeated
/// after the table is full is parsed where it lands, as a line seen
/// once is.
pub(crate) const LINE_CAP: usize = 4096;

/// What a remembered line is, decided once by parsing it at the edge.
#[derive(Clone, Copy)]
enum Known {
    /// A valid query: template `id` of the stream, on `table`; each
    /// occurrence is one event of it with the line's `frequency`.
    Template { id: usize, table: u16, frequency: u64 },
    /// A line its host would count invalid: route an invalid record to
    /// the shard the line routes to.
    Invalid { table: Option<u16> },
    /// A line its host must parse: an observed-cost probe, a table line
    /// a control rides on, or a query whose routing key is not its table.
    Parse { table: Option<u16> },
}

/// The text lines a stream resolves itself. A routed line is
/// remembered the second time it is seen — a per-slot record of the
/// hash of the last line seen once — so a log that never repeats a line
/// never fills the table and holds none of its lines. Keys are a line's
/// bytes as read, so whitespace, key-order and line-ending variants of
/// one template are separate entries. The table is a cache, not state:
/// a run starts it empty, and nothing checkpoints, posts or traces it.
struct LineTable {
    /// Remembered lines' indexes into `lines`, by [`line_hash`].
    ids: HashMap<u64, u32, IdHashBuilder>,
    /// Each remembered line's bytes and what it is.
    lines: Vec<(Box<[u8]>, Known)>,
    /// By hash modulo [`LINE_CAP`]: the hash of the last routed line seen
    /// there and not remembered. Allocated at the first line.
    seen: Vec<u64>,
}

impl LineTable {
    fn new() -> Self {
        Self { ids: HashMap::default(), lines: Vec::new(), seen: Vec::new() }
    }

    /// What the line `raw` of hash `hash` is, if remembered.
    #[inline]
    fn get(&self, hash: u64, raw: &[u8]) -> Option<Known> {
        let (text, known) = &self.lines[*self.ids.get(&hash)? as usize];
        (**text == *raw).then_some(*known)
    }

    /// Whether the routed line of `hash`, not remembered, should be now:
    /// it is the last line seen once under its slot, the table has room,
    /// and no other line holds its hash.
    fn seen_before(&mut self, hash: u64) -> bool {
        if self.lines.len() == LINE_CAP || self.ids.contains_key(&hash) {
            return false;
        }
        if self.seen.is_empty() {
            self.seen = vec![0; LINE_CAP];
        }
        let seen = &mut self.seen[hash as usize % LINE_CAP];
        std::mem::replace(seen, hash) == hash
    }

    fn remember(&mut self, hash: u64, raw: &[u8], known: Known) {
        self.ids.insert(hash, self.lines.len() as u32);
        self.lines.push((raw.into(), known));
    }
}

/// A binary producer's template: its dense id, its table, and the shard
/// its events route to, fixed when its `Define` is taken.
#[derive(Clone, Copy)]
struct Producer {
    id: u64,
    table: u16,
    shard: u32,
}

/// The router's position in its logical input stream: the one template
/// namespace of both encodings, the line table, the two counters the
/// checkpoint cadence runs on, and — on journal-replay recovery — how
/// much of the stream is already done.
///
/// Template ids are dense and stream-global: the next id goes to each
/// `Define` as it is emitted, a binary one or a line's. A binary event
/// names its template by the producer's own id — the input numbers its
/// `Define`s from 0 — which translates here. A shard thread defines
/// each id it is sent at that number (`DecodeDict::define_at`), and a
/// worker process, sent every `Define` in order, numbers them as they
/// arrive (`DecodeDict::define`): the same numbering.
pub(crate) struct Stream {
    /// Dense template ids handed out so far.
    templates: usize,
    /// By binary producer id: the template's dense id, table and shard,
    /// so an event routes by one index.
    binary: Vec<Producer>,
    /// The lines this stream resolves itself; `None` in a reference that
    /// leaves every line to be parsed where it lands.
    lines: Option<LineTable>,
    /// Records routed so far (lifetime: a resumed run continues the
    /// manifest's count).
    pub(crate) routed: u64,
    /// The generation the next barrier opens.
    pub(crate) next_gen: u64,
    /// Periodic barrier cadence in routed records; 0 disables it.
    barrier_every: u64,
    /// Recovery: routed records at positions below this are already in
    /// the restored state — counted, not routed.
    skip: u64,
    /// Recovery: generations at or below this already committed —
    /// numbered, not fired.
    skip_gen: u64,
}

impl Stream {
    /// The start of a stream: nothing routed, generation 1 next.
    pub(crate) fn new(config: &ServiceConfig) -> Self {
        let barrier_every = config.checkpoint_every_epochs.saturating_mul(config.epoch_events);
        Self {
            templates: 0,
            binary: Vec::new(),
            lines: Some(LineTable::new()),
            routed: 0,
            next_gen: 1,
            barrier_every,
            skip: 0,
            skip_gen: 0,
        }
    }

    /// [`Self::new`] without a line table: every routed line stays text,
    /// to be parsed where it lands — the offline reference's grammar.
    pub(crate) fn parsing_every_line(config: &ServiceConfig) -> Self {
        Self { lines: None, ..Self::new(config) }
    }

    /// Switch to **journal-replay recovery**: the input replays the
    /// stream from its start, so the counters restart from zero and
    /// count through the replay — but the records and generations the
    /// current position (a restored manifest's) covers are only counted,
    /// never routed or fired again (DESIGN.md §18).
    pub(crate) fn recover(&mut self) {
        (self.skip, self.skip_gen) = (self.routed, self.next_gen - 1);
        (self.routed, self.next_gen) = (0, 1);
    }

    /// What recovery replays without routing: the records and the
    /// generations already done.
    pub(crate) fn skipped(&self) -> (u64, u64) {
        (self.skip, self.skip_gen)
    }

    /// The ingest loop: read `input` to its end or a `shutdown` and
    /// carry every record out through `placement` — one routed record to
    /// the shard of its table (the opaque shard without one), a barrier
    /// every `barrier_every` routed records and at each `checkpoint`
    /// control (a generation is taken for a control only when
    /// `checkpointing`; cadence barriers always number one), queries
    /// with their reply connection looked up by token. Below the
    /// recovery skip, records are counted and not routed, generations
    /// numbered and not fired; `Define`s and queries reach the placement
    /// everywhere. Each placement ends the run its own way after this
    /// returns.
    pub(crate) fn run<P: Placement>(
        &mut self,
        input: &mut (dyn BufRead + Send),
        schema: &Schema,
        map: &ShardMap,
        interactive: Option<&InteractiveRegistry>,
        checkpointing: bool,
        placement: &mut P,
    ) -> Result<(), String> {
        // Each run numbers its templates from 0, as its consumers do.
        self.templates = 0;
        self.binary.clear();
        if let Some(lines) = &mut self.lines {
            *lines = LineTable::new();
        }
        let opaque = map.opaque_shard();
        let mut records = RecordIter::new(input);
        loop {
            // A frame's well-formed events go straight to their shard:
            // no record, no decision, no table-to-shard division.
            while let Some((template, frequency)) = records.event() {
                Self::poll(placement)?;
                let producer = usize::try_from(template).ok().and_then(|t| self.binary.get(t));
                let (shard, item) = match producer {
                    Some(p) => (p.shard, Routed::Event { template: p.id, frequency }),
                    None => (opaque, Routed::Invalid),
                };
                self.pass(shard, item, checkpointing, placement)?;
            }
            // Any other item of the frame, then the next record: the
            // binary path reads nothing and never meets the line table.
            let decision = match records.decoded() {
                Some(record) => self.decide(record, schema),
                None => match records
                    .next_or_line(|| placement.flush(), |raw| self.decide_line(raw, schema))
                {
                    None => break,
                    Some(Next::Line(decision)) => decision,
                    Some(Next::Record(record)) => self.decide(record, schema),
                },
            };
            Self::poll(placement)?;
            let (shard, item) = match decision {
                Decision::Skip => continue,
                Decision::Shutdown => break,
                Decision::Route { table, item } => {
                    (table.map_or(opaque, |t| map.shard_of(t)), item)
                }
                Decision::Define { id, table, kind, attrs, event } => {
                    let shard = map.shard_of(table);
                    // A binary template's events route by this shard.
                    if let Some(p) = self.binary.last_mut().filter(|p| p.id == id as u64) {
                        p.shard = shard;
                    }
                    placement.define(shard, id, table, kind, attrs)?;
                    match event {
                        Some(frequency) => {
                            (shard, Routed::Event { template: id as u64, frequency })
                        }
                        None => continue,
                    }
                }
                Decision::Barrier => {
                    if checkpointing {
                        let generation = self.take_generation();
                        self.fire(generation, placement)?;
                    }
                    continue;
                }
                // Queries never count as routed: the barrier cadence is
                // the same with and without them in the stream.
                Decision::Query { control, token } => {
                    placement.query(control, token.and_then(|t| interactive?.take(t)))?;
                    continue;
                }
            };
            self.pass(shard, item, checkpointing, placement)?;
        }
        placement.flush();
        Ok(())
    }

    /// Before every record: let the placement surface failures, and print
    /// the status line if `SIGUSR1` asked for it.
    #[inline(always)]
    fn poll<P: Placement>(placement: &mut P) -> Result<(), String> {
        placement.poll()?;
        if take_status_signal() {
            eprintln!("{}", placement.status_line());
        }
        Ok(())
    }

    /// One routed record: to `shard` unless recovery already has it,
    /// counted either way, with the cadence barrier behind it.
    #[inline(always)]
    fn pass<P: Placement>(
        &mut self,
        shard: u32,
        item: Routed,
        checkpointing: bool,
        placement: &mut P,
    ) -> Result<(), String> {
        if self.routed >= self.skip {
            placement.route(shard, item)?;
        }
        if let Some(generation) = self.count_routed() {
            if checkpointing {
                self.fire(generation, placement)?;
            }
        }
        Ok(())
    }

    /// Open `generation` on the placement unless recovery already
    /// committed it.
    fn fire<P: Placement>(&self, generation: u64, placement: &mut P) -> Result<(), String> {
        if generation > self.skip_gen {
            placement.barrier(generation, self.routed)?;
        }
        Ok(())
    }

    /// Reduce one record to its decision.
    #[inline]
    pub(crate) fn decide(&mut self, record: Record, schema: &Schema) -> Decision {
        // Journal conn/seq tags reduce to the plain record they wrap.
        let record = match record {
            Record::Item(WireItem::Tagged { item, .. }) => Record::Item(*item),
            r => r,
        };
        match record {
            Record::Line(line) => self.decide_line(line.as_bytes(), schema),
            Record::Item(WireItem::Raw(bytes)) => self.decide_line(&bytes, schema),
            Record::Item(WireItem::Define { table, kind, attrs }) => {
                let id = self.templates;
                self.templates += 1;
                // The shard is the run's to fix (`run`).
                self.binary.push(Producer { id: id as u64, table, shard: 0 });
                Decision::Define { id, table, kind, attrs, event: None }
            }
            Record::Item(WireItem::Event { template, frequency }) => {
                match usize::try_from(template).ok().and_then(|t| self.binary.get(t)) {
                    Some(p) => Decision::Route {
                        table: Some(p.table),
                        item: Routed::Event { template: p.id, frequency },
                    },
                    None => INVALID,
                }
            }
            Record::Item(WireItem::Control(c)) => Self::control(c, None),
            // Tagged was unwrapped above; what is left (a supervisor
            // message, a doubly wrapped item) would be a decoder
            // invariant violation — count it invalid rather than trust it.
            Record::Item(_) | Record::Corrupt => INVALID,
        }
    }

    /// Reduce one text line — its bytes as read, line ending stripped —
    /// to its decision. A remembered line is decided by its bytes alone.
    /// Any other is trimmed, classified by a byte scan and, if a control,
    /// parsed; a line to route is parsed here the second time it is
    /// seen, and remembered as what it is. A valid query becomes the
    /// stream's next template: a `Define` to its shard, with its first
    /// event behind it.
    fn decide_line(&mut self, raw: &[u8], schema: &Schema) -> Decision {
        let hash = match &self.lines {
            Some(lines) => {
                let hash = line_hash(raw);
                if let Some(known) = lines.get(hash, raw) {
                    return Self::known(known, raw);
                }
                Some(hash)
            }
            None => None,
        };
        let text = String::from_utf8_lossy(raw);
        let line = text.trim();
        if line.is_empty() {
            return Decision::Skip;
        }
        let table = match classify_line(line) {
            LineClass::Table(t) => Some(t),
            _ => match line_control(line, schema) {
                Some(c) => return Self::control(c, Some(line)),
                None => None,
            },
        };
        let as_text = || Decision::Route { table, item: Routed::Line(line.to_owned()) };
        let Some((hash, lines)) = hash.zip(self.lines.as_mut()) else { return as_text() };
        if !lines.seen_before(hash) {
            return as_text();
        }
        let known = match parse_line(line, schema) {
            // The shard the line routes to is its table's.
            Ok(InputLine::Query(q)) if table == Some(q.table().0) => {
                let (id, frequency) = (self.templates, q.frequency());
                self.templates += 1;
                let table = q.table().0;
                lines.remember(hash, raw, Known::Template { id, table, frequency });
                let attrs = q.attrs().iter().map(|a| a.0).collect();
                let kind = q.kind();
                return Decision::Define { id, table, kind, attrs, event: Some(frequency) };
            }
            Ok(_) => Known::Parse { table },
            Err(_) => Known::Invalid { table },
        };
        lines.remember(hash, raw, known);
        Self::known(known, raw)
    }

    /// The decision for a remembered line.
    fn known(known: Known, raw: &[u8]) -> Decision {
        match known {
            Known::Template { id, table, frequency } => Decision::Route {
                table: Some(table),
                item: Routed::Event { template: id as u64, frequency },
            },
            Known::Invalid { table } => Decision::Route { table, item: Routed::Invalid },
            Known::Parse { table } => {
                let line = String::from_utf8_lossy(raw).trim().to_owned();
                Decision::Route { table, item: Routed::Line(line) }
            }
        }
    }

    /// A control command; `line` is its text form, which may carry a
    /// reply token (binary controls never do).
    fn control(c: Control, line: Option<&str>) -> Decision {
        match c {
            Control::Shutdown => Decision::Shutdown,
            Control::Checkpoint => Decision::Barrier,
            Control::Status
            | Control::Whatif { .. }
            | Control::Tenant { .. }
            | Control::Budget { .. }
            | Control::Calibration => {
                Decision::Query { control: c, token: line.and_then(parse_token) }
            }
        }
    }

    /// The generation a barrier opens now.
    pub(crate) fn take_generation(&mut self) -> u64 {
        self.next_gen += 1;
        self.next_gen - 1
    }

    /// Count one routed record; when the periodic cadence puts a
    /// barrier behind it, the generation that barrier opens.
    #[inline]
    fn count_routed(&mut self) -> Option<u64> {
        self.routed += 1;
        (self.barrier_every > 0 && self.routed.is_multiple_of(self.barrier_every))
            .then(|| self.take_generation())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{put_frame, put_item, FrameEncoder, MAGIC};
    use isel_workload::synthetic::{self, SyntheticConfig};
    use std::collections::BTreeMap;
    use std::io::Cursor;

    /// One hook call, as a [`Recorder`] writes it down (flushes aside).
    #[derive(Clone, Debug, PartialEq)]
    enum Call {
        Route(u32, String),
        Define { shard: u32, id: usize, table: u16 },
        Barrier { generation: u64, routed: u64 },
        Query(Control, bool),
    }

    /// A placement that only writes down what it is asked to do.
    #[derive(Default)]
    struct Recorder(Vec<Call>);

    impl Placement for Recorder {
        fn route(&mut self, shard: u32, item: Routed) -> Result<(), String> {
            let item = match item {
                Routed::Line(line) => line,
                Routed::Event { template, frequency } => format!("event {template}x{frequency}"),
                Routed::Invalid => "invalid".into(),
            };
            self.0.push(Call::Route(shard, item));
            Ok(())
        }
        fn define(
            &mut self,
            shard: u32,
            id: usize,
            table: u16,
            _: QueryKind,
            _: Vec<u32>,
        ) -> Result<(), String> {
            self.0.push(Call::Define { shard, id, table });
            Ok(())
        }
        fn barrier(&mut self, generation: u64, routed: u64) -> Result<(), String> {
            self.0.push(Call::Barrier { generation, routed });
            Ok(())
        }
        fn query(&mut self, control: Control, reply: Option<Sender<String>>) -> Result<(), String> {
            self.0.push(Call::Query(control, reply.is_some()));
            Ok(())
        }
        fn flush(&mut self) {}
        fn poll(&mut self) -> Result<(), String> {
            Ok(())
        }
        fn status_line(&self) -> String {
            "status".into()
        }
    }

    const T0: &str = r#"{"table":0,"attrs":[0]}"#;
    const T1: &str = r#"{"table":1,"attrs":[8]}"#;
    const T2: &str = r#"{"table":2,"attrs":[16]}"#;

    /// A mixed JSONL/binary stream with one record of every kind the
    /// grammar knows; the whatif carries reply token 0.
    fn input() -> Vec<u8> {
        let mut out = Vec::new();
        let line = |out: &mut Vec<u8>, l: &str| {
            out.extend_from_slice(l.as_bytes());
            out.push(b'\n');
        };
        line(&mut out, "");
        line(&mut out, T1);
        line(&mut out, "garbage");
        // A `Define` of a table-2 template and an event of it, then an
        // event of a template nobody defined, then a corrupt frame.
        let mut enc = FrameEncoder::new();
        enc.push_query(2, &[16], 1, QueryKind::Select);
        enc.flush_into(&mut out);
        let mut payload = Vec::new();
        put_item(&mut payload, &WireItem::Event { template: 7, frequency: 1 });
        put_frame(&mut out, &payload);
        out.extend_from_slice(&[MAGIC, 0x7F, 0xde, 0xad, b'\n']);
        line(&mut out, r#"{"control":"checkpoint"}"#);
        line(&mut out, T0);
        line(&mut out, r#"{"control":"whatif","budget":5,"token":0}"#);
        line(&mut out, T1);
        line(&mut out, r#"{"control":"status"}"#);
        line(&mut out, T2);
        line(&mut out, r#"{"control":"shutdown"}"#);
        line(&mut out, T0);
        out
    }

    /// Drive the loop over [`input`] at 2 shards and a barrier every 2
    /// routed records, recovering with `skip` records and generations
    /// up to `skip_gen` done (both 0: a fresh stream).
    fn transcript(skip: u64, skip_gen: u64, checkpointing: bool) -> (Vec<Call>, u64) {
        let w = synthetic::generate(&SyntheticConfig { tables: 3, ..SyntheticConfig::default() });
        let config = ServiceConfig {
            epoch_events: 2,
            checkpoint_every_epochs: 1,
            ..ServiceConfig::default()
        };
        let map = ShardMap::new(2, BTreeMap::new(), w.schema().tables().len()).unwrap();
        let registry = InteractiveRegistry::new();
        let (tx, _rx) = std::sync::mpsc::channel();
        assert_eq!(registry.register(tx), 0);
        let mut stream = Stream::new(&config);
        (stream.routed, stream.next_gen) = (skip, skip_gen + 1);
        stream.recover();
        let mut rec = Recorder::default();
        let input = &mut Cursor::new(input());
        stream.run(input, w.schema(), &map, Some(&registry), checkpointing, &mut rec).unwrap();
        (rec.0, stream.next_gen)
    }

    #[test]
    fn the_loop_carries_every_record_kind_out_through_the_placement() {
        use Call::*;
        let route = |shard, item: &str| Route(shard, item.to_owned());
        let barrier = |generation, routed| Barrier { generation, routed };
        let (calls, next_gen) = transcript(0, 0, true);
        assert_eq!(
            calls,
            [
                route(1, T1),
                route(0, "garbage"),
                barrier(1, 2),
                Define { shard: 0, id: 0, table: 2 },
                route(0, "event 0x1"),
                route(0, "invalid"), // template 7 was never defined
                barrier(2, 4),
                route(0, "invalid"), // the corrupt frame
                barrier(3, 5),       // the explicit checkpoint
                route(0, T0),
                barrier(4, 6),
                Query(Control::Whatif { budget: 5 }, true),
                // Seen before: parsed here, and invalid (attribute 8 is
                // not table 1's).
                route(1, "invalid"),
                Query(Control::Status, false),
                route(0, T2),
                barrier(5, 8),
            ]
        );
        assert_eq!(next_gen, 6);

        // Without checkpointing no barrier fires, and the explicit
        // checkpoint takes no generation; cadence positions still do.
        let (calls, next_gen) = transcript(0, 0, false);
        assert!(calls.iter().all(|c| !matches!(c, Barrier { .. })), "{calls:?}");
        assert_eq!(next_gen, 5);
    }

    /// Recovery is a property of the stream position: the transcript
    /// with `skip = k`, `skip_gen = g` is the fresh one without its
    /// first `k` routed records and generations `≤ g` — every `Define`
    /// and query kept.
    #[test]
    fn recovery_skips_routed_records_and_fired_generations_only() {
        let (fresh, _) = transcript(0, 0, true);
        for k in 0..=9 {
            for g in 0..=6 {
                let mut routed = 0;
                let want: Vec<Call> = fresh
                    .iter()
                    .filter(|c| match c {
                        Call::Route(..) => {
                            routed += 1;
                            routed > k
                        }
                        Call::Barrier { generation, .. } => *generation > g,
                        Call::Define { .. } | Call::Query(..) => true,
                    })
                    .cloned()
                    .collect();
                assert_eq!(transcript(k, g, true).0, want, "skip {k}, skip_gen {g}");
            }
        }
    }

    /// One frame with events at both edges of everything else a frame can
    /// hold — a `Define`, a `checkpoint` control, a tagged event, an event
    /// of a producer id never defined, and a malformed item with items
    /// behind it — between a frame of defines and a frame and a line
    /// after.
    fn frame_edges() -> Vec<u8> {
        let event = |template, frequency| WireItem::Event { template, frequency };
        let define = |table, attrs: &[u32]| WireItem::Define {
            table,
            kind: QueryKind::Select,
            attrs: attrs.to_vec(),
        };
        let frame = |out: &mut Vec<u8>, items: &[WireItem], tail: &[u8]| {
            let mut payload = Vec::new();
            for item in items {
                put_item(&mut payload, item);
            }
            payload.extend_from_slice(tail);
            put_frame(out, &payload);
        };
        let mut out = Vec::new();
        frame(&mut out, &[define(0, &[0]), define(1, &[8])], &[]);
        let mut malformed = vec![2, 0, 0]; // an event of frequency 0
        put_item(&mut malformed, &event(0, 1));
        put_item(&mut malformed, &event(1, 4));
        frame(
            &mut out,
            &[
                event(0, 1),
                event(1, 3),
                event(0, 1),
                event(1, 1),
                event(0, 7),
                define(2, &[16]),
                event(2, 1),
                WireItem::Control(Control::Checkpoint),
                event(2, 2),
                WireItem::Tagged { conn: 1, seq: 1, item: Box::new(event(1, 2)) },
                event(9, 1),
                event(0, 1),
            ],
            &malformed,
        );
        out.extend_from_slice(T1.as_bytes());
        out.push(b'\n');
        frame(&mut out, &[event(2, 5), event(1, 1)], &[]);
        out
    }

    /// The loop's transcript over `input` at 2 shards and a barrier every
    /// 2 routed records, recovering as [`transcript`] does.
    fn run_over(input: &[u8], skip: u64, skip_gen: u64, checkpointing: bool) -> (Vec<Call>, u64) {
        let (w, config, map) = edge_setup();
        let mut stream = Stream::new(&config);
        (stream.routed, stream.next_gen) = (skip, skip_gen + 1);
        stream.recover();
        let mut rec = Recorder::default();
        let input = &mut Cursor::new(input);
        stream.run(input, w.schema(), &map, None, checkpointing, &mut rec).unwrap();
        (rec.0, stream.next_gen)
    }

    fn edge_setup() -> (isel_workload::Workload, ServiceConfig, ShardMap) {
        let w = synthetic::generate(&SyntheticConfig { tables: 3, ..SyntheticConfig::default() });
        let config = ServiceConfig {
            epoch_events: 2,
            checkpoint_every_epochs: 1,
            ..ServiceConfig::default()
        };
        let map = ShardMap::new(2, BTreeMap::new(), w.schema().tables().len()).unwrap();
        (w, config, map)
    }

    /// [`run_over`] written record by record: every record read by
    /// [`RecordIter::next_with`] and reduced by [`Stream::decide`], and
    /// its decision carried out by hand.
    fn reference(input: &[u8], skip: u64, skip_gen: u64, checkpointing: bool) -> (Vec<Call>, u64) {
        let (w, config, map) = edge_setup();
        let mut stream = Stream::new(&config);
        let mut rec = Recorder::default();
        let (mut routed, mut next_gen) = (0u64, 1u64);
        let barrier = |rec: &mut Recorder, next_gen: &mut u64, routed| {
            *next_gen += 1;
            if checkpointing && *next_gen - 1 > skip_gen {
                rec.0.push(Call::Barrier { generation: *next_gen - 1, routed });
            }
        };
        let mut records = RecordIter::new(Cursor::new(input));
        while let Some(record) = records.next_with(|| {}) {
            let (shard, item) = match stream.decide(record, w.schema()) {
                Decision::Skip => continue,
                Decision::Shutdown => break,
                Decision::Route { table, item } => (table.map_or(0, |t| map.shard_of(t)), item),
                Decision::Define { id, table, kind, attrs, event } => {
                    let shard = map.shard_of(table);
                    rec.define(shard, id, table, kind, attrs).unwrap();
                    match event {
                        Some(frequency) => {
                            (shard, Routed::Event { template: id as u64, frequency })
                        }
                        None => continue,
                    }
                }
                Decision::Barrier => {
                    if checkpointing {
                        barrier(&mut rec, &mut next_gen, routed);
                    }
                    continue;
                }
                Decision::Query { control, .. } => {
                    rec.query(control, None).unwrap();
                    continue;
                }
            };
            if routed >= skip {
                rec.route(shard, item).unwrap();
            }
            routed += 1;
            if routed % 2 == 0 {
                barrier(&mut rec, &mut next_gen, routed);
            }
        }
        (rec.0, next_gen)
    }

    /// A frame's events take the loop's shortcut to their shard; every
    /// other item takes the record's way. Both ways must leave the same
    /// transcript, wherever a cadence barrier or the recovery skip falls
    /// in the frame.
    #[test]
    fn a_frame_carries_out_like_its_records_one_by_one() {
        let input = frame_edges();
        let (fresh, next_gen) = reference(&input, 0, 0, true);
        let routes = fresh.iter().filter(|c| matches!(c, Call::Route(..))).count() as u64;
        assert_eq!(routes, 14, "{fresh:?}");
        assert!(fresh.contains(&Call::Route(0, "event 2x2".into())), "{fresh:?}");
        assert!(fresh.contains(&Call::Route(1, "event 1x2".into())), "the tagged event");
        assert_eq!(fresh.iter().filter(|c| **c == Call::Route(0, "invalid".into())).count(), 2);
        for checkpointing in [true, false] {
            for skip in 0..=routes + 1 {
                for skip_gen in [0, 1, 3, 5, next_gen] {
                    assert_eq!(
                        run_over(&input, skip, skip_gen, checkpointing),
                        reference(&input, skip, skip_gen, checkpointing),
                        "skip {skip}, skip_gen {skip_gen}, checkpointing {checkpointing}"
                    );
                }
            }
        }
    }

    /// A two-table schema: `t0` with attributes 0 and 1, `t1` with 2.
    fn schema() -> Schema {
        let mut b = isel_workload::SchemaBuilder::new();
        let t0 = b.table("t0", 1_000);
        b.attribute(t0, "a", 10, 4);
        b.attribute(t0, "b", 10, 4);
        let t1 = b.table("t1", 1_000);
        b.attribute(t1, "c", 10, 4);
        b.finish()
    }

    /// A decision as text, for comparing.
    fn describe(d: Decision) -> String {
        match d {
            Decision::Skip => "skip".into(),
            Decision::Shutdown => "shutdown".into(),
            Decision::Barrier => "barrier".into(),
            Decision::Query { control, token } => format!("query {control:?} {token:?}"),
            Decision::Define { id, table, kind, attrs, event } => {
                format!("define {id} t{table} {kind:?} {attrs:?} then {event:?}")
            }
            Decision::Route { table, item } => {
                let item = match item {
                    Routed::Line(line) => format!("line {line}"),
                    Routed::Event { template, frequency } => {
                        format!("event {template}x{frequency}")
                    }
                    Routed::Invalid => "invalid".into(),
                };
                format!("route {table:?} {item}")
            }
        }
    }

    fn decide(stream: &mut Stream, line: &str, s: &Schema) -> String {
        describe(stream.decide(Record::Line(line.to_owned()), s))
    }

    /// A routed line is text the first time it is seen and is parsed at
    /// the edge the second: a valid query becomes a template — one
    /// define with its first event behind it, then one event per
    /// occurrence — and anything else is remembered as what its host
    /// makes of it, so it is never parsed twice per occurrence. Controls
    /// and blank lines are never remembered.
    #[test]
    fn a_line_becomes_a_template_on_its_second_parse_and_only_if_a_query() {
        let s = schema();
        let mut stream = Stream::new(&ServiceConfig::default());
        let line = r#"{"table":0,"attrs":[1,0],"frequency":3}"#;
        assert_eq!(decide(&mut stream, line, &s), format!("route Some(0) line {line}"));
        assert_eq!(decide(&mut stream, line, &s), "define 0 t0 Select [0, 1] then Some(3)");
        for _ in 0..3 {
            assert_eq!(decide(&mut stream, line, &s), "route Some(0) event 0x3");
        }
        let probe = r#"{"table":0,"attrs":[0],"observed_cost":2.5}"#;
        let riding = r#"{"table":0,"attrs":[0],"control":"status"}"#;
        for (other, then) in [
            (r#"{"table":0,"attrs":[2]}"#, "route Some(0) invalid"),
            (r#"{"table":0,"attrs":[0],"frequency":0}"#, "route Some(0) invalid"),
            (r#"{"table":0,"attrs":["#, "route Some(0) invalid"),
            ("garbage", "route None invalid"),
            (probe, &format!("route Some(0) line {probe}")),
            (riding, &format!("route Some(0) line {riding}")),
        ] {
            let first = decide(&mut stream, other, &s);
            assert!(first.ends_with(&format!("line {other}")), "{other}: {first}");
            for _ in 0..3 {
                assert_eq!(decide(&mut stream, other, &s), then, "{other}");
            }
        }
        for _ in 0..3 {
            assert_eq!(decide(&mut stream, r#"{"control":"checkpoint"}"#, &s), "barrier");
            assert_eq!(decide(&mut stream, "  ", &s), "skip");
        }
        let lines = stream.lines.as_ref().unwrap();
        assert_eq!(lines.lines.len(), 7, "the query and the six others");
        assert_eq!(stream.templates, 1, "only the query is a template");
    }

    /// Binary producer ids and remembered lines share one dense
    /// namespace, numbered in the order the defines go out; a binary
    /// event names its template by the producer's id.
    #[test]
    fn binary_ids_and_line_templates_share_one_namespace() {
        let s = schema();
        let mut stream = Stream::new(&ServiceConfig::default());
        let kind = QueryKind::Update;
        let define = |table| Record::Item(WireItem::Define { table, kind, attrs: vec![2] });
        let event = |template| Record::Item(WireItem::Event { template, frequency: 2 });
        let line = r#"{"table":0,"attrs":[0]}"#;
        let mut got = vec![describe(stream.decide(define(1), &s))];
        got.push(decide(&mut stream, line, &s));
        got.push(decide(&mut stream, line, &s));
        got.push(describe(stream.decide(define(1), &s)));
        got.push(describe(stream.decide(event(1), &s)));
        got.push(describe(stream.decide(event(0), &s)));
        got.push(decide(&mut stream, line, &s));
        got.push(describe(stream.decide(event(2), &s)));
        assert_eq!(
            got,
            [
                "define 0 t1 Update [2] then None",
                &format!("route Some(0) line {line}"),
                "define 1 t0 Select [0] then Some(1)",
                "define 2 t1 Update [2] then None",
                "route Some(1) event 2x2",
                "route Some(1) event 0x2",
                "route Some(0) event 1x1",
                "route None invalid", // producer id 2 was never defined
            ]
        );
    }

    /// A line whose hash another remembered line holds is routed as text
    /// every time, never parsed at the edge.
    #[test]
    fn a_line_under_another_lines_hash_is_parsed_never_remembered() {
        let s = schema();
        let mut stream = Stream::new(&ServiceConfig::default());
        let (a, b) = (r#"{"table":0,"attrs":[0]}"#, r#"{"table":1,"attrs":[2]}"#);
        decide(&mut stream, a, &s);
        assert!(decide(&mut stream, a, &s).starts_with("define 0"));
        // Forge a collision: b's hash names a's entry.
        let lines = stream.lines.as_mut().unwrap();
        lines.ids.insert(line_hash(b.as_bytes()), 0);
        for _ in 0..3 {
            assert_eq!(decide(&mut stream, b, &s), format!("route Some(1) line {b}"));
        }
        assert_eq!(stream.lines.as_ref().unwrap().lines.len(), 1);
    }

    /// Past [`LINE_CAP`] remembered lines the table stops growing: a new
    /// line stays text however often it repeats, and the lines already
    /// remembered still resolve.
    #[test]
    fn the_line_table_stops_remembering_at_its_cap() {
        let s = schema();
        let mut stream = Stream::new(&ServiceConfig::default());
        let line = |n: usize| format!(r#"{{"table":1,"attrs":[2],"frequency":{n}}}"#);
        for n in 1..=LINE_CAP + 2 {
            assert!(decide(&mut stream, &line(n), &s).contains("line"), "{n}: seen once");
            let again = decide(&mut stream, &line(n), &s);
            match n <= LINE_CAP {
                true => assert!(again.starts_with(&format!("define {}", n - 1)), "{n}: {again}"),
                false => assert!(again.contains("line"), "{n}: past the cap, {again}"),
            }
        }
        assert_eq!(decide(&mut stream, &line(7), &s), "route Some(1) event 6x7");
        let lines = stream.lines.as_ref().unwrap();
        assert_eq!((lines.lines.len(), lines.ids.len()), (LINE_CAP, LINE_CAP));
    }

    /// The offline reference's stream leaves every line to be parsed
    /// where it lands.
    #[test]
    fn a_reference_stream_remembers_no_line() {
        let s = schema();
        let mut stream = Stream::parsing_every_line(&ServiceConfig::default());
        let line = r#"{"table":0,"attrs":[0]}"#;
        for _ in 0..3 {
            assert_eq!(decide(&mut stream, line, &s), format!("route Some(0) line {line}"));
        }
    }
}
