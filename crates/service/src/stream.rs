//! The stream grammar and the one ingest loop: what one record of the
//! input means, and what the engine does with it at every placement.
//!
//! The [`crate::router::Router`] reads the same mixed JSONL/binary
//! stream at both placements — shard threads and queues, or worker
//! processes and pipes — and they must agree, record for record, on
//! what is an event, what is a command, what counts as
//! *routed* (the unit of the periodic checkpoint cadence) and where an
//! undecodable record is charged. [`Stream::decide`] is that agreement:
//! it reduces a [`Record`] to one [`Decision`], by value — the binary
//! hot path (`Define`/`Event`) allocates nothing and dispatches nothing
//! dynamically.
//!
//! [`Stream::run`] is the loop around it, written once: the status
//! signal, the shard choice, reply tokens, routed counting, explicit
//! and cadence barriers, the recovery skip and the final flush. Where
//! the groups live is a [`Placement`] — shard threads or worker
//! processes, chosen once per run — and the loop is generic over it, so
//! each placement gets its own monomorphised, statically dispatched
//! copy.

use crate::arbiter::InteractiveRegistry;
use crate::config::ServiceConfig;
use crate::event::{parse_line, parse_token, Control, InputLine};
use crate::frame::WireItem;
use crate::records::{Record, RecordIter};
use crate::shard::{classify_line, LineClass, ShardMap};
use crate::status::take_status_signal;
use isel_workload::{QueryKind, Schema};
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
    /// A binary template definition with its stream-global id. Not
    /// routed: a JSONL stream has no define lines, and barrier
    /// generations must land at identical event positions in both
    /// encodings.
    Define { id: usize, table: u16, kind: QueryKind, attrs: Vec<u32> },
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

/// The router's position in its logical input stream: the template
/// dictionary of the binary encoding, the two counters the checkpoint
/// cadence runs on, and — on journal-replay recovery — how much of the
/// stream is already done.
pub(crate) struct Stream {
    /// Table of every `Define` seen, by stream-global template id, so
    /// events route by table without re-reading their definition.
    tables: Vec<u16>,
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
        Self { tables: Vec::new(), routed: 0, next_gen: 1, barrier_every, skip: 0, skip_gen: 0 }
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
    pub(crate) fn run<R: BufRead, P: Placement>(
        &mut self,
        input: R,
        schema: &Schema,
        map: &ShardMap,
        interactive: Option<&InteractiveRegistry>,
        checkpointing: bool,
        placement: &mut P,
    ) -> Result<(), String> {
        // Template ids are the input's own: a binary stream numbers its
        // `Define`s from 0.
        self.tables.clear();
        let opaque = map.opaque_shard();
        let mut records = RecordIter::new(input);
        while let Some(record) = records.next_with(|| placement.flush()) {
            placement.poll()?;
            if take_status_signal() {
                eprintln!("{}", placement.status_line());
            }
            let (shard, item) = match self.decide(record, schema) {
                Decision::Skip => continue,
                Decision::Shutdown => break,
                Decision::Route { table, item } => {
                    (table.map_or(opaque, |t| map.shard_of(t)), item)
                }
                Decision::Define { id, table, kind, attrs } => {
                    placement.define(map.shard_of(table), id, table, kind, attrs)?;
                    continue;
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
            if self.routed >= self.skip {
                placement.route(shard, item)?;
            }
            if let Some(generation) = self.count_routed() {
                if checkpointing {
                    self.fire(generation, placement)?;
                }
            }
        }
        placement.flush();
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
        // Journal conn/seq tags and raw-carried lines reduce to the
        // plain record they wrap.
        let record = match record {
            Record::Item(WireItem::Tagged { item, .. }) => Record::Item(*item),
            r => r,
        };
        let record = match record {
            Record::Item(WireItem::Raw(bytes)) => {
                Record::Line(String::from_utf8_lossy(&bytes).into_owned())
            }
            r => r,
        };
        match record {
            Record::Line(line) => Self::decide_line(line, schema),
            Record::Item(WireItem::Define { table, kind, attrs }) => {
                let id = self.tables.len();
                self.tables.push(table);
                Decision::Define { id, table, kind, attrs }
            }
            Record::Item(WireItem::Event { template, frequency }) => {
                match usize::try_from(template).ok().and_then(|t| self.tables.get(t)) {
                    Some(&table) => Decision::Route {
                        table: Some(table),
                        item: Routed::Event { template, frequency },
                    },
                    None => INVALID,
                }
            }
            Record::Item(WireItem::Control(c)) => Self::control(c, None),
            // Tagged/Raw were unwrapped above; what is left (a supervisor
            // message, a doubly wrapped item) would be a decoder
            // invariant violation — count it invalid rather than trust it.
            Record::Item(_) | Record::Corrupt => INVALID,
        }
    }

    fn decide_line(line: String, schema: &Schema) -> Decision {
        // Strip surrounding blanks; recorded and rendered lines have
        // none and move as they are.
        let line = match line.trim() {
            "" => return Decision::Skip,
            t if t.len() == line.len() => line,
            t => t.to_owned(),
        };
        let table = match classify_line(&line) {
            LineClass::Table(t) => Some(t),
            _ => match line_control(&line, schema) {
                Some(c) => return Self::control(c, Some(&line)),
                None => None,
            },
        };
        Decision::Route { table, item: Routed::Line(line) }
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
        let input = Cursor::new(input());
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
                route(1, T1),
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
}
