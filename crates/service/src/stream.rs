//! The stream grammar: what one record of the input means.
//!
//! Every driver — the in-process [`crate::router::Router`] (threads and
//! queues) and the [`crate::process::Supervisor`] (processes and pipes)
//! — reads the same mixed JSONL/binary stream and must agree, record
//! for record, on what is an event, what is a command, what counts as
//! *routed* (the unit of the periodic checkpoint cadence) and where an
//! undecodable record is charged. [`Stream::decide`] is that agreement:
//! it reduces a [`Record`] to one [`Decision`], and the driver only
//! chooses how to carry the decision out. It returns the decision by
//! value from an inlinable function, so a driver's `match` on it
//! compiles into the grammar's own branches — the binary hot path
//! (`Define`/`Event`) pays for no indirection.

use crate::config::ServiceConfig;
use crate::event::{parse_line, parse_token, Control, InputLine};
use crate::frame::WireItem;
use crate::records::Record;
use crate::shard::{classify_line, LineClass};
use isel_workload::{QueryKind, Schema};

/// What a driver does with one record.
pub(crate) enum Decision {
    /// Nothing: a blank line.
    Skip,
    /// Route a text line — trimmed, otherwise untouched — to the shard
    /// of `table`, whose group host parses, validates and counts it.
    /// `None` is a line with no usable routing key: garbage, or a
    /// malformed control line. It goes to the opaque shard, so that it
    /// is counted invalid exactly once, by a host, at a deterministic
    /// position of that shard's stream — never by the driver.
    Line { table: Option<u16>, line: String },
    /// A binary template definition with its stream-global id. Not
    /// routed: a JSONL stream has no define lines, and barrier
    /// generations must land at identical event positions in both
    /// encodings.
    Define { id: usize, table: u16, kind: QueryKind, attrs: Vec<u32> },
    /// Route a binary event of a defined template to `table`'s shard.
    Event { table: u16, template: u64, frequency: u64 },
    /// Route one invalid record to the opaque shard: a corrupt frame
    /// region, an event whose template was never defined, an item that
    /// has no place in an event stream.
    Invalid,
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
/// engines and the socket front share: the byte classifier decides, and
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

/// A driver's position in its input stream: the template dictionary of
/// the binary encoding and the two counters the checkpoint cadence runs
/// on.
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
}

impl Stream {
    pub(crate) fn new(config: &ServiceConfig, routed: u64, next_gen: u64) -> Self {
        let barrier_every = config.checkpoint_every_epochs.saturating_mul(config.epoch_events);
        Self { tables: Vec::new(), routed, next_gen, barrier_every }
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
                    Some(&table) => Decision::Event { table, template, frequency },
                    None => Decision::Invalid,
                }
            }
            Record::Item(WireItem::Control(c)) => Self::control(c, None),
            // Tagged/Raw were unwrapped above; what is left (a supervisor
            // message, a doubly wrapped item) would be a decoder
            // invariant violation — count it invalid rather than trust it.
            Record::Item(_) | Record::Corrupt => Decision::Invalid,
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
        if let LineClass::Table(t) = classify_line(&line) {
            return Decision::Line { table: Some(t), line };
        }
        match line_control(&line, schema) {
            Some(c) => Self::control(c, Some(&line)),
            None => Decision::Line { table: None, line },
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
    pub(crate) fn count_routed(&mut self) -> Option<u64> {
        self.routed += 1;
        (self.barrier_every > 0 && self.routed.is_multiple_of(self.barrier_every))
            .then(|| self.take_generation())
    }
}
