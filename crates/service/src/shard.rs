//! Table-group sharding: event classification and shard placement.
//!
//! The paper's H6 recursion is per-query/per-index local, queries touch
//! exactly one table, and indexes are per-table — so the selection
//! problem decomposes by *table group*. The router exploits that: a
//! [`ShardMap`] places every table group on one of `N` shards, and
//! [`classify_line`] extracts the routing key from a raw JSONL line with
//! a single byte scan, leaving the parse/validate work to the shard
//! workers (which is what makes routing cheaper than ingesting and the
//! fan-out a throughput win). A shard does that work for a repeated
//! query line only until its [`crate::records::DecodeDict`] remembers
//! the line; after that the line resolves by a hash lookup.
//!
//! Placement never affects results: the unit of tuning state is the
//! table group at every shard count, so moving a group between shards
//! (including resuming a checkpoint at a different `--shards`) changes
//! scheduling only.
//!
//! Binary-framed input (see [`crate::frame`]) never reaches
//! [`classify_line`]: frames start with a magic byte that is invalid as
//! a UTF-8 lead, so [`crate::records::RecordIter`] splits the stream
//! first and the router routes decoded items by their template's table —
//! cheaper still than the byte scan.

use isel_core::{TraceEvent, TraceSink};
use std::collections::BTreeMap;

/// Routing classification of one raw input line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineClass {
    /// A line whose top-level `"table"` key holds `t` — route to
    /// `shard_of(t)`. The full parse still happens on the shard; the
    /// classifier only extracts the routing key.
    Table(u16),
    /// A line with a top-level `"control"` key and no `"table"` key —
    /// handled by the router itself.
    Control,
    /// Anything else (malformed JSON, missing keys, out-of-range table
    /// numbers). Routed to a fixed shard so it is counted as invalid
    /// exactly once.
    Opaque,
}

/// Classify one line by scanning for its top-level `"table"` (or
/// `"control"`) key without parsing the JSON.
///
/// The scan tracks string state (with escapes) and brace/bracket depth,
/// so a `"table"` key nested inside an ignored object or embedded in a
/// string value is never mistaken for the routing key. For any line the
/// event parser accepts, the extracted table equals the parsed one:
/// valid lines have exactly one top-level `"table"` key (duplicate keys
/// are a parse error), which is exactly what the scan finds.
pub fn classify_line(line: &str) -> LineClass {
    let b = line.as_bytes();
    // Fast path: the overwhelmingly common recorded-log shape.
    if let Some(rest) = b.strip_prefix(b"{\"table\":") {
        if let Some(t) = leading_u16(rest) {
            return LineClass::Table(t);
        }
    }
    let mut depth = 0i32;
    let mut i = 0usize;
    let mut in_str = false;
    let mut str_start = 0usize;
    let mut saw_control = false;
    while i < b.len() {
        let c = b[i];
        if in_str {
            if c == b'\\' {
                i += 2; // skip the escaped byte ('"', '\\', ...)
                continue;
            }
            if c == b'"' {
                in_str = false;
                if depth == 1 {
                    // A string at top level is a key iff a ':' follows.
                    let mut j = i + 1;
                    while j < b.len() && b[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    if j < b.len() && b[j] == b':' {
                        let content = &b[str_start..i];
                        if content == b"table" {
                            let mut v = j + 1;
                            while v < b.len() && b[v].is_ascii_whitespace() {
                                v += 1;
                            }
                            return match leading_u16(&b[v..]) {
                                Some(t) => LineClass::Table(t),
                                None => LineClass::Opaque,
                            };
                        }
                        if content == b"control" {
                            saw_control = true;
                        }
                    }
                }
            }
            i += 1;
            continue;
        }
        match c {
            b'"' => {
                in_str = true;
                str_start = i + 1;
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    if saw_control {
        LineClass::Control
    } else {
        LineClass::Opaque
    }
}

/// Parse the decimal digits at the head of `b` into a `u16`.
fn leading_u16(b: &[u8]) -> Option<u16> {
    let mut v: u32 = 0;
    let mut any = false;
    for &c in b {
        if !c.is_ascii_digit() {
            break;
        }
        any = true;
        v = v.saturating_mul(10).saturating_add((c - b'0') as u32);
        if v > u16::MAX as u32 {
            return None;
        }
    }
    any.then_some(v as u16)
}

/// Placement of table groups onto shards.
///
/// Resolution order for a table `t`:
/// 1. an explicit `shard_map` entry,
/// 2. the default for schema tables: `t`'s own shard when there are at
///    least as many shards as tables, else round-robin packing
///    (`t mod shards`),
/// 3. rendezvous hashing for tables outside the schema — deterministic,
///    so a stream of events against an unknown table is always counted
///    invalid by the same shard.
#[derive(Clone, Debug)]
pub struct ShardMap {
    shards: u32,
    explicit: BTreeMap<u16, u32>,
    schema_tables: u16,
}

impl ShardMap {
    /// Build a map for `shards` workers over a schema with
    /// `schema_tables` tables.
    ///
    /// # Errors
    ///
    /// Rejects `shards == 0` and explicit placements onto nonexistent
    /// shards.
    pub fn new(
        shards: u32,
        explicit: BTreeMap<u16, u32>,
        schema_tables: usize,
    ) -> Result<Self, String> {
        if shards == 0 {
            return Err("a router needs at least one shard".into());
        }
        for (&table, &shard) in &explicit {
            if shard >= shards {
                return Err(format!(
                    "shard_map places table {table} on shard {shard}, but only {shards} shards exist"
                ));
            }
        }
        let schema_tables =
            u16::try_from(schema_tables).map_err(|_| "schema has more than u16::MAX tables")?;
        Ok(Self { shards, explicit, schema_tables })
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard serving table `t`.
    pub fn shard_of(&self, t: u16) -> u32 {
        if let Some(&s) = self.explicit.get(&t) {
            return s;
        }
        if t < self.schema_tables {
            return u32::from(t) % self.shards;
        }
        self.rendezvous(t)
    }

    /// The shard that counts unclassifiable (opaque) lines.
    pub fn opaque_shard(&self) -> u32 {
        0
    }

    /// Highest-random-weight placement for tables outside the schema.
    fn rendezvous(&self, t: u16) -> u32 {
        (0..self.shards)
            .max_by_key(|&k| (splitmix64((u64::from(t) << 32) | u64::from(k)), std::cmp::Reverse(k)))
            .expect("shards >= 1")
    }
}

/// SplitMix64 finalizer — cheap, well-mixed scoring for rendezvous
/// hashing.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Trace sink adapter stamping the shard id onto run envelopes.
///
/// Strategies always emit `shard: None`; wrapping a shard worker's sink
/// in this adapter rewrites [`TraceEvent::RunStart`] and
/// [`TraceEvent::RunEnd`] so every run in a per-shard trace file is
/// attributable without changing any other event.
pub struct ShardTagSink<'a> {
    shard: u32,
    inner: &'a dyn TraceSink,
}

impl<'a> ShardTagSink<'a> {
    /// Tag every run envelope recorded through `inner` with `shard`.
    pub fn new(shard: u32, inner: &'a dyn TraceSink) -> Self {
        Self { shard, inner }
    }
}

impl TraceSink for ShardTagSink<'_> {
    fn record(&self, event: TraceEvent) {
        let tagged = match event {
            TraceEvent::RunStart { strategy, queries, total_width, budget, .. } => {
                TraceEvent::RunStart {
                    strategy,
                    queries,
                    total_width,
                    budget,
                    shard: Some(self.shard),
                }
            }
            TraceEvent::RunEnd {
                strategy,
                steps,
                issued,
                cached,
                initial_cost,
                final_cost,
                micros,
                ..
            } => TraceEvent::RunEnd {
                strategy,
                steps,
                issued,
                cached,
                initial_cost,
                final_cost,
                micros,
                shard: Some(self.shard),
            },
            other => other,
        };
        self.inner.record(tagged);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_core::VecSink;

    #[test]
    fn classifies_common_event_shapes() {
        assert_eq!(classify_line(r#"{"table":2,"attrs":[6,7,8]}"#), LineClass::Table(2));
        assert_eq!(
            classify_line(r#"{"attrs":[1],"frequency":3,"table":7}"#),
            LineClass::Table(7)
        );
        assert_eq!(classify_line(r#"{ "table" : 11 , "attrs":[0]}"#), LineClass::Table(11));
        assert_eq!(classify_line(r#"{"control":"shutdown"}"#), LineClass::Control);
        assert_eq!(classify_line(r#"{"control":"checkpoint"}"#), LineClass::Control);
    }

    #[test]
    fn nested_and_quoted_table_keys_are_not_routing_keys() {
        // "table" inside a string value.
        assert_eq!(
            classify_line(r#"{"note":"\"table\":9","table":2,"attrs":[0]}"#),
            LineClass::Table(2)
        );
        // "table" as a *value*, not a key.
        assert_eq!(classify_line(r#"{"kind":"table","table":3,"attrs":[0]}"#), LineClass::Table(3));
        // "table" nested in an ignored object — the top-level key wins.
        assert_eq!(
            classify_line(r#"{"meta":{"table":9},"table":2,"attrs":[0]}"#),
            LineClass::Table(2)
        );
        // Only a nested occurrence: no top-level key at all.
        assert_eq!(classify_line(r#"{"meta":{"table":9}}"#), LineClass::Opaque);
    }

    #[test]
    fn garbage_is_opaque_not_fatal() {
        for junk in [
            "",
            "not json",
            "{\"table\":",
            r#"{"table":"x","attrs":[0]}"#,
            r#"{"table":99999999,"attrs":[0]}"#, // > u16::MAX
            r#"{"table":-3}"#,
            "\u{0}\u{1}\u{2}",
            "{\"attrs\":[0]}",
            "[1,2,3]",
            "{\"a\":\"unterminated",
        ] {
            assert_eq!(classify_line(junk), LineClass::Opaque, "line: {junk:?}");
        }
    }

    #[test]
    fn explicit_map_overrides_defaults() {
        let map =
            ShardMap::new(2, [(0u16, 1u32)].into_iter().collect(), 3).unwrap();
        assert_eq!(map.shard_of(0), 1, "explicit placement wins");
        assert_eq!(map.shard_of(1), 1, "default packing: 1 % 2");
        assert_eq!(map.shard_of(2), 0, "default packing: 2 % 2");
    }

    #[test]
    fn one_shard_per_table_when_shards_cover_tables() {
        let map = ShardMap::new(4, BTreeMap::new(), 3).unwrap();
        for t in 0..3u16 {
            assert_eq!(map.shard_of(t), u32::from(t));
        }
    }

    #[test]
    fn unknown_tables_rendezvous_deterministically() {
        let map = ShardMap::new(3, BTreeMap::new(), 2).unwrap();
        let placed: Vec<u32> = (100u16..120).map(|t| map.shard_of(t)).collect();
        let again: Vec<u32> = (100u16..120).map(|t| map.shard_of(t)).collect();
        assert_eq!(placed, again);
        assert!(placed.iter().all(|&s| s < 3));
        // The hash should actually spread placements around.
        assert!(placed.iter().collect::<std::collections::BTreeSet<_>>().len() > 1);
    }

    #[test]
    fn invalid_maps_are_rejected() {
        assert!(ShardMap::new(0, BTreeMap::new(), 1).is_err());
        assert!(ShardMap::new(2, [(5u16, 2u32)].into_iter().collect(), 1).is_err());
    }

    #[test]
    fn tag_sink_stamps_run_envelopes_only() {
        let sink = VecSink::new();
        let tag = ShardTagSink::new(3, &sink);
        tag.record(TraceEvent::RunStart {
            strategy: "H6".into(),
            queries: 1,
            total_width: 2,
            budget: 10,
            shard: None,
        });
        tag.record(TraceEvent::Epoch {
            epoch: 0,
            policy: "adapt".into(),
            indexes: 1,
            workload_cost: 1.0,
            reconfig_paid: 0.0,
        });
        let events = sink.take();
        match &events[0] {
            TraceEvent::RunStart { shard, .. } => assert_eq!(*shard, Some(3)),
            other => panic!("expected RunStart, got {other:?}"),
        }
        assert!(matches!(&events[1], TraceEvent::Epoch { .. }));
    }
}
