//! JSONL ingestion events.
//!
//! One line per event. Query events reuse the workload serde vocabulary
//! (`{"table":T,"attrs":[..],"frequency":B,"kind":"Select"|"Update"}`,
//! with `frequency` defaulting to 1 and `kind` to `Select`), so a
//! recorded log is readable by the same tooling as a workload file.
//! Control lines are `{"control":"shutdown"}`,
//! `{"control":"checkpoint"}` and `{"control":"status"}`, plus the
//! interactive arbitration queries `{"control":"whatif","budget":B}`
//! and `{"control":"tenant","table_group":T,"budget":B}` answered from
//! the maintained frontier state (see `crate::arbiter`), and the
//! mutating `{"control":"budget","budget":B}` re-anchoring that state
//! at a new global budget. Any control
//! line may additionally carry a `"token":N` field — a socket-serving
//! implementation detail routing the reply back to the issuing
//! connection ([`parse_token`]); parsing ignores it.
//!
//! Parsing validates against the schema: unknown tables, out-of-range or
//! cross-table attributes, empty attribute lists and zero frequencies are
//! rejected with a message — the daemon counts such lines as *invalid*
//! and keeps going; a malformed event must never kill the service.

use isel_workload::{AttrId, Query, QueryKind, Schema, TableId};
use serde::Deserialize;

/// Out-of-band command embedded in the event stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Control {
    /// Stop ingesting, drain the queue, write a final checkpoint.
    Shutdown,
    /// Write a checkpoint now (ordered with the surrounding events).
    Checkpoint,
    /// Emit the aggregated status line (out of band: never queued, so it
    /// does not perturb replay determinism).
    Status,
    /// Interactive query: what would every group be allocated at global
    /// budget `budget`? Answered from the maintained frontiers without
    /// re-running selection.
    Whatif {
        /// Hypothetical global memory budget in bytes.
        budget: u64,
    },
    /// Interactive query: what does table group `table` get at global
    /// budget `budget`?
    Tenant {
        /// Table group being asked about.
        table: u16,
        /// Hypothetical global memory budget in bytes.
        budget: u64,
    },
    /// Re-anchor the maintained global-budget merge at `budget` bytes:
    /// unlike [`Control::Whatif`] this *mutates* the arbiter — the
    /// maintained merge re-materializes every group's selection under
    /// the new budget and all later answers use it.
    Budget {
        /// New global memory budget in bytes.
        budget: u64,
    },
    /// Interactive query: the calibration subsystem's counters (probes
    /// ingested, ratio histogram, deployment-gate accounting). Answered
    /// in stream order like [`Control::Whatif`] so served and offline
    /// replays render byte-identical tables (see `crate::feedback`).
    Calibration,
}

/// One observed-cost probe: the measured execution cost of a template
/// (optionally under a specific index), as produced by `dbsim::measure`
/// or live instrumentation. `query` carries the validated template
/// identity; its frequency is meaningless here and fixed at 1.
#[derive(Clone, Debug, PartialEq)]
pub struct ObservedEvent {
    /// The template the cost was observed for.
    pub query: Query,
    /// The index the execution used (`None` = sequential scan).
    pub index: Option<Vec<AttrId>>,
    /// Measured execution cost. Always finite coming out of the parser
    /// (JSON has no NaN); non-positive values are accepted here and
    /// rejected — counted — by the feedback tracker.
    pub cost: f64,
}

/// One successfully parsed input line. `Q` is how the query is held:
/// owned as [`parse_line`] builds it, or borrowed from the
/// [`crate::records::DecodeDict`] that remembers the line.
#[derive(Clone, Debug, PartialEq)]
pub enum InputLine<Q = Query> {
    /// A validated query event.
    Query(Q),
    /// A validated observed-cost probe.
    Observed(ObservedEvent),
    /// A control command.
    Control(Control),
}

/// Superset of all line shapes; which fields are present decides the
/// interpretation (a `control` key wins).
#[derive(Deserialize)]
struct RawLine {
    control: Option<String>,
    table: Option<u16>,
    attrs: Option<Vec<u32>>,
    frequency: Option<u64>,
    kind: Option<QueryKind>,
    budget: Option<u64>,
    table_group: Option<u16>,
    observed_cost: Option<f64>,
    index: Option<Vec<u32>>,
}

/// Parse and validate one JSONL line against `schema`.
pub fn parse_line(line: &str, schema: &Schema) -> Result<InputLine, String> {
    let raw: RawLine = serde_json::from_str(line).map_err(|e| format!("bad JSON: {e}"))?;
    if let Some(c) = raw.control {
        return match c.as_str() {
            "shutdown" => Ok(InputLine::Control(Control::Shutdown)),
            "checkpoint" => Ok(InputLine::Control(Control::Checkpoint)),
            "status" => Ok(InputLine::Control(Control::Status)),
            "whatif" => {
                let budget = raw.budget.ok_or("whatif requires \"budget\"")?;
                Ok(InputLine::Control(Control::Whatif { budget }))
            }
            "tenant" => {
                let table = raw.table_group.ok_or("tenant requires \"table_group\"")?;
                if table as usize >= schema.tables().len() {
                    return Err(format!("unknown table group t{table}"));
                }
                let budget = raw.budget.ok_or("tenant requires \"budget\"")?;
                Ok(InputLine::Control(Control::Tenant { table, budget }))
            }
            "budget" => {
                let budget = raw.budget.ok_or("budget requires \"budget\"")?;
                Ok(InputLine::Control(Control::Budget { budget }))
            }
            "calibration" => Ok(InputLine::Control(Control::Calibration)),
            other => Err(format!("unknown control command {other:?}")),
        };
    }
    let table = raw.table.ok_or("missing \"table\"")?;
    let attrs = raw.attrs.ok_or("missing \"attrs\"")?;
    if table as usize >= schema.tables().len() {
        return Err(format!("unknown table t{table}"));
    }
    if attrs.is_empty() {
        return Err("a query event must access at least one attribute".into());
    }
    let frequency = raw.frequency.unwrap_or(1);
    if frequency == 0 {
        return Err("frequency must be positive".into());
    }
    let table = TableId(table);
    for &a in &attrs {
        if a as usize >= schema.attr_count() {
            return Err(format!("unknown attribute a{a}"));
        }
        if schema.attribute(AttrId(a)).table != table {
            return Err(format!("attribute a{a} does not belong to {table}"));
        }
    }
    let attrs: Vec<AttrId> = attrs.into_iter().map(AttrId).collect();
    if let Some(cost) = raw.observed_cost {
        if !cost.is_finite() {
            return Err("observed_cost must be finite".into());
        }
        let query = Query::with_kind(table, attrs, 1, raw.kind.unwrap_or_default());
        let index = match raw.index {
            None => None,
            Some(ix) => {
                if ix.is_empty() {
                    return Err("an observed index needs at least one attribute".into());
                }
                for &a in &ix {
                    if a as usize >= schema.attr_count() {
                        return Err(format!("unknown attribute a{a}"));
                    }
                    if schema.attribute(AttrId(a)).table != table {
                        return Err(format!("attribute a{a} does not belong to {table}"));
                    }
                }
                Some(ix.into_iter().map(AttrId).collect())
            }
        };
        return Ok(InputLine::Observed(ObservedEvent { query, index, cost }));
    }
    Ok(InputLine::Query(Query::with_kind(
        table,
        attrs,
        frequency,
        raw.kind.unwrap_or_default(),
    )))
}

/// Extract the `"token":N` reply-routing field of a control line, if
/// present. A separate micro-parse so the hot event path never looks at
/// it; malformed lines simply yield `None` (they are counted invalid
/// downstream as usual).
pub fn parse_token(line: &str) -> Option<u64> {
    #[derive(Deserialize)]
    struct TokenOnly {
        token: Option<u64>,
    }
    serde_json::from_str::<TokenOnly>(line).ok()?.token
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_workload::SchemaBuilder;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        let t0 = b.table("t0", 1_000);
        b.attribute(t0, "a", 10, 4);
        b.attribute(t0, "b", 10, 4);
        let t1 = b.table("t1", 1_000);
        b.attribute(t1, "c", 10, 4);
        b.finish()
    }

    #[test]
    fn parses_minimal_query_event() {
        let line = r#"{"table":0,"attrs":[1,0]}"#;
        match parse_line(line, &schema()).unwrap() {
            InputLine::Query(q) => {
                assert_eq!(q.table(), TableId(0));
                assert_eq!(q.attrs(), &[AttrId(0), AttrId(1)]);
                assert_eq!(q.frequency(), 1);
                assert_eq!(q.kind(), QueryKind::Select);
            }
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn parses_full_query_event() {
        let line = r#"{"table":1,"attrs":[2],"frequency":7,"kind":"Update"}"#;
        match parse_line(line, &schema()).unwrap() {
            InputLine::Query(q) => {
                assert_eq!(q.frequency(), 7);
                assert!(q.is_update());
            }
            other => panic!("expected query, got {other:?}"),
        }
    }

    #[test]
    fn parses_control_lines() {
        let s = schema();
        assert_eq!(
            parse_line(r#"{"control":"shutdown"}"#, &s).unwrap(),
            InputLine::Control(Control::Shutdown)
        );
        assert_eq!(
            parse_line(r#"{"control":"checkpoint"}"#, &s).unwrap(),
            InputLine::Control(Control::Checkpoint)
        );
        assert_eq!(
            parse_line(r#"{"control":"status"}"#, &s).unwrap(),
            InputLine::Control(Control::Status)
        );
        assert!(parse_line(r#"{"control":"reboot"}"#, &s).is_err());
    }

    #[test]
    fn parses_interactive_queries() {
        let s = schema();
        assert_eq!(
            parse_line(r#"{"control":"whatif","budget":4096}"#, &s).unwrap(),
            InputLine::Control(Control::Whatif { budget: 4096 })
        );
        assert_eq!(
            parse_line(r#"{"control":"tenant","table_group":1,"budget":512}"#, &s).unwrap(),
            InputLine::Control(Control::Tenant { table: 1, budget: 512 })
        );
        // A reply-routing token is tolerated and ignored by the parser.
        assert_eq!(
            parse_line(r#"{"control":"whatif","budget":7,"token":3}"#, &s).unwrap(),
            InputLine::Control(Control::Whatif { budget: 7 })
        );
        assert_eq!(
            parse_line(r#"{"control":"budget","budget":2048}"#, &s).unwrap(),
            InputLine::Control(Control::Budget { budget: 2048 })
        );
        assert!(parse_line(r#"{"control":"whatif"}"#, &s).is_err(), "budget required");
        assert!(parse_line(r#"{"control":"budget"}"#, &s).is_err(), "budget field required");
        assert!(parse_line(r#"{"control":"tenant","budget":1}"#, &s).is_err());
        assert!(
            parse_line(r#"{"control":"tenant","table_group":9,"budget":1}"#, &s).is_err(),
            "unknown group rejected"
        );
    }

    #[test]
    fn parses_observed_cost_events() {
        let s = schema();
        match parse_line(r#"{"table":0,"attrs":[1,0],"observed_cost":12.5}"#, &s).unwrap() {
            InputLine::Observed(o) => {
                assert_eq!(o.query.table(), TableId(0));
                assert_eq!(o.query.attrs(), &[AttrId(0), AttrId(1)]);
                assert_eq!(o.cost, 12.5);
                assert_eq!(o.index, None);
            }
            other => panic!("expected observed, got {other:?}"),
        }
        match parse_line(
            r#"{"table":0,"attrs":[0],"kind":"Update","observed_cost":3.0,"index":[0,1]}"#,
            &s,
        )
        .unwrap()
        {
            InputLine::Observed(o) => {
                assert!(o.query.is_update());
                assert_eq!(o.index, Some(vec![AttrId(0), AttrId(1)]));
            }
            other => panic!("expected observed, got {other:?}"),
        }
        // Non-positive costs parse (the tracker counts them rejected).
        assert!(matches!(
            parse_line(r#"{"table":0,"attrs":[0],"observed_cost":0.0}"#, &s).unwrap(),
            InputLine::Observed(_)
        ));
        // Schema violations in the index are rejected like query attrs.
        for bad in [
            r#"{"table":0,"attrs":[0],"observed_cost":1.0,"index":[]}"#,
            r#"{"table":0,"attrs":[0],"observed_cost":1.0,"index":[99]}"#,
            r#"{"table":0,"attrs":[0],"observed_cost":1.0,"index":[2]}"#,
            r#"{"table":9,"attrs":[0],"observed_cost":1.0}"#,
        ] {
            assert!(parse_line(bad, &s).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn parses_calibration_control() {
        assert_eq!(
            parse_line(r#"{"control":"calibration"}"#, &schema()).unwrap(),
            InputLine::Control(Control::Calibration)
        );
    }

    #[test]
    fn token_micro_parse_is_lenient() {
        assert_eq!(parse_token(r#"{"control":"whatif","budget":7,"token":3}"#), Some(3));
        assert_eq!(parse_token(r#"{"control":"status"}"#), None);
        assert_eq!(parse_token("not json"), None);
    }

    #[test]
    fn rejects_schema_violations() {
        let s = schema();
        for bad in [
            r#"{"table":9,"attrs":[0]}"#,           // unknown table
            r#"{"table":0,"attrs":[]}"#,            // empty attrs
            r#"{"table":0,"attrs":[99]}"#,          // unknown attribute
            r#"{"table":0,"attrs":[2]}"#,           // cross-table attribute
            r#"{"table":0,"attrs":[0],"frequency":0}"#, // zero frequency
            r#"{"attrs":[0]}"#,                     // missing table
            r#"not json"#,
        ] {
            assert!(parse_line(bad, &s).is_err(), "accepted {bad}");
        }
    }
}
