//! `event::parse_line` — the hot path every JSONL event takes — against
//! a deliberately naive statement of its semantics: parse the whole line
//! into a `serde_json::Value` tree, look each field up with
//! `Value::get_field` (first match), convert it with `as_u64`/`as_f64`,
//! then run the same validation. The generated lines cover events,
//! observed-cost probes and every control; whitespace; reordered,
//! unknown and duplicated keys (a second copy badly typed included);
//! `null`s; integral, negative, exponent and overflowing numbers;
//! escapes in keys and values; non-object documents, truncations and
//! flipped bytes. Only acceptance is compared (`Ok(InputLine)` or
//! `Err`), not the error text.

use isel_service::event::ObservedEvent;
use isel_service::{parse_line, Control, InputLine};
use isel_workload::{AttrId, Query, QueryKind, Schema, SchemaBuilder, TableId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Three tables: t0 = a0..a3, t1 = a4..a6, t2 = a7.
fn schema() -> Schema {
    let mut b = SchemaBuilder::new();
    for (t, attrs) in [(0, 4), (1, 3), (2, 1)] {
        let table = b.table(&format!("t{t}"), 10_000);
        for i in 0..attrs {
            b.attribute(table, &format!("t{t}a{i}"), 100, 4);
        }
    }
    b.finish()
}

/// The oracle: `parse_line` as the value-tree deserializer defined it.
fn naive_parse_line(line: &str, schema: &Schema) -> Result<InputLine, ()> {
    let doc = serde_json::parse_value(line).map_err(drop)?;
    // `Option<T>`: an absent key and `null` are `None`; anything else
    // must convert, or the whole line is rejected.
    let field = |key: &str| doc.get_field(key).filter(|v| !v.is_null());
    let uint = |key: &str, max: u64| {
        field(key)
            .map(|v| v.as_u64().filter(|&n| n <= max).ok_or(()))
            .transpose()
    };
    let ids = |key: &str| {
        field(key)
            .map(|v| {
                v.as_array()
                    .ok_or(())?
                    .iter()
                    .map(|x| x.as_u64().and_then(|n| u32::try_from(n).ok()).ok_or(()))
                    .collect::<Result<Vec<u32>, ()>>()
            })
            .transpose()
    };
    let control = field("control")
        .map(|v| v.as_str().map(str::to_owned).ok_or(()))
        .transpose()?;
    let table = uint("table", u16::MAX.into())?.map(|t| t as u16);
    let attrs = ids("attrs")?;
    let frequency = uint("frequency", u64::MAX)?;
    let kind = field("kind")
        .map(|v| match v.as_str() {
            Some("Select") => Ok(QueryKind::Select),
            Some("Update") => Ok(QueryKind::Update),
            _ => Err(()),
        })
        .transpose()?;
    let budget = uint("budget", u64::MAX)?;
    let table_group = uint("table_group", u16::MAX.into())?.map(|t| t as u16);
    let observed_cost = field("observed_cost")
        .map(|v| v.as_f64().ok_or(()))
        .transpose()?;
    let index = ids("index")?;

    let tables = schema.tables().len();
    if let Some(c) = control {
        let control = match c.as_str() {
            "shutdown" => Control::Shutdown,
            "checkpoint" => Control::Checkpoint,
            "status" => Control::Status,
            "whatif" => Control::Whatif {
                budget: budget.ok_or(())?,
            },
            "tenant" => {
                let table = table_group.ok_or(())?;
                if usize::from(table) >= tables {
                    return Err(());
                }
                Control::Tenant {
                    table,
                    budget: budget.ok_or(())?,
                }
            }
            "budget" => Control::Budget {
                budget: budget.ok_or(())?,
            },
            "calibration" => Control::Calibration,
            _ => return Err(()),
        };
        return Ok(InputLine::Control(control));
    }
    let (table, attrs) = (table.ok_or(())?, attrs.ok_or(())?);
    let frequency = frequency.unwrap_or(1);
    if usize::from(table) >= tables || attrs.is_empty() || frequency == 0 {
        return Err(());
    }
    let table = TableId(table);
    let checked = |ids: Vec<u32>| -> Result<Vec<AttrId>, ()> {
        ids.into_iter()
            .map(|a| {
                let ok = (a as usize) < schema.attr_count()
                    && schema.attribute(AttrId(a)).table == table;
                ok.then_some(AttrId(a)).ok_or(())
            })
            .collect()
    };
    let attrs = checked(attrs)?;
    let kind = kind.unwrap_or_default();
    if let Some(cost) = observed_cost {
        if !cost.is_finite() {
            return Err(());
        }
        let index = match index {
            Some(ix) if ix.is_empty() => return Err(()),
            Some(ix) => Some(checked(ix)?),
            None => None,
        };
        let query = Query::with_kind(table, attrs, 1, kind);
        return Ok(InputLine::Observed(ObservedEvent { query, index, cost }));
    }
    Ok(InputLine::Query(Query::with_kind(
        table, attrs, frequency, kind,
    )))
}

/// What the generator did to a line, for the corpus counts.
#[derive(Default)]
struct Made {
    duplicate: bool,
}

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len() as u64) as usize]
}

/// An integer in one of the spellings the tree path reads as `n`:
/// plain, `n.0`, an exponent, leading zeros, `-0`.
fn int(rng: &mut StdRng, n: u64) -> String {
    match rng.gen_range(0..10) {
        0 => format!("{n}.0"),
        1 => format!("{n}e0"),
        2 => format!("{n}0E-1"),
        3 => format!("0{n}"),
        4 if n == 0 => "-0".to_owned(),
        _ => n.to_string(),
    }
}

/// A value for a `u16`/`u64` field: mostly in range, sometimes negative,
/// fractional, overflowing or of the wrong type.
fn uint(rng: &mut StdRng, small: u64, wide: bool) -> String {
    match rng.gen_range(0..14) {
        0 => "-1".to_owned(),
        1 => "2.5".to_owned(),
        2 if wide => "18446744073709551616".to_owned(), // saturates to u64::MAX
        2 => "65536".to_owned(),
        3 => "1e20".to_owned(),
        4 => pick(rng, &["\"1\"", "true", "[1]", "{}"]).to_owned(),
        5 if wide => int(rng, u64::MAX),
        _ => {
            let n = rng.gen_range(0..small);
            int(rng, n)
        }
    }
}

/// An attribute list, mostly of `table`'s own attributes.
fn attrs(rng: &mut StdRng, table: u64) -> String {
    let (first, count): (u64, u64) = [(0, 4), (4, 3), (7, 1), (0, 8)][table.min(3) as usize];
    let len = if rng.gen_range(0..10) == 0 {
        0
    } else {
        rng.gen_range(1..4)
    };
    let items: Vec<String> = (0..len)
        .map(|_| match rng.gen_range(0..16) {
            0 => "99".to_owned(),
            1 => rng.gen_range(0..8u64).to_string(),
            2 => "-3".to_owned(),
            3 => "4294967296".to_owned(),
            4 => "null".to_owned(),
            _ => {
                let a = first + rng.gen_range(0..count);
                int(rng, a)
            }
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// A random JSON document for unknown keys and junk duplicates:
/// nested containers, escapes, non-ASCII text.
fn junk(rng: &mut StdRng, depth: u32) -> String {
    match rng.gen_range(0..if depth == 0 { 5 } else { 7 }) {
        0 => pick(rng, &["null", "true", "false"]).to_owned(),
        1 => pick(rng, &["0", "-7", "1.5e3", "18446744073709551616", "-0.0"]).to_owned(),
        2 => pick(
            rng,
            &["\"\"", "\"é\\n\\\"\"", "\"\\ud834\"", "\"\\u0041\\/\""],
        )
        .to_owned(),
        3 | 4 => format!("\"s{}\"", rng.gen_range(0..100)),
        5 => {
            let items: Vec<String> = (0..rng.gen_range(0..4))
                .map(|_| junk(rng, depth - 1))
                .collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let entries: Vec<String> = (0..rng.gen_range(0..4))
                .map(|_| format!("\"k{}\":{}", rng.gen_range(0..3), junk(rng, depth - 1)))
                .collect();
            format!("{{{}}}", entries.join(","))
        }
    }
}

/// A key, sometimes spelled with a `\u` escape for one of its letters.
fn key(rng: &mut StdRng, name: &str) -> String {
    if rng.gen_range(0..8) == 0 {
        let i = rng.gen_range(0..name.len() as u64) as usize;
        let (head, tail) = name.split_at(i);
        let mut rest = tail.chars();
        let c = rest.next().unwrap();
        format!("\"{head}\\u{:04x}{}\"", c as u32, rest.as_str())
    } else {
        format!("\"{name}\"")
    }
}

/// A string value, sometimes with an escape in it.
fn string(rng: &mut StdRng, s: &str) -> String {
    if rng.gen_range(0..6) == 0 && !s.is_empty() {
        format!(
            "\"{}\\u{:04X}\"",
            &s[..s.len() - 1],
            s.as_bytes()[s.len() - 1]
        )
    } else {
        format!("\"{s}\"")
    }
}

fn ws(rng: &mut StdRng) -> &'static str {
    match rng.gen_range(0..12) {
        0 => " ",
        1 => "\t",
        2 => "\n ",
        3 => "\r\n",
        _ => "",
    }
}

/// One generated line.
fn gen_line(rng: &mut StdRng) -> (String, Made) {
    let mut made = Made::default();
    let shape = rng.gen_range(0..20);
    if shape == 0 {
        let docs = [
            "42",
            "[{\"table\":0,\"attrs\":[0]}]",
            "\"table\"",
            "null",
            "true",
            "",
            " ",
            "{}",
        ];
        return (pick(rng, &docs).to_owned(), made);
    }
    // (name, value) pairs; names are quoted (and maybe escaped) last.
    let mut entries: Vec<(&str, String)> = Vec::new();
    let table = rng.gen_range(0..4);
    match shape {
        // A query event.
        1..=7 => {
            let t = if rng.gen_range(0..10) == 0 {
                uint(rng, 4, false)
            } else {
                int(rng, table)
            };
            entries.push(("table", t));
            entries.push(("attrs", attrs(rng, table)));
            if rng.gen_bool(0.4) {
                entries.push(("frequency", uint(rng, 9, true)));
            }
            if rng.gen_bool(0.4) {
                let kind = pick(rng, &["Select", "Update", "Update", "select", "Insert"]);
                entries.push(("kind", string(rng, kind)));
            }
        }
        // An observed-cost probe.
        8..=13 => {
            entries.push(("table", int(rng, table)));
            entries.push(("attrs", attrs(rng, table)));
            let cost = pick(
                rng,
                &["12.5", "3", "0.0", "-1.5", "1e3", "1e400", "-0", "\"7\""],
            );
            entries.push(("observed_cost", cost.to_owned()));
            if rng.gen_bool(0.5) {
                entries.push(("index", attrs(rng, table)));
            }
            if rng.gen_bool(0.3) {
                entries.push(("kind", "\"Update\"".to_owned()));
            }
        }
        // A control line.
        _ => {
            let names = [
                "shutdown",
                "checkpoint",
                "status",
                "whatif",
                "tenant",
                "budget",
                "calibration",
                "reboot",
            ];
            let name = pick(rng, &names);
            entries.push(("control", string(rng, name)));
            if rng.gen_bool(0.7) {
                entries.push(("budget", uint(rng, 1 << 20, true)));
            }
            if rng.gen_bool(0.5) {
                entries.push(("table_group", uint(rng, 4, false)));
            }
            if rng.gen_bool(0.3) {
                entries.push(("token", uint(rng, 100, true)));
            }
            if rng.gen_bool(0.2) {
                entries.push(("table", int(rng, table)));
                entries.push(("attrs", attrs(rng, table)));
            }
        }
    }
    if rng.gen_bool(0.1) {
        let i = rng.gen_range(0..entries.len() as u64) as usize;
        entries[i].1 = "null".to_owned();
    }
    if rng.gen_bool(0.25) {
        let name = pick(rng, &["x", "conn", "seq", "TABLE", "attrs_", "kinds"]);
        entries.push((name, junk(rng, 3)));
    }
    if rng.gen_bool(0.3) {
        made.duplicate = true;
        let i = rng.gen_range(0..entries.len() as u64) as usize;
        let value = match rng.gen_range(0..3) {
            0 => entries[i].1.clone(),
            1 => junk(rng, 2),
            _ => pick(rng, &["\"bad\"", "-1", "[\"x\"]", "{\"a\":1}", "1.5"]).to_owned(),
        };
        let at = rng.gen_range(i as u64 + 1..entries.len() as u64 + 1) as usize;
        entries.insert(at, (entries[i].0, value));
    }
    if rng.gen_bool(0.3) {
        // Shuffle by repeated swaps (a duplicate may now come first).
        for _ in 0..entries.len() {
            let a = rng.gen_range(0..entries.len() as u64) as usize;
            let b = rng.gen_range(0..entries.len() as u64) as usize;
            entries.swap(a, b);
        }
    }
    let mut line = String::from(ws(rng));
    line.push('{');
    for (i, (name, value)) in entries.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line += ws(rng);
        line += &key(rng, name);
        line += ws(rng);
        line.push(':');
        line += ws(rng);
        line += value;
        line += ws(rng);
    }
    line.push('}');
    line += ws(rng);
    if rng.gen_range(0..30) == 0 {
        line += pick(rng, &["x", "}", "{}", "0"]);
    }
    let mut chars: Vec<char> = line.chars().collect();
    if rng.gen_range(0..15) == 0 {
        chars.truncate(rng.gen_range(0..chars.len() as u64) as usize);
    }
    if rng.gen_range(0..15) == 0 && !chars.is_empty() {
        for _ in 0..rng.gen_range(1..3) {
            let i = rng.gen_range(0..chars.len() as u64) as usize;
            chars[i] = char::from(rng.gen_range(0x20..0x7f) as u8);
        }
    }
    (chars.into_iter().collect(), made)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn parse_line_matches_the_value_tree_oracle(seed in 0u64..u64::MAX) {
        let schema = schema();
        let (line, _) = gen_line(&mut StdRng::seed_from_u64(seed));
        let got = parse_line(&line, &schema).map_err(drop);
        let want = naive_parse_line(&line, &schema);
        prop_assert!(got == want, "line {:?}: {:?} vs the oracle's {:?}", line, got, want);
    }
}

/// The generator reaches every outcome often enough that the
/// comparison above is not vacuous.
#[test]
fn the_oracle_corpus_covers_every_outcome() {
    let schema = schema();
    let (mut duplicates, mut rejected, mut queries, mut observed, mut controls) = (0, 0, 0, 0, 0);
    let mut duplicate_accepted = 0;
    for seed in 0..4096 {
        let (line, made) = gen_line(&mut StdRng::seed_from_u64(seed));
        let got = naive_parse_line(&line, &schema);
        assert_eq!(
            parse_line(&line, &schema).map_err(drop),
            got,
            "line {line:?}"
        );
        duplicates += usize::from(made.duplicate);
        duplicate_accepted += usize::from(made.duplicate && got.is_ok());
        match got {
            Ok(InputLine::Query(_)) => queries += 1,
            Ok(InputLine::Observed(_)) => observed += 1,
            Ok(InputLine::Control(_)) => controls += 1,
            Err(()) => rejected += 1,
        }
    }
    for (what, n) in [
        ("duplicate-key lines", duplicates),
        ("accepted duplicate-key lines", duplicate_accepted),
        ("rejected lines", rejected),
        ("query events", queries),
        ("observed-cost probes", observed),
        ("controls", controls),
    ] {
        assert!(n >= 100, "only {n} {what}");
    }
}

#[test]
fn the_oracle_pins_the_tree_path_edge_cases() {
    let schema = schema();
    let accepted = [
        // Integral floats, exponents and `-0` are valid integers.
        r#"{"table":1.0,"attrs":[4e0,50E-1]}"#,
        r#"{"table":0,"attrs":[-0,-0e1]}"#,
        // An over-long integer saturates to u64::MAX.
        r#"{"table":0,"attrs":[0],"frequency":18446744073709551616}"#,
        // The first occurrence wins; the second is never type-checked.
        r#"{"table":0,"attrs":[0],"table":"zero"}"#,
        r#"{"control":"whatif","budget":5,"budget":-1}"#,
        // Escaped keys and values, a lone surrogate in an unknown key.
        r#"{"t\u0061ble":0,"attrs":[1],"kind":"Upd\u0061te","\ud800":[{}]}"#,
        r#"{"control":"st\u0061tus"}"#,
        // Unknown keys are ignored.
        r#"{"x":{"y":[1,{"z":null}]},"table":2,"attrs":[7]}"#,
    ];
    for line in accepted {
        let got = parse_line(line, &schema);
        assert!(got.is_ok(), "{line}: {got:?}");
        assert_eq!(got.map_err(drop), naive_parse_line(line, &schema), "{line}");
    }
    let rejected = [
        "42",
        "[1]",
        r#"{"table":0,"attrs":[0]} x"#,
        r#"{"table":0,"attrs":[0],"table":}"#,
        r#"{"table":0.5,"attrs":[0]}"#,
        r#"{"table":65536,"attrs":[0]}"#,
        r#"{"table":0,"attrs":[0],"frequency":1e20}"#,
        r#"{"table":0,"attrs":[0],"kind":"select"}"#,
        r#"{"table":0,"attrs":[0],"x":[1,]}"#,
        r#"{"table":0,"attrs":[0],"x":"\q"}"#,
    ];
    for line in rejected {
        assert!(parse_line(line, &schema).is_err(), "accepted {line}");
        assert!(
            naive_parse_line(line, &schema).is_err(),
            "oracle accepted {line}"
        );
    }
    let Ok(InputLine::Query(q)) = parse_line(
        r#"{"table":0,"attrs":[0],"frequency":18446744073709551616}"#,
        &schema,
    ) else {
        panic!("saturating frequency")
    };
    assert_eq!(q.frequency(), u64::MAX);
}
