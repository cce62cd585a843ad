//! Parsers for what the `isel` CLI prints and writes.

use serde_json::Value;

/// The counters line every service command ends its epoch list with:
/// `ingested N\tinvalid N\tdropped N\tqueue high-water N\tcheckpoints N`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Valid events ingested.
    pub ingested: u64,
    /// Invalid input records.
    pub invalid: u64,
    /// Events shed by the overload policy.
    pub dropped: u64,
    /// Highest queue fill level seen.
    pub queue_high_water: u64,
    /// Checkpoint generations committed.
    pub checkpoints: u64,
}

/// Parse the counters line out of a service command's stdout.
///
/// # Errors
///
/// Returns a message when the line is missing or malformed.
pub fn service_counters(stdout: &str) -> Result<ServiceCounters, String> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("ingested "))
        .ok_or("no `ingested ...` line in the service output")?;
    let field = |name: &str| -> Result<u64, String> {
        line.split('\t')
            .find_map(|f| f.strip_prefix(name)?.strip_prefix(' '))
            .ok_or_else(|| format!("no `{name}` field in {line:?}"))?
            .parse()
            .map_err(|e| format!("bad `{name}` field in {line:?}: {e}"))
    };
    Ok(ServiceCounters {
        ingested: field("ingested")?,
        invalid: field("invalid")?,
        dropped: field("dropped")?,
        queue_high_water: field("queue high-water")?,
        checkpoints: field("checkpoints")?,
    })
}

/// The part of a service command's stdout that must repeat byte for
/// byte: the epoch lines, the counters and the final selection. The
/// queue high-water mark depends on thread timing and is cut out.
pub fn normalise_service(stdout: &str) -> String {
    let mut out = String::with_capacity(stdout.len());
    for line in stdout.lines() {
        if line.starts_with("ingested ") {
            let kept: Vec<&str> = line
                .split('\t')
                .filter(|f| !f.starts_with("queue high-water "))
                .collect();
            out.push_str(&kept.join("\t"));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// The selection-bearing part of a service command's stdout alone
/// (epoch lines and the final selection), for comparing runs whose
/// counters legitimately differ in shape — in-process replay against
/// the supervised pipeline.
pub fn selection_lines(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.starts_with("ingested "))
        .fold(String::new(), |mut s, l| {
            s.push_str(l);
            s.push('\n');
            s
        })
}

/// `isel recommend --json` output with the wall-clock field removed,
/// so that two runs over the same workload compare byte for byte.
///
/// # Errors
///
/// Returns a message when the field is not where the CLI writes it.
pub fn normalise_recommendation(stdout: &str) -> Result<String, String> {
    const KEY: &str = "\"elapsed_secs\":";
    let start = stdout
        .find(KEY)
        .ok_or("no elapsed_secs field in the recommendation")?;
    let rest = &stdout[start + KEY.len()..];
    let len = rest
        .find([',', '}'])
        .ok_or("unterminated elapsed_secs field")?;
    let skip = if rest[len..].starts_with(',') {
        len + 1
    } else {
        len
    };
    Ok(format!("{}{}", &stdout[..start], &rest[skip..]))
}

/// What `bench` reads out of a `recommend --json` document.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// Selected indexes.
    pub indexes: usize,
    /// Cost under the selection over cost with no index.
    pub relative_cost: f64,
}

/// Parse a `recommend --json` document.
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field.
pub fn recommendation(stdout: &str) -> Result<Recommendation, String> {
    let v = serde_json::parse_value(stdout.trim()).map_err(|e| format!("recommendation: {e}"))?;
    Ok(Recommendation {
        indexes: v
            .get("indexes")
            .and_then(Value::as_array)
            .ok_or("recommendation: no indexes")?
            .len(),
        relative_cost: v
            .get("relative_cost")
            .and_then(Value::as_f64)
            .ok_or("recommendation: no relative_cost")?,
    })
}

/// Totals over what `isel report --trace FILE` prints: one section per
/// Algorithm-1 run, each followed by the epochs and re-merges up to the
/// next run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReportTotals {
    /// Algorithm-1 runs, i.e. epochs whose policy re-selected.
    pub runs: u64,
    /// `Epoch` events.
    pub epochs: u64,
    /// Arbiter re-merges.
    pub merges: u64,
    /// What-if calls issued over all runs.
    pub whatif_issued: u64,
    /// What-if requests answered from cache over all runs.
    pub whatif_cached: u64,
    /// Candidate scans timed over all runs.
    pub scans: u64,
    /// Their total time, µs (samples × mean, section by section).
    pub scan_micros: f64,
}

/// The number written before `word` in `line` (`35 issued`, `4 samples,`).
fn number_before(line: &str, word: &str) -> Option<u64> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    tokens
        .windows(2)
        .find(|w| w[1].trim_end_matches(',') == word)
        .and_then(|w| w[0].parse().ok())
}

/// Total the sections of an `isel report --trace` listing.
///
/// # Errors
///
/// Returns the line whose numbers are not where the CLI writes them.
pub fn report_totals(stdout: &str) -> Result<ReportTotals, String> {
    let mut t = ReportTotals::default();
    for line in stdout.lines() {
        let bad = || format!("report: cannot read {line:?}");
        if line.starts_with("run totals:") {
            t.runs += 1;
            t.whatif_issued += number_before(line, "issued").ok_or_else(bad)?;
            t.whatif_cached += number_before(line, "cached").ok_or_else(bad)?;
        } else if let Some(rest) = line.strip_prefix("scan timing:") {
            let samples = number_before(rest, "samples").ok_or_else(bad)?;
            let mean: f64 = rest
                .rsplit_once("mean ")
                .and_then(|(_, m)| m.trim_end_matches("us").parse().ok())
                .ok_or_else(bad)?;
            t.scans += samples;
            t.scan_micros += samples as f64 * mean;
        } else if let Some(n) = line.strip_prefix("epochs: ") {
            t.epochs += n.parse::<u64>().map_err(|_| bad())?;
        } else if let Some(n) = line.strip_prefix("merges: ") {
            t.merges += n.parse::<u64>().map_err(|_| bad())?;
        }
    }
    Ok(t)
}

/// The template count out of `isel generate`'s one line of output:
/// `wrote erp workload: 500 tables, 4204 attributes, 2271 templates -> F`.
///
/// # Errors
///
/// Returns a message when the line does not have that shape.
pub fn generated_templates(stdout: &str) -> Result<u64, String> {
    number_before(stdout, "templates")
        .ok_or_else(|| format!("generate: no template count in {:?}", stdout.trim()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPLAY: &str =
        "epoch 0\ttable 7\tadapt\toverlap -\t1 indexes\tcost 1.3e12\treconfig 0.0e0\n\
        ingested 4000\tinvalid 1\tdropped 2\tqueue high-water 4096\tcheckpoints 3\n\
        final selection (1 indexes):\n  ORDERS(O_W_ID, O_D_ID)\n";

    #[test]
    fn counters_line_parses_every_field() {
        assert_eq!(
            service_counters(REPLAY).unwrap(),
            ServiceCounters {
                ingested: 4000,
                invalid: 1,
                dropped: 2,
                queue_high_water: 4096,
                checkpoints: 3
            }
        );
        assert!(service_counters("final selection (0 indexes):\n").is_err());
        assert!(service_counters("ingested x\tinvalid 0\n").is_err());
    }

    #[test]
    fn normalising_drops_only_the_high_water_mark() {
        let a = normalise_service(REPLAY);
        let b = normalise_service(&REPLAY.replace("high-water 4096", "high-water 17"));
        assert_eq!(a, b);
        assert!(a.contains("ingested 4000\tinvalid 1\tdropped 2\tcheckpoints 3\n"));
        assert!(a.contains("  ORDERS(O_W_ID, O_D_ID)\n"));
        assert_ne!(
            a,
            normalise_service(&REPLAY.replace("dropped 2", "dropped 0"))
        );
        assert!(!selection_lines(REPLAY).contains("ingested"));
        assert!(selection_lines(REPLAY).starts_with("epoch 0\t"));
    }

    #[test]
    fn recommendation_loses_its_clock_and_keeps_the_rest() {
        let doc = |secs: &str| {
            format!(
                "{{\"strategy\":\"H6\",\"relative_cost\":0.25,\"what_if_calls\":12,\
                 \"what_if_cached\":30,\"elapsed_secs\":{secs},\"indexes\":[[1],[2,3]]}}\n"
            )
        };
        let a = normalise_recommendation(&doc("0.77")).unwrap();
        assert_eq!(a, normalise_recommendation(&doc("1.5e-3")).unwrap());
        assert!(a.contains("\"what_if_cached\":30,\"indexes\""));
        assert!(normalise_recommendation("{}").is_err());
        let r = recommendation(&doc("0.77")).unwrap();
        assert_eq!(r.indexes, 2);
        assert_eq!(r.relative_cost, 0.25);
        assert!(recommendation("{\"relative_cost\":0.5}").is_err());
    }

    #[test]
    fn report_sections_are_totalled() {
        let text = "== run 1 / 2: H6 ==\n\
            run: H6  queries=5  Q·q̄=14  budget=2744625000 bytes\n\
            steps: 2 add / 0 morph / 0 prune over 4 candidate scans (1621 candidates scored)\n\
            what-if per scans: 35 issued + 58 cache-answered\n\
            run totals: 2 steps, 35 issued + 58 cached, cost 2.028e11 -> 2.099e6, 0.000s\n\
            scan timing: 4 samples, mean 62us\n  >=         8us  1\n\
            epochs: 6\nmerges: 1\n\
            == run 2 / 2: H6 ==\n\
            run totals: 1 steps, 34 issued + 38 cached, cost 1.367e11 -> 6.456e5, 0.000s\n\
            scan timing: 2 samples, mean 50us\n\
            epochs: 1\n\
            invariants: accounting ok (2 runs), call bound ok (2 H6 runs), deploy accounting ok (0 candidates)\n";
        let t = report_totals(text).unwrap();
        assert_eq!((t.runs, t.epochs, t.merges), (2, 7, 1));
        assert_eq!((t.whatif_issued, t.whatif_cached), (69, 96));
        assert_eq!((t.scans, t.scan_micros), (6, 348.0));
        assert_eq!(report_totals("").unwrap(), ReportTotals::default());
        let err = report_totals("run totals: two steps\n").unwrap_err();
        assert!(err.contains("two steps"), "{err}");
        assert!(report_totals("epochs: many\n").is_err());
    }

    #[test]
    fn generate_reports_its_template_count() {
        let line = "wrote erp workload: 500 tables, 4204 attributes, 2271 templates -> erp.json\n";
        assert_eq!(generated_templates(line).unwrap(), 2271);
        assert!(generated_templates("wrote nothing\n").is_err());
    }
}
