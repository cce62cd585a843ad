//! Journal writing (both encodings), segment rotation, and the
//! lossless `journal convert` transcoder.
//!
//! # Formats
//!
//! A journal is either JSONL (one tagged line per event, the PR 5
//! format) or binary frames (DESIGN.md §14). [`JournalWriter`] hides
//! the difference behind one `write_line` API: in binary mode each
//! incoming line is parsed into its canonical form and encoded as a
//! dictionary-compressed item (one frame per line, so the journal is
//! readable up to the last flush), with non-canonical lines carried as
//! [`WireItem::Raw`] so nothing is ever lost.
//!
//! # Rotation
//!
//! With `max_bytes` set, the journal becomes a *segment manifest* at
//! the configured path plus data segments `<path>.seg-NNNNNN` beside
//! it. The manifest — a single JSON object starting with
//! `{"journal"` so readers can tell it from event data — lists the
//! **closed** segments and is rewritten atomically (tmp + rename) at
//! each rollover, mirroring the checkpoint [`crate::checkpoint::Manifest`]
//! commit discipline. The currently-open segment is by construction
//! `.seg-<len(closed)>`; after a crash, [`read_journal_bytes`] probes
//! for exactly that file and appends its contents, so no acknowledged
//! event is lost even mid-segment. Binary segments share one template
//! dictionary across the whole journal (readers replay segments
//! concatenated, so writer and reader ids must stay aligned).
//!
//! [`WireItem::Raw`]: crate::frame::WireItem::Raw

use crate::frame::{
    parse_canonical, render_control, render_query, CanonicalBody, FrameEncoder, WireItem,
};
use crate::records::{DecodeDict, Record, RecordIter};
use std::fs::File;
use std::io::{BufWriter, Cursor, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Event stream encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFormat {
    /// One JSON object per line (human-readable, the default).
    Jsonl,
    /// Checksummed binary frames with dictionary-compressed events.
    Binary,
}

impl FromStr for WireFormat {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "jsonl" => Ok(Self::Jsonl),
            "binary" => Ok(Self::Binary),
            other => Err(format!("unknown format {other:?} (expected jsonl or binary)")),
        }
    }
}

impl WireFormat {
    /// Name as accepted by `--format`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Jsonl => "jsonl",
            Self::Binary => "binary",
        }
    }
}

/// Where and how a journal is written.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// Journal path (the manifest path when rotation is on).
    pub path: PathBuf,
    /// Encoding of journal entries.
    pub format: WireFormat,
    /// Segment size that triggers rollover; `None` writes one file.
    pub max_bytes: Option<u64>,
}

/// Splice `{"conn":C,"seq":S,` into a JSON object line so the original
/// fields survive verbatim; non-JSON lines pass through unchanged.
/// This is the canonical tag shape both journal encodings reproduce.
pub fn tag_line(conn: u64, seq: u64, line: &str) -> String {
    match line.strip_prefix('{') {
        Some(rest) => {
            let rest = rest.trim_start();
            if rest == "}" {
                format!("{{\"conn\":{conn},\"seq\":{seq}}}")
            } else {
                format!("{{\"conn\":{conn},\"seq\":{seq},{rest}")
            }
        }
        None => line.to_string(),
    }
}

/// Manifest prefix — no event line or binary frame can start with it.
const MANIFEST_PREFIX: &str = "{\"journal\"";

/// Whether `bytes` open with the rotation-manifest prefix — i.e. the
/// file is a segment manifest, not event data in either encoding.
pub fn is_manifest(bytes: &[u8]) -> bool {
    bytes.starts_with(MANIFEST_PREFIX.as_bytes())
}

fn segment_path(base: &Path, index: usize) -> PathBuf {
    let mut name = base.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".seg-{index:06}"));
    base.with_file_name(name)
}

fn manifest_json(format: WireFormat, segments: usize) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "{MANIFEST_PREFIX}:{{\"version\":1,\"format\":\"{}\",\"segments\":[",
        format.name()
    );
    for i in 0..segments {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{i}");
    }
    s.push_str("]}}");
    s
}

/// An append-only event journal in either encoding, with optional
/// segment rotation. Write errors are counted, never propagated — a
/// full disk must not kill the daemon (the same posture as dropped
/// events: visible in counters, not fatal).
pub struct JournalWriter {
    config: JournalConfig,
    out: BufWriter<File>,
    encoder: Option<FrameEncoder>,
    closed_segments: usize,
    seg_bytes: u64,
    errors: u64,
}

impl JournalWriter {
    /// Create the journal (truncating any previous one). With rotation,
    /// writes the initial empty manifest and opens segment 0.
    pub fn create(config: JournalConfig) -> Result<Self, String> {
        let first = if config.max_bytes.is_some() {
            write_manifest(&config.path, config.format, 0)?;
            segment_path(&config.path, 0)
        } else {
            config.path.clone()
        };
        let out = BufWriter::new(
            File::create(&first).map_err(|e| format!("cannot create {}: {e}", first.display()))?,
        );
        let encoder = matches!(config.format, WireFormat::Binary).then(FrameEncoder::new);
        Ok(Self { config, out, encoder, closed_segments: 0, seg_bytes: 0, errors: 0 })
    }

    /// Append one event line tagged with its connection/sequence ids.
    pub fn write_line(&mut self, conn: u64, seq: u64, line: &str) {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        self.roll_if_needed();
        match &mut self.encoder {
            None => {
                let tagged = tag_line(conn, seq, trimmed);
                if writeln!(self.out, "{tagged}").is_err() {
                    self.errors += 1;
                }
                self.seg_bytes += tagged.len() as u64 + 1;
            }
            Some(enc) => {
                match parse_canonical(trimmed) {
                    // Journal tags always win over tags already present
                    // in the line (the JSONL splice has the same
                    // effect: the daemon's ids come first).
                    Some((_, CanonicalBody::Query { table, attrs, frequency, kind })) => {
                        enc.push_tagged_query(conn, seq, table, &attrs, frequency, kind)
                    }
                    Some((_, CanonicalBody::Control(c))) => {
                        enc.push_control(c, Some((conn, seq)))
                    }
                    None => enc.push_raw(tag_line(conn, seq, trimmed).as_bytes()),
                }
                let mut frame = Vec::new();
                enc.flush_into(&mut frame);
                if self.out.write_all(&frame).is_err() {
                    self.errors += 1;
                }
                self.seg_bytes += frame.len() as u64;
            }
        }
    }

    fn roll_if_needed(&mut self) {
        let Some(max) = self.config.max_bytes else { return };
        if self.seg_bytes < max {
            return;
        }
        // Rotation is a commit point: manifest rewrite + new segment.
        // A kill here leaves the just-closed segment as the probe tail.
        if crate::fault::fire(crate::fault::JOURNAL_ROTATE, 0).is_err() {
            self.errors += 1;
        }
        if self.out.flush().is_err() {
            self.errors += 1;
        }
        self.closed_segments += 1;
        if write_manifest(&self.config.path, self.config.format, self.closed_segments).is_err() {
            self.errors += 1;
        }
        let next = segment_path(&self.config.path, self.closed_segments);
        match File::create(&next) {
            Ok(f) => {
                self.out = BufWriter::new(f);
                self.seg_bytes = 0;
                // The template dictionary deliberately carries across
                // segments: a reader replays them concatenated, and its
                // ids must stay aligned with the writer's.
            }
            Err(_) => self.errors += 1,
        }
    }

    /// Count of swallowed write errors (0 on a healthy disk).
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Flush and seal the journal. With rotation, commits the final
    /// segment into the manifest.
    pub fn finish(mut self) -> u64 {
        if self.out.flush().is_err() {
            self.errors += 1;
        }
        if self.config.max_bytes.is_some() && self.seg_bytes > 0 {
            self.closed_segments += 1;
            if write_manifest(&self.config.path, self.config.format, self.closed_segments).is_err()
            {
                self.errors += 1;
            }
        }
        self.errors
    }

    /// Flush data but skip the final manifest commit, leaving the open
    /// segment uncommitted — exactly the on-disk state after a crash
    /// mid-segment. Test hook for the kill/restore suite.
    #[doc(hidden)]
    pub fn abandon(mut self) {
        let _ = self.out.flush();
    }
}

fn write_manifest(path: &Path, format: WireFormat, segments: usize) -> Result<(), String> {
    crate::checkpoint::atomic_write(path, manifest_json(format, segments).as_bytes(), None)
}

#[derive(serde::Deserialize)]
struct ManifestFile {
    journal: ManifestBody,
}

#[derive(serde::Deserialize)]
struct ManifestBody {
    version: u32,
    #[allow(dead_code)]
    format: String,
    segments: Vec<u64>,
}

/// Read a journal back as one contiguous byte stream, resolving a
/// segment manifest if `path` holds one: all committed segments in
/// order, plus the uncommitted tail segment a crash may have left
/// behind. Plain (unrotated) journals are returned as-is.
pub fn read_journal_bytes(path: &Path) -> Result<Vec<u8>, String> {
    let bytes =
        std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if !is_manifest(&bytes) {
        return Ok(bytes);
    }
    let text = std::str::from_utf8(&bytes)
        .map_err(|e| format!("bad journal manifest {}: {e}", path.display()))?;
    let manifest: ManifestFile = serde_json::from_str(text)
        .map_err(|e| format!("bad journal manifest {}: {e}", path.display()))?;
    if manifest.journal.version != 1 {
        return Err(format!(
            "unsupported journal manifest version {}",
            manifest.journal.version
        ));
    }
    let mut all = Vec::new();
    for &i in &manifest.journal.segments {
        let seg = segment_path(path, i as usize);
        let seg_bytes =
            std::fs::read(&seg).map_err(|e| format!("cannot read {}: {e}", seg.display()))?;
        all.extend_from_slice(&seg_bytes);
    }
    // The segment after the last committed one may exist if the writer
    // died mid-segment; its contents were acknowledged, so replay them.
    let tail = segment_path(path, manifest.journal.segments.len());
    if let Ok(seg_bytes) = std::fs::read(&tail) {
        all.extend_from_slice(&seg_bytes);
    }
    Ok(all)
}

/// Transcode an event stream between encodings, losslessly for
/// newline-terminated input. JSONL → binary maps every canonical line
/// to dictionary items and every other line to a raw item; binary →
/// JSONL renders items back to their canonical text. Corrupt binary
/// regions are dropped (they have no faithful text form); conversion
/// needs no schema.
pub fn convert(input: &[u8], to: WireFormat) -> Vec<u8> {
    // Normalize to lines first — this *is* the binary→jsonl direction.
    let mut dict = DecodeDict::new();
    let mut lines: Vec<String> = Vec::new();
    for record in RecordIter::new(Cursor::new(input)) {
        match record {
            Record::Line(l) => lines.push(l),
            Record::Corrupt => {}
            Record::Item(item) => {
                if let Some(line) = render_item(&mut dict, &item, None) {
                    lines.push(line);
                }
            }
        }
    }
    match to {
        WireFormat::Jsonl => {
            let mut out = Vec::new();
            for l in &lines {
                out.extend_from_slice(l.as_bytes());
                out.push(b'\n');
            }
            out
        }
        WireFormat::Binary => {
            let mut enc = FrameEncoder::new();
            let mut out = Vec::new();
            for l in &lines {
                match parse_canonical(l) {
                    Some((tag, CanonicalBody::Query { table, attrs, frequency, kind })) => {
                        match tag {
                            Some((c, s)) => {
                                enc.push_tagged_query(c, s, table, &attrs, frequency, kind)
                            }
                            None => enc.push_query(table, &attrs, frequency, kind),
                        }
                    }
                    Some((tag, CanonicalBody::Control(c))) => enc.push_control(c, tag),
                    None => enc.push_raw(l.as_bytes()),
                }
                enc.auto_flush_into(&mut out);
            }
            enc.flush_into(&mut out);
            out
        }
    }
}

/// Render one decoded item to its canonical line. `Define`s update the
/// dictionary (render-only, no schema involved) and render nothing;
/// events referencing unknown templates render nothing (there is no
/// faithful text form).
pub(crate) fn render_item(
    dict: &mut DecodeDict,
    item: &WireItem,
    tag: Option<(u64, u64)>,
) -> Option<String> {
    match item {
        WireItem::Define { table, kind, attrs } => {
            dict.define_raw(*table, *kind, attrs.clone());
            None
        }
        WireItem::Event { template, frequency } => {
            let (table, attrs, kind) = dict.raw(*template)?;
            Some(render_query(tag, table, attrs, *frequency, kind))
        }
        WireItem::Control(c) => Some(render_control(tag, *c)),
        // Supervisor-pipe frames never belong in a journal; they have
        // no canonical text form.
        WireItem::Sup(_) => None,
        WireItem::Raw(bytes) => Some(String::from_utf8_lossy(bytes).into_owned()),
        WireItem::Tagged { conn, seq, item } => render_item(dict, item, Some((*conn, *seq))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("isel-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    const SAMPLE: &str = "{\"table\":0,\"attrs\":[0,1]}\n\
        {\"table\":0,\"attrs\":[0,1]}\n\
        {\"table\":1,\"attrs\":[2],\"frequency\":9,\"kind\":\"Update\"}\n\
        {\"conn\":1,\"seq\":2,\"table\":0,\"attrs\":[1]}\n\
        not json at all\n\
        {\"control\":\"checkpoint\"}\n\
        {\"table\":0,\"attrs\":[0,1],\"frequency\":2}\n";

    #[test]
    fn convert_round_trips_losslessly() {
        let binary = convert(SAMPLE.as_bytes(), WireFormat::Binary);
        assert!(binary.len() < SAMPLE.len());
        let back = convert(&binary, WireFormat::Jsonl);
        assert_eq!(std::str::from_utf8(&back).unwrap(), SAMPLE);
        // jsonl→jsonl and binary→binary are identities too.
        assert_eq!(convert(SAMPLE.as_bytes(), WireFormat::Jsonl), SAMPLE.as_bytes());
        assert_eq!(convert(&binary, WireFormat::Binary), binary);
    }

    #[test]
    fn convert_compresses_repetitive_streams_hard() {
        let mut input = String::new();
        for _ in 0..1_000 {
            input.push_str("{\"table\":2,\"attrs\":[6,7,8]}\n");
        }
        let binary = convert(input.as_bytes(), WireFormat::Binary);
        assert!(
            binary.len() * 10 <= input.len(),
            "expected ≥10× compression, got {} vs {}",
            binary.len(),
            input.len()
        );
        assert_eq!(convert(&binary, WireFormat::Jsonl), input.as_bytes());
    }

    #[test]
    fn tag_line_splices_like_the_socket_journal() {
        assert_eq!(tag_line(3, 7, "{\"a\":1}"), "{\"conn\":3,\"seq\":7,\"a\":1}");
        assert_eq!(tag_line(3, 7, "{}"), "{\"conn\":3,\"seq\":7}");
        assert_eq!(tag_line(3, 7, "plain"), "plain");
    }

    #[test]
    fn unrotated_journals_match_the_legacy_shape() {
        let path = tmp("plain.jsonl");
        let mut w = JournalWriter::create(JournalConfig {
            path: path.clone(),
            format: WireFormat::Jsonl,
            max_bytes: None,
        })
        .unwrap();
        w.write_line(1, 1, "{\"table\":0,\"attrs\":[0]}");
        w.write_line(1, 2, "garbage");
        assert_eq!(w.finish(), 0);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"conn\":1,\"seq\":1,\"table\":0,\"attrs\":[0]}\ngarbage\n");
    }

    #[test]
    fn rotation_commits_segments_and_survives_abandon() {
        for format in [WireFormat::Jsonl, WireFormat::Binary] {
            let path = tmp(&format!("rot-{}.j", format.name()));
            let mut w = JournalWriter::create(JournalConfig {
                path: path.clone(),
                format,
                max_bytes: Some(64),
            })
            .unwrap();
            let mut reference = Vec::new();
            for seq in 0..20u64 {
                let line = format!("{{\"table\":0,\"attrs\":[{}]}}", seq % 3);
                w.write_line(1, seq + 1, &line);
                reference.push(tag_line(1, seq + 1, &line));
            }
            // Abandon mid-segment: manifest lists only closed segments.
            w.abandon();
            let manifest = std::fs::read_to_string(&path).unwrap();
            assert!(manifest.starts_with(MANIFEST_PREFIX), "{manifest}");
            let bytes = read_journal_bytes(&path).unwrap();
            let text = convert(&bytes, WireFormat::Jsonl);
            let got: Vec<String> =
                std::str::from_utf8(&text).unwrap().lines().map(String::from).collect();
            assert_eq!(got, reference, "format {:?}", format);
        }
    }

    #[test]
    fn binary_journal_lines_render_back_tagged() {
        let path = tmp("bin.j");
        let mut w = JournalWriter::create(JournalConfig {
            path: path.clone(),
            format: WireFormat::Binary,
            max_bytes: None,
        })
        .unwrap();
        w.write_line(2, 1, "{\"table\":1,\"attrs\":[2],\"frequency\":9}");
        w.write_line(2, 2, "{\"control\":\"status\"}");
        // Not a canonical event: journaled as a (tagged) raw item.
        w.write_line(2, 3, "{\"status\":{\"shards\":1}}");
        assert_eq!(w.finish(), 0);
        let bytes = std::fs::read(&path).unwrap();
        let text = convert(&bytes, WireFormat::Jsonl);
        assert_eq!(
            std::str::from_utf8(&text).unwrap(),
            "{\"conn\":2,\"seq\":1,\"table\":1,\"attrs\":[2],\"frequency\":9}\n\
             {\"conn\":2,\"seq\":2,\"control\":\"status\"}\n\
             {\"conn\":2,\"seq\":3,\"status\":{\"shards\":1}}\n"
        );
    }
}
