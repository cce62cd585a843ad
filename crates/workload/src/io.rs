//! Workload persistence.
//!
//! Experiments want to pin the exact workload an index selection was
//! computed for (the paper's reproducibility setup ships workloads next to
//! the code). Workloads serialize to a single self-contained JSON document
//! containing the schema and all query templates.

use crate::query::Workload;
use std::io::{Read, Write};
use std::path::Path;

/// Errors of [`save`]/[`load`].
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// (De)serialization failure.
    Serde(serde_json::Error),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "workload io: {e}"),
            IoError::Serde(e) => write!(f, "workload serialization: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Serde(e)
    }
}

/// Serialize a workload to a writer as JSON.
pub fn write(workload: &Workload, mut w: impl Write) -> Result<(), IoError> {
    serde_json::to_writer(&mut w, workload)?;
    w.flush()?;
    Ok(())
}

/// Deserialize a workload from a reader. Re-validates the single-table
/// invariant via `Workload::new`.
pub fn read(r: impl Read) -> Result<Workload, IoError> {
    let w: Workload = serde_json::from_reader(r)?;
    // Round-trip through the validating constructor.
    Ok(Workload::new(w.schema().clone(), w.queries().to_vec()))
}

/// Save a workload to a file.
pub fn save(workload: &Workload, path: impl AsRef<Path>) -> Result<(), IoError> {
    write(workload, std::io::BufWriter::new(std::fs::File::create(path)?))
}

/// Load a workload from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Workload, IoError> {
    read(std::io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{self, SyntheticConfig};

    #[test]
    fn json_round_trip_preserves_workload() {
        let w = synthetic::generate(&SyntheticConfig {
            tables: 2,
            attrs_per_table: 5,
            queries_per_table: 4,
            rows_base: 1_000,
            max_query_width: 3,
            update_fraction: 0.0,
            seed: 1,
        });
        let mut buf = Vec::new();
        write(&w, &mut buf).unwrap();
        let back = read(buf.as_slice()).unwrap();
        assert_eq!(w, back);
    }

    #[test]
    fn file_round_trip() {
        let w = synthetic::generate(&SyntheticConfig {
            tables: 1,
            attrs_per_table: 4,
            queries_per_table: 3,
            rows_base: 100,
            max_query_width: 2,
            update_fraction: 0.0,
            seed: 2,
        });
        let dir = std::env::temp_dir().join("isel_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.json");
        save(&w, &path).unwrap();
        assert_eq!(load(&path).unwrap(), w);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn names_with_escapes_and_multibyte_characters_round_trip() {
        // What the JSON string scanner has to get right: escapes and
        // multi-byte scalars in any order, runs ending at either.
        let mut b = crate::SchemaBuilder::new();
        let t = b.table("Aufträge \"offen\"\\2019\n", 1_000);
        let a = b.attribute(t, "κωδικός\tπελάτη 𝄞", 10, 4);
        let c = b.attribute(t, "\\\"é", 10, 4);
        let w = Workload::new(b.finish(), vec![crate::Query::new(t, vec![a, c], 3)]);
        let mut buf = Vec::new();
        write(&w, &mut buf).unwrap();
        assert_eq!(read(buf.as_slice()).unwrap(), w);
    }

    #[test]
    fn corrupt_input_is_an_error() {
        assert!(matches!(read(&b"not json"[..]), Err(IoError::Serde(_))));
    }

    #[test]
    fn error_display_is_informative() {
        let e = read(&b"{"[..]).unwrap_err();
        assert!(e.to_string().contains("serialization"));
    }
}
