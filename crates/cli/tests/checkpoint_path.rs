//! The checkpoint manifest commits atomically whatever the user names
//! it. A manifest write goes to a temporary file beside the manifest
//! and is renamed over it; when the temporary name is derived by
//! swapping the extension, `--checkpoint DIR/state.tmp` writes the
//! manifest in place, and a failure before the rename leaves it at the
//! generation it failed to commit.

use std::path::Path;

mod common;

use common::{assert_ok, run, scratch, stderr};

/// The generation the manifest at `path` commits.
fn generation(path: &Path) -> u64 {
    isel_service::Manifest::load(path).unwrap().generation
}

/// A manifest write that fails at generation 3 leaves generation 2
/// committed, under a manifest name ending in `.json` and in `.tmp`.
#[test]
fn failed_manifest_write_keeps_the_previous_generation() {
    let dir = scratch("ckpt_path");
    let shape = ["--kind", "synthetic", "--tables", "2", "--attrs", "6", "--seed", "5"];
    let (w, log) = (dir.join("w.json"), dir.join("ev.jsonl"));
    let (w, log) = (w.to_str().unwrap(), log.to_str().unwrap());
    assert_ok(&run(&[&["generate", "--out", w][..], &shape].concat(), None, &[]));
    let record = ["record", "--out", log, "--events", "160"];
    assert_ok(&run(&[&record[..], &shape].concat(), None, &[]));

    for name in ["state.json", "state.tmp"] {
        let sub = dir.join(name.replace('.', "_"));
        std::fs::create_dir_all(&sub).unwrap();
        let manifest = sub.join(name);
        let replay = [
            "replay",
            "--workload",
            w,
            "--log",
            log,
            "--epoch-events",
            "32",
            "--checkpoint",
            manifest.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ];
        let fault = [("ISEL_FAULT_SCHEDULE", "checkpoint.manifest@3:1:error")];
        let out = run(&replay, None, &fault);
        let err = stderr(&out);
        assert!(!out.status.success(), "{name}: the injected error fails the run");
        assert!(err.contains("injected fault: checkpoint.manifest@3"), "{name}: {err}");
        assert_eq!(generation(&manifest), 2, "{name}: generation 3 never committed");
    }
    std::fs::remove_dir_all(&dir).ok();
}
