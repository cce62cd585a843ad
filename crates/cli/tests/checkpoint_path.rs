//! The checkpoint manifest commits atomically whatever the user names
//! it. A manifest write goes to a temporary file beside the manifest
//! and is renamed over it; when the temporary name is derived by
//! swapping the extension, `--checkpoint DIR/state.tmp` writes the
//! manifest in place, and a failure before the rename leaves it at the
//! generation it failed to commit.

use std::path::Path;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_isel");

fn isel(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn isel")
}

fn assert_ok(out: &Output) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "isel failed: {}\n{err}", out.status);
}

/// The generation the manifest at `path` commits.
fn generation(path: &Path) -> u64 {
    isel_service::Manifest::load(path).unwrap().generation
}

/// A manifest write that fails at generation 3 leaves generation 2
/// committed, under a manifest name ending in `.json` and in `.tmp`.
#[test]
fn failed_manifest_write_keeps_the_previous_generation() {
    let dir = std::env::temp_dir().join(format!("isel_ckpt_path_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let shape = ["--kind", "synthetic", "--tables", "2", "--attrs", "6", "--seed", "5"];
    let (w, log) = (dir.join("w.json"), dir.join("ev.jsonl"));
    let (w, log) = (w.to_str().unwrap(), log.to_str().unwrap());
    assert_ok(&isel(&[&["generate", "--out", w][..], &shape].concat(), &[]));
    let record = ["record", "--out", log, "--events", "160"];
    assert_ok(&isel(&[&record[..], &shape].concat(), &[]));

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
        let out = isel(&replay, &fault);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{name}: the injected error fails the run");
        assert!(err.contains("injected fault: checkpoint.manifest@3"), "{name}: {err}");
        assert_eq!(generation(&manifest), 2, "{name}: generation 3 never committed");
    }
    std::fs::remove_dir_all(&dir).ok();
}
