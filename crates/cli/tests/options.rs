//! Every `isel` command refuses an option it does not read, before it
//! does any work: a misspelt `--budjet` must not tune at the default
//! budget.

use std::process::{Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_isel");

fn isel(args: &[&str]) -> Output {
    Command::new(BIN).args(args).stdin(Stdio::null()).output().expect("spawn isel")
}

fn assert_ok(out: &Output) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "isel failed: {}\n{err}", out.status);
}

#[test]
fn misspelt_options_are_refused_before_any_work() {
    let dir = std::env::temp_dir().join(format!("isel_options_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (w, log) = (dir.join("w.json"), dir.join("ev.jsonl"));
    let (w, log) = (w.to_str().unwrap(), log.to_str().unwrap());
    let shape = ["--kind", "synthetic", "--tables", "2", "--attrs", "6", "--seed", "5"];
    assert_ok(&isel(&[&["generate", "--out", w][..], &shape].concat()));
    assert_ok(&isel(&[&["record", "--out", log, "--events", "64"][..], &shape].concat()));

    for args in [
        vec!["recommend", "--workload", w, "--budjet", "0.5", "--strategy", "h1"],
        vec!["replay", "--workload", w, "--log", log, "--epoch-events", "16", "--budjet", "0.5"],
        vec!["serve", "--workload", w, "--shards", "1", "--budjet", "0.5"],
    ] {
        let out = isel(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} ran:\n{}", String::from_utf8_lossy(&out.stdout));
        let named = format!("unknown option --budjet for `isel {}`", args[0]);
        assert!(stderr.contains(&named), "{args:?} stderr:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} worked before refusing");
    }
    // The option it meant is accepted.
    assert_ok(&isel(&["recommend", "--workload", w, "--budget", "0.5", "--strategy", "h1"]));
    std::fs::remove_dir_all(&dir).ok();
}
