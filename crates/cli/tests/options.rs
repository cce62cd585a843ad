//! Every `isel` command refuses an option or a positional token it does
//! not read, and a budget share out of range, before it does any work:
//! a misspelt `--budjet` must not tune at the default budget, and
//! `--budget -1` is an error naming the option, not a panic.

mod common;

use common::{assert_ok, run, scratch, stderr};

#[test]
fn misspelt_options_are_refused_before_any_work() {
    let dir = scratch("options");
    let (w, log) = (dir.join("w.json"), dir.join("ev.jsonl"));
    let (w, log) = (w.to_str().unwrap(), log.to_str().unwrap());
    let shape = ["--kind", "synthetic", "--tables", "2", "--attrs", "6", "--seed", "5"];
    assert_ok(&run(&[&["generate", "--out", w][..], &shape].concat(), None, &[]));
    assert_ok(&run(&[&["record", "--out", log, "--events", "64"][..], &shape].concat(), None, &[]));

    let refused = [
        (vec!["recommend", "--workload", w, "--budjet", "0.5", "--strategy", "h1"], "budjet"),
        (
            vec![
                "replay", "--workload", w, "--log", log, "--epoch-events", "16", "--budjet", "0.5",
            ],
            "budjet",
        ),
        (vec!["serve", "--workload", w, "--shards", "1", "--budjet", "0.5"], "budjet"),
        (vec!["recommend", "--workload", w, "--strategy", "h6", "--budget", "-1"], "budget"),
        (vec!["recommend", "--workload", w, "--strategy", "h6", "--budget", "nan"], "budget"),
        (vec!["compare", "--workload", w, "--budget", "inf"], "budget"),
        (vec!["frontier", "--workload", w, "--max-budget", "-0.5"], "max-budget"),
        (vec!["recommend", "oops", "--workload", w, "--strategy", "h6"], "oops"),
        (vec!["stats", "--workload", w, "one", "two"], "one"),
        (vec!["journal", "convert", "stray", "--log", log, "--to", "binary"], "stray"),
        (vec!["worker", "oops"], "oops"),
    ];
    for (args, named) in refused {
        let out = run(&args, None, &[]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?} ran:\n{err}");
        assert!(!err.contains("panicked"), "{args:?} panicked:\n{err}");
        let named = match named {
            "budjet" => format!("unknown option --budjet for `isel {}`", args[0]),
            "budget" | "max-budget" => format!("invalid value for --{named}:"),
            token => format!("unexpected argument {token:?} for `isel {}`", args[0]),
        };
        assert!(err.contains(&named), "{args:?} stderr:\n{err}");
        assert!(out.stdout.is_empty(), "{args:?} worked before refusing");
    }
    // What they meant is accepted, `journal`'s action included.
    assert_ok(&run(
        &["recommend", "--workload", w, "--budget", "0.5", "--strategy", "h1"],
        None,
        &[],
    ));
    let bin = dir.join("ev.bin");
    let convert = ["journal", "convert", "--log", log, "--to", "binary", "--out"];
    assert_ok(&run(&[&convert[..], &[bin.to_str().unwrap()]].concat(), None, &[]));
    std::fs::remove_dir_all(&dir).ok();
}
