//! Every command writes its report through one fallible writer. A
//! reader that closes the pipe early (`isel stats | head -1`) ends the
//! command quietly with exit 0; any other write error (a full disk) is
//! one `cannot write output: …` line and exit 1. Neither panics.

mod common;

use common::{assert_ok, run, run_to, scratch, stderr};
use std::process::Stdio;

#[test]
fn a_closed_pipe_ends_the_command_quietly_and_a_full_disk_fails_it() {
    let dir = scratch("output");
    let w = dir.join("w.json");
    let w = w.to_str().unwrap();
    let shape = ["--kind", "synthetic", "--tables", "2", "--attrs", "6", "--seed", "5"];
    assert_ok(&run(&[&["generate", "--out", w][..], &shape].concat(), None, &[]));
    let commands = [
        vec!["stats", "--workload", w],
        vec!["recommend", "--workload", w, "--strategy", "h6"],
        vec!["recommend", "--workload", w, "--strategy", "h6", "--json"],
    ];
    for args in &commands {
        // The read end is gone before the command starts, so its first
        // write already meets EPIPE.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = run_to(args, Stdio::from(writer));
        let err = stderr(&out);
        assert!(out.status.success(), "{args:?} on a closed pipe: {}\n{err}", out.status);
        assert!(err.is_empty(), "{args:?} on a closed pipe wrote to stderr:\n{err}");

        let full = std::fs::OpenOptions::new().write(true).open("/dev/full").unwrap();
        let out = run_to(args, Stdio::from(full));
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?} on a full disk:\n{err}");
        assert!(!err.contains("panicked"), "{args:?} on a full disk panicked:\n{err}");
        assert!(
            err.starts_with("cannot write output: ") && err.lines().count() == 1,
            "{args:?} on a full disk:\n{err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
