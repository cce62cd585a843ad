//! The experiment binaries refuse arguments they do not know, before
//! doing any work: a typo must not silently run the default experiment.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn experiment binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn fig6_rejects_an_unknown_flag() {
    let (code, stderr) = exit_code(env!("CARGO_BIN_EXE_fig6"), &["--bogus"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown argument `--bogus`"), "stderr: {stderr}");
    assert!(stderr.contains("usage: fig6"), "stderr: {stderr}");
}

#[test]
fn misspelt_or_space_separated_options_are_rejected() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig4"), &["--quik"][..]),
        (env!("CARGO_BIN_EXE_fig5"), &["--rows", "5000"][..]),
        (env!("CARGO_BIN_EXE_table1"), &["--cutoff", "60"][..]),
        (env!("CARGO_BIN_EXE_summarize"), &["fig4"][..]),
    ] {
        let (code, stderr) = exit_code(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    }
}
