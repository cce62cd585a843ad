//! Command output. Every report line goes to stdout through `outln!`
//! (or `out!`), which turns a failed write into [`Failure::Output`]
//! where `println!` would panic. `main` ends the command quietly when
//! the reader has closed the pipe (`isel stats | head -1`) and reports
//! any other write error (a full disk) as `cannot write output: …`,
//! exit 1. SIGPIPE stays ignored process-wide: `serve` answers sockets,
//! and a client that hangs up must cost it an EPIPE, not its life.

use std::{fmt, io};

/// Why a command stopped short of success.
#[derive(Debug)]
pub(crate) enum Failure {
    /// A message for stderr: a bad option, an unreadable input, a
    /// failed check.
    Msg(String),
    /// Stdout refused a write.
    Output(io::Error),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Msg(msg) => f.write_str(msg),
            Self::Output(e) => write!(f, "cannot write output: {e}"),
        }
    }
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Self::Msg(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Self::Msg(msg.to_owned())
    }
}

/// `writeln!` to stdout; a failed write returns [`Failure::Output`] from
/// the enclosing function.
macro_rules! outln {
    ($($arg:tt)*) => {
        std::io::Write::write_fmt(
            &mut std::io::stdout(),
            format_args!("{}\n", format_args!($($arg)*)),
        )
        .map_err($crate::out::Failure::Output)?
    };
}

/// `write!` to stdout, failing like `outln!`.
macro_rules! out {
    ($($arg:tt)*) => {
        std::io::Write::write_fmt(&mut std::io::stdout(), format_args!($($arg)*))
            .map_err($crate::out::Failure::Output)?
    };
}
