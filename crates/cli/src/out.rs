//! Command output on standard output.
//!
//! `println!` panics when stdout is closed (`anyscan … | head -1`). Every
//! command line goes through [`outln!`] instead: a closed pipe ends the
//! process quietly with status 0, as the reader asked for no more; any
//! other write error is reported on stderr with status 1.

use std::io::{ErrorKind, Write};

/// `println!` for command output; see the module docs.
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out::line(format_args!($($arg)*))
    };
}
pub(crate) use outln;

/// Writes one line of command output.
pub fn line(args: std::fmt::Arguments) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_fmt(args)
        .and_then(|()| stdout.write_all(b"\n"))
    {
        if e.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}
