//! The CLI's one path to stdout.
//!
//! `println!` panics when stdout is a pipe whose reader has gone
//! (`loadsteal models | head -1`). Every stdout write goes through
//! [`print`] instead. On a closed pipe the command stops and exits 0
//! with nothing on stderr: the reader chose to stop. Any other write
//! error ends the process with exit 1 and the error on stderr.
//!
//! The NDJSON trace behind `--trace -` keeps its own writer: its write
//! errors are deferred and end the run with `--trace: write failed`
//! and exit 1.

use std::io::{self, Write};

/// Write `args` to stdout; see the [module docs](self) for errors.
pub fn print(args: std::fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        stop(e);
    }
}

/// Flush stdout; see the [module docs](self) for errors.
pub fn flush() {
    if let Err(e) = io::stdout().flush() {
        stop(e);
    }
}

fn stop(e: io::Error) -> ! {
    if e.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("error: cannot write to stdout: {e}");
    std::process::exit(1);
}

/// `print!` through [`print`].
macro_rules! out {
    ($($t:tt)*) => { $crate::stdout::print(format_args!($($t)*)) };
}
pub(crate) use out;

/// `println!` through [`print`].
macro_rules! outln {
    () => { $crate::stdout::print(format_args!("\n")) };
    ($($t:tt)*) => { $crate::stdout::print(format_args!("{}\n", format_args!($($t)*))) };
}
pub(crate) use outln;
