//! Terminal output for the binaries: a reader that closes the pipe
//! early (`… | head`, `… | grep -q`) ends the output, not the program.

use std::io::Write;

/// Writes `args` to `out`, treating a reader that closed the pipe as
/// the end of output: the rest is dropped, and the program carries on
/// with its work and its exit code. Any other write error panics, as
/// `println!` does.
pub fn emit(mut out: impl Write, args: std::fmt::Arguments<'_>) {
    if let Err(e) = out.write_fmt(args) {
        assert!(e.kind() == std::io::ErrorKind::BrokenPipe, "failed writing output: {e}");
    }
}

/// `println!` through [`emit`]: a closed stdout pipe ends the listing.
#[macro_export]
macro_rules! say {
    () => {
        $crate::output::emit(std::io::stdout().lock(), format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::output::emit(
            std::io::stdout().lock(),
            format_args!("{}\n", format_args!($($arg)*)),
        )
    };
}

/// `eprintln!` through [`emit`]: a closed stderr pipe silences the
/// remaining diagnostics.
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => {
        $crate::output::emit(
            std::io::stderr().lock(),
            format_args!("{}\n", format_args!($($arg)*)),
        )
    };
}
