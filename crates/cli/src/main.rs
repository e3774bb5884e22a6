//! `rsq` — command-line streaming JSONPath.
//!
//! ```text
//! rsq QUERY [FILE]              print every matched node (stdin if no FILE)
//! rsq --count QUERY [FILE]      print only the number of matches
//! rsq --positions QUERY [FILE]  print byte offsets, one per line
//! rsq --verify QUERY [FILE]     also evaluate on a DOM oracle and compare
//! rsq --stats [FILE]            document statistics (size/depth/verbosity)
//! rsq --compile QUERY           dump the query automaton in Graphviz DOT
//! ```
//!
//! Hardening flags: `--strict`, `--max-depth N`, `--max-bytes N`,
//! `--max-matches N`. Stdin is consumed in chunks with limits enforced
//! while bytes arrive. Diagnostics go to stderr only; the exit code
//! identifies the failure class (see `--help`).

use rsq_cli::{run, CliError, CliErrorKind, Invocation};
use std::io::{BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match Invocation::parse(&args) {
        Ok(inv) => inv,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("{}", rsq_cli::USAGE);
            return ExitCode::from(2);
        }
    };
    // Stdout is line-buffered, which would make every result line its
    // own write(2); a BufWriter batches them (the emitter's 64 KiB
    // chunks pass straight through it). The handles stay unlocked
    // because serve mode hands the writers to an emitter thread and the
    // lock guards are not `Send`; `BufWriter<Stdout>` is. Serve flushes
    // after every response, so clients still see answers immediately.
    let mut out = BufWriter::new(std::io::stdout());
    let result = run(&invocation, &mut out, &mut std::io::stderr());
    // Flush before exiting on every path: a failed run may still have
    // written results for the documents that succeeded.
    let error = match (result, out.flush()) {
        (Ok(()), Ok(())) => return ExitCode::SUCCESS,
        (Err(error), _) => error,
        (Ok(()), Err(e)) => CliError {
            kind: CliErrorKind::Failure,
            message: format!("write error: {e}"),
        },
    };
    eprintln!("rsq: {error}");
    ExitCode::from(error.kind.exit_code())
}
