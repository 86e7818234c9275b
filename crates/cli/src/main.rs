//! `srpq` — command-line front-end for streaming RPQ evaluation.
//!
//! ```text
//! srpq gen --dataset so|ldbc|yago|gmark --out FILE [--edges N] [--seed S]
//! srpq explain QUERY
//! srpq run --query QUERY --stream FILE [--window W] [--slide B]
//!          [--semantics arbitrary|simple] [--print-results] [--stats]
//!          [--wal-dir DIR [--checkpoint-every N] [--sync none|batch|always]
//!           [--checkpoint logical|full]]
//! srpq recover --wal-dir DIR --stream FILE [--print-results] [--stats]
//! srpq wal-info --wal-dir DIR
//! srpq info --stream FILE
//! srpq serve --listen ADDR --window W [--wal-dir DIR]
//! srpq ingest --connect ADDR --stream FILE [--resume] [--drain]
//! srpq subscribe --connect ADDR [--queries a,b]
//! srpq query add|remove|list --connect ADDR [--name N] [--query Q]
//! srpq ctl drain|checkpoint|shutdown|stats --connect ADDR
//! ```
//!
//! Stream files are the `SRPQ2` layout of the `srpq_common::wire` format
//! reference (label table, fixed-width tuples, CRC32 footer). With
//! `--wal-dir`, `run` logs every batch to a write-ahead log and
//! checkpoints periodically; `recover` restores the engine after a crash
//! and resumes the stream where durable state ends.

/// `writeln!` into a verb's output `out`; the first write error fails
/// the verb (`srpq: writing output: …`, exit 1) instead of panicking.
macro_rules! outln {
    ($out:expr $(, $arg:expr)* $(,)?) => {
        writeln!($out $(, $arg)*).map_err(crate::commands::output_error)?
    };
}

mod args;
mod commands;
mod net;
mod streamfile;

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    let ran = commands::dispatch(&argv, &mut out);
    match ran.and_then(|()| out.flush().map_err(commands::output_error)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("srpq: {e}");
            ExitCode::FAILURE
        }
    }
}
