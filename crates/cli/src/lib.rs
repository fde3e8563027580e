//! The `wmrd` command-line tool.
//!
//! A thin, scriptable front end over the workspace: run catalog or
//! user-supplied programs on the simulated SC/weak machines, record
//! trace files, analyze them post-mortem, render graphs, and check the
//! paper's hardware condition — all without writing Rust.
//!
//! ```text
//! wmrd catalog                                  # list built-in workloads
//! wmrd show fig1b                               # disassemble one
//! wmrd export work-queue-buggy prog.wmrd        # write it as assembly
//! wmrd run fig1a --model wo --seed 3 --trace t.bin
//! wmrd analyze t.bin --timeline --dot g.dot
//! wmrd check producer-consumer --model rcsc --seeds 8
//! wmrd lint all                                 # static may-race analysis
//! wmrd predict fig1a --order wcp                # predictive races from one trace
//! wmrd explore fig1a --seeds 0..500 --prune-static --predict
//! wmrd serve --listen unix:/tmp/wmrd.sock --catalog races.journal &
//! wmrd submit --to unix:/tmp/wmrd.sock t.bin    # analyze into the catalog
//! wmrd query --to unix:/tmp/wmrd.sock races     # the deduplicated race table
//! wmrd demo                                     # the Figure 2/3 story
//! ```
//!
//! The crate root exposes [`run_cli`], which executes a full invocation
//! and returns its output as a string — `main` only prints it, and
//! `Ok`/`Err` is the exit status, so every command, exit status
//! included, is testable under `cargo test`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod error;

pub use args::{
    parse, AnalyzeOpts, CheckOpts, Command, ExecOpts, ExploreOpts, LintOpts, MetricsOpts,
    PredictOpts, QueryOpts, RunOpts, ServeOpts, SubmitOpts,
};
pub use commands::run_cli;
pub use error::CliError;
