//! Workloads for the `wmrd` workspace.
//!
//! Three layers:
//!
//! * [`ProcBuilder`] — a tiny assembler with symbolic labels over
//!   the `wmrd-sim` ISA, so programs read like the paper's pseudo-code.
//! * [`catalog`] — the paper's example programs (Figures 1a, 1b and the
//!   Figure 2 work queue with its missing-`Test&Set` bug), classic
//!   synchronization patterns (producer/consumer, Dekker, locked
//!   counters, barrier), each with a layout struct naming its memory
//!   locations and a ground-truth racy/race-free flag.
//! * [`generate`] — seeded random program generators: lock-disciplined
//!   (race-free by construction), racy mixes, and multi-phase programs
//!   that produce chains of race partitions.
//!
//! # Example
//!
//! ```
//! use wmrd_progs::catalog;
//! use wmrd_sim::{run_sc, RunConfig, WeakRoundRobin};
//! use wmrd_trace::TraceBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fig1a = catalog::fig1a();
//! assert!(fig1a.racy);
//! let mut sink = TraceBuilder::new(fig1a.program.num_procs());
//! run_sc(&fig1a.program, &mut WeakRoundRobin::new(), &mut sink, RunConfig::default())?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
pub mod catalog;
pub mod generate;

pub use asm::{ProcBuilder, ProgsError};
pub use catalog::CatalogEntry;
