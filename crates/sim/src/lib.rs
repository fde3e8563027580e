//! A shared-memory multiprocessor simulator for studying data-race
//! detection on weak memory systems.
//!
//! This crate is the *hardware substrate* of the `wmrd` workspace. The
//! paper (Adve, Hill, Miller & Netzer, ISCA 1991) assumes multiprocessors
//! implementing sequential consistency (SC) or one of the weak models —
//! weak ordering (WO), release consistency with SC synchronization
//! (RCsc), data-race-free-0 (DRF0) and data-race-free-1 (DRF1). We do not
//! have 1991 hardware, so we simulate it with one interpreter: a
//! [`Machine`] of in-order cores ([`CoreState`]) over a pluggable
//! [`MemorySystem`]. One `step` executes every instruction; the memory
//! system decides what reads observe and where writes go. There are
//! three memory systems:
//!
//! * [`ScMemory`] completes every access against shared memory:
//!   [`ScMachine`] executes programs as an interleaving of memory
//!   operations — the classic SC reference machine. Its scheduler is
//!   pluggable ([`Scheduler`]), and the model-checking oracle in
//!   `wmrd-verify` drives it directly to enumerate *all* SC executions of
//!   small programs.
//! * [`StoreBuffers`] ([`WeakMachine`]) keep a per-processor **store
//!   buffer** for data writes that may drain to shared memory out of order
//!   (weak ordering permits reordering of data writes between
//!   synchronization points). Synchronization operations execute strongly
//!   and *flush* the issuing processor's buffer according to the model:
//!   WO and DRF0 flush at every synchronization operation; RCsc and DRF1
//!   flush only at **releases** (exploiting the acquire/release
//!   distinction, which is exactly the difference the paper describes in
//!   Section 2.2). Such an implementation provides SC to data-race-free
//!   executions and can violate SC only through data races — i.e. it
//!   obeys the paper's Condition 3.4, as Theorem 3.5 argues all practical
//!   weak implementations do.
//! * [`InvalQueues`] ([`InvalMachine`]) complete writes at once but let
//!   readers keep stale cached copies until queued invalidations apply —
//!   the same condition reached by a reader-side mechanism.
//!
//! A fourth backend, [`OooMachine`], keeps its own speculative
//! out-of-order pipeline but shares the machines' state
//! ([`MachineState`]), ALU and store buffers. [`run_sc`] and
//! [`run_weak_hw`] drive any of them through one scheduling loop.
//!
//! With [`Fidelity::Raw`] the weak machines *also delay synchronization
//! and never flush*: a deliberately broken "arbitrary weak hardware" that
//! violates Condition 3.4. It exists for the ablation that shows why the
//! condition matters (race-free programs can go non-SC on it, making
//! dynamic detection meaningless). Under [`MemoryModel::Sc`] every weak
//! backend leaves nothing pending and behaves sequentially consistently.
//!
//! Programs are written in a small RISC-like ISA ([`Instr`]) with ordinary
//! loads/stores (data operations), `Test&Set`/`Unset` and acquire/release
//! accesses (hardware-recognized synchronization operations, Section 2.1),
//! registers, arithmetic and branches. Every memory operation is reported
//! to a [`TraceSink`](wmrd_trace::TraceSink) — the instrumentation hook the
//! detection pipeline consumes.
//!
//! # Example
//!
//! Run the paper's Figure 1a (a racy two-processor program) on the SC
//! machine and collect an event-level trace:
//!
//! ```
//! use wmrd_sim::{run_sc, Addr, Instr, Program, Reg, RoundRobin, RunConfig};
//! use wmrd_trace::{Location, TraceBuilder, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let x = Location::new(0);
//! let y = Location::new(1);
//! let mut prog = Program::new("fig1a-like", 2);
//! prog.push_proc(vec![
//!     Instr::St { src: 1.into(), addr: Addr::Abs(x) }, // Write(x)
//!     Instr::St { src: 1.into(), addr: Addr::Abs(y) }, // Write(y)
//!     Instr::Halt,
//! ]);
//! prog.push_proc(vec![
//!     Instr::Ld { dst: Reg::new(0), addr: Addr::Abs(y) }, // Read(y)
//!     Instr::Ld { dst: Reg::new(1), addr: Addr::Abs(x) }, // Read(x)
//!     Instr::Halt,
//! ]);
//!
//! let mut sink = TraceBuilder::new(2);
//! let outcome = run_sc(&prog, &mut RoundRobin::new(), &mut sink, RunConfig::default())?;
//! assert!(outcome.halted);
//! let trace = sink.finish();
//! assert_eq!(trace.num_procs(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
mod campaign;
mod cpu;
mod error;
mod inval;
mod isa;
mod machine;
mod model;
mod ooo;
mod program;
mod run;
mod sched;
mod stats;
mod timing;
mod weak;

pub use asm::{parse_asm, write_asm, AsmError};
pub use campaign::CampaignRunner;
pub use cpu::{CoreState, NUM_REGS};
pub use error::SimError;
pub use inval::{InvalMachine, InvalQueues, PendingInval};
pub use isa::{Addr, Instr, Operand, Reg};
pub use machine::{Machine, MachineState, MemCell, MemorySystem, ScMachine, ScMemory, StepEvent};
pub use model::{Fidelity, MemoryModel};
pub use ooo::OooMachine;
pub use program::Program;
pub use run::{run_sc, run_sc_on, run_weak, run_weak_hw, HwImpl, RunConfig, RunOutcome};
pub use sched::{
    DrainView, FixedScript, RandomSched, RandomWeakSched, RoundRobin, Scheduler, WeakAction,
    WeakRoundRobin, WeakScheduler, WeakScript,
};
pub use stats::SimStats;
pub use timing::Timing;
pub use weak::{BufferedWrite, StoreBuffers, WeakMachine};
