//! Model-checking oracle for the `wmrd` workspace.
//!
//! The paper proves its theorems formally (in the companion technical
//! report [AHM91]); this crate validates the same statements empirically
//! on concrete programs, standing in for those proofs:
//!
//! * [`enumerate_sc`] explores the sequentially consistent executions of
//!   a bounded program exhaustively (with partial-order reduction over
//!   register-only instructions); [`sample_sc`] draws seeded random SC
//!   executions when exhaustion is infeasible.
//! * [`is_sequentially_consistent`] decides whether a recorded
//!   operation-level trace is *explainable* by sequential consistency —
//!   i.e. whether some interleaving of the per-processor operation
//!   sequences reads every value from the most recent write. This is the
//!   workhorse for checking Condition 3.4(1) ("no data races ⇒ the
//!   execution is sequentially consistent") and Definition 3.2 ("the
//!   prefix is also the prefix of an SC execution").
//! * [`wmrd_core::RaceKey`] names a race independently of dynamic
//!   operation ids, so a race found in a weak execution can be matched
//!   against races of enumerated SC executions (Theorem 4.2 / Condition
//!   3.4(2)).
//! * [`theorems`] bundles the checks: [`theorems::check_theorem_4_1`],
//!   [`theorems::check_theorem_4_2`], and
//!   [`theorems::check_condition_3_4`].
//!
//! # Example
//!
//! ```
//! use wmrd_progs::catalog;
//! use wmrd_verify::{enumerate_sc, EnumConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let fig1a = catalog::fig1a();
//! let result = enumerate_sc(&fig1a.program, &EnumConfig::default())?;
//! assert!(result.complete);
//! assert!(result.executions.len() >= 2, "multiple SC interleavings exist");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod linearize;
mod oracle;
#[cfg(test)]
mod signature;
pub mod theorems;
mod weak_oracle;

pub use error::VerifyError;
pub use linearize::{is_sequentially_consistent, linearization_witness};
pub use oracle::{enumerate_sc, sample_sc, EnumConfig, EnumResult, ScExecution};
pub use weak_oracle::{enumerate_weak, WeakEnumResult};
