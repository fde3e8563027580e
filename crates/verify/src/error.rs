//! Error type for the verification oracle.

use std::fmt;

use wmrd_core::AnalysisError;
use wmrd_sim::{HwImpl, SimError};

/// Errors produced by enumeration and theorem checking.
#[derive(Debug)]
#[non_exhaustive]
pub enum VerifyError {
    /// The simulator failed while exploring or replaying executions.
    Sim(SimError),
    /// Race analysis of a produced trace failed.
    Analysis(AnalysisError),
    /// Enumeration exceeded its execution budget without completing and
    /// the caller required completeness.
    Incomplete {
        /// Executions gathered before giving up.
        gathered: usize,
    },
    /// The hardware style cannot be enumerated: only the buffer
    /// machines expose their pending entries as schedule choices.
    NotEnumerable(HwImpl),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Sim(e) => write!(f, "simulation failed: {e}"),
            VerifyError::Analysis(e) => write!(f, "analysis failed: {e}"),
            VerifyError::Incomplete { gathered } => {
                write!(f, "enumeration incomplete after {gathered} executions")
            }
            VerifyError::NotEnumerable(hw) => write!(f, "{hw} hardware cannot be enumerated"),
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::Sim(e) => Some(e),
            VerifyError::Analysis(e) => Some(e),
            VerifyError::Incomplete { .. } | VerifyError::NotEnumerable(_) => None,
        }
    }
}

impl From<SimError> for VerifyError {
    fn from(e: SimError) -> Self {
        VerifyError::Sim(e)
    }
}

impl From<AnalysisError> for VerifyError {
    fn from(e: AnalysisError) -> Self {
        VerifyError::Analysis(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_and_source() {
        let e = VerifyError::from(SimError::StepLimit(5));
        assert!(e.to_string().contains("simulation failed"));
        assert!(e.source().is_some());
        let i = VerifyError::Incomplete { gathered: 3 };
        assert!(i.to_string().contains("3"));
        assert!(i.source().is_none());
    }
}
