//! The DfMS error type.

use std::fmt;

/// Errors surfaced by the DfMS API.
#[derive(Debug, Clone, PartialEq)]
pub enum DfmsError {
    /// Unknown transaction id.
    UnknownTransaction(String),
    /// Unknown node path within a transaction.
    UnknownNode {
        /// The transaction the lookup ran against.
        transaction: String,
        /// The node path that did not resolve.
        node: String,
    },
    /// The requested lifecycle change is illegal in the run's state.
    BadLifecycle {
        /// The transaction the action targeted.
        transaction: String,
        /// The refused action (`"pause"`, `"resume"`, ...).
        action: &'static str,
        /// The run state the flow was actually in.
        state: String,
    },
    /// A DGL-level problem (parse, validation, evaluation).
    Dgl(dgf_dgl::DglError),
    /// The submit-time lint gate found error-severity diagnostics. The
    /// full report rides along so callers can surface every code.
    Lint(dgf_dgl::ValidationReport),
    /// A DGMS-level problem that terminated submission.
    Dgms(dgf_dgms::DgmsError),
    /// The submitting user is not registered with the grid.
    UnknownUser(String),
    /// The engine refused a runaway loop.
    IterationLimit {
        /// The transaction whose loop tripped the limit.
        transaction: String,
        /// The looping node's path.
        node: String,
        /// The iteration ceiling that was exceeded.
        limit: u64,
    },
    /// A provenance snapshot failed to restore.
    Provenance(crate::ProvenanceError),
    /// The write-ahead journal failed (I/O, foreign file, unframeable
    /// record).
    Journal(dgf_journal::JournalError),
    /// Crash recovery could not proceed (missing or mismatched genesis,
    /// journal already attached, ...).
    Recovery(String),
}

impl fmt::Display for DfmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfmsError::UnknownTransaction(t) => write!(f, "unknown transaction {t:?}"),
            DfmsError::UnknownNode { transaction, node } => {
                write!(f, "transaction {transaction:?} has no node {node:?}")
            }
            DfmsError::BadLifecycle { transaction, action, state } => {
                write!(f, "cannot {action} transaction {transaction:?} in state {state}")
            }
            DfmsError::Dgl(e) => write!(f, "DGL: {e}"),
            DfmsError::Lint(report) => {
                write!(f, "lint rejected flow {:?}: {} error(s)", report.flow, report.errors())?;
                for d in report.diagnostics.iter().filter(|d| d.severity == dgf_dgl::Severity::Error) {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
            DfmsError::Dgms(e) => write!(f, "DGMS: {e}"),
            DfmsError::UnknownUser(u) => write!(f, "unknown user {u:?}"),
            DfmsError::IterationLimit { transaction, node, limit } => {
                write!(f, "transaction {transaction:?} node {node:?} exceeded {limit} iterations")
            }
            DfmsError::Provenance(e) => write!(f, "provenance: {e}"),
            DfmsError::Journal(e) => write!(f, "journal: {e}"),
            DfmsError::Recovery(why) => write!(f, "recovery failed: {why}"),
        }
    }
}

impl std::error::Error for DfmsError {}

impl From<dgf_dgl::DglError> for DfmsError {
    fn from(e: dgf_dgl::DglError) -> Self {
        DfmsError::Dgl(e)
    }
}

impl From<dgf_dgms::DgmsError> for DfmsError {
    fn from(e: dgf_dgms::DgmsError) -> Self {
        DfmsError::Dgms(e)
    }
}

impl From<crate::ProvenanceError> for DfmsError {
    fn from(e: crate::ProvenanceError) -> Self {
        DfmsError::Provenance(e)
    }
}

impl From<dgf_journal::JournalError> for DfmsError {
    fn from(e: dgf_journal::JournalError) -> Self {
        DfmsError::Journal(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: DfmsError = dgf_dgl::DglError::UnknownVariable("x".into()).into();
        assert!(e.to_string().contains("DGL"));
        let e: DfmsError = dgf_dgms::DgmsError::UnknownUser("u".into()).into();
        assert!(e.to_string().contains("DGMS"));
        let e = DfmsError::BadLifecycle { transaction: "t1".into(), action: "pause", state: "completed".into() };
        assert!(e.to_string().contains("pause") && e.to_string().contains("completed"));
    }
}
