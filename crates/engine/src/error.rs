//! Typed per-point failures.

use mdd_core::SchemeConfigError;

/// Why one point of a batch failed. Other points are unaffected: the
/// engine isolates each simulation, so a poisoned point surfaces here
/// instead of killing the sweep.
#[derive(Clone, PartialEq, Debug)]
pub enum PointFailure {
    /// The scheme could not be configured for this point's parameters.
    Config(SchemeConfigError),
    /// The simulation panicked; the payload is the panic message. The
    /// panic was caught at the point boundary (`catch_unwind`), the
    /// worker thread survived, and every other point ran to completion.
    Panic(String),
    /// The static pre-flight verifier panicked on this point's
    /// configuration shape; the payload is the panic message. The point
    /// was not simulated, and every other point of the same shape fails
    /// the same way.
    Verify(String),
    /// The batch was cancelled before this point started. The point was
    /// never simulated; its slot in the stream is filled by this marker
    /// so a drain still sees every outcome.
    Cancelled,
}

/// One failed point of a batch: which job, under which label, at which
/// load, and why.
#[derive(Clone, PartialEq, Debug)]
pub struct PointError {
    /// Id of the failed [`Job`](crate::Job) within its batch.
    pub job: usize,
    /// The curve/series label of the failed point.
    pub label: String,
    /// The applied load of the failed point.
    pub load: f64,
    /// The failure itself.
    pub failure: PointFailure,
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "point {} ({} @ load {:.4}): ",
            self.job, self.label, self.load
        )?;
        match &self.failure {
            PointFailure::Config(e) => write!(f, "{e}"),
            PointFailure::Panic(msg) => write!(f, "simulation panicked: {msg}"),
            PointFailure::Verify(msg) => write!(f, "pre-flight verifier panicked: {msg}"),
            PointFailure::Cancelled => write!(f, "cancelled before start"),
        }
    }
}

impl std::error::Error for PointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match &self.failure {
            PointFailure::Config(e) => Some(e),
            PointFailure::Panic(_) | PointFailure::Verify(_) | PointFailure::Cancelled => None,
        }
    }
}
