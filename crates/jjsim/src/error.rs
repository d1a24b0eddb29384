//! Simulator errors.

/// Errors raised while building or solving a circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An element referenced a node that was never created.
    UnknownNode(usize),
    /// An element parameter was non-positive or non-finite.
    InvalidParameter {
        /// Which element family.
        element: &'static str,
        /// Which parameter.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The circuit has no nodes besides ground.
    EmptyCircuit,
    /// Newton iteration failed to converge at a timestep.
    NoConvergence {
        /// Simulation time at the failure, seconds.
        time: f64,
    },
    /// The linear solver hit a (numerically) singular matrix — usually
    /// a floating node.
    SingularMatrix {
        /// Simulation time at the failure, seconds.
        time: f64,
    },
    /// A probe, search or characterization run could not produce a
    /// verdict: the circuit already misbehaves at its nominal point, or
    /// every retry of a trial failed. Unlike [`SimError::NoConvergence`]
    /// this is a *protocol*-level outcome — the transient itself may
    /// have finished fine — and callers performing sweeps are expected
    /// to record it and keep going rather than abort.
    NonConvergent {
        /// What failed to converge (human-readable, static).
        what: &'static str,
    },
    /// The run's execution budget (wall-clock deadline or step/Newton
    /// cap from an ambient [`sfq_guard::RunBudget`]) ran out before
    /// `t_end`. Retryable: a sweep's retry or fallback can stand in
    /// for the lost transient.
    BudgetExceeded {
        /// Which limit tripped (`deadline`, `step_budget`,
        /// `newton_budget`).
        what: &'static str,
        /// Simulation time reached before the stop, seconds.
        time: f64,
    },
    /// The run's [`sfq_guard::CancelToken`] was triggered. Not
    /// retryable: the caller asked the whole computation to stop.
    Cancelled {
        /// Simulation time reached before the stop, seconds.
        time: f64,
    },
}

impl SimError {
    /// True for budget stops that a retry or a sweep's fallback may
    /// recover from. Cancellation is *not* retryable — it propagates.
    #[must_use]
    pub fn is_budget(&self) -> bool {
        matches!(self, SimError::BudgetExceeded { .. })
    }

    /// True when the run stopped because its cancel token fired.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SimError::Cancelled { .. })
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownNode(n) => write!(f, "element references unknown node {n}"),
            SimError::InvalidParameter {
                element,
                field,
                value,
            } => write!(f, "invalid {element} parameter {field} = {value}"),
            SimError::EmptyCircuit => f.write_str("circuit has no nodes"),
            SimError::NoConvergence { time } => {
                write!(f, "newton iteration failed to converge at t = {time:e} s")
            }
            SimError::SingularMatrix { time } => {
                write!(
                    f,
                    "singular conductance matrix at t = {time:e} s (floating node?)"
                )
            }
            SimError::NonConvergent { what } => {
                write!(f, "non-convergent probe: {what}")
            }
            SimError::BudgetExceeded { what, time } => {
                write!(f, "execution budget exceeded ({what}) at t = {time:e} s")
            }
            SimError::Cancelled { time } => {
                write!(f, "run cancelled at t = {time:e} s")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_detail() {
        assert!(SimError::UnknownNode(7).to_string().contains('7'));
        assert!(SimError::NoConvergence { time: 1e-12 }
            .to_string()
            .contains("converge"));
    }
}
