//! The vocabulary types of the solver: variables, literals, models,
//! results and statistics.
//!
//! Everything here is plain data with no solver state attached, so the
//! attack layers can pass these around freely (e.g. take the
//! [`SolverStats`] difference across an attack phase, or keep a
//! [`Model`] alive after the solver has moved on).

use std::fmt;

/// A propositional variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Zero-based index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation.
///
/// Encoded as `var << 1 | sign` with `sign = 1` meaning negated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v.0 << 1 | 1)
    }

    /// Builds a literal from a variable and a sign
    /// (`negated = true` gives `¬v`).
    pub fn new(v: Var, negated: bool) -> Lit {
        Lit(v.0 << 1 | u32::from(negated))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is negated.
    pub fn is_negated(self) -> bool {
        self.0 & 1 == 1
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// The literal's index into literal-indexed maps (watch lists).
    pub(crate) fn code(self) -> usize {
        self.0 as usize
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negate()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negated() {
            write!(f, "¬{}", self.var())
        } else {
            write!(f, "{}", self.var())
        }
    }
}

/// A satisfying assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    pub(crate) values: Vec<bool>,
}

impl Model {
    /// The value of a variable.
    ///
    /// # Panics
    ///
    /// Panics if the variable was not part of the solved instance.
    pub fn value(&self, v: Var) -> bool {
        self.values[v.index()]
    }

    /// Whether a literal is true under the model.
    pub fn lit_value(&self, l: Lit) -> bool {
        self.value(l.var()) != l.is_negated()
    }

    /// All variable values, indexed by variable.
    pub fn values(&self) -> &[bool] {
        &self.values
    }
}

/// The result of a solve call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with a model.
    Sat(Model),
    /// Unsatisfiable (under the given assumptions, if any).
    Unsat,
}

impl SatResult {
    /// Returns the model if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            SatResult::Unsat => None,
        }
    }

    /// Whether the result is SAT.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Aggregate statistics of a solver instance.
///
/// All fields except `learnt_clauses` are monotone counters over the
/// solver's lifetime; `learnt_clauses` is a gauge (the learnt clauses
/// *currently kept*, i.e. after LBD-based reductions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently kept.
    pub learnt_clauses: usize,
    /// Clauses learnt over the solver's lifetime (cumulative; reduction
    /// does not subtract).
    #[serde(default)]
    pub learnts: u64,
    /// LBD-based learnt-database reductions performed.
    #[serde(default)]
    pub lbd_reductions: u64,
    /// Solve calls made with a non-empty assumption set.
    #[serde(default)]
    pub assumption_solves: u64,
    /// Literals removed from learnt clauses by conflict-clause
    /// minimization.
    #[serde(default)]
    pub minimized_literals: u64,
}

impl SolverStats {
    /// The work done since an earlier snapshot of the same solver.
    ///
    /// The monotone counters subtract (saturating, so snapshots from a
    /// different solver cannot underflow); `learnt_clauses` is a gauge
    /// and keeps its current value.
    pub fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            learnt_clauses: self.learnt_clauses,
            learnts: self.learnts.saturating_sub(earlier.learnts),
            lbd_reductions: self.lbd_reductions.saturating_sub(earlier.lbd_reductions),
            assumption_solves: self
                .assumption_solves
                .saturating_sub(earlier.assumption_solves),
            minimized_literals: self
                .minimized_literals
                .saturating_sub(earlier.minimized_literals),
        }
    }
}
