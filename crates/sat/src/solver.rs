//! The solver skeleton: state owned by [`Solver`], variable/clause
//! construction, and the public inspection API.
//!
//! The algorithmic machinery lives in the sibling modules —
//! [`propagate`](crate::propagate) (two-watched-literal propagation),
//! [`analyze`](crate::analyze) (1-UIP learning + minimization),
//! [`vsids`](crate::vsids) (decision heap + phase saving),
//! [`clause`](crate::clause) (LBD-based learnt reduction) and
//! [`search`](crate::search) (the CDCL loop, restarts, and the
//! incremental [`Solver::solve_assuming`] entry point).

use crate::clause::{ClauseDb, ClauseRef, NO_REASON};
use crate::propagate::Watcher;
#[cfg(debug_assertions)]
use crate::types::Model;
use crate::types::{Lit, SolverStats, Var};
use crate::vsids::Vsids;

/// The incremental CDCL solver. See the [crate docs](crate) for the
/// algorithm list and `SOLVER.md` at the repo root for the
/// architecture tour.
///
/// # Incremental contract
///
/// A `Solver` is a *persistent* object: clauses added with
/// [`add_clause`](Solver::add_clause) stay forever, and everything the
/// search learns — learnt clauses, variable activities, saved phases —
/// survives across [`solve`](Solver::solve) /
/// [`solve_assuming`](Solver::solve_assuming) calls. Assumptions are
/// the *only* transient input: they constrain exactly one call.
#[derive(Clone, Debug, Default)]
pub struct Solver {
    /// Clause arena (original + learnt) and reduction policy.
    pub(crate) db: ClauseDb,
    /// Watch lists: for literal code `c`, the watchers of clauses
    /// currently watching that literal.
    pub(crate) watches: Vec<Vec<Watcher>>,
    /// Value per literal code: `vals[l.code()]` is `l`'s truth value,
    /// `None` while its variable is unassigned. Both literals of a
    /// variable are written together, so a literal's value is one load.
    pub(crate) vals: Vec<Option<bool>>,
    /// Decision level per variable.
    pub(crate) level: Vec<u32>,
    /// Reason clause per variable (antecedent), [`NO_REASON`] for
    /// decisions and assumptions.
    pub(crate) reason: Vec<ClauseRef>,
    /// Decision heuristic: activity heap + saved phases.
    pub(crate) vsids: Vsids,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) queue_head: usize,
    /// Permanently unsatisfiable (empty clause added).
    pub(crate) unsat: bool,
    pub(crate) stats: SolverStats,
    /// Scratch for conflict analysis.
    pub(crate) seen: Vec<bool>,
    /// Scratch for LBD computation: stamp per decision level (at least
    /// `num_vars` entries; `solve_assuming` grows it to cover one level
    /// per assumption as well).
    pub(crate) level_stamp: Vec<u64>,
    pub(crate) stamp: u64,
    /// Scratch for [`add_clause`](Solver::add_clause)'s root
    /// simplification.
    clause_buf: Vec<Lit>,
    /// Every clause as it was passed to [`add_clause`](Solver::add_clause),
    /// before root simplification: debug and test builds check each
    /// model against them.
    #[cfg(debug_assertions)]
    pub(crate) original_clauses: Vec<Vec<Lit>>,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.db.len()
    }

    /// Solver statistics (monotone over the solver's lifetime; diff
    /// snapshots with [`SolverStats::since`] for per-call costs).
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.num_vars() as u32);
        self.vals.extend([None, None]);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.seen.push(false);
        self.level_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.vsids.new_var();
        v
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Adds a clause, permanently. Duplicate literals are removed;
    /// tautologies are ignored; literals false at the root level are
    /// dropped and clauses true at the root are discarded (so clauses
    /// added after unit constraints arrive pre-simplified); the empty
    /// clause makes the instance permanently UNSAT.
    ///
    /// Must be called at decision level 0 (i.e. not from within a solve
    /// callback).
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    ///
    /// # Example
    ///
    /// ```
    /// use mlam_sat::{Lit, Solver};
    ///
    /// let mut s = Solver::new();
    /// let (a, b) = (s.new_var(), s.new_var());
    /// s.add_clause(&[Lit::neg(a)]); // unit: ¬a holds at the root
    /// s.add_clause(&[Lit::pos(a), Lit::pos(b)]); // simplifies to unit b
    /// assert_eq!(s.num_clauses(), 0, "both clauses became root units");
    /// assert!(s.solve().is_sat());
    /// ```
    pub fn add_clause(&mut self, lits: &[Lit]) {
        assert!(self.trail_lim.is_empty(), "add_clause at level 0 only");
        for l in lits {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l} references an unallocated variable"
            );
        }
        #[cfg(debug_assertions)]
        self.original_clauses.push(lits.to_vec());
        if self.unsat {
            return;
        }
        let mut clause = std::mem::take(&mut self.clause_buf);
        if self.simplify_at_root(lits, &mut clause) {
            match clause[..] {
                [] => self.unsat = true,
                [unit] => {
                    if !self.enqueue(unit, NO_REASON) || self.propagate().is_some() {
                        self.unsat = true;
                    }
                }
                _ => {
                    self.attach_clause(&clause, false, 0);
                }
            }
        }
        self.clause_buf = clause;
    }

    /// Writes `lits` into `out` sorted, without duplicates and without
    /// root-false literals. Returns false, leaving `out` unspecified,
    /// when the clause is a tautology or already satisfied at the root.
    fn simplify_at_root(&self, lits: &[Lit], out: &mut Vec<Lit>) -> bool {
        out.clear();
        out.extend_from_slice(lits);
        out.sort_unstable();
        out.dedup();
        let mut kept = 0;
        for i in 0..out.len() {
            let l = out[i];
            if i + 1 < out.len() && out[i + 1] == l.negate() {
                return false; // tautology (sorted order places v, ¬v adjacent)
            }
            match self.lit_value(l) {
                Some(true) => return false, // already satisfied at root
                Some(false) => {}           // drop
                None => {
                    out[kept] = l;
                    kept += 1;
                }
            }
        }
        out.truncate(kept);
        true
    }

    /// The current value of a literal, if its variable is assigned.
    #[inline]
    pub(crate) fn lit_value(&self, l: Lit) -> Option<bool> {
        self.vals[l.code()]
    }

    #[inline]
    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Panics, naming what broke, unless `model` satisfies every clause
    /// ever added and every assumption of the call that found it.
    #[cfg(debug_assertions)]
    pub(crate) fn check_model(&self, model: &Model, assumptions: &[Lit]) {
        for (i, clause) in self.original_clauses.iter().enumerate() {
            assert!(
                clause.iter().any(|&l| model.lit_value(l)),
                "SAT model violates clause {i}: ({})",
                clause
                    .iter()
                    .map(Lit::to_string)
                    .collect::<Vec<_>>()
                    .join(" ∨ ")
            );
        }
        for &a in assumptions {
            assert!(model.lit_value(a), "SAT model violates assumption {a}");
        }
    }
}
