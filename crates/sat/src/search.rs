//! The CDCL search loop: decisions, conflict handling, Luby restarts,
//! assumption placement, and the incremental
//! [`Solver::solve_assuming`] entry point.

use crate::clause::NO_REASON;
use crate::solver::Solver;
use crate::types::{Lit, Model, SatResult, Var};

impl Solver {
    /// Solves the instance without assumptions.
    ///
    /// Equivalent to [`solve_assuming`](Solver::solve_assuming) with an
    /// empty slice; everything learnt is retained for later calls.
    pub fn solve(&mut self) -> SatResult {
        self.solve_assuming(&[])
    }

    /// Solves under the given assumption literals, incrementally.
    ///
    /// The assumptions hold for this call only — [`SatResult::Unsat`]
    /// then means "unsatisfiable *under these assumptions*", and the
    /// solver remains usable. What survives across calls:
    ///
    /// - all clauses ever added (and all learnt clauses, up to
    ///   LBD-based reduction — anything dropped was logically implied,
    ///   so verdicts can never change);
    /// - variable activities and saved phases, which is what makes the
    ///   DIP loop's consecutive, similar queries fast;
    /// - the statistics counters.
    ///
    /// Assumptions are placed as the first decisions, in slice order,
    /// so the call is deterministic: same solver history + same
    /// assumptions ⇒ same result, bit for bit.
    ///
    /// # Example
    ///
    /// ```
    /// use mlam_sat::{Lit, SatResult, Solver};
    ///
    /// let mut s = Solver::new();
    /// let (a, b) = (s.new_var(), s.new_var());
    /// s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
    /// // Under ¬a the clause forces b…
    /// match s.solve_assuming(&[Lit::neg(a)]) {
    ///     SatResult::Sat(m) => assert!(m.value(b)),
    ///     SatResult::Unsat => unreachable!(),
    /// }
    /// // …and the assumption does not outlive the call.
    /// assert!(s.solve_assuming(&[Lit::pos(a)]).is_sat());
    /// ```
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SatResult {
        // Every assumption opens a decision level, even one that is
        // already true, so levels run up to `num_vars + assumptions`.
        let levels = self.num_vars() + assumptions.len();
        if self.level_stamp.len() < levels {
            self.level_stamp.resize(levels, 0);
        }
        let before = self.stats;
        if !assumptions.is_empty() {
            self.stats.assumption_solves += 1;
        }
        let result = self.search(assumptions);
        #[cfg(debug_assertions)]
        if let SatResult::Sat(model) = &result {
            self.check_model(model, assumptions);
        }
        // Publish the per-call deltas so attack-level telemetry sees
        // solver work even when solver instances are short-lived.
        let delta = self.stats.since(&before);
        mlam_telemetry::counter!("sat.solve_calls", 1);
        mlam_telemetry::counter!("sat.conflicts", delta.conflicts);
        mlam_telemetry::counter!("sat.decisions", delta.decisions);
        mlam_telemetry::counter!("sat.propagations", delta.propagations);
        mlam_telemetry::counter!("sat.restarts", delta.restarts);
        mlam_telemetry::counter!("sat.learnts", delta.learnts);
        mlam_telemetry::counter!("sat.lbd_reductions", delta.lbd_reductions);
        mlam_telemetry::counter!("sat.assumption_solves", delta.assumption_solves);
        mlam_telemetry::histogram!("sat.conflicts_per_call", delta.conflicts);
        result
    }

    fn search(&mut self, assumptions: &[Lit]) -> SatResult {
        if self.unsat {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }

        let mut conflicts_since_restart = 0u64;
        let mut restart_unit = 0usize;
        let mut restart_limit = luby(restart_unit) * 64;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                // Conflicts below or at the assumption levels mean the
                // assumptions are inconsistent: analyze normally, but if
                // the backjump target is within the assumption prefix we
                // must re-establish assumptions; simplest correct rule:
                // if all conflict levels are within assumptions, UNSAT.
                let learnt = self.analyze(confl);
                self.stats.learnts += 1;
                let assumption_levels = self.assumption_levels(assumptions);
                if self.decision_level() <= assumption_levels {
                    self.cancel_until(0);
                    return SatResult::Unsat;
                }
                if learnt.lits.len() == 1 {
                    // A unit learnt is implied by the clause database
                    // alone (assumption decisions enter the clause as
                    // ordinary literals), so it belongs at level 0 —
                    // enqueueing it reasonless inside the assumption
                    // prefix would break the "non-decision has a
                    // reason" invariant of later conflict analyses.
                    // The decision loop re-places the assumptions.
                    self.cancel_until(0);
                    if !self.enqueue(learnt.lits[0], NO_REASON) {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                } else {
                    let target = learnt.backjump.max(assumption_levels);
                    self.cancel_until(target);
                    let asserting = learnt.lits[0];
                    let cref = self.attach_clause(&learnt.lits, true, learnt.lbd);
                    let ok = self.enqueue(asserting, cref);
                    debug_assert!(ok, "asserting literal must enqueue");
                }
                self.vsids.decay();
                self.db.decay();

                if self.stats.conflicts - self.db.conflicts_at_reduce >= self.db.reduce_limit {
                    self.db.conflicts_at_reduce = self.stats.conflicts;
                    self.db.reduce_limit += 500;
                    self.reduce_db();
                }
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_unit += 1;
                    restart_limit = luby(restart_unit) * 64;
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            } else {
                // Place assumptions first.
                if (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        Some(true) => {
                            // Already satisfied: open a level anyway to
                            // keep the level/assumption indexing aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            self.cancel_until(0);
                            return SatResult::Unsat;
                        }
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.stats.decisions += 1;
                            let ok = self.enqueue(a, NO_REASON);
                            debug_assert!(ok);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => {
                        // All variables assigned: SAT. A variable's value
                        // is its positive literal's.
                        let model = Model {
                            values: self
                                .vals
                                .iter()
                                .step_by(2)
                                .map(|&v| v == Some(true))
                                .collect(),
                        };
                        self.cancel_until(0);
                        return SatResult::Sat(model);
                    }
                    Some(lit) => {
                        self.trail_lim.push(self.trail.len());
                        self.stats.decisions += 1;
                        let ok = self.enqueue(lit, NO_REASON);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }

    /// Pops the most active unassigned variable off the VSIDS heap and
    /// pairs it with its saved phase. `None` means every variable is
    /// assigned — the search found a model.
    ///
    /// Two facts make the choice independent of the heap's layout and
    /// of which assigned entries linger in it:
    ///
    /// 1. every unassigned variable is in the heap: `new_var` inserts
    ///    it, `cancel_until` re-inserts it when it is unassigned, and
    ///    this loop pops only assigned entries and the one it decides;
    /// 2. (activity descending, index ascending) is a strict total
    ///    order, so the heap's maximum is unique.
    ///
    /// The first unassigned entry popped is therefore the maximum over
    /// all unassigned variables. So a full trail returns `None` at
    /// once, without draining the assigned entries left in the heap:
    /// the decisions after the next backjump are the same either way.
    fn pick_branch(&mut self) -> Option<Lit> {
        debug_assert!(
            (0..self.num_vars()).all(|v| {
                let v = Var(v as u32);
                self.lit_value(Lit::pos(v)).is_some() || self.vsids.contains(v)
            }),
            "an unassigned variable is missing from the VSIDS heap"
        );
        if self.trail.len() == self.num_vars() {
            return None;
        }
        loop {
            let v = self
                .vsids
                .pop_max()
                .expect("an unassigned variable is queued");
            if self.lit_value(Lit::pos(v)).is_none() {
                return Some(Lit::new(v, !self.vsids.saved_phase(v)));
            }
            // Lazy deletion: assigned entries are discarded here and
            // re-inserted by `cancel_until` when unassigned.
        }
    }

    /// Number of decision levels occupied by assumptions.
    fn assumption_levels(&self, assumptions: &[Lit]) -> u32 {
        (assumptions.len() as u32).min(self.decision_level())
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,…
pub(crate) fn luby(i: usize) -> u64 {
    // Find the subsequence containing index i.
    let mut k = 1u32;
    loop {
        if i + 2 == (1usize << k) {
            return 1u64 << (k - 1);
        }
        if i + 2 < (1usize << k) {
            return luby(i + 1 - (1usize << (k - 1)));
        }
        k += 1;
    }
}
