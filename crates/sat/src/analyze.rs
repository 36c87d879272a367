//! First-UIP conflict analysis, conflict-clause minimization, and LBD
//! computation.

use crate::clause::{ClauseRef, NO_REASON};
use crate::solver::Solver;
use crate::types::Lit;

/// What one conflict analysis produced.
pub(crate) struct Learnt {
    /// The learnt clause, asserting literal first. A literal of the
    /// backjump level sits at position 1 (watch invariant after
    /// backjumping).
    pub lits: Vec<Lit>,
    /// The level to backjump to.
    pub backjump: u32,
    /// Literal-block distance of the learnt clause.
    pub lbd: u32,
}

impl Solver {
    /// First-UIP conflict analysis.
    ///
    /// Walks the implication graph backwards from the conflicting
    /// clause, resolving on current-level literals until a single one
    /// (the first unique implication point) remains; bumps the VSIDS
    /// activity of every variable involved; then shrinks the clause
    /// with [`minimize`](Solver::minimize) and computes its LBD.
    pub(crate) fn analyze(&mut self, confl: ClauseRef) -> Learnt {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut trail_idx = self.trail.len();
        let mut confl = confl;
        let current_level = self.decision_level();

        loop {
            if self.db.is_learnt(confl) {
                self.db.bump(confl);
            }
            let start = usize::from(p.is_some());
            for &q in &self.db.lits(confl)[start..] {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.vsids.bump(v);
                    if self.level[v.index()] == current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next seen literal on the trail.
            loop {
                trail_idx -= 1;
                if self.seen[self.trail[trail_idx].var().index()] {
                    break;
                }
            }
            let q = self.trail[trail_idx];
            let v = q.var().index();
            self.seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(q);
                break;
            }
            confl = self.reason[v];
            debug_assert_ne!(confl, NO_REASON, "non-decision must have a reason");
            // The reason clause's first literal is q itself; skip it via
            // `start` above.
            debug_assert_eq!(self.db.lits(confl)[0], q);
            p = Some(q);
        }
        learnt[0] = p.expect("UIP found").negate();

        // Shrink while the non-UIP literals' seen flags are still set
        // (minimize keys on them).
        self.minimize(&mut learnt);

        // Clear the seen flags of the surviving literals. (Flags of
        // minimized-away literals are cleared inside `minimize`.)
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }

        let backjump = learnt[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        // Move a literal of the backjump level to position 1 (watch
        // invariant after backjumping).
        if learnt.len() > 1 {
            let pos = learnt[1..]
                .iter()
                .position(|l| self.level[l.var().index()] == backjump)
                .expect("literal at backjump level")
                + 1;
            learnt.swap(1, pos);
        }
        let lbd = self.clause_lbd(&learnt);
        Learnt {
            lits: learnt,
            backjump,
            lbd,
        }
    }

    /// Local ("basic") conflict-clause minimization: a non-UIP literal
    /// is redundant if its reason clause is subsumed by the learnt
    /// clause itself — every antecedent literal is either already in
    /// the clause (its seen flag is set) or fixed at level 0. Such a
    /// literal is implied by the rest of the clause and can be dropped
    /// without weakening it.
    fn minimize(&mut self, learnt: &mut Vec<Lit>) {
        let before = learnt.len();
        let mut kept = 1usize;
        for i in 1..learnt.len() {
            let q = learnt[i];
            let r = self.reason[q.var().index()];
            let redundant = r != NO_REASON
                && self.db.lits(r)[1..]
                    .iter()
                    .all(|&a| self.seen[a.var().index()] || self.level[a.var().index()] == 0);
            if redundant {
                self.seen[q.var().index()] = false;
            } else {
                learnt[kept] = q;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        self.stats.minimized_literals += (before - kept) as u64;
    }

    /// Literal-block distance: the number of distinct decision levels
    /// among the clause's literals (level 0 excluded — root-fixed
    /// literals carry no glue information).
    pub(crate) fn clause_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.stamp += 1;
        let mut lbd = 0u32;
        for l in lits {
            let lvl = self.level[l.var().index()] as usize;
            // Levels run 1..=num_vars + assumptions (`solve_assuming`
            // sizes the stamps); stamp slot `lvl - 1`.
            if lvl > 0 && self.level_stamp[lvl - 1] != self.stamp {
                self.level_stamp[lvl - 1] = self.stamp;
                lbd += 1;
            }
        }
        lbd
    }
}
