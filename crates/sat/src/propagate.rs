//! Two-watched-literal unit propagation.
//!
//! Invariants maintained here and relied on everywhere else:
//!
//! - every clause of length ≥ 2 has exactly two watchers, on its
//!   literal positions 0 and 1;
//! - a watched literal is only allowed to become false if the clause's
//!   other watch is true, or the clause is unit/conflicting — i.e.
//!   watches always sit on non-false literals while the clause is
//!   undetermined;
//! - when a clause propagates, the propagated literal is moved to
//!   position 0 (conflict analysis and the locked-clause check in
//!   `reduce_db` both key on `lits[0]`).
//!
//! Each watcher carries a *blocker* literal (some other literal of the
//! clause, usually the other watch): if the blocker is already true the
//! clause is satisfied and the watcher is skipped without touching the
//! clause memory at all — the classic MiniSat cache-miss saver, which
//! matters on attack miters where watch lists grow with every DIP.

use crate::clause::{ClauseRef, NO_REASON};
use crate::solver::Solver;
use crate::types::Lit;

/// One entry in a watch list.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Watcher {
    /// The watching clause.
    pub cref: ClauseRef,
    /// A literal of the clause whose truth satisfies the clause;
    /// checked before the clause itself is loaded.
    pub blocker: Lit,
}

// Eight watchers share a 64-byte cache line.
const _: () = assert!(std::mem::size_of::<Watcher>() == 8);

impl Solver {
    /// Stores a clause and installs its two watchers. `lbd` is the
    /// literal-block distance for learnt clauses (0 for originals).
    pub(crate) fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let (w0, w1) = (lits[0], lits[1]);
        let cref = self.db.push(lits, learnt, lbd);
        self.watches[w0.code()].push(Watcher { cref, blocker: w1 });
        self.watches[w1.code()].push(Watcher { cref, blocker: w0 });
        if learnt {
            self.stats.learnt_clauses += 1;
        }
        cref
    }

    /// Rebuilds every watch list from the clause arena (used after
    /// database reduction compacts clause references).
    pub(crate) fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        for cref in self.db.crefs() {
            let lits = self.db.lits(cref);
            let (w0, w1) = (lits[0], lits[1]);
            self.watches[w0.code()].push(Watcher { cref, blocker: w1 });
            self.watches[w1.code()].push(Watcher { cref, blocker: w0 });
        }
    }

    /// Enqueues a literal as true. Returns false on conflict with the
    /// current assignment.
    pub(crate) fn enqueue(&mut self, l: Lit, reason: ClauseRef) -> bool {
        match self.lit_value(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let v = l.var();
                self.vals[l.code()] = Some(true);
                self.vals[l.negate().code()] = Some(false);
                self.level[v.index()] = self.decision_level();
                self.reason[v.index()] = reason;
                self.vsids.save_phase(v, !l.is_negated());
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation to fixpoint; returns the conflicting clause if
    /// any.
    pub(crate) fn propagate(&mut self) -> Option<ClauseRef> {
        while self.queue_head < self.trail.len() {
            let p = self.trail[self.queue_head];
            self.queue_head += 1;
            self.stats.propagations += 1;
            let false_lit = p.negate();
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < watch_list.len() {
                let Watcher { cref, blocker } = watch_list[i];
                // Blocker short-circuit: satisfied clause, watcher stays.
                if self.vals[blocker.code()] == Some(true) {
                    i += 1;
                    continue;
                }
                let lits = self.db.lits_mut(cref);
                // Make sure the false literal is at position 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let w0 = lits[0];
                // If the other watch is true, the clause is satisfied;
                // remember it as the blocker for next time.
                if self.vals[w0.code()] == Some(true) {
                    watch_list[i].blocker = w0;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                if let Some(k) = (2..lits.len()).find(|&k| self.vals[lits[k].code()] != Some(false))
                {
                    let lk = lits[k];
                    lits.swap(1, k);
                    self.watches[lk.code()].push(Watcher { cref, blocker: w0 });
                    watch_list.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting on w0.
                watch_list[i].blocker = w0;
                if !self.enqueue(w0, cref) {
                    // Conflict: restore watch list and return.
                    self.watches[false_lit.code()] = watch_list;
                    self.queue_head = self.trail.len();
                    return Some(cref);
                }
                i += 1;
            }
            self.watches[false_lit.code()] = watch_list;
        }
        None
    }

    /// Undoes assignments above `level`, re-enqueueing the freed
    /// variables for decision (which keeps every unassigned variable
    /// in the VSIDS heap).
    pub(crate) fn cancel_until(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("non-empty trail");
                let v = l.var();
                self.vals[l.code()] = None;
                self.vals[l.negate().code()] = None;
                self.reason[v.index()] = NO_REASON;
                self.vsids.insert(v);
            }
        }
        self.queue_head = self.trail.len();
    }
}
