//! The clause database: one flat arena holding every original and
//! learnt clause, clause activity and LBD ("glue") bookkeeping, and the
//! LBD-driven learnt-clause reduction policy.
//!
//! A clause is a run of words in [`ClauseDb`]'s arena, addressed by
//! the offset of its first word ([`ClauseRef`], a `u32`):
//!
//! ```text
//! original:  [header] [lit 0] [lit 1] … [lit n-1]
//! learnt:    [header] [lit 0] [lit 1] … [lit n-1] [lbd] [activity lo] [activity hi]
//! ```
//!
//! The header packs the length and the learnt flag. Only learnt
//! clauses carry an LBD and an activity (an `f64` split over two
//! words), after their literals, so an original clause costs one word
//! beyond its literals and every clause's literals start right after
//! its header. Reduction compacts the arena in clause order, so clause
//! references are only stable *between* reductions — the solver
//! rebuilds its watch lists and remaps its reason pointers whenever
//! [`Solver::reduce_db`] runs.

use crate::solver::Solver;
use crate::types::Lit;
use std::ops::Range;

/// Offset of a clause's header word in the arena.
pub(crate) type ClauseRef = u32;

/// Sentinel: "no reason clause" (decision or assumption). No clause
/// starts there: [`ClauseDb::push`] refuses the offset.
pub(crate) const NO_REASON: ClauseRef = u32::MAX;

/// Header bit: the clause was learnt (original clauses are never
/// dropped by reduction).
const LEARNT: u32 = 1;
/// Header bit: reduction drops the clause at the next compaction.
const DELETED: u32 = 2;
/// The header keeps the clause length above its two flag bits.
const LEN_SHIFT: u32 = 2;
/// Words a learnt clause stores after its literals: LBD and activity.
const LEARNT_WORDS: usize = 3;

/// The clause arena plus the activity/decay state shared by all learnt
/// clauses.
#[derive(Clone, Debug)]
pub(crate) struct ClauseDb {
    /// Every clause's words, back to back, in insertion order. Header
    /// and metadata words hold raw `u32`s in a `Lit` so that a clause's
    /// literals can be lent out as `&[Lit]`; only this module reads
    /// them.
    arena: Vec<Lit>,
    /// Clauses currently stored (original + learnt).
    len: usize,
    /// Clause-activity increment (decayed geometrically).
    cla_inc: f64,
    /// Conflicts required before the next reduction.
    pub(crate) reduce_limit: u64,
    /// Conflict count at the last reduction.
    pub(crate) conflicts_at_reduce: u64,
}

/// Learnt clauses at or below this LBD are glue clauses: kept forever,
/// like binary clauses.
pub(crate) const GLUE_LBD: u32 = 2;

impl Default for ClauseDb {
    fn default() -> Self {
        ClauseDb {
            arena: Vec::new(),
            len: 0,
            cla_inc: 1.0,
            reduce_limit: 2000,
            conflicts_at_reduce: 0,
        }
    }
}

/// The reference of the clause starting at arena offset `offset`.
fn cref_at(offset: usize) -> ClauseRef {
    ClauseRef::try_from(offset)
        .ok()
        .filter(|&c| c != NO_REASON)
        .expect("clause arena exceeds u32 offsets")
}

impl ClauseDb {
    /// Number of clauses currently stored (original + learnt).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Appends a clause and returns its reference. `lbd` is only
    /// stored for learnt clauses, whose activity starts at 0.
    pub fn push(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        let cref = cref_at(self.arena.len());
        let header = u32::try_from(lits.len() << LEN_SHIFT).expect("clause length fits its header");
        self.arena.push(Lit(header | u32::from(learnt)));
        self.arena.extend_from_slice(lits);
        if learnt {
            // The LBD, then the activity 0.0, whose bits are all zero.
            self.arena.extend_from_slice(&[Lit(lbd), Lit(0), Lit(0)]);
        }
        self.len += 1;
        cref
    }

    fn header(&self, cref: ClauseRef) -> u32 {
        self.arena[cref as usize].0
    }

    fn clause_len(&self, cref: ClauseRef) -> usize {
        (self.header(cref) >> LEN_SHIFT) as usize
    }

    /// Whether the clause was learnt.
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.header(cref) & LEARNT != 0
    }

    /// Where the clause's literals sit in the arena: right after its
    /// header.
    #[inline]
    fn lit_range(&self, cref: ClauseRef) -> Range<usize> {
        let start = cref as usize + 1;
        start..start + self.clause_len(cref)
    }

    /// The clause's literals. Positions 0 and 1 are the watched ones.
    #[inline]
    pub fn lits(&self, cref: ClauseRef) -> &[Lit] {
        &self.arena[self.lit_range(cref)]
    }

    /// The clause's literals, for the watch swaps of propagation.
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [Lit] {
        let range = self.lit_range(cref);
        &mut self.arena[range]
    }

    /// Arena offset of a learnt clause's first metadata word.
    fn meta(&self, cref: ClauseRef) -> usize {
        debug_assert!(self.is_learnt(cref), "only learnt clauses carry metadata");
        self.lit_range(cref).end
    }

    /// Literal-block distance of a learnt clause at learning time: the
    /// number of distinct decision levels in it. Small LBD ("glue")
    /// clauses are the ones worth keeping forever.
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.arena[self.meta(cref)].0
    }

    /// Bump-and-decay activity of a learnt clause, the tie-breaker
    /// within an LBD class.
    pub fn activity(&self, cref: ClauseRef) -> f64 {
        let m = self.meta(cref);
        f64::from_bits(u64::from(self.arena[m + 1].0) | u64::from(self.arena[m + 2].0) << 32)
    }

    fn set_activity(&mut self, cref: ClauseRef, activity: f64) {
        let m = self.meta(cref);
        let bits = activity.to_bits();
        // Low word, then high word.
        self.arena[m + 1] = Lit(bits as u32);
        self.arena[m + 2] = Lit((bits >> 32) as u32);
    }

    /// Words the clause occupies in the arena.
    fn size(&self, cref: ClauseRef) -> usize {
        let meta = if self.is_learnt(cref) {
            LEARNT_WORDS
        } else {
            0
        };
        1 + self.clause_len(cref) + meta
    }

    /// Every clause reference, in arena (= insertion) order.
    pub fn crefs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let first = (!self.arena.is_empty()).then_some(0);
        std::iter::successors(first, move |&cref| {
            let next = cref as usize + self.size(cref);
            (next < self.arena.len()).then(|| cref_at(next))
        })
    }

    /// Bumps a clause's activity, rescaling all learnt activities when
    /// the values grow too large.
    pub fn bump(&mut self, cref: ClauseRef) {
        let activity = self.activity(cref) + self.cla_inc;
        self.set_activity(cref, activity);
        if activity > 1e20 {
            let inc = self.cla_inc;
            let learnt: Vec<ClauseRef> = self.crefs().filter(|&c| self.is_learnt(c)).collect();
            for c in learnt {
                self.set_activity(c, self.activity(c) / inc);
            }
            self.cla_inc = 1.0;
        }
    }

    /// Decays all clause activities by inflating the increment.
    pub fn decay(&mut self) {
        self.cla_inc /= 0.999;
    }

    /// Marks a clause to be dropped by the next [`compact`](Self::compact).
    fn delete(&mut self, cref: ClauseRef) {
        self.arena[cref as usize].0 |= DELETED;
    }

    /// Drops the deleted clauses and slides the rest down, keeping
    /// their order. Returns `(old, new)` references of the kept
    /// clauses, ascending in both.
    fn compact(&mut self) -> Vec<(ClauseRef, ClauseRef)> {
        let mut moved = Vec::with_capacity(self.len);
        let (mut from, mut to) = (0, 0);
        while from < self.arena.len() {
            let cref = cref_at(from);
            let size = self.size(cref);
            if self.header(cref) & DELETED == 0 {
                self.arena.copy_within(from..from + size, to);
                moved.push((cref, cref_at(to)));
                to += size;
            }
            from += size;
        }
        self.arena.truncate(to);
        self.len = moved.len();
        moved
    }
}

impl Solver {
    /// Reduces the learnt-clause database.
    ///
    /// Keep rules, in order:
    /// - original clauses are never touched;
    /// - binary and glue (LBD ≤ [`GLUE_LBD`]) learnt clauses are kept;
    /// - *locked* clauses (the reason of a current assignment) are
    ///   kept;
    /// - of the rest, the better half survives, ordered by (LBD
    ///   ascending, activity descending) — glue first, then recency of
    ///   use.
    ///
    /// The arena is compacted in clause order afterwards; watch lists
    /// and reason pointers are rebuilt against the moved references.
    pub(crate) fn reduce_db(&mut self) {
        let db = &self.db;
        let mut candidates: Vec<ClauseRef> = db
            .crefs()
            .filter(|&c| {
                db.is_learnt(c)
                    && db.lits(c).len() > 2
                    && db.lbd(c) > GLUE_LBD
                    && !self.is_locked(c)
            })
            .collect();
        if candidates.len() < 100 {
            return;
        }
        // Deterministic order: LBD ascending, then activity descending,
        // then arena offset (insertion order) as the final tie-break.
        candidates.sort_by(|&a, &b| {
            db.lbd(a)
                .cmp(&db.lbd(b))
                .then(db.activity(b).total_cmp(&db.activity(a)))
                .then(a.cmp(&b))
        });
        for &cref in &candidates[candidates.len() / 2..] {
            self.db.delete(cref);
        }

        let moved = self.db.compact();
        self.rebuild_watches();
        for r in &mut self.reason {
            if *r != NO_REASON {
                let i = moved
                    .binary_search_by_key(r, |&(old, _)| old)
                    .expect("a locked clause is never dropped");
                *r = moved[i].1;
            }
        }
        let db = &self.db;
        self.stats.learnt_clauses = db.crefs().filter(|&c| db.is_learnt(c)).count();
        self.stats.lbd_reductions += 1;
    }

    /// Whether the clause is the reason of a currently-assigned
    /// variable (its first literal is the one it propagated).
    fn is_locked(&self, cref: ClauseRef) -> bool {
        self.reason[self.db.lits(cref)[0].var().index()] == cref
    }
}
