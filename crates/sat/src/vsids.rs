//! The VSIDS decision heuristic: an indexed binary max-heap over
//! exponentially-decayed variable activities, plus saved phases.
//!
//! The heap replaces the seed solver's `O(n)` scan over all variables
//! per decision with `O(log n)` pops; on attack-sized miters (tens of
//! thousands of variables after a few dozen DIPs) the scan was a
//! dominant cost. Determinism: the heap orders variables by one packed
//! key, activity descending and then index ascending — a strict total
//! order — and the heap itself is only mutated by the
//! (single-threaded) search loop, so decision sequences are a pure
//! function of the clause set and the call sequence.

use crate::types::Var;

/// Sentinel for "not currently in the heap".
const ABSENT: u32 = u32::MAX;

/// Activity-ordered variable queue with saved phases.
#[derive(Clone, Debug)]
pub(crate) struct Vsids {
    /// Binary max-heap of variable indices.
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or [`ABSENT`].
    position: Vec<u32>,
    /// Bump-and-decay activity per variable: finite and ≥ 0.
    activity: Vec<f64>,
    /// Activity increment (inflated on decay, rescaled on overflow).
    inc: f64,
    /// Saved phase per variable: the polarity it last held.
    phase: Vec<bool>,
}

impl Default for Vsids {
    fn default() -> Self {
        Vsids {
            heap: Vec::new(),
            position: Vec::new(),
            activity: Vec::new(),
            inc: 1.0,
            phase: Vec::new(),
        }
    }
}

impl Vsids {
    /// Registers a fresh variable (initial activity 0, phase `false`)
    /// and enqueues it for decision.
    pub fn new_var(&mut self) {
        let v = self.activity.len() as u32;
        self.activity.push(0.0);
        self.phase.push(false);
        self.position.push(ABSENT);
        self.insert(Var(v));
    }

    /// The saved phase of `v`.
    pub fn saved_phase(&self, v: Var) -> bool {
        self.phase[v.index()]
    }

    /// Records the polarity `v` was just assigned.
    pub fn save_phase(&mut self, v: Var, value: bool) {
        self.phase[v.index()] = value;
    }

    /// Bumps `v`'s activity, rescaling everything when values overflow
    /// the comfortable float range.
    pub fn bump(&mut self, v: Var) {
        let i = v.index();
        self.activity[i] += self.inc;
        if self.contains(v) {
            self.sift_up(self.position[i] as usize);
        }
        if self.activity[i] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.inc *= 1e-100;
            // Scaling keeps the order of activities but can merge two of
            // them (rounding, underflow to 0), and a merged pair then
            // ranks by index: sift every entry again so the heap stays
            // ordered. Where nothing merged, no entry moves.
            for j in (0..self.heap.len() / 2).rev() {
                self.sift_down(j);
            }
        }
    }

    /// Decays all activities by inflating the increment.
    pub fn decay(&mut self) {
        self.inc /= 0.95;
    }

    /// Re-enqueues `v` (no-op if already queued). Called when
    /// backtracking unassigns variables.
    pub fn insert(&mut self, v: Var) {
        if self.contains(v) {
            return;
        }
        self.position[v.index()] = self.heap.len() as u32;
        self.heap.push(v.0);
        self.sift_up(self.heap.len() - 1);
    }

    /// Whether `v` is queued.
    pub fn contains(&self, v: Var) -> bool {
        self.position[v.index()] != ABSENT
    }

    /// Pops the queued variable with maximal activity (smallest index
    /// on ties). The caller skips already-assigned variables — lazy
    /// deletion keeps assignment out of the heap's concern.
    pub fn pop_max(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty heap");
        self.position[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = 0;
            self.sift_down(0);
        }
        Some(Var(top))
    }

    /// The heap key of `v`: higher activity first, smaller index on
    /// ties. Activities are finite and ≥ 0, so their bit patterns
    /// order like their values.
    #[inline]
    fn key(&self, v: u32) -> u128 {
        u128::from(self.activity[v as usize].to_bits()) << 32 | u128::from(!v)
    }

    /// Moves the entry at `i` up to its place, shifting the parents it
    /// passes down into the hole it leaves.
    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        let key = self.key(v);
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if key <= self.key(p) {
                break;
            }
            self.place(p, i);
            i = parent;
        }
        self.place(v, i);
    }

    /// Moves the entry at `i` down to its place, shifting the larger
    /// child up into the hole at each level.
    fn sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        let key = self.key(v);
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            if l >= self.heap.len() {
                break;
            }
            let child = if r < self.heap.len() && self.key(self.heap[r]) > self.key(self.heap[l]) {
                r
            } else {
                l
            };
            let c = self.heap[child];
            if self.key(c) <= key {
                break;
            }
            self.place(c, i);
            i = child;
        }
        self.place(v, i);
    }

    /// Stores variable `v` at heap slot `i`.
    fn place(&mut self, v: u32, i: usize) {
        self.heap[i] = v;
        self.position[v as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::prop::sample::Index;

    #[test]
    fn pops_by_activity_then_index() {
        let mut v = Vsids::default();
        for _ in 0..5 {
            v.new_var();
        }
        v.bump(Var(3));
        v.bump(Var(3));
        v.bump(Var(1));
        assert_eq!(v.pop_max(), Some(Var(3)));
        assert_eq!(v.pop_max(), Some(Var(1)));
        // Remaining activities tie at 0.0: index order.
        assert_eq!(v.pop_max(), Some(Var(0)));
        assert_eq!(v.pop_max(), Some(Var(2)));
        assert_eq!(v.pop_max(), Some(Var(4)));
        assert_eq!(v.pop_max(), None);
    }

    #[test]
    fn reinsert_is_idempotent() {
        let mut v = Vsids::default();
        for _ in 0..3 {
            v.new_var();
        }
        v.insert(Var(0));
        v.insert(Var(0));
        assert_eq!(v.pop_max(), Some(Var(0)));
        assert_eq!(v.pop_max(), Some(Var(1)));
        assert_eq!(v.pop_max(), Some(Var(2)));
        assert_eq!(v.pop_max(), None);
        v.insert(Var(1));
        assert_eq!(v.pop_max(), Some(Var(1)));
    }

    #[test]
    fn decay_then_bump_outranks_old_activity() {
        let mut v = Vsids::default();
        for _ in 0..2 {
            v.new_var();
        }
        v.bump(Var(0));
        for _ in 0..200 {
            v.decay();
        }
        v.bump(Var(1)); // one fresh bump beats an old one after decay
        assert_eq!(v.pop_max(), Some(Var(1)));
    }

    /// Decays until the increment is about to cross the rescale
    /// threshold, then bumps `v` over it.
    fn rescale_via(v: &mut Vsids, var: Var) {
        for _ in 0..4_500 {
            v.decay();
        }
        v.bump(var);
    }

    #[test]
    fn a_rescale_that_merges_activities_keeps_the_heap_ordered() {
        let mut v = Vsids::default();
        for _ in 0..3 {
            v.new_var();
        }
        // Var 0 drives the rescales from outside the heap.
        assert_eq!(v.pop_max(), Some(Var(0)));
        // Var 2 outranks var 1 and sits above it in the heap.
        v.bump(Var(2));
        assert_eq!(v.heap, [2, 1]);
        // Four rescales by 1e-100 underflow var 2's activity of 1 to 0,
        // var 1's: the tie now ranks var 1 first.
        for _ in 0..4 {
            rescale_via(&mut v, Var(0));
        }
        assert_eq!(v.activity[1], 0.0);
        assert_eq!(v.activity[2], 0.0);
        assert_eq!(v.pop_max(), Some(Var(1)));
        assert_eq!(v.pop_max(), Some(Var(2)));
    }

    #[derive(Clone, Debug)]
    enum Op {
        NewVar,
        Bump(Index),
        Decay(u16),
        Insert(Index),
        PopMax,
    }

    /// Ops weighted 1 : 4 : 2 : 2 : 3 (new var, bump, decay, insert,
    /// pop). A few thousand decays carry the increment past 1e100, so
    /// long sequences cross several rescales.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..12, any::<Index>(), 1..3_000u16).prop_map(|(kind, i, times)| match kind {
            0 => Op::NewVar,
            1..=4 => Op::Bump(i),
            5..=6 => Op::Decay(times),
            7..=8 => Op::Insert(i),
            _ => Op::PopMax,
        })
    }

    proptest! {
        /// Every pop is the maximum, under (activity descending, index
        /// ascending), of a plain list of the queued variables whose
        /// activities follow the same arithmetic — across rescales.
        #[test]
        fn pops_match_a_reference_list(ops in prop::collection::vec(op(), 1..300)) {
            let mut heap = Vsids::default();
            let mut activity: Vec<f64> = Vec::new();
            let mut inc = 1.0f64;
            let mut queued: Vec<bool> = Vec::new();
            for op in ops {
                let n = activity.len();
                match op {
                    Op::NewVar => {
                        heap.new_var();
                        activity.push(0.0);
                        queued.push(true);
                    }
                    Op::Bump(i) if n > 0 => {
                        let v = i.index(n);
                        heap.bump(Var(v as u32));
                        activity[v] += inc;
                        if activity[v] > 1e100 {
                            for a in &mut activity {
                                *a *= 1e-100;
                            }
                            inc *= 1e-100;
                        }
                    }
                    Op::Decay(times) => {
                        for _ in 0..times {
                            heap.decay();
                            inc /= 0.95;
                        }
                    }
                    Op::Insert(i) if n > 0 => {
                        let v = i.index(n);
                        heap.insert(Var(v as u32));
                        queued[v] = true;
                    }
                    Op::PopMax => {
                        let expected = (0..n).filter(|&v| queued[v]).max_by(|&a, &b| {
                            activity[a].total_cmp(&activity[b]).then(b.cmp(&a))
                        });
                        if let Some(v) = expected {
                            queued[v] = false;
                        }
                        prop_assert_eq!(heap.pop_max(), expected.map(|v| Var(v as u32)));
                    }
                    Op::Bump(_) | Op::Insert(_) => {}
                }
            }
        }
    }
}
