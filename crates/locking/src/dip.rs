//! The persistent miter solver behind the SAT and AppSAT attacks.
//!
//! The seed implementation held *two* solvers (a miter and a separate
//! key-consistency instance) and paid for three fresh circuit copies
//! per DIP, with every solve starting the search from scratch. The
//! incremental architecture here keeps **one** [`Solver`] alive for
//! the whole attack:
//!
//! - every circuit copy comes from one forward walk over the netlist
//!   in which each net is a constant or a solver literal. The key nets
//!   are the miter's own key variables, NOT/BUF/NAND/NOR/XNOR are
//!   literal negations, and constants fold through every gate. Only a
//!   gate left with two or more non-constant inputs gets a fresh
//!   variable and its Tseitin clauses;
//! - the miter is two *free* copies, encoded once: both read the same
//!   input variables and each has its own key vector. Each output pair
//!   is XORed, and the "some output differs" clause over the XORs is
//!   gated by a selector literal, so the same instance answers both
//!   questions the attack asks —
//!   [`find_dip`](DipSolver::find_dip) solves assuming the selector
//!   (differ-mode), [`extract_key`](DipSolver::extract_key) solves
//!   assuming its negation (consistency-mode, the differs clause
//!   trivially satisfied). The separate key solver is gone, and so is
//!   its per-DIP circuit copy;
//! - each DIP adds two *pinned* copies, one per key vector: the DIP's
//!   inputs are constants and each output is pinned to the response by
//!   a unit clause. A pinned copy therefore costs only its
//!   key-dependent cone (on SARLock, three gate variables over the key
//!   bits), so later solves never propagate through earlier copies'
//!   constant logic;
//! - learnt clauses, VSIDS activities and saved phases survive across
//!   all of these calls (`mlam-sat`'s incremental contract), so every
//!   DIP iteration starts from everything the previous ones proved.
//!
//! Determinism: the solver is single-threaded and
//! assumption-deterministic, so the DIP sequence, the recovered key
//! and every counter are a pure function of the locked netlist — at
//! any `MLAM_THREADS` setting.

use crate::combinational::LockedNetlist;
use mlam_boolean::BitVec;
use mlam_netlist::GateKind;
use mlam_sat::{Lit, SatResult, Solver, SolverStats, Var};

/// One persistent solver instance driving an oracle-guided attack.
///
/// The DIP loop is three calls in a cycle:
/// [`find_dip`](DipSolver::find_dip) →
/// oracle query (the caller's business) →
/// [`constrain`](DipSolver::constrain); when `find_dip` returns
/// `None` the accumulated constraints admit only correct keys and
/// [`extract_key`](DipSolver::extract_key) finishes the attack.
#[derive(Debug)]
pub struct DipSolver<'a> {
    locked: &'a LockedNetlist,
    solver: Solver,
    /// Shared primary inputs of the two miter copies.
    inputs: Vec<Var>,
    /// Key vector of miter copy A (also the one models are read from).
    key_a: Vec<Var>,
    /// Key vector of miter copy B.
    key_b: Vec<Var>,
    /// Assuming this literal activates the "some output differs"
    /// clause; assuming its negation neutralizes it.
    differ: Lit,
    /// DIP constraints added so far.
    dips: usize,
}

impl<'a> DipSolver<'a> {
    /// Encodes the miter for `locked` into a fresh persistent solver.
    pub fn new(locked: &'a LockedNetlist) -> DipSolver<'a> {
        let mut solver = Solver::new();
        let inputs = solver.new_vars(locked.num_primary_inputs());
        let shared: Vec<Folded> = inputs.iter().map(|&v| Folded::Lit(Lit::pos(v))).collect();
        let key_a = solver.new_vars(locked.num_key_bits());
        let out_a = encode_copy(locked, &mut solver, &shared, &key_a);
        let key_b = solver.new_vars(locked.num_key_bits());
        let out_b = encode_copy(locked, &mut solver, &shared, &key_b);
        // Some output differs — gated: (d₁ ∨ … ∨ dₙ ∨ ¬sel).
        let sel = solver.new_var();
        let mut diff_clause = Vec::new();
        for (&a, &b) in out_a.iter().zip(&out_b) {
            // A free copy's inputs and keys are literals, so none of
            // its nets folds to a constant.
            let Folded::Lit(d) = xor(&mut solver, [a, b]) else {
                unreachable!("a free copy has no constant nets")
            };
            diff_clause.push(d);
        }
        diff_clause.push(Lit::neg(sel));
        solver.add_clause(&diff_clause);
        DipSolver {
            locked,
            solver,
            inputs,
            key_a,
            key_b,
            differ: Lit::pos(sel),
            dips: 0,
        }
    }

    /// Searches for a distinguishing input pattern: an input on which
    /// two keys consistent with every constraint so far disagree.
    /// `None` means the key space is fully pruned — every remaining
    /// key is functionally correct.
    pub fn find_dip(&mut self) -> Option<Vec<bool>> {
        match self.solver.solve_assuming(&[self.differ]) {
            SatResult::Sat(model) => Some(self.inputs.iter().map(|v| model.value(*v)).collect()),
            SatResult::Unsat => None,
        }
    }

    /// Adds the oracle's verdict on `dip` as a permanent constraint:
    /// both key vectors must reproduce `response` on `dip`. Costs two
    /// pinned circuit copies, folded down to their key-dependent cones
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `dip`/`response` widths disagree with the netlist.
    pub fn constrain(&mut self, dip: &[bool], response: &[bool]) {
        assert_eq!(dip.len(), self.locked.num_primary_inputs(), "dip width");
        assert_eq!(
            response.len(),
            self.locked.netlist().num_outputs(),
            "response width"
        );
        encode_pinned_copy(self.locked, &mut self.solver, &self.key_a, dip, response);
        encode_pinned_copy(self.locked, &mut self.solver, &self.key_b, dip, response);
        self.dips += 1;
    }

    /// Extracts a key consistent with every constraint added so far
    /// (the differs clause is disabled for this call). After
    /// [`find_dip`](DipSolver::find_dip) has returned `None`, the key
    /// is exact.
    ///
    /// # Panics
    ///
    /// Panics if no key is consistent — impossible when the responses
    /// came from a real oracle (the true key always satisfies them).
    pub fn extract_key(&mut self) -> BitVec {
        match self.solver.solve_assuming(&[self.differ.negate()]) {
            SatResult::Sat(model) => {
                let mut k = BitVec::zeros(self.locked.num_key_bits());
                for (i, v) in self.key_a.iter().enumerate() {
                    k.set(i, model.value(*v));
                }
                k
            }
            SatResult::Unsat => unreachable!("the correct key is always consistent"),
        }
    }

    /// Whether `key` is consistent with every constraint added so far
    /// (an assumption probe; nothing is added to the instance). Used
    /// by the regression tests to prove that learnt-clause persistence
    /// never changes the consistent-key set.
    pub fn is_key_consistent(&mut self, key: &BitVec) -> bool {
        let mut assumptions = vec![self.differ.negate()];
        for (i, v) in self.key_a.iter().enumerate() {
            assumptions.push(Lit::new(*v, !key.get(i)));
        }
        self.solver.solve_assuming(&assumptions).is_sat()
    }

    /// DIP constraints added so far.
    pub fn num_dips(&self) -> usize {
        self.dips
    }

    /// The underlying solver's statistics.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }
}

/// A net of a circuit copy: folded to a constant, or a solver literal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Folded {
    Const(bool),
    Lit(Lit),
}

impl std::ops::Not for Folded {
    type Output = Folded;
    fn not(self) -> Folded {
        match self {
            Folded::Const(b) => Folded::Const(!b),
            Folded::Lit(l) => Folded::Lit(!l),
        }
    }
}

/// Adds the constraint "under the key `keys`, the locked circuit maps
/// `input` to `response`" to `solver`: a copy whose inputs are the
/// constants `input`, with every output pinned to its response.
///
/// An output that folds to a constant other than its response adds
/// the empty clause, so no key is consistent from then on.
pub(crate) fn encode_pinned_copy(
    locked: &LockedNetlist,
    solver: &mut Solver,
    keys: &[Var],
    input: &[bool],
    response: &[bool],
) {
    let input: Vec<Folded> = input.iter().map(|&b| Folded::Const(b)).collect();
    let outputs = encode_copy(locked, solver, &input, keys);
    for (out, &b) in outputs.into_iter().zip(response) {
        match out {
            Folded::Const(c) if c == b => {}
            Folded::Const(_) => solver.add_clause(&[]),
            Folded::Lit(l) => solver.add_clause(&[if b { l } else { !l }]),
        }
    }
}

/// Encodes one copy of the locked netlist whose primary inputs are
/// `inputs` and whose key nets are `keys`, folding the constants as it
/// walks (see the module docs); returns the copy's output nets. The
/// copy gets no key variables of its own.
fn encode_copy(
    locked: &LockedNetlist,
    solver: &mut Solver,
    inputs: &[Folded],
    keys: &[Var],
) -> Vec<Folded> {
    let netlist = locked.netlist();
    let mut nets: Vec<Folded> = Vec::with_capacity(netlist.num_nets());
    nets.extend_from_slice(inputs);
    nets.extend(keys.iter().map(|&k| Folded::Lit(Lit::pos(k))));
    for gate in netlist.gates() {
        let ins = gate.inputs.iter().map(|n| nets[n.index()]);
        let out = match gate.kind {
            GateKind::And => and(solver, ins),
            GateKind::Nand => !and(solver, ins),
            // De Morgan: OR is the negated AND of the negated inputs.
            GateKind::Or => !and(solver, ins.map(|v| !v)),
            GateKind::Nor => and(solver, ins.map(|v| !v)),
            GateKind::Xor => xor(solver, ins),
            GateKind::Xnor => !xor(solver, ins),
            GateKind::Not => !nets[gate.inputs[0].index()],
            GateKind::Buf => nets[gate.inputs[0].index()],
            GateKind::Mux => {
                let [s, a, b] = [0, 1, 2].map(|i| nets[gate.inputs[i].index()]);
                // `s ? b : a`; with one data input constant it is an
                // AND or an OR of the other two.
                match (s, a, b) {
                    (Folded::Const(s), a, b) => {
                        if s {
                            b
                        } else {
                            a
                        }
                    }
                    (s, Folded::Const(false), b) => and(solver, [s, b]),
                    (s, Folded::Const(true), b) => !and(solver, [s, !b]),
                    (s, a, Folded::Const(false)) => and(solver, [!s, a]),
                    (s, a, Folded::Const(true)) => !and(solver, [!s, !a]),
                    (Folded::Lit(s), Folded::Lit(a), Folded::Lit(b)) => {
                        let o = Lit::pos(solver.new_var());
                        solver.add_clause(&[s, !o, a]);
                        solver.add_clause(&[s, o, !a]);
                        solver.add_clause(&[!s, !o, b]);
                        solver.add_clause(&[!s, o, !b]);
                        Folded::Lit(o)
                    }
                }
            }
        };
        nets.push(out);
    }
    netlist.outputs().iter().map(|o| nets[o.index()]).collect()
}

/// The AND of `ins`: a constant when an input is false or none is
/// left, the literal when one is left, else a fresh Tseitin variable.
fn and(solver: &mut Solver, ins: impl IntoIterator<Item = Folded>) -> Folded {
    let mut lits = Vec::new();
    for v in ins {
        match v {
            Folded::Const(false) => return Folded::Const(false),
            Folded::Const(true) => {}
            Folded::Lit(l) => lits.push(l),
        }
    }
    match lits[..] {
        [] => Folded::Const(true),
        [l] => Folded::Lit(l),
        _ => {
            let o = Lit::pos(solver.new_var());
            for &l in &lits {
                solver.add_clause(&[!o, l]);
            }
            let mut all: Vec<Lit> = lits.iter().map(|&l| !l).collect();
            all.push(o);
            solver.add_clause(&all);
            Folded::Lit(o)
        }
    }
}

/// The parity of `ins`: constants flip it, and the literals are
/// chained through fresh two-input XOR variables.
fn xor(solver: &mut Solver, ins: impl IntoIterator<Item = Folded>) -> Folded {
    let mut parity = false;
    let mut acc: Option<Lit> = None;
    for v in ins {
        match v {
            Folded::Const(b) => parity ^= b,
            Folded::Lit(l) => {
                acc = Some(match acc {
                    None => l,
                    Some(a) => {
                        let o = Lit::pos(solver.new_var());
                        solver.add_clause(&[!o, a, l]);
                        solver.add_clause(&[!o, !a, !l]);
                        solver.add_clause(&[o, !a, l]);
                        solver.add_clause(&[o, a, !l]);
                        o
                    }
                })
            }
        }
    }
    let out = acc.map_or(Folded::Const(false), Folded::Lit);
    if parity {
        !out
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anti_sat::lock_sarlock;
    use crate::combinational::lock_xor;
    use mlam_netlist::generate::{c17, random_circuit, ripple_adder};
    use mlam_netlist::Netlist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl DipSolver<'_> {
        /// The **lexicographically smallest** consistent key, fixed one
        /// bit at a time by assumption probes. Once `find_dip` has
        /// returned `None`, the consistent keys are exactly the correct
        /// ones whatever the solver learnt on the way, so this key is
        /// the same for every solver strategy.
        fn extract_canonical_key(&mut self) -> BitVec {
            let nk = self.locked.num_key_bits();
            let mut fixed: Vec<Lit> = vec![self.differ.negate()];
            let mut k = BitVec::zeros(nk);
            for i in 0..nk {
                fixed.push(Lit::neg(self.key_a[i]));
                if !self.solver.solve_assuming(&fixed).is_sat() {
                    *fixed.last_mut().expect("just pushed") = Lit::pos(self.key_a[i]);
                    k.set(i, true);
                }
            }
            k
        }
    }

    /// The non-incremental baseline: the same attack, but every solver
    /// call rebuilds the miter plus all accumulated DIP constraints in
    /// a **fresh** solver — the way integrations around a stateless SAT
    /// solver (CNF file in, verdict out) have to work. Nothing learnt in
    /// one call survives to the next.
    struct OneShotDipSolver<'a> {
        locked: &'a LockedNetlist,
        trace: Vec<(Vec<bool>, Vec<bool>)>,
        /// Propagations summed over every rebuilt solver.
        propagations: u64,
    }

    impl<'a> OneShotDipSolver<'a> {
        fn new(locked: &'a LockedNetlist) -> OneShotDipSolver<'a> {
            OneShotDipSolver {
                locked,
                trace: Vec::new(),
                propagations: 0,
            }
        }

        /// Rebuilds miter + constraints, replaying the trace.
        fn fresh(&self) -> DipSolver<'a> {
            let mut solver = DipSolver::new(self.locked);
            for (dip, response) in &self.trace {
                solver.constrain(dip, response);
            }
            solver
        }

        fn find_dip(&mut self) -> Option<Vec<bool>> {
            let mut solver = self.fresh();
            let dip = solver.find_dip();
            self.propagations += solver.stats().propagations;
            dip
        }

        fn constrain(&mut self, dip: &[bool], response: &[bool]) {
            self.trace.push((dip.to_vec(), response.to_vec()));
        }

        fn extract_canonical_key(&mut self) -> BitVec {
            let mut solver = self.fresh();
            let key = solver.extract_canonical_key();
            self.propagations += solver.stats().propagations;
            key
        }
    }

    /// Incremental and one-shot are different solver strategies over
    /// the same attack; the canonical key must not see the difference.
    #[test]
    fn incremental_and_oneshot_recover_the_identical_key() {
        let mut gen_rng = StdRng::seed_from_u64(77);
        let mut cases: Vec<(Netlist, LockedNetlist)> = [
            (c17(), 5),
            (ripple_adder(3), 6),
            (random_circuit(8, 40, 2, &mut gen_rng), 10),
        ]
        .into_iter()
        .enumerate()
        .map(|(seed, (oracle, key_bits))| {
            let mut rng = StdRng::seed_from_u64(11 + seed as u64);
            let locked = lock_xor(&oracle, key_bits, &mut rng);
            (oracle, locked)
        })
        .collect();
        // SARLock forces one DIP per wrong key, the long-loop regime
        // where the two strategies differ most; drawn from the
        // reproduction's root seed.
        let mut rng = StdRng::seed_from_u64(0xDA7E_2020);
        let oracle = random_circuit(8, 50, 2, &mut rng);
        let locked = lock_sarlock(&oracle, 5, &mut rng);
        cases.push((oracle, locked));

        for (seed, (oracle, locked)) in cases.iter().enumerate() {
            let mut inc = DipSolver::new(locked);
            while let Some(dip) = inc.find_dip() {
                let response = oracle.simulate(&dip);
                inc.constrain(&dip, &response);
                assert!(inc.num_dips() < 500, "runaway DIP loop");
            }
            let mut one = OneShotDipSolver::new(locked);
            while let Some(dip) = one.find_dip() {
                let response = oracle.simulate(&dip);
                one.constrain(&dip, &response);
                assert!(one.trace.len() < 500, "runaway DIP loop");
            }

            let key_inc = inc.extract_canonical_key();
            let key_one = one.extract_canonical_key();
            assert_eq!(
                key_inc, key_one,
                "canonical keys diverged on circuit {seed}"
            );
            assert!(locked.equivalent_under_key(oracle, &key_inc));
        }
    }

    /// The exact search trajectory of one incremental attack: an
    /// XOR-locked random circuit whose DIP loop solves under
    /// assumptions, adds clauses between solves, restarts, and crosses
    /// the first learnt-clause reduction before `extract_key`. A change
    /// to the solver's data layout must leave every counter where it
    /// was. `mlam-sat`'s `search_trajectory_is_pinned` pins the
    /// one-shot case.
    #[test]
    fn search_trajectory_is_pinned() {
        let mut rng = StdRng::seed_from_u64(4);
        let oracle = random_circuit(12, 300, 6, &mut rng);
        let locked = lock_xor(&oracle, 64, &mut rng);
        let mut solver = DipSolver::new(&locked);
        while let Some(dip) = solver.find_dip() {
            let response = oracle.simulate(&dip);
            solver.constrain(&dip, &response);
        }
        let key = solver.extract_key();
        assert!(locked.equivalent_under_key(&oracle, &key));
        assert_eq!(solver.num_dips(), 12);
        assert_eq!(
            solver.stats(),
            SolverStats {
                conflicts: 2_060,
                decisions: 5_646,
                propagations: 457_895,
                restarts: 20,
                learnt_clauses: 1_136,
                learnts: 2_060,
                lbd_reductions: 1,
                assumption_solves: 14,
                minimized_literals: 4_075,
            }
        );
    }

    #[test]
    fn oneshot_pays_more_than_incremental() {
        let oracle = ripple_adder(3);
        let mut rng = StdRng::seed_from_u64(21);
        let locked = lock_xor(&oracle, 8, &mut rng);

        let mut inc = DipSolver::new(&locked);
        while let Some(dip) = inc.find_dip() {
            let response = oracle.simulate(&dip);
            inc.constrain(&dip, &response);
        }
        let mut one = OneShotDipSolver::new(&locked);
        while let Some(dip) = one.find_dip() {
            let response = oracle.simulate(&dip);
            one.constrain(&dip, &response);
        }
        // The rebuild baseline re-propagates every root unit of every
        // replayed constraint on every call; with a non-trivial DIP
        // count its total propagation work must exceed the persistent
        // solver's.
        if inc.num_dips() >= 4 {
            assert!(
                one.propagations > inc.stats().propagations,
                "one-shot {} vs incremental {}",
                one.propagations,
                inc.stats().propagations
            );
        }
    }
}
