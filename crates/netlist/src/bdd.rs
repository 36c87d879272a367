//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! The exhaustive equivalence checks used by the locking attacks cap
//! out at ~20 inputs; BDDs give *formal* equivalence for wider
//! circuits. The manager implements the classic hash-consed node store
//! with an ITE (if-then-else) apply core and a computed-table cache —
//! the canonical-form property makes circuit equivalence a pointer
//! comparison.
//!
//! Variable order is the primary-input order of the netlist (callers
//! who need a better order can permute inputs first).
//!
//! # Example
//!
//! ```
//! use mlam_netlist::bdd::BddManager;
//! use mlam_netlist::generate::{c17, ripple_adder};
//!
//! let mut mgr = BddManager::new(5);
//! let outs = mgr.build_netlist(&c17());
//! // c17's two outputs are distinct functions:
//! assert_ne!(outs[0], outs[1]);
//! ```

use crate::netlist::{GateKind, Netlist};
use std::collections::HashMap;

/// Reference to a BDD node (canonical: equal functions ⇔ equal refs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant FALSE node.
    pub const FALSE: BddRef = BddRef(0);
    /// The constant TRUE node.
    pub const TRUE: BddRef = BddRef(1);

    /// Whether this is a terminal node.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    low: BddRef,
    high: BddRef,
}

/// A hash-consed BDD manager over a fixed variable count.
#[derive(Debug)]
pub struct BddManager {
    num_vars: usize,
    nodes: Vec<Node>,
    unique: HashMap<Node, BddRef>,
    ite_cache: HashMap<(BddRef, BddRef, BddRef), BddRef>,
}

impl BddManager {
    /// Creates a manager for `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        // Slots 0/1 are sentinels for FALSE/TRUE (never dereferenced
        // as internal nodes).
        let sentinel = Node {
            var: u32::MAX,
            low: BddRef::FALSE,
            high: BddRef::FALSE,
        };
        BddManager {
            num_vars,
            nodes: vec![sentinel, sentinel],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Live node count (including the two terminals).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The BDD of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_vars`.
    pub fn var(&mut self, i: usize) -> BddRef {
        assert!(i < self.num_vars, "variable out of range");
        self.mk(i as u32, BddRef::FALSE, BddRef::TRUE)
    }

    fn mk(&mut self, var: u32, low: BddRef, high: BddRef) -> BddRef {
        if low == high {
            return low;
        }
        let node = Node { var, low, high };
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = BddRef(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, r);
        r
    }

    fn top_var(&self, f: BddRef) -> u32 {
        if f.is_const() {
            u32::MAX
        } else {
            self.nodes[f.0 as usize].var
        }
    }

    fn cofactors(&self, f: BddRef, var: u32) -> (BddRef, BddRef) {
        if f.is_const() || self.nodes[f.0 as usize].var != var {
            (f, f)
        } else {
            let n = self.nodes[f.0 as usize];
            (n.low, n.high)
        }
    }

    /// The if-then-else combinator `ite(f, g, h) = f·g + ¬f·h` — the
    /// universal binary operation of BDD packages.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> BddRef {
        // Terminal cases.
        if f == BddRef::TRUE {
            return g;
        }
        if f == BddRef::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == BddRef::TRUE && h == BddRef::FALSE {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let v = self.top_var(f).min(self.top_var(g)).min(self.top_var(h));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let low = self.ite(f0, g0, h0);
        let high = self.ite(f1, g1, h1);
        let r = self.mk(v, low, high);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    /// Negation.
    pub fn not(&mut self, f: BddRef) -> BddRef {
        self.ite(f, BddRef::FALSE, BddRef::TRUE)
    }

    /// Conjunction.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, g, BddRef::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> BddRef {
        self.ite(f, BddRef::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> BddRef {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Evaluates a BDD under an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_vars`.
    pub fn eval(&self, f: BddRef, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.num_vars, "assignment width");
        let mut cur = f;
        while !cur.is_const() {
            let n = self.nodes[cur.0 as usize];
            cur = if assignment[n.var as usize] {
                n.high
            } else {
                n.low
            };
        }
        cur == BddRef::TRUE
    }

    /// Builds the BDDs of every output of a netlist.
    ///
    /// # Panics
    ///
    /// Panics if the netlist's input count differs from `num_vars`.
    pub fn build_netlist(&mut self, netlist: &Netlist) -> Vec<BddRef> {
        assert_eq!(
            netlist.num_inputs(),
            self.num_vars,
            "netlist input count must match the manager"
        );
        let mut refs: Vec<BddRef> = (0..self.num_vars).map(|i| self.var(i)).collect();
        for gate in netlist.gates() {
            let ins: Vec<BddRef> = gate.inputs.iter().map(|n| refs[n.index()]).collect();
            let out = match gate.kind {
                GateKind::And => ins.iter().skip(1).fold(ins[0], |acc, &b| self.and(acc, b)),
                GateKind::Or => ins.iter().skip(1).fold(ins[0], |acc, &b| self.or(acc, b)),
                GateKind::Nand => {
                    let a = ins.iter().skip(1).fold(ins[0], |acc, &b| self.and(acc, b));
                    self.not(a)
                }
                GateKind::Nor => {
                    let a = ins.iter().skip(1).fold(ins[0], |acc, &b| self.or(acc, b));
                    self.not(a)
                }
                GateKind::Xor => ins.iter().skip(1).fold(ins[0], |acc, &b| self.xor(acc, b)),
                GateKind::Xnor => {
                    let a = ins.iter().skip(1).fold(ins[0], |acc, &b| self.xor(acc, b));
                    self.not(a)
                }
                GateKind::Not => self.not(ins[0]),
                GateKind::Buf => ins[0],
                GateKind::Mux => {
                    let (s, a, b) = (ins[0], ins[1], ins[2]);
                    self.ite(s, b, a)
                }
            };
            refs.push(out);
        }
        netlist.outputs().iter().map(|o| refs[o.index()]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{c17, comparator, parity_tree, random_circuit, ripple_adder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constants_and_vars() {
        let mut mgr = BddManager::new(3);
        let x = mgr.var(0);
        let nx = mgr.not(x);
        assert_ne!(x, nx);
        let xx = mgr.and(x, nx);
        assert_eq!(xx, BddRef::FALSE);
        let xo = mgr.or(x, nx);
        assert_eq!(xo, BddRef::TRUE);
    }

    #[test]
    fn bdd_matches_simulation_on_random_circuits() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let c = random_circuit(8, 30, 2, &mut rng);
            let mut mgr = BddManager::new(8);
            let outs = mgr.build_netlist(&c);
            for v in 0..256u64 {
                let bits: Vec<bool> = (0..8).map(|i| v >> i & 1 == 1).collect();
                let sim = c.simulate(&bits);
                for (o, bdd) in sim.iter().zip(&outs) {
                    assert_eq!(*o, mgr.eval(*bdd, &bits));
                }
            }
        }
    }

    #[test]
    fn equivalence_is_reflexive_and_detects_difference() {
        // Canonical forms: one manager builds a netlist twice into the
        // same refs.
        let mut mgr = BddManager::new(5);
        assert_eq!(mgr.build_netlist(&c17()), mgr.build_netlist(&c17()));
        let adder = ripple_adder(3);
        let mut mgr = BddManager::new(6);
        assert_eq!(mgr.build_netlist(&adder), mgr.build_netlist(&adder));
        // Comparator vs parity over the same I/O shape: different.
        let mut mgr = BddManager::new(4);
        let cmp = mgr.build_netlist(&comparator(2)); // 4 in, 1 out
        let par = mgr.build_netlist(&parity_tree(4)); // 4 in, 1 out
        assert_ne!(cmp, par);
    }

    #[test]
    fn parity_bdd_is_linear_size() {
        // Parity has a linear-size BDD under any order. The manager
        // also retains the intermediate tree-node BDDs, so the total
        // store stays O(n log n)-ish rather than exponential.
        let p = parity_tree(16);
        let mut mgr = BddManager::new(16);
        let _ = mgr.build_netlist(&p);
        assert!(mgr.num_nodes() < 160, "{} nodes", mgr.num_nodes());
    }

    #[test]
    fn wide_equivalence_beyond_exhaustive_reach() {
        // 24 inputs: exhaustive comparison would need 16.7M sims; BDD
        // equivalence is instant.
        let mut mgr = BddManager::new(24);
        let a = mgr.build_netlist(&ripple_adder(12)); // 24 inputs
        let b = mgr.build_netlist(&ripple_adder(12));
        assert_eq!(a, b);
    }
}
