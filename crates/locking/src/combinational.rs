//! Combinational logic locking by XOR/XNOR key-gate insertion
//! (EPIC-style random insertion).

use mlam_boolean::BitVec;
use mlam_netlist::{GateKind, Net, Netlist};
use rand::seq::SliceRandom;
use rand::Rng;

/// A locked netlist: the original circuit with key gates inserted.
///
/// The locked netlist's inputs are the primary inputs followed by the
/// key inputs; with the correct key applied it is functionally
/// equivalent to the original.
#[derive(Clone, Debug)]
pub struct LockedNetlist {
    netlist: Netlist,
    num_primary: usize,
    num_key: usize,
    correct_key: BitVec,
}

impl LockedNetlist {
    /// Assembles a locked netlist from parts (used by the locking
    /// schemes in this crate).
    ///
    /// # Panics
    ///
    /// Panics if the netlist's input count differs from
    /// `num_primary + correct_key.len()`.
    pub(crate) fn from_parts(
        netlist: Netlist,
        num_primary: usize,
        num_key: usize,
        correct_key: BitVec,
    ) -> Self {
        assert_eq!(correct_key.len(), num_key, "key length");
        assert_eq!(
            netlist.num_inputs(),
            num_primary + num_key,
            "input partition"
        );
        LockedNetlist {
            netlist,
            num_primary,
            num_key,
            correct_key,
        }
    }

    /// The locked netlist itself (inputs = primary ++ key).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Number of primary inputs.
    pub fn num_primary_inputs(&self) -> usize {
        self.num_primary
    }

    /// Number of key bits.
    pub fn num_key_bits(&self) -> usize {
        self.num_key
    }

    /// The correct key (the designer's secret; attacks must not read
    /// it, it exists for validation).
    pub fn correct_key(&self) -> &BitVec {
        &self.correct_key
    }

    /// Simulates the locked circuit under a primary input and a key.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn simulate(&self, primary: &[bool], key: &BitVec) -> Vec<bool> {
        assert_eq!(primary.len(), self.num_primary, "primary input width");
        assert_eq!(key.len(), self.num_key, "key width");
        let mut inputs = primary.to_vec();
        inputs.extend(key.iter());
        self.netlist.simulate(&inputs)
    }

    /// [`simulate`](Self::simulate) on 64 patterns at once, laid out as
    /// in [`Netlist::simulate_words`]; every lane sees the same `key`.
    pub(crate) fn simulate_words(&self, primary: &[u64], key: &BitVec) -> Vec<u64> {
        assert_eq!(primary.len(), self.num_primary, "primary input width");
        assert_eq!(key.len(), self.num_key, "key width");
        let mut inputs = primary.to_vec();
        inputs.extend(key.iter().map(|bit| if bit { !0 } else { 0 }));
        self.netlist.simulate_words(&inputs)
    }

    /// Checks functional equivalence with `original` under `key`,
    /// exhaustively: [`Netlist::equivalent_exhaustive`] on the
    /// unlocked circuit.
    ///
    /// # Panics
    ///
    /// Panics if the key width, `original`'s input width or its output
    /// count differs from the locked circuit's, or if
    /// `num_primary > 20`; use
    /// [`equivalent_under_key_formal`](Self::equivalent_under_key_formal)
    /// for wider circuits.
    pub fn equivalent_under_key(&self, original: &Netlist, key: &BitVec) -> bool {
        self.apply_key(key).equivalent_exhaustive(original)
    }

    /// Formal (BDD-based) functional-equivalence check with `original`
    /// under `key` — no input-width limit beyond BDD tractability.
    pub fn equivalent_under_key_formal(&self, original: &Netlist, key: &BitVec) -> bool {
        use mlam_netlist::bdd::BddManager;
        assert_eq!(original.num_inputs(), self.num_primary, "input width");
        assert_eq!(key.len(), self.num_key, "key width");
        let mut mgr = BddManager::new(self.num_primary);
        let orig = mgr.build_netlist(original);
        let unlocked = self.apply_key(key);
        let ours = mgr.build_netlist(&unlocked);
        orig == ours
    }

    /// Constant-folds the key into the locked netlist, producing a
    /// circuit over the primary inputs only.
    ///
    /// # Panics
    ///
    /// Panics if the key width mismatches.
    pub fn apply_key(&self, key: &BitVec) -> Netlist {
        assert_eq!(key.len(), self.num_key, "key width");
        let mut b = Netlist::builder(self.num_primary, self.netlist.num_outputs());
        // Constants: XOR(i0, i0) = 0, XNOR(i0, i0) = 1.
        let i0 = b.input(0);
        let zero = b.gate(GateKind::Xor, vec![i0, i0]);
        let one = b.gate(GateKind::Xnor, vec![i0, i0]);
        let mut map: Vec<Net> = Vec::with_capacity(self.netlist.num_nets());
        for i in 0..self.num_primary {
            map.push(b.input(i));
        }
        for i in 0..self.num_key {
            map.push(if key.get(i) { one } else { zero });
        }
        for gate in self.netlist.gates() {
            let ins: Vec<Net> = gate.inputs.iter().map(|n| map[n.index()]).collect();
            map.push(b.gate(gate.kind, ins));
        }
        for (oi, net) in self.netlist.outputs().iter().enumerate() {
            b.set_output(oi, map[net.index()]);
        }
        b.build()
    }

    /// Estimates the accuracy of `key` against `original` on `samples`
    /// random inputs (for large circuits where the exhaustive check is
    /// infeasible): the fraction of them on which every output agrees.
    ///
    /// The inputs are drawn pattern by pattern and, within a pattern,
    /// input by input, one `rng.gen::<bool>()` each, and simulated 64
    /// patterns per word.
    ///
    /// # Panics
    ///
    /// Panics if `samples == 0`, or if the key width, `original`'s input
    /// width or its output count differs from the locked circuit's.
    pub fn key_accuracy<R: Rng + ?Sized>(
        &self,
        original: &Netlist,
        key: &BitVec,
        samples: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(samples > 0);
        assert_eq!(
            original.num_outputs(),
            self.netlist.num_outputs(),
            "output count"
        );
        let mut agree = 0usize;
        sample_blocks(self.num_primary, samples, rng, |x, lanes| {
            let differ = differing_lanes(&self.simulate_words(x, key), &original.simulate_words(x));
            // Lanes past the block's `lanes` patterns hold no sample.
            agree += (!differ & (!0 >> (64 - lanes))).count_ones() as usize;
        });
        agree as f64 / samples as f64
    }
}

/// Draws `samples` uniform input patterns of `width` bits and hands them
/// to `f` in blocks of at most 64, laid out as in
/// [`Netlist::simulate_words`], with the block's pattern count. The
/// draws run pattern by pattern and, within a pattern, input by input,
/// one `rng.gen::<bool>()` each: the order the one-pattern loops drew
/// in, so the stream and every result built on it stay the same.
pub(crate) fn sample_blocks<R: Rng + ?Sized>(
    width: usize,
    samples: usize,
    rng: &mut R,
    mut f: impl FnMut(&[u64], usize),
) {
    let mut words = vec![0u64; width];
    for start in (0..samples).step_by(64) {
        let lanes = (samples - start).min(64);
        words.fill(0);
        for lane in 0..lanes {
            for word in &mut words {
                *word |= (rng.gen::<bool>() as u64) << lane;
            }
        }
        f(&words, lanes);
    }
}

/// The pattern in lane `lane` of a word-parallel block.
pub(crate) fn lane_bits(words: &[u64], lane: usize) -> Vec<bool> {
    words.iter().map(|w| w >> lane & 1 == 1).collect()
}

/// The lanes in which two equally long lists of output words differ.
pub(crate) fn differing_lanes(a: &[u64], b: &[u64]) -> u64 {
    a.iter().zip(b).fold(0, |d, (x, y)| d | (x ^ y))
}

/// Locks a netlist by inserting `key_bits` XOR/XNOR key gates at the
/// outputs of randomly chosen gates (EPIC-style random insertion \[3\]).
///
/// For key bit `i` with correct value `0`, an XOR gate is inserted
/// (identity at `k=0`); with correct value `1`, an XNOR gate (identity
/// at `k=1`). The correct key is drawn uniformly at random.
///
/// # Panics
///
/// Panics if `key_bits == 0` or the circuit has fewer gates than
/// `key_bits`.
pub fn lock_xor<R: Rng + ?Sized>(
    original: &Netlist,
    key_bits: usize,
    rng: &mut R,
) -> LockedNetlist {
    assert!(key_bits > 0, "need at least one key bit");
    assert!(
        original.num_gates() >= key_bits,
        "circuit has too few gates to lock"
    );
    let num_primary = original.num_inputs();
    let correct_key = BitVec::random(key_bits, rng);

    // Pick distinct gate positions to lock (by gate index).
    let mut positions: Vec<usize> = (0..original.num_gates()).collect();
    positions.shuffle(rng);
    positions.truncate(key_bits);
    positions.sort_unstable();

    // Rebuild: inputs = primary ++ key. Maintain a map old net -> new net.
    let mut b = Netlist::builder(num_primary + key_bits, original.num_outputs());
    let mut map: Vec<Net> = Vec::with_capacity(original.num_nets());
    for i in 0..num_primary {
        map.push(b.input(i));
    }
    let mut next_lock = 0usize;
    for (gi, gate) in original.gates().iter().enumerate() {
        let inputs: Vec<Net> = gate.inputs.iter().map(|n| map[n.index()]).collect();
        let mut out = b.gate(gate.kind, inputs);
        if next_lock < positions.len() && positions[next_lock] == gi {
            let key_idx = next_lock;
            let key_net = b.input(num_primary + key_idx);
            let kind = if correct_key.get(key_idx) {
                GateKind::Xnor
            } else {
                GateKind::Xor
            };
            out = b.gate(kind, vec![out, key_net]);
            next_lock += 1;
        }
        map.push(out);
    }
    for (oi, net) in original.outputs().iter().enumerate() {
        b.set_output(oi, map[net.index()]);
    }
    LockedNetlist {
        netlist: b.build(),
        num_primary,
        num_key: key_bits,
        correct_key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlam_netlist::generate::{c17, random_circuit, ripple_adder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn correct_key_restores_functionality() {
        let mut rng = StdRng::seed_from_u64(1);
        let orig = c17();
        let locked = lock_xor(&orig, 4, &mut rng);
        assert_eq!(locked.num_key_bits(), 4);
        assert_eq!(locked.num_primary_inputs(), 5);
        let key = locked.correct_key().clone();
        assert!(locked.equivalent_under_key(&orig, &key));
    }

    #[test]
    fn wrong_keys_usually_break_functionality() {
        let mut rng = StdRng::seed_from_u64(2);
        let orig = ripple_adder(3);
        let locked = lock_xor(&orig, 6, &mut rng);
        let correct = locked.correct_key().clone();
        let mut breaking = 0;
        for i in 0..6 {
            let mut wrong = correct.clone();
            wrong.flip(i);
            if !locked.equivalent_under_key(&orig, &wrong) {
                breaking += 1;
            }
        }
        // XOR key gates are individually corrupting unless masked
        // downstream; most single-bit flips must break the circuit.
        assert!(breaking >= 4, "only {breaking}/6 flips broke the circuit");
    }

    #[test]
    fn key_accuracy_of_correct_key_is_one() {
        let mut rng = StdRng::seed_from_u64(3);
        let orig = random_circuit(10, 60, 2, &mut rng);
        let locked = lock_xor(&orig, 8, &mut rng);
        let key = locked.correct_key().clone();
        assert_eq!(locked.key_accuracy(&orig, &key, 500, &mut rng), 1.0);
    }

    #[test]
    fn locked_netlist_has_more_gates() {
        let mut rng = StdRng::seed_from_u64(5);
        let orig = c17();
        let locked = lock_xor(&orig, 4, &mut rng);
        assert_eq!(locked.netlist().num_gates(), orig.num_gates() + 4);
        assert_eq!(locked.netlist().num_inputs(), orig.num_inputs() + 4);
    }

    #[test]
    #[should_panic(expected = "too few gates")]
    fn overlocking_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        lock_xor(&c17(), 100, &mut rng);
    }
}

#[cfg(test)]
mod formal_tests {
    use super::*;
    use mlam_netlist::generate::{c17, ripple_adder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn apply_key_folds_constants_correctly() {
        let mut rng = StdRng::seed_from_u64(1);
        let orig = c17();
        let locked = lock_xor(&orig, 4, &mut rng);
        let key = locked.correct_key().clone();
        let unlocked = locked.apply_key(&key);
        assert_eq!(unlocked.num_inputs(), 5);
        assert!(unlocked.equivalent_exhaustive(&orig));
    }

    #[test]
    fn formal_check_agrees_with_exhaustive() {
        let mut rng = StdRng::seed_from_u64(2);
        let orig = ripple_adder(3);
        let locked = lock_xor(&orig, 6, &mut rng);
        let correct = locked.correct_key().clone();
        assert!(locked.equivalent_under_key_formal(&orig, &correct));
        assert_eq!(
            locked.equivalent_under_key(&orig, &correct),
            locked.equivalent_under_key_formal(&orig, &correct)
        );
        // A wrong key that breaks the exhaustive check also fails formally.
        for i in 0..6 {
            let mut wrong = correct.clone();
            wrong.flip(i);
            assert_eq!(
                locked.equivalent_under_key(&orig, &wrong),
                locked.equivalent_under_key_formal(&orig, &wrong),
                "bit {i}"
            );
        }
    }

    #[test]
    fn formal_check_scales_past_the_exhaustive_limit() {
        // 24 primary inputs: exhaustive is infeasible, BDD is instant.
        let mut rng = StdRng::seed_from_u64(3);
        let orig = ripple_adder(12);
        let locked = lock_xor(&orig, 16, &mut rng);
        let key = locked.correct_key().clone();
        assert!(locked.equivalent_under_key_formal(&orig, &key));
        let mut wrong = key.clone();
        wrong.flip(0);
        // A flipped key bit is formally detected (XOR insertion is
        // never masked in an adder's carry chain).
        assert!(!locked.equivalent_under_key_formal(&orig, &wrong));
    }
}
