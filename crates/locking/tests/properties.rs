//! Property-based tests for locking schemes and attacks.

use mlam_boolean::BitVec;
use mlam_locking::combinational::{lock_xor, LockedNetlist};
use mlam_locking::dip::DipSolver;
use mlam_locking::sat_attack::{sat_attack, SatAttackConfig};
use mlam_locking::sequential::{Fsm, ObfuscatedFsm};
use mlam_netlist::generate::random_circuit;
use mlam_netlist::{GateKind, Net, Netlist};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A random netlist on `inputs` inputs over every gate kind, the
/// variadic ones with one to three inputs (`random_circuit` emits
/// two-input gates only). As in `random_circuit`, gate inputs lean
/// toward recent nets and the outputs are the last gates, so most gates
/// reach an output.
fn random_netlist_of_every_kind(inputs: usize, rng: &mut StdRng) -> Netlist {
    const KINDS: [GateKind; 9] = [
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Not,
        GateKind::Buf,
        GateKind::Mux,
    ];
    let (gates, outputs) = (rng.gen_range(6..=16), rng.gen_range(1..=3));
    let mut b = Netlist::builder(inputs, outputs);
    let mut nets: Vec<Net> = (0..inputs).map(|i| b.input(i)).collect();
    for _ in 0..gates {
        let kind = *KINDS.choose(rng).expect("non-empty");
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            GateKind::Mux => 3,
            _ => rng.gen_range(1..=3),
        };
        let ins = (0..arity)
            .map(|_| {
                let from = if rng.gen() { nets.len() / 2 } else { 0 };
                nets[rng.gen_range(from..nets.len())]
            })
            .collect();
        nets.push(b.gate(kind, ins));
    }
    for (o, &net) in nets[nets.len() - outputs..].iter().enumerate() {
        b.set_output(o, net);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Locking with the correct key is always functionally transparent.
    #[test]
    fn correct_key_is_transparent(seed in any::<u64>(), key_bits in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let oracle = random_circuit(7, 30, 2, &mut rng);
        let locked = lock_xor(&oracle, key_bits, &mut rng);
        let key = locked.correct_key().clone();
        prop_assert!(locked.equivalent_under_key(&oracle, &key));
    }

    /// The SAT attack always recovers a functionally correct key.
    #[test]
    fn sat_attack_always_succeeds(seed in any::<u64>(), key_bits in 1usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let oracle = random_circuit(7, 30, 2, &mut rng);
        let locked = lock_xor(&oracle, key_bits, &mut rng);
        let result = sat_attack(&locked, &oracle, SatAttackConfig::default());
        prop_assert!(result.key_is_functionally_correct);
        prop_assert!(result.iterations <= 1 << key_bits);
    }

    /// The obfuscated FSM's functional mode is reached by the unlock
    /// sequence and the behaviour thereafter equals the original.
    #[test]
    fn unlock_sequence_restores_functionality(
        seed in any::<u64>(),
        states in 2usize..8,
        len in 1usize..5,
        probe in prop::collection::vec(0usize..2, 0..8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fsm = Fsm::random(states, 2, &mut rng);
        let seq: Vec<usize> = (0..len).map(|_| rand::Rng::gen_range(&mut rng, 0..2)).collect();
        let obf = ObfuscatedFsm::new(fsm.clone(), seq.clone());
        let mut word = seq.clone();
        word.extend_from_slice(&probe);
        prop_assert_eq!(obf.combined().output(&word), fsm.output(&probe));
    }

    /// Before the unlock sequence completes, the output is the
    /// obfuscation constant (false).
    #[test]
    fn partial_unlock_stays_locked(seed in any::<u64>(), states in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fsm = Fsm::random(states, 2, &mut rng);
        // Unlock sequence of length 4; feed only 3 symbols of it.
        let seq: Vec<usize> = (0..4).map(|_| rand::Rng::gen_range(&mut rng, 0..2)).collect();
        let obf = ObfuscatedFsm::new(fsm, seq.clone());
        prop_assert!(!obf.combined().output(&seq[..3]));
        prop_assert!(!obf.combined().output(&[]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The DIP solver's pinned copies are exact: after any constraints,
    /// a key is consistent exactly when simulating the locked circuit
    /// under it reproduces every response. Responses come from a random
    /// key's simulation or are random bits, which no key may explain.
    #[test]
    fn pinned_copies_match_simulation(
        seed in any::<u64>(),
        key_bits in 1usize..=5,
        constraints in 1usize..=4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = rng.gen_range(2..=5);
        let oracle = random_netlist_of_every_kind(inputs, &mut rng);
        let locked = lock_xor(&oracle, key_bits, &mut rng);
        let mut solver = DipSolver::new(&locked);
        let mut observed = Vec::new();
        for _ in 0..constraints {
            let x: Vec<bool> = (0..oracle.num_inputs()).map(|_| rng.gen()).collect();
            let response: Vec<bool> = if rng.gen() {
                locked.simulate(&x, &BitVec::random(key_bits, &mut rng))
            } else {
                (0..oracle.num_outputs()).map(|_| rng.gen()).collect()
            };
            solver.constrain(&x, &response);
            observed.push((x, response));
        }
        for mask in 0u32..1 << key_bits {
            let bits: Vec<bool> = (0..key_bits).map(|i| mask >> i & 1 == 1).collect();
            let key = BitVec::from_bools(&bits);
            let reproduces = observed
                .iter()
                .all(|(x, response)| locked.simulate(x, &key) == *response);
            prop_assert_eq!(solver.is_key_consistent(&key), reproduces, "key {:05b}", mask);
        }
    }

    /// The miter finds exactly the distinguishing inputs: after any
    /// constraints, each answered by a random key's simulation, a DIP
    /// separates two keys consistent with them, and `None` leaves no
    /// input that separates any two.
    #[test]
    fn miter_finds_exactly_the_distinguishing_inputs(
        seed in any::<u64>(),
        inputs in 1usize..=4,
        key_bits in 1usize..=4,
        constraints in 0usize..=3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let oracle = random_netlist_of_every_kind(inputs, &mut rng);
        let locked = lock_xor(&oracle, key_bits, &mut rng);
        let mut solver = DipSolver::new(&locked);
        let mut observed = Vec::new();
        for _ in 0..constraints {
            let x: Vec<bool> = (0..inputs).map(|_| rng.gen()).collect();
            let response = locked.simulate(&x, &BitVec::random(key_bits, &mut rng));
            solver.constrain(&x, &response);
            observed.push((x, response));
        }
        let consistent: Vec<BitVec> = (0u32..1 << key_bits)
            .map(|mask| {
                let bits: Vec<bool> = (0..key_bits).map(|i| mask >> i & 1 == 1).collect();
                BitVec::from_bools(&bits)
            })
            .filter(|key| observed.iter().all(|(x, response)| locked.simulate(x, key) == *response))
            .collect();
        let separates = |x: &[bool]| {
            let outputs: Vec<Vec<bool>> = consistent.iter().map(|key| locked.simulate(x, key)).collect();
            outputs.windows(2).any(|pair| pair[0] != pair[1])
        };
        match solver.find_dip() {
            Some(x) => prop_assert!(separates(&x), "DIP {:?} separates no consistent keys", x),
            None => {
                for v in 0u32..1 << inputs {
                    let x: Vec<bool> = (0..inputs).map(|i| v >> i & 1 == 1).collect();
                    prop_assert!(!separates(&x), "input {:04b} separates consistent keys", v);
                }
            }
        }
    }
}

/// `key_accuracy`'s definition: one pattern per sample, drawn input by
/// input, simulated one at a time.
fn accuracy_by_samples(
    locked: &LockedNetlist,
    oracle: &Netlist,
    key: &BitVec,
    samples: usize,
    rng: &mut StdRng,
) -> f64 {
    let agree = (0..samples)
        .filter(|_| {
            let x: Vec<bool> = (0..oracle.num_inputs()).map(|_| rng.gen()).collect();
            locked.simulate(&x, key) == oracle.simulate(&x)
        })
        .count();
    agree as f64 / samples as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The word-parallel key checks give what one pattern at a time
    /// gives, under the correct key and three random ones: the
    /// exhaustive check equals the pattern loop and the BDD check, and
    /// `key_accuracy` equals the per-sample loop bit for bit, on both
    /// sides of the 64-pattern block size, leaving the caller's stream
    /// where the loop leaves it.
    #[test]
    fn key_checks_match_the_pattern_loops(seed in any::<u64>(), inputs in 1usize..=10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let oracle = random_netlist_of_every_kind(inputs, &mut rng);
        let key_bits = rng.gen_range(1..=oracle.num_gates().min(8));
        let locked = lock_xor(&oracle, key_bits, &mut rng);
        let mut keys = vec![locked.correct_key().clone()];
        keys.extend((0..3).map(|_| BitVec::random(key_bits, &mut rng)));
        for key in &keys {
            let by_patterns = (0..1u32 << inputs).all(|v| {
                let x: Vec<bool> = (0..inputs).map(|i| v >> i & 1 == 1).collect();
                locked.simulate(&x, key) == oracle.simulate(&x)
            });
            prop_assert_eq!(locked.equivalent_under_key(&oracle, key), by_patterns);
            prop_assert_eq!(locked.equivalent_under_key_formal(&oracle, key), by_patterns);
            for samples in [1, 63, 64, 65, 2000] {
                let stream = rng.gen();
                let (mut words, mut loop_rng) =
                    (StdRng::seed_from_u64(stream), StdRng::seed_from_u64(stream));
                let accuracy = locked.key_accuracy(&oracle, key, samples, &mut words);
                let expected = accuracy_by_samples(&locked, &oracle, key, samples, &mut loop_rng);
                prop_assert_eq!(accuracy.to_bits(), expected.to_bits(), "{} samples", samples);
                prop_assert_eq!(words.gen::<u64>(), loop_rng.gen::<u64>());
            }
        }
    }
}
