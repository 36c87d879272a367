//! Sequential obfuscation vs. Angluin's L* (Section V-B): learn the
//! HARPOON-obfuscated FSM as a DFA and read the unlock sequence off the
//! learned model.
//!
//! Run with: `cargo run -p mlam --example sequential_lstar`

use mlam::locking::sequential::{lstar_attack, Fsm, ObfuscatedFsm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(99);

    // The secret design: an 8-state Moore machine over a 3-symbol
    // alphabet, hidden behind a 5-symbol unlock sequence.
    let functional = Fsm::random(8, 3, &mut rng);
    let secret: Vec<usize> = (0..5).map(|_| rng.gen_range(0..3)).collect();
    let obf = ObfuscatedFsm::new(functional, secret.clone());
    println!(
        "device: {}-state functional FSM + {}-state obfuscation chain (alphabet 3)",
        obf.functional().num_states(),
        secret.len()
    );
    println!("designer's secret unlock sequence: {secret:?}");

    // The attack: black-box L*.
    let result = lstar_attack(&obf);
    println!(
        "\nL* learned an exact model with {} membership and {} equivalence queries",
        result.membership_queries, result.lstar.equivalence_queries
    );
    println!(
        "learned DFA: {} states (combined machine has {})",
        result.lstar.dfa.num_states(),
        obf.combined().num_states()
    );

    match &result.unlock_sequence {
        Some(seq) => {
            println!("recovered unlock sequence: {seq:?}");
            // Demonstrate it unlocks: run it, then compare behaviour.
            let mut probe = seq.clone();
            probe.push(0);
            println!(
                "verification: device after unlock behaves functionally on \
                 probe word -> {} (expected {})",
                obf.combined().output(&probe),
                obf.functional().output(&[0])
            );
        }
        None => println!("no unlock sequence recovered (functional machine is degenerate)"),
    }

    println!(
        "\nlesson (Section V-B): the DFA representation L* outputs is improper \
         for the gate-level FSM — and that is precisely why the attack works \
         when the input alphabet is not exponential."
    );
}
