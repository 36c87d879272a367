//! Logic locking under three access models: the exact SAT attack
//! (chosen inputs), AppSAT (chosen + random, approximate) and the pure
//! random-example PAC attack — Sections II-A and IV-A, executable.
//!
//! Run with: `cargo run --release -p mlam --example logic_locking_attacks`

use mlam::locking::appsat::{appsat, AppSatConfig};
use mlam::locking::combinational::lock_xor;
use mlam::locking::pac_attack::{pac_attack, PacAttackConfig};
use mlam::locking::sat_attack::{sat_attack, SatAttackConfig};
use mlam::netlist::bench_format::to_bench;
use mlam::netlist::generate::random_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(3);

    // A random combinational design, locked with 12 XOR/XNOR key gates.
    let oracle = random_circuit(10, 70, 3, &mut rng);
    let locked = lock_xor(&oracle, 12, &mut rng);
    println!(
        "design: {} inputs, {} gates, {} outputs; locked with {} key bits",
        oracle.num_inputs(),
        oracle.num_gates(),
        oracle.num_outputs(),
        locked.num_key_bits()
    );
    println!(
        "locked netlist (.bench excerpt):\n{}",
        to_bench(locked.netlist())
            .lines()
            .take(8)
            .collect::<Vec<_>>()
            .join("\n")
    );

    // 1. SAT attack: membership queries, exact key.
    let sat = sat_attack(&locked, &oracle, SatAttackConfig::default());
    println!(
        "\nSAT attack (membership queries, exact): key {} in {} DIPs, \
         functionally correct: {}",
        sat.key, sat.iterations, sat.key_is_functionally_correct
    );

    // 2. AppSAT: approximate, settles early.
    let app = appsat(&locked, &oracle, AppSatConfig::default(), &mut rng);
    println!(
        "AppSAT (approximate): {:.2}% accuracy after {} DIPs + {} random queries \
         (settled early: {})",
        app.estimated_accuracy * 100.0,
        app.dip_iterations,
        app.random_queries,
        app.settled_early
    );

    // 3. PAC attack: random examples only — the weakest access.
    let pac = pac_attack(&locked, &oracle, PacAttackConfig::default(), &mut rng);
    println!(
        "PAC attack (random examples only): {:.2}% accuracy from {} examples \
         (equivalence simulation accepted: {})",
        pac.estimated_accuracy * 100.0,
        pac.examples_used,
        pac.accepted
    );

    println!(
        "\nlesson (Section IV): {} chosen inputs did what {} random examples were \
         needed for — access is a security parameter, not a footnote.",
        sat.iterations, pac.examples_used
    );
}
