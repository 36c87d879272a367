//! The pure random-example (uniform PAC) attack on logic locking.
//!
//! Instead of *choosing* inputs (membership queries / DIPs), the
//! attacker only observes uniformly random input/output pairs — the
//! weakest access model of Section IV. Learning proceeds by version-
//! space sampling: accumulate I/O constraints, ask the SAT solver for
//! *any* consistent key, and stop when a simulated equivalence query
//! (held-out random examples) accepts. By the standard Occam/version-
//! space argument this is a uniform-distribution PAC learner for the
//! keyed concept class.
//!
//! Comparing its query count with the SAT attack's DIP count on the
//! same instance quantifies the paper's access-model axis.

use crate::combinational::{lane_bits, sample_blocks, LockedNetlist};
use crate::dip::encode_pinned_copy;
use mlam_boolean::BitVec;
use mlam_netlist::Netlist;
use mlam_sat::{SatResult, Solver};
use rand::Rng;

/// Configuration of the PAC (random-example) attack.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacAttackConfig {
    /// Examples added per round before re-solving.
    pub batch_size: usize,
    /// Held-out examples per equivalence simulation.
    pub equivalence_budget: usize,
    /// Target accuracy (1 − ε).
    pub target_accuracy: f64,
    /// Hard cap on total examples.
    pub max_examples: usize,
}

impl Default for PacAttackConfig {
    fn default() -> Self {
        PacAttackConfig {
            batch_size: 16,
            equivalence_budget: 200,
            target_accuracy: 0.99,
            max_examples: 20_000,
        }
    }
}

/// Result of the PAC attack.
#[derive(Clone, Debug)]
pub struct PacAttackResult {
    /// The returned key.
    pub key: BitVec,
    /// Random examples consumed (training constraints).
    pub examples_used: usize,
    /// Whether the equivalence simulation accepted within the budget.
    pub accepted: bool,
    /// Accuracy of the returned key on fresh random inputs.
    pub estimated_accuracy: f64,
}

/// Runs the random-example attack.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn pac_attack<R: Rng + ?Sized>(
    locked: &LockedNetlist,
    oracle: &Netlist,
    config: PacAttackConfig,
    rng: &mut R,
) -> PacAttackResult {
    assert_eq!(oracle.num_inputs(), locked.num_primary_inputs());
    assert_eq!(oracle.num_outputs(), locked.netlist().num_outputs());

    // The key variables alone: each observation is a pinned circuit
    // copy over them, folded down to its key-dependent cone.
    let mut keysolver = Solver::new();
    let keyvars = keysolver.new_vars(locked.num_key_bits());
    let mut examples_used = 0usize;
    let mut accepted = false;
    let mut key = BitVec::zeros(locked.num_key_bits());

    while examples_used < config.max_examples {
        // Add a batch of random observations as constraints.
        sample_blocks(
            locked.num_primary_inputs(),
            config.batch_size,
            rng,
            |x, lanes| {
                let response = oracle.simulate_words(x);
                for lane in 0..lanes {
                    let (pattern, observed) = (lane_bits(x, lane), lane_bits(&response, lane));
                    encode_pinned_copy(locked, &mut keysolver, &keyvars, &pattern, &observed);
                    examples_used += 1;
                }
            },
        );
        // Any consistent key.
        key = match keysolver.solve() {
            SatResult::Sat(model) => {
                let mut k = BitVec::zeros(locked.num_key_bits());
                for (i, v) in keyvars.iter().enumerate() {
                    k.set(i, model.value(*v));
                }
                k
            }
            SatResult::Unsat => unreachable!("correct key always consistent"),
        };
        // Simulated equivalence query, one pattern at a time: it stops
        // at the first disagreement, and drawing ahead would shift the
        // stream.
        let mut disagreed = false;
        for _ in 0..config.equivalence_budget {
            let x: Vec<bool> = (0..locked.num_primary_inputs())
                .map(|_| rng.gen())
                .collect();
            let response = oracle.simulate(&x);
            if locked.simulate(&x, &key) != response {
                disagreed = true;
                encode_pinned_copy(locked, &mut keysolver, &keyvars, &x, &response);
                examples_used += 1;
                break;
            }
        }
        if !disagreed {
            accepted = true;
            break;
        }
    }

    let estimated_accuracy = locked.key_accuracy(oracle, &key, 2000, rng);
    PacAttackResult {
        key,
        examples_used,
        accepted,
        estimated_accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinational::lock_xor;
    use crate::sat_attack::{sat_attack, SatAttackConfig};
    use mlam_netlist::generate::{c17, random_circuit};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn learns_c17_key_from_random_examples() {
        let mut rng = StdRng::seed_from_u64(1);
        let oracle = c17();
        let locked = lock_xor(&oracle, 4, &mut rng);
        let result = pac_attack(&locked, &oracle, PacAttackConfig::default(), &mut rng);
        assert!(result.accepted);
        assert!(
            result.estimated_accuracy > 0.97,
            "accuracy {}",
            result.estimated_accuracy
        );
    }

    #[test]
    fn random_circuit_reaches_target_accuracy() {
        let mut rng = StdRng::seed_from_u64(2);
        let oracle = random_circuit(9, 40, 2, &mut rng);
        let locked = lock_xor(&oracle, 8, &mut rng);
        let result = pac_attack(&locked, &oracle, PacAttackConfig::default(), &mut rng);
        assert!(
            result.estimated_accuracy > 0.95,
            "accuracy {}",
            result.estimated_accuracy
        );
    }

    #[test]
    fn random_examples_cost_at_least_as_much_as_dips() {
        // The access-model hierarchy in numbers: on the same instance,
        // the chosen-input SAT attack uses no more oracle interactions
        // than the random-example learner.
        let mut rng = StdRng::seed_from_u64(3);
        let oracle = c17();
        let locked = lock_xor(&oracle, 5, &mut rng);
        let sat = sat_attack(&locked, &oracle, SatAttackConfig::default());
        let pac = pac_attack(&locked, &oracle, PacAttackConfig::default(), &mut rng);
        assert!(
            sat.iterations <= pac.examples_used,
            "DIPs {} vs random examples {}",
            sat.iterations,
            pac.examples_used
        );
    }
}
