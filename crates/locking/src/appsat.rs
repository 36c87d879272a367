//! AppSAT: approximate deobfuscation (Shamsi et al. \[5\]).
//!
//! AppSAT interleaves the exact DIP loop with batches of *random*
//! queries and stops as soon as the current key candidate's empirical
//! error rate stays below a threshold for several consecutive rounds.
//! The paper's Section V-A observes that this online-ML procedure
//! converts into a (uniform-distribution) PAC learner: the settlement
//! test is exactly an Angluin-style simulated equivalence query, and
//! the returned key is an ε-approximation rather than an exact key —
//! the distinction between approximate and exact inference that
//! Section IV-A turns on.
//!
//! Like the exact attack, AppSAT now runs on one persistent
//! [`DipSolver`]: the per-round key candidate is an assumption-mode
//! probe of the same instance that finds DIPs, so settlement rounds no
//! longer pay for a separate key-consistency solver.

use crate::combinational::{differing_lanes, lane_bits, sample_blocks, LockedNetlist};
use crate::dip::DipSolver;
use mlam_boolean::BitVec;
use mlam_netlist::Netlist;
use mlam_sat::SolverStats;
use rand::Rng;

/// Configuration of AppSAT.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppSatConfig {
    /// DIP iterations between random-query rounds.
    pub dips_per_round: usize,
    /// Random queries per settlement round.
    pub queries_per_round: usize,
    /// Error threshold below which a round counts as "settled".
    pub error_threshold: f64,
    /// Consecutive settled rounds required to stop.
    pub settlement_rounds: usize,
    /// Hard cap on total rounds.
    pub max_rounds: usize,
}

impl Default for AppSatConfig {
    fn default() -> Self {
        AppSatConfig {
            dips_per_round: 4,
            queries_per_round: 32,
            error_threshold: 0.02,
            settlement_rounds: 3,
            max_rounds: 200,
        }
    }
}

/// Result of an AppSAT run.
#[derive(Clone, Debug)]
pub struct AppSatResult {
    /// The (approximate) key returned.
    pub key: BitVec,
    /// Total DIP iterations.
    pub dip_iterations: usize,
    /// Total random queries.
    pub random_queries: usize,
    /// Whether the run settled (vs. the miter going UNSAT, which means
    /// the key is exact).
    pub settled_early: bool,
    /// Empirical accuracy of the returned key on fresh random inputs.
    pub estimated_accuracy: f64,
    /// Statistics of the persistent attack solver.
    pub solver_stats: SolverStats,
}

/// Runs AppSAT against `locked` with `oracle` as the activated chip.
///
/// # Panics
///
/// Panics on shape mismatches or when `max_rounds` is exhausted without
/// settlement (raise the budget for pathological instances).
pub fn appsat<R: Rng + ?Sized>(
    locked: &LockedNetlist,
    oracle: &Netlist,
    config: AppSatConfig,
    rng: &mut R,
) -> AppSatResult {
    assert_eq!(oracle.num_inputs(), locked.num_primary_inputs());
    assert_eq!(oracle.num_outputs(), locked.netlist().num_outputs());

    let mut dip_solver = DipSolver::new(locked);

    let _span = mlam_telemetry::span("locking.appsat").attr("key_bits", locked.num_key_bits());
    let mut dip_iterations = 0usize;
    let mut random_queries = 0usize;
    let mut consecutive_settled = 0usize;
    let mut exact = false;

    'outer: for _round in 0..config.max_rounds {
        // Phase 1: a few exact DIPs.
        for _ in 0..config.dips_per_round {
            match dip_solver.find_dip() {
                Some(dip) => {
                    dip_iterations += 1;
                    mlam_telemetry::counter!("locking.appsat.dips", 1);
                    let response = oracle.simulate(&dip);
                    dip_solver.constrain(&dip, &response);
                    // Learning-curve checkpoint at log-spaced DIP
                    // counts, same remaining-key-space proxy as the
                    // exact SAT attack; the settled accuracy closes the
                    // curve at the end of the run.
                    if mlam_telemetry::curves::recording()
                        && mlam_telemetry::curves::should_checkpoint(
                            dip_iterations as u64,
                            (config.dips_per_round * config.max_rounds) as u64,
                        )
                    {
                        mlam_telemetry::curves::checkpoint(
                            "appsat",
                            dip_iterations as u64,
                            crate::sat_attack::key_space_proxy(
                                dip_iterations,
                                locked.num_key_bits(),
                            ),
                            None,
                        );
                    }
                }
                None => {
                    exact = true;
                    break 'outer;
                }
            }
        }

        // Phase 2: random queries + settlement test on the current key
        // candidate (an assumption-mode probe of the same solver).
        let key = dip_solver.extract_key();
        let mut errors = 0usize;
        let mut round_queries: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        sample_blocks(
            locked.num_primary_inputs(),
            config.queries_per_round,
            rng,
            |x, lanes| {
                let response = oracle.simulate_words(x);
                let differ = differing_lanes(&locked.simulate_words(x, &key), &response);
                for lane in 0..lanes {
                    random_queries += 1;
                    // Metered per query so mid-run curve checkpoints account
                    // for settlement traffic exactly (the total is unchanged).
                    mlam_telemetry::counter!("locking.appsat.random_queries", 1);
                    if differ >> lane & 1 == 1 {
                        errors += 1;
                        // Reinforce: wrong queries become constraints.
                        round_queries.push((lane_bits(x, lane), lane_bits(&response, lane)));
                    }
                }
            },
        );
        for (x, response) in &round_queries {
            dip_solver.constrain(x, response);
        }
        let err_rate = errors as f64 / config.queries_per_round as f64;
        if err_rate <= config.error_threshold {
            consecutive_settled += 1;
            if consecutive_settled >= config.settlement_rounds {
                break;
            }
        } else {
            consecutive_settled = 0;
        }
    }

    let key = dip_solver.extract_key();
    let estimated_accuracy = locked.key_accuracy(oracle, &key, 2000, rng);
    // Close the curve with the key's measured accuracy (the validation
    // sample is not metered as attack queries — it is the
    // experimenter's, not the adversary's).
    if mlam_telemetry::curves::recording() {
        mlam_telemetry::curves::checkpoint(
            "appsat",
            dip_iterations as u64,
            estimated_accuracy,
            None,
        );
    }
    AppSatResult {
        key,
        dip_iterations,
        random_queries,
        settled_early: !exact,
        estimated_accuracy,
        solver_stats: dip_solver.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinational::lock_xor;
    use mlam_netlist::generate::{c17, random_circuit, ripple_adder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reaches_high_accuracy_on_c17() {
        let mut rng = StdRng::seed_from_u64(1);
        let oracle = c17();
        let locked = lock_xor(&oracle, 4, &mut rng);
        let result = appsat(&locked, &oracle, AppSatConfig::default(), &mut rng);
        assert!(
            result.estimated_accuracy > 0.97,
            "accuracy {}",
            result.estimated_accuracy
        );
    }

    #[test]
    fn reaches_high_accuracy_on_adder() {
        let mut rng = StdRng::seed_from_u64(2);
        let oracle = ripple_adder(3);
        let locked = lock_xor(&oracle, 8, &mut rng);
        let result = appsat(&locked, &oracle, AppSatConfig::default(), &mut rng);
        assert!(
            result.estimated_accuracy > 0.95,
            "accuracy {}",
            result.estimated_accuracy
        );
        assert!(result.dip_iterations + result.random_queries > 0);
    }

    #[test]
    fn random_circuit_settles() {
        let mut rng = StdRng::seed_from_u64(3);
        let oracle = random_circuit(10, 50, 2, &mut rng);
        let locked = lock_xor(&oracle, 12, &mut rng);
        let result = appsat(&locked, &oracle, AppSatConfig::default(), &mut rng);
        assert!(
            result.estimated_accuracy > 0.9,
            "accuracy {}",
            result.estimated_accuracy
        );
    }

    #[test]
    fn tight_threshold_still_terminates_via_unsat() {
        // With a zero error threshold AppSAT only stops by settling at
        // perfect rounds or by exhausting the miter — on a small circuit
        // the latter happens quickly.
        let mut rng = StdRng::seed_from_u64(4);
        let oracle = c17();
        let locked = lock_xor(&oracle, 3, &mut rng);
        let cfg = AppSatConfig {
            error_threshold: 0.0,
            ..Default::default()
        };
        let result = appsat(&locked, &oracle, cfg, &mut rng);
        assert!(result.estimated_accuracy > 0.99);
    }
}
