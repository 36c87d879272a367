//! The oracle-guided SAT attack on combinational logic locking
//! (Subramanyan et al.; the paper's Section II-A frames it as a
//! provable ML algorithm obtained by reduction to SAT).
//!
//! The attack maintains a *miter*: two copies of the locked circuit
//! sharing the primary inputs but carrying independent key vectors, with
//! the constraint that some output differs. A model of the miter yields
//! a **distinguishing input pattern (DIP)**; querying the unlocked
//! oracle on the DIP and constraining both key copies to reproduce the
//! observed output prunes all keys inconsistent with it. When the miter
//! becomes UNSAT, every key consistent with the accumulated I/O
//! constraints is functionally correct.
//!
//! The whole loop runs inside one persistent [`DipSolver`]: the miter
//! is encoded once, DIP constraints accumulate in place, key extraction
//! is an assumption flip rather than a second solver, and everything
//! the solver learnt on earlier iterations carries into later ones.
//! Each DIP constraint is a pair of circuit copies folded at encode
//! time: the DIP's input bits are constants that fold through the
//! gates, so only the key-dependent cone reaches the solver.
//! `EXPERIMENTS.md` documents the loop, and `BENCH_8.json` records its
//! win over a one-shot rebuild.

use crate::combinational::LockedNetlist;
use crate::dip::DipSolver;
use mlam_boolean::BitVec;
use mlam_netlist::Netlist;
use mlam_sat::SolverStats;

/// Configuration of the SAT attack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SatAttackConfig {
    /// Abort after this many DIP iterations.
    pub max_iterations: usize,
}

impl Default for SatAttackConfig {
    fn default() -> Self {
        SatAttackConfig {
            max_iterations: 10_000,
        }
    }
}

/// Result of a SAT attack run.
#[derive(Clone, Debug)]
pub struct SatAttackResult {
    /// The recovered key.
    pub key: BitVec,
    /// DIP iterations used.
    pub iterations: usize,
    /// Whether the recovered key makes the locked circuit functionally
    /// equivalent to the oracle: checked by exhaustive simulation up to
    /// 16 primary inputs and by a BDD equivalence check above that.
    pub key_is_functionally_correct: bool,
    /// Statistics of the persistent attack solver.
    pub solver_stats: SolverStats,
}

/// Remaining-key-space progress proxy for the DIP loop's learning
/// curve: each DIP eliminates at least one key (at best halving the
/// space), so after `dips` of at most `key_bits` possible halvings the
/// resolved fraction is bounded below by `dips / key_bits`, clamped to
/// 1. A zero-bit key is trivially resolved.
pub(crate) fn key_space_proxy(dips: usize, key_bits: usize) -> f64 {
    if key_bits == 0 {
        return 1.0;
    }
    1.0 - (key_bits.saturating_sub(dips)) as f64 / key_bits as f64
}

/// Runs the SAT attack against `locked`, with `oracle` standing in for
/// the activated chip (the attacker queries it on chosen inputs — the
/// *membership query* access of Section IV).
///
/// # Panics
///
/// Panics if the oracle's shape differs from the locked circuit's, or
/// if `max_iterations` is exhausted (indicating a pathological
/// instance).
pub fn sat_attack(
    locked: &LockedNetlist,
    oracle: &Netlist,
    config: SatAttackConfig,
) -> SatAttackResult {
    assert_eq!(
        oracle.num_inputs(),
        locked.num_primary_inputs(),
        "oracle input width"
    );
    assert_eq!(
        oracle.num_outputs(),
        locked.netlist().num_outputs(),
        "oracle output count"
    );

    let mut dip_solver = DipSolver::new(locked);

    let _span = mlam_telemetry::span("locking.sat_attack").attr("key_bits", locked.num_key_bits());
    let mut iterations = 0usize;
    let mut last_checkpoint: Option<(u64, f64)> = None;
    while let Some(dip) = dip_solver.find_dip() {
        iterations += 1;
        assert!(
            iterations <= config.max_iterations,
            "SAT attack exceeded {} iterations",
            config.max_iterations
        );
        mlam_telemetry::counter!("locking.sat_attack.dips", 1);
        let response = oracle.simulate(&dip);
        dip_solver.constrain(&dip, &response);
        // Learning-curve checkpoint at log-spaced DIP counts:
        // progress is a remaining-key-space proxy (each DIP
        // prunes at least one key, so `k` DIPs bound the attack
        // from below at `k` of the `num_key_bits` halvings).
        if mlam_telemetry::curves::recording()
            && mlam_telemetry::curves::should_checkpoint(
                iterations as u64,
                config.max_iterations as u64,
            )
        {
            let proxy = key_space_proxy(iterations, locked.num_key_bits());
            mlam_telemetry::curves::checkpoint("sat_attack", iterations as u64, proxy, None);
            last_checkpoint = Some((iterations as u64, proxy));
        }
    }
    // Close the curve at the UNSAT point: the key space is fully
    // pruned, so the resolved fraction is 1 regardless of DIP count.
    if mlam_telemetry::curves::recording() && last_checkpoint != Some((iterations as u64, 1.0)) {
        mlam_telemetry::curves::checkpoint("sat_attack", iterations as u64, 1.0, None);
    }

    // Extract any consistent key — an assumption flip on the same
    // solver, reusing everything the DIP loop learnt.
    let key = dip_solver.extract_key();

    let key_is_functionally_correct = if locked.num_primary_inputs() <= 16 {
        locked.equivalent_under_key(oracle, &key)
    } else {
        // Formal BDD-based check: exact for any input width.
        locked.equivalent_under_key_formal(oracle, &key)
    };

    SatAttackResult {
        key,
        iterations,
        key_is_functionally_correct,
        solver_stats: dip_solver.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinational::lock_xor;
    use mlam_netlist::generate::{c17, comparator, random_circuit, ripple_adder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn attack_and_check(oracle: &Netlist, key_bits: usize, seed: u64) -> SatAttackResult {
        let mut rng = StdRng::seed_from_u64(seed);
        let locked = lock_xor(oracle, key_bits, &mut rng);
        let result = sat_attack(&locked, oracle, SatAttackConfig::default());
        assert!(
            result.key_is_functionally_correct,
            "recovered key must unlock the circuit (seed {seed})"
        );
        result
    }

    #[test]
    fn recovers_c17_key() {
        let r = attack_and_check(&c17(), 4, 1);
        assert!(r.iterations <= 32, "iterations {}", r.iterations);
    }

    #[test]
    fn recovers_adder_key() {
        attack_and_check(&ripple_adder(3), 6, 2);
    }

    #[test]
    fn recovers_comparator_key() {
        attack_and_check(&comparator(4), 8, 3);
    }

    #[test]
    fn recovers_random_circuit_keys() {
        let mut rng = StdRng::seed_from_u64(4);
        for seed in 0..3 {
            let oracle = random_circuit(8, 40, 2, &mut rng);
            attack_and_check(&oracle, 10, 100 + seed);
        }
    }

    #[test]
    fn recovered_key_may_differ_but_is_equivalent() {
        // Functional equivalence is what matters: with XOR-masking
        // interactions there can be multiple correct keys.
        let r = attack_and_check(&c17(), 6, 5);
        assert!(r.key.len() == 6);
    }

    #[test]
    fn iteration_count_is_logarithmic_ish_in_keyspace() {
        // The DIP loop prunes many keys at once: iterations should be
        // far below 2^key_bits.
        let r = attack_and_check(&ripple_adder(3), 8, 6);
        assert!(
            r.iterations < 64,
            "DIP iterations {} should be << 256",
            r.iterations
        );
    }

    #[test]
    fn attack_is_deterministic_across_runs() {
        // The persistent solver is single-threaded and
        // assumption-deterministic: two runs on the same instance must
        // produce the identical key, DIP count, and counters.
        let oracle = ripple_adder(3);
        let mut rng = StdRng::seed_from_u64(42);
        let locked = lock_xor(&oracle, 6, &mut rng);
        let a = sat_attack(&locked, &oracle, SatAttackConfig::default());
        let b = sat_attack(&locked, &oracle, SatAttackConfig::default());
        assert_eq!(a.key, b.key);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.solver_stats.conflicts, b.solver_stats.conflicts);
        assert_eq!(a.solver_stats.decisions, b.solver_stats.decisions);
        assert_eq!(a.solver_stats.propagations, b.solver_stats.propagations);
    }

    #[test]
    fn learnt_persistence_never_changes_the_consistent_key_set() {
        // Regression for the incremental rework: clauses learnt while
        // finding DIPs stay in the solver for later calls. Learnt
        // clauses are logical consequences, so the set of keys
        // consistent with the accumulated I/O constraints must be
        // exactly what a cold solver computes from the same
        // constraints. Enumerate the full key space on a small
        // instance and compare the warm attack solver's verdicts
        // against fresh single-use solvers.
        let oracle = c17();
        let mut rng = StdRng::seed_from_u64(9);
        let key_bits = 4;
        let locked = lock_xor(&oracle, key_bits, &mut rng);

        // Warm solver: run the full DIP loop on it.
        let mut warm = crate::dip::DipSolver::new(&locked);
        let mut trace: Vec<(Vec<bool>, Vec<bool>)> = Vec::new();
        while let Some(dip) = warm.find_dip() {
            let response = oracle.simulate(&dip);
            warm.constrain(&dip, &response);
            trace.push((dip, response));
            assert!(trace.len() < 100, "runaway DIP loop");
        }
        assert!(warm.stats().learnts > 0 || warm.stats().conflicts == 0);

        for mask in 0u32..(1 << key_bits) {
            let mut key = BitVec::zeros(key_bits);
            for i in 0..key_bits {
                key.set(i, mask >> i & 1 == 1);
            }
            // Cold verdict: a fresh solver fed only the constraints.
            let mut cold = crate::dip::DipSolver::new(&locked);
            for (dip, response) in &trace {
                cold.constrain(dip, response);
            }
            assert_eq!(
                warm.is_key_consistent(&key),
                cold.is_key_consistent(&key),
                "learnt clauses changed the verdict for key {mask:04b}"
            );
            // And consistency must coincide with functional
            // correctness once the space is fully pruned.
            assert_eq!(
                warm.is_key_consistent(&key),
                locked.equivalent_under_key(&oracle, &key),
                "fully pruned key set must be exactly the correct keys"
            );
        }
    }
}
