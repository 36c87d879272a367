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
//! Since the incremental-solver rework, the whole loop runs inside one
//! persistent [`DipSolver`]: the miter is encoded once, DIP constraints
//! accumulate in place, key extraction is an assumption flip rather
//! than a second solver, and everything the solver learnt on earlier
//! iterations carries into later ones. `EXPERIMENTS.md` documents the
//! loop, and `BENCH_8.json` records its win over a one-shot rebuild.

use crate::combinational::LockedNetlist;
use crate::dip::DipSolver;
use mlam_boolean::BitVec;
use mlam_netlist::{cnf::tseitin_encode, Cnf, Netlist};
use mlam_sat::{Lit, Solver, SolverStats, Var};

/// Configuration of the SAT attack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SatAttackConfig {
    /// Abort after this many DIP iterations.
    pub max_iterations: usize,
    /// Random samples used for the post-hoc accuracy estimate
    /// (exhaustive check is used when the input space is small).
    pub validation_samples: usize,
}

impl Default for SatAttackConfig {
    fn default() -> Self {
        SatAttackConfig {
            max_iterations: 10_000,
            validation_samples: 2000,
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
    /// equivalent to the oracle (exhaustive for ≤ 20 primary inputs).
    pub key_is_functionally_correct: bool,
    /// Total SAT conflicts across all solver calls.
    pub sat_conflicts: u64,
    /// Statistics of the persistent attack solver.
    pub solver_stats: SolverStats,
}

/// Helper bundling a CNF buffer and its solver-variable offset: our CNF
/// builder allocates 1-based variables, which are mapped onto solver
/// variables on transfer.
struct CnfTransfer {
    vars: Vec<Var>,
}

impl CnfTransfer {
    /// Loads `cnf` into `solver` with fresh variables; returns the map
    /// from CNF variable index (1-based) to solver variable.
    fn load(cnf: &Cnf, solver: &mut Solver) -> CnfTransfer {
        let vars = solver.new_vars(cnf.num_vars);
        for clause in &cnf.clauses {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
                .collect();
            solver.add_clause(&lits);
        }
        CnfTransfer { vars }
    }

    fn var(&self, cnf_var: i32) -> Var {
        self.vars[(cnf_var.unsigned_abs() - 1) as usize]
    }
}

/// Encodes one copy of the locked netlist into the solver; returns
/// `(input_vars, key_vars, output_vars)`.
pub(crate) fn encode_copy(
    locked: &LockedNetlist,
    solver: &mut Solver,
) -> (Vec<Var>, Vec<Var>, Vec<Var>) {
    let mut cnf = Cnf::new(0);
    let enc = tseitin_encode(locked.netlist(), &mut cnf);
    let transfer = CnfTransfer::load(&cnf, solver);
    let np = locked.num_primary_inputs();
    let nk = locked.num_key_bits();
    let inputs: Vec<Var> = (0..np).map(|i| transfer.var(enc.vars[i])).collect();
    let keys: Vec<Var> = (0..nk).map(|i| transfer.var(enc.vars[np + i])).collect();
    let outputs: Vec<Var> = locked
        .netlist()
        .outputs()
        .iter()
        .map(|o| transfer.var(enc.vars[o.index()]))
        .collect();
    (inputs, keys, outputs)
}

/// Adds the constraint "circuit(x = dip, key = key_vars) produces
/// outputs = response" by instantiating a fresh copy of the circuit with
/// pinned inputs and outputs, sharing `key_vars`.
///
/// Pin units are added **before** the gate clauses: the solver's
/// root-level simplification then constant-folds most of the copy away
/// as it arrives (clauses satisfied by a pinned literal are dropped,
/// root-false literals stripped), so each constraint costs far fewer
/// live clauses than a naive copy.
pub(crate) fn add_io_constraint(
    locked: &LockedNetlist,
    solver: &mut Solver,
    key_vars: &[Var],
    dip: &[bool],
    response: &[bool],
) {
    let mut cnf = Cnf::new(0);
    let enc = tseitin_encode(locked.netlist(), &mut cnf);
    let vars = solver.new_vars(cnf.num_vars);
    let var_of = |cnf_var: i32| vars[(cnf_var.unsigned_abs() - 1) as usize];
    let np = locked.num_primary_inputs();

    for (i, &b) in dip.iter().enumerate() {
        solver.add_clause(&[Lit::new(var_of(enc.vars[i]), !b)]);
    }
    for (o, &b) in locked.netlist().outputs().iter().zip(response) {
        solver.add_clause(&[Lit::new(var_of(enc.vars[o.index()]), !b)]);
    }
    for (i, shared) in key_vars.iter().enumerate() {
        let kv = var_of(enc.vars[np + i]);
        // kv <-> shared
        solver.add_clause(&[Lit::pos(kv), Lit::neg(*shared)]);
        solver.add_clause(&[Lit::neg(kv), Lit::pos(*shared)]);
    }
    for clause in &cnf.clauses {
        let lits: Vec<Lit> = clause.iter().map(|&l| Lit::new(var_of(l), l < 0)).collect();
        solver.add_clause(&lits);
    }
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
        // Formal BDD-based check: exact for any input width (the
        // `validation_samples` knob remains for callers that validate
        // separately by sampling).
        let _ = config.validation_samples;
        locked.equivalent_under_key_formal(oracle, &key)
    };

    let solver_stats = dip_solver.stats();
    SatAttackResult {
        key,
        iterations,
        key_is_functionally_correct,
        sat_conflicts: solver_stats.conflicts,
        solver_stats,
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
