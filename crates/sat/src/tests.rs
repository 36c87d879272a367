//! Unit tests of the solver core (the brute-force cross-checks; the
//! property-based suite lives in `tests/properties.rs`).

use crate::search::luby;
use crate::types::{Lit, SatResult, SolverStats, Var};
use crate::Solver;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn brute_force_sat(num_vars: usize, clauses: &[Vec<i32>]) -> bool {
    'outer: for mask in 0u64..(1 << num_vars) {
        for clause in clauses {
            let sat = clause.iter().any(|&l| {
                let v = (l.unsigned_abs() - 1) as usize;
                let val = mask >> v & 1 == 1;
                if l > 0 {
                    val
                } else {
                    !val
                }
            });
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn solve_ints(num_vars: usize, clauses: &[Vec<i32>]) -> SatResult {
    let mut s = Solver::new();
    let vars = s.new_vars(num_vars);
    for clause in clauses {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
            .collect();
        s.add_clause(&lits);
    }
    let result = s.solve();
    // Any returned model must actually satisfy the clauses.
    if let SatResult::Sat(m) = &result {
        for clause in clauses {
            assert!(
                clause.iter().any(|&l| {
                    let val = m.value(vars[(l.unsigned_abs() - 1) as usize]);
                    if l > 0 {
                        val
                    } else {
                        !val
                    }
                }),
                "model violates clause {clause:?}"
            );
        }
    }
    result
}

#[test]
fn trivial_instances() {
    assert!(solve_ints(1, &[vec![1]]).is_sat());
    assert!(solve_ints(1, &[vec![-1]]).is_sat());
    assert!(!solve_ints(1, &[vec![1], vec![-1]]).is_sat());
    assert!(solve_ints(2, &[vec![1, 2], vec![-1, 2], vec![1, -2]]).is_sat());
    assert!(!solve_ints(2, &[vec![1, 2], vec![-1, 2], vec![1, -2], vec![-1, -2]]).is_sat());
}

#[test]
fn pigeonhole_3_into_2_is_unsat() {
    assert!(!pigeonhole(3, 2).solve().is_sat());
}

#[test]
fn random_3sat_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut sat_seen = 0;
    let mut unsat_seen = 0;
    for _ in 0..400 {
        let n = rng.gen_range(3..=10usize);
        let m = rng.gen_range(1..=(n * 5));
        let clauses: Vec<Vec<i32>> = (0..m)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let v = rng.gen_range(1..=n as i32);
                        if rng.gen() {
                            v
                        } else {
                            -v
                        }
                    })
                    .collect()
            })
            .collect();
        let expected = brute_force_sat(n, &clauses);
        let got = solve_ints(n, &clauses).is_sat();
        assert_eq!(got, expected, "n={n} clauses={clauses:?}");
        if expected {
            sat_seen += 1;
        } else {
            unsat_seen += 1;
        }
    }
    assert!(
        sat_seen > 20 && unsat_seen > 20,
        "{sat_seen} / {unsat_seen}"
    );
}

#[test]
fn assumptions_are_not_permanent() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
    // Under assumption ¬a, b must be true.
    match s.solve_assuming(&[Lit::neg(a)]) {
        SatResult::Sat(m) => {
            assert!(!m.value(a));
            assert!(m.value(b));
        }
        SatResult::Unsat => panic!("must be SAT"),
    }
    // Under assumption a, b is free; instance still SAT.
    assert!(s.solve_assuming(&[Lit::pos(a)]).is_sat());
    // Contradictory assumptions -> UNSAT, but instance recovers.
    assert!(!s.solve_assuming(&[Lit::pos(a), Lit::neg(a)]).is_sat());
    assert!(s.solve().is_sat());
    // ... and solves under assumptions again.
    assert!(s.solve_assuming(&[Lit::pos(a)]).is_sat());
}

#[test]
fn incremental_clause_addition() {
    let mut s = Solver::new();
    let vars = s.new_vars(4);
    s.add_clause(&[Lit::pos(vars[0]), Lit::pos(vars[1])]);
    assert!(s.solve().is_sat());
    s.add_clause(&[Lit::neg(vars[0])]);
    match s.solve() {
        SatResult::Sat(m) => assert!(m.value(vars[1])),
        SatResult::Unsat => panic!("still SAT"),
    }
    s.add_clause(&[Lit::neg(vars[1])]);
    assert!(!s.solve().is_sat());
    // Permanent UNSAT.
    assert!(!s.solve().is_sat());
}

#[test]
fn assumptions_with_unsat_core_behaviour() {
    let mut s = Solver::new();
    let x = s.new_var();
    let y = s.new_var();
    let z = s.new_var();
    s.add_clause(&[Lit::neg(x), Lit::pos(y)]);
    s.add_clause(&[Lit::neg(y), Lit::pos(z)]);
    s.add_clause(&[Lit::neg(z)]);
    // Chain forces ¬x.
    assert!(!s.solve_assuming(&[Lit::pos(x)]).is_sat());
    assert!(s.solve_assuming(&[Lit::neg(x)]).is_sat());
}

#[test]
fn large_random_satisfiable_instance() {
    // Plant a solution, generate clauses satisfied by it.
    let mut rng = StdRng::seed_from_u64(7);
    let n = 200;
    let planted: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
    let mut s = Solver::new();
    let vars = s.new_vars(n);
    for _ in 0..900 {
        let mut clause = Vec::new();
        loop {
            clause.clear();
            for _ in 0..3 {
                let v = rng.gen_range(0..n);
                clause.push(Lit::new(vars[v], rng.gen()));
            }
            // Keep only clauses satisfied by the planted assignment.
            if clause
                .iter()
                .any(|l| planted[l.var().index()] != l.is_negated())
            {
                break;
            }
        }
        s.add_clause(&clause);
    }
    match s.solve() {
        SatResult::Sat(_) => {}
        SatResult::Unsat => panic!("planted instance must be SAT"),
    }
    assert!(s.stats().propagations > 0);
}

#[test]
fn stats_track_incremental_work() {
    let mut s = Solver::new();
    let vars = s.new_vars(8);
    // An XOR-ish chain with enough conflicts to learn something.
    for w in vars.windows(2) {
        s.add_clause(&[Lit::pos(w[0]), Lit::pos(w[1])]);
        s.add_clause(&[Lit::neg(w[0]), Lit::neg(w[1])]);
    }
    assert!(s.solve().is_sat());
    let before = s.stats();
    assert_eq!(before.assumption_solves, 0);
    assert!(s.solve_assuming(&[Lit::pos(vars[0])]).is_sat());
    assert!(!s
        .solve_assuming(&[Lit::pos(vars[0]), Lit::pos(vars[1])])
        .is_sat());
    let delta = s.stats().since(&before);
    assert_eq!(delta.assumption_solves, 2);
    // The per-call delta of the monotone counters is non-negative and
    // `since` on identical snapshots is zero.
    assert_eq!(s.stats().since(&s.stats()).conflicts, 0);
}

/// The pigeonhole formula PHP(`pigeons`, `holes`): every pigeon sits
/// in some hole and no hole holds two. UNSAT whenever
/// `pigeons > holes`, and hard for resolution, so it learns many
/// clauses.
fn pigeonhole(pigeons: usize, holes: usize) -> Solver {
    let mut s = Solver::new();
    let vars = s.new_vars(pigeons * holes);
    let p = |i: usize, j: usize| vars[i * holes + j];
    for i in 0..pigeons {
        let lits: Vec<Lit> = (0..holes).map(|j| Lit::pos(p(i, j))).collect();
        s.add_clause(&lits);
    }
    for j in 0..holes {
        for a in 0..pigeons {
            for b in (a + 1)..pigeons {
                s.add_clause(&[Lit::neg(p(a, j)), Lit::neg(p(b, j))]);
            }
        }
    }
    s
}

#[test]
fn learnt_reduction_keeps_verdicts() {
    // PHP(8,7) runs past the first reduction limit (2000 conflicts), so
    // the arena is compacted and the reasons remapped mid-search; the
    // verdict must stay UNSAT.
    let mut s = pigeonhole(8, 7);
    assert!(!s.solve().is_sat());
    let stats = s.stats();
    assert!(stats.learnts > 0, "pigeonhole must learn clauses");
    assert!(stats.lbd_reductions > 0, "no reduction ran: {stats:?}");
}

/// The exact search trajectory on two pigeonhole instances: PHP(8,7)
/// runs one learnt-clause reduction, PHP(9,8) eight. A change to the
/// solver's data layout must leave every decision, propagation,
/// learnt clause, restart and reduction where it was, so every counter
/// is pinned. `dip::tests::search_trajectory_is_pinned` in
/// `mlam-locking` pins the incremental case.
#[test]
fn search_trajectory_is_pinned() {
    let expected = [
        (
            (8, 7),
            SolverStats {
                conflicts: 3_831,
                decisions: 4_777,
                propagations: 50_930,
                restarts: 29,
                learnt_clauses: 2_831,
                learnts: 3_830,
                lbd_reductions: 1,
                assumption_solves: 0,
                minimized_literals: 6_261,
            },
        ),
        (
            (9, 8),
            SolverStats {
                conflicts: 34_801,
                decisions: 43_424,
                propagations: 525_110,
                restarts: 167,
                learnt_clauses: 9_799,
                learnts: 34_800,
                lbd_reductions: 8,
                assumption_solves: 0,
                minimized_literals: 124_129,
            },
        ),
    ];
    for ((pigeons, holes), stats) in expected {
        let mut s = pigeonhole(pigeons, holes);
        assert!(!s.solve().is_sat());
        assert_eq!(s.stats(), stats, "PHP({pigeons},{holes})");
    }
}

#[test]
fn luby_sequence_prefix() {
    let prefix: Vec<u64> = (0..15).map(luby).collect();
    assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
}

#[test]
fn tautologies_and_duplicates_handled() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    s.add_clause(&[Lit::pos(a), Lit::neg(a)]); // tautology: ignored
    s.add_clause(&[Lit::pos(b), Lit::pos(b)]); // duplicate: unit b
    match s.solve() {
        SatResult::Sat(m) => assert!(m.value(b)),
        SatResult::Unsat => panic!(),
    }
    assert_eq!(s.num_clauses(), 0, "both clauses simplified away");
}

#[test]
fn units_first_shrink_later_clauses() {
    // The DIP loop pins circuit-copy inputs with units *before* adding
    // the copy's gate clauses; root simplification must then discard
    // satisfied clauses entirely.
    let mut s = Solver::new();
    let vars = s.new_vars(4);
    s.add_clause(&[Lit::pos(vars[0])]);
    s.add_clause(&[Lit::neg(vars[1])]);
    // Satisfied at root by vars[0]: dropped.
    s.add_clause(&[Lit::pos(vars[0]), Lit::pos(vars[2]), Lit::pos(vars[3])]);
    // vars[1] is root-false: the clause shrinks to a binary.
    s.add_clause(&[Lit::pos(vars[1]), Lit::pos(vars[2]), Lit::pos(vars[3])]);
    assert_eq!(s.num_clauses(), 1, "one shrunken clause survives");
    assert!(s.solve().is_sat());
}

#[test]
fn lit_api() {
    let v = Var(3);
    assert_eq!(Lit::pos(v).var(), v);
    assert!(!Lit::pos(v).is_negated());
    assert!(Lit::neg(v).is_negated());
    assert_eq!(!Lit::pos(v), Lit::neg(v));
    assert_eq!(Lit::new(v, true), Lit::neg(v));
    assert_eq!(format!("{}", Lit::neg(v)), "¬x3");
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "SAT model violates clause 1: (¬x0 ∨ x1)")]
fn a_model_breaking_a_given_clause_is_reported() {
    let mut s = Solver::new();
    let (a, b) = (s.new_var(), s.new_var());
    s.add_clause(&[Lit::pos(a)]);
    s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
    // Root propagation turned both clauses into units, so only the kept
    // originals still show the second one.
    assert_eq!(s.num_clauses(), 0);
    let wrong = crate::types::Model {
        values: vec![true, false],
    };
    s.check_model(&wrong, &[]);
}
