//! Property-based tests of the CDCL solver against brute force.

use mlam_sat::{Lit, SatResult, Solver};
use proptest::prelude::*;
use std::ops::RangeInclusive;

/// Strategy: a random CNF over `n` variables with `m` clauses of 1–4
/// literals each.
fn cnf_strategy() -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
    cnf_strategy_with(1..=4, |n| 1..=n * 4)
}

/// [`cnf_strategy`] with clause lengths drawn from `lens` and the
/// clause count from `count(n)`.
fn cnf_strategy_with(
    lens: RangeInclusive<usize>,
    count: fn(usize) -> RangeInclusive<usize>,
) -> impl Strategy<Value = (usize, Vec<Vec<i32>>)> {
    (2usize..=9).prop_flat_map(move |n| {
        let clause = prop::collection::vec(
            (1..=n as i32, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v }),
            lens.clone(),
        );
        let clauses = prop::collection::vec(clause, count(n));
        (Just(n), clauses)
    })
}

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

fn solve(num_vars: usize, clauses: &[Vec<i32>]) -> SatResult {
    let mut s = Solver::new();
    let vars = s.new_vars(num_vars);
    for clause in clauses {
        let lits: Vec<Lit> = clause
            .iter()
            .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
            .collect();
        s.add_clause(&lits);
    }
    s.solve()
}

proptest! {
    /// CDCL agrees with brute force on satisfiability, and every model
    /// it returns actually satisfies the formula.
    #[test]
    fn cdcl_matches_brute_force((n, clauses) in cnf_strategy()) {
        let expected = brute_force_sat(n, &clauses);
        match solve(n, &clauses) {
            SatResult::Sat(model) => {
                prop_assert!(expected, "solver said SAT, brute force says UNSAT");
                for clause in &clauses {
                    let ok = clause.iter().any(|&l| {
                        let val = model.values()[(l.unsigned_abs() - 1) as usize];
                        if l > 0 { val } else { !val }
                    });
                    prop_assert!(ok, "model violates {clause:?}");
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "solver said UNSAT, brute force says SAT"),
        }
    }

    /// Solving under assumptions never corrupts the instance: the
    /// unassumed instance's satisfiability is unchanged afterwards.
    #[test]
    fn assumptions_are_transient((n, clauses) in cnf_strategy(), a in 1usize..=4, neg in any::<bool>()) {
        let expected = brute_force_sat(n, &clauses);
        let mut s = Solver::new();
        let vars = s.new_vars(n);
        for clause in &clauses {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
                .collect();
            s.add_clause(&lits);
        }
        let assumption = Lit::new(vars[(a - 1).min(n - 1)], neg);
        let _ = s.solve_assuming(&[assumption]);
        prop_assert_eq!(s.solve().is_sat(), expected);
    }

    /// An assumption-satisfying model respects the assumption.
    #[test]
    fn assumption_holds_in_model((n, clauses) in cnf_strategy(), idx in 0usize..9, neg in any::<bool>()) {
        let mut s = Solver::new();
        let vars = s.new_vars(n);
        for clause in &clauses {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
                .collect();
            s.add_clause(&lits);
        }
        let v = vars[idx % n];
        let assumption = Lit::new(v, neg);
        if let SatResult::Sat(model) = s.solve_assuming(&[assumption]) {
            prop_assert_eq!(model.value(v), !neg);
        }
    }
}

/// Reference check: brute-force satisfiability of `clauses` plus a set
/// of forced assumption literals.
fn brute_force_sat_assuming(num_vars: usize, clauses: &[Vec<i32>], assumptions: &[i32]) -> bool {
    let mut all: Vec<Vec<i32>> = clauses.to_vec();
    all.extend(assumptions.iter().map(|&a| vec![a]));
    brute_force_sat(num_vars, &all)
}

proptest! {
    /// Incremental solving agrees with one-shot solving: adding the
    /// clause set in two batches with a solve call in between (leaving
    /// learnt clauses, activities and phases behind) reaches the same
    /// verdict as a fresh solver given everything at once, and any
    /// model is valid.
    #[test]
    fn incremental_agrees_with_one_shot((n, clauses) in cnf_strategy(), split in 0usize..=100) {
        let expected = brute_force_sat(n, &clauses);
        let mut s = Solver::new();
        let vars = s.new_vars(n);
        let cut = clauses.len() * split / 100;
        let to_lits = |clause: &Vec<i32>| -> Vec<Lit> {
            clause
                .iter()
                .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
                .collect()
        };
        for clause in &clauses[..cut] {
            s.add_clause(&to_lits(clause));
        }
        // Warm the solver on the prefix; its verdict is not the final
        // one but the learnt state must not corrupt what follows.
        let _ = s.solve();
        for clause in &clauses[cut..] {
            s.add_clause(&to_lits(clause));
        }
        match s.solve() {
            SatResult::Sat(model) => {
                prop_assert!(expected, "incremental said SAT, brute force UNSAT");
                for clause in &clauses {
                    let ok = clause.iter().any(|&l| {
                        let val = model.value(vars[(l.unsigned_abs() - 1) as usize]);
                        if l > 0 { val } else { !val }
                    });
                    prop_assert!(ok, "model violates {clause:?}");
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "incremental said UNSAT, brute force SAT"),
        }
    }

    /// `solve_assuming` over random assumption subsets agrees with
    /// brute force on the clause set extended by the assumption units,
    /// on a solver warmed by unrelated earlier calls — what the DIP
    /// loop does with key constraints.
    #[test]
    fn assumption_subsets_agree_with_brute_force(
        (n, clauses) in cnf_strategy(),
        raw in prop::collection::vec((0usize..9, any::<bool>()), 0..=3),
    ) {
        let mut s = Solver::new();
        let vars = s.new_vars(n);
        for clause in &clauses {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&l| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0))
                .collect();
            s.add_clause(&lits);
        }
        // Warm-up solves so later assumption calls run on a solver
        // carrying learnt clauses and saved phases.
        let _ = s.solve();
        let _ = s.solve_assuming(&[Lit::pos(vars[0])]);
        // Deduplicate by variable so the assumption set is consistent
        // with itself (contradictory pairs are separately covered by
        // unit tests).
        let mut assumptions: Vec<Lit> = Vec::new();
        let mut ints: Vec<i32> = Vec::new();
        for (idx, neg) in raw {
            let v = idx % n;
            if ints.iter().any(|&a| a.unsigned_abs() as usize == v + 1) {
                continue;
            }
            assumptions.push(Lit::new(vars[v], neg));
            ints.push(if neg { -((v + 1) as i32) } else { (v + 1) as i32 });
        }
        let expected = brute_force_sat_assuming(n, &clauses, &ints);
        match s.solve_assuming(&assumptions) {
            SatResult::Sat(model) => {
                prop_assert!(expected, "solver said SAT under {ints:?}, brute force UNSAT");
                for &a in &assumptions {
                    prop_assert!(model.lit_value(a), "assumption {a} violated by model");
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "solver said UNSAT under {ints:?}, brute force SAT"),
        }
        // And the unassumed instance is untouched.
        prop_assert_eq!(s.solve().is_sat(), brute_force_sat(n, &clauses));
    }
}

/// Strategy: a random CNF over `n` variables, a count of extra
/// variables (1–3) that appear in no clause, and an assumption list
/// over the `n + extra` variables, as DIMACS literals, in one of three
/// shapes beyond a consistent set of distinct variables: a literal
/// assumed again and again, a literal with its negation, or only
/// variables that appear in no clause. The CNF is 3-SAT with 3n–5n
/// clauses: dense enough that the search still meets conflicts below
/// the assumption levels, without the unit clauses that would settle it
/// at the root.
fn assumption_case_strategy() -> impl Strategy<Value = (usize, Vec<Vec<i32>>, usize, Vec<i32>)> {
    cnf_strategy_with(3..=3, |n| 3 * n..=5 * n).prop_flat_map(|(n, clauses)| {
        let lits = prop::collection::vec(
            (1..=n as i32, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v }),
            1..=3,
        );
        (Just(n), Just(clauses), 0u8..3, 1usize..=3, lits, 4usize..=8).prop_map(
            |(n, clauses, shape, free, mut lits, copies)| {
                match shape {
                    // Duplicates. Each copy opens an empty decision
                    // level, so the later assumptions and decisions sit
                    // at levels past `num_vars`.
                    0 => lits = [vec![lits[0]; copies], lits].concat(),
                    // A complementary pair.
                    1 => lits.push(-lits[0]),
                    // Variables that appear in no clause.
                    _ => {
                        for l in &mut lits {
                            let v = n as i32 + 1 + (l.abs() - 1) % free as i32;
                            *l = v * l.signum();
                        }
                    }
                }
                (n, clauses, free, lits)
            },
        )
    })
}

proptest! {
    /// `solve_assuming` with duplicate, complementary or clause-free
    /// assumptions agrees with brute force on the clause set extended
    /// by the assumption units, respects every assumption in its
    /// model, and leaves the unassumed instance untouched.
    #[test]
    fn unusual_assumptions_agree_with_brute_force(
        (n, clauses, free, ints) in assumption_case_strategy(),
    ) {
        let num_vars = n + free;
        let mut s = Solver::new();
        let vars = s.new_vars(num_vars);
        let lit = |l: i32| Lit::new(vars[(l.unsigned_abs() - 1) as usize], l < 0);
        for clause in &clauses {
            let lits: Vec<Lit> = clause.iter().map(|&l| lit(l)).collect();
            s.add_clause(&lits);
        }
        let assumptions: Vec<Lit> = ints.iter().map(|&l| lit(l)).collect();
        let expected = brute_force_sat_assuming(num_vars, &clauses, &ints);
        match s.solve_assuming(&assumptions) {
            SatResult::Sat(model) => {
                prop_assert!(expected, "solver said SAT under {ints:?}, brute force UNSAT");
                for &a in &assumptions {
                    prop_assert!(model.lit_value(a), "assumption {a} violated by model");
                }
            }
            SatResult::Unsat => prop_assert!(!expected, "solver said UNSAT under {ints:?}, brute force SAT"),
        }
        prop_assert_eq!(s.solve().is_sat(), brute_force_sat(num_vars, &clauses));
    }
}

/// Regression: every assumption opens a decision level, even one that
/// is already true, so four copies of one assumption push decision
/// levels past `num_vars` — the conflict analysis of this UNSAT core
/// must still find a stamp for each of them.
#[test]
fn duplicate_assumptions_open_levels_past_num_vars() {
    let mut s = Solver::new();
    let a = s.new_var();
    let b = s.new_var();
    let c = s.new_var();
    s.add_clause(&[Lit::pos(b), Lit::pos(c)]);
    s.add_clause(&[Lit::pos(b), Lit::neg(c)]);
    s.add_clause(&[Lit::neg(b), Lit::pos(c)]);
    s.add_clause(&[Lit::neg(b), Lit::neg(c)]);
    let r = s.solve_assuming(&[Lit::pos(a), Lit::pos(a), Lit::pos(a), Lit::pos(a)]);
    assert_eq!(r, SatResult::Unsat);
}
