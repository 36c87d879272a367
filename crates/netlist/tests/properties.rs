//! Property-based tests for netlists, generators, CNF encoding and the
//! `.bench` format.

use mlam_netlist::bench_format::{from_bench, to_bench};
use mlam_netlist::cnf::{tseitin_encode, Cnf};
use mlam_netlist::generate::{parity_tree, random_circuit, ripple_adder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `.bench` text from the format's own tokens, lines in random order:
/// 1–3 `INPUT`s, 1–4 gates of every kind whose 1–4 arguments name
/// declared signals (so wrong arities and cycles occur), 1–2
/// `OUTPUT`s, and up to two stray `(`, `)`, `,`, `#` or `=`, each a
/// line of its own or appended to one.
fn token_bench(rng: &mut StdRng) -> String {
    const KINDS: [&str; 9] = [
        "AND", "OR", "NAND", "NOR", "XOR", "XNOR", "NOT", "BUF", "MUX",
    ];
    const STRAYS: [&str; 5] = ["(", ")", ",", "#", "="];
    let inputs = rng.gen_range(1..=3);
    let gates = rng.gen_range(1..=4);
    let signals: Vec<String> = (0..inputs)
        .map(|i| format!("i{i}"))
        .chain((0..gates).map(|g| format!("g{g}")))
        .collect();
    let mut lines: Vec<String> = (0..inputs).map(|i| format!("INPUT(i{i})")).collect();
    for g in 0..gates {
        let kind = KINDS.choose(rng).expect("kinds");
        let args: Vec<&str> = (0..rng.gen_range(1..=4))
            .map(|_| signals.choose(rng).expect("signals").as_str())
            .collect();
        lines.push(format!("g{g} = {kind}({})", args.join(", ")));
    }
    for _ in 0..rng.gen_range(1..=2) {
        lines.push(format!("OUTPUT({})", signals.choose(rng).expect("signals")));
    }
    for _ in 0..rng.gen_range(0..=2) {
        let stray = *STRAYS.choose(rng).expect("strays");
        match rng.gen_range(0..=lines.len()) {
            k if k == lines.len() => lines.push(stray.to_string()),
            k => lines[k].push_str(stray),
        }
    }
    lines.shuffle(rng);
    lines.join("\n")
}

/// `from_bench` returns instead of panicking, and a netlist it accepts
/// comes back unchanged from its own `to_bench` text.
fn assert_bench_parses_or_errs(text: &str) {
    if let Ok(net) = from_bench(text) {
        let again = from_bench(&to_bench(&net));
        assert_eq!(again, Ok(net), "re-parse of an accepted netlist");
    }
}

proptest! {
    /// Random circuits round-trip through the `.bench` text format.
    #[test]
    fn bench_round_trip(seed in any::<u64>(), gates in 5usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = random_circuit(6, gates, 2, &mut rng);
        let back = from_bench(&to_bench(&c)).expect("parse");
        prop_assert!(c.equivalent_exhaustive(&back));
    }

    /// Adders add for arbitrary widths and operands.
    #[test]
    fn adder_correct(width in 1usize..7, a in any::<u64>(), b in any::<u64>()) {
        let add = ripple_adder(width);
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let mut bits = Vec::new();
        for i in 0..width { bits.push(a >> i & 1 == 1); }
        for i in 0..width { bits.push(b >> i & 1 == 1); }
        let out = add.simulate(&bits);
        let mut got = 0u64;
        for (i, &o) in out.iter().enumerate() {
            if o { got |= 1 << i; }
        }
        prop_assert_eq!(got, a + b);
    }

    /// Parity trees compute parity for arbitrary widths.
    #[test]
    fn parity_correct(width in 1usize..12, v in any::<u64>()) {
        let p = parity_tree(width);
        let bits: Vec<bool> = (0..width).map(|i| v >> i & 1 == 1).collect();
        let expected = bits.iter().filter(|&&b| b).count() % 2 == 1;
        prop_assert_eq!(p.simulate(&bits)[0], expected);
    }

    /// The Tseitin encoding is satisfied by every real execution:
    /// assigning each net variable its simulated value (and computing
    /// the XOR-chain internals consistently) satisfies every clause in
    /// which only net variables occur, and the full CNF remains
    /// satisfiable with the output pinned to the simulated value.
    #[test]
    fn tseitin_respects_simulation(seed in any::<u64>(), input_mask in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit = random_circuit(5, 12, 1, &mut rng);
        let mut cnf = Cnf::new(0);
        let enc = tseitin_encode(&circuit, &mut cnf);
        let bits: Vec<bool> = (0..5).map(|i| input_mask >> i & 1 == 1).collect();
        let sim = circuit.simulate(&bits);
        // Pin inputs and output, solve with the CDCL solver via
        // brute force over remaining vars (small).
        for (i, &b) in bits.iter().enumerate() {
            let v = enc.vars[i];
            cnf.add_clause(vec![if b { v } else { -v }]);
        }
        let ov = enc.vars[circuit.outputs()[0].index()];
        cnf.add_clause(vec![if sim[0] { ov } else { -ov }]);
        // The formula must be satisfiable (consistent execution exists).
        let n = cnf.num_vars;
        prop_assume!(n <= 22);
        let mut sat = false;
        for mask in 0..(1u64 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
            if cnf.eval(&assignment) {
                sat = true;
                break;
            }
        }
        prop_assert!(sat, "no consistent execution for inputs {input_mask:b}");
    }

    /// Circuit depth never exceeds gate count.
    #[test]
    fn depth_bounded_by_gates(seed in any::<u64>(), gates in 3usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = random_circuit(4, gates, 1, &mut rng);
        prop_assert!(c.depth() <= c.num_gates());
    }

    /// Token-built `.bench` text parses or errs, never panics.
    #[test]
    fn bench_tokens_never_panic(seed in any::<u64>()) {
        assert_bench_parses_or_errs(&token_bench(&mut StdRng::seed_from_u64(seed)));
    }

    /// Arbitrary bytes parse or err, never panic.
    #[test]
    fn bench_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        assert_bench_parses_or_errs(&String::from_utf8_lossy(&bytes));
    }
}
