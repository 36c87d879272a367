//! Property-based tests for netlists, generators and the `.bench`
//! format.

use mlam_netlist::bench_format::{from_bench, to_bench};
use mlam_netlist::generate::{parity_tree, random_circuit, ripple_adder};
use mlam_netlist::{GateKind, Net, Netlist};
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

/// A random netlist on `inputs` inputs with 1–24 gates of every kind,
/// the variadic ones with one to three inputs, each reading any earlier
/// net, and 1–3 outputs on any nets.
fn netlist_of_every_kind(inputs: usize, rng: &mut StdRng) -> Netlist {
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
    let outputs = rng.gen_range(1..=3);
    let mut b = Netlist::builder(inputs, outputs);
    let mut nets: Vec<Net> = (0..inputs).map(|i| b.input(i)).collect();
    for _ in 0..rng.gen_range(1..=24) {
        let kind = *KINDS.choose(rng).expect("kinds");
        let arity = match kind {
            GateKind::Not | GateKind::Buf => 1,
            GateKind::Mux => 3,
            _ => rng.gen_range(1..=3),
        };
        let ins = (0..arity)
            .map(|_| *nets.choose(rng).expect("nets"))
            .collect();
        nets.push(b.gate(kind, ins));
    }
    for o in 0..outputs {
        b.set_output(o, *nets.choose(rng).expect("nets"));
    }
    b.build()
}

/// `net` with output 0 XOR-ed `flips` times with the minterm of
/// `pattern` (bit `i` is input `i`): an odd count changes output 0 on
/// that one pattern, an even count keeps the function.
fn with_minterm_flips(net: &Netlist, pattern: u64, flips: usize) -> Netlist {
    let mut b = Netlist::builder(net.num_inputs(), net.num_outputs());
    let mut nets: Vec<Net> = (0..net.num_inputs()).map(|i| b.input(i)).collect();
    for gate in net.gates() {
        let ins = gate.inputs.iter().map(|n| nets[n.index()]).collect();
        nets.push(b.gate(gate.kind, ins));
    }
    let literals = (0..net.num_inputs())
        .map(|i| match pattern >> i & 1 {
            1 => nets[i],
            _ => b.gate(GateKind::Not, vec![nets[i]]),
        })
        .collect();
    let minterm = b.gate(GateKind::And, literals);
    let mut out0 = nets[net.outputs()[0].index()];
    for _ in 0..flips {
        out0 = b.gate(GateKind::Xor, vec![out0, minterm]);
    }
    b.set_output(0, out0);
    for (o, net_out) in net.outputs().iter().enumerate().skip(1) {
        b.set_output(o, nets[net_out.index()]);
    }
    b.build()
}

/// Whether `a` and `b` agree on all `2^n` patterns, one `simulate`
/// call per pattern and netlist.
fn equivalent_by_patterns(a: &Netlist, b: &Netlist) -> bool {
    let n = a.num_inputs();
    (0..1u64 << n).all(|v| {
        let bits: Vec<bool> = (0..n).map(|i| v >> i & 1 == 1).collect();
        a.simulate(&bits) == b.simulate(&bits)
    })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Every lane of `simulate_words` equals `simulate` on that lane's
    /// pattern, for random words on netlists of every gate kind.
    #[test]
    fn simulate_words_matches_simulate(seed in any::<u64>(), n in 1usize..=9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = netlist_of_every_kind(n, &mut rng);
        let words: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        let out = net.simulate_words(&words);
        prop_assert_eq!(out.len(), net.num_outputs());
        for lane in 0..64 {
            let bits: Vec<bool> = words.iter().map(|w| w >> lane & 1 == 1).collect();
            let lane_out: Vec<bool> = out.iter().map(|w| w >> lane & 1 == 1).collect();
            prop_assert_eq!(lane_out, net.simulate(&bits), "lane {}", lane);
        }
    }

    /// `equivalent_exhaustive` agrees with a per-pattern loop: on two
    /// random netlists, on a netlist and a rebuilt copy that XORs one
    /// random pattern's minterm into output 0 twice (equal), and on one
    /// that XORs it once (different on that pattern alone, so a pattern
    /// the check skipped would show).
    #[test]
    fn equivalent_exhaustive_matches_the_pattern_loop(seed in any::<u64>(), n in 1usize..=9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = netlist_of_every_kind(n, &mut rng);
        let pattern = rng.gen_range(0..1u64 << n);
        let equal = with_minterm_flips(&a, pattern, 2);
        let differing = with_minterm_flips(&a, pattern, 1);
        prop_assert!(equivalent_by_patterns(&a, &equal));
        prop_assert!(a.equivalent_exhaustive(&equal));
        prop_assert!(!equivalent_by_patterns(&a, &differing));
        prop_assert!(!a.equivalent_exhaustive(&differing), "pattern {:b}", pattern);
        let mut other = netlist_of_every_kind(n, &mut rng);
        while other.num_outputs() != a.num_outputs() {
            other = netlist_of_every_kind(n, &mut rng);
        }
        prop_assert_eq!(a.equivalent_exhaustive(&other), equivalent_by_patterns(&a, &other));
    }
}
