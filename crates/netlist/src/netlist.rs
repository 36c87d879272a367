//! The core netlist type.

use std::fmt;

/// Identifier of a net (wire) inside a [`Netlist`].
///
/// Nets `0..num_inputs` are the primary inputs; every gate drives one
/// fresh net.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Net(pub(crate) u32);

impl Net {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Gate kinds supported by the netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Multi-input AND.
    And,
    /// Multi-input OR.
    Or,
    /// Multi-input NAND.
    Nand,
    /// Multi-input NOR.
    Nor,
    /// Two-input XOR (multi-input = parity).
    Xor,
    /// Two-input XNOR (multi-input = parity complement).
    Xnor,
    /// Inverter (exactly one input).
    Not,
    /// Buffer (exactly one input).
    Buf,
    /// 2:1 multiplexer: inputs `[sel, a, b]`, output `sel ? b : a`.
    Mux,
}

impl GateKind {
    /// Evaluates the gate on the given input values.
    ///
    /// # Panics
    ///
    /// Panics on an arity violation (`Not`/`Buf` need exactly 1 input,
    /// `Mux` exactly 3, the rest at least 1).
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::And => {
                assert!(!inputs.is_empty());
                inputs.iter().all(|&b| b)
            }
            GateKind::Or => {
                assert!(!inputs.is_empty());
                inputs.iter().any(|&b| b)
            }
            GateKind::Nand => !GateKind::And.eval(inputs),
            GateKind::Nor => !GateKind::Or.eval(inputs),
            GateKind::Xor => {
                assert!(!inputs.is_empty());
                inputs.iter().fold(false, |a, &b| a ^ b)
            }
            GateKind::Xnor => !GateKind::Xor.eval(inputs),
            GateKind::Not => {
                assert_eq!(inputs.len(), 1, "NOT takes exactly one input");
                !inputs[0]
            }
            GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "BUF takes exactly one input");
                inputs[0]
            }
            GateKind::Mux => {
                assert_eq!(inputs.len(), 3, "MUX takes [sel, a, b]");
                if inputs[0] {
                    inputs[2]
                } else {
                    inputs[1]
                }
            }
        }
    }

    /// Checks that the kind takes `n` inputs: `Not`/`Buf` exactly 1,
    /// `Mux` exactly 3, the rest at least 1. The error names the rule.
    pub(crate) fn check_arity(self, n: usize) -> Result<(), String> {
        match self {
            GateKind::Not | GateKind::Buf if n != 1 => {
                Err(format!("{self} takes exactly one input, got {n}"))
            }
            GateKind::Mux if n != 3 => Err(format!("MUX takes three inputs [sel, a, b], got {n}")),
            _ if n == 0 => Err(format!("{self} needs at least one input")),
            _ => Ok(()),
        }
    }

    /// The `.bench`-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Not => "NOT",
            GateKind::Buf => "BUF",
            GateKind::Mux => "MUX",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One gate: a kind plus its input nets. The gate drives the net whose
/// index is `num_inputs + position`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// The logic function.
    pub kind: GateKind,
    /// Input nets, in order (order matters for [`GateKind::Mux`]).
    pub inputs: Vec<Net>,
}

/// A combinational gate-level netlist.
///
/// Gates are stored in topological order by construction: a gate may
/// only reference primary inputs or earlier gates, which the builder
/// enforces, so simulation is a single forward pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Netlist {
    num_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<Net>,
}

impl Netlist {
    /// Starts building a netlist with `num_inputs` primary inputs and
    /// `num_outputs` outputs.
    pub fn builder(num_inputs: usize, num_outputs: usize) -> NetlistBuilder {
        NetlistBuilder {
            num_inputs,
            gates: Vec::new(),
            outputs: vec![None; num_outputs],
        }
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gates, in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The output nets.
    pub fn outputs(&self) -> &[Net] {
        &self.outputs
    }

    /// Total number of nets (inputs + gates).
    pub fn num_nets(&self) -> usize {
        self.num_inputs + self.gates.len()
    }

    /// Simulates the netlist on an input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn simulate(&self, inputs: &[bool]) -> Vec<bool> {
        let values = self.simulate_nets(inputs);
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// Simulates and returns the value of **every** net (inputs first,
    /// then each gate output in order). Useful for debugging and for
    /// the locking attacks that inspect internal wires.
    pub fn simulate_nets(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.num_inputs, "input width mismatch");
        let mut values = Vec::with_capacity(self.num_nets());
        values.extend_from_slice(inputs);
        let mut gate_in = Vec::new();
        for gate in &self.gates {
            gate_in.clear();
            gate_in.extend(gate.inputs.iter().map(|n| values[n.index()]));
            values.push(gate.kind.eval(&gate_in));
        }
        values
    }

    /// Logic depth: the longest input-to-output path measured in gates.
    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.num_nets()];
        for (i, gate) in self.gates.iter().enumerate() {
            let d = gate
                .inputs
                .iter()
                .map(|n| depth[n.index()])
                .max()
                .unwrap_or(0);
            depth[self.num_inputs + i] = d + 1;
        }
        self.outputs
            .iter()
            .map(|o| depth[o.index()])
            .max()
            .unwrap_or(0)
    }

    /// Exhaustively compares two netlists (small input counts only).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or `num_inputs > 20`.
    pub fn equivalent_exhaustive(&self, other: &Netlist) -> bool {
        assert_eq!(self.num_inputs, other.num_inputs, "input width mismatch");
        assert_eq!(self.num_outputs(), other.num_outputs(), "output count");
        assert!(
            self.num_inputs <= 20,
            "exhaustive check limited to 20 inputs"
        );
        for v in 0..(1u64 << self.num_inputs) {
            let bits: Vec<bool> = (0..self.num_inputs).map(|i| v >> i & 1 == 1).collect();
            if self.simulate(&bits) != other.simulate(&bits) {
                return false;
            }
        }
        true
    }
}

/// Incremental builder enforcing topological order.
#[derive(Clone, Debug)]
pub struct NetlistBuilder {
    num_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<Option<Net>>,
}

impl NetlistBuilder {
    /// The net of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs`.
    pub fn input(&self, i: usize) -> Net {
        assert!(i < self.num_inputs, "input index out of range");
        Net(i as u32)
    }

    /// Adds a gate and returns the net it drives.
    ///
    /// # Panics
    ///
    /// Panics if an input net does not exist yet (topological-order
    /// violation) or the gate arity is invalid for its kind.
    pub fn gate(&mut self, kind: GateKind, inputs: Vec<Net>) -> Net {
        let limit = (self.num_inputs + self.gates.len()) as u32;
        for n in &inputs {
            assert!(n.0 < limit, "gate references a net that does not exist yet");
        }
        kind.check_arity(inputs.len())
            .unwrap_or_else(|rule| panic!("{rule}"));
        self.gates.push(Gate { kind, inputs });
        Net(limit)
    }

    /// Connects output `idx` to `net`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range or `net` does not exist.
    pub fn set_output(&mut self, idx: usize, net: Net) {
        assert!(idx < self.outputs.len(), "output index out of range");
        assert!(
            (net.0 as usize) < self.num_inputs + self.gates.len(),
            "output references a net that does not exist"
        );
        self.outputs[idx] = Some(net);
    }

    /// Current number of nets.
    pub fn num_nets(&self) -> usize {
        self.num_inputs + self.gates.len()
    }

    /// Finalizes the netlist.
    ///
    /// # Panics
    ///
    /// Panics if any output is unconnected.
    pub fn build(self) -> Netlist {
        let outputs = self
            .outputs
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.unwrap_or_else(|| panic!("output {i} not connected")))
            .collect();
        Netlist {
            num_inputs: self.num_inputs,
            gates: self.gates,
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        // inputs: a, b, cin; outputs: sum, cout
        let mut b = Netlist::builder(3, 2);
        let (a, x, cin) = (b.input(0), b.input(1), b.input(2));
        let ab = b.gate(GateKind::Xor, vec![a, x]);
        let sum = b.gate(GateKind::Xor, vec![ab, cin]);
        let and1 = b.gate(GateKind::And, vec![a, x]);
        let and2 = b.gate(GateKind::And, vec![ab, cin]);
        let cout = b.gate(GateKind::Or, vec![and1, and2]);
        b.set_output(0, sum);
        b.set_output(1, cout);
        b.build()
    }

    #[test]
    fn full_adder_truth_table() {
        let fa = full_adder();
        for a in [false, true] {
            for x in [false, true] {
                for c in [false, true] {
                    let out = fa.simulate(&[a, x, c]);
                    let total = a as u8 + x as u8 + c as u8;
                    assert_eq!(out[0], total % 2 == 1, "sum for {a}{x}{c}");
                    assert_eq!(out[1], total >= 2, "carry for {a}{x}{c}");
                }
            }
        }
    }

    #[test]
    fn gate_kind_semantics() {
        assert!(GateKind::And.eval(&[true, true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(GateKind::Nor.eval(&[false, false]));
        assert!(GateKind::Xor.eval(&[true, true, true]));
        assert!(!GateKind::Xor.eval(&[true, true]));
        assert!(GateKind::Xnor.eval(&[true, true]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(GateKind::Buf.eval(&[true]));
        assert!(GateKind::Mux.eval(&[false, true, false]));
        assert!(!GateKind::Mux.eval(&[true, true, false]));
    }

    #[test]
    fn depth_of_adder() {
        let fa = full_adder();
        assert_eq!(fa.depth(), 3); // xor -> and -> or path
        assert_eq!(fa.num_gates(), 5);
        assert_eq!(fa.num_nets(), 8);
    }

    #[test]
    fn simulate_nets_exposes_wires() {
        let fa = full_adder();
        let nets = fa.simulate_nets(&[true, true, false]);
        assert_eq!(nets.len(), 8);
        assert!(nets[0]);
        assert!(!nets[3]); // a xor b
        assert!(nets[5]); // a and b
    }

    #[test]
    fn exhaustive_equivalence_detects_difference() {
        let fa = full_adder();
        assert!(fa.equivalent_exhaustive(&fa));
        // An adder with the carry gates swapped to NAND differs.
        let mut b = Netlist::builder(3, 2);
        let (a, x, cin) = (b.input(0), b.input(1), b.input(2));
        let ab = b.gate(GateKind::Xor, vec![a, x]);
        let sum = b.gate(GateKind::Xor, vec![ab, cin]);
        let and1 = b.gate(GateKind::Nand, vec![a, x]);
        let and2 = b.gate(GateKind::And, vec![ab, cin]);
        let cout = b.gate(GateKind::Or, vec![and1, and2]);
        b.set_output(0, sum);
        b.set_output(1, cout);
        let broken = b.build();
        assert!(!fa.equivalent_exhaustive(&broken));
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut b = Netlist::builder(1, 1);
        b.gate(GateKind::Not, vec![Net(5)]);
    }

    #[test]
    #[should_panic(expected = "not connected")]
    fn unconnected_output_panics() {
        Netlist::builder(1, 1).build();
    }

    #[test]
    #[should_panic(expected = "exactly one input")]
    fn not_gate_arity_checked() {
        let mut b = Netlist::builder(2, 1);
        let (x, y) = (b.input(0), b.input(1));
        b.gate(GateKind::Not, vec![x, y]);
    }
}
