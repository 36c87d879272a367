//! Read/write the ISCAS-style `.bench` text format.
//!
//! ```text
//! # comment
//! INPUT(i0)
//! INPUT(i1)
//! OUTPUT(o0)
//! g0 = NAND(i0, i1)
//! o0 = NOT(g0)
//! ```
//!
//! Gates may appear in any order; the parser topologically sorts them.

use crate::netlist::{GateKind, Net, Netlist};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced when parsing `.bench` text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBenchError {
    line: usize,
    message: String,
}

impl ParseBenchError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseBenchError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number of the offending input line (0 for global
    /// errors).
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl Error for ParseBenchError {}

/// Serializes a netlist to `.bench` text.
///
/// Inputs are named `i<k>`, gates `g<k>`, and each output gets an
/// `OUTPUT(...)` line referring to the driving net's name.
pub fn to_bench(netlist: &Netlist) -> String {
    let name = |net: Net| -> String {
        if net.index() < netlist.num_inputs() {
            format!("i{}", net.index())
        } else {
            format!("g{}", net.index() - netlist.num_inputs())
        }
    };
    let mut out = String::new();
    out.push_str("# generated by mlam-netlist\n");
    for i in 0..netlist.num_inputs() {
        out.push_str(&format!("INPUT(i{i})\n"));
    }
    for o in netlist.outputs() {
        out.push_str(&format!("OUTPUT({})\n", name(*o)));
    }
    for (k, gate) in netlist.gates().iter().enumerate() {
        let ins: Vec<String> = gate.inputs.iter().map(|n| name(*n)).collect();
        out.push_str(&format!(
            "g{k} = {}({})\n",
            gate.kind.mnemonic(),
            ins.join(", ")
        ));
    }
    out
}

/// Parses `.bench` text into a netlist.
///
/// # Errors
///
/// Returns an error on malformed lines, unknown gate kinds, gates with
/// the wrong number of inputs for their kind, undefined signal
/// references, duplicate definitions, or combinational cycles.
pub fn from_bench(text: &str) -> Result<Netlist, ParseBenchError> {
    struct RawGate {
        kind: GateKind,
        inputs: Vec<String>,
        line: usize,
    }

    let mut input_names: Vec<String> = Vec::new();
    let mut output_names: Vec<String> = Vec::new();
    let mut gates: HashMap<String, RawGate> = HashMap::new();
    let mut gate_order: Vec<String> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("INPUT(") {
            let name = rest
                .strip_suffix(')')
                .ok_or_else(|| ParseBenchError::new(lineno, "missing ')'"))?
                .trim()
                .to_string();
            if name.is_empty() {
                return Err(ParseBenchError::new(lineno, "empty input name"));
            }
            input_names.push(name);
        } else if let Some(rest) = line.strip_prefix("OUTPUT(") {
            let name = rest
                .strip_suffix(')')
                .ok_or_else(|| ParseBenchError::new(lineno, "missing ')'"))?
                .trim()
                .to_string();
            output_names.push(name);
        } else if let Some((lhs, rhs)) = line.split_once('=') {
            let name = lhs.trim().to_string();
            let rhs = rhs.trim();
            let (kind_str, args) = rhs
                .split_once('(')
                .ok_or_else(|| ParseBenchError::new(lineno, "expected KIND(args)"))?;
            let args = args
                .strip_suffix(')')
                .ok_or_else(|| ParseBenchError::new(lineno, "missing ')'"))?;
            let kind = match kind_str.trim().to_ascii_uppercase().as_str() {
                "AND" => GateKind::And,
                "OR" => GateKind::Or,
                "NAND" => GateKind::Nand,
                "NOR" => GateKind::Nor,
                "XOR" => GateKind::Xor,
                "XNOR" => GateKind::Xnor,
                "NOT" | "INV" => GateKind::Not,
                "BUF" | "BUFF" => GateKind::Buf,
                "MUX" => GateKind::Mux,
                other => {
                    return Err(ParseBenchError::new(
                        lineno,
                        format!("unknown gate kind '{other}'"),
                    ))
                }
            };
            let inputs: Vec<String> = args
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            kind.check_arity(inputs.len())
                .map_err(|rule| ParseBenchError::new(lineno, rule))?;
            if gates.contains_key(&name) {
                return Err(ParseBenchError::new(
                    lineno,
                    format!("duplicate definition of '{name}'"),
                ));
            }
            gates.insert(
                name.clone(),
                RawGate {
                    kind,
                    inputs,
                    line: lineno,
                },
            );
            gate_order.push(name);
        } else {
            return Err(ParseBenchError::new(lineno, "unrecognized line"));
        }
    }

    // Topological sort of the gates (DFS with cycle detection).
    let mut order: Vec<String> = Vec::with_capacity(gate_order.len());
    let mut state: HashMap<String, u8> = HashMap::new(); // 1 = visiting, 2 = done
    fn visit(
        name: &str,
        gates: &HashMap<String, RawGate>,
        input_names: &[String],
        state: &mut HashMap<String, u8>,
        order: &mut Vec<String>,
    ) -> Result<(), ParseBenchError> {
        if input_names.iter().any(|i| i == name) {
            return Ok(());
        }
        let gate = gates
            .get(name)
            .ok_or_else(|| ParseBenchError::new(0, format!("undefined signal '{name}'")))?;
        match state.get(name) {
            Some(1) => {
                return Err(ParseBenchError::new(
                    gate.line,
                    format!("combinational cycle through '{name}'"),
                ))
            }
            Some(2) => return Ok(()),
            _ => {}
        }
        state.insert(name.to_string(), 1);
        for dep in &gate.inputs {
            visit(dep, gates, input_names, state, order)?;
        }
        state.insert(name.to_string(), 2);
        order.push(name.to_string());
        Ok(())
    }
    for name in &gate_order {
        visit(name, &gates, &input_names, &mut state, &mut order)?;
    }

    // Build the netlist.
    let mut b = Netlist::builder(input_names.len(), output_names.len());
    let mut net_of: HashMap<String, Net> = HashMap::new();
    for (i, name) in input_names.iter().enumerate() {
        net_of.insert(name.clone(), b.input(i));
    }
    for name in &order {
        let raw = &gates[name];
        let ins: Result<Vec<Net>, ParseBenchError> = raw
            .inputs
            .iter()
            .map(|n| {
                net_of.get(n).copied().ok_or_else(|| {
                    ParseBenchError::new(raw.line, format!("undefined signal '{n}'"))
                })
            })
            .collect();
        let net = b.gate(raw.kind, ins?);
        net_of.insert(name.clone(), net);
    }
    for (idx, name) in output_names.iter().enumerate() {
        let net = net_of
            .get(name)
            .copied()
            .ok_or_else(|| ParseBenchError::new(0, format!("undefined output signal '{name}'")))?;
        b.set_output(idx, net);
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{c17, ripple_adder};

    #[test]
    fn round_trip_c17() {
        let net = c17();
        let text = to_bench(&net);
        let back = from_bench(&text).expect("parse");
        assert!(net.equivalent_exhaustive(&back));
    }

    #[test]
    fn round_trip_adder() {
        let net = ripple_adder(3);
        let back = from_bench(&to_bench(&net)).expect("parse");
        assert!(net.equivalent_exhaustive(&back));
    }

    #[test]
    fn parses_out_of_order_definitions() {
        let text = "
INPUT(a)
INPUT(b)
OUTPUT(y)
y = NOT(t)
t = AND(a, b)
";
        let net = from_bench(text).expect("parse");
        assert_eq!(net.simulate(&[true, true]), vec![false]);
        assert_eq!(net.simulate(&[true, false]), vec![true]);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nINPUT(x) # trailing\nOUTPUT(y)\ny = BUF(x)\n";
        let net = from_bench(text).expect("parse");
        assert_eq!(net.simulate(&[true]), vec![true]);
    }

    #[test]
    fn rejects_cycle() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n";
        let err = from_bench(text).expect_err("cycle");
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn rejects_undefined_signal() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
        let err = from_bench(text).expect_err("undefined");
        assert!(err.to_string().contains("undefined"), "{err}");
    }

    #[test]
    fn rejects_unknown_gate() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
        let err = from_bench(text).expect_err("unknown kind");
        assert!(err.to_string().contains("unknown gate kind"), "{err}");
    }

    #[test]
    fn rejects_wrong_arity_on_its_line() {
        for (gate, rule) in [
            ("y = NOT(a, b)", "NOT takes exactly one input, got 2"),
            ("y = BUF(a, a)", "BUF takes exactly one input, got 2"),
            ("y = MUX(a, b)", "MUX takes three inputs [sel, a, b], got 2"),
            ("y = AND()", "AND needs at least one input"),
        ] {
            let text = format!("INPUT(a)\nINPUT(b)\nOUTPUT(y)\n{gate}\n");
            let err = from_bench(&text).expect_err(gate);
            assert_eq!(err.line(), 4, "{gate}");
            assert_eq!(err.to_string(), format!("line 4: {rule}"));
        }
    }

    #[test]
    fn rejects_duplicate_definition() {
        let text = "INPUT(a)\nOUTPUT(y)\ny = BUF(a)\ny = NOT(a)\n";
        let err = from_bench(text).expect_err("duplicate");
        assert!(err.to_string().contains("duplicate"), "{err}");
    }
}
