//! ARFF import/export for CRP sets — Weka interoperability.
//!
//! The paper's Table II experiments ran "the Perceptron algorithm
//! embedded in Weka \[27\]". This module writes CRP sets
//! ([`LabeledSet`]s) in Weka's ARFF format (one binary attribute per
//! challenge bit plus a binary class), so our simulated CRPs can be fed
//! to the original tooling — and reads ARFF back for the reverse
//! direction.

use mlam_boolean::{BitVec, LabeledSet};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Error produced when parsing ARFF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArffError {
    line: usize,
    message: String,
}

impl ParseArffError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseArffError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseArffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseArffError {}

/// Serializes a CRP set as an ARFF relation.
///
/// Challenge bit `i` becomes attribute `c<i>` with domain `{0,1}`; the
/// response becomes the `response {0,1}` class attribute.
pub fn to_arff(set: &LabeledSet, relation: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "% generated by mlam-puf");
    let _ = writeln!(out, "@RELATION {relation}");
    let _ = writeln!(out);
    for i in 0..set.num_inputs() {
        let _ = writeln!(out, "@ATTRIBUTE c{i} {{0,1}}");
    }
    let _ = writeln!(out, "@ATTRIBUTE response {{0,1}}");
    let _ = writeln!(out);
    let _ = writeln!(out, "@DATA");
    for (challenge, response) in set.pairs() {
        let mut row: Vec<&str> = challenge
            .iter()
            .map(|b| if b { "1" } else { "0" })
            .collect();
        row.push(if *response { "1" } else { "0" });
        let _ = writeln!(out, "{}", row.join(","));
    }
    out
}

/// Parses an ARFF relation back into a CRP set.
///
/// Expects the layout produced by [`to_arff`]: all attributes binary,
/// the last one being the response.
///
/// # Errors
///
/// Returns an error on structural problems (no attributes, rows of the
/// wrong width, non-binary values).
pub fn from_arff(text: &str) -> Result<LabeledSet, ParseArffError> {
    let mut num_attrs = 0usize;
    let mut in_data = false;
    let mut crps: Vec<(BitVec, bool)> = Vec::new();
    let mut n = 0usize;

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let upper = line.to_ascii_uppercase();
        if upper.starts_with("@RELATION") {
            continue;
        }
        if upper.starts_with("@ATTRIBUTE") {
            if in_data {
                return Err(ParseArffError::new(lineno, "attribute after @DATA"));
            }
            num_attrs += 1;
            continue;
        }
        if upper.starts_with("@DATA") {
            if num_attrs < 2 {
                return Err(ParseArffError::new(
                    lineno,
                    "need at least one challenge attribute plus the response",
                ));
            }
            n = num_attrs - 1;
            in_data = true;
            continue;
        }
        if !in_data {
            return Err(ParseArffError::new(lineno, "data before @DATA"));
        }
        let values: Vec<&str> = line.split(',').map(str::trim).collect();
        if values.len() != num_attrs {
            return Err(ParseArffError::new(
                lineno,
                format!("expected {num_attrs} values, got {}", values.len()),
            ));
        }
        let mut bits = BitVec::zeros(n);
        for (i, v) in values[..n].iter().enumerate() {
            match *v {
                "0" => {}
                "1" => bits.set(i, true),
                other => {
                    return Err(ParseArffError::new(
                        lineno,
                        format!("non-binary value '{other}'"),
                    ))
                }
            }
        }
        let response = match values[n] {
            "0" => false,
            "1" => true,
            other => {
                return Err(ParseArffError::new(
                    lineno,
                    format!("non-binary response '{other}'"),
                ))
            }
        };
        crps.push((bits, response));
    }
    if !in_data {
        return Err(ParseArffError::new(0, "missing @DATA section"));
    }
    Ok(LabeledSet::from_pairs(n, crps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterPuf;
    use crate::crp::collect_uniform;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let puf = ArbiterPuf::sample(12, 0.0, &mut rng);
        let set = collect_uniform(&puf, 50, &mut rng);
        let text = to_arff(&set, "arbiter_crps");
        let back = from_arff(&text).expect("parse");
        assert_eq!(set, back);
    }

    #[test]
    fn format_has_weka_structure() {
        let mut rng = StdRng::seed_from_u64(2);
        let puf = ArbiterPuf::sample(4, 0.0, &mut rng);
        let set = collect_uniform(&puf, 3, &mut rng);
        let text = to_arff(&set, "demo");
        assert!(text.contains("@RELATION demo"));
        assert_eq!(text.matches("@ATTRIBUTE").count(), 5);
        assert!(text.contains("@DATA"));
        let data_rows = text
            .lines()
            .skip_while(|l| !l.starts_with("@DATA"))
            .skip(1)
            .filter(|l| !l.trim().is_empty())
            .count();
        assert_eq!(data_rows, 3);
    }

    #[test]
    fn parse_errors() {
        assert!(from_arff("@DATA\n0,1\n").is_err()); // attrs missing
        assert!(from_arff("@ATTRIBUTE a {0,1}\n@ATTRIBUTE r {0,1}\n0,1\n").is_err()); // no @DATA
        let bad_width = "@ATTRIBUTE a {0,1}\n@ATTRIBUTE r {0,1}\n@DATA\n0,1,1\n";
        assert!(from_arff(bad_width).is_err());
        let bad_value = "@ATTRIBUTE a {0,1}\n@ATTRIBUTE r {0,1}\n@DATA\n2,1\n";
        assert!(from_arff(bad_value).is_err());
    }

    #[test]
    fn comments_and_case_tolerated() {
        let text =
            "% hi\n@relation x\n@attribute c0 {0,1}\n@attribute response {0,1}\n@data\n1,0\n";
        let set = from_arff(text).expect("parse");
        assert_eq!(set.len(), 1);
        assert_eq!(set.num_inputs(), 1);
        let (challenge, response) = &set.pairs()[0];
        assert!(!response);
        assert!(challenge.get(0));
    }
}
