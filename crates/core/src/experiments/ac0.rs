//! Uniform-distribution PAC learning of AC⁰ circuits — the learnability
//! fact behind the paper's Section III discussion of logic locking.
//!
//! The paper: distribution-free learning of `AC⁰` cannot beat
//! `2^{n−n^{Ω(1/d)}}` \[15\], but under the **uniform** distribution the
//! LMN algorithm learns it in quasi-polynomial time \[16\] — so every
//! "random input/output pairs" security analysis of locked circuits
//! implicitly lives in the uniform-PAC world.
//!
//! The experiment generates depth-bounded circuits with the netlist
//! generator, learns their output functions with LMN at modest degree
//! from uniform examples, and contrasts with parity (the classic
//! function *outside* AC⁰), which LMN provably cannot see at low
//! degree.

use crate::report::{pct, Table};
use mlam_boolean::{BitVec, BooleanFunction, LabeledSet};
use mlam_learn::lmn::{lmn_learn, LmnConfig};
use mlam_netlist::generate::{ac0_circuit, parity_tree};
use mlam_netlist::Netlist;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the AC⁰ learnability experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ac0Params {
    /// Input count of the generated circuits.
    pub inputs: usize,
    /// Circuit depths to sweep.
    pub depths: Vec<usize>,
    /// Width of the first AC⁰ layer.
    pub width: usize,
    /// LMN degree.
    pub degree: usize,
    /// Training examples.
    pub train_size: usize,
    /// Test examples.
    pub test_size: usize,
    /// Circuits per depth (averaged).
    pub trials: usize,
}

impl Ac0Params {
    /// Full scale.
    pub fn paper() -> Self {
        Ac0Params {
            inputs: 16,
            depths: vec![2, 3, 4],
            width: 12,
            degree: 3,
            train_size: 20_000,
            test_size: 5_000,
            trials: 3,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        Ac0Params {
            inputs: 12,
            depths: vec![2, 3],
            width: 8,
            degree: 3,
            train_size: 8_000,
            test_size: 3_000,
            trials: 2,
        }
    }
}

/// One sweep row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ac0Row {
    /// Label ("AC0 depth d" or "parity").
    pub target: String,
    /// Mean LMN test accuracy.
    pub lmn_accuracy: f64,
    /// Mean low-degree spectral weight captured (≈1 ⇒ the LMN theorem's
    /// concentration hypothesis holds).
    pub captured_weight: f64,
}

/// Result of the AC⁰ experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ac0Result {
    /// One row per depth, plus the parity control.
    pub rows: Vec<Ac0Row>,
}

impl Ac0Result {
    /// Renders the sweep.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Uniform PAC learning of AC0 circuits via LMN (Section III)",
            &["target", "LMN accuracy [%]", "low-degree weight"],
        );
        for r in &self.rows {
            t.row(&[
                r.target.clone(),
                pct(r.lmn_accuracy),
                format!("{:.3}", r.captured_weight),
            ]);
        }
        t
    }
}

/// Adapter: one output of a netlist as a [`BooleanFunction`].
struct NetlistOutput<'a> {
    netlist: &'a Netlist,
}

impl BooleanFunction for NetlistOutput<'_> {
    fn num_inputs(&self) -> usize {
        self.netlist.num_inputs()
    }
    fn eval(&self, x: &BitVec) -> bool {
        self.netlist.simulate(&x.to_bools())[0]
    }
}

/// Runs the AC⁰ experiment.
pub fn run_ac0<R: Rng + ?Sized>(params: &Ac0Params, rng: &mut R) -> Ac0Result {
    let _span = mlam_telemetry::span("experiment.ac0");
    let mut rows = Vec::new();
    for &depth in &params.depths {
        let mut acc = 0.0;
        let mut weight = 0.0;
        for _ in 0..params.trials {
            let circuit = ac0_circuit(params.inputs, depth, params.width, rng);
            let f = NetlistOutput { netlist: &circuit };
            let train = LabeledSet::sample_par(&f, params.train_size, rng);
            let test = LabeledSet::sample_par(&f, params.test_size, rng);
            let out = lmn_learn(&train, LmnConfig::new(params.degree));
            acc += test.accuracy_of(&out.hypothesis);
            weight += out.captured_weight.min(1.0);
        }
        rows.push(Ac0Row {
            target: format!("AC0 depth {depth}"),
            lmn_accuracy: acc / params.trials as f64,
            captured_weight: weight / params.trials as f64,
        });
    }

    // Control: parity is outside AC0; LMN at any fixed degree fails.
    let parity = parity_tree(params.inputs);
    let f = NetlistOutput { netlist: &parity };
    let train = LabeledSet::sample_par(&f, params.train_size, rng);
    let test = LabeledSet::sample_par(&f, params.test_size, rng);
    let out = lmn_learn(&train, LmnConfig::new(params.degree));
    rows.push(Ac0Row {
        target: format!("parity ({} bits, not AC0)", params.inputs),
        lmn_accuracy: test.accuracy_of(&out.hypothesis),
        captured_weight: out.captured_weight.min(1.0),
    });

    Ac0Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ac0_is_learnable_parity_is_not() {
        let mut rng = StdRng::seed_from_u64(1);
        let result = run_ac0(&Ac0Params::quick(), &mut rng);
        let parity_row = result.rows.last().expect("rows");
        assert!(
            parity_row.lmn_accuracy < 0.6,
            "parity must defeat low-degree LMN: {}",
            parity_row.lmn_accuracy
        );
        assert!(parity_row.captured_weight < 0.2);
        for r in &result.rows[..result.rows.len() - 1] {
            assert!(
                r.lmn_accuracy > 0.85,
                "{}: LMN accuracy {}",
                r.target,
                r.lmn_accuracy
            );
            assert!(
                r.lmn_accuracy > parity_row.lmn_accuracy + 0.2,
                "AC0 must be far more learnable than parity"
            );
        }
    }

    #[test]
    fn spectral_concentration_explains_the_accuracy() {
        let mut rng = StdRng::seed_from_u64(2);
        let result = run_ac0(&Ac0Params::quick(), &mut rng);
        for r in &result.rows[..result.rows.len() - 1] {
            assert!(
                r.captured_weight > 0.6,
                "{}: captured weight {}",
                r.target,
                r.captured_weight
            );
        }
    }

    #[test]
    fn table_renders() {
        let mut rng = StdRng::seed_from_u64(3);
        let result = run_ac0(&Ac0Params::quick(), &mut rng);
        assert!(result.to_table().to_string().contains("AC0"));
    }
}
