//! Table I: CRP upper bounds for PAC learning XOR Arbiter PUFs, in four
//! adversary models — plus an *empirical* cross-check that actually
//! runs the learners on simulated devices.

use crate::bounds::TableOne;
use crate::report::{eng, Table};
use mlam_boolean::{Anf, BooleanFunction};
use mlam_learn::dataset::LabeledSet;
use mlam_learn::eval::crps_to_accuracy;
use mlam_learn::f2poly::learn_low_degree_anf;
use mlam_learn::features::ArbiterPhiFeatures;
use mlam_learn::lmn::{lmn_learn, LmnConfig};
use mlam_learn::oracle::FunctionOracle;
use mlam_learn::perceptron::Perceptron;
use mlam_puf::XorArbiterPuf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the Table I reproduction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table1Params {
    /// Stage counts to tabulate.
    pub ns: Vec<usize>,
    /// Chain counts to tabulate.
    pub ks: Vec<usize>,
    /// Accuracy parameter ε.
    pub eps: f64,
    /// Confidence parameter δ.
    pub delta: f64,
    /// Whether to run the empirical cross-check (Perceptron/LMN on
    /// simulated devices).
    pub empirical: bool,
    /// CRP cap for the empirical search.
    pub empirical_max_crps: usize,
}

impl Table1Params {
    /// Full scale: the paper's working point `n = 64` plus context.
    pub fn paper() -> Self {
        Table1Params {
            ns: vec![16, 32, 64, 128],
            ks: vec![1, 2, 3, 4, 5, 6, 7],
            eps: 0.05,
            delta: 0.01,
            empirical: true,
            empirical_max_crps: 60_000,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        Table1Params {
            ns: vec![16, 32],
            ks: vec![1, 2],
            eps: 0.1,
            delta: 0.05,
            empirical: true,
            empirical_max_crps: 8_000,
        }
    }
}

/// One empirical cross-check measurement.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EmpiricalPoint {
    /// Stage count.
    pub n: usize,
    /// Chain count.
    pub k: usize,
    /// Learner name.
    pub learner: String,
    /// CRPs needed to reach accuracy `1 − ε` (None = budget exhausted).
    pub crps_needed: Option<usize>,
    /// The analytic bound it must respect.
    pub analytic_bound: f64,
}

/// Result of the Table I reproduction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table1Result {
    /// The analytic rows.
    pub bounds: Vec<TableOne>,
    /// Empirical cross-check points (empty when disabled).
    pub empirical: Vec<EmpiricalPoint>,
}

impl Table1Result {
    /// Renders the analytic part in the paper's layout, with the shape
    /// check as its note.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Table I: CRP upper bounds for PAC learning n-bit k-XOR Arbiter PUFs",
            &[
                "n",
                "k",
                "[9] Perceptron (arbitrary D)",
                "General VC (uniform D)",
                "Cor.1 LMN log10(CRPs)",
                "Cor.2 LearnPoly (membership)",
            ],
        );
        for b in &self.bounds {
            t.row(&[
                b.n.to_string(),
                b.k.to_string(),
                eng(b.perceptron_bound),
                eng(b.general_bound),
                format!("{:.1}", b.lmn_bound_log10),
                eng(b.learnpoly_bound),
            ]);
        }
        t.note(format!(
            "shape check: VC(uniform) < Perceptron(arbitrary) for k>=2: {}",
            self.bounds
                .iter()
                .filter(|b| b.k >= 2)
                .all(|b| b.general_bound < b.perceptron_bound)
        ));
        t
    }

    /// Renders the empirical cross-check.
    pub fn empirical_table(&self) -> Table {
        let mut t = Table::new(
            "Table I (empirical cross-check): measured CRPs-to-(1-eps) vs. analytic bound",
            &["n", "k", "learner", "measured CRPs", "analytic bound"],
        );
        for e in &self.empirical {
            t.row(&[
                e.n.to_string(),
                e.k.to_string(),
                e.learner.clone(),
                e.crps_needed
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "> budget".into()),
                eng(e.analytic_bound),
            ]);
        }
        t
    }
}

/// Runs the Table I reproduction.
pub fn run_table1<R: Rng + ?Sized>(params: &Table1Params, rng: &mut R) -> Table1Result {
    let _span = mlam_telemetry::span("experiment.table1");
    let mut bounds = Vec::new();
    for &n in &params.ns {
        for &k in &params.ks {
            bounds.push(TableOne::compute(n, k, params.eps, params.delta));
        }
    }

    let mut empirical = Vec::new();
    if params.empirical {
        let target_acc = 1.0 - params.eps;
        for &n in params.ns.iter().take(2) {
            for &k in params.ks.iter().filter(|&&k| k <= 2) {
                let puf = XorArbiterPuf::sample(n, k, 0.0, rng);

                // Perceptron over Φ features (row 1's algorithm).
                let crps = crps_to_accuracy(
                    &puf,
                    target_acc,
                    64,
                    params.empirical_max_crps,
                    2000,
                    |train: &LabeledSet| {
                        Perceptron::new(80)
                            .train_with(ArbiterPhiFeatures::new(n), train)
                            .model
                    },
                    rng,
                );
                empirical.push(EmpiricalPoint {
                    n,
                    k,
                    learner: "Perceptron/Phi".into(),
                    crps_needed: crps,
                    analytic_bound: crate::bounds::perceptron_bound(n, k, params.eps, params.delta),
                });

                // LMN at low degree (row 3's algorithm) — only viable
                // for k = 1 at test scale, which is the point.
                if k == 1 && n <= 32 {
                    let crps = crps_to_accuracy(
                        &puf,
                        target_acc,
                        512,
                        params.empirical_max_crps,
                        2000,
                        |train: &LabeledSet| lmn_learn(train, LmnConfig::new(3)).hypothesis,
                        rng,
                    );
                    empirical.push(EmpiricalPoint {
                        n,
                        k,
                        learner: "LMN(d=3)".into(),
                        crps_needed: crps,
                        analytic_bound: 10f64.powf(
                            crate::bounds::lmn_bound_log10(n, k, params.eps, params.delta)
                                .min(300.0),
                        ),
                    });
                }
            }
        }

        // Row 4's algorithm on its natural concept class: XOR of small
        // juntas learned exactly with membership queries.
        let n = *params.ns.first().expect("non-empty ns");
        let target = Anf::from_monomials(n.min(63), [0b11u64, 0b100, (1u64 << (n.min(63) - 1))]);
        let t2 = target.clone();
        let f = mlam_boolean::FnFunction::new(n.min(63), move |x| t2.eval(x));
        let oracle = FunctionOracle::uniform(&f);
        let out = learn_low_degree_anf(&oracle, 2);
        empirical.push(EmpiricalPoint {
            n: n.min(63),
            k: 3,
            learner: "LearnPoly/Mobius(d=2)".into(),
            crps_needed: Some(out.membership_queries),
            analytic_bound: crate::bounds::learnpoly_bound(n.min(63), 3, params.eps, params.delta),
        });
    }

    Table1Result { bounds, empirical }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quick_run_produces_all_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let result = run_table1(&Table1Params::quick(), &mut rng);
        assert_eq!(result.bounds.len(), 4); // 2 ns × 2 ks
        assert!(!result.empirical.is_empty());
        let t = result.to_table();
        assert_eq!(t.num_rows(), 4);
        assert_eq!(
            t.notes(),
            ["shape check: VC(uniform) < Perceptron(arbitrary) for k>=2: true"]
        );
    }

    #[test]
    fn empirical_perceptron_respects_its_bound() {
        let mut rng = StdRng::seed_from_u64(2);
        let result = run_table1(&Table1Params::quick(), &mut rng);
        for e in result
            .empirical
            .iter()
            .filter(|e| e.learner.starts_with("Perceptron"))
        {
            if let Some(crps) = e.crps_needed {
                assert!(
                    (crps as f64) < e.analytic_bound,
                    "n={} k={}: measured {} >= bound {}",
                    e.n,
                    e.k,
                    crps,
                    e.analytic_bound
                );
            }
        }
    }

    #[test]
    fn bound_ordering_holds_for_paper_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let params = Table1Params {
            empirical: false,
            ..Table1Params::paper()
        };
        let result = run_table1(&params, &mut rng);
        for b in &result.bounds {
            if b.k >= 2 {
                assert!(
                    b.general_bound < b.perceptron_bound,
                    "VC must undercut Perceptron at n={} k={}",
                    b.n,
                    b.k
                );
            }
        }
    }

    #[test]
    fn tables_render() {
        let mut rng = StdRng::seed_from_u64(4);
        let result = run_table1(&Table1Params::quick(), &mut rng);
        let text = result.to_table().to_string();
        assert!(text.contains("Perceptron"));
        let emp = result.empirical_table().to_string();
        assert!(emp.contains("measured"));
    }
}
