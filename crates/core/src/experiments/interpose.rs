//! The Interpose PUF under the adversary-model lens: representation is
//! everything.
//!
//! The iPUF composes two Arbiter layers: the upper layer's response is
//! *interposed* as an extra challenge bit of the lower layer. Its
//! security argument is representational (the paper's Section V axis):
//! the composition lies outside the single-LTF and XOR-of-LTFs classes,
//! so the standard Φ-linear attacks plateau.
//!
//! The experiment attacks one device twice with the *same CRPs, same
//! distribution, same access*:
//!
//! 1. **naive**: logistic regression over the n-bit Φ features — the
//!    wrong representation, which saturates well below the device;
//! 2. **composed**: CMA-ES over the joint parameter vector of both
//!    layers, evaluating candidates through the exact composition —
//!    the device-faithful representation, which recovers the function.
//!
//! The implementation exploits the interposition structure: flipping
//! the interposed bit negates exactly the Φ-prefix of the lower layer,
//! so the lower response is `sign(±prefix + suffix)` and each fitness
//! evaluation costs two dot products per CRP.

use crate::report::{pct, Table};
use mlam_learn::cma_es::{CmaEs, CmaEsOptions};
use mlam_learn::dataset::LabeledSet;
use mlam_learn::logistic::{LogisticConfig, LogisticRegression};
use mlam_puf::challenge::phi_transform;
use mlam_puf::InterposePuf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the iPUF experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InterposeParams {
    /// Challenge length.
    pub n: usize,
    /// Training CRPs.
    pub train_size: usize,
    /// Test CRPs.
    pub test_size: usize,
    /// CMA-ES generations.
    pub generations: usize,
    /// CMA-ES restarts.
    pub restarts: usize,
}

impl InterposeParams {
    /// Full scale: the classic (1,1)-iPUF at n = 32.
    pub fn paper() -> Self {
        InterposeParams {
            n: 32,
            train_size: 12_000,
            test_size: 4_000,
            generations: 600,
            restarts: 3,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        InterposeParams {
            n: 16,
            train_size: 4_000,
            test_size: 2_000,
            generations: 250,
            restarts: 2,
        }
    }
}

/// Result of the iPUF experiment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InterposeResult {
    /// Logistic regression over n-bit Φ (wrong representation).
    pub naive_accuracy: f64,
    /// CMA-ES over the composed two-layer model (faithful
    /// representation).
    pub composed_accuracy: f64,
    /// CMA-ES fitness evaluations spent.
    pub evaluations: usize,
}

impl InterposeResult {
    /// Renders the comparison, with the CMA-ES evaluation count as its
    /// note.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Interpose PUF (1,1): representation decides the attack outcome",
            &["model", "accuracy [%]"],
        );
        t.row(&[
            "naive: logistic regression over Phi (single LTF)".into(),
            pct(self.naive_accuracy),
        ]);
        t.row(&[
            "composed: CMA-ES over both layers jointly".into(),
            pct(self.composed_accuracy),
        ]);
        t.note(format!("CMA-ES fitness evaluations: {}", self.evaluations));
        t
    }
}

/// Per-CRP precomputation for the composed objective.
struct PreparedCrp {
    /// Φ features of the n-bit challenge (upper layer input).
    phi_upper: Vec<f64>,
    /// Φ features of the (n+1)-bit extension with interposed bit 0.
    phi_lower0: Vec<f64>,
    /// Device response in ±1.
    target: f64,
}

/// The composed model: upper weights (n+1) ++ lower weights (n+2).
struct ComposedModel {
    n: usize,
    position: usize,
    theta: Vec<f64>,
}

impl ComposedModel {
    fn upper_weights(&self) -> &[f64] {
        &self.theta[..self.n + 1]
    }
    fn lower_weights(&self) -> &[f64] {
        &self.theta[self.n + 1..]
    }

    fn predict_pm(&self, phi_upper: &[f64], phi_lower0: &[f64]) -> f64 {
        let up: f64 = self
            .upper_weights()
            .iter()
            .zip(phi_upper)
            .map(|(w, p)| w * p)
            .sum();
        // Interposed bit = 1 iff the upper delay is negative (logic 1).
        // Flipping the interposed bit (position p in the extended
        // challenge) negates the lower Φ features 0..=p.
        let wl = self.lower_weights();
        let mut pref = 0.0;
        let mut suff = 0.0;
        for (j, (w, p)) in wl.iter().zip(phi_lower0).enumerate() {
            if j <= self.position {
                pref += w * p;
            } else {
                suff += w * p;
            }
        }
        let low = if up < 0.0 { -pref + suff } else { pref + suff };
        if low < 0.0 {
            -1.0
        } else {
            1.0
        }
    }
}

/// Runs the iPUF representation experiment.
pub fn run_interpose<R: Rng + ?Sized>(params: &InterposeParams, rng: &mut R) -> InterposeResult {
    let _span = mlam_telemetry::span("experiment.interpose");
    let n = params.n;
    let puf = InterposePuf::sample(n, 1, 1, 0.0, rng);
    let position = puf.position();
    let train = LabeledSet::sample_par(&puf, params.train_size, rng);
    let test = LabeledSet::sample_par(&puf, params.test_size, rng);

    // 1. Naive: LR over the n-bit Φ features.
    let lr = LogisticRegression::new(LogisticConfig::default());
    let naive = lr.train_phi(&train, rng);
    let naive_accuracy = test.accuracy_of_par(&naive.model);

    // 2. Composed: CMA-ES over the joint parameters.
    let prepare = |set: &LabeledSet| -> Vec<PreparedCrp> {
        set.pairs()
            .iter()
            .map(|(c, r)| {
                let ext0 = puf.interpose(c, false);
                PreparedCrp {
                    phi_upper: phi_transform(c),
                    phi_lower0: phi_transform(&ext0),
                    target: mlam_boolean::to_pm(*r),
                }
            })
            .collect()
    };
    let prepared = prepare(&train);
    let d = (n + 1) + (n + 2);
    let objective = |theta: &[f64]| -> f64 {
        let model = ComposedModel {
            n,
            position,
            theta: theta.to_vec(),
        };
        let wrong = prepared
            .iter()
            .filter(|crp| model.predict_pm(&crp.phi_upper, &crp.phi_lower0) != crp.target)
            .count();
        wrong as f64 / prepared.len() as f64
    };
    let x0: Vec<f64> = (0..d).map(|_| 0.3 * gaussian(rng)).collect();
    let result = CmaEs::new(CmaEsOptions {
        max_generations: params.generations,
        restarts: params.restarts,
        target_fitness: 0.01,
        ..Default::default()
    })
    .minimize(&objective, &x0, rng);

    let best = ComposedModel {
        n,
        position,
        theta: result.best.clone(),
    };
    let test_prepared = prepare(&test);
    let correct = test_prepared
        .iter()
        .filter(|crp| best.predict_pm(&crp.phi_upper, &crp.phi_lower0) == crp.target)
        .count();
    let composed_accuracy = correct as f64 / test_prepared.len() as f64;

    InterposeResult {
        naive_accuracy,
        composed_accuracy,
        evaluations: result.evaluations,
    }
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen::<f64>();
        if u > f64::EPSILON {
            let v: f64 = rng.gen();
            return (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlam_boolean::{BitVec, BooleanFunction};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn composed_model_matches_the_device_structure() {
        // Sanity: with the TRUE parameters, the composed predictor is
        // exact on every CRP.
        let mut rng = StdRng::seed_from_u64(1);
        let n = 12;
        let puf = InterposePuf::sample(n, 1, 1, 0.0, &mut rng);
        let mut theta = puf.upper().chains()[0].weights().to_vec();
        theta.extend_from_slice(puf.lower().chains()[0].weights());
        let model = ComposedModel {
            n,
            position: puf.position(),
            theta,
        };
        for _ in 0..500 {
            let c = BitVec::random(n, &mut rng);
            let ext0 = puf.interpose(&c, false);
            let pm = model.predict_pm(&phi_transform(&c), &phi_transform(&ext0));
            assert_eq!(pm, puf.eval_pm(&c), "structure mismatch");
        }
    }

    #[test]
    fn faithful_representation_beats_the_naive_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let r = run_interpose(&InterposeParams::quick(), &mut rng);
        assert!(
            r.composed_accuracy > r.naive_accuracy + 0.05,
            "composed {} must clearly beat naive {}",
            r.composed_accuracy,
            r.naive_accuracy
        );
        assert!(r.composed_accuracy > 0.85, "{r:?}");
        assert!(r.naive_accuracy > 0.55, "{r:?}");
    }

    #[test]
    fn table_renders() {
        let mut rng = StdRng::seed_from_u64(3);
        let r = run_interpose(&InterposeParams::quick(), &mut rng);
        let note = format!("CMA-ES fitness evaluations: {}", r.evaluations);
        assert!(r.to_table().to_string().ends_with(&format!("  {note}\n")));
    }
}
