//! The lockdown defense (paper reference \[10\]): the CRP bounds of
//! Table I become *security margins* when a protocol caps the
//! attacker's sample budget.
//!
//! The sweep wraps one Arbiter PUF behind lockdown interfaces of
//! growing budgets, lets the attacker spend the entire budget on
//! training CRPs, and records the model accuracy — the learning curve
//! an enrollment engineer reads backwards to pick the budget.

use crate::report::{pct, Table};
use mlam_boolean::{BitVec, LabeledSet};
use mlam_learn::features::ArbiterPhiFeatures;
use mlam_learn::perceptron::Perceptron;
use mlam_puf::lockdown::{LockdownError, LockdownPuf};
use mlam_puf::ArbiterPuf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the lockdown sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LockdownParams {
    /// Stage count of the protected Arbiter PUF.
    pub n: usize,
    /// Lockdown budgets to sweep.
    pub budgets: Vec<usize>,
    /// Test CRPs (evaluated against the raw device — the verifier's
    /// view).
    pub test_size: usize,
}

impl LockdownParams {
    /// Full scale.
    pub fn paper() -> Self {
        LockdownParams {
            n: 64,
            budgets: vec![50, 100, 250, 500, 1000, 2500, 5000],
            test_size: 4000,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        LockdownParams {
            n: 32,
            budgets: vec![50, 2000],
            test_size: 2000,
        }
    }
}

/// One sweep point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LockdownRow {
    /// Lifetime budget enforced by the interface.
    pub budget: usize,
    /// CRPs the attacker actually extracted (= budget; the interface
    /// refused everything beyond it).
    pub crps_extracted: usize,
    /// Attack accuracy with those CRPs.
    pub attack_accuracy: f64,
}

/// Result of the lockdown sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LockdownResult {
    /// One row per budget.
    pub rows: Vec<LockdownRow>,
}

impl LockdownResult {
    /// Renders the sweep.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Lockdown defense: attack accuracy vs. enforced CRP budget (64-stage Arbiter PUF)",
            &["budget", "CRPs extracted", "attack accuracy [%]"],
        );
        for r in &self.rows {
            t.row(&[
                r.budget.to_string(),
                r.crps_extracted.to_string(),
                pct(r.attack_accuracy),
            ]);
        }
        t
    }
}

/// Runs the lockdown sweep. The same physical device (same weights) is
/// wrapped behind each budget so rows are directly comparable.
pub fn run_lockdown<R: Rng + ?Sized>(params: &LockdownParams, rng: &mut R) -> LockdownResult {
    let _span = mlam_telemetry::span("experiment.lockdown");
    let device = ArbiterPuf::sample(params.n, 0.0, rng);
    let test = LabeledSet::sample_par(&device, params.test_size, rng);
    let rows = params
        .budgets
        .iter()
        .map(|&budget| {
            let interface = LockdownPuf::new(device.clone(), budget);
            // The attacker milks the interface dry.
            let mut train = LabeledSet::new(params.n);
            loop {
                let c = BitVec::random(params.n, rng);
                match interface.query(&c) {
                    Ok(r) => train.push(c, r),
                    Err(LockdownError::ChallengeReused) => continue,
                    Err(LockdownError::BudgetExhausted) => break,
                }
            }
            let out = Perceptron::new(80).train_with(ArbiterPhiFeatures::new(params.n), &train);
            LockdownRow {
                budget,
                crps_extracted: train.len(),
                attack_accuracy: test.accuracy_of(&out.model),
            }
        })
        .collect();
    LockdownResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_budgets_starve_the_attack() {
        let mut rng = StdRng::seed_from_u64(1);
        let result = run_lockdown(&LockdownParams::quick(), &mut rng);
        let starved = &result.rows[0];
        let fed = result.rows.last().expect("rows");
        assert_eq!(starved.crps_extracted, 50);
        assert!(
            fed.attack_accuracy > starved.attack_accuracy + 0.05,
            "budget must matter: {} vs {}",
            starved.attack_accuracy,
            fed.attack_accuracy
        );
        assert!(fed.attack_accuracy > 0.93, "{}", fed.attack_accuracy);
    }

    #[test]
    fn extraction_never_exceeds_the_budget() {
        let mut rng = StdRng::seed_from_u64(2);
        let result = run_lockdown(&LockdownParams::quick(), &mut rng);
        for r in &result.rows {
            assert_eq!(r.crps_extracted, r.budget);
        }
    }

    #[test]
    fn table_renders() {
        let mut rng = StdRng::seed_from_u64(3);
        let result = run_lockdown(&LockdownParams::quick(), &mut rng);
        assert!(result.to_table().to_string().contains("budget"));
    }
}
