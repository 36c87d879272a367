//! Exact vs. approximate inference (Section IV-A, after Rivest \[2\] and
//! Shamsi et al. \[4\]) — quantified on SARLock-style point-function
//! locking.
//!
//! The scheme is exact-inference-resilient: every DIP eliminates one
//! wrong key, so the exact SAT attack pays `Ω(2^k)` oracle queries.
//! But it is approximation-worthless: any wrong key is a
//! `(1 − 2^{−k})`-accurate model, and AppSAT settles on one with a
//! handful of queries. The sweep prints both costs side by side — the
//! crossover the paper says a sound security claim must not paper
//! over.

use crate::adversary::{AdversaryModel, InferenceGoal, Pitfall};
use crate::report::{pct, Table};
use mlam_locking::anti_sat::lock_sarlock;
use mlam_locking::appsat::{appsat, AppSatConfig};
use mlam_locking::sat_attack::{sat_attack, SatAttackConfig};
use mlam_netlist::generate::random_circuit;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the exact-vs-approximate sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExactVsApproxParams {
    /// Primary inputs of the base circuit.
    pub inputs: usize,
    /// Gates of the base circuit.
    pub gates: usize,
    /// SARLock key widths to sweep.
    pub key_widths: Vec<usize>,
}

impl ExactVsApproxParams {
    /// Full scale.
    pub fn paper() -> Self {
        ExactVsApproxParams {
            inputs: 12,
            gates: 50,
            key_widths: vec![4, 6, 8, 10],
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        ExactVsApproxParams {
            inputs: 8,
            gates: 30,
            key_widths: vec![4, 6],
        }
    }
}

/// One sweep row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExactVsApproxRow {
    /// Key width k.
    pub key_bits: usize,
    /// Exact SAT attack DIP count (≈ 2^k − 1).
    pub sat_dips: usize,
    /// AppSAT DIP count.
    pub appsat_dips: usize,
    /// AppSAT model accuracy (≈ 1 − 2^{−k} even for a wrong key).
    pub appsat_accuracy: f64,
}

/// Result of the sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExactVsApproxResult {
    /// One row per key width.
    pub rows: Vec<ExactVsApproxRow>,
    /// The pitfall the sweep demonstrates, as detected by the
    /// comparability machinery.
    pub detected_pitfall: Option<Pitfall>,
}

impl ExactVsApproxResult {
    /// Renders the sweep, with the detected pitfall as its note.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Exact vs approximate inference on SARLock point-function locking",
            &[
                "key bits",
                "exact SAT DIPs",
                "AppSAT DIPs",
                "AppSAT accuracy [%]",
            ],
        );
        for r in &self.rows {
            t.row(&[
                r.key_bits.to_string(),
                r.sat_dips.to_string(),
                r.appsat_dips.to_string(),
                pct(r.appsat_accuracy),
            ]);
        }
        t.note(match &self.detected_pitfall {
            Some(pitfall) => format!("detected pitfall: {pitfall}"),
            None => "detected pitfall: none".to_string(),
        });
        t
    }
}

/// Runs the sweep.
pub fn run_exact_vs_approx<R: Rng + ?Sized>(
    params: &ExactVsApproxParams,
    rng: &mut R,
) -> ExactVsApproxResult {
    let _span = mlam_telemetry::span("experiment.exact_vs_approx");
    let rows = params
        .key_widths
        .iter()
        .map(|&key_bits| {
            let oracle = random_circuit(params.inputs, params.gates, 2, rng);
            let locked = lock_sarlock(&oracle, key_bits, rng);
            let sat = sat_attack(&locked, &oracle, SatAttackConfig::default());
            let app = appsat(
                &locked,
                &oracle,
                AppSatConfig {
                    dips_per_round: 1,
                    queries_per_round: 32,
                    error_threshold: 2.0 / (1u64 << key_bits) as f64,
                    settlement_rounds: 2,
                    max_rounds: 100,
                },
                rng,
            );
            ExactVsApproxRow {
                key_bits,
                sat_dips: sat.iterations,
                appsat_dips: app.dip_iterations,
                appsat_accuracy: app.estimated_accuracy,
            }
        })
        .collect();

    // The pitfall the table embodies: an exact-hardness claim quoted
    // against an approximate attacker.
    let exact_claim = AdversaryModel {
        goal: InferenceGoal::Exact,
        ..AdversaryModel::membership_query_attack()
    };
    let approx_attack = AdversaryModel {
        goal: InferenceGoal::Approximate,
        ..AdversaryModel::membership_query_attack()
    };
    let detected_pitfall = exact_claim
        .comparability(&approx_attack)
        .pitfalls()
        .iter()
        .find(|p| matches!(p, Pitfall::ExactVersusApproximate))
        .cloned();

    ExactVsApproxResult {
        rows,
        detected_pitfall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sat_dips_are_exponential_appsat_dips_are_not() {
        let mut rng = StdRng::seed_from_u64(1);
        let result = run_exact_vs_approx(&ExactVsApproxParams::quick(), &mut rng);
        for r in &result.rows {
            assert!(
                r.sat_dips >= (1 << r.key_bits) / 2,
                "k={}: SAT must pay ≈2^k DIPs, got {}",
                r.key_bits,
                r.sat_dips
            );
            assert!(
                r.appsat_dips < r.sat_dips / 2,
                "k={}: AppSAT {} vs SAT {}",
                r.key_bits,
                r.appsat_dips,
                r.sat_dips
            );
            assert!(r.appsat_accuracy > 0.9, "{r:?}");
        }
    }

    /// The paper-scale sweep, k = 4…10: each exact DIP rules out only
    /// the wrong key equal to its low input bits, so the exact attack
    /// pays exactly 2^k − 1 DIPs, while AppSAT settles on an accurate
    /// key with a fraction of them.
    #[test]
    fn paper_scale_verdicts_hold() {
        let mut rng = StdRng::seed_from_u64(5);
        let result = run_exact_vs_approx(&ExactVsApproxParams::paper(), &mut rng);
        let widths: Vec<usize> = result.rows.iter().map(|r| r.key_bits).collect();
        assert_eq!(widths, [4, 6, 8, 10]);
        for r in &result.rows {
            assert_eq!(r.sat_dips, (1 << r.key_bits) - 1, "{r:?}");
            assert!(r.appsat_dips < r.sat_dips / 2, "{r:?}");
            assert!(r.appsat_accuracy > 0.9, "{r:?}");
        }
        let note = format!("detected pitfall: {}", Pitfall::ExactVersusApproximate);
        assert_eq!(result.to_table().notes(), [note]);
    }

    #[test]
    fn the_gap_widens_with_k() {
        let mut rng = StdRng::seed_from_u64(2);
        let result = run_exact_vs_approx(&ExactVsApproxParams::quick(), &mut rng);
        let first = &result.rows[0];
        let last = result.rows.last().expect("rows");
        let ratio_first = first.sat_dips as f64 / first.appsat_dips.max(1) as f64;
        let ratio_last = last.sat_dips as f64 / last.appsat_dips.max(1) as f64;
        assert!(
            ratio_last > ratio_first,
            "gap must widen: {ratio_first} -> {ratio_last}"
        );
    }

    #[test]
    fn pitfall_is_detected() {
        let mut rng = StdRng::seed_from_u64(3);
        let result = run_exact_vs_approx(&ExactVsApproxParams::quick(), &mut rng);
        assert_eq!(
            result.detected_pitfall,
            Some(Pitfall::ExactVersusApproximate)
        );
        let note = format!("detected pitfall: {}", Pitfall::ExactVersusApproximate);
        assert_eq!(result.to_table().notes(), [note]);
    }

    #[test]
    fn table_renders() {
        let mut rng = StdRng::seed_from_u64(4);
        let result = run_exact_vs_approx(&ExactVsApproxParams::quick(), &mut rng);
        assert!(result.to_table().to_string().contains("SARLock"));
    }
}
