//! Table III: how far are BR PUFs from every halfspace? The
//! Matulef–O'Donnell–Rubinfeld–Servedio tester on simulated BR PUF
//! CRPs.

use crate::report::{pct, Table};
use mlam_boolean::testing::{HalfspaceTester, Verdict, HALFSPACE_LEVEL_ONE_FLOOR};
use mlam_puf::crp::collect_uniform;
use mlam_puf::{BistableRingPuf, BrPufConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the Table III reproduction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table3Params {
    /// `(n, #CRPs)` pairs — the paper uses (16, 100), (32, 1339),
    /// (64, 63434).
    pub points: Vec<(usize, usize)>,
    /// Tester accuracy parameter ε.
    pub eps: f64,
    /// Tester confidence δ (paper: 0.99).
    pub delta: f64,
}

impl Table3Params {
    /// The paper's working points.
    pub fn paper() -> Self {
        Table3Params {
            points: vec![(16, 100), (32, 1339), (64, 63_434)],
            eps: 0.1,
            delta: 0.99,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        Table3Params {
            points: vec![(16, 100), (32, 1339), (64, 8000)],
            eps: 0.1,
            delta: 0.95,
        }
    }
}

/// One Table III row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table3Row {
    /// BR PUF size.
    pub n: usize,
    /// CRPs given to the tester.
    pub crps: usize,
    /// Constructive distance estimate: held-out disagreement of the
    /// best halfspace the tester could build — the "how far from any
    /// halfspace (min)" column.
    pub distance: f64,
    /// Spectral certificate: a lower bound on the distance from the
    /// level-≤1 Fourier weight.
    pub spectral_lower_bound: f64,
    /// The tester's verdict.
    pub far_from_halfspace: bool,
}

/// Result of the Table III reproduction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table3Result {
    /// The tester confidence δ the rows ran with.
    pub delta: f64,
    /// One row per `(n, #CRPs)` point.
    pub rows: Vec<Table3Row>,
}

impl Table3Result {
    /// Renders in the paper's layout, titled with the δ that ran.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Table III: how far BR PUFs are from LTFs (halfspace tester, delta = {})",
                self.delta
            ),
            &[
                "n",
                "# CRPs",
                "distance from any halfspace (min.) [%]",
                "spectral lower bound [%]",
                "verdict",
            ],
        );
        for r in &self.rows {
            t.row(&[
                r.n.to_string(),
                r.crps.to_string(),
                pct(r.distance),
                pct(r.spectral_lower_bound),
                if r.far_from_halfspace {
                    "far from halfspace".into()
                } else {
                    "halfspace".into()
                },
            ]);
        }
        t
    }
}

/// The spectral distance certificate: if a function is ε-close to some
/// halfspace then its level-≤1 weight satisfies
/// `W₁ ≥ (1−2ε)²·(2/π)` (project onto the halfspace's degree-≤1
/// spectrum); inverting gives `ε ≥ (1 − √(W₁/(2/π)))/2`.
pub fn spectral_distance_lower_bound(level_one_weight: f64) -> f64 {
    let ratio = (level_one_weight.max(0.0) / HALFSPACE_LEVEL_ONE_FLOOR).min(1.0);
    ((1.0 - ratio.sqrt()) / 2.0).max(0.0)
}

/// Runs the Table III reproduction.
pub fn run_table3<R: Rng + ?Sized>(params: &Table3Params, rng: &mut R) -> Table3Result {
    let _span = mlam_telemetry::span("experiment.table3");
    let tester = HalfspaceTester::new(params.eps, params.delta);
    let rows = params
        .points
        .iter()
        .map(|&(n, crps)| {
            let puf = BistableRingPuf::sample(n, BrPufConfig::calibrated(n), rng);
            let data = collect_uniform(&puf, crps, rng);
            let report = tester.run(n, data.pairs(), rng);
            Table3Row {
                n,
                crps,
                distance: report.distance_estimate,
                spectral_lower_bound: spectral_distance_lower_bound(report.level_one_weight),
                far_from_halfspace: report.verdict == Verdict::FarFromHalfspace,
            }
        })
        .collect();
    Table3Result {
        delta: params.delta,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distances_are_substantial_and_grow_with_n() {
        let mut rng = StdRng::seed_from_u64(1);
        let result = run_table3(&Table3Params::quick(), &mut rng);
        assert_eq!(result.rows.len(), 3);
        // Every BR PUF is measurably far from halfspaces...
        for r in &result.rows {
            assert!(
                r.distance > 0.05,
                "n={}: distance {} too small",
                r.n,
                r.distance
            );
        }
        // ...and the large instance is farther than the small one
        // (the paper's 20 % -> 50 % trend).
        let first = result.rows.first().expect("rows").distance;
        let last = result.rows.last().expect("rows").distance;
        assert!(
            last > first,
            "trend violated: n=16 -> {first}, n=64 -> {last}"
        );
    }

    #[test]
    fn large_sample_rows_are_flagged_far() {
        let mut rng = StdRng::seed_from_u64(2);
        let result = run_table3(&Table3Params::quick(), &mut rng);
        // With thousands of CRPs the tester must reject the halfspace
        // hypothesis for the heavily nonlinear 64-bit device.
        let last = result.rows.last().expect("rows");
        assert!(last.far_from_halfspace, "{last:?}");
    }

    #[test]
    fn spectral_bound_inverts_correctly() {
        assert_eq!(
            spectral_distance_lower_bound(HALFSPACE_LEVEL_ONE_FLOOR),
            0.0
        );
        assert!((spectral_distance_lower_bound(0.0) - 0.5).abs() < 1e-12);
        let mid = spectral_distance_lower_bound(HALFSPACE_LEVEL_ONE_FLOOR / 4.0);
        assert!((mid - 0.25).abs() < 1e-12);
    }

    #[test]
    fn table_renders() {
        let mut rng = StdRng::seed_from_u64(3);
        let result = run_table3(&Table3Params::quick(), &mut rng);
        let text = result.to_table().to_string();
        assert!(text.contains("halfspace"));
        let title = |delta| {
            format!("Table III: how far BR PUFs are from LTFs (halfspace tester, delta = {delta})")
        };
        assert!(text.starts_with(&title("0.95")), "{text}");
        // The paper-scale title, without running the paper's 63k CRPs.
        let paper = Table3Result {
            delta: Table3Params::paper().delta,
            rows: Vec::new(),
        };
        assert!(paper.to_table().to_string().starts_with(&title("0.99")));
    }
}
