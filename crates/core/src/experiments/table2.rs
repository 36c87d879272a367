//! Table II: learning an LTF `f′` built from Chow parameters of BR PUF
//! CRPs — the accuracy plateau that falsifies the "BR PUFs are LTFs"
//! representation.

use crate::report::{pct, Table};
use mlam_learn::chow::{table_ii_procedure, ChowConfig};
use mlam_learn::dataset::LabeledSet;
use mlam_puf::crp::collect_stable_par;
use mlam_puf::{BistableRingPuf, BrPufConfig};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the Table II reproduction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table2Params {
    /// BR PUF sizes (paper: 16, 32, 64).
    pub ns: Vec<usize>,
    /// CRP budgets for Chow estimation + training
    /// (paper: 1000, 2500, 5000, 10000).
    pub crp_budgets: Vec<usize>,
    /// Held-out test CRPs per size (paper: 44834, 35876, 31375).
    pub test_sizes: Vec<usize>,
    /// Majority-vote repeats when collecting stable CRPs.
    pub stability_repeats: usize,
    /// Perceptron epochs.
    pub perceptron_epochs: usize,
}

impl Table2Params {
    /// The paper's full working point.
    pub fn paper() -> Self {
        Table2Params {
            ns: vec![16, 32, 64],
            crp_budgets: vec![1000, 2500, 5000, 10_000],
            test_sizes: vec![44_834, 35_876, 31_375],
            stability_repeats: 5,
            perceptron_epochs: 60,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        Table2Params {
            ns: vec![16, 32],
            crp_budgets: vec![500, 2000],
            test_sizes: vec![4000, 4000],
            stability_repeats: 3,
            perceptron_epochs: 30,
        }
    }
}

/// Result of the Table II reproduction: `accuracy[budget][n]` like the
/// paper's grid.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table2Result {
    /// The parameters used.
    pub params: Table2Params,
    /// `accuracy[i][j]` = test accuracy at `crp_budgets[i]`, `ns[j]`.
    pub accuracy: Vec<Vec<f64>>,
}

impl Table2Result {
    /// Renders in the paper's layout (rows = CRP budgets, columns = n),
    /// with the [plateau gains](Self::plateau_gains) as its note.
    pub fn to_table(&self) -> Table {
        let mut header: Vec<String> = vec!["# CRPs (Chow + training)".into()];
        header.extend(self.params.ns.iter().map(|n| n.to_string()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(
            "Table II: accuracy [%] of the Perceptron trained on the Chow-parameter LTF f'",
            &header_refs,
        );
        for (i, &budget) in self.params.crp_budgets.iter().enumerate() {
            let mut row = vec![budget.to_string()];
            row.extend(self.accuracy[i].iter().map(|a| pct(*a)));
            t.row(&row);
        }
        let gains: Vec<String> = self
            .plateau_gains()
            .iter()
            .map(|g| format!("{:+.2} pp", g * 100.0))
            .collect();
        t.note(format!(
            "plateau gains (last budget - first budget, per n): {}",
            gains.join(", ")
        ));
        t
    }

    /// The largest accuracy gain from the smallest to the largest CRP
    /// budget, per size — small values certify the plateau.
    pub fn plateau_gains(&self) -> Vec<f64> {
        (0..self.params.ns.len())
            .map(|j| {
                let first = self.accuracy.first().map(|r| r[j]).unwrap_or(0.0);
                let last = self.accuracy.last().map(|r| r[j]).unwrap_or(0.0);
                last - first
            })
            .collect()
    }
}

/// Runs the Table II reproduction.
///
/// For each size `n`: manufacture a calibrated BR PUF, collect stable
/// CRPs, and for each budget run the paper's procedure — Chow
/// parameters → `f′` → relabel → Perceptron → test on held-out device
/// CRPs.
///
/// # Panics
///
/// Panics if `ns` and `test_sizes` lengths differ.
pub fn run_table2<R: Rng + ?Sized>(params: &Table2Params, rng: &mut R) -> Table2Result {
    let _span = mlam_telemetry::span("experiment.table2");
    assert_eq!(
        params.ns.len(),
        params.test_sizes.len(),
        "one test size per n"
    );
    let max_budget = *params.crp_budgets.iter().max().expect("non-empty budgets");
    let mut accuracy = vec![vec![0.0; params.ns.len()]; params.crp_budgets.len()];

    for (j, (&n, &test_size)) in params.ns.iter().zip(&params.test_sizes).enumerate() {
        let puf = BistableRingPuf::sample(n, BrPufConfig::calibrated_accuracy(n), rng);
        // "Noiseless and stable CRPs": majority-vote filtered. The
        // parallel collector takes a root seed (drawn once from the
        // experiment RNG) and screens candidates across MLAM_THREADS
        // workers; the set is identical at any thread count.
        let pool = collect_stable_par(
            &puf,
            max_budget + test_size,
            params.stability_repeats,
            1.0,
            rng.gen::<u64>(),
        );
        let all = LabeledSet::from_pairs(n, pool.to_labeled());
        let test = LabeledSet::from_pairs(
            n,
            all.pairs()[all.len() - test_size.min(all.len())..].to_vec(),
        );
        for (i, &budget) in params.crp_budgets.iter().enumerate() {
            let train = all.take(budget.min(all.len() - test.len()));
            let cell = table_ii_procedure(
                &train,
                &test,
                ChowConfig::default(),
                params.perceptron_epochs,
            );
            accuracy[i][j] = cell.test_accuracy;
        }
    }

    Table2Result {
        params: params.clone(),
        accuracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quick_run_shows_plateau_below_100() {
        let mut rng = StdRng::seed_from_u64(1);
        let result = run_table2(&Table2Params::quick(), &mut rng);
        for (i, row) in result.accuracy.iter().enumerate() {
            for (j, &acc) in row.iter().enumerate() {
                assert!(
                    acc > 0.55 && acc < 0.985,
                    "cell [{i}][{j}] = {acc}: the LTF surrogate must beat chance but plateau below ~98 %"
                );
            }
        }
    }

    #[test]
    fn more_crps_do_not_unlock_the_concept() {
        let mut rng = StdRng::seed_from_u64(2);
        let result = run_table2(&Table2Params::quick(), &mut rng);
        // Quadrupling the CRP budget moves accuracy by at most a few
        // points — the paper's central observation.
        for gain in result.plateau_gains() {
            assert!(gain < 0.12, "plateau violated: gain {gain}");
        }
    }

    #[test]
    fn table_renders_papers_layout() {
        let mut rng = StdRng::seed_from_u64(3);
        let result = run_table2(&Table2Params::quick(), &mut rng);
        let t = result.to_table();
        assert_eq!(t.num_rows(), 2);
        let text = t.to_string();
        assert!(text.contains("CRPs"));
        assert_eq!(t.notes()[0].matches(" pp").count(), result.params.ns.len());
    }
}
