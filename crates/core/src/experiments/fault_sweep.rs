//! Accuracy under unreliable oracle access: the fault-rate sweep, the
//! last experiment of the registry. Its full-scale table is in
//! EXPERIMENTS.md ("Fault sweep"); HARNESS.md specifies the fault model
//! and recovery policies it runs under ("The fault sweep").
//!
//! The paper's access axis says *what kind* of oracle the adversary
//! holds; this sweep adds the orthogonal *quality* axis. One Arbiter
//! PUF is attacked twice at each fault rate:
//!
//! - **example access** — labeled CRPs drawn through the faulty
//!   channel. A flipped reading silently mislabels the training
//!   example (a random draw cannot be re-observed, so voting does not
//!   apply) and the learned model degrades with the rate;
//! - **membership access with voting** — the attacker picks each
//!   challenge and majority-votes repeated readings, trading raw-read
//!   overhead for label quality.
//!
//! The gap between the two rows is the paper's pitfall in miniature:
//! the *same* learner on the *same* device looks far weaker or far
//! stronger depending on an oracle property the adversary model must
//! state explicitly.

use crate::report::{pct, Table};
use mlam_boolean::{BitVec, BooleanFunction, LabeledSet};
use mlam_harness::{FaultModel, RetryPolicy};
use mlam_learn::features::ArbiterPhiFeatures;
use mlam_learn::oracle::{ExampleOracle, FunctionOracle, MembershipOracle, UnreliableOracle};
use mlam_learn::perceptron::Perceptron;
use mlam_puf::ArbiterPuf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the fault-rate sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepParams {
    /// Stage count of the attacked Arbiter PUF.
    pub n: usize,
    /// Flip rates to sweep. Each rate `r` also drops readings at `r/2`
    /// and opens two-attempt outages at `r/4`.
    pub fault_rates: Vec<f64>,
    /// Logical training queries per attack (both access models spend
    /// the same logical budget; raw reads differ).
    pub train_size: usize,
    /// Clean test CRPs (ground truth from the raw device).
    pub test_size: usize,
    /// Perceptron epochs.
    pub epochs: usize,
    /// Raw-reading budget per logical query.
    pub retries: u32,
    /// Majority-vote width of the membership attack (odd).
    pub votes: u32,
}

impl FaultSweepParams {
    /// Full scale.
    pub fn paper() -> Self {
        FaultSweepParams {
            n: 64,
            fault_rates: vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.4],
            train_size: 4000,
            test_size: 4000,
            epochs: 100,
            retries: 8,
            votes: 5,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Self {
        FaultSweepParams {
            n: 32,
            fault_rates: vec![0.0, 0.1, 0.3],
            train_size: 800,
            test_size: 2000,
            epochs: 60,
            retries: 8,
            votes: 5,
        }
    }
}

/// One sweep point: both access models at one fault rate.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepRow {
    /// Flip rate of the fault model (drop rate is half of it).
    pub fault_rate: f64,
    /// Fraction of the example-access training set whose label
    /// disagrees with the device.
    pub example_noise: f64,
    /// Test accuracy of the model trained on faulty examples.
    pub example_accuracy: f64,
    /// Raw reads per logical query under example access.
    pub example_overhead: f64,
    /// Fraction of the voted training set whose label disagrees with
    /// the device.
    pub voted_noise: f64,
    /// Test accuracy of the model trained on voted membership queries.
    pub voted_accuracy: f64,
    /// Raw reads per logical query under voted membership access.
    pub voted_overhead: f64,
    /// Logical queries (both attacks) that exhausted every attempt and
    /// degraded to a last-gasp reading.
    pub exhausted: u64,
}

/// Result of the fault-rate sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultSweepResult {
    /// One row per fault rate.
    pub rows: Vec<FaultSweepRow>,
}

impl FaultSweepResult {
    /// Renders the sweep.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Attack accuracy vs. oracle fault rate (Arbiter PUF, perceptron)",
            &[
                "fault rate",
                "ex. noise [%]",
                "ex. acc [%]",
                "ex. reads/q",
                "vote noise [%]",
                "vote acc [%]",
                "vote reads/q",
                "exhausted",
            ],
        );
        for r in &self.rows {
            t.row(&[
                format!("{:.2}", r.fault_rate),
                pct(r.example_noise),
                pct(r.example_accuracy),
                format!("{:.2}", r.example_overhead),
                pct(r.voted_noise),
                pct(r.voted_accuracy),
                format!("{:.2}", r.voted_overhead),
                r.exhausted.to_string(),
            ]);
        }
        t
    }
}

/// Fraction of `set` whose label disagrees with `device`.
fn label_noise<F: BooleanFunction + ?Sized>(device: &F, set: &LabeledSet) -> f64 {
    let wrong = set
        .pairs()
        .iter()
        .filter(|(x, y)| device.eval(x) != *y)
        .count();
    wrong as f64 / set.len() as f64
}

/// Runs the fault-rate sweep. The same device and the same per-rate RNG
/// stream (derived via [`mlam_par::split_seed`] from the sweep's root
/// seed and the rate index) back every row, so rows are directly
/// comparable and the whole sweep is bit-reproducible.
pub fn run_fault_sweep<R: Rng + ?Sized>(
    params: &FaultSweepParams,
    rng: &mut R,
) -> FaultSweepResult {
    let _span = mlam_telemetry::span("experiment.fault_sweep");
    let device = ArbiterPuf::sample(params.n, 0.0, rng);
    let test = LabeledSet::sample_par(&device, params.test_size, rng);
    let sweep_root: u64 = rng.gen();
    let features = ArbiterPhiFeatures::new(params.n);
    let rows = params
        .fault_rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let mut rate_rng = StdRng::seed_from_u64(mlam_par::split_seed(sweep_root, i as u64));
            let fault_seed: u64 = rate_rng.gen();
            let faults = FaultModel::new(fault_seed, rate, rate * 0.5).with_outages(rate * 0.25, 2);

            // Example access: faulty draws mislabel the training set.
            let example_oracle = UnreliableOracle::new(
                FunctionOracle::uniform(&device),
                faults,
                RetryPolicy::retries(params.retries),
            );
            let train = LabeledSet::from_pairs(
                params.n,
                example_oracle.examples(params.train_size, &mut rate_rng),
            );
            let example_out = Perceptron::new(params.epochs).train_with(features, &train);

            // Membership access: the attacker picks challenges and
            // majority-votes repeated readings of each.
            let member_oracle = UnreliableOracle::new(
                FunctionOracle::uniform(&device),
                faults,
                RetryPolicy::retries(params.retries).with_votes(params.votes),
            );
            let mut voted = LabeledSet::new(params.n);
            for _ in 0..params.train_size {
                let x = BitVec::random(params.n, &mut rate_rng);
                let y = member_oracle.query(&x);
                voted.push(x, y);
            }
            let voted_out = Perceptron::new(params.epochs).train_with(features, &voted);

            FaultSweepRow {
                fault_rate: rate,
                example_noise: label_noise(&device, &train),
                example_accuracy: test.accuracy_of(&example_out.model),
                example_overhead: example_oracle.overhead(),
                voted_noise: label_noise(&device, &voted),
                voted_accuracy: test.accuracy_of(&voted_out.model),
                voted_overhead: member_oracle.overhead(),
                exhausted: example_oracle.exhausted_queries() + member_oracle.exhausted_queries(),
            }
        })
        .collect();
    FaultSweepResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(seed: u64) -> FaultSweepResult {
        let mut rng = StdRng::seed_from_u64(seed);
        run_fault_sweep(&FaultSweepParams::quick(), &mut rng)
    }

    #[test]
    fn reliable_rate_is_clean_and_cheap() {
        let result = sweep(1);
        let clean = &result.rows[0];
        assert_eq!(clean.fault_rate, 0.0);
        assert_eq!(clean.example_noise, 0.0);
        assert_eq!(clean.voted_noise, 0.0);
        assert!(clean.example_accuracy > 0.9, "{}", clean.example_accuracy);
        assert!(clean.voted_accuracy > 0.9, "{}", clean.voted_accuracy);
        assert_eq!(clean.example_overhead, 1.0);
        assert_eq!(clean.exhausted, 0);
    }

    #[test]
    fn voting_buys_label_quality_with_raw_reads() {
        let result = sweep(2);
        let noisy = result.rows.last().expect("rows");
        assert!(noisy.example_noise > 0.15, "{}", noisy.example_noise);
        assert!(
            noisy.voted_noise < noisy.example_noise - 0.05,
            "voting must cut label noise: {} vs {}",
            noisy.voted_noise,
            noisy.example_noise
        );
        assert!(
            noisy.voted_accuracy > noisy.example_accuracy,
            "voting must help the attack: {} vs {}",
            noisy.voted_accuracy,
            noisy.example_accuracy
        );
        assert!(noisy.voted_overhead > noisy.example_overhead);
        assert!(noisy.example_overhead > 1.0, "drops must force retries");
    }

    #[test]
    fn sweep_is_seed_deterministic() {
        assert_eq!(sweep(3), sweep(3));
    }

    #[test]
    fn table_renders() {
        assert!(sweep(4).to_table().to_string().contains("fault rate"));
    }
}
