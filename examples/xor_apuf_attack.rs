//! XOR Arbiter PUF modeling with three learners in three settings —
//! the Table I story, empirically: logistic regression and CMA-ES on
//! random examples, and the bounds that do (not) constrain them.
//!
//! Run with: `cargo run --release -p mlam --example xor_apuf_attack`

use mlam::bounds::TableOne;
use mlam::learn::cma_es::{fit_xor_delay_model, CmaEsOptions};
use mlam::learn::dataset::LabeledSet;
use mlam::learn::features::ArbiterPhiFeatures;
use mlam::learn::logistic::{LogisticConfig, LogisticRegression};
use mlam::learn::perceptron::Perceptron;
use mlam::puf::XorArbiterPuf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let (n, k) = (24usize, 2usize);
    println!("device: {n}-stage, {k}-chain XOR Arbiter PUF (noiseless)\n");

    // The analytic context: all four Table I rows at this point.
    let bounds = TableOne::compute(n, k, 0.05, 0.01);
    println!(
        "Table I at (n={n}, k={k}, eps=0.05, delta=0.01):\n  \
         Perceptron [9] (arbitrary D): {:.2e} CRPs\n  \
         general VC (uniform D):       {:.2e} CRPs\n  \
         LMN Cor.1 (uniform D):        10^{:.0} CRPs\n  \
         LearnPoly Cor.2 (membership): {:.2e} queries\n",
        bounds.perceptron_bound,
        bounds.general_bound,
        bounds.lmn_bound_log10,
        bounds.learnpoly_bound
    );

    let puf = XorArbiterPuf::sample(n, k, 0.0, &mut rng);
    let train = LabeledSet::sample(&puf, 6000, &mut rng);
    let test = LabeledSet::sample(&puf, 3000, &mut rng);

    // 1. Perceptron over Φ — the *wrong* representation for k=2 (a
    // product of two LTFs is not one LTF in Φ space).
    let perc = Perceptron::new(80).train_with(ArbiterPhiFeatures::new(n), &train);
    println!(
        "Perceptron/Φ (proper, single-LTF hypothesis): {:.2}% test accuracy",
        test.accuracy_of(&perc.model) * 100.0
    );

    // 2. Logistic regression over Φ — same representation ceiling.
    let logi = LogisticRegression::new(LogisticConfig::default()).train_phi(&train, &mut rng);
    println!(
        "Logistic/Φ (proper, single-LTF hypothesis):   {:.2}% test accuracy",
        test.accuracy_of(&logi.model) * 100.0
    );

    // 3. CMA-ES over the full k-chain delay model — the representation
    // that matches the device.
    let (model, result) = fit_xor_delay_model(
        &train,
        k,
        CmaEsOptions {
            max_generations: 600,
            target_fitness: 0.02,
            restarts: 3,
            ..Default::default()
        },
        &mut rng,
    );
    println!(
        "CMA-ES over k-chain delay model:              {:.2}% test accuracy \
         ({} fitness evals)",
        test.accuracy_of(&model) * 100.0,
        result.evaluations
    );
    println!(
        "\nlesson (Section V): same CRPs, same access, same distribution — \
         the hypothesis representation alone separates failure from success."
    );
}
