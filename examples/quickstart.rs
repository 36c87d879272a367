//! Quickstart: simulate a PUF, attack it, and let the adversary-model
//! machinery explain which security claims the result does (not) touch.
//!
//! Run with: `cargo run -p mlam --example quickstart`

use mlam::adversary::AdversaryModel;
use mlam::attack::run_example_attack;
use mlam::learn::dataset::LabeledSet;
use mlam::learn::features::ArbiterPhiFeatures;
use mlam::learn::perceptron::Perceptron;
use mlam::puf::ArbiterPuf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // 1. Manufacture a 64-stage Arbiter PUF (additive delay model).
    let puf = ArbiterPuf::sample(64, 0.02, &mut rng);
    println!(
        "device: 64-stage Arbiter PUF, noise sigma {}",
        puf.noise_sigma()
    );

    // 2. Collect CRPs the way a lab would: stable majority-voted reads.
    let crps = mlam::puf::crp::collect_stable(&puf, 8000, 5, 1.0, &mut rng);
    println!(
        "collected {} stable CRPs ({}% responses are 1)",
        crps.len(),
        (crps.ones_fraction() * 100.0).round()
    );

    // 3. Split and attack with the classic Perceptron-over-Φ model.
    let all = LabeledSet::from_pairs(64, crps.to_labeled());
    let (train, test) = all.split(0.75, &mut rng);
    let report = run_example_attack::<ArbiterPuf, _, _>(
        "Perceptron over arbiter Φ features",
        AdversaryModel::uniform_example_attack(),
        &train,
        &test,
        |tr| {
            Perceptron::new(80)
                .train_with(ArbiterPhiFeatures::new(64), tr)
                .model
        },
    );
    println!(
        "attack: {} -> {:.2}% test accuracy from {} CRPs in {:.3}s",
        report.learner,
        report.accuracy * 100.0,
        report.queries,
        report.seconds
    );

    // 4. The paper's discipline: state the setting, and check which
    // claims this result can even speak to.
    println!("attack setting: {}", report.setting);
    let distribution_free_claim = AdversaryModel::distribution_free_claim();
    let verdict = distribution_free_claim.comparability(&report.setting);
    println!(
        "does this refute a distribution-free proper-learning hardness claim? {}",
        if verdict.is_comparable() {
            "yes (settings comparable)".to_string()
        } else {
            format!(
                "no — pitfalls: {}",
                verdict
                    .pitfalls()
                    .iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join("; ")
            )
        }
    );
}
