//! End-to-end PUF attack pipelines spanning the puf, learn, boolean and
//! core crates: simulate a device → collect CRPs → attack → evaluate.

use mlam::adversary::AdversaryModel;
use mlam::attack::run_example_attack;
use mlam::boolean::testing::{HalfspaceTester, Verdict};
use mlam::boolean::{BitVec, BooleanFunction, LinearThreshold};
use mlam::learn::cma_es::{fit_xor_delay_model, CmaEsOptions};
use mlam::learn::dataset::LabeledSet;
use mlam::learn::features::ArbiterPhiFeatures;
use mlam::learn::lmn::{lmn_learn, LmnConfig};
use mlam::learn::logistic::{LogisticConfig, LogisticRegression};
use mlam::learn::perceptron::Perceptron;
use mlam::puf::crp::{collect_stable, collect_uniform};
use mlam::puf::noise::ResponseNoise;
use mlam::puf::{ArbiterPuf, BistableRingPuf, BrPufConfig, XorArbiterPuf};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn arbiter_puf_falls_to_phi_perceptron() {
    let mut rng = StdRng::seed_from_u64(1);
    let puf = ArbiterPuf::sample(64, 0.0, &mut rng);
    let crps = collect_uniform(&puf, 6000, &mut rng);
    let all = LabeledSet::from_pairs(64, crps.to_labeled());
    let (train, test) = all.split(0.7, &mut rng);
    let out = Perceptron::new(80).train_with(ArbiterPhiFeatures::new(64), &train);
    let acc = test.accuracy_of(&out.model);
    assert!(acc > 0.95, "64-stage arbiter PUF must be modeled: {acc}");
}

#[test]
fn arbiter_puf_falls_to_logistic_regression_under_noise() {
    let mut rng = StdRng::seed_from_u64(2);
    let arbiter = ArbiterPuf::sample(48, 0.0, &mut rng);
    let puf = ResponseNoise::new(arbiter.clone(), 0.08);
    // Noisy single-shot collection, like a real attack trace.
    let crps = mlam::puf::crp::collect_noisy(&puf, 8000, &mut rng);
    let train = LabeledSet::from_pairs(48, crps.to_labeled());
    let clean_test = LabeledSet::sample(&arbiter, 3000, &mut rng);
    let out = LogisticRegression::new(LogisticConfig::default()).train_phi(&train, &mut rng);
    let acc = clean_test.accuracy_of(&out.model);
    assert!(acc > 0.88, "LR must tolerate 8 % response noise: {acc}");
}

#[test]
fn two_xor_arbiter_puf_falls_to_cma_es() {
    let mut rng = StdRng::seed_from_u64(3);
    let puf = XorArbiterPuf::sample(16, 2, 0.0, &mut rng);
    let train = LabeledSet::sample(&puf, 3000, &mut rng);
    let test = LabeledSet::sample(&puf, 2000, &mut rng);
    let (model, result) = fit_xor_delay_model(
        &train,
        2,
        CmaEsOptions {
            max_generations: 400,
            target_fitness: 0.02,
            restarts: 3,
            ..Default::default()
        },
        &mut rng,
    );
    let acc = test.accuracy_of(&model);
    assert!(
        acc > 0.85,
        "CMA-ES should model a 16-bit 2-XOR APUF: acc {acc}, fitness {}",
        result.best_fitness
    );
}

#[test]
fn stable_crp_collection_denoises_the_oracle() {
    let mut rng = StdRng::seed_from_u64(4);
    let puf = ArbiterPuf::sample(32, 0.6, &mut rng);
    let stable = collect_stable(&puf, 2000, 9, 1.0, &mut rng);
    let wrong = stable.iter().filter(|(c, r)| puf.eval(c) != *r).count();
    assert!(
        (wrong as f64) < stable.len() as f64 * 0.03,
        "{wrong}/{} stable CRPs disagree with the ideal response",
        stable.len()
    );
    // The stable set trains a better model than a noisy set of equal size.
    let noisy = mlam::puf::crp::collect_noisy(&puf, stable.len(), &mut rng);
    let test = LabeledSet::sample(&puf, 3000, &mut rng);
    let acc_stable = {
        let train = LabeledSet::from_pairs(32, stable.to_labeled());
        let out = Perceptron::new(60).train_with(ArbiterPhiFeatures::new(32), &train);
        test.accuracy_of(&out.model)
    };
    let acc_noisy = {
        let train = LabeledSet::from_pairs(32, noisy.to_labeled());
        let out = Perceptron::new(60).train_with(ArbiterPhiFeatures::new(32), &train);
        test.accuracy_of(&out.model)
    };
    assert!(
        acc_stable >= acc_noisy - 0.02,
        "stable {acc_stable} vs noisy {acc_noisy}"
    );
}

#[test]
fn br_puf_resists_ltf_but_not_improper_low_degree() {
    let mut rng = StdRng::seed_from_u64(5);
    let n = 16;
    let puf = BistableRingPuf::sample(n, BrPufConfig::calibrated(n), &mut rng);
    let train = LabeledSet::sample(&puf, 12_000, &mut rng);
    let test = LabeledSet::sample(&puf, 4000, &mut rng);

    // Proper LTF learner plateaus...
    let proper = Perceptron::new(60).train(&train);
    let proper_acc = test.accuracy_of(&proper.model);
    assert!(
        proper_acc < 0.93,
        "LTF must not crack the BR PUF: {proper_acc}"
    );

    // ...the improper degree-2 spectrum does clearly better.
    let improper = lmn_learn(&train, LmnConfig::new(2));
    let improper_acc = test.accuracy_of(&improper.hypothesis);
    assert!(
        improper_acc > proper_acc + 0.03,
        "improper {improper_acc} must beat proper {proper_acc}"
    );
}

#[test]
fn halfspace_tester_separates_ltf_from_br() {
    let mut rng = StdRng::seed_from_u64(6);
    let tester = HalfspaceTester::new(0.1, 0.95);

    let ltf = LinearThreshold::random(24, &mut rng);
    let pos: Vec<(BitVec, bool)> = (0..5000)
        .map(|_| {
            let x = BitVec::random(24, &mut rng);
            let y = ltf.eval(&x);
            (x, y)
        })
        .collect();
    assert_eq!(tester.run(24, &pos, &mut rng).verdict, Verdict::Halfspace);

    let br = BistableRingPuf::sample(24, BrPufConfig::calibrated(32), &mut rng);
    let neg: Vec<(BitVec, bool)> = (0..5000)
        .map(|_| {
            let x = BitVec::random(24, &mut rng);
            let y = br.eval(&x);
            (x, y)
        })
        .collect();
    assert_eq!(
        tester.run(24, &neg, &mut rng).verdict,
        Verdict::FarFromHalfspace
    );
}

#[test]
fn attack_reports_carry_their_settings() {
    let mut rng = StdRng::seed_from_u64(7);
    let puf = ArbiterPuf::sample(32, 0.0, &mut rng);
    let train = LabeledSet::sample(&puf, 3000, &mut rng);
    let test = LabeledSet::sample(&puf, 2000, &mut rng);
    let report = run_example_attack::<ArbiterPuf, _, _>(
        "perceptron/phi",
        AdversaryModel::uniform_example_attack(),
        &train,
        &test,
        |tr| {
            Perceptron::new(60)
                .train_with(ArbiterPhiFeatures::new(32), tr)
                .model
        },
    );
    assert!(report.accuracy > 0.95);
    // A report in the membership-query setting is not comparable.
    let mut other = report.clone();
    other.setting = AdversaryModel::membership_query_attack();
    assert!(!report.comparable_with(&other));
}
