//! The paper's qualitative claims about the three adversary-model axes,
//! checked *empirically* against the simulators — each test is one
//! "pitfall" made executable.

use mlam::adversary::{AdversaryModel, Pitfall};
use mlam::boolean::{BitVec, BooleanFunction, FnFunction, LabeledSet};
use mlam::learn::f2poly::learn_anf_adaptive;
use mlam::learn::lmn::{lmn_learn, LmnConfig};
use mlam::learn::oracle::FunctionOracle;
use mlam::learn::perceptron::Perceptron;
use mlam::puf::{BistableRingPuf, BrPufConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Axis 1 (distribution): the same concept can be easy under the
/// uniform distribution and hopeless under an adversarial one for the
/// same sample budget — "random CRPs" must name its distribution.
#[test]
fn distribution_axis_changes_the_verdict() {
    let mut rng = StdRng::seed_from_u64(1);
    // Concept: majority on the first 3 bits (easy under uniform).
    let f = FnFunction::new(16, |x: &BitVec| {
        (x.get(0) as u8 + x.get(1) as u8 + x.get(2) as u8) >= 2
    });
    // Uniform examples: the perceptron nails it.
    let train_u = LabeledSet::sample_par(&f, 800, &mut rng);
    let test_u = LabeledSet::sample_par(&f, 2000, &mut rng);
    let acc_uniform = test_u.accuracy_of(&Perceptron::new(60).train(&train_u).model);
    assert!(acc_uniform > 0.95, "{acc_uniform}");

    // Adversarial fixed distribution: all mass on inputs where the
    // first three bits are 1,1,0 or 0,0,1 — the learner sees a
    // constant-looking slice and cannot resolve the majority boundary
    // elsewhere; uniform test accuracy collapses.
    let mut train_a = LabeledSet::new(16);
    for _ in 0..800 {
        let mut x = BitVec::random(16, &mut rng);
        let pattern = rand::Rng::gen_bool(&mut rng, 0.5);
        x.set(0, pattern);
        x.set(1, pattern);
        x.set(2, !pattern);
        let y = f.eval(&x);
        train_a.push(x, y);
    }
    let acc_adversarial = test_u.accuracy_of(&Perceptron::new(60).train(&train_a).model);
    assert!(
        acc_adversarial < acc_uniform - 0.02,
        "adversarial-distribution training must transfer worse: {acc_adversarial} vs {acc_uniform}"
    );
}

/// Axis 2 (access): parity-like structure is information-theoretically
/// painful from random examples for low-degree spectral learners, yet
/// trivial with membership queries (ANF interpolation).
#[test]
fn access_axis_changes_the_verdict() {
    let mut rng = StdRng::seed_from_u64(2);
    let f = FnFunction::new(20, |x: &BitVec| x.get(0) ^ x.get(7) ^ x.get(13) ^ x.get(19));
    // Random examples + low-degree improper learner: chance.
    let train = LabeledSet::sample_par(&f, 6000, &mut rng);
    let test = LabeledSet::sample_par(&f, 2000, &mut rng);
    let lmn = lmn_learn(&train, LmnConfig::new(2));
    let acc_examples = test.accuracy_of(&lmn.hypothesis);
    assert!(
        acc_examples < 0.6,
        "degree-2 LMN must fail on a 4-parity: {acc_examples}"
    );
    // Membership queries: exact in poly(n).
    let oracle = FunctionOracle::uniform(&f);
    let out = learn_anf_adaptive(&oracle, 2, 400, &mut rng);
    assert!(out.accepted);
    let acc_membership = test.accuracy_of(&out.hypothesis);
    assert_eq!(acc_membership, 1.0);
    assert!(out.membership_queries < 1000);
}

/// Axis 3 (representation): on the identical BR PUF data, the proper
/// LTF hypothesis is strictly weaker than the improper low-degree one.
#[test]
fn representation_axis_changes_the_verdict() {
    let mut rng = StdRng::seed_from_u64(3);
    let puf = BistableRingPuf::sample(16, BrPufConfig::calibrated(16), &mut rng);
    let train = LabeledSet::sample_par(&puf, 10_000, &mut rng);
    let test = LabeledSet::sample_par(&puf, 4000, &mut rng);
    let proper = test.accuracy_of(&Perceptron::new(60).train(&train).model);
    let improper = test.accuracy_of(&lmn_learn(&train, LmnConfig::new(2)).hypothesis);
    assert!(
        improper > proper,
        "improper {improper} must beat proper {proper} on the same data"
    );
}

/// The pitfall detector agrees with the empirical axes: each of the
/// three scenarios above corresponds to an incomparability verdict.
#[test]
fn detector_matches_the_empirics() {
    // [9] vs [17]: representation (and algorithm) mismatch.
    let claim = AdversaryModel::distribution_free_claim();
    let attack = AdversaryModel::uniform_example_attack();
    let verdict = claim.comparability(&attack);
    assert!(verdict
        .pitfalls()
        .iter()
        .any(|p| matches!(p, Pitfall::RepresentationMismatch { .. })));

    // Random-example claim vs membership-query attack: access mismatch.
    let mut weak_claim = AdversaryModel::uniform_example_attack();
    weak_claim.representation = mlam::adversary::RepresentationModel::Improper;
    let strong_attack = AdversaryModel::membership_query_attack();
    assert!(weak_claim
        .comparability(&strong_attack)
        .pitfalls()
        .iter()
        .any(|p| matches!(p, Pitfall::AccessMismatch { .. })));

    // Uniform claim vs biased attack: distribution mismatch.
    let mut biased_attack = AdversaryModel::uniform_example_attack();
    biased_attack.distribution = mlam::adversary::DistributionModel::ProductBiased(0.8);
    assert!(weak_claim
        .comparability(&biased_attack)
        .pitfalls()
        .iter()
        .any(|p| matches!(p, Pitfall::DistributionMismatch { .. })));
}
