//! A guided audit of the paper's pitfalls: five claim-vs-attack pairs
//! run through the comparability detector, each annotated with the
//! experiment in this repository that demonstrates it empirically.
//!
//! Run with: `cargo run -p mlam --example pitfall_audit`

use mlam::adversary::{
    AccessModel, AdversaryModel, DistributionModel, InferenceGoal, RepresentationModel,
};

fn audit(title: &str, claim: &AdversaryModel, attack: &AdversaryModel, witness: &str) {
    println!("── {title}");
    println!("   claim proven under : {claim}");
    println!("   attack operates in : {attack}");
    let verdict = claim.comparability(attack);
    if verdict.is_comparable() {
        println!("   verdict            : comparable — the claim constrains this attack");
    } else {
        println!("   verdict            : NOT comparable");
        for p in verdict.pitfalls() {
            println!("     pitfall: {p}");
        }
    }
    println!("   empirical witness  : {witness}\n");
}

fn main() {
    println!("Pitfall audit — every mismatch from the paper, detected mechanically\n");

    // 1. Distribution: the [9] bound vs the [17] attack.
    audit(
        "1. Distribution axis — XOR APUF hardness [9] vs RocknRoll attack [17]",
        &AdversaryModel::distribution_free_claim(),
        &AdversaryModel::uniform_example_attack(),
        "cargo run -p mlam-bench --bin repro_all -- --only rocknroll (75 % accuracy at k >> ln n)",
    );

    // 2. Access: random-example security vs a membership-query attacker.
    let random_claim = AdversaryModel {
        distribution: DistributionModel::Uniform,
        access: AccessModel::RandomExamples,
        representation: RepresentationModel::Improper,
        goal: InferenceGoal::Approximate,
    };
    audit(
        "2. Access axis — random-example security claim vs membership queries (Cor. 2)",
        &random_claim,
        &AdversaryModel::membership_query_attack(),
        "cargo run -p mlam-bench --bin repro_all -- --only corollary2 (exact recovery, poly(n) queries)",
    );

    // 3. Representation: a proper-class hardness claim vs an improper
    // learner.
    let proper_claim = AdversaryModel {
        distribution: DistributionModel::Uniform,
        access: AccessModel::RandomExamples,
        representation: RepresentationModel::proper("LTF"),
        goal: InferenceGoal::Approximate,
    };
    audit(
        "3. Representation axis — 'BR PUFs resist LTF learners' vs improper attacks",
        &proper_claim,
        &AdversaryModel::uniform_example_attack(),
        "cargo run -p mlam-bench --bin repro_all -- --only ablations (proper 56 % vs improper 88 %)",
    );

    // 4. Exact vs approximate inference.
    let exact_claim = AdversaryModel {
        distribution: DistributionModel::Uniform,
        access: AccessModel::MembershipQueries,
        representation: RepresentationModel::Improper,
        goal: InferenceGoal::Exact,
    };
    let approx_attack = AdversaryModel {
        goal: InferenceGoal::Approximate,
        ..exact_claim.clone()
    };
    audit(
        "4. Inference goal — exact-resilient locking (SARLock) vs approximate attacks",
        &exact_claim,
        &approx_attack,
        "cargo run -p mlam-bench --bin repro_all -- --only exact_vs_approx (2^k DIPs vs instant 97 %)",
    );

    // 5. The sound case: matching settings ARE comparable.
    audit(
        "5. Control — identical settings transfer",
        &AdversaryModel::uniform_example_attack(),
        &AdversaryModel::uniform_example_attack(),
        "any table driver; like-for-like numbers may be compared",
    );

    println!(
        "Every 'NOT comparable' verdict above is a published-literature \
         comparison the paper flags;\nthe detector reproduces its reasoning \
         from the adversary-model axes alone."
    );
}
