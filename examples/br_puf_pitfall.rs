//! The BR PUF representation pitfall (Sections V-A, Tables II & III):
//! build the Chow-parameter LTF surrogate, watch its accuracy plateau,
//! and let the halfspace tester certify the representation mismatch.
//!
//! Run with: `cargo run --release -p mlam --example br_puf_pitfall`

use mlam::boolean::testing::{HalfspaceTester, Verdict};
use mlam::experiments::table3::spectral_distance_lower_bound;
use mlam::learn::chow::{table_ii_procedure, ChowConfig};
use mlam::learn::dataset::LabeledSet;
use mlam::learn::lmn::{lmn_learn, LmnConfig};
use mlam::puf::{BistableRingPuf, BrPufConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let n = 32;
    let puf = BistableRingPuf::sample(n, BrPufConfig::calibrated(n), &mut rng);
    println!("device: {n}-stage Bistable Ring PUF (calibrated interaction model)\n");

    // Table II in miniature: the Chow-LTF surrogate's accuracy vs CRPs.
    println!("Chow-parameter LTF surrogate (Table II procedure):");
    let test = LabeledSet::sample(&puf, 8000, &mut rng);
    for budget in [1000usize, 2500, 5000, 10_000] {
        let train = LabeledSet::sample(&puf, budget, &mut rng);
        let cell = table_ii_procedure(&train, &test, ChowConfig::default(), 50);
        println!(
            "  {budget:>6} CRPs -> {:.2}% accuracy",
            cell.test_accuracy * 100.0
        );
    }
    println!("  (the plateau: more CRPs cannot fix a wrong representation)\n");

    // Table III in miniature: the halfspace tester's verdict.
    let data = LabeledSet::sample(&puf, 6000, &mut rng);
    let report = HalfspaceTester::new(0.1, 0.99).run(n, data.pairs(), &mut rng);
    println!("halfspace tester (Table III procedure):");
    println!(
        "  level-<=1 Fourier weight: {:.3} (halfspace floor ~ 0.64)",
        report.level_one_weight
    );
    println!(
        "  distance from any halfspace: {:.1}% (spectral lower bound {:.1}%)",
        report.distance_estimate * 100.0,
        spectral_distance_lower_bound(report.level_one_weight) * 100.0
    );
    println!(
        "  verdict: {}",
        match report.verdict {
            Verdict::Halfspace => "consistent with a halfspace",
            Verdict::FarFromHalfspace => "far from every halfspace",
        }
    );

    // The remedy: drop the representation restriction (improper
    // learning, Section V-B).
    let train = LabeledSet::sample(&puf, 10_000, &mut rng);
    let improper = lmn_learn(&train, LmnConfig::new(2));
    println!(
        "\nimproper low-degree (LMN, d=2) hypothesis: {:.2}% accuracy — \
         the axis that actually moved the needle",
        test.accuracy_of(&improper.hypothesis) * 100.0
    );
}
