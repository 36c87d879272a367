//! Weka interoperability: export simulated CRPs in the ARFF format the
//! paper's own Table II tooling consumed ("the Perceptron algorithm
//! embedded in Weka [27]").
//!
//! Run with: `cargo run -p mlam --example weka_export`

use mlam::puf::arff::{from_arff, to_arff};
use mlam::puf::crp::collect_stable;
use mlam::puf::{BistableRingPuf, BrPufConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(27);
    // The paper's Table II device class: a BR PUF, stable CRPs only.
    let puf = BistableRingPuf::sample(16, BrPufConfig::calibrated_accuracy(16), &mut rng);
    let crps = collect_stable(&puf, 1000, 5, 1.0, rng.gen());
    let arff = to_arff(&crps, "br_puf_16_stable_crps");

    println!("--- ARFF header + first rows -------------------------------");
    for line in arff.lines().take(24) {
        println!("{line}");
    }
    println!("...  ({} data rows total)", crps.len());

    // Round-trip sanity: the exported file parses back identically.
    let back = from_arff(&arff).expect("parse our own export");
    assert_eq!(back, crps);
    println!(
        "\nround-trip check: OK ({} CRPs, {} challenge bits)",
        back.len(),
        back.num_inputs()
    );
    println!("feed this file to `weka.classifiers.functions.Perceptron` to rerun Table II on the original tooling.");
}
