//! The per-bit scalar implementations that the packed ±1 kernels
//! replaced, kept as the bit-identity reference for them.
//!
//! Each function below is the earlier body of its namesake, reading
//! one challenge bit per multiply through [`BitVec::pm`]. The tests
//! compare the packed kernels with them by `to_bits()`, over input
//! lengths on both sides of the 64-bit word boundary and sample sizes
//! on both sides of the 64-example block boundary. The pocket
//! perceptron's grid also counts the update-pass margins that are
//! exactly 0 or within the rounding bound of 0, where another
//! summation order could give another sign, and requires both to
//! occur.

use crate::bits::{row_sum_bound, BitVec};
use crate::fourier::{estimate_coefficients_from_data, SparseFourier};
use crate::function::BooleanFunction;
use crate::ltf::{ChowParameters, LinearThreshold};
use crate::testing::{
    pocket_perceptron, HalfspaceTester, TesterReport, Verdict, HALFSPACE_LEVEL_ONE_FLOOR,
};
use crate::SubsetsUpTo;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `LinearThreshold::margin`: `−θ + Σᵢ wᵢ·x.pm(i)` in index order.
fn margin(w: &[f64], theta: f64, x: &BitVec) -> f64 {
    let mut s = -theta;
    for (i, wi) in w.iter().enumerate() {
        s += wi * x.pm(i);
    }
    s
}

/// `ChowParameters::from_data`: chunked `±1` float sums, folded in
/// chunk order, scaled by `1/len`.
fn chow_from_data(n: usize, data: &[(BitVec, bool)]) -> (f64, Vec<f64>) {
    let partials = mlam_par::par_chunk_map(data, mlam_par::DEFAULT_CHUNK, |_, chunk| {
        let mut constant = 0.0;
        let mut degree_one = vec![0.0; n];
        for (x, y) in chunk {
            let fx = crate::to_pm(*y);
            constant += fx;
            for (i, d) in degree_one.iter_mut().enumerate() {
                *d += fx * x.pm(i);
            }
        }
        (constant, degree_one)
    });
    let scale = 1.0 / data.len() as f64;
    let mut constant = 0.0;
    let mut degree_one = vec![0.0; n];
    for (c, d) in partials {
        constant += c;
        for (acc, p) in degree_one.iter_mut().zip(d) {
            *acc += p;
        }
    }
    constant *= scale;
    for d in &mut degree_one {
        *d *= scale;
    }
    (constant, degree_one)
}

/// `fourier::estimate_coefficients_from_data`: chunked `±1` float sums
/// per mask, folded in chunk order, divided by `len`.
fn coefficients_from_data(data: &[(BitVec, bool)], masks: &[u64]) -> Vec<f64> {
    let partials = mlam_par::par_chunk_map(data, mlam_par::DEFAULT_CHUNK, |_, chunk| {
        let mut sums = vec![0.0; masks.len()];
        for (x, y) in chunk {
            let fx = crate::to_pm(*y);
            let xm = x.to_u64();
            for (k, &mask) in masks.iter().enumerate() {
                let chi = if (xm & mask).count_ones() % 2 == 1 {
                    -1.0
                } else {
                    1.0
                };
                sums[k] += fx * chi;
            }
        }
        sums
    });
    let mut sums = vec![0.0; masks.len()];
    for part in partials {
        for (s, p) in sums.iter_mut().zip(part) {
            *s += p;
        }
    }
    for s in &mut sums {
        *s /= data.len() as f64;
    }
    sums
}

/// `SparseFourier::eval_real`: the terms summed with `f64`'s `Sum`.
fn eval_real(h: &SparseFourier, x: &BitVec) -> f64 {
    let xm = x.to_u64();
    h.terms()
        .iter()
        .map(|&(s, c)| {
            if (xm & s).count_ones() % 2 == 1 {
                -c
            } else {
                c
            }
        })
        .sum()
}

/// Margins of a reference [`pocket`] run that land near 0.
#[derive(Clone, Copy, Debug, Default)]
struct NearZero {
    /// Update-pass margins that are exactly ±0.0.
    exact: usize,
    /// Update-pass margins that are nonzero but no further from 0 than
    /// the rounding bound, so another summation order could flip them.
    within_bound: usize,
}

/// `testing::pocket_perceptron`: per-example error passes and a
/// per-bit update pass.
fn pocket(
    n: usize,
    data: &[(BitVec, bool)],
    init: Option<LinearThreshold>,
    epochs: usize,
) -> (Vec<f64>, f64, NearZero) {
    let (mut w, mut theta) = match init {
        Some(ltf) => {
            let mut w = ltf.weights().to_vec();
            w.resize(n, 0.0);
            (w, ltf.threshold())
        }
        None => (vec![0.0; n], 0.0),
    };
    let err_of = |w: &[f64], theta: f64| -> usize {
        data.iter()
            .filter(|(x, y)| crate::to_bool(margin(w, theta, x)) != *y)
            .count()
    };
    let mut best_err = err_of(&w, theta);
    let mut best_w = w.clone();
    let mut best_theta = theta;
    let mut near = NearZero::default();
    for _ in 0..epochs {
        let mut updated = false;
        for (x, y) in data {
            let target = crate::to_pm(*y);
            let s = margin(&w, theta, x);
            if s == 0.0 {
                near.exact += 1;
            } else if s.abs() <= row_sum_bound(-theta, &w) {
                near.within_bound += 1;
            }
            let predicted = if s <= 0.0 { -1.0 } else { 1.0 };
            if predicted != target {
                for (i, wi) in w.iter_mut().enumerate() {
                    *wi += target * x.pm(i);
                }
                theta -= target;
                updated = true;
            }
        }
        let err = err_of(&w, theta);
        if err < best_err {
            best_err = err;
            best_w = w.clone();
            best_theta = theta;
        }
        if best_err == 0 || !updated {
            break;
        }
    }
    (best_w, best_theta, near)
}

/// `HalfspaceTester::run` with its five splits and 30 polish
/// epochs: owned copies of each fitting split, per-example
/// disagreement on the held-out split.
fn tester_run<R: Rng + ?Sized>(
    eps: f64,
    n: usize,
    data: &[(BitVec, bool)],
    rng: &mut R,
) -> TesterReport {
    let splits = 5;
    let mut w1_sum = 0.0;
    let mut distance_sum = 0.0;
    for _ in 0..splits {
        let mut shuffled: Vec<&(BitVec, bool)> = data.iter().collect();
        shuffled.shuffle(rng);
        let fit_len = ((shuffled.len() * 7) / 10).max(1);
        let (fit, held) = shuffled.split_at(fit_len);
        let held = if held.is_empty() { fit } else { held };
        let fit_owned: Vec<(BitVec, bool)> = fit.iter().map(|(x, y)| (x.clone(), *y)).collect();
        let (constant, degree_one) = chow_from_data(n, &fit_owned);
        let chow = ChowParameters {
            constant,
            degree_one,
        };
        w1_sum += chow.level_one_weight();
        let (w, theta, _) = pocket(n, &fit_owned, Some(chow.to_ltf()), 30);
        let wrong = held
            .iter()
            .filter(|(x, y)| crate::to_bool(margin(&w, theta, x)) != *y)
            .count();
        distance_sum += wrong as f64 / held.len() as f64;
    }
    let w1 = w1_sum / splits as f64;
    let distance = distance_sum / splits as f64;
    let verdict = if distance <= eps || w1 >= HALFSPACE_LEVEL_ONE_FLOOR * (1.0 - 4.0 * eps) {
        Verdict::Halfspace
    } else {
        Verdict::FarFromHalfspace
    };
    TesterReport {
        level_one_weight: w1,
        distance_estimate: distance,
        verdict,
        examples_used: data.len(),
    }
}

/// Input lengths on both sides of the 64-bit word boundary.
const LENGTHS: [usize; 6] = [1, 7, 63, 64, 65, 130];
/// Sample sizes on both sides of the 64-example block boundary.
const SIZES: [usize; 6] = [1, 7, 63, 64, 65, 3000];

/// A noisy halfspace sample: labels of a random LTF, 20% flipped, so
/// the perceptron keeps making mistakes and every pass has work.
fn sample(n: usize, m: usize, seed: u64) -> Vec<(BitVec, bool)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let ltf = LinearThreshold::random(n, &mut rng);
    (0..m)
        .map(|_| {
            let x = BitVec::random(n, &mut rng);
            let y = ltf.eval(&x) ^ rng.gen_bool(0.2);
            (x, y)
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn margin_is_bit_identical() {
    for n in LENGTHS {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let ltf = LinearThreshold::random(n, &mut rng);
        for (x, _) in sample(n, 65, 1) {
            assert_eq!(
                ltf.margin(&x).to_bits(),
                margin(ltf.weights(), ltf.threshold(), &x).to_bits(),
                "n={n}"
            );
        }
    }
}

#[test]
fn chow_from_data_is_bit_identical() {
    for n in LENGTHS {
        for m in SIZES {
            let data = sample(n, m, 2);
            let chow = ChowParameters::from_data(n, &data);
            let (constant, degree_one) = chow_from_data(n, &data);
            assert_eq!(chow.constant.to_bits(), constant.to_bits(), "n={n} m={m}");
            assert_eq!(bits(&chow.degree_one), bits(&degree_one), "n={n} m={m}");
        }
    }
}

#[test]
fn estimate_coefficients_from_data_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(3);
    for n in LENGTHS.map(|n| n.min(63)) {
        let mut masks: Vec<u64> = SubsetsUpTo::new(n, 2).collect();
        // Dense masks, including bits past `n` that select nothing.
        masks.extend((0..8).map(|_| rng.gen::<u64>()));
        for m in SIZES {
            let data = sample(n, m, 4);
            assert_eq!(
                bits(&estimate_coefficients_from_data(n, &data, &masks)),
                bits(&coefficients_from_data(&data, &masks)),
                "n={n} m={m}"
            );
        }
    }
}

#[test]
fn pocket_perceptron_is_bit_identical() {
    let mut near = NearZero::default();
    for n in LENGTHS {
        for m in SIZES {
            let data = sample(n, m, 5);
            let chow = ChowParameters::from_data(n, &data).to_ltf();
            // Tenths: rows with as many ones as zeros cancel to a
            // rounding residue, whose sign depends on the summation
            // order. A `None` start scores its first example exactly 0.
            let tenths = LinearThreshold::new(vec![0.1; n], 0.0);
            for (init, epochs) in [(None, 7), (Some(chow), 30), (Some(tenths), 7)] {
                let fit = pocket_perceptron(n, &data, init.clone(), epochs);
                let (w, theta, seen) = pocket(n, &data, init, epochs);
                assert_eq!(bits(fit.weights()), bits(&w), "n={n} m={m}");
                assert_eq!(fit.threshold().to_bits(), theta.to_bits(), "n={n} m={m}");
                near.exact += seen.exact;
                near.within_bound += seen.within_bound;
            }
        }
    }
    assert!(near.exact > 0 && near.within_bound > 0, "{near:?}");
}

#[test]
fn tester_report_is_bit_identical() {
    for n in LENGTHS {
        for m in SIZES {
            let data = sample(n, m, 6);
            let mut rng = StdRng::seed_from_u64(7);
            let mut reference_rng = rng.clone();
            let report = HalfspaceTester::new(0.1, 0.99).run(n, &data, &mut rng);
            let expected = tester_run(0.1, n, &data, &mut reference_rng);
            let fields = |r: &TesterReport| {
                (
                    r.level_one_weight.to_bits(),
                    r.distance_estimate.to_bits(),
                    r.verdict,
                    r.examples_used,
                )
            };
            assert_eq!(fields(&report), fields(&expected), "n={n} m={m}");
            assert_eq!(rng.gen::<u64>(), reference_rng.gen::<u64>(), "rng stream");
        }
    }
}

#[test]
fn sparse_fourier_eval_real_is_bit_identical() {
    let mut rng = StdRng::seed_from_u64(8);
    for n in LENGTHS.map(|n| n.min(63)) {
        let top = if n == 63 { u64::MAX } else { (1u64 << n) - 1 };
        let terms = (0..40)
            .map(|_| (rng.gen::<u64>() & top, rng.gen::<f64>() - 0.5))
            .collect();
        let h = SparseFourier::new(n, terms);
        for (x, _) in sample(n, 65, 9) {
            assert_eq!(h.eval_real(&x).to_bits(), eval_real(&h, &x).to_bits());
        }
    }
    let empty = SparseFourier::new(5, Vec::new());
    let x = BitVec::zeros(5);
    assert_eq!(empty.eval_real(&x).to_bits(), (-0.0f64).to_bits());
    assert_eq!(eval_real(&empty, &x).to_bits(), (-0.0f64).to_bits());
    assert!(empty.eval(&x), "an empty expansion is -0.0, logic 1");
}

#[test]
fn sparse_fourier_count_agreements_matches_eval() {
    let mut rng = StdRng::seed_from_u64(10);
    for n in LENGTHS.map(|n| n.min(63)) {
        let top = if n == 63 { u64::MAX } else { (1u64 << n) - 1 };
        let random = (0..50)
            .map(|_| (rng.gen::<u64>() & top, rng.gen::<f64>() - 0.5))
            .collect();
        // Ties: ±0.5 ± 0.5 lands on +0.0 exactly, and -0.0 terms keep
        // an all-zero sum negative, so the `<= 0.0` boundary is hit.
        let ties = vec![(0, 0.5), (1, 0.5), (top, -0.0), (1 & top, -0.25)];
        let lmn: Vec<(u64, f64)> = SubsetsUpTo::new(n, 2)
            .map(|s| (s, rng.gen::<f64>() - 0.5))
            .collect();
        for terms in [Vec::new(), random, ties, lmn] {
            let h = SparseFourier::new(n, terms);
            for m in SIZES {
                let data = sample(n, m, 11);
                let per_example = data.iter().filter(|(x, y)| h.eval(x) == *y).count();
                assert_eq!(h.count_agreements(&data), per_example, "n={n} m={m}");
            }
        }
        // The empty expansion says logic 1 everywhere.
        let data = sample(n, 65, 12);
        let ones = data.iter().filter(|(_, y)| *y).count();
        assert_eq!(
            SparseFourier::new(n, Vec::new()).count_agreements(&data),
            ones
        );
    }
}
