//! The one-row loops that the multi-row packed kernels replaced, kept
//! as the bit-identity reference for them.
//!
//! [`Rows`] is the earlier `FeatureMatrix`: sign bits packed one
//! feature at a time from [`FeatureMap::features_into`], and a one-row
//! `dot`, `add_signed` and `grad_sub` that read one bit per term.
//! [`perceptron`] and [`logistic`] are the earlier training loops over
//! it, one row per score. The tests compare the trainers with them by
//! `to_bits()` for the three built-in maps and one dense map, over
//! input lengths on both sides of the 64-bit word boundary, sample
//! sizes on both sides of the 8-row score tile, batch sizes on both
//! sides of it, and separable and 50%-flipped labels.

use crate::dataset::LabeledSet;
use crate::feature_matrix::FeatureMatrix;
use crate::features::{ArbiterPhiFeatures, FeatureMap, LowDegreeFeatures, PlusMinusFeatures};
use crate::logistic::{LogisticConfig, LogisticRegression};
use crate::perceptron::Perceptron;
use mlam_boolean::bits::sign_select;
use mlam_boolean::{to_pm, BitVec, BooleanFunction, LinearThreshold};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `FeatureMatrix::build`'s sign packing: bit `j` is set ⇔ the `j`-th
/// value of `features_into` is `−1.0`.
fn pack_signs(map: &dyn FeatureMap, x: &BitVec) -> Vec<u64> {
    let mut buf = Vec::new();
    map.features_into(x, &mut buf);
    let mut words = vec![0u64; buf.len().div_ceil(64)];
    for (j, &v) in buf.iter().enumerate() {
        assert!(v == 1.0 || v == -1.0, "sign-valued map produced {v}");
        words[j / 64] |= (v.to_bits() >> 63) << (j % 64);
    }
    words
}

/// The earlier `FeatureMatrix`: packed sign rows for a sign-valued map,
/// dense rows otherwise.
struct Rows {
    dim: usize,
    labels: Vec<f64>,
    /// `(words_per_row, words)` for packed rows.
    signs: Option<(usize, Vec<u64>)>,
    /// Row-major values for dense rows.
    values: Vec<f64>,
}

impl Rows {
    fn build(map: &dyn FeatureMap, data: &LabeledSet, sign_valued: bool) -> Rows {
        let dim = map.dimension();
        let labels = data.pairs().iter().map(|(_, y)| to_pm(*y)).collect();
        let mut rows = Rows {
            dim,
            labels,
            signs: None,
            values: Vec::new(),
        };
        if sign_valued {
            let words = data.pairs().iter().flat_map(|(x, _)| pack_signs(map, x));
            rows.signs = Some((dim.div_ceil(64), words.collect()));
        } else {
            for (x, _) in data.pairs() {
                rows.values.extend(map.features(x));
            }
        }
        rows
    }

    fn examples(&self) -> usize {
        self.labels.len()
    }

    /// The sign bit of feature `j` of packed row `row`.
    fn bit(&self, row: usize, j: usize) -> u64 {
        let (words_per_row, words) = self.signs.as_ref().expect("packed rows");
        (words[row * words_per_row + j / 64] >> (j % 64)) & 1
    }

    fn dense(&self, row: usize) -> &[f64] {
        &self.values[row * self.dim..(row + 1) * self.dim]
    }

    fn dot(&self, row: usize, w: &[f64]) -> f64 {
        let mut s = 0.0f64;
        if self.signs.is_some() {
            for (j, &wj) in w.iter().enumerate() {
                s += sign_select(wj, self.bit(row, j));
            }
        } else {
            for (&fj, &wj) in self.dense(row).iter().zip(w) {
                s += fj * wj;
            }
        }
        s
    }

    fn add_signed(&self, row: usize, t: f64, w: &mut [f64]) {
        if self.signs.is_some() {
            for (j, wj) in w.iter_mut().enumerate() {
                *wj += sign_select(t, self.bit(row, j));
            }
        } else {
            for (wj, &fj) in w.iter_mut().zip(self.dense(row)) {
                *wj += t * fj;
            }
        }
    }

    fn grad_sub(&self, row: usize, t: f64, sigma: f64, g: &mut [f64]) {
        if self.signs.is_some() {
            let c = t * sigma;
            for (j, gj) in g.iter_mut().enumerate() {
                *gj -= sign_select(c, self.bit(row, j));
            }
        } else {
            for (gj, &fj) in g.iter_mut().zip(self.dense(row)) {
                *gj -= t * fj * sigma;
            }
        }
    }

    fn error_count(&self, w: &[f64]) -> usize {
        (0..self.examples())
            .filter(|&row| self.dot(row, w) * self.labels[row] <= 0.0)
            .count()
    }
}

/// `PerceptronOutcome` with the model reduced to its weights.
#[derive(Debug, PartialEq)]
struct PerceptronRun {
    weights: Vec<u64>,
    mistakes: usize,
    epochs_run: usize,
    converged: bool,
    training_accuracy: u64,
}

/// `Perceptron::train_with`: one-row scores in the update pass and the
/// pocket scan.
fn perceptron(rows: &Rows, max_epochs: usize) -> PerceptronRun {
    let mut w = vec![0.0f64; rows.dim];
    let mut pocket = w.clone();
    let mut pocket_err = usize::MAX;
    let mut mistakes = 0usize;
    let mut epochs_run = 0usize;
    let mut converged = false;
    for _ in 0..max_epochs {
        epochs_run += 1;
        let mut epoch_mistakes = 0usize;
        for row in 0..rows.examples() {
            let t = rows.labels[row];
            if rows.dot(row, &w) * t <= 0.0 {
                rows.add_signed(row, t, &mut w);
                epoch_mistakes += 1;
            }
        }
        mistakes += epoch_mistakes;
        let err = rows.error_count(&w);
        if err < pocket_err {
            pocket_err = err;
            pocket.copy_from_slice(&w);
        }
        if epoch_mistakes == 0 {
            converged = true;
            break;
        }
    }
    PerceptronRun {
        weights: bits(&pocket),
        mistakes,
        epochs_run,
        converged,
        training_accuracy: (1.0 - pocket_err as f64 / rows.examples() as f64).to_bits(),
    }
}

/// `LogisticOutcome` with the model reduced to its weights.
#[derive(Debug, PartialEq)]
struct LogisticRun {
    weights: Vec<u64>,
    final_loss: u64,
    training_accuracy: u64,
}

/// `LogisticRegression::train_with`: one-row scores and gradient
/// updates in batch order, Adam's bias corrections per weight.
fn logistic<R: Rng + ?Sized>(rows: &Rows, config: LogisticConfig, rng: &mut R) -> LogisticRun {
    let d = rows.dim;
    let mut w = vec![0.0f64; d];
    let mut m1 = vec![0.0f64; d];
    let mut m2 = vec![0.0f64; d];
    let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8);
    let mut step = 0usize;
    let mut order: Vec<usize> = (0..rows.examples()).collect();
    for _ in 0..config.epochs {
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        for batch in order.chunks(config.batch_size) {
            step += 1;
            let mut grad = vec![0.0f64; d];
            for &idx in batch {
                let t = rows.labels[idx];
                let s = rows.dot(idx, &w);
                let sigma = 1.0 / (1.0 + (t * s).exp());
                rows.grad_sub(idx, t, sigma, &mut grad);
            }
            let scale = 1.0 / batch.len() as f64;
            for ((wi, g), (mi, vi)) in w
                .iter_mut()
                .zip(&grad)
                .zip(m1.iter_mut().zip(m2.iter_mut()))
            {
                let g = g * scale + config.l2 * *wi;
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let mhat = *mi / (1.0 - b1.powi(step as i32));
                let vhat = *vi / (1.0 - b2.powi(step as i32));
                *wi -= config.learning_rate * mhat / (vhat.sqrt() + eps);
            }
        }
    }
    let mut loss = 0.0;
    let mut correct = 0usize;
    for row in 0..rows.examples() {
        let t = rows.labels[row];
        let s = rows.dot(row, &w);
        let z = -t * s;
        loss += if z > 30.0 {
            z
        } else if z < -30.0 {
            0.0
        } else {
            (1.0 + z.exp()).ln()
        };
        if s * t > 0.0 {
            correct += 1;
        }
    }
    LogisticRun {
        weights: bits(&w),
        final_loss: (loss / rows.examples() as f64).to_bits(),
        training_accuracy: (correct as f64 / rows.examples() as f64).to_bits(),
    }
}

/// Input lengths on both sides of the 64-bit word boundary.
const LENGTHS: [usize; 6] = [1, 7, 63, 64, 65, 130];
/// Sample sizes on both sides of the 8-row score tile.
const SIZES: [usize; 7] = [1, 7, 8, 9, 33, 65, 1000];
/// Minibatch sizes on both sides of the 8-row score tile.
const BATCHES: [usize; 5] = [1, 5, 8, 32, 33];
/// Label flip rates: separable for ±1 and low-degree features, and
/// labels that carry no signal, so every epoch keeps making mistakes.
const FLIPS: [f64; 2] = [0.0, 0.5];

/// Labels of a random LTF over the raw bits, each flipped with
/// probability `flip`.
fn sample(n: usize, m: usize, flip: f64, seed: u64) -> LabeledSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let ltf = LinearThreshold::random(n, &mut rng);
    let pairs = (0..m)
        .map(|_| {
            let x = BitVec::random(n, &mut rng);
            let y = ltf.eval(&x) ^ rng.gen_bool(flip);
            (x, y)
        })
        .collect();
    LabeledSet::from_pairs(n, pairs)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A map that is not sign-valued (halved bits and a `0.25` constant),
/// so its matrix stays dense.
#[derive(Clone)]
struct Halved {
    n: usize,
}

impl FeatureMap for Halved {
    fn num_inputs(&self) -> usize {
        self.n
    }
    fn dimension(&self) -> usize {
        self.n + 1
    }
    fn features(&self, x: &BitVec) -> Vec<f64> {
        let mut v: Vec<f64> = (0..self.n).map(|i| 0.5 * x.pm(i)).collect();
        v.push(0.25);
        v
    }
}

/// Trains both learners over `map` on every sample size and flip rate
/// (the logistic learner at every batch size) and compares each
/// outcome, and the caller's next RNG draw, with the reference loops.
fn assert_trainers_match<M: FeatureMap + Clone>(map: M, sign_valued: bool) {
    let n = map.num_inputs();
    for m in SIZES {
        for flip in FLIPS {
            let data = sample(n, m, flip, (n * 1000 + m) as u64);
            let rows = Rows::build(&map, &data, sign_valued);
            let label = format!("n={n} d={} m={m} flip={flip}", map.dimension());

            let out = Perceptron::new(12).train_with(map.clone(), &data);
            let fast = PerceptronRun {
                weights: bits(out.model.weights()),
                mistakes: out.mistakes,
                epochs_run: out.epochs_run,
                converged: out.converged,
                training_accuracy: out.training_accuracy.to_bits(),
            };
            assert_eq!(fast, perceptron(&rows, 12), "perceptron {label}");

            for batch_size in BATCHES {
                let config = LogisticConfig {
                    epochs: 3,
                    batch_size,
                    ..LogisticConfig::default()
                };
                let mut rng = StdRng::seed_from_u64(m as u64);
                let mut reference_rng = rng.clone();
                let out = LogisticRegression::new(config).train_with(map.clone(), &data, &mut rng);
                let fast = LogisticRun {
                    weights: bits(out.model.weights()),
                    final_loss: out.final_loss.to_bits(),
                    training_accuracy: out.training_accuracy.to_bits(),
                };
                let expected = logistic(&rows, config, &mut reference_rng);
                assert_eq!(fast, expected, "logistic {label} batch={batch_size}");
                assert_eq!(
                    rng.gen::<u64>(),
                    reference_rng.gen::<u64>(),
                    "rng stream {label} batch={batch_size}"
                );
            }
        }
    }
}

/// The three built-in maps and the dense one over `n`-bit inputs, each
/// with whether the reference packs it.
fn maps(n: usize) -> Vec<(Box<dyn FeatureMap>, bool)> {
    let mut maps: Vec<(Box<dyn FeatureMap>, bool)> = vec![
        (Box::new(PlusMinusFeatures::new(n)), true),
        (Box::new(ArbiterPhiFeatures::new(n)), true),
        (Box::new(Halved { n }), false),
    ];
    if n <= 63 {
        maps.push((Box::new(LowDegreeFeatures::new(n, 2)), true));
    }
    maps
}

#[test]
fn kernels_match_one_row_loops() {
    let mut rng = StdRng::seed_from_u64(12);
    for n in LENGTHS {
        for (map, sign_valued) in maps(n) {
            let d = map.dimension();
            for m in SIZES {
                let data = sample(n, m, 0.5, (n + m) as u64);
                let fm = FeatureMatrix::build(map.as_ref(), &data);
                let rows = Rows::build(map.as_ref(), &data, sign_valued);
                assert_eq!(fm.is_packed(), sign_valued);
                let label = format!("n={n} d={d} m={m}");
                // Signed zeros: an all-`-0.0` sum stays `-0.0` only from
                // a `-0.0` start, so these pin the lanes' `0.0` start.
                let random: Vec<f64> = (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect();
                for w in [random, vec![0.0; d], vec![-0.0; d]] {
                    let expected: Vec<u64> = (0..m).map(|r| rows.dot(r, &w).to_bits()).collect();
                    let mut seen = Vec::new();
                    fm.for_each_score(&w, |row, s| seen.push((row, s.to_bits())));
                    let expected_rows: Vec<(usize, u64)> =
                        expected.iter().copied().enumerate().collect();
                    assert_eq!(seen, expected_rows, "for_each_score {label}");
                    let gather: Vec<usize> = (0..m + m / 2).map(|_| rng.gen_range(0..m)).collect();
                    let mut out = vec![0.0; gather.len()];
                    fm.scores(&gather, &w, &mut out);
                    for (&r, s) in gather.iter().zip(&out) {
                        assert_eq!(s.to_bits(), expected[r], "scores {label} row {r}");
                        assert_eq!(fm.dot(r, &w).to_bits(), expected[r], "dot {label} row {r}");
                    }
                    assert_eq!(fm.error_count(&w), rows.error_count(&w), "{label}");
                }

                let t = to_pm(rng.gen());
                let r = rng.gen_range(0..m);
                let mut w_fast: Vec<f64> = (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect();
                let mut w_ref = w_fast.clone();
                fm.add_signed(r, t, &mut w_fast);
                rows.add_signed(r, t, &mut w_ref);
                assert_eq!(bits(&w_fast), bits(&w_ref), "add_signed {label}");

                for batch_size in BATCHES {
                    let batch: Vec<usize> = (0..batch_size).map(|_| rng.gen_range(0..m)).collect();
                    let sigmas: Vec<f64> = batch.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
                    let mut g_fast: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mut g_ref = g_fast.clone();
                    fm.grad_sub_batch(&batch, &sigmas, &mut g_fast);
                    for (&r, &sigma) in batch.iter().zip(&sigmas) {
                        rows.grad_sub(r, rows.labels[r], sigma, &mut g_ref);
                    }
                    assert_eq!(
                        bits(&g_fast),
                        bits(&g_ref),
                        "grad {label} batch={batch_size}"
                    );
                }
            }
        }
    }
}

#[test]
fn plus_minus_trainers_are_bit_identical() {
    for n in LENGTHS {
        assert_trainers_match(PlusMinusFeatures::new(n), true);
    }
}

#[test]
fn arbiter_phi_trainers_are_bit_identical() {
    for n in LENGTHS {
        assert_trainers_match(ArbiterPhiFeatures::new(n), true);
    }
}

#[test]
fn low_degree_trainers_are_bit_identical() {
    // The masks address at most 63 input bits; degree 2 takes the
    // dimension to 2, 29 and 2017.
    for n in LENGTHS.into_iter().filter(|&n| n <= 63) {
        assert_trainers_match(LowDegreeFeatures::new(n, 2), true);
    }
}

#[test]
fn dense_trainers_are_bit_identical() {
    for n in LENGTHS {
        assert_trainers_match(Halved { n }, false);
    }
}

#[test]
fn sign_words_match_per_feature_packing() {
    let mut rng = StdRng::seed_from_u64(11);
    for n in LENGTHS {
        for (map, sign_valued) in maps(n) {
            let d = map.dimension();
            for _ in 0..50 {
                let x = BitVec::random(n, &mut rng);
                // Stale contents must not leak into the packed row.
                let mut words = vec![u64::MAX; d.div_ceil(64)];
                if !sign_valued {
                    // A dense map declines and leaves the words alone.
                    assert!(!map.sign_words_into(&x, &mut words));
                    assert!(words.iter().all(|&w| w == u64::MAX));
                    continue;
                }
                assert!(map.sign_words_into(&x, &mut words), "n={n} d={d}");
                assert_eq!(words, pack_signs(map.as_ref(), &x), "n={n} d={d}");
                if d % 64 != 0 {
                    let last = words.last().expect("d > 0");
                    assert_eq!(last >> (d % 64), 0, "tail bits n={n} d={d}");
                }
            }
        }
    }
}
