//! The one-row `f64` loops that the packed and integer kernels
//! replaced, kept as the bit-identity reference for them.
//!
//! [`Rows`] is the earlier `FeatureMatrix`: sign bits packed one
//! feature at a time from [`FeatureMap::features_into`], and a one-row
//! `dot`, `add_signed` and `grad_sub` that read one bit per term.
//! [`perceptron`] and [`logistic`] are the earlier training loops over
//! it, one `f64` row per score. The tests compare the trainers with them
//! by `to_bits()` for the three built-in maps, over dimensions on both
//! sides of the 8-feature tile and the 64-bit word, sample sizes on
//! both sides of the 8-row score tile, batch sizes on both sides of it,
//! and separable and 50%-flipped labels. The Perceptron, which trains on
//! `i32` weights, is also held to the reference on rows that score
//! exactly 0, and on runs whose weights pass the `i8` range and whose
//! scores pass the `i16` range.

use crate::feature_matrix::FeatureMatrix;
use crate::features::{ArbiterPhiFeatures, FeatureMap, LowDegreeFeatures, PlusMinusFeatures};
use crate::logistic::{LogisticConfig, LogisticRegression};
use crate::perceptron::{LinearModel, Perceptron};
use mlam_boolean::bits::sign_select;
use mlam_boolean::{to_pm, BitVec, BooleanFunction, LabeledSet, LinearThreshold};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `FeatureMatrix::build`'s sign packing: bit `j` is set ⇔ the `j`-th
/// value of `features_into` is `−1.0`.
fn pack_signs(map: &dyn FeatureMap, x: &BitVec) -> Vec<u64> {
    let mut buf = Vec::new();
    map.features_into(x, &mut buf);
    let mut words = vec![0u64; buf.len().div_ceil(64)];
    for (j, &v) in buf.iter().enumerate() {
        assert!(v == 1.0 || v == -1.0, "feature map produced {v}");
        words[j / 64] |= (v.to_bits() >> 63) << (j % 64);
    }
    words
}

/// The earlier `FeatureMatrix`: packed sign rows.
struct Rows {
    dim: usize,
    labels: Vec<f64>,
    words_per_row: usize,
    words: Vec<u64>,
}

impl Rows {
    fn build(map: &dyn FeatureMap, data: &LabeledSet) -> Rows {
        let dim = map.dimension();
        Rows {
            dim,
            labels: data.pairs().iter().map(|(_, y)| to_pm(*y)).collect(),
            words_per_row: dim.div_ceil(64),
            words: data
                .pairs()
                .iter()
                .flat_map(|(x, _)| pack_signs(map, x))
                .collect(),
        }
    }

    fn examples(&self) -> usize {
        self.labels.len()
    }

    /// The sign bit of feature `j` of row `row`.
    fn bit(&self, row: usize, j: usize) -> u64 {
        (self.words[row * self.words_per_row + j / 64] >> (j % 64)) & 1
    }

    fn dot(&self, row: usize, w: &[f64]) -> f64 {
        let mut s = 0.0f64;
        for (j, &wj) in w.iter().enumerate() {
            s += sign_select(wj, self.bit(row, j));
        }
        s
    }

    fn add_signed(&self, row: usize, t: f64, w: &mut [f64]) {
        for (j, wj) in w.iter_mut().enumerate() {
            *wj += sign_select(t, self.bit(row, j));
        }
    }

    fn grad_sub(&self, row: usize, t: f64, sigma: f64, g: &mut [f64]) {
        let c = t * sigma;
        for (j, gj) in g.iter_mut().enumerate() {
            *gj -= sign_select(c, self.bit(row, j));
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

/// How far a reference run went into the integer trainer's edge cases.
#[derive(Clone, Copy, Debug, Default)]
struct Reach {
    /// Update-pass rows that scored exactly 0 under nonzero weights.
    zero_scores: usize,
    /// The largest `|w_j|` after any update.
    max_weight: f64,
    /// The largest `|score|` of the update pass.
    max_score: f64,
}

impl Reach {
    fn merge(self, other: Reach) -> Reach {
        Reach {
            zero_scores: self.zero_scores + other.zero_scores,
            max_weight: self.max_weight.max(other.max_weight),
            max_score: self.max_score.max(other.max_score),
        }
    }
}

/// `Perceptron::train_with` on `f64` weights: one-row scores in the
/// update pass and the pocket scan.
fn perceptron(rows: &Rows, max_epochs: usize) -> (PerceptronRun, Reach) {
    let mut w = vec![0.0f64; rows.dim];
    let mut pocket = w.clone();
    let mut pocket_err = usize::MAX;
    let mut mistakes = 0usize;
    let mut epochs_run = 0usize;
    let mut converged = false;
    let mut reach = Reach::default();
    for _ in 0..max_epochs {
        epochs_run += 1;
        let mut epoch_mistakes = 0usize;
        for row in 0..rows.examples() {
            let t = rows.labels[row];
            let s = rows.dot(row, &w);
            reach.max_score = reach.max_score.max(s.abs());
            if s == 0.0 && w.iter().any(|&wj| wj != 0.0) {
                reach.zero_scores += 1;
            }
            if s * t <= 0.0 {
                rows.add_signed(row, t, &mut w);
                epoch_mistakes += 1;
                let largest = w.iter().fold(0.0f64, |m, wj| m.max(wj.abs()));
                reach.max_weight = reach.max_weight.max(largest);
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
    let run = PerceptronRun {
        weights: bits(&pocket),
        mistakes,
        epochs_run,
        converged,
        training_accuracy: (1.0 - pocket_err as f64 / rows.examples() as f64).to_bits(),
    };
    (run, reach)
}

/// Trains the Perceptron over `map` on `data` and compares the outcome
/// with the reference loop; returns how far the reference went.
fn assert_perceptron_matches<M: FeatureMap + Clone>(
    map: M,
    data: &LabeledSet,
    epochs: usize,
    label: &str,
) -> Reach {
    let out = Perceptron::new(epochs).train_with(map.clone(), data);
    let fast = PerceptronRun {
        weights: bits(out.model.weights()),
        mistakes: out.mistakes,
        epochs_run: out.epochs_run,
        converged: out.converged,
        training_accuracy: out.training_accuracy.to_bits(),
    };
    let (expected, reach) = perceptron(&Rows::build(&map, data), epochs);
    assert_eq!(fast, expected, "perceptron {label}");
    reach
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

/// Trains logistic regression over `map` on `data`, whose reference rows
/// are `rows`, from an RNG seeded with `seed`, and compares the outcome,
/// and the caller's next RNG draw, with the reference loop.
fn assert_logistic_matches<M: FeatureMap + Clone>(
    map: M,
    data: &LabeledSet,
    rows: &Rows,
    config: LogisticConfig,
    seed: u64,
    label: &str,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reference_rng = rng.clone();
    let out = LogisticRegression::new(config).train_with(map, data, &mut rng);
    let fast = LogisticRun {
        weights: bits(out.model.weights()),
        final_loss: out.final_loss.to_bits(),
        training_accuracy: out.training_accuracy.to_bits(),
    };
    let expected = logistic(rows, config, &mut reference_rng);
    assert_eq!(fast, expected, "logistic {label}");
    assert_eq!(
        rng.gen::<u64>(),
        reference_rng.gen::<u64>(),
        "rng stream {label}"
    );
}

/// Input lengths whose ±1 and Φ maps have `d = n + 1` features, on
/// both sides of the 8-feature tile and the 64-bit word:
/// `d = 1, 2, 7, 8, 9, 16, 64, 65, 66, 130`.
const LENGTHS: [usize; 10] = [0, 1, 6, 7, 8, 15, 63, 64, 65, 129];
/// Sample sizes on both sides of the 8-row score tile.
const SIZES: [usize; 7] = [1, 7, 8, 9, 33, 65, 1000];
/// Minibatch sizes on both sides of the 8-row score tile.
const BATCHES: [usize; 5] = [1, 5, 8, 32, 33];
/// Label flip rates: separable for ±1 and low-degree features, and
/// labels that carry no signal, so every epoch keeps making mistakes.
const FLIPS: [f64; 2] = [0.0, 0.5];

/// Labels of a random LTF over the raw bits (logic 0 when `n = 0`),
/// each flipped with probability `flip`.
fn sample(n: usize, m: usize, flip: f64, seed: u64) -> LabeledSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let ltf = (n > 0).then(|| LinearThreshold::random(n, &mut rng));
    let pairs = (0..m)
        .map(|_| {
            let x = BitVec::random(n, &mut rng);
            let y = ltf.as_ref().is_some_and(|f| f.eval(&x)) ^ rng.gen_bool(flip);
            (x, y)
        })
        .collect();
    LabeledSet::from_pairs(n, pairs)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Trains both learners over `map` on every sample size and flip rate
/// (the logistic learner at every batch size) and compares each
/// outcome, and the caller's next RNG draw, with the reference loops.
/// Returns how far the reference Perceptron runs went.
fn assert_trainers_match<M: FeatureMap + Clone>(map: M) -> Reach {
    let n = map.num_inputs();
    let mut reach = Reach::default();
    for m in SIZES {
        for flip in FLIPS {
            let data = sample(n, m, flip, (n * 1000 + m) as u64);
            let rows = Rows::build(&map, &data);
            let label = format!("n={n} d={} m={m} flip={flip}", map.dimension());
            reach = reach.merge(assert_perceptron_matches(map.clone(), &data, 12, &label));

            for batch_size in BATCHES {
                let config = LogisticConfig {
                    epochs: 3,
                    batch_size,
                    ..LogisticConfig::default()
                };
                let label = format!("{label} batch={batch_size}");
                assert_logistic_matches(map.clone(), &data, &rows, config, m as u64, &label);
            }
        }
    }
    reach
}

/// The three built-in maps over `n`-bit inputs.
fn maps(n: usize) -> Vec<Box<dyn FeatureMap>> {
    let mut maps: Vec<Box<dyn FeatureMap>> = vec![
        Box::new(PlusMinusFeatures::new(n)),
        Box::new(ArbiterPhiFeatures::new(n)),
    ];
    if n <= 63 {
        maps.push(Box::new(LowDegreeFeatures::new(n, 2)));
    }
    maps
}

#[test]
fn kernels_match_one_row_loops() {
    let mut rng = StdRng::seed_from_u64(12);
    for n in LENGTHS {
        for map in maps(n) {
            let d = map.dimension();
            for m in SIZES {
                let data = sample(n, m, 0.5, (n + m) as u64);
                let fm = FeatureMatrix::build(map.as_ref(), &data);
                let rows = Rows::build(map.as_ref(), &data);
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
                }

                // Integer weights with zero padding, as the Perceptron
                // keeps them: the margin is the `f64` dot of the same
                // values, the table scan counts the rows whose margin
                // has the wrong sign or is 0, and an update leaves the
                // padding at zero. Weights of ±1 and 0 make margins of
                // exactly 0.
                for range in [-1..=1, -1000..=1000] {
                    let mut w_int = vec![0i32; fm.padded_dimension()];
                    for wj in &mut w_int[..d] {
                        *wj = rng.gen_range(range.clone());
                    }
                    let mut w_ref: Vec<f64> = w_int[..d].iter().map(|&wj| f64::from(wj)).collect();
                    for r in 0..m {
                        let margin = f64::from(fm.margin(r, &w_int));
                        assert_eq!(margin.to_bits(), rows.dot(r, &w_ref).to_bits(), "{label}");
                    }
                    let by_margin = (0..m)
                        .filter(|&r| fm.margin(r, &w_int) * fm.label(r) as i32 <= 0)
                        .count();
                    assert_eq!(fm.errors(&w_int), by_margin, "errors {label} {range:?}");
                    assert_eq!(by_margin, rows.error_count(&w_ref), "{label} {range:?}");
                    let r = rng.gen_range(0..m);
                    let t = to_pm(rng.gen());
                    fm.add_signed(r, t as i32, &mut w_int);
                    rows.add_signed(r, t, &mut w_ref);
                    let w_fast: Vec<f64> = w_int[..d].iter().map(|&wj| f64::from(wj)).collect();
                    assert_eq!(bits(&w_fast), bits(&w_ref), "add_signed {label}");
                    assert!(w_int[d..].iter().all(|&wj| wj == 0), "padding {label}");
                }

                for batch_size in BATCHES {
                    let batch: Vec<usize> = (0..batch_size).map(|_| rng.gen_range(0..m)).collect();
                    let sigmas: Vec<f64> = batch.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
                    let cs: Vec<f64> = batch
                        .iter()
                        .zip(&sigmas)
                        .map(|(&r, sigma)| rows.labels[r] * sigma)
                        .collect();
                    let mut g_fast: Vec<f64> = (0..d).map(|_| rng.gen_range(-1.0..1.0)).collect();
                    let mut g_ref = g_fast.clone();
                    // Stale words must not reach the kernel.
                    let mut gathered = vec![u64::MAX; 3];
                    fm.gather(&batch, &mut gathered);
                    fm.grad_sub_gathered(&gathered, &cs, &mut g_fast);
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
    let reach = LENGTHS
        .into_iter()
        .map(|n| assert_trainers_match(PlusMinusFeatures::new(n)))
        .fold(Reach::default(), Reach::merge);
    assert!(reach.zero_scores > 0, "no row scored exactly 0: {reach:?}");
}

#[test]
fn arbiter_phi_trainers_are_bit_identical() {
    let reach = LENGTHS
        .into_iter()
        .map(|n| assert_trainers_match(ArbiterPhiFeatures::new(n)))
        .fold(Reach::default(), Reach::merge);
    assert!(reach.zero_scores > 0, "no row scored exactly 0: {reach:?}");
}

#[test]
fn low_degree_trainers_are_bit_identical() {
    // The masks address at most 63 input bits; degree 2 takes the
    // dimension to 1, 2, 22, 29, 37, 121 and 2017.
    let reach = LENGTHS
        .into_iter()
        .filter(|&n| n <= 63)
        .map(|n| assert_trainers_match(LowDegreeFeatures::new(n, 2)))
        .fold(Reach::default(), Reach::merge);
    assert!(reach.zero_scores > 0, "no row scored exactly 0: {reach:?}");
}

#[test]
fn perceptron_is_bit_identical_past_narrow_integers() {
    // Labels that carry no signal keep the Perceptron's weights small:
    // it cycles. Separable labels with thin margins make it climb, so a
    // long separable run takes some weight past the `i8` range.
    let data = sample(64, 4000, 0.0, 64);
    let reach = assert_perceptron_matches(PlusMinusFeatures::new(64), &data, 40, "long run");
    assert!(reach.max_weight > 128.0, "weights stayed small: {reach:?}");

    // Scores past the `i16` range: all 41,728 degree-≤3 parities of the
    // all-zeros input are +1, and those of the all-ones input have the
    // sign of (−1)^|S|, so each score is 0, ±41,728, ±37,820 or
    // ±3,908; the labels are fair coins.
    let map = LowDegreeFeatures::new(63, 3);
    let mut rng = StdRng::seed_from_u64(63);
    let pairs = (0..48)
        .map(|_| {
            let x = if rng.gen() {
                BitVec::ones(63)
            } else {
                BitVec::zeros(63)
            };
            (x, rng.gen())
        })
        .collect();
    let data = LabeledSet::from_pairs(63, pairs);
    let reach = assert_perceptron_matches(map, &data, 6, "wide rows");
    assert!(reach.max_score > 32_768.0, "scores stayed small: {reach:?}");
}

#[test]
fn logistic_is_bit_identical_past_both_exact_ones() {
    // 1,000 rows in batches of 1 for 40 epochs are 40,000 Adam steps:
    // past step 356, from which `1 − 0.9^step` is exactly 1.0, and past
    // step 37,412, from which `1 − 0.999^step` is. The reference divides
    // by both corrections at every step.
    let map = PlusMinusFeatures::new(7);
    let data = sample(7, 1000, 0.0, 40);
    let config = LogisticConfig {
        epochs: 40,
        batch_size: 1,
        ..LogisticConfig::default()
    };
    let rows = Rows::build(&map, &data);
    assert_logistic_matches(map, &data, &rows, config, 40, "d=8 40,000 steps");
}

/// `LinearModel::count_agreements`, directly and through `accuracy_of`,
/// against the per-example `eval` count over `map`, for sample sizes on
/// both sides of the 8-row score tile and of `accuracy_of`'s chunk
/// seams (`DEFAULT_CHUNK` = 1,024 examples), and random, all `+0.0`,
/// all `−0.0` and mixed signed-zero weights.
fn assert_agreements_match<M: FeatureMap + Clone + Sync>(map: M, rng: &mut StdRng) {
    let n = map.num_inputs();
    let d = map.dimension();
    for m in [1, 7, 8, 9, 65, 1000, 1023, 1024, 1025, 2049] {
        let data = sample(n, m, 0.5, (n * 1000 + m) as u64);
        let random: Vec<f64> = (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mixed: Vec<f64> = (0..d).map(|_| if rng.gen() { 0.0 } else { -0.0 }).collect();
        for w in [random, vec![0.0; d], vec![-0.0; d], mixed] {
            let model = LinearModel::new(map.clone(), w);
            let by_eval = data
                .pairs()
                .iter()
                .filter(|(x, y)| model.eval(x) == *y)
                .count();
            let label = format!("n={n} d={d} m={m}");
            assert_eq!(model.count_agreements(data.pairs()), by_eval, "{label}");
            let accuracy = by_eval as f64 / m as f64;
            assert_eq!(data.accuracy_of(&model), accuracy, "accuracy_of {label}");
        }
    }
}

#[test]
fn linear_model_counts_agreements_as_eval_does() {
    let mut rng = StdRng::seed_from_u64(13);
    for n in LENGTHS {
        assert_agreements_match(PlusMinusFeatures::new(n), &mut rng);
        assert_agreements_match(ArbiterPhiFeatures::new(n), &mut rng);
        if n <= 63 {
            assert_agreements_match(LowDegreeFeatures::new(n, 2), &mut rng);
        }
    }
}

#[test]
fn sign_words_match_per_feature_packing() {
    let mut rng = StdRng::seed_from_u64(11);
    for n in LENGTHS {
        for map in maps(n) {
            let d = map.dimension();
            for _ in 0..50 {
                let x = BitVec::random(n, &mut rng);
                // Stale contents must not leak into the packed row.
                let mut words = vec![u64::MAX; d.div_ceil(64)];
                map.sign_words_into(&x, &mut words);
                assert_eq!(words, pack_signs(map.as_ref(), &x), "n={n} d={d}");
                if d % 64 != 0 {
                    let last = words.last().expect("d > 0");
                    assert_eq!(last >> (d % 64), 0, "tail bits n={n} d={d}");
                }
            }
        }
    }
}
