//! CMA-ES: covariance matrix adaptation evolution strategy.
//!
//! The classic *black-box* modeling attack on XOR Arbiter PUFs (Becker's
//! reliability attack and its accuracy-only variant) optimizes the delay
//! parameters of all `k` chains jointly with CMA-ES, using nothing but
//! the training error as fitness — no gradients, no representation
//! commitment beyond the delay model itself. This module provides a
//! self-contained CMA-ES ([`CmaEs`]) following Hansen's reference
//! formulation (rank-μ update, cumulation paths, step-size control) and
//! the PUF-specific wrapper [`fit_xor_delay_model`].

use crate::dataset::LabeledSet;
use crate::feature_matrix::FeatureMatrix;
use crate::features::ArbiterPhiFeatures;
use mlam_boolean::bits::sign_select;
use mlam_boolean::{BitVec, BooleanFunction};
use rand::Rng;

/// Options for a CMA-ES run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CmaEsOptions {
    /// Population size λ (0 = use the default `4 + ⌊3·ln d⌋`).
    pub population: usize,
    /// Initial step size σ₀.
    pub sigma0: f64,
    /// Maximum number of generations.
    pub max_generations: usize,
    /// Stop when the best fitness reaches this value.
    pub target_fitness: f64,
    /// Random restarts (best result kept).
    pub restarts: usize,
}

impl Default for CmaEsOptions {
    fn default() -> Self {
        CmaEsOptions {
            population: 0,
            sigma0: 0.5,
            max_generations: 300,
            target_fitness: 0.0,
            restarts: 1,
        }
    }
}

/// Result of a CMA-ES run.
#[derive(Clone, Debug)]
pub struct CmaEsResult {
    /// Best parameter vector found.
    pub best: Vec<f64>,
    /// Its fitness.
    pub best_fitness: f64,
    /// Generations consumed (across restarts).
    pub generations: usize,
    /// Fitness evaluations consumed.
    pub evaluations: usize,
}

/// A self-contained CMA-ES minimizer.
///
/// # Example
///
/// ```
/// use mlam_learn::cma_es::{CmaEs, CmaEsOptions};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
/// let opts = CmaEsOptions { max_generations: 200, ..Default::default() };
/// let result = CmaEs::new(opts).minimize(&sphere, &vec![1.0; 8], &mut rng);
/// assert!(result.best_fitness < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct CmaEs {
    options: CmaEsOptions,
}

impl CmaEs {
    /// Creates a minimizer with the given options.
    pub fn new(options: CmaEsOptions) -> Self {
        assert!(options.sigma0 > 0.0, "sigma0 must be positive");
        assert!(options.max_generations > 0);
        assert!(options.restarts > 0);
        CmaEs { options }
    }

    /// Minimizes `f` starting from `x0`, returning the best point found.
    pub fn minimize<F, R>(&self, f: &F, x0: &[f64], rng: &mut R) -> CmaEsResult
    where
        F: Fn(&[f64]) -> f64,
        R: Rng + ?Sized,
    {
        assert!(!x0.is_empty(), "dimension must be positive");
        let mut best: Vec<f64> = x0.to_vec();
        let mut best_fitness = f(x0);
        let mut generations = 0usize;
        let mut evaluations = 1usize;

        for restart in 0..self.options.restarts {
            let start: Vec<f64> = if restart == 0 {
                x0.to_vec()
            } else {
                x0.iter().map(|v| v + gaussian(rng)).collect()
            };
            let (b, bf, g, e) = self.run_once(f, &start, rng, generations);
            generations += g;
            evaluations += e;
            if bf < best_fitness {
                best_fitness = bf;
                best = b;
            }
            if best_fitness <= self.options.target_fitness {
                break;
            }
        }
        mlam_telemetry::counter!("learn.cma_es.generations", generations);
        mlam_telemetry::counter!("learn.cma_es.evaluations", evaluations);
        CmaEsResult {
            best,
            best_fitness,
            generations,
            evaluations,
        }
    }

    /// One restart of the strategy. `gen_offset` is the generation
    /// count consumed by earlier restarts, so learning-curve iteration
    /// numbers stay monotone across the whole [`CmaEs::minimize`] call.
    fn run_once<F, R>(
        &self,
        f: &F,
        x0: &[f64],
        rng: &mut R,
        gen_offset: usize,
    ) -> (Vec<f64>, f64, usize, usize)
    where
        F: Fn(&[f64]) -> f64,
        R: Rng + ?Sized,
    {
        let d = x0.len();
        let lambda = if self.options.population > 0 {
            self.options.population
        } else {
            4 + (3.0 * (d as f64).ln()).floor() as usize
        };
        let mu = lambda / 2;
        // Log weights.
        let mut weights: Vec<f64> = (0..mu)
            .map(|i| ((mu as f64 + 0.5).ln() - ((i + 1) as f64).ln()).max(0.0))
            .collect();
        let wsum: f64 = weights.iter().sum();
        for w in &mut weights {
            *w /= wsum;
        }
        let mueff = 1.0 / weights.iter().map(|w| w * w).sum::<f64>();

        let dn = d as f64;
        let cc = (4.0 + mueff / dn) / (dn + 4.0 + 2.0 * mueff / dn);
        let cs = (mueff + 2.0) / (dn + mueff + 5.0);
        let c1 = 2.0 / ((dn + 1.3).powi(2) + mueff);
        let cmu = (1.0 - c1).min(2.0 * (mueff - 2.0 + 1.0 / mueff) / ((dn + 2.0).powi(2) + mueff));
        let damps = 1.0 + 2.0 * (0.0f64).max(((mueff - 1.0) / (dn + 1.0)).sqrt() - 1.0) + cs;
        let chi_n = dn.sqrt() * (1.0 - 1.0 / (4.0 * dn) + 1.0 / (21.0 * dn * dn));

        let mut mean = x0.to_vec();
        let mut sigma = self.options.sigma0;
        let mut cov = identity(d);
        let mut eig_vecs = identity(d);
        let mut eig_vals = vec![1.0f64; d];
        let mut inv_sqrt = identity(d);
        let mut pc = vec![0.0f64; d];
        let mut ps = vec![0.0f64; d];
        let mut eigen_stale = 0usize;
        let eigen_interval = (1.0 / ((c1 + cmu) * dn * 10.0)).ceil().max(1.0) as usize;

        let mut best = mean.clone();
        let mut best_fitness = f(&mean);
        let mut evaluations = 1usize;
        let mut generations = 0usize;

        for gen in 0..self.options.max_generations {
            generations = gen + 1;
            // Sample λ candidates: x = m + σ·B·D·z.
            let mut pop: Vec<(Vec<f64>, Vec<f64>, f64)> = Vec::with_capacity(lambda);
            for _ in 0..lambda {
                let z: Vec<f64> = (0..d).map(|_| gaussian(rng)).collect();
                let mut y = vec![0.0f64; d];
                for (j, yj) in y.iter_mut().enumerate() {
                    let mut s = 0.0;
                    for (i, zi) in z.iter().enumerate() {
                        s += eig_vecs[j * d + i] * eig_vals[i].sqrt() * zi;
                    }
                    *yj = s;
                }
                let x: Vec<f64> = mean.iter().zip(&y).map(|(m, yi)| m + sigma * yi).collect();
                let fit = f(&x);
                evaluations += 1;
                pop.push((x, y, fit));
            }
            pop.sort_by(|a, b| a.2.partial_cmp(&b.2).expect("fitness must not be NaN"));
            if pop[0].2 < best_fitness {
                best_fitness = pop[0].2;
                best = pop[0].0.clone();
            }
            // Learning-curve checkpoint at log-spaced generations. The
            // fitness is an error fraction for the PUF objectives, so
            // 1 − best is the exact training accuracy there (for other
            // objectives it is recorded as a progress proxy).
            if mlam_telemetry::curves::recording()
                && mlam_telemetry::curves::should_checkpoint(
                    generations as u64,
                    self.options.max_generations as u64,
                )
            {
                mlam_telemetry::curves::checkpoint(
                    "cma_es",
                    (gen_offset + generations) as u64,
                    1.0 - best_fitness,
                    None,
                );
            }
            if best_fitness <= self.options.target_fitness {
                break;
            }

            // Recombination.
            let mut y_w = vec![0.0f64; d];
            for (w, (_, y, _)) in weights.iter().zip(pop.iter().take(mu)) {
                for (acc, yi) in y_w.iter_mut().zip(y) {
                    *acc += w * yi;
                }
            }
            for (m, yw) in mean.iter_mut().zip(&y_w) {
                *m += sigma * yw;
            }

            // Step-size path: ps = (1-cs) ps + sqrt(cs(2-cs)μeff)·C^{-1/2}·y_w.
            let mut c_inv_y = vec![0.0f64; d];
            for (j, cj) in c_inv_y.iter_mut().enumerate() {
                let mut s = 0.0;
                for i in 0..d {
                    s += inv_sqrt[j * d + i] * y_w[i];
                }
                *cj = s;
            }
            let cs_norm = (cs * (2.0 - cs) * mueff).sqrt();
            for (p, c) in ps.iter_mut().zip(&c_inv_y) {
                *p = (1.0 - cs) * *p + cs_norm * c;
            }
            let ps_norm = ps.iter().map(|v| v * v).sum::<f64>().sqrt();
            let hsig = ps_norm / (1.0 - (1.0 - cs).powi(2 * (gen as i32 + 1))).sqrt() / chi_n
                < 1.4 + 2.0 / (dn + 1.0);

            // Covariance path.
            let cc_norm = (cc * (2.0 - cc) * mueff).sqrt();
            for (p, yw) in pc.iter_mut().zip(&y_w) {
                *p = (1.0 - cc) * *p + if hsig { cc_norm * yw } else { 0.0 };
            }

            // Covariance update (rank-1 + rank-μ).
            let delta_hsig = if hsig { 0.0 } else { cc * (2.0 - cc) };
            for j in 0..d {
                for i in 0..d {
                    let mut v = (1.0 - c1 - cmu) * cov[j * d + i]
                        + c1 * (pc[j] * pc[i] + delta_hsig * cov[j * d + i]);
                    for (w, (_, y, _)) in weights.iter().zip(pop.iter().take(mu)) {
                        v += cmu * w * y[j] * y[i];
                    }
                    cov[j * d + i] = v;
                }
            }

            // Step-size update.
            sigma *= ((cs / damps) * (ps_norm / chi_n - 1.0)).exp();
            if !sigma.is_finite() || sigma > 1e6 {
                break;
            }

            // Lazy eigendecomposition.
            eigen_stale += 1;
            if eigen_stale >= eigen_interval {
                eigen_stale = 0;
                // Symmetrize and decompose.
                for j in 0..d {
                    for i in 0..j {
                        let avg = 0.5 * (cov[j * d + i] + cov[i * d + j]);
                        cov[j * d + i] = avg;
                        cov[i * d + j] = avg;
                    }
                }
                let (vals, vecs) = jacobi_eigen(&cov, d);
                eig_vals = vals.iter().map(|v| v.max(1e-14)).collect();
                eig_vecs = vecs;
                // inv_sqrt = B·D^{-1/2}·Bᵀ.
                for j in 0..d {
                    for i in 0..d {
                        let mut s = 0.0;
                        for k in 0..d {
                            s += eig_vecs[j * d + k] * eig_vecs[i * d + k] / eig_vals[k].sqrt();
                        }
                        inv_sqrt[j * d + i] = s;
                    }
                }
            }
        }
        (best, best_fitness, generations, evaluations)
    }
}

fn identity(d: usize) -> Vec<f64> {
    let mut m = vec![0.0; d * d];
    for i in 0..d {
        m[i * d + i] = 1.0;
    }
    m
}

/// Jacobi eigendecomposition of a symmetric matrix (row-major `d×d`).
/// Returns `(eigenvalues, eigenvectors)` with eigenvector `k` stored in
/// column `k` (`vecs[row*d + k]`).
pub fn jacobi_eigen(matrix: &[f64], d: usize) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(matrix.len(), d * d);
    let mut a = matrix.to_vec();
    let mut v = identity(d);
    for _sweep in 0..100 {
        // Off-diagonal norm.
        let mut off = 0.0;
        for j in 0..d {
            for i in 0..j {
                off += a[j * d + i] * a[j * d + i];
            }
        }
        if off < 1e-22 {
            break;
        }
        for p in 0..d {
            for q in (p + 1)..d {
                let apq = a[p * d + q];
                if apq.abs() < 1e-18 {
                    continue;
                }
                let app = a[p * d + p];
                let aqq = a[q * d + q];
                let theta = 0.5 * (aqq - app) / apq;
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                for k in 0..d {
                    let akp = a[k * d + p];
                    let akq = a[k * d + q];
                    a[k * d + p] = c * akp - s * akq;
                    a[k * d + q] = s * akp + c * akq;
                }
                for k in 0..d {
                    let apk = a[p * d + k];
                    let aqk = a[q * d + k];
                    a[p * d + k] = c * apk - s * aqk;
                    a[q * d + k] = s * apk + c * aqk;
                }
                for k in 0..d {
                    let vkp = v[k * d + p];
                    let vkq = v[k * d + q];
                    v[k * d + p] = c * vkp - s * vkq;
                    v[k * d + q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let vals: Vec<f64> = (0..d).map(|i| a[i * d + i]).collect();
    (vals, v)
}

/// A learned XOR-of-delay-models hypothesis: `k` weight vectors over the
/// arbiter Φ features; the response is the XOR (sign product) of the
/// chain outputs.
#[derive(Clone, Debug, PartialEq)]
pub struct XorDelayModel {
    n: usize,
    /// `k` chains × `n+1` weights, flattened.
    weights: Vec<f64>,
    k: usize,
}

impl XorDelayModel {
    /// Builds a model from flattened weights (`k·(n+1)` values).
    ///
    /// # Panics
    ///
    /// Panics if the length is not `k·(n+1)` or `k == 0`.
    pub fn new(n: usize, k: usize, weights: Vec<f64>) -> Self {
        assert!(k > 0);
        assert_eq!(weights.len(), k * (n + 1), "weight length mismatch");
        XorDelayModel { n, weights, k }
    }

    /// Number of chains.
    pub fn num_chains(&self) -> usize {
        self.k
    }

    /// The flattened weight matrix.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

impl BooleanFunction for XorDelayModel {
    fn num_inputs(&self) -> usize {
        self.n
    }

    fn eval(&self, x: &BitVec) -> bool {
        assert_eq!(x.len(), self.n, "input length mismatch");
        // Suffix-parity sign words stand in for the Φ vector: bit `i`
        // set ⇔ Φ_i = −1, so each `w·Φ` term is an exact sign flip and
        // no per-call `Vec<f64>` is materialized.
        let signs = x.suffix_parity_words();
        let mut prod = 1.0f64;
        for chain in self.weights.chunks(self.n + 1) {
            let mut s = 0.0f64;
            for (i, &w) in chain[..self.n].iter().enumerate() {
                s += sign_select(w, signs[i / 64] >> (i % 64));
            }
            s += chain[self.n];
            prod *= if s < 0.0 { -1.0 } else { 1.0 };
        }
        prod < 0.0
    }
}

/// Fits a `k`-chain XOR delay model to labeled CRPs with CMA-ES, using
/// the training error as fitness. This is the representation-faithful
/// black-box attack: it optimizes in the PUF's own parameter space
/// without gradients.
///
/// # Panics
///
/// Panics if `data` is empty or `k == 0`.
pub fn fit_xor_delay_model<R: Rng + ?Sized>(
    data: &LabeledSet,
    k: usize,
    options: CmaEsOptions,
    rng: &mut R,
) -> (XorDelayModel, CmaEsResult) {
    assert!(!data.is_empty());
    assert!(k > 0);
    let n = data.num_inputs();
    // The Φ features are packed once (one sign bit per feature) and
    // shared by every fitness evaluation of every generation.
    let fm = FeatureMatrix::build(&ArbiterPhiFeatures::new(n), data);
    let d = k * (n + 1);
    let objective = |theta: &[f64]| -> f64 {
        let mut wrong = 0usize;
        for row in 0..fm.examples() {
            let mut prod = 1.0f64;
            for chain in theta.chunks(n + 1) {
                let s = fm.dot(row, chain);
                prod *= if s < 0.0 { -1.0 } else { 1.0 };
            }
            if prod * fm.label(row) < 0.0 {
                wrong += 1;
            }
        }
        wrong as f64 / fm.examples() as f64
    };
    let x0: Vec<f64> = (0..d).map(|_| 0.3 * gaussian(rng)).collect();
    let result = CmaEs::new(options).minimize(&objective, &x0, rng);
    let model = XorDelayModel::new(n, k, result.best.clone());
    (model, result)
}

fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen::<f64>();
        if u > f64::EPSILON {
            let v: f64 = rng.gen();
            return (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn minimizes_sphere() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
        let r = CmaEs::new(CmaEsOptions {
            max_generations: 300,
            ..Default::default()
        })
        .minimize(&f, &[2.0; 6], &mut rng);
        assert!(r.best_fitness < 1e-8, "fitness {}", r.best_fitness);
    }

    #[test]
    fn minimizes_shifted_ellipsoid() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = |x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, v)| (i as f64 + 1.0) * (v - 1.0) * (v - 1.0))
                .sum::<f64>()
        };
        let r = CmaEs::new(CmaEsOptions {
            max_generations: 500,
            ..Default::default()
        })
        .minimize(&f, &[0.0; 5], &mut rng);
        assert!(r.best_fitness < 1e-6, "fitness {}", r.best_fitness);
        for v in &r.best {
            assert!((v - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let mut rng = StdRng::seed_from_u64(3);
        let f = |x: &[f64]| 100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2);
        let r = CmaEs::new(CmaEsOptions {
            max_generations: 800,
            restarts: 2,
            ..Default::default()
        })
        .minimize(&f, &[-1.0, 1.0], &mut rng);
        assert!(r.best_fitness < 1e-4, "fitness {}", r.best_fitness);
    }

    #[test]
    fn jacobi_recovers_diagonal() {
        let m = vec![3.0, 0.0, 0.0, 1.0];
        let (vals, _) = jacobi_eigen(&m, 2);
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[0] - 1.0).abs() < 1e-10);
        assert!((sorted[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_orthonormal_vectors() {
        let m = vec![2.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 1.5];
        let (vals, vecs) = jacobi_eigen(&m, 3);
        // Check A v = λ v for each eigenpair.
        for k in 0..3 {
            for row in 0..3 {
                let av: f64 = (0..3).map(|c| m[row * 3 + c] * vecs[c * 3 + k]).sum();
                assert!(
                    (av - vals[k] * vecs[row * 3 + k]).abs() < 1e-8,
                    "eigenpair {k} row {row}"
                );
            }
        }
    }

    #[test]
    fn fits_single_arbiter_chain() {
        let mut rng = StdRng::seed_from_u64(4);
        // Target: 1-chain delay model (k=1) on 8 stages.
        let w: Vec<f64> = (0..9).map(|_| gaussian(&mut rng)).collect();
        let target = XorDelayModel::new(8, 1, w);
        let train = LabeledSet::sample(&target, 400, &mut rng);
        let (model, result) = fit_xor_delay_model(
            &train,
            1,
            CmaEsOptions {
                max_generations: 200,
                target_fitness: 0.01,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(
            result.best_fitness <= 0.05,
            "fitness {}",
            result.best_fitness
        );
        let test = LabeledSet::sample(&target, 500, &mut rng);
        assert!(test.accuracy_of(&model) > 0.9);
    }
}
