//! Challenge–response pairs (CRPs) and their collection.
//!
//! The paper's experiments run on "noiseless and stable CRPs" collected
//! from silicon. [`collect_stable`] reproduces that lab procedure on the
//! simulators: evaluate each challenge repeatedly, keep only challenges
//! whose response is unanimous (or majority-stable), and record the
//! majority response.

use crate::PufModel;
use mlam_boolean::{BitVec, LabeledSet};
use mlam_telemetry::counter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Collects `count` CRPs at uniformly random challenges using **ideal**
/// (noise-free) evaluations: [`LabeledSet::sample_par`] on the device,
/// so the set is bit-identical at any thread count.
/// `puf.batch.scalar_evals` counts the evaluations.
///
/// # Example
///
/// ```
/// use mlam_puf::ArbiterPuf;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let puf = ArbiterPuf::sample(32, 0.0, &mut rng);
/// let set = mlam_puf::crp::collect_uniform(&puf, 500, &mut rng);
/// let (train, test) = set.split(0.8, &mut rng);
/// assert_eq!(train.len() + test.len(), 500);
/// ```
pub fn collect_uniform<P: PufModel + Sync, R: Rng + ?Sized>(
    puf: &P,
    count: usize,
    rng: &mut R,
) -> LabeledSet {
    counter!("puf.batch.scalar_evals", count);
    LabeledSet::sample_par(puf, count, rng)
}

/// Collects `count` CRPs with **noisy** single-shot evaluations — the
/// raw data an attacker without repeated-measurement access sees.
pub fn collect_noisy<P: PufModel, R: Rng + ?Sized>(
    puf: &P,
    count: usize,
    rng: &mut R,
) -> LabeledSet {
    let n = puf.challenge_bits();
    let mut set = LabeledSet::new(n);
    for _ in 0..count {
        let c = BitVec::random(n, rng);
        let r = puf.eval_noisy(&c, rng);
        set.push(c, r);
    }
    set
}

/// Collects up to `count` **stable** CRPs: each uniformly random
/// challenge is evaluated `repeats` times and kept only when at least
/// `stability` of the evaluations agree; the recorded response is the
/// majority. This reproduces the paper's "noiseless and stable CRPs".
///
/// Every candidate challenge derives its own RNG from
/// `split_seed(seed, candidate index)`, so candidates are screened
/// concurrently across `MLAM_THREADS` workers. Candidates are accepted
/// **in index order** until `count` stable CRPs are found, which makes
/// the returned set a pure function of `(puf, seed)`, bit-identical at
/// any thread count. At most `10 * count` candidates are tried, so the
/// function terminates even for extremely noisy devices; the returned
/// set may then be smaller than `count`.
///
/// # Panics
///
/// Panics if `repeats == 0` or `stability ∉ (0.5, 1.0]`.
pub fn collect_stable<P: PufModel + Sync>(
    puf: &P,
    count: usize,
    repeats: usize,
    stability: f64,
    seed: u64,
) -> LabeledSet {
    assert!(repeats > 0, "repeats must be positive");
    assert!(
        stability > 0.5 && stability <= 1.0,
        "stability threshold must be in (0.5, 1.0]"
    );
    let n = puf.challenge_bits();
    let max_attempts = count.saturating_mul(10);
    let mut set = LabeledSet::new(n);
    let mut next_candidate = 0usize;
    // Screen candidates in fixed-size waves; each candidate is an
    // independent task, accepted in index order, so neither the wave
    // size nor the thread count can change which CRPs are kept.
    const WAVE: usize = 512;
    while set.len() < count && next_candidate < max_attempts {
        let wave = WAVE.min(max_attempts - next_candidate);
        let screened = mlam_par::par_map_index(wave, |offset| {
            let index = next_candidate + offset;
            let mut rng = StdRng::seed_from_u64(mlam_par::split_seed(seed, index as u64));
            let c = BitVec::random(n, &mut rng);
            let ones = (0..repeats)
                .filter(|_| puf.eval_noisy(&c, &mut rng))
                .count();
            let majority = ones * 2 >= repeats;
            let agree = if majority { ones } else { repeats - ones };
            (agree as f64 / repeats as f64 >= stability).then_some((c, majority))
        });
        for (c, r) in screened.into_iter().flatten() {
            if set.len() == count {
                break;
            }
            set.push(c, r);
        }
        next_candidate += wave;
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterPuf;
    use mlam_boolean::BooleanFunction;

    #[test]
    fn collect_uniform_matches_ideal_responses() {
        let mut rng = StdRng::seed_from_u64(1);
        let puf = ArbiterPuf::sample(16, 0.0, &mut rng);
        let set = collect_uniform(&puf, 200, &mut rng);
        assert_eq!(set.len(), 200);
        for (c, r) in set.pairs() {
            assert_eq!(puf.eval(c), *r);
        }
    }

    #[test]
    fn uniform_collection_is_balanced_for_all_models() {
        use crate::bistable_ring::{BistableRingPuf, BrPufConfig};
        use crate::xor_arbiter::XorArbiterPuf;

        // Uniformity: the fraction of 1-responses over uniform challenges.
        fn ones_fraction<P: PufModel + Sync>(puf: &P, rng: &mut StdRng) -> f64 {
            let set = collect_uniform(puf, 3000, rng);
            set.pairs().iter().filter(|(_, r)| *r).count() as f64 / set.len() as f64
        }
        let mut rng = StdRng::seed_from_u64(3);
        let a = ArbiterPuf::sample(64, 0.0, &mut rng);
        let x = XorArbiterPuf::sample(64, 4, 0.0, &mut rng);
        let b = BistableRingPuf::sample(64, BrPufConfig::calibrated(64), &mut rng);
        for (name, frac, bias) in [
            ("arbiter", ones_fraction(&a, &mut rng), 0.15),
            ("xor", ones_fraction(&x, &mut rng), 0.1),
            ("bistable-ring", ones_fraction(&b, &mut rng), 0.2),
        ] {
            assert!((frac - 0.5).abs() < bias, "{name}: uniformity {frac}");
        }
    }

    #[test]
    fn stable_collection_filters_noise() {
        let mut rng = StdRng::seed_from_u64(2);
        let puf = ArbiterPuf::sample(64, 0.4, &mut rng);
        let set = collect_stable(&puf, 300, 11, 1.0, 2);
        // Unanimously stable CRPs must agree with the ideal response.
        let wrong = set
            .pairs()
            .iter()
            .filter(|(c, r)| puf.eval(c) != *r)
            .count();
        assert!(
            (wrong as f64) < set.len() as f64 * 0.02,
            "{wrong}/{} stable CRPs disagree with ideal",
            set.len()
        );
        assert!(!set.is_empty());
    }

    #[test]
    fn stable_par_is_seed_deterministic_and_filters_noise() {
        let mut rng = StdRng::seed_from_u64(5);
        let puf = ArbiterPuf::sample(32, 0.3, &mut rng);
        let a = collect_stable(&puf, 150, 9, 1.0, 77);
        let b = collect_stable(&puf, 150, 9, 1.0, 77);
        assert_eq!(a, b, "same (puf, seed) must give the same set");
        assert!(!a.is_empty());
        let wrong = a.pairs().iter().filter(|(c, r)| puf.eval(c) != *r).count();
        assert!(
            (wrong as f64) < a.len() as f64 * 0.02,
            "{wrong}/{} stable CRPs disagree with ideal",
            a.len()
        );
    }

    /// `collect_uniform` labels every challenge as `eval` does, and is
    /// `LabeledSet::sample_par` from the same seed, leaving the RNG at
    /// the same next draw.
    fn assert_collect_matches_eval<P: PufModel + Sync>(puf: &P, count: usize, ctx: &str) {
        let mut rng = StdRng::seed_from_u64(count as u64);
        let set = collect_uniform(puf, count, &mut rng);
        assert_eq!(set.len(), count, "{ctx}");
        for (i, (c, r)) in set.pairs().iter().enumerate() {
            assert_eq!(puf.eval(c), *r, "{ctx}: challenge {i}");
        }
        let mut sample_rng = StdRng::seed_from_u64(count as u64);
        let sampled = LabeledSet::sample_par(puf, count, &mut sample_rng);
        assert_eq!(set, sampled, "{ctx}");
        assert_eq!(
            rng.gen::<u64>(),
            sample_rng.gen::<u64>(),
            "{ctx}: next draw"
        );
    }

    #[test]
    fn collect_uniform_matches_sequential_eval() {
        use crate::bistable_ring::{BistableRingPuf, BrPufConfig};
        use crate::interpose::InterposePuf;
        use crate::xor_arbiter::XorArbiterPuf;

        let mut rng = StdRng::seed_from_u64(7);
        // Challenge lengths straddle the 64-bit word width of `BitVec`.
        for &(n, count) in &[
            (24usize, 300usize),
            (64, 64),
            (66, 129),
            (10, 63),
            (33, 1),
            (130, 70),
        ] {
            let ctx = format!("n={n} count={count}");

            let arb = ArbiterPuf::sample(n, 0.0, &mut rng);
            assert_collect_matches_eval(&arb, count, &format!("arbiter {ctx}"));

            let xor = XorArbiterPuf::sample(n, 3, 0.0, &mut rng);
            assert_collect_matches_eval(&xor, count, &format!("xor {ctx}"));

            let ipuf = InterposePuf::sample(n, 2, 2, 0.0, &mut rng);
            assert_collect_matches_eval(&ipuf, count, &format!("interpose {ctx}"));

            let br = BistableRingPuf::sample(n, BrPufConfig::calibrated(n), &mut rng);
            assert_collect_matches_eval(&br, count, &format!("bistable-ring {ctx}"));
        }
    }

    #[test]
    fn split_partitions_the_set() {
        let mut rng = StdRng::seed_from_u64(3);
        let puf = ArbiterPuf::sample(16, 0.0, &mut rng);
        let set = collect_uniform(&puf, 100, &mut rng);
        let (train, test) = set.split(0.7, &mut rng);
        assert_eq!(train.len(), 70);
        assert_eq!(test.len(), 30);
        assert_eq!(train.num_inputs(), 16);
    }

    #[test]
    fn take_prefix() {
        let mut rng = StdRng::seed_from_u64(4);
        let puf = ArbiterPuf::sample(8, 0.0, &mut rng);
        let set = collect_uniform(&puf, 50, &mut rng);
        let head = set.take(10);
        assert_eq!(head.len(), 10);
        assert_eq!(head.pairs(), &set.pairs()[..10]);
    }
}
