//! Challenge–response pairs (CRPs) and their collection.
//!
//! The paper's experiments run on "noiseless and stable CRPs" collected
//! from silicon. [`collect_stable`] reproduces that lab procedure on the
//! simulators: evaluate each challenge repeatedly, keep only challenges
//! whose response is unanimous (or majority-stable), and record the
//! majority response.

use crate::challenge::random_challenges;
use crate::PufModel;
use mlam_boolean::BitVec;
use mlam_telemetry::counter;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One challenge–response pair.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Crp {
    /// The applied challenge.
    pub challenge: BitVec,
    /// The recorded response bit.
    pub response: bool,
}

impl Crp {
    /// Creates a CRP.
    pub fn new(challenge: BitVec, response: bool) -> Self {
        Crp {
            challenge,
            response,
        }
    }
}

/// A set of CRPs collected from one PUF instance.
///
/// Stores the challenge length and provides conversions to the
/// `(BitVec, bool)` slices the learning stack consumes.
///
/// # Example
///
/// ```
/// use mlam_puf::{ArbiterPuf, CrpSet, PufModel};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let puf = ArbiterPuf::sample(32, 0.0, &mut rng);
/// let set = mlam_puf::crp::collect_uniform(&puf, 500, &mut rng);
/// let (train, test) = set.split(0.8, &mut rng);
/// assert_eq!(train.len() + test.len(), 500);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CrpSet {
    n: usize,
    crps: Vec<Crp>,
}

impl CrpSet {
    /// Creates an empty set for `n`-bit challenges.
    pub fn new(n: usize) -> Self {
        CrpSet {
            n,
            crps: Vec::new(),
        }
    }

    /// Builds a set from parts.
    ///
    /// # Panics
    ///
    /// Panics if any challenge length differs from `n`.
    pub fn from_crps(n: usize, crps: Vec<Crp>) -> Self {
        for crp in &crps {
            assert_eq!(crp.challenge.len(), n, "challenge length mismatch");
        }
        CrpSet { n, crps }
    }

    /// Challenge length in bits.
    pub fn challenge_bits(&self) -> usize {
        self.n
    }

    /// Number of CRPs.
    pub fn len(&self) -> usize {
        self.crps.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.crps.is_empty()
    }

    /// Appends a CRP.
    ///
    /// # Panics
    ///
    /// Panics if the challenge length differs from the set's.
    pub fn push(&mut self, crp: Crp) {
        assert_eq!(crp.challenge.len(), self.n, "challenge length mismatch");
        self.crps.push(crp);
    }

    /// The CRPs.
    pub fn crps(&self) -> &[Crp] {
        &self.crps
    }

    /// Iterator over `(challenge, response)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&BitVec, bool)> {
        self.crps.iter().map(|c| (&c.challenge, c.response))
    }

    /// Clones the data into the `(BitVec, bool)` form used by
    /// `mlam-boolean` and `mlam-learn`.
    pub fn to_labeled(&self) -> Vec<(BitVec, bool)> {
        self.crps
            .iter()
            .map(|c| (c.challenge.clone(), c.response))
            .collect()
    }

    /// Fraction of responses equal to 1 (uniformity).
    pub fn ones_fraction(&self) -> f64 {
        if self.crps.is_empty() {
            return 0.0;
        }
        self.crps.iter().filter(|c| c.response).count() as f64 / self.crps.len() as f64
    }

    /// Randomly splits into `(train, test)` with `train_fraction` of the
    /// CRPs in the first part.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is outside `[0, 1]`.
    pub fn split<R: Rng + ?Sized>(&self, train_fraction: f64, rng: &mut R) -> (CrpSet, CrpSet) {
        assert!(
            (0.0..=1.0).contains(&train_fraction),
            "train fraction must be in [0,1]"
        );
        let mut idx: Vec<usize> = (0..self.crps.len()).collect();
        // Fisher–Yates.
        for i in (1..idx.len()).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
        let cut = (self.crps.len() as f64 * train_fraction).round() as usize;
        let train = idx[..cut].iter().map(|&i| self.crps[i].clone()).collect();
        let test = idx[cut..].iter().map(|&i| self.crps[i].clone()).collect();
        (
            CrpSet {
                n: self.n,
                crps: train,
            },
            CrpSet {
                n: self.n,
                crps: test,
            },
        )
    }

    /// Takes the first `count` CRPs as a new set (for CRP-budget sweeps).
    pub fn take(&self, count: usize) -> CrpSet {
        CrpSet {
            n: self.n,
            crps: self.crps.iter().take(count).cloned().collect(),
        }
    }
}

impl Extend<Crp> for CrpSet {
    fn extend<T: IntoIterator<Item = Crp>>(&mut self, iter: T) {
        for crp in iter {
            self.push(crp);
        }
    }
}

/// Serialization mirror of [`CrpSet`] using string bit patterns
/// (readable and stable across versions).
#[derive(Serialize, Deserialize)]
struct CrpSetRepr {
    n: usize,
    crps: Vec<(String, bool)>,
}

impl Serialize for CrpSet {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let repr = CrpSetRepr {
            n: self.n,
            crps: self
                .crps
                .iter()
                .map(|c| (c.challenge.to_string(), c.response))
                .collect(),
        };
        repr.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for CrpSet {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = CrpSetRepr::deserialize(deserializer)?;
        let crps = repr
            .crps
            .into_iter()
            .map(|(s, r)| {
                let bits: Vec<bool> = s.chars().map(|ch| ch == '1').collect();
                if bits.len() != repr.n {
                    return Err(serde::de::Error::custom("challenge length mismatch"));
                }
                Ok(Crp::new(BitVec::from_bools(&bits), r))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CrpSet { n: repr.n, crps })
    }
}

/// Collects `count` CRPs at uniformly random challenges using **ideal**
/// (noise-free) evaluations.
///
/// Challenges are drawn sequentially from `rng`, then labelled by the
/// ideal `eval` fanned out across `MLAM_THREADS` workers, so the set is
/// bit-identical at any thread count. `puf.batch.scalar_evals` counts
/// the evaluations.
pub fn collect_uniform<P: PufModel + Sync, R: Rng + ?Sized>(
    puf: &P,
    count: usize,
    rng: &mut R,
) -> CrpSet {
    let n = puf.challenge_bits();
    let challenges = random_challenges(n, count, rng);
    counter!("puf.batch.scalar_evals", challenges.len());
    let responses = mlam_par::par_map(&challenges, |c| puf.eval(c));
    CrpSet::from_crps(
        n,
        challenges
            .into_iter()
            .zip(responses)
            .map(|(c, r)| Crp::new(c, r))
            .collect(),
    )
}

/// Collects `count` CRPs with **noisy** single-shot evaluations — the
/// raw data an attacker without repeated-measurement access sees.
pub fn collect_noisy<P: PufModel, R: Rng + ?Sized>(puf: &P, count: usize, rng: &mut R) -> CrpSet {
    let n = puf.challenge_bits();
    let mut set = CrpSet::new(n);
    for _ in 0..count {
        let c = BitVec::random(n, rng);
        let r = puf.eval_noisy(&c, rng);
        set.push(Crp::new(c, r));
    }
    set
}

/// Collects up to `count` **stable** CRPs: each uniformly random
/// challenge is evaluated `repeats` times and kept only when at least
/// `stability` of the evaluations agree; the recorded response is the
/// majority. This reproduces the paper's "noiseless and stable CRPs".
///
/// Challenges that fail the stability screen are skipped (at most
/// `10 * count` candidates are tried, so the function terminates even
/// for extremely noisy devices; the returned set may then be smaller
/// than `count`).
///
/// # Panics
///
/// Panics if `repeats == 0` or `stability ∉ (0.5, 1.0]`.
pub fn collect_stable<P: PufModel, R: Rng + ?Sized>(
    puf: &P,
    count: usize,
    repeats: usize,
    stability: f64,
    rng: &mut R,
) -> CrpSet {
    assert!(repeats > 0, "repeats must be positive");
    assert!(
        stability > 0.5 && stability <= 1.0,
        "stability threshold must be in (0.5, 1.0]"
    );
    let n = puf.challenge_bits();
    let mut set = CrpSet::new(n);
    let mut attempts = 0usize;
    while set.len() < count && attempts < count.saturating_mul(10) {
        attempts += 1;
        let c = BitVec::random(n, rng);
        let ones = (0..repeats).filter(|_| puf.eval_noisy(&c, rng)).count();
        let majority = ones * 2 >= repeats;
        let agree = if majority { ones } else { repeats - ones };
        if agree as f64 / repeats as f64 >= stability {
            set.push(Crp::new(c, majority));
        }
    }
    set
}

/// Parallel stable-CRP collection from an explicit root seed.
///
/// Same screening procedure as [`collect_stable`], but every candidate
/// challenge derives its own RNG from `split_seed(seed, candidate
/// index)` instead of sharing one sequential stream, so candidates can
/// be screened concurrently across `MLAM_THREADS` workers. Candidates
/// are accepted **in index order** until `count` stable CRPs are found
/// (or `10 * count` candidates have been tried), which makes the
/// returned set a pure function of `(puf, seed)` — bit-identical at
/// any thread count, though *different* from the [`collect_stable`]
/// stream for the same underlying seed.
///
/// # Panics
///
/// Panics if `repeats == 0` or `stability ∉ (0.5, 1.0]`.
pub fn collect_stable_par<P: PufModel + Sync>(
    puf: &P,
    count: usize,
    repeats: usize,
    stability: f64,
    seed: u64,
) -> CrpSet {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    assert!(repeats > 0, "repeats must be positive");
    assert!(
        stability > 0.5 && stability <= 1.0,
        "stability threshold must be in (0.5, 1.0]"
    );
    let n = puf.challenge_bits();
    let max_attempts = count.saturating_mul(10);
    let mut set = CrpSet::new(n);
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
            (agree as f64 / repeats as f64 >= stability).then(|| Crp::new(c, majority))
        });
        for crp in screened.into_iter().flatten() {
            if set.len() == count {
                break;
            }
            set.push(crp);
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn collect_uniform_matches_ideal_responses() {
        let mut rng = StdRng::seed_from_u64(1);
        let puf = ArbiterPuf::sample(16, 0.0, &mut rng);
        let set = collect_uniform(&puf, 200, &mut rng);
        assert_eq!(set.len(), 200);
        for (c, r) in set.iter() {
            assert_eq!(puf.eval(c), r);
        }
    }

    #[test]
    fn stable_collection_filters_noise() {
        let mut rng = StdRng::seed_from_u64(2);
        let puf = ArbiterPuf::sample(64, 0.4, &mut rng);
        let set = collect_stable(&puf, 300, 11, 1.0, &mut rng);
        // Unanimously stable CRPs must agree with the ideal response.
        let mut wrong = 0;
        for (c, r) in set.iter() {
            if puf.eval(c) != r {
                wrong += 1;
            }
        }
        assert!(
            (wrong as f64) < set.len() as f64 * 0.02,
            "{wrong}/{} stable CRPs disagree with ideal",
            set.len()
        );
        assert!(!set.is_empty());
    }

    fn assert_collect_matches_eval<P: PufModel + Sync>(puf: &P, count: usize, ctx: &str) {
        let set = collect_uniform(puf, count, &mut StdRng::seed_from_u64(count as u64));
        assert_eq!(set.len(), count, "{ctx}");
        for (i, (c, r)) in set.iter().enumerate() {
            assert_eq!(puf.eval(c), r, "{ctx}: challenge {i}");
        }
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
    fn stable_par_is_seed_deterministic_and_filters_noise() {
        let mut rng = StdRng::seed_from_u64(5);
        let puf = ArbiterPuf::sample(32, 0.3, &mut rng);
        let a = collect_stable_par(&puf, 150, 9, 1.0, 77);
        let b = collect_stable_par(&puf, 150, 9, 1.0, 77);
        assert_eq!(a, b, "same (puf, seed) must give the same set");
        assert!(!a.is_empty());
        let mut wrong = 0;
        for (c, r) in a.iter() {
            if puf.eval(c) != r {
                wrong += 1;
            }
        }
        assert!(
            (wrong as f64) < a.len() as f64 * 0.02,
            "{wrong}/{} stable CRPs disagree with ideal",
            a.len()
        );
    }

    #[test]
    fn split_partitions_the_set() {
        let mut rng = StdRng::seed_from_u64(3);
        let puf = ArbiterPuf::sample(16, 0.0, &mut rng);
        let set = collect_uniform(&puf, 100, &mut rng);
        let (train, test) = set.split(0.7, &mut rng);
        assert_eq!(train.len(), 70);
        assert_eq!(test.len(), 30);
        assert_eq!(train.challenge_bits(), 16);
    }

    #[test]
    fn take_prefix() {
        let mut rng = StdRng::seed_from_u64(4);
        let puf = ArbiterPuf::sample(8, 0.0, &mut rng);
        let set = collect_uniform(&puf, 50, &mut rng);
        let head = set.take(10);
        assert_eq!(head.len(), 10);
        assert_eq!(head.crps()[0], set.crps()[0]);
    }

    #[test]
    fn ones_fraction_counts_responses() {
        let mut set = CrpSet::new(2);
        set.push(Crp::new(BitVec::zeros(2), true));
        set.push(Crp::new(BitVec::ones(2), false));
        assert_eq!(set.ones_fraction(), 0.5);
        assert_eq!(CrpSet::new(4).ones_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "challenge length mismatch")]
    fn push_wrong_length_panics() {
        let mut set = CrpSet::new(4);
        set.push(Crp::new(BitVec::zeros(5), false));
    }

    #[test]
    fn extend_appends() {
        let mut set = CrpSet::new(3);
        set.extend([
            Crp::new(BitVec::zeros(3), true),
            Crp::new(BitVec::ones(3), false),
        ]);
        assert_eq!(set.len(), 2);
    }
}
