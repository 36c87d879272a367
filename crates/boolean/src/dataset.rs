//! Labeled example sets: the one container for CRPs and training data.

use crate::{BitVec, BooleanFunction};
use rand::Rng;

/// A set of labeled examples `(x, y)` with `x ∈ {0,1}^n`, `y ∈ {0,1}`.
///
/// A PUF's challenge–response pairs, a learner's training set and an
/// evaluator's holdout set are all held in this one type.
///
/// # Example
///
/// ```
/// use mlam_boolean::{BitVec, FnFunction, LabeledSet};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let target = FnFunction::new(6, |x: &BitVec| x.get(0));
/// let set = LabeledSet::sample_par(&target, 100, &mut rng);
/// assert_eq!(set.len(), 100);
/// assert_eq!(set.accuracy_of(&target), 1.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LabeledSet {
    n: usize,
    items: Vec<(BitVec, bool)>,
}

impl LabeledSet {
    /// Creates an empty set over `n`-bit inputs.
    pub fn new(n: usize) -> Self {
        LabeledSet {
            n,
            items: Vec::new(),
        }
    }

    /// Wraps existing labeled pairs.
    ///
    /// # Panics
    ///
    /// Panics if any input length differs from `n`.
    pub fn from_pairs(n: usize, items: Vec<(BitVec, bool)>) -> Self {
        for (x, _) in &items {
            assert_eq!(x.len(), n, "input length mismatch");
        }
        LabeledSet { n, items }
    }

    /// Samples `count` uniform random examples labeled by `f`.
    ///
    /// The inputs are drawn sequentially from `rng`, then labeled by
    /// `f` fanned out across `MLAM_THREADS` worker threads. Labeling is
    /// a pure function of `f`, so the set is bit-identical at any
    /// thread count, and `rng` is left where a draw-then-label loop
    /// would leave it.
    pub fn sample_par<F, R>(f: &F, count: usize, rng: &mut R) -> Self
    where
        F: BooleanFunction + Sync + ?Sized,
        R: Rng + ?Sized,
    {
        let n = f.num_inputs();
        let xs: Vec<BitVec> = (0..count).map(|_| BitVec::random(n, rng)).collect();
        let labels = mlam_par::par_map(&xs, |x| f.eval(x));
        LabeledSet {
            n,
            items: xs.into_iter().zip(labels).collect(),
        }
    }

    /// Input length.
    pub fn num_inputs(&self) -> usize {
        self.n
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The underlying pairs.
    pub fn pairs(&self) -> &[(BitVec, bool)] {
        &self.items
    }

    /// A copy of the underlying pairs.
    pub fn to_labeled(&self) -> Vec<(BitVec, bool)> {
        self.items.clone()
    }

    /// Appends an example.
    ///
    /// # Panics
    ///
    /// Panics if the input length differs from the set's.
    pub fn push(&mut self, x: BitVec, y: bool) {
        assert_eq!(x.len(), self.n, "input length mismatch");
        self.items.push((x, y));
    }

    /// Fraction of examples a hypothesis labels correctly.
    ///
    /// The agreements are counted in chunks of `mlam_par::DEFAULT_CHUNK`
    /// examples fanned out across `MLAM_THREADS` workers. The counts
    /// are integers, so the result is exact at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn accuracy_of<H: BooleanFunction + Sync + ?Sized>(&self, h: &H) -> f64 {
        assert!(!self.is_empty(), "accuracy over an empty set");
        let partials = mlam_par::par_chunk_map(&self.items, mlam_par::DEFAULT_CHUNK, |_, chunk| {
            h.count_agreements(chunk)
        });
        partials.into_iter().sum::<usize>() as f64 / self.items.len() as f64
    }

    /// Relabels every example with a new function (used by Table II:
    /// CRP challenges relabeled by the Chow surrogate `f′`).
    pub fn relabeled_by<F: BooleanFunction + ?Sized>(&self, f: &F) -> LabeledSet {
        assert_eq!(f.num_inputs(), self.n, "arity mismatch");
        LabeledSet {
            n: self.n,
            items: self
                .items
                .iter()
                .map(|(x, _)| (x.clone(), f.eval(x)))
                .collect(),
        }
    }

    /// The first `count` examples as a new set.
    pub fn take(&self, count: usize) -> LabeledSet {
        LabeledSet {
            n: self.n,
            items: self.items.iter().take(count).cloned().collect(),
        }
    }

    /// Randomly splits into `(train, test)` with `train_fraction` of the
    /// examples in the first part.
    ///
    /// # Panics
    ///
    /// Panics if `train_fraction` is outside `[0, 1]`.
    pub fn split<R: Rng + ?Sized>(
        &self,
        train_fraction: f64,
        rng: &mut R,
    ) -> (LabeledSet, LabeledSet) {
        assert!((0.0..=1.0).contains(&train_fraction));
        let mut idx: Vec<usize> = (0..self.items.len()).collect();
        for i in (1..idx.len()).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
        let cut = (self.items.len() as f64 * train_fraction).round() as usize;
        let train = idx[..cut].iter().map(|&i| self.items[i].clone()).collect();
        let test = idx[cut..].iter().map(|&i| self.items[i].clone()).collect();
        (
            LabeledSet {
                n: self.n,
                items: train,
            },
            LabeledSet {
                n: self.n,
                items: test,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnFunction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_and_accuracy() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = FnFunction::new(8, |x: &BitVec| x.count_ones().is_multiple_of(2));
        let set = LabeledSet::sample_par(&f, 300, &mut rng);
        assert_eq!(set.accuracy_of(&f), 1.0);
        let g = FnFunction::new(8, |x: &BitVec| x.count_ones() % 2 == 1);
        assert_eq!(set.accuracy_of(&g), 0.0);
    }

    #[test]
    fn relabeled_by_changes_labels_not_inputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = FnFunction::new(4, |x: &BitVec| x.get(0));
        let g = FnFunction::new(4, |x: &BitVec| !x.get(0));
        let set = LabeledSet::sample_par(&f, 50, &mut rng);
        let relabeled = set.relabeled_by(&g);
        assert_eq!(relabeled.accuracy_of(&g), 1.0);
        assert_eq!(relabeled.accuracy_of(&f), 0.0);
        for ((a, _), (b, _)) in set.pairs().iter().zip(relabeled.pairs()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn split_sizes() {
        let mut rng = StdRng::seed_from_u64(3);
        let f = FnFunction::new(4, |x: &BitVec| x.get(3));
        let set = LabeledSet::sample_par(&f, 100, &mut rng);
        let (tr, te) = set.split(0.8, &mut rng);
        assert_eq!(tr.len(), 80);
        assert_eq!(te.len(), 20);
    }

    #[test]
    fn take_and_push() {
        let mut set = LabeledSet::new(3);
        set.push(BitVec::zeros(3), true);
        set.push(BitVec::ones(3), false);
        assert_eq!(set.take(1).len(), 1);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn push_wrong_length_panics() {
        LabeledSet::new(3).push(BitVec::zeros(4), true);
    }

    #[test]
    fn sample_par_matches_sequential_sample() {
        // The same examples a draw-then-label loop makes from the same
        // seed, and the RNG left at the same next draw, whatever
        // MLAM_THREADS happens to be.
        let f = FnFunction::new(10, |x: &BitVec| x.count_ones() >= 5);
        let mut rng = StdRng::seed_from_u64(9);
        let par = LabeledSet::sample_par(&f, 500, &mut rng);
        let mut seq_rng = StdRng::seed_from_u64(9);
        let mut seq = LabeledSet::new(10);
        for _ in 0..500 {
            let x = BitVec::random(10, &mut seq_rng);
            let y = f.eval(&x);
            seq.push(x, y);
        }
        assert_eq!(par, seq);
        assert_eq!(rng.gen::<u64>(), seq_rng.gen::<u64>());
    }

    #[test]
    fn accuracy_of_counts_every_chunk() {
        // Sizes on both sides of the chunk length: a chunk dropped or
        // counted twice moves the count.
        let f = FnFunction::new(8, |x: &BitVec| x.get(2));
        let g = FnFunction::new(8, |x: &BitVec| x.get(2) ^ x.get(5));
        let chunk = mlam_par::DEFAULT_CHUNK;
        for m in [1, chunk - 1, chunk, chunk + 1, 3000] {
            let set = LabeledSet::sample_par(&f, m, &mut StdRng::seed_from_u64(m as u64));
            let agree = set.pairs().iter().filter(|(x, y)| g.eval(x) == *y).count();
            assert_eq!(set.accuracy_of(&g), agree as f64 / m as f64, "m={m}");
            assert_eq!(set.accuracy_of(&f), 1.0, "m={m}");
        }
    }
}
