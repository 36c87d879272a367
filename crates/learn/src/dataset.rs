//! Labeled example sets.

use crate::oracle::ExampleOracle;
use mlam_boolean::{BitVec, BooleanFunction};
use rand::Rng;

/// A set of labeled examples `(x, y)` with `x ∈ {0,1}^n`, `y ∈ {0,1}`.
///
/// # Example
///
/// ```
/// use mlam_boolean::{BitVec, FnFunction};
/// use mlam_learn::dataset::LabeledSet;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let target = FnFunction::new(6, |x: &BitVec| x.get(0));
/// let set = LabeledSet::sample(&target, 100, &mut rng);
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
    pub fn sample<F, R>(f: &F, count: usize, rng: &mut R) -> Self
    where
        F: BooleanFunction + ?Sized,
        R: Rng + ?Sized,
    {
        let n = f.num_inputs();
        let items = (0..count)
            .map(|_| {
                let x = BitVec::random(n, rng);
                let y = f.eval(&x);
                (x, y)
            })
            .collect();
        LabeledSet { n, items }
    }

    /// Samples `count` uniform random examples labeled by `f`, with the
    /// labeling fanned out across `MLAM_THREADS` worker threads.
    ///
    /// The challenges are drawn sequentially from `rng` — the stream is
    /// identical to [`LabeledSet::sample`] — and labeling a challenge is
    /// a pure function of `f`, so the returned set is bit-identical to
    /// the sequential one at any thread count.
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

    /// Draws `count` examples from an [`ExampleOracle`].
    pub fn from_oracle<O, R>(oracle: &O, count: usize, rng: &mut R) -> Self
    where
        O: ExampleOracle,
        R: Rng + ?Sized,
    {
        LabeledSet {
            n: oracle.num_inputs(),
            items: oracle.examples(count, rng),
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
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn accuracy_of<H: BooleanFunction + ?Sized>(&self, h: &H) -> f64 {
        assert!(!self.is_empty(), "accuracy over an empty set");
        h.count_agreements(&self.items) as f64 / self.items.len() as f64
    }

    /// Fraction of examples a hypothesis labels correctly, with the
    /// evaluation sweep fanned out across `MLAM_THREADS` workers.
    ///
    /// Correct-count accumulation is integer arithmetic, so the result
    /// equals [`LabeledSet::accuracy_of`] exactly at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn accuracy_of_par<H: BooleanFunction + Sync + ?Sized>(&self, h: &H) -> f64 {
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

    /// Randomly splits into `(train, test)`.
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

impl Extend<(BitVec, bool)> for LabeledSet {
    fn extend<T: IntoIterator<Item = (BitVec, bool)>>(&mut self, iter: T) {
        for (x, y) in iter {
            self.push(x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlam_boolean::FnFunction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_and_accuracy() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = FnFunction::new(8, |x: &BitVec| x.count_ones().is_multiple_of(2));
        let set = LabeledSet::sample(&f, 300, &mut rng);
        assert_eq!(set.accuracy_of(&f), 1.0);
        let g = FnFunction::new(8, |x: &BitVec| x.count_ones() % 2 == 1);
        assert_eq!(set.accuracy_of(&g), 0.0);
    }

    #[test]
    fn relabeled_by_changes_labels_not_inputs() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = FnFunction::new(4, |x: &BitVec| x.get(0));
        let g = FnFunction::new(4, |x: &BitVec| !x.get(0));
        let set = LabeledSet::sample(&f, 50, &mut rng);
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
        let set = LabeledSet::sample(&f, 100, &mut rng);
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
        // Same seed -> same challenge stream -> identical sets, whatever
        // MLAM_THREADS happens to be.
        let f = FnFunction::new(10, |x: &BitVec| x.count_ones() >= 5);
        let seq = LabeledSet::sample(&f, 500, &mut StdRng::seed_from_u64(9));
        let par = LabeledSet::sample_par(&f, 500, &mut StdRng::seed_from_u64(9));
        assert_eq!(seq, par);
    }

    #[test]
    fn accuracy_of_par_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(10);
        let f = FnFunction::new(8, |x: &BitVec| x.get(2));
        let g = FnFunction::new(8, |x: &BitVec| x.get(2) ^ x.get(5));
        let set = LabeledSet::sample(&f, 3000, &mut rng);
        assert_eq!(set.accuracy_of(&g), set.accuracy_of_par(&g));
        assert_eq!(set.accuracy_of_par(&f), 1.0);
    }
}
