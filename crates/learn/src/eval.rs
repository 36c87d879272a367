//! Evaluation harness: empirical sample complexity.
//!
//! Table I gives analytic CRP bounds; the benchmark harness also
//! *measures* how many CRPs each learner empirically needs to reach a
//! target accuracy. [`crps_to_accuracy`] provides that measurement for
//! any learner expressible as a closure from a training set to a
//! hypothesis.

use mlam_boolean::{BooleanFunction, LabeledSet};
use rand::Rng;

/// Finds (by doubling search) the smallest training-set size at which
/// `learner` reaches `target_accuracy`, up to `max_size`. Returns
/// `None` if the budget is insufficient.
pub fn crps_to_accuracy<F, L, H, R>(
    target: &F,
    target_accuracy: f64,
    start_size: usize,
    max_size: usize,
    test_size: usize,
    learner: L,
    rng: &mut R,
) -> Option<usize>
where
    F: BooleanFunction + Sync + ?Sized,
    L: Fn(&LabeledSet) -> H,
    H: BooleanFunction + Sync,
    R: Rng + ?Sized,
{
    assert!(start_size > 0 && start_size <= max_size);
    assert!((0.5..=1.0).contains(&target_accuracy));
    let test = LabeledSet::sample_par(target, test_size, rng);
    let mut m = start_size;
    loop {
        let train = LabeledSet::sample_par(target, m, rng);
        let h = learner(&train);
        if test.accuracy_of(&h) >= target_accuracy {
            return Some(m);
        }
        if m >= max_size {
            return None;
        }
        m = (m * 2).min(max_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perceptron::Perceptron;
    use mlam_boolean::{BitVec, FnFunction, LinearThreshold};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn crps_to_accuracy_finds_a_budget_for_easy_targets() {
        let mut rng = StdRng::seed_from_u64(2);
        let target = LinearThreshold::random(12, &mut rng);
        let m = crps_to_accuracy(
            &target,
            0.9,
            25,
            10_000,
            2000,
            |train| Perceptron::new(60).train(train).model,
            &mut rng,
        );
        assert!(m.is_some());
        assert!(m.expect("found") <= 10_000);
    }

    #[test]
    fn crps_to_accuracy_gives_up_on_parity() {
        let mut rng = StdRng::seed_from_u64(3);
        let target = FnFunction::new(14, |x: &BitVec| x.count_ones() % 2 == 1);
        let m = crps_to_accuracy(
            &target,
            0.9,
            100,
            2000,
            1500,
            |train| Perceptron::new(20).train(train).model,
            &mut rng,
        );
        assert_eq!(m, None, "an LTF learner cannot reach 90 % on parity");
    }
}
