//! Attacker access models as oracle traits (paper, Section IV).
//!
//! Cryptography classifies attacker access precisely; learning theory
//! has the matching notions:
//!
//! - **random examples** ([`ExampleOracle`]): labeled pairs drawn from a
//!   fixed distribution — known-plaintext-style access;
//! - **membership queries** ([`MembershipOracle`]): the attacker picks
//!   the input — chosen-plaintext-style access;
//! - **equivalence queries**: "is my hypothesis right, and if not show
//!   me a counterexample" — which, by Angluin's observation the paper
//!   recalls, can be *simulated from random examples*
//!   ([`simulate_equivalence`]).
//!
//! [`FunctionOracle`] adapts any [`BooleanFunction`] (a PUF model, a
//! locked netlist output, …) into all three, counting queries so attack
//! reports can state the cost.
//!
//! Access *type* is one axis; access *quality* is another. Real CRP
//! acquisition flips bits, drops readings and goes transiently
//! unavailable — [`UnreliableOracle`] wraps any of the above with a
//! seeded [`mlam_harness::FaultModel`] and a recovery
//! [`mlam_harness::RetryPolicy`] so experiments can sweep fault rates
//! while keeping every run bit-reproducible (see `HARNESS.md`).

use crate::distribution::ChallengeDistribution;
use mlam_boolean::{BitVec, BooleanFunction};
use mlam_harness::{recover, FaultModel, QueryError, RetryPolicy};
use mlam_telemetry::counter;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of labeled examples `(x, f(x))` from a fixed distribution.
pub trait ExampleOracle {
    /// Number of input bits.
    fn num_inputs(&self) -> usize;

    /// Draws the next labeled example.
    fn example<R: Rng + ?Sized>(&self, rng: &mut R) -> (BitVec, bool);

    /// Draws `count` labeled examples.
    fn examples<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<(BitVec, bool)> {
        (0..count).map(|_| self.example(rng)).collect()
    }
}

/// Membership-query access: the attacker chooses the input.
pub trait MembershipOracle {
    /// Number of input bits.
    fn num_inputs(&self) -> usize;

    /// The value of the unknown function at `x`.
    fn query(&self, x: &BitVec) -> bool;
}

/// Result of a (simulated) equivalence query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivalenceResult {
    /// No disagreement found within the sampling budget: the hypothesis
    /// is accepted as (probably approximately) equivalent.
    Equivalent,
    /// A counterexample on which hypothesis and target disagree.
    Counterexample(BitVec),
}

/// Adapts a [`BooleanFunction`] into example and membership oracles,
/// with query counting.
///
/// # Example
///
/// ```
/// use mlam_boolean::{BitVec, FnFunction};
/// use mlam_learn::{ExampleOracle, FunctionOracle, MembershipOracle};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let target = FnFunction::new(8, |x: &BitVec| x.count_ones() >= 4);
/// let oracle = FunctionOracle::uniform(&target);
/// let (x, y) = oracle.example(&mut rng);
/// assert_eq!(oracle.query(&x), y);
/// assert_eq!(oracle.queries_used(), 2);
/// ```
pub struct FunctionOracle<'a, F: ?Sized> {
    target: &'a F,
    distribution: ChallengeDistribution,
    // Atomic (not Cell) so the oracle is Sync and can be shared across
    // attack threads; ordering is Relaxed because only totals matter.
    queries: AtomicU64,
}

impl<'a, F: BooleanFunction + ?Sized> FunctionOracle<'a, F> {
    /// Oracle drawing examples from the **uniform** distribution.
    pub fn uniform(target: &'a F) -> Self {
        Self::with_distribution(target, ChallengeDistribution::Uniform)
    }

    /// Oracle drawing examples from an explicit distribution.
    pub fn with_distribution(target: &'a F, distribution: ChallengeDistribution) -> Self {
        FunctionOracle {
            target,
            distribution,
            queries: AtomicU64::new(0),
        }
    }

    /// The example distribution.
    pub fn distribution(&self) -> &ChallengeDistribution {
        &self.distribution
    }

    /// Total number of oracle invocations so far (examples + membership
    /// queries + equivalence-simulation samples).
    pub fn queries_used(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    fn count(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }
}

impl<F: BooleanFunction + ?Sized> ExampleOracle for FunctionOracle<'_, F> {
    fn num_inputs(&self) -> usize {
        self.target.num_inputs()
    }

    fn example<R: Rng + ?Sized>(&self, rng: &mut R) -> (BitVec, bool) {
        self.count();
        counter!("oracle.example_queries", 1);
        let x = self.distribution.sample(self.target.num_inputs(), rng);
        let y = self.target.eval(&x);
        (x, y)
    }
}

impl<F: BooleanFunction + ?Sized> MembershipOracle for FunctionOracle<'_, F> {
    fn num_inputs(&self) -> usize {
        self.target.num_inputs()
    }

    fn query(&self, x: &BitVec) -> bool {
        self.count();
        counter!("oracle.membership_queries", 1);
        self.target.eval(x)
    }
}

/// Wraps any oracle with a seeded [`FaultModel`] and a recovery
/// [`RetryPolicy`] — the unreliable-access adversary model.
///
/// The paper classifies adversaries by *what* they may ask the oracle;
/// this adapter adds *how well* the oracle answers. Faults (response
/// flips, dropped readings, transient outages) are a pure function of
/// the fault seed and the challenge bits, so two runs with the same
/// seed see bit-identical faults at any thread count; recovery
/// (bounded retry, k-of-n majority voting) is applied per logical
/// query.
///
/// The wrapper distinguishes **logical queries** (what the attack
/// asked) from **raw reads** (attempts spent against the device); the
/// ratio is the query overhead the fault model costs the attacker —
/// the quantity the `fault_sweep` experiment sweeps.
///
/// When every reading of a query is lost, the wrapper degrades
/// gracefully instead of failing the attack: it records the query as
/// exhausted (`harness.retry.exhausted`) and falls back to one last
/// non-droppable reading that can still be flipped.
///
/// # Example
///
/// ```
/// use mlam_boolean::{BitVec, FnFunction};
/// use mlam_harness::{FaultModel, RetryPolicy};
/// use mlam_learn::{FunctionOracle, MembershipOracle, UnreliableOracle};
///
/// let target = FnFunction::new(8, |x: &BitVec| x.count_ones() >= 4);
/// let oracle = UnreliableOracle::new(
///     FunctionOracle::uniform(&target),
///     FaultModel::new(3, 0.2, 0.1),    // 20% flips, 10% drops
///     RetryPolicy::retries(8).with_votes(3),
/// );
/// // Majority voting masks most flips: the logical answer is usually
/// // the true response even though single readings lie.
/// let x = BitVec::ones(8);
/// assert_eq!(oracle.query(&x), true);
/// // Recovery spends extra raw reads per logical query.
/// assert_eq!(oracle.logical_queries(), 1);
/// assert!(oracle.raw_reads() >= 3);
/// ```
pub struct UnreliableOracle<O> {
    inner: O,
    faults: FaultModel,
    policy: RetryPolicy,
    // Atomics (not Cells) so the wrapper stays Sync like FunctionOracle.
    raw_reads: AtomicU64,
    logical_queries: AtomicU64,
    exhausted: AtomicU64,
}

impl<O> UnreliableOracle<O> {
    /// Wraps `inner` with the given fault model and recovery policy.
    pub fn new(inner: O, faults: FaultModel, policy: RetryPolicy) -> Self {
        UnreliableOracle {
            inner,
            faults,
            policy,
            raw_reads: AtomicU64::new(0),
            logical_queries: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
        }
    }

    /// Raw readings spent against the device so far.
    pub fn raw_reads(&self) -> u64 {
        self.raw_reads.load(Ordering::Relaxed)
    }

    /// Logical queries answered so far.
    pub fn logical_queries(&self) -> u64 {
        self.logical_queries.load(Ordering::Relaxed)
    }

    /// Queries that exhausted every attempt and fell back to the
    /// last-gasp reading.
    pub fn exhausted_queries(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Raw reads per logical query (`1.0` for a perfect oracle; `0.0`
    /// before the first query).
    pub fn overhead(&self) -> f64 {
        let logical = self.logical_queries();
        if logical == 0 {
            0.0
        } else {
            self.raw_reads() as f64 / logical as f64
        }
    }
}

impl<O: MembershipOracle> UnreliableOracle<O> {
    /// One logical membership query with recovery, reporting exhaustion
    /// instead of falling back.
    ///
    /// [`MembershipOracle::query`] wraps this with the last-gasp
    /// fallback; callers that must *know* when access failed (rather
    /// than absorb a possibly-wrong bit) use this form.
    pub fn query_checked(&self, x: &BitVec) -> Result<bool, QueryError> {
        self.logical_queries.fetch_add(1, Ordering::Relaxed);
        counter!("oracle.query.logical", 1);
        recover(&self.policy, |attempt| {
            self.raw_reads.fetch_add(1, Ordering::Relaxed);
            counter!("oracle.query.raw_reads", 1);
            let raw = self.inner.query(x);
            self.faults.roll(x, attempt).apply(raw)
        })
    }
}

impl<O: MembershipOracle> MembershipOracle for UnreliableOracle<O> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn query(&self, x: &BitVec) -> bool {
        match self.query_checked(x) {
            Ok(bit) => bit,
            Err(_) => {
                // Degrade gracefully: one last non-droppable reading,
                // still subject to flips.
                self.exhausted.fetch_add(1, Ordering::Relaxed);
                counter!("oracle.query.exhausted", 1);
                self.raw_reads.fetch_add(1, Ordering::Relaxed);
                counter!("oracle.query.raw_reads", 1);
                let raw = self.inner.query(x);
                raw ^ self.faults.flip_last_gasp(x, self.policy.max_attempts)
            }
        }
    }
}

impl<O: ExampleOracle> ExampleOracle for UnreliableOracle<O> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    /// Draws the next labeled example through the fault model.
    ///
    /// A dropped or unavailable reading loses the drawn example (the
    /// attacker cannot replay a random draw) and retries with a fresh
    /// one, up to the policy's attempt budget; a flip mislabels it.
    /// Majority voting does not apply: there is no way to re-observe
    /// the same random example.
    fn example<R: Rng + ?Sized>(&self, rng: &mut R) -> (BitVec, bool) {
        self.logical_queries.fetch_add(1, Ordering::Relaxed);
        counter!("oracle.query.logical", 1);
        let mut last = None;
        for attempt in 0..self.policy.max_attempts {
            counter!("harness.retry.attempts", 1);
            self.raw_reads.fetch_add(1, Ordering::Relaxed);
            counter!("oracle.query.raw_reads", 1);
            let (x, y) = self.inner.example(rng);
            match self.faults.roll(&x, attempt).apply(y) {
                Some(bit) => return (x, bit),
                None => last = Some((x, y)),
            }
        }
        // Every attempt was lost: degrade to the last drawn example
        // with a last-gasp (flip-only) reading.
        counter!("harness.retry.exhausted", 1);
        self.exhausted.fetch_add(1, Ordering::Relaxed);
        counter!("oracle.query.exhausted", 1);
        let (x, y) = last.expect("max_attempts is at least 1");
        let flipped = y ^ self.faults.flip_last_gasp(&x, self.policy.max_attempts);
        (x, flipped)
    }
}

/// Simulates an equivalence query from random examples (Angluin \[22\]):
/// draw `budget` examples; if the hypothesis disagrees with any, return
/// it as a counterexample, otherwise accept.
///
/// Accepting guarantees (by the standard argument) that with probability
/// `1 − δ` the hypothesis is `ε`-close to the target when
/// `budget ≥ ln(1/δ)/ε`.
pub fn simulate_equivalence<O, H, R>(
    oracle: &O,
    hypothesis: &H,
    budget: usize,
    rng: &mut R,
) -> EquivalenceResult
where
    O: ExampleOracle,
    H: BooleanFunction + ?Sized,
    R: Rng + ?Sized,
{
    counter!("oracle.equivalence_queries", 1);
    for _ in 0..budget {
        let (x, y) = oracle.example(rng);
        if hypothesis.eval(&x) != y {
            return EquivalenceResult::Counterexample(x);
        }
    }
    EquivalenceResult::Equivalent
}

/// Sample budget for an `(ε, δ)` equivalence simulation:
/// `⌈ln(1/δ)/ε⌉`.
pub fn equivalence_budget(eps: f64, delta: f64) -> usize {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    ((1.0 / delta).ln() / eps).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlam_boolean::FnFunction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn majority(n: usize) -> FnFunction<impl Fn(&BitVec) -> bool> {
        FnFunction::new(n, move |x: &BitVec| x.count_ones() as usize * 2 >= n)
    }

    #[test]
    fn example_oracle_labels_correctly() {
        let mut rng = StdRng::seed_from_u64(1);
        let f = majority(9);
        let oracle = FunctionOracle::uniform(&f);
        for _ in 0..100 {
            let (x, y) = oracle.example(&mut rng);
            assert_eq!(f.eval(&x), y);
        }
        assert_eq!(oracle.queries_used(), 100);
    }

    #[test]
    fn membership_queries_are_counted() {
        let f = majority(5);
        let oracle = FunctionOracle::uniform(&f);
        assert!(oracle.query(&BitVec::ones(5)));
        assert!(!oracle.query(&BitVec::zeros(5)));
        assert_eq!(oracle.queries_used(), 2);
    }

    #[test]
    fn equivalence_accepts_correct_hypothesis() {
        let mut rng = StdRng::seed_from_u64(2);
        let f = majority(7);
        let oracle = FunctionOracle::uniform(&f);
        let h = majority(7);
        assert_eq!(
            simulate_equivalence(&oracle, &h, 200, &mut rng),
            EquivalenceResult::Equivalent
        );
    }

    #[test]
    fn equivalence_finds_counterexample_for_wrong_hypothesis() {
        let mut rng = StdRng::seed_from_u64(3);
        let f = majority(7);
        let oracle = FunctionOracle::uniform(&f);
        let wrong = FnFunction::new(7, |x: &BitVec| x.count_ones() as usize * 2 < 7);
        match simulate_equivalence(&oracle, &wrong, 200, &mut rng) {
            EquivalenceResult::Counterexample(x) => {
                assert_ne!(wrong.eval(&x), f.eval(&x));
            }
            EquivalenceResult::Equivalent => panic!("must find a counterexample"),
        }
    }

    #[test]
    fn oracle_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<FunctionOracle<'_, FnFunction<fn(&BitVec) -> bool>>>();
    }

    #[test]
    fn oracle_counts_concurrently() {
        let f = majority(5);
        let oracle = FunctionOracle::uniform(&f);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..250 {
                        oracle.query(&BitVec::ones(5));
                    }
                });
            }
        });
        assert_eq!(oracle.queries_used(), 1000);
    }

    #[test]
    fn equivalence_budget_formula() {
        // ln(1/0.01)/0.1 = 46.05... -> 47
        assert_eq!(equivalence_budget(0.1, 0.01), 47);
        assert!(equivalence_budget(0.01, 0.01) > equivalence_budget(0.1, 0.01));
    }

    #[test]
    fn unreliable_oracle_is_deterministic() {
        let f = majority(24);
        let faults = FaultModel::new(21, 0.3, 0.2).with_outages(0.1, 2);
        let policy = RetryPolicy::retries(6).with_votes(3);
        let a = UnreliableOracle::new(FunctionOracle::uniform(&f), faults, policy);
        let b = UnreliableOracle::new(FunctionOracle::uniform(&f), faults, policy);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..200 {
            let x = BitVec::random(24, &mut rng);
            assert_eq!(a.query(&x), b.query(&x), "same seed, same answer");
        }
        assert_eq!(a.raw_reads(), b.raw_reads());
        assert_eq!(a.exhausted_queries(), b.exhausted_queries());
        assert_eq!(a.logical_queries(), 200);
    }

    #[test]
    fn majority_vote_recovers_most_flips() {
        let f = majority(32);
        let mut rng = StdRng::seed_from_u64(7);
        let challenges: Vec<BitVec> = (0..400).map(|_| BitVec::random(32, &mut rng)).collect();
        let wrong_of = |policy: RetryPolicy| {
            let oracle = UnreliableOracle::new(
                FunctionOracle::uniform(&f),
                FaultModel::new(8, 0.2, 0.0),
                policy,
            );
            challenges
                .iter()
                .filter(|x| oracle.query(x) != f.eval(x))
                .count()
        };
        let unvoted = wrong_of(RetryPolicy::default());
        let voted = wrong_of(RetryPolicy::retries(9).with_votes(9));
        // 20% of single-shot readings flip; a 9-way majority masks
        // nearly all of them.
        assert!(unvoted > 40, "unvoted errors: {unvoted}");
        assert!(voted < unvoted / 4, "voted {voted} vs unvoted {unvoted}");
    }

    #[test]
    fn drops_cost_overhead_but_not_correctness() {
        let f = majority(16);
        let oracle = UnreliableOracle::new(
            FunctionOracle::uniform(&f),
            FaultModel::new(4, 0.0, 0.4),
            RetryPolicy::retries(16),
        );
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..300 {
            let x = BitVec::random(16, &mut rng);
            assert_eq!(oracle.query(&x), f.eval(&x), "drops never corrupt bits");
        }
        assert!(oracle.overhead() > 1.2, "overhead {}", oracle.overhead());
        assert_eq!(oracle.exhausted_queries(), 0);
    }

    #[test]
    fn exhaustion_degrades_to_last_gasp_reading() {
        let f = majority(12);
        // Every reading is dropped; the fallback reading (flip-free
        // model) still answers correctly.
        let oracle = UnreliableOracle::new(
            FunctionOracle::uniform(&f),
            FaultModel::new(2, 0.0, 1.0),
            RetryPolicy::retries(3),
        );
        let x = BitVec::ones(12);
        assert!(oracle.query_checked(&x).is_err());
        assert_eq!(oracle.query(&x), f.eval(&x));
        assert_eq!(oracle.exhausted_queries(), 1);
        assert_eq!(oracle.raw_reads(), 3 + 3 + 1);
    }

    #[test]
    fn unreliable_oracle_reports_query_budget_counters() {
        use mlam_telemetry::CounterScope;
        let f = majority(12);
        // Every reading drops: a query spends the full attempt budget
        // (3 raw reads) and then the last-gasp read (1 more).
        let oracle = UnreliableOracle::new(
            FunctionOracle::uniform(&f),
            FaultModel::new(2, 0.0, 1.0),
            RetryPolicy::retries(3),
        );
        let scope = CounterScope::new();
        {
            let _guard = scope.enter();
            oracle.query(&BitVec::ones(12));
        }
        let deltas = scope.take();
        assert_eq!(deltas["oracle.query.logical"], 1);
        assert_eq!(deltas["oracle.query.raw_reads"], 4);
        assert_eq!(deltas["oracle.query.exhausted"], 1);
    }

    #[test]
    fn unreliable_examples_flow_through_faults() {
        let f = majority(20);
        let faulty = UnreliableOracle::new(
            FunctionOracle::uniform(&f),
            FaultModel::new(15, 0.25, 0.2),
            RetryPolicy::retries(5),
        );
        let mut rng = StdRng::seed_from_u64(10);
        let examples = faulty.examples(400, &mut rng);
        let wrong = examples.iter().filter(|(x, y)| f.eval(x) != *y).count() as f64 / 400.0;
        // Labels carry roughly the flip rate of errors.
        assert!(wrong > 0.12 && wrong < 0.40, "mislabel rate {wrong}");
        // Drops lose draws: more raw reads than logical examples.
        assert!(faulty.raw_reads() > faulty.logical_queries());
    }

    #[test]
    fn reliable_wrapper_is_transparent() {
        let f = majority(16);
        let plain = FunctionOracle::uniform(&f);
        let wrapped = UnreliableOracle::new(
            FunctionOracle::uniform(&f),
            FaultModel::reliable(),
            RetryPolicy::default(),
        );
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            assert_eq!(plain.example(&mut rng_a), wrapped.example(&mut rng_b));
        }
        assert_eq!(wrapped.raw_reads(), wrapped.logical_queries());
        assert!((wrapped.overhead() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn biased_oracle_draws_from_its_distribution() {
        let mut rng = StdRng::seed_from_u64(4);
        let f = majority(64);
        let oracle =
            FunctionOracle::with_distribution(&f, ChallengeDistribution::ProductBiased(0.9));
        let examples = oracle.examples(200, &mut rng);
        let ones: u32 = examples.iter().map(|(x, _)| x.count_ones()).sum();
        let density = ones as f64 / (64.0 * 200.0);
        assert!(density > 0.85, "density {density}");
        // Under heavy bias the majority function outputs 1 almost always.
        assert!(examples.iter().filter(|(_, y)| *y).count() > 190);
    }
}
