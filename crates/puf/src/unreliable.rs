//! Device-level fault injection: any [`PufModel`] behind an unreliable
//! measurement channel.
//!
//! [`UnreliablePuf`] sits *below* the oracle layer: where
//! `mlam-learn`'s `UnreliableOracle` models faults in the attacker's
//! query interface, this wrapper models them in the device itself —
//! noisy evaluation now also flips, drops or refuses readings
//! according to a seeded [`FaultModel`]. Because the wrapper still
//! implements [`PufModel`], the whole existing collection stack works
//! unchanged on top of it: [`crate::crp::collect_noisy`] sees the raw
//! faulty stream, and [`crate::crp::collect_stable`] /
//! [`crate::crp::collect_stable_par`] become exactly the paper's
//! "stable CRP" lab procedure applied to a faulty device — repeated
//! measurement plus majority screening as fault *recovery*.
//!
//! Fault decisions are drawn from the evaluation RNG (one `u64` per
//! reading), so they are precisely as deterministic as the noise
//! stream: under the split-seeded parallel collectors every fault is a
//! pure function of `(root seed, candidate index)` and runs are
//! bit-identical at any thread count.
//!
//! The **ideal** response ([`mlam_boolean::BooleanFunction::eval`], and
//! so [`crate::crp::collect_uniform`]) stays fault-free by design: it
//! is the ground-truth concept attacks are measured against, not a
//! physical measurement.

use crate::PufModel;
use mlam_boolean::{BitVec, BooleanFunction};
use mlam_harness::{FaultModel, RetryPolicy};
use mlam_telemetry::counter;
use rand::Rng;

/// A [`PufModel`] whose noisy evaluations pass through a seeded fault
/// model with bounded-retry recovery.
///
/// # Example
///
/// ```
/// use mlam_harness::{FaultModel, RetryPolicy};
/// use mlam_puf::{ArbiterPuf, PufModel, UnreliablePuf};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let device = UnreliablePuf::new(
///     ArbiterPuf::sample(64, 0.0, &mut rng),
///     FaultModel::new(9, 0.05, 0.02),
///     RetryPolicy::retries(4),
/// );
/// // The stable-CRP screen recovers reliable pairs from the faulty
/// // stream — the paper's lab procedure as fault recovery.
/// let stable = mlam_puf::crp::collect_stable(&device, 100, 7, 1.0, &mut rng);
/// assert!(!stable.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct UnreliablePuf<P> {
    inner: P,
    faults: FaultModel,
    policy: RetryPolicy,
}

impl<P> UnreliablePuf<P> {
    /// Wraps `inner` with the given fault model and retry policy.
    ///
    /// Only the bounded-retry part of the policy applies at device
    /// level (a lost reading is retried up to
    /// [`RetryPolicy::max_attempts`] times, counting backoff units);
    /// majority voting across readings is the collection layer's job —
    /// use [`crate::crp::collect_stable`] or the oracle-level wrapper.
    pub fn new(inner: P, faults: FaultModel, policy: RetryPolicy) -> Self {
        UnreliablePuf {
            inner,
            faults,
            policy,
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps the device.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// The fault model readings pass through.
    pub fn faults(&self) -> &FaultModel {
        &self.faults
    }

    /// The retry policy applied per noisy evaluation.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }
}

impl<P: BooleanFunction> BooleanFunction for UnreliablePuf<P> {
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    /// The **ideal** (fault-free) response of the wrapped device.
    fn eval(&self, x: &BitVec) -> bool {
        self.inner.eval(x)
    }
}

impl<P: PufModel> PufModel for UnreliablePuf<P> {
    fn challenge_bits(&self) -> usize {
        self.inner.challenge_bits()
    }

    /// One noisy measurement through the fault channel.
    ///
    /// Each reading draws the device's own noise and then a fault
    /// decision from `rng`. Lost readings (drops, outages) are retried
    /// up to the policy's attempt budget with backoff counted; if every
    /// attempt is lost the measurement degrades to the last raw
    /// reading (counted as `harness.retry.exhausted`).
    fn eval_noisy<R: Rng + ?Sized>(&self, challenge: &BitVec, rng: &mut R) -> bool {
        let mut last = None;
        let mut losses = 0u32;
        for _attempt in 0..self.policy.max_attempts {
            counter!("harness.retry.attempts", 1);
            let raw = self.inner.eval_noisy(challenge, rng);
            last = Some(raw);
            match self.faults.roll_with_rng(rng).apply(raw) {
                Some(bit) => return bit,
                None => {
                    counter!(
                        "harness.retry.backoff_units",
                        self.policy.backoff.units(losses)
                    );
                    losses += 1;
                }
            }
        }
        counter!("harness.retry.exhausted", 1);
        last.expect("max_attempts is at least 1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterPuf;
    use crate::crp::{collect_noisy, collect_stable, collect_stable_par, collect_uniform};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device(flip: f64, drop: f64, retries: u32) -> UnreliablePuf<ArbiterPuf> {
        let mut rng = StdRng::seed_from_u64(1);
        UnreliablePuf::new(
            ArbiterPuf::sample(48, 0.0, &mut rng),
            FaultModel::new(33, flip, drop),
            RetryPolicy::retries(retries),
        )
    }

    #[test]
    fn ideal_paths_are_fault_free() {
        let dev = device(0.5, 0.5, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let ideal = collect_uniform(&dev, 200, &mut rng);
        for (c, r) in ideal.iter() {
            assert_eq!(dev.eval(c), r);
            assert_eq!(dev.inner().eval(c), r);
        }
    }

    #[test]
    fn noisy_stream_carries_the_flip_rate() {
        let dev = device(0.3, 0.0, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let raw = collect_noisy(&dev, 2000, &mut rng);
        let wrong = raw.iter().filter(|(c, r)| dev.eval(c) != *r).count() as f64 / raw.len() as f64;
        assert!((wrong - 0.3).abs() < 0.05, "observed flip rate {wrong}");
    }

    #[test]
    fn stable_screen_recovers_from_faults() {
        let dev = device(0.15, 0.1, 6);
        let mut rng = StdRng::seed_from_u64(4);
        let stable = collect_stable(&dev, 200, 9, 1.0, &mut rng);
        // Unanimously stable CRPs survive only where faults never hit,
        // so they agree with the ideal device.
        let wrong = stable.iter().filter(|(c, r)| dev.eval(c) != *r).count();
        assert!(
            (wrong as f64) < stable.len() as f64 * 0.02,
            "{wrong}/{} stable CRPs disagree",
            stable.len()
        );
        assert!(!stable.is_empty());
    }

    #[test]
    fn split_seeded_collection_is_deterministic() {
        let dev = device(0.2, 0.15, 5);
        let a = collect_stable_par(&dev, 120, 7, 1.0, 99);
        let b = collect_stable_par(&dev, 120, 7, 1.0, 99);
        assert_eq!(a, b, "same (device, seed) must give the same set");
        assert!(!a.is_empty());
    }

    #[test]
    fn full_drop_degrades_to_last_reading() {
        // Drops never corrupt bits, so even a channel that loses every
        // reading still reports the (noise-free) true response via the
        // last-gasp fallback.
        let dev = device(0.0, 1.0, 3);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let c = BitVec::random(48, &mut rng);
            assert_eq!(dev.eval_noisy(&c, &mut rng), dev.eval(&c));
        }
    }
}
