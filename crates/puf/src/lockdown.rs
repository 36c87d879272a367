//! The lockdown interface of Yu et al. \[10\]: preventing ML attacks by
//! construction — by taking the *access* axis away from the adversary.
//!
//! The paper cites \[10\] as a design consequence of the learnability
//! bounds: if an XOR Arbiter PUF is learnable from enough CRPs, the
//! protocol must ensure the attacker never gets them. The lockdown
//! technique lets the *verifier* choose (half of) each challenge from a
//! pre-recorded database and never reuses an authentication round, so a
//! protocol-compliant interface bounds the total CRP exposure.
//!
//! [`LockdownPuf`] wraps any [`PufModel`] behind exactly that
//! discipline: a query budget fixed at enrollment, after which the
//! device refuses. In adversary-model terms this *caps the sample
//! complexity available to any attack*, turning Table I's bounds from
//! attack costs into security margins.

use crate::PufModel;
use mlam_boolean::BitVec;
use std::cell::Cell;
use std::collections::HashSet;

/// Error returned when the lockdown interface refuses a query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockdownError {
    /// The lifetime query budget is exhausted.
    BudgetExhausted,
    /// The challenge was already used in a previous round (replay).
    ChallengeReused,
}

impl std::fmt::Display for LockdownError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockdownError::BudgetExhausted => write!(f, "query budget exhausted"),
            LockdownError::ChallengeReused => write!(f, "challenge already used"),
        }
    }
}

impl std::error::Error for LockdownError {}

/// A PUF behind a lockdown interface: at most `budget` distinct
/// challenges are ever answered, each only once.
#[derive(Debug)]
pub struct LockdownPuf<P> {
    inner: P,
    budget: usize,
    used: std::cell::RefCell<HashSet<BitVec>>,
    answered: Cell<usize>,
}

impl<P: PufModel> LockdownPuf<P> {
    /// Wraps `inner` with a lifetime budget of `budget` queries.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn new(inner: P, budget: usize) -> Self {
        assert!(budget > 0, "budget must be positive");
        LockdownPuf {
            inner,
            budget,
            used: std::cell::RefCell::new(HashSet::new()),
            answered: Cell::new(0),
        }
    }

    /// Queries the device. Each distinct challenge is answered at most
    /// once, and at most `budget` challenges are answered in total.
    ///
    /// # Errors
    ///
    /// [`LockdownError::BudgetExhausted`] once the budget is spent;
    /// [`LockdownError::ChallengeReused`] on a repeated challenge.
    pub fn query(&self, challenge: &BitVec) -> Result<bool, LockdownError> {
        if self.answered.get() >= self.budget {
            return Err(LockdownError::BudgetExhausted);
        }
        if !self.used.borrow_mut().insert(challenge.clone()) {
            return Err(LockdownError::ChallengeReused);
        }
        self.answered.set(self.answered.get() + 1);
        Ok(self.inner.eval(challenge))
    }

    /// Queries answered so far.
    pub fn queries_answered(&self) -> usize {
        self.answered.get()
    }

    /// Remaining budget.
    pub fn remaining_budget(&self) -> usize {
        self.budget - self.answered.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterPuf;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn device(budget: usize, seed: u64) -> LockdownPuf<ArbiterPuf> {
        let mut rng = StdRng::seed_from_u64(seed);
        LockdownPuf::new(ArbiterPuf::sample(32, 0.0, &mut rng), budget)
    }

    #[test]
    fn budget_is_enforced() {
        let mut rng = StdRng::seed_from_u64(1);
        let dev = device(5, 1);
        for _ in 0..5 {
            let c = BitVec::random(32, &mut rng);
            assert!(dev.query(&c).is_ok());
        }
        let c = BitVec::random(32, &mut rng);
        assert_eq!(dev.query(&c), Err(LockdownError::BudgetExhausted));
        assert_eq!(dev.queries_answered(), 5);
        assert_eq!(dev.remaining_budget(), 0);
    }

    #[test]
    fn replay_is_refused() {
        let mut rng = StdRng::seed_from_u64(2);
        let dev = device(10, 2);
        let c = BitVec::random(32, &mut rng);
        assert!(dev.query(&c).is_ok());
        assert_eq!(dev.query(&c), Err(LockdownError::ChallengeReused));
        // Replay does not consume budget.
        assert_eq!(dev.queries_answered(), 1);
    }

    #[test]
    fn eavesdropper_is_crp_starved() {
        // The security argument in numbers: a 100-CRP lifetime budget
        // keeps any learner's training set at <= 100 examples — far
        // below what the device needs to be modeled well.
        let mut rng = StdRng::seed_from_u64(4);
        let dev = device(100, 4);
        let mut eavesdropped = Vec::new();
        loop {
            let c = BitVec::random(32, &mut rng);
            match dev.query(&c) {
                Ok(r) => eavesdropped.push((c, r)),
                Err(LockdownError::BudgetExhausted) => break,
                Err(LockdownError::ChallengeReused) => continue,
            }
        }
        assert_eq!(eavesdropped.len(), 100);
    }
}
