//! Recovery policies: bounded retry and majority voting.
//!
//! Recovery is pure bookkeeping over readings — no wall-clock sleeps.
//! Keeping recovery clock-free is what keeps it deterministic: the same
//! fault pattern always produces the same retry/vote trace and the same
//! `harness.retry.*` counters, at any thread count.

use mlam_telemetry::counter;
use serde::{Deserialize, Serialize};

/// How a logical query recovers from unreliable readings.
///
/// A *logical* query is what the attack asks for; a *raw* reading is
/// one attempt against the device. The policy bounds how many raw
/// readings a logical query may spend ([`max_attempts`]) and how many
/// successful readings it aggregates by majority vote ([`votes`]).
///
/// [`max_attempts`]: RetryPolicy::max_attempts
/// [`votes`]: RetryPolicy::votes
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum raw readings per logical query.
    pub max_attempts: u32,
    /// Successful readings aggregated per logical query (odd). `1`
    /// returns the first successful reading unvoted.
    pub votes: u32,
}

impl Default for RetryPolicy {
    /// One attempt, no vote — the historical perfect-oracle behavior.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            votes: 1,
        }
    }
}

impl RetryPolicy {
    /// Bounded retry: up to `max_attempts` raw readings, no voting.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn retries(max_attempts: u32) -> RetryPolicy {
        assert!(max_attempts > 0, "at least one attempt is required");
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// Majority-votes over `votes` successful readings (k-of-n with
    /// `k = votes/2 + 1`). Raises `max_attempts` to at least `votes`.
    ///
    /// # Panics
    ///
    /// Panics if `votes` is even or zero.
    pub fn with_votes(mut self, votes: u32) -> RetryPolicy {
        assert!(votes % 2 == 1, "vote count must be odd");
        self.votes = votes;
        self.max_attempts = self.max_attempts.max(votes);
        self
    }
}

/// A logical query that could not produce a single successful reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryError {
    /// Raw readings spent before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "oracle query exhausted after {} failed attempts",
            self.attempts
        )
    }
}

impl std::error::Error for QueryError {}

/// Runs one logical query under `policy`.
///
/// `read(attempt)` performs raw reading number `attempt` (0-based) and
/// returns `Some(bit)` for a successful (possibly wrong) reading or
/// `None` for a lost one. Readings are collected until [`votes`]
/// successes or [`max_attempts`] total attempts, then majority-voted.
/// Fewer-than-requested successes still produce an answer (a *short
/// vote*, counted as `harness.retry.short_votes`; ties break toward
/// the first reading); zero successes return [`QueryError`].
///
/// Counters: `harness.retry.attempts` (every raw reading),
/// `harness.retry.vote_disagreements` (non-unanimous votes),
/// `harness.retry.short_votes`, `harness.retry.exhausted`.
///
/// [`votes`]: RetryPolicy::votes
/// [`max_attempts`]: RetryPolicy::max_attempts
///
/// # Example
///
/// ```
/// use mlam_harness::{recover, RetryPolicy};
///
/// // A flaky device: readings 0 and 1 are lost, reading 2 lands.
/// let policy = RetryPolicy::retries(5);
/// let got = recover(&policy, |attempt| (attempt >= 2).then_some(true));
/// assert_eq!(got, Ok(true));
///
/// // All readings lost: the query is exhausted.
/// let none = recover(&policy, |_| None);
/// assert!(none.is_err());
/// ```
pub fn recover(
    policy: &RetryPolicy,
    mut read: impl FnMut(u32) -> Option<bool>,
) -> Result<bool, QueryError> {
    let mut ones = 0u32;
    let mut readings = 0u32;
    let mut first = None;
    let mut attempt = 0u32;
    while attempt < policy.max_attempts && readings < policy.votes {
        counter!("harness.retry.attempts", 1);
        if let Some(bit) = read(attempt) {
            readings += 1;
            ones += u32::from(bit);
            first.get_or_insert(bit);
        }
        attempt += 1;
    }
    if readings == 0 {
        counter!("harness.retry.exhausted", 1);
        return Err(QueryError { attempts: attempt });
    }
    if readings < policy.votes {
        counter!("harness.retry.short_votes", 1);
    }
    if ones != 0 && ones != readings {
        counter!("harness.retry.vote_disagreements", 1);
    }
    let majority = match (2 * ones).cmp(&readings) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        // Even split (only possible on a short vote): the first
        // reading breaks the tie deterministically.
        std::cmp::Ordering::Equal => first.unwrap_or(false),
    };
    Ok(majority)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_single_shot() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.max_attempts, 1);
        assert_eq!(policy.votes, 1);
        assert_eq!(recover(&policy, |_| Some(true)), Ok(true));
        assert_eq!(recover(&policy, |_| None), Err(QueryError { attempts: 1 }));
    }

    #[test]
    fn retry_rides_out_losses() {
        let policy = RetryPolicy::retries(4);
        let got = recover(&policy, |attempt| (attempt == 3).then_some(false));
        assert_eq!(got, Ok(false));
    }

    #[test]
    fn majority_vote_masks_minority_flips() {
        let policy = RetryPolicy::retries(8).with_votes(5);
        // Readings: true, false, true, true, false -> majority true.
        let pattern = [true, false, true, true, false];
        let got = recover(&policy, |attempt| Some(pattern[attempt as usize]));
        assert_eq!(got, Ok(true));
    }

    #[test]
    fn short_vote_still_answers() {
        // Only two of five requested readings land before the budget
        // runs out; both say true.
        let policy = RetryPolicy::retries(6).with_votes(5);
        let got = recover(&policy, |attempt| (attempt >= 4).then_some(true));
        assert_eq!(got, Ok(true));
    }

    #[test]
    fn short_vote_tie_breaks_to_first_reading() {
        let policy = RetryPolicy::retries(5).with_votes(5);
        // One reading is lost, leaving an even split: false, true,
        // (lost), false, true -> tie, first reading wins.
        let pattern = [Some(false), Some(true), None, Some(false), Some(true)];
        let got = recover(&policy, |attempt| pattern[attempt as usize]);
        assert_eq!(got, Ok(false));
    }

    #[test]
    fn with_votes_raises_attempt_budget() {
        let policy = RetryPolicy::retries(1).with_votes(7);
        assert_eq!(policy.max_attempts, 7);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_votes_are_rejected() {
        let _ = RetryPolicy::default().with_votes(4);
    }
}
