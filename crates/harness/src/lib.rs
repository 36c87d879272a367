//! Fault injection and recovery for unreliable oracles — the
//! `mlam-harness` layer.
//!
//! The paper defines adversary models by the *access type* granted to
//! the attacker (random examples vs. membership/equivalence queries,
//! Section IV), but real CRP acquisition is neither perfect nor
//! uninterruptible: silicon responses flip near the metastable point,
//! measurement channels drop queries, and devices go transiently
//! unavailable. The paper's own experiments work on "noiseless and
//! stable CRPs" precisely because the raw access is unreliable.
//!
//! This crate makes that unreliability a first-class, *seeded* part of
//! the adversary model:
//!
//! - [`FaultModel`] — a deterministic fault process (response flips,
//!   dropped queries, transient outages) keyed on the challenge bits
//!   and a fault seed via [`mlam_par::splitmix64`], so the same seed
//!   produces bit-identical faults at any thread count;
//! - [`RetryPolicy`] — bounded retry and k-of-n majority voting over
//!   repeated readings (the repetition/majority querying used by
//!   active-learning PUF attacks);
//! - [`recover`] — the generic retry/vote executor behind the oracle
//!   adapter in `mlam-learn` ([`UnreliableOracle`]).
//!
//! Everything is observable: injected faults count under
//! `oracle.fault.*` and recovery work under `harness.retry.*`, so
//! `mlam-trace compare` can verify that two same-seed runs saw
//! *exactly* the same faults.
//!
//! [`UnreliableOracle`]: https://docs.rs/mlam-learn
//!
//! # Example
//!
//! ```
//! use mlam_harness::{recover, FaultModel, RetryPolicy};
//! use mlam_boolean::BitVec;
//!
//! // 20% response flips, 10% dropped queries, seeded.
//! let faults = FaultModel::new(5, 0.2, 0.1);
//! let policy = RetryPolicy::retries(8).with_votes(3);
//! let challenge = BitVec::ones(16);
//! // The true response is `true`; readings pass through the fault model.
//! let result = recover(&policy, |attempt| {
//!     faults.roll(&challenge, attempt).apply(true)
//! });
//! // Majority voting over three readings recovers the true bit here.
//! assert_eq!(result, Ok(true));
//! ```

#![warn(missing_docs)]

pub mod fault;
pub mod retry;

pub use fault::{challenge_fingerprint, Fault, FaultModel, FaultOutcome};
pub use retry::{recover, QueryError, RetryPolicy};
