//! The seeded fault process applied to oracle readings.
//!
//! Faults are a pure function of `(fault seed, challenge bits, attempt
//! index)`: the decision for a given reading never depends on wall
//! clock, scheduling, or a shared RNG stream, so the same seed yields
//! bit-identical fault behavior at any thread count — the same
//! discipline `mlam-par` imposes on task seeds.
//!
//! Three fault kinds model the failure modes of real CRP acquisition:
//!
//! - [`Fault::Flip`] — the response bit is inverted (metastability,
//!   read noise); retrying or majority voting can mask it because the
//!   flip decision is independent per attempt;
//! - [`Fault::Drop`] — the reading is lost (timeout, bus error);
//!   independent per attempt, so bounded retry recovers;
//! - [`Fault::Outage`] — the device is transiently unavailable *for
//!   this challenge*: the first [`FaultModel::outage_attempts`]
//!   attempts fail deterministically, then service resumes — bounded
//!   retry rides it out.
//!
//! Every injected fault increments the matching `oracle.fault.*`
//! counter, so run manifests record the exact fault history and
//! `mlam-trace compare` can hold it bit-identical across runs.

use mlam_boolean::BitVec;
use mlam_par::splitmix64;
use mlam_telemetry::counter;
use serde::{Deserialize, Serialize};

/// One injected fault on a single oracle reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The response bit is inverted.
    Flip,
    /// The reading is lost; the attacker observes a timeout.
    Drop,
    /// The device is transiently unavailable for this challenge.
    Outage,
}

/// The fault decision for one reading — either clean or a [`Fault`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultOutcome(pub Option<Fault>);

impl FaultOutcome {
    /// Applies the outcome to the raw response bit: `None` when the
    /// reading was lost ([`Fault::Drop`] / [`Fault::Outage`]),
    /// otherwise the (possibly flipped) bit.
    pub fn apply(self, raw: bool) -> Option<bool> {
        match self.0 {
            None => Some(raw),
            Some(Fault::Flip) => Some(!raw),
            Some(Fault::Drop) | Some(Fault::Outage) => None,
        }
    }
}

/// A seeded, deterministic model of unreliable oracle access.
///
/// All rates are probabilities in `[0, 1]`. The model is inert (and
/// skipped entirely) when every rate is zero — wrapping an oracle with
/// [`FaultModel::reliable`] changes neither results nor counters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultModel {
    /// Root seed of the fault process. Two models with the same seed
    /// and rates inject bit-identical faults.
    pub seed: u64,
    /// Per-reading probability that the response bit is inverted.
    pub flip_rate: f64,
    /// Per-reading probability that the reading is lost.
    pub drop_rate: f64,
    /// Per-challenge probability that the oracle starts in a transient
    /// outage for that challenge.
    pub outage_rate: f64,
    /// How many attempts an outage lasts before service resumes.
    pub outage_attempts: u32,
}

impl FaultModel {
    /// A fault-free model: every reading is clean.
    pub fn reliable() -> FaultModel {
        FaultModel {
            seed: 0,
            flip_rate: 0.0,
            drop_rate: 0.0,
            outage_rate: 0.0,
            outage_attempts: 0,
        }
    }

    /// A model with response flips and dropped readings.
    ///
    /// # Panics
    ///
    /// Panics if a rate is outside `[0, 1]`.
    pub fn new(seed: u64, flip_rate: f64, drop_rate: f64) -> FaultModel {
        assert!((0.0..=1.0).contains(&flip_rate), "flip rate in [0,1]");
        assert!((0.0..=1.0).contains(&drop_rate), "drop rate in [0,1]");
        FaultModel {
            seed,
            flip_rate,
            drop_rate,
            outage_rate: 0.0,
            outage_attempts: 0,
        }
    }

    /// Adds transient per-challenge outages lasting `attempts` reads.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn with_outages(mut self, rate: f64, attempts: u32) -> FaultModel {
        assert!((0.0..=1.0).contains(&rate), "outage rate in [0,1]");
        self.outage_rate = rate;
        self.outage_attempts = attempts;
        self
    }

    /// Whether the model can never inject a fault.
    pub fn is_reliable(&self) -> bool {
        self.flip_rate == 0.0 && self.drop_rate == 0.0 && self.outage_rate == 0.0
    }

    /// Draws the fault decision for reading `attempt` of `challenge`.
    ///
    /// Pure in `(seed, challenge, attempt)`; increments the matching
    /// `oracle.fault.*` counter when a fault is injected.
    pub fn roll(&self, challenge: &BitVec, attempt: u32) -> FaultOutcome {
        if self.is_reliable() {
            return FaultOutcome(None);
        }
        let cell = splitmix64(self.seed ^ splitmix64(challenge_fingerprint(challenge)));
        // The outage decision is per challenge — attempts below the
        // outage length fail, later ones see a recovered device.
        if unit(splitmix64(cell ^ OUTAGE_DOMAIN)) < self.outage_rate
            && attempt < self.outage_attempts
        {
            return record(Fault::Outage);
        }
        let per_attempt = splitmix64(cell ^ splitmix64(ATTEMPT_DOMAIN ^ u64::from(attempt)));
        if unit(splitmix64(per_attempt ^ DROP_DOMAIN)) < self.drop_rate {
            return record(Fault::Drop);
        }
        if unit(splitmix64(per_attempt ^ FLIP_DOMAIN)) < self.flip_rate {
            return record(Fault::Flip);
        }
        FaultOutcome(None)
    }

    /// The flip-only decision for reading `attempt` of `challenge` —
    /// the "last gasp" reading an attacker records after exhausting
    /// retries: it cannot be dropped, but it can still be wrong.
    pub fn flip_last_gasp(&self, challenge: &BitVec, attempt: u32) -> bool {
        if self.flip_rate == 0.0 {
            return false;
        }
        let cell = splitmix64(self.seed ^ splitmix64(challenge_fingerprint(challenge)));
        let per_attempt = splitmix64(cell ^ splitmix64(ATTEMPT_DOMAIN ^ u64::from(attempt)));
        if unit(splitmix64(per_attempt ^ FLIP_DOMAIN)) < self.flip_rate {
            record(Fault::Flip);
            return true;
        }
        false
    }
}

const OUTAGE_DOMAIN: u64 = 0x0u64.wrapping_sub(0x61);
const ATTEMPT_DOMAIN: u64 = 0xA77E_3997_0000_0000;
const DROP_DOMAIN: u64 = 0x0u64.wrapping_sub(0x62);
const FLIP_DOMAIN: u64 = 0x0u64.wrapping_sub(0x63);

fn record(fault: Fault) -> FaultOutcome {
    match fault {
        Fault::Flip => counter!("oracle.fault.flipped", 1),
        Fault::Drop => counter!("oracle.fault.dropped", 1),
        Fault::Outage => counter!("oracle.fault.unavailable", 1),
    }
    FaultOutcome(Some(fault))
}

/// Mixes the bits of a challenge into a 64-bit fingerprint via
/// [`splitmix64`] over its backing words and length. Equal challenges
/// always collide (by design — faults are keyed on challenge content);
/// distinct challenges collide with probability ≈ 2⁻⁶⁴.
pub fn challenge_fingerprint(challenge: &BitVec) -> u64 {
    let mut h = splitmix64(challenge.len() as u64);
    for &word in challenge.words() {
        h = splitmix64(h ^ word);
    }
    h
}

/// Maps a `u64` to a float in `[0, 1)` using the top 53 bits.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn challenges(count: usize, n: usize, seed: u64) -> Vec<BitVec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| BitVec::random(n, &mut rng)).collect()
    }

    #[test]
    fn reliable_model_never_faults() {
        let model = FaultModel::reliable();
        for c in challenges(64, 32, 1) {
            for attempt in 0..4 {
                assert_eq!(model.roll(&c, attempt), FaultOutcome(None));
            }
        }
        assert!(model.is_reliable());
    }

    #[test]
    fn rolls_are_pure_in_seed_challenge_attempt() {
        let model = FaultModel::new(9, 0.3, 0.2).with_outages(0.1, 3);
        for c in challenges(128, 48, 2) {
            for attempt in 0..6 {
                assert_eq!(model.roll(&c, attempt), model.roll(&c, attempt));
            }
        }
    }

    #[test]
    fn empirical_rates_track_configured_rates() {
        let model = FaultModel::new(77, 0.25, 0.10);
        let mut flips = 0usize;
        let mut drops = 0usize;
        let total = 4000;
        for c in challenges(total, 64, 3) {
            match model.roll(&c, 0).0 {
                Some(Fault::Flip) => flips += 1,
                Some(Fault::Drop) => drops += 1,
                _ => {}
            }
        }
        let flip_rate = flips as f64 / total as f64;
        let drop_rate = drops as f64 / total as f64;
        // Drops shadow flips, so the observed flip rate is ~0.25 * 0.9.
        assert!((flip_rate - 0.225).abs() < 0.03, "flip rate {flip_rate}");
        assert!((drop_rate - 0.10).abs() < 0.03, "drop rate {drop_rate}");
    }

    #[test]
    fn outages_end_after_configured_attempts() {
        let model = FaultModel::new(5, 0.0, 0.0).with_outages(1.0, 2);
        let c = BitVec::ones(16);
        assert_eq!(model.roll(&c, 0), FaultOutcome(Some(Fault::Outage)));
        assert_eq!(model.roll(&c, 1), FaultOutcome(Some(Fault::Outage)));
        assert_eq!(model.roll(&c, 2), FaultOutcome(None));
    }

    #[test]
    fn flips_are_independent_per_attempt() {
        // With a 50% flip rate, a challenge whose attempt-0 reading
        // flips must not flip on *every* attempt.
        let model = FaultModel::new(13, 0.5, 0.0);
        let mut saw_differing_attempts = false;
        for c in challenges(64, 32, 4) {
            let pattern: Vec<bool> = (0..8)
                .map(|a| model.roll(&c, a) == FaultOutcome(Some(Fault::Flip)))
                .collect();
            if pattern.iter().any(|&f| f) && pattern.iter().any(|&f| !f) {
                saw_differing_attempts = true;
                break;
            }
        }
        assert!(saw_differing_attempts, "flips must vary across attempts");
    }

    #[test]
    fn fingerprint_separates_challenges() {
        let mut seen = std::collections::HashSet::new();
        for c in challenges(2048, 96, 6) {
            seen.insert(challenge_fingerprint(&c));
        }
        assert_eq!(seen.len(), 2048, "fingerprint collisions");
        // Length participates: a zero vector of 8 bits differs from 16.
        assert_ne!(
            challenge_fingerprint(&BitVec::zeros(8)),
            challenge_fingerprint(&BitVec::zeros(16))
        );
    }

    #[test]
    fn apply_maps_outcomes() {
        assert_eq!(FaultOutcome(None).apply(true), Some(true));
        assert_eq!(FaultOutcome(Some(Fault::Flip)).apply(true), Some(false));
        assert_eq!(FaultOutcome(Some(Fault::Drop)).apply(true), None);
        assert_eq!(FaultOutcome(Some(Fault::Outage)).apply(false), None);
    }
}
