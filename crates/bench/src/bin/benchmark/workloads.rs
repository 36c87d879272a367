//! The four workloads. Each instance composes the layers' public
//! functions with the parameters of the experiments, checks its
//! outputs the way that experiment's tests do, and hashes the outputs a
//! pure speed change must leave bit-identical.
//!
//! Instances are sized so that a 25-second run holds at least seven of
//! them, which keeps the seed-to-seed spread of a run's median small
//! next to the host's own timing noise. Where that meant shrinking a
//! paper-scale point, the constant says so.

use crate::trace::Tracer;
use mlam::boolean::testing::{HalfspaceTester, Verdict};
use mlam::boolean::BooleanFunction;
use mlam::learn::chow::{table_ii_procedure, ChowConfig};
use mlam::learn::eval::crps_to_accuracy;
use mlam::learn::features::ArbiterPhiFeatures;
use mlam::learn::lmn::{lmn_learn, LmnConfig};
use mlam::learn::logistic::{LogisticConfig, LogisticRegression};
use mlam::learn::perceptron::Perceptron;
use mlam::learn::{FeatureMatrix, LabeledSet};
use mlam::locking::appsat::{appsat, AppSatConfig};
use mlam::locking::dip::DipSolver;
use mlam::locking::sat_attack::{sat_attack, SatAttackConfig};
use mlam::locking::{lock_sarlock, lock_xor, LockedNetlist};
use mlam::netlist::generate::random_circuit;
use mlam::netlist::Netlist;
use mlam::puf::crp::collect_uniform;
use mlam::puf::xor_arbiter::XorArbiterPuf;
use mlam::puf::{ArbiterPuf, BistableRingPuf, BrPufConfig};
use mlam::sat::SolverStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Modelling attacks on Arbiter-family PUFs: learner epochs
    /// dominate and PUF labelling is about 1%, so a learner-kernel
    /// change shows here and a PUF-evaluation change must not.
    PufLearn,
    /// Table III plus Chow/LMN on bistable-ring PUFs: the Boolean
    /// halfspace tester dominates and neither the bit-sliced PUF path
    /// nor SAT runs.
    BrSpectral,
    /// SARLock exact-vs-approximate sweep: about 2^k cheap incremental
    /// solves on a clause database that grows with every DIP.
    SatSarlock,
    /// XOR locking of a 400-gate random circuit: a few larger solves,
    /// plus a simulation-bound exhaustive key check.
    SatXor,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PufLearn,
        Workload::BrSpectral,
        Workload::SatSarlock,
        Workload::SatXor,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PufLearn => "puf-learn",
            Workload::BrSpectral => "br-spectral",
            Workload::SatSarlock => "sat-sarlock",
            Workload::SatXor => "sat-xor",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instances every untraced run completes, even past `--seconds`.
    /// The count and accuracy metrics are means over exactly these, so
    /// they follow from the seed alone, however fast the host is. They
    /// take about 15 s; a traced run counts half as many iterations,
    /// each twice as long.
    pub fn counted(self) -> usize {
        match self {
            Workload::PufLearn | Workload::BrSpectral => 5,
            Workload::SatSarlock => 48,
            Workload::SatXor => 32,
        }
    }

    /// Generates one instance from `seed`.
    pub fn generate(self, scale: Scale, seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let tiny = scale == Scale::Tiny;
        let input = match self {
            Workload::PufLearn => {
                let params = if tiny { &PUF_TINY } else { &PUF_FULL };
                Input::Puf {
                    params,
                    arbiter: ArbiterPuf::sample(params.n, 0.0, &mut rng),
                    xor2: XorArbiterPuf::sample(params.n, 2, 0.0, &mut rng),
                }
            }
            Workload::BrSpectral => {
                let params = if tiny { &BR_TINY } else { &BR_FULL };
                let br = |n: usize, rng: &mut StdRng| {
                    BistableRingPuf::sample(n, BrPufConfig::calibrated(n), rng)
                };
                Input::Br {
                    params,
                    devices: params
                        .points
                        .iter()
                        .map(|&(n, _)| br(n, &mut rng))
                        .collect(),
                    chow_device: br(params.chow_n, &mut rng),
                }
            }
            Workload::SatSarlock | Workload::SatXor => {
                let params = match (self, tiny) {
                    (Workload::SatSarlock, false) => &SARLOCK_FULL,
                    (Workload::SatSarlock, true) => &SARLOCK_TINY,
                    (_, false) => &XOR_FULL,
                    (_, true) => &XOR_TINY,
                };
                let cases = params
                    .key_bits
                    .iter()
                    .map(|&k| {
                        let oracle =
                            random_circuit(params.inputs, params.gates, params.outputs, &mut rng);
                        let locked = match params.lock {
                            Lock::Sarlock => lock_sarlock(&oracle, k, &mut rng),
                            Lock::Xor => lock_xor(&oracle, k, &mut rng),
                        };
                        SatCase {
                            lock: params.lock,
                            oracle,
                            locked,
                        }
                    })
                    .collect();
                Input::Sat { cases }
            }
        };
        Instance {
            input,
            seed: rng.gen(),
        }
    }
}

/// Instance size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// What the timed phase runs: 0.3 to 3.5 seconds per instance.
    Full,
    /// What the warm-up and the tests run: milliseconds per instance.
    Tiny,
}

struct PufParams {
    n: usize,
    train: usize,
    test: usize,
    perceptron_epochs: usize,
    search_start: usize,
    search_cap: usize,
    search_test: usize,
}

const PUF_FULL: PufParams = PufParams {
    n: 64,
    train: 32_000,
    test: 10_000,
    perceptron_epochs: 80,
    search_start: 1_000,
    search_cap: 60_000,
    search_test: 10_000,
};

const PUF_TINY: PufParams = PufParams {
    n: 16,
    train: 2_000,
    test: 1_000,
    perceptron_epochs: 20,
    search_start: 250,
    search_cap: 4_000,
    search_test: 1_000,
};

/// Accuracy the Arbiter learners must reach, and the search's target.
const ARBITER_TARGET: f64 = 0.95;

struct BrParams {
    /// Table III `(n, #CRPs)` points, one device each.
    points: &'static [(usize, usize)],
    eps: f64,
    delta: f64,
    chow_n: usize,
    chow_train: usize,
    chow_test: usize,
    chow_epochs: usize,
    lmn_degrees: &'static [usize],
}

/// Table III's points and tester, except that n = 64 gets 16,000 CRPs
/// instead of the paper's 63,434: at full size that one device takes
/// about 9 s and a run would hold two instances.
const BR_FULL: BrParams = BrParams {
    points: &[(16, 100), (32, 1339), (64, 16_000)],
    eps: 0.1,
    delta: 0.99,
    chow_n: 32,
    chow_train: 10_000,
    chow_test: 10_000,
    chow_epochs: 60,
    lmn_degrees: &[2, 3],
};

const BR_TINY: BrParams = BrParams {
    points: &[(16, 100), (64, 500)],
    eps: 0.1,
    delta: 0.95,
    chow_n: 12,
    chow_train: 1_000,
    chow_test: 1_000,
    chow_epochs: 10,
    lmn_degrees: &[2],
};

/// The Table III point whose verdict is checked.
const BR_CHECKED_N: usize = 64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lock {
    Sarlock,
    Xor,
}

struct SatParams {
    lock: Lock,
    inputs: usize,
    gates: usize,
    outputs: usize,
    /// One locked circuit per entry, attacked in this order.
    key_bits: &'static [usize],
}

/// `exact_vs_approx`'s circuit. Its paper sweep also runs k = 8 and
/// k = 10, at about 1 s and 20 s per circuit.
const SARLOCK_FULL: SatParams = SatParams {
    lock: Lock::Sarlock,
    inputs: 12,
    gates: 50,
    outputs: 2,
    key_bits: &[4, 6, 7],
};

const SARLOCK_TINY: SatParams = SatParams {
    lock: Lock::Sarlock,
    inputs: 8,
    gates: 30,
    outputs: 2,
    key_bits: &[6],
};

/// About 0.4 s per instance, half in `find_dip` and half in the
/// exhaustive key check. At 2,000 gates and 512 key bits, `find_dip`
/// took 8 to 34 s depending on the seed.
const XOR_FULL: SatParams = SatParams {
    lock: Lock::Xor,
    inputs: 14,
    gates: 400,
    outputs: 8,
    key_bits: &[96],
};

const XOR_TINY: SatParams = SatParams {
    lock: Lock::Xor,
    inputs: 10,
    gates: 150,
    outputs: 4,
    key_bits: &[32],
};

/// AppSAT must return a key at least this accurate.
const APPSAT_MIN_ACCURACY: f64 = 0.9;

/// Generated inputs of one instance, plus the seed of its own random
/// stream (challenges, shuffles, AppSAT queries).
pub struct Instance {
    input: Input,
    seed: u64,
}

enum Input {
    Puf {
        params: &'static PufParams,
        arbiter: ArbiterPuf,
        xor2: XorArbiterPuf,
    },
    Br {
        params: &'static BrParams,
        devices: Vec<BistableRingPuf>,
        chow_device: BistableRingPuf,
    },
    Sat {
        cases: Vec<SatCase>,
    },
}

struct SatCase {
    lock: Lock,
    oracle: Netlist,
    locked: LockedNetlist,
}

impl SatCase {
    /// The AppSAT configuration of `exact_vs_approx`, which settles
    /// once the error is within two point-function hits per 2^k
    /// patterns. XOR locking gets no AppSAT run: with the default
    /// configuration it took 4 to 42 s per circuit on 1,000- to
    /// 2,000-gate circuits, depending on the seed.
    fn appsat_config(&self) -> Option<AppSatConfig> {
        match self.lock {
            Lock::Sarlock => Some(AppSatConfig {
                dips_per_round: 1,
                queries_per_round: 32,
                error_threshold: 2.0 / (1u64 << self.locked.num_key_bits()) as f64,
                settlement_rounds: 2,
                max_rounds: 100,
            }),
            Lock::Xor => None,
        }
    }
}

/// What one instance produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Hash of the outputs a pure speed change must not alter.
    pub digest: u64,
    /// CRPs labelled plus DIP and AppSAT oracle queries.
    pub oracle_queries: u64,
    /// Mean held-out accuracy of the instance's learners or AppSAT
    /// keys; for XOR locking, whether the exact key is correct.
    pub accuracy: f64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// DIPs of each exact SAT attack, in attack order.
    pub exact_dips: Vec<usize>,
    /// Work counts by per-layer metric name.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Runs one instance; `tracer` decides whether its layer calls are
/// recorded as spans.
pub fn run(instance: &Instance, tracer: Tracer) -> Outcome {
    let mut rng = StdRng::seed_from_u64(instance.seed);
    let mut out = Outcome::default();
    let mut digest = Digest::new();
    let accuracies = match &instance.input {
        Input::Puf {
            params,
            arbiter,
            xor2,
        } => puf_learn(
            params,
            arbiter,
            xor2,
            &mut rng,
            tracer,
            &mut out,
            &mut digest,
        ),
        Input::Br {
            params,
            devices,
            chow_device,
        } => br_spectral(
            params,
            devices,
            chow_device,
            &mut rng,
            tracer,
            &mut out,
            &mut digest,
        ),
        Input::Sat { cases } => cases
            .iter()
            .map(|case| sat_case(case, &mut rng, tracer, &mut out, &mut digest))
            .collect(),
    };
    out.accuracy = accuracies.iter().sum::<f64>() / accuracies.len() as f64;
    out.digest = digest.finish();
    out
}

fn puf_learn(
    p: &PufParams,
    arbiter: &ArbiterPuf,
    xor2: &XorArbiterPuf,
    rng: &mut StdRng,
    tracer: Tracer,
    out: &mut Outcome,
    digest: &mut Digest,
) -> Vec<f64> {
    let arbiter_acc = learn_device(arbiter, p, rng, tracer, out, digest);
    for acc in arbiter_acc {
        out.check(acc >= ARBITER_TARGET, || {
            format!("Arbiter learner accuracy {acc} < {ARBITER_TARGET}")
        });
    }
    let xor_acc = learn_device(xor2, p, rng, tracer, out, digest);

    let phi = ArbiterPhiFeatures::new(p.n);
    let needed = tracer.layer("learn.search", || {
        crps_to_accuracy(
            arbiter,
            ARBITER_TARGET,
            p.search_start,
            p.search_cap,
            p.search_test,
            |train: &LabeledSet| {
                Perceptron::new(p.perceptron_epochs)
                    .train_with(phi, train)
                    .model
            },
            rng,
        )
    });
    out.check(needed.is_some(), || {
        format!(
            "Arbiter search missed {ARBITER_TARGET} within {} CRPs",
            p.search_cap
        )
    });
    // The doubling search labels its test set plus every training size
    // it tries.
    let mut size = p.search_start;
    let mut searched = p.search_test + size;
    while Some(size) != needed && size < p.search_cap {
        size = (size * 2).min(p.search_cap);
        searched += size;
    }
    out.oracle_queries += searched as u64;
    digest.u64(needed.unwrap_or(0) as u64);
    arbiter_acc.into_iter().chain(xor_acc).collect()
}

/// Labels a train and a test set on `puf`, trains both learners over Φ
/// features and returns their held-out accuracies.
fn learn_device<P: BooleanFunction + Sync>(
    puf: &P,
    p: &PufParams,
    rng: &mut StdRng,
    tracer: Tracer,
    out: &mut Outcome,
    digest: &mut Digest,
) -> [f64; 2] {
    let (train, test) = tracer.layer("puf.label", || {
        let train = LabeledSet::sample_par(puf, p.train, rng);
        (train, LabeledSet::sample_par(puf, p.test, rng))
    });
    out.count("puf.label_crps", (p.train + p.test) as f64);
    out.oracle_queries += (p.train + p.test) as u64;

    let phi = ArbiterPhiFeatures::new(p.n);
    // Standalone, so the feature layer has a time of its own; both
    // learners repeat this build inside their training.
    let features = tracer.layer("learn.features", || FeatureMatrix::build(&phi, &train));
    std::hint::black_box(&features);
    let perceptron = tracer.layer("learn.train.perceptron", || {
        Perceptron::new(p.perceptron_epochs).train_with(phi, &train)
    });
    let logistic_config = LogisticConfig::default();
    let logistic = tracer.layer("learn.train.logistic", || {
        LogisticRegression::new(logistic_config).train_phi(&train, rng)
    });
    out.count("learn.perceptron.epochs", perceptron.epochs_run as f64);
    out.count(
        "learn.train.example_epochs",
        ((perceptron.epochs_run + logistic_config.epochs) * train.len()) as f64,
    );
    digest.f64s(perceptron.model.weights());
    digest.f64s(logistic.model.weights());
    tracer.layer("learn.eval", || {
        [
            test.accuracy_of(&perceptron.model),
            test.accuracy_of(&logistic.model),
        ]
    })
}

fn br_spectral(
    p: &BrParams,
    devices: &[BistableRingPuf],
    chow_device: &BistableRingPuf,
    rng: &mut StdRng,
    tracer: Tracer,
    out: &mut Outcome,
    digest: &mut Digest,
) -> Vec<f64> {
    let tester = HalfspaceTester::new(p.eps, p.delta);
    for (device, &(n, crps)) in devices.iter().zip(p.points) {
        let data = tracer.layer("puf.collect", || {
            collect_uniform(device, crps, rng).to_labeled()
        });
        out.count("puf.collect_crps", crps as f64);
        out.oracle_queries += crps as u64;
        let report = tracer.layer("boolean.tester", || tester.run(n, &data, rng));
        out.count("boolean.tester_examples", report.examples_used as f64);
        let far = report.verdict == Verdict::FarFromHalfspace;
        digest.f64s(&[report.distance_estimate, report.level_one_weight]);
        digest.u64(far as u64);
        if n == BR_CHECKED_N {
            let distance = report.distance_estimate;
            out.check(far && distance > 0.05, || {
                format!(
                    "BR n={n}: verdict {:?}, distance {distance}",
                    report.verdict
                )
            });
        }
    }

    // Table II procedure and LMN on one calibrated device.
    let n = p.chow_n;
    let all = tracer.layer("puf.collect", || {
        let set = collect_uniform(chow_device, p.chow_train + p.chow_test, rng);
        LabeledSet::from_pairs(n, set.to_labeled())
    });
    out.count("puf.collect_crps", all.len() as f64);
    out.oracle_queries += all.len() as u64;
    let train = all.take(p.chow_train);
    let test = LabeledSet::from_pairs(n, all.pairs()[p.chow_train..].to_vec());
    let cell = tracer.layer("learn.chow", || {
        table_ii_procedure(&train, &test, ChowConfig::default(), p.chow_epochs)
    });
    let mut accuracies = vec![cell.test_accuracy];
    for &degree in p.lmn_degrees {
        let lmn = tracer.layer("learn.lmn", || lmn_learn(&train, LmnConfig::new(degree)));
        accuracies.push(tracer.layer("learn.eval", || test.accuracy_of(&lmn.hypothesis)));
    }
    digest.f64s(&accuracies);
    accuracies
}

/// Attacks one locked circuit exactly, then (SARLock only)
/// approximately; returns AppSAT's key accuracy, or the exact key's
/// correctness as 0 or 1.
fn sat_case(
    case: &SatCase,
    rng: &mut StdRng,
    tracer: Tracer,
    out: &mut Outcome,
    digest: &mut Digest,
) -> f64 {
    let k = case.locked.num_key_bits();
    let (dips, key_correct, stats) = if tracer.is_on() {
        replay_sat_attack(case, tracer)
    } else {
        let result = sat_attack(&case.locked, &case.oracle, SatAttackConfig::default());
        (
            result.iterations,
            result.key_is_functionally_correct,
            result.solver_stats,
        )
    };
    let app = case.appsat_config().map(|config| {
        tracer.layer("locking.appsat", || {
            appsat(&case.locked, &case.oracle, config, rng)
        })
    });
    let (app_dips, app_queries) = app
        .as_ref()
        .map_or((0, 0), |a| (a.dip_iterations, a.random_queries));

    out.exact_dips.push(dips);
    out.oracle_queries += (dips + app_dips + app_queries) as u64;
    out.count("locking.dips", (dips + app_dips) as f64);
    for (name, value) in [
        ("sat.conflicts", stats.conflicts),
        ("sat.decisions", stats.decisions),
        ("sat.propagations", stats.propagations),
        ("sat.restarts", stats.restarts),
        ("sat.learnts", stats.learnts),
        ("sat.lbd_reductions", stats.lbd_reductions),
        ("sat.learnt_clauses", stats.learnt_clauses as u64),
    ] {
        out.count(name, value as f64);
    }

    let enough_dips = case.lock != Lock::Sarlock || dips >= 1 << (k - 1);
    let accuracy = app
        .as_ref()
        .map_or(key_correct as u8 as f64, |a| a.estimated_accuracy);
    let app_accurate = app.is_none() || accuracy > APPSAT_MIN_ACCURACY;
    out.check(key_correct, || format!("k={k}: recovered key is wrong"));
    out.check(enough_dips, || {
        format!("k={k}: SARLock fell to {dips} DIPs")
    });
    out.check(app_accurate, || {
        format!("k={k}: AppSAT accuracy {accuracy}")
    });
    // The instance and the check flags only: keys, DIP counts and
    // AppSAT picks depend on the solver's search order.
    digest.netlist(&case.oracle);
    digest.netlist(case.locked.netlist());
    for &word in case.locked.correct_key().words() {
        digest.u64(word);
    }
    for flag in [key_correct, enough_dips, app_accurate] {
        digest.u64(flag as u64);
    }
    accuracy
}

/// `sat_attack`'s own call sequence, with a span around every call:
/// `DipSolver::new` → (`find_dip` → oracle `simulate` → `constrain`)*
/// → `extract_key` → equivalence check.
fn replay_sat_attack(case: &SatCase, tracer: Tracer) -> (usize, bool, SolverStats) {
    let (locked, oracle) = (&case.locked, &case.oracle);
    tracer.layer("locking.sat_attack", || {
        let mut solver = tracer.layer("locking.dip.new", || DipSolver::new(locked));
        let mut dips = 0usize;
        while let Some(dip) = tracer.layer("sat.find_dip", || solver.find_dip()) {
            dips += 1;
            assert!(
                dips <= SatAttackConfig::default().max_iterations,
                "DIP loop exceeded the SAT attack's iteration cap"
            );
            let response = tracer.layer("netlist.simulate", || oracle.simulate(&dip));
            tracer.layer("locking.dip.constrain", || {
                solver.constrain(&dip, &response)
            });
        }
        let key = tracer.layer("locking.extract_key", || solver.extract_key());
        let correct = tracer.layer("netlist.key_check", || {
            if locked.num_primary_inputs() <= 16 {
                locked.equivalent_under_key(oracle, &key)
            } else {
                locked.equivalent_under_key_formal(oracle, &key)
            }
        });
        (dips, correct, solver.stats())
    })
}

/// 64-bit FNV-1a over the fields fed to it.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.u64(x.to_bits());
        }
    }

    fn netlist(&mut self, netlist: &Netlist) {
        self.u64(netlist.num_inputs() as u64);
        for gate in netlist.gates() {
            self.bytes(gate.kind.mnemonic().as_bytes());
            for net in &gate.inputs {
                self.u64(net.index() as u64);
            }
        }
        for net in netlist.outputs() {
            self.u64(net.index() as u64);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_instances_pass_their_checks_with_a_stable_digest() {
        for workload in Workload::ALL {
            let instance = workload.generate(Scale::Tiny, 7);
            let first = run(&instance, Tracer::OFF);
            assert!(
                first.failures.is_empty(),
                "{workload:?}: {:?}",
                first.failures
            );
            assert!(
                first.oracle_queries > 0 && first.accuracy > 0.5,
                "{workload:?}"
            );
            let again = run(&workload.generate(Scale::Tiny, 7), Tracer::OFF);
            assert_eq!(first.digest, again.digest, "{workload:?}");
            assert_eq!(first.exact_dips, again.exact_dips, "{workload:?}");
        }
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("sat"), None);
    }
}
