//! CRP-throughput microbench: bit-sliced vs scalar evaluation of a
//! 64-stage 4-XOR Arbiter PUF (the `BENCH_4.json` benchmark).
//!
//! Usage: `cargo run --release -p mlam-bench --bin crp_throughput [--quick] [--json <dir>]`
//!
//! Two experiments:
//!
//! - `collect` gathers CRPs under the **ambient** eval path (bit-sliced
//!   unless `MLAM_EVAL_PATH=scalar`) and folds the responses into
//!   behavior counters (`bench.crp.response_ones`,
//!   `bench.crp.response_checksum`). Running the binary twice — once
//!   plain, once with `MLAM_EVAL_PATH=scalar` — and diffing with
//!   `mlam-trace compare --ignore-counter puf.batch.` proves the two
//!   paths produce byte-identical responses; only the `puf.batch.*`
//!   path-attribution counters may differ.
//! - `throughput` times both paths explicitly at `MLAM_THREADS` 1 and
//!   4 on a fixed challenge set and reports challenges/second, after
//!   asserting the two paths return identical response vectors.

use mlam::boolean::BitVec;
use mlam::puf::challenge::random_challenges;
use mlam::puf::{crp, PufModel, XorArbiterPuf};
use mlam::report::{eng, Table};
use mlam::telemetry::counter;
use mlam_bench::{parse_cli, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const STAGES: usize = 64;
const CHAINS: usize = 4;

struct Params {
    /// CRPs gathered by the `collect` experiment.
    collect_count: usize,
    /// Challenges per timed phase of the `throughput` experiment.
    throughput_count: usize,
    /// Timed repetitions per phase (median reported).
    trials: usize,
}

impl Params {
    fn quick() -> Self {
        Params {
            collect_count: 4_096,
            throughput_count: 8_192,
            trials: 3,
        }
    }

    fn paper() -> Self {
        Params {
            collect_count: 20_000,
            throughput_count: 262_144,
            trials: 5,
        }
    }
}

/// Restores (or removes) an environment variable on drop, so the timed
/// phases can force `MLAM_EVAL_PATH`/`MLAM_THREADS` without leaking the
/// override into the rest of the run.
struct EnvGuard {
    key: &'static str,
    prior: Option<String>,
}

impl EnvGuard {
    fn set(key: &'static str, value: Option<&str>) -> Self {
        let prior = std::env::var(key).ok();
        match value {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
        EnvGuard { key, prior }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match &self.prior {
            Some(v) => std::env::set_var(self.key, v),
            None => std::env::remove_var(self.key),
        }
    }
}

struct CollectSummary {
    crps: usize,
    ones: usize,
    checksum: u64,
}

impl CollectSummary {
    fn to_table(&self) -> Table {
        let mut table = Table::new(
            "CRP collection (ambient eval path)",
            &["crps", "response_ones", "checksum"],
        );
        table.row_display(&[
            &self.crps as &dyn std::fmt::Display,
            &self.ones,
            &format_args!("{:#018x}", self.checksum),
        ]);
        table
    }
}

/// Collects CRPs on the ambient path and folds the response stream into
/// order-sensitive counters that `mlam-trace compare` can diff.
fn run_collect(puf: &XorArbiterPuf, count: usize, rng: &mut StdRng) -> CollectSummary {
    let set = crp::collect_uniform(puf, count, rng);
    let ones = set.crps().iter().filter(|c| c.response).count();
    // Position-weighted wrapping checksum: any response flip or
    // reordering changes it, so counter identity between a scalar and a
    // bit-sliced run certifies the full response vector.
    let mut checksum = 0u64;
    for (i, c) in set.crps().iter().enumerate() {
        if c.response {
            checksum = checksum.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
    }
    counter!("bench.crp.response_ones", ones);
    counter!("bench.crp.response_checksum", checksum);
    CollectSummary {
        crps: set.len(),
        ones,
        checksum,
    }
}

struct Phase {
    path: &'static str,
    threads: usize,
    median_seconds: f64,
    rate: f64,
}

struct ThroughputSummary {
    challenges: usize,
    phases: Vec<Phase>,
}

impl ThroughputSummary {
    fn rate_of(&self, path: &str, threads: usize) -> f64 {
        self.phases
            .iter()
            .find(|p| p.path == path && p.threads == threads)
            .map(|p| p.rate)
            .unwrap_or(f64::NAN)
    }

    fn to_table(&self) -> Table {
        let mut table = Table::new(
            "CRP throughput — 64-stage 4-XOR Arbiter",
            &["path", "threads", "challenges", "median_s", "challenges/s"],
        );
        for p in &self.phases {
            table.row(&[
                p.path.to_string(),
                p.threads.to_string(),
                self.challenges.to_string(),
                format!("{:.4}", p.median_seconds),
                eng(p.rate),
            ]);
        }
        table
    }
}

fn median_eval_seconds(puf: &XorArbiterPuf, challenges: &[BitVec], trials: usize) -> f64 {
    let mut times: Vec<f64> = (0..trials)
        .map(|_| {
            let start = Instant::now();
            let responses = puf.eval_batch(challenges);
            let seconds = start.elapsed().as_secs_f64();
            std::hint::black_box(responses);
            seconds
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Times both eval paths at 1 and 4 threads on one fixed challenge set.
///
/// `MLAM_EVAL_PATH` and `MLAM_THREADS` are forced per phase (the
/// runtime re-reads both on every call) and restored afterwards, so the
/// phase grid is identical no matter what environment the binary runs
/// under — the counters this experiment emits never depend on the
/// ambient A/B configuration.
fn run_throughput(puf: &XorArbiterPuf, challenges: &[BitVec], trials: usize) -> ThroughputSummary {
    // Equivalence first: the two paths must agree bit-for-bit.
    let scalar = {
        let _path = EnvGuard::set("MLAM_EVAL_PATH", Some("scalar"));
        puf.eval_batch(challenges)
    };
    let bitsliced = {
        let _path = EnvGuard::set("MLAM_EVAL_PATH", None);
        puf.eval_batch(challenges)
    };
    assert_eq!(scalar, bitsliced, "scalar and bit-sliced paths disagree");

    let mut phases = Vec::new();
    for (path, forced) in [("scalar", Some("scalar")), ("bitsliced", None)] {
        let _path = EnvGuard::set("MLAM_EVAL_PATH", forced);
        for threads in [1usize, 4] {
            let _threads = EnvGuard::set("MLAM_THREADS", Some(&threads.to_string()));
            let median_seconds = median_eval_seconds(puf, challenges, trials);
            phases.push(Phase {
                path,
                threads,
                median_seconds,
                rate: challenges.len() as f64 / median_seconds,
            });
        }
    }
    ThroughputSummary {
        challenges: challenges.len(),
        phases,
    }
}

fn main() {
    let options = parse_cli(std::env::args(), &[]);
    let params = if options.quick {
        Params::quick()
    } else {
        Params::paper()
    };
    let mut session = Session::start("crp_throughput", &options);
    let mut rng = StdRng::seed_from_u64(session.seed());
    let puf = XorArbiterPuf::sample(STAGES, CHAINS, 0.0, &mut rng);

    let collect = session.run(
        "collect",
        || run_collect(&puf, params.collect_count, &mut rng),
        |r| vec![r.to_table()],
    );
    println!("{}", collect.to_table());

    let challenges = random_challenges(STAGES, params.throughput_count, &mut rng);
    let throughput = session.run(
        "throughput",
        || run_throughput(&puf, &challenges, params.trials),
        |r| vec![r.to_table()],
    );
    println!("{}", throughput.to_table());
    for threads in [1usize, 4] {
        let speedup =
            throughput.rate_of("bitsliced", threads) / throughput.rate_of("scalar", threads);
        println!("bit-sliced speedup @ {threads} thread(s): {speedup:.1}x");
    }

    session.finish();
}
