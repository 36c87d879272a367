//! The repository's benchmark: one workload per process, a closed loop
//! of attack instances for about `--seconds`, every output checked, and
//! one JSON result line as the last line of stdout.
//!
//! ```text
//! benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs every
//! instance untraced and then traced, reports the per-layer metrics and
//! writes `.bench_trace/<workload>/events.jsonl`. `README.md` next to
//! this file describes the workloads and the metrics.

mod trace;
mod workloads;

use mlam::telemetry::Event;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Recording, Tracer, INSTANCE_SPAN};
use workloads::{Instance, Outcome, Scale, Workload};

/// The reproduction's `mlam_bench::REPRO_SEED`; a test keeps them equal.
const REPRO_SEED: u64 = 0xDA7E_2020;
const DEFAULT_SECONDS: f64 = 25.0;
/// Set-ups per process; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Instances generated in set-up; the timed loop cycles through them.
const POOL: u64 = 256;
/// Where a traced run writes `<workload>/events.jsonl`, under the
/// working directory.
const TRACE_DIR: &str = ".bench_trace";
/// The host speed the end-to-end times are rescaled to, as a time of
/// [`calibration_kernel`]: a round value within the 8 to 13 ms it took
/// on the 2.0 GHz Xeon vCPU of the README's baseline. It only sets the
/// scale; changing it invalidates the baseline.
const CALIBRATION_NOMINAL_S: f64 = 0.010;

/// Digests of the first instances at the default seed. A pure speed
/// change leaves them bit-identical.
const EXPECTED_DIGESTS: [(Workload, [u64; 2]); 4] = [
    (
        Workload::PufLearn,
        [0x6c8a_93c2_df03_32b9, 0x42e8_bbc9_0759_5217],
    ),
    (
        Workload::BrSpectral,
        [0x48f3_d6b2_ef49_761a, 0xb429_2fbb_416d_de2c],
    ),
    (
        Workload::SatSarlock,
        [0x3f8b_a096_e2da_d6ef, 0xae65_12c6_662b_b13a],
    ),
    (
        Workload::SatXor,
        [0x714c_cfd9_d756_7347, 0x6be8_3bd2_43be_0f84],
    ),
];

/// `(name, unit, better)` of every metric an untraced run reports; the
/// regression bounds live in `BENCHMARK.json`. The three times are
/// calibrated: multiplied by `CALIBRATION_NOMINAL_S` over the run's
/// median [`calibration_kernel`] time, which cancels much of a shared
/// host's minute-to-minute speed swings.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("instance_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("oracle_queries", "count", "lower"),
    ("accuracy_mean", "fraction", "higher"),
];

/// `(name, unit, better)` of every metric a traced run reports. A
/// `<span>_pct` is the self time of the spans called `<span>` as a share
/// of the traced instances' time, and a count is per traced instance
/// (a mean over the counted ones).
/// Shares and rates rather than seconds: a layer a workload bypasses
/// reads 0, which is not a time.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("instance_traced_s", "s", "lower"),
    ("puf.label_pct", "%", "lower"),
    ("puf.label_crps", "count", "lower"),
    ("puf.collect_pct", "%", "lower"),
    ("puf.collect_crps", "count", "lower"),
    ("learn.features_pct", "%", "lower"),
    ("learn.train.perceptron_pct", "%", "lower"),
    ("learn.train.logistic_pct", "%", "lower"),
    ("learn.perceptron.epochs", "count", "lower"),
    ("learn.train.example_epochs_per_s", "1/s", "higher"),
    ("learn.search_pct", "%", "lower"),
    ("learn.eval_pct", "%", "lower"),
    ("learn.chow_pct", "%", "lower"),
    ("learn.lmn_pct", "%", "lower"),
    ("boolean.tester_pct", "%", "lower"),
    ("boolean.tester_examples", "count", "lower"),
    ("boolean.tester.examples_per_s", "1/s", "higher"),
    ("sat.find_dip_pct", "%", "lower"),
    ("sat.find_dip_per_s", "1/s", "higher"),
    ("sat.find_dip_p99_over_p50", "ratio", "lower"),
    ("sat.find_dip_growth", "ratio", "lower"),
    ("sat.propagations_per_s", "1/s", "higher"),
    ("sat.conflicts", "count", "lower"),
    ("sat.decisions", "count", "lower"),
    ("sat.propagations", "count", "lower"),
    ("sat.restarts", "count", "lower"),
    ("sat.learnts", "count", "lower"),
    ("sat.lbd_reductions", "count", "lower"),
    ("sat.learnt_clauses", "count", "lower"),
    ("locking.sat_attack_pct", "%", "lower"),
    ("locking.dip.new_pct", "%", "lower"),
    ("locking.dip.constrain_pct", "%", "lower"),
    ("locking.extract_key_pct", "%", "lower"),
    ("netlist.key_check_pct", "%", "lower"),
    ("netlist.simulate_pct", "%", "lower"),
    ("locking.appsat_pct", "%", "lower"),
    ("locking.dips", "count", "lower"),
    ("trace.attributed_pct", "%", "higher"),
    ("trace_overhead_pct", "%", "lower"),
];

/// `sat.find_dip_p99_over_p50` needs at least this many calls (ten
/// beyond the 99th percentile); below it reads 0.
const P99_MIN_CALLS: usize = 1000;

const USAGE: &str =
    "usage: benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]
workloads: puf-learn, br-spectral, sat-sarlock, sat-xor";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = REPRO_SEED;
        let mut seconds = DEFAULT_SECONDS;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// One measured instance.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    outcome: Outcome,
}

fn measure(run: impl FnOnce() -> Outcome) -> Result<Sample, String> {
    let cpu = cpu_ns()?;
    let start = Instant::now();
    let outcome = run();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = (cpu_ns()? - cpu) as f64 / 1e9;
    Ok(Sample {
        wall_s,
        cpu_s,
        outcome,
    })
}

/// CPU time of the calling thread, which does all the work at
/// `MLAM_THREADS=1`.
fn cpu_ns() -> Result<u64, String> {
    let path = "/proc/thread-self/schedstat";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|ns| ns.parse().ok())
        .ok_or_else(|| format!("{path}: unexpected contents {text:?}"))
}

/// A fixed computation that calls no code of the repository, so its
/// time tracks only how fast the host runs right now: random
/// read-modify-writes over a 256 KiB table (like the SAT solver's
/// watch lists), then dot products over 512 KiB of `f64` (like the
/// learners' epochs).
fn calibration_kernel() -> u64 {
    let mut table = vec![0u64; 1 << 15];
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = x as usize & mask;
        table[j] = table[j].wrapping_add(i);
        acc ^= table[j.wrapping_mul(7) & mask];
    }
    let v: Vec<f64> = (0..1 << 16).map(|i| (i as f64).sin()).collect();
    let dots: f64 = (0..40)
        .map(|shift| v.iter().zip(&v[shift..]).map(|(a, b)| a * b).sum::<f64>())
        .sum();
    acc ^ dots.to_bits()
}

fn time_calibration() -> f64 {
    let start = Instant::now();
    std::hint::black_box(calibration_kernel());
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of the process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let path = "/proc/self/status";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Generates the instance pool, then runs one tiny instance so lazy
/// initialisation and cold caches are paid before the timed phase. The
/// tiny instance is the same for every seed: a SAT attack's time varies
/// with its circuit, and a seed-dependent warm-up made `setup_s` vary
/// by a factor of three from seed to seed.
fn setup(workload: Workload, seed: u64) -> (Vec<Instance>, Outcome) {
    let pool = (0..POOL)
        .map(|j| workload.generate(Scale::Full, mlam_par::split_seed(seed, j)))
        .collect();
    let warm_up = workload.generate(Scale::Tiny, REPRO_SEED);
    (pool, workloads::run(&warm_up, Tracer::OFF))
}

/// Whether the closed loop starts another iteration: always until
/// `counted` have run, then only while one more of the median length so
/// far still ends within the budget. A run thus overshoots `budget_s`
/// only by how much its last iteration exceeds the median, or when the
/// counted iterations alone take longer.
fn start_another(iteration_s: &[f64], elapsed_s: f64, budget_s: f64, counted: usize) -> bool {
    iteration_s.len() < counted || elapsed_s + median(iteration_s) <= budget_s
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        prepared = Some(setup(args.workload, args.seed));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let (pool, warm_up) = prepared.expect("set-up runs at least once");
    let mut problems: Vec<String> = warm_up
        .failures
        .iter()
        .map(|f| format!("warm-up: {f}"))
        .collect();

    // Closed loop: the next iteration starts when the previous one ends.
    let recording = args.trace.then(Recording::install);
    let counted = match recording {
        None => args.workload.counted(),
        Some(_) => args.workload.counted().div_ceil(2),
    };
    let start = Instant::now();
    let mut iteration_s = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut calibration_s = Vec::new();
    let mut counted_rss_mb = 0.0;
    for instance in pool.iter().cycle() {
        let elapsed_s = start.elapsed().as_secs_f64();
        if !start_another(&iteration_s, elapsed_s, args.seconds, counted) {
            break;
        }
        let iteration = Instant::now();
        calibration_s.push(time_calibration());
        untraced.push(measure(|| workloads::run(instance, Tracer::OFF))?);
        if let Some(recording) = &recording {
            traced.push(measure(|| {
                recording.traced(|tracer| workloads::run(instance, tracer))
            })?);
        }
        iteration_s.push(iteration.elapsed().as_secs_f64());
        if iteration_s.len() == counted {
            // The peak so far covers the same instances on every host.
            counted_rss_mb = peak_rss_mb()?;
        }
    }

    let samples = || untraced.iter().chain(&traced);
    let failed = samples().filter(|s| !s.outcome.failures.is_empty()).count();
    for (i, s) in samples().enumerate() {
        problems.extend(
            s.outcome
                .failures
                .iter()
                .map(|f| format!("instance {i}: {f}")),
        );
    }
    for (i, (plain, spanned)) in untraced.iter().zip(&traced).enumerate() {
        if (plain.outcome.digest, &plain.outcome.exact_dips)
            != (spanned.outcome.digest, &spanned.outcome.exact_dips)
        {
            problems.push(format!("instance {i}: traced and untraced outputs differ"));
        }
    }
    if args.seed == REPRO_SEED {
        let (_, expected) = EXPECTED_DIGESTS
            .iter()
            .find(|(w, _)| *w == args.workload)
            .expect("every workload has expected digests");
        for (i, (s, want)) in untraced.iter().zip(expected).enumerate() {
            if s.outcome.digest != *want {
                problems.push(format!(
                    "instance {i}: digest {:#018x}, expected {want:#018x}",
                    s.outcome.digest
                ));
            }
        }
    }
    for problem in &problems {
        eprintln!("benchmark: {problem}");
    }

    let metrics = match &recording {
        None => end_to_end_metrics(
            &untraced,
            counted,
            &setup_s,
            median(&calibration_s),
            counted_rss_mb,
        ),
        Some(recording) => {
            let dir = std::path::Path::new(TRACE_DIR).join(args.workload.name());
            recording
                .write(&dir)
                .map_err(|e| format!("{}: {e}", dir.display()))?;
            eprintln!(
                "benchmark: spans written to {}",
                dir.join("events.jsonl").display()
            );
            layer_metrics(&untraced, &traced, counted, &recording.events())
        }
    };
    Ok(Report {
        correct: problems.is_empty(),
        attempted: samples().count(),
        failed,
        metrics,
    })
}

/// Times are medians over every instance; the count and the accuracy are
/// means over the first `counted`, which every run completes, and
/// `rss_mb` is the peak just after them.
fn end_to_end_metrics(
    untraced: &[Sample],
    counted: usize,
    setup_s: &[f64],
    calibration_s: f64,
    rss_mb: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let per_instance = |f: fn(&Sample) -> f64| untraced.iter().map(f).collect::<Vec<_>>();
    let per_counted = |f: fn(&Sample) -> f64| mean(&per_instance(f)[..counted]);
    let wall = median(&per_instance(|s| s.wall_s));
    let cpu = median(&per_instance(|s| s.cpu_s));
    let setup = median(setup_s);
    eprintln!(
        "benchmark: calibration kernel {:.3} ms ({CALIBRATION_NOMINAL_S} s nominal); \
         uncalibrated medians: instance {wall:.5} s, cpu {cpu:.5} s, set-up {setup:.5} s",
        calibration_s * 1e3
    );
    let calibrated = |seconds: f64| seconds * ratio(CALIBRATION_NOMINAL_S, calibration_s);
    END_TO_END
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "instance_s" => calibrated(wall),
                "cpu_s" => calibrated(cpu),
                "setup_s" => calibrated(setup),
                "peak_rss_mb" => rss_mb,
                "oracle_queries" => per_counted(|s| s.outcome.oracle_queries as f64),
                "accuracy_mean" => per_counted(|s| s.outcome.accuracy),
                _ => unreachable!("no rule for end-to-end metric {name}"),
            };
            (name, unit, value)
        })
        .collect()
}

/// Sums each work count over `samples`.
fn sum_counts(samples: &[Sample]) -> BTreeMap<&'static str, f64> {
    let mut counts = BTreeMap::new();
    for sample in samples {
        for (&name, &value) in &sample.outcome.counts {
            *counts.entry(name).or_default() += value;
        }
    }
    counts
}

/// Shares and rates cover every traced instance; the counts are means
/// over the first `counted`, which every run completes.
fn layer_metrics(
    untraced: &[Sample],
    traced: &[Sample],
    counted: usize,
    events: &[Event],
) -> Vec<(&'static str, &'static str, f64)> {
    let totals = trace::span_totals(events);
    let (all, first) = (sum_counts(traced), sum_counts(&traced[..counted]));
    let count = |name: &str| all.get(name).copied().unwrap_or(0.0);
    let per_counted = |name: &str| ratio(first.get(name).copied().unwrap_or(0.0), counted as f64);
    let self_s = |span: &str| totals.self_ns.get(span).copied().unwrap_or(0).max(0) as f64 / 1e9;
    let traced_s = totals.inclusive_ns.get(INSTANCE_SPAN).copied().unwrap_or(0) as f64 / 1e9;
    let mut find_dip = totals.find_dip_ns.clone();
    find_dip.sort_unstable();
    let walls = |samples: &[Sample]| median(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());

    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name {
                "instance_traced_s" => walls(traced),
                "learn.train.example_epochs_per_s" => ratio(
                    count("learn.train.example_epochs"),
                    self_s("learn.train.perceptron") + self_s("learn.train.logistic"),
                ),
                "boolean.tester.examples_per_s" => {
                    ratio(count("boolean.tester_examples"), self_s("boolean.tester"))
                }
                "sat.find_dip_per_s" => ratio(find_dip.len() as f64, self_s("sat.find_dip")),
                "sat.propagations_per_s" => {
                    ratio(count("sat.propagations"), self_s("sat.find_dip"))
                }
                "sat.find_dip_p99_over_p50" if find_dip.len() >= P99_MIN_CALLS => {
                    ratio(percentile(&find_dip, 0.99), percentile(&find_dip, 0.50))
                }
                "sat.find_dip_p99_over_p50" => 0.0,
                "sat.find_dip_growth" => median(
                    &totals
                        .longest_dip_loops
                        .iter()
                        .map(|calls| trace::growth(calls))
                        .collect::<Vec<_>>(),
                ),
                "trace.attributed_pct" => 100.0 * (1.0 - ratio(self_s(INSTANCE_SPAN), traced_s)),
                "trace_overhead_pct" => 100.0 * (ratio(walls(traced), walls(untraced)) - 1.0),
                _ if unit == "%" => {
                    let span = name.strip_suffix("_pct").expect("shares end in _pct");
                    100.0 * ratio(self_s(span), traced_s)
                }
                _ => per_counted(name),
            };
            (name, unit, value)
        })
        .collect()
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted durations.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One worker: `mlam-par` then runs every batch inline on this
    // thread, which is what `cpu_s` reads.
    std::env::set_var("MLAM_THREADS", "1");
    match run(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_documented_flags_and_rejects_the_rest() {
        let parsed = args(&[
            "--workload",
            "sat-xor",
            "--seed",
            "3",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]);
        assert_eq!(
            parsed,
            Ok(Args {
                workload: Workload::SatXor,
                seed: 3,
                seconds: 12.0,
                trace: true
            })
        );
        assert_eq!(
            args(&["--workload", "puf-learn"]).map(|a| a.seed),
            Ok(mlam_bench::REPRO_SEED)
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "puf"],
            &["--workload", "puf-learn", "--trace", "yes"],
            &["--workload", "puf-learn", "--seconds", "0"],
            &["--workload", "puf-learn", "--quick", "1"],
            &["--workload"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_loop_stops_before_an_iteration_would_overrun_the_budget() {
        // Until the counted iterations are done, the budget is ignored.
        assert!(start_another(&[], 0.0, 25.0, 2));
        assert!(start_another(&[30.0], 30.0, 25.0, 2));
        // Then a 3 s iteration starts only if it ends by 25 s.
        let three = [3.0; 6];
        assert!(start_another(&three, 22.0, 25.0, 5));
        assert!(!start_another(&three, 22.1, 25.0, 5));
        // So a run of equal iterations never passes its budget.
        for (iteration, counted) in [(3.3, 5), (0.3, 48), (6.8, 3)] {
            let mut done = Vec::new();
            while start_another(&done, done.iter().sum(), 25.0, counted) {
                done.push(iteration);
            }
            assert!(
                done.iter().sum::<f64>() <= 25.0,
                "{iteration} s × {}",
                done.len()
            );
        }
    }

    #[test]
    fn metric_names_and_counts_fit_the_benchmark_format() {
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for name in &names {
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
    }

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        match value {
            Value::Map(entries) => &entries.iter().find(|(k, _)| k == key).expect(key).1,
            other => panic!("expected an object holding {key}, got {}", other.kind()),
        }
    }

    fn text(value: &Value) -> &str {
        match value {
            Value::Str(s) => s,
            other => panic!("expected a string, got {}", other.kind()),
        }
    }

    fn declared(file: &Value, key: &str) -> Vec<(String, String, String)> {
        match field(file, key) {
            Value::Seq(items) => items
                .iter()
                .map(|m| {
                    let get = |k| text(field(m, k)).to_string();
                    (get("name"), get("unit"), get("better"))
                })
                .collect(),
            other => panic!("{key} must be a list, got {}", other.kind()),
        }
    }

    #[test]
    fn metric_table_matches_benchmark_json() {
        let file: Value = serde_json::from_str(include_str!("../../../../../BENCHMARK.json"))
            .expect("valid JSON");
        let ours = |table: &[(&str, &str, &str)]| {
            table
                .iter()
                .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(declared(&file, "end_to_end"), ours(END_TO_END));
        assert_eq!(declared(&file, "per_layer"), ours(PER_LAYER));
        let workloads: Vec<&str> = match field(&file, "workloads") {
            Value::Seq(items) => items.iter().map(|w| text(field(w, "name"))).collect(),
            other => panic!("workloads must be a list, got {}", other.kind()),
        };
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn traced_tiny_instances_feed_every_layer_metric() {
        let recording = Recording::install();
        let mut seen: BTreeMap<&str, f64> = BTreeMap::new();
        for workload in Workload::ALL {
            let instance = workload.generate(Scale::Tiny, 11);
            let untraced = vec![measure(|| workloads::run(&instance, Tracer::OFF)).unwrap()];
            let traced =
                vec![measure(|| recording.traced(|t| workloads::run(&instance, t))).unwrap()];
            assert_eq!(
                untraced[0].outcome.digest, traced[0].outcome.digest,
                "{workload:?}"
            );
            assert_eq!(untraced[0].outcome.exact_dips, traced[0].outcome.exact_dips);
            for (name, _, value) in layer_metrics(&untraced, &traced, 1, &recording.events()) {
                assert!(value.is_finite(), "{name}");
                *seen.entry(name).or_default() += value.abs();
            }
        }
        // Tiny instances are too small for the p99 and for a clause
        // database reduction; the overhead may read 0.
        let full_scale_only = [
            "sat.find_dip_p99_over_p50",
            "sat.lbd_reductions",
            "trace_overhead_pct",
        ];
        for (name, total) in seen {
            assert!(
                total > 0.0 || full_scale_only.contains(&name),
                "no workload exercises {name}"
            );
        }
    }
}
