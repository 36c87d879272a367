//! Process-global named counters and log₂-bucketed histograms.
//!
//! Handles are cheap `Arc` clones of atomics held in one global
//! registry, so incrementing on a hot path is a single relaxed atomic
//! add. The registry itself is only locked when a *new* name is first
//! used (or a snapshot is taken) — the [`crate::counter!`] and
//! [`crate::histogram!`] macros cache the handle in a `static` after
//! the first lookup.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i`
/// (1 ≤ i ≤ 64) holds values whose highest set bit is `i - 1`, i.e.
/// values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing named counter.
#[derive(Clone)]
pub struct Counter {
    name: Arc<str>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `delta` to the counter (and to the active counter scope).
    pub fn add(&self, delta: u64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
        // Attribute the increment to the thread's active counter scope
        // (if any). The write goes to a thread-local buffer, so scoped
        // attribution adds no cross-thread synchronization to hot
        // paths; buffers drain into the shared scope when the guard
        // that installed the scope on this thread drops.
        if delta > 0 {
            THREAD_SCOPE.with(|slot| {
                if let Some(scope) = slot.borrow_mut().as_mut() {
                    *scope.buffer.entry(Arc::clone(&self.name)).or_insert(0) += delta;
                }
            });
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The counter's current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// The registry name this counter was created under.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Accumulates the counter increments attributable to one logical
/// scope — typically one experiment — across every thread that
/// participates in it.
///
/// Counter *values* stay global (the atomics are always updated);
/// a scope only captures attribution. Install the scope on a thread
/// with [`CounterScope::enter`]; worker threads spawned by `mlam-par`
/// inherit the submitting thread's scope automatically once
/// [`crate::propagate::install_parallel_propagation`] has run (which
/// [`CounterScope::new`] guarantees). Because every participating
/// thread attributes into the same sink and increments are summed,
/// the totals reported by [`CounterScope::take`] are identical at any
/// thread count.
pub struct CounterScope {
    sink: Arc<ScopeSink>,
}

/// The shared accumulation target behind one [`CounterScope`].
pub(crate) struct ScopeSink {
    deltas: Mutex<BTreeMap<String, u64>>,
}

/// Per-thread view of the installed scope: the shared sink plus a
/// local buffer that batches increments between guard drops.
struct ThreadScope {
    sink: Arc<ScopeSink>,
    buffer: BTreeMap<Arc<str>, u64>,
}

impl ThreadScope {
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut deltas = self.sink.deltas.lock().expect("counter scope poisoned");
        for (name, delta) in std::mem::take(&mut self.buffer) {
            *deltas.entry(name.as_ref().to_owned()).or_insert(0) += delta;
        }
    }
}

thread_local! {
    static THREAD_SCOPE: RefCell<Option<ThreadScope>> = const { RefCell::new(None) };
}

impl CounterScope {
    /// A fresh, empty scope. Also registers telemetry's context hook
    /// with the parallel runtime so the scope follows work onto
    /// `mlam-par` worker threads.
    pub fn new() -> CounterScope {
        crate::propagate::install_parallel_propagation();
        CounterScope {
            sink: Arc::new(ScopeSink {
                deltas: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Installs this scope on the current thread; attribution reverts
    /// to the previously installed scope (if any) when the returned
    /// guard drops.
    pub fn enter(&self) -> CounterScopeGuard {
        enter_sink(Arc::clone(&self.sink))
    }

    /// Drains the increments attributed so far (zero entries omitted).
    /// Call after every guard handed out by [`CounterScope::enter`] —
    /// on this thread or any worker — has dropped, or buffered
    /// increments may not have reached the sink yet.
    pub fn take(&self) -> BTreeMap<String, u64> {
        let mut deltas = self.sink.deltas.lock().expect("counter scope poisoned");
        let mut taken = std::mem::take(&mut *deltas);
        taken.retain(|_, v| *v > 0);
        taken
    }
}

impl Default for CounterScope {
    fn default() -> Self {
        CounterScope::new()
    }
}

/// RAII guard that keeps a [`CounterScope`] installed on one thread.
pub struct CounterScopeGuard {
    prev: Option<ThreadScope>,
}

impl Drop for CounterScopeGuard {
    fn drop(&mut self) {
        THREAD_SCOPE.with(|slot| {
            let mut slot = slot.borrow_mut();
            if let Some(mut scope) = slot.take() {
                scope.flush();
            }
            *slot = self.prev.take();
        });
    }
}

/// The sink installed on the current thread, if any (used by the
/// parallel-context hook to carry attribution onto workers).
pub(crate) fn current_sink() -> Option<Arc<ScopeSink>> {
    THREAD_SCOPE.with(|slot| slot.borrow().as_ref().map(|t| Arc::clone(&t.sink)))
}

/// Non-draining read of the increments attributed so far to the scope
/// installed on the current thread, filtered to names starting with
/// one of `prefixes`. Returns `None` when no scope is installed.
///
/// The totals merge the shared sink (already-flushed buffers from
/// guards that have dropped) with the *current thread's* still-live
/// buffer, so a sequential driver reading its own scope mid-run sees
/// every increment it has made. Buffers still live on *other* threads
/// are not visible — callers that need exact totals must read from
/// the thread doing the counting (or after worker guards drop, which
/// `mlam-par` guarantees before a parallel call returns).
pub fn scope_counter_totals(prefixes: &[&str]) -> Option<BTreeMap<String, u64>> {
    THREAD_SCOPE.with(|slot| {
        let slot = slot.borrow();
        let scope = slot.as_ref()?;
        let matches = |name: &str| prefixes.iter().any(|p| name.starts_with(p));
        let mut totals: BTreeMap<String, u64> = scope
            .sink
            .deltas
            .lock()
            .expect("counter scope poisoned")
            .iter()
            .filter(|(name, _)| matches(name))
            .map(|(name, &value)| (name.clone(), value))
            .collect();
        for (name, &delta) in &scope.buffer {
            if matches(name) {
                *totals.entry(name.as_ref().to_owned()).or_insert(0) += delta;
            }
        }
        totals.retain(|_, v| *v > 0);
        Some(totals)
    })
}

/// Installs `sink` as the current thread's attribution target.
pub(crate) fn enter_sink(sink: Arc<ScopeSink>) -> CounterScopeGuard {
    THREAD_SCOPE.with(|slot| {
        let prev = slot.borrow_mut().replace(ThreadScope {
            sink,
            buffer: BTreeMap::new(),
        });
        CounterScopeGuard { prev }
    })
}

/// A log₂-bucketed histogram of `u64` observations.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramCells>,
}

struct HistogramCells {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// The bucket index a value falls into.
pub fn bucket_index(value: u64) -> usize {
    match value {
        0 => 0,
        v => v.ilog2() as usize + 1,
    }
}

/// The exclusive upper bound of a bucket (`None` for the last bucket,
/// whose bound 2^64 does not fit in `u64`).
pub fn bucket_upper_bound(index: usize) -> Option<u64> {
    assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
    1u64.checked_shl(index as u32)
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            inner: Arc::new(HistogramCells {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current counts into a [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.inner.count.load(Ordering::Relaxed),
            sum: self.inner.sum.load(Ordering::Relaxed),
            buckets: self
                .inner
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u32, n))
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of one histogram: total count, total sum, and
/// the non-empty `(bucket_index, count)` pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Non-empty `(log₂ bucket index, count)` pairs.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`q` in `[0, 1]`, clamped) estimated from the
    /// log₂ buckets, or `None` for an empty histogram.
    ///
    /// The estimate is the *inclusive upper edge* of the bucket holding
    /// the rank-`⌈q·count⌉` observation (`2^i − 1` for bucket `i`, `0`
    /// for the zero bucket), i.e. a conservative bound that is never
    /// below the true quantile by more than the bucket width. Bucket
    /// order in the snapshot is not assumed.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut buckets = self.buckets.clone();
        buckets.sort_unstable();
        let mut seen = 0u64;
        for &(index, n) in &buckets {
            seen += n;
            if seen >= rank {
                return Some(bucket_inclusive_max(index as usize));
            }
        }
        // Buckets should sum to `count`; tolerate a short snapshot by
        // answering with the largest populated bucket.
        buckets
            .last()
            .map(|&(index, _)| bucket_inclusive_max(index as usize))
    }
}

/// The largest value a bucket can hold: `0` for the zero bucket,
/// `2^i − 1` for bucket `i`, `u64::MAX` for the last bucket.
fn bucket_inclusive_max(index: usize) -> u64 {
    match bucket_upper_bound(index) {
        Some(bound) => bound - 1,
        None => u64::MAX,
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter increments since `earlier` (zero-delta entries are
    /// dropped; histograms are not diffed).
    pub fn counter_deltas_since(&self, earlier: &MetricsSnapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter_map(|(name, &now)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                let delta = now.saturating_sub(before);
                (delta > 0).then(|| (name.clone(), delta))
            })
            .collect()
    }
}

struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
    })
}

/// Panics unless `name` is a usable metric name: non-empty, printable
/// ASCII, no whitespace. Enforced at registration so a bad name fails
/// fast at its introduction site instead of producing a `metrics.jsonl`
/// line (or a Prometheus exposition line) that downstream parsers
/// choke on.
fn validate_metric_name(name: &str) {
    assert!(!name.is_empty(), "metric name must not be empty");
    for c in name.chars() {
        assert!(
            c.is_ascii() && !c.is_ascii_whitespace() && !c.is_ascii_control(),
            "metric name {name:?} contains {c:?}: names must be printable ASCII \
             with no whitespace (newlines would corrupt line-oriented outputs)"
        );
    }
}

/// The counter registered under `name`, creating it on first use.
///
/// Panics if `name` is empty or contains whitespace, control
/// characters, or non-ASCII (see `validate_metric_name` for the
/// rationale).
pub fn counter_handle(name: &str) -> Counter {
    validate_metric_name(name);
    let mut counters = registry()
        .counters
        .lock()
        .expect("counter registry poisoned");
    counters
        .entry(name.to_owned())
        .or_insert_with(|| Counter {
            name: Arc::from(name),
            cell: Arc::new(AtomicU64::new(0)),
        })
        .clone()
}

/// The histogram registered under `name`, creating it on first use.
///
/// Panics on invalid names, same contract as [`counter_handle`].
pub fn histogram_handle(name: &str) -> Histogram {
    validate_metric_name(name);
    let mut histograms = registry()
        .histograms
        .lock()
        .expect("histogram registry poisoned");
    histograms
        .entry(name.to_owned())
        .or_insert_with(Histogram::new)
        .clone()
}

/// Snapshots every registered counter and histogram.
pub fn snapshot() -> MetricsSnapshot {
    let counters = registry()
        .counters
        .lock()
        .expect("counter registry poisoned")
        .iter()
        .map(|(name, c)| (name.clone(), c.get()))
        .collect();
    let histograms = registry()
        .histograms
        .lock()
        .expect("histogram registry poisoned")
        .iter()
        .map(|(name, h)| (name.clone(), h.snapshot()))
        .collect();
    MetricsSnapshot {
        counters,
        histograms,
    }
}

/// One line of a `metrics.jsonl` dump.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum MetricLine {
    /// One counter.
    Counter {
        /// Counter name.
        name: String,
        /// Counter value at snapshot time.
        value: u64,
    },
    /// One histogram.
    Histogram {
        /// Histogram name.
        name: String,
        /// Total observations.
        count: u64,
        /// Sum of all observed values.
        sum: u64,
        /// Non-empty `(log₂ bucket index, count)` pairs.
        buckets: Vec<(u32, u64)>,
    },
}

/// Writes a snapshot as JSONL: one [`MetricLine`] object per line,
/// counters first, then histograms, each alphabetically.
pub fn write_metrics_jsonl<W: std::io::Write>(
    mut out: W,
    snap: &MetricsSnapshot,
) -> std::io::Result<()> {
    let to_io_err = |e: serde_json::Error| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
    for (name, &value) in &snap.counters {
        let line = serde_json::to_string(&MetricLine::Counter {
            name: name.clone(),
            value,
        })
        .map_err(to_io_err)?;
        writeln!(out, "{line}")?;
    }
    for (name, h) in &snap.histograms {
        let line = serde_json::to_string(&MetricLine::Histogram {
            name: name.clone(),
            count: h.count,
            sum: h.sum,
            buckets: h.buckets.clone(),
        })
        .map_err(to_io_err)?;
        writeln!(out, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_jsonl_lines_deserialize() {
        let c = counter_handle("test.metrics.jsonl_counter");
        c.add(9);
        histogram_handle("test.metrics.jsonl_histogram").observe(5);
        let snap = snapshot();
        let mut buf = Vec::new();
        write_metrics_jsonl(&mut buf, &snap).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut saw_counter = false;
        for line in text.lines() {
            let parsed: MetricLine = serde_json::from_str(line).unwrap();
            if let MetricLine::Counter { name, value } = &parsed {
                if name == "test.metrics.jsonl_counter" {
                    assert!(*value >= 9);
                    saw_counter = true;
                }
            }
        }
        assert!(saw_counter);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = counter_handle("test.metrics.counter_a");
        let before = snapshot();
        c.add(3);
        c.incr();
        assert_eq!(c.get(), before.counters["test.metrics.counter_a"] + 4);
        let after = snapshot();
        let deltas = after.counter_deltas_since(&before);
        assert_eq!(deltas["test.metrics.counter_a"], 4);
    }

    #[test]
    fn handles_alias_the_same_cell() {
        let a = counter_handle("test.metrics.alias");
        let b = counter_handle("test.metrics.alias");
        a.add(2);
        b.add(5);
        assert_eq!(a.get(), b.get());
        assert!(a.get() >= 7);
    }

    #[test]
    fn bucket_index_edges() {
        // Exhaustive around every power-of-two boundary that fits.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        for i in 1..64 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            assert_eq!(bucket_index(lo), i, "low edge of bucket {i}");
            assert_eq!(bucket_index(hi), i, "high edge of bucket {i}");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
    }

    #[test]
    fn bucket_bounds_match_indices() {
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            let bound = bucket_upper_bound(i).expect("all but last bucket have bounds");
            // Everything strictly below the bound lands at or before i.
            assert!(bucket_index(bound - 1) <= i);
            // The bound itself belongs to the next bucket.
            assert_eq!(bucket_index(bound), i + 1);
        }
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_observations_land_in_buckets() {
        let h = histogram_handle("test.metrics.histogram");
        h.observe(0);
        h.observe(1);
        h.observe(7);
        h.observe(8);
        h.observe(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        // The sum cell wraps on overflow, as fetch_add does.
        assert_eq!(snap.sum, u64::MAX.wrapping_add(16));
        let buckets: BTreeMap<u32, u64> = snap.buckets.iter().copied().collect();
        assert_eq!(buckets[&0], 1); // 0
        assert_eq!(buckets[&1], 1); // 1
        assert_eq!(buckets[&3], 1); // 7 in [4, 8)
        assert_eq!(buckets[&4], 1); // 8 in [8, 16)
        assert_eq!(buckets[&64], 1); // u64::MAX
    }

    #[test]
    fn percentiles_from_log2_buckets() {
        let h = histogram_handle("test.metrics.percentile");
        // 90 fast observations in [4, 8), 10 slow ones in [1024, 2048).
        for _ in 0..90 {
            h.observe(5);
        }
        for _ in 0..10 {
            h.observe(1500);
        }
        let snap = h.snapshot();
        // p50 and p90 land in the fast bucket: inclusive max 7.
        assert_eq!(snap.percentile(0.5), Some(7));
        assert_eq!(snap.percentile(0.90), Some(7));
        // p95 and p99 land in the slow bucket: inclusive max 2047.
        assert_eq!(snap.percentile(0.95), Some(2047));
        assert_eq!(snap.percentile(0.99), Some(2047));
        // Extremes clamp to the populated range.
        assert_eq!(snap.percentile(0.0), Some(7));
        assert_eq!(snap.percentile(1.0), Some(2047));
        assert_eq!(snap.percentile(-3.0), Some(7));
        assert_eq!(snap.percentile(7.0), Some(2047));
    }

    #[test]
    fn percentile_handles_zeros_and_extremes() {
        let h = histogram_handle("test.metrics.percentile_edges");
        h.observe(0);
        h.observe(0);
        h.observe(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.percentile(0.5), Some(0), "zero bucket reports 0");
        assert_eq!(snap.percentile(1.0), Some(u64::MAX));
        // Unordered snapshots still work.
        let shuffled = HistogramSnapshot {
            count: snap.count,
            sum: snap.sum,
            buckets: snap.buckets.iter().rev().copied().collect(),
        };
        assert_eq!(shuffled.percentile(0.5), Some(0));
        assert_eq!(HistogramSnapshot::default().percentile(0.5), None);
    }

    #[test]
    fn counter_scopes_attribute_increments() {
        let c = counter_handle("test.metrics.scope_a");
        c.add(100); // outside any scope: global only
        let scope = CounterScope::new();
        {
            let _guard = scope.enter();
            c.add(3);
            counter_handle("test.metrics.scope_b").incr();
        }
        let deltas = scope.take();
        assert_eq!(deltas["test.metrics.scope_a"], 3);
        assert_eq!(deltas["test.metrics.scope_b"], 1);
        // take() drains: a second take sees nothing new.
        assert!(scope.take().is_empty());
        // Increments after the guard dropped are not attributed.
        c.add(7);
        assert!(scope.take().is_empty());
    }

    #[test]
    fn scope_totals_read_without_draining() {
        assert_eq!(scope_counter_totals(&["test."]), None, "no scope installed");
        let a = counter_handle("test.metrics.totals_a");
        let b = counter_handle("test.metrics.totals_other");
        let scope = CounterScope::new();
        {
            let _guard = scope.enter();
            a.add(5);
            b.add(2);
            // Buffered increments on this thread are visible...
            let totals = scope_counter_totals(&["test.metrics.totals_a"]).unwrap();
            assert_eq!(totals["test.metrics.totals_a"], 5);
            // ...and the prefix filter drops non-matching names.
            assert!(!totals.contains_key("test.metrics.totals_other"));
            a.add(1);
            let totals = scope_counter_totals(&["test.metrics.totals_"]).unwrap();
            assert_eq!(totals["test.metrics.totals_a"], 6);
            assert_eq!(totals["test.metrics.totals_other"], 2);
        }
        {
            // Reads after a guard drop see the flushed sink; reading
            // never drains what take() will report.
            let _guard = scope.enter();
            let totals = scope_counter_totals(&["test.metrics.totals_"]).unwrap();
            assert_eq!(totals["test.metrics.totals_a"], 6);
        }
        assert_eq!(scope.take()["test.metrics.totals_a"], 6);
    }

    #[test]
    fn counter_scopes_nest_and_restore() {
        let c = counter_handle("test.metrics.scope_nest");
        let outer = CounterScope::new();
        let inner = CounterScope::new();
        let _outer_guard = outer.enter();
        c.add(1);
        {
            let _inner_guard = inner.enter();
            c.add(10);
        }
        c.add(2);
        drop(_outer_guard);
        assert_eq!(inner.take()["test.metrics.scope_nest"], 10);
        assert_eq!(outer.take()["test.metrics.scope_nest"], 3);
    }

    #[test]
    fn counter_scope_sums_across_threads() {
        let c = counter_handle("test.metrics.scope_threads");
        let scope = CounterScope::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let scope = &scope;
                let c = c.clone();
                s.spawn(move || {
                    let _guard = scope.enter();
                    for _ in 0..25 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(scope.take()["test.metrics.scope_threads"], 100);
    }

    #[test]
    fn counter_names_are_exposed() {
        assert_eq!(
            counter_handle("test.metrics.named").name(),
            "test.metrics.named"
        );
    }

    #[test]
    fn empty_histogram_snapshots_as_default() {
        let h = histogram_handle("test.metrics.empty");
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn valid_names_register() {
        // The full character classes valid names may use.
        counter_handle("test.metrics.valid-name_2:ok");
        histogram_handle("test.metrics.valid.histogram");
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_counter_name_is_rejected() {
        counter_handle("");
    }

    #[test]
    #[should_panic(expected = "no whitespace")]
    fn whitespace_counter_name_is_rejected() {
        counter_handle("oracle queries");
    }

    #[test]
    #[should_panic(expected = "no whitespace")]
    fn newline_counter_name_is_rejected() {
        counter_handle("oracle.queries\ninjected 999");
    }

    #[test]
    #[should_panic(expected = "printable ASCII")]
    fn non_ascii_counter_name_is_rejected() {
        counter_handle("oracle.requêtes");
    }

    #[test]
    #[should_panic(expected = "no whitespace")]
    fn tab_histogram_name_is_rejected() {
        histogram_handle("span\tmicros");
    }

    #[test]
    #[should_panic(expected = "printable ASCII")]
    fn control_char_histogram_name_is_rejected() {
        histogram_handle("span.\u{7}bell");
    }

    #[test]
    fn percentile_empty_histogram_is_none() {
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.percentile(0.0), None);
        assert_eq!(empty.percentile(0.5), None);
        assert_eq!(empty.percentile(1.0), None);
    }

    #[test]
    fn percentile_q0_and_q1_hit_the_populated_extremes() {
        let snap = HistogramSnapshot {
            count: 3,
            sum: 1 + 10 + 1000,
            buckets: vec![(1, 1), (4, 1), (10, 1)],
        };
        // q=0 clamps to rank 1: the smallest populated bucket's
        // inclusive max (bucket 1 holds value 1 → max 1).
        assert_eq!(snap.percentile(0.0), Some(1));
        // q=1 is rank 3: bucket 10 holds [512, 1024) → max 1023.
        assert_eq!(snap.percentile(1.0), Some(1023));
    }

    #[test]
    fn percentile_single_bucket_answers_every_quantile() {
        let snap = HistogramSnapshot {
            count: 50,
            sum: 250,
            buckets: vec![(3, 50)], // all in [4, 8)
        };
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_eq!(snap.percentile(q), Some(7), "q={q}");
        }
    }

    #[test]
    fn percentile_bucket_boundary_rank_lands_on_lower_bucket() {
        // 10 observations: exactly 5 in bucket 2 ([2,4)), 5 in bucket 6
        // ([32,64)). Rank ⌈0.5·10⌉ = 5 is the LAST observation of the
        // lower bucket, so p50 must answer with the lower bucket's max,
        // and any q just above 0.5 must tip into the upper bucket.
        let snap = HistogramSnapshot {
            count: 10,
            sum: 5 * 3 + 5 * 40,
            buckets: vec![(2, 5), (6, 5)],
        };
        assert_eq!(snap.percentile(0.5), Some(3));
        assert_eq!(snap.percentile(0.51), Some(63));
    }

    #[test]
    fn counter_deltas_include_counters_born_after_the_baseline() {
        let earlier = MetricsSnapshot {
            counters: [("old.counter".to_string(), 5)].into_iter().collect(),
            histograms: BTreeMap::new(),
        };
        let later = MetricsSnapshot {
            counters: [
                ("old.counter".to_string(), 9),
                ("new.counter".to_string(), 3),
            ]
            .into_iter()
            .collect(),
            histograms: BTreeMap::new(),
        };
        let deltas = later.counter_deltas_since(&earlier);
        assert_eq!(deltas["old.counter"], 4);
        // A counter absent from the earlier snapshot counts from zero.
        assert_eq!(deltas["new.counter"], 3);
        // And the reverse diff drops the vanished counter entirely
        // (saturating, never underflowing).
        assert!(earlier.counter_deltas_since(&later).is_empty());
    }
}
