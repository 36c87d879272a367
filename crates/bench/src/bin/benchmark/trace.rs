//! The traced run: every layer call the workloads make is wrapped in a
//! telemetry span, the spans are kept in memory, and `events.jsonl` is
//! written once at exit in the `SpanStart`/`SpanEnd` schema that
//! `mlam-trace profile` reads.

use mlam::telemetry::{self, Event, EventKind, JsonlSink, Sink};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Name of the root span around one traced instance.
pub const INSTANCE_SPAN: &str = "instance";

/// Wraps layer calls in spans when tracing is on; a plain call when off.
#[derive(Clone, Copy, Debug)]
pub struct Tracer {
    on: bool,
}

impl Tracer {
    /// No spans: the untraced run.
    pub const OFF: Tracer = Tracer { on: false };

    /// Whether layer calls are being recorded.
    pub fn is_on(self) -> bool {
        self.on
    }

    /// Runs `f` inside a span called `name` when tracing.
    pub fn layer<T>(self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.on.then(|| telemetry::span(name));
        f()
    }
}

/// Receives telemetry events while enabled. The library's own spans
/// (e.g. `locking.appsat`) also arrive here, so recording is switched
/// off between traced instances.
struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
    enabled: Arc<AtomicBool>,
}

impl Sink for MemorySink {
    fn record(&mut self, event: &Event) {
        if self.enabled.load(Ordering::SeqCst) {
            self.events
                .lock()
                .expect("span store poisoned")
                .push(event.clone());
        }
    }
}

/// The in-memory span store of one traced run.
pub struct Recording {
    events: Arc<Mutex<Vec<Event>>>,
    enabled: Arc<AtomicBool>,
}

impl Recording {
    /// Installs the store as a telemetry sink for the rest of the process.
    pub fn install() -> Recording {
        let events = Arc::new(Mutex::new(Vec::new()));
        let enabled = Arc::new(AtomicBool::new(false));
        telemetry::add_sink(Box::new(MemorySink {
            events: Arc::clone(&events),
            enabled: Arc::clone(&enabled),
        }));
        Recording { events, enabled }
    }

    /// Runs one instance under an [`INSTANCE_SPAN`] root, recording
    /// every span it opens.
    pub fn traced<T>(&self, f: impl FnOnce(Tracer) -> T) -> T {
        self.enabled.store(true, Ordering::SeqCst);
        let out = {
            let _root = telemetry::span(INSTANCE_SPAN);
            f(Tracer { on: true })
        };
        self.enabled.store(false, Ordering::SeqCst);
        out
    }

    /// A copy of every recorded event, in dispatch order.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("span store poisoned").clone()
    }

    /// Writes the recorded events to `<dir>/events.jsonl`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut sink = JsonlSink::create(dir.join("events.jsonl"))?;
        for event in self.events.lock().expect("span store poisoned").iter() {
            sink.record(event);
        }
        Ok(())
    }
}

/// Span times aggregated by span name.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// Time inside spans of each name minus their child spans.
    pub self_ns: BTreeMap<String, i64>,
    /// Time inside spans of each name, children included.
    pub inclusive_ns: BTreeMap<String, u64>,
    /// Duration of every `sat.find_dip` span.
    pub find_dip_ns: Vec<u64>,
    /// Per instance: the `sat.find_dip` durations of its longest DIP
    /// loop, in call order.
    pub longest_dip_loops: Vec<Vec<u64>>,
}

/// Aggregates a single-threaded event stream.
pub fn span_totals(events: &[Event]) -> SpanTotals {
    let mut totals = SpanTotals::default();
    let mut names: BTreeMap<u64, &str> = BTreeMap::new();
    // Per instance: DIP-loop durations keyed by the loop's parent span.
    let mut loops: Vec<BTreeMap<u64, Vec<u64>>> = Vec::new();
    for event in events {
        match event.kind {
            EventKind::SpanStart => {
                names.insert(event.id, &event.name);
                if event.name == INSTANCE_SPAN {
                    loops.push(BTreeMap::new());
                }
            }
            EventKind::SpanEnd => {
                let ns = event.elapsed_ns.unwrap_or(0);
                *totals.self_ns.entry(event.name.clone()).or_default() += ns as i64;
                *totals.inclusive_ns.entry(event.name.clone()).or_default() += ns;
                if let Some(parent) = event.parent_id.and_then(|p| names.get(&p)) {
                    *totals.self_ns.entry(parent.to_string()).or_default() -= ns as i64;
                }
                if event.name == "sat.find_dip" {
                    totals.find_dip_ns.push(ns);
                    if let Some(instance) = loops.last_mut() {
                        instance
                            .entry(event.parent_id.unwrap_or(0))
                            .or_default()
                            .push(ns);
                    }
                }
            }
        }
    }
    totals.longest_dip_loops = loops
        .into_iter()
        .filter_map(|instance| instance.into_values().max_by_key(Vec::len))
        .collect();
    totals
}

/// Mean of the last tenth of `durations` over the mean of the first
/// tenth (at least one call each): how much a DIP costs at the end of a
/// loop relative to its start.
pub fn growth(durations: &[u64]) -> f64 {
    let tenth = (durations.len() / 10).max(1);
    if durations.len() < 2 * tenth {
        return 1.0;
    }
    let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
    let first = mean(&durations[..tenth]);
    let last = mean(&durations[durations.len() - tenth..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: EventKind, name: &str, id: u64, parent: Option<u64>, ns: u64) -> Event {
        Event {
            kind,
            name: name.to_string(),
            id,
            parent_id: parent,
            tid: 1,
            depth: 0,
            ts_ns: 0,
            elapsed_ns: (kind == EventKind::SpanEnd).then_some(ns),
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_groups_dip_loops() {
        use EventKind::{SpanEnd as E, SpanStart as S};
        let events = vec![
            event(S, INSTANCE_SPAN, 1, None, 0),
            event(S, "attack", 2, Some(1), 0),
            event(S, "sat.find_dip", 3, Some(2), 0),
            event(E, "sat.find_dip", 3, Some(2), 10),
            event(S, "sat.find_dip", 4, Some(2), 0),
            event(E, "sat.find_dip", 4, Some(2), 30),
            event(E, "attack", 2, Some(1), 50),
            event(E, INSTANCE_SPAN, 1, None, 100),
        ];
        let totals = span_totals(&events);
        assert_eq!(totals.self_ns["sat.find_dip"], 40);
        assert_eq!(totals.self_ns["attack"], 10);
        assert_eq!(totals.self_ns[INSTANCE_SPAN], 50);
        assert_eq!(totals.inclusive_ns[INSTANCE_SPAN], 100);
        assert_eq!(totals.longest_dip_loops, vec![vec![10, 30]]);
        assert_eq!(growth(&[10, 30]), 3.0);
        assert_eq!(growth(&[7]), 1.0);
    }
}
