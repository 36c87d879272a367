//! Bridges telemetry's thread-local ambient state onto `mlam-par`
//! worker threads.
//!
//! Telemetry keeps two pieces of per-thread context: the active
//! [`crate::metrics::CounterScope`] (which experiment increments are
//! attributed to) and the innermost live span (what new spans nest
//! under). Both live in thread-locals, so work fanned out to worker
//! threads would lose them — experiment counters would leak out of
//! their scope and worker spans would become roots, *only* at thread
//! counts above one. That asymmetry would break the determinism
//! contract (`crates/bench/tests/determinism.rs` fails on any counter
//! that differs between thread counts), so propagation is not optional
//! polish: it is what makes observability output thread-count
//! invariant.
//!
//! The bridge uses `mlam-par`'s context hook, keeping the dependency
//! direction telemetry → par: the runtime knows nothing about
//! telemetry, it just calls the registered hook at the start of every
//! parallel call and hands each worker the captured context to
//! re-install (RAII) around its task batch.

use crate::metrics;
use crate::span::{self, SpanContext};
use std::any::Any;
use std::sync::Arc;

/// The ambient telemetry state of the thread that submitted a parallel
/// call, in portable form.
struct Captured {
    sink: Option<Arc<metrics::ScopeSink>>,
    span: Option<SpanContext>,
}

impl mlam_par::CapturedContext for Captured {
    fn resume(&self) -> Box<dyn Any> {
        let sink_guard = self
            .sink
            .as_ref()
            .map(|sink| metrics::enter_sink(Arc::clone(sink)));
        let span_guard = self.span.clone().map(span::enter_context);
        Box::new((sink_guard, span_guard))
    }
}

fn capture() -> Option<Box<dyn mlam_par::CapturedContext>> {
    let sink = metrics::current_sink();
    let span = span::current_context();
    if sink.is_none() && span.is_none() {
        return None;
    }
    Some(Box::new(Captured { sink, span }))
}

/// Registers telemetry's context hook with the parallel runtime.
/// Idempotent and cheap; [`crate::metrics::CounterScope::new`] calls
/// it, so any pipeline that attributes counters is wired up before its
/// first parallel call.
pub fn install_parallel_propagation() {
    mlam_par::set_context_hook(capture);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{counter_handle, CounterScope};

    /// End-to-end: a counter scope and a live span both follow work
    /// into `mlam-par` workers, and attribution totals are identical
    /// at every thread count.
    #[test]
    fn context_follows_work_onto_workers() {
        install_parallel_propagation();
        let c = counter_handle("test.propagate.queries");
        let outer = crate::span("propagate-outer");
        let outer_id = outer.id();
        let mut per_thread_totals = Vec::new();
        for t in [1, 2, 4] {
            let scope = CounterScope::new();
            let parents = {
                let _guard = scope.enter();
                mlam_par::pool::par_map_index_with_threads(t, 200, |i| {
                    c.add(1 + (i % 3) as u64);
                    let child = crate::span("propagate-child");
                    child.parent_id()
                })
            };
            for parent in parents {
                assert_eq!(parent, Some(outer_id), "t={t}");
            }
            per_thread_totals.push(scope.take()["test.propagate.queries"]);
        }
        assert_eq!(per_thread_totals[0], per_thread_totals[1]);
        assert_eq!(per_thread_totals[0], per_thread_totals[2]);
    }
}
