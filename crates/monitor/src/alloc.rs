//! Opt-in heap accounting: a tracking global allocator.
//!
//! [`TrackingAlloc`] wraps the system allocator and, **only while
//! enabled**, keeps current/peak heap byte counts and alloc/dealloc
//! totals in plain static atomics. Binaries opt in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mlam_monitor::alloc::TrackingAlloc = mlam_monitor::alloc::TrackingAlloc;
//! ```
//!
//! and the accounting itself stays off until [`enable`] runs. The bench
//! session calls it only under `MLAM_TRACK_ALLOC=1`, not under
//! `--monitor` alone: accounting costs about 1.2% of the quick suite's
//! wall clock (see `OBSERVABILITY.md`). Disabled, the only cost per
//! allocation is one relaxed atomic load; enabled, it is two relaxed
//! `fetch_add`s plus a CAS loop that runs only while a new peak is
//! being set.
//!
//! The numbers surface as `mlam_mem_alloc_*` gauges on the `/metrics`
//! endpoint — never in the telemetry registry, so `metrics.jsonl`
//! stays bit-identical whether tracking is on or off (heap traffic is
//! scheduler-dependent and must not enter the determinism contract).
//!
//! Accounting is approximate by design: allocations made before
//! [`enable`] are not known to the tracker, so a free observed while
//! enabled can outweigh tracked allocations — the current counter
//! saturates at zero instead of underflowing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static CURRENT: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

/// Turns heap accounting on for the rest of the process lifetime.
/// Counting only happens if the binary also installed [`TrackingAlloc`]
/// as its `#[global_allocator]`.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether heap accounting is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Point-in-time heap statistics (zeros until [`enable`] has run under
/// an installed [`TrackingAlloc`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated (tracked allocations only).
    pub current_bytes: u64,
    /// High-water mark of `current_bytes`.
    pub peak_bytes: u64,
    /// Allocations observed.
    pub allocs: u64,
    /// Deallocations observed.
    pub deallocs: u64,
}

/// Reads the current statistics.
pub fn stats() -> AllocStats {
    AllocStats {
        current_bytes: CURRENT.load(Ordering::Relaxed),
        peak_bytes: PEAK.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
        deallocs: DEALLOCS.load(Ordering::Relaxed),
    }
}

fn on_alloc(size: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let now = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    // Raise the peak if we beat it; racing raisers both converge to
    // the max because the CAS re-reads the latest value.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while now > peak {
        match PEAK.compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => peak = actual,
        }
    }
}

fn on_dealloc(size: u64) {
    DEALLOCS.fetch_add(1, Ordering::Relaxed);
    // Saturate: frees of allocations made before enable() would
    // otherwise underflow the counter.
    let mut now = CURRENT.load(Ordering::Relaxed);
    loop {
        let next = now.saturating_sub(size);
        match CURRENT.compare_exchange_weak(now, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(actual) => now = actual,
        }
    }
}

/// The tracking allocator: system allocation plus (when enabled)
/// byte/call accounting.
pub struct TrackingAlloc;

// SAFETY: all four methods delegate the actual allocation to `System`
// unchanged; the bookkeeping around it is lock-free atomics and never
// allocates itself.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() && enabled() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if enabled() {
            on_dealloc(layout.size() as u64);
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() && enabled() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() && enabled() {
            // Count a realloc as free-then-alloc of the two sizes.
            on_dealloc(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // The test binary does not install TrackingAlloc as its global
    // allocator (that would perturb every other test), so these tests
    // drive the bookkeeping directly and are the only code that moves
    // the statics. The two that do hold this lock, so each sees only
    // its own calls.
    static STATICS: Mutex<()> = Mutex::new(());

    fn statics() -> MutexGuard<'static, ()> {
        STATICS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn alloc_dealloc_bookkeeping_balances() {
        let _statics = statics();
        let before = stats();
        on_alloc(1024);
        on_alloc(512);
        let grown = stats();
        assert_eq!(grown.current_bytes, before.current_bytes + 1536);
        let peak = before.peak_bytes.max(before.current_bytes + 1536);
        assert_eq!(grown.peak_bytes, peak);
        assert_eq!(grown.allocs, before.allocs + 2);
        assert_eq!(grown.deallocs, before.deallocs);

        on_dealloc(512);
        let shrunk = stats();
        assert_eq!(shrunk.current_bytes, before.current_bytes + 1024);
        assert_eq!(shrunk.peak_bytes, peak);
        assert_eq!(shrunk.allocs, grown.allocs);
        assert_eq!(shrunk.deallocs, before.deallocs + 1);

        on_dealloc(1024);
        let freed = stats();
        assert_eq!(freed.current_bytes, before.current_bytes);
        assert_eq!(freed.peak_bytes, peak);
        assert_eq!(freed.allocs, grown.allocs);
        assert_eq!(freed.deallocs, before.deallocs + 2);
    }

    #[test]
    fn dealloc_saturates_at_zero() {
        let _statics = statics();
        on_alloc(256);
        let before = stats();
        // A free of memory allocated before enable() can exceed the
        // tracked bytes: current stops at zero instead of wrapping.
        on_dealloc(before.current_bytes + 4096);
        let freed = stats();
        assert_eq!(freed.current_bytes, 0);
        assert_eq!(freed.peak_bytes, before.peak_bytes);
        assert_eq!(freed.allocs, before.allocs);
        assert_eq!(freed.deallocs, before.deallocs + 1);
    }

    #[test]
    fn enable_flag_flips() {
        enable();
        assert!(enabled());
        enable();
        assert!(enabled(), "enable() is idempotent");
    }
}
