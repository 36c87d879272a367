//! Deterministic parallel runtime for the mlam attack pipeline.
//!
//! Every hot path in the reproduction — batch CRP generation, Fourier
//! coefficient estimation, evaluation sweeps, and the `repro_all`
//! experiment fan-out — funnels through this crate. The design goal is
//! a **hard determinism contract**: for a fixed seed, results are
//! bit-identical at *any* thread count, so an `MLAM_THREADS=4` run must
//! match an `MLAM_THREADS=1` run of the same seed in every counter and
//! table (`crates/bench/tests/determinism.rs` checks it). Three rules
//! make that hold:
//!
//! 1. **Pure element maps** ([`par_map`], [`par_for_each_mut`]): each
//!    element's result depends only on that element, so scheduling
//!    cannot change values, and results are assembled in input order.
//! 2. **Fixed chunk boundaries** ([`par_chunk_map`]): reductions that
//!    are order-sensitive (floating-point sums) are chunked with a
//!    *caller-fixed* chunk size — never derived from the thread count —
//!    and the per-chunk partials are folded sequentially in chunk
//!    order.
//! 3. **Per-task seed splitting** ([`seed::split_seed`]): tasks that
//!    need randomness derive an independent seed from `(root, index)`
//!    instead of sharing a sequential RNG stream.
//!
//! The pool itself is a scoped fork-join over [`std::thread::scope`]:
//! no global state, no queues that outlive a call, and the calling
//! thread always participates as worker 0. Thread count comes from the
//! `MLAM_THREADS` environment variable (default: available
//! parallelism); `MLAM_THREADS=1` executes inline on the calling
//! thread, which is exactly the pre-parallelism behavior.
//!
//! Observability layers (mlam-telemetry) can register a
//! [`context::set_context_hook`] so ambient thread-local context —
//! counter-attribution scopes, span parents — flows into worker
//! threads; the runtime itself stays dependency-free.

#![warn(missing_docs)]

pub mod context;
pub mod pool;
pub mod seed;

pub use context::{set_context_hook, CapturedContext};
pub use pool::{
    par_chunk_map, par_for_each_mut, par_map, par_map_index, par_run, threads, DEFAULT_CHUNK,
};
pub use seed::{split_seed, splitmix64};
