//! Bit-sliced batch evaluation of the linear-delay PUF family.
//!
//! The additive delay model only consumes a challenge through the signs
//! of its Φ features, and those signs are suffix parities of the
//! challenge bits ([`crate::challenge::phi_transform`]). That makes the
//! evaluation *bit-parallel*: transpose a block of 64 challenges into
//! stage-sliced `u64` words (word `i` holds challenge bit `i` of all 64
//! lanes), run the suffix-parity scan as one XOR per stage for the whole
//! block, and accumulate the 64 delay sums with allocation-free
//! sign-select adds.
//!
//! # Layout and conventions
//!
//! - **Slice words**: `slice[i]` has bit `l` set iff challenge `l` of
//!   the block has bit `i` set. Blocks shorter than 64 challenges leave
//!   the unused high lanes zero.
//! - **Sign words**: after the suffix-XOR scan, bit `l` of word `i` is
//!   set iff `Φ_i(c_l) = −1` (odd suffix parity). The constant feature
//!   `Φ_n = +1` never needs a word.
//! - **Exactness**: `w · (±1.0)` is an exact IEEE-754 sign flip, and the
//!   per-lane accumulation adds the stage terms in index order `0..=n`
//!   starting from `0.0` — the same reduction the scalar
//!   `zip(w, Φ).map(mul).sum()` performs — so every lane's delay sum,
//!   and therefore every response bit, is bit-identical to the scalar
//!   path.
//!
//! # Scalar fallback
//!
//! Non-linear simulators (the bistable ring) have no Φ representation
//! and always take the scalar per-challenge path. Setting the
//! environment variable `MLAM_EVAL_PATH=scalar` forces *every* model
//! onto the scalar path, which is how CI A/B-checks that both paths
//! produce identical responses and counters.
//!
//! Path usage is observable through the telemetry counters
//! `puf.batch.bitsliced_evals`, `puf.batch.bitsliced_blocks` and
//! `puf.batch.scalar_evals`; all three are pure functions of the
//! workload (never of the thread count).

use crate::arbiter::ArbiterPuf;
use crate::feed_forward::FeedForwardArbiterPuf;
use crate::interpose::InterposePuf;
use mlam_boolean::bits::transpose64;
use mlam_boolean::{BitVec, BooleanFunction};
use mlam_telemetry::counter;

/// Number of challenges evaluated per bit-sliced block (one per `u64`
/// lane).
pub const LANES: usize = 64;

/// Challenges handed to each parallel task; a multiple of [`LANES`] so
/// block boundaries are identical at any thread count.
const BATCH_CHUNK: usize = mlam_par::DEFAULT_CHUNK;

/// Whether `MLAM_EVAL_PATH=scalar` is forcing the scalar per-challenge
/// path (checked once per batch call, not per challenge).
pub fn scalar_forced() -> bool {
    std::env::var("MLAM_EVAL_PATH").is_ok_and(|v| v == "scalar")
}

/// The scalar fallback: per-challenge [`BooleanFunction::eval`] fanned
/// out across `MLAM_THREADS` workers, with the `puf.batch.scalar_evals`
/// counter recording the path hit.
pub(crate) fn scalar_eval_batch<F: BooleanFunction + Sync>(
    f: &F,
    challenges: &[BitVec],
) -> Vec<bool> {
    counter!("puf.batch.scalar_evals", challenges.len());
    mlam_par::par_map(challenges, |c| f.eval(c))
}

/// Transposes a block of at most [`LANES`] `n`-bit challenges into
/// stage-sliced words: `out[i]` bit `l` = bit `i` of `challenges[l]`.
/// Unused lanes (blocks shorter than 64) stay zero.
fn transpose_block(challenges: &[BitVec], n: usize, out: &mut Vec<u64>) {
    debug_assert!(challenges.len() <= LANES);
    let groups = n.div_ceil(64);
    out.clear();
    out.resize(groups * 64, 0);
    let mut mat = [0u64; 64];
    for g in 0..groups {
        for (l, slot) in mat.iter_mut().enumerate() {
            *slot = challenges.get(l).map_or(0, |c| c.words()[g]);
        }
        transpose64(&mut mat);
        out[g * 64..(g + 1) * 64].copy_from_slice(&mat);
    }
    out.truncate(n);
}

/// Suffix-XOR scan turning stage-sliced challenge words into Φ sign
/// words: one XOR per stage resolves the suffix parity of all 64 lanes.
fn phi_signs_in_place(slice: &mut [u64]) {
    let mut acc = 0u64;
    for w in slice.iter_mut().rev() {
        acc ^= *w;
        *w = acc;
    }
}

/// Spreads the lane bits of one sign word into per-lane IEEE sign
/// masks: `masks[l]` is `1 << 63` iff lane `l`'s Φ is −1, else `0`.
///
/// The spread makes the accumulation inner loop a pair of contiguous
/// bitwise-xor + add streams the compiler can keep entirely in vector
/// registers — and it is shared by every chain of an XOR arbiter, so
/// the per-lane bit extraction happens once per stage, not once per
/// stage per chain.
#[inline]
fn spread_sign_masks(s: u64, masks: &mut [u64; LANES]) {
    for (l, m) in masks.iter_mut().enumerate() {
        *m = ((s >> l) & 1) << 63;
    }
}

/// Accumulates the 64 delay sums `Δ(c_l) = w·Φ(c_l)` from the sign
/// words. Stage terms are added in index order `0..n` followed by the
/// constant weight, starting from `0.0` — the scalar reduction order —
/// and each `±w_i` is an exact sign-bit flip, so every lane is
/// bit-identical to the scalar dot product.
fn accumulate_delta(weights: &[f64], signs: &[u64], delta: &mut [f64; LANES]) {
    accumulate_delta_multi(&[weights], signs, std::slice::from_mut(delta));
}

/// [`accumulate_delta`] for several chains sharing one sign-word block.
///
/// The per-lane sign masks are spread once into a stage-major table
/// (`n × 64` words, L1-resident) shared by every chain, and the delay
/// sums are accumulated tile-by-tile with the stage loop innermost, so
/// each tile's accumulators stay in registers for the whole scan. Each
/// `(chain, lane)` accumulator still receives its terms in stage order
/// `0..=n` starting from `0.0` — the result is identical to calling
/// [`accumulate_delta`] per chain.
///
/// On x86-64 the kernel is additionally compiled for AVX2 and
/// dispatched at runtime. Both builds execute the same bitwise-xor and
/// IEEE adds in the same order — wider registers change throughput,
/// never results.
fn accumulate_delta_multi(weights: &[&[f64]], signs: &[u64], deltas: &mut [[f64; LANES]]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just verified at runtime.
        return unsafe { accumulate_kernel_avx2(weights, signs, deltas) };
    }
    accumulate_kernel::<16>(weights, signs, deltas);
}

/// The AVX2 compilation of [`accumulate_kernel`]: same Rust body, wider
/// autovectorization, and a 32-lane tile (8 × 4-wide accumulators keep
/// the FP-add pipelines saturated).
///
/// # Safety
///
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_kernel_avx2(weights: &[&[f64]], signs: &[u64], deltas: &mut [[f64; LANES]]) {
    accumulate_kernel::<32>(weights, signs, deltas);
}

/// Portable tile kernel behind [`accumulate_delta_multi`]. `TILE` lanes
/// are accumulated per register tile: small enough that a tile's
/// accumulators live in vector registers across the whole stage scan
/// (delay sums hit memory once per tile, not once per stage), large
/// enough to cover the FP-add latency with independent chains.
#[inline(always)]
fn accumulate_kernel<const TILE: usize>(
    weights: &[&[f64]],
    signs: &[u64],
    deltas: &mut [[f64; LANES]],
) {
    let n = signs.len();
    debug_assert_eq!(weights.len(), deltas.len());
    let mut masks = vec![0u64; n * LANES];
    for (&s, row) in signs.iter().zip(masks.chunks_exact_mut(LANES)) {
        spread_sign_masks(s, row.try_into().expect("row is LANES long"));
    }
    for (w, delta) in weights.iter().zip(deltas.iter_mut()) {
        debug_assert_eq!(w.len(), n + 1);
        let wn = w[n];
        for tile in 0..LANES / TILE {
            let base = tile * TILE;
            let mut acc = [0.0f64; TILE];
            for (i, &wi) in w[..n].iter().enumerate() {
                let bits = wi.to_bits();
                let row = &masks[i * LANES + base..][..TILE];
                for (a, &m) in acc.iter_mut().zip(row) {
                    *a += f64::from_bits(bits ^ m);
                }
            }
            for (d, &a) in delta[base..][..TILE].iter_mut().zip(acc.iter()) {
                *d = a + wn;
            }
        }
    }
}

/// Packs the response bits of the first `lanes` lanes: bit `l` set iff
/// `delta[l] < 0.0`.
fn negative_mask(delta: &[f64; LANES], lanes: usize) -> u64 {
    let mut mask = 0u64;
    for (l, &d) in delta[..lanes].iter().enumerate() {
        if d < 0.0 {
            mask |= 1 << l;
        }
    }
    mask
}

fn check_lengths(challenges: &[BitVec], n: usize) {
    for c in challenges {
        assert_eq!(c.len(), n, "challenge length mismatch");
    }
}

fn push_mask(out: &mut Vec<bool>, mask: u64, lanes: usize) {
    for l in 0..lanes {
        out.push((mask >> l) & 1 == 1);
    }
}

/// Fans blocked evaluation out across `MLAM_THREADS` workers. Chunk and
/// block boundaries depend only on `challenges.len()`, so the result —
/// and the block counter — are bit-identical at any thread count.
fn blocked_eval<K>(challenges: &[BitVec], kernel: K) -> Vec<bool>
where
    K: Fn(&[BitVec], &mut Vec<bool>) + Sync,
{
    counter!("puf.batch.bitsliced_evals", challenges.len());
    let per_chunk = mlam_par::par_chunk_map(challenges, BATCH_CHUNK, |_, chunk| {
        let mut out = Vec::with_capacity(chunk.len());
        for block in chunk.chunks(LANES) {
            counter!("puf.batch.bitsliced_blocks", 1);
            kernel(block, &mut out);
        }
        out
    });
    let mut responses = Vec::with_capacity(challenges.len());
    for part in per_chunk {
        responses.extend(part);
    }
    responses
}

/// Bit-sliced batch evaluation of a single arbiter chain given its
/// Φ-space weight vector (length `n + 1`).
///
/// # Panics
///
/// Panics if any challenge length differs from `weights.len() - 1`.
pub fn eval_arbiter_batch(weights: &[f64], challenges: &[BitVec]) -> Vec<bool> {
    let n = weights.len() - 1;
    check_lengths(challenges, n);
    blocked_eval(challenges, |block, out| {
        let mut signs = Vec::new();
        transpose_block(block, n, &mut signs);
        phi_signs_in_place(&mut signs);
        let mut delta = [0.0f64; LANES];
        accumulate_delta(weights, &signs, &mut delta);
        push_mask(out, negative_mask(&delta, block.len()), block.len());
    })
}

/// Bit-sliced batch evaluation of an XOR arbiter: the Φ sign scan runs
/// once per block and is shared by all chains; the response mask is the
/// XOR of the per-chain masks.
///
/// # Panics
///
/// Panics if `chains` is empty or any challenge length differs from the
/// chains' stage count.
pub fn eval_xor_arbiter_batch(chains: &[ArbiterPuf], challenges: &[BitVec]) -> Vec<bool> {
    assert!(!chains.is_empty(), "need at least one chain");
    let n = chains[0].num_inputs();
    check_lengths(challenges, n);
    let weights: Vec<&[f64]> = chains.iter().map(|c| c.weights()).collect();
    blocked_eval(challenges, |block, out| {
        let mut signs = Vec::new();
        transpose_block(block, n, &mut signs);
        phi_signs_in_place(&mut signs);
        let mut deltas = vec![[0.0f64; LANES]; chains.len()];
        accumulate_delta_multi(&weights, &signs, &mut deltas);
        let mut resp = 0u64;
        for delta in &deltas {
            resp ^= negative_mask(delta, block.len());
        }
        push_mask(out, resp, block.len());
    })
}

/// Bit-sliced batch evaluation of a feed-forward arbiter: the stage
/// recursion runs on 64 lanes at once, and each loop tap overwrites the
/// target stage's select word with the sign mask of the lane deltas —
/// the lane-parallel form of the scalar `overrides` table.
///
/// # Panics
///
/// Panics if any challenge length differs from the stage count.
pub fn eval_feed_forward_batch(puf: &FeedForwardArbiterPuf, challenges: &[BitVec]) -> Vec<bool> {
    let n = puf.num_inputs();
    let alphas = puf.alphas();
    let betas = puf.betas();
    let loops = puf.loops();
    check_lengths(challenges, n);
    blocked_eval(challenges, |block, out| {
        let mut select = Vec::new();
        transpose_block(block, n, &mut select);
        let mut delta = [0.0f64; LANES];
        let mut masks = [0u64; LANES];
        for i in 0..n {
            spread_sign_masks(select[i], &mut masks);
            let (a, b) = (alphas[i], betas[i].to_bits());
            for (d, &chi) in delta.iter_mut().zip(&masks) {
                // Same three operations as the scalar recursion
                // Δ ← χΔ + α + χβ, with χ = ±1 applied as sign flips.
                *d = f64::from_bits(d.to_bits() ^ chi) + a + f64::from_bits(b ^ chi);
            }
            for l in loops {
                if l.tap == i {
                    select[l.target] = negative_mask(&delta, LANES);
                }
            }
        }
        push_mask(out, negative_mask(&delta, block.len()), block.len());
    })
}

/// Bit-sliced batch evaluation of an Interpose PUF: the upper XOR
/// arbiter's response mask becomes the interposed slice word of the
/// lower layer's `n + 1`-stage challenge block.
///
/// # Panics
///
/// Panics if any challenge length differs from the iPUF's.
pub fn eval_interpose_batch(puf: &InterposePuf, challenges: &[BitVec]) -> Vec<bool> {
    let n = puf.num_inputs();
    let pos = puf.position();
    check_lengths(challenges, n);
    let upper_weights: Vec<&[f64]> = puf.upper().chains().iter().map(|c| c.weights()).collect();
    let lower_weights: Vec<&[f64]> = puf.lower().chains().iter().map(|c| c.weights()).collect();
    blocked_eval(challenges, |block, out| {
        let mut raw = Vec::new();
        transpose_block(block, n, &mut raw);
        let mut signs = raw.clone();
        phi_signs_in_place(&mut signs);
        let mut upper_deltas = vec![[0.0f64; LANES]; upper_weights.len()];
        accumulate_delta_multi(&upper_weights, &signs, &mut upper_deltas);
        let mut upper = 0u64;
        for delta in &upper_deltas {
            upper ^= negative_mask(delta, block.len());
        }
        let mut lower = Vec::with_capacity(n + 1);
        lower.extend_from_slice(&raw[..pos]);
        lower.push(upper);
        lower.extend_from_slice(&raw[pos..]);
        phi_signs_in_place(&mut lower);
        let mut lower_deltas = vec![[0.0f64; LANES]; lower_weights.len()];
        accumulate_delta_multi(&lower_weights, &lower, &mut lower_deltas);
        let mut resp = 0u64;
        for delta in &lower_deltas {
            resp ^= negative_mask(delta, block.len());
        }
        push_mask(out, resp, block.len());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn transpose64_matches_naive() {
        let mut rng = StdRng::seed_from_u64(1);
        let original: [u64; 64] = std::array::from_fn(|_| rng.gen());
        let mut t = original;
        transpose64(&mut t);
        for (r, &row) in t.iter().enumerate() {
            for (c, &col) in original.iter().enumerate() {
                assert_eq!((row >> c) & 1, (col >> r) & 1, "element ({r},{c})");
            }
        }
        transpose64(&mut t);
        assert_eq!(t, original, "transpose must be an involution");
    }

    #[test]
    fn transpose_block_slices_stage_bits() {
        let mut rng = StdRng::seed_from_u64(2);
        for (n, lanes) in [(24usize, 64usize), (70, 64), (24, 17), (130, 5)] {
            let block: Vec<BitVec> = (0..lanes).map(|_| BitVec::random(n, &mut rng)).collect();
            let mut slice = Vec::new();
            transpose_block(&block, n, &mut slice);
            assert_eq!(slice.len(), n);
            for (i, &word) in slice.iter().enumerate() {
                for (l, c) in block.iter().enumerate() {
                    assert_eq!((word >> l) & 1 == 1, c.get(i), "stage {i} lane {l}");
                }
                if lanes < 64 {
                    assert_eq!(word >> lanes, 0, "unused lanes must stay zero");
                }
            }
        }
    }

    #[test]
    fn phi_signs_match_suffix_parity_words() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 70;
        let block: Vec<BitVec> = (0..LANES).map(|_| BitVec::random(n, &mut rng)).collect();
        let mut signs = Vec::new();
        transpose_block(&block, n, &mut signs);
        phi_signs_in_place(&mut signs);
        for (l, c) in block.iter().enumerate() {
            let sp = c.suffix_parity_words();
            for i in 0..n {
                assert_eq!(
                    (signs[i] >> l) & 1,
                    (sp[i / 64] >> (i % 64)) & 1,
                    "lane {l} stage {i}"
                );
            }
        }
    }

    #[test]
    fn accumulate_delta_is_bit_identical_to_scalar_dot() {
        use crate::challenge::phi_transform;
        let mut rng = StdRng::seed_from_u64(4);
        for n in [1usize, 24, 64, 65] {
            let weights: Vec<f64> = (0..=n)
                .map(|_| crate::arbiter::gaussian(&mut rng))
                .collect();
            let block: Vec<BitVec> = (0..40).map(|_| BitVec::random(n, &mut rng)).collect();
            let mut signs = Vec::new();
            transpose_block(&block, n, &mut signs);
            phi_signs_in_place(&mut signs);
            let mut delta = [0.0f64; LANES];
            accumulate_delta(&weights, &signs, &mut delta);
            for (l, c) in block.iter().enumerate() {
                let phi = phi_transform(c);
                let scalar: f64 = weights.iter().zip(&phi).map(|(w, p)| w * p).sum();
                assert_eq!(
                    delta[l].to_bits(),
                    scalar.to_bits(),
                    "n {n} lane {l}: {} vs {scalar}",
                    delta[l]
                );
            }
        }
    }

    #[test]
    fn scalar_forced_reads_the_env_knob() {
        // Don't mutate the process environment here (tests run in
        // parallel); just exercise the unset/else branch.
        if std::env::var("MLAM_EVAL_PATH").is_err() {
            assert!(!scalar_forced());
        }
    }
}
