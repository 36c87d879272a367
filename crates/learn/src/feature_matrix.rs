//! Cached feature matrices — the learning-side half of the batched hot
//! path.
//!
//! Every iterative learner in this crate walks the same `m × d` feature
//! matrix many times (epochs, CMA-ES population members). Before this
//! module each walk either re-derived features from the challenges or
//! chased `Vec<Vec<f64>>` pointers; a [`FeatureMatrix`] computes the
//! features **once** per `(LabeledSet, FeatureMap)` pair and stores them
//! in one layout: packed sign bits. Every feature of every
//! [`FeatureMap`] is `±1.0`, so each is one *bit* (set ⇔ the feature is
//! `−1.0`), a row of 65 Φ features costs 16 bytes instead of 520, and
//! whole training sets fit in cache.
//!
//! Every `f64` kernel reproduces the one-row scalar loop **bit for
//! bit**: a feature `f ∈ {+1, −1}` turns `w·f` into an IEEE-exact
//! sign-bit flip of `w` ([`sign_select`]), and each value is
//! accumulated from the same start in the same order as the scalar loop
//! it replaces, so trained weights, mistake counts, and accuracies are
//! unchanged — the determinism contract of `mlam-par` extends through
//! the learners. Where the weights stay fixed across many rows, the
//! packed kernels work on several rows or features at once:
//!
//! * **Scores** ([`FeatureMatrix::scores`],
//!   [`FeatureMatrix::for_each_score`]) add 8 rows side by side, one
//!   accumulator per row, each starting at `0.0` and adding the same
//!   sign-flipped weights in the same index order as
//!   [`FeatureMatrix::dot`], its one-row case. `LinearModel` scores a
//!   test set with the same kernel, 8 freshly packed rows per call.
//! * **Minibatch gradients** ([`FeatureMatrix::grad_sub_gathered`])
//!   read the batch's row words, copied once per step into one buffer
//!   in batch order ([`FeatureMatrix::gather`]), and the products
//!   `c = t·σ`, one per row. Each pass holds 16 gradient entries (two
//!   8-feature tiles) in registers while the batch's rows subtract
//!   their sign-flipped `c` from them in batch order, so each entry
//!   sees the same subtractions in the same order as a row-at-a-time
//!   loop; `(t·±1)·σ` is exactly `±(t·σ)`.
//!
//! The Perceptron's update pass scores one row at a time, because each
//! row's update changes the weights the next row is scored with. Its
//! weights are integers (they start at 0 and move by `±1`), so its two
//! kernels, `margin` and `add_signed`, work on `i32` weights padded to
//! whole 8-feature tiles, whose padding stays 0: each tile adds its 8
//! sign-flipped weights in 8 integer lanes at once. Integer sums are
//! exact in any order, and the `f64` loop they replace never holds a
//! `−0.0` (`x + (−x)` rounds to `+0.0`), so the weights converted back
//! to `f64` are that loop's bit for bit ([`crate::perceptron`]). Its
//! pocket scan (`errors`) runs under weights that stay fixed for the
//! whole scan, so it first builds one 256-entry table per tile, the
//! tile's margin under each sign byte, and then scores each row with
//! one lookup per tile. The lookups add the same integers as `margin`
//! in another order, exact in any order, and every entry and partial
//! sum is a signed sum of a subset of the weights, inside the `i32`
//! bound the trainer checks.

use crate::features::FeatureMap;
use mlam_boolean::bits::{byte_signs, row_bytes, sign_select};
use mlam_boolean::{to_pm, LabeledSet};

/// Rows the score kernel adds side by side, one `f64` accumulator each.
pub(crate) const SCORE_ROWS: usize = 8;

/// Features per tile of the gradient and Perceptron kernels: one byte
/// of a sign word, which indexes [`BYTE_LANES`] and [`byte_signs`].
const TILE_FEATURES: usize = 8;

/// Tiles per pass of the gradient kernel: the 16 bits of a quarter sign
/// word, whose 16 gradient entries stay in registers for the pass.
const GRAD_TILES: usize = 2;

/// The integer twin of [`byte_signs`], one entry per byte of a sign
/// word: lane `k` of entry `b` is `−1` (all bits set) ⇔ bit `k` of `b`
/// is set, and `0` otherwise. For such a mask `m`, `(v ^ m) − m` is `v`
/// times the feature's sign, `v` or `−v`. 256 × 32 bytes = 8 KiB.
static BYTE_LANES: [[i32; TILE_FEATURES]; 256] = {
    let mut table = [[0i32; TILE_FEATURES]; 256];
    let mut b = 0;
    while b < 256 {
        let mut k = 0;
        while k < TILE_FEATURES {
            table[b][k] = -(((b >> k) & 1) as i32);
            k += 1;
        }
        b += 1;
    }
    table
};

/// A feature matrix cached once per `(LabeledSet, FeatureMap)` pair,
/// shared across training epochs and CMA-ES population scoring.
///
/// # Example
///
/// ```
/// use mlam_boolean::{LabeledSet, LinearThreshold};
/// use mlam_learn::feature_matrix::FeatureMatrix;
/// use mlam_learn::features::PlusMinusFeatures;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let target = LinearThreshold::random(8, &mut rng);
/// let data = LabeledSet::sample_par(&target, 100, &mut rng);
/// let fm = FeatureMatrix::build(&PlusMinusFeatures::new(8), &data);
/// assert_eq!(fm.examples(), 100);
/// assert_eq!(fm.dimension(), 9);
/// let w = vec![0.25; fm.dimension()];
/// let mut scores = [0.0; 3];
/// fm.scores(&[4, 0, 9], &w, &mut scores);
/// assert_eq!(scores[1].to_bits(), fm.dot(0, &w).to_bits());
/// ```
#[derive(Clone, Debug)]
pub struct FeatureMatrix {
    examples: usize,
    dim: usize,
    /// ±1 labels, `to_pm` encoding (logic 1 ⇔ −1.0).
    labels: Vec<f64>,
    /// `dim.div_ceil(64)`: the sign words of one row.
    words_per_row: usize,
    /// One bit per feature, set ⇔ the feature is `−1.0`; row `r` is
    /// `words[r * words_per_row..][..words_per_row]`, with the bits past
    /// the dimension zero.
    words: Vec<u64>,
}

impl FeatureMatrix {
    /// Computes the features of every example in `data` under `map`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or the map's arity differs from the
    /// data's.
    pub fn build<M: FeatureMap + ?Sized>(map: &M, data: &LabeledSet) -> Self {
        assert!(!data.is_empty(), "cannot build from an empty set");
        assert_eq!(map.num_inputs(), data.num_inputs(), "feature map arity");
        let m = data.len();
        let d = map.dimension();
        let labels: Vec<f64> = data.pairs().iter().map(|(_, y)| to_pm(*y)).collect();
        let words_per_row = d.div_ceil(64);
        let mut words = vec![0u64; m * words_per_row];
        for (row, (x, _)) in data.pairs().iter().enumerate() {
            map.sign_words_into(
                x,
                &mut words[row * words_per_row..(row + 1) * words_per_row],
            );
        }
        FeatureMatrix {
            examples: m,
            dim: d,
            labels,
            words_per_row,
            words,
        }
    }

    /// Number of examples (rows).
    pub fn examples(&self) -> usize {
        self.examples
    }

    /// Feature dimension (columns).
    pub fn dimension(&self) -> usize {
        self.dim
    }

    /// The ±1 labels in example order.
    pub fn labels(&self) -> &[f64] {
        &self.labels
    }

    /// The ±1 label of example `row`.
    #[inline]
    pub fn label(&self, row: usize) -> f64 {
        self.labels[row]
    }

    /// The sign words of example `row`.
    #[inline]
    fn signs(&self, row: usize) -> &[u64] {
        &self.words[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// The dot product `w · φ(x_row)`, bit-identical to the scalar
    /// `features.iter().zip(w).map(|(f, w)| f * w).sum()`.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.dimension()` or `row` is out of range.
    #[inline]
    pub fn dot(&self, row: usize, w: &[f64]) -> f64 {
        let mut score = 0.0;
        self.scores_by(1, |_| row, w, |_, s| score = s);
        score
    }

    /// The scores `out[i] = w · φ(x_{rows[i]})`, each bit-identical to
    /// [`dot`](Self::dot), computed 8 rows at a time.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.dimension()`, `rows` and `out` differ
    /// in length, or a row is out of range.
    pub fn scores(&self, rows: &[usize], w: &[f64], out: &mut [f64]) {
        assert_eq!(rows.len(), out.len(), "one output per row");
        self.scores_by(rows.len(), |i| rows[i], w, |i, s| out[i] = s);
    }

    /// Calls `f(row, w · φ(x_row))` for every row in order, each score
    /// bit-identical to [`dot`](Self::dot) and computed 8 rows at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.dimension()`.
    pub fn for_each_score(&self, w: &[f64], f: impl FnMut(usize, f64)) {
        self.scores_by(self.examples, |i| i, w, f);
    }

    /// Calls `f(i, w · φ(x_{row(i)}))` for `i` in `0..count`, in order,
    /// through [`for_each_packed_score`].
    #[inline]
    fn scores_by(
        &self,
        count: usize,
        row: impl Fn(usize) -> usize,
        w: &[f64],
        f: impl FnMut(usize, f64),
    ) {
        assert_eq!(w.len(), self.dim, "weight dimension mismatch");
        for_each_packed_score(count, |i| self.signs(row(i)), w, f);
    }

    /// Length of an integer weight vector for [`margin`](Self::margin)
    /// and [`add_signed`](Self::add_signed): the dimension rounded up to
    /// whole 8-feature tiles.
    pub(crate) fn padded_dimension(&self) -> usize {
        self.dim.next_multiple_of(TILE_FEATURES)
    }

    /// The integer margin `w · φ(x_row)` over weights padded to
    /// [`padded_dimension`](Self::padded_dimension), whose padding is
    /// zero. Each tile adds its 8 sign-flipped weights `(w ^ m) − m` to
    /// 8 lane sums; a padding lane adds `0` whatever its sign bit. The
    /// caller keeps every partial sum inside `i32`.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.padded_dimension()` or `row` is out
    /// of range.
    #[inline]
    pub(crate) fn margin(&self, row: usize, w: &[i32]) -> i32 {
        assert_eq!(w.len(), self.padded_dimension(), "padded weight length");
        let (tiles, _) = w.as_chunks::<TILE_FEATURES>();
        let mut acc = [0i32; TILE_FEATURES];
        for (ws, byte) in tiles.iter().zip(row_bytes(self.signs(row))) {
            let masks = &BYTE_LANES[usize::from(byte)];
            for k in 0..TILE_FEATURES {
                acc[k] += (ws[k] ^ masks[k]) - masks[k];
            }
        }
        acc.iter().sum()
    }

    /// The number of rows with `margin(row, w) · t ≤ 0`, the
    /// Perceptron's pocket error, over weights padded to
    /// [`padded_dimension`](Self::padded_dimension), whose padding is
    /// zero.
    ///
    /// The weights are fixed for the whole scan, so it first builds one
    /// [`byte_table`] per 8-feature tile, and a row's margin is the sum
    /// of its bytes' entries, one lookup per tile. A padding weight is
    /// `0`, so it adds `0` to every entry. Integer sums are exact in any
    /// order, so each margin is [`margin`](Self::margin)'s. Every entry
    /// and partial sum is a signed sum of a subset of the weights, so a
    /// caller that keeps `Σ|w_j|` inside `i32` keeps them inside too.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.padded_dimension()`.
    pub(crate) fn errors(&self, w: &[i32]) -> usize {
        assert_eq!(w.len(), self.padded_dimension(), "padded weight length");
        let (tiles, _) = w.as_chunks::<TILE_FEATURES>();
        let tables: Vec<[i32; 256]> = tiles.iter().map(byte_table).collect();
        // Eight tiles per sign word: the tables of the words the tiles
        // fill, then those of the last word if they do not fill it.
        let (full, rest) = tables.as_chunks::<8>();
        (0..self.examples)
            .filter(|&row| {
                let signs = self.signs(row);
                let mut margin = 0i32;
                for (&word, tables) in signs.iter().zip(full) {
                    for (table, byte) in tables.iter().zip(word.to_le_bytes()) {
                        margin += table[usize::from(byte)];
                    }
                }
                if let Some(&word) = signs.get(full.len()) {
                    for (table, byte) in rest.iter().zip(word.to_le_bytes()) {
                        margin += table[usize::from(byte)];
                    }
                }
                margin * self.labels[row] as i32 <= 0
            })
            .count()
    }

    /// The Perceptron update `w[j] += t * φ(x_row)[j]` for `t = ±1` over
    /// weights padded to [`padded_dimension`](Self::padded_dimension),
    /// tile by tile; the padding lanes past the dimension are left as
    /// they are. The caller keeps every weight inside `i32`.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.padded_dimension()` or `row` is out
    /// of range.
    #[inline]
    pub(crate) fn add_signed(&self, row: usize, t: i32, w: &mut [i32]) {
        assert_eq!(w.len(), self.padded_dimension(), "padded weight length");
        let (tiles, tail) = w[..self.dim].as_chunks_mut::<TILE_FEATURES>();
        let mut bytes = row_bytes(self.signs(row));
        for (ws, byte) in tiles.iter_mut().zip(&mut bytes) {
            let masks = &BYTE_LANES[usize::from(byte)];
            for k in 0..TILE_FEATURES {
                ws[k] += (t ^ masks[k]) - masks[k];
            }
        }
        if let Some(byte) = bytes.next() {
            let masks = &BYTE_LANES[usize::from(byte)];
            for (wj, &m) in tail.iter_mut().zip(masks) {
                *wj += (t ^ m) - m;
            }
        }
    }

    /// Copies the sign words of `rows`, in order, into `out`, one
    /// row after another, the layout
    /// [`grad_sub_gathered`](Self::grad_sub_gathered) reads.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range.
    pub fn gather(&self, rows: &[usize], out: &mut Vec<u64>) {
        out.clear();
        for &row in rows {
            out.extend_from_slice(self.signs(row));
        }
    }

    /// The minibatch logistic gradient over rows copied by
    /// [`gather`](Self::gather): for each gathered row `i` in order,
    /// `g[j] -= φ_i[j] * cs[i]`. With `cs[i] = t * sigma`, `t` the row's
    /// label, this is bit-identical to the row-at-a-time loop
    /// `g[j] -= t * φ(x)[j] * sigma`: for a ±1 feature the scalar
    /// product `(t * ±1) * sigma` is exactly `±(t * sigma)`.
    ///
    /// Each pass holds 16 gradient entries, two 8-feature tiles, in
    /// registers while every gathered row, in order, subtracts its
    /// sign-flipped `c` from them; a last pass of at most 8 entries
    /// holds one tile.
    ///
    /// # Panics
    ///
    /// Panics if `g.len() != self.dimension()` or `rows` does not hold
    /// one row's words per entry of `cs`.
    pub fn grad_sub_gathered(&self, rows: &[u64], cs: &[f64], g: &mut [f64]) {
        assert_eq!(g.len(), self.dim, "gradient dimension mismatch");
        assert_eq!(
            rows.len(),
            cs.len() * self.words_per_row,
            "one gathered row per c"
        );
        let pass_features = GRAD_TILES * TILE_FEATURES;
        let passes_per_word = 64 / pass_features;
        for (pass, gs) in g.chunks_mut(pass_features).enumerate() {
            // A pass never straddles two words, and a gradient entry
            // implies at least one word per row.
            let word = pass / passes_per_word;
            let shift = pass_features * (pass % passes_per_word);
            let bits = rows
                .chunks_exact(self.words_per_row)
                .map(|row| row[word] >> shift);
            if gs.len() > TILE_FEATURES {
                grad_tiles::<GRAD_TILES>(bits, cs, gs);
            } else {
                grad_tiles::<1>(bits, cs, gs);
            }
        }
    }
}

/// Calls `f(i, w · φ_i)` for `i` in `0..count`, in order, where
/// `signs(i)` is row `i`'s sign words: full tiles of [`SCORE_ROWS`] rows
/// through the multi-row kernel, the tail rows through its one-row
/// case. Every score starts at `0.0` and adds its terms in index order.
///
/// # Panics
///
/// Panics if a row holds fewer than `w.len().div_ceil(64)` words.
#[inline]
pub(crate) fn for_each_packed_score<'a>(
    count: usize,
    signs: impl Fn(usize) -> &'a [u64],
    w: &[f64],
    mut f: impl FnMut(usize, f64),
) {
    let tiled = count - count % SCORE_ROWS;
    for base in (0..tiled).step_by(SCORE_ROWS) {
        let tile = sign_scores::<SCORE_ROWS>(std::array::from_fn(|k| signs(base + k)), w);
        for (k, s) in tile.into_iter().enumerate() {
            f(base + k, s);
        }
    }
    for i in tiled..count {
        f(i, sign_scores([signs(i)], w)[0]);
    }
}

/// The margins of one tile of integer weights under each sign byte:
/// entry `b` is `Σ_k ±ws[k]`, negative where bit `k` of `b` is set.
/// Each half byte's 16 signed sums are built by doubling, and entry `b`
/// adds its two halves' sums, so every intermediate is a signed sum of
/// a subset of `ws`.
fn byte_table(ws: &[i32; TILE_FEATURES]) -> [i32; 256] {
    let nibble_sums = |ws: &[i32]| {
        let mut sums = [0i32; 16];
        for (k, &wk) in ws.iter().enumerate() {
            let half = 1 << k;
            for v in 0..half {
                sums[v | half] = sums[v] - wk;
                sums[v] += wk;
            }
        }
        sums
    };
    let (lo, hi) = (nibble_sums(&ws[..4]), nibble_sums(&ws[4..]));
    std::array::from_fn(|b| lo[b & 15] + hi[b >> 4])
}

/// `gs[8t + k] -= ±c` for every gathered row in order, `bits` yielding
/// each row's sign bits of the pass's features from bit 0 on. The `T`
/// tiles' entries stay in registers for the whole batch; `gs` may be
/// shorter than `8T`, and the lanes past it are dropped.
#[inline(always)]
fn grad_tiles<const T: usize>(bits: impl Iterator<Item = u64>, cs: &[f64], gs: &mut [f64]) {
    let mut acc = [[0.0f64; TILE_FEATURES]; T];
    acc.as_flattened_mut()[..gs.len()].copy_from_slice(gs);
    for (bits, &c) in bits.zip(cs) {
        let c = c.to_bits();
        for (t, lanes) in acc.iter_mut().enumerate() {
            let masks = byte_signs((bits >> (8 * t)) as u8);
            for k in 0..TILE_FEATURES {
                lanes[k] -= f64::from_bits(c ^ masks[k]);
            }
        }
    }
    gs.copy_from_slice(&acc.as_flattened()[..gs.len()]);
}

/// `w · φ(x)` for `R` packed rows side by side. Lane `k` starts at
/// `0.0` and adds [`sign_select`]`(w[j], bit j of rows[k])` for
/// `j = 0, 1, …`, the start and term order of the one-row loop, so each
/// lane is that loop's sum bit for bit. After every term each lane's
/// word shifts right by one, the same constant shift in every lane, so
/// the lanes vectorize on baseline SSE2.
#[inline(always)]
fn sign_scores<const R: usize>(rows: [&[u64]; R], w: &[f64]) -> [f64; R] {
    let mut acc = [0.0f64; R];
    for (g, chunk) in w.chunks(64).enumerate() {
        let mut bits: [u64; R] = std::array::from_fn(|k| rows[k][g]);
        for &wj in chunk {
            for (a, b) in acc.iter_mut().zip(bits.iter_mut()) {
                *a += sign_select(wj, *b);
                *b >>= 1;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{ArbiterPhiFeatures, LowDegreeFeatures, PlusMinusFeatures};
    use mlam_boolean::LinearThreshold;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn sample_set(n: usize, m: usize, seed: u64) -> LabeledSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let target = LinearThreshold::random(n, &mut rng);
        LabeledSet::sample_par(&target, m, &mut rng)
    }

    fn random_weights(d: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    /// Every multi-row score of `fm` next to the scalar sum of `map`:
    /// `for_each_score` in row order, `scores` over a shuffled gather
    /// whose length leaves a tile tail.
    fn assert_scores_match<M: FeatureMap + ?Sized>(
        map: &M,
        data: &LabeledSet,
        fm: &FeatureMatrix,
        w: &[f64],
        rng: &mut StdRng,
    ) {
        let scalar: Vec<u64> = data
            .pairs()
            .iter()
            .map(|(x, _)| {
                let s: f64 = map.features(x).iter().zip(w).map(|(f, w)| f * w).sum();
                s.to_bits()
            })
            .collect();
        let mut seen = Vec::new();
        fm.for_each_score(w, |row, s| seen.push((row, s.to_bits())));
        let expected: Vec<(usize, u64)> = scalar.iter().copied().enumerate().collect();
        assert_eq!(seen, expected);
        let mut rows: Vec<usize> = (0..data.len()).chain(0..data.len() / 3).collect();
        rows.shuffle(rng);
        let mut out = vec![f64::NAN; rows.len()];
        fm.scores(&rows, w, &mut out);
        for (&row, s) in rows.iter().zip(&out) {
            assert_eq!(s.to_bits(), scalar[row], "row {row}");
            assert_eq!(fm.dot(row, w).to_bits(), scalar[row], "row {row}");
        }
    }

    #[test]
    fn packed_dot_is_bit_identical_to_scalar() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [5usize, 13, 63, 64] {
            let data = sample_set(n.min(40), 80, n as u64);
            let n = data.num_inputs();
            let maps: Vec<Box<dyn FeatureMap>> = vec![
                Box::new(PlusMinusFeatures::new(n)),
                Box::new(ArbiterPhiFeatures::new(n)),
                Box::new(LowDegreeFeatures::new(n, 2)),
            ];
            for map in &maps {
                let fm = FeatureMatrix::build(map.as_ref(), &data);
                let w = random_weights(fm.dimension(), &mut rng);
                assert_scores_match(map.as_ref(), &data, &fm, &w, &mut rng);
                for (row, (_, y)) in data.pairs().iter().enumerate() {
                    assert_eq!(fm.label(row), to_pm(*y));
                }
            }
        }
    }

    #[test]
    fn add_signed_matches_scalar_update() {
        let data = sample_set(17, 50, 4);
        let map = ArbiterPhiFeatures::new(17);
        let fm = FeatureMatrix::build(&map, &data);
        assert_eq!(fm.padded_dimension(), 24);
        let mut w_fast = vec![0i32; fm.padded_dimension()];
        let mut w_ref = vec![0.0f64; fm.dimension()];
        for (row, (x, y)) in data.pairs().iter().enumerate() {
            let t = to_pm(*y);
            let margin: f64 = map.features(x).iter().zip(&w_ref).map(|(f, w)| f * w).sum();
            assert_eq!(f64::from(fm.margin(row, &w_fast)), margin, "row {row}");
            fm.add_signed(row, t as i32, &mut w_fast);
            for (wi, fi) in w_ref.iter_mut().zip(map.features(x)) {
                *wi += t * fi;
            }
        }
        let as_f64: Vec<f64> = w_fast.iter().map(|&w| f64::from(w)).collect();
        assert_eq!(as_f64[..fm.dimension()], w_ref[..]);
        assert!(w_fast[fm.dimension()..].iter().all(|&w| w == 0), "padding");
    }

    #[test]
    fn grad_sub_matches_scalar_update() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = sample_set(9, 40, 5);
        let plus_minus = PlusMinusFeatures::new(9);
        let phi = ArbiterPhiFeatures::new(9);
        let maps: [&dyn FeatureMap; 2] = [&plus_minus, &phi];
        for map in maps {
            let fm = FeatureMatrix::build(map, &data);
            let mut rows: Vec<usize> = (0..data.len()).collect();
            rows.shuffle(&mut rng);
            let sigmas: Vec<f64> = rows.iter().map(|_| rng.gen_range(0.0..1.0)).collect();
            let cs: Vec<f64> = rows
                .iter()
                .zip(&sigmas)
                .map(|(&r, s)| fm.label(r) * s)
                .collect();
            let mut g_fast = random_weights(fm.dimension(), &mut rng);
            let mut g_ref = g_fast.clone();
            let mut gathered = Vec::new();
            fm.gather(&rows, &mut gathered);
            fm.grad_sub_gathered(&gathered, &cs, &mut g_fast);
            for (&row, &sigma) in rows.iter().zip(&sigmas) {
                let (x, y) = &data.pairs()[row];
                let t = to_pm(*y);
                for (gi, fi) in g_ref.iter_mut().zip(map.features(x)) {
                    *gi -= t * fi * sigma;
                }
            }
            for (a, b) in g_fast.iter().zip(&g_ref) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
