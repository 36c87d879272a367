//! Arbitrary-length bit vectors used as challenges and circuit inputs.
//!
//! [`BitVec`] is a compact, fixed-length vector of bits backed by `u64`
//! words. It is the universal input type of the workspace: PUF challenges,
//! netlist input assignments and learning examples are all `BitVec`s.
//!
//! Crate-internal kernels sit next to it: `Columns` packs a labeled
//! sample into 64-example column blocks for the word-parallel
//! Boolean-analysis kernels, and `sign_select`, `row_sum` and
//! `nonpositive_lanes` are the exact ±1 arithmetic those kernels share
//! with the sequential per-example paths. `transpose64` is the 64×64
//! block transpose `Columns` is built with.

use rand::Rng;
use std::fmt;

/// A fixed-length vector of bits backed by `u64` words.
///
/// The length is fixed at construction; out-of-range accesses panic.
/// Bit `i` of the vector corresponds to challenge bit `c_i` in the paper.
///
/// # Example
///
/// ```
/// use mlam_boolean::BitVec;
///
/// let mut v = BitVec::zeros(70);
/// v.set(3, true);
/// v.set(69, true);
/// assert!(v.get(3) && v.get(69) && !v.get(0));
/// assert_eq!(v.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates an all-one vector of `len` bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = u64::MAX;
        }
        v.mask_tail();
        v
    }

    /// Builds a vector from a slice of Booleans.
    ///
    /// ```
    /// use mlam_boolean::BitVec;
    /// let v = BitVec::from_bools(&[true, false, true]);
    /// assert_eq!(v.len(), 3);
    /// assert!(v.get(0) && !v.get(1) && v.get(2));
    /// ```
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = Self::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            v.set(i, b);
        }
        v
    }

    /// Builds an `len`-bit vector from the low bits of `value`
    /// (bit `i` of the vector = bit `i` of `value`).
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    pub fn from_u64(value: u64, len: usize) -> Self {
        assert!(len <= 64, "from_u64 supports at most 64 bits, got {len}");
        let mut v = Self::zeros(len);
        if len > 0 {
            v.words[0] = if len == 64 {
                value
            } else {
                value & ((1u64 << len) - 1)
            };
        }
        v
    }

    /// Returns the low 64 bits as a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the vector is longer than 64 bits.
    pub fn to_u64(&self) -> u64 {
        assert!(
            self.len <= 64,
            "to_u64 requires len <= 64, got {}",
            self.len
        );
        self.words.first().copied().unwrap_or(0)
    }

    /// Samples a uniformly random vector of `len` bits.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        let mut v = Self::zeros(len);
        for w in &mut v.words {
            *w = rng.gen();
        }
        v.mask_tail();
        v
    }

    /// Samples a vector whose bits are independently 1 with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn random_biased<R: Rng + ?Sized>(len: usize, p: f64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&p), "bias must be in [0,1], got {p}");
        let mut v = Self::zeros(len);
        for i in 0..len {
            if rng.gen_bool(p) {
                v.set(i, true);
            }
        }
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for len {}",
            self.len
        );
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn set(&mut self, i: usize, b: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for len {}",
            self.len
        );
        let w = &mut self.words[i / 64];
        if b {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    /// Flips bit `i`, returning the new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn flip(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for len {}",
            self.len
        );
        self.words[i / 64] ^= 1 << (i % 64);
        self.get(i)
    }

    /// Returns bit `i` in the ±1 encoding of the paper (`0 → +1`, `1 → -1`).
    #[inline]
    pub fn pm(&self, i: usize) -> f64 {
        crate::to_pm(self.get(i))
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Hamming distance to another vector.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming(&self, other: &BitVec) -> u32 {
        assert_eq!(self.len, other.len, "hamming distance needs equal lengths");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Parity (XOR) of the bits selected by `mask` over the low 64 bits.
    ///
    /// This evaluates the character `χ_S` with `S` given as a mask, in the
    /// `{0,1}` world: the result is `true` iff an odd number of selected
    /// bits are 1.
    ///
    /// # Panics
    ///
    /// Panics if the vector is longer than 64 bits.
    #[inline]
    pub fn parity_masked(&self, mask: u64) -> bool {
        assert!(self.len <= 64, "parity_masked requires len <= 64");
        (self.words.first().copied().unwrap_or(0) & mask).count_ones() % 2 == 1
    }

    /// Iterator over the bits, in index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { v: self, i: 0 }
    }

    /// Returns the vector as a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// Returns a copy with bit `i` flipped.
    pub fn with_flipped(&self, i: usize) -> BitVec {
        let mut c = self.clone();
        c.flip(i);
        c
    }

    /// XORs `other` into `self` bitwise.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "xor_assign needs equal lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// The backing `u64` words, least-significant first: bit `i` of the
    /// vector is bit `i % 64` of word `i / 64`. Bits past `len()` in
    /// the last word are always zero.
    ///
    /// This is the raw layout consumed by word-parallel kernels such as
    /// the Φ transform and the packed ±1 sums.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Packed suffix parities: bit `i` of the result (same word layout
    /// as [`BitVec::words`]) is the XOR of bits `i..len()`.
    ///
    /// This is the sign pattern of the arbiter Φ transform — `Φ_i` is
    /// negative exactly when the suffix parity at `i` is odd. Each word
    /// is resolved with a log-shift XOR scan plus a parity carry from
    /// the higher words, so the cost is O(len/64) word operations
    /// instead of O(len) bit reads. Bits past `len()` in the last word
    /// are zero, matching the [`BitVec::words`] invariant.
    pub fn suffix_parity_words(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.words.len()];
        // All-ones while the combined parity of the higher words is odd.
        let mut carry = 0u64;
        for g in (0..self.words.len()).rev() {
            let mut p = self.words[g];
            p ^= p >> 1;
            p ^= p >> 2;
            p ^= p >> 4;
            p ^= p >> 8;
            p ^= p >> 16;
            p ^= p >> 32;
            let v = p ^ carry;
            out[g] = v;
            carry = if v & 1 == 1 { u64::MAX } else { 0 };
        }
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = out.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        out
    }

    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        if self.len == 0 {
            self.words.clear();
        }
    }
}

/// `w · (−1)^b` for the low bit `b` of `bit`, computed by flipping the
/// IEEE-754 sign bit: equals `w * x.pm(i)` bit for bit (including
/// signed zeros) when `bit` carries bit `i` of `x`, without a multiply
/// or a branch.
#[inline]
pub(crate) fn sign_select(w: f64, bit: u64) -> f64 {
    f64::from_bits(w.to_bits() ^ (bit << 63))
}

/// Sequential ±1 dot product `start + Σᵢ w[i]·x_i` over one example's
/// row words ([`BitVec::words`] layout), added in index order exactly
/// as `start + w[0]*x.pm(0) + w[1]*x.pm(1) + …` would.
///
/// # Panics
///
/// Panics (in debug builds) if `row` is too short for `weights`.
#[inline]
pub(crate) fn row_sum(start: f64, weights: &[f64], row: &[u64]) -> f64 {
    debug_assert!(row.len() * 64 >= weights.len(), "row shorter than weights");
    let mut s = start;
    for (ws, &word) in weights.chunks(64).zip(row) {
        for (j, &w) in ws.iter().enumerate() {
            s += sign_select(w, word >> j);
        }
    }
    s
}

/// IEEE sign masks of four lanes, indexed by a nibble of a column
/// word: entry `v`, lane `k` is `1 << 63` iff bit `k` of `v` is set.
const NIBBLE_SIGNS: [[u64; 4]; 16] = {
    let mut table = [[0u64; 4]; 16];
    let mut v = 0;
    while v < 16 {
        let mut k = 0;
        while k < 4 {
            table[v][k] = ((v as u64 >> k) & 1) << 63;
            k += 1;
        }
        v += 1;
    }
    table
};

/// Per-lane ±1 sums over a 64-example column block: lane `j` computes
/// `start + Σ_t ±coefs[t]` in term order, adding `coefs[t]` when bit
/// `j` of `words[t]` is 0 and `−coefs[t]` when it is 1. Returns the
/// word whose bit `j` is set iff lane `j`'s sum is `<= 0.0`, i.e.
/// logic 1 under `to_bool`.
///
/// Every lane adds in the same order as the sequential per-example
/// loop, with the same [`sign_select`] terms, so each lane's sum is
/// bit-identical to it. The lanes are independent: eight of them at a
/// time stay in registers across all terms, taking their sign masks
/// from a nibble table, so the adds vectorize across examples.
///
/// # Panics
///
/// Panics if `words` and `coefs` differ in length.
pub(crate) fn nonpositive_lanes(start: f64, words: &[u64], coefs: &[f64]) -> u64 {
    assert_eq!(words.len(), coefs.len(), "one coefficient per word");
    let mut out = 0u64;
    for tile in 0..8 {
        let mut acc = [start; 8];
        for (&word, &c) in words.iter().zip(coefs) {
            let c = c.to_bits();
            let byte = word >> (8 * tile);
            let lo = &NIBBLE_SIGNS[(byte & 15) as usize];
            let hi = &NIBBLE_SIGNS[((byte >> 4) & 15) as usize];
            for k in 0..4 {
                acc[k] += f64::from_bits(c ^ lo[k]);
                acc[4 + k] += f64::from_bits(c ^ hi[k]);
            }
        }
        for (k, &a) in acc.iter().enumerate() {
            out |= u64::from(a <= 0.0) << (8 * tile + k);
        }
    }
    out
}

/// In-place transpose of a 64×64 bit matrix in LSB-first convention:
/// afterwards bit `c` of word `r` equals bit `r` of the original word
/// `c` (Hacker's Delight §7-3, recursive block swap).
#[inline]
pub(crate) fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// A labeled sample packed into 64-example column blocks.
///
/// Block `b` holds examples `64b .. 64b + 64` as `n` column words —
/// bit `j` of column `i` is bit `i` of example `64b + j` — plus one
/// label word whose bit `j` is that example's label. Lanes past the end
/// of the sample are zero in every word, so `labels ⊕ column` counts
/// only real examples.
///
/// In this layout a sum of `±1` terms over the sample is a popcount,
/// and a per-example float sum runs 64 examples side by side
/// ([`nonpositive_lanes`]).
#[derive(Debug)]
pub(crate) struct Columns {
    n: usize,
    len: usize,
    /// `n` words per block, block after block.
    words: Vec<u64>,
    /// One label word per block.
    labels: Vec<u64>,
}

/// One 64-example block of a [`Columns`] sample.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ColumnBlock<'a> {
    /// `n` column words: bit `j` of word `i` is bit `i` of lane `j`'s
    /// example.
    pub(crate) columns: &'a [u64],
    /// Bit `j` is lane `j`'s label.
    pub(crate) labels: u64,
    /// Bit `j` is set iff lane `j` holds an example.
    pub(crate) lanes: u64,
}

impl ColumnBlock<'_> {
    /// XOR of the columns selected by `mask`: bit `j` is the parity
    /// `χ_S` of lane `j` in the `{0,1}` world, as
    /// [`BitVec::parity_masked`] computes it per example. Mask bits at
    /// or past `n` select nothing.
    #[inline]
    pub(crate) fn parity(&self, mask: u64) -> u64 {
        let mut m = if self.columns.len() >= 64 {
            mask
        } else {
            mask & ((1u64 << self.columns.len()) - 1)
        };
        let mut p = 0;
        while m != 0 {
            p ^= self.columns[m.trailing_zeros() as usize];
            m &= m - 1;
        }
        p
    }
}

impl Columns {
    /// Packs `examples` (in iteration order) over `n`-bit inputs.
    ///
    /// # Panics
    ///
    /// Panics if any example's length differs from `n`.
    pub(crate) fn new<'a, I>(n: usize, examples: I) -> Self
    where
        I: IntoIterator<Item = &'a (BitVec, bool)>,
    {
        let mut cols = Columns {
            n,
            len: 0,
            words: Vec::new(),
            labels: Vec::new(),
        };
        let mut iter = examples.into_iter();
        let mut block: Vec<&BitVec> = Vec::with_capacity(64);
        let mut mat = [0u64; 64];
        loop {
            block.clear();
            let mut labels = 0u64;
            for (x, y) in iter.by_ref().take(64) {
                assert_eq!(x.len(), n, "example length mismatch");
                labels |= (*y as u64) << block.len();
                block.push(x);
            }
            if block.is_empty() {
                break;
            }
            for g in 0..n.div_ceil(64) {
                for (l, slot) in mat.iter_mut().enumerate() {
                    *slot = block.get(l).map_or(0, |x| x.words[g]);
                }
                transpose64(&mut mat);
                cols.words.extend_from_slice(&mat[..(n - 64 * g).min(64)]);
            }
            cols.labels.push(labels);
            cols.len += block.len();
            if block.len() < 64 {
                break;
            }
        }
        cols
    }

    /// Input length `n`.
    pub(crate) fn num_inputs(&self) -> usize {
        self.n
    }

    /// Number of examples.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The blocks in sample order.
    pub(crate) fn blocks(&self) -> impl ExactSizeIterator<Item = ColumnBlock<'_>> {
        let len = self.len;
        self.labels.iter().enumerate().map(move |(b, &labels)| {
            let filled = len - 64 * b;
            ColumnBlock {
                columns: &self.words[b * self.n..(b + 1) * self.n],
                labels,
                lanes: if filled >= 64 {
                    u64::MAX
                } else {
                    (1u64 << filled) - 1
                },
            }
        })
    }
}

/// Iterator over the bits of a [`BitVec`].
pub struct Iter<'a> {
    v: &'a BitVec,
    i: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.i < self.v.len {
            let b = self.v.get(self.i);
            self.i += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.v.len - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[")?;
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl From<&[bool]> for BitVec {
    fn from(bits: &[bool]) -> Self {
        BitVec::from_bools(bits)
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bools(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(130);
        assert_eq!(z.count_ones(), 0);
        let o = BitVec::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert_eq!(o.len(), 130);
    }

    #[test]
    fn set_get_flip() {
        let mut v = BitVec::zeros(100);
        v.set(64, true);
        assert!(v.get(64));
        assert!(!v.flip(64));
        assert!(v.flip(99));
        assert_eq!(v.count_ones(), 1);
    }

    #[test]
    fn u64_round_trip() {
        let v = BitVec::from_u64(0b1011, 4);
        assert_eq!(v.to_u64(), 0b1011);
        assert_eq!(v.len(), 4);
        assert!(v.get(0) && v.get(1) && !v.get(2) && v.get(3));
        let full = BitVec::from_u64(u64::MAX, 64);
        assert_eq!(full.to_u64(), u64::MAX);
    }

    #[test]
    fn from_u64_masks_high_bits() {
        let v = BitVec::from_u64(0xFF, 4);
        assert_eq!(v.to_u64(), 0xF);
    }

    #[test]
    fn hamming_distance() {
        let a = BitVec::from_bools(&[true, false, true, true]);
        let b = BitVec::from_bools(&[true, true, true, false]);
        assert_eq!(a.hamming(&b), 2);
    }

    #[test]
    fn parity_masked_examples() {
        // value 0b1101 -> bit0=1, bit1=0, bit2=1, bit3=1
        let v = BitVec::from_u64(0b1101, 4);
        assert!(!v.parity_masked(0b0101)); // bits 0,2 = 1,1 -> even
        assert!(v.parity_masked(0b0001)); // bit 0 = 1
        assert!(!v.parity_masked(0b1110)); // bits 1,2,3 = 0,1,1 -> even
        assert!(v.parity_masked(0b1000)); // bit 3 = 1
    }

    #[test]
    fn random_has_expected_density() {
        let mut rng = StdRng::seed_from_u64(7);
        let v = BitVec::random(10_000, &mut rng);
        let ones = v.count_ones() as f64 / 10_000.0;
        assert!((ones - 0.5).abs() < 0.03, "density {ones}");
        let b = BitVec::random_biased(10_000, 0.2, &mut rng);
        let ones = b.count_ones() as f64 / 10_000.0;
        assert!((ones - 0.2).abs() < 0.03, "biased density {ones}");
    }

    #[test]
    fn random_tail_is_masked() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let v = BitVec::random(70, &mut rng);
            // All bits beyond len must be zero in the backing store:
            assert_eq!(v.words[1] >> 6, 0);
        }
    }

    #[test]
    fn xor_assign_is_involutive() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = BitVec::random(90, &mut rng);
        let b = BitVec::random(90, &mut rng);
        let mut c = a.clone();
        c.xor_assign(&b);
        c.xor_assign(&b);
        assert_eq!(a, c);
    }

    #[test]
    fn iterator_and_collect() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.to_bools(), vec![true, false, true]);
        assert_eq!(v.iter().len(), 3);
    }

    #[test]
    fn display_format() {
        let v = BitVec::from_bools(&[true, false, true]);
        assert_eq!(v.to_string(), "101");
        assert_eq!(format!("{v:?}"), "BitVec[101]");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(4).get(4);
    }

    #[test]
    fn with_flipped_differs_in_one_bit() {
        let v = BitVec::zeros(9);
        let w = v.with_flipped(8);
        assert_eq!(v.hamming(&w), 1);
        assert!(w.get(8));
    }

    #[test]
    fn words_expose_the_backing_layout() {
        let mut v = BitVec::zeros(70);
        v.set(3, true);
        v.set(69, true);
        assert_eq!(v.words().len(), 2);
        assert_eq!(v.words()[0], 1 << 3);
        assert_eq!(v.words()[1], 1 << 5);
    }

    #[test]
    fn suffix_parity_matches_scalar_definition() {
        let mut rng = StdRng::seed_from_u64(17);
        for len in [0usize, 1, 2, 63, 64, 65, 100, 127, 128, 129, 200] {
            for _ in 0..8 {
                let v = BitVec::random(len, &mut rng);
                let sp = v.suffix_parity_words();
                assert_eq!(sp.len(), len.div_ceil(64));
                for i in 0..len {
                    let scalar = (i..len).fold(false, |acc, j| acc ^ v.get(j));
                    assert_eq!(
                        (sp[i / 64] >> (i % 64)) & 1 == 1,
                        scalar,
                        "len {len} bit {i}"
                    );
                }
            }
        }
    }

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

    fn labeled(n: usize, m: usize, rng: &mut StdRng) -> Vec<(BitVec, bool)> {
        (0..m)
            .map(|_| (BitVec::random(n, rng), rng.gen_bool(0.5)))
            .collect()
    }

    #[test]
    fn columns_hold_each_example_bit_label_and_lane() {
        let mut rng = StdRng::seed_from_u64(29);
        for n in [0usize, 1, 63, 64, 65, 130] {
            for m in [0usize, 1, 63, 64, 65, 200] {
                let data = labeled(n, m, &mut rng);
                let cols = Columns::new(n, &data);
                assert_eq!((cols.num_inputs(), cols.len()), (n, m));
                assert_eq!(cols.blocks().len(), m.div_ceil(64));
                for (b, block) in cols.blocks().enumerate() {
                    let lanes = (m - 64 * b).min(64);
                    assert_eq!(block.lanes.count_ones() as usize, lanes);
                    assert_eq!(block.labels & !block.lanes, 0, "tail labels zero");
                    for (i, &column) in block.columns.iter().enumerate() {
                        assert_eq!(column & !block.lanes, 0, "tail lanes zero");
                        for (j, (x, y)) in data[64 * b..64 * b + lanes].iter().enumerate() {
                            assert_eq!((column >> j) & 1 == 1, x.get(i), "n={n} bit {i}");
                            assert_eq!((block.labels >> j) & 1 == 1, *y);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "example length mismatch")]
    fn columns_reject_a_wrong_length() {
        Columns::new(4, &[(BitVec::zeros(5), true)]);
    }

    #[test]
    fn block_parity_matches_parity_masked() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [0usize, 1, 7, 63, 64] {
            let data = labeled(n, 100, &mut rng);
            let cols = Columns::new(n, &data);
            for _ in 0..20 {
                let mask: u64 = rng.gen();
                for (b, block) in cols.blocks().enumerate() {
                    let p = block.parity(mask);
                    for (j, (x, _)) in data.iter().skip(64 * b).take(64).enumerate() {
                        assert_eq!((p >> j) & 1 == 1, x.parity_masked(mask), "n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn sign_select_is_a_pm_multiply() {
        for w in [0.0, -0.0, 1.0, -3.5, f64::MIN_POSITIVE, f64::INFINITY] {
            for bit in [0u64, 1, 2, 3] {
                let pm = crate::to_pm(bit & 1 == 1);
                assert_eq!(sign_select(w, bit).to_bits(), (w * pm).to_bits());
            }
        }
    }

    #[test]
    fn row_sum_and_lanes_match_the_per_bit_sum() {
        let mut rng = StdRng::seed_from_u64(37);
        for n in [0usize, 1, 63, 64, 65, 130] {
            let data = labeled(n, 70, &mut rng);
            let w: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
            let start = rng.gen::<f64>() - 0.5;
            let per_bit = |x: &BitVec| {
                let mut s = start;
                for (i, wi) in w.iter().enumerate() {
                    s += wi * x.pm(i);
                }
                s
            };
            for (x, _) in &data {
                assert_eq!(
                    row_sum(start, &w, x.words()).to_bits(),
                    per_bit(x).to_bits()
                );
            }
            for (b, block) in Columns::new(n, &data).blocks().enumerate() {
                let lanes = nonpositive_lanes(start, block.columns, &w);
                for (j, (x, _)) in data.iter().skip(64 * b).take(64).enumerate() {
                    assert_eq!((lanes >> j) & 1 == 1, per_bit(x) <= 0.0, "n={n}");
                }
            }
        }
        // No terms: every lane is `start`, and -0.0 counts as <= 0.
        assert_eq!(nonpositive_lanes(-0.0, &[], &[]), u64::MAX);
        assert_eq!(nonpositive_lanes(1.0, &[], &[]), 0);
    }

    #[test]
    fn suffix_parity_tail_is_masked() {
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..10 {
            let v = BitVec::random(70, &mut rng);
            let sp = v.suffix_parity_words();
            assert_eq!(sp[1] >> 6, 0, "bits past len must stay zero");
        }
    }
}
