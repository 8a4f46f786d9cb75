//! Packed bitsets and the register plane built on them.
//!
//! The word-level core keeps every per-cell flag — the selection mask of
//! the running primitive, the live-leaf masks of an installed fault plan,
//! and which registers hold a word — as one bit per base processor, 64 to
//! a `u64`, in the flat `(i · cols + j) · cycle + q` order of the register
//! planes. Bits past the last cell stay clear, so whole-word operations
//! (AND, popcount, copy) need no tail handling.

use crate::word::Word;

/// Words needed for `bits` bits.
#[inline]
pub(crate) fn words(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// The low `n` bits set (`n ≤ 64`).
#[inline]
pub(crate) fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// Whether bit `k` is set.
#[inline]
pub(crate) fn test(set: &[u64], k: usize) -> bool {
    (set[k >> 6] >> (k & 63)) & 1 != 0
}

/// Sets bit `k` to `on`.
#[inline]
pub(crate) fn assign(set: &mut [u64], k: usize, on: bool) {
    let word = &mut set[k >> 6];
    *word = (*word & !(1 << (k & 63))) | u64::from(on) << (k & 63);
}

/// Sets bits `0..bits` and clears the rest of `set`.
pub(crate) fn fill(set: &mut [u64], bits: usize) {
    set.fill(u64::MAX);
    if !bits.is_multiple_of(64) {
        set[bits / 64] = low_bits(bits % 64);
    }
    set[words(bits)..].fill(0);
}

/// Sets (`on`) or clears bits `lo..lo + len`.
pub(crate) fn assign_range(set: &mut [u64], lo: usize, len: usize, on: bool) {
    let mut k = lo;
    let end = lo + len;
    while k < end {
        let n = (64 - (k & 63)).min(end - k);
        let bits = low_bits(n) << (k & 63);
        if on {
            set[k >> 6] |= bits;
        } else {
            set[k >> 6] &= !bits;
        }
        k += n;
    }
}

/// How many of bits `lo..lo + len` are set.
pub(crate) fn count_range(set: &[u64], lo: usize, len: usize) -> u64 {
    let mut k = lo;
    let end = lo + len;
    let mut count = 0;
    while k < end {
        let n = (64 - (k & 63)).min(end - k);
        count += u64::from(((set[k >> 6] >> (k & 63)) & low_bits(n)).count_ones());
        k += n;
    }
    count
}

/// Calls `f(k)` for every set bit `k`, in increasing order.
#[inline]
pub(crate) fn for_each_one(set: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in set.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w << 6 | rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// Whether bits `0..bits` are all set.
pub(crate) fn all_set(set: &[u64], bits: usize) -> bool {
    set[..bits / 64].iter().all(|&w| w == u64::MAX)
        && (bits.is_multiple_of(64) || set[bits / 64] == low_bits(bits % 64))
}

/// Rotates every `block`-bit block of `set` down by one position, the
/// lowest bit wrapping to the top: bit `q` of a block takes bit
/// `(q + 1) mod block`, as `<[T]>::rotate_left(1)` does to the block's
/// elements. `block` is a power of two and `bits` a multiple of it.
pub(crate) fn rotate_blocks(set: &mut [u64], bits: usize, block: usize) {
    if block <= 64 {
        // Each word holds whole blocks. `start` marks the lowest bit of
        // every block and `top` the highest.
        let start = (0..64).step_by(block).fold(0u64, |m, s| m | 1 << s);
        let top = start << (block - 1);
        for word in set {
            *word = ((*word >> 1) & !top) | ((*word & start) << (block - 1));
        }
        return;
    }
    // Blocks of whole words: shift each block's bit string down by one.
    for chunk in set[..words(bits)].chunks_exact_mut(block / 64) {
        let lowest = chunk[0] & 1;
        for w in 0..chunk.len() {
            let carry = chunk.get(w + 1).map_or(lowest, |next| next & 1);
            chunk[w] = (chunk[w] >> 1) | carry << 63;
        }
    }
}

/// One register plane: a word per base processor plus one validity bit
/// each, where a clear bit is the paper's `NULL`.
///
/// Both live in one allocation — `words(cells)` validity words, then
/// `cells` values — so a plane costs one allocation. A new plane is all
/// `NULL`: only its validity words are zeroed, and the values are written
/// on first use, by the first whole-plane write ([`Plane::fill`],
/// [`Plane::rewrite`]) in one pass, or zeroed by the first single-cell
/// write. The value of a `NULL` cell is kept 0, so a non-zero value
/// implies a valid one.
#[derive(Clone, Debug)]
pub(crate) struct Plane {
    cells: usize,
    /// `words(cells)`: where the values start.
    nw: usize,
    buf: Vec<u64>,
}

impl Plane {
    /// An all-`NULL` plane of `cells` cells.
    pub(crate) fn new(cells: usize) -> Plane {
        let nw = words(cells);
        let mut buf = Vec::with_capacity(nw + cells);
        buf.resize(nw, 0);
        Plane { cells, nw, buf }
    }

    /// Number of cells.
    #[inline]
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// The validity bitset.
    #[inline]
    pub(crate) fn valid(&self) -> &[u64] {
        &self.buf[..self.nw]
    }

    /// The value array — empty while no value has been written, when
    /// every cell is `NULL`.
    #[inline]
    pub(crate) fn values(&self) -> &[u64] {
        &self.buf[self.nw..]
    }

    /// Cell `k`'s word. Callers keep `k` below [`Plane::cells`]; the
    /// register views check grid coordinates before they get here.
    #[inline]
    pub(crate) fn get(&self, k: usize) -> Option<Word> {
        debug_assert!(k < self.cells, "register cell {k} out of range");
        // A set bit means the cell's value has been written.
        test(&self.buf, k).then(|| self.buf[self.nw + k] as Word)
    }

    /// Writes cell `k` (below [`Plane::cells`], as for [`Plane::get`]).
    #[inline]
    pub(crate) fn set(&mut self, k: usize, v: Option<Word>) {
        debug_assert!(k < self.cells, "register cell {k} out of range");
        if self.buf.len() == self.nw {
            self.zero_values();
        }
        self.buf[self.nw + k] = v.unwrap_or(0) as u64;
        // Store the validity word only when the bit changes, so rewriting
        // valid cells in order does not chain through one word in memory.
        let (word, bit) = (&mut self.buf[k >> 6], 1 << (k & 63));
        if (*word & bit != 0) != v.is_some() {
            *word ^= bit;
        }
    }

    /// Writes every value as 0 — before the first single-cell write, kept
    /// out of line so the writes inline.
    #[cold]
    #[inline(never)]
    fn zero_values(&mut self) {
        self.buf.resize(self.nw + self.cells, 0);
    }

    /// Writes the values of a plane no value was written to yet (all 0,
    /// as its cells are all `NULL`), so [`Plane::values`] has one per
    /// cell. Changes no cell's word.
    pub(crate) fn materialize(&mut self) {
        if self.buf.len() == self.nw {
            self.zero_values();
        }
    }

    /// Rewrites every cell `k` selected in `mask`, in increasing order, as
    /// `f(k, words, old)`: `words` holds each of `src`'s word at `k` and
    /// `old` this plane's. Sources are read a validity word (64 cells) at a
    /// time and from their value slices; this plane's validity is built a
    /// word at a time, so no cell goes through [`Plane::get`] or
    /// [`Plane::set`].
    ///
    /// # Panics
    ///
    /// Panics unless every source has this plane's cell count and has
    /// been [materialized](Plane::materialize).
    #[inline]
    pub(crate) fn apply<const N: usize>(
        &mut self,
        mask: &[u64],
        src: [&Plane; N],
        mut f: impl FnMut(usize, [Option<Word>; N], Option<Word>) -> Option<Word>,
    ) {
        let cells = self.cells;
        for s in &src {
            assert_eq!(s.values().len(), cells, "a kernel source is a materialized plane");
        }
        if mask.iter().any(|&m| m != 0) {
            self.materialize();
        }
        let (valid, values) = self.buf.split_at_mut(self.nw);
        for (w, (&m, bits)) in mask.iter().zip(valid.iter_mut()).enumerate() {
            if m == 0 {
                continue;
            }
            let (lo, old) = (w << 6, *bits);
            let got = if m == u64::MAX {
                // Bits past the last cell are clear, so all 64 cells exist.
                let src = src.map(|s| (s.valid()[w], s.values()[lo..lo + 64].try_into().unwrap()));
                let out = (&mut values[lo..lo + 64]).try_into().unwrap();
                match (src.iter().all(|&(v, _)| v == u64::MAX), old == u64::MAX) {
                    (true, true) => run_full::<N, true, true>(lo, src, old, out, &mut f),
                    (true, false) => run_full::<N, true, false>(lo, src, old, out, &mut f),
                    _ => run_full::<N, false, false>(lo, src, old, out, &mut f),
                }
            } else {
                let hi = (lo + 64).min(cells);
                let src = src.map(|s| (s.valid()[w], &s.values()[lo..hi]));
                run_sparse(lo, m, src, old, &mut values[lo..hi], &mut f)
            };
            *bits = (*bits & !m) | got;
        }
    }

    /// Calls `f(k, word)` for every cell `k` selected in `mask`, in
    /// increasing order.
    #[inline]
    pub(crate) fn gather(&self, mask: &[u64], mut f: impl FnMut(usize, Option<Word>)) {
        let (valid, values) = (self.valid(), self.values());
        for_each_one(mask, |k| f(k, test(valid, k).then(|| values[k] as Word)));
    }

    /// Writes `word(k)` to every cell `k` selected in `mask`, in
    /// increasing order; the validity bits are merged a word at a time.
    #[inline]
    pub(crate) fn scatter(&mut self, mask: &[u64], mut word: impl FnMut(usize) -> Option<Word>) {
        let nw = self.nw;
        if self.buf.len() == nw && mask.iter().any(|&m| m != 0) {
            self.zero_values();
        }
        let (valid, values) = self.buf.split_at_mut(nw);
        for (w, (&m, bits)) in mask.iter().zip(valid.iter_mut()).enumerate() {
            let mut got = 0;
            let mut rest = m;
            while rest != 0 {
                let b = rest.trailing_zeros() as usize;
                let v = word(w << 6 | b);
                values[w << 6 | b] = v.unwrap_or(0) as u64;
                got |= u64::from(v.is_some()) << b;
                rest &= rest - 1;
            }
            *bits = (*bits & !m) | got;
        }
    }

    /// Sets every cell to `v`.
    pub(crate) fn fill(&mut self, v: Option<Word>) {
        let cells = self.cells;
        self.rewrite(
            |values| values.resize(values.len() + cells, v.unwrap_or(0) as u64),
            |valid| if v.is_some() { fill(valid, cells) } else { valid.fill(0) },
        );
    }

    /// Rewrites every cell in one pass: `extend` appends exactly `cells`
    /// values, in cell order, to the buffer it is handed, and `valid`
    /// rewrites the validity bitset to match.
    ///
    /// # Panics
    ///
    /// Panics if `extend` appends another number of values.
    pub(crate) fn rewrite(
        &mut self,
        extend: impl FnOnce(&mut Vec<u64>),
        valid: impl FnOnce(&mut [u64]),
    ) {
        let (nw, cells) = (self.nw, self.cells);
        self.buf.truncate(nw);
        extend(&mut self.buf);
        assert_eq!(self.buf.len(), nw + cells, "one value per register cell");
        valid(&mut self.buf[..nw]);
    }

    /// Rotates every `block`-cell block down by one cell, the lowest
    /// wrapping to the top (`VECTORCIRCULATE` with cycles of `block`).
    pub(crate) fn rotate_blocks(&mut self, block: usize) {
        let (valid, values) = self.buf.split_at_mut(self.nw);
        for b in values.chunks_mut(block) {
            b.rotate_left(1);
        }
        rotate_blocks(valid, self.cells, block);
    }

    /// The plane as one `Option<Word>` per cell (the snapshot form).
    pub(crate) fn to_words(&self) -> Vec<Option<Word>> {
        (0..self.cells).map(|k| self.get(k)).collect()
    }

    /// Overwrites the plane from one `Option<Word>` per cell.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not have one entry per cell.
    pub(crate) fn load(&mut self, words: &[Option<Word>]) {
        assert_eq!(words.len(), self.cells, "one word per register cell");
        self.rewrite(
            |values| values.extend(words.iter().map(|w| w.unwrap_or(0) as u64)),
            |valid| {
                valid.fill(0);
                for (k, w) in words.iter().enumerate() {
                    assign(valid, k, w.is_some());
                }
            },
        );
    }
}

/// A source's or the old word of a cell of a [`Plane::apply`], from its
/// validity word and value.
#[inline(always)]
fn word_at(valid: u64, value: u64, b: usize) -> Option<Word> {
    (valid >> b & 1 != 0).then_some(value as Word)
}

/// Runs `f` at the cells selected in `m` among cells `lo..lo + out.len()`
/// — the sources' validity words and values and this plane's old
/// validity word and values in `src`, `old` and `out` — and returns
/// their new validity bits.
#[inline(always)]
fn run_sparse<const N: usize>(
    lo: usize,
    m: u64,
    src: [(u64, &[u64]); N],
    old: u64,
    out: &mut [u64],
    f: &mut impl FnMut(usize, [Option<Word>; N], Option<Word>) -> Option<Word>,
) -> u64 {
    let mut got = 0;
    let mut rest = m;
    while rest != 0 {
        let b = rest.trailing_zeros() as usize;
        let v =
            f(lo | b, src.map(|(valid, vals)| word_at(valid, vals[b], b)), word_at(old, out[b], b));
        out[b] = v.unwrap_or(0) as u64;
        got |= u64::from(v.is_some()) << b;
        rest &= rest - 1;
    }
    got
}

/// [`run_sparse`] for a whole word of 64 selected cells. `SRC` and `OLD`
/// say that every source word, and every old word, is valid: they are
/// then passed without testing a validity bit, so a kernel compiles to
/// much the code of one over plain values.
#[inline(always)]
fn run_full<const N: usize, const SRC: bool, const OLD: bool>(
    lo: usize,
    src: [(u64, &[u64; 64]); N],
    old: u64,
    out: &mut [u64; 64],
    f: &mut impl FnMut(usize, [Option<Word>; N], Option<Word>) -> Option<Word>,
) -> u64 {
    let mut got = 0;
    for b in 0..64 {
        // A validity word known to be full folds the bit tests away.
        let words =
            src.map(|(valid, vals)| word_at(if SRC { u64::MAX } else { valid }, vals[b], b));
        let before = word_at(if OLD { u64::MAX } else { old }, out[b], b);
        let v = f(lo | b, words, before);
        out[b] = v.unwrap_or(0) as u64;
        got |= u64::from(v.is_some()) << b;
    }
    got
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bits `0..bits` of `set` as bools.
    fn bools(set: &[u64], bits: usize) -> Vec<bool> {
        (0..bits).map(|k| test(set, k)).collect()
    }

    #[test]
    fn ranges_match_bit_by_bit_edits() {
        for bits in [1usize, 7, 64, 65, 130, 256] {
            let mut set = vec![0; words(bits)];
            let mut want = vec![false; bits];
            for (lo, len, on) in [(0, bits, true), (bits / 3, bits / 2, false), (1, 0, false)] {
                let len = len.min(bits - lo.min(bits));
                assign_range(&mut set, lo, len, on);
                want[lo..lo + len].fill(on);
                assert_eq!(bools(&set, bits), want, "{bits} bits, {lo}+{len}");
                for (a, n) in [(0, bits), (lo, len), (bits / 2, bits - bits / 2)] {
                    let c = want[a..a + n].iter().filter(|&&b| b).count() as u64;
                    assert_eq!(count_range(&set, a, n), c);
                }
            }
            fill(&mut set, bits);
            assert_eq!(count_range(&set, 0, bits), bits as u64);
            assert_eq!(set.iter().map(|w| u64::from(w.count_ones())).sum::<u64>(), bits as u64);
        }
    }

    #[test]
    fn set_bits_come_in_increasing_order() {
        let mut set = vec![0; 3];
        for k in [0, 5, 63, 64, 100, 191] {
            assign(&mut set, k, true);
        }
        let mut seen = Vec::new();
        for_each_one(&set, |k| seen.push(k));
        assert_eq!(seen, [0, 5, 63, 64, 100, 191]);
    }

    #[test]
    fn block_rotation_matches_rotate_left_for_every_block_size() {
        for (bits, block) in [(8usize, 2usize), (64, 4), (192, 8), (128, 64), (512, 128)] {
            let pattern: Vec<bool> = (0..bits).map(|k| (k * 7 + k / 3) % 5 < 2).collect();
            let mut set = vec![0; words(bits)];
            for (k, &on) in pattern.iter().enumerate() {
                assign(&mut set, k, on);
            }
            rotate_blocks(&mut set, bits, block);
            let mut want = pattern.clone();
            for b in want.chunks_mut(block) {
                b.rotate_left(1);
            }
            assert_eq!(bools(&set, bits), want, "{bits} bits in blocks of {block}");
            assert_eq!(count_range(&set, 0, bits), pattern.iter().filter(|&&b| b).count() as u64);
        }
    }

    #[test]
    fn plane_round_trips_nulls_and_extreme_words() {
        let words: Vec<Option<Word>> =
            [None, Some(0), Some(-1), Some(Word::MIN), Some(Word::MAX), None, Some(7)]
                .into_iter()
                .cycle()
                .take(70)
                .collect();
        let mut plane = Plane::new(words.len());
        assert!(plane.to_words().iter().all(Option::is_none), "a new plane is all NULL");
        assert!(plane.values().is_empty(), "values are written on first use");
        plane.load(&words);
        assert_eq!(plane.to_words(), words);
        for (k, &w) in words.iter().enumerate() {
            assert_eq!(plane.values()[k], w.unwrap_or(0) as u64, "NULL keeps value 0");
        }
        plane.fill(Some(3));
        assert!(plane.to_words().iter().all(|&w| w == Some(3)));
        assert_eq!(plane.valid()[1], low_bits(6), "no bit past the last cell");
        plane.rotate_blocks(2);
        assert!(plane.to_words().iter().all(|&w| w == Some(3)));

        plane.set(3, None);
        assert!(plane.get(3).is_none() && plane.get(4) == Some(3));
        plane.scatter(&[1 << 3 | 1 << 4, 0], |k| (k == 3).then_some(2));
        assert_eq!((plane.get(3), plane.get(4), plane.get(5)), (Some(2), None, Some(3)));

        let mut fresh = Plane::new(70);
        fresh.set(69, Some(-5));
        assert_eq!((fresh.get(69), fresh.get(68), fresh.values().len()), (Some(-5), None, 70));
        fresh.set(69, None);
        assert_eq!((fresh.get(69), fresh.values()[69]), (None, 0));
    }

    #[test]
    #[should_panic(expected = "one value per register cell")]
    fn a_short_rewrite_panics() {
        Plane::new(4).rewrite(|values| values.push(1), |_| {});
    }
}
