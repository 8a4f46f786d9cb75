//! Packed bitsets and the register plane built on them.
//!
//! The word-level core keeps every per-cell flag — the selection mask of
//! the running primitive, the live-leaf masks of an installed fault plan,
//! and which registers hold a word — as one bit per base processor, 64 to
//! a `u64`, in the flat `(i · cols + j) · cycle + q` order of the register
//! planes. Bits past the last cell stay clear, so whole-word operations
//! (AND, popcount, copy) need no tail handling.

use crate::word::Word;
use crate::wordnet::Axis;

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

/// The low `period` bits of `bits` repeated across a word (`period ≤
/// 64` a power of two).
#[inline]
fn repeat(bits: u64, period: usize) -> u64 {
    let (mut pattern, mut width) = (bits, period);
    while width < 64 {
        pattern |= pattern << width;
        width *= 2;
    }
    pattern
}

/// Writes bits `lo..lo + len` of `set` as the low `period` bits of
/// `bits` repeated. `period ≤ 64` and `len` are powers of two, `period ≤
/// len`, and `lo` is a multiple of `len`, so the repeats line up with the
/// words.
fn write_periodic(set: &mut [u64], lo: usize, len: usize, period: usize, bits: u64) {
    let pattern = repeat(bits, period);
    if len >= 64 {
        set[lo >> 6..(lo + len) >> 6].fill(pattern);
    } else {
        let at = low_bits(len) << (lo & 63);
        set[lo >> 6] = (set[lo >> 6] & !at) | (pattern << (lo & 63) & at);
    }
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

/// Where a broadcast plane's cells find their words: the root stream of
/// one tree family, flat `tree · cycle + q`, which every cell of a tree
/// shares. Column counts and cycle lengths are powers of two.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Spread {
    /// The tree family the stream came from.
    axis: Axis,
    /// `log₂` of the cycle length.
    cshift: u32,
    /// `log₂` of the column count.
    jshift: u32,
    /// The stream's length: `trees · cycle`.
    len: usize,
}

impl Spread {
    /// The stream position cell `k` reads.
    #[inline]
    fn index(self, k: usize) -> usize {
        match self.axis {
            // Cell `(i, j, q)` of row tree `i` reads `i · cycle + q`.
            Axis::Rows => {
                (k >> (self.cshift + self.jshift)) << self.cshift | (k & ((1 << self.cshift) - 1))
            }
            // Cell `(i, j, q)` of column tree `j` reads `j · cycle + q`: the
            // stream repeats row after row.
            Axis::Cols => k & (self.len - 1),
        }
    }
}

/// One register plane: a word per base processor plus one validity bit
/// each, where a clear bit is the paper's `NULL`.
///
/// Both live in one allocation — `words(cells)` validity words, then the
/// values — so a plane costs one allocation. A plane is in one of three
/// states, told apart by the buffer's length:
///
/// * *unwritten* (`words(cells)`): every cell `NULL`. A new plane starts
///   here; only its validity words are zeroed.
/// * *flat* (`words(cells) + cells`): one value per cell. The first
///   whole-plane write ([`Plane::fill`], [`Plane::rewrite`]) writes the
///   values in one pass; the first single-cell write zeroes them.
/// * *broadcast* (any other length): the fault-free `ROOTTOLEAF` to every
///   cell ([`Plane::broadcast`]). The validity words stay zero and the
///   values hold only the root stream, then the stream's validity bits.
///   [`Plane::get`], [`Plane::gather`], [`Plane::apply`]'s sources and
///   [`Plane::fill_from_stream`] read it in place; every other access
///   expands it to a flat plane first, once. A plane stays broadcast only
///   while the stream and its bits are shorter than the plane, so the
///   lengths differ and the stream fits the capacity a flat plane needs.
///
/// No code reads a broadcast plane's [`Plane::valid`] or
/// [`Plane::values`]. The value of a `NULL` cell or stream word is kept
/// 0, so a non-zero value implies a valid one.
#[derive(Clone, Debug)]
pub(crate) struct Plane {
    cells: usize,
    /// `words(cells)`: where the values start.
    nw: usize,
    buf: Vec<u64>,
    /// How cells map onto the stream while the plane is broadcast.
    spread: Option<Spread>,
}

impl Plane {
    /// An all-`NULL` plane of `cells` cells.
    pub(crate) fn new(cells: usize) -> Plane {
        let nw = words(cells);
        let mut buf = Vec::with_capacity(nw + cells);
        buf.resize(nw, 0);
        Plane { cells, nw, buf, spread: None }
    }

    /// Number of cells.
    #[inline]
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// Whether the plane holds one value per cell.
    #[inline]
    fn is_flat(&self) -> bool {
        self.buf.len() == self.nw + self.cells
    }

    /// Whether the plane is a broadcast not yet expanded.
    #[inline]
    pub(crate) fn is_broadcast(&self) -> bool {
        self.spread.is_some()
    }

    /// The validity bitset (not of a broadcast plane).
    #[inline]
    pub(crate) fn valid(&self) -> &[u64] {
        debug_assert!(self.spread.is_none(), "a broadcast plane's validity is its stream's");
        &self.buf[..self.nw]
    }

    /// The value array (not of a broadcast plane) — empty while no value
    /// has been written, when every cell is `NULL`.
    #[inline]
    pub(crate) fn values(&self) -> &[u64] {
        debug_assert!(self.spread.is_none(), "a broadcast plane's values are its stream");
        &self.buf[self.nw..]
    }

    /// Cell `k`'s word. Callers keep `k` below [`Plane::cells`]; the
    /// register views check grid coordinates before they get here.
    #[inline]
    pub(crate) fn get(&self, k: usize) -> Option<Word> {
        debug_assert!(k < self.cells, "register cell {k} out of range");
        // A set bit means the cell's value has been written; a broadcast
        // plane's bits are all clear.
        if test(&self.buf, k) {
            Some(self.buf[self.nw + k] as Word)
        } else if self.spread.is_none() {
            None
        } else {
            self.broadcast_get(k)
        }
    }

    /// Cell `k`'s word of a broadcast plane, kept out of line so the reads
    /// of the other states inline.
    #[cold]
    #[inline(never)]
    fn broadcast_get(&self, k: usize) -> Option<Word> {
        self.spread.and_then(|s| self.stream_word(s, s.index(k)))
    }

    /// Stream position `p`'s word of a broadcast plane.
    #[inline]
    fn stream_word(&self, s: Spread, p: usize) -> Option<Word> {
        let stream = &self.buf[self.nw..];
        test(&stream[s.len..], p).then(|| stream[p] as Word)
    }

    /// Writes cell `k` (below [`Plane::cells`], as for [`Plane::get`]).
    #[inline]
    pub(crate) fn set(&mut self, k: usize, v: Option<Word>) {
        debug_assert!(k < self.cells, "register cell {k} out of range");
        if !self.is_flat() {
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

    /// Gives the plane one value per cell before its first single-cell
    /// write — 0 for an unwritten plane, the expansion of a broadcast one
    /// — kept out of line so the writes inline.
    #[cold]
    #[inline(never)]
    fn zero_values(&mut self) {
        if self.spread.is_some() {
            self.expand_broadcast();
        } else {
            self.buf.resize(self.nw + self.cells, 0);
        }
    }

    /// Writes the values of a plane that has none per cell yet (all 0 for
    /// an unwritten plane, the stream's copies for a broadcast one), so
    /// [`Plane::values`] has one per cell. Changes no cell's word.
    pub(crate) fn materialize(&mut self) {
        if !self.is_flat() {
            self.zero_values();
        }
    }

    /// Expands a broadcast plane to a flat one; does nothing to the
    /// others. Changes no cell's word.
    #[inline]
    pub(crate) fn expand(&mut self) {
        if self.spread.is_some() {
            self.expand_broadcast();
        }
    }

    /// Makes every cell the word its tree's root holds at the cell's
    /// stream position: `roots` is the root stream of `axis`'s trees, flat
    /// `tree · cycle + q`, on a grid of `cols` columns of `cycle`-position
    /// cells — the fault-free `ROOTTOLEAF` to every cell. Stores only the
    /// stream (see [`Plane`]); a grid of one row or column, where the
    /// stream is the whole plane, and cycles longer than a word are
    /// written out at once.
    pub(crate) fn broadcast(
        &mut self,
        axis: Axis,
        cols: usize,
        cycle: usize,
        roots: &[Option<Word>],
    ) {
        let (nw, len) = (self.nw, roots.len());
        self.buf.truncate(nw);
        self.buf.fill(0);
        self.buf.extend(roots.iter().map(|w| w.unwrap_or(0) as u64));
        if len == self.cells {
            self.spread = None;
            for (k, w) in roots.iter().enumerate() {
                assign(&mut self.buf, k, w.is_some());
            }
            return;
        }
        self.buf.resize(nw + len + words(len), 0);
        for (k, w) in roots.iter().enumerate() {
            assign(&mut self.buf[nw + len..], k, w.is_some());
        }
        let (cshift, jshift) = (cycle.trailing_zeros(), cols.trailing_zeros());
        self.spread = Some(Spread { axis, cshift, jshift, len });
        if len + words(len) >= self.cells || cycle > 64 {
            self.expand_broadcast();
        }
    }

    /// Writes a broadcast plane's cells from its stream, in place, each
    /// value once. The stream's values already sit where the first cells'
    /// go. Across the rows' trees, the rows past the stream are appended
    /// from it, each as its chunk and doubling copies; then the rows that
    /// overlap it are written in place, last first. Down the columns'
    /// trees, the stream is the first row and doubling copies repeat it.
    /// The validity bits follow the same patterns, a word at a time.
    #[cold]
    #[inline(never)]
    fn expand_broadcast(&mut self) {
        let Some(s) = self.spread.take() else { return };
        let (nw, cells, len) = (self.nw, self.cells, s.len);
        let (cycle, row) = (1 << s.cshift, 1 << (s.cshift + s.jshift));
        // The stream's bits move to the front of the (clear) validity words.
        self.buf.copy_within(nw + len..nw + len + words(len), 0);
        self.buf.truncate(nw + len);
        match s.axis {
            Axis::Rows => {
                let lead = len.div_ceil(row);
                self.buf.resize(nw + lead * row, 0);
                for i in lead..len / cycle {
                    let at = self.buf.len();
                    self.buf.extend_from_within(nw + i * cycle..nw + (i + 1) * cycle);
                    while self.buf.len() - at < row {
                        self.buf.extend_from_within(at..);
                    }
                }
                // Row `i ≥ 1` starts past its own chunk and covers only
                // the chunks of later rows.
                for i in (0..lead).rev() {
                    let at = nw + i * row;
                    self.buf.copy_within(nw + i * cycle..nw + (i + 1) * cycle, at);
                    let mut done = cycle;
                    while done < row {
                        self.buf.copy_within(at..at + done, at + done);
                        done *= 2;
                    }
                }
            }
            Axis::Cols => {
                while self.buf.len() < nw + cells {
                    self.buf.extend_from_within(nw..);
                }
            }
        }
        let valid = &mut self.buf[..nw];
        let ones = count_range(valid, 0, len);
        if ones == len as u64 {
            fill(valid, cells);
        } else if ones == 0 {
            // Every cell is `NULL`: the validity words stay clear.
        } else if s.axis == Axis::Cols && len >= 64 {
            for r in 1..cells / len {
                valid.copy_within(..len / 64, r * len / 64);
            }
        } else if s.axis == Axis::Cols {
            write_periodic(valid, 0, cells, len, valid[0] & low_bits(len));
        } else if cycle <= 64 {
            // Last row first, as for the values: a row's chunk lies below
            // every later row.
            for i in (0..len / cycle).rev() {
                let p = i * cycle;
                let chunk = (valid[p >> 6] >> (p & 63)) & low_bits(cycle);
                write_periodic(valid, i * row, row, cycle, chunk);
            }
        } else {
            // Every cell reads a stream position at or below its own, so
            // copying bits downwards from the top reads each before it is
            // overwritten.
            for k in (0..cells).rev() {
                let on = test(valid, s.index(k));
                assign(valid, k, on);
            }
        }
    }

    /// Fills the mask of a broadcast plane's cells whose stream word
    /// satisfies `hit(position, word)`: each row repeats the pattern of
    /// its tree's stream chunk, or every row the whole stream's, so it
    /// asks `hit` once per stream position and writes whole words.
    ///
    /// # Panics
    ///
    /// Panics unless the plane is broadcast.
    pub(crate) fn fill_from_stream(
        &self,
        mask: &mut [u64],
        hit: impl Fn(usize, Option<Word>) -> bool,
    ) {
        let s = self.spread.expect("a broadcast plane");
        let (cycle, row) = (1 << s.cshift, 1 << (s.cshift + s.jshift));
        let pattern = |lo: usize, n: usize| {
            (0..n).fold(0, |m, p| m | u64::from(hit(lo + p, self.stream_word(s, lo + p))) << p)
        };
        match s.axis {
            // A broadcast plane's cycles fit in a word.
            Axis::Rows => {
                for i in 0..s.len / cycle {
                    write_periodic(mask, i * row, row, cycle, pattern(i * cycle, cycle));
                }
            }
            Axis::Cols if row <= 64 => write_periodic(mask, 0, self.cells, row, pattern(0, row)),
            Axis::Cols => {
                let rw = row / 64;
                for (w, word) in mask[..rw].iter_mut().enumerate() {
                    *word = pattern(w * 64, 64);
                }
                for r in 1..self.cells / row {
                    mask.copy_within(..rw, r * rw);
                }
            }
        }
    }

    /// The stream of a broadcast plane, one word per position, and the
    /// family it came from; `None` for any other plane.
    pub(crate) fn stream(&self) -> Option<(Axis, impl Iterator<Item = Option<Word>> + '_)> {
        let s = self.spread?;
        Some((s.axis, (0..s.len).map(move |p| self.stream_word(s, p))))
    }

    /// Writes cells `lo..hi` of a broadcast or unwritten [`Plane::apply`]
    /// source into `block`. A whole word of one row's cells repeats that
    /// row's stream chunk, so the next word of the row finds it there.
    #[inline(never)]
    fn fill_block(&self, lo: usize, hi: usize, block: &mut Block) {
        let Some(s) = self.spread else {
            *block = Block::NULL;
            return;
        };
        let (stream, bits) = self.buf[self.nw..].split_at(s.len);
        let (cycle, row) = (1 << s.cshift, 1 << (s.cshift + s.jshift));
        let p = s.index(lo);
        match s.axis {
            Axis::Rows if row >= 64 => {
                if block.from != p {
                    for piece in block.values.chunks_exact_mut(cycle) {
                        piece.copy_from_slice(&stream[p..p + cycle]);
                    }
                    block.valid = repeat((bits[p >> 6] >> (p & 63)) & low_bits(cycle), cycle);
                    block.from = p;
                }
            }
            Axis::Cols if s.len >= 64 => {
                block.values.copy_from_slice(&stream[p..p + 64]);
                (block.valid, block.from) = (bits[p >> 6], usize::MAX);
            }
            _ => {
                let mut valid = 0;
                for (b, v) in block.values[..hi - lo].iter_mut().enumerate() {
                    let word = self.stream_word(s, s.index(lo + b));
                    *v = word.unwrap_or(0) as u64;
                    valid |= u64::from(word.is_some()) << b;
                }
                (block.valid, block.from) = (valid, usize::MAX);
            }
        }
    }

    /// Rewrites every cell `k` selected in `mask`, in increasing order, as
    /// `f(k, words, old)`: `words` holds each of `src`'s word at `k` and
    /// `old` this plane's. Sources are read a validity word (64 cells) at a
    /// time: a flat one from its value slice, a broadcast or unwritten one
    /// through a 64-cell block written from its stream. This plane's
    /// validity is built a word at a time, so no cell goes through
    /// [`Plane::get`] or [`Plane::set`].
    ///
    /// # Panics
    ///
    /// Panics unless every source has this plane's cell count.
    #[inline]
    pub(crate) fn apply<const N: usize>(
        &mut self,
        mask: &[u64],
        src: [&Plane; N],
        mut f: impl FnMut(usize, [Option<Word>; N], Option<Word>) -> Option<Word>,
    ) {
        let cells = self.cells;
        for s in &src {
            assert_eq!(s.cells, cells, "a kernel source has the destination's cells");
        }
        if mask.iter().any(|&m| m != 0) {
            self.materialize();
        }
        let flat = src.map(Plane::is_flat);
        let mut blocks = [Block::NULL; N];
        let (valid, values) = self.buf.split_at_mut(self.nw);
        for (w, (&m, bits)) in mask.iter().zip(valid.iter_mut()).enumerate() {
            if m == 0 {
                continue;
            }
            let (lo, old) = (w << 6, *bits);
            let hi = (lo + 64).min(cells);
            for ((s, block), _) in src.iter().zip(&mut blocks).zip(flat).filter(|(_, f)| !f) {
                s.fill_block(lo, hi, block);
            }
            let valid = |i: usize| if flat[i] { src[i].buf[w] } else { blocks[i].valid };
            let got = if m == u64::MAX {
                // Bits past the last cell are clear, so all 64 cells exist.
                let src: [(u64, &[u64; 64]); N] = std::array::from_fn(|i| {
                    let s = src[i];
                    let values = if flat[i] {
                        s.buf[s.nw + lo..s.nw + lo + 64].try_into().unwrap()
                    } else {
                        &blocks[i].values
                    };
                    (valid(i), values)
                });
                let out = (&mut values[lo..lo + 64]).try_into().unwrap();
                match (src.iter().all(|&(v, _)| v == u64::MAX), old == u64::MAX) {
                    (true, true) => run_full::<N, true, true>(lo, src, old, out, &mut f),
                    (true, false) => run_full::<N, true, false>(lo, src, old, out, &mut f),
                    _ => run_full::<N, false, false>(lo, src, old, out, &mut f),
                }
            } else {
                let src: [(u64, &[u64]); N] = std::array::from_fn(|i| {
                    let s = src[i];
                    let values = if flat[i] {
                        &s.buf[s.nw + lo..s.nw + hi]
                    } else {
                        &blocks[i].values[..hi - lo]
                    };
                    (valid(i), values)
                });
                run_sparse(lo, m, src, old, &mut values[lo..hi], &mut f)
            };
            *bits = (*bits & !m) | got;
        }
    }

    /// Calls `f(k, word)` for every cell `k` selected in `mask`, in
    /// increasing order.
    #[inline]
    pub(crate) fn gather(&self, mask: &[u64], mut f: impl FnMut(usize, Option<Word>)) {
        if let Some(s) = self.spread {
            for_each_one(mask, |k| f(k, self.stream_word(s, s.index(k))));
            return;
        }
        let (valid, values) = (self.valid(), self.values());
        for_each_one(mask, |k| f(k, test(valid, k).then(|| values[k] as Word)));
    }

    /// Writes `word(k)` to every cell `k` selected in `mask`, in
    /// increasing order; the validity bits are merged a word at a time.
    #[inline]
    pub(crate) fn scatter(&mut self, mask: &[u64], mut word: impl FnMut(usize) -> Option<Word>) {
        let nw = self.nw;
        if !self.is_flat() && mask.iter().any(|&m| m != 0) {
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
        self.spread = None;
        extend(&mut self.buf);
        assert_eq!(self.buf.len(), nw + cells, "one value per register cell");
        valid(&mut self.buf[..nw]);
    }

    /// Rotates every `block`-cell block down by one cell, the lowest
    /// wrapping to the top (`VECTORCIRCULATE` with cycles of `block`).
    pub(crate) fn rotate_blocks(&mut self, block: usize) {
        self.expand();
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

/// 64 cells of a broadcast or unwritten [`Plane::apply`] source: their
/// values and validity word, and the stream position a row's repeated
/// chunk was written from (`usize::MAX` for any other block).
#[derive(Clone, Copy)]
struct Block {
    values: [u64; 64],
    valid: u64,
    from: usize,
}

impl Block {
    /// 64 `NULL` cells.
    const NULL: Block = Block { values: [0; 64], valid: 0, from: usize::MAX };
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
