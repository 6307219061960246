//! A from-scratch LZ77-family block codec.
//!
//! The FIDR Compression Engine and the CIDR baseline both run LZ-class
//! lossless compression on FPGAs (paper §2.3, §6.1; CIDR builds on
//! "Gzip on a chip"-style cores). This module is the functional stand-in:
//! a byte-oriented block format in the LZ4 spirit — token byte with literal
//! run length and match length nibbles, 2-byte little-endian match offsets,
//! 255-continuation extension bytes.
//!
//! The format is self-terminating given the compressed length: the final
//! sequence carries only literals.
//!
//! The compressor is one greedy hash-chain matcher with tables sized to
//! the input (48 KiB for a 4-KiB chunk). Every position is indexed, but
//! not every position is searched. After 32 searches in a row have found
//! nothing, the next one is two bytes on, then three after 32 more, and
//! so on: the step is `1 + (misses >> SKIP_SHIFT)`, as in LZ4. A hit
//! found after such a skip is not taken as it is. The skipped gap is
//! taken back out of the index and searched byte by byte from one past
//! the previous probe, so a match that starts inside the gap is found
//! where the plain greedy scan would find it.
//!
//! The search is skipped and the index is not because the two cost and
//! buy different things. On an incompressible run every search fails, and
//! each one is a walk down a chain behind an unpredictable branch. An
//! insert is a hash and two stores, about a nanosecond, and it is what
//! later searches find: a run that matches nothing before it is often
//! matched by what follows, and with every position indexed, every chain
//! holds exactly what the greedy scan puts there. Skipping the inserts as
//! well, LZ4-style, stored 3.9 % more bytes on the benchmark's content.
//!
//! Where no literal run reaches 32 bytes no skip happens, and the output
//! is exactly the plain greedy matcher's. `tests/identity.rs` keeps that
//! matcher as a reference: `compress` equals it byte for byte there, and
//! elsewhere stays within a stated bound of its size.

use std::fmt;

/// Minimum match length worth encoding (a match costs 3 bytes: token share +
/// 2-byte offset).
const MIN_MATCH: usize = 4;
/// Maximum backward distance the 2-byte offset can express.
const MAX_OFFSET: usize = 65_535;
/// Hash table size (log2) for the matcher.
const HASH_BITS: u32 = 13;
/// After `1 << SKIP_SHIFT` probes in a row have missed, the search moves
/// on two bytes at a time, then three after as many more, and so on.
const SKIP_SHIFT: u32 = 5;
/// The longest skip: more than the window's worth would let a rewound
/// gap's slots in `prev` alias positions still inside the window.
const MAX_SKIP: usize = MAX_OFFSET;

/// Error returned when decompression encounters a malformed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompressError {
    detail: &'static str,
}

impl DecompressError {
    fn new(detail: &'static str) -> Self {
        DecompressError { detail }
    }
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed compressed stream: {}", self.detail)
    }
}

impl std::error::Error for DecompressError {}

/// The four bytes at `pos` as one little-endian word.
#[inline]
fn word_at(input: &[u8], pos: usize) -> u32 {
    let bytes: [u8; 4] = input[pos..pos + 4]
        .try_into()
        .expect("a 4-byte slice is a [u8; 4]");
    u32::from_le_bytes(bytes)
}

/// Length of the longest common prefix of `a` and `b`, compared eight
/// bytes at a time.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let word = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("chunks_exact(8) yields 8"));
    let mut len = 0usize;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    len + a[len..]
        .iter()
        .zip(&b[len..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Hash-chain index over the positions of one input, which are indexed
/// in increasing order.
struct Matcher {
    /// `head[h]` = most recent indexed position whose 4-byte hash is `h`
    /// (+1, 0 = none yet).
    head: Vec<u32>,
    /// `prev[p & mask]` = the indexed position before `p` in `p`'s hash
    /// chain (+1, 0 = none). Sized to the input, at most twice the window:
    /// two positions share a slot only when more than `2 * MAX_OFFSET`
    /// apart. A chain is followed only inside the window, and no position
    /// indexed while a search runs (even one a rewind has since taken out)
    /// is more than `MAX_SKIP` past the searched one. So a slot is only
    /// read for the position that wrote it last, earlier in the same call.
    prev: Vec<u32>,
    mask: usize,
}

impl Matcher {
    /// How many chain candidates one search examines.
    const TRIES: u32 = 16;

    fn new(input_len: usize) -> Self {
        let slots = input_len.next_power_of_two().min(2 * (MAX_OFFSET + 1));
        Matcher {
            head: vec![0u32; 1 << HASH_BITS],
            prev: vec![0u32; slots],
            mask: slots - 1,
        }
    }

    /// Indexes position `pos` and returns the chain it joins: the previous
    /// position with the same hash (+1, 0 = none).
    #[inline]
    fn insert(&mut self, word: u32, pos: usize) -> usize {
        let h = (word.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize;
        let candidate = self.head[h];
        self.head[h] = (pos + 1) as u32;
        self.prev[pos & self.mask] = candidate;
        candidate as usize
    }

    /// Undoes [`insert`](Self::insert) of `pos`, which must be the most
    /// recently indexed position.
    #[inline]
    fn unindex(&mut self, word: u32, pos: usize) {
        let h = (word.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize;
        debug_assert_eq!(self.head[h] as usize, pos + 1);
        self.head[h] = self.prev[pos & self.mask];
    }

    /// Walks the chain `candidate` that `pos` just joined and returns the
    /// best `(offset, len)` match: the first of up to `TRIES` candidates to
    /// reach the greatest length. `len < MIN_MATCH` means no usable match.
    ///
    /// Kept out of line so that the position loop in [`compress`], which
    /// on literal runs mostly sees empty chains, stays a handful of
    /// instructions with everything it needs in registers.
    #[inline(never)]
    fn longest_match(&self, input: &[u8], pos: usize, mut candidate: usize) -> (usize, usize) {
        #[cfg(test)]
        tests::SEARCHES.with(|s| s.set(s.get() + 1));
        let word = word_at(input, pos);
        let tail = &input[pos..];
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        let mut tries = Self::TRIES;
        while candidate > 0 && tries > 0 {
            let cand = candidate - 1;
            if pos - cand > MAX_OFFSET {
                break;
            }
            // A candidate sharing fewer than MIN_MATCH bytes can never be
            // emitted; it costs a try and nothing else.
            if word_at(input, cand) == word {
                let len = MIN_MATCH
                    + common_prefix(
                        &input[cand + MIN_MATCH..cand + tail.len()],
                        &tail[MIN_MATCH..],
                    );
                if len > best_len {
                    best_len = len;
                    best_off = pos - cand;
                    if len == tail.len() {
                        break;
                    }
                }
            }
            candidate = self.prev[cand & self.mask] as usize;
            tries -= 1;
        }
        (best_off, best_len)
    }
}

/// Compresses `input` into the block format.
///
/// The output of compressing an empty input is empty. Compression never
/// fails; incompressible data expands by at most ~0.5 %.
///
/// # Examples
///
/// ```
/// let data = b"abcabcabcabcabcabcabcabc".to_vec();
/// let packed = fidr_compress::compress(&data);
/// assert!(packed.len() < data.len());
/// assert_eq!(fidr_compress::decompress(&packed, data.len()).unwrap(), data);
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    let mut out = Vec::with_capacity(n / 2 + 16);
    if n == 0 {
        return out;
    }

    let mut matcher = Matcher::new(n);
    let mut pos = 0usize;
    let mut literal_start = 0usize;

    // Matches may not extend into the final MIN_MATCH bytes so the last
    // sequence always ends in literals; truncated streams then fail
    // decompression.
    let match_limit = n.saturating_sub(MIN_MATCH);

    'runs: while pos < match_limit {
        // Search every position, as plain greedy matching does, until
        // `1 << SKIP_SHIFT` of them in a row have missed.
        let dense_end = (pos + (1 << SKIP_SHIFT)).min(match_limit);
        while pos < dense_end {
            let candidate = matcher.insert(word_at(input, pos), pos);
            if candidate == 0 {
                // Its own exit: folded into the `len` test it costs 1.4 µs/chunk.
                pos += 1;
                continue;
            }
            let (off, len) = matcher.longest_match(input, pos, candidate);
            let len = len.min(match_limit - pos);
            if len < MIN_MATCH {
                pos += 1;
                continue;
            }
            emit_sequence(&mut out, &input[literal_start..pos], Some((off, len)));
            pos += len;
            literal_start = pos;
            if pos == match_limit {
                // Nothing past here is ever searched: index none of it.
                break 'runs;
            }
            // Index the match interior sparsely (every other byte) to keep
            // long matches fast. The `min` restates `p < match_limit` so
            // this loop's bounds checks go (1.3 µs/chunk).
            for p in (pos - len + 1..pos.min(match_limit)).step_by(2) {
                matcher.insert(word_at(input, p), p);
            }
            continue 'runs;
        }
        // Then probe ever more sparsely, `1 + (misses >> SKIP_SHIFT)` bytes
        // apart, still indexing every position passed over.
        let mut misses = 1usize << SKIP_SHIFT;
        let mut last = pos - 1;
        loop {
            pos = last + 1 + (misses >> SKIP_SHIFT).min(MAX_SKIP);
            if pos >= match_limit {
                break 'runs;
            }
            for p in last + 1..pos {
                matcher.insert(word_at(input, p), p);
            }
            let candidate = matcher.insert(word_at(input, pos), pos);
            let hit = candidate != 0
                && matcher
                    .longest_match(input, pos, candidate)
                    .1
                    .min(match_limit - pos)
                    >= MIN_MATCH;
            if hit {
                // The match may start anywhere in the gap just skipped:
                // take the gap out of the index again and search it byte by
                // byte from one past the last probe.
                for p in (last + 1..=pos).rev() {
                    matcher.unindex(word_at(input, p), p);
                }
                pos = last + 1;
                continue 'runs;
            }
            misses += 1;
            last = pos;
        }
    }

    // Final literal-only sequence.
    emit_sequence(&mut out, &input[literal_start..], None);
    out
}

fn emit_length(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit_len = literals.len();
    let lit_nibble = lit_len.min(15) as u8;
    let (match_nibble, off, mlen) = match m {
        Some((off, mlen)) => {
            debug_assert!(mlen >= MIN_MATCH);
            (((mlen - MIN_MATCH).min(15)) as u8, off, mlen)
        }
        None => (0, 0, 0),
    };
    out.push((lit_nibble << 4) | match_nibble);
    if lit_len >= 15 {
        emit_length(out, lit_len - 15);
    }
    out.extend_from_slice(literals);
    if m.is_some() {
        out.push((off & 0xff) as u8);
        out.push((off >> 8) as u8);
        if mlen - MIN_MATCH >= 15 {
            emit_length(out, mlen - MIN_MATCH - 15);
        }
    }
}

/// Decompresses a block produced by [`compress`].
///
/// `expected_len` is the exact original length (the storage system records
/// it in the PBN→PBA map, paper §2.1.4).
///
/// # Errors
///
/// Returns [`DecompressError`] if the stream is truncated, an offset points
/// before the output start, or the output length disagrees with
/// `expected_len`.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(expected_len);
    decompress_into(input, expected_len, &mut out)?;
    Ok(out)
}

/// Appends the decoded block to the empty `out`, which never grows past
/// `expected_len`: every run is checked against it before it is copied,
/// so a corrupt length field cannot make the decoder allocate.
fn decompress_into(
    input: &[u8],
    expected_len: usize,
    out: &mut Vec<u8>,
) -> Result<(), DecompressError> {
    let mut p = 0usize;
    let n = input.len();

    // An empty stream is the encoding of empty data.
    while p < n {
        let token = input[p];
        p += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            loop {
                let b = *input
                    .get(p)
                    .ok_or(DecompressError::new("truncated literal length"))?;
                p += 1;
                lit_len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        if lit_len > n - p {
            return Err(DecompressError::new("literal run past end of stream"));
        }
        if lit_len > expected_len - out.len() {
            return Err(DecompressError::new("output exceeds expected length"));
        }
        out.extend_from_slice(&input[p..p + lit_len]);
        p += lit_len;

        if p == n {
            break; // final literal-only sequence
        }

        if p + 2 > n {
            return Err(DecompressError::new("truncated match offset"));
        }
        let off = input[p] as usize | ((input[p + 1] as usize) << 8);
        p += 2;
        if off == 0 || off > out.len() {
            return Err(DecompressError::new("match offset out of range"));
        }
        let mut mlen = (token & 0x0f) as usize + MIN_MATCH;
        if mlen == 15 + MIN_MATCH {
            loop {
                let b = *input
                    .get(p)
                    .ok_or(DecompressError::new("truncated match length"))?;
                p += 1;
                mlen += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        if mlen > expected_len - out.len() {
            return Err(DecompressError::new("output exceeds expected length"));
        }
        // A match longer than its offset overlaps itself: what has been
        // copied so far repeats with period `off`, so each pass can copy
        // everything after `start` and the span doubles.
        let start = out.len() - off;
        while mlen > 0 {
            let span = mlen.min(out.len() - start);
            out.extend_from_within(start..start + span);
            mlen -= span;
        }
    }

    if out.len() != expected_len {
        return Err(DecompressError::new("output shorter than expected length"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// `longest_match` calls made on this thread.
        pub(super) static SEARCHES: Cell<u64> = const { Cell::new(0) };
    }

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn empty() {
        roundtrip(b"");
    }

    #[test]
    fn tiny() {
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn highly_repetitive_compresses_well() {
        let data = vec![0x42u8; 4096];
        let c = compress(&data);
        assert!(
            c.len() < 100,
            "4 KB of one byte should pack tiny, got {}",
            c.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn pattern_data() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 37) as u8).collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 4);
        roundtrip(&data);
    }

    #[test]
    fn incompressible_random_bytes_expand_little() {
        // xorshift-ish deterministic noise
        let mut s = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s & 0xff) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 128 + 16);
        roundtrip(&data);
    }

    #[test]
    fn long_match_extension_lengths() {
        // Force matches with length requiring several 255-extensions.
        let mut data = b"0123456789abcdef".to_vec();
        let rep = data.clone();
        for _ in 0..200 {
            data.extend_from_slice(&rep);
        }
        roundtrip(&data);
    }

    #[test]
    fn long_literal_runs() {
        // >270 distinct bytes to force extended literal length encoding.
        let data: Vec<u8> = (0u32..1000)
            .map(|i| (i.wrapping_mul(179) >> 3) as u8)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let data = vec![7u8; 1024];
        let c = compress(&data);
        assert!(decompress(&c[..c.len() - 1], data.len()).is_err());
    }

    #[test]
    fn wrong_expected_len_errors() {
        let data = b"hello world hello world hello world".to_vec();
        let c = compress(&data);
        assert!(decompress(&c, data.len() + 1).is_err());
        assert!(decompress(&c, data.len() - 1).is_err());
        assert!(decompress(&[], 1).is_err());
    }

    #[test]
    fn declared_lengths_are_bounded_before_copying() {
        // One literal, then an offset-1 match whose length field is 5 000
        // extension bytes: it declares ~1.2 MiB from a 5 KiB stream.
        let mut stream = vec![0x1f, b'a', 0x01, 0x00];
        stream.extend(std::iter::repeat_n(0xff, 5000));
        stream.push(0);
        let mut out = Vec::with_capacity(4096);
        assert!(decompress_into(&stream, 4096, &mut out).is_err());
        assert_eq!(out.capacity(), 4096, "decoder grew its output");

        // The same for a literal run: the stream holds the bytes, the
        // caller's expected length does not allow them.
        let mut stream = vec![0xf0, 0xff, 0xff, 0x00];
        stream.extend(std::iter::repeat_n(b'x', 15 + 510));
        let mut out = Vec::with_capacity(100);
        assert!(decompress_into(&stream, 100, &mut out).is_err());
        assert_eq!(out.capacity(), 100, "decoder grew its output");
    }

    #[test]
    fn overlapping_matches_repeat_their_period() {
        // Offsets 1, 3 and 8 with lengths below, at and far above the
        // offset, through the decoder's doubling copy.
        for period in [1usize, 3, 8] {
            for len in [period + 5, 2 * period + 4, 1000, 4096] {
                let data: Vec<u8> = (0..len).map(|i| b'a' + (i % period) as u8).collect();
                roundtrip(&data);
            }
        }
    }

    #[test]
    fn corrupt_offset_errors() {
        // Token demanding a match with offset beyond produced output.
        let stream = [0x10, b'a', 0xff, 0xff, 0x00];
        assert!(decompress(&stream, 100).is_err());
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 56) as u8
            })
            .collect()
    }

    /// `longest_match` calls made by one `compress` of `data`.
    fn searches(data: &[u8]) -> u64 {
        let before = SEARCHES.with(Cell::get);
        roundtrip(data);
        SEARCHES.with(Cell::get) - before
    }

    #[test]
    fn skipping_bounds_the_searches() {
        // 512 KiB of noise, then 512 KiB of an 8-byte motif. Byte by byte,
        // the noise alone costs ~524 000 searches. The skip probes it
        // `1 + k / 32` bytes after the k-th miss, so L bytes cost about
        // 8·sqrt(L) probes: 5 204 searches here (some probes join an empty
        // chain and search nothing). The motif adds one rewind, at
        // most 32 searches of its gap and one match to the end. A rewind
        // that looped or went backwards would blow through the bound.
        let mut data = noise(512 << 10, 7);
        let motif = *b"fidr-lz!";
        data.extend(motif.iter().cycle().take(512 << 10));
        let n = searches(&data);
        assert!(n <= 6_500, "{n} searches for 1 MiB");
        // The noise stays literal; the motif folds into one match whose
        // length takes a byte per 255.
        let packed = compress(&data).len();
        assert!(packed < data.len() / 2 + data.len() / 128, "{packed}");
    }
}
