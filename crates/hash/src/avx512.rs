//! Sixteen-lane SHA-256 batch digest on AVX-512.
//!
//! The FIDR NIC hashes a *batch* of chunks on several SHA-256 cores at
//! once (paper §6.2). On a host with AVX-512 this module is the software
//! stand-in for those cores: one 512-bit register holds the same state
//! word of [`LANES`] messages, so one pass of the FIPS 180-4 rounds
//! compresses a block of sixteen messages. [`crate::kernel`] makes it the
//! batch kernel wherever the CPU reports `avx512f` and `avx512bw`; a lone
//! message has nothing to share the lanes with and stays on the message
//! kernel.
//!
//! # Lane layout
//!
//! State vector `j` holds word `j` of all sixteen messages and stays in a
//! zmm register across every block of a group. Each block arrives as
//! sixteen rows of sixteen big-endian words: `vpshufb` swaps the bytes,
//! and a 16 × 16 word transpose (`unpack{lo,hi}_epi32`,
//! `unpack{lo,hi}_epi64`, then `shuffle_i32x4` 0x88/0xdd twice) turns row
//! `l` word `t` into schedule vector `t` lane `l`. Σ and σ rotate with
//! `vprord`; the three-input XORs, Ch and Maj are one
//! `vpternlogd` each (0x96, 0xCA, 0xE8).
//!
//! # Groups
//!
//! A batch is cut into groups of sixteen. When every lane of a group has
//! as many whole blocks and as many padding blocks, the padding blocks go
//! through the kernel too and the group needs nothing else. Otherwise
//! the kernel runs the whole blocks every lane has, and each message
//! finishes on the message kernel from there. A last group of fewer than
//! [`MIN_GROUP`] messages goes to the message kernel whole; a larger
//! partial group fills its idle lanes with its own messages and drops
//! their digests.
//!
//! # Byte-identity guarantee
//!
//! Every digest equals the portable scalar function's, bit for bit: the
//! padding comes from the one [`padded_tail`] the streaming hasher uses,
//! and a message the kernel does not finish resumes in [`Sha256`] from
//! the state the kernel left. Fingerprints, and every export derived
//! from them, cannot depend on which path hashed a chunk.
//!
//! # Safety
//!
//! The intrinsics live in the inner module `x16`, the crate's third place
//! that allows `unsafe`. An [`Avx512`] value exists only after
//! [`Avx512::detect`] saw the host report `avx512f` and `avx512bw`, and
//! the kernel is reachable only through one.

use crate::kernel::Kernel;
use crate::sha256::{digest_bytes, padded_tail, Sha256, BLOCK, H0};

/// Messages one kernel call interleaves (AVX-512: sixteen 32-bit lanes).
const LANES: usize = 16;

/// Fewest messages worth a sixteen-lane group. A group costs the same
/// with any number of lanes in use, about 16 × 1.3 µs for 4-KiB chunks
/// on a Sapphire Rapids core, while the SHA-NI message kernel takes
/// 2.5 µs per chunk. Measured there, eight messages hash 4 % slower in a
/// group than on SHA-NI and nine 10 % faster.
const MIN_GROUP: usize = 9;

/// Proof that the host CPU runs the AVX-512 kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Avx512(());

impl Avx512 {
    /// `Some` when the CPU reports AVX-512 Foundation (the lanes) and
    /// Byte/Word (the byte swap).
    pub(crate) fn detect() -> Option<Avx512> {
        (std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw"))
        .then_some(Avx512(()))
    }

    /// Digests of a batch of messages, in order. `message` digests what
    /// the lanes leave over: short last groups and ragged lanes.
    pub(crate) fn digest_batch(self, msgs: &[&[u8]], message: Kernel) -> Vec<[u8; 32]> {
        let mut out = Vec::with_capacity(msgs.len());
        for group in msgs.chunks(LANES) {
            if group.len() < MIN_GROUP {
                out.extend(message.digest_batch(group));
            } else {
                self.digest_group(group, message, &mut out);
            }
        }
        out
    }

    /// Appends the digests of one group of [`MIN_GROUP`] to [`LANES`]
    /// messages to `out`.
    #[allow(unsafe_code)]
    fn digest_group(self, group: &[&[u8]], message: Kernel, out: &mut Vec<[u8; 32]>) {
        let lanes: [&[u8]; LANES] = std::array::from_fn(|l| group[l % group.len()]);
        let whole = lanes.iter().map(|m| m.len() / BLOCK).min().unwrap_or(0);
        // Whole blocks, and blocks once padded (the marker and the 8-byte
        // length need 9 bytes after the message).
        let shape = |m: &[u8]| (m.len() / BLOCK, (m.len() + 9).div_ceil(BLOCK));
        let uniform = lanes.iter().all(|m| shape(m) == shape(lanes[0]));

        let mut state: [[u32; LANES]; 8] = std::array::from_fn(|j| [H0[j]; LANES]);
        let data: [&[u8]; LANES] = std::array::from_fn(|l| &lanes[l][..whole * BLOCK]);
        if uniform {
            let tails: [([u8; 2 * BLOCK], usize); LANES] = std::array::from_fn(|l| {
                padded_tail(&lanes[l][whole * BLOCK..], lanes[l].len() as u64)
            });
            let padding: [&[u8]; LANES] = std::array::from_fn(|l| &tails[l].0[..tails[l].1]);
            // SAFETY: `self` exists, so `detect` saw the CPU report
            // `avx512f` and `avx512bw`, the features `compress16` enables.
            unsafe { x16::compress16(&mut state, &[data, padding]) };
        } else if whole > 0 {
            // SAFETY: as above.
            unsafe { x16::compress16(&mut state, &[data]) };
        }
        let lane_state = |l: usize| -> [u32; 8] { std::array::from_fn(|j| state[j][l]) };
        out.extend(group.iter().enumerate().map(|(l, msg)| {
            if uniform {
                return digest_bytes(&lane_state(l));
            }
            let mut rest = Sha256::resume(message, lane_state(l), (whole * BLOCK) as u64);
            rest.update(&msg[whole * BLOCK..]);
            rest.finalize()
        }));
    }
}

/// The AVX-512 sixteen-lane SHA-256 compression kernel: `core::arch`
/// intrinsics, unsafe only because they need `avx512f` and `avx512bw`,
/// which the caller's [`Avx512`] proves. Loads and stores go through
/// `_mm512_loadu_si512`/`_mm512_storeu_si512` on 64-byte arrays.
#[allow(unsafe_code)]
mod x16 {
    use super::LANES;
    use crate::sha256::{BLOCK, K};
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_broadcast_i32x4, _mm512_loadu_si512, _mm512_ror_epi32,
        _mm512_set1_epi32, _mm512_setzero_si512, _mm512_shuffle_epi8, _mm512_shuffle_i32x4,
        _mm512_srli_epi32, _mm512_storeu_si512, _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32,
        _mm512_unpackhi_epi64, _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm_set_epi64x,
    };

    /// One 64-byte block as a register, first byte in the low lane.
    #[target_feature(enable = "avx512f")]
    fn load_block(bytes: &[u8; BLOCK]) -> __m512i {
        // SAFETY: `bytes` is 64 readable bytes; `loadu` needs no alignment.
        unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) }
    }

    /// One word of all sixteen lanes as a register.
    #[target_feature(enable = "avx512f")]
    fn load_words(words: &[u32; LANES]) -> __m512i {
        // SAFETY: `words` is 64 readable bytes; `loadu` needs no alignment.
        unsafe { _mm512_loadu_si512(words.as_ptr().cast()) }
    }

    #[target_feature(enable = "avx512f")]
    fn store_words(words: &mut [u32; LANES], v: __m512i) {
        // SAFETY: `words` is 64 writable bytes; `storeu` needs no alignment.
        unsafe { _mm512_storeu_si512(words.as_mut_ptr().cast(), v) }
    }

    /// Turns sixteen rows (row `l` = the sixteen words of lane `l`'s
    /// block) into sixteen columns (column `t` = word `t` of every lane).
    #[target_feature(enable = "avx512f")]
    fn transpose(r: [__m512i; 16]) -> [__m512i; 16] {
        // In each 128-bit quarter `k` of a register:
        // a[2m], a[2m+1]: words 4k, 4k+1 and 4k+2, 4k+3 of rows 2m, 2m+1
        // interleaved.
        let mut a = [_mm512_setzero_si512(); 16];
        for m in 0..8 {
            a[2 * m] = _mm512_unpacklo_epi32(r[2 * m], r[2 * m + 1]);
            a[2 * m + 1] = _mm512_unpackhi_epi32(r[2 * m], r[2 * m + 1]);
        }
        // b[4q + j]: word 4k + j of rows 4q..4q+4.
        let mut b = [_mm512_setzero_si512(); 16];
        for q in 0..4 {
            b[4 * q] = _mm512_unpacklo_epi64(a[4 * q], a[4 * q + 2]);
            b[4 * q + 1] = _mm512_unpackhi_epi64(a[4 * q], a[4 * q + 2]);
            b[4 * q + 2] = _mm512_unpacklo_epi64(a[4 * q + 1], a[4 * q + 3]);
            b[4 * q + 3] = _mm512_unpackhi_epi64(a[4 * q + 1], a[4 * q + 3]);
        }
        // Column 4k + j gathers quarter k of b[j], b[4+j], b[8+j],
        // b[12+j]: 0x88 picks quarters 0 and 2 of each source, 0xdd
        // quarters 1 and 3.
        let mut out = [_mm512_setzero_si512(); 16];
        for j in 0..4 {
            let c0 = _mm512_shuffle_i32x4::<0x88>(b[j], b[4 + j]);
            let c1 = _mm512_shuffle_i32x4::<0xdd>(b[j], b[4 + j]);
            let c2 = _mm512_shuffle_i32x4::<0x88>(b[8 + j], b[12 + j]);
            let c3 = _mm512_shuffle_i32x4::<0xdd>(b[8 + j], b[12 + j]);
            out[j] = _mm512_shuffle_i32x4::<0x88>(c0, c2);
            out[4 + j] = _mm512_shuffle_i32x4::<0x88>(c1, c3);
            out[8 + j] = _mm512_shuffle_i32x4::<0xdd>(c0, c2);
            out[12 + j] = _mm512_shuffle_i32x4::<0xdd>(c1, c3);
        }
        out
    }

    /// Folds every block of every run into `state` (`state[j]` holds
    /// word `j` of each lane). A run is one slice per lane, all of the
    /// same whole number of blocks; the state stays in registers from
    /// the first block of the first run to the last of the last.
    ///
    /// # Panics
    ///
    /// Panics (on a slice index) if a lane's slice is shorter than lane
    /// 0's in the same run.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub(super) fn compress16(state: &mut [[u32; LANES]; 8], runs: &[[&[u8]; LANES]]) {
        macro_rules! add {
            ($a:expr, $($rest:expr),+) => {{
                let mut sum = $a;
                $(sum = _mm512_add_epi32(sum, $rest);)+
                sum
            }};
        }
        macro_rules! xor3 {
            ($a:expr, $b:expr, $c:expr) => {
                _mm512_ternarylogic_epi32::<0x96>($a, $b, $c)
            };
        }
        macro_rules! ror {
            ($x:expr, $r:literal) => {
                _mm512_ror_epi32::<$r>($x)
            };
        }

        // Swaps the bytes of every 32-bit word: big-endian message words.
        let big_endian =
            _mm512_broadcast_i32x4(_mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203));
        let mut s = [_mm512_setzero_si512(); 8];
        for (v, words) in s.iter_mut().zip(state.iter()) {
            *v = load_words(words);
        }

        for run in runs {
            for at in (0..run[0].len() / BLOCK).map(|i| i * BLOCK) {
                let mut rows = [_mm512_setzero_si512(); 16];
                for (row, lane) in rows.iter_mut().zip(run) {
                    let block: &[u8; BLOCK] = lane[at..at + BLOCK]
                        .try_into()
                        .expect("64-byte block slice");
                    *row = _mm512_shuffle_epi8(load_block(block), big_endian);
                }
                // The schedule lives in a ring of sixteen: word t replaces
                // word t - 16. The rounds are unrolled, so every index
                // below is a constant and the ring stays in registers.
                let mut w = transpose(rows);
                let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = s;
                macro_rules! schedule {
                    ($t:expr) => {{
                        let t = $t;
                        if t >= 16 {
                            let (w15, w2) = (w[(t - 15) % 16], w[(t - 2) % 16]);
                            let s0 =
                                xor3!(ror!(w15, 7), ror!(w15, 18), _mm512_srli_epi32::<3>(w15));
                            let s1 = xor3!(ror!(w2, 17), ror!(w2, 19), _mm512_srli_epi32::<10>(w2));
                            w[t % 16] = add!(w[t % 16], s0, w[(t - 7) % 16], s1);
                        }
                        w[t % 16]
                    }};
                }
                // One round, renaming instead of shifting the eight words:
                // the new e lands in `$d` and the new a in `$h`, so the
                // next round takes the same names rotated by one.
                macro_rules! round {
                    ($a:ident, $b:ident, $c:ident, $d:ident,
                     $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {
                        let wt = schedule!($t);
                        let s1 = xor3!(ror!($e, 6), ror!($e, 11), ror!($e, 25));
                        // Ch: e ? f : g.
                        let ch = _mm512_ternarylogic_epi32::<0xCA>($e, $f, $g);
                        let t1 = add!($h, s1, ch, _mm512_set1_epi32(K[$t] as i32), wt);
                        let s0 = xor3!(ror!($a, 2), ror!($a, 13), ror!($a, 22));
                        // Maj: at least two of a, b, c.
                        let maj = _mm512_ternarylogic_epi32::<0xE8>($a, $b, $c);
                        $d = add!($d, t1);
                        $h = add!(t1, s0, maj);
                    };
                }
                macro_rules! rounds8 {
                    ($t:expr) => {
                        round!(a, b, c, d, e, f, g, h, $t);
                        round!(h, a, b, c, d, e, f, g, $t + 1);
                        round!(g, h, a, b, c, d, e, f, $t + 2);
                        round!(f, g, h, a, b, c, d, e, $t + 3);
                        round!(e, f, g, h, a, b, c, d, $t + 4);
                        round!(d, e, f, g, h, a, b, c, $t + 5);
                        round!(c, d, e, f, g, h, a, b, $t + 6);
                        round!(b, c, d, e, f, g, h, a, $t + 7);
                    };
                }

                rounds8!(0);
                rounds8!(8);
                rounds8!(16);
                rounds8!(24);
                rounds8!(32);
                rounds8!(40);
                rounds8!(48);
                rounds8!(56);
                for (v, x) in s.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                    *v = add!(*v, x);
                }
            }
        }

        for (words, v) in state.iter_mut().zip(s) {
            store_words(words, v);
        }
    }
}
