//! SHA-256 on the x86 SHA extensions (`sha256rnds2`/`sha256msg1`/
//! `sha256msg2`): the CPU's own fixed-function SHA-256 rounds, and the
//! closest thing a host has to the paper's in-NIC SHA cores (§6.2).
//!
//! One of the crate's three `unsafe` modules. Everything unsafe here is a
//! `core::arch` call that is unsafe only because it needs CPU features
//! the build does not assume; a [`ShaNi`] value exists only after
//! [`ShaNi::detect`] saw the host report those features, and the kernel
//! is reachable only through one.
//!
//! # Register layout
//!
//! `sha256rnds2` wants the eight state words split across two 128-bit
//! registers as `ABEF` and `CDGH` (most significant lane first), performs
//! two rounds per issue, and takes `W[t] + K[t]` for those two rounds in
//! the low half of a third register. Four message words live in each of
//! four rotating registers; `sha256msg1`/`sha256msg2` plus one
//! `palignr`/`paddd` produce the next four schedule words from them.
//!
//! # Streams
//!
//! The kernel is written once over `N` independent streams and used at
//! `N = 1` (a lone message) and `N = 2` (batches). A stream is one serial
//! chain of `sha256rnds2`, whose latency is several cycles, so a second
//! stream's instructions issue in the gaps: measured 3.1 µs per 4 KiB
//! chunk alone, 2.6 µs interleaved.

#![allow(unsafe_code)]

use crate::kernel::Kernel;
use crate::sha256::{Sha256, BLOCK, H0, K};
use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

/// Proof that the host CPU runs every instruction of the SHA-NI kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShaNi(());

impl ShaNi {
    /// `Some` when the CPU reports the SHA extensions and the SSE levels
    /// the kernel's shuffles and blends need.
    pub(crate) fn detect() -> Option<ShaNi> {
        (std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1"))
        .then_some(ShaNi(()))
    }

    /// Folds the whole 64-byte blocks of `blocks` into `state`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is not a whole number of 64-byte blocks.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        self.compress_streams(std::array::from_mut(state), [blocks]);
    }

    /// Digests of a batch of messages, in order. Messages go through the
    /// kernel two at a time: the blocks both have are interleaved, then
    /// each message finishes as a single stream.
    pub(crate) fn digest_batch(self, msgs: &[&[u8]]) -> Vec<[u8; 32]> {
        let kernel = Kernel::ShaNi(self);
        let mut out = Vec::with_capacity(msgs.len());
        for pair in msgs.chunks(2) {
            let mut states = [H0; 2];
            let shared = match pair {
                [a, b] => {
                    let shared = a.len().min(b.len()) / BLOCK * BLOCK;
                    self.compress_streams(&mut states, [&a[..shared], &b[..shared]]);
                    shared
                }
                _ => 0,
            };
            out.extend(pair.iter().zip(states).map(|(msg, state)| {
                let mut rest = Sha256::resume(kernel, state, shared as u64);
                rest.update(&msg[shared..]);
                rest.finalize()
            }));
        }
        out
    }

    /// Folds `blocks[s]` into `states[s]` for `N` independent streams of
    /// equally many whole blocks.
    fn compress_streams<const N: usize>(self, states: &mut [[u32; 8]; N], blocks: [&[u8]; N]) {
        assert!(
            blocks
                .iter()
                .all(|b| b.len() == blocks[0].len() && b.len() % BLOCK == 0),
            "equally many whole 64-byte blocks per stream"
        );
        // SAFETY: `self` exists, so `detect` saw the CPU report `sha`,
        // `sse2`, `ssse3` and `sse4.1` — every feature `compress` enables.
        unsafe { compress(states, blocks) }
    }
}

/// Unaligned 16-byte load.
#[target_feature(enable = "sse2")]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes; `loadu` needs no alignment.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Four consecutive `u32`s as one register, first word in the low lane.
#[target_feature(enable = "sse2")]
fn load_words(words: &[u32; 4]) -> __m128i {
    // SAFETY: `words` is 16 readable bytes; `loadu` needs no alignment.
    unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
}

#[target_feature(enable = "sse2")]
fn store_words(words: &mut [u32; 4], v: __m128i) {
    // SAFETY: `words` is 16 writable bytes; `storeu` needs no alignment.
    unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), v) }
}

/// The SHA-NI compression function over whole blocks of `N` independent
/// streams, interleaved instruction by instruction. Every `blocks[s]`
/// must be as long as `blocks[0]` (indexing panics otherwise).
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress<const N: usize>(states: &mut [[u32; 8]; N], blocks: [&[u8]; N]) {
    let mut abef = [_mm_setzero_si128(); N];
    let mut cdgh = [_mm_setzero_si128(); N];
    for s in 0..N {
        let abcd: &[u32; 4] = states[s][..4].try_into().expect("state words 0..4");
        let efgh: &[u32; 4] = states[s][4..].try_into().expect("state words 4..8");
        // DCBA, HGFE (lane 3 first) → ABEF, CDGH.
        let badc = _mm_shuffle_epi32(load_words(abcd), 0xB1);
        let efgh_rev = _mm_shuffle_epi32(load_words(efgh), 0x1B);
        abef[s] = _mm_alignr_epi8(badc, efgh_rev, 8);
        cdgh[s] = _mm_blend_epi16(efgh_rev, badc, 0xF0);
    }

    // Byte shuffle turning four big-endian message words into lanes.
    let big_endian = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    for b in 0..blocks[0].len() / BLOCK {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // w[s][g % 4] holds schedule words 4g..4g+4 of the newest groups.
        let mut w = [[_mm_setzero_si128(); 4]; N];
        for g in 0..16 {
            for s in 0..N {
                let w = &mut w[s];
                let words = if g < 4 {
                    let at = b * BLOCK + g * 16;
                    let bytes: &[u8; 16] = blocks[s][at..at + 16]
                        .try_into()
                        .expect("16-byte quarter of a block");
                    _mm_shuffle_epi8(load(bytes), big_endian)
                } else {
                    // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16],
                    // four at a time: msg1 adds σ0, msg2 adds σ1.
                    let (w16, w12, w8, w4) =
                        (w[g % 4], w[(g + 1) % 4], w[(g + 2) % 4], w[(g + 3) % 4]);
                    let partial =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
                    _mm_sha256msg2_epu32(partial, w4)
                };
                w[g % 4] = words;

                let k: &[u32; 4] = K[g * 4..g * 4 + 4].try_into().expect("4 round constants");
                let wk = _mm_add_epi32(words, load_words(k));
                cdgh[s] = _mm_sha256rnds2_epu32(cdgh[s], abef[s], wk);
                abef[s] = _mm_sha256rnds2_epu32(abef[s], cdgh[s], _mm_shuffle_epi32(wk, 0x0E));
            }
        }
        for s in 0..N {
            abef[s] = _mm_add_epi32(abef[s], abef_in[s]);
            cdgh[s] = _mm_add_epi32(cdgh[s], cdgh_in[s]);
        }
    }

    for (s, state) in states.iter_mut().enumerate() {
        let (abcd, efgh) = state.split_at_mut(4);
        // ABEF, CDGH → DCBA, HGFE.
        let feba = _mm_shuffle_epi32(abef[s], 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh[s], 0xB1);
        store_words(
            abcd.try_into().expect("state words 0..4"),
            _mm_blend_epi16(feba, dchg, 0xF0),
        );
        store_words(
            efgh.try_into().expect("state words 4..8"),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}
