//! Eight-lane (interleaved) SHA-256 batch digest on AVX2.
//!
//! The FIDR NIC sustains line rate by instantiating several SHA-256
//! cores and hashing a *batch* of chunks at once (paper §6.2). On a host
//! with AVX2 but neither AVX-512 nor the SHA extensions this module is
//! the software stand-in
//! for those parallel cores: it interleaves [`LANES`] independent
//! messages through a single SIMD compression function, so one host
//! thread retires eight hash streams per round. [`crate::kernel`] picks
//! it for batches on such hosts; the NIC model always hashes in batches,
//! so it runs at any worker or engine count.
//!
//! # Lane layout
//!
//! SHA-256 state is eight 32-bit words; a 256-bit AVX2 register holds
//! eight 32-bit words. The kernel therefore transposes the state: SIMD
//! register `j` holds word `j` of *eight different messages* (one per
//! 32-bit element, the "lane"). Every compression round then performs
//! its adds/rotates/boolean ops on all eight messages at once. Message
//! blocks are fed lock-step: round `b` compresses block `b` of every
//! lane.
//!
//! # Groups
//!
//! A batch is cut into groups of eight. A last group of three to seven
//! messages still takes the kernel, its idle lanes re-hashing the
//! group's own messages with the output discarded (one eight-lane
//! compression costs about two scalar ones, so three messages already
//! win); one or two leftover messages run the scalar function. Narrower
//! interleaving (e.g. 4 lanes through plain `[u32; 4]` arrays) was
//! measured *slower* than scalar under the default `x86-64` baseline
//! codegen, so it is deliberately not offered.
//!
//! # Byte-identity guarantee
//!
//! Every digest equals the portable scalar function's, bit for bit: the
//! SIMD kernel computes the same FIPS 180-4 rounds over the same padded
//! blocks (the padding comes from the one [`padded_tail`] the streaming
//! hasher uses), and lanes whose messages outlive the group's common
//! block count finish through the scalar [`compress_scalar`] itself.
//! Dedup fingerprints, and therefore every exported metric derived from
//! them, cannot depend on which path hashed a chunk.
//!
//! # Safety
//!
//! One of the crate's three `unsafe` modules (the inner [`avx2`]). An
//! [`Avx2`] value exists only after [`Avx2::detect`] saw the host report
//! AVX2, and the kernel is reachable only through one.

use crate::kernel::Kernel;
use crate::sha256::{compress_scalar, digest_bytes, padded_tail, BLOCK, H0};

/// Messages one kernel call interleaves (AVX2: eight 32-bit lanes).
pub(crate) const LANES: usize = 8;

/// Fewest messages worth an eight-lane compression.
const MIN_GROUP: usize = 3;

/// Proof that the host CPU runs the AVX2 kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// `Some` when the CPU reports AVX2.
    pub(crate) fn detect() -> Option<Avx2> {
        std::arch::is_x86_feature_detected!("avx2").then_some(Avx2(()))
    }

    /// Writes the digest of `msgs[i]` to `out[i]`.
    pub(crate) fn digest_batch(self, msgs: &[&[u8]], out: &mut [[u8; 32]]) {
        for (group, out) in msgs.chunks(LANES).zip(out.chunks_mut(LANES)) {
            if group.len() < MIN_GROUP {
                Kernel::Scalar.digest_batch_into(group, out);
            } else {
                out.copy_from_slice(&self.digest_group(group)[..group.len()]);
            }
        }
    }

    /// Digests one group of [`MIN_GROUP`] to [`LANES`] messages (lanes
    /// past the group's length repeat its messages; ignore their
    /// digests): blocks common to all lanes run through the SIMD kernel;
    /// lanes whose (padded) messages are longer finish through the
    /// scalar compression function.
    #[allow(unsafe_code)]
    fn digest_group(self, group: &[&[u8]]) -> [[u8; 32]; LANES] {
        let lanes: [&[u8]; LANES] = std::array::from_fn(|l| group[l % group.len()]);
        // Each lane's padded blocks: `whole[l]` borrowed from the message,
        // then `tails[l]`.
        let whole: [usize; LANES] = std::array::from_fn(|l| lanes[l].len() / BLOCK);
        let tails: [([u8; 2 * BLOCK], usize); LANES] = std::array::from_fn(|l| {
            padded_tail(&lanes[l][whole[l] * BLOCK..], lanes[l].len() as u64)
        });
        let block = |l: usize, b: usize| -> &[u8] {
            match b.checked_sub(whole[l]) {
                None => &lanes[l][b * BLOCK..(b + 1) * BLOCK],
                Some(t) => &tails[l].0[t * BLOCK..(t + 1) * BLOCK],
            }
        };
        let totals: [usize; LANES] = std::array::from_fn(|l| whole[l] + tails[l].1 / BLOCK);
        let common = *totals.iter().min().expect("LANES > 0");

        let mut states = [H0; LANES];
        for b in 0..common {
            let blocks: [&[u8; BLOCK]; LANES] =
                std::array::from_fn(|l| block(l, b).try_into().expect("64-byte block slice"));
            // SAFETY: `self` exists, so `detect` saw the CPU report
            // `avx2`, the one feature `compress8` enables.
            unsafe { avx2::compress8(&mut states, &blocks) };
        }
        for l in 0..group.len() {
            for b in common..totals[l] {
                compress_scalar(&mut states[l], block(l, b));
            }
        }
        std::array::from_fn(|l| digest_bytes(&states[l]))
    }
}

/// The AVX2 8-lane SHA-256 compression kernel: `core::arch` intrinsics,
/// which are unsafe solely because they require the `avx2` target
/// feature — the caller holds an [`Avx2`]. No raw pointers escape;
/// loads/stores go through `_mm256_loadu_si256`/`_mm256_storeu_si256`
/// on stack arrays.
#[allow(unsafe_code)]
mod avx2 {
    use super::LANES;
    use crate::sha256::K;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_andnot_si256, _mm256_loadu_si256,
        _mm256_or_si256, _mm256_set1_epi32, _mm256_setzero_si256, _mm256_slli_epi32,
        _mm256_srli_epi32, _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// One FIPS 180-4 compression round over eight interleaved lanes:
    /// SIMD element `l` of every vector belongs to message `l`.
    ///
    /// # Safety
    ///
    /// The host CPU must support AVX2 (`is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn compress8(states: &mut [[u32; 8]; LANES], blocks: &[&[u8; 64]; LANES]) {
        macro_rules! rotr {
            ($x:expr, $r:expr) => {
                _mm256_or_si256(_mm256_srli_epi32($x, $r), _mm256_slli_epi32($x, 32 - $r))
            };
        }
        macro_rules! add {
            ($a:expr, $b:expr) => {
                _mm256_add_epi32($a, $b)
            };
        }
        let load = |vals: [u32; LANES]| {
            // SAFETY: `vals` is a properly-aligned-for-loadu 32-byte
            // stack array; unaligned load is explicitly allowed.
            unsafe { _mm256_loadu_si256(vals.as_ptr().cast::<__m256i>()) }
        };

        // Message schedule: w[t] holds word t of all eight lanes.
        let mut w = [_mm256_setzero_si256(); 64];
        for (t, wt) in w.iter_mut().enumerate().take(16) {
            let mut words = [0u32; LANES];
            for (l, word) in words.iter_mut().enumerate() {
                *word = u32::from_be_bytes(
                    blocks[l][t * 4..t * 4 + 4]
                        .try_into()
                        .expect("4-byte word slice"),
                );
            }
            *wt = load(words);
        }
        for t in 16..64 {
            let x = w[t - 15];
            let s0 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(x, 7), rotr!(x, 18)),
                _mm256_srli_epi32(x, 3),
            );
            let y = w[t - 2];
            let s1 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(y, 17), rotr!(y, 19)),
                _mm256_srli_epi32(y, 10),
            );
            w[t] = add!(add!(w[t - 16], s0), add!(w[t - 7], s1));
        }

        // Transpose state in: vector j = state word j across lanes.
        let col = |j: usize, states: &[[u32; 8]; LANES]| {
            let mut words = [0u32; LANES];
            for (l, word) in words.iter_mut().enumerate() {
                *word = states[l][j];
            }
            load(words)
        };
        let (mut a, mut b, mut c, mut d) = (
            col(0, states),
            col(1, states),
            col(2, states),
            col(3, states),
        );
        let (mut e, mut f, mut g, mut h) = (
            col(4, states),
            col(5, states),
            col(6, states),
            col(7, states),
        );

        for (t, &wt) in w.iter().enumerate() {
            let s1 = _mm256_xor_si256(_mm256_xor_si256(rotr!(e, 6), rotr!(e, 11)), rotr!(e, 25));
            let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
            let kt = _mm256_set1_epi32(K[t] as i32);
            let t1 = add!(add!(h, s1), add!(ch, add!(kt, wt)));
            let s0 = _mm256_xor_si256(_mm256_xor_si256(rotr!(a, 2), rotr!(a, 13)), rotr!(a, 22));
            let maj = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
                _mm256_and_si256(b, c),
            );
            let t2 = add!(s0, maj);
            h = g;
            g = f;
            f = e;
            e = add!(d, t1);
            d = c;
            c = b;
            b = a;
            a = add!(t1, t2);
        }

        // Transpose back and fold into each lane's running state.
        let store = |v: __m256i| {
            let mut words = [0u32; LANES];
            // SAFETY: 32-byte stack array destination; unaligned store
            // is explicitly allowed.
            unsafe { _mm256_storeu_si256(words.as_mut_ptr().cast::<__m256i>(), v) };
            words
        };
        let cols = [
            store(a),
            store(b),
            store(c),
            store(d),
            store(e),
            store(f),
            store(g),
            store(h),
        ];
        for (l, state) in states.iter_mut().enumerate() {
            for (j, col) in cols.iter().enumerate() {
                state[j] = state[j].wrapping_add(col[l]);
            }
        }
    }
}
