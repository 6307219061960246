//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! FIDR offloads chunk hashing to the NIC using "instances of an open-source
//! SHA-256 core" (paper §6.2). This module is the software stand-in for those
//! cores: a streaming SHA-256 implementation used by every hash engine model
//! in the workspace, plus the portable scalar compression function. Which
//! compression kernel a hasher runs is [`crate::kernel`]'s decision; each
//! one is validated against the FIPS 180-4 test vectors there.

use crate::kernel::Kernel;

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first eight primes (FIPS 180-4 §5.3.3).
pub(crate) const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
pub(crate) const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// Streaming SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use fidr_hash::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf],
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    /// Compression kernel every block of this message runs through.
    kernel: Kernel,
    state: [u32; 8],
    /// Partial block buffer; `buf_len` bytes are valid.
    buf: [u8; BLOCK],
    buf_len: usize,
    /// Total message length in bytes processed so far.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state, on the message kernel (see
    /// [`crate::kernel_name`]).
    pub fn new() -> Self {
        Self::with_kernel(Kernel::message())
    }

    /// A hasher pinned to `kernel` rather than the dispatcher's choice.
    pub(crate) fn with_kernel(kernel: Kernel) -> Self {
        Self::resume(kernel, H0, 0)
    }

    /// A hasher on `kernel` that carries on from `state`, the result of
    /// compressing the first `absorbed` bytes (whole blocks) of a message.
    pub(crate) fn resume(kernel: Kernel, state: [u32; 8], absorbed: u64) -> Self {
        debug_assert_eq!(absorbed % BLOCK as u64, 0);
        Sha256 {
            kernel,
            state,
            buf: [0u8; BLOCK],
            buf_len: 0,
            total_len: absorbed,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially-buffered block first.
        if self.buf_len > 0 {
            let take = (BLOCK - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < BLOCK {
                return;
            }
            self.kernel.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }

        // Whole blocks straight from the input, in one kernel call.
        let (blocks, tail) = input.split_at(input.len() - input.len() % BLOCK);
        self.kernel.compress(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Consumes the hasher and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let (tail, len) = padded_tail(&self.buf[..self.buf_len], self.total_len);
        self.kernel.compress(&mut self.state, &tail[..len]);
        digest_bytes(&self.state)
    }

    /// One-shot convenience for hashing a full message.
    ///
    /// # Examples
    ///
    /// ```
    /// let d = fidr_hash::Sha256::digest(b"");
    /// assert_eq!(d[0], 0xe3);
    /// ```
    pub fn digest(data: &[u8]) -> [u8; 32] {
        Kernel::message().digest(data)
    }
}

/// Bytes in one SHA-256 message block.
pub(crate) const BLOCK: usize = 64;

/// The padded end of a `total_len`-byte message whose bytes past the
/// last whole block are `rem`: `rem`, the `0x80` marker, zero fill and
/// the big-endian bit length, as one or two blocks. Returns the buffer
/// and how many of its bytes (64 or 128) are in use.
pub(crate) fn padded_tail(rem: &[u8], total_len: u64) -> ([u8; 2 * BLOCK], usize) {
    debug_assert!(rem.len() < BLOCK);
    let mut tail = [0u8; 2 * BLOCK];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    // The marker and the 8-byte length need 9 bytes after `rem`.
    let len = if rem.len() + 9 <= BLOCK {
        BLOCK
    } else {
        2 * BLOCK
    };
    tail[len - 8..len].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    (tail, len)
}

/// Serializes final state words into the 32-byte digest.
pub(crate) fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The portable scalar SHA-256 compression function over whole 512-bit
/// blocks: the reference every other kernel is tested against, and the
/// message kernel where the host offers no SHA-NI.
///
/// # Panics
///
/// Panics if `blocks` is not a whole number of 64-byte blocks.
pub(crate) fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    assert_eq!(blocks.len() % BLOCK, 0, "whole 64-byte blocks only");
    for block in blocks.chunks_exact(BLOCK) {
        let mut w = [0u32; 64];
        for (wt, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wt = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}
