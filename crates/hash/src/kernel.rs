//! The one place that decides which SHA-256 kernels run.
//!
//! Four kernels produce the same digests: the AVX-512 sixteen-lane batch
//! kernel ([`crate::avx512`]), the SHA-NI kernel ([`crate::shani`]), the
//! AVX2 eight-lane batch kernel ([`crate::lanes`]) and the portable scalar
//! function ([`crate::sha256`]). Hashing has two roles, and the host's
//! CPU features fill each once per process:
//!
//! - the **message** kernel hashes one message at a time ([`Sha256`],
//!   [`crate::Fingerprint::of`], verify-on-read): the first of SHA-NI and
//!   scalar the host supports;
//! - the **batch** kernel hashes many at once ([`crate::digest_batch`],
//!   [`crate::Fingerprint::of_batch`], the NIC hash batch): the first of
//!   all four, in the order above.
//!
//! Nothing a user sets (flag, environment, cargo feature, config field)
//! takes part in either choice; [`kernel_name`] and [`batch_kernel_name`]
//! report them.

use crate::sha256::{compress_scalar, Sha256};
#[cfg(target_arch = "x86_64")]
use crate::{avx512::Avx512, lanes::Avx2, shani::ShaNi};
use std::sync::OnceLock;

/// A SHA-256 kernel the host has been shown to support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// AVX-512: batches run sixteen messages per compression; what the
    /// lanes leave over runs the message kernel.
    #[cfg(target_arch = "x86_64")]
    Avx512x16(Avx512),
    /// x86 SHA extensions: a message is one hardware-speed stream, and
    /// batches interleave two.
    #[cfg(target_arch = "x86_64")]
    ShaNi(ShaNi),
    /// AVX2 without SHA-NI: batches interleave eight messages per
    /// compression.
    #[cfg(target_arch = "x86_64")]
    Avx2x8(Avx2),
    /// The portable FIPS 180-4 reference.
    Scalar,
}

impl Kernel {
    /// Every kernel by name, fastest batch kernel first, each `Some` if
    /// this host can run it. The scalar kernel always can.
    pub(crate) fn probe() -> [(&'static str, Option<Kernel>); 4] {
        #[cfg(target_arch = "x86_64")]
        let (avx512x16, sha_ni, avx2x8) = (
            Avx512::detect().map(Kernel::Avx512x16),
            ShaNi::detect().map(Kernel::ShaNi),
            Avx2::detect().map(Kernel::Avx2x8),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx512x16, sha_ni, avx2x8) = (None, None, None);
        [
            ("avx512x16", avx512x16),
            ("sha-ni", sha_ni),
            ("avx2x8", avx2x8),
            ("scalar", Some(Kernel::Scalar)),
        ]
    }

    /// Whether the kernel hashes a lone message itself. A lane kernel
    /// needs a batch to fill its lanes; given one message, it runs the
    /// scalar function.
    fn hashes_messages(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(_) => true,
            Kernel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512x16(_) | Kernel::Avx2x8(_) => false,
        }
    }

    /// The first kernel in [`Kernel::probe`] order that this host
    /// supports and `role` accepts.
    fn first(role: fn(Kernel) -> bool) -> Kernel {
        Kernel::probe()
            .into_iter()
            .filter_map(|(_, kernel)| kernel)
            .find(|&kernel| role(kernel))
            .expect("the scalar kernel is always supported")
    }

    /// The kernel for one message at a time, probed on first use.
    pub(crate) fn message() -> Kernel {
        static MESSAGE: OnceLock<Kernel> = OnceLock::new();
        *MESSAGE.get_or_init(|| Kernel::first(Kernel::hashes_messages))
    }

    /// The kernel for batches, probed on first use.
    pub(crate) fn batch() -> Kernel {
        static BATCH: OnceLock<Kernel> = OnceLock::new();
        *BATCH.get_or_init(|| Kernel::first(|_| true))
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512x16(_) => "avx512x16",
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(_) => "sha-ni",
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2x8(_) => "avx2x8",
            Kernel::Scalar => "scalar",
        }
    }

    /// Folds the whole 64-byte blocks of `blocks` into one stream's
    /// `state`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is not a whole number of 64-byte blocks.
    pub(crate) fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(sha_ni) => sha_ni.compress(state, blocks),
            // A lane kernel needs a batch; one stream runs scalar.
            _ => compress_scalar(state, blocks),
        }
    }

    /// Digest of one message.
    pub(crate) fn digest(self, msg: &[u8]) -> [u8; 32] {
        let mut hasher = Sha256::with_kernel(self);
        hasher.update(msg);
        hasher.finalize()
    }

    /// Digests of a batch of messages, in order.
    pub(crate) fn digest_batch(self, msgs: &[&[u8]]) -> Vec<[u8; 32]> {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512x16(avx512) => avx512.digest_batch(msgs, Kernel::message()),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(sha_ni) => sha_ni.digest_batch(msgs),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2x8(avx2) => avx2.digest_batch(msgs),
            Kernel::Scalar => msgs.iter().map(|msg| self.digest(msg)).collect(),
        }
    }
}

/// Name of the SHA-256 kernel this process hashes single messages with:
/// `"sha-ni"` or `"scalar"`. It is a property of the host CPU, so it
/// belongs in logs and benchmark headers, never in a seeded export.
///
/// # Examples
///
/// ```
/// assert!(["sha-ni", "scalar"].contains(&fidr_hash::kernel_name()));
/// ```
pub fn kernel_name() -> &'static str {
    Kernel::message().name()
}

/// Name of the SHA-256 kernel behind [`digest_batch`]: `"avx512x16"`,
/// `"sha-ni"`, `"avx2x8"` or `"scalar"`. A host property, like
/// [`kernel_name`].
///
/// # Examples
///
/// ```
/// let name = fidr_hash::batch_kernel_name();
/// assert!(["avx512x16", "sha-ni", "avx2x8", "scalar"].contains(&name));
/// ```
pub fn batch_kernel_name() -> &'static str {
    Kernel::batch().name()
}

/// A batch digest pinned to one kernel.
#[doc(hidden)]
pub type KernelDigestBatch = Box<dyn Fn(&[&[u8]]) -> Vec<[u8; 32]>>;

/// Every kernel this host supports, fastest first, as `(name, batch
/// digest)`. For the per-kernel rows of the micro-benchmarks only: it
/// is how a bench times a kernel the dispatcher would not pick here.
#[doc(hidden)]
pub fn supported_kernels() -> Vec<(&'static str, KernelDigestBatch)> {
    Kernel::probe()
        .into_iter()
        .filter_map(|(name, kernel)| {
            let kernel = kernel?;
            Some((
                name,
                Box::new(move |msgs: &[&[u8]]| kernel.digest_batch(msgs)) as KernelDigestBatch,
            ))
        })
        .collect()
}

/// Digests a batch of messages, byte-identical to calling
/// [`Sha256::digest`] on each, on the batch kernel
/// ([`batch_kernel_name`]).
///
/// # Examples
///
/// ```
/// use fidr_hash::{digest_batch, Sha256};
///
/// let msgs: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 1000 + i as usize]).collect();
/// let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
/// for (msg, digest) in msgs.iter().zip(digest_batch(&refs)) {
///     assert_eq!(digest, Sha256::digest(msg));
/// }
/// ```
pub fn digest_batch(msgs: &[&[u8]]) -> Vec<[u8; 32]> {
    Kernel::batch().digest_batch(msgs)
}

/// Every test here pins a kernel: with a dispatcher in front, comparing
/// `digest_batch` to `Sha256::digest` would compare a kernel to itself.
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Runs `check` on every kernel this host supports, naming the ones
    /// it cannot.
    fn for_each_kernel(check: impl Fn(Kernel)) {
        for (name, kernel) in Kernel::probe() {
            match kernel {
                Some(kernel) => check(kernel),
                None => println!("skipping {name}: this CPU does not support it"),
            }
        }
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Message lengths on either side of every padding decision: the
    /// length field fits the last block up to 55 bytes, spills into a
    /// second block from 56, and the same again one block later.
    const BOUNDARIES: [usize; 7] = [55, 56, 63, 64, 65, 119, 120];

    /// Deterministic bytes that differ per `salt`.
    fn bytes(len: usize, salt: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| crate::splitmix64(salt ^ i) as u8)
            .collect()
    }

    #[test]
    fn fips_180_4_vectors_on_every_kernel() {
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        let million_a = vec![b'a'; 1_000_000];
        let million_a_hex = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        for_each_kernel(|kernel| {
            let name = kernel.name();
            for (msg, want) in vectors {
                assert_eq!(hex(&kernel.digest(msg)), want, "{name} one-shot");
            }
            // Each short vector sixteen times over fills a lane group of
            // either width, padding blocks and all. The four plus the
            // long one then make a last group of five: wide enough for
            // the eight-lane kernel, with idle lanes.
            let mut batch: Vec<(&[u8], &str)> = vectors.iter().flat_map(|&v| [v; 16]).collect();
            batch.extend(vectors);
            batch.push((&million_a, million_a_hex));
            let msgs: Vec<&[u8]> = batch.iter().map(|(msg, _)| *msg).collect();
            let got = kernel.digest_batch(&msgs);
            assert_eq!(got.len(), batch.len());
            for (i, (digest, (_, want))) in got.iter().zip(&batch).enumerate() {
                assert_eq!(hex(digest), *want, "{name} batch, message {i}");
            }

            let mut streamed = Sha256::with_kernel(kernel);
            for piece in million_a.chunks(1000) {
                streamed.update(piece);
            }
            assert_eq!(hex(&streamed.finalize()), million_a_hex, "{name} streamed");
        });
    }

    #[test]
    fn streaming_matches_scalar_at_every_split_point() {
        let data = bytes(300, 7);
        let want = Kernel::Scalar.digest(&data);
        for_each_kernel(|kernel| {
            for split in 0..=data.len() {
                let mut h = Sha256::with_kernel(kernel);
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), want, "{} split at {split}", kernel.name());
            }
        });
    }

    #[test]
    fn batches_of_every_shape_match_scalar() {
        // Around both lane widths, their minimum groups, one to three
        // sixteen-lane groups and the NIC's 64-chunk batch; lengths mix
        // 4-KiB chunks, the padding boundaries, empty and odd
        // multi-block messages.
        let lengths = [4096, 0, 1, 4096, 300, 4097, 8192]
            .into_iter()
            .chain(BOUNDARIES);
        let msgs: Vec<Vec<u8>> = lengths
            .cycle()
            .take(65)
            .enumerate()
            .map(|(i, len)| bytes(len, i as u64))
            .collect();
        let want: Vec<[u8; 32]> = msgs.iter().map(|m| Kernel::Scalar.digest(m)).collect();
        for_each_kernel(|kernel| {
            for size in [
                0, 1, 2, 3, 7, 8, 9, 10, 11, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65,
            ] {
                // Slide the window so each size sees different neighbours.
                for start in [0, (65 - size) / 2, 65 - size] {
                    let refs: Vec<&[u8]> = msgs[start..start + size]
                        .iter()
                        .map(|m| m.as_slice())
                        .collect();
                    assert_eq!(
                        kernel.digest_batch(&refs),
                        want[start..start + size],
                        "{} batch of {size} from {start}",
                        kernel.name()
                    );
                }
            }
        });
    }

    #[test]
    fn every_lane_keeps_its_own_message() {
        // Sixteen messages with distinct bytes and distinct lengths. A
        // transpose that swaps two lanes, or two words of a block, hands
        // a lane another's digest or a digest of no message, and the
        // failure names the lane.
        let cases: [(&str, [usize; 16]); 3] = [
            // The NIC's case: 64 whole blocks and one padding block each.
            ("4-KiB chunks", [4096; 16]),
            // Two whole blocks and one padding block each, with a
            // different length field per lane.
            ("one shape", std::array::from_fn(|l| 128 + l)),
            // Three whole blocks each, then every padding length class:
            // the length field fits the last block up to a 52-byte
            // remainder and spills into a second block from 56.
            ("ragged", std::array::from_fn(|l| 192 + 4 * l)),
        ];
        for_each_kernel(|kernel| {
            for (case, lens) in cases {
                let msgs: Vec<Vec<u8>> = (0..16).map(|l| bytes(lens[l], 1000 + l as u64)).collect();
                let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
                let want: Vec<[u8; 32]> = refs.iter().map(|m| Kernel::Scalar.digest(m)).collect();
                for (l, got) in kernel.digest_batch(&refs).iter().enumerate() {
                    let whose = match want.iter().position(|w| w == got) {
                        Some(other) => format!("lane {other}'s digest"),
                        None => "the digest of no lane".to_owned(),
                    };
                    assert_eq!(
                        *got,
                        want[l],
                        "{} {case}: lane {l} ({} bytes) got {whose}",
                        kernel.name(),
                        refs[l].len()
                    );
                }
            }
        });
    }

    #[test]
    fn dispatcher_runs_the_first_supported_kernel() {
        let supported: Vec<Kernel> = Kernel::probe()
            .into_iter()
            .filter_map(|(_, kernel)| kernel)
            .collect();
        // Batches take the first kernel of all; single messages the
        // first that hashes a lone message itself.
        assert_eq!(batch_kernel_name(), supported[0].name());
        let message = supported.iter().find(|k| k.hashes_messages());
        assert_eq!(
            kernel_name(),
            message.expect("scalar hashes messages").name()
        );
        assert!(["sha-ni", "scalar"].contains(&kernel_name()));
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("sha") {
                assert_eq!(kernel_name(), "sha-ni");
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
            {
                assert_eq!(batch_kernel_name(), "avx512x16");
            }
        }
    }

    /// A message length: anything up to two chunks, with the padding
    /// boundaries drawn as often as all other lengths together.
    fn message_len() -> impl Strategy<Value = usize> {
        prop_oneof![
            0usize..=8192,
            (0..BOUNDARIES.len()).prop_map(|i| BOUNDARIES[i])
        ]
    }

    /// The lengths of a batch of up to 39 messages, two to three
    /// sixteen-lane groups: ragged, or one length throughout so that
    /// whole groups share a block count.
    fn batch_lens() -> impl Strategy<Value = Vec<usize>> {
        prop_oneof![
            proptest::collection::vec(message_len(), 1..40),
            (message_len(), 1usize..40).prop_map(|(len, n)| vec![len; n]),
        ]
    }

    proptest! {
        /// Every kernel, one-shot and batched, equals the portable scalar
        /// function on random bytes of random and boundary lengths.
        #[test]
        fn every_kernel_matches_scalar(
            data in proptest::collection::vec(any::<u8>(), 8192..8193),
            lens in batch_lens(),
        ) {
            // Messages start at different offsets so no two share bytes
            // block for block.
            let msgs: Vec<&[u8]> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| &data[i.min(8192 - len)..][..len])
                .collect();
            let want: Vec<[u8; 32]> = msgs.iter().map(|m| Kernel::Scalar.digest(m)).collect();
            for_each_kernel(|kernel| {
                prop_assert_eq!(kernel.digest(msgs[0]), want[0], "{} one-shot", kernel.name());
                prop_assert_eq!(kernel.digest_batch(&msgs), want.clone(), "{} batch", kernel.name());
            });
        }
    }
}
