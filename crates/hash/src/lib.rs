//! # fidr-hash
//!
//! Hashing primitives for the FIDR inline data-reduction system
//! (MICRO-52 2019): a from-scratch streaming [`Sha256`], a batch digest
//! ([`digest_batch`]) standing in for the NIC's parallel SHA cores, the
//! 32-byte chunk [`Fingerprint`] used as the deduplication signature, and
//! the cheap [`fnv1a`] mix used by non-cryptographic helpers.
//!
//! In the paper, SHA-256 cores run on the FIDR NIC (or on the CIDR baseline's
//! FPGA) and cost the host nothing. In this reproduction the same digests
//! are computed in software and the hash *placement* (NIC vs FPGA vs CPU)
//! is captured by the hardware model in `fidr-hwsim`, so the stand-in has
//! to be as cheap as the host allows. Four kernels compute identical
//! digests:
//!
//! 1. **`avx512x16`**: AVX-512 (`avx512f` + `avx512bw`); batches run
//!    sixteen messages through one SIMD compression (module `avx512`).
//! 2. **`sha-ni`**: the x86 SHA extensions, one hardware-speed stream per
//!    message, two interleaved in a batch (module `shani`).
//! 3. **`avx2x8`**: AVX2; batches interleave eight messages through one
//!    SIMD compression (module `lanes`).
//! 4. **`scalar`**: the portable FIPS 180-4 reference (module `sha256`).
//!
//! One dispatch, probed once per process from the CPU's feature bits and
//! never from a flag or setting, fills two roles. The *message* kernel
//! ([`kernel_name`]: `sha-ni`, else `scalar`) runs [`Sha256`] and
//! [`Fingerprint::of`]; the *batch* kernel ([`batch_kernel_name`]: the
//! first of all four) runs [`digest_batch`] and [`Fingerprint::of_batch`].
//! Each kernel is tested against the FIPS vectors and against the scalar
//! reference on its own, not through the dispatcher.
//!
//! # Examples
//!
//! ```
//! use fidr_hash::{Fingerprint, Sha256};
//!
//! // Fingerprint a 4-KB chunk and derive its Hash-PBN bucket.
//! let chunk = vec![7u8; 4096];
//! let fp = Fingerprint::of(&chunk);
//! let bucket = fp.bucket_index(1 << 20);
//! assert!(bucket < (1 << 20));
//!
//! // Streaming digest over the same bytes agrees.
//! let mut h = Sha256::new();
//! h.update(&chunk[..1000]);
//! h.update(&chunk[1000..]);
//! assert_eq!(&h.finalize(), fp.as_bytes());
//! ```

// Unsafe is denied crate-wide. The three exceptions are the intrinsics
// kernels, `shani`, `lanes::avx2` and `avx512::x16`: each carries a
// targeted allow, is reachable only through a token its runtime
// CPU-feature probe hands out, and states that contract in a SAFETY
// comment at the call.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
mod avx512;
mod fingerprint;
mod fnv;
mod kernel;
#[cfg(target_arch = "x86_64")]
mod lanes;
mod sha256;
#[cfg(target_arch = "x86_64")]
mod shani;

pub use fingerprint::{Fingerprint, FINGERPRINT_LEN};
pub use fnv::{fnv1a, fnv1a_u64, splitmix64};
pub use kernel::{batch_kernel_name, digest_batch, kernel_name};
#[doc(hidden)]
pub use kernel::{supported_kernels, KernelDigestBatch};
pub use sha256::Sha256;
