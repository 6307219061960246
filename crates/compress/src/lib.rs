//! # fidr-compress
//!
//! Compression substrate for the FIDR data-reduction system: a from-scratch
//! LZ-class block codec ([`compress`] / [`decompress`]), a chunk-level
//! wrapper with raw fallback ([`CompressedChunk`]), and a deterministic
//! [`ContentGenerator`] that synthesises payloads at a target
//! compressibility (the paper's §7.1 workload recipe).
//!
//! In the paper the compression and decompression engines run on dedicated
//! FPGAs; their *placement and bandwidth* are modelled in `fidr-hwsim`, while
//! this crate supplies the actual byte transformation so that read-back
//! verification is end-to-end real.
//!
//! # Examples
//!
//! ```
//! use fidr_compress::{CompressedChunk, ContentGenerator};
//!
//! let gen = ContentGenerator::new(0.5);
//! let chunk = gen.chunk(1, 4096);
//! let cc = CompressedChunk::compress(&chunk);
//! assert!(cc.stored_len() < chunk.len());
//! assert_eq!(cc.decompress()?, chunk);
//! # Ok::<(), fidr_compress::DecompressError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod generator;
mod lzss;

pub use engine::{CompressedChunk, Encoding};
pub use generator::ContentGenerator;
pub use lzss::{compress, decompress, DecompressError};
