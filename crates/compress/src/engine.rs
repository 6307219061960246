//! Chunk-level compression with stored-raw fallback.
//!
//! The data SSDs store each unique chunk compressed, together with its
//! compressed size so the PBN→PBA map can locate it inside a container
//! (paper §2.1.4: "2 bytes for the compressed size"). Like real reduction
//! systems, a chunk whose compressed form would be larger than the original
//! is stored raw, flagged in the encoding byte.

use crate::lzss::{self, DecompressError};

/// How a chunk's bytes are encoded on the data SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// LZ-compressed payload.
    Lzss,
    /// Raw payload (compression did not help).
    Raw,
}

/// A compressed (or raw-fallback) chunk ready to be packed into a container.
///
/// # Examples
///
/// ```
/// use fidr_compress::CompressedChunk;
///
/// let data = vec![9u8; 4096];
/// let cc = CompressedChunk::compress(&data);
/// assert!(cc.stored_len() < 100);
/// assert_eq!(cc.decompress().unwrap(), data);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedChunk {
    encoding: Encoding,
    payload: Vec<u8>,
    original_len: u32,
}

impl CompressedChunk {
    /// Compresses `data`, falling back to raw storage when compression
    /// would expand it.
    pub fn compress(data: &[u8]) -> Self {
        let packed = lzss::compress(data);
        if packed.len() < data.len() {
            CompressedChunk {
                encoding: Encoding::Lzss,
                payload: packed,
                original_len: data.len() as u32,
            }
        } else {
            CompressedChunk {
                encoding: Encoding::Raw,
                payload: data.to_vec(),
                original_len: data.len() as u32,
            }
        }
    }

    /// Rebuilds a chunk from the fields a container stores for it: its
    /// encoding, original length and payload. Nothing is compressed or
    /// checked; appending the result writes exactly these bytes again.
    pub fn from_stored(encoding: Encoding, original_len: u32, payload: Vec<u8>) -> Self {
        CompressedChunk {
            encoding,
            payload,
            original_len,
        }
    }

    /// Recovers the original bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecompressError`] if the payload is corrupt.
    pub fn decompress(&self) -> Result<Vec<u8>, DecompressError> {
        match self.encoding {
            Encoding::Lzss => lzss::decompress(&self.payload, self.original_len as usize),
            Encoding::Raw => Ok(self.payload.clone()),
        }
    }

    /// The encoding in effect.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Bytes occupied on the data SSD.
    pub fn stored_len(&self) -> usize {
        self.payload.len()
    }

    /// Original (uncompressed) length in bytes.
    pub fn original_len(&self) -> usize {
        self.original_len as usize
    }

    /// Compressed/original size ratio (1.0 for raw fallback).
    pub fn ratio(&self) -> f64 {
        if self.original_len == 0 {
            1.0
        } else {
            self.payload.len() as f64 / self.original_len as f64
        }
    }

    /// Borrow of the stored payload (for container packing).
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressible_uses_lzss() {
        let cc = CompressedChunk::compress(&vec![1u8; 4096]);
        assert_eq!(cc.encoding(), Encoding::Lzss);
        assert!(cc.ratio() < 0.05);
    }

    #[test]
    fn incompressible_falls_back_to_raw() {
        // Pure xorshift noise: no codec-visible redundancy at all.
        let mut s = 0x9e3779b97f4a7c15u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect();
        let cc = CompressedChunk::compress(&data);
        assert_eq!(cc.encoding(), Encoding::Raw);
        assert_eq!(cc.stored_len(), data.len());
        assert_eq!(cc.decompress().unwrap(), data);
    }

    #[test]
    fn a_chunk_rebuilt_from_its_stored_fields_is_the_same_chunk() {
        for data in [vec![1u8; 4096], (0..=255u8).collect()] {
            let cc = CompressedChunk::compress(&data);
            let len = cc.original_len() as u32;
            let rebuilt = CompressedChunk::from_stored(cc.encoding(), len, cc.payload().to_vec());
            assert_eq!(rebuilt, cc);
        }
    }

    #[test]
    fn empty_chunk() {
        let cc = CompressedChunk::compress(b"");
        assert_eq!(cc.decompress().unwrap(), Vec::<u8>::new());
        assert_eq!(cc.ratio(), 1.0);
    }
}
