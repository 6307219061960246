//! Container packing of compressed chunks.
//!
//! "For efficient data storage in an SSD, the server usually makes a large
//! container of compressed chunks and stores them as a single large block"
//! (paper §2.1.4). FIDR's Compression Engine flushes once "the total size of
//! compressed chunks … reaches a threshold (e.g., 4 MB)" (§5.3 step 8).
//!
//! Layout: each chunk is prefixed with a 4-byte header — 1 byte encoding,
//! 3 bytes original length — followed by the compressed payload. The PBA's
//! `offset` points at the header; its `compressed_len` covers the payload.

use fidr_chunk::CHUNK_SIZE;
use fidr_compress::{decompress, CompressedChunk, Encoding};
use std::fmt;

/// Default container flush threshold: 4 MB (paper §5.3).
pub const CONTAINER_THRESHOLD: usize = 4 << 20;

/// Per-chunk header size inside a container.
pub const CHUNK_HEADER_BYTES: usize = 4;

/// Error returned when reading a malformed container region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerReadError {
    detail: &'static str,
}

impl fmt::Display for ContainerReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "container read error: {}", self.detail)
    }
}

impl std::error::Error for ContainerReadError {}

/// One chunk's region inside a container, as stored: the header's fields
/// and a borrow of the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRegion<'a> {
    encoding: Encoding,
    original_len: u32,
    payload: &'a [u8],
}

impl<'a> ChunkRegion<'a> {
    /// Parses the region at `offset` of `bytes` (a sealed container's or
    /// a builder's): header, then a `compressed_len`-byte payload.
    fn parse(
        bytes: &'a [u8],
        offset: u32,
        compressed_len: u32,
    ) -> Result<Self, ContainerReadError> {
        let start = offset as usize;
        let end = start + CHUNK_HEADER_BYTES + compressed_len as usize;
        if end > bytes.len() {
            return Err(ContainerReadError {
                detail: "chunk region out of bounds",
            });
        }
        let header = &bytes[start..start + CHUNK_HEADER_BYTES];
        let encoding = match header[0] {
            0 => Encoding::Raw,
            1 => Encoding::Lzss,
            _ => {
                return Err(ContainerReadError {
                    detail: "unknown encoding byte",
                })
            }
        };
        Ok(ChunkRegion {
            encoding,
            original_len: u32::from_le_bytes([header[1], header[2], header[3], 0]),
            payload: &bytes[start + CHUNK_HEADER_BYTES..end],
        })
    }

    /// Decodes the payload back to the chunk's bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ContainerReadError`] if decompression fails.
    pub fn decode(&self) -> Result<Vec<u8>, ContainerReadError> {
        match self.encoding {
            Encoding::Raw => Ok(self.payload.to_vec()),
            Encoding::Lzss => decompress(self.payload, self.original_len as usize).map_err(|_| {
                ContainerReadError {
                    detail: "payload decompression failed",
                }
            }),
        }
    }

    /// An owned copy of the stored chunk: appended to another container,
    /// it writes exactly this region again.
    pub fn to_chunk(&self) -> CompressedChunk {
        CompressedChunk::from_stored(self.encoding, self.original_len, self.payload.to_vec())
    }
}

/// A sealed container: the unit written to the data SSDs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    /// Container sequence number.
    pub id: u64,
    /// Raw container bytes (headers + payloads).
    pub bytes: Vec<u8>,
}

impl Container {
    /// Extracts and decodes the chunk whose header starts at `offset` with
    /// a `compressed_len`-byte payload (both from the PBN→PBA map).
    ///
    /// # Errors
    ///
    /// Returns [`ContainerReadError`] if the region is out of bounds, the
    /// encoding byte is unknown, or decompression fails.
    pub fn read_chunk(
        &self,
        offset: u32,
        compressed_len: u32,
    ) -> Result<Vec<u8>, ContainerReadError> {
        self.region(offset, compressed_len)?.decode()
    }

    /// Lends the stored region [`read_chunk`](Self::read_chunk) decodes,
    /// without decoding it.
    ///
    /// # Errors
    ///
    /// Returns [`ContainerReadError`] if the region is out of bounds or
    /// the encoding byte is unknown.
    pub fn region(
        &self,
        offset: u32,
        compressed_len: u32,
    ) -> Result<ChunkRegion<'_>, ContainerReadError> {
        ChunkRegion::parse(&self.bytes, offset, compressed_len)
    }

    /// Container size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the container holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Location of a chunk appended to a builder, to be recorded in the
/// PBN→PBA map once the container seals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendSlot {
    /// Byte offset of the chunk header inside the container.
    pub offset: u32,
    /// Payload (compressed) length in bytes.
    pub compressed_len: u32,
}

/// Accumulates compressed chunks until the flush threshold.
///
/// # Examples
///
/// ```
/// use fidr_tables::ContainerBuilder;
/// use fidr_compress::CompressedChunk;
///
/// let mut builder = ContainerBuilder::new(0, 1 << 20);
/// let cc = CompressedChunk::compress(&vec![3u8; 4096]);
/// let slot = builder.append(&cc);
/// let container = builder.seal();
/// let data = container.read_chunk(slot.offset, slot.compressed_len)?;
/// assert_eq!(data, vec![3u8; 4096]);
/// # Ok::<(), fidr_tables::ContainerReadError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ContainerBuilder {
    id: u64,
    threshold: usize,
    bytes: Vec<u8>,
}

impl ContainerBuilder {
    /// Starts container `id` with the given flush `threshold` in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(id: u64, threshold: usize) -> Self {
        assert!(threshold > 0, "threshold must be non-zero");
        ContainerBuilder {
            id,
            threshold,
            // Room for the chunk that crosses the threshold: the buffer
            // never grows, and the sealed container moved to the data
            // SSDs is one allocation of a fixed size, not a doubled one.
            bytes: Vec::with_capacity(threshold + CHUNK_HEADER_BYTES + CHUNK_SIZE),
        }
    }

    /// Reopens a container the data SSDs refused, so later appends and
    /// reads carry on where its builder left off.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn reopen(container: Container, threshold: usize) -> Self {
        assert!(threshold > 0, "threshold must be non-zero");
        ContainerBuilder {
            id: container.id,
            threshold,
            bytes: container.bytes,
        }
    }

    /// Container id being built.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Appends a compressed chunk, returning where it landed.
    ///
    /// # Panics
    ///
    /// Panics if the chunk's original length exceeds the 3-byte header
    /// field (16 MB) — far above any chunk size in this system.
    pub fn append(&mut self, chunk: &CompressedChunk) -> AppendSlot {
        assert!(
            chunk.original_len() < (1 << 24),
            "original length exceeds header field"
        );
        let offset = self.bytes.len() as u32;
        let enc_byte = match chunk.encoding() {
            Encoding::Raw => 0u8,
            Encoding::Lzss => 1u8,
        };
        let olen = (chunk.original_len() as u32).to_le_bytes();
        self.bytes
            .extend_from_slice(&[enc_byte, olen[0], olen[1], olen[2]]);
        self.bytes.extend_from_slice(chunk.payload());
        AppendSlot {
            offset,
            compressed_len: chunk.stored_len() as u32,
        }
    }

    /// Whether the builder has reached its flush threshold.
    pub fn is_full(&self) -> bool {
        self.bytes.len() >= self.threshold
    }

    /// Bytes accumulated so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decodes a chunk appended to this still-open container, exactly as
    /// [`Container::read_chunk`] will once it is sealed.
    ///
    /// # Errors
    ///
    /// As for [`Container::read_chunk`].
    pub fn read_chunk(
        &self,
        offset: u32,
        compressed_len: u32,
    ) -> Result<Vec<u8>, ContainerReadError> {
        ChunkRegion::parse(&self.bytes, offset, compressed_len)?.decode()
    }

    /// Seals the container for writing to the data SSDs.
    pub fn seal(self) -> Container {
        Container {
            id: self.id,
            bytes: self.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidr_compress::ContentGenerator;

    #[test]
    fn pack_and_read_back_many() {
        let gen = ContentGenerator::new(0.5);
        let mut b = ContainerBuilder::new(3, CONTAINER_THRESHOLD);
        let mut slots = Vec::new();
        let mut originals = Vec::new();
        for seed in 0..32u64 {
            let data = gen.chunk(seed, 4096);
            let cc = CompressedChunk::compress(&data);
            slots.push(b.append(&cc));
            originals.push(data);
        }
        for (slot, original) in slots.iter().zip(&originals) {
            let open = b.read_chunk(slot.offset, slot.compressed_len).unwrap();
            assert_eq!(&open, original);
        }
        let c = b.seal();
        assert_eq!(c.id, 3);
        for (slot, original) in slots.iter().zip(&originals) {
            let data = c.read_chunk(slot.offset, slot.compressed_len).unwrap();
            assert_eq!(&data, original);
        }
    }

    #[test]
    fn reopened_builder_keeps_its_chunks_and_appends_after_them() {
        let first = CompressedChunk::compress(&[1u8; 300]);
        let mut b = ContainerBuilder::new(4, 1024);
        let a = b.append(&first);
        let mut b = ContainerBuilder::reopen(b.seal(), 1024);
        assert_eq!(b.id(), 4);
        assert_eq!(
            b.read_chunk(a.offset, a.compressed_len).unwrap(),
            [1u8; 300]
        );
        let next = b.append(&CompressedChunk::compress(&[2u8; 300]));
        assert!(next.offset > a.offset);
        assert_eq!(
            b.read_chunk(next.offset, next.compressed_len).unwrap(),
            [2u8; 300]
        );
    }

    #[test]
    fn threshold_trips_is_full() {
        let mut b = ContainerBuilder::new(0, 5000);
        let cc = CompressedChunk::compress(&vec![1u8; 4096]);
        assert!(!b.is_full());
        while !b.is_full() {
            b.append(&cc);
        }
        assert!(b.len() >= 5000);
    }

    #[test]
    fn a_full_container_is_sealed_in_the_buffer_it_was_opened_with() {
        // Raw 4-KiB chunks of noise: the largest region the engine appends.
        let mut s = 7u64;
        let noise: Vec<u8> = (0..CHUNK_SIZE)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 40) as u8
            })
            .collect();
        let raw = CompressedChunk::compress(&noise);
        assert_eq!(raw.encoding(), Encoding::Raw);
        let mut b = ContainerBuilder::new(0, CONTAINER_THRESHOLD);
        let buffer = b.bytes.as_ptr();
        while !b.is_full() {
            b.append(&raw);
        }
        assert!(
            b.len() > CONTAINER_THRESHOLD,
            "a chunk crossed the threshold"
        );
        assert_eq!(b.seal().bytes.as_ptr(), buffer, "the buffer never grew");
    }

    #[test]
    fn a_lent_region_appends_as_the_same_bytes() {
        let chunks = [
            CompressedChunk::compress(&[4u8; 4096]),
            CompressedChunk::compress(&(0..=255u8).collect::<Vec<_>>()),
        ];
        assert_eq!(chunks[1].encoding(), Encoding::Raw);
        let mut from = ContainerBuilder::new(0, 1 << 20);
        let slots: Vec<AppendSlot> = chunks.iter().map(|cc| from.append(cc)).collect();
        let from = from.seal();
        let mut to = ContainerBuilder::new(1, 1 << 20);
        for (cc, slot) in chunks.iter().zip(&slots) {
            let region = from.region(slot.offset, slot.compressed_len).unwrap();
            assert_eq!(&region.to_chunk(), cc);
            assert_eq!(region.decode().unwrap(), cc.decompress().unwrap());
            to.append(&region.to_chunk());
        }
        assert_eq!(to.seal().bytes, from.bytes);
    }

    #[test]
    fn out_of_bounds_read_errors() {
        let mut b = ContainerBuilder::new(0, 1024);
        let cc = CompressedChunk::compress(&[1u8; 128]);
        let slot = b.append(&cc);
        let c = b.seal();
        assert!(c
            .read_chunk(slot.offset, slot.compressed_len + 1000)
            .is_err());
        assert!(c.read_chunk(9999, 10).is_err());
    }

    #[test]
    fn unknown_encoding_errors() {
        let c = Container {
            id: 0,
            bytes: vec![9, 0, 0, 0, 1, 2, 3],
        };
        assert!(c.read_chunk(0, 3).is_err());
    }

    #[test]
    fn raw_fallback_chunks_roundtrip() {
        // Incompressible noise goes through the Raw path.
        let mut s = 1u64;
        let data: Vec<u8> = (0..512)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 40) as u8
            })
            .collect();
        let cc = CompressedChunk::compress(&data);
        let mut b = ContainerBuilder::new(0, 1024);
        let slot = b.append(&cc);
        let c = b.seal();
        assert_eq!(
            c.read_chunk(slot.offset, slot.compressed_len).unwrap(),
            data
        );
    }
}
