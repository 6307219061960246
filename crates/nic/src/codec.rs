//! Incremental frame decoding for a streaming socket.
//!
//! A TCP stream delivers the wire protocol of [`crate::protocol`] in
//! arbitrary slices: half a header here, three frames and a tail there.
//! [`FramedCodec`] owns the per-connection reassembly buffer, feeding
//! whatever bytes arrive and yielding whole [`Message`]s as they
//! complete — the piece a serving front end puts between `read(2)` and
//! the storage pipeline.
//!
//! # Examples
//!
//! ```
//! use fidr_nic::FramedCodec;
//! use fidr_nic::protocol::Message;
//! use fidr_chunk::Lba;
//!
//! let frame = Message::Read { lba: Lba(9) }.encode().unwrap();
//! let mut codec = FramedCodec::new();
//! // Bytes arrive one at a time; the frame completes on the last one.
//! for &b in &frame {
//!     codec.feed(&[b]);
//! }
//! assert_eq!(codec.next_frame().unwrap(), Some(Message::Read { lba: Lba(9) }));
//! assert_eq!(codec.next_frame().unwrap(), None);
//! ```

use crate::protocol::{Decoded, Message, ProtocolError};

/// Consumed-prefix length past which [`FramedCodec`] compacts its buffer
/// instead of letting decoded frames accumulate.
const COMPACT_BYTES: usize = 64 * 1024;

/// Lifetime counters of one codec (one connection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Whole frames successfully decoded.
    pub frames_decoded: u64,
    /// Hard protocol errors (the stream is dead after the first).
    pub frames_rejected: u64,
    /// Raw bytes accepted by [`FramedCodec::feed`].
    pub bytes_fed: u64,
}

/// Incremental decoder: buffers stream bytes, yields whole messages.
///
/// A hard [`ProtocolError`] poisons the codec — the byte stream has no
/// frame boundary to resynchronise on, so every later call returns the
/// same error and the caller should close the connection.
#[derive(Debug, Default)]
pub struct FramedCodec {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by decoded frames.
    pos: usize,
    poisoned: Option<ProtocolError>,
    stats: CodecStats,
}

impl FramedCodec {
    /// Creates an empty codec.
    pub fn new() -> Self {
        FramedCodec::default()
    }

    /// Appends freshly read stream bytes to the reassembly buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.stats.bytes_fed += bytes.len() as u64;
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next whole frame, if one is buffered.
    ///
    /// `Ok(None)` means the buffer ends mid-frame (or is empty): feed
    /// more bytes and call again.
    ///
    /// # Errors
    ///
    /// A [`ProtocolError`] is permanent: the codec stays poisoned and
    /// repeats it until dropped.
    pub fn next_frame(&mut self) -> Result<Option<Message>, ProtocolError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        match Message::decode(&self.buf[self.pos..]) {
            Ok(Decoded::Frame { msg, used }) => {
                self.pos += used;
                self.stats.frames_decoded += 1;
                if self.pos >= COMPACT_BYTES {
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
                Ok(Some(msg))
            }
            Ok(Decoded::Incomplete { .. }) => Ok(None),
            Err(e) => {
                self.stats.frames_rejected += 1;
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Undecoded bytes currently buffered (a partial frame at EOF means
    /// the peer disconnected mid-frame).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CodecStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use fidr_chunk::Lba;

    fn frames() -> Vec<Message> {
        vec![
            Message::Write {
                lba: Lba(1),
                data: Bytes::from(vec![7u8; 4096]),
            },
            Message::Read { lba: Lba(1) },
            Message::WriteAck { lba: Lba(1) },
            Message::ReadReply {
                lba: Lba(1),
                data: Bytes::from(vec![9u8; 128]),
            },
        ]
    }

    #[test]
    fn reassembles_across_arbitrary_chunk_boundaries() {
        let msgs = frames();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(m.encode().unwrap());
        }
        // Feed in awkward 7-byte slices.
        for chunk_len in [1usize, 7, 13, 4096] {
            let mut codec = FramedCodec::new();
            let mut out = Vec::new();
            for chunk in stream.chunks(chunk_len) {
                codec.feed(chunk);
                while let Some(msg) = codec.next_frame().unwrap() {
                    out.push(msg);
                }
            }
            assert_eq!(out, msgs, "chunk_len={chunk_len}");
            assert_eq!(codec.pending_bytes(), 0);
            assert_eq!(codec.stats().frames_decoded, msgs.len() as u64);
            assert_eq!(codec.stats().bytes_fed, stream.len() as u64);
        }
    }

    #[test]
    fn partial_frame_is_not_an_error() {
        let frame = frames()[0].encode().unwrap();
        let mut codec = FramedCodec::new();
        codec.feed(&frame[..frame.len() - 1]);
        assert_eq!(codec.next_frame().unwrap(), None);
        assert!(codec.pending_bytes() > 0);
        codec.feed(&frame[frame.len() - 1..]);
        assert!(codec.next_frame().unwrap().is_some());
    }

    #[test]
    fn poison_sticks_after_a_bad_opcode() {
        let mut frame = frames()[1].encode().unwrap();
        frame[0] = 0xee;
        let mut codec = FramedCodec::new();
        codec.feed(&frame);
        assert_eq!(
            codec.next_frame().unwrap_err(),
            ProtocolError::BadOpcode(0xee)
        );
        // Even valid follow-up bytes cannot revive the stream.
        codec.feed(&frames()[1].encode().unwrap());
        assert!(codec.next_frame().is_err());
        assert_eq!(codec.stats().frames_rejected, 1);
    }

    #[test]
    fn hostile_length_rejected_without_buffering_the_body() {
        let mut header = frames()[1].encode().unwrap();
        header[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut codec = FramedCodec::new();
        codec.feed(&header);
        // Rejected on the 13 header bytes alone: nothing waits for 4 GiB.
        assert!(matches!(
            codec.next_frame().unwrap_err(),
            ProtocolError::PayloadTooLarge { .. }
        ));
    }

    #[test]
    fn compaction_keeps_the_buffer_bounded() {
        let frame = Message::Write {
            lba: Lba(0),
            data: Bytes::from(vec![1u8; 4096]),
        }
        .encode()
        .unwrap();
        let mut codec = FramedCodec::new();
        for _ in 0..64 {
            codec.feed(&frame);
            assert!(codec.next_frame().unwrap().is_some());
            assert!(
                codec.buf.len() <= COMPACT_BYTES + frame.len(),
                "buffer must not grow without bound"
            );
        }
        assert_eq!(codec.stats().frames_decoded, 64);
    }
}
