//! Incremental frame decoding for a streaming socket.
//!
//! A TCP stream delivers the wire protocol of [`crate::protocol`] in
//! arbitrary slices: half a header here, three frames and a tail there.
//! [`FramedCodec`] owns the per-connection reassembly buffer: a socket
//! reads straight into it ([`FramedCodec::read_from`]), or bytes read
//! elsewhere are fed in ([`FramedCodec::feed`]), and whole [`Message`]s
//! come out as they complete — the piece a serving front end puts
//! between `read(2)` and the storage pipeline.
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
use std::io::Read;

/// Spare room [`FramedCodec::read_from`] offers every read, and the
/// buffer's size after the first one.
const READ_BYTES: usize = 64 * 1024;

/// Lifetime counters of one codec (one connection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Whole frames successfully decoded.
    pub frames_decoded: u64,
    /// Hard protocol errors (the stream is dead after the first).
    pub frames_rejected: u64,
    /// Raw bytes accepted by [`FramedCodec::read_from`] and
    /// [`FramedCodec::feed`].
    pub bytes_fed: u64,
}

/// Incremental decoder: buffers stream bytes, yields whole messages.
///
/// A hard [`ProtocolError`] poisons the codec — the byte stream has no
/// frame boundary to resynchronise on, so every later call returns the
/// same error and the caller should close the connection.
#[derive(Debug, Default)]
pub struct FramedCodec {
    /// Bytes `pos..end` are buffered and not yet decoded; the rest is
    /// room for the next read.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    poisoned: Option<ProtocolError>,
    stats: CodecStats,
}

impl FramedCodec {
    /// Creates an empty codec.
    pub fn new() -> Self {
        FramedCodec::default()
    }

    /// Reads once from `stream` straight into the buffer, so a socket's
    /// bytes are copied only by the kernel. Returns what `read` returned:
    /// `Ok(0)` is end of stream.
    ///
    /// # Errors
    ///
    /// Whatever the read failed with; nothing is buffered then.
    pub fn read_from(&mut self, stream: &mut impl Read) -> std::io::Result<usize> {
        let n = stream.read(self.spare(READ_BYTES))?;
        self.end += n;
        self.stats.bytes_fed += n as u64;
        Ok(n)
    }

    /// Appends bytes that were read elsewhere to the reassembly buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.spare(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
        self.stats.bytes_fed += bytes.len() as u64;
    }

    /// The room past the buffered bytes, at least `want` long. The
    /// buffered bytes move to the front only when the room is short, and
    /// the buffer grows only when that is not enough.
    fn spare(&mut self, want: usize) -> &mut [u8] {
        if self.buf.len() - self.end < want {
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.end, 0);
                self.end -= self.pos;
                self.pos = 0;
            }
            if self.buf.len() - self.end < want {
                self.buf.resize(self.end + want, 0);
            }
        }
        &mut self.buf[self.end..]
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
        match Message::decode(&self.buf[self.pos..self.end]) {
            Ok(Decoded::Frame { msg, used }) => {
                self.pos += used;
                self.stats.frames_decoded += 1;
                if self.pos == self.end {
                    // Everything read is decoded: the next read starts
                    // at the front, and no byte has to move.
                    self.pos = 0;
                    self.end = 0;
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
        self.end - self.pos
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CodecStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{HEADER_BYTES, MAX_PAYLOAD_BYTES};
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

    fn write_frame(lba: u64, len: usize) -> (Message, Vec<u8>) {
        let msg = Message::Write {
            lba: Lba(lba),
            data: Bytes::from(vec![lba as u8; len]),
        };
        let frame = msg.encode().unwrap();
        (msg, frame)
    }

    #[test]
    fn a_drained_buffer_starts_over_at_the_front() {
        let (_, frame) = write_frame(0, 4096);
        let mut codec = FramedCodec::new();
        for _ in 0..64 {
            codec.feed(&frame);
            assert!(codec.next_frame().unwrap().is_some());
            assert_eq!((codec.pos, codec.end), (0, 0));
            assert_eq!(codec.buf.len(), frame.len(), "the buffer never grew");
        }
        assert_eq!(codec.stats().frames_decoded, 64);
    }

    /// A stream that hands out at most `step` bytes per read.
    struct Dribble<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn reads_land_in_the_buffer_and_it_stays_bounded() {
        // 4-KiB frames that straddle reads, then one of the largest
        // payload the protocol allows, which takes many reads.
        let (mut msgs, mut stream) = (Vec::new(), Vec::new());
        for (lba, len) in (0..40).map(|i| (i, 4096)).chain([(40, MAX_PAYLOAD_BYTES)]) {
            let (msg, frame) = write_frame(lba, len);
            msgs.push(msg);
            stream.extend(frame);
        }
        for step in [5_000, READ_BYTES, usize::MAX] {
            let mut src = Dribble {
                bytes: &stream,
                step,
            };
            let mut codec = FramedCodec::new();
            let mut got = Vec::new();
            while codec.read_from(&mut src).unwrap() > 0 {
                while let Some(msg) = codec.next_frame().unwrap() {
                    got.push(msg);
                }
                assert!(
                    codec.buf.len() <= HEADER_BYTES + MAX_PAYLOAD_BYTES + READ_BYTES,
                    "step {step}: a {} B buffer",
                    codec.buf.len()
                );
            }
            assert!(got == msgs, "step {step}: frames differ");
            assert_eq!(codec.pending_bytes(), 0);
            assert_eq!(codec.stats().bytes_fed, stream.len() as u64);
        }
    }
}
