//! The simplified storage wire protocol.
//!
//! Paper §6.2: "We made a simplified protocol (instead of a complete
//! protocol like iSCSI) … The encoding mainly includes the operation type
//! (i.e., read, write or acknowledgment), the requested address (i.e.,
//! LBA) and data", with a read-wait-ack(data) / write-wait-ack flow.
//!
//! # Wire format
//!
//! Every frame is a fixed 13-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//!      0     1  opcode: 0x01 Write, 0x02 Read, 0x03 WriteAck, 0x04 ReadReply,
//!               0x05 StatsRequest, 0x06 StatsReply, 0x07 ShardMapRequest,
//!               0x08 ShardMapReply, 0x09 Delete, 0x0A DeleteAck
//!      1     8  LBA, little-endian u64 (for the stats opcodes this field
//!               carries the [`StatsFormat`] code instead of an address; for
//!               the shard-map opcodes it carries the [`ShardMapAction`]
//!               code / map generation)
//!      9     4  payload length, little-endian u32 (0 for Read/WriteAck/
//!               StatsRequest/ShardMapRequest-Get/Delete/DeleteAck)
//!     13   len  payload
//! ```
//!
//! There is one protocol revision: ten opcodes, all living in one place
//! — the [`Opcode`] enum — shared by [`Message::encode`],
//! [`Message::decode`] and [`crate::FramedCodec`], so a new opcode
//! cannot be half-wired.
//!
//! The declared length is bounded by [`MAX_PAYLOAD_BYTES`] in **both**
//! directions: [`Message::encode`] refuses to build a frame it could not
//! decode, and [`Message::decode`] rejects a hostile length field before
//! any reader commits buffer space to it. One strictness rule covers the
//! rest: an opcode that does not carry a payload
//! ([`Opcode::carries_payload`]) must declare a zero length —
//! [`ProtocolError::UnexpectedPayload`] otherwise, from the header
//! alone.
//!
//! # Streaming contract
//!
//! [`Message::decode`] distinguishes *"the frame is not all here yet"*
//! ([`Decoded::Incomplete`], a normal condition on a streaming socket —
//! keep reading) from *"the frame can never become valid"* (a hard
//! [`ProtocolError`] — close the connection). [`crate::FramedCodec`]
//! wraps this into an incremental per-connection decoder.

use bytes::Bytes;
use fidr_chunk::Lba;
use std::fmt;

/// Frame header size: opcode + LBA + length.
pub const HEADER_BYTES: usize = 1 + 8 + 4;

/// Upper bound on a frame's payload (1 MiB = 256 four-KiB chunks).
///
/// Enforced symmetrically by [`Message::encode`] and
/// [`Message::decode`], so a hostile (or corrupted) 4-byte length field
/// can never pin gigabytes of reader buffer waiting for bytes that will
/// never arrive, and an encoder can never emit a self-inconsistent frame
/// by truncating the length to 32 bits.
pub const MAX_PAYLOAD_BYTES: usize = 1 << 20;

/// The operation codes of the wire protocol: the single source of truth
/// for what the first header byte may say, shared by [`Message::encode`],
/// [`Message::decode`] and [`crate::FramedCodec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// Client → server write.
    Write = 0x01,
    /// Client → server read request.
    Read = 0x02,
    /// Server → client write acknowledgment.
    WriteAck = 0x03,
    /// Server → client read reply.
    ReadReply = 0x04,
    /// Client → server telemetry scrape request.
    StatsRequest = 0x05,
    /// Server → client telemetry snapshot.
    StatsReply = 0x06,
    /// Cluster-membership request: fetch, install, or drain against a
    /// consistent-hash shard map.
    ShardMapRequest = 0x07,
    /// Shard-map reply carrying the node's current encoded map.
    ShardMapReply = 0x08,
    /// Client → server delete request: unmap the LBA and release its
    /// chunk reference.
    Delete = 0x09,
    /// Server → client delete acknowledgment.
    DeleteAck = 0x0A,
}

impl Opcode {
    /// Every defined opcode, in wire order.
    pub const ALL: [Opcode; 10] = [
        Opcode::Write,
        Opcode::Read,
        Opcode::WriteAck,
        Opcode::ReadReply,
        Opcode::StatsRequest,
        Opcode::StatsReply,
        Opcode::ShardMapRequest,
        Opcode::ShardMapReply,
        Opcode::Delete,
        Opcode::DeleteAck,
    ];

    /// Parses the first header byte. `None` is a
    /// [`ProtocolError::BadOpcode`] at the decode layer.
    pub fn from_byte(byte: u8) -> Option<Opcode> {
        Opcode::ALL.into_iter().find(|op| op.as_byte() == byte)
    }

    /// The wire byte of this opcode.
    pub fn as_byte(self) -> u8 {
        self as u8
    }

    /// Whether frames of this opcode may carry a payload. This is the
    /// decoder's strictness rule: a frame of any other opcode declaring
    /// a nonzero length is a hard [`ProtocolError::UnexpectedPayload`]
    /// (as is a [`ShardMapAction::Get`] request, the one payload-free
    /// form of a carrying opcode).
    pub fn carries_payload(self) -> bool {
        matches!(
            self,
            Opcode::Write
                | Opcode::ReadReply
                | Opcode::StatsReply
                | Opcode::ShardMapRequest
                | Opcode::ShardMapReply
        )
    }
}

/// How a [`Message::StatsReply`] body is encoded; carried in the LBA
/// header field of the stats frames (they address no block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsFormat {
    /// The `fidr.timeseries.v1` JSON telemetry document.
    #[default]
    Json,
    /// Prometheus text exposition format.
    Prometheus,
}

impl StatsFormat {
    /// The wire code stored in the LBA header field.
    pub fn code(self) -> u64 {
        match self {
            StatsFormat::Json => 0,
            StatsFormat::Prometheus => 1,
        }
    }

    /// Parses a wire code. `None` is a
    /// [`ProtocolError::BadStatsFormat`] at the decode layer.
    pub fn from_code(code: u64) -> Option<StatsFormat> {
        match code {
            0 => Some(StatsFormat::Json),
            1 => Some(StatsFormat::Prometheus),
            _ => None,
        }
    }
}

/// What a [`Message::ShardMapRequest`] asks of a node; carried in the
/// LBA header field of the request frame (it addresses no block), the
/// same trick [`StatsFormat`] uses for the stats frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMapAction {
    /// Fetch the node's current shard map. Carries no payload — a
    /// declared length is [`ProtocolError::UnexpectedPayload`].
    #[default]
    Get,
    /// Install the encoded shard map in the payload. The node rehomes
    /// any resident blocks it no longer owns to their new owners, then
    /// keeps serving.
    Set,
    /// Install the encoded shard map in the payload — which must no
    /// longer include this node — rehome *everything* resident, ack,
    /// and then gracefully drain.
    Drain,
}

impl ShardMapAction {
    /// The wire code stored in the LBA header field.
    pub fn code(self) -> u64 {
        match self {
            ShardMapAction::Get => 0,
            ShardMapAction::Set => 1,
            ShardMapAction::Drain => 2,
        }
    }

    /// Parses a wire code. `None` is a
    /// [`ProtocolError::BadShardAction`] at the decode layer.
    pub fn from_code(code: u64) -> Option<ShardMapAction> {
        match code {
            0 => Some(ShardMapAction::Get),
            1 => Some(ShardMapAction::Set),
            2 => Some(ShardMapAction::Drain),
            _ => None,
        }
    }
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client → server write of `data` at `lba`.
    Write {
        /// Target block.
        lba: Lba,
        /// Payload.
        data: Bytes,
    },
    /// Client → server read request.
    Read {
        /// Block to read.
        lba: Lba,
    },
    /// Server → client write acknowledgment.
    WriteAck {
        /// Block acknowledged.
        lba: Lba,
    },
    /// Server → client read reply carrying data.
    ReadReply {
        /// Block read.
        lba: Lba,
        /// Payload.
        data: Bytes,
    },
    /// Client → server request for a live telemetry snapshot — in-band
    /// scraping of a running server, no drain required. Carries no
    /// payload; the LBA header field holds the requested format code.
    StatsRequest {
        /// Requested body encoding of the reply.
        format: StatsFormat,
    },
    /// Server → client telemetry snapshot answering a
    /// [`Message::StatsRequest`].
    StatsReply {
        /// Body encoding, echoing the request.
        format: StatsFormat,
        /// The rendered telemetry document (`fidr.timeseries.v1` JSON or
        /// Prometheus exposition text).
        body: Bytes,
    },
    /// Router → node cluster-membership request. The LBA header field
    /// carries the [`ShardMapAction`] code; [`ShardMapAction::Get`] carries no
    /// payload, the install actions carry an encoded
    /// `fidr.shardmap.v1` document.
    ShardMapRequest {
        /// What the node should do.
        action: ShardMapAction,
        /// Encoded `fidr.shardmap.v1` map to install (empty for
        /// [`ShardMapAction::Get`]).
        map: Bytes,
    },
    /// Node → router reply carrying the node's now-current map,
    /// answering a [`Message::ShardMapRequest`]. The LBA header field
    /// carries the map generation.
    ShardMapReply {
        /// Generation counter of the map in `map`.
        generation: u64,
        /// The node's current encoded `fidr.shardmap.v1` map.
        map: Bytes,
    },
    /// Client → server delete request: unmap `lba` and release its
    /// chunk reference. Carries no payload — a
    /// declared length is [`ProtocolError::UnexpectedPayload`].
    Delete {
        /// Block to delete.
        lba: Lba,
    },
    /// Server → client delete acknowledgment: the unmap is durable in
    /// the server's metadata (it survives a crash + restore). Carries no
    /// payload.
    DeleteAck {
        /// Block acknowledged.
        lba: Lba,
    },
}

/// Outcome of decoding the front of a streaming buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// A whole frame was present: the message and the bytes it consumed.
    Frame {
        /// The decoded message.
        msg: Message,
        /// Bytes of the buffer this frame occupied.
        used: usize,
    },
    /// The buffer ends mid-frame. Not an error: read at least `needed`
    /// more bytes and retry. (For a short header this is the distance to
    /// a complete header; the finished header may then ask for more.)
    Incomplete {
        /// Additional bytes required before decoding can progress.
        needed: usize,
    },
}

/// Error returned when a frame can never decode, no matter how many more
/// bytes arrive. A streaming reader should close the connection; a
/// partial frame is [`Decoded::Incomplete`] instead, never an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Opcode byte not recognised.
    BadOpcode(u8),
    /// Payload length exceeds [`MAX_PAYLOAD_BYTES`] (encode-side: the
    /// actual payload; decode-side: the declared length field).
    PayloadTooLarge {
        /// The offending length in bytes.
        len: u64,
    },
    /// A frame whose opcode must not carry a payload
    /// ([`Opcode::carries_payload`]) declared a nonzero length.
    UnexpectedPayload {
        /// The offending opcode byte.
        opcode: u8,
        /// The declared payload length.
        len: u64,
    },
    /// A stats frame whose LBA header field holds no known
    /// [`StatsFormat`] code.
    BadStatsFormat {
        /// The offending format code.
        code: u64,
    },
    /// A shard-map request whose LBA header field holds no known
    /// [`ShardMapAction`] code.
    BadShardAction {
        /// The offending action code.
        code: u64,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            ProtocolError::PayloadTooLarge { len } => {
                write!(f, "payload of {len} bytes exceeds {MAX_PAYLOAD_BYTES}")
            }
            ProtocolError::UnexpectedPayload { opcode, len } => {
                write!(f, "opcode {opcode:#04x} forbids a payload, got {len} bytes")
            }
            ProtocolError::BadStatsFormat { code } => {
                write!(f, "unknown stats format code {code}")
            }
            ProtocolError::BadShardAction { code } => {
                write!(f, "unknown shard-map action code {code}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl Message {
    /// The message's operation code.
    pub fn opcode(&self) -> Opcode {
        match self {
            Message::Write { .. } => Opcode::Write,
            Message::Read { .. } => Opcode::Read,
            Message::WriteAck { .. } => Opcode::WriteAck,
            Message::ReadReply { .. } => Opcode::ReadReply,
            Message::StatsRequest { .. } => Opcode::StatsRequest,
            Message::StatsReply { .. } => Opcode::StatsReply,
            Message::ShardMapRequest { .. } => Opcode::ShardMapRequest,
            Message::ShardMapReply { .. } => Opcode::ShardMapReply,
            Message::Delete { .. } => Opcode::Delete,
            Message::DeleteAck { .. } => Opcode::DeleteAck,
        }
    }

    /// The message's logical block address. The stats and shard-map
    /// frames address no block; their LBA header field carries the
    /// [`StatsFormat`] / [`ShardMapAction`] code (or the map
    /// generation), which is what this returns for them.
    pub fn lba(&self) -> Lba {
        match self {
            Message::Write { lba, .. }
            | Message::Read { lba }
            | Message::WriteAck { lba }
            | Message::ReadReply { lba, .. }
            | Message::Delete { lba }
            | Message::DeleteAck { lba } => *lba,
            Message::StatsRequest { format } | Message::StatsReply { format, .. } => {
                Lba(format.code())
            }
            Message::ShardMapRequest { action, .. } => Lba(action.code()),
            Message::ShardMapReply { generation, .. } => Lba(*generation),
        }
    }

    fn payload(&self) -> &[u8] {
        match self {
            Message::Write { data, .. } | Message::ReadReply { data, .. } => data,
            Message::StatsReply { body, .. } => body,
            Message::ShardMapRequest { map, .. } | Message::ShardMapReply { map, .. } => map,
            _ => &[],
        }
    }

    /// Encodes the message into a frame.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::PayloadTooLarge`] if the payload exceeds
    /// [`MAX_PAYLOAD_BYTES`] — never a silently truncated length field.
    pub fn encode(&self) -> Result<Vec<u8>, ProtocolError> {
        let payload = self.payload();
        if payload.len() > MAX_PAYLOAD_BYTES {
            return Err(ProtocolError::PayloadTooLarge {
                len: payload.len() as u64,
            });
        }
        // A Get must not carry a map: the decoder rejects the frame, so
        // refuse to build it (same symmetry as the length bound).
        if let Message::ShardMapRequest {
            action: ShardMapAction::Get,
            map,
        } = self
        {
            if !map.is_empty() {
                return Err(ProtocolError::UnexpectedPayload {
                    opcode: Opcode::ShardMapRequest.as_byte(),
                    len: map.len() as u64,
                });
            }
        }
        let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
        out.push(self.opcode().as_byte());
        out.extend_from_slice(&self.lba().0.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        Ok(out)
    }

    /// Decodes one frame from the front of `buf`.
    ///
    /// Returns [`Decoded::Frame`] with the message and the bytes
    /// consumed, or [`Decoded::Incomplete`] when `buf` ends mid-frame
    /// (short header or short payload) — the caller should read more and
    /// retry from the same position.
    ///
    /// The opcode and the declared length are validated as soon as the
    /// header is complete, *before* waiting for the payload, so a
    /// malformed frame is rejected without buffering its claimed body.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::BadOpcode`] for an unknown opcode,
    /// [`ProtocolError::PayloadTooLarge`] for a declared length over
    /// [`MAX_PAYLOAD_BYTES`], [`ProtocolError::UnexpectedPayload`] for a
    /// payload on a payload-forbidding opcode, and
    /// [`ProtocolError::BadStatsFormat`] for a stats frame with an
    /// unknown format code. All are permanent: no further input can
    /// repair the stream.
    pub fn decode(buf: &[u8]) -> Result<Decoded, ProtocolError> {
        if buf.len() < HEADER_BYTES {
            return Ok(Decoded::Incomplete {
                needed: HEADER_BYTES - buf.len(),
            });
        }
        let opcode = Opcode::from_byte(buf[0]).ok_or(ProtocolError::BadOpcode(buf[0]))?;
        // For the storage opcodes this is the LBA.
        let field = u64::from_le_bytes(buf[1..9].try_into().expect("8 bytes"));
        let declared = u64::from(u32::from_le_bytes(buf[9..13].try_into().expect("4 bytes")));
        if declared > MAX_PAYLOAD_BYTES as u64 {
            return Err(ProtocolError::PayloadTooLarge { len: declared });
        }
        // The LBA field's other meanings, validated from the header.
        let format =
            || StatsFormat::from_code(field).ok_or(ProtocolError::BadStatsFormat { code: field });
        let action = || {
            ShardMapAction::from_code(field).ok_or(ProtocolError::BadShardAction { code: field })
        };
        // The one strictness rule: a frame that carries no payload must
        // declare none. A Get is the payload-free form of its opcode.
        let carries = opcode.carries_payload()
            && !(opcode == Opcode::ShardMapRequest && action()? == ShardMapAction::Get);
        if !carries && declared != 0 {
            return Err(ProtocolError::UnexpectedPayload {
                opcode: opcode.as_byte(),
                len: declared,
            });
        }
        if matches!(opcode, Opcode::StatsRequest | Opcode::StatsReply) {
            format()?;
        }
        let len = declared as usize;
        // With the bound above this cannot overflow even on 16/32-bit
        // targets, but fold the check into the length validation anyway —
        // the constant may grow.
        let end = HEADER_BYTES
            .checked_add(len)
            .ok_or(ProtocolError::PayloadTooLarge { len: declared })?;
        if end > buf.len() {
            return Ok(Decoded::Incomplete {
                needed: end - buf.len(),
            });
        }
        let lba = Lba(field);
        let data = Bytes::copy_from_slice(&buf[HEADER_BYTES..end]);
        let msg = match opcode {
            Opcode::Write => Message::Write { lba, data },
            Opcode::Read => Message::Read { lba },
            Opcode::WriteAck => Message::WriteAck { lba },
            Opcode::ReadReply => Message::ReadReply { lba, data },
            Opcode::StatsRequest => Message::StatsRequest { format: format()? },
            Opcode::StatsReply => Message::StatsReply {
                format: format()?,
                body: data,
            },
            Opcode::ShardMapRequest => Message::ShardMapRequest {
                action: action()?,
                map: data,
            },
            Opcode::ShardMapReply => Message::ShardMapReply {
                generation: field,
                map: data,
            },
            Opcode::Delete => Message::Delete { lba },
            Opcode::DeleteAck => Message::DeleteAck { lba },
        };
        Ok(Decoded::Frame { msg, used: end })
    }

    /// Decodes a buffer that is expected to hold one whole frame (a
    /// non-streaming convenience for tests and examples).
    ///
    /// # Errors
    ///
    /// Any [`ProtocolError`], plus [`ProtocolError::PayloadTooLarge`]
    /// with the buffer length if the frame is merely incomplete — a
    /// fixed buffer cannot grow, so "incomplete" is permanent here.
    pub fn decode_whole(buf: &[u8]) -> Result<(Message, usize), ProtocolError> {
        match Message::decode(buf)? {
            Decoded::Frame { msg, used } => Ok((msg, used)),
            Decoded::Incomplete { .. } => Err(ProtocolError::PayloadTooLarge {
                len: buf.len() as u64,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            Message::Write {
                lba: Lba(7),
                data: Bytes::from(vec![1, 2, 3]),
            },
            Message::Read { lba: Lba(9) },
            Message::WriteAck { lba: Lba(7) },
            Message::ReadReply {
                lba: Lba(9),
                data: Bytes::from(vec![4, 5]),
            },
        ];
        for msg in msgs {
            let frame = msg.encode().unwrap();
            let (decoded, used) = Message::decode_whole(&frame).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn decode_stream_of_frames() {
        let mut stream = Vec::new();
        stream.extend(Message::Read { lba: Lba(1) }.encode().unwrap());
        stream.extend(
            Message::Write {
                lba: Lba(2),
                data: Bytes::from(vec![0u8; 100]),
            }
            .encode()
            .unwrap(),
        );
        let (m1, used1) = Message::decode_whole(&stream).unwrap();
        assert_eq!(m1, Message::Read { lba: Lba(1) });
        let (m2, used2) = Message::decode_whole(&stream[used1..]).unwrap();
        assert!(matches!(m2, Message::Write { lba: Lba(2), .. }));
        assert_eq!(used1 + used2, stream.len());
    }

    #[test]
    fn partial_frames_are_incomplete_not_errors() {
        // Short header: needed counts up to a full header.
        assert_eq!(
            Message::decode(&[1, 2]).unwrap(),
            Decoded::Incomplete {
                needed: HEADER_BYTES - 2
            }
        );
        // Short payload: needed counts the missing payload tail.
        let frame = Message::Write {
            lba: Lba(0),
            data: Bytes::from(vec![0u8; 10]),
        }
        .encode()
        .unwrap();
        assert_eq!(
            Message::decode(&frame[..frame.len() - 3]).unwrap(),
            Decoded::Incomplete { needed: 3 }
        );
        // Feeding the missing bytes completes the very same frame.
        assert!(matches!(
            Message::decode(&frame).unwrap(),
            Decoded::Frame { used, .. } if used == frame.len()
        ));
    }

    #[test]
    fn bad_opcode_is_rejected_even_mid_payload() {
        let mut frame = Message::Write {
            lba: Lba(0),
            data: Bytes::from(vec![0u8; 64]),
        }
        .encode()
        .unwrap();
        frame[0] = 0x7f;
        // Rejected from the header alone, before the payload arrives.
        assert_eq!(
            Message::decode(&frame[..HEADER_BYTES]).unwrap_err(),
            ProtocolError::BadOpcode(0x7f)
        );
        assert_eq!(
            Message::decode(&frame).unwrap_err(),
            ProtocolError::BadOpcode(0x7f)
        );
    }

    #[test]
    fn hostile_length_is_rejected_from_the_header() {
        // A bare Write header: the opcode may carry a payload, so only
        // the length bound can reject it.
        let mut frame = encode_raw(Opcode::Write.as_byte(), 3, 0);
        frame[9..13].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Message::decode(&frame).unwrap_err(),
            ProtocolError::PayloadTooLarge {
                len: u64::from(u32::MAX)
            }
        );
        // One past the bound fails; the bound itself is only Incomplete.
        frame[9..13].copy_from_slice(&(MAX_PAYLOAD_BYTES as u32 + 1).to_le_bytes());
        assert!(Message::decode(&frame).is_err());
        frame[9..13].copy_from_slice(&(MAX_PAYLOAD_BYTES as u32).to_le_bytes());
        assert_eq!(
            Message::decode(&frame).unwrap(),
            Decoded::Incomplete {
                needed: MAX_PAYLOAD_BYTES
            }
        );
    }

    #[test]
    fn oversize_payload_refuses_to_encode() {
        let msg = Message::Write {
            lba: Lba(0),
            data: Bytes::from(vec![0u8; MAX_PAYLOAD_BYTES + 1]),
        };
        assert_eq!(
            msg.encode().unwrap_err(),
            ProtocolError::PayloadTooLarge {
                len: MAX_PAYLOAD_BYTES as u64 + 1
            }
        );
        // The bound itself round-trips.
        let msg = Message::ReadReply {
            lba: Lba(0),
            data: Bytes::from(vec![7u8; MAX_PAYLOAD_BYTES]),
        };
        let frame = msg.encode().unwrap();
        assert_eq!(Message::decode_whole(&frame).unwrap().0, msg);
    }

    #[test]
    fn decode_whole_treats_incomplete_as_an_error() {
        let frame = Message::Read { lba: Lba(1) }.encode().unwrap();
        assert!(Message::decode_whole(&frame[..5]).is_err());
    }

    #[test]
    fn opcode_enum_is_the_single_validation_point() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_byte(op.as_byte()), Some(op));
        }
        for byte in [0x00u8, 0x0B, 0x7f, 0xff] {
            assert_eq!(Opcode::from_byte(byte), None);
            assert_eq!(
                Message::decode(&encode_raw(byte, 0, 0)).unwrap_err(),
                ProtocolError::BadOpcode(byte)
            );
        }
    }

    /// Hand-assembles a header for frames `encode` refuses to build.
    fn encode_raw(opcode: u8, field: u64, declared: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES);
        out.push(opcode);
        out.extend_from_slice(&field.to_le_bytes());
        out.extend_from_slice(&declared.to_le_bytes());
        out
    }

    #[test]
    fn stats_frames_round_trip() {
        for msg in [
            Message::StatsRequest {
                format: StatsFormat::Json,
            },
            Message::StatsRequest {
                format: StatsFormat::Prometheus,
            },
            Message::StatsReply {
                format: StatsFormat::Json,
                body: Bytes::from_static(b"{\"schema\":\"fidr.timeseries.v1\"}"),
            },
            Message::StatsReply {
                format: StatsFormat::Prometheus,
                body: Bytes::from_static(b"fidr_server_ops_write_count 3\n"),
            },
        ] {
            let frame = msg.encode().unwrap();
            let (decoded, used) = Message::decode_whole(&frame).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn stats_reply_truncated_mid_frame_is_incomplete_not_an_error() {
        let frame = Message::StatsReply {
            format: StatsFormat::Json,
            body: Bytes::from(vec![b'x'; 256]),
        }
        .encode()
        .unwrap();
        // Every strict prefix obeys the streaming contract: Incomplete,
        // and feeding the missing tail completes the very same frame.
        for cut in [5, HEADER_BYTES, HEADER_BYTES + 100, frame.len() - 1] {
            match Message::decode(&frame[..cut]).unwrap() {
                Decoded::Incomplete { needed } => {
                    assert!(needed > 0 && cut + needed <= frame.len(), "cut={cut}");
                }
                Decoded::Frame { .. } => panic!("truncated frame decoded (cut={cut})"),
            }
        }
        // A fixed buffer cannot grow: decode_whole makes it an error.
        assert!(Message::decode_whole(&frame[..frame.len() - 1]).is_err());
        assert!(matches!(
            Message::decode_whole(&frame).unwrap().0,
            Message::StatsReply { .. }
        ));
    }

    #[test]
    fn shard_map_frames_round_trip() {
        let map = Bytes::from_static(b"fidr.shardmap.v1\ngeneration 3\nvnodes 64\n");
        for msg in [
            Message::ShardMapRequest {
                action: ShardMapAction::Get,
                map: Bytes::new(),
            },
            Message::ShardMapRequest {
                action: ShardMapAction::Set,
                map: map.clone(),
            },
            Message::ShardMapRequest {
                action: ShardMapAction::Drain,
                map: map.clone(),
            },
            Message::ShardMapReply { generation: 3, map },
        ] {
            let frame = msg.encode().unwrap();
            let (decoded, used) = Message::decode_whole(&frame).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn shard_map_get_with_payload_is_a_hard_error_both_ways() {
        // Encode side: refuse to build the frame the decoder rejects.
        let msg = Message::ShardMapRequest {
            action: ShardMapAction::Get,
            map: Bytes::from_static(b"x"),
        };
        assert_eq!(
            msg.encode().unwrap_err(),
            ProtocolError::UnexpectedPayload {
                opcode: 0x07,
                len: 1
            }
        );
        // Decode side: rejected from the header alone.
        let frame = encode_raw(0x07, ShardMapAction::Get.code(), 16);
        assert_eq!(
            Message::decode(&frame).unwrap_err(),
            ProtocolError::UnexpectedPayload {
                opcode: 0x07,
                len: 16
            }
        );
    }

    #[test]
    fn unknown_shard_action_code_is_rejected_from_the_header() {
        let frame = encode_raw(0x07, 99, 0);
        assert_eq!(
            Message::decode(&frame).unwrap_err(),
            ProtocolError::BadShardAction { code: 99 }
        );
        assert_eq!(ShardMapAction::from_code(0), Some(ShardMapAction::Get));
        assert_eq!(ShardMapAction::from_code(1), Some(ShardMapAction::Set));
        assert_eq!(ShardMapAction::from_code(2), Some(ShardMapAction::Drain));
        assert_eq!(ShardMapAction::from_code(3), None);
    }

    #[test]
    fn delete_frames_round_trip() {
        for msg in [
            Message::Delete { lba: Lba(42) },
            Message::DeleteAck { lba: Lba(42) },
            Message::Delete { lba: Lba(u64::MAX) },
        ] {
            let frame = msg.encode().unwrap();
            assert_eq!(frame.len(), HEADER_BYTES, "deletes are header-only");
            let (decoded, used) = Message::decode_whole(&frame).unwrap();
            assert_eq!(decoded, msg);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn payload_free_opcodes_with_nonzero_payload_are_a_hard_error() {
        // One rule, driven by `carries_payload`: a declared length on
        // any payload-free opcode is rejected from the header alone,
        // before the body arrives — and just the same once it has.
        for op in Opcode::ALL.into_iter().filter(|op| !op.carries_payload()) {
            let opcode = op.as_byte();
            let mut frame = encode_raw(opcode, 0, 16);
            for _ in 0..2 {
                assert_eq!(
                    Message::decode(&frame).unwrap_err(),
                    ProtocolError::UnexpectedPayload { opcode, len: 16 }
                );
                frame.extend_from_slice(&[0u8; 16]);
            }
        }
    }

    #[test]
    fn unknown_stats_format_code_is_rejected_from_the_header() {
        for opcode in [0x05u8, 0x06] {
            let frame = encode_raw(opcode, 99, 0);
            assert_eq!(
                Message::decode(&frame).unwrap_err(),
                ProtocolError::BadStatsFormat { code: 99 }
            );
        }
        assert_eq!(StatsFormat::from_code(0), Some(StatsFormat::Json));
        assert_eq!(StatsFormat::from_code(1), Some(StatsFormat::Prometheus));
        assert_eq!(StatsFormat::from_code(2), None);
    }
}
