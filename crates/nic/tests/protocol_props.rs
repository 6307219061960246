//! Property tests for the §6.2 wire protocol and the streaming codec:
//! `decode(encode(m))` is the identity, `decode` never panics on
//! arbitrary bytes, any strict prefix of a valid frame is `Incomplete`
//! (never a hard error), and a frame stream survives byte-at-a-time
//! reassembly through [`FramedCodec`].

use bytes::Bytes;
use fidr_chunk::Lba;
use fidr_nic::protocol::{Decoded, Message, ShardMapAction, StatsFormat, HEADER_BYTES};
use fidr_nic::FramedCodec;
use proptest::prelude::*;

fn format_strategy() -> impl Strategy<Value = StatsFormat> {
    prop_oneof![Just(StatsFormat::Json), Just(StatsFormat::Prometheus)]
}

/// Only the payload-carrying install actions; a `Get` forbids a payload
/// and is covered by its own `Just` arm in [`message_strategy`].
fn install_action_strategy() -> impl Strategy<Value = ShardMapAction> {
    prop_oneof![Just(ShardMapAction::Set), Just(ShardMapAction::Drain)]
}

fn message_strategy() -> impl Strategy<Value = Message> {
    let payload = proptest::collection::vec(any::<u8>(), 0..2048);
    prop_oneof![
        (any::<u64>(), payload.clone()).prop_map(|(lba, data)| Message::Write {
            lba: Lba(lba),
            data: Bytes::from(data),
        }),
        any::<u64>().prop_map(|lba| Message::Read { lba: Lba(lba) }),
        any::<u64>().prop_map(|lba| Message::WriteAck { lba: Lba(lba) }),
        (any::<u64>(), payload.clone()).prop_map(|(lba, data)| Message::ReadReply {
            lba: Lba(lba),
            data: Bytes::from(data),
        }),
        format_strategy().prop_map(|format| Message::StatsRequest { format }),
        (format_strategy(), payload.clone()).prop_map(|(format, body)| Message::StatsReply {
            format,
            body: Bytes::from(body),
        }),
        Just(Message::ShardMapRequest {
            action: ShardMapAction::Get,
            map: Bytes::new(),
        }),
        (install_action_strategy(), payload.clone()).prop_map(|(action, map)| {
            Message::ShardMapRequest {
                action,
                map: Bytes::from(map),
            }
        }),
        (any::<u64>(), payload).prop_map(|(generation, map)| Message::ShardMapReply {
            generation,
            map: Bytes::from(map),
        }),
        any::<u64>().prop_map(|lba| Message::Delete { lba: Lba(lba) }),
        any::<u64>().prop_map(|lba| Message::DeleteAck { lba: Lba(lba) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_inverts_encode(msg in message_strategy()) {
        let bytes = msg.encode().expect("within payload bound");
        match Message::decode(&bytes).expect("well-formed") {
            Decoded::Frame { msg: decoded, used } => {
                prop_assert_eq!(decoded, msg);
                prop_assert_eq!(used, bytes.len());
            }
            Decoded::Incomplete { needed } => {
                panic!("complete frame reported Incomplete (needed {needed})")
            }
        }
    }

    #[test]
    fn decode_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256)
    ) {
        // Any outcome is fine; reaching this line means no panic, and a
        // frame must never claim more bytes than it was given.
        if let Ok(Decoded::Frame { used, .. }) = Message::decode(&bytes) {
            prop_assert!(used <= bytes.len());
            prop_assert!(used >= HEADER_BYTES);
        }
    }

    #[test]
    fn every_strict_prefix_is_incomplete(
        msg in message_strategy(),
        cut in any::<u16>(),
    ) {
        let bytes = msg.encode().expect("within payload bound");
        let cut = (cut as usize) % bytes.len().max(1);
        match Message::decode(&bytes[..cut]).expect("prefixes are not errors") {
            Decoded::Incomplete { needed } => {
                prop_assert!(needed > 0);
                // `needed` is a lower bound the caller can trust: after
                // that many more bytes the frame is at worst still short,
                // never past its end.
                prop_assert!(cut + needed <= bytes.len());
            }
            Decoded::Frame { .. } => panic!("strict prefix decoded as a whole frame"),
        }
    }

    #[test]
    fn codec_reassembles_any_chunking(
        msgs in proptest::collection::vec(message_strategy(), 1..8),
        chunk in 1usize..striding_max(),
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode().expect("within payload bound"));
        }
        let mut codec = FramedCodec::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            codec.feed(piece);
            while let Some(msg) = codec.next_frame().expect("valid stream") {
                decoded.push(msg);
            }
        }
        let n = msgs.len();
        prop_assert_eq!(decoded, msgs);
        prop_assert_eq!(codec.pending_bytes(), 0);
        prop_assert_eq!(codec.stats().frames_decoded, n as u64);
        prop_assert_eq!(codec.stats().bytes_fed, wire.len() as u64);
    }
}

/// Upper bound for the chunk-size strategy: covers byte-at-a-time
/// (chunk = 1) through several-frames-at-once deliveries.
fn striding_max() -> usize {
    3 * (HEADER_BYTES + 2048)
}

#[test]
fn byte_at_a_time_reassembly_is_exact() {
    let msgs = vec![
        Message::Write {
            lba: Lba(3),
            data: Bytes::from(vec![0xab; 777]),
        },
        Message::WriteAck { lba: Lba(3) },
        Message::Read { lba: Lba(9) },
        Message::ReadReply {
            lba: Lba(9),
            data: Bytes::from(vec![0x11; 4096]),
        },
    ];
    let mut codec = FramedCodec::new();
    let mut decoded = Vec::new();
    for m in &msgs {
        for b in m.encode().unwrap() {
            codec.feed(&[b]);
            while let Some(msg) = codec.next_frame().unwrap() {
                decoded.push(msg);
            }
        }
    }
    assert_eq!(decoded, msgs);
    assert_eq!(codec.stats().frames_decoded, 4);
    assert_eq!(codec.stats().frames_rejected, 0);
}
