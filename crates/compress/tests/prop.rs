//! Property-based tests for the codec: roundtrip over arbitrary and
//! adversarially-structured inputs.

use fidr_compress::{compress, decompress, CompressedChunk, ContentGenerator};
use proptest::prelude::*;

proptest! {
    #[test]
    fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    /// Repetitive inputs (small alphabet) stress the match path.
    #[test]
    fn roundtrip_small_alphabet(data in proptest::collection::vec(0u8..4, 0..8192)) {
        let c = compress(&data);
        prop_assert!(data.is_empty() || c.len() <= data.len() + data.len() / 64 + 16);
        prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    /// Runs of runs: blocks of a repeated byte with varying lengths.
    #[test]
    fn roundtrip_rle_blocks(blocks in proptest::collection::vec((any::<u8>(), 1usize..500), 1..20)) {
        let mut data = Vec::new();
        for (b, n) in blocks {
            data.extend(std::iter::repeat_n(b, n));
        }
        let c = compress(&data);
        prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    /// Decompressing corrupted streams must never panic.
    #[test]
    fn corrupt_streams_never_panic(data in proptest::collection::vec(any::<u8>(), 1..1024),
                                   flip in 0usize..8192,
                                   explen in 0usize..8192) {
        let mut c = compress(&data);
        if !c.is_empty() {
            let i = flip % c.len();
            c[i] = c[i].wrapping_add(1 + (flip % 255) as u8);
        }
        // Either succeeds (harmless corruption) or errors; must not panic.
        let _ = decompress(&c, explen);
    }

    /// CompressedChunk roundtrips for any content.
    #[test]
    fn chunk_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let cc = CompressedChunk::compress(&data);
        prop_assert!(cc.stored_len() <= data.len().max(1));
        prop_assert_eq!(cc.decompress().unwrap(), data);
    }

    /// The generator's content roundtrips and its ratio stays monotone:
    /// a higher target never compresses (much) better than a lower one.
    #[test]
    fn generator_ratio_monotone(seed in any::<u64>()) {
        let lo = ContentGenerator::new(0.25).measured_ratio(seed, 4096);
        let hi = ContentGenerator::new(0.75).measured_ratio(seed, 4096);
        prop_assert!(lo < hi + 0.05, "lo {lo} hi {hi}");
    }
}
