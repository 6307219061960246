//! Property-based tests for the codec: roundtrip over arbitrary and
//! adversarially-structured inputs.

use fidr_compress::{compress, decompress, CompressedChunk, ContentGenerator};
use proptest::prelude::*;

/// `len` bytes of seeded xorshift noise: nothing in it repeats, so the
/// matcher's probes spread out over it.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 56) as u8
        })
        .collect()
}

/// Writes `len` bytes repeating `period` bytes of `data[at..]` over the
/// rest of `data[at..at + len]`.
fn plant_repeat(data: &mut [u8], at: usize, period: usize, len: usize) {
    for i in period..len.min(data.len() - at) {
        data[at + i] = data[at + i - period];
    }
}

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

    /// Noise with a short repeat planted in it. Past the first 32
    /// misses the matcher probes every few bytes and rewinds on a hit;
    /// over the cases the repeat starts at every offset inside those
    /// gaps, and the planted bytes may run off the end.
    #[test]
    fn roundtrip_repeat_planted_in_noise(len in 0usize..8192,
                                         seed in any::<u64>(),
                                         at in 0usize..8192,
                                         period in 1usize..=16,
                                         rep_len in 4usize..96) {
        let mut data = noise(len, seed);
        if at < len {
            plant_repeat(&mut data, at, period, rep_len);
        }
        let c = compress(&data);
        prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    /// A repeat whose source straddles the 64 KiB window's edge: the
    /// copy sits 65 530–65 540 bytes behind, so some of its matches are
    /// in reach and some one byte out.
    #[test]
    fn roundtrip_repeat_across_the_window_edge(seed in any::<u64>(),
                                               extra in 0usize..4096,
                                               dist in 65_530usize..=65_540,
                                               rep_len in 4usize..64) {
        let mut data = noise(dist + 1024 + extra, seed);
        let at = dist + extra / 2;
        data.copy_within(at - dist..at - dist + rep_len, at);
        let c = compress(&data);
        prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    /// ~200 KB inputs: the skip grows past the 32 positions a rewind
    /// searches byte by byte, so a rewind can skip again inside the gap
    /// it went back over.
    #[test]
    fn roundtrip_long_noise_then_repeats(seed in any::<u64>(),
                                         len in 190_000usize..210_000,
                                         plants in proptest::collection::vec(
                                             (0usize..210_000, 1usize..=16, 4usize..4096), 1..4)) {
        let mut data = noise(len, seed);
        for (at, period, rep_len) in plants {
            if at < len {
                plant_repeat(&mut data, at, period, rep_len);
            }
        }
        let c = compress(&data);
        prop_assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }
}
