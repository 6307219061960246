//! The inline-node `PipelinedTree` and the buffer-recycling `HwTree`
//! against the parent commit's `Vec`-node versions, kept in
//! `tests/reference/`: the same answers, the same shape after every
//! operation (so Table 5's per-level node counts cannot drift), and the
//! same hardware counters.

mod reference;

use fidr_cache::{HwTree, HwTreeConfig, PipelinedTree};
use proptest::prelude::*;

/// Applies `raw` ops to both trees, checking them against each other
/// after every one. An op is (kind, key seed, value); a key seed with its
/// low bit clear re-picks a key inserted earlier, so removes and searches
/// hit even in the 64-bit key space.
fn replay_on_both(space: u64, ops: &[(u8, u64, u32)]) {
    let mut new = PipelinedTree::new();
    let mut old = reference::pipelined::PipelinedTree::new();
    let mut inserted: Vec<u64> = Vec::new();
    for &(kind, seed, value) in ops {
        let key = match inserted.len() {
            n if n > 0 && seed & 1 == 0 => inserted[(seed >> 1) as usize % n],
            _ => (seed >> 1) % space,
        };
        match kind {
            0 => {
                assert_eq!(new.insert(key, value), old.insert(key, value));
                inserted.push(key);
            }
            1 => assert_eq!(new.remove(key), old.remove(key)),
            _ => assert_eq!(new.search(key), old.search(key)),
        }
        assert_eq!(new.len(), old.len());
        assert_eq!(new.stages(), old.stages());
        assert_eq!(new.level_node_counts(), old.level_node_counts());
        new.check_invariants();
    }
}

proptest! {
    /// Narrow, cache-sized and full-width key spaces: collisions and
    /// replacements, underflow merges, and deep sparse trees.
    #[test]
    fn inline_tree_makes_the_reference_trees_decisions(
        space in prop_oneof![Just(64u64), Just(4096), Just(u64::MAX)],
        ops in proptest::collection::vec((0u8..3, any::<u64>(), any::<u32>()), 1..1500),
    ) {
        replay_on_both(space, &ops);
    }
}

/// SplitMix64: a seeded op stream without a dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Grows a tree to thousands of keys, then mostly drains it: deep
/// splits on the way up, inner-level borrows, merges and root collapses
/// on the way down.
#[test]
fn deep_trees_keep_the_reference_shape_growing_and_draining() {
    let mut rng = SplitMix(7);
    let ops: Vec<(u8, u64, u32)> = (0..18_000)
        .map(|i| {
            let (roll, seed) = (rng.next(), rng.next());
            match (i < 6_000, roll % 10) {
                (true, 0..=7) | (false, 0) => (0, seed, roll as u32),
                (true, _) => (2, seed, 0),
                // Draining: removes re-pick inserted keys (even seeds).
                (false, _) => (1, seed & !1, 0),
            }
        })
        .collect();
    replay_on_both(u64::MAX, &ops);
}

#[test]
fn hw_engine_counters_match_the_reference_over_20k_ops() {
    for slots in [1, 4] {
        let cfg = HwTreeConfig {
            update_slots: slots,
            ..HwTreeConfig::for_cache_lines(4096)
        };
        let mut new = HwTree::new(cfg);
        let mut old = reference::hwtree::HwTree::new(cfg);
        let mut rng = SplitMix(slots as u64);
        let mut resident: Vec<u64> = Vec::new();
        for _ in 0..20_000 {
            let roll = rng.next();
            let fresh = rng.next() % (1 << 17);
            let key = match resident.len() {
                n if n > 0 && roll & 1 == 0 => resident[(roll >> 8) as usize % n],
                _ => fresh,
            };
            match roll % 10 {
                0..=4 => assert_eq!(new.search(key), old.search(key)),
                5..=7 => {
                    let line = (roll >> 32) as u32;
                    new.insert(key, line);
                    old.insert(key, line);
                    resident.push(key);
                }
                _ => assert_eq!(new.remove(key), old.remove(key)),
            }
            assert_eq!(new.stats(), old.stats(), "slots {slots}");
        }
        assert_eq!(new.len(), old.len());
        assert!(new.stats().updates > 5_000, "{:?}", new.stats());
        if slots > 1 {
            assert!(
                new.stats().crashes > 0,
                "the speculation window was exercised"
            );
        }
    }
}
