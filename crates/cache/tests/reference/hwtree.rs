//! The parent commit's `HwTree` update model — one fresh `Vec` per
//! update's node set — over the reference tree, kept verbatim (bar its
//! doc example and the wall-clock helpers) so the recycled-buffer engine
//! in `src/hwtree.rs` can be held to the same counters.
#![allow(dead_code)]

use super::pipelined::PipelinedTree;
use fidr_cache::{HwTreeConfig, HwTreeStats};
use fidr_hash::fnv1a_u64;
use std::collections::VecDeque;

/// The Cache HW-Engine tree: exact mapping + cycle/conflict simulation.
#[derive(Debug, Clone)]
pub struct HwTree {
    map: PipelinedTree,
    cfg: HwTreeConfig,
    stats: HwTreeStats,
    /// Node-id sets of updates currently in flight (the speculation
    /// window); length < `update_slots`.
    window: VecDeque<Vec<u64>>,
}

impl HwTree {
    /// Creates an engine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `update_slots` is zero.
    pub fn new(cfg: HwTreeConfig) -> Self {
        assert!(cfg.update_slots >= 1, "need at least one update slot");
        HwTree {
            map: PipelinedTree::new(),
            cfg,
            stats: HwTreeStats::default(),
            window: VecDeque::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HwTreeConfig {
        &self.cfg
    }

    /// Hardware counters so far.
    pub fn stats(&self) -> HwTreeStats {
        self.stats
    }

    /// Clears the hardware counters (not the mapping).
    pub fn reset_stats(&mut self) {
        self.stats = HwTreeStats::default();
        self.window.clear();
    }

    /// Mapped entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entries are mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Pipelined search: one result per cycle.
    pub fn search(&mut self, key: u64) -> Option<u32> {
        self.stats.searches += 1;
        self.stats.cycles += 1;
        self.stats.fpga_dram_bytes += self.cfg.leaf_bytes;
        self.map.search(key)
    }

    /// Inserts a (bucket, line) pair through the update pipeline.
    pub fn insert(&mut self, key: u64, line: u32) {
        self.issue_update(key);
        self.map.insert(key, line);
    }

    /// Deletes a pair through the update pipeline (cache replacement).
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        self.issue_update(key);
        self.map.remove(key)
    }

    /// Simulates issuing one update through the speculative pipeline:
    /// records the traversed node set, detects conflicts against the
    /// in-flight window (Algorithm 1), and charges replay on a crash
    /// (Algorithm 2).
    fn issue_update(&mut self, key: u64) {
        let nodes = self.path_nodes(key);

        // Algorithm 1: crash iff any traversed node or its neighbor was
        // speculatively updated by an in-flight request.
        let crashed = self.window.iter().any(|inflight| {
            inflight
                .iter()
                .any(|&n| nodes.iter().any(|&m| conflicts(n, m)))
        });

        let per_update = self.cfg.cycles_per_update().round() as u64;
        if crashed {
            // Algorithm 2 line 2: discard and replay. The replay drains the
            // window first (serial re-execution), costing a full
            // unshared pass.
            self.stats.crashes += 1;
            self.stats.cycles += self.cfg.update_fixed_cycles + self.cfg.update_serial_cycles;
            self.stats.fpga_dram_bytes += self.cfg.leaf_bytes;
            self.window.clear();
        }

        self.stats.updates += 1;
        self.stats.cycles += per_update;
        self.stats.fpga_dram_bytes += self.cfg.leaf_bytes;

        // Slide the speculation window.
        if self.cfg.update_slots > 1 {
            self.window.push_back(nodes);
            while self.window.len() >= self.cfg.update_slots {
                self.window.pop_front();
            }
        }
    }

    /// Models the node ids an update *modifies* (Algorithm 1's
    /// `spec_updated_node` entries): always the leaf, plus each ancestor
    /// with probability 1/`leaf_keys` per level (split/merge propagation).
    /// Hash-PBN bucket indexes derive from SHA-256 prefixes, so leaf
    /// positions are uniform (§5.5.1: "hash values are highly random").
    fn path_nodes(&self, key: u64) -> Vec<u64> {
        let h = fnv1a_u64(key);
        let node_at = |level: u64| -> u64 {
            let bits = (2 * level).min(48) as u32;
            (level << 52) | (h >> (64 - bits))
        };
        let leaf_level = self.cfg.levels as u64;
        let mut nodes = vec![node_at(leaf_level)];
        // Propagation coin flips drawn deterministically from the key.
        let mut coins = fnv1a_u64(key ^ 0x5eed_5eed_5eed_5eed);
        let per_level = self.cfg.leaf_keys as u64;
        let mut level = leaf_level;
        while level > 1 && coins.is_multiple_of(per_level) {
            level -= 1;
            nodes.push(node_at(level));
            coins /= per_level;
        }
        nodes
    }
}

/// Two modeled nodes conflict when they are the same node or lateral
/// neighbors at the same level (split/merge can touch a neighbor).
fn conflicts(a: u64, b: u64) -> bool {
    if a == b {
        return true;
    }
    (a >> 52) == (b >> 52) && a.abs_diff(b) == 1
}
