//! The parent commit's `Vec`-node `PipelinedTree`, kept verbatim (bar
//! its doc example and unit tests) as the reference the inline-array
//! tree in `src/pipelined.rs` must match decision for decision.
#![allow(dead_code)]

// A single-pass, top-down B-tree with per-level node arenas — the
// data-structure shape of the FPGA pipelined dynamic search tree [48]
// that the Cache HW-Engine builds on (paper §6.3).
//
// Hardware pipelines cannot walk back up the tree: a request visits each
// level exactly once. That forces the classic *preemptive* algorithms —
// split any full node on the way down (so an insert never propagates
// upward) and refill any minimal node on the way down (so a delete never
// cascades) — implemented here over 4-ary internal nodes with FIDR's
// 16-entry leaves (§6.3's modification: all internal levels fit on-chip,
// only the leaf stage needs board DRAM).
//
// Nodes live in one arena per level, mirroring the per-stage memories of
// the hardware; [`PipelinedTree::level_node_counts`] reports the
// occupancy that sizes Table 5's on-chip memories.

/// Max keys in an internal (4-ary) node; full nodes split preemptively.
const INNER_MAX: usize = 3;
/// Max entries in a leaf (FIDR's 16-key leaves).
const LEAF_MAX: usize = 16;

#[derive(Debug, Clone, Default)]
struct Inner {
    keys: Vec<u64>,
    /// Children indices into the next level down (or the leaf arena).
    children: Vec<u32>,
}

#[derive(Debug, Clone, Default)]
struct Leaf {
    keys: Vec<u64>,
    values: Vec<u32>,
}

/// Arena with an intrusive free list.
#[derive(Debug, Clone, Default)]
struct Arena<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T: Default> Arena<T> {
    fn alloc(&mut self, value: T) -> u32 {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = value;
            i
        } else {
            self.slots.push(value);
            (self.slots.len() - 1) as u32
        }
    }

    fn release(&mut self, i: u32) {
        self.slots[i as usize] = T::default();
        self.free.push(i);
    }

    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// The pipelined top-down tree mapping `u64` → `u32`.
///
#[derive(Debug, Clone)]
pub struct PipelinedTree {
    /// `inner[h]` holds internal nodes at height `h + 1` above the
    /// leaves; children of `inner[0]` nodes are leaf indices.
    inner: Vec<Arena<Inner>>,
    leaves: Arena<Leaf>,
    /// Root: a leaf index when `height == 0`, else an index into
    /// `inner[height - 1]`.
    root: u32,
    /// Internal levels above the leaves.
    height: usize,
    len: usize,
}

impl Default for PipelinedTree {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelinedTree {
    /// Creates an empty tree (a single empty leaf).
    pub fn new() -> Self {
        let mut leaves = Arena::default();
        let root = leaves.alloc(Leaf::default());
        PipelinedTree {
            inner: Vec::new(),
            leaves,
            root,
            height: 0,
            len: 0,
        }
    }

    /// Stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pipeline stages (internal levels + the leaf stage).
    pub fn stages(&self) -> usize {
        self.height + 1
    }

    /// Live node count per level, root level first, leaves last — the
    /// per-stage memory occupancy of the hardware pipeline.
    pub fn level_node_counts(&self) -> Vec<usize> {
        let mut counts: Vec<usize> = self.inner.iter().rev().map(Arena::live).collect();
        counts.push(self.leaves.live());
        counts
    }

    fn child_index(keys: &[u64], key: u64) -> usize {
        keys.partition_point(|&k| k <= key)
    }

    /// Point lookup: one visit per level, top to bottom.
    pub fn search(&self, key: u64) -> Option<u32> {
        let mut idx = self.root;
        for h in (0..self.height).rev() {
            let node = &self.inner[h].slots[idx as usize];
            idx = node.children[Self::child_index(&node.keys, key)];
        }
        let leaf = &self.leaves.slots[idx as usize];
        leaf.keys.binary_search(&key).ok().map(|i| leaf.values[i])
    }

    /// Inserts `key` → `value` in a single downward pass, splitting any
    /// full node it passes; returns the previous value if present.
    pub fn insert(&mut self, key: u64, value: u32) -> Option<u32> {
        // Grow at the root first so the descent never needs to go back up.
        if self.root_is_full() {
            self.split_root();
        }

        let mut height = self.height;
        let mut idx = self.root;
        while height > 0 {
            let h = height - 1;
            let child_pos = {
                let node = &self.inner[h].slots[idx as usize];
                Self::child_index(&node.keys, key)
            };
            let child = self.inner[h].slots[idx as usize].children[child_pos];
            if self.node_is_full(h, child) {
                self.split_child(h, idx, child_pos);
                // The split may have shifted the key's child.
                let node = &self.inner[h].slots[idx as usize];
                let pos = Self::child_index(&node.keys, key);
                idx = node.children[pos];
            } else {
                idx = child;
            }
            height -= 1;
        }

        let leaf = &mut self.leaves.slots[idx as usize];
        match leaf.keys.binary_search(&key) {
            Ok(i) => Some(std::mem::replace(&mut leaf.values[i], value)),
            Err(i) => {
                leaf.keys.insert(i, key);
                leaf.values.insert(i, value);
                self.len += 1;
                None
            }
        }
    }

    fn root_is_full(&self) -> bool {
        if self.height == 0 {
            self.leaves.slots[self.root as usize].keys.len() >= LEAF_MAX
        } else {
            self.inner[self.height - 1].slots[self.root as usize]
                .keys
                .len()
                >= INNER_MAX
        }
    }

    /// Whether the child node at internal level `h`'s *lower* level is full.
    fn node_is_full(&self, h: usize, child: u32) -> bool {
        if h == 0 {
            self.leaves.slots[child as usize].keys.len() >= LEAF_MAX
        } else {
            self.inner[h - 1].slots[child as usize].keys.len() >= INNER_MAX
        }
    }

    /// Splits the full root, adding one level on top.
    fn split_root(&mut self) {
        if self.height == self.inner.len() {
            self.inner.push(Arena::default());
        }
        let old_root = self.root;
        let (sep, right) = if self.height == 0 {
            self.split_leaf(old_root)
        } else {
            self.split_inner(self.height - 1, old_root)
        };
        let new_root = self.inner[self.height].alloc(Inner {
            keys: vec![sep],
            children: vec![old_root, right],
        });
        self.root = new_root;
        self.height += 1;
    }

    /// Splits full child `children[child_pos]` of `parent` (at internal
    /// level `h`); the parent is guaranteed non-full.
    fn split_child(&mut self, h: usize, parent: u32, child_pos: usize) {
        let child = self.inner[h].slots[parent as usize].children[child_pos];
        let (sep, right) = if h == 0 {
            self.split_leaf(child)
        } else {
            self.split_inner(h - 1, child)
        };
        let parent = &mut self.inner[h].slots[parent as usize];
        parent.keys.insert(child_pos, sep);
        parent.children.insert(child_pos + 1, right);
    }

    /// Splits a full leaf 8/8; the separator is the right half's first
    /// key (B+ convention: keys stay in the leaves).
    fn split_leaf(&mut self, leaf: u32) -> (u64, u32) {
        let mid = LEAF_MAX / 2;
        let node = &mut self.leaves.slots[leaf as usize];
        let right_keys = node.keys.split_off(mid);
        let right_values = node.values.split_off(mid);
        let sep = right_keys[0];
        let right = self.leaves.alloc(Leaf {
            keys: right_keys,
            values: right_values,
        });
        (sep, right)
    }

    /// Splits a full internal node at level `h`, promoting its middle key.
    fn split_inner(&mut self, h: usize, node_idx: u32) -> (u64, u32) {
        let node = &mut self.inner[h].slots[node_idx as usize];
        debug_assert_eq!(node.keys.len(), INNER_MAX);
        let right_keys = node.keys.split_off(2);
        let right_children = node.children.split_off(2);
        let sep = node.keys.pop().expect("middle key");
        let right = self.inner[h].alloc(Inner {
            keys: right_keys,
            children: right_children,
        });
        (sep, right)
    }

    /// Removes `key` in a single downward pass, refilling any minimal
    /// internal node it passes; returns the value if the key existed.
    /// Leaves use relaxed deletion: an emptied leaf is unlinked, partially
    /// empty leaves are left as-is (the hardware's choice — leaf
    /// compaction would need a second pass).
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        'descent: loop {
            let mut height = self.height;
            let mut idx = self.root;
            let mut parent: Option<(usize, u32, usize)> = None; // (level, node, child_pos)

            while height > 0 {
                let h = height - 1;
                // Pre-fix: never descend into a minimal internal child.
                if h > 0 {
                    let child_pos = {
                        let node = &self.inner[h].slots[idx as usize];
                        Self::child_index(&node.keys, key)
                    };
                    let child = self.inner[h].slots[idx as usize].children[child_pos];
                    if self.inner[h - 1].slots[child as usize].keys.len() <= 1 {
                        let old_height = self.height;
                        self.refill_child(h, idx, child_pos);
                        if self.height < old_height {
                            // The root merged away beneath us; the old
                            // root slot is released, so restart from the
                            // new root (at most once per remove).
                            continue 'descent;
                        }
                    }
                }
                let node = &self.inner[h].slots[idx as usize];
                let child_pos = Self::child_index(&node.keys, key);
                let child = node.children[child_pos];
                parent = Some((h, idx, child_pos));
                idx = child;
                height -= 1;
            }

            let leaf = &mut self.leaves.slots[idx as usize];
            let i = match leaf.keys.binary_search(&key) {
                Ok(i) => i,
                Err(_) => return None,
            };
            leaf.keys.remove(i);
            let value = leaf.values.remove(i);
            self.len -= 1;

            if leaf.keys.is_empty() {
                if let Some((h, pnode, child_pos)) = parent {
                    self.unlink_child(h, pnode, child_pos);
                    self.leaves.release(idx);
                }
                // A root leaf just stays empty.
            }
            return Some(value);
        }
    }

    /// Gives the minimal child at `children[child_pos]` a second key by
    /// borrowing from a sibling or merging; the parent is guaranteed to
    /// have ≥ 2 keys (pre-fixed) or to be the root.
    fn refill_child(&mut self, h: usize, parent: u32, child_pos: usize) {
        let nchildren = self.inner[h].slots[parent as usize].children.len();
        let lower = h - 1;

        // Try borrowing from the left sibling.
        if child_pos > 0 {
            let left = self.inner[h].slots[parent as usize].children[child_pos - 1];
            if self.inner[lower].slots[left as usize].keys.len() > 1 {
                let (moved_key, moved_child) = {
                    let l = &mut self.inner[lower].slots[left as usize];
                    (
                        l.keys.pop().expect("spare"),
                        l.children.pop().expect("spare"),
                    )
                };
                let sep = std::mem::replace(
                    &mut self.inner[h].slots[parent as usize].keys[child_pos - 1],
                    moved_key,
                );
                let child = self.inner[h].slots[parent as usize].children[child_pos];
                let c = &mut self.inner[lower].slots[child as usize];
                c.keys.insert(0, sep);
                c.children.insert(0, moved_child);
                return;
            }
        }
        // Try borrowing from the right sibling.
        if child_pos + 1 < nchildren {
            let right = self.inner[h].slots[parent as usize].children[child_pos + 1];
            if self.inner[lower].slots[right as usize].keys.len() > 1 {
                let (moved_key, moved_child) = {
                    let r = &mut self.inner[lower].slots[right as usize];
                    (r.keys.remove(0), r.children.remove(0))
                };
                let sep = std::mem::replace(
                    &mut self.inner[h].slots[parent as usize].keys[child_pos],
                    moved_key,
                );
                let child = self.inner[h].slots[parent as usize].children[child_pos];
                let c = &mut self.inner[lower].slots[child as usize];
                c.keys.push(sep);
                c.children.push(moved_child);
                return;
            }
        }
        // Merge with a sibling (both at minimum: 1 key each + separator
        // = 3 keys, exactly INNER_MAX).
        let (left_pos, right_pos) = if child_pos > 0 {
            (child_pos - 1, child_pos)
        } else {
            (child_pos, child_pos + 1)
        };
        let left = self.inner[h].slots[parent as usize].children[left_pos];
        let right = self.inner[h].slots[parent as usize].children[right_pos];
        let sep = self.inner[h].slots[parent as usize].keys[left_pos];

        let right_node = std::mem::take(&mut self.inner[lower].slots[right as usize]);
        {
            let l = &mut self.inner[lower].slots[left as usize];
            l.keys.push(sep);
            l.keys.extend(right_node.keys);
            l.children.extend(right_node.children);
        }
        self.inner[lower].release(right);
        let p = &mut self.inner[h].slots[parent as usize];
        p.keys.remove(left_pos);
        p.children.remove(right_pos);

        // Root collapse: if the root lost its last key, the merged child
        // becomes the root and the pipeline loses a stage.
        if h == self.height - 1 && p.keys.is_empty() {
            let new_root = p.children[0];
            self.inner[h].release(self.root);
            self.root = new_root;
            self.height -= 1;
        }
    }

    /// Removes `children[child_pos]` (an emptied leaf) from its parent.
    fn unlink_child(&mut self, h: usize, parent: u32, child_pos: usize) {
        let p = &mut self.inner[h].slots[parent as usize];
        p.children.remove(child_pos);
        let key_pos = child_pos.saturating_sub(1);
        p.keys.remove(key_pos);

        if h == self.height - 1 && p.keys.is_empty() {
            let new_root = p.children[0];
            self.inner[h].release(self.root);
            self.root = new_root;
            self.height -= 1;
        }
    }

    /// Checks structural invariants (used by tests).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut total = 0usize;
        self.check_node(self.height, self.root, None, None, &mut total);
        assert_eq!(total, self.len, "entry count drifted");
    }

    fn check_node(
        &self,
        height: usize,
        idx: u32,
        lo: Option<u64>,
        hi: Option<u64>,
        total: &mut usize,
    ) {
        let in_bounds = |keys: &[u64]| {
            for w in keys.windows(2) {
                assert!(w[0] < w[1], "keys not strictly sorted");
            }
            if let Some(lo) = lo {
                assert!(keys.iter().all(|&k| k >= lo), "key below bound");
            }
            if let Some(hi) = hi {
                assert!(keys.iter().all(|&k| k < hi), "key above bound");
            }
        };
        if height == 0 {
            let leaf = &self.leaves.slots[idx as usize];
            assert!(leaf.keys.len() <= LEAF_MAX);
            assert_eq!(leaf.keys.len(), leaf.values.len());
            in_bounds(&leaf.keys);
            *total += leaf.keys.len();
        } else {
            let node = &self.inner[height - 1].slots[idx as usize];
            assert!(!node.keys.is_empty(), "internal node without keys");
            assert!(node.keys.len() <= INNER_MAX);
            assert_eq!(node.children.len(), node.keys.len() + 1);
            in_bounds(&node.keys);
            for (i, &c) in node.children.iter().enumerate() {
                let clo = if i == 0 { lo } else { Some(node.keys[i - 1]) };
                let chi = if i == node.keys.len() {
                    hi
                } else {
                    Some(node.keys[i])
                };
                self.check_node(height - 1, c, clo, chi, total);
            }
        }
    }
}
