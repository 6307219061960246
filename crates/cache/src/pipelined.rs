//! A single-pass, top-down B-tree with per-level node arenas — the
//! data-structure shape of the FPGA pipelined dynamic search tree [48]
//! that the Cache HW-Engine builds on (paper §6.3).
//!
//! Hardware pipelines cannot walk back up the tree: a request visits each
//! level exactly once. That forces the classic *preemptive* algorithms —
//! split any full node on the way down (so an insert never propagates
//! upward) and refill any minimal node on the way down (so a delete never
//! cascades) — implemented here over 4-ary internal nodes with FIDR's
//! 16-entry leaves (§6.3's modification: all internal levels fit on-chip,
//! only the leaf stage needs board DRAM).
//!
//! Nodes live in one arena per level, mirroring the per-stage memories of
//! the hardware; [`PipelinedTree::level_node_counts`] reports the
//! occupancy that sizes Table 5's on-chip memories. Like a stage memory
//! word, a node is a fixed inline record — an internal node's 3 keys and
//! 4 children fit one 64-byte cache line, a leaf's 16 keys and 16 values
//! sit beside each other — so a visit is one node load, not three heap
//! objects. Node capacity is never exceeded: the preemptive split and
//! refill above are what guarantee it.

/// Max keys in an internal (4-ary) node; full nodes split preemptively.
const INNER_MAX: usize = 3;
/// Max entries in a leaf (FIDR's 16-key leaves).
const LEAF_MAX: usize = 16;

/// Inserts `value` at `pos` of the first `len` slots, shifting the tail.
fn insert_at<T: Copy>(slots: &mut [T], len: usize, pos: usize, value: T) {
    slots.copy_within(pos..len, pos + 1);
    slots[pos] = value;
}

/// Removes and returns slot `pos` of the first `len`, closing the gap.
fn remove_at<T: Copy>(slots: &mut [T], len: usize, pos: usize) -> T {
    let value = slots[pos];
    slots.copy_within(pos + 1..len, pos);
    value
}

#[derive(Debug, Clone, Copy, Default)]
struct Inner {
    /// Keys in use; `len + 1` children are.
    len: u8,
    keys: [u64; INNER_MAX],
    /// Children indices into the next level down (or the leaf arena).
    children: [u32; INNER_MAX + 1],
}

impl Inner {
    fn new(key: u64, left: u32, right: u32) -> Self {
        Inner {
            len: 1,
            keys: [key, 0, 0],
            children: [left, right, 0, 0],
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn keys(&self) -> &[u64] {
        &self.keys[..self.len()]
    }

    fn children(&self) -> &[u32] {
        &self.children[..self.len() + 1]
    }

    /// Position of the child whose range holds `key`.
    fn child_pos(&self, key: u64) -> usize {
        self.keys().partition_point(|&k| k <= key)
    }

    fn insert(&mut self, key_pos: usize, key: u64, child_pos: usize, child: u32) {
        let n = self.len();
        insert_at(&mut self.keys, n, key_pos, key);
        insert_at(&mut self.children, n + 1, child_pos, child);
        self.len += 1;
    }

    fn remove(&mut self, key_pos: usize, child_pos: usize) -> (u64, u32) {
        let n = self.len();
        let key = remove_at(&mut self.keys, n, key_pos);
        let child = remove_at(&mut self.children, n + 1, child_pos);
        self.len -= 1;
        (key, child)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Leaf {
    len: u8,
    keys: [u64; LEAF_MAX],
    values: [u32; LEAF_MAX],
}

impl Leaf {
    fn len(&self) -> usize {
        self.len as usize
    }

    fn keys(&self) -> &[u64] {
        &self.keys[..self.len()]
    }
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
/// # Examples
///
/// ```
/// use fidr_cache::PipelinedTree;
///
/// let mut tree = PipelinedTree::new();
/// tree.insert(10, 1);
/// assert_eq!(tree.search(10), Some(1));
/// assert_eq!(tree.remove(10), Some(1));
/// assert!(tree.is_empty());
/// ```
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

    /// Point lookup: one visit per level, top to bottom.
    pub fn search(&self, key: u64) -> Option<u32> {
        let mut idx = self.root;
        for h in (0..self.height).rev() {
            let node = &self.inner[h].slots[idx as usize];
            idx = node.children[node.child_pos(key)];
        }
        let leaf = &self.leaves.slots[idx as usize];
        leaf.keys().binary_search(&key).ok().map(|i| leaf.values[i])
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
            let node = &self.inner[h].slots[idx as usize];
            let child_pos = node.child_pos(key);
            let child = node.children[child_pos];
            if self.node_is_full(h, child) {
                self.split_child(h, idx, child_pos);
                // The split may have shifted the key's child.
                let node = &self.inner[h].slots[idx as usize];
                idx = node.children[node.child_pos(key)];
            } else {
                idx = child;
            }
            height -= 1;
        }

        let leaf = &mut self.leaves.slots[idx as usize];
        match leaf.keys().binary_search(&key) {
            Ok(i) => Some(std::mem::replace(&mut leaf.values[i], value)),
            Err(i) => {
                let n = leaf.len();
                insert_at(&mut leaf.keys, n, i, key);
                insert_at(&mut leaf.values, n, i, value);
                leaf.len += 1;
                self.len += 1;
                None
            }
        }
    }

    fn root_is_full(&self) -> bool {
        if self.height == 0 {
            self.leaves.slots[self.root as usize].len() >= LEAF_MAX
        } else {
            self.inner[self.height - 1].slots[self.root as usize].len() >= INNER_MAX
        }
    }

    /// Whether the child node at internal level `h`'s *lower* level is full.
    fn node_is_full(&self, h: usize, child: u32) -> bool {
        if h == 0 {
            self.leaves.slots[child as usize].len() >= LEAF_MAX
        } else {
            self.inner[h - 1].slots[child as usize].len() >= INNER_MAX
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
        self.root = self.inner[self.height].alloc(Inner::new(sep, old_root, right));
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
        self.inner[h].slots[parent as usize].insert(child_pos, sep, child_pos + 1, right);
    }

    /// Splits a full leaf 8/8; the separator is the right half's first
    /// key (B+ convention: keys stay in the leaves).
    fn split_leaf(&mut self, leaf: u32) -> (u64, u32) {
        let mid = LEAF_MAX / 2;
        let node = &mut self.leaves.slots[leaf as usize];
        let n = node.len();
        let mut right = Leaf {
            len: (n - mid) as u8,
            ..Leaf::default()
        };
        right.keys[..n - mid].copy_from_slice(&node.keys[mid..n]);
        right.values[..n - mid].copy_from_slice(&node.values[mid..n]);
        node.len = mid as u8;
        (right.keys[0], self.leaves.alloc(right))
    }

    /// Splits a full internal node at level `h`, promoting its middle key.
    fn split_inner(&mut self, h: usize, node_idx: u32) -> (u64, u32) {
        let node = &mut self.inner[h].slots[node_idx as usize];
        debug_assert_eq!(node.len(), INNER_MAX);
        let right = Inner::new(node.keys[2], node.children[2], node.children[3]);
        node.len = 1;
        (node.keys[1], self.inner[h].alloc(right))
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
                    let node = &self.inner[h].slots[idx as usize];
                    let child_pos = node.child_pos(key);
                    let child = node.children[child_pos];
                    if self.inner[h - 1].slots[child as usize].len() <= 1 {
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
                let child_pos = node.child_pos(key);
                let child = node.children[child_pos];
                parent = Some((h, idx, child_pos));
                idx = child;
                height -= 1;
            }

            let leaf = &mut self.leaves.slots[idx as usize];
            let i = leaf.keys().binary_search(&key).ok()?;
            let n = leaf.len();
            remove_at(&mut leaf.keys, n, i);
            let value = remove_at(&mut leaf.values, n, i);
            leaf.len -= 1;
            self.len -= 1;

            if leaf.len == 0 {
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
        let p = self.inner[h].slots[parent as usize];
        let lower = &mut self.inner[h - 1].slots;
        let child = p.children[child_pos];

        // Try borrowing from the left sibling.
        if child_pos > 0 {
            let left = &mut lower[p.children[child_pos - 1] as usize];
            if left.len() > 1 {
                let last = left.len() - 1;
                let (moved_key, moved_child) = left.remove(last, last + 1);
                lower[child as usize].insert(0, p.keys[child_pos - 1], 0, moved_child);
                self.inner[h].slots[parent as usize].keys[child_pos - 1] = moved_key;
                return;
            }
        }
        // Try borrowing from the right sibling.
        if child_pos < p.len() {
            let right = &mut lower[p.children[child_pos + 1] as usize];
            if right.len() > 1 {
                let (moved_key, moved_child) = right.remove(0, 0);
                let c = &mut lower[child as usize];
                let n = c.len();
                c.insert(n, p.keys[child_pos], n + 1, moved_child);
                self.inner[h].slots[parent as usize].keys[child_pos] = moved_key;
                return;
            }
        }
        // Merge with a sibling (both at minimum: 1 key each + separator
        // = 3 keys, exactly INNER_MAX).
        let left_pos = child_pos.saturating_sub(1);
        let (left, right) = (p.children[left_pos], p.children[left_pos + 1]);
        let r = lower[right as usize];
        let l = &mut lower[left as usize];
        let n = l.len();
        l.keys[n] = p.keys[left_pos];
        l.keys[n + 1..n + 1 + r.len()].copy_from_slice(r.keys());
        l.children[n + 1..n + 2 + r.len()].copy_from_slice(r.children());
        l.len += 1 + r.len;
        self.inner[h - 1].release(right);
        self.inner[h].slots[parent as usize].remove(left_pos, left_pos + 1);
        self.collapse_empty_root(h, parent);
    }

    /// Removes `children[child_pos]` (an emptied leaf) from its parent.
    fn unlink_child(&mut self, h: usize, parent: u32, child_pos: usize) {
        let p = &mut self.inner[h].slots[parent as usize];
        p.remove(child_pos.saturating_sub(1), child_pos);
        self.collapse_empty_root(h, parent);
    }

    /// Root collapse: if the root (at level `h`) lost its last key, its
    /// only child becomes the root and the pipeline loses a stage.
    fn collapse_empty_root(&mut self, h: usize, node: u32) {
        let p = &self.inner[h].slots[node as usize];
        if h == self.height - 1 && p.len == 0 {
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
            assert!(leaf.len() <= LEAF_MAX);
            in_bounds(leaf.keys());
            *total += leaf.len();
        } else {
            let node = &self.inner[height - 1].slots[idx as usize];
            assert!(node.len() > 0, "internal node without keys");
            assert!(node.len() <= INNER_MAX);
            in_bounds(node.keys());
            for (i, &c) in node.children().iter().enumerate() {
                let clo = if i == 0 { lo } else { Some(node.keys[i - 1]) };
                let chi = if i == node.len() {
                    hi
                } else {
                    Some(node.keys[i])
                };
                self.check_node(height - 1, c, clo, chi, total);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_search_small() {
        let mut t = PipelinedTree::new();
        for k in [9u64, 1, 5, 3, 7] {
            assert_eq!(t.insert(k, (k * 2) as u32), None);
        }
        for k in [9u64, 1, 5, 3, 7] {
            assert_eq!(t.search(k), Some((k * 2) as u32));
        }
        assert_eq!(t.search(4), None);
        t.check_invariants();
    }

    #[test]
    fn grows_through_many_levels() {
        let mut t = PipelinedTree::new();
        for k in 0..20_000u64 {
            t.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k as u32);
        }
        t.check_invariants();
        assert!(t.stages() >= 4, "stages {}", t.stages());
        let counts = t.level_node_counts();
        assert_eq!(counts.len(), t.stages());
        // Each level fans out: deeper levels have more nodes.
        for w in counts.windows(2) {
            assert!(w[0] < w[1], "fan-out violated: {counts:?}");
        }
    }

    #[test]
    fn replace_keeps_len() {
        let mut t = PipelinedTree::new();
        t.insert(5, 1);
        assert_eq!(t.insert(5, 2), Some(1));
        assert_eq!(t.len(), 1);
        assert_eq!(t.search(5), Some(2));
    }

    #[test]
    fn delete_everything() {
        let mut t = PipelinedTree::new();
        let keys: Vec<u64> = (0..5_000).map(|k| k * 97 % 65_536).collect();
        let mut inserted = std::collections::HashSet::new();
        for &k in &keys {
            t.insert(k, k as u32);
            inserted.insert(k);
        }
        t.check_invariants();
        for &k in &keys {
            if inserted.remove(&k) {
                assert_eq!(t.remove(k), Some(k as u32), "remove {k}");
            } else {
                assert_eq!(t.remove(k), None);
            }
        }
        assert!(t.is_empty());
        t.check_invariants();
    }

    #[test]
    fn interleaved_insert_delete_keeps_invariants() {
        let mut t = PipelinedTree::new();
        for round in 0..40u64 {
            for k in 0..200u64 {
                t.insert(k.wrapping_mul(31) + round * 7, k as u32);
            }
            for k in (0..200u64).step_by(3) {
                t.remove(k.wrapping_mul(31) + round * 7);
            }
            t.check_invariants();
        }
        assert!(!t.is_empty());
    }

    #[test]
    fn remove_from_empty_and_missing() {
        let mut t = PipelinedTree::new();
        assert_eq!(t.remove(1), None);
        t.insert(1, 1);
        assert_eq!(t.remove(2), None);
        assert_eq!(t.len(), 1);
    }
}
