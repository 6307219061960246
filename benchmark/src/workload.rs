//! The four workloads: each is an op sequence that is a pure function of
//! `(workload, seed, epochs)`, generated before anything is timed. The
//! program under test only ever sees the generated requests.
//!
//! Sizes are set against the server's defaults (4,096 cache lines,
//! 131,072 table buckets, 64-chunk hash batches, 4 MiB containers); the
//! README's workload table says why each was chosen.

use bytes::Bytes;
use fidr::compress::ContentGenerator;
use fidr::hash::splitmix64;
use std::collections::{BTreeMap, HashMap};

/// Client chunk size: one 4 KiB block per op.
pub const CHUNK: usize = 4096;

/// Measured epochs per round in a full run.
pub const EPOCHS: usize = 32;

/// Deleted LBAs probed after a `churn_gc` run; each must be refused.
pub const DELETED_PROBES: usize = 64;

/// Measured epochs per round with `--smoke`.
pub const SMOKE_EPOCHS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Unique writes: every write-path layer does full work; the
    /// fingerprint working set is far larger than the table cache.
    IngestUnique,
    /// 97 % duplicate writes over a hot set that fits the table cache.
    IngestDedupHot,
    /// Uniform-random verified reads of a preloaded store.
    ReadBack,
    /// Write / overwrite / delete / read churn with server-driven GC.
    ChurnGc,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::IngestUnique,
        Workload::IngestDedupHot,
        Workload::ReadBack,
        Workload::ChurnGc,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestUnique => "ingest_unique",
            Workload::IngestDedupHot => "ingest_dedup_hot",
            Workload::ReadBack => "read_back",
            Workload::ChurnGc => "churn_gc",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per measured epoch: sized so an epoch holds ≥ 2,048 latency
    /// samples (≥ 20 beyond its p99) and a 32-epoch round measures ≥ 4 s
    /// on the 2-vCPU sandbox.
    pub fn epoch_ops(self) -> usize {
        match self {
            Workload::IngestUnique => 2048,
            Workload::IngestDedupHot | Workload::ReadBack => 4096,
            Workload::ChurnGc => 3072,
        }
    }

    /// The op type `op_p50_us` and `op_p99_us` are taken over: writes,
    /// or reads on the one workload whose measured phase has no writes.
    pub fn primary_kind(self) -> Kind {
        match self {
            Workload::ReadBack => Kind::Read,
            _ => Kind::Write,
        }
    }

    /// `--gc-every` the server runs with (0 = server-driven GC off).
    pub fn gc_every(self) -> u64 {
        match self {
            Workload::ChurnGc => 256,
            _ => 0,
        }
    }

    /// Whether the server has no timer-driven work on this workload, so
    /// its counters — and the ledger ratios built from them — must repeat
    /// exactly from round to round. `churn_gc` is the exception: the
    /// server's idle GC runs off its 2 ms accept poll.
    pub fn counts_repeat_exactly(self) -> bool {
        self != Workload::ChurnGc
    }
}

/// What one op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Write `content` at `lba`.
    Write,
    /// Read `lba` and expect `content`.
    Read,
    /// Delete `lba`.
    Delete,
}

impl Kind {
    /// Span / metric name of the op type.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Write => "write",
            Kind::Read => "read",
            Kind::Delete => "delete",
        }
    }
}

/// One client operation. `content` is a content id: the payload written,
/// or the payload a read must return (unused for deletes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Op type.
    pub kind: Kind,
    /// Target block address.
    pub lba: u64,
    /// Content id (see [`Plan::payload`]).
    pub content: u64,
}

/// A workload's full op sequence for one round, plus what the store must
/// hold afterwards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// Ops that bring the store to its measured state (timed as
    /// `setup_s`).
    pub setup: Vec<Op>,
    /// The measured phase: `epochs × epoch_ops` ops.
    pub measured: Vec<Op>,
    /// Ops per measured epoch.
    pub epoch_ops: usize,
    /// Expected content id of every LBA mapped after the measured phase.
    pub mapped: BTreeMap<u64, u64>,
    /// LBAs deleted and not rewritten by the end of the measured phase;
    /// a read of any of them must be refused.
    pub deleted: Vec<u64>,
}

/// Deterministic generator: splitmix64 over a counter.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (the modulo bias at these sizes is < 2⁻⁴⁰).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Each class repeated by its count, in seeded random order: a mix whose
/// proportions are exact, so that how many ops of a kind an epoch holds
/// (and with it how many batch stalls and GC passes) is the same for
/// every seed and only their positions differ.
fn exact_mix<T: Copy>(classes: &[(T, usize)], rng: &mut Rng) -> Vec<T> {
    let mut mix: Vec<T> = classes
        .iter()
        .flat_map(|&(class, count)| std::iter::repeat_n(class, count))
        .collect();
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.below(i as u64 + 1) as usize);
    }
    mix
}

/// Content ids of one run: `base + index`, so ids never collide within a
/// run and every seed gets different bytes.
struct Contents {
    base: u64,
    fresh: u64,
}

/// Index of the first never-repeated content; hot sets sit below it.
const FRESH_BASE: u64 = 1 << 32;

impl Contents {
    fn new(seed: u64) -> Self {
        Contents {
            base: splitmix64(seed ^ 0xF1D2_BE7C),
            fresh: FRESH_BASE,
        }
    }

    /// The `i`-th content of the reusable (hot) set.
    fn hot(&self, i: u64) -> u64 {
        self.base.wrapping_add(i)
    }

    /// A content id never handed out before.
    fn fresh(&mut self) -> u64 {
        self.fresh += 1;
        self.base.wrapping_add(self.fresh)
    }
}

/// A set of LBAs with O(1) insert, remove and uniform pick.
#[derive(Default)]
struct LbaSet {
    items: Vec<u64>,
    slot: HashMap<u64, usize>,
}

impl LbaSet {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn insert(&mut self, lba: u64) {
        if !self.slot.contains_key(&lba) {
            self.slot.insert(lba, self.items.len());
            self.items.push(lba);
        }
    }

    fn remove(&mut self, lba: u64) {
        if let Some(i) = self.slot.remove(&lba) {
            self.items.swap_remove(i);
            if let Some(&moved) = self.items.get(i) {
                self.slot.insert(moved, i);
            }
        }
    }

    fn pick(&self, rng: &mut Rng) -> Option<u64> {
        if self.items.is_empty() {
            None
        } else {
            Some(self.items[rng.below(self.items.len() as u64) as usize])
        }
    }
}

impl Plan {
    /// Builds the op sequence of `workload` for `seed` with `epochs`
    /// measured epochs.
    pub fn generate(workload: Workload, seed: u64, epochs: usize) -> Plan {
        let mut rng = Rng(splitmix64(seed));
        let mut contents = Contents::new(seed);
        let epoch_ops = workload.epoch_ops();
        let n = epochs * epoch_ops;
        let mut setup = Vec::new();
        let mut measured = Vec::with_capacity(n);
        let write = |lba: u64, content: u64| Op {
            kind: Kind::Write,
            lba,
            content,
        };
        match workload {
            Workload::IngestUnique => {
                // 16,384 chunks overflow the 4,096-line table cache and
                // seal the first containers before anything is timed.
                for lba in 0..16_384 {
                    setup.push(write(lba, contents.fresh()));
                }
                for j in 0..n as u64 {
                    measured.push(write(16_384 + j, contents.fresh()));
                }
            }
            Workload::IngestDedupHot => {
                // The hot set's 2,048 fingerprints touch at most 2,048
                // buckets: it fits the 4,096-line cache.
                const HOT: u64 = 2048;
                for lba in 0..HOT {
                    setup.push(write(lba, contents.hot(lba)));
                }
                for lba in HOT..16_384 {
                    setup.push(write(lba, contents.hot(rng.below(HOT))));
                }
                // Exactly 3 % of every epoch is new content, at seeded
                // positions.
                let new = (epoch_ops * 3).div_ceil(100);
                for _ in 0..epochs {
                    for is_new in exact_mix(&[(true, new), (false, epoch_ops - new)], &mut rng) {
                        let content = if is_new {
                            contents.fresh()
                        } else {
                            contents.hot(rng.below(HOT))
                        };
                        measured.push(write(16_384 + measured.len() as u64, content));
                    }
                }
            }
            Workload::ReadBack => {
                // 32,768 blocks over 16,384 contents: every content is
                // stored once and referenced twice.
                const BLOCKS: u64 = 32_768;
                for lba in 0..BLOCKS {
                    setup.push(write(lba, contents.hot(lba % (BLOCKS / 2))));
                }
                for _ in 0..n {
                    let lba = rng.below(BLOCKS);
                    measured.push(Op {
                        kind: Kind::Read,
                        lba,
                        content: contents.hot(lba % (BLOCKS / 2)),
                    });
                }
            }
            Workload::ChurnGc => {
                return Self::churn(epochs, rng, contents);
            }
        }
        let mapped = replay_map(&setup, &measured).0;
        Plan {
            workload,
            setup,
            measured,
            epoch_ops,
            mapped,
            deleted: Vec::new(),
        }
    }

    /// `churn_gc`: over a 16,384-block space, 50 % writes (half
    /// duplicates of a 1,024-content hot set, half new content), 25 %
    /// deletes and 25 % reads — exactly, in every epoch. Deletes and reads
    /// only ever address a mapped LBA; half the writes land on an
    /// unmapped LBA when one exists, so deletes and new mappings balance
    /// and the store stays level — less [`DELETED_PROBES`] holes that are
    /// never refilled, so that the end state has deleted LBAs to probe.
    fn churn(epochs: usize, mut rng: Rng, mut contents: Contents) -> Plan {
        const SPACE: usize = 16_384;
        const HOT: u64 = 1024;
        #[derive(Clone, Copy)]
        enum Churn {
            WriteHot,
            WriteNew,
            Delete,
            Read,
        }
        let workload = Workload::ChurnGc;
        let epoch_ops = workload.epoch_ops();
        let mut content_of = |class: Churn, rng: &mut Rng| match class {
            Churn::WriteHot => contents.hot(rng.below(HOT)),
            _ => contents.fresh(),
        };
        let mut now: HashMap<u64, u64> = HashMap::new();
        let (mut mapped, mut unmapped) = (LbaSet::default(), LbaSet::default());
        let mut setup = Vec::with_capacity(SPACE);
        let preload = [(Churn::WriteHot, SPACE / 2), (Churn::WriteNew, SPACE / 2)];
        for (lba, class) in exact_mix(&preload, &mut rng).into_iter().enumerate() {
            let (lba, content) = (lba as u64, content_of(class, &mut rng));
            setup.push(Op {
                kind: Kind::Write,
                lba,
                content,
            });
            now.insert(lba, content);
            mapped.insert(lba);
        }
        let quarter = epoch_ops / 4;
        let mix = [
            (Churn::WriteHot, quarter),
            (Churn::WriteNew, quarter),
            (Churn::Delete, quarter),
            (Churn::Read, epoch_ops - 3 * quarter),
        ];
        let mut measured = Vec::with_capacity(epochs * epoch_ops);
        for _ in 0..epochs {
            for class in exact_mix(&mix, &mut rng) {
                // The space never empties: deletes are a quarter of the
                // ops and hole-filling writes another quarter.
                let live = mapped.pick(&mut rng).expect("churn space never empties");
                let op = match class {
                    Churn::WriteHot | Churn::WriteNew => {
                        let fill_hole = rng.below(2) == 0 && unmapped.len() > DELETED_PROBES;
                        let lba = match (fill_hole, unmapped.pick(&mut rng)) {
                            (true, Some(hole)) => hole,
                            _ => live,
                        };
                        let content = content_of(class, &mut rng);
                        unmapped.remove(lba);
                        mapped.insert(lba);
                        now.insert(lba, content);
                        Op {
                            kind: Kind::Write,
                            lba,
                            content,
                        }
                    }
                    Churn::Delete => {
                        mapped.remove(live);
                        unmapped.insert(live);
                        now.remove(&live);
                        Op {
                            kind: Kind::Delete,
                            lba: live,
                            content: 0,
                        }
                    }
                    Churn::Read => Op {
                        kind: Kind::Read,
                        lba: live,
                        content: now[&live],
                    },
                };
                measured.push(op);
            }
        }
        let (mapped, deleted) = replay_map(&setup, &measured);
        Plan {
            workload,
            setup,
            measured,
            epoch_ops,
            mapped,
            deleted,
        }
    }

    /// Measured epochs in this plan.
    pub fn epochs(&self) -> usize {
        self.measured.len() / self.epoch_ops
    }

    /// The 4 KiB payload of a content id: 50 %-compressible bytes from
    /// the repo's own generator.
    pub fn payload(content: u64) -> Bytes {
        Bytes::from(ContentGenerator::new(0.5).chunk(content, CHUNK))
    }
}

/// Replays `setup` then `measured` over an empty map: the LBA → content
/// state the store must end in, and the LBAs left deleted.
fn replay_map(setup: &[Op], measured: &[Op]) -> (BTreeMap<u64, u64>, Vec<u64>) {
    let mut mapped = BTreeMap::new();
    let mut deleted = std::collections::BTreeSet::new();
    for op in setup.iter().chain(measured) {
        match op.kind {
            Kind::Write => {
                mapped.insert(op.lba, op.content);
                deleted.remove(&op.lba);
            }
            Kind::Delete => {
                mapped.remove(&op.lba);
                deleted.insert(op.lba);
            }
            Kind::Read => {}
        }
    }
    (mapped, deleted.into_iter().collect())
}

/// The requests of a plan with their payloads materialised, built once
/// per run outside every timed window and replayed identically in each
/// round. Duplicate contents share one buffer.
pub struct Requests {
    /// Setup requests, in order.
    pub setup: Vec<Request>,
    /// Measured requests, in order.
    pub measured: Vec<Request>,
    by_content: HashMap<u64, Bytes>,
}

/// One op with its bytes: the payload to write, or the bytes a read must
/// return (empty for deletes).
pub struct Request {
    /// Op type.
    pub kind: Kind,
    /// Target block address.
    pub lba: u64,
    /// Payload or expected content.
    pub data: Bytes,
}

impl Requests {
    /// Materialises every payload of `plan`.
    pub fn build(plan: &Plan) -> Requests {
        let mut by_content: HashMap<u64, Bytes> = HashMap::new();
        let mut build = |ops: &[Op]| -> Vec<Request> {
            ops.iter()
                .map(|op| Request {
                    kind: op.kind,
                    lba: op.lba,
                    data: match op.kind {
                        Kind::Delete => Bytes::new(),
                        _ => by_content
                            .entry(op.content)
                            .or_insert_with(|| Plan::payload(op.content))
                            .clone(),
                    },
                })
                .collect()
        };
        let setup = build(&plan.setup);
        let measured = build(&plan.measured);
        Requests {
            setup,
            measured,
            by_content,
        }
    }

    /// The bytes of a content id the plan uses.
    pub fn content(&self, content: u64) -> Bytes {
        self.by_content[&content].clone()
    }

    /// Up to `n` distinct payloads of this workload, in first-use order:
    /// what the layer kernels are fed.
    pub fn sample_payloads(&self, n: usize) -> Vec<Bytes> {
        let mut seen = std::collections::HashSet::new();
        self.setup
            .iter()
            .chain(&self.measured)
            .filter(|r| !r.data.is_empty() && seen.insert(r.data.as_ptr()))
            .map(|r| r.data.clone())
            .take(n)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_sequence() {
        for w in Workload::ALL {
            assert_eq!(
                Plan::generate(w, 7, 2),
                Plan::generate(w, 7, 2),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn another_seed_gives_other_contents() {
        for w in Workload::ALL {
            let a = Plan::generate(w, 1, 2);
            let b = Plan::generate(w, 2, 2);
            let ids = |p: &Plan| -> std::collections::HashSet<u64> {
                p.setup.iter().map(|op| op.content).collect()
            };
            assert!(
                ids(&a).is_disjoint(&ids(&b)),
                "{}: seeds share content ids",
                w.name()
            );
            assert_ne!(
                Plan::payload(a.setup[0].content),
                Plan::payload(b.setup[0].content)
            );
        }
    }

    #[test]
    fn sizes_match_the_issue() {
        let shape = |w| {
            let p = Plan::generate(w, 1, EPOCHS);
            (p.setup.len(), p.measured.len(), p.epochs())
        };
        assert_eq!(shape(Workload::IngestUnique), (16_384, 65_536, 32));
        assert_eq!(shape(Workload::IngestDedupHot), (16_384, 131_072, 32));
        assert_eq!(shape(Workload::ReadBack), (32_768, 131_072, 32));
        assert_eq!(shape(Workload::ChurnGc), (16_384, 98_304, 32));
        for w in Workload::ALL {
            assert!(w.epoch_ops() >= 2048, "≥ 20 samples beyond each epoch p99");
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn ingest_unique_never_repeats_a_content_or_an_lba() {
        let p = Plan::generate(Workload::IngestUnique, 3, 4);
        let ops: Vec<&Op> = p.setup.iter().chain(&p.measured).collect();
        let contents: std::collections::HashSet<u64> = ops.iter().map(|o| o.content).collect();
        let lbas: std::collections::HashSet<u64> = ops.iter().map(|o| o.lba).collect();
        assert_eq!(contents.len(), ops.len());
        assert_eq!(lbas.len(), ops.len());
        assert_eq!(p.mapped.len(), ops.len());
    }

    #[test]
    fn dedup_hot_is_about_97_percent_duplicates() {
        let p = Plan::generate(Workload::IngestDedupHot, 5, EPOCHS);
        let hot: std::collections::HashSet<u64> =
            p.setup[..2048].iter().map(|o| o.content).collect();
        assert_eq!(hot.len(), 2048);
        let dups = p
            .measured
            .iter()
            .filter(|o| hot.contains(&o.content))
            .count();
        let share = dups as f64 / p.measured.len() as f64;
        assert_eq!(share, 1.0 - 123.0 / 4096.0, "exactly 123 new per epoch");
        for epoch in p.measured.chunks(p.epoch_ops) {
            let new = epoch.iter().filter(|o| !hot.contains(&o.content)).count();
            assert_eq!(new, 123);
        }
    }

    #[test]
    fn churn_never_addresses_an_unmapped_lba() {
        for seed in [1, 2, 99] {
            let p = Plan::generate(Workload::ChurnGc, seed, EPOCHS);
            let mut now: HashMap<u64, u64> = HashMap::new();
            let (mut writes, mut deletes, mut reads) = (0usize, 0usize, 0usize);
            for op in p.setup.iter().chain(&p.measured) {
                match op.kind {
                    Kind::Write => {
                        now.insert(op.lba, op.content);
                        writes += 1;
                    }
                    Kind::Delete => {
                        assert!(
                            now.remove(&op.lba).is_some(),
                            "delete of unmapped {}",
                            op.lba
                        );
                        deletes += 1;
                    }
                    Kind::Read => {
                        assert_eq!(
                            now.get(&op.lba),
                            Some(&op.content),
                            "read of {} expects stale or unmapped content",
                            op.lba
                        );
                        reads += 1;
                    }
                }
            }
            // The end state the harness re-reads is the replayed one.
            assert_eq!(now.len(), p.mapped.len());
            assert!(now.iter().all(|(lba, c)| p.mapped.get(lba) == Some(c)));
            assert!(p.deleted.iter().all(|lba| !now.contains_key(lba)));
            assert!(p.deleted.len() >= DELETED_PROBES, "deleted LBAs to probe");
            // Mix: 50 / 25 / 25 over the measured phase, store stays level.
            let m = p.measured.len();
            assert_eq!(writes - p.setup.len(), m / 2);
            assert_eq!((deletes, reads), (m / 4, m / 4));
            for epoch in p.measured.chunks(p.epoch_ops) {
                let writes = epoch.iter().filter(|o| o.kind == Kind::Write).count();
                assert_eq!(writes, p.epoch_ops / 2, "every epoch holds the same mix");
            }
            assert!(now.len() > 14_000, "store drained to {}", now.len());
        }
    }

    #[test]
    fn requests_share_buffers_between_duplicates() {
        let p = Plan::generate(Workload::ReadBack, 1, 1);
        let r = Requests::build(&p);
        assert_eq!(r.setup.len(), p.setup.len());
        assert_eq!(r.setup[0].data.as_ptr(), r.setup[16_384].data.as_ptr());
        assert_eq!(r.setup[0].data, Plan::payload(p.setup[0].content));
        assert_eq!(r.sample_payloads(8).len(), 8);
        assert_eq!(
            r.content(p.setup[5].content),
            Plan::payload(p.setup[5].content)
        );
    }
}
