//! Request stream generation from a [`WorkloadSpec`].
//!
//! Chunk payloads are synthesised lazily per request (so multi-GB
//! workloads never materialise) and deterministically per content id, so a
//! duplicate write reproduces byte-identical content — the property the
//! whole deduplication pipeline keys on.

use crate::spec::WorkloadSpec;
use bytes::Bytes;
use fidr_chunk::{Lba, CHUNK_SIZE};
use fidr_compress::ContentGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// A 4-KB write of `data` at `lba`.
    Write {
        /// Target logical block.
        lba: Lba,
        /// Chunk payload ([`CHUNK_SIZE`] bytes).
        data: Bytes,
    },
    /// A 4-KB read at `lba`.
    Read {
        /// Logical block to read.
        lba: Lba,
    },
}

/// Streaming workload generator.
///
/// # Examples
///
/// ```
/// use fidr_workload::{Workload, WorkloadSpec, Request};
///
/// let mut wl = Workload::new(WorkloadSpec::write_h(100));
/// let reqs: Vec<Request> = wl.by_ref().collect();
/// assert_eq!(reqs.len(), 100);
/// assert!(reqs.iter().all(|r| matches!(r, Request::Write { .. })));
/// ```
#[derive(Debug)]
pub struct Workload {
    spec: WorkloadSpec,
    rng: StdRng,
    gen: ContentGenerator,
    /// Content ids issued so far; index order is issue order.
    contents: Vec<u64>,
    next_content: u64,
    /// LBAs that have been written (valid read targets).
    written: Vec<Lba>,
    emitted: usize,
}

impl Workload {
    /// Creates a generator for `spec`.
    pub fn new(spec: WorkloadSpec) -> Self {
        let rng = StdRng::seed_from_u64(spec.seed);
        let gen = ContentGenerator::new(spec.comp_ratio);
        // Seed the content space so the very first duplicates have targets.
        Workload {
            rng,
            gen,
            contents: Vec::new(),
            next_content: spec.content_base + 1,
            written: Vec::new(),
            emitted: 0,
            spec,
        }
    }

    /// The spec driving this stream.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Distinct chunk contents issued so far.
    pub fn unique_contents(&self) -> usize {
        self.contents.len()
    }

    fn pick_content(&mut self) -> u64 {
        let duplicate = !self.contents.is_empty() && self.rng.gen_bool(self.spec.dedup_ratio);
        if duplicate {
            let near = self.rng.gen_bool(self.spec.dup_near_fraction);
            let idx = if near {
                let lo = self.contents.len().saturating_sub(self.spec.dup_window);
                self.rng.gen_range(lo..self.contents.len())
            } else {
                // "Uniformly old" (the spec's words): exclude the recent
                // window entirely, so far duplicates carry a genuinely
                // large reuse distance. While the content pool is still
                // younger than the window, fall back to the whole
                // history.
                let hi = self.contents.len().saturating_sub(self.spec.dup_window);
                if hi == 0 {
                    self.rng.gen_range(0..self.contents.len())
                } else {
                    self.rng.gen_range(0..hi)
                }
            };
            self.contents[idx]
        } else {
            let id = self.next_content;
            self.next_content += 1;
            self.contents.push(id);
            id
        }
    }

    fn next_write(&mut self) -> Request {
        let content = self.pick_content();
        let lba = Lba(self.rng.gen_range(0..self.spec.lba_space));
        self.written.push(lba);
        let data = Bytes::from(self.gen.chunk(content, CHUNK_SIZE));
        Request::Write { lba, data }
    }

    fn next_read(&mut self) -> Request {
        // "Reads are random valid addresses" (Table 3).
        let lba = if self.written.is_empty() {
            Lba(0)
        } else {
            self.written[self.rng.gen_range(0..self.written.len())]
        };
        Request::Read { lba }
    }
}

impl Iterator for Workload {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.emitted >= self.spec.ops {
            return None;
        }
        self.emitted += 1;
        // Never lead with a read: reads need a valid address.
        let read = !self.written.is_empty() && self.rng.gen_bool(self.spec.read_fraction);
        Some(if read {
            self.next_read()
        } else {
            self.next_write()
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.spec.ops - self.emitted;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidr_hash::Fingerprint;
    use std::collections::HashSet;

    fn measured_dedup(spec: WorkloadSpec) -> f64 {
        let wl = Workload::new(spec);
        let mut seen: HashSet<Fingerprint> = HashSet::new();
        let mut dups = 0usize;
        let mut writes = 0usize;
        for req in wl {
            if let Request::Write { data, .. } = req {
                writes += 1;
                if !seen.insert(Fingerprint::of(&data)) {
                    dups += 1;
                }
            }
        }
        dups as f64 / writes as f64
    }

    #[test]
    fn write_h_hits_target_dedup_ratio() {
        let d = measured_dedup(WorkloadSpec::write_h(4000));
        assert!((d - 0.88).abs() < 0.03, "measured dedup {d}");
    }

    #[test]
    fn write_l_hits_target_dedup_ratio() {
        let d = measured_dedup(WorkloadSpec::write_l(4000));
        assert!((d - 0.431).abs() < 0.03, "measured dedup {d}");
    }

    #[test]
    fn duplicate_content_is_byte_identical() {
        let wl = Workload::new(WorkloadSpec::write_h(2000));
        let mut by_fp: std::collections::HashMap<Fingerprint, Vec<u8>> =
            std::collections::HashMap::new();
        let mut dup_seen = false;
        for req in wl {
            if let Request::Write { data, .. } = req {
                let fp = Fingerprint::of(&data);
                if let Some(prev) = by_fp.get(&fp) {
                    assert_eq!(prev, &data.to_vec());
                    dup_seen = true;
                } else {
                    by_fp.insert(fp, data.to_vec());
                }
            }
        }
        assert!(dup_seen, "workload produced no duplicates");
    }

    #[test]
    fn read_mixed_is_half_reads() {
        let wl = Workload::new(WorkloadSpec::read_mixed(4000));
        let reads = wl.filter(|r| matches!(r, Request::Read { .. })).count();
        let frac = reads as f64 / 4000.0;
        assert!((frac - 0.5).abs() < 0.05, "read fraction {frac}");
    }

    #[test]
    fn reads_target_written_lbas() {
        let mut written = HashSet::new();
        for req in Workload::new(WorkloadSpec::read_mixed(2000)) {
            match req {
                Request::Write { lba, .. } => {
                    written.insert(lba);
                }
                Request::Read { lba } => {
                    assert!(written.contains(&lba), "read of unwritten {lba}");
                }
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<Request> = Workload::new(WorkloadSpec::write_m(300)).collect();
        let b: Vec<Request> = Workload::new(WorkloadSpec::write_m(300)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn payload_compressibility_near_target() {
        let wl = Workload::new(WorkloadSpec::write_h(60));
        let mut total_ratio = 0.0;
        let mut n = 0;
        for req in wl {
            if let Request::Write { data, .. } = req {
                total_ratio += fidr_compress::compress(&data).len() as f64 / data.len() as f64;
                n += 1;
            }
        }
        let avg = total_ratio / n as f64;
        assert!((avg - 0.5).abs() < 0.1, "avg compressibility {avg}");
    }
}
