//! Workload specifications reproducing the paper's Table 3.
//!
//! The paper generates its workloads synthetically from trace skeletons
//! with five controlled factors (§7.1): target table-cache hit rate,
//! replication to size, systematic content mutation to pin the dedup
//! ratio, 50 % compressibility, and a table sized for 500 GB unique
//! storage with 2.8 % cached. [`WorkloadSpec`] carries those knobs;
//! [`crate::Workload`] streams the requests.

/// Tunable description of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Display name ("Write-H", …).
    pub name: String,
    /// Total requests to generate.
    pub ops: usize,
    /// Fraction of requests that are reads (0.0 for write-only, 0.5 for
    /// Read-Mixed).
    pub read_fraction: f64,
    /// Fraction of writes whose content duplicates an earlier chunk — the
    /// Table 3 "Dedup. ratio".
    pub dedup_ratio: f64,
    /// Among duplicate writes, the fraction that reference *recent* content
    /// (within `dup_window`); the rest reference uniformly old content
    /// (strictly *outside* the window once enough distinct contents
    /// exist). This is the knob that sets the table-cache hit rate.
    pub dup_near_fraction: f64,
    /// Recency window, in distinct chunk contents, that "near" duplicates
    /// draw from.
    pub dup_window: usize,
    /// Target compressed/original ratio of chunk payloads — the Table 3
    /// "Comp. ratio" (0.5 throughout the paper).
    pub comp_ratio: f64,
    /// Client LBA space in 4-KB blocks.
    pub lba_space: u64,
    /// RNG seed; equal seeds replay identical workloads.
    pub seed: u64,
    /// Offset added to fresh content ids. Ids start at `content_base + 1`,
    /// so streams given disjoint bases never produce cross-stream
    /// duplicate payloads — required by the multi-stream generator
    /// ([`crate::MultiStreamWorkload`]), where dedup must happen *within*
    /// a stream or not at all.
    pub content_base: u64,
}

impl WorkloadSpec {
    /// Write-H: high dedup (88 %), high cache hit rate (90 %).
    pub fn write_h(ops: usize) -> Self {
        WorkloadSpec {
            name: "Write-H".to_string(),
            ops,
            read_fraction: 0.0,
            dedup_ratio: 0.88,
            dup_near_fraction: 1.0,
            dup_window: 4_000,
            comp_ratio: 0.5,
            lba_space: 1 << 22,
            seed: 0x5eed_0001,
            content_base: 0,
        }
    }

    /// Write-M: high dedup (84 %), medium hit rate (81 %).
    pub fn write_m(ops: usize) -> Self {
        WorkloadSpec {
            name: "Write-M".to_string(),
            ops,
            read_fraction: 0.0,
            dedup_ratio: 0.84,
            dup_near_fraction: 0.95,
            dup_window: 8_000,
            comp_ratio: 0.5,
            lba_space: 1 << 22,
            seed: 0x5eed_0002,
            content_base: 0,
        }
    }

    /// Write-L: medium dedup (43.1 %), low hit rate (45 %).
    pub fn write_l(ops: usize) -> Self {
        WorkloadSpec {
            name: "Write-L".to_string(),
            ops,
            read_fraction: 0.0,
            dedup_ratio: 0.431,
            dup_near_fraction: 1.0,
            dup_window: 6_000,
            comp_ratio: 0.5,
            lba_space: 1 << 22,
            seed: 0x5eed_0003,
            content_base: 0,
        }
    }

    /// Read-Mixed: half reads (random valid addresses), half Write-H-like
    /// writes.
    pub fn read_mixed(ops: usize) -> Self {
        WorkloadSpec {
            read_fraction: 0.5,
            name: "Read-Mixed".to_string(),
            ..WorkloadSpec::write_h(ops)
        }
    }

    /// A virtual-desktop-infrastructure mix: the paper's introduction
    /// cites "over 80 %" data reduction for VDI (many near-identical OS
    /// images → very high dedup).
    pub fn vdi(ops: usize) -> Self {
        WorkloadSpec {
            name: "VDI".to_string(),
            dedup_ratio: 0.90,
            dup_near_fraction: 1.0,
            dup_window: 2_000,
            comp_ratio: 0.55,
            seed: 0x5eed_0004,
            ..WorkloadSpec::write_h(ops)
        }
    }

    /// A database mix: the introduction cites "over 50 %" reduction for
    /// database datasets (modest dedup, good compressibility).
    pub fn database(ops: usize) -> Self {
        WorkloadSpec {
            name: "Database".to_string(),
            dedup_ratio: 0.30,
            dup_near_fraction: 1.0,
            dup_window: 4_000,
            comp_ratio: 0.60,
            seed: 0x5eed_0005,
            ..WorkloadSpec::write_h(ops)
        }
    }

    /// An overwrite-churn mix: a small LBA working set is rewritten with
    /// fresh content, continuously orphaning chunks — the steady state
    /// that exercises garbage collection (an extension; the paper's runs
    /// never reach overwrite churn).
    pub fn overwrite_churn(ops: usize) -> Self {
        WorkloadSpec {
            name: "Overwrite-churn".to_string(),
            dedup_ratio: 0.2,
            dup_near_fraction: 1.0,
            dup_window: 1_000,
            lba_space: (ops as u64 / 4).max(256),
            seed: 0x5eed_0006,
            ..WorkloadSpec::write_h(ops)
        }
    }

    /// All four Table 3 workloads at a common op count.
    pub fn table3(ops: usize) -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::write_h(ops),
            WorkloadSpec::write_m(ops),
            WorkloadSpec::write_l(ops),
            WorkloadSpec::read_mixed(ops),
        ]
    }

    /// First-order prediction of the Hash-PBN cache hit rate this spec
    /// produces on a cache covering `cache_fraction` of the table:
    /// near-duplicates hit; everything else hits only by residency luck.
    pub fn predicted_hit_rate(&self, cache_fraction: f64) -> f64 {
        let near = self.dedup_ratio * self.dup_near_fraction;
        near + (1.0 - near) * cache_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper_ratios() {
        let specs = WorkloadSpec::table3(1000);
        assert_eq!(specs.len(), 4);
        assert!((specs[0].dedup_ratio - 0.88).abs() < 1e-12);
        assert!((specs[1].dedup_ratio - 0.84).abs() < 1e-12);
        assert!((specs[2].dedup_ratio - 0.431).abs() < 1e-12);
        assert!((specs[3].read_fraction - 0.5).abs() < 1e-12);
        assert!(specs.iter().all(|s| (s.comp_ratio - 0.5).abs() < 1e-12));
    }

    #[test]
    fn extension_presets_have_sane_shapes() {
        let vdi = WorkloadSpec::vdi(100);
        assert!(vdi.dedup_ratio > 0.85 && vdi.comp_ratio < 0.6);
        let db = WorkloadSpec::database(100);
        assert!(db.dedup_ratio < 0.5 && db.comp_ratio > 0.5);
        let churn = WorkloadSpec::overwrite_churn(10_000);
        assert!(churn.lba_space <= 2_500, "churn needs a tight LBA space");
        // Distinct seeds: presets must not replay each other's streams.
        let seeds: std::collections::HashSet<u64> =
            [vdi.seed, db.seed, churn.seed, WorkloadSpec::write_h(1).seed]
                .into_iter()
                .collect();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn predicted_hit_rates_track_table3() {
        // At the paper's 2.8 % cache fraction.
        let h = WorkloadSpec::write_h(0).predicted_hit_rate(0.028);
        let m = WorkloadSpec::write_m(0).predicted_hit_rate(0.028);
        let l = WorkloadSpec::write_l(0).predicted_hit_rate(0.028);
        assert!((h - 0.90).abs() < 0.02, "Write-H predicted {h}");
        assert!((m - 0.81).abs() < 0.02, "Write-M predicted {m}");
        assert!((l - 0.45).abs() < 0.02, "Write-L predicted {l}");
    }
}
