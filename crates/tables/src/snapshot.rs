//! Checkpointing: a versioned binary snapshot of all durable state.
//!
//! A real FIDR deployment persists its metadata (the Hash-PBN table is on
//! table SSDs, the LBA-PBA map is journaled) and recovers it after a
//! restart. This reproduction keeps state in memory, so [`Snapshot`]
//! provides the equivalent: each system's `checkpoint` method captures
//! everything durable, [`Snapshot::encode`] serializes it to a compact
//! self-describing binary image, and `restore` rebuilds a server that
//! answers every read identically.
//!
//! Format: `FIDRSNAP` magic, a `u32` version, then length-prefixed
//! sections in fixed order. All integers little-endian.

use crate::{Bucket, Container, PbnLocation};
use fidr_chunk::{Lba, Pbn};
use fidr_hash::Fingerprint;
use std::fmt;

const MAGIC: &[u8; 8] = b"FIDRSNAP";
const VERSION: u32 = 1;

/// Error decoding a snapshot image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Image ended before a field.
    Truncated,
    /// A structurally invalid value.
    Corrupt(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a FIDR snapshot (bad magic)"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "snapshot image truncated"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot field: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Everything durable in one system, ready to encode.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Hash-PBN table geometry: total buckets on the table SSDs.
    pub num_buckets: u64,
    /// Non-empty buckets as (index, contents).
    pub table_buckets: Vec<(u64, Bucket)>,
    /// LBA → PBN mappings.
    pub lbas: Vec<(Lba, Pbn)>,
    /// PBN → physical location records.
    pub pbns: Vec<(Pbn, PbnLocation)>,
    /// Sealed containers on the data SSDs.
    pub containers: Vec<Container>,
    /// PBN allocation cursor.
    pub next_pbn: u64,
    /// Container allocation cursor.
    pub next_container: u64,
    /// Fingerprint of each live unique chunk (GC needs it).
    pub pbn_fp: Vec<(Pbn, Fingerprint)>,
    /// Container liveness census as (container, live, total).
    pub liveness: Vec<(u64, u32, u32)>,
    /// Dead PBNs awaiting collection.
    pub dead: Vec<Pbn>,
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.u64()? as usize;
        Ok(self.take(n)?.to_vec())
    }
    fn fingerprint(&mut self) -> Result<Fingerprint, SnapshotError> {
        let raw: [u8; 32] = self
            .take(32)?
            .try_into()
            .map_err(|_| SnapshotError::Corrupt("fingerprint"))?;
        Ok(Fingerprint::from_bytes(raw))
    }
}

impl Snapshot {
    /// Serializes to the binary image.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer {
            buf: Vec::with_capacity(1 << 16),
        };
        w.buf.extend_from_slice(MAGIC);
        w.u32(VERSION);

        w.u64(self.num_buckets);
        w.u64(self.table_buckets.len() as u64);
        for (idx, bucket) in &self.table_buckets {
            w.u64(*idx);
            w.u16(bucket.len() as u16);
            for (fp, pbn) in bucket.iter() {
                w.buf.extend_from_slice(fp.as_bytes());
                w.u64(pbn.0);
            }
        }

        w.u64(self.lbas.len() as u64);
        for (lba, pbn) in &self.lbas {
            w.u64(lba.0);
            w.u64(pbn.0);
        }

        w.u64(self.pbns.len() as u64);
        for (pbn, loc) in &self.pbns {
            w.u64(pbn.0);
            w.u64(loc.container);
            w.u32(loc.offset);
            w.u32(loc.compressed_len);
        }

        w.u64(self.containers.len() as u64);
        for c in &self.containers {
            w.u64(c.id);
            w.bytes(&c.bytes);
        }

        w.u64(self.next_pbn);
        w.u64(self.next_container);

        w.u64(self.pbn_fp.len() as u64);
        for (pbn, fp) in &self.pbn_fp {
            w.u64(pbn.0);
            w.buf.extend_from_slice(fp.as_bytes());
        }

        w.u64(self.liveness.len() as u64);
        for (c, live, total) in &self.liveness {
            w.u64(*c);
            w.u32(*live);
            w.u32(*total);
        }

        w.u64(self.dead.len() as u64);
        for pbn in &self.dead {
            w.u64(pbn.0);
        }
        w.buf
    }

    /// Parses a binary image.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on bad magic, an unsupported version, truncation
    /// or structural corruption.
    pub fn decode(image: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader { buf: image, pos: 0 };
        if r.take(8)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }

        let num_buckets = r.u64()?;
        if num_buckets == 0 {
            return Err(SnapshotError::Corrupt("zero buckets"));
        }
        let n = r.u64()? as usize;
        let mut table_buckets = Vec::with_capacity(n);
        for _ in 0..n {
            let idx = r.u64()?;
            if idx >= num_buckets {
                return Err(SnapshotError::Corrupt("bucket index out of range"));
            }
            let count = r.u16()? as usize;
            let mut bucket = Bucket::new();
            for _ in 0..count {
                let fp = r.fingerprint()?;
                let pbn = Pbn(r.u64()?);
                bucket
                    .insert(fp, pbn)
                    .map_err(|_| SnapshotError::Corrupt("overfull bucket"))?;
            }
            table_buckets.push((idx, bucket));
        }

        let n = r.u64()? as usize;
        let mut lbas = Vec::with_capacity(n);
        for _ in 0..n {
            lbas.push((Lba(r.u64()?), Pbn(r.u64()?)));
        }

        let n = r.u64()? as usize;
        let mut pbns = Vec::with_capacity(n);
        for _ in 0..n {
            let pbn = Pbn(r.u64()?);
            let container = r.u64()?;
            let offset = r.u32()?;
            let compressed_len = r.u32()?;
            pbns.push((
                pbn,
                PbnLocation {
                    container,
                    offset,
                    compressed_len,
                },
            ));
        }

        let n = r.u64()? as usize;
        let mut containers = Vec::with_capacity(n);
        for _ in 0..n {
            let id = r.u64()?;
            let bytes = r.bytes()?;
            containers.push(Container { id, bytes });
        }

        let next_pbn = r.u64()?;
        let next_container = r.u64()?;

        let n = r.u64()? as usize;
        let mut pbn_fp = Vec::with_capacity(n);
        for _ in 0..n {
            let pbn = Pbn(r.u64()?);
            pbn_fp.push((pbn, r.fingerprint()?));
        }

        let n = r.u64()? as usize;
        let mut liveness = Vec::with_capacity(n);
        for _ in 0..n {
            liveness.push((r.u64()?, r.u32()?, r.u32()?));
        }

        let n = r.u64()? as usize;
        let mut dead = Vec::with_capacity(n);
        for _ in 0..n {
            dead.push(Pbn(r.u64()?));
        }

        // The store keeps one record per PBN — location and fingerprint
        // together — and every LBA must resolve to one.
        let mut located: Vec<Pbn> = pbns.iter().map(|&(pbn, _)| pbn).collect();
        let mut fingerprinted: Vec<Pbn> = pbn_fp.iter().map(|&(pbn, _)| pbn).collect();
        located.sort_unstable();
        fingerprinted.sort_unstable();
        if located != fingerprinted || located.windows(2).any(|w| w[0] == w[1]) {
            return Err(SnapshotError::Corrupt(
                "PBN locations and fingerprints disagree",
            ));
        }
        if lbas
            .iter()
            .any(|(_, pbn)| located.binary_search(pbn).is_err())
        {
            return Err(SnapshotError::Corrupt("LBA mapped to an unrecorded PBN"));
        }

        Ok(Snapshot {
            num_buckets,
            table_buckets,
            lbas,
            pbns,
            containers,
            next_pbn,
            next_container,
            pbn_fp,
            liveness,
            dead,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut bucket = Bucket::new();
        bucket
            .insert(Fingerprint::of(b"chunk"), Pbn(3))
            .expect("room");
        Snapshot {
            num_buckets: 64,
            table_buckets: vec![(5, bucket)],
            lbas: vec![(Lba(1), Pbn(3)), (Lba(2), Pbn(3))],
            pbns: vec![(
                Pbn(3),
                PbnLocation {
                    container: 0,
                    offset: 16,
                    compressed_len: 2048,
                },
            )],
            containers: vec![Container {
                id: 0,
                bytes: vec![1, 2, 3, 4],
            }],
            next_pbn: 4,
            next_container: 1,
            pbn_fp: vec![(Pbn(3), Fingerprint::of(b"chunk"))],
            liveness: vec![(0, 1, 1)],
            dead: vec![Pbn(9)],
        }
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let image = snap.encode();
        assert_eq!(Snapshot::decode(&image).unwrap(), snap);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            Snapshot::decode(b"NOTASNAP____"),
            Err(SnapshotError::BadMagic)
        );
        let mut image = sample().encode();
        image[9] = 0xFF; // version bytes
        assert!(matches!(
            Snapshot::decode(&image),
            Err(SnapshotError::BadVersion(_))
        ));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let image = sample().encode();
        for cut in [8, 12, 20, image.len() / 2, image.len() - 1] {
            assert!(
                Snapshot::decode(&image[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_pbn_records_that_do_not_pair_up() {
        let disagree = SnapshotError::Corrupt("PBN locations and fingerprints disagree");
        let mut snap = sample();
        snap.pbn_fp[0].0 = Pbn(4);
        assert_eq!(Snapshot::decode(&snap.encode()), Err(disagree.clone()));
        let mut snap = sample();
        snap.pbns.push(snap.pbns[0]);
        snap.pbn_fp.push(snap.pbn_fp[0]);
        assert_eq!(Snapshot::decode(&snap.encode()), Err(disagree));
        let mut snap = sample();
        snap.lbas[1].1 = Pbn(9);
        assert_eq!(
            Snapshot::decode(&snap.encode()),
            Err(SnapshotError::Corrupt("LBA mapped to an unrecorded PBN"))
        );
    }

    #[test]
    fn rejects_out_of_range_bucket_index() {
        let mut snap = sample();
        snap.table_buckets[0].0 = 999; // > num_buckets
        let image = snap.encode();
        assert_eq!(
            Snapshot::decode(&image),
            Err(SnapshotError::Corrupt("bucket index out of range"))
        );
    }
}
