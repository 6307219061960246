//! The data-SSD array: container-granular writes, chunk-granular reads.
//!
//! Compressed unique chunks are packed into ~4-MB containers and written
//! sequentially ("Write requests to data SSDs for the compressed chunks are
//! sequential", paper §6.1); reads fetch one compressed chunk at its PBA.

use crate::nvme::{QueueLocation, SsdSpec, SsdStats};
use crate::retry::RetryState;
use fidr_chunk::{IdMap, Pba};
use fidr_faults::{FaultInjector, FaultSite, RetryPolicy};
use fidr_metrics::{Histogram, MetricsSnapshot};
use fidr_tables::{ChunkRegion, Container, ContainerReadError, CHUNK_HEADER_BYTES};
use std::fmt;
use std::time::Duration;

/// Error returned by data-SSD operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataSsdError {
    /// The PBA references a container the array never stored.
    UnknownContainer(u64),
    /// The container rejected the region (bounds/encoding/decompress).
    Corrupt(ContainerReadError),
    /// A sealed container with this id already exists; overwriting it
    /// would silently lose every chunk deduplicated onto it.
    ContainerIdReuse(u64),
    /// An injected transient device error persisted through the whole
    /// retry budget (`attempts` tries, including the first).
    Io {
        /// The device operation that failed.
        op: &'static str,
        /// Total attempts made before giving up.
        attempts: u32,
    },
}

impl fmt::Display for DataSsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataSsdError::UnknownContainer(id) => write!(f, "unknown container {id}"),
            DataSsdError::Corrupt(e) => write!(f, "corrupt chunk region: {e}"),
            DataSsdError::ContainerIdReuse(id) => {
                write!(f, "container id {id} reused: refusing to overwrite")
            }
            DataSsdError::Io { op, attempts } => {
                write!(f, "data-SSD {op} failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for DataSsdError {}

/// A container write the array refused: why, and the container itself,
/// handed back so the caller keeps every chunk in it for a retry.
pub struct RejectedWrite {
    /// Why the write was refused.
    pub error: DataSsdError,
    /// The container, untouched.
    pub container: Container,
}

impl fmt::Debug for RejectedWrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RejectedWrite")
            .field("error", &self.error)
            .field("container", &self.container.id)
            .field("bytes", &self.container.len())
            .finish()
    }
}

impl fmt::Display for RejectedWrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "container {} not written: {}",
            self.container.id, self.error
        )
    }
}

impl std::error::Error for RejectedWrite {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// An array of data SSDs storing sealed containers.
///
/// # Examples
///
/// ```
/// use fidr_ssd::DataSsdArray;
/// use fidr_tables::ContainerBuilder;
/// use fidr_compress::CompressedChunk;
///
/// let mut array = DataSsdArray::new(2);
/// let mut builder = ContainerBuilder::new(0, 4096);
/// let slot = builder.append(&CompressedChunk::compress(&vec![5u8; 4096]));
/// array.write_container(builder.seal())?;
/// let pba = fidr_chunk::Pba { container: 0, offset: slot.offset, compressed_len: slot.compressed_len };
/// assert_eq!(array.read_chunk(pba)?, vec![5u8; 4096]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct DataSsdArray {
    spec: SsdSpec,
    devices: u32,
    containers: IdMap<u64, Container>,
    stats: SsdStats,
    queue_location: QueueLocation,
    /// Modelled device service time per IO (spec-derived, not wall-clock —
    /// this is a simulated device).
    io_ns: Histogram,
    retry: RetryState,
    corrupt_reads: u64,
}

impl DataSsdArray {
    /// Creates an array of `devices` SSDs with default specs.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn new(devices: u32) -> Self {
        Self::with_spec(devices, SsdSpec::default())
    }

    /// Creates an array with an explicit per-device spec.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is zero.
    pub fn with_spec(devices: u32, spec: SsdSpec) -> Self {
        assert!(devices > 0, "array needs at least one device");
        DataSsdArray {
            spec,
            devices,
            containers: IdMap::default(),
            stats: SsdStats::default(),
            queue_location: QueueLocation::HostMemory,
            io_ns: Histogram::new(),
            retry: RetryState::disabled(),
            corrupt_reads: 0,
        }
    }

    /// Arms fault injection: `injector` decides which IOs fault, `policy`
    /// bounds the device-level transparent retries.
    pub fn set_fault_injector(&mut self, injector: FaultInjector, policy: RetryPolicy) {
        self.retry.configure(injector, policy);
    }

    /// Aggregate sequential write bandwidth of the array.
    pub fn write_bw(&self) -> f64 {
        self.spec.write_bw * f64::from(self.devices)
    }

    /// Aggregate read bandwidth of the array.
    pub fn read_bw(&self) -> f64 {
        self.spec.read_bw * f64::from(self.devices)
    }

    /// Where this array's NVMe queues live (host memory for data SSDs in
    /// both systems, §6.1).
    pub fn queue_location(&self) -> QueueLocation {
        self.queue_location
    }

    /// Writes a sealed container. Returns the modelled device time
    /// (service plus any transparent retry backoff).
    ///
    /// # Errors
    ///
    /// A [`RejectedWrite`] carrying the container back, with
    /// [`DataSsdError::ContainerIdReuse`] if a container with this id is
    /// already stored (the guard is unconditional — a `debug_assert!`
    /// would vanish in release builds and let a buggy or retrying caller
    /// silently overwrite sealed data), or [`DataSsdError::Io`] if an
    /// injected transient fault outlives the retry budget.
    pub fn write_container(&mut self, container: Container) -> Result<Duration, RejectedWrite> {
        if self.containers.contains_key(&container.id) {
            let error = DataSsdError::ContainerIdReuse(container.id);
            return Err(RejectedWrite { error, container });
        }
        let backoff = match self.retry.attempt(FaultSite::DataWrite) {
            Ok(backoff) => backoff,
            Err(attempts) => {
                let op = "container write";
                let error = DataSsdError::Io { op, attempts };
                return Err(RejectedWrite { error, container });
            }
        };
        let bytes = container.len() as u64;
        self.stats.record_write(bytes);
        let t = self.spec.write_time(bytes);
        self.io_ns.record_duration(t);
        self.containers.insert(container.id, container);
        Ok(t + backoff)
    }

    /// Reads and decodes one chunk at `pba`.
    ///
    /// An armed fault injector may make the returned bytes silently
    /// corrupt *in flight* (the stored copy stays intact), modelling a
    /// transfer error the device's own ECC missed; only a checksum-
    /// verifying caller can catch that, and a re-read returns clean data.
    ///
    /// # Errors
    ///
    /// [`DataSsdError::UnknownContainer`] if the container does not exist,
    /// [`DataSsdError::Corrupt`] if the region cannot be decoded,
    /// [`DataSsdError::Io`] if an injected transient fault outlives the
    /// retry budget.
    pub fn read_chunk(&mut self, pba: Pba) -> Result<Vec<u8>, DataSsdError> {
        let container = self
            .containers
            .get(&pba.container)
            .ok_or(DataSsdError::UnknownContainer(pba.container))?;
        self.retry
            .attempt(FaultSite::DataRead)
            .map_err(|attempts| DataSsdError::Io {
                op: "chunk read",
                attempts,
            })?;
        let bytes = pba.compressed_len as u64 + CHUNK_HEADER_BYTES as u64;
        self.stats.record_read(bytes);
        self.io_ns.record_duration(self.spec.read_time(bytes));
        let mut data = container
            .read_chunk(pba.offset, pba.compressed_len)
            .map_err(DataSsdError::Corrupt)?;
        if !data.is_empty() && self.retry.fire(FaultSite::DataReadCorrupt) {
            data[0] ^= 0x01;
            self.corrupt_reads += 1;
        }
        Ok(data)
    }

    /// Lends the stored region at `pba` without reading it: no IO is
    /// counted and no fault fires. A caller that already read the chunk
    /// through [`read_chunk`](Self::read_chunk) uses it to move the
    /// chunk's stored bytes elsewhere.
    ///
    /// # Errors
    ///
    /// [`DataSsdError::UnknownContainer`] if the container does not exist,
    /// [`DataSsdError::Corrupt`] if the region does not parse.
    pub fn region(&self, pba: Pba) -> Result<ChunkRegion<'_>, DataSsdError> {
        let container = self
            .containers
            .get(&pba.container)
            .ok_or(DataSsdError::UnknownContainer(pba.container))?;
        container
            .region(pba.offset, pba.compressed_len)
            .map_err(DataSsdError::Corrupt)
    }

    /// Device time for a chunk read of `bytes` (latency model input).
    pub fn read_time(&self, bytes: u64) -> Duration {
        self.spec.read_time(bytes)
    }

    /// IO statistics so far.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }

    /// Number of stored containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Total bytes occupied by stored containers (post-reduction footprint).
    pub fn stored_bytes(&self) -> u64 {
        self.containers.values().map(|c| c.len() as u64).sum()
    }

    /// Re-installs a container during checkpoint restore, without
    /// counting flash writes (the bytes are already on the flash).
    pub fn load_container(&mut self, container: Container) {
        self.containers.insert(container.id, container);
    }

    /// Fault injection for testing: flips one bit at `byte` inside a
    /// stored container, simulating silent flash corruption. Returns
    /// `false` if the container or offset does not exist.
    pub fn inject_corruption(&mut self, container: u64, byte: usize) -> bool {
        match self.containers.get_mut(&container) {
            Some(c) if byte < c.bytes.len() => {
                c.bytes[byte] ^= 0x01;
                true
            }
            _ => false,
        }
    }

    /// Iterates over stored containers (checkpointing).
    pub fn containers(&self) -> impl Iterator<Item = &Container> {
        self.containers.values()
    }

    /// Drops a whole container (garbage collection after compaction moved
    /// its survivors), returning the bytes freed, or `None` for an unknown
    /// id. Modelled as an NVMe deallocate (TRIM): no flash writes.
    pub fn remove_container(&mut self, id: u64) -> Option<u64> {
        self.containers.remove(&id).map(|c| c.len() as u64)
    }

    /// Exports IO counters and the modelled per-IO service-time histogram
    /// under the `ssd.data.*` prefix (see `docs/OBSERVABILITY.md`).
    pub fn export_metrics(&self, out: &mut MetricsSnapshot) {
        out.set_counter("ssd.data.read.ios", self.stats.read_ios);
        out.set_counter("ssd.data.read.bytes", self.stats.read_bytes);
        out.set_counter("ssd.data.write.ios", self.stats.write_ios);
        out.set_counter("ssd.data.write.bytes", self.stats.write_bytes);
        out.set_counter("ssd.data.containers.count", self.containers.len() as u64);
        out.set_counter("ssd.data.stored.bytes", self.stored_bytes());
        out.set_counter("ssd.data.faults.corrupt_reads", self.corrupt_reads);
        out.set_histogram("ssd.data.io.ns", &self.io_ns);
        self.retry.export_metrics("ssd.data", out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidr_compress::CompressedChunk;
    use fidr_tables::ContainerBuilder;

    #[test]
    fn write_then_read_roundtrip() {
        let mut array = DataSsdArray::new(2);
        let mut b = ContainerBuilder::new(7, 1 << 20);
        let data = vec![0xabu8; 4096];
        let slot = b.append(&CompressedChunk::compress(&data));
        array.write_container(b.seal()).unwrap();
        let pba = Pba {
            container: 7,
            offset: slot.offset,
            compressed_len: slot.compressed_len,
        };
        assert_eq!(array.read_chunk(pba).unwrap(), data);
        assert_eq!(array.stats().write_ios, 1);
        assert_eq!(array.stats().read_ios, 1);
    }

    #[test]
    fn a_lent_region_counts_no_io() {
        let mut array = DataSsdArray::new(1);
        let (c, pba) = sealed(4, 0x3c);
        array.write_container(c).unwrap();
        let region = array.region(pba).unwrap();
        assert_eq!(
            region.to_chunk(),
            CompressedChunk::compress(&[0x3cu8; 4096])
        );
        assert_eq!(array.stats().read_ios, 0);
        let missing = Pba {
            container: 5,
            ..pba
        };
        assert_eq!(
            array.region(missing),
            Err(DataSsdError::UnknownContainer(5))
        );
    }

    #[test]
    fn unknown_container_errors() {
        let mut array = DataSsdArray::new(1);
        let err = array
            .read_chunk(Pba {
                container: 42,
                offset: 0,
                compressed_len: 10,
            })
            .unwrap_err();
        assert_eq!(err, DataSsdError::UnknownContainer(42));
    }

    #[test]
    fn aggregate_bandwidth_scales_with_devices() {
        let one = DataSsdArray::new(1);
        let four = DataSsdArray::new(4);
        assert!((four.write_bw() / one.write_bw() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn stored_bytes_reflect_reduction() {
        let mut array = DataSsdArray::new(1);
        let mut b = ContainerBuilder::new(0, 1 << 20);
        b.append(&CompressedChunk::compress(&vec![0u8; 65536]));
        array.write_container(b.seal()).unwrap();
        assert!(array.stored_bytes() < 1024, "highly compressible data");
    }

    fn sealed(id: u64, fill: u8) -> (Container, Pba) {
        let mut b = ContainerBuilder::new(id, 1 << 20);
        let slot = b.append(&CompressedChunk::compress(&vec![fill; 4096]));
        (
            b.seal(),
            Pba {
                container: id,
                offset: slot.offset,
                compressed_len: slot.compressed_len,
            },
        )
    }

    #[test]
    fn container_id_reuse_is_a_hard_error_in_every_profile() {
        let mut array = DataSsdArray::new(1);
        let (first, pba) = sealed(3, 0x11);
        let (second, _) = sealed(3, 0x22);
        array.write_container(first).unwrap();
        let rejected = array.write_container(second).unwrap_err();
        assert_eq!(rejected.error, DataSsdError::ContainerIdReuse(3));
        assert_eq!(
            rejected.container.bytes,
            sealed(3, 0x22).0.bytes,
            "handed back"
        );
        // The original container survives the rejected overwrite.
        assert_eq!(array.read_chunk(pba).unwrap(), vec![0x11u8; 4096]);
        assert_eq!(array.stats().write_ios, 1);
    }

    #[test]
    fn persistent_write_fault_exhausts_retries() {
        use fidr_faults::{FaultInjector, FaultPlan, RetryPolicy};
        let mut array = DataSsdArray::new(1);
        let plan = FaultPlan {
            data_write_error: 1.0,
            ..FaultPlan::default()
        };
        array.set_fault_injector(FaultInjector::new(plan), RetryPolicy::default());
        let (c, _) = sealed(0, 1);
        assert_eq!(
            array.write_container(c).unwrap_err().error,
            DataSsdError::Io {
                op: "container write",
                attempts: 5
            }
        );
        assert_eq!(array.container_count(), 0, "failed write stores nothing");
    }

    #[test]
    fn transient_read_fault_is_retried_transparently() {
        use fidr_faults::{FaultInjector, FaultPlan, RetryPolicy};
        let mut array = DataSsdArray::new(1);
        let (c, pba) = sealed(0, 0x5a);
        array.write_container(c).unwrap();
        // ~40% per-attempt faults: with 4 retries nearly every read lands.
        let plan = FaultPlan {
            seed: 11,
            data_read_error: 0.4,
            ..FaultPlan::default()
        };
        array.set_fault_injector(FaultInjector::new(plan), RetryPolicy::default());
        for _ in 0..50 {
            assert_eq!(array.read_chunk(pba).unwrap(), vec![0x5au8; 4096]);
        }
        let mut snap = MetricsSnapshot::new();
        array.export_metrics(&mut snap);
        assert!(snap.counter("ssd.data.retry.attempts").unwrap() > 0);
    }

    #[test]
    fn inflight_corruption_leaves_stored_copy_intact() {
        use fidr_faults::{FaultInjector, FaultPlan, RetryPolicy};
        let mut array = DataSsdArray::new(1);
        let (c, pba) = sealed(0, 0x77);
        array.write_container(c).unwrap();
        let plan = FaultPlan {
            seed: 2,
            data_read_corrupt: 0.5,
            ..FaultPlan::default()
        };
        array.set_fault_injector(FaultInjector::new(plan), RetryPolicy::default());
        let clean = vec![0x77u8; 4096];
        let mut saw_corrupt = false;
        let mut saw_clean = false;
        for _ in 0..64 {
            let got = array.read_chunk(pba).unwrap();
            if got == clean {
                saw_clean = true;
            } else {
                saw_corrupt = true;
                let mut fixed = got.clone();
                fixed[0] ^= 0x01;
                assert_eq!(fixed, clean, "exactly one in-flight bit flip");
            }
        }
        assert!(saw_corrupt && saw_clean, "re-reads return clean data");
    }
}
