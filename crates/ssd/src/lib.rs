//! # fidr-ssd
//!
//! NVMe SSD models for the FIDR reproduction: the [`DataSsdArray`] holding
//! sealed compressed-chunk containers, and the [`TableSsd`] holding the
//! authoritative Hash-PBN table image with 4-KB bucket IO. Queue placement
//! ([`QueueLocation`]) captures FIDR's §6.1 design point of moving table-SSD
//! NVMe queues into the Cache HW-Engine.
//!
//! # Examples
//!
//! ```
//! use fidr_ssd::{DataSsdArray, TableSsd, QueueLocation};
//!
//! let array = DataSsdArray::new(2);
//! assert!(array.write_bw() > 5e9);
//! let ssd = TableSsd::new(1 << 14, QueueLocation::CacheEngine);
//! assert_eq!(ssd.num_buckets(), 1 << 14);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod data_ssd;
mod nvme;
mod retry;
mod table_ssd;

pub use data_ssd::{DataSsdArray, DataSsdError, RejectedWrite};
pub use nvme::{QueueLocation, SsdSpec, SsdStats};
pub use table_ssd::{TableSsd, TableSsdError};
