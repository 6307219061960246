//! The one error type both engines surface.

use fidr_chunk::Lba;
use std::fmt;

/// Errors surfaced by the chunk store and by the engines built on it
/// (`fidr_core::FidrError` and `fidr_baseline::SystemError` are this
/// type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A write chunk was not exactly 4 KB.
    BadChunkSize(usize),
    /// The Hash-PBN bucket for this fingerprint is full.
    TableFull,
    /// Read of an address that was never written.
    NotMapped(Lba),
    /// The NIC buffer is out of battery-backed capacity (FIDR only: the
    /// baseline has no NIC buffer).
    NicBufferFull,
    /// The data SSDs returned an unreadable region.
    Corrupt(String),
    /// A device IO failed even after the bounded retry budget.
    Io(String),
}

impl StoreError {
    /// Stable metric-name slug for per-error-kind counters.
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::BadChunkSize(_) => "bad_chunk_size",
            StoreError::TableFull => "table_full",
            StoreError::NotMapped(_) => "not_mapped",
            StoreError::NicBufferFull => "nic_buffer_full",
            StoreError::Corrupt(_) => "corrupt",
            StoreError::Io(_) => "io",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadChunkSize(n) => write!(f, "chunk of {n} bytes; expected 4096"),
            StoreError::TableFull => write!(f, "hash-PBN bucket full; grow the table"),
            StoreError::NotMapped(lba) => write!(f, "read of unmapped {lba}"),
            StoreError::NicBufferFull => write!(f, "NIC buffer exhausted; backend too slow"),
            StoreError::Corrupt(e) => write!(f, "data SSD corruption: {e}"),
            StoreError::Io(e) => write!(f, "device IO failed past retry budget: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<fidr_ssd::TableSsdError> for StoreError {
    fn from(e: fidr_ssd::TableSsdError) -> Self {
        StoreError::Io(e.to_string())
    }
}

impl From<fidr_tables::BucketInsertError> for StoreError {
    fn from(e: fidr_tables::BucketInsertError) -> Self {
        match e {
            fidr_tables::BucketInsertError::Full => StoreError::TableFull,
            // The engines screen duplicate fingerprints with a lookup
            // before inserting, and PBNs are allocated sequentially far
            // below the 6-byte ceiling, so anything else is state
            // corruption.
            other => StoreError::Corrupt(other.to_string()),
        }
    }
}
