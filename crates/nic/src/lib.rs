//! # fidr-nic
//!
//! The FIDR NIC model (paper §5.4, §6.2): battery-backed in-NIC write
//! buffering with immediate acknowledgment, SHA-256 hash offload (chunks
//! hashed sixteen at a time as they arrive), the
//! compression scheduler that forwards only unique chunks, the read-path
//! LBA-lookup module, and the simplified storage wire [`protocol`].
//!
//! # Examples
//!
//! ```
//! use fidr_nic::{schedule_unique, FidrNic};
//! use fidr_chunk::Lba;
//! use bytes::Bytes;
//!
//! let mut nic = FidrNic::new(1 << 20);
//! nic.accept_write(Lba(0), Bytes::from(vec![1u8; 4096]));
//! let batch = nic.take_hash_batch(64);
//! let unique = schedule_unique(batch, &[true]);
//! assert_eq!(unique.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod codec;
pub mod protocol;
pub mod shard;
mod tcp;

pub use buffer::{schedule_unique, FidrNic, HashedChunk, NicStats};
pub use codec::{CodecStats, FramedCodec};
pub use shard::{ShardMapError, ShardNode, ShardRouter};
pub use tcp::{TcpFrontEnd, TcpOffloadEngine};
