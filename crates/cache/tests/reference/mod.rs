//! Test-only references: the parent commit's tree and HW-engine model.

pub mod hwtree;
pub mod pipelined;
