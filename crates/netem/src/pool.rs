//! Reusable payload buffers for the packet datapath.
//!
//! This module is the datapath-facing home of the buffer pool; the
//! mechanism itself lives in the vendored `bytes` facade because only
//! [`Bytes`](bytes::Bytes) can know about the pooled representation its
//! clones and drops must maintain. See `vendor/bytes/src/lib.rs` for the
//! lifecycle invariants (checkout → write → freeze → clones → recycle)
//! and the upstream-migration note (`bytes::Bytes::from_owner` in
//! `bytes` ≥ 1.9 is the real-crate equivalent).
//!
//! Sizing guidance for this workspace: under the paper's worst fault
//! condition (400 ms delay plus duplication) roughly 25 video frames
//! and 40 commands are in flight at once, so pools warm up to a few
//! dozen slots and then stop allocating — the allocation-regression
//! test (`crates/core/tests/alloc_regression.rs`) pins that at
//! **zero** steady-state allocations per session step.
//!
//! * Frame payloads: one [`BufPool`] per [`SimulatorServer`] with slot
//!   capacity `frame_len(actors)`, the encoded scene of the world's
//!   actors (a few hundred bytes). The configured
//!   `CameraConfig::frame_bytes` is never built: it travels as the
//!   packet's wire size ([`Packet::with_wire_len`](crate::Packet::with_wire_len)).
//! * Command payloads: one [`BufPool`] per session core with 64-byte
//!   slots (`COMMAND_PACKET_BYTES`).
//!
//! [`SimulatorServer`]: ../../rdsim_simulator/struct.SimulatorServer.html

pub use bytes::{BufPool, PooledBuf};
