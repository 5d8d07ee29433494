//! Distributed campaign execution: worker processes, a binary transport,
//! and straggler-proof micro-shard leasing.
//!
//! The resilience layer provides the in-process half of a multi-process
//! campaign — per-cell seeds that depend only on the grid, and the
//! order-independent [`MergeSink`](crate::resilience::MergeSink) fold. This
//! module adds the other half: a real transport that ships work out to
//! worker *processes* and folds their results back deterministically.
//!
//! # Architecture
//!
//! ```text
//!  Coordinator (this process)                Worker process (×N)
//!  ───────────────────────────              ─────────────────────
//!  SweepSpec + lease queue    ── Hello ──►  re-derive Calibration
//!  one driver thread / worker ◄─ Ready ──   from shipped seed
//!         │
//!         ├─────────────────── Lease ────►  run_indices_into(...)
//!         │                 ◄─ Heartbeat ─  (one per retired cell)
//!   fold dedup ◄──────────── LeaseDone ──   per-cell outcomes
//!         │
//!         └───────────────── Shutdown ───►  exit
//! ```
//!
//! * **One [`Transport`] trait, three wirings.** Localhost TCP
//!   ([`TcpTransport`]), child-process stdio ([`ChildTransport`] spawning
//!   the `dtpm-worker` binary, [`StdioTransport`] inside it), and an
//!   in-process byte pipe ([`MemoryTransport`]) for tests and benches. All
//!   three carry the same length-prefixed binary frames
//!   ([`write_frame`]/[`read_frame`]).
//! * **Micro-shard leasing, not static splits.** The coordinator leases
//!   small index ranges from the remaining-cell queue as workers report in,
//!   so a slow worker naturally takes fewer cells — the shard-level
//!   analogue of the lane-compacting scheduler, and the fix for a static
//!   split's convoy on ragged grids (a static split is the special case of
//!   one `cells / workers` lease each, never re-leased). A lease whose
//!   worker misses its
//!   heartbeat deadline or dies is put back on the queue and re-leased; a
//!   worker that merely stalled and finishes late is folded through
//!   **cell-index dedup**, so a twice-landed shard counts once.
//! * **One canonical fold.** Workers return *per-cell* outcomes, and the
//!   coordinator offers them to a single
//!   [`MergeSink`](crate::resilience::MergeSink) over the whole grid
//!   — the identical canonical-order fold an in-process run uses — so the
//!   distributed aggregate is bit-identical to the single-process one, no
//!   matter which worker ran which cell, how leases interleaved, or how
//!   many re-leases a straggler caused (proven by the chaos proptests in
//!   `tests/distributed.rs`).
//! * **One binary format** ([`codec`]): grids, per-cell outcomes, folds
//!   and checkpoints travel as compact little-endian binary (floats as
//!   exact bit patterns) with CRC32-sealed standalone blobs — the same
//!   bytes on the wire, on disk, and under [`crate::SweepSpec::fingerprint`].
//!   [`inspect`] (`dtpm-worker inspect FILE`) renders a blob for humans.
//!
//! Calibration is *not* serialised: workers re-derive it from the shipped
//! [`crate::CalibrationCampaign`] parameters and seed, which is both small
//! and exactly reproducible (the characterisation pipeline is
//! deterministic).
//!
//! # Lease sizing
//!
//! [`Coordinator::with_lease_cells`] sets the cells per lease; the default
//! targets ~8 leases per worker so the tail is fine-grained without
//! drowning the wire in round trips. Shrink it toward 1 when cell runtimes
//! are wildly ragged (faster straggler recovery, more frames); grow it when
//! cells are uniform and tiny (fewer round trips). The heartbeat deadline
//! ([`Coordinator::with_lease_timeout`]) must comfortably exceed the wall
//! time of a few cells — workers heartbeat per retired cell (batched with
//! the result sink's delivery, so allow a handful of cells of slack).

pub mod codec;
pub mod coordinator;
mod protocol;
pub mod transport;
pub mod worker;

pub use codec::{
    decode_checkpoint, decode_sink, decode_spec, encode_checkpoint, encode_sink, encode_spec,
    inspect,
};
pub use coordinator::{Coordinator, DistributedReport, LeaseStats, WorkerPool};
pub use transport::{
    read_frame, write_frame, ChildTransport, MemoryTransport, StdioTransport, TcpTransport,
    Transport, MAX_FRAME_LEN,
};
pub use worker::{serve, serve_with, WorkerChaos, WorkerOptions};
