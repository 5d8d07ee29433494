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
//!  calibrate once
//!  SweepSpec + the fold       ── Hello ──►  decode SweepSpec and
//!  one pump thread / worker   ◄─ Ready ──   Calibration bits
//!         │
//!         ├─────────────────── Lease ────►  check the range, then claim
//!         │                                 its cells in the sweep loop
//!   fold dedup ◄─────────────── Cell ────   one outcome per retired cell
//!         │                 ◄─ LeaseDone ─  lease id only
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
//! * **Micro-shard leasing, not static splits.** As workers go idle, the
//!   coordinator leases each the next small index range that the fold has
//!   not seen and no other lease holds, so a slow worker naturally takes
//!   fewer cells — the shard-level analogue of the lane-compacting
//!   scheduler, and the fix for a static split's convoy on ragged grids (a
//!   static split is the special case of one `cells / workers` lease each,
//!   never re-leased). Workers send each cell's outcome as it retires, and
//!   that frame is the liveness signal. When a lease's worker misses its
//!   deadline or dies, the cells the lease never reported are leased again;
//!   a worker that merely stalled and reports late is folded through
//!   **cell-index dedup**, so a twice-landed cell counts once. A worker
//!   runs each lease through the in-process runner's one sweep loop,
//!   claiming the range's cells in order, and rejects a lease that reaches
//!   past the grid before any of its cells runs.
//! * **One canonical fold.** Workers return *per-cell* outcomes, and the
//!   coordinator offers them to a single
//!   [`MergeSink`](crate::resilience::MergeSink) over the whole grid
//!   — the identical canonical-order fold an in-process run uses — so the
//!   distributed aggregate is bit-identical to the single-process one, no
//!   matter which worker ran which cell, how leases interleaved, or how
//!   many re-leases a straggler caused (proven by the chaos proptests in
//!   `tests/distributed.rs`).
//! * **One binary format** ([`codec`]): grids, calibrations, per-cell
//!   outcomes, folds and checkpoints travel as compact little-endian binary
//!   (floats as exact bit patterns) with CRC32-sealed standalone blobs —
//!   the same bytes on the wire, on disk, and under
//!   [`crate::SweepSpec::fingerprint`]. [`inspect`] (`dtpm-worker inspect
//!   FILE`) renders a blob for humans.
//!
//! The calibration is characterised once per campaign, as the paper
//! characterises the platform once: [`Coordinator::connect`] runs the
//! [`crate::CalibrationCampaign`] recipe and ships the resulting
//! [`crate::Calibration`] inside Hello as exact bits (about 0.5 KB per
//! worker). Setup therefore costs one calibration whatever the worker
//! count, and no worker depends on its host's libm rounding `exp`, `ln`
//! and `cos` the way the coordinator's does. A Hello whose calibration does
//! not decode is a protocol error, never a panic.
//!
//! # Lease sizing
//!
//! [`Coordinator::with_lease_cells`] sets the cells per lease; the default
//! targets ~8 leases per worker so the tail is fine-grained without
//! drowning the wire in round trips. Shrink it toward 1 when cell runtimes
//! are wildly ragged (faster straggler recovery, more frames); grow it when
//! cells are uniform and tiny (fewer round trips). The lease deadline
//! ([`Coordinator::with_lease_timeout`]) must comfortably exceed the wall
//! time of a few cells — workers send a frame per retired cell (batched
//! with the result sink's delivery, so allow a handful of cells of slack).

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
pub use worker::{serve, serve_with, WorkerChaos};
