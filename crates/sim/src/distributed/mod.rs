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
//!  one pump thread / worker   ◄─ Ready ──   Calibration bits; build the
//!         │                                 runner once per session
//!         ├──────────────── Lease ×2 ────►  reader thread queues leases;
//!         │                                 one sweep claims their cells
//!         │                                 in order, checking each range
//!   fold dedup ◄────────────── Cells ────   8 outcomes per frame, fewer
//!   retires complete leases                 only when the sweep drains
//!         ├─────────────────── Lease ────►  tops the worker up to two
//!         │
//!         └───────────────── Shutdown ───►  drain, exit
//! ```
//!
//! * **One [`Transport`] trait, three wirings.** Localhost TCP
//!   ([`TcpTransport`]), child-process stdio ([`ChildTransport`] spawning
//!   the `dtpm-worker` binary, [`StdioTransport`] inside it), and an
//!   in-process byte pipe ([`MemoryTransport`]) for tests and benches. All
//!   three carry the same length-prefixed binary frames
//!   ([`write_frame`]/[`read_frame`]).
//! * **Micro-shard leasing, not static splits.** The coordinator keeps two
//!   leases at every live worker, each the next small index range that the
//!   fold has not seen and no other lease holds, so a slow worker naturally
//!   takes fewer cells — the shard-level analogue of the lane-compacting
//!   scheduler, and the fix for a static split's convoy on ragged grids (a
//!   static split is the special case of one `cells / workers` lease each,
//!   never re-leased). Workers report retired cells in frames of eight
//!   outcomes, fewer only when their sweep drains, and any frame is its
//!   worker's liveness signal. The fold is the one lease ledger: no message
//!   ends a lease, and after each frame the coordinator retires the
//!   sender's leases whose cells the fold now holds and tops the worker up.
//!   When a worker misses its deadline or dies, the cells its leases never
//!   reported are leased again; a worker that merely stalled and reports
//!   late is folded through **cell-index dedup**, so a twice-landed cell
//!   counts once.
//! * **One sweep per worker session.** A worker builds its runner once and
//!   runs the in-process runner's one sweep loop over its queued leases:
//!   the claim moves on to the next lease without a round trip or a drain,
//!   and only when nothing has arrived does the sweep drain, send what it
//!   holds, and wait. A lease that reaches past the grid is rejected before
//!   any of its cells runs.
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
//! targets ~8 leases per worker so the tail is fine-grained. With a second
//! lease always queued at the worker, a lease boundary costs no round trip
//! as long as a lease is longer than a frame: the fold learns of a lease's
//! last cells with the worker's next full frame, while the worker runs the
//! lease behind it. Leases shorter than a frame can run out before it
//! fills; the worker then drains, sends and waits for its next lease.
//! Shrink the size toward 1 when cell runtimes are wildly ragged (faster
//! straggler recovery); grow it when cells are uniform and tiny. The lease
//! deadline ([`Coordinator::with_lease_timeout`]) must comfortably exceed
//! the time a worker takes to retire eight cells per thread: it sends a
//! frame at least that often, and any frame restarts the deadline of every
//! lease it holds.

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
