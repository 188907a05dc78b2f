//! Sector-aligned physical logging for middleware server processes.
//!
//! One MSP owns one **physical log** shared by all of its sessions and
//! shared variables (§1.3 of the paper: "This sharing lowers the amortized
//! log flush overhead, but makes log management more challenging"). This
//! crate provides that log and its supporting machinery:
//!
//! * [`disk`] — the durable-storage abstraction: a crash-survivable
//!   in-memory disk ([`disk::MemDisk`]) for tests and benches, and a real
//!   file-backed disk ([`disk::FileDisk`]).
//! * [`model`] — the disk *cost model* reproducing the paper's flush-time
//!   formula (§5.2): `TFn = rot/2 + n/63·rot + n/63·track_seek (+ OS seek
//!   share)`, under a configurable time scale.
//! * [`record`] — every log-record kind the recovery protocols write.
//! * [`log`] — the physical log itself: buffered appends, sector-aligned
//!   flushes, group commit with optional *batch flushing* (§5.5), random
//!   record reads and the crash-recovery scanner.
//! * [`tail`] — the log's volatile tail: lock-free LSN reservation into a
//!   ring of staging segments.
//! * `frame` — the record frame codec (magic, length, CRC-32), the one
//!   place a frame is laid out or checked.
//! * [`pool`] — the process-wide buffer pool of 64 KB log blocks
//!   (second-chance clock replacement).
//! * [`cache`] — the replay read view: one registered pool source bound
//!   to one physical log, shared by all concurrently replaying sessions.
//! * [`anchor`] — the ARIES-style log anchor holding the LSN of the most
//!   recent MSP checkpoint (§3.4).
//! * [`fault`] — seed-driven crash-point injection: countdown-armed crash
//!   sites threaded through the append/flush/checkpoint/replay paths,
//!   used by the harness torture rig.
//! * [`position`] — per-session *position streams* that make per-session
//!   log-record extraction (and hence parallel recovery) efficient (§3.2).

pub mod anchor;
pub mod cache;
pub mod crc;
pub mod disk;
pub mod fault;
mod frame;
pub mod log;
pub mod model;
pub mod pool;
pub mod position;
pub mod record;
pub mod stats;
pub mod stripe;
pub mod tail;

pub use anchor::{read_floor, read_merged_floor, LogAnchor};
pub use cache::ReplayCache;
pub use disk::{Disk, FileDisk, MemDisk};
pub use fault::{CrashPoint, FaultPlan};
pub use log::{FlushPolicy, FlushTicket, LogScanner, PhysicalLog, SECTOR_SIZE};
pub use model::DiskModel;
pub use pool::{BufferPool, PoolStatsSnapshot};
pub use position::PositionStream;
pub use record::{LogRecord, MspCheckpointBody, SessionCheckpointBody};
pub use stats::LogStats;
pub use stripe::{StripedLog, StripedScanner, Wal, WalReplayCache, WalScanner};
pub use tail::{MAX_RESERVED_FRAME, SEGMENT_RING, SEGMENT_SIZE};
