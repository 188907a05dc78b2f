//! Experiment harness reproducing the paper's evaluation (§5).
//!
//! * [`workload`] — the exact Figure 13 configuration: an end client,
//!   `MSP1.ServiceMethod1` (read+write SV0, call `ServiceMethod2` *m*
//!   times, read+write SV1, write 512 B of an 8 KB session state) and
//!   `MSP2.ServiceMethod2` (read+write SV2 and SV3, write 512 B of
//!   session state); 100 B parameters and returns, 128 B shared
//!   variables.
//! * [`world`] — bootstraps one of the five system configurations
//!   (LoOptimistic / Pessimistic / NoLog / Psession / StateServer) over
//!   the simulated network and disks, under one global time scale.
//! * [`crashes`] — the §5.4 fault injector: MSP2 is instructed to kill
//!   itself right after its reply is consumed, so its buffered log
//!   records are lost and session SE1 at MSP1 becomes an orphan.
//! * [`torture`] — the crash torture rig: seed-generated crash storms
//!   (crash points, lossy links, multi-crashes including
//!   crash-during-recovery) or fixed-cadence long runs, judged by a pure
//!   exactly-once check over the clients' history and a post-mortem log
//!   audit.
//! * [`metrics`] — response-time series and throughput accounting.
//! * [`experiments`] — one driver per table and figure (E1–E7 in
//!   `DESIGN.md`) plus the ablations.

pub mod crashes;
pub mod experiments;
pub mod metrics;
pub mod torture;
pub mod workload;
pub mod world;

pub use metrics::{await_recovery, RecoveryPhases, Series, Summary};
pub use torture::{
    Cadence, CrashPlan, Schedule, Storm, TortureFailure, TortureOptions, TortureReport,
    WorkloadShape,
};
pub use world::{FlushMode, SystemConfig, World, WorldOptions};
