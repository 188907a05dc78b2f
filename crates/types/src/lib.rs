//! Foundation types shared by every crate in the MSP recovery workspace.
//!
//! This crate reproduces the identifier vocabulary of *Log-Based Recovery
//! for Middleware Servers* (Wang, Salzberg, Lomet — SIGMOD 2007):
//!
//! * [`MspId`], [`DomainId`], [`SessionId`], [`VarId`] — the units of the
//!   distributed system (middleware server processes, service domains,
//!   client sessions and shared variables).
//! * [`Lsn`], [`Epoch`], [`StateId`] — log positions and the *state
//!   identifiers* used by optimistic logging (§3.1 of the paper): a state
//!   identifier is an `(epoch, state-number)` pair where the state number is
//!   the LSN of the process's most recent log record and the epoch counts
//!   failure-free periods.
//! * [`DependencyVector`] — the per-session / per-shared-variable dependency
//!   vectors that optimistic logging attaches to intra-domain messages.
//! * [`RecoveryKnowledge`] — each MSP's accumulated knowledge of other MSPs'
//!   *recovered state numbers*, used for orphan detection.
//! * [`codec`] — the small binary codec used by the physical log and the
//!   network envelopes.

pub mod codec;
pub mod dv;
pub mod error;
pub mod ids;
pub mod knowledge;

pub use codec::{Decode, Encode};
pub use dv::DependencyVector;
pub use error::{CodecError, MspError, MspResult};
pub use ids::{DomainId, Epoch, Lsn, MspId, RequestSeq, SessionId, StateId, VarId};
pub use knowledge::{RecoveryKnowledge, RecoveryRecord};

/// The `time_scale` convention shared by the disk, network and protocol
/// models: a finite multiplier ≥ 0 on every modelled delay (0 disables
/// them). Anything else would panic later inside `Duration::mul_f64`, on
/// whichever thread first charged a delay; reject it where it is set.
///
/// # Panics
/// If `scale` is negative, NaN or infinite.
pub fn checked_time_scale(scale: f64) -> f64 {
    assert!(
        scale.is_finite() && scale >= 0.0,
        "time_scale must be finite and >= 0 (0 disables modelled delays), got {scale}"
    );
    scale
}
