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

/// Make the calling thread's timed waits end when they are due. Linux
/// lets every thread's `thread::sleep` and timed futex wait return up to
/// its *timer slack* late, 50 µs by default; that is longer than a
/// modelled network hop at the default time scale. Modelled time is
/// waited out on many threads the library does not spawn (benchmark
/// generators, `MspClient` callers), so each wait that stands for
/// modelled time calls this first rather than each thread at its spawn.
/// Sets the slack to 1 ns (0 would mean "the default") once per thread;
/// later calls cost one thread-local read. A no-op off Linux.
pub fn punctual_timers() {
    #[cfg(target_os = "linux")]
    {
        thread_local! {
            static PUNCTUAL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        if !PUNCTUAL.with(|p| p.replace(true)) {
            // SAFETY: PR_SET_TIMERSLACK reads one unsigned long (the slack
            // in nanoseconds) and changes only the calling thread's timer
            // slack; no memory is shared with the kernel. A failure leaves
            // the default slack, which only makes waits later.
            unsafe {
                prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
            }
        }
    }
}

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    const PR_GET_TIMERSLACK: std::ffi::c_int = 30;

    #[test]
    fn punctual_timers_sets_a_one_nanosecond_slack_once_per_thread() {
        std::thread::spawn(|| {
            punctual_timers();
            punctual_timers();
            // SAFETY: PR_GET_TIMERSLACK takes no argument and returns the
            // calling thread's timer slack.
            assert_eq!(unsafe { prctl(PR_GET_TIMERSLACK) }, 1);
        })
        .join()
        .expect("slack thread");
    }
}
