//! Seed-driven crash-point injection.
//!
//! The torture rig (harness `torture` module) arms a [`FaultPlan`] with a
//! countdown at one of eight [`CrashPoint`]s threaded through the logging,
//! durability-gate, truncation, and recovery stack. When the countdown reaches zero the log **crashes
//! itself at the site** — [`crate::PhysicalLog::fault_point`] calls the
//! unclean shutdown path synchronously, so the volatile tail is discarded
//! at exactly the instrumented instant, before the surrounding operation
//! can complete. The process around the log stays briefly alive (workers
//! observe `MspError::Shutdown`, appends land in a dead tail and are
//! lost), which models the paper's crash semantics faithfully: optimistic
//! replies referencing the discarded LSNs become orphans that the
//! recovery broadcast must eliminate.
//!
//! A plan fires **at most once** across all its points; after firing it
//! is inert, so the restarted MSP can reuse the same plan object safely.
//! Firing is reported over an optional channel so an external controller
//! (the rig) can follow up with full process teardown and restart.
//!
//! Everything is driven by explicit countdowns — no wall-clock or global
//! randomness — so a schedule derived from a seed replays deterministically.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_channel::Sender;
use parking_lot::Mutex;

/// The instrumented crash sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// In `append_sized`, before the frame reaches the volatile tail:
    /// the record's LSN is reserved but its bytes are lost.
    MidAppend,
    /// At `flush_to` entry: records are staged in the tail but the crash
    /// hits before any of them can become durable.
    PreFlush,
    /// In the checkpointers, after the pre-checkpoint distributed flush
    /// but before the checkpoint record itself is appended.
    CheckpointWrite,
    /// In the session-replay loop of a *prior* recovery — the
    /// crash-during-recovery case (§4.5 multi-crash).
    ReplayStep,
    /// In `outgoing_call`, after a cross-domain send's durability gate has
    /// been issued, but before the send can leave: the waiting send dies
    /// with the volatile tail. Fires on the *sender* of a cross-domain
    /// call (MSP1 in the Pessimistic configuration).
    SendGateIssue,
    /// At `serve_flush_request` entry, before the local `flush_to`: the
    /// remote participant of a peer's durability gate dies inside the
    /// gate's issue→settle window, so the peer's parked envelope must
    /// ride out a flush-leg retry against the restarted MSP. Fires on
    /// the *serving* side (MSP2 when MSP1 gates a client reply under
    /// LoOptimistic).
    FlushServe,
    /// In `truncate_below`, after the new reclaim floor is persisted in
    /// sector 0 but before any device space below it is reclaimed: the
    /// half-truncated state where recovery must honor the advanced floor
    /// while stale (unreclaimed) bytes still sit beneath it.
    TruncateStart,
    /// In `truncate_below`, after the device space below the floor has
    /// been reclaimed but before the caller can observe completion.
    TruncateComplete,
}

/// All points, for schedule generators.
pub const CRASH_POINTS: [CrashPoint; 8] = [
    CrashPoint::MidAppend,
    CrashPoint::PreFlush,
    CrashPoint::CheckpointWrite,
    CrashPoint::ReplayStep,
    CrashPoint::SendGateIssue,
    CrashPoint::FlushServe,
    CrashPoint::TruncateStart,
    CrashPoint::TruncateComplete,
];

impl CrashPoint {
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::MidAppend => "mid-append",
            CrashPoint::PreFlush => "pre-flush",
            CrashPoint::CheckpointWrite => "checkpoint-write",
            CrashPoint::ReplayStep => "replay-step",
            CrashPoint::SendGateIssue => "send-gate-issue",
            CrashPoint::FlushServe => "flush-serve",
            CrashPoint::TruncateStart => "truncate-start",
            CrashPoint::TruncateComplete => "truncate-complete",
        }
    }

    fn index(self) -> usize {
        match self {
            CrashPoint::MidAppend => 0,
            CrashPoint::PreFlush => 1,
            CrashPoint::CheckpointWrite => 2,
            CrashPoint::ReplayStep => 3,
            CrashPoint::SendGateIssue => 4,
            CrashPoint::FlushServe => 5,
            CrashPoint::TruncateStart => 6,
            CrashPoint::TruncateComplete => 7,
        }
    }
}

const DISARMED: u64 = u64::MAX;
const NOT_FIRED: usize = usize::MAX;

/// One armed crash: per-point hit countdowns plus a fire-once latch.
pub struct FaultPlan {
    /// Remaining hits before the point fires; [`DISARMED`] = never.
    counters: [AtomicU64; 8],
    /// Index of the point that fired, or [`NOT_FIRED`].
    fired: AtomicUsize,
    /// Where to report the fire (the rig's controller thread).
    notify: Mutex<Option<Sender<CrashPoint>>>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new()
    }
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan {
            counters: [
                AtomicU64::new(DISARMED),
                AtomicU64::new(DISARMED),
                AtomicU64::new(DISARMED),
                AtomicU64::new(DISARMED),
                AtomicU64::new(DISARMED),
                AtomicU64::new(DISARMED),
                AtomicU64::new(DISARMED),
                AtomicU64::new(DISARMED),
            ],
            fired: AtomicUsize::new(NOT_FIRED),
            notify: Mutex::new(None),
        }
    }

    /// Convenience: a fresh plan already armed at `point` for its
    /// `nth_hit`-th traversal.
    pub fn armed(point: CrashPoint, nth_hit: u64) -> Arc<FaultPlan> {
        let plan = FaultPlan::new();
        plan.arm(point, nth_hit);
        Arc::new(plan)
    }

    /// Fire on the `nth_hit`-th traversal of `point` (1 = the next one).
    pub fn arm(&self, point: CrashPoint, nth_hit: u64) {
        self.counters[point.index()].store(nth_hit.max(1), Ordering::SeqCst);
    }

    /// Render every point inert (an unfired plan must be disarmed before
    /// a *clean* shutdown, which also walks the flush path).
    pub fn disarm_all(&self) {
        for c in &self.counters {
            c.store(DISARMED, Ordering::SeqCst);
        }
    }

    /// Register the channel that is told which point fired.
    pub fn set_notify(&self, tx: Sender<CrashPoint>) {
        *self.notify.lock() = Some(tx);
    }

    /// The point that fired, if any.
    pub fn fired(&self) -> Option<CrashPoint> {
        match self.fired.load(Ordering::Acquire) {
            NOT_FIRED => None,
            i => Some(CRASH_POINTS[i]),
        }
    }

    /// Count down `point`; `true` exactly once, for the single traversal
    /// that wins the fire latch.
    pub(crate) fn should_fire(&self, point: CrashPoint) -> bool {
        if self.fired.load(Ordering::Acquire) != NOT_FIRED {
            return false;
        }
        let c = &self.counters[point.index()];
        loop {
            let cur = c.load(Ordering::Acquire);
            if cur == DISARMED {
                return false;
            }
            if cur <= 1 {
                if c.compare_exchange(cur, DISARMED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    // This traversal consumed the final hit; the latch
                    // arbitrates against other points racing to fire.
                    return self
                        .fired
                        .compare_exchange(
                            NOT_FIRED,
                            point.index(),
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok();
                }
            } else if c
                .compare_exchange(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return false;
            }
        }
    }

    /// Report the fire to the controller (best effort — the receiver may
    /// already be gone during teardown).
    pub(crate) fn notify_fired(&self, point: CrashPoint) {
        if let Some(tx) = self.notify.lock().as_ref() {
            let _ = tx.send(point);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn countdown_fires_exactly_once() {
        let plan = FaultPlan::new();
        plan.arm(CrashPoint::MidAppend, 3);
        assert!(!plan.should_fire(CrashPoint::MidAppend));
        assert!(!plan.should_fire(CrashPoint::MidAppend));
        assert!(plan.should_fire(CrashPoint::MidAppend));
        assert_eq!(plan.fired(), Some(CrashPoint::MidAppend));
        // Inert after firing, for every point.
        assert!(!plan.should_fire(CrashPoint::MidAppend));
        plan.arm(CrashPoint::PreFlush, 1);
        assert!(!plan.should_fire(CrashPoint::PreFlush));
    }

    #[test]
    fn unarmed_points_never_fire() {
        let plan = FaultPlan::new();
        for p in CRASH_POINTS {
            assert!(!plan.should_fire(p));
        }
        assert_eq!(plan.fired(), None);
    }

    #[test]
    fn disarm_cancels_a_pending_countdown() {
        let plan = FaultPlan::new();
        plan.arm(CrashPoint::CheckpointWrite, 1);
        plan.disarm_all();
        assert!(!plan.should_fire(CrashPoint::CheckpointWrite));
    }

    #[test]
    fn concurrent_hits_fire_once() {
        let plan = Arc::new(FaultPlan::new());
        plan.arm(CrashPoint::PreFlush, 16);
        let fires: usize = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let p = Arc::clone(&plan);
                    s.spawn(move || {
                        (0..64)
                            .filter(|_| p.should_fire(CrashPoint::PreFlush))
                            .count()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("thread"))
                .sum()
        });
        assert_eq!(fires, 1);
    }
}
