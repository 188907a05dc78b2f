//! Checkpointing: sessions (§3.2), shared variables (§3.3), and the fuzzy
//! MSP checkpoint (§3.4).
//!
//! The three levels are deliberately independent:
//!
//! * a **session checkpoint** is taken between requests once the session
//!   has consumed enough log, preceded by a distributed flush so the
//!   checkpointed state can never become an orphan; it truncates the
//!   session's position stream;
//! * a **shared-variable checkpoint** is taken after enough writes; it
//!   breaks the backward write chain (Figure 9);
//! * the **MSP checkpoint** is fuzzy: it blocks nobody, records only the
//!   *positions* of the component checkpoints plus the recovered-state
//!   knowledge, and anchors itself in the log header. Its minimum LSN is
//!   where crash recovery's analysis scan starts.
//!
//! Inactive sessions and variables are force-checkpointed after a number
//! of MSP checkpoints so the scan start keeps advancing (§3.4). For
//! sessions that is a scheduler inside the MSP checkpoint tick
//! ([`pick_forced_checkpoints`]): every tick forces its share of the
//! sessions, oldest anchor first, as one batch behind one distributed
//! flush — a per-session counter would put every session that shares a
//! phase (opened together, or re-created together by a crash recovery) on
//! the same tick for good.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use msp_types::{DependencyVector, Lsn, MspError, MspResult, SessionId, StateId};
use msp_wal::record::{MspCheckpointBody, SessionAnchor};
use msp_wal::{CrashPoint, LogRecord};

use crate::runtime::{MspInner, WorkItem};
use crate::session::{SessionCell, SessionState};
use crate::shared::SharedVar;

/// Fold the reclaim floor from the live dependency set: the minimum over
/// the anchored MSP checkpoint's scan start (`anchor_min_lsn`), every
/// session's earliest live position-stream entry, every shared variable's
/// write-chain head, and the oldest still-pending flush ticket or
/// durability gate — clamped to the durable end (volatile bytes are
/// never reclaimed). Every byte strictly below the returned LSN is dead:
/// no future recovery scan, replay read, orphan rollback or flush can
/// reference it.
///
/// `None` for `anchor_min_lsn` means no MSP checkpoint was ever anchored;
/// recovery would scan from the head of the log, so nothing may be
/// reclaimed (`Lsn(0)` — the log clamps it up to its data start).
pub fn fold_reclaim_floor(
    anchor_min_lsn: Option<Lsn>,
    session_anchors: &[Lsn],
    shared_anchors: &[Lsn],
    oldest_pending: Option<Lsn>,
    durable: Lsn,
) -> Lsn {
    let Some(mut floor) = anchor_min_lsn else {
        return Lsn(0);
    };
    for &lsn in session_anchors {
        floor = floor.min(lsn);
    }
    for &lsn in shared_anchors {
        floor = floor.min(lsn);
    }
    if let Some(lsn) = oldest_pending {
        floor = floor.min(lsn);
    }
    floor.min(durable)
}

/// One tick of the forced-checkpoint scheduler: which sessions the MSP
/// checkpoint about to be taken forces, and the credit left over.
///
/// `credit` counts sessions in units of `1 / force_ckpt_after`; every tick
/// earns one unit per anchored session and spends `force_ckpt_after` units
/// per pick, so each session is forced once per `force_ckpt_after` ticks
/// on average — a lone session exactly so, 128 sessions at 16 as 8 per
/// tick — and never more than `⌈n / force_ckpt_after⌉` in one tick. The
/// picks are the oldest anchors (ties by id): those pin the scan start and
/// the reclaim floor, a session just checkpointed goes to the back of the
/// line by itself, and one the caller could not checkpoint (busy) is still
/// first in line at the next tick.
pub fn pick_forced_checkpoints(
    anchors: &[(SessionId, Lsn)],
    credit: u64,
    force_ckpt_after: u32,
) -> (Vec<SessionId>, u64) {
    let per_pick = u64::from(force_ckpt_after.max(1));
    let credit = credit + anchors.len() as u64;
    let mut oldest: Vec<(Lsn, SessionId)> = anchors.iter().map(|&(id, lsn)| (lsn, id)).collect();
    oldest.sort_unstable();
    oldest.truncate((credit / per_pick) as usize);
    (
        oldest.into_iter().map(|(_, id)| id).collect(),
        credit % per_pick,
    )
}

impl MspInner {
    /// Take a session checkpoint (caller holds the session's state lock,
    /// which also "holds new requests until the checkpoint is completed").
    pub(crate) fn session_checkpoint(
        &self,
        cell: &SessionCell,
        st: &mut SessionState,
    ) -> MspResult<()> {
        // The distributed flush makes every dependency durable; if it
        // reveals the session to be an orphan, recover instead of
        // checkpointing.
        match self.distributed_flush(&st.dv) {
            Ok(()) => {}
            Err(e @ (MspError::OrphanDependency { .. } | MspError::Orphan { .. })) => {
                st.needs_recovery = true;
                self.send_work(WorkItem::RecoverSession(cell.id));
                return Err(e);
            }
            Err(e) => return Err(e),
        }
        self.write_session_checkpoint(cell, st)
    }

    /// The part of a session checkpoint after its distributed flush: log
    /// the state and restart the session's stream at the record. The
    /// caller holds the session's state lock and has made every
    /// dependency in `st.dv` durable.
    fn write_session_checkpoint(&self, cell: &SessionCell, st: &mut SessionState) -> MspResult<()> {
        let log = self.log();
        // Crash site: the pre-checkpoint flush succeeded but the kill
        // lands before the checkpoint record itself is written.
        if log.fault_point(CrashPoint::CheckpointWrite) {
            return Err(MspError::Shutdown);
        }
        let body = st.to_checkpoint_body();
        let lsn = log.append(&LogRecord::SessionCheckpoint {
            session: cell.id,
            body,
        });
        // The state as of checkpoint completion can never be an orphan:
        // reset the DV to the self-entry only; discard prior positions.
        st.dv.clear();
        st.dv.set(self.cfg.id, StateId::new(self.epoch(), lsn));
        st.state_number = lsn;
        st.last_ckpt = Some(lsn);
        st.log_consumed = 0;
        st.positions.truncate();
        cell.sync_anchor(st);
        self.stats
            .session_checkpoints
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Checkpoint `var` if its write count crossed the threshold (§3.3);
    /// called by the writer right after a write, with the variable lock
    /// released in between (re-acquired inside).
    pub(crate) fn maybe_shared_checkpoint(&self, var: &SharedVar, _lsn: Lsn) -> MspResult<()> {
        if !self.cfg.logging.checkpoints_enabled {
            return Ok(());
        }
        let due = var.state.lock().writes_since_ckpt >= self.cfg.logging.shared_ckpt_writes;
        if due {
            self.shared_checkpoint(var)?;
        }
        Ok(())
    }

    /// Take a shared-variable checkpoint: distributed flush under the
    /// variable's DV, then log the value — which thereby can never become
    /// an orphan — and break the backward chain (Figure 9).
    pub(crate) fn shared_checkpoint(&self, var: &SharedVar) -> MspResult<()> {
        let mut st = var.state.lock();
        match self.distributed_flush(&st.dv) {
            Ok(()) => {}
            Err(MspError::OrphanDependency { .. }) => {
                // The current value is an orphan: roll it back instead
                // (§4.2); the rolled-back value can be checkpointed on the
                // next threshold crossing.
                let log = self.log();
                let knowledge = self.knowledge.read();
                let env = crate::shared::SharedEnv {
                    me: self.cfg.id,
                    epoch: self.epoch(),
                    log,
                    knowledge: &knowledge,
                };
                crate::shared::rollback_if_orphan(&env, var, &mut st)?;
                return Ok(());
            }
            Err(e) => return Err(e),
        }
        let log = self.log();
        let lsn = log.append(&LogRecord::SharedCheckpoint {
            var: var.id,
            value: st.value.clone(),
        });
        st.last_ckpt = Some(lsn);
        st.chain_head = lsn;
        st.dv.clear();
        st.writes_since_ckpt = 0;
        var.msp_ckpts_since_ckpt.store(0, Ordering::Release);
        var.sync_anchor(&st);
        self.stats
            .shared_checkpoints
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Force this tick's share of the session checkpoints (§3.4, see
    /// [`pick_forced_checkpoints`]) as one batch: lock the picked sessions,
    /// make the union of their dependencies durable with one distributed
    /// flush, log their checkpoints. A session that is busy is live and
    /// simply comes up again next tick. Runs on the thread taking the MSP
    /// checkpoint, before it collects anchors, so that checkpoint already
    /// anchors — and truncates past — what this wrote.
    fn force_session_checkpoints(&self, cells: &[Arc<SessionCell>], credit: &mut u64) {
        // While crash recovery replays, the sessions it re-created hold
        // state still to be rebuilt and the replay pool wants their
        // locks: the recovery-time checkpoint records positions only.
        if !self.cfg.logging.checkpoints_enabled || self.replay_threads.load(Ordering::Acquire) > 0
        {
            return;
        }
        let anchors: Vec<(SessionId, Lsn)> = cells
            .iter()
            .filter_map(|cell| cell.anchor().map(|(lsn, _)| (cell.id, lsn)))
            .collect();
        let (picked, left) =
            pick_forced_checkpoints(&anchors, *credit, self.cfg.logging.force_ckpt_after);
        *credit = left;
        let picked: Vec<Arc<SessionCell>> = {
            let sessions = self.sessions.lock();
            picked
                .iter()
                .filter_map(|id| sessions.get(id).cloned())
                .collect()
        };

        let mut held = Vec::with_capacity(picked.len());
        for cell in &picked {
            match cell.state.try_lock() {
                // A session awaiting replay has an empty state and a
                // rebuilt stream: checkpointing it would log the empty
                // state over the work replay is about to redo.
                Some(st) if st.ended || st.needs_recovery => {}
                Some(st) => held.push((cell, st)),
                None => {
                    self.stats
                        .forced_ckpt_skipped_busy
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if held.is_empty() {
            return;
        }
        self.stats
            .forced_ckpt_batches
            .fetch_add(1, Ordering::Relaxed);

        // Merging keeps only the newest state per MSP, which would hide a
        // dependency on an older incarnation — so settle those from what
        // we know first; one that survived its MSP's recovery is durable.
        let known_orphan = {
            let knowledge = self.knowledge.read();
            held.iter()
                .any(|(_, st)| knowledge.is_orphan(&st.dv, self.cfg.id))
        };
        let flushed = (!known_orphan).then(|| {
            let mut union = DependencyVector::new();
            for (_, st) in &held {
                union.merge_from(&st.dv);
            }
            self.distributed_flush(&union)
        });
        let mut forced = 0;
        match flushed {
            Some(Ok(())) => {
                for (cell, st) in &mut held {
                    // An armed crash point fired mid-batch: we are dying.
                    if self.write_session_checkpoint(cell, st).is_err() {
                        break;
                    }
                    forced += 1;
                }
            }
            // Some session of the batch is an orphan: let each find out
            // for itself (the orphan goes to `RecoverSession`).
            None | Some(Err(MspError::OrphanDependency { .. } | MspError::Orphan { .. })) => {
                for (cell, st) in &mut held {
                    forced += u64::from(self.session_checkpoint(cell, st).is_ok());
                }
            }
            // Transient (peer unreachable, shutting down): next tick.
            Some(Err(_)) => {}
        }
        self.stats
            .forced_ckpt_sessions
            .fetch_add(forced, Ordering::Relaxed);
    }

    /// The fuzzy MSP checkpoint (§3.4): force the laggards' checkpoints,
    /// collect the component anchors without blocking anyone, make sure
    /// the referenced records are durable, log the checkpoint, update the
    /// log anchor and truncate the log below it.
    pub(crate) fn msp_checkpoint(&self) -> MspResult<()> {
        // One MSP checkpoint at a time (the checkpointer, the
        // recovery-time checkpoint and the test hook can overlap): the
        // anchor on disk is then the checkpoint this call wrote, whose
        // `min_lsn` bounds the truncation below.
        let mut credit = self.forced_ckpt_credit.lock();
        let log = self.log();
        let cells: Vec<_> = self.sessions.lock().values().cloned().collect();
        self.force_session_checkpoints(&cells, &mut credit);

        // Fuzzy collection: lock-free anchors only.
        let mut sessions = Vec::new();
        let mut min_lsn = Lsn(u64::MAX);
        for cell in &cells {
            if let Some((lsn, is_checkpoint)) = cell.anchor() {
                sessions.push(SessionAnchor {
                    session: cell.id,
                    lsn,
                    is_checkpoint,
                });
                min_lsn = min_lsn.min(lsn);
            }
        }
        let mut shared = Vec::new();
        for var in self.shared.iter() {
            if let Some(lsn) = var.anchor() {
                shared.push((var.id, lsn));
                min_lsn = min_lsn.min(lsn);
            }
        }
        if min_lsn == Lsn(u64::MAX) {
            // Nothing to anchor: the scan would start at the current end.
            min_lsn = log.durable_lsn();
        }

        // Crash site: the anchors exist but the MSP checkpoint record (and
        // the log-anchor update) never happen.
        if log.fault_point(CrashPoint::CheckpointWrite) {
            return Err(MspError::Shutdown);
        }
        let body = MspCheckpointBody {
            epoch: self.epoch(),
            knowledge: self.knowledge.read().clone(),
            sessions,
            shared,
            min_lsn,
        };
        // The checkpoint may only reference durable records. Every anchor
        // lies below it in the log and the log becomes durable as a
        // prefix, so flushing the checkpoint flushes them — with this
        // tick's forced session checkpoints, in one device write.
        let lsn = log.append(&LogRecord::MspCheckpoint(body));
        log.flush_to(lsn)?;
        self.anchor
            .as_ref()
            .expect("LogBased runtime has an anchor")
            .write(lsn)?;
        self.stats.msp_checkpoints.fetch_add(1, Ordering::Relaxed);

        // Shared variables keep the per-variable counter (§3.4): there
        // are a handful of them and each is checkpointed in place.
        let force_after = self.cfg.logging.force_ckpt_after;
        for var in self.shared.iter() {
            let n = var.msp_ckpts_since_ckpt.fetch_add(1, Ordering::AcqRel) + 1;
            if n >= force_after && var.anchor().is_some() {
                let needs = var.state.lock().writes_since_ckpt > 0;
                if needs {
                    let _ = self.shared_checkpoint(var);
                }
            }
        }

        // Bounded-log operation: every checkpoint refreshes the reclaim
        // floor and gives the space below it back to the device. Failures
        // (e.g. an armed truncation crash point) surface to the caller;
        // the checkpoint itself is already durable and anchored.
        self.truncate_below_anchored(Some(min_lsn))?;
        Ok(())
    }

    /// Recompute the reclaim floor from the live dependency set and
    /// truncate the log below it. Returns the resulting floor and the
    /// bytes reclaimed by this call (zero when the floor cannot advance).
    pub(crate) fn truncate_log(&self) -> MspResult<(Lsn, u64)> {
        // Crash recovery reads the anchor, then scans from the checkpoint
        // body's `min_lsn`.
        let log = self.log();
        let anchor_min = match self
            .anchor
            .as_ref()
            .and_then(|a| a.read().ok().flatten())
            .map(|lsn| log.read_record(lsn))
        {
            Some(Ok(LogRecord::MspCheckpoint(body))) => Some(body.min_lsn),
            _ => None,
        };
        self.truncate_below_anchored(anchor_min)
    }

    /// [`Self::truncate_log`] given the anchored MSP checkpoint's scan
    /// start, which the floor may never pass (`None`: nothing anchored).
    ///
    /// A no-op when checkpointing is disabled: that configuration's
    /// contract is a full-history log (tests and audits rely on every
    /// record surviving), and the only checkpoint that could anchor a
    /// floor is the unconditional end-of-recovery one.
    fn truncate_below_anchored(&self, anchor_min: Option<Lsn>) -> MspResult<(Lsn, u64)> {
        let log = self.log();
        if !self.cfg.logging.checkpoints_enabled {
            return Ok((log.floor(), 0));
        }
        let session_anchors: Vec<Lsn> = self
            .sessions
            .lock()
            .values()
            .filter_map(|cell| cell.anchor().map(|(lsn, _)| lsn))
            .collect();
        let shared_anchors: Vec<Lsn> = self.shared.iter().filter_map(|var| var.anchor()).collect();
        // The oldest outstanding local durability work: un-settled flush
        // tickets inside the log, plus issued-but-unsettled durability
        // gates whose local leg still waits on an LSN.
        let mut oldest_pending = log.oldest_pending_flush();
        for (gate, _) in self.pending_flushes.lock().values() {
            if let Some(lsn) = gate.pending_local_target() {
                oldest_pending = Some(oldest_pending.map_or(lsn, |p| p.min(lsn)));
            }
        }
        let floor = fold_reclaim_floor(
            anchor_min,
            &session_anchors,
            &shared_anchors,
            oldest_pending,
            log.durable_lsn(),
        );
        let reclaimed = log.truncate_below(floor)?;
        Ok((log.floor(), reclaimed))
    }

    /// Periodic checkpointer thread body. Checkpoints fire on the timer
    /// *or* as soon as `checkpoint_interval_bytes` of log have been
    /// appended since the last checkpoint, whichever comes first — under
    /// sustained load the byte trigger bounds how much log can pile up
    /// between truncations.
    pub(crate) fn checkpointer_loop(self: std::sync::Arc<Self>) {
        let interval = self.cfg.logging.msp_ckpt_interval;
        let byte_interval = self.cfg.logging.checkpoint_interval_bytes;
        let mut last_end = self.log().end_lsn().0;
        while !self.stopped() {
            // Sleep in small slices so shutdown is prompt and log growth
            // is noticed early.
            let mut remaining = interval;
            let mut byte_due = false;
            while remaining > Duration::ZERO && !self.stopped() {
                let slice = remaining.min(Duration::from_millis(20));
                std::thread::sleep(slice);
                remaining = remaining.saturating_sub(slice);
                if byte_interval > 0
                    && self.log().end_lsn().0.saturating_sub(last_end) >= byte_interval
                {
                    byte_due = true;
                    break;
                }
            }
            if self.stopped() {
                return;
            }
            if byte_due {
                self.stats
                    .checkpoints_scheduled
                    .fetch_add(1, Ordering::Relaxed);
            }
            let _ = self.msp_checkpoint();
            last_end = self.log().end_lsn().0;
        }
    }
}
