//! Recovery processing (§4): session orphan recovery, shared-state roll
//! forward, and MSP crash recovery.
//!
//! Three flows share the replay engine in [`crate::replay`]:
//!
//! * **Session orphan recovery** (§4.1) — a live session whose DV refers
//!   to a state some peer lost: reset to the last checkpoint and replay
//!   the position stream; replay terminates at the orphan record, writes
//!   an EOS, and the in-progress method continues live.
//! * **Session recovery after the scan** (§4.3) — the same procedure over
//!   a position stream rebuilt by the analysis scan, with the EOS-found
//!   handling for skip ranges recorded by pre-crash recoveries.
//! * **MSP crash recovery** (§4.3, Figure 12) — re-initialize from the
//!   anchored MSP checkpoint, run a pipelined analysis scan (a prefetch
//!   stage streams 64 KB chunks ahead of decode) that rebuilds position
//!   streams / rolls shared variables forward / gathers recovered-state
//!   knowledge and **keeps the session records it decoded** in
//!   per-session replay queues, broadcast our own recovered state number,
//!   then replay all sessions **in parallel** on a dedicated recovery
//!   pool — longest window first, from their queues — while the recovery
//!   checkpoint is taken and the worker pool is already accepting new
//!   work. The log is read once: each queue holds its session's whole
//!   replay window.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use msp_types::{Lsn, MspError, MspResult, RecoveryRecord, SessionId};
use msp_wal::log::DATA_START;
use msp_wal::record::MspCheckpointBody;
use msp_wal::{CrashPoint, LogRecord, PositionStream};

use crate::envelope::ReplyStatus;
use crate::replay::{Consume, ReplayCursor, ReplayQueue};
use crate::runtime::MspInner;
use crate::service::{take_fatal, ServiceContext};
use crate::session::{SessionCell, SessionState};

/// What `crash_recover` hands back to the builder.
pub(crate) struct RecoveryOutcome {
    /// Our recovery record to broadcast in the domain (`None` on a fresh
    /// log — nothing to recover, nothing to announce).
    pub announce: Option<RecoveryRecord>,
    /// Sessions to hand to the recovery pool, paired with their replay
    /// window's byte span and pre-ordered for the pool: longest window
    /// first (LPT makespan scheduling), or by id under `serial_recovery`.
    pub sessions_to_replay: Vec<(SessionId, u64)>,
}

/// What the analysis scan has gathered about one session.
struct ScannedSession {
    /// Where replay starts, and whether that is a session checkpoint.
    anchor: (Lsn, bool),
    stream: PositionStream,
    /// `None` under `serial_recovery`, which re-reads the log.
    queue: Option<Box<ReplayQueue>>,
}

/// The session whose replay stream `record` belongs to, if any. Shared
/// writes belong to *two* recovery units: the variable rolls forward
/// from them, and they join the writing session's stream — the replay
/// write half consumes them, so one the crash cut off surfaces
/// as end-of-stream and re-executes live instead of being silently
/// dropped (on a striped log it lives on the variable's stripe and can be
/// lost while the session's own records survive).
fn stream_session(record: &LogRecord) -> Option<SessionId> {
    match record {
        LogRecord::RequestReceive { session, .. }
        | LogRecord::ReplyReceive { session, .. }
        | LogRecord::SharedRead { session, .. }
        | LogRecord::SharedWrite { session, .. }
        | LogRecord::OutgoingBind { session, .. }
        | LogRecord::Eos { session, .. } => Some(*session),
        _ => None,
    }
}

impl MspInner {
    /// Recover one session to its most recent non-orphan state (§4.1).
    /// The caller holds the session's state lock, so new requests bounce
    /// with *Busy* until recovery completes.
    pub(crate) fn recover_session_locked(
        &self,
        cell: &SessionCell,
        st: &mut SessionState,
    ) -> MspResult<()> {
        let r = self.recover_session_inner(cell, st);
        if r.is_err() {
            // Leave a breadcrumb so the next interception retries.
            st.needs_recovery = true;
        }
        r
    }

    fn recover_session_inner(&self, cell: &SessionCell, st: &mut SessionState) -> MspResult<()> {
        self.stats.orphan_recoveries.fetch_add(1, Ordering::Relaxed);
        let log = self.log();
        let me = self.cfg.id;

        // After a crash the analysis scan left this session's records in
        // its queue. Without one (live orphan recovery, the serial
        // baseline, a session recovered again after a peer's crash)
        // replay reads the log directly.
        let mut queue = st.replay_queue.take();

        // Snapshot the replay window, then reset the session to its most
        // recent checkpoint (or to a fresh state).
        let positions: Vec<Lsn> = st.positions.iter().collect();
        let ckpt_record = match st.last_ckpt {
            Some(ckpt) => Some((
                ckpt,
                match queue.as_mut().and_then(|q| q.take_checkpoint(ckpt)) {
                    Some(held) => held,
                    None => log.read_record(ckpt)?,
                },
            )),
            None => None,
        };
        let restored = match ckpt_record {
            Some((ckpt, LogRecord::SessionCheckpoint { body, .. })) => {
                SessionState::restore_from_checkpoint(&body, me, self.epoch(), ckpt)
            }
            Some((ckpt, other)) => {
                return Err(MspError::LogCorrupt {
                    offset: ckpt.0,
                    reason: format!(
                        "session {} checkpoint anchor points at {}",
                        cell.id,
                        other.kind()
                    ),
                })
            }
            None => SessionState::fresh(),
        };
        *st = restored;

        // I/O accounting: the queue costs nothing (the scan paid for those
        // bytes). Without one, charge the whole window sequentially (§5.4:
        // replay reads 64 KB chunks).
        if queue.is_none() {
            if let (Some(&first), Some(&last)) = (positions.first(), positions.last()) {
                log.charge_sequential_read(last.0 - first.0 + 1);
            }
        }

        let mut cursor = ReplayCursor::new(positions);
        if let Some(queue) = queue {
            cursor = cursor.with_queue(*queue);
        }
        loop {
            // Crash site: the kill lands mid-replay of this recovery —
            // the crash-during-recovery case of §4.5. The error unwinds
            // the replaying thread (pool or inline) with the session left
            // marked `needs_recovery` for the *next* incarnation.
            if log.fault_point(CrashPoint::ReplayStep) {
                return Err(MspError::Shutdown);
            }
            let step = {
                // Re-read knowledge each iteration: another MSP may crash
                // *during* this recovery, and replay must see it (§4.1,
                // "orphan recovery upon multiple crashes").
                let knowledge = self.knowledge.read();
                cursor.consume(log, &knowledge, me, cell.id)?
            };
            match step {
                Consume::WentLive => break,
                Consume::Record {
                    lsn,
                    record,
                    framed,
                } => match record {
                    LogRecord::RequestReceive {
                        seq,
                        method,
                        payload,
                        sender_dv,
                        ..
                    } => {
                        self.stats.replayed_requests.fetch_add(1, Ordering::Relaxed);
                        if let Some(dv) = &sender_dv {
                            st.dv.merge_from(dv);
                        }
                        st.note_logged(me, self.epoch(), lsn, framed);
                        let Some(svc) = self.services.get(&method).cloned() else {
                            return Err(MspError::LogCorrupt {
                                offset: lsn.0,
                                reason: format!("logged request for unknown method {method}"),
                            });
                        };
                        // Re-execute; the context consumes this request's
                        // records from the cursor and may switch to live
                        // execution at the replay boundary.
                        let (result, fatal) = {
                            let mut ctx = ServiceContext::replaying(self, cell.id, st, &mut cursor);
                            let r = svc(&mut ctx, &payload);
                            let f = ctx.fatal.take();
                            (r, f)
                        };
                        let result = take_fatal(result, fatal)?;
                        let status = match result {
                            Ok(p) => ReplyStatus::Ok(p),
                            Err(e) => ReplyStatus::Err(e),
                        };
                        // Replies are buffered, never pushed: any client
                        // that is still waiting is resending, and the
                        // duplicate path returns the buffered reply.
                        st.buffered_reply = Some((seq, status));
                        st.next_expected = seq.next();
                    }
                    LogRecord::SessionEnd { .. } => {
                        st.ended = true;
                        break;
                    }
                    other => {
                        // SessionCheckpoint cannot appear (streams are
                        // truncated at checkpoints); SharedRead /
                        // ReplyReceive outside a request would be a
                        // determinism violation.
                        return Err(MspError::LogCorrupt {
                            offset: lsn.0,
                            reason: format!(
                                "unexpected {} at request boundary during replay",
                                other.kind()
                            ),
                        });
                    }
                },
            }
        }
        st.needs_recovery = false;
        cell.sync_anchor(st);
        if st.ended {
            self.tombstone_session(cell.id);
        }
        Ok(())
    }

    /// MSP crash recovery (Figure 12). Runs before the runtime goes live;
    /// returns the broadcast record and the sessions the recovery pool
    /// should replay (pre-ordered, with their window spans).
    pub(crate) fn crash_recover(&self) -> MspResult<RecoveryOutcome> {
        let log = self.log();
        if log.is_blank()? {
            log.resume_at(Lsn(DATA_START));
            // First boot. Make incarnation 0 durable before serving:
            // without this marker, a crash before our first data flush
            // leaves an empty durable log again, the next boot cannot
            // tell it was a recovery, and the crash is never announced —
            // peers then keep state that depended on the lost tail
            // forever (no epoch bump means no orphan can ever be
            // detected). With the marker, that crash recovers to epoch 1
            // with a recovered LSN just past the marker, orphaning
            // everything the lost incarnation handed out.
            let lsn = log.append(&LogRecord::RecoveryComplete {
                new_epoch: msp_types::Epoch(0),
                recovered_lsn: Lsn(DATA_START),
            });
            log.flush_to(lsn)?;
            return Ok(RecoveryOutcome {
                announce: None,
                sessions_to_replay: Vec::new(),
            });
        }
        self.stats.crash_recoveries.fetch_add(1, Ordering::Relaxed);
        let me = self.cfg.id;
        let t_analysis = Instant::now();

        // 1. Re-initialize from the most recent MSP checkpoint (via the
        //    log anchor); absent one, scan the whole log.
        let anchor_lsn = self.anchor.as_ref().expect("LogBased").read()?;
        let mut epoch_base = msp_types::Epoch(0);
        let mut scan_start = Lsn(DATA_START);
        if let Some(ckpt_lsn) = anchor_lsn {
            match log.read_record(ckpt_lsn)? {
                LogRecord::MspCheckpoint(body) => {
                    self.absorb_msp_checkpoint_body(&body, &mut epoch_base);
                    scan_start = body.min_lsn;
                }
                other => {
                    return Err(MspError::LogCorrupt {
                        offset: ckpt_lsn.0,
                        reason: format!("log anchor points at {}", other.kind()),
                    })
                }
            }
        }
        // Truncation keeps the floor at or below every anchored scan
        // start, so this clamp is normally a no-op — it is defense in
        // depth against ever scanning bytes the device reclaimed.
        scan_start = scan_start.max(log.floor());

        // 2. Analysis scan: rebuild position streams, roll shared
        //    variables forward, gather knowledge — and keep what was
        //    decoded. Each session-stream record moves, with its framed
        //    length, into its session's replay queue, so replay does not
        //    read and decode the window a second time. A queue holds the
        //    whole window: with checkpoints on, the session checkpointing
        //    threshold bounds it; with them off it is the scanned log.
        //    The parallel engine streams chunks off the disk in a
        //    prefetch stage so decode overlaps I/O; the serial baseline
        //    alternates read/decode, retains nothing and replays from the
        //    log — the independent oracle for all of the above.
        let serial = self.cfg.serial_recovery;
        let mut sessions: HashMap<SessionId, ScannedSession> = HashMap::new();
        let mut ended: HashSet<SessionId> = HashSet::new();
        let mut scan = if serial {
            log.scan_from(scan_start)
        } else {
            log.scan_from_pipelined(scan_start)
        };
        while let Some(item) = scan.next() {
            let (lsn, record) = item?;
            // After a pull the scanner sits at the record's end.
            let framed = scan.position().0 - lsn.0;
            match &record {
                LogRecord::SessionEnd { session } => {
                    ended.insert(*session);
                    sessions.remove(session);
                }
                LogRecord::SharedCheckpoint { var, value } => {
                    if let Some(v) = self.shared.get(*var) {
                        let mut vst = v.state.lock();
                        vst.value = value.clone();
                        vst.dv.clear();
                        vst.chain_head = lsn;
                        vst.last_ckpt = Some(lsn);
                        vst.writes_since_ckpt = 0;
                        v.sync_anchor(&vst);
                    }
                }
                LogRecord::SharedWrite {
                    var,
                    value,
                    writer_dv,
                    ..
                } => {
                    if let Some(v) = self.shared.get(*var) {
                        let mut vst = v.state.lock();
                        vst.value = value.clone();
                        vst.dv = writer_dv.clone();
                        vst.chain_head = lsn;
                        if vst.first_write.is_none() {
                            vst.first_write = Some(lsn);
                        }
                        vst.writes_since_ckpt += 1;
                        v.sync_anchor(&vst);
                    }
                }
                LogRecord::RecoveryAnnouncement(rec) => {
                    self.knowledge.write().record(*rec);
                }
                LogRecord::RecoveryComplete { new_epoch, .. } => {
                    epoch_base = epoch_base.max(*new_epoch);
                }
                LogRecord::MspCheckpoint(body) => {
                    self.absorb_msp_checkpoint_body(body, &mut epoch_base);
                }
                // The striped scanner unwraps stripe envelopes before
                // yielding; one surviving here means a stripe device was
                // scanned without its merge layer.
                LogRecord::Striped { .. } => {
                    return Err(MspError::LogCorrupt {
                        offset: lsn.0,
                        reason: "stripe envelope leaked into analysis scan".into(),
                    })
                }
                // Session records only join a stream, below.
                LogRecord::SessionCheckpoint { .. }
                | LogRecord::RequestReceive { .. }
                | LogRecord::ReplyReceive { .. }
                | LogRecord::SharedRead { .. }
                | LogRecord::OutgoingBind { .. }
                | LogRecord::Eos { .. } => {}
            }
            if let LogRecord::SessionCheckpoint { session, .. } = &record {
                // A checkpoint restarts the stream (and the queue) at itself.
                sessions.insert(
                    *session,
                    ScannedSession {
                        anchor: (lsn, true),
                        stream: PositionStream::new(),
                        queue: (!serial).then(|| Box::new(ReplayQueue::at_checkpoint(lsn, record))),
                    },
                );
            } else if let Some(session) = stream_session(&record) {
                if !ended.contains(&session) {
                    let scanned = sessions.entry(session).or_insert_with(|| ScannedSession {
                        anchor: (lsn, false),
                        stream: PositionStream::new(),
                        queue: (!serial).then(Box::<ReplayQueue>::default),
                    });
                    scanned.stream.push(lsn);
                    if let Some(queue) = &mut scanned.queue {
                        queue.push(record, framed);
                    }
                }
            }
        }

        // Sessions whose SessionEnd survived are gone for good: seed the
        // runtime tombstones so no late traffic can resurrect them.
        self.ended_sessions.lock().extend(ended.iter().copied());

        // 3. The scan stopped at the first torn or absent frame: that is
        //    the log's append point, handed to the log here because it
        //    was opened unpositioned (no walk of its own), and everything
        //    at or beyond it is lost. The largest persistent LSN, just
        //    below it, bounds what survived.
        let end = scan.position();
        drop(scan);
        log.resume_at(end);
        let recovered_lsn = Lsn(end.0.saturating_sub(1));
        self.stats
            .recovery_analysis_nanos
            .store(t_analysis.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let new_epoch = epoch_base.next();
        self.epoch.store(new_epoch.0, Ordering::Release);
        let own = RecoveryRecord {
            msp: me,
            new_epoch,
            recovered_lsn,
        };
        // Our own history backs flush-request verdicts about old epochs.
        self.knowledge.write().record(own);
        let lsn = log.append(&LogRecord::RecoveryComplete {
            new_epoch,
            recovered_lsn,
        });
        log.flush_to(lsn)?;

        // 4. Materialize the sessions in "awaiting replay" state. Their
        //    requests either bounce Busy or recover inline — the queue
        //    travels in the session's state, so whichever thread gets
        //    there first takes it — until the recovery pool reaches them.
        let mut to_replay = Vec::new();
        let mut retained_bytes = 0;
        {
            let mut live = self.sessions.lock();
            for (sid, scanned) in sessions {
                let (anchor, is_ckpt) = scanned.anchor;
                if let Some(queue) = &scanned.queue {
                    retained_bytes += queue.retained_bytes();
                }
                to_replay.push((sid, scanned.stream.span_bytes()));
                let mut st = SessionState::fresh();
                st.positions = scanned.stream;
                st.first_lsn = Some(anchor);
                st.last_ckpt = is_ckpt.then_some(anchor);
                st.needs_recovery = true;
                st.replay_queue = scanned.queue;
                live.insert(sid, Arc::new(SessionCell::new(sid, st)));
            }
        }
        self.stats
            .recovery_retained_bytes
            .store(retained_bytes, Ordering::Relaxed);
        if serial {
            // The legacy deterministic order: ascending session id.
            to_replay.sort_unstable_by_key(|&(sid, _)| sid);
        } else {
            // Longest window first: LPT scheduling minimizes the replay
            // pool's makespan (ties broken by id for determinism).
            to_replay.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        Ok(RecoveryOutcome {
            announce: Some(own),
            sessions_to_replay: to_replay,
        })
    }

    fn absorb_msp_checkpoint_body(
        &self,
        body: &MspCheckpointBody,
        epoch_base: &mut msp_types::Epoch,
    ) {
        self.knowledge.write().merge_from(&body.knowledge);
        *epoch_base = (*epoch_base).max(body.epoch);
    }
}
