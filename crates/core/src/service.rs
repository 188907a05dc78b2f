//! The service-method programming surface.
//!
//! A service method is a deterministic function
//! `Fn(&mut ServiceContext, &[u8]) -> Result<Vec<u8>, String>` registered
//! under a name. The context exposes exactly the paper's three kinds of
//! interaction (§2.2):
//!
//! * **session variables** — private per-client state, never logged
//!   (recovery re-executes methods to reconstruct it);
//! * **shared variables** — value-logged, lock-per-access;
//! * **outgoing calls** — synchronous RPCs to other MSPs over the
//!   session's outgoing sessions.
//!
//! The *same* context runs normal execution and recovery replay. In
//! replay mode the nondeterministic inputs come from the log (§4.1):
//! reads return logged values, calls return logged replies, writes are
//! skipped. When replay hits the boundary — an orphan record or the end
//! of the logged history — the context switches itself to live execution
//! and the method keeps running, now with real effects. Service code
//! cannot tell the difference, which is what makes the infrastructure
//! transparent.
//!
//! **Determinism contract**: a method's behaviour must be a pure function
//! of its session state, its payload, and the values the context hands it.
//! No wall-clock reads, no thread-local randomness, no ambient I/O —
//! violations surface as `LogCorrupt` replay-mismatch errors at recovery
//! time rather than silent divergence.

use std::sync::Arc;

use msp_types::{Lsn, MspError, MspId, MspResult, SessionId};
use msp_wal::LogRecord;

use crate::envelope::ReplyStatus;
use crate::replay::{replay_mismatch, Consume, ReplayCursor};
use crate::runtime::MspInner;
use crate::session::{decode_reply, OutgoingSession, SessionState};

/// A registered service method.
pub type ServiceFn =
    Arc<dyn Fn(&mut ServiceContext<'_>, &[u8]) -> Result<Vec<u8>, String> + Send + Sync>;

/// Error string propagated through application code when the
/// infrastructure must abort the method (session discovered to be an
/// orphan mid-execution). Worker code detects it via
/// `ServiceContext::fatal` and runs orphan recovery; the string exists
/// only because application closures return `Result<_, String>`.
pub const FATAL_MARKER: &str = "__msp_infra_fatal__";

/// What a service method sees while it runs.
pub struct ServiceContext<'a> {
    pub(crate) inner: &'a MspInner,
    pub(crate) session_id: SessionId,
    pub(crate) state: &'a mut SessionState,
    /// `Some` while replaying; the cursor flips itself live at the replay
    /// boundary.
    pub(crate) cursor: Option<&'a mut ReplayCursor>,
    /// Set when the infrastructure aborted the method (e.g. the session
    /// became an orphan mid-execution); the worker inspects this after
    /// the method returns.
    pub(crate) fatal: Option<MspError>,
}

impl<'a> ServiceContext<'a> {
    pub(crate) fn live(
        inner: &'a MspInner,
        session_id: SessionId,
        state: &'a mut SessionState,
    ) -> ServiceContext<'a> {
        ServiceContext {
            inner,
            session_id,
            state,
            cursor: None,
            fatal: None,
        }
    }

    pub(crate) fn replaying(
        inner: &'a MspInner,
        session_id: SessionId,
        state: &'a mut SessionState,
        cursor: &'a mut ReplayCursor,
    ) -> ServiceContext<'a> {
        ServiceContext {
            inner,
            session_id,
            state,
            cursor: Some(cursor),
            fatal: None,
        }
    }

    /// The session this request runs on.
    pub fn session_id(&self) -> SessionId {
        self.session_id
    }

    /// The MSP executing this method.
    pub fn msp_id(&self) -> MspId {
        self.inner.cfg.id
    }

    /// Whether this execution is (still) recovery replay. Exposed for
    /// tests and diagnostics; service logic must NOT branch on it.
    pub fn is_replaying(&self) -> bool {
        self.cursor.as_ref().is_some_and(|c| !c.went_live)
    }

    /// Read a session variable (private state; not logged).
    pub fn get_session(&self, name: &str) -> Option<Vec<u8>> {
        self.state.vars.get(name).cloned()
    }

    /// Write a session variable (private state; not logged — recovery
    /// reconstructs it by re-execution).
    pub fn set_session(&mut self, name: &str, value: Vec<u8>) {
        self.state.vars.insert(name.to_string(), value);
    }

    fn mark_fatal(&mut self, e: MspError) -> String {
        self.fatal = Some(e);
        FATAL_MARKER.to_string()
    }

    /// Read a shared variable (Figure 8, read column).
    pub fn read_shared(&mut self, name: &str) -> Result<Vec<u8>, String> {
        let var_id = self
            .inner
            .shared
            .resolve(name)
            .ok_or_else(|| format!("no such shared variable: {name}"))?;

        // Replay path: take the value from the SharedRead record.
        if self.is_replaying() {
            let log = self.inner.log.as_ref().expect("replay requires a log");
            let knowledge = self.inner.knowledge.read();
            let cursor = self.cursor.as_mut().expect("is_replaying checked");
            match cursor
                .consume(log, &knowledge, self.inner.cfg.id, self.session_id)
                .map_err(|e| e.to_string())?
            {
                Consume::Record {
                    lsn,
                    record,
                    framed,
                } => match record {
                    LogRecord::SharedRead {
                        var, value, var_dv, ..
                    } if var == var_id => {
                        self.state.dv.merge_from(&var_dv);
                        self.state
                            .note_logged(self.inner.cfg.id, self.inner.epoch(), lsn, framed);
                        return Ok(value);
                    }
                    other => return Err(replay_mismatch(lsn, "SharedRead", &other).to_string()),
                },
                Consume::WentLive => { /* fall through to the live read */ }
            }
        }

        let var = self.inner.shared.get(var_id).expect("resolved id");
        if let Some(log) = &self.inner.log {
            let me = self.inner.cfg.id;
            let epoch = self.inner.epoch();
            let knowledge = self.inner.knowledge.read();
            // Interception point (§4.1): accessing a shared variable
            // re-checks the session — and must do so before the read
            // merges the variable's DV, which could otherwise mask an
            // orphaned entry with a newer-epoch one.
            if knowledge.is_orphan(&self.state.dv, me) {
                drop(knowledge);
                return Err(self.mark_fatal(MspError::Orphan {
                    session: self.session_id,
                }));
            }
            let env = crate::shared::SharedEnv {
                me,
                epoch,
                log,
                knowledge: &knowledge,
            };
            crate::shared::read_shared(&env, var, self.session_id, self.state)
                .map_err(|e| self.mark_fatal(e))
        } else {
            // Baselines: plain in-memory access.
            Ok(var.state.lock().value.clone())
        }
    }

    /// Write a shared variable (Figure 8, write column). During replay
    /// the `SharedWrite` record is *consumed* from the session's stream —
    /// the variable itself still rolls forward from its own records, so
    /// the consume applies nothing; it confirms the write survived the
    /// crash. If the stream ends at the write (on a striped log the
    /// record lives on the *variable's* stripe and can be the first lost
    /// gsn while the session's own records survive), replay goes live
    /// here and the write re-executes, re-appending a fresh record — the
    /// effect the replayed method's reply promises is made real instead
    /// of silently dropped.
    pub fn write_shared(&mut self, name: &str, value: Vec<u8>) -> Result<(), String> {
        let var_id = self
            .inner
            .shared
            .resolve(name)
            .ok_or_else(|| format!("no such shared variable: {name}"))?;
        if self.is_replaying() {
            let log = self.inner.log.as_ref().expect("replay requires a log");
            let knowledge = self.inner.knowledge.read();
            let cursor = self.cursor.as_mut().expect("is_replaying checked");
            match cursor
                .consume(log, &knowledge, self.inner.cfg.id, self.session_id)
                .map_err(|e| e.to_string())?
            {
                Consume::Record {
                    lsn,
                    record,
                    framed,
                } => match record {
                    LogRecord::SharedWrite {
                        var, value: logged, ..
                    } if var == var_id => {
                        if logged != value {
                            return Err(MspError::LogCorrupt {
                                offset: lsn.0,
                                reason: "replay determinism violation: \
                                         re-executed write differs from the logged value"
                                    .into(),
                            }
                            .to_string());
                        }
                        drop(knowledge);
                        self.state
                            .note_logged(self.inner.cfg.id, self.inner.epoch(), lsn, framed);
                        return Ok(());
                    }
                    other => return Err(replay_mismatch(lsn, "SharedWrite", &other).to_string()),
                },
                Consume::WentLive => { /* lost write: fall through and re-execute */ }
            }
        }
        self.live_write(var_id, value)
    }

    /// The live write path, shared by normal execution and the
    /// lost-write replay boundary (`write_shared` / `update_shared`).
    fn live_write(&mut self, var_id: msp_types::VarId, value: Vec<u8>) -> Result<(), String> {
        let var = self.inner.shared.get(var_id).expect("resolved id");
        if let Some(log) = &self.inner.log {
            let write_lsn = {
                let me = self.inner.cfg.id;
                let epoch = self.inner.epoch();
                let knowledge = self.inner.knowledge.read();
                // Interception point (§4.1): an orphaned writer must not
                // push its doomed dependencies into the variable.
                if knowledge.is_orphan(&self.state.dv, me) {
                    drop(knowledge);
                    return Err(self.mark_fatal(MspError::Orphan {
                        session: self.session_id,
                    }));
                }
                let env = crate::shared::SharedEnv {
                    me,
                    epoch,
                    log,
                    knowledge: &knowledge,
                };
                // The session's stream membership and self-entry for the
                // write (reply-durability cover on the variable's stripe)
                // happen inside: see `shared::write_shared`.
                crate::shared::write_shared(&env, var, self.session_id, self.state, value)
                    .map_err(|e| self.mark_fatal(e))?
            };
            // Shared-variable checkpointing by write-count threshold (§3.3).
            self.inner
                .maybe_shared_checkpoint(var, write_lsn)
                .map_err(|e| self.mark_fatal(e))?;
            Ok(())
        } else {
            var.state.lock().value = value;
            Ok(())
        }
    }

    /// Atomic read-modify-write of a shared variable (the read and write
    /// columns of Figure 8 under a single hold of the variable's lock).
    ///
    /// `f` maps the current value to `(new_value, result)`; the variable
    /// takes `new_value` and `result` is returned to the caller. Unlike a
    /// split `read_shared` + `write_shared` pair, no other session can
    /// interleave between the read and the write, so counter-style
    /// updates are lost-update safe. The logged record stream is the same
    /// `SharedRead`/`SharedWrite` pair the split calls produce.
    ///
    /// During replay, `f` is applied to the value from the `SharedRead`
    /// record and the paired `SharedWrite` is then consumed from the
    /// stream (applying nothing — the variable is its own recovery unit
    /// and rolls forward from its own records) — so `f` must be a pure
    /// function of the value for re-execution to be deterministic.
    ///
    /// A crash can cut the log *between* the pair: the read survived the
    /// frontier but the write was never appended (or died with a stripe
    /// tail — on a striped log the two records live on different
    /// stripes). The logged read is then **stale**: the variable keeps
    /// serving other sessions after recovery, so by the time this
    /// session replays, the rolled-forward value may have moved past
    /// what the read saw. The update therefore re-executes *live* —
    /// re-read under the variable lock, re-apply `f` — rather than
    /// blindly writing the value derived from the stale read (which
    /// would roll the variable back over every interleaved update).
    /// The consumed stale read stays in the session's stream, followed
    /// by the fresh pair the re-execution appends; replay accepts such
    /// runs of reads and applies `f` to the last one, the only read
    /// that ever fed a write.
    pub fn update_shared<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&[u8]) -> (Vec<u8>, T),
    ) -> Result<T, String> {
        let var_id = self
            .inner
            .shared
            .resolve(name)
            .ok_or_else(|| format!("no such shared variable: {name}"))?;
        // `f` runs exactly once, on whichever path ends the update: the
        // slot lets it cross from the replay loop to the live fallback.
        let mut f = Some(f);

        // Replay path: consume the run of SharedReads (stale ones from
        // interrupted attempts, then the one that fed the write), apply
        // `f` to the last, and consume the paired SharedWrite. A stream
        // ending before the write means the effect never became durable
        // — fall through and re-execute the whole update live.
        if self.is_replaying() {
            let me = self.inner.cfg.id;
            let mut last_read: Option<Vec<u8>> = None;
            loop {
                let consumed = {
                    let log = self.inner.log.as_ref().expect("replay requires a log");
                    let knowledge = self.inner.knowledge.read();
                    let cursor = self.cursor.as_mut().expect("is_replaying checked");
                    cursor
                        .consume(log, &knowledge, me, self.session_id)
                        .map_err(|e| e.to_string())?
                };
                match consumed {
                    Consume::Record {
                        lsn,
                        record,
                        framed,
                    } => match record {
                        LogRecord::SharedRead {
                            var, value, var_dv, ..
                        } if var == var_id => {
                            self.state.dv.merge_from(&var_dv);
                            self.state.note_logged(me, self.inner.epoch(), lsn, framed);
                            last_read = Some(value);
                        }
                        LogRecord::SharedWrite {
                            var, value: logged, ..
                        } if var == var_id && last_read.is_some() => {
                            let value = last_read.take().expect("guarded");
                            let (new, out) = (f.take().expect("closure unconsumed"))(&value);
                            if logged != new {
                                return Err(MspError::LogCorrupt {
                                    offset: lsn.0,
                                    reason: "replay determinism violation: \
                                             re-executed update differs from \
                                             the logged write"
                                        .into(),
                                }
                                .to_string());
                            }
                            self.state.note_logged(me, self.inner.epoch(), lsn, framed);
                            return Ok(out);
                        }
                        other => {
                            let want = if last_read.is_some() {
                                "SharedRead|SharedWrite"
                            } else {
                                "SharedRead"
                            };
                            return Err(replay_mismatch(lsn, want, &other).to_string());
                        }
                    },
                    // End of stream before the write: nothing of this
                    // update survived, or only stale reads did. Either
                    // way the durable world never saw the effect — redo
                    // it live against the current value.
                    Consume::WentLive => break,
                }
            }
        }

        let f = f.take().expect("closure unconsumed");
        let var = self.inner.shared.get(var_id).expect("resolved id");
        if let Some(log) = &self.inner.log {
            let mut result = None;
            let write_lsn = {
                let me = self.inner.cfg.id;
                let epoch = self.inner.epoch();
                let knowledge = self.inner.knowledge.read();
                // Interception point (§4.1), before the read merges the
                // variable's DV — see read_shared. The write half needs no
                // second check: the rolled-back variable DV is clean, so
                // merging it cannot newly orphan the session.
                if knowledge.is_orphan(&self.state.dv, me) {
                    drop(knowledge);
                    return Err(self.mark_fatal(MspError::Orphan {
                        session: self.session_id,
                    }));
                }
                let env = crate::shared::SharedEnv {
                    me,
                    epoch,
                    log,
                    knowledge: &knowledge,
                };
                // Stream membership and the self-entry covering the write
                // happen inside (see `shared::write_shared`).
                let (_, lsn) =
                    crate::shared::update_shared(&env, var, self.session_id, self.state, |old| {
                        let (new, t) = f(old);
                        result = Some(t);
                        new
                    })
                    .map_err(|e| self.mark_fatal(e))?;
                lsn
            };
            self.inner
                .maybe_shared_checkpoint(var, write_lsn)
                .map_err(|e| self.mark_fatal(e))?;
            Ok(result.expect("update closure ran"))
        } else {
            // Baselines: plain in-memory access, still under one lock hold.
            let mut st = var.state.lock();
            let (new, t) = f(&st.value);
            st.value = new;
            Ok(t)
        }
    }

    /// Call a service method at another MSP over this session's outgoing
    /// session to that MSP (synchronous RPC). A live cross-domain call
    /// performs the pessimistic pre-send flush; the worker hands its run
    /// token back to the pool while it waits out the gate and the reply,
    /// so chained calls (m ≥ 2) pipeline across the pool instead of
    /// serializing on flush waits.
    pub fn call(&mut self, target: MspId, method: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        // Replay path: the reply comes from the ReplyReceive record;
        // requests are not re-sent (§4.1). A first call to a target is
        // preceded in the stream by its OutgoingBind record — restore the
        // binding and keep consuming.
        while self.is_replaying() {
            let log = self.inner.log.as_ref().expect("replay requires a log");
            let consumed = {
                let knowledge = self.inner.knowledge.read();
                let cursor = self.cursor.as_mut().expect("is_replaying checked");
                cursor
                    .consume(log, &knowledge, self.inner.cfg.id, self.session_id)
                    .map_err(|e| e.to_string())?
            };
            match consumed {
                Consume::Record {
                    lsn,
                    record,
                    framed,
                } => match record {
                    LogRecord::OutgoingBind {
                        target: bind_target,
                        outgoing,
                        ..
                    } => {
                        self.state.outgoing.insert(
                            bind_target,
                            OutgoingSession {
                                id: outgoing,
                                next_seq: msp_types::RequestSeq::FIRST,
                            },
                        );
                        self.state
                            .note_logged(self.inner.cfg.id, self.inner.epoch(), lsn, framed);
                        continue;
                    }
                    LogRecord::ReplyReceive {
                        outgoing,
                        seq,
                        payload,
                        sender_dv,
                        ..
                    } => {
                        // Rebind the outgoing session exactly as normal
                        // execution would have left it.
                        self.state.outgoing.insert(
                            target,
                            OutgoingSession {
                                id: outgoing,
                                next_seq: seq.next(),
                            },
                        );
                        if let Some(dv) = &sender_dv {
                            self.state.dv.merge_from(dv);
                        }
                        self.state
                            .note_logged(self.inner.cfg.id, self.inner.epoch(), lsn, framed);
                        return match decode_reply(&payload) {
                            ReplyStatus::Ok(p) => Ok(p),
                            ReplyStatus::Err(e) => Err(e),
                            ReplyStatus::Busy => {
                                Err("corrupt log: buffered Busy reply".to_string())
                            }
                        };
                    }
                    other => return Err(replay_mismatch(lsn, "ReplyReceive", &other).to_string()),
                },
                Consume::WentLive => {
                    // If replay terminated *at* the reply we were waiting
                    // for (it was an orphan), restore the outgoing-session
                    // binding from the orphan record so the live resend
                    // reuses the same session and sequence number —
                    // otherwise the target would execute the request a
                    // second time under a fresh session.
                    if let Some(orphan_lsn) = self.orphan_boundary() {
                        if let Ok(LogRecord::ReplyReceive { outgoing, seq, .. }) =
                            log.read_record(orphan_lsn)
                        {
                            self.state.outgoing.insert(
                                target,
                                OutgoingSession {
                                    id: outgoing,
                                    next_seq: seq,
                                },
                            );
                        }
                    }
                    break; // fall through to the live call
                }
            }
        }

        self.inner
            .outgoing_call(self.state, self.session_id, target, method, payload)
            .map_err(|e| match e {
                MspError::Application(msg) => msg,
                other => self.mark_fatal(other),
            })
    }

    fn orphan_boundary(&self) -> Option<Lsn> {
        self.cursor.as_ref().and_then(|c| c.orphan_hit)
    }
}

/// Extract an infrastructure-fatal error from a method result, if the
/// marker string came back (used by the worker after running a method).
pub fn take_fatal(
    result: Result<Vec<u8>, String>,
    fatal: Option<MspError>,
) -> MspResult<Result<Vec<u8>, String>> {
    match (result, fatal) {
        (Err(msg), Some(e)) if msg == FATAL_MARKER => Err(e),
        // The method swallowed or rewrapped the marker but an
        // infrastructure error occurred: the infra error wins — the
        // request must not produce a normal reply from a broken run.
        (_, Some(e)) => Err(e),
        (r, None) => Ok(r),
    }
}
