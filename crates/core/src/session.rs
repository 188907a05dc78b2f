//! Client sessions: the paper's *recovery units* (§3.2).
//!
//! A session holds the client's private state (session variables), its
//! dependency vector, its request-sequencing state, and the bookkeeping
//! that drives checkpointing and recovery: the position stream, the log
//! consumption counter and the checkpoint anchor. Within a session, at
//! most one request is processed at a time (§2.1) — enforced by the
//! per-session mutex; requests over different sessions run concurrently on
//! the thread pool.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use msp_types::{DependencyVector, Epoch, Lsn, MspId, RequestSeq, SessionId, StateId};
use msp_wal::record::SessionCheckpointBody;
use msp_wal::PositionStream;

use crate::envelope::ReplyStatus;
use crate::replay::ReplayQueue;

/// An outgoing session this session has started at another MSP (§2.1,
/// Figure 3: `SEc` is the client of `SEs`). `next_seq` only advances
/// when the reply has been received and logged, so at most one request
/// per outgoing session is ever in flight — which is what lets a
/// cross-domain send wait out its durability gate without any
/// per-target reordering risk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutgoingSession {
    pub id: SessionId,
    pub next_seq: RequestSeq,
}

/// The mutable state of one session, guarded by [`SessionCell::state`].
#[derive(Debug, Default)]
pub struct SessionState {
    /// Private session variables (name → value). Not logged: recovery
    /// re-executes service methods to reconstruct them (§3.2).
    pub vars: HashMap<String, Vec<u8>>,
    /// The session's dependency vector, including its self-entry.
    pub dv: DependencyVector,
    /// The session's state number: the LSN of its most recent log record.
    pub state_number: Lsn,
    /// Next expected request sequence number (§3.1).
    pub next_expected: RequestSeq,
    /// Buffered reply of the latest request, resent on duplicates (§3.1).
    pub buffered_reply: Option<(RequestSeq, ReplyStatus)>,
    /// Outgoing sessions, by target MSP.
    pub outgoing: BTreeMap<MspId, OutgoingSession>,
    /// Positions of this session's log records since its last checkpoint.
    pub positions: PositionStream,
    /// Log bytes this session has consumed since its last checkpoint —
    /// compared against the session checkpointing threshold.
    pub log_consumed: u64,
    /// LSN of the most recent session checkpoint, if any.
    pub last_ckpt: Option<Lsn>,
    /// LSN of the session's first log record (anchor when never
    /// checkpointed).
    pub first_lsn: Option<Lsn>,
    /// Set when a recovery broadcast marked this session a (potential)
    /// orphan while it was busy; the next interception point recovers it.
    pub needs_recovery: bool,
    /// The session observed its own end (SessionEnd logged).
    pub ended: bool,
    /// The records the crash-recovery analysis scan retained for this
    /// session's replay; taken by whichever thread recovers the session.
    /// Boxed: a live session carries the empty slot for the rest of its
    /// life.
    pub replay_queue: Option<Box<ReplayQueue>>,
}

impl SessionState {
    /// Update bookkeeping after this session appended a log record:
    /// state number, self dependency, position stream, byte counter.
    pub fn note_logged(&mut self, me: MspId, epoch: Epoch, lsn: Lsn, framed_bytes: u64) {
        self.state_number = lsn;
        self.dv.set(me, StateId::new(epoch, lsn));
        self.positions.push(lsn);
        self.log_consumed += framed_bytes;
        if self.first_lsn.is_none() {
            self.first_lsn = Some(lsn);
        }
    }

    /// Capture the checkpointable state (§3.2): session variables, the
    /// buffered reply, the next expected sequence number, and every
    /// outgoing session's next available sequence number. Control state is
    /// excluded by construction — checkpoints happen between requests.
    pub fn to_checkpoint_body(&self) -> SessionCheckpointBody {
        let mut vars: Vec<(String, Vec<u8>)> = self
            .vars
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        vars.sort_by(|a, b| a.0.cmp(&b.0));
        SessionCheckpointBody {
            vars,
            buffered_reply: match &self.buffered_reply {
                Some((seq, ReplyStatus::Ok(payload))) => Some((*seq, encode_reply_ok(payload))),
                Some((seq, ReplyStatus::Err(msg))) => Some((*seq, encode_reply_err(msg))),
                // Busy replies are transient infrastructure chatter, never
                // part of durable state.
                Some((_, ReplyStatus::Busy)) | None => None,
            },
            next_expected: self.next_expected,
            outgoing: self
                .outgoing
                .iter()
                .map(|(&m, o)| (m, o.id, o.next_seq))
                .collect(),
        }
    }

    /// Rebuild session state from a checkpoint body. The dependency
    /// vector restarts empty except for the self-entry at the checkpoint's
    /// LSN: the pre-checkpoint distributed flush made every prior
    /// dependency durable, so the checkpointed state can never be an
    /// orphan (§3.2).
    pub fn restore_from_checkpoint(
        body: &SessionCheckpointBody,
        me: MspId,
        epoch: Epoch,
        ckpt_lsn: Lsn,
    ) -> SessionState {
        let mut dv = DependencyVector::new();
        dv.set(me, StateId::new(epoch, ckpt_lsn));
        SessionState {
            vars: body.vars.iter().cloned().collect(),
            dv,
            state_number: ckpt_lsn,
            next_expected: body.next_expected,
            buffered_reply: body
                .buffered_reply
                .as_ref()
                .map(|(seq, bytes)| (*seq, decode_reply(bytes))),
            outgoing: body
                .outgoing
                .iter()
                .map(|&(m, id, next_seq)| (m, OutgoingSession { id, next_seq }))
                .collect(),
            positions: PositionStream::new(),
            log_consumed: 0,
            last_ckpt: Some(ckpt_lsn),
            first_lsn: Some(ckpt_lsn),
            needs_recovery: false,
            ended: false,
            replay_queue: None,
        }
    }

    /// A completely fresh session (first request ever, or replay of a
    /// session that was never checkpointed).
    pub fn fresh() -> SessionState {
        SessionState::default()
    }
}

/// Encoded reply status stored in checkpoint bodies and ReplyReceive
/// records: `[0][payload]` for Ok, `[1][utf8]` for Err.
pub fn encode_reply_ok(payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(1 + payload.len());
    v.push(0);
    v.extend_from_slice(payload);
    v
}

pub fn encode_reply_err(msg: &str) -> Vec<u8> {
    let mut v = Vec::with_capacity(1 + msg.len());
    v.push(1);
    v.extend_from_slice(msg.as_bytes());
    v
}

pub fn encode_reply(status: &ReplyStatus) -> Vec<u8> {
    match status {
        ReplyStatus::Ok(p) => encode_reply_ok(p),
        ReplyStatus::Err(m) => encode_reply_err(m),
        ReplyStatus::Busy => vec![2],
    }
}

pub fn decode_reply(bytes: &[u8]) -> ReplyStatus {
    match bytes.split_first() {
        Some((0, rest)) => ReplyStatus::Ok(rest.to_vec()),
        Some((1, rest)) => ReplyStatus::Err(String::from_utf8_lossy(rest).into_owned()),
        _ => ReplyStatus::Busy,
    }
}

/// A session's shared shell: the lock around its state plus the lock-free
/// fields the fuzzy MSP checkpoint reads without blocking anyone (§3.4).
pub struct SessionCell {
    pub id: SessionId,
    pub state: Mutex<SessionState>,
    /// Checkpoint anchor for the fuzzy MSP checkpoint: the LSN replay
    /// would start from. `u64::MAX` = no records yet.
    anchor_lsn: AtomicU64,
    anchor_is_ckpt: AtomicBool,
}

impl SessionCell {
    pub fn new(id: SessionId, state: SessionState) -> SessionCell {
        let cell = SessionCell {
            id,
            state: Mutex::new(SessionState::default()),
            anchor_lsn: AtomicU64::new(u64::MAX),
            anchor_is_ckpt: AtomicBool::new(false),
        };
        cell.sync_anchor(&state);
        *cell.state.lock() = state;
        cell
    }

    /// Refresh the fuzzy-readable anchor from the (locked) state.
    pub fn sync_anchor(&self, state: &SessionState) {
        match (state.last_ckpt, state.first_lsn) {
            (Some(c), _) => {
                self.anchor_lsn.store(c.0, Ordering::Release);
                self.anchor_is_ckpt.store(true, Ordering::Release);
            }
            (None, Some(f)) => {
                self.anchor_lsn.store(f.0, Ordering::Release);
                self.anchor_is_ckpt.store(false, Ordering::Release);
            }
            (None, None) => {
                self.anchor_lsn.store(u64::MAX, Ordering::Release);
            }
        }
    }

    /// `(anchor, is_checkpoint)` without taking the state lock.
    pub fn anchor(&self) -> Option<(Lsn, bool)> {
        let v = self.anchor_lsn.load(Ordering::Acquire);
        if v == u64::MAX {
            None
        } else {
            Some((Lsn(v), self.anchor_is_ckpt.load(Ordering::Acquire)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn note_logged_updates_everything() {
        let mut s = SessionState::fresh();
        s.note_logged(MspId(1), Epoch(0), Lsn(512), 60);
        assert_eq!(s.state_number, Lsn(512));
        assert_eq!(s.first_lsn, Some(Lsn(512)));
        assert_eq!(s.dv.get(MspId(1)), Some(StateId::new(Epoch(0), Lsn(512))));
        assert_eq!(s.positions.len(), 1);
        assert_eq!(s.log_consumed, 60);

        s.note_logged(MspId(1), Epoch(0), Lsn(600), 40);
        assert_eq!(s.first_lsn, Some(Lsn(512)), "first LSN is sticky");
        assert_eq!(s.log_consumed, 100);
    }

    #[test]
    fn checkpoint_roundtrip_restores_state() {
        let mut s = SessionState::fresh();
        s.vars.insert("cart".into(), vec![1, 2, 3]);
        s.next_expected = RequestSeq(7);
        s.buffered_reply = Some((RequestSeq(6), ReplyStatus::Ok(vec![9])));
        s.outgoing.insert(
            MspId(2),
            OutgoingSession {
                id: SessionId(42),
                next_seq: RequestSeq(3),
            },
        );
        s.dv.bump(MspId(5), StateId::new(Epoch(0), Lsn(999)));

        let body = s.to_checkpoint_body();
        let r = SessionState::restore_from_checkpoint(&body, MspId(1), Epoch(0), Lsn(4096));
        assert_eq!(r.vars.get("cart"), Some(&vec![1, 2, 3]));
        assert_eq!(r.next_expected, RequestSeq(7));
        assert_eq!(
            r.buffered_reply,
            Some((RequestSeq(6), ReplyStatus::Ok(vec![9])))
        );
        assert_eq!(
            r.outgoing.get(&MspId(2)),
            Some(&OutgoingSession {
                id: SessionId(42),
                next_seq: RequestSeq(3)
            })
        );
        // The pre-checkpoint flush stabilized old dependencies: only the
        // self entry survives.
        assert_eq!(r.dv.get(MspId(5)), None);
        assert_eq!(r.dv.get(MspId(1)), Some(StateId::new(Epoch(0), Lsn(4096))));
        assert_eq!(r.state_number, Lsn(4096));
        assert_eq!(r.last_ckpt, Some(Lsn(4096)));
    }

    #[test]
    fn busy_replies_are_not_checkpointed() {
        let mut s = SessionState::fresh();
        s.buffered_reply = Some((RequestSeq(1), ReplyStatus::Busy));
        assert_eq!(s.to_checkpoint_body().buffered_reply, None);
    }

    #[test]
    fn err_replies_survive_checkpoint() {
        let mut s = SessionState::fresh();
        s.buffered_reply = Some((RequestSeq(1), ReplyStatus::Err("boom".into())));
        let body = s.to_checkpoint_body();
        let r = SessionState::restore_from_checkpoint(&body, MspId(1), Epoch(0), Lsn(512));
        assert_eq!(
            r.buffered_reply,
            Some((RequestSeq(1), ReplyStatus::Err("boom".into())))
        );
    }

    #[test]
    fn reply_codec_roundtrips() {
        for status in [
            ReplyStatus::Ok(vec![1, 2, 3]),
            ReplyStatus::Ok(vec![]),
            ReplyStatus::Err("nope".into()),
        ] {
            assert_eq!(decode_reply(&encode_reply(&status)), status);
        }
    }

    #[test]
    fn cell_anchor_tracks_state() {
        let cell = SessionCell::new(SessionId(1), SessionState::fresh());
        assert_eq!(cell.anchor(), None);
        {
            let mut st = cell.state.lock();
            st.note_logged(MspId(1), Epoch(0), Lsn(512), 10);
            cell.sync_anchor(&st);
        }
        assert_eq!(cell.anchor(), Some((Lsn(512), false)));
        {
            let mut st = cell.state.lock();
            st.last_ckpt = Some(Lsn(1024));
            cell.sync_anchor(&st);
        }
        assert_eq!(cell.anchor(), Some((Lsn(1024), true)));
    }
}
