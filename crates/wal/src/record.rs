//! Every log-record kind written by the recovery protocols.
//!
//! The paper's single physical log per MSP interleaves records of all of
//! the MSP's sessions and shared variables. The kinds below map 1:1 onto
//! the events of §3 and §4:
//!
//! | Record | Paper source |
//! |---|---|
//! | [`LogRecord::RequestReceive`] | message logging, Figure 7 |
//! | [`LogRecord::ReplyReceive`] | message logging, Figure 7 |
//! | [`LogRecord::SharedRead`] | value logging of reads, Figure 8 |
//! | [`LogRecord::SharedWrite`] | value logging of writes (backward chained), Figure 8 |
//! | [`LogRecord::SharedCheckpoint`] | shared-state checkpointing, Figure 9 |
//! | [`LogRecord::SessionCheckpoint`] | session checkpointing, §3.2 |
//! | [`LogRecord::MspCheckpoint`] | fuzzy MSP checkpoint, §3.4, Figure 10 |
//! | [`LogRecord::RecoveryAnnouncement`] | logged recovered state numbers, §3.1 |
//! | [`LogRecord::RecoveryComplete`] | the MSP's own epoch transitions, §4.3 |
//! | [`LogRecord::SessionEnd`] | session end marker, §3.2 |
//! | [`LogRecord::Eos`] | end-of-skip record of orphan recovery, §4.1 |

use msp_types::codec::{self, Decode, Encode};
use msp_types::{
    CodecError, DependencyVector, Epoch, Lsn, MspId, RecoveryKnowledge, RecoveryRecord, RequestSeq,
    SessionId, VarId,
};

/// State captured by a session checkpoint (§3.2).
///
/// Deliberately excludes control state (stacks, program counters): a
/// checkpoint is only taken *between* requests, when the session has no
/// control state. The session's dependency vector is absent too — the
/// distributed log flush performed immediately before the checkpoint makes
/// every dependency durable, so the checkpointed state can never become an
/// orphan and restarts with an empty (self-only) DV.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionCheckpointBody {
    /// The session variables (private state), name → value.
    pub vars: Vec<(String, Vec<u8>)>,
    /// The buffered reply of the latest request, for duplicate resends.
    pub buffered_reply: Option<(RequestSeq, Vec<u8>)>,
    /// Next expected request sequence number on this (incoming) session.
    pub next_expected: RequestSeq,
    /// For every outgoing session this session has started: the target MSP,
    /// the outgoing session's id, and its next available request sequence
    /// number.
    pub outgoing: Vec<(MspId, SessionId, RequestSeq)>,
}

impl Encode for SessionCheckpointBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_u32(buf, self.vars.len() as u32);
        for (name, value) in &self.vars {
            codec::put_str(buf, name);
            codec::put_bytes(buf, value);
        }
        match &self.buffered_reply {
            None => codec::put_u8(buf, 0),
            Some((seq, payload)) => {
                codec::put_u8(buf, 1);
                seq.encode(buf);
                codec::put_bytes(buf, payload);
            }
        }
        self.next_expected.encode(buf);
        codec::put_u32(buf, self.outgoing.len() as u32);
        for (msp, session, seq) in &self.outgoing {
            msp.encode(buf);
            session.encode(buf);
            seq.encode(buf);
        }
    }
}

impl Decode for SessionCheckpointBody {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let nvars = codec::get_u32(buf)? as usize;
        let mut vars = Vec::with_capacity(nvars.min(buf.len()));
        for _ in 0..nvars {
            let name = codec::get_str(buf)?;
            let value = codec::get_bytes(buf)?;
            vars.push((name, value));
        }
        let buffered_reply = match codec::get_u8(buf)? {
            0 => None,
            1 => {
                let seq = RequestSeq::decode(buf)?;
                let payload = codec::get_bytes(buf)?;
                Some((seq, payload))
            }
            tag => {
                return Err(CodecError::InvalidTag {
                    context: "buffered_reply",
                    tag,
                })
            }
        };
        let next_expected = RequestSeq::decode(buf)?;
        let nout = codec::get_u32(buf)? as usize;
        let mut outgoing = Vec::with_capacity(nout.min(buf.len()));
        for _ in 0..nout {
            outgoing.push((
                MspId::decode(buf)?,
                SessionId::decode(buf)?,
                RequestSeq::decode(buf)?,
            ));
        }
        Ok(SessionCheckpointBody {
            vars,
            buffered_reply,
            next_expected,
            outgoing,
        })
    }
}

/// Where crash recovery should begin replaying a session from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionAnchor {
    pub session: SessionId,
    /// LSN of the session's most recent checkpoint, or of its first log
    /// record if it has never been checkpointed.
    pub lsn: Lsn,
    /// Whether `lsn` points at a [`LogRecord::SessionCheckpoint`].
    pub is_checkpoint: bool,
}

impl Encode for SessionAnchor {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.session.encode(buf);
        self.lsn.encode(buf);
        codec::put_u8(buf, u8::from(self.is_checkpoint));
    }
}

impl Decode for SessionAnchor {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(SessionAnchor {
            session: SessionId::decode(buf)?,
            lsn: Lsn::decode(buf)?,
            is_checkpoint: codec::get_u8(buf)? != 0,
        })
    }
}

/// Body of the fuzzy MSP checkpoint (§3.4).
///
/// "Mainly contains recovered state numbers of MSPs in the service domain,
/// the LSN of each session's most recent checkpoint, and the LSN of each
/// shared variable's most recent checkpoint." Ongoing activity is *not*
/// blocked while this is assembled — hence "fuzzy".
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MspCheckpointBody {
    /// The MSP's current epoch at checkpoint time.
    pub epoch: Epoch,
    /// Knowledge about other MSPs' recovered state numbers.
    pub knowledge: RecoveryKnowledge,
    /// Per live session: where its replay would start.
    pub sessions: Vec<SessionAnchor>,
    /// Per shared variable: LSN of its most recent checkpoint record.
    pub shared: Vec<(VarId, Lsn)>,
    /// Minimum of all anchors above — the crash-recovery scan start.
    pub min_lsn: Lsn,
}

impl Encode for MspCheckpointBody {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.epoch.encode(buf);
        self.knowledge.encode(buf);
        codec::put_vec(buf, &self.sessions);
        codec::put_u32(buf, self.shared.len() as u32);
        for (var, lsn) in &self.shared {
            var.encode(buf);
            lsn.encode(buf);
        }
        self.min_lsn.encode(buf);
    }
}

impl Decode for MspCheckpointBody {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let epoch = Epoch::decode(buf)?;
        let knowledge = RecoveryKnowledge::decode(buf)?;
        let sessions = codec::get_vec(buf)?;
        let nshared = codec::get_u32(buf)? as usize;
        let mut shared = Vec::with_capacity(nshared.min(buf.len()));
        for _ in 0..nshared {
            shared.push((VarId::decode(buf)?, Lsn::decode(buf)?));
        }
        let min_lsn = Lsn::decode(buf)?;
        Ok(MspCheckpointBody {
            epoch,
            knowledge,
            sessions,
            shared,
            min_lsn,
        })
    }
}

/// A record in an MSP's physical log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A request arrived on `session` and began processing. `sender_dv` is
    /// present iff the sender is a session of an MSP in the same service
    /// domain (optimistic logging); pessimistically logged messages carry
    /// no DV (Figure 7).
    RequestReceive {
        session: SessionId,
        seq: RequestSeq,
        method: String,
        payload: Vec<u8>,
        sender_dv: Option<DependencyVector>,
    },
    /// The reply to an outgoing request made by `session` over its
    /// outgoing session `outgoing` was received.
    ReplyReceive {
        session: SessionId,
        outgoing: SessionId,
        seq: RequestSeq,
        payload: Vec<u8>,
        sender_dv: Option<DependencyVector>,
    },
    /// Value logging of a shared-variable read: the value and the
    /// variable's DV at read time (Figure 8, left column).
    SharedRead {
        session: SessionId,
        var: VarId,
        value: Vec<u8>,
        var_dv: DependencyVector,
    },
    /// Value logging of a shared-variable write: the new value, the writer
    /// session's DV, and a back-pointer to the variable's previous write
    /// record (Figure 8, right column; Figure 9's backward chain).
    SharedWrite {
        session: SessionId,
        var: VarId,
        value: Vec<u8>,
        writer_dv: DependencyVector,
        prev_write: Lsn,
    },
    /// A shared-variable checkpoint: the value is never an orphan (a
    /// distributed flush preceded it) and the backward chain breaks here.
    SharedCheckpoint { var: VarId, value: Vec<u8> },
    /// A session checkpoint (§3.2).
    SessionCheckpoint {
        session: SessionId,
        body: SessionCheckpointBody,
    },
    /// The fuzzy MSP checkpoint (§3.4).
    MspCheckpoint(MspCheckpointBody),
    /// Another MSP's recovery announcement, logged so the knowledge
    /// survives our own crashes.
    RecoveryAnnouncement(RecoveryRecord),
    /// Our own crash recovery completed: we entered `new_epoch` having
    /// recovered up to `recovered_lsn`. Flushed before normal execution
    /// resumes, so later scans can establish the current epoch.
    RecoveryComplete {
        new_epoch: Epoch,
        recovered_lsn: Lsn,
    },
    /// The session ended; its position stream is discarded (§3.2).
    SessionEnd { session: SessionId },
    /// End-of-skip: orphan recovery of `session` terminated replay at the
    /// orphan record `orphan_lsn`; records from `orphan_lsn` up to this
    /// record are dead and must be skipped by any later recovery (§4.1).
    Eos { session: SessionId, orphan_lsn: Lsn },
    /// `session` opened the outgoing session `outgoing` to `target`.
    /// Allocating the outgoing session id is a nondeterministic event in
    /// the session's execution and so must be logged: a replay that went
    /// live before this point re-allocates (safely — everything after is
    /// equally lost and orphaned), but a replay that passes this record
    /// must reuse the same id and sequence numbers so resent calls hit
    /// the target's duplicate filter instead of re-executing.
    OutgoingBind {
        session: SessionId,
        target: MspId,
        outgoing: SessionId,
    },
    /// Stripe-transport wrapper: on a striped log every stripe-local frame
    /// carries the record's **global** sequence number so crash recovery
    /// can re-merge the per-stripe streams into one totally ordered log.
    /// The gsn sits at a fixed position (payload bytes 1..9) so the merge
    /// scan can read it without decoding the inner record.
    Striped { gsn: Lsn, inner: Box<LogRecord> },
}

mod tag {
    pub const REQUEST_RECEIVE: u8 = 1;
    pub const REPLY_RECEIVE: u8 = 2;
    pub const SHARED_READ: u8 = 3;
    pub const SHARED_WRITE: u8 = 4;
    pub const SHARED_CHECKPOINT: u8 = 5;
    pub const SESSION_CHECKPOINT: u8 = 6;
    pub const MSP_CHECKPOINT: u8 = 7;
    pub const RECOVERY_ANNOUNCEMENT: u8 = 8;
    pub const RECOVERY_COMPLETE: u8 = 9;
    pub const SESSION_END: u8 = 10;
    pub const EOS: u8 = 11;
    pub const OUTGOING_BIND: u8 = 12;
    pub const STRIPED: u8 = 13;
    // 14 is retired: it tagged the operation-logged `SharedOp` record
    // (shared variables are logged by value only). Never reuse it — a
    // log that still holds such a frame must fail to decode and refuse
    // to recover, not be read as some other record.
}

impl LogRecord {
    /// The session this record belongs to, if it is a session record.
    /// Shared-variable and MSP-level records return `None` — they belong
    /// to other recovery units.
    pub fn session(&self) -> Option<SessionId> {
        match self {
            LogRecord::RequestReceive { session, .. }
            | LogRecord::ReplyReceive { session, .. }
            | LogRecord::SharedRead { session, .. }
            | LogRecord::SessionCheckpoint { session, .. }
            | LogRecord::SessionEnd { session }
            | LogRecord::Eos { session, .. }
            | LogRecord::OutgoingBind { session, .. } => Some(*session),
            // Transport wrapper: attribution belongs to the inner record.
            LogRecord::Striped { inner, .. } => inner.session(),
            // A write primarily advances the *variable's* state number
            // (Figure 8): the stripe router keeps it on the variable's
            // stripe and the audit's Eos fencing never points at one, so
            // it attributes to the variable here. (It *does* also join
            // the writing session's replay stream — the recovery scan
            // handles that explicitly via the record's `session` field.)
            LogRecord::SharedWrite { .. }
            | LogRecord::SharedCheckpoint { .. }
            | LogRecord::MspCheckpoint(_)
            | LogRecord::RecoveryAnnouncement(_)
            | LogRecord::RecoveryComplete { .. } => None,
        }
    }

    /// Short name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            LogRecord::RequestReceive { .. } => "RequestReceive",
            LogRecord::ReplyReceive { .. } => "ReplyReceive",
            LogRecord::SharedRead { .. } => "SharedRead",
            LogRecord::SharedWrite { .. } => "SharedWrite",
            LogRecord::SharedCheckpoint { .. } => "SharedCheckpoint",
            LogRecord::SessionCheckpoint { .. } => "SessionCheckpoint",
            LogRecord::MspCheckpoint(_) => "MspCheckpoint",
            LogRecord::RecoveryAnnouncement(_) => "RecoveryAnnouncement",
            LogRecord::RecoveryComplete { .. } => "RecoveryComplete",
            LogRecord::SessionEnd { .. } => "SessionEnd",
            LogRecord::Eos { .. } => "Eos",
            LogRecord::OutgoingBind { .. } => "OutgoingBind",
            LogRecord::Striped { .. } => "Striped",
        }
    }

    /// Peek the gsn of an *encoded* [`LogRecord::Striped`] payload without
    /// decoding the inner record — the merge scan's fast path.
    pub fn striped_gsn(payload: &[u8]) -> Option<Lsn> {
        if payload.len() < 9 || payload[0] != tag::STRIPED {
            return None;
        }
        Some(Lsn(u64::from_le_bytes(
            payload[1..9].try_into().expect("slice"),
        )))
    }
}

impl Encode for LogRecord {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            LogRecord::RequestReceive {
                session,
                seq,
                method,
                payload,
                sender_dv,
            } => {
                codec::put_u8(buf, tag::REQUEST_RECEIVE);
                session.encode(buf);
                seq.encode(buf);
                codec::put_str(buf, method);
                codec::put_bytes(buf, payload);
                sender_dv.encode(buf);
            }
            LogRecord::ReplyReceive {
                session,
                outgoing,
                seq,
                payload,
                sender_dv,
            } => {
                codec::put_u8(buf, tag::REPLY_RECEIVE);
                session.encode(buf);
                outgoing.encode(buf);
                seq.encode(buf);
                codec::put_bytes(buf, payload);
                sender_dv.encode(buf);
            }
            LogRecord::SharedRead {
                session,
                var,
                value,
                var_dv,
            } => {
                codec::put_u8(buf, tag::SHARED_READ);
                session.encode(buf);
                var.encode(buf);
                codec::put_bytes(buf, value);
                var_dv.encode(buf);
            }
            LogRecord::SharedWrite {
                session,
                var,
                value,
                writer_dv,
                prev_write,
            } => {
                codec::put_u8(buf, tag::SHARED_WRITE);
                session.encode(buf);
                var.encode(buf);
                codec::put_bytes(buf, value);
                writer_dv.encode(buf);
                prev_write.encode(buf);
            }
            LogRecord::SharedCheckpoint { var, value } => {
                codec::put_u8(buf, tag::SHARED_CHECKPOINT);
                var.encode(buf);
                codec::put_bytes(buf, value);
            }
            LogRecord::SessionCheckpoint { session, body } => {
                codec::put_u8(buf, tag::SESSION_CHECKPOINT);
                session.encode(buf);
                body.encode(buf);
            }
            LogRecord::MspCheckpoint(body) => {
                codec::put_u8(buf, tag::MSP_CHECKPOINT);
                body.encode(buf);
            }
            LogRecord::RecoveryAnnouncement(rec) => {
                codec::put_u8(buf, tag::RECOVERY_ANNOUNCEMENT);
                rec.encode(buf);
            }
            LogRecord::RecoveryComplete {
                new_epoch,
                recovered_lsn,
            } => {
                codec::put_u8(buf, tag::RECOVERY_COMPLETE);
                new_epoch.encode(buf);
                recovered_lsn.encode(buf);
            }
            LogRecord::SessionEnd { session } => {
                codec::put_u8(buf, tag::SESSION_END);
                session.encode(buf);
            }
            LogRecord::Eos {
                session,
                orphan_lsn,
            } => {
                codec::put_u8(buf, tag::EOS);
                session.encode(buf);
                orphan_lsn.encode(buf);
            }
            LogRecord::OutgoingBind {
                session,
                target,
                outgoing,
            } => {
                codec::put_u8(buf, tag::OUTGOING_BIND);
                session.encode(buf);
                target.encode(buf);
                outgoing.encode(buf);
            }
            LogRecord::Striped { gsn, inner } => {
                codec::put_u8(buf, tag::STRIPED);
                gsn.encode(buf);
                inner.encode(buf);
            }
        }
    }
}

impl Decode for LogRecord {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let t = codec::get_u8(buf)?;
        Ok(match t {
            tag::REQUEST_RECEIVE => LogRecord::RequestReceive {
                session: SessionId::decode(buf)?,
                seq: RequestSeq::decode(buf)?,
                method: codec::get_str(buf)?,
                payload: codec::get_bytes(buf)?,
                sender_dv: Option::decode(buf)?,
            },
            tag::REPLY_RECEIVE => LogRecord::ReplyReceive {
                session: SessionId::decode(buf)?,
                outgoing: SessionId::decode(buf)?,
                seq: RequestSeq::decode(buf)?,
                payload: codec::get_bytes(buf)?,
                sender_dv: Option::decode(buf)?,
            },
            tag::SHARED_READ => LogRecord::SharedRead {
                session: SessionId::decode(buf)?,
                var: VarId::decode(buf)?,
                value: codec::get_bytes(buf)?,
                var_dv: DependencyVector::decode(buf)?,
            },
            tag::SHARED_WRITE => LogRecord::SharedWrite {
                session: SessionId::decode(buf)?,
                var: VarId::decode(buf)?,
                value: codec::get_bytes(buf)?,
                writer_dv: DependencyVector::decode(buf)?,
                prev_write: Lsn::decode(buf)?,
            },
            tag::SHARED_CHECKPOINT => LogRecord::SharedCheckpoint {
                var: VarId::decode(buf)?,
                value: codec::get_bytes(buf)?,
            },
            tag::SESSION_CHECKPOINT => LogRecord::SessionCheckpoint {
                session: SessionId::decode(buf)?,
                body: SessionCheckpointBody::decode(buf)?,
            },
            tag::MSP_CHECKPOINT => LogRecord::MspCheckpoint(MspCheckpointBody::decode(buf)?),
            tag::RECOVERY_ANNOUNCEMENT => {
                LogRecord::RecoveryAnnouncement(RecoveryRecord::decode(buf)?)
            }
            tag::RECOVERY_COMPLETE => LogRecord::RecoveryComplete {
                new_epoch: Epoch::decode(buf)?,
                recovered_lsn: Lsn::decode(buf)?,
            },
            tag::SESSION_END => LogRecord::SessionEnd {
                session: SessionId::decode(buf)?,
            },
            tag::EOS => LogRecord::Eos {
                session: SessionId::decode(buf)?,
                orphan_lsn: Lsn::decode(buf)?,
            },
            tag::OUTGOING_BIND => LogRecord::OutgoingBind {
                session: SessionId::decode(buf)?,
                target: MspId::decode(buf)?,
                outgoing: SessionId::decode(buf)?,
            },
            tag::STRIPED => LogRecord::Striped {
                gsn: Lsn::decode(buf)?,
                inner: Box::new(LogRecord::decode(buf)?),
            },
            other => {
                return Err(CodecError::InvalidTag {
                    context: "LogRecord",
                    tag: other,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_types::codec::roundtrip;
    use msp_types::dv::state;

    fn sample_records() -> Vec<LogRecord> {
        let dv = DependencyVector::from_entries([(MspId(1), state(0, 10))]);
        vec![
            LogRecord::RequestReceive {
                session: SessionId(1),
                seq: RequestSeq(3),
                method: "ServiceMethod1".into(),
                payload: vec![1, 2, 3],
                sender_dv: Some(dv.clone()),
            },
            LogRecord::RequestReceive {
                session: SessionId(1),
                seq: RequestSeq(4),
                method: "m".into(),
                payload: vec![],
                sender_dv: None,
            },
            LogRecord::ReplyReceive {
                session: SessionId(1),
                outgoing: SessionId(2),
                seq: RequestSeq(0),
                payload: vec![9; 100],
                sender_dv: Some(dv.clone()),
            },
            LogRecord::SharedRead {
                session: SessionId(1),
                var: VarId(0),
                value: vec![0; 128],
                var_dv: dv.clone(),
            },
            LogRecord::SharedWrite {
                session: SessionId(1),
                var: VarId(0),
                value: vec![7; 128],
                writer_dv: dv,
                prev_write: Lsn(512),
            },
            LogRecord::SharedCheckpoint {
                var: VarId(3),
                value: vec![1],
            },
            LogRecord::SessionCheckpoint {
                session: SessionId(1),
                body: SessionCheckpointBody {
                    vars: vec![("state".into(), vec![0; 64])],
                    buffered_reply: Some((RequestSeq(3), vec![2; 100])),
                    next_expected: RequestSeq(4),
                    outgoing: vec![(MspId(2), SessionId(2), RequestSeq(9))],
                },
            },
            LogRecord::MspCheckpoint(MspCheckpointBody {
                epoch: Epoch(1),
                knowledge: {
                    let mut k = RecoveryKnowledge::new();
                    k.record(RecoveryRecord {
                        msp: MspId(2),
                        new_epoch: Epoch(1),
                        recovered_lsn: Lsn(4096),
                    });
                    k
                },
                sessions: vec![SessionAnchor {
                    session: SessionId(1),
                    lsn: Lsn(1024),
                    is_checkpoint: true,
                }],
                shared: vec![(VarId(0), Lsn(512))],
                min_lsn: Lsn(512),
            }),
            LogRecord::RecoveryAnnouncement(RecoveryRecord {
                msp: MspId(2),
                new_epoch: Epoch(2),
                recovered_lsn: Lsn(8192),
            }),
            LogRecord::RecoveryComplete {
                new_epoch: Epoch(1),
                recovered_lsn: Lsn(2048),
            },
            LogRecord::SessionEnd {
                session: SessionId(1),
            },
            LogRecord::Eos {
                session: SessionId(1),
                orphan_lsn: Lsn(700),
            },
        ]
    }

    #[test]
    fn all_kinds_roundtrip() {
        for rec in sample_records() {
            assert_eq!(roundtrip(&rec).unwrap(), rec, "kind {}", rec.kind());
        }
    }

    #[test]
    fn invalid_tag_rejected() {
        assert!(matches!(
            LogRecord::from_bytes(&[200]),
            Err(CodecError::InvalidTag {
                context: "LogRecord",
                tag: 200
            })
        ));
    }

    #[test]
    fn session_attribution() {
        for rec in sample_records() {
            match &rec {
                LogRecord::RequestReceive { .. }
                | LogRecord::ReplyReceive { .. }
                | LogRecord::SharedRead { .. }
                | LogRecord::SessionCheckpoint { .. }
                | LogRecord::SessionEnd { .. }
                | LogRecord::Eos { .. } => assert_eq!(rec.session(), Some(SessionId(1))),
                _ => assert_eq!(rec.session(), None, "kind {}", rec.kind()),
            }
        }
    }

    #[test]
    fn shared_write_is_not_a_session_record() {
        // Figure 8: a write changes the *variable's* state number; the
        // writer session does not replay it, the variable's separate
        // recovery handles it.
        let rec = LogRecord::SharedWrite {
            session: SessionId(5),
            var: VarId(1),
            value: vec![],
            writer_dv: DependencyVector::new(),
            prev_write: Lsn::NULL,
        };
        assert_eq!(rec.session(), None);
    }

    #[test]
    fn striped_wrapper_roundtrips_and_peeks() {
        for inner in sample_records() {
            let rec = LogRecord::Striped {
                gsn: Lsn(0xAABB_CCDD_1122_3344),
                inner: Box::new(inner.clone()),
            };
            assert_eq!(roundtrip(&rec).unwrap(), rec);
            // The gsn is peekable at a fixed payload position.
            let bytes = rec.to_bytes();
            assert_eq!(
                LogRecord::striped_gsn(&bytes),
                Some(Lsn(0xAABB_CCDD_1122_3344))
            );
            // Attribution delegates to the wrapped record.
            assert_eq!(rec.session(), inner.session());
        }
        // Non-striped payloads peek as None.
        assert_eq!(
            LogRecord::striped_gsn(&sample_records()[0].to_bytes()),
            None
        );
    }

    #[test]
    fn empty_checkpoint_bodies_roundtrip() {
        assert_eq!(
            roundtrip(&SessionCheckpointBody::default()).unwrap(),
            SessionCheckpointBody::default()
        );
        assert_eq!(
            roundtrip(&MspCheckpointBody::default()).unwrap(),
            MspCheckpointBody::default()
        );
    }
}
