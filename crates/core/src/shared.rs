//! Shared in-memory state with value logging (§3.3).
//!
//! A shared variable is a *passive recovery unit*: it has its own
//! dependency vector and state number, is locked per access (no lock
//! table, no deadlocks — locks span only the access), and is logged by
//! **value**:
//!
//! * a read logs the value and the variable's DV, so a recovering reader
//!   session gets the value from the log without involving any other
//!   session;
//! * a write logs the new value, the writer's DV and the LSN of the
//!   previous write — a backward chain (Figure 9) that lets *any* thread
//!   roll an orphaned variable back to its most recent non-orphan value,
//!   avoiding both rollback cascades into writers and the thread-pool
//!   deadlock the paper shows for access-order logging.
//!
//! Dependency tracking is the paper's refined, asymmetric rule: reads
//! merge variable→session only; writes *replace* the variable's DV with
//! the writer's (the overwritten value's dependencies die with it).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use parking_lot::Mutex;

use msp_types::{
    DependencyVector, Epoch, Lsn, MspError, MspId, MspResult, RecoveryKnowledge, SessionId, VarId,
};
use msp_wal::{LogRecord, Wal};

use crate::session::SessionState;

/// Mutable state of one shared variable.
#[derive(Debug)]
pub struct SharedVarState {
    pub value: Vec<u8>,
    /// The variable's dependency vector: the writer session's DV as of the
    /// last write (or empty after a checkpoint / at the initial value).
    pub dv: DependencyVector,
    /// Head of the backward write chain: LSN of the most recent write or
    /// checkpoint record, `Lsn::NULL` if the variable has never been
    /// written (its value is the registered initial).
    pub chain_head: Lsn,
    /// LSN of the variable's most recent checkpoint record.
    pub last_ckpt: Option<Lsn>,
    /// LSN of the variable's first write ever (anchor before the first
    /// checkpoint).
    pub first_write: Option<Lsn>,
    /// Writes since the last checkpoint — drives checkpointing (§3.3).
    pub writes_since_ckpt: u64,
}

impl SharedVarState {
    fn initial() -> SharedVarState {
        SharedVarState {
            value: Vec::new(),
            dv: DependencyVector::new(),
            chain_head: Lsn::NULL,
            last_ckpt: None,
            first_write: None,
            writes_since_ckpt: 0,
        }
    }
}

/// One shared variable: its lock and its fuzzy-checkpoint anchor.
pub struct SharedVar {
    pub id: VarId,
    pub name: String,
    pub initial: Vec<u8>,
    /// The paper holds read/write locks only for the duration of the
    /// access; accesses here are short (value copy + log append), so a
    /// mutex provides the same external behaviour with less machinery.
    pub state: Mutex<SharedVarState>,
    /// Fuzzy anchor: last checkpoint LSN, else first write LSN
    /// (`u64::MAX` = no records — the initial value needs no log).
    anchor_lsn: AtomicU64,
    /// MSP checkpoints since this variable's last checkpoint (§3.4).
    pub msp_ckpts_since_ckpt: AtomicU32,
}

impl SharedVar {
    fn new(id: VarId, name: String, initial: Vec<u8>) -> SharedVar {
        let mut st = SharedVarState::initial();
        st.value = initial.clone();
        SharedVar {
            id,
            name,
            initial,
            state: Mutex::new(st),
            anchor_lsn: AtomicU64::new(u64::MAX),
            msp_ckpts_since_ckpt: AtomicU32::new(0),
        }
    }

    /// Refresh the fuzzy anchor from the locked state.
    pub fn sync_anchor(&self, st: &SharedVarState) {
        let v = st.last_ckpt.or(st.first_write).map_or(u64::MAX, |l| l.0);
        self.anchor_lsn.store(v, Ordering::Release);
    }

    /// The anchor, lock-free.
    pub fn anchor(&self) -> Option<Lsn> {
        let v = self.anchor_lsn.load(Ordering::Acquire);
        (v != u64::MAX).then_some(Lsn(v))
    }
}

/// The fixed set of shared variables of an MSP, built at startup.
#[derive(Default)]
pub struct SharedRegistry {
    vars: Vec<SharedVar>,
    by_name: HashMap<String, VarId>,
}

impl SharedRegistry {
    pub fn new() -> SharedRegistry {
        SharedRegistry::default()
    }

    /// Register a variable with its initial value; ids are dense and
    /// assigned in registration order (stable across restarts as long as
    /// the program registers the same variables — same contract as the
    /// service-method registry).
    pub fn register(&mut self, name: &str, initial: Vec<u8>) -> VarId {
        debug_assert!(
            !self.by_name.contains_key(name),
            "duplicate shared variable {name}"
        );
        let id = VarId(self.vars.len() as u32);
        self.vars
            .push(SharedVar::new(id, name.to_string(), initial));
        self.by_name.insert(name.to_string(), id);
        id
    }

    pub fn resolve(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    pub fn get(&self, id: VarId) -> Option<&SharedVar> {
        self.vars.get(id.0 as usize)
    }

    pub fn iter(&self) -> impl Iterator<Item = &SharedVar> {
        self.vars.iter()
    }

    pub fn len(&self) -> usize {
        self.vars.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }
}

/// What a shared-variable access needs from the runtime.
pub struct SharedEnv<'a> {
    pub me: MspId,
    pub epoch: Epoch,
    pub log: &'a Wal,
    pub knowledge: &'a RecoveryKnowledge,
}

/// Figure 8, left column: read `var` on behalf of `session`.
///
/// 1. If the variable's value is an orphan, roll it back to the most
///    recent non-orphan value (undo along the backward chain).
/// 2. Log the value and the variable's DV (value logging of the read).
/// 3. Merge the variable's DV into the reader's; the reader's state
///    number becomes the new record's LSN.
pub fn read_shared(
    env: &SharedEnv<'_>,
    var: &SharedVar,
    session_id: SessionId,
    session: &mut SessionState,
) -> MspResult<Vec<u8>> {
    let mut st = var.state.lock();
    rollback_if_orphan(env, var, &mut st)?;
    Ok(read_locked(env, var, &mut st, session_id, session))
}

/// The read column's logging steps, with the variable lock already held.
fn read_locked(
    env: &SharedEnv<'_>,
    var: &SharedVar,
    st: &mut SharedVarState,
    session_id: SessionId,
    session: &mut SessionState,
) -> Vec<u8> {
    let record = LogRecord::SharedRead {
        session: session_id,
        var: var.id,
        value: st.value.clone(),
        var_dv: st.dv.clone(),
    };
    // `append_sized` reports the framed size directly; an `end_lsn`
    // delta would be racy under concurrent (striped) appends.
    let (lsn, framed) = env.log.append_sized(&record);
    session.dv.merge_from(&st.dv);
    session.note_logged(env.me, env.epoch, lsn, framed);
    st.value.clone()
}

/// Figure 8, right column: write `value` into `var` on behalf of
/// `session`.
///
/// Logs the writer's DV, the new value and the back-pointer; *replaces*
/// the variable's DV with the writer's; advances the variable's state
/// number. The overwritten value is never orphan-checked — it is about
/// to die anyway.
///
/// The write also joins the writing *session's* replay stream and
/// self-dependency. The paper keeps writes out of the session's stream
/// (the variable recovers separately), which is sound only when the
/// session's records and the write share one totally-ordered log tail.
/// On a striped log the write lands on the variable's stripe, which the
/// session's own records may never touch, so two failure modes open up:
/// the pre-reply flush can skip that stripe (an acknowledged write dies
/// with its volatile tail), and replay can find the read durable but
/// the write lost (a manufactured ack for an effect that never became
/// durable). Making the write a session-stream record closes both: the
/// session's self-entry covers the write's LSN for every durability
/// cover, and the replay write-half consumes the record — hitting
/// end-of-stream there identifies a lost write and re-executes it live.
pub fn write_shared(
    env: &SharedEnv<'_>,
    var: &SharedVar,
    session_id: SessionId,
    session: &mut SessionState,
    value: Vec<u8>,
) -> MspResult<Lsn> {
    let mut st = var.state.lock();
    Ok(write_locked(env, var, &mut st, session_id, session, value))
}

/// The write column's logging steps, with the variable lock already held.
fn write_locked(
    env: &SharedEnv<'_>,
    var: &SharedVar,
    st: &mut SharedVarState,
    session_id: SessionId,
    session: &mut SessionState,
    value: Vec<u8>,
) -> Lsn {
    let record = LogRecord::SharedWrite {
        session: session_id,
        var: var.id,
        value: value.clone(),
        writer_dv: session.dv.clone(),
        prev_write: st.chain_head,
    };
    let (lsn, framed) = env.log.append_sized(&record);
    st.value = value;
    st.dv = session.dv.clone();
    st.chain_head = lsn;
    if st.first_write.is_none() {
        st.first_write = Some(lsn);
        var.sync_anchor(st);
    }
    st.writes_since_ckpt += 1;
    // The session's half of the write: stream membership + self-entry
    // (see `write_shared`). Ordered after the record is built so the
    // logged writer_dv does not include the write itself.
    session.note_logged(env.me, env.epoch, lsn, framed);
    lsn
}

/// Atomic read-modify-write: the read and write columns of Figure 8
/// executed under a *single* hold of the variable lock, so no other
/// session can interleave between the read and the dependent write (the
/// split `read_shared` + `write_shared` pair loses updates under that
/// interleaving). Logs the same `SharedRead`/`SharedWrite` record pair
/// the split calls would, so the session's replay stream and the
/// variable's backward chain are shaped identically.
///
/// `f` maps the current value to the value to write. Returns the value
/// read (pre-`f`) and the write's LSN.
pub fn update_shared(
    env: &SharedEnv<'_>,
    var: &SharedVar,
    session_id: SessionId,
    session: &mut SessionState,
    f: impl FnOnce(&[u8]) -> Vec<u8>,
) -> MspResult<(Vec<u8>, Lsn)> {
    let mut st = var.state.lock();
    rollback_if_orphan(env, var, &mut st)?;
    let old = read_locked(env, var, &mut st, session_id, session);
    let new = f(&old);
    let lsn = write_locked(env, var, &mut st, session_id, session, new);
    Ok((old, lsn))
}

/// Undo recovery of a shared variable (§4.2): follow the backward chain
/// from the chain head until a non-orphan value — a checkpointed value, a
/// write whose logged DV is clean, or (chain exhausted) the registered
/// initial value.
pub fn rollback_if_orphan(
    env: &SharedEnv<'_>,
    var: &SharedVar,
    st: &mut SharedVarState,
) -> MspResult<()> {
    if !env.knowledge.is_orphan(&st.dv, env.me) {
        return Ok(());
    }
    let mut cursor = st.chain_head;
    loop {
        if cursor.is_null() {
            // Never-written (or fully unwound): the initial value, which
            // depends on nothing.
            st.value = var.initial.clone();
            st.dv.clear();
            st.chain_head = Lsn::NULL;
            return Ok(());
        }
        match env.log.read_record(cursor)? {
            LogRecord::SharedCheckpoint { var: v, value } => {
                debug_assert_eq!(v, var.id);
                // Checkpointed values are flushed under their DV first and
                // can never be orphans (§3.3).
                st.value = value;
                st.dv.clear();
                st.chain_head = cursor;
                return Ok(());
            }
            LogRecord::SharedWrite {
                var: v,
                value,
                writer_dv,
                prev_write,
                ..
            } => {
                debug_assert_eq!(v, var.id);
                if env.knowledge.is_orphan(&writer_dv, env.me) {
                    cursor = prev_write;
                    continue;
                }
                st.value = value;
                st.dv = writer_dv;
                st.chain_head = cursor;
                return Ok(());
            }
            other => {
                return Err(MspError::LogCorrupt {
                    offset: cursor.0,
                    reason: format!(
                        "shared-variable chain for {} hit a {} record",
                        var.name,
                        other.kind()
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_types::{RecoveryRecord, StateId};
    use msp_wal::{DiskModel, FlushPolicy, MemDisk, PhysicalLog};
    use std::sync::Arc;

    fn test_log() -> Arc<Wal> {
        Arc::new(Wal::Single(
            PhysicalLog::open(
                Arc::new(MemDisk::new()),
                DiskModel::zero(),
                FlushPolicy::immediate(),
            )
            .unwrap(),
        ))
    }

    fn env<'a>(log: &'a Wal, knowledge: &'a RecoveryKnowledge) -> SharedEnv<'a> {
        SharedEnv {
            me: MspId(1),
            epoch: Epoch(0),
            log,
            knowledge,
        }
    }

    fn session_with_dv(entries: &[(u32, u32, u64)]) -> SessionState {
        let mut s = SessionState::fresh();
        for &(m, e, l) in entries {
            s.dv.bump(MspId(m), StateId::new(Epoch(e), Lsn(l)));
        }
        s
    }

    #[test]
    fn read_merges_variable_dv_into_session() {
        let log = test_log();
        let k = RecoveryKnowledge::new();
        let mut reg = SharedRegistry::new();
        let id = reg.register("SV0", vec![0; 4]);
        let var = reg.get(id).unwrap();

        // Writer session with a dependency on msp2 writes.
        let mut writer = session_with_dv(&[(2, 0, 77)]);
        write_shared(&env(&log, &k), var, SessionId(1), &mut writer, vec![9; 4]).unwrap();

        let mut reader = SessionState::fresh();
        let v = read_shared(&env(&log, &k), var, SessionId(2), &mut reader).unwrap();
        assert_eq!(v, vec![9; 4]);
        // The variable's dependency (on msp2) flowed to the reader...
        assert_eq!(
            reader.dv.get(MspId(2)),
            Some(StateId::new(Epoch(0), Lsn(77)))
        );
        // ...and the reader's state number advanced to the read record.
        assert!(reader.state_number > Lsn::ZERO);
        assert_eq!(reader.positions.len(), 1, "reads are session records");
        log.close();
    }

    #[test]
    fn write_replaces_variable_dv_and_joins_writer_stream() {
        let log = test_log();
        let k = RecoveryKnowledge::new();
        let mut reg = SharedRegistry::new();
        let id = reg.register("SV0", vec![]);
        let var = reg.get(id).unwrap();

        let mut w1 = session_with_dv(&[(2, 0, 10)]);
        write_shared(&env(&log, &k), var, SessionId(1), &mut w1, vec![1]).unwrap();
        {
            let st = var.state.lock();
            assert_eq!(st.dv.get(MspId(2)), Some(StateId::new(Epoch(0), Lsn(10))));
        }
        // The *variable's* DV took the writer's as of before the write —
        // the logged writer_dv must not include the write itself.
        // Second writer has a *different* dependency: replacement, not merge.
        let mut w2 = session_with_dv(&[(3, 0, 20)]);
        write_shared(&env(&log, &k), var, SessionId(2), &mut w2, vec![2]).unwrap();
        {
            let st = var.state.lock();
            assert_eq!(
                st.dv.get(MspId(2)),
                None,
                "old dependency died with old value"
            );
            assert_eq!(st.dv.get(MspId(3)), Some(StateId::new(Epoch(0), Lsn(20))));
            assert_eq!(st.writes_since_ckpt, 2);
            // The writer's own stream and self-dependency cover the write
            // (reply-durability + replay write-half; see write_shared).
            assert_eq!(w2.positions.len(), 1, "writes enter the session stream");
            assert_eq!(
                w2.dv.get(MspId(1)).map(|s| s.lsn),
                Some(st.chain_head),
                "writer self-entry covers the write record"
            );
        }
        log.close();
    }

    #[test]
    fn orphan_variable_rolls_back_along_chain() {
        let log = test_log();
        let mut k = RecoveryKnowledge::new();
        let mut reg = SharedRegistry::new();
        let id = reg.register("SV0", b"init".to_vec());
        let var = reg.get(id).unwrap();

        // Clean write by a session depending on msp2@(0,10).
        let mut clean = session_with_dv(&[(2, 0, 10)]);
        write_shared(
            &env(&log, &k),
            var,
            SessionId(1),
            &mut clean,
            b"good".to_vec(),
        )
        .unwrap();
        // Doomed write depending on msp2@(0,100).
        let mut doomed = session_with_dv(&[(2, 0, 100)]);
        write_shared(
            &env(&log, &k),
            var,
            SessionId(2),
            &mut doomed,
            b"bad".to_vec(),
        )
        .unwrap();

        // msp2 recovers having only reached LSN 50: the second write is
        // an orphan, the first is not.
        k.record(RecoveryRecord {
            msp: MspId(2),
            new_epoch: Epoch(1),
            recovered_lsn: Lsn(50),
        });

        let mut reader = SessionState::fresh();
        let v = read_shared(&env(&log, &k), var, SessionId(3), &mut reader).unwrap();
        assert_eq!(
            v,
            b"good".to_vec(),
            "rolled back to most recent non-orphan value"
        );
        assert_eq!(
            reader.dv.get(MspId(2)),
            Some(StateId::new(Epoch(0), Lsn(10)))
        );
        log.close();
    }

    #[test]
    fn rollback_past_everything_restores_initial() {
        let log = test_log();
        let mut k = RecoveryKnowledge::new();
        let mut reg = SharedRegistry::new();
        let id = reg.register("SV0", b"init".to_vec());
        let var = reg.get(id).unwrap();

        let mut doomed = session_with_dv(&[(2, 0, 100)]);
        write_shared(
            &env(&log, &k),
            var,
            SessionId(1),
            &mut doomed,
            b"bad".to_vec(),
        )
        .unwrap();
        k.record(RecoveryRecord {
            msp: MspId(2),
            new_epoch: Epoch(1),
            recovered_lsn: Lsn(50),
        });

        let mut reader = SessionState::fresh();
        let v = read_shared(&env(&log, &k), var, SessionId(2), &mut reader).unwrap();
        assert_eq!(v, b"init".to_vec());
        assert!(
            reader.dv.get(MspId(2)).is_none(),
            "initial value has no dependencies"
        );
        log.close();
    }

    #[test]
    fn rollback_stops_at_checkpoint_record() {
        let log = test_log();
        let mut k = RecoveryKnowledge::new();
        let mut reg = SharedRegistry::new();
        let id = reg.register("SV0", b"init".to_vec());
        let var = reg.get(id).unwrap();

        // Simulate a checkpoint: value "ck" logged, chain broken.
        let ckpt_lsn = log.append(&LogRecord::SharedCheckpoint {
            var: id,
            value: b"ck".to_vec(),
        });
        {
            let mut st = var.state.lock();
            st.value = b"ck".to_vec();
            st.dv.clear();
            st.chain_head = ckpt_lsn;
            st.last_ckpt = Some(ckpt_lsn);
        }
        let mut doomed = session_with_dv(&[(2, 0, 100)]);
        write_shared(
            &env(&log, &k),
            var,
            SessionId(1),
            &mut doomed,
            b"bad".to_vec(),
        )
        .unwrap();
        k.record(RecoveryRecord {
            msp: MspId(2),
            new_epoch: Epoch(1),
            recovered_lsn: Lsn(50),
        });

        let mut reader = SessionState::fresh();
        let v = read_shared(&env(&log, &k), var, SessionId(2), &mut reader).unwrap();
        assert_eq!(v, b"ck".to_vec(), "chain walk terminates at the checkpoint");
        log.close();
    }

    #[test]
    fn registry_resolution() {
        let mut reg = SharedRegistry::new();
        let a = reg.register("SV0", vec![]);
        let b = reg.register("SV1", vec![]);
        assert_ne!(a, b);
        assert_eq!(reg.resolve("SV0"), Some(a));
        assert_eq!(reg.resolve("SV9"), None);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(b).unwrap().name, "SV1");
    }

    #[test]
    fn own_msp_recovery_records_orphan_lost_self_deps() {
        // After our own recovery, knowledge holds our own recovery
        // record. A variable whose DV references a *lost* state of our
        // previous incarnation (LSN beyond what the recovery salvaged)
        // is an echoed orphan and must roll back — the owner is not
        // exempt from the check.
        let log = test_log();
        let mut k = RecoveryKnowledge::new();
        let mut reg = SharedRegistry::new();
        let id = reg.register("SV0", b"init".to_vec());
        let var = reg.get(id).unwrap();

        let mut writer = session_with_dv(&[(1, 0, 1_000_000)]); // self-dep, huge LSN
        write_shared(
            &env(&log, &k),
            var,
            SessionId(1),
            &mut writer,
            b"v".to_vec(),
        )
        .unwrap();

        // A self recovery record that *covers* the dependency leaves the
        // value intact…
        k.record(RecoveryRecord {
            msp: MspId(1),
            new_epoch: Epoch(1),
            recovered_lsn: Lsn(2_000_000),
        });
        let mut reader = SessionState::fresh();
        let v = read_shared(&env(&log, &k), var, SessionId(2), &mut reader).unwrap();
        assert_eq!(v, b"v".to_vec(), "covered self-dep survives");

        // …but one that says the state was lost rolls the variable back
        // to its last non-orphan value (here: the initial value).
        k.record(RecoveryRecord {
            msp: MspId(1),
            new_epoch: Epoch(2),
            recovered_lsn: Lsn(0),
        });
        let mut reader = SessionState::fresh();
        let v = read_shared(&env(&log, &k), var, SessionId(3), &mut reader).unwrap();
        assert_eq!(v, b"init".to_vec(), "lost self-dep is rolled back");
        log.close();
    }
}
