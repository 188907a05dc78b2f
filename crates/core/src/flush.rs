//! Distributed log flushes (§3.1) and the asynchronous durability gate.
//!
//! Before a message crosses a pessimistic boundary — out of the service
//! domain or to an end client — every state the sender transitively
//! depends on must be durable. The sender walks its dependency vector:
//! its own entry becomes a local flush, every other entry becomes a
//! `FlushRequest` to that MSP. The separate local flushes run in parallel
//! (requests are sent before the local flush starts; replies are awaited
//! afterwards), matching the paper's "the separate local flushes required
//! by a distributed log flush can be done in parallel".
//!
//! The paper only constrains the *message*: it must not leave before its
//! dependencies are durable. Nothing requires the *thread* to block. So
//! the flush is split into an **issue** phase
//! ([`MspInner::distributed_flush_issue`]) that fires every leg — the
//! local flush as a [`msp_wal::FlushTicket`], each remote dependency as a
//! `FlushRequest` RPC — and returns a [`DurabilityGate`], and a **settle**
//! phase that resolves once every leg has acknowledged. A reply never
//! waits on a thread: the runtime parks it on its gate in the
//! pending-release stage and frees the worker. A cross-domain send waits
//! in [`MspInner::settle_gate`] on its worker, which has handed its run
//! token back to the pool for the hop. The only callers that block in
//! [`MspInner::distributed_flush`] are the session, shared-variable and
//! forced checkpoints, which hold a lock across the wait.
//!
//! A flush can *fail*: if a participant crashed and lost the requested
//! state, the requester is an orphan — it carries a dependency on a state
//! that no longer exists. The failure is surfaced as
//! [`MspError::OrphanDependency`] — at settle time, exactly as under the
//! old blocking call — and the caller initiates session (or
//! shared-variable) orphan recovery.
//!
//! The participant's side needs no waiting thread either. The dispatcher
//! answers a `FlushRequest` itself ([`MspInner::answer_flush_request`]):
//! a verdict it can give at once (older or future epoch, the
//! `FlushServe` fault point, an LSN already durable) is sent before the
//! next envelope is read; a current-epoch LSN still in the volatile tail
//! becomes a flush ticket whose settle callback sends the `FlushReply`
//! from the flusher. So any number of requests ride one device flush.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crossbeam_channel::Sender;
use parking_lot::{Condvar, Mutex};

use msp_net::EndpointId;
use msp_types::{DependencyVector, Epoch, Lsn, MspError, MspId, MspResult, StateId};
use msp_wal::Wal;

use crate::envelope::{DurableHint, Envelope};
use crate::runtime::{MspInner, ReleaseCmd};

/// One remote participant of a distributed flush.
struct RemoteLeg {
    msp: MspId,
    state: StateId,
    /// Request id of the most recent `FlushRequest` sent for this leg —
    /// the key under which the dispatcher finds us in `pending_flushes`.
    req_id: u64,
    last_sent: Instant,
    attempts: u32,
    done: bool,
}

struct GateState {
    legs: Vec<RemoteLeg>,
    remote_pending: usize,
    /// `true` while the local flush ticket is outstanding.
    local_pending: bool,
    failed: Option<MspError>,
}

impl GateState {
    fn settled(&self) -> bool {
        self.failed.is_some() || (self.remote_pending == 0 && !self.local_pending)
    }
}

/// The settle-side handle of a non-blocking distributed flush: resolves
/// once the local flush ticket and every remote `FlushRequest` have
/// acknowledged, or fails with the same error the blocking call would
/// have returned. Completion events arrive from the local flusher (via
/// the ticket waker) and from the dispatcher's `FlushReply` arm; the one
/// that settles the gate wakes a thread settling it in place and nudges
/// the release stage a reply on it is parked in.
pub(crate) struct DurabilityGate {
    state: Mutex<GateState>,
    cv: Condvar,
    /// The local log position the gate's local flush leg targets, if any.
    /// The reclaim floor folds this in: log bytes a still-pending gate
    /// waits on must never be truncated out from under it.
    local_lsn: Option<Lsn>,
    /// The release stage a reply parked on this gate waits in, set by
    /// [`MspInner::park_envelope`] before it sends the `Park`; unset for
    /// gates settled in place. A gate that settles before the hand-off
    /// loses nothing: the stage scans after every `Park`.
    release: OnceLock<Sender<ReleaseCmd>>,
}

/// Gate failures are produced locally from a closed set of variants;
/// reproduce them without requiring `MspError: Clone` (it holds
/// `io::Error`).
fn clone_gate_err(e: &MspError) -> MspError {
    match e {
        MspError::OrphanDependency { msp } => MspError::OrphanDependency { msp: *msp },
        MspError::FlushFailed {
            participant,
            reason,
        } => MspError::FlushFailed {
            participant: *participant,
            reason: reason.clone(),
        },
        MspError::Timeout => MspError::Timeout,
        _ => MspError::Shutdown,
    }
}

impl DurabilityGate {
    fn new(legs: Vec<RemoteLeg>, local_lsn: Option<Lsn>) -> Arc<DurabilityGate> {
        let remote_pending = legs.len();
        Arc::new(DurabilityGate {
            state: Mutex::new(GateState {
                legs,
                remote_pending,
                local_pending: local_lsn.is_some(),
                failed: None,
            }),
            cv: Condvar::new(),
            local_lsn,
            release: OnceLock::new(),
        })
    }

    /// Hand the gate the release stage its reply is about to be parked
    /// in. A gate is parked at most once.
    pub(crate) fn set_release(&self, tx: Sender<ReleaseCmd>) {
        let _ = self.release.set(tx);
    }

    /// The local LSN this gate still waits on, or `None` once settled
    /// (or when the gate never had a local leg).
    pub(crate) fn pending_local_target(&self) -> Option<Lsn> {
        let st = self.state.lock();
        if st.settled() {
            return None;
        }
        self.local_lsn
    }

    /// Non-blocking outcome check: `None` while legs are outstanding.
    pub(crate) fn poll(&self) -> Option<MspResult<()>> {
        let st = self.state.lock();
        if let Some(e) = &st.failed {
            return Some(Err(clone_gate_err(e)));
        }
        if st.settled() {
            return Some(Ok(()));
        }
        None
    }

    fn wake(&self) {
        self.cv.notify_all();
        if let Some(tx) = self.release.get() {
            let _ = tx.send(ReleaseCmd::Nudge);
        }
    }

    /// A `FlushReply` arrived for remote leg `idx`. Duplicate and stale
    /// acknowledgements (an old request answered after a resend) are
    /// ignored via the `done` flag.
    pub(crate) fn remote_ack(&self, idx: usize, ok: bool) {
        let mut st = self.state.lock();
        if st.failed.is_some() {
            return;
        }
        let Some(leg) = st.legs.get_mut(idx) else {
            return;
        };
        if leg.done {
            return;
        }
        if ok {
            leg.done = true;
            st.remote_pending -= 1;
        } else {
            // The participant answered "lost": whoever depends on that
            // state is an orphan (§3.1).
            let msp = leg.msp;
            st.failed = Some(MspError::OrphanDependency { msp });
        }
        if st.settled() {
            drop(st);
            self.wake();
        }
    }

    /// The local flush ticket settled.
    fn local_settled(&self, ok: bool) {
        let mut st = self.state.lock();
        if st.failed.is_some() || !st.local_pending {
            return;
        }
        st.local_pending = false;
        if !ok {
            // Same class of failure as a blocking `flush_to` during
            // shutdown/crash: transient, no reply — the client resends.
            st.failed = Some(MspError::Shutdown);
        }
        if st.settled() {
            drop(st);
            self.wake();
        }
    }

    fn fail(&self, err: MspError) {
        let mut st = self.state.lock();
        if st.failed.is_some() {
            return;
        }
        st.failed = Some(err);
        drop(st);
        self.wake();
    }
}

impl MspInner {
    /// Flush everything `dv` depends on, across the domain — the blocking
    /// form: issue every leg, then settle in place. Returns
    /// `Err(OrphanDependency)` when some depended-upon state is lost.
    pub(crate) fn distributed_flush(&self, dv: &DependencyVector) -> MspResult<()> {
        match self.distributed_flush_issue(dv)? {
            None => Ok(()),
            Some(gate) => self.settle_gate(&gate),
        }
    }

    /// Issue phase: fire all remote `FlushRequest`s and the local flush
    /// ticket without blocking. Returns `Ok(None)` when nothing needs
    /// flushing (non-logging strategy, empty DV, or every leg elided by
    /// watermarks) and `Err(OrphanDependency)` when a dependency is
    /// already known lost — before anything is sent, exactly like the
    /// blocking path's pre-send DV walk.
    pub(crate) fn distributed_flush_issue(
        &self,
        dv: &DependencyVector,
    ) -> MspResult<Option<Arc<DurabilityGate>>> {
        if !self.is_log_based() {
            return Ok(None);
        }
        self.stats
            .distributed_flushes
            .fetch_add(1, Ordering::Relaxed);
        let me = self.cfg.id;
        let mut local: Option<Lsn> = None;
        let mut remote: Vec<(MspId, StateId)> = Vec::new();
        for (m, s) in dv.iter() {
            if m == me {
                local = Some(local.map_or(s.lsn, |l| l.max(s.lsn)));
            } else {
                // Fast path: already-known-lost dependencies fail without
                // a network round trip.
                if self.knowledge.read().is_orphan_dep(m, s) {
                    return Err(MspError::OrphanDependency { msp: m });
                }
                // Watermark elision: a dependency provably durable at the
                // peer (same epoch, strictly below its reported durable
                // end) needs no flush RPC — durability never un-happens.
                if self.watermarks.lock().covers(m, s) {
                    self.stats.flush_rpcs_elided.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                remote.push((m, s));
            }
        }
        // Local elision happens at issue time too: `durable` is the
        // exclusive end of the durable prefix, so a record starting at
        // `lsn` is durable iff `durable > lsn`.
        let local_lsn = match local {
            Some(lsn) if self.log().durable_lsn() > lsn => {
                self.stats.flushes_elided.fetch_add(1, Ordering::Relaxed);
                None
            }
            other => other,
        };
        if remote.is_empty() && local_lsn.is_none() {
            return Ok(None);
        }

        let now = Instant::now();
        let legs: Vec<RemoteLeg> = remote
            .iter()
            .map(|&(m, s)| RemoteLeg {
                msp: m,
                state: s,
                req_id: 0,
                last_sent: now,
                attempts: 0,
                done: false,
            })
            .collect();
        let gate = DurabilityGate::new(legs, local_lsn);

        // Fire all remote requests first so they overlap with the local
        // flush (parallel flushes, §3.1 / §5.2).
        for (idx, &(m, s)) in remote.iter().enumerate() {
            self.send_flush_request(&gate, idx, m, s);
        }
        if let Some(lsn) = local_lsn {
            let ticket = self.log().flush_to_async(lsn);
            let g = Arc::clone(&gate);
            ticket.on_settle(move |ok| g.local_settled(ok));
        }
        Ok(Some(gate))
    }

    /// Settle phase, blocking form: wait on the gate, driving per-leg
    /// retries at the same cadence (and with the same stopped / orphan /
    /// retry-limit outcomes) as the old per-leg `recv_timeout` loop.
    pub(crate) fn settle_gate(&self, gate: &Arc<DurabilityGate>) -> MspResult<()> {
        loop {
            {
                let mut st = gate.state.lock();
                loop {
                    if let Some(e) = &st.failed {
                        return Err(clone_gate_err(e));
                    }
                    if st.settled() {
                        return Ok(());
                    }
                    if gate.cv.wait_for(&mut st, self.cfg.rpc_timeout).timed_out() {
                        break;
                    }
                }
            }
            self.drive_gate(gate);
        }
    }

    /// Retry driver shared by the in-place settle and the reply-release
    /// stage: fail the gate on shutdown or a newly learned lost
    /// dependency, resend overdue remote legs, give up past the retry
    /// limit. A no-op for gates that are settled or not yet overdue.
    pub(crate) fn drive_gate(&self, gate: &Arc<DurabilityGate>) {
        let mut resend: Vec<(usize, MspId, StateId)> = Vec::new();
        let mut stale: Vec<u64> = Vec::new();
        {
            let mut st = gate.state.lock();
            if st.settled() {
                return;
            }
            if self.stopped() {
                st.failed = Some(MspError::Shutdown);
                drop(st);
                gate.wake();
                return;
            }
            for i in 0..st.legs.len() {
                let leg = &st.legs[i];
                if leg.done || leg.last_sent.elapsed() < self.cfg.rpc_timeout {
                    continue;
                }
                let (m, s) = (leg.msp, leg.state);
                // While the participant is down we cannot know whether
                // our dependency survived; its recovery broadcast may
                // settle the question first.
                if self.knowledge.read().is_orphan_dep(m, s) {
                    st.failed = Some(MspError::OrphanDependency { msp: m });
                    break;
                }
                let leg = &mut st.legs[i];
                leg.attempts += 1;
                if leg.attempts > self.cfg.flush_retry_limit {
                    st.failed = Some(MspError::FlushFailed {
                        participant: m,
                        reason: "participant unreachable".into(),
                    });
                    break;
                }
                stale.push(leg.req_id);
                resend.push((i, m, s));
            }
            if st.failed.is_some() {
                drop(st);
                gate.wake();
                // Don't resend for a gate we just failed.
                resend.clear();
            }
        }
        {
            let mut pending = self.pending_flushes.lock();
            for id in stale {
                pending.remove(&id);
            }
        }
        for (idx, m, s) in resend {
            self.send_flush_request(gate, idx, m, s);
        }
    }

    /// Register leg `idx` under a fresh request id and send the
    /// `FlushRequest`. The registration happens before the send so the
    /// dispatcher can never race past an unrecorded ack.
    fn send_flush_request(
        &self,
        gate: &Arc<DurabilityGate>,
        idx: usize,
        target: MspId,
        state: StateId,
    ) {
        let req_id = self.next_req_id();
        {
            let mut st = gate.state.lock();
            if st.failed.is_some() {
                return;
            }
            let Some(leg) = st.legs.get_mut(idx) else {
                return;
            };
            if leg.done {
                return;
            }
            leg.req_id = req_id;
            leg.last_sent = Instant::now();
        }
        self.pending_flushes
            .lock()
            .insert(req_id, (Arc::clone(gate), idx));
        self.send(
            EndpointId::Msp(target),
            Envelope::FlushRequest {
                from: self.me(),
                req_id,
                epoch: state.epoch,
                lsn: state.lsn,
            },
        );
    }

    /// Fail every gate registered in `pending_flushes` (crash/stop path):
    /// replies parked on those gates are then discarded by the release
    /// stage rather than ever leaving the process, and a worker settling
    /// one for its send returns the failure without sending.
    pub(crate) fn fail_pending_gates(&self) {
        let drained: Vec<(Arc<DurabilityGate>, usize)> = self
            .pending_flushes
            .lock()
            .drain()
            .map(|(_, v)| v)
            .collect();
        for (gate, _) in drained {
            gate.fail(MspError::Shutdown);
        }
    }

    /// Answer a peer's `FlushRequest` for our state `(epoch, lsn)` — the
    /// one flush-service path, run on the dispatcher and never blocking
    /// it. The reply says `ok` iff the state is durable (or survived a
    /// recovery); `false` means lost, and makes the requester an orphan.
    /// A current-epoch LSN not yet durable is answered by its flush
    /// ticket's settle callback, so any number of requests wait on the
    /// device together and none holds a thread.
    pub(crate) fn answer_flush_request(
        self: &Arc<Self>,
        from: EndpointId,
        req_id: u64,
        epoch: Epoch,
        lsn: Lsn,
    ) {
        self.stats
            .flush_requests_served
            .fetch_add(1, Ordering::Relaxed);
        let current = self.epoch();
        let ok = if !self.is_log_based() {
            false
        } else if self.log().fault_point(msp_wal::CrashPoint::FlushServe) {
            // Torture-rig crash site: the serving participant dies inside
            // a peer's gate issue→settle window, so the peer's parked
            // envelope must ride out a flush-leg retry against our restart.
            false
        } else if epoch == current {
            // The state is in our current incarnation's log: flush it.
            // The callback holds the runtime weakly: the ticket lives in
            // the log this runtime owns (a strong reference would be a
            // cycle), and the flusher that settles it must never drop the
            // last reference — dropping the log joins that flusher. An
            // already-durable LSN settles inline, right here.
            let inner = Arc::downgrade(self);
            self.log().flush_to_async(lsn).on_settle(move |ok| {
                if let Some(inner) = inner.upgrade() {
                    let durable = ok.then(|| inner.settled_hint(lsn));
                    inner.send(
                        from,
                        Envelope::FlushReply {
                            req_id,
                            ok,
                            durable,
                        },
                    );
                }
            });
            return;
        } else if epoch < current {
            // From a previous incarnation: it survived iff it is at or
            // below the recovered LSN of the first recovery after it —
            // our own recovery history answers that. Anything that
            // survived a recovery is durable by construction.
            self.own_state_survived(epoch, lsn)
        } else {
            // A dependency on our future: can only mean a stale message
            // from before several crashes of the *requester*; refuse.
            false
        };
        // A successful ack carries our durable watermark, so the requester
        // can skip redundant flushes of this (and any lower) dependency.
        let durable = if ok { self.own_durable_hint() } else { None };
        self.send(
            from,
            Envelope::FlushReply {
                req_id,
                ok,
                durable,
            },
        );
    }

    /// Our durable watermark when a flush ticket for `lsn` settles `ok`,
    /// read on the flusher that settled it. The single log's horizon is
    /// one atomic load. The striped log's merged horizon is computed under
    /// every stripe's lock, and an appender holds its stripe's lock while
    /// it waits for that stripe's flusher to free a staging slot; so here
    /// it is what the ticket proved: every record up to `lsn` is durable.
    fn settled_hint(&self, lsn: Lsn) -> DurableHint {
        let durable = match self.log() {
            Wal::Single(log) => log.durable_lsn(),
            Wal::Striped(_) => Lsn(lsn.0 + 1),
        };
        DurableHint {
            msp: self.cfg.id,
            epoch: self.epoch(),
            durable,
        }
    }

    /// Absorb a recovery broadcast (§3.1/§4): log it (and flush, so the
    /// knowledge survives our own crashes), record it, then sweep idle
    /// sessions for orphans — busy sessions check at their next
    /// interception point (§4.1).
    pub(crate) fn absorb_recovery_broadcast(&self, rec: msp_types::RecoveryRecord) {
        if rec.msp == self.cfg.id {
            return;
        }
        if let Some(log) = &self.log {
            let lsn = log.append(&msp_wal::LogRecord::RecoveryAnnouncement(rec));
            // Durable knowledge: recovery broadcasts are sent exactly once
            // (at the peer's recovery), so losing the record would leave
            // permanently undetectable orphans. Crashes are rare; one
            // flush per peer crash is cheap.
            let _ = log.flush_to(lsn);
        }
        self.knowledge.write().record(rec);
        // The peer crashed and recovered: every watermark learned from its
        // previous incarnation is void. The next flush involving it will
        // go over the wire and re-learn the (new-epoch) watermark.
        self.watermarks.lock().invalidate(rec.msp);
        let cells: Vec<_> = self.sessions.lock().values().cloned().collect();
        let me = self.cfg.id;
        for cell in cells {
            // Idle sessions can be checked right now; their recovery runs
            // on the worker pool. Busy sessions are intercepted later.
            let schedule = match cell.state.try_lock() {
                Some(mut st) if !st.ended && self.knowledge.read().is_orphan(&st.dv, me) => {
                    st.needs_recovery = true;
                    true
                }
                _ => false,
            };
            if schedule {
                self.send_work(crate::runtime::WorkItem::RecoverSession(cell.id));
            }
        }
    }
}
