//! The MSP runtime: thread pool, request queue, dispatch, and the normal
//! execution path of §3.
//!
//! One MSP runtime instance ([`MspInner`] behind an [`MspHandle`]) is one
//! middleware server process. Threads:
//!
//! * **dispatcher** — drains the network endpoint and routes envelopes:
//!   requests to the worker queue, replies/flush-acks to their waiting
//!   callers. It also serves the infrastructure traffic itself, without
//!   waiting on anything: a peer's `FlushRequest` is answered at once or
//!   from a flush ticket's settle callback (see [`crate::flush`]), and a
//!   recovery broadcast is absorbed as gossiped recovery records are;
//! * **workers** (the paper's thread pool, §2.1) — process requests,
//!   run session orphan recovery and forced checkpoints. The pool is
//!   oversubscribed in threads but bounded by run tokens, so a worker
//!   waiting out a pipelined durability gate or RPC reply hands its
//!   capacity to a sibling thread instead of idling;
//! * **release** — the pending-release stage of the asynchronous
//!   durability pipeline: replies whose distributed flush was issued but
//!   not yet settled are parked here (the reply waits, not the worker)
//!   and leave in per-session order once their gate settles;
//! * **checkpointer** — takes the periodic fuzzy MSP checkpoint (§3.4);
//! * **recovery** — after a crash, replay the crashed sessions (§4.3).
//!
//! Each thread blocks on the event it waits for, and `stop` ends each of
//! those waits itself; only the checkpointer wakes on a timer.
//!
//! A *crash* tears all of this down, discarding every volatile structure
//! (the un-flushed log tail included); re-`start`ing over the same disk
//! runs MSP crash recovery (§4.3) before going live.

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossbeam_channel::{Receiver, Sender};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use msp_kv::KvStore;
use msp_net::{Endpoint, EndpointId, Network};
use msp_types::codec;
use msp_types::{
    DependencyVector, Epoch, Lsn, MspError, MspId, MspResult, RecoveryKnowledge, RequestSeq,
    SessionId, StateId,
};
use msp_wal::{
    CrashPoint, Disk, DiskModel, FaultPlan, FlushPolicy, LogAnchor, LogRecord, PhysicalLog,
    StripedLog, Wal,
};

use crate::config::{ClusterConfig, MspConfig, SessionStrategy};
use crate::envelope::{DurableHint, Envelope, ReplyMsg, ReplyStatus, RequestMsg};
use crate::service::{take_fatal, ServiceContext, ServiceFn};
use crate::session::{OutgoingSession, SessionCell, SessionState};
use crate::shared::SharedRegistry;
use crate::watermark::WatermarkTable;

/// Globally unique session-id source (clients and outgoing sessions share
/// the id space; the simulation runs in one process).
static SESSION_IDS: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh, globally unique session id.
pub fn next_session_id() -> SessionId {
    SessionId(SESSION_IDS.fetch_add(1, Ordering::Relaxed))
}

/// Reserved method name ending a session (§2.1: sessions are started and
/// ended by client requests).
pub const END_SESSION_METHOD: &str = "__end_session";

thread_local! {
    /// Whether this thread currently holds a run token of its MSP's
    /// worker pool. Only token holders hand capacity back while waiting
    /// out a pipelined gate or reply — recovery threads reaching the
    /// same waits just wait.
    static HOLDS_RUN_TOKEN: Cell<bool> = const { Cell::new(false) };
    /// Which runtime shard's token pool this worker thread belongs to.
    /// Set once at worker spawn; other threads keep the 0 default and
    /// never hold run tokens, so they never consult it.
    static SHARD_INDEX: Cell<usize> = const { Cell::new(0) };
}
/// Worker threads spawned per configured worker. Concurrency is bounded
/// by run tokens (== `cfg.workers`); the spare threads exist so that a
/// token released by a parked worker always has an idle thread to land
/// on, even when every other token holder parks too.
const WORKER_OVERSUBSCRIPTION: usize = 4;
/// How long a server's receive loop waits before it simply waits again:
/// in effect forever, since stopping ends the wait by leaving the network.
pub(crate) const IDLE_WAIT: Duration = Duration::from_secs(24 * 3600);
/// Cadence at which the release stage drives the retries of its parked
/// gates; it waits without one while nothing is parked.
const GATE_RETRY_TICK: Duration = Duration::from_millis(20);
/// Resends an outgoing call makes before reporting
/// [`MspError::Timeout`] — effectively "retry forever": the client
/// protocol owns liveness.
const RPC_RETRY_LIMIT: u32 = 10_000;

/// Counting semaphore bounding how many worker threads *run* at once:
/// one unit per configured worker. The pool spawns
/// [`WORKER_OVERSUBSCRIPTION`]× more threads than tokens; a worker that
/// parks on a pipelined durability gate or RPC reply hands its token back
/// so a sibling thread runs a *fresh* request start to finish, and
/// re-acquires it on wake. No request ever executes inside another's
/// wait, so per-request latency stays its own — unlike synchronous work
/// stealing, whose nested frames serialize the stack.
pub(crate) struct RunTokens {
    state: Mutex<TokenState>,
    /// Resuming workers wait here, fresh starts on `starts`.
    resumes: Condvar,
    starts: Condvar,
}

#[derive(Default)]
struct TokenState {
    free: usize,
    /// Workers waiting to resume after a pipelined wait. Fresh starts wait
    /// while any does: a resuming request is mid-latency, a queued one has
    /// not started its clock — so priority here bounds per-request tail
    /// latency instead of letting starts starve resumes. It cannot
    /// deadlock (resumers never depend on local fresh items) and cannot
    /// starve (the count drains to zero between waves).
    resumers: usize,
    starters: usize,
    stopped: bool,
}

impl RunTokens {
    fn new(n: usize) -> RunTokens {
        RunTokens {
            state: Mutex::new(TokenState {
                free: n.max(1),
                ..TokenState::default()
            }),
            resumes: Condvar::new(),
            starts: Condvar::new(),
        }
    }

    /// Block until a token is ours: `resume` for a worker coming back from
    /// a pipelined wait, which goes first, else for a fresh work item.
    /// `false` = stopping.
    fn acquire(&self, resume: bool) -> bool {
        let mut st = self.state.lock();
        if resume {
            st.resumers += 1;
            while st.free == 0 && !st.stopped {
                self.resumes.wait(&mut st);
            }
            st.resumers -= 1;
        } else {
            st.starters += 1;
            while (st.free == 0 || st.resumers > 0) && !st.stopped {
                self.starts.wait(&mut st);
            }
            st.starters -= 1;
        }
        if st.stopped {
            return false;
        }
        st.free -= 1;
        self.pass_on(st);
        true
    }

    /// Return a token.
    fn release(&self) {
        let mut st = self.state.lock();
        st.free += 1;
        self.pass_on(st);
    }

    /// Wake a waiter a free token can serve, a resumer first, once unlocked.
    fn pass_on(&self, st: MutexGuard<'_, TokenState>) {
        let (free, resume, start) = (st.free > 0, st.resumers > 0, st.starters > 0);
        drop(st); // a waiter woken under the lock would find it held and sleep again
        if free && resume {
            self.resumes.notify_one();
        } else if free && start {
            self.starts.notify_one();
        }
    }

    /// Fail every wait, present and future (stop path).
    fn stop(&self) {
        self.state.lock().stopped = true;
        self.resumes.notify_all();
        self.starts.notify_all();
    }
}

/// Work consumed by the worker pool.
pub(crate) enum WorkItem {
    Request(RequestMsg),
    RecoverSession(SessionId),
    /// A parked reply's durability gate failed: run the orphan-recovery
    /// / transient-drop logic of [`MspInner::after_infra_failure`] on the
    /// worker pool.
    GateFailed {
        session: SessionId,
        seq: RequestSeq,
        reply_to: EndpointId,
        err: MspError,
    },
}

impl WorkItem {
    /// The session a work item belongs to — the shard-routing key. Every
    /// variant carries one, so a session's items always land on the same
    /// shard's queue (per-session ordering needs no cross-shard locks).
    fn session(&self) -> SessionId {
        match self {
            WorkItem::Request(req) => req.session,
            WorkItem::RecoverSession(id) => *id,
            WorkItem::GateFailed { session, .. } => *session,
        }
    }
}

/// A reply held back by the pending-release stage until its durability
/// gate settles. The session's state (buffered reply, next expected
/// sequence number) was committed before the reply was parked, so no
/// worker waits here — only the reply.
pub(crate) struct ParkedEnvelope {
    pub(crate) gate: Arc<crate::flush::DurabilityGate>,
    /// Ordering key: replies of one session leave in park order.
    pub(crate) session: SessionId,
    pub(crate) seq: RequestSeq,
    pub(crate) reply_to: EndpointId,
    pub(crate) status: ReplyStatus,
}

/// Commands consumed by the release thread.
pub(crate) enum ReleaseCmd {
    /// Park a reply until its gate settles.
    Park(ParkedEnvelope),
    /// A gate made progress — rescan the parked list now instead of
    /// waiting for the next tick.
    Nudge,
}

/// Per-session FIFO of the release stage: entry `i` may only leave once
/// no earlier parked entry of the same session remains. Shared with the
/// release-order property tests.
pub(crate) fn fifo_blocked<T>(entries: &[T], i: usize, session: impl Fn(&T) -> SessionId) -> bool {
    entries[..i]
        .iter()
        .any(|e| session(e) == session(&entries[i]))
}

/// Operation counters of a runtime.
#[derive(Debug, Default)]
pub struct RuntimeStats {
    pub requests: AtomicU64,
    pub replayed_requests: AtomicU64,
    pub busy_replies: AtomicU64,
    pub duplicate_requests: AtomicU64,
    pub orphan_msgs_dropped: AtomicU64,
    pub orphan_recoveries: AtomicU64,
    pub session_checkpoints: AtomicU64,
    pub shared_checkpoints: AtomicU64,
    pub msp_checkpoints: AtomicU64,
    /// MSP checkpoints triggered by the byte-driven scheduler (log growth
    /// since the last anchor crossed `checkpoint_interval_bytes`) rather
    /// than the periodic timer.
    pub checkpoints_scheduled: AtomicU64,
    /// MSP checkpoint ticks whose forced-checkpoint batch held at least
    /// one session (one distributed flush each).
    pub forced_ckpt_batches: AtomicU64,
    /// Session checkpoints taken by the forced-checkpoint scheduler.
    pub forced_ckpt_sessions: AtomicU64,
    /// Sessions the scheduler picked but found busy; they stay first in
    /// line for the next tick.
    pub forced_ckpt_skipped_busy: AtomicU64,
    pub crash_recoveries: AtomicU64,
    pub distributed_flushes: AtomicU64,
    pub flush_requests_served: AtomicU64,
    /// Durability gates currently parked in the pending-release stage
    /// (a gauge: incremented at park, decremented at release/failure).
    pub gates_pending: AtomicU64,
    /// Replies released asynchronously by the pending-release stage after
    /// their gate settled (vs sent inline: intra-domain, or every
    /// dependency already durable).
    pub async_reply_releases: AtomicU64,
    /// Outgoing-send gates a worker is currently waiting out (a gauge,
    /// like `gates_pending` but for the send path).
    pub send_gates_pending: AtomicU64,
    /// Outgoing sends that waited on a durability gate and left once it
    /// settled (vs sent at once because every dependency was already
    /// durable).
    pub async_send_releases: AtomicU64,
    /// Total nanoseconds workers spent inside `outgoing_call` — the
    /// per-hop wait of a call chain (durability gate + RPC round trip).
    /// Divide by requests × m for the mean hop.
    pub chain_hop_wait_nanos: AtomicU64,
    /// Times a worker handed its run token back to the pool for a
    /// cross-domain hop — its send's durability gate and the reply wait
    /// together (a sibling thread ran fresh requests on the freed
    /// capacity).
    pub worker_parks: AtomicU64,
    /// Local log flushes skipped because the durable LSN already covered
    /// the dependency.
    pub flushes_elided: AtomicU64,
    /// Remote flush RPCs skipped thanks to the durability-watermark table.
    pub flush_rpcs_elided: AtomicU64,
    /// Wall-clock nanoseconds of the last crash recovery's analysis scan.
    pub recovery_analysis_nanos: AtomicU64,
    /// Wall-clock nanoseconds of the post-recovery MSP checkpoint.
    pub recovery_checkpoint_nanos: AtomicU64,
    /// Wall-clock nanoseconds of the parallel (or serial) session-replay
    /// phase — its makespan, not the per-session sum. Zero until the
    /// replay pool finishes.
    pub recovery_replay_nanos: AtomicU64,
    /// Sessions replayed by the dedicated recovery pool.
    pub recovery_pool_sessions: AtomicU64,
    /// Sessions the recovery pool could not replay because the log was
    /// unreadable or replay diverged from it (`LogCorrupt`, `Codec`,
    /// `Io`); they stay marked `needs_recovery`. Transient failures — the
    /// MSP dying mid-replay, a peer's crash orphaning the live
    /// continuation — are retried by the session's next request and not
    /// counted. Non-zero means damaged media or a bug; the first such
    /// error is kept ([`MspHandle::first_replay_failure`]).
    pub recovery_pool_failures: AtomicU64,
    /// Framed log bytes the last crash recovery's analysis scan retained
    /// in per-session replay queues.
    pub recovery_retained_bytes: AtomicU64,
}

/// Snapshot of [`RuntimeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStatsSnapshot {
    pub requests: u64,
    pub replayed_requests: u64,
    pub busy_replies: u64,
    pub duplicate_requests: u64,
    pub orphan_msgs_dropped: u64,
    pub orphan_recoveries: u64,
    pub session_checkpoints: u64,
    pub shared_checkpoints: u64,
    pub msp_checkpoints: u64,
    pub checkpoints_scheduled: u64,
    pub forced_ckpt_batches: u64,
    pub forced_ckpt_sessions: u64,
    pub forced_ckpt_skipped_busy: u64,
    pub crash_recoveries: u64,
    pub distributed_flushes: u64,
    pub flush_requests_served: u64,
    pub gates_pending: u64,
    pub async_reply_releases: u64,
    pub send_gates_pending: u64,
    pub async_send_releases: u64,
    pub chain_hop_wait_nanos: u64,
    pub worker_parks: u64,
    pub flushes_elided: u64,
    pub flush_rpcs_elided: u64,
    pub recovery_analysis_nanos: u64,
    pub recovery_checkpoint_nanos: u64,
    pub recovery_replay_nanos: u64,
    pub recovery_pool_sessions: u64,
    pub recovery_pool_failures: u64,
    pub recovery_retained_bytes: u64,
}

impl RuntimeStats {
    pub fn snapshot(&self) -> RuntimeStatsSnapshot {
        RuntimeStatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            replayed_requests: self.replayed_requests.load(Ordering::Relaxed),
            busy_replies: self.busy_replies.load(Ordering::Relaxed),
            duplicate_requests: self.duplicate_requests.load(Ordering::Relaxed),
            orphan_msgs_dropped: self.orphan_msgs_dropped.load(Ordering::Relaxed),
            orphan_recoveries: self.orphan_recoveries.load(Ordering::Relaxed),
            session_checkpoints: self.session_checkpoints.load(Ordering::Relaxed),
            shared_checkpoints: self.shared_checkpoints.load(Ordering::Relaxed),
            msp_checkpoints: self.msp_checkpoints.load(Ordering::Relaxed),
            checkpoints_scheduled: self.checkpoints_scheduled.load(Ordering::Relaxed),
            forced_ckpt_batches: self.forced_ckpt_batches.load(Ordering::Relaxed),
            forced_ckpt_sessions: self.forced_ckpt_sessions.load(Ordering::Relaxed),
            forced_ckpt_skipped_busy: self.forced_ckpt_skipped_busy.load(Ordering::Relaxed),
            crash_recoveries: self.crash_recoveries.load(Ordering::Relaxed),
            distributed_flushes: self.distributed_flushes.load(Ordering::Relaxed),
            flush_requests_served: self.flush_requests_served.load(Ordering::Relaxed),
            gates_pending: self.gates_pending.load(Ordering::Relaxed),
            async_reply_releases: self.async_reply_releases.load(Ordering::Relaxed),
            send_gates_pending: self.send_gates_pending.load(Ordering::Relaxed),
            async_send_releases: self.async_send_releases.load(Ordering::Relaxed),
            chain_hop_wait_nanos: self.chain_hop_wait_nanos.load(Ordering::Relaxed),
            worker_parks: self.worker_parks.load(Ordering::Relaxed),
            flushes_elided: self.flushes_elided.load(Ordering::Relaxed),
            flush_rpcs_elided: self.flush_rpcs_elided.load(Ordering::Relaxed),
            recovery_analysis_nanos: self.recovery_analysis_nanos.load(Ordering::Relaxed),
            recovery_checkpoint_nanos: self.recovery_checkpoint_nanos.load(Ordering::Relaxed),
            recovery_replay_nanos: self.recovery_replay_nanos.load(Ordering::Relaxed),
            recovery_pool_sessions: self.recovery_pool_sessions.load(Ordering::Relaxed),
            recovery_pool_failures: self.recovery_pool_failures.load(Ordering::Relaxed),
            recovery_retained_bytes: self.recovery_retained_bytes.load(Ordering::Relaxed),
        }
    }
}

/// Per-shard operation counters (the per-shard breakdown next to the
/// process-wide [`RuntimeStats`]).
#[derive(Debug, Default)]
pub struct ShardStats {
    /// Requests executed by this shard's worker pool.
    pub requests: AtomicU64,
    /// Replies emitted by this shard's pending-release stage after their
    /// gate settled.
    pub releases: AtomicU64,
    /// Times a worker of this shard handed its run token back for a
    /// cross-domain hop.
    pub worker_parks: AtomicU64,
}

/// Snapshot of [`ShardStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStatsSnapshot {
    pub requests: u64,
    pub releases: u64,
    pub worker_parks: u64,
}

impl ShardStats {
    fn snapshot(&self) -> ShardStatsSnapshot {
        ShardStatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
            worker_parks: self.worker_parks.load(Ordering::Relaxed),
        }
    }
}

/// One runtime shard: an independent worker pool (queue + run tokens)
/// and pending-release stage. Sessions are assigned to shards by a
/// consistent hash of their id, so one session's requests, parked
/// replies and recovery items all serialize through one shard while
/// different sessions spread across all of them. State that is genuinely
/// global — the sessions map, shared variables, recovery knowledge, the
/// log itself — stays on [`MspInner`].
pub(crate) struct ShardRt {
    /// This shard's work queue. `None` is the wake `stop` queues for each
    /// of its worker threads.
    pub(crate) work_tx: Sender<Option<WorkItem>>,
    /// Worker threads of this shard.
    pub(crate) workers: usize,
    /// Run-token semaphore of this shard's worker pool (see
    /// [`RunTokens`]): the oversubscribed worker threads acquire a token
    /// to run an item, and pipelined waits hand the token back so the
    /// pool loses no capacity to a wait.
    pub(crate) run_tokens: RunTokens,
    /// Feed of this shard's pending-release stage. Always present; the
    /// release thread only runs under `LogBased` (the only strategy that
    /// creates gates).
    pub(crate) release_tx: Sender<ReleaseCmd>,
    pub(crate) stats: ShardStats,
}

/// Consistent shard route: Fibonacci multiply-shift over the session id
/// (same family as the WAL's stripe router, so neither inherits the
/// other's collisions on sequential ids).
fn shard_route(id: u64, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % n
}

/// Everything shared between an MSP's threads.
pub struct MspInner {
    pub(crate) cfg: MspConfig,
    pub(crate) cluster: ClusterConfig,
    pub(crate) net: Network<Envelope>,
    /// Present only under the `LogBased` strategy. Single-log or striped
    /// behind the [`Wal`] facade.
    pub(crate) log: Option<Wal>,
    pub(crate) anchor: Option<LogAnchor>,
    pub(crate) epoch: AtomicU32,
    pub(crate) knowledge: RwLock<RecoveryKnowledge>,
    /// Per-peer durable watermarks (flush-RPC elision). Volatile: rebuilt
    /// empty on every start.
    pub(crate) watermarks: Mutex<WatermarkTable>,
    pub(crate) sessions: Mutex<HashMap<SessionId, Arc<SessionCell>>>,
    /// Tombstones of ended sessions. A stale duplicate of an old request
    /// can be dequeued *after* the session's `__end_session` was
    /// processed (workers race on the queue); without a tombstone,
    /// create-on-first-use would resurrect the session with a fresh
    /// `next_expected` and re-execute the duplicate — a lost-update-free
    /// but exactly-once-violating double execution. Seeded from
    /// `SessionEnd` records during crash recovery; lock order is
    /// `sessions` → `ended_sessions` everywhere.
    pub(crate) ended_sessions: Mutex<HashSet<SessionId>>,
    pub(crate) shared: SharedRegistry,
    pub(crate) services: HashMap<String, ServiceFn>,
    /// The runtime shards (at least one): per-shard worker queue, run
    /// tokens and release stage. Sessions hash onto them via
    /// [`MspInner::shard_of`].
    pub(crate) shards: Vec<ShardRt>,
    pub(crate) pending_replies: Mutex<HashMap<(SessionId, RequestSeq), Sender<ReplyMsg>>>,
    /// Outstanding flush RPCs: request id → (gate, remote-leg index).
    pub(crate) pending_flushes: Mutex<HashMap<u64, (Arc<crate::flush::DurabilityGate>, usize)>>,
    pub(crate) pending_state: Mutex<HashMap<u64, Sender<Option<Vec<u8>>>>>,
    pub(crate) req_ids: AtomicU64,
    pub(crate) stopped: AtomicBool,
    pub(crate) stats: RuntimeStats,
    /// Threads of the crash-recovery replay pool still running; the
    /// replay phase is complete at zero. Each thread's `Release` decrement
    /// publishes its replay counters to the `Acquire` load that sees zero.
    pub(crate) replay_threads: AtomicUsize,
    /// Credit of the forced-checkpoint scheduler, in units of
    /// `1 / force_ckpt_after` sessions (see
    /// [`crate::checkpoint::pick_forced_checkpoints`]). Held for the whole
    /// of an MSP checkpoint, which it thereby serialises.
    pub(crate) forced_ckpt_credit: Mutex<u64>,
    /// The first replay failure of the recovery pool: session and error.
    pub(crate) first_replay_failure: OnceLock<(SessionId, String)>,
}

impl MspInner {
    pub(crate) fn me(&self) -> EndpointId {
        EndpointId::Msp(self.cfg.id)
    }

    pub(crate) fn epoch(&self) -> Epoch {
        Epoch(self.epoch.load(Ordering::Acquire))
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    /// Register a call's waiter in `map`: the dispatcher takes the sender
    /// to deliver the answer, `stop` drops it. `None` once stopping —
    /// checked under the lock `stop` empties the map under.
    fn register_waiter<K: std::hash::Hash + Eq, T>(
        &self,
        map: &Mutex<HashMap<K, Sender<T>>>,
        key: K,
    ) -> Option<Receiver<T>> {
        let mut map = map.lock();
        if self.stopped() {
            return None;
        }
        let (tx, rx) = crossbeam_channel::bounded(1);
        map.insert(key, tx);
        Some(rx)
    }

    pub(crate) fn send(&self, to: EndpointId, env: Envelope) {
        self.net.send(self.me(), to, env);
    }

    pub(crate) fn next_req_id(&self) -> u64 {
        self.req_ids.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn is_log_based(&self) -> bool {
        self.log.is_some()
    }

    /// Our own durable watermark, for piggybacking on intra-domain
    /// messages and flush acknowledgements. `None` when there is no log.
    pub(crate) fn own_durable_hint(&self) -> Option<DurableHint> {
        let log = self.log.as_ref()?;
        Some(DurableHint {
            msp: self.cfg.id,
            epoch: self.epoch(),
            durable: log.durable_lsn(),
        })
    }

    /// Our recovery knowledge, for gossiping on intra-domain traffic
    /// (see [`crate::envelope::RequestMsg::recoveries`]). Empty when
    /// nothing in the domain has ever crashed — the common case.
    pub(crate) fn own_recovery_gossip(&self) -> Vec<msp_types::RecoveryRecord> {
        if !self.is_log_based() {
            return Vec::new();
        }
        self.knowledge.read().iter().collect()
    }

    /// Absorb gossiped recovery records. Runs on the dispatcher, BEFORE
    /// the carrying message is delivered — a worker that then merges the
    /// message's DV is guaranteed to already know about any recovery the
    /// sender knew about, so a new-epoch entry can never mask an orphaned
    /// old-epoch one. The full absorb (log + flush + session sweep) runs
    /// at most once per peer crash; afterwards `covers` filters the
    /// gossip with a read lock.
    pub(crate) fn absorb_recovery_gossip(&self, recs: &[msp_types::RecoveryRecord]) {
        if recs.is_empty() || !self.is_log_based() {
            return;
        }
        for rec in recs {
            if rec.msp == self.cfg.id || self.knowledge.read().covers(rec) {
                continue;
            }
            self.absorb_recovery_broadcast(*rec);
        }
    }

    /// Feed a peer's durable hint into the watermark table. Hints from an
    /// epoch older than the peer's current known incarnation are stale
    /// in-flight messages and are dropped — they must never resurrect a
    /// watermark that a recovery broadcast invalidated.
    pub(crate) fn absorb_durable_hint(&self, hint: &DurableHint) {
        if !self.is_log_based() || hint.msp == self.cfg.id {
            return;
        }
        if let Some(current) = self.knowledge.read().current_epoch(hint.msp) {
            if hint.epoch < current {
                return;
            }
        }
        self.watermarks
            .lock()
            .note(hint.msp, hint.epoch, hint.durable);
    }

    /// The log, for paths that only run under `LogBased`.
    pub(crate) fn log(&self) -> &Wal {
        self.log
            .as_ref()
            .expect("operation requires the LogBased strategy")
    }

    /// The runtime shard owning `session`.
    pub(crate) fn shard_of(&self, session: SessionId) -> usize {
        shard_route(session.0, self.shards.len())
    }

    /// Route a work item to its session's shard.
    pub(crate) fn send_work(&self, item: WorkItem) {
        let shard = self.shard_of(item.session());
        let _ = self.shards[shard].work_tx.send(Some(item));
    }

    /// Park a reply in its session's release stage. The gate learns the
    /// stage first, so its settlement nudges that stage only. If the stage
    /// is gone (stopping) the reply is dropped; the client's resend
    /// retries through the dedup path.
    pub(crate) fn park_envelope(&self, parked: ParkedEnvelope) {
        let tx = &self.shards[self.shard_of(parked.session)].release_tx;
        parked.gate.set_release(tx.clone());
        self.stats.gates_pending.fetch_add(1, Ordering::Relaxed);
        if tx.send(ReleaseCmd::Park(parked)).is_err() {
            self.stats.gates_pending.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Look up or create the session cell for an incoming session id.
    /// `None` means the session already ended (tombstoned) — the request
    /// is stale traffic and must not resurrect it.
    pub(crate) fn get_or_create_session(&self, id: SessionId) -> Option<Arc<SessionCell>> {
        let mut sessions = self.sessions.lock();
        if self.ended_sessions.lock().contains(&id) {
            return None;
        }
        Some(Arc::clone(sessions.entry(id).or_insert_with(|| {
            Arc::new(SessionCell::new(id, SessionState::fresh()))
        })))
    }

    /// Tombstone `id` and drop its cell, atomically w.r.t.
    /// [`Self::get_or_create_session`] (both under the `sessions` lock).
    pub(crate) fn tombstone_session(&self, id: SessionId) {
        let mut sessions = self.sessions.lock();
        self.ended_sessions.lock().insert(id);
        sessions.remove(&id);
    }

    pub(crate) fn session(&self, id: SessionId) -> Option<Arc<SessionCell>> {
        self.sessions.lock().get(&id).cloned()
    }

    // ------------------------------------------------------------------
    // Request processing (normal execution, §3)
    // ------------------------------------------------------------------

    pub(crate) fn handle_request(self: &Arc<Self>, req: RequestMsg) {
        let Some(cell) = self.get_or_create_session(req.session) else {
            // The session ended. An END_SESSION resend (lost ack) is
            // re-acknowledged — ending is idempotent and the SessionEnd
            // is already logged; anything else is a stale duplicate of a
            // request whose reply the client already consumed, dropped
            // before it can resurrect the session and re-execute.
            if req.method == END_SESSION_METHOD {
                // The first end's acknowledgement is gated on durability,
                // and the resend may overtake that still-parked reply — so
                // the re-ack must wait for the `SessionEnd` too. The ended
                // cell (and its DV) are gone, but the log is durable as a
                // prefix and the `SessionEnd` was appended before the
                // tombstone: a gate on the last appended record covers it.
                let mut dv = DependencyVector::new();
                if let Some(log) = &self.log {
                    let last = Lsn(log.end_lsn().0.saturating_sub(1));
                    dv.set(self.cfg.id, StateId::new(self.epoch(), last));
                }
                let status = ReplyStatus::Ok(Vec::new());
                let _ = self.send_reply(&dv, req.reply_to, req.session, req.seq, status);
            }
            return;
        };
        // At most one request at a time per session (§2.1); a failed
        // try-lock means the session is busy processing, checkpointing or
        // recovering — tell the client to back off and resend (§5.4).
        let Some(mut st) = cell.state.try_lock() else {
            self.send_busy(&req);
            return;
        };
        if st.ended {
            return;
        }
        match &self.cfg.strategy {
            SessionStrategy::LogBased => self.handle_request_logbased(&cell, &mut st, req),
            SessionStrategy::NoLog => self.handle_request_plain(&mut st, req, None, None),
            SessionStrategy::Psession(db) => {
                self.handle_request_plain(&mut st, req, Some(Arc::clone(db)), None)
            }
            SessionStrategy::StateServer(server) => {
                self.handle_request_plain(&mut st, req, None, Some(*server))
            }
        }
    }

    fn send_busy(&self, req: &RequestMsg) {
        self.stats.busy_replies.fetch_add(1, Ordering::Relaxed);
        self.send(
            req.reply_to,
            Envelope::Reply(ReplyMsg {
                session: req.session,
                seq: req.seq,
                status: ReplyStatus::Busy,
                sender_dv: None,
                durable_hint: None,
                recoveries: self.own_recovery_gossip(),
            }),
        );
    }

    /// Duplicate / out-of-order filtering (§3.1). Returns `true` when the
    /// request was absorbed here (caller stops).
    fn dedup(&self, st: &mut SessionState, req: &RequestMsg) -> bool {
        if req.seq == st.next_expected {
            return false;
        }
        self.stats
            .duplicate_requests
            .fetch_add(1, Ordering::Relaxed);
        if req.seq.next() == st.next_expected {
            // The latest already-processed request: resend its buffered
            // reply (it may have been lost on the network).
            if let Some((seq, status)) = st.buffered_reply.clone() {
                debug_assert_eq!(seq, req.seq);
                let _ = self.send_reply(&st.dv, req.reply_to, req.session, seq, status);
            }
        }
        // Older duplicates and (impossible under the client protocol)
        // future sequence numbers are dropped silently.
        true
    }

    fn handle_request_logbased(
        self: &Arc<Self>,
        cell: &SessionCell,
        st: &mut SessionState,
        req: RequestMsg,
    ) {
        // Interception point: has this session become an orphan?
        if (st.needs_recovery || self.knowledge.read().is_orphan(&st.dv, self.cfg.id))
            && self.recover_session_locked(cell, st).is_err()
        {
            return;
        }
        // END_SESSION bypasses the duplicate filter: processing
        // tombstones the session *before* the acknowledgement can reach
        // the client, so a resend (lost reply) is re-acknowledged off
        // the tombstone in `handle_request`; a first end reaching this
        // point just ends the session — its seq needs no dedup check
        // (ending is idempotent either way).
        if req.method == END_SESSION_METHOD {
            self.end_session_locked(st, &req);
            return;
        }
        if self.dedup(st, &req) {
            return;
        }
        // Figure 7, "after receive": if the message itself is an orphan,
        // discard it — the sender will roll back and resend.
        if let Some(dv) = &req.sender_dv {
            if self.knowledge.read().is_orphan(dv, self.cfg.id) {
                self.stats
                    .orphan_msgs_dropped
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let Some(svc) = self.services.get(&req.method).cloned() else {
            let status = ReplyStatus::Err(format!("no such method: {}", req.method));
            let _ = self.dispatch_reply(st, &req, status);
            return;
        };

        // Log the request receive with the attached DV, merge it, advance
        // the session's state number (Figure 7).
        let log = self.log();
        let record = LogRecord::RequestReceive {
            session: req.session,
            seq: req.seq,
            method: req.method.clone(),
            payload: req.payload.clone(),
            sender_dv: req.sender_dv.clone(),
        };
        let (lsn, framed) = log.append_sized(&record);
        if let Some(dv) = &req.sender_dv {
            st.dv.merge_from(dv);
        }
        st.note_logged(self.cfg.id, self.epoch(), lsn, framed);
        // Publish the fuzzy checkpoint anchor *before* executing: the MSP
        // checkpoint reads it without the state lock, and a session whose
        // first request is still in flight would otherwise be absent from
        // the checkpoint — its records below `min_lsn`, unreachable by the
        // recovery scan, and the request re-executed (not deduplicated) on
        // the client's resend. Deep pipelined chains keep requests in
        // flight long enough to make that window routine.
        cell.sync_anchor(st);

        // Execute the method.
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let mut ctx = ServiceContext::live(self, req.session, st);
        let result = svc(&mut ctx, &req.payload);
        let fatal = ctx.fatal.take();
        match take_fatal(result, fatal) {
            Ok(result) => {
                let status = match result {
                    Ok(p) => ReplyStatus::Ok(p),
                    Err(e) => ReplyStatus::Err(e),
                };
                if let Err(e) = self.dispatch_reply(st, &req, status) {
                    self.after_infra_failure(cell, st, &req, e);
                    return;
                }
            }
            Err(e) => {
                self.after_infra_failure(cell, st, &req, e);
                return;
            }
        }

        // Session checkpoint by log-consumption threshold (§3.2).
        if self.cfg.logging.checkpoints_enabled
            && st.log_consumed >= self.cfg.logging.session_ckpt_threshold
        {
            let _ = self.session_checkpoint(cell, st);
        }
        cell.sync_anchor(st);
    }

    /// An infrastructure error interrupted request processing. If the
    /// session turned out to be an orphan, recover it — the replay
    /// re-executes the interrupted request and completes it live, leaving
    /// its reply buffered; we then push that reply to the waiting client.
    /// Transient failures (flush timeout, shutdown) produce no reply: the
    /// client's resend retries the request.
    fn after_infra_failure(
        self: &Arc<Self>,
        cell: &SessionCell,
        st: &mut SessionState,
        req: &RequestMsg,
        err: MspError,
    ) {
        match err {
            MspError::OrphanDependency { .. } | MspError::Orphan { .. }
                if self.recover_session_locked(cell, st).is_ok() =>
            {
                if let Some((seq, status)) = st.buffered_reply.clone() {
                    if seq == req.seq {
                        let _ = self.send_reply(&st.dv, req.reply_to, req.session, seq, status);
                    }
                }
            }
            _ => { /* transient: client resend drives the retry */ }
        }
    }

    fn end_session_locked(&self, st: &mut SessionState, req: &RequestMsg) {
        let log = self.log();
        let record = LogRecord::SessionEnd {
            session: req.session,
        };
        let (lsn, framed) = log.append_sized(&record);
        st.note_logged(self.cfg.id, self.epoch(), lsn, framed);
        st.ended = true;
        st.positions.truncate();
        // Tombstone + drop before the reply can reach the client: once
        // the client observes the acknowledgement, the session must be
        // gone, and the tombstone keeps stale duplicates still in the
        // work queue from resurrecting it. A failed reply is harmless —
        // the client's resend is re-acknowledged off the tombstone.
        self.tombstone_session(req.session);
        let _ = self.dispatch_reply(st, req, ReplyStatus::Ok(Vec::new()));
    }

    /// Baseline request path (NoLog / Psession / StateServer): no logging,
    /// no dependency tracking; session state optionally round-trips
    /// through the database or the state server.
    fn handle_request_plain(
        self: &Arc<Self>,
        st: &mut SessionState,
        req: RequestMsg,
        db: Option<Arc<KvStore>>,
        state_server: Option<EndpointId>,
    ) {
        let key = session_key(req.session);
        // Load the externally stored session state *before* duplicate
        // filtering: the sequence-tracking state is part of the session
        // state, so a restarted worker resumes the numbering rather than
        // restarting it.
        //
        // Psession fetches in a read transaction on every request (§5.2);
        // StateServer fetches only when the local copy is cold.
        if let Some(db) = &db {
            if let Some(blob) = db.read_txn(&key) {
                apply_session_blob(st, &blob);
            }
        }
        if let Some(server) = state_server {
            if st.vars.is_empty() && st.next_expected == RequestSeq::FIRST {
                if let Ok(Some(blob)) = self.state_rpc(server, key.clone(), None) {
                    apply_session_blob(st, &blob);
                }
            }
        }

        // As on the log-based path: END_SESSION bypasses the duplicate
        // filter — ending is idempotent, and a resend after a lost
        // acknowledgement is re-acknowledged off the tombstone in
        // `handle_request` before ever reaching a cell.
        if req.method == END_SESSION_METHOD {
            let _ = self.dispatch_reply(st, &req, ReplyStatus::Ok(Vec::new()));
            st.ended = true;
            if let Some(db) = &db {
                let _ = db.write_txn(vec![(key, None)]);
            }
            self.tombstone_session(req.session);
            return;
        }
        if self.dedup(st, &req) {
            return;
        }
        let Some(svc) = self.services.get(&req.method).cloned() else {
            let status = ReplyStatus::Err(format!("no such method: {}", req.method));
            let _ = self.dispatch_reply(st, &req, status);
            return;
        };

        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let mut ctx = ServiceContext::live(self, req.session, st);
        let result = svc(&mut ctx, &req.payload);
        let status = match result {
            Ok(p) => ReplyStatus::Ok(p),
            Err(e) => ReplyStatus::Err(e),
        };
        st.buffered_reply = Some((req.seq, status.clone()));
        st.next_expected = req.seq.next();

        // Write the session state back ("after processing, the session
        // state is written back to the database"), then reply.
        if let Some(db) = &db {
            let _ = db.write_txn(vec![(key.clone(), Some(encode_session_blob(st)))]);
        }
        if let Some(server) = state_server {
            let _ = self.state_rpc(server, key, Some(encode_session_blob(st)));
        }
        let _ = self.send_reply(&st.dv, req.reply_to, req.session, req.seq, status);
    }

    /// Blocking RPC to the state server: `value = None` fetches, `Some`
    /// stores.
    fn state_rpc(
        &self,
        server: EndpointId,
        key: Vec<u8>,
        value: Option<Vec<u8>>,
    ) -> MspResult<Option<Vec<u8>>> {
        // 50 resends, then `Timeout`.
        for _ in 0..=50 {
            let req_id = self.next_req_id();
            let rx = self
                .register_waiter(&self.pending_state, req_id)
                .ok_or(MspError::Shutdown)?;
            let env = match &value {
                None => Envelope::StateGet {
                    from: self.me(),
                    req_id,
                    key: key.clone(),
                },
                Some(v) => Envelope::StatePut {
                    from: self.me(),
                    req_id,
                    key: key.clone(),
                    value: v.clone(),
                },
            };
            self.send(server, env);
            // Until the attempt's deadline, or `stop` drops the sender.
            if let Ok(v) = rx.recv_timeout(self.cfg.rpc_timeout) {
                return Ok(v);
            }
            self.pending_state.lock().remove(&req_id);
        }
        Err(MspError::Timeout)
    }

    // ------------------------------------------------------------------
    // Reply path and outgoing calls
    // ------------------------------------------------------------------

    /// Send the reply to request `seq` of `session` — the one reply path,
    /// and it never blocks. Inside the service domain the reply carries
    /// the session's DV (locally optimistic, §3.1) and leaves at once.
    /// Across a pessimistic boundary the distributed flush of `dv` is only
    /// *issued* (Figure 7, "before send"): a reply whose dependencies are
    /// all durable already leaves at once; any other is parked on its gate
    /// in the pending-release stage and leaves, in per-session order, once
    /// the gate settles. `Err` means a dependency is already known lost
    /// (the session is an orphan) and nothing was sent.
    pub(crate) fn send_reply(
        &self,
        dv: &DependencyVector,
        reply_to: EndpointId,
        session: SessionId,
        seq: RequestSeq,
        status: ReplyStatus,
    ) -> MspResult<()> {
        let intra = reply_to
            .as_msp()
            .is_some_and(|m| self.cluster.same_domain(self.cfg.id, m));
        let (sender_dv, durable_hint, recoveries) = if intra && self.is_log_based() {
            (
                Some(dv.clone()),
                self.own_durable_hint(),
                self.own_recovery_gossip(),
            )
        } else if let Some(gate) = self.distributed_flush_issue(dv)? {
            self.park_envelope(ParkedEnvelope {
                gate,
                session,
                seq,
                reply_to,
                status,
            });
            return Ok(());
        } else {
            (None, None, Vec::new())
        };
        self.send(
            reply_to,
            Envelope::Reply(ReplyMsg {
                session,
                seq,
                status,
                sender_dv,
                durable_hint,
                recoveries,
            }),
        );
        Ok(())
    }

    /// Commit `status` as the reply to `req` — buffered for a duplicate
    /// resend, the session's sequence advanced — and only then send it
    /// with [`Self::send_reply`]: a parked reply leaves after the worker
    /// has let go of the session, and a resend arriving meanwhile must
    /// find the buffered reply.
    pub(crate) fn dispatch_reply(
        &self,
        st: &mut SessionState,
        req: &RequestMsg,
        status: ReplyStatus,
    ) -> MspResult<()> {
        st.buffered_reply = Some((req.seq, status.clone()));
        st.next_expected = req.seq.next();
        self.send_reply(&st.dv, req.reply_to, req.session, req.seq, status)
    }

    /// A live outgoing call from `session` to `target` (§2.1, Figure 3).
    /// Thin wrapper around [`Self::outgoing_call_inner`] accumulating the
    /// per-hop wait counter — the wall time a chained request spends in
    /// one hop (durability gate + RPC round trip), on every path.
    pub(crate) fn outgoing_call(
        &self,
        st: &mut SessionState,
        session_id: SessionId,
        target: MspId,
        method: &str,
        payload: &[u8],
    ) -> MspResult<Vec<u8>> {
        let t0 = std::time::Instant::now();
        let result = self.outgoing_call_inner(st, session_id, target, method, payload);
        self.stats
            .chain_hop_wait_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    /// Resend-until-reply over the session's outgoing session, with
    /// optimistic DV attachment inside the domain and a pessimistic flush
    /// before sending across domains. A cross-domain hop never costs the
    /// pool capacity: its worker hands the run token back once, waits out
    /// the send's durability gate and then the reply, and takes a token
    /// again when the reply is in, which keeps deep call chains off the
    /// flush critical path.
    fn outgoing_call_inner(
        &self,
        st: &mut SessionState,
        session_id: SessionId,
        target: MspId,
        method: &str,
        payload: &[u8],
    ) -> MspResult<Vec<u8>> {
        let intra = self.is_log_based() && self.cluster.same_domain(self.cfg.id, target);
        let (out_id, seq) = match st.outgoing.get(&target) {
            Some(out) => (out.id, out.next_seq),
            None => {
                // First call to this target: allocate the outgoing
                // session. The allocation is nondeterministic, so log it
                // into the session's replay stream — a later replay that
                // reaches this point must reuse the same id and sequence
                // numbering, or its resent calls would open a second
                // session at the target and re-execute instead of being
                // deduplicated (a replay that went live *before* this
                // record re-allocates, but then this record and every
                // effect that could depend on it are lost and orphaned
                // together).
                let id = next_session_id();
                if self.is_log_based() {
                    let (lsn, framed) = self.log().append_sized(&LogRecord::OutgoingBind {
                        session: session_id,
                        target,
                        outgoing: id,
                    });
                    st.note_logged(self.cfg.id, self.epoch(), lsn, framed);
                }
                st.outgoing.insert(
                    target,
                    OutgoingSession {
                        id,
                        next_seq: RequestSeq::FIRST,
                    },
                );
                (id, RequestSeq::FIRST)
            }
        };
        // Pessimistic boundary: nothing we depend on may be lost once
        // this message leaves the domain, so the *first* send waits out
        // its durability gate; timeout resends go out directly — the gate
        // settled before the first send, so the DV is already durable.
        let pipelined = self.is_log_based() && !intra;
        let parked = pipelined && self.park_run_token();
        let mut gated = pipelined;
        let mut attempts = 0u32;
        let got = loop {
            // Register the waiter before the envelope can leave: the send
            // may be answered before this worker returns from its gate.
            let Some(rx) = self.register_waiter(&self.pending_replies, (out_id, seq)) else {
                break Err(MspError::Shutdown);
            };
            let env = Envelope::Request(RequestMsg {
                session: out_id,
                seq,
                method: method.to_string(),
                payload: payload.to_vec(),
                reply_to: self.me(),
                // Cross-domain: never optimistic attachments.
                sender_dv: intra.then(|| st.dv.clone()),
                durable_hint: if intra { self.own_durable_hint() } else { None },
                recoveries: if intra {
                    self.own_recovery_gossip()
                } else {
                    Vec::new()
                },
            });
            if gated {
                gated = false;
                if let Err(e) = self.gated_send(&st.dv, target, env) {
                    self.pending_replies.lock().remove(&(out_id, seq));
                    break Err(e);
                }
            } else {
                self.send(EndpointId::Msp(target), env);
            }
            // Until the attempt's deadline, or `stop` drops the sender.
            let Ok(rep) = rx.recv_timeout(self.cfg.rpc_timeout) else {
                self.pending_replies.lock().remove(&(out_id, seq));
                // Interception point on the resend path too: if the
                // target crashed and lost our dependency, it now treats
                // our sequence number as from the future and drops the
                // resends silently — no reply will ever run the
                // post-receive orphan check, so check here or spin until
                // the retry limit with the session lock held.
                if self.knowledge.read().is_orphan(&st.dv, self.cfg.id) {
                    break Err(MspError::Orphan {
                        session: session_id,
                    });
                }
                attempts += 1;
                if attempts > RPC_RETRY_LIMIT {
                    break Err(MspError::Timeout);
                }
                continue;
            };
            if rep.status == ReplyStatus::Busy {
                msp_wal::model::sleep_exact(self.cfg.scaled_busy_backoff());
                continue;
            }
            // Interception point (§4.1): receiving a reply checks both the
            // message and the session. The session check must happen
            // BEFORE the merge — merging a newer-epoch entry would
            // otherwise mask an orphaned dependency forever (found by the
            // DV property tests).
            let knowledge = self.knowledge.read();
            if knowledge.is_orphan(&st.dv, self.cfg.id) {
                break Err(MspError::Orphan {
                    session: session_id,
                });
            }
            // Figure 7, "after receive": orphan replies are discarded; the
            // resend will fetch a clean one.
            if rep
                .sender_dv
                .as_ref()
                .is_some_and(|dv| knowledge.is_orphan(dv, self.cfg.id))
            {
                self.stats
                    .orphan_msgs_dropped
                    .fetch_add(1, Ordering::Relaxed);
                continue;
            }
            break Ok(rep);
        };
        if parked && !self.unpark_run_token() {
            return Err(MspError::Shutdown);
        }
        let rep = got?;
        if self.is_log_based() {
            let record = LogRecord::ReplyReceive {
                session: session_id,
                outgoing: out_id,
                seq,
                payload: crate::session::encode_reply(&rep.status),
                sender_dv: rep.sender_dv.clone(),
            };
            let (lsn, framed) = self.log().append_sized(&record);
            if let Some(dv) = &rep.sender_dv {
                st.dv.merge_from(dv);
            }
            st.note_logged(self.cfg.id, self.epoch(), lsn, framed);
        }
        st.outgoing
            .get_mut(&target)
            .expect("inserted above")
            .next_seq = seq.next();
        match rep.status {
            ReplyStatus::Ok(p) => Ok(p),
            ReplyStatus::Err(e) => Err(MspError::Application(e)),
            ReplyStatus::Busy => unreachable!("handled above"),
        }
    }

    /// First send of a cross-domain hop: issue the distributed flush of
    /// `dv`, wait it out with [`Self::settle_gate`] (which drives the
    /// remote legs' retries and fails on stop), then send. From then on
    /// the session's DV is durable, so timeout resends may skip the gate.
    /// A failed gate surfaces as the error the caller's orphan recovery
    /// expects; nothing was sent.
    fn gated_send(&self, dv: &DependencyVector, target: MspId, env: Envelope) -> MspResult<()> {
        let gate = self.distributed_flush_issue(dv)?;
        // The crash window the torture rig aims at: the send is logged and
        // its gate issued, but nothing has been sent.
        if self.log().fault_point(CrashPoint::SendGateIssue) {
            return Err(MspError::Shutdown);
        }
        if let Some(gate) = gate {
            let pending = &self.stats.send_gates_pending;
            pending.fetch_add(1, Ordering::Relaxed);
            let settled = self.settle_gate(&gate);
            pending.fetch_sub(1, Ordering::Relaxed);
            settled?;
            self.stats
                .async_send_releases
                .fetch_add(1, Ordering::Relaxed);
        }
        self.send(EndpointId::Msp(target), env);
        Ok(())
    }

    /// Hand this worker's run token back to the pool for the duration of
    /// a pipelined wait. Only pool threads hold tokens — on any other
    /// thread (dispatcher, release, recovery pool) this is a no-op. Returns
    /// whether a token was released and must be re-acquired.
    fn park_run_token(&self) -> bool {
        if !HOLDS_RUN_TOKEN.with(|t| t.replace(false)) {
            return false;
        }
        let shard = SHARD_INDEX.with(|s| s.get());
        self.shards[shard].run_tokens.release();
        self.stats.worker_parks.fetch_add(1, Ordering::Relaxed);
        self.shards[shard]
            .stats
            .worker_parks
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Re-acquire after [`Self::park_run_token`]; false = stopping.
    fn unpark_run_token(&self) -> bool {
        let shard = SHARD_INDEX.with(|s| s.get());
        let got = self.shards[shard].run_tokens.acquire(true);
        HOLDS_RUN_TOKEN.with(|t| t.set(got));
        got
    }

    // ------------------------------------------------------------------
    // Thread bodies
    // ------------------------------------------------------------------

    /// Routes every envelope until `stop` leaves the network, which ends
    /// this incarnation's receive with `Shutdown`.
    fn dispatcher_loop(self: Arc<Self>, endpoint: Endpoint<Envelope>) {
        loop {
            let env = match endpoint.recv_timeout(IDLE_WAIT) {
                Ok(env) => env,
                Err(MspError::Timeout) => continue,
                Err(_) => break,
            };
            match env {
                Envelope::Request(req) => {
                    // Gossip before hints before delivery: the recovery
                    // records void stale watermarks and must win.
                    self.absorb_recovery_gossip(&req.recoveries);
                    if let Some(hint) = &req.durable_hint {
                        self.absorb_durable_hint(hint);
                    }
                    self.send_work(WorkItem::Request(req));
                }
                Envelope::Reply(rep) => {
                    self.absorb_recovery_gossip(&rep.recoveries);
                    if let Some(hint) = &rep.durable_hint {
                        self.absorb_durable_hint(hint);
                    }
                    let waiter = self.pending_replies.lock().remove(&(rep.session, rep.seq));
                    if let Some(tx) = waiter {
                        let _ = tx.send(rep);
                    }
                }
                Envelope::FlushRequest {
                    from,
                    req_id,
                    epoch,
                    lsn,
                } => self.answer_flush_request(from, req_id, epoch, lsn),
                Envelope::FlushReply {
                    req_id,
                    ok,
                    durable,
                } => {
                    if let Some(hint) = &durable {
                        self.absorb_durable_hint(hint);
                    }
                    let waiter = self.pending_flushes.lock().remove(&req_id);
                    if let Some((gate, leg)) = waiter {
                        gate.remote_ack(leg, ok);
                    }
                }
                Envelope::Recovery(rec) => self.absorb_recovery_broadcast(rec),
                Envelope::StateResp { req_id, value } => {
                    let waiter = self.pending_state.lock().remove(&req_id);
                    if let Some(tx) = waiter {
                        let _ = tx.send(value);
                    }
                }
                // MSPs are not state servers.
                Envelope::StateGet { .. } | Envelope::StatePut { .. } => {}
            }
        }
    }

    /// Runs work items until `stop`, which queues one wake per worker
    /// thread behind any real work: whatever a worker receives once
    /// stopped, it drops, so queued work dies with the incarnation.
    fn worker_loop(self: Arc<Self>, shard: usize, work_rx: Receiver<Option<WorkItem>>) {
        SHARD_INDEX.with(|s| s.set(shard));
        while let Ok(Some(item)) = work_rx.recv() {
            // Capacity gate: the pool is oversubscribed in threads but
            // bounded in run tokens, so a parked sibling's token always
            // has an idle thread to land on without ever running more
            // than the shard's token count at once.
            if self.stopped() || !self.shards[shard].run_tokens.acquire(false) {
                break;
            }
            HOLDS_RUN_TOKEN.with(|t| t.set(true));
            match item {
                WorkItem::Request(req) => {
                    self.shards[shard]
                        .stats
                        .requests
                        .fetch_add(1, Ordering::Relaxed);
                    self.handle_request(req)
                }
                WorkItem::RecoverSession(id) => {
                    if let Some(cell) = self.session(id) {
                        let mut st = cell.state.lock();
                        if !st.ended
                            && (st.needs_recovery
                                || self.knowledge.read().is_orphan(&st.dv, self.cfg.id))
                        {
                            let _ = self.recover_session_locked(&cell, &mut st);
                        }
                    }
                }
                WorkItem::GateFailed {
                    session,
                    seq,
                    reply_to,
                    err,
                } => self.handle_gate_failure(session, seq, reply_to, err),
            }
            // A wait that lost the re-acquire race to shutdown returns
            // without the token — only release what we still hold.
            if HOLDS_RUN_TOKEN.with(|t| t.replace(false)) {
                self.shards[shard].run_tokens.release();
            }
        }
    }

    /// A parked reply's gate failed. Mirror [`MspInner::after_infra_failure`]:
    /// an orphan-class failure recovers the session and sends the
    /// buffered reply again (replay reconstructs it), parked on a fresh
    /// gate like any other reply; transient failures produce no reply —
    /// the client's resend finds the buffered reply through the dedup
    /// path, which parks it on a fresh gate in turn.
    fn handle_gate_failure(
        self: &Arc<Self>,
        session: SessionId,
        seq: RequestSeq,
        reply_to: EndpointId,
        err: MspError,
    ) {
        let Some(cell) = self.session(session) else {
            return;
        };
        let mut st = cell.state.lock();
        if st.ended {
            return;
        }
        match err {
            MspError::OrphanDependency { .. } | MspError::Orphan { .. }
                if self.recover_session_locked(&cell, &mut st).is_ok() =>
            {
                if let Some((bseq, status)) = st.buffered_reply.clone() {
                    if bseq == seq {
                        let _ = self.send_reply(&st.dv, reply_to, session, bseq, status);
                    }
                }
                cell.sync_anchor(&st);
            }
            _ => { /* transient: client resend drives the retry */ }
        }
    }

    /// One thread of the replay pool ([`MspHandle::spawn_replay_pool`]):
    /// replay sessions off `queue` until it is empty or the MSP stops, then
    /// fold this thread's finish time into the replay makespan and count
    /// itself out.
    fn replay_sessions(&self, queue: &Receiver<SessionId>, t0: std::time::Instant) {
        while let Ok(sid) = queue.recv() {
            if self.stopped() {
                break;
            }
            let Some(cell) = self.session(sid) else {
                continue;
            };
            let mut st = cell.state.lock();
            // A request that arrived before this pool got here may have
            // recovered the session inline already.
            if st.ended || !st.needs_recovery {
                continue;
            }
            let counter = match self.recover_session_locked(&cell, &mut st) {
                Ok(()) => &self.stats.recovery_pool_sessions,
                Err(e @ (MspError::LogCorrupt { .. } | MspError::Codec(_) | MspError::Io(_))) => {
                    let _ = self.first_replay_failure.set((sid, e.to_string()));
                    &self.stats.recovery_pool_failures
                }
                // Transient: the session's next request retries.
                Err(_) => continue,
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
        self.stats
            .recovery_replay_nanos
            .fetch_max(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.replay_threads.fetch_sub(1, Ordering::Release);
    }

    /// The pending-release stage (asynchronous durability pipeline).
    /// Parked replies leave in arrival order per session, and only once
    /// their gate settles successfully. A failed gate becomes a
    /// [`WorkItem::GateFailed`] so the orphan path runs on the worker
    /// pool (where it can take session locks without stalling releases).
    /// With nothing parked the stage blocks until a `Park` (or the `Nudge`
    /// of `stop`); while gates are parked it also wakes every
    /// [`GATE_RETRY_TICK`] to drive their overdue legs. On shutdown every
    /// still-parked reply is discarded — an unsettled reply must never
    /// leave the process.
    fn release_loop(self: Arc<Self>, shard: usize, release_rx: Receiver<ReleaseCmd>) {
        let mut parked: Vec<ParkedEnvelope> = Vec::new();
        loop {
            let cmd = if parked.is_empty() {
                release_rx.recv().ok()
            } else {
                release_rx.recv_timeout(GATE_RETRY_TICK).ok()
            };
            if self.stopped() {
                break;
            }
            let queued = std::iter::from_fn(|| release_rx.try_recv().ok());
            for cmd in cmd.into_iter().chain(queued) {
                if let ReleaseCmd::Park(p) = cmd {
                    parked.push(p);
                }
            }
            // Overdue-leg retries: the blocking settle path drives its own
            // gate; parked gates are driven from here.
            for p in &parked {
                self.drive_gate(&p.gate);
            }
            let mut i = 0;
            while i < parked.len() {
                // Session order: an entry may only leave once every
                // earlier parked entry of the same session has left.
                if fifo_blocked(&parked, i, |p| p.session) {
                    i += 1;
                    continue;
                }
                let Some(outcome) = parked[i].gate.poll() else {
                    i += 1;
                    continue;
                };
                let p = parked.remove(i);
                self.stats.gates_pending.fetch_sub(1, Ordering::Relaxed);
                match outcome {
                    Ok(()) => {
                        self.send(
                            p.reply_to,
                            Envelope::Reply(ReplyMsg {
                                session: p.session,
                                seq: p.seq,
                                status: p.status,
                                sender_dv: None,
                                durable_hint: None,
                                recoveries: Vec::new(),
                            }),
                        );
                        self.stats
                            .async_reply_releases
                            .fetch_add(1, Ordering::Relaxed);
                        self.shards[shard]
                            .stats
                            .releases
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Err(err) => self.send_work(WorkItem::GateFailed {
                        session: p.session,
                        seq: p.seq,
                        reply_to: p.reply_to,
                        err,
                    }),
                }
            }
        }
        let dropped = parked.len() as u64;
        self.stats
            .gates_pending
            .fetch_sub(dropped, Ordering::Relaxed);
    }
}

/// Key under which a session's variables live in the Psession database /
/// state server.
fn session_key(session: SessionId) -> Vec<u8> {
    let mut k = b"sess:".to_vec();
    k.extend_from_slice(&session.0.to_le_bytes());
    k
}

/// Serialize session variables for the Psession / StateServer baselines.
pub(crate) fn encode_vars(vars: &HashMap<String, Vec<u8>>) -> Vec<u8> {
    let mut entries: Vec<(&String, &Vec<u8>)> = vars.iter().collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let mut buf = Vec::new();
    codec::put_u32(&mut buf, entries.len() as u32);
    for (k, v) in entries {
        codec::put_str(&mut buf, k);
        codec::put_bytes(&mut buf, v);
    }
    buf
}

#[cfg(test)]
pub(crate) fn decode_vars(mut bytes: &[u8]) -> HashMap<String, Vec<u8>> {
    decode_vars_cursor(&mut bytes)
}

fn decode_vars_cursor(buf: &mut &[u8]) -> HashMap<String, Vec<u8>> {
    let Ok(n) = codec::get_u32(buf) else {
        return HashMap::new();
    };
    let mut map = HashMap::with_capacity(n as usize);
    for _ in 0..n {
        let (Ok(k), Ok(v)) = (codec::get_str(buf), codec::get_bytes(buf)) else {
            return map;
        };
        map.insert(k, v);
    }
    map
}

/// Serialize the whole externally stored session state of the Psession /
/// StateServer baselines: variables plus the request-sequencing state
/// (without which a restarted worker would mistake the client's next
/// request for a duplicate — or vice versa).
pub(crate) fn encode_session_blob(st: &SessionState) -> Vec<u8> {
    let mut buf = encode_vars(&st.vars);
    codec::put_u64(&mut buf, st.next_expected.0);
    match &st.buffered_reply {
        Some((seq, status)) => {
            codec::put_u8(&mut buf, 1);
            codec::put_u64(&mut buf, seq.0);
            codec::put_bytes(&mut buf, &crate::session::encode_reply(status));
        }
        None => codec::put_u8(&mut buf, 0),
    }
    buf
}

/// Inverse of [`encode_session_blob`]; tolerates truncated blobs by
/// leaving the sequencing state untouched.
pub(crate) fn apply_session_blob(st: &mut SessionState, mut bytes: &[u8]) {
    let buf = &mut bytes;
    st.vars = decode_vars_cursor(buf);
    if let Ok(next) = codec::get_u64(buf) {
        st.next_expected = RequestSeq(next);
    }
    if let Ok(1) = codec::get_u8(buf) {
        if let (Ok(seq), Ok(reply)) = (codec::get_u64(buf), codec::get_bytes(buf)) {
            st.buffered_reply = Some((RequestSeq(seq), crate::session::decode_reply(&reply)));
        }
    }
}

// ----------------------------------------------------------------------
// Builder and handle
// ----------------------------------------------------------------------

/// Configures and launches an MSP.
pub struct MspBuilder {
    cfg: MspConfig,
    cluster: ClusterConfig,
    services: HashMap<String, ServiceFn>,
    shared: SharedRegistry,
    disk_model: DiskModel,
    flush_policy: FlushPolicy,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl MspBuilder {
    pub fn new(cfg: MspConfig, cluster: ClusterConfig) -> MspBuilder {
        MspBuilder {
            cfg,
            cluster,
            services: HashMap::new(),
            shared: SharedRegistry::new(),
            disk_model: DiskModel::default(),
            flush_policy: FlushPolicy::immediate(),
            fault_plan: None,
        }
    }

    /// Register a service method. Must be deterministic — see
    /// [`crate::service`].
    #[must_use]
    pub fn service<F>(mut self, name: &str, f: F) -> MspBuilder
    where
        F: Fn(&mut ServiceContext<'_>, &[u8]) -> Result<Vec<u8>, String> + Send + Sync + 'static,
    {
        self.services.insert(name.to_string(), Arc::new(f));
        self
    }

    /// Register a shared variable with its initial value. Registration
    /// order fixes the variable's id, so it must be stable across
    /// restarts (same contract as service registration).
    #[must_use]
    pub fn shared_var(mut self, name: &str, initial: Vec<u8>) -> MspBuilder {
        self.shared.register(name, initial);
        self
    }

    #[must_use]
    pub fn disk_model(mut self, model: DiskModel) -> MspBuilder {
        self.disk_model = model;
        self
    }

    #[must_use]
    pub fn flush_policy(mut self, policy: FlushPolicy) -> MspBuilder {
        self.flush_policy = policy;
        self
    }

    /// Install a crash-point plan on the log at open time (torture rig).
    /// Armed points can then fire during the *startup* crash recovery —
    /// the crash-during-recovery schedules — in which case `start`
    /// returns `Err(MspError::Shutdown)` and the caller restarts again.
    #[must_use]
    pub fn fault_plan(mut self, plan: Arc<FaultPlan>) -> MspBuilder {
        self.fault_plan = Some(plan);
        self
    }

    /// Launch the MSP. If `disk` already contains a log, MSP crash
    /// recovery (§4.3) runs first: analysis scan, shared-state roll
    /// forward, recovery broadcast, then parallel session replay on the
    /// worker pool while new requests are already being accepted.
    pub fn start(self, net: &Network<Envelope>, disk: Arc<dyn Disk>) -> MspResult<MspHandle> {
        self.start_with_disks(net, vec![disk])
    }

    /// Like [`Self::start`], over an explicit disk set: one disk for the
    /// legacy single log (`log_stripes == 0`), exactly `log_stripes`
    /// disks for the striped backend. The log anchor lives on the first
    /// disk either way, so a striped deployment can be re-opened only as
    /// the same striped deployment.
    pub fn start_with_disks(
        self,
        net: &Network<Envelope>,
        disks: Vec<Arc<dyn Disk>>,
    ) -> MspResult<MspHandle> {
        if self.cfg.workers == 0 {
            return Err(MspError::Config("worker pool must be non-empty".into()));
        }
        if disks.is_empty() {
            return Err(MspError::Config("at least one disk required".into()));
        }
        let log_based = matches!(self.cfg.strategy, SessionStrategy::LogBased);
        let (log, anchor) = if log_based {
            let expected = self.cfg.log_stripes.max(1);
            if disks.len() != expected {
                return Err(MspError::Config(format!(
                    "log_stripes={} needs {} disk(s), got {}",
                    self.cfg.log_stripes,
                    expected,
                    disks.len()
                )));
            }
            let anchor = LogAnchor::new(Arc::clone(&disks[0]), self.disk_model.clone());
            // A single log opens unpositioned: `crash_recover` resumes it
            // where its analysis scan ends, so the log is read once.
            let log = if self.cfg.log_stripes == 0 {
                Wal::Single(PhysicalLog::open_unpositioned(
                    Arc::clone(&disks[0]),
                    self.disk_model.clone(),
                    self.flush_policy,
                )?)
            } else {
                Wal::Striped(StripedLog::open(
                    disks,
                    self.disk_model.clone(),
                    self.flush_policy,
                )?)
            };
            if let Some(plan) = &self.fault_plan {
                log.install_fault_plan(Arc::clone(plan));
            }
            (Some(log), Some(anchor))
        } else {
            (None, None)
        };

        // Per-shard channels: sessions hash onto a shard, whose worker
        // pool holds `workers / shards` run tokens (at least one).
        let shard_count = self.cfg.runtime_shards.max(1);
        let tokens_per_shard = (self.cfg.workers / shard_count).max(1);
        let mut shards = Vec::with_capacity(shard_count);
        let mut work_rxs = Vec::with_capacity(shard_count);
        let mut release_rxs = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (work_tx, work_rx) = crossbeam_channel::unbounded();
            let (release_tx, release_rx) = crossbeam_channel::unbounded();
            shards.push(ShardRt {
                work_tx,
                workers: tokens_per_shard * WORKER_OVERSUBSCRIPTION,
                run_tokens: RunTokens::new(tokens_per_shard),
                release_tx,
                stats: ShardStats::default(),
            });
            work_rxs.push(work_rx);
            release_rxs.push(release_rx);
        }
        let inner = Arc::new(MspInner {
            cfg: self.cfg,
            cluster: self.cluster,
            net: net.clone(),
            log,
            anchor,
            epoch: AtomicU32::new(0),
            knowledge: RwLock::new(RecoveryKnowledge::new()),
            watermarks: Mutex::new(WatermarkTable::new()),
            sessions: Mutex::new(HashMap::new()),
            ended_sessions: Mutex::new(HashSet::new()),
            shared: self.shared,
            services: self.services,
            shards,
            pending_replies: Mutex::new(HashMap::new()),
            pending_flushes: Mutex::new(HashMap::new()),
            pending_state: Mutex::new(HashMap::new()),
            req_ids: AtomicU64::new(1),
            stopped: AtomicBool::new(false),
            stats: RuntimeStats::default(),
            replay_threads: AtomicUsize::new(0),
            forced_ckpt_credit: Mutex::new(0),
            first_replay_failure: OnceLock::new(),
        });

        // Crash recovery before going live (no-op on a fresh disk).
        let recovery_outcome = if log_based {
            Some(inner.crash_recover()?)
        } else {
            None
        };

        // Register on the network and spawn the threads.
        let endpoint = net.register(inner.me());
        let handle = MspHandle {
            inner,
            threads: Mutex::new(Vec::new()),
        };
        let inner = &handle.inner;
        let id = inner.cfg.id;
        handle.spawn(format!("{id}-dispatch"), |i| i.dispatcher_loop(endpoint))?;
        // Oversubscribed pools: each shard's thread count exceeds its
        // run-token count so a parked worker's released capacity always
        // has a thread to land on.
        for (shard, work_rx) in work_rxs.into_iter().enumerate() {
            for w in 0..inner.shards[shard].workers {
                let rx = work_rx.clone();
                handle.spawn(format!("{id}-s{shard}-worker{w}"), move |i| {
                    i.worker_loop(shard, rx)
                })?;
            }
        }
        if log_based {
            for (shard, release_rx) in release_rxs.into_iter().enumerate() {
                handle.spawn(format!("{id}-s{shard}-release"), move |i| {
                    i.release_loop(shard, release_rx)
                })?;
            }
        }
        if log_based && inner.cfg.logging.checkpoints_enabled {
            handle.spawn(format!("{id}-ckpt"), MspInner::checkpointer_loop)?;
        }

        // Post-recovery protocol: broadcast the recovered state number in
        // the domain, start replaying sessions on the dedicated recovery
        // pool (Figure 12) and take a fresh MSP checkpoint — new sessions
        // are accepted concurrently on the untouched worker pool.
        if let Some(outcome) = recovery_outcome {
            if let Some(rec) = outcome.announce {
                for peer in inner.cluster.domain_members(inner.cfg.domain, id) {
                    inner.send(EndpointId::Msp(peer), Envelope::Recovery(rec));
                }
                // The replay pool starts *before* the post-recovery MSP
                // checkpoint (whose distributed flush, anchor write and
                // truncation are pure wall-clock from the sessions' point
                // of view); the checkpoint is fuzzy by design and
                // routinely runs concurrently with live traffic, so
                // running it under replay changes nothing it must
                // tolerate. The serial baseline keeps the strict
                // scan → checkpoint → replay order.
                let mut replay = outcome.sessions_to_replay;
                if !inner.cfg.serial_recovery {
                    handle.spawn_replay_pool(std::mem::take(&mut replay))?;
                }
                let t_ckpt = std::time::Instant::now();
                let _ = inner.msp_checkpoint();
                inner
                    .stats
                    .recovery_checkpoint_nanos
                    .store(t_ckpt.elapsed().as_nanos() as u64, Ordering::Relaxed);
                handle.spawn_replay_pool(replay)?;
            }
        }
        Ok(handle)
    }
}

/// External handle to a running MSP.
pub struct MspHandle {
    inner: Arc<MspInner>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl MspHandle {
    pub fn id(&self) -> MspId {
        self.inner.cfg.id
    }

    /// Start one of this incarnation's threads; `stop` joins it.
    fn spawn<F>(&self, name: String, body: F) -> MspResult<()>
    where
        F: FnOnce(Arc<MspInner>) + Send + 'static,
    {
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || body(inner))
            .map_err(MspError::Io)?;
        self.threads.lock().push(thread);
        Ok(())
    }

    /// Start the crash-recovery replay pool (Figure 12): `recovery_threads`
    /// threads (one under `serial_recovery`) named `{id}-recovery{k}`
    /// drain `sessions` (already ordered longest-window-first, or by id
    /// under `serial_recovery`), each session replaying from the queue the
    /// analysis scan left it. Runs apart from the live worker pool so
    /// replay never starves sessions arriving mid-recovery. A no-op
    /// without sessions.
    fn spawn_replay_pool(&self, sessions: Vec<(SessionId, u64)>) -> MspResult<()> {
        if sessions.is_empty() {
            return Ok(());
        }
        let inner = &self.inner;
        let threads = if inner.cfg.serial_recovery {
            1
        } else {
            inner.cfg.recovery_threads.max(1)
        }
        .min(sessions.len());
        let (tx, queue) = crossbeam_channel::unbounded();
        for (sid, _) in sessions {
            let _ = tx.send(sid);
        }
        inner.replay_threads.store(threads, Ordering::Release);
        let t0 = std::time::Instant::now();
        for k in 0..threads {
            let queue = queue.clone();
            self.spawn(format!("{}-recovery{k}", inner.cfg.id), move |i| {
                i.replay_sessions(&queue, t0)
            })?;
        }
        Ok(())
    }

    /// Operation counters.
    pub fn stats(&self) -> RuntimeStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Physical-log counters (LogBased only; summed across stripes when
    /// the log is striped).
    pub fn log_stats(&self) -> Option<msp_wal::stats::LogStatsSnapshot> {
        self.inner.log.as_ref().map(|l| l.stats())
    }

    /// Per-stripe log-counter breakdown (LogBased only; a single log
    /// reports one "stripe").
    pub fn stripe_stats(&self) -> Option<Vec<msp_wal::stats::LogStatsSnapshot>> {
        self.inner.log.as_ref().map(|l| l.stripe_stats())
    }

    /// Always zero: there is no replay buffer pool. Kept only for the
    /// benchmark (see `msp_wal::PoolStatsSnapshot`).
    pub fn pool_stats(&self) -> msp_wal::PoolStatsSnapshot {
        msp_wal::PoolStatsSnapshot::default()
    }

    /// Per-shard runtime-counter breakdown, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStatsSnapshot> {
        self.inner
            .shards
            .iter()
            .map(|s| s.stats.snapshot())
            .collect()
    }

    /// The MSP's current epoch.
    pub fn epoch(&self) -> Epoch {
        self.inner.epoch()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.inner.sessions.lock().len()
    }

    /// Simulate a crash: every volatile structure is dropped, the
    /// un-flushed log tail is lost, the endpoint goes dark. The disk
    /// survives; a new `MspBuilder::start` over it runs crash recovery.
    pub fn crash(&self) {
        self.stop(true);
    }

    /// Clean shutdown: stop the threads, then flush and close the log.
    pub fn shutdown(&self) {
        self.stop(false);
    }

    /// The one stop sequence: refuse intake and leave the network, which
    /// ends the dispatcher's receive; on a crash, freeze the log first so
    /// nothing more becomes durable (local tickets fail with it); fail the
    /// gates whose remote legs will never be answered; wake every other
    /// blocking wait of the MSP's threads; join every thread; on a
    /// shutdown, only now flush and close the log, so no thread appends
    /// to a closed log.
    fn stop(&self, crash: bool) {
        let inner = &self.inner;
        inner.stopped.store(true, Ordering::SeqCst);
        inner.net.unregister(inner.me());
        if crash {
            if let Some(log) = &inner.log {
                log.crash();
            }
        }
        inner.fail_pending_gates();
        // Dropping a waiter's sender ends its receive with `Disconnected`.
        inner.pending_replies.lock().clear();
        inner.pending_state.lock().clear();
        for shard in &inner.shards {
            shard.run_tokens.stop();
            let _ = shard.release_tx.send(ReleaseCmd::Nudge);
            for _ in 0..shard.workers {
                let _ = shard.work_tx.send(None);
            }
        }
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        if !crash {
            if let Some(log) = &inner.log {
                log.close();
            }
        }
    }

    /// The first session the crash-recovery pool could not replay from
    /// the log (`LogCorrupt`, `Codec` or `Io`; counted in
    /// `recovery_pool_failures`), with the error's text.
    pub fn first_replay_failure(&self) -> Option<(SessionId, String)> {
        self.inner.first_replay_failure.get().cloned()
    }

    /// `true` once crash-recovery session replay has finished (trivially
    /// `true` when no recovery ran). The MSP accepts new work while this
    /// is still `false`; benches poll it to measure MTTR.
    pub fn recovery_complete(&self) -> bool {
        self.inner.replay_threads.load(Ordering::Acquire) == 0
    }

    /// Deterministic byte dump of every live session's externally
    /// observable state (variables, request sequencing, buffered reply),
    /// sorted by session id — the equivalence-test surface for comparing
    /// serial and parallel recovery outcomes.
    pub fn dump_sessions(&self) -> Vec<(SessionId, Vec<u8>)> {
        let cells: Vec<Arc<SessionCell>> = self.inner.sessions.lock().values().cloned().collect();
        let mut out: Vec<(SessionId, Vec<u8>)> = cells
            .iter()
            .map(|c| (c.id, encode_session_blob(&c.state.lock())))
            .collect();
        out.sort_by_key(|&(id, _)| id);
        out
    }

    /// Deterministic dump of every shared variable's value, in
    /// registration (id) order.
    pub fn dump_shared(&self) -> Vec<Vec<u8>> {
        self.inner
            .shared
            .iter()
            .map(|v| v.state.lock().value.clone())
            .collect()
    }

    /// Test/diagnostic access to a session's dependency vector.
    pub fn session_dv(&self, id: SessionId) -> Option<DependencyVector> {
        self.inner.session(id).map(|c| c.state.lock().dv.clone())
    }

    /// Test/diagnostic access to the runtime internals (crate-public
    /// surface used by the harness for fault injection).
    pub fn knowledge(&self) -> RecoveryKnowledge {
        self.inner.knowledge.read().clone()
    }

    /// Test/diagnostic access to the durable watermark held for `peer`.
    pub fn watermark_of(&self, peer: MspId) -> Option<(Epoch, Lsn)> {
        self.inner.watermarks.lock().get(peer)
    }

    /// Arm a crash-point plan on the *live* log (torture rig); no-op on
    /// the non-logging baselines, which have no log to crash.
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        if let Some(log) = &self.inner.log {
            log.install_fault_plan(plan);
        }
    }

    /// Take an MSP checkpoint right now (test/benchmark hook); also
    /// truncates the log behind the refreshed reclaim floor, like every
    /// checkpoint does. No-op error on non-logging strategies.
    pub fn force_msp_checkpoint(&self) -> msp_types::MspResult<()> {
        if !self.inner.is_log_based() {
            return Err(MspError::Config("no log to checkpoint".into()));
        }
        self.inner.msp_checkpoint()
    }

    /// Recompute the reclaim floor from the live dependency set and
    /// truncate the log below it. Returns the resulting floor and the
    /// bytes reclaimed by this call.
    pub fn truncate_log(&self) -> msp_types::MspResult<(Lsn, u64)> {
        if !self.inner.is_log_based() {
            return Err(MspError::Config("no log to truncate".into()));
        }
        self.inner.truncate_log()
    }

    /// The log's current reclaim floor (LogBased only): no record below
    /// it survives on disk.
    pub fn reclaim_floor(&self) -> Option<Lsn> {
        self.inner.log.as_ref().map(|l| l.floor())
    }
}

impl MspInner {
    /// Record a dependency-lost verdict helper used by flush handling.
    pub(crate) fn own_state_survived(&self, epoch: Epoch, lsn: Lsn) -> bool {
        !self
            .knowledge
            .read()
            .is_orphan_dep(self.cfg.id, StateId::new(epoch, lsn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_ids_are_unique_and_monotone() {
        let a = next_session_id();
        let b = next_session_id();
        assert!(b > a);
    }

    #[test]
    fn vars_codec_roundtrip() {
        let mut m = HashMap::new();
        m.insert("a".to_string(), vec![1, 2]);
        m.insert("b".to_string(), vec![]);
        assert_eq!(decode_vars(&encode_vars(&m)), m);
        assert_eq!(decode_vars(&encode_vars(&HashMap::new())), HashMap::new());
        // Corrupt input degrades to empty, never panics.
        assert_eq!(decode_vars(&[1, 2, 3]), HashMap::new());
    }

    #[test]
    fn session_keys_are_distinct() {
        assert_ne!(session_key(SessionId(1)), session_key(SessionId(2)));
    }

    /// Pure simulator of the release stage's scan over `fifo_blocked`:
    /// entries park in order, gates settle in an arbitrary order, and a
    /// scan pass releases every settled, unblocked entry until a
    /// fixpoint. Returns the release order (as park indices).
    fn simulate_release(sessions: &[u64], settle_order: &[usize]) -> Vec<usize> {
        let mut parked: Vec<(usize, u64)> = sessions.iter().copied().enumerate().collect();
        let mut settled = vec![false; sessions.len()];
        let mut released = Vec::new();
        for &s in settle_order {
            settled[s] = true;
            loop {
                let mut progressed = false;
                let mut i = 0;
                while i < parked.len() {
                    if fifo_blocked(&parked, i, |e| SessionId(e.1)) || !settled[parked[i].0] {
                        i += 1;
                        continue;
                    }
                    released.push(parked.remove(i).0);
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
        }
        released
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64, ..Default::default()
        })]

        /// Over arbitrary park orders and settle orders: every entry is
        /// eventually released (no cross-session blocking), and within
        /// each session the release order equals the park order.
        #[test]
        fn release_order_is_per_session_fifo_and_complete(
            sessions in proptest::collection::vec(0u64..4, 1..24),
            prios in proptest::collection::vec(0u64..1000, 24..25),
        ) {
            let n = sessions.len();
            let mut settle_order: Vec<usize> = (0..n).collect();
            settle_order.sort_by_key(|&i| (prios[i], i));
            let released = simulate_release(&sessions, &settle_order);
            proptest::prop_assert_eq!(released.len(), n, "every entry releases");
            for s in 0..4u64 {
                let order: Vec<usize> = released
                    .iter()
                    .copied()
                    .filter(|&i| sessions[i] == s)
                    .collect();
                proptest::prop_assert!(
                    order.windows(2).all(|w| w[0] < w[1]),
                    "session {} released out of park order: {:?}", s, order
                );
            }
        }
    }
}
