//! Seed-driven crash-storm torture rig with an exactly-once oracle.
//!
//! The rig replaces the single scripted kill-point of [`crate::crashes`]
//! with randomized but fully reproducible fault schedules: every choice —
//! client count, per-request `m`, lossy links, which MSP dies, at which
//! [`CrashPoint`], after how many site traversals, and whether the
//! *restart* is crashed again mid-recovery (§4.5 multi-crash) — is drawn
//! from the vendored `rand` shim seeded with one `u64`. No wall clock, no
//! global randomness: a failing run replays from its seed, and every
//! failure message embeds that seed.
//!
//! One run ([`run_torture`]) drives 8–32 concurrent clients, each issuing
//! requests with `m ∈ 1..=4`, through one of the five §5.2
//! [`SystemConfig`]s while a controller walks the schedule's crash
//! events. The oracle has three layers:
//!
//! 1. **Per-client ledger** — every reply must carry the session counter
//!    `k` equal to the request's 1-based index: a lost execution or a
//!    duplicate shifts `k` and is caught at the exact request.
//! 2. **Shared-state model** — after the storm settles (clients done,
//!    `recovery_complete()` drained on both MSPs) SV0/SV1 at MSP1 must
//!    equal the total request count and SV2/SV3 at MSP2 the total number
//!    of `ServiceMethod2` calls: each request executed *exactly once*
//!    against shared state too.
//! 3. **Post-mortem log audit** ([`audit_log`]) — the final on-disk log
//!    of each log-based MSP is re-opened and structurally verified:
//!    monotone LSNs, every frame decodes, recovery epochs strictly
//!    increase, every EOS fences an orphan record of its own session
//!    *behind* it, and no frame exists past the scan end (the bytes
//!    beyond the durable stream must be unwritten).
//!
//! Crash events only target the log-based configurations — the §5.2
//! baselines have no recovery story for a killed MSP, so they get the
//! message-fault dimension (drops/duplicates) and the same oracle.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msp_types::codec::Encode;
use msp_types::Lsn;
use msp_wal::log::DATA_START;
use msp_wal::{
    CrashPoint, Disk, DiskModel, FaultPlan, FlushPolicy, LogRecord, MemDisk, PhysicalLog,
};

use crate::workload::{reply_counter, request_payload, MSP1};
use crate::world::{FlushMode, SystemConfig, World, WorldOptions};

/// Traffic shape a storm drives through the workload. Each shape keeps
/// the three oracle layers intact — it only changes *where* the pressure
/// lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadShape {
    /// The original mix: `m ∈ 1..=4`, every client keeps one session for
    /// the whole storm.
    Default,
    /// Shared-variable-heavy: `m ∈ 3..=4`, so nearly every request is a
    /// multi-call fan-out hammering SV2/SV3 (and the distributed-flush
    /// path in front of every boundary crossing).
    SharedHeavy,
    /// Session churn: clients end their session at seed-chosen points and
    /// continue on a fresh one — EOS records, session teardown, and
    /// create-on-first-use all run *during* the crash storm. The
    /// per-client ledger resets its expected counter at each churn.
    SessionChurn,
    /// Deep call chains: every request runs `m = 4`, so the pipelined
    /// outgoing-send path (gate-parked envelopes, token-parked workers) is hot
    /// on every request, and roughly half the crash events are retargeted
    /// onto the PR-6 crash sites — the parked-send window on MSP1
    /// (`SendGateIssue`, Pessimistic) and the flush-serving participant
    /// on MSP2 (`FlushServe`, LoOptimistic).
    DeepChain,
    /// Session churn on the scale-out configuration: the same churn
    /// pressure as [`WorkloadShape::SessionChurn`], but each MSP runs its
    /// WAL striped over two disks and its runtime sharded two ways — so
    /// crash recovery must merge per-stripe position streams and the
    /// exactly-once oracle must hold across shard-routed sessions. The
    /// post-mortem audit switches to the striped (merged-gsn) scan.
    StripedChurn,
}

impl WorkloadShape {
    pub const ALL: [WorkloadShape; 5] = [
        WorkloadShape::Default,
        WorkloadShape::SharedHeavy,
        WorkloadShape::SessionChurn,
        WorkloadShape::DeepChain,
        WorkloadShape::StripedChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadShape::Default => "default",
            WorkloadShape::SharedHeavy => "shared-heavy",
            WorkloadShape::SessionChurn => "session-churn",
            WorkloadShape::DeepChain => "deep-chain",
            WorkloadShape::StripedChurn => "striped-churn",
        }
    }

    /// Parse a shape name as printed by [`Self::name`] — used by the
    /// `torture` binary's `--shape`.
    pub fn parse(name: &str) -> Option<WorkloadShape> {
        WorkloadShape::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

/// Tuning of one torture run.
#[derive(Debug, Clone)]
pub struct TortureOptions {
    /// The seed every schedule decision derives from.
    pub seed: u64,
    pub config: SystemConfig,
    /// Traffic shape; part of the schedule's identity (a seed reproduces
    /// a run only together with its shape).
    pub shape: WorkloadShape,
    /// Requests each client issues (sequentially, on one session).
    pub requests_per_client: u64,
    /// Crash events the controller walks (log-based configs only).
    pub crash_events: usize,
    /// Wall-clock bound on the whole storm; blowing it panics with the
    /// seed rather than hanging CI forever.
    pub settle_timeout: Duration,
}

impl TortureOptions {
    pub fn new(seed: u64, config: SystemConfig) -> TortureOptions {
        TortureOptions {
            seed,
            config,
            shape: WorkloadShape::Default,
            requests_per_client: 10,
            crash_events: 3,
            settle_timeout: Duration::from_secs(120),
        }
    }
}

/// One crash in a schedule: kill `target` when `point`'s countdown of
/// `countdown` traversals expires, and optionally crash the *restart*
/// too, at `during_recovery`'s point/countdown — the §4.5 case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// `true` = MSP2, `false` = MSP1.
    pub target_msp2: bool,
    pub point: CrashPoint,
    pub countdown: u64,
    pub during_recovery: Option<(CrashPoint, u64)>,
}

impl CrashEvent {
    fn target_name(&self) -> &'static str {
        if self.target_msp2 {
            "MSP2"
        } else {
            "MSP1"
        }
    }
}

/// Everything a seed decides, materialized up front so the run itself
/// contains no sampling (and the schedule can be printed/compared).
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub seed: u64,
    pub shape: WorkloadShape,
    /// 8..=32 concurrent clients.
    pub clients: u64,
    /// Per client: `Some((drop_prob, dup_prob))` for a lossy link.
    pub link_faults: Vec<Option<(f64, f64)>>,
    /// Per client, per request: `m` (1..=4; 3..=4 under
    /// [`WorkloadShape::SharedHeavy`]).
    pub ms: Vec<Vec<u8>>,
    /// Per client, per request: end the session *after* this request and
    /// continue on a fresh one. All-false except under
    /// [`WorkloadShape::SessionChurn`] and [`WorkloadShape::StripedChurn`].
    pub churn_after: Vec<Vec<bool>>,
    /// Crash events, in controller order; empty on non-log configs.
    pub events: Vec<CrashEvent>,
}

/// Plan-A crash sites: points hot during *live* execution. `ReplayStep`
/// is reserved for the during-recovery follow-ups — it only fires while
/// a session is actually replaying.
const LIVE_POINTS: [CrashPoint; 3] = [
    CrashPoint::MidAppend,
    CrashPoint::PreFlush,
    CrashPoint::CheckpointWrite,
];

/// Points a during-recovery follow-up can hit: the startup flush, the
/// recovery checkpoint, and the replay loop itself.
const RECOVERY_POINTS: [CrashPoint; 3] = [
    CrashPoint::ReplayStep,
    CrashPoint::PreFlush,
    CrashPoint::CheckpointWrite,
];

impl Schedule {
    /// Derive the full schedule for `opts.seed`. The sampling order is
    /// part of the reproducibility contract — append new decisions at
    /// the end, never in the middle.
    pub fn generate(opts: &TortureOptions) -> Schedule {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let clients = rng.random_range(8..33);
        let mut link_faults = Vec::with_capacity(clients as usize);
        let mut ms = Vec::with_capacity(clients as usize);
        for _ in 0..clients {
            let lossy = rng.random_bool(0.4);
            // Sample both probabilities unconditionally so the stream of
            // draws (and hence everything after) does not depend on the
            // branch.
            let drop_prob = rng.random_range(0..120) as f64 / 1000.0;
            let dup_prob = rng.random_range(0..120) as f64 / 1000.0;
            link_faults.push(lossy.then_some((drop_prob, dup_prob)));
            // The shape is an *input*, not a draw, so branching on it
            // keeps each (seed, shape) pair deterministic — and the
            // Default stream is bit-identical to the pre-shape rig.
            ms.push(
                (0..opts.requests_per_client)
                    .map(|_| match opts.shape {
                        WorkloadShape::SharedHeavy => 3 + rng.random_range(0..2) as u8,
                        WorkloadShape::DeepChain => {
                            // Fixed m = 4; still consume one draw so the
                            // crash-event stream matches Default's.
                            let _ = rng.random_range(0..4);
                            4
                        }
                        _ => 1 + rng.random_range(0..4) as u8,
                    })
                    .collect(),
            );
        }
        let mut events = Vec::new();
        if opts.config.is_log_based() {
            for e in 0..opts.crash_events {
                let target_msp2 = rng.random_bool(0.6);
                let point = LIVE_POINTS[rng.random_range(0..3) as usize];
                let countdown = 1 + rng.random_range(0..40);
                // The first event always crashes the recovery itself (the
                // acceptance bar: at least one crash-during-recovery
                // schedule per run), biased to the replay loop; later
                // events follow up with probability 0.4.
                let follow = e == 0 || rng.random_bool(0.4);
                let fpoint = if e == 0 {
                    CrashPoint::ReplayStep
                } else {
                    RECOVERY_POINTS[rng.random_range(0..3) as usize]
                };
                let fcount = 1 + rng.random_range(0..6);
                events.push(CrashEvent {
                    target_msp2,
                    point,
                    countdown,
                    during_recovery: follow.then_some((fpoint, fcount)),
                });
            }
        }
        // Appended after everything else (the reproducibility contract):
        // session-churn points, drawn only under the churn shapes.
        let churn_after: Vec<Vec<bool>> = if matches!(
            opts.shape,
            WorkloadShape::SessionChurn | WorkloadShape::StripedChurn
        ) {
            (0..clients)
                .map(|_| {
                    (0..opts.requests_per_client)
                        .map(|_| rng.random_bool(0.25))
                        .collect()
                })
                .collect()
        } else {
            vec![vec![false; opts.requests_per_client as usize]; clients as usize]
        };
        // Appended after the churn draws (same append-only contract):
        // under DeepChain, retarget ~half the crash events onto the PR-6
        // sites — but only where they are actually hot, or the armed
        // plan would never fire: pipelined sends gate on MSP1 across the
        // pessimistic boundary; flush serving runs on MSP2 for
        // LoOptimistic reply gates.
        if opts.shape == WorkloadShape::DeepChain {
            for ev in &mut events {
                if !rng.random_bool(0.5) {
                    continue;
                }
                match opts.config {
                    SystemConfig::Pessimistic if !ev.target_msp2 => {
                        ev.point = CrashPoint::SendGateIssue;
                    }
                    SystemConfig::LoOptimistic if ev.target_msp2 => {
                        ev.point = CrashPoint::FlushServe;
                    }
                    _ => {}
                }
            }
        }
        Schedule {
            seed: opts.seed,
            shape: opts.shape,
            clients,
            link_faults,
            ms,
            churn_after,
            events,
        }
    }

    /// Total requests the storm issues.
    pub fn total_requests(&self) -> u64 {
        self.ms.iter().map(|v| v.len() as u64).sum()
    }

    /// Total `ServiceMethod2` calls (Σ m).
    pub fn total_msp2_calls(&self) -> u64 {
        self.ms
            .iter()
            .map(|v| v.iter().map(|&m| m as u64).sum::<u64>())
            .sum()
    }
}

/// Structural summary of one post-mortem log audit.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogAudit {
    pub records: u64,
    pub eos_records: u64,
    pub recovery_completes: u64,
    /// One past the last byte of the last intact frame (the end of the
    /// durable record stream; trailing zero-padding comes after).
    pub scan_end: u64,
    pub disk_len: u64,
    /// The persisted reclaim floor (merged gsn floor on a striped log):
    /// every byte of the record area below it was verified zero *before*
    /// the audit re-opened the log (the open itself re-issues the device
    /// reclaim, so checking after would be vacuous).
    pub reclaim_floor: u64,
}

/// What one run did; returned on success so callers (the bin, CI) can
/// report coverage.
#[derive(Debug, Clone)]
pub struct TortureReport {
    pub seed: u64,
    pub config: SystemConfig,
    pub shape: WorkloadShape,
    pub clients: u64,
    pub requests: u64,
    pub msp2_calls: u64,
    /// Total MSP kills (including restart attempts that failed because a
    /// fault fired during startup recovery).
    pub crashes: u64,
    /// Crash points that actually fired, in order, with their target.
    pub fired: Vec<(&'static str, CrashPoint)>,
    /// Crashes that hit a *prior recovery* (the §4.5 dimension).
    pub recovery_crashes: u64,
    /// Scheduled during-recovery follow-ups (≥1 on log-based configs).
    pub scheduled_recovery_events: u64,
    /// Events skipped because the storm's traffic ended first.
    pub skipped_events: u64,
    /// Device truncations across both MSPs (per-stripe ops on striped
    /// worlds), summed from the final incarnations' log stats.
    pub truncations: u64,
    /// Log bytes recycled across both MSPs.
    pub bytes_reclaimed: u64,
    /// Byte-growth-triggered checkpoints across both MSPs (timer-driven
    /// ones are not counted here).
    pub checkpoints_scheduled: u64,
    /// Process-level recovery buffer-pool counters summed over both MSPs'
    /// final incarnations (retired pool runs of that incarnation
    /// included; earlier incarnations' counters die with their rebuild,
    /// like the truncation numbers above).
    pub pool: msp_wal::PoolStatsSnapshot,
    /// Sessions the final incarnations' recovery pools could not replay
    /// from the log. Those incarnations recovered with no fault armed
    /// (every injected crash ends in a kill and a clean restart), so the
    /// oracle fails the run when this is non-zero.
    pub recovery_pool_failures: u64,
    /// Log bytes the final incarnations' analysis scans retained in
    /// per-session replay queues, and the stream records that did not
    /// fit one and were read back through the pool.
    pub recovery_retained_bytes: u64,
    pub recovery_overflow_records: u64,
    /// The forced-checkpoint scheduler of both MSPs' final incarnations:
    /// batches (ticks that held at least one session), sessions
    /// checkpointed, picks skipped because the session was busy.
    pub forced_ckpts: ForcedCkptStats,
    /// Post-mortem audits (MSP1 then MSP2) on log-based configs.
    pub audits: Vec<LogAudit>,
}

/// Forced-checkpoint scheduler counters, summed over MSPs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForcedCkptStats {
    pub batches: u64,
    pub sessions: u64,
    pub skipped_busy: u64,
}

impl ForcedCkptStats {
    fn add(&mut self, st: &msp_core::runtime::RuntimeStatsSnapshot) {
        self.batches += st.forced_ckpt_batches;
        self.sessions += st.forced_ckpt_sessions;
        self.skipped_busy += st.forced_ckpt_skipped_busy;
    }
}

impl std::fmt::Display for ForcedCkptStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "forced_ckpts={}s/{}b/{}busy",
            self.sessions, self.batches, self.skipped_busy
        )
    }
}

impl std::fmt::Display for TortureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={:<4} config={:<12} shape={:<13} clients={:<2} requests={:<4} m2_calls={:<4} \
             crashes={} (during-recovery {}) fired=[{}] audit=[{}]",
            self.seed,
            self.config.name(),
            self.shape.name(),
            self.clients,
            self.requests,
            self.msp2_calls,
            self.crashes,
            self.recovery_crashes,
            self.fired
                .iter()
                .map(|(who, p)| format!("{who}:{}", p.name()))
                .collect::<Vec<_>>()
                .join(" "),
            self.audits
                .iter()
                .map(|a| format!(
                    "{}rec/{}eos/{}rc/floor{}",
                    a.records, a.eos_records, a.recovery_completes, a.reclaim_floor
                ))
                .collect::<Vec<_>>()
                .join(" "),
        )?;
        if self.truncations > 0 {
            write!(
                f,
                " trunc={} reclaimed={}B byte_ckpts={}",
                self.truncations, self.bytes_reclaimed, self.checkpoints_scheduled
            )?;
        }
        if self.pool.pool_hits + self.pool.pool_misses > 0 {
            write!(
                f,
                " pool={}h/{}m/{}ev/{}pf",
                self.pool.pool_hits,
                self.pool.pool_misses,
                self.pool.pool_evictions,
                self.pool.pool_prefetch_hits
            )?;
        }
        if self.recovery_retained_bytes + self.recovery_overflow_records > 0 {
            write!(
                f,
                " replay_queue={}B/{}over",
                self.recovery_retained_bytes, self.recovery_overflow_records
            )?;
        }
        if self.forced_ckpts.batches + self.forced_ckpts.skipped_busy > 0 {
            write!(f, " {}", self.forced_ckpts)?;
        }
        Ok(())
    }
}

/// How long the controller waits for an armed plan to fire before giving
/// up on the event (traffic may have drained first).
const FIRE_WAIT: Duration = Duration::from_secs(5);
/// How long a during-recovery follow-up gets to hit the restart.
const RECOVERY_FIRE_WAIT: Duration = Duration::from_secs(5);
/// Recovery-drain bound after the storm.
const DRAIN_WAIT: Duration = Duration::from_secs(30);

/// Each MSP's first replay failure (session and error), for the "could
/// not be replayed" verdicts.
fn first_replay_failures(world: &World) -> String {
    [("MSP1", &world.msp1), ("MSP2", &world.msp2)]
        .into_iter()
        .filter_map(|(who, slot)| {
            let (session, err) = slot.first_replay_failure()?;
            Some(format!("{who} session {}: {err}", session.0))
        })
        .collect::<Vec<_>>()
        .join("; ")
}

fn le_counter(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte counter"))
}

/// Run one torture storm. `Err` carries a message that always embeds the
/// reproducing seed and configuration.
pub fn run_torture(opts: &TortureOptions) -> Result<TortureReport, String> {
    let sched = Schedule::generate(opts);
    let tag = format!(
        "torture seed={} config={} shape={}",
        opts.seed,
        opts.config.name(),
        opts.shape.name()
    );

    let world = World::start(WorldOptions {
        config: opts.config,
        time_scale: 0.0,
        // Small threshold so session checkpoints (and hence the
        // CheckpointWrite site) are hot even in a short storm.
        session_ckpt_threshold: 4096,
        checkpoints_enabled: true,
        flush_mode: FlushMode::PerRequest,
        workers: 4,
        seed: opts.seed,
        crash_every: 0,
        db_txn_overhead: Duration::ZERO,
        // The striped shape runs the scale-out configuration: WAL over
        // two stripes, runtime over two shards.
        log_stripes: if opts.shape == WorkloadShape::StripedChurn {
            2
        } else {
            0
        },
        runtime_shards: if opts.shape == WorkloadShape::StripedChurn {
            2
        } else {
            1
        },
        // The storm's checkpoints stay timer-driven; byte-driven
        // truncation pressure is the long-run tier's job
        // ([`run_torture_long_run`]).
        checkpoint_interval_bytes: 0,
    });

    let (res_tx, res_rx) = crossbeam_channel::unbounded::<Result<u64, String>>();
    let done = AtomicU64::new(0);
    let mut fired: Vec<(&'static str, CrashPoint)> = Vec::new();
    let mut recovery_crashes = 0u64;
    let mut skipped_events = 0u64;
    let mut results: Vec<Result<u64, String>> = Vec::with_capacity(sched.clients as usize);

    std::thread::scope(|s| {
        // ---- clients ------------------------------------------------ //
        for c in 0..sched.clients {
            let ms = sched.ms[c as usize].clone();
            let churn = sched.churn_after[c as usize].clone();
            let fault = sched.link_faults[c as usize];
            let tx = res_tx.clone();
            let (world, done, tag) = (&world, &done, &tag);
            s.spawn(move || {
                let id = 10_000 + c;
                let mut client = match fault {
                    Some((dp, pp)) => world.faulty_client(id, dp, pp),
                    None => world.client(id),
                };
                let mut calls = 0u64;
                // The session counter `k` is per-session state, so the
                // ledger expectation resets at every churn point.
                let mut expect = 0u64;
                let mut verdict = Ok(());
                for (i, &m) in ms.iter().enumerate() {
                    match client.call(MSP1, "ServiceMethod1", &request_payload(m)) {
                        Ok(reply) => {
                            expect += 1;
                            let k = reply_counter(&reply);
                            if k != expect {
                                verdict = Err(format!(
                                    "{tag}: client {c} request {} saw session counter {k}, \
                                     want {expect} (lost or duplicated execution)",
                                    i + 1,
                                ));
                                break;
                            }
                            calls += m as u64;
                        }
                        Err(e) => {
                            verdict =
                                Err(format!("{tag}: client {c} request {} failed: {e}", i + 1));
                            break;
                        }
                    }
                    if churn[i] {
                        if let Err(e) = client.end_session(MSP1) {
                            verdict = Err(format!(
                                "{tag}: client {c} end_session after request {} failed: {e}",
                                i + 1
                            ));
                            break;
                        }
                        expect = 0;
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(verdict.map(|()| calls));
            });
        }
        drop(res_tx);

        // ---- crash controller --------------------------------------- //
        let trace = std::env::var_os("TORTURE_TRACE").is_some();
        for ev in &sched.events {
            if trace {
                eprintln!(
                    "[trace] event {:?} done={}/{}",
                    ev,
                    done.load(Ordering::SeqCst),
                    sched.clients
                );
            }
            if done.load(Ordering::SeqCst) == sched.clients {
                skipped_events += 1;
                continue;
            }
            let slot = if ev.target_msp2 {
                &world.msp2
            } else {
                &world.msp1
            };
            let plan = Arc::new(FaultPlan::new());
            plan.arm(ev.point, ev.countdown);
            let (ftx, frx) = crossbeam_channel::bounded(1);
            plan.set_notify(ftx);
            slot.set_fault_plan(Some(Arc::clone(&plan)));

            let deadline = Instant::now() + FIRE_WAIT;
            let fired_point = loop {
                match frx.recv_timeout(Duration::from_millis(20)) {
                    Ok(pt) => break Some(pt),
                    Err(_) => {
                        if done.load(Ordering::SeqCst) == sched.clients
                            || Instant::now() >= deadline
                        {
                            // Disarm, then re-check: a fire can race the
                            // decision to give up.
                            plan.disarm_all();
                            break plan.fired();
                        }
                    }
                }
            };
            let Some(pt) = fired_point else {
                slot.set_fault_plan(None);
                skipped_events += 1;
                continue;
            };
            fired.push((ev.target_name(), pt));
            if trace {
                eprintln!("[trace] fired {} {:?}", ev.target_name(), pt);
            }

            // Kill first, then arm the follow-up: with the handle gone the
            // plan is only stored for the rebuild, so it cannot fire on
            // the dead log's stragglers — its first chance is the restart,
            // i.e. genuinely *during recovery*.
            slot.kill();
            let follow = ev.during_recovery.map(|(fpoint, fcount)| {
                let pb = Arc::new(FaultPlan::new());
                pb.arm(fpoint, fcount);
                let (btx, brx) = crossbeam_channel::bounded(1);
                pb.set_notify(btx);
                slot.set_fault_plan(Some(Arc::clone(&pb)));
                (pb, brx)
            });
            if follow.is_none() {
                slot.set_fault_plan(None);
            }
            let _ = slot.restart();
            if trace {
                eprintln!("[trace] restarted {}", ev.target_name());
            }
            if let Some((pb, brx)) = follow {
                // The follow-up may already have fired inside restart()'s
                // internal retry (startup recovery) or fire now, in the
                // replay pool; either way the slot needs one more cycle.
                let got = brx.recv_timeout(RECOVERY_FIRE_WAIT).ok().or_else(|| {
                    pb.disarm_all();
                    pb.fired()
                });
                slot.set_fault_plan(None);
                if let Some(pt2) = got {
                    recovery_crashes += 1;
                    fired.push((ev.target_name(), pt2));
                    if trace {
                        eprintln!("[trace] recovery-crash {} {:?}", ev.target_name(), pt2);
                    }
                    slot.kill();
                    let _ = slot.restart();
                    if trace {
                        eprintln!("[trace] re-restarted {}", ev.target_name());
                    }
                }
            }
        }

        // ---- settle ------------------------------------------------- //
        // Both MSPs are up (every event path ends in a restart); collect
        // the client verdicts under the storm deadline. One rescue pass
        // restarts the slots before declaring the run wedged.
        let mut deadline = Instant::now() + opts.settle_timeout;
        let mut rescued = false;
        while results.len() < sched.clients as usize {
            match res_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(r) => results.push(r),
                Err(_) => {
                    if trace {
                        eprintln!(
                            "[trace] settle: {} results, done={}/{}",
                            results.len(),
                            done.load(Ordering::SeqCst),
                            sched.clients
                        );
                        for (who, slot) in [("MSP1", &world.msp1), ("MSP2", &world.msp2)] {
                            if let Some(st) = slot.stats() {
                                eprintln!(
                                    "[trace]   {who} req={} replayed={} busy={} dup={} \
                                     orphan_drop={} orphan_rec={} rec_complete={}",
                                    st.requests,
                                    st.replayed_requests,
                                    st.busy_replies,
                                    st.duplicate_requests,
                                    st.orphan_msgs_dropped,
                                    st.orphan_recoveries,
                                    slot.recovery_complete(),
                                );
                            }
                        }
                    }
                    if Instant::now() < deadline {
                        continue;
                    }
                    if !rescued {
                        rescued = true;
                        for slot in [&world.msp1, &world.msp2] {
                            slot.set_fault_plan(None);
                            if !slot.is_up() {
                                let _ = slot.restart();
                            }
                        }
                        deadline = Instant::now() + Duration::from_secs(30);
                    } else {
                        // Panic (not Err): client threads are wedged, so
                        // the scope cannot join — surface the seed now.
                        panic!(
                            "{tag}: storm did not settle: {}/{} clients finished \
                             within {:?}",
                            results.len(),
                            sched.clients,
                            opts.settle_timeout
                        );
                    }
                }
            }
        }
    });

    // First client-level violation wins (it is the precise one).
    let mut msp2_calls = 0u64;
    for r in results {
        msp2_calls += r?;
    }
    if msp2_calls != sched.total_msp2_calls() {
        return Err(format!(
            "{tag}: clients acked {} ServiceMethod2 calls, schedule says {}",
            msp2_calls,
            sched.total_msp2_calls()
        ));
    }

    // Drain any recovery still in flight, then check the shared-state
    // model: exactly-once means the counters equal the totals.
    for (who, slot) in [("MSP1", &world.msp1), ("MSP2", &world.msp2)] {
        let t0 = Instant::now();
        while !slot.recovery_complete() {
            if t0.elapsed() > DRAIN_WAIT {
                return Err(format!(
                    "{tag}: {who} recovery did not drain within {DRAIN_WAIT:?}"
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    // Release-stage drain: once the storm settled, both gate gauges must
    // be zero on every shape — a nonzero gauge is a leaked parked
    // envelope (a reply or an outgoing send that neither left nor was
    // discarded).
    if opts.config.is_log_based() {
        for (who, slot) in [("MSP1", &world.msp1), ("MSP2", &world.msp2)] {
            let t0 = Instant::now();
            loop {
                let Some(st) = slot.stats() else {
                    return Err(format!("{tag}: {who} down at release-drain check"));
                };
                if st.gates_pending == 0 && st.send_gates_pending == 0 {
                    break;
                }
                if t0.elapsed() > DRAIN_WAIT {
                    return Err(format!(
                        "{tag}: {who} durability gates did not drain: \
                         gates_pending={} send_gates_pending={}",
                        st.gates_pending, st.send_gates_pending
                    ));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    let requests = sched.total_requests();
    let expect = [
        ("MSP1", &world.msp1, ["SV0", "SV1"], requests),
        (
            "MSP2",
            &world.msp2,
            ["SV2", "SV3"],
            sched.total_msp2_calls(),
        ),
    ];
    for (who, slot, vars, want) in expect {
        let shared = slot.dump_shared();
        if shared.len() != 2 {
            return Err(format!(
                "{tag}: {who} dump_shared returned {} vars, want 2",
                shared.len()
            ));
        }
        for (vi, (name, value)) in vars.iter().zip(&shared).enumerate() {
            let got = le_counter(value);
            if got != want {
                if std::env::var_os("TORTURE_TRACE").is_some() {
                    dump_var_history(&slot.disks(), who, vi as u32);
                }
                return Err(format!(
                    "{tag}: {who} {name} counter is {got}, want {want} \
                     (exactly-once violated on shared state)"
                ));
            }
        }
    }

    // Truncation counters come from the final incarnations' stats, so
    // they must be read before the shutdown drops the handles. (They
    // undercount across crashes — each rebuild starts fresh counters —
    // but the storm only asserts on the audits; the numbers are for the
    // report.)
    let mut truncations = 0u64;
    let mut bytes_reclaimed = 0u64;
    let mut checkpoints_scheduled = 0u64;
    let mut pool = msp_wal::PoolStatsSnapshot::default();
    let mut recovery_pool_failures = 0u64;
    let mut recovery_retained_bytes = 0u64;
    let mut recovery_overflow_records = 0u64;
    let mut forced_ckpts = ForcedCkptStats::default();
    if opts.config.is_log_based() {
        for slot in [&world.msp1, &world.msp2] {
            if let Some(ls) = slot.log_stats() {
                truncations += ls.log_truncations;
                bytes_reclaimed += ls.bytes_reclaimed;
            }
            if let Some(st) = slot.stats() {
                checkpoints_scheduled += st.checkpoints_scheduled;
                recovery_pool_failures += st.recovery_pool_failures;
                recovery_retained_bytes += st.recovery_retained_bytes;
                recovery_overflow_records += st.recovery_overflow_records;
                forced_ckpts.add(&st);
            }
            pool = pool.merge(&slot.pool_stats());
        }
        if std::env::var_os("TORTURE_TRACE").is_some() {
            for (who, slot) in [("MSP1", &world.msp1), ("MSP2", &world.msp2)] {
                eprintln!(
                    "[trace] {who} trunc={:?} floor={:?} footprint={}",
                    slot.log_stats().map(|ls| (
                        ls.log_truncations,
                        ls.bytes_reclaimed,
                        ls.reclaim_floor_lsn
                    )),
                    slot.reclaim_floor(),
                    slot.footprint(),
                );
                let ps = slot.pool_stats();
                eprintln!(
                    "[trace] {who} pool hits={} misses={} evictions={} \
                     prefetch_hits={} prefetched_blocks={}",
                    ps.pool_hits,
                    ps.pool_misses,
                    ps.pool_evictions,
                    ps.pool_prefetch_hits,
                    ps.pool_prefetched_blocks,
                );
                if let Some(st) = slot.stats() {
                    eprintln!(
                        "[trace] {who} recovery pool_sessions={} pool_failures={} \
                         retained_bytes={} overflow_records={}",
                        st.recovery_pool_sessions,
                        st.recovery_pool_failures,
                        st.recovery_retained_bytes,
                        st.recovery_overflow_records,
                    );
                    eprintln!(
                        "[trace] {who} forced_ckpt batches={} sessions={} skipped_busy={}",
                        st.forced_ckpt_batches,
                        st.forced_ckpt_sessions,
                        st.forced_ckpt_skipped_busy,
                    );
                }
            }
        }
    }
    if recovery_pool_failures > 0 {
        return Err(format!(
            "{tag}: {recovery_pool_failures} session(s) could not be replayed from \
             the log by a clean recovery (left needs_recovery); first: {}",
            first_replay_failures(&world)
        ));
    }

    // Post-mortem: shut the world down cleanly, then re-open the final
    // disks and audit the log structure.
    let disks = opts
        .config
        .is_log_based()
        .then(|| [("MSP1", world.msp1.disks()), ("MSP2", world.msp2.disks())]);
    // `world.crash_count()` reads the slot counters, which restart() resets
    // when it rebuilds a slot; `fired` is the authoritative tally.
    let crashes = fired.len() as u64;
    world.shutdown();
    let mut audits = Vec::new();
    if let Some(disks) = disks {
        for (who, stripe_disks) in disks {
            let wtag = format!("{tag}: {who}");
            audits.push(if stripe_disks.len() == 1 {
                audit_log(&stripe_disks[0], &wtag)?
            } else {
                audit_striped_log(&stripe_disks, &wtag)?
            });
        }
    }

    Ok(TortureReport {
        seed: opts.seed,
        config: opts.config,
        shape: opts.shape,
        clients: sched.clients,
        requests,
        msp2_calls,
        crashes,
        fired,
        recovery_crashes,
        scheduled_recovery_events: sched
            .events
            .iter()
            .filter(|e| e.during_recovery.is_some())
            .count() as u64,
        skipped_events,
        truncations,
        bytes_reclaimed,
        checkpoints_scheduled,
        pool,
        recovery_pool_failures,
        recovery_retained_bytes,
        recovery_overflow_records,
        forced_ckpts,
        audits,
    })
}

/// Tuning of one long-run bounded-log session ([`run_torture_long_run`]).
#[derive(Debug, Clone)]
pub struct LongRunOptions {
    pub seed: u64,
    pub config: SystemConfig,
    /// Run the scale-out shape: WAL striped over two disks, runtime
    /// sharded two ways (the merged-gsn truncation path).
    pub striped: bool,
    /// Concurrent clients. Each issues requests continuously until the
    /// crash sequence has finished *and* it has issued at least
    /// `min_requests_per_client`.
    pub clients: u64,
    pub min_requests_per_client: u64,
    /// Fixed-cadence MSP1 kills the controller performs.
    pub crashes: u32,
    /// Traffic time between kills.
    pub crash_interval: Duration,
    /// Per-MSP on-disk footprint bound ([`crate::world::MspSlot::footprint`],
    /// sampled continuously); `0` disables the check.
    pub footprint_cap: u64,
    /// Byte-growth checkpoint trigger handed to the world — the knob the
    /// run exists to exercise.
    pub checkpoint_interval_bytes: u64,
    pub settle_timeout: Duration,
}

impl LongRunOptions {
    pub fn new(seed: u64, config: SystemConfig) -> LongRunOptions {
        LongRunOptions {
            seed,
            config,
            striped: false,
            clients: 6,
            min_requests_per_client: 100,
            crashes: 8,
            crash_interval: Duration::from_millis(200),
            footprint_cap: 4 << 20,
            checkpoint_interval_bytes: 256 << 10,
            settle_timeout: Duration::from_secs(240),
        }
    }
}

/// What one long-run session measured.
#[derive(Debug, Clone)]
pub struct LongRunReport {
    pub seed: u64,
    pub config: SystemConfig,
    pub striped: bool,
    pub clients: u64,
    /// Requests acked across all clients (the run length).
    pub requests: u64,
    pub msp2_calls: u64,
    /// Kills performed (== `opts.crashes` on success).
    pub crashes: u64,
    /// Per-crash repair time: kill → restart returns → `recovery_complete`.
    pub mttr: Vec<Duration>,
    /// Highest per-MSP footprint any sample saw.
    pub peak_footprint: u64,
    pub footprint_cap: u64,
    pub truncations: u64,
    pub bytes_reclaimed: u64,
    pub checkpoints_scheduled: u64,
    /// Forced-checkpoint scheduler counters of both MSPs' final
    /// incarnations.
    pub forced_ckpts: ForcedCkptStats,
    /// Floor-aware post-mortem audits (MSP1 then MSP2).
    pub audits: Vec<LogAudit>,
}

impl LongRunReport {
    /// Mean repair time of the first and last MTTR quartile, each sample
    /// clamped to 25 ms so scheduler noise on near-instant recoveries
    /// cannot fake (or mask) a trend. `None` below 4 samples.
    pub fn mttr_quartile_means(&self) -> Option<(f64, f64)> {
        if self.mttr.len() < 4 {
            return None;
        }
        let clamp = |d: &Duration| d.as_secs_f64().max(0.025);
        let q = self.mttr.len() / 4;
        let first = self.mttr[..q].iter().map(clamp).sum::<f64>() / q as f64;
        let last = self.mttr[self.mttr.len() - q..]
            .iter()
            .map(clamp)
            .sum::<f64>()
            / q as f64;
        Some((first, last))
    }
}

impl std::fmt::Display for LongRunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (first, last) = self.mttr_quartile_means().unwrap_or((0.0, 0.0));
        write!(
            f,
            "seed={:<4} config={:<12} striped={} clients={} requests={:<5} m2_calls={:<5} \
             crashes={} mttr_q1={:.0}ms mttr_q4={:.0}ms peak_footprint={}B cap={}B \
             trunc={} reclaimed={}B byte_ckpts={} {} floors=[{}]",
            self.seed,
            self.config.name(),
            self.striped,
            self.clients,
            self.requests,
            self.msp2_calls,
            self.crashes,
            first * 1e3,
            last * 1e3,
            self.peak_footprint,
            self.footprint_cap,
            self.truncations,
            self.bytes_reclaimed,
            self.checkpoints_scheduled,
            self.forced_ckpts,
            self.audits
                .iter()
                .map(|a| a.reclaim_floor.to_string())
                .collect::<Vec<_>>()
                .join(" "),
        )
    }
}

/// The bounded-log acceptance run: continuous traffic, a byte-driven
/// checkpoint/truncate loop, fixed-cadence MSP1 kills — and three
/// assertions the storm tier cannot make:
///
/// 1. **Fixed disk footprint** — a monitor samples each MSP's live
///    on-disk footprint throughout; the peak must stay under
///    `footprint_cap` no matter how long the run is.
/// 2. **Flat MTTR** — per-crash repair time is recorded; the mean of the
///    last quartile must stay within 1.5× the first quartile's (recovery
///    work is bounded by the checkpoint interval, not by run length).
/// 3. **Exactly-once under truncation** — the same three-layer oracle as
///    [`run_torture`], with the post-mortem audits running their
///    floor-aware variants.
pub fn run_torture_long_run(opts: &LongRunOptions) -> Result<LongRunReport, String> {
    use std::sync::atomic::AtomicBool;

    if !opts.config.is_log_based() {
        return Err(format!(
            "long-run: config {} has no log to bound",
            opts.config.name()
        ));
    }
    let tag = format!(
        "torture-long-run seed={} config={}{}",
        opts.seed,
        opts.config.name(),
        if opts.striped { " striped" } else { "" }
    );

    let world = World::start(WorldOptions {
        config: opts.config,
        time_scale: 0.0,
        session_ckpt_threshold: 4096,
        checkpoints_enabled: true,
        flush_mode: FlushMode::PerRequest,
        workers: 4,
        seed: opts.seed,
        crash_every: 0,
        db_txn_overhead: Duration::ZERO,
        log_stripes: if opts.striped { 2 } else { 0 },
        runtime_shards: if opts.striped { 2 } else { 1 },
        checkpoint_interval_bytes: opts.checkpoint_interval_bytes,
    });

    let trace = std::env::var_os("TORTURE_TRACE").is_some();
    let (res_tx, res_rx) = crossbeam_channel::unbounded::<Result<(u64, u64), String>>();
    let done = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let mut mttr: Vec<Duration> = Vec::with_capacity(opts.crashes as usize);
    let mut controller_err: Option<String> = None;
    let mut results: Vec<Result<(u64, u64), String>> = Vec::with_capacity(opts.clients as usize);

    std::thread::scope(|s| {
        // ---- clients: run until told to stop ------------------------ //
        for c in 0..opts.clients {
            let tx = res_tx.clone();
            let (world, done, stop, tag) = (&world, &done, &stop, &tag);
            let min_req = opts.min_requests_per_client;
            s.spawn(move || {
                let mut client = world.client(20_000 + c);
                let mut expect = 0u64;
                let mut calls = 0u64;
                let mut verdict = Ok(());
                loop {
                    if stop.load(Ordering::SeqCst) && expect >= min_req {
                        break;
                    }
                    // `m` alternates 1/2 deterministically — no RNG, so
                    // the totals are pure arithmetic over the ack counts.
                    let m = 1 + ((c + expect) % 2) as u8;
                    match client.call(MSP1, "ServiceMethod1", &request_payload(m)) {
                        Ok(reply) => {
                            expect += 1;
                            let k = reply_counter(&reply);
                            if k != expect {
                                verdict = Err(format!(
                                    "{tag}: client {c} request {expect} saw session \
                                     counter {k}, want {expect} (lost or duplicated \
                                     execution)"
                                ));
                                break;
                            }
                            calls += m as u64;
                        }
                        Err(e) => {
                            verdict = Err(format!(
                                "{tag}: client {c} request {} failed: {e}",
                                expect + 1
                            ));
                            break;
                        }
                    }
                }
                done.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(verdict.map(|()| (expect, calls)));
            });
        }
        drop(res_tx);

        // ---- footprint monitor -------------------------------------- //
        {
            let (world, done, peak) = (&world, &done, &peak);
            let clients = opts.clients;
            s.spawn(move || {
                while done.load(Ordering::SeqCst) < clients {
                    for slot in [&world.msp1, &world.msp2] {
                        peak.fetch_max(slot.footprint(), Ordering::SeqCst);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }

        // ---- fixed-cadence crash controller ------------------------- //
        for k in 0..opts.crashes {
            std::thread::sleep(opts.crash_interval);
            if trace {
                eprintln!(
                    "[trace] long-run crash {k}: MSP1 floor={:?} footprint={}",
                    world.msp1.reclaim_floor(),
                    world.msp1.footprint()
                );
            }
            world.msp1.kill();
            let t0 = Instant::now();
            let _ = world.msp1.restart();
            let deadline = Instant::now() + DRAIN_WAIT;
            while !world.msp1.recovery_complete() {
                if Instant::now() >= deadline {
                    controller_err = Some(format!(
                        "{tag}: crash {k}: MSP1 recovery did not complete \
                         within {DRAIN_WAIT:?}"
                    ));
                    break;
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            mttr.push(t0.elapsed());
            if trace {
                eprintln!(
                    "[trace] long-run crash {k}: repaired in {:?}",
                    mttr[k as usize]
                );
            }
            if controller_err.is_some() {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);

        // ---- settle ------------------------------------------------- //
        let deadline = Instant::now() + opts.settle_timeout;
        while results.len() < opts.clients as usize {
            match res_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(r) => results.push(r),
                Err(_) => {
                    if Instant::now() >= deadline {
                        panic!(
                            "{tag}: run did not settle: {}/{} clients finished \
                             within {:?}",
                            results.len(),
                            opts.clients,
                            opts.settle_timeout
                        );
                    }
                }
            }
        }
    });
    if let Some(e) = controller_err {
        return Err(e);
    }

    let mut requests = 0u64;
    let mut msp2_calls = 0u64;
    for r in results {
        let (reqs, calls) = r?;
        requests += reqs;
        msp2_calls += calls;
    }

    // Same drain + shared-state oracle as the storm tier.
    for (who, slot) in [("MSP1", &world.msp1), ("MSP2", &world.msp2)] {
        let t0 = Instant::now();
        while !slot.recovery_complete() {
            if t0.elapsed() > DRAIN_WAIT {
                return Err(format!(
                    "{tag}: {who} recovery did not drain within {DRAIN_WAIT:?}"
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let expect = [
        ("MSP1", &world.msp1, ["SV0", "SV1"], requests),
        ("MSP2", &world.msp2, ["SV2", "SV3"], msp2_calls),
    ];
    for (who, slot, vars, want) in expect {
        let shared = slot.dump_shared();
        if shared.len() != 2 {
            return Err(format!(
                "{tag}: {who} dump_shared returned {} vars, want 2",
                shared.len()
            ));
        }
        for (vi, (name, value)) in vars.iter().zip(&shared).enumerate() {
            let got = le_counter(value);
            if got != want {
                if trace {
                    dump_var_history(&slot.disks(), who, vi as u32);
                }
                return Err(format!(
                    "{tag}: {who} {name} counter is {got}, want {want} \
                     (exactly-once violated on shared state)"
                ));
            }
        }
    }

    // Counters + final footprint sample, then the floor-aware audits.
    let mut truncations = 0u64;
    let mut bytes_reclaimed = 0u64;
    let mut checkpoints_scheduled = 0u64;
    let mut forced_ckpts = ForcedCkptStats::default();
    for slot in [&world.msp1, &world.msp2] {
        peak.fetch_max(slot.footprint(), Ordering::SeqCst);
        if let Some(ls) = slot.log_stats() {
            truncations += ls.log_truncations;
            bytes_reclaimed += ls.bytes_reclaimed;
        }
        if let Some(st) = slot.stats() {
            checkpoints_scheduled += st.checkpoints_scheduled;
            if st.recovery_pool_failures > 0 {
                return Err(format!(
                    "{tag}: {} session(s) could not be replayed from the log \
                     (left needs_recovery); first: {}",
                    st.recovery_pool_failures,
                    first_replay_failures(&world)
                ));
            }
            // No convoy: one tick forces at most its share of the
            // sessions, however they were (re-)created.
            let share = (slot.session_count() as u64)
                .div_ceil(u64::from(slot.cfg.logging.force_ckpt_after));
            if st.forced_ckpt_sessions > st.forced_ckpt_batches * share {
                return Err(format!(
                    "{tag}: {} forced session checkpoints in {} batches — more than \
                     {share} per MSP checkpoint",
                    st.forced_ckpt_sessions, st.forced_ckpt_batches
                ));
            }
            if trace {
                eprintln!(
                    "[trace] long-run forced_ckpt batches={} sessions={} skipped_busy={}",
                    st.forced_ckpt_batches, st.forced_ckpt_sessions, st.forced_ckpt_skipped_busy
                );
            }
            forced_ckpts.add(&st);
        }
    }
    let disks = [("MSP1", world.msp1.disks()), ("MSP2", world.msp2.disks())];
    world.shutdown();
    let mut audits = Vec::new();
    for (who, stripe_disks) in disks {
        let wtag = format!("{tag}: {who}");
        audits.push(if stripe_disks.len() == 1 {
            audit_log(&stripe_disks[0], &wtag)?
        } else {
            audit_striped_log(&stripe_disks, &wtag)?
        });
    }

    let report = LongRunReport {
        seed: opts.seed,
        config: opts.config,
        striped: opts.striped,
        clients: opts.clients,
        requests,
        msp2_calls,
        crashes: mttr.len() as u64,
        mttr,
        peak_footprint: peak.load(Ordering::SeqCst),
        footprint_cap: opts.footprint_cap,
        truncations,
        bytes_reclaimed,
        checkpoints_scheduled,
        forced_ckpts,
        audits: audits.clone(),
    };

    // ---- the bounded-log assertions ----------------------------------- //
    if report.truncations == 0 {
        return Err(format!(
            "{tag}: the log was never truncated — the byte-driven \
             checkpoint loop (interval {}B) did not run",
            opts.checkpoint_interval_bytes
        ));
    }
    if !audits.iter().any(|a| a.reclaim_floor > DATA_START) {
        return Err(format!(
            "{tag}: no audited log's reclaim floor advanced past \
             DATA_START despite {} truncations",
            report.truncations
        ));
    }
    if opts.footprint_cap > 0 && report.peak_footprint > opts.footprint_cap {
        return Err(format!(
            "{tag}: peak per-MSP footprint {}B exceeds the cap {}B — \
             the log is not bounded",
            report.peak_footprint, opts.footprint_cap
        ));
    }
    match report.mttr_quartile_means() {
        None => {
            return Err(format!(
                "{tag}: only {} MTTR samples (need ≥ 4 for the flatness \
                 check) — raise `crashes`",
                report.mttr.len()
            ));
        }
        Some((first, last)) => {
            if last > first * 1.5 {
                return Err(format!(
                    "{tag}: MTTR is not flat: last-quartile mean {:.1}ms > \
                     1.5 × first-quartile mean {:.1}ms — recovery work is \
                     growing with run length",
                    last * 1e3,
                    first * 1e3
                ));
            }
        }
    }

    Ok(report)
}

/// Frame layout of log.rs: magic byte + u32 length + u32 crc.
const AUDIT_FRAME_HEADER: u64 = 9;

/// The record-stream checks shared by the single-log and striped audits:
/// recovery epochs strictly increase and every EOS fences a record of its
/// own session behind it. Positions are LSNs on a single log and gsns on
/// a striped one — the invariants are identical because the gsn space
/// *is* the log address space under striping.
#[derive(Default)]
struct SemanticAudit {
    audit: LogAudit,
    session_at: std::collections::HashMap<u64, Option<msp_types::SessionId>>,
    last_epoch: Option<u32>,
    /// Reclaim floor the scan started at. An EOS may legally fence an
    /// orphan below it — the fenced record was checkpoint-covered and
    /// truncated away — so the fence-target checks only apply at or
    /// above the floor.
    floor: u64,
}

impl SemanticAudit {
    fn step(&mut self, tag: &str, pos: u64, rec: &LogRecord) -> Result<(), String> {
        match rec {
            LogRecord::RecoveryComplete {
                new_epoch,
                recovered_lsn,
            } => {
                if recovered_lsn.0 > pos {
                    return Err(format!(
                        "{tag}: RecoveryComplete at {pos} claims future \
                         recovered_lsn {}",
                        recovered_lsn.0
                    ));
                }
                if let Some(prev) = self.last_epoch {
                    if new_epoch.0 <= prev {
                        return Err(format!(
                            "{tag}: recovery epoch {} at LSN {pos} does not \
                             increase over {prev}",
                            new_epoch.0
                        ));
                    }
                }
                self.last_epoch = Some(new_epoch.0);
                self.audit.recovery_completes += 1;
            }
            LogRecord::Eos {
                session,
                orphan_lsn,
            } => {
                if orphan_lsn.0 < DATA_START || orphan_lsn.0 >= pos {
                    return Err(format!(
                        "{tag}: Eos at {pos} fences orphan_lsn {} outside \
                         [{DATA_START}, {pos})",
                        orphan_lsn.0
                    ));
                }
                if orphan_lsn.0 >= self.floor {
                    match self.session_at.get(&orphan_lsn.0) {
                        Some(Some(s)) if s == session => {}
                        Some(_) => {
                            return Err(format!(
                                "{tag}: Eos at {pos} for session {session:?} fences \
                                 a record of a different session at {}",
                                orphan_lsn.0
                            ));
                        }
                        None => {
                            return Err(format!(
                                "{tag}: Eos at {pos} fences orphan_lsn {} which \
                                 is not a record boundary",
                                orphan_lsn.0
                            ));
                        }
                    }
                }
                self.audit.eos_records += 1;
            }
            _ => {}
        }
        self.session_at.insert(pos, rec.session());
        self.audit.records += 1;
        Ok(())
    }
}

/// No frame past a hole: the append path only ever extends the
/// contiguous durable stream (plus zero sector-padding), so every byte
/// after the last intact frame must be zero. Any other byte is a dead
/// frame the scanner silently skipped over — recovery would lose it
/// without noticing.
fn sweep_zeros_past(bytes: &[u8], stream_end: u64, tag: &str) -> Result<(), String> {
    if (stream_end as usize) < bytes.len() {
        if let Some(i) = bytes[stream_end as usize..].iter().position(|&b| b != 0) {
            return Err(format!(
                "{tag}: non-zero byte {:#04x} at offset {} past the scan end \
                 {stream_end} — dead frame beyond the hole",
                bytes[stream_end as usize + i],
                stream_end as usize + i
            ));
        }
    }
    Ok(())
}

/// Truncated prefix check, shared by both audits. Must run on a
/// snapshot taken *before* the post-mortem re-open: every open re-issues
/// the device reclaim below the persisted floor itself (to finish an
/// interrupted truncation), which would repair exactly the violation
/// this is looking for.
fn sweep_zeros_below_floor(bytes: &[u8], floor: u64, tag: &str) -> Result<(), String> {
    let lo = (DATA_START as usize).min(bytes.len());
    let hi = (floor as usize).min(bytes.len());
    if lo < hi {
        if let Some(i) = bytes[lo..hi].iter().position(|&b| b != 0) {
            return Err(format!(
                "{tag}: non-zero byte {:#04x} at offset {} below the reclaim \
                 floor {floor} — truncated space was not recycled",
                bytes[lo + i],
                lo + i
            ));
        }
    }
    Ok(())
}

/// Re-open a crashed-or-closed MSP disk and verify the structural log
/// invariants the recovery protocols rely on. `tag` prefixes every
/// failure (it carries the seed).
pub fn audit_log(disk: &Arc<MemDisk>, tag: &str) -> Result<LogAudit, String> {
    // Read the persisted reclaim floor and check the truncated prefix on
    // the raw bytes, before the open below can repair it.
    let floor = msp_wal::read_floor(disk.as_ref())
        .map_err(|e| format!("{tag}: reclaim-floor region unreadable: {e}"))?
        .map_or(DATA_START, |f| f.max(DATA_START));
    sweep_zeros_below_floor(&disk.snapshot(), floor, tag)?;

    let log = PhysicalLog::open_unpositioned(
        Arc::clone(disk) as Arc<dyn Disk>,
        DiskModel::zero(),
        FlushPolicy::per_request(),
    )
    .map_err(|e| format!("{tag}: post-mortem re-open failed: {e}"))?;

    let mut sem = SemanticAudit {
        floor,
        ..SemanticAudit::default()
    };
    let mut last_lsn: Option<u64> = None;
    // One past the last byte of the last intact frame — unlike the
    // scanner's final position, this does not skip over trailing
    // zero-padding, so it anchors the no-frame-past-a-hole sweep. The
    // stream now begins at the reclaim floor, not DATA_START.
    let mut stream_end = floor;
    {
        let mut scanner = log.scan_from(Lsn(DATA_START));
        for item in scanner.by_ref() {
            let (lsn, rec) = item.map_err(|e| format!("{tag}: scan failed mid-log: {e}"))?;
            if let Some(prev) = last_lsn {
                if lsn.0 <= prev {
                    return Err(format!("{tag}: non-monotone LSN {} after {prev}", lsn.0));
                }
            }
            last_lsn = Some(lsn.0);
            if let LogRecord::Striped { .. } = &rec {
                return Err(format!(
                    "{tag}: stripe envelope at {} on a single (unstriped) log",
                    lsn.0
                ));
            }
            sem.step(tag, lsn.0, &rec)?;
            stream_end = lsn.0 + AUDIT_FRAME_HEADER + rec.to_bytes().len() as u64;
        }
    }
    log.close();

    let bytes = disk.snapshot();
    let mut audit = sem.audit;
    audit.scan_end = stream_end;
    audit.disk_len = bytes.len() as u64;
    audit.reclaim_floor = floor;
    sweep_zeros_past(&bytes, stream_end, tag)?;
    Ok(audit)
}

/// Striped counterpart of [`audit_log`]: raw-scan every stripe device,
/// check the *per-stripe* physical invariants (monotone local LSNs, every
/// frame a stripe envelope, no dead frame past each stripe's stream end,
/// zeros below each stripe's local reclaim floor), then re-merge by gsn
/// and check the *logical* invariants on the merged stream — which must
/// be gap-free from the merged reclaim floor: after a clean shutdown the
/// final recovery has truncated every non-contiguous tail, and appends
/// only ever extend the merged frontier.
pub fn audit_striped_log(disks: &[Arc<MemDisk>], tag: &str) -> Result<LogAudit, String> {
    // The merged (gsn-space) floor is persisted on every stripe disk;
    // a crash mid-truncation may leave some disks behind, so the max is
    // authoritative — exactly the rule the striped open applies.
    let mut merged_floor = DATA_START;
    for (si, disk) in disks.iter().enumerate() {
        let f = msp_wal::read_merged_floor(disk.as_ref())
            .map_err(|e| format!("{tag} stripe {si}: merged-floor region unreadable: {e}"))?
            .unwrap_or(DATA_START);
        merged_floor = merged_floor.max(f);
    }
    // (gsn, framed size in the gsn address space, inner record); the
    // gsn-space framed size equals the stripe-local physical one.
    let mut merged: Vec<(u64, u64, LogRecord)> = Vec::new();
    let mut disk_len = 0u64;
    for (si, disk) in disks.iter().enumerate() {
        let stag = format!("{tag} stripe {si}");
        // Pre-open, like the single-log audit: the open re-drives any
        // interrupted truncation, so the zeros check must see raw bytes.
        let local_floor = msp_wal::read_floor(disk.as_ref())
            .map_err(|e| format!("{stag}: reclaim-floor region unreadable: {e}"))?
            .map_or(DATA_START, |f| f.max(DATA_START));
        sweep_zeros_below_floor(&disk.snapshot(), local_floor, &stag)?;
        let log = PhysicalLog::open_unpositioned(
            Arc::clone(disk) as Arc<dyn Disk>,
            DiskModel::zero(),
            FlushPolicy::per_request(),
        )
        .map_err(|e| format!("{stag}: post-mortem re-open failed: {e}"))?;
        let mut last_local: Option<u64> = None;
        let mut stream_end = local_floor;
        for item in log.scan_from(Lsn(DATA_START)) {
            let (lsn, rec) = item.map_err(|e| format!("{stag}: scan failed mid-log: {e}"))?;
            if let Some(prev) = last_local {
                if lsn.0 <= prev {
                    return Err(format!("{stag}: non-monotone LSN {} after {prev}", lsn.0));
                }
            }
            last_local = Some(lsn.0);
            let framed = AUDIT_FRAME_HEADER + rec.to_bytes().len() as u64;
            stream_end = lsn.0 + framed;
            match rec {
                // A surviving frame below the merged floor is possible
                // only in the mid-truncation window (its stripe was
                // truncated after a laggard persisted the new merged
                // floor); it is checkpoint-covered and dead, so drop it
                // from the merged contiguity check — the striped open
                // does the same.
                LogRecord::Striped { gsn, inner } if gsn.0 >= merged_floor => {
                    merged.push((gsn.0, framed, *inner))
                }
                LogRecord::Striped { .. } => {}
                other => {
                    return Err(format!(
                        "{stag}: bare {} record at {} outside a stripe envelope",
                        other.kind(),
                        lsn.0
                    ));
                }
            }
        }
        log.close();
        let bytes = disk.snapshot();
        disk_len += bytes.len() as u64;
        sweep_zeros_past(&bytes, stream_end, &stag)?;
    }

    merged.sort_by_key(|&(gsn, _, _)| gsn);
    let mut sem = SemanticAudit {
        floor: merged_floor,
        ..SemanticAudit::default()
    };
    let mut expected = merged_floor;
    for (gsn, framed, rec) in &merged {
        if *gsn != expected {
            return Err(format!(
                "{tag}: merged gsn stream broken: record at gsn {gsn}, \
                 expected {expected} (lost or duplicated stripe frame)"
            ));
        }
        sem.step(tag, *gsn, rec)?;
        expected = gsn + framed;
    }
    let mut audit = sem.audit;
    audit.scan_end = expected;
    audit.disk_len = disk_len;
    audit.reclaim_floor = merged_floor;
    Ok(audit)
}

/// `TORTURE_TRACE` diagnostic for a shared-counter oracle failure: scan
/// the MSP's disk(s) and print every record that moved the failed
/// variable, plus the session-lifecycle records needed to see *why*
/// (which request wrote each value, where recoveries and orphan skips
/// cut the stream). Striped worlds are re-merged by gsn so the history
/// reads like one log; the `s<i>` column shows each record's stripe.
fn dump_var_history(disks: &[Arc<MemDisk>], who: &str, var: u32) {
    let mut merged: Vec<(u64, usize, LogRecord)> = Vec::new();
    for (si, disk) in disks.iter().enumerate() {
        let log = match PhysicalLog::open_unpositioned(
            Arc::clone(disk) as Arc<dyn Disk>,
            DiskModel::zero(),
            FlushPolicy::per_request(),
        ) {
            Ok(log) => log,
            Err(e) => {
                eprintln!("[trace] {who} stripe {si} var-history scan failed to open: {e}");
                return;
            }
        };
        for item in log.scan_from(Lsn(DATA_START)) {
            let Ok((lsn, rec)) = item else { break };
            match rec {
                // Striped frame: address by its gsn so stripes interleave.
                LogRecord::Striped { gsn, inner } => merged.push((gsn.0, si, *inner)),
                rec => merged.push((lsn.0, si, rec)),
            }
        }
        log.close();
    }
    merged.sort_by_key(|&(gsn, _, _)| gsn);
    eprintln!(
        "[trace] ---- {who} history of var {var} ({} stripe(s)) ----",
        disks.len()
    );
    for (lsn, si, rec) in &merged {
        match rec {
            LogRecord::SharedWrite {
                session,
                var: v,
                value,
                prev_write,
                ..
            } if v.0 == var => eprintln!(
                "[trace] {lsn:>8} s{si} SharedWrite   {session:?} value={} prev={}",
                le_counter(value),
                prev_write.0
            ),
            LogRecord::SharedCheckpoint { var: v, value } if v.0 == var => eprintln!(
                "[trace] {lsn:>8} s{si} SharedCkpt    value={}",
                le_counter(value)
            ),
            LogRecord::RequestReceive { session, seq, .. } => {
                eprintln!("[trace] {lsn:>8} s{si} RequestRecv   {session:?} {seq:?}")
            }
            LogRecord::ReplyReceive {
                session,
                outgoing,
                seq,
                ..
            } => eprintln!(
                "[trace] {lsn:>8} s{si} ReplyRecv     {session:?} out={outgoing:?} {seq:?}"
            ),
            LogRecord::OutgoingBind {
                session, outgoing, ..
            } => eprintln!("[trace] {lsn:>8} s{si} OutgoingBind  {session:?} out={outgoing:?}"),
            LogRecord::SessionCheckpoint { session, body } => eprintln!(
                "[trace] {lsn:>8} s{si} SessionCkpt   {session:?} next={:?}",
                body.next_expected
            ),
            LogRecord::MspCheckpoint(body) => eprintln!(
                "[trace] {lsn:>8} s{si} MspCheckpoint sessions={:?}",
                body.sessions
                    .iter()
                    .map(|s| s.session.0)
                    .collect::<Vec<_>>()
            ),
            LogRecord::SessionEnd { session } => {
                eprintln!("[trace] {lsn:>8} s{si} SessionEnd    {session:?}")
            }
            LogRecord::Eos {
                session,
                orphan_lsn,
            } => eprintln!(
                "[trace] {lsn:>8} s{si} Eos           {session:?} orphan_lsn={}",
                orphan_lsn.0
            ),
            LogRecord::RecoveryComplete {
                new_epoch,
                recovered_lsn,
            } => eprintln!(
                "[trace] {lsn:>8} s{si} RecoveryDone  epoch={} recovered_lsn={}",
                new_epoch.0, recovered_lsn.0
            ),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let opts = TortureOptions::new(11, SystemConfig::LoOptimistic);
        let a = Schedule::generate(&opts);
        let b = Schedule::generate(&opts);
        assert_eq!(a, b, "same seed, same schedule");
        assert!((8..=32).contains(&a.clients));
        assert!(a.ms.iter().flatten().all(|&m| (1..=4).contains(&m)));
        assert_eq!(a.events.len(), opts.crash_events);
        assert!(
            a.events[0].during_recovery.is_some(),
            "first event always crashes the recovery itself"
        );
        let c = Schedule::generate(&TortureOptions::new(12, SystemConfig::LoOptimistic));
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn shapes_bias_the_schedule_without_breaking_determinism() {
        let mut base = TortureOptions::new(11, SystemConfig::LoOptimistic);

        base.shape = WorkloadShape::SharedHeavy;
        let heavy = Schedule::generate(&base);
        assert_eq!(heavy, Schedule::generate(&base), "same (seed, shape)");
        assert!(
            heavy.ms.iter().flatten().all(|&m| (3..=4).contains(&m)),
            "shared-heavy draws m from 3..=4 only"
        );
        assert!(
            heavy.churn_after.iter().flatten().all(|&b| !b),
            "shared-heavy schedules no churn"
        );

        base.shape = WorkloadShape::SessionChurn;
        let churn = Schedule::generate(&base);
        assert_eq!(churn, Schedule::generate(&base), "same (seed, shape)");
        assert!(
            churn.churn_after.iter().flatten().any(|&b| b),
            "a 25% per-request churn rate over a whole storm must fire"
        );
        // The churn draws are appended at the *end* of the stream, so
        // everything before them is untouched by the shape.
        base.shape = WorkloadShape::Default;
        let plain = Schedule::generate(&base);
        assert_eq!(plain.ms, churn.ms, "churn shape leaves m draws alone");
        assert_eq!(plain.events, churn.events, "and crash events too");
        assert!(plain.churn_after.iter().flatten().all(|&b| !b));
    }

    #[test]
    fn deep_chain_forces_m4_and_retargets_events_onto_the_new_sites() {
        let mut opts = TortureOptions::new(11, SystemConfig::Pessimistic);
        opts.shape = WorkloadShape::DeepChain;
        let deep = Schedule::generate(&opts);
        assert_eq!(deep, Schedule::generate(&opts), "same (seed, shape)");
        assert!(deep.ms.iter().flatten().all(|&m| m == 4), "m pinned to 4");
        // The retarget rewrites *points* only — targets, countdowns and
        // follow-ups are the same stream as Default's.
        opts.shape = WorkloadShape::Default;
        let plain = Schedule::generate(&opts);
        assert_eq!(deep.events.len(), plain.events.len());
        for (d, p) in deep.events.iter().zip(&plain.events) {
            assert_eq!(d.target_msp2, p.target_msp2);
            assert_eq!(d.countdown, p.countdown);
            assert_eq!(d.during_recovery, p.during_recovery);
        }
        // Over enough seeds the new sites are actually scheduled, each on
        // the configuration where it is hot.
        let mut any_send_gate = false;
        let mut any_flush_serve = false;
        for seed in 0..64 {
            let mut o = TortureOptions::new(seed, SystemConfig::Pessimistic);
            o.shape = WorkloadShape::DeepChain;
            any_send_gate |= Schedule::generate(&o)
                .events
                .iter()
                .any(|e| e.point == CrashPoint::SendGateIssue);
            let mut o = TortureOptions::new(seed, SystemConfig::LoOptimistic);
            o.shape = WorkloadShape::DeepChain;
            any_flush_serve |= Schedule::generate(&o)
                .events
                .iter()
                .any(|e| e.point == CrashPoint::FlushServe);
        }
        assert!(any_send_gate, "Pessimistic deep-chain hits SendGateIssue");
        assert!(any_flush_serve, "LoOptimistic deep-chain hits FlushServe");
    }

    #[test]
    fn baseline_configs_schedule_no_crash_events() {
        for config in [
            SystemConfig::NoLog,
            SystemConfig::Psession,
            SystemConfig::StateServer,
        ] {
            let s = Schedule::generate(&TortureOptions::new(3, config));
            assert!(s.events.is_empty(), "{}", config.name());
        }
    }

    #[test]
    fn audit_accepts_a_clean_log_and_rejects_garbage_past_the_end() {
        use msp_types::SessionId;
        let disk = Arc::new(MemDisk::new());
        let log = PhysicalLog::open(
            Arc::clone(&disk) as Arc<dyn Disk>,
            DiskModel::zero(),
            FlushPolicy::per_request(),
        )
        .unwrap();
        for i in 0..4u64 {
            log.append(&LogRecord::SessionEnd {
                session: SessionId(i),
            });
        }
        log.flush_all().unwrap();
        log.close();
        let audit = audit_log(&disk, "unit").expect("clean log passes");
        assert_eq!(audit.records, 4);

        // A stray frame-ish byte beyond the durable stream must fail.
        let end = audit.scan_end;
        disk.write(end + 600, &[0xA5, 1, 2, 3]).unwrap();
        let err = audit_log(&disk, "unit").unwrap_err();
        assert!(err.contains("past the scan end"), "{err}");
    }
}
