//! Crash torture: one run loop, two crash plans, and a pure exactly-once
//! check over what the clients recorded.
//!
//! [`run`] drives concurrent clients against `MSP1.ServiceMethod1` while
//! a controller crashes the MSPs by the run's [`CrashPlan`]:
//!
//! * [`CrashPlan::Seeded`] — the crash storm. [`Schedule::generate`] draws
//!   every choice (clients, per-request `m`, lossy links, session churn,
//!   which MSP dies at which [`CrashPoint`] after how many traversals, and
//!   whether its restart is crashed again mid-recovery, §4.5) from one
//!   seed, so a failing storm replays from its seed, which every failure
//!   message names.
//! * [`CrashPlan::Cadence`] — the bounded-log long run: continuous
//!   clients, byte-driven checkpoints, MSP1 killed at a fixed interval,
//!   and a monitor sampling each MSP's on-disk footprint. It adds the
//!   footprint cap, flat MTTR, at least one truncation, an advanced
//!   reclaim floor and no forced-checkpoint convoy to the verdict.
//!
//! Then the clients settle (or the run fails, see
//! [`TortureOptions::settle_timeout`]), recovery and the durability gates
//! drain, and [`check`] judges the recorded [`History`]: every client's
//! session counters count 1, 2, 3… from each churn point; under `Seeded`
//! the acked totals equal the schedule's; SV0/SV1 equal the acked
//! requests and SV2/SV3 their Σm, so no effect is lost or applied twice;
//! no session failed to replay; both gate gauges are 0. Last, each
//! log-based MSP's final log is audited ([`audit_log`],
//! [`audit_striped_log`]): monotone LSNs, every frame decodes, recovery
//! epochs increase, every EOS fences an orphan of its own session behind
//! it, zeros below the reclaim floor and no frame past the scan end.
//!
//! Crash events only target log-based configurations: the §5.2 baselines
//! have no recovery story for a killed MSP, so a storm gives them lossy
//! links and the same check, and a long run refuses them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msp_core::MspClient;
use msp_net::EndpointId;
use msp_types::codec::Encode;
use msp_types::Lsn;
use msp_wal::log::DATA_START;
use msp_wal::{
    CrashPoint, Disk, DiskModel, FaultPlan, FlushPolicy, LogRecord, MemDisk, PhysicalLog,
};

use crate::workload::{reply_counter, request_payload, MSP1};
use crate::world::{SystemConfig, World, WorldOptions};

/// Traffic shape a storm drives through the workload. Every shape is
/// judged the same way — it only changes *where* the pressure lands.
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
#[derive(Debug, Clone, PartialEq)]
pub struct TortureOptions {
    /// The seed every schedule decision derives from.
    pub seed: u64,
    pub config: SystemConfig,
    pub plan: CrashPlan,
    /// How long the clients get to finish once the crash plan has run.
    /// When it runs out, one rescue pass restarts any MSP that is down
    /// and allows up to [`DRAIN_WAIT`] more. When that runs out too, or
    /// as soon as no client has had a reply for [`DRAIN_WAIT`] while one
    /// still has work, every client is cut off the network (its pending
    /// call returns `Shutdown`) and the run fails with the seed, each
    /// client's acked count and the names of the process's live threads.
    pub settle_timeout: Duration,
}

impl TortureOptions {
    /// `plan` with its settle timeout: 120 s for a storm, 240 s for a
    /// long run.
    pub fn new(seed: u64, config: SystemConfig, plan: CrashPlan) -> TortureOptions {
        let secs = match plan {
            CrashPlan::Seeded(_) => 120,
            CrashPlan::Cadence(_) => 240,
        };
        TortureOptions {
            seed,
            config,
            plan,
            settle_timeout: Duration::from_secs(secs),
        }
    }

    /// The run's shape in reports: the storm's [`WorkloadShape`], or
    /// `cadence` / `cadence-striped`.
    pub fn shape_name(&self) -> &'static str {
        match &self.plan {
            CrashPlan::Seeded(storm) => storm.shape.name(),
            CrashPlan::Cadence(c) if c.striped => "cadence-striped",
            CrashPlan::Cadence(_) => "cadence",
        }
    }
}

/// How a run crashes its MSPs.
#[derive(Debug, Clone, PartialEq)]
pub enum CrashPlan {
    /// The crash storm: a seed-generated [`Schedule`] of crash events
    /// against fixed per-client request lists.
    Seeded(Storm),
    /// The bounded-log long run: fixed-interval MSP1 kills against
    /// continuous clients.
    Cadence(Cadence),
}

/// The [`CrashPlan::Seeded`] parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Storm {
    /// Traffic shape; part of the schedule's identity (a seed reproduces
    /// a storm only together with its shape).
    pub shape: WorkloadShape,
    /// Requests each client issues, one after another.
    pub requests_per_client: u64,
    /// Crash events the controller walks (log-based configs only).
    pub crash_events: usize,
}

impl Default for Storm {
    fn default() -> Storm {
        Storm {
            shape: WorkloadShape::Default,
            requests_per_client: 10,
            crash_events: 3,
        }
    }
}

/// The [`CrashPlan::Cadence`] parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Cadence {
    /// Run the scale-out shape: WAL striped over two disks, runtime
    /// sharded two ways (the merged-gsn truncation path).
    pub striped: bool,
    /// Concurrent clients. Each issues requests until the crash sequence
    /// has finished *and* it has issued at least
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
    /// long run exists to exercise.
    pub checkpoint_interval_bytes: u64,
}

impl Default for Cadence {
    fn default() -> Cadence {
        Cadence {
            striped: false,
            clients: 6,
            min_requests_per_client: 100,
            crashes: 8,
            crash_interval: Duration::from_millis(200),
            footprint_cap: 4 << 20,
            checkpoint_interval_bytes: 256 << 10,
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
    /// Derive the full schedule for `seed`. The sampling order is
    /// part of the reproducibility contract — append new decisions at
    /// the end, never in the middle.
    pub fn generate(seed: u64, config: SystemConfig, storm: &Storm) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed);
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
                (0..storm.requests_per_client)
                    .map(|_| match storm.shape {
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
        if config.is_log_based() {
            for e in 0..storm.crash_events {
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
            storm.shape,
            WorkloadShape::SessionChurn | WorkloadShape::StripedChurn
        ) {
            (0..clients)
                .map(|_| {
                    (0..storm.requests_per_client)
                        .map(|_| rng.random_bool(0.25))
                        .collect()
                })
                .collect()
        } else {
            vec![vec![false; storm.requests_per_client as usize]; clients as usize]
        };
        // Appended after the churn draws (same append-only contract):
        // under DeepChain, retarget ~half the crash events onto the PR-6
        // sites — but only where they are actually hot, or the armed
        // plan would never fire: pipelined sends gate on MSP1 across the
        // pessimistic boundary; flush serving runs on MSP2 for
        // LoOptimistic reply gates.
        if storm.shape == WorkloadShape::DeepChain {
            for ev in &mut events {
                if !rng.random_bool(0.5) {
                    continue;
                }
                match config {
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
            seed,
            shape: storm.shape,
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
    /// [`TortureOptions::shape_name`].
    pub shape: &'static str,
    pub clients: u64,
    /// Requests acked across all clients, and their Σm.
    pub requests: u64,
    pub msp2_calls: u64,
    /// MSP kills: crash points that fired (`Seeded`) or MSP1 restarts
    /// (`Cadence`).
    pub crashes: u64,
    /// `Seeded`: the crash points that fired, in order, with their target.
    pub fired: Vec<(&'static str, CrashPoint)>,
    /// Crashes that hit a *prior recovery* (the §4.5 dimension).
    pub recovery_crashes: u64,
    /// Scheduled during-recovery follow-ups (≥1 on log-based storms).
    pub scheduled_recovery_events: u64,
    /// `Cadence`: per-crash repair time, kill → `recovery_complete`.
    pub mttr: Vec<Duration>,
    /// `Cadence`: the highest per-MSP footprint any sample saw.
    pub peak_footprint: u64,
    /// Device truncations, bytes they recycled, and byte-growth-triggered
    /// checkpoints, summed over the final incarnations of both MSPs (each
    /// rebuild starts fresh counters).
    pub truncations: u64,
    pub bytes_reclaimed: u64,
    pub checkpoints_scheduled: u64,
    /// Post-mortem audits (MSP1 then MSP2) on log-based configs.
    pub audits: Vec<LogAudit>,
}

impl TortureReport {
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

impl std::fmt::Display for TortureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={:<4} config={:<12} shape={:<13} clients={:<2} requests={:<4} m2_calls={:<4} \
             crashes={} (during-recovery {}) fired=[{}] audit=[{}]",
            self.seed,
            self.config.name(),
            self.shape,
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
        if let Some((first, last)) = self.mttr_quartile_means() {
            write!(
                f,
                " mttr_q1={:.0}ms mttr_q4={:.0}ms peak_footprint={}B",
                first * 1e3,
                last * 1e3,
                self.peak_footprint
            )?;
        }
        if self.truncations > 0 {
            write!(
                f,
                " trunc={} reclaimed={}B byte_ckpts={}",
                self.truncations, self.bytes_reclaimed, self.checkpoints_scheduled
            )?;
        }
        Ok(())
    }
}

/// `TORTURE_TRACE` is set: narrate the run on stderr.
fn tracing() -> bool {
    std::env::var_os("TORTURE_TRACE").is_some()
}

macro_rules! trace {
    ($($arg:tt)*) => {
        if tracing() {
            eprintln!("[trace] {}", format_args!($($arg)*));
        }
    };
}

/// How long the controller waits for an armed plan to fire before giving
/// up on the event (traffic may have drained first).
const FIRE_WAIT: Duration = Duration::from_secs(5);
/// How long a during-recovery follow-up gets to hit the restart.
const RECOVERY_FIRE_WAIT: Duration = Duration::from_secs(5);
/// Bound on every recovery and gate drain and on the settle's extension
/// after its rescue pass; also the longest the clients may go without a
/// reply while one still has work.
const DRAIN_WAIT: Duration = Duration::from_secs(30);
/// Client `c` of a run is network endpoint `Client(CLIENT_BASE + c)`.
const CLIENT_BASE: u64 = 10_000;

/// What one client saw of one acked request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// `ServiceMethod2` calls the request asked for.
    pub m: u8,
    /// The session counter `k` the reply carried.
    pub counter: u64,
    /// The client ended its session after this request.
    pub ended_session: bool,
}

/// One client's acked requests in order, and the error that stopped it
/// early, if one did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientHistory {
    pub acks: Vec<Ack>,
    pub error: Option<String>,
}

/// One MSP once the run settled and its recovery drained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MspEnd {
    /// Sessions the final incarnation could not replay from the log (it
    /// recovered with no fault armed), and the first: `session N: error`.
    pub replay_failures: u64,
    pub first_replay_failure: Option<String>,
    /// Durability-gate gauges: parked replies and parked outgoing sends
    /// that neither left nor were discarded.
    pub gates_pending: u64,
    pub send_gates_pending: u64,
}

/// Everything [`check`] judges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    pub clients: Vec<ClientHistory>,
    /// SV0, SV1 (MSP1) and SV2, SV3 (MSP2).
    pub shared: [u64; 4],
    /// MSP1 then MSP2.
    pub msps: [MspEnd; 2],
    /// Under [`CrashPlan::Seeded`], the schedule's total requests and Σm.
    pub scheduled: Option<(u64, u64)>,
}

impl History {
    /// Acked requests and their Σm.
    pub fn acked(&self) -> (u64, u64) {
        let acks = self.clients.iter().flat_map(|c| &c.acks);
        acks.fold((0, 0), |(n, calls), a| (n + 1, calls + u64::from(a.m)))
    }

    /// What SV0–SV3 read if every acked effect applied exactly once.
    fn want_shared(&self) -> [u64; 4] {
        let (requests, calls) = self.acked();
        [requests, requests, calls, calls]
    }
}

const MSPS: [&str; 2] = ["MSP1", "MSP2"];
const SHARED_VARS: [&str; 4] = ["SV0", "SV1", "SV2", "SV3"];

/// The exactly-once check over a recorded history: `Err` names the first
/// rule it breaks (the module doc lists them).
pub fn check(h: &History) -> Result<(), String> {
    for (c, client) in h.clients.iter().enumerate() {
        // The session counter is per-session state, so the ledger
        // restarts at every churn point.
        let mut want = 0;
        for (i, ack) in client.acks.iter().enumerate() {
            want += 1;
            if ack.counter != want {
                let what = if ack.counter < want {
                    "duplicated"
                } else {
                    "lost"
                };
                return Err(format!(
                    "client {c} request {} saw session counter {}, want {want} \
                     ({what} execution)",
                    i + 1,
                    ack.counter
                ));
            }
            if ack.ended_session {
                want = 0;
            }
        }
        if let Some(e) = &client.error {
            return Err(format!("client {c} {e}"));
        }
    }
    let acked = h.acked();
    if let Some(scheduled) = h.scheduled.filter(|&s| s != acked) {
        return Err(format!(
            "clients acked (requests, ServiceMethod2 calls) {acked:?}, the schedule \
             says {scheduled:?}"
        ));
    }
    for (i, (got, want)) in h.shared.into_iter().zip(h.want_shared()).enumerate() {
        if got != want {
            let what = if got > want {
                "an effect applied twice, or one no client acked"
            } else {
                "an acked effect lost"
            };
            return Err(format!(
                "{} {} counter is {got}, want {want} (exactly-once violated on shared \
                 state: {what})",
                MSPS[i / 2],
                SHARED_VARS[i]
            ));
        }
    }
    for (who, m) in MSPS.iter().zip(&h.msps) {
        if m.replay_failures > 0 {
            return Err(format!(
                "{who}: {} session(s) could not be replayed from the log by a clean recovery \
                 (left needs_recovery); first: {}",
                m.replay_failures,
                m.first_replay_failure.as_deref().unwrap_or("?")
            ));
        }
        if m.gates_pending + m.send_gates_pending > 0 {
            return Err(format!(
                "{who} durability gates did not drain: gates_pending={} send_gates_pending={}",
                m.gates_pending, m.send_gates_pending
            ));
        }
    }
    Ok(())
}

/// A failed run: the verdict, which always names the seed and the
/// configuration, and the crashes injected before it was reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TortureFailure {
    pub message: String,
    /// As [`TortureReport::crashes`] and
    /// [`TortureReport::recovery_crashes`] count them.
    pub crashes: u64,
    pub recovery_crashes: u64,
}

impl std::fmt::Display for TortureFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// The crashes a controller injected.
#[derive(Default)]
struct Crashes {
    fired: Vec<(&'static str, CrashPoint)>,
    recovery: u64,
    mttr: Vec<Duration>,
}

/// Run one torture run.
pub fn run(opts: &TortureOptions) -> Result<TortureReport, TortureFailure> {
    run_in(opts, World::start(world_options(opts)))
}

/// The world a run drives.
fn world_options(opts: &TortureOptions) -> WorldOptions {
    let (striped, checkpoint_interval_bytes) = match &opts.plan {
        // A storm's checkpoints stay timer-driven.
        CrashPlan::Seeded(s) => (s.shape == WorkloadShape::StripedChurn, 0),
        CrashPlan::Cadence(c) => (c.striped, c.checkpoint_interval_bytes),
    };
    WorldOptions {
        time_scale: 0.0,
        // Small threshold so session checkpoints (and hence the
        // CheckpointWrite site) are hot even in a short storm.
        session_ckpt_threshold: 4096,
        workers: 4,
        seed: opts.seed,
        db_txn_overhead: Duration::ZERO,
        // The scale-out configuration: WAL over two stripes, runtime
        // over two shards.
        log_stripes: if striped { 2 } else { 0 },
        runtime_shards: if striped { 2 } else { 1 },
        checkpoint_interval_bytes,
        ..WorldOptions::new(opts.config)
    }
}

/// [`run`] on a world already started with [`world_options`].
fn run_in(opts: &TortureOptions, world: World) -> Result<TortureReport, TortureFailure> {
    let mut crashes = Crashes::default();
    drive(opts, world, &mut crashes).map_err(|message| TortureFailure {
        message,
        crashes: (crashes.fired.len() + crashes.mttr.len()) as u64,
        recovery_crashes: crashes.recovery,
    })
}

/// [`run_in`]'s body; `crashes` collects what the controller injected.
fn drive(
    opts: &TortureOptions,
    world: World,
    crashes: &mut Crashes,
) -> Result<TortureReport, String> {
    let tag = format!(
        "torture seed={} config={} shape={}",
        opts.seed,
        opts.config.name(),
        opts.shape_name()
    );
    let (sched, cadence, clients, min_requests) = match &opts.plan {
        CrashPlan::Seeded(storm) => {
            let sched = Schedule::generate(opts.seed, opts.config, storm);
            let clients = sched.clients;
            (Some(sched), None, clients, 0)
        }
        CrashPlan::Cadence(_) if !opts.config.is_log_based() => {
            world.shutdown();
            return Err(format!("{tag}: the configuration has no log to bound"));
        }
        CrashPlan::Cadence(c) => (None, Some(c), c.clients, c.min_requests_per_client),
    };

    // Every client registers before any thread starts, so a failed settle
    // can cut them all off the network.
    let conns: Vec<_> = (0..clients)
        .map(
            |c| match sched.as_ref().and_then(|s| s.link_faults[c as usize]) {
                Some((drop_prob, dup_prob)) => {
                    world.faulty_client(CLIENT_BASE + c, drop_prob, dup_prob)
                }
                None => world.client(CLIENT_BASE + c),
            },
        )
        .collect();
    let progress = Progress {
        acked: (0..clients).map(|_| AtomicU64::new(0)).collect(),
        ..Progress::default()
    };
    let p = &progress;

    let (histories, controlled) = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let sched = sched.as_ref();
                s.spawn(move || client_loop(client, c, sched, min_requests, p))
            })
            .collect();
        if cadence.is_some() {
            let world = &world;
            s.spawn(move || {
                while !p.all_done() {
                    for slot in [&world.msp1, &world.msp2] {
                        p.peak.fetch_max(slot.footprint(), Ordering::SeqCst);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        if let Some(sched) = &sched {
            storm_crashes(&world, sched, p, crashes);
        }
        let controlled = cadence.map_or(Ok(()), |c| cadence_crashes(&world, c, &tag, crashes));
        p.stop.store(true, Ordering::SeqCst);
        let settled = settle(&world, opts, &tag, p);
        let histories: Vec<ClientHistory> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (settled.map(|()| histories), controlled)
    });
    // A failed settle drops the world without the shutdown, which would
    // join wedged MSP threads. A controller failure comes first: it is
    // usually why the clients stalled.
    let histories = match (controlled, histories) {
        (Err(c), Err(settle)) => Err(format!("{c}; then {settle}")),
        (c, h) => c.and(h),
    }?;

    // Drain any recovery still in flight and the release stage, then
    // record what the MSPs hold; the final incarnations' counters are read
    // before the shutdown drops the handles.
    let mut msps: [MspEnd; 2] = Default::default();
    let (mut truncations, mut bytes_reclaimed, mut checkpoints_scheduled) = (0, 0, 0);
    for (end, (who, slot)) in msps
        .iter_mut()
        .zip(MSPS.iter().zip([&world.msp1, &world.msp2]))
    {
        let t0 = Instant::now();
        let st = loop {
            let st = slot
                .stats()
                .ok_or(format!("{tag}: {who} down after the run settled"))?;
            let drained = st.gates_pending == 0 && st.send_gates_pending == 0;
            if (slot.recovery_complete() && drained) || t0.elapsed() > DRAIN_WAIT {
                break st;
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        if !slot.recovery_complete() {
            return Err(format!(
                "{tag}: {who} recovery did not drain within {DRAIN_WAIT:?}"
            ));
        }
        *end = MspEnd {
            replay_failures: st.recovery_pool_failures,
            first_replay_failure: slot
                .first_replay_failure()
                .map(|(session, err)| format!("session {}: {err}", session.0)),
            gates_pending: st.gates_pending,
            send_gates_pending: st.send_gates_pending,
        };
        p.peak.fetch_max(slot.footprint(), Ordering::SeqCst);
        checkpoints_scheduled += st.checkpoints_scheduled;
        if let Some(ls) = slot.log_stats() {
            truncations += ls.log_truncations;
            bytes_reclaimed += ls.bytes_reclaimed;
            trace!(
                "{who} trunc={:?} floor={:?} footprint={}",
                (ls.log_truncations, ls.bytes_reclaimed, ls.reclaim_floor_lsn),
                slot.reclaim_floor(),
                slot.footprint(),
            );
        }
        trace!(
            "{who} recovery pool_sessions={} pool_failures={} retained_bytes={}",
            st.recovery_pool_sessions,
            st.recovery_pool_failures,
            st.recovery_retained_bytes,
        );
        trace!(
            "{who} forced_ckpt batches={} sessions={} skipped_busy={}",
            st.forced_ckpt_batches,
            st.forced_ckpt_sessions,
            st.forced_ckpt_skipped_busy,
        );
        // No convoy: one tick forces at most its share of the sessions,
        // however they were (re-)created.
        let share =
            (slot.session_count() as u64).div_ceil(u64::from(slot.cfg.logging.force_ckpt_after));
        if cadence.is_some() && st.forced_ckpt_sessions > st.forced_ckpt_batches * share {
            return Err(format!(
                "{tag}: {who} forced {} session checkpoints in {} batches — more than \
                 {share} per MSP checkpoint",
                st.forced_ckpt_sessions, st.forced_ckpt_batches
            ));
        }
    }
    let shared: Vec<u64> = [&world.msp1, &world.msp2]
        .iter()
        .flat_map(|slot| slot.dump_shared())
        .map(|v| le_counter(&v))
        .collect();
    let history = History {
        clients: histories,
        shared: shared.try_into().map_err(|v: Vec<u64>| {
            format!("{tag}: the MSPs hold {} shared vars, want 4", v.len())
        })?,
        msps,
        scheduled: sched
            .as_ref()
            .map(|s| (s.total_requests(), s.total_msp2_calls())),
    };
    if let Err(e) = check(&history) {
        if tracing() {
            for (i, (got, want)) in history.shared.iter().zip(history.want_shared()).enumerate() {
                if *got != want {
                    let slot = if i < 2 { &world.msp1 } else { &world.msp2 };
                    dump_var_history(&slot.disks(), MSPS[i / 2], (i % 2) as u32);
                }
            }
        }
        return Err(format!("{tag}: {e}"));
    }

    // Post-mortem: shut the world down cleanly, then re-open the final
    // disks and audit the log structure.
    let disks = opts
        .config
        .is_log_based()
        .then(|| [("MSP1", world.msp1.disks()), ("MSP2", world.msp2.disks())]);
    world.shutdown();
    let mut audits = Vec::new();
    for (who, stripe_disks) in disks.into_iter().flatten() {
        let wtag = format!("{tag}: {who}");
        audits.push(if stripe_disks.len() == 1 {
            audit_log(&stripe_disks[0], &wtag)?
        } else {
            audit_striped_log(&stripe_disks, &wtag)?
        });
    }

    let (requests, msp2_calls) = history.acked();
    let report = TortureReport {
        seed: opts.seed,
        config: opts.config,
        shape: opts.shape_name(),
        clients,
        requests,
        msp2_calls,
        crashes: (crashes.fired.len() + crashes.mttr.len()) as u64,
        fired: crashes.fired.clone(),
        recovery_crashes: crashes.recovery,
        scheduled_recovery_events: sched.map_or(0, |s| {
            s.events
                .iter()
                .filter(|e| e.during_recovery.is_some())
                .count() as u64
        }),
        mttr: crashes.mttr.clone(),
        peak_footprint: p.peak.load(Ordering::SeqCst),
        truncations,
        bytes_reclaimed,
        checkpoints_scheduled,
        audits,
    };
    if let Some(c) = cadence {
        bounded_log_verdict(&report, c).map_err(|e| format!("{tag}: {e}"))?;
    }
    Ok(report)
}

/// What the clients, the controller, the footprint monitor and the
/// settle share.
#[derive(Default)]
struct Progress {
    /// Per client: requests acked so far.
    acked: Vec<AtomicU64>,
    /// Clients that have finished.
    done: AtomicU64,
    /// Set once the controller is through: `Cadence` clients then stop
    /// after their minimum.
    stop: AtomicBool,
    /// `Cadence`: the highest per-MSP footprint sampled.
    peak: AtomicU64,
}

impl Progress {
    fn all_done(&self) -> bool {
        self.done.load(Ordering::SeqCst) == self.acked.len() as u64
    }

    fn acked(&self) -> Vec<u64> {
        self.acked
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .collect()
    }
}

/// Client `c`: issue requests until its plan runs out, recording each
/// ack. A storm client works through its schedule; a long-run client
/// alternates `m` between 1 and 2 (so the totals are pure arithmetic over
/// the acks) until the controller is through and it has its minimum.
fn client_loop(
    mut client: MspClient,
    c: usize,
    sched: Option<&Schedule>,
    min_requests: u64,
    p: &Progress,
) -> ClientHistory {
    let mut acks = Vec::new();
    let mut issue = || -> Result<(), String> {
        loop {
            let i = acks.len();
            let next = match sched {
                Some(s) => s.ms[c].get(i).map(|&m| (m, s.churn_after[c][i])),
                None => (!p.stop.load(Ordering::SeqCst) || (i as u64) < min_requests)
                    .then_some((1 + ((c + i) % 2) as u8, false)),
            };
            let Some((m, ended_session)) = next else {
                return Ok(());
            };
            let reply = client
                .call(MSP1, "ServiceMethod1", &request_payload(m))
                .map_err(|e| format!("request {} failed: {e}", i + 1))?;
            let counter = reply_counter(&reply);
            acks.push(Ack {
                m,
                counter,
                ended_session,
            });
            p.acked[c].fetch_add(1, Ordering::SeqCst);
            if ended_session {
                client
                    .end_session(MSP1)
                    .map_err(|e| format!("end_session after request {} failed: {e}", i + 1))?;
            }
        }
    };
    let error = issue().err();
    p.done.fetch_add(1, Ordering::SeqCst);
    ClientHistory { acks, error }
}

/// Wait for every client to finish, as [`TortureOptions::settle_timeout`]
/// describes. On failure every client is cut off the network, so each
/// pending `call` returns `Shutdown` and the caller's scope can join.
fn settle(world: &World, opts: &TortureOptions, tag: &str, p: &Progress) -> Result<(), String> {
    let mut deadline = Instant::now() + opts.settle_timeout;
    let mut rescued = false;
    let (mut seen, mut moved) = (p.acked(), Instant::now());
    while !p.all_done() {
        std::thread::sleep(Duration::from_millis(50));
        trace!(
            "settle: acked={:?} done={:?}/{}",
            p.acked(),
            p.done,
            p.acked.len()
        );
        for (who, slot) in MSPS.iter().zip([&world.msp1, &world.msp2]) {
            if let Some(st) = slot.stats().filter(|_| tracing()) {
                trace!(
                    "  {who} req={} replayed={} busy={} dup={} orphan_drop={} orphan_rec={} \
                     rec_complete={}",
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
        let now = Instant::now();
        if p.acked() != seen {
            (seen, moved) = (p.acked(), now);
        }
        let why = if now - moved >= DRAIN_WAIT {
            format!("no client had a reply for {DRAIN_WAIT:?}")
        } else if now < deadline {
            continue;
        } else if !rescued {
            // One rescue pass before declaring the run wedged.
            rescued = true;
            for slot in [&world.msp1, &world.msp2] {
                slot.set_fault_plan(None);
                if !slot.is_up() {
                    let _ = slot.restart();
                }
            }
            deadline = Instant::now() + opts.settle_timeout.min(DRAIN_WAIT);
            continue;
        } else {
            format!(
                "the settle timeout {:?} ran out after the rescue pass",
                opts.settle_timeout
            )
        };
        for c in 0..p.acked.len() as u64 {
            world.net.unregister(EndpointId::Client(CLIENT_BASE + c));
        }
        return Err(format!(
            "{tag}: clients did not settle: {why}; acked per client {seen:?}; live threads [{}]",
            live_threads()
        ));
    }
    Ok(())
}

/// The process's live threads by name (`name×count` for repeats), from
/// `/proc/self/task/*/comm`; empty where there is no `/proc`.
fn live_threads() -> String {
    let mut names = BTreeMap::<String, usize>::new();
    for task in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        if let Ok(name) = std::fs::read_to_string(task.path().join("comm")) {
            *names.entry(name.trim().to_string()).or_default() += 1;
        }
    }
    let named = names.iter().map(|(name, n)| match n {
        1 => name.clone(),
        n => format!("{name}×{n}"),
    });
    named.collect::<Vec<_>>().join(" ")
}

/// The `Seeded` controller: walk the schedule's crash events while the
/// clients run.
fn storm_crashes(world: &World, sched: &Schedule, p: &Progress, crashes: &mut Crashes) {
    for ev in &sched.events {
        trace!("event {ev:?} done={:?}/{}", p.done, sched.clients);
        if p.all_done() {
            continue;
        }
        let (who, slot) = if ev.target_msp2 {
            ("MSP2", &world.msp2)
        } else {
            ("MSP1", &world.msp1)
        };
        let plan = Arc::new(FaultPlan::new());
        plan.arm(ev.point, ev.countdown);
        let (ftx, frx) = crossbeam_channel::bounded(1);
        plan.set_notify(ftx);
        slot.set_fault_plan(Some(Arc::clone(&plan)));

        let deadline = Instant::now() + FIRE_WAIT;
        let fired_point = loop {
            if let Ok(pt) = frx.recv_timeout(Duration::from_millis(20)) {
                break Some(pt);
            }
            if p.all_done() || Instant::now() >= deadline {
                // Disarm, then re-check: a fire can race the decision to
                // give up.
                plan.disarm_all();
                break plan.fired();
            }
        };
        let Some(pt) = fired_point else {
            slot.set_fault_plan(None);
            continue;
        };
        crashes.fired.push((who, pt));
        trace!("fired {who} {pt:?}");

        // Kill first, then arm the follow-up: with the handle gone the
        // plan is only stored for the rebuild, so it cannot fire on the
        // dead log's stragglers — its first chance is the restart, i.e.
        // genuinely *during recovery*.
        slot.kill();
        let follow = ev.during_recovery.map(|(fpoint, fcount)| {
            let pb = Arc::new(FaultPlan::new());
            pb.arm(fpoint, fcount);
            let (btx, brx) = crossbeam_channel::bounded(1);
            pb.set_notify(btx);
            (pb, brx)
        });
        slot.set_fault_plan(follow.as_ref().map(|(pb, _)| Arc::clone(pb)));
        let _ = slot.restart();
        trace!("restarted {who}");
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
                crashes.recovery += 1;
                crashes.fired.push((who, pt2));
                trace!("recovery-crash {who} {pt2:?}");
                slot.kill();
                let _ = slot.restart();
                trace!("re-restarted {who}");
            }
        }
    }
}

/// The `Cadence` controller: kill and restart MSP1 every
/// `crash_interval`, timing each repair.
fn cadence_crashes(
    world: &World,
    cadence: &Cadence,
    tag: &str,
    crashes: &mut Crashes,
) -> Result<(), String> {
    for k in 0..cadence.crashes {
        std::thread::sleep(cadence.crash_interval);
        let msp1 = &world.msp1;
        trace!(
            "long-run crash {k}: MSP1 floor={:?} footprint={}",
            msp1.reclaim_floor(),
            msp1.footprint()
        );
        msp1.kill();
        let t0 = Instant::now();
        let _ = msp1.restart();
        let deadline = Instant::now() + DRAIN_WAIT;
        while !msp1.recovery_complete() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
        crashes.mttr.push(t0.elapsed());
        trace!("long-run crash {k}: repaired in {:?}", t0.elapsed());
        if !msp1.recovery_complete() {
            return Err(format!(
                "{tag}: crash {k}: MSP1 recovery did not complete within {DRAIN_WAIT:?}"
            ));
        }
    }
    Ok(())
}

/// The `Cadence` plan's bounded-log assertions, over a report that has
/// passed [`check`] and the audits.
fn bounded_log_verdict(report: &TortureReport, cadence: &Cadence) -> Result<(), String> {
    if report.truncations == 0 {
        return Err(format!(
            "the log was never truncated — the byte-driven checkpoint loop (interval {}B) \
             did not run",
            cadence.checkpoint_interval_bytes
        ));
    }
    if !report.audits.iter().any(|a| a.reclaim_floor > DATA_START) {
        return Err(format!(
            "no audited log's reclaim floor advanced past DATA_START despite {} truncations",
            report.truncations
        ));
    }
    if cadence.footprint_cap > 0 && report.peak_footprint > cadence.footprint_cap {
        return Err(format!(
            "peak per-MSP footprint {}B exceeds the cap {}B — the log is not bounded",
            report.peak_footprint, cadence.footprint_cap
        ));
    }
    let Some((first, last)) = report.mttr_quartile_means() else {
        return Err(format!(
            "only {} MTTR samples (need ≥ 4 for the flatness check) — raise `crashes`",
            report.mttr.len()
        ));
    };
    if last > first * 1.5 {
        return Err(format!(
            "MTTR is not flat: last-quartile mean {:.1}ms > 1.5 × first-quartile mean \
             {:.1}ms — recovery work is growing with run length",
            last * 1e3,
            first * 1e3
        ));
    }
    Ok(())
}

fn le_counter(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8-byte counter"))
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

    fn schedule(seed: u64, config: SystemConfig, shape: WorkloadShape) -> Schedule {
        let storm = Storm {
            shape,
            ..Storm::default()
        };
        Schedule::generate(seed, config, &storm)
    }

    #[test]
    fn schedules_are_deterministic_and_seed_sensitive() {
        let a = schedule(11, SystemConfig::LoOptimistic, WorkloadShape::Default);
        let b = schedule(11, SystemConfig::LoOptimistic, WorkloadShape::Default);
        assert_eq!(a, b, "same seed, same schedule");
        assert!((8..=32).contains(&a.clients));
        assert!(a.ms.iter().flatten().all(|&m| (1..=4).contains(&m)));
        assert_eq!(a.events.len(), Storm::default().crash_events);
        assert!(
            a.events[0].during_recovery.is_some(),
            "first event always crashes the recovery itself"
        );
        let c = schedule(12, SystemConfig::LoOptimistic, WorkloadShape::Default);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn shapes_bias_the_schedule_without_breaking_determinism() {
        let config = SystemConfig::LoOptimistic;
        let heavy = schedule(11, config, WorkloadShape::SharedHeavy);
        assert_eq!(
            heavy,
            schedule(11, config, WorkloadShape::SharedHeavy),
            "same (seed, shape)"
        );
        assert!(
            heavy.ms.iter().flatten().all(|&m| (3..=4).contains(&m)),
            "shared-heavy draws m from 3..=4 only"
        );
        assert!(
            heavy.churn_after.iter().flatten().all(|&b| !b),
            "shared-heavy schedules no churn"
        );

        let churn = schedule(11, config, WorkloadShape::SessionChurn);
        assert_eq!(
            churn,
            schedule(11, config, WorkloadShape::SessionChurn),
            "same (seed, shape)"
        );
        assert!(
            churn.churn_after.iter().flatten().any(|&b| b),
            "a 25% per-request churn rate over a whole storm must fire"
        );
        // The churn draws are appended at the *end* of the stream, so
        // everything before them is untouched by the shape.
        let plain = schedule(11, config, WorkloadShape::Default);
        assert_eq!(plain.ms, churn.ms, "churn shape leaves m draws alone");
        assert_eq!(plain.events, churn.events, "and crash events too");
        assert!(plain.churn_after.iter().flatten().all(|&b| !b));
    }

    #[test]
    fn deep_chain_forces_m4_and_retargets_events_onto_the_new_sites() {
        let deep = schedule(11, SystemConfig::Pessimistic, WorkloadShape::DeepChain);
        assert_eq!(
            deep,
            schedule(11, SystemConfig::Pessimistic, WorkloadShape::DeepChain),
            "same (seed, shape)"
        );
        assert!(deep.ms.iter().flatten().all(|&m| m == 4), "m pinned to 4");
        // The retarget rewrites *points* only — targets, countdowns and
        // follow-ups are the same stream as Default's.
        let plain = schedule(11, SystemConfig::Pessimistic, WorkloadShape::Default);
        assert_eq!(deep.events.len(), plain.events.len());
        for (d, p) in deep.events.iter().zip(&plain.events) {
            assert_eq!(d.target_msp2, p.target_msp2);
            assert_eq!(d.countdown, p.countdown);
            assert_eq!(d.during_recovery, p.during_recovery);
        }
        // Over enough seeds the new sites are actually scheduled, each on
        // the configuration where it is hot.
        let hits = |config, point| {
            (0..64).any(|seed| {
                schedule(seed, config, WorkloadShape::DeepChain)
                    .events
                    .iter()
                    .any(|e| e.point == point)
            })
        };
        assert!(
            hits(SystemConfig::Pessimistic, CrashPoint::SendGateIssue),
            "Pessimistic deep-chain hits SendGateIssue"
        );
        assert!(
            hits(SystemConfig::LoOptimistic, CrashPoint::FlushServe),
            "LoOptimistic deep-chain hits FlushServe"
        );
    }

    #[test]
    fn baseline_configs_schedule_no_crash_events() {
        for config in [
            SystemConfig::NoLog,
            SystemConfig::Psession,
            SystemConfig::StateServer,
        ] {
            let s = schedule(3, config, WorkloadShape::Default);
            assert!(s.events.is_empty(), "{}", config.name());
        }
    }

    /// Two clients, the first churning after its second request: 5
    /// requests, Σm = 11.
    fn clean_history() -> History {
        let ack = |m, counter, ended_session| Ack {
            m,
            counter,
            ended_session,
        };
        History {
            clients: vec![
                ClientHistory {
                    acks: vec![ack(1, 1, false), ack(2, 2, true), ack(3, 1, false)],
                    error: None,
                },
                ClientHistory {
                    acks: vec![ack(4, 1, false), ack(1, 2, false)],
                    error: None,
                },
            ],
            shared: [5, 5, 11, 11],
            msps: Default::default(),
            scheduled: Some((5, 11)),
        }
    }

    #[test]
    fn check_passes_a_clean_history_and_names_each_violation() {
        assert_eq!(check(&clean_history()), Ok(()));
        type Mutation = (&'static str, fn(&mut History));
        let mutations: [Mutation; 6] = [
            ("counter 1, want 2 (duplicated execution)", |h| {
                h.clients[1].acks[1].counter = 1
            }),
            ("counter 2, want 1 (lost execution)", |h| {
                h.clients[0].acks[2].counter = 2
            }),
            ("SV2 counter is 12, want 11", |h| h.shared[2] += 1),
            ("SV0 counter is 4, want 5", |h| h.shared[0] -= 1),
            ("could not be replayed", |h| h.msps[1].replay_failures = 1),
            ("MSP1 durability gates did not drain", |h| {
                h.msps[0].send_gates_pending = 1
            }),
        ];
        let mut seen = Vec::new();
        for (want, mutate) in mutations {
            let mut h = clean_history();
            mutate(&mut h);
            let err = check(&h).expect_err(want);
            assert!(err.contains(want), "want {want:?}, got {err:?}");
            assert!(!seen.contains(&err), "two mutations share {err:?}");
            seen.push(err);
        }
    }

    /// MSP1 is killed before the clients start and, once the settle's
    /// rescue pass restarts it, stays cut off from them: the run must fail
    /// with its seed instead of hanging.
    #[test]
    fn a_stalled_run_fails_with_its_seed_instead_of_hanging() {
        let storm = Storm {
            requests_per_client: 3,
            crash_events: 0,
            ..Storm::default()
        };
        let mut opts = TortureOptions::new(7, SystemConfig::LoOptimistic, CrashPlan::Seeded(storm));
        opts.settle_timeout = Duration::from_secs(2);
        let world = World::start(world_options(&opts));
        world.msp1.kill();
        for c in 0..32 {
            world.net.set_partitioned(
                EndpointId::Client(CLIENT_BASE + c),
                EndpointId::Msp(MSP1),
                true,
            );
        }
        let t0 = Instant::now();
        let err = run_in(&opts, world).expect_err("a stalled run fails");
        assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
        assert!(err.message.contains("seed=7"), "{err}");
        assert!(err.message.contains("did not settle"), "{err}");
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
