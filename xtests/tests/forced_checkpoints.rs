//! The forced-checkpoint scheduler (§3.4): paced, oldest first, batched
//! into the MSP checkpoint tick.
//!
//! * **Selection** — `pick_forced_checkpoints` as a pure function: a
//!   tick never forces more than its share, nobody waits longer than
//!   `force_ckpt_after` + 1 ticks, a busy session stays first in line, a
//!   lone session keeps exactly the old cadence (proptest).
//! * **Log** — 64 sessions opened in one round never reach the log as one
//!   burst: between two consecutive `MspCheckpoint` records there is at
//!   most one tick's share of `SessionCheckpoint` records, before a crash
//!   and after the recovery that re-creates every session at once.
//! * **Recovery** — a session the crash recovery re-created is never
//!   checkpointed before its replay has run, and a crash in the middle of
//!   a batch recovers exactly-once.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::{
    pick_forced_checkpoints, ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig, MspHandle,
};
use msp_net::{NetModel, Network};
use msp_types::{DomainId, Lsn, MspError, MspId, SessionId};
use msp_wal::log::DATA_START;
use msp_wal::{
    CrashPoint, Disk, DiskModel, FaultPlan, FlushPolicy, LogRecord, MemDisk, PhysicalLog,
};

const SERVER: MspId = MspId(1);

// ---------------------------------------------------------------- //
// Selection: the pure function                                     //
// ---------------------------------------------------------------- //

/// The scheduler's view of `n` sessions across ticks: anchors, the
/// credit, and a clock handing out fresh (newest) anchors to the sessions
/// a tick checkpointed.
struct Model {
    anchors: Vec<(SessionId, Lsn)>,
    credit: u64,
    force_after: u32,
    clock: u64,
}

impl Model {
    fn new(initial: &[u64], force_after: u32) -> Model {
        Model {
            anchors: initial
                .iter()
                .enumerate()
                .map(|(i, &lsn)| (SessionId(i as u64), Lsn(lsn)))
                .collect(),
            credit: 0,
            force_after,
            clock: 1 << 32,
        }
    }

    /// One tick; sessions for which `busy` holds are picked but keep
    /// their anchor. Returns the picks in scheduler order.
    fn tick(&mut self, busy: impl Fn(SessionId) -> bool) -> Vec<SessionId> {
        let (picked, credit) =
            pick_forced_checkpoints(&self.anchors, self.credit, self.force_after);
        self.credit = credit;
        for id in &picked {
            if !busy(*id) {
                self.clock += 1;
                self.anchors[id.0 as usize].1 = Lsn(self.clock);
            }
        }
        picked
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// One tick takes at most ⌈n / force_ckpt_after⌉ sessions, all
    /// distinct, and they are the oldest anchors there are.
    #[test]
    fn a_tick_never_takes_more_than_its_share(
        anchors in proptest::collection::vec(0u64..1_000_000, 0..200),
        force_after in 1u32..64,
        credit in 0u64..64,
    ) {
        let credit = credit % u64::from(force_after);
        let input: Vec<(SessionId, Lsn)> = anchors
            .iter()
            .enumerate()
            .map(|(i, &l)| (SessionId(i as u64), Lsn(l)))
            .collect();
        let (picked, left) = pick_forced_checkpoints(&input, credit, force_after);
        let share = anchors.len().div_ceil(force_after as usize);
        prop_assert!(picked.len() <= share, "{} picks, share {share}", picked.len());
        prop_assert!(left < u64::from(force_after));
        let mut distinct = picked.clone();
        distinct.sort_unstable();
        distinct.dedup();
        prop_assert_eq!(distinct.len(), picked.len());
        let newest_picked = picked.iter().map(|id| anchors[id.0 as usize]).max();
        for (i, &lsn) in anchors.iter().enumerate() {
            if !picked.contains(&SessionId(i as u64)) {
                prop_assert!(Some(lsn) >= newest_picked, "skipped an older anchor {lsn}");
            }
        }
    }

    /// With nobody busy, every session is forced at least once in any
    /// `force_ckpt_after` + 1 consecutive ticks — whatever phase the
    /// anchors start in.
    #[test]
    fn nobody_waits_longer_than_force_after_plus_one_ticks(
        anchors in proptest::collection::vec(0u64..1_000, 1..80),
        force_after in 1u32..24,
    ) {
        let mut model = Model::new(&anchors, force_after);
        let window = force_after as usize + 1;
        let ticks = 4 * window;
        let mut picked_at: Vec<Vec<usize>> = vec![Vec::new(); anchors.len()];
        for t in 0..ticks {
            for id in model.tick(|_| false) {
                picked_at[id.0 as usize].push(t);
            }
        }
        for (s, at) in picked_at.iter().enumerate() {
            let mut prev = None;
            for &t in at.iter().chain(std::iter::once(&ticks)) {
                let gap = t - prev.map_or(0, |p: usize| p + 1);
                prop_assert!(
                    gap < window,
                    "session {s} not forced for {gap} ticks before tick {t} (picked at {at:?})"
                );
                prev = Some(t);
            }
        }
    }

    /// A session the scheduler picked but could not checkpoint keeps its
    /// anchor, so the next tick's picks start with exactly those.
    #[test]
    fn a_busy_session_is_first_in_line_next_tick(
        anchors in proptest::collection::vec(0u64..1_000, 1..80),
        force_after in 1u32..24,
        busy_bits in proptest::collection::vec(any::<u64>(), 12..13),
    ) {
        let mut model = Model::new(&anchors, force_after);
        let mut skipped: Vec<SessionId> = Vec::new();
        for bits in busy_bits {
            let busy = |id: SessionId| (bits >> (id.0 % 64)) & 1 == 1;
            let picked = model.tick(busy);
            let head = skipped.len().min(picked.len());
            for id in &picked[..head] {
                prop_assert!(
                    skipped.contains(id),
                    "{id:?} overtook the skipped {skipped:?} (picked {picked:?})"
                );
            }
            // Still waiting: the skipped not reached this tick, then the
            // ones skipped now — both keep their anchors and their order.
            skipped.retain(|id| !picked.contains(id));
            skipped.extend(picked.iter().copied().filter(|id| busy(*id)));
        }
    }

    /// A lone session keeps the cadence the per-session counter gave it:
    /// forced on exactly every `force_ckpt_after`-th tick — in particular
    /// not on the first one.
    #[test]
    fn a_lone_session_is_forced_once_per_force_after_ticks(
        anchor in 0u64..1_000_000,
        force_after in 1u32..64,
    ) {
        let mut model = Model::new(&[anchor], force_after);
        for t in 1..=4 * force_after {
            let picked = model.tick(|_| false);
            prop_assert_eq!(picked.len() == 1, t % force_after == 0, "tick {}", t);
        }
    }
}

// ---------------------------------------------------------------- //
// A server whose every tick the test drives                        //
// ---------------------------------------------------------------- //

struct ServerSpec {
    force_ckpt_after: u32,
    msp_ckpt_interval: Duration,
    /// What one `tick` call costs, live and replayed.
    service_time: Duration,
}

impl ServerSpec {
    /// No background checkpointer: the test calls every tick itself.
    fn hand_driven(force_ckpt_after: u32) -> ServerSpec {
        ServerSpec {
            force_ckpt_after,
            msp_ckpt_interval: Duration::from_secs(3600),
            service_time: Duration::ZERO,
        }
    }
}

fn start_server(net: &Network<Envelope>, disk: &Arc<MemDisk>, spec: &ServerSpec) -> MspHandle {
    let logging = LoggingConfig {
        // Only the scheduler checkpoints sessions here.
        session_ckpt_threshold: u64::MAX,
        shared_ckpt_writes: u64::MAX,
        msp_ckpt_interval: spec.msp_ckpt_interval,
        force_ckpt_after: spec.force_ckpt_after,
        checkpoints_enabled: true,
        checkpoint_interval_bytes: 0,
    };
    let service_time = spec.service_time;
    MspBuilder::new(
        MspConfig::new(SERVER, DomainId(1))
            .with_time_scale(0.0)
            .with_logging(logging)
            .with_workers(4),
        ClusterConfig::new().with_msp(SERVER, DomainId(1)),
    )
    .disk_model(DiskModel::zero())
    .service("tick", move |ctx, _| {
        std::thread::sleep(service_time);
        let n = ctx
            .get_session("n")
            .map_or(0, |v| u64::from_le_bytes(v.try_into().unwrap()))
            + 1;
        ctx.set_session("n", n.to_le_bytes().to_vec());
        Ok(n.to_le_bytes().to_vec())
    })
    .start(net, Arc::clone(disk) as Arc<dyn Disk>)
    .unwrap()
}

fn clients(net: &Network<Envelope>, n: u64) -> Vec<MspClient> {
    (0..n)
        .map(|c| {
            MspClient::new(
                net,
                100 + c,
                ClientOptions {
                    resend_timeout: Duration::from_millis(100),
                    busy_backoff: Duration::from_millis(2),
                    // Rides out a session busy replaying; a request the
                    // server drops for good fails the call (and the test)
                    // after 40 s of resends.
                    max_attempts: 400,
                },
            )
        })
        .collect()
}

/// One `tick` on every client's session; each must answer `want`.
fn round(clients: &mut [MspClient], want: u64) {
    for (c, client) in clients.iter_mut().enumerate() {
        let reply = client
            .call(SERVER, "tick", &[])
            .unwrap_or_else(|e| panic!("client {c}: no reply {want}: {e}"));
        assert_eq!(
            u64::from_le_bytes(reply[..8].try_into().unwrap()),
            want,
            "client {c}: lost or duplicated execution"
        );
    }
}

fn wait_recovered(server: &MspHandle) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !server.recovery_complete() {
        assert!(Instant::now() < deadline, "recovery did not complete");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Every durable record above the reclaim floor, read from a copy of the
/// live device.
fn durable_records(disk: &MemDisk) -> Vec<(Lsn, LogRecord)> {
    let copy = Arc::new(MemDisk::new());
    copy.write(0, &disk.snapshot()).unwrap();
    let log = PhysicalLog::open(
        copy as Arc<dyn Disk>,
        DiskModel::zero(),
        FlushPolicy::immediate(),
    )
    .unwrap();
    let records = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
    log.crash();
    records
}

/// Drive `ticks` MSP checkpoints, collecting what each adds to the log
/// (truncation eats the head as the ticks go, so the log is read after
/// every one).
fn drive_ticks(server: &MspHandle, disk: &MemDisk, ticks: usize, seen: &mut Vec<(Lsn, LogRecord)>) {
    for _ in 0..ticks {
        server.force_msp_checkpoint().unwrap();
        let last = seen.last().map_or(Lsn(0), |(lsn, _)| *lsn);
        seen.extend(
            durable_records(disk)
                .into_iter()
                .filter(|(lsn, _)| *lsn > last),
        );
    }
}

/// The largest number of `SessionCheckpoint` records between two
/// consecutive `MspCheckpoint` records, and the total.
fn checkpoint_bursts(records: &[(Lsn, LogRecord)]) -> (usize, usize) {
    let (mut worst, mut total, mut run) = (0, 0, 0);
    for (_, record) in records {
        match record {
            LogRecord::SessionCheckpoint { .. } => {
                run += 1;
                total += 1;
                worst = worst.max(run);
            }
            LogRecord::MspCheckpoint(_) => run = 0,
            _ => {}
        }
    }
    (worst, total)
}

#[test]
fn sessions_opened_in_one_round_never_checkpoint_as_one_burst() {
    const SESSIONS: u64 = 64;
    const FORCE_AFTER: u32 = 8;
    let share = (SESSIONS as usize).div_ceil(FORCE_AFTER as usize);
    let ticks = 3 * FORCE_AFTER as usize;

    let net: Network<Envelope> = Network::new(NetModel::zero(), 11);
    let disk = Arc::new(MemDisk::new());
    let spec = ServerSpec::hand_driven(FORCE_AFTER);
    let server = start_server(&net, &disk, &spec);
    let mut clients = clients(&net, SESSIONS);
    round(&mut clients, 1);

    let mut seen = Vec::new();
    drive_ticks(&server, &disk, ticks, &mut seen);
    let (worst, total) = checkpoint_bursts(&seen);
    assert!(
        worst <= share,
        "{worst} session checkpoints between two MSP checkpoints, share is {share}"
    );
    // Every tick picks its share — each session once per 8 ticks. (A
    // worker may still hold the lock of the session it just answered.)
    let stats = server.stats();
    assert_eq!(stats.forced_ckpt_sessions, total as u64);
    assert_eq!(
        stats.forced_ckpt_sessions + stats.forced_ckpt_skipped_busy,
        (ticks * share) as u64
    );
    assert_eq!(stats.forced_ckpt_batches, ticks as u64);

    // A crash recovery re-creates all 64 sessions in one instant — the
    // phase a per-session counter can never lose again.
    server.crash();
    let server = start_server(&net, &disk, &spec);
    wait_recovered(&server);
    let mut seen = Vec::new();
    drive_ticks(&server, &disk, ticks, &mut seen);
    let (worst, total) = checkpoint_bursts(&seen);
    assert!(
        worst <= share,
        "after recovery: {worst} session checkpoints between two MSP checkpoints, \
         share is {share}"
    );
    assert!(
        total >= 2 * SESSIONS as usize,
        "recovered sessions are forced again: {total}"
    );
    round(&mut clients, 2);
    server.shutdown();
    net.shutdown();
}

// ---------------------------------------------------------------- //
// Recovery: un-replayed sessions, and a crash inside the batch     //
// ---------------------------------------------------------------- //

/// A session crash recovery has re-created but not yet replayed holds an
/// empty state over a rebuilt stream. Checkpointing it then logs the
/// empty state, truncates the stream and moves the anchor: replay
/// restores "no request ever seen", and every later request is dropped
/// as a future sequence number. Reachable whenever replay outlasts
/// `force_ckpt_after` ticks — here one tick of 1 ms against a replay of
/// some hundred milliseconds.
#[test]
fn a_session_is_never_force_checkpointed_before_its_replay() {
    const SESSIONS: u64 = 32;
    const CALLS: u64 = 24;
    let net: Network<Envelope> = Network::new(NetModel::zero(), 12);
    let disk = Arc::new(MemDisk::new());
    // Long windows: nothing checkpoints before the crash.
    let server = start_server(
        &net,
        &disk,
        &ServerSpec {
            service_time: Duration::from_micros(300),
            ..ServerSpec::hand_driven(u32::MAX)
        },
    );
    let mut clients = clients(&net, SESSIONS);
    for k in 1..=CALLS {
        round(&mut clients, k);
    }
    server.crash();

    let server = start_server(
        &net,
        &disk,
        &ServerSpec {
            force_ckpt_after: 1,
            msp_ckpt_interval: Duration::from_millis(1),
            service_time: Duration::from_micros(300),
        },
    );
    // Every session's first reply after the restart continues its count.
    round(&mut clients, CALLS + 1);
    wait_recovered(&server);
    assert!(
        server.stats().msp_checkpoints >= 2,
        "the checkpointer ticked while sessions were replaying"
    );
    round(&mut clients, CALLS + 2);
    server.shutdown();
    net.shutdown();
}

#[test]
fn a_crash_inside_the_batch_recovers_exactly_once() {
    const SESSIONS: u64 = 16;
    let net: Network<Envelope> = Network::new(NetModel::zero(), 13);
    let disk = Arc::new(MemDisk::new());
    let spec = ServerSpec::hand_driven(2);
    let server = start_server(&net, &disk, &spec);
    let mut clients = clients(&net, SESSIONS);
    for k in 1..=3 {
        round(&mut clients, k);
    }
    // The first tick's batch is eight sessions; the kill lands on the
    // fourth one's checkpoint write, after three records were appended.
    server.install_fault_plan(FaultPlan::armed(CrashPoint::CheckpointWrite, 4));
    assert!(matches!(
        server.force_msp_checkpoint(),
        Err(MspError::Shutdown)
    ));
    assert_eq!(server.stats().forced_ckpt_sessions, 3);
    server.crash();

    let server = start_server(&net, &disk, &spec);
    wait_recovered(&server);
    round(&mut clients, 4);
    // The survivors are scheduled like anyone else.
    for _ in 0..4 {
        server.force_msp_checkpoint().unwrap();
    }
    let stats = server.stats();
    assert_eq!(
        stats.forced_ckpt_sessions + stats.forced_ckpt_skipped_busy,
        4 * SESSIONS / 2
    );
    round(&mut clients, 5);
    server.crash();
    let server = start_server(&net, &disk, &spec);
    round(&mut clients, 6);
    server.shutdown();
    net.shutdown();
}
