//! Bounded-log operation: truncation safety across the stack.
//!
//! Three layers of the same invariant — the reclaim floor never passes a
//! live dependency, and whatever a truncation crash leaves behind,
//! recovery sees exactly the records above the floor:
//!
//! * **Runtime** — an un-checkpointed session's earliest position-stream
//!   entry pins the floor near the log head; once the session ends and a
//!   fresh MSP checkpoint anchors, the floor advances and the space below
//!   it reads as zeros.
//! * **WAL** — a crash between the floor persist and the device reclaim
//!   (`TruncateStart`), or right after the reclaim (`TruncateComplete`),
//!   recovers byte-identical above the floor, on a single log and on a
//!   striped one.
//! * **Fold** — `fold_reclaim_floor` itself: never above any live
//!   dependency, never above the durable horizon, monotone in its inputs
//!   (proptest).
//!
//! Plus the pinned long-run acceptance seed: the full bounded-log tier
//! (byte-driven checkpoints, fixed-cadence crashes, footprint cap, flat
//! MTTR) at a CI-sized workload.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::{fold_reclaim_floor, ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig};
use msp_harness::torture::{self, Cadence, CrashPlan, TortureOptions};
use msp_harness::SystemConfig;
use msp_net::{NetModel, Network};
use msp_types::{DomainId, Lsn, MspError, MspId, SessionId};
use msp_wal::log::DATA_START;
use msp_wal::{
    CrashPoint, Disk, DiskModel, FaultPlan, FlushPolicy, LogRecord, MemDisk, PhysicalLog,
    StripedLog,
};

const SERVER: MspId = MspId(1);

// ---------------------------------------------------------------- //
// Runtime layer: live sessions pin the floor                       //
// ---------------------------------------------------------------- //

fn start_server(net: &Network<Envelope>, disk: Arc<MemDisk>) -> msp_core::MspHandle {
    let cluster = ClusterConfig::new().with_msp(SERVER, DomainId(1));
    let logging = LoggingConfig {
        // No session checkpoints and no laggard forcing: the session's
        // anchor stays its *first* position-stream entry for the whole
        // test, so it alone must hold the reclaim floor down.
        session_ckpt_threshold: u64::MAX,
        force_ckpt_after: u32::MAX,
        shared_ckpt_writes: 5,
        // No background checkpointer either — the test drives every
        // checkpoint (and hence every truncation) by hand.
        msp_ckpt_interval: Duration::from_secs(3600),
        checkpoints_enabled: true,
        checkpoint_interval_bytes: 0,
    };
    MspBuilder::new(
        MspConfig::new(SERVER, DomainId(1))
            .with_time_scale(0.0)
            .with_logging(logging)
            .with_workers(3),
        cluster,
    )
    .disk_model(DiskModel::zero())
    .shared_var("total", 0u64.to_le_bytes().to_vec())
    .service("tick", |ctx, _| {
        let mine = ctx
            .get_session("n")
            .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
            .unwrap_or(0)
            + 1;
        ctx.set_session("n", mine.to_le_bytes().to_vec());
        let total = u64::from_le_bytes(ctx.read_shared("total")?[..8].try_into().unwrap()) + 1;
        ctx.write_shared("total", total.to_le_bytes().to_vec())?;
        Ok(mine.to_le_bytes().to_vec())
    })
    .start(net, disk)
    .unwrap()
}

#[test]
fn live_session_pins_the_floor_until_it_ends() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 7);
    let disk = Arc::new(MemDisk::new());
    let server = start_server(&net, Arc::clone(&disk));
    let mut client = MspClient::new(
        &net,
        1,
        ClientOptions {
            resend_timeout: Duration::from_millis(60),
            busy_backoff: Duration::from_millis(1),
            max_attempts: 100_000,
        },
    );

    // Phase 1: a busy session that never checkpoints. Its first
    // position-stream entry sits at the very head of the log, so no
    // matter how much traffic follows, checkpoint-driven truncation must
    // refuse to advance past it.
    for i in 1..=16u64 {
        let r = client.call(SERVER, "tick", &[]).unwrap();
        assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), i);
    }
    server.force_msp_checkpoint().unwrap();
    let floor1 = server.reclaim_floor().expect("log-based server");
    // The 16-request log is tens of KB; the floor must stay pinned at
    // the session's first entry, within the first few records.
    assert!(
        floor1.0 <= 4 * DATA_START,
        "un-checkpointed session's first entry must pin the floor near \
         the head, got {floor1:?}"
    );

    // Phase 2: end the session. Its entries are dead; the next
    // checkpoint re-anchors above them and truncation reclaims the
    // prefix for real — the device below the floor reads as zeros.
    client.end_session(SERVER).unwrap();
    for i in 1..=4u64 {
        let r = client.call(SERVER, "tick", &[]).unwrap();
        assert_eq!(
            u64::from_le_bytes(r[..8].try_into().unwrap()),
            i,
            "fresh session restarts its counter"
        );
    }
    server.force_msp_checkpoint().unwrap();
    let floor2 = server.reclaim_floor().expect("log-based server");
    assert!(
        floor2 > floor1,
        "dead session released the floor: {floor2:?} vs {floor1:?}"
    );
    let mut below = vec![0xAAu8; (floor2.0 - DATA_START) as usize];
    disk.read(DATA_START, &mut below).unwrap();
    assert!(
        below.iter().all(|&b| b == 0),
        "the reclaimed prefix must read as zeros"
    );

    // The truncated log still serves and survives a crash-restart: the
    // recovery scan starts at the anchored checkpoint, above the floor.
    server.crash();
    let server = start_server(&net, Arc::clone(&disk));
    for i in 5..=8u64 {
        let r = client.call(SERVER, "tick", &[]).unwrap();
        assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), i);
    }
    server.shutdown();
    net.shutdown();
}

// ---------------------------------------------------------------- //
// WAL layer: crash-during-truncation is byte-identical above floor //
// ---------------------------------------------------------------- //

fn rec(session: u64, seq: u64) -> LogRecord {
    LogRecord::RequestReceive {
        session: SessionId(session),
        seq: msp_types::RequestSeq(seq),
        method: "m".into(),
        payload: vec![0xC3; 48],
        sender_dv: None,
    }
}

/// Write 16 records, snapshot the untruncated disk, crash at `point`
/// inside `truncate_below`, reopen — and require the surviving bytes
/// above the floor to be identical to the baseline, with zeros below.
fn half_truncated_single_log(point: CrashPoint) {
    let disk = Arc::new(MemDisk::new());
    let floor;
    let baseline;
    {
        let log = PhysicalLog::open(
            Arc::clone(&disk) as Arc<dyn Disk>,
            DiskModel::zero(),
            FlushPolicy::immediate(),
        )
        .unwrap();
        let mut lsns = Vec::new();
        for i in 0..16u64 {
            let l = log.append(&rec(1, i));
            log.flush_to(l).unwrap();
            lsns.push(l);
        }
        baseline = disk.snapshot();
        floor = lsns[9];
        log.install_fault_plan(FaultPlan::armed(point, 1));
        assert!(matches!(log.truncate_below(floor), Err(MspError::Shutdown)));
        log.crash();
    }

    let log = PhysicalLog::open(
        Arc::clone(&disk) as Arc<dyn Disk>,
        DiskModel::zero(),
        FlushPolicy::immediate(),
    )
    .unwrap();
    assert_eq!(log.floor(), floor, "floor persisted before the crash");
    let after = disk.snapshot();
    assert_eq!(
        &after[floor.0 as usize..],
        &baseline[floor.0 as usize..],
        "bytes above the floor must be untouched by the interrupted \
         truncation ({point:?})"
    );
    assert!(
        after[DATA_START as usize..floor.0 as usize]
            .iter()
            .all(|&b| b == 0),
        "reopen must finish the reclaim below the floor ({point:?})"
    );
    let got: Vec<_> = log
        .scan_from(Lsn(DATA_START))
        .map(|r| r.unwrap().1)
        .collect();
    let want: Vec<_> = (9..16).map(|i| rec(1, i)).collect();
    assert_eq!(got, want, "scan yields exactly the records above the floor");
    log.close();
}

#[test]
fn crash_at_truncate_start_single_log() {
    half_truncated_single_log(CrashPoint::TruncateStart);
}

#[test]
fn crash_at_truncate_complete_single_log() {
    half_truncated_single_log(CrashPoint::TruncateComplete);
}

/// The striped variant: the merged floor is persisted on every stripe
/// disk before any local truncation, so a crash at either point leaves
/// the reopened log scanning exactly the survivors — and each stripe's
/// surviving region byte-identical to the untruncated baseline.
fn half_truncated_striped_log(point: CrashPoint) {
    let disks: Vec<Arc<MemDisk>> = (0..2).map(|_| Arc::new(MemDisk::new())).collect();
    let dyn_disks = || {
        disks
            .iter()
            .map(|d| Arc::clone(d) as Arc<dyn Disk>)
            .collect::<Vec<_>>()
    };
    let floor;
    let want: Vec<_>;
    let baselines: Vec<Vec<u8>>;
    {
        let log =
            StripedLog::open(dyn_disks(), DiskModel::zero(), FlushPolicy::immediate()).unwrap();
        let mut lsns = Vec::new();
        for i in 0..20u64 {
            lsns.push((log.append(&rec(i, i)), rec(i, i)));
        }
        log.flush_all().unwrap();
        baselines = disks.iter().map(|d| d.snapshot()).collect();
        floor = lsns[11].0;
        want = lsns[11..].to_vec();
        log.install_fault_plan(FaultPlan::armed(point, 1));
        assert!(matches!(log.truncate_below(floor), Err(MspError::Shutdown)));
        log.crash();
    }

    let log = StripedLog::open(dyn_disks(), DiskModel::zero(), FlushPolicy::immediate()).unwrap();
    assert_eq!(log.floor(), floor, "merged floor survives ({point:?})");
    let got: Vec<_> = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
    assert_eq!(got, want, "merged scan yields the records above the floor");
    for (s, stripe) in log.stripes().iter().enumerate() {
        let lf = stripe.floor().0 as usize;
        let after = disks[s].snapshot();
        assert_eq!(
            &after[lf..],
            &baselines[s][lf..],
            "stripe {s}: bytes above its local floor must match the \
             untruncated baseline ({point:?})"
        );
        assert!(
            after[DATA_START as usize..lf].iter().all(|&b| b == 0),
            "stripe {s}: reopen must finish the local reclaim ({point:?})"
        );
    }
    log.close();
}

#[test]
fn crash_at_truncate_start_striped_log() {
    half_truncated_striped_log(CrashPoint::TruncateStart);
}

#[test]
fn crash_at_truncate_complete_striped_log() {
    half_truncated_striped_log(CrashPoint::TruncateComplete);
}

// ---------------------------------------------------------------- //
// Fold layer: the reclaim-floor computation itself                 //
// ---------------------------------------------------------------- //

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    /// The folded floor never exceeds any live dependency, never exceeds
    /// the durable horizon, and collapses to 0 without an anchored
    /// checkpoint (recovery would scan from the head, so nothing is
    /// reclaimable).
    #[test]
    fn fold_never_passes_a_live_dependency(
        anchor in proptest::option::of(0u64..1_000_000),
        sessions in proptest::collection::vec(0u64..1_000_000, 0..8),
        shared in proptest::collection::vec(0u64..1_000_000, 0..8),
        pending in proptest::option::of(0u64..1_000_000),
        durable in 0u64..1_000_000,
    ) {
        let s: Vec<Lsn> = sessions.iter().map(|&l| Lsn(l)).collect();
        let sh: Vec<Lsn> = shared.iter().map(|&l| Lsn(l)).collect();
        let floor = fold_reclaim_floor(
            anchor.map(Lsn), &s, &sh, pending.map(Lsn), Lsn(durable),
        );
        prop_assert!(floor.0 <= durable, "floor {floor:?} above durable {durable}");
        match anchor {
            None => prop_assert_eq!(floor, Lsn(0), "no anchor, nothing reclaimable"),
            Some(a) => {
                prop_assert!(floor.0 <= a);
                for l in sessions.iter().chain(&shared).chain(&pending) {
                    prop_assert!(floor.0 <= *l, "floor {floor:?} passes live dep {l}");
                }
            }
        }
    }

    /// Monotone: raising every input (dependencies catching up, the
    /// durable horizon advancing) never lowers the floor — so repeated
    /// checkpoint/truncate cycles can only move forward.
    #[test]
    fn fold_is_monotone_in_its_inputs(
        anchor in 0u64..1_000_000,
        sessions in proptest::collection::vec(0u64..1_000_000, 0..8),
        shared in proptest::collection::vec(0u64..1_000_000, 0..8),
        pending in proptest::option::of(0u64..1_000_000),
        durable in 0u64..1_000_000,
        delta in 0u64..100_000,
    ) {
        let lift = |v: &[u64], d: u64| v.iter().map(|&l| Lsn(l + d)).collect::<Vec<_>>();
        let lo = fold_reclaim_floor(
            Some(Lsn(anchor)),
            &lift(&sessions, 0),
            &lift(&shared, 0),
            pending.map(Lsn),
            Lsn(durable),
        );
        let hi = fold_reclaim_floor(
            Some(Lsn(anchor + delta)),
            &lift(&sessions, delta),
            &lift(&shared, delta),
            pending.map(|p| Lsn(p + delta)),
            Lsn(durable + delta),
        );
        prop_assert!(hi >= lo, "raised inputs lowered the floor: {hi:?} < {lo:?}");
    }
}

// ---------------------------------------------------------------- //
// The pinned long-run acceptance seed                              //
// ---------------------------------------------------------------- //

/// CI-sized cut of the bounded-log tier: continuous traffic with a
/// 128 KB byte-driven checkpoint trigger, four fixed-cadence kills, a
/// hard footprint cap, the MTTR flatness assert, and the floor-aware
/// post-mortem audits. Seed pinned — a failure here reproduces exactly.
#[test]
fn long_run_pinned_seed_stays_bounded() {
    let plan = CrashPlan::Cadence(Cadence {
        clients: 4,
        min_requests_per_client: 40,
        crashes: 4,
        crash_interval: Duration::from_millis(80),
        checkpoint_interval_bytes: 128 << 10,
        footprint_cap: 4 << 20,
        ..Cadence::default()
    });
    let opts = TortureOptions::new(42, SystemConfig::LoOptimistic, plan);
    let report = torture::run(&opts).expect("pinned long-run seed");
    assert!(report.truncations > 0);
    assert!(report.requests >= 4 * 40);
    assert_eq!(report.crashes, 4);
}
