//! Edge cases of the recovery machinery: checkpoint-bounded scans, forced
//! checkpoints of idle sessions, shared-variable chain breaks, repeated
//! crashes, flush-request verdicts about old epochs, where a recovered
//! log resumes appending, and logs recovery must refuse.

use std::sync::Arc;
use std::time::{Duration, Instant};

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig, MspHandle};
use msp_net::{NetModel, Network};
use msp_types::{
    CodecError, Decode, DependencyVector, DomainId, Encode, Epoch, Lsn, MspError, MspId, MspResult,
    SessionId, VarId,
};
use msp_wal::log::{DATA_START, SCAN_CHUNK};
use msp_wal::{
    read_floor, CrashPoint, Disk, DiskModel, FaultPlan, FlushPolicy, LogAnchor, LogRecord, MemDisk,
    PhysicalLog,
};

const M1: MspId = MspId(1);

fn cluster() -> ClusterConfig {
    ClusterConfig::new().with_msp(M1, DomainId(1))
}

fn logging(session_threshold: u64) -> LoggingConfig {
    LoggingConfig {
        session_ckpt_threshold: session_threshold,
        shared_ckpt_writes: 8,
        msp_ckpt_interval: Duration::from_millis(15),
        force_ckpt_after: 2,
        checkpoints_enabled: true,
        checkpoint_interval_bytes: 0,
    }
}

fn start(net: &Network<Envelope>, disk: Arc<MemDisk>, session_threshold: u64) -> MspHandle {
    start_ckpt(net, disk, session_threshold, true)
}

fn start_ckpt(
    net: &Network<Envelope>,
    disk: Arc<MemDisk>,
    session_threshold: u64,
    checkpoints_enabled: bool,
) -> MspHandle {
    let mut lg = logging(session_threshold);
    lg.checkpoints_enabled = checkpoints_enabled;
    start_with(net, disk, lg)
}

fn start_with(net: &Network<Envelope>, disk: Arc<MemDisk>, lg: LoggingConfig) -> MspHandle {
    try_start_with(net, disk, lg).unwrap()
}

fn try_start_with(
    net: &Network<Envelope>,
    disk: Arc<MemDisk>,
    lg: LoggingConfig,
) -> MspResult<MspHandle> {
    MspBuilder::new(
        MspConfig::new(M1, DomainId(1))
            .with_time_scale(0.0)
            .with_logging(lg)
            .with_workers(3),
        cluster(),
    )
    .disk_model(DiskModel::zero())
    .shared_var("sv", 0u64.to_le_bytes().to_vec())
    .service("tick", |ctx, _| {
        let n = ctx
            .get_session("n")
            .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
            .unwrap_or(0)
            + 1;
        ctx.set_session("n", n.to_le_bytes().to_vec());
        Ok(n.to_le_bytes().to_vec())
    })
    .service("bump", |ctx, _| {
        let v = u64::from_le_bytes(ctx.read_shared("sv")?[..8].try_into().unwrap()) + 1;
        ctx.write_shared("sv", v.to_le_bytes().to_vec())?;
        Ok(v.to_le_bytes().to_vec())
    })
    .start(net, disk)
}

fn call_u64(c: &mut MspClient, method: &str) -> u64 {
    u64::from_le_bytes(c.call(M1, method, &[]).unwrap()[..8].try_into().unwrap())
}

fn client(net: &Network<Envelope>) -> MspClient {
    MspClient::new(
        net,
        1,
        ClientOptions {
            resend_timeout: Duration::from_millis(80),
            busy_backoff: Duration::from_millis(1),
            max_attempts: 100_000,
        },
    )
}

#[test]
fn forced_checkpoints_advance_idle_sessions() {
    // An idle session must not pin the analysis-scan start forever: after
    // `force_ckpt_after` MSP checkpoints, it is checkpointed by force
    // (§3.4). The MSP checkpointer runs every 15ms here.
    let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
    let disk = Arc::new(MemDisk::new());
    let msp = start(&net, Arc::clone(&disk), u64::MAX); // threshold never fires
    let mut c = client(&net);
    assert_eq!(call_u64(&mut c, "tick"), 1);
    // Go idle and let the checkpointer cycle a few times.
    std::thread::sleep(Duration::from_millis(200));
    let stats = msp.stats();
    assert!(
        stats.msp_checkpoints >= 3,
        "checkpointer ran: {}",
        stats.msp_checkpoints
    );
    assert!(
        stats.session_checkpoints >= 1,
        "idle session was force-checkpointed: {}",
        stats.session_checkpoints
    );
    msp.shutdown();
    net.shutdown();
}

#[test]
fn shared_variable_checkpoints_fire_by_write_count() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
    let disk = Arc::new(MemDisk::new());
    let msp = start(&net, Arc::clone(&disk), u64::MAX);
    let mut c = client(&net);
    for i in 1..=20u64 {
        assert_eq!(call_u64(&mut c, "bump"), i);
    }
    assert!(
        msp.stats().shared_checkpoints >= 2,
        "8-write threshold over 20 writes: {}",
        msp.stats().shared_checkpoints
    );
    msp.crash();
    // Recovery rolls the variable forward to 20 regardless of chain breaks.
    let msp = start(&net, Arc::clone(&disk), u64::MAX);
    assert_eq!(call_u64(&mut c, "bump"), 21);
    msp.shutdown();
    net.shutdown();
}

#[test]
fn repeated_crashes_accumulate_epochs() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
    let disk = Arc::new(MemDisk::new());
    let mut msp = start(&net, Arc::clone(&disk), 400);
    let mut c = client(&net);
    let mut expected = 0u64;
    for round in 1..=4u32 {
        for _ in 0..5 {
            expected += 1;
            assert_eq!(call_u64(&mut c, "tick"), expected);
        }
        msp.crash();
        msp = start(&net, Arc::clone(&disk), 400);
        assert_eq!(msp.epoch().0, round, "epoch increments per recovery");
    }
    assert_eq!(call_u64(&mut c, "tick"), 21);
    msp.shutdown();
    net.shutdown();
}

#[test]
fn clean_shutdown_then_restart_loses_nothing() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
    let disk = Arc::new(MemDisk::new());
    let msp = start(&net, Arc::clone(&disk), u64::MAX);
    let mut c = client(&net);
    for i in 1..=7u64 {
        assert_eq!(call_u64(&mut c, "tick"), i);
    }
    msp.shutdown(); // flushes the tail
    let msp = start(&net, Arc::clone(&disk), u64::MAX);
    assert_eq!(
        call_u64(&mut c, "tick"),
        8,
        "clean shutdown preserved everything"
    );
    // A clean restart still counts as a crash recovery pass (the log
    // cannot tell), but nothing was replayed beyond the durable state.
    assert_eq!(msp.stats().crash_recoveries, 1);
    msp.shutdown();
    net.shutdown();
}

#[test]
fn checkpoint_bounds_the_analysis_scan() {
    // With frequent session checkpoints, the scan after a crash starts
    // near the end of the log; with none, it rereads everything. Compare
    // scan effort via the log's sequential-read counter.
    let run = |threshold: u64, enabled: bool| {
        let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
        let disk = Arc::new(MemDisk::new());
        let msp = start_ckpt(&net, Arc::clone(&disk), threshold, enabled);
        let mut c = client(&net);
        for _ in 0..300 {
            call_u64(&mut c, "tick");
        }
        // Let the MSP checkpointer anchor the latest session checkpoints.
        std::thread::sleep(Duration::from_millis(60));
        msp.crash();
        let msp2 = start_ckpt(&net, Arc::clone(&disk), threshold, enabled);
        // Session replay runs asynchronously on the worker pool; a request
        // through the same session blocks until its recovery completes.
        assert_eq!(call_u64(&mut c, "tick"), 301);
        let replayed = msp2.stats().replayed_requests;
        msp2.shutdown();
        net.shutdown();
        replayed
    };
    let with_ckpt = run(2_000, true);
    let without_ckpt = run(u64::MAX, false);
    assert!(
        with_ckpt < without_ckpt,
        "checkpointing must bound replay: {with_ckpt} !< {without_ckpt}"
    );
    assert_eq!(without_ckpt, 300, "no checkpoint → full replay");
}

#[test]
fn sessions_recover_in_parallel_after_crash() {
    // Several sessions with un-checkpointed history; after the crash all
    // must be replayed (scheduled across the worker pool) and continue
    // exactly-once. Checkpoints are off: with them on, the 15 ms
    // checkpointer force-checkpoints sessions whenever the calls below
    // take longer than two ticks, and fewer requests are replayed.
    let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
    let disk = Arc::new(MemDisk::new());
    let msp = start_ckpt(&net, Arc::clone(&disk), u64::MAX, false);
    let mut clients: Vec<MspClient> = (0..6)
        .map(|i| {
            MspClient::new(
                &net,
                i,
                ClientOptions {
                    resend_timeout: Duration::from_millis(80),
                    busy_backoff: Duration::from_millis(1),
                    max_attempts: 100_000,
                },
            )
        })
        .collect();
    for c in clients.iter_mut() {
        for i in 1..=10u64 {
            assert_eq!(call_u64(c, "tick"), i);
        }
    }
    msp.crash();
    let msp = start_ckpt(&net, Arc::clone(&disk), u64::MAX, false);
    // All six sessions were rebuilt and replayed (requests block until
    // each session's async replay completes).
    assert_eq!(msp.session_count(), 6);
    for c in clients.iter_mut() {
        assert_eq!(call_u64(c, "tick"), 11);
    }
    assert_eq!(msp.stats().replayed_requests, 60);
    msp.shutdown();
    net.shutdown();
}

/// A torn frame: frame magic and a length the bytes behind it cannot
/// cover, so the scanner ends the stream here.
const TORN_FRAME: [u8; 10] = [0xA5, 100, 0, 0, 0, 1, 2, 3, 4, 42];

fn open_log(disk: &Arc<MemDisk>) -> Arc<PhysicalLog> {
    PhysicalLog::open(
        Arc::clone(disk) as Arc<dyn Disk>,
        DiskModel::zero(),
        FlushPolicy::immediate(),
    )
    .unwrap()
}

/// Every record from the reclaim floor on, with its LSN, read without
/// positioning the log.
fn scan_all(disk: &Arc<MemDisk>) -> Vec<(Lsn, LogRecord)> {
    let log = PhysicalLog::open_unpositioned(
        Arc::clone(disk) as Arc<dyn Disk>,
        DiskModel::zero(),
        FlushPolicy::immediate(),
    )
    .unwrap();
    log.scan_from(Lsn(DATA_START))
        .map(|item| item.unwrap())
        .collect()
}

fn await_recovery(msp: &MspHandle) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !msp.recovery_complete() {
        assert!(Instant::now() < deadline, "recovery did not complete");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn fully_truncated_log_recovers_as_a_crash() {
    // A persisted floor at the durable end leaves no frame above the
    // floor — but the floor says a log was there, so the restart is a
    // crash recovery into a new epoch, not a first boot at epoch 0.
    let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
    let disk = Arc::new(MemDisk::new());
    let msp = start_ckpt(&net, Arc::clone(&disk), u64::MAX, false);
    let mut c = client(&net);
    for i in 1..=3u64 {
        assert_eq!(call_u64(&mut c, "tick"), i);
    }
    msp.shutdown();
    let end = {
        let log = open_log(&disk);
        let end = log.durable_lsn();
        log.truncate_below(end).unwrap();
        log.close();
        end
    };
    assert_eq!(read_floor(disk.as_ref()).unwrap(), Some(end.0));
    assert!(
        scan_all(&disk).is_empty(),
        "nothing survives above the floor"
    );

    let msp = start_ckpt(&net, Arc::clone(&disk), u64::MAX, false);
    assert_eq!(msp.epoch(), Epoch(1), "the epoch advances");
    assert_eq!(msp.stats().crash_recoveries, 1, "not the first-boot path");
    msp.crash();
    // The recovery resumed the log at the floor, where the next scan
    // finds its RecoveryComplete.
    let recovered = scan_all(&disk);
    assert!(matches!(
        recovered.first(),
        Some((lsn, LogRecord::RecoveryComplete { new_epoch: Epoch(1), .. })) if *lsn == end
    ));
    let msp = start_ckpt(&net, Arc::clone(&disk), u64::MAX, false);
    assert_eq!(msp.epoch(), Epoch(2));
    msp.shutdown();
    net.shutdown();
}

#[test]
fn torn_first_frame_on_a_never_truncated_disk_is_a_first_boot() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
    let disk = Arc::new(MemDisk::new());
    disk.write(DATA_START, &TORN_FRAME).unwrap();
    let msp = start(&net, Arc::clone(&disk), u64::MAX);
    assert_eq!(msp.epoch(), Epoch(0));
    assert_eq!(msp.stats().crash_recoveries, 0, "first-boot path");
    let mut c = client(&net);
    assert_eq!(call_u64(&mut c, "tick"), 1);
    msp.crash();
    // The epoch-0 marker overwrote the torn frame.
    assert!(matches!(
        scan_all(&disk).first(),
        Some((
            Lsn(DATA_START),
            LogRecord::RecoveryComplete {
                new_epoch: Epoch(0),
                ..
            }
        ))
    ));
    let msp = start(&net, Arc::clone(&disk), u64::MAX);
    assert_eq!(msp.epoch(), Epoch(1));
    assert_eq!(call_u64(&mut c, "tick"), 2);
    msp.shutdown();
    net.shutdown();
}

#[test]
fn recovery_complete_lands_at_the_end_of_a_checkpointed_scan() {
    // Checkpoints on, but taken only on request; each MSP checkpoint
    // forces the session's and the shared variable's.
    let mut lg = logging(u64::MAX);
    lg.msp_ckpt_interval = Duration::from_secs(3600);
    lg.force_ckpt_after = 1;
    let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
    let disk = Arc::new(MemDisk::new());
    let msp = start_with(&net, Arc::clone(&disk), lg.clone());
    let mut c = client(&net);
    for i in 1..=5u64 {
        assert_eq!(call_u64(&mut c, "tick"), i);
    }
    for i in 1..=3u64 {
        assert_eq!(call_u64(&mut c, "bump"), i);
    }
    // Crash inside the MSP checkpoint after its anchor is written and
    // before the truncation moves the floor: the appends are the forced
    // session checkpoint, the MSP checkpoint, then the shared one.
    msp.install_fault_plan(FaultPlan::armed(CrashPoint::MidAppend, 3));
    assert!(msp.force_msp_checkpoint().is_err());
    msp.crash();
    let ckpt = LogAnchor::new(Arc::clone(&disk) as Arc<dyn Disk>, DiskModel::zero())
        .read()
        .unwrap()
        .expect("the checkpoint was anchored");
    let min_lsn = match open_log(&disk).read_record(ckpt).unwrap() {
        LogRecord::MspCheckpoint(body) => body.min_lsn,
        other => panic!("anchor points at {}", other.kind()),
    };
    let floor = read_floor(disk.as_ref()).unwrap().unwrap_or(DATA_START);
    assert!(
        min_lsn.0 > floor,
        "scan starts above the floor: {min_lsn:?}, {floor}"
    );
    // A torn tail behind the durable records.
    let torn_at = disk.len();
    disk.write(torn_at, &TORN_FRAME).unwrap();
    let walked = {
        let log = open_log(&disk);
        let end = log.end_lsn();
        log.crash();
        end
    };
    assert_eq!(walked, Lsn(torn_at));

    let msp = start_with(&net, Arc::clone(&disk), lg.clone());
    assert_eq!(msp.epoch(), Epoch(1));
    await_recovery(&msp);
    let first = msp.dump_sessions();
    msp.crash();
    let complete: Vec<Lsn> = scan_all(&disk)
        .into_iter()
        .filter_map(|(lsn, rec)| match rec {
            LogRecord::RecoveryComplete {
                new_epoch: Epoch(1),
                recovered_lsn,
            } => {
                assert_eq!(recovered_lsn, Lsn(torn_at - 1));
                Some(lsn)
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        complete,
        vec![walked],
        "RecoveryComplete at the analysis end"
    );

    let msp = start_with(&net, Arc::clone(&disk), lg);
    assert_eq!(msp.epoch(), Epoch(2));
    await_recovery(&msp);
    assert_eq!(msp.dump_sessions(), first, "second restart, same sessions");
    assert_eq!(call_u64(&mut c, "tick"), 6);
    assert_eq!(call_u64(&mut c, "bump"), 4);
    msp.shutdown();
    net.shutdown();
}

#[test]
fn restart_reads_the_log_image_once() {
    // An image of N 64 KB read chunks: a restart reads each chunk once
    // (the analysis scan), plus a few small reads (floor, anchor, the
    // first-boot probe) — not the N more a walk to find the append point
    // used to read. With checkpoints off the replay window is the whole
    // 3 MB log, longer than the 1 MB session checkpoint threshold, and it
    // is still not read a second time.
    for session_threshold in [u64::MAX, 1 << 20] {
        let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
        let disk = Arc::new(MemDisk::new());
        let msp = start_ckpt(&net, Arc::clone(&disk), session_threshold, false);
        let mut c = client(&net);
        let payload = vec![7u8; 16 * 1024];
        for i in 1..=192u64 {
            let reply = c.call(M1, "tick", &payload).unwrap();
            assert_eq!(u64::from_le_bytes(reply[..8].try_into().unwrap()), i);
        }
        msp.crash();
        let image = disk.snapshot();
        let chunks = (image.len() as u64 - DATA_START).div_ceil(SCAN_CHUNK as u64);
        assert!(chunks >= 48, "a {chunks}-chunk image");

        let restored = Arc::new(MemDisk::new());
        restored.write(0, &image).unwrap();
        let msp = start_ckpt(&net, Arc::clone(&restored), session_threshold, false);
        await_recovery(&msp);
        let reads = restored.read_count();
        assert_eq!(msp.stats().replayed_requests, 192);
        assert!(
            reads >= chunks && reads <= chunks + chunks / 4,
            "threshold {session_threshold}: {reads} device reads for a {chunks}-chunk image"
        );
        assert_eq!(call_u64(&mut c, "tick"), 193);
        msp.shutdown();
        net.shutdown();
    }
}

#[test]
fn a_frame_with_the_retired_tag_14_refuses_to_recover() {
    // Tag 14 once framed operation-logged shared-variable updates. A log
    // still holding one cannot be recovered by value: the frame is intact
    // (magic, length, CRC), so it must not read as a torn tail that ends
    // the log — recovery refuses the whole image instead.
    let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
    let disk = Arc::new(MemDisk::new());
    let msp = start_ckpt(&net, Arc::clone(&disk), u64::MAX, false);
    let mut c = client(&net);
    for i in 1..=3u64 {
        assert_eq!(call_u64(&mut c, "tick"), i);
    }
    msp.crash();

    // A SharedWrite-shaped body under the retired tag, framed as the log
    // frames every record: [0xA5][len u32 LE][crc32 u32 LE][payload].
    let mut payload = LogRecord::SharedWrite {
        session: SessionId(1),
        var: VarId(0),
        value: 1u64.to_le_bytes().to_vec(),
        writer_dv: DependencyVector::new(),
        prev_write: Lsn::NULL,
    }
    .to_bytes();
    payload[0] = 14;
    assert!(matches!(
        LogRecord::from_bytes(&payload),
        Err(CodecError::InvalidTag {
            context: "LogRecord",
            tag: 14
        })
    ));
    let mut frame = vec![0xA5];
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&msp_wal::crc::crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    let at = disk.len();
    disk.write(at, &frame).unwrap();

    let mut lg = logging(u64::MAX);
    lg.checkpoints_enabled = false;
    match try_start_with(&net, Arc::clone(&disk), lg) {
        Err(MspError::LogCorrupt { offset, .. }) => assert_eq!(offset, at),
        Err(e) => panic!("expected LogCorrupt, got {e}"),
        Ok(msp) => {
            let epoch = msp.epoch();
            msp.shutdown();
            panic!("recovered into epoch {epoch:?} over a retired record");
        }
    }
    net.shutdown();
}
