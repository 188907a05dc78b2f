//! Scan-once crash recovery must be invisible except in speed: replaying
//! each session from the records the analysis scan retained — its whole
//! window, however long — has to land byte-for-byte on the state
//! `serial_recovery` reaches by re-reading the log. The queue travels
//! with the session, so it is consumed exactly once whichever thread
//! recovers the session, and a session recovered again later (its queue
//! long gone) reads the log.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::runtime::RuntimeStatsSnapshot;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig, MspHandle};
use msp_harness::await_recovery;
use msp_net::{NetModel, Network};
use msp_types::{DependencyVector, DomainId, Epoch, Lsn, MspId, SessionId};
use msp_wal::stats::LogStatsSnapshot;
use msp_wal::{
    CrashPoint, Disk, DiskModel, FaultPlan, FlushPolicy, LogRecord, MemDisk, PhysicalLog,
};

const M1: MspId = MspId(1);
const M2: MspId = MspId(2);

fn u64_le(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < Duration::from_secs(60), "timed out: {what}");
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Lets a test stop one service invocation in its tracks: the invocation
/// that takes the hold reports in and waits to be released.
struct Hold {
    entered: Sender<()>,
    release: Receiver<()>,
}
type Gate = Arc<Mutex<Option<Hold>>>;

fn armed_gate() -> (Gate, Receiver<()>, Sender<()>) {
    let (entered, entered_rx) = channel();
    let (release_tx, release) = channel();
    let gate = Arc::new(Mutex::new(Some(Hold { entered, release })));
    (gate, entered_rx, release_tx)
}

fn pass(gate: &Gate) {
    let hold = gate.lock().unwrap().take();
    if let Some(hold) = hold {
        hold.entered.send(()).unwrap();
        let _ = hold.release.recv();
    }
}

fn client(net: &Network<Envelope>, id: u64) -> MspClient {
    MspClient::new(
        net,
        id,
        ClientOptions {
            resend_timeout: Duration::from_millis(80),
            busy_backoff: Duration::from_millis(1),
            max_attempts: 100_000,
        },
    )
}

// ---------------------------------------------------------------- //
// One MSP: queue-fed against serial recovery of the same image.    //
// ---------------------------------------------------------------- //

fn solo_cfg(stripes: usize) -> MspConfig {
    MspConfig::new(M1, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(4)
        .with_log_stripes(stripes)
        .with_logging(LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        })
}

/// The counting MSP over `disks`. With a gate, the replay of the request
/// that takes a session's counter to `hold_at` stops there until released.
fn start_solo(
    net: &Network<Envelope>,
    disks: &[Arc<MemDisk>],
    cfg: MspConfig,
    gate: Option<(Gate, u64)>,
) -> MspHandle {
    MspBuilder::new(cfg, ClusterConfig::new().with_msp(M1, DomainId(1)))
        .disk_model(DiskModel::zero())
        .shared_var("sv", 0u64.to_le_bytes().to_vec())
        .service("work", move |ctx, payload| {
            let n = ctx.get_session("n").map_or(0, |v| u64_le(&v)) + 1;
            if let Some((gate, hold_at)) = &gate {
                if n == *hold_at && ctx.is_replaying() {
                    pass(gate);
                }
            }
            ctx.set_session("n", n.to_le_bytes().to_vec());
            ctx.set_session("blob", payload.to_vec());
            let sv = u64_le(&ctx.read_shared("sv")?) + 1;
            ctx.write_shared("sv", sv.to_le_bytes().to_vec())?;
            Ok((n * 7).to_le_bytes().to_vec())
        })
        .start_with_disks(
            net,
            disks
                .iter()
                .map(|d| Arc::clone(d) as Arc<dyn Disk>)
                .collect(),
        )
        .unwrap()
}

fn fresh_disks(stripes: usize) -> Vec<Arc<MemDisk>> {
    (0..stripes.max(1))
        .map(|_| Arc::new(MemDisk::new()))
        .collect()
}

fn restored(image: &[Vec<u8>]) -> Vec<Arc<MemDisk>> {
    image
        .iter()
        .map(|bytes| {
            let disk = Arc::new(MemDisk::new());
            disk.write(0, bytes).unwrap();
            disk
        })
        .collect()
}

/// The clients and network that wrote a crash image (one byte vector per
/// disk), kept so a test can carry their sessions across the restart.
struct Built {
    net: Network<Envelope>,
    clients: Vec<MspClient>,
    image: Vec<Vec<u8>>,
}

/// `calls[i]` requests on session `i`, issued round-robin so the replay
/// windows interleave; then the MSP crashes.
fn build(stripes: usize, calls: &[u64], payload: usize) -> Built {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 41);
    let disks = fresh_disks(stripes);
    let handle = start_solo(&net, &disks, solo_cfg(stripes), None);
    let mut clients: Vec<MspClient> = (0..calls.len() as u64)
        .map(|i| client(&net, 800 + i))
        .collect();
    for round in 0..calls.iter().copied().max().unwrap_or(0) {
        for (i, c) in clients.iter_mut().enumerate() {
            if round < calls[i] {
                let body = vec![(i as u8).wrapping_mul(13) ^ (round as u8); payload + i];
                assert_eq!(u64_le(&c.call(M1, "work", &body).unwrap()), (round + 1) * 7);
            }
        }
    }
    handle.crash();
    Built {
        net,
        clients,
        image: disks.iter().map(|d| d.snapshot()).collect(),
    }
}

fn crash_image(stripes: usize, calls: &[u64], payload: usize) -> Vec<Vec<u8>> {
    let built = build(stripes, calls, payload);
    built.net.shutdown();
    built.image
}

type Recovered = (Vec<(SessionId, Vec<u8>)>, Vec<Vec<u8>>, Epoch);

fn recover(
    image: &[Vec<u8>],
    cfg: MspConfig,
) -> (Recovered, RuntimeStatsSnapshot, LogStatsSnapshot) {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 50);
    let handle = start_solo(&net, &restored(image), cfg, None);
    await_recovery(&handle, Duration::from_secs(60), "scan_once");
    let state = (handle.dump_sessions(), handle.dump_shared(), handle.epoch());
    let out = (state, handle.stats(), handle.log_stats().unwrap());
    handle.shutdown();
    net.shutdown();
    out
}

/// The whole replay comes from the queues: identical to serial, plain
/// and striped, and no record is read back from the log.
#[test]
fn queue_fed_recovery_matches_serial_plain_and_striped() {
    for stripes in [0, 2] {
        let image = crash_image(stripes, &[12; 32], 512);
        let (serial, serial_stats, _) =
            recover(&image, solo_cfg(stripes).with_serial_recovery(true));
        assert_eq!(serial.0.len(), 32, "all 32 sessions recovered");
        assert_eq!(
            serial_stats.recovery_retained_bytes, 0,
            "the oracle re-reads"
        );

        let (got, stats, log) = recover(&image, solo_cfg(stripes).with_recovery_threads(8));
        assert_eq!(got, serial, "stripes={stripes} diverged");
        assert_eq!(stats.recovery_pool_sessions, 32);
        assert_eq!(stats.recovery_pool_failures, 0);
        assert!(stats.recovery_retained_bytes > 0);
        assert_eq!(
            log.record_reads, 0,
            "stripes={stripes}: replay read the log again"
        );
    }
}

/// Framed bytes of every session-stream record in a one-disk image: the
/// replay windows of a log with no session checkpoint.
fn stream_bytes(image: &[u8]) -> u64 {
    let disk = Arc::new(MemDisk::new());
    disk.write(0, image).unwrap();
    let log = PhysicalLog::open(disk, DiskModel::zero(), FlushPolicy::immediate()).unwrap();
    let mut scan = log.scan_from(Lsn(0));
    let mut bytes = 0;
    while let Some(item) = scan.next() {
        let (lsn, record) = item.unwrap();
        if matches!(
            record,
            LogRecord::RequestReceive { .. }
                | LogRecord::ReplyReceive { .. }
                | LogRecord::SharedRead { .. }
                | LogRecord::SharedWrite { .. }
                | LogRecord::OutgoingBind { .. }
                | LogRecord::Eos { .. }
        ) {
            bytes += scan.position().0 - lsn.0;
        }
    }
    drop(scan);
    log.close();
    bytes
}

/// A window far longer than the session checkpoint threshold (1 KB,
/// checkpoints off) is held whole by its queue, and the state is still
/// the serial one.
#[test]
fn window_past_the_checkpoint_threshold_is_held_whole() {
    let image = crash_image(0, &[10; 16], 200);
    let small_threshold = |cfg: MspConfig| {
        cfg.with_logging(LoggingConfig {
            checkpoints_enabled: false,
            session_ckpt_threshold: 1024,
            ..LoggingConfig::default()
        })
    };
    let (serial, _, _) = recover(
        &image,
        small_threshold(solo_cfg(0).with_serial_recovery(true)),
    );

    let cfg = small_threshold(solo_cfg(0).with_recovery_threads(8));
    let (got, stats, _) = recover(&image, cfg);
    assert_eq!(got, serial, "recovery diverged from serial");
    assert_eq!(
        stats.recovery_retained_bytes,
        stream_bytes(&image[0]),
        "the queues hold every window whole"
    );
    assert_eq!(stats.recovery_pool_failures, 0);
}

/// While the (single-threaded) recovery pool is held inside its first
/// session, requests on the other sessions recover them inline. Every
/// session is replayed once, from its own queue, by whoever came first.
#[test]
fn inline_recovery_racing_the_pool_takes_each_queue_once() {
    // Session 0 has the longest window, so the pool starts with it; the
    // hold is at a count only session 0 reaches.
    let calls = [9u64, 4, 4, 4, 4, 4];
    let Built {
        net,
        mut clients,
        image,
    } = build(0, &calls, 64);
    let (gate, entered, release) = armed_gate();
    let cfg = solo_cfg(0).with_recovery_threads(1);
    let handle = start_solo(&net, &restored(&image), cfg, Some((gate, 8)));
    entered
        .recv_timeout(Duration::from_secs(60))
        .expect("the pool never reached session 0");

    for c in clients.iter_mut().skip(1) {
        assert_eq!(u64_le(&c.call(M1, "work", &[1]).unwrap()), 5 * 7);
    }
    let held = handle.stats();
    assert_eq!(
        held.recovery_pool_sessions, 0,
        "the pool is still in session 0"
    );
    assert_eq!(held.orphan_recoveries, 6, "five inline, one in progress");
    assert!(!handle.recovery_complete());

    release.send(()).unwrap();
    await_recovery(&handle, Duration::from_secs(60), "inline race");
    assert_eq!(u64_le(&clients[0].call(M1, "work", &[1]).unwrap()), 10 * 7);
    let done = handle.stats();
    assert_eq!(
        done.recovery_pool_sessions, 1,
        "the pool replayed session 0 only"
    );
    assert_eq!(done.orphan_recoveries, 6, "no session was recovered twice");
    assert_eq!(done.recovery_pool_failures, 0);
    let logged: u64 = calls.iter().sum();
    assert_eq!(done.replayed_requests, logged, "each request replayed once");
    assert_eq!(u64_le(&handle.dump_shared()[0]), logged + 6);
    assert_eq!(
        handle.log_stats().unwrap().record_reads,
        0,
        "all from the queues"
    );
    handle.shutdown();
    net.shutdown();
}

/// Every record on `disk`, in log order.
fn records(disk: &Arc<MemDisk>) -> Vec<LogRecord> {
    let log = PhysicalLog::open(
        Arc::clone(disk) as Arc<dyn Disk>,
        DiskModel::zero(),
        FlushPolicy::immediate(),
    )
    .unwrap();
    let all = log.scan_from(Lsn(0)).map(|item| item.unwrap().1).collect();
    log.close();
    all
}

/// SNIPPETS.md §3, "second recovery pass", in our terms: recover, crash
/// again with no traffic in between, recover — the second recovery lands
/// on the same state, and the log grows only by the records recovery
/// itself writes, never by replayed work.
#[test]
fn second_recovery_without_traffic_changes_nothing() {
    let image = crash_image(0, &[6; 12], 96);
    let net: Network<Envelope> = Network::new(NetModel::zero(), 52);
    let disks = restored(&image);
    let mut lens = vec![records(&disks[0]).len()];
    let mut states = Vec::new();
    for pass in 0..2 {
        let handle = start_solo(&net, &disks, solo_cfg(0), None);
        await_recovery(&handle, Duration::from_secs(60), "second pass");
        states.push((handle.dump_sessions(), handle.dump_shared()));
        if pass == 0 {
            handle.crash();
        } else {
            // Flush what the last recovery appended, to look at it.
            handle.shutdown();
        }
        lens.push(records(&disks[0]).len());
    }
    assert_eq!(states[0].0.len(), 12);
    assert_eq!(
        states[1], states[0],
        "second recovery reached another state"
    );

    let all = records(&disks[0]);
    for record in &all[lens[0]..] {
        assert!(
            matches!(
                record,
                LogRecord::RecoveryComplete { .. }
                    | LogRecord::MspCheckpoint(_)
                    | LogRecord::Eos { .. }
            ),
            "recovery appended a {} record",
            record.kind()
        );
    }
    let markers = |records: &[LogRecord]| {
        records
            .iter()
            .filter(|r| matches!(r, LogRecord::RecoveryComplete { .. }))
            .count()
    };
    assert_eq!(
        markers(&all) - markers(&all[..lens[0]]),
        2,
        "one per recovery"
    );
    // Bounded: a handful of records per recovery, whatever was replayed.
    assert!(
        lens[2] - lens[0] <= 8,
        "two recoveries of 72 requests appended {} records",
        lens[2] - lens[0]
    );
    net.shutdown();
}

// ---------------------------------------------------------------- //
// Two MSPs: a recovered session is recovered again, queue gone.    //
// ---------------------------------------------------------------- //

fn duo_cfg(id: MspId) -> MspConfig {
    let mut c = MspConfig::new(id, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(4)
        .with_recovery_threads(2)
        // No checkpointer: nothing flushes a log but a reply that has to
        // be durable, so the test decides what a crash loses.
        .with_logging(LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        });
    c.rpc_timeout = Duration::from_millis(60);
    c
}

fn duo_cluster() -> ClusterConfig {
    ClusterConfig::new()
        .with_msp(M1, DomainId(1))
        .with_msp(M2, DomainId(1))
}

fn start_back(net: &Network<Envelope>, disk: Arc<MemDisk>, gate: Option<(Gate, u64)>) -> MspHandle {
    MspBuilder::new(duo_cfg(M2), duo_cluster())
        .disk_model(DiskModel::zero())
        .shared_var("sv", 0u64.to_le_bytes().to_vec())
        .service("count", move |ctx, _| {
            let n = ctx.get_session("n").map_or(0, |v| u64_le(&v)) + 1;
            if let Some((gate, hold_at)) = &gate {
                if n == *hold_at && ctx.is_replaying() {
                    pass(gate);
                }
            }
            ctx.set_session("n", n.to_le_bytes().to_vec());
            let sv = u64_le(&ctx.read_shared("sv")?) + 1;
            ctx.write_shared("sv", sv.to_le_bytes().to_vec())?;
            Ok(n.to_le_bytes().to_vec())
        })
        // Touches no shared variable, so its session depends on nothing
        // but the back's own log.
        .service("ping", |_, _| Ok(Vec::new()))
        .start(net, disk)
        .unwrap()
}

fn start_front(net: &Network<Envelope>, disk: Arc<MemDisk>) -> MspHandle {
    MspBuilder::new(duo_cfg(M1), duo_cluster())
        .disk_model(DiskModel::zero())
        .service("relay", |ctx, payload| {
            let theirs = ctx.call(M2, "count", payload)?;
            let mine = ctx.get_session("m").map_or(0, |v| u64_le(&v)) + 1;
            ctx.set_session("m", mine.to_le_bytes().to_vec());
            let mut out = mine.to_le_bytes().to_vec();
            out.extend_from_slice(&theirs);
            Ok(out)
        })
        .start(net, disk)
        .unwrap()
}

fn relay(c: &mut MspClient) -> (u64, u64) {
    let r = c.call(M1, "relay", &[]).unwrap();
    (u64_le(&r), u64_le(&r[8..]))
}

/// The back MSP crash-recovers from its queues and is held mid-replay;
/// then the front's crash turns one of the back's *already recovered*
/// sessions into an orphan. Its second recovery finds no queue, reads the
/// log, and the session still continues exactly-once.
#[test]
fn session_recovered_again_after_a_peer_crash_reads_the_log() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 53);
    let (d1, d2) = (Arc::new(MemDisk::new()), Arc::new(MemDisk::new()));
    let mut front = start_front(&net, Arc::clone(&d1));
    let mut back = start_back(&net, Arc::clone(&d2), None);

    // Client 0's back session gets the longest window (the hold below
    // lands in it); clients 1..4 make three calls each.
    let mut drivers: Vec<MspClient> = (0..4).map(|i| client(&net, 700 + i)).collect();
    for round in 1..=6u64 {
        for (i, c) in drivers.iter_mut().enumerate() {
            if i == 0 || round <= 3 {
                assert_eq!(relay(c), (round, round));
            }
        }
    }

    // Client 1's next request dies at the front: the front's log crashes
    // (volatile tail lost) on the flush for the reply, after the back has
    // executed its part in dependence on that tail.
    let plan = FaultPlan::armed(CrashPoint::PreFlush, 1);
    front.install_fault_plan(Arc::clone(&plan));
    let mut hung = drivers.remove(1);
    let hung = std::thread::spawn(move || relay(&mut hung));
    wait_until("front's log to crash under the reply", || {
        plan.fired().is_some()
    });

    // A direct client makes the back's tail durable (its reply leaves the
    // domain and group commit takes the whole tail), the doomed
    // dependency included; then the back crashes and
    // recovers from its queues — one pool thread held inside client 0's
    // session, the other draining the four remaining sessions.
    let mut direct = client(&net, 799);
    direct.call(M2, "ping", &[]).unwrap();
    // What each back session depends on, to tell later which one the
    // front's crash orphans; recovery rebuilds the same vectors.
    let back_dvs: Vec<(SessionId, DependencyVector)> = back
        .dump_sessions()
        .into_iter()
        .map(|(id, _)| (id, back.session_dv(id).unwrap()))
        .collect();
    back.crash();
    let (gate, entered, release) = armed_gate();
    back = start_back(&net, Arc::clone(&d2), Some((gate, 5)));
    entered
        .recv_timeout(Duration::from_secs(60))
        .expect("the back's pool never reached client 0's session");
    wait_until("the back's other sessions to be replayed", || {
        back.stats().recovery_pool_sessions == 4
    });
    assert_eq!(back.stats().orphan_recoveries, 5);
    assert_eq!(
        back.log_stats().unwrap().record_reads,
        0,
        "the first recovery came from the queues"
    );

    // The front restarts: its broadcast orphans client 1's back session,
    // which is recovered a second time while the pool is still open.
    front.crash();
    front = start_front(&net, Arc::clone(&d1));
    wait_until("the orphaned back session to be recovered again", || {
        back.stats().orphan_recoveries >= 6
    });
    // That count moves as the recovery starts, before it reads anything;
    // the recovery holds the session's lock until it is done.
    let knowledge = back.knowledge();
    let orphaned: Vec<SessionId> = back_dvs
        .iter()
        .filter(|(_, dv)| knowledge.is_orphan(dv, M2))
        .map(|&(id, _)| id)
        .collect();
    assert_eq!(
        orphaned.len(),
        1,
        "one back session depends on the lost tail"
    );
    back.session_dv(orphaned[0]).unwrap();
    assert!(
        back.log_stats().unwrap().record_reads > 0,
        "the second recovery had no queue and must read the log"
    );
    assert!(!back.recovery_complete(), "the pool is still held");

    release.send(()).unwrap();
    await_recovery(&back, Duration::from_secs(60), "back");
    await_recovery(&front, Duration::from_secs(60), "front");
    assert_eq!(back.stats().recovery_pool_failures, 0);

    // Exactly-once across all of it: the hung request executes once on
    // each side, and every session continues from where its client is.
    assert_eq!(hung.join().unwrap(), (4, 4));
    assert_eq!(relay(&mut drivers[0]), (7, 7));
    for c in drivers.iter_mut().skip(1) {
        assert_eq!(relay(c), (4, 4));
    }
    // 6 + 3×3 calls before, the hung one, three after.
    assert_eq!(u64_le(&back.dump_shared()[0]), 15 + 1 + 3);

    front.shutdown();
    back.shutdown();
    net.shutdown();
}
