//! The parallel recovery engine must be invisible except in speed:
//! replaying N crashed sessions concurrently from the analysis scan's
//! queues has to land byte-for-byte on the state serial replay produces,
//! and a peer crashing *while* the parallel pool is still replaying must
//! still get its orphans eliminated (§4, Figure 12).

use std::sync::Arc;
use std::time::Duration;

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig};
use msp_harness::await_recovery;
use msp_net::{NetModel, Network};
use msp_types::{DomainId, MspId};
use msp_wal::{DiskModel, MemDisk};

const M1: MspId = MspId(1);
const M2: MspId = MspId(2);

fn wait_recovered(handle: &msp_core::MspHandle) {
    await_recovery(handle, Duration::from_secs(60), "parallel_recovery");
}

// ---------------------------------------------------------------- //
// Equivalence: serial and parallel replay of one crash image.      //
// ---------------------------------------------------------------- //

fn solo_cfg() -> MspConfig {
    MspConfig::new(M1, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(4)
        .with_logging(LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        })
}

fn start_solo(net: &Network<Envelope>, disk: Arc<MemDisk>, cfg: MspConfig) -> msp_core::MspHandle {
    MspBuilder::new(cfg, ClusterConfig::new().with_msp(M1, DomainId(1)))
        .disk_model(DiskModel::zero())
        .shared_var("sv", 0u64.to_le_bytes().to_vec())
        .service("work", |ctx, payload| {
            let n = ctx
                .get_session("n")
                .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("n", n.to_le_bytes().to_vec());
            ctx.set_session("blob", payload.to_vec());
            let sv = u64::from_le_bytes(ctx.read_shared("sv")?[..8].try_into().unwrap()) + 1;
            ctx.write_shared("sv", sv.to_le_bytes().to_vec())?;
            Ok((n * 3).to_le_bytes().to_vec())
        })
        .start(net, disk)
        .unwrap()
}

/// A crash image with ≥32 interleaved sessions: `clients` sessions, each
/// `calls` requests, issued round-robin so the replay windows overlap.
fn crash_image(clients: u64, calls: u64) -> Vec<u8> {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 21);
    let disk = Arc::new(MemDisk::new());
    let handle = start_solo(&net, Arc::clone(&disk), solo_cfg());
    let mut cs: Vec<MspClient> = (0..clients)
        .map(|i| MspClient::new(&net, 500 + i, ClientOptions::default()))
        .collect();
    for round in 0..calls {
        for (i, c) in cs.iter_mut().enumerate() {
            let payload = vec![(i as u8) ^ (round as u8); 64 + i];
            let r = c.call(M1, "work", &payload).unwrap();
            assert_eq!(
                u64::from_le_bytes(r[..8].try_into().unwrap()),
                (round + 1) * 3
            );
        }
    }
    handle.crash();
    let image = disk.snapshot();
    net.shutdown();
    image
}

#[test]
fn parallel_replay_is_byte_identical_to_serial() {
    let image = crash_image(36, 6);

    let recover = |cfg: MspConfig| {
        let net: Network<Envelope> = Network::new(NetModel::zero(), 22);
        let disk = Arc::new(MemDisk::new());
        use msp_wal::Disk;
        disk.write(0, &image).unwrap();
        let handle = start_solo(&net, disk, cfg);
        wait_recovered(&handle);
        let out = (
            handle.dump_sessions(),
            handle.dump_shared(),
            handle.epoch(),
            handle.log_stats().unwrap(),
        );
        handle.shutdown();
        net.shutdown();
        out
    };

    let (ser_sessions, ser_shared, ser_epoch, ser_log) =
        recover(solo_cfg().with_serial_recovery(true));
    let (par_sessions, par_shared, par_epoch, par_log) =
        recover(solo_cfg().with_recovery_threads(8));

    assert_eq!(ser_sessions.len(), 36, "all 36 sessions recovered");
    assert_eq!(
        par_sessions, ser_sessions,
        "parallel replay must reproduce serial session state byte-for-byte \
         (vars, next expected seq, buffered replies)"
    );
    assert_eq!(par_shared, ser_shared, "shared variables identical");
    assert_eq!(par_epoch, ser_epoch, "same recovery epoch");
    assert!(
        ser_log.record_reads >= 36 * 6,
        "the serial oracle reads every replayed request back"
    );
    assert_eq!(
        par_log.record_reads, 0,
        "parallel replay is fed by the analysis scan and reads nothing twice"
    );
}

/// A degenerate pool sizing must still be byte-identical to the serial
/// baseline: a replay pool far smaller than the session population
/// (sessions queue behind the workers) only changes speed, never state.
#[test]
fn degenerate_cache_and_pool_sizings_match_serial() {
    let image = crash_image(36, 6);

    let recover = |cfg: MspConfig, net_seed: u64| {
        let net: Network<Envelope> = Network::new(NetModel::zero(), net_seed);
        let disk = Arc::new(MemDisk::new());
        use msp_wal::Disk;
        disk.write(0, &image).unwrap();
        let handle = start_solo(&net, disk, cfg);
        wait_recovered(&handle);
        let out = (handle.dump_sessions(), handle.dump_shared(), handle.epoch());
        handle.shutdown();
        net.shutdown();
        out
    };

    let baseline = recover(solo_cfg().with_serial_recovery(true), 30);
    assert_eq!(baseline.0.len(), 36, "all 36 sessions recovered");

    // Pool (2 workers) far smaller than the replay window (36 crashed
    // sessions): most sessions wait their turn on the queue.
    let tiny_pool = recover(solo_cfg().with_recovery_threads(2), 32);
    assert_eq!(tiny_pool, baseline, "2-thread pool diverged");
}

// ---------------------------------------------------------------- //
// Multi-crash: a peer crashes during the parallel replay phase.    //
// ---------------------------------------------------------------- //

fn duo_cluster() -> ClusterConfig {
    ClusterConfig::new()
        .with_msp(M1, DomainId(1))
        .with_msp(M2, DomainId(1))
}

fn duo_cfg(id: MspId) -> MspConfig {
    let mut c = MspConfig::new(id, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(4)
        .with_recovery_threads(4);
    c.rpc_timeout = Duration::from_millis(60);
    c
}

/// The back MSP, restarted with a *scaled* disk model so its replay
/// phase takes real wall time — wide enough for the front to crash into.
fn start_back(net: &Network<Envelope>, disk: Arc<MemDisk>, scale: f64) -> msp_core::MspHandle {
    MspBuilder::new(duo_cfg(M2), duo_cluster())
        .disk_model(DiskModel::default().with_scale(scale))
        .shared_var("sv", 0u64.to_le_bytes().to_vec())
        .service("count", |ctx, _| {
            let n = ctx
                .get_session("n")
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("n", n.to_le_bytes().to_vec());
            let sv = u64::from_le_bytes(ctx.read_shared("sv")?[..8].try_into().unwrap()) + 1;
            ctx.write_shared("sv", sv.to_le_bytes().to_vec())?;
            Ok(n.to_le_bytes().to_vec())
        })
        .start(net, disk)
        .unwrap()
}

fn start_front(net: &Network<Envelope>, disk: Arc<MemDisk>, scale: f64) -> msp_core::MspHandle {
    MspBuilder::new(duo_cfg(M1), duo_cluster())
        .disk_model(DiskModel::default().with_scale(scale))
        .service("relay", |ctx, payload| {
            let theirs = ctx.call(M2, "count", payload)?;
            let mine = ctx
                .get_session("m")
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("m", mine.to_le_bytes().to_vec());
            let mut out = mine.to_le_bytes().to_vec();
            out.extend_from_slice(&theirs);
            Ok(out)
        })
        .start(net, disk)
        .unwrap()
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

fn pair(v: &[u8]) -> (u64, u64) {
    (
        u64::from_le_bytes(v[..8].try_into().unwrap()),
        u64::from_le_bytes(v[8..16].try_into().unwrap()),
    )
}

#[test]
fn peer_crash_during_parallel_replay_still_eliminates_orphans() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 23);
    let (d1, d2) = (Arc::new(MemDisk::new()), Arc::new(MemDisk::new()));
    let front = start_front(&net, Arc::clone(&d1), 0.0);
    let mut back = start_back(&net, Arc::clone(&d2), 0.0);

    // Several concurrent sessions so both MSPs have a population to
    // replay in parallel.
    let mut drivers: Vec<MspClient> = (0..6).map(|i| client(&net, 700 + i)).collect();
    for round in 1..=4u64 {
        for c in drivers.iter_mut() {
            assert_eq!(pair(&c.call(M1, "relay", &[]).unwrap()), (round, round));
        }
    }

    // Crash the back; restart it with a scaled disk model so its
    // parallel replay takes real time, and crash the front into that
    // replay window. Both recover; optimistic logging means the front's
    // lost tail can orphan back-side work, which the recovery broadcasts
    // plus EOS skip ranges must eliminate.
    back.crash();
    back = start_back(&net, Arc::clone(&d2), 0.02);
    let front2 = {
        front.crash();
        start_front(&net, Arc::clone(&d1), 0.0)
    };
    wait_recovered(&back);
    wait_recovered(&front2);

    // Every session continues exactly-once across the double crash.
    for round in 5..=8u64 {
        for c in drivers.iter_mut() {
            assert_eq!(pair(&c.call(M1, "relay", &[]).unwrap()), (round, round));
        }
    }
    assert!(back.stats().crash_recoveries >= 1);
    assert!(front2.stats().crash_recoveries >= 1);

    front2.shutdown();
    back.shutdown();
    net.shutdown();
}
