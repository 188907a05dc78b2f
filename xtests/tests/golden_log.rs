//! Golden-log conformance: the exact record sequences the protocols of
//! Figures 7 and 8 must produce, verified by scanning the physical log.

use std::sync::Arc;
use std::time::Duration;

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig};
use msp_net::{NetModel, Network};
use msp_types::{DomainId, Lsn, MspId};
use msp_wal::log::DATA_START;
use msp_wal::{DiskModel, FlushPolicy, MemDisk, PhysicalLog};

const M1: MspId = MspId(1);
const M2: MspId = MspId(2);

fn cluster() -> ClusterConfig {
    ClusterConfig::new()
        .with_msp(M1, DomainId(1))
        .with_msp(M2, DomainId(1))
}

fn no_ckpt_cfg(id: MspId) -> MspConfig {
    // Disable checkpoints so the golden sequence has no interleaved
    // checkpoint records.
    MspConfig::new(id, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(2)
        .with_logging(LoggingConfig {
            checkpoints_enabled: false,
            session_ckpt_threshold: u64::MAX,
            shared_ckpt_writes: u64::MAX,
            msp_ckpt_interval: Duration::from_secs(3600),
            force_ckpt_after: u32::MAX,
            checkpoint_interval_bytes: 0,
        })
}

fn scan_kinds(disk: &Arc<MemDisk>) -> Vec<String> {
    let log = PhysicalLog::open(
        Arc::clone(disk) as Arc<dyn msp_wal::Disk>,
        DiskModel::zero(),
        FlushPolicy::immediate(),
    )
    .unwrap();
    let kinds: Vec<String> = log
        .scan_from(Lsn(DATA_START))
        .map(|r| r.unwrap().1.kind().to_string())
        .collect();
    log.close();
    kinds
}

#[test]
fn figure7_and_8_record_sequence_for_one_request() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 1);
    let (d1, d2) = (Arc::new(MemDisk::new()), Arc::new(MemDisk::new()));
    let m1 = MspBuilder::new(no_ckpt_cfg(M1), cluster())
        .disk_model(DiskModel::zero())
        .shared_var("sv", vec![0])
        .service("method1", |ctx, payload| {
            let v = ctx.read_shared("sv")?; // SharedRead
            ctx.write_shared("sv", v)?; // SharedWrite
            ctx.call(M2, "method2", payload)?; // ReplyReceive (on return)
            Ok(vec![])
        })
        .start(&net, Arc::clone(&d1) as Arc<dyn msp_wal::Disk>)
        .unwrap();
    let m2 = MspBuilder::new(no_ckpt_cfg(M2), cluster())
        .disk_model(DiskModel::zero())
        .service("method2", |_ctx, _| Ok(vec![]))
        .start(&net, Arc::clone(&d2) as Arc<dyn msp_wal::Disk>)
        .unwrap();

    let mut c = MspClient::new(&net, 1, ClientOptions::default());
    c.call(M1, "method1", &[]).unwrap();
    m1.shutdown();
    m2.shutdown();
    net.shutdown();

    // MSP1's log: the first-boot incarnation marker (epoch 0, flushed
    // before the MSP serves anything, so an empty durable log can never
    // be mistaken for a fresh boot after a crash), then the request
    // receive, value logging of the read, the backward-chained write,
    // the outgoing-session binding of the first call to MSP2, and the
    // logged reply of that call — in execution order (Figures 7 and 8).
    assert_eq!(
        scan_kinds(&d1),
        vec![
            "RecoveryComplete",
            "RequestReceive",
            "SharedRead",
            "SharedWrite",
            "OutgoingBind",
            "ReplyReceive"
        ],
    );
    // MSP2's log: the boot marker, then the (intra-domain) request
    // receive.
    assert_eq!(scan_kinds(&d2), vec!["RecoveryComplete", "RequestReceive"]);
}

#[test]
fn session_end_writes_its_marker() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 2);
    let d1 = Arc::new(MemDisk::new());
    let m1 = MspBuilder::new(
        no_ckpt_cfg(M1),
        ClusterConfig::new().with_msp(M1, DomainId(1)),
    )
    .disk_model(DiskModel::zero())
    .service("noop", |_ctx, _| Ok(vec![]))
    .start(&net, Arc::clone(&d1) as Arc<dyn msp_wal::Disk>)
    .unwrap();
    let mut c = MspClient::new(&net, 1, ClientOptions::default());
    c.call(M1, "noop", &[]).unwrap();
    c.end_session(M1).unwrap();
    m1.shutdown();
    net.shutdown();
    assert_eq!(
        scan_kinds(&d1),
        vec!["RecoveryComplete", "RequestReceive", "SessionEnd"]
    );
}

#[test]
fn recovery_complete_and_announcements_reach_the_log() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 3);
    let (d1, d2) = (Arc::new(MemDisk::new()), Arc::new(MemDisk::new()));
    let build_m1 = |net: &Network<Envelope>| {
        MspBuilder::new(no_ckpt_cfg(M1), cluster())
            .disk_model(DiskModel::zero())
            .service("relay", |ctx, p| ctx.call(M2, "noop", p))
            .start(net, Arc::clone(&d1) as Arc<dyn msp_wal::Disk>)
            .unwrap()
    };
    let build_m2 = |net: &Network<Envelope>| {
        MspBuilder::new(no_ckpt_cfg(M2), cluster())
            .disk_model(DiskModel::zero())
            .service("noop", |_ctx, _| Ok(vec![]))
            .start(net, Arc::clone(&d2) as Arc<dyn msp_wal::Disk>)
            .unwrap()
    };
    let m1 = build_m1(&net);
    let m2 = build_m2(&net);
    let mut c = MspClient::new(&net, 1, ClientOptions::default());
    c.call(M1, "relay", &[]).unwrap();
    m2.crash();
    let m2 = build_m2(&net);
    // Give M1's dispatcher a moment to log the broadcast.
    std::thread::sleep(Duration::from_millis(50));
    m1.shutdown();
    m2.shutdown();
    net.shutdown();

    // M2's own log ends with its RecoveryComplete marker.
    let kinds2 = scan_kinds(&d2);
    assert!(
        kinds2.iter().any(|k| k == "RecoveryComplete"),
        "M2 logs its epoch transition: {kinds2:?}"
    );
    // M1 logged (and flushed) the recovery announcement it received.
    let kinds1 = scan_kinds(&d1);
    assert!(
        kinds1.iter().any(|k| k == "RecoveryAnnouncement"),
        "M1 persists the broadcast knowledge: {kinds1:?}"
    );
}
