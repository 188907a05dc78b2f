//! Durability-watermark elision: steady-state flush RPCs are skipped for
//! dependencies already proven durable, and no elision ever survives a
//! peer's recovery (epoch safety).
//!
//! Topology: FRONT and BACK share one service domain. `relay` calls into
//! BACK once, giving the client session a durable dependency on BACK;
//! `local` touches only FRONT. Every client-bound reply performs a
//! distributed flush of the session DV, so each `local` call re-flushes
//! the *same* BACK dependency — exactly the steady-state redundancy the
//! watermark table removes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use msp_core::client::ClientOptions;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig};
use msp_net::{NetModel, Network};
use msp_types::{DomainId, Epoch, MspId};
use msp_wal::{DiskModel, MemDisk};

const FRONT: MspId = MspId(1);
const BACK: MspId = MspId(2);

fn cluster() -> ClusterConfig {
    ClusterConfig::new()
        .with_msp(FRONT, DomainId(1))
        .with_msp(BACK, DomainId(1))
}

fn cfg(id: MspId) -> MspConfig {
    let mut c = MspConfig::new(id, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(4);
    c.rpc_timeout = Duration::from_millis(60);
    c
}

fn start_back(net: &Network<Envelope>, disk: Arc<MemDisk>) -> msp_core::MspHandle {
    MspBuilder::new(cfg(BACK), cluster())
        .disk_model(DiskModel::zero())
        .service("count", |ctx, _| {
            let n = ctx
                .get_session("n")
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("n", n.to_le_bytes().to_vec());
            Ok(n.to_le_bytes().to_vec())
        })
        .start(net, disk)
        .unwrap()
}

fn start_front(net: &Network<Envelope>, disk: Arc<MemDisk>) -> msp_core::MspHandle {
    MspBuilder::new(cfg(FRONT), cluster())
        .disk_model(DiskModel::zero())
        .service("relay", |ctx, payload| ctx.call(BACK, "count", payload))
        .service("local", |ctx, _| {
            let n = ctx
                .get_session("m")
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("m", n.to_le_bytes().to_vec());
            Ok(n.to_le_bytes().to_vec())
        })
        .start(net, disk)
        .unwrap()
}

/// Drive `n` front-only requests over `client`'s existing session.
fn drive_local(client: &mut MspClient, from: u64, to: u64) {
    for i in from..=to {
        let r = client.call(FRONT, "local", &[]).unwrap();
        assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), i);
    }
}

#[test]
fn steady_state_elides_redundant_flush_rpcs() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 11);
    let (df, db) = (Arc::new(MemDisk::new()), Arc::new(MemDisk::new()));
    let front = start_front(&net, df);
    let back = start_back(&net, db);
    let mut client = MspClient::new(&net, 1, ClientOptions::default());

    // One relay call: the session DV now depends on BACK, and the
    // client-bound reply flushed that dependency (populating the
    // watermark via the flush ack or the piggybacked hint).
    let r = client.call(FRONT, "relay", &[]).unwrap();
    assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), 1);

    // Twenty front-only requests re-flush the same BACK dependency.
    drive_local(&mut client, 1, 20);

    let fs = front.stats();
    assert!(
        fs.flush_rpcs_elided > 0,
        "steady state must elide flush RPCs, stats: {fs:?}"
    );
    // At most a couple of real RPCs (the first flush, plus at most one
    // race before the ack landed); the rest were elided.
    let served = back.stats().flush_requests_served;
    assert!(
        served <= 5,
        "BACK should serve few flush requests once the watermark is set, served {served}"
    );
    assert!(
        front.watermark_of(BACK).is_some(),
        "front should hold a durable watermark for BACK"
    );
    front.shutdown();
    back.shutdown();
    net.shutdown();
}

#[test]
fn peer_recovery_invalidates_the_watermark() {
    // Epoch safety: a watermark learned before a peer's crash must never
    // elide a flush afterwards — the recovery broadcast drops it, and the
    // next flush goes over the wire again.
    let net: Network<Envelope> = Network::new(NetModel::zero(), 13);
    let (df, db) = (Arc::new(MemDisk::new()), Arc::new(MemDisk::new()));
    let front = start_front(&net, df);
    let back = start_back(&net, Arc::clone(&db));
    let mut client = MspClient::new(&net, 1, ClientOptions::default());

    let r = client.call(FRONT, "relay", &[]).unwrap();
    assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), 1);
    drive_local(&mut client, 1, 5);
    assert!(
        front.watermark_of(BACK).is_some(),
        "watermark populated before the crash"
    );

    // Crash BACK between watermark population and the next send; its
    // restart broadcasts the recovery within the domain.
    back.crash();
    let back = start_back(&net, db);

    // Wait until the front has absorbed the broadcast (async delivery):
    // it knows BACK's new epoch and has dropped the stale watermark.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if front.knowledge().current_epoch(BACK) == Some(Epoch(1))
            && front.watermark_of(BACK).is_none()
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "front never absorbed the recovery broadcast"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // The old dependency is from BACK's epoch 0; the new watermark (once
    // re-learned) is for epoch 1 and must never cover it. Every further
    // client-bound reply therefore really asks BACK again.
    let served_before = back.stats().flush_requests_served;
    drive_local(&mut client, 6, 8);
    let served_after = back.stats().flush_requests_served;
    assert!(
        served_after > served_before,
        "post-crash flushes must go over the wire, served {served_before} -> {served_after}"
    );
    if let Some((epoch, _)) = front.watermark_of(BACK) {
        assert_eq!(
            epoch,
            Epoch(1),
            "re-learned watermark carries the new epoch"
        );
    }
    front.shutdown();
    back.shutdown();
    net.shutdown();
}
