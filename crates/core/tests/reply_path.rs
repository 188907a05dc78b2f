//! The reply path (§3.1): a reply that crosses a pessimistic boundary
//! must not leave before everything it depends on is durable, and no
//! worker waits for that — the reply is parked on its durability gate.
//!
//! The test plays an end client of MSP1 over a raw network endpoint, so
//! it decides when a resend arrives. MSP1's log holds every device write
//! back for a group-commit window that is long against everything else a
//! request does, so "before the flush" and "after the flush" are far
//! apart in wall time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use msp_core::config::LoggingConfig;
use msp_core::envelope::{ReplyMsg, RequestMsg};
use msp_core::runtime::END_SESSION_METHOD;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspConfig, MspHandle, ReplyStatus};
use msp_net::{Endpoint, EndpointId, NetModel, Network};
use msp_types::{DomainId, MspId, RequestSeq, SessionId};
use msp_wal::{DiskModel, FlushPolicy, MemDisk};

const MSP1: MspId = MspId(1);
const CLIENT: EndpointId = EndpointId::Client(1);

/// How long the flusher holds a device write back after the first flush
/// request reaches it.
const WINDOW: Duration = Duration::from_millis(300);

/// MSP1 alone in its domain, checkpoints off, with a `counter` method
/// that counts the calls of its session.
fn msp1(workers: usize) -> MspBuilder {
    let cluster = ClusterConfig::new().with_msp(MSP1, DomainId(1));
    let cfg = MspConfig::new(MSP1, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(workers)
        .with_logging(LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        });
    MspBuilder::new(cfg, cluster)
        .disk_model(DiskModel::default().with_scale(1.0))
        .flush_policy(FlushPolicy::immediate().with_group_commit_window(Some(WINDOW)))
        .service("counter", |ctx, _payload| {
            let n = ctx
                .get_session("n")
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("n", n.to_le_bytes().to_vec());
            Ok(n.to_le_bytes().to_vec())
        })
}

fn send(net: &Network<Envelope>, session: SessionId, seq: RequestSeq, method: &str) {
    net.send(
        CLIENT,
        EndpointId::Msp(MSP1),
        Envelope::Request(RequestMsg {
            session,
            seq,
            method: method.into(),
            payload: Vec::new(),
            reply_to: CLIENT,
            sender_dv: None,
            durable_hint: None,
            recoveries: Vec::new(),
        }),
    );
}

/// The replies that reach the client within `within`, stopping early
/// once `n` have, each with its arrival time.
fn replies(ep: &Endpoint<Envelope>, n: usize, within: Duration) -> Vec<(ReplyMsg, Instant)> {
    let deadline = Instant::now() + within;
    let mut got = Vec::new();
    while got.len() < n {
        let Some(left) = deadline.checked_duration_since(Instant::now()) else {
            break;
        };
        match ep.recv_timeout(left) {
            Ok(Envelope::Reply(rep)) => got.push((rep, Instant::now())),
            Ok(_) => {}
            Err(_) => break,
        }
    }
    got
}

fn counted(n: u64) -> ReplyStatus {
    ReplyStatus::Ok(n.to_le_bytes().to_vec())
}

fn wait_recovered(msp: &MspHandle) {
    let t0 = Instant::now();
    while !msp.recovery_complete() {
        assert!(t0.elapsed() < Duration::from_secs(10), "recovery hangs");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// An END resend that overtakes the first END's still-parked
/// acknowledgement is answered off the session's tombstone; that re-ack
/// must wait for the `SessionEnd` record too. Crashing MSP1 the moment
/// the first acknowledgement arrives must leave a log whose recovery
/// still ends the session: a later request on it is dropped, not run.
#[test]
fn an_end_resend_is_acknowledged_only_once_the_end_is_durable() {
    let net = Network::new(NetModel::zero(), 3);
    let ep = net.register(CLIENT);
    let disk = Arc::new(MemDisk::new());
    // Two run tokens, so the resend need not wait for the first end.
    let msp = msp1(2).start(&net, Arc::clone(&disk) as _).unwrap();
    let session = SessionId(1 << 40);
    let first = RequestSeq::FIRST;
    let end = first.next();
    let wait = Duration::from_secs(10);

    send(&net, session, first, "counter");
    let got = replies(&ep, 1, wait);
    assert_eq!(got[0].0.status, counted(1));

    send(&net, session, end, END_SESSION_METHOD);
    std::thread::sleep(WINDOW / 10);
    send(&net, session, end, END_SESSION_METHOD);
    let ack = loop {
        let (rep, _) = replies(&ep, 1, wait).remove(0);
        if rep.status != ReplyStatus::Busy {
            break rep;
        }
        // The resend found the first end still running: resend, as a
        // client does.
        send(&net, session, end, END_SESSION_METHOD);
    };
    assert_eq!((ack.seq, ack.status), (end, ReplyStatus::Ok(Vec::new())));
    msp.crash();

    let msp = msp1(2).start(&net, disk as _).unwrap();
    wait_recovered(&msp);
    send(&net, session, end, "counter");
    // Only a late copy of the end's acknowledgement may still arrive.
    for (rep, _) in replies(&ep, usize::MAX, 3 * WINDOW) {
        assert_eq!(
            rep.status,
            ReplyStatus::Ok(Vec::new()),
            "the acknowledged end was lost: the session ran another request"
        );
    }
    msp.shutdown();
}

/// A duplicate resend that arrives while the first reply's gate is still
/// pending parks the buffered reply on a gate of its own and leaves the
/// worker free: with one worker, another session's request runs at once
/// and rides the same device write, instead of waiting for it and then
/// paying for a second one.
#[test]
fn a_duplicate_resend_leaves_the_worker_free() {
    let net = Network::new(NetModel::zero(), 5);
    let ep = net.register(CLIENT);
    // One run token: requests run one at a time in arrival order, so the
    // resend never finds its session busy and b runs after it.
    let msp = msp1(1).start(&net, Arc::new(MemDisk::new()) as _).unwrap();
    let (a, b) = (SessionId(2 << 40), SessionId(3 << 40));
    let first = RequestSeq::FIRST;

    send(&net, a, first, "counter");
    std::thread::sleep(WINDOW / 15);
    send(&net, a, first, "counter");
    std::thread::sleep(WINDOW / 15);
    send(&net, b, first, "counter");

    let got = replies(&ep, 3, Duration::from_secs(10));
    assert_eq!(got.len(), 3, "a twice, b once");
    for (rep, _) in &got {
        assert_eq!(rep.status, counted(1), "the resend gets the buffered reply");
    }
    let arrival = |s: SessionId| got.iter().find(|(rep, _)| rep.session == s).unwrap().1;
    let lag = arrival(b).saturating_duration_since(arrival(a));
    assert!(
        lag < WINDOW / 2,
        "b's reply came {lag:?} after a's: the resend held the worker across a flush"
    );
    msp.shutdown();
}
