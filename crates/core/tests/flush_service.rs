//! The participant's side of a distributed log flush (§3.1): how an MSP
//! answers a peer's `FlushRequest`.
//!
//! The test plays MSP1, a peer in MSP2's service domain. Its requests are
//! answered optimistically — MSP2 replies with its session's dependency
//! vector and flushes nothing — so every call leaves MSP2 a logged state
//! `(epoch, lsn)` that is not yet durable. The test then asks MSP2 to
//! flush such states and reads the `FlushReply`s:
//!
//! * the verdict table — current epoch already durable, pending, pending
//!   when the MSP crashes; older epoch survived or lost; future epoch; the
//!   `FlushServe` crash point;
//! * concurrency — requests ride one device flush together, and a request
//!   whose verdict is known never waits behind a pending device flush;
//! * no thread of the runtime exists to serve them (Linux only).

use std::sync::Arc;
use std::time::{Duration, Instant};

use msp_core::config::LoggingConfig;
use msp_core::envelope::{DurableHint, RequestMsg};
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspConfig, MspHandle, ReplyStatus};
use msp_net::{Endpoint, EndpointId, NetModel, Network};
use msp_types::{DomainId, Epoch, Lsn, MspId, RequestSeq, SessionId, StateId};
use msp_wal::{CrashPoint, DiskModel, FaultPlan, FlushPolicy, MemDisk};

const MSP1: MspId = MspId(1);
const MSP2: MspId = MspId(2);

/// The modelled log device: a one-sector flush costs about 60 ms, so one
/// device flush is long against everything else a request does.
fn slow_disk() -> DiskModel {
    DiskModel::default().with_scale(8.0)
}

/// Wall time of one modelled device flush.
fn device_flush() -> Duration {
    slow_disk().flush_cost(1)
}

/// MSP2 over `disk`, in one domain with MSP1 (played by the test), with
/// checkpoints off so that nothing but a `FlushRequest` makes its log
/// durable.
fn start_msp2(net: &Network<Envelope>, disk: Arc<MemDisk>) -> MspHandle {
    start_msp2_with(net, disk, FlushPolicy::default())
}

fn start_msp2_with(net: &Network<Envelope>, disk: Arc<MemDisk>, policy: FlushPolicy) -> MspHandle {
    msp2(0, policy).start(net, disk).unwrap()
}

fn msp2(log_stripes: usize, policy: FlushPolicy) -> MspBuilder {
    let cluster = ClusterConfig::new()
        .with_msp(MSP1, DomainId(1))
        .with_msp(MSP2, DomainId(1));
    let cfg = MspConfig::new(MSP2, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(4)
        .with_log_stripes(log_stripes)
        .with_logging(LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        });
    MspBuilder::new(cfg, cluster)
        .disk_model(slow_disk())
        .flush_policy(policy)
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

struct Peer {
    net: Network<Envelope>,
    ep: Endpoint<Envelope>,
    next_session: u64,
    next_req: u64,
}

impl Peer {
    fn new(net: &Network<Envelope>) -> Peer {
        Peer {
            net: net.clone(),
            ep: net.register(EndpointId::Msp(MSP1)),
            next_session: 1,
            next_req: 1,
        }
    }

    /// Call `counter` on a fresh session of MSP2 as a same-domain peer and
    /// return the state it left behind: logged, not flushed.
    fn logged_state(&mut self) -> StateId {
        let session = SessionId(self.next_session);
        self.next_session += 1;
        self.net.send(
            EndpointId::Msp(MSP1),
            EndpointId::Msp(MSP2),
            Envelope::Request(RequestMsg {
                session,
                seq: RequestSeq::FIRST,
                method: "counter".into(),
                payload: Vec::new(),
                reply_to: EndpointId::Msp(MSP1),
                sender_dv: Some(msp_types::DependencyVector::new()),
                durable_hint: None,
                recoveries: Vec::new(),
            }),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Envelope::Reply(rep)) = self.ep.recv_timeout(Duration::from_millis(50)) {
                if rep.session != session {
                    continue;
                }
                assert_eq!(rep.status, ReplyStatus::Ok(1u64.to_le_bytes().to_vec()));
                let dv = rep.sender_dv.expect("an intra-domain reply carries the DV");
                return dv.get(MSP2).expect("the call depends on MSP2's state");
            }
        }
        panic!("MSP2 did not answer the call");
    }

    /// Send a `FlushRequest` for `(epoch, lsn)`; returns its request id.
    fn request_flush(&mut self, epoch: Epoch, lsn: Lsn) -> u64 {
        let req_id = self.next_req;
        self.next_req += 1;
        self.net.send(
            EndpointId::Msp(MSP1),
            EndpointId::Msp(MSP2),
            Envelope::FlushRequest {
                from: EndpointId::Msp(MSP1),
                req_id,
                epoch,
                lsn,
            },
        );
        req_id
    }

    /// The next `FlushReply` (other traffic, such as MSP2's recovery
    /// broadcast, is skipped): `(req_id, ok, durable hint, arrival)`.
    fn next_flush_reply(&self, within: Duration) -> Option<FlushAnswer> {
        let deadline = Instant::now() + within;
        loop {
            let left = deadline.checked_duration_since(Instant::now())?;
            match self.ep.recv_timeout(left) {
                Ok(Envelope::FlushReply {
                    req_id,
                    ok,
                    durable,
                }) => {
                    return Some(FlushAnswer {
                        req_id,
                        ok,
                        durable,
                        at: Instant::now(),
                    })
                }
                Ok(_) => {}
                Err(_) => return None,
            }
        }
    }

    /// Ask for one flush and wait for its answer.
    fn flush(&mut self, state: StateId) -> FlushAnswer {
        let id = self.request_flush(state.epoch, state.lsn);
        let a = self
            .next_flush_reply(Duration::from_secs(10))
            .expect("every flush request is answered");
        assert_eq!(a.req_id, id);
        a
    }
}

struct FlushAnswer {
    req_id: u64,
    ok: bool,
    durable: Option<DurableHint>,
    at: Instant,
}

/// The hint on a successful answer is read when the flush settles, so it
/// already covers the requested state.
fn assert_durable_hint_covers(a: &FlushAnswer, state: StateId) {
    let hint = a
        .durable
        .expect("a successful answer carries a durable hint");
    assert_eq!((hint.msp, hint.epoch), (MSP2, state.epoch));
    assert!(hint.durable > state.lsn, "hint {hint:?} for {state:?}");
}

#[test]
fn current_epoch_pending_then_durable() {
    let net = Network::new(NetModel::zero(), 7);
    let msp2 = start_msp2(&net, Arc::new(MemDisk::new()));
    let mut peer = Peer::new(&net);
    let state = peer.logged_state();
    assert_eq!(state.epoch, msp2.epoch());

    // Pending: answered once a device flush has made the state durable.
    let t0 = Instant::now();
    let a = peer.flush(state);
    assert!(a.ok, "a pending state of the current epoch is flushed");
    assert!(
        a.at - t0 >= device_flush() / 2,
        "answered after {:?}, before any device flush could end",
        a.at - t0
    );
    assert_durable_hint_covers(&a, state);

    // Already durable: answered at once.
    let t0 = Instant::now();
    let a = peer.flush(state);
    assert!(a.ok);
    assert!(a.at - t0 < device_flush() / 2, "{:?}", a.at - t0);
    assert_durable_hint_covers(&a, state);

    // A future epoch can only be a stale request from before several
    // crashes of the requester: refused, with no hint.
    let future = Epoch(msp2.epoch().0 + 1);
    let a = peer.flush(StateId::new(future, state.lsn));
    assert!(!a.ok && a.durable.is_none());

    assert_eq!(msp2.stats().flush_requests_served, 3);
    msp2.shutdown();
}

/// On the striped log the answer is sent from a stripe's flusher, where
/// the merged horizon cannot be computed (it takes every stripe's lock);
/// the hint is what the settled ticket proved.
#[test]
fn a_striped_log_answers_with_a_hint_covering_the_state() {
    let net = Network::new(NetModel::zero(), 13);
    let disks: Vec<Arc<dyn msp_wal::Disk>> =
        vec![Arc::new(MemDisk::new()), Arc::new(MemDisk::new())];
    let msp2 = msp2(2, FlushPolicy::default())
        .start_with_disks(&net, disks)
        .unwrap();
    let mut peer = Peer::new(&net);
    let state = peer.logged_state();
    let t0 = Instant::now();
    let a = peer.flush(state);
    assert!(a.ok);
    assert!(a.at - t0 >= device_flush() / 2, "{:?}", a.at - t0);
    assert_durable_hint_covers(&a, state);
    msp2.shutdown();
}

#[test]
fn a_crash_while_the_flush_is_pending_answers_lost_never_ok() {
    let net = Network::new(NetModel::zero(), 8);
    let disk = Arc::new(MemDisk::new());
    // The flusher holds every flush for a batch window (200 ms at this
    // disk scale) before it writes: a crash inside the window lands
    // while the state is still only in the volatile tail. (A crash during
    // the device write itself lands after it: the state is durable then.)
    let batched = FlushPolicy::batched(Duration::from_millis(25));
    let msp2 = start_msp2_with(&net, Arc::clone(&disk), batched);
    let mut peer = Peer::new(&net);
    let state = peer.logged_state();
    peer.request_flush(state.epoch, state.lsn);
    let deadline = Instant::now() + Duration::from_secs(10);
    while msp2.stats().flush_requests_served == 0 {
        assert!(Instant::now() < deadline, "the request never reached MSP2");
        std::thread::sleep(Duration::from_micros(200));
    }
    msp2.crash();
    let a = peer
        .next_flush_reply(Duration::from_secs(10))
        .expect("the failed flush ticket answers the request");
    assert!(!a.ok, "the state died with the volatile tail");
    assert!(a.durable.is_none());
    assert!(
        peer.next_flush_reply(device_flush() * 2).is_none(),
        "one answer per request"
    );
    // The restarted MSP agrees: the state is lost.
    let msp2 = start_msp2(&net, disk);
    assert!(!peer.flush(state).ok);
    msp2.shutdown();
}

#[test]
fn older_epochs_answer_from_the_recovery_history() {
    let net = Network::new(NetModel::zero(), 9);
    let disk = Arc::new(MemDisk::new());
    let msp2 = start_msp2(&net, Arc::clone(&disk));
    let mut peer = Peer::new(&net);
    let survived = peer.logged_state();
    assert!(peer.flush(survived).ok);
    // Logged after the last flush, never made durable: the crash loses it.
    let lost = peer.logged_state();
    assert!(lost.lsn > survived.lsn);
    msp2.crash();

    let msp2 = start_msp2(&net, disk);
    assert!(msp2.epoch() > survived.epoch);
    let t0 = Instant::now();
    let a = peer.flush(survived);
    assert!(a.ok, "a state that survived the crash is durable");
    assert!(a.at - t0 < device_flush() / 2, "no device flush needed");
    let a = peer.flush(lost);
    assert!(!a.ok, "a state the crash lost is reported lost");
    assert!(a.durable.is_none());
    msp2.shutdown();
}

#[test]
fn the_flush_serve_crash_point_answers_lost() {
    let net = Network::new(NetModel::zero(), 10);
    let msp2 = start_msp2(&net, Arc::new(MemDisk::new()));
    let mut peer = Peer::new(&net);
    let state = peer.logged_state();
    let plan = FaultPlan::armed(CrashPoint::FlushServe, 1);
    msp2.install_fault_plan(Arc::clone(&plan));
    let a = peer.flush(state);
    assert!(!a.ok && a.durable.is_none());
    assert_eq!(plan.fired(), Some(CrashPoint::FlushServe));
    msp2.crash();
}

#[test]
fn concurrent_requests_share_device_flushes_and_never_queue() {
    let net = Network::new(NetModel::zero(), 11);
    let msp2 = start_msp2(&net, Arc::new(MemDisk::new()));
    let mut peer = Peer::new(&net);
    let flush = device_flush();

    // Eight pending states, eight requests in flight at once: one device
    // flush covers every record logged before it starts.
    let pending: Vec<StateId> = (0..8).map(|_| peer.logged_state()).collect();
    let t0 = Instant::now();
    for s in &pending {
        peer.request_flush(s.epoch, s.lsn);
    }
    for _ in 0..pending.len() {
        let a = peer.next_flush_reply(flush * 10).expect("answered");
        assert!(a.ok);
    }
    let took = t0.elapsed();
    assert!(
        took < flush * 5 / 2,
        "eight requests took {took:?}: more than two device flushes of {flush:?}"
    );

    // Two requests that need a device flush go first; six whose states are
    // already durable follow. Those six are answered while the flush is
    // still running — no request waits behind another's device flush.
    let fresh = [peer.logged_state(), peer.logged_state()];
    let t0 = Instant::now();
    let slow: Vec<u64> = fresh
        .iter()
        .map(|s| peer.request_flush(s.epoch, s.lsn))
        .collect();
    for s in &pending[..6] {
        peer.request_flush(s.epoch, s.lsn);
    }
    for _ in 0..8 {
        let a = peer.next_flush_reply(flush * 10).expect("answered");
        assert!(a.ok);
        let after = a.at - t0;
        if slow.contains(&a.req_id) {
            assert!(after < flush * 5 / 2, "pending request took {after:?}");
        } else {
            assert!(
                after < flush / 2,
                "a durable state was answered after {after:?}, behind a device flush of {flush:?}"
            );
        }
    }
    msp2.shutdown();
}

/// No thread of a running MSP waits to serve flush requests.
#[cfg(target_os = "linux")]
#[test]
fn a_started_msp_has_no_infra_thread() {
    let net = Network::new(NetModel::zero(), 12);
    let msp2 = start_msp2(&net, Arc::new(MemDisk::new()));
    // A new thread names itself when it first runs and shows its
    // parent's name until then: wait until every thread this one started
    // has taken its own.
    let me = std::fs::read_to_string("/proc/thread-self/comm").unwrap();
    let t0 = Instant::now();
    let names = loop {
        let names: Vec<String> = std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
            .map(|n| n.trim().to_string())
            .collect();
        if names.iter().filter(|n| *n == me.trim()).count() <= 1 {
            break names;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "threads still unnamed: {names:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert!(
        names.iter().any(|n| n == "msp2-dispatch"),
        "the runtime is running: {names:?}"
    );
    assert!(
        !names.iter().any(|n| n.contains("infra")),
        "threads: {names:?}"
    );
    msp2.shutdown();
}
