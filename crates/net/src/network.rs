//! The simulated switch: registration, faulty links, delayed delivery.
//!
//! A single *postman* thread owns a deadline-ordered queue of in-flight
//! messages and moves each into its recipient's mailbox when its simulated
//! latency elapses. Drops and duplicates are decided at send time from a
//! seeded RNG so whole experiments are reproducible.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msp_types::{MspError, MspResult};

use crate::endpoint::EndpointId;
use crate::model::NetModel;

/// An in-flight message waiting for its delivery deadline.
struct InFlight<M> {
    deliver_at: Instant,
    /// Tie-break so the heap is a stable FIFO for equal deadlines.
    seq: u64,
    to: EndpointId,
    msg: M,
}

impl<M> PartialEq for InFlight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for InFlight<M> {}
impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for InFlight<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

/// Counters for assertions about fault injection.
#[derive(Debug, Default)]
struct NetStats {
    sent: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    dead_letter: AtomicU64,
}

/// Snapshot of [`Network`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    pub sent: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub duplicated: u64,
    /// Messages addressed to unregistered (crashed) endpoints.
    pub dead_letter: u64,
}

struct Shared<M> {
    mailboxes: Mutex<HashMap<EndpointId, Sender<M>>>,
    queue: Mutex<BinaryHeap<Reverse<InFlight<M>>>>,
    queue_cv: Condvar,
    links: Mutex<HashMap<(EndpointId, EndpointId), NetModel>>,
    partitions: Mutex<HashMap<(EndpointId, EndpointId), bool>>,
    default_model: NetModel,
    rng: Mutex<StdRng>,
    seq: AtomicU64,
    stats: NetStats,
    stopped: AtomicBool,
}

/// The simulated network. Clone handles freely; all clones share state.
pub struct Network<M: Send + 'static> {
    shared: Arc<Shared<M>>,
    postman: Arc<Mutex<Option<std::thread::JoinHandle<()>>>>,
}

impl<M: Send + 'static> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            shared: Arc::clone(&self.shared),
            postman: Arc::clone(&self.postman),
        }
    }
}

impl<M: Send + Clone + 'static> Network<M> {
    /// Create a network whose links default to `default_model`, with a
    /// seeded RNG for reproducible fault injection.
    pub fn new(default_model: NetModel, seed: u64) -> Network<M> {
        let shared = Arc::new(Shared {
            mailboxes: Mutex::new(HashMap::new()),
            queue: Mutex::new(BinaryHeap::new()),
            queue_cv: Condvar::new(),
            links: Mutex::new(HashMap::new()),
            partitions: Mutex::new(HashMap::new()),
            default_model,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            seq: AtomicU64::new(0),
            stats: NetStats::default(),
            stopped: AtomicBool::new(false),
        });
        let worker = Arc::clone(&shared);
        let postman = std::thread::Builder::new()
            .name("net-postman".into())
            .spawn(move || postman_loop(worker))
            .expect("spawn postman");
        Network {
            shared,
            postman: Arc::new(Mutex::new(Some(postman))),
        }
    }

    /// Register (or re-register after a crash) an endpoint, returning its
    /// mailbox handle. Re-registration replaces the old mailbox; messages
    /// already queued for the old incarnation deliver into the new one —
    /// exactly the "stale duplicate arrives after restart" hazard the
    /// sequence-number machinery must absorb.
    pub fn register(&self, id: EndpointId) -> Endpoint<M> {
        let (tx, rx) = crossbeam_channel::unbounded();
        self.shared.mailboxes.lock().insert(id, tx);
        Endpoint {
            id,
            rx,
            net: self.clone(),
        }
    }

    /// Remove an endpoint: subsequent messages to it are dead-lettered
    /// (a crashed process hears nothing).
    pub fn unregister(&self, id: EndpointId) {
        self.shared.mailboxes.lock().remove(&id);
    }

    /// Override the model of the directed link `from → to`.
    pub fn set_link(&self, from: EndpointId, to: EndpointId, model: NetModel) {
        self.shared.links.lock().insert((from, to), model);
    }

    /// Cut or restore both directions between `a` and `b`.
    pub fn set_partitioned(&self, a: EndpointId, b: EndpointId, down: bool) {
        let mut p = self.shared.partitions.lock();
        p.insert((a, b), down);
        p.insert((b, a), down);
    }

    /// Send `msg` from `from` to `to`, subject to the link's faults and
    /// latency. Never blocks on the recipient.
    pub fn send(&self, from: EndpointId, to: EndpointId, msg: M) {
        let s = &self.shared;
        s.stats.sent.fetch_add(1, Ordering::Relaxed);
        if s.partitions
            .lock()
            .get(&(from, to))
            .copied()
            .unwrap_or(false)
        {
            s.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let model = s
            .links
            .lock()
            .get(&(from, to))
            .cloned()
            .unwrap_or_else(|| s.default_model.clone());
        let (lost, duplicated, j1, j2) = {
            let mut rng = s.rng.lock();
            (
                model.drop_prob > 0.0 && rng.random_bool(model.drop_prob),
                model.dup_prob > 0.0 && rng.random_bool(model.dup_prob),
                rng.random::<f64>(),
                rng.random::<f64>(),
            )
        };
        if lost {
            s.stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // The original is enqueued first so its `seq` stays below the
        // duplicate's.
        let dup = duplicated.then(|| msg.clone());
        self.enqueue(to, msg, model.delay(j1));
        if let Some(dup) = dup {
            s.stats.duplicated.fetch_add(1, Ordering::Relaxed);
            self.enqueue(to, dup, model.delay(j2));
        }
    }

    fn enqueue(&self, to: EndpointId, msg: M, delay: Duration) {
        let s = &self.shared;
        let item = InFlight {
            deliver_at: Instant::now() + delay,
            seq: s.seq.fetch_add(1, Ordering::Relaxed),
            to,
            msg,
        };
        s.queue.lock().push(Reverse(item));
        s.queue_cv.notify_one();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> NetStatsSnapshot {
        let s = &self.shared.stats;
        NetStatsSnapshot {
            sent: s.sent.load(Ordering::Relaxed),
            delivered: s.delivered.load(Ordering::Relaxed),
            dropped: s.dropped.load(Ordering::Relaxed),
            duplicated: s.duplicated.load(Ordering::Relaxed),
            dead_letter: s.dead_letter.load(Ordering::Relaxed),
        }
    }

    /// Stop the postman; pending messages are discarded. Used at the end
    /// of an experiment.
    pub fn shutdown(&self) {
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        if let Some(h) = self.postman.lock().take() {
            let _ = h.join();
        }
    }
}

fn postman_loop<M: Send>(shared: Arc<Shared<M>>) {
    loop {
        let due: Option<InFlight<M>> = {
            let mut q = shared.queue.lock();
            loop {
                if shared.stopped.load(Ordering::SeqCst) {
                    return;
                }
                match q.peek() {
                    None => {
                        shared.queue_cv.wait_for(&mut q, Duration::from_millis(25));
                        continue;
                    }
                    Some(Reverse(head)) => {
                        let now = Instant::now();
                        if head.deliver_at <= now {
                            break Some(q.pop().expect("peeked").0);
                        }
                        let wait = head.deliver_at - now;
                        shared
                            .queue_cv
                            .wait_for(&mut q, wait.min(Duration::from_millis(25)));
                        continue;
                    }
                }
            }
        };
        if let Some(item) = due {
            // The mailbox is unbounded, so the send cannot block under
            // the guard.
            let delivered = match shared.mailboxes.lock().get(&item.to) {
                Some(tx) => tx.send(item.msg).is_ok(),
                None => false,
            };
            let counter = if delivered {
                &shared.stats.delivered
            } else {
                &shared.stats.dead_letter
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A registered party's handle: send and blocking receive.
pub struct Endpoint<M: Send + 'static> {
    id: EndpointId,
    rx: Receiver<M>,
    net: Network<M>,
}

impl<M: Send + Clone + 'static> Endpoint<M> {
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// Send from this endpoint.
    pub fn send(&self, to: EndpointId, msg: M) {
        self.net.send(self.id, to, msg);
    }

    /// Blocking receive with timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> MspResult<M> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(MspError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(MspError::Shutdown),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<M> {
        self.rx.try_recv().ok()
    }

    /// The underlying receiver (for `select!`-style integration in the
    /// MSP runtime's dispatcher).
    pub fn receiver(&self) -> &Receiver<M> {
        &self.rx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_types::MspId;

    fn msp(n: u32) -> EndpointId {
        EndpointId::Msp(MspId(n))
    }

    #[test]
    fn basic_delivery() {
        let net: Network<u32> = Network::new(NetModel::zero(), 1);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        a.send(msp(2), 42);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), 42);
        net.shutdown();
    }

    #[test]
    fn unregistered_recipient_dead_letters() {
        let net: Network<u32> = Network::new(NetModel::zero(), 1);
        let a = net.register(msp(1));
        a.send(msp(9), 7);
        // Wait for the postman to process it.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(net.stats().dead_letter, 1);
        net.shutdown();
    }

    #[test]
    fn drops_are_injected() {
        let net: Network<u32> = Network::new(NetModel::zero().with_faults(1.0, 0.0), 1);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        for i in 0..10 {
            a.send(msp(2), i);
        }
        assert!(b.recv_timeout(Duration::from_millis(50)).is_err());
        assert_eq!(net.stats().dropped, 10);
        net.shutdown();
    }

    #[test]
    fn duplicates_are_injected() {
        let net: Network<u32> = Network::new(NetModel::zero().with_faults(0.0, 1.0), 1);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        a.send(msp(2), 5);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), 5);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), 5);
        assert_eq!(net.stats().duplicated, 1);
        net.shutdown();
    }

    /// Counts its own clones.
    struct Counted(Arc<AtomicU64>);

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            self.0.fetch_add(1, Ordering::SeqCst);
            Counted(Arc::clone(&self.0))
        }
    }

    #[test]
    fn send_clones_only_for_a_duplicate() {
        for (dup_prob, clones_per_send) in [(0.0, 0), (1.0, 1)] {
            let net: Network<Counted> =
                Network::new(NetModel::zero().with_faults(0.0, dup_prob), 1);
            let a = net.register(msp(1));
            let b = net.register(msp(2));
            let clones = Arc::new(AtomicU64::new(0));
            for _ in 0..10 {
                a.send(msp(2), Counted(Arc::clone(&clones)));
            }
            for _ in 0..10 * (1 + clones_per_send) {
                b.recv_timeout(Duration::from_secs(1))
                    .expect("every copy arrives");
            }
            assert!(b.recv_timeout(Duration::from_millis(20)).is_err());
            assert_eq!(clones.load(Ordering::SeqCst), 10 * clones_per_send);
            net.shutdown();
        }
    }

    #[test]
    fn partition_blocks_both_directions() {
        let net: Network<u32> = Network::new(NetModel::zero(), 1);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        net.set_partitioned(msp(1), msp(2), true);
        a.send(msp(2), 1);
        b.send(msp(1), 2);
        assert!(a.recv_timeout(Duration::from_millis(50)).is_err());
        assert!(b.recv_timeout(Duration::from_millis(20)).is_err());
        net.set_partitioned(msp(1), msp(2), false);
        a.send(msp(2), 3);
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), 3);
        net.shutdown();
    }

    #[test]
    fn latency_is_applied() {
        let model = NetModel {
            one_way: Duration::from_millis(20),
            jitter: Duration::ZERO,
            drop_prob: 0.0,
            dup_prob: 0.0,
            time_scale: 1.0,
        };
        let net: Network<u32> = Network::new(model, 1);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        let t0 = Instant::now();
        a.send(msp(2), 9);
        b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(18));
        net.shutdown();
    }

    #[test]
    fn fifo_for_equal_deadlines() {
        let net: Network<u32> = Network::new(NetModel::zero(), 1);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        for i in 0..100 {
            a.send(msp(2), i);
        }
        for i in 0..100 {
            assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), i);
        }
        net.shutdown();
    }

    #[test]
    fn jitter_reorders_messages() {
        let model = NetModel {
            one_way: Duration::from_micros(100),
            jitter: Duration::from_millis(5),
            drop_prob: 0.0,
            dup_prob: 0.0,
            time_scale: 1.0,
        };
        let net: Network<u32> = Network::new(model, 7);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        for i in 0..50 {
            a.send(msp(2), i);
        }
        let mut got = Vec::new();
        for _ in 0..50 {
            got.push(b.recv_timeout(Duration::from_secs(2)).unwrap());
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>(), "all messages arrive");
        assert_ne!(got, sorted, "jitter should reorder at least one pair");
        net.shutdown();
    }

    #[test]
    fn reregistration_replaces_mailbox() {
        let net: Network<u32> = Network::new(NetModel::zero(), 1);
        let a = net.register(msp(1));
        let _b1 = net.register(msp(2));
        net.unregister(msp(2));
        a.send(msp(2), 1); // dead-lettered
        std::thread::sleep(Duration::from_millis(30));
        let b2 = net.register(msp(2));
        a.send(msp(2), 2);
        assert_eq!(b2.recv_timeout(Duration::from_secs(1)).unwrap(), 2);
        net.shutdown();
    }

    #[test]
    fn per_link_override() {
        let net: Network<u32> = Network::new(NetModel::zero(), 1);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        net.set_link(msp(1), msp(2), NetModel::zero().with_faults(1.0, 0.0));
        a.send(msp(2), 1);
        assert!(b.recv_timeout(Duration::from_millis(40)).is_err());
        // Reverse direction unaffected.
        b.send(msp(1), 2);
        assert_eq!(a.recv_timeout(Duration::from_secs(1)).unwrap(), 2);
        net.shutdown();
    }
}
