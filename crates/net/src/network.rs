//! The simulated switch: registration, faulty links, delayed delivery.
//!
//! Every address has an *inbox*: the messages in flight to it, ordered by
//! delivery deadline, and a condvar. `send` decides drops, duplicates and
//! jitter from a seeded RNG, so whole experiments are reproducible, and
//! pushes straight into the recipient's inbox. The receiving thread takes
//! the head once its simulated latency has elapsed and until then waits
//! on the condvar itself, so no thread stands between sender and
//! receiver. A sender wakes the receiver only when its message becomes
//! the new head and the receiver is blocked.
//!
//! An inbox outlives registrations. A message goes to whichever
//! incarnation of its recipient is registered when it falls due, and a
//! message that falls due while no incarnation is registered is a dead
//! letter, counted at the next touch of that inbox or at
//! [`Network::stats`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};
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

/// Snapshot of [`Network`] counters. Every message sent or duplicated is
/// delivered, dropped, dead-lettered or still in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStatsSnapshot {
    pub sent: u64,
    /// Messages handed to a receiver by `recv_timeout` / `try_recv`.
    pub delivered: u64,
    pub dropped: u64,
    pub duplicated: u64,
    /// Messages that fell due while their recipient was unregistered
    /// (crashed), or that a leaving incarnation never took.
    pub dead_letter: u64,
}

/// One address's in-flight messages; shared by all its incarnations.
struct Inbox<M> {
    state: Mutex<InboxState<M>>,
    arrived: Condvar,
}

struct InboxState<M> {
    queue: BinaryHeap<Reverse<InFlight<M>>>,
    next_seq: u64,
    /// The registered incarnation; an [`Endpoint`] holding any other
    /// number is stale.
    incarnation: Option<u64>,
    registrations: u64,
    /// Receivers blocked on `arrived`. A send notifies only when this is
    /// non-zero: a wake-up with nobody waiting is still a syscall.
    waiting: u32,
    /// Times a blocked receiver woke, for the tests of the wake rule.
    #[cfg(test)]
    wakeups: u64,
}

impl<M> Inbox<M> {
    fn new() -> Inbox<M> {
        Inbox {
            state: Mutex::new(InboxState {
                queue: BinaryHeap::new(),
                next_seq: 0,
                incarnation: None,
                registrations: 0,
                waiting: 0,
                #[cfg(test)]
                wakeups: 0,
            }),
            arrived: Condvar::new(),
        }
    }

    /// End the registered incarnation, if any: what fell due for it and
    /// was not taken is a dead letter, and its blocked receivers wake to
    /// find their endpoint stale.
    fn end_incarnation(&self, st: &mut InboxState<M>, stats: &NetStats) {
        st.incarnation = None;
        st.dead_letter_due(Instant::now(), stats);
        if st.waiting > 0 {
            self.arrived.notify_all();
        }
    }
}

impl<M> InboxState<M> {
    fn head_key(&self) -> Option<(Instant, u64)> {
        self.queue.peek().map(|Reverse(m)| (m.deliver_at, m.seq))
    }

    fn push(&mut self, deliver_at: Instant, msg: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(InFlight {
            deliver_at,
            seq,
            msg,
        }));
    }

    /// Pop every message due at `now` as a dead letter.
    fn dead_letter_due(&mut self, now: Instant, stats: &NetStats) {
        let mut dead = 0;
        while self
            .queue
            .peek()
            .is_some_and(|Reverse(m)| m.deliver_at <= now)
        {
            self.queue.pop();
            dead += 1;
        }
        if dead > 0 {
            stats.dead_letter.fetch_add(dead, Ordering::Relaxed);
        }
    }
}

struct Shared<M> {
    inboxes: RwLock<HashMap<EndpointId, Arc<Inbox<M>>>>,
    links: Mutex<HashMap<(EndpointId, EndpointId), NetModel>>,
    partitions: Mutex<HashMap<(EndpointId, EndpointId), bool>>,
    default_model: NetModel,
    rng: Mutex<StdRng>,
    stats: NetStats,
    stopped: AtomicBool,
}

impl<M> Shared<M> {
    fn inbox(&self, id: EndpointId) -> Arc<Inbox<M>> {
        if let Some(inbox) = self.inboxes.read().get(&id) {
            return Arc::clone(inbox);
        }
        Arc::clone(
            self.inboxes
                .write()
                .entry(id)
                .or_insert_with(|| Arc::new(Inbox::new())),
        )
    }
}

/// The simulated network. Clone handles freely; all clones share state.
pub struct Network<M: Send + 'static> {
    shared: Arc<Shared<M>>,
}

impl<M: Send + 'static> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M: Send + Clone + 'static> Network<M> {
    /// Create a network whose links default to `default_model`, with a
    /// seeded RNG for reproducible fault injection.
    pub fn new(default_model: NetModel, seed: u64) -> Network<M> {
        Network {
            shared: Arc::new(Shared {
                inboxes: RwLock::new(HashMap::new()),
                links: Mutex::new(HashMap::new()),
                partitions: Mutex::new(HashMap::new()),
                default_model,
                rng: Mutex::new(StdRng::seed_from_u64(seed)),
                stats: NetStats::default(),
                stopped: AtomicBool::new(false),
            }),
        }
    }

    /// Register (or re-register after a crash) an endpoint, returning its
    /// handle; an earlier incarnation's handle becomes stale. Messages
    /// still in flight that fall due after this call deliver to the new
    /// incarnation — exactly the "stale duplicate arrives after restart"
    /// hazard the sequence-number machinery must absorb.
    pub fn register(&self, id: EndpointId) -> Endpoint<M> {
        let inbox = self.shared.inbox(id);
        let incarnation = {
            let mut st = inbox.state.lock();
            inbox.end_incarnation(&mut st, &self.shared.stats);
            st.registrations += 1;
            st.incarnation = Some(st.registrations);
            st.registrations
        };
        Endpoint {
            id,
            inbox,
            incarnation,
            net: self.clone(),
        }
    }

    /// Remove an endpoint: messages that fall due for it from now on are
    /// dead-lettered (a crashed process hears nothing).
    pub fn unregister(&self, id: EndpointId) {
        let inbox = self.shared.inboxes.read().get(&id).cloned();
        if let Some(inbox) = inbox {
            inbox.end_incarnation(&mut inbox.state.lock(), &self.shared.stats);
        }
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
        let dup = duplicated.then(|| msg.clone());
        let inbox = s.inbox(to);
        let now = Instant::now();
        let wake = {
            let mut st = inbox.state.lock();
            // Checked under the inbox lock: a send racing `shutdown` is
            // either refused here or cleared by it.
            if s.stopped.load(Ordering::Relaxed) {
                return;
            }
            let head = st.head_key();
            // The original is pushed first so its `seq` stays below the
            // duplicate's.
            st.push(now + model.delay(j1), msg);
            if let Some(dup) = dup {
                s.stats.duplicated.fetch_add(1, Ordering::Relaxed);
                st.push(now + model.delay(j2), dup);
            }
            if st.incarnation.is_none() {
                st.dead_letter_due(now, &s.stats);
            }
            st.waiting > 0 && st.head_key() != head
        };
        if wake {
            inbox.arrived.notify_all();
        }
    }

    /// Counter snapshot. Settles the dead letters of every unregistered
    /// inbox first.
    pub fn stats(&self) -> NetStatsSnapshot {
        let s = &self.shared;
        let now = Instant::now();
        for inbox in s.inboxes.read().values() {
            let mut st = inbox.state.lock();
            if st.incarnation.is_none() {
                st.dead_letter_due(now, &s.stats);
            }
        }
        NetStatsSnapshot {
            sent: s.stats.sent.load(Ordering::Relaxed),
            delivered: s.stats.delivered.load(Ordering::Relaxed),
            dropped: s.stats.dropped.load(Ordering::Relaxed),
            duplicated: s.stats.duplicated.load(Ordering::Relaxed),
            dead_letter: s.stats.dead_letter.load(Ordering::Relaxed),
        }
    }

    /// Stop carrying messages: pending ones are discarded and later sends
    /// go nowhere. Used at the end of an experiment.
    pub fn shutdown(&self) {
        self.shared.stopped.store(true, Ordering::Relaxed);
        for inbox in self.shared.inboxes.read().values() {
            inbox.state.lock().queue.clear();
        }
    }
}

/// A registered party's handle: send and blocking receive.
pub struct Endpoint<M: Send + 'static> {
    id: EndpointId,
    inbox: Arc<Inbox<M>>,
    incarnation: u64,
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

    /// Blocking receive with timeout: the first message due, waiting
    /// until the head of the inbox falls due or the timeout passes.
    /// `Shutdown` once this incarnation is unregistered or replaced.
    pub fn recv_timeout(&self, timeout: Duration) -> MspResult<M> {
        let mut now = Instant::now();
        let deadline = now + timeout;
        let mut st = self.inbox.state.lock();
        loop {
            if st.incarnation != Some(self.incarnation) {
                return Err(MspError::Shutdown);
            }
            let wake_at = match st.queue.peek() {
                Some(Reverse(head)) if head.deliver_at <= now => return Ok(self.take(&mut st)),
                Some(Reverse(head)) => head.deliver_at.min(deadline),
                None => deadline,
            };
            if now >= deadline {
                return Err(MspError::Timeout);
            }
            st.waiting += 1;
            self.inbox.arrived.wait_for(&mut st, wake_at - now);
            st.waiting -= 1;
            #[cfg(test)]
            {
                st.wakeups += 1;
            }
            now = Instant::now();
        }
    }

    /// Non-blocking receive: the head of the inbox, if it is due.
    pub fn try_recv(&self) -> Option<M> {
        let mut st = self.inbox.state.lock();
        if st.incarnation != Some(self.incarnation) {
            return None;
        }
        let due = st.queue.peek()?.0.deliver_at <= Instant::now();
        due.then(|| self.take(&mut st))
    }

    fn take(&self, st: &mut InboxState<M>) -> M {
        let Reverse(item) = st.queue.pop().expect("the head was just peeked");
        self.net
            .shared
            .stats
            .delivered
            .fetch_add(1, Ordering::Relaxed);
        item.msg
    }
}

/// A dropped current incarnation hears nothing more: what falls due for
/// it from then on is a dead letter, as after `unregister`.
impl<M: Send + 'static> Drop for Endpoint<M> {
    fn drop(&mut self) {
        let mut st = self.inbox.state.lock();
        if st.incarnation == Some(self.incarnation) {
            self.inbox.end_incarnation(&mut st, &self.net.shared.stats);
        }
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

    fn fixed_delay(ms: u64) -> NetModel {
        NetModel {
            one_way: Duration::from_millis(ms),
            jitter: Duration::ZERO,
            drop_prob: 0.0,
            dup_prob: 0.0,
            time_scale: 1.0,
        }
    }

    /// Spin until `id`'s receiver is blocked in `recv_timeout`; returns
    /// its wake-up count at that point.
    fn await_blocked_receiver(net: &Network<u32>, id: EndpointId) -> u64 {
        let inbox = net.shared.inbox(id);
        loop {
            {
                let st = inbox.state.lock();
                if st.waiting == 1 {
                    return st.wakeups;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_later_deadline_send_does_not_wake_a_waiting_receiver() {
        let net: Network<u32> = Network::new(NetModel::zero(), 1);
        let (a, c) = (net.register(msp(1)), net.register(msp(3)));
        let b = net.register(msp(2));
        net.set_link(msp(1), msp(2), fixed_delay(300));
        net.set_link(msp(3), msp(2), fixed_delay(900));
        a.send(msp(2), 1);
        std::thread::scope(|s| {
            let rx = s.spawn(|| b.recv_timeout(Duration::from_secs(5)));
            let before = await_blocked_receiver(&net, msp(2));
            c.send(msp(2), 2);
            std::thread::sleep(Duration::from_millis(100));
            let inbox = net.shared.inbox(msp(2));
            let st = inbox.state.lock();
            assert_eq!(st.wakeups, before, "a send behind the head woke it");
            assert_eq!(st.waiting, 1);
            drop(st);
            assert_eq!(rx.join().unwrap().unwrap(), 1);
        });
        net.shutdown();
    }

    #[test]
    fn an_earlier_deadline_send_wakes_a_waiting_receiver() {
        let net: Network<u32> = Network::new(NetModel::zero(), 1);
        let (a, c) = (net.register(msp(1)), net.register(msp(3)));
        let b = net.register(msp(2));
        net.set_link(msp(1), msp(2), fixed_delay(2_000));
        net.set_link(msp(3), msp(2), fixed_delay(20));
        a.send(msp(2), 1);
        std::thread::scope(|s| {
            let rx = s.spawn(|| b.recv_timeout(Duration::from_secs(5)));
            await_blocked_receiver(&net, msp(2));
            let sent = Instant::now();
            c.send(msp(2), 2);
            assert_eq!(rx.join().unwrap().unwrap(), 2, "the new head comes first");
            let waited = sent.elapsed();
            assert!(waited >= Duration::from_millis(20), "early: {waited:?}");
            assert!(
                waited < Duration::from_millis(1_000),
                "the receiver slept to the old head: {waited:?}"
            );
        });
        net.shutdown();
    }

    #[test]
    fn recv_times_out_at_its_deadline_while_an_undue_message_waits() {
        let net: Network<u32> = Network::new(fixed_delay(600), 1);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        let sent = Instant::now();
        a.send(msp(2), 7);
        let t0 = Instant::now();
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(MspError::Timeout)
        ));
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(50), "early: {waited:?}");
        assert!(waited < Duration::from_millis(400), "late: {waited:?}");
        assert_eq!(b.try_recv(), None, "not due yet");
        assert_eq!(b.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
        assert!(sent.elapsed() >= Duration::from_millis(600));
        net.shutdown();
    }

    #[test]
    fn a_restart_receives_only_what_falls_due_after_it() {
        let net: Network<u32> = Network::new(NetModel::zero(), 1);
        let (a, c) = (net.register(msp(1)), net.register(msp(3)));
        let b1 = net.register(msp(2));
        net.set_link(msp(1), msp(2), fixed_delay(50));
        net.set_link(msp(3), msp(2), fixed_delay(400));
        a.send(msp(2), 1); // falls due while msp2 is down
        c.send(msp(2), 2); // falls due after the restart
        std::thread::scope(|s| {
            let blocked = s.spawn(|| b1.recv_timeout(Duration::from_secs(5)));
            await_blocked_receiver(&net, msp(2));
            net.unregister(msp(2));
            assert!(matches!(blocked.join().unwrap(), Err(MspError::Shutdown)));
        });
        std::thread::sleep(Duration::from_millis(150));
        let b2 = net.register(msp(2));
        assert_eq!(net.stats().dead_letter, 1);
        assert!(matches!(
            b1.recv_timeout(Duration::from_millis(10)),
            Err(MspError::Shutdown)
        ));
        assert_eq!(b1.try_recv(), None);
        assert_eq!(b2.recv_timeout(Duration::from_secs(5)).unwrap(), 2);
        assert!(matches!(
            b2.recv_timeout(Duration::from_millis(50)),
            Err(MspError::Timeout)
        ));
        let stats = net.stats();
        assert_eq!((stats.delivered, stats.dead_letter), (1, 1));
        net.shutdown();
    }
}
