//! Minimal `crossbeam-channel`-compatible MPMC channel over `std::sync`.
//!
//! Provides `bounded` / `unbounded` channels whose `Sender` *and*
//! `Receiver` are `Clone` (std's receiver is not, and the workspace
//! relies on cloned receivers for worker pools), the error types with
//! crossbeam's names, and a polling `select!` macro covering the
//! `recv(rx) -> pat => expr` arm form used here.
//!
//! Wake discipline, as in the real crate: a send notifies only when a
//! receiver is blocked, and a receive only when a sender is blocked (which
//! needs a full bounded channel). Both counts live under the queue mutex,
//! so a waiter is counted before it can miss a notification.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    blocked_receivers: usize,
    blocked_senders: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
    capacity: Option<usize>,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Push `value` and wake a receiver if one is blocked.
    fn push(&self, mut st: MutexGuard<'_, State<T>>, value: T) {
        st.queue.push_back(value);
        let wake = st.blocked_receivers > 0;
        drop(st);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Pop the front item and wake a sender if one is blocked; hands the
    /// guard back when the queue is empty.
    fn pop<'a>(&self, mut st: MutexGuard<'a, State<T>>) -> Result<T, MutexGuard<'a, State<T>>> {
        let Some(v) = st.queue.pop_front() else {
            return Err(st);
        };
        let wake = st.blocked_senders > 0;
        drop(st);
        if wake {
            self.not_full.notify_one();
        }
        Ok(v)
    }
}

pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    channel(Some(cap))
}

fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            blocked_receivers: 0,
            blocked_senders: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
        capacity,
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender gone: wake blocked receivers so they observe
            // disconnection.
            let _guard = self.shared.lock();
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _guard = self.shared.lock();
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> Sender<T> {
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        loop {
            if self.shared.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            match self.shared.capacity {
                Some(cap) if st.queue.len() >= cap => {
                    st.blocked_senders += 1;
                    st = self
                        .shared
                        .not_full
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                    st.blocked_senders -= 1;
                }
                _ => break,
            }
        }
        self.shared.push(st, value);
        Ok(())
    }

    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let st = self.shared.lock();
        if self.shared.receivers.load(Ordering::SeqCst) == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if let Some(cap) = self.shared.capacity {
            if st.queue.len() >= cap {
                return Err(TrySendError::Full(value));
            }
        }
        self.shared.push(st, value);
        Ok(())
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.lock();
        loop {
            st = match self.shared.pop(st) {
                Ok(v) => return Ok(v),
                Err(st) => st,
            };
            if self.shared.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvError);
            }
            st.blocked_receivers += 1;
            st = self
                .shared
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
            st.blocked_receivers -= 1;
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            st = match self.shared.pop(st) {
                Ok(v) => return Ok(v),
                Err(st) => st,
            };
            if self.shared.senders.load(Ordering::SeqCst) == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            st.blocked_receivers += 1;
            st = self
                .shared
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            st.blocked_receivers -= 1;
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let _st = match self.shared.pop(self.shared.lock()) {
            Ok(v) => return Ok(v),
            Err(st) => st,
        };
        if self.shared.senders.load(Ordering::SeqCst) == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    pub fn is_empty(&self) -> bool {
        self.shared.lock().queue.is_empty()
    }

    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

#[derive(PartialEq, Eq, Clone, Copy)]
pub enum TrySendError<T> {
    Full(T),
    Disconnected(T),
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("sending on a full channel"),
            TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
        }
    }
}

impl<T> std::error::Error for TrySendError<T> {}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl std::error::Error for TryRecvError {}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
            RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// Ties the `Err(RecvError)` result produced by a disconnected
/// `select!` arm to the receiver's element type so inference succeeds
/// even when the arm body never inspects the `Ok` payload.
#[doc(hidden)]
pub fn __select_disconnected<T>(_rx: &Receiver<T>) -> Result<T, RecvError> {
    Err(RecvError)
}

/// Polling `select!` over `recv(rx) -> pat => body` arms, accepting
/// crossbeam's arm grammar (block bodies need no trailing comma).
/// Checks each receiver round-robin with `try_recv`, parking briefly
/// between sweeps. A disconnected channel fires its arm with
/// `Err(RecvError)`, matching crossbeam's semantics of select
/// returning on closed channels.
#[macro_export]
macro_rules! select {
    // -- arm normalization: collect arms as `{ recv(rx) -> pat => block }` --
    (@norm [$($done:tt)*] recv($rx:expr) -> $pat:pat => $body:block , $($rest:tt)*) => {
        $crate::select!(@norm [$($done)* { recv($rx) -> $pat => $body }] $($rest)*)
    };
    (@norm [$($done:tt)*] recv($rx:expr) -> $pat:pat => $body:block $($rest:tt)*) => {
        $crate::select!(@norm [$($done)* { recv($rx) -> $pat => $body }] $($rest)*)
    };
    (@norm [$($done:tt)*] recv($rx:expr) -> $pat:pat => $body:expr , $($rest:tt)*) => {
        $crate::select!(@norm [$($done)* { recv($rx) -> $pat => { $body } }] $($rest)*)
    };
    (@norm [$($done:tt)*] recv($rx:expr) -> $pat:pat => $body:expr) => {
        $crate::select!(@norm [$($done)* { recv($rx) -> $pat => { $body } }])
    };
    // -- emission --
    (@norm [$( { recv($rx:expr) -> $pat:pat => $body:block } )+]) => {{
        loop {
            let mut __cb_shim_fired = false;
            $(
                if !__cb_shim_fired {
                    match ($rx).try_recv() {
                        Ok(__cb_shim_v) => {
                            __cb_shim_fired = true;
                            let $pat: ::std::result::Result<_, $crate::RecvError> =
                                Ok(__cb_shim_v);
                            $body
                        }
                        Err($crate::TryRecvError::Disconnected) => {
                            __cb_shim_fired = true;
                            let $pat = $crate::__select_disconnected(&$rx);
                            $body
                        }
                        Err($crate::TryRecvError::Empty) => {}
                    }
                }
            )+
            if __cb_shim_fired {
                break;
            }
            ::std::thread::sleep(::std::time::Duration::from_millis(1));
        }
    }};
    ($($arms:tt)+) => {
        $crate::select!(@norm [] $($arms)+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unbounded_send_recv() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));

        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn cloned_receivers_share_queue() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        let handles: Vec<_> = [rx, rx2]
            .into_iter()
            .map(|r| thread::spawn(move || r.recv().unwrap()))
            .collect();
        tx.send(10u32).unwrap();
        tx.send(20u32).unwrap();
        let mut got: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![10, 20]);
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let t = thread::spawn(move || tx.send(2).unwrap());
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        t.join().unwrap();
    }

    #[test]
    fn mpmc_stress_receives_every_item_exactly_once() {
        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 4;
        const ITEMS: u64 = 10_000;
        const WAIT: Duration = Duration::from_secs(1);
        let (tx, rx) = unbounded::<u64>();
        let received = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let (rx, received) = (rx.clone(), Arc::clone(&received));
                thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        // A wait that runs to its timeout while an item is
                        // queued slept through that item's send.
                        let started = Instant::now();
                        match rx.recv_timeout(WAIT) {
                            Ok(v) => {
                                assert!(started.elapsed() < WAIT, "slept through a send");
                                got.push(v);
                                received.fetch_add(1, Ordering::SeqCst);
                            }
                            Err(RecvTimeoutError::Disconnected) => return got,
                            Err(RecvTimeoutError::Timeout) => {
                                assert!(rx.is_empty(), "timed out with items queued");
                            }
                        }
                    }
                })
            })
            .collect();
        drop(rx);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..ITEMS {
                        tx.send(p * ITEMS + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        // The channel stays connected until every item is taken, so the
        // disconnect's wake-up cannot stand in for a lost send wake-up.
        let total = (PRODUCERS * ITEMS) as usize;
        while received.load(Ordering::SeqCst) < total && !consumers.iter().all(|c| c.is_finished())
        {
            thread::sleep(Duration::from_millis(1));
        }
        drop(tx);
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..PRODUCERS * ITEMS).collect::<Vec<_>>());
    }

    #[test]
    fn a_recv_releases_a_sender_blocked_on_a_full_channel() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let (done_tx, done_rx) = unbounded();
        let t = thread::spawn(move || {
            tx.send(2).unwrap();
            done_tx.send(()).unwrap();
        });
        while rx.shared.lock().blocked_senders == 0 {
            thread::yield_now();
        }
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(
            done_rx.recv_timeout(Duration::from_secs(5)),
            Ok(()),
            "the blocked sender was not released"
        );
        t.join().unwrap();
        assert_eq!(rx.try_recv(), Ok(2));
    }

    #[test]
    fn try_send_on_a_full_channel_is_full() {
        let (tx, rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
    }

    #[test]
    fn dropping_the_last_sender_wakes_a_blocked_recv() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        let t = thread::spawn(move || rx.recv());
        while tx.shared.lock().blocked_receivers == 0 {
            thread::yield_now();
        }
        drop(tx);
        drop(tx2);
        assert_eq!(t.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn select_fires_ready_arm() {
        let (tx, rx) = unbounded::<u32>();
        let (_tx2, rx2) = unbounded::<u32>();
        tx.send(7).unwrap();
        let mut hit = 0;
        select! {
            recv(rx) -> r => { hit = r.unwrap(); },
            recv(rx2) -> _r => { hit = 999; },
        }
        assert_eq!(hit, 7);
    }

    #[test]
    fn select_fires_on_disconnect() {
        let (tx, rx) = unbounded::<u32>();
        drop(tx);
        let mut disconnected = false;
        select! {
            recv(rx) -> r => { disconnected = r.is_err(); },
        }
        assert!(disconnected);
    }
}
