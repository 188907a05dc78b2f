//! The load generator: one thread, one endpoint, many sessions.
//!
//! It speaks the end-client protocol itself — per session the next
//! request sequence number, resend until the reply arrives, re-poll on
//! *Busy* — so it can keep hundreds of sessions in flight from a single
//! thread, open loop (requests leave on a schedule whatever the server
//! does) or closed loop (a session sends its next request when the
//! previous reply arrives). Every reply is checked: the session counter
//! it carries must be the previous one plus one (exactly-once), and the
//! shared-variable counter must be a value no other reply carried.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use crate::api::{self, Endpoint, EndpointId, Envelope, MspId, ReplyStatus, SessionId};
use crate::trace::Trace;

/// Resend a request whose reply has not arrived after this long.
const RESEND_AFTER: Duration = Duration::from_millis(200);
/// Re-poll this long after a *Busy* reply.
const BUSY_BACKOFF: Duration = Duration::from_millis(1);
/// A request with no reply after this long is a failed operation.
const GIVE_UP_AFTER: Duration = Duration::from_secs(2);
/// Latency beyond which a request counts into `client.over_50ms_share`.
const SLOW: Duration = Duration::from_millis(50);

/// One open-loop arrival: when it is due (from the schedule's origin) and
/// on which session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub offset_ns: u64,
    pub session: u32,
}

/// xorshift64* — the benchmark's only randomness, so a seed fixes every
/// generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 scrambles small seeds (1, 2, ...) apart.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Poisson arrivals at `rate_rps` for `seconds`, each on a uniformly
/// chosen session.
pub fn poisson_schedule(seed: u64, rate_rps: f64, seconds: f64, sessions: u32) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity((rate_rps * seconds * 1.05) as usize);
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate_rps;
        if t >= seconds {
            return out;
        }
        out.push(Arrival {
            offset_ns: (t * 1e9) as u64,
            session: rng.below(u64::from(sessions)) as u32,
        });
    }
}

struct Inflight {
    /// Trace id shared by the spans of this request.
    id: u64,
    due: Instant,
    first_sent: Instant,
    last_sent: Instant,
    /// Set by a *Busy* reply: when to poll again.
    poll_at: Option<Instant>,
    /// (busy reply arrived, re-poll sent) pairs, for the trace.
    busy_rounds: Vec<(Instant, Instant)>,
}

struct Sess {
    id: SessionId,
    next_seq: u64,
    /// Session counter of the last verified reply.
    acked: u64,
    inflight: Option<Inflight>,
    /// Open loop: arrivals that came due while a request was in flight.
    queue: VecDeque<Instant>,
    /// Closed loop: requests this session may still start.
    budget: u64,
    /// When the session last became free to send.
    idle_since: Instant,
    dead: bool,
}

/// Checks that every reply's shared-variable counter is a fresh value, so
/// at the end the values seen are exactly `base+1 ..= base+count`: the
/// variable's total equals the committed operations.
#[derive(Default)]
pub struct SharedCheck {
    base: u64,
    seen: Vec<bool>,
    count: u64,
    max: u64,
    duplicates: u64,
}

impl SharedCheck {
    pub fn starting_at(base: u64) -> SharedCheck {
        SharedCheck {
            base,
            max: base,
            ..SharedCheck::default()
        }
    }

    fn note(&mut self, value: u64) {
        let Some(slot) = value.checked_sub(self.base + 1) else {
            self.duplicates += 1;
            return;
        };
        let slot = slot as usize;
        if self.seen.len() <= slot {
            self.seen.resize(slot + 1, false);
        }
        if std::mem::replace(&mut self.seen[slot], true) {
            self.duplicates += 1;
        }
        self.count += 1;
        self.max = self.max.max(value);
    }

    /// The variable's value after the operations seen so far.
    pub fn total(&self) -> u64 {
        self.base + self.count
    }

    /// `true` when no value repeated and none is missing.
    pub fn consistent(&self) -> bool {
        self.duplicates == 0 && self.max == self.base + self.count
    }
}

/// What the generator counted while `recording`: a request counts where
/// its reply arrives, so the samples between two points in time are the
/// requests committed between them.
#[derive(Default)]
pub struct Window {
    /// Latency of every committed request, in order of completion.
    pub latencies_ns: Vec<u64>,
    pub started: u64,
    pub late_ns: u64,
    pub backlog_max: u64,
    pub resends: u64,
    pub busy_polls: u64,
    pub slow: u64,
}

pub struct Generator {
    ep: Endpoint<Envelope>,
    me: EndpointId,
    target: EndpointId,
    method: &'static str,
    payload: Vec<u8>,
    sessions: Vec<Sess>,
    index: HashMap<SessionId, usize>,
    inflight: usize,
    schedule: Vec<Arrival>,
    schedule_origin: Instant,
    schedule_next: usize,
    /// Closed-loop sessions stop starting requests at this instant.
    closed_until: Instant,
    next_id: u64,
    pub shared: SharedCheck,
    /// Operations started and failed over the generator's whole life.
    pub attempted: u64,
    pub failed: u64,
    pub recording: bool,
    pub window: Window,
    pub trace: Trace,
}

impl Generator {
    pub fn new(
        ep: Endpoint<Envelope>,
        target: MspId,
        method: &'static str,
        payload: Vec<u8>,
        sessions: usize,
        trace: Trace,
    ) -> Generator {
        let now = Instant::now();
        let sessions: Vec<Sess> = (0..sessions)
            .map(|_| Sess {
                id: api::next_session_id(),
                next_seq: 0,
                acked: 0,
                inflight: None,
                queue: VecDeque::new(),
                budget: 0,
                idle_since: now,
                dead: false,
            })
            .collect();
        Generator {
            me: ep.id(),
            ep,
            target: EndpointId::Msp(target),
            method,
            payload,
            index: sessions
                .iter()
                .enumerate()
                .map(|(i, s)| (s.id, i))
                .collect(),
            sessions,
            inflight: 0,
            schedule: Vec::new(),
            schedule_origin: now,
            schedule_next: 0,
            closed_until: now,
            next_id: 0,
            shared: SharedCheck::default(),
            attempted: 0,
            failed: 0,
            recording: false,
            window: Window::default(),
            trace,
        }
    }

    /// Per session `(next sequence number, last acknowledged counter)`.
    pub fn positions(&self) -> Vec<(u64, u64)> {
        self.sessions
            .iter()
            .map(|s| (s.next_seq, s.acked))
            .collect()
    }

    /// Put every session back to an earlier [`Self::positions`] and the
    /// shared-variable check back to `shared_total` — the client's view
    /// of a restored crash image.
    pub fn rewind(&mut self, positions: &[(u64, u64)], shared_total: u64) {
        assert_eq!(self.inflight, 0, "rewind with requests in flight");
        for (s, &(next_seq, acked)) in self.sessions.iter_mut().zip(positions) {
            s.next_seq = next_seq;
            s.acked = acked;
        }
        self.shared = SharedCheck::starting_at(shared_total);
    }

    /// Open loop: arrivals come due at `origin + offset`.
    pub fn set_schedule(&mut self, origin: Instant, schedule: Vec<Arrival>) {
        self.schedule = schedule;
        self.schedule_origin = origin;
        self.schedule_next = 0;
    }

    /// Closed loop: every session may start `calls` more requests, one
    /// after the other, none after `until`.
    pub fn set_closed(&mut self, calls: u64, until: Instant) {
        for s in &mut self.sessions {
            s.budget = calls;
        }
        self.closed_until = until;
    }

    /// Start one request on session `idx` now (it must be idle).
    pub fn send_on(&mut self, idx: usize) {
        assert!(self.sessions[idx].inflight.is_none(), "session busy");
        self.start(idx, Instant::now(), Instant::now());
    }

    pub fn is_idle(&self, idx: usize) -> bool {
        self.sessions[idx].inflight.is_none()
    }

    /// Run until `until`; with `drain`, keep going until every request in
    /// flight or queued has its reply (or has failed). Returns early once
    /// nothing is pending and nothing more can come due (a closed loop
    /// whose budgets ran out).
    pub fn run(&mut self, until: Instant, drain: bool) {
        loop {
            let now = Instant::now();
            let wake = self.fire(now);
            let past = now >= until;
            let pending = self.inflight > 0 || self.sessions.iter().any(|s| !s.queue.is_empty());
            if past && !(drain && pending) {
                return;
            }
            let more_coming = self.schedule_next < self.schedule.len()
                || (now < self.closed_until
                    && self.sessions.iter().any(|s| !s.dead && s.budget > 0));
            if !pending && !more_coming {
                return;
            }
            self.receive_until(if past { wake } else { wake.min(until) });
        }
    }

    /// Serve timers and replies for at most `wait`, starting nothing new
    /// beyond what is already queued.
    pub fn pump(&mut self, wait: Duration) {
        let now = Instant::now();
        let wake = self.fire(now).min(now + wait);
        self.receive_until(wake);
    }

    /// Start everything that is due, serve resend / re-poll / give-up
    /// timers, and return when the next timer or arrival falls.
    fn fire(&mut self, now: Instant) -> Instant {
        while let Some(a) = self.schedule.get(self.schedule_next) {
            let due = self.schedule_origin + Duration::from_nanos(a.offset_ns);
            if due > now {
                break;
            }
            self.sessions[a.session as usize].queue.push_back(due);
            self.schedule_next += 1;
        }
        let mut wake = now + Duration::from_millis(50);
        if let Some(a) = self.schedule.get(self.schedule_next) {
            wake = wake.min(self.schedule_origin + Duration::from_nanos(a.offset_ns));
        }
        let mut backlog = 0u64;
        for i in 0..self.sessions.len() {
            if self.sessions[i].dead {
                continue;
            }
            if self.sessions[i].inflight.is_none() {
                self.start_next(i, now);
            }
            backlog += self.sessions[i].queue.len() as u64;
            let Some(f) = &mut self.sessions[i].inflight else {
                continue;
            };
            if now.duration_since(f.first_sent) >= GIVE_UP_AFTER {
                self.give_up(i);
                continue;
            }
            let resend = match f.poll_at {
                Some(at) => at <= now,
                None => now.duration_since(f.last_sent) >= RESEND_AFTER,
            };
            if resend {
                if let Some(at) = f.poll_at.take() {
                    f.busy_rounds.push((at - BUSY_BACKOFF, now));
                } else if self.recording {
                    self.window.resends += 1;
                }
                f.last_sent = now;
                self.transmit(i);
            }
            let f = self.sessions[i].inflight.as_ref().expect("still in flight");
            wake = wake
                .min(f.poll_at.unwrap_or(f.last_sent + RESEND_AFTER))
                .min(f.first_sent + GIVE_UP_AFTER);
        }
        if self.recording {
            self.window.backlog_max = self.window.backlog_max.max(backlog);
        }
        wake
    }

    /// Start the next request of idle session `i`, if it has one.
    fn start_next(&mut self, i: usize, now: Instant) {
        let s = &mut self.sessions[i];
        if let Some(due) = s.queue.pop_front() {
            self.start(i, due, now);
        } else if s.budget > 0 && now < self.closed_until {
            s.budget -= 1;
            self.start(i, now, now);
        }
    }

    fn start(&mut self, i: usize, due: Instant, now: Instant) {
        self.next_id += 1;
        self.attempted += 1;
        self.inflight += 1;
        if self.recording {
            self.window.started += 1;
            // The generator's own lateness: an arrival that came due
            // behind the session's previous request could not leave
            // before that one's reply.
            let could_leave = due.max(self.sessions[i].idle_since);
            self.window.late_ns += now.saturating_duration_since(could_leave).as_nanos() as u64;
        }
        self.sessions[i].inflight = Some(Inflight {
            id: self.next_id,
            due,
            first_sent: now,
            last_sent: now,
            poll_at: None,
            busy_rounds: Vec::new(),
        });
        self.transmit(i);
    }

    fn transmit(&self, i: usize) {
        let s = &self.sessions[i];
        self.ep.send(
            self.target,
            api::request(s.id, s.next_seq, self.method, &self.payload, self.me),
        );
    }

    fn give_up(&mut self, i: usize) {
        self.sessions[i].inflight = None;
        self.sessions[i].dead = true;
        self.inflight -= 1;
        self.failed += 1;
    }

    fn receive_until(&mut self, wake: Instant) {
        let wait = wake.saturating_duration_since(Instant::now());
        if let Ok(env) = self.ep.recv_timeout(wait) {
            self.on_envelope(env);
            while let Some(env) = self.ep.try_recv() {
                self.on_envelope(env);
            }
        }
    }

    fn on_envelope(&mut self, env: Envelope) {
        let Envelope::Reply(rep) = env else { return };
        let Some(&i) = self.index.get(&rep.session) else {
            return;
        };
        let s = &mut self.sessions[i];
        let Some(f) = &mut s.inflight else { return };
        if rep.seq.0 != s.next_seq {
            return; // duplicate of an earlier reply
        }
        let now = Instant::now();
        let payload = match rep.status {
            ReplyStatus::Busy => {
                if f.poll_at.is_none() {
                    f.poll_at = Some(now + BUSY_BACKOFF);
                    if self.recording {
                        self.window.busy_polls += 1;
                    }
                }
                return;
            }
            ReplyStatus::Ok(p) => Some(p),
            ReplyStatus::Err(_) => None,
        };
        let f = s.inflight.take().expect("checked above");
        self.inflight -= 1;
        s.next_seq += 1;
        s.idle_since = now;
        let verified = payload.is_some_and(|p| {
            let ok = p.len() >= 16 && api::reply_session_counter(&p) == s.acked + 1;
            if ok {
                s.acked += 1;
                self.shared.note(api::reply_shared_counter(&p));
            }
            ok
        });
        if !verified {
            s.dead = true;
            self.failed += 1;
            return;
        }
        if self.recording {
            let latency = now.saturating_duration_since(f.due);
            self.window.latencies_ns.push(latency.as_nanos() as u64);
            self.window.slow += u64::from(latency > SLOW);
        }
        if self.recording && self.trace.enabled() {
            let req = self.trace.span("req", f.id, None, f.due, now);
            self.trace.span("req.late", f.id, req, f.due, f.first_sent);
            let wait = self.trace.span("req.wait", f.id, req, f.first_sent, now);
            for (from, to) in f.busy_rounds {
                self.trace.span("req.busy", f.id, wait, from, to);
            }
        }
        // Closed loop: the reply is the cue for the next request.
        self.start_next(i, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(schedule: &[Arrival]) -> Vec<u8> {
        schedule
            .iter()
            .flat_map(|a| {
                let mut b = a.offset_ns.to_le_bytes().to_vec();
                b.extend_from_slice(&a.session.to_le_bytes());
                b
            })
            .collect()
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 2000.0, 2.0, 128);
        let b = poisson_schedule(7, 2000.0, 2.0, 128);
        let c = poisson_schedule(8, 2000.0, 2.0, 128);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn schedule_has_the_asked_rate_and_order() {
        let s = poisson_schedule(1, 2000.0, 5.0, 128);
        let n = s.len() as f64;
        assert!((9_600.0..10_400.0).contains(&n), "{n} arrivals");
        assert!(s.windows(2).all(|w| w[0].offset_ns <= w[1].offset_ns));
        assert!(s
            .iter()
            .all(|a| a.session < 128 && a.offset_ns < 5_000_000_000));
    }

    #[test]
    fn shared_check_wants_each_value_once() {
        let mut c = SharedCheck::starting_at(10);
        for v in [12, 11, 13] {
            c.note(v);
        }
        assert!(c.consistent());
        assert_eq!(c.total(), 13);
        c.note(15); // 14 missing
        assert!(!c.consistent());
        c.note(14);
        assert!(c.consistent());
        c.note(12); // executed twice
        assert!(!c.consistent());
    }
}
