//! The end-client library (§2.1, §3.1).
//!
//! An end client lives outside every service domain. Its obligations
//! under the protocol are small and purely local:
//!
//! * keep, per session, the *next available request sequence number*;
//! * resend the same request until its reply is received (messages may be
//!   lost, duplicated or reordered);
//! * identify duplicate replies by `(session, seq)`;
//! * back off briefly when the server reports *Busy* (checkpointing or
//!   recovering) — the paper's clients sleep 100 ms and resend (§5.4).
//!
//! The client needs no log: exactly-once execution is the *server's*
//! guarantee, delivered by logging the request before processing and
//! replaying it after crashes, combined with this resend discipline.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use msp_net::{Endpoint, EndpointId, Network};
use msp_types::{MspError, MspId, MspResult, RequestSeq, SessionId};

use crate::envelope::{Envelope, ReplyStatus, RequestMsg};
use crate::runtime::{next_session_id, END_SESSION_METHOD};

/// Client-side tuning.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// How long to wait for a reply before resending the request.
    pub resend_timeout: Duration,
    /// Back-off after a *Busy* reply (paper: 100 ms), already scaled.
    pub busy_backoff: Duration,
    /// Give up after this many resends of one request.
    pub max_attempts: u32,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            resend_timeout: Duration::from_millis(400),
            busy_backoff: Duration::from_millis(2),
            max_attempts: 10_000,
        }
    }
}

struct ClientSession {
    id: SessionId,
    next_seq: RequestSeq,
}

/// An end-client process.
pub struct MspClient {
    endpoint: Endpoint<Envelope>,
    me: EndpointId,
    sessions: HashMap<MspId, ClientSession>,
    opts: ClientOptions,
}

impl MspClient {
    /// Register client number `client_id` on the network.
    pub fn new(net: &Network<Envelope>, client_id: u64, opts: ClientOptions) -> MspClient {
        let me = EndpointId::Client(client_id);
        MspClient {
            endpoint: net.register(me),
            me,
            sessions: HashMap::new(),
            opts,
        }
    }

    /// The session this client holds with `target`, if any.
    pub fn session_with(&self, target: MspId) -> Option<SessionId> {
        self.sessions.get(&target).map(|s| s.id)
    }

    /// Call `method` at `target` with exactly-once semantics; blocks until
    /// the reply arrives (resending as needed). A session with `target`
    /// is started implicitly on first use.
    pub fn call(&mut self, target: MspId, method: &str, payload: &[u8]) -> MspResult<Vec<u8>> {
        match self.call_status(target, method, payload)? {
            ReplyStatus::Ok(p) => Ok(p),
            ReplyStatus::Err(e) => Err(MspError::Application(e)),
            ReplyStatus::Busy => unreachable!("busy handled internally"),
        }
    }

    /// End the session with `target` (§2.1: sessions are ended by a
    /// client request).
    pub fn end_session(&mut self, target: MspId) -> MspResult<()> {
        if self.sessions.contains_key(&target) {
            self.call_status(target, END_SESSION_METHOD, &[])?;
            self.sessions.remove(&target);
        }
        Ok(())
    }

    fn call_status(
        &mut self,
        target: MspId,
        method: &str,
        payload: &[u8],
    ) -> MspResult<ReplyStatus> {
        let session = self
            .sessions
            .entry(target)
            .or_insert_with(|| ClientSession {
                id: next_session_id(),
                next_seq: RequestSeq::FIRST,
            });
        let (sid, seq) = (session.id, session.next_seq);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > self.opts.max_attempts {
                return Err(MspError::Timeout);
            }
            self.endpoint.send(
                EndpointId::Msp(target),
                Envelope::Request(RequestMsg {
                    session: sid,
                    seq,
                    method: method.to_string(),
                    payload: payload.to_vec(),
                    reply_to: self.me,
                    sender_dv: None, // end clients are outside all domains
                    durable_hint: None,
                    recoveries: Vec::new(),
                }),
            );
            // Wait for the matching reply, discarding stale ones.
            let deadline = Instant::now() + self.opts.resend_timeout;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break; // resend
                }
                match self.endpoint.recv_timeout(deadline - now) {
                    Ok(Envelope::Reply(rep)) if rep.session == sid && rep.seq == seq => {
                        match rep.status {
                            ReplyStatus::Busy => {
                                // Server is checkpointing or recovering:
                                // sleep and resend (§5.4).
                                std::thread::sleep(self.opts.busy_backoff);
                                break;
                            }
                            status => {
                                self.sessions
                                    .get_mut(&target)
                                    .expect("session exists")
                                    .next_seq = seq.next();
                                return Ok(status);
                            }
                        }
                    }
                    Ok(_) => continue,               // stale duplicate reply
                    Err(MspError::Timeout) => break, // resend
                    Err(e) => return Err(e),
                }
            }
        }
    }
}
