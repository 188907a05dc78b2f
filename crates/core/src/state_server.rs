//! The *StateServer* baseline's remote state store (§5.2).
//!
//! "In configuration StateServer, session states are stored in-memory at
//! a state server on a different computer." The store is **not durable**:
//! if the state server crashes, session states are gone — the paper
//! measures it as a fast but unrecoverable alternative.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use msp_net::{EndpointId, Network};
use msp_types::MspError;

use crate::envelope::Envelope;
use crate::runtime::IDLE_WAIT;

/// A running state-server process.
pub struct StateServer {
    map: Arc<Mutex<HashMap<Vec<u8>, Vec<u8>>>>,
    id: EndpointId,
    net: Network<Envelope>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl StateServer {
    /// Start a state server registered as client endpoint `id` (state
    /// servers are not MSPs; they live outside the domains like clients).
    pub fn start(net: &Network<Envelope>, id: EndpointId) -> StateServer {
        let map = Arc::new(Mutex::new(HashMap::new()));
        let endpoint = net.register(id);
        let worker = Arc::clone(&map);
        let wnet = net.clone();
        // Serves until `shutdown` leaves the network, which ends the
        // receive with `Shutdown`.
        let thread = std::thread::Builder::new()
            .name("state-server".into())
            .spawn(move || loop {
                let env = match endpoint.recv_timeout(IDLE_WAIT) {
                    Ok(env) => env,
                    Err(MspError::Timeout) => continue,
                    Err(_) => break,
                };
                match env {
                    Envelope::StateGet { from, req_id, key } => {
                        let value = worker.lock().get(&key).cloned();
                        wnet.send(id, from, Envelope::StateResp { req_id, value });
                    }
                    Envelope::StatePut {
                        from,
                        req_id,
                        key,
                        value,
                    } => {
                        worker.lock().insert(key, value);
                        wnet.send(
                            id,
                            from,
                            Envelope::StateResp {
                                req_id,
                                value: Some(Vec::new()),
                            },
                        );
                    }
                    _ => {}
                }
            })
            .expect("spawn state server");
        StateServer {
            map,
            id,
            net: net.clone(),
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Number of stored blobs (tests/diagnostics).
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }

    /// Crash the state server: stored session states are lost — the
    /// failure mode the paper holds against this configuration.
    pub fn crash(&self) {
        self.map.lock().clear();
        self.shutdown();
    }

    /// Stop the server thread.
    pub fn shutdown(&self) {
        self.net.unregister(self.id);
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}
