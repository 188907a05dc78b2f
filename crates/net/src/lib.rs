//! In-process simulated network for the MSP recovery stack.
//!
//! The paper's protocols assume only an *unreliable* transport: "messages
//! may arrive out of order, may be duplicated, or get lost" (§2.1), with
//! clients resending a request until its reply arrives. This crate
//! provides exactly that contract between in-process endpoints, plus the
//! fault injection and latency modelling the experiments need:
//!
//! * [`EndpointId`] — MSPs and end clients share one address space.
//! * [`NetModel`] — one-way latency (+jitter), drop and duplication
//!   probabilities, and the global time scale (shared convention with the
//!   disk model in `msp-wal`). The paper's measured round trips (3.596 ms
//!   MSP↔MSP, 3.9 ms client↔MSP) are the defaults.
//! * [`Network`] — the switch: registration, per-link overrides,
//!   partitions, and one deadline-ordered inbox per address into which
//!   `send` pushes each message with its simulated delivery time (jitter
//!   naturally reorders them). No thread of its own: the receiver takes a
//!   message once it falls due.
//! * [`Endpoint`] — a registered party's handle: `send` + blocking
//!   `recv_timeout`, which waits in the receiving thread until the head
//!   of its inbox falls due.
//!
//! The message type is generic: the recovery protocols in `msp-core`
//! define their own envelope enum and instantiate `Network<Envelope>`.

pub mod endpoint;
pub mod model;
pub mod network;

pub use endpoint::EndpointId;
pub use model::NetModel;
pub use network::{Endpoint, NetStatsSnapshot, Network};
