//! Log-based recovery runtime for middleware server processes.
//!
//! This crate is the reproduction of the paper's contribution: a recovery
//! infrastructure that makes a multi-threaded middleware server's
//! in-memory business state — per-client **session state** and
//! **shared state** — survive crashes with exactly-once request execution,
//! transparently to the service-method code.
//!
//! # The pieces
//!
//! * [`runtime::MspInner`] (via [`MspBuilder`]/[`MspHandle`]) — a
//!   middleware server process: thread pool,
//!   request queue, service-method registry, sessions, shared variables,
//!   one physical log.
//! * [`service::ServiceContext`] — what a service method sees: session
//!   variables, shared variables, outgoing calls. The same context runs in
//!   *normal* and *replay* mode; replay feeds logged nondeterminism back
//!   (§4.1) and switches to live execution at the replay boundary.
//! * **Locally optimistic logging** (§3.1) — messages inside a service
//!   domain carry dependency vectors and require no flush; messages that
//!   leave the domain (or go to an end client) force a *distributed log
//!   flush* ([`flush`]) first.
//! * **Value logging** for shared variables (§3.3) — [`shared`].
//! * **Checkpointing** (§3.2, §3.4) — per-session, per-shared-variable and
//!   fuzzy MSP checkpoints: [`checkpoint`].
//! * **Recovery** (§4) — session orphan recovery with EOS records, shared
//!   state undo via the backward write chain, and full MSP crash recovery
//!   with parallel session replay: [`recovery`].
//! * [`client::MspClient`] — an end client: resend-until-reply, duplicate
//!   reply detection, busy backoff.
//! * **Baselines** (§5.2) — `NoLog`, `Psession` (DB-backed sessions) and
//!   `StateServer` (remote in-memory sessions) as alternative
//!   [`config::SessionStrategy`]s over the same runtime, plus the
//!   [`state_server`] process itself.
//!
//! # A two-MSP quickstart
//!
//! See `examples/quickstart.rs` in the workspace root for a runnable
//! version of the paper's own workload (Figure 13).

pub mod checkpoint;
pub mod client;
pub mod config;
pub mod envelope;
pub mod flush;
pub mod recovery;
pub mod replay;
pub mod runtime;
pub mod service;
pub mod session;
pub mod shared;
pub mod state_server;
pub mod watermark;

pub use checkpoint::{fold_reclaim_floor, pick_forced_checkpoints};
pub use client::MspClient;
pub use config::{ClusterConfig, LoggingConfig, MspConfig, SessionStrategy};
pub use envelope::{Envelope, ReplyStatus};
pub use runtime::{MspBuilder, MspHandle};
pub use service::ServiceContext;
pub use state_server::StateServer;
