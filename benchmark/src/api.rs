//! The benchmark's whole contact surface with the repository.
//!
//! Every `msp_*` name the benchmark uses is imported here and nowhere
//! else, so a change that renames or removes part of the library's API
//! edits this one file. The list is deliberately short (README, "API
//! contract"): it names no knob ROADMAP marks for deletion and takes the
//! library default for everything it does not set.

use std::sync::Arc;

pub use msp_core::config::LoggingConfig;
pub use msp_core::envelope::RequestMsg;
pub use msp_core::runtime::{next_session_id, RuntimeStatsSnapshot, ShardStatsSnapshot};
pub use msp_core::{ClusterConfig, Envelope, MspBuilder, MspConfig, MspHandle, ReplyStatus};
pub use msp_harness::workload::{request_payload, MSP1};
pub use msp_harness::{FlushMode, SystemConfig, World, WorldOptions};
pub use msp_net::{Endpoint, EndpointId, NetModel, NetStatsSnapshot, Network};
pub use msp_types::{Decode, DomainId, Encode, Lsn, MspId, RequestSeq, SessionId};
pub use msp_wal::stats::LogStatsSnapshot;
pub use msp_wal::{
    Disk, DiskModel, FlushPolicy, LogRecord, MemDisk, PhysicalLog, PoolStatsSnapshot, ReplayCache,
};

/// The method of the Figure 13 workload an end client calls at MSP1.
pub const WORLD_METHOD: &str = "ServiceMethod1";

/// The one service method of the solo MSP of the recovery workloads.
pub const SOLO_METHOD: &str = "work";

/// Id of the solo MSP.
pub const SOLO: MspId = MspId(1);

/// What a request workload asks of [`World`]; every other option keeps
/// `WorldOptions::new`'s default.
#[derive(Debug, Clone, Copy)]
pub struct WorldSpec {
    pub config: SystemConfig,
    pub time_scale: f64,
    pub flush_mode: FlushMode,
    pub log_stripes: usize,
    pub runtime_shards: usize,
    pub checkpoints: bool,
}

pub fn start_world(spec: &WorldSpec, seed: u64) -> World {
    let defaults = WorldOptions::new(spec.config);
    World::start(WorldOptions {
        time_scale: spec.time_scale,
        flush_mode: spec.flush_mode,
        log_stripes: spec.log_stripes,
        runtime_shards: spec.runtime_shards,
        checkpoints_enabled: spec.checkpoints,
        seed,
        ..defaults
    })
}

/// Register the generator's endpoint on `net`. With `client_scale` set
/// the links to and from `target` get the paper's client↔MSP latency at
/// that time scale (as `World::client` does); without it they keep the
/// network's default model.
pub fn register_client(
    net: &Network<Envelope>,
    client: u64,
    target: MspId,
    client_scale: Option<f64>,
) -> Endpoint<Envelope> {
    let me = EndpointId::Client(client);
    if let Some(scale) = client_scale {
        let link = NetModel::client_link().with_scale(scale);
        net.set_link(me, EndpointId::Msp(target), link.clone());
        net.set_link(EndpointId::Msp(target), me, link);
    }
    net.register(me)
}

/// An end client's request envelope (end clients sit outside every
/// service domain, so it carries no dependency vector).
pub fn request(
    session: SessionId,
    seq: u64,
    method: &str,
    payload: &[u8],
    reply_to: EndpointId,
) -> Envelope {
    Envelope::Request(RequestMsg {
        session,
        seq: RequestSeq(seq),
        method: method.to_string(),
        payload: payload.to_vec(),
        reply_to,
        sender_dv: None,
        durable_hint: None,
        recoveries: Vec::new(),
    })
}

fn u64_le(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// The session's request counter, which both the Figure 13 methods and
/// the solo `work` method put in bytes 0..8 of a reply.
pub fn reply_session_counter(reply: &[u8]) -> u64 {
    u64_le(reply)
}

/// The value of the shared variable the method incremented, in bytes
/// 8..16 of a reply.
pub fn reply_shared_counter(reply: &[u8]) -> u64 {
    u64_le(&reply[8..])
}

/// Start the solo MSP of the recovery workloads over `disk`: one service
/// method that rewrites 512 B of session state and increments one shared
/// variable, checkpoints off so the whole log is every session's replay
/// window. If the disk holds a log, `start` runs crash recovery.
pub fn start_solo(net: &Network<Envelope>, disk: Arc<MemDisk>, time_scale: f64) -> MspHandle {
    let cfg = MspConfig::new(SOLO, DomainId(1))
        .with_time_scale(time_scale)
        .with_logging(LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        });
    MspBuilder::new(cfg, ClusterConfig::new().with_msp(SOLO, DomainId(1)))
        .disk_model(DiskModel::default().with_scale(time_scale))
        .shared_var("sv", vec![0u8; 8])
        .service(SOLO_METHOD, |ctx, _payload| {
            let n = ctx.get_session("n").map_or(0, |v| u64_le(&v)) + 1;
            ctx.set_session("n", n.to_le_bytes().to_vec());
            ctx.set_session("state", vec![(n % 251) as u8; 512]);
            let sv = ctx.update_shared("sv", |cur| {
                let next = u64_le(cur) + 1;
                (next.to_le_bytes().to_vec(), next)
            })?;
            let mut reply = n.to_le_bytes().to_vec();
            reply.extend_from_slice(&sv.to_le_bytes());
            Ok(reply)
        })
        .start(net, disk)
        .expect("start solo MSP")
}
