//! Configuration of MSPs, service domains and the recovery experiments'
//! five system configurations (§5.2).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use msp_kv::KvStore;
use msp_net::EndpointId;
use msp_types::{DomainId, MspId};

/// Static description of the cluster: which MSP belongs to which service
/// domain (§1.3: domains are disjoint; end clients are outside all of
/// them). Shared read-only by every process.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {
    domains: HashMap<MspId, DomainId>,
}

impl ClusterConfig {
    pub fn new() -> ClusterConfig {
        ClusterConfig::default()
    }

    /// Assign `msp` to `domain`.
    #[must_use]
    pub fn with_msp(mut self, msp: MspId, domain: DomainId) -> ClusterConfig {
        self.domains.insert(msp, domain);
        self
    }

    /// The domain of `msp`, if registered.
    pub fn domain_of(&self, msp: MspId) -> Option<DomainId> {
        self.domains.get(&msp).copied()
    }

    /// Whether two MSPs share a service domain — the condition for
    /// optimistic logging between them.
    pub fn same_domain(&self, a: MspId, b: MspId) -> bool {
        match (self.domain_of(a), self.domain_of(b)) {
            (Some(da), Some(db)) => da == db,
            _ => false,
        }
    }

    /// All MSPs in `domain` other than `except` — the recovery-broadcast
    /// recipients.
    pub fn domain_members(&self, domain: DomainId, except: MspId) -> Vec<MspId> {
        let mut v: Vec<MspId> = self
            .domains
            .iter()
            .filter(|&(&m, &d)| d == domain && m != except)
            .map(|(&m, _)| m)
            .collect();
        v.sort_unstable();
        v
    }
}

/// How session state is made recoverable — the five configurations of the
/// paper's evaluation collapse onto this plus domain assignment:
///
/// * `LoOptimistic` = `LogBased` + both MSPs in one domain
/// * `Pessimistic`  = `LogBased` + each MSP in its own domain
/// * `NoLog`, `Psession`, `StateServer` as named.
#[derive(Clone)]
pub enum SessionStrategy {
    /// The paper's contribution: log-based recovery with locally
    /// optimistic logging, value logging, fuzzy checkpoints.
    LogBased,
    /// No recovery infrastructure at all.
    NoLog,
    /// Persistent sessions via a local DBMS: fetch the session state in a
    /// read transaction before each request and write it back in a write
    /// transaction after (§5.2, configuration *Psession*).
    Psession(Arc<KvStore>),
    /// Session state lives in-memory at a remote state server; fetched and
    /// stored per request, not durable (§5.2, configuration *StateServer*).
    StateServer(EndpointId),
}

impl std::fmt::Debug for SessionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionStrategy::LogBased => write!(f, "LogBased"),
            SessionStrategy::NoLog => write!(f, "NoLog"),
            SessionStrategy::Psession(_) => write!(f, "Psession"),
            SessionStrategy::StateServer(e) => write!(f, "StateServer({e})"),
        }
    }
}

/// Knobs of the logging / checkpointing machinery.
#[derive(Debug, Clone)]
pub struct LoggingConfig {
    /// Take a session checkpoint once the session has consumed this much
    /// log since its previous checkpoint (paper default: 1 MB).
    pub session_ckpt_threshold: u64,
    /// Take a shared-variable checkpoint after this many writes since its
    /// previous checkpoint (§3.3).
    pub shared_ckpt_writes: u64,
    /// Interval between fuzzy MSP checkpoints.
    pub msp_ckpt_interval: Duration,
    /// Force a session / shared-variable checkpoint if this many MSP
    /// checkpoints have passed since its last one (§3.4).
    pub force_ckpt_after: u32,
    /// Disable all checkpointing (the *NoCp* rows of Figure 16).
    pub checkpoints_enabled: bool,
    /// Take an MSP checkpoint (and truncate the log behind the reclaim
    /// floor) as soon as this many log bytes have been appended since the
    /// last anchored checkpoint, without waiting out `msp_ckpt_interval`.
    /// Bounds the on-disk footprint under sustained load. `0` disables
    /// byte-driven scheduling (timer only).
    pub checkpoint_interval_bytes: u64,
}

impl Default for LoggingConfig {
    fn default() -> LoggingConfig {
        LoggingConfig {
            session_ckpt_threshold: 1 << 20,
            shared_ckpt_writes: 256,
            msp_ckpt_interval: Duration::from_millis(250),
            force_ckpt_after: 8,
            checkpoints_enabled: true,
            checkpoint_interval_bytes: 8 << 20,
        }
    }
}

/// Full configuration of one MSP.
#[derive(Debug, Clone)]
pub struct MspConfig {
    pub id: MspId,
    pub domain: DomainId,
    pub strategy: SessionStrategy,
    pub logging: LoggingConfig,
    /// Worker threads in the request-processing pool.
    pub workers: usize,
    /// Timeout before an outgoing call resends its request.
    pub rpc_timeout: Duration,
    /// How long a requester keeps retrying a distributed-flush participant
    /// before giving up (it normally stops earlier: either the participant
    /// answers or its recovery broadcast marks the requester orphan).
    pub flush_retry_limit: u32,
    /// Threads in the dedicated crash-recovery replay pool (Figure 12's
    /// parallel session replay). Separate from `workers` so replay never
    /// starves new sessions arriving mid-recovery.
    pub recovery_threads: usize,
    /// 64 KB blocks in the shared read-only replay cache over the
    /// immutable crash-time log. Crash recovery replays from the records
    /// its analysis scan retained; this pool serves what a session's
    /// queue does not hold (the tail of a replay window longer than
    /// `logging.session_ckpt_threshold`) instead of per-frame device
    /// reads.
    pub replay_cache_blocks: usize,
    /// Replay crashed sessions one at a time on a single thread, each
    /// re-reading its window from the log instead of consuming the
    /// analysis scan's queues — the reference oracle for tests, which
    /// compare the parallel engine's recovered state against it byte for
    /// byte.
    pub serial_recovery: bool,
    /// Stripe the WAL across this many disks, each with its own
    /// reservation tail and flusher; an LSN becomes durable only when
    /// every stripe holding a record at or below it has flushed (the
    /// merged durability watermark). `0` keeps the legacy single-log
    /// path; `>= 1` runs the striped backend over exactly that many
    /// disks (handed to [`crate::runtime::MspBuilder::start_with_disks`]).
    pub log_stripes: usize,
    /// Shard the runtime — worker pool, run tokens, pending-release
    /// stage — into this many independent instances, sessions assigned
    /// by consistent hash. Per-session ordering is untouched (a session
    /// lives on one shard); cross-shard state (sessions map, shared
    /// variables, knowledge) stays global.
    pub runtime_shards: usize,
    /// Back-off before resending when the server answered *Busy*
    /// (checkpointing / recovering). Paper: 100 ms, scaled.
    pub busy_backoff: Duration,
    /// Time scale for protocol-level sleeps (busy backoff, rpc timeout);
    /// matches the disk/net models' scale convention.
    pub time_scale: f64,
}

impl MspConfig {
    /// A log-based MSP with paper-like defaults at simulation scale.
    pub fn new(id: MspId, domain: DomainId) -> MspConfig {
        MspConfig {
            id,
            domain,
            strategy: SessionStrategy::LogBased,
            logging: LoggingConfig::default(),
            workers: 8,
            rpc_timeout: Duration::from_millis(400),
            flush_retry_limit: 200,
            recovery_threads: 4,
            replay_cache_blocks: 64,
            serial_recovery: false,
            log_stripes: 0,
            runtime_shards: 1,
            busy_backoff: Duration::from_millis(100),
            time_scale: 0.02,
        }
    }

    #[must_use]
    pub fn with_strategy(mut self, strategy: SessionStrategy) -> MspConfig {
        self.strategy = strategy;
        self
    }

    #[must_use]
    pub fn with_logging(mut self, logging: LoggingConfig) -> MspConfig {
        self.logging = logging;
        self
    }

    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> MspConfig {
        self.workers = workers;
        self
    }

    /// # Panics
    /// If `scale` is negative or not finite.
    #[must_use]
    pub fn with_time_scale(mut self, scale: f64) -> MspConfig {
        self.time_scale = msp_types::checked_time_scale(scale);
        self
    }

    #[must_use]
    pub fn with_recovery_threads(mut self, threads: usize) -> MspConfig {
        self.recovery_threads = threads;
        self
    }

    #[must_use]
    pub fn with_replay_cache_blocks(mut self, blocks: usize) -> MspConfig {
        self.replay_cache_blocks = blocks;
        self
    }

    #[must_use]
    pub fn with_log_stripes(mut self, stripes: usize) -> MspConfig {
        self.log_stripes = stripes;
        self
    }

    #[must_use]
    pub fn with_runtime_shards(mut self, shards: usize) -> MspConfig {
        self.runtime_shards = shards;
        self
    }

    #[must_use]
    pub fn with_serial_recovery(mut self, serial: bool) -> MspConfig {
        self.serial_recovery = serial;
        self
    }

    /// The busy backoff after scaling.
    pub fn scaled_busy_backoff(&self) -> Duration {
        if self.time_scale <= 0.0 {
            Duration::from_micros(200)
        } else {
            self.busy_backoff.mul_f64(self.time_scale)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_domain_queries() {
        let c = ClusterConfig::new()
            .with_msp(MspId(1), DomainId(1))
            .with_msp(MspId(2), DomainId(1))
            .with_msp(MspId(3), DomainId(2));
        assert!(c.same_domain(MspId(1), MspId(2)));
        assert!(!c.same_domain(MspId(1), MspId(3)));
        assert!(
            !c.same_domain(MspId(1), MspId(9)),
            "unknown MSPs share nothing"
        );
        assert_eq!(c.domain_members(DomainId(1), MspId(1)), vec![MspId(2)]);
        assert_eq!(c.domain_of(MspId(3)), Some(DomainId(2)));
    }

    #[test]
    fn scaled_busy_backoff_has_floor() {
        let cfg = MspConfig::new(MspId(1), DomainId(1)).with_time_scale(0.0);
        assert!(cfg.scaled_busy_backoff() > Duration::ZERO);
        let cfg = MspConfig::new(MspId(1), DomainId(1)).with_time_scale(0.02);
        assert_eq!(cfg.scaled_busy_backoff(), Duration::from_millis(2));
    }

    #[test]
    fn every_model_rejects_a_time_scale_that_mul_f64_would_panic_on() {
        use std::panic::catch_unwind;
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let cfg = catch_unwind(|| MspConfig::new(MspId(1), DomainId(1)).with_time_scale(bad));
            let disk = catch_unwind(|| msp_wal::DiskModel::default().with_scale(bad));
            let net = catch_unwind(|| msp_net::NetModel::default().with_scale(bad));
            assert!(
                cfg.is_err() && disk.is_err() && net.is_err(),
                "scale {bad} accepted"
            );
        }
    }

    #[test]
    fn knob_builders() {
        let cfg = MspConfig::new(MspId(1), DomainId(1))
            .with_recovery_threads(8)
            .with_replay_cache_blocks(16)
            .with_serial_recovery(true)
            .with_log_stripes(4)
            .with_runtime_shards(2);
        assert_eq!(cfg.recovery_threads, 8);
        assert_eq!(cfg.replay_cache_blocks, 16);
        assert!(cfg.serial_recovery);
        assert_eq!(cfg.log_stripes, 4);
        assert_eq!(cfg.runtime_shards, 2);
        let cfg = MspConfig::new(MspId(1), DomainId(1));
        assert_eq!(cfg.recovery_threads, 4);
        assert_eq!(cfg.replay_cache_blocks, 64);
        assert!(!cfg.serial_recovery);
        assert_eq!(cfg.log_stripes, 0, "single log is the default");
        assert_eq!(cfg.runtime_shards, 1, "one shard is the default");
        assert_eq!(
            cfg.logging.checkpoint_interval_bytes,
            8 << 20,
            "byte-driven checkpoint scheduling is on by default"
        );
    }

    #[test]
    fn strategy_debug_names() {
        assert_eq!(format!("{:?}", SessionStrategy::LogBased), "LogBased");
        assert_eq!(format!("{:?}", SessionStrategy::NoLog), "NoLog");
    }
}
