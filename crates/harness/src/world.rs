//! Bootstrapping the five system configurations of §5.2 over the
//! simulated substrate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::{
    ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig, SessionStrategy, StateServer,
};
use msp_kv::{KvOptions, KvStore};
use msp_net::{EndpointId, NetModel, Network};
use msp_types::{DomainId, MspId};
use msp_wal::{DiskModel, FaultPlan, FlushPolicy, MemDisk};

use crate::metrics::{RecoveryPhases, Series};
use crate::workload::{
    self, initial_shared, make_service_method1, request_payload, AfterReplyHook, MSP1, MSP2,
};

/// Log flush scheduling (§5.5 and beyond).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushMode {
    /// One device write per flush request — the paper prototype's
    /// non-batched baseline.
    PerRequest,
    /// The paper's batch flushing: wait this long, then serve every
    /// pending request with one write.
    Batched(Duration),
    /// Classic group commit: every write takes the whole tail
    /// (an engineering extension over the paper's prototype).
    GroupCommit,
}

/// The five system configurations of the evaluation (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemConfig {
    /// Log-based recovery, both MSPs in one service domain: optimistic
    /// logging between them, pessimistic toward the client.
    LoOptimistic,
    /// Log-based recovery, each MSP in its own domain: pessimistic
    /// logging everywhere.
    Pessimistic,
    /// No recovery infrastructure.
    NoLog,
    /// Session state persisted to a local DBMS around every request.
    Psession,
    /// Session state kept at a remote in-memory state server.
    StateServer,
}

impl SystemConfig {
    pub const ALL: [SystemConfig; 5] = [
        SystemConfig::LoOptimistic,
        SystemConfig::Pessimistic,
        SystemConfig::NoLog,
        SystemConfig::Psession,
        SystemConfig::StateServer,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SystemConfig::LoOptimistic => "LoOptimistic",
            SystemConfig::Pessimistic => "Pessimistic",
            SystemConfig::NoLog => "NoLog",
            SystemConfig::Psession => "Psession",
            SystemConfig::StateServer => "StateServer",
        }
    }

    /// Parse a configuration name as printed by [`Self::name`]
    /// (case-insensitive) — used by the `torture` binary's `--config`.
    pub fn parse(name: &str) -> Option<SystemConfig> {
        SystemConfig::ALL
            .into_iter()
            .find(|c| c.name().eq_ignore_ascii_case(name))
    }

    pub fn is_log_based(self) -> bool {
        matches!(self, SystemConfig::LoOptimistic | SystemConfig::Pessimistic)
    }
}

/// Tuning of a [`World`].
#[derive(Debug, Clone)]
pub struct WorldOptions {
    pub config: SystemConfig,
    /// Global time scale (1.0 = the paper's native milliseconds).
    pub time_scale: f64,
    /// Session checkpointing threshold in log bytes (paper default 1 MB);
    /// `u64::MAX` effectively disables session checkpoints.
    pub session_ckpt_threshold: u64,
    pub checkpoints_enabled: bool,
    /// How the physical log schedules device writes (§5.5): the paper's
    /// per-request baseline, the paper's batch flushing, or group commit
    /// (this implementation's extension).
    pub flush_mode: FlushMode,
    pub workers: usize,
    pub seed: u64,
    /// Arm the §5.4 fault injector: crash MSP2 after every `crash_every`
    /// live calls into ServiceMethod2 (0 = never).
    pub crash_every: u64,
    /// DB transaction overhead for the Psession baseline (unscaled).
    pub db_txn_overhead: Duration,
    /// Stripe each MSP's WAL across this many simulated disks (0 = the
    /// legacy single-log path); ignored by the baselines.
    pub log_stripes: usize,
    /// Shard each MSP's runtime (worker pool + release stage) this many
    /// ways, sessions assigned by consistent hash.
    pub runtime_shards: usize,
    /// Byte-driven checkpoint scheduling: take an MSP checkpoint (and
    /// truncate behind the reclaim floor) once this many log bytes have
    /// accumulated since the last one. `0` leaves the timer in charge.
    pub checkpoint_interval_bytes: u64,
}

impl WorldOptions {
    pub fn new(config: SystemConfig) -> WorldOptions {
        WorldOptions {
            config,
            time_scale: 0.1,
            session_ckpt_threshold: 1 << 20,
            checkpoints_enabled: true,
            flush_mode: FlushMode::PerRequest,
            workers: 8,
            seed: 1,
            crash_every: 0,
            db_txn_overhead: Duration::from_millis(4),
            log_stripes: 0,
            runtime_shards: 1,
            checkpoint_interval_bytes: 0,
        }
    }
}

/// Everything needed to (re)build one MSP, so fault injectors can crash
/// and restart it while the experiment runs. Both MSPs of the §5.1
/// workload live in slots; the slot knows which service methods and
/// shared variables its MSP id carries.
pub struct MspSlot {
    id: MspId,
    handle: Mutex<Option<msp_core::MspHandle>>,
    /// One disk for the single-log path, `log_stripes` disks for the
    /// striped WAL; all survive crashes and rebuilds.
    disks: Vec<Arc<MemDisk>>,
    net: Network<Envelope>,
    cluster: ClusterConfig,
    pub(crate) cfg: MspConfig,
    disk_model: DiskModel,
    flush_policy: FlushPolicy,
    /// The §5.4 after-reply hook, threaded into `ServiceMethod1` on every
    /// (re)build of the MSP1 slot.
    hook: Option<AfterReplyHook>,
    hook_every: u64,
    /// Crash-point plan installed on the log at the *next* (re)build —
    /// this is how the torture rig crashes an MSP during its own
    /// recovery.
    fault: Mutex<Option<Arc<FaultPlan>>>,
    pub crashes: AtomicU64,
    /// Cumulative wall time spent with the MSP down or recovering.
    pub downtime: Mutex<Duration>,
}

/// Backwards-compatible alias: the slot used to exist only for MSP2.
pub type Msp2Slot = MspSlot;

impl MspSlot {
    fn build(&self) -> msp_types::MspResult<msp_core::MspHandle> {
        let mut b = MspBuilder::new(self.cfg.clone(), self.cluster.clone())
            .disk_model(self.disk_model.clone())
            .flush_policy(self.flush_policy);
        if let Some(plan) = self.fault.lock().clone() {
            b = b.fault_plan(plan);
        }
        b = if self.id == MSP1 {
            b.shared_var("SV0", initial_shared())
                .shared_var("SV1", initial_shared())
                .service(
                    "ServiceMethod1",
                    make_service_method1(self.hook.clone(), self.hook_every),
                )
        } else {
            b.shared_var("SV2", initial_shared())
                .shared_var("SV3", initial_shared())
                .service("ServiceMethod2", workload::service_method2)
        };
        b.start_with_disks(
            &self.net,
            self.disks
                .iter()
                .map(|d| Arc::clone(d) as Arc<dyn msp_wal::Disk>)
                .collect(),
        )
    }

    /// Kill the MSP without restarting it (losing its buffered log
    /// records); the torture rig restarts it later via [`Self::restart`].
    pub fn kill(&self) {
        if let Some(h) = self.handle.lock().take() {
            h.crash();
            self.crashes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// (Re)start the MSP over its surviving disk; the start runs MSP
    /// crash recovery and the returned [`RecoveryPhases`] says what that
    /// recovery did. If a crash-point plan armed via
    /// [`Self::set_fault_plan`] fires during the startup recovery itself,
    /// the failed start counts as another crash and the slot starts over
    /// (the plan is spent after firing, so the retry goes through).
    pub fn restart(&self) -> RecoveryPhases {
        let t0 = Instant::now();
        let mut attempts = 0u32;
        let fresh = loop {
            match self.build() {
                Ok(h) => break h,
                Err(e) => {
                    attempts += 1;
                    self.crashes.fetch_add(1, Ordering::Relaxed);
                    assert!(
                        attempts < 8,
                        "MSP{} failed to restart after {attempts} attempts: {e}",
                        self.id.0
                    );
                }
            }
        };
        let phases = RecoveryPhases::from_stats(&fresh.stats());
        *self.handle.lock() = Some(fresh);
        *self.downtime.lock() += t0.elapsed();
        phases
    }

    /// Kill the MSP (losing its buffered log records) and immediately
    /// restart it; the restart runs MSP crash recovery, whose phase
    /// breakdown is returned.
    pub fn crash_and_restart(&self) -> RecoveryPhases {
        self.kill();
        self.restart()
    }

    /// Arm a crash-point plan: installed on the live log immediately (if
    /// the MSP is up) and re-installed on every subsequent rebuild until
    /// cleared with `None`.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        if let Some(p) = &plan {
            if let Some(h) = self.handle.lock().as_ref() {
                h.install_fault_plan(Arc::clone(p));
            }
        }
        *self.fault.lock() = plan;
    }

    /// `true` while a handle is installed (the MSP is not killed).
    pub fn is_up(&self) -> bool {
        self.handle.lock().is_some()
    }

    /// `true` once crash-recovery replay has drained (or trivially when
    /// the MSP is down — a down MSP has no pool to wait for).
    pub fn recovery_complete(&self) -> bool {
        self.handle
            .lock()
            .as_ref()
            .is_none_or(|h| h.recovery_complete())
    }

    pub fn stats(&self) -> Option<msp_core::runtime::RuntimeStatsSnapshot> {
        self.handle.lock().as_ref().map(|h| h.stats())
    }

    /// The first session the current incarnation's recovery pool could
    /// not replay, with the error (`None` while the MSP is down).
    pub fn first_replay_failure(&self) -> Option<(msp_types::SessionId, String)> {
        self.handle
            .lock()
            .as_ref()
            .and_then(|h| h.first_replay_failure())
    }

    /// Physical-log counters (log-based configurations with the MSP up).
    pub fn log_stats(&self) -> Option<msp_wal::stats::LogStatsSnapshot> {
        self.handle.lock().as_ref().and_then(|h| h.log_stats())
    }

    /// Live sessions currently held by the MSP (zero while it is down).
    pub fn session_count(&self) -> usize {
        self.handle
            .lock()
            .as_ref()
            .map(|h| h.session_count())
            .unwrap_or(0)
    }

    /// Current shared-variable values in registration order (empty while
    /// the MSP is down).
    pub fn dump_shared(&self) -> Vec<Vec<u8>> {
        self.handle
            .lock()
            .as_ref()
            .map(|h| h.dump_shared())
            .unwrap_or_default()
    }

    /// The MSP's (simulated) disk — shared across restarts, and what the
    /// torture rig's post-mortem pass re-opens after shutdown. The first
    /// stripe when the log is striped (see [`Self::disks`]).
    pub fn disk(&self) -> Arc<MemDisk> {
        Arc::clone(&self.disks[0])
    }

    /// Every disk backing the MSP's log, in stripe order (length 1 on the
    /// single-log path).
    pub fn disks(&self) -> Vec<Arc<MemDisk>> {
        self.disks.clone()
    }

    /// Per-stripe log-counter breakdown (log-based configurations with
    /// the MSP up; one entry on the single-log path).
    pub fn stripe_stats(&self) -> Option<Vec<msp_wal::stats::LogStatsSnapshot>> {
        self.handle.lock().as_ref().and_then(|h| h.stripe_stats())
    }

    /// Process-level recovery buffer-pool counters of the *current*
    /// incarnation (retired pool runs included via the runtime's banked
    /// snapshot); zeroes while the MSP is down. Like
    /// [`Self::log_stats`], the numbers reset at each rebuild.
    pub fn pool_stats(&self) -> msp_wal::PoolStatsSnapshot {
        self.handle
            .lock()
            .as_ref()
            .map(|h| h.pool_stats())
            .unwrap_or_default()
    }

    /// Per-shard runtime-counter breakdown (empty while the MSP is down).
    pub fn shard_stats(&self) -> Vec<msp_core::runtime::ShardStatsSnapshot> {
        self.handle
            .lock()
            .as_ref()
            .map(|h| h.shard_stats())
            .unwrap_or_default()
    }

    /// Current reclaim floor of the MSP's log (log-based and up).
    pub fn reclaim_floor(&self) -> Option<msp_types::Lsn> {
        self.handle.lock().as_ref().and_then(|h| h.reclaim_floor())
    }

    /// Bytes of backing store the MSP's log devices currently occupy,
    /// summed over stripes: `len()` minus what truncation reclaimed. The
    /// long-run torture tier asserts this stays under a cap.
    pub fn footprint(&self) -> u64 {
        use msp_wal::Disk;
        self.disks.iter().map(|d| d.footprint()).sum()
    }

    fn shutdown(&self) {
        // A still-armed plan would fire on the clean shutdown's final
        // flush; the storm is over, so disarm it.
        if let Some(plan) = self.fault.lock().take() {
            plan.disarm_all();
        }
        if let Some(h) = self.handle.lock().take() {
            h.shutdown();
        }
    }
}

/// A fully wired system configuration: network, MSPs, baseline services.
pub struct World {
    pub opts: WorldOptions,
    pub net: Network<Envelope>,
    pub cluster: ClusterConfig,
    pub msp1: Arc<MspSlot>,
    pub msp2: Arc<MspSlot>,
    state_server: Option<StateServer>,
    pub db1: Option<Arc<KvStore>>,
    pub db2: Option<Arc<KvStore>>,
    crash_thread: Option<std::thread::JoinHandle<()>>,
    crash_stop: crossbeam_channel::Sender<()>,
}

const STATE_SERVER_EP: EndpointId = EndpointId::Client(9_999);

impl World {
    pub fn start(opts: WorldOptions) -> World {
        let scale = opts.time_scale;
        let net: Network<Envelope> = Network::new(NetModel::default().with_scale(scale), opts.seed);
        let cluster = match opts.config {
            SystemConfig::Pessimistic => ClusterConfig::new()
                .with_msp(MSP1, DomainId(1))
                .with_msp(MSP2, DomainId(2)),
            _ => ClusterConfig::new()
                .with_msp(MSP1, DomainId(1))
                .with_msp(MSP2, DomainId(1)),
        };
        let disk_model = DiskModel::default().with_scale(scale);
        let flush_policy = match opts.flush_mode {
            FlushMode::PerRequest => FlushPolicy::per_request(),
            FlushMode::Batched(t) => FlushPolicy::batched(t),
            FlushMode::GroupCommit => FlushPolicy::immediate(),
        };
        let logging = LoggingConfig {
            session_ckpt_threshold: opts.session_ckpt_threshold,
            shared_ckpt_writes: 256,
            msp_ckpt_interval: Duration::from_millis(50),
            force_ckpt_after: 16,
            checkpoints_enabled: opts.checkpoints_enabled,
            checkpoint_interval_bytes: opts.checkpoint_interval_bytes,
        };
        let base_cfg = |id, domain| {
            let mut c = MspConfig::new(id, DomainId(domain))
                .with_time_scale(scale)
                .with_workers(opts.workers)
                .with_logging(logging.clone())
                .with_log_stripes(opts.log_stripes)
                .with_runtime_shards(opts.runtime_shards);
            c.rpc_timeout = Duration::from_millis(15);
            c.flush_retry_limit = 2_000;
            c
        };

        // Baseline services.
        let mut state_server = None;
        let (mut db1, mut db2) = (None, None);
        let strategy = |db: &mut Option<Arc<KvStore>>| match opts.config {
            SystemConfig::LoOptimistic | SystemConfig::Pessimistic => SessionStrategy::LogBased,
            SystemConfig::NoLog => SessionStrategy::NoLog,
            SystemConfig::Psession => {
                let store = Arc::new(
                    KvStore::open(
                        Arc::new(MemDisk::new()),
                        disk_model.clone(),
                        KvOptions {
                            txn_overhead: opts.db_txn_overhead,
                            time_scale: scale,
                            snapshot_every: 100_000,
                        },
                    )
                    .expect("open kv"),
                );
                *db = Some(Arc::clone(&store));
                SessionStrategy::Psession(store)
            }
            SystemConfig::StateServer => SessionStrategy::StateServer(STATE_SERVER_EP),
        };
        if opts.config == SystemConfig::StateServer {
            state_server = Some(StateServer::start(&net, STATE_SERVER_EP));
        }

        // Fault injector plumbing: the workload hook signals the crash
        // controller thread, which crashes and restarts MSP2. Unbounded so
        // a signal is never dropped while the controller is still handling
        // (or waiting to be scheduled for) a previous crash; the workload
        // stalls while MSP2 is down, so at most one signal can queue up.
        let (crash_tx, crash_rx) = crossbeam_channel::unbounded::<()>();
        let (stop_tx, stop_rx) = crossbeam_channel::bounded::<()>(1);
        let hook: Option<AfterReplyHook> = if opts.crash_every > 0 {
            let tx = crash_tx.clone();
            Some(Arc::new(move || {
                let _ = tx.try_send(());
            }))
        } else {
            None
        };

        let slot = |id: MspId, cfg: MspConfig, hook: Option<AfterReplyHook>| {
            Arc::new(MspSlot {
                id,
                handle: Mutex::new(None),
                disks: (0..opts.log_stripes.max(1))
                    .map(|_| Arc::new(MemDisk::new()))
                    .collect(),
                net: net.clone(),
                cluster: cluster.clone(),
                cfg,
                disk_model: disk_model.clone(),
                flush_policy,
                hook,
                hook_every: opts.crash_every,
                fault: Mutex::new(None),
                crashes: AtomicU64::new(0),
                downtime: Mutex::new(Duration::ZERO),
            })
        };

        // MSP2 first (MSP1's calls need it).
        let dom2 = cluster.domain_of(MSP2).expect("registered").0;
        let msp2 = slot(
            MSP2,
            base_cfg(MSP2, dom2).with_strategy(strategy(&mut db2)),
            None,
        );
        *msp2.handle.lock() = Some(msp2.build().expect("start MSP2"));

        let msp1 = slot(
            MSP1,
            base_cfg(MSP1, 1).with_strategy(strategy(&mut db1)),
            hook,
        );
        *msp1.handle.lock() = Some(msp1.build().expect("start MSP1"));

        // Crash controller thread.
        let crash_thread = if opts.crash_every > 0 {
            let slot = Arc::clone(&msp2);
            Some(
                std::thread::Builder::new()
                    .name("crash-controller".into())
                    .spawn(move || loop {
                        crossbeam_channel::select! {
                            recv(crash_rx) -> r => {
                                if r.is_err() { return; }
                                let _ = slot.crash_and_restart();
                            }
                            recv(stop_rx) -> _ => return,
                        }
                    })
                    .expect("spawn crash controller"),
            )
        } else {
            None
        };

        World {
            opts,
            net,
            cluster,
            msp1,
            msp2,
            state_server,
            db1,
            db2,
            crash_thread,
            crash_stop: stop_tx,
        }
    }

    /// Register an end client with paper-like link latency (3.9 ms RTT to
    /// the MSPs, scaled).
    pub fn client(&self, id: u64) -> MspClient {
        let ep = EndpointId::Client(id);
        for msp in [EndpointId::Msp(MSP1), EndpointId::Msp(MSP2)] {
            let model = NetModel::client_link().with_scale(self.opts.time_scale);
            self.net.set_link(ep, msp, model.clone());
            self.net.set_link(msp, ep, model);
        }
        MspClient::new(
            &self.net,
            id,
            ClientOptions {
                resend_timeout: Duration::from_millis(40),
                busy_backoff: scaled_backoff(self.opts.time_scale),
                max_attempts: 100_000,
            },
        )
    }

    /// Like [`Self::client`], but with lossy links: every message between
    /// this client and the MSPs is dropped with `drop_prob` and
    /// duplicated with `dup_prob` — the torture rig's message-fault
    /// dimension, exercising resend and duplicate-detection paths.
    pub fn faulty_client(&self, id: u64, drop_prob: f64, dup_prob: f64) -> MspClient {
        let c = self.client(id);
        let ep = EndpointId::Client(id);
        for msp in [EndpointId::Msp(MSP1), EndpointId::Msp(MSP2)] {
            let model = NetModel::client_link()
                .with_scale(self.opts.time_scale)
                .with_faults(drop_prob, dup_prob);
            self.net.set_link(ep, msp, model.clone());
            self.net.set_link(msp, ep, model);
        }
        c
    }

    /// Drive `n` end-client requests with `m` intra-request calls each,
    /// recording per-request response times.
    pub fn run_requests(&self, client: &mut MspClient, n: u64, m: u8) -> Series {
        let payload = request_payload(m);
        let mut series = Series::new();
        let t0 = Instant::now();
        for _ in 0..n {
            let r0 = Instant::now();
            client
                .call(MSP1, "ServiceMethod1", &payload)
                .expect("request");
            series.push(r0.elapsed());
        }
        series.set_elapsed(t0.elapsed());
        series
    }

    /// `clients` concurrent end clients, `n` requests each (§5.5).
    pub fn run_concurrent(&self, clients: u64, n: u64, m: u8) -> Series {
        let mut handles = Vec::new();
        let t0 = Instant::now();
        for cid in 0..clients {
            let payload = request_payload(m);
            let mut c = self.client(100 + cid);
            handles.push(std::thread::spawn(move || {
                let mut s = Series::new();
                for _ in 0..n {
                    let r0 = Instant::now();
                    c.call(MSP1, "ServiceMethod1", &payload).expect("request");
                    s.push(r0.elapsed());
                }
                s
            }));
        }
        let mut series = Series::new();
        for h in handles {
            series.merge(&h.join().expect("client thread"));
        }
        series.set_elapsed(t0.elapsed());
        series
    }

    /// Crashes injected so far (both MSPs).
    pub fn crash_count(&self) -> u64 {
        self.msp1.crashes.load(Ordering::Relaxed) + self.msp2.crashes.load(Ordering::Relaxed)
    }

    pub fn shutdown(mut self) {
        let _ = self.crash_stop.send(());
        if let Some(t) = self.crash_thread.take() {
            let _ = t.join();
        }
        self.msp1.shutdown();
        self.msp2.shutdown();
        if let Some(s) = &self.state_server {
            s.shutdown();
        }
        self.net.shutdown();
    }
}

fn scaled_backoff(scale: f64) -> Duration {
    if scale <= 0.0 {
        Duration::from_micros(200)
    } else {
        Duration::from_millis(100).mul_f64(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::reply_counter;

    fn tiny(config: SystemConfig) -> WorldOptions {
        WorldOptions {
            time_scale: 0.0,
            ..WorldOptions::new(config)
        }
    }

    #[test]
    fn all_configs_serve_the_workload() {
        for config in SystemConfig::ALL {
            let world = World::start(tiny(config));
            let mut c = world.client(1);
            for i in 1..=5u64 {
                let r = c.call(MSP1, "ServiceMethod1", &request_payload(1)).unwrap();
                assert_eq!(reply_counter(&r), i, "config {}", config.name());
            }
            world.shutdown();
        }
    }

    #[test]
    fn m_controls_msp2_request_count() {
        let world = World::start(tiny(SystemConfig::LoOptimistic));
        let mut c = world.client(1);
        c.call(MSP1, "ServiceMethod1", &request_payload(3)).unwrap();
        let s2 = world.msp2.stats().unwrap();
        assert_eq!(s2.requests, 3, "m=3 means three ServiceMethod2 executions");
        world.shutdown();
    }

    #[test]
    fn crash_injection_fires_and_system_recovers() {
        let mut opts = tiny(SystemConfig::LoOptimistic);
        opts.crash_every = 10;
        let world = World::start(opts);
        let mut c = world.client(1);
        for i in 1..=25u64 {
            let r = c.call(MSP1, "ServiceMethod1", &request_payload(1)).unwrap();
            assert_eq!(reply_counter(&r), i, "exactly-once across injected crashes");
        }
        // A crash counts once the controller's kill has joined MSP2's
        // threads, which can land after the last reply of the loop; wait
        // it out, then check exactly-once across it with one more call.
        let deadline = Instant::now() + Duration::from_secs(10);
        while world.crash_count() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(world.crash_count() >= 2, "crashes were injected");
        let r = c.call(MSP1, "ServiceMethod1", &request_payload(1)).unwrap();
        assert_eq!(
            reply_counter(&r),
            26,
            "exactly-once across injected crashes"
        );
        world.shutdown();
    }

    #[test]
    fn slot_restart_reports_recovery_phases() {
        let world = World::start(tiny(SystemConfig::LoOptimistic));
        let mut c = world.client(1);
        for i in 1..=6u64 {
            let r = c.call(MSP1, "ServiceMethod1", &request_payload(1)).unwrap();
            assert_eq!(reply_counter(&r), i);
        }
        world.msp2.kill();
        assert!(!world.msp2.is_up());
        let phases = world.msp2.restart();
        assert!(world.msp2.is_up());
        // The restarted MSP ran an analysis scan over real log bytes.
        assert!(world.msp2.stats().unwrap().crash_recoveries >= 1);
        let _ = phases.total();
        for i in 7..=9u64 {
            let r = c.call(MSP1, "ServiceMethod1", &request_payload(1)).unwrap();
            assert_eq!(reply_counter(&r), i, "exactly-once across kill/restart");
        }
        world.shutdown();
    }
}
