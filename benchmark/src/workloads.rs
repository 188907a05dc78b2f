//! The six workloads and the two ways of running them: a request
//! workload drives the two-MSP Figure 13 world and ends with crash and
//! restart of MSP1; a recovery workload builds a crash image of a solo MSP
//! and restarts it over and over, serving a burst of requests after each.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    self, Disk, DiskModel, Envelope, FlushMode, FlushPolicy, LogStatsSnapshot, MemDisk, MspHandle,
    NetModel, NetStatsSnapshot, Network, PoolStatsSnapshot, RuntimeStatsSnapshot,
    ShardStatsSnapshot, SystemConfig, World, WorldSpec,
};
use crate::gen::{poisson_schedule, Generator, Rng};
use crate::metrics::{ratio, Values, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{median, midmean, tail_percentile};
use crate::trace::Trace;

/// Load discarded before the measured window of a request workload.
const WARMUP: Duration = Duration::from_secs(2);
/// How often a run sets up, to report the median set-up time: starting
/// a world takes milliseconds, building a crash image most of a second.
const WORLD_SETUPS: usize = 9;
const IMAGE_SETUPS: usize = 3;
/// Slices of the measured window of a request workload.
const WINDOW_SLICES: u32 = 10;
/// Idle time before the restarts of a checkpointing world: long enough
/// for the forced checkpoints of the now idle sessions (16 MSP
/// checkpoints of 50 ms), so every restart recovers the same fully
/// checkpointed state instead of a random phase of the checkpoint cycle.
const QUIESCE: Duration = Duration::from_millis(1000);
/// Restarts of MSP1 after a request workload (one where checkpoints are
/// off and the whole log must be replayed).
const WORLD_RESTARTS: usize = 9;
/// After each restart of a recovery workload every session makes this
/// many calls, this many times over; each round is one latency slice.
const BURST_CALLS: u64 = 32;
const BURST_ROUNDS: usize = 8;
/// Restarts of a recovery workload, however short the run.
const MIN_RECOVERY_CYCLES: usize = 3;
/// Time scale of the restarts of a recovery workload.
pub const RECOVER_SCALE: f64 = 0.05;
/// Latency samples below which a run reports nothing.
const MIN_SAMPLES: usize = 1000;
/// An open-loop run is void when, in its median slice, requests leave
/// this late on average or fewer than this share of the offered requests
/// commit.
const MAX_MEAN_LATE_US: f64 = 500.0;
const MIN_ACHIEVED: f64 = 0.98;
/// A restart without service after this long fails the run.
const RECOVERY_DEADLINE: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Poisson arrivals at this rate over this many sessions, latency
    /// from the scheduled arrival.
    Open { rate_rps: f64, sessions: usize },
    /// This many virtual clients, each sending when its reply arrives.
    Closed { clients: usize },
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Request { world: WorldSpec, m: u8, load: Load },
    Recover { sessions: usize, calls: u64 },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

const fn world(config: SystemConfig, time_scale: f64, flush_mode: FlushMode) -> WorldSpec {
    WorldSpec {
        config,
        time_scale,
        flush_mode,
        log_stripes: 0,
        runtime_shards: 1,
        checkpoints: true,
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "commit_open",
        why: "open loop at a quarter of the knee: latency is modelled device and network time plus checkpoint bursts; CPU paths do almost nothing",
        kind: Kind::Request {
            world: world(SystemConfig::LoOptimistic, 0.1, FlushMode::GroupCommit),
            m: 1,
            load: Load::Open {
                rate_rps: 2000.0,
                sessions: 128,
            },
        },
    },
    Workload {
        name: "commit_cpu",
        why: "same requests with no device or network model: the software path alone, where append, codec and runtime changes show",
        kind: Kind::Request {
            world: world(SystemConfig::LoOptimistic, 0.0, FlushMode::GroupCommit),
            m: 1,
            load: Load::Closed { clients: 8 },
        },
    },
    Workload {
        name: "chain",
        why: "four cross-domain hops per request, 2m+1 sequential flushes: distributed-flush gates, release stage, worker parking and net hops dominate",
        kind: Kind::Request {
            world: WorldSpec {
                checkpoints: false,
                ..world(SystemConfig::Pessimistic, 0.1, FlushMode::GroupCommit)
            },
            m: 4,
            load: Load::Closed { clients: 16 },
        },
    },
    Workload {
        name: "striped_commit",
        why: "the only workload on the striped log and sharded runtime: stripe routing, global sequence number and merged watermark are on the critical path",
        kind: Kind::Request {
            world: WorldSpec {
                log_stripes: 4,
                runtime_shards: 2,
                ..world(SystemConfig::LoOptimistic, 0.25, FlushMode::PerRequest)
            },
            m: 1,
            load: Load::Closed { clients: 32 },
        },
    },
    Workload {
        name: "recover_fit",
        why: "crash image smaller than the recovery buffer pool: analysis scan and replay with no evictions, so pool policy must not move it",
        kind: Kind::Recover {
            sessions: 64,
            calls: 200,
        },
    },
    Workload {
        name: "recover_spill",
        why: "crash image three times the recovery buffer pool: replay re-reads and evicts, the log read path and the pool under thrash",
        kind: Kind::Recover {
            sessions: 64,
            calls: 800,
        },
    },
];

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes `<workload>.trace.json`.
    pub out_dir: std::path::PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check violations beyond failed operations.
    pub violations: Vec<String>,
    pub end_to_end: Values,
    /// Present on a traced run.
    pub per_layer: Option<Values>,
}

/// User-mode CPU time of the process in seconds. Kernel time is left
/// out: on a shared VM the price of one futex or timer call doubles for
/// minutes at a time (README, "found while sizing"), which moved
/// user+system time per request by a third between identical runs.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime is the 14th of
    // the line, in ticks of 1/100 s.
    let rest = &stat[stat.rfind(')').expect("comm field") + 2..];
    let ticks: u64 = rest
        .split(' ')
        .nth(11)
        .and_then(|f| f.parse().ok())
        .expect("utime field");
    ticks as f64 / 100.0
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kb / 1024.0
}

/// The public counter snapshots of one MSP.
#[derive(Default, Clone)]
struct MspCounters {
    rt: RuntimeStatsSnapshot,
    log: LogStatsSnapshot,
    stripes: Vec<LogStatsSnapshot>,
    shards: Vec<ShardStatsSnapshot>,
}

/// Everything read at one edge of the measured window.
struct Counters {
    msps: Vec<MspCounters>,
    net: NetStatsSnapshot,
    cpu_s: f64,
    at: Instant,
}

impl Counters {
    fn of_world(world: &World) -> Counters {
        let msps = [&world.msp1, &world.msp2]
            .map(|slot| MspCounters {
                rt: slot.stats().unwrap_or_default(),
                log: slot.log_stats().unwrap_or_default(),
                stripes: slot.stripe_stats().unwrap_or_default(),
                shards: slot.shard_stats(),
            })
            .to_vec();
        Counters::now(msps, world.net.stats())
    }

    fn of_solo(handle: &MspHandle, net: &Network<Envelope>) -> Counters {
        let msp = MspCounters {
            rt: handle.stats(),
            log: handle.log_stats().unwrap_or_default(),
            stripes: handle.stripe_stats().unwrap_or_default(),
            shards: handle.shard_stats(),
        };
        Counters::now(vec![msp], net.stats())
    }

    fn now(msps: Vec<MspCounters>, net: NetStatsSnapshot) -> Counters {
        Counters {
            msps,
            net,
            cpu_s: cpu_seconds(),
            at: Instant::now(),
        }
    }
}

/// What the window between two [`Counters`] amounts to.
struct WindowFacts<'a> {
    before: &'a Counters,
    after: &'a Counters,
    /// Requests committed in the window.
    ops: f64,
}

impl<'a> WindowFacts<'a> {
    fn between(before: &'a Counters, after: &'a Counters, committed: usize) -> Self {
        WindowFacts {
            before,
            after,
            ops: committed as f64,
        }
    }

    fn seconds(&self) -> f64 {
        (self.after.at - self.before.at).as_secs_f64()
    }

    /// Log counters of the window, summed over the MSPs.
    fn log(&self) -> LogStatsSnapshot {
        self.after
            .msps
            .iter()
            .zip(&self.before.msps)
            .map(|(a, b)| a.log.since(&b.log))
            .reduce(|x, y| x.merge(&y))
            .unwrap_or_default()
    }

    /// A runtime counter's growth over the window, summed over the MSPs.
    fn rt(&self, field: impl Fn(&RuntimeStatsSnapshot) -> u64) -> f64 {
        self.after
            .msps
            .iter()
            .zip(&self.before.msps)
            .map(|(a, b)| field(&a.rt).saturating_sub(field(&b.rt)))
            .sum::<u64>() as f64
    }

    /// Share of the window the busiest log device spent in modelled
    /// writes. `flush_cost` is affine in the sector count, so the cost of
    /// all flushes follows from their number and their total sectors.
    fn device_busy_share(&self, model: &DiskModel) -> f64 {
        let one = model.flush_cost(1).as_secs_f64();
        let per_sector = model.flush_cost(2).as_secs_f64() - one;
        let fixed = one - per_sector;
        self.after
            .msps
            .iter()
            .zip(&self.before.msps)
            .flat_map(|(a, b)| a.stripes.iter().zip(&b.stripes))
            .map(|(a, b)| {
                let d = a.since(b);
                d.flushes as f64 * fixed + d.flushed_sectors as f64 * per_sector
            })
            .fold(0.0, f64::max)
            / self.seconds()
    }

    /// Largest over smallest growth among the parts (stripes or shards)
    /// of MSP1; 0 when it has a single part.
    fn skew(counts: Vec<u64>) -> f64 {
        if counts.len() < 2 {
            return 0.0;
        }
        let max = *counts.iter().max().expect("non-empty") as f64;
        let min = *counts.iter().min().expect("non-empty") as f64;
        ratio(max, min)
    }

    /// `m` is the number of calls from MSP1 to MSP2 per operation.
    fn fill(&self, v: &mut Values, m: f64, model: &DiskModel) {
        let (log, ops, secs) = (self.log(), self.ops, self.seconds());
        v.set("wal.appends_per_op", ratio(log.appends as f64, ops));
        v.set("wal.flushes_per_op", ratio(log.flushes as f64, ops));
        v.set(
            "wal.sectors_per_flush",
            ratio(log.flushed_sectors as f64, log.flushes as f64),
        );
        v.set(
            "wal.padded_share",
            ratio(log.padded_bytes as f64, log.flushed_sectors as f64 * 512.0),
        );
        v.set(
            "wal.group_commit_batches_per_flush",
            ratio(log.group_commit_batches as f64, log.flushes as f64),
        );
        v.set(
            "wal.flush_tickets_per_op",
            ratio(log.flush_tickets_issued as f64, ops),
        );
        v.set("wal.device_busy_share", self.device_busy_share(model));
        v.set("wal.truncations", log.log_truncations as f64);
        v.set(
            "wal.bytes_reclaimed_per_op",
            ratio(log.bytes_reclaimed as f64, ops),
        );
        let (a1, b1) = (&self.after.msps[0], &self.before.msps[0]);
        v.set(
            "wal.stripe_skew",
            Self::skew(
                a1.stripes
                    .iter()
                    .zip(&b1.stripes)
                    .map(|(a, b)| a.appends - b.appends)
                    .collect(),
            ),
        );
        v.set(
            "wal.watermark_lag_us_per_flush",
            ratio(
                log.merged_watermark_lag_nanos as f64 / 1e3,
                log.flushes as f64,
            ),
        );
        v.set(
            "wal.stripe_flushes_per_op",
            ratio(log.stripe_flushes as f64, ops),
        );
        v.set(
            "core.shard_skew",
            Self::skew(
                a1.shards
                    .iter()
                    .zip(&b1.shards)
                    .map(|(a, b)| a.requests - b.requests)
                    .collect(),
            ),
        );
        v.set(
            "core.session_checkpoints_per_s",
            self.rt(|s| s.session_checkpoints) / secs,
        );
        v.set(
            "core.msp_checkpoints_per_s",
            self.rt(|s| s.msp_checkpoints) / secs,
        );
        v.set(
            "core.busy_replies_per_op",
            ratio(self.rt(|s| s.busy_replies), ops),
        );
        v.set(
            "core.distributed_flushes_per_op",
            ratio(self.rt(|s| s.distributed_flushes), ops),
        );
        let (elided, served) = (
            self.rt(|s| s.flush_rpcs_elided),
            self.rt(|s| s.flush_requests_served),
        );
        v.set(
            "core.flush_rpcs_elided_share",
            ratio(elided, elided + served),
        );
        v.set(
            "core.flushes_elided_per_op",
            ratio(self.rt(|s| s.flushes_elided), ops),
        );
        v.set(
            "core.hop_wait_us_per_hop",
            ratio(self.rt(|s| s.chain_hop_wait_nanos) / 1e3, ops * m),
        );
        v.set(
            "core.worker_parks_per_op",
            ratio(self.rt(|s| s.worker_parks), ops),
        );
        v.set(
            "core.async_reply_releases_per_op",
            ratio(self.rt(|s| s.async_reply_releases), ops),
        );
        v.set(
            "core.async_send_releases_per_op",
            ratio(self.rt(|s| s.async_send_releases), ops),
        );
        v.set(
            "core.gates_pending_end",
            self.after
                .msps
                .iter()
                .map(|m| m.rt.gates_pending + m.rt.send_gates_pending)
                .sum::<u64>() as f64,
        );
        let sent = self.after.net.sent - self.before.net.sent;
        v.set("net.msgs_per_op", ratio(sent as f64, ops));
        v.set(
            "net.dead_letters",
            (self.after.net.dead_letter - self.before.net.dead_letter) as f64,
        );
    }
}

/// Timings of the restarts of one run and the counters of the last.
#[derive(Default)]
struct Restarts {
    mttr_ms: Vec<f64>,
    first_reply_ms: Vec<f64>,
    last_rt: RuntimeStatsSnapshot,
    last_pool: PoolStatsSnapshot,
}

impl Restarts {
    fn fill(&self, v: &mut Values) {
        let ms = |nanos: u64| nanos as f64 / 1e6;
        let (analysis, checkpoint, replay) = (
            ms(self.last_rt.recovery_analysis_nanos),
            ms(self.last_rt.recovery_checkpoint_nanos),
            ms(self.last_rt.recovery_replay_nanos),
        );
        let mttr = self.mttr_ms.last().copied().unwrap_or(0.0);
        v.set("core.recovery_analysis_ms", analysis);
        v.set("core.recovery_checkpoint_ms", checkpoint);
        v.set("core.recovery_replay_ms", replay);
        v.set(
            "core.recovery_glue_ms",
            mttr - analysis - checkpoint - replay,
        );
        v.set(
            "core.recovery_pool_sessions",
            self.last_rt.recovery_pool_sessions as f64,
        );
        let p = &self.last_pool;
        v.set(
            "wal.pool_hit_rate",
            ratio(p.pool_hits as f64, (p.pool_hits + p.pool_misses) as f64),
        );
        v.set("wal.pool_misses", p.pool_misses as f64);
        v.set("wal.pool_evictions", p.pool_evictions as f64);
        v.set("wal.pool_prefetch_hits", p.pool_prefetch_hits as f64);
    }
}

/// After a restart begun at `t0`: ask for the next reply of session
/// `probe`, and wait for both that reply and the end of crash recovery.
/// Returns (restart → recovery complete, restart → first reply) in ms.
fn await_service(
    gen: &mut Generator,
    probe: usize,
    t0: Instant,
    recovered: impl Fn() -> bool,
) -> Result<(f64, f64), String> {
    gen.send_on(probe);
    let (mut mttr, mut first) = (None, None);
    while mttr.is_none() || first.is_none() {
        gen.pump(Duration::from_micros(100));
        let elapsed = t0.elapsed();
        if mttr.is_none() && recovered() {
            mttr = Some(elapsed.as_secs_f64() * 1e3);
        }
        if first.is_none() && gen.is_idle(probe) {
            first = Some(elapsed.as_secs_f64() * 1e3);
        }
        if elapsed > RECOVERY_DEADLINE {
            return Err(format!("no service {RECOVERY_DEADLINE:?} after a restart"));
        }
    }
    Ok((mttr.expect("set"), first.expect("set")))
}

/// One request on each of `sessions`, all replies awaited; the generator
/// checks each against the session's counter before the crash.
fn check_sessions(gen: &mut Generator, sessions: impl Iterator<Item = usize>) {
    let sessions: Vec<usize> = sessions.filter(|&i| gen.is_idle(i)).collect();
    for &i in &sessions {
        gen.send_on(i);
    }
    while sessions.iter().any(|&i| !gen.is_idle(i)) {
        gen.pump(Duration::from_millis(1));
    }
}

/// Per end-to-end metric, one value per slice of the run (a tenth of the
/// window, a burst round, a restart, a set-up). The run reports each
/// metric's midmean over its slices (the median for set-up), so one stall
/// — a forced-checkpoint burst, the in-memory disk doubling its buffer —
/// moves one slice and not the result.
#[derive(Default)]
struct Measured {
    setups_s: Vec<f64>,
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    rps: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    log_bytes_per_op: Vec<f64>,
    restarts: Restarts,
}

impl Measured {
    /// A slice of `seconds` in which the requests of `latencies_ns`
    /// committed.
    fn latency_slice(&mut self, latencies_ns: &[u64], seconds: f64) {
        let mut sorted = latencies_ns.to_vec();
        sorted.sort_unstable();
        let ms = |q: f64| tail_percentile(&sorted, q).map(|ns| ns as f64 / 1e6);
        if let (Some(p50), Some(p99)) = (ms(0.50), ms(0.99)) {
            self.p50_ms.push(p50);
            self.p99_ms.push(p99);
            self.rps.push(ratio(sorted.len() as f64, seconds));
        }
    }

    fn end_to_end(&self, samples: usize) -> Result<Values, String> {
        if samples < MIN_SAMPLES || self.p99_ms.is_empty() {
            return Err(format!(
                "{samples} latency samples, {MIN_SAMPLES} needed for a p99"
            ));
        }
        let mut v = Values::for_names(END_TO_END.iter().map(|e| e.name));
        v.set("setup_s", median(&self.setups_s));
        v.set("latency_p50_ms", midmean(&self.p50_ms));
        v.set("latency_p99_ms", midmean(&self.p99_ms));
        v.set("throughput_rps", midmean(&self.rps));
        v.set("cpu_us_per_op", midmean(&self.cpu_us_per_op));
        v.set("log_bytes_per_op", midmean(&self.log_bytes_per_op));
        v.set("mttr_ms", midmean(&self.restarts.mttr_ms));
        v.set("first_reply_ms", midmean(&self.restarts.first_reply_ms));
        v.set("peak_rss_mb", peak_rss_mb());
        Ok(v)
    }
}

/// The generator's own per-layer figures.
fn client_layer(gen: &Generator, e2e: &Values, v: &mut Values) {
    let w = &gen.window;
    let ops = w.latencies_ns.len() as f64;
    v.set(
        "client.send_late_us",
        ratio(w.late_ns as f64 / 1e3, w.started as f64),
    );
    v.set("client.backlog_max", w.backlog_max as f64);
    v.set("client.resends_per_op", ratio(w.resends as f64, ops));
    v.set("client.busy_polls_per_op", ratio(w.busy_polls as f64, ops));
    v.set("client.over_50ms_share", ratio(w.slow as f64, ops));
    let rps = e2e.get("throughput_rps").expect("set");
    v.set("client.achieved_rps", rps);
    v.set("client.traced_rps", rps);
    v.set(
        "client.traced_p50_ms",
        e2e.get("latency_p50_ms").expect("set"),
    );
}

fn write_trace(trace: &Trace, args: &Args, workload: &str) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| {
            std::fs::write(
                args.out_dir.join(format!("{workload}.trace.json")),
                trace.to_json(workload, args.seed),
            )
        })
        .map_err(|e| format!("write trace to {}: {e}", args.out_dir.display()))
}

pub fn run(w: &Workload, args: &Args) -> Result<Outcome, String> {
    match w.kind {
        Kind::Request { world, m, load } => run_request(w.name, &world, m, load, args),
        Kind::Recover { sessions, calls } => run_recover(w.name, sessions, calls, args),
    }
}

fn run_request(
    name: &str,
    spec: &WorldSpec,
    m: u8,
    load: Load,
    args: &Args,
) -> Result<Outcome, String> {
    let sessions = match load {
        Load::Open { sessions, .. } => sessions,
        Load::Closed { clients } => clients,
    };
    let mut rng = Rng::new(args.seed);

    // Set-up, several times over; the last world is the one measured.
    let mut setups_s = Vec::new();
    let mut live: Option<(World, Generator)> = None;
    for _ in 0..WORLD_SETUPS {
        if let Some((world, gen)) = live.take() {
            drop(gen);
            world.shutdown();
        }
        let t = Instant::now();
        let world = api::start_world(spec, args.seed);
        let ep = api::register_client(&world.net, 1, api::MSP1, Some(spec.time_scale));
        let gen = Generator::new(
            ep,
            api::MSP1,
            api::WORLD_METHOD,
            api::request_payload(m),
            sessions,
            Trace::new(args.trace),
        );
        setups_s.push(t.elapsed().as_secs_f64());
        live = Some((world, gen));
    }
    let (world, mut gen) = live.expect("set up at least once");

    // Every session opens at once, so their forced checkpoints — due a
    // fixed number of MSP checkpoints after a session's last one — fall
    // together in every run rather than in however many groups the first
    // arrivals happened to form. Then warm-up, the measured window, and
    // every reply still owed.
    let opening = Instant::now();
    check_sessions(&mut gen, 0..sessions);
    let window = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let (warm_end, end) = (t0 + WARMUP, t0 + WARMUP + window);
    let slice_end = |k: u32| WARMUP + window.mul_f64(f64::from(k) / f64::from(WINDOW_SLICES));
    // Open loop: arrivals due in each slice of the window.
    let mut offered: Option<Vec<usize>> = None;
    match load {
        Load::Open { rate_rps, sessions } => {
            let total = (WARMUP + window).as_secs_f64();
            let schedule = poisson_schedule(args.seed, rate_rps, total, sessions as u32);
            let due_by = |k: u32| {
                let end = slice_end(k).as_nanos() as u64;
                schedule.partition_point(|a| a.offset_ns < end)
            };
            offered = Some(
                (1..=WINDOW_SLICES)
                    .map(|k| due_by(k) - due_by(k - 1))
                    .collect(),
            );
            gen.set_schedule(t0, schedule);
        }
        Load::Closed { .. } => gen.set_closed(u64::MAX, end),
    }
    gen.run(warm_end, false);
    gen.recording = true;
    // Set-up is everything before the window opens: starting the world
    // (each of the repeats), opening the sessions and warming up (once).
    // Alone, the few milliseconds of a world start differ by half between
    // identical runs; the warm-up makes the sum steady and leaves it
    // showing any work of a few hundred milliseconds moved into set-up.
    let warm_s = opening.elapsed().as_secs_f64();
    let mut measured = Measured {
        setups_s: setups_s.iter().map(|s| s + warm_s).collect(),
        ..Measured::default()
    };
    let mut edges = vec![Counters::of_world(&world)];
    // Per slice: mean lateness of the requests started, and the share of
    // the arrivals due that committed.
    let (mut late_us, mut achieved) = (Vec::new(), Vec::new());
    for k in 1..=WINDOW_SLICES {
        let from = gen.window.latencies_ns.len();
        let (late_ns, started) = (gen.window.late_ns, gen.window.started);
        gen.run(t0 + slice_end(k), false);
        edges.push(Counters::of_world(&world));
        if let Some(offered) = &offered {
            let w = &gen.window;
            late_us.push(ratio(
                (w.late_ns - late_ns) as f64 / 1e3,
                (w.started - started) as f64,
            ));
            achieved.push(ratio(
                (w.latencies_ns.len() - from) as f64,
                offered[k as usize - 1] as f64,
            ));
        }
        let [.., before, after] = &edges[..] else {
            unreachable!("two edges")
        };
        let facts = WindowFacts::between(before, after, gen.window.latencies_ns.len() - from);
        measured.latency_slice(&gen.window.latencies_ns[from..], facts.seconds());
        measured
            .cpu_us_per_op
            .push(ratio((after.cpu_s - before.cpu_s) * 1e6, facts.ops));
        measured
            .log_bytes_per_op
            .push(ratio(facts.log().appended_bytes as f64, facts.ops));
    }
    gen.recording = false;
    gen.run(end, true);
    let (before, after) = (&edges[0], &edges[WINDOW_SLICES as usize]);

    if offered.is_some() {
        // The median slice decides: a generator that cannot keep up is
        // late in every slice, while one 100 ms freeze of the whole VM
        // would on its own lift the mean over the window past the limit.
        let (late, achieved) = (median(&late_us), median(&achieved));
        if late > MAX_MEAN_LATE_US || achieved < MIN_ACHIEVED {
            return Err(format!(
                "open loop not held: in the median slice requests left {late:.0} us late on \
                 average (limit {MAX_MEAN_LATE_US}) and {achieved:.3} of the offered requests \
                 committed (limit {MIN_ACHIEVED}); the numbers would measure the scheduler"
            ));
        }
    }
    let mut violations = Vec::new();
    if !gen.shared.consistent() {
        violations.push(format!(
            "shared variable SV1 does not total the {} committed requests",
            gen.shared.total()
        ));
    }

    // Crash and restart MSP1 with nothing in flight: everything the
    // clients were told is on its disk, and nothing else survives.
    let restarts = &mut measured.restarts;
    if spec.checkpoints {
        std::thread::sleep(QUIESCE);
    }
    let n = if spec.checkpoints { WORLD_RESTARTS } else { 1 };
    for _ in 0..n {
        let probe = rng.below(sessions as u64) as usize;
        world.msp1.kill();
        let t0 = Instant::now();
        world.msp1.restart();
        let (mttr, first) = await_service(&mut gen, probe, t0, || world.msp1.recovery_complete())?;
        restarts.mttr_ms.push(mttr);
        restarts.first_reply_ms.push(first);
        // The next request of every other session too: each must answer
        // with its pre-crash counter plus one. Their records also move
        // the log's end across the 64 KB read grid between restarts, so
        // the median restart does not hang on where one run's log ended.
        check_sessions(&mut gen, (0..sessions).filter(|&i| i != probe));
        restarts.last_rt = world.msp1.stats().unwrap_or_default();
        restarts.last_pool = world.msp1.pool_stats();
    }
    if !gen.shared.consistent() {
        violations.push("shared variable SV1 lost or repeated an update across restarts".into());
    }

    let model = DiskModel::default().with_scale(spec.time_scale);
    let e2e = measured.end_to_end(gen.window.latencies_ns.len())?;

    let per_layer = if args.trace {
        let mut v = Values::for_names(PER_LAYER.iter().map(|l| l.name));
        let facts = WindowFacts::between(before, after, gen.window.latencies_ns.len());
        facts.fill(&mut v, f64::from(m), &model);
        measured.restarts.fill(&mut v);
        client_layer(&gen, &e2e, &mut v);
        // Modelled floor of one request: the client round trip, m MSP
        // round trips, and the device writes on its critical path (one
        // distributed flush when both MSPs share a domain, 2m+1
        // sequential ones when every hop crosses a domain).
        let rtt = |link: NetModel| 2.0 * link.with_scale(spec.time_scale).delay(0.5).as_secs_f64();
        let flushes = match spec.config {
            SystemConfig::Pessimistic => 2.0 * f64::from(m) + 1.0,
            _ => 1.0,
        };
        let sectors = v.get("wal.sectors_per_flush").expect("set").round() as u64;
        let floor_s = rtt(NetModel::client_link())
            + f64::from(m) * rtt(NetModel::default())
            + flushes * model.flush_cost(sectors).as_secs_f64();
        v.set(
            "core.software_p50_ms",
            e2e.get("latency_p50_ms").expect("set") - floor_s * 1e3,
        );
        let policy = match spec.flush_mode {
            FlushMode::GroupCommit => FlushPolicy::immediate(),
            _ => FlushPolicy::per_request(),
        };
        probes::run(
            &probes::Input {
                image: &world.msp1.disk().snapshot(),
                model: model.clone(),
                policy,
                net_scale: spec.time_scale,
                records_per_op: ratio(facts.log().appends as f64, facts.ops * 2.0).round() as usize,
                seed: args.seed,
            },
            &mut gen.trace,
            &mut v,
        );
        write_trace(&gen.trace, args, name)?;
        Some(v)
    } else {
        None
    };

    let (attempted, failed) = (gen.attempted, gen.failed);
    drop(gen);
    world.shutdown();
    Ok(Outcome {
        attempted,
        failed,
        violations,
        end_to_end: e2e,
        per_layer,
    })
}

fn run_recover(name: &str, sessions: usize, calls: u64, args: &Args) -> Result<Outcome, String> {
    let mut rng = Rng::new(args.seed);
    let net: Network<Envelope> = Network::new(NetModel::zero(), args.seed);
    let ep = api::register_client(&net, 1, api::SOLO, None);
    let mut gen = Generator::new(
        ep,
        api::SOLO,
        api::SOLO_METHOD,
        vec![0x42; 100],
        sessions,
        Trace::new(args.trace),
    );
    let forever = Instant::now() + Duration::from_secs(86_400);
    let fresh = vec![(0u64, 0u64); sessions];
    let mut violations = Vec::new();

    // Set-up, several times over: build the crash image at no modelled
    // cost, every session calling in turn with the others, then crash.
    // `crash` discards the unflushed tail, so the image is exactly the
    // bytes that reached the device.
    let mut setups_s = Vec::new();
    let mut image = Vec::new();
    let mut log_bytes_per_op = 0.0;
    for _ in 0..IMAGE_SETUPS {
        gen.rewind(&fresh, 0);
        let t = Instant::now();
        let disk = Arc::new(MemDisk::new());
        let handle = api::start_solo(&net, Arc::clone(&disk), 0.0);
        gen.set_closed(calls, forever);
        gen.run(forever, true);
        log_bytes_per_op = ratio(
            handle.log_stats().unwrap_or_default().appended_bytes as f64,
            (sessions as u64 * calls) as f64,
        );
        handle.crash();
        image = disk.snapshot();
        setups_s.push(t.elapsed().as_secs_f64());
    }
    let at_crash = gen.positions();
    let total_at_crash = gen.shared.total();
    if at_crash.iter().any(|&(_, acked)| acked != calls) || !gen.shared.consistent() {
        violations.push(format!(
            "image build did not commit {calls} calls per session"
        ));
    }

    // Restart from the image until the time is up: recovery, the first
    // reply of one session, then bursts on every session — whose first
    // replies the generator checks against the counters at the crash.
    let mut measured = Measured {
        setups_s,
        ..Measured::default()
    };
    let replayed = (sessions as u64 * calls) as f64;
    let mut last_burst: Option<(Counters, Counters)> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut cycles = 0usize;
    while cycles < MIN_RECOVERY_CYCLES || Instant::now() < deadline {
        gen.rewind(&at_crash, total_at_crash);
        let disk = Arc::new(MemDisk::new());
        disk.write(0, &image)
            .map_err(|e| format!("restore image: {e}"))?;
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let handle = api::start_solo(&net, disk, RECOVER_SCALE);
        let probe = rng.below(sessions as u64) as usize;
        let (mttr, first) = await_service(&mut gen, probe, t0, || handle.recovery_complete())?;
        let restarts = &mut measured.restarts;
        restarts.mttr_ms.push(mttr);
        restarts.first_reply_ms.push(first);
        restarts.last_rt = handle.stats();
        restarts.last_pool = handle.pool_stats();

        let served = gen.window.latencies_ns.len();
        gen.recording = true;
        for _ in 0..BURST_ROUNDS {
            let from = gen.window.latencies_ns.len();
            let before = Counters::of_solo(&handle, &net);
            gen.set_closed(BURST_CALLS, forever);
            gen.run(forever, true);
            let after = Counters::of_solo(&handle, &net);
            let seconds = (after.at - before.at).as_secs_f64();
            measured.latency_slice(&gen.window.latencies_ns[from..], seconds);
            last_burst = Some((before, after));
        }
        gen.recording = false;
        // An operation here is a request brought to its committed state,
        // by replay or by execution.
        let ops = replayed + (gen.window.latencies_ns.len() - served) as f64;
        measured
            .cpu_us_per_op
            .push(ratio((cpu_seconds() - cpu0) * 1e6, ops));
        measured.log_bytes_per_op.push(log_bytes_per_op);
        if !gen.shared.consistent() {
            violations.push(format!(
                "restart {cycles}: shared variable lost or repeated an update"
            ));
        }
        handle.crash();
        cycles += 1;
    }
    let e2e = measured.end_to_end(gen.window.latencies_ns.len())?;

    let per_layer = if args.trace {
        let mut v = Values::for_names(PER_LAYER.iter().map(|l| l.name));
        let model = DiskModel::default().with_scale(RECOVER_SCALE);
        let (before, after) = last_burst.as_ref().expect("at least one cycle");
        let facts = WindowFacts::between(before, after, sessions * BURST_CALLS as usize);
        facts.fill(&mut v, 0.0, &model);
        measured.restarts.fill(&mut v);
        client_layer(&gen, &e2e, &mut v);
        let sectors = v.get("wal.sectors_per_flush").expect("set").round() as u64;
        v.set(
            "core.software_p50_ms",
            e2e.get("latency_p50_ms").expect("set") - model.flush_cost(sectors).as_secs_f64() * 1e3,
        );
        probes::run(
            &probes::Input {
                image: &image,
                model: model.clone(),
                policy: FlushPolicy::immediate(),
                net_scale: 0.0,
                records_per_op: facts.log().appends as usize / facts.ops as usize,
                seed: args.seed,
            },
            &mut gen.trace,
            &mut v,
        );
        write_trace(&gen.trace, args, name)?;
        Some(v)
    } else {
        None
    };

    let (attempted, failed) = (gen.attempted, gen.failed);
    drop(gen);
    net.shutdown();
    Ok(Outcome {
        attempted,
        failed,
        violations,
        end_to_end: e2e,
        per_layer,
    })
}
