//! One driver per table and figure of the paper's evaluation (§5), plus
//! the ablations called out in `DESIGN.md`.
//!
//! Each driver returns plain row structs; the `repro` binary renders them
//! as markdown. All times can be reported both at simulation scale and
//! normalized back to paper-equivalent milliseconds (divide by the time
//! scale).
//!
//! Workload-size scaling: the paper drives 20 000 end-client requests per
//! cell and crashes every 1000–2000 requests against a 1 MB session
//! checkpoint threshold (≈ 682 requests of log). The drivers keep the
//! *ratios* — crash interval ≈ 1.5 × checkpoint interval at the reference
//! point — while shrinking absolute counts so a full reproduction runs in
//! minutes; every row records the parameters it actually used.

use std::time::Duration;

use crate::metrics::Summary;
use crate::world::{FlushMode, SystemConfig, World, WorldOptions};

/// Default request count per experiment cell (paper: 20 000).
pub const DEFAULT_REQUESTS: u64 = 400;

/// A measured cell of Figure 14 (table or chart).
#[derive(Debug, Clone)]
pub struct Fig14Row {
    pub config: SystemConfig,
    /// Calls to ServiceMethod2 per request (the chart's x axis).
    pub m: u8,
    pub summary: Summary,
    pub time_scale: f64,
}

/// One measured cell: a warm-up (populate the session, fill caches),
/// then `requests` requests at call depth `m`. Returns their summary and
/// the crashes injected meanwhile.
fn cell(opts: WorldOptions, requests: u64, m: u8) -> (Summary, u64) {
    let world = World::start(opts);
    let mut client = world.client(1);
    let _ = world.run_requests(&mut client, requests.min(20), m);
    let series = world.run_requests(&mut client, requests, m);
    let crashes = world.crash_count();
    world.shutdown();
    (series.summary(), crashes)
}

fn opts(config: SystemConfig, scale: f64) -> WorldOptions {
    WorldOptions {
        time_scale: scale,
        ..WorldOptions::new(config)
    }
}

fn fig14_row(scale: f64, requests: u64, config: SystemConfig, m: u8) -> Fig14Row {
    Fig14Row {
        config,
        m,
        summary: cell(opts(config, scale), requests, m).0,
        time_scale: scale,
    }
}

/// E1 — Figure 14 table: average response time of the five system
/// configurations at m = 1.
pub fn fig14_table(scale: f64, requests: u64) -> Vec<Fig14Row> {
    SystemConfig::ALL
        .iter()
        .map(|&config| fig14_row(scale, requests, config, 1))
        .collect()
}

/// E2 — Figure 14 chart: response time versus the number of calls to
/// ServiceMethod2 inside ServiceMethod1 (m = 1..=4), all configurations.
pub fn fig14_chart(scale: f64, requests: u64) -> Vec<Fig14Row> {
    SystemConfig::ALL
        .iter()
        .flat_map(|&config| (1..=4).map(move |m| fig14_row(scale, requests, config, m)))
        .collect()
}

/// A measured cell of Figure 15(a) / Figure 16 chart.
#[derive(Debug, Clone)]
pub struct ThresholdRow {
    /// Session checkpointing threshold in bytes; `None` = no
    /// checkpointing.
    pub threshold: Option<u64>,
    pub crash_every: u64,
    pub crashes: u64,
    pub summary: Summary,
    pub time_scale: f64,
}

/// The checkpoint-threshold sweep used by E3 and E6. The paper sweeps
/// 64 KB … 4 MB at ~1.5 KB of log per request; the same thresholds are
/// meaningful here because the workload's record sizes match §5.1.
pub const THRESHOLDS: [u64; 8] = [
    4 << 10,
    8 << 10,
    16 << 10,
    32 << 10,
    64 << 10,
    128 << 10,
    256 << 10,
    1 << 20,
];

/// E3 — Figure 15(a): throughput versus session checkpointing threshold,
/// locally optimistic logging, no crashes. The rightmost row disables
/// checkpointing entirely (the paper's asymptote).
pub fn fig15a(scale: f64, requests: u64) -> Vec<ThresholdRow> {
    let cells = THRESHOLDS.iter().map(|&t| Some(t)).chain([None]);
    cells
        .map(|threshold| {
            let opts = WorldOptions {
                session_ckpt_threshold: threshold.unwrap_or(u64::MAX),
                checkpoints_enabled: threshold.is_some(),
                ..opts(SystemConfig::LoOptimistic, scale)
            };
            ThresholdRow {
                threshold,
                crash_every: 0,
                crashes: 0,
                summary: cell(opts, requests, 1).0,
                time_scale: scale,
            }
        })
        .collect()
}

/// A measured cell of Figure 15(b).
#[derive(Debug, Clone)]
pub struct CrashRateRow {
    pub config: SystemConfig,
    /// Crash MSP2 every this many requests (0 = never).
    pub crash_every: u64,
    pub crashes: u64,
    pub summary: Summary,
    pub time_scale: f64,
}

/// Crash intervals mirroring the paper's 0, 1/2000, 1/1500, 1/1000
/// request rates, rescaled to keep `interval / checkpoint-interval`
/// constant against the 64 KB threshold used here (≈ 42 requests of log
/// per checkpoint, as 1 MB is to ≈ 682 in the paper).
pub const CRASH_INTERVALS: [u64; 4] = [0, 128, 96, 64];

/// The threshold used by the crash experiments: 64 KB, ≈ 42 requests per
/// checkpoint (the paper's 1 MB ≈ 682 requests, same ratio to the crash
/// intervals above).
pub const CRASH_CKPT_THRESHOLD: u64 = 64 << 10;

/// E4 — Figure 15(b): throughput versus crash rate for both logging
/// methods.
pub fn fig15b(scale: f64, requests: u64) -> Vec<CrashRateRow> {
    let mut rows = Vec::new();
    for &config in &[SystemConfig::LoOptimistic, SystemConfig::Pessimistic] {
        for &crash_every in &CRASH_INTERVALS {
            let opts = WorldOptions {
                session_ckpt_threshold: CRASH_CKPT_THRESHOLD,
                crash_every,
                ..opts(config, scale)
            };
            let (summary, crashes) = cell(opts, requests, 1);
            rows.push(CrashRateRow {
                config,
                crash_every,
                crashes,
                summary,
                time_scale: scale,
            });
        }
    }
    rows
}

/// A row of the Figure 16 table (maximum response times).
#[derive(Debug, Clone)]
pub struct MaxRtRow {
    pub label: String,
    pub summary: Summary,
    pub crashes: u64,
    pub time_scale: f64,
}

/// E5 — Figure 16 table: maximum response time under crashes / without
/// crashes / without checkpointing for both logging methods, plus the
/// three baselines.
pub fn fig16_table(scale: f64, requests: u64) -> Vec<MaxRtRow> {
    use SystemConfig::{LoOptimistic, NoLog, Pessimistic, Psession, StateServer};
    let mut cells = Vec::new();
    for config in [LoOptimistic, Pessimistic] {
        let checkpointed = WorldOptions {
            session_ckpt_threshold: CRASH_CKPT_THRESHOLD,
            ..opts(config, scale)
        };
        let crash = WorldOptions {
            crash_every: CRASH_INTERVALS[3],
            ..checkpointed.clone()
        };
        let no_cp = WorldOptions {
            session_ckpt_threshold: u64::MAX,
            checkpoints_enabled: false,
            ..opts(config, scale)
        };
        let name = config.name();
        cells.push((format!("{name} / Crash"), crash));
        cells.push((format!("{name} / NoCrash"), checkpointed));
        cells.push((format!("{name} / NoCp"), no_cp));
    }
    for config in [NoLog, StateServer, Psession] {
        cells.push((config.name().to_string(), opts(config, scale)));
    }
    cells
        .into_iter()
        .map(|(label, opts)| {
            let (summary, crashes) = cell(opts, requests, 1);
            MaxRtRow {
                label,
                summary,
                crashes,
                time_scale: scale,
            }
        })
        .collect()
}

/// E6 — Figure 16 chart: throughput at a fixed crash rate versus the
/// checkpointing threshold (the optimum sits in the middle: frequent
/// checkpoints cost normal-execution overhead, rare ones cost replay).
pub fn fig16_chart(scale: f64, requests: u64) -> Vec<ThresholdRow> {
    let crash_every = CRASH_INTERVALS[3];
    THRESHOLDS
        .iter()
        .map(|&threshold| {
            let opts = WorldOptions {
                session_ckpt_threshold: threshold,
                crash_every,
                ..opts(SystemConfig::LoOptimistic, scale)
            };
            let (summary, crashes) = cell(opts, requests, 1);
            ThresholdRow {
                threshold: Some(threshold),
                crash_every,
                crashes,
                summary,
                time_scale: scale,
            }
        })
        .collect()
}

/// A measured cell of Figure 17.
#[derive(Debug, Clone)]
pub struct MultiClientRow {
    pub config: SystemConfig,
    pub mode: FlushMode,
    pub clients: u64,
    pub summary: Summary,
    pub time_scale: f64,
}

/// E7 — Figure 17: throughput and response time versus number of
/// concurrent end clients, both logging methods, with and without batch
/// flushing (8 ms timeout, §5.5).
pub fn fig17(scale: f64, requests_per_client: u64, max_clients: u64) -> Vec<MultiClientRow> {
    let mut rows = Vec::new();
    let modes = [
        FlushMode::PerRequest,
        FlushMode::Batched(Duration::from_millis(8)),
        FlushMode::GroupCommit, // extension beyond the paper
    ];
    for &config in &[SystemConfig::Pessimistic, SystemConfig::LoOptimistic] {
        for mode in modes {
            for clients in 1..=max_clients {
                let opts = WorldOptions {
                    flush_mode: mode,
                    ..opts(config, scale)
                };
                let world = World::start(opts);
                let series = world.run_concurrent(clients, requests_per_client, 1);
                world.shutdown();
                rows.push(MultiClientRow {
                    config,
                    mode,
                    clients,
                    summary: series.summary(),
                    time_scale: scale,
                });
            }
        }
    }
    rows
}

/// Ablation A2 — batch-flush timeout sweep at a fixed client count
/// (§5.5 picked 8 ms ≈ one log write; the sweep shows why).
pub fn ablation_batch_timeout(scale: f64, requests_per_client: u64) -> Vec<(u64, Summary)> {
    [0u64, 2, 4, 8, 16, 32]
        .iter()
        .map(|&ms| {
            let opts = WorldOptions {
                time_scale: scale,
                flush_mode: if ms > 0 {
                    FlushMode::Batched(Duration::from_millis(ms))
                } else {
                    FlushMode::PerRequest
                },
                ..WorldOptions::new(SystemConfig::Pessimistic)
            };
            let world = World::start(opts);
            let series = world.run_concurrent(4, requests_per_client, 1);
            world.shutdown();
            (ms, series.summary())
        })
        .collect()
}

/// Ablation A1 — logging overhead accounting: flushes and log bytes per
/// end-client request for both logging methods, by direct measurement of
/// the log counters (the quantitative core of §5.2's analysis).
#[derive(Debug, Clone)]
pub struct OverheadRow {
    pub config: SystemConfig,
    pub m: u8,
    pub flushes_per_request: f64,
    pub sectors_per_request: f64,
    pub padded_bytes_per_request: f64,
    pub log_bytes_per_request: f64,
}

pub fn ablation_logging_overhead(scale: f64, requests: u64) -> Vec<OverheadRow> {
    let mut rows = Vec::new();
    for &config in &[SystemConfig::LoOptimistic, SystemConfig::Pessimistic] {
        for m in [1u8, 4] {
            let world = World::start(opts(config, scale));
            let mut client = world.client(1);
            let _ = world.run_requests(&mut client, 20, m);
            let before1 = world.msp1.log_stats().expect("log-based");
            let series = world.run_requests(&mut client, requests, m);
            let after1 = world.msp1.log_stats().expect("log-based");
            let d1 = after1.since(&before1);
            let n = series.len() as f64;
            rows.push(OverheadRow {
                config,
                m,
                flushes_per_request: d1.flushes as f64 / n,
                sectors_per_request: d1.flushed_sectors as f64 / n,
                padded_bytes_per_request: d1.padded_bytes as f64 / n,
                log_bytes_per_request: d1.appended_bytes as f64 / n,
            });
            world.shutdown();
        }
    }
    rows
}

/// The row sets whose claims [`violations`] checks. A figure left out of
/// a run stays empty, and its claims are not checked.
#[derive(Debug, Clone, Default)]
pub struct Reproduction {
    pub fig14_table: Vec<Fig14Row>,
    pub fig14_chart: Vec<Fig14Row>,
    pub fig15b: Vec<CrashRateRow>,
    pub fig16_table: Vec<MaxRtRow>,
    pub fig16_chart: Vec<ThresholdRow>,
    pub fig17: Vec<MultiClientRow>,
    pub overhead: Vec<OverheadRow>,
}

/// Throughput gain group commit must give over per-request flushing at
/// the most clients Figure 17 runs.
const FIG17_MIN_GAIN: f64 = 1.7;

/// The paper's claims that held in every sizing run of `repro` at the
/// default size (EXPERIMENTS.md lists them with their hit rates, and the
/// claims that did not hold as departures). Returns one line per
/// violated claim; empty means every claim whose rows were run holds.
pub fn violations(r: &Reproduction) -> Vec<String> {
    use SystemConfig::{LoOptimistic, NoLog, Pessimistic, Psession, StateServer};
    let mut v = Vec::new();

    // A crash row that recorded no crash measured nothing.
    let crashless = r
        .fig15b
        .iter()
        .filter(|x| x.crash_every > 0 && x.crashes == 0)
        .map(|x| format!("Fig. 15(b) {} every {}", x.config.name(), x.crash_every))
        .chain(
            r.fig16_table
                .iter()
                .filter(|x| x.label.ends_with("/ Crash") && x.crashes == 0)
                .map(|x| format!("Fig. 16 table {}", x.label)),
        )
        .chain(
            r.fig16_chart
                .iter()
                .filter(|x| x.crash_every > 0 && x.crashes == 0)
                .map(|x| format!("Fig. 16 chart {} KB", x.threshold.unwrap_or(0) >> 10)),
        );
    v.extend(crashless.map(|row| format!("crash row without a crash: {row}")));

    let avg = |rows: &[Fig14Row], config, m| {
        rows.iter()
            .find(|x| x.config == config && x.m == m)
            .map(|x| x.summary.avg_ms_paper(x.time_scale))
    };
    if let Some(fastest) = r
        .fig14_table
        .iter()
        .min_by(|a, b| a.summary.avg.cmp(&b.summary.avg))
    {
        if fastest.config != NoLog {
            v.push(format!(
                "Fig. 14 table: {} is faster than NoLog",
                fastest.config.name()
            ));
        }
    }
    if let Some(slowest) = r
        .fig14_table
        .iter()
        .max_by(|a, b| a.summary.avg.cmp(&b.summary.avg))
    {
        if slowest.config != Psession {
            v.push(format!(
                "Fig. 14 table: {} is slower than Psession",
                slowest.config.name()
            ));
        }
    }
    for (fast, slow) in [(StateServer, LoOptimistic), (LoOptimistic, Pessimistic)] {
        if let (Some(a), Some(b)) = (avg(&r.fig14_table, fast, 1), avg(&r.fig14_table, slow, 1)) {
            if a >= b {
                v.push(format!(
                    "Fig. 14 table: {} {a:.1} ms is not faster than {} {b:.1} ms",
                    fast.name(),
                    slow.name()
                ));
            }
        }
    }
    let gap =
        |m| Some(avg(&r.fig14_chart, Pessimistic, m)? - avg(&r.fig14_chart, LoOptimistic, m)?);
    if let (Some(g1), Some(g4)) = (gap(1), gap(4)) {
        if g4 <= g1 {
            v.push(format!("Fig. 14 chart: the Pessimistic - LoOptimistic gap does not grow from m=1 ({g1:.1} ms) to m=4 ({g4:.1} ms)"));
        }
    }

    for lo in r.fig15b.iter().filter(|x| x.config == LoOptimistic) {
        let pe = r
            .fig15b
            .iter()
            .find(|x| x.config == Pessimistic && x.crash_every == lo.crash_every);
        if let Some(pe) = pe {
            let (a, b) = (
                lo.summary.throughput_paper(lo.time_scale),
                pe.summary.throughput_paper(pe.time_scale),
            );
            if a <= b {
                v.push(format!("Fig. 15(b): LoOptimistic {a:.1} req/s is not above Pessimistic {b:.1} req/s at crash every {}", lo.crash_every));
            }
        }
    }

    if let Some(clients) = r.fig17.iter().map(|x| x.clients).max() {
        let at = |config, mode| {
            r.fig17
                .iter()
                .find(|x| x.config == config && x.clients == clients && x.mode == mode)
                .map(|x| x.summary.throughput_paper(x.time_scale))
        };
        for config in [Pessimistic, LoOptimistic] {
            let base = at(config, FlushMode::PerRequest);
            let group = at(config, FlushMode::GroupCommit);
            if let (Some(base), Some(t)) = (base, group) {
                if t < FIG17_MIN_GAIN * base {
                    v.push(format!("Fig. 17: {} group commit at {clients} clients gives {t:.1} req/s, under {FIG17_MIN_GAIN}x per-request {base:.1}", config.name()));
                }
            }
        }
    }

    for x in &r.overhead {
        let (bad, claim) = match x.config {
            LoOptimistic => (x.flushes_per_request >= 1.5, "under 1.5"),
            Pessimistic => (
                x.flushes_per_request < f64::from(x.m) + 1.0,
                "at least m + 1",
            ),
            _ => continue,
        };
        if bad {
            v.push(format!(
                "ablation: {} flushes {:.2} per request at m={}, not {claim}",
                x.config.name(),
                x.flushes_per_request,
                x.m
            ));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast smoke test over the cheapest drivers (zero time scale).
    #[test]
    fn drivers_produce_rows() {
        let rows = fig14_table(0.0, 10);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert_eq!(r.summary.count, 10);
        }
        let rows = fig15a(0.0, 10);
        assert_eq!(rows.len(), THRESHOLDS.len() + 1);
        let rows = ablation_logging_overhead(0.0, 10);
        assert_eq!(rows.len(), 4);
        // Locally optimistic must need fewer flushes per request than
        // pessimistic at the same m.
        let lo = rows
            .iter()
            .find(|r| r.config == SystemConfig::LoOptimistic && r.m == 1)
            .unwrap();
        let pe = rows
            .iter()
            .find(|r| r.config == SystemConfig::Pessimistic && r.m == 1)
            .unwrap();
        assert!(
            lo.flushes_per_request < pe.flushes_per_request,
            "LoOptimistic {} !< Pessimistic {}",
            lo.flushes_per_request,
            pe.flushes_per_request
        );
    }

    fn summary(avg_ms: f64, throughput: f64) -> Summary {
        let avg = Duration::from_secs_f64(avg_ms / 1e3);
        Summary {
            avg,
            throughput,
            ..Summary::default()
        }
    }

    /// The checked rows of a passing default-size `repro` run, as printed
    /// (paper units, so stored at time scale 1).
    fn passing() -> Reproduction {
        use SystemConfig::*;
        let fig14 = |(config, m, avg)| Fig14Row {
            config,
            m,
            summary: summary(avg, 0.0),
            time_scale: 1.0,
        };
        let crash_rate = |(config, crash_every, crashes, t)| CrashRateRow {
            config,
            crash_every,
            crashes,
            summary: summary(0.0, t),
            time_scale: 1.0,
        };
        let max_rt = |(label, crashes): (&str, u64)| MaxRtRow {
            label: label.into(),
            summary: summary(30.0, 0.0),
            crashes,
            time_scale: 1.0,
        };
        let threshold = |(&t, throughput)| ThresholdRow {
            threshold: Some(t),
            crash_every: 64,
            crashes: 6,
            summary: summary(0.0, throughput),
            time_scale: 1.0,
        };
        let multi = |(config, mode, clients, t)| MultiClientRow {
            config,
            mode,
            clients,
            summary: summary(0.0, t),
            time_scale: 1.0,
        };
        let overhead = |(config, m, flushes_per_request)| OverheadRow {
            config,
            m,
            flushes_per_request,
            sectors_per_request: 4.0,
            padded_bytes_per_request: 300.0,
            log_bytes_per_request: 1100.0,
        };
        let (per_request, batched, group) = (
            FlushMode::PerRequest,
            FlushMode::Batched(Duration::from_millis(8)),
            FlushMode::GroupCommit,
        );
        Reproduction {
            fig14_table: [
                (LoOptimistic, 1, 26.69),
                (Pessimistic, 1, 41.61),
                (NoLog, 1, 13.45),
                (Psession, 1, 55.79),
                (StateServer, 1, 22.83),
            ]
            .map(fig14)
            .into(),
            fig14_chart: [
                (LoOptimistic, 1, 27.14),
                (LoOptimistic, 4, 45.68),
                (Pessimistic, 1, 37.66),
                (Pessimistic, 4, 108.59),
            ]
            .map(fig14)
            .into(),
            fig15b: [
                (LoOptimistic, 0, 0, 35.3),
                (LoOptimistic, 128, 3, 34.6),
                (LoOptimistic, 96, 4, 34.8),
                (LoOptimistic, 64, 6, 31.1),
                (Pessimistic, 0, 0, 23.0),
                (Pessimistic, 128, 3, 23.2),
                (Pessimistic, 96, 4, 23.0),
                (Pessimistic, 64, 6, 23.6),
            ]
            .map(crash_rate)
            .into(),
            fig16_table: [
                ("LoOptimistic / Crash", 6),
                ("LoOptimistic / NoCrash", 0),
                ("LoOptimistic / NoCp", 0),
                ("Pessimistic / Crash", 6),
                ("NoLog", 0),
            ]
            .map(max_rt)
            .into(),
            fig16_chart: THRESHOLDS
                .iter()
                .zip([29.5, 31.0, 30.7, 32.6, 33.4, 33.3, 31.4, 30.7])
                .map(threshold)
                .collect(),
            fig17: [
                (Pessimistic, per_request, 1, 26.4),
                (Pessimistic, per_request, 8, 60.9),
                (Pessimistic, batched, 8, 111.3),
                (Pessimistic, group, 8, 175.4),
                (LoOptimistic, per_request, 8, 117.2),
                (LoOptimistic, batched, 8, 216.8),
                (LoOptimistic, group, 8, 284.2),
            ]
            .map(multi)
            .into(),
            overhead: [
                (LoOptimistic, 1, 1.05),
                (LoOptimistic, 4, 1.10),
                (Pessimistic, 1, 2.08),
                (Pessimistic, 4, 5.21),
            ]
            .map(overhead)
            .into(),
        }
    }

    #[test]
    fn a_passing_run_and_an_empty_run_violate_nothing() {
        assert_eq!(violations(&passing()), Vec::<String>::new());
        assert_eq!(violations(&Reproduction::default()), Vec::<String>::new());
    }

    /// Each case breaks exactly one claim of a passing run; the checker
    /// must name that claim and nothing else.
    #[test]
    fn each_broken_claim_is_named() {
        fn avg(rows: &mut [Fig14Row], i: usize, ms: f64) {
            rows[i].summary.avg = Duration::from_secs_f64(ms / 1e3);
        }
        type Break = fn(&mut Reproduction);
        let cases: [(&str, Break); 13] = [
            (
                "crash row without a crash: Fig. 15(b) LoOptimistic every 128",
                |r| r.fig15b[1].crashes = 0,
            ),
            (
                "crash row without a crash: Fig. 16 table Pessimistic / Crash",
                |r| r.fig16_table[3].crashes = 0,
            ),
            ("crash row without a crash: Fig. 16 chart 1024 KB", |r| {
                r.fig16_chart[7].crashes = 0
            }),
            ("Fig. 14 table: StateServer is faster than NoLog", |r| {
                avg(&mut r.fig14_table, 4, 10.0)
            }),
            ("Fig. 14 table: Pessimistic is slower than Psession", |r| {
                avg(&mut r.fig14_table, 1, 60.0)
            }),
            ("Fig. 14 table: StateServer 30.0 ms is not faster", |r| {
                avg(&mut r.fig14_table, 4, 30.0)
            }),
            ("Fig. 14 table: LoOptimistic 45.0 ms is not faster", |r| {
                avg(&mut r.fig14_table, 0, 45.0)
            }),
            (
                "Fig. 14 chart: the Pessimistic - LoOptimistic gap does not grow",
                |r| avg(&mut r.fig14_chart, 3, 50.0),
            ),
            ("Fig. 15(b): LoOptimistic 22.0 req/s is not above", |r| {
                r.fig15b[2].summary.throughput = 22.0
            }),
            ("Fig. 17: Pessimistic group commit at 8 clients", |r| {
                r.fig17[3].summary.throughput = 100.0
            }),
            ("Fig. 17: LoOptimistic group commit at 8 clients", |r| {
                r.fig17[6].summary.throughput = 190.0
            }),
            (
                "ablation: LoOptimistic flushes 1.60 per request at m=4",
                |r| r.overhead[1].flushes_per_request = 1.6,
            ),
            (
                "ablation: Pessimistic flushes 4.90 per request at m=4",
                |r| r.overhead[3].flushes_per_request = 4.9,
            ),
        ];
        for (claim, breaks) in cases {
            let mut run = passing();
            breaks(&mut run);
            let v = violations(&run);
            assert!(
                v.len() == 1 && v[0].starts_with(claim),
                "expected only {claim:?}, got {v:?}"
            );
        }
    }
}
