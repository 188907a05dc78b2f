//! Crash-storm torture driver: sweep seeds × the five §5.2 system
//! configurations through the seed-driven fault rig and report every
//! violation with its reproducing seed.
//!
//! ```text
//! torture [--seeds N] [--seed-base B] [--config NAME] [--shape NAME]
//!         [--requests N] [--events N]
//!         [--long-run] [--footprint-cap BYTES] [--crashes N] [--min-requests N]
//! ```
//!
//! Without `--shape`, each seed rotates through the workload shapes
//! (default / shared-heavy / session-churn / deep-chain / striped-churn)
//! so a sweep covers all of them — including the scale-out
//! striped+sharded configuration — without multiplying its runtime.
//!
//! `--long-run` switches to the bounded-log tier: continuous traffic
//! under a byte-driven checkpoint/truncate loop with fixed-cadence MSP1
//! kills, asserting the on-disk footprint stays under `--footprint-cap`
//! and per-crash MTTR stays flat. Seeds rotate plain/striped worlds on
//! the two log-based configurations.
//!
//! Each run prints one line; any oracle or post-mortem failure prints
//! the seed and the exact one-liner that replays it, and the process
//! exits non-zero. CI runs this with a fixed small seed set.

use std::process::ExitCode;
use std::time::Instant;

use msp_harness::torture::{
    run_torture, run_torture_long_run, LongRunOptions, TortureOptions, WorkloadShape,
};
use msp_harness::SystemConfig;

struct Args {
    seeds: u64,
    seed_base: u64,
    config: Option<SystemConfig>,
    shape: Option<WorkloadShape>,
    requests: u64,
    events: usize,
    long_run: bool,
    footprint_cap: Option<u64>,
    crashes: Option<u32>,
    min_requests: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 8,
        seed_base: 1,
        config: None,
        shape: None,
        requests: 10,
        events: 3,
        long_run: false,
        footprint_cap: None,
        crashes: None,
        min_requests: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--seeds" => args.seeds = val().parse().expect("--seeds N"),
            "--seed-base" => args.seed_base = val().parse().expect("--seed-base N"),
            "--config" => {
                let name = val();
                args.config = Some(
                    SystemConfig::parse(&name).unwrap_or_else(|| panic!("unknown config {name}")),
                );
            }
            "--shape" => {
                let name = val();
                args.shape = Some(
                    WorkloadShape::parse(&name).unwrap_or_else(|| panic!("unknown shape {name}")),
                );
            }
            "--requests" => args.requests = val().parse().expect("--requests N"),
            "--events" => args.events = val().parse().expect("--events N"),
            "--long-run" => args.long_run = true,
            "--footprint-cap" => {
                args.footprint_cap = Some(val().parse().expect("--footprint-cap BYTES"))
            }
            "--crashes" => args.crashes = Some(val().parse().expect("--crashes N")),
            "--min-requests" => args.min_requests = Some(val().parse().expect("--min-requests N")),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// The `--long-run` driver: one bounded-log session per seed, rotating
/// plain/striped worlds across the log-based configurations.
fn main_long_run(args: &Args) -> ExitCode {
    let t0 = Instant::now();
    let mut runs = 0u64;
    let mut failures: Vec<(u64, SystemConfig, bool, String)> = Vec::new();
    for seed in args.seed_base..args.seed_base + args.seeds {
        let config = args.config.unwrap_or(if seed % 2 == 0 {
            SystemConfig::Pessimistic
        } else {
            SystemConfig::LoOptimistic
        });
        let mut opts = LongRunOptions::new(seed, config);
        opts.striped = seed % 4 >= 2;
        if let Some(cap) = args.footprint_cap {
            opts.footprint_cap = cap;
        }
        if let Some(crashes) = args.crashes {
            opts.crashes = crashes;
        }
        if let Some(min) = args.min_requests {
            opts.min_requests_per_client = min;
        }
        runs += 1;
        match run_torture_long_run(&opts) {
            Ok(report) => println!("ok    {report}"),
            Err(msg) => {
                println!("FAIL  seed={seed:<4} config={:<12} {msg}", config.name());
                failures.push((seed, config, opts.striped, msg));
            }
        }
    }
    println!(
        "\n{} long runs in {:.1} s: {} failures",
        runs,
        t0.elapsed().as_secs_f64(),
        failures.len()
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for (seed, config, striped, msg) in &failures {
            eprintln!(
                "\nFAILED seed={seed} config={} striped={striped}: {msg}",
                config.name()
            );
            eprintln!(
                "reproduce with: cargo run --release --bin torture -- --long-run \
                 --seed-base {seed} --seeds 1 --config {}",
                config.name()
            );
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.long_run {
        return main_long_run(&args);
    }
    let configs: Vec<SystemConfig> = match args.config {
        Some(c) => vec![c],
        None => SystemConfig::ALL.to_vec(),
    };
    let t0 = Instant::now();
    let mut runs = 0u64;
    let mut crashes = 0u64;
    let mut recovery_crashes = 0u64;
    let mut failures: Vec<(u64, SystemConfig, WorkloadShape, String)> = Vec::new();

    for seed in args.seed_base..args.seed_base + args.seeds {
        // No pinned shape: rotate by seed so every sweep of ≥3 seeds
        // covers all shapes on all configs.
        let shape = args
            .shape
            .unwrap_or(WorkloadShape::ALL[(seed % WorkloadShape::ALL.len() as u64) as usize]);
        for &config in &configs {
            let mut opts = TortureOptions::new(seed, config);
            opts.shape = shape;
            opts.requests_per_client = args.requests;
            opts.crash_events = args.events;
            runs += 1;
            match run_torture(&opts) {
                Ok(report) => {
                    crashes += report.crashes;
                    recovery_crashes += report.recovery_crashes;
                    if config.is_log_based()
                        && args.events > 0
                        && report.scheduled_recovery_events == 0
                    {
                        failures.push((
                            seed,
                            config,
                            shape,
                            "schedule carried no crash-during-recovery event".into(),
                        ));
                        println!("FAIL  {report}");
                    } else {
                        println!("ok    {report}");
                    }
                }
                Err(failure) => {
                    crashes += failure.crashes;
                    recovery_crashes += failure.recovery_crashes;
                    println!(
                        "FAIL  seed={seed:<4} config={:<12} crashes={} (during-recovery {}) {}",
                        config.name(),
                        failure.crashes,
                        failure.recovery_crashes,
                        failure.message
                    );
                    failures.push((seed, config, shape, failure.message));
                }
            }
        }
    }

    println!(
        "\n{} runs in {:.1} s: {} crashes injected ({} during a prior recovery), {} failures",
        runs,
        t0.elapsed().as_secs_f64(),
        crashes,
        recovery_crashes,
        failures.len()
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for (seed, config, shape, msg) in &failures {
            eprintln!(
                "\nFAILED seed={seed} config={} shape={}: {msg}",
                config.name(),
                shape.name()
            );
            eprintln!(
                "reproduce with: cargo run --release --bin torture -- \
                 --seed-base {seed} --seeds 1 --config {} --shape {} --requests {} --events {}",
                config.name(),
                shape.name(),
                args.requests,
                args.events
            );
        }
        ExitCode::FAILURE
    }
}
