//! Crash torture sweep: run seeds through [`torture::run`] and print
//! every failure with the command line that replays it.
//!
//! ```text
//! torture [--seeds N] [--seed-base B] [--config NAME] [--shape NAME] [--requests N] [--events N]
//! torture --long-run [--seeds N] [--seed-base B] [--config NAME]
//!         [--footprint-cap BYTES] [--crashes N] [--min-requests N]
//! ```
//!
//! A seed runs a crash storm (the `Seeded` plan) on each of the five §5.2
//! configurations, or on `--config`'s; without `--shape` the seeds rotate
//! through the workload shapes, so a sweep covers all of them. With
//! `--long-run` a seed runs the bounded-log tier instead (the `Cadence`
//! plan: fixed-cadence MSP1 kills, footprint cap, flat MTTR) on
//! LoOptimistic or Pessimistic by parity unless `--config` is given, on a
//! plain or a striped world by `seed % 4`.
//!
//! Each run prints one `ok` or `FAIL` line; a failure, a stalled run
//! included, ends the sweep with exit code 1. An unknown flag, a bad
//! value, or a flag of the other tier prints the usage and exits 2.

use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use msp_harness::torture::{self, Cadence, CrashPlan, Storm, TortureOptions, WorkloadShape};
use msp_harness::SystemConfig;

const USAGE: &str = "usage: torture [--seeds N] [--seed-base B] [--config NAME] [--shape NAME] \
                     [--requests N] [--events N]\n       torture --long-run [--seeds N] \
                     [--seed-base B] [--config NAME] [--footprint-cap BYTES] [--crashes N] \
                     [--min-requests N]";

#[derive(Debug)]
struct Args {
    seeds: u64,
    seed_base: u64,
    config: Option<SystemConfig>,
    long_run: bool,
    shape: Option<WorkloadShape>,
    storm: Storm,
    cadence: Cadence,
    /// The first flag seen of each tier's own flags.
    storm_flag: Option<String>,
    cadence_flag: Option<String>,
}

fn value<T: FromStr>(flag: &str, v: Option<String>) -> Result<T, String> {
    let v = v.ok_or(format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} {v}: not a valid value"))
}

fn named<T>(flag: &str, v: Option<String>, parse: fn(&str) -> Option<T>) -> Result<T, String> {
    let v: String = value(flag, v)?;
    parse(&v).ok_or(format!("{flag} {v}: no such name"))
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        seeds: 8,
        seed_base: 1,
        config: None,
        long_run: false,
        shape: None,
        storm: Storm::default(),
        cadence: Cadence::default(),
        storm_flag: None,
        cadence_flag: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let f = flag.as_str();
        match f {
            "--long-run" => a.long_run = true,
            "--seeds" => a.seeds = value(f, it.next())?,
            "--seed-base" => a.seed_base = value(f, it.next())?,
            "--config" => a.config = Some(named(f, it.next(), SystemConfig::parse)?),
            "--shape" => a.shape = Some(named(f, it.next(), WorkloadShape::parse)?),
            "--requests" => a.storm.requests_per_client = value(f, it.next())?,
            "--events" => a.storm.crash_events = value(f, it.next())?,
            "--footprint-cap" => a.cadence.footprint_cap = value(f, it.next())?,
            "--crashes" => a.cadence.crashes = value(f, it.next())?,
            "--min-requests" => a.cadence.min_requests_per_client = value(f, it.next())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
        let tier_flag = match f {
            "--shape" | "--requests" | "--events" => &mut a.storm_flag,
            "--footprint-cap" | "--crashes" | "--min-requests" => &mut a.cadence_flag,
            _ => continue,
        };
        tier_flag.get_or_insert(flag);
    }
    match (a.long_run, &a.storm_flag, &a.cadence_flag) {
        (true, Some(f), _) => Err(format!("{f} does not apply to --long-run")),
        (false, _, Some(f)) => Err(format!("{f} needs --long-run")),
        _ => Ok(a),
    }
}

/// The runs of one seed: a long run, or a storm on each configuration.
fn runs_for(args: &Args, seed: u64) -> Vec<TortureOptions> {
    if args.long_run {
        let plan = CrashPlan::Cadence(Cadence {
            striped: seed % 4 >= 2,
            ..args.cadence.clone()
        });
        let by_parity = if seed.is_multiple_of(2) {
            SystemConfig::Pessimistic
        } else {
            SystemConfig::LoOptimistic
        };
        return vec![TortureOptions::new(
            seed,
            args.config.unwrap_or(by_parity),
            plan,
        )];
    }
    let rotated = WorkloadShape::ALL[(seed % WorkloadShape::ALL.len() as u64) as usize];
    let plan = CrashPlan::Seeded(Storm {
        shape: args.shape.unwrap_or(rotated),
        ..args.storm.clone()
    });
    let configs = args.config.map_or(SystemConfig::ALL.to_vec(), |c| vec![c]);
    configs
        .into_iter()
        .map(|config| TortureOptions::new(seed, config, plan.clone()))
        .collect()
}

/// The flags that replay exactly `opts`.
fn replay_flags(opts: &TortureOptions) -> String {
    let seed = format!(
        "--seed-base {} --seeds 1 --config {}",
        opts.seed,
        opts.config.name()
    );
    match &opts.plan {
        CrashPlan::Seeded(s) => format!(
            "{seed} --shape {} --requests {} --events {}",
            s.shape.name(),
            s.requests_per_client,
            s.crash_events
        ),
        CrashPlan::Cadence(c) => format!(
            "--long-run {seed} --footprint-cap {} --crashes {} --min-requests {}",
            c.footprint_cap, c.crashes, c.min_requests_per_client
        ),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("torture: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let t0 = Instant::now();
    let (mut runs, mut crashes, mut recovery_crashes) = (0, 0, 0);
    let mut failures = Vec::new();
    for seed in args.seed_base..args.seed_base + args.seeds {
        for opts in runs_for(&args, seed) {
            runs += 1;
            match torture::run(&opts) {
                Ok(report) => {
                    crashes += report.crashes;
                    recovery_crashes += report.recovery_crashes;
                    println!("ok    {report}");
                }
                Err(failure) => {
                    crashes += failure.crashes;
                    recovery_crashes += failure.recovery_crashes;
                    println!(
                        "FAIL  seed={seed:<4} config={:<12} crashes={} (during-recovery {}) {}",
                        opts.config.name(),
                        failure.crashes,
                        failure.recovery_crashes,
                        failure.message
                    );
                    failures.push((opts, failure.message));
                }
            }
        }
    }
    println!(
        "\n{runs} runs in {:.1} s: {crashes} crashes injected ({recovery_crashes} during a \
         prior recovery), {} failures",
        t0.elapsed().as_secs_f64(),
        failures.len()
    );
    for (opts, msg) in &failures {
        eprintln!("\nFAILED {msg}");
        eprintln!(
            "reproduce with: cargo run --release --bin torture -- {}",
            replay_flags(opts)
        );
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &str) -> Result<Args, String> {
        parse_args(argv.split_whitespace().map(str::to_string))
    }

    #[test]
    fn bad_or_misplaced_flags_are_rejected() {
        for bad in [
            "--fast",
            "--seeds",
            "--seeds x",
            "--config Optimistic",
            "--shape round",
            "--events -1",
            "--long-run --shape default",
            "--long-run --requests 5",
            "--long-run --events 2",
            "--footprint-cap 4194304",
            "--crashes 4",
            "--min-requests 10",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    /// The replay line of every run of a sweep parses back into exactly
    /// that run, whichever flags the sweep set.
    #[test]
    fn the_replay_line_carries_every_flag() {
        for argv in [
            "--seeds 5 --requests 6 --events 2",
            "--seeds 4 --long-run --footprint-cap 99 --crashes 5",
            "--long-run --config Pessimistic --min-requests 7",
        ] {
            let args = parse(argv).unwrap();
            for seed in args.seed_base..args.seed_base + args.seeds {
                for opts in runs_for(&args, seed) {
                    let line = replay_flags(&opts);
                    assert_eq!(runs_for(&parse(&line).unwrap(), seed), vec![opts], "{line}");
                }
            }
        }
    }
}
