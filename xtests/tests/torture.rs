//! Tier-1 slice of the crash-storm torture rig (`msp_harness::torture`).
//!
//! The full rig runs as the `torture` binary over large seed sets; this
//! test pins a small fixed set of seeds across all five §5.2 system
//! configurations so every CI run exercises the exactly-once oracle,
//! the post-mortem log audit, and (on the log-based configs) at least
//! one crash *during a prior recovery* (§4.5). Failures embed the seed:
//! reproduce with
//! `cargo run --release --bin torture -- --seed-base <seed> --seeds 1 --config <name>`.

use std::time::Duration;

use msp_harness::torture::{self, CrashPlan, Storm, TortureOptions, TortureReport};
use msp_harness::{SystemConfig, WorkloadShape};

/// Seeds chosen to keep the whole matrix under a CI-friendly budget
/// while still firing multi-crash schedules on the log-based configs.
const SEEDS: [u64; 2] = [1, 5];

fn storm_opts(seed: u64, config: SystemConfig, shape: WorkloadShape) -> TortureOptions {
    let storm = Storm {
        shape,
        requests_per_client: 8,
        ..Storm::default()
    };
    let mut opts = TortureOptions::new(seed, config, CrashPlan::Seeded(storm));
    opts.settle_timeout = Duration::from_secs(90);
    opts
}

/// The failure message names the seed, configuration and shape.
fn run(opts: &TortureOptions) -> TortureReport {
    torture::run(opts).unwrap_or_else(|failure| panic!("{failure}"))
}

fn storm(seed: u64, config: SystemConfig) -> TortureReport {
    run(&storm_opts(seed, config, WorkloadShape::Default))
}

#[test]
fn fixed_seeds_pass_oracle_and_audit_on_all_configs() {
    for config in SystemConfig::ALL {
        for seed in SEEDS {
            let report = storm(seed, config);
            assert!(report.requests > 0, "storm drove no traffic: {report}");
            if config.is_log_based() {
                assert!(
                    report.crashes > 0,
                    "log-based storm injected no crashes: {report}"
                );
                assert!(
                    !report.audits.is_empty(),
                    "log-based storm skipped the post-mortem audit: {report}"
                );
            }
        }
    }
}

/// Every log-based schedule must carry (and, across the seed set, at
/// least once *fire*) a crash aimed at a prior recovery — the §4.5
/// "crashes during recovery" dimension the oracle is most sensitive to.
#[test]
fn crash_during_recovery_coverage() {
    let mut fired = 0u64;
    for config in [SystemConfig::LoOptimistic, SystemConfig::Pessimistic] {
        for seed in SEEDS {
            let report = storm(seed, config);
            assert!(
                report.scheduled_recovery_events >= 1,
                "schedule carried no during-recovery event: {report}"
            );
            fired += report.recovery_crashes;
        }
    }
    assert!(
        fired >= 1,
        "no seed in {SEEDS:?} fired a crash during a prior recovery; \
         widen the seed set"
    );
}

/// The PR-5 workload shapes hold the exactly-once oracle under crash
/// storms on both log-based configs: shared-variable-heavy fan-out
/// (every request multi-calls MSP2) and session churn (EOS + session
/// teardown + create-on-first-use racing the crash schedule).
#[test]
fn workload_shapes_hold_exactly_once_under_crash_storms() {
    for shape in [WorkloadShape::SharedHeavy, WorkloadShape::SessionChurn] {
        for config in [SystemConfig::LoOptimistic, SystemConfig::Pessimistic] {
            for seed in SEEDS {
                let report = run(&storm_opts(seed, config, shape));
                assert!(report.requests > 0, "storm drove no traffic: {report}");
                assert!(
                    report.crashes > 0,
                    "log-based storm injected no crashes: {report}"
                );
            }
        }
    }
}

/// The PR-8 striped shape — session churn over a 2-stripe WAL and a
/// 2-shard runtime — holds the exactly-once oracle under the same crash
/// storms, and the post-mortem audit re-merges the per-stripe gsn
/// streams into one contiguous log on every crash.
#[test]
fn striped_churn_holds_exactly_once_under_crash_storms() {
    for config in [SystemConfig::LoOptimistic, SystemConfig::Pessimistic] {
        for seed in SEEDS {
            let report = run(&storm_opts(seed, config, WorkloadShape::StripedChurn));
            assert!(report.requests > 0, "storm drove no traffic: {report}");
            assert!(
                report.crashes > 0,
                "log-based storm injected no crashes: {report}"
            );
            assert!(
                !report.audits.is_empty(),
                "striped storm skipped the post-mortem audit: {report}"
            );
        }
    }
}

/// Seed 4 on `LoOptimistic` with the binary's defaults (10 requests per
/// client, 3 crash events) is the schedule on which the retired
/// operation-logging diet re-executed `ServiceMethod2` after MSP1's
/// `mid-append` crash ("MSP2 SV2 counter is 390, want 388") in about a
/// third of runs. The same draws, logged by value, must hold the oracle;
/// reproduce with `cargo run --release --bin torture -- --seed-base 4
/// --seeds 1 --config LoOptimistic --shape default --requests 10 --events 3`.
#[test]
fn seed_4_shared_state_storm_holds_exactly_once() {
    let storm = Storm {
        requests_per_client: 10,
        crash_events: 3,
        ..Storm::default()
    };
    let mut opts = TortureOptions::new(4, SystemConfig::LoOptimistic, CrashPlan::Seeded(storm));
    opts.settle_timeout = Duration::from_secs(90);
    let report = run(&opts);
    assert!(report.crashes > 0, "storm injected no crashes: {report}");
    assert!(
        report.scheduled_recovery_events > 0,
        "schedule carried no crash-during-recovery event: {report}"
    );
}

/// Seed 13 on `Pessimistic` arms `CheckpointWrite` on MSP2 with a
/// countdown that, when it was pinned, expired inside a forced-checkpoint
/// batch (the kill lands between two sessions of one tick). Which
/// traversal the countdown expires on depends on thread timing, so the
/// site itself is covered deterministically by
/// `forced_checkpoints::a_crash_inside_the_batch_recovers_exactly_once`;
/// this keeps the storm that found it in the fixed set.
#[test]
fn checkpoint_write_crash_around_a_forced_batch() {
    let report = storm(13, SystemConfig::Pessimistic);
    assert!(report.crashes > 0, "storm injected no crashes: {report}");
}

/// Session churn on the baseline configurations: the END_SESSION resend
/// path (lost acknowledgement → fresh cell) must not wedge clients on
/// any strategy, lossy links included.
#[test]
fn session_churn_on_baseline_configs() {
    for config in [
        SystemConfig::NoLog,
        SystemConfig::Psession,
        SystemConfig::StateServer,
    ] {
        let report = run(&storm_opts(1, config, WorkloadShape::SessionChurn));
        assert!(report.requests > 0, "storm drove no traffic: {report}");
    }
}
