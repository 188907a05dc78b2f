//! The MSP's thread model (Linux only: it reads `/proc/self/task`).
//!
//! * Idle threads sleep: every thread of an idle MSP blocks on the event
//!   it waits for, so it does not wake at all while nothing happens.
//! * No thread outlives its incarnation: once `crash` or `shutdown`
//!   returns, none of the MSP's threads is left — not even when the crash
//!   lands while the recovery pool is still replaying.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::{ClusterConfig, MspBuilder, MspClient, MspConfig, MspHandle};
use msp_net::{NetModel, Network};
use msp_types::{DomainId, MspId};
use msp_wal::{DiskModel, MemDisk};

/// The `(tid, name)` of every live thread whose name starts with `prefix`.
fn threads(prefix: &str) -> Vec<(String, String)> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|t| {
            let t = t.ok()?;
            let name = std::fs::read_to_string(t.path().join("comm")).ok()?;
            let tid = t.file_name().into_string().ok()?;
            Some((tid, name.trim().to_string()))
        })
        .filter(|(_, name)| name.starts_with(prefix))
        .collect()
}

/// A new thread shows its parent's name until it first runs and names
/// itself: wait until every thread the calling one started has done so.
fn await_thread_names() {
    let me = std::fs::read_to_string("/proc/thread-self/comm").unwrap();
    let t0 = Instant::now();
    while threads(me.trim()).len() > 1 {
        assert!(t0.elapsed() < Duration::from_secs(10), "threads unnamed");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// How many times thread `tid` has blocked, or `None` once it is gone.
fn voluntary_switches(tid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("voluntary_ctxt_switches:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// An MSP alone in its domain, with the checkpointer off: that thread
/// wakes on a timer to watch the log grow, the one timed wake left.
fn msp(id: MspId, workers: usize) -> MspBuilder {
    let cfg = MspConfig::new(id, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(workers)
        .with_recovery_threads(4)
        .with_logging(LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        });
    MspBuilder::new(cfg, ClusterConfig::new().with_msp(id, DomainId(1)))
        .disk_model(DiskModel::zero())
        // Replay re-executes each logged request, sleep included, so
        // replay takes as long as the requests took: long enough to crash
        // the MSP in the middle of it. (A slow disk model would not do:
        // replay reads what the analysis scan queued, at no device cost.)
        .service("work", |ctx, _| {
            std::thread::sleep(Duration::from_millis(2));
            let n = ctx.get_session("n").map_or(0, |v| v[0]) + 1;
            ctx.set_session("n", vec![n]);
            Ok(vec![n])
        })
}

#[test]
fn idle_threads_sleep() {
    let id = MspId(7);
    let net = Network::new(NetModel::zero(), 7);
    let handle = msp(id, 4).start(&net, Arc::new(MemDisk::new())).unwrap();
    await_thread_names();
    let ours = threads("msp7-");
    for role in ["dispatch", "worker", "release"] {
        assert!(
            ours.iter().any(|(_, n)| n.contains(role)),
            "no {role} thread: {ours:?}"
        );
    }
    // Let every thread reach its first wait, then count wakes for 1 s.
    std::thread::sleep(Duration::from_millis(100));
    let before: Vec<Option<u64>> = ours.iter().map(|(t, _)| voluntary_switches(t)).collect();
    std::thread::sleep(Duration::from_secs(1));
    for ((tid, name), before) in ours.iter().zip(before) {
        let woke = voluntary_switches(tid).unwrap() - before.unwrap();
        assert!(woke <= 2, "{name} woke {woke} times in 1 s while idle");
    }
    handle.shutdown();
}

#[test]
fn no_thread_outlives_its_incarnation() {
    let id = MspId(8);
    let net = Network::new(NetModel::zero(), 8);
    let disk = Arc::new(MemDisk::new());
    let start = || msp(id, 4).start(&net, Arc::clone(&disk) as _).unwrap();
    let gone = |handle: MspHandle, crash: bool| {
        if crash {
            handle.crash();
        } else {
            handle.shutdown();
        }
        // `join` returns as the thread exits; the kernel lists it until
        // the exit completes a moment later.
        let t0 = Instant::now();
        while !threads("msp8-").is_empty() && t0.elapsed() < Duration::from_millis(100) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(threads("msp8-"), Vec::new(), "crash: {crash}");
    };

    // A crash image of 32 sessions × 8 requests, about 0.5 s of service
    // time to replay.
    let handle = start();
    std::thread::scope(|s| {
        for c in 0..8u64 {
            let net = &net;
            s.spawn(move || {
                let mut clients: Vec<MspClient> = (0..4)
                    .map(|k| MspClient::new(net, 800 + 4 * c + k, ClientOptions::default()))
                    .collect();
                for round in 1..=8u8 {
                    for client in &mut clients {
                        assert_eq!(client.call(id, "work", &[]).unwrap(), vec![round]);
                    }
                }
            });
        }
    });
    gone(handle, true);

    // Crash while the recovery pool replays.
    let handle = start();
    await_thread_names();
    assert!(!handle.recovery_complete(), "replay already finished");
    assert!(
        threads("msp8-").iter().any(|(_, n)| n.contains("recovery")),
        "the recovery pool is running"
    );
    gone(handle, true);

    // A clean shutdown after a complete recovery.
    let handle = start();
    let t0 = Instant::now();
    while !handle.recovery_complete() {
        assert!(t0.elapsed() < Duration::from_secs(60), "recovery stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    gone(handle, false);
}
