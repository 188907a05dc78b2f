//! The asynchronous durability pipeline: crash safety of the
//! issue→settle window, equivalence with the retired blocking paths
//! (frozen as golden logs), and the observability counters — for client
//! replies (PR 5) and cross-domain outgoing sends (PR 6) alike.
//!
//! The pipeline moves the wait for durability off the worker thread and
//! onto the *reply*: `send_reply` issues the distributed flush, parks the
//! reply behind its [`DurabilityGate`], and the release stage emits it
//! once the gate settles. A cross-domain send (deep call chains) waits
//! out its gate on its worker, which has handed its run token back to
//! the pool. These tests pin the properties that make that safe:
//!
//! 1. a reply or send whose gate is between issue and settle **never**
//!    leaves if the MSP crashes first (the client's resend re-drives the
//!    request through recovery instead), and
//! 2. with the fixed traffic of `fixed_run` / `fixed_chain_run`, the
//!    pipelined paths commit the session transcripts and byte-identical
//!    logs (modulo the globally allocated session ids) that the blocking
//!    paths committed at `b6fd725`, the last commit that had them; those
//!    are frozen under `fixtures/pipeline_*.log`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use msp_harness::torture::{self, CrashPlan, Storm, TortureOptions, WorkloadShape};
use msp_harness::workload::{reply_counter, request_payload, MSP1};
use msp_harness::{FlushMode, SystemConfig, World, WorldOptions};
use msp_types::Lsn;
use msp_wal::log::DATA_START;
use msp_wal::{CrashPoint, DiskModel, FaultPlan, FlushPolicy, MemDisk, PhysicalLog};

fn pipeline_world() -> World {
    World::start(WorldOptions {
        time_scale: 0.0,
        checkpoints_enabled: false,
        session_ckpt_threshold: u64::MAX,
        flush_mode: FlushMode::PerRequest,
        workers: 2,
        ..WorldOptions::new(SystemConfig::LoOptimistic)
    })
}

/// Crash MSP1 in the flusher just before the device write — after
/// `dispatch_reply` has issued the gate and parked the reply envelope,
/// before the local flush ticket can settle. The parked reply must be
/// dropped, never released: the client's resend re-executes through
/// recovery and the session counters stay exactly-once. A reply leaked
/// before durability would surface here as a duplicated or lost counter.
#[test]
fn crash_between_issue_and_settle_never_releases_the_reply() {
    let world = pipeline_world();
    let plan = Arc::new(FaultPlan::new());
    plan.arm(CrashPoint::PreFlush, 3);
    let (ftx, frx) = crossbeam_channel::bounded(1);
    plan.set_notify(ftx);
    world.msp1.set_fault_plan(Some(Arc::clone(&plan)));

    std::thread::scope(|s| {
        let world = &world;
        let t = s.spawn(move || {
            let mut c = world.client(1);
            (1..=8u64)
                .map(|_| {
                    reply_counter(
                        &c.call(MSP1, "ServiceMethod1", &request_payload(1))
                            .expect("request survives the crash via resend"),
                    )
                })
                .collect::<Vec<u64>>()
        });
        frx.recv_timeout(Duration::from_secs(10))
            .expect("the pre-flush fault fires mid-storm");
        world.msp1.kill();
        world.msp1.set_fault_plan(None);
        world.msp1.restart();
        let ks = t.join().expect("client thread");
        assert_eq!(
            ks,
            (1..=8).collect::<Vec<u64>>(),
            "session counters must be exactly-once across the crash"
        );
    });
    assert!(world.msp1.stats().unwrap().crash_recoveries >= 1);
    world.shutdown();
}

/// Rewrite every `SessionId(n)` in a record's debug form to a canonical
/// per-log index in first-appearance order: session ids come from one
/// process-global counter, so two worlds driving identical traffic log
/// the same records with different ids.
fn canon_sessions(s: &str, map: &mut HashMap<u64, u64>) -> String {
    const TAG: &str = "SessionId(";
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find(TAG) {
        let digits = i + TAG.len();
        out.push_str(&rest[..digits]);
        let tail = &rest[digits..];
        let end = tail.find(')').unwrap_or(tail.len());
        match tail[..end].parse::<u64>() {
            Ok(id) => {
                let next = map.len() as u64;
                out.push_str(&format!("s{}", *map.entry(id).or_insert(next)));
            }
            Err(_) => out.push_str(&tail[..end]),
        }
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Scan a closed MSP disk into `record-debug@lsn` lines with canonical
/// session ids. Keeping the LSN in the line makes the comparison
/// byte-layout-strict: the run must append the golden records at the
/// golden offsets.
fn canonical_log(disk: &Arc<MemDisk>) -> Vec<String> {
    let log = PhysicalLog::open_at(
        Arc::clone(disk) as Arc<dyn msp_wal::Disk>,
        DiskModel::zero(),
        FlushPolicy::per_request(),
        DATA_START,
    )
    .expect("re-open for scan");
    let mut map = HashMap::new();
    let lines = log
        .scan_from(Lsn(DATA_START))
        .map(|r| {
            let (lsn, rec) = r.expect("clean scan");
            format!(
                "{}@{}",
                canon_sessions(&format!("{rec:?}"), &mut map),
                lsn.0
            )
        })
        .collect();
    log.close();
    lines
}

/// One fixed single-client run: a few requests of varied fan-out, a
/// session end, then more requests on the fresh session. Returns the
/// client transcript and both canonicalized logs.
fn fixed_run() -> (Vec<u64>, Vec<String>, Vec<String>) {
    let world = pipeline_world();
    let mut c = world.client(1);
    let mut ks = Vec::new();
    for &m in &[1u8, 3, 2, 4] {
        ks.push(reply_counter(
            &c.call(MSP1, "ServiceMethod1", &request_payload(m)).unwrap(),
        ));
    }
    c.end_session(MSP1).unwrap();
    for &m in &[2u8, 1, 3] {
        ks.push(reply_counter(
            &c.call(MSP1, "ServiceMethod1", &request_payload(m)).unwrap(),
        ));
    }
    let (d1, d2) = (world.msp1.disk(), world.msp2.disk());
    world.shutdown();
    (ks, canonical_log(&d1), canonical_log(&d2))
}

/// A fixture's form of one MSP's side of a fixed run: the client
/// transcript on the first line, then the canonical log lines.
fn golden_form(ks: &[u64], log: &[String]) -> String {
    let ks: Vec<String> = ks.iter().map(u64::to_string).collect();
    format!("transcript {}\n{}\n", ks.join(" "), log.join("\n"))
}

/// Compare a fixed run against the golden logs dumped from the blocking
/// side of the same run at `b6fd725` (where the pipelined side was
/// confirmed equal to them).
fn assert_matches_golden(run: (Vec<u64>, Vec<String>, Vec<String>), msp1: &str, msp2: &str) {
    let (ks, log1, log2) = run;
    // Line by line, so a mismatch names the first diverging record
    // instead of dumping two whole logs.
    for (got, want, msp) in [
        (golden_form(&ks, &log1), msp1, "MSP1"),
        (golden_form(&ks, &log2), msp2, "MSP2"),
    ] {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{msp} golden log, line {}", i + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count(), "{msp} length");
    }
}

/// The pipeline is an ordering change, not a protocol change: the fixed
/// traffic must commit the transcript and the record streams, at the
/// same offsets, that the blocking durability path committed.
#[test]
fn pipelined_reply_path_matches_golden_log() {
    assert_matches_golden(
        fixed_run(),
        include_str!("fixtures/pipeline_reply_msp1.log"),
        include_str!("fixtures/pipeline_reply_msp2.log"),
    );
}

/// The counters the release stage exports: every committed reply is an
/// asynchronous release, the pending-gate gauge drains back to zero, and
/// every issued flush ticket completes.
#[test]
fn pipeline_counters_track_releases_and_drain() {
    let world = pipeline_world();
    let mut c = world.client(1);
    for i in 1..=6u64 {
        let r = c.call(MSP1, "ServiceMethod1", &request_payload(1)).unwrap();
        assert_eq!(reply_counter(&r), i);
    }
    // The release thread bumps the counters right after handing the
    // reply to the network, so give it a beat to finish the bookkeeping.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let s = world.msp1.stats().unwrap();
        if s.gates_pending == 0 && s.async_reply_releases >= 6 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "release counters did not settle: gates_pending={} releases={}",
            s.gates_pending,
            s.async_reply_releases
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let ls = world.msp1.log_stats().unwrap();
    assert!(ls.flush_tickets_issued >= 6, "one local ticket per reply");
    assert_eq!(
        ls.flush_tickets_issued, ls.flush_tickets_completed,
        "every issued ticket settles once its watermark passes"
    );
    world.shutdown();
}

// ---------------------------------------------------------------------
// PR 6: gate-parked outgoing sends (fully asynchronous call chains)
// ---------------------------------------------------------------------

/// The Pessimistic world: MSP1 and MSP2 in separate domains, so every
/// `ServiceMethod1 → ServiceMethod2` hop is a pessimistic boundary
/// whose outgoing send waits out a durability gate.
fn chain_world() -> World {
    World::start(WorldOptions {
        time_scale: 0.0,
        checkpoints_enabled: false,
        session_ckpt_threshold: u64::MAX,
        flush_mode: FlushMode::PerRequest,
        workers: 2,
        ..WorldOptions::new(SystemConfig::Pessimistic)
    })
}

/// Crash MSP1 inside the gated-send window — after `gated_send` has
/// issued the gate, before the outgoing request can leave. The chain's
/// hop is lost with the crash;
/// the client's resend re-drives the request through recovery, and the
/// session counters must stay exactly-once: a send released without its
/// durability gate would surface as a duplicated execution at MSP2, a
/// swallowed one as a wedged client.
#[test]
fn crash_in_parked_send_window_is_exactly_once() {
    let world = chain_world();
    let plan = Arc::new(FaultPlan::new());
    plan.arm(CrashPoint::SendGateIssue, 3);
    let (ftx, frx) = crossbeam_channel::bounded(1);
    plan.set_notify(ftx);
    world.msp1.set_fault_plan(Some(Arc::clone(&plan)));

    std::thread::scope(|s| {
        let world = &world;
        let t = s.spawn(move || {
            let mut c = world.client(31);
            (1..=8u64)
                .map(|_| {
                    reply_counter(
                        &c.call(MSP1, "ServiceMethod1", &request_payload(2))
                            .expect("request survives the crash via resend"),
                    )
                })
                .collect::<Vec<u64>>()
        });
        frx.recv_timeout(Duration::from_secs(10))
            .expect("the send-gate fault fires mid-chain");
        world.msp1.kill();
        world.msp1.set_fault_plan(None);
        world.msp1.restart();
        let ks = t.join().expect("client thread");
        assert_eq!(
            ks,
            (1..=8).collect::<Vec<u64>>(),
            "session counters must be exactly-once across the crash"
        );
    });
    assert!(world.msp1.stats().unwrap().crash_recoveries >= 1);
    world.shutdown();
}

/// The other end of the window: crash MSP2 — the flush *participant* a
/// waiting send's gate depends on — while deep chains are in flight.
/// MSP1's gates fail or time out, its sessions recover, and the resends
/// must deduplicate at the restarted MSP2.
#[test]
fn callee_crash_under_parked_sends_is_exactly_once() {
    let world = chain_world();
    std::thread::scope(|s| {
        let world = &world;
        let t = s.spawn(move || {
            let mut c = world.client(32);
            (1..=8u64)
                .map(|_| {
                    reply_counter(
                        &c.call(MSP1, "ServiceMethod1", &request_payload(3))
                            .expect("request survives the callee crash via resend"),
                    )
                })
                .collect::<Vec<u64>>()
        });
        // Let a few chains commit, then yank the callee mid-storm.
        std::thread::sleep(Duration::from_millis(30));
        world.msp2.kill();
        world.msp2.restart();
        let ks = t.join().expect("client thread");
        assert_eq!(
            ks,
            (1..=8).collect::<Vec<u64>>(),
            "session counters must be exactly-once across the callee crash"
        );
    });
    assert!(world.msp2.stats().unwrap().crash_recoveries >= 1);
    world.shutdown();
}

/// Pinned fixed-seed deep-chain storms through the full torture oracle.
/// These seeds' schedules retarget crash events onto the PR-6 sites —
/// `SendGateIssue` inside MSP1's parked-send window (Pessimistic) and
/// `FlushServe` on the MSP2 flush participant (LoOptimistic) — so the
/// issue→release window is crashed on both MSPs, with recovery,
/// resends, and the exactly-once ledger checked end to end.
#[test]
fn deep_chain_torture_crashes_the_send_window_on_both_msps() {
    for &(seed, config) in &[
        (2u64, SystemConfig::Pessimistic),
        (3u64, SystemConfig::LoOptimistic),
    ] {
        let storm = Storm {
            shape: WorkloadShape::DeepChain,
            requests_per_client: 5,
            crash_events: 3,
        };
        let opts = TortureOptions::new(seed, config, CrashPlan::Seeded(storm));
        let report = torture::run(&opts).unwrap_or_else(|e| panic!("{e}"));
        assert!(
            report.crashes >= 1,
            "seed {seed} {} injected no crash",
            config.name()
        );
    }
}

/// One fixed single-client deep-chain run on the Pessimistic world.
fn fixed_chain_run() -> (Vec<u64>, Vec<String>, Vec<String>) {
    let world = chain_world();
    let mut c = world.client(33);
    let mut ks = Vec::new();
    for &m in &[2u8, 4, 3, 2] {
        ks.push(reply_counter(
            &c.call(MSP1, "ServiceMethod1", &request_payload(m)).unwrap(),
        ));
    }
    c.end_session(MSP1).unwrap();
    for &m in &[4u8, 2] {
        ks.push(reply_counter(
            &c.call(MSP1, "ServiceMethod1", &request_payload(m)).unwrap(),
        ));
    }
    let (d1, d2) = (world.msp1.disk(), world.msp2.disk());
    world.shutdown();
    (ks, canonical_log(&d1), canonical_log(&d2))
}

/// Send pipelining is an ordering change, not a protocol change: the
/// fixed deep-chain traffic must commit the transcript and the record
/// streams, at the same offsets on both MSPs, that the blocking-send
/// path committed.
#[test]
fn pipelined_send_path_matches_golden_log() {
    assert_matches_golden(
        fixed_chain_run(),
        include_str!("fixtures/pipeline_send_msp1.log"),
        include_str!("fixtures/pipeline_send_msp2.log"),
    );
}

/// The send-path counters: pipelined chains release sends
/// asynchronously, the pending-send-gate gauge drains back to zero once
/// traffic stops, and the per-hop wait accumulator ticks on every hop.
#[test]
fn send_pipeline_counters_track_releases_and_drain() {
    let world = chain_world();
    let mut c = world.client(34);
    for i in 1..=6u64 {
        let r = c.call(MSP1, "ServiceMethod1", &request_payload(3)).unwrap();
        assert_eq!(reply_counter(&r), i);
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let s = world.msp1.stats().unwrap();
        if s.send_gates_pending == 0 && s.gates_pending == 0 && s.async_send_releases > 0 {
            assert!(
                s.chain_hop_wait_nanos > 0,
                "per-hop wait accumulator must tick on chained calls"
            );
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "send counters did not settle: send_gates_pending={} releases={}",
            s.send_gates_pending,
            s.async_send_releases
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    world.shutdown();
}
