//! Cross-crate tests for the reservation-based WAL append pipeline:
//! multi-threaded appends (monotone non-overlapping LSNs, no torn
//! frames, crash-suffix semantics) and group-commit coalescing
//! (N concurrent committers ≪ N device flushes; the per-request policy
//! keeps one flush per sequential commit).

use std::sync::Arc;
use std::time::Duration;

use msp_types::{Lsn, RequestSeq, SessionId};
use msp_wal::log::DATA_START;
use msp_wal::{DiskModel, FlushPolicy, LogRecord, MemDisk, PhysicalLog};

const THREADS: u64 = 8;
const PER_THREAD: u64 = 50;

fn rec(session: u64, seq: u64) -> LogRecord {
    LogRecord::RequestReceive {
        session: SessionId(session),
        seq: RequestSeq(seq),
        method: "m".into(),
        // Vary the payload size per record so reservations are not
        // sector-aligned by accident.
        payload: vec![session as u8; 40 + (seq % 96) as usize],
        sender_dv: None,
    }
}

fn open(disk: &MemDisk, model: DiskModel, policy: FlushPolicy) -> Arc<PhysicalLog> {
    PhysicalLog::open(Arc::new(disk.clone()), model, policy).unwrap()
}

/// Appends from `THREADS` threads; returns per-append `(lsn, framed,
/// thread, seq)` tuples.
fn hammer_appends(log: &Arc<PhysicalLog>) -> Vec<(u64, u64, u64, u64)> {
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let log = Arc::clone(log);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..PER_THREAD {
                        let (lsn, framed) = log.append_sized(&rec(t, i));
                        mine.push((lsn.0, framed, t, i));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().unwrap());
        }
    });
    all
}

#[test]
fn concurrent_appends_get_monotone_non_overlapping_lsns() {
    let disk = MemDisk::new();
    let log = open(&disk, DiskModel::zero(), FlushPolicy::immediate());
    let mut all = hammer_appends(&log);

    all.sort_by_key(|&(lsn, ..)| lsn);
    assert_eq!(all.len(), (THREADS * PER_THREAD) as usize);
    let mut prev_end = 0u64;
    for &(lsn, framed, ..) in &all {
        assert!(
            lsn >= prev_end,
            "reserved ranges must not overlap: {lsn} < {prev_end}"
        );
        prev_end = lsn + framed;
    }

    // After flush_all every appended record is durable and intact — no
    // torn frames, readable both from the tail cache and the device.
    log.flush_all().unwrap();
    assert!(log.durable_lsn().0 >= prev_end);
    for &(lsn, _, t, i) in &all {
        assert_eq!(log.read_record(Lsn(lsn)).unwrap(), rec(t, i));
    }
    let scanned: Vec<_> = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
    assert_eq!(
        scanned.len(),
        all.len(),
        "scan sees every record exactly once"
    );
    log.close();
}

#[test]
fn crash_mid_append_leaves_clean_prefix() {
    let disk = MemDisk::new();
    let committed = {
        let log = open(&disk, DiskModel::zero(), FlushPolicy::immediate());
        // Phase 1: multi-threaded appends, all committed.
        let committed = hammer_appends(&log);
        log.flush_all().unwrap();
        // Phase 2: more appends that never get flushed — the unfilled
        // suffix of the last segment a crash is supposed to drop.
        for i in 0..100 {
            log.append(&rec(99, i));
        }
        log.crash();
        committed
    };

    // Analysis scan of the crashed disk: must terminate cleanly and
    // recover exactly the committed records, byte-identical.
    let log = open(&disk, DiskModel::zero(), FlushPolicy::immediate());
    let mut by_lsn: std::collections::HashMap<u64, (u64, u64)> = committed
        .iter()
        .map(|&(lsn, _, t, i)| (lsn, (t, i)))
        .collect();
    let mut recovered = 0usize;
    for item in log.scan_from(Lsn(DATA_START)) {
        let (lsn, record) = item.expect("scan after crash must stay clean");
        let (t, i) = by_lsn
            .remove(&lsn.0)
            .expect("scanned an LSN that was never committed");
        assert_ne!(t, 99, "unflushed suffix records must be lost");
        assert_eq!(record, rec(t, i), "recovered record is byte-identical");
        recovered += 1;
    }
    assert_eq!(
        recovered,
        committed.len(),
        "whole committed prefix survives"
    );
    assert!(by_lsn.is_empty());
    // Scanning twice recovers the identical state.
    assert_eq!(log.scan_from(Lsn(DATA_START)).count(), recovered);
    log.close();
}

#[test]
fn concurrent_committers_coalesce_into_few_device_flushes() {
    let disk = MemDisk::new();
    // A real (scaled-down) flush cost plus a short coalescing window:
    // while one device write is in flight, the other committers' flush
    // requests queue up and must be absorbed by the next write.
    let log = open(
        &disk,
        DiskModel::default().with_scale(0.25),
        FlushPolicy::immediate().with_group_commit_window(Some(Duration::from_millis(1))),
    );
    let committers = 8u64;
    let per = 6u64;
    std::thread::scope(|s| {
        for t in 0..committers {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for i in 0..per {
                    let lsn = log.append(&rec(t, i));
                    log.flush_to(lsn).unwrap();
                }
            });
        }
    });
    let stats = log.stats();
    let commits = committers * per;
    assert_eq!(stats.append_reservations, commits);
    assert!(
        stats.flushes < commits / 2,
        "{commits} commits must share device flushes, got {}",
        stats.flushes
    );
    // At least one flusher wakeup must have absorbed extra requests.
    assert!(
        stats.group_commit_batches > 0,
        "coalescing events must be counted"
    );
    log.close();
}

#[test]
fn per_request_policy_flushes_once_per_sequential_commit() {
    let disk = MemDisk::new();
    let log = open(&disk, DiskModel::zero(), FlushPolicy::per_request());
    let n = 16u64;
    for i in 0..n {
        let lsn = log.append(&rec(1, i));
        log.flush_to(lsn).unwrap();
    }
    let stats = log.stats();
    assert_eq!(
        stats.flushes, n,
        "the paper's per-request baseline performs exactly one device flush per commit"
    );
    assert_eq!(stats.append_reservations, n);
    log.close();
}

#[test]
fn close_and_reopen_scans_the_appended_records_in_order() {
    // Appends with a commit every fourth record, a clean close, then a
    // fresh open over the same disk: the scan must yield exactly the
    // appended records, in append order.
    let appended: Vec<LogRecord> = (0..20).map(|i| rec(1, i)).collect();
    let disk = MemDisk::new();
    let log = open(&disk, DiskModel::zero(), FlushPolicy::immediate());
    for (i, r) in appended.iter().enumerate() {
        let lsn = log.append(r);
        if i % 4 == 3 {
            log.flush_to(lsn).unwrap();
        }
    }
    log.close();
    let log = open(&disk, DiskModel::zero(), FlushPolicy::immediate());
    let scanned: Vec<LogRecord> = log
        .scan_from(Lsn(DATA_START))
        .map(|r| r.unwrap().1)
        .collect();
    log.close();
    assert_eq!(scanned, appended);
}
