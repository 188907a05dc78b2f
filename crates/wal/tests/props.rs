//! Property-based tests for the physical log: arbitrary record sequences
//! roundtrip through append/flush/scan, crashes lose exactly the
//! unflushed suffix, torn tails never break the scanner, and a crashed
//! image keeps the open contract crash recovery relies on.

use std::sync::Arc;

use proptest::prelude::*;

use msp_types::{DependencyVector, Lsn, MspId, RequestSeq, SessionId, StateId, VarId};
use msp_wal::log::DATA_START;
use msp_wal::{Disk, DiskModel, FlushPolicy, LogRecord, MemDisk, PhysicalLog, SEGMENT_SIZE};

fn arb_record() -> impl Strategy<Value = LogRecord> {
    let payload = proptest::collection::vec(any::<u8>(), 0..300);
    let dv = proptest::collection::vec((0u32..4, 0u32..3, 0u64..10_000), 0..4).prop_map(|v| {
        DependencyVector::from_entries(
            v.into_iter()
                .map(|(m, e, l)| (MspId(m), StateId::new(msp_types::Epoch(e), Lsn(l)))),
        )
    });
    prop_oneof![
        (
            0u64..8,
            0u64..100,
            payload.clone(),
            proptest::option::of(dv.clone())
        )
            .prop_map(|(s, q, p, d)| LogRecord::RequestReceive {
                session: SessionId(s),
                seq: RequestSeq(q),
                method: "m".into(),
                payload: p,
                sender_dv: d,
            }),
        (0u64..8, 0u32..4, payload.clone(), dv.clone()).prop_map(|(s, v, p, d)| {
            LogRecord::SharedRead {
                session: SessionId(s),
                var: VarId(v),
                value: p,
                var_dv: d,
            }
        }),
        (0u64..8, 0u32..4, payload.clone(), dv, 0u64..100_000).prop_map(|(s, v, p, d, prev)| {
            LogRecord::SharedWrite {
                session: SessionId(s),
                var: VarId(v),
                value: p,
                writer_dv: d,
                prev_write: Lsn(prev),
            }
        }),
        (0u32..4, payload).prop_map(|(v, p)| LogRecord::SharedCheckpoint {
            var: VarId(v),
            value: p
        }),
        (0u64..8).prop_map(|s| LogRecord::SessionEnd {
            session: SessionId(s)
        }),
    ]
}

/// A record whose frame is longer than one staging segment, so it spans
/// two of them.
fn big_record() -> LogRecord {
    LogRecord::RequestReceive {
        session: SessionId(9),
        seq: RequestSeq(0),
        method: "big".into(),
        payload: vec![0x5A; SEGMENT_SIZE + 4096],
        sender_dv: None,
    }
}

fn open_log(disk: &MemDisk) -> Arc<PhysicalLog> {
    PhysicalLog::open(
        Arc::new(disk.clone()),
        DiskModel::zero(),
        FlushPolicy::immediate(),
    )
    .unwrap()
}

/// Append `records[..cut]` and flush them, truncate below the record
/// `floor_at` picks (or below the durable end: a fully truncated log),
/// append the rest unflushed. Returns the log and the index of the first
/// record above the reclaim floor.
fn write_image(
    disk: &MemDisk,
    records: &[LogRecord],
    cut: usize,
    floor_at: Option<usize>,
) -> (Arc<PhysicalLog>, usize) {
    let log = open_log(disk);
    let lsns: Vec<Lsn> = records[..cut].iter().map(|r| log.append(r)).collect();
    log.flush_all().unwrap();
    let first = match floor_at {
        Some(pick) => {
            let i = pick % (cut + 1);
            let floor = lsns.get(i).copied().unwrap_or_else(|| log.durable_lsn());
            log.truncate_below(floor).unwrap();
            i
        }
        None => 0,
    };
    for rec in &records[cut..] {
        log.append(rec);
    }
    (log, first)
}

/// The open contract on a crashed image whose intact record stream above
/// the reclaim floor begins with `durable`: the unpositioned open reads
/// every durable record (from the device: nothing is buffered); a scan
/// from the floor or any record boundary above it — `pick` chooses one,
/// plus the last — ends where `open`'s walk does; and after `resume_at`
/// there, the appended `extra` records follow the old stream with
/// nothing between them once flushed and reopened.
fn check_open_contract(disk: &MemDisk, durable: &[LogRecord], pick: usize, extra: &[LogRecord]) {
    let walked = {
        let log = open_log(disk);
        let end = log.end_lsn();
        log.crash();
        end
    };
    let log = PhysicalLog::open_unpositioned(
        Arc::new(disk.clone()),
        DiskModel::zero(),
        FlushPolicy::immediate(),
    )
    .unwrap();
    let old: Vec<(Lsn, LogRecord)> = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
    assert!(old.len() >= durable.len());
    for ((lsn, rec), want) in old.iter().zip(durable) {
        assert_eq!(rec, want);
        assert_eq!(&log.read_record(*lsn).unwrap(), want);
    }
    let mut starts = vec![log.floor()];
    if let Some(last) = old.last() {
        starts.push(old[pick % old.len()].0);
        starts.push(last.0);
    }
    for from in starts {
        let mut scan = log.scan_from(from);
        for item in scan.by_ref() {
            item.unwrap();
        }
        assert_eq!(scan.position(), walked, "scan from {from:?}");
    }
    log.resume_at(walked);
    for rec in extra {
        assert!(log.append(rec) >= walked);
    }
    log.flush_all().unwrap();
    log.crash();
    let log = open_log(disk);
    let got: Vec<LogRecord> = log
        .scan_from(Lsn(DATA_START))
        .map(|r| r.unwrap().1)
        .collect();
    let want: Vec<LogRecord> = old
        .into_iter()
        .map(|(_, rec)| rec)
        .chain(extra.iter().cloned())
        .collect();
    assert_eq!(got, want);
    log.close();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Everything appended and flushed is read back by the scanner, in
    /// order, regardless of how appends are grouped into flushes.
    #[test]
    fn scan_returns_flushed_records_in_order(
        records in proptest::collection::vec(arb_record(), 1..40),
        flush_every in 1usize..5,
    ) {
        let disk = MemDisk::new();
        let log = PhysicalLog::open(
            Arc::new(disk.clone()),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        ).unwrap();
        for (i, rec) in records.iter().enumerate() {
            let lsn = log.append(rec);
            if i % flush_every == 0 {
                log.flush_to(lsn).unwrap();
            }
        }
        log.flush_all().unwrap();
        let got: Vec<LogRecord> = log
            .scan_from(Lsn(DATA_START))
            .map(|r| r.unwrap().1)
            .collect();
        prop_assert_eq!(got, records);
        log.close();
    }

    /// After a crash, exactly the records flushed before the crash and
    /// above the reclaim floor are recoverable: the durable prefix,
    /// nothing more, nothing less — and the image keeps the open contract
    /// (`check_open_contract`), with or without a persisted floor above
    /// `DATA_START` and a record spanning two staging segments.
    #[test]
    fn crash_preserves_exactly_the_durable_prefix(
        records in proptest::collection::vec(arb_record(), 2..30),
        cut in 0usize..30,
        big_at in proptest::option::of(any::<usize>()),
        floor_at in proptest::option::of(any::<usize>()),
        pick in any::<usize>(),
        extra in proptest::collection::vec(arb_record(), 1..4),
    ) {
        let mut records = records;
        if let Some(at) = big_at {
            records.insert(at % (records.len() + 1), big_record());
        }
        let cut = cut.min(records.len());
        let disk = MemDisk::new();
        // A flush always takes the whole tail, so append the durable
        // prefix first, flush it, then append the doomed suffix.
        let (log, first) = write_image(&disk, &records, cut, floor_at);
        log.crash();
        let log = open_log(&disk);
        let got: Vec<LogRecord> = log
            .scan_from(Lsn(DATA_START))
            .map(|r| r.unwrap().1)
            .collect();
        prop_assert_eq!(got.as_slice(), &records[first..cut]);
        log.close();
        check_open_contract(&disk, &records[first..cut], pick, &extra);
    }

    /// Random record reads by LSN return the same record the scan does.
    #[test]
    fn random_reads_match_scan(
        records in proptest::collection::vec(arb_record(), 1..25),
    ) {
        let log = PhysicalLog::open(
            Arc::new(MemDisk::new()),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        ).unwrap();
        let lsns: Vec<Lsn> = records.iter().map(|r| log.append(r)).collect();
        log.flush_all().unwrap();
        for (lsn, rec) in lsns.iter().zip(&records) {
            prop_assert_eq!(&log.read_record(*lsn).unwrap(), rec);
        }
        log.close();
    }

    /// Garbage appended to the durable image never breaks the scanner —
    /// it stops at the torn tail and reports only intact records — and
    /// the image keeps the open contract (`check_open_contract`), with or
    /// without a persisted floor and a record spanning two segments.
    #[test]
    fn garbage_tail_never_panics_scanner(
        records in proptest::collection::vec(arb_record(), 1..10),
        garbage in proptest::collection::vec(any::<u8>(), 1..200),
        big_at in proptest::option::of(any::<usize>()),
        floor_at in proptest::option::of(any::<usize>()),
        pick in any::<usize>(),
        extra in proptest::collection::vec(arb_record(), 1..4),
    ) {
        let mut records = records;
        if let Some(at) = big_at {
            records.insert(at % (records.len() + 1), big_record());
        }
        let disk = MemDisk::new();
        let (log, first) = write_image(&disk, &records, records.len(), floor_at);
        log.close();
        let end = disk.len();
        disk.write(end, &garbage).unwrap();
        let log = open_log(&disk);
        let got: Vec<LogRecord> = log
            .scan_from(Lsn(DATA_START))
            .filter_map(|r| r.ok().map(|(_, rec)| rec))
            .collect();
        // The intact prefix must be a prefix of what we wrote (garbage can
        // only truncate, never corrupt decoded records).
        let durable = &records[first..];
        prop_assert!(got.len() >= durable.len());
        prop_assert_eq!(&got[..durable.len()], durable);
        log.close();
        check_open_contract(&disk, durable, pick, &extra);
    }
}
