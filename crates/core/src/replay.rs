//! The replay cursor: logged-request replay with orphan/EOS handling
//! (§4.1, §4.3).
//!
//! Session recovery walks the session's position stream and *re-executes*
//! the logged requests. Re-execution consumes the session's log records as
//! the service method asks for them:
//!
//! * reading a shared variable takes the value from the `SharedRead`
//!   record;
//! * an outgoing call takes the reply from the `ReplyReceive` record
//!   (requests are not re-sent);
//! * writing a shared variable consumes its `SharedWrite` record as
//!   confirmation the write survived — the variable's value recovers
//!   separately, so nothing is applied. A write the crash cut off (on a
//!   striped log it lives on the *variable's* stripe and can die alone)
//!   surfaces as cursor exhaustion and re-executes live.
//!
//! When the cursor reaches a record whose logged dependency vector is an
//! **orphan** under current knowledge, replay must stop there. Two cases
//! (§4.3):
//!
//! * **EOS found** — a previous orphan recovery already skipped this
//!   region and left an end-of-skip record pointing back at the orphan.
//!   The cursor jumps past the EOS and keeps replaying: the records after
//!   it are that recovery's live continuation.
//! * **EOS not found** — this is a fresh orphan. The cursor writes an EOS
//!   record, flags itself live, and the in-progress method simply
//!   *continues executing normally* from that exact point — resending the
//!   pending request or re-reading the shared variable live. This
//!   mid-method switch from replay to live execution is what terminates
//!   the orphan state while preserving exactly-once semantics.
//!
//! Cursor exhaustion (records lost in a crash, or the crash hit
//! mid-request) also switches to live execution, with no EOS needed.
//!
//! After an MSP crash the cursor does not read the log a second time: the
//! analysis scan hands each session a [`ReplayQueue`] of the records it
//! already decoded, and the cursor pops them as it goes. Only what the
//! queue does not hold — the tail of a window longer than the retained
//! prefix, or any record once the queue has been consumed — is read back
//! through the replay cache or the log.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use msp_types::{Lsn, MspError, MspId, MspResult, RecoveryKnowledge, SessionId};
use msp_wal::{LogRecord, Wal, WalReplayCache};

/// What the crash-recovery analysis scan keeps of one session's replay
/// window, so replay does not read and decode it again: the decoded
/// records of the position stream's *prefix* and where the stream's EOS
/// records are. The scan moves each record in as it demultiplexes; the
/// session's recovery takes the queue (once — it travels in the session's
/// state, under its lock) and the cursor pops records as it consumes them.
#[derive(Debug, Default)]
pub struct ReplayQueue {
    /// The `SessionCheckpoint` the stream restarts from, if it has one.
    checkpoint: Option<(Lsn, LogRecord)>,
    /// Record and framed length of stream positions `0..records.len()`.
    records: VecDeque<(LogRecord, u64)>,
    /// Framed bytes held in `records`.
    bytes: u64,
    /// Stream positions past the retained prefix (LSN only).
    overflow: u64,
    /// `orphan_lsn → ascending stream indices of the EOS records closing
    /// it` — the scan sees every EOS anyway, so the cursor never has to
    /// search for one.
    eos: HashMap<u64, Vec<usize>>,
}

impl ReplayQueue {
    /// A queue for a stream that restarts at the session checkpoint
    /// `record` logged at `lsn`.
    pub fn at_checkpoint(lsn: Lsn, record: LogRecord) -> ReplayQueue {
        ReplayQueue {
            checkpoint: Some((lsn, record)),
            ..ReplayQueue::default()
        }
    }

    /// Append the stream's next record. It is retained while the prefix
    /// stays within `cap` framed bytes; from the first record that does
    /// not fit, the stream keeps positions only.
    pub fn push(&mut self, record: LogRecord, framed: u64, cap: u64) {
        if let LogRecord::Eos { orphan_lsn, .. } = &record {
            let index = self.records.len() + self.overflow as usize;
            self.eos.entry(orphan_lsn.0).or_default().push(index);
        }
        if self.overflow == 0 && self.bytes + framed <= cap {
            self.bytes += framed;
            self.records.push_back((record, framed));
        } else {
            self.overflow += 1;
        }
    }

    /// Framed bytes of the retained prefix.
    pub fn retained_bytes(&self) -> u64 {
        self.bytes
    }

    /// Stream records that did not fit the retained prefix.
    pub fn overflow_records(&self) -> u64 {
        self.overflow
    }

    /// The retained checkpoint record, if it is the one logged at `lsn`.
    pub fn take_checkpoint(&mut self, lsn: Lsn) -> Option<LogRecord> {
        match self.checkpoint.take() {
            Some((at, record)) if at == lsn => Some(record),
            _ => None,
        }
    }
}

/// What [`ReplayCursor::consume`] produced.
#[derive(Debug)]
pub enum Consume {
    /// A live (non-orphan) record to feed into re-execution.
    Record {
        lsn: Lsn,
        record: LogRecord,
        framed: u64,
    },
    /// The cursor switched to live execution (orphan found with no EOS,
    /// or stream exhausted). Check [`ReplayCursor::orphan_hit`] for why.
    WentLive,
}

/// Cursor over a session's position stream during recovery.
pub struct ReplayCursor {
    positions: Vec<Lsn>,
    idx: usize,
    /// Records the analysis scan retained for stream positions
    /// `queue_base..`, popped as they are consumed.
    queue: VecDeque<(LogRecord, u64)>,
    queue_base: usize,
    /// Shared read-only block cache over the immutable crash-time log;
    /// when present, all replay reads below its limit are served from it
    /// instead of per-frame device reads.
    cache: Option<Arc<WalReplayCache>>,
    /// `orphan_lsn → ascending stream indices of EOS records closing it`.
    /// Handed over by the analysis scan with the queue; a cursor without
    /// one builds it in one pass over the stream on the first orphan hit.
    eos_index: Option<HashMap<u64, Vec<usize>>>,
    /// Replay has ended; execution continues live.
    pub went_live: bool,
    /// The orphan record that terminated replay, if any (drives EOS
    /// bookkeeping and diagnostics).
    pub orphan_hit: Option<Lsn>,
    /// Count of EOS ranges skipped (diagnostics / tests).
    pub eos_ranges_skipped: u32,
}

impl ReplayCursor {
    pub fn new(positions: Vec<Lsn>) -> ReplayCursor {
        ReplayCursor {
            positions,
            idx: 0,
            queue: VecDeque::new(),
            queue_base: 0,
            cache: None,
            eos_index: None,
            went_live: false,
            orphan_hit: None,
            eos_ranges_skipped: 0,
        }
    }

    /// Serve replay reads through `cache` (crash recovery); `None` keeps
    /// direct log reads (live orphan recovery, serial baseline).
    #[must_use]
    pub fn with_cache(mut self, cache: Option<Arc<WalReplayCache>>) -> ReplayCursor {
        self.cache = cache;
        self
    }

    /// Serve the stream's prefix from what the analysis scan retained.
    #[must_use]
    pub fn with_queue(mut self, queue: ReplayQueue) -> ReplayCursor {
        self.queue = queue.records;
        self.eos_index = Some(queue.eos);
        self
    }

    /// The record at the cursor: from the queue front when the scan
    /// retained it, else read back (cache, then log). Retained records an
    /// EOS jump skipped are dropped on the way.
    fn next_sized(&mut self, log: &Wal, lsn: Lsn) -> MspResult<(LogRecord, u64)> {
        let skipped = self
            .idx
            .saturating_sub(self.queue_base)
            .min(self.queue.len());
        self.queue.drain(..skipped);
        self.queue_base += skipped;
        if self.queue_base == self.idx {
            if let Some(held) = self.queue.pop_front() {
                self.queue_base += 1;
                return Ok(held);
            }
        }
        self.read_sized(log, lsn)
    }

    /// One record read, via the block cache when attached. The cache
    /// forwards reads past its immutable limit back to the log, which
    /// can also serve its own volatile tail.
    fn read_sized(&self, log: &Wal, lsn: Lsn) -> MspResult<(LogRecord, u64)> {
        match &self.cache {
            Some(c) => c.read_record_sized(lsn),
            None => log.read_record_sized(lsn),
        }
    }

    /// Records not yet consumed.
    pub fn remaining(&self) -> usize {
        self.positions.len().saturating_sub(self.idx)
    }

    /// Produce the next live record, transparently resolving orphan
    /// boundaries. `session` is the recovering session (EOS records are
    /// written on its behalf).
    pub fn consume(
        &mut self,
        log: &Wal,
        knowledge: &RecoveryKnowledge,
        me: MspId,
        session: SessionId,
    ) -> MspResult<Consume> {
        loop {
            if self.went_live {
                return Ok(Consume::WentLive);
            }
            let Some(&lsn) = self.positions.get(self.idx) else {
                // Stream exhausted: switch to live execution. No EOS is
                // written — nothing was skipped.
                self.went_live = true;
                return Ok(Consume::WentLive);
            };
            let (record, framed) = self.next_sized(log, lsn)?;

            // EOS records reached directly are markers from earlier
            // recoveries whose orphan record should have redirected us;
            // with durable recovery announcements this cannot happen, but
            // skipping is always safe (the range it closes lies behind us).
            if matches!(record, LogRecord::Eos { .. }) {
                debug_assert!(false, "EOS reached without its orphan record");
                self.idx += 1;
                continue;
            }

            // Orphan check on the record's logged dependency vector.
            let orphan = match &record {
                LogRecord::RequestReceive {
                    sender_dv: Some(dv),
                    ..
                }
                | LogRecord::ReplyReceive {
                    sender_dv: Some(dv),
                    ..
                } => knowledge.is_orphan(dv, me),
                LogRecord::SharedRead { var_dv, .. } => knowledge.is_orphan(var_dv, me),
                _ => false,
            };
            if !orphan {
                self.idx += 1;
                return Ok(Consume::Record {
                    lsn,
                    record,
                    framed,
                });
            }

            // Orphan record O found: look forward for an EOS closing it.
            match self.find_eos(log, lsn)? {
                Some(eos_idx) => {
                    // Previous recovery already skipped [O ..= EOS]; the
                    // records after the EOS are its live continuation.
                    self.idx = eos_idx + 1;
                    self.eos_ranges_skipped += 1;
                    continue;
                }
                None => {
                    // Fresh orphan: write the EOS, flag live. The EOS is
                    // not flushed immediately (§4.1) and is deliberately
                    // NOT added to the rebuilt position stream — skipped
                    // records must stay invisible to later recoveries.
                    log.append(&LogRecord::Eos {
                        session,
                        orphan_lsn: lsn,
                    });
                    self.orphan_hit = Some(lsn);
                    self.went_live = true;
                    return Ok(Consume::WentLive);
                }
            }
        }
    }

    /// Index (within `positions`) of the EOS record pointing back at
    /// `orphan_lsn`, ahead of the current position. Served from
    /// [`Self::eos_index`]; without one from the scan (live orphan
    /// recovery, the serial baseline) it is built with one decode pass.
    fn find_eos(&mut self, log: &Wal, orphan_lsn: Lsn) -> MspResult<Option<usize>> {
        if self.eos_index.is_none() {
            let mut index: HashMap<u64, Vec<usize>> = HashMap::new();
            for (j, &pos) in self.positions.iter().enumerate() {
                if let (LogRecord::Eos { orphan_lsn: o, .. }, _) = self.read_sized(log, pos)? {
                    index.entry(o.0).or_default().push(j);
                }
            }
            self.eos_index = Some(index);
        }
        Ok(self
            .eos_index
            .as_ref()
            .expect("index built above")
            .get(&orphan_lsn.0)
            .and_then(|idxs| idxs.iter().copied().find(|&j| j > self.idx)))
    }
}

/// Convenience for error construction on replay determinism violations.
pub fn replay_mismatch(lsn: Lsn, expected: &str, got: &LogRecord) -> MspError {
    MspError::LogCorrupt {
        offset: lsn.0,
        reason: format!(
            "replay determinism violation: expected {expected}, log has {}",
            got.kind()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msp_types::{DependencyVector, Epoch, RecoveryRecord, RequestSeq, StateId};
    use msp_wal::{DiskModel, FlushPolicy, MemDisk};
    use std::sync::Arc;

    fn test_log() -> Arc<Wal> {
        Arc::new(Wal::Single(
            msp_wal::PhysicalLog::open(
                Arc::new(MemDisk::new()),
                DiskModel::zero(),
                FlushPolicy::immediate(),
            )
            .unwrap(),
        ))
    }

    fn dv(m: u32, l: u64) -> DependencyVector {
        DependencyVector::from_entries([(MspId(m), StateId::new(Epoch(0), Lsn(l)))])
    }

    fn req(seq: u64, sender_dv: Option<DependencyVector>) -> LogRecord {
        LogRecord::RequestReceive {
            session: SessionId(1),
            seq: RequestSeq(seq),
            method: "m".into(),
            payload: vec![],
            sender_dv,
        }
    }

    #[test]
    fn consumes_clean_records_in_order() {
        let log = test_log();
        let l1 = log.append(&req(0, None));
        let l2 = log.append(&req(1, Some(dv(2, 10))));
        let k = RecoveryKnowledge::new();
        let mut cur = ReplayCursor::new(vec![l1, l2]);
        match cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap() {
            Consume::Record { lsn, .. } => assert_eq!(lsn, l1),
            other => panic!("{other:?}"),
        }
        match cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap() {
            Consume::Record { lsn, .. } => assert_eq!(lsn, l2),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap(),
            Consume::WentLive
        ));
        assert!(cur.went_live);
        assert_eq!(cur.orphan_hit, None, "exhaustion is not an orphan");
        log.close();
    }

    #[test]
    fn fresh_orphan_writes_eos_and_goes_live() {
        let log = test_log();
        let l1 = log.append(&req(0, None));
        let l2 = log.append(&req(1, Some(dv(2, 100)))); // will be orphan
        let l3 = log.append(&req(2, None)); // after the orphan: dead
        let mut k = RecoveryKnowledge::new();
        k.record(RecoveryRecord {
            msp: MspId(2),
            new_epoch: Epoch(1),
            recovered_lsn: Lsn(50),
        });
        let mut cur = ReplayCursor::new(vec![l1, l2, l3]);
        assert!(matches!(
            cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap(),
            Consume::Record { lsn, .. } if lsn == l1
        ));
        assert!(matches!(
            cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap(),
            Consume::WentLive
        ));
        assert_eq!(cur.orphan_hit, Some(l2));
        // The EOS record exists in the log and points at the orphan.
        let end = log.end_lsn();
        let mut found = false;
        let mut probe = l3;
        while probe < end {
            let (rec, framed) = log.read_record_sized(probe).unwrap();
            if let LogRecord::Eos { orphan_lsn, .. } = rec {
                assert_eq!(orphan_lsn, l2);
                found = true;
            }
            probe = Lsn(probe.0 + framed);
        }
        assert!(found, "EOS record written");
        log.close();
    }

    #[test]
    fn eos_found_jumps_over_skip_range_and_continues() {
        let log = test_log();
        let l1 = log.append(&req(0, None));
        let orphan = log.append(&req(1, Some(dv(2, 100))));
        let dead = log.append(&req(2, None));
        let eos = log.append(&LogRecord::Eos {
            session: SessionId(1),
            orphan_lsn: orphan,
        });
        let live = log.append(&req(3, None)); // live continuation
        let mut k = RecoveryKnowledge::new();
        k.record(RecoveryRecord {
            msp: MspId(2),
            new_epoch: Epoch(1),
            recovered_lsn: Lsn(50),
        });
        // A crash-rebuilt stream contains everything, including EOS.
        let mut cur = ReplayCursor::new(vec![l1, orphan, dead, eos, live]);
        assert!(matches!(
            cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap(),
            Consume::Record { lsn, .. } if lsn == l1
        ));
        // Next consumption hits the orphan, finds the EOS, jumps, and
        // yields the live record.
        assert!(matches!(
            cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap(),
            Consume::Record { lsn, .. } if lsn == live
        ));
        assert_eq!(cur.eos_ranges_skipped, 1);
        assert!(!cur.went_live);
        log.close();
    }

    #[test]
    fn embedded_eos_pairs_skip_the_outer_range() {
        // Figure 11, "embedded": orphan2 < orphan1 < EOS1 < EOS2.
        // Replaying hits orphan2 first and must skip everything through
        // EOS2, including the inner pair.
        let log = test_log();
        let orphan2 = log.append(&req(0, Some(dv(3, 100))));
        let orphan1 = log.append(&req(1, Some(dv(2, 100))));
        let _eos1 = log.append(&LogRecord::Eos {
            session: SessionId(1),
            orphan_lsn: orphan1,
        });
        let eos2 = log.append(&LogRecord::Eos {
            session: SessionId(1),
            orphan_lsn: orphan2,
        });
        let live = log.append(&req(2, None));
        let mut k = RecoveryKnowledge::new();
        k.record(RecoveryRecord {
            msp: MspId(2),
            new_epoch: Epoch(1),
            recovered_lsn: Lsn(50),
        });
        k.record(RecoveryRecord {
            msp: MspId(3),
            new_epoch: Epoch(1),
            recovered_lsn: Lsn(50),
        });
        let mut cur = ReplayCursor::new(vec![orphan2, orphan1, _eos1, eos2, live]);
        assert!(matches!(
            cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap(),
            Consume::Record { lsn, .. } if lsn == live
        ));
        log.close();
    }

    #[test]
    fn disjoint_eos_pairs_skip_both_ranges() {
        // Figure 11, "disjointed": orphan1 < EOS1 < orphan2 < EOS2.
        let log = test_log();
        let orphan1 = log.append(&req(0, Some(dv(2, 100))));
        let eos1 = log.append(&LogRecord::Eos {
            session: SessionId(1),
            orphan_lsn: orphan1,
        });
        let mid = log.append(&req(1, None));
        let orphan2 = log.append(&req(2, Some(dv(3, 100))));
        let eos2 = log.append(&LogRecord::Eos {
            session: SessionId(1),
            orphan_lsn: orphan2,
        });
        let live = log.append(&req(3, None));
        let mut k = RecoveryKnowledge::new();
        k.record(RecoveryRecord {
            msp: MspId(2),
            new_epoch: Epoch(1),
            recovered_lsn: Lsn(50),
        });
        k.record(RecoveryRecord {
            msp: MspId(3),
            new_epoch: Epoch(1),
            recovered_lsn: Lsn(50),
        });
        let mut cur = ReplayCursor::new(vec![orphan1, eos1, mid, orphan2, eos2, live]);
        let got: Vec<Lsn> =
            std::iter::from_fn(
                || match cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap() {
                    Consume::Record { lsn, .. } => Some(lsn),
                    Consume::WentLive => None,
                },
            )
            .collect();
        assert_eq!(got, vec![mid, live]);
        assert_eq!(cur.eos_ranges_skipped, 2);
        log.close();
    }

    /// Two disjoint orphan/EOS pairs and a live tail, with the knowledge
    /// that orphans both: `(log, knowledge, [orphan1, eos1, orphan2,
    /// eos2, live])`.
    fn two_skip_ranges() -> (Arc<Wal>, RecoveryKnowledge, Vec<Lsn>) {
        let log = test_log();
        let orphan1 = log.append(&req(0, Some(dv(2, 100))));
        let eos1 = log.append(&LogRecord::Eos {
            session: SessionId(1),
            orphan_lsn: orphan1,
        });
        let orphan2 = log.append(&req(1, Some(dv(3, 100))));
        let eos2 = log.append(&LogRecord::Eos {
            session: SessionId(1),
            orphan_lsn: orphan2,
        });
        let live = log.append(&req(2, None));
        let mut k = RecoveryKnowledge::new();
        for msp in [2, 3] {
            k.record(RecoveryRecord {
                msp: MspId(msp),
                new_epoch: Epoch(1),
                recovered_lsn: Lsn(50),
            });
        }
        (log, k, vec![orphan1, eos1, orphan2, eos2, live])
    }

    /// What the analysis scan would hand over for `positions`.
    fn scanned(log: &Wal, positions: &[Lsn], cap: u64) -> ReplayQueue {
        let mut queue = ReplayQueue::default();
        for &lsn in positions {
            let (record, framed) = log.read_record_sized(lsn).unwrap();
            queue.push(record, framed, cap);
        }
        queue
    }

    #[test]
    fn eos_lookup_decodes_each_position_at_most_once() {
        // The scan records where the EOS records are, so an orphan hit
        // costs no search: with nothing retained (cap 0) every stream
        // position is read back at most once, however many skip ranges
        // the stream contains.
        let (log, k, positions) = two_skip_ranges();
        let n = positions.len() as u64;
        let queue = scanned(&log, &positions, 0);
        assert_eq!(queue.overflow_records(), n);
        let before = log.stats().record_reads;
        let mut cur = ReplayCursor::new(positions).with_queue(queue);
        while let Consume::Record { .. } = cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap() {}
        let reads = log.stats().record_reads - before;
        assert_eq!(cur.eos_ranges_skipped, 2);
        assert!(
            reads <= n,
            "expected at most {n} record reads, observed {reads}"
        );
        log.close();
    }

    #[test]
    fn retained_queue_serves_replay_without_log_reads() {
        let (log, k, positions) = two_skip_ranges();
        let live = *positions.last().unwrap();
        let queue = scanned(&log, &positions, u64::MAX);
        assert_eq!(queue.overflow_records(), 0);
        assert!(queue.retained_bytes() > 0);
        let before = log.stats().record_reads;
        let mut cur = ReplayCursor::new(positions).with_queue(queue);
        assert!(matches!(
            cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap(),
            Consume::Record { lsn, .. } if lsn == live
        ));
        assert!(matches!(
            cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap(),
            Consume::WentLive
        ));
        assert_eq!(cur.eos_ranges_skipped, 2);
        assert_eq!(log.stats().record_reads, before, "all from the queue");
        log.close();
    }

    #[test]
    fn window_past_the_cap_reads_its_tail_from_the_log() {
        let log = test_log();
        let positions: Vec<Lsn> = (0..6).map(|i| log.append(&req(i, None))).collect();
        let (_, framed) = log.read_record_sized(positions[0]).unwrap();
        // Room for exactly two records; a prefix never resumes once cut.
        let queue = scanned(&log, &positions, 2 * framed);
        assert_eq!(queue.retained_bytes(), 2 * framed);
        assert_eq!(queue.overflow_records(), 4);
        let k = RecoveryKnowledge::new();
        let before = log.stats().record_reads;
        let mut cur = ReplayCursor::new(positions.clone()).with_queue(queue);
        let got: Vec<Lsn> =
            std::iter::from_fn(
                || match cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap() {
                    Consume::Record { lsn, .. } => Some(lsn),
                    Consume::WentLive => None,
                },
            )
            .collect();
        assert_eq!(got, positions);
        assert_eq!(log.stats().record_reads - before, 4, "the tail only");
        log.close();
    }

    #[test]
    fn remaining_counts_down() {
        let log = test_log();
        let l1 = log.append(&req(0, None));
        let k = RecoveryKnowledge::new();
        let mut cur = ReplayCursor::new(vec![l1]);
        assert_eq!(cur.remaining(), 1);
        let _ = cur.consume(&log, &k, MspId(1), SessionId(1)).unwrap();
        assert_eq!(cur.remaining(), 0);
        log.close();
    }
}
