//! Replay read view over the process-wide [`BufferPool`].
//!
//! During MSP crash recovery the log below the recovered LSN is immutable:
//! recovery appends (RecoveryComplete, EOS markers, checkpoints) only ever
//! land *past* the analysis scan's end. That makes the replay window a
//! read-only region that every recovering session walks — sessions whose
//! position streams interleave in the same 64 KB blocks. Caching those
//! blocks once turns N overlapping sequential re-reads into one, and the
//! disk model is charged **per miss**, so overlapping replay windows no
//! longer double- or triple-bill the simulated disk.
//!
//! PR 3 gave each recovery its own fixed clock pool; the slots now live
//! in a shared [`BufferPool`] (one per process when runtimes are
//! co-located) and a `ReplayCache` is one registered *source* in it: a
//! thin view binding a pool source id to one physical log. Eviction is
//! the pool's second-chance clock; blocks are handed out as
//! `Arc<Vec<u8>>` so a lookup clones the Arc and drops the bookkeeping
//! lock before any byte is copied; concurrent misses on the same block
//! may both read the device (both are counted — that is real I/O).
//!
//! Reads at or past [`limit`](ReplayCache::limit) (records appended
//! *during* recovery, e.g. EOS markers) go to the owning log, which can
//! serve its own volatile tail — and the decoded record is memoized, so a
//! hot tail record (a fresh EOS probed by every subsequent replay step)
//! costs one log read instead of one per access.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use msp_types::{Decode, Lsn, MspError};

use crate::disk::Disk;
use crate::frame::{self, FRAME_HEADER};
use crate::log::{PhysicalLog, SCAN_CHUNK};
use crate::model::DiskModel;
use crate::pool::BufferPool;
use crate::record::LogRecord;

/// Replay view over one physical log: a registered source in a (possibly
/// shared) [`BufferPool`]. See the module docs.
pub struct ReplayCache {
    log: Arc<PhysicalLog>,
    disk: Arc<dyn Disk>,
    model: DiskModel,
    /// End of the immutable region: the log's durable end when the cache
    /// was created.
    limit: u64,
    pool: Arc<BufferPool>,
    source: u32,
    /// Decoded records read past `limit` (the volatile recovery tail):
    /// the log is append-only, so a record at an LSN never changes and
    /// one read serves every subsequent access.
    tail: Mutex<HashMap<u64, (LogRecord, u64)>>,
}

impl ReplayCache {
    /// Build a private cache of `blocks` 64 KB slots over `log`'s current
    /// durable prefix.
    pub fn new(log: &Arc<PhysicalLog>, blocks: usize) -> ReplayCache {
        ReplayCache::with_pool(log, &Arc::new(BufferPool::new(blocks)))
    }

    /// A view over `log` borrowing slots from a shared `pool`.
    pub fn with_pool(log: &Arc<PhysicalLog>, pool: &Arc<BufferPool>) -> ReplayCache {
        ReplayCache {
            log: Arc::clone(log),
            disk: log.disk(),
            model: log.model().clone(),
            limit: log.durable_lsn().0,
            pool: Arc::clone(pool),
            source: pool.register(),
            tail: Mutex::new(HashMap::new()),
        }
    }

    /// First offset **not** covered by the cache; reads at or past it
    /// must go to the log itself.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// The backing pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Fetch the 64 KB block containing `offset`, from the pool or the
    /// device (one miss = one charged sequential read).
    fn block(&self, block_no: u64) -> Result<Arc<Vec<u8>>, MspError> {
        let (data, outcome) = self.pool.get(self.source, block_no, || {
            // Miss: the device read (and its bill) happens outside the
            // pool lock so other sessions keep hitting meanwhile.
            self.log.stats_ref().on_replay_cache_miss();
            self.model.charge_read(128);
            let off = block_no * SCAN_CHUNK as u64;
            let mut data = vec![0u8; SCAN_CHUNK];
            let n = self.disk.read(off, &mut data).map_err(MspError::Io)?;
            data.truncate(n);
            Ok(data)
        })?;
        if outcome.hit {
            self.log.stats_ref().on_replay_cache_hit();
        }
        if outcome.evicted {
            self.log.stats_ref().on_replay_cache_eviction();
        }
        Ok(data)
    }

    /// Copy bytes at absolute device offset `off` into `out`, assembling
    /// across block boundaries. Returns the bytes available (short at the
    /// cached region's end).
    fn read_at(&self, mut off: u64, out: &mut [u8]) -> Result<usize, MspError> {
        let mut copied = 0;
        while copied < out.len() {
            let block_no = off / SCAN_CHUNK as u64;
            let data = self.block(block_no)?;
            let at = (off - block_no * SCAN_CHUNK as u64) as usize;
            if at >= data.len() {
                break;
            }
            let take = (data.len() - at).min(out.len() - copied);
            out[copied..copied + take].copy_from_slice(&data[at..at + take]);
            copied += take;
            off += take as u64;
        }
        Ok(copied)
    }

    /// Read and decode the record at `lsn`, plus its framed size.
    /// Records at or past the immutable limit (appended during recovery)
    /// transparently fall back to the owning log, memoized per LSN.
    pub fn read_record_sized(&self, lsn: Lsn) -> Result<(LogRecord, u64), MspError> {
        if lsn.0 >= self.limit {
            if let Some(hit) = self.tail.lock().get(&lsn.0) {
                return Ok(hit.clone());
            }
            let out = self.log.read_record_sized(lsn)?;
            self.tail.lock().insert(lsn.0, out.clone());
            return Ok(out);
        }
        let payload = frame::read(lsn.0, |off, out| self.read_at(off, out))?;
        let framed = (FRAME_HEADER + payload.len()) as u64;
        let rec = LogRecord::from_bytes(&payload).map_err(|e| MspError::LogCorrupt {
            offset: lsn.0,
            reason: e.to_string(),
        })?;
        Ok((rec, framed))
    }

    /// Read and decode the record at `lsn`.
    pub fn read_record(&self, lsn: Lsn) -> Result<LogRecord, MspError> {
        self.read_record_sized(lsn).map(|(rec, _)| rec)
    }
}

impl Drop for ReplayCache {
    fn drop(&mut self) {
        // Return this view's slots to the shared pool: a shard that
        // finishes recovery gives its memory to the shards still going.
        self.pool.retire(self.source);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::log::FlushPolicy;
    use msp_types::{RequestSeq, SessionId};

    fn rec(session: u64, seq: u64, len: usize) -> LogRecord {
        LogRecord::RequestReceive {
            session: SessionId(session),
            seq: RequestSeq(seq),
            method: "m".into(),
            payload: vec![0x5C; len],
            sender_dv: None,
        }
    }

    fn logged(n: u64, len: usize) -> (Arc<PhysicalLog>, Vec<Lsn>) {
        let log = PhysicalLog::open(
            Arc::new(MemDisk::new()),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        )
        .unwrap();
        let mut lsns = Vec::new();
        for i in 0..n {
            lsns.push(log.append(&rec(1, i, len)));
        }
        log.flush_all().unwrap();
        (log, lsns)
    }

    #[test]
    fn serves_records_and_counts_hits() {
        let (log, lsns) = logged(10, 100);
        let cache = ReplayCache::new(&log, 4);
        for (i, &lsn) in lsns.iter().enumerate() {
            assert_eq!(cache.read_record(lsn).unwrap(), rec(1, i as u64, 100));
        }
        // Re-read: everything fits in one block, so all hits.
        for &lsn in &lsns {
            let _ = cache.read_record(lsn).unwrap();
        }
        let s = log.stats();
        assert_eq!(s.replay_cache_misses, 1, "10 small records share a block");
        assert!(s.replay_cache_hits >= 19);
        log.close();
    }

    #[test]
    fn frames_spanning_blocks_read_back_intact() {
        // 40 KB payloads force frames across the 64 KB block boundary.
        let (log, lsns) = logged(6, 40 * 1024);
        let cache = ReplayCache::new(&log, 8);
        for (i, &lsn) in lsns.iter().enumerate() {
            assert_eq!(cache.read_record(lsn).unwrap(), rec(1, i as u64, 40 * 1024));
        }
        log.close();
    }

    #[test]
    fn clock_evicts_under_pressure() {
        // ~240 KB of records through a 1-block cache: every block fetch
        // after the first evicts.
        let (log, lsns) = logged(6, 40 * 1024);
        let cache = ReplayCache::new(&log, 1);
        for &lsn in &lsns {
            let _ = cache.read_record(lsn).unwrap();
        }
        let s = log.stats();
        assert!(s.replay_cache_evictions > 0, "1-block cache must evict");
        assert_eq!(s.replay_cache_misses, s.replay_cache_evictions + 1);
        log.close();
    }

    #[test]
    fn misses_charge_the_disk_model_per_block() {
        let (log, lsns) = logged(10, 100);
        let before = log.stats().scan_chunks;
        let cache = ReplayCache::new(&log, 4);
        for &lsn in &lsns {
            let _ = cache.read_record(lsn).unwrap();
        }
        // Cache misses charge the model directly (not via scan_chunks);
        // the scan counter must be untouched by cached replay.
        assert_eq!(log.stats().scan_chunks, before);
        log.close();
    }

    #[test]
    fn reads_past_limit_fall_back_to_the_log() {
        let (log, _) = logged(3, 100);
        let cache = ReplayCache::new(&log, 4);
        // Appended after the cache snapshot: still in the volatile tail.
        let late = log.append(&rec(2, 0, 100));
        assert!(late.0 >= cache.limit());
        assert_eq!(cache.read_record(late).unwrap(), rec(2, 0, 100));
        log.close();
    }

    #[test]
    fn tail_reads_are_memoized() {
        let (log, _) = logged(3, 100);
        let cache = ReplayCache::new(&log, 4);
        let late = log.append(&rec(2, 0, 100));
        let before = log.stats().record_reads;
        for _ in 0..5 {
            assert_eq!(cache.read_record(late).unwrap(), rec(2, 0, 100));
        }
        // One log read serves all five accesses of the hot tail record.
        assert_eq!(log.stats().record_reads, before + 1);
        log.close();
    }

    #[test]
    fn shared_pool_serves_two_logs_without_aliasing() {
        let (log_a, lsns_a) = logged(4, 100);
        let (log_b, lsns_b) = logged(4, 100);
        let pool = Arc::new(BufferPool::new(4));
        let a = ReplayCache::with_pool(&log_a, &pool);
        let b = ReplayCache::with_pool(&log_b, &pool);
        // Identical LSNs on both logs: the source id keys them apart.
        for (i, (&la, &lb)) in lsns_a.iter().zip(&lsns_b).enumerate() {
            assert_eq!(a.read_record(la).unwrap(), rec(1, i as u64, 100));
            assert_eq!(b.read_record(lb).unwrap(), rec(1, i as u64, 100));
        }
        assert_eq!(pool.stats().pool_misses, 2, "one block per log");
        // Dropping one view frees its slots but leaves the other's.
        drop(a);
        let before = pool.stats().pool_misses;
        let _ = b.read_record(lsns_b[0]).unwrap();
        assert_eq!(pool.stats().pool_misses, before);
        log_a.close();
        log_b.close();
    }

    #[test]
    fn concurrent_readers_converge() {
        let (log, lsns) = logged(32, 2048);
        let cache = Arc::new(ReplayCache::new(&log, 2));
        std::thread::scope(|s| {
            for t in 0..8 {
                let cache = Arc::clone(&cache);
                let lsns = lsns.clone();
                s.spawn(move || {
                    for (i, &lsn) in lsns.iter().enumerate() {
                        assert_eq!(
                            cache.read_record(lsn).unwrap(),
                            rec(1, i as u64, 2048),
                            "thread {t} record {i}"
                        );
                    }
                });
            }
        });
        let s = log.stats();
        assert!(s.replay_cache_hits > s.replay_cache_misses);
        log.close();
    }
}
