//! Logging-overhead counters.
//!
//! The paper's §5.2 argues about *numbers of flushes* and *sectors wasted
//! per flush* ("on average, a half sector is wasted on every flush");
//! these counters let tests and benches verify exactly those claims on our
//! implementation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative counters of a physical log. All methods are lock-free.
#[derive(Debug, Default)]
pub struct LogStats {
    appends: AtomicU64,
    appended_bytes: AtomicU64,
    flushes: AtomicU64,
    flushed_sectors: AtomicU64,
    padded_bytes: AtomicU64,
    record_reads: AtomicU64,
    scan_chunks: AtomicU64,
    readahead_chunks: AtomicU64,
    append_reservations: AtomicU64,
    group_commit_batches: AtomicU64,
    prefetch_chunks: AtomicU64,
    flush_tickets_issued: AtomicU64,
    flush_tickets_completed: AtomicU64,
    stripe_appends: AtomicU64,
    stripe_flushes: AtomicU64,
    merged_watermark_lag_nanos: AtomicU64,
    log_truncations: AtomicU64,
    bytes_reclaimed: AtomicU64,
    reclaim_floor_lsn: AtomicU64,
}

/// A point-in-time copy of [`LogStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStatsSnapshot {
    /// Records appended to the in-memory tail.
    pub appends: u64,
    /// Framed bytes appended (headers included, padding excluded).
    pub appended_bytes: u64,
    /// Physical flushes performed (each is one device write).
    pub flushes: u64,
    /// Total sectors written by flushes (including padding).
    pub flushed_sectors: u64,
    /// Zero bytes written to round flushes up to sector boundaries.
    pub padded_bytes: u64,
    /// Random record reads served (orphan recovery, chain follows).
    pub record_reads: u64,
    /// 64 KB chunks consumed by sequential recovery scans.
    pub scan_chunks: u64,
    /// Device reads issued by the scanner's read-ahead buffer (one per
    /// 64 KB chunk instead of three per record).
    pub readahead_chunks: u64,
    /// LSN ranges handed out by the lock-free reservation pipeline (one
    /// per append).
    pub append_reservations: u64,
    /// Flusher wakeups that absorbed at least one additional pending
    /// flush request into the same device write (group-commit /
    /// batch coalescing events).
    pub group_commit_batches: u64,
    /// 64 KB chunks streamed ahead of the analysis scan by the prefetch
    /// stage of the pipelined scanner.
    pub prefetch_chunks: u64,
    /// Flush tickets handed out by `flush_to_async` (every `flush_to`
    /// goes through a ticket too).
    pub flush_tickets_issued: u64,
    /// Flush tickets completed successfully by a durable advance. Tickets
    /// failed by a crash/shutdown are issued but never completed.
    pub flush_tickets_completed: u64,
    /// Records routed through a striped log's append path.
    pub stripe_appends: u64,
    /// Per-stripe flush legs issued by merged flush requests (one merged
    /// flush touching three stripes counts three).
    pub stripe_flushes: u64,
    /// Total nanoseconds between the *first* and *last* stripe leg of
    /// each merged flush settling — how long the merged durability
    /// watermark trailed the fastest stripe.
    pub merged_watermark_lag_nanos: u64,
    /// Truncations that advanced the reclaim floor (no-op calls that
    /// found the floor already at or past the target do not count).
    pub log_truncations: u64,
    /// Device bytes recycled below the reclaim floor, cumulative.
    pub bytes_reclaimed: u64,
    /// The persisted reclaim floor — a *gauge*, not a counter: `since`
    /// keeps the later snapshot's value and `merge` takes the max. On a
    /// striped log each stripe reports its local floor here and the
    /// aggregate view overrides the field with the merged gsn floor.
    pub reclaim_floor_lsn: u64,
}

impl LogStats {
    pub fn on_append(&self, framed_bytes: u64) {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.appended_bytes
            .fetch_add(framed_bytes, Ordering::Relaxed);
    }

    pub fn on_flush(&self, sectors: u64, padded: u64) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.flushed_sectors.fetch_add(sectors, Ordering::Relaxed);
        self.padded_bytes.fetch_add(padded, Ordering::Relaxed);
    }

    pub fn on_record_read(&self) {
        self.record_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_scan_chunk(&self) {
        self.scan_chunks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_readahead_chunk(&self) {
        self.readahead_chunks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_reservation(&self) {
        self.append_reservations.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_group_commit_batch(&self) {
        self.group_commit_batches.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_prefetch_chunk(&self) {
        self.prefetch_chunks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_ticket_issued(&self) {
        self.flush_tickets_issued.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_ticket_completed(&self) {
        self.flush_tickets_completed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_stripe_append(&self) {
        self.stripe_appends.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_stripe_flush(&self) {
        self.stripe_flushes.fetch_add(1, Ordering::Relaxed);
    }

    pub fn on_merged_watermark_lag(&self, nanos: u64) {
        self.merged_watermark_lag_nanos
            .fetch_add(nanos, Ordering::Relaxed);
    }

    pub fn on_truncation(&self, reclaimed: u64, floor: u64) {
        self.log_truncations.fetch_add(1, Ordering::Relaxed);
        self.bytes_reclaimed.fetch_add(reclaimed, Ordering::Relaxed);
        self.reclaim_floor_lsn.fetch_max(floor, Ordering::Relaxed);
    }

    /// Record the floor without counting a truncation (reopening a log
    /// whose floor was persisted by a prior incarnation).
    pub fn note_reclaim_floor(&self, floor: u64) {
        self.reclaim_floor_lsn.fetch_max(floor, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> LogStatsSnapshot {
        LogStatsSnapshot {
            appends: self.appends.load(Ordering::Relaxed),
            appended_bytes: self.appended_bytes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            flushed_sectors: self.flushed_sectors.load(Ordering::Relaxed),
            padded_bytes: self.padded_bytes.load(Ordering::Relaxed),
            record_reads: self.record_reads.load(Ordering::Relaxed),
            scan_chunks: self.scan_chunks.load(Ordering::Relaxed),
            readahead_chunks: self.readahead_chunks.load(Ordering::Relaxed),
            append_reservations: self.append_reservations.load(Ordering::Relaxed),
            group_commit_batches: self.group_commit_batches.load(Ordering::Relaxed),
            prefetch_chunks: self.prefetch_chunks.load(Ordering::Relaxed),
            flush_tickets_issued: self.flush_tickets_issued.load(Ordering::Relaxed),
            flush_tickets_completed: self.flush_tickets_completed.load(Ordering::Relaxed),
            stripe_appends: self.stripe_appends.load(Ordering::Relaxed),
            stripe_flushes: self.stripe_flushes.load(Ordering::Relaxed),
            merged_watermark_lag_nanos: self.merged_watermark_lag_nanos.load(Ordering::Relaxed),
            log_truncations: self.log_truncations.load(Ordering::Relaxed),
            bytes_reclaimed: self.bytes_reclaimed.load(Ordering::Relaxed),
            reclaim_floor_lsn: self.reclaim_floor_lsn.load(Ordering::Relaxed),
        }
    }
}

impl LogStatsSnapshot {
    /// Difference since an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &LogStatsSnapshot) -> LogStatsSnapshot {
        LogStatsSnapshot {
            appends: self.appends - earlier.appends,
            appended_bytes: self.appended_bytes - earlier.appended_bytes,
            flushes: self.flushes - earlier.flushes,
            flushed_sectors: self.flushed_sectors - earlier.flushed_sectors,
            padded_bytes: self.padded_bytes - earlier.padded_bytes,
            record_reads: self.record_reads - earlier.record_reads,
            scan_chunks: self.scan_chunks - earlier.scan_chunks,
            readahead_chunks: self.readahead_chunks - earlier.readahead_chunks,
            append_reservations: self.append_reservations - earlier.append_reservations,
            group_commit_batches: self.group_commit_batches - earlier.group_commit_batches,
            prefetch_chunks: self.prefetch_chunks - earlier.prefetch_chunks,
            flush_tickets_issued: self.flush_tickets_issued - earlier.flush_tickets_issued,
            flush_tickets_completed: self.flush_tickets_completed - earlier.flush_tickets_completed,
            stripe_appends: self.stripe_appends - earlier.stripe_appends,
            stripe_flushes: self.stripe_flushes - earlier.stripe_flushes,
            merged_watermark_lag_nanos: self.merged_watermark_lag_nanos
                - earlier.merged_watermark_lag_nanos,
            log_truncations: self.log_truncations - earlier.log_truncations,
            bytes_reclaimed: self.bytes_reclaimed - earlier.bytes_reclaimed,
            // A gauge: "how far is the floor now", not a delta.
            reclaim_floor_lsn: self.reclaim_floor_lsn,
        }
    }

    /// Field-wise sum — a striped log's aggregate view is the sum of its
    /// per-stripe snapshots plus the striping-level counters.
    #[must_use]
    pub fn merge(&self, other: &LogStatsSnapshot) -> LogStatsSnapshot {
        LogStatsSnapshot {
            appends: self.appends + other.appends,
            appended_bytes: self.appended_bytes + other.appended_bytes,
            flushes: self.flushes + other.flushes,
            flushed_sectors: self.flushed_sectors + other.flushed_sectors,
            padded_bytes: self.padded_bytes + other.padded_bytes,
            record_reads: self.record_reads + other.record_reads,
            scan_chunks: self.scan_chunks + other.scan_chunks,
            readahead_chunks: self.readahead_chunks + other.readahead_chunks,
            append_reservations: self.append_reservations + other.append_reservations,
            group_commit_batches: self.group_commit_batches + other.group_commit_batches,
            prefetch_chunks: self.prefetch_chunks + other.prefetch_chunks,
            flush_tickets_issued: self.flush_tickets_issued + other.flush_tickets_issued,
            flush_tickets_completed: self.flush_tickets_completed + other.flush_tickets_completed,
            stripe_appends: self.stripe_appends + other.stripe_appends,
            stripe_flushes: self.stripe_flushes + other.stripe_flushes,
            merged_watermark_lag_nanos: self.merged_watermark_lag_nanos
                + other.merged_watermark_lag_nanos,
            log_truncations: self.log_truncations + other.log_truncations,
            bytes_reclaimed: self.bytes_reclaimed + other.bytes_reclaimed,
            // A gauge: merging per-stripe snapshots keeps the furthest
            // floor (the striped aggregate then overrides it with the
            // merged gsn floor, which is the meaningful figure there).
            reclaim_floor_lsn: self.reclaim_floor_lsn.max(other.reclaim_floor_lsn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = LogStats::default();
        s.on_append(100);
        s.on_append(50);
        s.on_flush(3, 200);
        s.on_record_read();
        s.on_scan_chunk();
        s.on_reservation();
        s.on_group_commit_batch();
        s.on_prefetch_chunk();
        s.on_ticket_issued();
        s.on_ticket_issued();
        s.on_ticket_completed();
        s.on_stripe_append();
        s.on_stripe_flush();
        s.on_stripe_flush();
        s.on_merged_watermark_lag(750);
        s.on_truncation(4096, 5120);
        s.on_truncation(512, 6144);
        let snap = s.snapshot();
        assert_eq!(snap.appends, 2);
        assert_eq!(snap.appended_bytes, 150);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.flushed_sectors, 3);
        assert_eq!(snap.padded_bytes, 200);
        assert_eq!(snap.record_reads, 1);
        assert_eq!(snap.scan_chunks, 1);
        assert_eq!(snap.append_reservations, 1);
        assert_eq!(snap.group_commit_batches, 1);
        assert_eq!(snap.prefetch_chunks, 1);
        assert_eq!(snap.flush_tickets_issued, 2);
        assert_eq!(snap.flush_tickets_completed, 1);
        assert_eq!(snap.stripe_appends, 1);
        assert_eq!(snap.stripe_flushes, 2);
        assert_eq!(snap.merged_watermark_lag_nanos, 750);
        assert_eq!(snap.log_truncations, 2);
        assert_eq!(snap.bytes_reclaimed, 4608);
        assert_eq!(snap.reclaim_floor_lsn, 6144);
    }

    #[test]
    fn reclaim_floor_is_a_max_gauge() {
        let s = LogStats::default();
        s.on_truncation(100, 2048);
        // A stale floor report must never regress the gauge.
        s.note_reclaim_floor(1024);
        assert_eq!(s.snapshot().reclaim_floor_lsn, 2048);
        let a = s.snapshot();
        s.on_truncation(50, 4096);
        let b = s.snapshot();
        // `since` keeps the later gauge value, not a delta.
        assert_eq!(b.since(&a).reclaim_floor_lsn, 4096);
        assert_eq!(b.since(&a).log_truncations, 1);
        assert_eq!(b.since(&a).bytes_reclaimed, 50);
        // `merge` keeps the furthest floor.
        let t = LogStats::default();
        t.on_truncation(7, 512);
        let m = b.merge(&t.snapshot());
        assert_eq!(m.reclaim_floor_lsn, 4096);
        assert_eq!(m.log_truncations, 3);
        assert_eq!(m.bytes_reclaimed, 157);
    }

    #[test]
    fn merge_sums_fieldwise() {
        let s = LogStats::default();
        s.on_append(100);
        s.on_flush(3, 200);
        let a = s.snapshot();
        let t = LogStats::default();
        t.on_append(50);
        t.on_stripe_flush();
        let m = a.merge(&t.snapshot());
        assert_eq!(m.appends, 2);
        assert_eq!(m.appended_bytes, 150);
        assert_eq!(m.flushes, 1);
        assert_eq!(m.stripe_flushes, 1);
    }

    #[test]
    fn since_subtracts() {
        let s = LogStats::default();
        s.on_flush(2, 10);
        let a = s.snapshot();
        s.on_flush(3, 20);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.flushes, 1);
        assert_eq!(d.flushed_sectors, 3);
        assert_eq!(d.padded_bytes, 20);
    }
}
