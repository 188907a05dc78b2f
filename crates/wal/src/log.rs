//! The physical log: one per MSP, shared by all sessions (§1.3, §3).
//!
//! # On-disk layout
//!
//! ```text
//! sector 0          : log anchor (see `anchor.rs`)
//! offset 512 ..     : framed records, zero-padded to sector boundaries
//! ```
//!
//! Each record is framed as `[magic 0xA5][len u32][crc u32][payload]`; the
//! **LSN of a record is the file offset of its magic byte**. A flush takes
//! the whole in-memory tail, pads it with zeros to the next sector
//! boundary and writes it as one device write — reproducing the paper's
//! observation that "log blocks are aligned at sector boundaries and when
//! a log block is flushed, its last sector may not be full. On average, a
//! half sector is wasted on every flush."
//!
//! # Flush discipline
//!
//! A single flusher thread serializes device writes (like a real disk arm)
//! and charges the [`DiskModel`] cost per flush. `flush_to(lsn)` blocks
//! until the record at `lsn` is durable; concurrent callers coalesce into
//! one device write (group commit). With [`FlushPolicy::batch_timeout`]
//! set, the flusher additionally waits that long before writing, giving
//! the paper's §5.5 *batch flushing*.
//!
//! # Crash semantics
//!
//! Dropping the log (or calling [`PhysicalLog::crash`]) discards the
//! un-flushed tail — exactly the information a real crash loses. Re-opening
//! the same disk resumes appending after the last intact record,
//! overwriting any torn tail. [`PhysicalLog::open`] walks the frames from
//! the reclaim floor to find that point; crash recovery opens
//! [unpositioned](PhysicalLog::open_unpositioned) and hands the log the
//! point where its own analysis scan stopped
//! ([`PhysicalLog::resume_at`]), so the log is read once.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use msp_types::{Decode, Encode, Lsn, MspError};

use crate::disk::Disk;
use crate::fault::{CrashPoint, FaultPlan};
use crate::frame::{self, FRAME_HEADER, MAX_RECORD};
use crate::model::DiskModel;
use crate::record::LogRecord;
use crate::stats::{LogStats, LogStatsSnapshot};
use crate::tail::ReservedTail;

/// Device sector size; the paper's disks use 512-byte sectors.
pub const SECTOR_SIZE: usize = 512;

/// First byte of the record area (sector 0 is the log anchor).
pub const DATA_START: u64 = SECTOR_SIZE as u64;

/// Size of the sequential-read unit used by recovery scans (§5.4: "Log
/// reads are 128 sectors (= 64KB)").
pub const SCAN_CHUNK: usize = 128 * SECTOR_SIZE;

/// When and how much the flusher writes per device operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// `None`: flush as soon as requested. `Some(t)`: wait `t` after the
    /// first request so several requests share one device write — the
    /// paper's §5.5 *batch flushing*.
    pub batch_timeout: Option<Duration>,
    /// `true`: every device write takes the *whole* tail, padded to a
    /// sector boundary (classic group commit — an engineering improvement
    /// over the paper's prototype, whose baseline writes per request).
    /// `false`: each write covers only the records flush requests asked
    /// for, ending exactly at a record boundary (the partial last sector
    /// is rewritten by the next flush, as on a real log disk).
    pub group_commit: bool,
    /// Extra delay after the first wakeup in group-commit mode, so
    /// commits that arrive while the previous flush is in flight are
    /// absorbed into the same device write. `None` flushes as soon as
    /// the flusher wakes. Scaled by the disk model's time scale, like
    /// `batch_timeout`.
    pub group_commit_window: Option<Duration>,
}

impl Default for FlushPolicy {
    fn default() -> FlushPolicy {
        FlushPolicy::immediate()
    }
}

impl FlushPolicy {
    /// Flush on demand with group commit — the library default.
    pub fn immediate() -> FlushPolicy {
        FlushPolicy {
            batch_timeout: None,
            group_commit: true,
            group_commit_window: None,
        }
    }

    /// The paper's §5.5 batch flushing: delay by `timeout`, then write
    /// exactly what was requested.
    pub fn batched(timeout: Duration) -> FlushPolicy {
        FlushPolicy {
            batch_timeout: Some(timeout),
            group_commit: false,
            group_commit_window: None,
        }
    }

    /// The paper prototype's non-batched baseline: one write per flush
    /// request, no group commit.
    pub fn per_request() -> FlushPolicy {
        FlushPolicy {
            batch_timeout: None,
            group_commit: false,
            group_commit_window: None,
        }
    }

    /// Set the group-commit coalescing window.
    #[must_use]
    pub fn with_group_commit_window(mut self, window: Option<Duration>) -> FlushPolicy {
        // A coalescing window only makes sense under group commit; setting
        // one opts the policy in.
        self.group_commit |= window.is_some();
        self.group_commit_window = window;
        self
    }
}

/// Completion state shared between a [`FlushTicket`] and the log that
/// issued it.
struct TicketInner {
    state: Mutex<TicketState>,
    cv: Condvar,
}

struct TicketState {
    /// `None` while pending; `Some(true)` once the durable horizon passed
    /// the target, `Some(false)` when the log stopped first.
    done: Option<bool>,
    /// Callback armed by [`FlushTicket::on_settle`], invoked exactly once
    /// at settlement (usually on the flusher thread).
    waker: Option<Box<dyn FnOnce(bool) + Send>>,
}

impl TicketInner {
    fn new() -> Arc<TicketInner> {
        Arc::new(TicketInner {
            state: Mutex::new(TicketState {
                done: None,
                waker: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Settle the ticket (idempotent); returns `true` on the first call.
    fn settle(&self, ok: bool) -> bool {
        self.settle_then(ok, || {})
    }

    /// Like [`settle`](Self::settle), running `first` under the state
    /// lock on the winning call — before any waiter can observe the
    /// outcome (used to keep stats counters ahead of observers).
    fn settle_then(&self, ok: bool, first: impl FnOnce()) -> bool {
        let waker = {
            let mut st = self.state.lock();
            if st.done.is_some() {
                return false;
            }
            st.done = Some(ok);
            first();
            self.cv.notify_all();
            st.waker.take()
        };
        if let Some(w) = waker {
            w(ok);
        }
        true
    }
}

/// Handle returned by [`PhysicalLog::flush_to_async`]: settles when the
/// durable horizon passes the requested LSN, or fails when the log stops
/// (crash or close) first. The blocking [`PhysicalLog::flush_to`] is
/// exactly `flush_to_async(lsn).wait()`.
pub struct FlushTicket {
    inner: Arc<TicketInner>,
}

impl FlushTicket {
    /// A ticket with no owning log, settled manually by its creator — the
    /// striped log's merged flush builds one per request and settles it
    /// when every per-stripe leg has.
    pub(crate) fn unsettled() -> FlushTicket {
        FlushTicket {
            inner: TicketInner::new(),
        }
    }

    /// Settle a manually managed ticket (idempotent).
    pub(crate) fn settle_now(&self, ok: bool) {
        self.inner.settle(ok);
    }

    /// Second handle onto the same settlement state, so the striped log
    /// can keep one inside the join callback and return the other.
    pub(crate) fn clone_handle(&self) -> FlushTicket {
        FlushTicket {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Block until the ticket settles.
    pub fn wait(&self) -> Result<(), MspError> {
        let mut st = self.inner.state.lock();
        while st.done.is_none() {
            self.inner.cv.wait(&mut st);
        }
        if st.done == Some(true) {
            Ok(())
        } else {
            Err(MspError::Shutdown)
        }
    }

    /// Non-blocking probe: `None` while pending.
    pub fn poll(&self) -> Option<Result<(), MspError>> {
        self.inner
            .state
            .lock()
            .done
            .map(|ok| if ok { Ok(()) } else { Err(MspError::Shutdown) })
    }

    /// Arm a settlement callback, invoked exactly once with the outcome.
    /// If the ticket already settled it runs inline on this thread;
    /// otherwise it runs on the settling thread (the flusher for
    /// completions, the crashing/closing thread for failures) and must
    /// not block.
    pub fn on_settle(&self, f: impl FnOnce(bool) + Send + 'static) {
        let mut st = self.inner.state.lock();
        match st.done {
            Some(ok) => {
                drop(st);
                f(ok);
            }
            None => {
                debug_assert!(st.waker.is_none(), "one settlement callback per ticket");
                st.waker = Some(Box::new(f));
            }
        }
    }
}

/// The append/flush/read interface over one MSP's log device.
pub struct PhysicalLog {
    disk: Arc<dyn Disk>,
    model: DiskModel,
    /// The volatile tail: lock-free LSN reservation, out-of-lock segment
    /// filling, completion watermarks (see [`crate::tail`]).
    tail: ReservedTail,
    wakeup_tx: Sender<u64>,
    stopped: AtomicBool,
    stats: LogStats,
    /// Pending flush tickets keyed by target LSN. The flusher settles
    /// every ticket strictly below the durable horizon after each device
    /// flush; shutdown fails whatever is left.
    tickets: Mutex<BTreeMap<u64, Vec<Arc<TicketInner>>>>,
    flusher: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Armed crash-point plan (torture rig); `fault_armed` is the lock-free
    /// fast path so un-instrumented runs pay one relaxed load per site.
    fault: Mutex<Option<Arc<FaultPlan>>>,
    fault_armed: AtomicBool,
    /// Reclaim floor: every record at an LSN below this has been (or is
    /// being) reclaimed from the device. Persisted in sector 0 *before*
    /// any space is released, so a crash mid-truncation can only leave
    /// stale-but-unreferenced bytes, never a floor that lies low. All
    /// scans clamp their start to this — the bytes below read as zeros,
    /// and a zero byte mid-sector would make the padding-skip heuristic
    /// step *past* a floor that is not sector-aligned.
    floor: AtomicU64,
}

impl PhysicalLog {
    /// Open a log over `disk` ready to append: walk every frame from the
    /// persisted reclaim floor (`DATA_START` when the log was never
    /// truncated) to the first torn or absent one, and resume there. For
    /// callers that do not read the log themselves; crash recovery opens
    /// [unpositioned](Self::open_unpositioned) instead and resumes where
    /// its analysis scan ends, so it reads the log once.
    pub fn open(
        disk: Arc<dyn Disk>,
        model: DiskModel,
        policy: FlushPolicy,
    ) -> Result<Arc<PhysicalLog>, MspError> {
        let log = Self::open_unpositioned(disk, model, policy)?;
        // The walk must start exactly at the floor: below it the device
        // reads as zeros, and a mid-sector floor would be skipped over by
        // the padding heuristic if the walk started any earlier.
        let end = RawScanner::new(log.disk(), log.floor().0, None, None).find_end()?;
        log.resume_at(Lsn(end));
        Ok(log)
    }

    /// Open at an append position the caller already knows: the striped
    /// log, whose open merged the stripes and found each one's end, and
    /// tests.
    pub fn open_at(
        disk: Arc<dyn Disk>,
        model: DiskModel,
        policy: FlushPolicy,
        append_at: u64,
    ) -> Result<Arc<PhysicalLog>, MspError> {
        let log = Self::open_unpositioned(disk, model, policy)?;
        log.resume_at(Lsn(append_at));
        Ok(log)
    }

    /// Open a log over `disk` without reading it: read the persisted
    /// reclaim floor, re-issue the reclaim below it, start the flusher —
    /// and park the tail at the device's high-water mark, so every
    /// durable byte (scans, [`read_record`](Self::read_record)) is read
    /// from the device. Appends are refused until
    /// [`resume_at`](Self::resume_at) gives the append point; a reader
    /// that never appends (an audit) never resumes.
    pub fn open_unpositioned(
        disk: Arc<dyn Disk>,
        model: DiskModel,
        policy: FlushPolicy,
    ) -> Result<Arc<PhysicalLog>, MspError> {
        let (wakeup_tx, wakeup_rx) = crossbeam_channel::unbounded::<u64>();
        let floor = crate::anchor::read_floor(disk.as_ref())?
            .unwrap_or(DATA_START)
            .max(DATA_START);
        let hwm = disk.len().max(floor);
        let log = Arc::new(PhysicalLog {
            disk,
            model,
            tail: ReservedTail::parked_at(hwm),
            wakeup_tx,
            stopped: AtomicBool::new(false),
            stats: LogStats::default(),
            tickets: Mutex::new(BTreeMap::new()),
            flusher: Mutex::new(None),
            fault: Mutex::new(None),
            fault_armed: AtomicBool::new(false),
            floor: AtomicU64::new(floor),
        });
        if floor > DATA_START {
            // A crash between the floor write and the reclaim leaves stale
            // bytes under the floor; re-issuing the (idempotent) reclaim at
            // every open restores the zeros-below-floor invariant the
            // audits check.
            log.disk.reclaim(DATA_START, floor).map_err(MspError::Io)?;
            log.stats.note_reclaim_floor(floor);
        }
        let worker = Arc::clone(&log);
        let handle = std::thread::Builder::new()
            .name("log-flusher".into())
            .spawn(move || worker.flusher_loop(wakeup_rx, policy))
            .map_err(MspError::Io)?;
        *log.flusher.lock() = Some(handle);
        Ok(log)
    }

    /// Position an [unpositioned](Self::open_unpositioned) log: appends
    /// start at `end` (clamped to the floor). `end` must be the end of
    /// the intact record stream — where a scan from any record boundary
    /// at or above the floor stops, and where [`open`](Self::open)'s walk
    /// stops.
    ///
    /// # Panics
    ///
    /// If the log is already positioned, or anything was appended,
    /// requested or made durable since the open.
    pub fn resume_at(&self, end: Lsn) {
        self.tail.resume_at(end.0.max(self.floor().0));
    }

    /// Whether the device holds no log yet: no persisted reclaim floor
    /// and no intact frame at [`DATA_START`], checked with a one-frame
    /// probe. These are exactly the devices [`open`](Self::open) would
    /// position at `DATA_START`; a fully truncated log is not blank.
    pub fn is_blank(&self) -> Result<bool, MspError> {
        if self.floor().0 > DATA_START {
            return Ok(false);
        }
        let mut probe = RawScanner::new(self.disk(), DATA_START, None, None);
        Ok(probe.step()?.is_none() && probe.offset() == DATA_START)
    }

    /// The disk this log writes to (shared with the restarted MSP after a
    /// simulated crash).
    pub fn disk(&self) -> Arc<dyn Disk> {
        Arc::clone(&self.disk)
    }

    /// The cost model in force.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Overhead counters.
    pub fn stats(&self) -> LogStatsSnapshot {
        self.stats.snapshot()
    }

    /// The live counter struct, for in-crate collaborators (the replay
    /// cache accounts its hits/misses against the log it fronts).
    pub(crate) fn stats_ref(&self) -> &LogStats {
        &self.stats
    }

    /// Install a crash-point plan on the live log (torture rig). The plan
    /// fires at most once; see [`crate::fault`].
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.fault.lock() = Some(plan);
        self.fault_armed.store(true, Ordering::Release);
    }

    /// Crash-site probe: if an armed [`FaultPlan`]'s countdown for `point`
    /// expires on this traversal, crash the log **here** — the unclean
    /// shutdown runs synchronously, discarding the volatile tail before
    /// the surrounding operation can complete — and report the fire.
    /// Returns `true` iff this call crashed the log.
    pub fn fault_point(&self, point: CrashPoint) -> bool {
        if !self.fault_armed.load(Ordering::Acquire) {
            return false;
        }
        let plan = self.fault.lock().clone();
        let Some(plan) = plan else { return false };
        if !plan.should_fire(point) {
            return false;
        }
        self.shutdown(false);
        plan.notify_fired(point);
        true
    }

    /// Append `record` to the volatile tail; returns its LSN. Does not
    /// make it durable — pair with [`flush_to`](Self::flush_to).
    pub fn append(&self, record: &LogRecord) -> Lsn {
        self.append_sized(record).0
    }

    /// Append `record` and also return its framed size (header +
    /// payload) in the log. Callers that feed per-session log-consumption
    /// counters need the size; measuring it with a pair of `end_lsn`
    /// probes around the append is racy once appends run concurrently,
    /// so the append itself reports it.
    pub fn append_sized(&self, record: &LogRecord) -> (Lsn, u64) {
        debug_assert!(
            !self.tail.is_parked(),
            "append before resume_at on an unpositioned log"
        );
        // Crash site: the record's reservation goes through but its bytes
        // die with the discarded tail (the fill is abandoned once
        // stopped), modelling a kill mid-append.
        self.fault_point(CrashPoint::MidAppend);
        let payload = record.to_bytes();
        assert!(
            payload.len() <= MAX_RECORD as usize,
            "record of {} bytes exceeds the log's record limit of {MAX_RECORD} bytes",
            payload.len()
        );
        // Encode the full frame first — outside any lock — then reserve a
        // range and copy it into the staging ring.
        let frame = frame::encode(&payload);
        let framed = frame.len() as u64;
        self.stats.on_reservation();
        let lsn = self.tail.append(&frame, &self.wakeup_tx, &self.stopped);
        self.stats.on_append(framed);
        (Lsn(lsn), framed)
    }

    /// LSN the next append will receive (under concurrent appends this
    /// is a snapshot — another reservation may land immediately after).
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.tail.reserved())
    }

    /// LSN of the most recently appended record's *end*; every record with
    /// LSN strictly below the durable point is safe.
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.tail.durable())
    }

    /// Block until the record at `lsn` (and everything before it) is
    /// durable. Wakes the flusher if needed.
    pub fn flush_to(&self, lsn: Lsn) -> Result<(), MspError> {
        self.flush_to_async(lsn).wait()
    }

    /// Non-blocking flush request: register interest in the durable
    /// horizon passing `lsn`, wake the flusher if needed, and return a
    /// [`FlushTicket`] that settles when it does. Tickets at-or-below the
    /// new durable horizon settle together after each device flush (group
    /// commit batches them); a crash or close fails whatever is pending.
    pub fn flush_to_async(&self, lsn: Lsn) -> FlushTicket {
        self.stats.on_ticket_issued();
        let ticket = FlushTicket {
            inner: TicketInner::new(),
        };
        // Crash site: records were appended (reservations complete) but
        // the kill lands before any of them can reach the device.
        if self.fault_point(CrashPoint::PreFlush) {
            ticket.inner.settle(false);
            return ticket;
        }
        let rt = &self.tail;
        // Already durable — or nothing at that LSN has even been
        // appended: settle without touching the registry.
        if rt.durable() > lsn.0 || rt.reserved() <= lsn.0 {
            self.stats.on_ticket_completed();
            ticket.inner.settle(true);
            return ticket;
        }
        // Register before the stop-flag check: `shutdown` sets the flag
        // before sweeping the registry, so a ticket that misses the sweep
        // observes the flag here and fails itself.
        self.tickets
            .lock()
            .entry(lsn.0)
            .or_default()
            .push(Arc::clone(&ticket.inner));
        if self.stopped.load(Ordering::SeqCst) {
            ticket.inner.settle(false);
            return ticket;
        }
        // Reservation points always sit on frame boundaries, so the
        // current reserved end is a legal target; it also absorbs every
        // record appended so far, which is exactly group commit's job.
        let reserved = rt.reserved();
        if rt.note_requested(reserved) && self.wakeup_tx.send(reserved).is_err() {
            ticket.inner.settle(false);
            return ticket;
        }
        // The flusher may have advanced the horizon between the fast-path
        // check and the registration; sweep once so the ticket cannot be
        // stranded.
        let durable = rt.durable();
        if durable > lsn.0 {
            self.complete_tickets(durable);
        }
        ticket
    }

    /// Settle every registered ticket whose target is strictly below the
    /// durable horizon (`durable > lsn` is the completion condition,
    /// matching the blocking wait predicate).
    fn complete_tickets(&self, durable: u64) {
        let ready: Vec<Arc<TicketInner>> = {
            let mut reg = self.tickets.lock();
            if reg.is_empty() {
                return;
            }
            let keep = reg.split_off(&durable);
            let ready = std::mem::replace(&mut *reg, keep);
            ready.into_values().flatten().collect()
        };
        for t in ready {
            t.settle_then(true, || self.stats.on_ticket_completed());
        }
    }

    /// Fail every pending ticket — crash/close path. Idempotent.
    fn fail_all_tickets(&self) {
        let all: Vec<Arc<TicketInner>> = std::mem::take(&mut *self.tickets.lock())
            .into_values()
            .flatten()
            .collect();
        for t in all {
            t.settle(false);
        }
    }

    /// Flush everything appended so far.
    pub fn flush_all(&self) -> Result<(), MspError> {
        let end = self.end_lsn();
        if end.0 == 0 {
            return Ok(());
        }
        self.flush_to(Lsn(end.0 - 1))
    }

    /// Like [`read_record`](Self::read_record) but also returns the
    /// record's framed size in the log (header + payload) — used by
    /// replay to maintain the per-session log-consumption counter that
    /// drives checkpointing. The size comes from the fetched frame
    /// itself; the record is never re-encoded to measure it.
    pub fn read_record_sized(&self, lsn: Lsn) -> Result<(LogRecord, u64), MspError> {
        self.stats.on_record_read();
        let payload = self.read_frame(lsn)?;
        let framed = (FRAME_HEADER + payload.len()) as u64;
        let rec = LogRecord::from_bytes(&payload).map_err(|e| MspError::LogCorrupt {
            offset: lsn.0,
            reason: e.to_string(),
        })?;
        Ok((rec, framed))
    }

    /// Read and decode the record at `lsn`, serving from the volatile tail
    /// if it has not been flushed yet (orphan recovery runs while the MSP
    /// is alive, so the record may still be buffered).
    pub fn read_record(&self, lsn: Lsn) -> Result<LogRecord, MspError> {
        self.stats.on_record_read();
        let payload = self.read_frame(lsn)?;
        LogRecord::from_bytes(&payload).map_err(|e| MspError::LogCorrupt {
            offset: lsn.0,
            reason: e.to_string(),
        })
    }

    /// Fetch the validated frame payload at `lsn`, from the volatile
    /// tail if still buffered, else from the device.
    fn read_frame(&self, lsn: Lsn) -> Result<Vec<u8>, MspError> {
        let rt = &self.tail;
        // A known LSN is fully staged (its append returned before the LSN
        // could escape), so the only race is the slot being retired
        // mid-read — in which case the bytes are durable and the device
        // serves them.
        while lsn.0 >= rt.durable() {
            if lsn.0 >= rt.reserved() {
                return Err(MspError::LogCorrupt {
                    offset: lsn.0,
                    reason: "read past end of log".into(),
                });
            }
            let mut retired = false;
            let got = frame::read(lsn.0, |off, out| {
                if rt.try_copy_out(off, out) {
                    Ok(out.len())
                } else {
                    retired = true;
                    Ok(0)
                }
            });
            if !retired {
                return got;
            }
        }
        frame::read(lsn.0, |off, out| {
            self.disk.read(off, out).map_err(MspError::Io)
        })
    }

    /// Sequential scanner over the *durable* log starting at `from`,
    /// charging the disk model's sequential-read cost per 64 KB chunk.
    /// Used by crash recovery; the volatile tail is, by definition of a
    /// crash, not present.
    pub fn scan_from(&self, from: Lsn) -> LogScanner<'_> {
        LogScanner {
            raw: RawScanner::new(
                self.disk.clone(),
                self.clamp_scan_start(from),
                Some(&self.model),
                Some(&self.stats),
            ),
        }
    }

    /// Every scan starts at or above the reclaim floor: the bytes below it
    /// read as zeros, and a zero at a non-sector-aligned floor would make
    /// the padding-skip heuristic jump past the first live record.
    fn clamp_scan_start(&self, from: Lsn) -> u64 {
        from.0
            .max(DATA_START)
            .max(self.floor.load(Ordering::Acquire))
    }

    /// Like [`scan_from`](Self::scan_from), but with the device reads
    /// (and their disk-model cost) running in a dedicated prefetch thread
    /// that streams 64 KB chunks ahead of the caller, so decode/analysis
    /// overlaps I/O instead of alternating with it. Falls back to the
    /// serial scanner if the prefetch thread cannot be spawned.
    pub fn scan_from_pipelined(self: &Arc<Self>, from: Lsn) -> LogScanner<'_> {
        let start = self.clamp_scan_start(from);
        match Prefetcher::spawn(Arc::clone(self), start) {
            Ok(pf) => LogScanner {
                raw: RawScanner::with_prefetch(self.disk.clone(), start, Some(&self.stats), pf),
            },
            Err(_) => self.scan_from(from),
        }
    }

    /// The current reclaim floor: no record below this LSN survives on
    /// the device. `DATA_START` when the log was never truncated.
    pub fn floor(&self) -> Lsn {
        Lsn(self.floor.load(Ordering::Acquire))
    }

    /// Target LSN of the oldest flush ticket still pending, if any. A
    /// pending ticket's record may not be durable yet, so truncation must
    /// never cross it — the reclaim-floor fold includes this.
    pub fn oldest_pending_flush(&self) -> Option<Lsn> {
        self.tickets.lock().keys().next().copied().map(Lsn)
    }

    /// Advance the reclaim floor to `floor` (clamped to the durable
    /// horizon and never moved backwards) and release the device space
    /// below it. Returns the number of bytes newly reclaimed (0 when the
    /// clamp leaves the floor where it was).
    ///
    /// Ordering is crash-safe: the new floor is persisted in sector 0
    /// *before* any space is released. A crash after the persist but
    /// before the reclaim ([`CrashPoint::TruncateStart`]) leaves stale
    /// bytes under an advanced floor — re-opening re-issues the reclaim
    /// and every scan already starts at the floor, so the stale bytes are
    /// unreachable. The caller guarantees `floor` does not exceed any
    /// live dependency (see the reclaim-floor fold in `core`).
    pub fn truncate_below(&self, floor: Lsn) -> Result<u64, MspError> {
        self.truncate_below_charging(floor, &self.model)
    }

    /// [`truncate_below`](Self::truncate_below) with the floor's sector
    /// write charged to `model` — the striped log truncates its stripes
    /// together and charges their overlapping writes once.
    pub(crate) fn truncate_below_charging(
        &self,
        floor: Lsn,
        model: &DiskModel,
    ) -> Result<u64, MspError> {
        if self.stopped.load(Ordering::SeqCst) {
            return Err(MspError::Shutdown);
        }
        let durable = self.durable_lsn().0;
        let cur = self.floor.load(Ordering::Acquire);
        let target = floor.0.min(durable).max(cur).max(DATA_START);
        if target <= cur {
            return Ok(0);
        }
        crate::anchor::write_floor(self.disk.as_ref(), model, target)?;
        self.floor.fetch_max(target, Ordering::AcqRel);
        if self.fault_point(CrashPoint::TruncateStart) {
            return Err(MspError::Shutdown);
        }
        let reclaimed = target - cur;
        self.disk
            .reclaim(DATA_START, target)
            .map_err(MspError::Io)?;
        self.stats.on_truncation(reclaimed, target);
        if self.fault_point(CrashPoint::TruncateComplete) {
            return Err(MspError::Shutdown);
        }
        Ok(reclaimed)
    }

    /// Charge the model's sequential-read cost for `bytes` of log read by
    /// a recovery path that reads via [`read_record`](Self::read_record)
    /// (position-stream driven replay reads 64 KB chunks in the paper).
    pub fn charge_sequential_read(&self, bytes: u64) {
        let chunks = bytes.div_ceil(SCAN_CHUNK as u64);
        for _ in 0..chunks {
            self.stats.on_scan_chunk();
            self.model.charge_read(128);
        }
    }

    /// Stop the flusher *without* flushing the tail: the simulated crash.
    /// Buffered records are lost, exactly as in a real power failure.
    pub fn crash(&self) {
        self.shutdown(false);
    }

    /// Flush everything and stop the flusher: clean shutdown.
    pub fn close(&self) {
        let _ = self.flush_all();
        self.shutdown(true);
    }

    fn shutdown(&self, clean: bool) {
        if !clean {
            // Discard the volatile tail so the flusher's final drain
            // cannot accidentally make it durable.
            self.tail.set_discard();
        }
        self.stopped.store(true, Ordering::SeqCst);
        // Unpark a flusher waiting for segment completion promptly.
        self.tail.notify_force();
        let _ = self.wakeup_tx.send(u64::MAX);
        if let Some(h) = self.flusher.lock().take() {
            let _ = h.join();
        }
        // Fail whatever tickets the (now stopped) flusher left pending.
        // Tickets registered after this sweep observe the stop flag and
        // fail themselves.
        self.fail_all_tickets();
        // Wake any appender still parked on the staging ring.
        self.tail.notify_force();
    }

    fn flusher_loop(self: Arc<PhysicalLog>, wakeup_rx: Receiver<u64>, policy: FlushPolicy) {
        loop {
            // Purely event-driven: block until a flush target (or the
            // shutdown sentinel) arrives; no periodic poll.
            let first = match wakeup_rx.recv() {
                Ok(t) => t,
                Err(crossbeam_channel::RecvError) => return,
            };
            if self.stopped.load(Ordering::SeqCst) {
                // Final drain so close() callers are not stranded.
                self.final_drain(policy);
                return;
            }
            if let Some(t) = policy.batch_timeout {
                // Batch flushing (§5.5): delay so several requests are
                // served by one device write.
                crate::model::sleep_exact(self.model.scaled(t));
            } else if policy.group_commit {
                if let Some(w) = policy.group_commit_window {
                    // Hold the device briefly so commits arriving while
                    // this flush is being assembled join it.
                    crate::model::sleep_exact(self.model.scaled(w));
                }
            }
            // Absorb every request that queued up behind the first; one
            // device write serves them all (group commit / batching).
            let target = if policy.group_commit || policy.batch_timeout.is_some() {
                let mut target = first;
                let mut extra = 0u64;
                while let Ok(t) = wakeup_rx.try_recv() {
                    target = target.max(t);
                    extra += 1;
                }
                if extra > 0 {
                    self.stats.on_group_commit_batch();
                }
                target
            } else {
                first
            };
            if policy.group_commit {
                // One write takes everything pending, padded to a sector.
                let goal = self.tail.requested().max(self.tail.reserved());
                self.flush_reserved(goal, true);
            } else {
                // Batch flushing (§5.5) coalesced the window's requests
                // into `target`; on the per-request baseline it is `first`.
                self.flush_reserved(target, false);
            }
            // The coalescing drains above may have consumed the shutdown
            // sentinel; recheck so shutdown() is never left joining a
            // flusher that is blocked on an empty channel.
            if self.stopped.load(Ordering::SeqCst) {
                self.final_drain(policy);
                return;
            }
        }
    }

    /// Last flush before the flusher exits, so `close()` callers are not
    /// stranded. A crash (`discard`) makes this a no-op.
    fn final_drain(&self, policy: FlushPolicy) {
        let rt = &self.tail;
        if !rt.discarded() {
            let goal = rt.requested().max(rt.reserved());
            self.flush_reserved(goal, policy.group_commit);
        }
        rt.notify_force();
    }

    /// Drive the reserved tail durable up to `goal` (clamped to the
    /// reserved end), waiting for segment completion watermarks as
    /// needed. `pad` rounds the final write up to a sector boundary when
    /// no concurrent reservation races in.
    fn flush_reserved(&self, goal: u64, pad: bool) {
        let rt = &self.tail;
        loop {
            if rt.discarded() {
                break;
            }
            let durable = rt.durable();
            let goal_now = goal.min(rt.reserved());
            if durable >= goal_now {
                break;
            }
            // Never ship a range with holes: advance only over segments
            // whose completion watermark accounts for every reserved
            // byte.
            let prefix = rt.complete_prefix(durable, goal_now);
            if prefix <= durable {
                if self.stopped.load(Ordering::SeqCst) {
                    // An appender may have aborted mid-copy at shutdown;
                    // the hole will never fill, so give up.
                    break;
                }
                rt.wait(|| {
                    rt.complete_prefix(durable, goal_now) > durable
                        || self.stopped.load(Ordering::SeqCst)
                        || rt.discarded()
                });
                continue;
            }
            let mut bytes = Vec::new();
            rt.collect(durable, prefix, &mut bytes);
            let mut end = prefix;
            let padding = ReservedTail::pad_to_sector(prefix);
            if pad && padding > 0 && rt.claim_padding(prefix, padding) {
                // The pad range is now reserved for these zeros; account
                // it filled so the watermark check stays exact.
                rt.account_padding(prefix, padding);
                bytes.resize(bytes.len() + padding as usize, 0);
                end = prefix + padding;
            }
            // Sector span actually touched (the first sector may be a
            // partial rewrite); an unpadded partial last sector is waste
            // this flush pays for (the next flush rewrites it).
            let first_sector = durable / SECTOR_SIZE as u64;
            let last_sector = end.div_ceil(SECTOR_SIZE as u64);
            let sectors = last_sector - first_sector;
            self.model.charge_flush(sectors);
            if self.disk.write(durable, &bytes).is_err() {
                break;
            }
            self.stats.on_flush(sectors, padding);
            rt.publish_durable(end);
            rt.retire_through(end);
            self.complete_tickets(rt.durable());
        }
        rt.notify_force();
    }
}

impl Drop for PhysicalLog {
    fn drop(&mut self) {
        // Crash-consistent by default: the tail is NOT flushed. Callers
        // wanting durability must call `close()`.
        self.tail.set_discard();
        self.stopped.store(true, Ordering::SeqCst);
        self.tail.notify_force();
        let _ = self.wakeup_tx.send(u64::MAX);
        if let Some(h) = self.flusher.lock().take() {
            let _ = h.join();
        }
        // A FlushTicket only holds the shared TicketInner, so a waiter
        // can outlive the log; fail the registry or they hang forever.
        self.fail_all_tickets();
    }
}

/// Depth of the pipelined scan: 64 KB chunks buffered between the I/O
/// stage and the decode stage.
const PREFETCH_DEPTH: usize = 4;

/// I/O stage of a pipelined scan ([`PhysicalLog::scan_from_pipelined`]):
/// a thread streaming consecutive [`SCAN_CHUNK`] chunks off the device
/// into a bounded channel, paying the disk model's sequential-read cost
/// as it goes so the decode stage never waits on simulated disk time.
struct Prefetcher {
    rx: Option<Receiver<(u64, Vec<u8>)>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Prefetcher {
    fn spawn(log: Arc<PhysicalLog>, from: u64) -> std::io::Result<Prefetcher> {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = crossbeam_channel::bounded::<(u64, Vec<u8>)>(PREFETCH_DEPTH);
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("log-prefetch".into())
            .spawn(move || {
                // The device length is fixed for the duration of a
                // recovery scan (recovery appends only after analysis).
                let limit = log.disk.len();
                let mut off = from;
                while off < limit && !flag.load(Ordering::Relaxed) {
                    let mut chunk = vec![0u8; SCAN_CHUNK];
                    let n = match log.disk.read(off, &mut chunk) {
                        Ok(n) => n,
                        Err(_) => break,
                    };
                    if n == 0 {
                        break;
                    }
                    chunk.truncate(n);
                    log.model.charge_read(128);
                    log.stats.on_prefetch_chunk();
                    log.stats.on_scan_chunk();
                    if tx.send((off, chunk)).is_err() {
                        break; // decode stage gone: scan ended early
                    }
                    off += n as u64;
                }
            })?;
        Ok(Prefetcher {
            rx: Some(rx),
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Dropping the receiver unblocks a sender stalled on a full
        // pipeline; then the thread observes the flag or the send error.
        self.rx.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Low-level frame walker over the durable portion of a disk.
///
/// Reads through a 64 KB ([`SCAN_CHUNK`]) read-ahead buffer so a
/// sequential scan costs one device read per chunk rather than three
/// small reads (padding probe, header, payload) per record.
pub(crate) struct RawScanner<'a> {
    disk: Arc<dyn Disk>,
    offset: u64,
    limit: u64,
    charge: Option<DiskModel>,
    charged_until: u64,
    stats: Option<&'a LogStats>,
    /// `Some`: chunks arrive from the prefetch thread instead of direct
    /// device reads, and the model cost is charged there.
    prefetch: Option<Prefetcher>,
    /// Read-ahead buffer holding `buf` bytes of the device starting at
    /// absolute offset `buf_start`.
    buf: Vec<u8>,
    buf_start: u64,
}

impl<'a> RawScanner<'a> {
    pub(crate) fn new(
        disk: Arc<dyn Disk>,
        from: u64,
        model: Option<&DiskModel>,
        stats: Option<&'a LogStats>,
    ) -> RawScanner<'a> {
        let limit = disk.len();
        RawScanner {
            disk,
            offset: from,
            limit,
            charge: model.cloned(),
            charged_until: from,
            stats,
            prefetch: None,
            buf: Vec::new(),
            buf_start: from,
        }
    }

    fn with_prefetch(
        disk: Arc<dyn Disk>,
        from: u64,
        stats: Option<&'a LogStats>,
        prefetch: Prefetcher,
    ) -> RawScanner<'a> {
        let limit = disk.len();
        RawScanner {
            disk,
            offset: from,
            limit,
            // The prefetch thread charges the model; charging here too
            // would double-bill the scan.
            charge: None,
            charged_until: from,
            stats,
            prefetch: Some(prefetch),
            buf: Vec::new(),
            buf_start: from,
        }
    }

    /// Offset the scan has reached (the append point when exhausted).
    pub(crate) fn offset(&self) -> u64 {
        self.offset
    }

    /// Walk frames until the stream ends; return the offset where the
    /// next append should go.
    fn find_end(mut self) -> Result<u64, MspError> {
        while self.step()?.is_some() {}
        Ok(self.offset)
    }

    /// Copy `out.len()` bytes starting at absolute offset `off` out of
    /// the read-ahead buffer, refilling it one [`SCAN_CHUNK`] device
    /// read at a time. Returns the number of bytes actually available
    /// (short at end of device).
    fn read_buffered(&mut self, mut off: u64, out: &mut [u8]) -> Result<usize, MspError> {
        let mut copied = 0;
        while copied < out.len() {
            let buf_end = self.buf_start + self.buf.len() as u64;
            if off < self.buf_start || off >= buf_end {
                if let Some(pf) = &self.prefetch {
                    // Pipelined refill: pull chunks until one covers
                    // `off`. The scan only moves forward and the chunks
                    // arrive in device order, so behind-us chunks can be
                    // discarded and a closed channel means end of device.
                    let Some(rx) = pf.rx.as_ref() else { break };
                    let mut refilled = false;
                    while let Ok((start, data)) = rx.recv() {
                        if off < start + data.len() as u64 {
                            self.buf = data;
                            self.buf_start = start;
                            refilled = true;
                            break;
                        }
                    }
                    if !refilled {
                        break;
                    }
                } else {
                    self.buf.resize(SCAN_CHUNK, 0);
                    let n = self.disk.read(off, &mut self.buf).map_err(MspError::Io)?;
                    self.buf.truncate(n);
                    self.buf_start = off;
                    if n == 0 {
                        break;
                    }
                    if let Some(s) = self.stats {
                        s.on_readahead_chunk();
                    }
                }
            }
            let at = (off - self.buf_start) as usize;
            let take = (self.buf.len() - at).min(out.len() - copied);
            out[copied..copied + take].copy_from_slice(&self.buf[at..at + take]);
            copied += take;
            off += take as u64;
        }
        Ok(copied)
    }

    /// Yield the next `(lsn, payload)` pair, skipping sector padding;
    /// `None` at the intact end of the stream (including a torn tail,
    /// which is indistinguishable from "the crash hit mid-flush" and is
    /// therefore treated as the end).
    pub(crate) fn step(&mut self) -> Result<Option<(u64, Vec<u8>)>, MspError> {
        loop {
            if self.offset >= self.limit {
                return Ok(None);
            }
            // Charge sequential-read cost lazily, 64 KB at a time.
            if let Some(model) = &self.charge {
                while self.offset >= self.charged_until {
                    model.charge_read(128);
                    if let Some(s) = self.stats {
                        s.on_scan_chunk();
                    }
                    self.charged_until += SCAN_CHUNK as u64;
                }
            }
            let mut first = [0u8; 1];
            if self.read_buffered(self.offset, &mut first)? == 0 {
                return Ok(None);
            }
            if first[0] == 0 {
                // Sector padding: skip to the next boundary.
                let next = (self.offset / SECTOR_SIZE as u64 + 1) * SECTOR_SIZE as u64;
                self.offset = next;
                continue;
            }
            let lsn = self.offset;
            return match frame::read(lsn, |off, out| self.read_buffered(off, out)) {
                Ok(payload) => {
                    self.offset += (FRAME_HEADER + payload.len()) as u64;
                    Ok(Some((lsn, payload)))
                }
                // A torn tail reads as corruption at the very end of the
                // stream; the scan simply ends there.
                Err(MspError::LogCorrupt { .. }) => Ok(None),
                Err(e) => Err(e),
            };
        }
    }
}

/// Iterator over `(Lsn, LogRecord)` pairs of the durable log.
pub struct LogScanner<'a> {
    raw: RawScanner<'a>,
}

impl LogScanner<'_> {
    /// Offset the scan has reached (the append point when exhausted).
    pub fn position(&self) -> Lsn {
        Lsn(self.raw.offset)
    }
}

impl Iterator for LogScanner<'_> {
    type Item = Result<(Lsn, LogRecord), MspError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.raw.step() {
            Ok(Some((lsn, payload))) => match LogRecord::from_bytes(&payload) {
                Ok(rec) => Some(Ok((Lsn(lsn), rec))),
                Err(e) => Some(Err(MspError::LogCorrupt {
                    offset: lsn,
                    reason: e.to_string(),
                })),
            },
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::frame::FRAME_MAGIC;
    use msp_types::{RequestSeq, SessionId};

    fn rec(session: u64, seq: u64) -> LogRecord {
        LogRecord::RequestReceive {
            session: SessionId(session),
            seq: RequestSeq(seq),
            method: "m".into(),
            payload: vec![7; 50],
            sender_dv: None,
        }
    }

    fn open_mem() -> (MemDisk, Arc<PhysicalLog>) {
        let disk = MemDisk::new();
        let log = PhysicalLog::open(
            Arc::new(disk.clone()),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        )
        .unwrap();
        (disk, log)
    }

    fn open_mem_on(disk: &MemDisk) -> Arc<PhysicalLog> {
        PhysicalLog::open(
            Arc::new(disk.clone()),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        )
        .unwrap()
    }

    fn open_unpositioned_mem(disk: &MemDisk) -> Arc<PhysicalLog> {
        PhysicalLog::open_unpositioned(
            Arc::new(disk.clone()),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        )
        .unwrap()
    }

    #[test]
    fn append_assigns_monotone_lsns() {
        let (_, log) = open_mem();
        let a = log.append(&rec(1, 0));
        let b = log.append(&rec(1, 1));
        assert_eq!(a, Lsn(DATA_START));
        assert!(b > a);
        log.close();
    }

    #[test]
    fn flush_makes_records_durable_and_padded() {
        let (disk, log) = open_mem();
        let a = log.append(&rec(1, 0));
        log.flush_to(a).unwrap();
        assert!(log.durable_lsn().0 > a.0);
        // Durable extent is sector aligned.
        assert_eq!(disk.len() % SECTOR_SIZE as u64, 0);
        let stats = log.stats();
        assert_eq!(stats.flushes, 1);
        assert!(
            stats.padded_bytes > 0,
            "a 50-byte record must leave padding"
        );
        log.close();
    }

    #[test]
    fn read_record_from_tail_and_disk() {
        let (_, log) = open_mem();
        let a = log.append(&rec(1, 0));
        // Unflushed: served from the tail.
        assert_eq!(log.read_record(a).unwrap(), rec(1, 0));
        log.flush_to(a).unwrap();
        let b = log.append(&rec(1, 1));
        // `a` now on disk, `b` still in the tail.
        assert_eq!(log.read_record(a).unwrap(), rec(1, 0));
        assert_eq!(log.read_record(b).unwrap(), rec(1, 1));
        log.close();
    }

    #[test]
    fn crash_loses_tail_close_keeps_it() {
        let disk = MemDisk::new();
        let lsns: Vec<Lsn>;
        {
            let log = PhysicalLog::open(
                Arc::new(disk.clone()),
                DiskModel::zero(),
                FlushPolicy::immediate(),
            )
            .unwrap();
            let a = log.append(&rec(1, 0));
            log.flush_to(a).unwrap();
            let b = log.append(&rec(1, 1)); // never flushed
            lsns = vec![a, b];
            log.crash();
        }
        let log = PhysicalLog::open(
            Arc::new(disk.clone()),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        )
        .unwrap();
        assert_eq!(log.read_record(lsns[0]).unwrap(), rec(1, 0));
        assert!(
            log.read_record(lsns[1]).is_err(),
            "unflushed record must be lost"
        );
        log.close();
    }

    #[test]
    fn reopen_appends_after_last_intact_record() {
        let disk = MemDisk::new();
        {
            let log = PhysicalLog::open(
                Arc::new(disk.clone()),
                DiskModel::zero(),
                FlushPolicy::immediate(),
            )
            .unwrap();
            let a = log.append(&rec(1, 0));
            log.flush_to(a).unwrap();
            log.crash();
        }
        let log = PhysicalLog::open(
            Arc::new(disk.clone()),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        )
        .unwrap();
        let c = log.append(&rec(2, 0));
        log.flush_to(c).unwrap();
        // Scan sees both records in order.
        let recs: Vec<_> = log
            .scan_from(Lsn(DATA_START))
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(recs, vec![rec(1, 0), rec(2, 0)]);
        log.close();
    }

    #[test]
    fn scan_skips_padding_between_flushes() {
        let (_, log) = open_mem();
        for i in 0..5 {
            let l = log.append(&rec(1, i));
            log.flush_to(l).unwrap(); // one flush per record → padding each time
        }
        let got: Vec<_> = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), 5);
        for (i, (lsn, r)) in got.iter().enumerate() {
            assert_eq!(*r, rec(1, i as u64));
            if i > 0 {
                assert_eq!(
                    lsn.0 % SECTOR_SIZE as u64,
                    0,
                    "post-flush records start on boundaries"
                );
            }
        }
        log.close();
    }

    #[test]
    fn torn_tail_stops_scan_cleanly() {
        let disk = MemDisk::new();
        {
            let log = PhysicalLog::open(
                Arc::new(disk.clone()),
                DiskModel::zero(),
                FlushPolicy::immediate(),
            )
            .unwrap();
            let a = log.append(&rec(1, 0));
            log.flush_to(a).unwrap();
            log.close();
        }
        // Simulate a torn write: a frame whose payload was cut short.
        let end = disk.len();
        disk.write(end, &[FRAME_MAGIC, 100, 0, 0, 0, 1, 2, 3, 4, 42])
            .unwrap();
        let log = PhysicalLog::open(
            Arc::new(disk.clone()),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        )
        .unwrap();
        let recs: Vec<_> = log
            .scan_from(Lsn(DATA_START))
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(recs, vec![rec(1, 0)]);
        // And new appends overwrite the garbage.
        let b = log.append(&rec(2, 2));
        assert_eq!(b.0, end, "append resumes at the torn frame");
        log.close();
    }

    #[test]
    fn group_commit_coalesces_concurrent_flushes() {
        let (_, log) = open_mem();
        let mut lsns = Vec::new();
        for i in 0..32 {
            lsns.push(log.append(&rec(1, i)));
        }
        std::thread::scope(|s| {
            for &lsn in &lsns {
                let log = &log;
                s.spawn(move || log.flush_to(lsn).unwrap());
            }
        });
        let stats = log.stats();
        assert!(
            stats.flushes < 32,
            "32 concurrent flush_to calls must coalesce, got {} flushes",
            stats.flushes
        );
        log.close();
    }

    #[test]
    fn flush_to_already_durable_is_noop() {
        let (_, log) = open_mem();
        let a = log.append(&rec(1, 0));
        log.flush_to(a).unwrap();
        let before = log.stats().flushes;
        log.flush_to(a).unwrap();
        assert_eq!(log.stats().flushes, before);
        log.close();
    }

    #[test]
    fn batch_flushing_merges_requests() {
        let disk = MemDisk::new();
        // Use a tiny real timeout with paper-scale model disabled: scale 0
        // makes the sleep zero, so emulate with an unscaled model of 1.0
        // but a microscopic timeout to keep the test fast.
        let log = PhysicalLog::open(
            Arc::new(disk),
            DiskModel::zero().with_scale(1.0),
            FlushPolicy::batched(Duration::from_millis(2)),
        )
        .unwrap();
        let mut lsns = Vec::new();
        for i in 0..8 {
            lsns.push(log.append(&rec(1, i)));
        }
        std::thread::scope(|s| {
            for &lsn in &lsns {
                let log = &log;
                s.spawn(move || log.flush_to(lsn).unwrap());
            }
        });
        assert!(
            log.stats().flushes <= 3,
            "batching should merge most requests"
        );
        log.close();
    }

    #[test]
    fn flush_after_shutdown_errors() {
        let (_, log) = open_mem();
        let a = log.append(&rec(1, 0));
        log.crash();
        assert!(matches!(log.flush_to(a), Err(MspError::Shutdown)));
    }

    #[test]
    fn end_lsn_tracks_appends() {
        let (_, log) = open_mem();
        let e0 = log.end_lsn();
        assert_eq!(e0, Lsn(DATA_START));
        log.append(&rec(1, 0));
        assert!(log.end_lsn() > e0);
        log.close();
    }

    #[test]
    fn read_record_sized_reports_framed_size() {
        let (_, log) = open_mem();
        let r = rec(1, 0);
        let a = log.append(&r);
        let expected = (FRAME_HEADER + r.to_bytes().len()) as u64;
        // From the volatile tail...
        let (got, framed) = log.read_record_sized(a).unwrap();
        assert_eq!(got, r);
        assert_eq!(framed, expected);
        // ...and from the device.
        log.flush_to(a).unwrap();
        let (got, framed) = log.read_record_sized(a).unwrap();
        assert_eq!(got, r);
        assert_eq!(framed, expected);
        log.close();
    }

    #[test]
    fn scan_reads_one_chunk_not_three_reads_per_record() {
        let (disk, log) = open_mem();
        let n = 50u64;
        for i in 0..n {
            let l = log.append(&rec(1, i));
            log.flush_to(l).unwrap();
        }
        let reads_before = disk.read_count();
        let got: Vec<_> = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
        assert_eq!(got.len(), n as usize);
        let scan_reads = disk.read_count() - reads_before;
        // 50 one-sector records span a couple of 64 KB chunks at most;
        // the old scanner issued 3 device reads per record (150+).
        assert!(
            scan_reads < n,
            "read-ahead should need far fewer device reads than records, got {scan_reads}"
        );
        assert!(log.stats().readahead_chunks > 0);
        assert_eq!(log.stats().readahead_chunks, scan_reads);
        log.close();
    }

    fn big_rec(session: u64, seq: u64, payload_len: usize) -> LogRecord {
        LogRecord::RequestReceive {
            session: SessionId(session),
            seq: RequestSeq(seq),
            method: "m".into(),
            payload: vec![0xB7; payload_len],
            sender_dv: None,
        }
    }

    #[test]
    fn reserved_append_counts_reservations() {
        let (_, log) = open_mem();
        let a = log.append(&rec(1, 0));
        let (b, framed) = log.append_sized(&rec(1, 1));
        assert_eq!(framed, (FRAME_HEADER + rec(1, 1).to_bytes().len()) as u64);
        assert_eq!(b.0, a.0 + framed);
        assert_eq!(log.stats().append_reservations, 2);
        log.close();
    }

    #[test]
    fn appends_cross_segment_boundaries_cleanly() {
        let (_, log) = open_mem();
        // ~2.5 MB of 64 KB records crosses two segment boundaries; the
        // no-span placement rule inserts zero gaps the scanner must skip.
        let n = 40u64;
        let mut lsns = Vec::new();
        for i in 0..n {
            lsns.push(log.append(&big_rec(1, i, 64 * 1024)));
        }
        assert!(log.end_lsn().0 > 2 * crate::tail::SEGMENT_SIZE as u64);
        log.flush_all().unwrap();
        for (i, &lsn) in lsns.iter().enumerate() {
            assert_eq!(
                log.read_record(lsn).unwrap(),
                big_rec(1, i as u64, 64 * 1024)
            );
        }
        let got: Vec<_> = log
            .scan_from(Lsn(DATA_START))
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(got.len(), n as usize);
        log.close();
    }

    #[test]
    fn oversized_frame_spans_segments() {
        let (_, log) = open_mem();
        // A payload bigger than one segment must span, exercise the
        // span-floor clamp, and still read back intact.
        let r = big_rec(
            1,
            0,
            crate::tail::SEGMENT_SIZE + crate::tail::SEGMENT_SIZE / 2,
        );
        let a = log.append(&r);
        log.flush_to(a).unwrap();
        assert_eq!(log.read_record(a).unwrap(), r);
        let b = log.append(&rec(1, 1));
        log.flush_to(b).unwrap();
        assert_eq!(log.read_record(b).unwrap(), rec(1, 1));
        log.close();
    }

    /// A record whose encoding is exactly `encoded_len` bytes.
    fn rec_of_encoded_len(encoded_len: usize) -> LogRecord {
        let overhead = big_rec(1, 0, 0).to_bytes().len();
        let r = big_rec(1, 0, encoded_len - overhead);
        assert_eq!(r.to_bytes().len(), encoded_len);
        r
    }

    #[test]
    fn largest_record_round_trips() {
        let (_, log) = open_mem();
        let r = rec_of_encoded_len(MAX_RECORD as usize);
        let (a, framed) = log.append_sized(&r);
        assert_eq!(framed as usize, crate::tail::MAX_RESERVED_FRAME);
        log.flush_to(a).unwrap();
        assert_eq!(log.read_record(a).unwrap(), r);
        let got: Vec<_> = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![(a, r)]);
        log.close();
    }

    #[test]
    #[should_panic(expected = "exceeds the log's record limit of")]
    fn one_byte_over_the_record_limit_is_refused() {
        let (_, log) = open_mem();
        log.append(&rec_of_encoded_len(MAX_RECORD as usize + 1));
    }

    #[test]
    fn concurrent_flushers_count_group_commit_batches() {
        let (_, log) = open_mem();
        let mut lsns = Vec::new();
        for i in 0..64 {
            lsns.push(log.append(&rec(1, i)));
        }
        std::thread::scope(|s| {
            for &lsn in &lsns {
                let log = &log;
                s.spawn(move || log.flush_to(lsn).unwrap());
            }
        });
        let stats = log.stats();
        assert!(
            stats.flushes < 64,
            "concurrent flush_to calls must coalesce, got {}",
            stats.flushes
        );
        log.close();
    }

    #[test]
    fn pipelined_scan_matches_serial_scan() {
        let (_, log) = open_mem();
        let n = 300u64;
        for i in 0..n {
            let l = log.append(&big_rec(1, i, 1500));
            if i % 7 == 0 {
                log.flush_to(l).unwrap(); // padding the scanner must skip
            }
        }
        log.flush_all().unwrap();
        let serial: Vec<_> = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
        let piped: Vec<_> = log
            .scan_from_pipelined(Lsn(DATA_START))
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(serial, piped);
        assert!(
            log.stats().prefetch_chunks > 0,
            "pipelined scan must stream chunks through the prefetch stage"
        );
        log.close();
    }

    #[test]
    fn pipelined_scan_dropped_early_stops_the_prefetcher() {
        let (_, log) = open_mem();
        for i in 0..200u64 {
            log.append(&big_rec(1, i, 4096));
        }
        log.flush_all().unwrap();
        let mut scan = log.scan_from_pipelined(Lsn(DATA_START));
        let first = scan.next().unwrap().unwrap();
        assert_eq!(first.1, big_rec(1, 0, 4096));
        drop(scan); // must join the prefetch thread without hanging
        log.close();
    }

    #[test]
    fn async_ticket_settles_on_flush() {
        let (_, log) = open_mem();
        let a = log.append(&rec(1, 0));
        let t = log.flush_to_async(a);
        t.wait().unwrap();
        assert!(log.durable_lsn().0 > a.0);
        let s = log.stats();
        assert!(s.flush_tickets_issued >= 1);
        assert!(s.flush_tickets_completed >= 1);
        log.close();
    }

    #[test]
    fn async_ticket_already_durable_settles_immediately() {
        let (_, log) = open_mem();
        let a = log.append(&rec(1, 0));
        log.flush_to(a).unwrap();
        let t = log.flush_to_async(a);
        assert!(matches!(t.poll(), Some(Ok(()))));
        log.close();
    }

    #[test]
    fn on_settle_runs_inline_when_already_settled() {
        let (_, log) = open_mem();
        let a = log.append(&rec(1, 0));
        let t = log.flush_to_async(a);
        t.wait().unwrap();
        let (tx, rx) = crossbeam_channel::bounded(1);
        t.on_settle(move |ok| {
            let _ = tx.send(ok);
        });
        assert_eq!(rx.try_recv(), Ok(true));
        log.close();
    }

    #[test]
    fn crash_fails_pending_tickets_and_fires_waker() {
        // A long batch timeout keeps the flusher asleep so the crash
        // wins the race against completion.
        let log = PhysicalLog::open(
            Arc::new(MemDisk::new()),
            DiskModel::zero().with_scale(1.0),
            FlushPolicy::batched(Duration::from_millis(100)),
        )
        .unwrap();
        let a = log.append(&rec(1, 0));
        let t = log.flush_to_async(a);
        let (tx, rx) = crossbeam_channel::bounded(1);
        t.on_settle(move |ok| {
            let _ = tx.send(ok);
        });
        log.crash();
        assert!(matches!(t.wait(), Err(MspError::Shutdown)));
        assert!(!rx.recv().unwrap());
        assert_eq!(log.stats().flush_tickets_completed, 0);
    }

    #[test]
    fn ticket_issued_after_shutdown_fails() {
        let (_, log) = open_mem();
        let a = log.append(&rec(1, 0));
        log.crash();
        let t = log.flush_to_async(a);
        assert!(matches!(t.wait(), Err(MspError::Shutdown)));
    }

    #[test]
    fn many_async_tickets_coalesce_into_few_flushes() {
        let (_, log) = open_mem();
        let tickets: Vec<FlushTicket> = (0..32)
            .map(|i| {
                let l = log.append(&rec(1, i));
                log.flush_to_async(l)
            })
            .collect();
        for t in &tickets {
            t.wait().unwrap();
        }
        let s = log.stats();
        assert_eq!(s.flush_tickets_completed, 32);
        assert!(
            s.flushes < 32,
            "tickets must ride the group-commit batches, got {} flushes",
            s.flushes
        );
        log.close();
    }

    #[test]
    fn truncate_reclaims_space_and_scans_survive() {
        let (disk, log) = open_mem();
        let mut lsns = Vec::new();
        for i in 0..20u64 {
            let l = log.append(&rec(1, i));
            log.flush_to(l).unwrap(); // padding → each record on a boundary
            lsns.push(l);
        }
        let floor = lsns[10];
        let reclaimed = log.truncate_below(floor).unwrap();
        assert_eq!(reclaimed, floor.0 - DATA_START);
        assert_eq!(log.floor(), floor);
        // Device: zeros below the floor, footprint shrank, len unchanged.
        let mut below = vec![9u8; (floor.0 - DATA_START) as usize];
        disk.read(DATA_START, &mut below).unwrap();
        assert!(below.iter().all(|&b| b == 0));
        assert_eq!(disk.footprint(), disk.len() - reclaimed);
        // Scans — even ones asking for the file head — start at the floor
        // and see exactly the surviving records.
        let got: Vec<_> = log
            .scan_from(Lsn(DATA_START))
            .map(|r| r.unwrap().1)
            .collect();
        let want: Vec<_> = (10..20).map(|i| rec(1, i)).collect();
        assert_eq!(got, want);
        let piped: Vec<_> = log
            .scan_from_pipelined(Lsn(DATA_START))
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(piped, want);
        // Records above the floor still read individually.
        assert_eq!(log.read_record(lsns[15]).unwrap(), rec(1, 15));
        let s = log.stats();
        assert_eq!(s.log_truncations, 1);
        assert_eq!(s.bytes_reclaimed, reclaimed);
        assert_eq!(s.reclaim_floor_lsn, floor.0);
        log.close();
    }

    #[test]
    fn truncate_is_monotone_and_clamped_to_durable() {
        let (_, log) = open_mem();
        let a = log.append(&rec(1, 0));
        log.flush_to(a).unwrap();
        let durable = log.durable_lsn().0;
        let b = log.append(&rec(1, 1)); // appended, NOT durable
                                        // A floor beyond the durable horizon clamps to it.
        let reclaimed = log.truncate_below(Lsn(b.0 + 10_000)).unwrap();
        assert_eq!(log.floor().0, durable);
        assert_eq!(reclaimed, durable - DATA_START);
        // Moving the floor backwards is a no-op.
        assert_eq!(log.truncate_below(Lsn(DATA_START)).unwrap(), 0);
        assert_eq!(log.floor().0, durable);
        log.close();
    }

    #[test]
    fn reopen_after_truncation_resumes_at_floor() {
        let disk = MemDisk::new();
        let floor;
        let survivor;
        {
            let log = PhysicalLog::open(
                Arc::new(disk.clone()),
                DiskModel::zero(),
                FlushPolicy::immediate(),
            )
            .unwrap();
            for i in 0..8u64 {
                let l = log.append(&rec(1, i));
                log.flush_to(l).unwrap();
            }
            survivor = log.append(&rec(1, 8));
            log.flush_to(survivor).unwrap();
            floor = survivor;
            log.truncate_below(floor).unwrap();
            log.close();
        }
        let log = PhysicalLog::open(
            Arc::new(disk.clone()),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        )
        .unwrap();
        // The persisted floor came back and the probe found the real end.
        assert_eq!(log.floor(), floor);
        let got: Vec<_> = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![(survivor, rec(1, 8))]);
        // Appends continue after the surviving record, not at the floor.
        let next = log.append(&rec(2, 0));
        assert!(next.0 > survivor.0);
        log.flush_to(next).unwrap();
        log.close();
    }

    #[test]
    fn crash_between_floor_persist_and_reclaim_recovers() {
        let disk = MemDisk::new();
        let floor;
        let tail_rec;
        {
            let log = PhysicalLog::open(
                Arc::new(disk.clone()),
                DiskModel::zero(),
                FlushPolicy::immediate(),
            )
            .unwrap();
            for i in 0..6u64 {
                let l = log.append(&rec(1, i));
                log.flush_to(l).unwrap();
            }
            tail_rec = log.append(&rec(1, 6));
            log.flush_to(tail_rec).unwrap();
            floor = tail_rec;
            // Arm the half-truncated crash: floor persisted, no reclaim.
            log.install_fault_plan(FaultPlan::armed(CrashPoint::TruncateStart, 1));
            assert!(matches!(log.truncate_below(floor), Err(MspError::Shutdown)));
        }
        // Stale bytes sit below the persisted floor; reopening re-issues
        // the reclaim and scans start at the floor.
        let log = PhysicalLog::open(
            Arc::new(disk.clone()),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        )
        .unwrap();
        assert_eq!(log.floor(), floor);
        let mut below = vec![9u8; (floor.0 - DATA_START) as usize];
        disk.read(DATA_START, &mut below).unwrap();
        assert!(
            below.iter().all(|&b| b == 0),
            "open must re-issue the interrupted reclaim"
        );
        let got: Vec<_> = log
            .scan_from(Lsn(DATA_START))
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(got, vec![rec(1, 6)]);
        log.close();
    }

    #[test]
    fn mid_sector_floor_scans_exactly_from_floor() {
        // Pack several records into each sector (no per-record flush) so
        // the floor lands mid-sector; the zeros below it would fool the
        // padding-skip heuristic if the scan started at the sector head.
        let (_, log) = open_mem();
        let mut lsns = Vec::new();
        for i in 0..12u64 {
            lsns.push(log.append(&rec(1, i)));
        }
        log.flush_all().unwrap();
        let floor = lsns[5];
        assert_ne!(floor.0 % SECTOR_SIZE as u64, 0, "floor must be mid-sector");
        log.truncate_below(floor).unwrap();
        let got: Vec<_> = log
            .scan_from(Lsn(DATA_START))
            .map(|r| r.unwrap().1)
            .collect();
        let want: Vec<_> = (5..12).map(|i| rec(1, i)).collect();
        assert_eq!(got, want);
        log.close();
    }

    #[test]
    fn oldest_pending_flush_tracks_ticket_registry() {
        // Long batch timeout parks the flusher so tickets stay pending.
        let log = PhysicalLog::open(
            Arc::new(MemDisk::new()),
            DiskModel::zero().with_scale(1.0),
            FlushPolicy::batched(Duration::from_millis(200)),
        )
        .unwrap();
        assert_eq!(log.oldest_pending_flush(), None);
        let a = log.append(&rec(1, 0));
        let b = log.append(&rec(1, 1));
        let _tb = log.flush_to_async(b);
        let _ta = log.flush_to_async(a);
        assert_eq!(log.oldest_pending_flush(), Some(a));
        log.crash();
    }

    #[test]
    #[should_panic(expected = "resume_at")]
    fn resume_at_after_an_append_panics() {
        let (_, log) = open_mem();
        log.append(&rec(1, 0));
        log.resume_at(Lsn(DATA_START));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "append before resume_at")]
    fn append_before_resume_at_panics_in_debug() {
        let log = open_unpositioned_mem(&MemDisk::new());
        log.append(&rec(1, 0));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    #[should_panic(expected = "resume_at after the parked tail moved")]
    fn resume_at_after_an_append_to_the_parked_tail_panics() {
        let log = open_unpositioned_mem(&MemDisk::new());
        log.append(&rec(1, 0));
        log.resume_at(Lsn(DATA_START));
    }

    #[test]
    fn blank_means_no_floor_and_no_frame_at_data_start() {
        // A device never written, or holding only a torn first frame, is
        // blank.
        let disk = MemDisk::new();
        assert!(open_unpositioned_mem(&disk).is_blank().unwrap());
        disk.write(DATA_START, &[FRAME_MAGIC, 100, 0, 0, 0, 1, 2, 3, 4, 42])
            .unwrap();
        assert!(open_unpositioned_mem(&disk).is_blank().unwrap());
        // One intact record: not blank.
        let log = open_mem_on(&disk);
        let a = log.append(&rec(1, 0));
        log.flush_to(a).unwrap();
        log.close();
        assert!(!open_unpositioned_mem(&disk).is_blank().unwrap());
        // Truncated up to the durable end, no frame survives above the
        // floor — but the persisted floor says there was a log.
        let log = open_mem_on(&disk);
        log.truncate_below(log.durable_lsn()).unwrap();
        log.close();
        let log = open_unpositioned_mem(&disk);
        assert!(log.scan_from(Lsn(DATA_START)).next().is_none());
        assert!(!log.is_blank().unwrap());
    }

    #[test]
    fn scanner_position_reports_append_point() {
        let (_, log) = open_mem();
        let a = log.append(&rec(1, 0));
        log.flush_to(a).unwrap();
        let mut scan = log.scan_from(Lsn(DATA_START));
        while scan.next().is_some() {}
        assert_eq!(scan.position().0 % SECTOR_SIZE as u64, 0);
        log.close();
    }
}
