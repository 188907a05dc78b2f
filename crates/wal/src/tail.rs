//! The reservation-based append pipeline: the log's volatile tail.
//!
//! Funnelling every worker thread through one mutex-guarded tail buffer,
//! copying the encoded frame while holding the lock, collapses append
//! throughput as the thread pool grows. This module decouples the three
//! phases the way multicore logging papers prescribe
//! (Wu et al., *Fast Failure Recovery for Main-Memory DBMSs on
//! Multicores*; Yao et al., *Adaptive Logging*):
//!
//! 1. **LSN reservation** — a lock-free CAS bump on one atomic offset
//!    hands the appender a byte range; the range's start *is* the LSN.
//! 2. **Out-of-lock filling** — the frame is copied into a pre-sized
//!    staging segment owned by no lock; concurrent appenders write
//!    disjoint ranges of the same segment buffers.
//! 3. **Completion watermarks** — every segment counts the bytes copied
//!    into it; the flusher ships a prefix only when the counters prove it
//!    contains no holes, so a crash can only ever lose a *suffix*.
//!
//! # Staging geometry
//!
//! The log address space is cut into fixed [`SEGMENT_SIZE`] windows and
//! staged in a ring of [`SEGMENT_RING`] reusable buffers. Slot `k % RING`
//! stages segment `k`; the flusher re-stages a slot to `k + RING` once
//! segment `k` is entirely durable. An appender that runs ahead of the
//! ring waits for the flusher — bounding the volatile tail to
//! `SEGMENT_RING × SEGMENT_SIZE` bytes. The ring's buffers come from a
//! process-wide recycling slab (see `SLAB`) rather than being owned per
//! log, so processes that open many logs share one bounded pool of
//! staging memory.
//!
//! # Frame placement rules
//!
//! * A frame that fits in the current segment's remainder is placed
//!   there.
//! * A frame that does not fit (but is at most one segment long) skips to
//!   the next segment boundary; the skipped *gap* is zero-filled, which
//!   the recovery scanner already treats as inter-record padding.
//! * A frame longer than one segment spans segments. While it is being
//!   copied its start offset is registered as a **span floor**: the
//!   durable point is never published inside a spanning frame, so the
//!   crash-suffix invariant ("the log loses only a suffix of whole
//!   frames") holds even for oversized records. Frames longer than
//!   [`MAX_RESERVED_FRAME`] = `(SEGMENT_RING - 1) × SEGMENT_SIZE` cannot
//!   be staged; that is the log's record-size limit, which
//!   `PhysicalLog::append_sized` enforces before a frame gets here and
//!   every reader applies to the lengths it decodes.
//!
//! # Memory-safety argument for the `UnsafeCell` buffers
//!
//! Every byte of a staged segment is written by **at most one** thread:
//! the reservation counter hands out disjoint ranges, a gap is written
//! only by the appender that created it, and flush padding is accounted
//! by the flusher without touching the buffer. Readers (the flusher's
//! `collect`, and tail reads) only read ranges whose `filled` accounting
//! proves the writers are done, with the `Release`/`Acquire` pair on the
//! per-segment counter publishing the copied bytes. Slot reuse is guarded
//! by the staged-segment index: readers re-validate it after copying and
//! retry from the durable store if the slot moved on.

use std::cell::UnsafeCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex as StdMutex;
use std::time::Duration;

use crossbeam_channel::Sender;
use parking_lot::{Condvar, Mutex};

use crate::log::{DATA_START, SECTOR_SIZE};

/// Size of one staging segment. A multiple of [`SECTOR_SIZE`], so sector
/// boundaries never straddle segments and flush padding stays inside one
/// slot.
pub const SEGMENT_SIZE: usize = 1 << 20;

/// Number of staging slots; the volatile tail is bounded by
/// `SEGMENT_RING × SEGMENT_SIZE` bytes.
pub const SEGMENT_RING: usize = 8;

/// Largest frame the reservation pipeline can stage (see module docs);
/// the log's record-size limit is this less the frame header.
pub const MAX_RESERVED_FRAME: usize = (SEGMENT_RING - 1) * SEGMENT_SIZE;

const SEG: u64 = SEGMENT_SIZE as u64;

/// Safety-net wait quantum: every blocking wait in this module is timed,
/// so a (theoretically) missed notification degrades to one quantum of
/// latency instead of a hang.
const WAIT_QUANTUM: Duration = Duration::from_millis(1);

/// Upper bound on pooled staging buffers (`SLAB_CAP × SEGMENT_SIZE`
/// bytes of standby memory process-wide); returns beyond it simply free.
const SLAB_CAP: usize = 4 * SEGMENT_RING;

/// Process-wide recycling pool of segment staging buffers. Every
/// [`ReservedTail`] draws its `SEGMENT_RING` buffers from this slab and
/// returns them on drop, so worlds that build many logs (the torture rig
/// re-opens five or more per run) stop paying `SEGMENT_RING × 1 MB` of
/// fresh zeroed pages per log. Recycled buffers keep their stale bytes:
/// that is safe because every readable range is either explicitly
/// written by an appender (frames), explicitly zero-filled (gaps), or
/// never read back from the buffer at all (flush padding goes straight
/// into the device write).
static SLAB: StdMutex<Vec<Box<[u8]>>> = StdMutex::new(Vec::new());

/// Buffers allocated fresh because the slab was empty (observability /
/// tests).
static SLAB_FRESH: AtomicU64 = AtomicU64::new(0);

fn slab_take() -> Box<[u8]> {
    if let Some(buf) = SLAB.lock().unwrap_or_else(|e| e.into_inner()).pop() {
        return buf;
    }
    SLAB_FRESH.fetch_add(1, Ordering::Relaxed);
    vec![0u8; SEGMENT_SIZE].into_boxed_slice()
}

fn slab_put(buf: Box<[u8]>) {
    if buf.len() != SEGMENT_SIZE {
        return; // placeholder from a mid-drop tail, not a staging buffer
    }
    let mut pool = SLAB.lock().unwrap_or_else(|e| e.into_inner());
    if pool.len() < SLAB_CAP {
        pool.push(buf);
    }
}

/// Fresh-allocation counter, for tests asserting reuse.
#[cfg(test)]
fn slab_fresh_allocs() -> u64 {
    SLAB_FRESH.load(Ordering::Relaxed)
}

/// One reusable staging buffer of the segment ring.
struct SegmentSlot {
    /// Index of the segment this slot currently stages. Advanced by the
    /// flusher only, in `SEGMENT_RING` strides, with `Release` ordering
    /// after the `filled` reset.
    seg: AtomicU64,
    /// Bytes copied into the staged segment's live range so far. The
    /// segment is hole-free up to offset `o` when `filled` equals the
    /// number of bytes reserved below `o` within it.
    filled: AtomicU64,
    buf: UnsafeCell<Box<[u8]>>,
}

// SAFETY: disjoint-range discipline documented in the module header —
// the reservation counter is the single allocator of writable ranges,
// and all cross-thread reads are ordered through `filled` / `seg`.
unsafe impl Sync for SegmentSlot {}

/// Outcome of a placement decision for one frame.
struct Placement {
    /// LSN of the frame (start of its range).
    lsn: u64,
    /// Zero-filled gap emitted before the frame (to reach a segment
    /// boundary), as `(start, len)`.
    gap: Option<(u64, u64)>,
    /// Whether the frame crosses a segment boundary (span-floor handling
    /// required while copying).
    spans: bool,
}

/// The scalable tail: reservation counter, staging ring, completion
/// accounting and the waiter plumbing shared with the flusher.
pub(crate) struct ReservedTail {
    /// First byte of the volatile address space; everything below was
    /// already durable on disk. Set once more by [`resume_at`](Self::resume_at).
    open_base: AtomicU64,
    /// Parked at the device's high-water mark by the unpositioned open:
    /// appends are refused until `resume_at` positions the tail.
    parked: AtomicBool,
    /// Next free log offset — the atomic the whole pipeline pivots on.
    reserved: AtomicU64,
    /// Exclusive end of the durable prefix. Published only at frame
    /// boundaries (never inside a spanning frame).
    durable: AtomicU64,
    /// Highest flush target handed to the flusher (monotone); lets
    /// `flush_to` skip redundant wakeups.
    requested: AtomicU64,
    /// Crash in progress: the flusher must not ship the tail.
    discard: AtomicBool,
    /// Starts of spanning frames still being copied; the durable point is
    /// clamped below the smallest of them.
    span_floor: Mutex<BTreeSet<u64>>,
    /// Coordination point for all blocking waits (durability, segment
    /// completion, slot staging). The data lives in atomics; the mutex
    /// only brackets waits and notifications.
    gate: Mutex<()>,
    cv: Condvar,
    /// Number of threads currently parked on `cv` — lets the hot append
    /// path skip the notify syscall when nobody is listening.
    waiters: AtomicU32,
    slots: Box<[SegmentSlot]>,
}

impl ReservedTail {
    /// A tail parked at `hwm`, the device's high-water mark: every offset
    /// below it counts as durable, so reads of it go to the device, and
    /// nothing may be appended until [`resume_at`](Self::resume_at)
    /// moves the tail to the append point.
    pub(crate) fn parked_at(hwm: u64) -> ReservedTail {
        let hwm = hwm.max(DATA_START);
        let slots: Vec<SegmentSlot> = (0..SEGMENT_RING)
            .map(|_| SegmentSlot {
                seg: AtomicU64::new(0),
                filled: AtomicU64::new(0),
                buf: UnsafeCell::new(slab_take()),
            })
            .collect();
        let tail = ReservedTail {
            open_base: AtomicU64::new(hwm),
            parked: AtomicBool::new(true),
            reserved: AtomicU64::new(hwm),
            durable: AtomicU64::new(hwm),
            requested: AtomicU64::new(hwm),
            discard: AtomicBool::new(false),
            span_floor: Mutex::new(BTreeSet::new()),
            gate: Mutex::new(()),
            cv: Condvar::new(),
            waiters: AtomicU32::new(0),
            slots: slots.into_boxed_slice(),
        };
        tail.stage_ring(hwm);
        tail
    }

    /// The parked tail's one transition: move it, untouched, to `at`.
    /// Called before any appender or flush target can exist, so the
    /// stores need no coordination beyond the `Release` they carry.
    ///
    /// # Panics
    ///
    /// If the tail was already positioned, or anything was reserved,
    /// requested or made durable since it was parked.
    pub(crate) fn resume_at(&self, at: u64) {
        assert!(
            self.parked.swap(false, Ordering::AcqRel),
            "resume_at on a log that is already positioned"
        );
        let base = self.open_base.load(Ordering::Acquire);
        assert!(
            self.reserved() == base && self.durable() == base && self.requested() == base,
            "resume_at after the parked tail moved: reserved {}, durable {}, requested {}, \
             parked at {base}",
            self.reserved(),
            self.durable(),
            self.requested()
        );
        let at = at.max(DATA_START);
        self.open_base.store(at, Ordering::Release);
        self.reserved.store(at, Ordering::Release);
        self.durable.store(at, Ordering::Release);
        self.requested.store(at, Ordering::Release);
        self.stage_ring(at);
    }

    /// Whether the tail still waits for [`resume_at`](Self::resume_at).
    pub(crate) fn is_parked(&self) -> bool {
        self.parked.load(Ordering::Acquire)
    }

    /// Stage the ring's slots for the segments from `base`'s onwards.
    fn stage_ring(&self, base: u64) {
        let base_seg = base / SEG;
        for k in base_seg..base_seg + SEGMENT_RING as u64 {
            self.slot_for(k).seg.store(k, Ordering::Release);
        }
    }

    fn slot_for(&self, seg: u64) -> &SegmentSlot {
        &self.slots[(seg % SEGMENT_RING as u64) as usize]
    }

    /// Start of segment `k`'s live range: reservations below `open_base`
    /// never existed, so the first segment is only partially accounted.
    fn live_start(&self, seg: u64) -> u64 {
        (seg * SEG).max(self.open_base.load(Ordering::Acquire))
    }

    pub(crate) fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::Acquire)
    }

    pub(crate) fn durable(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    pub(crate) fn set_discard(&self) {
        self.discard.store(true, Ordering::SeqCst);
    }

    pub(crate) fn discarded(&self) -> bool {
        self.discard.load(Ordering::SeqCst)
    }

    /// Record `target` as requested; returns `true` when the flusher
    /// needs a fresh wakeup for it.
    pub(crate) fn note_requested(&self, target: u64) -> bool {
        self.requested.fetch_max(target, Ordering::AcqRel) < target
    }

    pub(crate) fn requested(&self) -> u64 {
        self.requested.load(Ordering::Acquire)
    }

    /// Wake every parked thread (durability waiters, slot waiters, the
    /// flusher's completion wait). Cheap when nobody is parked.
    pub(crate) fn notify(&self) {
        if self.waiters.load(Ordering::Relaxed) > 0 {
            self.notify_force();
        }
    }

    /// Unconditional wakeup — used on shutdown and after durable
    /// advances, where latency matters more than a syscall.
    pub(crate) fn notify_force(&self) {
        drop(self.gate.lock());
        self.cv.notify_all();
    }

    /// Park on the gate until notified or one safety quantum elapses.
    /// `check` is evaluated under the gate lock; returns immediately when
    /// it is already true.
    pub(crate) fn wait(&self, check: impl Fn() -> bool) -> bool {
        let mut g = self.gate.lock();
        if check() {
            return true;
        }
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let _ = self.cv.wait_for(&mut g, WAIT_QUANTUM);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        check()
    }

    /// Publish a new durable point under the gate (so durability waiters
    /// holding the gate cannot miss it), then notify.
    pub(crate) fn publish_durable(&self, end: u64) {
        {
            let _g = self.gate.lock();
            self.durable.fetch_max(end, Ordering::AcqRel);
        }
        self.cv.notify_all();
    }

    /// Reserve a range for a `frame_len`-byte frame, applying the
    /// placement rules (fit / gap-to-boundary / span).
    fn place(&self, frame_len: u64) -> Placement {
        assert!(
            frame_len as usize <= MAX_RESERVED_FRAME,
            "record frame of {frame_len} bytes exceeds the staging window \
             of {MAX_RESERVED_FRAME} bytes; append_sized bounds every frame"
        );
        let mut cur = self.reserved.load(Ordering::Acquire);
        loop {
            let rem = SEG - cur % SEG;
            let (lsn, gap, spans) = if frame_len <= rem {
                (cur, None, false)
            } else if frame_len <= SEG {
                // Skip to the next segment boundary; the gap is
                // zero-filled and scanned over as padding.
                (cur + rem, Some((cur, rem)), false)
            } else {
                (cur, None, true)
            };
            let end = lsn + frame_len;
            match self
                .reserved
                .compare_exchange(cur, end, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Placement { lsn, gap, spans },
                Err(seen) => cur = seen,
            }
        }
    }

    /// Block until slot `seg` is staged (backpressure on the flusher).
    /// Returns `false` if the log stopped while waiting.
    fn wait_slot(&self, seg: u64, wakeup: &Sender<u64>, stopped: &AtomicBool) -> bool {
        let slot = self.slot_for(seg);
        if slot.seg.load(Ordering::Acquire) == seg {
            return true;
        }
        // The ring is full: staging `seg` requires everything below the
        // segment it would evict to be durable. Ask the flusher for it.
        let need = (seg + 1 - SEGMENT_RING as u64) * SEG;
        if self.note_requested(need) {
            let _ = wakeup.send(need);
        }
        loop {
            if slot.seg.load(Ordering::Acquire) == seg {
                return true;
            }
            if stopped.load(Ordering::SeqCst) {
                return false;
            }
            self.wait(|| slot.seg.load(Ordering::Acquire) == seg);
        }
    }

    /// Copy `src` (or zeros, for gaps) into the staging ring at `offset`,
    /// segment by segment, bumping each segment's completion counter.
    fn fill(
        &self,
        mut offset: u64,
        mut len: u64,
        mut src: Option<&[u8]>,
        wakeup: &Sender<u64>,
        stopped: &AtomicBool,
    ) -> bool {
        while len > 0 {
            let seg = offset / SEG;
            if !self.wait_slot(seg, wakeup, stopped) {
                return false;
            }
            let in_seg = (offset % SEG) as usize;
            let take = ((SEG - offset % SEG) as usize).min(len as usize);
            let slot = self.slot_for(seg);
            // SAFETY: the range [in_seg, in_seg + take) of this staged
            // segment was reserved exclusively for this thread (or is the
            // gap this thread created); see the module-level argument.
            unsafe {
                let dst = (*slot.buf.get()).as_mut_ptr().add(in_seg);
                match src {
                    Some(bytes) => {
                        std::ptr::copy_nonoverlapping(bytes.as_ptr(), dst, take);
                    }
                    None => std::ptr::write_bytes(dst, 0, take),
                }
            }
            slot.filled.fetch_add(take as u64, Ordering::Release);
            offset += take as u64;
            len -= take as u64;
            if let Some(bytes) = src {
                src = Some(&bytes[take..]);
            }
        }
        true
    }

    /// The whole append pipeline for one encoded frame: reserve, fill the
    /// gap (if any), copy the frame, publish completion. Returns the LSN.
    pub(crate) fn append(&self, framed: &[u8], wakeup: &Sender<u64>, stopped: &AtomicBool) -> u64 {
        let len = framed.len() as u64;
        let placed = self.place(len);
        if let Some((gap_start, gap_len)) = placed.gap {
            self.fill(gap_start, gap_len, None, wakeup, stopped);
        }
        if placed.spans {
            self.span_floor.lock().insert(placed.lsn);
        }
        let ok = self.fill(placed.lsn, len, Some(framed), wakeup, stopped);
        if placed.spans {
            self.span_floor.lock().remove(&placed.lsn);
        }
        if ok {
            self.notify();
        }
        placed.lsn
    }

    /// Account flusher-injected sector padding `[offset, offset + len)`
    /// as filled (the zeros are appended to the device write directly and
    /// the range is durable immediately after, so the stale buffer bytes
    /// are never read back).
    pub(crate) fn account_padding(&self, offset: u64, len: u64) {
        let mut off = offset;
        let mut remaining = len;
        while remaining > 0 {
            let seg = off / SEG;
            let take = (SEG - off % SEG).min(remaining);
            self.slot_for(seg).filled.fetch_add(take, Ordering::Release);
            off += take;
            remaining -= take;
        }
    }

    /// Maximal hole-free publishable prefix end in `[from, cap]`: walks
    /// segments while their completion counters account for every byte
    /// reserved in them, then clamps below any active spanning frame.
    ///
    /// The per-segment check compares `filled` against the bytes the
    /// reservation counter has allocated into the segment *right now*;
    /// equality proves every allocated range was copied (copies only ever
    /// target reserved ranges, so a pending writer keeps the counters
    /// apart). The check can be transiently false while appenders are
    /// mid-copy — the flusher just waits and retries.
    pub(crate) fn complete_prefix(&self, from: u64, cap: u64) -> u64 {
        let mut p = from;
        let mut seg = from / SEG;
        while p < cap {
            let seg_end = (seg + 1) * SEG;
            let slot = self.slot_for(seg);
            if slot.seg.load(Ordering::Acquire) != seg {
                break;
            }
            let reserved_now = self.reserved.load(Ordering::Acquire);
            let expected = reserved_now
                .min(seg_end)
                .saturating_sub(self.live_start(seg));
            if slot.filled.load(Ordering::Acquire) != expected {
                break;
            }
            p = reserved_now.min(seg_end).min(cap);
            if p < seg_end {
                break;
            }
            seg += 1;
        }
        // Never publish into a frame that is still being copied across
        // segments.
        if let Some(&floor) = self.span_floor.lock().first() {
            p = p.min(floor);
        }
        p.max(from)
    }

    /// Copy the (complete) range `[start, end)` out of the staging ring
    /// for a device write.
    pub(crate) fn collect(&self, start: u64, end: u64, out: &mut Vec<u8>) {
        out.reserve((end - start) as usize);
        let mut off = start;
        while off < end {
            let seg = off / SEG;
            let slot = self.slot_for(seg);
            debug_assert_eq!(
                slot.seg.load(Ordering::Acquire),
                seg,
                "collect over a retired segment"
            );
            let in_seg = (off % SEG) as usize;
            let take = (SEG - off % SEG).min(end - off) as usize;
            // SAFETY: [start, end) is a complete prefix — all writers of
            // these bytes published via `filled` (Acquire-loaded in
            // `complete_prefix`) and no writer ever rewrites a range.
            unsafe {
                let src = (*slot.buf.get()).as_ptr().add(in_seg);
                let old = out.len();
                out.set_len(old + take);
                std::ptr::copy_nonoverlapping(src, out.as_mut_ptr().add(old), take);
            }
            off += take as u64;
        }
    }

    /// Copy `out.len()` bytes at `offset` out of the staging ring,
    /// re-validating slot residency afterwards. Returns `false` when a
    /// touched slot was re-staged mid-copy (the data is durable now —
    /// read it from the device instead).
    pub(crate) fn try_copy_out(&self, offset: u64, out: &mut [u8]) -> bool {
        let mut off = offset;
        let mut done = 0usize;
        while done < out.len() {
            let seg = off / SEG;
            let slot = self.slot_for(seg);
            if slot.seg.load(Ordering::Acquire) != seg {
                return false;
            }
            let in_seg = (off % SEG) as usize;
            let take = ((SEG - off % SEG) as usize).min(out.len() - done);
            // SAFETY: the frame at `offset` finished copying before its
            // LSN escaped `append`, and writers never touch foreign
            // ranges; slot reuse is detected by the re-validation below.
            unsafe {
                let src = (*slot.buf.get()).as_ptr().add(in_seg);
                std::ptr::copy_nonoverlapping(src, out.as_mut_ptr().add(done), take);
            }
            if slot.seg.load(Ordering::Acquire) != seg {
                return false;
            }
            off += take as u64;
            done += take;
        }
        true
    }

    /// Re-stage every slot whose segment is entirely durable, then wake
    /// appenders blocked on the ring.
    pub(crate) fn retire_through(&self, durable: u64) {
        let mut advanced = false;
        for slot in self.slots.iter() {
            loop {
                let seg = slot.seg.load(Ordering::Acquire);
                if (seg + 1) * SEG > durable {
                    break;
                }
                slot.filled.store(0, Ordering::Relaxed);
                slot.seg.store(seg + SEGMENT_RING as u64, Ordering::Release);
                advanced = true;
            }
        }
        if advanced {
            drop(self.gate.lock());
            self.cv.notify_all();
        }
    }

    /// Sector-size helper shared with the flusher: distance from `off` to
    /// the next sector boundary (zero when aligned).
    pub(crate) fn pad_to_sector(off: u64) -> u64 {
        (SECTOR_SIZE as u64 - off % SECTOR_SIZE as u64) % SECTOR_SIZE as u64
    }

    /// CAS the reservation counter forward over flush padding. Succeeds
    /// only when no concurrent reservation raced in — otherwise the
    /// flush simply goes out unpadded (the partial last sector is
    /// rewritten by the next flush, as on a real log disk).
    pub(crate) fn claim_padding(&self, at: u64, pad: u64) -> bool {
        self.reserved
            .compare_exchange(at, at + pad, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}

impl Drop for ReservedTail {
    fn drop(&mut self) {
        // `&mut self` proves no appender/flusher/reader still borrows the
        // slots, so the staging buffers can go back to the shared slab.
        for slot in self.slots.iter_mut() {
            let buf = std::mem::replace(slot.buf.get_mut(), Box::new([]));
            slab_put(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_reuses_returned_buffers() {
        // Parallel tests share the global slab, so a single observation
        // can race a concurrent drain; a put immediately followed by a
        // take reuses a pooled buffer in at least one of many tries.
        slab_put(slab_take());
        let mut reused = false;
        for _ in 0..50 {
            let before = slab_fresh_allocs();
            let buf = slab_take();
            let fresh = slab_fresh_allocs() > before;
            slab_put(buf);
            if !fresh {
                reused = true;
                break;
            }
        }
        assert!(reused, "slab take after put never reused a buffer");
    }

    #[test]
    fn dropped_tail_feeds_the_next_one() {
        // Dropping a tail returns its ring to the slab; building the next
        // tail should then need fewer than SEGMENT_RING fresh
        // allocations. Tolerate concurrent tests stealing from the pool
        // by retrying.
        drop(ReservedTail::parked_at(DATA_START));
        let mut recycled = false;
        for _ in 0..50 {
            let before = slab_fresh_allocs();
            let tail = ReservedTail::parked_at(DATA_START);
            let fresh = slab_fresh_allocs() - before;
            drop(tail);
            if (fresh as usize) < SEGMENT_RING {
                recycled = true;
                break;
            }
        }
        assert!(recycled, "rebuilding a tail never drew from the slab");
    }

    #[test]
    fn oversized_returns_are_dropped() {
        slab_put(vec![0u8; 16].into_boxed_slice());
        // A wrong-sized buffer must never be handed out.
        let buf = slab_take();
        assert_eq!(buf.len(), SEGMENT_SIZE);
        slab_put(buf);
    }
}
