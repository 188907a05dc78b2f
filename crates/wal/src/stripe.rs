//! WAL striping: one logical log over N disks with a merged durability
//! watermark.
//!
//! A single MSP log serializes every flush behind one disk arm. To scale
//! past that, the log is **striped** across N [`Disk`] devices, each
//! fronted by its own [`PhysicalLog`] (own reservation tail, own flusher
//! thread, own disk-model arm). Records keep a single totally ordered
//! address space — the **global sequence number** (gsn), a virtual byte
//! offset starting at [`DATA_START`] and advancing by each record's
//! framed size exactly as single-log LSNs do — so every consumer of
//! `Lsn`s (position streams, dependency tracking, checkpoint anchors)
//! works unchanged. On disk each record travels inside a
//! [`LogRecord::Striped`] wrapper carrying its gsn, which is what lets
//! crash recovery re-merge the per-stripe streams into one totally
//! ordered log.
//!
//! # Merged durability watermark
//!
//! Each stripe flushes independently, so "durable" is a *merged* notion:
//! the watermark is the smallest gsn not yet durable on its stripe —
//! every record below it has flushed, wherever it lives. A record whose
//! own stripe flushed early is **not** reported durable while an earlier
//! record on a lagging stripe is still volatile; committing it would let
//! a crash lose a record it causally follows. `flush_to(gsn)` therefore
//! fans out one flush leg per involved stripe and settles its ticket only
//! when the last leg lands (the time between the first and last leg is
//! accounted as `merged_watermark_lag_nanos`).
//!
//! # Crash recovery
//!
//! Reopening raw-scans every stripe, reads each frame's gsn from its
//! fixed payload position, and accepts the longest *contiguous* gsn
//! prefix starting at [`DATA_START`]. The first gap — a record lost with
//! some stripe's volatile tail — ends the log: stripes whose flush ran
//! ahead are truncated back by zero-filling their stale region (zeros
//! read as sector padding / end-of-log, so later scans and audits see a
//! clean tail). This is exactly the merged-watermark guarantee replayed
//! backwards: only acknowledged (merged-durable) prefixes survive, and
//! the surviving byte stream is identical to what a single log would
//! have retained.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use msp_types::{Encode, Lsn, MspError};

use crate::cache::ReplayCache;
use crate::disk::Disk;
use crate::fault::{CrashPoint, FaultPlan};
use crate::frame::FRAME_HEADER;
use crate::log::{FlushPolicy, FlushTicket, LogScanner, PhysicalLog, RawScanner, DATA_START};
use crate::model::DiskModel;
use crate::pool::BufferPool;
use crate::record::LogRecord;
use crate::stats::{LogStats, LogStatsSnapshot};

/// Encoded overhead of the [`LogRecord::Striped`] wrapper: tag byte +
/// fixed 8-byte gsn.
const STRIPE_WRAPPER: u64 = 1 + 8;

/// Route an id (session or shared-variable) to a stripe. Fibonacci
/// multiply-shift so dense id ranges spread evenly.
fn hash_route(id: u64, n: usize) -> usize {
    ((id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % n
}

fn corrupt(offset: u64, reason: &str) -> MspError {
    MspError::LogCorrupt {
        offset,
        reason: reason.into(),
    }
}

/// Strip a [`LogRecord::Striped`] wrapper, verifying the carried gsn.
fn unwrap_striped(rec: LogRecord, gsn: u64) -> Result<LogRecord, MspError> {
    match rec {
        LogRecord::Striped { gsn: g, inner } if g.0 == gsn => Ok(*inner),
        LogRecord::Striped { gsn: g, .. } => Err(corrupt(
            gsn,
            &format!("stripe frame carries gsn {} at gsn {}", g.0, gsn),
        )),
        _ => Err(corrupt(gsn, "expected a striped frame")),
    }
}

/// Per-stripe volatile bookkeeping, guarded by one mutex per stripe. The
/// gsn allocation happens under this lock, which is what guarantees that
/// each stripe's *local* append order equals its gsn order — the
/// invariant the recovery merge and the frontier computation rely on.
#[derive(Default)]
struct StripeState {
    /// gsn → local end offset of every record appended this generation
    /// that may not be durable yet; pruned as the stripe's durable
    /// horizon passes. The smallest surviving key is this stripe's
    /// durability frontier.
    pending: BTreeMap<u64, u64>,
}

/// One logical log striped over N per-disk [`PhysicalLog`]s. See the
/// module docs for the gsn address space and the merged watermark.
pub struct StripedLog {
    stripes: Vec<Arc<PhysicalLog>>,
    states: Vec<Mutex<StripeState>>,
    /// gsn the next append will receive (virtual byte offset).
    next_gsn: AtomicU64,
    /// Monotone cache of the merged durability watermark.
    merged: AtomicU64,
    /// gsn → (stripe, local LSN) for every record of this generation plus
    /// the recovered prefix; random reads (orphan chains, replay without
    /// cache) resolve through it.
    index: Mutex<HashMap<u64, (u32, u64)>>,
    /// Per stripe: (gsn, local LSN) of every record durable at open, in
    /// gsn order — positions the merged recovery scan.
    scan_tables: Vec<Vec<(u64, u64)>>,
    /// Striping-level counters (stripe_appends / stripe_flushes / merged
    /// lag); aggregate views merge these with the per-stripe snapshots.
    stats: Arc<LogStats>,
    fault: Mutex<Option<Arc<FaultPlan>>>,
    fault_armed: AtomicBool,
    /// Merged reclaim floor (gsn): every record below it has been
    /// truncated. Persisted on *every* stripe disk before any local
    /// truncation, read back as the max across disks (a crash mid-loop
    /// leaves a prefix of disks carrying the new floor).
    floor: AtomicU64,
    /// gsn targets of merged flushes still in their issue→settle window,
    /// with a refcount per target. The smallest key is the oldest pending
    /// flush — truncation must never cross it.
    pending_flushes: Arc<Mutex<BTreeMap<u64, u64>>>,
}

/// Join state of one merged flush: settles the caller's ticket when the
/// last per-stripe leg lands, accounting first-to-last leg lag.
struct FlushJoin {
    remaining: AtomicUsize,
    ok: AtomicBool,
    first_settle: Mutex<Option<Instant>>,
    ticket: FlushTicket,
    stats: Arc<LogStats>,
    /// Deregistration handle into [`StripedLog::pending_flushes`].
    registry: Arc<Mutex<BTreeMap<u64, u64>>>,
    gsn: u64,
}

impl StripedLog {
    /// Open a striped log over `disks` (one stripe per disk), re-merging
    /// whatever survived on them: accept the longest contiguous gsn
    /// prefix, truncate every stripe past it (zero-fill, so the stale
    /// region reads as end-of-log), and resume appending at the merged
    /// end.
    pub fn open(
        disks: Vec<Arc<dyn Disk>>,
        model: DiskModel,
        policy: FlushPolicy,
    ) -> Result<Arc<StripedLog>, MspError> {
        assert!(!disks.is_empty(), "a striped log needs at least one disk");
        let n = disks.len();

        // The persisted merged floor is the max over the stripe disks: it
        // is written to every disk before any local truncation, so a crash
        // mid-loop leaves some disks carrying the newest value and the
        // rest one behind.
        let mut merged_floor = DATA_START;
        for disk in &disks {
            if let Some(f) = crate::anchor::read_merged_floor(disk.as_ref())? {
                merged_floor = merged_floor.max(f);
            }
        }

        // Phase 1: raw-scan each stripe from its own persisted local
        // floor (below it the device is zeros), collecting (gsn, local
        // LSN, framed size) in local order. A frame that is not a striped
        // wrapper ends that stripe's stream, like a torn tail. Records
        // with gsn below the merged floor are dropped: a crash between
        // the merged-floor persist and a stripe's local truncation leaves
        // them on the device, but they are already reclaimed logically.
        let mut streams: Vec<Vec<(u64, u64, u64)>> = Vec::with_capacity(n);
        let mut scan_ends: Vec<u64> = Vec::with_capacity(n);
        for disk in &disks {
            let local_floor = crate::anchor::read_floor(disk.as_ref())?
                .unwrap_or(DATA_START)
                .max(DATA_START);
            let mut stream = Vec::new();
            let mut sc = RawScanner::new(Arc::clone(disk), local_floor, None, None);
            while let Some((local, payload)) = sc.step()? {
                let Some(gsn) = LogRecord::striped_gsn(&payload) else {
                    break;
                };
                if gsn.0 >= merged_floor {
                    stream.push((gsn.0, local, (FRAME_HEADER + payload.len()) as u64));
                }
            }
            scan_ends.push(sc.offset());
            streams.push(stream);
        }

        // Phase 2: k-way merge by gsn, starting at the merged floor (the
        // floor is always a surviving record's gsn or the exact append
        // point, so contiguity from there is the same invariant as from
        // `DATA_START` on a never-truncated log). The gsn space is exactly
        // contiguous (no padding — padding is stripe-local), so the
        // merge just looks for the stripe holding the expected gsn; the
        // first miss is the crash frontier.
        let mut heads = vec![0usize; n];
        let mut expected = merged_floor;
        let mut index = HashMap::new();
        let mut scan_tables: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        loop {
            let mut hit = None;
            for s in 0..n {
                if let Some(&(gsn, local, framed)) = streams[s].get(heads[s]) {
                    if gsn == expected {
                        hit = Some((s, local, framed));
                        break;
                    }
                }
            }
            let Some((s, local, framed)) = hit else { break };
            index.insert(expected, (s as u32, local));
            scan_tables[s].push((expected, local));
            heads[s] += 1;
            expected += framed;
        }

        // Phase 3: truncate each stripe at its first record past the
        // merged frontier by zero-filling the stale region — zeros read
        // as sector padding / end-of-stream, and the next appends
        // overwrite them.
        // Per-stripe flush scheduling: legs must coalesce. A merged flush
        // fans one leg to every stripe holding records below its target,
        // so under load every stripe sees every concurrent commit's leg;
        // serving each leg with its own device write (the single-log
        // per-request baseline) would multiply the seek work by the
        // stripe count and gate every commit on the slowest stripe's
        // write queue. Each stripe therefore runs group commit: a leg is
        // still dispatched the moment it is issued — no added delay, the
        // caller's scheduling knob governs *when* legs exist — but one
        // device write serves every leg queued behind it. §5.5 batch
        // flushing keeps its window if the caller asked for it.
        let stripe_policy = if policy.batch_timeout.is_some() {
            policy
        } else {
            FlushPolicy {
                group_commit: true,
                ..policy
            }
        };
        let mut stripes = Vec::with_capacity(n);
        for s in 0..n {
            let trunc = streams[s]
                .get(heads[s])
                .map(|&(_, local, _)| local)
                .unwrap_or(scan_ends[s]);
            let len = disks[s].len();
            if len > trunc {
                disks[s]
                    .write(trunc, &vec![0u8; (len - trunc) as usize])
                    .map_err(MspError::Io)?;
            }
            stripes.push(PhysicalLog::open_at(
                Arc::clone(&disks[s]),
                model.clone(),
                stripe_policy,
                trunc,
            )?);
        }

        let stats = Arc::new(LogStats::default());
        if merged_floor > DATA_START {
            // Finish a truncation the crash interrupted: derive each
            // stripe's local floor from the merged floor (the first
            // surviving record's local position, or the whole durable
            // extent when nothing survived) and re-drive the local
            // truncations. Idempotent when the truncation had completed.
            for s in 0..n {
                let local_floor = scan_tables[s]
                    .first()
                    .map(|&(_, local)| local)
                    .unwrap_or_else(|| stripes[s].durable_lsn().0);
                if local_floor > stripes[s].floor().0 {
                    stripes[s].truncate_below(Lsn(local_floor))?;
                }
            }
            stats.note_reclaim_floor(merged_floor);
        }

        Ok(Arc::new(StripedLog {
            stripes,
            states: (0..n).map(|_| Mutex::new(StripeState::default())).collect(),
            next_gsn: AtomicU64::new(expected),
            merged: AtomicU64::new(expected),
            index: Mutex::new(index),
            scan_tables,
            stats,
            fault: Mutex::new(None),
            fault_armed: AtomicBool::new(false),
            floor: AtomicU64::new(merged_floor),
            pending_flushes: Arc::new(Mutex::new(BTreeMap::new())),
        }))
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The per-stripe physical logs (tests and per-stripe stat
    /// breakdowns).
    pub fn stripes(&self) -> &[Arc<PhysicalLog>] {
        &self.stripes
    }

    /// Per-stripe overhead counters, in stripe order.
    pub fn stripe_stats(&self) -> Vec<LogStatsSnapshot> {
        self.stripes.iter().map(|s| s.stats()).collect()
    }

    /// Aggregate counters: the field-wise sum of every stripe plus the
    /// striping-level counters (stripe_appends / stripe_flushes / merged
    /// watermark lag).
    pub fn stats(&self) -> LogStatsSnapshot {
        self.stripes
            .iter()
            .fold(self.stats.snapshot(), |acc, s| acc.merge(&s.stats()))
    }

    /// Which stripe a record lands on: session records follow their
    /// session, shared-variable records their variable (so a variable's
    /// backward chain stays stripe-local), MSP-level records stripe 0.
    fn route(&self, record: &LogRecord) -> usize {
        let n = self.stripes.len();
        match record {
            LogRecord::SharedWrite { var, .. } | LogRecord::SharedCheckpoint { var, .. } => {
                hash_route(u64::from(var.0), n)
            }
            _ => match record.session() {
                Some(session) => hash_route(session.0, n),
                None => 0,
            },
        }
    }

    /// Append `record`, returning its gsn and framed size in the gsn
    /// address space (= its stripe-local framed size, wrapper included).
    pub fn append_sized(&self, record: &LogRecord) -> (Lsn, u64) {
        // Same crash site as the single log's append.
        self.fault_point(CrashPoint::MidAppend);
        let stripe = self.route(record);
        // Frame size is gsn-independent (the gsn is a fixed 8 bytes), so
        // it can be measured before the gsn is allocated.
        let framed = FRAME_HEADER as u64 + STRIPE_WRAPPER + record.to_bytes().len() as u64;
        let gsn = {
            let mut st = self.states[stripe].lock();
            // Allocation under the stripe lock: local order == gsn order.
            let gsn = self.next_gsn.fetch_add(framed, Ordering::SeqCst);
            let wrapped = LogRecord::Striped {
                gsn: Lsn(gsn),
                inner: Box::new(record.clone()),
            };
            let (local, stripe_framed) = self.stripes[stripe].append_sized(&wrapped);
            debug_assert_eq!(stripe_framed, framed);
            st.pending.insert(gsn, local.0 + framed);
            // Index insert stays inside the critical section: truncation
            // snapshots the index while holding every stripe lock, and an
            // allocated-but-unindexed record could otherwise be mistaken
            // for reclaimable space.
            self.index.lock().insert(gsn, (stripe as u32, local.0));
            gsn
        };
        self.stats.on_stripe_append();
        (Lsn(gsn), framed)
    }

    /// Append without the size (see [`append_sized`](Self::append_sized)).
    pub fn append(&self, record: &LogRecord) -> Lsn {
        self.append_sized(record).0
    }

    /// gsn the next append will receive.
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.next_gsn.load(Ordering::SeqCst))
    }

    /// The merged durability watermark: every record whose gsn is
    /// strictly below it is durable on its stripe. Monotone.
    pub fn durable_lsn(&self) -> Lsn {
        // Snapshot the allocation point *before* inspecting the stripes:
        // any record allocated before this load is already in its
        // stripe's pending map (insertion shares the allocation's
        // critical section), so it cannot be missed below.
        let ceiling = self.next_gsn.load(Ordering::SeqCst);
        let mut merged = ceiling;
        for (s, state) in self.states.iter().enumerate() {
            let mut st = state.lock();
            let durable = self.stripes[s].durable_lsn().0;
            while let Some((&gsn, &end)) = st.pending.first_key_value() {
                if end <= durable {
                    st.pending.remove(&gsn);
                } else {
                    break;
                }
            }
            if let Some((&gsn, _)) = st.pending.first_key_value() {
                merged = merged.min(gsn);
            }
        }
        // Fold monotonically: a concurrent computation may have seen a
        // higher frontier; never publish a regression.
        let mut prev = self.merged.load(Ordering::SeqCst);
        loop {
            if merged <= prev {
                return Lsn(prev);
            }
            match self.merged.compare_exchange_weak(
                prev,
                merged,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return Lsn(merged),
                Err(p) => prev = p,
            }
        }
    }

    /// Merged flush request: one leg per stripe holding records at or
    /// below `lsn`, joined into a single ticket that settles when the
    /// last leg lands. See [`PhysicalLog::flush_to_async`] for ticket
    /// semantics.
    pub fn flush_to_async(&self, lsn: Lsn) -> FlushTicket {
        self.stats.on_ticket_issued();
        let ticket = FlushTicket::unsettled();
        if self.fault_point(CrashPoint::PreFlush) {
            ticket.settle_now(false);
            return ticket;
        }
        if self.durable_lsn().0 > lsn.0 || self.next_gsn.load(Ordering::SeqCst) <= lsn.0 {
            self.stats.on_ticket_completed();
            ticket.settle_now(true);
            return ticket;
        }
        let mut legs = Vec::new();
        for (s, state) in self.states.iter().enumerate() {
            // The last pending record at or below the target on this
            // stripe; flushing its end covers every earlier one.
            let target = {
                let st = state.lock();
                st.pending.range(..=lsn.0).next_back().map(|(_, &end)| end)
            };
            if let Some(end) = target {
                self.stats.on_stripe_flush();
                legs.push(self.stripes[s].flush_to_async(Lsn(end - 1)));
            }
        }
        if legs.is_empty() {
            // Every record at or below the target is already durable on
            // its stripe (the frontiers just had not been re-merged yet).
            self.stats.on_ticket_completed();
            ticket.settle_now(true);
            return ticket;
        }
        // Register the merged flush for the truncation fold: until the
        // last leg settles, the floor must stay below this target.
        *self.pending_flushes.lock().entry(lsn.0).or_insert(0) += 1;
        let join = Arc::new(FlushJoin {
            remaining: AtomicUsize::new(legs.len()),
            ok: AtomicBool::new(true),
            first_settle: Mutex::new(None),
            ticket: ticket.clone_handle(),
            stats: Arc::clone(&self.stats),
            registry: Arc::clone(&self.pending_flushes),
            gsn: lsn.0,
        });
        for leg in legs {
            let join = Arc::clone(&join);
            leg.on_settle(move |ok| {
                if !ok {
                    join.ok.store(false, Ordering::Relaxed);
                }
                let now = Instant::now();
                let first = {
                    let mut slot = join.first_settle.lock();
                    *slot.get_or_insert(now)
                };
                if join.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    {
                        let mut reg = join.registry.lock();
                        if let Some(c) = reg.get_mut(&join.gsn) {
                            if *c <= 1 {
                                reg.remove(&join.gsn);
                            } else {
                                *c -= 1;
                            }
                        }
                    }
                    join.stats
                        .on_merged_watermark_lag(now.duration_since(first).as_nanos() as u64);
                    let all_ok = join.ok.load(Ordering::Relaxed);
                    if all_ok {
                        join.stats.on_ticket_completed();
                    }
                    join.ticket.settle_now(all_ok);
                }
            });
        }
        ticket
    }

    /// Block until the record at `lsn` is merged-durable.
    pub fn flush_to(&self, lsn: Lsn) -> Result<(), MspError> {
        self.flush_to_async(lsn).wait()
    }

    /// Flush everything appended so far on every stripe.
    pub fn flush_all(&self) -> Result<(), MspError> {
        for stripe in &self.stripes {
            stripe.flush_all()?;
        }
        Ok(())
    }

    /// The merged reclaim floor (gsn): no record below it survives.
    pub fn floor(&self) -> Lsn {
        Lsn(self.floor.load(Ordering::Acquire))
    }

    /// gsn target of the oldest merged flush still in its issue→settle
    /// window, if any.
    pub fn oldest_pending_flush(&self) -> Option<Lsn> {
        self.pending_flushes.lock().keys().next().copied().map(Lsn)
    }

    /// Advance the merged reclaim floor toward `floor` and release the
    /// device space below it on every stripe. Returns the device bytes
    /// newly reclaimed (summed across stripes).
    ///
    /// The requested floor is first clamped to the merged durability
    /// watermark, then **snapped up** to the smallest live record gsn at
    /// or above it (or the exact append point when nothing at or above it
    /// is live): reopen re-merges the stripes by walking contiguous gsns
    /// from the persisted floor, so the floor must always be a real
    /// record's gsn or the next append's. The snap never crosses a live
    /// record — there are no records at all between the clamped request
    /// and the snap target. Ordering is crash-safe: the merged floor is
    /// persisted on every stripe disk, then each stripe persists its
    /// local floor before reclaiming; reopen completes whatever suffix of
    /// that sequence the crash cut off.
    pub fn truncate_below(&self, floor: Lsn) -> Result<u64, MspError> {
        let durable = self.durable_lsn().0;
        let cur = self.floor.load(Ordering::Acquire);
        let req = floor.0.min(durable).max(cur).max(DATA_START);
        if req <= cur {
            return Ok(0);
        }
        // Quiesce every stripe: no append can be mid-flight while all
        // stripe locks are held, so the index is a complete record map
        // and `next_gsn` is the exact append point.
        let (target, local_floors) = {
            let _guards: Vec<_> = self.states.iter().map(|s| s.lock()).collect();
            let mut index = self.index.lock();
            let target = index
                .keys()
                .copied()
                .filter(|&g| g >= req)
                .min()
                .unwrap_or_else(|| self.next_gsn.load(Ordering::SeqCst));
            if target <= cur {
                return Ok(0);
            }
            // Per-stripe local floor: the first surviving record's local
            // position, or the stripe's whole durable extent when nothing
            // on it survives (its volatile tail sits above the durable
            // end, so a late flush cannot land below this floor).
            let mut local_floors: Vec<Option<u64>> = vec![None; self.stripes.len()];
            for (&g, &(s, local)) in index.iter() {
                if g >= target {
                    let slot = &mut local_floors[s as usize];
                    *slot = Some(slot.map_or(local, |c: u64| c.min(local)));
                }
            }
            // Reclaimed entries can never be read again; pruning bounds
            // the index at O(live records).
            index.retain(|&g, _| g >= target);
            let local_floors: Vec<u64> = local_floors
                .iter()
                .enumerate()
                .map(|(s, lf)| lf.unwrap_or_else(|| self.stripes[s].durable_lsn().0))
                .collect();
            (target, local_floors)
        };
        // Persist the merged floor on every stripe disk *before* any
        // local truncation — reopen reads the max across disks. The
        // stripes are separate devices, so the sector writes of one phase
        // overlap: each phase is charged one modelled write, not one per
        // stripe, and a truncation costs the same on any stripe count.
        let model = self.stripes[0].model();
        let uncharged = DiskModel::zero();
        for stripe in &self.stripes {
            crate::anchor::write_merged_floor(stripe.disk().as_ref(), &uncharged, target)?;
        }
        model.charge_flush(1);
        self.floor.fetch_max(target, Ordering::AcqRel);
        if self.fault_point(CrashPoint::TruncateStart) {
            return Err(MspError::Shutdown);
        }
        let mut reclaimed = 0;
        for (s, stripe) in self.stripes.iter().enumerate() {
            reclaimed += stripe.truncate_below_charging(Lsn(local_floors[s]), &uncharged)?;
        }
        if reclaimed > 0 {
            model.charge_flush(1);
        }
        self.stats.note_reclaim_floor(target);
        if self.fault_point(CrashPoint::TruncateComplete) {
            return Err(MspError::Shutdown);
        }
        Ok(reclaimed)
    }

    /// Resolve a gsn to its (stripe, local LSN) home.
    pub(crate) fn locate(&self, gsn: u64) -> Result<(usize, u64), MspError> {
        self.index
            .lock()
            .get(&gsn)
            .map(|&(s, local)| (s as usize, local))
            .ok_or_else(|| corrupt(gsn, "read past end of log"))
    }

    /// Read and decode the record at `gsn` (tail-serving, like the
    /// single log's read).
    pub fn read_record(&self, lsn: Lsn) -> Result<LogRecord, MspError> {
        self.read_record_sized(lsn).map(|(rec, _)| rec)
    }

    /// Like [`read_record`](Self::read_record) plus the record's framed
    /// size in the gsn address space.
    pub fn read_record_sized(&self, lsn: Lsn) -> Result<(LogRecord, u64), MspError> {
        let (stripe, local) = self.locate(lsn.0)?;
        let (rec, framed) = self.stripes[stripe].read_record_sized(Lsn(local))?;
        Ok((unwrap_striped(rec, lsn.0)?, framed))
    }

    /// Merged sequential scan of the durable log from gsn `from`: one
    /// sequential scanner per stripe, k-way merged by gsn.
    pub fn scan_from(&self, from: Lsn) -> StripedScanner<'_> {
        self.scanner(from, false)
    }

    /// Like [`scan_from`](Self::scan_from) with each stripe's device
    /// reads running in its own prefetch thread.
    pub fn scan_from_pipelined(&self, from: Lsn) -> StripedScanner<'_> {
        self.scanner(from, true)
    }

    fn scanner(&self, from: Lsn, pipelined: bool) -> StripedScanner<'_> {
        // Nothing below the merged floor survives; starting there also
        // keeps the per-stripe legs above their own local floors.
        let from = from
            .0
            .max(DATA_START)
            .max(self.floor.load(Ordering::Acquire));
        let mut legs = Vec::with_capacity(self.stripes.len());
        for (s, stripe) in self.stripes.iter().enumerate() {
            // First durable record of this stripe at or past `from`; a
            // stripe with none contributes an exhausted leg.
            let start = match self.scan_tables[s].partition_point(|&(gsn, _)| gsn < from) {
                i if i < self.scan_tables[s].len() => Some(self.scan_tables[s][i].1),
                _ => None,
            };
            let scanner = match start {
                Some(local) if pipelined => stripe.scan_from_pipelined(Lsn(local)),
                Some(local) => stripe.scan_from(Lsn(local)),
                // Position at the device end: immediately exhausted.
                None => stripe.scan_from(Lsn(stripe.disk().len())),
            };
            legs.push(ScanLeg {
                scanner,
                head: None,
                primed: false,
            });
        }
        StripedScanner {
            legs,
            position: from,
        }
    }

    /// Install a crash-point plan. Inner stripes carry no plan of their
    /// own; the striped log probes the shared crash sites itself and a
    /// fire crashes every stripe.
    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.fault.lock() = Some(plan);
        self.fault_armed.store(true, Ordering::Release);
    }

    /// Crash-site probe over the whole striped log; returns `true` iff
    /// this call crashed it. See [`PhysicalLog::fault_point`].
    pub fn fault_point(&self, point: CrashPoint) -> bool {
        if !self.fault_armed.load(Ordering::Acquire) {
            return false;
        }
        let plan = self.fault.lock().clone();
        let Some(plan) = plan else { return false };
        if !plan.should_fire(point) {
            return false;
        }
        self.crash();
        plan.notify_fired(point);
        true
    }

    /// Crash every stripe: volatile tails are lost, pending merged
    /// tickets fail (their legs fail). Idempotent.
    pub fn crash(&self) {
        for stripe in &self.stripes {
            stripe.crash();
        }
    }

    /// Flush everything and stop every stripe.
    pub fn close(&self) {
        let _ = self.flush_all();
        for stripe in &self.stripes {
            stripe.close();
        }
    }

    /// Charge the sequential-read cost for `bytes` of replay-window read
    /// (cache-less replay path). Charged against stripe 0's arm — the
    /// serial-equivalent bound.
    pub fn charge_sequential_read(&self, bytes: u64) {
        self.stripes[0].charge_sequential_read(bytes);
    }
}

/// One stripe's contribution to a merged scan.
struct ScanLeg<'a> {
    scanner: LogScanner<'a>,
    /// Decoded-but-not-yet-yielded head: (gsn, inner record, framed
    /// size). The framed size is the stripe scanner's position delta
    /// across the pull — which, gsn space being contiguous, is also the
    /// record's gsn span.
    head: Option<(u64, LogRecord, u64)>,
    primed: bool,
}

impl ScanLeg<'_> {
    /// Ensure `head` holds the next record (or the leg is exhausted).
    fn prime(&mut self) -> Result<(), MspError> {
        if self.primed {
            return Ok(());
        }
        self.primed = true;
        self.head = match self.scanner.next() {
            Some(Ok((local, rec))) => {
                // After a successful pull the scanner sits exactly at the
                // record's local end.
                let framed = self.scanner.position().0 - local.0;
                match rec {
                    LogRecord::Striped { gsn, inner } => Some((gsn.0, *inner, framed)),
                    other => {
                        return Err(corrupt(
                            local.0,
                            &format!("unstriped {} record on a striped log", other.kind()),
                        ))
                    }
                }
            }
            Some(Err(e)) => return Err(e),
            None => None,
        };
        Ok(())
    }
}

/// Iterator over `(gsn, record)` pairs of a striped log's durable
/// prefix, in gsn order — the striped analogue of [`LogScanner`].
pub struct StripedScanner<'a> {
    legs: Vec<ScanLeg<'a>>,
    position: u64,
}

impl StripedScanner<'_> {
    /// gsn the scan has reached (the append point when exhausted).
    pub fn position(&self) -> Lsn {
        Lsn(self.position)
    }
}

impl Iterator for StripedScanner<'_> {
    type Item = Result<(Lsn, LogRecord), MspError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut best: Option<usize> = None;
        for i in 0..self.legs.len() {
            if let Err(e) = self.legs[i].prime() {
                return Some(Err(e));
            }
            if let Some((gsn, _, _)) = self.legs[i].head {
                let best_gsn = best.map(|b| self.legs[b].head.as_ref().expect("primed").0);
                if best_gsn.is_none_or(|b| gsn < b) {
                    best = Some(i);
                }
            }
        }
        let leg = best?;
        let (gsn, rec, framed) = self.legs[leg].head.take().expect("primed head");
        self.legs[leg].primed = false;
        self.position = gsn + framed;
        Some(Ok((Lsn(gsn), rec)))
    }
}

/// The WAL facade the runtime programs against: a single physical log or
/// a striped one, with one method surface. Striping is a deployment knob,
/// not an API change.
pub enum Wal {
    Single(Arc<PhysicalLog>),
    Striped(Arc<StripedLog>),
}

impl Wal {
    /// The striped backend, if this is a striped log.
    pub fn striped(&self) -> Option<&Arc<StripedLog>> {
        match self {
            Wal::Single(_) => None,
            Wal::Striped(s) => Some(s),
        }
    }

    pub fn append(&self, record: &LogRecord) -> Lsn {
        match self {
            Wal::Single(l) => l.append(record),
            Wal::Striped(s) => s.append(record),
        }
    }

    pub fn append_sized(&self, record: &LogRecord) -> (Lsn, u64) {
        match self {
            Wal::Single(l) => l.append_sized(record),
            Wal::Striped(s) => s.append_sized(record),
        }
    }

    pub fn end_lsn(&self) -> Lsn {
        match self {
            Wal::Single(l) => l.end_lsn(),
            Wal::Striped(s) => s.end_lsn(),
        }
    }

    /// Whether the device(s) hold no log yet — a first boot. See
    /// [`PhysicalLog::is_blank`]; a striped log is blank when its merge
    /// found nothing above `DATA_START`.
    pub fn is_blank(&self) -> Result<bool, MspError> {
        match self {
            Wal::Single(l) => l.is_blank(),
            Wal::Striped(s) => Ok(s.durable_lsn().0 <= DATA_START && s.end_lsn().0 <= DATA_START),
        }
    }

    /// Give an unpositioned single log its append point, the end of the
    /// recovery scan ([`PhysicalLog::resume_at`]). A no-op on a striped
    /// log: its open has to merge the stripes by gsn before any scan can
    /// run, and that merge already positioned every stripe.
    pub fn resume_at(&self, end: Lsn) {
        match self {
            Wal::Single(l) => l.resume_at(end),
            Wal::Striped(s) => debug_assert_eq!(end, s.end_lsn(), "striped scan end"),
        }
    }

    pub fn durable_lsn(&self) -> Lsn {
        match self {
            Wal::Single(l) => l.durable_lsn(),
            Wal::Striped(s) => s.durable_lsn(),
        }
    }

    pub fn flush_to(&self, lsn: Lsn) -> Result<(), MspError> {
        match self {
            Wal::Single(l) => l.flush_to(lsn),
            Wal::Striped(s) => s.flush_to(lsn),
        }
    }

    pub fn flush_to_async(&self, lsn: Lsn) -> FlushTicket {
        match self {
            Wal::Single(l) => l.flush_to_async(lsn),
            Wal::Striped(s) => s.flush_to_async(lsn),
        }
    }

    pub fn flush_all(&self) -> Result<(), MspError> {
        match self {
            Wal::Single(l) => l.flush_all(),
            Wal::Striped(s) => s.flush_all(),
        }
    }

    pub fn read_record(&self, lsn: Lsn) -> Result<LogRecord, MspError> {
        match self {
            Wal::Single(l) => l.read_record(lsn),
            Wal::Striped(s) => s.read_record(lsn),
        }
    }

    pub fn read_record_sized(&self, lsn: Lsn) -> Result<(LogRecord, u64), MspError> {
        match self {
            Wal::Single(l) => l.read_record_sized(lsn),
            Wal::Striped(s) => s.read_record_sized(lsn),
        }
    }

    pub fn scan_from(&self, from: Lsn) -> WalScanner<'_> {
        match self {
            Wal::Single(l) => WalScanner::Single(l.scan_from(from)),
            Wal::Striped(s) => WalScanner::Striped(s.scan_from(from)),
        }
    }

    pub fn scan_from_pipelined(&self, from: Lsn) -> WalScanner<'_> {
        match self {
            Wal::Single(l) => WalScanner::Single(l.scan_from_pipelined(from)),
            Wal::Striped(s) => WalScanner::Striped(s.scan_from_pipelined(from)),
        }
    }

    pub fn charge_sequential_read(&self, bytes: u64) {
        match self {
            Wal::Single(l) => l.charge_sequential_read(bytes),
            Wal::Striped(s) => s.charge_sequential_read(bytes),
        }
    }

    /// Advance the reclaim floor toward `floor` and release the device
    /// space below it; returns the device bytes newly reclaimed. See
    /// [`PhysicalLog::truncate_below`] / [`StripedLog::truncate_below`].
    pub fn truncate_below(&self, floor: Lsn) -> Result<u64, MspError> {
        match self {
            Wal::Single(l) => l.truncate_below(floor),
            Wal::Striped(s) => s.truncate_below(floor),
        }
    }

    /// The current reclaim floor (LSN / merged gsn).
    pub fn floor(&self) -> Lsn {
        match self {
            Wal::Single(l) => l.floor(),
            Wal::Striped(s) => s.floor(),
        }
    }

    /// Target of the oldest flush still pending, if any — a live
    /// dependency the reclaim-floor fold must respect.
    pub fn oldest_pending_flush(&self) -> Option<Lsn> {
        match self {
            Wal::Single(l) => l.oldest_pending_flush(),
            Wal::Striped(s) => s.oldest_pending_flush(),
        }
    }

    pub fn install_fault_plan(&self, plan: Arc<FaultPlan>) {
        match self {
            Wal::Single(l) => l.install_fault_plan(plan),
            Wal::Striped(s) => s.install_fault_plan(plan),
        }
    }

    pub fn fault_point(&self, point: CrashPoint) -> bool {
        match self {
            Wal::Single(l) => l.fault_point(point),
            Wal::Striped(s) => s.fault_point(point),
        }
    }

    pub fn crash(&self) {
        match self {
            Wal::Single(l) => l.crash(),
            Wal::Striped(s) => s.crash(),
        }
    }

    pub fn close(&self) {
        match self {
            Wal::Single(l) => l.close(),
            Wal::Striped(s) => s.close(),
        }
    }

    /// Aggregate overhead counters (summed across stripes when striped).
    pub fn stats(&self) -> LogStatsSnapshot {
        match self {
            Wal::Single(l) => l.stats(),
            Wal::Striped(s) => s.stats(),
        }
    }

    /// Per-stripe counter breakdown; a single log is one "stripe".
    pub fn stripe_stats(&self) -> Vec<LogStatsSnapshot> {
        match self {
            Wal::Single(l) => vec![l.stats()],
            Wal::Striped(s) => s.stripe_stats(),
        }
    }
}

/// Scanner over either backend, with the [`LogScanner`] interface.
pub enum WalScanner<'a> {
    Single(LogScanner<'a>),
    Striped(StripedScanner<'a>),
}

impl WalScanner<'_> {
    /// Offset/gsn the scan has reached (the append point when
    /// exhausted).
    pub fn position(&self) -> Lsn {
        match self {
            WalScanner::Single(s) => s.position(),
            WalScanner::Striped(s) => s.position(),
        }
    }
}

impl Iterator for WalScanner<'_> {
    type Item = Result<(Lsn, LogRecord), MspError>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            WalScanner::Single(s) => s.next(),
            WalScanner::Striped(s) => s.next(),
        }
    }
}

/// Replay cache over either backend. Striped: one [`ReplayCache`] view
/// per stripe (each covering its stripe's immutable crash-time prefix),
/// all borrowing slots from one shared [`BufferPool`], with gsn reads
/// translated to stripe-local frames and unwrapped.
pub enum WalReplayCache {
    Single(ReplayCache),
    Striped {
        log: Arc<StripedLog>,
        caches: Vec<ReplayCache>,
    },
}

impl WalReplayCache {
    /// Build a cache of `blocks` 64 KB slots over `wal`'s durable prefix;
    /// striped stripes share the one pool rather than splitting the
    /// budget.
    pub fn new(wal: &Wal, blocks: usize) -> WalReplayCache {
        WalReplayCache::with_pool(wal, &Arc::new(BufferPool::new(blocks)))
    }

    /// Views over `wal` borrowing slots from a shared `pool` (one
    /// registered source per physical log / stripe).
    pub fn with_pool(wal: &Wal, pool: &Arc<BufferPool>) -> WalReplayCache {
        match wal {
            Wal::Single(l) => WalReplayCache::Single(ReplayCache::with_pool(l, pool)),
            Wal::Striped(s) => WalReplayCache::Striped {
                log: Arc::clone(s),
                caches: s
                    .stripes()
                    .iter()
                    .map(|l| ReplayCache::with_pool(l, pool))
                    .collect(),
            },
        }
    }

    /// The shared pool behind this cache's views.
    pub fn pool(&self) -> &Arc<BufferPool> {
        match self {
            WalReplayCache::Single(c) => c.pool(),
            WalReplayCache::Striped { caches, .. } => caches[0].pool(),
        }
    }

    /// Read and decode the record at `lsn`, plus its framed size in the
    /// log's address space.
    pub fn read_record_sized(&self, lsn: Lsn) -> Result<(LogRecord, u64), MspError> {
        match self {
            WalReplayCache::Single(c) => c.read_record_sized(lsn),
            WalReplayCache::Striped { log, caches } => {
                let (stripe, local) = log.locate(lsn.0)?;
                let (rec, framed) = caches[stripe].read_record_sized(Lsn(local))?;
                Ok((unwrap_striped(rec, lsn.0)?, framed))
            }
        }
    }

    /// Read and decode the record at `lsn`.
    pub fn read_record(&self, lsn: Lsn) -> Result<LogRecord, MspError> {
        self.read_record_sized(lsn).map(|(rec, _)| rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use msp_types::{RequestSeq, SessionId};

    fn rec(session: u64, seq: u64) -> LogRecord {
        LogRecord::RequestReceive {
            session: SessionId(session),
            seq: RequestSeq(seq),
            method: "m".into(),
            payload: vec![7; 40],
            sender_dv: None,
        }
    }

    fn open_striped(disks: &[MemDisk]) -> Arc<StripedLog> {
        StripedLog::open(
            disks
                .iter()
                .map(|d| Arc::new(d.clone()) as Arc<dyn Disk>)
                .collect(),
            DiskModel::zero(),
            FlushPolicy::immediate(),
        )
        .unwrap()
    }

    fn mem_disks(n: usize) -> Vec<MemDisk> {
        (0..n).map(|_| MemDisk::new()).collect()
    }

    #[test]
    fn gsn_space_is_contiguous_across_stripes() {
        let disks = mem_disks(3);
        let log = open_striped(&disks);
        let mut expected = DATA_START;
        for i in 0..50 {
            let (gsn, framed) = log.append_sized(&rec(i, 0));
            assert_eq!(gsn.0, expected, "gsn space must have no holes");
            expected += framed;
        }
        assert_eq!(log.end_lsn().0, expected);
        log.close();
    }

    #[test]
    fn reads_resolve_across_stripes() {
        let disks = mem_disks(4);
        let log = open_striped(&disks);
        let mut lsns = Vec::new();
        for i in 0..32 {
            lsns.push((log.append(&rec(i, i)), rec(i, i)));
        }
        for (lsn, want) in &lsns {
            assert_eq!(&log.read_record(*lsn).unwrap(), want);
        }
        log.close();
    }

    #[test]
    fn merged_watermark_requires_every_stripe() {
        let disks = mem_disks(2);
        let log = open_striped(&disks);
        // Two sessions landing on different stripes.
        let (a, b) = distinct_stripe_sessions(&log);
        let l1 = log.append(&rec(a, 0));
        let l2 = log.append(&rec(b, 0));
        assert!(l2 > l1);
        // Flush only the *later* record's stripe, directly.
        let (s2, _) = log.locate(l2.0).unwrap();
        log.stripes()[s2].flush_all().unwrap();
        // The merged watermark must still sit at or below l1: the earlier
        // record's stripe has not flushed.
        assert!(
            log.durable_lsn().0 <= l1.0,
            "merged watermark ran ahead of an unflushed stripe"
        );
        // A full merged flush advances it past both.
        log.flush_to(l2).unwrap();
        assert!(log.durable_lsn().0 > l2.0);
        log.close();
    }

    /// Two session ids routed to different stripes of `log`.
    fn distinct_stripe_sessions(log: &StripedLog) -> (u64, u64) {
        let n = log.stripe_count();
        let home = |id: u64| hash_route(id, n);
        let a = 1u64;
        let mut b = 2u64;
        while home(b) == home(a) {
            b += 1;
        }
        (a, b)
    }

    #[test]
    fn crash_truncates_to_merged_frontier() {
        let disks = mem_disks(2);
        let (a, b, l1, l2, l3);
        {
            let log = open_striped(&disks);
            (a, b) = distinct_stripe_sessions(&log);
            l1 = log.append(&rec(a, 0)); // stripe A — never flushed
            l2 = log.append(&rec(b, 0)); // stripe B
            l3 = log.append(&rec(b, 1)); // stripe B
                                         // Stripe B's arm runs ahead: its records are stripe-durable.
            let (sb, _) = log.locate(l2.0).unwrap();
            log.stripes()[sb].flush_all().unwrap();
            log.crash();
        }
        // Reopen: l1 died with stripe A's tail, so the merged prefix ends
        // before it — l2/l3 must be truncated even though their stripe
        // flushed them (they depend on a lost predecessor).
        let log = open_striped(&disks);
        assert_eq!(log.end_lsn().0, l1.0, "append point must be the gap");
        for lsn in [l1, l2, l3] {
            assert!(log.read_record(lsn).is_err(), "{lsn:?} must be gone");
        }
        // The truncated gsns are reused cleanly.
        let l4 = log.append(&rec(a, 9));
        assert_eq!(l4, l1);
        log.flush_to(l4).unwrap();
        assert_eq!(log.read_record(l4).unwrap(), rec(a, 9));
        log.close();
    }

    #[test]
    fn reopen_resumes_after_clean_close() {
        let disks = mem_disks(3);
        let mut lsns = Vec::new();
        {
            let log = open_striped(&disks);
            for i in 0..20 {
                lsns.push(log.append(&rec(i, i)));
            }
            log.close();
        }
        let log = open_striped(&disks);
        for (i, lsn) in lsns.iter().enumerate() {
            assert_eq!(
                log.read_record(*lsn).unwrap(),
                rec(i as u64, i as u64),
                "record {i} must survive a clean close"
            );
        }
        log.close();
    }

    #[test]
    fn merged_scan_yields_gsn_order() {
        let disks = mem_disks(3);
        let mut lsns = Vec::new();
        {
            let log = open_striped(&disks);
            for i in 0..40 {
                lsns.push((log.append(&rec(i, i)), rec(i, i)));
            }
            log.close();
        }
        let log = open_striped(&disks);
        let mut scan = log.scan_from(Lsn(DATA_START));
        for (lsn, want) in &lsns {
            let (got_lsn, got) = scan.next().expect("record").unwrap();
            assert_eq!(got_lsn, *lsn);
            assert_eq!(&got, want);
        }
        assert!(scan.next().is_none());
        assert_eq!(
            scan.position(),
            log.end_lsn(),
            "exhausted scan must sit at the append point"
        );
        log.close();
    }

    #[test]
    fn scan_from_midpoint_skips_earlier_records() {
        let disks = mem_disks(2);
        let log = open_striped(&disks);
        let mut lsns = Vec::new();
        for i in 0..10 {
            lsns.push(log.append(&rec(i, i)));
        }
        log.flush_all().unwrap();
        drop(log);
        let log = open_striped(&disks);
        let from = lsns[5];
        let got: Vec<Lsn> = log.scan_from(from).map(|r| r.unwrap().0).collect();
        assert_eq!(got, lsns[5..].to_vec());
        log.close();
    }

    #[test]
    fn single_stripe_behaves_like_a_plain_log() {
        let disks = mem_disks(1);
        let log = open_striped(&disks);
        let l1 = log.append(&rec(1, 0));
        log.flush_to(l1).unwrap();
        assert!(log.durable_lsn() > l1);
        assert_eq!(log.read_record(l1).unwrap(), rec(1, 0));
        log.close();
    }

    #[test]
    fn stripe_counters_accumulate() {
        let disks = mem_disks(2);
        let log = open_striped(&disks);
        let (a, b) = distinct_stripe_sessions(&log);
        let l1 = log.append(&rec(a, 0));
        let l2 = log.append(&rec(b, 0));
        log.flush_to(l1.max(l2)).unwrap();
        let stats = log.stats();
        assert_eq!(stats.stripe_appends, 2);
        assert!(
            stats.stripe_flushes >= 2,
            "a merged flush spanning two stripes issues two legs"
        );
        // Per-stripe breakdown: each stripe saw exactly one append.
        let per = log.stripe_stats();
        assert_eq!(per.len(), 2);
        assert_eq!(per[0].appends, 1);
        assert_eq!(per[1].appends, 1);
        log.close();
    }

    #[test]
    fn replay_cache_translates_gsns() {
        let disks = mem_disks(2);
        let mut lsns = Vec::new();
        {
            let log = open_striped(&disks);
            for i in 0..16 {
                lsns.push(log.append(&rec(i, i)));
            }
            log.close();
        }
        let wal = Wal::Striped(open_striped(&disks));
        let cache = WalReplayCache::new(&wal, 8);
        for (i, lsn) in lsns.iter().enumerate() {
            let (got, framed) = cache.read_record_sized(*lsn).unwrap();
            assert_eq!(got, rec(i as u64, i as u64));
            assert!(framed > 0);
        }
        wal.close();
    }

    fn total_footprint(disks: &[MemDisk]) -> u64 {
        disks.iter().map(|d| d.footprint()).sum()
    }

    #[test]
    fn striped_truncation_reclaims_and_survives_reopen() {
        let disks = mem_disks(3);
        let log = open_striped(&disks);
        let mut lsns = Vec::new();
        for i in 0..30 {
            lsns.push((log.append(&rec(i, i)), rec(i, i)));
        }
        log.flush_all().unwrap();
        let before = total_footprint(&disks);
        let floor = lsns[12].0;
        let reclaimed = log.truncate_below(floor).unwrap();
        assert!(reclaimed > 0, "truncation must free device bytes");
        assert_eq!(log.floor(), floor, "floor snaps to the requested record");
        assert_eq!(total_footprint(&disks), before - reclaimed);
        let want: Vec<_> = lsns[12..].to_vec();
        // Survivors still read individually; reclaimed gsns do not.
        assert_eq!(log.read_record(lsns[20].0).unwrap(), lsns[20].1);
        assert!(log.read_record(lsns[3].0).is_err());
        log.close();

        // Reopen: floor comes back, survivors merge contiguously from it.
        let log = open_striped(&disks);
        assert_eq!(log.floor(), floor);
        let got: Vec<_> = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
        assert_eq!(got, want);
        // And the log keeps working.
        let end_before = log.end_lsn();
        let next = log.append(&rec(99, 0));
        assert_eq!(next, end_before, "appends resume at the merged end");
        log.flush_to(next).unwrap();
        assert_eq!(log.read_record(next).unwrap(), rec(99, 0));
        log.close();
    }

    #[test]
    fn striped_truncation_with_no_survivors_floors_at_append_point() {
        let disks = mem_disks(2);
        let log = open_striped(&disks);
        for i in 0..10 {
            log.append(&rec(i, i));
        }
        log.flush_all().unwrap();
        let end = log.end_lsn();
        // Everything is reclaimable: the floor snaps to the append point.
        log.truncate_below(end).unwrap();
        assert_eq!(log.floor(), end);
        log.close();

        // Reopen at the empty-above-floor state, then append: the merge
        // must pick the new records up contiguously from the floor.
        let log = open_striped(&disks);
        assert_eq!(log.floor(), end);
        assert_eq!(log.end_lsn(), end);
        let l = log.append(&rec(42, 0));
        assert_eq!(l, end, "first post-truncation append sits at the floor");
        log.flush_to(l).unwrap();
        log.close();
        let log = open_striped(&disks);
        let got: Vec<_> = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
        assert_eq!(got, vec![(l, rec(42, 0))]);
        log.close();
    }

    #[test]
    fn crash_mid_striped_truncation_recovers() {
        let disks = mem_disks(3);
        let floor;
        let want: Vec<_>;
        {
            let log = open_striped(&disks);
            let mut lsns = Vec::new();
            for i in 0..24 {
                lsns.push((log.append(&rec(i, i)), rec(i, i)));
            }
            log.flush_all().unwrap();
            floor = lsns[10].0;
            want = lsns[10..].to_vec();
            // Merged floor persisted on every disk, no local truncation.
            log.install_fault_plan(FaultPlan::armed(CrashPoint::TruncateStart, 1));
            assert!(matches!(log.truncate_below(floor), Err(MspError::Shutdown)));
        }
        // Reopen: the advanced floor wins, the interrupted per-stripe
        // truncations are completed, and the survivors match the
        // untruncated baseline above the floor.
        let log = open_striped(&disks);
        assert_eq!(log.floor(), floor);
        let got: Vec<_> = log.scan_from(Lsn(DATA_START)).map(|r| r.unwrap()).collect();
        assert_eq!(got, want);
        // Every stripe's local floor was persisted and its prefix zeroed.
        for (s, stripe) in log.stripes().iter().enumerate() {
            let lf = stripe.floor().0;
            if lf > DATA_START {
                let mut below = vec![9u8; (lf - DATA_START) as usize];
                disks[s].read(DATA_START, &mut below).unwrap();
                assert!(
                    below.iter().all(|&b| b == 0),
                    "stripe {s}: open must finish the interrupted reclaim"
                );
            }
        }
        log.close();
    }

    #[test]
    fn striped_oldest_pending_flush_tracks_merged_tickets() {
        let disks = mem_disks(2);
        let log = open_striped(&disks);
        assert_eq!(log.oldest_pending_flush(), None);
        let l = log.append(&rec(1, 0));
        let t = log.flush_to_async(l);
        t.wait().unwrap();
        // Settled tickets deregister.
        assert_eq!(log.oldest_pending_flush(), None);
        log.close();
    }

    #[test]
    fn crashed_log_fails_merged_tickets() {
        let disks = mem_disks(2);
        let log = open_striped(&disks);
        let lsn = log.append(&rec(1, 0));
        log.crash();
        let ticket = log.flush_to_async(lsn);
        assert!(ticket.wait().is_err(), "post-crash flush must fail");
    }
}
