//! Process-wide buffer pool for replay block reads.
//!
//! PR 3's `ReplayCache` gave each recovering MSP its own fixed clock
//! cache; co-located runtimes (sharded deployments, striped logs) each
//! carved private pools out of memory that none of them could share.
//! This module hoists the slot pool one level up: one `BufferPool` per
//! process, holding 64 KB log blocks keyed by `(source, block)` where a
//! *source* is one registered consumer (one `ReplayCache` view over one
//! physical log or stripe). Views borrow slots from the common pool, so
//! a shard that finishes recovery early returns its memory to the shard
//! still replaying, and the whole pool is observable as one stats block.
//!
//! Replacement is second-chance clock: one reference bit per slot, a
//! hand that clears bits until it finds a cold slot. Crash recovery
//! replays from the records its analysis scan retained, so the pool
//! serves only the tail of a replay window longer than a session's
//! retained queue — a mostly sequential block walk, which is what clock
//! is cheap and good enough for.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use msp_types::MspError;

/// One pooled block.
struct Slot {
    /// `(source, block_no)` owner, `None` while the slot is free.
    key: Option<(u32, u64)>,
    data: Arc<Vec<u8>>,
    /// Clock reference bit: set on install and on every demand hit.
    referenced: bool,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            key: None,
            data: Arc::new(Vec::new()),
            referenced: false,
        }
    }
}

struct PoolInner {
    map: HashMap<(u32, u64), usize>,
    slots: Vec<Slot>,
    /// Slot indices with no resident block (initial fill + retired
    /// sources); consumed before any eviction.
    free: Vec<usize>,
    /// Clock hand over `slots`.
    hand: usize,
}

/// Monotone pool counters.
#[derive(Default)]
struct PoolStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// Point-in-time copy of the pool counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// Demand reads served from a resident block.
    pub pool_hits: u64,
    /// Demand reads that had to fetch from the device.
    pub pool_misses: u64,
    /// Occupied blocks displaced to make room.
    pub pool_evictions: u64,
    /// Demand hits whose block was loaded by a prefetcher. Nothing
    /// prefetches into the pool any more; kept (reading 0) for the
    /// consumers of this snapshot.
    pub pool_prefetch_hits: u64,
    /// Blocks loaded by prefetch; reads 0, see `pool_prefetch_hits`.
    pub pool_prefetched_blocks: u64,
}

impl PoolStatsSnapshot {
    /// Counters accumulated since `base` (field-wise saturating delta).
    pub fn since(&self, base: &PoolStatsSnapshot) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            pool_hits: self.pool_hits.saturating_sub(base.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(base.pool_misses),
            pool_evictions: self.pool_evictions.saturating_sub(base.pool_evictions),
            pool_prefetch_hits: self
                .pool_prefetch_hits
                .saturating_sub(base.pool_prefetch_hits),
            pool_prefetched_blocks: self
                .pool_prefetched_blocks
                .saturating_sub(base.pool_prefetched_blocks),
        }
    }

    /// Field-wise sum (aggregating across pools/processes).
    pub fn merge(&self, other: &PoolStatsSnapshot) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            pool_hits: self.pool_hits + other.pool_hits,
            pool_misses: self.pool_misses + other.pool_misses,
            pool_evictions: self.pool_evictions + other.pool_evictions,
            pool_prefetch_hits: self.pool_prefetch_hits + other.pool_prefetch_hits,
            pool_prefetched_blocks: self.pool_prefetched_blocks + other.pool_prefetched_blocks,
        }
    }
}

/// What a demand [`BufferPool::get`] did, so the calling view can charge
/// its per-log counters without the pool knowing about `LogStats`.
#[derive(Debug, Clone, Copy)]
pub struct PoolReadOutcome {
    /// Served from a resident block without touching the device.
    pub hit: bool,
    /// Installing the block displaced another occupied slot.
    pub evicted: bool,
}

/// Fixed-size, process-wide pool of 64 KB log blocks shared by every
/// registered consumer. See the module docs.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    stats: PoolStats,
    next_source: AtomicU32,
}

impl BufferPool {
    /// A pool of `blocks` slots (clamped to at least 1).
    pub fn new(blocks: usize) -> BufferPool {
        let blocks = blocks.max(1);
        let slots = (0..blocks).map(|_| Slot::empty()).collect();
        BufferPool {
            inner: Mutex::new(PoolInner {
                map: HashMap::new(),
                slots,
                free: (0..blocks).rev().collect(),
                hand: 0,
            }),
            stats: PoolStats::default(),
            next_source: AtomicU32::new(0),
        }
    }

    /// Allocate a fresh source id for one consumer (one replay view over
    /// one physical log or stripe).
    pub fn register(&self) -> u32 {
        self.next_source.fetch_add(1, Ordering::Relaxed)
    }

    /// Drop every block a source loaded, returning its slots to the free
    /// list (called when a view is dropped, e.g. recovery finished).
    pub fn retire(&self, source: u32) {
        let mut inner = self.inner.lock();
        let keys: Vec<(u32, u64)> = inner
            .map
            .keys()
            .filter(|k| k.0 == source)
            .copied()
            .collect();
        for key in keys {
            let slot = inner.map.remove(&key).expect("key just listed");
            inner.slots[slot] = Slot::empty();
            inner.free.push(slot);
        }
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            pool_hits: self.stats.hits.load(Ordering::Relaxed),
            pool_misses: self.stats.misses.load(Ordering::Relaxed),
            pool_evictions: self.stats.evictions.load(Ordering::Relaxed),
            ..PoolStatsSnapshot::default()
        }
    }

    /// Whether `(source, block_no)` is resident (no touch, no counting).
    pub fn contains(&self, source: u32, block_no: u64) -> bool {
        self.inner.lock().map.contains_key(&(source, block_no))
    }

    /// Demand read: return the resident block, or run `fetch` (outside
    /// the pool lock — concurrent readers keep hitting meanwhile) and
    /// install the result. The outcome tells the caller what to charge.
    pub fn get(
        &self,
        source: u32,
        block_no: u64,
        fetch: impl FnOnce() -> Result<Vec<u8>, MspError>,
    ) -> Result<(Arc<Vec<u8>>, PoolReadOutcome), MspError> {
        let key = (source, block_no);
        {
            let mut inner = self.inner.lock();
            if let Some(&slot) = inner.map.get(&key) {
                inner.slots[slot].referenced = true;
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((
                    Arc::clone(&inner.slots[slot].data),
                    PoolReadOutcome {
                        hit: true,
                        evicted: false,
                    },
                ));
            }
        }
        // Miss: the device read happens unlocked; a concurrent miss on
        // the same block may fetch too (both are real I/O, both counted
        // by the caller), but only the first install keeps its copy.
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        let data = Arc::new(fetch()?);
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&key) {
            inner.slots[slot].referenced = true;
            return Ok((
                Arc::clone(&inner.slots[slot].data),
                PoolReadOutcome {
                    hit: false,
                    evicted: false,
                },
            ));
        }
        let (slot, evicted) = Self::allocate(&mut inner);
        if evicted {
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // A new block gets one revolution of grace.
        inner.slots[slot] = Slot {
            key: Some(key),
            data: Arc::clone(&data),
            referenced: true,
        };
        inner.map.insert(key, slot);
        Ok((
            data,
            PoolReadOutcome {
                hit: false,
                evicted,
            },
        ))
    }

    /// A slot to install into: a free one if any, else the clock's victim
    /// (whose old mapping is removed here). The bool reports whether an
    /// occupied block was displaced.
    fn allocate(inner: &mut PoolInner) -> (usize, bool) {
        if let Some(slot) = inner.free.pop() {
            return (slot, false);
        }
        let victim = loop {
            let hand = inner.hand;
            inner.hand = (inner.hand + 1) % inner.slots.len();
            if inner.slots[hand].referenced {
                inner.slots[hand].referenced = false;
            } else {
                break hand;
            }
        };
        let key = inner.slots[victim].key.take().expect("victim is occupied");
        inner.map.remove(&key);
        (victim, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch(byte: u8) -> impl FnOnce() -> Result<Vec<u8>, MspError> {
        move || Ok(vec![byte; 8])
    }

    fn resident(pool: &BufferPool, src: u32, blocks: &[u64]) -> Vec<bool> {
        blocks.iter().map(|&b| pool.contains(src, b)).collect()
    }

    #[test]
    fn demand_reads_hit_after_first_fetch() {
        let pool = BufferPool::new(4);
        let src = pool.register();
        let (data, out) = pool.get(src, 7, fetch(0xAA)).unwrap();
        assert!(!out.hit);
        assert_eq!(*data, vec![0xAA; 8]);
        let (_, out) = pool.get(src, 7, || unreachable!("resident")).unwrap();
        assert!(out.hit);
        let s = pool.stats();
        assert_eq!((s.pool_hits, s.pool_misses), (1, 1));
    }

    #[test]
    fn sources_do_not_alias_blocks() {
        let pool = BufferPool::new(4);
        let (a, b) = (pool.register(), pool.register());
        pool.get(a, 0, fetch(1)).unwrap();
        let (data, out) = pool.get(b, 0, fetch(2)).unwrap();
        assert!(!out.hit, "same block number, different source");
        assert_eq!(*data, vec![2; 8]);
    }

    #[test]
    fn clock_grants_second_chance() {
        let pool = BufferPool::new(2);
        let src = pool.register();
        pool.get(src, 0, fetch(0)).unwrap();
        pool.get(src, 1, fetch(1)).unwrap();
        // Both referenced; the hand clears 0 then 1, wraps, evicts 0.
        pool.get(src, 2, fetch(2)).unwrap();
        assert_eq!(resident(&pool, src, &[0, 1, 2]), [false, true, true]);
        assert_eq!(pool.stats().pool_evictions, 1);
    }

    #[test]
    fn retire_returns_slots_without_evictions() {
        let pool = BufferPool::new(2);
        let (a, b) = (pool.register(), pool.register());
        pool.get(a, 0, fetch(0)).unwrap();
        pool.get(a, 1, fetch(1)).unwrap();
        pool.retire(a);
        assert!(!pool.contains(a, 0) && !pool.contains(a, 1));
        // Freed slots serve the other source without any displacement.
        pool.get(b, 0, fetch(2)).unwrap();
        pool.get(b, 1, fetch(3)).unwrap();
        assert_eq!(pool.stats().pool_evictions, 0);
    }

    #[test]
    fn snapshot_since_and_merge() {
        let a = PoolStatsSnapshot {
            pool_hits: 10,
            pool_misses: 4,
            pool_evictions: 2,
            pool_prefetch_hits: 3,
            pool_prefetched_blocks: 5,
        };
        let b = PoolStatsSnapshot {
            pool_hits: 7,
            pool_misses: 1,
            pool_evictions: 0,
            pool_prefetch_hits: 2,
            pool_prefetched_blocks: 4,
        };
        assert_eq!(
            a.since(&b),
            PoolStatsSnapshot {
                pool_hits: 3,
                pool_misses: 3,
                pool_evictions: 2,
                pool_prefetch_hits: 1,
                pool_prefetched_blocks: 1,
            }
        );
        assert_eq!(
            a.merge(&b),
            PoolStatsSnapshot {
                pool_hits: 17,
                pool_misses: 5,
                pool_evictions: 2,
                pool_prefetch_hits: 5,
                pool_prefetched_blocks: 9,
            }
        );
    }

    #[test]
    fn fetch_errors_do_not_poison_the_pool() {
        let pool = BufferPool::new(2);
        let src = pool.register();
        let err = pool
            .get(src, 0, || {
                Err(MspError::Io(std::io::Error::other("device gone")))
            })
            .unwrap_err();
        assert!(matches!(err, MspError::Io(_)));
        // The failed fetch installed nothing; a retry fetches cleanly.
        let (_, out) = pool.get(src, 0, fetch(9)).unwrap();
        assert!(!out.hit);
        assert_eq!(pool.stats().pool_misses, 2);
    }
}
