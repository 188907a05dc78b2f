//! Durable-storage abstraction beneath the physical log.
//!
//! The paper ran on real 7200 RPM disks; our benches run on a simulated
//! disk so that (a) a "crash" can be simulated by dropping every volatile
//! structure while the disk's contents survive, and (b) timing comes from
//! the explicit [`crate::model::DiskModel`] rather than from whatever
//! hardware happens to host the benchmark. A real file-backed disk is also
//! provided for durability beyond the process.
//!
//! `Disk` implementations are purely mechanical: a write is durable when
//! `write` returns. All *timing* (rotational latency, seeks, transfer) is
//! charged by the log layer via the cost model, keeping the two concerns
//! independent and the model testable.

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// A durable, randomly addressable byte store.
pub trait Disk: Send + Sync {
    /// Write `data` at `offset`; the data is durable when this returns.
    fn write(&self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Read up to `buf.len()` bytes at `offset`; returns the number read
    /// (short only at end of device).
    fn read(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Current high-water mark: one past the last durable byte.
    fn len(&self) -> u64;

    /// Whether no byte has ever been written.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Release the byte range `[start, end)` back to the device: after
    /// this returns, the range reads as zeros and (where the backing
    /// store supports it) occupies no space. `len()` is unchanged — the
    /// log's offsets are absolute forever. The default is a no-op so
    /// existing implementations stay correct (reclaim is an optimisation;
    /// truncation safety never depends on it).
    fn reclaim(&self, _start: u64, _end: u64) -> io::Result<()> {
        Ok(())
    }

    /// Bytes of backing store the device currently occupies — `len()`
    /// minus whatever `reclaim` has released. The bounded-log torture
    /// tier asserts this stays under a cap even as `len()` grows.
    fn footprint(&self) -> u64 {
        self.len()
    }
}

/// The image of a [`MemDisk`]: one buffer that holds the device's bytes
/// *around* the reclaimed range instead of through it.
///
/// `bytes` is the device range `[0, head)` followed directly by
/// `[base, len)`; the gap `[head, base)` was reclaimed, reads as zeros and
/// is not stored. Until a reclaim compacts the buffer, `head` and `base`
/// are 0 and `bytes` is the flat image.
#[derive(Default)]
struct Image {
    bytes: Vec<u8>,
    head: u64,
    base: u64,
    /// The union of every `reclaim` call as one range (`lo >= hi` while
    /// none). The log only ever reclaims a growing prefix of the record
    /// area, so a single range models the punched hole exactly — and lets
    /// a repeated reclaim skip what an earlier one already released.
    hole: (u64, u64),
}

impl Image {
    fn len(&self) -> u64 {
        self.base + self.bytes.len() as u64 - self.head
    }

    /// Where in `bytes` the device bytes `[start, end)` are stored
    /// (`start <= end <= len`): the part below the gap and the part above
    /// it, either possibly empty.
    fn stored(&self, start: u64, end: u64) -> [std::ops::Range<usize>; 2] {
        let shift = self.base - self.head;
        let below = start.min(self.head)..end.min(self.head);
        let above = start.max(self.base) - shift..end.max(self.base) - shift;
        [
            below.start as usize..below.end as usize,
            above.start as usize..above.end as usize,
        ]
    }

    /// Zero what is stored of `[start, end)`.
    fn punch(&mut self, start: u64, end: u64) {
        let end = end.min(self.len());
        if start < end {
            for range in self.stored(start, end) {
                self.bytes[range].fill(0);
            }
        }
    }

    /// Stop storing the front of the hole once it outweighs the live
    /// bytes behind it: moving those down costs less than the reclaims
    /// that freed the space, and the buffer shrinks to what is live.
    fn compact(&mut self) {
        let (lo, hi) = self.hole;
        let cut = hi.min(self.len());
        let flat = self.base == 0 && self.head == 0;
        let from = if flat { lo } else { self.base };
        // A gap that is not wholly inside the hole (a write shrank it)
        // stays as it is.
        if cut <= from || lo > from || cut - from < self.len() - cut {
            return;
        }
        if flat {
            self.head = lo;
        }
        let at = self.head as usize;
        self.bytes.drain(at..at + (cut - from) as usize);
        self.base = cut;
        if self.bytes.capacity() / 4 > self.bytes.len() {
            self.bytes.shrink_to(2 * self.bytes.len());
        }
    }

    /// Store the gap again (as zeros): a write landed in it.
    fn flatten(&mut self) {
        let at = self.head as usize;
        let gap = (self.base - self.head) as usize;
        self.bytes.splice(at..at, std::iter::repeat_n(0u8, gap));
        self.head = 0;
        self.base = 0;
    }
}

/// Crash-survivable in-memory disk.
///
/// Cloning shares the same underlying storage, so a "restarted MSP" opens
/// the same `MemDisk` and sees exactly what was durable at the crash.
#[derive(Clone, Default)]
pub struct MemDisk {
    inner: Arc<Mutex<Image>>,
    reads: Arc<AtomicU64>,
}

impl MemDisk {
    pub fn new() -> MemDisk {
        MemDisk::default()
    }

    /// Snapshot of the durable contents as one flat image, reclaimed
    /// ranges as zeros (diagnostics / tests).
    pub fn snapshot(&self) -> Vec<u8> {
        let img = self.inner.lock();
        let (head, base) = (img.head as usize, img.base as usize);
        let mut out = vec![0u8; img.len() as usize];
        out[..head].copy_from_slice(&img.bytes[..head]);
        out[base..].copy_from_slice(&img.bytes[head..]);
        out
    }

    /// Device read operations served so far (shared across clones) —
    /// lets tests assert I/O batching, e.g. the scanner's read-ahead.
    pub fn read_count(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl Disk for MemDisk {
    fn write(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut img = self.inner.lock();
        let end = offset + data.len() as u64;
        let (lo, hi) = img.hole;
        if offset < hi && end > lo {
            // Live bytes inside the hole: shrink it to the part below the
            // write so a later reclaim zeroes them again. The log never
            // does this (its offsets only grow), so the coarse shrink
            // costs nothing where it matters.
            img.hole = (lo, offset.max(lo));
        }
        if offset < img.base && end > img.head {
            img.flatten();
        }
        let at = if offset < img.head {
            offset
        } else {
            offset - (img.base - img.head)
        } as usize;
        if img.bytes.len() < at + data.len() {
            img.bytes.resize(at + data.len(), 0);
        }
        img.bytes[at..at + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        let img = self.inner.lock();
        let len = img.len();
        if offset >= len {
            return Ok(0);
        }
        let total = buf.len().min((len - offset) as usize);
        let [below, above] = img.stored(offset, offset + total as u64);
        let (n_below, n_above) = (below.len(), above.len());
        buf[..n_below].copy_from_slice(&img.bytes[below]);
        buf[n_below..total - n_above].fill(0);
        buf[total - n_above..total].copy_from_slice(&img.bytes[above]);
        Ok(total)
    }

    fn len(&self) -> u64 {
        self.inner.lock().len()
    }

    fn reclaim(&self, start: u64, end: u64) -> io::Result<()> {
        if end <= start {
            return Ok(());
        }
        // Punch the hole: the range reads as zeros from now on, exactly
        // like the never-written gaps, and footprint stops counting it.
        // Only what no earlier reclaim covered is touched, so the log's
        // `reclaim(DATA_START, floor)` costs the floor's advance, not the
        // bytes ever logged.
        let mut img = self.inner.lock();
        let (lo, hi) = img.hole;
        if lo >= hi {
            img.punch(start, end);
            img.hole = (start, end);
        } else {
            img.punch(start, end.min(lo));
            img.punch(start.max(hi), end);
            img.hole = (lo.min(start), hi.max(end));
        }
        img.compact();
        Ok(())
    }

    fn footprint(&self) -> u64 {
        let img = self.inner.lock();
        let (lo, hi) = img.hole;
        let len = img.len();
        len - hi.min(len).saturating_sub(lo)
    }
}

/// File-backed disk using positional I/O plus `sync_data` for durability.
pub struct FileDisk {
    file: File,
    len: AtomicU64,
}

impl FileDisk {
    /// Open (creating if absent) the file at `path`.
    pub fn open(path: &Path) -> io::Result<FileDisk> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileDisk {
            file,
            len: AtomicU64::new(len),
        })
    }
}

impl Disk for FileDisk {
    fn write(&self, offset: u64, data: &[u8]) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(data, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(data)?;
        }
        self.file.sync_data()?;
        self.len
            .fetch_max(offset + data.len() as u64, Ordering::SeqCst);
        Ok(())
    }

    fn read(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            let mut read = 0;
            while read < buf.len() {
                let n = self.file.read_at(&mut buf[read..], offset + read as u64)?;
                if n == 0 {
                    break;
                }
                read += n;
            }
            Ok(read)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.read(buf)
        }
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &dyn Disk) {
        assert!(disk.is_empty());
        disk.write(0, b"hello").unwrap();
        assert_eq!(disk.len(), 5);
        disk.write(10, b"world").unwrap();
        assert_eq!(disk.len(), 15);

        let mut buf = [0u8; 5];
        assert_eq!(disk.read(0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        assert_eq!(disk.read(10, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"world");

        // Gap reads as zeros.
        let mut gap = [9u8; 5];
        assert_eq!(disk.read(5, &mut gap).unwrap(), 5);
        assert_eq!(&gap, &[0u8; 5]);

        // Reading past the end is short.
        let mut big = [0u8; 32];
        assert_eq!(disk.read(12, &mut big).unwrap(), 3);
        assert_eq!(disk.read(100, &mut big).unwrap(), 0);

        // Overwrite.
        disk.write(0, b"HELLO").unwrap();
        assert_eq!(disk.read(0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"HELLO");
    }

    #[test]
    fn memdisk_semantics() {
        exercise(&MemDisk::new());
    }

    #[test]
    fn filedisk_semantics() {
        let dir = std::env::temp_dir().join(format!("msp-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk-semantics.log");
        let _ = std::fs::remove_file(&path);
        exercise(&FileDisk::open(&path).unwrap());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reclaim_zeroes_and_shrinks_footprint() {
        let d = MemDisk::new();
        d.write(0, &[1u8; 4096]).unwrap();
        assert_eq!(d.footprint(), 4096);
        d.reclaim(512, 2048).unwrap();
        // Range reads as zeros; len is unchanged; footprint shrank.
        let mut buf = [9u8; 1536];
        assert_eq!(d.read(512, &mut buf).unwrap(), 1536);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(d.len(), 4096);
        assert_eq!(d.footprint(), 4096 - 1536);
        // Reclaim is idempotent and extends as one prefix range.
        d.reclaim(512, 2048).unwrap();
        d.reclaim(512, 3072).unwrap();
        assert_eq!(d.footprint(), 4096 - 2560);
        // A degenerate range is a no-op.
        d.reclaim(100, 100).unwrap();
        assert_eq!(d.footprint(), 4096 - 2560);
        // Growth past the hole counts again.
        d.write(4096, &[2u8; 1024]).unwrap();
        assert_eq!(d.footprint(), 5120 - 2560);
    }

    /// The layout `MemDisk` had before extents — one flat `Vec`, reclaim
    /// zero-fills, the hole is the union range — kept as the oracle the
    /// extent store must be indistinguishable from.
    #[derive(Default)]
    struct FlatDisk {
        bytes: Vec<u8>,
        hole: Option<(u64, u64)>,
    }

    impl FlatDisk {
        fn write(&mut self, offset: u64, data: &[u8]) {
            let end = offset as usize + data.len();
            if self.bytes.len() < end {
                self.bytes.resize(end, 0);
            }
            self.bytes[offset as usize..end].copy_from_slice(data);
        }

        fn reclaim(&mut self, start: u64, end: u64) {
            let lo = (start as usize).min(self.bytes.len());
            let hi = (end as usize).min(self.bytes.len());
            self.bytes[lo..hi].fill(0);
            let (l, h) = self.hole.unwrap_or((start, end));
            self.hole = Some((l.min(start), h.max(end)));
        }

        fn footprint(&self) -> u64 {
            let len = self.bytes.len() as u64;
            let (lo, hi) = self.hole.unwrap_or((0, 0));
            len - hi.min(len).saturating_sub(lo)
        }
    }

    /// Every observable of `d` equals the flat oracle's.
    fn assert_same(d: &MemDisk, flat: &FlatDisk, what: &str) {
        assert_eq!(d.len(), flat.bytes.len() as u64, "{what}: len");
        assert_eq!(d.snapshot(), flat.bytes, "{what}: image");
    }

    #[test]
    fn reads_cross_the_gap_a_compaction_left() {
        let d = MemDisk::new();
        let data: Vec<u8> = (0..300_000).map(|i| (i % 251) as u8 + 1).collect();
        d.write(0, &data).unwrap();
        // Most of the device is dead: the buffer keeps `[0, 512)` and the
        // live tail, and a read spanning all three sees head, zeros, tail.
        d.reclaim(512, 250_000).unwrap();
        assert_eq!(d.inner.lock().bytes.len(), 512 + 50_000, "gap not stored");
        assert_eq!(d.len(), 300_000);
        let mut buf = vec![9u8; 300_000];
        assert_eq!(d.read(0, &mut buf).unwrap(), 300_000);
        assert_eq!(&buf[..512], &data[..512]);
        assert!(buf[512..250_000].iter().all(|&b| b == 0));
        assert_eq!(&buf[250_000..], &data[250_000..]);
        // Reads wholly inside each part, and short only at the end.
        let mut part = [9u8; 100];
        assert_eq!(d.read(100_000, &mut part).unwrap(), 100);
        assert_eq!(part, [0u8; 100]);
        assert_eq!(d.read(249_950, &mut part).unwrap(), 100);
        assert_eq!(&part[..50], &[0u8; 50]);
        assert_eq!(&part[50..], &data[250_000..250_050]);
        assert_eq!(d.read(299_950, &mut part).unwrap(), 50);
        // Appends and sector-0 rewrites land on either side of the gap.
        d.write(300_000, &[7u8; 1000]).unwrap();
        d.write(0, &[8u8; 512]).unwrap();
        assert_eq!(d.len(), 301_000);
        let snap = d.snapshot();
        assert!(snap[..512].iter().all(|&b| b == 8));
        assert!(snap[300_000..].iter().all(|&b| b == 7));
        assert_eq!(d.footprint(), 301_000 - (250_000 - 512));
    }

    #[test]
    fn reclaim_is_idempotent_and_gives_the_memory_back() {
        let d = MemDisk::new();
        d.write(0, &vec![7u8; 1 << 20]).unwrap();
        d.reclaim(512, 900_000).unwrap();
        let before = d.snapshot();
        let fp = d.footprint();
        d.reclaim(512, 900_000).unwrap();
        d.reclaim(512, 4096).unwrap();
        assert_eq!(d.snapshot(), before);
        assert_eq!(d.footprint(), fp);
        // What is held is what is live — not what was ever written.
        let held = |d: &MemDisk| d.inner.lock().bytes.capacity();
        assert!(held(&d) < 400_000, "still holding {} bytes", held(&d));
        // A floor that keeps following the appends keeps the buffer at
        // the size of the live window.
        let mut end = 1u64 << 20;
        for _ in 0..200 {
            d.write(end, &[5u8; 100_000]).unwrap();
            end += 100_000;
            d.reclaim(512, end - 150_000).unwrap();
        }
        assert_eq!(d.len(), end);
        assert_eq!(d.footprint(), 512 + 150_000);
        assert!(held(&d) < 1_000_000, "holding {} bytes", held(&d));
        let snap = d.snapshot();
        assert!(snap[512..(end - 150_000) as usize].iter().all(|&b| b == 0));
        assert!(snap[(end - 150_000) as usize..].iter().all(|&b| b == 5));
    }

    #[test]
    fn a_write_into_the_hole_is_stored_and_reclaimed_again() {
        let d = MemDisk::new();
        let mut flat = FlatDisk::default();
        d.write(0, &[5u8; 200_000]).unwrap();
        flat.write(0, &[5u8; 200_000]);
        d.reclaim(512, 150_000).unwrap();
        flat.reclaim(512, 150_000);
        assert!(d.inner.lock().base > 0, "compacted");
        // Inside the dropped gap, and straddling its upper edge.
        for (offset, len) in [(1024u64, 16usize), (149_990, 20)] {
            d.write(offset, &vec![6u8; len]).unwrap();
            flat.write(offset, &vec![6u8; len]);
            assert_same(&d, &flat, "after a write into the hole");
        }
        // The hole no longer claims those bytes: a repeated reclaim must
        // zero them again.
        d.reclaim(512, 150_000).unwrap();
        flat.reclaim(512, 150_000);
        assert_same(&d, &flat, "after reclaiming again");
        assert_eq!(d.footprint(), 200_000 - (150_000 - 512));
    }

    #[test]
    fn scripted_log_sequence_matches_the_flat_layout() {
        // What a bounded log does to its device: sector-0 rewrites,
        // appends of mixed sizes, and `reclaim(512, floor)` with a floor
        // that only grows — sometimes repeated, sometimes up to the end.
        let d = MemDisk::new();
        let mut flat = FlatDisk::default();
        let mut x = 0x9E37_79B9u64;
        let mut next = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let (mut end, mut floor) = (512u64, 512u64);
        for step in 0..400u64 {
            match next() % 4 {
                0 => {
                    let sector = vec![(step % 255) as u8 + 1; 512];
                    d.write(0, &sector).unwrap();
                    flat.write(0, &sector);
                }
                1 | 2 => {
                    let n = (next() % 100_000) as usize + 1;
                    let data: Vec<u8> = (0..n)
                        .map(|i| ((step as usize + i) % 255) as u8 + 1)
                        .collect();
                    d.write(end, &data).unwrap();
                    flat.write(end, &data);
                    end += n as u64;
                }
                _ => {
                    floor = (floor + next() % 130_000).min(end);
                    d.reclaim(512, floor).unwrap();
                    flat.reclaim(512, floor);
                }
            }
            assert_eq!(d.len(), flat.bytes.len() as u64, "step {step}");
            assert_eq!(d.footprint(), flat.footprint(), "step {step}");
            // A read across wherever the gap currently is.
            let at = floor.saturating_sub(700);
            let mut got = vec![9u8; 1500];
            let n = d.read(at, &mut got).unwrap();
            let want = &flat.bytes[(at as usize).min(flat.bytes.len())..];
            assert_eq!(&got[..n], &want[..n.min(want.len())], "step {step}");
            assert_eq!(n, want.len().min(1500), "step {step}");
        }
        assert_same(&d, &flat, "at the end");
        let held = d.inner.lock().bytes.capacity() as u64;
        assert!(held < 4 * (end - floor) + 200_000, "holding {held} bytes");
    }

    #[test]
    fn arbitrary_writes_and_reclaims_match_the_flat_layout() {
        // Not what a log does: writes anywhere (into the hole, into the
        // dropped gap, far past the end) and reclaims of any range whose
        // union stays one range, as the single-range hole requires.
        let mut compactions = 0;
        for seed in 1..=20u64 {
            let d = MemDisk::new();
            let mut flat = FlatDisk::default();
            let mut x = seed;
            let mut next = move || {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x >> 33
            };
            for step in 0..300u64 {
                let len = flat.bytes.len() as u64;
                if next() % 3 == 0 {
                    let (lo, hi) = flat.hole.unwrap_or((next() % (len + 1), 0));
                    let start = lo
                        .saturating_sub(next() % 3000)
                        .min(next() % (hi.max(lo) + 1));
                    let end = start.max(lo) + next() % 50_000;
                    d.reclaim(start, end).unwrap();
                    flat.reclaim(start, end);
                } else {
                    let offset = next() % (len + 2000);
                    let data = vec![(step % 255) as u8 + 1; (next() % 20_000) as usize];
                    d.write(offset, &data).unwrap();
                    flat.write(offset, &data);
                    // The oracle's hole is an accounting range only; ours
                    // shrinks when written into, so compare contents.
                }
                assert_eq!(d.snapshot(), flat.bytes, "seed {seed} step {step}");
                compactions += usize::from(d.inner.lock().base > 0);
            }
        }
        assert!(
            compactions > 100,
            "the sequences never reached a compacted state"
        );
    }

    #[test]
    fn default_footprint_matches_len() {
        let dir = std::env::temp_dir().join(format!("msp-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk-footprint.log");
        let _ = std::fs::remove_file(&path);
        let d = FileDisk::open(&path).unwrap();
        d.write(0, &[1u8; 100]).unwrap();
        // The trait defaults: reclaim is a no-op, footprint == len.
        d.reclaim(0, 50).unwrap();
        assert_eq!(d.footprint(), d.len());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn memdisk_clone_shares_storage() {
        let a = MemDisk::new();
        let b = a.clone();
        a.write(0, b"shared").unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(b.read(0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"shared");
    }

    #[test]
    fn filedisk_reopen_preserves_contents() {
        let dir = std::env::temp_dir().join(format!("msp-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk-reopen.log");
        let _ = std::fs::remove_file(&path);
        {
            let d = FileDisk::open(&path).unwrap();
            d.write(0, b"persist").unwrap();
        }
        let d = FileDisk::open(&path).unwrap();
        assert_eq!(d.len(), 7);
        let mut buf = [0u8; 7];
        d.read(0, &mut buf).unwrap();
        assert_eq!(&buf, b"persist");
        std::fs::remove_file(&path).unwrap();
    }
}
