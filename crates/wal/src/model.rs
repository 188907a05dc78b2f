//! Disk and network cost models (paper §5.1–§5.2).
//!
//! The evaluation's headline results are *flush-count* effects: locally
//! optimistic logging wins because it replaces `2m + 1` sequential flushes
//! per end-client request with one parallel distributed flush. To reproduce
//! those shapes without the authors' hardware we charge each flush the cost
//! the paper itself derives analytically:
//!
//! ```text
//! TFn = rot/2  +  n/63 · rot  +  n/63 · track_seek  (+ OS-seek share)
//! ```
//!
//! with `rot = 60000/7200 ms` and, following the paper's own crude
//! estimate `TF2 ≈ 4.5 + 10.5/3 ms`, a deterministic one-third share of a
//! full average seek added to every flush (the OS occasionally repositions
//! the head). A global `time_scale` shrinks all simulated delays so benches
//! finish quickly while preserving every ratio; `time_scale = 0` disables
//! sleeping entirely (unit tests).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::log::SECTOR_SIZE;

/// Cost model of the log device and of simulated message latency.
#[derive(Debug, Clone)]
pub struct DiskModel {
    /// Spindle speed; the paper's disks are 7200 RPM.
    pub rpm: u32,
    /// Default sectors per track (paper hardware table: 63).
    pub sectors_per_track: u32,
    /// Track-to-track seek (paper: 1.2 ms write / 1.0 ms read).
    pub track_seek_write: Duration,
    pub track_seek_read: Duration,
    /// Average random seek (paper: 10.5 ms write / 9.5 ms read).
    pub avg_seek_write: Duration,
    /// Deterministic share of a random seek charged per flush, modelling
    /// the OS occasionally moving the head (paper: TF2 ≈ 4.5 + 10.5/3 ms).
    pub os_seek_share: f64,
    /// Multiplier applied to every simulated delay. 1.0 = paper-scale
    /// milliseconds; the harness default is 0.02 (50× faster).
    pub time_scale: f64,
}

impl Default for DiskModel {
    fn default() -> DiskModel {
        DiskModel {
            rpm: 7200,
            sectors_per_track: 63,
            track_seek_write: Duration::from_micros(1200),
            track_seek_read: Duration::from_micros(1000),
            avg_seek_write: Duration::from_micros(10_500),
            os_seek_share: 1.0 / 3.0,
            time_scale: 0.02,
        }
    }
}

impl DiskModel {
    /// A model that charges no time at all (plain unit tests).
    pub fn zero() -> DiskModel {
        DiskModel {
            time_scale: 0.0,
            ..DiskModel::default()
        }
    }

    /// A model at the paper's native millisecond scale.
    pub fn paper_scale() -> DiskModel {
        DiskModel {
            time_scale: 1.0,
            ..DiskModel::default()
        }
    }

    /// With a different time scale.
    ///
    /// # Panics
    /// If `scale` is negative or not finite.
    #[must_use]
    pub fn with_scale(mut self, scale: f64) -> DiskModel {
        self.time_scale = msp_types::checked_time_scale(scale);
        self
    }

    /// One full rotation.
    fn rotation(&self) -> Duration {
        Duration::from_secs_f64(60.0 / f64::from(self.rpm))
    }

    /// `d` of paper time at this model's scale.
    pub(crate) fn scaled(&self, d: Duration) -> Duration {
        d.mul_f64(self.time_scale)
    }

    /// Number of sectors needed for `bytes` bytes.
    pub fn sectors_for(bytes: u64) -> u64 {
        bytes.div_ceil(SECTOR_SIZE as u64)
    }

    /// Simulated duration of flushing `sectors` sectors (the paper's `TFn`
    /// plus the deterministic OS-seek share), already time-scaled.
    pub fn flush_cost(&self, sectors: u64) -> Duration {
        if sectors == 0 || self.time_scale == 0.0 {
            return Duration::ZERO;
        }
        let rot = self.rotation();
        let per_track = f64::from(self.sectors_per_track);
        let frac = sectors as f64 / per_track;
        let raw = rot.mul_f64(0.5)
            + rot.mul_f64(frac)
            + self.track_seek_write.mul_f64(frac)
            + self.avg_seek_write.mul_f64(self.os_seek_share);
        self.scaled(raw)
    }

    /// Simulated duration of a large sequential read of `sectors` sectors
    /// (used by recovery log scans; paper §5.4 formula).
    pub fn read_cost(&self, sectors: u64) -> Duration {
        if sectors == 0 || self.time_scale == 0.0 {
            return Duration::ZERO;
        }
        let rot = self.rotation();
        let per_track = f64::from(self.sectors_per_track);
        let frac = sectors as f64 / per_track;
        let raw = rot.mul_f64(0.5) + rot.mul_f64(frac) + self.track_seek_read.mul_f64(frac);
        self.scaled(raw)
    }

    /// Sleep for the simulated flush duration.
    pub fn charge_flush(&self, sectors: u64) {
        sleep_exact(self.flush_cost(sectors));
    }

    /// Sleep for the simulated sequential-read duration.
    pub fn charge_read(&self, sectors: u64) {
        sleep_exact(self.read_cost(sectors));
    }
}

/// Ceiling of the per-thread wake-up margin, and its value before the
/// thread has slept once: a thread whose sleeps return no later than this
/// is never late, and one whose sleeps return later still spins no more
/// than this per wait.
const MARGIN_CAP_NANOS: u64 = 150_000;

/// How far one observed wake-up moves the margin.
const MARGIN_STEP_NANOS: u64 = 2_000;

thread_local! {
    /// This thread's estimate of how late the OS returns from
    /// `thread::sleep`: a running median of the observed overshoot.
    static MARGIN_NANOS: Cell<u64> = const { Cell::new(MARGIN_CAP_NANOS) };
}

/// One step of the running median: towards `overshoot` by a fixed amount,
/// whatever its size, so a single scheduler hiccup of milliseconds moves
/// the estimate no further than an overshoot one microsecond above it.
fn step_margin(margin: u64, overshoot: u64) -> u64 {
    if overshoot > margin {
        (margin + MARGIN_STEP_NANOS).min(MARGIN_CAP_NANOS)
    } else {
        margin.saturating_sub(MARGIN_STEP_NANOS)
    }
}

/// Where one modelled wait's time went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Wait {
    slept: Duration,
    spun: Duration,
    late: Duration,
}

/// Block until `deadline`: sleep to `deadline` minus this thread's margin,
/// learn from how late that sleep returned, spin the rest. `None` if the
/// deadline had already passed.
fn wait_until(deadline: Instant) -> Option<Wait> {
    let start = Instant::now();
    let remaining = deadline
        .checked_duration_since(start)
        .filter(|r| !r.is_zero())?;
    let mut wait = Wait::default();
    let mut now = start;
    let margin = MARGIN_NANOS.get();
    if remaining > Duration::from_nanos(margin) {
        let ask = remaining - Duration::from_nanos(margin);
        std::thread::sleep(ask);
        now = Instant::now();
        wait.slept = now - start;
        let overshoot = wait.slept.saturating_sub(ask).as_nanos() as u64;
        MARGIN_NANOS.set(step_margin(margin, overshoot));
    }
    let spin_from = now;
    while now < deadline {
        std::hint::spin_loop();
        now = Instant::now();
    }
    wait.spun = now - spin_from;
    wait.late = now - deadline;
    Some(wait)
}

static WAITS: AtomicU64 = AtomicU64::new(0);
static SLEPT_NANOS: AtomicU64 = AtomicU64::new(0);
static SPUN_NANOS: AtomicU64 = AtomicU64::new(0);
static LATE_NANOS: AtomicU64 = AtomicU64::new(0);

/// Process-wide totals over every non-zero modelled wait since start-up.
/// Per wait: `slept_nanos` in `thread::sleep`, `spun_nanos` busy-waiting
/// for the deadline after it, `late_nanos` past the deadline on return.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStatsSnapshot {
    pub waits: u64,
    pub slept_nanos: u64,
    pub spun_nanos: u64,
    pub late_nanos: u64,
}

/// Snapshot of the wait counters; subtract two to get an interval.
pub fn wait_stats() -> WaitStatsSnapshot {
    WaitStatsSnapshot {
        waits: WAITS.load(Ordering::Relaxed),
        slept_nanos: SLEPT_NANOS.load(Ordering::Relaxed),
        spun_nanos: SPUN_NANOS.load(Ordering::Relaxed),
        late_nanos: LATE_NANOS.load(Ordering::Relaxed),
    }
}

/// Block the calling thread until `deadline`: the one way modelled time
/// passes. Never returns early. The OS sleeps for all but a margin that
/// each thread learns from its own wake-ups (the median lateness of
/// `thread::sleep`, at most 150 µs) and only that residual is spun, so a
/// wait costs a few microseconds of CPU and ends a few microseconds late
/// instead of burning a fixed margin to end on time. Waits shorter than
/// the margin spin in full; a deadline already past returns at once.
pub fn sleep_until(deadline: Instant) {
    let Some(wait) = wait_until(deadline) else {
        return;
    };
    WAITS.fetch_add(1, Ordering::Relaxed);
    SLEPT_NANOS.fetch_add(wait.slept.as_nanos() as u64, Ordering::Relaxed);
    SPUN_NANOS.fetch_add(wait.spun.as_nanos() as u64, Ordering::Relaxed);
    LATE_NANOS.fetch_add(wait.late.as_nanos() as u64, Ordering::Relaxed);
}

/// [`sleep_until`] `d` from now. A zero wait returns before the clock is
/// read (`time_scale` 0 must cost nothing).
pub fn sleep_exact(d: Duration) {
    if !d.is_zero() {
        sleep_until(Instant::now() + d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tf2_estimate_is_about_8ms() {
        // §5.2: "we crudely estimate TF2 to be 8ms (= 4.5 + 10.5/3)".
        let m = DiskModel::paper_scale();
        let tf2 = m.flush_cost(2);
        let ms = tf2.as_secs_f64() * 1e3;
        assert!((7.5..9.0).contains(&ms), "TF2 = {ms} ms, expected ≈ 8 ms");
    }

    #[test]
    fn flush_cost_monotone_in_sectors() {
        let m = DiskModel::paper_scale();
        let mut prev = Duration::ZERO;
        for n in 1..=128 {
            let c = m.flush_cost(n);
            assert!(c > prev);
            prev = c;
        }
    }

    #[test]
    fn recovery_read_matches_paper_figure() {
        // §5.4: reading 1 MB as 64 KB (128-sector) chunks "takes 370ms".
        let m = DiskModel::paper_scale();
        let chunks = 1_048_576 / 65_536; // 16 reads of 128 sectors
        let total: Duration = (0..chunks).map(|_| m.read_cost(128)).sum();
        let ms = total.as_secs_f64() * 1e3;
        assert!(
            (330.0..420.0).contains(&ms),
            "1MB scan = {ms} ms, paper says ≈ 370 ms"
        );
    }

    #[test]
    fn zero_model_charges_nothing() {
        let m = DiskModel::zero();
        assert_eq!(m.flush_cost(64), Duration::ZERO);
        assert_eq!(m.read_cost(64), Duration::ZERO);
    }

    #[test]
    fn scale_is_linear() {
        let full = DiskModel::paper_scale().flush_cost(4);
        let half = DiskModel::paper_scale().with_scale(0.5).flush_cost(4);
        let ratio = full.as_secs_f64() / half.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sectors_for_rounds_up() {
        assert_eq!(DiskModel::sectors_for(0), 0);
        assert_eq!(DiskModel::sectors_for(1), 1);
        assert_eq!(DiskModel::sectors_for(512), 1);
        assert_eq!(DiskModel::sectors_for(513), 2);
        assert_eq!(DiskModel::sectors_for(1536), 3);
    }

    #[test]
    fn waits_never_return_early() {
        for micros in [50, 154, 300, 900] {
            for _ in 0..500 {
                let deadline = Instant::now() + Duration::from_micros(micros);
                sleep_until(deadline);
                assert!(
                    Instant::now() >= deadline,
                    "{micros} us wait returned early"
                );
            }
        }
        let d = Duration::from_micros(300);
        let t0 = Instant::now();
        sleep_exact(d);
        assert!(t0.elapsed() >= d);
    }

    #[test]
    fn calibrated_waits_end_close_to_their_deadline() {
        // The property is that a calibrated thread is punctual when it
        // gets the core. A wake-up that waited a scheduler slice for a
        // busy core (other tests, a loaded host) is milliseconds late
        // under any margin and a handful of them are the whole mean, so
        // each round leaves out its latest tenth; an uncalibrated thread
        // (margin 0) is late by the full overshoot, 75–100 µs, on every
        // wait.
        let d = Duration::from_micros(300);
        let mut means = Vec::new();
        for _ in 0..3 {
            for _ in 0..50 {
                sleep_exact(d);
            }
            let mut late: Vec<Duration> = (0..300)
                .map(|_| {
                    let deadline = Instant::now() + d;
                    sleep_until(deadline);
                    deadline.elapsed()
                })
                .collect();
            late.sort_unstable();
            let kept = &late[..270];
            let mean = kept.iter().sum::<Duration>() / kept.len() as u32;
            if mean <= Duration::from_micros(60) {
                return;
            }
            means.push(mean);
        }
        panic!(
            "mean lateness of 300 us waits, latest tenth left out, over three rounds: {means:?}"
        );
    }

    #[test]
    fn one_hiccup_moves_the_margin_one_step() {
        let hiccup = 5_000_000;
        for margin in [0, 10_000, 75_000, MARGIN_CAP_NANOS - 1, MARGIN_CAP_NANOS] {
            let next = step_margin(margin, hiccup);
            assert!(next >= margin && next - margin <= MARGIN_STEP_NANOS);
            assert!(next <= MARGIN_CAP_NANOS);
        }
        // A run of them saturates at the cap, and punctual wake-ups bring
        // the margin back down to zero and no further.
        let mut margin = 0;
        for _ in 0..1000 {
            margin = step_margin(margin, hiccup);
        }
        assert_eq!(margin, MARGIN_CAP_NANOS);
        for _ in 0..1000 {
            margin = step_margin(margin, 0);
        }
        assert_eq!(margin, 0);
    }

    #[test]
    fn zero_and_sub_margin_waits_do_not_sleep() {
        // On a thread of its own: the margin starts at the cap.
        std::thread::spawn(|| {
            assert_eq!(wait_until(Instant::now()), None);
            let short = Duration::from_nanos(MARGIN_CAP_NANOS / 3);
            let wait = wait_until(Instant::now() + short).expect("deadline ahead");
            assert_eq!(wait.slept, Duration::ZERO);
            assert!(wait.spun > Duration::ZERO);
            assert_eq!(MARGIN_NANOS.get(), MARGIN_CAP_NANOS, "no sleep, no sample");
            // A wait longer than the margin does sleep.
            let wait = wait_until(Instant::now() + 4 * short).expect("deadline ahead");
            assert!(wait.slept > Duration::ZERO);
        })
        .join()
        .expect("wait thread");
    }

    #[test]
    fn wait_stats_account_for_a_wait() {
        // Process-wide counters and tests run in parallel: lower bounds only.
        let d = Duration::from_micros(300);
        let before = wait_stats();
        sleep_exact(d);
        let after = wait_stats();
        assert!(after.waits > before.waits);
        let waited =
            (after.slept_nanos - before.slept_nanos) + (after.spun_nanos - before.spun_nanos);
        assert!(u128::from(waited) >= d.as_nanos() / 2);
    }
}
