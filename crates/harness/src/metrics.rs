//! Response-time series, throughput summaries and recovery-phase
//! breakdowns.

use std::time::{Duration, Instant};

use msp_core::runtime::RuntimeStatsSnapshot;

/// A series of per-request response times plus the wall-clock span that
/// produced them.
#[derive(Debug, Clone, Default)]
pub struct Series {
    samples: Vec<Duration>,
    elapsed: Duration,
}

impl Series {
    pub fn new() -> Series {
        Series::default()
    }

    pub fn push(&mut self, d: Duration) {
        self.samples.push(d);
    }

    pub fn set_elapsed(&mut self, e: Duration) {
        self.elapsed = e;
    }

    pub fn merge(&mut self, other: &Series) {
        self.samples.extend_from_slice(&other.samples);
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Condense into a [`Summary`].
    pub fn summary(&self) -> Summary {
        if self.samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let total: Duration = sorted.iter().sum();
        let n = sorted.len();
        let pct = |p: f64| sorted[((n - 1) as f64 * p) as usize];
        Summary {
            count: n as u64,
            avg: total / n as u32,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            max: *sorted.last().expect("non-empty"),
            throughput: if self.elapsed.is_zero() {
                0.0
            } else {
                n as f64 / self.elapsed.as_secs_f64()
            },
        }
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub count: u64,
    pub avg: Duration,
    pub p50: Duration,
    pub p95: Duration,
    pub p99: Duration,
    pub max: Duration,
    /// Requests per wall-clock second (simulated scale).
    pub throughput: f64,
}

impl Summary {
    /// Average in (scaled) milliseconds.
    pub fn avg_ms(&self) -> f64 {
        self.avg.as_secs_f64() * 1e3
    }

    pub fn max_ms(&self) -> f64 {
        self.max.as_secs_f64() * 1e3
    }

    /// Rescale a scaled-time measurement back to paper-equivalent
    /// milliseconds (divide by the time scale).
    pub fn avg_ms_paper(&self, time_scale: f64) -> f64 {
        if time_scale <= 0.0 {
            self.avg_ms()
        } else {
            self.avg_ms() / time_scale
        }
    }

    pub fn max_ms_paper(&self, time_scale: f64) -> f64 {
        if time_scale <= 0.0 {
            self.max_ms()
        } else {
            self.max_ms() / time_scale
        }
    }

    /// Throughput normalized to paper-equivalent requests/second
    /// (multiply by the time scale: simulated seconds pass `1/scale`
    /// times faster than paper seconds).
    pub fn throughput_paper(&self, time_scale: f64) -> f64 {
        if time_scale <= 0.0 {
            self.throughput
        } else {
            self.throughput * time_scale
        }
    }
}

/// Wall-clock breakdown of one MSP crash recovery, lifted from the
/// runtime's phase counters: the analysis log scan, the recovery
/// checkpoint, and the (possibly parallel) session-replay phase. Replay
/// is the pool's makespan, so it stays zero until the last session
/// finishes replaying.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryPhases {
    pub analysis: Duration,
    pub checkpoint: Duration,
    pub replay: Duration,
}

impl RecoveryPhases {
    /// Extract the phase timings from a runtime snapshot.
    pub fn from_stats(s: &RuntimeStatsSnapshot) -> RecoveryPhases {
        RecoveryPhases {
            analysis: Duration::from_nanos(s.recovery_analysis_nanos),
            checkpoint: Duration::from_nanos(s.recovery_checkpoint_nanos),
            replay: Duration::from_nanos(s.recovery_replay_nanos),
        }
    }

    /// Sum of the three phases (excludes inter-phase glue, so it is a
    /// lower bound on MTTR).
    pub fn total(&self) -> Duration {
        self.analysis + self.checkpoint + self.replay
    }

    pub fn analysis_ms(&self) -> f64 {
        self.analysis.as_secs_f64() * 1e3
    }

    pub fn checkpoint_ms(&self) -> f64 {
        self.checkpoint.as_secs_f64() * 1e3
    }

    pub fn replay_ms(&self) -> f64 {
        self.replay.as_secs_f64() * 1e3
    }
}

/// Poll [`msp_core::MspHandle::recovery_complete`] under a deadline.
///
/// Returns the recovery phase breakdown once the pool drains; past the
/// deadline it panics with `context` (tests put the run's seed there)
/// and the phase timings accumulated so far, instead of hanging CI
/// forever on a wedged recovery.
pub fn await_recovery(
    handle: &msp_core::MspHandle,
    timeout: Duration,
    context: &str,
) -> RecoveryPhases {
    let t0 = Instant::now();
    while !handle.recovery_complete() {
        if t0.elapsed() > timeout {
            let p = RecoveryPhases::from_stats(&handle.stats());
            panic!(
                "{context}: recovery did not drain within {timeout:?} \
                 (analysis {:.3} ms, checkpoint {:.3} ms, replay {:.3} ms so far)",
                p.analysis_ms(),
                p.checkpoint_ms(),
                p.replay_ms()
            );
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    RecoveryPhases::from_stats(&handle.stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty_series_is_zero() {
        assert_eq!(Series::new().summary(), Summary::default());
    }

    #[test]
    fn summary_statistics() {
        let mut s = Series::new();
        for ms in [1u64, 2, 3, 4, 100] {
            s.push(Duration::from_millis(ms));
        }
        s.set_elapsed(Duration::from_secs(1));
        let sum = s.summary();
        assert_eq!(sum.count, 5);
        assert_eq!(sum.max, Duration::from_millis(100));
        assert_eq!(sum.p50, Duration::from_millis(3));
        assert_eq!(sum.throughput, 5.0);
        assert!((sum.avg_ms() - 22.0).abs() < 1e-6);
    }

    #[test]
    fn paper_normalization() {
        let mut s = Series::new();
        s.push(Duration::from_millis(2));
        s.set_elapsed(Duration::from_millis(2));
        let sum = s.summary();
        // scale 0.02: 2 scaled ms == 100 paper ms; 500 scaled req/s ==
        // 10 paper req/s.
        assert!((sum.avg_ms_paper(0.02) - 100.0).abs() < 1e-6);
        assert!((sum.throughput_paper(0.02) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn recovery_phases_from_snapshot() {
        let s = RuntimeStatsSnapshot {
            recovery_analysis_nanos: 2_000_000,
            recovery_checkpoint_nanos: 500_000,
            recovery_replay_nanos: 7_500_000,
            ..Default::default()
        };
        let p = RecoveryPhases::from_stats(&s);
        assert_eq!(p.total(), Duration::from_millis(10));
        assert!((p.analysis_ms() - 2.0).abs() < 1e-9);
        assert!((p.checkpoint_ms() - 0.5).abs() < 1e-9);
        assert!((p.replay_ms() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Series::new();
        a.push(Duration::from_millis(1));
        a.set_elapsed(Duration::from_secs(1));
        let mut b = Series::new();
        b.push(Duration::from_millis(3));
        b.set_elapsed(Duration::from_secs(2));
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, Duration::from_millis(3));
        assert_eq!(s.throughput, 1.0, "uses the longest elapsed span");
    }
}
