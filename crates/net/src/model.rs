//! Latency / fault model of a network link.

use std::time::Duration;

/// Behaviour of a link (or of the whole network when used as default).
///
/// The paper measured a 3.596 ms round trip between MSPs and 3.9 ms
/// between the end client and MSP1 on 100 Mbps Ethernet; [`NetModel`]
/// defaults to the MSP↔MSP figure. One-way delay is `rtt/2 ± jitter`,
/// scaled by `time_scale` (same convention as the disk model).
#[derive(Debug, Clone)]
pub struct NetModel {
    /// Unscaled one-way latency.
    pub one_way: Duration,
    /// Uniform jitter added to each delivery, `[0, jitter)`. Jitter makes
    /// messages overtake one another — the out-of-order delivery the
    /// protocols must tolerate.
    pub jitter: Duration,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delivered twice.
    pub dup_prob: f64,
    /// Multiplier applied to all delays (0 = instantaneous delivery).
    pub time_scale: f64,
}

impl Default for NetModel {
    fn default() -> NetModel {
        NetModel {
            one_way: Duration::from_micros(1798), // 3.596 ms RTT / 2
            jitter: Duration::from_micros(100),
            drop_prob: 0.0,
            dup_prob: 0.0,
            time_scale: 0.02,
        }
    }
}

impl NetModel {
    /// Instantaneous, reliable delivery (plain unit tests).
    pub fn zero() -> NetModel {
        NetModel {
            time_scale: 0.0,
            ..NetModel::default()
        }
    }

    /// The paper's client↔MSP link (3.9 ms RTT).
    pub fn client_link() -> NetModel {
        NetModel {
            one_way: Duration::from_micros(1950),
            ..NetModel::default()
        }
    }

    /// # Panics
    /// If `scale` is negative or not finite.
    #[must_use]
    pub fn with_scale(mut self, scale: f64) -> NetModel {
        self.time_scale = msp_types::checked_time_scale(scale);
        self
    }

    #[must_use]
    pub fn with_faults(mut self, drop_prob: f64, dup_prob: f64) -> NetModel {
        self.drop_prob = drop_prob;
        self.dup_prob = dup_prob;
        self
    }

    /// Scaled one-way delay for a message, given a jitter sample in
    /// `[0, 1)`.
    pub fn delay(&self, jitter_sample: f64) -> Duration {
        if self.time_scale == 0.0 {
            return Duration::ZERO;
        }
        (self.one_way + self.jitter.mul_f64(jitter_sample)).mul_f64(self.time_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_rtt() {
        let m = NetModel::default().with_scale(1.0);
        let rtt = m.delay(0.0) * 2;
        let us = rtt.as_micros();
        assert!(
            (3500..3700).contains(&us),
            "RTT = {us} µs, paper says 3596 µs"
        );
    }

    #[test]
    fn zero_model_is_instant() {
        assert_eq!(NetModel::zero().delay(0.9), Duration::ZERO);
    }

    #[test]
    fn jitter_widens_delay() {
        let m = NetModel::default().with_scale(1.0);
        assert!(m.delay(0.99) > m.delay(0.0));
    }

    #[test]
    fn scale_shrinks_delay() {
        let full = NetModel::default().with_scale(1.0).delay(0.0);
        let small = NetModel::default().with_scale(0.1).delay(0.0);
        assert!(small < full);
    }
}
