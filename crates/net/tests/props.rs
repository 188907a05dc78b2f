//! Property tests for the simulated network: fault injection loses or
//! duplicates messages but never corrupts, reorders-without-delivering,
//! or invents them, and no message arrives before its modelled delay.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msp_net::{EndpointId, NetModel, Network};
use msp_types::MspId;

fn msp(n: u32) -> EndpointId {
    EndpointId::Msp(MspId(n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// With duplication but no loss, every message sent is delivered at
    /// least once and nothing is invented.
    #[test]
    fn dup_only_network_delivers_everything(
        dup_prob in 0.0f64..0.9,
        count in 1u32..60,
        seed in 0u64..1_000,
    ) {
        let model = NetModel {
            one_way: Duration::from_micros(50),
            jitter: Duration::from_micros(200),
            drop_prob: 0.0,
            dup_prob,
            time_scale: 1.0,
        };
        let net: Network<u32> = Network::new(model, seed);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        for i in 0..count {
            a.send(msp(2), i);
        }
        let mut seen = vec![0u32; count as usize];
        let mut received = 0u64;
        while let Ok(v) = b.recv_timeout(Duration::from_millis(40)) {
            prop_assert!(v < count, "never invents messages");
            seen[v as usize] += 1;
            received += 1;
        }
        prop_assert!(seen.iter().all(|&c| c >= 1), "no silent loss: {seen:?}");
        let stats = net.stats();
        prop_assert_eq!(received, stats.delivered);
        prop_assert_eq!(stats.delivered, u64::from(count) + stats.duplicated);
        net.shutdown();
    }

    /// Sent + duplicated = delivered + dropped + dead-lettered +
    /// in flight, under arbitrary fault rates, when the recipient leaves
    /// after taking `taken` messages (links are instantaneous, so nothing
    /// stays in flight).
    #[test]
    fn conservation_of_messages(
        drop_prob in 0.0f64..1.0,
        dup_prob in 0.0f64..1.0,
        count in 1u32..60,
        taken in 0u64..200,
        seed in 0u64..1_000,
    ) {
        let model = NetModel {
            one_way: Duration::ZERO,
            jitter: Duration::ZERO,
            drop_prob,
            dup_prob,
            time_scale: 0.0,
        };
        let net: Network<u32> = Network::new(model, seed);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        for i in 0..count {
            a.send(msp(2), i);
        }
        let mut received = 0u64;
        while received < taken && b.recv_timeout(Duration::from_millis(25)).is_ok() {
            received += 1;
        }
        net.unregister(msp(2));
        let stats = net.stats();
        prop_assert_eq!(stats.sent, u64::from(count));
        prop_assert_eq!(received, stats.delivered);
        prop_assert_eq!(
            stats.delivered + stats.dropped + stats.dead_letter,
            u64::from(count) + stats.duplicated,
            "sent + duplicated = delivered + dropped + dead_letter + in flight (0)"
        );
        net.shutdown();
    }

    /// The same seed reproduces the same fault pattern (experiments are
    /// deterministic modulo thread scheduling).
    #[test]
    fn seeded_faults_are_reproducible(
        drop_prob in 0.1f64..0.9,
        count in 1u32..40,
        seed in 0u64..1_000,
    ) {
        let run = || {
            let model = NetModel {
                one_way: Duration::ZERO,
                jitter: Duration::ZERO,
                drop_prob,
                dup_prob: 0.0,
                time_scale: 0.0,
            };
            let net: Network<u32> = Network::new(model, seed);
            let a = net.register(msp(1));
            let b = net.register(msp(2));
            let mut got = Vec::new();
            for i in 0..count {
                a.send(msp(2), i);
            }
            while let Ok(v) = b.recv_timeout(Duration::from_millis(25)) {
                got.push(v);
            }
            net.shutdown();
            got
        };
        prop_assert_eq!(run(), run());
    }

    /// Under jitter and duplication no copy is handed over before its
    /// send time plus `NetModel::delay`. The delays are re-drawn from a
    /// generator seeded like the network's, in the network's draw order
    /// (duplicate?, original's jitter, duplicate's jitter), and the k-th
    /// receipt of a message is held to the k-th earliest of its copies'
    /// deadlines.
    #[test]
    fn no_message_arrives_before_its_delay(
        dup_prob in 0.01f64..0.9,
        count in 1u32..40,
        seed in 0u64..1_000,
    ) {
        let model = NetModel {
            one_way: Duration::from_micros(300),
            jitter: Duration::from_millis(3),
            drop_prob: 0.0,
            dup_prob,
            time_scale: 1.0,
        };
        let net: Network<u32> = Network::new(model.clone(), seed);
        let a = net.register(msp(1));
        let b = net.register(msp(2));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deadlines: Vec<Vec<Instant>> = Vec::new();
        for i in 0..count {
            let (dup, j1, j2) = (
                rng.random_bool(dup_prob),
                rng.random::<f64>(),
                rng.random::<f64>(),
            );
            let sent = Instant::now();
            a.send(msp(2), i);
            let mut copies = vec![sent + model.delay(j1)];
            if dup {
                copies.push(sent + model.delay(j2));
            }
            copies.sort_unstable();
            deadlines.push(copies);
        }
        let mut receipts: Vec<Vec<Instant>> = vec![Vec::new(); count as usize];
        while let Ok(v) = b.recv_timeout(Duration::from_millis(40)) {
            receipts[v as usize].push(Instant::now());
        }
        for (i, (got, due)) in receipts.iter().zip(&deadlines).enumerate() {
            prop_assert_eq!(got.len(), due.len(), "copies of message {}", i);
            for (k, (at, due)) in got.iter().zip(due).enumerate() {
                prop_assert!(
                    at >= due,
                    "copy {} of message {} arrived {:?} early",
                    k,
                    i,
                    *due - *at
                );
            }
        }
        net.shutdown();
    }
}
