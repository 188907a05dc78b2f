//! The adaptive value/operation logging diet must be invisible except in
//! log bytes: a shared-variable RMW routed through a registered shared op
//! produces the same state whether the tracker logged it as a compact
//! `SharedOp` record or as the value pair — across crashes, recoveries,
//! chain-limit switchbacks, and cross-session contention. And in log
//! bytes it must pay: the diet's hot-path saving is pinned here.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig};
use msp_harness::{run_torture, SystemConfig, TortureOptions, WorkloadShape};
use msp_net::{NetModel, Network};
use msp_types::{DomainId, MspId};
use msp_wal::{DiskModel, MemDisk};

const SERVER: MspId = MspId(1);

/// Solo MSP whose `tick` method advances a per-session counter and
/// applies the registered `add` op to a 128-byte shared counter; the
/// reply is the session counter (the shared value is checked through
/// `dump_shared`, since op-mode replay never materializes it
/// per-session).
fn start_server(
    net: &Network<Envelope>,
    disk: Arc<MemDisk>,
    adaptive: bool,
) -> msp_core::MspHandle {
    let logging = LoggingConfig {
        session_ckpt_threshold: 600,
        shared_ckpt_writes: 9, // shared checkpoints break op chains too
        msp_ckpt_interval: Duration::from_millis(10),
        force_ckpt_after: 3,
        checkpoints_enabled: true,
        checkpoint_interval_bytes: 0,
    };
    start_server_with(net, disk, adaptive, logging, 128)
}

/// [`start_server`] under `logging`, the shared counter `width` bytes wide.
fn start_server_with(
    net: &Network<Envelope>,
    disk: Arc<MemDisk>,
    adaptive: bool,
    logging: LoggingConfig,
    width: usize,
) -> msp_core::MspHandle {
    let cluster = ClusterConfig::new().with_msp(SERVER, DomainId(1));
    MspBuilder::new(
        MspConfig::new(SERVER, DomainId(1))
            .with_time_scale(0.0)
            .with_logging(logging)
            .with_workers(3)
            .with_adaptive_logging(adaptive),
        cluster,
    )
    .disk_model(DiskModel::zero())
    .shared_var("total", vec![0u8; width])
    .shared_op("add", move |old, args| {
        let n = u64::from_le_bytes(old[..8].try_into().unwrap())
            + u64::from(args.first().copied().unwrap_or(1));
        let mut v = vec![0u8; width];
        v[..8].copy_from_slice(&n.to_le_bytes());
        v
    })
    .service("tick", |ctx, payload| {
        let mine = ctx
            .get_session("n")
            .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
            .unwrap_or(0)
            + 1;
        ctx.set_session("n", mine.to_le_bytes().to_vec());
        ctx.apply_shared("total", "add", payload)?;
        Ok(mine.to_le_bytes().to_vec())
    })
    .start(net, disk)
    .unwrap()
}

fn shared_total(handle: &msp_core::MspHandle) -> u64 {
    let shared = handle.dump_shared();
    u64::from_le_bytes(shared[0][..8].try_into().unwrap())
}

/// Drive `requests` ticks (each adding `add_arg`) through crashes at the
/// given points under one diet; return the final shared total.
fn drive(
    adaptive: bool,
    requests: u64,
    add_arg: u8,
    crash_after: &std::collections::BTreeSet<u64>,
    seed: u64,
) -> u64 {
    let net: Network<Envelope> = Network::new(NetModel::zero(), seed);
    let disk = Arc::new(MemDisk::new());
    let mut server = Some(start_server(&net, Arc::clone(&disk), adaptive));
    let mut client = MspClient::new(
        &net,
        1,
        ClientOptions {
            resend_timeout: Duration::from_millis(60),
            busy_backoff: Duration::from_millis(1),
            max_attempts: 100_000,
        },
    );
    for i in 1..=requests {
        let r = client.call(SERVER, "tick", &[add_arg]).unwrap();
        assert_eq!(
            u64::from_le_bytes(r[..8].try_into().unwrap()),
            i,
            "session counter at request {i} (adaptive={adaptive})"
        );
        if crash_after.contains(&i) {
            server.take().unwrap().crash();
            server = Some(start_server(&net, Arc::clone(&disk), adaptive));
        }
    }
    let total = shared_total(server.as_ref().unwrap());
    server.take().unwrap().shutdown();
    net.shutdown();
    total
}

/// Long chains on one session cross `OP_CHAIN_LIMIT` (32), forcing the
/// diet back to a value record mid-run; crashes on both sides of the
/// switch must still recover exactly-once, and the op-logged world must
/// agree with the value-logged one.
#[test]
fn op_chain_limit_switchback_survives_crashes() {
    let crash_after: std::collections::BTreeSet<u64> = [10, 30, 35, 40].into_iter().collect();
    let on = drive(true, 48, 3, &crash_after, 90);
    let off = drive(false, 48, 3, &crash_after, 91);
    assert_eq!(on, 48 * 3, "adaptive diet lost or duplicated an op");
    assert_eq!(on, off, "op-logged total diverged from value-logged");
}

/// Two sessions ping-ponging on the variable trip the contention
/// switchback (the tracker reverts to value pairs); crashes interleaved
/// with the ping-pong must still be exactly-once.
#[test]
fn contended_variable_survives_crashes_under_the_diet() {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 92);
    let disk = Arc::new(MemDisk::new());
    let mut server = Some(start_server(&net, Arc::clone(&disk), true));
    let opts = ClientOptions {
        resend_timeout: Duration::from_millis(60),
        busy_backoff: Duration::from_millis(1),
        max_attempts: 100_000,
    };
    let mut a = MspClient::new(&net, 1, opts.clone());
    let mut b = MspClient::new(&net, 2, opts);
    for i in 1..=20u64 {
        assert_eq!(
            u64::from_le_bytes(
                a.call(SERVER, "tick", &[1]).unwrap()[..8]
                    .try_into()
                    .unwrap()
            ),
            i
        );
        assert_eq!(
            u64::from_le_bytes(
                b.call(SERVER, "tick", &[1]).unwrap()[..8]
                    .try_into()
                    .unwrap()
            ),
            i
        );
        if i % 6 == 0 {
            server.take().unwrap().crash();
            server = Some(start_server(&net, Arc::clone(&disk), true));
        }
    }
    assert_eq!(shared_total(server.as_ref().unwrap()), 40);
    server.take().unwrap().shutdown();
    net.shutdown();
}

/// The diet's reason to exist, frozen from the retired PR 10 bench bin
/// (BENCH_PR10.json: 82 %): on the hot path — no checkpoints, one
/// session, a 256-byte variable — an op record must cost at least a
/// fifth less log than the read/write value pair it replaces.
#[test]
fn op_records_save_a_fifth_of_hot_path_log_bytes() {
    const OPS: u64 = 500;
    let bytes_per_op = |adaptive: bool| {
        let net: Network<Envelope> = Network::new(NetModel::zero(), 93);
        let logging = LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        };
        let disk = Arc::new(MemDisk::new());
        let server = start_server_with(&net, disk, adaptive, logging, 256);
        let mut client = MspClient::new(&net, 1, ClientOptions::default());
        for i in 1..=OPS {
            let r = client.call(SERVER, "tick", &[1]).unwrap();
            assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), i);
        }
        assert_eq!(shared_total(&server), OPS, "adaptive={adaptive}");
        let appended = server.log_stats().unwrap().appended_bytes;
        server.shutdown();
        net.shutdown();
        appended as f64 / OPS as f64
    };
    let (value, op) = (bytes_per_op(false), bytes_per_op(true));
    assert!(
        op <= 0.8 * value,
        "op logging costs {op:.0} B per RMW against {value:.0} B by value: \
         less than 20 % saved"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        .. ProptestConfig::default()
    })]

    /// For *any* crash schedule and op argument, the op-logged execution
    /// and the value-logged execution of the same RMW sequence land on
    /// the same exactly-once total.
    #[test]
    fn op_log_and_value_log_rmw_are_equivalent(
        crash_after in proptest::collection::btree_set(1u64..40, 0..5),
        add_arg in 1u8..9,
        seed in 0u64..1_000,
    ) {
        let on = drive(true, 40, add_arg, &crash_after, seed);
        let off = drive(false, 40, add_arg, &crash_after, seed.wrapping_add(7));
        prop_assert_eq!(on, 40 * u64::from(add_arg), "adaptive diet violated exactly-once");
        prop_assert_eq!(on, off, "diets diverged");
    }
}

/// Pinned-seed adaptive-ops crash storms on both log-based
/// configurations: the full §5.2 workload routed through shared ops,
/// under the same schedules the Default shape draws, holding the
/// three-layer exactly-once oracle.
#[test]
fn adaptive_ops_storms_hold_exactly_once() {
    for config in [SystemConfig::LoOptimistic, SystemConfig::Pessimistic] {
        for seed in [1u64, 5] {
            let mut opts = TortureOptions::new(seed, config);
            opts.shape = WorkloadShape::AdaptiveOps;
            opts.requests_per_client = 8;
            opts.settle_timeout = Duration::from_secs(90);
            let report = run_torture(&opts).unwrap_or_else(|msg| {
                panic!(
                    "adaptive-ops torture seed={seed} config={}: {msg}",
                    config.name()
                )
            });
            assert!(report.requests > 0, "storm drove no traffic: {report}");
            assert!(
                report.crashes > 0,
                "log-based storm injected no crashes: {report}"
            );
        }
    }
}
