//! Macro-benchmark for the parallel recovery engine (PR 3).
//!
//! Builds a crash image the way §5.2's workload would leave one behind:
//! N end clients each hold a session with one log-based MSP and their
//! calls interleave round-robin, so every session's replay window spans
//! almost the whole log. Checkpoints are disabled to force full-window
//! replay. The MSP is then crashed and the disk snapshotted.
//!
//! Each measured run restores the identical image onto a fresh disk and
//! restarts the MSP under a scaled disk model, timing MTTR — wall clock
//! from the restart call until [`recovery_complete`] reports the replay
//! pool drained. The sweep covers the serial baseline
//! (`serial_recovery`: one thread, no cache, whole-window read charging)
//! against the parallel engine at recovery threads × replay-cache sizes,
//! for two session populations. Results go to `BENCH_PR3.json`, mirrored
//! on stdout.
//!
//! ```text
//! bench_pr3 [--calls N] [--scale S]
//! ```
//!
//! [`recovery_complete`]: msp_core::MspHandle::recovery_complete

use std::sync::Arc;
use std::time::{Duration, Instant};

use msp_core::config::LoggingConfig;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig};
use msp_harness::metrics::RecoveryPhases;
use msp_net::{NetModel, Network};
use msp_types::{DomainId, MspId};
use msp_wal::{Disk, DiskModel, FlushPolicy, MemDisk};

const MSP: MspId = MspId(1);

fn cluster() -> ClusterConfig {
    ClusterConfig::new().with_msp(MSP, DomainId(1))
}

fn base_cfg() -> MspConfig {
    MspConfig::new(MSP, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(4)
        .with_logging(LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        })
}

fn build_msp(
    net: &Network<Envelope>,
    disk: Arc<MemDisk>,
    cfg: MspConfig,
    model: DiskModel,
) -> msp_core::MspHandle {
    MspBuilder::new(cfg, cluster())
        .disk_model(model)
        .flush_policy(FlushPolicy::per_request())
        .shared_var("sv", 0u64.to_le_bytes().to_vec())
        .service("work", |ctx, payload| {
            let n = ctx
                .get_session("n")
                .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("n", n.to_le_bytes().to_vec());
            // §5.2 flavour: overwrite a 512 B slice of session state so
            // replay has real value-log records to apply.
            ctx.set_session("state", vec![(n % 251) as u8; 512]);
            let sv = u64::from_le_bytes(ctx.read_shared("sv")?[..8].try_into().unwrap()) + 1;
            ctx.write_shared("sv", sv.to_le_bytes().to_vec())?;
            let _ = payload;
            Ok(n.to_le_bytes().to_vec())
        })
        .start(net, disk)
        .expect("start MSP")
}

/// Drive `sessions` clients for `calls` rounds, round-robin so the
/// sessions interleave in the log, then crash. Returns the crash-time
/// disk image.
fn build_crash_image(sessions: u64, calls: u64) -> Vec<u8> {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 31 + sessions);
    let disk = Arc::new(MemDisk::new());
    let handle = build_msp(&net, Arc::clone(&disk), base_cfg(), DiskModel::zero());
    let mut clients: Vec<MspClient> = (0..sessions)
        .map(|i| MspClient::new(&net, 100 + i, Default::default()))
        .collect();
    let payload = vec![0x42u8; 100];
    for round in 0..calls {
        for (i, c) in clients.iter_mut().enumerate() {
            let r = c.call(MSP, "work", &payload).expect("load call");
            assert_eq!(
                u64::from_le_bytes(r[..8].try_into().unwrap()),
                round + 1,
                "session {i} out of step during load"
            );
        }
    }
    handle.crash();
    let image = disk.snapshot();
    net.shutdown();
    image
}

struct RunResult {
    mttr: Duration,
    phases: RecoveryPhases,
    pool_sessions: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    prefetch_chunks: u64,
}

impl RunResult {
    fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Restore `image` onto a fresh disk and restart the MSP under `cfg`,
/// timing restart-to-recovered (MTTR).
fn run_recovery(image: &[u8], cfg: MspConfig, scale: f64) -> RunResult {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 7);
    let disk = Arc::new(MemDisk::new());
    disk.write(0, image).expect("restore crash image");
    let model = DiskModel::default().with_scale(scale);
    let t0 = Instant::now();
    let handle = build_msp(&net, Arc::clone(&disk), cfg, model);
    msp_harness::await_recovery(&handle, Duration::from_secs(120), "bench_pr3");
    let mttr = t0.elapsed();
    let stats = handle.stats();
    let log = handle.log_stats().expect("log-based MSP has log stats");
    handle.shutdown();
    net.shutdown();
    RunResult {
        mttr,
        phases: RecoveryPhases::from_stats(&stats),
        pool_sessions: stats.recovery_pool_sessions,
        cache_hits: log.replay_cache_hits,
        cache_misses: log.replay_cache_misses,
        cache_evictions: log.replay_cache_evictions,
        prefetch_chunks: log.prefetch_chunks,
    }
}

fn run_json(sessions: u64, mode: &str, threads: usize, blocks: usize, r: &RunResult) -> String {
    format!(
        concat!(
            "{{ \"sessions\": {}, \"mode\": \"{}\", \"threads\": {}, ",
            "\"cache_blocks\": {}, \"mttr_ms\": {:.3}, ",
            "\"analysis_ms\": {:.3}, \"checkpoint_ms\": {:.3}, ",
            "\"replay_ms\": {:.3}, \"pool_sessions\": {}, ",
            "\"cache_hits\": {}, \"cache_misses\": {}, ",
            "\"cache_evictions\": {}, \"hit_rate\": {:.3}, ",
            "\"prefetch_chunks\": {} }}"
        ),
        sessions,
        mode,
        threads,
        blocks,
        r.mttr.as_secs_f64() * 1e3,
        r.phases.analysis_ms(),
        r.phases.checkpoint_ms(),
        r.phases.replay_ms(),
        r.pool_sessions,
        r.cache_hits,
        r.cache_misses,
        r.cache_evictions,
        r.hit_rate(),
        r.prefetch_chunks,
    )
}

fn main() {
    let mut calls = 24u64;
    let mut scale = 0.05f64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--calls" => calls = it.next().and_then(|v| v.parse().ok()).unwrap_or(calls),
            "--scale" => scale = it.next().and_then(|v| v.parse().ok()).unwrap_or(scale),
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }

    let threads_sweep = [1usize, 2, 4, 8];
    let cache_sweep = [16usize, 64];
    let mut rows: Vec<String> = Vec::new();
    let mut speedup_8t_64s = 0.0f64;
    let mut hit_rate_8t_64s = 0.0f64;
    let mut cache_reads_8t_64s = 0u64;

    for &sessions in &[16u64, 64] {
        let image = build_crash_image(sessions, calls);
        eprintln!(
            "crash image: {} sessions x {} calls, {} KB of log",
            sessions,
            calls,
            image.len() / 1024
        );

        let serial = run_recovery(&image, base_cfg().with_serial_recovery(true), scale);
        rows.push(run_json(sessions, "serial", 1, 0, &serial));
        eprintln!(
            "  serial: MTTR {:.1} ms (replay {:.1} ms)",
            serial.mttr.as_secs_f64() * 1e3,
            serial.phases.replay_ms()
        );

        for &threads in &threads_sweep {
            for &blocks in &cache_sweep {
                let cfg = base_cfg()
                    .with_recovery_threads(threads)
                    .with_replay_cache_blocks(blocks);
                let r = run_recovery(&image, cfg, scale);
                let speedup = serial.mttr.as_secs_f64() / r.mttr.as_secs_f64();
                eprintln!(
                    "  parallel {threads}t/{blocks}b: MTTR {:.1} ms ({speedup:.2}x, \
                     hit rate {:.2})",
                    r.mttr.as_secs_f64() * 1e3,
                    r.hit_rate()
                );
                if sessions == 64 && threads == 8 && blocks == 64 {
                    speedup_8t_64s = speedup;
                    hit_rate_8t_64s = r.hit_rate();
                    cache_reads_8t_64s = r.cache_hits + r.cache_misses;
                }
                rows.push(run_json(sessions, "parallel", threads, blocks, &r));
            }
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pr3_parallel_recovery\",\n",
            "  \"workload\": {{ \"calls_per_session\": {}, \"disk_scale\": {}, ",
            "\"checkpoints\": false }},\n",
            "  \"runs\": [\n    {}\n  ],\n",
            "  \"summary\": {{\n",
            "    \"speedup_8t_64s\": {:.2},\n",
            "    \"hit_rate_8t_64s\": {:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        calls,
        scale,
        rows.join(",\n    "),
        speedup_8t_64s,
        hit_rate_8t_64s,
    );

    print!("{json}");
    std::fs::write("BENCH_PR3.json", &json).expect("write BENCH_PR3.json");

    assert!(
        speedup_8t_64s >= 3.0,
        "parallel recovery must be >=3x serial at 8 threads / 64 sessions, \
         got {speedup_8t_64s:.2}x"
    );
    // Replay is fed from the records the analysis scan retained, so the
    // cache normally sees no read at all (the rate then reads 0 of 0);
    // whatever does spill past a session's retained prefix must hit.
    assert!(
        cache_reads_8t_64s == 0 || hit_rate_8t_64s > 0.5,
        "replay cache hit rate must exceed 50%, got {hit_rate_8t_64s:.3} \
         of {cache_reads_8t_64s} reads"
    );
    eprintln!(
        "wrote BENCH_PR3.json ({speedup_8t_64s:.2}x at 8 threads/64 sessions, \
         hit rate {hit_rate_8t_64s:.2})"
    );
}
