//! The metric tables: every name the benchmark prints, with its unit,
//! which direction is better, and — for end-to-end metrics — how much
//! worse it may get before that is a regression. `BENCHMARK.json` repeats
//! these tables for the driver; a unit test keeps the two in step.

use crate::stats::Better::{self, Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the first median.
    pub bound: f64,
    /// Allowed worsening in the metric's own unit, when that is larger.
    pub floor_abs: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor_abs: 0.0,
    }
}

/// Every workload reports every one of these (see README, "End-to-end
/// metrics"). The driver has one bound per metric for all workloads, so
/// each bound is three times the widest run-to-run spread any workload
/// showed for that metric over ten seeds, capped at the driver's limit of
/// 0.25 (README, "Bounds": on the 2-core VM the CPU-bound `commit_cpu`
/// alone moves by a tenth between identical runs).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        floor_abs: 0.25,
        ..e2e("setup_s", "s", Lower, 0.25)
    },
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p99_ms", "ms", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("log_bytes_per_op", "B", Lower, 0.05),
    e2e("mttr_ms", "ms", Lower, 0.25),
    e2e("first_reply_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics, printed by the traced run. A metric of a layer the
/// workload bypasses reads 0.
pub const PER_LAYER: &[Layer] = &[
    layer("types.record_encode_ns", "ns", Lower),
    layer("types.record_decode_ns", "ns", Lower),
    layer("wal.append_ns", "ns", Lower),
    layer("wal.append_2t_ns", "ns", Lower),
    layer("wal.appends_per_op", "count", Lower),
    layer("wal.flushes_per_op", "count", Lower),
    layer("wal.sectors_per_flush", "count", Lower),
    layer("wal.padded_share", "ratio", Lower),
    layer("wal.group_commit_batches_per_flush", "count", Higher),
    layer("wal.flush_tickets_per_op", "count", Lower),
    layer("wal.device_busy_share", "ratio", Lower),
    layer("wal.flush_wait_us", "us", Lower),
    layer("wal.truncations", "count", Higher),
    layer("wal.bytes_reclaimed_per_op", "B", Higher),
    layer("wal.stripe_skew", "count", Lower),
    layer("wal.watermark_lag_us_per_flush", "us", Lower),
    layer("wal.stripe_flushes_per_op", "count", Lower),
    layer("wal.scan_mb_per_s", "MB/s", Higher),
    layer("wal.record_read_ns", "ns", Lower),
    layer("wal.pool_hit_rate", "ratio", Higher),
    layer("wal.pool_misses", "count", Lower),
    layer("wal.pool_evictions", "count", Lower),
    layer("wal.pool_prefetch_hits", "count", Higher),
    layer("core.session_checkpoints_per_s", "1/s", Lower),
    layer("core.msp_checkpoints_per_s", "1/s", Lower),
    layer("core.busy_replies_per_op", "count", Lower),
    layer("core.shard_skew", "count", Lower),
    layer("core.distributed_flushes_per_op", "count", Lower),
    layer("core.flush_rpcs_elided_share", "ratio", Higher),
    layer("core.flushes_elided_per_op", "count", Higher),
    layer("core.hop_wait_us_per_hop", "us", Lower),
    layer("core.worker_parks_per_op", "count", Lower),
    layer("core.async_reply_releases_per_op", "count", Higher),
    layer("core.async_send_releases_per_op", "count", Higher),
    layer("core.gates_pending_end", "count", Lower),
    layer("core.software_p50_ms", "ms", Lower),
    layer("core.recovery_analysis_ms", "ms", Lower),
    layer("core.recovery_checkpoint_ms", "ms", Lower),
    layer("core.recovery_replay_ms", "ms", Lower),
    layer("core.recovery_glue_ms", "ms", Lower),
    layer("core.recovery_pool_sessions", "count", Higher),
    layer("net.msgs_per_op", "count", Lower),
    layer("net.deliver_overhead_us", "us", Lower),
    layer("net.dead_letters", "count", Lower),
    layer("client.send_late_us", "us", Lower),
    layer("client.backlog_max", "count", Lower),
    layer("client.resends_per_op", "count", Lower),
    layer("client.busy_polls_per_op", "count", Lower),
    layer("client.over_50ms_share", "ratio", Lower),
    layer("client.achieved_rps", "1/s", Higher),
    layer("client.traced_p50_ms", "ms", Lower),
    layer("client.traced_rps", "1/s", Higher),
];

/// Named values in table order; setting a name the table lacks, or
/// leaving one unset, is a bug the run reports instead of printing a
/// partial result.
pub struct Values {
    names: Vec<&'static str>,
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn for_names(names: impl Iterator<Item = &'static str>) -> Values {
        let names: Vec<_> = names.collect();
        Values {
            values: vec![None; names.len()],
            names,
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.names.iter().position(|n| *n == name)?;
        self.values[i]
    }

    /// Every metric with its value, or the first name left unset.
    pub fn complete(&self) -> Result<Vec<(&'static str, f64)>, &'static str> {
        self.names
            .iter()
            .zip(&self.values)
            .map(|(n, v)| v.map(|v| (*n, v)).ok_or(*n))
            .collect()
    }
}

/// `part / whole`, 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
