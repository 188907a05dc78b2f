//! Per-layer probes of the traced run: each times one public call of one
//! layer from outside, over the log the run itself just wrote, and records
//! the call batch as a span.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{
    self, Decode, Disk, DiskModel, Encode, EndpointId, Envelope, FlushPolicy, LogRecord, Lsn,
    MemDisk, NetModel, Network, PhysicalLog, ReplayCache, SessionId,
};
use crate::metrics::{ratio, Values};
use crate::trace::Trace;

/// Records the codec and append probes cycle through.
const SAMPLE_RECORDS: usize = 4096;
const APPENDS: usize = 32_768;
/// Appends between two untimed flushes that empty the staging ring.
const APPEND_BATCH: usize = 256;
const FLUSH_ROUNDS: usize = 64;
const NET_PINGS: usize = 256;
/// Blocks of the probe's private replay cache (the library default).
const CACHE_BLOCKS: usize = 64;

pub struct Input<'a> {
    /// The durable bytes of the run's (first) log device.
    pub image: &'a [u8],
    /// The workload's device model and flush policy.
    pub model: DiskModel,
    pub policy: FlushPolicy,
    /// Time scale of the workload's MSP↔MSP links (0 = no network model).
    pub net_scale: f64,
    /// Log records one operation appends, rounded.
    pub records_per_op: usize,
    pub seed: u64,
}

fn restored(image: &[u8]) -> Arc<MemDisk> {
    let disk = Arc::new(MemDisk::new());
    disk.write(0, image).expect("restore log image");
    disk
}

fn open(disk: Arc<MemDisk>, model: DiskModel, policy: FlushPolicy) -> Arc<PhysicalLog> {
    PhysicalLog::open(disk, model, policy).expect("open probe log")
}

/// One thread's share of the append probe: timed batches of appends with
/// an untimed flush after each. Returns the batch intervals.
fn append_batches(
    log: &PhysicalLog,
    sample: &[LogRecord],
    appends: usize,
) -> Vec<(Instant, Instant)> {
    let mut spans = Vec::with_capacity(appends / APPEND_BATCH);
    let mut cycle = sample.iter().cycle();
    for _ in 0..appends / APPEND_BATCH {
        let start = Instant::now();
        let mut last = Lsn(0);
        for rec in cycle.by_ref().take(APPEND_BATCH) {
            last = log.append(black_box(rec));
        }
        spans.push((start, Instant::now()));
        log.flush_to(last).expect("probe flush");
    }
    spans
}

pub fn run(input: &Input<'_>, trace: &mut Trace, values: &mut Values) {
    let mut next_id = 1u64 << 40; // apart from request ids
    let mut id = || {
        next_id += 1;
        next_id
    };

    // wal, read side: scan the run's own log under the workload's device
    // model, as the analysis pass of a recovery would.
    let log = open(restored(input.image), input.model.clone(), input.policy);
    let from = log.floor();
    let mut sample: Vec<LogRecord> = Vec::new();
    let mut session: Option<SessionId> = None;
    let mut session_lsns: Vec<Lsn> = Vec::new();
    let start = Instant::now();
    let mut scanner = log.scan_from_pipelined(from);
    for item in scanner.by_ref() {
        let (lsn, rec) = item.expect("scan the run's log");
        if let Some(s) = rec.session() {
            if *session.get_or_insert(s) == s && session_lsns.len() < SAMPLE_RECORDS {
                session_lsns.push(lsn);
            }
        }
        if sample.len() < SAMPLE_RECORDS {
            sample.push(rec);
        }
    }
    let scanned = scanner.position().0 - from.0;
    drop(scanner);
    trace.span("probe.wal.scan", id(), None, start, Instant::now());
    log.close();
    assert!(!sample.is_empty(), "the run left no log records to probe");

    // types: the codec over those records.
    let encoded: Vec<Vec<u8>> = trace.timed("probe.types.encode", id(), None, || {
        sample.iter().map(|r| black_box(r).to_bytes()).collect()
    });
    trace.timed("probe.types.decode", id(), None, || {
        for bytes in &encoded {
            black_box(LogRecord::from_bytes(black_box(bytes)).expect("decode own encoding"));
        }
    });
    // wal, replay reads: one session's records through a replay cache,
    // no device model, so the figure is the software path.
    let log = open(restored(input.image), DiskModel::zero(), input.policy);
    let cache = ReplayCache::new(&log, CACHE_BLOCKS);
    trace.timed("probe.wal.record_read", id(), None, || {
        for lsn in &session_lsns {
            black_box(cache.read_record(*lsn).expect("read a scanned record"));
        }
    });
    drop(cache);
    log.close();
    // wal, write side: appends with no device model, one thread then two.
    let log = open(
        Arc::new(MemDisk::new()),
        DiskModel::zero(),
        FlushPolicy::immediate(),
    );
    for (start, end) in append_batches(&log, &sample, APPENDS) {
        trace.span("probe.wal.append", id(), None, start, end);
    }
    let batches = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|_| s.spawn(|| append_batches(&log, &sample, APPENDS / 2)))
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("append probe thread"))
            .collect::<Vec<_>>()
    });
    for (start, end) in batches {
        trace.span("probe.wal.append_2t", id(), None, start, end);
    }
    log.close();
    // wal, durability: one operation's records appended and flushed under
    // the workload's device model and flush policy.
    let log = open(Arc::new(MemDisk::new()), input.model.clone(), input.policy);
    let mut cycle = sample.iter().cycle();
    for _ in 0..FLUSH_ROUNDS {
        trace.timed("probe.wal.flush_wait", id(), None, || {
            let mut last = Lsn(0);
            for rec in cycle.by_ref().take(input.records_per_op.max(1)) {
                last = log.append(rec);
            }
            log.flush_to(last).expect("probe flush");
        });
    }
    log.close();
    // net: delivery time between two endpoints, less the modelled delay.
    let model = NetModel::default().with_scale(input.net_scale);
    let net: Network<Envelope> = Network::new(model.clone(), input.seed);
    let (a, b) = (EndpointId::Client(1), EndpointId::Client(2));
    let (ep_a, ep_b) = (net.register(a), net.register(b));
    for _ in 0..NET_PINGS {
        trace.timed("probe.net.deliver", id(), None, || {
            ep_a.send(b, api::request(SessionId(0), 0, "", &[], a));
            ep_b.recv_timeout(Duration::from_secs(2))
                .expect("probe message delivered");
        });
    }
    net.shutdown();

    // Every figure is a span name's self time over the calls it covered.
    let summary = trace.summary();
    let mean_ns = |name: &str, calls_per_span: usize| {
        summary.get(name).map_or(0.0, |t| {
            ratio(t.self_ns as f64, (t.count as usize * calls_per_span) as f64)
        })
    };
    values.set(
        "wal.scan_mb_per_s",
        ratio(scanned as f64 * 1e3, mean_ns("probe.wal.scan", 1)),
    );
    values.set(
        "types.record_encode_ns",
        mean_ns("probe.types.encode", sample.len()),
    );
    values.set(
        "types.record_decode_ns",
        mean_ns("probe.types.decode", sample.len()),
    );
    values.set(
        "wal.record_read_ns",
        mean_ns("probe.wal.record_read", session_lsns.len()),
    );
    values.set("wal.append_ns", mean_ns("probe.wal.append", APPEND_BATCH));
    values.set(
        "wal.append_2t_ns",
        mean_ns("probe.wal.append_2t", APPEND_BATCH),
    );
    values.set(
        "wal.flush_wait_us",
        mean_ns("probe.wal.flush_wait", 1) / 1e3,
    );
    values.set(
        "net.deliver_overhead_us",
        (mean_ns("probe.net.deliver", 1) - model.delay(0.5).as_nanos() as f64) / 1e3,
    );
}
