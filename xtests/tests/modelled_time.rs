//! Modelled time must not cost CPU: the threads that stand in for the
//! disk sleep through their waits instead of spinning to the deadline.
//! Measured from the kernel's per-thread accounting, so Linux only.
#![cfg(target_os = "linux")]

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use msp_types::{RequestSeq, SessionId};
use msp_wal::model::sleep_exact;
use msp_wal::{DiskModel, FlushPolicy, LogRecord, MemDisk, PhysicalLog};

/// Kernel clock ticks per second as `/proc` reports them (`USER_HZ`,
/// 100 on every Linux port).
const TICKS_PER_SEC: f64 = 100.0;

/// Seconds of user-mode CPU charged to the thread whose `stat` file is
/// at `path` (field 14, `utime`).
fn user_seconds(path: impl AsRef<Path>) -> f64 {
    let stat = std::fs::read_to_string(path).expect("read thread stat");
    // The command name (field 2) may contain spaces; count from its `)`.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 2..];
    let utime: u64 = after_comm
        .split(' ')
        .nth(11)
        .and_then(|f| f.parse().ok())
        .expect("utime field");
    utime as f64 / TICKS_PER_SEC
}

#[test]
fn a_thread_of_modelled_waits_is_mostly_idle() {
    let (user, wall) = std::thread::spawn(|| {
        let t0 = Instant::now();
        for _ in 0..3000 {
            sleep_exact(Duration::from_micros(300));
        }
        (user_seconds("/proc/thread-self/stat"), t0.elapsed())
    })
    .join()
    .expect("waiting thread");
    // Most of a second, so the share is of some ninety ticks. Spinning a
    // fixed 150 µs margin, half of which the OS sleeps through, is 18 %.
    let share = user / wall.as_secs_f64();
    assert!(
        share <= 0.10,
        "{user:.2} s of user CPU in {wall:?} of modelled waits ({:.0} %)",
        share * 100.0
    );
}

#[test]
fn the_flusher_sleeps_through_its_flushes() {
    // The only log this test binary opens, so the only `log-flusher`.
    let log = PhysicalLog::open(
        Arc::new(MemDisk::new()),
        DiskModel::default().with_scale(0.02),
        FlushPolicy::per_request(),
    )
    .expect("open log");
    let rec = LogRecord::RequestReceive {
        session: SessionId(1),
        seq: RequestSeq(1),
        method: "m".into(),
        payload: vec![7; 64],
        sender_dv: None,
    };
    // A thread names itself once it runs; a completed flush shows it has.
    log.flush_to(log.append(&rec)).expect("flush");
    let flusher = std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .map(|e| e.expect("thread entry").path())
        .find(|p| {
            std::fs::read_to_string(p.join("comm")).is_ok_and(|c| c.trim_end() == "log-flusher")
        })
        .expect("a log-flusher thread")
        .join("stat");

    // 4 000 one-sector flushes of 154 µs: most of a second, enough ticks
    // for the share to mean something.
    let before = user_seconds(&flusher);
    let t0 = Instant::now();
    for _ in 0..4000 {
        let lsn = log.append(&rec);
        log.flush_to(lsn).expect("flush");
    }
    let wall = t0.elapsed();
    let user = user_seconds(&flusher) - before;
    log.close();
    // Spinning each 154 µs flush in full is 71 % (the rest is the
    // appender's turnaround); the bound leaves room for the flusher's own
    // work, about a tenth.
    let share = user / wall.as_secs_f64();
    assert!(
        share < 0.25,
        "log-flusher: {user:.2} s of user CPU in {wall:?} of flushing ({:.0} %)",
        share * 100.0
    );
}
