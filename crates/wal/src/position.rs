//! Per-session position streams (§3.2).
//!
//! "All sessions of an MSP share one physical log. To recover a session,
//! its log records need to be extracted from the shared log. To make such
//! extraction efficient, each session maintains a position stream
//! consisting of the positions (inside the physical log) of its log
//! records since the latest session checkpoint."
//!
//! The stream is volatile: positions lost in a crash are reconstructed by
//! the crash-recovery analysis scan. During orphan recovery the stream is
//! truncated to drop skipped (orphaned) records so that they become
//! invisible to any later recovery of the same session (§4.1).
//!
//! The paper flushes full position buffers to disk as a cost optimization;
//! we account for those flushes in the owner's `LogStats` via the physical
//! log when they would occur, but keep the positions in memory — the
//! observable behaviour (what recovery reads) is identical because the
//! scan rebuilds the stream regardless.

use msp_types::Lsn;

/// Ordered positions of one session's log records since its most recent
/// checkpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PositionStream {
    positions: Vec<Lsn>,
}

impl PositionStream {
    pub fn new() -> PositionStream {
        PositionStream::default()
    }

    /// Record that the session wrote a log record at `lsn`. Positions must
    /// arrive in increasing order (the log is append-only).
    pub fn push(&mut self, lsn: Lsn) {
        debug_assert!(
            self.positions.last().is_none_or(|&last| last < lsn),
            "positions must be strictly increasing"
        );
        self.positions.push(lsn);
    }

    /// Number of recorded positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Discard everything — done when a session checkpoint completes
    /// ("previous positions are discarded by truncating the position
    /// stream to zero length") or when the session ends.
    pub fn truncate(&mut self) {
        self.positions.clear();
    }

    /// Drop every position at or after `from` — orphan recovery removing
    /// the positions of skipped log records.
    pub fn truncate_from(&mut self, from: Lsn) {
        let idx = self.positions.partition_point(|&p| p < from);
        self.positions.truncate(idx);
    }

    /// Remove the closed position range `[from, to]` — used when an EOS
    /// record found during replay marks an embedded skip region while
    /// later records remain live (§4.3, "EOS Found").
    pub fn remove_range(&mut self, from: Lsn, to: Lsn) {
        self.positions.retain(|&p| p < from || p > to);
    }

    /// The positions, in order.
    pub fn iter(&self) -> impl Iterator<Item = Lsn> + '_ {
        self.positions.iter().copied()
    }

    /// Positions at or after `from`.
    pub fn iter_from(&self, from: Lsn) -> impl Iterator<Item = Lsn> + '_ {
        let idx = self.positions.partition_point(|&p| p < from);
        self.positions[idx..].iter().copied()
    }

    /// First recorded position, if any.
    pub fn first(&self) -> Option<Lsn> {
        self.positions.first().copied()
    }

    /// Last recorded position, if any.
    pub fn last(&self) -> Option<Lsn> {
        self.positions.last().copied()
    }

    /// Total log-byte span covered (for charging sequential read cost when
    /// replaying: `last - first` approximates the contiguous region read).
    pub fn span_bytes(&self) -> u64 {
        match (self.first(), self.last()) {
            (Some(a), Some(b)) => b.0.saturating_sub(a.0),
            _ => 0,
        }
    }
}

impl FromIterator<Lsn> for PositionStream {
    fn from_iter<I: IntoIterator<Item = Lsn>>(iter: I) -> PositionStream {
        let mut s = PositionStream::new();
        for lsn in iter {
            s.push(lsn);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(ps: &[u64]) -> PositionStream {
        ps.iter().map(|&p| Lsn(p)).collect()
    }

    #[test]
    fn push_and_iterate_in_order() {
        let s = stream(&[10, 20, 30]);
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![Lsn(10), Lsn(20), Lsn(30)]
        );
        assert_eq!(s.first(), Some(Lsn(10)));
        assert_eq!(s.last(), Some(Lsn(30)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_push_panics_in_debug() {
        let mut s = stream(&[10]);
        s.push(Lsn(5));
    }

    #[test]
    fn truncate_clears() {
        let mut s = stream(&[10, 20]);
        s.truncate();
        assert!(s.is_empty());
        // And a fresh checkpointed epoch can start over at lower LSNs? No —
        // LSNs only grow; but push after truncate works.
        s.push(Lsn(30));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn truncate_from_drops_suffix() {
        let mut s = stream(&[10, 20, 30, 40]);
        s.truncate_from(Lsn(30));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Lsn(10), Lsn(20)]);
        // Boundary not present in the stream: drops everything >= it.
        let mut s = stream(&[10, 20, 30, 40]);
        s.truncate_from(Lsn(25));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Lsn(10), Lsn(20)]);
    }

    #[test]
    fn remove_range_is_inclusive_and_keeps_tail() {
        let mut s = stream(&[10, 20, 30, 40, 50]);
        s.remove_range(Lsn(20), Lsn(40));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Lsn(10), Lsn(50)]);
    }

    #[test]
    fn iter_from_starts_at_boundary() {
        let s = stream(&[10, 20, 30]);
        assert_eq!(
            s.iter_from(Lsn(20)).collect::<Vec<_>>(),
            vec![Lsn(20), Lsn(30)]
        );
        assert_eq!(s.iter_from(Lsn(21)).collect::<Vec<_>>(), vec![Lsn(30)]);
        assert_eq!(s.iter_from(Lsn(99)).count(), 0);
    }

    #[test]
    fn span_bytes() {
        assert_eq!(stream(&[]).span_bytes(), 0);
        assert_eq!(stream(&[100]).span_bytes(), 0);
        assert_eq!(stream(&[100, 600]).span_bytes(), 500);
    }
}
