//! Spans recorded by the benchmark's own code around its calls into the
//! program, kept in memory and written out once when the run ends.
//!
//! Spans of one request (or one probe batch) share an `id`; `parent` is
//! the index of the enclosing span in the same trace. A layer's self time
//! is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Request or probe id shared by every span of one unit of work.
    pub id: u64,
    /// Index of the enclosing span in [`Trace::spans`].
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanSummary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Spans beyond this many stay out of the trace file (not out of its
/// summary).
const MAX_SPANS_WRITTEN: usize = 100_000;

/// In-memory span sink. A disabled trace records nothing, so the measured
/// (untraced) run pays one branch per would-be span.
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn span(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Time `f` as one span.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, id, parent, start, Instant::now());
        out
    }

    pub fn summary(&self) -> BTreeMap<&'static str, SpanSummary> {
        summarize(&self.spans)
    }

    /// The trace as one JSON document: the per-name table over every
    /// span, then the spans themselves, the first [`MAX_SPANS_WRITTEN`] of
    /// them (a closed loop records half a million in ten seconds).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let written = &self.spans[..self.spans.len().min(MAX_SPANS_WRITTEN)];
        let mut s = String::with_capacity(256 + written.len() * 80);
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"summary\":{{",
            self.spans.len()
        );
        for (i, (name, t)) in self.summary().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        s.push_str("},\"spans\":[\n");
        for (i, sp) in written.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                sp.name, sp.id, sp.start_ns, sp.end_ns
            );
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (children clipped to the parent, overlaps
/// between siblings counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            let parent = &spans[p as usize];
            let (s, e) = (
                sp.start_ns.max(parent.start_ns),
                sp.end_ns.min(parent.end_ns),
            );
            if e > s {
                children[p as usize].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(sp, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, sp.start_ns);
            for &(s, e) in kids.iter() {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (sp.end_ns - sp.start_ns).saturating_sub(covered)
        })
        .collect()
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for (sp, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(sp.name).or_default();
        t.count += 1;
        t.total_ns += sp.end_ns - sp.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            sp("req", None, 0, 100),
            sp("req.late", Some(0), 0, 10),
            sp("req.wait", Some(0), 10, 95),
            sp("req.busy", Some(2), 20, 30),
            sp("req.busy", Some(2), 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![5, 10, 55, 10, 20]);
        let t = summarize(&spans);
        assert_eq!(t["req"].self_ns, 5);
        assert_eq!(t["req.wait"].total_ns, 85);
        assert_eq!(t["req.busy"].count, 2);
        assert_eq!(t["req.busy"].self_ns, 30);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            sp("p", None, 10, 50),
            sp("a", Some(0), 0, 30),  // clipped to 10..30
            sp("b", Some(0), 20, 40), // overlaps a on 20..30
            sp("c", Some(0), 45, 90), // clipped to 45..50
        ];
        // Covered: 10..40 and 45..50 = 35 of 40.
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let now = Instant::now();
        assert_eq!(t.span("x", 1, None, now, now), None);
        assert!(t.spans.is_empty());
    }
}
