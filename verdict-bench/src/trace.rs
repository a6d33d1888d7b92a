//! In-memory spans recorded by the benchmark around each call it makes
//! into the program. Nothing here runs inside the program: a span
//! brackets one public call (`Monitor::ingest`, `FlowDemux::push`, …),
//! so a layer's self time is what that call cost the caller's thread.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// Where the replay loop sends its spans. The untraced run uses
/// [`NoSpans`], which compiles every call away; the traced run uses a
/// [`Tracer`].
pub trait Spans {
    /// `false` when recording is a no-op, so callers can skip the
    /// extra clock reads a span needs.
    const ON: bool;
    /// Opens a span that encloses later spans.
    fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId>;
    /// Closes a span opened with [`open`](Spans::open).
    fn close(&mut self, id: Option<SpanId>);
    /// Records a finished leaf span.
    fn leaf(&mut self, name: &'static str, parent: Option<SpanId>, start: Instant, end: Instant);
}

/// Records nothing.
pub struct NoSpans;

impl Spans for NoSpans {
    const ON: bool = false;
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: Option<SpanId>) -> Option<SpanId> {
        None
    }
    #[inline(always)]
    fn close(&mut self, _: Option<SpanId>) {}
    #[inline(always)]
    fn leaf(&mut self, _: &'static str, _: Option<SpanId>, _: Instant, _: Instant) {}
}

/// One recorded span, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call the span brackets.
    pub name: &'static str,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log; `capacity` spans are reserved up front so the hot
    /// loop does not reallocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time (total minus the time of
    /// direct children), sorted by self time, descending.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let entry = by_name.entry(span.name).or_insert(SelfTime {
                name: span.name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(child_ns[i]);
        }
        let mut rows: Vec<SelfTime> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        rows
    }

    /// The log as tab-separated text: `id parent name start_ns end_ns`,
    /// one span a line, `-` for a root's parent.
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 40);
        out.push_str("id\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = match s.parent {
                Some(p) => writeln!(out, "{i}\t{p}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns),
                None => writeln!(out, "{i}\t-\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns),
            };
        }
        out
    }
}

impl Spans for Tracer {
    const ON: bool = true;

    fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let id = self.spans.len() as SpanId;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(id)
    }

    fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.ns(Instant::now());
            self.spans[id as usize].end_ns = end_ns;
        }
    }

    #[inline]
    fn leaf(&mut self, name: &'static str, parent: Option<SpanId>, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, Copy)]
pub struct SelfTime {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: u64,
    /// Their summed duration, ns.
    pub total_ns: u64,
    /// Their summed self time, ns.
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::with_capacity(4);
        let base = t.origin;
        let root = t.open("root", None);
        t.leaf("a", root, base, base + Duration::from_nanos(30));
        t.leaf("a", root, base, base + Duration::from_nanos(20));
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 100;
        let rows = t.self_times();
        let get = |n: &str| rows.iter().find(|r| r.name == n).copied().unwrap();
        assert_eq!(get("root").self_ns, 50);
        assert_eq!(get("a").count, 2);
        assert_eq!(get("a").total_ns, 50);
    }
}
