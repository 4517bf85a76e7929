//! In-memory span recorder for the traced run.
//!
//! A span has a name, start, end, the span that caused it, and the op
//! it belongs to (all spans of one op share the op id). Spans stay in
//! memory until the run ends; a disabled tracer records nothing and
//! reads no clock, so untraced runs pay only a branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `client.upload_dataset`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; `start_ns` while
    /// the span is still open.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed wall duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus the part covered by children),
    /// nanoseconds.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean wall duration in milliseconds (0 when no spans).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }

    /// Mean self time in milliseconds (0 when no spans).
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// The span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Turns recording on or off from here on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of op `op`, nested under the
    /// innermost open span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over spans recorded at or after index `from`.
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, NameTotals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += self_ns[i];
        }
        out
    }

    /// The spans as JSON lines: `{"name","op","id","parent","start_ns","end_ns"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"id\":{id},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its direct children covers (children are clipped
/// to the parent, and overlapping children are not double-counted).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: 1, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            // Overlaps `a`: the covered union is [10, 50), not 20 + 30.
            span("b", Some(0), 20, 50),
            // A grandchild is charged to `b`, not to `op`.
            span("c", Some(2), 25, 45),
            // Runs past the parent's end: clipped to [90, 100).
            span("d", Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30 - 20, 20, 30]);
    }

    #[test]
    fn nested_spans_record_parents_and_share_the_op() {
        let mut t = Tracer::new(true);
        let v = t.span("op", 7, |t| {
            t.span("child", 7, |t| t.span("leaf", 7, |_| 5)) + t.span("sibling", 7, |_| 1)
        });
        assert_eq!(v, 6);
        let s = t.spans();
        assert_eq!(
            s.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["op", "child", "leaf", "sibling"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        assert!(s.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let totals = t.totals_since(0);
        assert_eq!(totals["op"].count, 1);
        assert!(totals["op"].self_ns <= totals["op"].total_ns);
        assert_eq!(t.totals_since(3).len(), 1, "only `sibling` is at index >= 3");
        assert_eq!(t.to_jsonl().lines().count(), 4);
        assert!(t.to_jsonl().contains("\"parent\":null"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("op", 1, |t| t.span("child", 1, |_| 3)), 3);
        assert!(t.spans().is_empty());
        assert_eq!(NameTotals::default().mean_ms(), 0.0);
    }
}
