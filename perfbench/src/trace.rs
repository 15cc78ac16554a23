//! In-memory spans around each call into a library layer.
//!
//! The untraced run uses [`NoTrace`], whose methods compile to nothing;
//! the traced run records every span (name, start, end, parent) and
//! derives self times from them at the end. Spans are written as
//! Chrome-trace complete events so Perfetto can open them. (The
//! library's own Chrome exporter speaks simulated time and serving
//! tracks, not host time, so it is not reused here.)

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Where a workload reports the layer calls it makes.
pub trait Tracer {
    /// Opens a span nested in the innermost open one.
    fn enter(&mut self, name: &'static str);
    /// Closes the innermost open span.
    fn exit(&mut self);
}

/// Runs `f` inside a span called `name`.
pub fn span<T: Tracer, R>(t: &mut T, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
    t.enter(name);
    let r = f(t);
    t.exit();
    r
}

/// Tracing off.
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _: &'static str) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// One recorded span; times are ns since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Tracing on: every span kept in memory until the run ends.
pub struct Spans {
    base: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            base: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Tracer for Spans {
    fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = end_ns;
    }
}

/// Per-span-name totals: number of spans and summed self time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
}

/// Each span's own time: its duration minus the part of it that its
/// child spans cover (children clipped to the parent, overlaps counted
/// once), summed per span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
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
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += s.end_ns - s.start_ns - covered;
    }
    out
}

/// Spans whose interval is not inside their parent's.
pub fn escaping_children(spans: &[Span]) -> usize {
    spans
        .iter()
        .filter(|s| {
            s.parent.is_some_and(|p| {
                let parent = &spans[p];
                s.start_ns < parent.start_ns || s.end_ns > parent.end_ns
            })
        })
        .count()
}

/// Chrome-trace JSON (`{"traceEvents": [...]}`) with one complete
/// (`"ph":"X"`) event per span, timestamps in microseconds.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once_and_clips_them() {
        let spans = vec![
            sp("point", 0, 100, None),
            sp("a", 10, 30, Some(0)),
            // Overlaps `a` by 10 ns: covered once.
            sp("b", 20, 50, Some(0)),
            // Runs past the parent's end: clipped at 100.
            sp("c", 90, 120, Some(0)),
            // Grandchild: charged to `b`, not to `point`.
            sp("d", 25, 35, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["point"].self_ns, 100 - (50 - 10) - (100 - 90));
        assert_eq!(t["a"].self_ns, 20);
        assert_eq!(t["b"].self_ns, 30 - 10);
        assert_eq!(t["c"].self_ns, 30);
        assert_eq!(t["d"].self_ns, 10);
        assert_eq!(escaping_children(&spans), 1);
    }

    #[test]
    fn self_times_sum_per_name() {
        let spans = vec![
            sp("point", 0, 10, None),
            sp("x", 2, 5, Some(0)),
            sp("point", 10, 30, None),
            sp("x", 12, 20, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["point"],
            SelfTime {
                count: 2,
                self_ns: 7 + 12
            }
        );
        assert_eq!(
            t["x"],
            SelfTime {
                count: 2,
                self_ns: 11
            }
        );
    }

    #[test]
    fn recorder_nests_spans_and_exports_them() {
        let mut t = Spans::new();
        span(&mut t, "outer", |t| span(t, "inner", |_| ()));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(escaping_children(&t.spans), 0);
        let json = chrome_json(&t.spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"parent\":0"));
    }
}
