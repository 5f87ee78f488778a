//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent and a request id. Spans
//! are kept in memory while the traced run replays its requests and are
//! written out (as JSON lines) when it ends. A layer's self time is its
//! span minus the part of that interval its child spans cover; children
//! may nest or overlap, so the covered part is the length of their union.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records spans when enabled; when disabled every call is a no-op that
/// reads no clock, which is what the tracing overhead is measured against.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Tags the spans opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        Ok(())
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.retain(|&(a, b)| b > lo && a < hi);
    intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Total self time per span name, in seconds, over the spans from index
/// `from` on (parents are indices into the whole of `spans`).
pub fn self_time_by_name(spans: &[Span], from: usize) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)).skip(from) {
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = [span("a", 1.0, 3.5, None)];
        assert_eq!(self_times(&spans), vec![2.5]);
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root 0..10 ⊃ child 1..4 ⊃ grandchild 2..3; child 6..8.
        let spans = [
            span("root", 0.0, 10.0, None),
            span("child", 1.0, 4.0, Some(0)),
            span("grandchild", 2.0, 3.0, Some(1)),
            span("child", 6.0, 8.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 5.0).abs() < 1e-12);
        assert!((t[1] - 2.0).abs() < 1e-12);
        assert!((t[2] - 1.0).abs() < 1e-12);
        assert!((t[3] - 2.0).abs() < 1e-12);
        let by_name = self_time_by_name(&spans, 0);
        assert!((by_name["child"] - 4.0).abs() < 1e-12);
        let tail = self_time_by_name(&spans, 2);
        assert!((tail["child"] - 2.0).abs() < 1e-12);
        assert!(!tail.contains_key("root"));
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children 1..5 and 3..7 overlap on 3..5: they cover 1..7 (6 s),
        // not 8 s; a child running past its parent is clipped at 10.
        let spans = [
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 5.0, Some(0)),
            span("b", 3.0, 7.0, Some(0)),
            span("c", 9.0, 12.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn recorder_links_parents_and_requests() {
        let mut rec = Recorder::new(true);
        rec.set_request(7);
        rec.span("outer", |r| {
            r.span("inner", |_| std::hint::black_box(1 + 1));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 2);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("x", |_| 3);
        assert_eq!(v, 3);
        assert!(rec.spans().is_empty());
    }
}
