//! Span recorder for traced runs.
//!
//! Spans are recorded by benchmark code only, around each call it makes
//! into the system (the layers' own code is not instrumented). They are
//! kept in memory and written as JSON lines when the run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! direct child spans cover.

use std::io::{self, Write};
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = u32;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Position in the recorder (also the id children refer to).
    pub id: SpanId,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Layer boundary the span covers (`pass`, `engine.run`, ...).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (never before `start_ns`).
    pub end_ns: u64,
    /// The operation the span belongs to: its index in the workload's
    /// operation order, shared by every span of that operation.
    pub req: Option<u64>,
}

impl Span {
    /// Length of the span in ns.
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with one time origin.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// `at` as ns since the epoch (0 for instants before it).
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span between two measured instants.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push_ns(name, parent, req, start_ns, end_ns)
    }

    /// Records a finished span given in ns since the epoch.
    pub fn push_ns(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            req,
        });
        id
    }

    /// Opens a span starting now; [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.push_ns(name, parent, None, now, now)
    }

    /// Ends an [`open`](Self::open)ed span now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        let span = &mut self.spans[id as usize];
        span.end_ns = now.max(span.start_ns);
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Takes the recorded spans out of the recorder.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes one JSON object per span and line.
pub fn write_jsonl(spans: &[Span], mut out: impl Write) -> io::Result<()> {
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"req\":{}}}",
            s.id,
            opt(s.parent.map(u64::from)),
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.req)
        )?;
    }
    out.flush()
}

/// Length of the union of `intervals`, each clipped to `[start, end)`.
pub fn covered(start: u64, end: u64, intervals: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of its direct children's intervals. Grandchildren lie inside
/// their parents, so they are not counted again.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(children: &[(u64, u64)]) -> Vec<Span> {
        let mut rec = Recorder::new();
        let root = rec.push_ns("root", None, None, 0, 100);
        for &(s, e) in children {
            rec.push_ns("child", Some(root), None, s, e);
        }
        rec.spans().to_vec()
    }

    #[test]
    fn nested_children_count_once() {
        let mut spans = tree(&[(10, 60)]);
        // A grandchild inside the child must not shrink the root again.
        spans.push(Span {
            id: 2,
            parent: Some(1),
            name: "grandchild",
            start_ns: 20,
            end_ns: 40,
            req: None,
        });
        let own = self_times(&spans);
        assert_eq!(own, vec![50, 30, 20]);
    }

    #[test]
    fn adjacent_children_add_up() {
        let own = self_times(&tree(&[(0, 30), (30, 70), (70, 100)]));
        assert_eq!(own[0], 0);
        let own = self_times(&tree(&[(10, 20), (20, 25)]));
        assert_eq!(own[0], 85);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let own = self_times(&tree(&[(10, 50), (40, 70), (45, 60)]));
        assert_eq!(own[0], 100 - 60);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let own = self_times(&tree(&[(90, 130)]));
        assert_eq!(own[0], 90);
        assert_eq!(covered(0, 10, [(20, 30)]), 0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut rec = Recorder::new();
        let p = rec.push_ns("pass", None, None, 5, 9);
        rec.push_ns("engine.run", Some(p), Some(3), 6, 8);
        let mut buf = Vec::new();
        write_jsonl(rec.spans(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(
            text,
            "{\"id\":0,\"parent\":null,\"name\":\"pass\",\"start_ns\":5,\"end_ns\":9,\"req\":null}\n\
             {\"id\":1,\"parent\":0,\"name\":\"engine.run\",\"start_ns\":6,\"end_ns\":8,\"req\":3}\n"
        );
    }
}
