//! Spans around every call the benchmark makes into a layer.
//!
//! A span is (name, layer, start, end, parent, repetition); spans of
//! one run share the workload name in the file header. They are kept
//! in memory and written as one JSON document when the run ends. With
//! the tracer off — every end-to-end run — [`Tracer::span`] is a
//! branch and a call.

use std::cell::RefCell;
use std::time::Instant;

/// Index of a span in the tracer's list.
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The crate the call went into (`mechanism`, `sfip`, …) or
    /// `lpbench` for the benchmark's own phases.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub repetition: u32,
}

struct Inner {
    spans: Vec<Span>,
    open: Vec<SpanId>,
    repetition: u32,
}

pub struct Tracer {
    origin: Instant,
    inner: Option<RefCell<Inner>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: enabled.then(|| {
                RefCell::new(Inner {
                    // Reserved up front so recording a span inside an
                    // interposed window does not grow the heap (a
                    // stray `brk` there would show in the counts).
                    spans: Vec::with_capacity(1 << 16),
                    open: Vec::with_capacity(16),
                    repetition: 0,
                })
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Spans opened from now on belong to repetition `n`.
    pub fn set_repetition(&self, n: u32) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().repetition = n;
        }
    }

    /// Runs `f` inside a span; nested calls become children.
    pub fn span<T>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(inner) = &self.inner else {
            return f();
        };
        let id = {
            let mut t = inner.borrow_mut();
            let id = t.spans.len();
            let span = Span {
                name,
                layer,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: t.open.last().copied(),
                repetition: t.repetition,
            };
            t.spans.push(span);
            t.open.push(id);
            id
        };
        let out = f();
        let mut t = inner.borrow_mut();
        t.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        t.open.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|i| i.borrow().spans.clone())
            .unwrap_or_default()
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (children of one parent never
/// overlap — they are opened and closed on one thread, in order).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let covered = s.end_ns.min(spans[p].end_ns) - s.start_ns.max(spans[p].start_ns);
            own[p] = own[p].saturating_sub(covered);
        }
    }
    own
}

/// Self time summed per (layer, name), largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, &'static str, u64, usize)> {
    let own = self_times(spans);
    let mut rows: Vec<(&'static str, &'static str, u64, usize)> = Vec::new();
    for (s, t) in spans.iter().zip(own) {
        match rows.iter_mut().find(|r| r.0 == s.layer && r.1 == s.name) {
            Some(r) => {
                r.2 += t;
                r.3 += 1;
            }
            None => rows.push((s.layer, s.name, t, 1)),
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));
    rows
}

/// The span file: a header naming the run, then every span with its
/// self time. Names and layers are identifiers from this source tree,
/// so they need no escaping.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": [\n"
    );
    for (i, (s, own_ns)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"layer\": \"{}\", \
             \"repetition\": {}, \"start\": {}, \"end\": {}, \"self\": {own_ns}}}{}\n",
            s.name,
            s.layer,
            s.repetition,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            layer: "l",
            start_ns,
            end_ns,
            parent,
            repetition: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(0, 100, None),    // root
            span(10, 40, Some(0)), // first child
            span(15, 25, Some(1)), // grandchild: comes off the child only
            span(50, 90, Some(0)), // sibling of the first child
            span(200, 230, None),  // a second root
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40, 30]);
    }

    #[test]
    fn tracer_nests_and_tags_repetitions() {
        let t = Tracer::new(true);
        t.span("outer", "lpbench", || {
            t.span("inner", "mechanism", || ());
        });
        t.set_repetition(3);
        t.span("later", "lpbench", || ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert_eq!((s[1].repetition, s[2].repetition), (0, 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let json = to_json("w", 1, &s);
        assert!(json.contains("\"name\": \"inner\", \"layer\": \"mechanism\""));
        assert!(crate::json::parse(&json).is_ok());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", "y", || 5), 5);
        assert!(t.spans().is_empty());
    }
}
