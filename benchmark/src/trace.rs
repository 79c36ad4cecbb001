//! Spans recorded by the benchmark around its calls into each layer
//! (`--trace 1` only). Spans stay in memory; the per-layer metrics are
//! read off them, and the whole set is written out as a Chrome trace when
//! the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `sparse.split`.
    pub name: &'static str,
    /// Lane: 0 for the main thread, 1.. for load-generator connections.
    pub lane: usize,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span on the same lane, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span log for one lane. Lanes are merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    lane: usize,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// An empty tracer for lane 0.
    pub fn new() -> Self {
        Self::lane(Instant::now(), 0)
    }

    /// An empty tracer sharing `origin`, for another lane.
    pub fn lane(origin: Instant, lane: usize) -> Self {
        Tracer { origin, lane, spans: RefCell::new(Vec::new()), open: RefCell::new(Vec::new()) }
    }

    /// The shared time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.open.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span { name, lane: self.lane, start_ns: self.now_ns(), end_ns: 0, parent });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    /// Runs `f` `reps` times, each in its own span, and returns the median
    /// duration in milliseconds.
    pub fn median_ms<R>(&self, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
        for _ in 0..reps {
            std::hint::black_box(self.span(name, &mut f));
        }
        crate::stats::median(&self.durations_ms(name))
    }

    /// Durations of every closed span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.borrow().iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Moves `other`'s spans into this tracer, re-basing parent indices.
    pub fn absorb(&self, other: Tracer) {
        let mut spans = self.spans.borrow_mut();
        let base = spans.len();
        spans.extend(other.spans.into_inner().into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent_and_lanes_merge() {
        let t = Tracer::new();
        t.span("outer", || t.span("inner", || ()));
        let other = Tracer::lane(t.origin(), 1);
        other.span("outer", || other.span("inner", || ()));
        t.absorb(other);
        let spans = t.spans.borrow();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].lane, 1);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        drop(spans);
        assert_eq!(t.durations_ms("inner").len(), 2);
        assert!(t.chrome_json().contains("\"parent\": 0"));
    }
}
